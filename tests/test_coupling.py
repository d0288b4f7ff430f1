import math
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from localis.coupling import (
    ConditioningError,
    CouplingConfig,
    _jackknife_moment,
    _stability_trial_fn,
    copy_graphs,
    coupled_er_intersections,
    coupled_graph_intersections,
    coupled_tree_intersections,
    er_resample_graphs,
    estimate_stability,
    run_intersections,
    scan_p,
    vertex_states,
)
from localis.factors import (
    TreeBlock,
    _project_bits,
    constant_factor,
    estimate_tree_density,
    lauer_wormald,
    threshold_factor,
)
from localis.graphs import (
    ConfigModelHost,
    ErdosRenyiHost,
    ErExploration,
    LazyTree,
    MultiGraph,
    PGWTreeHost,
    RegularTreeHost,
    TreeLabels,
    ball_is_tree,
    bernoulli_pairs,
    neighborhood,
    non_tree_ball_mask,
    sample_er,
)
from localis import coupling, factors, parallel
from localis.parallel import mean_stderr, run_trials
from localis.profiles import binom_sum
from localis.rng import (
    CoupledLabels,
    fold,
    fold_np,
    percolation_cut,
    state_rng,
    trial_state,
    trial_state_np,
)

import exploration_reference as reference
from conftest import assert_within_sigma, ball_arrays, binomial_se

F = threshold_factor()
T3 = RegularTreeHost(3)


def tree_cfg(p, k=3, trials=20_000, seed=0, inner=200):
    return CouplingConfig(p=p, k=k, factor=F, host=T3, trials=trials,
                          inner_trials=inner, seed=seed)


# ---------------------------------------------------------------------------
# tree coupling
# ---------------------------------------------------------------------------


def test_tree_coupling_p0_identical_copies():
    est = coupled_tree_intersections(tree_cfg(0.0, trials=5000, seed=1))
    rows = est.prefix_rows
    assert np.array_equal(rows[:, 0], rows[:, 1])
    assert np.array_equal(rows[:, 0], rows[:, 2])
    assert est.means[0] == est.means[2]


def test_tree_coupling_p1_independent_copies():
    est = coupled_tree_intersections(tree_cfg(1.0, trials=100_000, seed=2))
    m1, se1 = est.density(1)
    for i in (2, 3):
        mi, sei = est.density(i)
        # density of the i-wise intersection is the single density to the i-th power
        se_rhs = i * m1 ** (i - 1) * se1
        assert_within_sigma(mi, m1**i, sei, se_rhs, context=f"p=1 prefix {i}")


def test_tree_coupling_k1_matches_density():
    cfg = tree_cfg(0.37, k=1, trials=40_000, seed=3)
    est = coupled_tree_intersections(cfg)
    ref = estimate_tree_density(F, T3, 40_000, seed=4)
    assert_within_sigma(
        est.means[0], ref.mean, est.stderrs[0], ref.stderr, context="k=1 vs density"
    )


def test_tree_coupling_prefix_monotone_per_trial():
    est = coupled_tree_intersections(tree_cfg(0.5, trials=3000, seed=5))
    rows = est.prefix_rows
    assert np.all(np.diff(rows, axis=1) <= 0)


def _tree_rows(cfg, copies) -> np.ndarray:
    """The prefix rows of cfg's trials with the copies taken in this order."""

    def block(lo, hi):
        trees = TreeBlock(cfg.factor, cfg.host, trial_state_np(cfg.seed, np.arange(lo, hi)), cfg.p)
        return trees.bits(np.array(copies)).cumprod(axis=0).T

    return run_trials(block, cfg.trials)


def test_tree_coupling_exchangeable_streams():
    cfg = tree_cfg(0.5, trials=60_000, seed=6)
    fwd = coupled_tree_intersections(cfg)
    rev = coupling._prefix_estimate(cfg, _tree_rows(cfg, [3, 2, 1]))
    for i in (1, 2, 3):
        assert_within_sigma(
            fwd.means[i - 1], rev.means[i - 1],
            fwd.stderrs[i - 1], rev.stderrs[i - 1],
            context=f"exchangeability i={i}",
        )


def test_binom_stats_at_endpoints():
    # closed endpoint values: at p=0 the k=2 statistic is a1(2-a1) >= 0,
    # at p=1 it is 2 a1 (2 - a1) - a2 (2 - a2) with a2 = a1^2 * scale
    for p, seed in ((0.0, 7), (1.0, 8)):
        est = coupled_tree_intersections(tree_cfg(p, k=2, trials=30_000, seed=seed))
        stat = binom_sum(est.alphas(2))
        assert stat >= -1e-9, f"k=2 binomial statistic negative at p={p}"
    est = coupled_tree_intersections(tree_cfg(0.0, k=3, trials=30_000, seed=9))
    assert binom_sum(est.alphas(3)) >= -1e-9


# The per-trial LazyTree/TreeLabels evaluation, kept as the reference for
# factors.TreeBlock (the roots' children at radius <= 1, level arrays beyond).


def _scalar_prefix_rows(cfg, streams) -> list:
    rows = []
    for t in range(cfg.trials):
        tree = LazyTree(cfg.host, cfg.factor.radius, trial_state(cfg.seed, t))
        bits = [cfg.factor.rule(TreeLabels(tree, copy=s, p=cfg.p)) for s in streams]
        rows.append(np.cumprod(bits).astype(np.float64).tolist())
    return rows


def _scalar_stability_rows(cfg) -> list:
    rows = []
    for t in range(cfg.trials):
        tree = LazyTree(cfg.host, cfg.factor.radius, trial_state(cfg.seed, t))
        if cfg.factor.rule(TreeLabels(tree, copy=0, p=cfg.p)) != 1:
            rows.append([0.0, -1.0])
            continue
        cnt = sum(
            cfg.factor.rule(TreeLabels(tree, copy=j, p=cfg.p))
            for j in range(1, cfg.inner_trials + 1)
        )
        rows.append([1.0, float(cnt)])
    return rows


BATCH_HOSTS = [RegularTreeHost(d) for d in range(2, 7)] + [PGWTreeHost(0.5), PGWTreeHost(3.0)]
LW = lauer_wormald(0.3, 2)
# one factor per path and radius: threshold (1) on the roots' children,
# constant (0) on the roots alone, LW (3) on the level arrays
ROW_FACTORS = [F, constant_factor(1), LW]


# at p = 1e-30, as at p = 0, S is empty (percolation_cut(p) == 0): the rows
# take copy 0 for every copy, and the reference evaluates each copy
EMPTY_S = [0.0, 1e-30]


@pytest.mark.parametrize("p", [*EMPTY_S, 0.3, 1.0])
@pytest.mark.parametrize("host", BATCH_HOSTS)
def test_tree_prefix_rows_match_the_lazy_tree_rows(host, p):
    assert (percolation_cut(p) == 0) == (p in EMPTY_S)
    for f in ROW_FACTORS:
        cfg = CouplingConfig(p=p, k=3, factor=f, host=host, trials=300, seed=42)
        est = coupled_tree_intersections(cfg)
        assert est.prefix_rows.tolist() == _scalar_prefix_rows(cfg, [1, 2, 3]), f.kind
        for copies in ([3, 1, 2], [2, 5, 4]):  # TreeBlock takes any copy order
            rows = _tree_rows(cfg, copies)
            assert rows.tolist() == _scalar_prefix_rows(cfg, copies), (f.kind, copies)


@pytest.mark.parametrize("p", [*EMPTY_S, 0.3, 1.0])
@pytest.mark.parametrize("host", BATCH_HOSTS)
def test_tree_stability_rows_match_the_lazy_tree_rows(host, p):
    for f in ROW_FACTORS:
        cfg = CouplingConfig(p=p, k=2, factor=f, host=host, trials=150, inner_trials=25,
                             seed=43)
        rows = run_trials(_stability_trial_fn(cfg), cfg.trials)
        assert rows.tolist() == _scalar_stability_rows(cfg), f.kind
        assert (rows[:, 0] == 1.0).any(), f.kind


def test_tree_rows_do_not_depend_on_the_block_size(monkeypatch):
    sizes = [dict(k=3, trials=2500, inner_trials=12), dict(k=40, trials=60, inner_trials=50)]
    cases = [(f, size) for f in (F, LW) for size in sizes]

    def rows(f, size):
        cfg = CouplingConfig(p=0.3, factor=f, host=PGWTreeHost(2.0), seed=44, **size)
        return [
            coupled_tree_intersections(cfg).prefix_rows,
            run_trials(_stability_trial_fn(cfg), cfg.trials),
            estimate_tree_density(f, cfg.host, cfg.trials, seed=44).mean,
        ]

    whole = [rows(f, size) for f, size in cases]
    monkeypatch.setattr(parallel, "BLOCK", 7)  # 358 blocks, the last one short
    monkeypatch.setattr(coupling, "BLOCK", 7)  # stability's inner copies, 7 a call
    # at most 5 (copy, row) pairs a rule call: a 7-row block in passes of 5
    # and 2 rows, one copy each; R <= 5 accepted rows 5 // R copies a pass
    monkeypatch.setattr(factors, "PASS_PAIRS", 5)

    def bounded(rule):
        def call(host, s_density, roots, copies):
            assert roots.size * np.size(copies) <= 5, (roots.size, copies)
            return rule(host, s_density, roots, copies)

        return call

    for (f, size), (prefix, stability, density) in zip(cases, whole):
        cut = rows(replace(f, array_rule=bounded(f.array_rule)), size)
        assert np.array_equal(prefix, cut[0]), (f.kind, size)
        assert np.array_equal(stability, cut[1]), (f.kind, size)
        assert density == cut[2], (f.kind, size)


def test_tree_stability_holds_bounded_memory():
    """Stability counts inner successes BLOCK copies a call, so the bits it
    holds stay bounded: 1.7 MiB traced here, where one call over all 20,000
    inner copies of a block's accepted rows traces 6.3 MiB."""
    cfg = CouplingConfig(p=0.5, k=2, factor=F, host=RegularTreeHost(3), trials=1024,
                         inner_trials=20_000, seed=46)
    estimate_stability(replace(cfg, trials=4, inner_trials=2))  # one-time allocations
    tracemalloc.start()
    try:
        est = estimate_stability(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.accepted > 0
    assert peak < 2 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_tree_intersections_workers_deterministic():
    for f in (F, LW):
        cfg = replace(tree_cfg(0.4, trials=3000, seed=45), factor=f)
        a = coupled_tree_intersections(cfg)
        b = coupled_tree_intersections(replace(cfg, workers=2))
        assert np.array_equal(a.prefix_rows, b.prefix_rows), f.kind


@pytest.mark.parametrize("host", [ConfigModelHost(10, 3), ErdosRenyiHost(10, 2.0)])
def test_tree_paths_reject_graph_hosts(host):
    with pytest.raises(TypeError):
        LazyTree(host, 1, 0)
    with pytest.raises(TypeError):
        estimate_tree_density(F, host, 5)
    with pytest.raises(TypeError):
        coupled_tree_intersections(replace(tree_cfg(0.5, trials=5), host=host))


# ---------------------------------------------------------------------------
# configuration-model coupling
# ---------------------------------------------------------------------------


def test_graph_coupling_profiles():
    cfg = CouplingConfig(p=0.5, k=2, factor=F, host=ConfigModelHost(300, 3),
                         trials=80, seed=10)
    est = coupled_graph_intersections(cfg)
    # p=0 copies equal is covered below; here: exchangeability of the copies,
    # |I1| against copy 2's labels projected on copy 1's graph, trial by trial
    other, bfracs = [], []
    for t in range(cfg.trials):
        st = trial_state(cfg.seed, t)
        g = coupling._sample_graph(cfg.host, fold(st, 1))
        labels = CoupledLabels(vertex_states(st, g.n), cfg.p)
        (g1,) = copy_graphs(cfg.host, g, st, labels, 1)
        bad = non_tree_ball_mask(g1, 2)
        bfracs.append(bad.mean())
        other.append(_project_bits(F, g1, ~bad, labels(2)).mean())
    bfrac = float(np.mean(bfracs))
    diff = est.prefix_rows[:, 0] - np.array(other)
    se = float(np.std(diff, ddof=1) / math.sqrt(len(diff)))
    assert abs(diff.mean()) <= 3 * se + 1e-12
    # projection loss bracket: tree density * (1 - B/n) <= mean <= tree density
    tree_density = 0.25
    m1, se1 = est.density(1)
    assert tree_density * (1 - bfrac) - 3 * se1 <= m1 <= tree_density + 3 * se1


def _trial_copies(cfg: CouplingConfig) -> list:
    """(graph, rule members) of copies 1..k of trial 0."""
    st = trial_state(cfg.seed, 0)
    g = coupling._sample_graph(cfg.host, fold(st, 1))
    labels = CoupledLabels(vertex_states(st, g.n), cfg.p)
    copies = copy_graphs(cfg.host, g, st, labels, cfg.k)
    return [(g_j, F.graph_rule(g_j, labels(j))) for j, g_j in enumerate(copies, 1)]


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_config_trial_walks_each_ball_at_most_once(mask_walks, p):
    # the k copies all read g, which keeps the balls they walked: one trial
    # walks the union of the copies' rule members, each vertex once
    cfg = CouplingConfig(p=p, k=8, factor=F, host=ConfigModelHost(300, 3), trials=1, seed=37)
    coupled_graph_intersections(cfg)
    owners = np.concatenate([at for _, _, at in mask_walks])
    assert np.unique(owners).size == owners.size <= cfg.host.n
    union = np.any([on for _, on in _trial_copies(cfg)], axis=0)
    assert np.array_equal(np.sort(owners), np.flatnonzero(union))


def test_er_copies_each_walk_their_own_members(mask_walks):
    cfg = CouplingConfig(p=0.5, k=4, factor=F, host=ErdosRenyiHost(300, 3.0), trials=1, seed=38)
    coupled_er_intersections(cfg)
    copies = _trial_copies(cfg)
    assert len({id(g_j) for g_j, _, _ in mask_walks}) == len(mask_walks) == cfg.k
    for (g_j, _, at), (ref_j, on) in zip(mask_walks, copies):
        assert g_j.edges == ref_j.edges
        assert np.array_equal(at, np.flatnonzero(on))


def _per_copy_rows(cfg: CouplingConfig) -> list:
    """The graph-host prefix rows with every copy projected on its copy
    graph, copies 1..k of each trial one by one."""
    rows = []
    for t in range(cfg.trials):
        st = trial_state(cfg.seed, t)
        g = coupling._sample_graph(cfg.host, fold(st, 1))
        labels = CoupledLabels(vertex_states(st, g.n), cfg.p)
        alive, row = np.ones(g.n, dtype=bool), []
        for j, g_j in enumerate(copy_graphs(cfg.host, g, st, labels, cfg.k), 1):
            alive &= factors.graph_bits(cfg.factor, g_j, labels(j))
            row.append(alive.sum() / g.n)
        rows.append(row)
    return rows


@pytest.mark.parametrize("p", EMPTY_S)
@pytest.mark.parametrize("host", [ConfigModelHost(2000, 3), ErdosRenyiHost(2000, 3.0)],
                         ids=["config", "er"])
def test_graph_intersections_project_one_copy_when_s_is_empty(monkeypatch, host, p):
    # every copy is copy 0 on g: one graph_bits call a trial, and the rows
    # of the per-copy loop, bit for bit
    calls = []

    def counted(*args):
        calls.append(args)
        return factors.graph_bits(*args)

    monkeypatch.setattr(coupling, "graph_bits", counted)
    cfg = CouplingConfig(p=p, k=3, factor=F, host=host, trials=50, seed=19)
    rows = run_intersections(cfg).prefix_rows
    assert len(calls) == cfg.trials
    assert rows.tolist() == _per_copy_rows(cfg)


def test_graph_coupling_p0_equal_copies():
    cfg = CouplingConfig(p=0.0, k=2, factor=F, host=ConfigModelHost(120, 3),
                         trials=40, seed=11)
    rows = coupled_graph_intersections(cfg).prefix_rows  # |I1| == |I1&I2|
    assert np.array_equal(rows[:, 0], rows[:, 1])


# ---------------------------------------------------------------------------
# Erdos-Renyi coupling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [0.0, 0.03])
def test_er_copy_graphs_are_g_without_a_pair_to_redraw(p):
    # S with fewer than 2 vertices leaves no SxS pair: every copy is g itself
    host, sizes = ErdosRenyiHost(40, 2.0), set()
    for t in range(40):
        st = trial_state(3, t)
        g = coupling._sample_graph(host, fold(st, 1))
        labels = CoupledLabels(vertex_states(st, host.n), p)
        size = int(labels.in_s.sum())
        copies = list(copy_graphs(host, g, st, labels, 3))
        assert len(copies) == 3
        assert all(c is g for c in copies) == (size < 2), (t, size)
        sizes.add(min(size, 2))
    assert sizes == ({0} if p == 0 else {0, 1, 2})


def test_er_scan_at_p0_equals_the_rebuilt_copies(monkeypatch):
    # at p = 0 S is empty, and the scan reads copy 0 alone: the outputs are
    # those of every copy read, on the copies rebuilt by er_resample_graphs
    cfg = CouplingConfig(p=0.0, k=3, factor=F, host=ErdosRenyiHost(60, 2.0), trials=30,
                         inner_trials=6, seed=11)
    fast = scan_p(cfg, [0.0]).rows[0]

    def rebuilt(host, g, st, labels, count):
        S = np.flatnonzero(labels.in_s)
        return er_resample_graphs(g, S, host.lam, count, fold(st, 3))

    monkeypatch.setattr(coupling, "copy_graphs", rebuilt)
    monkeypatch.setattr(coupling, "_empty_s", lambda p: False)
    slow = scan_p(cfg, [0.0]).rows[0]
    assert np.array_equal(fast.intersections.prefix_rows, slow.intersections.prefix_rows)
    assert fast.stability.moments == slow.stability.moments
    assert fast.binom_stats == slow.binom_stats


def test_er_resample_p0_identity():
    g = sample_er(80, 2.0, 12)
    copies = list(er_resample_graphs(g, np.array([], dtype=int), 2.0, 2, 13))
    assert copies[0].edges == g.edges
    assert copies[1].edges == g.edges


def _er_resample_per_copy(g, S, lam, k, seed) -> list:
    """er_resample_graphs as first written: S, the kept edges and the SxS
    pairs rebuilt on every call, the pairs by one bernoulli_pairs call per
    copy, so the kept-edge filter and the merge are checked byte for byte."""
    n = g.n
    S = np.asarray(sorted(int(v) for v in S), dtype=np.int64)
    in_s = np.zeros(n, dtype=bool)
    in_s[S] = True
    kept = [(u, v) for u, v in g.edges if not (in_s[u] and in_s[v])]
    out = []
    base = trial_state(seed, 0x5E5A)
    for i in range(k):
        a, b = bernoulli_pairs(state_rng(fold(base, i)), S.size, lam / n)
        fresh = [(int(S[x]), int(S[y])) for x, y in zip(a, b)]
        out.append(MultiGraph(n, sorted(kept + fresh), model="er"))
    return out


@settings(deadline=None, max_examples=60)
@given(
    size=st.sampled_from([0, 1, 2, 7, 40]),
    seed=st.integers(min_value=0, max_value=1 << 32),
)
def test_er_resampler_matches_the_per_copy_rebuild(size, seed):
    n, lam = 40, 3.0
    g = sample_er(n, lam, seed)
    S = np.random.default_rng(seed).permutation(n)[:size]  # unsorted on purpose
    want = _er_resample_per_copy(g, S, lam, 3, seed + 1)
    got = list(er_resample_graphs(g, S, lam, 3, seed + 1))
    assert [c.edges for c in got] == [c.edges for c in want]
    assert all(type(x) is int for c in got for e in c.edges for x in e)


@pytest.mark.parametrize("n,lam,p", [(12, 3.0, 0.5), (30, 2.0, 0.3), (30, 4.0, 1.0), (20, 2.0, 0.0)])
def test_local_er_copies_match_er_resample_graphs(n, lam, p):
    # every ball of each copy, read on demand, against the copy rebuilt whole
    for seed in range(4):
        in_s = np.random.default_rng(seed).random(n) < p
        g = sample_er(n, lam, seed)
        S = np.flatnonzero(in_s)
        copies = er_resample_graphs(g, S, lam, 3, seed + 100)
        wholes = _er_resample_per_copy(g, S, lam, 3, seed + 100)
        labels = np.random.default_rng(seed).integers(0, 1 << 64, size=n, dtype=np.uint64)
        for copy, whole in zip(copies, wholes):
            for v in range(n):
                for r in (1, 2, 3):
                    assert ball_is_tree(copy, v, r) == ball_is_tree(whole, v, r)
                    assert (ball_arrays(neighborhood(copy, v, r, labels))
                            == ball_arrays(neighborhood(whole, v, r, labels)))


def test_er_resample_full_independence():
    # S = [n], k = 2: presence of a fixed pair across copies is uncorrelated
    n, lam, trials = 30, 3.0, 10_000
    rng = np.random.default_rng(14)
    a = np.empty(trials)
    b = np.empty(trials)
    target = (0, 1)
    for t in range(trials):
        g = sample_er(n, lam, rng)
        c1, c2 = er_resample_graphs(g, np.arange(n), lam, 2, int(rng.integers(1 << 30)))
        a[t] = target in c1.edges
        b[t] = target in c2.edges
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 3.0 / math.sqrt(trials)


def test_er_resample_marginal_moments():
    n, lam, trials = 50, 2.0, 4000
    rng = np.random.default_rng(15)
    counts = np.empty(trials)
    for t in range(trials):
        g = sample_er(n, lam, rng)
        in_s = np.random.default_rng(int(rng.integers(1 << 30))).random(n) < 0.6
        S = np.flatnonzero(in_s)
        counts[t] = len(next(er_resample_graphs(g, S, lam, 1, int(rng.integers(1 << 30)))).edges)
    pairs = n * (n - 1) // 2
    p = lam / n
    assert_within_sigma(
        counts.mean(), pairs * p, math.sqrt(pairs * p * (1 - p) / trials),
        context="er resample marginal",
    )


def test_er_coupling_p0_and_monotone():
    cfg = CouplingConfig(p=0.0, k=3, factor=F, host=ErdosRenyiHost(120, 2.0),
                         trials=40, seed=16)
    rows = coupled_er_intersections(cfg).prefix_rows
    assert np.array_equal(rows[:, 0], rows[:, -1])
    cfg2 = CouplingConfig(p=0.6, k=3, factor=F, host=ErdosRenyiHost(120, 2.0),
                          trials=40, seed=17)
    prefix = coupled_er_intersections(cfg2).prefix_rows
    assert np.all(np.diff(prefix, axis=1) <= 1e-12)


def test_graph_host_intersections_keep_no_subset_lattice_row():
    # a graph-host trial keeps its k prefix densities, not a 2^k profile row
    # (2^16 float64 cells are 512 KiB a trial, 4 MiB over these 8 trials)
    cfg = CouplingConfig(p=0.5, k=16, factor=F, host=ErdosRenyiHost(30, 2.0),
                         trials=8, seed=24)
    run_intersections(replace(cfg, k=2, trials=1))  # one-time allocations
    tracemalloc.start()
    try:
        run_intersections(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_er_intersections_hold_one_copy_graph_at_a_time():
    # the copies are read one at a time into a running intersection, so the
    # traced peak does not grow with k
    def peak(k):
        cfg = CouplingConfig(p=0.5, k=k, factor=F, host=ErdosRenyiHost(1000, 3.0),
                             trials=1, seed=36)
        tracemalloc.start()
        try:
            coupled_er_intersections(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # one-time allocations
    small, large = peak(4), peak(20)
    assert large < 1.2 * small, (small, large)


def test_er_coupling_p1_product():
    cfg = CouplingConfig(p=1.0, k=2, factor=F, host=ErdosRenyiHost(150, 2.0),
                         trials=200, seed=18)
    est = coupled_er_intersections(cfg)
    m1, se1 = est.density(1)
    m2, se2 = est.density(2)
    assert_within_sigma(m2, m1 * m1, se2, 2 * m1 * se1, context="er p=1 product")


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


def test_stability_p0_constant_one():
    est = estimate_stability(tree_cfg(0.0, trials=400, inner=50, seed=19))
    assert np.all(est.q_values == 1.0)
    for m, (val, _) in est.moments.items():
        assert val == 1.0


def test_stability_p1_density_moments():
    cfg = tree_cfg(1.0, trials=4000, inner=400, seed=20)
    est = estimate_stability(cfg)
    dens = 0.25
    for m in (1, 2):
        val, se = est.moments[m]
        # inner-trial binomial noise contributes O(1/inner) on top of se
        assert_within_sigma(val, dens**m, se, 2.0 / cfg.inner_trials,
                            context=f"p=1 moment {m}")


def test_stability_moment_consistency():
    # E*[Q^(i-1)] * density tracks the i-wise intersection density
    p = 0.5
    stab = estimate_stability(tree_cfg(p, trials=10_000, inner=300, seed=21))
    inter = coupled_tree_intersections(tree_cfg(p, trials=80_000, seed=22))
    dens, dens_se = stab.density
    for i in (1, 2, 3):
        m, se_m = stab.moments[i - 1]
        lhs = m * dens
        rhs, rhs_se = inter.density(i)
        assert_within_sigma(
            lhs, rhs, se_m * dens, m * dens_se, rhs_se,
            context=f"moment consistency i={i}",
        )


def test_stability_moments_per_distinct_count_equal_the_per_trial_loop():
    cfg = tree_cfg(0.5, trials=600, inner=30, seed=24)
    rows = run_trials(_stability_trial_fn(cfg), cfg.trials)
    counts = rows[rows[:, 0] == 1.0, 1].astype(int).tolist()
    assert len(set(counts)) > 5
    est = estimate_stability(cfg)
    for m in range(cfg.k):
        g = np.array([_jackknife_moment(c, cfg.inner_trials, m) for c in counts])
        assert est.moments[m] == mean_stderr(g), m


@pytest.mark.parametrize("n", [1, 2, 3, 127, 128, 129, 10**5])
def test_mean_stderr_is_numpys_mean_and_var_bit_for_bit(n):
    rows = np.random.default_rng(n).random((n, 3))
    rows[:, 2] = rows[:, 2] < 0.3  # a Bernoulli column
    for values in (rows[:, 0], rows[:, 2], rows[::-1, 1], rows[:, 1].copy()):
        want = (float(values.mean()), (float(values.var(ddof=1)) / n) ** 0.5 if n > 1 else 0.0)
        assert mean_stderr(values) == want


def test_stability_conditioning_failure():
    cfg = CouplingConfig(p=0.5, k=2, factor=constant_factor(0), host=T3,
                         trials=30, inner_trials=10, seed=23)
    with pytest.raises(ConditioningError):
        estimate_stability(cfg)


def test_stability_er_host_runs():
    cfg = CouplingConfig(p=0.5, k=2, factor=F, host=ErdosRenyiHost(60, 2.0),
                         trials=120, inner_trials=50, seed=24)
    est = estimate_stability(cfg)
    assert est.accepted > 0
    assert est.moments[0][0] == 1.0
    assert 0.0 <= est.moments[1][0] <= 1.0


def test_stability_config_host_runs():
    cfg = CouplingConfig(p=0.5, k=2, factor=F, host=ConfigModelHost(60, 3),
                         trials=120, inner_trials=50, seed=25)
    est = estimate_stability(cfg)
    assert est.accepted > 0


def test_config_lw_stability_gate_command_accepts_enough_outer_trials():
    # the config-model LW stability command pinned in the equality gate
    # (stability_config_lw_accepting) must keep exercising the inner loop:
    # it accepts 17 of its 200 outer trials on the explored balls (23 on
    # the whole graphs drawn before), about the 0.09 acceptance rate
    cfg = CouplingConfig(p=0.5, k=2, factor=lauer_wormald(0.3, 2),
                         host=ConfigModelHost(2000, 3), trials=200, inner_trials=8,
                         seed=22)
    assert estimate_stability(cfg).accepted >= 15


@pytest.mark.parametrize("host", [ErdosRenyiHost(60, 2.0), ConfigModelHost(60, 3)])
def test_stability_graph_hosts_p0_constant_one(host):
    # S is empty: every inner trial repeats the accepted outer trial
    cfg = CouplingConfig(p=0.0, k=3, factor=F, host=host, trials=200, inner_trials=20,
                         seed=32)
    est = estimate_stability(cfg)
    assert est.accepted > 0
    assert np.all(est.q_values == 1.0)
    for m, (val, _) in est.moments.items():
        assert val == 1.0, m


def test_stability_config_p1_moments():
    # all labels fresh on the same graph, whose accepted root has a tree
    # 2-ball with 3 distinct neighbours: Q = 1/4 on every accepted trial
    cfg = CouplingConfig(p=1.0, k=3, factor=F, host=ConfigModelHost(200, 3),
                         trials=1000, inner_trials=200, seed=33)
    est = estimate_stability(cfg)
    assert est.accepted > 100
    for m in (1, 2):
        val, se = est.moments[m]
        # inner-trial binomial noise contributes O(1/inner) on top of se
        assert_within_sigma(val, 0.25**m, se, 2.0 / cfg.inner_trials,
                            context=f"config p=1 moment {m}")


def test_stability_er_p1_moments():
    # S is every vertex: each inner trial is a fresh graph with fresh labels,
    # so Q is the acceptance probability on every trial, and the inner
    # trials are independent of the outer ones
    cfg = CouplingConfig(p=1.0, k=3, factor=F, host=ErdosRenyiHost(60, 2.0),
                         trials=3000, inner_trials=20, seed=34)
    est = estimate_stability(cfg)
    dens, dens_se = est.density
    m1, se1 = est.moments[1]
    m2, se2 = est.moments[2]
    assert_within_sigma(m1, dens, se1, dens_se, context="er p=1 moment 1")
    assert_within_sigma(m2, dens**2, se2, 2 * dens * dens_se, context="er p=1 moment 2")


@pytest.mark.parametrize("host", [ConfigModelHost(60, 3), ErdosRenyiHost(60, 2.0)])
def test_graph_stability_counts_the_copy_bits_at_its_root(host):
    cfg = CouplingConfig(p=0.5, k=2, factor=F, host=host, trials=40, inner_trials=8,
                         seed=35)
    rows = run_trials(_stability_trial_fn(cfg), cfg.trials)
    assert rows.tolist() == reference.stability_rows(cfg)
    assert 0 < rows[:, 0].sum() < cfg.trials
    assert len(set(rows[rows[:, 0] == 1, 1].tolist())) > 1


@pytest.mark.parametrize("f", [F, LW], ids=["threshold", "lw"])
def test_config_stability_past_32_bit_half_edge_ids(f):
    # n * d = 3 * 2^31 > 2^32 half-edges: rng.below draws their proposals by
    # its one-Python-product-per-state branch
    cfg = CouplingConfig(p=0.5, k=2, factor=f, host=ConfigModelHost(2**31, 3), trials=20,
                         inner_trials=6, seed=36)
    rows = run_trials(_stability_trial_fn(cfg), cfg.trials)
    assert rows.tolist() == reference.stability_rows(cfg)
    assert 0 < rows[:, 0].sum() < cfg.trials


@pytest.mark.parametrize("budget", [None, 180], ids=["one-union", "three-copies-a-union"])
@pytest.mark.parametrize("f", [F, LW, constant_factor(1)], ids=["threshold", "lw", "const1"])
@pytest.mark.parametrize("p", [*EMPTY_S, 0.25, 0.5, 1.0])
def test_er_stability_unions_equal_the_per_copy_reference(monkeypatch, p, f, budget):
    # the copies of a pass's accepted trials in one union graph, or, with
    # the pass budget at 180, passes of a few outer trials and unions of
    # the copies of one or two trials; against the scalar exploration
    if budget is not None:
        monkeypatch.setattr(coupling, "PASS_PAIRS", budget)
    cfg = CouplingConfig(p=p, k=2, factor=f, host=ErdosRenyiHost(60, 2.0), trials=40,
                         inner_trials=8, seed=35)
    rows = run_trials(_stability_trial_fn(cfg), cfg.trials)
    assert rows.tolist() == reference.stability_rows(cfg)
    assert rows[:, 0].sum() > 0


# The threshold factor accepts an outer trial on ConfigModelHost(60, 3) with
# probability 0.116 (0.1154 and 0.1167, se 0.0016, over 4 x 10^4 trials at
# seeds 36 and 1000): at 180 outer trials none is accepted with probability
# below (1 - 0.11)^180 = 7.8e-10.
@pytest.mark.parametrize("inner", [1, 8])
@pytest.mark.parametrize(
    "f, host, trials",
    [(F, ConfigModelHost(60, 3), 180), (LW, ConfigModelHost(2000, 3), 40),
     (constant_factor(1), ConfigModelHost(60, 3), 40)],
    ids=["threshold", "lw", "const1"],
)
@pytest.mark.parametrize("p", [*EMPTY_S, 0.25, 0.5, 1.0])
def test_config_stability_unions_equal_the_per_copy_reference(monkeypatch, p, f, host, trials,
                                                              inner):
    # a pass budget of 120: passes of 3 outer trials (threshold), 1 (LW,
    # whose 5-balls are about 100 vertices) or 60 (const1), and unions of
    # 120 // m copies of the accepted roots' m ball vertices; against the
    # scalar exploration
    monkeypatch.setattr(coupling, "PASS_PAIRS", 120)
    cfg = CouplingConfig(p=p, k=2, factor=f, host=host, trials=trials, inner_trials=inner,
                         seed=36)
    rows = run_trials(_stability_trial_fn(cfg), cfg.trials)
    assert rows.tolist() == reference.stability_rows(cfg)
    assert rows[:, 0].sum() > 0


def test_er_stability_packs_span_trials_and_unions(monkeypatch):
    # n = 60 and a budget of 600: a union of copies holds whole trials, all
    # k copies of each, and some union holds the copies of several trials
    monkeypatch.setattr(coupling, "PASS_PAIRS", 600)
    unions, producer = [], coupling._ErCopies

    def spy(g, trials, k, *args):
        unions.append(trials.tolist())
        return producer(g, trials, k, *args)

    monkeypatch.setattr(coupling, "_ErCopies", spy)
    cfg = CouplingConfig(p=0.5, k=2, factor=F, host=ErdosRenyiHost(60, 2.0), trials=40,
                         inner_trials=4, seed=35)
    rows = run_trials(_stability_trial_fn(cfg), cfg.trials)
    assert rows.tolist() == reference.stability_rows(cfg)
    assert any(len(trials) > 1 for trials in unions)
    # one pass of 40 trials (at most 15 vertices a ball): each accepted
    # trial's copies sit in exactly one union
    assert sorted(t for trials in unions for t in trials) == np.flatnonzero(rows[:, 0]).tolist()


class _GivenS(coupling._ErCopies):
    """Erdos-Renyi copies whose S is given: MEMBER[t, v] for vertex v of
    trial t."""

    MEMBER = None

    def _in_s(self, t, v):
        return self.MEMBER[t, v]


@pytest.mark.parametrize("budget", [None, 100, 1])
@pytest.mark.parametrize("size", [0, 1, 2, 20, 40])
def test_er_copy_unions_stack_the_resampled_copies(monkeypatch, budget, size):
    # copies 1..7 of three Erdos-Renyi trials on n = 40 whose S has `size`
    # vertices, explored in the unions the pass forms at a budget of
    # PASS_PAIRS (None: one union; 100: some trials together; 1: a trial a
    # union): each copy and each graph g has the edges the scalar
    # exploration draws, so no trial depends on the trials it shares a
    # union with, and every copy edge with an end outside S is g's
    if budget is not None:
        monkeypatch.setattr(coupling, "PASS_PAIRS", budget)
    n, lam, k, hops = 40, 3.0, 7, 2
    member = np.zeros((3, n), dtype=bool)
    for t in range(3):
        member[t, np.random.default_rng(size + t).permutation(n)[:size]] = True
    monkeypatch.setattr(_GivenS, "MEMBER", member)
    st = trial_state_np(9, np.arange(3))
    roots = np.arange(3) * n + np.array([5, 17, 33])
    g = ErExploration(n, lam, fold_np(st, 1))
    g.explore(roots, hops)
    sizes = np.full(3, 10 * k)
    copies = {}
    for part in coupling._union_parts(np.arange(3), sizes):
        keys = fold_np(fold_np(st[part], 3)[:, None], np.arange(1, k + 1, dtype=np.uint64))
        union = _GivenS(g, part, k, None, 0.5, keys.ravel())
        union.explore(np.arange(part.size * k) * n + np.repeat(roots[part] - part * n, k), hops)
        heads, tails = union.edges()
        for c in range(part.size * k):
            mine = heads // n == c
            copies[int(part[c // k]), c % k] = sorted(zip(*np.sort(
                [heads[mine] - c * n, tails[mine] - c * n], axis=0).tolist()))
    heads, tails = g.edges()
    for t in range(3):
        ref_g, ref_copies = reference.explore_er_copies(
            n, lam, st[t], int(roots[t] - t * n), k, hops, lambda v, t=t: bool(member[t, v]))
        mine = heads // n == t
        got_g = sorted(zip(*np.sort([heads[mine] - t * n, tails[mine] - t * n], axis=0).tolist()))
        assert got_g == sorted(tuple(sorted(e)) for e in ref_g.edges)
        for j, ref in enumerate(ref_copies):
            assert copies[t, j] == sorted(tuple(sorted(e)) for e in ref.edges), (t, j)
            assert all(member[t, a] and member[t, b] or (a, b) in got_g for a, b in copies[t, j])


def test_er_stability_passes_cap_the_union_graph():
    """At n = 20,000 and 200 inner trials the copies are explored around
    their roots: about 4.8 MiB traced here, where the copies of whole
    graphs would hold 200 graphs' edges.

    The threshold factor accepts an outer trial with probability 0.435 at
    n = 20,000 and 0.398 at n = 200 (+- 0.0035, 20,000 trials each), so
    with 50 trials a call accepts none with probability below
    (1 - 0.38)^50 = 4e-11."""
    cfg = CouplingConfig(p=0.5, k=2, factor=F, host=ErdosRenyiHost(20_000, 2.0), trials=50,
                         inner_trials=200, seed=47)
    estimate_stability(replace(cfg, host=ErdosRenyiHost(200, 2.0), trials=50, inner_trials=2))
    tracemalloc.start()
    try:
        est = estimate_stability(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.accepted > 0
    assert peak < 16 << 20, f"{peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("f", [F, LW], ids=["threshold", "lw"])
def test_er_stability_passes_equal_the_state_rng_reference(monkeypatch, f, block):
    # n = 60 and a pass budget of 180: passes of at most 12 (threshold) or
    # 1 (LW) outer trials, BLOCK 1 or 7 trials a block, on one or two
    # workers (blocks of 1 or 5 trials), against the scalar exploration
    monkeypatch.setattr(parallel, "BLOCK", block)
    monkeypatch.setattr(coupling, "PASS_PAIRS", 180)
    cfg = CouplingConfig(p=0.5, k=2, factor=f, host=ErdosRenyiHost(60, 2.0), trials=40,
                         inner_trials=7, seed=36)
    want = reference.stability_rows(cfg)
    assert run_trials(_stability_trial_fn(cfg), cfg.trials).tolist() == want
    assert run_trials(_stability_trial_fn(cfg), cfg.trials, workers=2).tolist() == want
    rows = np.array(want)
    assert 0 < rows[:, 0].sum() < cfg.trials
    assert len(set(rows[rows[:, 0] == 1, 1].tolist())) > 1


def test_er_stability_block_holds_bounded_memory():
    """One pass of 162 outer trials at n = 200 with 400 inner trials: the
    copies are explored in unions of the copies of a few trials, about
    PASS_PAIRS vertices a union, so about 4.4 MiB traced here (2.2 MiB when
    the copies were drawn whole, a copy at a time, from one generator
    each).

    The threshold factor accepts an outer trial with probability 0.398
    +- 0.0035 at n = 200 (20,000 trials): at 0.38, 26 or fewer of 162
    trials accept with probability 8e-10, and none of the warm-up's 50
    with probability (1 - 0.38)^50 = 4e-11."""
    cfg = CouplingConfig(p=0.5, k=2, factor=F, host=ErdosRenyiHost(200, 2.0), trials=162,
                         inner_trials=400, seed=48)
    estimate_stability(replace(cfg, trials=50, inner_trials=2))
    tracemalloc.start()
    try:
        est = estimate_stability(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.accepted > 26
    assert peak < 8 << 20, f"{peak / 2**20:.1f} MiB"


def test_config_stability_holds_bounded_memory():
    """At n = 10^5 a pass explores the roots' balls alone, pairing their
    half-edges on demand, and the 200 inner copies are tiles of the
    accepted roots' balls: 2.3 MiB traced here for 100 trials (7.5 MiB for
    4 trials when each trial drew its graph's half-edge permutation).

    The threshold factor accepts an outer trial with probability 0.252 at
    n = 10^5 and 0.203 at n = 200 (+- 0.003, 20,000 trials each), so a call
    accepts none with probability below (1 - 0.236)^100 = 2e-12 for the
    measured call and (1 - 0.189)^120 = 1e-11 for the warm-up."""
    cfg = CouplingConfig(p=0.5, k=2, factor=F, host=ConfigModelHost(100_000, 3), trials=100,
                         inner_trials=200, seed=49)
    estimate_stability(replace(cfg, host=ConfigModelHost(200, 3), trials=120, inner_trials=2))
    tracemalloc.start()
    try:
        est = estimate_stability(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.accepted > 0
    assert peak < 12 << 20, f"{peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("host", [ConfigModelHost(10**6, 3), ErdosRenyiHost(10**6, 2.0)],
                         ids=["config", "er"])
def test_graph_stability_at_a_million_vertices(host):
    """30 outer x 20 inner trials at n = 10^6 explore the roots' balls
    alone, so they cost what they cost at n = 200: about 4 ms and 0.5 MiB
    traced on a 2-vCPU sandbox, where a whole Erdos-Renyi graph at this n
    takes about 0.5 s to draw.  The bounds are far above both."""
    cfg = CouplingConfig(p=0.5, k=2, factor=F, host=host, trials=30, inner_trials=20, seed=50)
    estimate_stability(replace(cfg, trials=4, inner_trials=2))
    t0 = time.perf_counter()
    est = estimate_stability(cfg)
    seconds = time.perf_counter() - t0
    tracemalloc.start()
    try:
        again = estimate_stability(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.accepted > 0 and again.q_values.tolist() == est.q_values.tolist()
    assert seconds < 2.0, f"{seconds:.2f} s"
    assert peak < 16 << 20, f"{peak / 2**20:.1f} MiB"


def test_graph_host_stability_imports_no_masked_arrays():
    # np.unique's first call imports numpy.ma, about 1.2 MB of resident
    # memory; a fresh interpreter shows whether the run path reaches it
    script = (
        "import sys\n"
        "from localis.coupling import CouplingConfig, estimate_stability\n"
        "from localis.factors import lauer_wormald, threshold_factor\n"
        "from localis.graphs import ConfigModelHost, ErdosRenyiHost\n"
        "for host in (ConfigModelHost(2000, 3), ErdosRenyiHost(200, 2.0)):\n"
        "    for f in (threshold_factor(), lauer_wormald(0.3, 2)):\n"
        "        estimate_stability(CouplingConfig(p=0.5, k=2, factor=f, host=host,\n"
        "                                          trials=60, inner_trials=5))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(coupling.__file__))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["False"]


@pytest.mark.parametrize("n", [2, 3, 10])
@pytest.mark.parametrize("q", [0.0, 0.13, 0.5, 0.9, 1.0])
def test_jackknife_moment_is_unbiased_up_to_order_two(n, q):
    # summed over the exact Binomial(n, q) law of the inner success count
    pmf = [math.comb(n, c) * q**c * (1 - q) ** (n - c) for c in range(n + 1)]
    for m in (0, 1, 2):
        mean = sum(w * _jackknife_moment(c, n, m) for c, w in enumerate(pmf))
        assert abs(mean - q**m) <= 1e-12, (n, q, m)


def test_stability_workers_deterministic():
    for f in (F, LW):
        cfg = replace(tree_cfg(0.4, trials=600, inner=60, seed=26), factor=f)
        a = estimate_stability(cfg)
        b = estimate_stability(replace(cfg, workers=4))
        assert a.moments == b.moments, f.kind
        assert np.array_equal(a.q_values, b.q_values), f.kind


@pytest.mark.parametrize("host", [ErdosRenyiHost(100, 2.0), ConfigModelHost(100, 3)])
def test_stability_workers_deterministic_on_graph_hosts(host):
    cfg = CouplingConfig(p=0.5, k=3, factor=F, host=host, trials=40, inner_trials=10,
                         seed=31)
    a = estimate_stability(cfg)
    b = estimate_stability(replace(cfg, workers=2))
    assert a.accepted == b.accepted > 0
    assert a.moments == b.moments
    assert np.array_equal(a.q_values, b.q_values)


# ---------------------------------------------------------------------------
# scans and p targeting
# ---------------------------------------------------------------------------


def test_scan_p_endpoints_and_shape():
    cfg = tree_cfg(0.0, trials=4000, inner=100, seed=27)
    result = scan_p(cfg, [0.0, 0.5, 1.0])
    assert len(result.rows) == 3
    row0 = result.rows[0]
    assert row0.intersections.means[0] == row0.intersections.means[2]
    assert row0.stability.moments[2][0] == 1.0
    row1 = result.rows[-1]
    m1 = row1.intersections.means[0]
    assert_within_sigma(
        row1.intersections.means[1], m1 * m1,
        row1.intersections.stderrs[1], 2 * m1 * row1.intersections.stderrs[0],
        context="scan p=1 endpoint",
    )
    assert "binom_k2" in row0.binom_stats and "binom_k3" in row0.binom_stats


def test_scan_refinement_shrinks_jumps():
    cfg = tree_cfg(0.0, k=2, trials=20_000, inner=50, seed=28)
    coarse = scan_p(cfg, [0.0, 0.5, 1.0])
    fine = scan_p(cfg, [0.0, 0.25, 0.5, 0.75, 1.0])
    noise = 6 * max(r.intersections.stderrs.max() for r in fine.rows)
    assert fine.max_adjacent_jump() <= coarse.max_adjacent_jump() / 2 + noise
