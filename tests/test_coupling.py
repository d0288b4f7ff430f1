import math
import os
import subprocess
import sys
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
    copy_rngs,
    coupled_er_intersections,
    coupled_graph_intersections,
    coupled_tree_intersections,
    er_copy_packs,
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
from localis.parallel import run_trials
from localis.profiles import binom_sum
from localis.rng import CoupledLabels, fold, state_rng, trial_state, trial_state_np

from conftest import assert_within_sigma, binomial_se

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
# factors.TreeBlock (star arrays at radius <= 1, level arrays beyond).


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
# one factor per path and radius: threshold (1) and constant (0) on star
# arrays, LW (3) on the lazy-tree walk
ROW_FACTORS = [F, constant_factor(1), LW]


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("host", BATCH_HOSTS)
def test_tree_prefix_rows_match_the_lazy_tree_rows(host, p):
    for f in ROW_FACTORS:
        cfg = CouplingConfig(p=p, k=3, factor=f, host=host, trials=300, seed=42)
        est = coupled_tree_intersections(cfg)
        assert est.prefix_rows.tolist() == _scalar_prefix_rows(cfg, [1, 2, 3]), f.kind
        for copies in ([3, 1, 2], [2, 5, 4]):  # TreeBlock takes any copy order
            rows = _tree_rows(cfg, copies)
            assert rows.tolist() == _scalar_prefix_rows(cfg, copies), (f.kind, copies)


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
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
        def call(host, s_density, states, valid, labels, copies):
            assert labels.shape[0] * labels.shape[1] <= 5, labels.shape
            return rule(host, s_density, states, valid, labels, copies)

        return call

    for (f, size), (prefix, stability, density) in zip(cases, whole):
        cut = rows(replace(f, array_rule=bounded(f.array_rule)), size)
        assert np.array_equal(prefix, cut[0]), (f.kind, size)
        assert np.array_equal(stability, cut[1]), (f.kind, size)
        assert density == cut[2], (f.kind, size)


def test_tree_stability_holds_bounded_memory():
    """Stability counts inner successes BLOCK copies a call, so the bits it
    holds stay bounded: 1.6 MiB traced here, where one call over all 20,000
    inner copies of a block's accepted rows traces 6.2 MiB."""
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
        (g1,) = copy_graphs(cfg.host, g, st, cfg.p, 1)
        labels = CoupledLabels(vertex_states(st, g.n), cfg.p)
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
    copies = copy_graphs(cfg.host, g, st, cfg.p, cfg.k)
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
        size = int(CoupledLabels(vertex_states(st, host.n), p).in_s.sum())
        copies = list(copy_graphs(host, g, st, p, 3))
        assert len(copies) == 3
        assert all(c is g for c in copies) == (size < 2), (t, size)
        sizes.add(min(size, 2))
    assert sizes == ({0} if p == 0 else {0, 1, 2})


def test_er_scan_at_p0_equals_the_rebuilt_copies(monkeypatch):
    # at p = 0 copy_graphs hands out g itself: the outputs are those of the
    # copies rebuilt by er_resample_graphs
    cfg = CouplingConfig(p=0.0, k=3, factor=F, host=ErdosRenyiHost(60, 2.0), trials=30,
                         inner_trials=6, seed=11)
    fast = scan_p(cfg, [0.0]).rows[0]

    def rebuilt(host, g, st, p, count):
        S = np.flatnonzero(CoupledLabels(vertex_states(st, g.n), p).in_s)
        return er_resample_graphs(g, S, host.lam, count, fold(st, 3))

    monkeypatch.setattr(coupling, "copy_graphs", rebuilt)
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
        out.append(MultiGraph(n, sorted(kept + fresh), model="er", params={"lambda": lam}))
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
                    assert (neighborhood(copy, v, r, labels).to_json()
                            == neighborhood(whole, v, r, labels).to_json())


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
    # (stability_config_lw_accepting) must keep exercising the inner loop
    cfg = CouplingConfig(p=0.5, k=2, factor=lauer_wormald(0.3, 2),
                         host=ConfigModelHost(2000, 3), trials=200, inner_trials=8,
                         seed=22)
    assert estimate_stability(cfg).accepted >= 20


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


def _stability_rows_per_copy(cfg: CouplingConfig) -> list:
    """The stability rows [accepted, inner successes] by the per-copy
    reference: inner trial j is copy j, the root's bit when copy j's labels
    are projected on copy j's graph from copy_graphs, as the intersection
    estimators read it, by _project_bits on the root's ball."""
    host, f, rows = cfg.host, cfg.factor, []
    for t in range(cfg.trials):
        st = trial_state(cfg.seed, t)
        root = fold(st, 4) * host.n >> 64
        g = coupling._sample_graph(host, fold(st, 1))
        labels = CoupledLabels(vertex_states(st, host.n), cfg.p)
        bits = []
        for j, g_j in enumerate([g, *copy_graphs(host, g, st, cfg.p, cfg.inner_trials)]):
            ok = np.zeros(host.n, dtype=bool)
            ok[root] = ball_is_tree(g_j, root, f.radius + 1)
            bits.append(int(_project_bits(f, g_j, ok, labels(j))[root]))
        rows.append([float(bits[0]), float(sum(bits[1:])) if bits[0] else -1.0])
    return rows


@pytest.mark.parametrize("host", [ConfigModelHost(60, 3), ErdosRenyiHost(60, 2.0)])
def test_graph_stability_counts_the_copy_bits_at_its_root(host):
    cfg = CouplingConfig(p=0.5, k=2, factor=F, host=host, trials=40, inner_trials=8,
                         seed=35)
    rows = run_trials(_stability_trial_fn(cfg), cfg.trials)
    assert rows.tolist() == _stability_rows_per_copy(cfg)
    assert 0 < rows[:, 0].sum() < cfg.trials
    assert len(set(rows[rows[:, 0] == 1, 1].tolist())) > 1


@pytest.mark.parametrize("budget", [None, 180], ids=["one-union", "three-copies-a-union"])
@pytest.mark.parametrize("f", [F, LW, constant_factor(1)], ids=["threshold", "lw", "const1"])
@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0])
def test_er_stability_unions_equal_the_per_copy_reference(monkeypatch, p, f, budget):
    # the 8 copies of an accepted trial in one union graph, or, with the pass
    # budget at 3 copies of n = 60, in unions of 3, 3 and 2 copies
    if budget is not None:
        monkeypatch.setattr(coupling, "PASS_PAIRS", budget)
    cfg = CouplingConfig(p=p, k=2, factor=f, host=ErdosRenyiHost(60, 2.0), trials=40,
                         inner_trials=8, seed=35)
    rows = run_trials(_stability_trial_fn(cfg), cfg.trials)
    assert rows.tolist() == _stability_rows_per_copy(cfg)
    assert rows[:, 0].sum() > 0


@pytest.mark.parametrize("inner", [1, 8])
@pytest.mark.parametrize(
    "f, host",
    [(F, ConfigModelHost(60, 3)), (LW, ConfigModelHost(2000, 3)),
     (constant_factor(1), ConfigModelHost(60, 3))],
    ids=["threshold", "lw", "const1"],
)
@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0])
def test_config_stability_unions_equal_the_per_copy_reference(monkeypatch, p, f, host, inner):
    # a pass budget of 120 pairs: at n = 60 passes of 2 outer trials and
    # unions of at most 120 // 22 copies of the accepted roots' 3-balls; at
    # n = 2000 (LW, radius 3, whose 4-balls are trees often enough) one
    # outer trial a pass and one copy of its 5-ball a union
    monkeypatch.setattr(coupling, "PASS_PAIRS", 120)
    cfg = CouplingConfig(p=p, k=2, factor=f, host=host, trials=40, inner_trials=inner, seed=36)
    rows = run_trials(_stability_trial_fn(cfg), cfg.trials)
    assert rows.tolist() == _stability_rows_per_copy(cfg)
    assert rows[:, 0].sum() > 0


def test_er_stability_packs_span_trials_and_unions(monkeypatch):
    # n = 60 and a budget of 180 pairs: passes of 3 outer trials and unions
    # of 3 copies, so with 4 inner trials and two accepted trials in a pass
    # the second union holds copy 4 of the first and copies 1, 2 of the other
    monkeypatch.setattr(coupling, "PASS_PAIRS", 180)
    packs, producer = [], coupling.er_copy_packs

    def spy(n, lam, outside, S, rngs):
        k = len(rngs) // len(S)
        for pairs, us, vs in producer(n, lam, outside, S, rngs):
            packs.append((k, pairs))
            yield pairs, us, vs

    monkeypatch.setattr(coupling, "er_copy_packs", spy)
    cfg = CouplingConfig(p=0.5, k=2, factor=F, host=ErdosRenyiHost(60, 2.0), trials=40,
                         inner_trials=4, seed=35)
    rows = run_trials(_stability_trial_fn(cfg), cfg.trials)
    assert rows.tolist() == _stability_rows_per_copy(cfg)
    assert any(len(set((pairs // k).tolist())) > 1 for k, pairs in packs)
    assert any(pairs[0] % k and pairs[0] // k == prev[-1] // k
               for (k, pairs), (_, prev) in zip(packs[1:], packs))


@pytest.mark.parametrize("budget", [None, 100, 1])
@pytest.mark.parametrize("size", [0, 1, 2, 20, 40])
def test_er_copy_unions_stack_the_resampled_copies(monkeypatch, budget, size):
    # copy i + 1 of trial j, pairs[s] = j * k + i of a packed union, sits on
    # its vertices s*n .. s*n + n - 1 and has the edges of er_resample_graphs'
    # copy i + 1 of trial j; no edge joins two copies.  A budget of 100 pairs
    # packs 2 copies a union, so union 3 holds copy 7 of trial 0 and copy 1
    # of trial 1
    if budget is not None:
        monkeypatch.setattr(coupling, "PASS_PAIRS", budget)
    n, lam, k, seeds = 40, 3.0, 7, [9, 10, 11]
    graphs = [sample_er(n, lam, 5 + j) for j in range(len(seeds))]
    S = [np.sort(np.random.default_rng(size + j).permutation(n)[:size]) for j in range(3)]
    outside = [coupling._outside(tuple(g.edge_array.T), S_j, n) for g, S_j in zip(graphs, S)]
    want = [c.edges for g, S_j, seed in zip(graphs, S, seeds)
            for c in er_resample_graphs(g, S_j, lam, k, seed)]
    got, ids = [], []
    for pairs, us, vs in er_copy_packs(n, lam, outside, S, copy_rngs(np.array(seeds), k)):
        assert np.array_equal(us // n, vs // n)
        assert pairs.size <= max(1, coupling.PASS_PAIRS // n)
        for s in range(pairs.size):
            mine = us // n == s
            ends = zip(*np.sort([us[mine] - s * n, vs[mine] - s * n], axis=0).tolist())
            got.append(sorted(ends))
        ids += pairs.tolist()
    assert ids == list(range(len(seeds) * k))
    assert got == want


def test_er_stability_passes_cap_the_union_graph():
    """At n = 20,000 the pass budget leaves one copy a union: 2.2 MiB traced
    here, where a union of all 200 inner copies would hold 200 copies of
    the graph's edges before the cut."""
    cfg = CouplingConfig(p=0.5, k=2, factor=F, host=ErdosRenyiHost(20_000, 2.0), trials=3,
                         inner_trials=200, seed=47)
    estimate_stability(replace(cfg, host=ErdosRenyiHost(200, 2.0), trials=4, inner_trials=2))
    tracemalloc.start()
    try:
        est = estimate_stability(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.accepted > 0
    assert peak < 16 << 20, f"{peak / 2**20:.1f} MiB"


def _er_stability_rows_by_state_rng(cfg: CouplingConfig) -> list:
    """The Erdos-Renyi stability rows with every generator built by
    rng.state_rng, one trial and one copy at a time: g by sample_er from
    fold(st, 1), copy j by _er_resample_per_copy from fold(st, 3), and the
    root's bit of copy j by _project_bits on its ball."""
    host, f, rows = cfg.host, cfg.factor, []
    for t in range(cfg.trials):
        st = trial_state(cfg.seed, t)
        root = fold(st, 4) * host.n >> 64
        g = sample_er(host.n, host.lam, fold(st, 1))
        labels = CoupledLabels(vertex_states(st, host.n), cfg.p)
        S = np.flatnonzero(labels.in_s)
        copies = _er_resample_per_copy(g, S, host.lam, cfg.inner_trials, fold(st, 3))
        bits = []
        for j, g_j in enumerate([g, *copies]):
            ok = np.zeros(host.n, dtype=bool)
            ok[root] = ball_is_tree(g_j, root, f.radius + 1)
            bits.append(int(_project_bits(f, g_j, ok, labels(j))[root]))
        rows.append([float(bits[0]), float(sum(bits[1:])) if bits[0] else -1.0])
    return rows


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("f", [F, LW], ids=["threshold", "lw"])
def test_er_stability_passes_equal_the_state_rng_reference(monkeypatch, f, block):
    # n = 60 and a pass budget of 180 pairs: passes of at most 3 outer
    # trials (BLOCK 1: one a pass; BLOCK 7: 3, 3 and 1) and unions of 3, 3
    # and 1 copies; on two workers the blocks are 1 or 5 trials
    monkeypatch.setattr(parallel, "BLOCK", block)
    monkeypatch.setattr(coupling, "PASS_PAIRS", 180)
    cfg = CouplingConfig(p=0.5, k=2, factor=f, host=ErdosRenyiHost(60, 2.0), trials=40,
                         inner_trials=7, seed=36)
    want = _er_stability_rows_by_state_rng(cfg)
    assert run_trials(_stability_trial_fn(cfg), cfg.trials).tolist() == want
    assert run_trials(_stability_trial_fn(cfg), cfg.trials, workers=2).tolist() == want
    rows = np.array(want)
    assert 0 < rows[:, 0].sum() < cfg.trials
    assert len(set(rows[rows[:, 0] == 1, 1].tolist())) > 1


def test_er_stability_block_holds_bounded_memory():
    """Two passes of 81 outer trials at n = 200 with 400 inner trials: a
    pass hashes the seeds of all its accepted trials' copies at once, but
    builds each copy's generator only when the copy is drawn.  About 2.2 MiB
    traced here; building every generator of a pass up front holds some
    fifteen thousand of them, and passes 8 MiB."""
    cfg = CouplingConfig(p=0.5, k=2, factor=F, host=ErdosRenyiHost(200, 2.0), trials=162,
                         inner_trials=400, seed=48)
    estimate_stability(replace(cfg, trials=4, inner_trials=2))
    tracemalloc.start()
    try:
        est = estimate_stability(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.accepted > 60
    assert peak < 8 << 20, f"{peak / 2**20:.1f} MiB"


def test_config_stability_holds_bounded_memory():
    """At n = 10^5 a pass holds one outer trial: its graph's half-edge
    permutation and edge arrays, about 7.5 MiB traced here, and the 200
    inner copies are tiles of the root's cut ball, not of the graph."""
    cfg = CouplingConfig(p=0.5, k=2, factor=F, host=ConfigModelHost(100_000, 3), trials=4,
                         inner_trials=200, seed=49)
    estimate_stability(replace(cfg, host=ConfigModelHost(200, 3), inner_trials=2))
    tracemalloc.start()
    try:
        est = estimate_stability(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.accepted > 0
    assert peak < 12 << 20, f"{peak / 2**20:.1f} MiB"


def test_graph_host_stability_imports_no_masked_arrays():
    # np.unique's first call imports numpy.ma, about 1.2 MB of resident
    # memory; a fresh interpreter shows whether the run path reaches it
    script = (
        "import sys\n"
        "from localis.coupling import CouplingConfig, estimate_stability\n"
        "from localis.factors import lauer_wormald, threshold_factor\n"
        "from localis.graphs import ConfigModelHost, ErdosRenyiHost\n"
        "for host in (ConfigModelHost(300, 3), ErdosRenyiHost(200, 2.0)):\n"
        "    for f in (threshold_factor(), lauer_wormald(0.3, 2)):\n"
        "        estimate_stability(CouplingConfig(p=0.5, k=2, factor=f, host=host,\n"
        "                                          trials=30, inner_trials=5))\n"
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
