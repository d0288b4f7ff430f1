"""Law gate for the neighbourhoods graph-host stability reads.

Graph-host stability evaluates each outer trial's root on a graph that holds
its ball of radius f.radius + 1 (the vertices within that distance and the
edges between them), and each inner copy the same way (coupling._graph_stability_pass, through factors.graph_bits_at;
the configuration model's copies, whose graph is g, through the rule alone).
These checks read those graphs, whatever draws them, by a spy on
coupling.graph_bits_at, and compare their laws with the whole-graph
samplers, which draw the graph first and cut it after:

- configuration model: the rooted ball's shape class against
  sample_config_model, by a chi-square at n = 12, and the frequency of a
  tree ball against its exact sequential-pairing probability;
- Erdos-Renyi: the root's degree against Binomial(n - 1, lam / n) exactly,
  the rooted ball's shape class against sample_er, and the joint table of
  the root's degree in g and in copy 1 against er_resample_graphs;
- stability moments (acceptance rate and E*[Q]) against the whole-graph
  estimator: sample_config_model or sample_er, copy_graphs and graph_bits_at
  on the whole graph, run on other seeds.

Tests read the program's draws at a fixed seed; z-tests use the benchmark's
limit of 4.75 standard errors and chi-square and exact tests its two-sided
level erfc(4.75 / sqrt 2).

Each check also runs on a source mutant of the exploration it must reject
(`mutant` in its parameters), compiled from the function's own source with
one text replaced (conftest.apply_mutant), so a rewrite of the mutated line
fails here loudly:

- "no_join": the exploration never joins two vertices it has reached
  (configuration model: a pair whose other end is revealed is not kept;
  Erdos-Renyi: a vertex draws no pair with a later vertex of its level);
- "redraw_s": the Erdos-Renyi copies redraw every pair touching S, not only
  those inside SxS;
- "off_by_one": an Erdos-Renyi vertex counts one candidate fewer than the
  vertices not revealed before it.
"""

import math
from collections import Counter, deque

import numpy as np
import pytest
from scipy import stats

from localis import coupling
from localis.coupling import CouplingConfig, _stability_trial_fn, copy_graphs, er_resample_graphs
from localis.factors import constant_factor, graph_bits_at, threshold_factor
from localis.graphs import (
    ConfigModelHost,
    ErdosRenyiHost,
    MultiGraph,
    ball_is_tree,
    enumerate_config_pairings,
    sample_config_model,
    sample_er,
)
from localis.parallel import per_trial, run_trials
from localis.rng import CoupledLabels, fold, trial_state

from conftest import apply_mutant

Z_FAIL = 4.75
ALPHA = math.erfc(Z_FAIL / math.sqrt(2.0))
F = threshold_factor()
CONST1 = constant_factor(1)


# (owner, function name, old text, new text) replacements of each mutant;
# an owner is a module of the package or a class in one, by dotted name
MUTANTS = {
    "no_join": [
        ("graphs.ConfigExploration", "_draw", "heads.append(x[take] // d)",
         "take &= ~members(self.revealed, y // d); heads.append(x[take] // d)"),
        ("graphs", "bernoulli_reveal", "outside + batch.searchsorted(base + n) - at - 1",
         "outside + 0 * at"),
    ],
    "redraw_s": [
        ("coupling._ErCopies", "_draw", "keep = ~(in_s[i] & s_ends[: i.size])",
         "keep = ~(in_s[i] | s_ends[: i.size])"),
        ("coupling._ErCopies", "_draw", "own = s_ends[i.size:]", "own = s_ends[i.size:] | True"),
    ],
    "off_by_one": [("graphs", "bernoulli_reveal", "- at - 1", "- at - 2")],
}


# ---------------------------------------------------------------------------
# Reading the graphs stability evaluates
# ---------------------------------------------------------------------------


def evaluated(monkeypatch, cfg: CouplingConfig) -> list:
    """Run the stability rows of cfg and return, per pass, the graph_bits_at
    calls it made: (graph, roots, bits) of copy 0 first, then those of the
    copies, in the order of the calls."""
    passes, real_pass, real_bits = [], coupling._graph_stability_pass, coupling.graph_bits_at

    def one_pass(cfg, st):
        passes.append([])
        return real_pass(cfg, st)

    def bits_at(f, g, labels, at):
        bits = real_bits(f, g, labels, at)
        passes[-1].append((g, np.asarray(at).copy(), bits.copy()))
        return bits

    monkeypatch.setattr(coupling, "_graph_stability_pass", one_pass)
    monkeypatch.setattr(coupling, "graph_bits_at", bits_at)
    run_trials(_stability_trial_fn(cfg), cfg.trials)
    return passes


def copy0(passes: list) -> list:
    """(graph, root) of copy 0 of each outer trial, in trial order."""
    return [(calls[0][0], root) for calls in passes for root in calls[0][1].tolist()]


def shape(g, root: int, hops: int) -> tuple:
    """The shape class of the root's ball of radius `hops` in g, the
    vertices within hops of the root and the edges between them: the vertex
    count at each depth 0..hops, the edge count, the loops and the parallel
    edges beyond the first.  Reads g.adj within hops of the root alone."""
    depth, queue, edges = {root: 0}, deque([root]), {}
    while queue:
        u = queue.popleft()
        for w, eid in g.adj[u]:
            if w not in depth and depth[u] < hops:
                depth[w] = depth[u] + 1
                queue.append(w)
            if w in depth:
                edges[eid] = (min(u, w), max(u, w))
    levels = Counter(depth.values())
    pairs = Counter(e for e in edges.values() if e[0] != e[1])
    return (tuple(levels[i] for i in range(hops + 1)), len(edges),
            sum(u == w for u, w in edges.values()), sum(m - 1 for m in pairs.values()))


def homogeneity_p(a: Counter, b: Counter) -> float:
    """p-value of a chi-square test that two samples of classes share one
    law; the classes expected fewer than 5 times in either sample pool."""
    cells = sorted(set(a) | set(b))
    table = np.array([[a[c] for c in cells], [b[c] for c in cells]], dtype=np.float64)
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
    rare = (expected < 5).any(axis=0)
    table = np.column_stack([table[:, ~rare], table[:, rare].sum(axis=1)])
    table = table[:, table.sum(axis=0) > 0]
    if table.shape[1] < 2:
        return 1.0
    return float(stats.chi2_contingency(table, correction=False)[1])


def goodness_p(counts: np.ndarray, pmf: np.ndarray) -> float:
    """p-value of a chi-square goodness-of-fit of counts to an exact pmf;
    the upper cells expected fewer than 5 times pool."""
    total = counts.sum()
    expected = pmf * total
    top = int(np.flatnonzero(expected >= 5)[-1])
    obs = np.append(counts[:top], counts[top:].sum())
    exp = np.append(expected[:top], expected[top:].sum())
    return float(stats.chisquare(obs, exp)[1])


def binomial_p(count: int, n: int, q: float) -> float:
    """Two-sided exact binomial p-value of count successes in n at rate q."""
    return float(min(1.0, 2.0 * min(stats.binom.cdf(count, n, q), stats.binom.sf(count - 1, n, q))))


# ---------------------------------------------------------------------------
# Configuration model
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mutant", [None, "no_join"])
def test_config_ball_shapes_match_the_whole_graph_sampler(monkeypatch, mutant):
    apply_mutant(monkeypatch, MUTANTS, mutant)
    n, trials = 12, 12_000
    cfg = CouplingConfig(p=0.0, k=2, factor=F, host=ConfigModelHost(n, 3), trials=trials,
                         inner_trials=1, seed=61)
    hops = F.radius + 1
    got = Counter(shape(g, root, hops) for g, root in copy0(evaluated(monkeypatch, cfg)))
    rng = np.random.default_rng(62)
    want = Counter(shape(sample_config_model(n, 3, rng), int(rng.integers(n)), hops)
                   for _ in range(trials))
    p = homogeneity_p(got, want)
    assert (p >= ALPHA) == (mutant is None), p


def tree_ball_probability(n: int, d: int, radius: int) -> float:
    """P(the radius-ball of a vertex of the configuration model on n
    vertices of degree d is a tree), by pairing its half-edges one at a
    time: every half-edge of a vertex at depth < radius must meet a
    half-edge of a vertex not yet reached, and no half-edge of a vertex at
    depth radius may meet one of another vertex at that depth (or its own)."""
    free, fresh, prob = n * d, n - 1, 1.0
    inner = 1 + sum(d * (d - 1) ** (i - 1) for i in range(1, radius))  # depth < radius
    for i in range(inner * d - (inner - 1)):  # half-edges of depth < radius not yet paired
        if fresh <= 0:
            return 0.0
        prob *= d * fresh / (free - 1)
        free, fresh = free - 2, fresh - 1
    outer = d * (d - 1) ** (radius - 1) * (d - 1)  # free half-edges at depth radius
    for _ in range(outer):
        if free - outer <= 0:
            return 0.0
        prob *= (free - outer) / (free - 1)
        free, outer = free - 2, outer - 1
    return prob


@pytest.mark.parametrize("mutant", [None, "no_join"])
def test_config_tree_ball_frequency_is_the_exact_pairing_probability(monkeypatch, mutant):
    apply_mutant(monkeypatch, MUTANTS, mutant)
    # const1's bit at the root is its 1-ball being a tree; the threshold
    # factor's graphs give the 2-ball
    n, trials, oks = 60, 6000, []
    for f in (CONST1, F):
        hops = f.radius + 1
        cfg = CouplingConfig(p=0.0, k=2, factor=f, host=ConfigModelHost(n, 3), trials=trials,
                             inner_trials=1, seed=63)
        trees = sum(ball_is_tree(g, root, hops) for g, root in copy0(evaluated(monkeypatch, cfg)))
        q = tree_ball_probability(n, 3, hops)
        assert 0.1 < q < 0.95, q
        oks.append(binomial_p(trees, trials, q) >= ALPHA)
    assert all(oks) == (mutant is None), oks


def test_tree_ball_probability_matches_enumeration():
    # every pairing of n = 4, d = 3 (11!! = 10395 of them), n = 6 and 5, d = 2
    for n, d in ((4, 3), (6, 2), (5, 2)):
        for radius in (1, 2):
            outcomes = [ball_is_tree(MultiGraph(n, edges), 0, radius)
                        for edges in enumerate_config_pairings(n, d)]
            assert math.isclose(sum(outcomes) / len(outcomes), tree_ball_probability(n, d, radius),
                                abs_tol=1e-12), (n, d, radius)


# ---------------------------------------------------------------------------
# Erdos-Renyi
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mutant", [None, "off_by_one"])
def test_er_root_degree_is_binomial(monkeypatch, mutant):
    apply_mutant(monkeypatch, MUTANTS, mutant)
    n, lam, trials = 12, 2.0, 20_000
    cfg = CouplingConfig(p=0.0, k=2, factor=CONST1, host=ErdosRenyiHost(n, lam), trials=trials,
                         inner_trials=1, seed=64)
    degrees = [calls[0][0].offsets[r + 1] - calls[0][0].offsets[r]
               for calls in evaluated(monkeypatch, cfg) for r in calls[0][1].tolist()]
    counts = np.bincount(degrees, minlength=n)
    p = goodness_p(counts, stats.binom.pmf(np.arange(n), n - 1, lam / n))
    assert (p >= ALPHA) == (mutant is None), (counts, p)


@pytest.mark.parametrize("mutant", [None, "no_join"])
def test_er_ball_shapes_match_the_whole_graph_sampler(monkeypatch, mutant):
    apply_mutant(monkeypatch, MUTANTS, mutant)
    n, lam, trials = 12, 2.0, 12_000
    cfg = CouplingConfig(p=0.0, k=2, factor=F, host=ErdosRenyiHost(n, lam), trials=trials,
                         inner_trials=1, seed=65)
    hops = F.radius + 1
    got = Counter(shape(g, root, hops) for g, root in copy0(evaluated(monkeypatch, cfg)))
    rng = np.random.default_rng(66)
    want = Counter(shape(sample_er(n, lam, rng), int(rng.integers(n)), hops)
                   for _ in range(trials))
    p = homogeneity_p(got, want)
    assert (p >= ALPHA) == (mutant is None), p


def root_degrees(g, roots: np.ndarray) -> list:
    return (g.offsets[roots + 1] - g.offsets[roots]).tolist()


@pytest.mark.parametrize("mutant", [None, "redraw_s"])
def test_er_copy_root_degrees_match_the_resampled_copies(monkeypatch, mutant):
    apply_mutant(monkeypatch, MUTANTS, mutant)
    # const1 accepts the roots whose 1-ball is a tree (no edge joins two of
    # their neighbours), and copy 1 of each accepted trial is evaluated, in
    # trial order; the reference conditions on the same event
    n, lam, p, trials = 12, 2.0, 0.5, 12_000
    cfg = CouplingConfig(p=p, k=2, factor=CONST1, host=ErdosRenyiHost(n, lam), trials=trials,
                         inner_trials=1, seed=67)
    got = Counter()
    for calls in evaluated(monkeypatch, cfg):
        (g0, roots0, bits0), copies = calls[0], calls[1:]
        degs = [d for g, roots, _ in copies for d in root_degrees(g, roots)]
        assert len(degs) == bits0.sum()
        got.update(zip(root_degrees(g0, roots0[bits0]), degs))
    rng = np.random.default_rng(68)
    want = Counter()
    for t in range(trials):
        g = sample_er(n, lam, rng)
        S = np.flatnonzero(rng.random(n) < p)
        root = int(rng.integers(n))
        (copy,) = er_resample_graphs(g, S, lam, 1, 1000 + t)
        if ball_is_tree(g, root, 1):
            at = np.array([root])
            want[(root_degrees(g, at)[0], root_degrees(copy, at)[0])] += 1
    pval = homogeneity_p(got, want)
    assert (pval >= ALPHA) == (mutant is None), pval


# ---------------------------------------------------------------------------
# Stability moments against the whole-graph estimator
# ---------------------------------------------------------------------------


def whole_graph_rows(cfg: CouplingConfig) -> np.ndarray:
    """Stability rows [accepted, inner successes] of the whole-graph
    estimator: g by sample_config_model or sample_er from fold(st, 1), copy
    j from copy_graphs, the root's bit by graph_bits_at on the whole copy."""
    host, f = cfg.host, cfg.factor

    def one(t: int):
        st = trial_state(cfg.seed, t)
        root = np.array([fold(st, 4) * host.n >> 64])
        g = coupling._sample_graph(host, fold(st, 1))
        labels = CoupledLabels(coupling.vertex_states(st, host.n), cfg.p)
        if not graph_bits_at(f, g, labels(0), root)[0]:
            return [0.0, -1.0]
        copies = copy_graphs(host, g, st, labels, cfg.inner_trials)
        return [1.0, float(sum(graph_bits_at(f, g_j, labels(j), root)[0]
                               for j, g_j in enumerate(copies, 1)))]

    return run_trials(per_trial(one), cfg.trials)


def z_scores(got: dict, want: dict) -> list:
    """z of the difference of each moment between two independent runs."""
    return [(got[m][0] - want[m][0]) / math.hypot(got[m][1], want[m][1]) for m in sorted(got)]


def moments(rows: np.ndarray, inner: int) -> dict:
    """Acceptance rate and E*[Q], each with its standard error."""
    acc = rows[:, 0] == 1.0
    q = rows[acc, 1] / inner
    return {"density": (rows[:, 0].mean(), rows[:, 0].std(ddof=1) / math.sqrt(len(rows))),
            "Q": (q.mean(), q.std(ddof=1) / math.sqrt(q.size))}


@pytest.mark.parametrize(
    "host, mutant",
    [(ConfigModelHost(100, 3), None), (ErdosRenyiHost(20, 2.0), None),
     (ConfigModelHost(100, 3), "no_join"), (ErdosRenyiHost(20, 2.0), "no_join")],
    ids=["config", "er", "config-no_join", "er-no_join"],
)
def test_stability_moments_match_the_whole_graph_estimator(monkeypatch, host, mutant):
    apply_mutant(monkeypatch, MUTANTS, mutant)
    cfg = CouplingConfig(p=0.5, k=2, factor=F, host=host, trials=5000, inner_trials=8, seed=69)
    got = moments(run_trials(_stability_trial_fn(cfg), cfg.trials), cfg.inner_trials)
    ref = cfg.__class__(**{**cfg.__dict__, "seed": 70})
    want = moments(whole_graph_rows(ref), cfg.inner_trials)
    zs = z_scores(got, want)
    assert (max(map(abs, zs)) <= Z_FAIL) == (mutant is None), zs
