import functools
import math
import re
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from localis.graphs import (
    ConfigExploration,
    ConfigModelHost,
    ErExploration,
    LazyTree,
    MultiGraph,
    PGWTreeHost,
    RegularTreeHost,
    TreeLabels,
    ball_is_tree,
    bernoulli_pairs,
    child_states,
    er_edge_arrays,
    neighborhood,
    non_tree_ball_mask,
    sample_config_model,
    sample_er,
    sample_pgw_tree,
    sample_regular_tree,
    tree_ball_mask,
    triangle_pairs,
)
from localis import graphs
from localis.coupling import er_resample_graphs
from localis.factors import (
    TreeBlock,
    constant_factor,
    graph_bits_at,
    lauer_wormald,
    threshold_factor,
)
from localis.pgw_transfer import edge_removal_stage, filling_out_stage

from localis.rng import (
    LABEL_TAG,
    PERC_TAG,
    CoupledLabels,
    fold,
    fold_np,
    percolation_cut,
    trial_state,
    uniform_labels,
)

from conftest import GivenGraph, assert_within_sigma, ball_arrays, binomial_se, graph_arrays


def cycle(n: int) -> MultiGraph:
    return MultiGraph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> MultiGraph:
    return MultiGraph(n, [(i, i + 1) for i in range(n - 1)])


# ---------------------------------------------------------------------------
# configuration model
# ---------------------------------------------------------------------------


def test_config_unique_pairings():
    g = sample_config_model(2, 1, 0)
    assert g.edges == [(0, 1)]
    g = sample_config_model(1, 2, 0)
    assert g.edges == [(0, 0)]
    assert len(g.adj[0]) == 2  # the loop contributes two endpoints


def test_config_odd_total_rejected():
    with pytest.raises(ValueError):
        sample_config_model(3, 1, 0)


def test_config_endpoint_degrees():
    for seed in range(30):
        g = sample_config_model(8, 3, seed)
        assert [len(g.adj[v]) for v in range(8)] == [3] * 8


def test_config_determinism():
    a = sample_config_model(20, 3, 12345)
    b = sample_config_model(20, 3, 12345)
    assert graph_arrays(a) == graph_arrays(b)
    assert np.array_equal(a.pairing, b.pairing)


def _config_edges_generator(pairs: np.ndarray, d: int) -> list:
    """Configuration-model edges as first built: one Python tuple per pair."""
    return sorted(
        (min(int(a) // d, int(b) // d), max(int(a) // d, int(b) // d))
        for a, b in pairs
    )


@settings(deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    d=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=1 << 32),
)
def test_config_edges_match_the_generator(n, d, seed):
    if n * d % 2:
        n += 1
    g = sample_config_model(n, d, seed)
    assert g.edges == _config_edges_generator(g.pairing, d)
    assert all(type(x) is int for e in g.edges for x in e)


def test_config_edges_match_the_generator_with_loops_and_multi_edges():
    loops = multi = 0
    for n, d in ((1, 2), (2, 1), (2, 3), (3, 2), (4, 3), (6, 1), (5, 4)):
        for seed in range(40):
            g = sample_config_model(n, d, seed)
            assert g.edges == _config_edges_generator(g.pairing, d)
            loops += any(u == v for u, v in g.edges)
            multi += len(set(g.edges)) < len(g.edges)
    assert loops and multi


def test_config_pairing_uniform():
    # (8-1)!! = 105 pairings of the 8 half-edges; each cell within 4 sigma of
    # the multinomial expectation, and the chi-square statistic unsuspicious.
    # The 10^6 samples are drawn in one call: row i of rng.permuted over a
    # tile of arange(8) is the permutation the i-th successive
    # sample_config_model(4, 2, rng) call draws, as the first 20,000 rows check
    n_samples = 1_000_000
    perms = np.random.default_rng(42).permuted(np.tile(np.arange(8), (n_samples, 1)), axis=1)
    pairs = np.sort(perms.reshape(n_samples, 4, 2), axis=2)  # edge i: perm[2i], perm[2i + 1]
    pairings = np.take_along_axis(pairs, pairs[:, :, :1].argsort(axis=1), axis=1)
    rng = np.random.default_rng(42)
    for row in pairings[:20_000]:
        assert np.array_equal(sample_config_model(4, 2, rng).pairing, row)
    _, cells = np.unique(pairings.reshape(n_samples, 8) @ 8 ** np.arange(8), return_counts=True)
    assert len(cells) == 105
    expected = n_samples / 105
    sigma = math.sqrt(n_samples * (1 / 105) * (1 - 1 / 105))
    worst = max(abs(c - expected) for c in cells.tolist())
    assert worst <= 4.0 * sigma
    chi2 = sum((c - expected) ** 2 / expected for c in cells.tolist())
    assert chi2 <= stats.chi2.ppf(0.999, 104)


@pytest.mark.parametrize("n", [1, 1 << 16, (1 << 16) + 1, (1 << 17) + 3])
def test_incidence_arrays_order_the_ends_by_a_stable_argsort(n):
    # the radix passes must give the order of one stable argsort of the ends'
    # vertices: ends equal in their low 16 bits, loops and repeated edges
    rng = np.random.default_rng(n)
    us, vs = rng.integers(0, n, 3000), rng.integers(0, n, 3000)
    us[:20] = vs[:20]  # loops
    us[20:40], vs[20:40] = us[40:60], vs[40:60]  # repeated edges
    us[60:80] = (us[60:80] & 0xFFFF) + (rng.integers(0, 3, 20) << 16)  # shared low digits
    vs[80:100] = n - 1
    us, vs = us % n, vs % n
    for a, b in ((us, vs), (us[:0], vs[:0])):
        start, nbr, eid = graphs.incidence_arrays(n, a, b)
        src = np.concatenate((a, b))
        order = src.argsort(kind="stable")
        assert np.array_equal(start, np.concatenate(([0], np.bincount(src, minlength=n).cumsum())))
        assert np.array_equal(nbr, np.concatenate((b, a))[order])
        assert np.array_equal(eid, order % max(a.size, 1))


# ---------------------------------------------------------------------------
# Erdos-Renyi
# ---------------------------------------------------------------------------


def test_er_trivial():
    assert sample_er(5, 0.0, 0).edges == []
    g = sample_er(3, 3.0, 0)
    assert sorted(g.edges) == [(0, 1), (0, 2), (1, 2)]
    with pytest.raises(ValueError):
        sample_er(3, 4.0, 0)


def test_er_edge_count_moments():
    # mean edge count over samples matches C(100,2) * 0.02 within 3 sigma
    n, lam, trials = 100, 2.0, 10_000
    rng = np.random.default_rng(7)
    counts = np.array([len(sample_er(n, lam, rng).edges) for _ in range(trials)])
    pairs = n * (n - 1) // 2
    p = lam / n
    expected = pairs * p
    se_mean = math.sqrt(pairs * p * (1 - p) / trials)
    assert_within_sigma(counts.mean(), expected, se_mean, context="er edge count")


def test_er_no_loops_or_multi():
    g = sample_er(50, 5.0, 3)
    assert all(u != v for u, v in g.edges)
    assert len(set(g.edges)) == len(g.edges)


def test_er_determinism():
    assert graph_arrays(sample_er(30, 2.0, 5)) == graph_arrays(sample_er(30, 2.0, 5))


def _er_edges_by_triu(n: int, lam: float, seed) -> tuple:
    """er_edge_arrays with the positions its two draws pick (a Binomial count,
    then that many distinct positions) mapped through triu_indices."""
    rng = np.random.default_rng(seed)
    total = n * (n - 1) // 2
    flat = np.sort(rng.choice(total, rng.binomial(total, lam / n), replace=False, shuffle=False))
    iu, iv = np.triu_indices(n, k=1)
    return iu[flat], iv[flat]


@pytest.mark.parametrize("n", [1, 2, 3, 10, 200])
@pytest.mark.parametrize("seed", [0, 1, 17, 12345])
def test_er_edge_arrays_match_the_triu_mapping(n, seed):
    for lam in (0.0, min(2.0, n), float(n)):
        us, vs = er_edge_arrays(n, lam, seed)
        ref_us, ref_vs = _er_edges_by_triu(n, lam, seed)
        assert us.dtype == np.int64 and vs.dtype == np.int64
        assert np.array_equal(us, ref_us) and np.array_equal(vs, ref_vs)


# ---------------------------------------------------------------------------
# Law gate for the pair sampler
# ---------------------------------------------------------------------------
#
# bernoulli_pairs draws a Binomial count and a uniform set of pair positions;
# _uniform_pairs, one uniform per pair, is the sampler it replaced and the
# reference.  Both must pass every check below against an exact law, at
# level PAIR_ALPHA.  Each check also runs on the mutants it has power
# against, and must reject them:
#
# - "shift": the unranking reads every position one too far (flat + 1);
# - "q": q raised by 5 standard errors of the frequency the check reads;
# - "drop": the last pair (m - 2, m - 1) is never returned.
#
# The edge-set, position and endpoint checks reject all three.  The count
# test reads no positions, so it is run on "q" alone: "drop" moves its
# expected count by one pair in C(m, 2), and "shift" shows there only when
# the last pair is drawn.

PAIR_ALPHA = 1e-3


def _uniform_pairs(rng, m: int, q: float) -> tuple:
    """bernoulli_pairs as first written: one uniform per pair, in
    triangle_pairs order, and the pair present iff its uniform is below q."""
    return triangle_pairs(m, np.flatnonzero(rng.random(m * (m - 1) // 2) < q))


def _pair_sampler(monkeypatch, mutant, se=lambda q: 0.0):
    """The sampler a check runs: the program, the reference or a mutant;
    se(q) is the standard error that the "q" mutant raises q by 5 of."""
    if mutant == "reference":
        return _uniform_pairs
    if mutant == "shift":
        monkeypatch.setattr(graphs, "triangle_pairs", lambda m, flat: triangle_pairs(m, flat + 1))
    if mutant == "q":
        return lambda rng, m, q: bernoulli_pairs(rng, m, q + 5.0 * se(q))
    if mutant == "drop":

        def drop(rng, m, q):
            a, b = bernoulli_pairs(rng, m, q)
            keep = (a != m - 2) | (b != m - 1)
            return a[keep], b[keep]

        return drop
    return bernoulli_pairs


def _pair_positions(m: int, pairs: tuple):
    """The triangle_pairs positions of pairs (a, b), or None where they break
    the sampler's contract: int64 arrays, a < b < m, positions increasing."""
    a, b = pairs
    if a.dtype != np.int64 or b.dtype != np.int64 or a.shape != b.shape:
        return None
    if not ((0 <= a) & (a < b) & (b < m)).all():
        return None
    pos = a * (2 * m - 1 - a) // 2 + b - a - 1
    return pos if (np.diff(pos) > 0).all() else None


def _draw_positions(sampler, m: int, q: float, trials: int, seed: int):
    """Positions of `trials` successive draws on one generator, or None if
    any draw breaks the contract."""
    rng = np.random.default_rng(seed)
    draws = [_pair_positions(m, sampler(rng, m, q)) for _ in range(trials)]
    return None if any(pos is None for pos in draws) else draws


def _pair_count_ok(count: int, n: int, q: float) -> bool:
    """Two-sided exact binomial test of `count` successes in n at rate q."""
    tail = min(stats.binom.cdf(count, n, q), stats.binom.sf(count - 1, n, q))
    return 2.0 * tail >= PAIR_ALPHA


@pytest.mark.parametrize("mutant", [None, "reference", "shift", "q", "drop"])
@pytest.mark.parametrize("m, q", [(4, 0.3), (5, 0.5)])
def test_pair_edge_sets_follow_the_product_law(monkeypatch, m, q, mutant):
    # chi-square over all 2^C(m,2) edge sets; at least 14 expected per cell
    trials, total = 20_000, m * (m - 1) // 2
    sampler = _pair_sampler(monkeypatch, mutant, lambda q: math.sqrt(q * (1 - q) / trials))
    draws = _draw_positions(sampler, m, q, trials, seed=m)
    chi2 = math.inf
    if draws is not None:
        codes = [int(np.left_shift(1, pos).sum()) for pos in draws]
        observed = np.bincount(codes, minlength=1 << total)
        size = np.array([bin(code).count("1") for code in range(1 << total)])
        expected = trials * q**size * (1.0 - q) ** (total - size)
        chi2 = float(((observed - expected) ** 2 / expected).sum())
    ok = chi2 <= stats.chi2.ppf(1.0 - PAIR_ALPHA, (1 << total) - 1)
    assert ok == (mutant in (None, "reference")), chi2


@pytest.mark.parametrize("mutant", [None, "reference", "q"])
@pytest.mark.parametrize("m, trials", [(200, 2000), (3000, 20)])
def test_pair_counts_are_binomial(monkeypatch, m, trials, mutant):
    q, total = 3.0 / m, m * (m - 1) // 2  # the Erdos-Renyi rate at lam = 3
    sampler = _pair_sampler(monkeypatch, mutant, lambda q: math.sqrt(q * (1 - q) / (trials * total)))
    draws = _draw_positions(sampler, m, q, trials, seed=m)
    count = None if draws is None else sum(pos.size for pos in draws)
    ok = count is not None and _pair_count_ok(count, trials * total, q)
    assert ok == (mutant in (None, "reference")), count


@pytest.mark.parametrize("mutant", [None, "reference", "shift", "q", "drop"])
def test_pair_positions_hit_every_row_end_at_rate_q(monkeypatch, mutant):
    # One cell per row's first pair and per row's last pair (the one pair of
    # row m - 2 is both), one pooled cell for the rest; a chi-square over
    # independent binomial cells, so the total is tested too.  C(150, 2) >
    # 10^4 and q < 1/20, so rng.choice samples by Floyd's algorithm.
    m, q, trials = 150, 0.04, 6000
    sampler = _pair_sampler(monkeypatch, mutant, lambda q: math.sqrt(q * (1 - q) / trials))
    row = np.arange(m - 1)
    start = row * (2 * m - 1 - row) // 2
    cells = np.union1d(start, start + m - 2 - row)  # first and last of each row
    draws = _draw_positions(sampler, m, q, trials, seed=m)
    chi2 = math.inf
    if draws is not None:
        hits = np.bincount(np.concatenate(draws), minlength=m * (m - 1) // 2)
        observed = np.append(hits[cells], hits.sum() - hits[cells].sum())
        pairs = np.append(np.ones(cells.size), hits.size - cells.size)
        expected = trials * pairs * q
        chi2 = float(((observed - expected) ** 2 / (expected * (1.0 - q))).sum())
    ok = chi2 <= stats.chi2.ppf(1.0 - PAIR_ALPHA, cells.size + 1)
    assert ok == (mutant in (None, "reference")), chi2


@pytest.mark.parametrize("mutant", [None, "reference", "shift", "q", "drop"])
def test_pair_sampler_endpoints(monkeypatch, mutant):
    # q in {0, 1} gives no pair or every pair in order; m in {0, 1} no pair;
    # m = 2 at q = 1/2 its one pair in a Binomial(trials, 1/2) count of draws
    trials = 4000
    sampler = _pair_sampler(monkeypatch, mutant, lambda q: math.sqrt(q * (1 - q) / trials))
    rng = np.random.default_rng(2)
    ok = True
    for m in (0, 1, 2, 3, 7):
        for q in (0.0, 1.0):
            pos = _pair_positions(m, sampler(rng, m, q))
            want = np.arange(m * (m - 1) // 2 if q == 1.0 else 0)
            ok &= pos is not None and np.array_equal(pos, want)
    for m in (0, 1):
        pos = _pair_positions(m, sampler(rng, m, 0.5))
        ok &= pos is not None and pos.size == 0
    draws = _draw_positions(sampler, 2, 0.5, trials, seed=2)
    ok &= draws is not None and _pair_count_ok(sum(pos.size for pos in draws), trials, 0.5)
    assert ok == (mutant in (None, "reference"))


def test_er_edge_arrays_memory_is_bounded():
    """n = 10^4 has 5 * 10^7 pairs: one draw of them all traces 450 MB."""
    tracemalloc.start()
    try:
        us, vs = er_edge_arrays(10_000, 3.0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 14_000 < us.size < 16_000 and bool((us < vs).all())
    assert peak < 32 << 20, peak


def test_sample_er_at_a_million_vertices():
    """G(10^6, 3/10^6) in O(n + m): 5 * 10^11 pairs, about 1.5 * 10^6 drawn."""
    n, lam = 10**6, 3.0
    tracemalloc.start()
    try:
        g = sample_er(n, lam, 22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    us, vs = g.edge_array.T
    pairs, q = n * (n - 1) // 2, lam / n
    assert abs(us.size - lam * (n - 1) / 2) <= 5.0 * math.sqrt(pairs * q * (1.0 - q)), us.size
    assert bool((us < vs).all()) and bool((np.diff(us * n + vs) > 0).all())
    assert peak < 256 << 20, peak


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


def test_regular_tree_counts():
    assert sample_regular_tree(3, 0, 0).n == 1
    assert sample_regular_tree(3, 2, 0).n == 10  # 1 + 3 + 6
    assert sample_regular_tree(4, 3, 0).n == 53  # 1 + 4 + 12 + 36
    t = sample_regular_tree(3, 2, 0)
    assert len(t.adj[0]) == 3
    assert all(len(t.adj[v]) == 3 for v in range(t.n) if t.depths[v] < t.radius)
    assert all(len(t.adj[v]) == 1 for v in range(t.n) if t.depths[v] == t.radius)


def test_pgw_root_boundary():
    t = sample_pgw_tree(2.0, 0, 0)
    assert t.n == 1 and t.depths[0] == t.radius


def test_pgw_root_degree_mean():
    trials = 100_000
    rng = np.random.default_rng(11)
    degs = np.array([len(sample_pgw_tree(2.0, 1, rng).adj[0]) for _ in range(trials)])
    se = math.sqrt(2.0 / trials)  # Poisson variance = lam
    assert_within_sigma(degs.mean(), 2.0, se, context="pgw mean root degree")


def test_pgw_childless_probability():
    trials = 100_000
    rng = np.random.default_rng(13)
    zero = np.array(
        [len(sample_pgw_tree(1.0, 3, rng).adj[0]) == 0 for _ in range(trials)]
    )
    target = math.exp(-1.0)
    assert_within_sigma(
        zero.mean(), target, binomial_se(target, trials), context="pgw childless"
    )


def test_pgw_offspring_chi_square():
    # offspring distribution matches Poisson(2) by chi-square at the 1% level
    lam, trials = 2.0, 100_000
    rng = np.random.default_rng(17)
    degs = np.array([len(sample_pgw_tree(lam, 1, rng).adj[0]) for _ in range(trials)])
    cap = 9  # bins 0..8 plus the merged tail, all expected counts >= 5
    observed = np.bincount(np.minimum(degs, cap), minlength=cap + 1)
    pmf = np.array([math.exp(-lam) * lam**j / math.factorial(j) for j in range(cap)])
    expected = np.append(pmf, 1.0 - pmf.sum()) * trials
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 <= stats.chi2.ppf(0.99, cap)


def test_tree_determinism():
    a = sample_pgw_tree(2.5, 3, 999)
    b = sample_pgw_tree(2.5, 3, 999)
    assert ball_arrays(a) == ball_arrays(b)


# ---------------------------------------------------------------------------
# Lazy-tree labels
# ---------------------------------------------------------------------------


def _walk(tree: LazyTree, depth: int) -> list:
    nodes, frontier = [tree.root], [tree.root]
    for _ in range(depth):
        frontier = [w for v in frontier for w in tree.children(v)]
        nodes += frontier
    return nodes


def _coupled_label(node, copy: int, p: float) -> int:
    base = fold(node.state, LABEL_TAG)
    in_s = fold(node.state, PERC_TAG) < percolation_cut(p)
    return fold(base, copy if in_s else 0)


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("host", [RegularTreeHost(3), PGWTreeHost(2.0)])
@settings(deadline=None)
@given(
    state=st.integers(min_value=0, max_value=(1 << 64) - 1),
    copies=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=8),
)
def test_tree_labels_match_the_formula_in_any_read_order(host, p, state, copies):
    # copies are read in the drawn order and then reversed, repeats included,
    # so copy 0 is read before, after and between coupled copies
    tree = LazyTree(host, 2, state)
    nodes = _walk(tree, 2)
    for c in copies + copies[::-1]:
        view = TreeLabels(tree, copy=c, p=p)
        assert [view.label(v) for v in nodes] == [_coupled_label(v, c, p) for v in nodes]


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("radius", [0, 1])
@pytest.mark.parametrize(
    "host", [RegularTreeHost(2), RegularTreeHost(5), PGWTreeHost(0.5), PGWTreeHost(3.0)]
)
def test_tree_stars_match_the_lazy_trees(host, radius, p):
    # the roots' children by child_states, root by root and in child order,
    # and one CoupledLabels over roots and children are the lazy trees' nodes
    # and labels, for any copy; TreeBlock's bits of a factor of this radius
    # are its rule on the lazy trees
    f = (constant_factor(1), threshold_factor())[radius]
    roots = np.array([trial_state(3, t) for t in range(200)], dtype=np.uint64)
    parent, slot, kids = child_states(host, 0, roots)
    labels = CoupledLabels(np.concatenate((roots, kids)), p)
    copies = np.arange(1, 5, dtype=np.uint64)
    inner = labels(copies[:, None])
    bits = TreeBlock(f, host, roots, p).bits(copies)
    for i, state in enumerate(roots.tolist()):
        tree = LazyTree(host, 1, state)
        nodes = [tree.root] + tree.children(tree.root)
        mine = np.flatnonzero(parent == i)
        assert slot[mine].tolist() == list(range(len(nodes) - 1))
        assert kids[mine].tolist() == [v.state for v in nodes[1:]]
        at = np.concatenate(([i], roots.size + mine))
        for c in (0, 1, 3):
            view = TreeLabels(tree, copy=c, p=p)
            assert labels(c, at).tolist() == [view.label(v) for v in nodes]
        for j, c in enumerate(copies.tolist()):
            view = TreeLabels(tree, copy=c, p=p)
            assert inner[j, at].tolist() == [view.label(v) for v in nodes]
            own = TreeLabels(LazyTree(host, radius, state), copy=c, p=p)
            assert bits[j, i] == bool(f.rule(own))
    assert np.array_equal(parent, np.sort(parent))


def test_tree_stars_reject_graph_hosts():
    # TreeBlock takes tree hosts only
    roots = np.arange(3, dtype=np.uint64)
    with pytest.raises(TypeError):
        TreeBlock(threshold_factor(), ConfigModelHost(10, 3), roots)


def test_tree_labels_copy_zero_stores_nothing():
    tree = LazyTree(RegularTreeHost(3), 3, 12345)
    view = TreeLabels(tree, p=0.5)
    for v in _walk(tree, 3):
        view.label(v)
    assert tree.coupled is None
    TreeLabels(tree, copy=2, p=0.5).label(tree.root)
    assert list(tree.coupled) == [tree.root.state]  # the memo is keyed by node state


# ---------------------------------------------------------------------------
# Neighbourhood extraction
# ---------------------------------------------------------------------------


def test_neighborhood_radius_zero():
    g = cycle(4)
    labels = np.arange(4, dtype=np.uint64)
    nb = neighborhood(g, 2, 0, labels)
    assert nb.n == 1 and nb.edges == [] and nb.label(0) == 2


def test_neighborhood_cycle_r1():
    # C_4 around vertex 0 at radius 1: the path 3 - 0 - 1
    g = cycle(4)
    labels = np.arange(4, dtype=np.uint64)
    nb = neighborhood(g, 0, 1, labels)
    assert nb.n == 3
    assert sorted(nb.edges) == [(0, 1), (0, 2)]
    assert sorted(int(x) for x in nb.labels) == [0, 1, 3]


def test_neighborhood_cycle_r2_closes():
    # hand BFS: radius 2 reaches all of C_4 and includes the closing edge
    g = cycle(4)
    labels = np.arange(4, dtype=np.uint64)
    nb = neighborhood(g, 0, 2, labels)
    assert nb.n == 4
    assert len(nb.edges) == 4  # the full cycle


def test_neighborhood_stable_and_relabelling_equivalent():
    # extraction is deterministic, and relabelling the host graph yields an
    # isomorphic neighbourhood: same depth/label pairs, same edge count
    g1 = MultiGraph(5, [(0, 1), (0, 2), (1, 3), (2, 4)])
    perm = [0, 2, 1, 4, 3]
    edges2 = sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g1.edges
    )
    g2 = MultiGraph(5, edges2)
    labels1 = np.array([10, 20, 30, 40, 50], dtype=np.uint64)
    labels2 = np.empty(5, dtype=np.uint64)
    labels2[perm] = labels1
    nb1 = neighborhood(g1, 0, 2, labels1)
    nb1_again = neighborhood(g1, 0, 2, labels1)
    nb2 = neighborhood(g2, 0, 2, labels2)
    assert ball_arrays(nb1) == ball_arrays(nb1_again)
    assert sorted(zip(nb1.depths, nb1.labels)) == sorted(zip(nb2.depths, nb2.labels))
    assert len(nb1.edges) == len(nb2.edges)


# References: the two-pass construction a rooted ball had before its
# adjacency became its one stored form.  A constructor wrote an edge list
# (neighborhood with an edge-id dedupe and a sort), and a second pass made
# the adjacency from it by appending both ends of every edge and sorting.


def _adj_from_edges(n: int, edges) -> list:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(nbrs) for nbrs in adj]


def _neighborhood_reference(g, v: int, r: int, labels) -> tuple:
    """(n, edges, labels, depths, source_vertices) of neighborhood(g, v, r, labels)."""
    adj = g.adj
    order = {v: 0}
    depths = [0]
    queue = deque([v])
    while queue:
        u = queue.popleft()
        du = depths[order[u]]
        if du == r:
            continue
        for w, _ in adj[u]:
            if w not in order:
                order[w] = len(order)
                depths.append(du + 1)
                queue.append(w)
    edges = []
    seen_eids = set()
    for u in order:
        for w, eid in adj[u]:
            if eid in seen_eids or w not in order:
                continue
            seen_eids.add(eid)
            a, b = order[u], order[w]
            edges.append((min(a, b), max(a, b)))
    edges.sort()
    src = np.fromiter(order.keys(), dtype=np.int64)
    return len(order), edges, np.asarray(labels, dtype=np.uint64)[src], depths, src


def _tree_reference(counts_per_level, r: int, rng) -> tuple:
    """(n, edges, labels, depths, None) of the eager tree, from its parent
    edge list: edge w-1 joins parent(w) to w."""
    depths = [0]
    edges = []
    level = [0]
    for depth in range(r):
        nxt = []
        for v, c in zip(level, counts_per_level(level)):
            for _ in range(int(c)):
                w = len(depths)
                edges.append((v, w))
                depths.append(depth + 1)
                nxt.append(w)
        level = nxt
    return len(depths), edges, uniform_labels(rng, len(depths)), depths, None


def _ball_view_reference(forest, center: int, radius: int) -> tuple:
    """(n, edges, labels, depths, order keys) of forest.ball_view(center,
    radius): a vertex's order key is its position state, its label the
    state's copy-0 label."""
    handles = [center]
    depths = [0]
    edges = []
    seen = {center}
    for i, h in enumerate(handles):
        if depths[i] == radius:
            continue
        for w in forest._neighbors(h):
            if w not in seen:
                seen.add(w)
                edges.append((i, len(handles)))
                handles.append(w)
                depths.append(depths[i] + 1)
    keys = np.array([forest.state(h) for h in handles], dtype=np.uint64)
    labels = np.array([fold(fold(int(s), LABEL_TAG), 0) for s in keys], dtype=np.uint64)
    return len(handles), edges, labels, depths, keys


def _assert_ball(nb, reference):
    n, edges, labels, depths, src = reference
    assert nb.n == n
    assert nb.adj == _adj_from_edges(n, edges)
    assert nb.edges == edges
    assert np.array_equal(nb.depths, depths)
    assert nb.labels.dtype == np.uint64 and np.array_equal(nb.labels, labels)
    if src is None:
        assert nb.source_vertices is None
    else:
        assert np.array_equal(nb.source_vertices, src)


def test_neighborhood_matches_the_two_pass_construction():
    graphs = [
        MultiGraph(4, [(0, 0), (0, 1), (0, 1), (2, 2), (1, 3)]),
        MultiGraph(6, [(0, 1), (1, 1), (1, 1), (1, 2), (2, 0), (2, 3), (3, 3),
                       (3, 4), (4, 3), (4, 5), (5, 0), (5, 5)]),
        MultiGraph(3, [(2, 2), (2, 2), (0, 2), (2, 0)]),
    ]
    graphs += [sample_config_model(10, 3, seed) for seed in range(20)]
    graphs += [sample_er(15, 3.0, seed) for seed in range(20)]
    loops = multi = 0
    for i, g in enumerate(graphs):
        labels = np.random.default_rng(i).integers(0, 1 << 64, size=g.n, dtype=np.uint64)
        for v in range(g.n):
            for r in range(4):
                nb = neighborhood(g, v, r, labels)
                _assert_ball(nb, _neighborhood_reference(g, v, r, labels))
                fresh = labels[::-1][nb.source_vertices]
                relabelled = nb.with_labels(fresh)
                assert relabelled.adj is nb.adj and np.array_equal(relabelled.labels, fresh)
                loops += any(u == w for u, w in nb.edges)
                multi += len(set(nb.edges)) < len(nb.edges)
    assert loops and multi


def test_eager_trees_match_the_two_pass_construction():
    for seed in range(5):
        for d in (2, 3, 4):
            counts = lambda level: [d if v == 0 else d - 1 for v in level]
            for r in range(4):
                reference = _tree_reference(counts, r, np.random.default_rng(seed))
                _assert_ball(sample_regular_tree(d, r, seed), reference)
        for lam in (0.7, 2.5, 5.0):
            for r in range(4):
                rng = np.random.default_rng(seed)
                counts = lambda level: rng.poisson(lam, size=len(level)) if level else []
                _assert_ball(sample_pgw_tree(lam, r, seed), _tree_reference(counts, r, rng))


@pytest.mark.parametrize("lam,d", [(3.0, 4), (6.0, 5)])
def test_filled_forest_balls_match_the_two_pass_construction(lam, d):
    from test_pgw import EagerForest

    rng = np.random.default_rng(33)
    removals = 0
    for _ in range(8):
        t = sample_pgw_tree(lam, 4, int(rng.integers(1 << 30)))
        removed = edge_removal_stage(t, t.labels, d)
        y_state = int(rng.integers(1 << 62))
        forest = filling_out_stage(t, removed, d, y_state)
        reference = EagerForest(t, removed, d, y_state)
        for v in [0] + t.adj[0]:
            for r in range(4):
                _assert_ball(forest.ball_view(v, r), _ball_view_reference(reference, v, r))
        removals += int(removed.sum())
    assert removals


# ---------------------------------------------------------------------------
# Incidence lists read on demand from the samplers' draws
# ---------------------------------------------------------------------------


def ball_readings(g, labels) -> list:
    """Per vertex and radius 1..3: the tree verdict and the rooted ball."""
    return [
        (ball_is_tree(g, v, r), ball_arrays(neighborhood(g, v, r, labels)))
        for v in range(g.n)
        for r in (1, 2, 3)
    ]


def test_local_config_balls_match_the_multigraph():
    # the sampler's graph, read from its half-edge permutation, against the
    # graph of its explicit edge list
    loops = multi = 0
    for d in (2, 3):
        for n in range(2, 13):
            if n * d % 2:
                continue
            for seed in range(6):
                g = sample_config_model(n, d, seed)
                labels = np.random.default_rng(seed).integers(
                    0, 1 << 64, size=n, dtype=np.uint64
                )
                whole = MultiGraph(n, g.edges)
                assert ball_readings(g, labels) == ball_readings(whole, labels)
                loops += any(u == v for u, v in g.edges)
                multi += len(set(g.edges)) < len(g.edges)
    assert loops and multi


@pytest.mark.parametrize("n,lam", [(1, 0.0), (2, 2.0), (8, 2.0), (15, 4.0), (30, 3.0)])
def test_local_er_balls_match_the_multigraph(n, lam):
    for seed in range(5):
        g = sample_er(n, lam, seed)
        labels = np.random.default_rng(seed).integers(0, 1 << 64, size=n, dtype=np.uint64)
        assert g.edges == list(zip(*(a.tolist() for a in er_edge_arrays(n, lam, seed))))
        whole = MultiGraph(n, g.edges)
        assert ball_readings(g, labels) == ball_readings(whole, labels)


def test_local_graph_reads_only_the_ball():
    n, d = 1000, 3
    for seed in range(5):
        g = sample_config_model(n, d, seed)
        ball_is_tree(g, 7, 2)
        assert len(g.adj) <= 1 + d + d * (d - 1)  # vertices within distance 2
        neighborhood(g, 7, 1, np.zeros(n, dtype=np.uint64))
        assert len(g.adj) <= 1 + d + d * (d - 1)


def test_local_graph_union_matches_the_multigraph():
    # an Erdos-Renyi copy is the kept graph (g less its SxS edges) merged
    # with the redrawn SxS pairs: the same graph as the union built by hand
    g = MultiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)], model="er")
    S = np.array([3, 1, 2])  # unsorted on purpose; (1, 2), (1, 3), (2, 3) redrawn
    union = list(er_resample_graphs(g, S, 5.0, 1, 0))[0]  # lam / n = 1: every SxS pair
    want = sorted([(0, 1), (3, 4)] + [(1, 2), (1, 3), (2, 3)])
    assert union.edges == want
    labels = np.arange(5, dtype=np.uint64)
    assert ball_readings(union, labels) == ball_readings(MultiGraph(5, want), labels)
    kept = list(er_resample_graphs(g, S, 0.0, 1, 0))[0]  # lam = 0 redraws nothing
    assert kept.edges == [(0, 1), (3, 4)]
    assert ball_readings(kept, labels) == ball_readings(MultiGraph(5, kept.edges), labels)


# References: the constructions that MultiGraph's arrays replaced.


def _perm(n: int, d: int, seed: int) -> np.ndarray:
    """The half-edge permutation sample_config_model(n, d, seed) draws."""
    return np.random.default_rng(seed).permutation(n * d)


def _config_edges_by_perm(perm: np.ndarray, d: int) -> list:
    """sample_config_model's edges() closure as first written."""
    ends = np.sort(perm.reshape(-1, 2) // d, axis=1)
    lo, hi = ends[np.lexsort((ends[:, 1], ends[:, 0]))].T
    return list(zip(lo.tolist(), hi.tolist()))


def _config_pairing_by_perm(perm: np.ndarray) -> np.ndarray:
    """sample_config_model's pairing() closure as first written."""
    pairs = np.sort(perm.reshape(-1, 2), axis=1)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def _reads_from_edges(n: int, edges) -> list:
    """Every vertex's incidence list, edge i of `edges` with id i, as the
    per-vertex read of an explicit graph computed it."""
    adj = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        adj[u].append((v, i))
        adj[v].append((u, i))
    return [sorted(inc) for inc in adj]


def _graph_cases() -> list:
    """(name, factory) pairs; each factory builds a fresh copy of one graph."""
    cases = [
        ("explicit", lambda: MultiGraph(4, [(0, 0), (0, 1), (0, 1), (2, 2), (1, 3)])),
        ("explicit-reversed", lambda: MultiGraph(5, [(3, 1), (4, 0), (2, 2), (1, 3), (0, 4)])),
        ("empty", lambda: MultiGraph(3, [])),
        ("one vertex", lambda: MultiGraph(1, [(0, 0)])),
    ]
    cases += [(f"config {n} {d} {seed}", functools.partial(sample_config_model, n, d, seed))
              for d in (1, 2, 3) for n in (2, 4, 6, 8, 12) for seed in range(4)
              if n * d % 2 == 0]
    cases += [(f"er {n} {lam} {seed}", functools.partial(sample_er, n, lam, seed))
              for n, lam in ((1, 0.0), (2, 2.0), (8, 2.0), (30, 3.0)) for seed in range(3)]
    cases += [(f"er copy {n} {lam_s} {seed}", functools.partial(_er_copy, n, lam, p, seed, lam_s))
              for n, lam, p, seed in ((12, 3.0, 0.5, 0), (30, 2.0, 0.3, 1), (20, 4.0, 1.0, 2))
              for lam_s in (lam, 0.0)]  # a resampled copy, and the kept graph alone
    return cases


def _er_copy(n: int, lam: float, p: float, seed: int, lam_s: float) -> MultiGraph:
    """Copy 1 of sample_er(n, lam, seed) with SxS redrawn at lam_s, for S a
    Bernoulli(p) set; lam_s = 0 redraws nothing and leaves the kept graph."""
    S = np.flatnonzero(np.random.default_rng(seed).random(n) < p)
    return list(er_resample_graphs(sample_er(n, lam, seed), S, lam_s, 2, seed + 7))[1]


def test_multigraph_stores_no_callables():
    for _, make in _graph_cases():
        g = make()
        assert not [name for name, value in vars(g).items() if callable(value)]


def test_config_edges_and_pairing_equal_the_perm_closures():
    loops = multi = 0
    for n, d in ((1, 2), (2, 1), (2, 3), (3, 2), (4, 3), (6, 1), (5, 4), (40, 3)):
        for seed in range(40):
            g = sample_config_model(n, d, seed)
            perm = _perm(n, d, seed)
            assert g.edges == _config_edges_by_perm(perm, d)
            assert g.pairing.dtype == np.int64
            assert np.array_equal(g.pairing, _config_pairing_by_perm(perm))
            assert np.array_equal(g.edge_array, np.array(g.edges, dtype=np.int64).reshape(-1, 2))
            loops += any(u == v for u, v in g.edges)
            multi += len(set(g.edges)) < len(g.edges)
    assert loops and multi


def test_explicit_edges_keep_the_given_order():
    # each edge is listed as (min, max), in the order given
    edges = [(3, 1), (4, 0), (2, 2), (1, 3), (0, 4)]
    g = MultiGraph(5, edges)
    assert g.edges == [(min(e), max(e)) for e in edges]
    assert all(type(x) is int for e in g.edges for x in e)
    assert MultiGraph(5, np.array(edges)).edges == g.edges


@pytest.mark.parametrize("edges,bad", [
    ([(0, 5)], "(0, 5)"),
    ([(0, 1), (3, 2)], "(3, 2)"),
    ([(1, 2), (0, -1), (2, 7)], "(0, -1)"),
])
def test_explicit_edges_need_endpoints_in_range(edges, bad):
    # an endpoint outside 0..n-1 names a vertex the graph does not have
    with pytest.raises(ValueError, match=re.escape(f"edge {bad} has an endpoint outside 0..2")):
        MultiGraph(3, edges)
    assert MultiGraph(3, [(0, 2), (2, 2)]).edges == [(0, 2), (2, 2)]


def test_reads_equal_edges_pairing_and_every_ball():
    loops = multi = 0
    for name, make in _graph_cases():
        g = make()
        reads = [g.adj[v] for v in range(g.n)]
        # the per-vertex reads are the incidence lists of the edge list, with
        # this graph's edge ids: relabel the ids in the order edges lists them
        ids = {}
        for v, inc in enumerate(reads):
            for w, e in inc:
                ids.setdefault(e, []).append((v, w))
        assert sorted(len(x) for x in ids.values()) == [2] * len(g.edges), name
        by_edge = sorted(((min(v, w), max(v, w)), e) for e, ((v, w), _) in ids.items())
        assert [uv for uv, _ in by_edge] == sorted(g.edges), name
        if g.model != "config":  # edge ids follow the order edges lists
            assert reads == _reads_from_edges(g.n, g.edges), name
        # pairing: half-edge positions grouped by vertex, glued into edges
        owner = np.repeat(np.arange(g.n), [len(inc) for inc in reads])
        assert sorted(map(tuple, owner[g.pairing].tolist())) == sorted(g.edges), name
        assert np.array_equal(np.sort(g.pairing.ravel()), np.arange(2 * len(g.edges))), name
        labels = np.random.default_rng(len(name)).integers(0, 1 << 64, size=g.n, dtype=np.uint64)
        assert ball_readings(g, labels) == ball_readings(MultiGraph(g.n, g.edges), labels), name
        loops += any(u == v for u, v in g.edges)
        multi += len(set(g.edges)) < len(g.edges)
    assert loops and multi


def _triu_pairs(m: int, flat: np.ndarray) -> tuple:
    """The SxS pair mapping as first written: the flat index into triu_indices."""
    iu, iv = np.triu_indices(m, k=1)
    return iu[flat], iv[flat]


@pytest.mark.parametrize("m", [0, 1, 2, 7, 40])
def test_triangle_pairs_equal_the_triu_indices(m):
    total = m * (m - 1) // 2
    rng = np.random.default_rng(m)
    for flat in (np.arange(total), np.flatnonzero(rng.random(total) < 0.3),
                 np.array([], dtype=np.int64)):
        a, b = triangle_pairs(m, flat)
        ref_a, ref_b = _triu_pairs(m, flat)
        assert a.dtype == np.int64 and b.dtype == np.int64
        assert np.array_equal(a, ref_a) and np.array_equal(b, ref_b)


# ---------------------------------------------------------------------------
# Non-tree neighbourhood counts
# ---------------------------------------------------------------------------


def test_count_non_tree_on_trees():
    t = sample_regular_tree(3, 3, 5)
    g = MultiGraph(t.n, t.edges)
    for r in range(3):
        assert non_tree_ball_mask(g, r + 1).sum() == 0


def test_count_non_tree_cycles():
    # C_6 at r=1: every 2-neighbourhood is a 5-vertex path, acyclic
    assert non_tree_ball_mask(cycle(6), 2).sum() == 0
    # C_4 at r=1: every 2-neighbourhood is the whole cycle
    assert non_tree_ball_mask(cycle(4), 2).sum() == 4


def test_count_non_tree_loops_and_multi():
    loop = MultiGraph(2, [(0, 0), (0, 1)])
    assert non_tree_ball_mask(loop, 1).sum() == 2  # loop visible at radius 1 from both
    multi = MultiGraph(2, [(0, 1), (0, 1)])
    assert non_tree_ball_mask(multi, 1).sum() == 2


@st.composite
def multigraphs(draw):
    """Small multigraphs with loops, parallel edges and isolated vertices."""
    n = draw(st.integers(min_value=1, max_value=11))
    ends = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=2 * n))
    return n, edges


@settings(deadline=None, max_examples=300)
@given(graph=multigraphs())
def test_tree_ball_mask_equals_the_per_vertex_mask(graph):
    n, edges = graph
    for radius in range(7):  # fresh graphs: the reference reads every list
        assert np.array_equal(
            tree_ball_mask(MultiGraph(n, edges), radius),
            ~non_tree_ball_mask(MultiGraph(n, edges), radius),
        ), radius


@st.composite
def config_multigraphs(draw):
    """Small configuration-model graphs: d in 1..4 half-edges a vertex, any
    pairing of them (loops and parallel edges included), built as
    sample_config_model builds its graphs, so `start` is a range; and a
    list of vertices, repeats allowed."""
    d = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=10))
    n += n * d % 2
    perm = np.array(draw(st.permutations(range(n * d))), dtype=np.int64)  # pairs 2i, 2i + 1
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    at = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=2 * n))
    return n, d, perm[inv ^ 1] // d, inv >> 1, np.array(at, dtype=np.int64)


@settings(deadline=None, max_examples=300)
@given(graph=config_multigraphs())
def test_tree_ball_mask_equals_the_per_vertex_mask_on_config_graphs(graph):
    n, d, nbr, eid, at = graph

    def fresh():  # the reference reads every list
        return MultiGraph(n, model="config", start=range(0, n * d + 1, d), nbr=nbr, eid=eid)

    for radius in range(7):
        ref = ~non_tree_ball_mask(fresh(), radius)
        assert np.array_equal(tree_ball_mask(fresh(), radius), ref), radius
        assert np.array_equal(tree_ball_mask(fresh(), radius, at), ref[at]), radius


@st.composite
def rooted_multigraphs(draw):
    """Multigraphs with loops and parallel edges on up to 30 vertices, a
    list of roots (repeats allowed) and labels: uniform 64-bit labels, or
    four values, so that ties break by vertex id."""
    n = draw(st.integers(min_value=1, max_value=30))
    ends = st.integers(min_value=0, max_value=n - 1)
    edges = np.array(draw(st.lists(st.tuples(ends, ends), max_size=2 * n)), dtype=np.int64)
    roots = np.array(draw(st.lists(ends, min_size=1, max_size=5)), dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=1 << 32)))
    if draw(st.booleans()):
        labels = uniform_labels(rng, n)
    else:
        labels = rng.integers(0, 4, size=n).astype(np.uint64) << np.uint64(62)
    return n, edges.reshape(-1, 2), roots, labels


def _reveal_all(ex, n: int, groups: int, parts: int) -> tuple:
    """Reveal every vertex of every group in `parts` batches; the edges."""
    keys = np.arange(groups * n)
    for part in np.array_split(keys.reshape(groups, n), parts, axis=1):
        ex.reveal(np.sort(part.ravel()))
    return ex.edges()


@pytest.mark.parametrize("n, d", [(1, 2), (2, 3), (7, 4), (40, 3)])
@pytest.mark.parametrize("parts", [1, 3])
def test_config_exploration_of_every_vertex_is_a_pairing(n, d, parts):
    # every half-edge paired once: d ends at each vertex (a loop gives two),
    # and every edge inside its group
    ex = ConfigExploration(n, d, fold_np(np.uint64(3), np.arange(4, dtype=np.uint64)))
    heads, tails = _reveal_all(ex, n, 4, parts)
    assert heads.size == 4 * n * d // 2
    assert np.array_equal(np.bincount(np.concatenate((heads, tails)), minlength=4 * n),
                          np.full(4 * n, d))
    assert np.array_equal(heads // n, tails // n)
    assert np.array_equal(ex.paired, np.arange(4 * n * d))


@pytest.mark.parametrize("lam", [0.0, 2.0, 9.0])
@pytest.mark.parametrize("parts", [1, 4])
def test_er_exploration_of_every_vertex_draws_each_pair_once(lam, parts):
    # a simple graph in each group, each pair drawn by its first revealed end
    n = 9
    ex = ErExploration(n, lam, fold_np(np.uint64(4), np.arange(50, dtype=np.uint64)))
    heads, tails = _reveal_all(ex, n, 50, parts)
    assert np.array_equal(heads // n, tails // n) and not (heads == tails).any()
    pairs = np.sort(np.stack([heads, tails]), axis=0)
    assert len(set(zip(*pairs.tolist()))) == heads.size
    assert abs(heads.size - 50 * lam * (n - 1) / 2) < 5 * math.sqrt(50 * 36 * lam / n + 1)


@settings(deadline=None, max_examples=300)
@given(graph=rooted_multigraphs())
def test_the_ball_cut_keeps_the_bits_at_its_roots(graph):
    # the rule and the tree-ball mask at a root read only incidences of
    # vertices within f.radius + 1 of it, all of which the explored ball
    # holds: the graph explored from each root (a group each) and cut to
    # the edges drawn, against the whole graph
    n, edges, roots, labels = graph
    g = MultiGraph(n, edges)
    for f in (threshold_factor(), lauer_wormald(0.3, 2), constant_factor(1)):
        ball = GivenGraph(g)
        keys = np.arange(roots.size) * n + roots
        ball.explore(keys, f.radius + 1)
        kept, us, vs, at = ball.cut(keys)
        assert np.array_equal(kept, np.sort(kept)) and np.array_equal(kept[at], keys)
        cut = MultiGraph(kept.size, np.stack([us, vs], axis=1))
        want = graph_bits_at(f, g, labels, roots)
        assert np.array_equal(graph_bits_at(f, cut, labels[kept % n], at), want), f.kind


@pytest.mark.parametrize("radius", [2, 3, 5, 8])
def test_tree_ball_mask_equals_the_per_vertex_mask_on_sampled_graphs(radius):
    for g in (sample_config_model(1000, 3, radius), sample_er(1000, 3.0, radius)):
        ok = tree_ball_mask(g, radius)
        assert np.array_equal(ok, ~non_tree_ball_mask(g, radius)), g.model
        assert 0 < ok.mean() < 1 or radius == 8


def _owner_sets(n: int, rng) -> list:
    """`at` arrays for tree_ball_mask: empty, a sorted random subset, the
    same subset unsorted, and 2n draws with repeats (as int32)."""
    sub = np.flatnonzero(rng.random(n) < 0.4)
    return [np.array([], dtype=np.int64), sub, rng.permutation(sub),
            rng.integers(0, n, size=2 * n).astype(np.int32)]


def _assert_mask_at(g: MultiGraph, radius: int, rng):
    whole, ref = tree_ball_mask(g, radius), ~non_tree_ball_mask(g, radius)
    assert np.array_equal(whole, ref)
    for at in _owner_sets(g.n, rng):
        got = tree_ball_mask(g, radius, at)
        assert got.dtype == bool and got.shape == at.shape
        assert np.array_equal(got, whole[at]) and np.array_equal(got, ref[at]), (radius, at)


def test_tree_ball_mask_at_given_vertices():
    rng = np.random.default_rng(57)
    hand = [MultiGraph(2, [(0, 0), (0, 1)]), MultiGraph(2, [(0, 1), (0, 1)]),
            MultiGraph(5, [(0, 1), (1, 2), (1, 2), (2, 3), (3, 3)]), cycle(4), cycle(6), cycle(9)]
    for g in hand + [sample_config_model(300, 3, 14), sample_er(300, 3.0, 15)]:
        for radius in range(5):
            _assert_mask_at(g, radius, rng)


def test_tree_ball_mask_across_owner_passes(monkeypatch):
    # 7 owners a pass: 50 and 61 vertices, and the `at` sets, end on a partial pass
    monkeypatch.setattr(graphs, "MASK_OWNERS", 7)
    rng = np.random.default_rng(58)
    for g in (sample_config_model(50, 3, 3), sample_er(61, 2.5, 4), cycle(9)):
        for radius in range(5):
            _assert_mask_at(g, radius, rng)


def test_tree_ball_mask_with_int64_keys():
    """At n = 2^20 a pass of MASK_OWNERS owners tags keys up to 2 * 1024 *
    2^20 = 2^31, past int32, so the first pass keys in int64 and the second
    (the rest) in int32.  Seed 1 draws two parallel edges between vertices
    above 700000: those vertices and their neighbours close the first pass,
    after owners drawn from the top 4096 ids, so the largest keys belong to
    non-tree balls."""
    n = 2**20
    g = sample_config_model(n, 3, 1)
    assert 2 * graphs.MASK_OWNERS * n > np.iinfo(np.int32).max
    nbrs = np.sort(g.nbr.reshape(n, 3), axis=1)
    multi = np.flatnonzero((nbrs[:, 1:] == nbrs[:, :-1]).any(axis=1))
    near = np.unique(np.concatenate((multi, nbrs[multi].ravel())))
    rng = np.random.default_rng(59)
    at = np.concatenate((rng.integers(n - 2**12, n, size=graphs.MASK_OWNERS - near.size), near,
                         rng.integers(0, n, size=500)))
    for radius in (1, 2):
        ok = tree_ball_mask(g, radius, at)
        assert ok.tolist() == [ball_is_tree(g, v, radius) for v in at.tolist()], radius
        assert not ok[: graphs.MASK_OWNERS].all()


@pytest.mark.parametrize("n, radius, bound_mib", [(10**5, 2, 8), (10**4, 8, 32)])
def test_tree_ball_mask_holds_bounded_memory(n, radius, bound_mib):
    """MASK_OWNERS bounds the walks held.  At n = 10^5, R = 2 the mask
    traces about 1.2 MiB and at n = 10^4, R = 8 (LW(0.3, 6)'s mask radius)
    about 10 MiB; one pass over every owner at once traces about 95 MiB in
    both cases."""
    g = sample_config_model(n, 3, 11)
    g.tail, g.offsets  # the graph's own arrays, made once per graph
    tracemalloc.start()
    try:
        ok = tree_ball_mask(g, radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok.shape == (n,)
    assert peak < bound_mib * 2**20, f"{peak / 2**20:.1f} MiB"


def test_local_weak_convergence_smoke():
    # fraction of tree-like 2-neighbourhoods does not drop as n grows
    def tree_fraction(n, seed):
        g = sample_config_model(n, 3, seed)
        return 1.0 - non_tree_ball_mask(g, 2).sum() / n

    assert tree_fraction(10_000, 1) >= tree_fraction(100, 2) - 0.02
