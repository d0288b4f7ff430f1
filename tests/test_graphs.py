import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from localis.graphs import (
    ConfigModelHost,
    LazyTree,
    MultiGraph,
    PGWTreeHost,
    RegularTreeHost,
    TreeLabels,
    TreeStars,
    ball_is_tree,
    count_non_tree_vertices,
    er_edge_arrays,
    neighborhood,
    sample_config_model,
    sample_er,
    sample_pgw_tree,
    sample_regular_tree,
    triangle_pairs,
)
from localis.coupling import er_resample_graphs

from localis.rng import LABEL_TAG, PERC_TAG, fold, percolation_cut, trial_state

from conftest import assert_within_sigma, binomial_se


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
    assert a.to_json() == b.to_json()
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
    # the multinomial expectation, and the chi-square statistic unsuspicious
    n_samples = 1_000_000
    rng = np.random.default_rng(42)
    counts = {}
    for _ in range(n_samples):
        g = sample_config_model(4, 2, rng)
        key = g.pairing.tobytes()
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 105
    expected = n_samples / 105
    sigma = math.sqrt(n_samples * (1 / 105) * (1 - 1 / 105))
    worst = max(abs(c - expected) for c in counts.values())
    assert worst <= 4.0 * sigma
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 <= stats.chi2.ppf(0.999, 104)


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
    assert sample_er(30, 2.0, 5).to_json() == sample_er(30, 2.0, 5).to_json()


def _er_edges_by_triu(n: int, lam: float, seed) -> tuple:
    """er_edge_arrays as first written: the drawn mask indexes triu_indices."""
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < lam / n
    return iu[mask], iv[mask]


@pytest.mark.parametrize("n", [1, 2, 3, 10, 200])
@pytest.mark.parametrize("seed", [0, 1, 17, 12345])
def test_er_edge_arrays_match_the_triu_mapping(n, seed):
    for lam in (0.0, min(2.0, n), float(n)):
        us, vs = er_edge_arrays(n, lam, seed)
        ref_us, ref_vs = _er_edges_by_triu(n, lam, seed)
        assert us.dtype == ref_us.dtype and vs.dtype == ref_vs.dtype
        assert np.array_equal(us, ref_us) and np.array_equal(vs, ref_vs)


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
    assert a.to_json() == b.to_json()


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
    roots = np.array([trial_state(3, t) for t in range(200)], dtype=np.uint64)
    stars = TreeStars(host, radius, roots, p)
    copies = np.arange(1, 5, dtype=np.uint64)[:, None]
    for i, state in enumerate(roots.tolist()):
        tree = LazyTree(host, radius, state)
        nodes = [tree.root] + tree.children(tree.root)
        width = len(nodes)
        assert stars.valid[i].tolist() == [True] * width + [False] * (
            stars.states.shape[1] - width
        )
        assert stars.states[i, :width].tolist() == [v.state for v in nodes]
        for c in (0, 1, 3):
            view = TreeLabels(tree, copy=c, p=p)
            assert stars.labels(c)[i, :width].tolist() == [view.label(v) for v in nodes]
        inner = stars.labels(copies, i)
        for j, c in enumerate(copies[:, 0].tolist()):
            view = TreeLabels(tree, copy=c, p=p)
            assert inner[j, :width].tolist() == [view.label(v) for v in nodes]


def test_tree_stars_reject_graph_hosts_and_deeper_radii():
    with pytest.raises(TypeError):
        TreeStars(ConfigModelHost(10, 3), 1, np.arange(3, dtype=np.uint64))
    with pytest.raises(ValueError):
        TreeStars(RegularTreeHost(3), 2, np.arange(3, dtype=np.uint64))


def test_tree_labels_copy_zero_stores_nothing():
    tree = LazyTree(RegularTreeHost(3), 3, 12345)
    view = TreeLabels(tree, p=0.5)
    for v in _walk(tree, 3):
        view.label(v)
    assert tree.coupled is None
    TreeLabels(tree, copy=2, p=0.5).label(tree.root)
    assert list(tree.coupled) == [tree.root]


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
    assert nb1.to_json() == nb1_again.to_json()
    assert sorted(zip(nb1.depths, nb1.labels)) == sorted(zip(nb2.depths, nb2.labels))
    assert len(nb1.edges) == len(nb2.edges)


# ---------------------------------------------------------------------------
# Incidence lists read on demand from the samplers' draws
# ---------------------------------------------------------------------------


def ball_readings(g, labels) -> list:
    """Per vertex and radius 1..3: the tree verdict and the rooted ball."""
    return [
        (ball_is_tree(g, v, r), neighborhood(g, v, r, labels).to_json())
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
    union = er_resample_graphs(g, S, 5.0, 1, 0)[0]  # lam / n = 1: every SxS pair
    want = sorted([(0, 1), (3, 4)] + [(1, 2), (1, 3), (2, 3)])
    assert union.edges == want
    labels = np.arange(5, dtype=np.uint64)
    assert ball_readings(union, labels) == ball_readings(MultiGraph(5, want), labels)
    kept = er_resample_graphs(g, S, 0.0, 1, 0)[0]  # lam = 0 redraws nothing
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
    return er_resample_graphs(sample_er(n, lam, seed), S, lam_s, 2, seed + 7)[1]


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


def test_reads_equal_read_all_edges_pairing_and_every_ball():
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
        # read_all, from one tolist, on a fresh copy and after a first read
        assert make().read_all() == reads, name
        h = make()
        h.adj[0]
        assert h.read_all() == reads and h.read_all() is h.adj, name
        labels = np.random.default_rng(len(name)).integers(0, 1 << 64, size=g.n, dtype=np.uint64)
        assert ball_readings(g, labels) == ball_readings(MultiGraph(g.n, g.edges), labels), name
        loops += any(u == v for u, v in g.edges)
        multi += len(set(g.edges)) < len(g.edges)
    assert loops and multi


def test_read_all_equals_the_per_vertex_reads():
    # read_all builds every incidence list in one pass; each list must equal
    # the vertex's own read on a fresh copy, loops and parallel edges included
    loops = multi = 0
    for name, make in _graph_cases():
        g = make()
        assert g.read_all() == [make().adj[v] for v in range(g.n)], name
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
        assert count_non_tree_vertices(g, r) == 0


def test_count_non_tree_cycles():
    # C_6 at r=1: every 2-neighbourhood is a 5-vertex path, acyclic
    assert count_non_tree_vertices(cycle(6), 1) == 0
    # C_4 at r=1: every 2-neighbourhood is the whole cycle
    assert count_non_tree_vertices(cycle(4), 1) == 4


def test_count_non_tree_loops_and_multi():
    loop = MultiGraph(2, [(0, 0), (0, 1)])
    assert count_non_tree_vertices(loop, 0) == 2  # loop visible at radius 1 from both
    multi = MultiGraph(2, [(0, 1), (0, 1)])
    assert count_non_tree_vertices(multi, 0) == 2


def test_local_weak_convergence_smoke():
    # fraction of tree-like 2-neighbourhoods does not drop as n grows
    def tree_fraction(n, seed):
        g = sample_config_model(n, 3, seed)
        return 1.0 - count_non_tree_vertices(g, 1) / n

    assert tree_fraction(10_000, 1) >= tree_fraction(100, 2) - 0.02
