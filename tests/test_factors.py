import itertools
import math
import os
import pickle
import resource
import tracemalloc

import numpy as np
import pytest

from localis import factors
from localis.factors import (
    PASS_PAIRS,
    TreeBlock,
    _threshold_rule,
    _tree_density_fn,
    apply_factor,
    beta_formula,
    constant_factor,
    estimate_tree_density,
    factor_from_spec,
    factor_spec,
    graph_bits,
    lauer_wormald,
    project_to_graph,
    threshold_factor,
)
from localis.graphs import (
    LazyTree,
    MultiGraph,
    PGWTreeHost,
    RegularTreeHost,
    neighborhood,
    non_tree_ball_mask,
    sample_config_model,
    sample_er,
    sample_pgw_tree,
    sample_regular_tree,
    TreeLabels,
)
from localis.rng import (
    MASK64,
    first_success_round,
    round_bounds,
    trial_state,
    trial_state_np,
    uniform_labels,
)

from conftest import apply_mutant, assert_within_sigma, unit_to_label


def star(leaf_units, root_unit, radius=1):
    """Root plus len(leaf_units) leaves with the given unit-interval labels."""
    n = 1 + len(leaf_units)
    adj = [list(range(1, n))] + [[0] for _ in leaf_units]
    labels = np.array(
        [unit_to_label(root_unit)] + [unit_to_label(u) for u in leaf_units],
        dtype=np.uint64,
    )
    from localis.graphs import RootedNeighborhood

    depths = np.array([0] + [1] * len(leaf_units))
    return RootedNeighborhood(adj, labels, radius, depths)


def lw_round_oracle(nb, p, k):
    """Independent oracle: simulate the rounds directly.

    U_0 = all vertices; round i selects the still-alive vertices whose first
    Bernoulli success is round i, then removes them and their neighbours from
    U.  Output: root joined and no neighbour joined.
    """
    n = nb.n
    first = [first_success_round(nb.label(v), p, k) for v in range(n)]
    alive = [True] * n
    joined = [False] * n
    for rnd in range(1, k + 1):
        batch = [v for v in range(n) if alive[v] and first[v] == rnd]
        for v in batch:
            joined[v] = True
        for v in batch:
            alive[v] = False
            for w in nb.neighbors(v):
                alive[w] = False
    if not joined[0]:
        return 0
    return 0 if any(joined[u] for u in nb.neighbors(0)) else 1


def ref_lw_rule(p, k):
    """The percolation-round rule as first written, kept as the reference: an
    explicit-stack resolver with memoised rounds and join bits, which also
    resolves every root neighbour, later-round ones included."""

    def rule(view) -> int:
        rounds = {}
        joins = {}

        def first_round(v):
            r = rounds.get(v)
            if r is None:
                r = first_success_round(view.label(v), p, k)
                rounds[v] = r
            return r

        def resolve(v0):
            stack = [v0]
            while stack:
                v = stack[-1]
                if v in joins:
                    stack.pop()
                    continue
                rv = first_round(v)
                if rv > k:
                    joins[v] = False
                    stack.pop()
                    continue
                nbrs = view.neighbors(v)
                pending = [w for w in nbrs if first_round(w) < rv and w not in joins]
                if pending:
                    stack.extend(pending)
                    continue
                joins[v] = not any(
                    first_round(w) < rv and joins[w] for w in nbrs
                )
                stack.pop()
            return joins[v0]

        root = view.root
        if not resolve(root):
            return 0
        for u in view.neighbors(root):
            if resolve(u):
                return 0
        return 1

    return rule


# ---------------------------------------------------------------------------
# apply_factor basics
# ---------------------------------------------------------------------------


def test_constant_factor():
    nb = star([0.5, 0.9], 0.1)
    assert apply_factor(constant_factor(0), nb) == 0
    assert apply_factor(constant_factor(1), nb) == 1


def test_threshold_factor_hand_cases():
    assert apply_factor(threshold_factor(), star([0.5, 0.9], 0.1)) == 1
    assert apply_factor(threshold_factor(), star([0.5, 0.9], 0.7)) == 0


def test_apply_factor_radius_guard():
    nb = star([0.5], 0.1, radius=0)
    with pytest.raises(ValueError):
        apply_factor(threshold_factor(), nb)


class _KeyedStar:
    """Rooted-view star: root 0 and leaves 1..m with given labels and keys."""

    root = 0

    def __init__(self, labels, keys):
        self.labels, self.keys = labels, keys

    def neighbors(self, v):
        return list(range(1, len(self.labels))) if v == 0 else [0]

    def label(self, v):
        return self.labels[v]

    def order_key(self, v):
        return self.keys[v]


def test_threshold_star_rule_matches_the_rule_on_hand_built_stars():
    # every star with up to 2 leaves over labels and keys in {0, 1, MASK64},
    # flat as child_states lists them: tied labels are broken by the key
    # (the state), and a leafless root survives.  Copy c takes each star's
    # labels rotated c places, against the same states.
    values = (0, 1, MASK64)
    stars = [
        (labels, keys)
        for m in range(3)
        for labels in itertools.product(values, repeat=m + 1)
        for keys in itertools.product(values, repeat=m + 1)
    ]
    roots = np.array([keys[0] for _, keys in stars], dtype=np.uint64)
    kids = np.array([key for _, keys in stars for key in keys[1:]], dtype=np.uint64)
    parent = np.array([i for i, (_, keys) in enumerate(stars) for _ in keys[1:]])
    rows, want = [], []
    for c in range(3):
        turned = [(labels[c % len(labels):] + labels[: c % len(labels)], keys)
                  for labels, keys in stars]
        rows.append([labels[0] for labels, _ in turned]
                    + [label for labels, _ in turned for label in labels[1:]])
        want.append([_threshold_rule(_KeyedStar(*star)) == 1 for star in turned])
    labels = np.array(rows, dtype=np.uint64)
    got = factors._threshold_bits(roots, kids, parent, labels[0])
    assert got.tolist() == want[0]
    assert got[0] and want[0][0]  # the leafless star
    assert factors._threshold_bits(roots, kids, parent, labels).tolist() == want
    assert want[0] != want[1] != want[2]
    # a tie on the label goes to the smaller state, also after a leafless root
    tie = factors._threshold_bits(
        np.array([9, 2, 4], dtype=np.uint64), np.array([3, 3], dtype=np.uint64),
        np.array([1, 2]), np.array([5, 5, 5, 5, 5], dtype=np.uint64),
    )
    assert tie.tolist() == [True, True, False]


def test_constant_star_rule():
    roots = np.arange(4, dtype=np.uint64)
    for bit in (0, 1):
        got = constant_factor(bit).array_rule(None, 0.0, roots, np.arange(2, dtype=np.uint64))
        assert got.tolist() == [[bool(bit)] * 4] * 2
        assert constant_factor(bit).array_rule(None, 0.0, roots, 3).tolist() == [[bool(bit)] * 4]


def test_factor_spec_roundtrip():
    f = lauer_wormald(0.25, 3)
    g = factor_from_spec(factor_spec(f))
    assert g.kind == f.kind and g.radius == f.radius and g.params == f.params


# ---------------------------------------------------------------------------
# the percolation-round construction
# ---------------------------------------------------------------------------


def test_lw_parameter_guards():
    for bad_p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            lauer_wormald(bad_p, 1)
    with pytest.raises(ValueError):
        lauer_wormald(0.5, 0)


def test_lw_hand_case_root_survives_alone():
    # p = 0.5: unit < 0.5 means first success in round 1
    f = lauer_wormald(0.5, 1)
    nb = star([0.9, 0.8, 0.7], 0.1, radius=2)
    assert apply_factor(f, nb) == 1


def test_lw_hand_case_conflict_excluded():
    f = lauer_wormald(0.5, 1)
    nb = star([0.2, 0.8, 0.7], 0.1, radius=2)  # root and one leaf survive round 1
    assert apply_factor(f, nb) == 0


def test_lw_matches_round_simulation():
    rng = np.random.default_rng(99)
    for trial in range(200):
        k = int(rng.integers(1, 5))
        p = float(rng.uniform(0.05, 0.9))
        f = lauer_wormald(p, k)
        kind = trial % 3
        if kind == 0:
            nb = sample_regular_tree(3, k + 1, int(rng.integers(1 << 30)))
        elif kind == 1:
            nb = sample_pgw_tree(2.0, k + 1, int(rng.integers(1 << 30)))
        else:
            g = sample_config_model(8, 3, int(rng.integers(1 << 30)))
            nb = neighborhood(g, 0, k + 1, uniform_labels(rng, 8))
        assert apply_factor(f, nb) == lw_round_oracle(nb, p, k)


LW_PARAMS = [(0.02, 250), (0.3, 6), (0.05, 100), (0.5, 1)]
# host: (lazy trees per LW setting, fewer where the reference walk is slow)
LAZY_HOSTS = {
    "T3": (RegularTreeHost(3), 150), "T4": (RegularTreeHost(4), 150),
    "T5": (RegularTreeHost(5), 60), "T6": (RegularTreeHost(6), 40),
    "PGW3": (PGWTreeHost(3.0), 150), "PGW8": (PGWTreeHost(8.0), 4),
}


@pytest.mark.parametrize("p, k", LW_PARAMS)
@pytest.mark.parametrize("host, trees", LAZY_HOSTS.values(), ids=LAZY_HOSTS)
def test_lw_rule_matches_the_reference_on_lazy_trees(host, trees, p, k):
    f, ref = lauer_wormald(p, k), ref_lw_rule(p, k)
    for t in range(trees):
        tree = LazyTree(host, f.radius, trial_state(23, t))
        views = [TreeLabels(tree)]
        views += [TreeLabels(tree, copy=c, p=pi) for pi in (0.4, 1.0) for c in (1, 2, 3)]
        assert [f.rule(v) for v in views] == [ref(v) for v in views]


@pytest.mark.parametrize("p, k", LW_PARAMS)
def test_lw_rule_matches_the_reference_on_finite_views(p, k):
    """Eager trees, most cut below the factor's radius, and graph balls with
    cycles, loops and parallel edges: both rules evaluate the rounds exactly
    on any finite symmetric view, so they agree on each whatever its depth."""
    f, ref = lauer_wormald(p, k), ref_lw_rule(p, k)
    views = [sample_regular_tree(d, 7 - d, 100 * d + s) for d in (3, 4, 5) for s in range(30)]
    views += [sample_pgw_tree(lam, 4, s) for lam in (1.5, 3.0) for s in range(30)]
    rng = np.random.default_rng(29)
    multigraph = MultiGraph(
        6, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 2), (2, 3), (3, 4), (4, 5), (5, 3), (5, 5)]
    )
    graphs = [sample_config_model(8, 3, s) for s in range(40)]
    graphs += [sample_er(12, 3.0, s) for s in range(40)] + [multigraph] * 20
    for g in graphs:
        labels = uniform_labels(rng, g.n)
        views += [neighborhood(g, v, f.radius, labels) for v in range(g.n)]
    assert [f.rule(v) for v in views] == [ref(v) for v in views]


class _Recorder:
    """A rooted view that records the vertices whose neighbours the rule reads."""

    def __init__(self, view):
        self.view, self.root, self.expanded = view, view.root, set()

    def neighbors(self, v):
        self.expanded.add(v)
        return self.view.neighbors(v)

    def label(self, v):
        return self.view.label(v)

    def order_key(self, v):
        return self.view.order_key(v)


def test_lw_rule_never_expands_a_later_round_root_neighbour():
    p, k = 0.02, 250
    f, ref = lauer_wormald(p, k), ref_lw_rule(p, k)
    later = expanded = ref_expanded = 0
    for t in range(500):
        tree = LazyTree(RegularTreeHost(3), f.radius, trial_state(30, t))
        view = TreeLabels(tree)
        r0 = first_success_round(view.label(tree.root), p, k)
        out = [u for u in tree.neighbors(tree.root)
               if first_success_round(view.label(u), p, k) > r0]
        rec, ref_rec = _Recorder(view), _Recorder(view)
        assert f.rule(rec) == ref(ref_rec)
        later += len(out)
        expanded += sum(u in rec.expanded for u in out)
        ref_expanded += sum(u in ref_rec.expanded for u in out)
    assert later > 500 and ref_expanded > 100  # the recorder sees the reference's walk
    assert expanded == 0


def test_lw_monotone_in_rounds():
    # with common labels, more rounds can only add members
    base = None
    for k in (1, 2, 4, 8):
        est = estimate_tree_density(lauer_wormald(0.15, k), RegularTreeHost(3), 4000, seed=5)
        if base is not None:
            assert est.mean >= base - 1e-12
        base = est.mean


# ---------------------------------------------------------------------------
# closed-form limit
# ---------------------------------------------------------------------------


def test_beta_closed_forms():
    assert beta_formula(3).value == 0.375
    assert abs(beta_formula(4).value - 1.0 / 3.0) < 1e-15
    with pytest.raises(ValueError):
        beta_formula(2)


def test_beta_bracket_many_degrees():
    for d in range(3, 60):
        b = beta_formula(d)
        assert b.lower <= b.value <= b.upper


# ---------------------------------------------------------------------------
# invariance and locality
# ---------------------------------------------------------------------------


def test_id_permutation_invariance():
    rng = np.random.default_rng(31)
    f = lauer_wormald(0.3, 2)
    for _ in range(50):
        t = sample_regular_tree(3, 3, int(rng.integers(1 << 30)))
        bit = apply_factor(f, t)
        perm = np.concatenate([[0], 1 + rng.permutation(t.n - 1)])
        edges = sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in t.edges
        )
        labels = np.empty(t.n, dtype=np.uint64)
        labels[perm] = t.labels
        g = MultiGraph(t.n, edges)
        nb2 = neighborhood(g, 0, 3, labels)
        assert apply_factor(f, nb2) == bit


def _alter_beyond(g, labels, root, r, rng):
    """(g, labels) changed only beyond distance r of root: fresh labels at
    distance > r, a loop at each such vertex, and a pendant vertex on every
    vertex at distance exactly r."""
    ball = neighborhood(g, root, g.n, labels)
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[ball.source_vertices] = ball.depths
    far = np.flatnonzero((dist > r) | (dist < 0))
    rim = np.flatnonzero(dist == r)
    labels2 = np.asarray(labels, dtype=np.uint64).copy()
    labels2[far] = uniform_labels(rng, far.size)
    edges = list(g.edges) + [(int(u), int(u)) for u in far]
    edges += [(int(u), g.n + i) for i, u in enumerate(rim)]
    labels2 = np.concatenate([labels2, uniform_labels(rng, rim.size)])
    return MultiGraph(g.n + rim.size, sorted(edges)), labels2


def test_locality_labels_beyond_radius():
    # a factor of radius r never reads labels at distance > r
    rng = np.random.default_rng(37)
    f = lauer_wormald(0.3, 2)  # radius 3
    for _ in range(30):
        t = sample_regular_tree(3, 4, int(rng.integers(1 << 30)))
        bit = apply_factor(f, t)
        far = np.flatnonzero(t.depths == 4)
        labels = t.labels.copy()
        labels[far] = uniform_labels(rng, far.size)
        nb2 = t.with_labels(labels)
        assert apply_factor(f, nb2) == bit
    # nor structure: a ball generated deeper than r, with other labels and
    # edges beyond r, gives the bit of the same ball extracted at exactly r
    for f in (threshold_factor(), lauer_wormald(0.3, 2)):
        r = f.radius
        for host in ("regular", "pgw", "config"):
            for _ in range(10):
                seed = int(rng.integers(1 << 30))
                if host == "config":
                    g = sample_config_model(40, 3, seed)
                    labels = uniform_labels(rng, g.n)
                else:
                    sample = sample_regular_tree if host == "regular" else sample_pgw_tree
                    t = sample(3, r + 2, seed)
                    g, labels = MultiGraph(t.n, t.edges), t.labels
                g2, labels2 = _alter_beyond(g, labels, 0, r, rng)
                deep = neighborhood(g2, 0, r + 2, labels2)
                exact = neighborhood(g, 0, r, labels)
                assert deep.radius > f.radius == exact.radius
                assert apply_factor(f, deep) == apply_factor(f, exact), (host, f.kind)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_projection_on_tree_matches_direct():
    t = sample_regular_tree(3, 4, 21)
    g = MultiGraph(t.n, t.edges)
    labels = t.labels
    f = threshold_factor()
    sample = project_to_graph(f, g, labels)
    # deep vertices (2-neighbourhood inside the generated tree) match the rule
    for v in range(t.n):
        if t.depths[v] <= 2:
            nb = neighborhood(g, v, 1, labels)
            assert bool(sample.bits[v]) == bool(apply_factor(f, nb))


def test_projection_c4_all_zero():
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    labels = np.arange(4, dtype=np.uint64)
    sample = project_to_graph(threshold_factor(), g, labels)
    assert not sample.bits.any()


def test_projection_independent_on_multigraphs():
    rng = np.random.default_rng(41)
    f = threshold_factor()
    for _ in range(40):
        g = sample_config_model(16, 3, int(rng.integers(1 << 30)))
        sample = project_to_graph(f, g, uniform_labels(rng, 16))
        assert sample.violations() == []


def test_projection_breaks_label_ties_by_graph_vertex_id():
    # tied adjacent labels: both balls order the tie by the graph ids, so
    # the lower id wins and the output is an independent set
    f = threshold_factor()
    path = MultiGraph(3, [(0, 1), (1, 2)])
    tied = np.array([5, 5, 9], dtype=np.uint64)
    assert project_to_graph(f, path, tied).bits.tolist() == [1, 0, 0]
    rng = np.random.default_rng(49)
    for s in range(300):  # labels from {0, 1, 2}: ties on most graphs
        g = sample_config_model(30, 3, s)
        project_to_graph(f, g, rng.integers(0, 3, size=30).astype(np.uint64))


def test_projection_loop_vertex_never_member():
    g = MultiGraph(1, [(0, 0)])
    g2 = MultiGraph(3, [(0, 0), (0, 1), (1, 2)])
    labels = np.array([5, 1, 9], dtype=np.uint64)
    assert not project_to_graph(threshold_factor(), g, labels[:1]).bits.any()
    s = project_to_graph(threshold_factor(), g2, labels)
    assert not s.bits[0]


GRAPH_RULE_FACTORS = [
    threshold_factor(), constant_factor(0), lauer_wormald(0.3, 2), lauer_wormald(0.2, 3),
    lauer_wormald(0.5, 1), lauer_wormald(0.3, 6), lauer_wormald(0.02, 250),
]


def _rule_graphs():
    """Random multigraphs with loops, parallel edges and isolated vertices,
    and sampled configuration and Erdos-Renyi graphs."""
    rng = np.random.default_rng(53)
    out = [MultiGraph(6, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 2), (2, 3), (3, 4), (4, 5),
                          (5, 3), (5, 5)])]
    for _ in range(60):
        n = int(rng.integers(1, 10))
        out.append(MultiGraph(n, rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))))
    return out + [sample_config_model(120, 3, 5), sample_er(120, 3.0, 6),
                  sample_config_model(60, 4, 7)]


@pytest.mark.parametrize("f", GRAPH_RULE_FACTORS, ids=lambda f: f"{f.kind}{f.params}")
def test_graph_rule_equals_the_rule_on_every_ball(f):
    """At every vertex, tree-like ball or not, under labels with many ties
    (small integers), vertex-id labels and uniform labels."""
    rng = np.random.default_rng(54)
    for g in _rule_graphs():
        for labels in (rng.integers(0, 3, size=g.n), np.arange(g.n)[::-1],
                       uniform_labels(rng, g.n)):
            labels = labels.astype(np.uint64)
            ref = [apply_factor(f, neighborhood(g, v, f.radius, labels)) for v in range(g.n)]
            assert f.graph_rule(g, labels).tolist() == [bool(b) for b in ref], g.edges


GRAPH_BITS_FACTORS = [threshold_factor(), lauer_wormald(0.3, 2), lauer_wormald(0.3, 3),
                      constant_factor(0)]
GRAPH_BITS_IDS = ["thr", "lw", "lw3", "const0"]


def _bits_graphs() -> list:
    return [sample_config_model(400, 3, 8), sample_er(400, 3.0, 9), sample_config_model(30, 3, 10)]


@pytest.mark.parametrize("f", GRAPH_BITS_FACTORS, ids=GRAPH_BITS_IDS)
def test_graph_bits_equal_the_projection(f):
    """At every vertex, cold (g's first call), warm (other labels on the same
    g, its walked balls kept) and with threshold and LW(0.3, 2) calls, whose
    mask radii are 2 and 3, interleaved on the same g."""
    rng = np.random.default_rng(55)
    for g in _bits_graphs():
        for h in (f, f, threshold_factor(), lauer_wormald(0.3, 2), f):
            labels = uniform_labels(rng, g.n)
            ref = project_to_graph(h, g, labels).bits.tolist()
            assert graph_bits(h, g, labels).tolist() == ref, (h.kind, h.params)


def test_graph_bits_raise_the_projection_error():
    # const1 takes every vertex: adjacent tree-like vertices both join
    f = constant_factor(1)
    graphs = [MultiGraph(9, [(0, 1), (0, 1), (6, 7), (2, 3), (3, 4), (4, 4), (6, 8), (5, 6)])]
    graphs += [sample_config_model(30, 3, s) for s in range(5)] + [sample_er(40, 2.0, 1)]
    for g in graphs:
        labels = np.zeros(g.n, dtype=np.uint64)
        with pytest.raises(RuntimeError, match="adjacent members") as ref:
            project_to_graph(f, g, labels)
        for _ in ("cold", "warm"):
            with pytest.raises(RuntimeError) as got:
                graph_bits(f, g, labels)
            assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("f", GRAPH_BITS_FACTORS, ids=GRAPH_BITS_IDS)
def test_graph_bits_walk_the_mask_from_the_rule_members_alone(f, mask_walks):
    """graph_bits walks the tree-ball mask exactly from the rule's 1-bits
    that no earlier call on the same graph walked at the same radius."""

    def walk(h, g, labels) -> np.ndarray:
        """The vertices one graph_bits(h, g, labels) call walks, in order."""
        mask_walks.clear()
        graph_bits(h, g, labels)
        assert all(radius == h.radius + 1 and at is not None for _, radius, at in mask_walks)
        return np.concatenate([at for _, _, at in mask_walks] + [np.zeros(0, dtype=np.int64)])

    other = threshold_factor() if f.radius != 1 else lauer_wormald(0.3, 2)
    rng = np.random.default_rng(59)
    for g in _bits_graphs():
        first, second = uniform_labels(rng, g.n), uniform_labels(rng, g.n)
        on1, on2 = f.graph_rule(g, first), f.graph_rule(g, second)
        assert np.array_equal(walk(f, g, first), np.flatnonzero(on1))  # cold
        assert np.array_equal(walk(f, g, second), np.flatnonzero(on2 & ~on1))
        assert walk(f, g, second).size == walk(f, g, first).size == 0
        assert np.array_equal(walk(other, g, first), np.flatnonzero(other.graph_rule(g, first)))
        assert walk(f, g, first).size == 0


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


def test_projection_large_radius_degenerate():
    # every component of a 3-regular multigraph contains a cycle, so for a
    # factor radius beyond the component diameter every vertex has a non-tree
    # neighbourhood and the projection is empty: |I_G|/n = density * (1 - B/n)
    # holds with B = n
    g = sample_config_model(500, 3, 77)
    f = lauer_wormald(0.02, 250)
    rng = np.random.default_rng(78)
    sample = project_to_graph(f, g, uniform_labels(rng, 500))
    assert not sample.bits.any()
    assert non_tree_ball_mask(g, f.radius + 1).sum() == 500


def test_density_constant_zero():
    est = estimate_tree_density(constant_factor(0), RegularTreeHost(3), 100, seed=1)
    assert est == (0.0, 0.0, 100)


def test_density_threshold_symmetry():
    # the root is the minimum of d+1 exchangeable labels
    for d in (3, 5):
        est = estimate_tree_density(threshold_factor(), RegularTreeHost(d), 40_000, seed=2)
        target = 1.0 / (d + 1)
        assert_within_sigma(est.mean, target, est.stderr, context=f"threshold d={d}")


def test_density_threshold_pgw_closed_form():
    lam = 2.0
    est = estimate_tree_density(threshold_factor(), PGWTreeHost(lam), 40_000, seed=3)
    target = (1.0 - math.exp(-lam)) / lam  # E[1/(N+1)], N ~ Poisson(lam)
    assert_within_sigma(est.mean, target, est.stderr, context="threshold pgw")


def test_density_lw_below_limit():
    est = estimate_tree_density(lauer_wormald(0.02, 250), RegularTreeHost(3), 20_000, seed=4)
    assert est.mean < 0.375 + 3 * est.stderr
    assert est.mean > 0.3
    assert est.mean < 0.456  # known ceiling for any independent set density at d=3


def _scalar_density_rows(f, host, seed: int, trials: int) -> list:
    """The per-trial LazyTree/TreeLabels evaluation, kept as the reference."""
    return [
        [float(f.rule(TreeLabels(LazyTree(host, f.radius, trial_state(seed, t)))))]
        for t in range(trials)
    ]


@pytest.mark.parametrize(
    "host",
    [RegularTreeHost(d) for d in range(2, 7)] + [PGWTreeHost(0.5), PGWTreeHost(3.0)],
)
@pytest.mark.parametrize("f", [threshold_factor(), constant_factor(1), lauer_wormald(0.3, 2)])
def test_density_rows_match_the_lazy_tree_rows(host, f):
    rows = np.asarray(_tree_density_fn(f, host, 41)(0, 500), dtype=np.float64)
    assert rows.reshape(500, 1).tolist() == _scalar_density_rows(f, host, 41, 500)


# (host, LW(p, k), rows, reference rows): TreeBlock's level arrays against
# the per-trial walk on `rows` trees, and against ref_lw_rule, which also
# resolves every later-round root neighbour (4 s a tree on T20), on the first
# `reference rows` of them
LEVEL_GRID = {
    "T3": (RegularTreeHost(3), (0.02, 250), 300, 300),
    "T4": (RegularTreeHost(4), (0.02, 250), 200, 200),
    "T5": (RegularTreeHost(5), (0.02, 250), 150, 150),
    "PGW3": (PGWTreeHost(3.0), (0.02, 250), 300, 300),
    "T6-short": (RegularTreeHost(6), (0.3, 6), 200, 200),
    "PGW8": (PGWTreeHost(8.0), (0.05, 100), 40, 10),
    "T10": (RegularTreeHost(10), (0.02, 250), 12, 12),
    "T20": (RegularTreeHost(20), (0.01, 300), 24, 0),
    "T3-one-round": (RegularTreeHost(3), (0.5, 1), 300, 300),
    "T5-top-round": (RegularTreeHost(5), (0.5, 100), 200, 200),
    "PGW3-top-round": (PGWTreeHost(3.0), (0.5, 100), 200, 200),
    # p < 2^-64: round_bounds is [0], so every label has round 2, the
    # saturated top round; a root with a child is blocked, a leafless one joins
    "PGW-half-tiny-p": (PGWTreeHost(0.5), (1e-20, 3), 300, 300),
}


@pytest.mark.parametrize("host, pk, rows, ref_rows", LEVEL_GRID.values(), ids=LEVEL_GRID)
def test_level_arrays_match_the_lazy_tree_walk(host, pk, rows, ref_rows):
    f, ref = lauer_wormald(*pk), ref_lw_rule(*pk)
    states = trial_state_np(61, np.arange(rows))
    got = TreeBlock(f, host, states).bits(0).tolist()
    views = [TreeLabels(LazyTree(host, f.radius, s)) for s in states.tolist()]
    assert got == [bool(f.rule(v)) for v in views]
    assert got[:ref_rows] == [bool(ref(v)) for v in views[:ref_rows]]
    assert 0 < sum(got) < rows


@pytest.mark.parametrize("pi", [0.0, 0.4, 0.7, 1.0])
@pytest.mark.parametrize("host", [RegularTreeHost(3), PGWTreeHost(2.5), RegularTreeHost(4)])
def test_level_arrays_match_the_walk_on_coupled_copies(host, pi):
    f, rows = lauer_wormald(0.02, 250), 120
    states = trial_state_np(62, np.arange(rows))
    block = TreeBlock(f, host, states, pi)
    trees = [LazyTree(host, f.radius, s) for s in states.tolist()]
    walk = np.array([[f.rule(TreeLabels(t, copy=c, p=pi)) for t in trees] for c in range(5)])
    walk = walk.astype(bool)
    copies = np.arange(5, dtype=np.uint64)
    subset = np.array([7, 3, 3, 90, 0, 119, 41])
    for c in range(5):
        assert block.bits(c).tolist() == walk[c].tolist(), c
        assert block.bits(c, subset).tolist() == walk[c, subset].tolist(), c
    assert np.array_equal(block.bits(copies), walk)
    assert np.array_equal(block.bits(copies[[4, 1, 2]], subset), walk[[4, 1, 2]][:, subset])
    assert np.array_equal(block.bits(copies[2:3], subset[:0]), walk[2:3, :0])


@pytest.mark.parametrize("pi", [0.0, 0.7])
@pytest.mark.parametrize(
    "host, rows",
    [(RegularTreeHost(3), 120), (PGWTreeHost(3.0), 120), (RegularTreeHost(10), 12)],
    ids=["T3", "PGW3", "T10"],
)
def test_level_arrays_in_many_passes_match_one_pass(monkeypatch, host, rows, pi):
    # LEVEL_ROOTS at 5: each rule call runs its roots through the levels
    # five at a time, copies 0..4 of a row in different passes
    f = lauer_wormald(0.02, 250)
    states = trial_state_np(64, np.arange(rows))
    block = TreeBlock(f, host, states, pi)
    copies = np.arange(5, dtype=np.uint64)
    whole = block.bits(copies)
    trees = [LazyTree(host, f.radius, s) for s in states.tolist()]
    walk = np.array([[f.rule(TreeLabels(t, copy=c, p=pi)) for t in trees] for c in range(5)])
    monkeypatch.setattr(factors, "LEVEL_ROOTS", 5)
    assert np.array_equal(block.bits(copies), whole)
    assert [block.bits(c).tolist() for c in range(5)] == whole.tolist()
    assert np.array_equal(whole, walk.astype(bool))
    assert 0 < whole.sum() < whole.size


# the nodes expanded per child_states call (the roots of round at most k,
# then each level's frontier) by TreeBlock's copy-0 bits on LEVEL_GRID rows
# at seed 61; the deeper entries recorded from the resolver that compacted
# its levels after each step
LEVEL_SIZES = {
    "T3": [298, 432, 137, 37, 4, 1],
    "T5": [149, 352, 236, 115, 16],
    "PGW3": [298, 441, 160, 29, 5, 1],
    "T6-short": [174, 44, 6, 5],
}

# source mutants of factors._joins (conftest.apply_mutant): nodes resolved
# earlier pass their outcomes up again; the frontier drops only the kids of
# its own resolved nodes, not those under a resolved ancestor (the bits
# stay, only more nodes are expanded); the kept children take the parent's
# round too
RESOLVER_MUTANTS = {
    "repropagate": [
        ("factors", "_joins", "up[j][fresh[-1]]", "up[j][done[j]]"),
        ("factors", "_joins", "joined[j][fresh[-1]]", "joined[j][done[j]]"),
    ],
    "parent_only": [("factors", "_joins", "~(join | gone[parent])",
                     "~(join | done[depth][parent])")],
    "cut_off_by_one": [("factors", "_joins", "bounds.take(cap - 2", "bounds.take(cap - 1")],
}


def level_runs(monkeypatch, mutant) -> dict:
    """Per LEVEL_SIZES row, (sizes, bits): the nodes each child_states call
    of TreeBlock's copy-0 bits expands, and the bits, under the mutant."""
    sizes, real = [], factors.child_states

    def spy(host, depth, states):
        sizes.append(states.size)
        return real(host, depth, states)

    monkeypatch.setattr(factors, "child_states", spy)  # before the mutant copies the module
    apply_mutant(monkeypatch, RESOLVER_MUTANTS, mutant)
    runs = {}
    for name in LEVEL_SIZES:
        host, pk, rows, _ = LEVEL_GRID[name]
        sizes.clear()
        bits = TreeBlock(lauer_wormald(*pk), host, trial_state_np(61, np.arange(rows))).bits(0)
        runs[name] = (sizes.copy(), bits.tolist())
    return runs


@pytest.mark.parametrize("mutant", [None, *RESOLVER_MUTANTS])
def test_level_arrays_expand_the_recorded_nodes(monkeypatch, mutant):
    sizes = {name: run[0] for name, run in level_runs(monkeypatch, mutant).items()}
    assert (sizes == LEVEL_SIZES) == (mutant is None), sizes


@pytest.mark.parametrize("mutant", [None, *RESOLVER_MUTANTS])
def test_resolver_mutants_but_the_frontier_one_change_the_bits(monkeypatch, mutant):
    bits = {name: run[1] for name, run in level_runs(monkeypatch, None).items()}
    monkeypatch.undo()
    same = {name: run[1] for name, run in level_runs(monkeypatch, mutant).items()} == bits
    assert same == (mutant in (None, "parent_only"))


# source mutants of the flat tree rules (conftest.apply_mutant): a tie on
# the label no longer goes to the smaller state; the root keeps only its
# children of lower round, not those of its own; each root reads the next
# root's children; a root of the saturated top round keeps its children
# by the last bound, which no top-round child is below
FLAT_MUTANTS = {
    "tie_strict": [("factors", "_threshold_bits", "(kids <= roots[parent])",
                    "(kids < roots[parent])")],
    "root_below_own_round": [("factors", "_lw_levels", "top[at] + 1", "top[at]")],
    "segment_shifted": [("factors", "_threshold_bits", "np.arange(roots.size + 1)",
                         "np.arange(1, roots.size + 2)")],
    "top_round_cut": [("factors", "_joins", "(labels < cut[parent]) | every[parent]",
                       "labels < cut[parent]")],
}
# the checks run on every flat mutant, and the ones each mutant fails (ties
# have probability 2^-64 on sampled trees, so only the hand-built stars see
# tie_strict)
FLAT_CHECKS = {
    "hand-built stars": test_threshold_star_rule_matches_the_rule_on_hand_built_stars,
    "threshold rows": lambda: test_density_rows_match_the_lazy_tree_rows(
        PGWTreeHost(3.0), threshold_factor()),
    "level walk": lambda: [test_level_arrays_match_the_lazy_tree_walk(*LEVEL_GRID[name])
                           for name in ("T3-one-round", "T3", "PGW-half-tiny-p")],
}
FLAT_KILLS = {
    None: set(),
    "tie_strict": {"hand-built stars"},
    "root_below_own_round": {"level walk"},
    "segment_shifted": {"hand-built stars", "threshold rows"},
    "top_round_cut": {"level walk"},
}


@pytest.mark.parametrize("mutant", [None, *FLAT_MUTANTS])
def test_flat_rule_checks_kill_the_mutants(monkeypatch, mutant):
    apply_mutant(monkeypatch, FLAT_MUTANTS, mutant)
    failed = set()
    for name, check in FLAT_CHECKS.items():
        try:
            check()
        except AssertionError:
            failed.add(name)
    assert failed == FLAT_KILLS[mutant]


def in_limited_child(fn, headroom: int):
    """fn() run in a forked child whose address space may grow by
    `headroom` bytes over its size at the fork (RLIMIT_AS, set in the child
    alone), so a call that allocates without bound fails there at once: its
    result, or the exception it raised, here."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns
        try:
            os.close(read)
            try:
                with open("/proc/self/statm") as statm:
                    size = int(statm.read().split()[0]) * resource.getpagesize()
                hard = resource.getrlimit(resource.RLIMIT_AS)[1]
                soft = size + headroom
                resource.setrlimit(resource.RLIMIT_AS, (
                    soft if hard == resource.RLIM_INFINITY else min(soft, hard), hard))
                out = True, fn()
            except BaseException as exc:
                out = False, exc
            with os.fdopen(write, "wb") as pipe:
                pickle.dump(out, pipe)
        finally:
            os._exit(0)
    os.close(write)
    try:
        with os.fdopen(read, "rb") as pipe:
            ok, out = pickle.load(pipe)
    finally:
        os.waitpid(pid, 0)
    if not ok:
        raise out
    return out


def traced_level_call() -> tuple:
    """(bits, traced peak) of the most pairs one rule call takes,
    PASS_PAIRS = 16384, on T20."""
    f, rows = lauer_wormald(0.01, 300), 16
    block = TreeBlock(f, RegularTreeHost(20), trial_state_np(63, np.arange(rows)), 0.5)
    copies = np.arange(1, PASS_PAIRS // rows + 1, dtype=np.uint64)
    round_bounds(0.01, 300)
    tracemalloc.start()
    try:
        return block.bits(copies), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# address space the level call may add in its child, where it adds about 25 MiB
LEVEL_CALL_HEADROOM = 128 << 20


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads the process size")
def test_one_level_call_holds_bounded_memory():
    """LEVEL_ROOTS bounds the nodes in flight.  This call traces 20 MiB; one
    pass over all its roots at once traces 264 MiB.  It runs in a child
    that may add LEVEL_CALL_HEADROOM of address space, so a call that stops
    pruning fails fast instead of allocating first."""
    bits, peak = in_limited_child(traced_level_call, LEVEL_CALL_HEADROOM)
    assert bits.shape == (PASS_PAIRS // 16, 16)
    assert 0 < bits.mean() < 0.3
    assert peak < 64 * 2**20, f"{peak / 2**20:.1f} MiB"


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads the process size")
def test_one_level_call_limit_stops_the_frontier_mutant(monkeypatch):
    # parent_only keeps every joined node in the frontier: its child hits
    # the address-space limit at once
    apply_mutant(monkeypatch, RESOLVER_MUTANTS, "parent_only")
    with pytest.raises(MemoryError):
        in_limited_child(traced_level_call, LEVEL_CALL_HEADROOM)


def test_density_workers_deterministic():
    f = lauer_wormald(0.1, 3)
    a = estimate_tree_density(f, RegularTreeHost(3), 2000, seed=9, workers=1)
    b = estimate_tree_density(f, RegularTreeHost(3), 2000, seed=9, workers=4)
    assert a == b
