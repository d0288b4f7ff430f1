import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from localis import parallel, pgw_transfer
from localis.factors import constant_factor, lauer_wormald, threshold_factor
from localis.graphs import (
    LazyTree,
    RegularTreeHost,
    RootedNeighborhood,
    TreeLabels,
    sample_pgw_tree,
    sample_regular_tree,
)
from localis.parallel import mean_stderr
from localis.pgw_transfer import (
    TREE_RADIUS,
    FilledForest,
    _AttachNode,
    _star_marks,
    edge_removal_stage,
    event_E_lower_bound,
    event_E_probability,
    event_K_probability,
    filling_out_stage,
    inclusion_stage,
    poisson_cdf,
    poisson_tail,
    poisson_tail_bound,
    schedule_tail_bound,
    transfer_block,
    transfer_density,
    transfer_trace,
)
from localis.rng import CHILD_TAG, POISSON_LAM_MAX, fold, trial_state, trial_state_np

from conftest import apply_mutant, assert_within_sigma, binomial_se, event_E_monte_carlo


def make_tree(parents, labels, radius):
    # BFS-ordered parents: edge w-1 joins parents[w] to w
    n = len(parents)
    depths = np.zeros(n, dtype=np.int64)
    adj = [[] for _ in range(n)]
    for v in range(1, n):
        depths[v] = depths[parents[v]] + 1
        adj[parents[v]].append(v)
        adj[v].append(parents[v])
    return RootedNeighborhood(adj, np.asarray(labels, dtype=np.uint64), radius, depths)


# ---------------------------------------------------------------------------
# edge removal
# ---------------------------------------------------------------------------


def test_removal_no_excess_degree():
    t = sample_regular_tree(3, 3, 1)
    removed = edge_removal_stage(t, t.labels, 3)
    assert not removed.any()


def test_removal_root_with_excess_children():
    # root with d+2 = 5 children: exactly the 2 highest-label edges go
    labels = [10, 50, 90, 20, 70, 30]
    t = make_tree([-1, 0, 0, 0, 0, 0], labels, radius=2)
    removed = edge_removal_stage(t, t.labels, 3)
    assert removed.sum() == 2
    assert removed[1] and removed[3]  # children with labels 90 and 70


def test_removal_star_single_excess():
    # center degree d+1, leaves degree 1: exactly one removal, chosen by label
    labels = [10, 40, 80, 30, 60]
    t = make_tree([-1, 0, 0, 0, 0], labels, radius=2)
    removed = edge_removal_stage(t, t.labels, 3)
    assert removed.sum() == 1
    assert removed[1]  # leaf with label 80


def test_removal_marked_by_either_endpoint():
    # a path 0 - 1 with 1 having many children: vertex 1 marks its parent edge
    # when the root's label ranks among its highest
    labels = [95, 10, 20, 30, 40, 25]
    t = make_tree([-1, 0, 1, 1, 1, 1], labels, radius=3)
    removed = edge_removal_stage(t, t.labels, 3)
    # vertex 1 has degree 5 > 3: marks the 2 highest-label neighbours,
    # which are the root (95) and the child with label 40
    assert removed[0] and removed[3]
    assert removed.sum() == 2


def test_removal_caps_degrees():
    rng = np.random.default_rng(2)
    for _ in range(30):
        t = sample_pgw_tree(6.0, 3, int(rng.integers(1 << 30)))
        removed = edge_removal_stage(t, t.labels, 4)
        surv = np.zeros(t.n)
        for w in range(1, t.n):
            if not removed[w - 1]:
                surv[w] += 1
                surv[t.edges[w - 1][0]] += 1
        assert np.all(surv[t.depths < t.radius] <= 4)


# ---------------------------------------------------------------------------
# filling out
# ---------------------------------------------------------------------------


def test_fill_regular_tree_unchanged():
    t = sample_regular_tree(3, 2, 3)
    forest = filling_out_stage(t, np.zeros(t.n - 1, dtype=bool), 3, 12345)
    view = forest.ball_view(0, 2)
    assert view.n == t.n  # same ball as the original tree
    assert view.edges == t.edges


class EagerForest(FilledForest):
    """Reference: the filled forest built eagerly, with the surviving
    adjacency, deficiency and position state of every vertex computed up
    front, top-down: a component top's state from y_state and its id, a
    surviving child's from its parent's and its rank among the parent's
    surviving children, its attachments' slots after them."""

    def __init__(self, tree, removed, d, y_state):
        super().__init__(tree, removed, d, y_state)
        cut = set(np.flatnonzero(self.removed).tolist())
        self.surviving_adj = [
            [w for w in nbrs if max(v, w) - 1 not in cut]
            for v, nbrs in enumerate(tree.adj)
        ]
        self.deficiency = np.array(
            [d - len(nbrs) for nbrs in self.surviving_adj], dtype=np.int64
        )
        self.kids = [sorted(w for w in nbrs if w > v) for v, nbrs in enumerate(self.surviving_adj)]
        self.states = [fold(fold(y_state, 0xA77), v) for v in range(tree.n)]
        for v, kids in enumerate(self.kids):  # BFS ids: a parent before its children
            for slot, w in enumerate(kids):
                self.states[w] = fold(self.states[v], CHILD_TAG + slot)

    def state(self, handle):
        return self.states[handle] if isinstance(handle, int) else handle.state

    def _neighbors(self, handle):
        if not isinstance(handle, int):
            return super()._neighbors(handle)
        attach = [
            _AttachNode(fold(self.states[handle], CHILD_TAG + len(self.kids[handle]) + s), handle)
            for s in range(int(self.deficiency[handle]))
        ]
        return list(self.surviving_adj[handle]) + attach


def _assert_same_ball(forest, reference, v, r):
    got, want = forest.ball_view(v, r), reference.ball_view(v, r)
    assert (got.n, got.edges, got.radius) == (want.n, want.edges, want.radius)
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.source_vertices, want.source_vertices)  # the order keys
    assert np.array_equal(got.depths, want.depths)


@pytest.mark.parametrize("lam,d", [(3.0, 4), (6.0, 5)])
def test_ball_view_matches_the_eager_forest_on_removal_masks(lam, d):
    rng = np.random.default_rng(31)
    for _ in range(15):
        t = sample_pgw_tree(lam, 4, int(rng.integers(1 << 30)))
        removed = edge_removal_stage(t, t.labels, d)
        y_state = int(rng.integers(1 << 62))
        forest = filling_out_stage(t, removed, d, y_state)
        reference = EagerForest(t, removed, d, y_state)
        for v in [0] + t.adj[0]:
            for r in (0, 1, 2):
                _assert_same_ball(forest, reference, v, r)


def test_ball_view_matches_the_eager_forest_on_random_masks():
    rng = np.random.default_rng(32)
    for _ in range(30):
        t = sample_pgw_tree(4.0, 4, int(rng.integers(1 << 30)))
        removed = rng.random(t.n - 1) < rng.choice([0.1, 0.5, 0.9])
        # d at least every surviving degree, so every ball is fillable
        d = max(2, max(len(nbrs) for nbrs in EagerForest(t, removed, 0, 0).surviving_adj))
        y_state = int(rng.integers(1 << 62))
        forest = filling_out_stage(t, removed, d, y_state)
        reference = EagerForest(t, removed, d, y_state)
        for v in [0] + t.adj[0]:
            for r in (0, 1, 2):
                _assert_same_ball(forest, reference, v, r)


def test_fill_rejects_an_interior_vertex_above_d():
    # a star with 5 children cannot be filled to degree 3 without removals
    t = make_tree([-1, 0, 0, 0, 0, 0], [1, 2, 3, 4, 5, 6], radius=1)
    with pytest.raises(AssertionError):
        forest = filling_out_stage(t, np.zeros(t.n - 1, dtype=bool), 3, 5)
        forest.ball_view(0, 1)


def test_fill_isolated_root_matches_regular_counts():
    # a bare root gains d pendant (d-1)-ary trees: the radius-r ball has
    # exactly as many vertices as the d-regular tree ball
    t = make_tree([-1], [7], radius=0)
    forest = filling_out_stage(t, np.zeros(0, dtype=bool), 3, 99)
    for r in (1, 2, 3):
        view = forest.ball_view(0, r)
        expected = sample_regular_tree(3, r, 0).n
        assert view.n == expected


def test_fill_components_independent():
    # removing the only edge of a 2-vertex tree fills both sides separately
    t = make_tree([-1, 0], [5, 9], radius=1)
    forest = filling_out_stage(t, np.array([True]), 3, 7)
    view = forest.ball_view(0, 1)
    label_1 = forest.ball_view(1, 0).label(0)
    # the removed edge never reappears: vertex 1 is not a neighbour of the root
    assert label_1 not in [view.label(w) for w in view.neighbors(0)]
    assert len(view.neighbors(0)) == 3


def test_fill_labels_fresh():
    t = sample_regular_tree(3, 2, 4)
    forest = filling_out_stage(t, np.zeros(t.n - 1, dtype=bool), 3, 11)
    view = forest.ball_view(0, 2)
    original = set(int(x) for x in t.labels)
    assert all(int(lbl) not in original for lbl in view.labels)


# ---------------------------------------------------------------------------
# inclusion
# ---------------------------------------------------------------------------


def test_inclusion_no_removals_keeps_membership():
    rng = np.random.default_rng(5)
    f = threshold_factor()
    for _ in range(20):
        trace = transfer_trace(f, 1.0, 8, int(rng.integers(1 << 30)))
        if not trace.root_removed.any():
            assert trace.j[0] == trace.iprime[0]


def test_inclusion_root_incident_removal_forces_zero():
    # constant-1 factor: membership is certain, so J at the root is exactly
    # the no-incident-removal indicator
    f = constant_factor(1)
    rng = np.random.default_rng(6)
    seen_removed = False
    for _ in range(200):
        trace = transfer_trace(f, 6.0, 3, int(rng.integers(1 << 30)))
        assert trace.iprime[0] == 1
        root_removed = bool(trace.root_removed.any())
        assert trace.j[0] == (0 if root_removed else 1)
        seen_removed = seen_removed or root_removed
    assert seen_removed


def test_inclusion_removed_edge_drops_both_endpoints():
    # adversarial: with the constant-1 factor both endpoints of any removed
    # edge are members of the unrestricted set, and neither may enter J
    labels = [10, 50, 90, 20, 70, 30]
    t = make_tree([-1, 0, 0, 0, 0, 0], labels, radius=2)
    removed = edge_removal_stage(t, t.labels, 3)
    assert removed[1]
    forest = filling_out_stage(t, removed, 3, 13)
    f = constant_factor(1)
    assert inclusion_stage(f, forest, 0)[1] == 0
    assert inclusion_stage(f, forest, 2)[1] == 0  # the removed child (label 90)


def test_j_independent_within_window():
    # J never contains an adjacent pair where both bits are exact:
    # depth(v) + radius + 1 <= generated radius
    f = threshold_factor()
    window = 2
    rng = np.random.default_rng(7)
    adjacent_in_j = 0
    for _ in range(150):
        seed = int(rng.integers(1 << 30))
        tree = sample_pgw_tree(5.0, f.radius + window + 1, seed)
        removed = edge_removal_stage(tree, tree.labels, 6)
        forest = filling_out_stage(tree, removed, 6, seed ^ 0xFF)
        bits = {
            v: inclusion_stage(f, forest, v)[1]
            for v in range(tree.n)
            if tree.depths[v] <= window
        }
        for w in range(1, tree.n):
            u = tree.edges[w - 1][0]
            if w in bits and u in bits and bits[w] and bits[u]:
                adjacent_in_j += 1
    assert adjacent_in_j == 0


# ---------------------------------------------------------------------------
# equality gate: the block of root stars against the per-node stages
# ---------------------------------------------------------------------------


def stage_trace(f, lam, d, state):
    """The per-node stages at the root, the reference transfer_block equals:
    (tree, removed, I', J, event_ok)."""
    tree = sample_pgw_tree(lam, TREE_RADIUS, fold(state, 1))
    removed = edge_removal_stage(tree, tree.labels, d)
    forest = filling_out_stage(tree, removed, d, fold(state, 2))
    iprime, j = inclusion_stage(f, forest)
    event_ok = all(len(tree.adj[w]) <= d for w in [0] + tree.adj[0])
    return tree, removed, iprime, j, event_ok


def tree_of(kids, labels, radius):
    """The per-node tree of child counts: kids of every vertex at depth < radius."""
    return make_tree([-1] + np.repeat(np.arange(len(kids)), kids).tolist(), labels, radius)


GATE_FACTORS = {
    "threshold": threshold_factor(),
    "lw1": lauer_wormald(0.3, 1),
    "lw2": lauer_wormald(0.3, 2),
    "const1": constant_factor(1),
}
GATE_GRID = [(1.0, 8), (3.0, 3), (6.0, 3), (6.0, 5), (20.0, 28), (50.0, 60)]
# trials per (factor, lam): the per-node root ball of radius r = f.radius
# has 1 + d + ... + d (d-1)^(r-1) vertices, so the radius-2 and radius-3
# references take few trials at d >= 28: LW(0.3, 2) at d = 60 builds 212 461
# per-node vertices a trial (about 0.5 s)
GATE_TRIALS = {("lw1", 20.0): 4, ("lw1", 50.0): 1, ("lw2", 20.0): 1, ("lw2", 50.0): 1}


def assert_trials_equal_the_stages(name, lam, d):
    # the pinned trials as one transfer_block, and one by one through transfer_trace
    f = GATE_FACTORS[name]
    states = [trial_state(int(lam) * 1000 + d, t) for t in range(GATE_TRIALS.get((name, lam), 20))]
    block = pgw_transfer.transfer_block(f, lam, d, states)  # as a mutant binds it
    cut = np.cumsum(block.root_kids)[:-1]
    seen = set()
    for state, iprime, j, event_ok, root_removed in zip(
        states, block.iprime, block.j, block.event_ok, np.split(block.root_removed, cut)
    ):
        tree, removed, *want = stage_trace(f, lam, d, state)
        assert (iprime, j, event_ok) == tuple(want)
        assert np.array_equal(root_removed, removed[:len(tree.adj[0])])  # edges to ids 1..kids[0]
        trace = transfer_trace(f, lam, d, state)
        assert (trace.iprime[0], trace.j[0], trace.event_ok[0]) == tuple(want)
        assert np.array_equal(trace.root_removed, root_removed)
        seen.update({"childless root"} if not tree.adj[0] else set())
        seen.update({"dies before radius 2"} if tree.depths.max() < 2 else set())
        seen.update({"none above d"} if max(map(len, tree.adj)) <= d else set())
    if lam == 1.0:
        assert seen == {"childless root", "dies before radius 2", "none above d"}


@pytest.mark.parametrize("name,lam,d", [
    (name, lam, d) for name in sorted(GATE_FACTORS) for lam, d in GATE_GRID
])
def test_transfer_trace_equals_the_per_node_stages(name, lam, d):
    assert_trials_equal_the_stages(name, lam, d)


HAND_BUILT = {
    # (kids, labels, d) of a radius-2 tree: the root's child count, then its
    # children's, and every vertex's label, by BFS id
    # all labels tied: the root marks its two highest ids
    "tied_root": ([5, 0, 0, 0, 0, 0], [7] * 6, 3),
    # a child of degree 6 ties its parent's label with two children, which
    # outrank the parent by id: the parent is third, so the root edge goes
    "tied_inner": ([1, 5], [9, 3, 9, 1, 9, 2, 0], 3),
    "childless_root": ([0], [5], 3),
    # the root (degree 6) marks children 2 and 4, and child 3 (degree 6) its
    # root edge, with one child label above the root's
    "root_above_d": ([6, 2, 0, 5, 0, 0, 1], [4, 1, 8, 3, 8, 2, 6] + [5, 0, 3, 0, 1, 9, 2, 3], 4),
    # a child of degree 5 ties its parent's label with two children, which
    # outrank the parent by id: the parent is fourth, so the root edge survives
    "tied_rim": ([1, 4], [5, 3, 5, 5, 1, 9], 3),
}


class GivenDraws:
    """A generator that draws a given radius-2 tree: the root's child count,
    its children's, then all the labels, as _root_star asks for them."""

    def __init__(self, kids, labels):
        self.counts = [np.asarray(kids[:1]), np.asarray(kids[1:])]
        self.labels = np.asarray(labels, dtype=np.uint64)
        self.bit_generator = self

    def poisson(self, lam, size):
        assert self.counts[0].size == size
        return self.counts.pop(0)

    def random_raw(self, n):
        assert n == self.labels.size
        return self.labels


def stacked_stars(trees, d):
    """The root stars of radius-2 trees (kids, labels), as transfer_block
    stacks them."""
    stars = [pgw_transfer._root_star(1.0, GivenDraws(kids, labels), d) for kids, labels in trees]
    return [np.concatenate(part) for part in zip(*stars)]


def lazy_ball(d, radius, state):
    """(adjacency, labels, order keys) of LazyTree(RegularTreeHost(d),
    radius, state) read through TreeLabels, by BFS id."""
    view = TreeLabels(LazyTree(RegularTreeHost(d), radius, state))
    nodes, adj = [view.root], [[]]
    for i, node in enumerate(nodes):
        for kid in view.tree.children(node):
            adj[i].append(len(nodes))
            adj.append([i])
            nodes.append(kid)
    return adj, [view.label(v) for v in nodes], [view.order_key(v) for v in nodes]


def assert_block_equals_the_stages(trees, d):
    """A block of radius-2 trees (kids, labels) against the per-node stages:
    the block's marks of the root edges against edge_removal_stage's, and
    each root's filled ball of radius 0..3 against the lazy d-regular tree
    of the root's state, shape, labels and order keys."""
    removed = pgw_transfer._star_marks(*stacked_stars(trees, d), d)  # as a mutant binds it
    cut = np.cumsum([kids[0] for kids, _ in trees])[:-1]
    for (kids, labels), got in zip(trees, np.split(removed, cut)):
        tree = tree_of(kids, labels, TREE_RADIUS)
        assert np.array_equal(got, edge_removal_stage(tree, tree.labels, d)[: kids[0]])
    for (kids, labels), y in zip(trees, trial_state_np(d, np.arange(len(trees))).tolist()):
        tree = tree_of(kids, labels, TREE_RADIUS)
        forest = filling_out_stage(tree, edge_removal_stage(tree, tree.labels, d), d, y)
        for r in range(4):
            ball = forest.ball_view(0, r)
            got = ball.adj, ball.labels.tolist(), ball.source_vertices.tolist()
            assert got == lazy_ball(d, r, fold(fold(y, 0xA77), 0))


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_level_arrays_equal_the_stages_on_hand_built_trees(name):
    # in one block with the other hand-built trees of its d, first and last
    kids, labels, d = HAND_BUILT[name]
    others = [(k, x) for other, (k, x, dd) in HAND_BUILT.items() if dd == d and other != name]
    assert_block_equals_the_stages([(kids, labels)] + others, d)
    assert_block_equals_the_stages(others + [(kids, labels)], d)


def test_hand_built_marks():
    def marks(name):
        kids, labels, d = HAND_BUILT[name]
        # the children whose root edge is marked, by vertex id
        return (np.flatnonzero(_star_marks(*stacked_stars([(kids, labels)], d), d)) + 1).tolist()

    assert marks("tied_root") == [4, 5]
    assert marks("tied_inner") == [1]
    assert marks("root_above_d") == [2, 3, 4]
    assert marks("tied_rim") == []
    assert marks("childless_root") == []


def test_level_arrays_equal_the_stages_on_tied_random_trees():
    # labels from {0, 1, 2}: most rankings meet ties, broken by vertex id;
    # blocks of 1 to 6 trees
    rng = np.random.default_rng(41)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        trees = []
        for _ in range(int(rng.integers(1, 7))):
            root = rng.poisson(2.5, size=1)
            kids = np.concatenate([root, rng.poisson(2.5, size=int(root[0]))])
            trees.append((kids, rng.integers(0, 3, size=1 + int(kids.sum()))))
        assert_block_equals_the_stages(trees, d)


@pytest.mark.parametrize("f,lam,d", [
    (threshold_factor(), 6.0, 5), (lauer_wormald(0.3, 2), 6.0, 5),
    (lauer_wormald(0.3, 1), 20.0, 28),
])
def test_transfer_block_rows_do_not_depend_on_the_cut(f, lam, d):
    states = trial_state_np(21, np.arange(40))
    whole = transfer_block(f, lam, d, states)
    for step in (1, 7):
        parts = [transfer_block(f, lam, d, states[lo : lo + step]) for lo in range(0, 40, step)]
        for got, want in zip(zip(*parts), whole):
            assert np.array_equal(np.concatenate(got), want)


def test_transfer_density_does_not_depend_on_the_run_block(monkeypatch):
    def report():
        return transfer_density(threshold_factor(), 6.0, 5, 30, seed=3)

    whole = report()
    for block in (1, 7):
        monkeypatch.setattr(parallel, "BLOCK", block)
        assert report() == whole


def test_transfer_memory_is_bounded_by_the_run_blocks():
    # run_trials hands the transfer blocks of at most BLOCK trials, so four
    # times the trials must not raise the peak of traced allocations
    f = threshold_factor()

    def peak(trials):
        tracemalloc.start()
        try:
            transfer_density(f, 50.0, 60, trials, seed=5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert parallel.BLOCK == 1024
    assert peak(4096) <= 1.25 * peak(1024)


def test_transfer_block_guards_the_root_degree(monkeypatch):
    # the root is the one vertex all of whose marks a block computes; with
    # its own marks dropped, a root above d keeps more than d edges
    states = trial_state_np(22, np.arange(40))
    assert (transfer_block(threshold_factor(), 6.0, 3, states).root_kids > 3).any()
    apply_mutant(monkeypatch, TRANSFER_MUTANTS, "no_root_marks")
    with pytest.raises(AssertionError, match="not 3-regular at depth 0"):
        pgw_transfer.transfer_block(threshold_factor(), 6.0, 3, states)


# ---------------------------------------------------------------------------
# law gate: the transfer's random streams by their laws
# ---------------------------------------------------------------------------
#
# z-tests fail beyond Z_FAIL = 4.75 standard errors, a two-sided nominal
# false-alarm rate of ALPHA = erfc(4.75 / sqrt 2) = 2.0e-6 each by the
# normal limit, and the exact binomial tests at level ALPHA.

Z_FAIL = 4.75
ALPHA = math.erfc(Z_FAIL / math.sqrt(2.0))
LAW_GRID = [(3.0, 3), (20.0, 28), (50.0, 60)]
LAW_TRIALS = 10_000


def law_block(name, lam, d):
    states = trial_state_np(36, np.arange(LAW_TRIALS))
    return pgw_transfer.transfer_block(GATE_FACTORS[name], lam, d, states)  # as a mutant binds it


def assert_paired_mean_zero(block, lam, d):
    """J = I' and K, with I' independent of K, so the per-trial statistic
    J - P(K) I' has mean 0, P(K) exact (event_K_probability)."""
    mean, se = mean_stderr(block.j - event_K_probability(lam, d) * block.iprime)
    assert abs(mean) <= Z_FAIL * se, (mean, se)


def assert_threshold_density_i(block, d):
    """The threshold factor's I' is 1 with probability 1/(d+1): the root's
    filled ball is a d-regular tree ball."""
    count = int(block.iprime.sum())
    assert stats.binomtest(count, block.iprime.size, 1.0 / (d + 1)).pvalue >= ALPHA, count


@pytest.mark.parametrize("name,lam,d", [
    (name, lam, d) for name in ("const1", "lw2", "threshold") for lam, d in LAW_GRID
])
def test_transfer_J_minus_P_K_times_Iprime_has_mean_zero(name, lam, d):
    assert_paired_mean_zero(law_block(name, lam, d), lam, d)


@pytest.mark.parametrize("lam,d", LAW_GRID)
def test_transfer_threshold_density_i_is_exact(lam, d):
    assert_threshold_density_i(law_block("threshold", lam, d), d)


# source mutants of the transfer (conftest.apply_mutant): J taken as I' and
# the degree event in place of K; the children's root-edge rule
# inverted; a surviving child one slot further on in the filled forest; I'
# read on T_(d+1); the root's own marks dropped
TRANSFER_MUTANTS = {
    "j_is_event": [("pgw_transfer", "transfer_block", "iprime & ~cut",
                    "iprime & (root_kids <= d) & ~over")],
    "rim_inverted": [("pgw_transfer", "_star_marks", "higher < kids[above] + 1 - d",
                      "higher >= kids[above] + 1 - d")],
    "slot_off_by_one": [("pgw_transfer.FilledForest", "state", ".index(v))", ".index(v) + 1)")],
    "wrong_degree": [("pgw_transfer", "transfer_block", "RegularTreeHost(d), tops",
                      "RegularTreeHost(d + 1), tops")],
    "no_root_marks": [("pgw_transfer", "_star_marks", "big = root_kids > d", "big = root_kids < 0")],
}

# the transfer's gates, each run on every mutant: the hand-built equality
# gate, the per-node stages at (6, 5), and the law gate at (3, 3)
MUTANT_CHECKS = {
    "hand-built": lambda: [test_level_arrays_equal_the_stages_on_hand_built_trees(name)
                           for name in HAND_BUILT],
    "stages threshold": lambda: assert_trials_equal_the_stages("threshold", 6.0, 5),
    "stages const1": lambda: assert_trials_equal_the_stages("const1", 6.0, 5),
    **{f"paired {name}": lambda name=name: assert_paired_mean_zero(law_block(name, 3.0, 3), 3.0, 3)
       for name in ("const1", "lw2", "threshold")},
    "density_i": lambda: assert_threshold_density_i(law_block("threshold", 3.0, 3), 3),
}
# checks that fail on each mutant at the trial root and at the 8 roots after
# it (tests/stream_sweep.py's moved roots; on the whole law grid and gate
# grid: j_is_event fails the paired test of every factor with I' > 0 but
# LW(0.3, 2) at d >= 28; rim_inverted and no_root_marks fail nearly all;
# slot_off_by_one only the equality gates; wrong_degree the density_I test
# at (3, 3), and no paired test).  On some of those roots j_is_event,
# slot_off_by_one and wrong_degree fail "stages threshold" as well, which
# is a stream's outcome and not pinned.
KILLS = {
    "j_is_event": {"stages const1", "paired const1", "paired lw2", "paired threshold"},
    "rim_inverted": {"hand-built", "stages threshold", "stages const1", "paired const1",
                     "paired lw2", "paired threshold"},
    "slot_off_by_one": {"hand-built"},
    "wrong_degree": {"density_i"},
    "no_root_marks": set(MUTANT_CHECKS),
}


@pytest.mark.parametrize("mutant", [None, *TRANSFER_MUTANTS])
def test_transfer_gates_kill_the_mutants(monkeypatch, mutant):
    apply_mutant(monkeypatch, TRANSFER_MUTANTS, mutant)
    failed = set()
    for name, check in MUTANT_CHECKS.items():
        try:
            check()
        except AssertionError:
            failed.add(name)
    if mutant is None:
        assert failed == set()
    else:
        assert KILLS[mutant] and KILLS[mutant] <= failed, failed


# ---------------------------------------------------------------------------
# transfer density sandwich
# ---------------------------------------------------------------------------


def test_transfer_sandwich_small():
    rep = transfer_density(threshold_factor(), 5.0, 8, 20_000, seed=8)
    assert rep.lower - 3 * rep.stderr_j <= rep.density_j
    assert rep.density_j <= rep.upper + 3 * rep.stderr_j
    assert_within_sigma(
        rep.p_event_mc, rep.p_event_exact, rep.stderr_event, context="event mc"
    )


def test_transfer_near_lossless_when_degrees_small():
    # degrees rarely exceed d: removal is rare and J matches I closely
    rep = transfer_density(threshold_factor(), 1.0, 10, 20_000, seed=9)
    assert rep.p_event_exact > 0.999999
    assert_within_sigma(
        rep.density_j, rep.density_i, rep.stderr_j, rep.stderr_i,
        context="lossless transfer",
    )


def test_transfer_efficiency_trend_on_schedule():
    # along d = ceil(lam + lam^(3/4)) the degree event probability rises
    # towards 1 (exact values on the reference grid), so the transfer keeps a
    # growing share of the tree density; the share itself is verified by
    # Monte Carlo at the feasible scales
    probs = [
        event_E_probability(lam, math.ceil(lam + lam**0.75))
        for lam in (20.0, 50.0, 100.0)
    ]
    assert all(b > a for a, b in zip(probs, probs[1:]))
    for lam, trials in ((10.0, 20_000), (20.0, 15_000)):
        d = math.ceil(lam + lam**0.75)
        rep = transfer_density(threshold_factor(), lam, d, trials, seed=10)
        ratio = rep.density_j / rep.density_i
        se_ratio = ratio * (
            (rep.stderr_j / rep.density_j) ** 2
            + (rep.stderr_i / rep.density_i) ** 2
        ) ** 0.5
        assert rep.p_event_exact - 3 * se_ratio <= ratio <= 1.0 + 3 * se_ratio


# ---------------------------------------------------------------------------
# the degree event and Poisson tails
# ---------------------------------------------------------------------------


def test_event_probability_monotone_in_d():
    vals = [event_E_probability(5.0, d) for d in range(5, 30)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_event_probability_limits():
    assert event_E_probability(1.0, 50) > 1 - 1e-10
    assert event_E_probability(5.0, 1) < 0.05


def test_exact_poisson_sums_reject_lam_above_the_limit():
    # e^-lam underflows near lam = 745: the sums gave 1.71 at (745, 800), 0 at (800, 900)
    assert 0.0 < event_E_probability(POISSON_LAM_MAX, 700) <= 1.0
    for lam, d in ((math.nextafter(POISSON_LAM_MAX, math.inf), 700), (745, 800), (800, 900)):
        with pytest.raises(ValueError, match="lam <= 600"):
            event_E_probability(lam, d)
        with pytest.raises(ValueError, match="lam <= 600"):
            poisson_cdf(lam, d)


def test_event_exact_vs_mc():
    lam, d, trials = 5.0, 8, 100_000
    exact = event_E_probability(lam, d)
    mc = event_E_monte_carlo(lam, d, trials, seed=11)
    assert_within_sigma(mc, exact, binomial_se(exact, trials), context="event")


def test_event_K_probability_matches_adaptive_quadrature():
    from scipy import integrate, stats

    for lam, d in ((3.0, 3), (5.0, 4), (1.0, 8), (20.0, 28), (50.0, 60), (2.0, 1)):
        def integrand(x):
            q = stats.poisson.cdf(d - 1, lam * x)
            return sum(stats.poisson.pmf(m, lam) * q**m for m in range(d + 1))

        ref = integrate.quad(integrand, 0.0, 1.0, limit=200, epsabs=1e-13)[0]
        assert event_K_probability(lam, d) == pytest.approx(ref, abs=1e-11)


def test_event_K_probability_bounds():
    for lam, d in ((3.0, 3), (20.0, 28), (50.0, 60), (POISSON_LAM_MAX, 700)):
        assert event_E_probability(lam, d) <= event_K_probability(lam, d) <= 1.0
    vals = [event_K_probability(5.0, d) for d in range(1, 30)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    for lam, d in ((math.nextafter(POISSON_LAM_MAX, math.inf), 700), (0.0, 3), (3.0, 0)):
        with pytest.raises(ValueError):
            event_K_probability(lam, d)


def test_constant_one_transfer_density_is_P_K():
    # with I' = 1, J at the root is the indicator of K itself
    rep = transfer_density(constant_factor(1), 3.0, 3, 10_000, seed=14)
    p_k = event_K_probability(3.0, 3)
    assert_within_sigma(rep.density_j, p_k, binomial_se(p_k, 10_000), context="P(K)")


def test_event_lower_bound_chain():
    for lam, d in ((5, 8), (10, 14), (20, 28), (50, 60)):
        assert event_E_lower_bound(lam, d) <= event_E_probability(lam, d)


def test_poisson_cdf_tail_consistency():
    for lam in (0.5, 2.0, 7.0):
        for m in range(0, 20):
            assert abs(poisson_cdf(lam, m) + poisson_tail(lam, m) - 1.0) <= 1e-12


def test_poisson_tail_dominated_by_chernoff():
    for lam in (5, 10, 20):
        for d in range(lam + 1, 3 * lam + 1):
            assert poisson_tail(lam, d) <= poisson_tail_bound(lam, d)


def test_poisson_tail_bound_nontrivial_below_mean():
    assert poisson_tail_bound(9.0, 10) < 1.0
    with pytest.raises(ValueError):
        poisson_tail_bound(10.0, 10)


def test_schedule_bound_value():
    assert abs(schedule_tail_bound(100, 0.75) - math.exp(-5.0)) <= 1e-12
    for bad in (0.5, 1.0, 0.2):
        with pytest.raises(ValueError):
            schedule_tail_bound(100, bad)
