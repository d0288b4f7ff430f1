"""Transfer of regular-tree factors onto Poisson-Galton-Watson trees.

Three stages produce an independent set J on a PGW tree from a factor built
for the d-regular tree:

  edge removal   - at every vertex of degree > d, mark the edges towards the
                   excess-degree neighbours with the highest labels, then
                   remove all marked edges (degrees drop to <= d);
  filling out    - attach (d-1)-ary trees to every deficient vertex until the
                   forest is d-regular, and label every vertex afresh by its
                   position (FilledForest): the root's filled ball is a lazy
                   d-regular tree, whatever the tree and its removals;
  inclusion      - run the factor on the filled forest, then keep only
                   members with no removed incident edge.

edge_removal_stage, filling_out_stage and inclusion_stage run the stages per
node on a sampled tree (graphs.sample_pgw_tree) at any vertex.  A trial
needs J at the root alone, which reads the root's star: the root's and its
children's child counts and labels, and the labels of the children of the
children above degree d.  transfer_block gets J for a block of trials at
once: each trial's child counts from its own generator, by
sample_pgw_tree's two Poisson draws, and the removal labels it reads by
position, as the lazy trees label their nodes (a vertex's state is its
parent's folded with CHILD_TAG + its slot, its label the copy-0 label of
its state), for the root, its children and the children of the children
with at least d of them only; the root-edge marks of all the stars by one
pure function; and I' from one factors.TreeBlock on the d-regular tree, the
one tree evaluator.  It equals bit for bit the per-node stages run on
sample_pgw_tree's tree with every vertex labelled by its position; they
are its reference.  transfer_trace is its one-trial call.

The resulting density is sandwiched between density(I) * P(root and all its
neighbours have degree <= d) and density(I), and equals density(I) * P(K),
K the event that no root-incident edge is removed.  Exact evaluation of
both event probabilities and the supporting Poisson tail bounds live here
too.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .factors import Factor, TreeBlock, apply_factor
from .graphs import RegularTreeHost, RootedNeighborhood, child_slots
from .parallel import mean_stderr, run_trials
from .rng import (
    CHILD_TAG, CoupledLabels, check_poisson_lam, fold, fold_np, fold_offsets, state_rngs,
    trial_state_np,
)

TREE_RADIUS = 2  # a transfer trial's tree: the root's and its neighbours' degrees


# ---------------------------------------------------------------------------
# Stage 1: edge removal
# ---------------------------------------------------------------------------
#
# Trees are RootedNeighborhoods with BFS vertex ids, so edge w-1 joins
# parent(w) to w and the edge between neighbours v and w has id max(v, w) - 1.
# A vertex's degree inside the generated window is len(adj[v]); boundary
# vertices (depth == radius) have unknown true degree.


def _edge_id(v: int, w: int) -> int:
    return max(v, w) - 1


def edge_removal_stage(tree: RootedNeighborhood, x_labels: np.ndarray, d: int) -> np.ndarray:
    """Boolean mask over tree edges: removed iff marked by either endpoint.

    A vertex of known degree exceeding d marks the edges to the degree-d
    excess neighbours whose labels are highest (ties broken towards the
    larger vertex id).  Boundary vertices have unknown degree and never mark;
    callers must generate the tree deep enough for the balls they read.
    """
    x_labels = np.asarray(x_labels, dtype=np.uint64)
    marks = np.zeros(max(tree.n - 1, 0), dtype=bool)
    above = []  # interior vertices whose degree exceeds d
    for v in np.flatnonzero(tree.depths < tree.radius).tolist():
        nbrs = tree.adj[v]
        excess = len(nbrs) - d
        if excess <= 0:
            continue
        above.append(v)
        ranked = sorted(nbrs, key=lambda w: (int(x_labels[w]), w), reverse=True)
        for w in ranked[:excess]:
            marks[_edge_id(v, w)] = True
    # post: surviving degree <= d wherever the degree is known; removal only
    # lowers degrees, so only the vertices that started above d can fail it
    if any(len(_surviving(tree, marks, v)) > d for v in above):
        raise AssertionError("edge removal left an interior vertex above degree d")
    return marks


def _surviving(tree: RootedNeighborhood, removed: np.ndarray, v: int) -> list:
    """Neighbours of v whose edge to v was not removed, in tree.adj order."""
    return [w for w in tree.adj[v] if not removed[_edge_id(v, w)]]


# ---------------------------------------------------------------------------
# Stage 2: filling out
# ---------------------------------------------------------------------------


class _AttachNode:
    """Vertex of a lazily generated attached (d-1)-ary tree."""

    __slots__ = ("state", "parent")

    def __init__(self, state: int, parent):
        self.state = state
        self.parent = parent


class FilledForest:
    """Surviving forest made d-regular by attaching (d-1)-ary trees,
    labelled by position.

    One attachment per missing degree unit: a vertex of surviving degree s
    receives d - s pendant trees, each contributing exactly one edge, so every
    vertex reaches degree d.  Every vertex has a position state: a
    component top (the root, or a vertex whose parent edge was removed) has
    fold(fold(y_state, 0xA77), v), v its tree vertex id, and every other
    vertex, original or attached, its parent's state folded with CHILD_TAG
    + its slot, the slots listing the surviving tree children in id order
    first, then the attachments.  Its label is the copy-0 label of its state
    (see rng) and its order key the state itself, so ball_view(0, r) is
    LazyTree(RegularTreeHost(d), r, state(0)) read through TreeLabels, in
    BFS order: I' at the root is the factor's bit on T_d with fresh labels,
    independent of the tree and of K.

    Surviving neighbours, attachments and states are derived lazily, only
    for the vertices a requested ball actually reaches; ball_view checks the
    degree of every vertex it expands.
    """

    def __init__(self, tree: RootedNeighborhood, removed: np.ndarray, d: int, y_state: int):
        self.tree = tree
        self.removed = np.asarray(removed, dtype=bool)
        self.d = d
        self.top = fold(y_state, 0xA77)

    def state(self, handle) -> int:
        """The position state of a vertex, an original vertex id or an
        attachment."""
        if isinstance(handle, _AttachNode):
            return handle.state
        v = int(handle)
        if v == 0 or self.removed[v - 1]:
            return fold(self.top, v)
        parent = self.tree.adj[v][0]  # adj is sorted, and a parent's id is lower
        return fold(self.state(parent), CHILD_TAG + self._children(parent).index(v))

    def _children(self, v: int) -> list:
        """The surviving tree children of an original vertex, in id order."""
        return [w for w in _surviving(self.tree, self.removed, v) if w > v]

    def _attachments(self, handle, first: int, count: int) -> list:
        """`count` attached children of a vertex, from slot `first` on."""
        state = self.state(handle)
        return [_AttachNode(fold(state, CHILD_TAG + first + j), handle) for j in range(count)]

    def ball_view(self, center: int, radius: int) -> RootedNeighborhood:
        """Materialise the radius-ball around an original vertex, with vertex
        ids in BFS order and the states as order keys.

        Interior vertices of the ball are checked to have degree exactly d.
        """
        handles = [center]
        depths = [0]
        adj = [[]]
        seen = {center}
        for i, h in enumerate(handles):
            if depths[i] == radius:
                continue
            nbrs = self._neighbors(h)
            if len(nbrs) != self.d:
                raise AssertionError(
                    f"filled forest not {self.d}-regular at depth {depths[i]}"
                )
            for w in nbrs:
                if w not in seen:
                    seen.add(w)
                    adj[i].append(len(handles))
                    adj.append([i])
                    handles.append(w)
                    depths.append(depths[i] + 1)
        keys = np.array([self.state(h) for h in handles], dtype=np.uint64)
        return RootedNeighborhood(adj, CoupledLabels(keys)(), radius,
                                  np.asarray(depths, dtype=np.int64), keys)

    def _neighbors(self, handle) -> list:
        """[parent, where its edge survives] + children by slot."""
        if isinstance(handle, _AttachNode):
            return [handle.parent] + self._attachments(handle, 0, self.d - 1)
        v = int(handle)
        kept = _surviving(self.tree, self.removed, v)
        return kept + self._attachments(v, len(self._children(v)), self.d - len(kept))


def filling_out_stage(
    tree: RootedNeighborhood, removed: np.ndarray, d: int, y_state: int
) -> FilledForest:
    """Attach pendant (d-1)-ary trees until every vertex has degree d and
    label every vertex by its position, from y_state."""
    return FilledForest(tree, removed, d, y_state)


# ---------------------------------------------------------------------------
# Stage 3: inclusion
# ---------------------------------------------------------------------------


def _incident_removed(tree: RootedNeighborhood, removed: np.ndarray, v: int) -> bool:
    return any(removed[_edge_id(v, w)] for w in tree.adj[v])


def inclusion_stage(f: Factor, forest: FilledForest, v: int = 0) -> tuple:
    """(membership bit of original vertex v in the factor's set on the filled
    forest, its final bit of J).

    At the root exact at any tree radius: its ball is the lazy d-regular
    tree of its state, whatever the tree.  Elsewhere exact only when
    depth(v) + f.radius + 1 <= the generated tree's radius; callers enforce
    the window.
    """
    iprime = apply_factor(f, forest.ball_view(v, f.radius))
    j = iprime and not _incident_removed(forest.tree, forest.removed, v)
    return iprime, int(j)


# ---------------------------------------------------------------------------
# The three stages at the root, on root stars, a block of trials at once
# ---------------------------------------------------------------------------
#
# A block stacks the trials' root stars: root_kids and root_labels one entry
# a trial, kids (child counts) and labels one a child, the children trial by
# trial in id order, and rim the labels of the children of the children with
# kids >= d, child by child in id order.


def _star_marks(root_kids, root_labels, kids, labels, rim, d: int) -> np.ndarray:
    """edge_removal_stage's marks on the root edges of a block of stars:
    removed[c] marks the edge from child c to its root.

    A child with kids[c] >= d children, above degree d, marks the edge iff
    the root is among its top kids[c] + 1 - d neighbours by (label, id): its
    children follow the root by id, so iff fewer than kids[c] + 1 - d of its
    rim labels are at least the root's.  A root above degree d marks its top
    root_kids - d children by (label, id), by one lexsort over the children
    of those roots only."""
    trial = np.repeat(np.arange(root_kids.size), root_kids)
    above = np.flatnonzero(kids >= d)
    row = np.repeat(np.arange(above.size), kids[above])
    higher = np.bincount(row[rim >= root_labels[trial[above]][row]], minlength=above.size)
    removed = np.zeros(kids.size, dtype=bool)
    removed[above[higher < kids[above] + 1 - d]] = True
    big = root_kids > d
    size = root_kids[big]
    child = np.flatnonzero(big[trial])
    pos = np.arange(child.size) - np.repeat(np.cumsum(size) - size, size)
    # ascending (label, id) within each root, the lexsort being stable: its
    # top root_kids - d come last, from position d on
    removed[child[np.lexsort((labels[child], trial[child]))[pos >= d]]] = True
    return removed


TransferBlock = namedtuple("TransferBlock", ["iprime", "j", "event_ok", "root_kids", "root_removed"])


def transfer_block(f: Factor, lam: float, d: int, states) -> TransferBlock:
    """Run all three stages at the roots of fresh PGW trees, one per entry of
    `states`: per trial the bits of I' and J at the root and the degree
    event (root and all its neighbours of degree <= d), and the removal
    marks of the root-incident edges, root_kids[t] of them for trial t, in
    child order, concatenated.

    Bit for bit, a trial of state s is the tree sample_pgw_tree(lam,
    TREE_RADIUS, fold(s, 1)), of the child counts its generator draws,
    labelled by position: the root at state fold(s, 3) and every other
    vertex at its parent's state folded with CHILD_TAG + its slot, each with
    the copy-0 label of its state; then edge_removal_stage on those labels,
    filling_out_stage with y_state fold(s, 2) and inclusion_stage at the
    root.  The generator gives the two Poisson draws alone.  The marks and
    the degree event read the root star alone, so the labels are folded
    for the root, its children and the children of the children with kids
    >= d only, 1 + root_kids + the sum of those kids a trial.  I' reads no
    tree: it is one TreeBlock's copy-0 bits on RegularTreeHost(d) at the
    root states fold(fold(y, 0xA77), 0).  AssertionError if a root keeps
    more than d edges.
    """
    if lam <= 0:
        raise ValueError("need lam > 0")
    states = np.asarray(states, dtype=np.uint64).reshape(-1)
    draws = [rng.poisson(lam, size=rng.poisson(lam)) for rng in state_rngs(fold_np(states, 1))]
    root_kids, kids = np.array([k.size for k in draws]), np.concatenate(draws)
    roots = fold_np(states, 3)
    trial, slot = child_slots(root_kids)
    children = fold_offsets(roots[trial], CHILD_TAG, slot)
    above = np.flatnonzero(kids >= d)
    owner, slot = child_slots(kids[above])
    grandkids = fold_offsets(children[above[owner]], CHILD_TAG, slot)
    labels = CoupledLabels(np.concatenate((roots, children, grandkids))).x0
    first, last = states.size, states.size + kids.size
    removed = _star_marks(root_kids, labels[:first], kids, labels[first:last], labels[last:], d)
    if (np.bincount(trial[~removed], minlength=states.size) > d).any():
        raise AssertionError(f"filled forest not {d}-regular at depth 0")
    tops = fold_np(fold_np(fold_np(states, 2), 0xA77), 0)
    iprime = TreeBlock(f, RegularTreeHost(d), tops).bits(0)
    cut = np.bincount(trial[removed], minlength=states.size) > 0
    over = np.bincount(trial[above], minlength=states.size) > 0
    return TransferBlock(iprime, iprime & ~cut, (root_kids <= d) & ~over, root_kids, removed)


def transfer_trace(f: Factor, lam: float, d: int, state: int) -> TransferBlock:
    """transfer_block of the one trial of this state."""
    return transfer_block(f, lam, d, [state])


TransferReport = namedtuple("TransferReport", [
    "lam", "d", "trials", "density_j", "stderr_j", "density_i", "stderr_i", "p_event_exact",
    "p_event_mc", "stderr_event", "lower", "upper",
])


def transfer_density(
    f: Factor, lam: float, d: int, trials: int, seed: int = 0, workers: int = 1
) -> TransferReport:
    """Monte Carlo density of J at the root over fresh PGW trees, with the
    sandwich [density(I) * P(event), density(I)] it must land in.

    density(I) and its standard error come from the same trials' I' bits:
    I' at the root is the factor's bit on the d-regular tree, with fresh
    labels.  So J <= I' holds trial by trial, and density_j <= density_i.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")

    def block(lo: int, hi: int):
        out = transfer_block(f, lam, d, trial_state_np(seed, np.arange(lo, hi)))
        return np.column_stack((out.j, out.event_ok, out.iprime))

    rows = run_trials(block, trials, workers)
    density_j, se_j = mean_stderr(rows[:, 0])
    p_mc, se_event = mean_stderr(rows[:, 1])
    density_i, se_i = mean_stderr(rows[:, 2])
    p_exact = event_E_probability(lam, d)
    return TransferReport(
        lam,
        d,
        trials,
        density_j,
        se_j,
        density_i,
        se_i,
        p_exact,
        p_mc,
        se_event,
        density_i * p_exact,
        density_i,
    )


# ---------------------------------------------------------------------------
# The degree event and Poisson tails
# ---------------------------------------------------------------------------


def _poisson_pmf_iter(lam: float):
    pmf = math.exp(-lam)
    j = 0
    while True:
        yield j, pmf
        j += 1
        pmf *= lam / j


def poisson_cdf(lam: float, m: int) -> float:
    """P(Poisson(lam) <= m), exact summation; lam <= POISSON_LAM_MAX."""
    check_poisson_lam(lam)
    if m < 0:
        return 0.0
    acc = 0.0
    for j, pmf in _poisson_pmf_iter(lam):
        acc += pmf
        if j == m:
            return min(acc, 1.0)


def poisson_tail(lam: float, m: int) -> float:
    """P(Poisson(lam) > m), summed upward from m+1 so tiny tails stay accurate."""
    if m < 0:
        return 1.0
    log_first = -lam + (m + 1) * math.log(lam) - math.lgamma(m + 2)
    term = math.exp(log_first)
    acc = 0.0
    j = m + 1
    while term > acc * 1e-18 + 5e-324:
        acc += term
        j += 1
        term *= lam / j
    return acc


def event_E_probability(lam: float, d: int) -> float:
    """Probability that the PGW root and all its neighbours have degree <= d.

    The root's degree is its offspring count X ~ Poisson(lam); conditioned on
    X, each neighbour needs at most d-1 offspring of its own, so the
    probability is sum_{j<=d} P(X=j) * P(Poisson <= d-1)^j.
    """
    if lam <= 0:
        raise ValueError("need lam > 0")
    check_poisson_lam(lam)
    if d < 1:
        raise ValueError("need d >= 1")
    inner = poisson_cdf(lam, d - 1)
    acc = 0.0
    for j, pmf in _poisson_pmf_iter(lam):
        acc += pmf * inner**j
        if j == d:
            return acc


def event_K_probability(lam: float, d: int) -> float:
    """P(K), the probability that no root-incident edge of the PGW tree is
    removed.  J at the root is I' and K, and I' is independent of K (the
    root's filled ball is a d-regular ball with fresh labels), so
    E[J] = density(I) P(K).

    Given the root's removal label x, a neighbour with c children marks the
    root edge iff c >= d and at most c - d of its children have labels above
    x, i.e. iff d or more of them lie below x; the children below x are
    Poisson(lam x), so the neighbour spares the edge with probability q(x) =
    P(Poisson(lam x) <= d - 1).  The root marks nothing iff its D0 ~
    Poisson(lam) children number at most d, so
    P(K) = int_0^1 sum_{m <= d} P(D0 = m) q(x)^m dx, here by 200-node
    Gauss-Legendre quadrature.  K contains the degree event, so
    P(K) >= event_E_probability(lam, d).
    """
    if lam <= 0:
        raise ValueError("need lam > 0")
    check_poisson_lam(lam)
    if d < 1:
        raise ValueError("need d >= 1")
    # Poisson(mu <= lam) mass beyond `top` is below 1e-100, so sums stop there
    top = min(d, math.ceil(lam + 50.0 * math.sqrt(lam) + 50.0))
    m = np.arange(top + 1)
    log_fact = np.cumsum(np.log(np.maximum(m, 1)))
    x, w = np.polynomial.legendre.leggauss(200)
    mu = lam * (x[:, None] + 1.0) / 2.0
    q = np.exp(m[:d] * np.log(mu) - mu - log_fact[:d]).sum(axis=1)
    root = np.exp(m * math.log(lam) - lam - log_fact)
    return float(w @ (q[:, None] ** m @ root) / 2.0)


def event_E_lower_bound(lam: float, d: int) -> float:
    """exp(-lam * p(lam, d-1)) - p(lam, d-1), a closed-form lower bound on the
    degree event probability (p is the exact Poisson tail)."""
    p = poisson_tail(lam, d - 1)
    return math.exp(-lam * p) - p


def poisson_tail_bound(lam: float, d: int) -> float:
    """Chernoff bound e^(d - lam) (lam/d)^d on P(Poisson(lam) > d), valid for
    lam < d."""
    if not lam < d:
        raise ValueError("the bound requires lam < d")
    return math.exp(d - lam + d * math.log(lam / d))


def schedule_tail_bound(d: int, u: float) -> float:
    """Tail bound e^(-d^(2u-1)/2) along the schedule lam = d - d^u, valid for
    1/2 < u < 1."""
    if not 0.5 < u < 1.0:
        raise ValueError("the schedule requires 1/2 < u < 1")
    return math.exp(-(d ** (2 * u - 1)) / 2.0)
