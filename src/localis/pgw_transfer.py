"""Transfer of regular-tree factors onto Poisson-Galton-Watson trees.

Three stages produce an independent set J on a PGW tree from a factor built
for the d-regular tree:

  edge removal   - at every vertex of degree > d, mark the edges towards the
                   excess-degree neighbours with the highest labels, then
                   remove all marked edges (degrees drop to <= d);
  filling out    - attach (d-1)-ary trees to every deficient vertex until the
                   forest is d-regular, and relabel everything with fresh
                   labels;
  inclusion      - run the factor on the filled forest, then keep only
                   members with no removed incident edge.

edge_removal_stage, filling_out_stage and inclusion_stage run the stages per
node on a sampled tree (graphs.sample_pgw_tree) at any vertex.  A trial
needs J at the root alone, and transfer_trace gets it from level arrays: the
tree's child counts and labels from the same draws as sample_pgw_tree, the
removal marks by one ranking of the excess vertices' neighbours, and the
filled forest's root ball built level by level, evaluated by one
apply_factor call.  It equals the per-node stages bit for bit; they are its
reference.

The resulting density is sandwiched between density(I) * P(root and all its
neighbours have degree <= d) and density(I), and equals density(I) * P(K),
K the event that no root-incident edge is removed.  Exact evaluation of
both event probabilities and the supporting Poisson tail bounds live here
too.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .factors import DensityEstimate, Factor, apply_factor, estimate_tree_density
from .graphs import RegularTreeHost, RootedNeighborhood
from .parallel import mean_stderr, per_trial, run_trials
from .rng import (
    CHILD_TAG, LABEL_TAG, check_poisson_lam, fold, fold_np, state_rng, trial_state, uniform_labels,
)


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
    """Surviving forest made d-regular by attaching (d-1)-ary trees.

    One attachment per missing degree unit: a vertex of surviving degree s
    receives d - s pendant trees, each contributing exactly one edge, so every
    vertex reaches degree d.  All labels (original vertices and attachments)
    are fresh, independent of the removal-stage labels.

    Surviving neighbours and attachments are derived lazily, only for the
    vertices a requested ball actually reaches; ball_view checks the degree
    of every vertex it expands.
    """

    def __init__(self, tree: RootedNeighborhood, removed: np.ndarray, d: int, y_state: int):
        self.tree = tree
        self.removed = np.asarray(removed, dtype=bool)
        self.d = d
        self.y_state = y_state

    def _label(self, handle) -> int:
        if isinstance(handle, _AttachNode):
            return fold(handle.state, LABEL_TAG)
        return fold(fold(self.y_state, 0x1AB), int(handle))

    def _attach_root(self, v: int, slot: int) -> _AttachNode:
        return _AttachNode(fold(fold(fold(self.y_state, 0xA77), v), slot), v)

    def ball_view(self, center: int, radius: int) -> RootedNeighborhood:
        """Materialise the radius-ball around an original vertex, with vertex
        ids in BFS order.

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
        labels = np.array([self._label(h) for h in handles], dtype=np.uint64)
        return RootedNeighborhood(adj, labels, radius, np.asarray(depths, dtype=np.int64))

    def _neighbors(self, handle) -> list:
        if isinstance(handle, _AttachNode):
            kids = [
                _AttachNode(fold(handle.state, CHILD_TAG + j), handle)
                for j in range(self.d - 1)
            ]
            return [handle.parent] + kids
        v = int(handle)
        kept = _surviving(self.tree, self.removed, v)
        return kept + [self._attach_root(v, s) for s in range(self.d - len(kept))]


def filling_out_stage(
    tree: RootedNeighborhood, removed: np.ndarray, d: int, y_state: int
) -> FilledForest:
    """Attach pendant (d-1)-ary trees until every vertex has degree d and
    relabel with fresh labels derived from y_state."""
    return FilledForest(tree, removed, d, y_state)


# ---------------------------------------------------------------------------
# Stage 3: inclusion
# ---------------------------------------------------------------------------


def _incident_removed(tree: RootedNeighborhood, removed: np.ndarray, v: int) -> bool:
    return any(removed[_edge_id(v, w)] for w in tree.adj[v])


def inclusion_stage(f: Factor, forest: FilledForest, v: int = 0) -> tuple:
    """(membership bit of original vertex v in the factor's set on the filled
    forest, its final bit of J).

    Exact only when depth(v) + f.radius + 1 <= the generated tree's radius;
    callers other than transfer_trace (v = 0) enforce the window.
    """
    iprime = apply_factor(f, forest.ball_view(v, f.radius))
    j = iprime and not _incident_removed(forest.tree, forest.removed, v)
    return iprime, int(j)


# ---------------------------------------------------------------------------
# The three stages at the root, on level arrays
# ---------------------------------------------------------------------------
#
# A tree is `kids`, the child count of each vertex at depth < radius by BFS
# id, and `labels`, one per vertex.  The children of a vertex are contiguous
# and the levels in order, as _build_tree numbers them: with ends =
# cumsum(kids), vertex v's children are the ids ends[v] - kids[v] + 1 ..
# ends[v].  The depth-radius vertices, ids kids.size .. labels.size - 1, are
# the boundary: their children are not drawn and, as in the per-node stages,
# they never mark.


def _pgw_levels(lam: float, radius: int, state: int) -> tuple:
    """(kids, labels) of the tree sample_pgw_tree(lam, radius, state) draws,
    from the same draws: one rng.poisson per non-empty level, then one
    uniform_labels over every vertex."""
    if lam <= 0:
        raise ValueError("need lam > 0")
    rng = state_rng(state)
    levels, size, total = [], 1, 1
    for _ in range(radius):
        if not size:
            break
        levels.append(rng.poisson(lam, size=size))
        size = int(levels[-1].sum())
        total += size
    return np.concatenate(levels), uniform_labels(rng, total)


def _removal_marks(kids: np.ndarray, labels: np.ndarray, d: int) -> np.ndarray:
    """edge_removal_stage on level arrays: removed[w - 1] marks the edge
    (parent(w), w).  Each vertex above degree d ranks its neighbours by
    (label, id) and marks the edges to the top degree - d of them."""
    removed = np.zeros(labels.size - 1, dtype=bool)
    degree = kids.copy()
    degree[1:] += 1
    above = np.flatnonzero(degree > d)
    if not above.size:
        return removed
    ends = np.cumsum(kids)
    size = degree[above]
    owner = np.repeat(np.arange(above.size), size)
    pos = np.arange(owner.size) - np.repeat(np.cumsum(size) - size, size)
    v = above[owner]
    up = v > 0  # a non-root vertex lists its parent first, then its children
    nbr = ends[v] - kids[v] + 1 + pos - up
    up &= pos == 0
    nbr[up] = np.searchsorted(ends, v[up])
    # ascending (label, id) within each owner: its top degree - d come last,
    # from position d on
    order = np.lexsort((nbr, labels[nbr], owner))
    top = pos >= d
    removed[np.maximum(v[top], nbr[order][top]) - 1] = True
    return removed


def _ball_adjacency(d: int, radius: int) -> tuple:
    """(adj, depths) of the d-regular tree's root ball of this radius, BFS
    ids with the children of a vertex contiguous."""
    adj, depths, level = [[]], [0], [0]
    for depth in range(radius):
        width = d if depth == 0 else d - 1
        nxt = range(len(adj), len(adj) + len(level) * width)
        for i, v in enumerate(level):
            adj[v] += nxt[i * width:(i + 1) * width]
        adj += [[v] for v in level for _ in range(width)]
        depths += [depth + 1] * len(nxt)
        level = nxt
    return adj, np.asarray(depths, dtype=np.int64)


def _filled_ball(
    kids: np.ndarray, removed: np.ndarray, d: int, radius: int, y_state: int
) -> RootedNeighborhood:
    """FilledForest(tree, removed, d, y_state).ball_view(0, radius) from
    level arrays.  The filled forest is d-regular, so the ball has the
    d-regular tree's shape: a level of m vertices has an (m, width) block of
    children, each row the vertex's surviving tree children in id order,
    then its attachment slots.  A level holds each vertex's tree id `orig`
    (-1 on an attachment vertex) and `state`, fold(fold(y_state, 0xA77), v)
    on tree vertex v.  Attachment slot s of a tree vertex and child j of an
    attachment vertex are both a fold of the row's state, by s = j - filled
    and CHILD_TAG + j, so one fold makes both."""
    ends = np.cumsum(kids)
    tree_keys = np.array([fold(y_state, 0xA77), fold(y_state, 0x1AB)], dtype=np.uint64)
    orig = np.zeros(1, dtype=np.int64)
    state, root_label = (np.array([fold(int(key), 0)], dtype=np.uint64) for key in tree_keys)
    labels = [root_label]
    for depth in range(radius):
        width = d if depth == 0 else d - 1  # a ball vertex's parent edge survives
        at = np.flatnonzero(orig >= 0)
        v = orig[at]
        count = kids[v]
        child = np.arange(count.sum()) + np.repeat(ends[v] + 1 - np.cumsum(count), count)
        keep = ~removed[child - 1]
        filled = np.bincount(np.repeat(np.arange(at.size), count)[keep], minlength=at.size)
        if (filled > width).any():
            raise AssertionError(f"filled forest not {d}-regular at depth {depth}")
        shift = np.full(orig.size, -CHILD_TAG, dtype=np.int64)
        shift[at] = filled
        slots = np.arange(width) - shift[:, None]
        state = fold_np(state[:, None], slots).ravel()
        level_labels = fold_np(state, LABEL_TAG)
        orig = np.full(state.size, -1, dtype=np.int64)
        tree = (slots < 0).ravel()  # the rows' first `filled` columns
        orig[tree] = child = child[keep]
        state[tree], level_labels[tree] = fold_np(tree_keys[:, None], child)
        labels.append(level_labels)
    adj, depths = _ball_adjacency(d, radius)
    return RootedNeighborhood(adj, np.concatenate(labels), radius, depths)


@dataclass
class TransferTrace:
    """One realisation of the three-stage construction at the root.

    The PGW tree is `kids` and its removal labels `labels`, by BFS id (see
    the level arrays above); removed[w - 1] marks the edge (parent(w), w);
    `ball` is the filled forest's root ball of radius f.radius.
    """

    kids: np.ndarray
    labels: np.ndarray
    removed: np.ndarray
    ball: RootedNeighborhood
    iprime_root: int
    j_root: int
    event_ok: bool  # root and all its neighbours have degree <= d


def transfer_trace(f: Factor, lam: float, d: int, state: int) -> TransferTrace:
    """Run all three stages at the root of a fresh PGW tree.

    The tree is generated to radius max(f.radius + 1, 2): the factor's ball
    needs degrees to depth f.radius, and the removal marks on root-incident
    edges need the degrees of the root's neighbours.  Bit for bit, this is
    sample_pgw_tree(lam, radius, fold(state, 1)), edge_removal_stage on its
    labels, filling_out_stage with y_state fold(state, 2) and
    inclusion_stage at the root.
    """
    kids, labels = _pgw_levels(lam, max(f.radius + 1, 2), fold(state, 1))
    removed = _removal_marks(kids, labels, d)
    ball = _filled_ball(kids, removed, d, f.radius, fold(state, 2))
    iprime = apply_factor(f, ball)
    root = int(kids[0])
    j = int(iprime and not removed[:root].any())
    event_ok = root <= d and bool((kids[1:root + 1] < d).all())
    return TransferTrace(kids, labels, removed, ball, iprime, j, event_ok)


TransferReport = namedtuple(
    "TransferReport",
    [
        "lam",
        "d",
        "trials",
        "density_j",
        "stderr_j",
        "density_i",
        "stderr_i",
        "p_event_exact",
        "p_event_mc",
        "stderr_event",
        "lower",
        "upper",
    ],
)


def transfer_density(
    f: Factor, lam: float, d: int, trials: int, seed: int = 0, workers: int = 1,
    density_trials: int | None = None,
) -> TransferReport:
    """Monte Carlo density of J at the root over fresh PGW trees, with the
    sandwich [density(I) * P(event), density(I)] it must land in.

    density_trials sizes the reference run on the regular tree (defaults to
    `trials`; the reference trees are much cheaper than PGW trees, so a larger
    count sharpens the sandwich).
    """
    if trials < 1:
        raise ValueError("need trials >= 1")

    def one(t: int):
        trace = transfer_trace(f, lam, d, trial_state(seed, t))
        return [float(trace.j_root), float(trace.event_ok)]

    rows = run_trials(per_trial(one), trials, workers)
    density_j, se_j = mean_stderr(rows[:, 0])
    p_mc, se_event = mean_stderr(rows[:, 1])
    density_i: DensityEstimate = estimate_tree_density(
        f, RegularTreeHost(d), density_trials or trials,
        seed=fold(seed, 0xD1), workers=workers,
    )
    p_exact = event_E_probability(lam, d)
    return TransferReport(
        lam,
        d,
        trials,
        density_j,
        se_j,
        density_i.mean,
        density_i.stderr,
        p_exact,
        p_mc,
        se_event,
        density_i.mean * p_exact,
        density_i.mean,
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


def event_E_probability(
    lam: float, d: int, mode: str = "exact", trials: int = 100000, seed: int = 0
) -> float:
    """Probability that the PGW root and all its neighbours have degree <= d.

    The root's degree is its offspring count X ~ Poisson(lam); conditioned on
    X, each neighbour needs at most d-1 offspring of its own.  Exact mode
    evaluates sum_{j<=d} P(X=j) * P(Poisson <= d-1)^j; mc mode samples trees.
    """
    if lam <= 0:
        raise ValueError("need lam > 0")
    check_poisson_lam(lam)
    if d < 1:
        raise ValueError("need d >= 1")
    if mode == "exact":
        inner = poisson_cdf(lam, d - 1)
        acc = 0.0
        for j, pmf in _poisson_pmf_iter(lam):
            acc += pmf * inner**j
            if j == d:
                return acc
    if mode == "mc":
        rng = np.random.default_rng(seed)
        roots = rng.poisson(lam, size=trials)
        kept = np.flatnonzero(roots <= d)
        ends = np.cumsum(roots[kept])
        # one draw for every kept root's neighbours; a root fails when the
        # largest of its neighbours' offspring counts exceeds d - 1
        over = np.flatnonzero(rng.poisson(lam, size=int(ends[-1]) if ends.size else 0) > d - 1)
        failed = np.unique(np.searchsorted(ends, over, side="right"))
        return (kept.size - failed.size) / trials
    raise ValueError(f"unknown mode {mode!r}")


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
