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

The resulting density is sandwiched between density(I) * P(root and all its
neighbours have degree <= d) and density(I).  Exact evaluation of that event
probability and the supporting Poisson tail bounds live here too.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .factors import DensityEstimate, Factor, apply_factor, estimate_tree_density
from .graphs import RegularTreeHost, RootedNeighborhood, sample_pgw_tree
from .parallel import mean_stderr, per_trial, run_trials
from .rng import CHILD_TAG, LABEL_TAG, check_poisson_lam, fold, trial_state


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


@dataclass
class TransferTrace:
    """One realisation of the three-stage construction."""

    tree: RootedNeighborhood
    removed: np.ndarray
    forest: FilledForest
    iprime_root: int
    j_root: int
    event_ok: bool  # root and all its neighbours have degree <= d


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


def transfer_trace(f: Factor, lam: float, d: int, state: int) -> TransferTrace:
    """Run all three stages on a fresh PGW tree.

    The tree is generated to radius max(f.radius + 1, 2): the factor's ball
    needs degrees to depth f.radius, and the removal marks on root-incident
    edges need the degrees of the root's neighbours.
    """
    tree = sample_pgw_tree(lam, max(f.radius + 1, 2), fold(state, 1))
    removed = edge_removal_stage(tree, tree.labels, d)
    forest = filling_out_stage(tree, removed, d, fold(state, 2))
    iprime, j = inclusion_stage(f, forest)
    event_ok = all(len(tree.adj[w]) <= d for w in [0] + tree.adj[0])
    return TransferTrace(tree, removed, forest, iprime, j, event_ok)


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
        ok = roots <= d
        idx = np.flatnonzero(ok)
        for i in idx:
            x = int(roots[i])
            if x and np.any(rng.poisson(lam, size=x) > d - 1):
                ok[i] = False
        return float(ok.mean())
    raise ValueError(f"unknown mode {mode!r}")


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
