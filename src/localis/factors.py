"""Local decision rules and their application to trees and finite graphs.

A factor is a deterministic rule reading a rooted labelled neighbourhood of
bounded radius and returning a {0, 1} inclusion bit.  Each factor carries
its rule in three forms: `rule` over a rooted view, `array_rule` over the
root stars of a block of trees, and `graph_rule` over a whole graph.  The
view protocol (root, neighbors(v), label(v), order_key(v)) serves
materialised neighbourhoods and lazily generated trees alike; it is the
reference the other two forms equal bit for bit.

On tree hosts every factor also carries its rule in array form,
array_rule(host, s_density, states, valid, labels, copies), and TreeBlock,
the one evaluator of a factor on tree hosts, runs it over a block of trials
and coupled copies, at most PASS_PAIRS (copy, row) pairs a call.  The
arrays are the root stars of the selected rows, the roots and their
children (graphs.child_states), as `states` and `valid` of shape (R,
columns) and their rng.CoupledLabels `labels` of shape (J, R, columns), one
row of stars per copy: column 0 is the root, the other columns its children,
and `valid` masks the columns that are no node.  `copies` is an int copy id
(J = 1) or the J copy ids; the rule returns the (J, R) root bits.
Threshold and constant factors (radius <= 1) read the stars alone.  The
percolation-round rule grows deeper levels from them, the children of the
nodes still unresolved, by the same child expansion and label rule.  Each
returns what rule returns on each tree, bit for bit; the per-trial LazyTree
and TreeLabels are the tests' reference for them.

Radius contract: a rule of radius r calls neighbors(v) only for vertices v
at depth < r, so it reads labels and structure at depth <= r and nothing
beyond.  In a BFS ball the neighbours of a depth-j vertex lie at depth
j - 1, j or j + 1, so a view generated deeper than r presents the rule with
exactly the same reads as the ball cut at r, and apply_factor passes it
through unchanged.  The threshold rule reads only neighbors(root); the
percolation-round rule reaches neighbors(v) only while first-success rounds
strictly decrease from at most k, hence at depth <= k < k + 1.  On levels:
a depth-j node is expanded only with a round in 2..k + 1 - j, so the level
arrays never expand a node at depth k or beyond and need no cut either.

Projection onto a finite graph runs on the graph's incidence arrays:
graph_bits takes graph_rule(g, labels), the rule's bit at every vertex (a
CSR compare for threshold, the round-synchronous process for the
percolation-round rule), keeps the 1-bits whose (radius+1)-ball is a
tree, and checks independence over the incidences.  The mask can only
clear a bit, so graph_bits runs graphs.tree_ball_mask from the rule's
1-bits alone, those not yet walked on g at that radius (g.balls keeps
them).  graph_bits_at takes the same bits at chosen vertices alone, the
mask walked from those of them whose rule bit is 1, with no independence
check (graph-host stability's roots, on graphs cut to their
neighbourhoods).  The rule's bit at v equals the view rule's on v's
radius-ball, tree-like or not; project_to_graph, one ball and one rule call
per vertex, is the reference.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graphs import (
    MultiGraph,
    child_states,
    incidences,
    neighborhood,
    non_tree_ball_mask,
    tree_ball_mask,
)
from .parallel import mean_stderr, run_trials
from .rng import (
    CoupledLabels,
    first_success_round,
    first_success_rounds,
    round_bounds,
    trial_state_np,
)


@dataclass(frozen=True)
class Factor:
    """Deterministic rule mapping a rooted labelled neighbourhood to {0, 1}.

    The rule reads only vertices within `radius` of the root and is invariant
    under vertex-id relabelling; ids enter only as tie-breaks for the
    measure-zero event of equal labels.  array_rule is the rule's array
    form over root stars, which TreeBlock evaluates, and graph_rule(g,
    labels) its whole-graph form, the rule's bit at every vertex of a
    MultiGraph (see the module docstring).
    """

    kind: str
    radius: int
    params: dict
    rule: Callable
    array_rule: Callable
    graph_rule: Callable


def factor_spec(f: Factor) -> dict:
    """JSON-serialisable descriptor {kind, radius, params}."""
    return {"kind": f.kind, "radius": f.radius, "params": dict(f.params)}


def factor_from_spec(spec: dict) -> Factor:
    kind = spec["kind"]
    params = spec.get("params", {})
    if kind == "lauer-wormald":
        return lauer_wormald(params["p"], params["k"])
    if kind == "greedy-threshold":
        return threshold_factor()
    if kind == "const":
        return constant_factor(params["bit"])
    raise ValueError(f"unknown factor kind: {kind!r}")


def constant_factor(bit: int) -> Factor:
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    return Factor(
        "const", 0, {"bit": bit}, rule=lambda view: bit,
        array_rule=lambda host, s_density, states, valid, labels, copies: np.full(
            labels.shape[:-1], bool(bit)
        ),
        graph_rule=lambda g, labels: np.full(g.n, bool(bit)),
    )


def _threshold_rule(view) -> int:
    root = view.root
    key = (view.label(root), view.order_key(root))
    for u in view.neighbors(root):
        if (view.label(u), view.order_key(u)) <= key:
            return 0
    return 1


def _threshold_array(host, s_density, states, valid, labels, copies) -> np.ndarray:
    """_threshold_rule over stars: the root survives unless a neighbour's
    (label, key) is lexicographically at most the root's; a node's key is
    its state."""
    root_label, root_key = labels[..., :1], states[:, :1]
    nbr_label, nbr_key = labels[..., 1:], states[:, 1:]
    below = (nbr_label < root_label) | ((nbr_label == root_label) & (nbr_key <= root_key))
    return ~(below & valid[:, 1:]).any(axis=-1)


def _threshold_graph(g: MultiGraph, labels: np.ndarray) -> np.ndarray:
    """_threshold_rule at every vertex of g: v survives unless an incidence
    (v, w) has (label of w, w) lexicographically at most (label of v, v); a
    ball's order key is its graph vertex id, and a loop sinks its vertex."""
    tail, nbr = g.tail, g.nbr
    mine, theirs = labels[tail], labels[nbr]
    below = (theirs < mine) | ((theirs == mine) & (nbr <= tail))
    bits = np.ones(g.n, dtype=bool)
    bits[tail[below]] = False
    return bits


def threshold_factor() -> Factor:
    """Radius-1 rule: include the root iff its label is the strict minimum of
    its closed 1-neighbourhood.  Density 1/(d+1) on the d-regular tree."""
    return Factor(
        "greedy-threshold", 1, {}, rule=_threshold_rule, array_rule=_threshold_array,
        graph_rule=_threshold_graph,
    )


# ---------------------------------------------------------------------------
# The percolation-round construction (Lauer-Wormald)
# ---------------------------------------------------------------------------


def _lw_rule(p: float, k: int) -> Callable:
    """Rule for the k-round Bernoulli(p) construction.

    Each vertex v derives a first-success round r(v) ~ Geometric(p) from its
    label, and joins at round r(v) <= k unless a neighbour w with
    r(w) < r(v) joins.  The output keeps joined vertices with no joined
    neighbour (same-round adjacent pairs drop out).  The root's bit is thus
    r(root) <= k and no neighbour u with r(u) <= r(root) joins; a later u
    cannot join once the root has, the root being u's neighbour on any
    symmetric view, so it is never expanded.  The recursion follows strictly
    decreasing rounds from r(u) <= r(root) <= k, so it ends on any view and
    nests at most k deep; from the root of T_d the expected number of such
    chains of length L is at most d (d-1)^(L-1) / L!, far below Python's
    recursion limit at any degree where the rule finishes.
    """

    def rule(view) -> int:
        neighbors, label = view.neighbors, view.label

        def joins(v, rv) -> bool:
            for w in neighbors(v):
                rw = first_success_round(label(w), p, k)
                if rw < rv and joins(w, rw):
                    return False
            return True

        r0 = first_success_round(label(view.root), p, k)
        if r0 > k:
            return 0
        for u in neighbors(view.root):
            ru = first_success_round(label(u), p, k)
            if ru <= r0 and joins(u, ru):
                return 0
        return 1

    return rule


LEVEL_ROOTS = 1 << 10  # most roots whose levels one _lw_levels pass holds


def _lw_levels(p: float, k: int) -> Callable:
    """_lw_rule's array form on tree hosts (see TreeBlock): its recursion run
    breadth-first over the levels of all (copy, row) pairs given, pruned.

    A node's kept children are its children of lower round (at the root, of
    round at most the root's).  A kept node with no kept child joins, round 1
    included; one with a joining kept child is blocked; one whose kept
    children are all blocked joins.  The root's bit is r(root) <= k and that
    the root joins.  Each level is expanded from the frontier, the nodes not
    yet resolved whose ancestors are none of them resolved; after each level
    the new outcomes go up the stack, and every resolved node leaves it with
    its subtree.  So a pair generates about the nodes the recursion reads.
    At most LEVEL_ROOTS roots go through the levels at once, which bounds the
    nodes held by one call.
    """

    def rule(host, s_density, states, valid, labels, copies) -> np.ndarray:
        rounds = first_success_rounds(labels, p, k)
        shape = rounds.shape[:-1]
        rounds = rounds.reshape(-1, rounds.shape[-1])  # row i: pair i's star
        rows = np.arange(len(rounds)) % len(states)
        if not isinstance(copies, int):
            copies = np.repeat(copies, len(states))
        bits = rounds[:, 0] <= k
        alive = np.flatnonzero(bits)
        for lo in range(0, alive.size, LEVEL_ROOTS):
            roots = alive[lo : lo + LEVEL_ROOTS]
            star = rounds[roots]
            parent, slot = np.nonzero(valid[rows[roots], 1:] & (star[:, 1:] <= star[:, :1]))
            kids = (parent, star[parent, 1 + slot], states[rows[roots[parent]], 1 + slot],
                    _pick(copies, roots[parent]))
            bits[roots] = _joins(roots.size, kids, host, s_density, p, k)
        return bits.reshape(shape)

    return rule


def _pick(copies, at):
    return copies if isinstance(copies, int) else copies[at]


def _joins(n: int, kids: tuple, host, s_density: float, p: float, k: int) -> np.ndarray:
    """Whether each of n roots joins, given their kept children as arrays
    (parent, round, state, copy).  Level j of the stack holds its nodes'
    parent indices into level j - 1 (up[j]) and counts of unresolved kept
    children (pending[j]); `ids` maps level 0 back to the roots."""
    bounds = round_bounds(p, k)
    out = np.ones(n, dtype=bool)
    ids, up, pending = np.arange(n), [None], []
    while True:
        parent, rnd, state, copy = kids
        depth = len(pending)  # of the frontier, the parents of `kids`
        join = rnd == 1  # no child has a lower round
        blocked = np.zeros(len(up[-1]) if depth else n, dtype=bool)
        blocked[parent[join]] = True
        pending.append(np.bincount(parent[~join], minlength=blocked.size))
        joined = ~blocked & (pending[-1] == 0)
        resolved = [None] * depth + [blocked | joined]
        j = depth
        while j and resolved[j].any():  # outcomes go up the stack
            below, done, j = up[j], resolved[j], j - 1
            blocked = np.zeros(pending[j].size, dtype=bool)
            blocked[below[done & joined]] = True
            pending[j] -= np.bincount(below[done & ~joined], minlength=blocked.size)
            joined = ~blocked & (pending[j] == 0)
            resolved[j] = blocked | joined
        if j == 0:
            out[ids[resolved[0] & ~joined]] = False
        # drop the resolved nodes and their subtrees, levels j..depth
        gone = resolved[j]
        for i in range(j, depth + 1):
            if i > j:
                gone = resolved[i] | gone[up[i]]
            keep = ~gone
            if i == 0:
                ids = ids[keep]
            elif i == j:
                up[i] = up[i][keep]
            else:
                up[i] = index[up[i][keep]]
            pending[i] = pending[i][keep]
            index = np.cumsum(keep) - 1
        keep = ~join & ~gone[parent]
        if not keep.any():
            return out
        up.append(index[parent[keep]])
        rnd, state, copy = rnd[keep], state[keep], _pick(copy, keep)
        children, valid = child_states(host, depth + 1, state)
        parent, slot = np.nonzero(valid)
        state = children[parent, slot]
        copy = _pick(copy, parent)
        labels = CoupledLabels(state, s_density)(copy)
        keep = labels < bounds[rnd[parent] - 2]  # round < r iff label < B[r - 2]; r >= 2 here
        labels = labels[keep]
        kids = (parent[keep], first_success_rounds(labels, p, k), state[keep], _pick(copy, keep))


def _lw_process(p: float, k: int) -> Callable:
    """_lw_rule at every vertex of a graph: the round-synchronous process
    (Lauer and Wormald).  For t = 1..k the vertices of round t not yet
    blocked join, and then block every neighbour; at the end a joined
    vertex with a joined neighbour (a loop counts) drops out.  A vertex joins
    exactly when joins() of _lw_rule says so: no lower-round neighbour
    joins.  A joined neighbour of a joined vertex has its round, so the
    output is _lw_rule's bit on every view of radius k + 1, cycles, loops and
    parallel edges included.
    """

    def rule(g: MultiGraph, labels: np.ndarray) -> np.ndarray:
        rounds = first_success_rounds(labels, p, k)
        order = rounds.argsort(kind="stable")
        ends = rounds[order].searchsorted(np.arange(k + 1), side="right")
        joined, blocked = np.zeros(g.n, dtype=bool), np.zeros(g.n, dtype=bool)
        for t in range(1, k + 1):
            fresh = order[ends[t - 1] : ends[t]]
            fresh = fresh[~blocked[fresh]]
            joined[fresh] = True
            blocked[g.nbr[incidences(g, fresh)[0]]] = True
        tail = g.tail
        joined[tail[joined[tail] & joined[g.nbr]]] = False
        return joined

    return rule


def lauer_wormald(p: float, k: int) -> Factor:
    """Factor of radius k+1 running k rounds of Bernoulli(p) percolation with
    removal of selected closed neighbourhoods and same-round conflict
    exclusion."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"need 0 < p < 1, got {p}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return Factor(
        "lauer-wormald", k + 1, {"p": p, "k": k}, rule=_lw_rule(p, k),
        array_rule=_lw_levels(p, k), graph_rule=_lw_process(p, k),
    )


# ---------------------------------------------------------------------------
# Applying factors
# ---------------------------------------------------------------------------


def apply_factor(f: Factor, nb) -> int:
    """Evaluate f on a rooted view of radius >= f.radius.  Pure and
    deterministic; deeper views need no cut (see the radius contract)."""
    radius = getattr(nb, "radius", None)
    if radius is not None and radius < f.radius:
        raise ValueError(
            f"neighbourhood radius {radius} is smaller than factor radius {f.radius}"
        )
    bit = f.rule(nb)
    if bit not in (0, 1):
        raise RuntimeError(f"factor rule returned {bit!r}, expected 0 or 1")
    return int(bit)


BetaBracket = namedtuple("BetaBracket", ["value", "lower", "upper"])


def beta_formula(d: int) -> BetaBracket:
    """Closed-form limiting density (1 - (d-1)^(-2/(d-2))) / 2 of the
    percolation-round construction on the d-regular tree, with its elementary
    bracketing bounds log(d-1)/(d-2) - 2*(log(d-1)/(d-2))^2 and log(d-1)/(d-2).
    """
    if d < 3:
        raise ValueError("need d >= 3")
    value = (1.0 - (d - 1) ** (-2.0 / (d - 2))) / 2.0
    base = math.log(d - 1) / (d - 2)
    lower = base - 2.0 * base * base
    upper = base
    if not (lower <= value <= upper):
        raise AssertionError("bracketing bounds violated; check inputs")
    return BetaBracket(value, lower, upper)


# ---------------------------------------------------------------------------
# Projection onto finite graphs
# ---------------------------------------------------------------------------


@dataclass
class IndependentSetSample:
    """Per-vertex inclusion bits over a host graph."""

    graph: MultiGraph
    bits: np.ndarray

    @property
    def members(self) -> np.ndarray:
        return np.flatnonzero(self.bits)

    def violations(self) -> list:
        """Edges with both endpoints included, as (u, v) with u <= v (a loop
        reports its vertex twice), found from the members' incidences."""
        bits, adj = self.bits.tolist(), self.graph.adj
        edges = {e: (u, w) for u in self.members.tolist() for w, e in adj[u] if u <= w and bits[w]}
        return list(edges.values())


def _project_bits(f: Factor, g: MultiGraph, ok: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Factor bits on the vertices flagged in `ok` (tree-like balls), one
    ball per vertex; 0 elsewhere.  The reference of graph_bits."""
    bits = np.zeros(g.n, dtype=bool)
    for v in np.flatnonzero(ok):
        nb = neighborhood(g, int(v), f.radius, labels)
        bits[v] = bool(apply_factor(f, nb))
    return bits


def project_to_graph(f: Factor, g: MultiGraph, labels: np.ndarray) -> IndependentSetSample:
    """Project a tree factor onto a finite graph.

    A vertex gets the factor's decision when its (radius+1)-neighbourhood is a
    tree, and 0 otherwise; the output is checked to be an independent set.
    Per vertex, by a ball and apply_factor: the reference of graph_bits.
    """
    labels = np.asarray(labels, dtype=np.uint64)
    if labels.shape != (g.n,):
        raise ValueError(f"labels must have shape ({g.n},)")
    bits = _project_bits(f, g, ~non_tree_ball_mask(g, f.radius + 1), labels)
    sample = IndependentSetSample(g, bits)
    viol = sample.violations()
    if viol:
        raise RuntimeError(f"projection produced adjacent members: {viol[:3]}")
    return sample


def graph_bits(f: Factor, g: MultiGraph, labels: np.ndarray) -> np.ndarray:
    """project_to_graph's bits from the whole-graph arrays: f.graph_rule
    where the (radius+1)-ball is a tree, 0 elsewhere, the mask read from
    g.balls and walked (graphs.tree_ball_mask) at the rule's 1-bits not yet
    walked.  Two adjacent members raise project_to_graph's RuntimeError,
    with the edges listed as IndependentSetSample.violations lists them."""
    bits = f.graph_rule(g, labels)
    radius = f.radius + 1
    known, tree = g.balls.setdefault(radius, np.zeros((2, g.n), dtype=bool))
    new = np.flatnonzero(bits & ~known)
    tree[new], known[new] = tree_ball_mask(g, radius, new), True
    bits &= tree
    tail, nbr = g.tail, g.nbr
    both = np.flatnonzero(bits[tail] & bits[nbr] & (tail <= nbr))
    if both.size:
        edges = sorted(set(zip(tail[both].tolist(), nbr[both].tolist(), g.eid[both].tolist())))
        viol = [(u, w) for u, w, _ in edges]
        raise RuntimeError(f"projection produced adjacent members: {viol[:3]}")
    return bits


def graph_bits_at(f: Factor, g: MultiGraph, labels: np.ndarray, at: np.ndarray) -> np.ndarray:
    """graph_bits(f, g, labels)[at], as a bool array, without the
    independence check: f.graph_rule's bits at the vertices `at`, kept where
    the (radius+1)-ball is a tree, the mask walked (graphs.tree_ball_mask)
    from those of them whose rule bit is 1.  g.balls is neither read nor
    filled in."""
    bits = f.graph_rule(g, labels)[at]
    bits[bits] = tree_ball_mask(g, f.radius + 1, at[bits])
    return bits


# ---------------------------------------------------------------------------
# Evaluation on trees
# ---------------------------------------------------------------------------


PASS_PAIRS = 1 << 14  # most (copy, row) pairs one array_rule call takes


class TreeBlock:
    """The factor's root bits on a block of lazy trees, for any coupled copy.

    Row t is the tree LazyTree(host, f.radius, roots[t]); bits(copies, rows)
    gives f.rule(TreeLabels(tree, copy=c, p=p)) for each copy c and row, bit
    for bit, by f.array_rule over the (copy, row) pairs.  The block holds
    its root stars, built once: `states` (column 0 the root, column 1 + j
    its child j, from graphs.child_states), `valid` (which columns are
    nodes: PGW stars are ragged) and `labels`, their rng.CoupledLabels,
    which give with labels(copy, at) what TreeLabels(tree, copy, p).label
    gives over the rows `at`.  A graph host raises TypeError.
    """

    def __init__(self, f: Factor, host, roots: np.ndarray, p: float = 0.0):
        if not host.tree:
            raise TypeError(f"unsupported tree host: {host!r}")
        self.f, self.host, self.p = f, host, p
        roots = np.asarray(roots, dtype=np.uint64)
        column = roots[:, None]
        kids, valid = child_states(host, 0, roots)
        self.states = np.concatenate([column, kids], axis=1)
        self.valid = np.concatenate([np.ones_like(column, dtype=bool), valid], axis=1)
        self.labels = CoupledLabels(self.states, p)

    def bits(self, copies, rows=None) -> np.ndarray:
        """Root bits of `copies`, an int copy id or a 1-D array of copy ids,
        on the rows of the index array `rows`, or on every row when None.
        Bool array of shape (R,) or (J, R) for R selected rows and J copies.
        The rule runs in passes of at most PASS_PAIRS (copy, row) pairs:
        whole copies over all R rows, or one copy over PASS_PAIRS rows."""
        n = len(self.states) if rows is None else len(rows)
        one = isinstance(copies, int)
        if not one:
            copies = np.asarray(copies, dtype=np.uint64)
            if copies.ndim != 1:
                raise ValueError("copies must be an int or a 1-D array of copy ids")
        out = np.empty((1 if one else copies.size, n), dtype=bool)
        width = min(n, PASS_PAIRS) or 1  # rows per pass
        step = PASS_PAIRS // width  # copies per pass
        for j, i in itertools.product(range(0, len(out), step), range(0, n, width)):
            # with rows=None a pass takes a slice, which copies nothing
            at = slice(i, i + width) if rows is None else rows[i : i + width]
            copy = copies if one else copies[j : j + step]
            out[j : j + step, i : i + width] = self.f.array_rule(
                self.host, self.p, self.states[at], self.valid[at],
                self.labels(copy, at)[None] if one else self.labels(copy[:, None, None], at),
                copy,
            )
        return out[0] if one else out


DensityEstimate = namedtuple("DensityEstimate", ["mean", "stderr", "trials"])


def estimate_tree_density(
    f: Factor, host, trials: int, seed: int = 0, workers: int = 1
) -> DensityEstimate:
    """Monte Carlo mean and standard error of the factor's root bit over fresh
    sampled trees with fresh labels.

    Args:
        host: RegularTreeHost(d) or PGWTreeHost(lam) (TypeError on any other
            host); trees are generated at radius exactly f.radius (the rule
            never reads beyond it).
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    rows = run_trials(_tree_density_fn(f, host, seed), trials, workers)
    mean, stderr = mean_stderr(rows[:, 0])
    return DensityEstimate(mean, stderr, trials)


def _tree_density_fn(f: Factor, host, seed: int):
    """Block function of the root bits of trials lo..hi-1."""
    return lambda lo, hi: TreeBlock(f, host, trial_state_np(seed, np.arange(lo, hi))).bits(0)
