"""Local decision rules and their application to trees and finite graphs.

A factor is a deterministic rule reading a rooted labelled neighbourhood of
bounded radius and returning a {0, 1} inclusion bit.  Rules are written
against a minimal rooted-view protocol (root, neighbors(v), label(v),
order_key(v)), so one implementation serves materialised neighbourhoods and
lazily generated trees alike.

A factor of radius <= 1 (threshold, constant) also carries its rule in array
form, star_rule(labels, keys, valid), over the root stars of a block of
trees (graphs.TreeStars): column 0 is the root, the other columns its
neighbours, `valid` masks the columns that are no node.  star_rule returns
what rule returns on each star, bit for bit.

TreeBlock is the one evaluator of a factor on tree hosts, and the radius
rule lives there alone: radius <= 1 runs star_rule on a block's TreeStars,
larger radii (the percolation-round rule) walk one LazyTree per trial.

Radius contract: a rule of radius r calls neighbors(v) only for vertices v
at depth < r, so it reads labels and structure at depth <= r and nothing
beyond.  In a BFS ball the neighbours of a depth-j vertex lie at depth
j - 1, j or j + 1, so a view generated deeper than r presents the rule with
exactly the same reads as the ball cut at r, and apply_factor passes it
through unchanged.  The threshold rule reads only neighbors(root); the
percolation-round rule reaches neighbors(v) only while first-success rounds
strictly decrease from at most k, hence at depth <= k < k + 1.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .graphs import (
    LazyTree,
    MultiGraph,
    TreeLabels,
    TreeStars,
    neighborhood,
    non_tree_ball_mask,
)
from .parallel import mean_stderr, run_trials
from .rng import first_success_round, trial_state_np


@dataclass(frozen=True)
class Factor:
    """Deterministic rule mapping a rooted labelled neighbourhood to {0, 1}.

    The rule reads only vertices within `radius` of the root and is invariant
    under vertex-id relabelling; ids enter only as tie-breaks for the
    measure-zero event of equal labels.  A factor of radius <= 1 carries
    star_rule, the rule's array form over root stars (see the module
    docstring).
    """

    kind: str
    radius: int
    params: dict = field(default_factory=dict)
    rule: Callable = None
    star_rule: Callable = None

    def __post_init__(self):
        if self.radius <= 1 and self.star_rule is None:
            raise ValueError("a factor of radius <= 1 needs a star_rule")


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
        star_rule=lambda labels, keys, valid: np.full(labels.shape[:-1], bool(bit)),
    )


def _threshold_rule(view) -> int:
    root = view.root
    key = (view.label(root), view.order_key(root))
    for u in view.neighbors(root):
        if (view.label(u), view.order_key(u)) <= key:
            return 0
    return 1


def _threshold_star(labels, keys, valid) -> np.ndarray:
    """_threshold_rule over stars: the root survives unless a neighbour's
    (label, key) is lexicographically at most the root's."""
    root_label, root_key = labels[..., :1], keys[..., :1]
    nbr_label, nbr_key = labels[..., 1:], keys[..., 1:]
    below = (nbr_label < root_label) | ((nbr_label == root_label) & (nbr_key <= root_key))
    return ~(below & valid[..., 1:]).any(axis=-1)


def threshold_factor() -> Factor:
    """Radius-1 rule: include the root iff its label is the strict minimum of
    its closed 1-neighbourhood.  Density 1/(d+1) on the d-regular tree."""
    return Factor(
        "greedy-threshold", 1, {}, rule=_threshold_rule, star_rule=_threshold_star
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
                rw = first_success_round(label(w), p)
                if rw < rv and joins(w, rw):
                    return False
            return True

        r0 = first_success_round(label(view.root), p)
        if r0 > k:
            return 0
        for u in neighbors(view.root):
            ru = first_success_round(label(u), p)
            if ru <= r0 and joins(u, ru):
                return 0
        return 1

    return rule


def lauer_wormald(p: float, k: int) -> Factor:
    """Factor of radius k+1 running k rounds of Bernoulli(p) percolation with
    removal of selected closed neighbourhoods and same-round conflict
    exclusion."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"need 0 < p < 1, got {p}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return Factor("lauer-wormald", k + 1, {"p": p, "k": k}, rule=_lw_rule(p, k))


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
    """Factor bits on the vertices flagged in `ok` (tree-like balls); 0 elsewhere."""
    bits = np.zeros(g.n, dtype=bool)
    for v in np.flatnonzero(ok):
        nb = neighborhood(g, int(v), f.radius, labels)
        bits[v] = bool(apply_factor(f, nb))
    return bits


def project_to_graph(f: Factor, g: MultiGraph, labels: np.ndarray) -> IndependentSetSample:
    """Project a tree factor onto a finite graph.

    A vertex gets the factor's decision when its (radius+1)-neighbourhood is a
    tree, and 0 otherwise; the output is checked to be an independent set.
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


# ---------------------------------------------------------------------------
# Evaluation on trees
# ---------------------------------------------------------------------------


class TreeBlock:
    """The factor's root bits on a block of lazy trees, for any coupled copy.

    Row t is the tree LazyTree(host, f.radius, states[t]); bits(copies, rows)
    gives f.rule(TreeLabels(tree, copy=c, p=p)) for each copy c and row.
    The factor's radius chooses how, here and nowhere else: radius <= 1
    runs star_rule on the block's TreeStars, all rows and copies at once;
    larger radii walk one LazyTree per row, built once per call for all of
    that row's copies.  Both give what the per-tree rule gives, bit for bit.
    TreeStars and LazyTree raise TypeError on a graph host.
    """

    def __init__(self, f: Factor, host, states: np.ndarray, p: float = 0.0):
        self.f, self.host, self.p = f, host, p
        if f.radius <= 1:
            self.stars = TreeStars(host, f.radius, states, p)
        else:
            self.stars = None
            self.states = np.asarray(states, dtype=np.uint64).tolist()

    def bits(self, copies, rows=None) -> np.ndarray:
        """Root bits of `copies`, an int copy id or a column of copy ids
        (shape (J, 1), as TreeStars.labels takes), on the rows of the index
        array `rows`, or on every row when None.  Bool array of shape (R,)
        or (J, R) for R selected rows."""
        stars = self.stars
        if stars is not None:
            at = Ellipsis if rows is None else rows
            if not isinstance(copies, int):
                copies = copies[..., None]  # labels of shape (J, R, columns)
            return self.f.star_rule(stars.labels(copies, at), stars.states[at], stars.valid[at])
        f, p, single = self.f, self.p, isinstance(copies, int)
        ids = [copies] if single else copies[:, 0].tolist()
        states = self.states if rows is None else [self.states[i] for i in rows]
        trees = (LazyTree(self.host, f.radius, s) for s in states)
        out = [[f.rule(TreeLabels(t, copy=c, p=p)) for c in ids] for t in trees]
        out = np.array(out, dtype=bool).reshape(len(states), len(ids)).T
        return out[0] if single else out


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
