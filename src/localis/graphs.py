"""Random structures and rooted neighbourhoods.

Samplers for configuration-model multigraphs, Erdos-Renyi graphs, and
truncated regular / Poisson-Galton-Watson trees, plus BFS extraction of
rooted neighbourhoods and the non-tree-neighbourhood count used by the
tree-to-graph projection.

MultiGraph is the one graph type, and a MultiGraph is its grouped incidence
arrays (start, nbr, eid), made once per graph: by incidence_arrays from an
edge list (explicit graphs, er_edge_arrays, Erdos-Renyi copies) or straight
from the configuration model's half-edge permutation.  The BFS
(ball_is_tree, neighborhood) reads a graph through `n` and `adj[u]` alone,
and adj[u] is sorted from the arrays when u is first read.  So a per-root
trial (graph-host stability) costs the root's ball plus the draw, and
whole-graph work (projection) one pass over the arrays.

A host descriptor (RegularTreeHost, PGWTreeHost, ConfigModelHost,
ErdosRenyiHost; HOSTS maps names to classes) carries what the rest of the
package asks of a host: `name` (the CLI name), `tree` (whether runs sample
lazy trees or finite graphs), `degree` (d or lam, with its own type) and,
on the two tree hosts, `offspring(depth, state)`, the child count of a lazy
tree node (of each node, given an array of states).

TreeStars gives the root stars of a block of lazy trees as arrays (states
and the labels of any coupled copy, bit-equal to LazyTree and TreeLabels);
factors.TreeBlock says when they are used.

All samplers are pure functions of (seed, parameters): identical inputs
produce byte-identical structures under serialisation.
"""

from __future__ import annotations

import functools
import json
from collections import deque
from dataclasses import InitVar, dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .rng import (
    CHILD_TAG,
    LABEL_TAG,
    MASK64,
    OFFSPRING_TAG,
    PERC_TAG,
    POISSON_LAM_MAX,
    fold,
    fold_np,
    label_unit,
    percolation_cut,
    poisson_from_unit,
    uniform_labels,
)


# ---------------------------------------------------------------------------
# Host descriptors (what to sample)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularTreeHost:
    d: int
    name: ClassVar[str] = "regular-tree"
    tree: ClassVar[bool] = True

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"regular tree host needs d >= 2, got {self.d}")

    @property
    def degree(self) -> int:
        return self.d

    def offspring(self, depth: int, state: int) -> int:
        return self.d if depth == 0 else self.d - 1


@dataclass(frozen=True)
class PGWTreeHost:
    lam: float
    name: ClassVar[str] = "pgw"
    tree: ClassVar[bool] = True

    def __post_init__(self):
        if not 0 < self.lam <= POISSON_LAM_MAX:
            raise ValueError(
                f"PGW host needs 0 < lam <= {POISSON_LAM_MAX:g}, got {self.lam}"
            )

    @property
    def degree(self) -> float:
        return self.lam

    def offspring(self, depth: int, state):
        if isinstance(state, np.ndarray):  # a uint64 array of states
            return poisson_from_unit(label_unit(fold_np(state, OFFSPRING_TAG)), self.lam)
        return poisson_from_unit(label_unit(fold(state, OFFSPRING_TAG)), self.lam)


@dataclass(frozen=True)
class ConfigModelHost:
    n: int
    d: int
    name: ClassVar[str] = "config-model"
    tree: ClassVar[bool] = False

    def __post_init__(self):
        if self.n < 1 or self.d < 1 or (self.n * self.d) % 2:
            raise ValueError(
                f"configuration host needs n >= 1, d >= 1, n*d even; "
                f"got n={self.n}, d={self.d}"
            )

    @property
    def degree(self) -> int:
        return self.d


@dataclass(frozen=True)
class ErdosRenyiHost:
    n: int
    lam: float
    name: ClassVar[str] = "er"
    tree: ClassVar[bool] = False

    def __post_init__(self):
        if self.n < 1 or not 0.0 <= self.lam <= self.n:
            raise ValueError(
                f"Erdos-Renyi host needs n >= 1 and 0 <= lam <= n; "
                f"got n={self.n}, lam={self.lam}"
            )

    @property
    def degree(self) -> float:
        return self.lam


HOSTS = {
    host.name: host
    for host in (RegularTreeHost, PGWTreeHost, ConfigModelHost, ErdosRenyiHost)
}


# ---------------------------------------------------------------------------
# Multigraphs
# ---------------------------------------------------------------------------


class _Incidences(dict):
    """adj[u]: u's (neighbour, edge id) pairs, sliced from the grouped arrays
    and sorted on the first read of u, then kept."""

    def __init__(self, start, nbr: np.ndarray, eid: np.ndarray):
        self.start, self.nbr, self.eid = start, nbr, eid

    def __missing__(self, u):
        lo, hi = self.start[u], self.start[u + 1]
        if lo == hi:
            inc = self[u] = []
        else:
            inc = self[u] = sorted(zip(self.nbr[lo:hi].tolist(), self.eid[lo:hi].tolist()))
        return inc


@dataclass(eq=False)
class MultiGraph:
    """Undirected multigraph on vertices 0..n-1; loops and parallel edges allowed.

    The graph is its grouped incidence arrays: vertex u's incidences sit at
    positions start[u]:start[u + 1] (`start` a sequence of n + 1 ints),
    position h holding the neighbour nbr[h] and the edge id eid[h].  Edge
    ids run over 0..m-1 and each names the two incidences of one edge; a
    loop at v gives both of them to v.  Everything else is derived from these
    arrays when first read:

    - adj[v], v's (neighbour, edge id) pairs sorted for deterministic
      traversal, per vertex (read_all makes every list in one pass);
    - edge_array and edges, each edge once as (u, v) with u <= v, in edge-id
      order, except that a configuration-model graph lists them sorted;
    - pairing, the half-edge matching: each edge's two positions (h, h'),
      h < h', lexsorted.  On sample_config_model's graphs, whose position h
      is half-edge h, this is the sampled matching.

    MultiGraph(n, edges) takes an explicit edge list, edge i with id i; the
    samplers pass `start`, `nbr` and `eid`.
    """

    n: int
    edge_list: InitVar[list | None] = None
    model: str = "explicit"
    params: dict = field(default_factory=dict)
    start: Sequence = field(default=None, repr=False)
    nbr: np.ndarray = field(default=None, repr=False)
    eid: np.ndarray = field(default=None, repr=False)
    adj: dict = field(init=False, repr=False)

    def __post_init__(self, edge_list):
        if edge_list is not None:
            ends = np.asarray(edge_list, dtype=np.int64).reshape(-1, 2)
            self.start, self.nbr, self.eid = incidence_arrays(self.n, ends[:, 0], ends[:, 1])
        self.adj = _Incidences(self.start, self.nbr, self.eid)

    def _halves(self) -> np.ndarray:
        """(m, 2): the two positions of edge i, in increasing order, in row i."""
        return np.argsort(self.eid, kind="stable").reshape(-1, 2)

    @functools.cached_property
    def edge_array(self) -> np.ndarray:
        """`edges` as an (m, 2) int64 array."""
        ends = np.repeat(np.arange(self.n), np.diff(self.start))[self._halves()]
        if self.model == "config":  # ids follow the drawn permutation
            ends = ends[np.lexsort((ends[:, 1], ends[:, 0]))]
        return ends

    @functools.cached_property
    def edges(self) -> list:
        return list(zip(self.edge_array[:, 0].tolist(), self.edge_array[:, 1].tolist()))

    @functools.cached_property
    def pairing(self) -> np.ndarray:
        pairs = self._halves()
        return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]

    def read_all(self) -> list:
        """Read every vertex from one tolist of the arrays; adj becomes the
        list of their incidence lists, which a whole-graph pass indexes
        faster than the dict."""
        if isinstance(self.adj, list):
            return self.adj
        pairs = list(zip(self.nbr.tolist(), self.eid.tolist()))
        self.adj = [sorted(pairs[lo:hi]) for lo, hi in zip(self.start, self.start[1:])]
        return self.adj

    def neighbors(self, v: int) -> list:
        return [w for w, _ in self.adj[v]]

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "edges": [[int(u), int(v)] for u, v in self.edges],
            "model": self.model,
            "params": self.params,
        }
        return json.dumps(payload, sort_keys=True)


def incidence_arrays(n: int, us: np.ndarray, vs: np.ndarray) -> tuple:
    """(start, nbr, eid) of the graph on 0..n-1 whose edge i is us[i] - vs[i]."""
    src = np.concatenate((us, vs))  # incidence j is an end of edge j % m
    order = src.argsort(kind="stable")
    start = [0] + np.bincount(src, minlength=n).cumsum().tolist()
    return start, np.concatenate((vs, us))[order], order % max(us.size, 1)


def sample_config_model(n: int, d: int, seed) -> MultiGraph:
    """Uniformly random pairing of the n*d half-edges, glued into edges.

    Half-edge h belongs to vertex h // d and is incidence position h.  h sits
    at position inv[h] of the drawn permutation, its partner at inv[h] ^ 1,
    and the pair index inv[h] >> 1 is the edge id.  Loops and parallel edges
    are kept.

    Args:
        n: vertex count (>= 1).
        d: half-edges per vertex (>= 1); n*d must be even.
        seed: int seed or numpy Generator.

    Returns:
        MultiGraph whose `pairing` is the sampled matching as a sorted
        (nd/2, 2) array of half-edge indices.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if (n * d) % 2 != 0:
        raise ValueError("n*d must be even for a perfect half-edge pairing")
    perm = np.random.default_rng(seed).permutation(n * d)  # pairs 2i, 2i + 1
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    return MultiGraph(
        n, model="config", params={"d": d}, start=range(0, n * d + 1, d),
        nbr=perm[inv ^ 1] // d, eid=inv >> 1,
    )


def sample_er(n: int, lam: float, seed) -> MultiGraph:
    """Erdos-Renyi graph: each pair independently present with probability lam/n."""
    start, nbr, eid = incidence_arrays(n, *er_edge_arrays(n, lam, seed))
    return MultiGraph(n, model="er", params={"lambda": lam}, start=start, nbr=nbr, eid=eid)


def triangle_pairs(m: int, flat: np.ndarray) -> tuple:
    """The pairs (a, b), a < b < m, at the indices `flat` of the row-major
    order of all such pairs, as int64 arrays (a, b)."""
    a = np.arange(m, dtype=np.int64)
    start = a * (2 * m - 1 - a) // 2  # pair (a, b) has index start[a] + b - a - 1
    us = start[1:].searchsorted(flat, side="right")  # start[0] = 0 <= every index
    return us, flat - (start - a - 1)[us]


def er_edge_arrays(n: int, lam: float, seed) -> tuple:
    """The edges sample_er(n, lam, seed) draws, as arrays (us, vs) with
    us < vs, in sorted order."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0.0 <= lam <= n:
        raise ValueError(f"need 0 <= lam <= n, got lam={lam}, n={n}")
    rng = np.random.default_rng(seed)
    return triangle_pairs(n, (rng.random(n * (n - 1) // 2) < lam / n).nonzero()[0])


def enumerate_config_graphs(n: int, d: int):
    """Yield every configuration-model outcome ((nd-1)!! pairings) as a MultiGraph.

    Exponential; intended for exact small-case oracles only.
    """
    if (n * d) % 2 != 0:
        raise ValueError("n*d must be even")
    m = n * d

    def rec(remaining, acc):
        if not remaining:
            yield list(acc)
            return
        a = remaining[0]
        for idx in range(1, len(remaining)):
            b = remaining[idx]
            rest = remaining[1:idx] + remaining[idx + 1 :]
            acc.append((a, b))
            yield from rec(rest, acc)
            acc.pop()

    for pairing in rec(list(range(m)), []):
        edges = sorted((min(a // d, b // d), max(a // d, b // d)) for a, b in pairing)
        yield MultiGraph(n, edges, model="config", params={"d": d})


# ---------------------------------------------------------------------------
# Rooted neighbourhoods
# ---------------------------------------------------------------------------


@dataclass
class RootedNeighborhood:
    """Rooted labelled graph of radius <= r with BFS-canonical vertex ids.

    Vertex 0 is the root and ids follow BFS discovery order (adjacency sorted
    by original id), which makes serialisation stable and factor evaluation
    independent of the host graph's labelling of vertices.
    """

    n: int
    edges: list
    labels: np.ndarray
    radius: int
    depths: np.ndarray
    source_vertices: np.ndarray | None = None  # original ids, if extracted
    root: int = 0
    adj: list = field(init=False, repr=False)

    def __post_init__(self):
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for lst in adj:
            lst.sort()
        self.adj = adj

    # -- rooted-view protocol ------------------------------------------------

    def neighbors(self, v: int) -> list:
        return self.adj[v]

    def label(self, v: int) -> int:
        return int(self.labels[v])

    def order_key(self, v: int) -> int:
        return v

    # -------------------------------------------------------------------------

    def with_labels(self, labels: np.ndarray) -> "RootedNeighborhood":
        return RootedNeighborhood(
            self.n, self.edges, np.asarray(labels, dtype=np.uint64), self.radius,
            self.depths, self.source_vertices,
        )

    def to_json(self) -> str:
        payload = {
            "root": 0,
            "n": self.n,
            "radius": self.radius,
            "edges": [[int(u), int(v)] for u, v in self.edges],
            "labels": [int(x) for x in self.labels],
            "depths": [int(x) for x in self.depths],
        }
        return json.dumps(payload, sort_keys=True)


def neighborhood(g, v: int, r: int, labels: np.ndarray) -> RootedNeighborhood:
    """Induced subgraph on vertices within distance r of v, rooted at v.

    Carries the restriction of `labels` (uint64 array indexed by vertex id).
    Only g.n and g.adj are read.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} not in graph")
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
    lab = np.asarray(labels, dtype=np.uint64)[src]
    return RootedNeighborhood(
        len(order), edges, lab, r, np.asarray(depths, dtype=np.int64), src
    )


def ball_is_tree(g, v: int, radius: int) -> bool:
    """Whether the induced subgraph on the radius-ball around v is acyclic.

    Loops, parallel edges and cycles inside the ball all count as non-tree.
    Early-exits on the first cycle evidence.  Only g.adj is read.
    """
    adj = g.adj
    seen = {v: 0}
    used = set()
    queue = deque([v])
    while queue:
        u = queue.popleft()
        du = seen[u]
        for w, eid in adj[u]:
            if w == u:
                return False  # loop, always inside the ball
            if eid in used:
                continue
            if w in seen:
                return False  # second path or parallel edge inside the ball
            if du == radius:
                continue  # w is outside the ball (BFS order argument)
            seen[w] = du + 1
            used.add(eid)
            queue.append(w)
    return True


def non_tree_ball_mask(g: MultiGraph, radius: int) -> np.ndarray:
    """Boolean mask of vertices whose radius-ball is not a tree."""
    g.read_all()
    return np.array([not ball_is_tree(g, v, radius) for v in range(g.n)], dtype=bool)


def count_non_tree_vertices(g: MultiGraph, r: int) -> int:
    """Number of vertices whose (r+1)-neighbourhood contains a cycle, loop or
    parallel edge; the loss term of the tree-to-graph projection."""
    if r < 0:
        raise ValueError("r must be >= 0")
    return int(non_tree_ball_mask(g, r + 1).sum())


# ---------------------------------------------------------------------------
# Truncated trees (materialised)
# ---------------------------------------------------------------------------


def _build_tree(counts_per_level, r: int, rng) -> RootedNeighborhood:
    """Breadth-first sampled rooted tree cut at radius r.

    Vertex ids follow BFS order, so edge w-1 joins parent(w) to w.  Depth-r
    vertices are the boundary: their offspring are not generated, and their
    degree inside the window, len(adj[v]), counts only the parent edge.
    """
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
    n = len(depths)
    labels = uniform_labels(rng, n)
    return RootedNeighborhood(n, edges, labels, r, np.asarray(depths, dtype=np.int64))


def sample_regular_tree(d: int, r: int, seed) -> RootedNeighborhood:
    """Rooted d-regular tree to depth r: the root has d children, every other
    internal vertex d-1. Structure is deterministic; labels are random."""
    if d < 2:
        raise ValueError("need d >= 2")
    if r < 0:
        raise ValueError("need r >= 0")
    rng = np.random.default_rng(seed)

    def counts(level):
        return [d if v == 0 else d - 1 for v in level]

    return _build_tree(counts, r, rng)


def sample_pgw_tree(lam: float, r: int, seed) -> RootedNeighborhood:
    """Galton-Watson tree with Poisson(lam) offspring, generated to depth r."""
    if lam <= 0:
        raise ValueError("need lam > 0")
    if r < 0:
        raise ValueError("need r >= 0")
    rng = np.random.default_rng(seed)

    def counts(level):
        return rng.poisson(lam, size=len(level)) if level else []

    return _build_tree(counts, r, rng)


# ---------------------------------------------------------------------------
# Lazy trees (generated on demand)
# ---------------------------------------------------------------------------


class _LazyNode:
    __slots__ = ("state", "depth", "parent", "children")

    def __init__(self, state: int, depth: int, parent):
        self.state = state
        self.depth = depth
        self.parent = parent
        self.children = None


class LazyTree:
    """Rooted random tree whose structure and labels derive on demand from a
    64-bit state.

    Only the region a local rule actually reads is ever generated, which makes
    large-radius factors affordable: the sampled law restricted to the visited
    region matches the eager sampler's law exactly.

    Vertices at depth == radius receive no children (truncation boundary).
    """

    def __init__(self, host, radius: int, state: int):
        if not host.tree:
            raise TypeError(f"unsupported tree host: {host!r}")
        self.offspring = host.offspring
        self.radius = radius
        self.root = _LazyNode(state, 0, None)
        self.coupled = None  # per-node values of coupled copies, see TreeLabels

    def children(self, node: _LazyNode) -> list:
        if node.children is None:
            if node.depth >= self.radius:
                node.children = []
            else:
                node.children = [
                    _LazyNode(fold(node.state, CHILD_TAG + j), node.depth + 1, node)
                    for j in range(self.offspring(node.depth, node.state))
                ]
        return node.children

    def neighbors(self, node: _LazyNode) -> list:
        kids = self.children(node)
        if node.parent is None:
            return kids
        return [node.parent] + kids


class TreeLabels:
    """Label view over a LazyTree with percolated relabelling.

    Copy 0 is the base labelling X0.  Copy i >= 1 redraws labels on the
    percolated set S (density p, a fixed function of the tree's node states)
    and keeps the base labels elsewhere.  All copies over one tree share S
    and X0, which realises the coupled family of label vectors.

    A coupled family reads the same nodes once per copy, so copies >= 1
    memoise each node's copy-independent values (the percolation draw, the
    base state and the X0 label) in a dict on the tree, made when the first
    coupled view is; a later copy then folds once per node in S and not at
    all elsewhere.  Copy 0 is read once per tree (single-copy density, the
    LW rule), so it stores nothing and computes its labels directly.
    """

    __slots__ = ("tree", "copy", "cut", "memo")

    def __init__(self, tree: LazyTree, copy: int = 0, p: float = 0.0):
        self.tree = tree
        self.copy = copy
        self.cut = percolation_cut(p)
        if copy and tree.coupled is None:
            tree.coupled = {}
        self.memo = tree.coupled if copy else None

    @property
    def root(self):
        return self.tree.root

    @property
    def radius(self) -> int:
        return self.tree.radius

    def neighbors(self, node) -> list:
        return self.tree.neighbors(node)

    def label(self, node) -> int:
        memo = self.memo
        if memo is None:
            return fold(fold(node.state, LABEL_TAG), 0)
        values = memo.get(node)
        if values is None:
            base = fold(node.state, LABEL_TAG)
            values = memo[node] = (fold(node.state, PERC_TAG), base, fold(base, 0))
        perc, base, x0 = values
        if perc < self.cut:
            return fold(base, self.copy)
        return x0

    def order_key(self, node) -> int:
        return node.state


class TreeStars:
    """The root stars of a block of lazy trees, with their labels, as arrays.

    For the root states in `roots`, row i describes LazyTree(host, radius,
    roots[i]) with radius <= 1: column 0 is the root and column 1 + j its
    child j (none at radius 0).  `states` holds the node states, `valid`
    which columns are nodes: PGW stars are ragged, and the columns past a
    root's child count hold states of no node.  Child counts come from
    one host.offspring call over all roots.

    labels(copy, at) is the array form of TreeLabels(tree, copy, p).label
    over the rows `at`: equal bit for bit, so a radius <= 1 rule evaluated
    on these arrays reads exactly what it reads on the lazy trees.  `copy`
    is an int, or a column of copy ids giving one row of labels per copy.
    """

    def __init__(self, host, radius: int, roots: np.ndarray, p: float = 0.0):
        if not host.tree:
            raise TypeError(f"unsupported tree host: {host!r}")
        if radius > 1:
            raise ValueError(f"tree stars cover radius <= 1, got {radius}")
        roots = np.asarray(roots, dtype=np.uint64)
        counts = np.zeros(roots.size, dtype=np.int64)
        if radius:
            counts[:] = host.offspring(0, roots)
        slots = np.arange(int(counts.max(initial=0)))
        kids = fold_np(roots[:, None], CHILD_TAG + slots.astype(np.uint64))
        self.states = np.concatenate([roots[:, None], kids], axis=1)
        self.valid = np.concatenate(
            [np.ones((roots.size, 1), dtype=bool), slots < counts[:, None]], axis=1
        )
        self.base = fold_np(self.states, LABEL_TAG)
        self.x0 = fold_np(self.base, 0)
        cut = percolation_cut(p)
        if cut == 0:
            self.in_s = np.zeros(self.states.shape, dtype=bool)
        elif cut > MASK64:  # p = 1: every node, and 2^64 fits no uint64
            self.in_s = np.ones(self.states.shape, dtype=bool)
        else:
            self.in_s = fold_np(self.states, PERC_TAG) < np.uint64(cut)

    def labels(self, copy=0, at=Ellipsis) -> np.ndarray:
        if isinstance(copy, int) and copy == 0:
            return self.x0[at]
        return np.where(self.in_s[at], fold_np(self.base[at], copy), self.x0[at])
