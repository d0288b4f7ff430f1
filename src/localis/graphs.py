"""Random structures and rooted neighbourhoods.

Samplers for configuration-model multigraphs, Erdos-Renyi graphs, and
truncated regular / Poisson-Galton-Watson trees, explorations of the two
random graphs around chosen vertices, plus BFS extraction of rooted
neighbourhoods and the tree-ball mask used by the tree-to-graph
projection.  tree_ball_mask finds whether the balls of a set of vertices
(every vertex by default) are trees, all at once, by non-backtracking walks
over the incidence arrays, one sort a level (each level's (owner, vertex)
keys with the last level's, as int32 while they fit), so projection walks
only from the vertices whose bit the mask can change, once per graph
(MultiGraph.balls keeps them); non_tree_ball_mask, one ball_is_tree BFS
per vertex, is its reference.

MultiGraph is the one graph type, and a MultiGraph is its grouped incidence
arrays (start, nbr, eid), made once per graph: by incidence_arrays (a radix
sort of the ends) from an edge list (explicit graphs, and through
er_multigraph er_edge_arrays' graphs and Erdos-Renyi copies, and the
explored balls of stability) or straight from the configuration model's
half-edge permutation.  Either way a whole graph costs O(n + edges) to
draw: bernoulli_pairs, the one whole-graph Erdos-Renyi pair draw
(er_edge_arrays and the copies' SxS redraw), draws a Binomial edge count
and one uniform set of pair positions, never one variate per absent pair,
and decodes them into pairs (triangle_pairs).  The
BFS (ball_is_tree, neighborhood) reads a graph through `n` and `adj[u]`
alone, and adj[u] is sorted from the arrays when u is first read; it is the
tests' per-root reference.  Whole-graph work (the tree-ball mask,
projection) reads the arrays directly, through `offsets`, `tail` and
incidences(), which reads a configuration-model graph (`start` a range of
step d) as d incidences a vertex, with no offsets; the tree-ball bits
walked are kept in `balls`, filled in per vertex as adj[u] is.

Per-root work (graph-host stability) draws no whole graph: an Exploration
reveals a random graph a level of vertices at a time around chosen roots,
many graphs at once (one a group), and draws a revealed vertex's edges
from counter-based streams, so its cost is the size of the balls, not n.
ConfigExploration pairs each half-edge of a revealed vertex with a uniform
unpaired half-edge (proposals uniform over all n * d half-edges, redrawn
when they name a paired one); ErExploration joins a revealed vertex to each
vertex not revealed before it with probability lam/n, by geometric gaps
(gap_positions) mapped past the revealed vertices by rank-select
(bernoulli_reveal).  cut() gives the explored edges as a small graph whose
vertex ids keep the order of the graphs' ids.

A materialised rooted ball (RootedNeighborhood) is its sorted BFS-id
adjacency, built directly by its constructor; its edge list is derived.

A host descriptor (RegularTreeHost, PGWTreeHost, ConfigModelHost,
ErdosRenyiHost; HOSTS maps names to classes) carries what the rest of the
package asks of a host: `name` (the CLI name), `tree` (whether runs sample
lazy trees or finite graphs), `degree` (d or lam, with its own type) and,
on the two tree hosts, `offspring(depth, state)`, the child count of a lazy
tree node (of each node, given an array of states).

child_states gives the children of any level of lazy-tree nodes as flat
arrays (parent, slot, state), one entry a child, listed parent by parent:
the one child expansion of the tree rules.  child_slots lists the parents
and slots alone, given the child counts; the PGW transfer places its
removal labels by it.  factors.TreeBlock holds only
the root states of a block of trees, and each factor's array rule expands
from them by child_states the children it reads, the roots' (threshold) or
level after level (percolation rounds).  LazyTree and TreeLabels are the
per-trial form of the same trees, one node at a time: the tests' reference
for the arrays, which they equal bit for bit.
Tree nodes and graph vertices take their labels from their states by one
rule (see rng): TreeBlock through its array form, TreeLabels through its
scalar form.  The graph samplers draw no labels; neighborhood restricts a
labelling it is given.

All samplers are pure functions of (seed, parameters): identical inputs
produce byte-identical structures under serialisation.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections import deque
from dataclasses import InitVar, dataclass, field, replace
from typing import ClassVar, Sequence

import numpy as np

from .rng import (
    CHILD_TAG,
    LABEL_TAG,
    OFFSPRING_TAG,
    POISSON_LAM_MAX,
    below,
    coupled_label,
    fold,
    fold_np,
    fold_offsets,
    fold_range,
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
      is half-edge h, this is the sampled matching;
    - balls[radius], (known, tree) as a (2, n) bool array: tree[v], whether
      v's radius-ball is a tree, holds where known[v]; factors.graph_bits
      fills it in by tree_ball_mask at the vertices it asks about.

    MultiGraph(n, edges) takes an explicit edge list, edge i with id i, and
    raises ValueError when an endpoint lies outside 0..n-1; the samplers
    pass `start`, `nbr` and `eid`.
    """

    n: int
    edge_list: InitVar[list | None] = None
    model: str = "explicit"
    params: dict = field(default_factory=dict)
    start: Sequence = field(default=None, repr=False)
    nbr: np.ndarray = field(default=None, repr=False)
    eid: np.ndarray = field(default=None, repr=False)
    adj: dict = field(init=False, repr=False)
    balls: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self, edge_list):
        if edge_list is not None:
            ends = np.asarray(edge_list, dtype=np.int64).reshape(-1, 2)
            if ends.size and not 0 <= ends.min() <= ends.max() < self.n:
                u, v = ends[((ends < 0) | (ends >= self.n)).any(axis=1)][0].tolist()
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{self.n - 1}")
            self.start, self.nbr, self.eid = incidence_arrays(self.n, ends[:, 0], ends[:, 1])
        self.adj = _Incidences(self.start, self.nbr, self.eid)

    def _halves(self) -> np.ndarray:
        """(m, 2): the two positions of edge i, in increasing order, in row i."""
        return np.argsort(self.eid, kind="stable").reshape(-1, 2)

    @functools.cached_property
    def offsets(self) -> np.ndarray:
        """`start` as an int64 array."""
        s = self.start
        if isinstance(s, range):
            return np.arange(s.start, s.stop, s.step, dtype=np.int64)
        return np.asarray(s, dtype=np.int64)

    @functools.cached_property
    def tail(self) -> np.ndarray:
        """tail[h]: the vertex whose incidence position h is."""
        return np.repeat(np.arange(self.n), np.diff(self.offsets))

    @functools.cached_property
    def edge_array(self) -> np.ndarray:
        """`edges` as an (m, 2) int64 array."""
        ends = self.tail[self._halves()]
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
    """(start, nbr, eid) of the graph on 0..n-1 whose edge i is us[i] - vs[i].

    The ends are grouped by a stable LSD radix sort of their vertices on
    16-bit digits, one stable uint16 argsort a digit (numpy radix-sorts
    those), as many digits as n - 1 has (a second only when n > 2^16): the
    order of a stable argsort of the vertices, in O(n + m) time."""
    src = np.concatenate((us, vs))  # incidence j is an end of edge j % m
    order = (src & 0xFFFF).astype(np.uint16).argsort(kind="stable")
    for shift in range(16, (n - 1).bit_length(), 16):
        order = order[(src[order] >> shift & 0xFFFF).astype(np.uint16).argsort(kind="stable")]
    start = np.zeros(n + 1, dtype=np.int64)
    np.bincount(src, minlength=n).cumsum(out=start[1:])
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
    return er_multigraph(n, lam, *er_edge_arrays(n, lam, seed))


def er_multigraph(n: int, lam: float, us: np.ndarray, vs: np.ndarray) -> MultiGraph:
    """The Erdos-Renyi-model MultiGraph on 0..n-1 whose edge i is us[i] - vs[i]."""
    start, nbr, eid = incidence_arrays(n, us, vs)
    return MultiGraph(n, model="er", params={"lambda": lam}, start=start, nbr=nbr, eid=eid)


def triangle_pairs(m: int, flat: np.ndarray) -> tuple:
    """The pairs (a, b), a < b < m, at the indices `flat` of the row-major
    order of all such pairs, as int64 arrays (a, b)."""
    a = np.arange(m, dtype=np.int64)
    start = a * (2 * m - 1 - a) // 2  # pair (a, b) has index start[a] + b - a - 1
    us = start[1:].searchsorted(flat, side="right")  # start[0] = 0 <= every index
    return us, flat - (start - a - 1)[us]


def bernoulli_pairs(rng, m: int, q: float) -> tuple:
    """The pairs (a, b), a < b < m, each present independently with
    probability q, as int64 arrays (a, b) in triangle_pairs order.

    Two draws from `rng` and no pass over the absent pairs: the number of
    present pairs is Binomial(C(m, 2), q), and given that number the set of
    their positions is uniform, which is the law of one Bernoulli(q) per
    pair; triangle_pairs decodes the sorted positions.  Time and memory are
    O(pairs drawn): rng.choice holds a table of all C(m, 2) positions only
    when it draws more than a twentieth of them (or there are at most 10^4).
    """
    total = m * (m - 1) // 2
    flat = rng.choice(total, rng.binomial(total, q), replace=False, shuffle=False)
    flat.sort()
    return triangle_pairs(m, flat)


def er_edge_arrays(n: int, lam: float, seed) -> tuple:
    """The edges sample_er(n, lam, seed) draws, as arrays (us, vs) with
    us < vs, in sorted order: one bernoulli_pairs draw at q = lam/n from
    default_rng(seed), so O(n + edges) time and memory."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0.0 <= lam <= n:
        raise ValueError(f"need 0 <= lam <= n, got lam={lam}, n={n}")
    return bernoulli_pairs(np.random.default_rng(seed), n, lam / n)


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
    independent of the host graph's labelling of vertices up to label ties.
    Ties are broken by order_key, read from source_vertices where it is
    given: the graph vertex id on a ball extracted from a graph, so the
    balls of adjacent vertices agree on it, the position state on a
    filled-forest ball, as on a lazy tree, and the BFS id on eager trees.

    The ball is its adjacency: adj[v] lists v's neighbours by BFS id, sorted,
    with a neighbour once per edge and a loop at v as two entries v.  `edges`
    is derived from it: each edge once as (u, v), u <= v, sorted.
    """

    adj: list = field(repr=False)
    labels: np.ndarray
    radius: int
    depths: np.ndarray
    source_vertices: np.ndarray | None = None  # order keys: original ids, or states
    root: ClassVar[int] = 0

    @property
    def n(self) -> int:
        return len(self.adj)

    @functools.cached_property
    def edges(self) -> list:
        out = []
        for u, nbrs in enumerate(self.adj):
            out += [(u, u)] * (nbrs.count(u) // 2) + [(u, v) for v in nbrs if v > u]
        return out

    # -- rooted-view protocol ------------------------------------------------

    def neighbors(self, v: int) -> list:
        return self.adj[v]

    def label(self, v: int) -> int:
        return int(self.labels[v])

    def order_key(self, v: int) -> int:
        return v if self.source_vertices is None else self.source_vertices.item(v)

    # -------------------------------------------------------------------------

    def with_labels(self, labels: np.ndarray) -> "RootedNeighborhood":
        """The same ball, its structure shared, carrying `labels`."""
        return replace(self, labels=np.asarray(labels, dtype=np.uint64))

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


def neighborhood(g, v: int, r: int, labels: np.ndarray | None) -> RootedNeighborhood:
    """Induced subgraph on vertices within distance r of v, rooted at v.

    Carries the restriction of `labels` (uint64 array indexed by vertex id),
    or no labels when None (with_labels gives them).  Only g.n and g.adj are
    read.
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
    ball = [sorted(order[w] for w, _ in adj[u] if w in order) for u in order]
    src = np.fromiter(order.keys(), dtype=np.int64)
    lab = None if labels is None else np.asarray(labels, dtype=np.uint64)[src]
    return RootedNeighborhood(ball, lab, r, np.asarray(depths, dtype=np.int64), src)


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
    """Boolean mask of vertices whose radius-ball is not a tree, by
    ball_is_tree at each vertex: the reference of tree_ball_mask."""
    g.read_all()
    return np.array([not ball_is_tree(g, v, radius) for v in range(g.n)], dtype=bool)


def incidences(g: MultiGraph, vs: np.ndarray) -> tuple:
    """The incidence positions of the vertices vs, each once, as arrays
    (pos, i): position pos[j] is one of vs[i[j]]'s.

    When `start` is a range of step d (a configuration-model graph), every
    vertex has d incidences, v's at start[0] + v*d + 0..d-1, and they come
    slot by slot: slot s of every vertex of vs, in the order of vs, then
    slot s + 1.  Otherwise they come grouped by vertex in the order of vs,
    each vertex's run cut from `offsets`."""
    s = g.start
    if isinstance(s, range):
        slots = np.arange(s.start, s.start + s.step)[:, None]
        return (vs * s.step + slots).reshape(-1), np.concatenate([np.arange(vs.size)] * s.step)
    lo = g.offsets[vs]
    counts = g.offsets[vs + 1] - lo
    i = np.repeat(np.arange(vs.size), counts)
    return np.arange(i.size) + (lo - counts.cumsum() + counts)[i], i


MASK_OWNERS = 1 << 10  # most owners whose walks one tree_ball_mask pass holds


def tree_ball_mask(g: MultiGraph, radius: int, at=None) -> np.ndarray:
    """Boolean mask of the vertices `at` (any int array; every vertex when
    None) whose radius-ball is a tree, equal to ~non_tree_ball_mask(g,
    radius)[at], over the incidence arrays.

    Non-backtracking walks run from every owner vertex at once, one level
    per step, as arrays (owner, vertex, edge id arrived by): a step takes
    every incidence (incidences()) of the walk's vertex but those of the
    edge it arrived by, so loops and parallel edges count as ball_is_tree
    counts them.  An owner's ball is a tree iff its walks of length <=
    radius end at distinct vertices and no walk of length radius + 1 ends at
    a vertex of level radius.  While an owner is tree-like, its level-L
    walks can end only where level L - 1 or level L ends, so each level is
    compared with the one before it, by one sort: the last level's keys
    k = owner*n + vertex, tagged 2k, sorted together with the new walks'
    keys, tagged 2k + 1.  Two adjacent entries of one k mark its owner
    non-tree, but at level radius + 1 only a last-level entry followed by a
    walk's does; an owner found non-tree leaves the walks.  The tagged keys
    lie below 2 * owners * n: int32 when that fits in one, int64 otherwise
    (a pass of MASK_OWNERS owners from n = 2^20 up).  The owners are the
    vertices `at`, so a caller that needs few bits walks from those alone.
    At most MASK_OWNERS owners walk at once, which bounds the walks held.
    """
    n = g.n
    owners = np.arange(n) if at is None else np.asarray(at, dtype=np.int64)
    out = np.ones(owners.size, dtype=bool)
    for lo in range(0, owners.size, MASK_OWNERS):
        at = owners[lo : lo + MASK_OWNERS]
        tree = out[lo : lo + at.size]  # a view: owner i is owners[lo + i]
        key = np.int32 if 2 * at.size * n <= np.iinfo(np.int32).max else np.int64
        own = np.arange(at.size, dtype=key)
        via = np.full(at.size, -1)
        prev = 2 * (own * n + at.astype(key))  # the last level's tagged keys
        for level in range(1, radius + 2):
            pos, i = incidences(g, at)
            eid = g.eid[pos]
            step = np.flatnonzero(eid != via[i])  # indices: a random bool mask indexes slowly
            pos, own, via = pos[step], own[i[step]], eid[step]
            at = g.nbr[pos]
            keys = 2 * (own * n + at.astype(key))
            both = np.concatenate((prev, keys + 1))
            both.sort()
            if level <= radius:  # two walks' 2k + 1, or a last-level 2k then a walk's 2k + 1
                hit = both[1:] <= both[:-1] | 1
            else:  # a last-level 2k then a walk's 2k + 1 only
                hit = both[1:] ^ both[:-1] == 1
            bad = both[1:][hit] // (2 * n)
            tree[bad] = False
            if level > radius:
                break
            if bad.size:  # the walks of owners found non-tree leave
                keep = tree[own]
                if not keep.any():
                    break
                own, at, via, keys = own[keep], at[keep], via[keep], keys[keep]
            prev = keys
    return out


# ---------------------------------------------------------------------------
# Exploration: random graphs drawn around chosen vertices
# ---------------------------------------------------------------------------

_EMPTY = np.empty(0, dtype=np.int64)


def sorted_set(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an int array, sorted: np.unique, whose first
    call imports numpy.ma, by a sort and a compare."""
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))] if keys.size else keys


def members(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each of `keys` is in the sorted int array sorted_keys."""
    if not sorted_keys.size:
        return np.zeros(keys.shape, dtype=bool)
    at = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[at] == keys


class Exploration:
    """Random graphs on 0..n-1, one per group, drawn only around the vertices
    asked for.  Vertex v of group g has the key g * n + v.  Revealing a
    vertex draws the edges it has not been given yet, those to the vertices
    of its group not revealed before it, so every pair is drawn at most once
    and a revealed vertex's edges are all known.

    reveal(batch) reveals a batch of vertices, given as sorted keys none of
    them revealed, each group's in increasing order, and returns the new
    edges as key arrays (heads, tails), heads[i] a vertex of the batch; a
    subclass draws them by _draw(batch, prior), `prior` the keys revealed
    before the batch and `revealed` already holding it.  `revealed` holds
    the sorted keys of the revealed vertices and edges() every edge drawn,
    once.  explore(roots, radius) reveals the balls of the roots level by
    level, and cut(roots) gives the balls as a graph.
    """

    def __init__(self, n: int):
        self.n = n
        self.revealed = _EMPTY
        self._heads, self._tails = [], []
        self._index = (0, _EMPTY, _EMPTY)  # (edges, src, dst): each edge from both ends

    def reveal(self, batch: np.ndarray) -> tuple:
        if not batch.size:
            return _EMPTY, _EMPTY
        prior = self.revealed
        self.revealed = np.sort(np.concatenate((prior, batch)))
        return self.add(*self._draw(batch, prior))

    def add(self, heads: np.ndarray, tails: np.ndarray) -> tuple:
        """Record the edges a reveal drew."""
        self._heads.append(heads)
        self._tails.append(tails)
        return heads, tails

    def edges(self) -> tuple:
        """(heads, tails): every edge drawn, once, in the order drawn."""
        if len(self._heads) != 1:
            self._heads = [np.concatenate([_EMPTY, *self._heads])]
            self._tails = [np.concatenate([_EMPTY, *self._tails])]
        return self._heads[0], self._tails[0]

    def neighbours(self, keys: np.ndarray) -> tuple:
        """(i, w): w[j] is a neighbour of keys[i[j]] by an edge drawn so far,
        once per edge (a loop twice), grouped by i."""
        heads, tails = self.edges()
        if self._index[0] != heads.size:  # sort the incidences of every edge drawn
            src = np.concatenate((heads, tails))
            order = src.argsort()
            self._index = (heads.size, src[order], np.concatenate((tails, heads))[order])
        _, src, dst = self._index
        lo = src.searchsorted(keys)
        counts = src.searchsorted(keys, side="right") - lo
        i = np.repeat(np.arange(keys.size), counts)
        return i, dst[np.arange(i.size) + (lo - counts.cumsum() + counts)[i]]

    def explore(self, roots: np.ndarray, radius: int) -> None:
        """Reveal the vertices within `radius` of the roots (sorted keys, one
        a group), a level at a time, each level in key order: then the edges
        drawn are those with an end within `radius` of a root.  A vertex
        not yet reached is joined to a level only by an edge the level's
        reveal draws, and every vertex reached before is revealed."""
        level = roots
        for depth in range(radius + 1):
            tails = self.reveal(level)[1]
            if depth == radius:
                break
            level = sorted_set(tails)  # the vertices reached are revealed or new
            level = level[~members(self.revealed, level)]

    def cut(self, roots: np.ndarray) -> tuple:
        """(kept, us, vs, at): the revealed vertices, as sorted keys, and the
        edges drawn between two of them and the roots, as indices into
        kept, so the renumbered ids keep the order of the keys.  After
        explore(roots, radius) these are the roots' radius-balls, the
        edges a tree-ball check at that radius reads."""
        heads, tails = self.edges()
        inside = members(self.revealed, tails)  # heads are revealed
        kept = self.revealed
        return (kept, kept.searchsorted(heads[inside]), kept.searchsorted(tails[inside]),
                kept.searchsorted(roots))


class ConfigExploration(Exploration):
    """The configuration model on n vertices of degree d, one per group,
    paired a half-edge at a time (Bollobas 1980; Wormald, "Models of random
    regular graphs", 1999): half-edge h = v * d + s of group g has the key
    g * n * d + h, the vertex key times d plus the slot.  Revealing a batch
    pairs its vertices' unpaired half-edges in key order: half-edge x
    proposes the half-edge below(fold(fold(keys[g], x), a), n * d) at its
    attempt a = 0, 1, ..., and a proposal that names x itself or a half-edge
    already paired is redrawn at x's next attempt.  So each accepted partner
    is uniform over the unpaired half-edges, which is the law of a uniform
    pairing, restricted to the vertices revealed.

    The proposals go in rounds, one attempt of every half-edge left: a round
    takes them in order, and a half-edge that an earlier proposal of the
    round paired proposes nothing.  A round is resolved in steps: each
    step takes, per group, the proposals before the first one that names a
    half-edge an earlier proposal of the step names, which depend on each
    other in no way (_independent); the rejected proposals go to the next
    round in their order.
    """

    def __init__(self, n: int, d: int, keys: np.ndarray):
        super().__init__(n)
        self.d, self.keys = d, keys
        self.paired = _EMPTY  # sorted keys of the paired half-edges

    def _draw(self, batch: np.ndarray, prior: np.ndarray) -> tuple:
        d, nd = self.d, self.n * self.d
        half = (batch[:, None] * d + np.arange(d)).ravel()
        half = half[~members(self.paired, half)]
        streams = fold_np(self.keys[half // nd], half % nd)
        heads, tails, attempt = [_EMPTY], [_EMPTY], 0
        while half.size:
            proposal = half - half % nd + below(fold_np(streams, attempt), nd)
            rejected, left = [], np.arange(half.size)
            while left.size:
                now = _independent(half[left], proposal[left], half[left] // nd)
                x, y, at = half[left[now]], proposal[left[now]], left[now]
                live = ~members(self.paired, x)
                bad = (y == x) | members(self.paired, y)
                take = live & ~bad
                self.paired = np.sort(np.concatenate((self.paired, x[take], y[take])))
                heads.append(x[take] // d)
                tails.append(y[take] // d)
                rejected.append(at[live & bad])
                left = left[~now]
            redo = np.sort(np.concatenate(rejected))
            half, streams, attempt = half[redo], streams[redo], attempt + 1
        return np.concatenate(heads), np.concatenate(tails)


def _independent(x: np.ndarray, y: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Which proposals (x[i], y[i]) of a list, sorted by group and taken in
    order within each, come before the first of their group that names a
    half-edge (as x or y) that an earlier proposal of the group names: those
    read only the pairing as it was before the list."""
    pos = np.arange(x.size)
    keys, at = np.concatenate((x, y)), np.concatenate((pos, pos))
    order = np.lexsort((at, keys))
    keys, at = keys[order], at[order]
    clash = np.sort(at[1:][(keys[1:] == keys[:-1]) & (at[1:] > at[:-1])])
    first = np.append(clash, x.size)[np.searchsorted(clash, np.searchsorted(group, group))]
    return pos < first


class ErExploration(Exploration):
    """G(n, lam/n), one per group (Karp 1990): revealing vertex v of group g
    draws its edges to the vertices not revealed before it, each with
    probability lam/n, from the stream fold(keys[g], v) (bernoulli_reveal)."""

    def __init__(self, n: int, lam: float, keys: np.ndarray):
        super().__init__(n)
        self.q, self.keys = lam / n, keys

    def streams(self, batch: np.ndarray) -> np.ndarray:
        group = batch // self.n
        return fold_np(self.keys[group], batch - group * self.n)

    def _draw(self, batch: np.ndarray, prior: np.ndarray) -> tuple:
        i, ends = bernoulli_reveal(self.streams(batch), batch, np.arange(batch.size),
                                   self.revealed, self.n, self.q)
        return batch[i], ends


def bernoulli_reveal(streams, batch, at, closed, n: int, q: float) -> tuple:
    """The edges the vertices batch[at] draw when a batch of vertices (sorted
    keys, as in Exploration) is revealed, `closed` the sorted keys revealed
    with the batch: vertex batch[at[i]] is joined to each vertex of its
    group not revealed before it with probability q, independently.  Its
    candidates are listed as the group's vertices not in closed, in id
    order, then the batch's later vertices of its group; the positions drawn
    in that list are geometric gaps from streams[i] (gap_positions), and a
    position in the first part maps past closed by rank-select.  Returns
    (i, ends): batch[at[i]] is joined to the vertex of key ends."""
    base = batch[at] // n * n
    lo = closed.searchsorted(base)
    outside = n - (closed.searchsorted(base + n) - lo)
    i, pos = gap_positions(streams, outside + batch.searchsorted(base + n) - at - 1, q)
    rank, lo, base = pos - outside[i], lo[i], base[i]
    # the j-th vertex of group g outside closed is g * n + j + #{r :
    # closed[r] - r <= g * n + j - lo} - lo, lo the first index of group g
    # in closed: closed[r] - r never decreases, every r of an earlier group
    # meets the bound, and no r of a later one does while j < outside
    free = base + pos + (closed - np.arange(closed.size)).searchsorted(base + pos - lo, "right") - lo
    return i, np.where(rank < 0, free, batch.take(at[i] + 1 + rank, mode="clip"))


def gap_positions(streams: np.ndarray, count: np.ndarray, q: float) -> tuple:
    """(i, pos): the successes among the first count[i] of a sequence of
    Bernoulli(q) trials for each stream i, as positions 0..count[i]-1, drawn
    as geometric gaps: the c-th gap (failures before the next success) is
    floor(log(u) / log1p(-q)) for u = ((fold(streams[i], c) >> 11) + 1) /
    2^53 in (0, 1].  Blocks of gaps are drawn per stream until a position
    passes its count."""
    if q <= 0.0 or not count.size:
        return _EMPTY, _EMPTY
    if q >= 1.0:
        i = np.repeat(np.arange(count.size), count)
        return i, np.arange(i.size) - (count.cumsum() - count)[i]
    log_fail = math.log1p(-q)
    width = 4 + int(2.0 * q * count.max())
    parts_i, parts_pos = [_EMPTY], [_EMPTY]
    active = np.flatnonzero(count > 0)
    last = np.full(active.size, -1.0)
    for c in itertools.count(0, width):
        if not active.size:
            break
        u = fold_range(streams[active], c, c + width)  # row r: gap c + r of each stream
        pos = np.log(((u >> np.uint64(11)) + np.uint64(1)) * 2.0**-53)
        pos /= log_fail
        np.floor(pos, out=pos)
        pos += 1.0
        pos.cumsum(axis=0, out=pos)
        pos += last
        hit = pos < count[active]
        gap, col = hit.nonzero()
        parts_i.append(active[col])
        parts_pos.append(pos[gap, col].astype(np.int64))
        more = hit[-1]
        active, last = active[more], pos[-1, more]
    return np.concatenate(parts_i), np.concatenate(parts_pos)


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
    adj = [[]]
    level = [0]
    for depth in range(r):
        nxt = []
        for v, c in zip(level, counts_per_level(level)):
            for _ in range(int(c)):
                w = len(depths)
                adj[v].append(w)
                adj.append([v])
                depths.append(depth + 1)
                nxt.append(w)
        level = nxt
    labels = uniform_labels(rng, len(depths))
    return RootedNeighborhood(adj, labels, r, np.asarray(depths, dtype=np.int64))


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

    Only the region a local rule actually reads is ever generated: the
    sampled law restricted to the visited region matches the eager sampler's
    law exactly.  factors.TreeBlock evaluates the same trees as arrays
    (child_states); a LazyTree is their per-trial reference.

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

    A coupled family reads the same nodes once per copy, so copies >= 1 go
    through rng.coupled_label with a memo on the tree, made when the first
    coupled view is.  Copy 0 is read once per tree (single-copy density, the
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
        if self.memo is None:
            return fold(fold(node.state, LABEL_TAG), 0)
        return coupled_label(node.state, self.copy, self.cut, self.memo)

    def order_key(self, node) -> int:
        return node.state


def child_states(host, depth: int, states: np.ndarray) -> tuple:
    """The children of the lazy-tree nodes at `depth` with these states,
    flat in node order and child order: arrays (parent, slot, kids), entry i
    being child slot[i] of node parent[i], of state kids[i] =
    fold(states[parent[i]], CHILD_TAG + slot[i]).  Child counts come from
    one host.offspring call, and the child tags are mixed once and kept
    (rng.fold_offsets)."""
    parent, slot = child_slots(np.full(states.size, host.offspring(depth, states)))
    return parent, slot, fold_offsets(states[parent], CHILD_TAG, slot)


def child_slots(counts: np.ndarray) -> tuple:
    """(parent, slot) of the children of nodes with these child counts, flat
    in node order and child order: entry i is child slot[i] of node
    parent[i]."""
    parent = np.repeat(np.arange(counts.size), counts)
    return parent, np.arange(parent.size) - (counts.cumsum() - counts)[parent]
