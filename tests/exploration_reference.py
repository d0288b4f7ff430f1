"""Scalar reference of graph-host stability's explorations, one trial and
one copy at a time, in plain Python over rng.fold.

It draws with the counters coupling._graph_stability_pass draws with, so
its stability rows equal the program's bit for bit:

- trial t of state st has its root fold(st, 4) * n >> 64 and its graph g
  keyed by fold(st, 1); vertex v has the state fold(fold(st, 2), v);
- configuration model: revealing a level pairs its vertices' unpaired
  half-edges h = v * d + s in order, in rounds: half-edge x proposes
  fold(fold(key, x), a) * n * d >> 64 at its attempt a (the round), and a
  proposal naming x or a paired half-edge waits for the next round;
- Erdos-Renyi: revealing a level, vertex v (in id order) draws its edges to
  the vertices not revealed before it, listed as those outside the
  revealed vertices and the level, in id order, then the level's later
  vertices, at the positions of geometric gaps from the stream fold(key, v);
- Erdos-Renyi copy j: a pair with an end outside S is g's; a pair inside
  SxS is drawn by the end the copy reveals first, over the vertices the
  copy has not revealed, from fold(fold(fold(st, 3), j), v), and kept when
  its other end is in S.  At each level every copy's new vertices not yet
  revealed in g are revealed in g first, in id order, all copies' at once.

The whole ball out to f.radius + 1 (hops) is revealed, its edges relabelled
in vertex-id order, and the root's bit read by factors.graph_bits_at.
"""

import math

import numpy as np

from localis.factors import graph_bits_at
from localis.graphs import ConfigModelHost, MultiGraph
from localis.rng import CoupledLabels, fold, percolation_cut, trial_state

PERC_TAG = 0x02


def gaps(stream: int, count: int, q: float):
    """The positions below count of Bernoulli(q) successes, by geometric
    gaps from fold(stream, c), c = 0, 1, ..."""
    if q <= 0.0:
        return
    if q >= 1.0:
        yield from range(count)
        return
    pos, c, log_fail = -1, 0, math.log1p(-q)
    while True:
        u = ((fold(stream, c) >> 11) + 1) * 2.0**-53
        c += 1
        pos += math.floor(math.log(u) / log_fail) + 1
        if pos >= count:
            return
        yield pos


class Graph:
    """One graph revealed on demand: `edges` in the order drawn, `revealed`."""

    def __init__(self, n: int):
        self.n, self.edges, self.revealed = n, [], set()

    def adj(self, v: int) -> list:
        return [b for a, b in self.edges if a == v] + [a for a, b in self.edges if b == v]


class Config(Graph):
    def __init__(self, n: int, d: int, key: int):
        super().__init__(n)
        self.d, self.key, self.mate = d, key, {}

    def reveal(self, level: list) -> None:
        d, nd = self.d, self.n * self.d
        pending = [v * d + s for v in level for s in range(d) if v * d + s not in self.mate]
        attempt = 0
        while pending:
            wait = []
            for x in pending:
                if x in self.mate:
                    continue
                y = fold(fold(self.key, x), attempt) * nd >> 64
                if y == x or y in self.mate:
                    wait.append(x)
                else:
                    self.mate[x], self.mate[y] = y, x
                    self.edges.append((x // d, y // d))
            pending, attempt = wait, attempt + 1
        self.revealed |= set(level)


class Er(Graph):
    def __init__(self, n: int, lam: float, key: int):
        super().__init__(n)
        self.q, self.key = lam / n, key

    def reveal(self, level: list) -> None:
        closed = self.revealed | set(level)
        outside = [u for u in range(self.n) if u not in closed]
        for r, v in enumerate(level):
            cand = outside + level[r + 1 :]
            self.edges += [(v, cand[pos]) for pos in gaps(fold(self.key, v), len(cand), self.q)]
        self.revealed = closed


class ErCopy(Graph):
    """Copy j of an Erdos-Renyi trial: g outside SxS, its own SxS pairs."""

    def __init__(self, g: Er, key: int, in_s):
        super().__init__(g.n)
        self.g, self.key, self.in_s = g, key, in_s

    def reveal(self, level: list) -> None:
        closed, mine = self.revealed | set(level), set(level)
        outside = [u for u in range(self.n) if u not in closed]
        for r, v in enumerate(level):
            for w in self.g.adj(v):
                if self.in_s(v) and self.in_s(w):
                    continue  # the copy's own pair
                if w in self.revealed or (w in mine and w < v):
                    continue  # drawn from the end revealed first
                self.edges.append((v, w))
            if self.in_s(v):
                cand = outside + level[r + 1 :]
                for pos in gaps(fold(self.key, v), len(cand), self.g.q):
                    if self.in_s(cand[pos]):
                        self.edges.append((v, cand[pos]))
        self.revealed = closed


def next_level(graph: Graph, level: list, seen: set) -> list:
    return sorted({w for v in level for w in graph.adj(v)} - seen)


def root_bit(f, graph: Graph, root: int, labels_of) -> bool:
    """graph_bits_at at the root of the graph's edges, relabelled in id
    order; labels_of(vertex ids) gives their labels."""
    kept = sorted({root} | {u for e in graph.edges for u in e})
    index = {v: i for i, v in enumerate(kept)}
    cut = MultiGraph(len(kept), [(index[a], index[b]) for a, b in graph.edges])
    return bool(graph_bits_at(f, cut, labels_of(np.array(kept)), np.array([index[root]]))[0])


def stability_row(cfg, t: int) -> list:
    """[accepted, inner successes] of outer trial t ([0, -1] if rejected)."""
    host, f, k, hops = cfg.host, cfg.factor, cfg.inner_trials, cfg.factor.radius + 1
    n = host.n
    st = trial_state(cfg.seed, t)
    root, vkey = fold(st, 4) * n >> 64, fold(st, 2)

    def labels(copy: int):
        return lambda vs: CoupledLabels(
            np.array([fold(vkey, v) for v in vs.tolist()], dtype=np.uint64), cfg.p)(copy)

    if isinstance(host, ConfigModelHost):
        g = explore_ball(Config(n, host.d, fold(st, 1)), root, hops)
    else:
        g = explore_ball(Er(n, host.lam, fold(st, 1)), root, hops)
    if not root_bit(f, g, root, labels(0)):
        return [0.0, -1.0]
    if isinstance(host, ConfigModelHost):  # every copy's graph is g
        return [1.0, float(sum(root_bit(f, g, root, labels(j)) for j in range(1, k + 1)))]
    cut = percolation_cut(cfg.p)

    def in_s(v: int) -> bool:
        return fold(fold(vkey, v), PERC_TAG) < cut

    copies = explore_copies(g, st, root, k, hops, in_s)
    return [1.0, float(sum(root_bit(f, copy, root, labels(j)) for j, copy in enumerate(copies, 1)))]


def explore_ball(g: Graph, root: int, hops: int) -> Graph:
    level, seen = [root], {root}
    for depth in range(hops + 1):
        g.reveal(level)
        if depth < hops:
            level = next_level(g, level, seen)
            seen |= set(level)
    return g


def explore_copies(g: Er, st: int, root: int, k: int, hops: int, in_s) -> list:
    """Copies 1..k of the trial of state st whose graph g has its ball
    revealed, each explored out to hops; in_s(v) says whether v is in S."""
    copies = [ErCopy(g, fold(fold(st, 3), j), in_s) for j in range(1, k + 1)]
    levels, seens = [[root] for _ in copies], [{root} for _ in copies]
    for depth in range(hops + 1):
        g.reveal(sorted({v for lv in levels for v in lv} - g.revealed))
        for c, copy in enumerate(copies):
            copy.reveal(levels[c])
        if depth < hops:
            for c, copy in enumerate(copies):
                levels[c] = next_level(copy, levels[c], seens[c])
                seens[c] |= set(levels[c])
    return copies


def explore_er_copies(n: int, lam: float, st: int, root: int, k: int, hops: int, in_s) -> tuple:
    """(g, copies) of the Erdos-Renyi trial of state st: g explored out to
    hops from the root, then copies 1..k."""
    st = int(st)
    g = explore_ball(Er(n, lam, fold(st, 1)), root, hops)
    return g, explore_copies(g, st, root, k, hops, in_s)


def stability_rows(cfg) -> list:
    return [stability_row(cfg, t) for t in range(cfg.trials)]
