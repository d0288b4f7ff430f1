"""Coupled families of independent sets and their intersection statistics.

One coupling trial fixes a host structure, a base labelling X0 and a
Bernoulli-p vertex subset S, then builds k correlated copies: copy i uses
fresh labels Xi on S and X0 elsewhere (for the Erdos-Renyi host, the induced
subgraph on S is additionally resampled per copy).  Estimated are the
prefix-intersection densities (on every host a trial's row, a running
product over the copies' bits) and the stability: the conditional
probability that the root keeps its inclusion bit when S is re-randomised,
given it was included.

Every host labels its nodes by the one rule of rng (CoupledLabels): copy i
of a node is a function of its state, the copies are 1..k, and stability's
inner trial j is copy j.  A tree node's state comes from its lazy tree;
vertex v of a graph-host trial of state st has the state fold(fold(st, 2),
v) (vertex_states).  The trial's graph g is keyed by fold(st, 1), the
stability root is fold(st, 4) * n >> 64, and copy j's graph is g on the
configuration model and, on the Erdos-Renyi host, g with the pairs inside
SxS drawn afresh, keyed by fold(st, 3).

On tree hosts every copy is evaluated by factors.TreeBlock over a block of
trials: the stability takes copy 0 of the block's outer trials, then the
inner copies 1..J of its accepted trials, parallel.BLOCK copies a call, so
the bits it holds stay bounded at any inner trial count.  On graph hosts
the intersections draw whole graphs (sample_config_model, sample_er, and
per copy copy_graphs: g, or er_resample_graphs from fold(st, 3)), read
copies 1..k one at a time, holding one copy graph, and keep a running
intersection over the whole graph, each copy projected by one
factors.graph_bits call (the tree-ball mask walked from the rule's 1-bits,
at most once per vertex of a copy graph, which keeps what it walked).
Stability needs the root's bit alone, and the rule and the mask at a root
read only the incidences of vertices within radius + 1 of it.  So on both
graph hosts it draws nothing else (_graph_stability_pass): a pass of outer
trials explores each trial's graph from its root out to radius + 1, a level
at a time (graphs.ConfigExploration pairs the half-edges of the vertices
reached, graphs.ErExploration draws their Erdos-Renyi pairs, by counters
keyed by fold(st, 1)), and reads copy 0 at the roots of the explored balls
by one factors.graph_bits_at call.  The copies of the accepted trials are
read about PASS_PAIRS vertices a union of copies: on the configuration
model the accepted roots' balls of g, tiled once a copy, by the rule alone
(copy 0's mask found them trees, and every copy's graph is g); on the
Erdos-Renyi host the copies explored too (_ErCopies), all k of a trial
level by level together, their pairs outside SxS read from g, which reveals
further vertices as the copies reach them, and their pairs inside SxS
drawn afresh.  No stability trial costs O(n).  When S is empty
(percolation_cut(p) == 0, _empty_s) every copy is copy 0, so the
intersections and the stability on every host evaluate copy 0 alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .factors import PASS_PAIRS, Factor, TreeBlock, graph_bits, graph_bits_at
from .graphs import (
    ConfigExploration,
    ConfigModelHost,
    ErdosRenyiHost,
    ErExploration,
    Exploration,
    MultiGraph,
    bernoulli_pairs,
    bernoulli_reveal,
    er_multigraph,
    incidence_arrays,
    members,
    neighborhood,  # unused here; benchmarks/test_bench.py reads this binding
    sample_config_model,
    sample_er,
    sorted_set,
)
from .parallel import BLOCK, mean_stderr, per_trial, run_trials
from .profiles import binom_sum
from .rng import (
    CoupledLabels,
    below,
    fold,
    fold_np,
    percolated,
    percolation_cut,
    state_rng,
    trial_state,
    trial_state_np,
)


class ConditioningError(RuntimeError):
    """The conditioning event was never observed (no accepted outer trial)."""


@dataclass
class CouplingConfig:
    """Parameters of one coupled-family experiment."""

    p: float
    k: int
    factor: Factor
    host: object
    trials: int
    inner_trials: int = 400
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.trials < 1 or self.inner_trials < 1:
            raise ValueError("trials and inner_trials must be >= 1")


def host_scale(host) -> float:
    """Normalisation (log d)/d resp. (log lam)/lam used for alpha values."""
    return math.log(host.degree) / host.degree


@dataclass
class IntersectionEstimate:
    """Per-cardinality densities of the prefix intersections I1 .. I1&..&Ii.

    Raw densities are stored; normalised alpha values are computed on demand
    by dividing out the host scale.
    """

    k: int
    trials: int
    means: np.ndarray
    stderrs: np.ndarray
    scale: float
    p: float
    prefix_rows: np.ndarray = field(repr=False, default=None)

    def density(self, i: int) -> tuple:
        return float(self.means[i - 1]), float(self.stderrs[i - 1])

    def alpha(self, i: int) -> float:
        return float(self.means[i - 1]) / self.scale

    def alphas(self, upto: int | None = None) -> list:
        upto = self.k if upto is None else upto
        return [self.alpha(i) for i in range(1, upto + 1)]


@dataclass
class StabilityEstimate:
    """Nested Monte Carlo estimates of the stability moments E*[Q^m]."""

    outer_trials: int
    accepted: int
    inner_trials: int
    moments: dict
    density: tuple  # acceptance rate of the conditioning event, with stderr
    q_values: np.ndarray = field(repr=False, default=None)

    def moment(self, m) -> tuple:
        return self.moments[m]


def _empty_s(p: float) -> bool:
    """Whether S is empty at density p: percolation_cut(p) == 0, which
    holds at p = 0 and below about 2^-65.  Every copy is then copy 0, on
    every host."""
    return percolation_cut(p) == 0


# ---------------------------------------------------------------------------
# Tree host
# ---------------------------------------------------------------------------


def coupled_tree_intersections(cfg: CouplingConfig) -> IntersectionEstimate:
    """Prefix-intersection densities of k coupled copies on sampled trees.

    Per trial: sample a tree at the factor's radius, draw X0 and the subset S
    once, evaluate the root bit of copies 1..k, and record the running prefix
    products.  TreeBlock raises TypeError on a graph host.
    """
    copies = np.arange(1, cfg.k + 1)
    empty = _empty_s(cfg.p)

    def block(lo: int, hi: int):
        trees = TreeBlock(cfg.factor, cfg.host, trial_state_np(cfg.seed, np.arange(lo, hi)), cfg.p)
        if empty:  # every copy is copy 0
            return np.repeat(trees.bits(0)[:, None], cfg.k, axis=1)
        return trees.bits(copies).cumprod(axis=0).T

    rows = run_trials(block, cfg.trials, cfg.workers)
    return _prefix_estimate(cfg, rows)


def _prefix_estimate(cfg: CouplingConfig, prefix: np.ndarray) -> IntersectionEstimate:
    """Means and standard errors of per-trial prefix-intersection rows, each
    column summed pairwise (mean_stderr), whatever the rows' memory order."""
    means, ses = np.array([mean_stderr(prefix[:, i]) for i in range(cfg.k)]).T
    return IntersectionEstimate(
        cfg.k, cfg.trials, means, ses, host_scale(cfg.host), cfg.p, prefix_rows=prefix
    )


# ---------------------------------------------------------------------------
# Graph hosts (configuration model and Erdos-Renyi)
# ---------------------------------------------------------------------------


def _sample_graph(host, state: int) -> MultiGraph:
    if isinstance(host, ConfigModelHost):
        return sample_config_model(host.n, host.d, state)
    return sample_er(host.n, host.lam, state)


def er_resample_graphs(g: MultiGraph, S, lam: float, k: int, seed):
    """Yield k copies of g with the induced subgraph on S independently
    resampled, one per step, so a caller holds only the copy it reads.

    Every copy keeps all edges of g not inside SxS, filtered once; pairs
    within SxS are re-drawn independently per copy with probability lam/n,
    so each copy is again Erdos-Renyi(n, lam/n) marginally.  Copy i + 1
    draws its pairs of the sorted S by one bernoulli_pairs call on
    state_rng(fold(trial_state(seed, 0x5E5A), i)), seeded when the copy is
    drawn, and lists its edges sorted.
    """
    S = np.sort(np.asarray(S, dtype=np.int64))
    n = g.n
    in_s = np.zeros(n, dtype=bool)
    in_s[S] = True
    us, vs = g.edge_array.T
    outside = ~(in_s[us] & in_s[vs])
    kept = us[outside] * n + vs[outside]  # edge (u, v) as u * n + v
    streams = trial_state(seed, 0x5E5A)
    for i in range(k):
        a, b = bernoulli_pairs(state_rng(fold(streams, i)), S.size, lam / n)
        merged = np.concatenate((kept, S[a] * n + S[b]))
        merged.sort()
        yield er_multigraph(n, lam, *np.divmod(merged, n))


def vertex_states(st, n: int) -> np.ndarray:
    """The node states of the vertices 0..n-1 of a graph-host trial of state
    st: fold(fold(st, 2), v) for vertex v; one row per trial when st is an
    array of trial states."""
    key = fold(st, 2) if isinstance(st, int) else fold_np(st, 2)[:, None]
    return fold_np(key, np.arange(n, dtype=np.uint64))


def copy_graphs(host, g: MultiGraph, st: int, p: float, count: int):
    """The graphs of copies 1..count of the graph-host trial of state st,
    whose graph is g, one at a time: g itself on the configuration model;
    on the Erdos-Renyi host, er_resample_graphs from fold(st, 3) over S, the
    trial's vertices in S at density p, or g again when S holds fewer than
    2 vertices and so no pair to redraw."""
    if not isinstance(host, ErdosRenyiHost):
        return itertools.repeat(g, count)
    S = np.flatnonzero(CoupledLabels(vertex_states(st, g.n), p).in_s)
    if S.size < 2:
        return itertools.repeat(g, count)
    return er_resample_graphs(g, S, host.lam, count, fold(st, 3))


def _coupled_graph(cfg: CouplingConfig, host_type) -> IntersectionEstimate:
    """Prefix-intersection densities of k coupled copies on a graph host.

    Per trial: sample g and label its vertices by their states (X0, S and
    the fresh copies, rng.CoupledLabels); project copy j's labels on copy
    j's graph (copy_graphs; vertices with a non-tree (radius+1)-neighbourhood
    map to 0) by graph_bits and intersect it into the running intersection
    of copies 1..j-1.  A copy graph keeps the tree-ball bits its projections
    have walked (MultiGraph.balls), so the configuration-model copies, which
    all read g, walk the mask once per vertex at most, and each Erdos-Renyi
    copy walks it from its own rule's 1-bits.  A row is the k
    prefix-intersection densities.  When S is empty every copy is copy 0 on
    g, so a row repeats copy 0's density k times.
    """
    host = cfg.host
    if not isinstance(host, host_type):
        raise TypeError(f"expected {host_type.__name__}, got {host!r}")
    f, k, n = cfg.factor, cfg.k, host.n
    empty = _empty_s(cfg.p)

    def one(t: int):
        st = trial_state(cfg.seed, t)
        g = _sample_graph(host, fold(st, 1))
        labels = CoupledLabels(vertex_states(st, n), cfg.p)
        if empty:  # every copy is copy 0
            return np.repeat(graph_bits(f, g, labels(0)).sum() / n, k)
        row, alive = np.empty(k), np.ones(n, dtype=bool)
        for j, g_j in enumerate(copy_graphs(host, g, st, cfg.p, k), 1):
            alive &= graph_bits(f, g_j, labels(j))
            row[j - 1] = alive.sum() / n
        return row

    return _prefix_estimate(cfg, run_trials(per_trial(one), cfg.trials, cfg.workers))


def coupled_graph_intersections(cfg: CouplingConfig) -> IntersectionEstimate:
    """Coupled copies on configuration-model graphs, every copy on g."""
    return _coupled_graph(cfg, ConfigModelHost)


def coupled_er_intersections(cfg: CouplingConfig) -> IntersectionEstimate:
    """Coupled copies on Erdos-Renyi graphs, each copy with its own induced
    subgraph on S."""
    return _coupled_graph(cfg, ErdosRenyiHost)


# ---------------------------------------------------------------------------
# Stability
# ---------------------------------------------------------------------------


def _jackknife_moment(count: int, n: int, m: float) -> float:
    """Estimate Q^m from a Binomial(n, Q) success count.

    Plug-in (count/n)^m inflated by O(m^2/n); the leave-one-out jackknife
    removes the O(1/n) term and is exactly unbiased for integer m <= 2.
    """
    q = count / n
    if m == 0:
        return 1.0
    if m == 1 or n < 2:
        return q**m
    loo_one = ((count - 1) / (n - 1)) ** m if count > 0 else 0.0
    loo_zero = (count / (n - 1)) ** m
    loo_mean = (count / n) * loo_one + ((n - count) / n) * loo_zero
    return n * q**m - (n - 1) * loo_mean


def estimate_stability(cfg: CouplingConfig) -> StabilityEstimate:
    """Nested Monte Carlo stability moments.

    Outer loop: sample (host structure, X0, S); accept the trial when the
    root's inclusion bit under X0 is 1 (rejection implements the
    conditioning).  Inner loop: re-randomise labels on S (and, for the
    Erdos-Renyi host, edges inside SxS) inner_trials times; the inner success
    fraction is one Q sample.  The moments m = 0..k-1 are jackknife-corrected.

    On graph hosts inner trial j takes copy j, and the bits are the
    projection bits at the root of copy j's labels on copy j's graph, as in
    coupled_graph_intersections and coupled_er_intersections, of the same
    laws: a pass of outer trials explores each trial's graph, and each
    Erdos-Renyi copy, from the root out to f.radius + 1 alone
    (_graph_stability_pass), so a trial costs the same at any n, and a union
    of copies holds about PASS_PAIRS vertices at any inner trial count.

    Raises ConditioningError when no outer trial is accepted.
    """
    rows = run_trials(_stability_trial_fn(cfg), cfg.trials, cfg.workers)
    accepted = rows[:, 0] == 1.0
    n_acc = int(accepted.sum())
    if n_acc == 0:
        raise ConditioningError(
            "conditioning event not observed: the factor never included the root"
        )
    counts = rows[accepted, 1].astype(np.int64)
    q_values = counts / cfg.inner_trials
    distinct, at = np.unique(counts, return_inverse=True)  # a moment per distinct count
    out = {}
    for m in range(cfg.k):
        g = np.array([_jackknife_moment(c, cfg.inner_trials, m) for c in distinct.tolist()])
        out[m] = mean_stderr(g[at])
    density = mean_stderr(rows[:, 0])
    return StabilityEstimate(
        cfg.trials, n_acc, cfg.inner_trials, out, density, q_values=q_values
    )


def _stability_trial_fn(cfg: CouplingConfig):
    """Block function of the stability rows [accepted, inner successes]
    ([0, -1] for a rejected outer trial)."""
    f = cfg.factor
    host = cfg.host
    if host.tree:
        copies = np.arange(1, cfg.inner_trials + 1, dtype=np.uint64)
        empty = _empty_s(cfg.p)

        def block(lo: int, hi: int):
            trees = TreeBlock(f, host, trial_state_np(cfg.seed, np.arange(lo, hi)), cfg.p)
            rows = np.tile([0.0, -1.0], (hi - lo, 1))
            acc = np.flatnonzero(trees.bits(0))
            rows[acc] = 1.0, 0.0
            if empty:  # every copy is copy 0
                rows[acc, 1] = cfg.inner_trials
                return rows
            for j in range(0, cfg.inner_trials, BLOCK):  # inner successes, BLOCK copies a call
                rows[acc, 1] += np.count_nonzero(trees.bits(copies[j : j + BLOCK], acc), axis=0)
            return rows

        return block

    # outer trials a pass: about PASS_PAIRS vertices of explored balls, at
    # most 1 + D + ... + D^(radius + 1) a ball for degree D
    ball = min(host.n, sum(math.ceil(host.degree) ** i for i in range(f.radius + 2)))
    width = max(1, PASS_PAIRS // ball)

    def graph_block(lo: int, hi: int):
        return np.concatenate([
            _graph_stability_pass(cfg, trial_state_np(cfg.seed, np.arange(a, min(hi, a + width))))
            for a in range(lo, hi, width)
        ])

    return graph_block


def _graphs(host, st: np.ndarray) -> Exploration:
    """The graphs g of the graph-host trials of states st, one a group,
    drawn on demand from the keys fold(st, 1): trial t's is group t."""
    if isinstance(host, ConfigModelHost):
        return ConfigExploration(host.n, host.d, fold_np(st, 1))
    return ErExploration(host.n, host.lam, fold_np(st, 1))


def _cut_graph(n: int, us: np.ndarray, vs: np.ndarray) -> MultiGraph:
    """The MultiGraph on 0..n-1 whose edge i is us[i] - vs[i]."""
    start, nbr, eid = incidence_arrays(n, us, vs)
    return MultiGraph(n, start=start, nbr=nbr, eid=eid)


class _ErCopies(Exploration):
    """Copies 1..k of Erdos-Renyi trials, explored like their graph g (an
    ErExploration): copy j of trial t is group c = i * k + j - 1 for
    t = trials[i], a group of g.
    Vertex v of trial t has the state fold(key[t], v) and is in S at density
    p (rng.percolated).  A pair with an end outside S is g's, and g reveals
    the vertices a batch of copies reaches that it has not revealed, as one
    batch, before the copies do; a pair inside SxS is the copy's own, drawn
    when the copy reveals its first end, as bernoulli_reveal draws over all
    the vertices the copy has not revealed, from the stream fold(keys[c],
    v), and kept when its other end is in S.  Revealing all k copies of a
    trial together fixes the order in which g reveals its vertices for the
    trial, whatever other trials share the batch.  At p = 1 no pair is g's,
    and g is not read.  g's reveal and the copies' SxS draws share one
    bernoulli_reveal call a level, the copies' groups numbered after g's."""

    def __init__(self, g: ErExploration, trials: np.ndarray, k: int, key: np.ndarray, p: float,
                 keys: np.ndarray, q: float):
        super().__init__(g.n)
        self.g, self.trials, self.k, self.key, self.p, self.keys, self.q = (
            g, trials, k, key, p, keys, q)
        self._reached = None  # (sorted keys, in S) of the vertices the last batch reached

    def _in_s(self, t: np.ndarray, v: np.ndarray) -> np.ndarray:
        return percolated(fold_np(self.key[t], v), self.p)

    def _draw(self, batch: np.ndarray, prior: np.ndarray) -> tuple:
        n, g = self.n, self.g
        c, v = np.divmod(batch, n)
        t = self.trials[c // self.k]
        if self._reached is None:  # the roots
            in_s = self._in_s(t, v)
        else:  # a level explore() takes from the vertices the last batch reached
            keys, flags = self._reached
            in_s = flags[keys.searchsorted(batch)]
        drawers = np.flatnonzero(in_s)
        need = sorted_set(t * n + v) if self.p < 1.0 else batch[:0]  # at p = 1 all is SxS
        need = need[~members(g.revealed, need)]
        g.revealed = np.sort(np.concatenate((g.revealed, need)))
        shift = g.keys.size * n  # the copies' groups after g's
        i, ends = bernoulli_reveal(
            np.concatenate((g.streams(need), fold_np(self.keys[c[drawers]], v[drawers]))),
            np.concatenate((need, batch + shift)),
            np.concatenate((np.arange(need.size), need.size + drawers)),
            np.concatenate((g.revealed, self.revealed + shift)), n, self.q)
        mine = i >= need.size
        g.add(need[i[~mine]], ends[~mine])
        j, fresh = drawers[i[mine] - need.size], ends[mine] - shift
        i, ends = g.neighbours(t * n + v) if self.p < 1.0 else (batch[:0], batch[:0])
        ends += (c[i] - t[i]) * n  # as keys of the copy
        s_ends = self._in_s(np.concatenate((t[i], t[j])), np.concatenate((ends, fresh)) % n)
        own = s_ends[i.size:]
        # g's pairs outside SxS, each from the end the copy reveals first
        keep = ~(in_s[i] & s_ends[: i.size])
        keep &= ~members(prior, ends) & ~(members(batch, ends) & (ends < batch[i]))
        fresh = fresh[own]
        tails = np.concatenate((ends[keep], fresh))
        flags = np.concatenate((s_ends[: i.size][keep], np.ones(fresh.size, dtype=bool)))
        order = tails.argsort()
        self._reached = tails[order], flags[order]
        return np.concatenate((batch[i[keep]], batch[j[own]])), tails


def _union_parts(trials: np.ndarray, sizes: np.ndarray) -> list:
    """The trials cut, in order, into parts whose sizes add up to about
    PASS_PAIRS: a part starts where the sizes before it pass a multiple of
    PASS_PAIRS, so it holds at most PASS_PAIRS plus one trial's size."""
    unions = (np.cumsum(sizes) - sizes) // PASS_PAIRS
    return np.split(trials, np.flatnonzero(np.diff(unions)) + 1)


def _graph_stability_pass(cfg: CouplingConfig, st: np.ndarray) -> np.ndarray:
    """The stability rows of the graph-host trials of states st, read from
    the roots' neighbourhoods alone.  Trial t's graph g is explored from its
    root, fold(st[t], 4) * n >> 64, out to f.radius + 1 (_graphs: the
    configuration model paired, the Erdos-Renyi graph drawn, a vertex at a
    time): the rule's bit and the tree-ball mask at a root read nothing
    outside its ball of that radius, so the bits at the roots of the
    explored balls (Exploration.cut), as one graph with its vertices
    renumbered in (trial, vertex id) order, are the whole graph's.  Copy 0 is read at the roots by one graph_bits_at call,
    labelled at the explored vertices alone.  The accepted trials' copies
    are read a union of copies a call: on the configuration model every
    copy's graph is g, so the accepted roots' balls, trees by copy 0's
    mask, are tiled once a copy and read by f.graph_rule alone; on the
    Erdos-Renyi host the copies are explored too (_ErCopies) and read as
    copy 0 is, all k copies of an accepted trial in one union, the trials
    taken in order while their copies' balls hold about PASS_PAIRS
    vertices."""
    f, host, n, k = cfg.factor, cfg.host, cfg.host.n, cfg.inner_trials
    hops = f.radius + 1
    key = fold_np(st, 2)  # vertex v of trial t has the state fold(key[t], v)
    roots = np.arange(st.size) * n + below(fold_np(st, 4), n)
    g = _graphs(host, st)
    g.explore(roots, hops)
    kept, us, vs, at = g.cut(roots)
    labels = CoupledLabels(fold_np(key[kept // n], kept % n), cfg.p)
    acc = np.flatnonzero(graph_bits_at(f, _cut_graph(kept.size, us, vs), labels(0), at))
    rows = np.tile([0.0, -1.0], (st.size, 1))
    rows[acc] = 1.0, 0.0
    if not acc.size:
        return rows
    if _empty_s(cfg.p):  # every copy is copy 0
        rows[acc, 1] = k
        return rows
    # inner trial j takes copy j, a union of copies a call
    if isinstance(host, ErdosRenyiHost):
        sizes = k * (kept.searchsorted((acc + 1) * n) - kept.searchsorted(acc * n))
        for part in _union_parts(acc, sizes):
            streams = fold_np(fold_np(st[part], 3)[:, None], np.arange(1, k + 1, dtype=np.uint64))
            copies = _ErCopies(g, part, k, key, cfg.p, streams.ravel(), host.lam / n)
            copy_roots = np.arange(part.size * k) * n + np.repeat(roots[part] - part * n, k)
            copies.explore(copy_roots, hops)
            kept, us, vs, at = copies.cut(copy_roots)
            c, v = np.divmod(kept, n)
            union_labels = CoupledLabels(fold_np(key[part[c // k]], v), cfg.p)(
                (c % k + 1).astype(np.uint64))
            bits = graph_bits_at(f, _cut_graph(kept.size, us, vs), union_labels, at)
            rows[part, 1] += np.count_nonzero(bits.reshape(part.size, k), axis=1)
        return rows
    # every copy's graph is g: the accepted roots' balls, tiled once a copy
    inside = np.zeros(st.size, dtype=bool)
    inside[acc] = True
    inside = inside[kept // n]
    index = np.cumsum(inside) - 1
    ball, ball_roots = np.flatnonzero(inside), index[at[acc]]
    us, vs = index[us[inside[us]]], index[vs[inside[us]]]
    m = ball.size
    width = max(1, PASS_PAIRS // m)  # copies a union
    for lo in range(0, k, width):
        copies = np.arange(lo + 1, min(k, lo + width) + 1, dtype=np.uint64)[:, None]
        shift = m * np.arange(copies.size)[:, None]  # copies[i]'s ball at i * m
        union = _cut_graph(copies.size * m, (us + shift).ravel(), (vs + shift).ravel())
        union_labels = labels(copies, np.broadcast_to(ball, (copies.size, m)))
        bits = f.graph_rule(union, union_labels.ravel())[(ball_roots + shift).ravel()]
        rows[acc, 1] += np.count_nonzero(bits.reshape(copies.size, -1), axis=0)
    return rows


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------


def run_intersections(cfg: CouplingConfig) -> IntersectionEstimate:
    """Dispatch the coupled-intersection estimator by host kind."""
    if cfg.host.tree:
        return coupled_tree_intersections(cfg)
    if isinstance(cfg.host, ErdosRenyiHost):
        return coupled_er_intersections(cfg)
    return coupled_graph_intersections(cfg)


@dataclass
class ScanRow:
    p: float
    intersections: IntersectionEstimate
    stability: StabilityEstimate
    binom_stats: dict


@dataclass
class ScanResult:
    rows: list
    max_jumps: dict

    def max_adjacent_jump(self) -> float:
        return max(self.max_jumps.values()) if self.max_jumps else 0.0


def scan_p(cfg: CouplingConfig, grid) -> ScanResult:
    """Run the couplings at each p in the grid with common trial counts and
    report the largest adjacent jump per statistic (a smoothness proxy)."""
    grid = [float(p) for p in grid]
    if any(not 0.0 <= p <= 1.0 for p in grid):
        raise ValueError("grid values must lie in [0, 1]")
    rows = []
    for p in grid:
        cfg_p = replace(cfg, p=p)
        inter = run_intersections(cfg_p)
        stab = estimate_stability(cfg_p)
        stats = {}
        if cfg.k >= 2:
            stats["binom_k2"] = binom_sum(inter.alphas(2))
        if cfg.k >= 3:
            stats["binom_k3"] = binom_sum(inter.alphas(3))
        rows.append(ScanRow(p, inter, stab, stats))
    jumps = {}
    for i in range(1, cfg.k + 1):
        vals = [r.intersections.density(i)[0] for r in rows]
        jumps[f"intersection_{i}"] = max(
            (abs(b - a) for a, b in zip(vals, vals[1:])), default=0.0
        )
    return ScanResult(rows, jumps)
