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
v) (vertex_states).  The trial's graph g is drawn from fold(st, 1), the
stability root from fold(st, 4), and copy j's graph is defined once, by
copy_graphs: g on the configuration model, and on the Erdos-Renyi host g
with SxS redrawn from fold(st, 3).

On tree hosts every copy is evaluated by factors.TreeBlock over a block of
trials: the stability takes copy 0 of the block's outer trials, then the
inner copies 1..J of its accepted trials, parallel.BLOCK copies a call, so
the bits it holds stay bounded at any inner trial count.  On graph hosts
the intersections read copies 1..k one at a time, holding one copy graph,
and keep a running intersection over the whole graph, each copy projected
by one factors.graph_bits call (the tree-ball mask walked from the rule's
1-bits, at most once per vertex of a copy graph, which keeps what it
walked).  Stability needs the root's bit alone, and the rule and the mask
at a root read only the incidences of vertices within radius + 1 of it.  So
on both graph hosts it is one block function (_graph_stability_pass): the
outer trials run in passes of at most max(1, PASS_PAIRS // n), whose graphs
are drawn as edge arrays and stacked, cut to the roots' neighbourhoods
(graphs.ball_cut), and read at the roots, copy 0 by one
factors.graph_bits_at call.  The copies of the accepted trials are read the
same way, at most PASS_PAIRS vertices a union of copies: on the
configuration model the accepted roots' cut balls of g, tiled once a copy;
on the Erdos-Renyi host each copy's graph (g's edges outside SxS and its
own SxS pairs), packed across trials (er_copy_packs) and cut to the
copies' roots.  The generators of a pass's graphs and of its copies' SxS
redraws are hashed by one rng.state_rngs call each, with the streams of
one state_rng per state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .factors import PASS_PAIRS, Factor, TreeBlock, graph_bits, graph_bits_at
from .graphs import (
    ConfigModelHost,
    ErdosRenyiHost,
    MultiGraph,
    ball_cut,
    bernoulli_pairs,
    bernoulli_positions,
    er_edge_arrays,
    er_multigraph,
    incidence_arrays,
    neighborhood,  # unused here; benchmarks/test_bench.py reads this binding
    sample_config_model,
    sample_er,
    triangle_pairs,
)
from .parallel import BLOCK, mean_stderr, per_trial, run_trials
from .profiles import binom_sum
from .rng import (
    CoupledLabels,
    StateRngs,
    fold,
    fold_np,
    state_rng,
    state_rngs,
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

    def block(lo: int, hi: int):
        trees = TreeBlock(cfg.factor, cfg.host, trial_state_np(cfg.seed, np.arange(lo, hi)), cfg.p)
        return trees.bits(copies).cumprod(axis=0).T

    rows = run_trials(block, cfg.trials, cfg.workers)
    return _prefix_estimate(cfg, rows)


def _prefix_estimate(cfg: CouplingConfig, prefix: np.ndarray) -> IntersectionEstimate:
    """Means and standard errors of per-trial prefix-intersection rows."""
    # column-major like the tree blocks' cumprod(...).T: mean(axis=0) then sums
    # each column pairwise, not row by row, and so rounds the same last bits
    prefix = np.asfortranarray(prefix)
    means = prefix.mean(axis=0)
    ses = np.array([mean_stderr(prefix[:, i])[1] for i in range(cfg.k)])
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


def _outside(edges: tuple, S: np.ndarray, n: int) -> tuple:
    """The edges (us, vs) of a graph on 0..n-1 not inside SxS, as arrays
    (us, vs), in their order."""
    in_s = np.zeros(n, dtype=bool)
    in_s[S] = True
    us, vs = edges
    keep = ~(in_s[us] & in_s[vs])
    return us[keep], vs[keep]


def copy_rngs(seeds, k: int) -> StateRngs:
    """The generators of the SxS redraws of copies 1..k of the Erdos-Renyi
    trials whose copies are seeded by `seeds` (fold(st, 3) for the trial of
    state st), an int or a uint64 array: entry j * k + i, copy i + 1 of
    seeds[j], is state_rng(fold(trial_state(seeds[j], 0x5E5A), i)), all
    hashed by one state_rngs call."""
    streams = trial_state_np(np.asarray(seeds, dtype=np.uint64).reshape(-1, 1), 0x5E5A)
    return state_rngs(fold_np(streams, np.arange(k, dtype=np.uint64)))


def er_resample_graphs(g: MultiGraph, S, lam: float, k: int, seed):
    """Yield k copies of g with the induced subgraph on S independently
    resampled, one per step, so a caller holds only the copy it reads.

    Every copy keeps all edges of g not inside SxS, filtered once; pairs
    within SxS are re-drawn independently per copy with probability lam/n,
    so each copy is again Erdos-Renyi(n, lam/n) marginally.  Copy i + 1
    draws its pairs of the sorted S by one bernoulli_pairs call on
    state_rng(fold(trial_state(seed, 0x5E5A), i)), the stream of
    copy_rngs(seed, k)[i], seeded when the copy is drawn, and lists its
    edges sorted.
    """
    S = np.sort(np.asarray(S, dtype=np.int64))
    n = g.n
    us, vs = _outside(g.edge_array.T, S, n)
    kept = us * n + vs  # edge (u, v) as u * n + v
    streams = trial_state(seed, 0x5E5A)
    for i in range(k):
        a, b = bernoulli_pairs(state_rng(fold(streams, i)), S.size, lam / n)
        merged = np.concatenate((kept, S[a] * n + S[b]))
        merged.sort()
        yield er_multigraph(n, lam, *np.divmod(merged, n))


def er_copy_packs(n: int, lam: float, outside: list, S: list, rngs: StateRngs):
    """The copies of Erdos-Renyi trials j = 0..J-1 on 0..n-1, packed across
    trials into disjoint unions of at most max(1, PASS_PAIRS // n) copies
    each, so a caller holds O(n + PASS_PAIRS) vertices at any copy count.
    Trial j has the edges outside[j], (us, vs), of its graph g outside
    S[j] x S[j], S[j] sorted, and rngs holds k = len(rngs) // J generators
    a trial: copy i + 1 of trial j draws its SxS pairs from rngs[j * k + i].
    With rngs = copy_rngs(seeds, k) and outside[j] = _outside(edges of g,
    S[j], n) the copies of trial j are those of er_resample_graphs(g, S[j],
    lam, k, seeds[j]).  Yields (pairs, us, vs): the flat ids j * k + i of
    the union's copies, increasing, and the union's edges, the vertex v of
    copy pairs[s] at s * n + v: the copy's edges outside SxS and its drawn
    pairs (bernoulli_positions), unsorted, each trial's pairs in the union
    decoded by one triangle_pairs call.  A vertex's id in the union keeps
    the order of its ids in the copy, so the union's rule bits and
    tree-ball bits are its copies'.  With fewer than 2 vertices in S[j] no
    pair is redrawn and every copy of trial j is g.
    """
    k, q, width = len(rngs) // len(S), lam / n, max(1, PASS_PAIRS // n)
    for lo in range(0, len(rngs), width):
        hi = min(len(rngs), lo + width)
        heads, tails = [], []
        for j in range(lo // k, (hi - 1) // k + 1):  # the trials of the union's copies
            mine = range(max(lo, j * k), min(hi, (j + 1) * k))
            shift = n * np.arange(mine.start - lo, mine.stop - lo)
            us, vs = outside[j]
            heads.append((us + shift[:, None]).ravel())
            tails.append((vs + shift[:, None]).ravel())
            if S[j].size > 1:
                flat = [bernoulli_positions(rngs[i], S[j].size, q) for i in mine]
                a, b = triangle_pairs(S[j].size, np.concatenate(flat))
                at = np.repeat(shift, [x.size for x in flat])
                heads.append(S[j][a] + at)
                tails.append(S[j][b] + at)
        yield np.arange(lo, hi), np.concatenate(heads), np.concatenate(tails)


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
    prefix-intersection densities.
    """
    host = cfg.host
    if not isinstance(host, host_type):
        raise TypeError(f"expected {host_type.__name__}, got {host!r}")
    f, k, n = cfg.factor, cfg.k, host.n

    def one(t: int):
        st = trial_state(cfg.seed, t)
        g = _sample_graph(host, fold(st, 1))
        labels = CoupledLabels(vertex_states(st, n), cfg.p)
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
        return q**m if m != 1 else q
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

    On graph hosts a trial draws the graph sample_config_model or sample_er
    draws, and inner trial j takes copy j, as coupled_graph_intersections
    and coupled_er_intersections do: the projection bit at the root of copy
    j's labels on copy j's graph.  The bits are read in passes of outer
    trials on their graphs cut to the roots' neighbourhoods
    (_graph_stability_pass), which hold at most max(n, PASS_PAIRS) vertices'
    edges, and a copy's generator is built only when its pairs are drawn,
    so memory stays O(n + PASS_PAIRS) plus the copies' seed words at any
    inner trial count.

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
    out = {}
    for m in range(cfg.k):
        g = np.array([_jackknife_moment(int(c), cfg.inner_trials, m) for c in counts])
        out[m] = mean_stderr(g)
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

        def block(lo: int, hi: int):
            trees = TreeBlock(f, host, trial_state_np(cfg.seed, np.arange(lo, hi)), cfg.p)
            rows = np.tile([0.0, -1.0], (hi - lo, 1))
            acc = np.flatnonzero(trees.bits(0))
            rows[acc] = 1.0, 0.0
            for j in range(0, cfg.inner_trials, BLOCK):  # inner successes, BLOCK copies a call
                rows[acc, 1] += np.count_nonzero(trees.bits(copies[j : j + BLOCK], acc), axis=0)
            return rows

        return block

    def graph_block(lo: int, hi: int):
        width = max(1, PASS_PAIRS // host.n)  # outer trials a pass
        return np.concatenate([
            _graph_stability_pass(cfg, trial_state_np(cfg.seed, np.arange(a, min(hi, a + width))))
            for a in range(lo, hi, width)
        ])

    return graph_block


def _edge_arrays(host, rng) -> tuple:
    """The edges (us, vs) of the graph _sample_graph(host, state) draws,
    given rng = state_rng(state), in another order: on the configuration
    model the vertices of the half-edges 2i and 2i + 1 of the drawn
    permutation, edge i; on the Erdos-Renyi host er_edge_arrays."""
    if isinstance(host, ConfigModelHost):
        ends = rng.permutation(host.n * host.d) // host.d
        return ends[0::2], ends[1::2]
    return er_edge_arrays(host.n, host.lam, rng)


def _cut_graph(n: int, us: np.ndarray, vs: np.ndarray) -> MultiGraph:
    """The MultiGraph on 0..n-1 whose edge i is us[i] - vs[i]."""
    start, nbr, eid = incidence_arrays(n, us, vs)
    return MultiGraph(n, start=start, nbr=nbr, eid=eid)


def _graph_stability_pass(cfg: CouplingConfig, st: np.ndarray) -> np.ndarray:
    """The stability rows of the graph-host trials of states st, read from
    the roots' neighbourhoods alone.  Trial t's graph is drawn from
    fold(st[t], 1) (_edge_arrays), the pass's graphs stacked into one, trial
    t's vertex v at t * n + v, and cut to the edges with an end within
    f.radius + 1 of a root (graphs.ball_cut): the rule's bit and the
    tree-ball mask at a root read no other incidence, so the cut graph's
    bits at the roots are the whole graph's.  Copy 0 is read at the roots
    by one graph_bits_at call, labelled at the kept vertices alone.  The
    accepted trials' copies are read the same way, a union of copies at a
    time: on the configuration model every copy's graph is g, so the
    accepted roots' cut balls are tiled once a copy; on the Erdos-Renyi host
    the copies are packed across trials by er_copy_packs, seeded by one
    copy_rngs call, and each union is cut to its copies' roots."""
    f, host, n, k = cfg.factor, cfg.host, cfg.host.n, cfg.inner_trials
    hops = f.radius + 1
    at = n * np.arange(st.size)  # trial t's vertex 0
    roots = np.array([s * n >> 64 for s in fold_np(st, 4).tolist()])  # up to a bias of n / 2^64
    edges = [_edge_arrays(host, rng) for rng in state_rngs(fold_np(st, 1))]
    shift = np.repeat(at, [us.size for us, _ in edges])
    kept, cut_roots, us, vs = ball_cut(
        *(np.concatenate(ends) + shift for ends in zip(*edges)), roots + at, n * st.size, hops
    )
    key = fold_np(st, 2)  # vertex v of trial t has the state fold(key[t], v)
    labels = CoupledLabels(fold_np(key[kept // n], kept % n), cfg.p)
    acc = np.flatnonzero(graph_bits_at(f, _cut_graph(kept.size, us, vs), labels(0), cut_roots))
    rows = np.tile([0.0, -1.0], (st.size, 1))
    rows[acc] = 1.0, 0.0
    if not acc.size:
        return rows
    # inner trial j takes copy j, a union of copies a graph_bits_at call
    if isinstance(host, ErdosRenyiHost):
        coupled = CoupledLabels(vertex_states(st[acc], n), cfg.p)  # of the accepted trials
        S = [np.flatnonzero(in_s) for in_s in coupled.in_s]
        outside = [_outside(edges[t], S_j, n) for t, S_j in zip(acc.tolist(), S)]
        rngs = copy_rngs(fold_np(st[acc], 3), k)
        for pairs, us, vs in er_copy_packs(n, host.lam, outside, S, rngs):
            j, i = np.divmod(pairs, k)  # copy i + 1 of accepted trial j
            kept, union_roots, us, vs = ball_cut(
                us, vs, roots[acc[j]] + n * np.arange(pairs.size), n * pairs.size, hops
            )
            slot, v = np.divmod(kept, n)
            union_labels = coupled(i[slot].astype(np.uint64) + 1, (j[slot], v))
            bits = graph_bits_at(f, _cut_graph(kept.size, us, vs), union_labels, union_roots)
            rows[acc, 1] += np.bincount(j, weights=bits, minlength=acc.size)
        return rows
    # every copy's graph is g: the accepted roots' balls, tiled once a copy
    ball, ball_roots, us, vs = ball_cut(us, vs, cut_roots[acc], kept.size, hops)
    m = ball.size
    width = max(1, PASS_PAIRS // m)  # copies a union
    for lo in range(0, k, width):
        copies = np.arange(lo + 1, min(k, lo + width) + 1, dtype=np.uint64)[:, None]
        shift = m * np.arange(copies.size)[:, None]  # copies[i]'s ball at i * m
        union = _cut_graph(copies.size * m, (us + shift).ravel(), (vs + shift).ravel())
        union_labels = labels(copies, np.broadcast_to(ball, (copies.size, m)))
        bits = graph_bits_at(f, union, union_labels.ravel(), (ball_roots + shift).ravel())
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
