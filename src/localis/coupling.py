"""Coupled families of independent sets and their intersection statistics.

One coupling trial fixes a host structure, a base labelling X0 and a
Bernoulli-p vertex subset S, then builds k correlated copies: copy i uses
fresh labels Xi on S and X0 elsewhere (for the Erdos-Renyi host, the induced
subgraph on S is additionally resampled per copy).  Estimated are the
prefix-intersection densities (on every host a trial's row, a running
product over the copies' bits) and the stability: the conditional
probability that the root keeps its inclusion bit when S is re-randomised,
given it was included.

Every host labels its nodes by the one rule of rng (CoupledLabels, and
coupled_label for single nodes): copy i of a node is a function of its
state, the copies are 1..k, and stability's inner trial j is copy j.  A tree
node's state comes from its lazy tree; vertex v of a graph-host trial of
state st has the state fold(fold(st, 2), v) (vertex_states).  The trial's
graph g is drawn from fold(st, 1), the stability root from fold(st, 4), and
copy j's graph is defined once, by copy_graphs: g on the configuration
model, and on the Erdos-Renyi host g with SxS redrawn from fold(st, 3).

On tree hosts every copy is evaluated by factors.TreeBlock over a block of
trials: the stability takes copy 0 of the block's outer trials, then the
inner copies 1..J of its accepted trials, parallel.BLOCK copies a call, so
the bits it holds stay bounded at any inner trial count.  On graph hosts
the intersections read copies 1..k one at a time, holding one copy graph,
and keep a running intersection over the whole graph, each copy projected
by one factors.graph_bits call (the tree-ball mask walked from the rule's
1-bits, at most once per vertex of a copy graph, which keeps what it
walked).  Stability needs the root's bit alone.  On the configuration model
it reads the root's ball in g once and relabels it per copy, by scalar
folds.  On the Erdos-Renyi host it is a block function too: the outer
trials run in passes of at most max(1, PASS_PAIRS // n), whose graphs are
stacked into one, copy 0 read at all the pass's roots by one
factors.graph_bits_at call; the copies of each accepted trial are stacked
into disjoint unions (er_copy_unions), at most max(1, PASS_PAIRS // n)
copies a union, and read at their roots the same way.  The generators of
a pass's graphs and of its copies' SxS redraws are hashed by one
rng.state_rngs call each, with the streams of one state_rng per state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .factors import PASS_PAIRS, Factor, TreeBlock, apply_factor, graph_bits, graph_bits_at
from .graphs import (
    ConfigModelHost,
    ErdosRenyiHost,
    MultiGraph,
    ball_is_tree,
    bernoulli_pairs,
    bernoulli_positions,
    er_edge_arrays,
    er_multigraph,
    neighborhood,
    sample_config_model,
    sample_er,
    triangle_pairs,
)
from .parallel import BLOCK, mean_stderr, per_trial, run_trials
from .profiles import binom_sum
from .rng import (
    CoupledLabels,
    StateRngs,
    coupled_label,
    fold,
    fold_np,
    percolation_cut,
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


def er_copy_unions(n: int, edges: tuple, S, lam: float, rngs):
    """The copies of an Erdos-Renyi trial whose graph g on 0..n-1 has the
    edges `edges`, (us, vs), as disjoint unions of at most
    max(1, PASS_PAIRS // n) copies each, so a caller holds O(n + PASS_PAIRS)
    vertices at any copy count.  Copy i + 1 draws its SxS pairs from
    rngs[i]: with rngs = copy_rngs(seed, k) the copies are those of
    er_resample_graphs(g, S, lam, k, seed).  Yields (copies, union): the
    copy ids of the union's copies, as a uint64 array, and one MultiGraph in
    which vertex v of copies[i] is vertex i * n + v.  A copy's edges are g's outside SxS
    and its drawn pairs (bernoulli_positions), unsorted, a union's pairs
    decoded by one triangle_pairs call; a vertex's relabelled id keeps the
    order of its copy's ids, so the union's rule bits and tree-ball bits are
    its copies'.  With fewer than 2 vertices in S no pair is redrawn and
    every copy is g.
    """
    S = np.sort(np.asarray(S, dtype=np.int64))
    us, vs = _outside(edges, S, n)
    k, q, width = len(rngs), lam / n, max(1, PASS_PAIRS // n)
    for lo in range(0, k, width):
        count = min(k - lo, width)
        shift = n * np.arange(count)
        heads, tails = [(us + shift[:, None]).ravel()], [(vs + shift[:, None]).ravel()]
        if S.size > 1:
            flat = [bernoulli_positions(rngs[i], S.size, q) for i in range(lo, lo + count)]
            a, b = triangle_pairs(S.size, np.concatenate(flat))
            at = np.repeat(shift, [x.size for x in flat])
            heads.append(S[a] + at)
            tails.append(S[b] + at)
        union = er_multigraph(count * n, lam, np.concatenate(heads), np.concatenate(tails))
        yield np.arange(lo + 1, lo + count + 1, dtype=np.uint64), union


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

    On graph hosts a trial samples its graph with sample_config_model or
    sample_er, and inner trial j takes copy j, as coupled_graph_intersections
    and coupled_er_intersections do: the projection bit at the root of copy
    j's labels on copy j's graph.  On the configuration model every copy's
    graph is g, so the root's ball is found once per outer trial and inner
    trial j relabels only the ball's vertices, by scalar folds.  On the
    Erdos-Renyi host no ball is read: the outer trials run in passes of at
    most max(1, PASS_PAIRS // n), their graphs stacked into one graph and
    their copies 0 read at its roots by one factors.graph_bits_at call
    (_er_stability_pass), and the copies of an accepted trial are the blocks
    of er_copy_unions' union graphs, labelled by one CoupledLabels call a
    union and read at their roots the same way.  A pass's graph and a union
    hold at most max(n, PASS_PAIRS) vertices, and a copy's generator is
    built only when its pairs are drawn, so memory stays O(n + PASS_PAIRS)
    plus the copies' seed words at any inner trial count.

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

    n = host.n
    if isinstance(host, ErdosRenyiHost):

        def er_block(lo: int, hi: int):
            width = max(1, PASS_PAIRS // n)  # outer trials a pass
            return np.concatenate([
                _er_stability_pass(cfg, trial_state_np(cfg.seed, np.arange(a, min(hi, a + width))))
                for a in range(lo, hi, width)
            ])

        return er_block

    cut = percolation_cut(cfg.p)

    def one(t: int):
        st = trial_state(cfg.seed, t)
        root = fold(st, 4) * n >> 64  # uniform up to a bias of n / 2^64
        g = _sample_graph(host, fold(st, 1))
        if not ball_is_tree(g, root, f.radius + 1):  # the projection gives bit 0
            return [0.0, -1.0]
        # every copy's graph is g: the root's ball is read once, relabelled per copy
        nb = neighborhood(g, root, f.radius, None)
        vertex_key, memo = fold(st, 2), {}  # vertex v has the state fold(vertex_key, v)
        states = [fold(vertex_key, v) for v in nb.source_vertices.tolist()]

        def bit(copy: int) -> int:
            """The root's bit on its ball under copy `copy`'s labels."""
            labels = [coupled_label(s, copy, cut, memo) for s in states]
            return apply_factor(f, nb.with_labels(labels))

        if bit(0) != 1:
            return [0.0, -1.0]
        return [1.0, float(sum(bit(j) for j in range(1, cfg.inner_trials + 1)))]

    return per_trial(one)


def _er_stability_pass(cfg: CouplingConfig, st: np.ndarray) -> np.ndarray:
    """The stability rows of the Erdos-Renyi trials of states st.  Trial
    t's graph is drawn from fold(st[t], 1) as sample_er draws it, and the
    pass's graphs are stacked into one, trial t's vertex v at t * n + v,
    labelled by one CoupledLabels call; copy 0 is read at the roots by one
    graph_bits_at call.  The copies of the accepted trials are seeded by one
    copy_rngs call and evaluated per trial, a union of er_copy_unions at a
    time, at its copies' roots."""
    f, host, n, k = cfg.factor, cfg.host, cfg.host.n, cfg.inner_trials
    at = n * np.arange(st.size)  # trial t's vertex 0
    roots = np.array([s * n >> 64 for s in fold_np(st, 4).tolist()])  # up to a bias of n / 2^64
    edges = [er_edge_arrays(n, host.lam, rng) for rng in state_rngs(fold_np(st, 1))]
    shift = np.repeat(at, [us.size for us, _ in edges])
    g = er_multigraph(
        n * st.size, host.lam, *(np.concatenate(ends) + shift for ends in zip(*edges))
    )
    labels = CoupledLabels(vertex_states(st, n).ravel(), cfg.p)
    acc = np.flatnonzero(graph_bits_at(f, g, labels(0), roots + at))
    rows = np.tile([0.0, -1.0], (st.size, 1))
    rows[acc] = 1.0, 0.0
    # inner trial j takes copy j, a block of copies per union graph
    rngs = copy_rngs(fold_np(st[acc], 3), k)
    for j, t in enumerate(acc.tolist()):
        own = slice(at[t], at[t] + n)
        S = np.flatnonzero(labels.in_s[own])
        for copies, union in er_copy_unions(n, edges[t], S, host.lam, rngs[j * k : (j + 1) * k]):
            union_roots = roots[t] + n * np.arange(copies.size)
            bits = graph_bits_at(f, union, labels(copies[:, None], own).ravel(), union_roots)
            rows[t, 1] += np.count_nonzero(bits)
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
