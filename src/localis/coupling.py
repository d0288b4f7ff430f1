"""Coupled families of independent sets and their intersection statistics.

One coupling trial fixes a host structure, a base labelling X0 and a
Bernoulli-p vertex subset S, then builds k correlated copies: copy i uses
fresh labels Xi on S and X0 elsewhere (for the Erdos-Renyi host, the induced
subgraph on S is additionally resampled per copy).  Estimated are the
prefix-intersection densities, the full density profile over copy subsets,
and the stability: the conditional probability that the root keeps its
inclusion bit when S is re-randomised, given it was included.

On tree hosts every copy is evaluated by factors.TreeBlock over a block of
trials: the stability takes copy 0 of the block's outer trials, then the
inner copies 1..J of each accepted trial.  Graph-host profile rows over the
copy subsets come from profiles.signatures and profiles.density_row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .factors import Factor, TreeBlock, _project_bits, apply_factor, neighborhood
from .graphs import (
    ConfigModelHost,
    ErdosRenyiHost,
    MultiGraph,
    ball_is_tree,
    incidence_arrays,
    non_tree_ball_mask,
    sample_config_model,
    sample_er,
    triangle_pairs,
)
from .parallel import mean_stderr, per_trial, run_trials
from .profiles import binom_sum, density_row, signatures
from .rng import fold, state_rng, trial_state, trial_state_np, uniform_labels


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
class ProfileSamples:
    """Per-trial density profiles rho(T) over all copy subsets T."""

    k: int
    rows: np.ndarray  # (trials, 2^k)


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


def coupled_tree_intersections(cfg: CouplingConfig, copy_streams=None) -> IntersectionEstimate:
    """Prefix-intersection densities of k coupled copies on sampled trees.

    Per trial: sample a tree at the factor's radius, draw X0 and the subset S
    once, evaluate the root bit of every copy, and record the running prefix
    products.  copy_streams permutes which fresh-label stream each copy uses
    (an exchangeability knob; the default is 1..k).  TreeBlock raises
    TypeError on a graph host.
    """
    streams = np.array(_copy_streams(cfg.k, copy_streams), dtype=np.uint64)[:, None]

    def block(lo: int, hi: int):
        states = trial_state_np(cfg.seed, np.arange(lo, hi))
        bits = TreeBlock(cfg.factor, cfg.host, states, cfg.p).bits(streams)
        return np.cumprod(bits, axis=0).T

    rows = run_trials(block, cfg.trials, cfg.workers)
    return _prefix_estimate(cfg, rows)


def _copy_streams(k: int, copy_streams) -> list:
    streams = (
        [int(s) for s in copy_streams] if copy_streams is not None else list(range(1, k + 1))
    )
    if len(streams) != k:
        raise ValueError("copy_streams must have length k")
    return streams


def _prefix_estimate(cfg: CouplingConfig, prefix: np.ndarray) -> IntersectionEstimate:
    """Means and standard errors of per-trial prefix-intersection rows."""
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


def er_resample_graphs(g: MultiGraph, S, lam: float, k: int, seed) -> list:
    """k copies of g with the induced subgraph on S independently resampled.

    Every copy keeps all edges of g not inside SxS; pairs within SxS are
    re-drawn independently per copy with probability lam/n, so each copy is
    again Erdos-Renyi(n, lam/n) marginally.  Copy i draws one uniform per
    pair of the sorted S, in triangle_pairs order, from the stream
    _copy_state(seed, i), and lists its edges sorted.
    """
    return list(_er_copies(g, S, lam, [_copy_state(seed, i) for i in range(k)]))


def _copy_state(seed, i: int) -> int:
    """The stream state of copy i of er_resample_graphs(..., seed)."""
    return fold(trial_state(seed, 0x5E5A), i)


def _er_copies(g: MultiGraph, S, lam: float, states):
    """Yield the copy of er_resample_graphs drawn from each stream state:
    g's edges outside SxS, filtered once, merged with the redrawn pairs."""
    S = np.sort(np.asarray(S, dtype=np.int64))
    n = g.n
    in_s = np.zeros(n, dtype=bool)
    in_s[S] = True
    us, vs = g.edge_array.T
    kept = (us * n + vs)[~(in_s[us] & in_s[vs])]  # edge (u, v) as u * n + v
    for state in states:  # each SxS pair is kept with probability lam/n
        drawn = state_rng(state).random(S.size * (S.size - 1) // 2) < lam / n
        a, b = triangle_pairs(S.size, drawn.nonzero()[0])
        merged = np.concatenate((kept, S[a] * n + S[b]))
        merged.sort()
        start, nbr, eid = incidence_arrays(n, *np.divmod(merged, n))
        yield MultiGraph(n, model="er", params={"lambda": lam}, start=start, nbr=nbr, eid=eid)


def _coupled_graph(cfg: CouplingConfig, host_type, copy_streams) -> tuple:
    """(IntersectionEstimate, ProfileSamples, per-trial rows) on a graph host.

    Per trial: sample g, X0, S and fresh labels; on the Erdos-Renyi host,
    build per-copy graphs whose induced subgraphs on S are resampled; project
    every copy (vertices with a non-tree (radius+1)-neighbourhood map to 0).
    A row is [rho(T) for all T..., non-tree vertex fraction of copy 1's graph,
    which is g itself on the configuration model].
    """
    host = cfg.host
    if not isinstance(host, host_type):
        raise TypeError(f"expected {host_type.__name__}, got {host!r}")
    f, k, n = cfg.factor, cfg.k, host.n
    streams = _copy_streams(k, copy_streams)

    def tree_like(g: MultiGraph) -> np.ndarray:
        return ~non_tree_ball_mask(g, f.radius + 1)

    def one(t: int):
        st = trial_state(cfg.seed, t)
        g = _sample_graph(host, fold(st, 1))
        rng = state_rng(fold(st, 2))
        x0 = uniform_labels(rng, n)
        in_s = rng.random(n) < cfg.p
        fresh = {s: uniform_labels(rng, n) for s in range(1, k + 1)}
        if host_type is ErdosRenyiHost:
            copies = er_resample_graphs(g, np.flatnonzero(in_s), host.lam, k, fold(st, 3))
            oks = [tree_like(gi) for gi in copies]
        else:
            copies, oks = [g] * k, [tree_like(g)] * k
        copy_bits = [
            _project_bits(f, copies[s - 1], oks[s - 1], np.where(in_s, fresh[s], x0))
            for s in streams
        ]
        row = density_row(signatures(copy_bits), k)
        return np.concatenate([row, [1.0 - oks[0].mean()]])

    rows = run_trials(per_trial(one), cfg.trials, cfg.workers)
    profiles = ProfileSamples(k, rows[:, : 1 << k])
    prefix = rows[:, [(1 << i) - 1 for i in range(1, k + 1)]]
    return _prefix_estimate(cfg, prefix), profiles, rows


def coupled_graph_intersections(cfg: CouplingConfig, copy_streams=None):
    """Coupled copies on configuration-model graphs: the full density profile
    over copy subsets plus the non-tree vertex fraction of the graph.

    Returns (IntersectionEstimate, ProfileSamples, mean non-tree fraction).
    """
    est, profiles, rows = _coupled_graph(cfg, ConfigModelHost, copy_streams)
    return est, profiles, float(rows[:, -1].mean())


def coupled_er_intersections(cfg: CouplingConfig, copy_streams=None):
    """Coupled copies on Erdos-Renyi graphs, each copy with its own induced
    subgraph on S.

    Returns (IntersectionEstimate, ProfileSamples).
    """
    return _coupled_graph(cfg, ErdosRenyiHost, copy_streams)[:2]


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


def estimate_stability(cfg: CouplingConfig, moments=None) -> StabilityEstimate:
    """Nested Monte Carlo stability moments.

    Outer loop: sample (host structure, X0, S); accept the trial when the
    root's inclusion bit under X0 is 1 (rejection implements the
    conditioning).  Inner loop: re-randomise labels on S (and, for the
    Erdos-Renyi host, edges inside SxS) inner_trials times; the inner success
    fraction is one Q sample.  Moment estimates are jackknife-corrected.

    On graph hosts a trial samples its graph with sample_config_model or
    sample_er, and each Erdos-Renyi inner trial takes the copy that
    er_resample_graphs(g, S, lam, 1, its seed) would return, from edges of g
    outside SxS filtered once per outer trial; these graphs sort a vertex's
    incidences when it is first read, so a trial costs the draws, one pass
    over the graph's arrays and the root's (radius+1)-ball.  On the configuration model the graph is the same for
    every inner trial, so the root's ball is found once per outer trial and
    each inner trial relabels only the ball's vertices.

    Raises ConditioningError when no outer trial is accepted.
    """
    if moments is None:
        moments = list(range(cfg.k))
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
    for m in moments:
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
        copies = np.arange(1, cfg.inner_trials + 1, dtype=np.uint64)[:, None]

        def block(lo: int, hi: int):
            trees = TreeBlock(f, host, trial_state_np(cfg.seed, np.arange(lo, hi)), cfg.p)
            rows = np.tile([0.0, -1.0], (hi - lo, 1))
            for i in np.flatnonzero(trees.bits(0)):
                rows[i] = 1.0, np.count_nonzero(trees.bits(copies, i))
            return rows

        return block

    n = host.n
    er = isinstance(host, ErdosRenyiHost)

    def one(t: int):
        st = trial_state(cfg.seed, t)
        rng = state_rng(fold(st, 2))
        x0 = uniform_labels(rng, n)
        in_s = rng.random(n) < cfg.p
        root = int(rng.integers(n))
        g = _sample_graph(host, fold(st, 1))
        nb = _root_ball(f, g, root, x0)
        if nb is None or apply_factor(f, nb) != 1:
            return [0.0, -1.0]
        if er:  # every inner trial's copy keeps the same edges of g
            copies = _er_copies(g, np.flatnonzero(in_s), host.lam, (
                _copy_state(fold(st, 0x2000 + j), 0) for j in range(1, cfg.inner_trials + 1)))
        else:  # g is the same for every inner trial: relabel its ball only
            src = nb.source_vertices
            x0_ball, s_ball = x0[src], in_s[src]
        cnt = 0
        for j in range(1, cfg.inner_trials + 1):
            fresh = uniform_labels(state_rng(fold(st, 0x1000 + j)), n)
            if er:
                nb_j = _root_ball(f, next(copies), root, np.where(in_s, fresh, x0))
            else:
                nb_j = nb.with_labels(np.where(s_ball, fresh[src], x0_ball))
            if nb_j is not None:
                cnt += apply_factor(f, nb_j)
        return [1.0, float(cnt)]

    return per_trial(one)


def _root_ball(f: Factor, g, root: int, labels: np.ndarray):
    """The root's f.radius ball with its labels, or None when the root's
    (f.radius + 1)-ball is not a tree (the projection then gives bit 0)."""
    if not ball_is_tree(g, root, f.radius + 1):
        return None
    return neighborhood(g, root, f.radius, labels)


# ---------------------------------------------------------------------------
# Scans and moment targeting
# ---------------------------------------------------------------------------


def run_intersections(cfg: CouplingConfig, copy_streams=None) -> IntersectionEstimate:
    """Dispatch the coupled-intersection estimator by host kind."""
    if cfg.host.tree:
        return coupled_tree_intersections(cfg, copy_streams)
    if isinstance(cfg.host, ErdosRenyiHost):
        return coupled_er_intersections(cfg, copy_streams)[0]
    return coupled_graph_intersections(cfg, copy_streams)[0]


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


def find_p_for_moment(
    cfg: CouplingConfig, u: float, target: float, coarse: int = 6, max_iter: int = 24
):
    """Find p* with E*[Q^u](p*) = target, up to 3x the Monte Carlo error.

    Scans a coarse grid, brackets a sign change of (estimate - target), and
    bisects; no monotonicity in p is assumed.  Raises ConditioningError with
    a "no crossing" message when the target is outside the attained range.
    """
    if u <= 0:
        raise ValueError("u must be > 0")

    cache = {}

    def eval_at(p: float):
        if p not in cache:
            est = estimate_stability(replace(cfg, p=p), moments=[u])
            cache[p] = est.moments[u]
        return cache[p]

    grid = list(np.linspace(0.0, 1.0, coarse))
    vals = [eval_at(p) for p in grid]
    lo_end, hi_end = vals[-1][0], vals[0][0]
    lo_bound = min(lo_end, hi_end) - 3 * max(vals[0][1], vals[-1][1])
    hi_bound = max(lo_end, hi_end) + 3 * max(vals[0][1], vals[-1][1])
    if not lo_bound <= target <= hi_bound:
        raise ConditioningError(
            f"no crossing in [0, 1]: target {target} outside attained range "
            f"[{lo_bound:.6g}, {hi_bound:.6g}]"
        )
    for p, (m, se) in zip(grid, vals):
        if abs(m - target) <= 3 * se:
            return p, m, se
    bracket = None
    for (pa, (ma, _)), (pb, (mb, _)) in zip(
        list(zip(grid, vals)), list(zip(grid, vals))[1:]
    ):
        if (ma - target) * (mb - target) <= 0:
            bracket = (pa, ma, pb, mb)
            break
    if bracket is None:
        raise ConditioningError("no crossing in [0, 1]: no sign change on the grid")
    pa, ma, pb, mb = bracket
    best = None
    for _ in range(max_iter):
        pm = 0.5 * (pa + pb)
        m, se = eval_at(pm)
        best = (pm, m, se)
        if abs(m - target) <= 3 * se or (pb - pa) < 1.0 / 512:
            return best
        if (ma - target) * (m - target) <= 0:
            pb, mb = pm, m
        else:
            pa, ma = pm, m
    return best
