"""Exact combinatorics of k-tuples of independent sets.

A k-tuple of vertex subsets induces three linked objects over the subset
lattice of [k]:

  density profile  rho(T) = |intersection of the sets indexed by T| / n,
  partition measure pi(T) = mass of vertices lying in exactly the sets in T,
  edge profile     M(T, T') = fraction of directed edges from cell T to T'.

rho and pi are Moebius duals; M is symmetric, marginalises to pi, and
vanishes on intersecting index pairs (no edge joins two cells sharing an
independent set).  This module provides the transforms, the entropies and
their maximum-entropy bound, the exact expected-count formulas for the
configuration model and the Erdos-Renyi model, their asymptotic rate
decomposition, and exhaustive brute-force oracles for tiny instances.

Bitmask layout: subset T of [k] is the integer with bit i set for i in T; a
lattice function is a dense array indexed by T, a cell-pair function a
2^k x 2^k array, and a vertex's membership signature is the T of the sets
holding it.  Only the lattice primitives know this layout: popcounts,
superset_sum (zeta and Moebius), disjoint (the mask of disjoint cell
pairs), cell_sizes, forced_pairs, signatures and density_row.  Cells are
walked one at a time only by the exact oracles and by the two float sums
whose order fixes their last bits (Hhat in entropies, log_expected_Z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .graphs import MultiGraph, enumerate_config_graphs


class ProfileError(ValueError):
    """A profile violated one of its structural constraints."""


_NEG_TOL = 1e-12
_MAX_K = 20  # dense 2^k lattices; memory cap


def _check_k(k: int) -> None:
    if not 1 <= k <= _MAX_K:
        raise ProfileError(f"k must lie in 1..{_MAX_K}, got {k}")


# ---------------------------------------------------------------------------
# Lattice primitives
# ---------------------------------------------------------------------------


def popcounts(k: int) -> np.ndarray:
    """|T| for every T in 0..2^k - 1."""
    pc = np.zeros(1, dtype=np.int64)
    for _ in range(k):
        pc = np.concatenate([pc, pc + 1])
    return pc


def _bit_halves(a: np.ndarray):
    """Per bit b: aligned views of the cells T without b and of T | b."""
    for b in range(a.size.bit_length() - 1):
        v = a.reshape(-1, 2, 1 << b)
        yield v[:, 0], v[:, 1]


def superset_sum(a, sign: int = 1) -> np.ndarray:
    """out(T) = sum over supersets T' of T of sign^|T' \\ T| a(T'): zeta for
    sign 1, Moebius for -1.  A pass per bit reads only cells it does not
    write, so each cell sees the operations of the cell-by-cell loop.  As
    full ^ T == full - T, superset_sum(a[::-1]) sums a over the T' disjoint
    from T."""
    out = np.array(a)  # a contiguous copy, dtype kept
    op = np.add if sign > 0 else np.subtract
    for lo, hi in _bit_halves(out):
        op(lo, hi, out=lo)
    return out


def disjoint(k: int) -> np.ndarray:
    """The 2^k x 2^k mask of cell pairs (T, T') with T & T' empty."""
    idx = np.arange(1 << k)
    return (idx[:, None] & idx) == 0


def _integral(x: np.ndarray, what: str, support: np.ndarray | None = None) -> np.ndarray:
    """x rounded to int64.  Raises at the first entry in row-major order that
    is not integral or, given a support mask, is nonzero outside it; `what`
    formats an entry's name from its index."""
    r = np.round(x)
    off = np.abs(x - r) > 1e-9
    bad = off if support is None else off | (~support & (r != 0))
    if bad.any():
        at = tuple(int(i) for i in np.unravel_index(np.argmax(bad), x.shape))
        if off[at]:
            raise ProfileError(f"{what.format(*at)} = {x[at]} is not integral")
        raise ProfileError("support violated at ({:#b},{:#b})".format(*at))
    return r.astype(np.int64)


def cell_sizes(measure: PartitionMeasure, n: int) -> np.ndarray:
    """The cell sizes n*pi(T) as int64, each integral, summing to n."""
    cells = _integral(n * measure.pi, "n*pi({:#b})")
    if cells.sum() != n:
        raise ProfileError("cell sizes must sum to n")
    return cells


def forced_pairs(cells) -> int:
    """The unordered vertex pairs whose membership signatures intersect,
    sum_T C(c_T, 2) over nonempty T plus c_T c_T' over unordered intersecting
    cell pairs, counted as all pairs less the disjoint ones: sum_T c_T w(T)
    ordered, with w the disjoint cells' size, less u = v in the empty cell."""
    c = np.asarray(cells, dtype=np.int64)
    n = int(c.sum())
    disjoint_ordered = int(c @ superset_sum(c[::-1])) - int(c[0])
    return n * (n - 1) // 2 - disjoint_ordered // 2


def signatures(members) -> np.ndarray:
    """Each vertex's membership signature (bit i set when set i holds it),
    from k boolean rows over the vertices."""
    members = np.asarray(members, dtype=np.int64)
    return (members << np.arange(len(members))[:, None]).sum(axis=0)


def density_row(sig: np.ndarray, k: int) -> np.ndarray:
    """rho(T) for every T of the k-tuple with these membership signatures:
    the vertices whose signature contains T, over n; rho(empty) = 1."""
    _check_k(k)
    return superset_sum(np.bincount(sig, minlength=1 << k)) / sig.size


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityProfile:
    """rho(T) for all T, with rho(empty) = 1 and rho non-increasing under
    superset inclusion."""

    k: int
    rho: np.ndarray

    def __post_init__(self):
        _check_k(self.k)
        rho = np.asarray(self.rho, dtype=np.float64)
        object.__setattr__(self, "rho", rho)
        if rho.shape != (1 << self.k,):
            raise ProfileError(f"rho must have 2^{self.k} entries")
        if not np.isfinite(rho).all():
            raise ProfileError("rho values must be finite")
        if abs(rho[0] - 1.0) > 1e-12:
            raise ProfileError("rho(empty) must equal 1")
        if np.any(rho < -_NEG_TOL) or np.any(rho > 1 + 1e-12):
            raise ProfileError("rho values must lie in [0, 1]")
        rising = np.zeros(rho.shape, dtype=bool)  # T with rho(T + one bit) > rho(T)
        for (lo, hi), (lo_rising, _) in zip(_bit_halves(rho), _bit_halves(rising)):
            lo_rising |= hi > lo + 1e-12
        if rising.any():
            raise ProfileError(
                f"rho not monotone under superset at T={int(np.argmax(rising)):#b}"
            )

    @classmethod
    def symmetric(cls, k: int, by_cardinality, scale: float = 1.0) -> "DensityProfile":
        """Profile with rho(T) = scale * value[|T|] for nonempty T."""
        vals = list(by_cardinality)
        if len(vals) != k:
            raise ProfileError("need one value per cardinality 1..k")
        rho = scale * beta_on_subsets(vals, k)
        rho[0] = 1.0
        return cls(k, rho)


@dataclass(frozen=True)
class PartitionMeasure:
    """pi(T) >= 0 summing to 1 over the 2^k cells."""

    k: int
    pi: np.ndarray

    def __post_init__(self):
        _check_k(self.k)
        pi = np.asarray(self.pi, dtype=np.float64)
        object.__setattr__(self, "pi", pi)
        if pi.shape != (1 << self.k,):
            raise ProfileError(f"pi must have 2^{self.k} entries")
        if not np.isfinite(pi).all():
            raise ProfileError("pi values must be finite")
        if np.any(pi < -_NEG_TOL):
            raise ProfileError("negative partition mass")
        if abs(pi.sum() - 1.0) > 1e-9:
            raise ProfileError("pi must sum to 1")

    def weights(self) -> np.ndarray:
        """w(T) = sum of pi over cells disjoint from T (= subset sum over the
        complement); w(empty) = 1."""
        return superset_sum(self.pi[::-1])


@dataclass(frozen=True)
class EdgeProfile:
    """Symmetric M(T, T') >= 0 summing to 1 over ordered cell pairs, with
    M(T, T') = 0 whenever T and T' intersect; rows marginalise to pi.
    """

    k: int
    M: np.ndarray

    def __post_init__(self):
        _check_k(self.k)
        M = np.asarray(self.M, dtype=np.float64)
        object.__setattr__(self, "M", M)
        size = 1 << self.k
        if M.shape != (size, size):
            raise ProfileError(f"M must be {size}x{size}")
        if not np.isfinite(M).all():
            raise ProfileError("edge-profile entries must be finite")
        if np.any(M < -_NEG_TOL):
            raise ProfileError("negative edge-profile entry")
        if abs(M.sum() - 1.0) > 1e-9:
            raise ProfileError("M must sum to 1")
        if np.max(np.abs(M - M.T)) > 1e-12:
            raise ProfileError("M must be symmetric")
        outside = ~disjoint(self.k) & (M > _NEG_TOL)
        if outside.any():
            a, b = divmod(int(np.argmax(outside)), size)
            raise ProfileError(
                f"support violated: M({a:#b},{b:#b}) > 0 with intersecting index sets"
            )

    def marginal(self) -> PartitionMeasure:
        return PartitionMeasure(self.k, self.M.sum(axis=1))

    @classmethod
    def from_counts(cls, k: int, counts: np.ndarray, n: int, d: int) -> "EdgeProfile":
        """The profile n*d*M = counts of a finite instance, whose counts must
        sum to n*d with an even diagonal."""
        counts = np.asarray(counts, dtype=np.int64)
        total = n * d
        if total < 1:
            raise ProfileError(f"edge counts need n*d >= 1, got n={n}, d={d}")
        if counts.sum() != total:
            raise ProfileError("edge counts must sum to n*d")
        odd = np.flatnonzero(np.diagonal(counts) % 2)
        if odd.size:
            raise ProfileError(f"diagonal count at T={int(odd[0]):#b} must be even")
        return cls(k, counts / total)


# ---------------------------------------------------------------------------
# Moebius transforms on the subset lattice
# ---------------------------------------------------------------------------


def rho_to_pi(profile: DensityProfile) -> PartitionMeasure:
    """pi(T) = sum over supersets T' of (-1)^|T'\\T| rho(T') (inclusion-exclusion).

    Rejects inputs whose transform has a negative cell: such a rho corresponds
    to no tuple of sets.
    """
    a = superset_sum(profile.rho, -1)
    if np.any(a < -_NEG_TOL):
        worst = int(np.argmin(a))
        raise ProfileError(
            f"inconsistent density profile: pi({worst:#b}) = {a[worst]:.3e} < 0"
        )
    return PartitionMeasure(profile.k, np.maximum(a, 0.0))


def pi_to_rho(measure: PartitionMeasure) -> DensityProfile:
    """rho(T) = sum of pi over supersets of T (inverse of rho_to_pi)."""
    return DensityProfile(measure.k, superset_sum(measure.pi))


def _cardinality_sum(values, sign: int) -> np.ndarray:
    """superset_sum of a symmetric profile, indexed by |T| = 1..k:
    out_j = sum_{i >= j} sign^(i-j) C(k-j, i-j) values_i."""
    v = list(values)
    k = len(v)
    return np.array([
        sum(sign ** (i - j) * math.comb(k - j, i - j) * v[i - 1] for i in range(j, k + 1))
        for j in range(1, k + 1)
    ])


def alpha_to_beta(alpha) -> np.ndarray:
    """Cardinality-indexed Moebius transform for symmetric profiles:
    beta_j = sum_{i >= j} (-1)^(i-j) C(k-j, i-j) alpha_i, j = 1..k."""
    return _cardinality_sum(alpha, -1)


def beta_to_alpha(beta) -> np.ndarray:
    """Inverse transform: alpha_j = sum_{i >= j} C(k-j, i-j) beta_i."""
    return _cardinality_sum(beta, 1)


def beta_on_subsets(beta, k: int) -> np.ndarray:
    """Expand cardinality-indexed beta values to the full subset lattice,
    out(T) = beta_|T| (entry 0, the empty set, is set to 0)."""
    return np.concatenate([[0.0], np.asarray(beta, dtype=np.float64)])[popcounts(k)]


# ---------------------------------------------------------------------------
# Scalar identities
# ---------------------------------------------------------------------------


def s_k(x: float, k: int) -> float:
    """Partial geometric series 1 + (1-x) + ... + (1-x)^(k-1), the stable form
    of (1 - (1-x)^k) / x; s_k(0) = k and s_k(1) = 1."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if k < 1:
        raise ValueError("k must be >= 1")
    q = 1.0 - x
    total, power = 0.0, 1.0
    for _ in range(k):
        total += power
        power *= q
    return total


def binom_sum(alpha) -> float:
    """sum_{i=1..k} (-1)^(i-1) C(k, i) alpha_i (2 - alpha_i)."""
    alpha = list(alpha)
    k = len(alpha)
    return math.fsum(
        (-1) ** (i - 1) * math.comb(k, i) * alpha[i - 1] * (2.0 - alpha[i - 1])
        for i in range(1, k + 1)
    )


# ---------------------------------------------------------------------------
# Entropies and the maximum-entropy bound
# ---------------------------------------------------------------------------


def _h(x: float) -> float:
    return -x * math.log(x) if x > 0.0 else 0.0


@dataclass(frozen=True)
class EntropyReport:
    h_pi: float
    h_m: float | None
    h_hat: float


def entropies(obj) -> EntropyReport:
    """Natural-log entropies H(pi), H(M) and the weighted term
    Hhat(pi) = sum_T pi(T) log w(T) (<= 0; -inf when some massive cell has
    weight 0).  Accepts a PartitionMeasure or an EdgeProfile."""
    if isinstance(obj, EdgeProfile):
        measure = obj.marginal()
        h_m = math.fsum(_h(v) for v in obj.M.flat)
    elif isinstance(obj, PartitionMeasure):
        measure = obj
        h_m = None
    else:
        raise TypeError("entropies expects a PartitionMeasure or EdgeProfile")
    h_pi = math.fsum(_h(v) for v in measure.pi)
    w = measure.weights()
    h_hat = 0.0
    for pv, wv in zip(measure.pi, w):
        if pv > 0.0:
            if wv <= 0.0:
                h_hat = float("-inf")
                break
            h_hat += pv * math.log(wv)
    return EntropyReport(h_pi, h_m, h_hat)


def max_entropy_check(profile: EdgeProfile) -> float:
    """Residual 2 H(pi) + Hhat(pi) - H(M), non-negative for every valid edge
    profile (Jensen); raises on an invalid profile, asserts >= -1e-12."""
    rep = entropies(profile)
    residual = 2.0 * rep.h_pi + rep.h_hat - rep.h_m
    if residual < -_NEG_TOL:
        raise AssertionError(f"maximum-entropy bound violated: residual {residual:.3e}")
    return residual


def rate_bound(measure: PartitionMeasure, d: int) -> float:
    """Exponential growth rate bound H(pi) + (d/2) Hhat(pi) for the expected
    number of k-tuples with the given cell masses on d-regular pairings.

    Hhat <= 0, so the second term only ever shrinks the rate; combining the
    maximum-entropy bound with the exact count gives
    (d/2) H(M) - (d-1) H(pi) <= rate_bound for every compatible M.
    """
    rep = entropies(measure)
    return rep.h_pi + 0.5 * d * rep.h_hat


def check_alpha(alpha) -> None:
    """Raise ValueError unless alpha_1..alpha_k are finite, non-negative and
    non-increasing (each up to 1e-12)."""
    a = np.asarray(alpha, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError("alpha must be finite")
    if np.any(a < -1e-12) or np.any(a[:-1] < a[1:] - 1e-12):
        raise ValueError("alpha must be non-negative and non-increasing")


def asymptotic_rate(alpha, k: int, d: int):
    """Leading term binom_sum(alpha) * log(d)^2 / (2d) of the rate bound for a
    symmetric profile at scale log(d)/d, and the remainder.

    Returns (leading, gap) with gap = rate_bound - leading.  From d =
    GAP_CALIBRATED_D on, where the constants were calibrated, it raises
    ProfileError unless gap <= c_k * log(d)/d for c_k =
    DEFAULT_GAP_CONSTANTS[k] (k without a constant is not checked).  Below
    that d the pair is reported unguarded: no constant was calibrated
    there, and at small d the gap exceeds the large-d constants (at d = 3
    and alpha = 1 it is 0.56 log(d)/d, above c_1 = 0.5).
    """
    alpha = list(alpha)
    if len(alpha) != k:
        raise ValueError("need one alpha per cardinality 1..k")
    check_alpha(alpha)
    scale = math.log(d) / d
    profile = DensityProfile.symmetric(k, alpha, scale)
    measure = rho_to_pi(profile)
    leading = binom_sum(alpha) * math.log(d) ** 2 / (2.0 * d)
    gap = rate_bound(measure, d) - leading
    c_k = DEFAULT_GAP_CONSTANTS.get(k)
    if d >= GAP_CALIBRATED_D and c_k is not None and gap > c_k * scale:
        raise ProfileError(
            f"rate gap {gap:.3e} exceeds {c_k} * log(d)/d = {c_k * scale:.3e}"
        )
    return leading, gap


# Calibrated on alpha families alpha_i = a * q^(i-1), a in [0, 2], q in [0, 1],
# over d in {1e3, 1e4, 1e5, 1e6} (observed maxima 0.12, 0.43, 1.0, 2.1, 3.9,
# 6.7), with a factor-2+ margin; see the profile test module.
DEFAULT_GAP_CONSTANTS = {1: 0.5, 2: 1.5, 3: 3.0, 4: 6.0, 5: 12.0, 6: 16.0}
GAP_CALIBRATED_D = 1000  # the least d the constants were calibrated on


# ---------------------------------------------------------------------------
# Exact expected counts (configuration model)
# ---------------------------------------------------------------------------


def _log_factorial(m: int) -> float:
    return math.lgamma(m + 1)


def _log_double_factorial_odd(m: int) -> float:
    """log (m-1)!! for even m >= 0, via (m-1)!! = m! / (2^(m/2) (m/2)!)."""
    if m % 2:
        raise ValueError("m must be even")
    if m == 0:
        return 0.0
    half = m // 2
    return _log_factorial(m) - half * math.log(2.0) - _log_factorial(half)


def log_expected_Z(profile: DensityProfile, edge_profile: EdgeProfile, n: int, d: int) -> float:
    """Exact log expected number of ordered partitions with the given cell
    sizes and edge counts under a uniform pairing of the n*d half-edges.

    The count multiplies the vertex multinomial, the per-cell half-edge
    multinomials, the cross-cell matchings and the within-cell pairings, and
    divides by (nd-1)!!.  All factors are evaluated in log space through
    lgamma; no Stirling approximation is used.
    """
    k = profile.k
    if edge_profile.k != k:
        raise ProfileError("profile and edge profile must share k")
    size = 1 << k
    cells = cell_sizes(rho_to_pi(profile), n)
    counts = _integral(n * d * edge_profile.M, "n*d*M({:#b},{:#b})", disjoint(k))
    rows, budgets, diagonal = counts.sum(axis=1), d * cells, np.diagonal(counts)
    bad = (rows != budgets) | (diagonal % 2 == 1)
    if bad.any():
        a = int(np.argmax(bad))
        if rows[a] != budgets[a]:
            raise ProfileError(
                f"row marginal mismatch at T={a:#b}: "
                f"{rows[a]} half-edges vs {budgets[a]}"
            )
        raise ProfileError(f"n*d*M(T,T) odd at T={a:#b}")

    cells = cells.tolist()
    log_val = _log_factorial(n) - math.fsum(_log_factorial(c) for c in cells)
    for a in range(size):  # a running sum: its order fixes the last bits
        log_val += _log_factorial(d * cells[a])
        log_val -= math.fsum(_log_factorial(int(c)) for c in counts[a])
    log_val += 0.5 * math.fsum(map(_log_factorial, counts[~np.eye(size, dtype=bool)].tolist()))
    log_val += math.fsum(map(_log_double_factorial_odd, diagonal.tolist()))
    log_val -= _log_double_factorial_odd(n * d)
    return log_val


def compatible_edge_profiles(
    profile: DensityProfile, n: int, d: int
) -> Iterator[EdgeProfile]:
    """Enumerate every integer edge-count matrix compatible with the profile:
    symmetric, supported on disjoint index pairs, rows summing to the cell
    half-edge budgets, even diagonal.  Depth-first with row-budget pruning."""
    k = profile.k
    size = 1 << k
    budgets = (d * cell_sizes(rho_to_pi(profile), n)).tolist()
    off_a, off_b = np.nonzero(np.triu(disjoint(k), 1))  # row-major order
    off_pairs = list(zip(off_a.tolist(), off_b.tolist()))

    counts = np.zeros((size, size), dtype=np.int64)
    remaining = list(budgets)

    def feasible(idx: int) -> bool:
        # every non-empty cell must be able to place its leftover budget into
        # the pairs not yet assigned; the empty cell can absorb any leftover
        # on its own diagonal
        cap = [0] * size
        for a, b in off_pairs[idx:]:
            cap[a] += remaining[b]
            cap[b] += remaining[a]
        return all(remaining[m] <= cap[m] for m in range(1, size))

    def rec(idx: int):
        if idx == len(off_pairs):
            leftover = remaining[0]
            if leftover % 2 == 0 and all(
                r == 0 for m, r in enumerate(remaining) if m != 0
            ):
                counts[0, 0] = leftover
                yield EdgeProfile.from_counts(k, counts.copy(), n, d)
                counts[0, 0] = 0
            return
        a, b = off_pairs[idx]
        top = min(remaining[a], remaining[b])
        for y in range(top + 1):
            counts[a, b] = counts[b, a] = y
            remaining[a] -= y
            remaining[b] -= y
            if feasible(idx + 1):
                yield from rec(idx + 1)
            remaining[a] += y
            remaining[b] += y
        counts[a, b] = counts[b, a] = 0

    yield from rec(0)


def expected_Z_total(profile: DensityProfile, n: int, d: int) -> float:
    """Sum of exp(log_expected_Z) over all compatible edge profiles: the exact
    expected number of k-tuples with the given density profile under the
    uniform pairing model."""
    return math.fsum(
        math.exp(log_expected_Z(profile, ep, n, d))
        for ep in compatible_edge_profiles(profile, n, d)
    )


# ---------------------------------------------------------------------------
# Erdos-Renyi expected count
# ---------------------------------------------------------------------------


def er_log_expected_Z(profile: DensityProfile, n: int, lam: float) -> float:
    """Log of the Erdos-Renyi expected-count bound: the cell multinomial times
    (1 - lam/n) to the number of pairs forced to be non-adjacent,
    sum_T C(cell_T, 2) + sum over unordered intersecting cell pairs of the
    product of cell sizes.  Exact (an equality) for k = 1."""
    if lam >= n:
        raise ProfileError("need lam < n")
    cells = cell_sizes(rho_to_pi(profile), n)
    log_multinomial = _log_factorial(n) - math.fsum(map(_log_factorial, cells.tolist()))
    return log_multinomial + forced_pairs(cells) * math.log1p(-lam / n)


def intersection_edge_count(sets, n: int):
    """Both sides of the forced-pair identity for an explicit k-tuple.

    Left: direct enumeration of unordered vertex pairs whose membership
    signatures intersect.  Right: the cell-size expression
    sum_T C(|cell_T|, 2) + sum over unordered intersecting cell pairs of
    |cell_T| |cell_T'|.  Returns (lhs, rhs); they agree for every tuple.
    """
    sig = signatures([np.isin(np.arange(n), list(s)) for s in sets]).tolist()
    lhs = sum(
        1
        for u in range(n)
        for v in range(u + 1, n)
        if sig[u] & sig[v]
    )
    return lhs, forced_pairs(np.bincount(sig, minlength=1 << len(sets)))


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


def _adjacency_masks(g: MultiGraph) -> list:
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u  # a loop sets the vertex's own bit
    return masks


def independent_subsets(g: MultiGraph) -> list:
    """Bitmasks of all independent vertex subsets (exhaustive, n <= 20)."""
    if g.n > 20:
        raise ProfileError("exhaustive enumeration limited to n <= 20")
    masks = _adjacency_masks(g)
    out = []
    for m in range(1 << g.n):
        sub = m
        ok = True
        while sub:
            v = (sub & -sub).bit_length() - 1
            if masks[v] & m:
                ok = False
                break
            sub &= sub - 1
        if ok:
            out.append(m)
    return out


def brute_force_Z(graphs, profile: DensityProfile) -> int:
    """Number of k-tuples of independent sets with exactly the given profile.

    `graphs` is one MultiGraph (all sets independent in it) or a list of k
    graphs (set i independent in graph i).  Exhaustive; guarded to n <= 14
    and k <= 2.
    """
    k = profile.k
    gs = graphs if isinstance(graphs, (list, tuple)) else [graphs] * k
    if len(gs) != k:
        raise ProfileError("need one graph per tuple slot")
    n = gs[0].n
    if any(g.n != n for g in gs):
        raise ProfileError("graphs must share a vertex set")
    if n > 14 or k > 2:
        raise ProfileError("brute force guarded to n <= 14 and k <= 2")
    targets = _integral(n * profile.rho, "n*rho({:#b})").tolist()
    pools = [independent_subsets(g) for g in gs]
    if k == 1:
        return sum(1 for m in pools[0] if bin(m).count("1") == targets[1])
    count = 0
    for m1 in pools[0]:
        c1 = bin(m1).count("1")
        if c1 != targets[1]:
            continue
        for m2 in pools[1]:
            if bin(m2).count("1") == targets[2] and bin(m1 & m2).count("1") == targets[3]:
                count += 1
    return count


def mean_brute_force_Z(profile: DensityProfile, n: int, d: int) -> float:
    """Average of brute_force_Z over every configuration-model pairing: the
    enumeration oracle matching expected_Z_total."""
    total = 0
    outcomes = 0
    for g in enumerate_config_graphs(n, d):
        total += brute_force_Z(g, profile)
        outcomes += 1
    return total / outcomes


# ---------------------------------------------------------------------------
# Profiles from explicit tuples, and the Jensen-equality construction
# ---------------------------------------------------------------------------


def profile_from_sets(g: MultiGraph, sets):
    """Empirical (DensityProfile, PartitionMeasure, EdgeProfile) of a k-tuple
    of independent sets in g.  The edge profile counts directed edges between
    membership cells (a loop contributes two endpoints to its cell)."""
    k = len(sets)
    n = g.n
    sig = signatures([np.isin(np.arange(n), list(s)) for s in sets])
    cells = np.bincount(sig, minlength=1 << k)
    counts = np.zeros((1 << k, 1 << k), dtype=np.int64)
    for u, v in g.edges:
        counts[sig[u], sig[v]] += 1
        counts[sig[v], sig[u]] += 1
    total = counts.sum()
    profile = DensityProfile(k, density_row(sig, k))
    measure = PartitionMeasure(k, cells / n)
    edge_profile = EdgeProfile(k, counts / total)
    return profile, measure, edge_profile


def jensen_equality_profile(k: int):
    """A (PartitionMeasure, EdgeProfile) pair attaining the maximum-entropy
    bound with equality.

    For k = 1 the mass sits on the empty cell (residual exactly 0).  For
    k >= 2 the mass is uniform on the k singleton cells and M is uniform on
    ordered pairs of distinct singletons, for which H(M) = 2 H(pi) + Hhat(pi).
    """
    size = 1 << k
    if k == 1:
        pi = np.zeros(size)
        pi[0] = 1.0
        M = np.zeros((size, size))
        M[0, 0] = 1.0
        return PartitionMeasure(k, pi), EdgeProfile(k, M)
    pi = np.zeros(size)
    M = np.zeros((size, size))
    singles = [1 << i for i in range(k)]
    pi[singles] = 1.0 / k
    M[np.ix_(singles, singles)] = 1.0 / (k * (k - 1))
    M[singles, singles] = 0.0
    return PartitionMeasure(k, pi), EdgeProfile(k, M)
