"""Exact reference values and the statistical checks that compare op outputs
against them.

Every check returns a list of failure messages (empty when the op passes).
A Monte Carlo output fails when it sits further from its exact reference than
the check's threshold: Z_FAIL standard errors for normal statistics, or the
matching two-sided tail probability ALPHA for Bernoulli means, which are
tested against the exact binomial law so that small counts are judged
correctly.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

# Threshold of every statistical check.  A reference moved by 5 standard
# errors fails (see test_bench.py); an honest output fails with probability
# ALPHA ~ 2e-6 per test, so a whole benchmark campaign sees no spurious
# failure in practice.
Z_FAIL = 4.75
ALPHA = math.erfc(Z_FAIL / math.sqrt(2.0))
EXACT_TOL = 1e-9


# ---------------------------------------------------------------------------
# Exact values
# ---------------------------------------------------------------------------


def lw_density_exact(p: float, k: int, d: int | None = None, lam: float | None = None) -> float:
    """Density of the k-round Bernoulli(p) percolation-round factor on the
    d-regular tree (d given) or on PGW(lam) (lam given), by the O(k) recursion
    over first-success rounds:

        S_1 = 0, p_t = (1-p)^(t-1) p, S_{t+1} = S_t + p_t q_t,
        regular: q_t = (1-S_t)^(d-1), density = sum_t p_t (1-S_t-p_t q_t)^d,
        PGW:     q_t = e^(-lam S_t),  density = sum_t p_t e^(-lam (S_t + p_t q_t)).
    """
    if (d is None) == (lam is None):
        raise ValueError("give exactly one of d and lam")
    s = 0.0
    terms = []
    for t in range(1, k + 1):
        pt = (1.0 - p) ** (t - 1) * p
        if d is not None:
            qt = (1.0 - s) ** (d - 1)
            terms.append(pt * (1.0 - s - pt * qt) ** d)
        else:
            qt = math.exp(-lam * s)
            terms.append(pt * math.exp(-lam * (s + pt * qt)))
        s += pt * qt
    return math.fsum(terms)


def _poisson_pmf(j: int, lam: float) -> float:
    return math.exp(-lam + j * math.log(lam) - math.lgamma(j + 1))


def degree_event_probability(lam: float, d: int) -> float:
    """P(the PGW(lam) root and each of its children have degree <= d):
    sum_{j <= d} P(Pois = j) P(Pois <= d-1)^j."""
    inner = math.fsum(_poisson_pmf(j, lam) for j in range(d))
    return math.fsum(_poisson_pmf(j, lam) * inner**j for j in range(d + 1))


def threshold_graph_reference(n: int, edges, ball_radius: int = 2) -> tuple:
    """Exact mean and standard error, given the graph, of the projected
    threshold-factor density over uniform labels.

    A vertex whose ball_radius-ball is a tree is included with probability
    1/(deg+1) (its label is the minimum of its closed neighbourhood); other
    vertices are 0.  The variance adds the exact covariances: -p_u p_w for
    adjacent tree-ball vertices and P(both minima) - p_u p_w for tree-ball
    vertices two steps apart, which share exactly one neighbour.

    The tree test is independent of the program's: the induced subgraph on a
    ball is a tree iff it has |ball| - 1 edges (loops and parallel edges
    counted with multiplicity).
    """
    import scipy.sparse as sp

    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    ones = np.ones(len(e))
    half = sp.coo_matrix((ones, (e[:, 0], e[:, 1])), shape=(n, n))
    adj = (half + half.T).tocsr()  # a loop counts 2 on the diagonal
    deg = np.asarray(adj.sum(axis=1)).ravel()
    step = ((adj + sp.identity(n, format="csr")) > 0).astype(np.int64)
    ball = step
    for _ in range(ball_radius - 1):
        ball = ((ball @ step) > 0).astype(np.int64)
    size = np.asarray(ball.sum(axis=1)).ravel()
    inside = np.asarray((ball @ adj).multiply(ball).sum(axis=1)).ravel() / 2.0
    ok = inside == size - 1

    p = np.where(ok, 1.0 / (deg + 1.0), 0.0)
    var = float(np.sum(p * (1.0 - p)))
    both = ok[e[:, 0]] & ok[e[:, 1]]
    var -= 2.0 * float(np.sum(p[e[both, 0]] * p[e[both, 1]]))
    indptr, indices = adj.indptr, adj.indices
    for x in range(n):
        nbrs = [w for w in indices[indptr[x]:indptr[x + 1]] if ok[w]]
        for u, w in combinations(nbrs, 2):
            a, b = deg[u] + 1.0, deg[w] + 1.0
            joint = (1.0 / b - 1.0 / (a + b - 1.0)) / (a - 1.0) + (
                1.0 / a - 1.0 / (a + b - 1.0)
            ) / (b - 1.0)
            var += 2.0 * (joint - p[u] * p[w])
    return float(p.sum()) / n, math.sqrt(max(var, 0.0)) / n, float(ok.mean())


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def _binom_logpmf(n: int, q: float) -> np.ndarray:
    j = np.arange(n + 1)
    lg = np.array([math.lgamma(x + 1) for x in range(n + 1)])
    return lg[n] - lg - lg[::-1] + j * math.log(q) + (n - j) * math.log1p(-q)


def binom_tails(count: int, n: int, q: float) -> tuple:
    """(P(X <= count), P(X >= count)) for X ~ Binomial(n, q)."""
    if q <= 0.0:
        return 1.0, 1.0 if count == 0 else 0.0
    if q >= 1.0:
        return 1.0 if count == n else 0.0, 1.0
    pmf = np.exp(_binom_logpmf(n, q))
    return math.fsum(pmf[: count + 1]), math.fsum(pmf[count:])


def bernoulli_count(mean: float, n: int) -> int | None:
    """The success count behind a mean of n Bernoulli trials, or None when the
    mean is not such a ratio."""
    count = round(mean * n)
    if 0 <= count <= n and abs(count / n - mean) <= 1e-9:
        return int(count)
    return None


def check_bernoulli(what: str, mean: float, n: int, q: float) -> list:
    """Two-sided exact binomial test of a Bernoulli mean against q."""
    count = bernoulli_count(mean, n)
    if count is None:
        return [f"{what}: {mean!r} is not a mean of {n} bits"]
    lo, hi = binom_tails(count, n, q)
    pval = min(1.0, 2.0 * min(lo, hi))
    if pval < ALPHA:
        return [f"{what}: {count}/{n} against exact {q:.6g} (p-value {pval:.2e})"]
    return []


def check_bernoulli_range(what: str, mean: float, n: int, lower: float, upper: float) -> list:
    """One-sided exact binomial tests that a Bernoulli mean is consistent
    with a success probability in [lower, upper]."""
    count = bernoulli_count(mean, n)
    if count is None:
        return [f"{what}: {mean!r} is not a mean of {n} bits"]
    out = []
    if binom_tails(count, n, upper)[1] < ALPHA / 2.0:
        out.append(f"{what}: {count}/{n} above the upper bound {upper:.6g}")
    if binom_tails(count, n, lower)[0] < ALPHA / 2.0:
        out.append(f"{what}: {count}/{n} below the lower bound {lower:.6g}")
    return out


def check_normal(what: str, value: float, ref: float, se: float) -> list:
    """|value - ref| <= Z_FAIL * se."""
    if not se > 0.0 or abs(value - ref) > Z_FAIL * se:
        return [f"{what}: {value:.6g} against exact {ref:.6g} (se {se:.3g})"]
    return []


def check_exact(what: str, value: float, ref: float, tol: float = EXACT_TOL) -> list:
    if not abs(value - ref) <= tol * max(1.0, abs(ref)):
        return [f"{what}: {value!r} against exact {ref!r}"]
    return []
