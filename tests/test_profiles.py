import math
from fractions import Fraction

import numpy as np
import pytest

from localis.factors import project_to_graph, threshold_factor
from localis.graphs import MultiGraph, sample_config_model
from localis.profiles import (
    DensityProfile,
    EdgeProfile,
    PartitionMeasure,
    ProfileError,
    alpha_to_beta,
    asymptotic_rate,
    beta_on_subsets,
    beta_to_alpha,
    binom_sum,
    brute_force_Z,
    compatible_edge_profiles,
    density_row,
    entropies,
    er_log_expected_Z,
    expected_Z_total,
    forced_pairs,
    intersection_edge_count,
    jensen_equality_profile,
    log_expected_Z,
    max_entropy_check,
    mean_brute_force_Z,
    pi_to_rho,
    popcounts,
    profile_from_sets,
    rate_bound,
    rho_to_pi,
    s_k,
    signatures,
    superset_sum,
)
from localis.rng import uniform_labels

from conftest import er_independent_triple_counts


def random_density_profile(rng, k):
    """Valid profile built from a random partition measure (always consistent)."""
    pi = rng.dirichlet(np.ones(1 << k))
    return pi_to_rho(PartitionMeasure(k, pi))


def random_independent_tuple(rng, n=12, d=3, k=2):
    """A real k-tuple of independent sets in a random multigraph, via the
    radius-1 projection with independent labellings."""
    g = sample_config_model(n, d, int(rng.integers(1 << 30)))
    sets = []
    for _ in range(k):
        bits = project_to_graph(threshold_factor(), g, uniform_labels(rng, n)).bits
        keep = rng.random(n) < 0.8  # vary the densities
        sets.append(set(np.flatnonzero(bits & keep)))
    return g, sets


# ---------------------------------------------------------------------------
# Moebius transforms
# ---------------------------------------------------------------------------


def test_rho_to_pi_k1():
    p = rho_to_pi(DensityProfile(1, np.array([1.0, 0.3])))
    assert np.allclose(p.pi, [0.7, 0.3], atol=1e-15)


def test_rho_to_pi_k2_hand():
    a, b = 0.4, 0.25
    p = rho_to_pi(DensityProfile(2, np.array([1.0, a, a, b])))
    assert np.allclose(p.pi, [1 - 2 * a + b, a - b, a - b, b], atol=1e-15)


def test_mobius_round_trips():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        prof = random_density_profile(rng, k)
        back = pi_to_rho(rho_to_pi(prof))
        assert np.max(np.abs(back.rho - prof.rho)) <= 1e-12


def test_pi_to_rho_point_masses():
    k = 3
    empty = np.zeros(1 << k)
    empty[0] = 1.0
    prof = pi_to_rho(PartitionMeasure(k, empty))
    assert prof.rho[0] == 1.0 and np.all(prof.rho[1:] == 0.0)
    full = np.zeros(1 << k)
    full[-1] = 1.0
    prof = pi_to_rho(PartitionMeasure(k, full))
    assert np.all(prof.rho == 1.0)


def test_partition_weight_identity():
    # sum over cells disjoint from T' of pi(T)/w(T') equals 1 when w(T') > 0
    rng = np.random.default_rng(78)
    for _ in range(100):
        k = int(rng.integers(1, 6))
        pm = PartitionMeasure(k, rng.dirichlet(np.ones(1 << k)))
        w = pm.weights()
        assert w[0] == pytest.approx(1.0, abs=1e-12)
        for t in range(1 << k):
            if w[t] <= 0:
                continue
            total = sum(
                pm.pi[s] for s in range(1 << k) if not s & t
            ) / w[t]
            assert total == pytest.approx(1.0, abs=1e-9)


def test_rho_monotone_from_random_pi():
    rng = np.random.default_rng(2)
    for _ in range(50):
        prof = random_density_profile(rng, 4)
        for mask in range(1 << 4):
            for b in range(4):
                if not mask >> b & 1:
                    assert prof.rho[mask | 1 << b] <= prof.rho[mask] + 1e-12


def test_inconsistent_profile_rejected():
    # rho({1,2}) > rho({1}) forces a negative cell
    with pytest.raises(ProfileError):
        DensityProfile(2, np.array([1.0, 0.2, 0.2, 0.3]))
    # monotone but inconsistent: pi({}) < 0
    with pytest.raises(ProfileError):
        rho_to_pi(DensityProfile(2, np.array([1.0, 0.6, 0.6, 0.1])))


# ---------------------------------------------------------------------------
# cardinality transforms
# ---------------------------------------------------------------------------


def test_alpha_beta_hand():
    assert np.allclose(alpha_to_beta([0.7]), [0.7])
    a, b = 0.9, 0.4
    assert np.allclose(alpha_to_beta([a, b]), [a - b, b], atol=1e-15)


def test_alpha_beta_round_trip_and_bound():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        k = int(rng.integers(1, 7))
        alpha = np.sort(rng.uniform(0, 2, size=k))[::-1]
        beta = alpha_to_beta(alpha)
        assert np.max(np.abs(beta_to_alpha(beta) - alpha)) <= 1e-12
        assert np.max(np.abs(beta)) <= 2.0 ** (k + 1)


# ---------------------------------------------------------------------------
# scalar identities
# ---------------------------------------------------------------------------


def test_s_k_values():
    assert s_k(0.0, 7) == 7.0
    assert s_k(1.0, 7) == 1.0
    assert s_k(0.5, 2) == 1.5


def test_s_k_dual_form_agreement():
    # alternating-binomial form evaluated in exact rationals
    rng = np.random.default_rng(4)
    xs = np.concatenate([[1e-6, 1.0], rng.uniform(1e-6, 1.0, size=60)])
    for k in range(1, 26):
        for x in xs:
            xf = Fraction(float(x))
            alt = sum(
                (-1) ** (i - 1) * math.comb(k, i) * xf ** (i - 1)
                for i in range(1, k + 1)
            )
            assert abs(s_k(float(x), k) - float(alt)) <= 1e-10


def test_binom_sum_trivial():
    a = 0.6
    assert binom_sum([a]) == a * (2 - a)
    assert binom_sum([1.0, 1.0]) == 1.0


def test_binom_sum_beta_quadratic_identity():
    # binom_sum(alpha) = 2 sum_T beta(T) - sum over ordered intersecting pairs
    # of beta(T) beta(T'), via the subset expansion of the symmetric beta
    rng = np.random.default_rng(5)
    for _ in range(1000):
        k = int(rng.integers(1, 7))
        alpha = np.sort(rng.uniform(0, 2, size=k))[::-1]
        beta = beta_on_subsets(alpha_to_beta(alpha), k)
        linear = 2.0 * beta[1:].sum()
        quad = sum(
            beta[a] * beta[b]
            for a in range(1, 1 << k)
            for b in range(1, 1 << k)
            if a & b
        )
        assert abs(binom_sum(alpha) - (linear - quad)) <= 1e-10


# ---------------------------------------------------------------------------
# entropies and the maximum-entropy bound
# ---------------------------------------------------------------------------


def test_entropy_uniform_and_point_mass():
    k = 3
    uni = PartitionMeasure(k, np.full(1 << k, 1.0 / (1 << k)))
    assert abs(entropies(uni).h_pi - k * math.log(2)) <= 1e-12
    point = np.zeros(1 << k)
    point[0] = 1.0
    assert entropies(PartitionMeasure(k, point)).h_pi == 0.0


def test_entropy_hhat_hand():
    rep = entropies(PartitionMeasure(1, np.array([0.5, 0.5])))
    assert abs(rep.h_hat - 0.5 * math.log(0.5)) <= 1e-15


def test_max_entropy_forced_2x2():
    # k=1, pi = (1/2, 1/2): M is forced to M(e,1) = M(1,e) = 1/2;
    # residual = 2 log 2 + (1/2) log(1/2) - log 2 = (1/2) log 2 by hand
    M = np.array([[0.0, 0.5], [0.5, 0.0]])
    res = max_entropy_check(EdgeProfile(1, M))
    assert abs(res - 0.5 * math.log(2)) <= 1e-12
    assert res >= 0.0


def test_max_entropy_on_real_tuples():
    rng = np.random.default_rng(6)
    for _ in range(300):
        g, sets = random_independent_tuple(rng, n=12, d=3, k=2)
        if not g.edges:
            continue
        _, _, ep = profile_from_sets(g, sets)
        assert max_entropy_check(ep) >= -1e-12


def test_jensen_equality_residuals():
    for k in (1, 2, 3):
        _, ep = jensen_equality_profile(k)
        assert abs(max_entropy_check(ep)) <= 1e-9


def test_edge_profile_validation():
    with pytest.raises(ProfileError, match="symmetric"):
        EdgeProfile(1, np.array([[0.5, 0.3], [0.2, 0.0]]))
    bad_support = np.zeros((4, 4))
    bad_support[1, 1] = 1.0  # cell {1} to itself
    with pytest.raises(ProfileError, match="support"):
        EdgeProfile(2, bad_support)
    with pytest.raises(ProfileError, match="sum"):
        EdgeProfile(1, np.array([[0.5, 0.2], [0.2, 0.0]]))


# Every check below was a comparison that NaN fails, so NaN passed them all.


def test_partition_measure_rejects_nan():
    with pytest.raises(ProfileError, match="finite"):
        PartitionMeasure(1, [math.nan, math.nan])
    with pytest.raises(ProfileError, match="finite"):
        PartitionMeasure(2, [0.5, 0.5, 0.0, math.inf])


def test_density_profile_rejects_nan():
    with pytest.raises(ProfileError, match="finite"):
        DensityProfile(1, [1.0, math.nan])
    with pytest.raises(ProfileError, match="finite"):
        DensityProfile(2, [1.0, 0.5, math.nan, 0.1])


def test_edge_profile_rejects_nan():
    M = np.zeros((2, 2))
    M[0, 0] = math.nan
    with pytest.raises(ProfileError, match="finite"):
        EdgeProfile(1, M)


def test_edge_profile_from_counts_needs_an_edge_endpoint():
    with np.errstate(all="raise"):  # no division is attempted
        with pytest.raises(ProfileError, match="n\\*d >= 1"):
            EdgeProfile.from_counts(1, np.zeros((2, 2)), 0, 1)
        with pytest.raises(ProfileError, match="n\\*d >= 1"):
            EdgeProfile.from_counts(1, np.zeros((2, 2)), 3, 0)


# ---------------------------------------------------------------------------
# exact expected counts: configuration model
# ---------------------------------------------------------------------------


def test_log_expected_Z_empty_profile():
    prof = DensityProfile(1, np.array([1.0, 0.0]))
    eps = list(compatible_edge_profiles(prof, 2, 2))
    assert len(eps) == 1
    assert log_expected_Z(prof, eps[0], 2, 2) == 0.0  # exactly one empty tuple


def test_expected_Z_hand_values():
    # n=2, d=2, size-1 sets: 4/3 over the 3 pairings; n=4, d=2: 144/105
    prof = DensityProfile(1, np.array([1.0, 0.5]))
    assert abs(expected_Z_total(prof, 2, 2) - 4.0 / 3.0) <= 1e-12
    assert abs(expected_Z_total(prof, 4, 2) - 144.0 / 105.0) <= 1e-12


def test_expected_Z_matches_enumeration():
    for n, d in ((2, 2), (4, 2), (4, 3)):
        for m in range(n + 1):
            prof = DensityProfile(1, np.array([1.0, m / n]))
            exact = expected_Z_total(prof, n, d)
            brute = mean_brute_force_Z(prof, n, d)
            assert abs(exact - brute) <= 1e-9 * max(1.0, brute), (n, d, m)


def test_expected_Z_k2_matches_enumeration():
    # joint profiles of two sets on a tiny instance
    n, d = 4, 2
    for sizes in ((1, 1, 0), (1, 1, 1), (2, 1, 1), (2, 2, 2)):
        c1, c2, c12 = sizes
        rho = np.array([1.0, c1 / n, c2 / n, c12 / n])
        try:
            prof = DensityProfile(2, rho)
            rho_to_pi(prof)
        except ProfileError:
            continue
        exact = expected_Z_total(prof, n, d)
        brute = mean_brute_force_Z(prof, n, d)
        assert abs(exact - brute) <= 1e-9 * max(1.0, brute), sizes


def test_log_expected_Z_named_errors():
    prof = DensityProfile(1, np.array([1.0, 0.5]))
    ep = list(compatible_edge_profiles(prof, 4, 2))[0]
    with pytest.raises(ProfileError, match="integral"):
        log_expected_Z(DensityProfile(1, np.array([1.0, 0.3])), ep, 4, 2)
    bad = DensityProfile(1, np.array([1.0, 0.25]))
    with pytest.raises(ProfileError, match="marginal"):
        log_expected_Z(bad, ep, 4, 2)


# ---------------------------------------------------------------------------
# rate bound
# ---------------------------------------------------------------------------


def test_rate_bound_degenerate():
    point = np.zeros(2)
    point[0] = 1.0
    assert rate_bound(PartitionMeasure(1, point), 5) == 0.0
    for eps in (1e-3, 1e-6, 1e-9):
        val = rate_bound(PartitionMeasure(1, np.array([1 - eps, eps])), 5)
        assert abs(val) <= 20 * eps * math.log(1 / eps)


def test_rate_bound_dominates_compatible_profiles():
    # (d/2) H(M) - (d-1) H(pi) <= rate_bound for every compatible M
    rng = np.random.default_rng(7)
    n, d = 6, 3
    for m in range(0, n + 1):
        prof = DensityProfile(1, np.array([1.0, m / n]))
        measure = rho_to_pi(prof)
        bound = rate_bound(measure, d)
        h_pi = entropies(measure).h_pi
        for ep in compatible_edge_profiles(prof, n, d):
            h_m = entropies(ep).h_m
            assert 0.5 * d * h_m - (d - 1) * h_pi <= bound + 1e-10


def test_asymptotic_rate_zero_and_scaling():
    lead, gap = asymptotic_rate([0.0, 0.0], 2, 1000)
    assert lead == 0.0
    lead1, _ = asymptotic_rate([1.0, 1.0], 2, 1000)
    assert abs(lead1 - math.log(1000) ** 2 / 2000) <= 1e-15
    # halving the binomial sum halves the leading term: alpha=(1,1) gives 1,
    # and the leading term is linear in it
    assert abs(lead1 / binom_sum([1.0, 1.0]) * binom_sum([0.5, 0.75 * 0.5])
               - asymptotic_rate([0.5, 0.375], 2, 1000)[0]) <= 1e-15


def test_asymptotic_rate_rejects_bad_alpha():
    for alpha, match in (([math.nan], "finite"), ([1.0, math.inf], "finite"),
                         ([-0.1], "non-negative"), ([0.5, 1.0], "non-increasing")):
        with pytest.raises(ValueError, match=match):
            asymptotic_rate(alpha, len(alpha), 1000)


def test_asymptotic_rate_gap_calibrated():
    for d in (10**3, 10**4, 10**5):
        for k, alpha in ((2, [1.0, 1.0]), (3, [1.2, 0.8, 0.5]), (1, [1.5])):
            lead, gap = asymptotic_rate(alpha, k, d)  # asserts internally
            assert gap <= 16.0 * math.log(d) / d


# ---------------------------------------------------------------------------
# Erdos-Renyi expected count
# ---------------------------------------------------------------------------


def test_er_log_expected_Z_hand():
    prof = DensityProfile(1, np.array([1.0, 0.5]))
    assert abs(er_log_expected_Z(prof, 4, 2.0) - math.log(3.0)) <= 1e-12


def test_er_log_expected_Z_trivial():
    prof = DensityProfile(1, np.array([1.0, 0.0]))
    assert er_log_expected_Z(prof, 6, 2.0) == 0.0


def test_er_k1_exactness_monte_carlo():
    # E[number of independent 3-subsets of ER(6, 2)] equals the formula
    n, lam, m, trials = 6, 2.0, 3, 100_000
    prof = DensityProfile(1, np.array([1.0, m / n]))
    target = math.exp(er_log_expected_Z(prof, n, lam))
    counts = er_independent_triple_counts(n, lam, 8, trials, checked=20_000)
    se = counts.std(ddof=1) / math.sqrt(trials)
    assert abs(counts.mean() - target) <= 3 * se


# ---------------------------------------------------------------------------
# pair-count identity
# ---------------------------------------------------------------------------


def test_intersection_edge_count_cases():
    lhs, rhs = intersection_edge_count([set(range(4))], 6)
    assert lhs == rhs == 6  # C(4,2)
    lhs, rhs = intersection_edge_count([set(), set()], 5)
    assert lhs == rhs == 0
    lhs, rhs = intersection_edge_count([{0, 1, 2, 3}, {2, 3, 4, 5}], 6)
    assert lhs == rhs


def test_intersection_edge_count_random():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        k = int(rng.integers(1, 7))
        n = int(rng.integers(1, 12))
        sets = [set(np.flatnonzero(rng.random(n) < 0.4)) for _ in range(k)]
        lhs, rhs = intersection_edge_count(sets, n)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------


def test_brute_force_c4():
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    prof = DensityProfile(1, np.array([1.0, 0.5]))
    assert brute_force_Z(g, prof) == 2  # the two diagonals


def test_brute_force_empty_and_singletons():
    g = MultiGraph(4, [])
    assert brute_force_Z(g, DensityProfile(1, np.array([1.0, 0.0]))) == 1
    assert brute_force_Z(g, DensityProfile(1, np.array([1.0, 0.25]))) == 4


def test_brute_force_guard():
    g = MultiGraph(15, [])
    with pytest.raises(ProfileError):
        brute_force_Z(g, DensityProfile(1, np.array([1.0, 0.2])))


# ---------------------------------------------------------------------------
# lattice primitives against the cell-by-cell loops they replaced
# ---------------------------------------------------------------------------
# Each reference is the loop the profile calculus ran before its transforms
# and checks went through the primitives; outputs and error messages must
# stay exactly equal.


def ref_rho_to_pi(rho, k):
    a = rho.copy()
    for b in range(k):
        bit = 1 << b
        for m in range(1 << k):
            if not m & bit:
                a[m] -= a[m | bit]
    if np.any(a < -1e-12):
        worst = int(np.argmin(a))
        return f"inconsistent density profile: pi({worst:#b}) = {a[worst]:.3e} < 0"
    return np.maximum(a, 0.0)


def ref_pi_to_rho(pi, k):
    a = pi.copy()
    for b in range(k):
        bit = 1 << b
        for m in range(1 << k):
            if not m & bit:
                a[m] += a[m | bit]
    return a


def ref_weights(pi, k):
    z = pi.copy()
    for b in range(k):
        bit = 1 << b
        for m in range(1 << k):
            if m & bit:
                z[m] += z[m ^ bit]
    full = (1 << k) - 1
    return z[[full ^ m for m in range(1 << k)]]


def ref_profile_row(copy_bits, n, k):
    row = np.empty(1 << k, dtype=np.float64)
    row[0] = 1.0
    for mask in range(1, 1 << k):
        inter = np.ones(n, dtype=bool)
        for i in range(k):
            if mask >> i & 1:
                inter &= copy_bits[i]
        row[mask] = inter.sum() / n
    return row


def ref_forced_pairs(cells):
    size = len(cells)
    forced = 0
    for m in range(1, size):
        forced += cells[m] * (cells[m] - 1) // 2
    for a in range(1, size):
        for b in range(a + 1, size):
            if a & b:
                forced += cells[a] * cells[b]
    return forced


def ref_monotone_error(rho, k):
    for mask in range(1 << k):
        for b in range(k):
            if not mask >> b & 1 and rho[mask | 1 << b] > rho[mask] + 1e-12:
                return f"rho not monotone under superset at T={mask:#b}"
    return None


def ref_support_error(M, k):
    size = 1 << k
    for a in range(size):
        for b in range(size):
            if a & b and M[a, b] > 1e-12:
                return (
                    f"support violated: M({a:#b},{b:#b}) > 0 with intersecting index sets"
                )
    return None


def ref_diagonal_error(counts, k):
    for a in range(1 << k):
        if counts[a, a] % 2:
            return f"diagonal count at T={a:#b} must be even"
    return None


def outcome(build):
    """build()'s result, or its ProfileError's message."""
    try:
        return build()
    except ProfileError as exc:
        return str(exc)


def same(got, want):
    if isinstance(want, str) or want is None:
        return got == want
    return np.array_equal(got, want)


LATTICE_KS = range(1, 11)


def test_popcounts_and_cardinality_expansion():
    for k in range(0, 11):
        want = np.array([bin(m).count("1") for m in range(1 << k)])
        assert np.array_equal(popcounts(k), want)
    rng = np.random.default_rng(40)
    for k in LATTICE_KS:
        beta = rng.normal(size=k)
        want = np.zeros(1 << k)
        for m in range(1, 1 << k):
            want[m] = beta[bin(m).count("1") - 1]
        assert np.array_equal(beta_on_subsets(beta, k), want)


def test_moebius_transforms_equal_the_cell_loops():
    rng = np.random.default_rng(41)
    for k in LATTICE_KS:
        for _ in range(30):
            pi = rng.dirichlet(np.ones(1 << k))
            rho = ref_pi_to_rho(pi, k)
            assert np.array_equal(pi_to_rho(PartitionMeasure(k, pi)).rho, rho)
            assert np.array_equal(PartitionMeasure(k, pi).weights(), ref_weights(pi, k))
            assert np.array_equal(
                rho_to_pi(DensityProfile(k, rho)).pi, ref_rho_to_pi(rho, k)
            )
            raw = rng.normal(size=1 << k)  # the transforms alone, on any array
            assert np.array_equal(superset_sum(raw), ref_pi_to_rho(raw, k))
            assert np.array_equal(superset_sum(raw[::-1]), ref_weights(raw, k))


def test_rho_to_pi_names_the_same_worst_cell():
    # symmetric profiles at scale log(d)/d, as `bounds` builds them: many are
    # monotone but inconsistent, and the error names the argmin cell
    rng = np.random.default_rng(42)
    rejected = 0
    for k in LATTICE_KS:
        for _ in range(20):
            alpha = np.sort(rng.uniform(0, 3, size=k))[::-1]
            d = int(rng.choice([10, 100, 10**4]))
            prof = DensityProfile.symmetric(k, alpha, math.log(d) / d)
            want = ref_rho_to_pi(prof.rho, k)
            got = outcome(lambda: rho_to_pi(prof).pi)
            assert same(got, want), (k, alpha, d)
            rejected += isinstance(want, str)
    assert rejected >= 20


def test_density_profile_monotonicity_names_the_same_cell():
    rng = np.random.default_rng(43)
    rejected = 0
    for k in LATTICE_KS:
        for _ in range(20):
            rho = ref_pi_to_rho(rng.dirichlet(np.ones(1 << k)), k)
            for m in rng.integers(1, 1 << k, size=int(rng.integers(0, 4))):
                rho[m] = rng.uniform(0, 1)  # may break monotonicity
            want = ref_monotone_error(rho, k)
            got = outcome(lambda: DensityProfile(k, rho).rho)
            assert same(got, rho if want is None else want), k
            rejected += want is not None
    assert 20 <= rejected <= 180
    # at the tolerance: 5e-12 above a subset's value fails, 1e-13 passes
    for eps, want in ((5e-12, "rho not monotone under superset at T=0b1"), (1e-13, None)):
        rho = np.array([1.0, 0.5, 0.5, 0.5 + eps])
        assert ref_monotone_error(rho, 2) == want
        assert same(outcome(lambda: DensityProfile(2, rho).rho), rho if want is None else want)


def random_edge_profile(rng, k):
    """A symmetric M on disjoint cell pairs, with probability 1/2 one
    intersecting pair (and its mirror) made positive."""
    size = 1 << k
    idx = np.arange(size)
    M = np.triu(rng.random((size, size)) * ((idx[:, None] & idx) == 0))
    if rng.random() < 0.5:
        a, b = rng.integers(1, size, size=2)
        while not a & b:
            a, b = rng.integers(1, size, size=2)
        M[min(a, b), max(a, b)] = rng.uniform(0.1, 1)
    M = M + np.triu(M, 1).T
    return M / M.sum()


def test_edge_profile_support_names_the_same_pair():
    rng = np.random.default_rng(44)
    rejected = 0
    for k in LATTICE_KS:
        for _ in range(4 if k < 9 else 1):
            M = random_edge_profile(rng, k)
            want = ref_support_error(M, k)
            got = outcome(lambda: EdgeProfile(k, M).M)
            assert same(got, M if want is None else want), k
            rejected += want is not None
    assert 5 <= rejected <= 29


def test_edge_count_diagonal_names_the_same_cell():
    rng = np.random.default_rng(45)
    rejected = 0
    for k in LATTICE_KS:
        size = 1 << k
        idx = np.arange(size)
        for _ in range(10):
            # supported on disjoint pairs; the empty cell's loop count is even
            upper = np.triu(rng.integers(0, 3, size=(size, size)), 1)
            counts = (upper + upper.T) * ((idx[:, None] & idx) == 0)
            counts[0, 0] = 2 * rng.integers(1, 3)
            for m in rng.choice(size, size=int(rng.integers(0, 3)), replace=False):
                counts[m, m] += 1  # an odd diagonal count
            total = int(counts.sum())  # taken as n*d with n = total, d = 1
            want = ref_diagonal_error(counts, k)
            got = outcome(lambda: EdgeProfile.from_counts(k, counts, total, 1).M)
            if want is None:
                assert np.array_equal(got, counts / total)
            else:
                assert got == want
            rejected += want is not None
    assert 20 <= rejected <= 90


def test_density_row_equals_the_per_subset_loop():
    rng = np.random.default_rng(46)
    for k in LATTICE_KS:
        for _ in range(10):
            n = int(rng.integers(1, 60))
            bits = [rng.random(n) < rng.uniform(0, 1) for _ in range(k)]
            assert np.array_equal(
                density_row(signatures(bits), k), ref_profile_row(bits, n, k)
            )


def test_forced_pairs_equals_the_cell_pair_loop():
    rng = np.random.default_rng(47)
    for k in LATTICE_KS:
        for _ in range(10):
            cells = rng.integers(0, 6, size=1 << k) * (rng.random(1 << k) < 0.5)
            assert forced_pairs(cells) == ref_forced_pairs(cells.tolist())


def test_er_log_expected_Z_uses_the_same_forced_count():
    rng = np.random.default_rng(48)
    for k in range(1, 6):
        n = 1 << k + 1
        cells = rng.multinomial(n, np.ones(1 << k) / (1 << k))
        prof = pi_to_rho(PartitionMeasure(k, cells / n))
        lam = 2.0
        log_multinomial = math.lgamma(n + 1) - math.fsum(
            math.lgamma(c + 1) for c in cells.tolist()
        )
        want = log_multinomial + ref_forced_pairs(cells.tolist()) * math.log1p(-lam / n)
        assert er_log_expected_Z(prof, n, lam) == want


def test_round_trip_at_the_lattice_cap():
    k = 20
    rng = np.random.default_rng(49)
    pi = rng.dirichlet(np.ones(1 << k))
    prof = pi_to_rho(PartitionMeasure(k, pi))
    back = rho_to_pi(prof)
    assert np.max(np.abs(back.pi - pi)) <= 1e-12
    assert np.max(np.abs(pi_to_rho(back).rho - prof.rho)) <= 1e-12
    with pytest.raises(ProfileError, match="1..20"):
        DensityProfile(k + 1, np.ones(1 << (k + 1)))
