"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; all tolerances are fixed here, nothing is calibrated at run time.
"""

import math
import time

import numpy as np

from localis.cli import main as cli_main
from localis.coupling import (
    CouplingConfig,
    coupled_tree_intersections,
    estimate_stability,
)
from localis.factors import (
    beta_formula,
    estimate_tree_density,
    lauer_wormald,
    project_to_graph,
    threshold_factor,
)
from localis.graphs import RegularTreeHost, sample_config_model
from localis.parallel import mean_stderr
from localis.pgw_transfer import (
    event_E_lower_bound,
    event_E_probability,
    event_K_probability,
    poisson_tail,
    poisson_tail_bound,
    schedule_tail_bound,
    transfer_block,
    transfer_density,
)
from localis.profiles import (
    DensityProfile,
    PartitionMeasure,
    alpha_to_beta,
    beta_on_subsets,
    binom_sum,
    er_log_expected_Z,
    expected_Z_total,
    independent_subsets,
    intersection_edge_count,
    jensen_equality_profile,
    max_entropy_check,
    pi_to_rho,
    profile_from_sets,
    rho_to_pi,
)
from localis.rng import trial_state_np, uniform_labels

from conftest import binomial_se, er_independent_triple_counts, event_E_monte_carlo, s_k

# densities of independent sets simulated on d=3 hosts, checked by criterion 9
D3_DENSITIES = []


def test_criterion_1_percolation_round_limit():
    assert beta_formula(3).value == 0.375
    assert abs(beta_formula(4).value - 1.0 / 3.0) < 1e-15
    started = time.monotonic()
    est = estimate_tree_density(
        lauer_wormald(0.02, 250), RegularTreeHost(3), 100_000, seed=101, workers=1
    )
    elapsed = time.monotonic() - started
    D3_DENSITIES.append(est.mean)
    assert 0.34 <= est.mean <= 0.376, f"reference density {est.mean} out of band"
    assert elapsed < 300.0, f"single-threaded reference run took {elapsed:.0f}s"
    print(
        f"ACCEPTANCE 1 PASS: beta(3)=0.375, beta(4)=1/3; reference density "
        f"{est.mean:.4f} in [0.34, 0.376] ({elapsed:.0f}s single-threaded)"
    )


def test_criterion_2_pairing_count_oracle():
    from localis.graphs import enumerate_config_pairings

    started = time.monotonic()
    worst = 0.0
    for n, d in ((2, 2), (4, 2), (4, 3), (6, 2)):
        totals = np.zeros(n + 1)
        outcomes = 0
        for edges in enumerate_config_pairings(n, d):
            for mask in independent_subsets(n, edges).tolist():
                totals[bin(mask).count("1")] += 1
            outcomes += 1
        for m in range(n + 1):
            profile = DensityProfile(1, np.array([1.0, m / n]))
            formula = expected_Z_total(profile, n, d)
            brute = totals[m] / outcomes
            rel = abs(formula - brute) / max(1.0, abs(brute))
            worst = max(worst, rel)
            assert rel <= 1e-9, f"(n={n}, d={d}, m={m}): relative error {rel:.2e}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"oracle suite took {elapsed:.0f}s"
    print(
        f"ACCEPTANCE 2 PASS: formula equals full-pairing enumeration on all "
        f"(n,d) cases, worst relative error {worst:.2e} ({elapsed:.0f}s)"
    )


def test_criterion_3_identity_suite():
    from fractions import Fraction

    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 7))
        # Moebius round trip on a consistent random profile
        pi = PartitionMeasure(k, rng.dirichlet(np.ones(1 << k)))
        prof = pi_to_rho(pi)
        back = pi_to_rho(rho_to_pi(prof))
        worst = max(worst, float(np.max(np.abs(back.rho - prof.rho))))
        # dual forms of the partial geometric series, exact-rational reference
        x = float(rng.uniform(1e-6, 1.0))
        xf = Fraction(x)
        alt = sum(
            (-1) ** (i - 1) * math.comb(k, i) * xf ** (i - 1)
            for i in range(1, k + 1)
        )
        worst = max(worst, abs(s_k(x, k) - float(alt)))
        # binomial statistic vs the quadratic form in the subset transform
        alpha = np.sort(rng.uniform(0, 2, size=k))[::-1]
        beta = beta_on_subsets(alpha_to_beta(alpha), k)
        quad = 2.0 * beta[1:].sum() - sum(
            beta[a] * beta[b]
            for a in range(1, 1 << k)
            for b in range(1, 1 << k)
            if a & b
        )
        worst = max(worst, abs(binom_sum(alpha) - quad))
        # forced-pair counting identity on an explicit random tuple
        n = int(rng.integers(1, 12))
        sets = [set(np.flatnonzero(rng.random(n) < 0.4)) for _ in range(k)]
        lhs, rhs = intersection_edge_count(sets, n)
        assert lhs == rhs
    assert worst <= 1e-10, f"worst identity residual {worst:.2e}"
    print(f"ACCEPTANCE 3 PASS: identity suite worst residual {worst:.2e} <= 1e-10")


def test_criterion_4_entropy_bound():
    rng = np.random.default_rng(104)
    checked = 0
    min_residual = float("inf")
    for k in (1, 2, 3):
        count = 0
        while count < 1000:
            g = sample_config_model(12, 3, int(rng.integers(1 << 30)))
            sets = []
            for _ in range(k):
                bits = project_to_graph(
                    threshold_factor(), g, uniform_labels(rng, 12)
                ).bits
                keep = rng.random(12) < 0.85
                sets.append(set(np.flatnonzero(bits & keep)))
            _, _, ep = profile_from_sets(g, sets)
            residual = max_entropy_check(ep)  # raises below -1e-12
            min_residual = min(min_residual, residual)
            count += 1
            checked += 1
    jensen_worst = 0.0
    for k in (1, 2, 3):
        _, ep = jensen_equality_profile(k)
        jensen_worst = max(jensen_worst, abs(max_entropy_check(ep)))
    assert jensen_worst <= 1e-9
    print(
        f"ACCEPTANCE 4 PASS: {checked} random edge profiles respect the bound "
        f"(min residual {min_residual:.2e} >= -1e-12); equality construction "
        f"residual {jensen_worst:.1e} <= 1e-9"
    )


def test_criterion_5_coupling_endpoints():
    factor = threshold_factor()
    cfg0 = CouplingConfig(p=0.0, k=3, factor=factor, host=RegularTreeHost(3),
                          trials=100_000, seed=105)
    est0 = coupled_tree_intersections(cfg0)
    rows = est0.prefix_rows
    assert np.array_equal(rows[:, 0], rows[:, 1])
    assert np.array_equal(rows[:, 0], rows[:, 2])
    D3_DENSITIES.append(float(est0.means[0]))

    cfg1 = CouplingConfig(p=1.0, k=3, factor=factor, host=RegularTreeHost(3),
                          trials=100_000, seed=106)
    est1 = coupled_tree_intersections(cfg1)
    m1, se1 = est1.density(1)
    D3_DENSITIES.append(m1)
    zs = []
    for i in (2, 3):
        mi, sei = est1.density(i)
        se_pow = i * m1 ** (i - 1) * se1
        sigma = math.sqrt(sei**2 + se_pow**2)
        zs.append(abs(mi - m1**i) / sigma)
        assert zs[-1] <= 3.0, f"p=1 endpoint i={i}: z={zs[-1]:.2f}"
    print(
        f"ACCEPTANCE 5 PASS: p=0 intersections identical per trial; p=1 "
        f"i-wise densities match density^i (z = {zs[0]:.2f}, {zs[1]:.2f})"
    )


def test_criterion_6_stability_moment_consistency():
    factor = threshold_factor()
    started = time.monotonic()
    report = []
    for p, seed in ((0.2, 107), (0.5, 108), (0.8, 109)):
        stab = estimate_stability(
            CouplingConfig(p=p, k=3, factor=factor, host=RegularTreeHost(3),
                           trials=20_000, inner_trials=400, seed=seed,
                           workers=8)
        )
        inter = coupled_tree_intersections(
            CouplingConfig(p=p, k=3, factor=factor, host=RegularTreeHost(3),
                           trials=100_000, seed=seed + 50, workers=8)
        )
        dens, dens_se = stab.density
        D3_DENSITIES.append(dens)
        for i in (1, 2, 3):
            mom, mom_se = stab.moments[i - 1]
            lhs = mom * dens
            rhs, rhs_se = inter.density(i)
            sigma = math.sqrt(
                (mom_se * dens) ** 2 + (mom * dens_se) ** 2 + rhs_se**2
            )
            z = abs(lhs - rhs) / sigma
            report.append(f"p={p} i={i} z={z:.2f}")
            assert z <= 3.0, f"moment consistency failed: p={p}, i={i}, z={z:.2f}"
    elapsed = time.monotonic() - started
    assert elapsed < 900.0, f"stability consistency took {elapsed:.0f}s"
    print(
        f"ACCEPTANCE 6 PASS: jackknife-corrected moment consistency at "
        f"{'; '.join(report)} ({elapsed:.0f}s, 8 workers)"
    )


def test_criterion_7_transfer_sandwich():
    # nominal false-alarm rate, by the normal limit: at most 6 x 0.13% = 0.8%
    # for the three points' one-sided 3-se sandwich bounds (E[J] = density_I
    # P(K) lies inside each), and 3 x 0.27% = 0.8% for the two-sided 3-se
    # event checks
    factor = threshold_factor()
    lines = []
    for (lam, d), trials, seed in (
        ((10.0, 14), 20_000, 110),
        ((20.0, 28), 12_000, 111),
        ((50.0, 60), 5_000, 112),
    ):
        rep = transfer_density(factor, lam, d, trials, seed=seed)
        assert rep.lower - 3 * rep.stderr_j <= rep.density_j <= rep.upper + 3 * rep.stderr_j, (
            f"sandwich violated at (lam={lam}, d={d})"
        )
        mc = event_E_monte_carlo(lam, d, 100_000, seed=seed + 7)
        se_mc = binomial_se(rep.p_event_exact, 100_000)
        assert abs(mc - rep.p_event_exact) <= 3 * se_mc, f"event mc mismatch at {lam},{d}"
        assert event_E_lower_bound(lam, d) <= rep.p_event_exact
        lines.append(
            f"(lam={lam:g}, d={d}): J={rep.density_j:.4f} in "
            f"[{rep.lower:.4f}, {rep.upper:.4f}]"
        )
    print(f"ACCEPTANCE 7 PASS: transfer sandwich holds; {'; '.join(lines)}")


def test_criterion_7_exact_transfer_density():
    # E[J] = density(I) * P(K): the root's filled ball is a d-regular ball
    # with fresh labels, independent of K, the event that no root-incident
    # edge is removed (ROADMAP item 12).  Nominal false-alarm rate 1 - (1 -
    # 0.27%)^4 = 1.1%: four two-sided 3-se z-tests, by the normal limit.  In
    # the same limit, were P(K) off by 5 standard errors (a shift of
    # 5 se / density_I, printed per point), z would be N(+-5, 1) and the
    # bound would see it with probability P(|N(5, 1)| > 3):
    power = 0.5 * (math.erfc(-2 / math.sqrt(2)) + math.erfc(8 / math.sqrt(2)))
    assert abs(power - 0.977) < 5e-4, power
    lines = []
    for f, (lam, d), trials, seed in (
        (threshold_factor(), (3.0, 3), 10_000, 120),
        (threshold_factor(), (20.0, 28), 8_000, 121),
        (threshold_factor(), (50.0, 60), 5_000, 122),
        (lauer_wormald(0.3, 2), (3.0, 3), 4_000, 123),
    ):
        rep = transfer_density(f, lam, d, trials, seed=seed)
        p_k = event_K_probability(lam, d)
        # the report's trials, bit for bit: J and I' are read on the same
        # trials, so the z-test takes the paired standard error
        block = transfer_block(f, lam, d, trial_state_np(seed, np.arange(trials)))
        assert (block.j.mean(), block.iprime.mean()) == (rep.density_j, rep.density_i)
        se = mean_stderr(block.j - p_k * block.iprime)[1]
        z = (rep.density_j - rep.density_i * p_k) / se
        assert abs(z) <= 3.0, f"E[J] = density_I * P(K) fails at (lam={lam}, d={d}): z = {z:.2f}"
        lines.append(f"{f.kind} (lam={lam:g}, d={d}): z={z:+.2f}, se={se:.5f}, "
                     f"P(K) +-{5 * se / rep.density_i:.4f} seen w.p. {power:.3f}")
    print(f"ACCEPTANCE 7 PASS: E[J] = density_I * P(K); {'; '.join(lines)}")


def test_criterion_8_poisson_tails():
    for lam in (5, 10, 20):
        for d in range(lam + 1, 3 * lam + 1):
            tail = poisson_tail(lam, d)
            bound = poisson_tail_bound(lam, d)
            assert tail <= bound, f"tail dominance failed at (lam={lam}, d={d})"
    schedule = schedule_tail_bound(100, 0.75)
    assert abs(schedule - math.exp(-5.0)) <= 1e-12
    print(
        f"ACCEPTANCE 8 PASS: exact tails below the exponential bound on the "
        f"whole grid; schedule bound e^-5 matched to {abs(schedule - math.exp(-5)):.1e}"
    )


def test_criterion_9_sanity_ceilings():
    # densities recorded by the earlier criteria plus fresh small runs
    extra = estimate_tree_density(
        lauer_wormald(0.1, 20), RegularTreeHost(3), 20_000, seed=113
    )
    D3_DENSITIES.append(extra.mean)
    assert D3_DENSITIES, "no simulated densities recorded"
    worst = max(D3_DENSITIES)
    assert worst < 0.456, f"simulated density {worst} reached the known ceiling"

    n, lam, m, trials = 12, 2.0, 3, 10_000
    profile = DensityProfile(1, np.array([1.0, m / n]))
    target = math.exp(er_log_expected_Z(profile, n, lam))
    counts = er_independent_triple_counts(n, lam, 114, trials, checked=1_000)
    se = counts.std(ddof=1) / math.sqrt(trials)
    z = abs(counts.mean() - target) / se
    assert z <= 3.0, f"expected-count formula mismatch: z={z:.2f}"
    print(
        f"ACCEPTANCE 9 PASS: {len(D3_DENSITIES)} simulated d=3 densities "
        f"(max {worst:.4f}) below 0.456; expected-count check z={z:.2f}"
    )


def test_criterion_10_manifest_replay(tmp_path):
    jobs = [
        ("density", ["density", "--factor", "lw", "--lw-p", "0.1", "--lw-k", "3",
                     "--host", "regular-tree", "--d", "3", "--trials", "2000",
                     "--seed", "12"], ["{out}"]),
        ("scan", ["scan-p", "--factor", "threshold", "--host", "regular-tree",
                  "--d", "3", "--k", "2", "--grid", "0,0.5,1",
                  "--trials", "500", "--inner-trials", "40", "--seed", "13"],
         ["{out}.intersections.csv", "{out}.stability.csv", "{out}.binom.csv"]),
        ("stab", ["stability", "--factor", "threshold", "--host", "er",
                  "--n", "40", "--lam", "2", "--k", "2", "--p", "0.5",
                  "--trials", "80", "--inner-trials", "30", "--seed", "14"],
         ["{out}"]),
        ("bounds", ["bounds", "--alpha", "1,0.8", "--d", "100", "--self-test"],
         ["{out}"]),
        ("oracle", ["oracle-check", "--n", "4", "--d", "2"], ["{out}"]),
        ("pgw", ["pgw-transfer", "--factor", "threshold", "--lam", "5",
                 "--d", "8", "--trials", "1500", "--seed", "15"], ["{out}"]),
    ]
    for name, args, patterns in jobs:
        out = str(tmp_path / name)
        assert cli_main(args + ["--out", out]) == 0
        originals = {}
        for pattern in patterns:
            path = pattern.format(out=out)
            with open(path) as fh:
                originals[pattern] = fh.read()
        out2 = str(tmp_path / (name + "_replay"))
        assert cli_main(["replay", out + ".manifest.json", "--out", out2]) == 0
        for pattern, text in originals.items():
            with open(pattern.format(out=out2)) as fh:
                assert fh.read() == text, f"replay of {name} differs at {pattern}"
    print("ACCEPTANCE 10 PASS: all six commands replay byte-for-byte from manifests")
