"""Law gate for the coupled labels of graph-host trials.

Graph vertices take their labels, their S-membership and their fresh copies
from per-vertex folds (rng.CoupledLabels over coupling.vertex_states), the
rule tree nodes use; rng.coupled_label, its form for one node, is checked
equal to it.  Each check
here compares what the program draws with a value computed without its
construction: exact binomial tails, the geometric law of first-success
rounds, and on a fixed graph the threshold factor's exact conditional
density.  Each runs once on the program and once on a mutant it must reject
(`mutant` in its parameters), so every check shows its power:

- "copy0": copy c >= 1 on S reads copy 0's labels;
- "cut": the S cut scaled by 1.2;
- "all_s": every node in S, whatever p;
- "shift": the reference shifted by 5 standard errors, away from the
  estimate, as benchmarks/test_bench.py shows the benchmark's power.

z-tests use the benchmark's limit of 4.75 standard errors, and exact
binomial tests its two-sided level erfc(4.75 / sqrt 2).
"""

import math

import numpy as np
import pytest
from scipy import stats

from localis import cli, coupling, rng
from localis.coupling import (
    CouplingConfig,
    coupled_graph_intersections,
    estimate_stability,
    vertex_states,
)
from localis.factors import threshold_factor
from localis.graphs import (
    ConfigModelHost,
    MultiGraph,
    non_tree_ball_mask,
    sample_config_model,
    sample_er,
)
from localis.rng import (
    CoupledLabels,
    coupled_label,
    first_success_round,
    percolation_cut,
    trial_state,
)

from conftest import GivenGraph

Z_FAIL = 4.75
ALPHA = math.erfc(Z_FAIL / math.sqrt(2.0))
N, TRIALS = 1000, 200  # vertices and trials behind the label-law checks


def apply_mutant(monkeypatch, mutant):
    """Install the named mutant of the label rule for the rest of the test."""
    if mutant == "copy0":
        monkeypatch.setattr(CoupledLabels, "__call__", lambda self, copy=0, at=...: self.x0[at])
    elif mutant in ("cut", "all_s"):
        cut = (lambda p: int(1.2 * percolation_cut(p))) if mutant == "cut" else (lambda p: 1 << 64)
        monkeypatch.setattr(rng, "percolation_cut", cut)


def trial_labels(p: float, trials: int = TRIALS) -> list:
    return [CoupledLabels(vertex_states(trial_state(41, t), N), p) for t in range(trials)]


def binomial_ok(count: int, n: int, q: float) -> bool:
    """Two-sided exact binomial test of `count` successes in n at rate q."""
    tail = min(stats.binom.cdf(count, n, q), stats.binom.sf(count - 1, n, q))
    return 2.0 * tail >= ALPHA


def z_ok(estimate: float, reference: float, se: float, mutant) -> bool:
    if mutant == "shift":
        reference -= 5.0 * se * math.copysign(1.0, estimate - reference)
    return abs(estimate - reference) <= Z_FAIL * se


# ---------------------------------------------------------------------------
# The labels: S, copy 0 and the fresh copies
# ---------------------------------------------------------------------------


def test_scalar_and_array_labels_agree():
    states = vertex_states(trial_state(40, 0), 3000)
    for p in (0.0, 0.3, 1.0):
        labels, memo, cut = CoupledLabels(states, p), {}, percolation_cut(p)
        labels(0)
        assert "in_s" not in vars(labels)  # copy 0 alone draws no S
        for c in (0, 1, 2, 7, 3, 0):
            scalar = [coupled_label(s, c, cut, memo) for s in states.tolist()]
            assert labels(c).tolist() == scalar, (p, c)
        assert labels(np.arange(4, dtype=np.uint64)[:, None]).tolist() == [
            labels(c).tolist() for c in range(4)
        ]


@pytest.mark.parametrize("mutant", [None, "cut"])
@pytest.mark.parametrize("p", [0.3, 0.7])
def test_s_membership_is_binomial(monkeypatch, p, mutant):
    apply_mutant(monkeypatch, mutant)
    count = sum(int(labels.in_s.sum()) for labels in trial_labels(p))
    assert binomial_ok(count, N * TRIALS, p) == (mutant is None), count


@pytest.mark.parametrize("mutant", [None, "shift"])
@pytest.mark.parametrize("copy, p", [(0, 0.0), (2, 0.5)])
def test_first_success_rounds_are_geometric(copy, p, mutant):
    q = 0.3  # the rounds of LW(0.3, 100)
    labels = np.concatenate([labels(copy) for labels in trial_labels(p, TRIALS // 2)])
    rounds = np.array([first_success_round(x, q, 100) for x in labels.tolist()])
    if mutant == "shift":  # round 1 gains 5 standard errors of its frequency
        q += 5.0 * math.sqrt(q * (1.0 - q) / rounds.size)
    top = 12  # rounds above 12 share one cell, expected count ~1400
    observed = np.bincount(np.minimum(rounds, top + 1), minlength=top + 2)[1:]
    pmf = q * (1.0 - q) ** np.arange(top)
    expected = np.append(pmf, 1.0 - pmf.sum()) * rounds.size
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert (chi2 <= stats.chi2.ppf(0.999, top)) == (mutant is None), chi2


@pytest.mark.parametrize("mutant", [None, "copy0"])
@pytest.mark.parametrize("copy", [1, 5])
def test_fresh_copies_differ_on_s_alone(monkeypatch, copy, mutant):
    apply_mutant(monkeypatch, mutant)
    below = on_s = 0
    for labels in trial_labels(0.5):
        x0, xc = labels(0), labels(copy)
        assert np.array_equal(xc[~labels.in_s], x0[~labels.in_s])
        below += int((xc[labels.in_s] < x0[labels.in_s]).sum())
        on_s += int(labels.in_s.sum())
    assert binomial_ok(below, on_s, 0.5) == (mutant is None), (below, on_s)


# ---------------------------------------------------------------------------
# On a fixed graph: the threshold factor's exact conditional density
# ---------------------------------------------------------------------------

F = threshold_factor()
CONFIG = sample_config_model(200, 3, 42)
ER = sample_er(200, 2.0, 43)


def tree_ball_weights(g: MultiGraph) -> np.ndarray:
    """P(v in the projected threshold set) given g: 1/(deg v + 1) on vertices
    whose 2-ball is a tree, 0 elsewhere."""
    deg = np.diff(np.asarray(g.start))
    return np.where(non_tree_ball_mask(g, 2), 0.0, 1.0 / (deg + 1.0))


@pytest.fixture
def fixed_graph(monkeypatch):
    """Every sampler call of cli and coupling returns the graph given, and
    graph-host stability explores it (conftest.GivenGraph) in every trial."""

    def fix(g: MultiGraph):
        for name in ("sample_config_model", "sample_er"):
            monkeypatch.setattr(cli, name, lambda *args: g)
        monkeypatch.setattr(coupling, "_sample_graph", lambda host, state: g)
        monkeypatch.setattr(coupling, "_graphs", lambda host, st: GivenGraph(g))

    return fix


@pytest.mark.parametrize("mutant", [None, "shift"])
@pytest.mark.parametrize("host", ["config-model", "er"])
def test_graph_density_matches_the_tree_ball_weights(tmp_path, fixed_graph, host, mutant):
    g = CONFIG if host == "config-model" else ER
    fixed_graph(g)
    out = str(tmp_path / "d.csv")
    size = ["--d", "3"] if host == "config-model" else ["--lam", "2"]
    assert cli.main(["density", "--factor", "threshold", "--host", host, "--n", "200",
                     *size, "--trials", "400", "--seed", "44", "--out", out]) == 0
    row = dict(zip(*(line.split(",") for line in open(out).read().splitlines())))
    mean, se = float(row["mean"]), float(row["stderr"])
    assert z_ok(mean, tree_ball_weights(g).mean(), se, mutant) == (mutant is None)


def config_cfg(p: float, k: int, trials: int, inner: int = 1) -> CouplingConfig:
    return CouplingConfig(p=p, k=k, factor=F, host=ConfigModelHost(200, 3), trials=trials,
                          inner_trials=inner, seed=45)


@pytest.mark.parametrize("mutant", [None, "copy0"])
def test_independent_copies_intersect_as_powers_of_a_quarter(fixed_graph, monkeypatch, mutant):
    # at p = 1 the copies' labels are independent, and a tree-ball vertex of
    # degree 3 is in each copy's set with probability 1/4
    fixed_graph(CONFIG)
    apply_mutant(monkeypatch, mutant)
    est = coupled_graph_intersections(config_cfg(1.0, 3, 300))
    fraction = float((tree_ball_weights(CONFIG) > 0).mean())
    oks = []
    for i in (1, 2, 3):
        mean, se = est.density(i)
        oks.append(z_ok(mean, fraction * 0.25**i, se, None))
    assert all(oks) == (mutant is None), est.means


@pytest.mark.parametrize("mutant", [None, "all_s"])
def test_copies_at_p0_equal_copy_one(fixed_graph, monkeypatch, mutant):
    fixed_graph(CONFIG)
    apply_mutant(monkeypatch, mutant)
    rows = coupled_graph_intersections(config_cfg(0.0, 3, 40)).prefix_rows
    assert (rows == rows[:, :1]).all() == (mutant is None)


@pytest.mark.parametrize("mutant", [None, "copy0"])
def test_config_stability_at_p1_is_a_quarter(fixed_graph, monkeypatch, mutant):
    # given the root's bit under X0, each inner trial relabels its whole
    # tree-like ball afresh: E[Q | accepted] = 1/4 at d = 3
    fixed_graph(CONFIG)
    apply_mutant(monkeypatch, mutant)
    est = estimate_stability(config_cfg(1.0, 2, 3000, inner=20))
    mean, se = est.moment(1)
    assert z_ok(mean, 0.25, se, None) == (mutant is None), (mean, se)
