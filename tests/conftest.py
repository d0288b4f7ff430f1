import itertools
import math

import numpy as np
import pytest

from localis import factors, graphs
from localis.graphs import bernoulli_pairs, sample_er, triangle_pairs
from localis.profiles import independent_subsets


def combined_sigma(*ses) -> float:
    return math.sqrt(sum(se * se for se in ses))


def assert_within_sigma(estimate, target, *ses, nsig=3.0, context=""):
    """Assert |estimate - target| <= nsig * sqrt(sum of squared stderrs)."""
    sigma = combined_sigma(*ses)
    diff = abs(estimate - target)
    assert diff <= nsig * sigma + 1e-15, (
        f"{context}: |{estimate} - {target}| = {diff:.4g} "
        f"exceeds {nsig} * {sigma:.4g}"
    )


def binomial_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def unit_to_label(u: float) -> np.uint64:
    return np.uint64(int(u * 2.0**64))


def er_independent_triple_counts(n: int, lam: float, seed: int, trials: int, checked: int):
    """Independent 3-subsets of `trials` successive sample_er(n, lam, rng)
    graphs, rng = default_rng(seed), counted on a (trials, pairs) presence
    matrix: sample_er draws its edges by one bernoulli_pairs(rng, n, lam / n)
    call, so row t holds graph t's pairs at their triangle_pairs positions.
    The first `checked` counts are asserted equal, call by call, to
    sample_er plus independent_subsets on a generator of the same seed."""
    a, b = triangle_pairs(n, np.arange(n * (n - 1) // 2))
    column = np.zeros((n, n), dtype=np.int64)
    column[a, b] = np.arange(a.size)
    triples = [
        [column[u, v], column[u, w], column[v, w]]
        for u, v, w in itertools.combinations(range(n), 3)
    ]
    rng = np.random.default_rng(seed)
    present = np.zeros((trials, a.size), dtype=bool)
    for t in range(trials):
        present[t, column[bernoulli_pairs(rng, n, lam / n)]] = True
    counts = (~present[:, triples].any(axis=2)).sum(axis=1)
    rng = np.random.default_rng(seed)
    for t in range(checked):
        subsets = independent_subsets(sample_er(n, lam, rng))
        assert counts[t] == sum(1 for s in subsets if bin(s).count("1") == 3), t
    return counts.astype(np.float64)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def mask_walks(monkeypatch) -> list:
    """Record (graph, radius, vertices) of every graphs.tree_ball_mask call,
    wherever the function is bound."""
    walks = []
    mask = graphs.tree_ball_mask

    def spy(g, radius, at=None):
        walks.append((g, radius, at))
        return mask(g, radius, at)

    for module in (graphs, factors):
        monkeypatch.setattr(module, "tree_ball_mask", spy)
    return walks
