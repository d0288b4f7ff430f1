import inspect
import itertools
import math
import textwrap

import numpy as np
import pytest

import localis
from localis import coupling, factors, graphs
from localis.graphs import Exploration, MultiGraph, bernoulli_pairs, sample_er, triangle_pairs
from localis.profiles import independent_subsets


def apply_mutant(monkeypatch, mutants: dict, mutant) -> None:
    """Install the named mutant of `mutants` for the rest of the test.
    `mutants` maps a name to its (owner, function name, old text, new text)
    replacements; an owner is a module of the package or a class in one, by
    dotted name.  Each function it changes is recompiled from its source
    with the texts replaced (each must occur exactly once) and bound
    wherever the original is."""
    changes = {}
    for path, name, old, new in mutants.get(mutant, []):
        module, _, cls = path.partition(".")
        owner = vars(localis)[module] if not cls else getattr(vars(localis)[module], cls)
        source = changes.get((owner, name)) or textwrap.dedent(
            inspect.getsource(getattr(owner, name)))
        assert source.count(old) == 1, (mutant, name, old)
        changes[owner, name] = source.replace(old, new)
    for (owner, name), source in changes.items():
        original = getattr(owner, name)
        space = dict(vars(inspect.getmodule(original)))
        exec(compile(source, f"<mutant {mutant}>", "exec"), space)
        for holder in (owner, factors, graphs, coupling):
            if getattr(holder, name, None) is original:
                monkeypatch.setattr(holder, name, space[name])


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


def graph_arrays(g) -> list:
    """A MultiGraph as lists: its grouped incidence arrays start, nbr, eid."""
    return [np.asarray(g.start).tolist(), g.nbr.tolist(), g.eid.tolist()]


def ball_arrays(ball) -> tuple:
    """A rooted ball as lists: its adjacency, labels, depths and order keys."""
    return (ball.adj, ball.labels.tolist(), ball.depths.tolist(),
            [ball.order_key(v) for v in range(ball.n)])


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


def event_E_monte_carlo(lam: float, d: int, trials: int, seed: int) -> float:
    """Monte Carlo estimate of pgw_transfer.event_E_probability(lam, d) from
    default_rng(seed): `trials` Poisson(lam) root degrees, then one draw of
    the offspring counts of every neighbour of the roots of degree <= d; a
    root fails when one of them exceeds d - 1."""
    rng = np.random.default_rng(seed)
    roots = rng.poisson(lam, size=trials)
    kept = np.flatnonzero(roots <= d)
    ends = np.cumsum(roots[kept])
    over = np.flatnonzero(rng.poisson(lam, size=int(ends[-1]) if ends.size else 0) > d - 1)
    failed = np.unique(np.searchsorted(ends, over, side="right"))
    return (kept.size - failed.size) / trials


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
        subsets = independent_subsets(n, sample_er(n, lam, rng).edges).tolist()
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


class GivenGraph(Exploration):
    """The exploration of a given MultiGraph g in every group: revealing
    vertex v of a group gives g's edges at v to the vertices not revealed
    before it, each edge once (a loop once, parallel edges each)."""

    def __init__(self, g: MultiGraph):
        super().__init__(g.n)
        self.g = g

    def _draw(self, batch: np.ndarray, prior: np.ndarray) -> tuple:
        n, before, heads, tails = self.n, set(prior.tolist()), [], []
        for key in batch.tolist():
            group, eids = key - key % n, set()
            for w, eid in self.g.adj[key % n]:
                if eid not in eids and group + w not in before:
                    eids.add(eid)
                    heads.append(key)
                    tails.append(group + w)
            before.add(key)
        return np.array(heads, dtype=np.int64), np.array(tails, dtype=np.int64)
