import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import localis

from localis.rng import (
    CHILD_TAG,
    GOLDEN,
    MASK64,
    below,
    first_success_round,
    first_success_rounds,
    fold,
    fold_np,
    fold_range,
    label_unit,
    mix64,
    mix64_np,
    percolation_cut,
    poisson_from_unit,
    round_bounds,
    seed_words,
    state_rng,
    state_rngs,
    trial_state,
    trial_state_np,
    uniform_labels,
)

from conftest import assert_within_sigma, binomial_se


def test_mix64_deterministic_and_in_range():
    assert mix64(12345) == mix64(12345)
    assert 0 <= mix64((1 << 64) - 1) <= MASK64
    # distinct small inputs map to distinct outputs (bijective finalizer)
    outs = {mix64(i) for i in range(10_000)}
    assert len(outs) == 10_000


def test_mix64_np_matches_scalar():
    vals = np.array([0, 1, 12345, MASK64], dtype=np.uint64)
    out = mix64_np(vals)
    assert [int(x) for x in out] == [mix64(int(v)) for v in vals]


def test_fold_and_trial_state_spread():
    states = {trial_state(7, t) for t in range(5_000)}
    assert len(states) == 5_000
    assert fold(1, 2) != fold(2, 1)


def _fold_formula(state: int, data: int) -> int:
    """fold as first written: both mixes recomputed on every call."""
    return mix64((state ^ mix64((data + GOLDEN) & MASK64)) & MASK64)


@settings(deadline=None)
@given(
    state=st.integers(min_value=0, max_value=1 << 70),
    data=st.integers(min_value=-(1 << 70), max_value=1 << 70),
)
def test_fold_matches_uncached_formula(state, data):
    assert fold(state, data) == _fold_formula(state, data)
    assert fold(state, data) == _fold_formula(state, data)  # a cached tag mix


def test_fold_matches_formula_at_edges():
    for state in (0, 1, MASK64, 1 << 64, (1 << 64) + 5, 1 << 100):
        for data in (0, 1, -1, -GOLDEN, MASK64 - GOLDEN + 1, MASK64, 1 << 64, 1 << 80):
            assert fold(state, data) == _fold_formula(state, data)


def test_fold_np_matches_fold():
    states = np.array([0, 1, 12345, 1 << 63, MASK64], dtype=np.uint64)
    data = np.array([0, 1, 0x100, MASK64 - GOLDEN + 1, MASK64], dtype=np.uint64)
    table = fold_np(states[:, None], data)
    assert table.dtype == np.uint64 and table.shape == (5, 5)
    for i, s in enumerate(states.tolist()):
        for j, x in enumerate(data.tolist()):
            assert int(table[i, j]) == fold(s, x)
    # an int tag of any size, as fold takes it
    for x in (0, 2, -1, -GOLDEN, 1 << 64, 1 << 80):
        assert fold_np(states, x).tolist() == [fold(s, x) for s in states.tolist()]


def test_fold_np_int_tags_are_the_cached_scalar_mixes():
    for x in (0, 1, 0xA77, CHILD_TAG, -1, MASK64, 1 << 64, 1 << 80):
        tag = localis.rng._np_tag_mix(x)
        assert type(tag) is np.uint64 and tag == np.uint64(localis.rng._tag_mix(x))
        assert localis.rng._np_tag_mix(x) is tag  # mixed once


@pytest.mark.parametrize("seed", [0, 7, -3, 1 << 70])
def test_trial_state_np_matches_trial_state(seed):
    trials = np.arange(2000)
    assert trial_state_np(seed, trials).tolist() == [trial_state(seed, t) for t in range(2000)]


@pytest.mark.parametrize("state", [0, 1, (1 << 63) + 5, MASK64])
def test_state_rng_matches_default_rng(state):
    ours = uniform_labels(state_rng(state), 64)
    ref = uniform_labels(np.random.default_rng(state & MASK64), 64)
    assert np.array_equal(ours, ref)


def _seed_states() -> np.ndarray:
    """The word edges of a 64-bit state, then 2000 uniform states."""
    edges = np.array([0, 1, (1 << 32) - 1, 1 << 32, 1 << 63, MASK64], dtype=np.uint64)
    rest = np.random.default_rng(57).integers(0, MASK64, size=2000, dtype=np.uint64, endpoint=True)
    return np.concatenate((edges, rest))


def test_seed_words_are_the_seed_sequence_words():
    # more than 4096 states in one call
    more = np.random.default_rng(58).integers(0, MASK64, size=4096, dtype=np.uint64,
                                              endpoint=True)
    states = np.concatenate((_seed_states(), more))
    assert states.size > 4096
    words = seed_words(states)
    assert words.dtype == np.uint64 and words.shape == (states.size, 4)
    assert words.flags.c_contiguous
    assert words.tolist() == [
        np.random.SeedSequence(s).generate_state(4, np.uint64).tolist() for s in states.tolist()
    ]


@pytest.mark.parametrize("m", [1, 2, 3, 200, 3000, 3 * 10**6, (1 << 32) - 1, 1 << 32, 10**15])
def test_below_is_the_high_word_of_the_product(m):
    states = fold_np(np.uint64(17), np.arange(5000, dtype=np.uint64))
    states[:2] = 0, MASK64
    got = below(states, m)
    assert got.dtype == np.int64
    assert got.tolist() == [s * m >> 64 for s in states.tolist()]
    for bad in (0, 1 << 63):
        with pytest.raises(ValueError):
            below(states, bad)


def test_fold_range_folds_each_stream_with_each_counter():
    streams = fold_np(np.uint64(5), np.arange(7, dtype=np.uint64))
    for lo, hi in ((0, 8), (8, 11), (3, 3)):
        got = fold_range(streams, lo, hi)
        assert got.shape == (hi - lo, 7)
        assert got.tolist() == [[fold(s, c) for s in streams.tolist()] for c in range(lo, hi)]


def test_state_rngs_draw_the_state_rng_streams():
    # the whole state, then each kind of draw the samplers make from it
    states = _seed_states()
    rngs = state_rngs(states)
    assert len(rngs) == states.size
    for ours, s in zip(rngs, states.tolist()):
        ref = state_rng(s)
        assert ours.bit_generator.state == ref.bit_generator.state
        assert ours.binomial(1770, 0.01) == ref.binomial(1770, 0.01)
        assert np.array_equal(ours.choice(1770, 9, replace=False, shuffle=False),
                              ref.choice(1770, 9, replace=False, shuffle=False))
        assert np.array_equal(ours.poisson(3.0, size=4), ref.poisson(3.0, size=4))
        assert np.array_equal(ours.bit_generator.random_raw(3), ref.bit_generator.random_raw(3))


def test_state_rngs_are_a_list_and_take_empty_input():
    states = _seed_states()[:10]
    rngs = state_rngs(states)
    assert isinstance(rngs, list)
    assert [g.bit_generator.state for g in rngs] == [
        state_rng(s).bit_generator.state for s in states.tolist()
    ]
    for empty in ([], np.zeros(0, dtype=np.uint64)):
        assert state_rngs(empty) == []
        assert seed_words(empty).shape == (0, 4)


@pytest.mark.parametrize("seed", [0, 3, 11, MASK64])
def test_uniform_labels_equal_full_range_integers_and_keep_the_stream(seed):
    # the raw outputs are integers(0, 2^64)'s values, and the draws after
    # them (Poisson here, as in the PGW levels) read the same stream
    ours, ref = state_rng(seed), state_rng(seed)
    for n in (0, 1, 400):
        assert np.array_equal(ours.poisson(3.0, size=5), ref.poisson(3.0, size=5))
        got = uniform_labels(ours, n)
        assert got.dtype == np.uint64 and got.shape == (n,)
        assert np.array_equal(got, ref.integers(0, 1 << 64, size=n, dtype=np.uint64))
    assert np.array_equal(ours.poisson(50.0, size=7), ref.poisson(50.0, size=7))


def test_label_unit_range():
    rng = np.random.default_rng(0)
    labels = uniform_labels(rng, 1000)
    units = label_unit(labels)
    assert np.all((0.0 <= units) & (units < 1.0))


def test_percolation_cut_endpoints():
    assert percolation_cut(0.0) == 0
    assert percolation_cut(1.0) == 1 << 64


def test_first_success_round_law():
    # geometric inverse CDF: P(round = i) = (1-p)^(i-1) p
    p, n = 0.3, 200_000
    rng = np.random.default_rng(1)
    rounds = np.array(
        [first_success_round(int(x), p, 100) for x in uniform_labels(rng, n)]
    )
    for i in (1, 2, 5):
        target = (1 - p) ** (i - 1) * p
        assert_within_sigma(
            float((rounds == i).mean()), target, binomial_se(target, n),
            context=f"geometric pmf at {i}",
        )


# (p, k) of the round-table checks: the benchmark's LW, short and long
# tables, and two tables that stop before k: after 53 entries at p = 0.5 (the
# next reaches 2^64) and after 102 at p = 0.3 (the next does not increase)
ROUND_GRID = [
    (0.02, 250), (0.3, 6), (0.001, 2000), (0.5, 100), (0.05, 100), (0.01, 300), (0.3, 200),
]


@pytest.mark.parametrize("p, k", ROUND_GRID)
def test_round_table_boundaries_are_exact(p, k):
    # B[r - 1] is the least label of round r + 1, in both round functions
    bounds = round_bounds(p, k)
    assert 0 < bounds.size <= k and not bounds.flags.writeable
    table = bounds.tolist()
    assert all(a < b for a, b in zip(table, table[1:])) and table[-1] < 1 << 64
    labels = [x for b in table for x in (b - 1, b)] + [0, MASK64]
    want = [r + j for r in range(1, len(table) + 1) for j in (0, 1)] + [1, len(table) + 1]
    assert [first_success_round(x, p, k) for x in labels] == want
    assert first_success_rounds(np.array(labels, dtype=np.uint64), p, k).tolist() == want
    # k = 1 keeps its cap, and a stopped table is the same at any larger k
    assert first_success_round(MASK64, p, 1) == 2
    if len(table) < k:
        assert round_bounds(p, k + 1000).tolist() == table


@pytest.mark.parametrize("p, k", ROUND_GRID)
def test_round_table_follows_the_geometric_law(p, k):
    # a uniform label's round exceeds r with probability (2^64 - B[r - 1]) / 2^64
    for r, b in enumerate(round_bounds(p, k).tolist(), 1):
        assert abs(((1 << 64) - b) / 2.0**64 - (1.0 - p) ** r) <= 1e-12, r


def _float_round(label: int, p: float, k: int) -> int:
    """The round as a float geometric inverse CDF, capped at k + 1, as it
    was defined before the table: the top 2^10 labels, whose unit value
    rounds to 1.0, take the round of the largest float below 1."""
    u = label * 2.0**-64
    if u < p:
        return 1
    u = min(u, math.nextafter(1.0, 0.0))
    return min(1 + int(math.log1p(-u) / math.log1p(-p)), k + 1)


@pytest.mark.parametrize("p, k", ROUND_GRID)
def test_rounds_equal_the_float_formula_away_from_the_boundaries(p, k):
    # both are monotone in the label, so the two ends of each run of labels
    # at least 2^13 from every boundary decide the whole run
    table, gap = round_bounds(p, k).tolist(), 1 << 13
    cuts = [0] + [x for b in table for x in (b - gap, b + gap)] + [MASK64]
    labels = [x for lo, hi in zip(cuts[::2], cuts[1::2]) if lo <= hi for x in (lo, hi)]
    want = [_float_round(x, p, k) for x in labels]
    assert [first_success_round(x, p, k) for x in labels] == want
    assert first_success_rounds(np.array(labels, dtype=np.uint64), p, k).tolist() == want
    assert len(labels) > len(table)
    # the top label, whose unit value rounds to 1.0, has the clamped round
    assert first_success_round(MASK64, p, k) == _float_round(MASK64, p, k)


def test_rounds_equal_the_float_formula_on_uniform_labels():
    p, k = 0.02, 250
    labels = uniform_labels(np.random.default_rng(7), 10**6)
    want = [_float_round(x, p, k) for x in labels.tolist()]
    assert first_success_rounds(labels, p, k).tolist() == want


def test_round_table_is_built_on_first_use():
    script = (
        "import localis, localis.rng as r; localis.lauer_wormald(0.02, 250); "
        "print(r._round_table.cache_info().currsize)"
    )
    src = os.path.dirname(localis.__path__[0])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "0"


def test_poisson_from_unit_moments():
    lam, n = 4.0, 200_000
    rng = np.random.default_rng(2)
    draws = np.array([poisson_from_unit(u, lam) for u in rng.random(n)])
    assert_within_sigma(
        float(draws.mean()), lam, math.sqrt(lam / n), context="poisson mean"
    )
    assert_within_sigma(
        float(draws.var()), lam, 3.0 * lam / math.sqrt(n), context="poisson var"
    )


def _poisson_loop(u: float, lam: float) -> int:
    """poisson_from_unit as first written: the cdf summed pmf by pmf until
    it exceeds u, or the cap."""
    pmf = math.exp(-lam)
    cdf = pmf
    j = 0
    cap = int(lam + 12.0 * math.sqrt(lam) + 30.0)
    while u >= cdf and j < cap:
        j += 1
        pmf *= lam / j
        cdf += pmf
    return j


@pytest.mark.parametrize("lam", [0.7, 3.0, 50.0, 600.0])
def test_poisson_table_matches_the_loop(lam):
    cap = int(lam + 12.0 * math.sqrt(lam) + 30.0)
    pmf = math.exp(-lam)
    cdfs = [pmf]
    for j in range(1, cap):
        pmf *= lam / j
        cdfs.append(cdfs[-1] + pmf)
    units = [0.0, 1.0, math.nextafter(1.0, 0.0)]
    for c in cdfs:  # every exact cdf value and its float neighbours
        units += [c, math.nextafter(c, 0.0), math.nextafter(c, 2.0)]
    units += np.random.default_rng(int(lam * 10)).random(2000).tolist()
    units = [u for u in units if 0.0 <= u <= 1.0]
    want = [_poisson_loop(u, lam) for u in units]
    assert [poisson_from_unit(u, lam) for u in units] == want
    got = poisson_from_unit(np.array(units), lam)
    assert got.tolist() == want
    assert all(type(x) is int for x in (poisson_from_unit(u, lam) for u in units[:5]))
    # u = 1.0 gives the cap unless the summed cdf rounds above 1 first (lam 50)
    assert poisson_from_unit(1.0, lam) == _poisson_loop(1.0, lam) <= cap
    assert max(want) <= cap
