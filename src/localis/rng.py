"""Splittable deterministic randomness.

Every sampler in the package consumes 64-bit states that are pure functions
of (seed, trial, position).  Results are therefore reproducible bit-for-bit,
and trials can be generated independently, in any order, across processes.

`fold` caches the mix of its integer tag in a bounded LRU table (1024
entries), and fold_np the mix of an int tag as a np.uint64 in another: the
hot loops fold a few constant tags (label, percolation, copy ids) millions
of times, while trial indices pass through once each and must not grow the
tables without bound.

fold_np and trial_state_np are their array forms over uint64 arrays, equal
to the scalar functions element by element; the trial-batched tree paths
fold whole blocks of trials with them.  fold_range folds each of a set of
streams with a range of counters, and below(s, m) = s * m >> 64 maps a
state to an integer below m: the graph explorations of graph-host
stability draw from these counters alone.  fold_offsets folds each state
with its own counter of a range (a lazy-tree node with CHILD_TAG + slot
for its children); like fold_range it mixes the range's tags once and
keeps them.  A label's percolation round is defined by an integer table of
round boundaries (round_bounds), which first_success_round and its array
form first_success_rounds both search, so the two agree label for label by
construction.  state_rngs is the array form of state_rng: numpy's
SeedSequence hash run over a uint64 array of states at once (seed_words),
then one generator a state, as a list.

The coupled family of labels is one rule over node states, the same on
every host: a lazy-tree node's state, or fold(fold(st, 2), v) for vertex v
of a graph-host trial of state st.  Copy 0 of node state s is
fold(fold(s, LABEL_TAG), 0); s is in the percolated set S iff
fold(s, PERC_TAG) < percolation_cut(p); on S copy c >= 1 is
fold(fold(s, LABEL_TAG), c), elsewhere copy 0.  CoupledLabels is its array
form, coupled_label its scalar form; CoupledLabels folds for S only when a
copy >= 1 is first read.

Labels are 64-bit unsigned integers interpreted as dyadic rationals in
[0, 1).  Comparisons between labels break the (probability ~2^-64) ties with
a secondary vertex key, so the effective label order is always total.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

# substream tags of the lazy trees and the coupled labels
LABEL_TAG = 0x01
PERC_TAG = 0x02
OFFSPRING_TAG = 0x03
CHILD_TAG = 0x100

# largest lam poisson_from_unit accepts, keeping e^-lam far from underflow
POISSON_LAM_MAX = 600.0


def mix64(z: int) -> int:
    """SplitMix64 finalizer, a bijective 64-bit mixer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


@functools.lru_cache(maxsize=1024)
def _tag_mix(data: int) -> int:
    return mix64(data + GOLDEN)


def fold(state: int, data: int) -> int:
    """Derive a child state from a state and an integer tag."""
    return mix64(state ^ _tag_mix(data))


_TRIAL_ROOT = 0x5EED5EED5EED5EED  # the state every run's seed folds into


def trial_state(seed: int, trial: int) -> int:
    """64-bit state for one Monte Carlo trial of a run keyed by `seed`."""
    return fold(fold(_TRIAL_ROOT, seed), trial)


def coupled_label(state: int, copy: int, cut: int, memo: dict) -> int:
    """Copy `copy` of the label of the node with this state, S cut `cut`
    (percolation_cut(p)).  `memo` keeps each state's copy-independent values
    (the percolation draw, the label base, copy 0), so reading a node again,
    in any copy, folds once if it is in S and not at all elsewhere."""
    values = memo.get(state)
    if values is None:
        base = fold(state, LABEL_TAG)
        values = memo[state] = (fold(state, PERC_TAG), base, fold(base, 0))
    perc, base, x0 = values
    return fold(base, copy) if perc < cut else x0


def state_rng(state: int) -> np.random.Generator:
    """NumPy generator keyed by a 64-bit state: the stream
    np.random.default_rng(state & MASK64) gives, built without its
    argument dispatch.  The Erdos-Renyi copies that er_resample_graphs
    yields one at a time draw from it; its array form state_rngs seeds the
    PGW transfer's child counts.  No label comes from either.  The copies
    keep one state_rng call each because a seed_words call has a fixed cost
    of about 64 us (numpy 2.4, 2-core x86 VM), so one state_rngs call for a
    trial's k copies was slower than k calls of this at k = 2 and 4."""
    return np.random.Generator(np.random.PCG64(state & MASK64))


def state_rngs(states) -> list:
    """Array form of state_rng: state_rng(s) for each s of a uint64 array,
    as a list.  The seed words of every state are hashed at once
    (seed_words), and each generator is handed its row; PCG64 reads the
    row's raw buffer, which the C-contiguous words keep contiguous."""
    words_sequence = _seed_sequence()[2]
    return [np.random.Generator(np.random.PCG64(words_sequence(row))) for row in seed_words(states)]


def seed_words(states) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) for each s of a uint64
    array, the words PCG64(s) seeds itself with, as a C-contiguous (B, 4)
    uint64 array.

    numpy's SeedSequence over uint32 arrays, one row per pool word: s is
    the entropy words (s mod 2^32, s >> 32), which a state below 2^32 pads
    with the 0 it would hash anyway, hashed into a 4-word pool; each pool
    word then hashes into the other three, which is one (3, B) step, since
    the source word is not among them; the output hashes the pool twice
    round into 8 words, joined little-endian in pairs.  The hash constants
    depend on the call count alone (_seed_sequence)."""
    states = np.asarray(states, dtype=np.uint64).reshape(-1)
    mix_a, mix_b, _ = _seed_sequence()
    pool = np.zeros((4, states.size), dtype=np.uint32)
    pool[0], pool[1] = states, states >> np.uint64(32)  # the casts keep the low words
    pool = _hashmix(pool, mix_a[0:5, None])
    for src, k in zip(range(4), range(4, 16, 3)):
        dst = [i for i in range(4) if i != src]
        mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], mix_a[k : k + 4, None])
        pool[dst] = mixed ^ mixed >> np.uint32(16)
    out = _hashmix(np.concatenate((pool, pool)), mix_b[:, None]).astype(np.uint64)
    return np.ascontiguousarray((out[0::2] | out[1::2] << np.uint64(32)).T)


_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of the rows of `values` by consecutive hash
    constants: row i is xored with consts[i] and multiplied by consts[i + 1]."""
    values = values ^ consts[:-1]
    values *= consts[1:]
    return values ^ values >> np.uint32(16)


@functools.lru_cache(maxsize=1)
def _seed_sequence() -> tuple:
    """SeedSequence's hash constants, INIT_A * MULT_A^j for the 17 pool
    hashes and INIT_B * MULT_B^j for the 9 of the output, as uint32 arrays,
    and the seed sequence that hands PCG64 fixed words.  Built on first
    use, so importing this module imports no numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        """A seed sequence whose state is given: generate_state returns the
        four uint64 words it holds, which PCG64 alone asks for."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.words

    def powers(init: int, mult: int, count: int) -> np.ndarray:
        return np.array([init * pow(mult, j, 1 << 32) & 0xFFFFFFFF for j in range(count)],
                        dtype=np.uint32)

    return powers(0x43B0D7E5, 0x931E8875, 17), powers(0x8B51F9DD, 0x58F38DED, 9), Words


def uniform_labels(rng: np.random.Generator, n: int) -> np.ndarray:
    """n labels drawn uniformly from {0, ..., 2^64 - 1}: the next n raw
    outputs of the generator's 64-bit PCG64, which are the values
    rng.integers(0, 1 << 64, size=n, dtype=np.uint64) gives, and leave the
    stream where it leaves it, without its argument dispatch."""
    return rng.bit_generator.random_raw(n)


def label_unit(label):
    """Map 64-bit labels (scalar or array) to floats in [0, 1].

    The conversion rounds to 53 bits, so the top 2^10 labels
    (>= 2^64 - 2^10) map to 1.0; every other label maps below 1.
    """
    if isinstance(label, np.ndarray):
        return label.astype(np.float64) * 2.0**-64
    return int(label) * 2.0**-64


def percolation_cut(p: float) -> int:
    """Integer threshold t with P(label < t) = p, up to 2^-64 quantisation."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"percolation density must lie in [0, 1], got {p}")
    return int(round(p * 2.0**64))


def first_success_round(label: int, p: float, k: int) -> int:
    """Index >= 1 of the first success in a Bernoulli(p) round sequence,
    capped at k + 1: one more than the count of round_bounds(p, k) entries
    at most the 64-bit label."""
    return 1 + bisect.bisect_right(_round_table(p, k)[0], label)


def first_success_rounds(labels: np.ndarray, p: float, k: int) -> np.ndarray:
    """first_success_round over a uint64 array of labels."""
    return 1 + np.searchsorted(_round_table(p, k)[1], labels, side="right")


def round_bounds(p: float, k: int) -> np.ndarray:
    """The rule of a label's round: B[r - 1] = int(-expm1(r log1p(-p)) 2^64),
    about 2^64 (1 - (1-p)^r), the least label of round above r, for r = 1..k,
    as a read-only uint64 array (see _round_table)."""
    return _round_table(p, k)[1]


@functools.lru_cache(maxsize=64)
def _round_table(p: float, k: int) -> tuple:
    """The round boundaries B[r - 1] for r = 1..k, as a list and a read-only
    array (the cache shares them), built on first use per (p, k).

    A label x has round r iff B[r - 2] <= x < B[r - 1], so a uniform label's
    round is Geometric(p) up to the float error of B, about 2^-52.  The table
    stops at the first entry that reaches 2^64 or does not increase: the
    labels above its last entry share the top round (at p = 0.5 round 54).
    """
    bounds = []
    for r in range(1, k + 1):
        b = int(-math.expm1(r * math.log1p(-p)) * 2.0**64)
        if b > MASK64 or (bounds and b <= bounds[-1]):
            break
        bounds.append(b)
    out = np.array(bounds, dtype=np.uint64)
    out.flags.writeable = False
    return bounds, out


def poisson_from_unit(u, lam: float):
    """Poisson(lam) sample from a uniform in [0, 1), or an array of them,
    via inverse CDF: the least j with u < P(X <= j), at most cap(lam).

    Exact up to float accumulation; lam must not exceed POISSON_LAM_MAX.
    """
    cdf, cdf_np = _poisson_cdf_table(lam)
    if isinstance(u, np.ndarray):
        return np.searchsorted(cdf_np, u, side="right")
    return bisect.bisect_right(cdf, u)


def check_poisson_lam(lam: float) -> None:
    """Poisson sums start from e^-lam, which must not underflow."""
    if lam > POISSON_LAM_MAX:
        raise ValueError(f"Poisson sums need lam <= {POISSON_LAM_MAX:g}, got {lam}")


@functools.lru_cache(maxsize=64)
def _poisson_cdf_table(lam: float) -> tuple:
    """P(X <= j) for j < cap = int(lam + 12 sqrt(lam) + 30), summed pmf by
    pmf in this float order, as a tuple and a read-only array (the cache
    shares them).  Searching it gives the count of entries <= u, at most cap."""
    check_poisson_lam(lam)
    pmf = math.exp(-lam)
    cdf = [pmf]
    for j in range(1, int(lam + 12.0 * math.sqrt(lam) + 30.0)):
        pmf *= lam / j
        cdf.append(cdf[-1] + pmf)
    cdf_np = np.array(cdf)
    cdf_np.flags.writeable = False
    return tuple(cdf), cdf_np


_NP_M1 = np.uint64(0xBF58476D1CE4E5B9)
_NP_M2 = np.uint64(0x94D049BB133111EB)


def mix64_np(z: np.ndarray) -> np.ndarray:
    """Vectorised SplitMix64 finalizer over a uint64 array."""
    return _mixed(z.astype(np.uint64, copy=True))


_NP_30, _NP_27, _NP_31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _mixed(z: np.ndarray) -> np.ndarray:
    """mix64_np of a fresh uint64 array, which it overwrites."""
    z ^= z >> _NP_30
    z *= _NP_M1
    z ^= z >> _NP_27
    z *= _NP_M2
    z ^= z >> _NP_31
    return z


_NP_GOLDEN = np.uint64(GOLDEN)


@functools.lru_cache(maxsize=1024)
def _np_tag_mix(data: int) -> np.uint64:
    """_tag_mix(data) as a np.uint64, made once per tag value."""
    return np.uint64(_tag_mix(data))


def fold_np(state, data) -> np.ndarray:
    """Array form of fold: fold(s, x) for each pair of the broadcast uint64
    arrays `state` and `data`.  `data` may also be a Python int of any size,
    as in fold; its mix is cached as fold's is."""
    if isinstance(data, int):
        tag = _np_tag_mix(data)
    else:
        tag = _mixed(np.asarray(data, dtype=np.uint64) + _NP_GOLDEN)
    return _mixed(np.asarray(state, dtype=np.uint64) ^ tag)


def fold_range(states: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """fold(s, c) for each s of a uint64 array and c = lo..hi-1, one row per
    c; the tags of the range are mixed once and kept."""
    return _mixed(_range_tags(lo, hi)[:, None] ^ states)


def fold_offsets(states: np.ndarray, lo: int, offsets: np.ndarray) -> np.ndarray:
    """fold(s, lo + o) for each pair of a uint64 array `states` and a
    non-negative int array `offsets`; the tags of the range lo..lo+max(o)
    are mixed once and kept, as fold_range's."""
    hi = lo + 1 + int(offsets.max(initial=-1))
    return _mixed(states ^ _range_tags(lo, hi)[offsets])


@functools.lru_cache(maxsize=64)
def _range_tags(lo: int, hi: int) -> np.ndarray:
    tags = mix64_np(np.arange(lo, hi, dtype=np.uint64) + _NP_GOLDEN)
    tags.flags.writeable = False
    return tags


def trial_state_np(seed, trials) -> np.ndarray:
    """Array form of trial_state: the states of the given trial indices,
    `seed` an int or a uint64 array broadcast against them."""
    root = fold(_TRIAL_ROOT, seed) if isinstance(seed, int) else fold_np(_TRIAL_ROOT, seed)
    return fold_np(root, trials)


class CoupledLabels:
    """The coupled family's labels on nodes given by an array of states.

    `base` holds each node's label base, `x0` its copy-0 label and `in_s`
    whether it is in S at density p, computed when first read, so reading
    copy 0 alone costs two folds.  Calling it with (copy, at) gives
    copy `copy` of the labels at the index `at`, equal bit for bit to
    coupled_label; `copy` is an int, or an array of copy ids broadcast
    against the indexed states (a column gives one row of labels per copy).
    """

    def __init__(self, states, p: float = 0.0):
        self.states, self.p = np.asarray(states, dtype=np.uint64), p
        self.base = fold_np(self.states, LABEL_TAG)
        self.x0 = fold_np(self.base, 0)

    @functools.cached_property
    def in_s(self) -> np.ndarray:
        return percolated(self.states, self.p)

    def __call__(self, copy=0, at=Ellipsis) -> np.ndarray:
        if isinstance(copy, int) and copy == 0:
            return self.x0[at]
        return np.where(self.in_s[at], fold_np(self.base[at], copy), self.x0[at])


def percolated(states, p: float) -> np.ndarray:
    """Whether the nodes of these states are in S at density p:
    fold(s, PERC_TAG) < percolation_cut(p), as a bool array."""
    states = np.asarray(states, dtype=np.uint64)
    cut = percolation_cut(p)
    if cut == 0:
        return np.zeros(states.shape, dtype=bool)
    if cut > MASK64:  # p = 1: every node, and 2^64 fits no uint64
        return np.ones(states.shape, dtype=bool)
    return fold_np(states, PERC_TAG) < np.uint64(cut)


_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def below(states, m: int) -> np.ndarray:
    """s * m >> 64 for each s of a uint64 array, an int64 array of values
    in 0..m-1: a uniform draw below m from a uniform 64-bit state, up to a
    bias of m / 2^64.  In uint64 by 32-bit halves for m < 2^32, and one
    Python product per state above."""
    if not 0 < m < 1 << 63:
        raise ValueError(f"need 0 < m < 2^63, got {m}")
    if m >> 32:
        return np.array([s * m >> 64 for s in np.asarray(states).tolist()], dtype=np.int64)
    s, m = np.asarray(states, dtype=np.uint64), np.uint64(m)
    low = ((s & _LOW32) * m) >> _SHIFT32
    return (((s >> _SHIFT32) * m + low) >> _SHIFT32).astype(np.int64)
