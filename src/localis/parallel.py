"""Deterministic trial-parallel execution.

Work is a block function fn(lo, hi) -> the stat rows of trials lo..hi-1, one
row per trial; a per-trial function t -> row becomes one through
per_trial.  run_trials cuts range(trials) into blocks of at most BLOCK
trials, so the arrays a vectorised block function builds stay bounded
whatever the trial count, and stacks the rows in trial order.  Per-trial
randomness is keyed by (seed, trial), never by the blocks or the worker
count, so the aggregate is identical for any worker count.

Parallelism uses fork-based multiprocessing so closures survive without
pickling; each worker evaluates whole blocks.  A run with fewer than 4
trials per worker, or on a platform without fork, runs in-process, and no
run starts more processes than it has CPUs to run on; effective_workers
says how many it uses, and the CLI records that in the run manifest.
"""

from __future__ import annotations

import multiprocessing as mp
import os

import numpy as np

BLOCK = 1024  # most trials one call of a block function evaluates

_WORK = None


def _rows(fn, lo: int, hi: int) -> np.ndarray:
    return np.asarray(fn(lo, hi), dtype=np.float64).reshape(hi - lo, -1)


def _run_block(bounds):
    return _rows(_WORK, *bounds)


def per_trial(fn):
    """The block function of a per-trial function fn(t) -> row."""
    return lambda lo, hi: [fn(t) for t in range(lo, hi)]


def run_trials(fn, trials: int, workers: int = 1) -> np.ndarray:
    """Rows of the block function fn over range(trials), in trial order;
    returns a (trials, width) array."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    workers = effective_workers(trials, workers)
    step = BLOCK if workers == 1 else min(BLOCK, max(1, trials // (4 * workers)))
    bounds = [(lo, min(lo + step, trials)) for lo in range(0, trials, step)]
    if workers == 1:
        return np.vstack([_rows(fn, lo, hi) for lo, hi in bounds])

    global _WORK
    _WORK = fn
    try:
        with mp.get_context("fork").Pool(workers) as pool:
            parts = pool.map(_run_block, bounds)
    finally:
        _WORK = None
    return np.vstack(parts)


def effective_workers(trials: int, workers: int) -> int:
    """Processes run_trials(fn, trials, workers) uses: at most the CPUs this
    process may run on, and 1 (in-process) when there are fewer than 4
    trials per worker or fork is missing."""
    workers = max(1, int(workers or 1))
    if workers == 1 or trials < 4 * workers or not _fork_available():
        return 1
    return min(workers, _cpu_count())


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_available() -> bool:
    return os.name == "posix" and "fork" in mp.get_all_start_methods()


def mean_stderr(values: np.ndarray) -> tuple:
    """Sample mean and standard error of a 1-D array."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    mean = float(values.mean())
    if n < 2:
        return mean, 0.0
    var = float(values.var(ddof=1))
    return mean, (var / n) ** 0.5
