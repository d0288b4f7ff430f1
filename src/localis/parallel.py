"""Deterministic trial-parallel execution.

Per-trial work is a function trial_index -> 1-D stat row.  Rows are collected
in trial order, so the aggregate is identical for any worker count: per-trial
randomness is keyed by (seed, trial), never by the chunking.

Parallelism uses fork-based multiprocessing so closures survive without
pickling.  A run with fewer than 4 trials per worker, or on a platform
without fork, runs in-process; effective_workers says which happens, and the
CLI records it in the run manifest.
"""

from __future__ import annotations

import multiprocessing as mp
import os

import numpy as np

_WORK = None


def _run_chunk(bounds):
    lo, hi = bounds
    return np.asarray([_WORK(t) for t in range(lo, hi)], dtype=np.float64)


def run_trials(fn, trials: int, workers: int = 1) -> np.ndarray:
    """Evaluate fn(t) for t in range(trials); returns a (trials, width) array."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    workers = effective_workers(trials, workers)
    if workers == 1:
        return np.asarray([fn(t) for t in range(trials)], dtype=np.float64)

    global _WORK
    chunk = max(1, trials // (4 * workers))
    bounds = [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
    _WORK = fn
    try:
        ctx = mp.get_context("fork")
        with ctx.Pool(workers) as pool:
            parts = pool.map(_run_chunk, bounds)
    finally:
        _WORK = None
    return np.vstack(parts)


def effective_workers(trials: int, workers: int) -> int:
    """Processes run_trials(fn, trials, workers) uses: 1 (in-process) when
    there are fewer than 4 trials per worker or fork is missing."""
    workers = max(1, int(workers or 1))
    if workers == 1 or trials < 4 * workers or not _fork_available():
        return 1
    return workers


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
