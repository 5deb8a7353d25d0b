"""Timing comparisons between the spectrum routes.

All timings use the monotonic performance counter and report the median of
an odd number of repetitions, so a single noisy run cannot skew a ratio.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

import numpy as np

from .cycle import DENSE_CAP
from .decomposition import spectrum_dense, spectrum_fast
from .topes import Tope, _check_dimension


def _median_time(fn: Callable[[], object], reps: int) -> float:
    """Median wall time of fn over reps calls, in seconds."""
    if reps < 1 or reps % 2 == 0:
        raise ValueError("reps must be a positive odd number")
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# Seed of the random tope every timing runs on.
_SEED = 0


def random_tope(t: int) -> Tope:
    """A random tope drawn at one byte per entry: int8 bits mapped in place."""
    signs = np.random.default_rng(_SEED).integers(0, 2, size=_check_dimension(t), dtype=np.int8)
    signs *= 2
    signs -= 1
    return Tope._wrap(signs)


def compare_spectrum_routes(t: int, reps: int = 9) -> dict:
    """Median times for the dense and linear spectrum routes at dimension t.

    The dense route materializes the t x t inverse rows, so it is only
    sensible at moderate t; the linear route handles t in the millions.
    """
    T = random_tope(t)
    spectrum_fast(T)  # warm both code paths once
    spectrum_dense(T)
    dense = _median_time(lambda: spectrum_dense(T), reps)
    fast = _median_time(lambda: spectrum_fast(T), reps)
    return {
        "t": t,
        "reps": reps,
        "dense_seconds": dense,
        "fast_seconds": fast,
        "speedup": dense / fast if fast > 0 else float("inf"),
    }


def time_fast_spectrum(t: int, reps: int = 9) -> dict:
    """Median time of the linear spectrum route alone (large t)."""
    T = random_tope(t)
    spectrum_fast(T)
    fast = _median_time(lambda: spectrum_fast(T), reps)
    return {"t": t, "reps": reps, "fast_seconds": fast}


def run_bench(t: int, reps: int = 9) -> dict:
    """Full benchmark card for the spectrum routes.

    The dense route is skipped above DENSE_CAP, where spectrum_dense refuses
    to build its t x t matrix.
    """
    card = {"t": t, "reps": reps}
    if t <= DENSE_CAP:
        card["routes"] = compare_spectrum_routes(t, reps)
    else:
        card["fast"] = time_fast_spectrum(t, reps)
    return card
