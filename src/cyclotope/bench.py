"""Timing of the spectrum routes on one random tope.

Each route gets one untimed warm-up call, then _REPS timed calls on the
monotonic performance counter; the median is reported, so a single noisy run
cannot skew a ratio.
"""

from __future__ import annotations

import time

import numpy as np

from .cycle import DENSE_CAP
from .decomposition import spectrum_dense, spectrum_fast
from .topes import Tope, _check_dimension

# Seed of the random tope every timing runs on.
_SEED = 0

# Timed calls per route; odd, so the median is one of the measured times.
_REPS = 9


def random_tope(t: int) -> Tope:
    """A random tope drawn at one byte per entry: int8 bits mapped in place."""
    signs = np.random.default_rng(_SEED).integers(0, 2, size=_check_dimension(t), dtype=np.int8)
    signs *= 2
    signs -= 1
    return Tope._wrap(signs)


def run_bench(t: int) -> dict:
    """Median times of the spectrum routes at dimension t, in seconds.

    The dense route, and with it the speedup, is left out above DENSE_CAP,
    where spectrum_dense refuses to build its t x t matrix.
    """
    T = random_tope(t)
    routes = {"fast": spectrum_fast}
    if t <= DENSE_CAP:
        routes["dense"] = spectrum_dense
    card = {"t": t, "reps": _REPS}
    for name, route in routes.items():
        route(T)
        times = []
        for _ in range(_REPS):
            start = time.perf_counter()
            route(T)
            times.append(time.perf_counter() - start)
        card[f"{name}_seconds"] = sorted(times)[_REPS // 2]
    if t <= DENSE_CAP:
        card["speedup"] = card["dense_seconds"] / card["fast_seconds"]
    return card
