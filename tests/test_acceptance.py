"""Acceptance gate: ten pinned criteria, one visible PASS/FAIL line each.

Each test prints its verdict on the real stdout so the line survives pytest's
capture; budgets and ranges are fixed here and must not be loosened.
"""

import math
import time

import numpy as np

from cyclotope import (
    GroundSubset,
    Tope,
    bruteforce_minimal_decomposition,
    count_by_boundary_class,
    count_topes_by_size,
    decomposition_set,
    enumerate_statistics,
    interval_partition,
    negative_part,
    spectrum_dense,
    spectrum_fast,
    spectrum_intervals,
)
from cyclotope.bench import run_bench
from cyclotope.verification import _closed_form_column
from cyclotope.verification import (
    sweep_equinumerosity,
    sweep_negpart_cardinalities,
    sweep_unit_flip_spectra,
    sweep_size_difference,
)


def _report(capsys, num: int, name: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[acceptance {num:02d}] {name}: {verdict}", flush=True)


def _topes(t):
    for mask in range(1 << t):
        yield Tope.from_bitmask(mask, t)


def test_criterion_01_cross_method_equality(capsys):
    ok = False
    try:
        start = time.perf_counter()
        for t in range(3, 13):
            for T in _topes(t):
                dense = spectrum_dense(T)
                assert dense == spectrum_fast(T)
                assert dense == spectrum_intervals(T)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f} s, budget 10 s"
        ok = True
    finally:
        _report(capsys, 1, "cross-method spectrum equality, t in [3,12]", ok)


def test_criterion_02_reconstruction(capsys):
    ok = False
    try:
        for t in range(3, 13):
            for T in _topes(t):
                total = decomposition_set(T).vertex_sum()
                assert np.array_equal(total, T.signs.astype(np.int64))
        ok = True
    finally:
        _report(capsys, 2, "signed vertex sums reproduce every tope, t in [3,12]", ok)


def test_criterion_03_oracle_minimality(capsys):
    ok = False
    try:
        start = time.perf_counter()
        for t in range(3, 8):
            for T in _topes(t):
                result = bruteforce_minimal_decomposition(T)
                assert result.unique
                assert result.minimal_set == decomposition_set(T).vertex_indices()
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f} s, budget 60 s"
        ok = True
    finally:
        _report(capsys, 3, "brute-force minimality and uniqueness, t in [3,7]", ok)


def test_criterion_04_count_totals(capsys):
    ok = False
    try:
        for t in range(3, 13):
            table = enumerate_statistics(t)
            for l in range(1, t + 1, 2):
                enumerated = sum(c for _, l_, c in table if l_ == l)
                assert enumerated == 2 * math.comb(t, l)
            assert table.total() == 1 << t
        ok = True
    finally:
        _report(capsys, 4, "enumerated size totals equal 2*C(t,l), t in [3,12]", ok)


def test_criterion_05_count_closed_forms(capsys):
    ok = False
    try:
        for t in range(3, 13):
            table = enumerate_statistics(t)
            for l in range(3, t + 1, 2):
                h = (l - 1) // 2
                forms = _closed_form_column(t, l)
                for j in range(t + 1):
                    enumerated = table.count(j, l)
                    if j < h or j > t - h:
                        assert enumerated == 0, f"zero region violated at {(t, j, l)}"
                        continue
                    values = forms[j]
                    assert len(set(values)) == 1, f"expressions split at {(t, j, l)}"
                    assert enumerated == values[0], f"count mismatch at {(t, j, l)}"
            for j in range(1, t):
                assert table.count(j, 3) == 2 * j * (t - j) - t
        ok = True
    finally:
        _report(capsys, 5, "all four closed-form count expressions, t in [3,12]", ok)


def test_criterion_06_refined_boundary_counts(capsys):
    ok = False
    try:
        cases = ("left-only", "right-only", "both-ends", "neither")
        for t in range(3, 11):
            tallies = {}
            for T in _topes(t):
                A = negative_part(T)
                if not len(A):
                    continue
                l = spectrum_fast(T).support_size
                touches_left = 1 in A
                touches_right = t in A
                if touches_left and touches_right:
                    case = "both-ends"
                elif touches_left:
                    case = "left-only"
                elif touches_right:
                    case = "right-only"
                else:
                    case = "neither"
                tallies[(case, len(A), l)] = tallies.get((case, len(A), l), 0) + 1
            for l in range(3, t + 1, 2):
                for case in cases:
                    expected_total = count_by_boundary_class(t, l, case)
                    got_total = sum(
                        c for (cs, _, l_), c in tallies.items() if cs == case and l_ == l
                    )
                    assert got_total == expected_total, (t, l, case)
                    for j in range(t + 1):
                        got = tallies.get((case, j, l), 0)
                        assert got == count_by_boundary_class(t, l, case, j), (t, l, case, j)
        ok = True
    finally:
        _report(capsys, 6, "boundary-class refinements and totals, t in [3,10]", ok)


def test_criterion_07_equinumerosity_exhaustive(capsys):
    ok = False
    try:
        start = time.perf_counter()
        for t in range(3, 11):
            mismatches = sweep_equinumerosity(t)
            assert not mismatches, mismatches[:3]
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f} s, budget 60 s"
        ok = True
    finally:
        _report(capsys, 7, "equal-size criterion, indicator and interval rule, t in [3,10]", ok)


def test_criterion_08_cardinality_and_spectrum_identities(capsys):
    ok = False
    try:
        for t in range(3, 11):
            mismatches = sweep_negpart_cardinalities(t)
            assert not mismatches, mismatches[:3]
        for t in range(3, 11):
            mismatches = sweep_unit_flip_spectra(t)
            assert not mismatches, mismatches[:3]
        ok = True
    finally:
        _report(capsys, 8, "negative-part cardinalities and unit-flip spectra", ok)


def test_criterion_09_size_difference_all_pairs(capsys):
    ok = False
    try:
        for t in range(3, 11):
            mismatches = sweep_size_difference(t)
            assert not mismatches, mismatches[:3]
        ok = True
    finally:
        _report(capsys, 9, "inner-product size difference on all pairs, t in [3,10]", ok)


def test_criterion_10_performance(capsys):
    ok = False
    try:
        large = run_bench(10**6)
        assert large["fast_seconds"] < 0.050, f"median {large['fast_seconds']*1000:.2f} ms"
        routes = run_bench(2048)
        assert routes["speedup"] >= 10.0, f"speedup only {routes['speedup']:.1f}x"
        ok = True
    finally:
        _report(capsys, 10, "linear route under 50 ms at t=10^6 and 10x dense at t=2048", ok)
