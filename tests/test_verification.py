"""The sweeps report a kernel that is wrong on a single pair or tope.

Each test plants a fault in one production kernel, as the sweep module sees
it, and checks that the sweep names exactly the pairs or topes it affects.  At t = 8
the 256 x 256 pair grid spans several row blocks; the planted pair sits in
the first or in the last one.
"""

import numpy as np
import pytest

from cyclotope import GroundSubset, Tope, reorient, spectrum_fast
from cyclotope import decomposition, verification

T = 8
SECOND = 0b00000101
in_first_or_last_block = pytest.mark.parametrize("first", [0b00000001, 0b11111110])


def _planted(kernel, first, second):
    """kernel with 1 added to its (first) result on the one pair (first, second)."""

    def wrong(a, b):
        out = kernel(a, b)
        hit = np.all(a == first, axis=-1) & np.all(b == second, axis=-1)
        if isinstance(out, tuple):
            return (out[0] + hit,) + out[1:]
        return out + hit

    return wrong


def _subset(mask):
    return GroundSubset(T, [e + 1 for e in range(T) if mask >> e & 1])


def _size(tope):
    return spectrum_fast(tope).support_size


@in_first_or_last_block
def test_sweep_equinumerosity_reports_a_wrong_boundary_sum(monkeypatch, first):
    T1, A = Tope.from_bitmask(first, T), _subset(SECOND)
    T2 = reorient(T1, A)
    members = np.array([SECOND >> e & 1 for e in range(T)], dtype=bool)
    real = verification._boundary_sum

    def wrong(signs, split):
        # On the one pair (T1, A), equal boundary sums turn unequal and the reverse.
        lhs, rhs = real(signs, split)
        hit = np.all(signs == T1.signs, axis=-1) & np.all(split == members, axis=-1)
        return np.where(hit, np.where(lhs == rhs, rhs + 1, rhs), lhs), rhs

    assert verification.sweep_equinumerosity(T) == []
    monkeypatch.setattr(verification, "_boundary_sum", wrong)
    direct = _size(T1) == _size(T2)
    # The indicator pairs T1 with T2, whose separation set is A.
    assert verification.sweep_equinumerosity(T) == [
        f"{T1}, A={A}: criterion {not direct} != direct {direct}",
        f"{T1}, {T2}: indicator {-1 if direct else 0} vs sizes {_size(T1)}, {_size(T2)}",
        f"{T1}, {T2}: indicator != size difference",
    ]


def test_sweep_equinumerosity_checks_the_interval_rule_on_every_pair(monkeypatch):
    real = verification._interval_count_rule
    monkeypatch.setattr(verification, "_interval_count_rule", lambda *args: ~real(*args))
    reports = verification.sweep_equinumerosity(5)
    assert len(reports) == 31 * 31
    assert reports[0] == "A=1, B=1: interval rule != direct comparison"
    assert reports[-1] == "A=1,2,3,4,5, B=1,2,3,4,5: interval rule != direct comparison"


@in_first_or_last_block
def test_sweep_size_difference_reports_a_wrong_pair(monkeypatch, first):
    T1, T2 = Tope.from_bitmask(first, T), Tope.from_bitmask(SECOND, T)
    real = verification._size_difference
    assert verification.sweep_size_difference(T) == []
    monkeypatch.setattr(verification, "_size_difference", _planted(real, T1.signs, T2.signs))
    assert verification.sweep_size_difference(T) == [f"{T1}, {T2}: size difference mismatch"]


@in_first_or_last_block
@pytest.mark.parametrize("kernel", ["_meet_join_from_spectra", "_meet_join_cards"])
def test_sweep_negpart_cardinalities_reports_a_wrong_pair(monkeypatch, kernel, first):
    T1, T2 = Tope.from_bitmask(first, T), Tope.from_bitmask(SECOND, T)
    want = ((first & SECOND).bit_count(), (first | SECOND).bit_count())
    if kernel == "_meet_join_cards":
        a, b = T1.signs, T2.signs
        line = f"{T1}, {T2}: inner-product meet/join != direct"
    else:
        a, b = spectrum_fast(T1).coords, spectrum_fast(T2).coords
        line = f"{T1}, {T2}: meet/join {(want[0] + 1, want[1])} != {want}"
    assert verification.sweep_negpart_cardinalities(T) == []
    monkeypatch.setattr(verification, kernel, _planted(getattr(verification, kernel), a, b))
    assert verification.sweep_negpart_cardinalities(T) == [line]


@pytest.mark.parametrize("mask", [0b00000000, 0b10110010, 0b11111111])
def test_sweep_decompositions_reports_a_wrong_prefix_sum(monkeypatch, mask):
    # Decomposition.vertex_sum is the prefix-sum map; the sweep's reference
    # sums the signed cycle-vertex rows of the terms one by one.
    wrong_tope = Tope.from_bitmask(mask, T)
    target = spectrum_fast(wrong_tope).coords
    real = decomposition._vertex_sum

    def wrong(coords):
        out = real(coords)
        return out + np.all(coords == target, axis=-1)[..., None]

    assert verification.sweep_decompositions(T) == []
    monkeypatch.setattr(decomposition, "_vertex_sum", wrong)
    assert verification.sweep_decompositions(T) == [
        f"{wrong_tope}: prefix-sum vertex sum != sum of the cycle-vertex rows"
    ]
