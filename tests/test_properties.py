"""Property tests at random t <= 512 against bitmask and set arithmetic.

A tope is drawn as a t-bit mask (bit e-1 set means entry e is -1) and a
subset as another mask, so every reference below is plain integer
arithmetic that shares no code with the library.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from cyclotope import (
    GroundSubset,
    Tope,
    decomposition_set,
    equal_size_criterion,
    equinumerosity_indicator,
    negpart_meet_join_from_spectra,
    reconstruct_tope,
    reorient,
    spectrum_fast,
    spectrum_update,
)

MAX_T = 512

# Large t makes single examples slow on a busy machine; no deadline.
relaxed = settings(deadline=None, max_examples=150)


def _size(mask: int, t: int) -> int:
    """Decomposition size: adjacent sign changes plus one if T(1) = T(t)."""
    changes = ((mask ^ (mask >> 1)) & ((1 << (t - 1)) - 1)).bit_count()
    return changes + (((mask ^ (mask >> (t - 1))) & 1) == 0)


def _spectrum(mask: int, t: int) -> list:
    signs = [-1 if mask >> e & 1 else 1 for e in range(t)]
    return [(signs[0] + signs[-1]) // 2] + [(b - a) // 2 for a, b in zip(signs, signs[1:])]


def _subset(mask: int, t: int) -> GroundSubset:
    return GroundSubset(t, [e + 1 for e in range(t) if mask >> e & 1])


def _mask(draw, top: int) -> int:
    # Hypothesis favours small integers, even through st.randoms(), which
    # leaves the high coordinates all-plus; every other draw is uniform over
    # [0, top] from a drawn seed instead.
    if draw(st.booleans()):
        return draw(st.integers(0, top))
    return random.Random(draw(st.integers(0, 2**32 - 1))).randrange(top + 1)


@st.composite
def masks(draw, count: int, proper: bool = False):
    """(t, mask_1, ..., mask_count); with proper, the last mask is never full."""
    t = draw(st.integers(3, MAX_T))
    full = (1 << t) - 1
    drawn = [_mask(draw, full) for _ in range(count - 1)]
    drawn.append(_mask(draw, full - 1 if proper else full))
    return (t, *drawn)


@relaxed
@given(masks(2, proper=True))
def test_criterion_and_indicator_share_the_boundary_sum(case):
    t, m, a = case
    T, A = Tope.from_bitmask(m, t), _subset(a, t)
    report = equal_size_criterion(T, A)
    assert equinumerosity_indicator(T, reorient(T, A)) == report.rhs - report.lhs_sum


@relaxed
@given(masks(2, proper=True))
def test_criterion_matches_popcount_sizes(case):
    t, m, a = case
    report = equal_size_criterion(Tope.from_bitmask(m, t), _subset(a, t))
    assert report.equal == (_size(m, t) == _size(m ^ a, t))


@relaxed
@given(masks(2))
def test_indicator_is_the_popcount_size_difference(case):
    t, m1, m2 = case
    T1, T2 = Tope.from_bitmask(m1, t), Tope.from_bitmask(m2, t)
    assert equinumerosity_indicator(T1, T2) == _size(m1, t) - _size(m2, t)


@relaxed
@given(masks(2))
def test_meet_join_matches_mask_popcounts(case):
    t, m1, m2 = case
    x1 = spectrum_fast(Tope.from_bitmask(m1, t))
    x2 = spectrum_fast(Tope.from_bitmask(m2, t))
    assert negpart_meet_join_from_spectra(x1, x2) == ((m1 & m2).bit_count(), (m1 | m2).bit_count())


@relaxed
@given(masks(1))
def test_terms_are_the_nonzero_spectrum_entries(case):
    t, m = case
    d = decomposition_set(Tope.from_bitmask(m, t))
    assert d.terms == tuple((c, i) for i, c in enumerate(_spectrum(m, t)) if c)
    assert d.size == _size(m, t)


@relaxed
@given(masks(1))
def test_reconstruction_inverts_the_spectrum(case):
    t, m = case
    T = Tope.from_bitmask(m, t)
    assert spectrum_fast(T).coords.tolist() == _spectrum(m, t)
    assert reconstruct_tope(spectrum_fast(T)) == T


@relaxed
@given(masks(2))
def test_update_equals_recomputation(case):
    t, m, s = case
    T = Tope.from_bitmask(m, t)
    x = spectrum_update(spectrum_fast(T), T, _subset(s, t))
    assert x.coords.tolist() == _spectrum(m ^ s, t)
