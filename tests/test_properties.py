"""Property tests at random t <= 512 against bitmask and set arithmetic.

A tope is drawn as a t-bit mask (bit e-1 set means entry e is -1) and a
subset as another mask, so every reference below is plain integer
arithmetic that shares no code with the library.
"""

import json
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclotope import (
    GroundSubset,
    InvalidSpectrum,
    Spectrum,
    Tope,
    decomposition_set,
    equal_size_by_interval_count,
    equal_size_criterion,
    equinumerosity_indicator,
    negpart_meet_join_cards,
    negpart_meet_join_from_spectra,
    reconstruct_tope,
    reorient,
    size_difference,
    spectrum_fast,
    spectrum_update,
)
from cyclotope.cli import _decompose_parts
from cyclotope.decomposition import (
    _boundary_case_display,
    _half_inverse_transform,
    _meet_join_from_spectra,
    _negpart_size,
    _size_difference,
    _spectrum_dense,
    _spectrum_intervals,
    _spectrum_update,
    _telescope,
    _tope_signs,
    _unit_flip_sum,
    _vertex_sum,
)
from cyclotope.equinumerosity import _boundary_sum, _interval_count_rule
from cyclotope.topes import _meet_join_cards

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
def pair_stacks(draw):
    """(t, [(mask_1, mask_2), ...]): one to four mask pairs at one t."""
    t = draw(st.integers(3, MAX_T))
    full = (1 << t) - 1
    count = draw(st.integers(1, 4))
    return t, [(_mask(draw, full), _mask(draw, full)) for _ in range(count)]


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
    assert d.support_size == _size(m, t)


@relaxed
@given(masks(1))
@example((65536, random.Random(5).getrandbits(65536)))  # one random tope past the drawn t
def test_the_terms_alternate_in_sign(case):
    # The terms are the spectrum's nonzero coordinates, which alternate:
    # coordinate i > 0 is half the sign change T(i + 1) - T(i), and
    # coordinate 0, when nonzero, is T(1), the sign before the first change.
    t, m = case
    x = spectrum_fast(Tope.from_bitmask(m, t)).coords
    nonzero = x[x != 0]
    assert (nonzero[1:] == -nonzero[:-1]).all()


@relaxed
@given(masks(1))
def test_decompose_record_is_the_json_dumps_of_its_dict(case):
    t, m = case
    x = _spectrum(m, t)
    record = {
        "x": x,
        "terms": [{"sign": c, "index": i} for i, c in enumerate(x) if c],
        "size": _size(m, t),
    }
    coords = spectrum_fast(Tope.from_bitmask(m, t)).coords
    assert "".join(_decompose_parts(coords)) == json.dumps(record) + "\n"


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


@relaxed
@given(pair_stacks())
def test_batched_kernels_match_the_scalar_functions_row_by_row(case):
    t, pairs = case
    first = [Tope.from_bitmask(m1, t) for m1, _ in pairs]
    second = [Tope.from_bitmask(m2, t) for _, m2 in pairs]
    subsets = [_subset(m2, t) for _, m2 in pairs]
    s1 = np.stack([T.signs for T in first])
    s2 = np.stack([T.signs for T in second])
    x1 = np.stack([spectrum_fast(T).coords for T in first])
    x2 = np.stack([spectrum_fast(T).coords for T in second])
    members = np.array([[m2 >> e & 1 for e in range(t)] for _, m2 in pairs], dtype=bool)
    lhs, rhs = _boundary_sum(s1, members)
    ind_lhs, ind_rhs = _boundary_sum(s1, s1 != s2)
    diff = _size_difference(s1, s2)
    meet, join = _meet_join_from_spectra(x1, x2)
    card_meet, card_join = _meet_join_cards(s1, s2)
    doubled = _half_inverse_transform(s1)
    rebuilt = _vertex_sum(x1)
    for k, (T1, T2, A) in enumerate(zip(first, second, subsets)):
        if len(A) < t:
            report = equal_size_criterion(T1, A)
            assert (report.lhs_sum, report.rhs) == (lhs[k], rhs[k])
        assert equinumerosity_indicator(T1, T2) == ind_rhs[k] - ind_lhs[k]
        assert size_difference(T1, T2) == diff[k]
        assert negpart_meet_join_from_spectra(spectrum_fast(T1), spectrum_fast(T2)) == (meet[k], join[k])
        assert negpart_meet_join_cards(T1, T2) == (card_meet[k], card_join[k])
        assert doubled[k].tolist() == (2 * spectrum_fast(T1).coords).tolist()
        assert Tope(rebuilt[k]) == T1


@relaxed
@given(pair_stacks())
def test_batched_interval_rule_matches_the_scalar_rule_row_by_row(case):
    t, pairs = case
    pairs = [(m1 or 1, m2 or 1) for m1, m2 in pairs]  # the rule needs nonempty sets
    corners = 1 | 1 << (t - 1)
    # Interval counts are run starts: set bits whose lower neighbour is clear.
    rho = np.array([[(m & ~(m << 1)).bit_count() for m in pair] for pair in pairs], dtype=np.int64)
    touch = np.array([[m & corners != 0 for m in pair] for pair in pairs], dtype=bool)
    rule = _interval_count_rule(rho[:, 0], touch[:, 0], rho[:, 1], touch[:, 1])
    for k, (m1, m2) in enumerate(pairs):
        assert equal_size_by_interval_count(_subset(m1, t), _subset(m2, t)) == rule[k]


def _kernel_values(s1, s2, x1, x2, inside):
    """Every private kernel along the last axis, on sign rows s1 and s2, their
    spectra x1 and x2 and the membership rows inside."""
    return {
        "_spectrum_dense": _spectrum_dense(s1),
        "_telescope": _telescope(s1),
        "_spectrum_intervals": _spectrum_intervals(inside),
        "_half_inverse_transform": _half_inverse_transform(s1),
        "_spectrum_update": _spectrum_update(x1, s1, inside),
        "_unit_flip_sum": _unit_flip_sum(inside),
        "_boundary_case_display": _boundary_case_display(inside),
        "_size_difference": _size_difference(s1, s2),
        "_negpart_size": _negpart_size(x1),
        "_vertex_sum": _vertex_sum(x1),
        "_tope_signs": _tope_signs(x1),
        "_meet_join_from_spectra": _meet_join_from_spectra(x1, x2),
        "_boundary_sum": _boundary_sum(s1, inside),
        "_meet_join_cards": _meet_join_cards(s1, s2),
    }


@relaxed
@given(pair_stacks())
def test_each_kernel_gives_the_same_values_in_c_order_fortran_order_and_row_by_row(case):
    # The sweeps run the kernels on coordinate-major stacks, the public
    # functions on single vectors; neither layout may change a value or a
    # dtype.
    t, pairs = case
    first = [Tope.from_bitmask(m1, t) for m1, _ in pairs]
    second = [Tope.from_bitmask(m2, t) for _, m2 in pairs]
    stacks = (
        np.stack([T.signs for T in first]),
        np.stack([T.signs for T in second]),
        np.stack([spectrum_fast(T).coords for T in first]),
        np.stack([spectrum_fast(T).coords for T in second]),
        np.stack([T.signs < 0 for T in second]),
    )
    c_order = _kernel_values(*stacks)
    f_order = _kernel_values(*map(np.asfortranarray, stacks))
    rows = [_kernel_values(*(stack[k] for stack in stacks)) for k in range(len(pairs))]
    for name, value in c_order.items():
        by_row = [row[name] for row in rows]
        if isinstance(value, tuple):
            parts = zip(value, f_order[name], zip(*by_row))
        else:
            parts = [(value, f_order[name], by_row)]
        for c, f, r in parts:
            r = np.array(r)
            assert c.dtype == f.dtype == r.dtype, name
            assert c.tolist() == f.tolist() == r.tolist(), name
    # The routes the sweeps compare with coordinate-major rows return rows
    # in their input's layout.
    for name in ("_spectrum_dense", "_spectrum_intervals", "_boundary_case_display"):
        assert c_order[name].flags.c_contiguous and f_order[name].flags.f_contiguous, name


@relaxed
@given(masks(1))
def test_antipodal_law(case):
    t, m = case
    T = Tope.from_bitmask(m, t)
    assert spectrum_fast(-T) == -spectrum_fast(T)
    assert spectrum_fast(-T).coords.tolist() == _spectrum(m ^ ((1 << t) - 1), t)


# What each constructor raises for an entry out of its range.
_RANGE_ERRORS = {"tope": ValueError, "spectrum": InvalidSpectrum, "subset": ValueError}


@st.composite
def invalid_inputs(draw):
    """(kind, t, entries, error): a valid input with one entry made invalid.

    A bool (Python or numpy) or a float anywhere raises TypeError; an integer
    outside the range, however large, raises the constructor's range error;
    a repeated subset member raises ValueError.  Repeats are valid in topes
    and spectra, so only subsets get them.
    """
    kind = draw(st.sampled_from(sorted(_RANGE_ERRORS)))
    t = draw(st.integers(3, 64))
    m = _mask(draw, (1 << t) - 1)
    if kind == "tope":
        entries, lo, hi = [-1 if m >> e & 1 else 1 for e in range(t)], -1, 1
    elif kind == "spectrum":
        entries, lo, hi = _spectrum(m, t), -1, 1
    else:
        entries, lo, hi = [e + 1 for e in range(t) if m >> e & 1], 1, t
    fault = draw(st.sampled_from(["bool", "float", "range"] + ["duplicate"] * (kind == "subset")))
    if fault == "duplicate" and not entries:
        fault = "range"
    if fault == "bool":
        bad, error = draw(st.sampled_from([True, False, np.True_, np.False_])), TypeError
    elif fault == "float":
        bad, error = float(draw(st.integers(-2, t + 1))), TypeError
    elif fault == "range":
        # A zero lies inside [-1, 1] but is no tope entry.
        bad = draw(st.one_of(st.integers(max_value=lo - 1), st.integers(min_value=hi + 1),
                             st.integers(64, 200).map(lambda k: -(2**k)),
                             st.just(0 if kind == "tope" else hi + 1)))
        error = _RANGE_ERRORS[kind]
    else:
        bad, error = draw(st.sampled_from(entries)), ValueError
    if kind == "subset":
        entries.insert(draw(st.integers(0, len(entries))), bad)
    else:
        entries[draw(st.integers(0, t - 1))] = bad
    return kind, t, entries, error


@relaxed
@given(invalid_inputs())
def test_constructors_reject_invalid_entries(case):
    kind, t, entries, error = case
    with pytest.raises(error):
        if kind == "tope":
            Tope(entries)
        elif kind == "spectrum":
            Spectrum(entries)
        else:
            GroundSubset(t, entries)


# Entries that no member list may hold.
_BAD_MEMBERS = [0.5, np.float64(2), "x", None, Decimal(2), Fraction(1, 2), True, False,
                np.True_, np.False_, np.array(True), 2**70, -(2**70), np.uint64(2**63), 0]


@relaxed
@given(st.data())
def test_a_member_list_reads_the_same_as_its_array(data):
    # A member list and its int64 array give the same subset at every length.
    t = data.draw(st.integers(3, 256))
    members = data.draw(st.permutations(range(1, t + 1)))[:data.draw(st.integers(0, t))]
    want = GroundSubset(t, np.array(members, dtype=np.int64))
    A = GroundSubset(t, members)
    assert A == want and A.members == tuple(sorted(members))
    bad = data.draw(st.sampled_from(_BAD_MEMBERS + [t + 1] + members[:1]))
    members.insert(data.draw(st.integers(0, len(members))), bad)
    with pytest.raises((TypeError, ValueError)) as info:
        GroundSubset(t, members)
    assert str(info.value).startswith(("subset entries must ", "duplicate member "))


@st.composite
def ternary_vectors(draw):
    """A tope spectrum or an arbitrary vector over {-1, 0, 1}, at t <= 64."""
    t = draw(st.integers(3, 64))
    if draw(st.booleans()):
        return _spectrum(_mask(draw, (1 << t) - 1), t)
    return draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=t, max_size=t))


@relaxed
@given(ternary_vectors())
def test_spectrum_accepts_exactly_the_tope_spectra(coords):
    # The only tope whose spectrum could be coords has T(1) = x_1 - (x_2 +
    # ... + x_t) and T(j) = T(j-1) + 2 x_j; coords is a tope spectrum exactly
    # when those entries are +-1 and the pure-Python spectrum gives it back.
    t = len(coords)
    signs = [coords[0] - sum(coords[1:])]
    for c in coords[1:]:
        signs.append(signs[-1] + 2 * c)
    mask = sum(1 << e for e, v in enumerate(signs) if v < 0)
    is_spectrum = set(signs) <= {-1, 1} and _spectrum(mask, t) == coords
    if is_spectrum:
        assert Spectrum(coords).coords.tolist() == coords
    else:
        with pytest.raises(InvalidSpectrum):
            Spectrum(coords)


@st.composite
def run_vectors(draw):
    """A tope spectrum at t <= 1024, or runs of one value over {-1, 0, 1},
    each up to 300 long, so that a prefix can drift past 127."""
    if draw(st.booleans()):
        t = draw(st.integers(3, 1024))
        return _spectrum(_mask(draw, (1 << t) - 1), t)
    runs = draw(st.lists(st.tuples(st.sampled_from([-1, 0, 1]), st.integers(1, 300)),
                         min_size=1, max_size=6))
    coords = [v for v, length in runs for _ in range(length)]
    return coords + [0] * (3 - len(coords))


@relaxed
@given(run_vectors())
@example([1] * 257 + [0] * 743)
@example([-1] * 255 + [0] * 2)
@example([0] * 200 + [1] * 128 + [-1] * 256 + [1] * 129)
def test_int8_vertex_sums_accept_and_reject_as_int64_ones(coords):
    # The int64 prefix sums are the reference: a vector is a tope spectrum
    # exactly when 2 p_e - p_t is +-1 at every e, and then that is the tope.
    prefix = np.add.accumulate(np.array(coords, dtype=np.int64))
    wide = (2 * prefix - prefix[-1]).tolist()
    if set(wide) <= {-1, 1}:
        assert _tope_signs(np.array(coords, dtype=np.int8)).tolist() == wide
        assert reconstruct_tope(Spectrum(coords)).signs.tolist() == wide
        return
    for route in (lambda: _tope_signs(np.array(coords, dtype=np.int8)), lambda: Spectrum(coords)):
        with pytest.raises(InvalidSpectrum, match="^vector is not the spectrum of any tope$"):
            route()
