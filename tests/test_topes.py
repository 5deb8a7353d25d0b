import ast
import random
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cyclotope
from cyclotope import (
    CountTable,
    DimensionMismatch,
    DimensionTooSmall,
    EmptySetError,
    GroundSubset,
    IntervalPartition,
    InvalidSpectrum,
    ScaledIntMatrix,
    Spectrum,
    Tope,
    decomposition,
    interval_partition,
    inverse_rows,
    negative_part,
    negpart_meet_join_cards,
    reorient,
    separation_set,
    tope_matrix,
)
from cyclotope import bench, verification
from cyclotope.topes import _integer


def _all_subsets(t):
    """The 2^t subsets in mask order, as the sweeps wrap their member rows."""
    return [GroundSubset._wrap(row) for row in verification._mask_rows(t)[2]]


class TestTope:
    def test_construction_and_accessors(self):
        T = Tope([1, -1, 1])
        assert T.t == 3
        assert T.sign(1) == 1
        assert T.sign(2) == -1
        assert str(T) == "+-+"

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            Tope([1, 0, 1])
        with pytest.raises(ValueError):
            Tope([2, 1, 1])

    def test_rejects_values_that_wrap_in_int8(self):
        with pytest.raises(ValueError):
            Tope(np.array([257, 1, 1]))

    def test_rejects_float_entries(self):
        with pytest.raises(TypeError):
            Tope([1.5, 1, -1])

    def test_rejects_bool_entries(self):
        with pytest.raises(TypeError):
            Tope([True] * 3)

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_rejects_mixed_bool_list(self, flag):
        # numpy reads [1, True, -1] as the integers [1, 1, -1]
        with pytest.raises(TypeError):
            Tope([1, flag, -1])

    def test_rejects_small_dimension(self):
        with pytest.raises(DimensionTooSmall):
            Tope([1, 1])

    def test_sign_index_bounds(self):
        T = Tope.positive(4)
        with pytest.raises(IndexError):
            T.sign(0)
        with pytest.raises(IndexError):
            T.sign(5)

    def test_from_string(self):
        assert Tope.from_string("++-+-") == Tope([1, 1, -1, 1, -1])
        with pytest.raises(ValueError, match=r"position 3 of 3 is 'x'$"):
            Tope.from_string("++x")
        with pytest.raises(ValueError, match=r"nonempty over '\+'/'-': ''$"):
            Tope.from_string("")

    @pytest.mark.parametrize("call, message", [
        (lambda: Tope.from_bitmask(32, 5), "mask 32 out of range for t=5"),
        (lambda: Tope.from_bitmask(-1, 5), "mask -1 out of range for t=5"),
        (lambda: Tope(np.ones((2, 3), dtype=int)), "a tope is a one-dimensional vector"),
        (lambda: Tope([[1, -1, 1]]), "a tope is a one-dimensional vector"),
        (lambda: GroundSubset(4, np.array([[1, 2]])), "a subset is a one-dimensional vector"),
    ])
    def test_a_mask_out_of_range_or_a_nested_input_is_refused(self, call, message):
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == message

    def test_bitmask_roundtrip(self):
        for t in (3, 5, 8):
            for mask in range(1 << t):
                T = Tope.from_bitmask(mask, t)
                assert T.bitmask == mask

    def test_bitmask_rejects_bool(self):
        with pytest.raises(TypeError):
            Tope.from_bitmask(True, 3)
        for mask in (np.True_, 5.0):
            with pytest.raises(TypeError):
                Tope.from_bitmask(mask, 3)

    @pytest.mark.parametrize(
        "mask, error, message",
        [
            (np.True_, TypeError, "expected an integer, got a bool: np.True_"),
            ("5", TypeError, "'str' object cannot be interpreted as an integer"),
            (None, TypeError, "int() argument must be a string, a bytes-like object "
                              "or a real number, not 'NoneType'"),
            ("x", ValueError, "invalid literal for int() with base 10: 'x'"),
        ],
    )
    def test_bitmask_reads_the_mask_as_a_dimension_is_read(self, mask, error, message):
        with pytest.raises(error) as info:
            Tope.from_bitmask(mask, 3)
        assert str(info.value) == message
        with pytest.raises(error) as info:
            Tope.positive(mask)
        assert str(info.value) == message

    def test_bitmask_wide(self):
        # masks beyond 64 bits must survive the round trip
        t = 70
        mask = (1 << 69) | (1 << 3) | 1
        T = Tope.from_bitmask(mask, t)
        assert T.bitmask == mask
        assert T.sign(1) == -1 and T.sign(4) == -1 and T.sign(70) == -1
        assert T.sign(2) == 1

    def test_negation_and_equality(self):
        T = Tope([1, -1, 1, 1])
        assert -(-T) == T
        assert -T == Tope([-1, 1, -1, -1])
        assert hash(T) == hash(Tope([1, -1, 1, 1]))
        assert T != Tope([1, -1, 1]) and T != Tope([1, -1, 1, 1, 1])
        assert T == Tope.from_string("+-++") == Tope.from_bitmask(0b0010, 4)

    @pytest.mark.parametrize("t", [3, 8, 1000])
    def test_str_is_one_character_per_entry(self, t):
        signs = random.Random(t).choices([-1, 1], k=t)
        assert str(Tope(signs)) == "".join("+" if v > 0 else "-" for v in signs)
        assert repr(Tope(signs)) == f"Tope({str(Tope(signs))!r})"

    def test_signs_are_read_only(self):
        T = Tope.positive(3)
        with pytest.raises(ValueError):
            T.signs[0] = -1


class TestGroundSubset:
    def test_basic(self):
        A = GroundSubset(5, [3, 1])
        assert A.members == (1, 3)
        assert 3 in A and 2 not in A
        # Only integers are members: 1 is, and the values equal to it are not.
        assert 1 in A and np.int64(1) in A
        assert not any(e in A for e in (True, np.True_, 1.0))
        assert len(A) == 2
        assert str(A) == "1,3"

    def test_repr_names_the_dimension_and_members(self):
        assert repr(GroundSubset(5, [4, 2])) == "GroundSubset(t=5, members=(2, 4))"
        assert repr(GroundSubset.empty(3)) == "GroundSubset(t=3, members=())"

    def test_empty_and_full(self):
        assert str(GroundSubset.empty(4)) == "none"
        assert GroundSubset.full(4).members == (1, 2, 3, 4)

    def test_from_string(self):
        assert GroundSubset.from_string(5, "2,3,5").members == (2, 3, 5)
        assert GroundSubset.from_string(5, "none").members == ()
        with pytest.raises(ValueError):
            GroundSubset.from_string(5, "2,x")

    def test_rejects_duplicates_and_range(self):
        with pytest.raises(ValueError):
            GroundSubset(4, [2, 2])
        with pytest.raises(ValueError):
            GroundSubset(4, [0])
        with pytest.raises(ValueError):
            GroundSubset(4, [5])

    def test_rejects_float_members(self):
        with pytest.raises(TypeError):
            GroundSubset(3, [1.7])

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_rejects_mixed_bool_list(self, flag):
        with pytest.raises(TypeError):
            GroundSubset(4, [3, flag])

    @pytest.mark.parametrize("member", [2**63, 2**64, -(2**63) - 1, 10**23])
    def test_members_past_int64_are_out_of_range(self, member):
        with pytest.raises(ValueError):
            GroundSubset(4, [1, member])

    def test_membership_vector(self):
        A = GroundSubset(5, [4, 1])
        assert A.inside.tolist() == [True, False, False, True, False]
        with pytest.raises(ValueError):
            A.inside[1] = True
        assert A == negative_part(Tope([-1, 1, 1, -1, 1]))

    def test_complement(self):
        A = GroundSubset(5, [1, 4])
        assert A.complement().members == (2, 3, 5)

    def test_boundary_count(self):
        assert GroundSubset(5, [1]).boundary_count == 1
        assert GroundSubset(5, [1, 5]).boundary_count == 2
        assert GroundSubset(5, [2, 3]).boundary_count == 0


# A dimension is read through operator.index: a float or a bool is refused,
# never truncated (3.9 used to build t = 3) or read as 1.
non_integer_dimensions = pytest.mark.parametrize("t", [3.0, 3.9, 4.5, True, np.float64(5)])


@non_integer_dimensions
def test_positive_tope_rejects_a_non_integer_dimension(t):
    with pytest.raises(TypeError):
        Tope.positive(t)


@non_integer_dimensions
def test_subset_rejects_a_non_integer_dimension(t):
    with pytest.raises(TypeError):
        GroundSubset(t, [1])


def test_numpy_integer_dimensions_are_read_exactly():
    assert Tope.positive(np.int64(5)).t == 5
    assert GroundSubset(np.uint8(4), [4]).t == 4


# Every index, size and count argument is read the same way.  Each call puts
# the bad value in one argument position and valid values in the others;
# gram_entry(4, 1.0, 2) used to return 2.0, inverse_gram_entry(4, 1.5, 2) 0
# and count_subsets_by_boundary(5, True, 1) 8; formula_table(5).count(True, 1)
# returned 2 and .count(2.5, 3) 0.
_INTEGER_ARGUMENTS = {
    "composition_count-m": lambda v: cyclotope.composition_count(v, 4),
    "composition_count-n": lambda v: cyclotope.composition_count(2, v),
    "count_topes_by_size": lambda v: cyclotope.count_topes_by_size(5, v),
    "count_cycle_topes_by_negpart": lambda v: cyclotope.count_cycle_topes_by_negpart(5, v),
    "count_by_negpart_and_size-j": lambda v: cyclotope.count_by_negpart_and_size(5, v, 3),
    "count_by_negpart_and_size-l": lambda v: cyclotope.count_by_negpart_and_size(5, 2, v),
    "count_by_boundary_class-l": lambda v: cyclotope.count_by_boundary_class(5, v, "neither"),
    "count_by_boundary_class-j": lambda v: cyclotope.count_by_boundary_class(5, 3, "neither", v),
    "count_subsets_by_boundary-rho": lambda v: cyclotope.count_subsets_by_boundary(5, v, 1),
    "count_subsets_by_boundary-boundary":
        lambda v: cyclotope.count_subsets_by_boundary(5, 2, v),
    "gram_entry-i": lambda v: cyclotope.gram_entry(4, v, 2),
    "gram_entry-j": lambda v: cyclotope.gram_entry(4, 2, v),
    "inverse_gram_entry-i": lambda v: cyclotope.inverse_gram_entry(4, v, 2),
    "inverse_gram_entry-j": lambda v: cyclotope.inverse_gram_entry(4, 2, v),
    "cycle_vertex": lambda v: cyclotope.cycle_vertex(4, v),
    "Spectrum.unit": lambda v: Spectrum.unit(v, 4),
    "unit_flip_spectrum": lambda v: decomposition.unit_flip_spectrum(v, 4),
    "Tope.sign": lambda v: Tope.positive(4).sign(v),
    "Spectrum.coord": lambda v: Spectrum.unit(1, 4).coord(v),
    "CountTable.count-j": lambda v: cyclotope.formula_table(5).count(v, 1),
    "CountTable.count-l": lambda v: cyclotope.formula_table(5).count(2, v),
}


@pytest.mark.parametrize("value", [True, 2.0, 2.5])
@pytest.mark.parametrize("call", _INTEGER_ARGUMENTS.values(), ids=_INTEGER_ARGUMENTS.keys())
def test_integer_arguments_refuse_bools_and_floats(call, value):
    with pytest.raises(TypeError):
        call(value)


# The list constructors, each with a valid list of n entries and how it
# names its entries: (build, valid entries, what, lo, hi, range error).
_INT64 = np.iinfo(np.int64)
_LIST_CONSTRUCTORS = {
    "Tope": (Tope, lambda n: [1, -1] * (n // 2) + [1] * (n % 2), "tope", -1, 1, ValueError),
    "Spectrum": (Spectrum, lambda n: [1] + [0] * (n - 1), "spectrum", -1, 1, InvalidSpectrum),
    "GroundSubset": (lambda v: GroundSubset(len(v), v), lambda n: list(range(1, n + 1)),
                     "subset", 1, None, ValueError),
    "ScaledIntMatrix": (lambda v: ScaledIntMatrix([v]), lambda n: [7] * n,
                        "matrix", _INT64.min, _INT64.max, ValueError),
}

# A bad entry, and the end of the error it gives in any list: the type and
# the message after "<what> entries must ".
_BAD_ENTRIES = {
    "float": (0.5, TypeError, "be integers, got dtype float64"),
    "np.float64": (np.float64(1), TypeError, "be integers, got dtype float64"),
    "str": ("x", TypeError, "be integers, got dtype <U21"),
    "None": (None, TypeError, "be integers, got dtype object"),
    "Decimal": (Decimal(1), TypeError, "be integers, got dtype object"),
    "Fraction": (Fraction(1), TypeError, "be integers, got dtype object"),
    "True": (True, TypeError, "be integers, got a bool"),
    "np.True_": (np.True_, TypeError, "be integers, got a bool"),
    "2**70": (2**70, None, "lie in"),
    "np.uint64(2**63)": (np.uint64(2**63), None, "lie in"),
    # operator.index refuses it; numpy would read it as the integer 1.
    "0-d bool array": (np.array(True), TypeError, "be integers, got array(True)"),
}


@pytest.mark.parametrize("n", [3, 64, 65, 5000])
@pytest.mark.parametrize("bad", _BAD_ENTRIES, ids=_BAD_ENTRIES.keys())
@pytest.mark.parametrize("name", _LIST_CONSTRUCTORS)
def test_a_bad_list_entry_raises_the_same_error_at_every_length_and_position(name, bad, n):
    # Every list is read by one struct pass, and a refused one is named by
    # _refusal: the error must not depend on the length or the position.
    build, valid, what, lo, hi, range_error = _LIST_CONSTRUCTORS[name]
    value, error, tail = _BAD_ENTRIES[bad]
    if tail == "lie in":
        error, tail = range_error, f"lie in [{lo}, {n if hi is None else hi}]"
    for k in (0, n // 2, n - 1):
        entries = valid(n)
        entries[k] = value
        for given in (entries, tuple(entries)):
            with pytest.raises(error) as info:
                build(given)
            assert type(info.value) is error
            assert str(info.value) == f"{what} entries must {tail}"


class _Index:
    """An integer by __index__ only, as operator.index reads one."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("n", [3, 64, 65, 5000])
def test_an_index_only_entry_is_read_by_operator_index_at_every_length(n):
    assert _integer(_Index(-3)) == -3
    for name, (build, valid, *_) in _LIST_CONSTRUCTORS.items():
        entries = valid(n)
        built = build([_Index(v) for v in entries])
        want = build(entries)
        if name == "ScaledIntMatrix":
            assert np.array_equal(built.entries, want.entries)
        else:
            assert built == want


class TestTrustedAndValidatedSubsetsAgree:
    """Validated, negative-part and verification-row subsets are one object."""

    @pytest.mark.parametrize("t", range(3, 9))
    def test_every_mask(self, t):
        rng = random.Random(t)
        rows = _all_subsets(t)
        for mask in range(1 << t):
            members = [e + 1 for e in range(t) if mask >> e & 1]
            forms = [
                GroundSubset(t, members),
                negative_part(Tope.from_bitmask(mask, t)),
                rows[mask],
            ]
            for A in forms:
                assert A == forms[0] and hash(A) == hash(forms[0])
                assert A.members == tuple(members)
                assert str(A) == (",".join(map(str, members)) or "none")
                assert len(A) == len(members)
                assert A.boundary_count == (1 in members) + (t in members)
                assert A.complement() == GroundSubset(t, set(range(1, t + 1)) - set(members))
                if members:
                    assert interval_partition(A) == interval_partition(forms[0])
                else:
                    with pytest.raises(EmptySetError):
                        interval_partition(A)
                T = Tope.from_bitmask(rng.randrange(1 << t), t)
                assert separation_set(T, reorient(T, A)) == A


class TestReorient:
    def test_empty_set_is_identity(self):
        T = Tope([1, 1, 1])
        assert reorient(T, GroundSubset.empty(3)) == T

    def test_full_set_negates(self):
        assert reorient(Tope.positive(3), GroundSubset.full(3)) == Tope.negative(3)

    def test_definition_instance(self):
        T = Tope([1, -1, 1, 1])
        assert reorient(T, GroundSubset(4, [2, 4])) == Tope([1, 1, 1, -1])

    def test_involution_exhaustive_small(self):
        for t in (3, 4, 5):
            for mask in range(1 << t):
                T = Tope.from_bitmask(mask, t)
                for amask in range(1 << t):
                    A = GroundSubset(t, [e + 1 for e in range(t) if amask >> e & 1])
                    assert reorient(reorient(T, A), A) == T


class TestNegativePart:
    def test_examples(self):
        assert negative_part(Tope.positive(6)).members == ()
        assert negative_part(Tope.negative(5)).members == (1, 2, 3, 4, 5)
        assert negative_part(Tope([1, -1, -1, 1, -1])).members == (2, 3, 5)

    def test_cardinality_identity(self):
        # |T^-| = (t - sum of entries) / 2
        for t in (3, 6, 10):
            for mask in range(1 << t):
                T = Tope.from_bitmask(mask, t)
                assert 2 * len(negative_part(T)) == t - int(T.signs.sum())


class TestSeparationSet:
    def test_examples(self):
        T = Tope([1, 1, -1])
        assert separation_set(T, T).members == ()
        assert separation_set(Tope.positive(4), Tope.negative(4)).members == (1, 2, 3, 4)
        assert separation_set(Tope([1, 1, -1]), Tope([1, -1, -1])).members == (2,)

    def test_matches_reorient(self):
        T = Tope([1, -1, 1, 1, -1])
        A = GroundSubset(5, [2, 5])
        assert separation_set(T, reorient(T, A)) == A

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            separation_set(Tope.positive(3), Tope.positive(4))

    def test_flip_reconstruction_identity(self):
        # T2 = T1 with entries on the separation set negated, entrywise
        for t in (3, 5):
            for m1 in range(1 << t):
                T1 = Tope.from_bitmask(m1, t)
                for m2 in range(1 << t):
                    T2 = Tope.from_bitmask(m2, t)
                    S = separation_set(T1, T2)
                    rebuilt = T1.signs.astype(np.int64).copy()
                    for s in S:
                        rebuilt[s - 1] -= 2 * T1.sign(s)
                    assert np.array_equal(rebuilt, T2.signs)


class TestIntervalPartition:
    def test_examples(self):
        p = interval_partition(GroundSubset(5, [1, 2, 4]))
        assert p.intervals == ((1, 2), (4, 4))
        assert p.rho == 2
        p = interval_partition(GroundSubset(5, [3]))
        assert p.intervals == ((3, 3),)
        assert p.rho == 1
        p = interval_partition(GroundSubset(9, [1, 2, 3, 5, 6, 9]))
        assert p.intervals == ((1, 3), (5, 6), (9, 9))
        assert p.rho == 3

    def test_empty_is_an_error(self):
        with pytest.raises(EmptySetError):
            interval_partition(GroundSubset.empty(4))

    def test_gaps_are_at_least_two(self):
        for t in (5, 7):
            for mask in range(1, 1 << t):
                A = GroundSubset(t, [e + 1 for e in range(t) if mask >> e & 1])
                ivs = interval_partition(A).intervals
                assert all(i <= j for i, j in ivs)
                for (_, j1), (i2, _) in zip(ivs, ivs[1:]):
                    assert i2 - j1 >= 2


    def test_bounds_are_the_slice_bounds_of_the_runs(self):
        A = GroundSubset(9, [1, 2, 3, 5, 6, 9])
        starts, ends = interval_partition(A).bounds
        assert starts.dtype == ends.dtype == np.int64
        assert [A.inside[a:b].all() for a, b in zip(starts, ends)] == [True] * 3
        assert (starts.tolist(), ends.tolist()) == ([0, 4, 8], [3, 6, 9])
        with pytest.raises(ValueError):
            starts[0] = 1

    def test_hash_by_value(self):
        p = interval_partition(GroundSubset(6, [2, 3, 5]))
        assert hash(p) == hash(IntervalPartition([(2, 3), (5, 5)]))
        assert len({interval_partition(A) for A in _all_subsets(6)[1:]}) == 63

    def test_compares_hashes_and_wraps_by_the_tope_vectors_base(self):
        for name in ("__eq__", "__hash__"):
            assert getattr(IntervalPartition, name) is getattr(Tope, name), name
        assert IntervalPartition._wrap.__func__ is Tope._wrap.__func__
        assert "_wrap" not in vars(IntervalPartition)

    def test_has_no_t_and_no_instance_dict(self):
        for p in (interval_partition(GroundSubset(6, [2, 3, 5])), IntervalPartition([(1, 4)])):
            assert not hasattr(p, "t") and not hasattr(p, "__dict__")
            with pytest.raises(AttributeError):
                p.extra = 1

    def test_compares_with_a_non_partition_by_not_implemented(self):
        p = IntervalPartition([(2, 3), (5, 5)])
        # The Tope holds the bytes of the partition's bounds 1, 3, 4, 5.
        same_bytes = Tope._wrap(np.array([1, 3, 4, 5], dtype=np.int64).view(np.int8))
        for other in ((2, 3, 5, 5), ((2, 3), (5, 5)), same_bytes,
                      GroundSubset(6, [2, 3, 5])):
            assert p.__eq__(other) is NotImplemented
            assert p != other and not p == other

    def test_constructor_agrees_with_the_partition(self):
        for t in (3, 6):
            for A in _all_subsets(t)[1:]:
                p = interval_partition(A)
                built = IntervalPartition(p.intervals)
                assert built == p and built.intervals == p.intervals
                assert list(built) == list(p.intervals) and len(built) == p.rho
                assert repr(built) == f"IntervalPartition({list(p.intervals)!r})"

    @pytest.mark.parametrize(
        "intervals, error, message",
        [
            ([], EmptySetError, "an interval partition needs at least one interval"),
            ([(3, 2)], ValueError, "interval (3, 2) is reversed"),
            ([(1, 2), (3, 4)], ValueError,
             "intervals ending at 2 and starting at 3 are not separated"),
            ([(4, 5), (1, 2)], ValueError,
             "intervals ending at 5 and starting at 1 are not separated"),
            ([(1.5, 2)], TypeError, "'float' object cannot be interpreted as an integer"),
            ([(1, 2), (4, 6.0)], TypeError, "'float' object cannot be interpreted as an integer"),
            ([(True, 2)], TypeError, "expected an integer, got a bool: True"),
            ([(1, "2")], TypeError, "'str' object cannot be interpreted as an integer"),
            ([(-5, -3), (0, 2)], ValueError,
             "interval (-5, -3) must lie in [1, 9223372036854775807]"),
            ([(0, 2)], ValueError, "interval (0, 2) must lie in [1, 9223372036854775807]"),
            ([(1, 2**70)], ValueError,
             f"interval (1, {2**70}) must lie in [1, 9223372036854775807]"),
            ([(1, 2), (4, 2**63)], ValueError,
             f"interval (4, {2**63}) must lie in [1, 9223372036854775807]"),
        ],
    )
    def test_constructor_rejections(self, intervals, error, message):
        with pytest.raises(error) as info:
            IntervalPartition(intervals)
        assert str(info.value) == message

    def test_constructor_takes_intervals_up_to_the_int64_limit(self):
        p = IntervalPartition([(1, 1), (3, 2**63 - 1)])
        assert p.intervals == ((1, 1), (3, 2**63 - 1))
        assert [b.tolist() for b in p.bounds] == [[0, 2], [1, 2**63 - 1]]

    def test_a_constructed_partitions_bounds_are_read_only(self):
        starts, ends = IntervalPartition([(1, 3), (5, 6), (9, 9)]).bounds
        assert starts.dtype == ends.dtype == np.int64
        for bound in (starts, ends):
            with pytest.raises(ValueError):
                bound[0] = 1


class TestVectorBase:
    """Tope, GroundSubset, Spectrum and Decomposition share one vector base."""

    def _values(self):
        T = Tope.from_string("+--+-")
        x, d = decomposition.spectrum_fast(T), decomposition.decomposition_set(T)
        return T, negative_part(T), x, d

    def test_no_instance_has_a_dict(self):
        for value in self._values():
            assert not hasattr(value, "__dict__"), type(value)
            with pytest.raises(AttributeError):
                value.extra = 1

    def test_equal_bytes_of_different_classes_compare_unequal(self):
        _, _, x, d = self._values()
        assert x.coords.dtype == d._v.dtype == np.int8
        assert x.coords.tobytes() == d._v.tobytes()
        assert x != d and d != x and not x == d
        assert Tope([1, -1, 1]) != Spectrum([1, -1, 1])
        assert Spectrum([1, -1, 1]) != Tope([1, -1, 1])

    def test_decompositions_hash_by_value(self):
        d = decomposition.decomposition_set(Tope.from_string("+--+-"))
        built = decomposition.Decomposition(5, d.terms)
        assert built == d and hash(built) == hash(d)
        topes = [Tope.from_bitmask(mask, 6) for mask in range(64)]
        assert len({decomposition.decomposition_set(T) for T in topes}) == 64


# The dtype each trusted constructor stores.  Equality compares tobytes(),
# which equals exactly when the two vectors share a dtype.
_LAYOUTS = {
    Tope: np.int8,
    Spectrum: np.int8,
    decomposition.Decomposition: np.int8,
    GroundSubset: np.bool_,
    IntervalPartition: np.int64,
}


def _wrap_call_sites():
    """(module, line) of every call to a _wrap in the package source."""
    sites = set()
    for path in Path(cyclotope.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_wrap":
                sites.add((f"cyclotope.{path.stem}", node.lineno))
    return sites


def _off_by_one(kernel):
    """A kernel that is wrong everywhere, so every mismatch message is built."""

    def wrong(*args):
        out = kernel(*args)
        if isinstance(out, tuple):
            return (out[0] + 1,) + out[1:]
        return ~out if out.dtype == bool else out + 1

    return wrong


def test_every_trusted_constructor_call_stores_its_layout(monkeypatch):
    seen = set()
    for cls, dtype in _LAYOUTS.items():
        real = cls._wrap.__func__

        def checked(cls, arr, real=real, dtype=dtype):
            frame = sys._getframe(1)
            site = (frame.f_globals["__name__"], frame.f_lineno)
            assert arr.dtype == dtype and arr.ndim == 1, site
            seen.add(site)
            return real(cls, arr)

        monkeypatch.setattr(cls, "_wrap", classmethod(checked))

    def checked_table(cls, t, rows, real=CountTable._wrap.__func__):
        # A table stores its (j, l, count) rows as a tuple of Python ints in
        # (l, j) order; count() bisects on that order.
        frame = sys._getframe(1)
        site = (frame.f_globals["__name__"], frame.f_lineno)
        assert type(t) is int and type(rows) is tuple, site
        assert all(len(row) == 3 and {type(v) for v in row} == {int} for row in rows), site
        assert [(l, j) for j, l, _ in rows] == sorted((l, j) for j, l, _ in rows), site
        seen.add(site)
        return real(cls, t, rows)

    monkeypatch.setattr(CountTable, "_wrap", classmethod(checked_table))

    def checked_matrix(cls, entries, denom, real=ScaledIntMatrix._wrap.__func__):
        # A matrix stores 2-D int64 entries over a denominator of 1, 2 or 4.
        frame = sys._getframe(1)
        site = (frame.f_globals["__name__"], frame.f_lineno)
        assert entries.dtype == np.int64 and entries.ndim == 2, site
        assert type(denom) is int and denom in (1, 2, 4), site
        seen.add(site)
        return real(cls, entries, denom)

    monkeypatch.setattr(ScaledIntMatrix, "_wrap", classmethod(checked_matrix))
    verification.run_report(4)
    for name in ("_boundary_sum", "_interval_count_rule", "_size_difference",
                 "_meet_join_from_spectra", "_meet_join_cards"):
        monkeypatch.setattr(verification, name, _off_by_one(getattr(verification, name)))
    for sweep in (verification.sweep_equinumerosity, verification.sweep_size_difference,
                  verification.sweep_negpart_cardinalities):
        assert sweep(3)
    # The per-tope sweeps run the kernels on row stacks and wrap rows only
    # to name a failure; the public routes wrap the kernels' vectors.
    monkeypatch.setattr(verification, "_telescope", _off_by_one(verification._telescope))
    assert verification.sweep_spectrum_methods(3)
    monkeypatch.setattr(verification, "_unit_flip_sum", _off_by_one(verification._unit_flip_sum))
    assert verification.sweep_unit_flip_spectra(3)
    T = Tope.from_string("+--")
    x = decomposition.spectrum_fast(T)
    decomposition.spectrum_dense(T), decomposition.spectrum_intervals(T)
    decomposition.decomposition_set(T), decomposition.reconstruct_tope(x)
    decomposition.spectrum_update(x, T, GroundSubset(3, [2])), interval_partition(negative_part(T))
    A = GroundSubset(3, [1, 3])
    decomposition.spectrum_from_unit_flips(A), decomposition.spectrum_from_boundary_cases(A)
    decomposition.unit_flip_spectrum(2, 3), -x, A.complement()
    reorient(T, A), separation_set(T, -T)
    Tope.negative(3), Tope.from_string("+-+"), Tope.from_bitmask(5, 3), Spectrum.unit(1, 3)
    GroundSubset.empty(3), GroundSubset.full(3)
    tope_matrix(3) @ inverse_rows(3)
    bench.random_tope(3)
    assert seen == _wrap_call_sites()


def test_a_named_row_is_a_contiguous_copy_of_its_row(monkeypatch):
    # The sweeps' row stacks are coordinate-major, so a row is a strided view
    # into the whole stack; a Tope or GroundSubset naming a failure copies it.
    named = []
    for cls in (Tope, GroundSubset):
        real = cls._wrap.__func__

        def recording(cls, arr, real=real):
            if sys._getframe(1).f_globals["__name__"] == "cyclotope.verification":
                named.append(arr)
            return real(cls, arr)

        monkeypatch.setattr(cls, "_wrap", classmethod(recording))
    for name in ("_boundary_sum", "_interval_count_rule", "_size_difference",
                 "_meet_join_from_spectra", "_meet_join_cards"):
        monkeypatch.setattr(verification, name, _off_by_one(getattr(verification, name)))
    for sweep in (verification.sweep_equinumerosity, verification.sweep_size_difference,
                  verification.sweep_negpart_cardinalities):
        assert sweep(4)
    monkeypatch.setattr(verification, "_telescope", _off_by_one(verification._telescope))
    monkeypatch.setattr(verification, "_unit_flip_sum", _off_by_one(verification._unit_flip_sum))
    assert verification.sweep_spectrum_methods(4) and verification.sweep_unit_flip_spectra(4)
    assert named
    assert all(arr.base is None and arr.flags.c_contiguous for arr in named)


class TestMeetJoinCards:
    def test_examples(self):
        negd = Tope.negative(4)
        assert negpart_meet_join_cards(negd, negd) == (4, 4)
        T2 = Tope([1, -1, -1, 1])
        assert negpart_meet_join_cards(Tope.positive(4), T2) == (0, 2)
        assert negpart_meet_join_cards(Tope([-1, 1, -1, 1]), Tope([-1, -1, 1, 1])) == (1, 3)

    def test_matches_direct_sets(self):
        for t in (3, 4, 5):
            for m1 in range(1 << t):
                T1 = Tope.from_bitmask(m1, t)
                n1 = set(negative_part(T1))
                for m2 in range(1 << t):
                    T2 = Tope.from_bitmask(m2, t)
                    n2 = set(negative_part(T2))
                    assert negpart_meet_join_cards(T1, T2) == (len(n1 & n2), len(n1 | n2))

    @pytest.mark.parametrize("t", [2**13 - 1, 2**13, 2**13 + 1])
    def test_largest_cardinalities_around_the_accumulator_switch(self, t):
        # All-minus has the largest meet and join with itself, 4t = 2^15 at
        # t = 2^13, one past int16.
        negative = Tope.negative(t)
        assert negpart_meet_join_cards(negative, negative) == (t, t)
        assert negpart_meet_join_cards(negative, Tope.positive(t)) == (0, t)
