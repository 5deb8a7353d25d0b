import pytest

from cyclotope import (
    CriterionReport,
    EmptySetError,
    GroundSubset,
    NotProperSubset,
    Tope,
    equal_size_by_interval_count,
    equal_size_criterion,
    equinumerosity_indicator,
    negative_part,
    reorient,
    size_difference,
    spectrum_fast,
)


def subset(t, mask):
    return GroundSubset(t, [e + 1 for e in range(t) if mask >> e & 1])


class TestCriterion:
    def test_empty_set(self):
        report = equal_size_criterion(Tope([1, -1, 1]), GroundSubset.empty(3))
        assert report.equal and report.lhs_sum == 0 and report.rhs == 0

    def test_boundary_singleton_keeps_size(self):
        report = equal_size_criterion(Tope.positive(4), GroundSubset(4, [1]))
        assert report.lhs_sum == 1 and report.rhs == 1
        assert report.equal

    def test_interior_singleton_grows(self):
        report = equal_size_criterion(Tope.positive(4), GroundSubset(4, [2]))
        assert report == CriterionReport(equal=False, lhs_sum=2, rhs=0)

    def test_full_set_rejected(self):
        with pytest.raises(NotProperSubset):
            equal_size_criterion(Tope.positive(4), GroundSubset.full(4))

    def test_exhaustive_small(self):
        for t in (3, 4, 5):
            for m in range(1 << t):
                T = Tope.from_bitmask(m, t)
                base = spectrum_fast(T).support_size
                for amask in range((1 << t) - 1):
                    A = subset(t, amask)
                    direct = base == spectrum_fast(reorient(T, A)).support_size
                    assert equal_size_criterion(T, A).equal == direct


class TestIndicator:
    def test_identical(self):
        T = Tope([1, -1, 1, -1])
        assert equinumerosity_indicator(T, T) == 0

    def test_antipodal(self):
        assert equinumerosity_indicator(Tope.positive(5), Tope.negative(5)) == 0

    def test_interior_flip_nonzero(self):
        plus = Tope.positive(4)
        other = reorient(plus, GroundSubset(4, [2]))
        assert equinumerosity_indicator(plus, other) != 0

    def test_equals_size_difference(self):
        for t in (3, 4, 5):
            for m1 in range(1 << t):
                T1 = Tope.from_bitmask(m1, t)
                for m2 in range(1 << t):
                    T2 = Tope.from_bitmask(m2, t)
                    assert equinumerosity_indicator(T1, T2) == size_difference(T1, T2)

    def test_zero_iff_equal_sizes(self):
        t = 6
        topes = [Tope.from_bitmask(m, t) for m in range(1 << t)]
        sizes = [spectrum_fast(T).support_size for T in topes]
        for a, T1 in enumerate(topes):
            for b, T2 in enumerate(topes):
                assert (equinumerosity_indicator(T1, T2) == 0) == (sizes[a] == sizes[b])

    @pytest.mark.parametrize("t", [2**15 - 1, 2**15, 2**15 + 1, 2**16 + 1])
    def test_largest_boundary_sums_around_the_accumulator_switch(self, t):
        # Alternating signs flip at every adjacent pair, and their negative
        # part splits every one of them: |lhs| = t - 1, the largest possible.
        alternating = Tope([(-1) ** e for e in range(t)])
        size = t - 1 + t % 2
        report = equal_size_criterion(alternating, negative_part(alternating))
        assert (report.equal, report.lhs_sum, report.rhs) == (False, 1 - t, t % 2 - 1)
        assert equinumerosity_indicator(alternating, Tope.positive(t)) == size - 1
        assert size_difference(alternating, Tope.positive(t)) == size - 1


class TestIntervalCountRule:
    def test_equal_sets(self):
        A = GroundSubset(6, [2, 3])
        assert equal_size_by_interval_count(A, A)

    def test_boundary_versus_interior(self):
        # one interval each, but only one touches the boundary pair
        assert not equal_size_by_interval_count(GroundSubset(6, [1, 2]), GroundSubset(6, [3, 4]))

    def test_two_boundary_singletons(self):
        assert equal_size_by_interval_count(GroundSubset(6, [1]), GroundSubset(6, [6]))

    def test_off_by_one_interval_count(self):
        # boundary set with 2 intervals vs interior set with 1: both size 3
        assert equal_size_by_interval_count(GroundSubset(6, [1, 3]), GroundSubset(6, [3]))

    def test_empty_rejected(self):
        with pytest.raises(EmptySetError):
            equal_size_by_interval_count(GroundSubset.empty(4), GroundSubset(4, [1]))

    def test_exhaustive_small(self):
        for t in (3, 4, 6):
            plus = Tope.positive(t)
            sets = [subset(t, m) for m in range(1, 1 << t)]
            sizes = {str(A): spectrum_fast(reorient(plus, A)).support_size for A in sets}
            for A in sets:
                for B in sets:
                    want = sizes[str(A)] == sizes[str(B)]
                    assert equal_size_by_interval_count(A, B) == want
