import itertools

import numpy as np
import pytest

from cyclotope import (
    CapExceeded,
    Decomposition,
    DimensionMismatch,
    DimensionTooSmall,
    GroundSubset,
    InvalidSpectrum,
    Spectrum,
    SymmetricCycle,
    Tope,
    VerificationMismatch,
    cycle_vertex,
    decomposition_set,
    negpart_meet_join_cards,
    negpart_meet_join_from_spectra,
    negpart_size_from_spectrum,
    reconstruct_tope,
    reorient,
    size_difference,
    spectrum_dense,
    spectrum_fast,
    spectrum_from_boundary_cases,
    spectrum_from_unit_flips,
    spectrum_intervals,
    spectrum_update,
    unit_flip_spectrum,
)
from cyclotope import decomposition
from cyclotope.cycle import DENSE_CAP


def sigma(s, t):
    return Spectrum.unit(s, t)


class TestSpectrum:
    def test_unit(self):
        x = Spectrum.unit(2, 4)
        assert x.coords.tolist() == [0, 1, 0, 0]
        assert x.support_size == 1
        assert x.total == 1

    def test_range_validation(self):
        with pytest.raises(InvalidSpectrum):
            Spectrum([0, 2, 0])

    def test_rejects_values_that_wrap_in_int8(self):
        with pytest.raises(InvalidSpectrum):
            Spectrum(np.array([256, 1, 0]))

    def test_coord_accessor(self):
        x = Spectrum([1, -1, 1])
        assert x.coord(1) == 1 and x.coord(2) == -1
        with pytest.raises(IndexError):
            x.coord(4)

    def test_negation(self):
        assert -Spectrum([1, -1, 1]) == Spectrum([-1, 1, -1])

    @pytest.mark.parametrize("coords", [[0, 0, 0], [1, 1, -1], [1, -1, 0]])
    def test_rejects_non_tope_vectors(self, coords):
        # Every tope spectrum has a +-1 vertex sum; these vectors do not.
        with pytest.raises(InvalidSpectrum):
            Spectrum(coords)

    def test_rejects_a_vector_whose_int8_total_wraps_to_one(self):
        # 257 ones sum to 1 mod 256; the second prefix, 2, already gives 3.
        with pytest.raises(InvalidSpectrum, match="^vector is not the spectrum of any tope$"):
            Spectrum([1] * 257 + [0] * 743)

    def test_rejects_mixed_bool_list(self):
        # numpy reads [1, True, -1] as the integers [1, 1, -1]
        with pytest.raises(TypeError):
            Spectrum([1, True, -1])


class TestSpectrumDense:
    def test_cycle_vertices_are_units(self):
        t = 5
        cycle = SymmetricCycle(t)
        for s in range(1, t + 1):
            assert spectrum_dense(cycle.vertex(s - 1)) == sigma(s, t)

    def test_negative_tope(self):
        assert spectrum_dense(Tope.negative(4)) == -sigma(1, 4)

    def test_single_interval_reorientation(self):
        T = Tope([1, -1, -1, 1, 1])
        x = spectrum_dense(T)
        assert x.coords.tolist() == [1, -1, 0, 1, 0]

    def test_dense_route_is_capped(self, monkeypatch):
        def refuse(t):
            raise AssertionError(f"built the entries of a {t} x {t} matrix")

        monkeypatch.setattr(decomposition, "_inverse_entries", refuse)
        with pytest.raises(CapExceeded, match=f"capped at t = {DENSE_CAP}"):
            spectrum_dense(Tope.positive(DENSE_CAP + 1))


class TestSpectrumFast:
    def test_positive_tope(self):
        assert spectrum_fast(Tope.positive(6)) == sigma(1, 6)

    def test_negative_tope(self):
        assert spectrum_fast(Tope([-1, -1, -1])).coords.tolist() == [-1, 0, 0]

    def test_derived_example(self):
        T = Tope([1, -1, -1, 1])
        assert spectrum_fast(T).coords.tolist() == [1, -1, 0, 1]
        assert spectrum_fast(T) == spectrum_dense(T)

    @pytest.mark.parametrize("t", [3, 17, 64, 1023])
    def test_matches_dense_random(self, t):
        rng = np.random.default_rng(t)
        for _ in range(20):
            T = Tope(rng.choice(np.array([-1, 1], dtype=np.int8), size=t))
            assert spectrum_fast(T) == spectrum_dense(T)

    def test_rejects_corrupt_signs(self):
        # _wrap trusts its input; the kernel's parity check still catches a 0
        with pytest.raises(VerificationMismatch,
                           match=r"^sign entries must be exactly \+1 or -1$"):
            spectrum_fast(Tope._wrap(np.array([1, 0, 1], dtype=np.int8)))


class TestSpectrumIntervals:
    def test_left_interval(self):
        # negative part [1,2] at t=6
        T = reorient(Tope.positive(6), GroundSubset(6, [1, 2]))
        assert spectrum_intervals(T) == sigma(3, 6)

    def test_both_boundaries(self):
        # negative part {1,3,4,6}: intervals [1,1],[3,4],[6,6]
        T = Tope([-1, 1, -1, -1, 1, -1])
        x = spectrum_intervals(T)
        assert x.coords.tolist() == [-1, 1, -1, 0, 1, -1]
        assert x.support_size == 5
        assert x == spectrum_dense(T)

    def test_right_interval(self):
        # negative part [4,5] at t=5
        T = reorient(Tope.positive(5), GroundSubset(5, [4, 5]))
        assert spectrum_intervals(T) == -sigma(4, 5)


class TestDecompositionSet:
    def test_positive_and_negative(self):
        d = decomposition_set(Tope.positive(4))
        assert d.terms == ((1, 0),)
        d = decomposition_set(Tope.negative(4))
        assert d.terms == ((-1, 0),)

    def test_three_term_example(self):
        T = Tope([1, -1, -1, 1, 1])
        d = decomposition_set(T)
        assert d.terms == ((1, 0), (-1, 1), (1, 3))
        assert d.size == 3
        assert np.array_equal(d.vertex_sum(), T.signs)

    def test_size_shortcut(self):
        for mask in range(1 << 5):
            T = Tope.from_bitmask(mask, 5)
            assert decomposition_set(T).size == spectrum_fast(T).support_size

    def test_decomposition_validation(self):
        with pytest.raises(ValueError):
            Decomposition(4, [(1, 0), (1, 2)])  # even term count
        with pytest.raises(ValueError):
            Decomposition(4, [(1, 2), (1, 0), (1, 3)])  # out of order
        with pytest.raises(ValueError):
            Decomposition(4, [(2, 0)])  # bad sign

    def test_vertex_indices_fold_negatives(self):
        d = Decomposition(4, [(1, 0), (-1, 1), (1, 3)])
        assert d.vertex_indices() == frozenset({0, 5, 3})

    def test_vertex_sum_is_int64_though_its_kernel_sums_in_int8(self):
        d = decomposition_set(Tope.from_bitmask(0b0110, 4))
        assert d.vertex_sum().dtype == np.int64
        assert d.vertex_sum().tolist() == [1, -1, -1, 1]

    @pytest.mark.parametrize(
        "t, terms, error, message",
        [
            (2, [(1, 0)], DimensionTooSmall, "dimension must be >= 3, got 2"),
            (4, [], ValueError, "a decomposition has an odd number of terms"),
            (4, [(1, 0), (1, 2)], ValueError, "a decomposition has an odd number of terms"),
            (4, [(2, 0)], ValueError, "term sign must be +-1, got 2"),
            (4, [(1, 0), (0, 1), (1, 2)], ValueError, "term sign must be +-1, got 0"),
            (4, [(1, 4)], ValueError, "term index 4 out of range [0, 4)"),
            (4, [(-1, -1)], ValueError, "term index -1 out of range [0, 4)"),
            (4, [(1, 2), (1, 0), (1, 3)], ValueError,
             "terms must be in strictly ascending index order"),
            (4, [(1, 0), (1, 0), (1, 3)], ValueError,
             "terms must be in strictly ascending index order"),
            (4, [("+", 0)], ValueError, "invalid literal for int() with base 10: '+'"),
            (4, [(1,)], ValueError, "not enough values to unpack (expected 2, got 1)"),
            # A reading through zip(*terms) would drop the middle term's third entry.
            (4, [(1, 0), (-1, 1, 9), (1, 3)], ValueError, "too many values to unpack (expected 2)"),
            (4, [(1, None)], TypeError, "int() argument must be a string, a bytes-like object "
                                        "or a real number, not 'NoneType'"),
            # Entries go through operator.index: nothing is truncated or parsed.
            (4, [(1.0, 0)], TypeError, "'float' object cannot be interpreted as an integer"),
            (4, [(1, 2.9)], TypeError, "'float' object cannot be interpreted as an integer"),
            (4, [(True, 0)], TypeError, "expected an integer, got a bool: True"),
            (4, [(1, np.False_)], TypeError, "expected an integer, got a bool: np.False_"),
            (4, [(1, "0")], TypeError, "'str' object cannot be interpreted as an integer"),
        ],
    )
    def test_constructor_rejections_and_messages(self, t, terms, error, message):
        with pytest.raises(error) as info:
            Decomposition(t, terms)
        assert str(info.value) == message

    # Each fault planted in the term (s, i) at position k of 201 valid terms
    # at t = 1000, where j is the index of the term before it (of the last
    # term for k = 0), with the error the term-by-term checks give.
    @pytest.mark.parametrize("fault, error, message", [
        (lambda s, i, j: (0, i), ValueError, "term sign must be +-1, got 0"),
        (lambda s, i, j: (2, i), ValueError, "term sign must be +-1, got 2"),
        (lambda s, i, j: (s, 1000), ValueError, "term index 1000 out of range [0, 1000)"),
        (lambda s, i, j: (s, -1), ValueError, "term index -1 out of range [0, 1000)"),
        (lambda s, i, j: (s, 2**70), ValueError,
         f"term index {2**70} out of range [0, 1000)"),
        (lambda s, i, j: (s, j), ValueError,
         "terms must be in strictly ascending index order"),
        (lambda s, i, j: (float(s), i), TypeError,
         "'float' object cannot be interpreted as an integer"),
        (lambda s, i, j: (s, True), TypeError, "expected an integer, got a bool: True"),
        (lambda s, i, j: (s, i, 0), ValueError, "too many values to unpack (expected 2)"),
        (lambda s, i, j: (s,), ValueError, "not enough values to unpack (expected 2, got 1)"),
    ])
    @pytest.mark.parametrize("k", [0, 100, 200])
    def test_a_fault_in_a_long_term_list_keeps_its_message(self, fault, error, message, k):
        # The base is the decomposition of a seeded tope with 201 sign changes.
        rng = np.random.default_rng(k)
        changes = np.zeros(1000, dtype=np.int64)
        changes[1 + rng.choice(999, size=201, replace=False)] = 1
        terms = list(decomposition_set(Tope(1 - 2 * (np.cumsum(changes) % 2))).terms)
        assert len(terms) == 201 and Decomposition(1000, terms).terms == tuple(terms)
        terms[k] = fault(*terms[k], terms[k - 1][1])
        with pytest.raises(error) as info:
            Decomposition(1000, terms)
        assert str(info.value) == message

    def test_constructor_matches_decomposition_set(self):
        for mask in range(1 << 6):
            T = Tope.from_bitmask(mask, 6)
            d = decomposition_set(T)
            built = Decomposition(6, d.terms)
            assert built == d and built.terms == d.terms and built.size == len(d) == d.size
            assert repr(built) == f"Decomposition(t=6, terms={list(d.terms)!r})"
            assert np.array_equal(d.vertex_sum(), T.signs)

    def test_vertex_sum_of_any_terms(self):
        # The sum is the signed sum of the cycle vertices, here +v0 - v2 + v3
        # at t = 4, which is the spectrum of the tope it sums to.
        d = Decomposition(4, [(1, 0), (-1, 2), (1, 3)])
        want = cycle_vertex(4, 0) - cycle_vertex(4, 2) + cycle_vertex(4, 3)
        assert d.vertex_sum().tolist() == want.tolist()

    def test_only_the_terms_of_a_tope_are_accepted(self):
        # Of the 122 vectors over {-1, 0, 1}^5 with odd support, the 32 tope
        # spectra build a decomposition, each that of its vertex sum; the
        # other 90 are refused.
        accepted, refused = [], 0
        for x in itertools.product((-1, 0, 1), repeat=5):
            terms = [(s, i) for i, s in enumerate(x) if s]
            if len(terms) % 2 == 0:
                continue
            try:
                accepted.append(Decomposition(5, terms))
            except InvalidSpectrum as error:
                assert str(error) == "vector is not the spectrum of any tope"
                refused += 1
        assert (len(accepted), refused) == (32, 90)
        assert all(d == decomposition_set(Tope(d.vertex_sum())) for d in accepted)


class TestSpectrumUpdate:
    def test_empty_set_is_identity(self):
        T = Tope([1, -1, 1, 1])
        x = spectrum_fast(T)
        assert spectrum_update(x, T, GroundSubset.empty(4)) == x

    def test_single_flip_example(self):
        T = Tope.positive(4)
        x = spectrum_update(spectrum_fast(T), T, GroundSubset(4, [2]))
        assert x.coords.tolist() == [1, -1, 1, 0]

    def test_from_positive_tope_by_negative_part(self):
        # flipping T^- of the target on the all-plus tope lands on the target
        for mask in range(1 << 5):
            T = Tope.from_bitmask(mask, 5)
            A = GroundSubset(5, [e + 1 for e in range(5) if mask >> e & 1])
            plus = Tope.positive(5)
            assert spectrum_update(spectrum_fast(plus), plus, A) == spectrum_fast(T)

    def test_dimension_mismatch(self):
        T = Tope.positive(4)
        with pytest.raises(DimensionMismatch):
            spectrum_update(spectrum_fast(T), T, GroundSubset(5, [1]))

    def test_stale_spectrum_detected(self):
        # an x1 that is not the spectrum of T1 pushes a coordinate out of range
        T = Tope.positive(4)
        wrong = spectrum_fast(Tope([-1, 1, 1, 1]))
        with pytest.raises(InvalidSpectrum):
            spectrum_update(wrong, T, GroundSubset(4, [1]))

    @pytest.mark.parametrize("x1_of, T1, flip", [
        # the update stays in range but is no spectrum: [-1, -1, 1] has the
        # vertex sum (-1, -3, -1)
        ("---", "+++", 2),
        # the update is the spectrum of -+-+, not of the reoriented --++
        ("++-+", "+-++", 1),
    ])
    def test_spectrum_of_another_tope_is_rejected(self, x1_of, T1, flip):
        x1 = spectrum_fast(Tope.from_string(x1_of))
        T1 = Tope.from_string(T1)
        with pytest.raises(InvalidSpectrum, match="x1 is not the spectrum of T1"):
            spectrum_update(x1, T1, GroundSubset(T1.t, [flip]))


class TestUnitFlipSpectrum:
    def test_three_cases(self):
        assert unit_flip_spectrum(1, 4).coords.tolist() == [0, 1, 0, 0]
        assert unit_flip_spectrum(3, 5).coords.tolist() == [1, 0, -1, 1, 0]
        assert unit_flip_spectrum(4, 4).coords.tolist() == [0, 0, 0, -1]

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            unit_flip_spectrum(0, 4)
        with pytest.raises(IndexError):
            unit_flip_spectrum(5, 4)

    def test_matches_single_flip(self):
        for t in (3, 4, 7):
            for s in range(1, t + 1):
                T = reorient(Tope.positive(t), GroundSubset(t, [s]))
                assert unit_flip_spectrum(s, t) == spectrum_fast(T)


class TestSpectrumFromUnitFlips:
    def test_empty(self):
        assert spectrum_from_unit_flips(GroundSubset.empty(4)) == sigma(1, 4)

    def test_singleton(self):
        for s in range(1, 6):
            A = GroundSubset(5, [s])
            assert spectrum_from_unit_flips(A) == unit_flip_spectrum(s, 5)

    def test_boundary_pair(self):
        A = GroundSubset(4, [1, 4])
        assert spectrum_from_unit_flips(A).coords.tolist() == [-1, 1, 0, -1]

    def test_complement_negation(self):
        for t in (3, 5, 8):
            for mask in range(1 << t):
                A = GroundSubset(t, [e + 1 for e in range(t) if mask >> e & 1])
                assert spectrum_from_unit_flips(A) == -spectrum_from_unit_flips(A.complement())

    def test_matches_dense_route(self):
        t = 6
        plus = Tope.positive(t)
        for mask in range(1 << t):
            A = GroundSubset(t, [e + 1 for e in range(t) if mask >> e & 1])
            want = spectrum_dense(reorient(plus, A))
            assert spectrum_from_unit_flips(A) == want
            assert spectrum_from_boundary_cases(A) == want


class TestSizeDifference:
    def test_identical_topes(self):
        T = Tope([1, -1, 1])
        assert size_difference(T, T) == 0

    def test_antipodal_pair(self):
        assert size_difference(Tope.positive(5), Tope.negative(5)) == 0

    def test_derived_example(self):
        assert size_difference(Tope.positive(3), Tope([1, -1, 1])) == -2

    def test_matches_direct_difference(self):
        t = 6
        topes = [Tope.from_bitmask(m, t) for m in range(1 << t)]
        sizes = [spectrum_fast(T).support_size for T in topes]
        for a in range(len(topes)):
            for b in range(len(topes)):
                assert size_difference(topes[a], topes[b]) == sizes[a] - sizes[b]

    @pytest.mark.parametrize("t", [2**13 - 1, 2**13, 2**13 + 1])
    def test_largest_differences_around_the_accumulator_switch(self, t):
        # The inner product is 4 times the size difference.  Alternating
        # signs have the largest size, t - 1 + t % 2, and all-plus size 1, so
        # at t = 2^13 + 1 it reaches 2^15, one past int16.
        alternating = Tope([(-1) ** e for e in range(t)])
        size = t - 1 + t % 2
        assert size_difference(alternating, Tope.positive(t)) == size - 1
        assert size_difference(Tope.positive(t), alternating) == 1 - size


class TestNegpartFromSpectrum:
    def test_examples(self):
        assert negpart_size_from_spectrum(sigma(1, 4)) == 0
        assert negpart_size_from_spectrum(-sigma(1, 5)) == 5

    def test_matches_direct(self):
        from cyclotope import negative_part

        for mask in range(1 << 6):
            T = Tope.from_bitmask(mask, 6)
            assert negpart_size_from_spectrum(spectrum_fast(T)) == len(negative_part(T))

    def test_meet_join_example(self):
        x = -sigma(1, 4)
        assert negpart_meet_join_from_spectra(x, x) == (4, 4)

    @pytest.mark.parametrize("t", [2**15 - 1, 2**15, 2**15 + 1])
    def test_largest_weighted_sums_around_the_accumulator_switch(self, t):
        # sigma(t) is the spectrum of the tope negative on 1..t-1 and -sigma(t)
        # of the one negative on t alone: weighted sums t and -t, which pass
        # int16 at t = 2^15.
        assert negpart_size_from_spectrum(sigma(t, t)) == t - 1
        assert negpart_size_from_spectrum(-sigma(t, t)) == 1

    @pytest.mark.parametrize("t", [2**13 - 1, 2**13, 2**13 + 1])
    def test_largest_cardinalities_around_the_accumulator_switch(self, t):
        # All-minus has the largest meet and join with itself, 4t = 2^15 at
        # t = 2^13, one past int16.
        x = -sigma(1, t)
        assert negpart_meet_join_from_spectra(x, x) == (t, t)
        assert negpart_meet_join_from_spectra(x, -x) == (0, t)

    def test_rejects_non_tope_spectrum(self):
        with pytest.raises(VerificationMismatch,
                           match=r"^tope spectra have coordinate sum \+-1, got 2$"):
            # sum 2; the constructor would reject it, so build it unchecked
            negpart_size_from_spectrum(Spectrum._wrap(np.array([1, 0, 1], dtype=np.int8)))


class TestInternalGuards:
    """Each kernel guard that only a library fault can trip raises
    VerificationMismatch with its own message."""

    def test_dense_product_with_an_odd_coordinate(self):
        # The doubled product of (1, 0, 1) is (2, -1, 1).
        with pytest.raises(VerificationMismatch,
                           match="^matrix product produced a non-integer coordinate$"):
            spectrum_dense(Tope._wrap(np.array([1, 0, 1], dtype=np.int8)))

    def test_inner_products_that_are_not_multiples_of_4(self):
        # 4 * meet = 0 passes, 4 * join = 2 does not.
        with pytest.raises(VerificationMismatch,
                           match="^inner products of sign vectors must give multiples of 4$"):
            negpart_meet_join_cards(Tope._wrap(np.array([1, 0, 1], dtype=np.int8)),
                                    Tope([1, 1, 1]))

    def test_spectra_whose_coordinate_sum_is_not_pm1(self):
        with pytest.raises(VerificationMismatch,
                           match=r"^tope spectra have coordinate sum \+-1$"):
            negpart_meet_join_from_spectra(Spectrum._wrap(np.array([1, 0, 1], dtype=np.int8)),
                                           sigma(1, 3))

    def test_cardinality_formulas_that_do_not_divide(self, monkeypatch):
        # With coordinate sums +-1 the formulas always divide, so the vertex
        # sum is planted: its first entry one too high keeps the sums (the
        # last entries) and makes 4 * meet odd.
        real = decomposition._vertex_sum

        def planted(coords):
            out = real(coords)
            out[..., 0] += 1
            return out

        monkeypatch.setattr(decomposition, "_vertex_sum", planted)
        with pytest.raises(VerificationMismatch,
                           match="^inner products of sign vectors must give multiples of 4$"):
            negpart_meet_join_from_spectra(sigma(1, 3), sigma(1, 3))

    def test_transforms_whose_inner_product_is_not_a_multiple_of_4(self, monkeypatch):
        # With the transform one too high, the inner product of no pair of
        # topes at t = 5 is a multiple of 4; the quarter is never floored.
        real = decomposition._half_inverse_transform
        monkeypatch.setattr(decomposition, "_half_inverse_transform", lambda v: real(v) + 1)
        topes = [Tope.from_bitmask(m, 5) for m in range(32)]
        for T1, T2 in itertools.product(topes, repeat=2):
            with pytest.raises(VerificationMismatch,
                               match="^inner products of transforms must give multiples of 4$"):
                size_difference(T1, T2)


class TestReconstruction:
    def test_roundtrip_exhaustive(self):
        for t in (3, 4, 6):
            for mask in range(1 << t):
                T = Tope.from_bitmask(mask, t)
                assert reconstruct_tope(spectrum_fast(T)) == T

    def test_invalid_spectrum_rejected(self):
        with pytest.raises(InvalidSpectrum):
            # prefix sums leave the sign range; built unchecked past the constructor
            reconstruct_tope(Spectrum._wrap(np.array([1, -1, 1, -1], dtype=np.int8)))


class TestSpectrumLaws:
    def test_parity_sum_and_entry_rules(self):
        for t in (3, 5, 7):
            for mask in range(1 << t):
                T = Tope.from_bitmask(mask, t)
                x = spectrum_fast(T)
                assert x.support_size % 2 == 1
                assert x.total in (-1, 1)
                assert x.total == T.sign(t)
                for e in range(1, t + 1):
                    if x.coord(e) != 0:
                        assert x.coord(e) == T.sign(e)

    def test_antipodal_law(self):
        for mask in range(1 << 6):
            T = Tope.from_bitmask(mask, 6)
            assert spectrum_fast(-T) == -spectrum_fast(T)

    def test_large_dimension_random(self):
        rng = np.random.default_rng(11)
        t = 4096
        for _ in range(20):
            T = Tope(rng.choice(np.array([-1, 1], dtype=np.int8), size=t))
            x = spectrum_fast(T)
            assert x == spectrum_intervals(T)
            assert reconstruct_tope(x) == T

    def test_three_way_agreement_random_huge(self):
        # At t=1000 the dense matrix is still cheap enough to sample; at
        # t=10000 it would need ~800 MB, so only the linear routes run there.
        rng = np.random.default_rng(23)
        pm = np.array([-1, 1], dtype=np.int8)
        t = 1000
        for k in range(10000):
            T = Tope(rng.choice(pm, size=t))
            x = spectrum_fast(T)
            assert x == spectrum_intervals(T)
            if k % 100 == 0:
                assert x == spectrum_dense(T)
        t = 10000
        for _ in range(1000):
            T = Tope(rng.choice(pm, size=t))
            assert spectrum_fast(T) == spectrum_intervals(T)
