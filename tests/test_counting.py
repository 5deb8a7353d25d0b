import inspect
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from cyclotope import (
    ENUMERATION_CAP,
    CapExceeded,
    CountTable,
    GroundSubset,
    Tope,
    VerificationMismatch,
    composition_count,
    count_by_boundary_class,
    count_by_negpart_and_size,
    count_cycle_topes_by_negpart,
    count_subsets_by_boundary,
    count_topes_by_size,
    enumerate_statistics,
    formula_table,
    interval_partition,
    negative_part,
    spectrum_fast,
)
from cyclotope import cli, counting, verification
from cyclotope.cli import main
from cyclotope.topes import _row_blocks
from cyclotope.verification import _closed_form_column


class TestCompositionCount:
    def test_single_part(self):
        for n in range(1, 12):
            assert composition_count(1, n) == 1

    def test_two_parts_of_four(self):
        assert composition_count(2, 4) == 3  # 1+3, 2+2, 3+1

    def test_zero_cases(self):
        assert composition_count(0, 0) == 0
        assert composition_count(0, 3) == 0
        assert composition_count(5, 3) == 0

    def test_even_part_binomial_identity(self):
        for t in range(3, 15):
            for rho in range(1, t // 2 + 1):
                assert composition_count(2 * rho, t) == math.comb(t - 1, 2 * rho - 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            composition_count(-1, 3)
        with pytest.raises(ValueError):
            composition_count(2, -1)

    def test_counts_actual_compositions(self):
        # c(m;n) really counts ordered sums of m positive parts
        def brute(m, n):
            if m == 0:
                return 1 if n == 0 else 0
            return sum(brute(m - 1, n - k) for k in range(1, n + 1))

        for n in range(1, 9):
            for m in range(1, n + 1):
                assert composition_count(m, n) == brute(m, n)


class TestCountTopesBySize:
    def test_examples(self):
        assert count_topes_by_size(3, 3) == 2
        assert count_topes_by_size(5, 1) == 10
        assert count_topes_by_size(4, 3) == 8

    def test_rejects_even_or_out_of_range(self):
        with pytest.raises(ValueError):
            count_topes_by_size(5, 2)
        with pytest.raises(ValueError):
            count_topes_by_size(5, 7)

    def test_totals_are_power_of_two(self):
        for t in range(3, 30):
            total = sum(count_topes_by_size(t, l) for l in range(1, t + 1, 2))
            assert total == 1 << t


class TestCountByNegpartAndSize:
    def test_examples(self):
        assert count_by_negpart_and_size(4, 2, 3) == 4
        assert count_by_negpart_and_size(7, 1, 3) == 5
        assert count_by_negpart_and_size(5, 0, 3) == 0

    def test_window_edges(self):
        # at j = (l-1)/2 the count collapses to a single binomial
        for t in range(4, 20):
            for l in range(3, t + 1, 2):
                h = (l - 1) // 2
                p = (l + 1) // 2
                assert count_by_negpart_and_size(t, h, l) == math.comb(t - p, h)
                assert count_by_negpart_and_size(t, h - 1, l) == 0

    def test_symmetry(self):
        for t in range(3, 31):
            for l in range(3, t + 1, 2):
                for j in range(t + 1):
                    assert count_by_negpart_and_size(t, j, l) == count_by_negpart_and_size(t, t - j, l)

    def test_l3_quadratic(self):
        for t in range(3, 31):
            for j in range(1, t):
                expected = max(2 * j * (t - j) - t, 0)
                got = count_by_negpart_and_size(t, j, 3)
                if 1 <= j <= t - 1:
                    assert got == expected

    def test_column_sums(self):
        for t in range(3, 31):
            for l in range(3, t + 1, 2):
                total = sum(count_by_negpart_and_size(t, j, l) for j in range(t + 1))
                assert total == count_topes_by_size(t, l)

    def test_rejects_even_size(self):
        with pytest.raises(ValueError):
            count_by_negpart_and_size(5, 2, 4)


@pytest.mark.parametrize("t", [21, 64, 129])
def test_closed_forms_agree_past_the_enumeration_cap(t):
    cases = ("left-only", "right-only", "both-ends", "neither")
    for l in range(3, t + 1, 2):
        forms = _closed_form_column(t, l)
        for j in range(t + 1):
            count = count_by_negpart_and_size(t, j, l)
            assert all(v == count for v in forms[j]), (t, j, l)
            assert sum(count_by_boundary_class(t, l, case, j) for case in cases) == count


def test_sweep_counting_reports_a_disagreeing_closed_form(monkeypatch):
    def skewed(t, l):
        return [values[:-1] + (values[-1] + 1,) for values in real(t, l)]

    real = verification._closed_form_column
    assert verification.sweep_counting(6) == []
    monkeypatch.setattr(verification, "_closed_form_column", skewed)
    assert any("closed forms" in issue for issue in verification.sweep_counting(6))


@pytest.mark.parametrize("cell", [(0, 1), (12, 1), (3, 3), (7, 5), (6, 11)])
def test_sweep_counting_names_a_wrong_cell_of_the_table_builder(monkeypatch, cell):
    # The sweep compares formula_table with the enumeration; the scalar
    # count and the closed forms do not go through the builder.
    def planted(t):
        return tuple((j, l, c + ((j, l) == cell)) for j, l, c in real(t))

    real = counting._table_rows
    t = 12
    want = formula_table(t).count(*cell)
    assert verification.sweep_counting(t) == []
    monkeypatch.setattr(counting, "_table_rows", planted)
    assert verification.sweep_counting(t) == [
        f"t={t}, j={cell[0]}, l={cell[1]}: formula table {want + 1} != enumerated {want}"
    ]


@pytest.mark.parametrize("cell", [(0, 1), (3, 5), (5, 11)])
def test_a_wrong_first_half_cell_shows_at_j_and_at_its_mirror(monkeypatch, capsys, cell):
    # A fault planted in the first half of one column of the builder reaches
    # both cells of its mirror pair, (j, l) and (t - j, l).
    def planted(t):
        for l, j0, half in real(t):
            if l == cell[1]:
                half = half.copy()
                half[cell[0] - j0] += 1
            yield l, j0, half

    real = counting._table_columns
    t = 12
    j, l = cell
    want = formula_table(t).count(j, l)
    monkeypatch.setattr(counting, "_table_columns", planted)
    monkeypatch.setattr(cli, "_table_columns", planted)
    assert verification.sweep_counting(t) == [
        f"t={t}, j={k}, l={l}: formula table {want + 1} != enumerated {want}" for k in (j, t - j)
    ]
    assert main(["stats", "--t", str(t), "--enumerate"]) == 1
    out = capsys.readouterr().out
    assert f"\n{t},{j},{l},{want + 1},{want}\n" in out
    assert f"\n{t},{t - j},{l},{want + 1},{want}\n" in out


def test_sweep_counting_names_a_table_out_of_order(monkeypatch):
    real = counting._table_rows
    monkeypatch.setattr(counting, "_table_rows", lambda t: tuple(sorted(real(t))))
    assert verification.sweep_counting(5) == [
        "t=5: formula table rows are not the enumerated rows in (l, j) order"
    ]


def test_table_rows_are_yielded_column_by_column():
    assert inspect.isgeneratorfunction(counting._table_columns)
    assert inspect.isgeneratorfunction(counting._table_rows)
    rows = counting._table_rows(9)
    assert next(rows) == (0, 1, 1)
    assert tuple(rows) == formula_table(9).rows[1:]


@pytest.mark.parametrize("t", [3, 8])
def test_tables_hash_by_value(t):
    assert formula_table(t) == enumerate_statistics(t)
    assert hash(formula_table(t)) == hash(enumerate_statistics(t))
    assert len({formula_table(t), enumerate_statistics(t), formula_table(t + 1)}) == 2


def test_lost_tally_is_a_mismatch_with_exit_code_1(monkeypatch, capsys):
    # The pass drops its last coordinate step, so it tallies 2^4 vectors.
    real = counting._pass
    monkeypatch.setattr(counting, "_pass", lambda length, width: real(length - 1, width))
    with pytest.raises(VerificationMismatch, match="tally lost topes"):
        enumerate_statistics(5)
    assert main(["stats", "--t", "5", "--enumerate"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: tally lost topes: 16 != 2^5\n"


def test_the_tally_at_the_cap_peaks_below_256_kib():
    # The pass holds three arrays of 2 x 33^2 int64 counts at t = 32, 17 KiB
    # each; with the rows, the call peaks near 80 KiB.
    tracemalloc.start()
    try:
        enumerate_statistics(ENUMERATION_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 << 10


class TestCycleVertexCounts:
    def test_per_negpart_size(self):
        for t in (3, 5, 9):
            assert count_cycle_topes_by_negpart(t, 0) == 1
            assert count_cycle_topes_by_negpart(t, t) == 1
            for j in range(1, t):
                assert count_cycle_topes_by_negpart(t, j) == 2

    def test_total_is_cycle_length(self):
        for t in (3, 6, 11):
            assert sum(count_cycle_topes_by_negpart(t, j) for j in range(t + 1)) == 2 * t


class TestBoundaryClasses:
    def test_class_totals(self):
        assert count_by_boundary_class(6, 3, "left-only") == 10
        assert count_by_boundary_class(6, 3, "right-only") == 10
        assert count_by_boundary_class(6, 3, "both-ends") == math.comb(5, 2)
        assert count_by_boundary_class(6, 3, "neither") == math.comb(5, 2)

    def test_refined_example(self):
        assert count_by_boundary_class(6, 3, "both-ends", j=3) == 2

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            count_by_boundary_class(6, 3, "middle")

    def test_cases_partition_the_count(self):
        for t in range(3, 11):
            for l in range(3, t + 1, 2):
                for j in range(t + 1):
                    parts = sum(
                        count_by_boundary_class(t, l, case, j)
                        for case in ("left-only", "right-only", "both-ends", "neither")
                    )
                    assert parts == count_by_negpart_and_size(t, j, l)

    def test_per_j_sums_to_totals(self):
        for t in range(3, 15):
            for l in range(3, t + 1, 2):
                for case in ("left-only", "right-only", "both-ends", "neither"):
                    total = sum(count_by_boundary_class(t, l, case, j) for j in range(t + 1))
                    assert total == count_by_boundary_class(t, l, case)


class TestSubsetsByBoundary:
    def test_closed_forms(self):
        t = 7
        for rho in range(1, 4):
            assert count_subsets_by_boundary(t, rho, 1) == 2 * math.comb(t - 1, 2 * rho - 1)
            assert count_subsets_by_boundary(t, rho, 2) == math.comb(t - 1, 2 * (rho - 1))
            assert count_subsets_by_boundary(t, rho, 0) == math.comb(t - 1, 2 * rho)

    def test_empty_set_row(self):
        assert count_subsets_by_boundary(5, 0, 0) == 1
        assert count_subsets_by_boundary(5, 0, 1) == 0

    def test_matches_enumeration(self):
        for t in (4, 6, 8):
            tallies = {}
            for mask in range(1, 1 << t):
                A = GroundSubset(t, [e + 1 for e in range(t) if mask >> e & 1])
                key = (A.boundary_count, interval_partition(A).rho)
                tallies[key] = tallies.get(key, 0) + 1
            for rho in range(1, t + 1):
                for boundary in (0, 1, 2):
                    assert tallies.get((boundary, rho), 0) == count_subsets_by_boundary(t, rho, boundary)


def _tally_per_mask(t):
    # The reference tally: every mask on its own, in row blocks, j its
    # popcount and l its adjacent sign changes plus the corner term.
    width = t + 1
    low = (1 << (t - 1)) - 1
    counts = np.zeros(width * width, dtype=np.int64)
    for rows in _row_blocks(1 << t, 1):
        m = np.arange(rows.start, rows.stop, dtype=np.uint32)
        l = np.bitwise_count((m >> 1 ^ m) & low) + ((m >> (t - 1) ^ m) & 1 == 0)
        keys = np.bitwise_count(m).astype(np.uint16) * width + l
        counts += np.bincount(keys, minlength=width * width)
    counts = counts.reshape(width, width)
    return CountTable(t, [(j, l, int(counts[j, l])) for l in range(width) for j in range(width) if counts[j, l]])


@pytest.mark.parametrize("t", range(3, 21))
def test_the_one_pass_tally_equals_the_per_mask_tally(t):
    assert enumerate_statistics(t) == _tally_per_mask(t)


@pytest.mark.parametrize("t", [34, 36])
def test_the_one_pass_tally_holds_past_the_cap(monkeypatch, t):
    # Its counts must stay exact where a raised cap would take it.
    monkeypatch.setattr(counting, "ENUMERATION_CAP", 36)
    assert enumerate_statistics(t) == formula_table(t)


class TestEnumerateStatistics:
    def test_t3_rows(self):
        table = enumerate_statistics(3)
        assert table.count(1, 3) == 1
        assert table.count(2, 3) == 1
        assert table.total() == 8

    def test_t10_column(self):
        table = enumerate_statistics(10)
        assert sum(c for j, l, c in table if l == 5) == 2 * math.comb(10, 5)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_statistics(33)

    def test_matches_formulas(self):
        for t in range(3, 13):
            assert enumerate_statistics(t).rows == formula_table(t).rows

    def test_matches_formulas_at_cap(self):
        # the longest pass, over 32 coordinates
        table = enumerate_statistics(ENUMERATION_CAP)
        assert table.total() == 1 << ENUMERATION_CAP
        assert table == formula_table(ENUMERATION_CAP)

    def test_matches_spectrum_route(self):
        t = 9
        expected = Counter(
            (bin(mask).count("1"), spectrum_fast(Tope.from_bitmask(mask, t)).support_size)
            for mask in range(1 << t)
        )
        assert {(j, l): c for j, l, c in enumerate_statistics(t)} == expected

    def test_matches_direct_python_tally(self):
        # independent of the kernel bit tricks
        t = 8
        table = enumerate_statistics(t)
        tallies = {}
        for mask in range(1 << t):
            T = Tope.from_bitmask(mask, t)
            key = (len(negative_part(T)), spectrum_fast(T).support_size)
            tallies[key] = tallies.get(key, 0) + 1
        for (j, l), count in tallies.items():
            assert table.count(j, l) == count


class TestFormulaTable:
    # Every t to 64 and six larger ones, odd and even, so that each column's
    # window runs from h = 1 to h = (t-1)//2 at both parities of t.
    @pytest.mark.parametrize("t", [*range(3, 65), 97, 141, 200, 244, 320, 321])
    def test_builder_equals_the_scalar_count_on_every_cell(self, t):
        table = formula_table(t)
        assert [row[:2] for row in table] == sorted((row[:2] for row in table), key=lambda c: c[::-1])
        cells = {(j, l): c for j, l, c in table}
        assert len(cells) == len(table)
        for j in range(t + 1):
            assert cells.pop((j, 1)) == count_cycle_topes_by_negpart(t, j)
        for l in range(3, t + 1, 2):
            for j in range(t + 1):
                assert cells.pop((j, l), 0) == count_by_negpart_and_size(t, j, l), (t, j, l)
        assert cells == {}


@pytest.mark.parametrize("t", [3.0, 3.9, 4.5, True, np.float64(5)])
def test_table_builders_reject_a_non_integer_dimension(t):
    # formula_table(3.9) used to build the t = 3 table.
    with pytest.raises(TypeError):
        formula_table(t)
    with pytest.raises(TypeError):
        CountTable(t, [])


@pytest.mark.parametrize("call, message", [
    (lambda: count_cycle_topes_by_negpart(5, 6), "negative-part size must lie in [0, 5], got 6"),
    (lambda: count_cycle_topes_by_negpart(5, -1), "negative-part size must lie in [0, 5], got -1"),
    (lambda: count_by_negpart_and_size(5, 6, 3), "negative-part size must lie in [0, 5], got 6"),
    (lambda: count_by_boundary_class(5, 3, "neither", 6),
     "negative-part size must lie in [0, 5], got 6"),
    (lambda: count_by_boundary_class(5, 4, "neither"), "this count needs odd l in [3, 5], got 4"),
    (lambda: count_by_boundary_class(5, 7, "neither"), "this count needs odd l in [3, 5], got 7"),
    (lambda: count_subsets_by_boundary(5, 1, 3), "boundary overlap must be 0, 1 or 2, got 3"),
    (lambda: count_subsets_by_boundary(5, -1, 0), "interval count must be nonnegative, got -1"),
])
def test_the_closed_forms_reject_an_argument_out_of_range(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


class TestCountTable:
    def test_row_order_enforced(self):
        with pytest.raises(ValueError):
            CountTable(4, [(1, 3, 2), (0, 1, 1)])

    @pytest.mark.parametrize(
        "rows, error, message",
        [
            ([(1.5, 1, 2)], TypeError, "'float' object cannot be interpreted as an integer"),
            ([(1, 1, 2.9)], TypeError, "'float' object cannot be interpreted as an integer"),
            ([(1, 1.0, 2)], TypeError, "'float' object cannot be interpreted as an integer"),
            ([(True, 1, 2)], TypeError, "expected an integer, got a bool: True"),
            ([(1, 1, np.True_)], TypeError, "expected an integer, got a bool: np.True_"),
            ([(1, 1, "2")], TypeError, "'str' object cannot be interpreted as an integer"),
            ([(1, 3, 2), (0, 1, 1)], ValueError, "rows must be sorted by (l, j)"),
            ([(0, 1, 1), (1, 3, -2)], ValueError, "negative count at (j=1, l=3)"),
            ([(-3, -1, 1)], ValueError, "negative-part size must lie in [0, 4], got -3"),
            ([(5, 1, 1)], ValueError, "negative-part size must lie in [0, 4], got 5"),
            ([(0, 9, 1)], ValueError, "decomposition sizes are odd and in [1, 4], got 9"),
            ([(0, 2, 1)], ValueError, "decomposition sizes are odd and in [1, 4], got 2"),
            ([(0, -1, 1)], ValueError, "decomposition sizes are odd and in [1, 4], got -1"),
            ([(0, 1, 1), (0, 1, 2)], ValueError, "repeated cell (j=0, l=1)"),
            ([(0, 1, 1), (2, 3, 4), (2, 3, 0)], ValueError, "repeated cell (j=2, l=3)"),
            # The range checks come after every row's sign check.
            ([(9, 1, 1), (0, 3, -1)], ValueError, "negative count at (j=0, l=3)"),
        ],
    )
    def test_constructor_rejections(self, rows, error, message):
        with pytest.raises(error) as info:
            CountTable(4, rows)
        assert str(info.value) == message

    def test_constructor_reads_numpy_integers_exactly(self):
        table = CountTable(4, [(np.int64(0), np.int8(1), np.uint64(2**63))])
        assert table.rows == ((0, 1, 2**63),)
        assert {type(v) for v in table.rows[0]} == {int}

    def test_lookup_missing_is_zero(self):
        table = enumerate_statistics(4)
        assert table.count(0, 3) == 0

    @pytest.mark.parametrize("t", [3, 4, 9, 40])
    def test_lookup_equals_a_scan_of_the_rows_on_every_cell(self, t):
        # Every (j, l) in and around the table, present rows and holes alike.
        table = formula_table(t)
        cells = {(j, l): c for j, l, c in table.rows}
        for l in range(-1, t + 3):
            for j in range(-1, t + 2):
                assert table.count(j, l) == cells.get((j, l), 0)

    def test_lookup_on_a_table_with_holes(self):
        table = CountTable(5, [(0, 1, 7), (4, 1, 2), (2, 3, 5), (1, 5, 1)])
        assert [table.count(j, 1) for j in range(6)] == [7, 0, 0, 0, 2, 0]
        assert table.count(2, 3) == 5 and table.count(1, 5) == 1
        assert table.count(1, 3) == table.count(3, 3) == table.count(0, 5) == 0

    def test_the_dimension_is_the_one_given(self):
        assert CountTable(np.int64(6), []).t == 6 and formula_table(9).t == 9

    def test_a_table_equals_only_a_table(self):
        table = formula_table(5)
        assert table.__eq__(table.rows) is NotImplemented
        assert table != table.rows and (formula_table(5) == object()) is False
        assert table == CountTable(5, table.rows) != CountTable(6, table.rows)
