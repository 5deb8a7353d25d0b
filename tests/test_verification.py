"""The sweeps report a kernel that is wrong on one pair, tope, subset or path step.

Each test plants a fault in one production kernel, as the sweep module sees
it, and checks that the sweep names exactly the pairs, topes, subsets or
path steps it affects.  At t = 8 the 256 x 256 pair grid spans several row
blocks (negpart-cardinalities: several bands of square tiles), and at
t = 13 the 8192 tope or subset rows span two; the planted pair, tope or
subset sits in the first or in the last block.  spectrum-updates runs all
16 steps of its 20 paths as one stack, so its faults sit on the first or
the last path; the oracle sweep reads the oracle's table, so its faults sit
in one table entry.
"""

import importlib
import inspect
import pkgutil
import random
import re
import tracemalloc

import numpy as np
import pytest

from cyclotope import (
    CapExceeded,
    DimensionTooSmall,
    GroundSubset,
    ScaledIntMatrix,
    Spectrum,
    Tope,
    VerificationMismatch,
    count_by_boundary_class,
    decomposition_set,
    negative_part,
    reorient,
    spectrum_fast,
)
import cyclotope
from cyclotope import (
    cli, counting, cycle, decomposition, equinumerosity, oracle, topes, verification,
)
from cyclotope.cycle import DENSE_CAP

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
    assert reports.mismatches == 31 * 31
    assert reports == [f"A=1, B={B}: interval rule != direct comparison"
                       for B in ("1", "2", "1,2", "3", "1,3")]
    # The 31 x 31 pairs are one block at t = 5; its last cell is the last pair.
    def last_pair_wrong(*args):
        out = real(*args)
        out[-1, -1] = ~out[-1, -1]
        return out

    monkeypatch.setattr(verification, "_interval_count_rule", last_pair_wrong)
    reports = verification.sweep_equinumerosity(5)
    assert reports.mismatches == 1
    assert reports == ["A=1,2,3,4,5, B=1,2,3,4,5: interval rule != direct comparison"]


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


# The per-tope sweeps run their kernels on row blocks of the 2^t sign rows;
# at t = 13 the 8192 rows span two blocks, so mask 1 sits in the first block
# and mask 2^13 - 2 in the last.
WIDE = 13
in_first_or_last_tope_block = pytest.mark.parametrize("mask", [0b1, (1 << WIDE) - 2])


def _on_row(kernel, row, change):
    """kernel with change applied to its output rows whose input row is row."""

    def wrong(rows, *args):
        out = kernel(rows, *args)
        hit = np.all(rows == row, axis=-1)
        if hit.any():
            out[hit] = change(out[hit])
        return out

    return wrong


def _negate_last_term(coords):
    # The last nonzero coordinate of each row changes sign: the support and
    # its parity stay, the vertex sum does not.
    out = coords.copy()
    for row in out:
        k = np.flatnonzero(row)[-1]
        row[k] = -row[k]
    return out


def test_per_tope_blocks_span_the_planted_masks():
    blocks = list(verification._row_blocks(1 << WIDE, WIDE))
    assert len(blocks) == 2
    assert blocks[0].start <= 0b1 < blocks[0].stop
    assert blocks[-1].start <= (1 << WIDE) - 2 < blocks[-1].stop


@in_first_or_last_tope_block
@pytest.mark.parametrize("kernel", ["_telescope", "_spectrum_dense", "_spectrum_intervals"])
def test_sweep_spectrum_methods_names_a_wrong_route(monkeypatch, kernel, mask):
    tope = Tope.from_bitmask(mask, WIDE)
    row = tope.signs < 0 if kernel == "_spectrum_intervals" else tope.signs
    right = spectrum_fast(tope)
    routes = {"_spectrum_dense": right, "_telescope": right, "_spectrum_intervals": right}
    routes[kernel] = -right
    real = getattr(verification, kernel)
    monkeypatch.setattr(verification, kernel, _on_row(real, row, lambda out: -out))
    reports = {
        mask: f"{tope}: routes disagree: {routes['_spectrum_dense']} / {routes['_telescope']} / "
              f"{routes['_spectrum_intervals']}"
    }
    if kernel == "_telescope":
        # The antipodal law runs the telescoping kernel on the negated rows,
        # so the antipode of the planted tope fails it.
        reports[mask ^ ((1 << WIDE) - 1)] = f"{-tope}: antipodal law failed"
    assert verification.sweep_spectrum_methods(WIDE) == [reports[m] for m in sorted(reports)]


@in_first_or_last_tope_block
def test_sweep_decompositions_names_a_wrong_telescoping_row(monkeypatch, mask):
    tope = Tope.from_bitmask(mask, WIDE)
    real = verification._telescope
    monkeypatch.setattr(verification, "_telescope", _on_row(real, tope.signs, _negate_last_term))
    assert verification.sweep_decompositions(WIDE) == [
        f"{tope}: signed vertex sum does not reproduce the tope"
    ]


@in_first_or_last_tope_block
def test_sweep_boundary_classes_reports_the_cells_a_wrong_size_moves(monkeypatch, mask):
    # Two more terms in one tope's size reference move it from cell (j, l)
    # to (j, l + 2) of its boundary class: both class totals and both cells
    # are reported.
    t, tope = WIDE, Tope.from_bitmask(mask, WIDE)
    l, j = _size(tope), mask.bit_count()
    cls = {(1, 0): "left-only", (0, 1): "right-only", (1, 1): "both-ends", (0, 0): "neither"}[
        (mask & 1, mask >> (t - 1) & 1)
    ]

    rows = list(verification._mask_rows(t))
    rows[3] = rows[3].copy()
    rows[3][mask] += 2
    monkeypatch.setattr(verification, "_mask_rows", lambda t: tuple(rows))
    expected = []
    for size, step in ((l, -1), (l + 2, 1)):
        if 3 <= size <= t:
            total = count_by_boundary_class(t, size, cls)
            cell = count_by_boundary_class(t, size, cls, j)
            expected += [
                f"t={t}, l={size}, {cls}: total {total + step} != closed form",
                f"t={t}, l={size}, j={j}, {cls}: {cell + step} != {cell}",
            ]
    assert expected
    assert verification.sweep_boundary_classes(t) == expected


@pytest.mark.parametrize("path", [0, 19])
@pytest.mark.parametrize("step", [0, 7, 15])
def test_sweep_spectrum_updates_names_the_planted_path_step(monkeypatch, path, step):
    # The 16 steps of all 20 paths run as one (step, path) stack, in one
    # kernel call.
    real = verification._spectrum_update
    calls = []

    def wrong(coords, signs, inside):
        out = real(coords, signs, inside)
        out[step, path, 0] += 2
        calls.append(out.shape)
        return out

    assert verification.sweep_spectrum_updates(T) == []
    monkeypatch.setattr(verification, "_spectrum_update", wrong)
    assert verification.sweep_spectrum_updates(T) == [
        f"path {path} step {step}: update diverged from recomputation"
    ]
    assert calls == [(16, 20, T)]


def test_sweep_spectrum_updates_reports_every_diverging_path_in_order(monkeypatch):
    real = verification._spectrum_update

    def wrong(coords, signs, inside):
        out = real(coords, signs, inside)
        out[3, [12, 5], 1] += 2
        out[9, [5, 2], 1] += 2
        return out

    monkeypatch.setattr(verification, "_spectrum_update", wrong)
    assert verification.sweep_spectrum_updates(T) == [
        f"path {p} step {s}: update diverged from recomputation"
        for p, s in ((2, 9), (5, 3), (12, 3))
    ]


@pytest.mark.parametrize("t", [5, 8, 64, 4096])
def test_sweep_spectrum_updates_catches_a_fault_on_large_flip_sets(monkeypatch, t):
    # The update is wrong only on the rows that flip more than
    # max(2, t // 4) + 1 coordinates (t // 4 + 1 from t = 8 on), sizes that
    # the odd steps reach, and that a sampler capped there never tries.
    real = verification._spectrum_update

    def wrong(coords, signs, inside):
        out = real(coords, signs, inside)
        out[..., 0] += 2 * (inside.sum(axis=-1) > max(2, t // 4) + 1)
        return out

    monkeypatch.setattr(verification, "_spectrum_update", wrong)
    found = verification.sweep_spectrum_updates(t)
    assert found.mismatches > 0
    assert all(line.endswith("update diverged from recomputation") for line in found)


@pytest.mark.parametrize("mask", [0b0000000, 0b0000001, 0b1111111])
def test_sweep_oracle_names_a_wrong_table_entry(monkeypatch, mask):
    # The oracle table's minimal vertex mask of one tope gains the vertex at
    # position 2t - 1, or its tie count turns 2.
    t, tope = 7, Tope.from_bitmask(mask, 7)
    least, ties, minimal, intruder = oracle._search_table(t)
    positions = sorted(decomposition_set(tope).vertex_indices() | {2 * t - 1})
    grown = minimal.copy()
    grown[mask] |= 1 << (2 * t - 1)
    tied = ties.copy()
    tied[mask] = 2
    monkeypatch.setattr(verification, "_search_table", lambda t: (least, ties, grown, intruder))
    assert verification.sweep_oracle(t) == [
        f"{tope}: oracle set {positions} != spectral set",
        f"{tope}: oracle cardinality != squared spectrum norm",
    ]
    monkeypatch.setattr(verification, "_search_table", lambda t: (least, tied, minimal, intruder))
    assert verification.sweep_oracle(t) == [f"{tope}: minimal decomposition is not unique"]


def test_sweep_oracle_raises_the_searchs_error_for_a_broken_entry(monkeypatch):
    t, mask = 6, 0b101101
    least, ties, minimal, intruder = oracle._search_table(t)
    even = least.copy()
    even[mask] = 4
    monkeypatch.setattr(oracle, "_search_table", lambda t: (even, ties, minimal, intruder))
    monkeypatch.setattr(verification, "_search_table", oracle._search_table)
    message = f"minimal solution for {Tope.from_bitmask(mask, t)} has even size 4"
    with pytest.raises(VerificationMismatch, match=re.escape(message)):
        oracle.bruteforce_minimal_decomposition(Tope.from_bitmask(mask, t))
    # The sweep counts the search's error as one mismatch and stops.
    found = verification.sweep_oracle(t)
    assert found == [f"t={t}: VerificationMismatch: {message}"]
    assert (found.mismatches, found.cases) == (1, 0)
    oracle_row = verification.run_report(t)["oracle"]
    assert (oracle_row["status"], oracle_row["first_mismatches"]) == ("FAIL", found)


def _recorded_path_steps(monkeypatch, t):
    """(signs, inside) of every step of the _spectrum_update stack of a passing sweep."""
    real = verification._spectrum_update
    seen = []

    def recording(coords, signs, inside):
        seen.extend(zip(signs.copy(), inside.copy()))
        return real(coords, signs, inside)

    monkeypatch.setattr(verification, "_spectrum_update", recording)
    assert verification.sweep_spectrum_updates(t) == []
    return seen


@pytest.mark.parametrize("t", [3, 8, 21])
def test_sweep_spectrum_updates_draws_the_paths_path_by_path(monkeypatch, t):
    # The draws written out from the one block of bytes: per step and path
    # one 32-bit word, then per odd step and path t 16-bit keys, then one
    # bit per start-tope entry.  Even steps flip {1 + (w * t >> 32)}, odd
    # steps the coordinates whose key lies below w >> 16.
    paths, steps, cells = 20, 16, 20 * 16
    keyed = 4 * cells + 2 * (cells // 2) * t
    block = random.Random(7).randbytes(keyed + (paths * t + 7) // 8)

    def word(offset, width):
        return int.from_bytes(block[offset:offset + width], "little")

    starts = [
        [-1 if block[keyed + (p * t + e) // 8] >> ((p * t + e) % 8) & 1 else 1 for e in range(t)]
        for p in range(paths)
    ]
    flips = []
    for step in range(steps):
        rows = []
        for p in range(paths):
            w = word(4 * (step * paths + p), 4)
            if step % 2:
                keys = [word(4 * cells + 2 * (((step // 2) * paths + p) * t + e), 2)
                        for e in range(t)]
                rows.append([key < w >> 16 for key in keys])
            else:
                rows.append([e == 1 + (w * t >> 32) for e in range(1, t + 1)])
        flips.append(rows)
    seen = _recorded_path_steps(monkeypatch, t)
    assert seen[0][0].tolist() == starts
    assert [inside.tolist() for _, inside in seen] == flips


@pytest.mark.parametrize("t", [3, 8, 21])
def test_sweep_spectrum_updates_flip_sets_keep_their_sizes(monkeypatch, t):
    # Even steps flip one coordinate; odd steps flip 0 to t of them, and the
    # draws reach both ends.
    sizes = [inside.sum(axis=-1).tolist() for _, inside in _recorded_path_steps(monkeypatch, t)]
    assert all(size == [1] * 20 for size in sizes[0::2])
    odd = {size for row in sizes[1::2] for size in row}
    assert min(odd) == 0 and max(odd) == t


def test_sweep_spectrum_updates_at_the_top_cap_peaks_within_9_mib():
    # At t = 4096 the block of draws takes 1.3 MiB and the stack of 17 x 20
    # rows 1.3 MiB in each of its bool, int8 sign and spectrum forms; the
    # sweep peaks at 7.8 MiB.
    tracemalloc.start()
    try:
        assert verification.sweep_spectrum_updates(DENSE_CAP) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 << 20


@in_first_or_last_tope_block
@pytest.mark.parametrize("kernel", ["_unit_flip_sum", "_boundary_case_display"])
def test_sweep_unit_flip_spectra_names_a_wrong_display_row(monkeypatch, kernel, mask):
    A = negative_part(Tope.from_bitmask(mask, WIDE))
    real = getattr(verification, kernel)
    monkeypatch.setattr(verification, kernel, _on_row(real, A.inside, lambda out: -out))
    if kernel == "_boundary_case_display":
        assert verification.sweep_unit_flip_spectra(WIDE) == [
            f"A={A}: boundary-case display != dense spectrum"
        ]
        return
    # The complement law reads the unit-flip rows in reversed mask order, so
    # it fails at A and at its complement, which lies in the other block.
    law = "complement negation law failed"
    reports = {
        mask: [f"A={A}: unit-flip sum != dense spectrum", f"A={A}: {law}"],
        mask ^ ((1 << WIDE) - 1): [f"A={A.complement()}: {law}"],
    }
    assert verification.sweep_unit_flip_spectra(WIDE) == [
        line for m in sorted(reports) for line in reports[m]
    ]


@in_first_or_last_tope_block
def test_sweep_unit_flip_spectra_law_does_not_read_the_dense_rows(monkeypatch, mask):
    tope = Tope.from_bitmask(mask, WIDE)
    A = negative_part(tope)
    real = verification._spectrum_dense
    monkeypatch.setattr(verification, "_spectrum_dense", _on_row(real, tope.signs, lambda out: -out))
    assert verification.sweep_unit_flip_spectra(WIDE) == [
        f"A={A}: unit-flip sum != dense spectrum",
        f"A={A}: boundary-case display != dense spectrum",
    ]


def test_sweep_matrix_identities_checks_the_inverse_gram_matrix_against_the_row_product(
    monkeypatch,
):
    # A symmetric skew at the (1, 3) pair: the entries transcription still
    # agrees with the row product, the matrix does not.
    def skewed(t):
        entries = real(t).entries.copy()
        entries[0, 2] += 1
        entries[2, 0] += 1
        return ScaledIntMatrix(entries, denom=4)

    real = verification.inverse_gram_matrix
    assert verification.sweep_matrix_identities(6) == []
    monkeypatch.setattr(verification, "inverse_gram_matrix", skewed)
    assert verification.sweep_matrix_identities(6) == [
        "t=6: inverse Gram matrix != (2 M^-1)(2 M^-1)^T"
    ]


def test_sweep_matrix_identities_checks_the_inverse_gram_entries_against_the_row_product(
    monkeypatch,
):
    real = verification.inverse_gram_entry
    monkeypatch.setattr(
        verification, "inverse_gram_entry", lambda t, i, j: real(t, i, j) + ((i, j) == (2, 5))
    )
    assert verification.sweep_matrix_identities(6) == [
        "t=6: inverse_gram_entry(2,5) != row product"
    ]


def test_the_harness_counts_every_mismatch_and_names_the_first_in_order():
    # Three blocks of a 2 x 4 grid: check "x" fails on every case, "y" on
    # case (1, 1); a last block holds one failing check of a whole object.
    built = []

    def named(*key):
        built.append(key)
        return "".join(map(str, key))

    def blocks(t):
        for b in range(3):
            everywhere = np.ones((2, 4), dtype=bool)
            one = np.zeros((2, 4), dtype=bool)
            one[1, 1] = True
            yield everywhere.size, [(everywhere, lambda i, j: named(b, i, j, "x")),
                                    (one, lambda i, j: named(b, i, j, "y"))]
        yield 0, [(True, lambda: named("whole"))]

    first = verification._sweep(blocks)(0)
    assert first == ["000x", "001x", "002x", "003x", "010x"] and len(built) == 5
    assert (first.mismatches, first.cases) == (3 * 9 + 1, 3 * 8)


@pytest.mark.parametrize("kernel", [
    "_boundary_sum", "_interval_count_rule", "_size_difference", "_meet_join_from_spectra",
    "_meet_join_cards", "_unit_flip_sum", "_spectrum_dense", "_spectrum_intervals",
    "_boundary_case_display", "_negpart_size", "_spectrum_update",
])
def test_the_report_counts_what_each_sweep_lists_and_names_its_first_five(monkeypatch, kernel):
    # A kernel off by one everywhere; run_report holds what each direct
    # sweep call counts and names.
    real = getattr(verification, kernel)

    def wrong(*args):
        out = real(*args)
        if isinstance(out, tuple):
            return (out[0] + 1,) + out[1:]
        return ~out if out.dtype == bool else out + 2

    monkeypatch.setattr(verification, kernel, wrong)
    t = 5
    report = verification.run_report(t)
    for name, sweep, _ in verification._SWEEPS:
        found = sweep(t)
        assert report[name]["mismatches"] == found.mismatches, name
        assert report[name]["first_mismatches"] == found, name
        assert len(found) == min(found.mismatches, 5), name
        assert report[name]["cases"] == found.cases, name
        assert report[name]["status"] == ("FAIL" if found.mismatches else "ok"), name
    assert max(sweep["mismatches"] for sweep in report.values()) > 5


def test_a_direct_sweep_call_counts_every_mismatch_and_names_five(monkeypatch):
    # Every one of the 4^10 pairs fails; only five messages are built.
    real = verification._size_difference
    monkeypatch.setattr(verification, "_size_difference", lambda a, b: real(a, b) + 1)
    found = verification.sweep_size_difference(10)
    first = Tope.from_bitmask(0, 10)
    assert found == [f"{first}, {Tope.from_bitmask(m, 10)}: size difference mismatch"
                     for m in range(5)]
    assert found.mismatches == found.cases == 1048576


def _offset(module, name, k):
    def plant(monkeypatch):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: real(*args) + k)

    return plant


def _lose_a_tally(monkeypatch):
    # The lost tally of test_lost_tally_is_a_mismatch_with_exit_code_1: the
    # pass drops its last coordinate step.
    real = counting._pass
    monkeypatch.setattr(counting, "_pass", lambda length, width: real(length - 1, width))


def _shift_run_bounds(monkeypatch):
    # The first index array of the run bounds one row too far, in every
    # module that binds the kernel: an IndexError, not a guard's refusal.
    def planted(inside):
        rows, *rest = real(inside)
        return (rows + 1, *rest)

    real = topes._run_bounds
    monkeypatch.setattr(topes, "_run_bounds", planted)
    monkeypatch.setattr(decomposition, "_run_bounds", planted)


@pytest.mark.parametrize("plant, lines", [
    (_offset(decomposition, "_half_inverse_transform", 1),
     ["decompositions: FAIL (1 mismatches)",
      "  t=5: VerificationMismatch: sign entries must be exactly +1 or -1"]),
    (_offset(decomposition, "_vertex_sum", 2),
     ["spectrum-methods: FAIL (1 mismatches)",
      "  t=5: InvalidSpectrum: vector is not the spectrum of any tope"]),
    # The 32 negative-part sizes fail first and are the five named; the
    # meet/join kernel's refusal in the next block is the 33rd mismatch.
    (_offset(verification, "_telescope", 1),
     ["negpart-cardinalities: FAIL (33 mismatches)",
      *(f"  {Tope.from_bitmask(m, 5)}: negative-part size from spectrum != {m.bit_count()}"
        for m in range(5))]),
    (_lose_a_tally,
     ["counting: FAIL (1 mismatches)",
      "  t=5: VerificationMismatch: tally lost topes: 16 != 2^5"]),
    (_shift_run_bounds,
     ["spectrum-methods: FAIL (1 mismatches)",
      "  t=5: IndexError: index 32 is out of bounds for axis 0 with size 32"]),
], ids=["half-inverse-transform", "vertex-sum", "telescope", "lost-tally", "run-bounds"])
def test_a_kernel_guards_refusal_is_a_counted_mismatch_in_a_full_report(
    monkeypatch, capsys, plant, lines
):
    plant(monkeypatch)
    assert cli.main(["verify", "--t", "5"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    text = out.splitlines()
    assert [line.split(": ")[0] for line in text[:-1] if not line.startswith("  ")] == sorted(
        name for name, _, _ in verification._SWEEPS
    )
    assert text[-1] == "verify t=5: FAIL"
    start = text.index(lines[0])
    assert text[start:start + len(lines)] == lines


@pytest.mark.parametrize("t", [2, 0, -3])
def test_run_report_refuses_a_too_small_dimension_before_any_sweep(monkeypatch, t):
    def refuse(t):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(verification, "_SWEEPS", (("refuse", refuse, DENSE_CAP),))
    with pytest.raises(DimensionTooSmall, match=f"^dimension must be >= 3, got {t}$"):
        verification.run_report(t)


@pytest.mark.parametrize("t", [2, 0, -3])
def test_a_direct_sweep_below_the_smallest_dimension_keeps_the_harness_rule(t):
    # Only run_report checks t first; a direct call counts the error.
    found = verification.sweep_decompositions(t)
    assert found.mismatches == 1 and found[0].startswith(f"t={t}: ")


@pytest.mark.parametrize("error", [
    CapExceeded("a cap"), MemoryError(), RuntimeError("a fault"),
])
def test_a_sweep_propagates_only_the_two_resource_refusals(monkeypatch, error):
    def fail(t):
        raise error

    monkeypatch.setattr(verification, "enumerate_statistics", fail)
    if isinstance(error, RuntimeError):
        found = verification.sweep_counting(5)
        assert (found, found.mismatches) == (["t=5: RuntimeError: a fault"], 1)
    else:
        with pytest.raises(type(error)):
            verification.sweep_counting(5)


# The cases each sweep compares at dimension t: the 2^t topes or subsets,
# or else the objects or pairs named here (for equinumerosity the (T, A)
# pairs, the tope pairs and the pairs of nonempty subsets).
_CASES = {
    "cycle-structure": lambda t: 2 * t,
    "matrix-identities": lambda t: t * t,
    "spectrum-updates": lambda t: 20 * 16,
    "equinumerosity": lambda t: 2 * 4**t + (2**t - 1) ** 2,
    "size-difference": lambda t: 4**t,
    "negpart-cardinalities": lambda t: 2**t + 4**t,
}


@pytest.mark.parametrize("t", range(3, 12))
def test_the_counted_cases_are_the_rows_or_pairs_each_sweep_compares(t):
    report = verification.run_report(t)
    assert {name: sweep["cases"] for name, sweep in report.items()} == {
        name: _CASES.get(name, lambda t: 1 << t)(t) if t <= cap else 0
        for name, _, cap in verification._SWEEPS
    }


@pytest.fixture
def cleared_caches():
    """The oracle's tables and the mask-row memo, cleared before and after."""
    for cached in (oracle._search_table, verification._mask_rows):
        cached.cache_clear()
    yield
    for cached in (oracle._search_table, verification._mask_rows):
        cached.cache_clear()


@pytest.mark.parametrize("t", range(4, 17))
def test_a_report_builds_the_mask_rows_once_and_shares_them_read_only(cleared_caches, t):
    verification.run_report(t)
    assert verification._mask_rows.cache_info().misses == 1
    for arr in verification._mask_rows(t):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


def _walk(t, flips):
    """The 2t vertices of the closed walk from all-plus flipping coordinate flips[k] at step k."""
    steps = np.zeros((2 * t, t), dtype=bool)
    steps[np.arange(1, 2 * t), np.asarray(flips[:-1]) - 1] = True
    return np.where(np.logical_xor.accumulate(steps), np.int8(-1), np.int8(1))


def _cycle_plant(t, law):
    """The vertex rows of a walk that breaks the law, and the messages the sweep gives."""
    n = 2 * t
    run = list(range(1, t + 1))
    if law == "adjacency":
        # Vertex 0 and its antipode moved off the cycle: the start and the
        # four adjacencies through them break, nothing else.
        rows = _walk(t, run + run)
        rows[0, 1] = -1
        rows[t] = -rows[0]
        return rows, [f"t={t}: cycle does not start at the all-plus tope",
                      f"t={t}: vertices 0 and 1 are not adjacent",
                      f"t={t}: vertices {t - 1} and {t} are not adjacent",
                      f"t={t}: vertices {t} and {t + 1} are not adjacent",
                      f"t={t}: vertices {n - 1} and 0 are not adjacent"]
    if law == "antipode":
        # The first half kept, the second a detour back: flip 2, t, 1, 3, ..., t.
        rows = _walk(t, run[:-1] + [2, t, 1] + run[2:])
        return rows, [f"t={t}: vertex {t} is not the antipode of vertex 0",
                      f"t={t}: vertex {t + 1} is not the antipode of vertex 1"]
    if law == "prefix":
        # A symmetric walk whose first step flips coordinate 2.
        half = [2, 1] + run[2:]
        return _walk(t, half + half), [f"t={t}: vertex 1 does not flip the first 1 coordinates"]
    # distinct: the last vertex repeats the one before it, which the laws
    # around it also see.
    rows = _walk(t, run + run)
    rows[n - 1] = rows[n - 2]
    return rows, [f"t={t}: vertex {n - 1} is not the antipode of vertex {t - 1}",
                  f"t={t}: vertices {n - 2} and {n - 1} are not adjacent",
                  f"t={t}: vertices {n - 1} and 0 are not adjacent",
                  f"t={t}: cycle vertices are not distinct ({n - 1} of {n})"]


@pytest.mark.parametrize("t", [5, 64, 256])
@pytest.mark.parametrize("law", ["adjacency", "antipode", "prefix", "distinct"])
def test_sweep_cycle_structure_names_each_broken_law(monkeypatch, t, law):
    # At t = 256 the k < t rows span two blocks; the names still come in
    # the order of k over all 2t vertices.
    rows, want = _cycle_plant(t, law)
    assert verification.sweep_cycle_structure(t) == []
    monkeypatch.setattr(cycle, "cycle_vertex", lambda t, k: rows[k].copy())
    found = verification.sweep_cycle_structure(t)
    assert found == want
    assert (found.mismatches, found.cases) == (len(want), 2 * t)


# Every module of the package but __main__, whose import runs the CLI.
_PACKAGE_MODULES = tuple(
    importlib.import_module(f"cyclotope.{info.name}")
    for info in pkgutil.iter_modules(cyclotope.__path__) if info.name != "__main__"
)


def test_each_function_and_class_name_has_one_home():
    # _binding_modules finds a kernel by its name in every module, so a
    # name that two modules define would plant the wrong one.
    homes = {}
    for module in _PACKAGE_MODULES:
        for name, obj in vars(module).items():
            if ((inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__):
                homes.setdefault(name, []).append(module.__name__)
    assert {name: found for name, found in homes.items() if len(found) > 1} == {}


def _binding_modules(module, name):
    """The function name that module defines, and every module of the
    package that binds that same function under the name."""
    real = getattr(module, name)
    assert real.__module__ == module.__name__, f"{module.__name__} does not define {name}"
    return real, [m for m in _PACKAGE_MODULES if getattr(m, name, None) is real]


def _off_by_one(real):
    """real with 1 added to its result, or to the first element of a tuple."""
    def planted(*args):
        result = real(*args)
        if isinstance(result, tuple):
            return (result[0] + 1, *result[1:])
        return result + 1
    return planted


@pytest.mark.parametrize("kernels, failing", [
    ([(decomposition, "_half_inverse_transform")],
     {"decompositions", "negpart-cardinalities", "oracle", "size-difference", "spectrum-methods",
      "spectrum-updates"}),
    ([(decomposition, "_telescope")],
     {"decompositions", "negpart-cardinalities", "oracle", "spectrum-methods"}),
    ([(decomposition, "_vertex_sum")],
     {"decompositions", "negpart-cardinalities", "spectrum-methods"}),
    ([(cycle, "_matrix_entries")], {"decompositions", "matrix-identities"}),
    ([(cycle, "_inverse_entries")], {"flip-spectra", "matrix-identities", "spectrum-methods"}),
    ([(decomposition, "_spectrum_dense")], {"flip-spectra", "spectrum-methods"}),
    ([(decomposition, "_spectrum_intervals"), (decomposition, "_tope_signs")],
     {"spectrum-methods"}),
    ([(decomposition, "_spectrum_update")], {"spectrum-updates"}),
    ([(decomposition, "_unit_flip_sum"), (decomposition, "_boundary_case_display")],
     {"flip-spectra"}),
    ([(decomposition, "_size_difference")], {"size-difference"}),
    ([(decomposition, "_negpart_size"), (decomposition, "_meet_join_from_spectra"),
      (topes, "_meet_join_cards")],
     {"negpart-cardinalities"}),
    ([(equinumerosity, "_boundary_sum"), (equinumerosity, "_interval_count_rule")],
     {"equinumerosity"}),
    ([(cycle, "cycle_vertex")], {"cycle-structure", "oracle"}),
    ([(counting, "composition_count"), (counting, "_binom0")], {"boundary-classes", "counting"}),
    ([(counting, "count_by_negpart_and_size"), (counting, "count_topes_by_size"),
      (counting, "count_cycle_topes_by_negpart")],
     {"counting"}),
    ([(counting, "count_by_boundary_class"), (counting, "count_subsets_by_boundary")],
     {"boundary-classes"}),
    ([(cycle, "gram_entry"), (cycle, "inverse_gram_entry")], {"matrix-identities"}),
], ids=["half-inverse", "telescope", "vertex-sum", "matrix-entries", "inverse-entries",
        "spectrum-dense", "intervals-signs", "spectrum-update", "flip-sums", "size-difference",
        "negpart-meet-join", "boundary-sum-rule",
        "cycle", "compositions", "cell-counts", "boundary-counts", "gram"])
def test_a_kernel_planted_off_by_one_fails_exactly_the_sweeps_that_check_it(
    monkeypatch, capsys, cleared_caches, kernels, failing
):
    # The oracle's table is built from cycle_vertex, so it is cleared before
    # each plant, and once more by the fixture after the last.
    names = sorted(name for name, _, _ in verification._SWEEPS)
    for home, kernel in kernels:
        oracle._search_table.cache_clear()
        verification._mask_rows.cache_clear()
        with monkeypatch.context() as patch:
            real, modules = _binding_modules(home, kernel)
            for module in modules:
                patch.setattr(module, kernel, _off_by_one(real))
            report = verification.run_report(5)
            assert {name for name in names if report[name]["status"] == "FAIL"} == failing, kernel
            assert cli.main(["verify", "--t", "5"]) == 1
            text = capsys.readouterr().out.splitlines()
            assert [line.split(": ")[0] for line in text[:-1]
                    if not line.startswith("  ")] == names, kernel
            assert text[-1] == "verify t=5: FAIL"


# Mask 0b00100 holds coordinate 3 of t = 5 only: one run, neither end.
_PLANTED_MASK = 0b00100


@pytest.mark.parametrize("reference, failing", [
    (3, {"boundary-classes", "decompositions", "equinumerosity", "size-difference"}),
    (4, {"boundary-classes", "negpart-cardinalities"}),
    (5, {"boundary-classes", "equinumerosity", "spectrum-methods"}),
    (6, {"boundary-classes", "equinumerosity", "spectrum-methods"}),
], ids=["sizes", "negatives", "runs", "overlap"])
def test_a_mask_reference_planted_off_by_one_fails_exactly_the_sweeps_that_read_it(
    monkeypatch, capsys, reference, failing
):
    rows = list(verification._mask_rows(5))
    rows[reference] = rows[reference].copy()
    rows[reference][_PLANTED_MASK] += 1
    monkeypatch.setattr(verification, "_mask_rows", lambda t: tuple(rows))
    report = verification.run_report(5)
    assert {name for name, sweep in report.items() if sweep["status"] == "FAIL"} == failing
    assert cli.main(["verify", "--t", "5"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "verify t=5: FAIL"
