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

import random
import re

import numpy as np
import pytest

from cyclotope import (
    CyclotopeError,
    GroundSubset,
    ScaledIntMatrix,
    Spectrum,
    Tope,
    count_by_boundary_class,
    decomposition_set,
    negative_part,
    reorient,
    spectrum_fast,
)
from cyclotope import decomposition, oracle, verification

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
    # Two more terms on one tope move it from cell (j, l) to (j, l + 2) of
    # its boundary class: both class totals and both cells are reported.
    t, tope = WIDE, Tope.from_bitmask(mask, WIDE)
    l, j = _size(tope), mask.bit_count()
    cls = {(1, 0): "left-only", (0, 1): "right-only", (1, 1): "both-ends", (0, 0): "neither"}[
        (mask & 1, mask >> (t - 1) & 1)
    ]

    def grown(coords):
        out = coords.copy()
        out[:, np.flatnonzero(coords[0] == 0)[:2]] = 1
        return out

    real = verification._telescope
    monkeypatch.setattr(verification, "_telescope", _on_row(real, tope.signs, grown))
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
    with pytest.raises(CyclotopeError, match=re.escape(message)):
        verification.sweep_oracle(t)


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
    # The draws written out from the one block of bytes: per step and path t
    # 64-bit sort keys, then per step and path the 32-bit words for k and
    # the size, then one bit per start-tope entry.  Even steps flip {k},
    # odd steps the size coordinates of least key (ties by coordinate).
    paths, steps, cells = 20, 16, 20 * 16
    block = random.Random(7).randbytes(8 * cells * t + 8 * cells + (paths * t + 7) // 8)

    def word(offset, width):
        return int.from_bytes(block[offset:offset + width], "little")

    bits = 8 * cells * (t + 1)
    starts = [
        [-1 if block[bits + (p * t + e) // 8] >> ((p * t + e) % 8) & 1 else 1 for e in range(t)]
        for p in range(paths)
    ]
    top = min(t, max(2, t // 4) + 1)
    flips = []
    for step in range(steps):
        rows = []
        for p in range(paths):
            cell = step * paths + p
            k = 1 + (word(8 * cells * t + 8 * cell, 4) * t >> 32)
            size = 1 + (word(8 * cells * t + 8 * cell + 4, 4) * top >> 32)
            keys = [word(8 * (cell * t + e), 8) for e in range(t)]
            sample = sorted(range(t), key=lambda e: (keys[e], e))[:size]
            members = [e + 1 for e in sample] if step % 2 else [k]
            rows.append([e in members for e in range(1, t + 1)])
        flips.append(rows)
    seen = _recorded_path_steps(monkeypatch, t)
    assert seen[0][0].tolist() == starts
    assert [inside.tolist() for _, inside in seen] == flips


@pytest.mark.parametrize("t", [3, 8, 21])
def test_sweep_spectrum_updates_flip_sets_keep_their_sizes(monkeypatch, t):
    # Even steps flip one coordinate; odd steps flip 1 to
    # min(t, max(2, t // 4) + 1) of them, and the draws reach both ends.
    top = min(t, max(2, t // 4) + 1)
    sizes = [inside.sum(axis=-1).tolist() for _, inside in _recorded_path_steps(monkeypatch, t)]
    assert all(size == [1] * 20 for size in sizes[0::2])
    odd = {size for row in sizes[1::2] for size in row}
    assert min(odd) == 1 and max(odd) == top


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

    sweep = verification._sweep(blocks)
    first = sweep(0, first=5)
    assert first == ["000x", "001x", "002x", "003x", "010x"] and len(built) == 5
    assert (first.mismatches, first.cases) == (3 * 9 + 1, 3 * 8)
    listed = sweep(0)
    block = [f"{i}{j}x" for i, j in np.ndindex(2, 4)]
    block.insert(block.index("11x") + 1, "11y")
    assert listed == [f"{b}{case}" for b in range(3) for case in block] + ["whole"]
    assert (listed.mismatches, listed.cases) == (len(listed), 3 * 8)


@pytest.mark.parametrize("kernel", [
    "_boundary_sum", "_interval_count_rule", "_size_difference", "_meet_join_from_spectra",
    "_meet_join_cards", "_unit_flip_sum", "_spectrum_dense", "_spectrum_intervals",
    "_boundary_case_display", "_negpart_size", "_spectrum_update",
])
def test_the_report_counts_what_each_sweep_lists_and_names_its_first_five(monkeypatch, kernel):
    # A kernel off by one everywhere; run_report counts each sweep's
    # mismatches and names five, the sweep itself lists every one.
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
        listed = sweep(t)
        assert report[name]["mismatches"] == listed.mismatches == len(listed), name
        assert report[name]["first_mismatches"] == listed[:5], name
        assert report[name]["status"] == ("FAIL" if listed else "ok"), name
    assert max(sweep["mismatches"] for sweep in report.values()) > 5


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
