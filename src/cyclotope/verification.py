"""Independent cross-checks of the production formulas, as exhaustive sweeps.

The library evaluates each quantity through one formula.  The sweeps here
compare it against references that never run on the production path: full
enumeration, the other printed closed forms, the dense matrix route, direct
set arithmetic and the brute-force oracle.  Each sweep returns a list of
human-readable mismatch strings; an empty list means the sweep passed.  The
CLI `verify` subcommand runs every sweep; the acceptance tests reuse the
pairwise ones.

Each formula is one private kernel along the last axis of its arrays, and
the public scalar function calls it on one vector; the sweeps call the
kernels on stacks of rows.  They build the 2^t sign and membership rows
once from the masks 0..2^t-1 and compare the kernels' results with plain
mask arithmetic: sizes from popcounts of adjacent sign changes, meets and
joins from popcounts of m1 & m2 and m1 | m2, interval counts from popcounts
of run starts, vertex sums as x @ M.  Every stack is coordinate-major: each
coordinate's entries lie contiguous across the rows (a Fortran-ordered
(2^t, t) array), and the kernels built from ufuncs and reductions keep
that layout, so each runs one long loop per coordinate instead of one
loop of length t per row.  The per-tope sweeps run on row blocks of the
tope rows, flip-spectra on row blocks of the subset rows, equinumerosity
and size-difference on row blocks of the 4^t pair grid by broadcasting,
negpart-cardinalities on square tiles of it, and spectrum-updates on one
(step, path) stack of its random paths, all drawn from one block of random
bytes.  A Tope or GroundSubset is built only to name a failing row, from a
copy of it.  The unit-flip and boundary-case displays are two kernels of
their own, each checked against the dense route rather than against the
other.  run_report caps every sweep of _SWEEPS, the oracle at ORACLE_CAP,
at a dimension that keeps `verify` at desk scale and reports a capped
sweep as skipped; above every cap it raises CapExceeded.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

from .counting import (
    ENUMERATION_CAP,
    _CLASSES,
    _binom0,
    composition_count,
    count_by_boundary_class,
    count_by_negpart_and_size,
    count_cycle_topes_by_negpart,
    count_subsets_by_boundary,
    count_topes_by_size,
    enumerate_statistics,
    formula_table,
)
from .cycle import (
    DENSE_CAP,
    build_cycle,
    gram_entry,
    inverse_gram_entry,
    inverse_gram_matrix,
    inverse_rows,
    tope_matrix,
)
from . import decomposition, topes
from .decomposition import (
    Spectrum,
    _boundary_case_display,
    _meet_join_from_spectra,
    _negpart_size,
    _size_difference,
    _spectrum_dense,
    _spectrum_intervals,
    _spectrum_update,
    _telescope,
    _tope_signs,
    _unit_flip_sum,
)
from .equinumerosity import _boundary_sum, _interval_count_rule
from .errors import CapExceeded
from .oracle import ORACLE_CAP, _search_table, bruteforce_minimal_decomposition
from .topes import GroundSubset, Tope, _meet_join_cards, _row_blocks, reorient, separation_set


def _mask_rows(t):
    """(masks, signs, members, sizes) for every t-bit mask, in mask order.

    Bit e-1 of a mask set means entry e of the tope is -1 and coordinate e
    belongs to the subset; signs and members are the (2^t, t) int8 and bool
    rows, coordinate-major: Fortran-ordered, each coordinate's entries
    contiguous across the rows.  The size of the minimal decomposition is
    read off the mask: the adjacent sign changes plus one when T(1) = T(t).
    """
    masks = np.arange(1 << t, dtype=np.int64)
    members = ((masks >> np.arange(t)[:, None]) & 1 == 1).T
    signs = 1 - 2 * members.view(np.int8)
    changes = np.bitwise_count((masks ^ (masks >> 1)) & ((1 << (t - 1)) - 1))
    sizes = changes.astype(np.int64) + ((masks ^ (masks >> (t - 1))) & 1 == 0)
    return masks, signs, members, sizes


def _report(bad, rows, checks, cls=Tope):
    """Append the messages of the failing checks, row by row, in check order.

    checks holds (failed, message) pairs: failed is a bool vector over the
    rows, sign rows of topes or, with cls GroundSubset, membership rows of
    subsets, and message(T, i) the text for the object T of row i.
    """
    failing = np.logical_or.reduce([failed for failed, _ in checks])
    for i in np.flatnonzero(failing):
        T = cls._wrap(rows[i].copy())
        bad += [message(T, i) for failed, message in checks if failed[i]]


def sweep_cycle_structure(t: int) -> list:
    """Cycle construction: adjacency, distinctness, antipodality."""
    bad = []
    cycle = build_cycle(t)
    n = 2 * t
    if len(cycle) != n:
        bad.append(f"t={t}: cycle has {len(cycle)} vertices, expected {n}")
    vertices = cycle.vertices
    if vertices[0] != Tope.positive(t):
        bad.append(f"t={t}: cycle does not start at the all-plus tope")
    seen = set()
    for k, v in enumerate(vertices):
        seen.add(str(v))
        if len(separation_set(v, vertices[(k + 1) % n])) != 1:
            bad.append(f"t={t}: vertices {k} and {(k + 1) % n} are not adjacent")
        if k < t and vertices[k + t] != -v:
            bad.append(f"t={t}: vertex {k + t} is not the antipode of vertex {k}")
        if 1 <= k < t:
            expected = reorient(Tope.positive(t), GroundSubset(t, range(1, k + 1)))
            if v != expected:
                bad.append(f"t={t}: vertex {k} does not flip the first {k} coordinates")
    if len(seen) != n:
        bad.append(f"t={t}: cycle vertices are not distinct ({len(seen)} of {n})")
    return bad


def sweep_matrix_identities(t: int) -> list:
    """Exact matrix identities; inverse Gram values against the inverse rows' product."""
    bad = []
    m = tope_matrix(t)
    inv = inverse_rows(t)
    ident = 2 * np.eye(t, dtype=np.int64)
    if not np.array_equal(m.entries @ inv.entries, ident):
        bad.append(f"t={t}: M * (2 M^-1) != 2I")
    if not np.array_equal(inv.entries @ m.entries, ident):
        bad.append(f"t={t}: (2 M^-1) * M != 2I")
    gram_direct = m.entries @ m.entries.T
    product = inv.entries @ inv.entries.T
    ig = inverse_gram_matrix(t)
    if ig.denom != 4:
        bad.append(f"t={t}: inverse Gram denominator is {ig.denom}")
    if not np.array_equal(ig.entries, ig.entries.T):
        bad.append(f"t={t}: inverse Gram matrix is not symmetric")
    if not np.array_equal(ig.entries, product):
        bad.append(f"t={t}: inverse Gram matrix != (2 M^-1)(2 M^-1)^T")
    for i in range(1, t + 1):
        for j in range(1, t + 1):
            if gram_entry(t, i, j) != int(gram_direct[i - 1, j - 1]):
                bad.append(f"t={t}: gram_entry({i},{j}) != direct inner product")
            if inverse_gram_entry(t, i, j) != int(product[i - 1, j - 1]):
                bad.append(f"t={t}: inverse_gram_entry({i},{j}) != row product")
    return bad


def sweep_spectrum_methods(t: int) -> list:
    """All 2^t topes: route agreement plus every per-tope spectrum law.

    The dense, telescoping and interval kernels run on row blocks of the
    sign rows.  Where the three agree, the laws are checked on the
    telescoping rows, which share the sign rows' layout, against the tope
    rows, x @ M, the prefix-sum map and, for the interval law, popcounts of
    the run starts of the masks.
    """
    bad = []
    masks, signs, members, _ = _mask_rows(t)
    m_entries = tope_matrix(t).entries
    rho = np.bitwise_count(masks & ~(masks << 1)).astype(np.int64)
    boundary = (masks & 1) + (masks >> (t - 1) & 1)
    interval_law = np.where(boundary > 0, 2 * rho - 1, 2 * rho + 1)
    for rows in _row_blocks(masks.shape[0], t):
        s = signs[rows]
        dense = _spectrum_dense(s)
        fast = _telescope(s)
        ivls = _spectrum_intervals(members[rows])
        agree = (dense == fast).all(axis=-1) & (dense == ivls).all(axis=-1)
        x = fast
        support = np.count_nonzero(x, axis=-1)
        total = x.sum(axis=-1, dtype=np.int64)
        back = x.astype(np.int64) @ m_entries
        prefix = np.zeros(agree.shape, dtype=bool)
        prefix[agree] = (_tope_signs(x[agree]) != s[agree]).any(axis=-1)
        law = interval_law[rows]
        empty = masks[rows] == 0
        _report(bad, s, [
            (~agree, lambda T, i: f"{T}: routes disagree: {Spectrum._wrap(dense[i])} / "
                                  f"{Spectrum._wrap(fast[i])} / {Spectrum._wrap(ivls[i])}"),
            (agree & (support % 2 != 1), lambda T, i: f"{T}: even support {support[i]}"),
            (agree & (total != s[:, -1]),
             lambda T, i: f"{T}: coordinate sum {total[i]} != last entry {s[i, -1]}"),
            (agree & ((x != 0) & (x != s)).any(axis=-1),
             lambda T, i: f"{T}: a nonzero coordinate disagrees with the tope entry"),
            (agree & (back != s).any(axis=-1),
             lambda T, i: f"{T}: x * M does not reconstruct the tope"),
            (agree & (np.vecdot(back, back) != t),
             lambda T, i: f"{T}: reconstructed vector has squared norm != t"),
            (agree & prefix, lambda T, i: f"{T}: prefix-sum reconstruction failed"),
            (agree & (_telescope(-s) != -x).any(axis=-1),
             lambda T, i: f"{T}: antipodal law failed"),
            (agree & ~empty & (support != law),
             lambda T, i: f"{T}: size {support[i]} != interval law {law[i]}"),
            (agree & empty & (support != 1),
             lambda T, i: f"{T}: all-plus tope must have size 1"),
        ])
    return bad


def sweep_decompositions(t: int) -> list:
    """All 2^t topes: term structure and entrywise vertex-sum reconstruction.

    On row blocks, the terms (the telescoping rows that decomposition_set
    wraps) are summed as signed cycle-vertex rows, x @ M, and compared with
    the tope and with the prefix-sum map behind Decomposition.vertex_sum;
    the size is compared with the popcount size of the tope's mask.
    """
    bad = []
    masks, signs, _, sizes = _mask_rows(t)
    m_entries = tope_matrix(t).entries
    for rows in _row_blocks(masks.shape[0], t):
        s = signs[rows]
        coords = _telescope(s)
        size = np.count_nonzero(coords, axis=-1)
        summed = coords.astype(np.int64) @ m_entries
        # Read through the module, as Decomposition.vertex_sum reads it.
        prefix = decomposition._vertex_sum(coords)
        want = sizes[rows]
        _report(bad, s, [
            (size % 2 != 1, lambda T, i: f"{T}: even term count {size[i]}"),
            ((summed != s).any(axis=-1),
             lambda T, i: f"{T}: signed vertex sum does not reproduce the tope"),
            ((prefix != summed).any(axis=-1),
             lambda T, i: f"{T}: prefix-sum vertex sum != sum of the cycle-vertex rows"),
            (size != want,
             lambda T, i: f"{T}: term count differs from the sign-change size {want[i]}"),
        ])
    return bad


# spectrum-updates runs _PATHS random paths of _STEPS reorientations each,
# drawn from the bytes of random.Random(_SEED).
_PATHS, _STEPS, _SEED = 20, 16, 7


def sweep_spectrum_updates(t: int) -> list:
    """Random reorientation paths: incremental updates match recomputation.

    The start topes and flip sets are drawn by _path_draws.  A running xor
    of the flips gives the signs around every step, and one update call runs
    all steps from the recomputed spectra; up to each path's first diverging
    step, which is reported, chained updates would give those same spectra.
    """
    signs, flips = _path_draws(t)
    flipped = np.zeros((_STEPS + 1, _PATHS, t), dtype=bool, order="F")
    np.logical_xor.accumulate(flips, axis=0, out=flipped[1:])
    walk = np.where(flipped, -signs, signs)  # reorient
    x = _telescope(walk)
    diverged = (_spectrum_update(x[:-1], walk[:-1], flips) != x[1:]).any(axis=-1)
    first = np.where(diverged.any(axis=0), np.argmax(diverged, axis=0), -1)
    return [
        f"path {p} step {step}: update diverged from recomputation"
        for p, step in enumerate(first.tolist())
        if step >= 0
    ]


def _path_draws(t):
    """(start signs, flip sets) of the random paths, read off one block of bytes.

    random.Random(_SEED).randbytes gives the block, read little-endian as
    - _STEPS x _PATHS x t 64-bit sort keys, one per coordinate of each step
      of each path;
    - _STEPS x _PATHS pairs of 32-bit words (w_k, w_size);
    - _PATHS x t bits, lowest bit of each byte first: bit p * t + e set makes
      entry e + 1 of the start tope of path p negative.
    A word w picks one of m values as (w * m) >> 32, biased by less than
    m / 2^32: k = 1 + (w_k * t >> 32) and the size is 1 + (w_size * m >> 32)
    with m = min(t, max(2, t // 4) + 1).  Even steps flip {k}; odd steps
    flip the size coordinates of least sort key, a uniform sample.  The
    signs are (_PATHS, t) int8 and the flip sets a (_STEPS, _PATHS, t) bool
    stack, both coordinate-major.
    """
    cells = _STEPS * _PATHS
    block = random.Random(_SEED).randbytes(8 * cells * (t + 1) + (_PATHS * t + 7) // 8)
    keys = np.frombuffer(block, "<u8", cells * t).reshape(_STEPS, _PATHS, t)
    words = np.frombuffer(block, "<u4", 2 * cells, 8 * cells * t).reshape(_STEPS, _PATHS, 2)
    bits = np.frombuffer(block, np.uint8, offset=8 * cells * (t + 1))
    negative = np.unpackbits(bits, count=_PATHS * t, bitorder="little").reshape(_PATHS, t)
    signs = np.asfortranarray(np.where(negative == 1, -1, 1), dtype=np.int8)
    top = min(t, max(2, t // 4) + 1)
    picks = (words.astype(np.uint64) * np.array([t, top], dtype=np.uint64)) >> 32
    k, size = picks.astype(np.int64).transpose(2, 0, 1) + 1
    coords = np.arange(1, t + 1)
    flips = np.empty((_STEPS, _PATHS, t), dtype=bool, order="F")
    flips[0::2] = coords == k[0::2, :, None]
    ranked = np.argsort(keys[1::2], axis=-1, kind="stable")
    np.put_along_axis(flips[1::2], ranked, np.arange(t) < size[1::2, :, None], axis=-1)
    return signs, flips


def _closed_form_values(t: int, j: int, l: int) -> tuple:
    """All printed closed forms for the (j, l) count, in display order.

    Only the cross-checks call this: sweep_counting and the tests.  Every
    form vanishes outside the j-window.
    """
    h = (l - 1) // 2
    p = (l + 1) // 2
    c = composition_count
    by_compositions = 2 * c(p, j) * c(p, t - j) + c(p, j) * c(h, t - j) + c(h, j) * c(p, t - j)
    by_binomials = _binom0(j - 1, h) * _binom0(t - j, h) + _binom0(t - j - 1, h) * _binom0(j, h)
    by_shifted = c(p, j) * c(p, t - j + 1) + c(p, t - j) * c(p, j + 1)
    mirrored = 2 * c(p, t - j) * c(p, j) + c(p, t - j) * c(h, j) + c(h, t - j) * c(p, j)
    return by_compositions, by_binomials, by_shifted, mirrored


def sweep_counting(t: int) -> list:
    """Enumerated (j, l) statistics against every closed form.

    Each cell is compared with the production table formula_table, with the
    scalar count count_by_negpart_and_size and with each of the four printed
    forms from _closed_form_values.
    """
    bad = []
    table = enumerate_statistics(t)
    if table.total() != 1 << t:
        bad.append(f"t={t}: table total {table.total()} != 2^{t}")
    built = formula_table(t)
    if built.rows != table.rows:
        mine = {(j, l): c for j, l, c in built}
        tally = {(j, l): c for j, l, c in table}
        bad += [
            f"t={t}, j={j}, l={l}: formula table {mine.get((j, l), 0)} "
            f"!= enumerated {tally.get((j, l), 0)}"
            for l, j in sorted((l, j) for j, l in mine.keys() | tally.keys())
            if mine.get((j, l), 0) != tally.get((j, l), 0)
        ] or [f"t={t}: formula table rows are not the enumerated rows in (l, j) order"]
    for l in range(1, t + 1, 2):
        col = sum(c for j_, l_, c in table if l_ == l)
        if col != count_topes_by_size(t, l):
            bad.append(f"t={t}, l={l}: column sum {col} != 2*C(t,l)")
    for j in range(t + 1):
        if table.count(j, 1) != count_cycle_topes_by_negpart(t, j):
            bad.append(f"t={t}, j={j}: l=1 count mismatch")
    for l in range(3, t + 1, 2):
        for j in range(t + 1):
            got = table.count(j, l)
            want = count_by_negpart_and_size(t, j, l)
            if got != want:
                bad.append(f"t={t}, j={j}, l={l}: enumerated {got} != formula {want}")
            values = _closed_form_values(t, j, l)
            if any(v != got for v in values):
                bad.append(f"t={t}, j={j}, l={l}: closed forms {values} != enumerated {got}")
        if l == 3:
            for j in range(1, t):
                if table.count(j, 3) != 2 * j * (t - j) - t:
                    bad.append(f"t={t}, j={j}: l=3 count != 2j(t-j)-t")
    return bad


def sweep_boundary_classes(t: int) -> list:
    """Counts refined by boundary class and j, against direct enumeration.

    Every tope with a nonempty negative part is tallied by its boundary
    class, j and decomposition size l (from the telescoping kernel on row
    blocks), and its negative part by boundary overlap and interval count;
    j, the class and the run starts are read off the masks.
    """
    bad = []
    masks, signs, _, _ = _mask_rows(t)
    sizes = np.concatenate([
        np.count_nonzero(_telescope(signs[rows]), axis=-1)
        for rows in _row_blocks(masks.shape[0], t)
    ])
    left, right = masks & 1, masks >> (t - 1) & 1
    # The index into _CLASSES: 2 * [t in A] when 1 is in A, else 3 - 2 * [t in A].
    case = np.where(left == 1, 2 * right, 3 - 2 * right)
    negatives = np.bitwise_count(masks).astype(np.int64)
    runs = np.bitwise_count(masks & ~(masks << 1)).astype(np.int64)
    # Mask 0, the empty negative part, is left out of both tallies.
    w = t + 1
    tallies = np.bincount(((case * w + negatives) * w + sizes)[1:], minlength=4 * w * w)
    tallies = tallies.reshape(4, w, w)
    subset_tallies = np.bincount(((left + right) * w + runs)[1:], minlength=3 * w).reshape(3, w)
    for l in range(3, t + 1, 2):
        for c, cls in enumerate(_CLASSES):
            total = int(tallies[c, :, l].sum())
            if total != count_by_boundary_class(t, l, cls):
                bad.append(f"t={t}, l={l}, {cls}: total {total} != closed form")
            for j in range(t + 1):
                got = int(tallies[c, j, l])
                want = count_by_boundary_class(t, l, cls, j)
                if got != want:
                    bad.append(f"t={t}, l={l}, j={j}, {cls}: {got} != {want}")
    for rho in range(1, t + 1):
        for boundary in (0, 1, 2):
            got = int(subset_tallies[boundary, rho])
            want = count_subsets_by_boundary(t, rho, boundary)
            if got != want:
                bad.append(f"t={t}, rho={rho}, boundary={boundary}: {got} != {want}")
    return bad


def sweep_equinumerosity(t: int) -> list:
    """Criterion, indicator and interval rule against popcount sizes, all pairs.

    The criterion runs on every subset A, the full set included: there it
    reads 0 = 0, and T and its antipode have equal sizes.
    """
    bad = []
    masks, signs, members, sizes = _mask_rows(t)
    n = masks.shape[0]
    for rows in _row_blocks(n, n * t):
        lhs, rhs = _boundary_sum(signs[rows, None], members[None])
        equal = lhs == rhs
        direct = sizes[rows, None] == sizes[masks[rows, None] ^ masks]
        for i, a in np.argwhere(equal != direct):
            T, A = Tope._wrap(signs[rows.start + i].copy()), GroundSubset._wrap(members[a].copy())
            bad.append(f"{T}, A={A}: criterion {equal[i, a]} != direct {direct[i, a]}")
    for rows in _row_blocks(n, n * t):
        lhs, rhs = _boundary_sum(signs[rows, None], signs[rows, None] != signs[None])
        ind = rhs - lhs
        wrong = (ind == 0) != (sizes[rows, None] == sizes)
        differs = ind != _size_difference(signs[rows, None], signs[None])
        for i, j in np.argwhere(wrong | differs):
            a = rows.start + i
            T1, T2 = Tope._wrap(signs[a].copy()), Tope._wrap(signs[j].copy())
            if wrong[i, j]:
                bad.append(f"{T1}, {T2}: indicator {ind[i, j]} vs sizes {sizes[a]}, {sizes[j]}")
            if differs[i, j]:
                bad.append(f"{T1}, {T2}: indicator != size difference")
    # Nonempty A and B, as reorientations of all-plus: mask m's tope.  The
    # interval count is the number of run starts, set bits whose lower
    # neighbour is clear.
    nonempty = masks[1:]
    rho = np.bitwise_count(nonempty & ~(nonempty << 1)).astype(np.int64)
    touch = nonempty & (1 | 1 << (t - 1)) != 0
    for rows in _row_blocks(n - 1, (n - 1) * t):
        same = _interval_count_rule(rho[rows, None], touch[rows, None], rho, touch)
        for i, j in np.argwhere(same != (sizes[1:][rows, None] == sizes[1:])):
            A = GroundSubset._wrap(members[rows.start + i + 1].copy())
            B = GroundSubset._wrap(members[j + 1].copy())
            bad.append(f"A={A}, B={B}: interval rule != direct comparison")
    return bad


def sweep_size_difference(t: int) -> list:
    """Inner-product size difference against popcount sizes, all pairs."""
    bad = []
    masks, signs, _, sizes = _mask_rows(t)
    n = masks.shape[0]
    for rows in _row_blocks(n, n * t):
        diff = _size_difference(signs[rows, None], signs[None])
        for i, j in np.argwhere(diff != sizes[rows, None] - sizes):
            T1, T2 = Tope._wrap(signs[rows.start + i].copy()), Tope._wrap(signs[j].copy())
            bad.append(f"{T1}, {T2}: size difference mismatch")
    return bad


def sweep_negpart_cardinalities(t: int) -> list:
    """Negative-part size and meet/join cardinalities against mask popcounts.

    The pair grid runs in square tiles of at most _BLOCK cells: the spectral
    kernel takes each spectrum's prefix sums, its vertex sum, which row
    blocks of the whole grid would redo for all 2^t spectra in every block.
    """
    bad = []
    masks, signs, _, _ = _mask_rows(t)
    n = masks.shape[0]
    spectra = _telescope(signs)
    negatives = np.bitwise_count(masks)
    _report(bad, signs, [
        (_negpart_size(spectra) != negatives,
         lambda T, i: f"{T}: negative-part size from spectrum != {negatives[i]}"),
    ])
    tile = math.isqrt(topes._BLOCK // t) * t
    for rows in _row_blocks(n, tile):
        meet = np.bitwise_count(masks[rows, None] & masks)
        join = np.bitwise_count(masks[rows, None] | masks)
        parts = [(_meet_join_from_spectra(spectra[rows, None], spectra[None, cols]),
                  _meet_join_cards(signs[rows, None], signs[None, cols]))
                 for cols in _row_blocks(n, tile)]
        spectral, cards = (np.concatenate(part, axis=-1) for part in zip(*parts))
        wrong_spectra = (spectral[0] != meet) | (spectral[1] != join)
        wrong_cards = (cards[0] != meet) | (cards[1] != join)
        for i, j in np.argwhere(wrong_spectra | wrong_cards):
            T1, T2 = Tope._wrap(signs[rows.start + i].copy()), Tope._wrap(signs[j].copy())
            want = (int(meet[i, j]), int(join[i, j]))
            if wrong_spectra[i, j]:
                got = (int(spectral[0][i, j]), int(spectral[1][i, j]))
                bad.append(f"{T1}, {T2}: meet/join {got} != {want}")
            if wrong_cards[i, j]:
                bad.append(f"{T1}, {T2}: inner-product meet/join != direct")
    return bad


def sweep_unit_flip_spectra(t: int) -> list:
    """Unit-flip sums and the boundary-case display against the dense route.

    Both displays and the dense kernel run on row blocks of the membership
    and sign rows of all 2^t subsets A, the reorientations of all-plus.  The
    complement of mask m is mask 2^t - 1 - m, so the complement negation law
    reads the unit-flip rows in reversed mask order.
    """
    _, signs, members, _ = _mask_rows(t)
    n = members.shape[0]
    flips = np.empty_like(signs)
    wrong_flips = np.empty(n, dtype=bool)
    wrong_cases = np.empty(n, dtype=bool)
    for rows in _row_blocks(n, t):
        want = _spectrum_dense(signs[rows])
        flips[rows] = _unit_flip_sum(members[rows])
        wrong_flips[rows] = (flips[rows] != want).any(axis=-1)
        wrong_cases[rows] = (_boundary_case_display(members[rows]) != want).any(axis=-1)
    bad = []
    _report(bad, members, [
        (wrong_flips, lambda A, i: f"A={A}: unit-flip sum != dense spectrum"),
        (wrong_cases, lambda A, i: f"A={A}: boundary-case display != dense spectrum"),
        ((flips != -flips[::-1]).any(axis=-1),
         lambda A, i: f"A={A}: complement negation law failed"),
    ], GroundSubset)
    return bad


def sweep_oracle(t: int) -> list:
    """Brute-force minimal decompositions equal the spectral ones, uniquely.

    The oracle's table holds the subset search of every tope; its minimal
    vertex masks and their popcounts are compared with the spectral vertex
    masks (position i for a + term at index i, i + t for a - term) and the
    support sizes of the telescoping rows.
    """
    masks, signs, _, _ = _mask_rows(t)
    least, ties, minimal, intruder = _search_table(t)
    broken = (least < 0) | (least % 2 == 0) | (intruder >= 0)
    if broken.any():
        # The search's own error for the first such tope, as the scalar raises it.
        bruteforce_minimal_decomposition(Tope.from_bitmask(int(np.argmax(broken)), t))
    coords = _telescope(signs)
    weights = 1 << np.arange(t, dtype=np.int64)
    spectral = (coords > 0) @ weights + (coords < 0) @ (weights << t)
    bad = []
    _report(bad, signs, [
        (ties != 1, lambda T, i: f"{T}: minimal decomposition is not unique"),
        (minimal != spectral, lambda T, i: f"{T}: oracle set "
         f"{[b for b in range(2 * t) if minimal[i] >> b & 1]} != spectral set"),
        (np.bitwise_count(minimal) != np.count_nonzero(coords, axis=-1),
         lambda T, i: f"{T}: oracle cardinality != squared spectrum norm"),
    ])
    return bad


# Caps keep every sweep inside desk scale when verify is run at larger t; a
# capped sweep is reported as skipped, not silently shrunk.  The pairwise
# sweeps cover 4^t pairs, so each step up in t quadruples their time; the
# oracle searches 4^t vertex subsets and stops at its own cap.  The two
# sweeps linear in t stop at DENSE_CAP, as the dense matrices do.
_SWEEPS = (
    ("cycle-structure", sweep_cycle_structure, DENSE_CAP),
    ("matrix-identities", sweep_matrix_identities, 64),
    ("spectrum-methods", sweep_spectrum_methods, 16),
    ("decompositions", sweep_decompositions, 16),
    ("spectrum-updates", sweep_spectrum_updates, DENSE_CAP),
    ("counting", sweep_counting, ENUMERATION_CAP),
    ("boundary-classes", sweep_boundary_classes, 16),
    ("equinumerosity", sweep_equinumerosity, 11),
    ("size-difference", sweep_size_difference, 11),
    ("negpart-cardinalities", sweep_negpart_cardinalities, 11),
    ("flip-spectra", sweep_unit_flip_spectra, 16),
    ("oracle", sweep_oracle, ORACLE_CAP),
)

# The cases each sweep checks at dimension t: the objects or pairs it
# compares (for equinumerosity, the (T, A) pairs, the tope pairs and the
# pairs of nonempty subsets).
_CASES = {
    "cycle-structure": lambda t: 2 * t,
    "matrix-identities": lambda t: t * t,
    "spectrum-updates": lambda t: _PATHS * _STEPS,
    "equinumerosity": lambda t: 2 * 4**t + (2**t - 1) ** 2,
    "size-difference": lambda t: 4**t,
    "negpart-cardinalities": lambda t: 2**t + 4**t,
}


def run_report(t: int) -> dict:
    """Run every sweep of _SWEEPS at dimension t, skipping those whose cap is below t.

    Returns {sweep name: {"status", "issues", "cap", "cases", "seconds"}}:
    "ok", "FAIL" or "skipped", the list of mismatches, the cap, the cases
    checked (2^t topes or subsets unless _CASES says otherwise) and the
    sweep's wall time.  A skipped sweep has no issues, 0 cases and 0
    seconds.  Above every cap it raises CapExceeded before any sweep runs.
    """
    top = max(cap for _, _, cap in _SWEEPS)
    if t > top:
        raise CapExceeded(f"verify at t = {t} is above every sweep's cap (the largest is {top})")
    report = {}
    for name, sweep, cap in _SWEEPS:
        status, issues, cases, seconds = "skipped", [], 0, 0.0
        if t <= cap:
            start = time.perf_counter()
            issues = sweep(t)
            seconds = time.perf_counter() - start
            status = "FAIL" if issues else "ok"
            cases = _CASES.get(name, lambda t: 1 << t)(t)
        report[name] = {"status": status, "issues": issues, "cap": cap, "cases": cases,
                        "seconds": seconds}
    return report
