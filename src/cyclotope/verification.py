"""Independent cross-checks of the production formulas, as exhaustive sweeps.

The library evaluates each quantity through one formula.  The sweeps here
compare it against references that never run on the production path: full
enumeration, the closed forms no production code evaluates, the dense matrix
route, direct set arithmetic and the brute-force oracle, each law in one
sweep.  `verify` runs every sweep; the acceptance tests reuse the pairwise ones.

Every sweep runs through one harness, _sweep, the one place a verdict is
formed: block by block, a sweep yields its checks as pairs of a bool array
over the cases (rows, or pairs of rows) and a function naming one case.
Every sweep_*(t) call, from run_report or directly, counts all mismatches
and the cases compared, and names only the first _FIRST in block, then case,
then check order.  The inputs of a sweep are generated, so any exception
raised while it runs (a kernel's exactness guard refusing what a broken
route gave it, or a broken route failing outright) is one more mismatch and
ends that sweep; CapExceeded and MemoryError propagate.

Each formula is one private kernel along the last axis of its arrays, and
the public scalar function calls it on one vector; the sweeps call the
kernels on stacks of rows.  _mask_rows builds, once per report, the 2^t sign
and membership rows of the masks 0..2^t-1 and four read-only references read
off each mask: sizes, negatives (j), runs (rho) and overlap (with {1, t}).
decompositions and size-difference read sizes, negpart-cardinalities reads
negatives and popcounts of m1 & m2 and m1 | m2, spectrum-methods runs and
overlap, boundary-classes all four and equinumerosity all but negatives, so
neither of the last two runs a size kernel.  The others read none: by design
spectrum-updates checks its update kernel against recomputation by the
telescoping route, flip-spectra its displays against the dense route.
Every stack is coordinate-major (a Fortran-ordered (2^t, t) array), and the
kernels keep that layout, so each runs one long loop per coordinate instead
of one loop of length t per row.  The per-tope sweeps run on row blocks of
the tope rows, flip-spectra on row blocks of the subset rows, equinumerosity
and size-difference on row blocks of the 4^t pair grid, negpart-cardinalities
on square tiles of it, spectrum-updates on one (step, path) stack of its
random paths, all drawn from one block of random bytes, and cycle-structure
on row blocks of the cycle's vertex rows.  An object is built only to name a
mismatch, from a copy of its row.  run_report caps every sweep of _SWEEPS,
the oracle at ORACLE_CAP, at a dimension that keeps `verify` at desk scale
and reports a capped sweep as skipped; above every cap it raises CapExceeded.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time

import numpy as np

from .counting import (
    ENUMERATION_CAP,
    _CLASSES,
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
    SymmetricCycle,
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
from .topes import GroundSubset, Tope, _check_dimension, _row_blocks


class _Mismatches(list):
    """The messages naming a sweep's first mismatches, and the sweep's totals."""
    mismatches = cases = 0
    seconds = 0.0


def _sweep(blocks):
    """The sweep over the blocks (cases, checks) that blocks(t) yields.

    cases counts the cases a block compared, and each check is a pair of a
    bool array failed, one entry per case (0-d for a whole object), and
    message(*index), which names the case at index from the block's state:
    the harness calls it before it draws the next block.  sweep(t) returns a
    _Mismatches counting every mismatch and naming the first _FIRST.  Any
    other exception raised inside the sweep is one mismatch, named
    "t=N: <type>: <message>", and stops it; CapExceeded and MemoryError
    propagate.
    """

    @functools.wraps(blocks)
    def sweep(t):
        start = time.perf_counter()
        found = _Mismatches()
        try:
            for cases, checks in blocks(t):
                failed = [np.asarray(f) for f, _ in checks]
                count = sum(int(np.count_nonzero(f)) for f in failed)
                found.cases += cases
                found.mismatches += count
                if count and len(found) < _FIRST:
                    named = (message(*index)
                             for index in map(tuple, np.argwhere(np.logical_or.reduce(failed)))
                             for f, (_, message) in zip(failed, checks) if f[index])
                    found += itertools.islice(named, _FIRST - len(found))
        except (CapExceeded, MemoryError):
            raise
        except Exception as exc:
            # A broken route failed, or a guard refused what it fed it: a
            # mismatch, not a usage error or a traceback.
            found.mismatches += 1
            if len(found) < _FIRST:
                found.append(f"t={t}: {type(exc).__name__}: {exc}")
        found.seconds = time.perf_counter() - start
        return found

    return sweep


def _namer(cls, rows):
    # Row i of a coordinate-major stack is a strided view, so it is copied.
    return lambda i: cls._wrap(rows[i].copy())


@functools.lru_cache(maxsize=1)
def _mask_rows(t):
    """(masks, signs, members, sizes, negatives, runs, overlap) for every t-bit mask.

    Bit e-1 of a mask set means entry e of the tope is -1 and coordinate e
    belongs to the subset; signs and members are the (2^t, t) int8 and bool
    rows, coordinate-major: Fortran-ordered, each coordinate's entries
    contiguous across the rows.  The references are read off each mask:
    sizes, the minimal decomposition size, is the adjacent sign changes
    plus one when T(1) = T(t); negatives, the negative-part size j, is the
    popcount; runs, the interval count rho, counts the run starts, set bits
    whose lower neighbour is clear; overlap counts the coordinates of 1 and
    t the mask holds.  The rows of the last t asked for are kept, so the
    sweeps of one report share one build; all seven arrays are read-only.
    """
    masks = np.arange(1 << t, dtype=np.int64)
    members = ((masks >> np.arange(t)[:, None]) & 1 == 1).T
    signs = 1 - 2 * members.view(np.int8)
    changes = np.bitwise_count((masks ^ (masks >> 1)) & ((1 << (t - 1)) - 1))
    sizes = changes.astype(np.int64) + ((masks ^ (masks >> (t - 1))) & 1 == 0)
    negatives = np.bitwise_count(masks).astype(np.int64)
    runs = np.bitwise_count(masks & ~(masks << 1)).astype(np.int64)
    overlap = (masks & 1) + (masks >> (t - 1) & 1)
    rows = masks, signs, members, sizes, negatives, runs, overlap
    for arr in rows:
        arr.flags.writeable = False
    return rows


@_sweep
def sweep_cycle_structure(t: int):
    """Cycle construction: adjacency, antipodality, prefix flips, distinctness.

    On row blocks of k < t, the vertices k and k + t are read from
    cycle.vertex as two stacks of rows, each with the vertex after its last
    row.  The block checks with array operations that vertex k differs from
    the next in exactly one entry, that vertex k + t is -(vertex k) and
    that vertex k flips the first k coordinates (a row of a lower-triangular
    int8 reference).  The adjacency of the vertices k + t is held for one
    last block, so the mismatches are named in the order of k, as over one
    stack of all 2t vertices.  Distinctness counts the distinct rows by the
    bytes of their packed negative parts, t / 8 bytes a row.
    """
    cycle = SymmetricCycle(t)
    n = 2 * t
    yield 0, [
        (len(cycle) != n, lambda: f"t={t}: cycle has {len(cycle)} vertices, expected {n}"),
        (cycle.vertex(0) != Tope.positive(t),
         lambda: f"t={t}: cycle does not start at the all-plus tope"),
    ]
    seen = set()
    late = np.empty(t, dtype=bool)
    for rows in _row_blocks(t, n):
        span = range(rows.start, rows.stop + 1)
        low, high = (np.array([cycle.vertex((k + shift) % n).signs for k in span])
                     for shift in (0, t))
        apart, late[rows] = (np.count_nonzero(v[1:] != v[:-1], axis=-1) != 1 for v in (low, high))
        low, high = low[:-1], high[:-1]
        seen.update(*(map(bytes, np.packbits(v < 0, axis=-1)) for v in (low, high)))
        ks = np.arange(rows.start, rows.stop)
        flipped = np.where(np.arange(t) < ks[:, None], np.int8(-1), np.int8(1))
        yield len(ks), [
            (apart, lambda i: f"t={t}: vertices {ks[i]} and {ks[i] + 1} are not adjacent"),
            ((high != -low).any(axis=-1),
             lambda i: f"t={t}: vertex {ks[i] + t} is not the antipode of vertex {ks[i]}"),
            ((ks >= 1) & (low != flipped).any(axis=-1),
             lambda i: f"t={t}: vertex {ks[i]} does not flip the first {ks[i]} coordinates"),
        ]
    yield t, [(late, lambda k: f"t={t}: vertices {k + t} and {(k + t + 1) % n} are not adjacent")]
    yield 0, [(len(seen) != n,
               lambda: f"t={t}: cycle vertices are not distinct ({len(seen)} of {n})")]


@_sweep
def sweep_matrix_identities(t: int):
    """Exact matrix identities; inverse Gram values against the inverse rows' product."""
    m, inv = tope_matrix(t), inverse_rows(t)
    ident = 2 * np.eye(t, dtype=np.int64)
    product = inv.entries @ inv.entries.T
    ig = inverse_gram_matrix(t)
    yield 0, [
        (not np.array_equal(m.entries @ inv.entries, ident), lambda: f"t={t}: M * (2 M^-1) != 2I"),
        (not np.array_equal(inv.entries @ m.entries, ident), lambda: f"t={t}: (2 M^-1) * M != 2I"),
        (ig.denom != 4, lambda: f"t={t}: inverse Gram denominator is {ig.denom}"),
        (not np.array_equal(ig.entries, ig.entries.T),
         lambda: f"t={t}: inverse Gram matrix is not symmetric"),
        (not np.array_equal(ig.entries, product),
         lambda: f"t={t}: inverse Gram matrix != (2 M^-1)(2 M^-1)^T"),
    ]
    index = range(1, t + 1)
    gram = m.entries @ m.entries.T
    yield t * t, [
        (np.array([[gram_entry(t, i, j) for j in index] for i in index]) != gram,
         lambda i, j: f"t={t}: gram_entry({i + 1},{j + 1}) != direct inner product"),
        (np.array([[inverse_gram_entry(t, i, j) for j in index] for i in index]) != product,
         lambda i, j: f"t={t}: inverse_gram_entry({i + 1},{j + 1}) != row product"),
    ]


@_sweep
def sweep_spectrum_methods(t: int):
    """All 2^t topes: route agreement plus every per-tope spectrum law.

    The dense, telescoping and interval kernels run on row blocks of the
    sign rows.  Where the three agree, the laws but x * M = T (decompositions
    checks it) are checked on the telescoping rows, which share the sign
    rows' layout, against the tope rows, the prefix-sum map and, for the
    interval law, popcounts of the run starts of the masks.
    """
    masks, signs, members, _, _, runs, overlap = _mask_rows(t)
    interval_law = np.where(overlap > 0, 2 * runs - 1, 2 * runs + 1)
    for rows in _row_blocks(masks.shape[0], t):
        s = signs[rows]
        dense = _spectrum_dense(s)
        x = _telescope(s)
        ivls = _spectrum_intervals(members[rows])
        agree = (dense == x).all(axis=-1) & (dense == ivls).all(axis=-1)
        support = np.count_nonzero(x, axis=-1)
        total = x.sum(axis=-1, dtype=np.int64)
        prefix = np.zeros(agree.shape, dtype=bool)
        prefix[agree] = (_tope_signs(x[agree]) != s[agree]).any(axis=-1)
        law = interval_law[rows]
        empty = masks[rows] == 0
        T = _namer(Tope, s)
        yield len(s), [
            (~agree, lambda i: f"{T(i)}: routes disagree: "
             + " / ".join(str(_namer(Spectrum, route)(i)) for route in (dense, x, ivls))),
            (agree & (support % 2 != 1), lambda i: f"{T(i)}: even support {support[i]}"),
            (agree & (total != s[:, -1]),
             lambda i: f"{T(i)}: coordinate sum {total[i]} != last entry {s[i, -1]}"),
            (agree & ((x != 0) & (x != s)).any(axis=-1),
             lambda i: f"{T(i)}: a nonzero coordinate disagrees with the tope entry"),
            (agree & prefix, lambda i: f"{T(i)}: prefix-sum reconstruction failed"),
            (agree & (_telescope(-s) != -x).any(axis=-1),
             lambda i: f"{T(i)}: antipodal law failed"),
            (agree & ~empty & (support != law),
             lambda i: f"{T(i)}: size {support[i]} != interval law {law[i]}"),
            (agree & empty & (support != 1),
             lambda i: f"{T(i)}: all-plus tope must have size 1"),
        ]


@_sweep
def sweep_decompositions(t: int):
    """All 2^t topes: term structure and entrywise vertex-sum reconstruction.

    On row blocks, the terms (the telescoping rows that spectrum_fast
    wraps) are summed as signed cycle-vertex rows, x @ M, and compared with
    the tope (no other sweep checks x * M = T) and the prefix-sum map; the
    size with the mask's sign-change size (spectrum-methods checks parity).
    """
    masks, signs, _, sizes, *_ = _mask_rows(t)
    m_entries = tope_matrix(t).entries
    for rows in _row_blocks(masks.shape[0], t):
        s = signs[rows]
        coords = _telescope(s)
        size = np.count_nonzero(coords, axis=-1)
        summed = coords.astype(np.int64) @ m_entries
        # Read through the module, as Spectrum.vertex_sum reads it.
        prefix = decomposition._vertex_sum(coords)
        want = sizes[rows]
        T = _namer(Tope, s)
        yield len(s), [
            ((summed != s).any(axis=-1),
             lambda i: f"{T(i)}: signed vertex sum does not reproduce the tope"),
            ((prefix != summed).any(axis=-1),
             lambda i: f"{T(i)}: prefix-sum vertex sum != sum of the cycle-vertex rows"),
            (size != want,
             lambda i: f"{T(i)}: term count differs from the sign-change size {want[i]}"),
        ]


# spectrum-updates runs _PATHS random paths of _STEPS reorientations each,
# drawn from the bytes of random.Random(_SEED).
_PATHS, _STEPS, _SEED = 20, 16, 7


@_sweep
def sweep_spectrum_updates(t: int):
    """Random reorientation paths: incremental updates match recomputation.

    _path_draws gives the start topes' negative parts and the flip sets as
    one stack.  A running xor along it gives the negative parts around
    every step, and one update call runs all steps from the recomputed
    spectra; up to each path's first diverging step, which is reported,
    chained updates would give those same spectra.  The cases are the
    (path, step) cells, path by path.
    """
    draws = _path_draws(t)
    negative = np.logical_xor.accumulate(draws, axis=0, out=np.empty_like(draws))
    walk = 1 - 2 * negative.view(np.int8)  # reorient
    x = _telescope(walk)
    diverged = (_spectrum_update(x[:-1], walk[:-1], draws[1:]) != x[1:]).any(axis=-1)
    first = diverged & (np.cumsum(diverged, axis=0) == 1)
    yield first.size, [
        (first.T, lambda p, step: f"path {p} step {step}: update diverged from recomputation"),
    ]


def _path_draws(t):
    """The random paths as one (1 + _STEPS, _PATHS, t) coordinate-major bool stack.

    random.Random(_SEED).randbytes gives one block, read little-endian as
    - _STEPS x _PATHS 32-bit words w, one per step of each path;
    - _STEPS // 2 x _PATHS x t 16-bit keys, one per coordinate of each odd
      step of each path;
    - _PATHS x t bits, lowest bit of each byte first: bit p * t + e set makes
      entry e + 1 of the start tope of path p negative.
    Layer 0 holds the start topes' negative parts and layer 1 + step the
    flip set of that step.  An even step flips {1 + (w * t >> 32)}; an odd
    step flips the coordinates whose key lies below w >> 16, so its size is
    uniform on 0..t up to the threshold's 2^-16 steps, and the set is
    uniform given its size.
    """
    cells = _STEPS * _PATHS
    keyed = 4 * cells + 2 * (cells // 2) * t
    block = random.Random(_SEED).randbytes(keyed + (_PATHS * t + 7) // 8)
    words = np.frombuffer(block, "<u4", cells).reshape(_STEPS, _PATHS, 1)
    keys = np.frombuffer(block, "<u2", (cells // 2) * t, 4 * cells).reshape(_STEPS // 2, _PATHS, t)
    bits = np.frombuffer(block, np.uint8, offset=keyed)
    draws = np.empty((1 + _STEPS, _PATHS, t), dtype=bool, order="F")
    draws[0] = np.unpackbits(bits, count=_PATHS * t, bitorder="little").reshape(_PATHS, t)
    draws[1::2] = np.arange(1, t + 1) == 1 + (words[0::2].astype(np.uint64) * t >> 32)
    draws[2::2] = keys < words[1::2] >> 16
    return draws


def _closed_form_column(t: int, l: int) -> list:
    """The closed forms 1 and 3 for the (j, l) counts, in display order, for j = 0..t.

    Only the cross-checks call this.  No production code evaluates these
    two displays: form 2 is count_by_negpart_and_size's product and form 4
    is form 1 reordered.  c(p, n) and c(h, n), n = 0..t+1, are evaluated
    once for the column.  Both forms vanish outside the j-window.
    """
    h = (l - 1) // 2
    p = (l + 1) // 2
    cp, ch = ([composition_count(m, n) for n in range(t + 2)] for m in (p, h))
    return [(2 * cp[j] * cp[t - j] + cp[j] * ch[t - j] + ch[j] * cp[t - j],
             cp[j] * cp[t - j + 1] + cp[t - j] * cp[j + 1])
            for j in range(t + 1)]


@_sweep
def sweep_counting(t: int):
    """The exact (j, l) tally of all 2^t topes against every closed form.

    enumerate_statistics counts each tope once, in one pass over the
    coordinates.  Each cell of that tally is compared with the production
    table formula_table, with the scalar count count_by_negpart_and_size and
    with the two forms of _closed_form_column, built once per l; all read
    the tally's dict.  The cases are the 2^t tallied topes.
    """
    table = enumerate_statistics(t)
    total = table.total()
    yield 1 << t, [(total != 1 << t, lambda: f"t={t}: table total {total} != 2^{t}")]
    built = formula_table(t)
    mine, tally = ({(l, j): c for j, l, c in rows} for rows in (built, table))
    cells = sorted(mine.keys() | tally.keys())
    differs = np.array([mine.get(cell, 0) != tally.get(cell, 0) for cell in cells])
    yield 0, [(differs, lambda k: f"t={t}, j={cells[k][1]}, l={cells[k][0]}: formula table "
               f"{mine.get(cells[k], 0)} != enumerated {tally.get(cells[k], 0)}")]
    yield 0, [(built.rows != table.rows and not differs.any(),
               lambda: f"t={t}: formula table rows are not the enumerated rows in (l, j) order")]
    odd, negparts = range(1, t + 1, 2), range(t + 1)
    columns = [sum(tally.get((l, j), 0) for j in negparts) for l in odd]
    yield 0, [(np.not_equal(columns, [count_topes_by_size(t, l) for l in odd]),
               lambda k: f"t={t}, l={odd[k]}: column sum {columns[k]} != 2*C(t,l)")]
    yield 0, [(np.not_equal([tally.get((1, j), 0) for j in negparts],
                            [count_cycle_topes_by_negpart(t, j) for j in negparts]),
               lambda j: f"t={t}, j={j}: l=1 count mismatch")]
    for l in range(3, t + 1, 2):
        got = [tally.get((l, j), 0) for j in negparts]
        want = [count_by_negpart_and_size(t, j, l) for j in negparts]
        forms = _closed_form_column(t, l)
        yield 0, [
            (np.not_equal(got, want),
             lambda j: f"t={t}, j={j}, l={l}: enumerated {got[j]} != formula {want[j]}"),
            (np.array([any(v != g for v in values) for g, values in zip(got, forms)]),
             lambda j: f"t={t}, j={j}, l={l}: closed forms {forms[j]} != enumerated {got[j]}"),
        ]
        if l == 3:
            yield 0, [(np.array([got[j] != 2 * j * (t - j) - t for j in range(1, t)]),
                       lambda k: f"t={t}, j={k + 1}: l=3 count != 2j(t-j)-t")]


@_sweep
def sweep_boundary_classes(t: int):
    """Counts refined by boundary class and j, against direct enumeration.

    Every tope with a nonempty negative part is tallied by its boundary
    class, read off its mask, and by the negatives (j) and sizes (l)
    references, and its negative part by the overlap and runs references;
    no spectrum kernel runs: it checks closed forms only.  The cases are the
    2^t topes; each class total is checked just before its j = 0 cell.
    """
    masks, _, _, sizes, negatives, runs, overlap = _mask_rows(t)
    left, right = masks & 1, masks >> (t - 1) & 1
    # The index into _CLASSES: 2 * [t in A] when 1 is in A, else 3 - 2 * [t in A].
    case = np.where(left == 1, 2 * right, 3 - 2 * right)
    # Mask 0, the empty negative part, is left out of both tallies.
    w = t + 1
    tallies = np.bincount(((case * w + negatives) * w + sizes)[1:], minlength=4 * w * w)
    subset_tallies = np.bincount((overlap * w + runs)[1:], minlength=3 * w).reshape(3, w)
    ls = range(3, t + 1, 2)
    got = tallies.reshape(4, w, w)[:, :, 3::2].transpose(2, 0, 1)  # (l, class, j) cells
    want = np.array([[[count_by_boundary_class(t, l, cls, j) for j in range(w)]
                      for cls in _CLASSES] for l in ls])
    totals = np.array([[count_by_boundary_class(t, l, cls) for cls in _CLASSES] for l in ls])
    yield masks.size, [
        ((got.sum(axis=-1) != totals)[..., None] & (np.arange(w) == 0),
         lambda a, c, j: f"t={t}, l={ls[a]}, {_CLASSES[c]}: total {got[a, c].sum()} "
         "!= closed form"),
        (got != want, lambda a, c, j: f"t={t}, l={ls[a]}, j={j}, {_CLASSES[c]}: "
         f"{got[a, c, j]} != {want[a, c, j]}"),
    ]
    by_runs = subset_tallies[:, 1:].T  # (rho, boundary) cells
    runs_want = np.array([[count_subsets_by_boundary(t, rho, boundary) for boundary in (0, 1, 2)]
                          for rho in range(1, t + 1)])
    yield 0, [(by_runs != runs_want, lambda r, b: f"t={t}, rho={r + 1}, boundary={b}: "
               f"{by_runs[r, b]} != {runs_want[r, b]}")]


@_sweep
def sweep_equinumerosity(t: int):
    """Criterion, indicator and interval rule against the sizes reference, all pairs.

    One boundary sum per (T, A) pair gives the criterion on (T, A) and the
    indicator on (T, reorient(T, A)), checked against the exact size
    difference.  The interval rule is fed the runs and overlap references.
    The criterion runs on every subset A, the full set included: there it
    reads 0 = 0, and T and its antipode have equal sizes.
    """
    masks, signs, members, sizes, _, runs, overlap = _mask_rows(t)
    n = masks.shape[0]
    T, A = _namer(Tope, signs), _namer(GroundSubset, members)
    for rows in _row_blocks(n, n * t):
        lhs, rhs = _boundary_sum(signs[rows, None], members[None])
        equal = lhs == rhs
        other = sizes[masks[rows, None] ^ masks]
        direct = sizes[rows, None] == other
        yield equal.size, [
            (equal != direct, lambda i, a: f"{T(rows.start + i)}, A={A(a)}: "
             f"criterion {equal[i, a]} != direct {direct[i, a]}"),
            (rhs - lhs != sizes[rows, None] - other,
             lambda i, a: f"{T(rows.start + i)}, {T(masks[rows.start + i] ^ a)}: "
                          "indicator != size difference"),
        ]
    # Nonempty A and B, as reorientations of all-plus: mask m's tope.
    rho, touch = runs[1:], overlap[1:] > 0
    for rows in _row_blocks(n - 1, (n - 1) * t):
        same = _interval_count_rule(rho[rows, None], touch[rows, None], rho, touch)
        yield same.size, [(same != (sizes[1:][rows, None] == sizes[1:]),
                           lambda i, j: f"A={A(rows.start + i + 1)}, B={A(j + 1)}: "
                                        "interval rule != direct comparison")]


@_sweep
def sweep_size_difference(t: int):
    """Inner-product size difference against popcount sizes, all pairs."""
    masks, signs, _, sizes, *_ = _mask_rows(t)
    n = masks.shape[0]
    T = _namer(Tope, signs)
    for rows in _row_blocks(n, n * t):
        diff = _size_difference(signs[rows, None], signs[None])
        yield diff.size, [(diff != sizes[rows, None] - sizes, lambda i, j:
                           f"{T(rows.start + i)}, {T(j)}: size difference mismatch")]


@_sweep
def sweep_negpart_cardinalities(t: int):
    """Negative-part size and spectral meet/join cardinalities against mask popcounts.

    The pair grid runs in square tiles of at most _BLOCK cells: the spectral
    kernel takes each spectrum's prefix sums, its vertex sum, which row
    blocks of the whole grid would redo for all 2^t spectra in every block.
    """
    masks, signs, _, _, negatives, *_ = _mask_rows(t)
    n = masks.shape[0]
    spectra = _telescope(signs)
    T = _namer(Tope, signs)
    yield n, [(_negpart_size(spectra) != negatives,
               lambda i: f"{T(i)}: negative-part size from spectrum != {negatives[i]}")]
    tile = math.isqrt(topes._BLOCK // t) * t
    for rows in _row_blocks(n, tile):
        meet = np.bitwise_count(masks[rows, None] & masks)
        join = np.bitwise_count(masks[rows, None] | masks)
        spectral = np.concatenate(
            [_meet_join_from_spectra(spectra[rows, None], spectra[None, cols])
             for cols in _row_blocks(n, tile)], axis=-1)
        yield meet.size, [
            ((spectral[0] != meet) | (spectral[1] != join),
             lambda i, j: f"{T(rows.start + i)}, {T(j)}: meet/join "
                          f"{(int(spectral[0][i, j]), int(spectral[1][i, j]))} != "
                          f"{(int(meet[i, j]), int(join[i, j]))}"),
        ]


@_sweep
def sweep_unit_flip_spectra(t: int):
    """Unit-flip sums and the boundary-case display against the dense route.

    Both displays and the dense kernel run on row blocks of the membership
    and sign rows of all 2^t subsets A, the reorientations of all-plus.  The
    complement of mask m is mask 2^t - 1 - m, so the complement negation law
    reads the unit-flip rows in reversed mask order.
    """
    _, signs, members, *_ = _mask_rows(t)
    n = members.shape[0]
    flips = np.empty_like(signs)
    wrong_flips = np.empty(n, dtype=bool)
    wrong_cases = np.empty(n, dtype=bool)
    for rows in _row_blocks(n, t):
        want = _spectrum_dense(signs[rows])
        flips[rows] = _unit_flip_sum(members[rows])
        wrong_flips[rows] = (flips[rows] != want).any(axis=-1)
        wrong_cases[rows] = (_boundary_case_display(members[rows]) != want).any(axis=-1)
    A = _namer(GroundSubset, members)
    yield n, [
        (wrong_flips, lambda i: f"A={A(i)}: unit-flip sum != dense spectrum"),
        (wrong_cases, lambda i: f"A={A(i)}: boundary-case display != dense spectrum"),
        ((flips != -flips[::-1]).any(axis=-1),
         lambda i: f"A={A(i)}: complement negation law failed"),
    ]


@_sweep
def sweep_oracle(t: int):
    """Brute-force minimal decompositions equal the spectral ones, uniquely.

    The oracle's table holds the subset search of every tope; its minimal
    vertex masks and their popcounts are compared with the spectral vertex
    masks (position i for a + term at index i, i + t for a - term) and the
    support sizes of the telescoping rows.
    """
    _, signs, *_ = _mask_rows(t)
    least, ties, minimal, intruder = _search_table(t)
    broken = (least < 0) | (least % 2 == 0) | (intruder >= 0)
    if broken.any():
        # The search's own error for the first such tope, as the scalar raises it.
        bruteforce_minimal_decomposition(Tope.from_bitmask(int(np.argmax(broken)), t))
    coords = _telescope(signs)
    weights = 1 << np.arange(t, dtype=np.int64)
    spectral = (coords > 0) @ weights + (coords < 0) @ (weights << t)
    T = _namer(Tope, signs)
    yield len(signs), [
        (ties != 1, lambda i: f"{T(i)}: minimal decomposition is not unique"),
        (minimal != spectral, lambda i: f"{T(i)}: oracle set "
         f"{[b for b in range(2 * t) if minimal[i] >> b & 1]} != spectral set"),
        (np.bitwise_count(minimal) != np.count_nonzero(coords, axis=-1),
         lambda i: f"{T(i)}: oracle cardinality != squared spectrum norm"),
    ]


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

_FIRST = 5


def run_report(t: int) -> dict:
    """Run every sweep of _SWEEPS at dimension t, skipping those whose cap is below t.

    Returns {sweep name: {"status", "mismatches", "first_mismatches", "cases",
    "seconds", "cap"}}: "ok", "FAIL" or "skipped", the mismatch count and the
    first _FIRST messages (those verify prints), the cases compared, the wall
    time and the cap; a skipped sweep has 0 of each.  Before any sweep runs,
    it raises DimensionTooSmall below t = 3 and CapExceeded above every cap.
    """
    _check_dimension(t)
    top = max(cap for _, _, cap in _SWEEPS)
    if t > top:
        raise CapExceeded(f"verify at t = {t} is above every sweep's cap (the largest is {top})")
    report = {}
    for name, sweep, cap in _SWEEPS:
        found = sweep(t) if t <= cap else _Mismatches()
        status = "skipped" if t > cap else "FAIL" if found.mismatches else "ok"
        report[name] = {"status": status, "mismatches": found.mismatches,
                        "first_mismatches": list(found), "cases": found.cases,
                        "seconds": found.seconds, "cap": cap}
    return report
