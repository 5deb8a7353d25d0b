"""Independent cross-checks of the production formulas, as exhaustive sweeps.

The library evaluates each quantity through one formula.  The sweeps here
compare it against references that never run on the production path: full
enumeration, the other printed closed forms, the dense matrix route, direct
set arithmetic and the brute-force oracle.  Each sweep returns a list of
human-readable mismatch strings; an empty list means the sweep passed.  The
CLI `verify` subcommand runs every sweep; the acceptance tests reuse the
pairwise ones.

The pairwise sweeps (equinumerosity, size-difference, negpart-cardinalities)
cover all 4^t pairs of topes or reorientation sets.  They build the 2^t
sign and membership rows once from the masks 0..2^t-1, evaluate each
production kernel over whole row blocks of the pair grid by broadcasting,
and compare the results with plain mask arithmetic: sizes from popcounts of
adjacent sign changes, meets and joins from popcounts of m1 & m2 and
m1 | m2, interval counts from popcounts of run starts.  The per-tope and
per-subset sweeps cut their objects from the same rows.  run_all caps every
sweep at a dimension that keeps `verify` at desk scale and reports a capped
sweep as skipped.
"""

from __future__ import annotations

import random

import numpy as np

from .counting import (
    ENUMERATION_CAP,
    _closed_form_values,
    count_by_boundary_class,
    count_by_negpart_and_size,
    count_cycle_topes_by_negpart,
    count_subsets_by_boundary,
    count_topes_by_size,
    enumerate_statistics,
    formula_table,
)
from .cycle import (
    build_cycle,
    cycle_vertex,
    gram_entry,
    inverse_gram_entry,
    inverse_gram_matrix,
    inverse_rows,
    tope_matrix,
)
from .decomposition import (
    _meet_join_from_spectra,
    _size_difference,
    decomposition_set,
    negpart_size_from_spectrum,
    reconstruct_tope,
    spectrum_dense,
    spectrum_fast,
    spectrum_from_boundary_cases,
    spectrum_from_unit_flips,
    spectrum_intervals,
    spectrum_update,
)
from .equinumerosity import _boundary_sum, _interval_count_rule
from .oracle import bruteforce_minimal_decomposition
from .topes import (
    GroundSubset,
    Tope,
    _meet_join_cards,
    interval_partition,
    negative_part,
    reorient,
    separation_set,
)

# Cells (row x column x coordinate) per block of a pairwise sweep: the int64
# temporaries of one block then take about 512 KiB whatever t is.
_PAIR_BLOCK = 1 << 16


def _all_topes(t):
    """The 2^t topes in mask order, cut from the sign rows of _mask_rows."""
    return (Tope._wrap(row) for row in _mask_rows(t)[1])


def _all_subsets(t):
    """The 2^t subsets in mask order, cut from the member rows of _mask_rows."""
    return (GroundSubset._wrap(row) for row in _mask_rows(t)[2])


def _mask_rows(t):
    """(masks, signs, members, sizes) for every t-bit mask, in mask order.

    Bit e-1 of a mask set means entry e of the tope is -1 and coordinate e
    belongs to the subset; signs and members are the (2^t, t) int8 and bool
    rows.  The size of the minimal decomposition is read off the mask: the
    adjacent sign changes plus one when T(1) = T(t).
    """
    masks = np.arange(1 << t, dtype=np.int64)
    members = (masks[:, None] >> np.arange(t)) & 1 == 1
    signs = np.where(members, -1, 1).astype(np.int8)
    changes = np.bitwise_count((masks ^ (masks >> 1)) & ((1 << (t - 1)) - 1))
    sizes = changes.astype(np.int64) + ((masks ^ (masks >> (t - 1))) & 1 == 0)
    return masks, signs, members, sizes


def _row_blocks(n, t):
    """Slices of the n rows of an n x n pair grid, at most _PAIR_BLOCK cells each."""
    step = max(1, _PAIR_BLOCK // (n * t))
    for start in range(0, n, step):
        yield slice(start, min(n, start + step))



def sweep_cycle_structure(t: int) -> list:
    """Cycle construction: adjacency, distinctness, antipodality."""
    bad = []
    cycle = build_cycle(t)
    n = 2 * t
    if len(cycle) != n:
        bad.append(f"t={t}: cycle has {len(cycle)} vertices, expected {n}")
    if cycle.vertex(0) != Tope.positive(t):
        bad.append(f"t={t}: cycle does not start at the all-plus tope")
    seen = set()
    for k in range(n):
        v = cycle.vertex(k)
        seen.add(str(v))
        if len(separation_set(v, cycle.vertex((k + 1) % n))) != 1:
            bad.append(f"t={t}: vertices {k} and {(k + 1) % n} are not adjacent")
        if k < t and cycle.vertex(k + t) != -v:
            bad.append(f"t={t}: vertex {k + t} is not the antipode of vertex {k}")
        if 1 <= k < t:
            expected = reorient(Tope.positive(t), GroundSubset(t, range(1, k + 1)))
            if v != expected:
                bad.append(f"t={t}: vertex {k} does not flip the first {k} coordinates")
    if len(seen) != n:
        bad.append(f"t={t}: cycle vertices are not distinct ({len(seen)} of {n})")
    return bad


def sweep_matrix_identities(t: int) -> list:
    """Exact matrix identities: inverse, Gram values, inverse Gram values."""
    bad = []
    m = tope_matrix(t)
    inv = inverse_rows(t)
    ident = 2 * np.eye(t, dtype=np.int64)
    if not np.array_equal(m.entries @ inv.entries, ident):
        bad.append(f"t={t}: M * (2 M^-1) != 2I")
    if not np.array_equal(inv.entries @ m.entries, ident):
        bad.append(f"t={t}: (2 M^-1) * M != 2I")
    gram_direct = m.entries @ m.entries.T
    ig = inverse_gram_matrix(t)
    if ig.denom != 4:
        bad.append(f"t={t}: inverse Gram denominator is {ig.denom}")
    if not np.array_equal(ig.entries, ig.entries.T):
        bad.append(f"t={t}: inverse Gram matrix is not symmetric")
    for i in range(1, t + 1):
        for j in range(1, t + 1):
            if gram_entry(t, i, j) != int(gram_direct[i - 1, j - 1]):
                bad.append(f"t={t}: gram_entry({i},{j}) != direct inner product")
            if inverse_gram_entry(t, i, j) != int(ig.entries[i - 1, j - 1]):
                bad.append(f"t={t}: inverse_gram_entry({i},{j}) != row product")
    return bad


def sweep_spectrum_methods(t: int) -> list:
    """All 2^t topes: route agreement plus every per-tope spectrum law."""
    bad = []
    m_entries = tope_matrix(t).entries
    for T in _all_topes(t):
        dense = spectrum_dense(T)
        fast = spectrum_fast(T)
        ivls = spectrum_intervals(T)
        if not (dense == fast and dense == ivls):
            bad.append(f"{T}: routes disagree: {dense} / {fast} / {ivls}")
            continue
        x = dense
        if x.support_size % 2 != 1:
            bad.append(f"{T}: even support {x.support_size}")
        if x.total != T.sign(t):
            bad.append(f"{T}: coordinate sum {x.total} != last entry {T.sign(t)}")
        nz = np.flatnonzero(x.coords)
        if any(int(x.coords[i]) != T.sign(int(i) + 1) for i in nz):
            bad.append(f"{T}: a nonzero coordinate disagrees with the tope entry")
        back = x.coords.astype(np.int64) @ m_entries
        if not np.array_equal(back, T.signs.astype(np.int64)):
            bad.append(f"{T}: x * M does not reconstruct the tope")
        if int(back @ back) != t:
            bad.append(f"{T}: reconstructed vector has squared norm != t")
        if reconstruct_tope(x) != T:
            bad.append(f"{T}: prefix-sum reconstruction failed")
        if spectrum_fast(-T) != -x:
            bad.append(f"{T}: antipodal law failed")
        A = negative_part(T)
        if len(A):
            rho = interval_partition(A).rho
            expected = 2 * rho - 1 if A.boundary_count else 2 * rho + 1
            if x.support_size != expected:
                bad.append(f"{T}: size {x.support_size} != interval law {expected}")
        elif x.support_size != 1:
            bad.append(f"{T}: all-plus tope must have size 1")
    return bad


def _signed_vertex_sum(t: int, terms) -> np.ndarray:
    """Sum of the signed cycle vertices of the terms, one cycle_vertex row each.

    The O(t * size) reference for the O(t) prefix-sum map behind
    Decomposition.vertex_sum.
    """
    acc = np.zeros(t, dtype=np.int64)
    for s, i in terms:
        acc += s * cycle_vertex(t, i).astype(np.int64)
    return acc


def sweep_decompositions(t: int) -> list:
    """All 2^t topes: term structure and entrywise vertex-sum reconstruction.

    The terms are summed as signed cycle-vertex rows and compared with the
    tope and with Decomposition.vertex_sum; the size is compared with the
    popcount size of the tope's mask.
    """
    bad = []
    _, signs, _, sizes = _mask_rows(t)
    for m in range(signs.shape[0]):
        T = Tope._wrap(signs[m])
        d = decomposition_set(T)
        if d.size % 2 != 1:
            bad.append(f"{T}: even term count {d.size}")
        rows = _signed_vertex_sum(t, d.terms)
        if not np.array_equal(rows, T.signs):
            bad.append(f"{T}: signed vertex sum does not reproduce the tope")
        if not np.array_equal(d.vertex_sum(), rows):
            bad.append(f"{T}: prefix-sum vertex sum != sum of the cycle-vertex rows")
        if d.size != sizes[m]:
            bad.append(f"{T}: term count differs from the sign-change size {sizes[m]}")
    return bad


def sweep_spectrum_updates(t: int, paths: int = 20, steps: int = 16, seed: int = 7) -> list:
    """Random reorientation paths: incremental updates match recomputation."""
    bad = []
    rng = random.Random(seed)
    for p in range(paths):
        signs = [rng.choice((-1, 1)) for _ in range(t)]
        T = Tope(signs)
        x = spectrum_fast(T)
        for step in range(steps):
            k = rng.randrange(1, t + 1)
            size = rng.randrange(0, max(2, t // 4) + 1)
            members = sorted(rng.sample(range(1, t + 1), min(size + 1, t)))
            S = GroundSubset(t, members) if step % 2 else GroundSubset(t, [k])
            x = spectrum_update(x, T, S)
            T = reorient(T, S)
            if x != spectrum_fast(T):
                bad.append(f"path {p} step {step}: update diverged from recomputation")
                break
    return bad


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
    """Counts refined by boundary class and j, against direct enumeration."""
    bad = []
    tallies = {}
    subset_tallies = {}
    for T in _all_topes(t):
        l = spectrum_fast(T).support_size
        A = negative_part(T)
        j = len(A)
        if len(A):
            part = interval_partition(A)
            key = (1 in A, t in A)
            case = {
                (True, False): "left-only",
                (False, True): "right-only",
                (True, True): "both-ends",
                (False, False): "neither",
            }[key]
            tallies[(case, j, l)] = tallies.get((case, j, l), 0) + 1
            subset_tallies[(A.boundary_count, part.rho)] = (
                subset_tallies.get((A.boundary_count, part.rho), 0) + 1
            )
    for l in range(3, t + 1, 2):
        for case in ("left-only", "right-only", "both-ends", "neither"):
            total = sum(c for (cs, _, l_), c in tallies.items() if cs == case and l_ == l)
            if total != count_by_boundary_class(t, l, case):
                bad.append(f"t={t}, l={l}, {case}: total {total} != closed form")
            for j in range(t + 1):
                got = tallies.get((case, j, l), 0)
                want = count_by_boundary_class(t, l, case, j)
                if got != want:
                    bad.append(f"t={t}, l={l}, j={j}, {case}: {got} != {want}")
    for rho in range(1, t + 1):
        for boundary in (0, 1, 2):
            got = subset_tallies.get((boundary, rho), 0)
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
    for rows in _row_blocks(n, t):
        lhs, rhs = _boundary_sum(signs[rows, None], members[None])
        equal = lhs == rhs
        direct = sizes[rows, None] == sizes[masks[rows, None] ^ masks]
        for i, a in np.argwhere(equal != direct):
            T, A = Tope._wrap(signs[rows.start + i]), GroundSubset._wrap(members[a])
            bad.append(f"{T}, A={A}: criterion {equal[i, a]} != direct {direct[i, a]}")
    for rows in _row_blocks(n, t):
        lhs, rhs = _boundary_sum(signs[rows, None], signs[rows, None] != signs[None])
        ind = rhs - lhs
        wrong = (ind == 0) != (sizes[rows, None] == sizes)
        differs = ind != _size_difference(signs[rows, None], signs[None])
        for i, j in np.argwhere(wrong | differs):
            a = rows.start + i
            T1, T2 = Tope._wrap(signs[a]), Tope._wrap(signs[j])
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
    for rows in _row_blocks(n - 1, t):
        same = _interval_count_rule(rho[rows, None], touch[rows, None], rho, touch)
        for i, j in np.argwhere(same != (sizes[1:][rows, None] == sizes[1:])):
            A = GroundSubset._wrap(members[rows.start + i + 1])
            B = GroundSubset._wrap(members[j + 1])
            bad.append(f"A={A}, B={B}: interval rule != direct comparison")
    return bad


def sweep_size_difference(t: int) -> list:
    """Inner-product size difference against popcount sizes, all pairs."""
    bad = []
    masks, signs, _, sizes = _mask_rows(t)
    for rows in _row_blocks(masks.shape[0], t):
        diff = _size_difference(signs[rows, None], signs[None])
        for i, j in np.argwhere(diff != sizes[rows, None] - sizes):
            T1, T2 = Tope._wrap(signs[rows.start + i]), Tope._wrap(signs[j])
            bad.append(f"{T1}, {T2}: size difference mismatch")
    return bad


def sweep_negpart_cardinalities(t: int) -> list:
    """Negative-part size and meet/join cardinalities against mask popcounts."""
    bad = []
    masks, signs, _, _ = _mask_rows(t)
    spectra = []
    for m in range(masks.shape[0]):
        T = Tope._wrap(signs[m])
        x = spectrum_fast(T)
        spectra.append(x.coords)
        if negpart_size_from_spectrum(x) != m.bit_count():
            bad.append(f"{T}: negative-part size from spectrum != {m.bit_count()}")
    spectra = np.stack(spectra)
    for rows in _row_blocks(masks.shape[0], t):
        meet = np.bitwise_count(masks[rows, None] & masks)
        join = np.bitwise_count(masks[rows, None] | masks)
        spectral = _meet_join_from_spectra(spectra[rows, None], spectra[None])
        wrong_spectra = (spectral[0] != meet) | (spectral[1] != join)
        cards = _meet_join_cards(signs[rows, None], signs[None])
        wrong_cards = (cards[0] != meet) | (cards[1] != join)
        for i, j in np.argwhere(wrong_spectra | wrong_cards):
            T1, T2 = Tope._wrap(signs[rows.start + i]), Tope._wrap(signs[j])
            want = (int(meet[i, j]), int(join[i, j]))
            if wrong_spectra[i, j]:
                got = (int(spectral[0][i, j]), int(spectral[1][i, j]))
                bad.append(f"{T1}, {T2}: meet/join {got} != {want}")
            if wrong_cards[i, j]:
                bad.append(f"{T1}, {T2}: inner-product meet/join != direct")
    return bad


def sweep_unit_flip_spectra(t: int) -> list:
    """Unit-flip sums and the boundary-case display against the dense route."""
    bad = []
    plus = Tope.positive(t)
    for A in _all_subsets(t):
        want = spectrum_dense(reorient(plus, A))
        via_flips = spectrum_from_unit_flips(A)
        via_cases = spectrum_from_boundary_cases(A)
        if via_flips != want:
            bad.append(f"A={A}: unit-flip sum != dense spectrum")
        if via_cases != want:
            bad.append(f"A={A}: boundary-case display != dense spectrum")
        if via_flips != -spectrum_from_unit_flips(A.complement()):
            bad.append(f"A={A}: complement negation law failed")
    return bad


def sweep_oracle(t: int) -> list:
    """Brute-force minimal decompositions equal the spectral ones, uniquely."""
    bad = []
    for T in _all_topes(t):
        result = bruteforce_minimal_decomposition(T)
        d = decomposition_set(T)
        if not result.unique:
            bad.append(f"{T}: minimal decomposition is not unique")
        if result.minimal_set != d.vertex_indices():
            bad.append(f"{T}: oracle set {sorted(result.minimal_set)} != spectral set")
        if len(result.minimal_set) != spectrum_fast(T).support_size:
            bad.append(f"{T}: oracle cardinality != squared spectrum norm")
    return bad


# Caps keep every sweep inside desk scale when verify is run at larger t; a
# capped sweep is reported as skipped, not silently shrunk.  The pairwise
# sweeps cover 4^t pairs, so each step up in t quadruples their time.
_SWEEPS = (
    ("cycle-structure", sweep_cycle_structure, None),
    ("matrix-identities", sweep_matrix_identities, 64),
    ("spectrum-methods", sweep_spectrum_methods, 14),
    ("decompositions", sweep_decompositions, 12),
    ("spectrum-updates", sweep_spectrum_updates, None),
    ("counting", sweep_counting, ENUMERATION_CAP),
    ("boundary-classes", sweep_boundary_classes, 12),
    ("equinumerosity", sweep_equinumerosity, 11),
    ("size-difference", sweep_size_difference, 11),
    ("negpart-cardinalities", sweep_negpart_cardinalities, 11),
    ("flip-spectra", sweep_unit_flip_spectra, 12),
)


def run_all(t: int, oracle_max: int = 7) -> dict:
    """Run every sweep at dimension t, skipping those whose cap is below t.

    Returns {sweep name: list of mismatches}; a skipped sweep maps to the
    single entry "skipped".  The oracle sweep runs at min(t, oracle_max).
    """
    results = {}
    for name, sweep, cap in _SWEEPS:
        if cap is not None and t > cap:
            results[name] = ["skipped"]
        else:
            results[name] = sweep(t)
    if t <= oracle_max:
        results["oracle"] = sweep_oracle(t)
    else:
        results["oracle"] = ["skipped"]
    return results


def failures(results: dict) -> list:
    """Flatten run_all output to real mismatches (skips excluded)."""
    flat = []
    for name, issues in results.items():
        for issue in issues:
            if issue != "skipped":
                flat.append(f"{name}: {issue}")
    return flat
