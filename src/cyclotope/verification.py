"""Independent cross-checks of the production formulas, as exhaustive sweeps.

The library evaluates each quantity through one formula.  The sweeps here
compare it against references that never run on the production path: full
enumeration, the other printed closed forms, the dense matrix route, direct
set arithmetic and the brute-force oracle.  Each sweep returns a list of
human-readable mismatch strings; an empty list means the sweep passed.  The
CLI `verify` subcommand runs every sweep; the acceptance tests reuse the
pairwise ones.

Sweeps that enumerate pairs of topes grow as 4^t; callers cap t accordingly
(run_all applies sensible caps and reports skipped sweeps).
"""

from __future__ import annotations

import random

import numpy as np

from .counting import (
    _closed_form_values,
    count_by_boundary_class,
    count_by_negpart_and_size,
    count_cycle_topes_by_negpart,
    count_subsets_by_boundary,
    count_topes_by_size,
    enumerate_statistics,
)
from .cycle import build_cycle, gram_entry, inverse_gram_entry, inverse_gram_matrix, inverse_rows, tope_matrix
from .decomposition import (
    decomposition_set,
    negpart_meet_join_from_spectra,
    negpart_size_from_spectrum,
    reconstruct_tope,
    spectrum_dense,
    spectrum_fast,
    spectrum_from_boundary_cases,
    spectrum_from_unit_flips,
    spectrum_intervals,
    spectrum_update,
    size_difference,
)
from .equinumerosity import equal_size_by_interval_count, equal_size_criterion, equinumerosity_indicator
from .oracle import bruteforce_minimal_decomposition
from .topes import (
    GroundSubset,
    Tope,
    interval_partition,
    negative_part,
    negpart_meet_join_cards,
    reorient,
    separation_set,
)


def _all_topes(t):
    for mask in range(1 << t):
        yield Tope.from_bitmask(mask, t)


def _all_subsets(t):
    for mask in range(1 << t):
        yield GroundSubset(t, [e + 1 for e in range(t) if mask >> e & 1])


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


def sweep_decompositions(t: int) -> list:
    """All 2^t topes: term structure and entrywise vertex-sum reconstruction."""
    bad = []
    for T in _all_topes(t):
        d = decomposition_set(T)
        if d.size % 2 != 1:
            bad.append(f"{T}: even term count {d.size}")
        if not np.array_equal(d.vertex_sum(), T.signs.astype(np.int64)):
            bad.append(f"{T}: signed vertex sum does not reproduce the tope")
        if d.size != spectrum_fast(T).support_size:
            bad.append(f"{T}: term count differs from spectrum support")
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

    Each cell is compared with the production count and with each of the
    four printed forms from _closed_form_values.
    """
    bad = []
    table = enumerate_statistics(t)
    if table.total() != 1 << t:
        bad.append(f"t={t}: table total {table.total()} != 2^{t}")
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
    """Criterion, indicator and interval rule against direct size comparison."""
    bad = []
    topes = list(_all_topes(t))
    sizes = {str(T): spectrum_fast(T).support_size for T in topes}
    subsets = list(_all_subsets(t))
    for T in topes:
        base = sizes[str(T)]
        for A in subsets:
            if len(A) == t:
                continue
            direct = base == sizes[str(reorient(T, A))]
            report = equal_size_criterion(T, A)
            if report.equal != direct:
                bad.append(f"{T}, A={A}: criterion {report.equal} != direct {direct}")
    for T1 in topes:
        s1 = sizes[str(T1)]
        for T2 in topes:
            ind = equinumerosity_indicator(T1, T2)
            if (ind == 0) != (s1 == sizes[str(T2)]):
                bad.append(f"{T1}, {T2}: indicator {ind} vs sizes {s1}, {sizes[str(T2)]}")
            if ind != size_difference(T1, T2):
                bad.append(f"{T1}, {T2}: indicator != size difference")
    plus = Tope.positive(t)
    nonempty = [A for A in subsets if len(A)]
    for A in nonempty:
        size_a = sizes[str(reorient(plus, A))]
        for B in nonempty:
            want = size_a == sizes[str(reorient(plus, B))]
            if equal_size_by_interval_count(A, B) != want:
                bad.append(f"A={A}, B={B}: interval rule != direct comparison")
    return bad


def sweep_size_difference(t: int) -> list:
    """Inner-product size difference against direct subtraction, all pairs."""
    bad = []
    topes = list(_all_topes(t))
    sizes = [spectrum_fast(T).support_size for T in topes]
    for a, T1 in enumerate(topes):
        for b, T2 in enumerate(topes):
            if size_difference(T1, T2) != sizes[a] - sizes[b]:
                bad.append(f"{T1}, {T2}: size difference mismatch")
    return bad


def sweep_negpart_cardinalities(t: int) -> list:
    """Negative-part size and meet/join cardinalities from spectra alone."""
    bad = []
    topes = list(_all_topes(t))
    spectra = [spectrum_fast(T) for T in topes]
    for T, x in zip(topes, spectra):
        direct = len(negative_part(T))
        if negpart_size_from_spectrum(x) != direct:
            bad.append(f"{T}: negative-part size from spectrum != {direct}")
    for T1, x1 in zip(topes, spectra):
        neg1 = set(negative_part(T1))
        for T2, x2 in zip(topes, spectra):
            neg2 = set(negative_part(T2))
            want = (len(neg1 & neg2), len(neg1 | neg2))
            got = negpart_meet_join_from_spectra(x1, x2)
            if got != want:
                bad.append(f"{T1}, {T2}: meet/join {got} != {want}")
            if negpart_meet_join_cards(T1, T2) != want:
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
    cycle = build_cycle(t)
    for T in _all_topes(t):
        result = bruteforce_minimal_decomposition(T, cycle)
        d = decomposition_set(T)
        if not result.unique:
            bad.append(f"{T}: minimal decomposition is not unique")
        if result.minimal_set != d.vertex_indices():
            bad.append(f"{T}: oracle set {sorted(result.minimal_set)} != spectral set")
        if len(result.minimal_set) != spectrum_fast(T).support_size:
            bad.append(f"{T}: oracle cardinality != squared spectrum norm")
    return bad


# Caps keep the pairwise 4^t sweeps inside desk scale when verify is run at
# larger t; a capped sweep is reported as skipped, not silently shrunk.
_SWEEPS = (
    ("cycle-structure", sweep_cycle_structure, None),
    ("matrix-identities", sweep_matrix_identities, 64),
    ("spectrum-methods", sweep_spectrum_methods, 14),
    ("decompositions", sweep_decompositions, 12),
    ("spectrum-updates", sweep_spectrum_updates, None),
    ("counting", sweep_counting, 14),
    ("boundary-classes", sweep_boundary_classes, 12),
    ("equinumerosity", sweep_equinumerosity, 8),
    ("size-difference", sweep_size_difference, 8),
    ("negpart-cardinalities", sweep_negpart_cardinalities, 8),
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
