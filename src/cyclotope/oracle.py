"""Brute-force ground truth for minimality and uniqueness of decompositions.

The oracle knows nothing about spectra.  It enumerates every subset of the
2t cycle vertices, sums each one, and ranks solutions by cardinality.  That
independence is the point: it certifies the algebraic route at small t.  The
subsets are scanned in row blocks, so memory stays bounded up to the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import numpy as np

from .cycle import cycle_vertex
from .errors import CapExceeded, VerificationMismatch
from .topes import Tope, _row_blocks

ORACLE_CAP = 10


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the subset search.

    minimal_set: cycle positions (0-based, on the full 2t-cycle) of the
        minimal solution.
    unique: whether exactly one solution of minimal cardinality exists.
    candidates_checked: number of vertex subsets whose sums were examined.
    """

    minimal_set: frozenset
    unique: bool
    candidates_checked: int


@lru_cache(maxsize=4)
def _search_table(t: int) -> tuple:
    """The subset search for all 2^t topes at once, indexed by tope bitmask.

    Subset lo | hi << t of the 2t cycle vertices sums to low[lo] + high[hi],
    the sums of its positions in 0..t-1 and in t..2t-1.  This pair grid is
    scanned in row blocks of hi that keep the subsets whose sum is a +-1
    vector, each keyed by the bitmask of its sum.  Per tope it returns
    (least, ties, minimal, intruder): the least cardinality of a solution
    (-1 when there is none), how many solutions have it, the first of those
    in ascending subset order, and the first solution of size at most t
    that does not contain it (-1 when every one does).  Above ORACLE_CAP it
    raises CapExceeded before building anything.
    """
    if t > ORACLE_CAP:
        raise CapExceeded(f"oracle subset space 4^{t} exceeds the cap (t <= {ORACLE_CAP})")
    vertices = np.array([cycle_vertex(t, b) for b in range(2 * t)], dtype=np.int16)
    members = ((np.arange(1 << t)[:, None] >> np.arange(t)) & 1).astype(np.int16)
    low, high = members @ vertices[:t], members @ vertices[t:]
    weights = 1 << np.arange(t, dtype=np.int64)
    found, keys = [], []
    for rows in _row_blocks(1 << t, (1 << t) * t):
        sums = high[rows, None] + low
        hi, lo = np.nonzero((np.abs(sums) == 1).all(axis=-1))
        # np.nonzero is row-major: ascending hi, then lo, so ascending subsets.
        found.append(lo | (hi + rows.start) << t)
        keys.append((sums[hi, lo] < 0) @ weights)
    found, keys = np.concatenate(found), np.concatenate(keys)
    sizes = np.bitwise_count(found).astype(np.int64)
    # Sorted by tope, then size; the stable sort keeps each tie in
    # ascending subset order, so the first row of a tope is its minimal one.
    order = np.lexsort((sizes, keys))
    heads = order[np.flatnonzero(np.diff(keys[order], prepend=-1))]
    least = np.full(1 << t, -1, dtype=np.int64)
    minimal = np.zeros(1 << t, dtype=np.int64)
    least[keys[heads]] = sizes[heads]
    minimal[keys[heads]] = found[heads]
    ties = np.bincount(keys[sizes == least[keys]], minlength=1 << t)
    # Inclusion-minimality: every solution that could threaten minimality
    # (size at most t) must be a superset of the minimal one.
    within = minimal[keys]
    outside = (sizes <= t) & (found & within != within)
    intruder = np.full(1 << t, -1, dtype=np.int64)
    tope, first = np.unique(keys[outside], return_index=True)
    intruder[tope] = found[outside][first]
    for column in (least, ties, minimal, intruder):
        column.flags.writeable = False
    return least, ties, minimal, intruder


def bruteforce_minimal_decomposition(T: Tope) -> OracleResult:
    """Search all subsets of cycle vertices for minimal sums equal to T.

    Solutions are ranked by cardinality; the least cardinality is asserted
    to be odd (not assumed), the solution there is checked for uniqueness,
    and every other solution of size at most t is checked to contain the
    minimal one, certifying inclusion-minimality.  The search runs for all
    2^t topes at once (_search_table) and T reads its entry.
    """
    t = T.t
    least, ties, minimal, intruder = (int(column[T.bitmask]) for column in _search_table(t))
    if least < 0:
        raise VerificationMismatch(f"no vertex subset sums to {T}; table corrupt")
    if least % 2 == 0:
        raise VerificationMismatch(f"minimal solution for {T} has even size {least}")
    if intruder >= 0:
        raise VerificationMismatch(
            f"solution {intruder:b} is not a superset of the minimal {minimal:b}")
    positions = frozenset(b for b in range(2 * t) if minimal >> b & 1)
    return OracleResult(
        minimal_set=positions,
        unique=(ties == 1),
        candidates_checked=1 << (2 * t),
    )
