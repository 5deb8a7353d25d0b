"""Brute-force ground truth for minimality and uniqueness of decompositions.

The oracle knows nothing about spectra.  It enumerates every subset of the
2t cycle vertices, sums each one, and ranks solutions by cardinality.  That
independence is the point: it certifies the algebraic route at small t.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import numpy as np

from .cycle import cycle_vertex
from .errors import BudgetExceeded, CyclotopeError
from .topes import Tope

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
def _subset_sums(t: int):
    """Sums of every subset of the 2t cycle vertices, plus subset popcounts.

    Row b of the table is the entrywise sum over the vertices whose bit is
    set in b.  Built by doubling: each new vertex adds its signs to the
    previous half of the table.  Entries stay within +-2t, so int16 is safe
    up to the oracle cap.
    """
    n = 2 * t
    sums = np.zeros((1 << n, t), dtype=np.int16)
    for b in range(n):
        block = 1 << b
        sums[block : 2 * block] = sums[:block] + cycle_vertex(t, b).astype(np.int16)
    popcounts = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    return sums, popcounts


def bruteforce_minimal_decomposition(T: Tope) -> OracleResult:
    """Search all subsets of cycle vertices for minimal sums equal to T.

    Solutions are ranked by cardinality; the least cardinality is asserted
    to be odd (not assumed), the solution there is checked for uniqueness,
    and every other solution of size at most t is checked to contain the
    minimal one, certifying inclusion-minimality.
    """
    t = T.t
    if t > ORACLE_CAP:
        raise BudgetExceeded(f"oracle subset space 4^{t} exceeds the cap (t <= {ORACLE_CAP})")
    sums, popcounts = _subset_sums(t)
    matches = np.flatnonzero((sums == T.signs.astype(np.int16)).all(axis=1))
    if matches.size == 0:
        raise CyclotopeError(f"no vertex subset sums to {T}; table corrupt")
    pc = popcounts[matches]
    least = int(pc.min())
    if least % 2 == 0:
        raise CyclotopeError(f"minimal solution for {T} has even size {least}")
    at_least = matches[pc == least]
    minimal_mask = int(at_least[0])
    # Inclusion-minimality: every solution that could threaten minimality
    # (size at most t) must be a superset of the minimal one.
    for mask in matches[pc <= t]:
        if int(mask) & minimal_mask != minimal_mask:
            raise CyclotopeError(
                f"solution {int(mask):b} is not a superset of the minimal {minimal_mask:b}"
            )
    positions = frozenset(b for b in range(2 * t) if minimal_mask >> b & 1)
    return OracleResult(
        minimal_set=positions,
        unique=(at_least.size == 1),
        candidates_checked=1 << (2 * t),
    )
