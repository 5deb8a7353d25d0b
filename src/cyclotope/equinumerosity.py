"""Criteria deciding when two topes have equal-size minimal decompositions.

The reorientation of T on a subset A changes the decomposition size by a
quantity supported on the boundary of A: only adjacent coordinate pairs
split by A (and the wrap-around pair {1, t}) contribute.  This gives an
O(t) criterion with no spectra involved, an exact integer indicator for
arbitrary tope pairs, and a purely structural rule in terms of interval
counts when both topes are reorientations of the all-plus tope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySetError, NotProperSubset
from .topes import GroundSubset, Tope, _require_same_t, interval_partition


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of the boundary-sum criterion.

    equal: whether the criterion declares the sizes equal.
    lhs_sum: the boundary sum over adjacent pairs split by A.
    rhs: the required value (T(1)*T(t) when A contains exactly one of {1, t},
        else 0).
    """

    equal: bool
    lhs_sum: int
    rhs: int


def _boundary_sum(signs: np.ndarray, split: np.ndarray) -> tuple:
    """(lhs, rhs) of the boundary sum of sign vectors over split masks.

    lhs sums T(i)*T(i+1) over the adjacent pairs that the mask splits (one
    coordinate inside, one outside); rhs is T(1)*T(t) when the mask splits
    the corner pair {1, t}, else 0.  Works along the last axis of int8 sign
    and boolean mask arrays that broadcast against each other.
    """
    cut = split[..., 1:] != split[..., :-1]
    # |lhs| < t and |rhs - lhs| <= t, so below t = 2^15 int16 is exact; it
    # accumulates the int8 terms about twice as fast as int64.
    acc = np.int16 if signs.shape[-1] < 1 << 15 else np.int64
    lhs = np.add.reduce(cut * (signs[..., 1:] * signs[..., :-1]), axis=-1, dtype=acc)
    # The mask splits the corner pair exactly when it splits an odd number
    # of adjacent pairs, and lhs has the parity of that number.  [()] turns
    # the 0-d views of a 1-d signs into scalars, which multiply cheaply.
    rhs = (lhs & 1) * (signs[..., 0][()] * signs[..., -1][()])
    return lhs, rhs


def equal_size_criterion(T: Tope, A: GroundSubset) -> CriterionReport:
    """Decide |Q(T)| = |Q(reorient(T, A))| from the boundary of A alone.

    Sums T(i)*T(i+1) over the positions i where exactly one of {i, i+1}
    lies in A.  The sizes agree exactly when this sum equals T(1)*T(t) if A
    contains exactly one boundary coordinate, and 0 otherwise.  A must be a
    proper subset; for the full set the sizes agree trivially (antipodes).
    """
    _require_same_t(T, A)
    if len(A) == T.t:
        raise NotProperSubset("the criterion is stated for proper subsets only")
    lhs, rhs = _boundary_sum(T.signs, A.inside)
    lhs, rhs = int(lhs), int(rhs)
    return CriterionReport(equal=(lhs == rhs), lhs_sum=lhs, rhs=rhs)


def equinumerosity_indicator(T1: Tope, T2: Tope) -> int:
    """Exact integer that vanishes iff the two decomposition sizes agree.

    Four times the sum of T1(i)*T1(j) times the inverse Gram pairing over
    unordered pairs {i, j} split by the separation set.  Only adjacent pairs
    and the (1, t) pair can contribute, so the sum is O(t).
    """
    _require_same_t(T1, T2)
    # Four times the inverse Gram matrix is -1 on adjacent pairs and +1 on
    # the corner pair {1, t}, so the pairing is the boundary sum negated on
    # the adjacent part.
    lhs, rhs = _boundary_sum(T1.signs, T1.signs != T2.signs)
    return int(rhs - lhs)


def equal_size_by_interval_count(A: GroundSubset, B: GroundSubset) -> bool:
    """Structural equal-size rule for reorientations of the all-plus tope.

    When A and B agree on whether they touch the boundary pair {1, t}, the
    sizes agree iff their interval counts agree; when exactly one touches,
    the toucher needs one more interval than the other.
    """
    _require_same_t(A, B)
    if not len(A) or not len(B):
        raise EmptySetError("both subsets must be nonempty")
    return _interval_count_rule(
        interval_partition(A).rho, A.boundary_count > 0,
        interval_partition(B).rho, B.boundary_count > 0,
    )


def _interval_count_rule(rho_a, touch_a, rho_b, touch_b):
    # Elementwise over interval counts and boundary flags, as numbers or
    # arrays.  Equal flags need equal counts; otherwise the toucher needs
    # one interval more.  Both cases read rho_a - touch_a == rho_b - touch_b,
    # because a nonempty negative part with rho intervals gives 2*rho - 1
    # terms when it touches {1, t} and 2*rho + 1 when it does not.
    return rho_a - touch_a == rho_b - touch_b
