"""Counting formulas for decomposition sizes, with an exact tally as a cross-check.

The central table counts topes by (j, l) where j is the size of the negative
part and l the size of the minimal decomposition.  Closed forms exist for
every cell; enumerate_statistics tallies all 2^t topes exactly, in one pass
over the coordinates, as an independent check.  Counts are exact
arbitrary-precision integers throughout.
"""

from __future__ import annotations

import bisect
import math
from itertools import accumulate, repeat
from operator import add, mul
from typing import Iterable, Optional

import numpy as np

from .errors import CapExceeded, VerificationMismatch
from .topes import _check_dimension, _integer

ENUMERATION_CAP = 32

_CLASSES = ("left-only", "right-only", "both-ends", "neither")


def _binom0(n: int, k: int) -> int:
    """Binomial coefficient with the everywhere-zero out-of-range convention."""
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _check_negpart(j: int, t: int) -> int:
    """j, an int, unless it lies outside [0, t]: then ValueError."""
    if not 0 <= j <= t:
        raise ValueError(f"negative-part size must lie in [0, {t}], got {j}")
    return j


def _check_odd_l(l: int, t: int) -> int:
    """l, an int, unless it is even or outside [3, t]: then ValueError."""
    if l % 2 == 0 or not 3 <= l <= t:
        raise ValueError(f"this count needs odd l in [3, {t}], got {l}")
    return l


def _check_size(l: int, t: int) -> int:
    """l, an int, unless it is even or outside [1, t]: then ValueError."""
    if l % 2 == 0 or not 1 <= l <= t:
        raise ValueError(f"decomposition sizes are odd and in [1, {t}], got {l}")
    return l


def composition_count(m: int, n: int) -> int:
    """Number of ways to write n as an ordered sum of m positive parts.

    Equals C(n-1, m-1); in particular 0 when m > n and when m = 0 != n.
    """
    m, n = _integer(m), _integer(n)
    if m < 0 or n < 0:
        raise ValueError("composition arguments must be nonnegative")
    if m > n or (m == 0 and n != 0):
        return 0
    return _binom0(n - 1, m - 1)


def count_topes_by_size(t: int, l: int) -> int:
    """Number of topes whose minimal decomposition has exactly l terms: 2*C(t,l)."""
    t = _check_dimension(t)
    return 2 * math.comb(t, _check_size(_integer(l), t))


def count_cycle_topes_by_negpart(t: int, j: int) -> int:
    """Number of size-1 decompositions with negative part of size j.

    The size-1 topes are exactly the 2t cycle vertices; walking the cycle
    shows each negative-part size 1..t-1 occurs twice and sizes 0 and t once.
    """
    t = _check_dimension(t)
    j = _check_negpart(_integer(j), t)
    return 1 if j in (0, t) else 2


def count_by_negpart_and_size(t: int, j: int, l: int) -> int:
    """Number of topes with |T^-| = j and minimal decomposition size l >= 3.

    Zero outside the window (l-1)/2 <= j <= t-(l-1)/2.  Inside it, the
    count is C(j-1, h) C(t-j, h) + C(t-j-1, h) C(j, h) with h = (l-1)/2, the
    cheapest of the printed closed forms, form 2; verification.sweep_counting
    and the tests check it and forms 1 and 3 against the tally.  The count
    is symmetric under j <-> t-j.
    """
    t, j, l = _check_dimension(t), _integer(j), _integer(l)
    _check_odd_l(l, t)
    _check_negpart(j, t)
    h = (l - 1) // 2
    if j < h or j > t - h:
        return 0
    return _binom0(j - 1, h) * _binom0(t - j, h) + _binom0(t - j - 1, h) * _binom0(j, h)


def count_by_boundary_class(t: int, l: int, case: str, j: Optional[int] = None) -> int:
    """Counts refined by how the negative part meets the boundary pair {1, t}.

    Topes with decomposition size l whose negative parts touch exactly the
    left boundary, exactly the right, both ends, or neither.  Without j the
    class totals are returned; with j the count is restricted to negative
    parts of size j (zero outside the class's j-window).
    """
    t, l = _check_dimension(t), _check_odd_l(_integer(l), t)
    if case not in _CLASSES:
        raise ValueError(f"unknown case {case!r}, expected one of {_CLASSES}")
    if j is None:
        if case in ("left-only", "right-only"):
            return _binom0(t - 1, l)
        return _binom0(t - 1, l - 1)
    j = _check_negpart(_integer(j), t)
    h = (l - 1) // 2
    p = (l + 1) // 2
    c = composition_count
    if case in ("left-only", "right-only"):
        return c(p, j) * c(p, t - j)
    if case == "both-ends":
        return c(p, j) * c(h, t - j)
    return c(h, j) * c(p, t - j)


def count_subsets_by_boundary(t: int, rho: int, boundary: int) -> int:
    """Number of subsets of the ground set with rho intervals and the given
    boundary overlap (how many of {1, t} they contain: 0, 1 or 2)."""
    t, rho, boundary = _check_dimension(t), _integer(rho), _integer(boundary)
    if boundary not in (0, 1, 2):
        raise ValueError(f"boundary overlap must be 0, 1 or 2, got {boundary}")
    if rho < 0:
        raise ValueError(f"interval count must be nonnegative, got {rho}")
    if rho == 0:
        # Only the empty set has zero intervals.
        return 1 if boundary == 0 else 0
    if boundary == 1:
        return 2 * _binom0(t - 1, 2 * rho - 1)
    if boundary == 2:
        return _binom0(t - 1, 2 * (rho - 1))
    return _binom0(t - 1, 2 * rho)


def _cell_order(row: tuple) -> tuple:
    # The (l, j) order that CountTable rows are sorted by.
    return row[1], row[0]


class CountTable:
    """Rows (j, l, count) sorted by (l, j), for one dimension t."""

    __slots__ = ("_t", "_rows")

    def __init__(self, t: int, rows: Iterable[tuple]):
        self._t = _check_dimension(t)
        rs = tuple((_integer(j), _integer(l), _integer(c)) for j, l, c in rows)
        if list(rs) != sorted(rs, key=_cell_order):
            raise ValueError("rows must be sorted by (l, j)")
        for j, l, c in rs:
            if c < 0:
                raise ValueError(f"negative count at (j={j}, l={l})")
        for k, (j, l, _) in enumerate(rs):
            _check_negpart(j, self._t)
            _check_size(l, self._t)
            if k and rs[k - 1][:2] == (j, l):
                raise ValueError(f"repeated cell (j={j}, l={l})")
        self._rows = rs

    @classmethod
    def _wrap(cls, t: int, rows: tuple) -> "CountTable":
        # Trusted constructor: rows are (j, l, count) tuples of Python ints
        # with count >= 0, already in (l, j) order.
        self = object.__new__(cls)
        self._t = t
        self._rows = rows
        return self

    @property
    def t(self) -> int:
        return self._t

    @property
    def rows(self) -> tuple:
        return self._rows

    def total(self) -> int:
        return sum(c for _, _, c in self._rows)

    def count(self, j: int, l: int) -> int:
        """The count of cell (j, l), 0 for a cell without a row; O(log rows)."""
        j, l = _integer(j), _integer(l)
        k = bisect.bisect_left(self._rows, (l, j), key=_cell_order)
        if k < len(self._rows) and self._rows[k][:2] == (j, l):
            return self._rows[k][2]
        return 0

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CountTable):
            return NotImplemented
        return self._t == other._t and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._t, self._rows))


def _mirror(half: list, t: int) -> list:
    """The whole column from its first half by j <-> t-j; an even t's middle is its own."""
    return half + half[-1 - (t % 2 == 0) :: -1]


def _table_columns(t: int):
    """The columns of formula_table as (l, j0, half), in l order, one binomial
    column at a time.  half holds the cells j = j0..t//2 of column l, and
    _mirror(half, t) the whole column, j = j0..t-j0.

    This is the batch form of count_by_negpart_and_size.  With h = (l-1)/2
    and u_j = C(j-1, h) C(t-j, h), the cell (j, l) is u_j + u_{j+1}: the
    second product of the scalar form, C(j, h) C(t-j-1, h), is u_{j+1}.  So a
    column takes one product per cell, u_j for j = h..t//2+1, and sums
    adjacent pairs.  The products read C(n, h) only for n in [h-1, t-h], so
    col holds that window, and column h follows from column h-1 by one running
    sum, C(n, h) = C(n-1, h) + C(n-1, h-1), which drops one entry at each end.
    With col[k] = C(h-1+k, h), u_{h+k} = col[k] col[-1-k].  Column l = 1 holds
    the 2t cycle vertices: one each at j = 0 and j = t, two at every other j.
    """
    yield 1, 0, [1] + [2] * (t // 2)
    col = [0] + [1] * (t + 1)  # C(n, 0) for n = -1..t
    for h in range(1, (t - 1) // 2 + 1):
        col = [0, *accumulate(col[1 : t - 2 * h + 2])]
        u = list(map(mul, col[: t // 2 - h + 2], reversed(col)))
        yield 2 * h + 1, h, list(map(add, u, u[1:]))


def _table_rows(t: int):
    """The rows (j, l, count) of formula_table in (l, j) order: each column of
    _table_columns mirrored and yielded in turn, so only one column is held."""
    for l, j0, half in _table_columns(t):
        yield from zip(range(j0, t - j0 + 1), repeat(l), _mirror(half, t))


def formula_table(t: int) -> CountTable:
    """The full (j, l) count table from the closed forms alone."""
    t = _check_dimension(t)
    return CountTable._wrap(t, tuple(_table_rows(t)))


def _pass(length: int, width: int) -> tuple:
    """The transfer-matrix pass: the sign vectors of the given length counted
    by their last sign, as (plus, minus), each indexed [first sign (+ as 0),
    j * width + c], where j counts the -1's and c the adjacent sign changes.
    One coordinate is appended at a time: a + adds a change after a -; a -
    adds 1 to j, and a change after a +.  For width > length no shift, by 1
    (c + 1) or by width (j + 1), leaves its row: j <= length and c < length.
    """
    plus, minus = np.zeros((2, 2, width * width), dtype=np.int64)
    plus[0, 0] = minus[1, width] = 1
    for _ in range(length - 1):
        grown = np.zeros_like(minus)
        grown[:, width:] = minus[:, :-width]
        grown[:, width + 1 :] += plus[:, : -width - 1]
        plus[:, 1:] += minus[:, :-1]
        minus = grown
    return plus, minus


def enumerate_statistics(t: int) -> CountTable:
    """Tally all 2^t topes by (negative-part size, decomposition size).

    j is the number of -1 coordinates and l the number of adjacent sign
    changes c, plus one when the first and last signs agree.  One _pass over
    the coordinates counts them all in int64, exact since no count exceeds
    2^t.  Raises CapExceeded above ENUMERATION_CAP; use the formula path
    beyond it.
    """
    _check_dimension(t)
    if t > ENUMERATION_CAP:
        raise CapExceeded(
            f"enumeration over 2^{t} topes exceeds the cap of 2^{ENUMERATION_CAP}; "
            "use formula_table instead"
        )
    width = t + 1
    plus, minus = _pass(t, width)
    counts, agree = plus[1] + minus[0], plus[0] + minus[1]
    counts[1:] += agree[:-1]  # l = c, plus one where the first and last signs agree
    columns = counts.reshape(width, width).T.tolist()
    total = sum(map(sum, columns))
    if total != 1 << t:
        raise VerificationMismatch(f"tally lost topes: {total} != 2^{t}")
    rows = tuple((j, l, c) for l, column in enumerate(columns) for j, c in enumerate(column) if c)
    return CountTable._wrap(t, rows)
