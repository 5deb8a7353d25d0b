"""Sign vectors on the hypercube and subsets of their coordinate ground set.

A tope is a vertex of the hypercube graph H(t,2), stored as a vector of t
signs indexed 1..t.  The ground set E_t = {1,...,t} is the index set of the
coordinates; subsets of it drive reorientations (sign flips on the chosen
coordinates).
"""

from __future__ import annotations

import operator
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, DimensionTooSmall, EmptySetError

MIN_DIMENSION = 3


def _check_dimension(t: int) -> int:
    t = int(t)
    if t < MIN_DIMENSION:
        raise DimensionTooSmall(f"dimension must be >= {MIN_DIMENSION}, got {t}")
    return t


def _index(value) -> int:
    """An exact integer: bools and floats raise TypeError instead of coercing."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got a bool: {value!r}")
    return operator.index(value)


def _int_array(values, what: str) -> np.ndarray:
    """values as a 1-d integer array, rejecting bool, float and object data."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"a {what} is a one-dimensional vector")
    _check_dimension(arr.shape[0])
    if arr.dtype.kind not in "iu":
        raise TypeError(f"{what} entries must be integers, got dtype {arr.dtype}")
    return arr


class Tope:
    """An immutable vertex of H(t,2): t entries, each +1 or -1, indexed 1..t.

    The packed-bit form used by :meth:`from_bitmask` / :attr:`bitmask` maps
    entry e to bit e-1 with +1 <-> 0 and -1 <-> 1, so the all-plus tope is
    mask 0 and the all-minus tope is mask 2**t - 1.
    """

    __slots__ = ("_signs", "_mask")

    def __init__(self, signs: Iterable[int]):
        arr = _int_array(signs, "tope")
        # Check the original values: an int8 cast would wrap 257 to 1.
        if not np.all(np.abs(arr) == 1):
            raise ValueError("tope entries must be exactly +1 or -1")
        arr = arr.astype(np.int8)
        arr.flags.writeable = False
        self._signs = arr
        self._mask = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tope":
        # Trusted constructor: arr is already a validated +-1 int8 vector.
        self = object.__new__(cls)
        arr.flags.writeable = False
        self._signs = arr
        self._mask = None
        return self

    @classmethod
    def positive(cls, t: int) -> "Tope":
        """The all-plus tope."""
        return cls._wrap(np.ones(_check_dimension(t), dtype=np.int8))

    @classmethod
    def negative(cls, t: int) -> "Tope":
        """The all-minus tope (antipode of the all-plus tope)."""
        return cls._wrap(np.full(_check_dimension(t), -1, dtype=np.int8))

    @classmethod
    def from_string(cls, text: str) -> "Tope":
        """Parse a '+'/'-' string such as "++-+-"."""
        raw = np.frombuffer(text.encode(), dtype=np.uint8)
        plus = raw == ord("+")
        if not text or not (plus | (raw == ord("-"))).all():
            raise ValueError(f"tope string must be nonempty over '+'/'-': {text!r}")
        _check_dimension(raw.shape[0])
        return cls._wrap(plus.view(np.int8) * np.int8(2) - np.int8(1))

    @classmethod
    def from_bitmask(cls, mask: int, t: int) -> "Tope":
        """Unpack a bitmask: bit e-1 set means entry e is -1."""
        t = _check_dimension(t)
        mask = _index(mask)
        if not 0 <= mask < (1 << t):
            raise ValueError(f"mask {mask} out of range for t={t}")
        raw = mask.to_bytes((t + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=t, bitorder="little")
        return cls._wrap(np.where(bits == 1, -1, 1).astype(np.int8))

    @property
    def t(self) -> int:
        return self._signs.shape[0]

    @property
    def signs(self) -> np.ndarray:
        """Read-only int8 view of the entries (position k holds entry k+1)."""
        return self._signs

    @property
    def bitmask(self) -> int:
        if self._mask is None:
            packed = np.packbits(self._signs < 0, bitorder="little")
            self._mask = int.from_bytes(packed.tobytes(), "little")
        return self._mask

    def sign(self, e: int) -> int:
        """Entry at 1-based coordinate e."""
        if not 1 <= e <= self.t:
            raise IndexError(f"coordinate {e} out of range [1, {self.t}]")
        return int(self._signs[e - 1])

    def __neg__(self) -> "Tope":
        return Tope._wrap(-self._signs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tope):
            return NotImplemented
        return self.t == other.t and bool(np.array_equal(self._signs, other._signs))

    def __hash__(self) -> int:
        return hash((self.t, self._signs.tobytes()))

    def __str__(self) -> str:
        return "".join("+" if v > 0 else "-" for v in self._signs)

    def __repr__(self) -> str:
        return f"Tope({str(self)!r})"


class GroundSubset:
    """An immutable subset of the coordinate ground set E_t = {1,...,t}."""

    __slots__ = ("_t", "_members")

    def __init__(self, t: int, members: Iterable[int] = ()):
        self._t = _check_dimension(t)
        ms = tuple(sorted(map(_index, members)))
        for a, b in zip(ms, ms[1:]):
            if a == b:
                raise ValueError(f"duplicate member {a}")
        if ms and not (1 <= ms[0] and ms[-1] <= self._t):
            raise ValueError(f"members must lie in [1, {self._t}]: {ms}")
        self._members = ms

    @classmethod
    def empty(cls, t: int) -> "GroundSubset":
        return cls(t)

    @classmethod
    def full(cls, t: int) -> "GroundSubset":
        return cls(t, range(1, t + 1))

    @classmethod
    def from_string(cls, t: int, text: str) -> "GroundSubset":
        """Parse "2,3,5"-style 1-based lists; the keyword "none" is empty."""
        text = text.strip()
        if text.lower() == "none":
            return cls(t)
        try:
            members = [int(part) for part in text.split(",")]
        except ValueError:
            raise ValueError(f"subset must be comma-separated integers or 'none': {text!r}")
        return cls(t, members)

    @property
    def t(self) -> int:
        return self._t

    @property
    def members(self) -> tuple:
        return self._members

    @property
    def boundary_count(self) -> int:
        """How many of the two boundary coordinates {1, t} belong to the set."""
        return (1 in self) + (self._t in self)

    def complement(self) -> "GroundSubset":
        inside = set(self._members)
        return GroundSubset(self._t, (e for e in range(1, self._t + 1) if e not in inside))

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(self._members)

    def __contains__(self, e) -> bool:
        return e in self._members

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroundSubset):
            return NotImplemented
        return self._t == other._t and self._members == other._members

    def __hash__(self) -> int:
        return hash((self._t, self._members))

    def __str__(self) -> str:
        return ",".join(map(str, self._members)) if self._members else "none"

    def __repr__(self) -> str:
        return f"GroundSubset(t={self._t}, members={self._members})"


class IntervalPartition:
    """The maximal-interval decomposition of a ground-set subset.

    Intervals are closed pairs (start, end) in ascending order; consecutive
    intervals are separated by a gap of at least 2, which is what makes the
    decomposition unique.
    """

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable[tuple]):
        ivs = tuple((int(a), int(b)) for a, b in intervals)
        if not ivs:
            raise EmptySetError("an interval partition needs at least one interval")
        for a, b in ivs:
            if a > b:
                raise ValueError(f"interval ({a}, {b}) is reversed")
        for (_, b), (a2, _) in zip(ivs, ivs[1:]):
            if b + 2 > a2:
                raise ValueError(f"intervals ending at {b} and starting at {a2} are not separated")
        self._intervals = ivs

    @property
    def intervals(self) -> tuple:
        return self._intervals

    @property
    def rho(self) -> int:
        """Number of intervals."""
        return len(self._intervals)

    def __iter__(self):
        return iter(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalPartition):
            return NotImplemented
        return self._intervals == other._intervals

    def __repr__(self) -> str:
        return f"IntervalPartition({list(self._intervals)!r})"


def _require_same_t(a, b) -> None:
    if a.t != b.t:
        raise DimensionMismatch(f"dimension mismatch: {a.t} vs {b.t}")


def reorient(T: Tope, A: GroundSubset) -> Tope:
    """Flip the signs of T on the coordinates in A.

    Applying the same reorientation twice restores T.
    """
    _require_same_t(T, A)
    signs = T.signs.copy()
    if len(A):
        idx = np.fromiter(A, dtype=np.int64) - 1
        signs[idx] = -signs[idx]
    return Tope._wrap(signs)


def _member_mask(A: GroundSubset) -> np.ndarray:
    """Boolean membership vector of A (position k holds coordinate k+1)."""
    inside = np.zeros(A.t + 1, dtype=bool)
    inside[np.fromiter(A.members, dtype=np.intp, count=len(A))] = True
    return inside[1:]


def negative_part(T: Tope) -> GroundSubset:
    """The set of coordinates where T is -1."""
    return GroundSubset(T.t, (np.flatnonzero(T.signs < 0) + 1).tolist())


def separation_set(T1: Tope, T2: Tope) -> GroundSubset:
    """The set of coordinates where two topes disagree."""
    _require_same_t(T1, T2)
    return GroundSubset(T1.t, (np.flatnonzero(T1.signs != T2.signs) + 1).tolist())


def interval_partition(A: GroundSubset) -> IntervalPartition:
    """Split A into maximal runs of consecutive integers.

    The empty set is rejected: callers that need the all-plus tope handle it
    before dispatching on interval structure.
    """
    if not len(A):
        raise EmptySetError("cannot partition the empty subset into intervals")
    intervals = []
    members = A.members
    start = prev = members[0]
    for e in members[1:]:
        if e == prev + 1:
            prev = e
            continue
        intervals.append((start, prev))
        start = prev = e
    intervals.append((start, prev))
    return IntervalPartition(intervals)


def negpart_meet_join_cards(T1: Tope, T2: Tope) -> tuple:
    """Cardinalities (|T1- intersect T2-|, |T1- union T2-|) by inner products.

    Both values come from the exact quarter-integer identities in terms of
    <T1,T2> and the entry sums; the divisions are checked to be exact.
    """
    _require_same_t(T1, T2)
    meet, join = _meet_join_cards(T1.signs, T2.signs)
    return int(meet), int(join)


def _meet_join_cards(a: np.ndarray, b: np.ndarray) -> tuple:
    # 4|A- & B-| = t + <a, b> - sum(a) - sum(b) and 4|A- | B-| = 3t - <a, b>
    # - sum(a) - sum(b), along the last axis of the two sign arrays.
    t = a.shape[-1]
    a = a.astype(np.int64)
    b = b.astype(np.int64)
    dot = np.vecdot(a, b)
    total = np.add.reduce(a, axis=-1) + np.add.reduce(b, axis=-1)
    meet4 = t + dot - total
    join4 = 3 * t - dot - total
    if np.count_nonzero((meet4 | join4) & 3):
        raise ValueError("inner products of sign vectors must give multiples of 4")
    return meet4 >> 2, join4 >> 2
