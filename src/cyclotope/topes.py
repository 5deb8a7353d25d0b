"""Sign vectors on the hypercube and subsets of their coordinate ground set.

A tope is a vertex of the hypercube graph H(t,2), stored as a vector of t
signs indexed 1..t.  The ground set E_t = {1,...,t} is the index set of the
coordinates; subsets of it drive reorientations (sign flips on the chosen
coordinates).
"""

from __future__ import annotations

import operator
import struct
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, DimensionTooSmall, EmptySetError, VerificationMismatch

MIN_DIMENSION = 3


def _check_dimension(t: int) -> int:
    t = _integer(t)
    if t < MIN_DIMENSION:
        raise DimensionTooSmall(f"dimension must be >= {MIN_DIMENSION}, got {t}")
    return t


def _coordinate(e, t: int) -> int:
    """e as a 1-based coordinate of E_t; IndexError outside [1, t]."""
    e = _integer(e)
    if not 1 <= e <= t:
        raise IndexError(f"coordinate {e} out of range [1, {t}]")
    return e


# Entry types that numpy would read as the integers 0 and 1.
_BOOLS = {bool, np.bool_}


def _integer(value) -> int:
    """value as an int through operator.index: never truncated or parsed.

    A bool raises TypeError, as does any value operator.index refuses.  A
    value that int() refuses as well (a non-numeric string, None) raises
    int()'s own error instead.
    """
    if type(value) in _BOOLS:
        raise TypeError(f"expected an integer, got a bool: {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        int(value)
        raise


def _int_array(values, what: str, lo: int, hi: int, error=ValueError) -> np.ndarray:
    """values as a 1-d integer array with entries in [lo, hi]; error if out of range.

    An ndarray is judged by its dtype: bool, float and object data raise
    TypeError.  Other input follows the rule of _integer entry by entry, at
    every length: each entry is read through operator.index, a bool raises
    TypeError (numpy would read [1, True] as [1, 1]), and an integer too
    large for int64 is out of range.  Every list is read in one C pass by
    struct, which calls operator.index on every entry and reads a bool as 0
    or 1, so the list is scanned for bools only when its smallest entry is
    at most 1.  The array a list gives is read-only.
    """
    if isinstance(values, np.ndarray):
        arr = values
        if arr.ndim != 1:
            raise ValueError(f"a {what} is a one-dimensional vector")
        if arr.dtype.kind not in "iu":
            raise TypeError(f"{what} entries must be integers, got dtype {arr.dtype}")
    else:
        if not isinstance(values, (list, tuple)):
            values = list(values)
        try:
            arr = np.frombuffer(struct.pack(f"{len(values)}q", *values), np.int64)
        except (struct.error, TypeError):
            raise _refusal(values, what, lo, hi, error) from None
    if arr.size:
        # argmin and argmax skip the ufunc reduction setup that min and max
        # pay on every call, most of their cost on a short list.
        low = arr[arr.argmin()]
        # Only a list can hold a bool, and struct read it as 0 or 1.
        if low <= 1 and arr is not values and not _BOOLS.isdisjoint(map(type, values)):
            raise _bool_entry(what)
        # Compare in the original dtype: an int8 cast would wrap 257 to 1.
        if not (lo <= low and arr[arr.argmax()] <= hi):
            raise _out_of_range(what, lo, hi, error)
    return arr


def _refusal(values, what, lo, hi, error):
    # The error for a list that struct refused: a bool anywhere, else the
    # first entry that operator.index refuses, named by the dtype numpy
    # gives the list (or by itself where numpy reads it as an integer, as
    # it does a 0-d bool array), else an integer beyond int64.
    if not _BOOLS.isdisjoint(map(type, values)):
        return _bool_entry(what)
    for value in values:
        try:
            operator.index(value)
        except TypeError:
            arr = np.asarray(values)
            if arr.ndim != 1:
                return ValueError(f"a {what} is a one-dimensional vector")
            got = repr(value) if arr.dtype.kind in "iu" else f"dtype {arr.dtype}"
            return TypeError(f"{what} entries must be integers, got {got}")
    return _out_of_range(what, lo, hi, error)


def _bool_entry(what):
    return TypeError(f"{what} entries must be integers, got a bool")


def _out_of_range(what, lo, hi, error):
    return error(f"{what} entries must lie in [{lo}, {hi}]")


# Cells per row block of every exhaustive scan, over rows or a pair grid:
# the int64 temporaries of one block then take about 512 KiB whatever t is.
_BLOCK = 1 << 16


def _row_blocks(n, width):
    """Slices of n rows of width cells each, at most _BLOCK cells a slice."""
    step = max(1, _BLOCK // width)
    for start in range(0, n, step):
        yield slice(start, min(n, start + step))


# Byte of an int8 entry -> "+" when the entry is positive, "-" otherwise.
_SIGN_CHARS = bytes(ord("+") if 0 < b < 128 else ord("-") for b in range(256))


class _Frozen:
    """A value stored as one read-only numpy array ``_v``, set by ``_store``.

    Each subclass fixes the array's dtype and layout, so two values are
    equal exactly when they are of the same class and their arrays have the
    same bytes.
    """

    __slots__ = ("_v",)

    @classmethod
    def _wrap(cls, v: np.ndarray):
        # Trusted constructor: v is already a valid array of the class's layout.
        self = object.__new__(cls)
        self._store(v)
        return self

    def _store(self, v: np.ndarray) -> None:
        # Every constructor keeps its array so: without a copy, read-only.
        v.flags.writeable = False
        self._v = v

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._v.tobytes() == other._v.tobytes()

    def __hash__(self) -> int:
        return hash(self._v.tobytes())


class _Vector(_Frozen):
    """A value stored as one read-only numpy vector of length t, indexed 1..t."""

    __slots__ = ()

    @property
    def t(self) -> int:
        return self._v.shape[0]

    def _entry(self, i: int) -> int:
        # The entry at 1-based coordinate i, range-checked.
        return int(self._v[_coordinate(i, self.t) - 1])


class Tope(_Vector):
    """An immutable vertex of H(t,2): t entries, each +1 or -1, indexed 1..t.

    The packed-bit form used by :meth:`from_bitmask` / :attr:`bitmask` maps
    entry e to bit e-1 with +1 <-> 0 and -1 <-> 1, so the all-plus tope is
    mask 0 and the all-minus tope is mask 2**t - 1.
    """

    __slots__ = ()

    def __init__(self, signs: Iterable[int]):
        arr = _int_array(signs, "tope", -1, 1)
        _check_dimension(arr.shape[0])
        if not arr.all():
            raise ValueError("tope entries must be exactly +1 or -1")
        self._store(arr.astype(np.int8))

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
        if not text:
            raise ValueError("tope string must be nonempty over '+'/'-': ''")
        if not (plus | (raw == ord("-"))).all():
            k = len(text) - len(text.lstrip("+-"))
            raise ValueError(f"tope string must be over '+'/'-': position {k + 1} "
                             f"of {len(text)} is {text[k]!r}")
        _check_dimension(raw.shape[0])
        return cls._wrap(plus.view(np.int8) * np.int8(2) - np.int8(1))

    @classmethod
    def from_bitmask(cls, mask: int, t: int) -> "Tope":
        """Unpack a bitmask: bit e-1 set means entry e is -1."""
        t = _check_dimension(t)
        mask = _integer(mask)
        if not 0 <= mask < (1 << t):
            raise ValueError(f"mask {mask} out of range for t={t}")
        raw = mask.to_bytes((t + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=t, bitorder="little")
        return cls._wrap(np.where(bits == 1, -1, 1).astype(np.int8))

    @property
    def signs(self) -> np.ndarray:
        """Read-only int8 view of the entries (position k holds entry k+1)."""
        return self._v

    @property
    def bitmask(self) -> int:
        packed = np.packbits(self._v < 0, bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")

    def sign(self, e: int) -> int:
        """Entry at 1-based coordinate e."""
        return self._entry(e)

    def __neg__(self) -> "Tope":
        return Tope._wrap(-self._v)

    def __str__(self) -> str:
        return self._v.tobytes().translate(_SIGN_CHARS).decode()

    def __repr__(self) -> str:
        return f"Tope({str(self)!r})"


class GroundSubset(_Vector):
    """An immutable subset of the coordinate ground set E_t = {1,...,t}.

    Stored as its membership vector, the layout of ``T.signs < 0``: the
    negative part of a tope and the reorientation that makes it from the
    all-plus tope are the same vector.
    """

    __slots__ = ()

    def __init__(self, t: int, members: Iterable[int] = ()):
        t = _check_dimension(t)
        arr = _int_array(members, "subset", 1, t)
        inside = np.zeros(t, dtype=bool)
        inside[arr - 1] = True
        if np.count_nonzero(inside) != arr.shape[0]:
            values, counts = np.unique(arr, return_counts=True)
            raise ValueError(f"duplicate member {values[counts > 1][0]}")
        self._store(inside)

    @classmethod
    def empty(cls, t: int) -> "GroundSubset":
        return cls._wrap(np.zeros(_check_dimension(t), dtype=bool))

    @classmethod
    def full(cls, t: int) -> "GroundSubset":
        return cls._wrap(np.ones(_check_dimension(t), dtype=bool))

    @classmethod
    def from_string(cls, t: int, text: str) -> "GroundSubset":
        """Parse "2,3,5"-style 1-based lists; the keyword "none" is empty."""
        text = text.strip()
        if text.lower() == "none":
            return cls.empty(t)
        try:
            members = [int(part) for part in text.split(",")]
        except ValueError:
            raise ValueError(f"subset must be comma-separated integers or 'none': {text!r}")
        return cls(t, members)

    @property
    def inside(self) -> np.ndarray:
        """Read-only bool membership vector (position k holds coordinate k+1)."""
        return self._v

    @property
    def members(self) -> tuple:
        """The members in ascending order."""
        return tuple((self._v.nonzero()[0] + 1).tolist())

    @property
    def boundary_count(self) -> int:
        """How many of the two boundary coordinates {1, t} belong to the set."""
        return int(self._v[0]) + int(self._v[-1])

    def complement(self) -> "GroundSubset":
        return GroundSubset._wrap(~self._v)

    def __len__(self) -> int:
        return int(np.count_nonzero(self._v))

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, e) -> bool:
        integer = isinstance(e, (int, np.integer)) and type(e) is not bool
        return integer and 1 <= e <= self.t and bool(self._v[e - 1])

    def __str__(self) -> str:
        return ",".join(map(str, self.members)) or "none"

    def __repr__(self) -> str:
        return f"GroundSubset(t={self.t}, members={self.members})"


class IntervalPartition(_Frozen):
    """The maximal-interval decomposition of a ground-set subset.

    Intervals are closed pairs (start, end) in ascending order, within
    [1, 2^63 - 1]; consecutive intervals are separated by a gap of at least
    2, which is what makes the decomposition unique.  Stored as one int64
    vector interleaving the numpy slice bounds of the runs, starts at even
    and ends at odd positions: run k is ``A.inside[starts[k]:ends[k]]``,
    the closed interval (starts[k] + 1, ends[k]).  The pairs are derived.
    """

    __slots__ = ()

    def __init__(self, intervals: Iterable[tuple]):
        ivs = tuple((_integer(a), _integer(b)) for a, b in intervals)
        if not ivs:
            raise EmptySetError("an interval partition needs at least one interval")
        top = np.iinfo(np.int64).max
        for a, b in ivs:
            if a > b:
                raise ValueError(f"interval ({a}, {b}) is reversed")
            if a < 1 or b > top:
                raise ValueError(f"interval ({a}, {b}) must lie in [1, {top}]")
        for (_, b), (a2, _) in zip(ivs, ivs[1:]):
            if b + 2 > a2:
                raise ValueError(f"intervals ending at {b} and starting at {a2} are not separated")
        bounds = np.array(ivs, dtype=np.int64).reshape(-1)
        bounds[::2] -= 1
        self._store(bounds)

    @property
    def bounds(self) -> tuple:
        """(starts, ends), the slice bounds of the runs in ascending order."""
        return self._v[::2], self._v[1::2]

    @property
    def intervals(self) -> tuple:
        return tuple(zip((self._v[::2] + 1).tolist(), self._v[1::2].tolist()))

    @property
    def rho(self) -> int:
        """Number of intervals."""
        return self._v.shape[0] // 2

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self) -> int:
        return self.rho

    def __repr__(self) -> str:
        return f"IntervalPartition({list(self.intervals)!r})"


def _require_same_t(a, b) -> None:
    if a.t != b.t:
        raise DimensionMismatch(f"dimension mismatch: {a.t} vs {b.t}")


def reorient(T: Tope, A: GroundSubset) -> Tope:
    """Flip the signs of T on the coordinates in A.

    Applying the same reorientation twice restores T.
    """
    _require_same_t(T, A)
    return Tope._wrap(np.where(A.inside, -T.signs, T.signs))


def negative_part(T: Tope) -> GroundSubset:
    """The set of coordinates where T is -1."""
    return GroundSubset._wrap(T.signs < 0)


def separation_set(T1: Tope, T2: Tope) -> GroundSubset:
    """The set of coordinates where two topes disagree."""
    _require_same_t(T1, T2)
    return GroundSubset._wrap(T1.signs != T2.signs)


def interval_partition(A: GroundSubset) -> IntervalPartition:
    """Split A into maximal runs of consecutive integers.

    A run starts where membership switches on and ends where it switches
    off; both are read from one comparison of the membership vector padded
    with a non-member on each side.  The empty set is rejected: callers that
    need the all-plus tope handle it before dispatching on interval
    structure.
    """
    bounds = _run_bounds(A.inside)[0]
    if not bounds.shape[0]:
        raise EmptySetError("cannot partition the empty subset into intervals")
    return IntervalPartition._wrap(bounds)


def _run_bounds(inside: np.ndarray) -> tuple:
    # np.nonzero of the membership changes along the last axis, each row
    # padded with a non-member on each side: change k lies between positions
    # k - 1 and k of the row.  Per row the changes alternate on, off and are
    # the slice bounds of its runs; the last index array holds them.
    padded = np.zeros(inside.shape[:-1] + (inside.shape[-1] + 2,), dtype=bool)
    padded[..., 1:-1] = inside
    return (padded[..., 1:] != padded[..., :-1]).nonzero()


def _exact_shift(values, bits: int, what: str):
    # values >> bits, where every value is a multiple of 2^bits by the
    # caller's construction: a remainder is a library fault, never bad
    # input, so it raises VerificationMismatch(what).
    if np.count_nonzero(values & ((1 << bits) - 1)):
        raise VerificationMismatch(what)
    return values >> bits


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
    # - sum(a) - sum(b), along the last axis of the two sign arrays.  Integer
    # sums wrap, so only the results, in [0, 4t], must fit the accumulator.
    t = a.shape[-1]
    acc = np.int16 if 4 * t < 1 << 15 else np.int64
    dot = np.add.reduce(a * b, axis=-1, dtype=acc)
    total = np.add.reduce(a + b, axis=-1, dtype=acc)
    return tuple(_exact_shift(v, 2, "inner products of sign vectors must give multiples of 4")
                 for v in (t + dot - total, 3 * t - dot - total))
