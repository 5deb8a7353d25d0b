"""The distinguished symmetric cycle of H(t,2) and its exact matrices.

The cycle visits 2t vertices: the all-plus tope, then the topes obtained by
flipping the first s coordinates for s = 1..t-1, then the antipodes of all of
those in the same order.  Consecutive vertices differ in exactly one
coordinate, and vertex k+t is the negation of vertex k.  Vertices and
matrices are built per call from closed forms, never stored.

The first t vertices form an invertible t x t sign matrix.  Everything here
is kept in scaled-integer form: a matrix with denominator d stores d times
the rational matrix it represents, so all identities can be checked
bit-exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceeded
from .topes import Tope, _check_dimension, _coordinate, _int_array, _integer

# Largest t for the dense t x t matrices: one int64 matrix takes 128 MiB at
# t = 4096 and grows quadratically.
DENSE_CAP = 4096


class ScaledIntMatrix:
    """An exact rational matrix stored as integer entries over a fixed denominator.

    The entries follow the rules of the vector constructors.  An ndarray is
    judged by its dtype: bool, float and object data raise TypeError.
    Nested lists are read entry by entry through operator.index, as a scalar
    argument is: a bool or any entry operator.index refuses raises
    TypeError, and an entry outside int64 raises ValueError.
    """

    __slots__ = ("_entries", "_denom")

    def __init__(self, entries, denom: int = 1):
        if isinstance(entries, np.ndarray):
            shape, flat = entries.shape, entries.reshape(-1)
        else:
            nested = np.asarray(entries, dtype=object)
            shape, flat = nested.shape, nested.reshape(-1).tolist()
        if len(shape) != 2:
            raise ValueError("entries must be a 2-D array")
        int64 = np.iinfo(np.int64)
        arr = _int_array(flat, "matrix", int64.min, int64.max).astype(np.int64).reshape(shape)
        denom = _integer(denom)
        if denom not in (1, 2, 4):
            raise ValueError(f"denominator must be 1, 2 or 4, got {denom}")
        arr.flags.writeable = False
        self._entries = arr
        self._denom = denom

    @classmethod
    def _wrap(cls, entries: np.ndarray, denom: int) -> "ScaledIntMatrix":
        # Trusted constructor: entries is a fresh 2-D int64 array that no one
        # else holds, and denom is 1, 2 or 4; it is stored without a copy.
        self = object.__new__(cls)
        entries.flags.writeable = False
        self._entries = entries
        self._denom = denom
        return self

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def denom(self) -> int:
        return self._denom

    def __matmul__(self, other: "ScaledIntMatrix") -> "ScaledIntMatrix":
        if not isinstance(other, ScaledIntMatrix):
            return NotImplemented
        product = self._entries @ other._entries
        d = self._denom * other._denom
        # Reduce the scale when the product allows it, so identities like
        # M * M^{-1} come out with the smallest exact denominator.
        while d > 1 and not np.any(product % 2):
            product = product // 2
            d //= 2
        if d not in (1, 2, 4):
            raise ValueError(f"product denominator {d} is not representable")
        return ScaledIntMatrix._wrap(product, d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScaledIntMatrix):
            return NotImplemented
        return self._denom == other._denom and bool(np.array_equal(self._entries, other._entries))

    def __hash__(self) -> int:
        return hash((self._denom, self._entries.shape, self._entries.tobytes()))

    def __repr__(self) -> str:
        return f"ScaledIntMatrix(shape={self._entries.shape}, denom={self._denom})"


class SymmetricCycle:
    """The distinguished symmetric cycle: 2t vertices, each derived on demand.

    Two cycles are equal, and hash equal, exactly when their t agree.
    """

    __slots__ = ("_t",)

    def __init__(self, t: int):
        self._t = _check_dimension(t)

    @property
    def t(self) -> int:
        return self._t

    def vertex(self, k: int) -> Tope:
        """Cycle vertex at position k, 0 <= k < 2t."""
        return Tope._wrap(cycle_vertex(self._t, k))

    def __len__(self) -> int:
        return 2 * self._t

    def __iter__(self):
        return map(self.vertex, range(2 * self._t))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymmetricCycle):
            return NotImplemented
        return self._t == other._t

    def __hash__(self) -> int:
        return hash(self._t)


def cycle_vertex(t: int, k: int) -> np.ndarray:
    """Sign vector of cycle vertex k without materializing the whole cycle.

    Vertex k for k < t flips the first k coordinates of the all-plus tope;
    vertex k+t is its antipode.
    """
    t, k = _check_dimension(t), _integer(k)
    if not 0 <= k < 2 * t:
        raise IndexError(f"cycle position {k} out of range [0, {2 * t})")
    signs = np.ones(t, dtype=np.int8)
    signs[: k % t] = -1
    return signs if k < t else -signs


def _matrix_entries(t: int) -> np.ndarray:
    # Row k flips the first k coordinates: entry (k, e) is -1 exactly when e < k.
    return np.where(np.arange(t) < np.arange(t)[:, None], np.int64(-1), np.int64(1))


def _inverse_entries(t: int) -> np.ndarray:
    # Twice the inverse of the vertex matrix: row i (0-based, i < t-1) is
    # sigma(i+1) - sigma(i+2); the last row is sigma(1) + sigma(t).
    out = np.eye(t, dtype=np.int64)
    band = np.arange(t - 1)
    out[band, band + 1] = -1
    out[t - 1, 0] = 1
    return out


def _check_dense(t: int) -> None:
    # Refuses a dense matrix above DENSE_CAP before any entry is allocated.
    if _check_dimension(t) > DENSE_CAP:
        raise CapExceeded(f"a dense {t} x {t} cycle matrix is capped at t = {DENSE_CAP}")


def tope_matrix(t: int) -> ScaledIntMatrix:
    """The t x t matrix whose rows are the first t cycle vertices."""
    _check_dense(t)
    return ScaledIntMatrix._wrap(_matrix_entries(t), 1)


def inverse_rows(t: int) -> ScaledIntMatrix:
    """The exact inverse of :func:`tope_matrix`, scaled by 2 (denominator 2)."""
    _check_dense(t)
    return ScaledIntMatrix._wrap(_inverse_entries(t), 2)


def gram_entry(t: int, i: int, j: int) -> int:
    """Entry (i, j) of the Gram matrix of the first t cycle vertices.

    The matrix is symmetric Toeplitz with value t - 2|j - i|.
    """
    t = _check_dimension(t)
    i, j = _coordinate(i, t), _coordinate(j, t)
    return t - 2 * abs(j - i)


def inverse_gram_entry(t: int, i: int, j: int) -> int:
    """Four times entry (i, j) of the inverse Gram matrix (denominator 4).

    Transcribed: 2 on the diagonal, -1 for |i - j| = 1, +1 on the (1, t)
    corner pair, else 0; verify checks it against the inverse rows' product.
    """
    t = _check_dimension(t)
    i, j = _coordinate(i, t), _coordinate(j, t)
    if i == j:
        return 2
    if abs(i - j) == 1:
        return -1
    if {i, j} == {1, t}:
        return 1
    return 0


def inverse_gram_matrix(t: int) -> ScaledIntMatrix:
    """The full inverse Gram matrix, scaled by 4 (denominator 4), as a band."""
    _check_dense(t)
    out = np.diag(np.full(t, 2, dtype=np.int64))
    band = np.arange(t - 1)
    out[band, band + 1] = out[band + 1, band] = -1
    out[0, t - 1] = out[t - 1, 0] = 1
    return ScaledIntMatrix._wrap(out, 4)
