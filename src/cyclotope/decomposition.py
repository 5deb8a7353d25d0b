"""Spectra and minimal decompositions of topes along the distinguished cycle.

Every tope T has a unique coordinate vector x with entries in {-1, 0, 1}
over the basis formed by the first t cycle vertices; the nonzero entries
pick out the unique inclusion-minimal set of cycle vertices summing to T.
The number of nonzero entries is always odd.

Three independent routes compute x:

* dense: the exact scaled-integer matrix-vector product with the inverse of
  the cycle-vertex matrix (reference path);
* fast: an O(t) telescoping form, x_1 = (T(1)+T(t))/2 and
  x_j = (T(j)-T(j-1))/2, derived from the rows of that inverse;
* intervals: structural dispatch on the maximal-interval decomposition of
  the negative part.

They are verified against each other exhaustively; see the test suite.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .cycle import _check_dense, _inverse_entries
from .errors import InvalidSpectrum, VerificationMismatch
from .topes import (
    GroundSubset,
    Tope,
    _Vector,
    _check_dimension,
    _coordinate,
    _exact_shift,
    _int_array,
    _integer,
    _meet_join_cards,
    _require_same_t,
    _run_bounds,
)


class Spectrum(_Vector):
    """Immutable coordinate vector of a tope over the cycle basis."""

    __slots__ = ()

    def __init__(self, coords: Iterable[int]):
        arr = _int_array(coords, "spectrum", -1, 1, InvalidSpectrum)
        _check_dimension(arr.shape[0])
        arr = arr.astype(np.int8)
        _tope_signs(arr)  # InvalidSpectrum unless arr is the spectrum of a tope
        self._store(arr)

    @classmethod
    def unit(cls, s: int, t: int) -> "Spectrum":
        """The standard unit vector sigma(s), 1-based."""
        t = _check_dimension(t)
        coords = np.zeros(t, dtype=np.int8)
        coords[_coordinate(s, t) - 1] = 1
        return cls._wrap(coords)

    @property
    def coords(self) -> np.ndarray:
        """Read-only int8 view (position k holds coordinate k+1)."""
        return self._v

    @property
    def support_size(self) -> int:
        """Number of nonzero coordinates; the decomposition size."""
        return int(np.count_nonzero(self._v))

    @property
    def total(self) -> int:
        return int(self._v.sum(dtype=np.int64))

    def coord(self, i: int) -> int:
        return self._entry(i)

    def __neg__(self) -> "Spectrum":
        return Spectrum._wrap(-self._v)

    def __repr__(self) -> str:
        return f"Spectrum({self._v.tolist()!r})"


class Decomposition(_Vector):
    """The signed cycle vertices that sum to a tope.

    Terms are (sign, index) pairs with sign in {-1, +1} and index the 0-based
    position among the first t cycle vertices, kept in ascending index order.
    A term (sign, i) stands for the cycle vertex at position i when sign is
    +1, and for its antipode (position i + t) when sign is -1.

    Stored as its read-only int8 coordinate vector, the layout of
    ``Spectrum.coords``: the term (sign, i) is the entry sign at position i.
    The terms, the size and the vertex indices are derived from it.
    """

    __slots__ = ()

    def __init__(self, t: int, terms: Iterable[tuple]):
        t = _check_dimension(t)
        ts = tuple((_integer(s), _integer(i)) for s, i in terms)
        if len(ts) % 2 == 0:
            raise ValueError("a decomposition has an odd number of terms")
        for s, i in ts:
            if s not in (-1, 1):
                raise ValueError(f"term sign must be +-1, got {s}")
            if not 0 <= i < t:
                raise ValueError(f"term index {i} out of range [0, {t})")
        if any(a[1] >= b[1] for a, b in zip(ts, ts[1:])):
            raise ValueError("terms must be in strictly ascending index order")
        coords = np.zeros(t, dtype=np.int8)
        signs, indices = zip(*ts)
        coords[list(indices)] = signs
        _tope_signs(coords)  # InvalidSpectrum unless the terms sum to a tope
        self._store(coords)

    @property
    def terms(self) -> tuple:
        nz = (self._v != 0).nonzero()[0]
        return tuple(zip(self._v[nz].tolist(), nz.tolist()))

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self._v))

    def vertex_indices(self) -> frozenset:
        """Positions on the full 2t-cycle: index i for +, index i+t for -."""
        nz = (self._v != 0).nonzero()[0]
        return frozenset((nz + self.t * (self._v[nz] < 0)).tolist())

    def vertex_sum(self) -> np.ndarray:
        """Entrywise sum of the signed cycle vertices, as int64, in O(t)."""
        return _vertex_sum(self._v).astype(np.int64)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"Decomposition(t={self.t}, terms={list(self.terms)!r})"


def spectrum_dense(T: Tope) -> Spectrum:
    """Coordinate vector via the exact scaled-integer matrix product.

    This is the reference route: it multiplies by the inverse matrix (scaled
    by 2), built for the call, and halves, checking exactness.  Quadratic in
    t, so it raises CapExceeded above DENSE_CAP before building the matrix.
    """
    _check_dense(T.t)
    return Spectrum._wrap(_spectrum_dense(T.signs))


def _spectrum_dense(signs: np.ndarray) -> np.ndarray:
    # The dense product along the last axis of an int8 sign array, in its
    # layout.  einsum forms the exact int64 product; matmul has no fast int64
    # loop and walks the t x t matrix by columns, several times slower.
    doubled = np.empty_like(signs, dtype=np.int64)
    np.einsum("...k,kj->...j", signs.astype(np.int64), _inverse_entries(signs.shape[-1]),
              out=doubled)
    what = "matrix product produced a non-integer coordinate"
    return _exact_shift(doubled, 1, what).astype(np.int8)


def spectrum_fast(T: Tope) -> Spectrum:
    """Coordinate vector via the O(t) telescoping form.

    x_1 = (T(1)+T(t))/2 and x_j = (T(j)-T(j-1))/2.  Every numerator of a
    +-1 vector is even; an odd one is a library fault, VerificationMismatch.
    """
    return Spectrum._wrap(_telescope(T.signs))


def _telescope(signs: np.ndarray) -> np.ndarray:
    # The telescoping form along the last axis of an int8 sign array, in int8.
    return _exact_shift(_half_inverse_transform(signs), 1, "sign entries must be exactly +1 or -1")


def spectrum_intervals(T: Tope) -> Spectrum:
    """Coordinate vector via the interval structure of the negative part.

    The negative part A of T is split into maximal intervals [i_k, j_k].
    Each interval contributes +1 just past its right end and -1 at its left
    end, dispatched on which boundary coordinates A touches: an interval
    ending at t drops its right term, the first left term is dropped only
    when A contains 1 but not t, and when A avoids both boundaries an extra
    +1 lands on coordinate 1.  The empty negative part gives sigma(1).
    """
    return Spectrum._wrap(_spectrum_intervals(T.signs < 0))


def _spectrum_intervals(inside: np.ndarray) -> np.ndarray:
    # The interval route along the last axis of a bool array of negative
    # parts, in its layout.  Position i_k - 1 starts interval k and position
    # j_k is just past it; runs are at least one non-member apart, so no two
    # of the positions set below coincide, but for coordinate 1.
    *rows, bounds = _run_bounds(inside)
    t = inside.shape[-1]
    coords = np.zeros_like(inside, dtype=np.int8)
    # -1 at i_k and +1 at j_k + 1 for each interval; the +1 of an interval
    # ending at t wraps round to coordinate 1, which is set last.
    coords[(*(r[0::2] for r in rows), bounds[0::2])] = -1
    coords[(*(r[1::2] for r in rows), bounds[1::2] % t)] = 1
    # Coordinate 1 by boundary case: +1 when A avoids both boundaries (the
    # empty A included), the first interval's -1 kept when A contains both,
    # and that -1 dropped when A contains 1 but not t.
    coords[..., 0] = 1 - np.add(inside[..., 0], inside[..., -1], dtype=np.int8)
    return coords


def decomposition_set(T: Tope) -> Decomposition:
    """The unique inclusion-minimal signed set of cycle vertices summing to T."""
    return Decomposition._wrap(spectrum_fast(T).coords)


def _half_inverse_transform(v: np.ndarray) -> np.ndarray:
    # v times twice the inverse matrix along the last axis, in O(t): the
    # columns telescope.  Computed in v's dtype and layout; the dtype must
    # hold twice the largest |v| entry.
    out = np.empty_like(v)
    # [()] turns the 0-d views of a 1-d v into scalars, which add cheaply.
    out[..., 0] = v[..., 0][()] + v[..., -1][()]
    np.subtract(v[..., 1:], v[..., :-1], out=out[..., 1:])
    return out


def spectrum_update(x1: Spectrum, T1: Tope, S: GroundSubset) -> Spectrum:
    """Spectrum of the reorientation of T1 on S, from x1 without recomputation.

    Flipping coordinate s subtracts twice T1(s) times row s of the inverse
    matrix from the spectrum; each such row has at most two nonzero entries,
    so the update touches at most 2|S| coordinates.  All flips together
    subtract the telescoping transform of T1 restricted to S.  Raises
    InvalidSpectrum unless x1 is exactly the spectrum of T1.
    """
    _require_same_t(x1, T1)
    _require_same_t(T1, S)
    if spectrum_fast(T1) != x1:
        raise InvalidSpectrum("x1 is not the spectrum of T1")
    return Spectrum._wrap(_spectrum_update(x1.coords, T1.signs, S.inside))


def _spectrum_update(coords: np.ndarray, signs: np.ndarray, inside: np.ndarray) -> np.ndarray:
    # The update along the last axis, unchecked, in int8.  T1 restricted to
    # S is signs * inside; its transform has entries in [-2, 2], so a
    # spectrum entry moves into [-3, 3].  The difference is written into
    # the transform's buffer.
    step = _half_inverse_transform(signs * inside)
    return np.subtract(coords, step, out=step)


def unit_flip_spectrum(s: int, t: int) -> Spectrum:
    """Spectrum of the tope obtained from all-plus by flipping coordinate s.

    Equals sigma(2) when s = 1, sigma(1) - sigma(s) + sigma(s+1) for interior
    s, and -sigma(t) when s = t: the unit-flip display of the subset {s}.
    """
    t = _check_dimension(t)
    return Spectrum._wrap(_unit_flip_sum(np.arange(1, t + 1) == _coordinate(s, t)))


def spectrum_from_unit_flips(A: GroundSubset) -> Spectrum:
    """Spectrum of the reorientation of all-plus on A, as a sum of unit flips.

    Computes (1 - |A|) * sigma(1) plus the sum of the single-flip spectra
    over A.  Also equals the negated spectrum of the complement reorientation.
    """
    # Trusted like every route: the flip-spectra sweep reports a wrong sum.
    return Spectrum._wrap(_unit_flip_sum(A.inside))


def _unit_flip_sum(inside: np.ndarray) -> np.ndarray:
    # The display along the last axis of a bool array of subsets A, in int8:
    # (1 - |A|) sigma(1) plus the support of unit_flip_spectrum(s) for each
    # member s, that is +sigma(2) for s = 1, -sigma(t) for s = t and
    # +sigma(1) - sigma(s) + sigma(s + 1) otherwise.  Coordinate 1 thus gets
    # 1 - |A| plus one per member 1 < s < t, and coordinate e > 1 gets +1
    # from member e - 1 and -1 from member e.
    out = np.empty_like(inside, dtype=np.int8)
    np.subtract(inside[..., :-1], inside[..., 1:], out=out[..., 1:], dtype=np.int8)
    interior = np.count_nonzero(inside[..., 1:-1], axis=-1)
    out[..., 0] = 1 - np.count_nonzero(inside, axis=-1) + interior
    return out


def spectrum_from_boundary_cases(A: GroundSubset) -> Spectrum:
    """Spectrum of the reorientation of all-plus on A, by boundary case.

    Starts from a fixed head vector determined by which of the coordinates
    {1, t} lie in A, then subtracts sigma(i) - sigma(i+1) for every remaining
    element i of A.
    """
    return Spectrum._wrap(_boundary_case_display(A.inside))


def _boundary_case_display(inside: np.ndarray) -> np.ndarray:
    # The display along the last axis of a bool array of subsets A, in int8.
    # The head is row 2 [1 in A] + [t in A] of heads: sigma(1) when A holds
    # neither boundary, -sigma(t) when it holds t only, sigma(2) when it
    # holds 1 only and -sigma(1) + sigma(2) - sigma(t) when it holds both.
    # Every remaining member i, 1 < i < t, then adds -sigma(i) + sigma(i + 1).
    t = inside.shape[-1]
    heads = np.zeros((4, t), dtype=np.int8)
    heads[0, 0] = 1
    heads[1::2, -1] = -1
    heads[2:, 1] = 1
    heads[3, 0] = -1
    out = np.empty_like(inside, dtype=np.int8)  # in the layout of inside
    np.take(heads, 2 * inside[..., 0] + inside[..., -1], axis=0, out=out)
    rest = inside[..., 1:-1]  # the members i with 1 < i < t
    out[..., 1:-1] -= rest
    out[..., 2:] += rest
    return out


def size_difference(T1: Tope, T2: Tope) -> int:
    """|Q(T1)| - |Q(T2)| via one exact inner product, without either size.

    With u the restriction of T1 to the separation set, the difference of
    squared spectrum norms collapses to the inner product of the transforms
    of T1 - u and u under twice the inverse matrix.
    """
    _require_same_t(T1, T2)
    return int(_size_difference(T1.signs, T2.signs))


def _size_difference(signs1: np.ndarray, signs2: np.ndarray) -> np.ndarray:
    # With u = (T1 - T2)/2 the restriction of T1 to the separation set and
    # T1 - u = (T1 + T2)/2, the inner product of the transforms of T1 - u
    # and u is a quarter of that of T1 + T2 and T1 - T2; along the last axis.
    # Both transforms have entries in [-4, 4].  Integer sums wrap, so only
    # the result, 4 times a size difference below t, must fit the accumulator.
    acc = np.int16 if 4 * signs1.shape[-1] < 1 << 15 else np.int64
    both = _half_inverse_transform(signs1 + signs2)
    both *= _half_inverse_transform(signs1 - signs2)
    return _exact_shift(np.add.reduce(both, axis=-1, dtype=acc), 2,
                        "inner products of transforms must give multiples of 4")


def negpart_size_from_spectrum(x: Spectrum) -> int:
    """|T^-| read off the spectrum alone.

    Equals t + 1 + sum_i x_i * i when the coordinate sum is -1, and
    -1 + sum_i x_i * i when it is +1.
    """
    total = x.total
    if total not in (-1, 1):
        raise VerificationMismatch(f"tope spectra have coordinate sum +-1, got {total}")
    return int(_negpart_size(x.coords))


def _negpart_size(coords: np.ndarray) -> np.ndarray:
    # |T^-| along the last axis of tope spectra: the weighted sum w, minus 1,
    # plus t + 2 where the coordinate sum is -1, which is where w < 0: w is
    # |T^-| + 1 in [1, t] for sum 1 and |T^-| - t - 1 in [-t, -1] for sum -1.
    t = coords.shape[-1]
    acc = np.int16 if t < 1 << 15 else np.int64
    weighted = np.add.reduce(coords * np.arange(1, t + 1, dtype=acc), axis=-1, dtype=acc)
    return weighted - 1 + (t + 2) * (weighted < 0)


def _vertex_sum(coords: np.ndarray) -> np.ndarray:
    # coords times the cycle-vertex matrix M along the last axis, in O(t):
    # entry e is twice the prefix sum p_e through e minus the total p_t.
    # int8 gives the int64 verdict on coordinates in {-1, 0, 1}.  A tope's
    # spectrum has p_t = +-1 (the last entry), so its prefixes lie in
    # {-1, 0, 1} and nothing wraps.  Any other vector keeps an entry that is
    # not +-1: the last, when its int8 total (p_t mod 256) is not +-1; else
    # an entry up to its first prefix outside [-1, 1], or any entry if there
    # is none, since the prefixes before it are exact and that prefix, with
    # steps of at most 1, is +-2, giving 2(+-2) - (+-1).
    prefix = np.add.accumulate(coords, axis=-1, dtype=np.int8)
    return 2 * prefix - prefix[..., -1:]


def negpart_meet_join_from_spectra(x1: Spectrum, x2: Spectrum) -> tuple:
    """(|T1- intersect T2-|, |T1- union T2-|) from the two spectra alone.

    With coordinate sums s1, s2, Gram pairing g = x1 G x2 and weight
    w = sum_i (x1_i + x2_i) * i, the paper's three cases
      s1 = s2 = -1:  4 meet = 3t + 4 + g + 2w,  4 join = 5t + 4 - g + 2w
      s1 = s2 = +1:  4 meet = -t - 4 + g + 2w,  4 join = t - 4 - g + 2w
      mixed:         4 meet = t + g + 2w,       4 join = 3t - g + 2w
    are evaluated as the sign identity of negpart_meet_join_cards on the
    reconstructed topes x1 M and x2 M; its divisions are checked to be exact.
    """
    _require_same_t(x1, x2)
    meet, join = _meet_join_from_spectra(x1.coords, x2.coords)
    return int(meet), int(join)


def _meet_join_from_spectra(x1: np.ndarray, x2: np.ndarray) -> tuple:
    # Along the last axis.  The three cases are 4 meet = t - (s1 + s2)(t + 2)
    # + g + 2w and 4 join = 4 meet + 2t - 2g.  With v = x M the vertex sums,
    # g = <v1, v2> as G = M M^T, and sum(v) = (t + 2) s - 2 sum_i i x_i as
    # v_e = 2 p_e - s; so 2w - (t + 2)(s1 + s2) = -sum(v1) - sum(v2).
    # Integer sums lie in {-1, 1} exactly when their product does; they are
    # taken in int64, as the int8 vertex sums' last entries hold them mod 256.
    s1, s2 = (x.sum(axis=-1, dtype=np.int64) for x in (x1, x2))
    if np.count_nonzero(np.abs(s1 * s2) != 1):
        raise VerificationMismatch("tope spectra have coordinate sum +-1")
    return _meet_join_cards(_vertex_sum(x1), _vertex_sum(x2))


def _tope_signs(coords: np.ndarray) -> np.ndarray:
    # The int8 tope whose spectrum is coords; InvalidSpectrum when the vertex
    # sum is not a +-1 vector.
    signs = _vertex_sum(coords)
    if np.count_nonzero(np.abs(signs) != 1):
        raise InvalidSpectrum("vector is not the spectrum of any tope")
    return signs


def reconstruct_tope(x: Spectrum) -> Tope:
    """Invert the spectrum map: entry e is twice the prefix sum minus the total."""
    return Tope._wrap(_tope_signs(x.coords))
