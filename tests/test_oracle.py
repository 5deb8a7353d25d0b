from functools import lru_cache

import numpy as np
import pytest

from cyclotope import (
    CapExceeded,
    CyclotopeError,
    Tope,
    bruteforce_minimal_decomposition,
    decomposition_set,
    spectrum_fast,
)
from cyclotope import oracle, verification
from cyclotope.topes import _row_blocks


def test_positive_tope():
    result = bruteforce_minimal_decomposition(Tope.positive(3))
    assert result.minimal_set == frozenset({0})
    assert result.unique
    assert result.candidates_checked == 1 << 6


def test_negative_tope_uses_antipode():
    result = bruteforce_minimal_decomposition(Tope.negative(3))
    # -R^0 sits at cycle position t
    assert result.minimal_set == frozenset({3})
    assert result.unique


def test_matches_spectral_route_exhaustively():
    for t in (3, 4, 5):
        for mask in range(1 << t):
            T = Tope.from_bitmask(mask, t)
            result = bruteforce_minimal_decomposition(T)
            assert result.unique
            assert result.minimal_set == decomposition_set(T).vertex_indices()
            assert len(result.minimal_set) == spectrum_fast(T).support_size


def test_budget_cap():
    with pytest.raises(CapExceeded):
        bruteforce_minimal_decomposition(Tope.positive(11))


def test_the_sweep_keeps_the_budget_cap():
    # Above ORACLE_CAP, where verify skips it, the sweep fails as the scalar
    # search does, before the 4^11-row table is built.
    with pytest.raises(CapExceeded, match=r"oracle subset space 4\^11 exceeds the cap"):
        verification.sweep_oracle(11)


@lru_cache(maxsize=1)
def _plain_sums(t):
    """Sums and sizes of all 4^t subsets of the 2t cycle vertices, bit b for
    position b, as one product of membership rows with the vertex rows.
    Vertex k < t flips the first k coordinates of all-plus; vertex t + k is
    the antipode of vertex k."""
    first = np.where(np.arange(t)[None] < np.arange(t)[:, None], -1, 1)
    vertices = np.concatenate([first, -first])
    members = (np.arange(1 << (2 * t))[:, None] >> np.arange(2 * t)) & 1
    return members @ vertices, members.sum(axis=1)


def _scan(T):
    """One tope's search written out: the subsets of the 2t cycle vertices
    whose sum is T, ranked by cardinality, with the superset check."""
    t = T.t
    sums, popcounts = _plain_sums(t)
    matches = np.flatnonzero((sums == T.signs).all(axis=1))
    pc = popcounts[matches]
    least = int(pc.min())
    assert least % 2 == 1
    at_least = matches[pc == least]
    minimal = int(at_least[0])
    assert all(int(mask) & minimal == minimal for mask in matches[pc <= t])
    positions = frozenset(b for b in range(2 * t) if minimal >> b & 1)
    return positions, at_least.size == 1


# Up to t = 6 the oracle's scan is one row block; at t = 8 it spans 8.
@pytest.mark.parametrize("t", [3, 4, 5, 6, 7, 8])
def test_table_equals_a_one_tope_scan_on_every_tope(t):
    if t == 8:
        assert len(list(_row_blocks(1 << t, (1 << t) * t))) == 8
    for mask in range(1 << t):
        T = Tope.from_bitmask(mask, t)
        result = bruteforce_minimal_decomposition(T)
        assert (result.minimal_set, result.unique) == _scan(T), mask
        assert result.candidates_checked == 1 << (2 * t)


@pytest.mark.parametrize(
    "column, value, message",
    [
        (0, -1, "no vertex subset sums to -+-+-; table corrupt"),
        (0, 4, "minimal solution for -+-+- has even size 4"),
        (3, 0b1011, "solution 1011 is not a superset of the minimal 1010101010"),
    ],
)
def test_a_broken_table_entry_raises_the_searchs_error(monkeypatch, column, value, message):
    table = [c.copy() for c in oracle._search_table(5)]
    table[column][0b10101] = value
    monkeypatch.setattr(oracle, "_search_table", lambda t: tuple(table))
    with pytest.raises(CyclotopeError) as info:
        bruteforce_minimal_decomposition(Tope.from_string("-+-+-"))
    assert str(info.value) == message
