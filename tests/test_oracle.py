import pytest

from cyclotope import (
    BudgetExceeded,
    Tope,
    bruteforce_minimal_decomposition,
    decomposition_set,
    spectrum_fast,
)


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
    with pytest.raises(BudgetExceeded):
        bruteforce_minimal_decomposition(Tope.positive(11))
