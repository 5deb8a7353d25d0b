"""The package exports each public thing under one name."""

import cyclotope
from cyclotope import SymmetricCycle

_PUBLIC = [
    "CapExceeded", "CountTable", "CriterionReport", "CyclotopeError", "Decomposition",
    "DimensionMismatch", "DimensionTooSmall", "ENUMERATION_CAP", "EmptySetError",
    "GroundSubset", "IntervalPartition", "InvalidSpectrum", "MIN_DIMENSION",
    "NotProperSubset", "ORACLE_CAP", "OracleResult", "ScaledIntMatrix", "Spectrum",
    "SymmetricCycle", "Tope", "VerificationMismatch", "bruteforce_minimal_decomposition",
    "composition_count", "count_by_boundary_class", "count_by_negpart_and_size",
    "count_cycle_topes_by_negpart", "count_subsets_by_boundary", "count_topes_by_size",
    "cycle_vertex", "decomposition_set", "enumerate_statistics",
    "equal_size_by_interval_count", "equal_size_criterion", "equinumerosity_indicator",
    "formula_table", "gram_entry", "interval_partition", "inverse_gram_entry",
    "inverse_gram_matrix", "inverse_rows", "negative_part", "negpart_meet_join_cards",
    "negpart_meet_join_from_spectra", "negpart_size_from_spectrum", "reconstruct_tope",
    "reorient", "separation_set", "size_difference", "spectrum_dense", "spectrum_fast",
    "spectrum_from_boundary_cases", "spectrum_from_unit_flips", "spectrum_intervals",
    "spectrum_update", "tope_matrix", "unit_flip_spectrum",
]


def test_the_package_exports_each_public_thing_under_one_name():
    assert len(_PUBLIC) == 56
    assert sorted(cyclotope.__all__) == _PUBLIC
    for name in _PUBLIC:
        getattr(cyclotope, name)
    # SymmetricCycle(t), decomposition_set(T).size, list(cycle) and
    # CapExceeded are the one form of each.
    for name in ("build_cycle", "decomposition_size", "BudgetExceeded"):
        assert not hasattr(cyclotope, name), name
    assert not hasattr(SymmetricCycle, "vertices")
