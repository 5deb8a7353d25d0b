"""Minimal decompositions of hypercube topes over a distinguished symmetric cycle.

A tope is a vertex of the discrete hypercube {1, -1}^t.  The distinguished
symmetric cycle visits 2t of them; every tope is a signed sum of an odd,
inclusion-minimal subset of the cycle's vertices, and that subset is unique.
This package computes the decomposition by three independent routes, counts
topes by decomposition size in closed form and by an exact tally, and decides
when two reorientations have equally many terms without computing either
decomposition.

All arithmetic is exact: matrices carry explicit integer denominators and
spectra live in {-1, 0, 1}.
"""

from .counting import (
    ENUMERATION_CAP,
    CountTable,
    composition_count,
    count_by_boundary_class,
    count_by_negpart_and_size,
    count_cycle_topes_by_negpart,
    count_subsets_by_boundary,
    count_topes_by_size,
    enumerate_statistics,
    formula_table,
)
from .cycle import (
    ScaledIntMatrix,
    SymmetricCycle,
    cycle_vertex,
    gram_entry,
    inverse_gram_entry,
    inverse_gram_matrix,
    inverse_rows,
    tope_matrix,
)
from .decomposition import (
    Spectrum,
    decomposition_set,
    negpart_meet_join_from_spectra,
    negpart_size_from_spectrum,
    reconstruct_tope,
    size_difference,
    spectrum_dense,
    spectrum_fast,
    spectrum_from_boundary_cases,
    spectrum_from_unit_flips,
    spectrum_intervals,
    spectrum_update,
    unit_flip_spectrum,
)
from .equinumerosity import (
    CriterionReport,
    equal_size_by_interval_count,
    equal_size_criterion,
    equinumerosity_indicator,
)
from .errors import (
    CapExceeded,
    CyclotopeError,
    DimensionMismatch,
    DimensionTooSmall,
    EmptySetError,
    InvalidSpectrum,
    NotProperSubset,
    VerificationMismatch,
)
from .oracle import ORACLE_CAP, OracleResult, bruteforce_minimal_decomposition
from .topes import (
    GroundSubset,
    IntervalPartition,
    MIN_DIMENSION,
    Tope,
    interval_partition,
    negative_part,
    negpart_meet_join_cards,
    reorient,
    separation_set,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "CountTable",
    "CriterionReport",
    "CyclotopeError",
    "DimensionMismatch",
    "DimensionTooSmall",
    "EmptySetError",
    "ENUMERATION_CAP",
    "GroundSubset",
    "IntervalPartition",
    "InvalidSpectrum",
    "MIN_DIMENSION",
    "NotProperSubset",
    "ORACLE_CAP",
    "OracleResult",
    "ScaledIntMatrix",
    "Spectrum",
    "SymmetricCycle",
    "Tope",
    "VerificationMismatch",
    "bruteforce_minimal_decomposition",
    "composition_count",
    "count_by_boundary_class",
    "count_by_negpart_and_size",
    "count_cycle_topes_by_negpart",
    "count_subsets_by_boundary",
    "count_topes_by_size",
    "cycle_vertex",
    "decomposition_set",
    "enumerate_statistics",
    "equal_size_by_interval_count",
    "equal_size_criterion",
    "equinumerosity_indicator",
    "formula_table",
    "gram_entry",
    "interval_partition",
    "inverse_gram_entry",
    "inverse_gram_matrix",
    "inverse_rows",
    "negative_part",
    "negpart_meet_join_cards",
    "negpart_meet_join_from_spectra",
    "negpart_size_from_spectrum",
    "reconstruct_tope",
    "reorient",
    "separation_set",
    "size_difference",
    "spectrum_dense",
    "spectrum_fast",
    "spectrum_from_boundary_cases",
    "spectrum_from_unit_flips",
    "spectrum_intervals",
    "spectrum_update",
    "tope_matrix",
    "unit_flip_spectrum",
]
