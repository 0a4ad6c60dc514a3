"""Exact counts of nodal plane curves with tangency conditions.

The engine computes degrees of generalized Severi varieties (nodal plane
curves with prescribed line contact) by degeneration, rational curve
counts by Kontsevich's recursion, and certifies both against structural
identities (WDVV, Getzler) and classical geometry (intersection theory,
Euler characteristics, two independent derivations of the 12 nodal
cubics through 8 general points).  All arithmetic is exact.
"""

__version__ = "0.1.0"

from .classical import (
    ArithmeticMismatch,
    CaseStudyReport,
    chow_one_node,
    cross_ratio_cubics,
    euler_one_node,
    fibration_cubics,
)
from .genfunc import GeneratingPolynomial, getzler_residual, severi_generating_function
from .kontsevich import rational_count, rational_table
from .series import (
    BivariateSeries,
    PotentialSpec,
    quantum_potential,
    wdvv_residual,
    wdvv_window,
)
from .severi import (
    DegreeRecord,
    MemoStore,
    NonPositiveDegree,
    SeveriIndex,
    WeightMismatch,
    dimension,
    first_sum_terms,
    genus,
    second_sum_terms,
    severi_degree,
    severi_table,
    validate,
)

__all__ = [
    "ArithmeticMismatch",
    "BivariateSeries",
    "CaseStudyReport",
    "DegreeRecord",
    "GeneratingPolynomial",
    "MemoStore",
    "NonPositiveDegree",
    "PotentialSpec",
    "SeveriIndex",
    "WeightMismatch",
    "__version__",
    "chow_one_node",
    "cross_ratio_cubics",
    "dimension",
    "euler_one_node",
    "fibration_cubics",
    "first_sum_terms",
    "genus",
    "getzler_residual",
    "quantum_potential",
    "rational_count",
    "rational_table",
    "second_sum_terms",
    "severi_degree",
    "severi_generating_function",
    "severi_table",
    "validate",
    "wdvv_residual",
    "wdvv_window",
]
