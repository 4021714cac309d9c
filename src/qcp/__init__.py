"""Exact characteristic quasi-polynomials of integral hyperplane arrangements.

Counts points of (Z/q)^m avoiding every hyperplane of an integer
arrangement, extracts the quasi-polynomial in q with its lcm and minimum
periods, detects period collapse, and cross-checks everything against a
brute-force counting oracle.  Includes explicit matrix families and
root-system (Shi/Linial) arrangement builders.
"""

from .arrangement import (
    ArrangementInput,
    CollapseReport,
    CountingFormula,
    central_period_summary,
    characteristic_polynomial,
    characteristic_quasi_polynomial,
    collapse_report,
    divisor_formula_count,
    lcm_period,
    q_zero,
)
from .errors import (
    BudgetExceededError,
    InternalConsistencyError,
    QcpError,
    ValidationError,
)
from .families import (
    FamilyParams,
    closed_form_A,
    correction_term,
    ehrhart_form_A,
    family_matrix,
    reciprocity_A,
)
from .intlinalg import IntMatrix, SmithForm, integer_rank, smith_normal_form
from .oracle import ScanReport, brute_force_count, central_scan, generate_central_inputs
from .quasipoly import (
    Polynomial,
    QuasiPolynomial,
    has_gcd_property,
    minimum_period,
)
from .rootsys import (
    RootSubset,
    RootSystem,
    coxeter_number,
    linial_matrix,
    positive_roots,
    shi_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "ArrangementInput",
    "BudgetExceededError",
    "CollapseReport",
    "CountingFormula",
    "FamilyParams",
    "IntMatrix",
    "InternalConsistencyError",
    "Polynomial",
    "QcpError",
    "QuasiPolynomial",
    "RootSubset",
    "RootSystem",
    "ScanReport",
    "SmithForm",
    "ValidationError",
    "brute_force_count",
    "central_period_summary",
    "central_scan",
    "characteristic_polynomial",
    "characteristic_quasi_polynomial",
    "closed_form_A",
    "collapse_report",
    "correction_term",
    "coxeter_number",
    "divisor_formula_count",
    "ehrhart_form_A",
    "family_matrix",
    "generate_central_inputs",
    "has_gcd_property",
    "integer_rank",
    "lcm_period",
    "linial_matrix",
    "minimum_period",
    "positive_roots",
    "q_zero",
    "reciprocity_A",
    "shi_matrix",
    "smith_normal_form",
]
