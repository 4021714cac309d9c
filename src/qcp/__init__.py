"""Exact characteristic quasi-polynomials of integral hyperplane arrangements.

Counts points of (Z/q)^m avoiding every hyperplane of an integer
arrangement, extracts the quasi-polynomial in q with its lcm and minimum
periods, detects period collapse, and cross-checks everything against a
brute-force counting oracle.  Includes explicit matrix families and
root-system (Shi/Linial) arrangement builders.

The exports are the paper's objects (both periods, collapse and q0), the
builders of its arrangements, and the audits and oracles that the benchmark
calls; README.md says which is which.
"""

from .arrangement import (
    ArrangementInput,
    CollapseReport,
    CountingFormula,
    central_period_summary,
    central_scan,
    characteristic_quasi_polynomial,
    collapse_report,
    divisor_formula_count,
    generate_central_inputs,
    lcm_period,
    q_zero,
)
from .errors import (
    BudgetExceededError,
    InternalConsistencyError,
    QcpError,
    ValidationError,
)
from .families import FamilyParams, family_matrix
from .intlinalg import IntMatrix
from .oracle import brute_force_count
from .quasipoly import (
    Polynomial,
    QuasiPolynomial,
    has_gcd_property,
    minimum_period,
)
from .rootsys import (
    RootSubset,
    RootSystem,
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
    "ValidationError",
    "brute_force_count",
    "central_period_summary",
    "central_scan",
    "characteristic_quasi_polynomial",
    "collapse_report",
    "divisor_formula_count",
    "family_matrix",
    "generate_central_inputs",
    "has_gcd_property",
    "lcm_period",
    "linial_matrix",
    "minimum_period",
    "positive_roots",
    "q_zero",
    "shi_matrix",
]
