"""Exact computation with Hasse-Schmidt derivations over Q and GF(p).

The package provides sparse truncated multivariate series, Hasse-Schmidt
derivations with their group structure, decomposition of a derivation
through a generating family, and coefficient-field extraction on
truncated quotients in positive characteristic.
"""

from .errors import (
    CoefficientTooLarge,
    ComponentOutOfRange,
    DegreeLimitExceeded,
    HasseSchmidtError,
    IncompatibleAmbient,
    LengthMismatch,
    NotABasis,
    NotAUnit,
    PrecisionExhausted,
    ProblemFormatError,
)
from .fields import GF, QQ, FieldSpec, binom_multi
from .series import Series, TSeries, substitute
from .derivations import (
    HSDerivation,
    LeibnizReport,
    compose_multi,
    group_compose,
    group_inverse,
    integrate,
    leibniz_check,
    taylor_basis,
    taylor_delta_table,
    taylor_derivation,
)
from .formula import CoeffTable, apply_table
from .decompose import (
    DecompositionResult,
    Degree1Matrix,
    VerificationReport,
    Witness,
    decompose,
    degree1_matrix,
    residual,
    solve_derivation_coords,
    verify_decomposition,
)
from .coefffield import (
    ComponentMatrix,
    KernelReport,
    QuotientBasis,
    coefficient_field,
    component_matrix,
    joint_kernel,
    nomura_unit_test,
)

__version__ = "0.1.0"

__all__ = [
    "GF",
    "QQ",
    "FieldSpec",
    "binom_multi",
    "Series",
    "TSeries",
    "substitute",
    "HSDerivation",
    "LeibnizReport",
    "compose_multi",
    "group_compose",
    "group_inverse",
    "integrate",
    "leibniz_check",
    "taylor_basis",
    "taylor_delta_table",
    "taylor_derivation",
    "CoeffTable",
    "apply_table",
    "DecompositionResult",
    "Degree1Matrix",
    "VerificationReport",
    "Witness",
    "decompose",
    "degree1_matrix",
    "residual",
    "solve_derivation_coords",
    "verify_decomposition",
    "ComponentMatrix",
    "KernelReport",
    "QuotientBasis",
    "coefficient_field",
    "component_matrix",
    "joint_kernel",
    "nomura_unit_test",
    "HasseSchmidtError",
    "IncompatibleAmbient",
    "LengthMismatch",
    "NotAUnit",
    "ComponentOutOfRange",
    "NotABasis",
    "PrecisionExhausted",
    "ProblemFormatError",
    "CoefficientTooLarge",
    "DegreeLimitExceeded",
]
