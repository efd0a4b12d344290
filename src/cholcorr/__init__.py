"""Closed-form Cholesky parametrizations of correlation and covariance
matrices, the identities that tie them together, a random correlation
generator, AR(1) tools, and a sequential dependence t-test.
"""

__version__ = "0.1.0"

from .ar1_sampling import Ar1Spec, ar1_cholesky, ar1_matrix, sample_mvn
from .dependence_test import (
    SampleMatrix,
    StageResult,
    TestReport,
    sequential_test,
)
from .errors import (
    DegenerateColumn,
    NearSingular,
    NotPositiveDefinite,
)
from .identities import (
    ALL_VERIFIERS,
    IdentityReport,
    check_order_conditions,
    verify_general_recursion,
    verify_product_sums,
    verify_ratio_differences,
    verify_recursion,
)
from .matrix_core import (
    CholeskyFactor,
    CorrelationMatrix,
    CovarianceMatrix,
    leading_minor_determinants,
    reference_cholesky,
)
from .parametrizations import (
    chol_covariance,
    chol_detratio,
    chol_semipartial,
    extract_signs,
)
from .randcorr import GeneratorConfig, generate, generate_batch, stream

__all__ = [
    "Ar1Spec",
    "CholeskyFactor",
    "CorrelationMatrix",
    "CovarianceMatrix",
    "DegenerateColumn",
    "GeneratorConfig",
    "IdentityReport",
    "NearSingular",
    "NotPositiveDefinite",
    "SampleMatrix",
    "StageResult",
    "TestReport",
    "ALL_VERIFIERS",
    "ar1_cholesky",
    "ar1_matrix",
    "check_order_conditions",
    "chol_covariance",
    "chol_detratio",
    "chol_semipartial",
    "extract_signs",
    "generate",
    "generate_batch",
    "leading_minor_determinants",
    "reference_cholesky",
    "sample_mvn",
    "sequential_test",
    "stream",
    "verify_general_recursion",
    "verify_product_sums",
    "verify_ratio_differences",
    "verify_recursion",
]
