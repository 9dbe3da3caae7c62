"""Exact machinery for composite power series.

Truncated multivariate series over the rationals, map germs and formal
composition, Jacobian vanishing profiles (mu, nu, alpha, lambda), the
higher-order Cramer operator tables that linearize derivatives of a
composite, coefficient-by-coefficient recovery of the outer series with a
recomposition residual, and floating-point radius estimation with
scaling-law fits and stratification sweeps.
"""

from .errors import (
    CenterMismatch,
    CompositionError,
    DegenerateFamilyError,
    DimensionMismatch,
    GermRadiusError,
    InsufficientShellsError,
    JobError,
    ParseError,
    SingularJacobianError,
    TruncationError,
)
from .mindex import (
    enumerate_degree,
    enumerate_upto,
    grlex_key,
    mi_factorial,
)
from .pseries import (
    MapGerm,
    TruncatedSeries,
    as_exact,
    chain_rule_residuals,
    compose,
    product_coefficient,
    rational_str,
    series_from_dict,
    series_to_dict,
)
from .polymap import Polynomial, PolynomialMap
from .jacobian import (
    JacobianProfile,
    adjugate,
    jacobian_matrix,
    matmul,
    profile,
    profile_to_dict,
)
from .cramerops import (
    TOperatorTable,
    build_t_operators,
    table_to_dict,
    verify_cramer_base,
    verify_defining_identity,
    verify_identity_on_monomials,
    verify_order_bound,
    working_degree,
)
from .recovery import (
    RecoveryReport,
    extraction_witnesses,
    max_recoverable_degree,
    recover,
    report_to_dict,
)
from .radius import (
    BoundReport,
    RadiusEstimate,
    ScalingFit,
    Stratification,
    StratumGroup,
    StratumSample,
    bound_report,
    estimate_radius,
    scaling_fit,
    shells_to_csv,
    stratification_to_csv,
    stratify,
)

__version__ = "0.1.0"
