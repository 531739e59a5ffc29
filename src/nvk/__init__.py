"""Numerics for Herglotz-Nevanlinna integral representations.

The package evaluates functions with non-negative imaginary part on the
poly-upper half-plane from their representation data (a, b, mu), builds the
data of convex combinations z |-> q(k1 z1 + ... + kn zn) explicitly, checks
the growth and Nevanlinna conditions of candidate representing measures,
and verifies every closed-form identity involved against two independent
numerical routes: adaptive quadrature and residue summation.
"""

from .conditions import (
    Case,
    Classification,
    MeasureTraits,
    check_cubic_condition,
    check_growth,
    check_nevanlinna_2var,
    check_nevanlinna_nvar,
    classify_pushforward2d,
    default_z_grid,
    derive_traits,
    nevanlinna_grid,
)
from .errors import (
    DimensionMismatchError,
    DomainError,
    GrowthConditionError,
    InconsistencyError,
    IntegrandError,
    NvkError,
    QuadratureFailure,
)
from .kernels import (
    kernel_1d,
    kernel_nd,
    kernel_nd_rational,
    kernel_nd_sum,
    ladder_kernel,
    ladder_kernel_full,
)
from .ladder import (
    LadderReport,
    MainTheoremReport,
    ladder_closed_form,
    rung_prefactors,
    verify_final_step,
    verify_full_reduction,
    verify_main_theorem,
    verify_step,
)
from .measures import (
    Atomic,
    Box,
    LebesgueDensity,
    LebesguePad,
    Measure,
    Product,
    Pushforward2D,
    PushforwardLadder,
    indicator,
    integrate,
    integrate_many,
    lebesgue,
    mass,
    zero_measure,
)
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    QuadratureResult,
)
from .representation import (
    HerglotzReport,
    RepresentationData,
    check_herglotz,
    evaluate,
)
from .residues import RationalFunction, find_poles, line_integral, residue_at
from .transform import (
    coefficients_to_ladder,
    ladder_matrix,
    ladder_normalization,
    ladder_to_coefficients,
    transform,
    transform_general,
)

__version__ = "0.1.0"
