"""Invariant subspaces of dissipative operators in finite Krein spaces.

Computes and certifies maximal nonnegative invariant subspaces of dense
complex block operators that are dissipative with respect to the indefinite
inner product [x, y] = (Jx, y), J = diag(I_p, -I_m), together with
machine checks of the quantitative estimates the construction rests on.
"""

import os as _os
import sys as _sys

# KREIN_THREADS caps BLAS parallelism; honored only if numpy is not yet up.
if "KREIN_THREADS" in _os.environ and "numpy" not in _sys.modules:
    _threads = _os.environ["KREIN_THREADS"]
    if _threads.isdigit() and int(_threads) >= 1:
        for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            _os.environ.setdefault(_var, _threads)

from .blocks import (  # noqa: E402
    BlockOperator,
    SchurData,
    assemble,
    decompose,
    dissipativity_margin,
    factorization_residual,
    g_decay_profile,
    g_uniform_bound_check,
    resolvent_asymptotics_check,
    resolvent_identity_residuals,
    schur_data,
)
from .errors import (  # noqa: E402
    BoundaryEigenvalue,
    ConditionIFailed,
    ContourTooClose,
    DimensionMismatch,
    KreinError,
    NoCauchyConvergence,
    NonFinite,
    NormExceeded,
    NotDissipative,
    NotMaximal,
    NotNonnegative,
    NotUniformlyDissipative,
    QuadratureNotConverged,
    RankAmbiguous,
    SingularShift,
)
from .geometry import (  # noqa: E402
    AngleOperator,
    KreinStructure,
    Subspace,
    angle_operator_from_subspace,
    classify_subspace,
    indefinite_inner_product,
    maximality_witness,
    subspace_from_angle_operator,
)
from .harness import (  # noqa: E402
    InstanceSpec,
    random_dissipative,
    run_property_suite,
)
from .numerics import (  # noqa: E402
    operator_norm,
    solve_shifted,
)
from .projectors import (  # noqa: E402
    ProjectorReport,
    default_contour_radius,
    invariant_subspace_from_projector,
    riesz_projector_exact,
    riesz_projector_quadrature,
)
from .solver import (  # noqa: E402
    SolverConfig,
    SolveReport,
    galerkin_truncate,
    regularize,
    riccati_residual,
    solve_theorem,
    solve_uniformly_dissipative,
)

__version__ = "0.1.0"

__all__ = [
    "AngleOperator",
    "BlockOperator",
    "BoundaryEigenvalue",
    "ConditionIFailed",
    "ContourTooClose",
    "DimensionMismatch",
    "InstanceSpec",
    "KreinError",
    "KreinStructure",
    "NoCauchyConvergence",
    "NonFinite",
    "NormExceeded",
    "NotDissipative",
    "NotMaximal",
    "NotNonnegative",
    "NotUniformlyDissipative",
    "ProjectorReport",
    "QuadratureNotConverged",
    "RankAmbiguous",
    "SchurData",
    "SingularShift",
    "SolveReport",
    "SolverConfig",
    "Subspace",
    "angle_operator_from_subspace",
    "assemble",
    "classify_subspace",
    "decompose",
    "default_contour_radius",
    "dissipativity_margin",
    "factorization_residual",
    "g_decay_profile",
    "g_uniform_bound_check",
    "galerkin_truncate",
    "indefinite_inner_product",
    "invariant_subspace_from_projector",
    "maximality_witness",
    "operator_norm",
    "random_dissipative",
    "regularize",
    "resolvent_asymptotics_check",
    "resolvent_identity_residuals",
    "riccati_residual",
    "riesz_projector_exact",
    "riesz_projector_quadrature",
    "run_property_suite",
    "schur_data",
    "solve_shifted",
    "solve_theorem",
    "solve_uniformly_dissipative",
    "subspace_from_angle_operator",
]
