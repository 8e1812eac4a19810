"""Elastic fields around an interface crack on a partially debonded elastic
inclusion, with curvature-dependent surface tension on all dividing lines.

The library represents the unknown stress and displacement-derivative jumps
as per-arc Legendre series, collocates the governing singular
integro-differential system on the closed inclusion boundary, and exposes
post-processing of boundary stresses, displacement derivatives, crack opening
and full-field complex potentials.
"""

from .geometry import (
    CircleContour,
    Contour,
    EllipseContour,
    TabulatedContour,
    circular_contour,
    elliptical_contour,
)
from .kernels import (
    QuadratureRule,
    TipProximityError,
    cauchy_pv,
    contour_integral,
    singular_apply,
)
from .model import (
    CrackTractions,
    Material,
    ProblemSetup,
    RemoteLoad,
    SurfaceTension,
    far_field_constants,
    kolosov,
    m_coefficients,
)
from .postprocess import (
    NearBoundaryError,
    boundary_fields,
    crack_face_fields,
    deformed_boundary,
    displacements,
    interface_fields,
    max_crack_aperture,
    max_crack_opening,
    potentials_at,
    tip_exponents,
    tip_fits,
    tip_ladder,
    tip_ladder_checks,
)
from .solver import (
    DensitySet,
    LinearSystem,
    ResidualReport,
    SingularSystemError,
    assemble,
    solve,
    solve_cases,
    solve_problem,
)
from .tips import face_tension_length, solve_tip_resolved
from .validation import (
    ValidationCheck,
    ValidationReport,
    conservation_checks,
    original_bc_residual,
    trace_consistency,
    validate_solution,
)
from .config import ConfigError, Numerics, RunConfig, dump_config, parse_config, parse_config_text
from .scenarios import SCENARIOS, scenario_config

__version__ = "0.1.0"

__all__ = [
    "CircleContour",
    "ConfigError",
    "Numerics",
    "NearBoundaryError",
    "RunConfig",
    "SCENARIOS",
    "ValidationCheck",
    "ValidationReport",
    "boundary_fields",
    "conservation_checks",
    "crack_face_fields",
    "deformed_boundary",
    "displacements",
    "dump_config",
    "face_tension_length",
    "interface_fields",
    "max_crack_aperture",
    "max_crack_opening",
    "original_bc_residual",
    "parse_config",
    "parse_config_text",
    "potentials_at",
    "scenario_config",
    "solve_tip_resolved",
    "tip_exponents",
    "tip_fits",
    "tip_ladder",
    "tip_ladder_checks",
    "trace_consistency",
    "validate_solution",
    "Contour",
    "CrackTractions",
    "DensitySet",
    "EllipseContour",
    "LinearSystem",
    "Material",
    "ProblemSetup",
    "QuadratureRule",
    "RemoteLoad",
    "ResidualReport",
    "SingularSystemError",
    "SurfaceTension",
    "TabulatedContour",
    "TipProximityError",
    "assemble",
    "cauchy_pv",
    "circular_contour",
    "contour_integral",
    "elliptical_contour",
    "far_field_constants",
    "kolosov",
    "m_coefficients",
    "singular_apply",
    "solve",
    "solve_cases",
    "solve_problem",
]
