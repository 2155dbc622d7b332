"""Certified lower bounds for the first nontrivial Neumann eigenvalue.

The pipeline: describe a bounded planar (or analytically higher-dimensional)
domain, attach whatever structure is known about it (quasidisc coefficient,
star-shape exponent, an explicit extension norm, central symmetry,
convexity), and the bounds module turns that structure into rigorous lower
bounds for mu_1 via Sobolev extension operators into balls.  A built-in P1
finite-element solver provides independent eigenvalue estimates to check
every claimed bound against.
"""

from .bounds import (
    BoundReport,
    LowerBound,
    ball_mu1,
    best_bound_report,
    extension_ball_bound,
    improvement_condition,
    payne_weinberger_bound,
    quasi_monotonicity_upper,
    quasidisc_bound,
    star_shaped_bound,
    symmetric_domain_bound,
)
from .errors import NumericalError
from .extension_norms import (
    ExtensionNormEstimate,
    StarShapeData,
    half_ball_reflection_norm_sq,
    mikhlin_ball_norm_sq,
    mikhlin_star_norm_sq_bound,
    quasidisc_norm_sq,
)
from .fem import (
    Mesh,
    SpectrumResult,
    assemble,
    neumann_eigenvalues,
    triangulate,
    verify_bound,
)
from .geometry import (
    Ball,
    DomainSpec,
    boundary_loop,
    diameter,
    load_domain_spec,
    min_enclosing_ball,
    named_domain,
    preset_names,
)
from .qcmaps import (
    affine_qc_coefficient,
    piecewise_qc_coefficient,
    spiral_shaped_K,
    star_shaped_K,
)
from .reproduce import example_names
from .special import bessel_i, bessel_j, bessel_k, p_zero

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "BoundReport",
    "DomainSpec",
    "ExtensionNormEstimate",
    "LowerBound",
    "Mesh",
    "NumericalError",
    "SpectrumResult",
    "StarShapeData",
    "affine_qc_coefficient",
    "assemble",
    "ball_mu1",
    "bessel_i",
    "bessel_j",
    "bessel_k",
    "best_bound_report",
    "boundary_loop",
    "diameter",
    "example_names",
    "extension_ball_bound",
    "half_ball_reflection_norm_sq",
    "improvement_condition",
    "load_domain_spec",
    "mikhlin_ball_norm_sq",
    "mikhlin_star_norm_sq_bound",
    "min_enclosing_ball",
    "named_domain",
    "neumann_eigenvalues",
    "p_zero",
    "payne_weinberger_bound",
    "piecewise_qc_coefficient",
    "preset_names",
    "quasi_monotonicity_upper",
    "quasidisc_bound",
    "quasidisc_norm_sq",
    "reproduce",
    "spiral_shaped_K",
    "star_shaped_K",
    "symmetric_domain_bound",
    "triangulate",
    "verify_bound",
]
