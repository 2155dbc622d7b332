"""Certified lower bounds for the first nontrivial Neumann eigenvalue.

The pipeline: describe a bounded planar (or analytically higher-dimensional)
domain, attach whatever structure is known about it (quasidisc coefficient,
star-shape exponent, an explicit extension norm, central symmetry,
convexity), and the bounds module turns that structure into rigorous lower
bounds for mu_1 via Sobolev extension operators into balls.  A built-in P1
finite-element solver provides independent eigenvalue estimates to check
every claimed bound against.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it; the submodules load on first
# attribute access (PEP 562), so `import neubound` loads neither NumPy nor
# SciPy.  "reproduce" names the submodule itself.
_EXPORTS = {
    name: module
    for module, names in {
        "bounds": "BoundReport ball_mu1 best_bound_report extension_ball_bound"
        " improvement_condition payne_weinberger_bound star_shaped_bound symmetric_domain_bound",
        "errors": "NumericalError",
        "extension_norms": "ExtensionNormEstimate StarShapeData half_ball_reflection_norm_sq"
        " mikhlin_ball_norm_sq mikhlin_star_norm_sq_bound quasidisc_norm_sq",
        "fem": "Mesh SpectrumResult assemble neumann_eigenvalues triangulate verify_bound",
        "geometry": "Ball DomainSpec boundary_loop diameter load_domain_spec"
        " min_enclosing_ball named_domain preset_names",
        "qcmaps": "affine_qc_coefficient piecewise_qc_coefficient spiral_shaped_K star_shaped_K",
        "reproduce": "example_names reproduce",
        "special": "bessel_i bessel_k p_zero",
    }.items()
    for name in names.split()
}
__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name, name)
    if module not in _EXPORTS.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    return value if name == module else getattr(value, name)


def __dir__():
    return sorted(globals().keys() | _EXPORTS.keys())
