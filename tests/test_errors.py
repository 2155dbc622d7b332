"""The shared argument checks: every entry point rejects the same bad values."""

from __future__ import annotations

import math
import sys

import pytest

import neubound as nb
import oracles
from neubound.errors import check_int, check_real


def _disc(**fields):
    return nb.DomainSpec(kind="sampler", name="unit_disc", **fields)


_MESH = nb.triangulate(_disc(), refinement=0)


# entry point and argument -> (call with that argument, a value out of its
# range, whether the argument is an integer)
_ARGUMENTS = {
    "DomainSpec.dim": (lambda v: _disc(dim=v), 1, True),
    "DomainSpec.samples": (lambda v: _disc(samples=v), 2, True),
    "DomainSpec.qc_coefficient": (lambda v: _disc(qc_coefficient=v), 0.5, False),
    "DomainSpec.star_beta": (lambda v: _disc(star_beta=v), 1.0, False),
    "DomainSpec.norm_sq": (lambda v: _disc(norm_sq=v), 0.99, False),
    "ball_mu1.n": (lambda v: nb.ball_mu1(v, 1.0), 1, True),
    "ball_mu1.radius": (lambda v: nb.ball_mu1(2, v), 0.0, False),
    "extension_ball_bound.norm_sq": (lambda v: nb.extension_ball_bound(v, 1.0, 2), 0.5, False),
    "extension_ball_bound.radius": (lambda v: nb.extension_ball_bound(2.0, v, 2), -1.0, False),
    "symmetric_domain_bound.norm_sq": (lambda v: nb.symmetric_domain_bound(v, 1.0, 2), 0.5, False),
    "symmetric_domain_bound.diam": (lambda v: nb.symmetric_domain_bound(2.0, v, 2), 0.0, False),
    "improvement_condition.norm_sq": (lambda v: nb.improvement_condition(v, 3), 0.5, False),
    "improvement_condition.n": (lambda v: nb.improvement_condition(2.0, v), 1, True),
    "quasi_monotonicity_upper.mu1_inner": (lambda v: oracles.quasi_monotonicity_upper(v, 2.0), -1.0, False),
    "quasi_monotonicity_upper.norm_sq": (lambda v: oracles.quasi_monotonicity_upper(1.0, v), 0.5, False),
    "star_shaped_bound.beta": (lambda v: nb.star_shaped_bound(v, 2.0), 1.0, False),
    "star_shaped_bound.diam": (lambda v: nb.star_shaped_bound(0.5, v), 0.0, False),
    "ExtensionNormEstimate.value_sq": (lambda v: nb.ExtensionNormEstimate(v, "exact", "s"), 0.5, False),
    "quasidisc_norm_sq.k": (lambda v: nb.quasidisc_norm_sq(v), 0.99, False),
    "mikhlin_ball_norm_sq.n": (lambda v: nb.mikhlin_ball_norm_sq(v, 2.0), 2, True),
    "mikhlin_ball_norm_sq.big_r": (lambda v: nb.mikhlin_ball_norm_sq(3, v), 1.0, False),
    "StarShapeData.m1": (lambda v: nb.StarShapeData(v, 1.5, 0.3, 3, 2.0), 0.0, False),
    "StarShapeData.m2": (lambda v: nb.StarShapeData(1.0, v, 0.3, 3, 2.0), 0.9, False),
    "StarShapeData.m3": (lambda v: nb.StarShapeData(1.0, 1.5, v, 3, 2.0), -0.1, False),
    "StarShapeData.n": (lambda v: nb.StarShapeData(1.0, 1.5, 0.3, v, 2.0), 2, True),
    "StarShapeData.big_r": (lambda v: nb.StarShapeData(1.0, 1.5, 0.3, 3, v), 1.0, False),
    "star_shaped_K.beta": (lambda v: nb.star_shaped_K(v), -0.1, False),
    # a negative entry here reverses the orientation
    "affine_qc_coefficient.matrix": (lambda v: nb.affine_qc_coefficient([[v, 0], [0, 1]]), -1.0, False),
    "spiral_shaped_K.gamma": (lambda v: nb.spiral_shaped_K(0.5, v), 1.0, False),
    "bessel_j.nu": (lambda v: oracles.bessel_j(v, 1.0), -1.0, False),
    "bessel_j.x": (lambda v: oracles.bessel_j(1.0, v), -1.0, False),
    "bessel_i.nu": (lambda v: nb.bessel_i(v, 1.0), -1.0, False),
    "bessel_i.x": (lambda v: nb.bessel_i(1.0, v), -1.0, False),
    "bessel_k.x": (lambda v: nb.bessel_k(1.0, v), 0.0, False),
    "p_zero.n": (lambda v: nb.p_zero(v, tol=1e-10), 1, True),
    "p_zero.tol": (lambda v: nb.p_zero(2, tol=v), 0.0, False),
    "triangulate.refinement": (lambda v: nb.triangulate(_disc(), refinement=v), 9, True),
    "verify_bound.refinement": (lambda v: nb.verify_bound(_disc(), refinement=v), -1, True),
    "verify_bound.k": (lambda v: nb.verify_bound(_disc(), refinement=0, k=v), 11, True),
    "neumann_eigenvalues.k": (lambda v: nb.neumann_eigenvalues(_MESH, k=v), 1, True),
}


_HUGE = 10**400  # an int beyond the float range: float(_HUGE) overflows


def _cases():
    for name, (call, out_of_range, integer) in _ARGUMENTS.items():
        extra = [3.0] if integer else [_HUGE]
        for bad in [True, math.nan, math.inf, "2", *extra, out_of_range]:
            label = "10**400" if bad is _HUGE else repr(bad)
            yield pytest.param(call, bad, id=f"{name}-{label}")


@pytest.mark.parametrize("call, bad", _cases())
def test_entry_points_reject_bad_numbers(call, bad):
    nb.p_zero(3, tol=1e-10)  # the cached value must not answer p_zero(3.0, tol=1e-10)
    with pytest.raises(ValueError):
        call(bad)


def test_checks_accept_and_convert():
    assert check_real("x", 2, 1) == 2.0 and type(check_real("x", 2, 1)) is float
    assert check_real("x", 0.0, 0.0, 1.0) == 0.0
    assert check_real("x", -5.0, -math.inf) == -5.0
    with pytest.raises(ValueError, match=r"x must be a finite number in \(0, inf\), got 0"):
        check_real("x", 0, 0, strict=True)
    with pytest.raises(ValueError, match=r"in \[0, 1\)"):
        check_real("x", 1.0, 0, 1)
    assert check_int("n", 3, 3) == 3
    with pytest.raises(ValueError, match="n must be an integer >= 3, got 2"):
        check_int("n", 2, 3)


def test_check_real_compares_ints_with_the_float_range():
    # float(-_HUGE) would raise OverflowError, not ValueError
    assert check_real("x", int(sys.float_info.max), 0) == sys.float_info.max
    with pytest.raises(ValueError, match=r"x must be a finite number in \[-inf, inf\)"):
        check_real("x", -_HUGE, -math.inf)
