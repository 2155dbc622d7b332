"""The shared argument checks: every entry point rejects the same bad values."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

import neubound as nb
import oracles
from neubound.errors import check_int, check_real


def _disc(**fields):
    return nb.DomainSpec(kind="sampler", name="unit_disc", **fields)


_MESH = nb.triangulate(_disc(), refinement=0)


# entry point and argument -> (call with that argument, a value out of its
# range, whether the argument is an integer, a value in its range)
_ARGUMENTS = {
    "DomainSpec.dim": (lambda v: _disc(dim=v), 1, True, 3),
    "DomainSpec.samples": (lambda v: _disc(samples=v), 2, True, 300),
    "DomainSpec.qc_coefficient": (lambda v: _disc(qc_coefficient=v), 0.5, False, 1.5),
    "DomainSpec.star_beta": (lambda v: _disc(star_beta=v), 1.0, False, 0.5),
    "DomainSpec.norm_sq": (lambda v: _disc(norm_sq=v), 0.99, False, 2.0),
    "ball_mu1.n": (lambda v: nb.ball_mu1(v, 1.0), 1, True, 3),
    "ball_mu1.radius": (lambda v: nb.ball_mu1(2, v), 0.0, False, 2.0),
    "extension_ball_bound.norm_sq": (lambda v: nb.extension_ball_bound(v, 1.0, 2), 0.5, False, 2.0),
    "extension_ball_bound.radius": (lambda v: nb.extension_ball_bound(2.0, v, 2), -1.0, False, 1.5),
    "symmetric_domain_bound.norm_sq": (lambda v: nb.symmetric_domain_bound(v, 1.0, 2), 0.5, False, 2.0),
    "symmetric_domain_bound.diam": (lambda v: nb.symmetric_domain_bound(2.0, v, 2), 0.0, False, 1.5),
    "improvement_condition.norm_sq": (lambda v: nb.improvement_condition(v, 3), 0.5, False, 2.0),
    "improvement_condition.n": (lambda v: nb.improvement_condition(2.0, v), 1, True, 3),
    "quasi_monotonicity_upper.mu1_inner": (lambda v: oracles.quasi_monotonicity_upper(v, 2.0), -1.0, False, 1.0),
    "quasi_monotonicity_upper.norm_sq": (lambda v: oracles.quasi_monotonicity_upper(1.0, v), 0.5, False, 2.0),
    "star_shaped_bound.beta": (lambda v: nb.star_shaped_bound(v, 2.0), 1.0, False, 0.5),
    "star_shaped_bound.diam": (lambda v: nb.star_shaped_bound(0.5, v), 0.0, False, 2.0),
    "ExtensionNormEstimate.value_sq": (lambda v: nb.ExtensionNormEstimate(v, "exact", "s"), 0.5, False, 2.0),
    "quasidisc_norm_sq.k": (lambda v: nb.quasidisc_norm_sq(v), 0.99, False, 1.5),
    "mikhlin_ball_norm_sq.n": (lambda v: nb.mikhlin_ball_norm_sq(v, 2.0), 2, True, 3),
    "mikhlin_ball_norm_sq.big_r": (lambda v: nb.mikhlin_ball_norm_sq(3, v), 1.0, False, 2.0),
    "StarShapeData.m1": (lambda v: nb.StarShapeData(v, 1.5, 0.3, 3, 2.0), 0.0, False, 1.0),
    "StarShapeData.m2": (lambda v: nb.StarShapeData(1.0, v, 0.3, 3, 2.0), 0.9, False, 2.0),
    "StarShapeData.m3": (lambda v: nb.StarShapeData(1.0, 1.5, v, 3, 2.0), -0.1, False, 0.5),
    "StarShapeData.n": (lambda v: nb.StarShapeData(1.0, 1.5, 0.3, v, 2.0), 2, True, 3),
    "StarShapeData.big_r": (lambda v: nb.StarShapeData(1.0, 1.5, 0.3, 3, v), 1.0, False, 2.0),
    "star_shaped_K.beta": (lambda v: nb.star_shaped_K(v), -0.1, False, 0.5),
    # a negative entry here reverses the orientation
    "affine_qc_coefficient.matrix": (lambda v: nb.affine_qc_coefficient([[v, 0], [0, 1]]), -1.0, False, 2.0),
    "spiral_shaped_K.gamma": (lambda v: nb.spiral_shaped_K(0.5, v), 1.0, False, 0.25),
    "bessel_j.nu": (lambda v: oracles.bessel_j(v, 1.0), -1.0, False, 1.0),
    "bessel_j.x": (lambda v: oracles.bessel_j(1.0, v), -1.0, False, 1.5),
    "bessel_i.nu": (lambda v: nb.bessel_i(v, 1.0), -1.0, False, 1.0),
    "bessel_i.x": (lambda v: nb.bessel_i(1.0, v), -1.0, False, 1.5),
    "bessel_k.x": (lambda v: nb.bessel_k(1.0, v), 0.0, False, 1.5),
    "p_zero.n": (lambda v: nb.p_zero(v, tol=1e-10), 1, True, 3),
    "p_zero.tol": (lambda v: nb.p_zero(2, tol=v), 0.0, False, 0.25),
    "triangulate.refinement": (lambda v: nb.triangulate(_disc(), refinement=v), 9, True, 1),
    "verify_bound.refinement": (lambda v: nb.verify_bound(_disc(), refinement=v), -1, True, 0),
    "verify_bound.k": (lambda v: nb.verify_bound(_disc(), refinement=0, k=v), 11, True, 3),
    "neumann_eigenvalues.k": (lambda v: nb.neumann_eigenvalues(_MESH, k=v), 1, True, 3),
}


_HUGE = 10**400  # an int beyond the float range: float(_HUGE) overflows


def _cases():
    for name, (call, out_of_range, integer, _) in _ARGUMENTS.items():
        extra = [3.0] if integer else [_HUGE]
        for bad in [True, np.True_, math.nan, math.inf, "2", *extra, out_of_range]:
            label = "10**400" if bad is _HUGE else repr(bad)
            yield pytest.param(call, bad, id=f"{name}-{label}")


@pytest.mark.parametrize("call, bad", _cases())
def test_entry_points_reject_bad_numbers(call, bad):
    nb.p_zero(3, tol=1e-10)  # the cached value must not answer p_zero(3.0, tol=1e-10)
    with pytest.raises(ValueError):
        call(bad)


def _numpy_cases():
    for name, (call, _, integer, good) in _ARGUMENTS.items():
        values = [np.int64(good), np.uint16(good)] if integer else [np.float32(good), np.float64(good)]
        if not integer and good == int(good):
            values.append(np.int64(good))
        for value in values:
            yield pytest.param(call, value, id=f"{name}-{value!r}")


@pytest.mark.parametrize("call, value", _numpy_cases())
def test_entry_points_accept_numpy_scalars_in_range(call, value):
    call(value)


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
    # NumPy's scalars come back as Python's numbers
    for value, expected in ((np.float32(1.5), 1.5), (np.int64(2), 2.0), (np.uint8(3), 3.0)):
        assert check_real("x", value, 0) == expected and type(check_real("x", value, 0)) is float
    assert check_int("n", np.int64(3), 3) == 3 and type(check_int("n", np.uint16(3), 3)) is int


def test_a_spec_keeps_its_checked_integers():
    spec = _disc(dim=np.int64(3), samples=np.int64(300))
    assert (spec.dim, spec.samples) == (3, 300)
    assert type(spec.dim) is int and type(spec.samples) is int


def test_check_real_compares_ints_with_the_float_range():
    # float(-_HUGE) would raise OverflowError, not ValueError
    assert check_real("x", int(sys.float_info.max), 0) == sys.float_info.max
    with pytest.raises(ValueError, match=r"x must be a finite number in \[-inf, inf\)"):
        check_real("x", -_HUGE, -math.inf)
