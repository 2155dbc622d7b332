"""Extension-operator norms: the two-ball formula, star bound, quasidisc bound."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from neubound import extension_norms as en
from neubound.errors import NumericalError

# frozen against a 40-digit evaluation of the same formula
_BALL_REFERENCE = [
    (3, 2.0, 8.3890560989306502),
    (3, 3.0, 7.5082590209527678),
    (4, 2.0, 13.340173744732894),
    (5, 2.0, 20.0358302313363),
    (6, 3.0, 27.825951303426122),
    (8, 2.0, 51.941676061404814),
    # odd n >= 9 catch an upward I recurrence, which drifts at half-integer order
    (9, 2.0, 66.690759975036511),
    (15, 2.0, 198.13701089894091),
    (21, 2.0, 402.05834567772152),
]


@pytest.mark.parametrize("n,big_r,want", _BALL_REFERENCE)
def test_ball_norm_reference_values(n, big_r, want):
    est = en.mikhlin_ball_norm_sq(n, big_r)
    assert est.kind == "exact"
    assert est.value_sq == pytest.approx(want, rel=1e-9)


def test_ball_norm_published_values():
    assert en.mikhlin_ball_norm_sq(3, 2.0).value_sq == pytest.approx(8.38905, abs=1e-4)
    assert en.mikhlin_ball_norm_sq(3, 3.0).value_sq == pytest.approx(7.50825, abs=1e-4)


def test_ball_norm_decreasing_in_outer_radius():
    for n in (3, 4, 5):
        grid = np.linspace(1.05, 12.0, 60)
        values = [en.mikhlin_ball_norm_sq(n, float(r)).value_sq for r in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_ball_norm_limits():
    # blowing up as the outer ball closes onto the inner one
    assert en.mikhlin_ball_norm_sq(3, 1.001).value_sq > 1e3
    # n = 3 tends to 1 + (e^2 - 1) = e^2 for a huge outer ball
    assert en.mikhlin_ball_norm_sq(3, 100.0).value_sq == pytest.approx(math.e**2, rel=1e-10)


def test_ball_norm_validation():
    with pytest.raises(ValueError):
        en.mikhlin_ball_norm_sq(2, 2.0)  # formula needs n > 2
    with pytest.raises(ValueError):
        en.mikhlin_ball_norm_sq(3, 1.0)
    with pytest.raises((NumericalError, OverflowError)):
        en.mikhlin_ball_norm_sq(3, 900.0)


def test_ball_norm_denominator_rounded_to_zero_is_a_numerical_error():
    # one ulp above R = 1, I_150 and K_150 round to their values at 1 and cancel exactly
    with pytest.raises(NumericalError, match="denominator is not positive at n=302, R=1.0000000000000002: 0.0"):
        en.mikhlin_ball_norm_sq(302, math.nextafter(1.0, 2.0))


_STAR_REFERENCE = [
    ((1.0, 1.0, 0.0, 3, 2.0), 30.556224395722595),
    ((1.0, 1.0, 0.0, 3, 3.0), 27.03303608381107),
    ((2.0, 2.0, 0.0, 3, 2.5), 54.790521145246615),
    ((1.0, 1.5, 0.5, 3, 2.0), 150.62838600334564),
    ((1.0, 1.0, 0.0, 4, 2.0), 50.36069497893156),
]


@pytest.mark.parametrize("args,want", _STAR_REFERENCE)
def test_star_norm_frozen_values(args, want):
    est = en.mikhlin_star_norm_sq_bound(en.StarShapeData(*args))
    assert est.kind == "upper_bound"
    assert est.value_sq == pytest.approx(want, rel=1e-8)


def test_star_norm_dominates_ball_norm():
    # the star factor (M2/M1)^2 N1^2 N2^2 is >= 1, so the bound can only
    # sit above the concentric-ball value it perturbs
    rng = np.random.default_rng(12)
    for _ in range(50):
        m1 = float(rng.uniform(0.2, 2.0))
        m2 = m1 * float(rng.uniform(1.0, 2.0))
        m3 = float(rng.uniform(0.0, 1.5))
        n = int(rng.integers(3, 7))
        big_r = max(1.0, m2) * float(rng.uniform(1.1, 3.0))
        star = en.mikhlin_star_norm_sq_bound(en.StarShapeData(m1, m2, m3, n, big_r))
        ball = en.mikhlin_ball_norm_sq(n, big_r)
        assert star.value_sq >= ball.value_sq - 1e-12


def test_star_data_validation():
    with pytest.raises(ValueError):
        en.StarShapeData(0.0, 1.0, 0.0, 3, 2.0)
    with pytest.raises(ValueError):
        en.StarShapeData(2.0, 1.0, 0.0, 3, 2.0)  # m2 < m1
    with pytest.raises(ValueError):
        en.StarShapeData(1.0, 1.0, -0.5, 3, 2.0)
    with pytest.raises(ValueError):
        en.StarShapeData(1.0, 1.0, 0.0, 2, 2.0)  # n must exceed 2
    with pytest.raises(ValueError):
        en.StarShapeData(1.0, 1.0, 0.0, 3, 1.0)  # outer radius too small


def test_star_data_keeps_its_checked_numbers():
    # NumPy scalars are stored as Python numbers, so the bound is computed in float64, not float32
    narrow = en.StarShapeData(np.float32(1.1), np.float32(1.7), np.float32(0.3), np.int64(4), np.float32(2.3))
    wide = en.StarShapeData(*(float(np.float32(x)) for x in (1.1, 1.7, 0.3)), 4, float(np.float32(2.3)))
    fields = ("m1", "m2", "m3", "n", "big_r")
    assert [type(getattr(narrow, f)) for f in fields] == [float, float, float, int, float]
    assert [getattr(narrow, f) for f in fields] == [getattr(wide, f) for f in fields]
    got, want = (en.mikhlin_star_norm_sq_bound(data).value_sq for data in (narrow, wide))
    assert type(got) is float and got.hex() == want.hex()
    estimate = en.ExtensionNormEstimate(np.float32(2.5), "exact", "test")
    assert type(estimate.value_sq) is float and json.dumps(estimate.value_sq) == "2.5"


def test_quasidisc_norm():
    est = en.quasidisc_norm_sq(1.0)
    assert est.kind == "upper_bound"
    assert est.value_sq == pytest.approx(4.0, abs=1e-15)
    k = (3.0 + math.sqrt(5.0)) / 2.0
    assert en.quasidisc_norm_sq(k).value_sq == pytest.approx((1.0 + k) ** 2, rel=1e-15)
    with pytest.raises(ValueError):
        en.quasidisc_norm_sq(0.5)


def test_a_quasidisc_norm_beyond_the_float_range_is_a_numerical_error():
    k = 1.34e154  # just below where (1 + K)^2 overflows
    assert en.quasidisc_norm_sq(k).value_sq == (1.0 + k) * (1.0 + k) < math.inf
    message = r"^the quasidisc norm \(1 \+ K\)\^2 for K=1e\+160 is beyond the float range$"
    with pytest.raises(NumericalError, match=message):
        en.quasidisc_norm_sq(1e160)


def test_half_ball_reflection_norm():
    est = en.half_ball_reflection_norm_sq()
    assert est.kind == "exact"
    assert est.value_sq == 2.0


def test_estimate_type_validation():
    with pytest.raises(ValueError):
        en.ExtensionNormEstimate(0.5, "exact", "test")
    with pytest.raises(ValueError):
        en.ExtensionNormEstimate(2.0, "guess", "test")
