"""Quasiconformality coefficients of affine, star-shaped, and spiral maps."""

from __future__ import annotations

import math

import numpy as np
import pytest

from neubound import qcmaps
from neubound.errors import NumericalError


def test_identity_and_similarities_are_conformal():
    assert qcmaps.affine_qc_coefficient([[1, 0], [0, 1]]) == pytest.approx(1.0, abs=1e-15)
    theta = 0.7
    rot = [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    assert qcmaps.affine_qc_coefficient(rot) == pytest.approx(1.0, abs=1e-12)
    assert qcmaps.affine_qc_coefficient([[3.2, 0], [0, 3.2]]) == pytest.approx(1.0, abs=1e-12)


def test_unit_shear_coefficient():
    # the map building the bowtie from a square
    want = (3.0 + math.sqrt(5.0)) / 2.0
    assert qcmaps.affine_qc_coefficient([[1, 0], [1, 1]]) == pytest.approx(want, abs=1e-12)


def test_diagonal_stretch():
    # diag(a, 1) has distortion a for a >= 1
    for a in (1.0, 2.0, 7.5):
        assert qcmaps.affine_qc_coefficient([[a, 0], [0, 1]]) == pytest.approx(a, rel=1e-14)


def test_orientation_reversal_rejected():
    with pytest.raises(ValueError):
        qcmaps.affine_qc_coefficient([[1, 0], [0, -1]])
    with pytest.raises(ValueError):
        qcmaps.affine_qc_coefficient([[1, 2], [2, 4]])  # singular


def test_huge_entries_give_the_scale_free_coefficient():
    # the entry sums and det overflow here, but K does not depend on scale
    shear = qcmaps.affine_qc_coefficient([[1, 1], [0, 1]])
    assert qcmaps.affine_qc_coefficient([[1e308, 1e308], [0, 1e308]]) == pytest.approx(shear, rel=1e-15)
    big = 1.7e308  # the entries' squares sum past the largest float
    assert qcmaps.affine_qc_coefficient([[big, big], [-big, big]]) == 1.0


def test_tiny_similarity_is_conformal():
    # det = 1e-400 underflows to 0, which read as a singular map
    assert qcmaps.affine_qc_coefficient([[1e-200, 0], [0, 1e-200]]) == 1.0


def test_unresolvable_distortion_is_a_numerical_error():
    # K = 1e20: q - r cancels to 0, which is not a reversed orientation
    with pytest.raises(NumericalError):
        qcmaps.affine_qc_coefficient([[1e10, 0], [0, 1e-10]])


def test_rotation_invariance():
    rng = np.random.default_rng(2)
    for _ in range(100):
        mat = rng.standard_normal((2, 2))
        if np.linalg.det(mat) <= 1e-3:
            continue
        k = qcmaps.affine_qc_coefficient(mat)
        theta, phi = rng.uniform(0.0, 2.0 * math.pi, size=2)
        rot1 = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        rot2 = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        assert qcmaps.affine_qc_coefficient(rot1 @ mat @ rot2) == pytest.approx(k, rel=1e-9)
        assert qcmaps.affine_qc_coefficient(3.7 * mat) == pytest.approx(k, rel=1e-9)


def test_coefficient_at_least_one():
    rng = np.random.default_rng(4)
    for _ in range(200):
        mat = rng.standard_normal((2, 2))
        if np.linalg.det(mat) <= 1e-3:
            continue
        assert qcmaps.affine_qc_coefficient(mat) >= 1.0 - 1e-12


def test_piecewise_takes_worst_piece():
    pieces = [[[1, 0], [0, 1]], [[1, 0], [1, 1]], [[2, 0], [0, 1]]]
    want = (3.0 + math.sqrt(5.0)) / 2.0
    assert qcmaps.piecewise_qc_coefficient(pieces) == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        qcmaps.piecewise_qc_coefficient([])


def test_star_shaped_coefficient_values():
    assert qcmaps.star_shaped_K(0.0) == pytest.approx(1.0, abs=1e-14)
    assert qcmaps.star_shaped_K(0.5) == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), rel=1e-14)
    assert qcmaps.star_shaped_K(0.2) == pytest.approx(1.0 / math.tan(0.2 * math.pi) ** 2, rel=1e-14)


def test_star_shaped_coefficient_monotone():
    betas = np.linspace(0.0, 0.95, 40)
    values = [qcmaps.star_shaped_K(float(b)) for b in betas]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_star_shaped_range_validation():
    for bad in (-0.1, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError):
            qcmaps.star_shaped_K(bad)


def test_spiral_matches_star_and_validates_twist():
    assert qcmaps.spiral_shaped_K(0.5, 0.3) == pytest.approx(qcmaps.star_shaped_K(0.5), rel=1e-15)
    assert qcmaps.spiral_shaped_K(0.5, -0.7) == pytest.approx(qcmaps.star_shaped_K(0.5), rel=1e-15)
    with pytest.raises(ValueError):
        qcmaps.spiral_shaped_K(0.5, 0.25 * math.pi + 1e-9)
    with pytest.raises(ValueError):
        qcmaps.spiral_shaped_K(0.0, 0.0)  # beta = 0 admits no twist at all
