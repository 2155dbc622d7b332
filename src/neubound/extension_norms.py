"""Operator norms of gradient-energy extensions from a domain to a ball.

Every eigenvalue bound downstream is driven by one number per domain: the
squared norm ||E||^2 of a bounded linear extension E : H^1(Omega) ->
H^1(B) measured in gradient seminorm.  This module provides the known
values and estimates:

  * the exact squared norm of the harmonic-layer extension from the unit
    ball of R^n (n > 2) to the concentric ball of radius R, expressed in
    modified Bessel functions (Mikhlin's formula);
  * an upper bound for star-shaped domains sandwiched between the two
    balls, controlled by the radial profile constants M1, M2, M3;
  * the (1 + K)^2 upper bound for K-quasidiscs in the plane;
  * the exact factor 2 of the mirror reflection across the flat face of a
    half-ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import special
from .errors import NumericalError, check_int, check_real


@dataclass(frozen=True)
class ExtensionNormEstimate:
    """A squared extension-operator norm with its provenance.

    kind is "exact" when value_sq is the operator norm itself and
    "upper_bound" when it only dominates it; either way it is safe to use
    in a lower bound for the eigenvalue.
    """

    value_sq: float
    kind: str
    source: str

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "upper_bound"):
            raise ValueError(f'kind must be "exact" or "upper_bound", got {self.kind!r}')
        check_real("squared operator norm", self.value_sq, 1)


@dataclass(frozen=True)
class StarShapeData:
    """Radial description of a star-shaped domain between two balls.

    The boundary is r = phi(theta) with m1 <= phi <= m2 and |phi'| <= m3
    after scaling the inner ball to radius 1; R is the outer ball radius,
    n > 2 the space dimension.
    """

    m1: float
    m2: float
    m3: float
    n: int
    big_r: float

    def __post_init__(self) -> None:
        check_real("m2", self.m2, check_real("m1", self.m1, 0, strict=True))  # m2 >= m1 > 0
        check_real("m3", self.m3, 0)
        check_int("dimension", self.n, 3)
        check_real("outer radius", self.big_r, 1, strict=True)


def mikhlin_ball_norm_sq(n: int, big_r: float) -> ExtensionNormEstimate:
    """Exact squared norm of the ball-to-ball extension, dimensions n > 2.

    The inner ball has radius 1, the outer radius R > 1.  Diverges as
    R -> 1+ and decreases toward a finite limit as R -> inf.
    """
    check_int("dimension", n, 3)
    big_r = check_real("outer radius", big_r, 1, strict=True)
    alpha = 0.5 * (n - 2)
    i_a1 = special.bessel_i(alpha, 1.0)
    i_b1 = special.bessel_i(alpha + 1.0, 1.0)
    i_ar = special.bessel_i(alpha, big_r)
    k_a1 = special.bessel_k(alpha, 1.0)
    k_b1 = special.bessel_k(alpha + 1.0, 1.0)
    k_ar = special.bessel_k(alpha, big_r)
    denom = i_ar * k_a1 - k_ar * i_a1
    if denom <= 0.0:
        raise NumericalError(
            f"ball-norm denominator is not positive at n={n}, R={big_r}: {denom}"
        )
    value = 1.0 + (i_a1 / i_b1) * (i_ar * k_b1 + k_ar * i_b1) / denom
    return ExtensionNormEstimate(value, "exact", "ball extension formula")


def mikhlin_star_norm_sq_bound(data: StarShapeData) -> ExtensionNormEstimate:
    """Upper bound for the extension norm of a star-shaped domain.

    Transplants the ball extension through the radial graph map; the
    distortion of that map enters through

        N1^2 = max{(m1^2 + (n-1) m3^2) / m1^4, 2 / m1^2, 1}
        N2^2 = max{m2^2 + 2 (n-1) m3^2,       2 m2^2,   1}

    giving ||E*||^2 <= 1 + (m2/m1)^2 (N1 N2)^2 (||E_R||^2 - 1).
    """
    n1_sq = max(
        (data.m1**2 + (data.n - 1) * data.m3**2) / data.m1**4,
        2.0 / data.m1**2,
        1.0,
    )
    n2_sq = max(
        data.m2**2 + 2.0 * (data.n - 1) * data.m3**2,
        2.0 * data.m2**2,
        1.0,
    )
    ball = mikhlin_ball_norm_sq(data.n, data.big_r)
    value = 1.0 + (data.m2 / data.m1) ** 2 * n1_sq * n2_sq * (ball.value_sq - 1.0)
    return ExtensionNormEstimate(value, "upper_bound", "star-shaped transplant of the ball extension")


def quasidisc_norm_sq(k: float) -> ExtensionNormEstimate:
    """Upper bound (1 + K)^2 for the extension norm of a K-quasidisc."""
    k = check_real("quasiconformality coefficient", k, 1)
    value_sq = (1.0 + k) * (1.0 + k)  # a product overflows to inf, where pow raises
    if value_sq == math.inf:
        raise NumericalError(f"the quasidisc norm (1 + K)^2 for K={k} is beyond the float range")
    return ExtensionNormEstimate(value_sq, "upper_bound", f"quasidisc, K={k}")


def half_ball_reflection_norm_sq() -> ExtensionNormEstimate:
    """Exact squared norm, 2, of even reflection across a half-ball's flat face.

    Mirroring u across the hyperplane doubles the gradient energy and no
    smaller extension constant works, in any dimension.
    """
    return ExtensionNormEstimate(2.0, "exact", "mirror reflection across the flat face")
