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
from .errors import NumericalError


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
        if not (math.isfinite(self.value_sq) and self.value_sq >= 1.0):
            raise ValueError(f"a squared operator norm must be >= 1, got {self.value_sq}")


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
        if not (math.isfinite(self.m1) and self.m1 > 0.0):
            raise ValueError(f"m1 must be > 0, got {self.m1}")
        if not (math.isfinite(self.m2) and self.m2 >= self.m1):
            raise ValueError(f"m2 must be >= m1, got m2={self.m2}, m1={self.m1}")
        if not (math.isfinite(self.m3) and self.m3 >= 0.0):
            raise ValueError(f"m3 must be >= 0, got {self.m3}")
        if not isinstance(self.n, int) or self.n <= 2:
            raise ValueError(f"dimension must be an integer > 2, got {self.n!r}")
        if not (math.isfinite(self.big_r) and self.big_r > 1.0):
            raise ValueError(f"outer radius must be > 1, got {self.big_r}")


def mikhlin_ball_norm_sq(n: int, big_r: float) -> ExtensionNormEstimate:
    """Exact squared norm of the ball-to-ball extension, dimensions n > 2.

    The inner ball has radius 1, the outer radius R > 1.  Diverges as
    R -> 1+ and decreases toward a finite limit as R -> inf.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n <= 2:
        raise ValueError(f"dimension must be an integer > 2, got {n!r}")
    if not (isinstance(big_r, (int, float)) and math.isfinite(big_r) and big_r > 1.0):
        raise ValueError(f"outer radius must be finite and > 1, got {big_r!r}")
    big_r = float(big_r)
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
    if not (isinstance(k, (int, float)) and math.isfinite(k) and k >= 1.0):
        raise ValueError(f"quasiconformality coefficient must be >= 1, got {k!r}")
    return ExtensionNormEstimate((1.0 + k) ** 2, "upper_bound", f"quasidisc, K={k}")


def half_ball_reflection_norm_sq() -> ExtensionNormEstimate:
    """Exact squared norm, 2, of even reflection across a half-ball's flat face.

    Mirroring u across the hyperplane doubles the gradient energy and no
    smaller extension constant works, in any dimension.
    """
    return ExtensionNormEstimate(2.0, "exact", "mirror reflection across the flat face")
