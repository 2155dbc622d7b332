"""Quasiconformality coefficients of the maps used to build example domains.

For an orientation-preserving linear map with matrix D acting on the plane,
the distortion is K = lambda_max(D D^T) / det D >= 1, with equality exactly
for conformal (similarity) maps.  A piecewise-affine homeomorphism is
K-quasiconformal with K the worst distortion over its pieces.  Two families
with known coefficients are provided: boundary graphs of beta-Hoelder cusps
("star-shaped" with exponent beta) and their logarithmic-spiral twists.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import NumericalError, check_real


def affine_qc_coefficient(matrix: Sequence[Sequence[float]]) -> float:
    """Distortion K of an orientation-preserving linear map of the plane."""
    try:
        (a, b), (c, e) = matrix
        a, b, c, e = (check_real("matrix entry", v, -math.inf) for v in (a, b, c, e))
    except (TypeError, ValueError):
        raise ValueError("matrix must be a finite 2x2 array") from None
    # split into rotation-scaling and reflection-scaling parts; the singular
    # values are q +- r, so K = s_max / s_min = lambda_max(D D^T) / det.
    # The usual trace/discriminant route cancels catastrophically near
    # conformal maps; this form returns exactly 1 for similarities.  K is
    # scale-free, so q and r are those of D/2: quartering each entry before
    # the sums keeps q + r finite for any finite D, and det = (q - r)(q + r)
    # gives the orientation with no product of entries to over- or underflow.
    q = math.hypot(0.25 * a + 0.25 * e, 0.25 * c - 0.25 * b)
    r = math.hypot(0.25 * a - 0.25 * e, 0.25 * c + 0.25 * b)
    if not q > r:
        det = a * e - b * c
        if det > 0.0:  # q - r cancelled: K is beyond about 1e16
            raise NumericalError(f"distortion too large to resolve: det = {det}")
        raise ValueError(f"map must preserve orientation: det = {det}")
    return (q + r) / (q - r)


def piecewise_qc_coefficient(matrices: Iterable[Sequence[Sequence[float]]]) -> float:
    """Distortion of a piecewise-affine map: the maximum over its pieces."""
    coefficients = [affine_qc_coefficient(m) for m in matrices]
    if not coefficients:
        raise ValueError("need at least one affine piece")
    return max(coefficients)


def star_shaped_K(beta: float) -> float:
    """Quasidisc coefficient of a beta-star-shaped domain, 0 <= beta < 1.

    K = cot^2((1 - beta) pi / 4); beta = 0 gives the conformal value 1.
    """
    beta = check_real("beta", beta, 0, 1)
    angle = 0.25 * math.pi * (1.0 - beta)
    c = math.tan(angle)
    return 1.0 / (c * c)


def spiral_shaped_K(beta: float, gamma: float) -> float:
    """Quasidisc coefficient of a beta-spiral-shaped domain with twist gamma.

    Valid only for |gamma| < beta pi / 2; the twist does not worsen the
    coefficient, so the value coincides with star_shaped_K(beta).
    """
    gamma = check_real("gamma", gamma, -math.inf)
    k = star_shaped_K(beta)  # validates beta as a side effect
    if not abs(gamma) < 0.5 * math.pi * beta:
        raise ValueError(
            f"twist gamma={gamma} needs |gamma| < beta pi/2 = {0.5 * math.pi * beta}"
        )
    return k
