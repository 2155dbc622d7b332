"""Exact rational arithmetic on polygons, for tests: moments and an upper end for mu_1.

Every float is a dyadic rational, so a polygon with float vertices has its
area and monomial moments as exact Fractions, by Green's theorem over its
edges.  From them degree1_upper gives a rigorous upper end for the first
nontrivial Neumann eigenvalue, against which any claimed lower bound can be
checked without rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def polygon_moments(vertices) -> tuple[Fraction, ...]:
    """(|P|, int x, int y, int x^2, int x y, int y^2) over a simple polygon P.

    Green's theorem edge by edge, with c = x0 y1 - x1 y0 per edge: |P| sums
    c / 2, int x sums (x0 + x1) c / 6, int x^2 sums (x0^2 + x0 x1 + x1^2) c / 12
    and int x y sums (x0 y1 + 2 x0 y0 + 2 x1 y1 + x1 y0) c / 24.  Each moment
    has the sign of the orientation: positive when counterclockwise.
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in np.asarray(vertices, dtype=float).tolist()]
    area = mx = my = mxx = mxy = myy = Fraction(0)
    for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
        c = x0 * y1 - x1 * y0
        area += c
        mx += (x0 + x1) * c
        my += (y0 + y1) * c
        mxx += (x0 * x0 + x0 * x1 + x1 * x1) * c
        mxy += (x0 * y1 + 2 * x0 * y0 + 2 * x1 * y1 + x1 * y0) * c
        myy += (y0 * y0 + y0 * y1 + y1 * y1) * c
    return area / 2, mx / 6, my / 6, mxx / 12, mxy / 24, myy / 12


@dataclass(frozen=True)
class Degree1Upper:
    """mu_1(P) <= 1 / lambda_max(sigma), sigma the covariance of the uniform distribution on P.

    The Rayleigh quotient of u = v . (x - mean), for a unit vector v, is
    1 / (v' sigma v): these linear functions have mean zero and gradient v.
    sigma is held exactly as (sxx, sxy, syy).
    """

    sigma: tuple[Fraction, Fraction, Fraction]

    def admits(self, claim: float) -> bool:
        """Whether claim <= 1 / lambda_max(sigma), decided exactly and without a square root.

        For claim > 0 that holds when I / claim - sigma is positive
        semidefinite: both diagonal entries and the determinant are >= 0.
        """
        c = Fraction(claim)
        if c <= 0:
            return True
        sxx, sxy, syy = self.sigma
        a, d = 1 / c - sxx, 1 / c - syy
        return a >= 0 and d >= 0 and a * d >= sxy * sxy

    def __float__(self) -> float:
        sxx, sxy, syy = map(float, self.sigma)
        return 1.0 / ((sxx + syy) / 2.0 + math.hypot((sxx - syy) / 2.0, sxy))


def degree1_upper(vertices) -> Degree1Upper:
    """The degree-1 upper end for mu_1 of the simple polygon with these vertices, either orientation."""
    area, mx, my, mxx, mxy, myy = polygon_moments(vertices)
    ex, ey = mx / area, my / area
    return Degree1Upper((mxx / area - ex * ex, mxy / area - ex * ey, myy / area - ey * ey))
