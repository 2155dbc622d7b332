"""Independent reference computations used by the test suite only.

The polygon simplicity oracle tests one pair of non-adjacent edges at a
time with the orientation-based predicate that geometry._polygon_is_simple
applies to whole blocks of pairs.

The enclosing-ball oracle enumerates every candidate center instead of
recursing: the optimal center is the circumcenter of its support set, and
the support has between 2 and dim+1 affinely independent points, so
checking the covering radius of every subset circumcenter and taking the
minimum is exhaustive.  Quadratic-to-quartic in the point count, which is
fine for the small clouds the tests use.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from scipy.spatial.distance import cdist


def brute_force_mecb(points) -> tuple[np.ndarray, float]:
    """Minimum enclosing ball by exhaustive search over support subsets."""
    pts = np.asarray(points, dtype=float)
    m, dim = pts.shape
    if m == 1:
        return pts[0].copy(), 0.0

    centers = [pts.mean(axis=0)]  # fallback candidate, never optimal for m >= 2
    for size in range(2, dim + 2):
        if size > m:
            break
        idx = np.array(list(combinations(range(m), size)), dtype=int)
        base = pts[idx[:, 0]]
        span = pts[idx[:, 1:]] - base[:, None, :]
        gram = span @ span.transpose(0, 2, 1)
        rhs = 0.5 * np.einsum("nij,nij->ni", span, span)
        dets = np.abs(np.linalg.det(gram))
        scale = np.maximum(
            np.einsum("nii->ni", gram).max(axis=1) ** (size - 1), 1e-300
        )
        keep = dets > 1e-12 * scale
        if not np.any(keep):
            continue
        coeff = np.linalg.solve(gram[keep], rhs[keep][..., None])[..., 0]
        centers.append(base[keep] + np.einsum("ni,nij->nj", coeff, span[keep]))

    candidates = np.vstack([np.atleast_2d(c) for c in centers])
    covering = np.linalg.norm(candidates[:, None, :] - pts[None, :, :], axis=2).max(axis=1)
    best = int(np.argmin(covering))
    return candidates[best].copy(), float(covering[best])


def segments_properly_cross(p, q, r, s) -> bool:
    """Edge pq meets edge rs: a proper crossing or a collinear touch/overlap."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2 = orient(p, q, r), orient(p, q, s)
    d3, d4 = orient(r, s, p), orient(r, s, q)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0:
        return True
    # collinear overlap counts as a crossing too
    for a, b, c, dd in ((p, q, r, d1), (p, q, s, d2), (r, s, p, d3), (r, s, q, d4)):
        if dd == 0:
            lo = min(a[0], b[0]), min(a[1], b[1])
            hi = max(a[0], b[0]), max(a[1], b[1])
            if lo[0] <= c[0] <= hi[0] and lo[1] <= c[1] <= hi[1]:
                if not (np.array_equal(c, a) or np.array_equal(c, b)):
                    return True
    return False


def polygon_is_simple(verts) -> bool:
    """No two non-adjacent edges of the vertex loop meet, pair by pair."""
    verts = np.asarray(verts, dtype=float)
    m = len(verts)
    for i in range(m):
        a, b = verts[i], verts[(i + 1) % m]
        for j in range(i + 1, m):
            if (j + 1) % m == i or (i + 1) % m == j:
                continue  # adjacent edges share an endpoint by design
            c, d = verts[j], verts[(j + 1) % m]
            if segments_properly_cross(a, b, c, d):
                return False
    return True


def brute_force_diameter(points) -> float:
    """Largest pairwise distance by scanning every pair, in row blocks."""
    pts = np.asarray(points, dtype=float)
    best = 0.0
    for i0 in range(0, len(pts), 1024):
        best = max(best, float(cdist(pts[i0 : i0 + 1024], pts, "sqeuclidean").max()))
    return math.sqrt(best)
