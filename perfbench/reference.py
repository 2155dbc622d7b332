"""Reference values and output checks, computed without neubound.

Everything here uses NumPy, SciPy and closed forms only, so a defect in the
package cannot hide in its own reference.  Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy.optimize
import scipy.special

# mu_1 of the unit disc and of the half disc: j'_{1,1}^2
MU1_DISC = float(scipy.special.jnp_zeros(1, 1)[0] ** 2)

PRESET_GEOMETRY = {  # name: (diameter, enclosing radius)
    "bowtie": (math.sqrt(10.0) / 2.0, 5.0 / 6.0),
    "unit_disc": (2.0, 1.0),
    "half_disc": (2.0, 1.0),
    "tan_disc": (2.0 * math.tan(1.0), math.tan(1.0)),
}
BOWTIE_K = (3.0 + math.sqrt(5.0)) / 2.0
PRESET_SAMPLES = {"unit_disc": 256, "half_disc": 256, "tan_disc": 4096}

# Sampled curves underestimate d and R by at most a chord sagitta, which is
# below UNDER_SLACK / m^2 relative for m samples on every sampler family.
# Outward rounding may pad them by twice the curve-to-sample distance, which
# is below OVER_SLACK / m relative: the families move at most 21.5 / m per
# sample step (tan_disc), so the factor 2 margin admits a cruder speed bound.
UNDER_SLACK = 50.0
OVER_SLACK = 16.0
EXACT_TOL = 1e-9

# FEM mu_1 of conforming P1 elements sits above the exact value by at most
# FEM_H2_TOL * mu * (mu h^2) on the fan meshes used here, h the longest edge
# (measured worst case 0.21, on rectangles of aspect 2.5; discs 0.06,
# triangles 0.07), so the margin is over 2x.
FEM_H2_TOL = 0.5

# When this is set, every reference used by a check is off by this factor.
# The smoke test uses it to prove a wrong reference shows up as a failure.
WRONG_REFERENCE_FACTOR = 1.0


def _ref(value: float) -> float:
    return value * WRONG_REFERENCE_FACTOR


@lru_cache(maxsize=None)
def p_zero(n: int) -> float:
    """First positive zero of J_{n/2}(t) - t J_{n/2+1}(t)."""
    nu = 0.5 * n

    def f(t):
        return scipy.special.jv(nu, t) - t * scipy.special.jv(nu + 1.0, t)

    t = 0.05
    while f(t) * f(t + 0.05) > 0.0:
        t += 0.05
    return float(scipy.optimize.brentq(f, t, t + 0.05, xtol=1e-15, rtol=1e-15))


def mikhlin_ball(n: int, big_r: float) -> float:
    a = 0.5 * (n - 2)
    iv, kv = scipy.special.iv, scipy.special.kv
    frac = (iv(a, 1.0) / iv(a + 1.0, 1.0)) * (
        iv(a, big_r) * kv(a + 1.0, 1.0) + kv(a, big_r) * iv(a + 1.0, 1.0)
    ) / (iv(a, big_r) * kv(a, 1.0) - kv(a, big_r) * iv(a, 1.0))
    return 1.0 + float(frac)


def mikhlin_star(m1: float, m2: float, m3: float, n: int, big_r: float) -> float:
    n1 = max((m1**2 + (n - 1) * m3**2) / m1**4, 2.0 / m1**2, 1.0)
    n2 = max(m2**2 + 2.0 * (n - 1) * m3**2, 2.0 * m2**2, 1.0)
    return 1.0 + (m2 / m1) ** 2 * n1 * n2 * (mikhlin_ball(n, big_r) - 1.0)


def star_k(beta: float) -> float:
    return 1.0 / math.tan(0.25 * math.pi * (1.0 - beta)) ** 2


def affine_k(matrix) -> float:
    s = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    return float(s[0] / s[1])


def close(value, ref, rel, label) -> list[str]:
    ref = _ref(ref)
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        return [f"{label}: {value!r} is not a finite number"]
    if abs(value - ref) > rel * abs(ref):
        return [f"{label}: {value!r} vs reference {ref!r} (rel tol {rel:g})"]
    return []


def within(value, ref, under, over, label) -> list[str]:
    """value in [ref (1 - under), ref (1 + over)]."""
    ref = _ref(ref)
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        return [f"{label}: {value!r} is not a finite number"]
    if not ref * (1.0 - under) <= value <= ref * (1.0 + over):
        return [f"{label}: {value!r} outside [{ref * (1 - under)!r}, {ref * (1 + over)!r}]"]
    return []


# ---------------------------------------------------------------------------
# geometry


def sample_slack(samples: int | None) -> tuple[float, float]:
    """(under, over) relative tolerance for d and R from m curve samples."""
    if samples is None:
        return EXACT_TOL, EXACT_TOL
    return UNDER_SLACK / samples**2 + EXACT_TOL, OVER_SLACK / samples + EXACT_TOL


def polygon_diameter(vertices) -> float:
    v = np.asarray(vertices, dtype=float)
    diff = v[:, None, :] - v[None, :, :]
    return float(np.sqrt((diff * diff).sum(axis=2).max()))


def check_enclosing_ball(vertices, center, radius, label) -> list[str]:
    """Optimality certificate for the smallest enclosing disc of a polygon.

    The disc is minimal exactly when it contains every vertex and the
    vertices on its rim surround the center: no open half-plane through
    the center holds them all, i.e. no angular gap between rim directions
    exceeds pi.
    """
    v = np.asarray(vertices, dtype=float)
    c = np.asarray(center, dtype=float)
    radius = _ref(radius)
    dist = np.linalg.norm(v - c, axis=1)
    if dist.max() > radius * (1.0 + EXACT_TOL):
        return [f"{label}: vertex outside the enclosing ball by {dist.max() - radius:.3g}"]
    rim = v[dist >= radius * (1.0 - 1e-7)] - c
    if len(rim) < 2:
        return [f"{label}: fewer than two vertices on the rim"]
    angles = np.sort(np.arctan2(rim[:, 1], rim[:, 0]))
    gaps = np.diff(np.concatenate([angles, angles[:1] + 2.0 * math.pi]))
    if gaps.max() > math.pi + 1e-6:
        return [f"{label}: rim vertices do not surround the center; the ball is not minimal"]
    return []


def check_geometry(geometry: dict, expect: dict) -> list[str]:
    """Check a report's geometry block against expect.

    expect holds "diameter" and "radius" with "samples" (None for exact
    polygon geometry), or "vertices" to derive both for a polygon.
    """
    d, r = geometry.get("diameter"), geometry.get("enclosing_radius")
    if "vertices" in expect:
        problems = close(d, polygon_diameter(expect["vertices"]), EXACT_TOL, "diameter")
        return problems + check_enclosing_ball(
            expect["vertices"], geometry.get("enclosing_center"), r, "enclosing ball"
        )
    under, over = sample_slack(expect.get("samples"))
    return within(d, expect["diameter"], under, over, "diameter") + within(
        r, expect["radius"], under, over, "enclosing radius"
    )


# ---------------------------------------------------------------------------
# bound reports


def check_bounds(report: dict, meta: dict, expect: dict) -> list[str]:
    """Recompute every known bound formula from reference geometry.

    meta: declared metadata, keys among "beta", "K", "norm_sq",
    "symmetric", "convex", "n".  Bounds scale as 1/d^2 or 1/R^2, so their
    tolerance is twice the geometry tolerance, mirrored.
    """
    if "vertices" in expect:
        d = polygon_diameter(expect["vertices"])
        r = report["geometry"]["enclosing_radius"]  # certified by check_geometry
        under, over = EXACT_TOL, EXACT_TOL
    else:
        d, r = expect["diameter"], expect["radius"]
        under, over = sample_slack(expect.get("samples"))
    n = meta.get("n", 2)
    lo, hi = 2.0 * over + EXACT_TOL, 2.0 * under + EXACT_TOL

    norm_sq, norm_formula = None, "extension_ball"
    if "norm_sq" in meta:
        norm_sq = meta["norm_sq"]
    elif "K" in meta and n == 2:
        norm_sq, norm_formula = (1.0 + meta["K"]) ** 2, "quasidisc"
    elif "beta" in meta and n == 2:
        norm_sq, norm_formula = (1.0 + star_k(meta["beta"])) ** 2, "quasidisc"

    expected = {"payne_weinberger": (math.pi / d) ** 2}
    if "beta" in meta and n == 2:
        s = math.sin(0.25 * math.pi * (1.0 - meta["beta"]))
        expected["star_shaped"] = 4.0 * s**4 * (p_zero(2) / d) ** 2
    if norm_sq is not None:
        expected[norm_formula] = (p_zero(n) / r) ** 2 / norm_sq
        expected["symmetric_extension"] = 4.0 * (p_zero(n) / d) ** 2 / norm_sq
    # listed only when its value differs from every earlier entry
    optional = {"symmetric_extension"}
    if norm_sq is not None and "beta" in meta and n == 2:
        optional.add(norm_formula)

    problems = []
    seen = {b["formula"]: b for b in report["bounds"]}
    for formula, ref in expected.items():
        if formula not in seen:
            if formula not in optional:
                problems.append(f"bound {formula} missing from the report")
            continue
        problems += within(seen[formula]["value"], ref, lo, hi, f"bound {formula}")
    best = report.get("best_value")
    if best not in [b["value"] for b in report["bounds"]]:
        problems.append(f"best_value {best!r} is not one of the listed bounds")
    elif meta.get("convex") and best < seen["payne_weinberger"]["value"]:
        problems.append("best bound of a convex domain is below pi^2/d^2")
    return problems


# ---------------------------------------------------------------------------
# finite elements


def fan_dof(boundary: int, refinement: int) -> int:
    """Vertex count of a fan mesh over `boundary` points after uniform refinement."""
    v, e, t = boundary + 1, 2 * boundary, boundary
    for _ in range(refinement):
        v, e, t = v + e, 2 * e + 3 * t, 4 * t
    return v


def check_spectrum(record: dict, exact_mu1: float | None) -> list[str]:
    vals = record["eigenvalues"]
    mu = record["fem_mu1"]
    problems = []
    if any(b > a * (1.0 + 1e-12) + 1e-12 for a, b in zip(vals[1:], vals[:-1])):
        problems.append(f"eigenvalues not ascending: {vals}")
    if not (mu == vals[1] and mu > 0.0 and abs(vals[0]) <= 1e-8 * mu):
        problems.append(f"spectrum lacks the constant mode or mu1 mismatch: {vals[:2]}, {mu}")
    if not record.get("all_satisfied"):
        problems.append("a certified bound is not below the FEM eigenvalue")
    if exact_mu1 is not None:
        h = record["mesh_size"]
        over = FEM_H2_TOL * exact_mu1 * h * h
        problems += within(mu, exact_mu1, EXACT_TOL, over, "fem mu1")
    return problems
