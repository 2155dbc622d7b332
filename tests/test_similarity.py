"""Similarity maps: d, R, every bound and every eigenvalue follow the map.

mu_1 scales as length^-2 and is unchanged by rigid motions, and so is each
lower bound.  The domains are random star polygons about an anchor at the
origin, with K and beta declared, so every bound formula is listed.  Maps
that fix the anchor are checked on the whole pipeline: scalings by powers
of two, which must scale everything bit for bit, and the quarter and half
turns and the axis reflections, which keep d exactly and the rest within a
few ulps.  Translations by 2^k, k <= 40, of polygons with dyadic vertices,
cyclic relabelling and reversal are checked on d, R and the bounds, which
depend on the convex hull alone and so keep every bit.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from neubound import bounds, fem, geometry

_PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)
_REFINEMENTS = (1, 3)  # the dense route, then the sparse one


@st.composite
def _star_polygons(draw) -> dict:
    # vertex i at angle 2 pi (i + u_i) / m, so neighbours are less than pi
    # apart and the polygon is star-shaped about the origin, counterclockwise
    m = draw(st.integers(5, 12))
    offsets = draw(st.lists(st.floats(0.1, 0.9), min_size=m, max_size=m))
    radii = draw(st.lists(st.floats(0.5, 2.0), min_size=m, max_size=m))
    angles = [2.0 * math.pi * (i + u) / m for i, u in enumerate(offsets)]
    return {
        "kind": "polygon",
        "vertices": [[r * math.cos(a), r * math.sin(a)] for r, a in zip(radii, angles)],
        "anchor": [0.0, 0.0],
        "K": draw(st.floats(1.0, 10.0)),
        "beta": draw(st.floats(0.0, 0.9)),
    }


def _measure(spec_dict: dict) -> tuple:
    """d, R, the listed bounds' values, and the spectrum at each refinement."""
    spec = geometry.load_domain_spec(spec_dict)
    _, d, ball = spec.measurement
    values = [entry["value"] for entry in bounds.best_bound_report(spec).bounds]
    spectra = [fem.neumann_eigenvalues(fem.triangulate(spec, r)) for r in _REFINEMENTS]
    return d, ball.radius, values, spectra


def _mapped(spec_dict: dict, point_map, reverse: bool) -> dict:
    vertices = [list(point_map(x, y)) for x, y in spec_dict["vertices"]]
    return {**spec_dict, "vertices": vertices[::-1] if reverse else vertices}


@_PROPERTY
@given(polygon=_star_polygons(), k=st.integers(-60, 60))
# sigma = -0.2 (1.8412 / spread)^2 by pow put mu_1 one ulp off 4^-k mu_1 at r3 here
@example(
    polygon={
        "kind": "polygon",
        "vertices": [
            [0.4045084971874737, 0.29389262614623657], [-0.15450849718747367, 0.4755282581475768],
            [-0.5, 6.123233995736766e-17], [0.006036327508712766, -0.7563269417210225],
            [0.7167221264771444, -0.23013008518973643],
        ],
        "anchor": [0.0, 0.0], "K": 1.0, "beta": 0.0,
    },
    k=4,
)
def test_scaling_by_a_power_of_two_scales_everything_bit_for_bit(polygon, k):
    s = 2.0**k
    d, radius, values, spectra = _measure(polygon)
    d_s, radius_s, values_s, spectra_s = _measure(_mapped(polygon, lambda x, y: (s * x, s * y), False))
    assert (d_s, radius_s) == (d * s, radius * s)
    assert values_s == [v * 4.0**-k for v in values]
    for spectrum, spectrum_s in zip(spectra, spectra_s):
        assert spectrum_s.eigenvalues == tuple(mu * 4.0**-k for mu in spectrum.eigenvalues)
        assert spectrum_s.residuals == spectrum.residuals  # backward errors are relative


# each map, and whether it reverses orientation: a reflected polygon is
# listed backwards so that it stays counterclockwise
_ISOMETRIES = {
    "quarter-turn": (lambda x, y: (-y, x), False),
    "half-turn": (lambda x, y: (-x, -y), False),
    "reflect-in-x-axis": (lambda x, y: (x, -y), True),
    "reflect-in-y-axis": (lambda x, y: (-x, y), True),
}


def _within_ulps(a: float, b: float, ulps: int) -> bool:
    return abs(a - b) <= ulps * math.ulp(a)


@pytest.mark.parametrize("name", sorted(_ISOMETRIES))
@_PROPERTY
@given(polygon=_star_polygons())
def test_quarter_turns_and_reflections_keep_every_number(name, polygon):
    d, radius, values, spectra = _measure(polygon)
    d_m, radius_m, values_m, spectra_m = _measure(_mapped(polygon, *_ISOMETRIES[name]))
    assert d_m == d
    assert _within_ulps(radius_m, radius, 4)
    assert len(values_m) == len(values) == 4
    assert all(_within_ulps(a, b, 16) for a, b in zip(values_m, values))
    for spectrum, spectrum_m in zip(spectra, spectra_m):
        pairs = zip(spectrum_m.eigenvalues, spectrum.eigenvalues)
        assert all(math.isclose(a, b, rel_tol=1e-13, abs_tol=0.0) for a, b in pairs)


def _dyadic(polygon: dict) -> dict:
    # vertices rounded to multiples of 2^-10: a translation by 2^k, k <= 40, is exact
    return {**polygon, "vertices": [[round(c * 1024.0) / 1024.0 for c in v] for v in polygon["vertices"]]}


_SIGN = st.sampled_from([-1.0, 1.0])


def _geometry_and_bounds(spec_dict: dict) -> tuple:
    spec = geometry.load_domain_spec(spec_dict)
    _, d, ball = spec.measurement
    return d, ball.radius, [entry["value"] for entry in bounds.best_bound_report(spec).bounds]


@_PROPERTY
@given(polygon=_star_polygons().map(_dyadic), k=st.integers(0, 40), signs=st.tuples(_SIGN, _SIGN))
def test_dyadic_translations_keep_d_r_and_the_bounds_bit_for_bit(polygon, k, signs):
    # d and R are taken on the hull, R relative to its first vertex, so an
    # exact translation moves no bit of them or of any bound; the anchor moves along
    tx, ty = signs[0] * 2.0**k, signs[1] * 2.0 ** (k // 2)
    moved = {
        **_mapped(polygon, lambda x, y: (x + tx, y + ty), False),
        "anchor": [tx, ty],
    }
    assert _geometry_and_bounds(moved) == _geometry_and_bounds(polygon)


@_PROPERTY
@given(polygon=_star_polygons(), shift=st.integers(1, 11), reverse=st.booleans())
def test_relabelling_and_reversal_keep_d_r_and_the_bounds_bit_for_bit(polygon, shift, reverse):
    vertices = polygon["vertices"]
    vertices = vertices[shift % len(vertices) :] + vertices[: shift % len(vertices)]
    relabelled = {**polygon, "vertices": vertices[::-1] if reverse else vertices}
    assert _geometry_and_bounds(relabelled) == _geometry_and_bounds(polygon)
