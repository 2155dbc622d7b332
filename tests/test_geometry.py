"""Domain descriptions, boundary sampling, diameters, enclosing balls."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from neubound import geometry
from oracles import brute_force_diameter, brute_force_mecb, monotone_chain_hull, polygon_is_simple

_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


def test_polygon_area():
    assert geometry._shoelace(np.asarray(_SQUARE)) == pytest.approx(1.0, abs=1e-15)
    bowtie = geometry.named_domain("bowtie")
    assert geometry._shoelace(bowtie.vertices) == pytest.approx(1.0, abs=1e-14)


def test_clockwise_input_is_normalized():
    spec = geometry.load_domain_spec(
        {"kind": "polygon", "vertices": list(reversed(_SQUARE)), "name": "cw"}
    )
    assert geometry._shoelace(spec.vertices) > 0.0


def test_bad_polygons_rejected():
    with pytest.raises(ValueError):  # self-intersecting
        geometry.load_domain_spec(
            {"kind": "polygon", "vertices": [[0, 0], [1, 1], [1, 0], [0, 1]]}
        )
    with pytest.raises(ValueError):  # repeated vertex
        geometry.load_domain_spec(
            {"kind": "polygon", "vertices": [[0, 0], [1, 0], [1, 0], [0, 1]]}
        )
    with pytest.raises(ValueError):  # too few vertices
        geometry.load_domain_spec({"kind": "polygon", "vertices": [[0, 0], [1, 0]]})
    # two triangles that meet only at (1, 1), a vertex repeated apart
    pinched = [[0, 0], [2, 0], [1, 1], [2, 2], [0, 2], [1, 1]]
    assert not polygon_is_simple(pinched)
    with pytest.raises(ValueError, match="self-intersecting"):
        geometry.load_domain_spec({"kind": "polygon", "vertices": pinched})


def test_declared_convexity_is_a_bool_or_absent():
    # bool("no") is True, so a string would have made pi^2/d^2 a claim
    for value in ("no", 0, 1, 1.0, np.True_):
        with pytest.raises(ValueError, match="convex"):
            geometry.DomainSpec(kind="sampler", name="unit_disc", convex=value)
    for value in (True, False, None):
        assert geometry.DomainSpec(kind="sampler", name="unit_disc", convex=value).convex is value


def test_declared_convexity_of_a_polygon_is_checked():
    with pytest.raises(ValueError, match="convex"):  # the bowtie has two reflex vertices
        geometry.named_domain("bowtie", convex=True)
    # a straight angle is still convex: the square with a midpoint on one side
    square = [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    for verts in (square, square[::-1]):
        assert geometry.DomainSpec(kind="polygon", vertices=verts, convex=True).convex is True


_PROPERTY = settings(max_examples=400, derandomize=True, database=None, deadline=None)
_GRID_POLYGONS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=3, max_size=9
)
# generic float vertices; hand-picked tiny or nearly collinear coordinates
# turn the oracle's orientations into rounding noise (see the test below)
_FLOAT_POLYGONS = st.builds(
    lambda seed, m: np.random.default_rng(seed).uniform(-1.0, 1.0, (m, 2)),
    st.integers(0, 2**32 - 1),
    st.integers(3, 12),
)


@_PROPERTY
@given(_GRID_POLYGONS)
def test_polygon_simplicity_matches_scalar_oracle_on_grid(verts):
    # small integer grid: collinear overlaps, T-touches and shared vertices
    verts = np.asarray(verts, dtype=float)
    assert geometry._polygon_is_simple(verts) == polygon_is_simple(verts)


@_PROPERTY
@given(_FLOAT_POLYGONS)
def test_polygon_simplicity_matches_scalar_oracle_on_floats(verts):
    verts = np.asarray(verts, dtype=float)
    assert geometry._polygon_is_simple(verts) == polygon_is_simple(verts)


def _zigzag_band(m: int) -> np.ndarray:
    # a closed zigzag band of m vertices: up x = 0, 1, 0, ... and back down
    # half a unit to the right, so every edge's box meets every other's in x
    up = np.column_stack((np.arange(m // 2) % 2, np.arange(m // 2))).astype(float)
    return np.concatenate((up, up[::-1] + [0.5, 0.0]))


def _count_orient(monkeypatch) -> list[None]:
    # one entry per _orient call
    calls, orient = [], geometry._orient

    def counted(a, b, c):
        calls.append(None)
        return orient(a, b, c)

    monkeypatch.setattr(geometry, "_orient", counted)
    return calls


def test_polygon_simplicity_large_polygon_in_blocks(monkeypatch):
    # the band sweeps along y in about 3,000 candidate pairs; small blocks
    # take them in many, and the crossing is found in a later one
    monkeypatch.setattr(geometry, "_PAIR_BLOCK", 64)
    calls = _count_orient(monkeypatch)  # four per block
    verts = _zigzag_band(1200)
    assert geometry._polygon_is_simple(verts)
    assert len(calls) > 4 * 40
    verts[301, 0] = 2.0  # past the band's right side
    calls.clear()
    assert not geometry._polygon_is_simple(verts)
    assert len(calls) > 4


@pytest.mark.parametrize("transpose", [False, True], ids=["band", "transposed"])
def test_polygon_simplicity_sweeps_along_the_axis_with_fewer_pairs(transpose, monkeypatch):
    # swept along x, the band's m^2 / 2 candidate pairs take about 500 blocks
    # of 4 m; along y, its edges meet few others, and one block holds them
    verts = _zigzag_band(4000)
    verts = verts[:, ::-1].copy() if transpose else verts
    monkeypatch.setattr(geometry, "_PAIR_BLOCK", 4 * len(verts))
    calls = _count_orient(monkeypatch)
    assert geometry._polygon_is_simple(verts)
    assert len(calls) <= 16


def test_polygons_above_the_sample_cap_are_rejected():
    # checked before the simplicity test, whatever the vertices
    with pytest.raises(ValueError, match=f"^at most {2**20} polygon vertices, got {2**20 + 1}$"):
        geometry.DomainSpec(kind="polygon", vertices=np.zeros((2**20 + 1, 2)))


def _rotated_notched_rectangle() -> np.ndarray:
    # the two top edges are collinear and disjoint
    notched = np.array(
        [[0, 0], [4, 0], [4, 1], [2.5, 1], [2.5, 0.5], [1.5, 0.5], [1.5, 1], [0, 1]], dtype=float
    )
    angle = 1.0793
    rotation = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    return notched @ rotation.T


@pytest.mark.parametrize(
    "verts",
    [
        pytest.param(_rotated_notched_rectangle(), id="rotated_collinear_edges"),
        pytest.param(
            np.array([[0.0, 0.0], [1.0, 0.0], [1.3043313506233335e-93, 8.17079815949845e-119], [-1.0, 1.0]]),
            id="underflowing_orientations",
        ),
    ],
)
def test_disjoint_edges_in_rounding_noise_do_not_cross(verts):
    # the scalar oracle reads rounding noise (or underflow) in the
    # orientations of two disjoint edges as a crossing; their bounding
    # boxes are disjoint, so they cannot meet
    assert not polygon_is_simple(verts)
    assert geometry._polygon_is_simple(verts)


def test_boundary_loop_polygon_returns_vertices():
    spec = geometry.load_domain_spec({"kind": "polygon", "vertices": _SQUARE})
    points, params, curve = geometry.boundary_loop(spec, None)
    assert np.allclose(points, np.asarray(_SQUARE))
    assert len(params) == 4
    for s, p in zip(params, points):
        assert np.allclose(curve(float(s)), p)


def test_boundary_loop_densification_keeps_corners():
    spec = geometry.load_domain_spec({"kind": "polygon", "vertices": _SQUARE})
    points, params, _ = geometry.boundary_loop(spec, 17)
    assert len(points) >= 17
    for corner in _SQUARE:
        assert np.min(np.linalg.norm(points - np.asarray(corner), axis=1)) < 1e-12


def test_unit_disc_samples_lie_on_circle():
    spec = geometry.named_domain("unit_disc")
    points = geometry.boundary_loop(spec, 64)[0]
    radii = np.linalg.norm(points, axis=1)
    assert np.allclose(radii, 1.0, atol=1e-12)
    assert len(points) == 64


def test_half_disc_loop_includes_diameter_corners():
    spec = geometry.named_domain("half_disc")
    points, _, _ = geometry.boundary_loop(spec, 40)
    for corner in ([1.0, 0.0], [-1.0, 0.0]):
        assert np.min(np.linalg.norm(points - np.asarray(corner), axis=1)) == 0.0
    assert np.all(points[:, 1] <= 0.0)
    _, d, ball = spec.measurement
    assert (d, ball.radius, ball.center.tolist()) == (2.0, 1.0, [0.0, 0.0])


def test_a_spec_is_measured_once_and_read_only():
    spec = geometry.named_domain("unit_disc", samples=64)
    count, d, ball = spec.measurement
    assert spec.measurement is spec.measurement
    points = geometry.boundary_loop(spec)[0]
    assert (count, d) == (64, geometry.diameter(points))
    assert ball.radius == geometry.min_enclosing_ball(points).radius
    with pytest.raises(ValueError, match="read-only"):
        ball.center[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.measurement = (0, 0.0, ball)
    # a replaced spec is a new spec, measured afresh
    finer = dataclasses.replace(spec, samples=300)
    assert finer.measurement[0] == 300
    assert repr(finer.measurement) == repr(geometry.named_domain("unit_disc", samples=300).measurement)


def test_polygon_samples_are_rejected_and_samplers_default_to_256():
    with pytest.raises(ValueError, match="samples do not apply"):
        geometry.DomainSpec(kind="polygon", vertices=_SQUARE, samples=64)
    assert geometry.DomainSpec(kind="polygon", vertices=_SQUARE).samples is None
    assert geometry.DomainSpec(kind="sampler", name="half_disc").samples == 256


# the 2**-52 edge: vertices 3 and 4 share one arclength parameter in floats
_TINY_EDGE = [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0 - 2.0**-52, 1.0], [0.0, 1.0]]


@pytest.mark.parametrize("m", [None, 7, 20, 50])
def test_polygon_loop_keeps_every_vertex_bit_for_bit(m):
    spec = geometry.DomainSpec(kind="polygon", vertices=_TINY_EDGE)
    points, params, _ = geometry.boundary_loop(spec, m)
    where = [np.flatnonzero(np.all(points == v, axis=1)) for v in spec.vertices]
    assert [len(w) for w in where] == [1] * 6
    assert np.all(np.diff(np.concatenate(where)) > 0)  # in loop order
    assert len(points) == max(m or 0, 6)


def test_a_polygon_loop_below_the_vertex_count_is_rejected():
    bowtie = geometry.named_domain("bowtie")
    for m in (3, 4, 5):
        with pytest.raises(ValueError, match=f"^{m} boundary samples are fewer than the polygon's 6 vertices$"):
            geometry.boundary_loop(bowtie, m)
    assert len(geometry.boundary_loop(bowtie, 6)[0]) == 6


# each sampler's breakpoint parameters, their points up to the curve's
# rounding, and its piece weights: the pieces' arclengths, or the parameter
# span of a single closed piece
_SAMPLER_PIECES = {
    "unit_disc": ([0.0], [[1.0, 0.0]], [1.0]),
    "tan_disc": ([0.0], [[math.tan(1.0), 0.0]], [1.0]),
    "half_disc": ([0.0, math.pi / (math.pi + 2.0)], [[-1.0, 0.0], [1.0, 0.0]], [math.pi, 2.0]),
}


def _star_polygon(seed: int, k: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    theta = np.sort(rng.uniform(0.0, 2.0 * math.pi, k))
    radius = rng.uniform(0.2, 2.0, k)
    return np.column_stack((radius * np.cos(theta), radius * np.sin(theta)))


_PLACEMENTS = st.one_of(
    st.tuples(st.sampled_from(sorted(_SAMPLER_PIECES)), st.integers(3, 600)),
    st.tuples(
        st.tuples(st.integers(0, 2**32 - 1), st.integers(3, 40)).map(lambda a: _star_polygon(*a)),
        st.one_of(st.none(), st.integers(3, 400)),
    ),
)


@_PROPERTY
@given(_PLACEMENTS)
@example(("half_disc", 14))  # rounding gave the arc 9 samples, D'Hondt gives 8
def test_boundary_placement_rule(shape_and_m):
    # every breakpoint is a sample, bit for bit; the other samples go to the
    # pieces by D'Hondt on the weights, so with c_i samples on piece i (its
    # breakpoint included) no piece's next share w_i / c_i beats a share
    # already given, w_j / (c_j - 1)
    shape, m = shape_and_m
    if isinstance(shape, str):
        spec = geometry.named_domain(shape)
        breaks, corners, weights = map(np.asarray, _SAMPLER_PIECES[shape])
        points, params, curve = geometry.boundary_loop(spec, m)
        where = np.searchsorted(params, breaks)
        assert np.array_equal(params[where], breaks)
        # the family's corners, bit for bit: the curve's points up to
        # rounding, and half_disc's literal (-1, 0) and (1, 0)
        assert np.array_equal(points[where], geometry._SAMPLER_FAMILIES[shape][2])
        assert np.allclose(curve(breaks), corners, rtol=0.0, atol=1e-15)
        assert np.allclose(points[where], corners, rtol=0.0, atol=1e-15)
    else:
        try:
            spec = geometry.DomainSpec(kind="polygon", vertices=shape)
        except ValueError:  # too thin or crossing
            assume(False)
        corners = spec.vertices
        weights = np.linalg.norm(np.roll(corners, -1, axis=0) - corners, axis=1)
        if m is not None and m < len(corners):
            with pytest.raises(ValueError, match=f"fewer than the polygon's {len(corners)} vertices"):
                geometry.boundary_loop(spec, m)
            return
        points, params, _ = geometry.boundary_loop(spec, m)
        where = np.array([np.flatnonzero(np.all(points == v, axis=1))[0] for v in corners])
    assert len(points) == len(params) == max(m or 0, len(corners))
    assert where[0] == 0 and np.all(np.diff(where) > 0)
    assert params[0] == 0.0 and np.all(np.diff(params) > 0.0) and params[-1] < 1.0
    counts = np.diff(np.append(where, len(points)))
    taken = counts > 1
    if taken.any():
        assert np.max(weights / counts) <= np.min(weights[taken] / (counts[taken] - 1))


def test_diameter_known_values():
    assert geometry.diameter(np.asarray(_SQUARE)) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    bowtie = geometry.named_domain("bowtie")
    points, _, _ = geometry.boundary_loop(bowtie, None)
    assert geometry.diameter(points) == pytest.approx(math.sqrt(10.0) / 2.0, abs=1e-12)


def test_diameter_matches_direct_maximum():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = int(rng.integers(2, 40))
        pts = rng.standard_normal((m, 2)) * rng.uniform(0.1, 5.0)
        direct = max(
            float(np.linalg.norm(pts[i] - pts[j]))
            for i in range(m)
            for j in range(i + 1, m)
        )
        assert geometry.diameter(pts) == pytest.approx(direct, rel=1e-12)


# planar clouds of 1-60 points; the integer grid makes repeated points and
# collinear runs common, the floats put points off the grid
_PLANAR_CLOUDS = st.lists(
    st.one_of(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        st.tuples(*[st.floats(-10.0, 10.0, allow_subnormal=False)] * 2),
    ),
    min_size=1,
    max_size=60,
)


@_PROPERTY
@given(_PLANAR_CLOUDS)
def test_diameter_matches_oracle_on_small_planar_clouds(points):
    pts = np.asarray(points, dtype=float)
    assert geometry.diameter(pts) == pytest.approx(brute_force_diameter(pts), rel=1e-12)


def _regular_polygon(m: int) -> np.ndarray:
    theta = 2.0 * math.pi * np.arange(m) / m
    return np.column_stack((np.cos(theta), np.sin(theta)))


def _normal_cloud(m: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((m, 2))


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: _normal_cloud(1500, 5), id="normal_cloud"),
        pytest.param(
            lambda: geometry.boundary_loop(geometry.named_domain("unit_disc"), 8192)[0],
            id="unit_disc_all_on_hull",
        ),
        pytest.param(lambda: _regular_polygon(1000), id="regular_1000_gon_ties"),
        pytest.param(
            lambda: np.outer(np.random.default_rng(7).uniform(-3.0, 2.0, 700), [0.6, -1.7]) + [1.0, 2.0],
            id="collinear_no_hull",
        ),
        pytest.param(lambda: np.repeat(_normal_cloud(400, 11), 3, axis=0), id="duplicated_points"),
        pytest.param(
            lambda: geometry.boundary_loop(geometry.named_domain("tan_disc"), 16384)[0],
            id="tan_disc_16384",
        ),
    ],
)
def test_diameter_large_cloud_matches_brute_force(make):
    pts = make()
    assert len(pts) > 512  # long chains for the hull's stack scan
    assert geometry.diameter(pts) == pytest.approx(brute_force_diameter(pts), rel=1e-12)


def _cocircular_cloud(rng) -> np.ndarray:
    theta = rng.uniform(0.0, 2.0 * math.pi, int(rng.integers(3, 600)))
    return rng.uniform(0.1, 50.0) * np.column_stack((np.cos(theta), np.sin(theta))) + rng.normal(size=2)


_HULL_CLOUDS = {
    "normal": lambda rng: rng.standard_normal((int(rng.integers(3, 2000)), 2)) * rng.uniform(0.01, 100.0),
    # repeated points and collinear runs
    "integer_grid": lambda rng: rng.integers(-4, 5, (int(rng.integers(3, 300)), 2)).astype(float),
    "cocircular": _cocircular_cloud,
    # every sample turns left: the hull skips its stack scan
    "unit_disc": lambda rng: geometry.boundary_loop(geometry.named_domain("unit_disc"), int(rng.integers(3, 9000)))[0],
    # not convex: the stack scan drops points
    "tan_disc": lambda rng: geometry.boundary_loop(geometry.named_domain("tan_disc"), int(rng.integers(64, 17000)))[0],
}


@pytest.mark.parametrize("kind", sorted(_HULL_CLOUDS))
def test_convex_hull_matches_monotone_chain_oracle(kind):
    rng = np.random.default_rng(sorted(_HULL_CLOUDS).index(kind))
    for _ in range(3 if kind == "tan_disc" else 20):
        pts = _HULL_CLOUDS[kind](rng)
        hull = geometry._convex_hull(pts)
        assert hull.tobytes() == monotone_chain_hull(pts).tobytes()
        if kind == "unit_disc":
            assert len(hull) == len(pts)
        if kind == "tan_disc":
            assert len(hull) < len(pts)


def test_min_enclosing_ball_bowtie_exact():
    points, _, _ = geometry.boundary_loop(geometry.named_domain("bowtie"), None)
    ball = geometry.min_enclosing_ball(points)
    assert np.allclose(ball.center, [0.0, 2.0 / 3.0], atol=1e-9)
    assert ball.radius == pytest.approx(5.0 / 6.0, abs=1e-9)


def test_min_enclosing_ball_contains_and_is_minimal():
    rng = np.random.default_rng(17)
    for _ in range(30):
        m = int(rng.integers(2, 25))
        pts = rng.standard_normal((m, 2)) * rng.uniform(0.2, 3.0)
        ball = geometry.min_enclosing_ball(pts)
        dists = np.linalg.norm(pts - ball.center, axis=1)
        assert np.all(dists <= ball.radius * (1.0 + 1e-10))
        _, oracle_radius = brute_force_mecb(pts)
        assert ball.radius == pytest.approx(oracle_radius, rel=1e-9, abs=1e-12)


# planar, up to 8 points; the integer grid makes repeated, collinear and
# cocircular points common
_CLOUD_COORDS = st.one_of(
    st.integers(-4, 4).map(float), st.floats(-10.0, 10.0, allow_subnormal=False)
)
_SMALL_CLOUDS = st.lists(st.tuples(_CLOUD_COORDS, _CLOUD_COORDS), min_size=1, max_size=8)


@_PROPERTY
@given(_SMALL_CLOUDS)
def test_min_enclosing_ball_matches_oracle(points):
    pts = np.asarray(points, dtype=float)
    ball = geometry.min_enclosing_ball(pts)
    _, oracle_radius = brute_force_mecb(pts)
    assert ball.radius == pytest.approx(oracle_radius, rel=1e-9, abs=1e-12)
    dist = np.linalg.norm(pts - ball.center, axis=1)
    assert np.all(dist <= ball.radius * (1.0 + 1e-10) + 1e-12)


def _sampler_loop(name: str, m: int):
    return pytest.param(lambda: geometry.boundary_loop(geometry.named_domain(name), m)[0], id=f"{name}_{m}")


def _ellipse_in_angular_order(m: int) -> np.ndarray:
    t = np.arange(m) * (2.0 * math.pi / m)
    return np.stack([3.0 * np.cos(t), np.sin(t)], axis=1)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: _normal_cloud(3000, 29), id="normal_cloud"),
        pytest.param(
            lambda: geometry.boundary_loop(geometry.named_domain("tan_disc"), 4096)[0], id="tan_disc"
        ),
        *(_sampler_loop(name, m) for name in ("unit_disc", "tan_disc", "half_disc") for m in (1024, 16384)),
        pytest.param(lambda: _ellipse_in_angular_order(400), id="ellipse_400_in_angular_order"),
    ],
)
def test_min_enclosing_ball_large_cloud(make, monkeypatch):
    pts = make()
    calls = []
    support = geometry._ball_of_support
    monkeypatch.setattr(geometry, "_ball_of_support", lambda points: calls.append(1) or support(points))
    ball = geometry.min_enclosing_ball(pts)
    # the fixed order keeps Welzl's expected-linear run: 8-124 support balls on
    # these clouds, against 601-30,034 with the points taken in their given order
    assert len(calls) <= 400
    dist = np.linalg.norm(pts - ball.center, axis=1)
    assert np.all(dist <= ball.radius * (1.0 + 1e-10))
    # minimal: the points on the rim leave no angular gap wider than pi,
    # so no shift of the center shrinks the ball
    rim = pts[dist >= ball.radius * (1.0 - 1e-9)] - ball.center
    angles = np.sort(np.arctan2(rim[:, 1], rim[:, 0]))
    gaps = np.diff(np.concatenate((angles, angles[:1] + 2.0 * math.pi)))
    assert len(rim) >= 2 and gaps.max() <= math.pi + 1e-9
    # a cloud and its convex hull have the same smallest ball
    hull = geometry.min_enclosing_ball(pts[ConvexHull(pts).vertices])
    assert ball.radius == pytest.approx(hull.radius, rel=1e-12)
    assert np.allclose(ball.center, hull.center, rtol=0.0, atol=1e-12 * hull.radius)


def _rational_loop(seed: int, m: int, star: bool) -> np.ndarray:
    # m points at ascending angles on the rational parametrization of the
    # circle, ((1 - t^2), 2 t) / (1 + t^2): IEEE arithmetic alone, no sin or cos.
    # A star takes a radius per point, a convex loop the axes of an ellipse
    rng = np.random.default_rng(seed)
    u = np.sort(rng.uniform(0.01, 0.99, m))
    t = (u - 0.5) / (u * (1.0 - u))  # increasing from about -50 to 50
    loop = np.column_stack((1.0 - t * t, 2.0 * t)) / (1.0 + t * t)[:, None]
    loop *= rng.uniform(0.55, 1.0, (m, 1)) if star else rng.uniform(0.5, 2.0, 2)
    return rng.uniform(0.5, 2.0) * loop + rng.uniform(-2.0, 2.0, 2)


def _pinned_measurement(case: str):
    kind, _, arg = case.partition(":")
    if kind in ("unit_disc", "half_disc", "tan_disc", "bowtie"):
        spec = geometry.named_domain(kind, **({"samples": int(arg)} if arg else {}))
    elif kind in ("star", "convex"):
        seed, m = map(int, arg.split("/"))
        spec = geometry.DomainSpec(
            kind="polygon", vertices=_rational_loop(seed, m, kind == "star"), convex=kind == "convex"
        )
    else:
        pts = {
            "collinear": np.arange(-7.0, 13.0)[:, None] / 3.0 * [0.6, -0.8] + [1e3, 2e-3],
            "repeated_pair": np.array([[1.5, -2.0]] * 5 + [[0.25, 3.0]] * 4),
            "repeated_grid": np.random.default_rng(5).integers(-3, 4, (60, 2)).astype(float),
        }[kind]
        ball = geometry.min_enclosing_ball(pts)
        return geometry.diameter(pts), ball.radius, *ball.center.tolist()
    _, d, ball = spec.measurement
    return d, ball.radius, *ball.center.tolist()


# d, R and the center's x and y as float.hex: a change to the Welzl steps,
# the place order or the hull that claims to keep the measurement keeps
# these.  The polygons and clouds rest on IEEE arithmetic alone, the
# samplers also on the platform's float64 sin, cos, tan and exp (taken with
# NumPy 2.4 on x86-64 Linux).  Computing R on the hull will move these on purpose
_MEASUREMENT_BITS = {
    "bowtie": ["0x1.94c583ada5b53p+0", "0x1.aaaaaaaaaaaabp-1", "0x0.0p+0", "0x1.5555555555556p-1"],
    "unit_disc:7": ["0x1.f329c0558e96ap+0", "0x1.0000000000001p+0", "0x1.c000000000000p-53", "0x1.0000000000000p-53"],
    "unit_disc:256": ["0x1.0000000000000p+1", "0x1.fffffffffffffp-1", "-0x1.4000000000000p-52", "0x1.0000000000000p-52"],
    "unit_disc:8192": ["0x1.0000000000000p+1", "0x1.0000000000000p+0", "-0x1.0000000000000p-55", "-0x1.0000000000000p-53"],
    "half_disc:2048": ["0x1.0000000000000p+1", "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"],
    "tan_disc:4096": ["0x1.8eb245cbee3a5p+1", "0x1.8eb245cbee3a5p+0", "0x0.0p+0", "0x1.e3a80a9aa5f66p-53"],
    "tan_disc:16384": ["0x1.8eb245cbee3a5p+1", "0x1.8eb245cbee3a5p+0", "0x0.0p+0", "0x1.e3a80a9aa5f66p-53"],
    "star:1/8": ["0x1.41012d49a0699p+0", "0x1.41012d49a0699p-1", "-0x1.6e1e844cc02f5p-2", "-0x1.25eadebd42866p+0"],
    "star:2/13": ["0x1.29eb4bfb300f5p+1", "0x1.2b0c8fbdc66d7p+0", "0x1.852667a1bc466p-1", "-0x1.95ef512d0ac76p+0"],
    "star:3/20": ["0x1.b278129b5b5a5p+1", "0x1.b34b7c8d0f2d7p+0", "0x1.24fc58294fdcap-1", "0x1.95d4d1a2b9038p-1"],
    "star:4/40": ["0x1.37388346c78d8p+0", "0x1.3bb0c57853f73p-1", "0x1.2cd0774837335p-1", "-0x1.0a76a22d8ef1dp-1"],
    "star:5/75": ["0x1.3c2207525b2f9p+1", "0x1.3c332c973f7b5p+0", "0x1.c50e791959b14p-1", "0x1.00f45a130aecbp-3"],
    "star:6/130": ["0x1.b3b084364557bp+1", "0x1.b6877b6485f53p+0", "0x1.d89019cf084f2p-1", "-0x1.c68af9de4ef36p+0"],
    "star:7/240": ["0x1.daceab91877d8p+0", "0x1.dcfe512262c0bp-1", "-0x1.a5b642cddec54p-1", "-0x1.246726841cf20p-2"],
    "star:8/400": ["0x1.6d71982697cb4p+1", "0x1.6ed1b6ff4c624p+0", "-0x1.7ac247f5ae698p-2", "-0x1.b0f2552587a8ap+0"],
    "convex:11/3": ["0x1.2d81dc841d3d2p+1", "0x1.2d81dc841d3d2p+0", "-0x1.c598d4b1cd750p+0", "-0x1.65b1eea19f4c0p+0"],
    "convex:12/17": ["0x1.74d51d4032dbdp+1", "0x1.74d95db1258aap+0", "0x1.5253b7dc12788p-1", "0x1.b251456c26341p+0"],
    "convex:13/60": ["0x1.18c9f511d8ed4p+2", "0x1.18e2e109807e3p+1", "-0x1.c8289758f7bb4p+0", "0x1.b682675a5d379p+0"],
    "convex:14/200": ["0x1.178c49512e482p+2", "0x1.179396b5bbb6cp+1", "0x1.20c38ab1e7c38p+0", "-0x1.05fc5d2901ea2p+0"],
    "collinear": ["0x1.9555555555537p+2", "0x1.9555555555537p+1", "0x1.f440000000000p+9", "-0x1.544f3078263acp-1"],
    "repeated_pair": ["0x1.49d93405be849p+2", "0x1.49d93405be849p+1", "0x1.c000000000000p-1", "0x1.0000000000000p-1"],
    "repeated_grid": ["0x1.0f876ccdf6cd9p+3", "0x1.0f876ccdf6cd9p+2", "0x0.0p+0", "0x0.0p+0"],
}


@pytest.mark.parametrize("case", sorted(_MEASUREMENT_BITS))
def test_the_measurement_keeps_its_bits(case):
    assert [x.hex() for x in _pinned_measurement(case)] == _MEASUREMENT_BITS[case]


def _splitmix64_int(x: int) -> int:
    mask = 2**64 - 1
    x = (x + 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


@pytest.mark.parametrize("m", [1, 2, 3, 40, 1000])
def test_min_enclosing_ball_takes_the_points_in_the_documented_order(m, monkeypatch):
    # place i holds pts[argsort(argsort(keys))][i], keys[i] = splitmix64(i + splitmix64(m)) mod 2^64
    pts = np.random.default_rng(m).standard_normal((m, 2))
    seen = []
    welzl = geometry._welzl_mtf

    def spy(coords, end, support):
        if not support:  # the outer call; the recursion always passes a support point
            seen.append((coords.copy(), coords.flags.c_contiguous, end))
        return welzl(coords, end, support)

    monkeypatch.setattr(geometry, "_welzl_mtf", spy)
    geometry.min_enclosing_ball(pts)
    salt = _splitmix64_int(m)
    keys = np.array([_splitmix64_int((i + salt) % 2**64) for i in range(m)], dtype=np.uint64)
    assert len(seen) == 1
    coords, contiguous, end = seen[0]
    assert contiguous and end == m  # one row per axis, each a contiguous run
    assert np.array_equal(coords, pts[np.argsort(np.argsort(keys))].T)


def test_min_enclosing_ball_order_invariant():
    # the fixed internal shuffle meets each reordering in a different order
    rng = np.random.default_rng(23)
    pts = rng.standard_normal((40, 2))
    base = geometry.min_enclosing_ball(pts)
    for _ in range(3):
        ball = geometry.min_enclosing_ball(rng.permutation(pts))
        assert np.allclose(ball.center, base.center, atol=1e-9)
        assert ball.radius == pytest.approx(base.radius, abs=1e-9)


def test_min_enclosing_ball_degenerate_inputs():
    one = geometry.min_enclosing_ball([[2.0, 3.0]])
    assert one.radius == pytest.approx(0.0, abs=1e-15)
    collinear = geometry.min_enclosing_ball([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert collinear.radius == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(collinear.center, [1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("measure", [geometry.diameter, geometry.min_enclosing_ball])
@pytest.mark.parametrize(
    "points",
    [
        [[0.0, 0.0], [1e200, 0.0], [0.0, 1.0]], [[0.0, 0.0], [-2e150, 0.0]],
        [[True, False], [False, True]], [[True, 0.0], [2.0, 0.0]], [[0, 0], [10**151, 0]],
        [[0, 0], [10**400, 0]],
    ],
    ids=["1e200", "-2e150", "bools", "bool_among_numbers", "int_above_limit", "int_beyond_floats"],
)
def test_point_clouds_must_be_numbers_up_to_the_coordinate_limit(measure, points):
    # at 1e200 squared distances overflow: diameter read inf, the ball a NaN radius
    with pytest.raises(ValueError, match="points"):
        measure(points)


@pytest.mark.parametrize("measure", [geometry.diameter, geometry.min_enclosing_ball])
@pytest.mark.parametrize(
    "points", [np.zeros((4, 1)), np.ones((4, 3)), np.zeros((0, 2)), [1.0, 2.0]], ids=["m1", "m3", "empty", "flat"]
)
def test_point_clouds_must_be_planar_and_nonempty(measure, points):
    with pytest.raises(ValueError, match=r"points must be a nonempty \(m, 2\) array"):
        measure(points)


@pytest.mark.parametrize("k", [-60, -52, -50, 0, 40])
def test_a_scaled_bowtie_keeps_its_enclosing_radius(k):
    # scaling by a power of two is exact, and containment has a relative slack
    # only, so d / s and R / s are the unit bowtie's at any scale
    s = 2.0**k
    vertices = s * geometry.named_domain("bowtie").vertices
    _, d, ball = geometry.DomainSpec(kind="polygon", vertices=vertices).measurement
    assert (d / s, ball.radius / s) == (math.sqrt(2.5), 0.8333333333333334)


def test_polygons_far_from_the_origin_keep_their_area():
    # 1e8 + x is exact for these x, but a shoelace sum taken about the origin cancels to 0.0
    for vertices in (_SQUARE, geometry.named_domain("bowtie").vertices.tolist()):
        shifted = geometry.DomainSpec(kind="polygon", vertices=np.array(vertices) + 1e8)
        assert geometry._shoelace(shifted.vertices) == geometry._shoelace(np.array(vertices))
        assert shifted.measurement[1] == geometry.diameter(vertices)


def test_int_coordinates_of_any_size_and_type_read_as_floats():
    # JSON integers have no size limit; below 1e150 they are coordinates like 1e22
    big = [[0, 0], [2, 0], [0, 10**22]]
    assert geometry.diameter(big) == geometry.diameter([[0.0, 0.0], [2.0, 0.0], [0.0, 1e22]])
    spec = geometry.load_domain_spec({"kind": "polygon", "vertices": big})
    assert spec.vertices.tolist() == [[0.0, 0.0], [2.0, 0.0], [0.0, 1e22]]
    assert geometry.diameter([[np.int64(0), 0], [np.int64(3), np.float32(4)]]) == 5.0


def test_preset_names():
    assert geometry.preset_names() == ("bowtie", "half_disc", "tan_disc", "unit_disc")
    with pytest.raises(ValueError):
        geometry.named_domain("nonsense")


def test_named_domain_metadata():
    bowtie = geometry.named_domain("bowtie")
    assert bowtie.qc_coefficient == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, abs=1e-15)
    assert bowtie.convex is False
    tan_disc = geometry.named_domain("tan_disc")
    assert tan_disc.star_beta == 0.5
    assert tan_disc.symmetry_center is not None
    half = geometry.named_domain("half_disc")
    assert half.norm_sq == 2.0 and half.convex is True


def test_tan_disc_boundary_is_odd():
    spec = geometry.named_domain("tan_disc")
    points = geometry.boundary_loop(spec, 512)[0]
    # boundary of an odd map: each point's antipode is also on the boundary
    for p in points[::37]:
        assert np.min(np.linalg.norm(points + p, axis=1)) < 2e-2


def test_tan_disc_diameter_matches_analytic_value():
    spec = geometry.named_domain("tan_disc")
    points = geometry.boundary_loop(spec)[0]
    # the boundary is odd, so the diameter is twice the largest modulus,
    # attained at tan(1)
    assert geometry.diameter(points) == pytest.approx(2.0 * math.tan(1.0), rel=1e-4)


def test_load_domain_spec_round_trips(tmp_path):
    payload = {
        "kind": "polygon",
        "vertices": _SQUARE,
        "name": "square",
        "convex": True,
        "K": 1.5,
    }
    from_dict = geometry.load_domain_spec(payload)
    from_string = geometry.load_domain_spec(json.dumps(payload))
    path = tmp_path / "square.json"
    path.write_text(json.dumps(payload))
    from_file = geometry.load_domain_spec(str(path))
    for spec in (from_dict, from_string, from_file):
        assert spec.name == "square"
        assert spec.convex is True
        assert spec.qc_coefficient == 1.5
        assert np.allclose(spec.vertices, np.asarray(_SQUARE))


def test_load_domain_spec_named_with_overrides():
    spec = geometry.load_domain_spec({"kind": "named", "name": "unit_disc", "samples": 32})
    assert spec.samples == 32
    assert spec.kind == "sampler"


def test_load_domain_spec_named_applies_metadata_overrides():
    spec = geometry.load_domain_spec(
        {"kind": "named", "name": "bowtie", "K": 1.0, "convex": False, "beta": 0.25,
         "norm_sq": 3.0, "symmetry_center": [0.0, 0.5]}
    )
    assert spec.qc_coefficient == 1.0
    assert spec.convex is False
    assert spec.star_beta == 0.25
    assert spec.norm_sq == 3.0
    assert np.array_equal(spec.symmetry_center, [0.0, 0.5])
    assert np.array_equal(spec.vertices, geometry.named_domain("bowtie").vertices)
    # overrides go through the same validation as any other spec
    with pytest.raises(ValueError, match="qc_coefficient"):
        geometry.load_domain_spec({"kind": "named", "name": "bowtie", "K": 0.5})
    with pytest.raises(ValueError, match="vertices"):
        geometry.load_domain_spec({"kind": "named", "name": "bowtie", "vertices": _SQUARE})


def test_load_domain_spec_takes_preset_names(tmp_path):
    spec = geometry.load_domain_spec("bowtie")
    assert spec.name == "bowtie"
    assert spec.qc_coefficient == geometry.named_domain("bowtie").qc_coefficient
    assert np.array_equal(spec.vertices, geometry.named_domain("bowtie").vertices)
    with pytest.raises(ValueError, match="bowtie, half_disc, tan_disc, unit_disc"):
        geometry.load_domain_spec(str(tmp_path / "missing.json"))


def test_spec_arrays_are_read_only_copies():
    bowtie = geometry.named_domain("bowtie")
    with pytest.raises(ValueError, match="read-only"):
        bowtie.vertices[0, 0] = -9.0
    assert geometry.named_domain("bowtie").vertices[0, 0] == -0.5
    verts, point = np.array(_SQUARE), np.array([0.5, 0.5])
    spec = geometry.DomainSpec(kind="polygon", vertices=verts, symmetry_center=point, anchor=point)
    verts[0, 0], point[0] = 9.0, 9.0  # the caller's arrays stay the caller's
    assert spec.vertices[0, 0] == 0.0
    assert spec.symmetry_center[0] == 0.5 and spec.anchor[0] == 0.5
    for arr in (spec.vertices, spec.symmetry_center, spec.anchor):
        assert not arr.flags.writeable


def test_spec_coordinates_must_be_numbers():
    with pytest.raises(ValueError, match="vertices"):
        geometry.DomainSpec(kind="polygon", vertices=[[True, False], [True, True], [False, True]])
    for attr in ("anchor", "symmetry_center"):
        for value in ([True, False], np.array([True, False]), ["0", "1"]):
            with pytest.raises(ValueError, match=attr):
                geometry.DomainSpec(kind="sampler", name="unit_disc", **{attr: value})


def test_load_domain_spec_rejects_garbage(tmp_path):
    with pytest.raises(ValueError):
        geometry.load_domain_spec({"kind": "blob"})
    with pytest.raises(ValueError, match="unknown domain kind 'blob'"):
        geometry.DomainSpec(kind="blob")
    with pytest.raises(ValueError, match="unknown sampler 'blob'"):
        geometry.load_domain_spec({"kind": "sampler", "name": "blob"})
    with pytest.raises(ValueError, match='kind "named" requires a "name"'):
        geometry.load_domain_spec({"kind": "named"})
    path = tmp_path / "list.json"
    path.write_text("[[0, 0], [1, 0], [0, 1]]", encoding="utf-8")
    with pytest.raises(ValueError, match="domain spec must be a JSON object"):
        geometry.load_domain_spec(str(path))
    with pytest.raises(ValueError):
        geometry.load_domain_spec({"kind": "polygon"})  # no vertices
    with pytest.raises(ValueError):
        geometry.load_domain_spec({"kind": "polygon", "vertices": _SQUARE, "extra": 1})
