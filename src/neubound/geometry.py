"""Planar domain descriptions and the geometry behind the eigenvalue bounds.

A domain enters the toolkit as a DomainSpec: an explicit polygon, a named
boundary sampler (unit_disc, half_disc, tan_disc), or one of the built-in
presets.  Geometry consumers need two numbers from it, the diameter d and
the radius R of the smallest enclosing ball, plus an ordered boundary loop
for meshing.  Boundary loops carry their curve parameterization so mesh
refinement can place new boundary vertices on the exact curve instead of
on chords.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import check_int, check_real

_CONTAIN_SLACK = 1e-11  # multiplicative slack for enclosing-ball membership
_ORIENT_ERR = (3.0 + 16.0 * 2.0**-53) * 2.0**-53  # Shewchuk's relative error bound on _orient's sign
_PAIR_BLOCK = 1 << 18  # candidate edge pairs per block in the simplicity check
_MAX_SAMPLES = 2**20  # boundary samples per loop
_MAX_COORD = 1e150  # squared distances between such points stay finite
_NUMBER_TYPES = (int, float, np.integer, np.floating)  # bool is an int; np.bool_ is neither


@dataclass(frozen=True, eq=False)
class Ball:
    """A closed Euclidean ball given by center and radius."""

    center: np.ndarray
    radius: float

    def _outside(self, coords: np.ndarray) -> np.ndarray:
        """Mask of the points outside the ball widened by _CONTAIN_SLACK.

        coords holds the x row and the y row of the points, each a
        contiguous run; the squared distance is dx * dx + dy * dy.
        """
        dx, dy = coords[0] - self.center[0], coords[1] - self.center[1]
        return dx * dx + dy * dy > self.radius * self.radius * (1.0 + _CONTAIN_SLACK)


@dataclass(frozen=True, eq=False)
class DomainSpec:
    """Description of a bounded planar domain plus user-declared metadata.

    The bound pipeline's only input.  The bounds are evaluated in dimension
    dim; above 2, for the shape's analytic extension into R^dim with the
    planar d and R, which only suits axially symmetric shapes like the
    half-ball.  samples, in [3, _MAX_SAMPLES], is a sampler's boundary
    resolution, 256 unless given; a polygon is measured at its vertices and
    rejects it, as a sampler rejects vertices.

    Metadata fields (symmetry_center, qc_coefficient, star_beta, convex,
    norm_sq) are assertions by the caller, never derived from the shape;
    the bounds module only uses a bound family when its metadata is
    present.  Only a polygon's convex=True is checked against the shape.
    anchor is a point the domain is star-shaped with respect to, used as
    the fan center when meshing.  vertices, symmetry_center and anchor are
    stored as read-only float copies, the declared numbers as floats.
    measurement, the planar d and R, is taken on first use and kept: the
    spec never changes.
    """

    kind: str  # "polygon" or "sampler"
    dim: int = 2
    vertices: np.ndarray | None = None
    name: str | None = None
    samples: int | None = None
    symmetry_center: np.ndarray | None = None
    qc_coefficient: float | None = None
    star_beta: float | None = None
    convex: bool | None = None
    norm_sq: float | None = None
    anchor: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("polygon", "sampler"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        object.__setattr__(self, "dim", check_int("dim", self.dim, 2))
        if self.name is not None and not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        if not (self.convex is None or isinstance(self.convex, bool)):
            raise ValueError(f"convex must be true, false or absent, got {self.convex!r}")
        if self.kind == "polygon":
            if self.vertices is None:
                raise ValueError("polygon spec needs vertices")
            if self.samples is not None:
                raise ValueError("a polygon spec is measured at its vertices; samples do not apply")
            verts = _coords("vertices", self.vertices)
            if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
                raise ValueError("vertices must be an (m, 2) array with m >= 3")
            if len(verts) > _MAX_SAMPLES:
                raise ValueError(f"at most {_MAX_SAMPLES} polygon vertices, got {len(verts)}")
            if np.any(np.all(verts == _next(verts), axis=1)):
                raise ValueError("polygon has a repeated consecutive vertex")
            area, (x, y) = _shoelace(verts), verts.T  # the bounding box per column, as in fem._degenerate
            if abs(area) <= 1e-14 * (x.max() - x.min()) * (y.max() - y.min()):  # relative to it, so scale-free
                raise ValueError("polygon has zero area")
            if area < 0.0:
                verts = verts[::-1].copy()  # normalize to counterclockwise
            if not _polygon_is_simple(verts):
                raise ValueError("polygon boundary is self-intersecting")
            if self.convex and np.any(_orient(verts, _next(verts), _next(_next(verts))) < 0.0):  # a clockwise turn
                raise ValueError("polygon declared convex has a reflex vertex")
            verts.flags.writeable = False
            object.__setattr__(self, "vertices", verts)
        elif self.vertices is not None:
            raise ValueError("a sampler spec takes its shape from the sampler; vertices do not apply")
        elif self.name not in _SAMPLER_FAMILIES:
            known = ", ".join(sorted(_SAMPLER_FAMILIES))
            raise ValueError(f"unknown sampler {self.name!r}; known: {known}")
        else:
            object.__setattr__(self, "samples", 256 if self.samples is None else _check_samples(self.samples))
        for attr in ("symmetry_center", "anchor"):
            value = getattr(self, attr)
            if value is not None:
                arr = _coords(attr, value)
                if arr.shape != (2,):
                    raise ValueError(f"{attr} must be a 2-vector")
                arr.flags.writeable = False
                object.__setattr__(self, attr, arr)
        for attr, lo, hi in (("qc_coefficient", 1, math.inf), ("star_beta", 0, 1), ("norm_sq", 1, math.inf)):
            if getattr(self, attr) is not None:
                object.__setattr__(self, attr, check_real(attr, getattr(self, attr), lo, hi))

    @functools.cached_property
    def measurement(self) -> tuple[int, float, Ball]:
        """boundary_loop(self)'s point count, and its convex hull's diameter and smallest enclosing Ball."""
        points = boundary_loop(self)[0]
        d, ball = diameter(points), min_enclosing_ball(points)
        ball.center.flags.writeable = False
        return len(points), d, ball


def _check_samples(m: int) -> int:  # the one check on a boundary sample count
    if (m := check_int("samples", m, 3)) > _MAX_SAMPLES:
        raise ValueError(f"at most {_MAX_SAMPLES} boundary samples, got {m}")
    return m


def _coords(name: str, value) -> np.ndarray:
    """value as a new float array of numbers c with |c| <= _MAX_COORD.

    An ndarray needs an integer or float dtype.  Other input must nest ints
    and floats (Python's or NumPy's) evenly, each element's type checked as
    given, so a bool among numbers is rejected and an int of any size is
    read.  Strings, None, other objects and ragged nesting are rejected.
    """
    if not isinstance(value, np.ndarray):
        try:
            value = np.array(value, dtype=object)
            if all(issubclass(t, _NUMBER_TYPES) and t is not bool for t in set(map(type, value.flat))):
                value = value.astype(float)
        except (ValueError, OverflowError):  # ragged nesting, an int beyond the float range
            value = np.array(None)
    if value.dtype.kind not in "iuf" or not np.all(np.abs(value) <= _MAX_COORD):  # NaN fails too
        raise ValueError(f"{name} must be an array of numbers c with |c| <= {_MAX_COORD:g}")
    return value.astype(float)


def _next(a: np.ndarray) -> np.ndarray:
    """Each row's successor around the loop: np.roll(a, -1, axis=0) without its fixed cost."""
    return np.concatenate((a[1:], a[:1]))


def _shoelace(verts: np.ndarray) -> float:
    x, y = (verts - verts[0]).T  # about a vertex: about the origin, a far-off polygon's terms cancel
    return 0.5 * float(np.sum(x * _next(y) - _next(x) * y))


def _orient(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])


def _touches(a: np.ndarray, b: np.ndarray, c: np.ndarray, side: np.ndarray) -> np.ndarray:
    # c on the line through a, b and inside their bounding box, an end included
    return (side == 0) & np.all((np.minimum(a, b) <= c) & (c <= np.maximum(a, b)), axis=1)


def _polygon_is_simple(verts: np.ndarray) -> bool:
    """True unless two non-adjacent edges cross or touch.

    Edge pq meets edge rs when each separates the other's endpoints (with
    r and s strictly off the line pq), or when an endpoint of one lies on
    the other (collinear overlap, T, or a vertex repeated).  Sweep and
    prune (Shamos and Hoey, FOCS 1976) along x or y: with the edges sorted
    by the low end of their bounding boxes on that axis, an edge's
    candidates are the later edges that start before it ends, and of those
    only non-adjacent pairs whose boxes overlap on the other axis are
    tested, as the boxes of edges that meet do.  Either axis tests the same
    pairs; the sweep takes the one with fewer candidates, counted with one
    argsort and one searchsorted each, so a band of edges that all span
    one x-range is swept along y.  A band on a diagonal stays quadratic.
    Candidate pairs are taken in blocks of at most _PAIR_BLOCK.
    """
    m = len(verts)
    ends = _next(verts)
    lo, hi = np.minimum(verts, ends), np.maximum(verts, ends)
    sweeps = []
    for axis in (0, 1):
        order = np.argsort(lo[:, axis])
        # sorted edge k's candidates: the count[k] sorted edges after it, which start before it ends
        count = np.searchsorted(lo[order, axis], hi[order, axis], side="right") - np.arange(1, m + 1)
        sweeps.append((int(count.sum()), axis, order, count))
    _, axis, order, count = min(sweeps)
    other = 1 - axis
    last = np.cumsum(count)  # candidate pairs up to and including sorted edge k
    for t0 in range(0, last[-1], _PAIR_BLOCK):
        t = np.arange(t0, min(t0 + _PAIR_BLOCK, last[-1]))
        k = np.searchsorted(last, t, side="right")
        a, b = order[k], order[k + 1 + t - (last[k] - count[k])]
        i, j = np.minimum(a, b), np.maximum(a, b)  # pq is the lower-numbered edge: the test is not symmetric
        # adjacent edges share an endpoint by design: i, i + 1 and 0, m - 1
        keep = (j - i != 1) & (j - i != m - 1) & (lo[i, other] <= hi[j, other]) & (lo[j, other] <= hi[i, other])
        i, j = i[keep], j[keep]
        p, q, r, s = verts[i], ends[i], verts[j], ends[j]
        d1, d2 = _orient(p, q, r), _orient(p, q, s)
        d3, d4 = _orient(r, s, p), _orient(r, s, q)
        cross = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & (d1 != 0) & (d2 != 0)
        cross |= _touches(p, q, r, d1) | _touches(p, q, s, d2)
        cross |= _touches(r, s, p, d3) | _touches(r, s, q, d4)
        if cross.any():
            return False
    return True


# ---------------------------------------------------------------------------
# boundary samplers

def _circle_curve(s):
    t = 2.0 * math.pi * np.asarray(s, dtype=float)
    return np.stack((np.cos(t), np.sin(t)), axis=-1)


def _tan_disc_curve(s):
    w = np.tan(np.exp(2.0j * math.pi * np.asarray(s, dtype=float)))
    return np.stack((w.real, w.imag), axis=-1)


_HALF_DISC_ARC_FRAC = math.pi / (math.pi + 2.0)


def _half_disc_curve(s):
    # lower half of the unit disc; loop = lower arc then the diameter
    s = np.asarray(s, dtype=float) % 1.0
    theta = math.pi * (1.0 + s / _HALF_DISC_ARC_FRAC)
    u = (s - _HALF_DISC_ARC_FRAC) / (1.0 - _HALF_DISC_ARC_FRAC)
    on_arc = s < _HALF_DISC_ARC_FRAC
    x = np.where(on_arc, np.cos(theta), 1.0 - 2.0 * u)
    y = np.where(on_arc, np.sin(theta), 0.0)
    return np.stack((x, y), axis=-1)


# each family: (curve, breakpoint parameters, their points, one weight per
# piece from a breakpoint to the next); a curve maps an array of parameters
# to an array of points, a scalar to a single (2,) point.  The points are the
# curve's unless given (the half-disc curve's first is 1.2e-16 above y = 0)
_SAMPLER_FAMILIES = {
    name: (curve, np.array(breaks), np.array(corners or curve(np.array(breaks))), np.array(weights))
    for name, curve, breaks, corners, weights in (
        ("unit_disc", _circle_curve, (0.0,), None, (1.0,)),
        ("tan_disc", _tan_disc_curve, (0.0,), None, (1.0,)),
        # weights: arclengths
        ("half_disc", _half_disc_curve, (0.0, _HALF_DISC_ARC_FRAC), ((-1.0, 0.0), (1.0, 0.0)), (math.pi, 2.0)),
    )
}


def _family(spec: DomainSpec):
    """(curve, breaks, corners, weights) as in _SAMPLER_FAMILIES; a polygon's
    curve runs by arclength, its weights are its edge lengths, and its corners
    its vertices as given (two vertices' parameters may round to one float)."""
    if spec.kind == "sampler":
        return _SAMPLER_FAMILIES[spec.name]
    verts = spec.vertices
    edges = _next(verts) - verts
    lengths = np.linalg.norm(edges, axis=1)
    total = float(lengths.sum())
    starts = np.concatenate(([0.0], np.cumsum(lengths)[:-1])) / total

    def curve(s):
        s = np.asarray(s, dtype=float) % 1.0
        i = np.searchsorted(starts, s, side="right") - 1
        u = (s - starts[i]) * total / lengths[i]
        return verts[i] + u[..., None] * edges[i]

    return curve, starts, verts, lengths


def boundary_loop(spec: DomainSpec, m: int | None = None):
    """Ordered boundary samples of a domain: (points, params, curve).

    Points run counterclockwise at parameters ascending in [0, 1); curve maps
    an array of parameters to points, a scalar to one point.  m, in [3,
    _MAX_SAMPLES], defaults to spec.samples; a polygon without m gives its
    vertices, and rejects an m below them.  Every breakpoint (a vertex, a
    half-disc corner) is a sample, bit for bit; the other m - breakpoints go
    to the pieces by D'Hondt on their weights, evenly spaced in parameter.
    """
    curve, breaks, corners, weights = _family(spec)
    m = spec.samples if m is None else _check_samples(m)
    if m is not None and m < len(breaks):
        raise ValueError(f"{m} boundary samples are fewer than the polygon's {len(breaks)} vertices")
    extra = m - len(breaks) if m else 0
    if not extra:
        return corners.copy(), breaks.copy(), curve
    alloc = np.floor(weights / weights.sum() * extra).astype(int)
    for _ in range(extra - int(alloc.sum())):  # fewer rounds than pieces
        alloc[int(np.argmax(weights / (alloc + 1)))] += 1
    counts = alloc + 1  # piece i: its breakpoint, then alloc[i] evenly spaced samples
    first = np.cumsum(counts) - counts
    step = np.arange(len(breaks) + extra) - np.repeat(first, counts)
    spans = np.append(breaks[1:], 1.0) - breaks
    params = np.repeat(breaks, counts) + np.repeat(spans, counts) * step / np.repeat(counts, counts)
    points = curve(params)
    points[first] = corners
    return points, params, curve


# ---------------------------------------------------------------------------
# diameter and smallest enclosing ball

def _point_cloud(points: Sequence[Sequence[float]]) -> np.ndarray:
    pts = _coords("points", points)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise ValueError("points must be a nonempty (m, 2) array")
    return pts


def _caliper_diameter_sq(hull: np.ndarray) -> float:
    """Largest squared vertex distance of a counterclockwise convex polygon.

    Rotating calipers, vectorized: a vertex supports the caliper line of
    direction t when t lies between the directions of its incoming and
    outgoing edges, so the vertex opposite edge i is found by searching for
    that edge's direction + pi among the unwrapped edge directions.  The
    diameter is attained at such an antipodal pair; both ends of every edge
    are paired with the opposite vertex and its two neighbours, which
    covers ties (parallel edges) and rounding in the directions.  Each
    pair's dx * dx + dy * dy is formed from x and y gathered per column.
    """
    n = len(hull)
    edges = _next(hull) - hull
    theta = np.unwrap(np.arctan2(edges[:, 1], edges[:, 0]))
    directions = np.maximum.accumulate(np.concatenate((theta, theta + 2.0 * math.pi)))
    opposite = np.searchsorted(directions, theta + math.pi)
    ends = np.arange(n)
    a = np.concatenate((ends, (ends + 1) % n))[:, None]
    b = (np.concatenate((opposite, opposite))[:, None] + np.arange(-1, 2)) % n
    x, y = hull.T
    dx, dy = x[a] - x[b], y[a] - y[b]
    return float((dx * dx + dy * dy).max())


def _convex_hull(pts: np.ndarray) -> np.ndarray:
    """Counterclockwise convex hull vertices of a planar cloud.

    Andrew's monotone chain (Inf. Process. Lett. 9, 1979) on the sorted
    points without repeats, split into a lower and an upper chain by the
    line through the first and last.  One array pass drops each chain point
    whose right turn between its neighbours is certain, beyond the bound of
    Shewchuk's static filter (Discrete Comput. Geom. 18, 1997), as no hull
    vertex turns right; a stack scan finishes the chain.  A chain whose
    every point turns left is kept as it is: the scan, which evaluates the
    same float expression, would keep all of it.  Collinear clouds give two.
    """
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    pts = pts[np.append(True, np.any(pts[1:] != pts[:-1], axis=1))]
    first, last = pts[:1], pts[-1:]
    side = _orient(first, last, pts)
    hull = []
    for chain in ((first, pts[side < 0], last), (last, pts[side > 0][::-1], first)):
        chain = np.concatenate(chain)
        ab, ac = chain[1:-1] - chain[:-2], chain[2:] - chain[:-2]
        t1, t2 = ab[:, 0] * ac[:, 1], ab[:, 1] * ac[:, 0]  # _orient is t1 - t2
        if (t1 - t2 > 0).all():
            hull.append(chain[:-1])
            continue
        certain_right = t1 - t2 < -_ORIENT_ERR * (np.abs(t1) + np.abs(t2))
        chain = chain[np.concatenate(([True], ~certain_right, [True]))]
        xs, ys = chain.T.tolist()
        stack = [0]
        for i in range(1, len(xs)):
            while len(stack) > 1:
                o, a = stack[-2], stack[-1]
                if (xs[a] - xs[o]) * (ys[i] - ys[o]) - (ys[a] - ys[o]) * (xs[i] - xs[o]) > 0.0:
                    break
                stack.pop()
            stack.append(i)
        hull.append(chain[stack[:-1]])
    return np.concatenate(hull)


def diameter(points: Sequence[Sequence[float]]) -> float:
    """Largest pairwise distance over a planar point cloud.

    The cloud is reduced to its convex hull and, unless that has fewer than
    three vertices, scanned by rotating calipers, O(m log m); a shorter
    hull's diameter is the distance between its ends.
    """
    hull = _convex_hull(_point_cloud(points))
    if len(hull) > 2:
        return math.sqrt(_caliper_diameter_sq(hull))
    dx, dy = (hull[-1] - hull[0]).tolist()  # not diff @ diff: a BLAS dot may fuse
    return math.sqrt(dx * dx + dy * dy)


def _ball_of_support(support: list[np.ndarray]) -> Ball | None:
    """Smallest ball with the given affinely independent points on its surface.

    One point is its own ball; for more, the radius is math.sqrt(d.dot(d)) of the
    center's offset d from the first point, as np.linalg.norm computes it for d.
    """
    if len(support) < 2:
        return Ball(support[0].copy(), 0.0) if support else None
    q = np.array(support)
    u = q[1:] - q[0]
    gram = u @ u.T
    b = 0.5 * np.einsum("ij,ij->i", u, u)
    try:
        coef = np.linalg.solve(gram, b)
    except np.linalg.LinAlgError:
        coef = np.linalg.lstsq(gram, b, rcond=None)[0]
    center = q[0] + coef @ u
    d = center - q[0]
    return Ball(center, math.sqrt(d.dot(d)))


def _welzl_mtf(coords: np.ndarray, end: int, support: list[np.ndarray]) -> Ball | None:
    """Move-to-front Welzl over the points coords[:, :end], one row per axis.

    Reorders those columns in place.
    """
    ball = _ball_of_support(support)
    if len(support) == len(coords) + 1:
        return ball
    i = 0
    while i < end:
        if ball is not None:
            outside = ball._outside(coords[:, i:end])
            first = int(outside.argmax())
            if not outside[first]:
                break
            i += first
        p = coords[:, i].copy()
        ball = _welzl_mtf(coords, i, support + [p])
        coords[:, 1 : i + 1] = coords[:, :i]
        coords[:, 0] = p
        i += 1
    return ball


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64's output for each state in x (Steele, Lea and Flood, OOPSLA 2014): a
    bijection of uint64, wrapping mod 2^64."""
    x = x + 0x9E3779B97F4A7C15
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB
    return x ^ (x >> 31)


def min_enclosing_ball(points: Sequence[Sequence[float]]) -> Ball:
    """Smallest enclosing ball (disc) of a finite planar point cloud.

    It is the convex hull's (Chrystal, Proc. Edinburgh Math. Soc. 3, 1885):
    move-to-front Welzl runs over the m vertices of _convex_hull relative to
    the first, the lexicographically smallest, then added to the center, so
    R and the center depend on the hull alone.  Each step finds the first
    remaining point outside the current ball in one array pass; recursion
    depth is at most 4.  Place i holds the vertex whose index is the rank of
    the key splitmix64(i + splitmix64(m)) among the m keys: the keys are
    distinct, so this is a permutation, built with one argsort as vertex j
    goes to place argsort(keys)[j], and salted by m, so no index keeps its
    relative place across hull sizes.  The order is integer arithmetic
    alone, which makes the run reproducible without a random generator.
    R is the exact optimum up to roundoff: at most 3 support points
    determine it.  The center is rounded once, as the origin is added back,
    so the ball holds the cloud up to half an ulp of each center coordinate.
    """
    hull = _convex_hull(_point_cloud(points))
    origin = hull[0]
    m = np.array([len(hull)], dtype=np.uint64)
    keys = _splitmix64(np.arange(len(hull), dtype=np.uint64) + _splitmix64(m))
    coords = np.empty((2, len(hull)))
    coords[:, np.argsort(keys)] = (hull - origin).T
    ball = _welzl_mtf(coords, len(hull), [])  # a Ball: the hull is nonempty
    return Ball(ball.center + origin, ball.radius)


# ---------------------------------------------------------------------------
# presets and JSON loading

_PHI_K = (3.0 + math.sqrt(5.0)) / 2.0  # largest distortion of the shear pieces

# the DomainSpec arguments of each preset
_PRESETS: dict[str, dict] = {
    # two sheared unit squares glued along x = 0; piecewise-affine image
    # of a square, quasidisc coefficient (3 + sqrt 5)/2
    "bowtie": dict(
        kind="polygon", name="bowtie", qc_coefficient=_PHI_K, convex=False, anchor=(0.0, 1.0),
        vertices=[[-0.5, 0.0], [0.0, 0.5], [0.5, 0.0], [0.5, 1.0], [0.0, 1.5], [-0.5, 1.0]],
    ),
    "unit_disc": dict(
        kind="sampler", name="unit_disc", samples=256, symmetry_center=(0.0, 0.0),
        qc_coefficient=1.0, convex=True, anchor=(0.0, 0.0),
    ),
    # lower half of the unit disc; even reflection across the diameter
    # extends H^1 functions with energy factor exactly 2
    "half_disc": dict(
        kind="sampler", name="half_disc", samples=256, convex=True,
        norm_sq=2.0, anchor=(0.0, -0.4),
    ),
    # image of the unit disc under tan; odd map, so centrally symmetric,
    # and (1/2)-star-shaped about the origin
    "tan_disc": dict(
        kind="sampler", name="tan_disc", samples=4096, symmetry_center=(0.0, 0.0),
        star_beta=0.5, convex=False, anchor=(0.0, 0.0),
    ),
}


def preset_names() -> tuple[str, ...]:
    """Names accepted by named_domain, sorted."""
    return tuple(sorted(_PRESETS))


def named_domain(name: str, **overrides) -> DomainSpec:
    """Build a built-in example domain by name, with DomainSpec fields overridden."""
    if not isinstance(name, str) or name not in _PRESETS:
        raise ValueError(f"unknown named domain {name!r}; known: {', '.join(preset_names())}")
    return DomainSpec(**{**_PRESETS[name], **overrides})


# JSON key -> DomainSpec field; DomainSpec checks every value
_SPEC_FIELDS = {
    "dim": "dim", "vertices": "vertices", "name": "name", "samples": "samples",
    "symmetry_center": "symmetry_center", "K": "qc_coefficient", "beta": "star_beta",
    "convex": "convex", "norm_sq": "norm_sq", "anchor": "anchor",
}


def load_domain_spec(source) -> DomainSpec:
    """Build a DomainSpec from a preset name, a JSON file path, a JSON string, or a dict.

    Schema: {"kind": "polygon" | "named" | "sampler", "dim": n,
    "vertices": [[x, y], ...], "name": ..., "samples": m} plus optional
    metadata keys "symmetry_center", "K", "beta", "convex", "norm_sq",
    "anchor".  Keys are only renamed to their DomainSpec fields, which
    check the values; a null is rejected on every key but "name", since
    DomainSpec reads None as "not declared".  A bare preset name reads as
    {"kind": "named", "name": ...}.  "named" resolves a preset and then
    applies every other key given alongside it as an override; "vertices"
    is rejected there, since the preset fixes the shape.
    """
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        if text in _PRESETS:
            data = {"kind": "named", "name": text}
        elif text.lstrip().startswith("{"):
            data = json.loads(text)
        else:
            try:
                with open(text, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
            except FileNotFoundError:
                raise ValueError(
                    f"domain {text!r} is neither a preset ({', '.join(preset_names())}) "
                    "nor an existing JSON file"
                ) from None
    if not isinstance(data, dict):
        raise ValueError("domain spec must be a JSON object")
    unknown = set(data) - set(_SPEC_FIELDS) - {"kind"}
    if unknown:
        raise ValueError(f"unknown domain spec keys: {sorted(unknown)}")
    kind = data.get("kind")
    if kind not in ("polygon", "sampler", "named"):
        raise ValueError(f'kind must be "polygon", "sampler" or "named", got {kind!r}')
    nulls = sorted(key for key, value in data.items() if value is None and key != "name")
    if nulls:
        raise ValueError(f'only "name" may be null, got null for {nulls}')
    kwargs = {_SPEC_FIELDS[key]: value for key, value in data.items() if key != "kind"}
    if kind != "named":
        return DomainSpec(kind=kind, **kwargs)
    if "name" not in kwargs:
        raise ValueError('kind "named" requires a "name"')
    if "vertices" in kwargs:
        raise ValueError('kind "named" takes its shape from the preset; "vertices" does not apply')
    return named_domain(kwargs.pop("name"), **kwargs)
