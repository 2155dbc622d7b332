"""P1 finite-element Neumann eigenvalues, used to audit the lower bounds.

Meshing is deliberately simple: fan out from an anchor the domain is
star-shaped about, then refine uniformly, projecting each new boundary
vertex onto the exact boundary curve via the parameterization carried by
the boundary loop.  Refinement is array code: one np.unique over the edge
keys of a level finds its edge midpoints, numbered by first use.
Conforming P1 elements over-approximate the Neumann eigenvalues of the
mesh polygon.  For a polygon domain that is the domain, so a mesh mu_1 below
a claimed lower bound is a rigorous violation; for a sampler domain it is a
different domain, and the same finding flags a discrepancy, not a proof.
That is the check verify_bound runs.

Assembly uses the classic per-triangle formulas: with edge coefficients
b_i = y_j - y_k and c_i = x_k - x_j (cyclic), the stiffness block is
(b b^T + c c^T) / (4 area) and the consistent mass block is
(area / 12) (1 + delta_ij).  Stiffness rows sum to zero (constants cost
no energy) and the total mass equals the mesh area.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from . import geometry
from .errors import NumericalError, check_int

_MAX_REFINEMENT = 8
_MAX_DOF = 20_000
_MAX_EIGS = 10
# eigsh's stopping tolerance: ARPACK stops once every Ritz estimate is below
# it relative to its Ritz value.  It certifies nothing; the 1e-8 backward-
# error check in neumann_eigenvalues does, and at this tolerance the worst
# backward error seen is about 2e-12.  tol=0 (machine epsilon) takes about
# a third more solves for digits no check or output uses.
_EIGSH_TOL = 1e-10
_MIN_TRIANGLE_DOUBLE_AREA = 2e-14
_SAMPLER_MESH_BOUNDARY = 96  # refinement doubles boundary resolution per level


@dataclass(frozen=True, eq=False)
class Mesh:
    """A conforming triangle mesh: vertices, positively oriented triangles,
    and a boundary-vertex mask."""

    vertices: np.ndarray  # (nv, 2) float
    triangles: np.ndarray  # (nt, 3) int
    boundary: np.ndarray  # (nv,) bool

    @property
    def dof_count(self) -> int:
        return int(len(self.vertices))

    @property
    def mesh_size(self) -> float:
        x, y = self.vertices[:, 0][self.triangles], self.vertices[:, 1][self.triangles]
        dx, dy = x[:, [1, 2, 0]] - x, y[:, [1, 2, 0]] - y  # edges 01, 12, 20
        return float(np.sqrt((dx * dx + dy * dy).max()))


@dataclass(frozen=True)
class SpectrumResult:
    """Ascending Neumann eigenvalues of a mesh with its resolution data."""

    eigenvalues: tuple[float, ...]
    mesh_size: float
    dof_count: int
    residuals: tuple[float, ...]  # each pair's backward error, see neumann_eigenvalues
    solves: int  # calls to the shift-invert solve


def _signed_double_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p0 = vertices[triangles[:, 0]]
    u = vertices[triangles[:, 1]] - p0
    w = vertices[triangles[:, 2]] - p0
    return u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0]


def _check_dof(nv: int) -> int:
    if nv > _MAX_DOF:
        raise ValueError(f"mesh has {nv} unknowns, above the supported {_MAX_DOF}")
    return nv


def triangulate(
    spec: geometry.DomainSpec,
    refinement: int = 0,
    samples: int | None = None,
) -> Mesh:
    """Fan triangulation from a star center, uniformly refined.

    The fan center is the spec's anchor, else the vertex centroid for
    polygons and the origin for samplers; the domain must be star-shaped
    about it, and a fan triangle folding over is reported with its
    boundary index.  Each refinement splits every triangle in four; new
    vertices on boundary edges are placed on the exact boundary curve at
    the parameter midpoint, so curved domains are tracked and straight
    edges are simply halved.  New vertices are numbered in the order their
    edges are first met, triangle by triangle and edges 01, 12, 20 within
    a triangle; children come four per parent, in parent order.  The
    initial boundary is boundary_loop(spec, samples); samples defaults to
    min(spec.samples, 96) for a sampler and to the vertices for a polygon.
    A refinement above 8, or a mesh with more unknowns than
    neumann_eigenvalues supports, is rejected before any refining: a fan of
    m triangles refined r times has 1 + m 2^(r-1) (2^r + 1) vertices.
    """
    if check_int("refinement", refinement, 0) > _MAX_REFINEMENT:
        raise ValueError(f"refinement must be at most {_MAX_REFINEMENT}, got {refinement!r}")
    if samples is None and spec.samples is not None:
        samples = min(spec.samples, _SAMPLER_MESH_BOUNDARY)
    points, params, curve = geometry.boundary_loop(spec, samples)
    m = len(points)
    _check_dof(1 + m * 2**refinement * (2**refinement + 1) // 2)

    anchor = spec.anchor
    if anchor is None:
        anchor = points.mean(axis=0) if spec.kind == "polygon" else np.zeros(2)

    vertices = np.vstack([anchor[None, :], points])
    fan = np.arange(1, m + 1, dtype=np.int64)
    triangles = np.stack([np.zeros_like(fan), fan, np.roll(fan, -1)], axis=1)
    boundary = np.zeros(len(vertices), dtype=bool)
    boundary[1:] = True
    s_param = np.concatenate([[np.nan], params])  # curve parameter, NaN inside

    double_areas = _signed_double_areas(vertices, triangles)
    bad = np.nonzero(double_areas <= _MIN_TRIANGLE_DOUBLE_AREA)[0]
    if len(bad):
        i = int(bad[0])
        raise NumericalError(
            f"fan triangle at boundary index {i} is inverted or degenerate: "
            f"the domain is not star-shaped about anchor {anchor.tolist()}"
        )

    for _ in range(refinement):
        vertices, triangles, boundary, s_param = _refine_once(
            vertices, triangles, boundary, s_param, curve
        )

    double_areas = _signed_double_areas(vertices, triangles)
    bad = np.nonzero(double_areas <= _MIN_TRIANGLE_DOUBLE_AREA)[0]
    if len(bad):
        raise NumericalError(
            f"triangle {int(bad[0])} degenerated during refinement "
            "(boundary resolution too coarse for this curve)"
        )
    return Mesh(vertices=vertices, triangles=triangles, boundary=boundary)


def _refine_once(vertices, triangles, boundary, s_param, curve):
    nv = len(vertices)
    # each triangle's edges 01, 12, 20, triangle by triangle
    starts = triangles.ravel()
    ends = triangles[:, [1, 2, 0]].ravel()
    keys = np.minimum(starts, ends) * nv + np.maximum(starts, ends)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # number the midpoints in the order the triangles first use their
    # edges, not in key order (the numbering triangulate documents)
    by_use = np.argsort(first, kind="stable")
    rank = np.empty_like(by_use)
    rank[by_use] = np.arange(len(by_use))
    mid = (nv + rank[inverse]).reshape(-1, 3)
    a, b = starts[first[by_use]], ends[first[by_use]]  # edges as first used

    points = 0.5 * (vertices[a] + vertices[b])
    # an edge between boundary vertices is a boundary arc by fan
    # construction; track the exact curve.  Children keep their parent's
    # edge directions, so every arc runs from a to b the way the loop does,
    # and its parameter grows by (s_b - s_a) mod 1, across the seam too.
    arc = boundary[a] & boundary[b]
    s_a, s_b = s_param[a[arc]], s_param[b[arc]]
    s_mid = (s_a + 0.5 * ((s_b - s_a) % 1.0)) % 1.0
    points[arc] = curve(s_mid)
    new_s = np.full(len(points), np.nan)
    new_s[arc] = s_mid

    v0, v1, v2 = triangles.T
    m01, m12, m20 = mid.T
    children = np.stack(
        [v0, m01, m20, v1, m12, m01, v2, m20, m12, m01, m12, m20], axis=1
    ).reshape(-1, 3)
    return (
        np.vstack([vertices, points]),
        children,
        np.concatenate([boundary, arc]),
        np.concatenate([s_param, new_s]),
    )


def assemble(mesh: Mesh):
    """Stiffness and consistent mass matrices (CSR) for P1 elements, on one shared pattern.

    x and y are gathered once per triangle, and the blocks go into one complex
    array, K real and M imaginary, in the formulas' order of operations; one
    COO -> CSR conversion sums both parts as two real ones would, bit for bit.
    """
    import scipy.sparse  # imported here so that commands without a mesh skip it
    v, t = mesh.vertices, mesh.triangles
    if t.ndim != 2 or t.shape[1] != 3 or len(t) == 0:
        raise ValueError("mesh has no triangles")
    x, y = v[:, 0][t], v[:, 1][t]
    b = y[:, [1, 2, 0]] - y[:, [2, 0, 1]]  # b_i = y_j - y_k
    c = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]  # c_i = x_k - x_j
    double_area = c[:, 2] * b[:, 1] - b[:, 2] * c[:, 1]  # (x1 - x0)(y2 - y0) - (y1 - y0)(x2 - x0)
    bad = np.nonzero(double_area <= _MIN_TRIANGLE_DOUBLE_AREA)[0]
    if len(bad):
        raise NumericalError(f"triangle {int(bad[0])} has non-positive area")

    k_local = np.multiply(b[:, :, None], b[:, None, :])
    k_local += c[:, :, None] * c[:, None, :]
    k_local /= (2.0 * double_area)[:, None, None]
    local = np.empty(k_local.shape, dtype=complex)
    local.real = k_local
    np.multiply(double_area[:, None, None], (np.ones((3, 3)) + np.eye(3)) / 24.0, out=local.imag)

    t = t.astype(np.int32)
    nv = len(v)
    both = scipy.sparse.coo_matrix(
        (local.ravel(), (np.repeat(t, 3, axis=1).ravel(), np.tile(t, (1, 3)).ravel())), shape=(nv, nv)
    ).tocsr()
    pattern = (both.indices, both.indptr)
    stiffness = scipy.sparse.csr_matrix((both.data.real.copy(), *pattern), shape=(nv, nv))
    mass = scipy.sparse.csr_matrix((both.data.imag.copy(), *pattern), shape=(nv, nv))
    return stiffness, mass


def neumann_eigenvalues(mesh: Mesh, k: int = 6) -> SpectrumResult:
    """The k smallest Neumann eigenvalues of a mesh, ascending.

    The first is the constant mode, reported as exactly 0.0 once the
    solve has found it; the second is the mesh's mu_1,
    an over-approximation of the true mu_1 that decreases under
    refinement.  Shift-invert Lanczos about sigma < 0: A = K - sigma M,
    symmetric bit for bit on the pattern K and M share (so its CSR arrays
    are its CSC arrays), is factored once with splu and its solves are
    eigsh's OPinv.  ncv = 2k + 2 (at least 10, at most the DOF count).  The
    fixed start, a smooth quadratic in the centred and scaled vertex
    coordinates plus 0.2 times a seeded normal draw (a component along
    every eigenvector), makes the result deterministic.  eigsh stops at
    tol = 1e-10: that bounds ARPACK's Ritz estimates relative to their Ritz
    values, and is not what certifies a pair.  Every returned pair (lam, x)
    is checked on its own: a backward error ||Kx - lam Mx||_1 /
    ((||K||_1 + |lam| ||M||_1) ||x||_1), returned as residuals, above 1e-8
    raises NumericalError.  solves counts the calls to the splu solve.
    """
    if check_int("k", k, 2) > _MAX_EIGS:
        raise ValueError(f"k must be at most {_MAX_EIGS}, got {k!r}")
    nv = _check_dof(mesh.dof_count)
    if k >= nv:
        raise ValueError(f"k={k} needs a mesh with more than {k} vertices")
    import scipy.sparse.linalg  # lazy like scipy.sparse in assemble: ~0.1 s

    stiffness, mass = assemble(mesh)  # the module attribute, which tracers wrap

    center = mesh.vertices.mean(axis=0)
    spread = max(float(np.linalg.norm(mesh.vertices - center, axis=1).max()), 1e-9)
    sigma = -0.2 * (1.8412 / spread) ** 2
    shifted = scipy.sparse.csc_matrix(
        (stiffness.data - sigma * mass.data, stiffness.indices, stiffness.indptr), shape=(nv, nv)
    )
    lu = scipy.sparse.linalg.splu(shifted)
    solves = 0

    def solve(b):
        nonlocal solves
        solves += 1
        return lu.solve(b)

    x, y = ((mesh.vertices - center) / spread).T
    v0 = 1.0 + x + 0.7 * y + 0.3 * x * x - 0.2 * x * y + 0.5 * y * y
    v0 += 0.2 * np.random.default_rng(0).standard_normal(nv)
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            stiffness,
            k=k,
            M=mass,
            sigma=sigma,
            which="LM",
            v0=v0,
            ncv=min(nv, max(2 * k + 2, 10)),
            maxiter=2000,
            tol=_EIGSH_TOL,
            OPinv=scipy.sparse.linalg.LinearOperator((nv, nv), matvec=solve, dtype=float),
        )
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise NumericalError(f"eigenvalue iteration did not converge: {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]

    lam0, lam1 = vals[0], vals[1]
    if not (lam1 > 0.0 and abs(lam0) < 1e-8 * max(lam1, 1.0)):
        raise NumericalError(
            f"spectrum lacks the constant mode: lambda_0={lam0}, lambda_1={lam1}"
        )
    # constants lie exactly in K's kernel (stiffness rows sum to zero), so
    # lam0 is round-off: report 0.0, and check the pair for that value
    vals[0] = 0.0
    # 1-norms as column sums of |a| straight from the CSR arrays, no sparse copy
    k_norm, m_norm = (
        np.bincount(a.indices, weights=np.abs(a.data), minlength=nv).max() for a in (stiffness, mass)
    )
    residuals = np.abs(stiffness @ vecs - (mass @ vecs) * vals).sum(axis=0) / (
        (k_norm + np.abs(vals) * m_norm) * np.abs(vecs).sum(axis=0)
    )
    worst = int(np.argmax(residuals))  # the first NaN, if any
    if not residuals[worst] <= 1e-8:
        raise NumericalError(f"eigenpair {worst} has backward error {residuals[worst]:.3g} > 1e-8")
    return SpectrumResult(
        eigenvalues=tuple(float(x) for x in vals),
        mesh_size=mesh.mesh_size,
        dof_count=nv,
        residuals=tuple(float(r) for r in residuals),
        solves=solves,
    )


def verify_bound(
    spec: geometry.DomainSpec,
    refinement: int = 4,
    k: int = 4,
    fem_samples: int | None = None,
    strict: bool = True,
) -> dict:
    """Check every applicable lower bound for a domain against the mesh mu_1.

    The mesh mu_1 bounds mu_1 of the mesh polygon from above.  On a polygon
    spec that is the domain, so an applicable bound at or above it disproves
    the bound (or the metadata it came from); on a sampler spec it flags a
    discrepancy with the curved domain, not a proof.  With strict=True such a
    violation raises NumericalError; the returned record carries per-bound
    margins either way.  The bounds come from best_bound_report(spec);
    fem_samples, if given, is the mesh boundary's sample count.
    """
    if spec.dim != 2:
        raise ValueError("finite-element verification is planar: spec.dim must be 2")
    summary = bounds_mod.best_bound_report(spec).as_dict()
    del summary["best_value"]
    mesh = triangulate(spec, refinement=refinement, samples=fem_samples)
    spectrum = neumann_eigenvalues(mesh, k=k)
    fem_mu1 = spectrum.eigenvalues[1]

    violations = []
    for entry in summary["bounds"]:
        if entry["applicable"]:
            margin = fem_mu1 - entry["value"]
            entry["margin"] = margin
            entry["satisfied"] = bool(margin > 0.0)
            if margin <= 0.0:
                violations.append(f"{entry['formula']}={entry['value']:.6g} vs fem mu1={fem_mu1:.6g}")

    record = {
        "fem_mu1": fem_mu1,
        "eigenvalues": list(spectrum.eigenvalues),
        "dof_count": spectrum.dof_count,
        "mesh_size": spectrum.mesh_size,
        "refinement": refinement,
        **summary,
        "all_satisfied": not violations,
    }
    if strict and violations:
        raise NumericalError(
            "lower bound exceeds the finite-element eigenvalue: " + "; ".join(violations)
        )
    return record
