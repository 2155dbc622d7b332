"""P1 finite-element Neumann eigenvalues, used to audit the lower bounds.

Meshing is deliberately simple: fan out from an anchor the domain is
star-shaped about, then refine uniformly, projecting each new boundary
vertex onto the exact boundary curve via the parameterization carried by
the boundary loop.  Refinement is array code: one np.unique over the edge
keys of a level finds its edge midpoints, numbered by first use.  A mesh is
its vertices placed on a memoized fan pattern (m boundary points, r
refinements), which holds its triangles, boundary mask, assembly layout and
numbering: above 128 unknowns its fill order, so the sparse solver factors
assemble's matrices as they come.  The memo changes no result, only its
cost.  Conforming P1 elements over-approximate the Neumann eigenvalues of
the mesh polygon.  For a polygon domain that is the domain, so a mesh mu_1
below a claimed lower bound disproves it up to the solve's accuracy: mu_1
is a Ritz value whose pair passed the 1e-8 backward-error check, and it can
differ from the discrete eigenvalue by about 1e-13 relative.  For a sampler
domain the mesh polygon is a different domain, and the same finding flags
a discrepancy, not a proof.  That is the check verify_bound runs.

Assembly uses the classic per-triangle formulas: with edge coefficients
b_i = y_j - y_k and c_i = x_k - x_j (cyclic), the stiffness block is
(b b^T + c c^T) / (4 area) and the consistent mass block is (area / 12)
(1 + delta_ij), summed into each entry in triangle order by one bincount per
matrix.  Stiffness rows sum to zero (constants cost no energy) and the total
mass equals the mesh area.  Meshes of up to 128 unknowns are solved densely
in NumPy alone; larger ones load scipy.sparse.
"""

from __future__ import annotations

import functools
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
_DENSE_MAX_DOF = 128  # the measured in-process crossover: splu + eigsh is faster above it
# the sparse route's measured fill-order crossover (see _fill_order): fans refined at least
# this often factor and solve faster in the postordered minimum-degree order than in COLAMD's
# (r4 from 817 unknowns on), fans refined less slower (r3 up to 3,601 unknowns)
_MMD_MIN_REFINEMENT = 4
_MIN_TRIANGLE_DOUBLE_AREA = 2e-14  # relative to the area of the mesh's bounding box
_SAMPLER_MESH_BOUNDARY = 96  # refinement doubles boundary resolution per level
_MASS_SHARES = np.repeat([2.0, 1.0], 3) / 24.0  # a triangle's mass entries per double area: diagonal, sides
_PATTERN_CAP = 64  # fan patterns memoized, the least recently used dropped first; a verify block meshes 35


@dataclass(frozen=True, eq=False)
class Mesh:
    """A fan mesh as triangulate makes it: vertices placed on a fan pattern, whose
    positively oriented triangles and boundary-vertex mask it reads.  Other vertices
    on the same pattern come from dataclasses.replace(mesh, vertices=...); assemble and
    neumann_eigenvalues reject a triangle that is inverted or degenerate for the
    mesh's bounding box."""

    vertices: np.ndarray  # (nv, 2) float
    _pattern: _FanPattern

    def __post_init__(self):
        if np.shape(self.vertices) != (len(self.boundary), 2) or not np.isfinite(self.vertices).all():
            raise ValueError(f"the mesh's pattern places {len(self.boundary)} finite vertices, got shape {np.shape(self.vertices)}")

    triangles = property(lambda self: self._pattern.triangles)  # (nt, 3) int
    boundary = property(lambda self: self._pattern.boundary)  # (nv,) bool

    dof_count = property(lambda self: len(self.vertices))

    @property
    def mesh_size(self) -> float:
        """The longest edge, in one pass over the unique edges of the mesh's pattern."""
        (x, y), (a, b) = self.vertices.T, self._pattern.edges[:2]
        dx, dy = x[b] - x[a], y[b] - y[a]
        return float(np.sqrt((dx * dx + dy * dy).max()))


@dataclass(frozen=True)
class SpectrumResult:
    """Ascending Neumann eigenvalues of a mesh with its resolution data."""

    eigenvalues: tuple[float, ...]
    mesh_size: float
    dof_count: int
    residuals: tuple[float, ...]  # each pair's backward error, see neumann_eigenvalues
    solves: int  # calls to the sparse route's splu solve; 0 on the dense route


def _degenerate(vertices: np.ndarray, double_areas: np.ndarray) -> np.ndarray:
    """Triangles of double area at most _MIN_TRIANGLE_DOUBLE_AREA times the bounding box's area."""
    x, y = vertices.T  # per column: np.ptp(vertices, axis=0) reduces row by row, 5-13 times slower
    return np.flatnonzero(double_areas <= _MIN_TRIANGLE_DOUBLE_AREA * (x.max() - x.min()) * (y.max() - y.min()))


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
    edges are simply halved.  Construction numbers new vertices in the order
    their edges are first met, triangle by triangle and edges 01, 12, 20
    within a triangle, and children four per parent, in parent order; above
    128 unknowns the vertices then take their pattern's fill order.  The
    initial boundary is boundary_loop(spec, samples); samples defaults to
    min(spec.samples, 96) for a sampler and to the vertices for a polygon.
    A refinement above 8, or a mesh with more unknowns than
    neumann_eigenvalues supports, is rejected before any refining: a fan of
    m triangles refined r times has 1 + m 2^(r-1) (2^r + 1) vertices.
    Each pattern (m, r) is memoized (see _fan_pattern), and the mesh is its
    vertices placed on it, so a hit only places coordinates; the mesh's
    arrays are read-only.  Only the fan is checked here, against its
    bounding box's area; the refined triangles are checked when assembled.
    """
    if (refinement := check_int("refinement", refinement, 0)) > _MAX_REFINEMENT:
        raise ValueError(f"refinement must be at most {_MAX_REFINEMENT}, got {refinement!r}")
    if samples is None and spec.samples is not None:
        samples = min(spec.samples, _SAMPLER_MESH_BOUNDARY)
    points, params, curve = geometry.boundary_loop(spec, samples)
    m = len(points)
    if (dof := 1 + m * 2**refinement * (2**refinement + 1) // 2) > _MAX_DOF:
        raise ValueError(f"mesh has {dof} unknowns, above the supported {_MAX_DOF}")

    anchor = spec.anchor
    if anchor is None:
        anchor = points.mean(axis=0) if spec.kind == "polygon" else np.zeros(2)
    double_areas = geometry._orient(anchor[None], points, geometry._next(points))  # fan triangle i: anchor, i, i + 1
    bad = _degenerate(np.vstack([anchor, points]), double_areas)
    if len(bad):
        raise NumericalError(
            f"fan triangle at boundary index {int(bad[0])} is inverted or degenerate: "
            f"the domain is not star-shaped about anchor {anchor.tolist()}"
        )

    pattern, nv = _fan_pattern(m, refinement), m + 1
    vertices = np.concatenate([[anchor], points, np.empty((len(pattern.boundary) - nv, 2))])
    s_param = np.concatenate([[np.nan], params, np.empty(len(vertices) - nv)])  # read on arcs only
    for a, b, arc in pattern.levels:
        vertices[nv : nv + len(a)] = 0.5 * (vertices[a] + vertices[b])
        # children keep their parent's edge directions, so every arc runs from a to b
        # as the loop does, and its parameter grows by (s_b - s_a) mod 1, across the seam too
        s_a, s_b = s_param[a[arc]], s_param[b[arc]]
        s_mid = (s_a + 0.5 * ((s_b - s_a) % 1.0)) % 1.0
        vertices[nv + arc] = curve(s_mid)
        s_param[nv + arc] = s_mid
        nv += len(a)
    vertices = vertices[pattern.order]  # into the pattern's numbering
    vertices.flags.writeable = False
    return Mesh(vertices, pattern)


@dataclass(frozen=True, eq=False)
class _FanPattern:
    """A fan of m boundary points refined r times and what the solver keeps for it; immutable."""
    levels: tuple  # per level refined, (a, b, arc): its edges, the arcs among them, construction-numbered
    triangles: np.ndarray
    boundary: np.ndarray
    edges: tuple  # a, b and sides as _edges lists them, then _layout's; in the pattern's numbering
    order: np.ndarray  # each vertex's construction number: above _DENSE_MAX_DOF, the fill order, else 0, 1, ...


def _edges(triangles: np.ndarray, nv: int) -> tuple:
    """Edges numbered by first use (triangle by triangle; 01, 12, 20): the endpoints a, b
    as first run and each triangle's three edge numbers (nt, 3); all int32."""
    starts = triangles.ravel()
    ends = triangles[:, [1, 2, 0]].ravel()
    keys = np.minimum(starts, ends).astype(np.int64) * nv + np.maximum(starts, ends)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    by_use = np.argsort(first, kind="stable")
    rank = np.argsort(by_use)  # the inverse permutation: each edge's place in the order of use
    return starts[first[by_use]], ends[first[by_use]], rank[inverse].reshape(-1, 3).astype(np.int32)


def _layout(a: np.ndarray, b: np.ndarray, nv: int) -> tuple:
    """Where K's and M's CSR entries come from: the place of each in [diagonal; edges a -> b;
    edges b -> a], and indptr; both int32."""
    rows, cols = (np.concatenate([np.arange(nv), p, q]) for p, q in ((a, b), (b, a)))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=nv))])
    return np.argsort(rows * nv + cols).astype(np.int32), indptr.astype(np.int32)


@functools.lru_cache(maxsize=_PATTERN_CAP)
def _fan_pattern(m: int, refinement: int) -> _FanPattern:
    """The memoized pattern (m, refinement); a miss builds it from the fan in construction
    numbering and, if it has more than _DENSE_MAX_DOF vertices, numbers it in its fill order."""
    fan = np.arange(1, m + 1, dtype=np.int32)
    triangles = np.stack([np.zeros_like(fan), fan, geometry._next(fan)], axis=1)
    levels, boundary = [], np.arange(m + 1) > 0
    for _ in range(refinement):
        a, b, sides = _edges(triangles, nv := len(boundary))
        arc = boundary[a] & boundary[b]  # an edge between boundary vertices is a boundary arc by fan construction
        (v0, v1, v2), (m01, m12, m20) = triangles.T, (nv + sides).T
        triangles = np.stack([v0, m01, m20, v1, m12, m01, v2, m20, m12, m01, m12, m20], 1).reshape(-1, 3)
        levels.append((a, b, np.flatnonzero(arc).astype(np.int32)))
        boundary = np.concatenate([boundary, arc])
    a, b, sides = _edges(triangles, nv := len(boundary))
    order = np.arange(nv, dtype=np.int32)
    if nv > _DENSE_MAX_DOF:
        order = _fill_order(a, b, nv, refinement >= _MMD_MIN_REFINEMENT)
        position = np.argsort(order).astype(np.int32)
        triangles, boundary, a, b = position[triangles], boundary[order], position[a], position[b]
    edges = (a, b, sides, *_layout(a, b, nv))
    for array in (triangles, boundary, *edges, order, *(x for level in levels for x in level)):
        array.flags.writeable = False
    return _FanPattern(tuple(levels), triangles, boundary, edges, order)


def _assembled(mesh: Mesh):
    """K's and M's CSR indptr, indices and a list of their data: each triangle's diagonal
    and side values go to its vertices and edges in one bincount per matrix."""
    v, t = mesh.vertices, mesh.triangles
    x, y = (v[:, i][t][:, [1, 2, 0, 1]] for i in (0, 1))  # corners 1, 2, 0, 1: cyclic pairs are slices
    b = y[:, :3] - y[:, 1:]  # b_i = y_j - y_k
    c = x[:, 1:] - x[:, :3]  # c_i = x_k - x_j
    double_area = c[:, 2] * b[:, 1] - b[:, 2] * c[:, 1]  # (x1 - x0)(y2 - y0) - (y1 - y0)(x2 - x0)
    bad = _degenerate(v, double_area)
    if len(bad):
        raise NumericalError(f"triangle {int(bad[0])} is inverted or degenerate")

    nv = len(v)
    starts, ends, sides, entry, indptr = mesh._pattern.edges
    at = np.concatenate([t, nv + sides], axis=1).ravel()  # vertices 0, 1, 2; sides 01, 12, 20
    side, cc = b[:, [1, 2, 0]], c[:, [1, 2, 0]]  # sides 01, 12, 20: b_i b_j + c_i c_j, in place
    side *= b
    cc *= c
    side += cc
    k = np.concatenate([b * b + c * c, side], axis=1)
    k /= (2.0 * double_area)[:, None]
    m = double_area[:, None] * _MASS_SHARES
    sums = [np.bincount(at, w.ravel()) for w in (k, m)]
    indices = np.concatenate([np.arange(nv, dtype=np.int32), ends, starts])[entry]
    return indptr, indices, [np.concatenate([s, s[nv:]])[entry] for s in sums]


def assemble(mesh: Mesh):
    """Stiffness and consistent mass matrices (CSR, owning their arrays) for P1 elements, on one
    shared pattern; each entry sums its triangles' values in triangle order (see _assembled)."""
    import scipy.sparse  # imported here so that commands without a mesh skip it
    nv = mesh.dof_count
    indptr, indices, data = _assembled(mesh)
    return tuple(scipy.sparse.csr_matrix((d, indices, indptr.copy()), shape=(nv, nv)) for d in data)


def _dense(mesh: Mesh):
    """K and M as n x n arrays: assemble's entries, scattered, so both routes see the same bits."""
    nv, (indptr, indices, data) = mesh.dof_count, _assembled(mesh)
    at = np.repeat(np.arange(0, nv * nv, nv), np.diff(indptr)) + indices
    return tuple(np.bincount(at, d, nv * nv).reshape(nv, nv) for d in data)  # one value per place


def _fill_order(a: np.ndarray, b: np.ndarray, nv: int, refined: bool) -> np.ndarray:
    """The sparse route's fill order from a pattern's construction-numbered edges a -> b, new-to-old.

    SuperLU picks it from the sparsity of every K - sigma M, here that of I
    plus the pattern's graph Laplacian (spilu finds all ones "exactly
    singular"), and spilu keeping no fill returns it for less than splu would.
    Below _MMD_MIN_REFINEMENT refinements it is COLAMD's, as splu postorders
    it.  From there on (refined) it is the minimum-degree order of A + A^T (George
    and Liu 1989), postordered by the elimination tree of A in that order.  spilu postorders
    every order by the column elimination tree, that of A^T A, which splits
    A's supernodes: without the symmetric postorder, this order took 4.6-7.1 s
    to factor at 17,953 unknowns, against 0.05 s with it.
    """
    import scipy.sparse.linalg
    rows, cols = (np.concatenate([np.arange(nv), p, q]) for p, q in ((a, b), (b, a)))
    values = np.concatenate([np.bincount(rows, minlength=nv), -np.ones(2 * len(a))])  # 1 + degree: a row's count
    shifted = scipy.sparse.csc_matrix((values, (rows, cols)), shape=(nv, nv))
    spec = "MMD_AT_PLUS_A" if refined else "COLAMD"
    order = np.argsort(scipy.sparse.linalg.spilu(shifted, drop_tol=1.0, fill_factor=1.0, permc_spec=spec).perm_c)
    if refined:
        order = order[_etree_postorder(scipy.sparse.tril(shifted[order][:, order], -1, format="csr"))]
    return order.astype(np.int32)


def _etree_postorder(lower) -> np.ndarray:
    """A postorder of the elimination tree of the symmetric matrix whose strict
    lower triangle is the CSR matrix lower: each vertex after its children,
    taken in increasing order, so every subtree is contiguous.

    The tree is built as in Liu (1990): the parent of i is the least j > i
    that i reaches through the lower entries of row j, found by climbing from
    each entry to the root of its subtree, with each climbed path compressed
    to j.  The postorder is a depth-first walk with an explicit stack.  The
    tree pass reads the CSR arrays through memoryviews, so that the only
    Python lists hold n items.
    """
    n = lower.shape[0]
    indptr, indices = memoryview(lower.indptr), memoryview(lower.indices)
    parent, ancestor = [n] * n, [n] * n  # n: no parent or ancestor yet; the roots' parent at the end
    for j in range(n):
        for i in indices[indptr[j] : indptr[j + 1]]:
            while i < j:
                up = ancestor[i]
                ancestor[i] = j
                if up == n:
                    parent[i] = j
                i = up
    child, sibling = [-1] * (n + 1), [-1] * n  # each vertex's first child not yet walked; the next one
    for v in range(n - 1, -1, -1):
        sibling[v], child[parent[v]] = child[parent[v]], v
    postorder, stack = [], [n]
    while stack:
        v = stack[-1]
        if (c := child[v]) < 0:
            postorder.append(stack.pop())
        else:
            child[v] = sibling[c]
            stack.append(c)
    return np.array(postorder[:-1])  # the root n comes last


def _worst_shaped(mesh: Mesh) -> str:
    """For a failed solve's message: the triangle whose longest edge L is the most times its
    height 2 area / L.  _assembled has rejected flat triangles, so no area is 0."""
    corners = mesh.vertices[mesh.triangles]
    sides = corners[:, [1, 2, 0]] - corners  # 01, 12, 20
    ratio = (sides * sides).sum(axis=2).max(axis=1) / np.abs(geometry._orient(*corners.transpose(1, 0, 2)))
    worst = int(np.argmax(ratio))
    return f"; triangle {worst} is the worst shaped, its longest edge {ratio[worst]:.3g} times its height"


@functools.cache
def _bare_operator():
    """The n x n operator the sparse route hands eigsh as M and as OPinv: its matvec is
    the callable it wraps, so a product skips LinearOperator.matvec's shape checks and
    MatrixLinearOperator's dispatch (eigsh passes it 1-d float arrays of length n).
    Defined on first use, since scipy.sparse.linalg is imported lazily."""
    import scipy.sparse.linalg

    class Bare(scipy.sparse.linalg.LinearOperator):
        def __init__(self, matvec, n: int):
            super().__init__(float, (n, n))
            self.matvec = matvec

        def _matvec(self, x):  # SciPy warns about a subclass that defines neither it nor _matmat
            return self.matvec(x)

    return Bare


def neumann_eigenvalues(mesh: Mesh, k: int = 6) -> SpectrumResult:
    """The k smallest Neumann eigenvalues of a mesh, ascending.

    The first is the constant mode, reported as exactly 0.0 once the solve
    has found it; the second is the mesh's mu_1, an over-approximation of
    the true mu_1 that decreases under refinement.  Both routes invert about
    a shift sigma < 0, where A = K - sigma M is positive definite, which
    keeps lam_0 within about eps |sigma| of 0, not eps lam_max.  Up to
    _DENSE_MAX_DOF unknowns, NumPy alone: dense K and M, A = L L^T by
    Cholesky, eigh of L^-1 M L^-T, and from its k largest theta
    lam = sigma + 1/theta, x = L^-T y.  Above it, shift-invert Lanczos on
    assemble's K and M, numbered in the pattern's fill order (see _fill_order:
    COLAMD's below _MMD_MIN_REFINEMENT refinements, then a postordered
    minimum-degree order): A is factored once with splu as it comes, and
    eigsh runs on K with M and OPinv as bare operators (see _bare_operator):
    its products are M's own @, its solves the splu solve, and neither
    passes through LinearOperator.matvec.  A non-finite eigenvalue raises
    the same NumericalError as a shift beyond the float range.  eigsh sees M
    times a power of four near spread^-2; ncv = 2k + 2 (at least 10, at most
    the DOF count).  The fixed start, a smooth quadratic in the centred and
    scaled vertex coordinates (centred on their mean in construction order)
    plus 0.2 times a normal draw seeded per construction number (a component
    along every eigenvector), makes the result deterministic.  eigsh stops at
    tol = 1e-10: that bounds ARPACK's Ritz estimates relative to their Ritz
    values, and is not what certifies a pair.  Every returned pair (lam, x)
    is checked on its own: a backward error
    ||Kx - lam Mx||_1 / ((||K||_1 + |lam| ||M||_1) ||x||_1), returned as
    residuals, above 1e-8 raises NumericalError.  That error and a missing
    constant mode name the worst-shaped triangle, the usual cause.  solves
    counts the splu solves, 0 when dense.
    """
    if (k := check_int("k", k, 2)) > _MAX_EIGS:
        raise ValueError(f"k must be at most {_MAX_EIGS}, got {k!r}")
    nv = mesh.dof_count  # at most _MAX_DOF: triangulate rejects larger meshes
    if k >= nv:
        raise ValueError(f"k={k} needs a mesh with more than {k} vertices")
    if nv <= _DENSE_MAX_DOF:
        stiffness, mass = _dense(mesh)
    else:
        import scipy.sparse.linalg  # lazy like scipy.sparse in assemble: ~0.1 s
        stiffness, mass = assemble(mesh)  # the module attribute, which tracers wrap
    # _assembled has rejected degenerate meshes, so spread > 0
    order, natural = mesh._pattern.order, np.empty_like(mesh.vertices)
    natural[order] = mesh.vertices  # the mean sums in construction order, whatever the numbering
    center = natural.mean(axis=0)
    offsets = mesh.vertices - center
    x, y = offsets.T
    spread = float(np.sqrt((x * x + y * y).max()))  # the largest distance: sqrt is monotone
    ratio = 1.8412 / spread  # squared as a product: unlike pow, it scales exactly with the mesh
    sigma = -0.2 * (ratio * ratio)
    beyond = f"mu_1 of a mesh of size {spread:.3g} is beyond the float range"
    if sigma == -np.inf:
        raise NumericalError(beyond)
    solves = 0
    if nv <= _DENSE_MAX_DOF:
        try:
            lower = np.linalg.cholesky(stiffness - sigma * mass)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"K - sigma M is not positive definite: {exc}") from exc
        inverse = np.linalg.inv(lower)
        theta, y = np.linalg.eigh(inverse @ mass @ inverse.T)  # theta = 1/(lam - sigma), ascending
        with np.errstate(over="ignore"):  # an overflow is caught below as a non-finite value
            vals, vecs = sigma + 1.0 / theta[::-1][:k], inverse.T @ y[:, ::-1][:, :k]
        k_norm, m_norm = (np.abs(a).sum(axis=0).max() for a in (stiffness, mass))
    else:
        # A = K - sigma M in the pattern's numbering, its fill order: symmetric bit for bit,
        # so its CSR arrays are its CSC arrays
        shifted = scipy.sparse.csc_matrix((stiffness.data - sigma * mass.data, stiffness.indices, stiffness.indptr), shape=(nv, nv))
        lu = scipy.sparse.linalg.splu(shifted, permc_spec="NATURAL")

        def solve(b):
            nonlocal solves
            solves += 1
            return lu.solve(b)

        # ARPACK's stopping test floors Ritz values 1 / (lam - sigma), ~spread^2, at eps^(2/3):
        # M times a power of four near spread^-2 keeps them near 1 and scales lam exactly
        unit = 4.0 ** -round(np.log2(spread))
        x, y = (offsets / spread).T
        v0 = 1.0 + x + 0.7 * y + 0.3 * x * x - 0.2 * x * y + 0.5 * y * y
        v0 += 0.2 * np.random.default_rng(0).standard_normal(nv)[order]  # drawn in construction order
        mass.data *= unit  # exact, and undone below for the residuals
        bare = _bare_operator()
        try:
            vals, vecs = scipy.sparse.linalg.eigsh(
                stiffness,
                k=k,
                M=bare(mass.__matmul__, nv),
                sigma=sigma / unit,
                which="LM",
                v0=v0,
                ncv=min(nv, max(2 * k + 2, 10)),
                maxiter=2000,
                tol=_EIGSH_TOL,
                OPinv=bare(solve, nv),
            )
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise NumericalError(f"eigenvalue iteration did not converge: {exc}") from exc
        mass.data /= unit
        with np.errstate(over="ignore"):
            vals = vals * unit
        # 1-norms as column sums of |a| straight from the CSR arrays, no sparse copy
        k_norm, m_norm = (
            np.bincount(a.indices, weights=np.abs(a.data), minlength=nv).max() for a in (stiffness, mass)
        )
    if not np.isfinite(vals).all():
        raise NumericalError(beyond)
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]

    lam0, lam1 = vals[0], vals[1]
    if not (lam1 > 0.0 and abs(lam0) < 1e-8 * lam1):
        raise NumericalError(
            f"spectrum lacks the constant mode: lambda_0={lam0}, lambda_1={lam1}{_worst_shaped(mesh)}"
        )
    # constants lie exactly in K's kernel (stiffness rows sum to zero), so
    # lam0 is round-off: report 0.0, and check the pair for that value
    vals[0] = 0.0
    residuals = np.abs(stiffness @ vecs - (mass @ vecs) * vals).sum(axis=0) / (
        (k_norm + np.abs(vals) * m_norm) * np.abs(vecs).sum(axis=0)
    )
    worst = int(np.argmax(residuals))  # the first NaN, if any
    if not residuals[worst] <= 1e-8:
        raise NumericalError(f"eigenpair {worst} has backward error {residuals[worst]:.3g} > 1e-8{_worst_shaped(mesh)}")
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

    The mesh mu_1 is a Ritz value whose pair passed the 1e-8 backward-error
    check; the discrete eigenvalue, which it can differ from by about 1e-13
    relative, bounds mu_1 of the mesh polygon from above.  On a polygon spec
    that is the domain, so an applicable bound at or above the mesh mu_1
    disproves the bound (or the metadata it came from) up to that accuracy;
    on a sampler spec it flags a discrepancy with the curved domain, not a
    proof.  With strict=True such a violation raises NumericalError; the
    returned record carries per-bound margins either way.  The bounds come
    from best_bound_report(spec); fem_samples, if given, is the mesh
    boundary's sample count.
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
            margin = entry["margin"] = fem_mu1 - entry["value"]
            entry["satisfied"] = bool(margin > 0.0)
            if margin <= 0.0:
                violations.append(f"{entry['formula']}={entry['value']:.6g} vs fem mu1={fem_mu1:.6g}")

    record = {
        "fem_mu1": fem_mu1,
        "eigenvalues": list(spectrum.eigenvalues),
        "dof_count": spectrum.dof_count,
        "mesh_size": spectrum.mesh_size,
        "refinement": int(refinement),  # triangulate has checked it
        **summary,
        "all_satisfied": not violations,
    }
    if strict and violations:
        raise NumericalError("lower bound exceeds the finite-element eigenvalue: " + "; ".join(violations))
    return record
