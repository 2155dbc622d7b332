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

The refinement oracle walks the mesh one triangle at a time: a dict
numbers each edge midpoint at its first use, and a scalar wrap-around
midpoint places the new boundary vertices on the curve.

The Rayleigh quotient of a nodal P1 function bounds the mesh's mu_1 from
above once the function is M-orthogonal to constants.

The assembly oracle takes each triangle's double area from the vertex
differences of signed_double_areas, its sparsity pattern from a COO-to-CSR
conversion, and each of the nine entries of every element block with
np.add.at, matrix by matrix, so each entry is summed in triangle order.
fem's assemble sums in that order too, but per vertex and per edge, by one
bincount per matrix into the pattern its memo keeps; the same bits show
that the edges, their CSR places and the summation order all agree.  The
eigensolve oracle lets scipy's eigsh build and factor K - sigma M itself,
in its own order, and starts it from a standard normal vector with the
default ncv; fem factors once in a fill order and runs eigsh in it.  The
mesh-size oracle measures the three sides of each triangle as 2-vectors,
where Mesh.mesh_size reads each edge of its pattern once.

The fill-order oracle lets SuperLU pick the sparse route's order on each
mesh's own K - sigma M, values and all, where fem picks it once per fan
pattern on I plus the pattern's graph Laplacian; equal orders show that
the order depends on the sparsity alone.  It postorders the minimum-degree
order from the elimination-tree oracle's tree, not fem's.

The elimination-tree oracle eliminates one vertex at a time on sets:
each vertex's later neighbours become a clique, so its parent is the first
of them and the rest join that parent's neighbours.  It is the symbolic
Cholesky factorization itself, not Liu's path-compressed climb that
fem._etree_postorder uses, and it checks a postorder the scalar way: every
vertex before its parent, and each subtree a contiguous run that ends at
its root.  Its postorder walks the tree from the roots with an explicit
stack of child lists, children in ascending order.

bessel_j is scipy.special.jv behind the package's argument checks, for
the tests that check p_zero's equation and J's own identities; the package
itself calls jv only inside p_zero's scan.  quasi_monotonicity_upper is
extension_ball_bound's inequality read the other way round, an upper bound
the acceptance tests check the finite-element eigenvalues against.
quasidisc_bound is extension_ball_bound with the quasidisc norm (1+K)^2 in
the plane, the value best_bound_report lists as "quasidisc", for the tests
that check it against the star-shape formula and the bowtie's figures.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from scipy.spatial.distance import cdist

from neubound import bounds, fem, geometry
from neubound.errors import NumericalError, check_real
from neubound.extension_norms import quasidisc_norm_sq


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


def rayleigh_quotient(mesh, nodal_values) -> float:
    """Gradient-energy over mass quotient u^T K u / u^T M u of a P1 function.

    After M-orthogonalizing against constants, the quotient of any nonzero
    u is an upper bound for the mesh's mu_1; for raw u it is 0 exactly
    when u is constant.
    """
    u = np.asarray(nodal_values, dtype=float)
    if u.shape != (mesh.dof_count,):
        raise ValueError(
            f"nodal_values must have shape ({mesh.dof_count},), got {u.shape}"
        )
    if not np.all(np.isfinite(u)):
        raise ValueError("nodal_values must be finite")
    stiffness, mass = fem.assemble(mesh)
    denom = float(u @ (mass @ u))
    if denom <= 0.0:
        raise ValueError("nodal_values is (numerically) the zero function")
    return float(u @ (stiffness @ u)) / denom


def scalar_triangulate(spec, refinement: int):
    """fem.triangulate's fan and refinement, one triangle at a time.

    Returns (vertices, triangles, boundary).  Builds the fan with a list
    comprehension and the boundary parameters as a dict, resolves the
    anchor and the sampler mesh resolution the way fem.triangulate does by
    default, and skips its validation and degeneracy checks.
    """
    samples = None
    if spec.samples is not None:  # a sampler
        samples = min(spec.samples, fem._SAMPLER_MESH_BOUNDARY)
    points, params, curve = geometry.boundary_loop(spec, samples)
    m = len(points)
    anchor = spec.anchor
    if anchor is None:
        anchor = points.mean(axis=0) if spec.kind == "polygon" else np.zeros(2)
    anchor = np.asarray(anchor, dtype=float)

    vertices = np.vstack([anchor[None, :], points])
    triangles = np.array(
        [[0, 1 + i, 1 + (i + 1) % m] for i in range(m)], dtype=np.int64
    )
    boundary = np.zeros(len(vertices), dtype=bool)
    boundary[1:] = True
    s_param = {1 + i: float(params[i]) for i in range(m)}
    for _ in range(refinement):
        vertices, triangles, boundary, s_param = _refine_once(
            vertices, triangles, boundary, s_param, curve
        )
    return vertices, triangles, boundary


def _wrap_midpoint(s_a: float, s_b: float) -> float:
    gap = (s_b - s_a) % 1.0
    if gap > 0.5:
        s_a, s_b = s_b, s_a
        gap = (s_b - s_a) % 1.0
    return (s_a + 0.5 * gap) % 1.0


def _refine_once(vertices, triangles, boundary, s_param, curve):
    new_vertices = [vertices]
    boundary_flags = list(boundary)
    next_index = len(vertices)
    midpoint_of: dict[tuple[int, int], int] = {}
    new_points: list[np.ndarray] = []
    arc_rows: list[int] = []  # rows of new_points placed on the curve at arc_s
    arc_s: list[float] = []
    new_s: dict[int, float] = dict(s_param)

    def midpoint(a: int, b: int) -> int:
        nonlocal next_index
        key = (a, b) if a < b else (b, a)
        found = midpoint_of.get(key)
        if found is not None:
            return found
        if boundary[a] and boundary[b]:
            # an edge between boundary vertices is a boundary arc by fan
            # construction; track the exact curve
            s_mid = _wrap_midpoint(new_s[a], new_s[b])
            arc_rows.append(len(new_points))
            arc_s.append(s_mid)
            boundary_flags.append(True)
            new_s[next_index] = s_mid
        else:
            boundary_flags.append(False)
        new_points.append(0.5 * (vertices[a] + vertices[b]))
        midpoint_of[key] = next_index
        next_index += 1
        return next_index - 1

    children = np.empty((4 * len(triangles), 3), dtype=np.int64)
    for i, (v0, v1, v2) in enumerate(triangles):
        m01 = midpoint(int(v0), int(v1))
        m12 = midpoint(int(v1), int(v2))
        m20 = midpoint(int(v2), int(v0))
        children[4 * i] = (v0, m01, m20)
        children[4 * i + 1] = (v1, m12, m01)
        children[4 * i + 2] = (v2, m20, m12)
        children[4 * i + 3] = (m01, m12, m20)

    if new_points:
        points = np.vstack(new_points)
        if arc_rows:
            points[arc_rows] = curve(np.array(arc_s))
        new_vertices.append(points)
    return (
        np.vstack(new_vertices),
        children,
        np.array(boundary_flags, dtype=bool),
        new_s,
    )


def signed_double_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p0 = vertices[triangles[:, 0]]
    u = vertices[triangles[:, 1]] - p0
    w = vertices[triangles[:, 2]] - p0
    return u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0]


def two_pass_assemble(mesh):
    """Stiffness and consistent mass matrices (CSR) for P1 elements."""
    import scipy.sparse
    v, t = mesh.vertices, mesh.triangles
    if t.ndim != 2 or t.shape[1] != 3 or len(t) == 0:
        raise ValueError("mesh has no triangles")
    double_area = signed_double_areas(v, t)
    width, height = v.max(axis=0) - v.min(axis=0)
    bad = np.nonzero(double_area <= fem._MIN_TRIANGLE_DOUBLE_AREA * width * height)[0]
    if len(bad):
        raise NumericalError(f"triangle {int(bad[0])} has non-positive area")

    p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    b = np.stack([p1[:, 1] - p2[:, 1], p2[:, 1] - p0[:, 1], p0[:, 1] - p1[:, 1]], axis=1)
    c = np.stack([p2[:, 0] - p1[:, 0], p0[:, 0] - p2[:, 0], p1[:, 0] - p0[:, 0]], axis=1)
    k_local = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (
        2.0 * double_area
    )[:, None, None]
    m_pattern = (np.ones((3, 3)) + np.eye(3)) / 24.0
    m_local = double_area[:, None, None] * m_pattern[None, :, :]

    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    nv = len(v)
    # the pattern from a COO -> CSR conversion; each entry then summed by np.add.at, in triangle order
    pattern = scipy.sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(nv, nv)).tocsr()
    keys = np.repeat(np.arange(nv), np.diff(pattern.indptr)) * nv + pattern.indices
    slots = np.searchsorted(keys, rows * nv + cols)
    matrices = []
    for local in (k_local, m_local):
        data = np.zeros(len(keys))
        np.add.at(data, slots, local.ravel())
        matrices.append(scipy.sparse.csr_matrix((data, pattern.indices, pattern.indptr), shape=(nv, nv)))
    return tuple(matrices)


def scipy_shift_invert_eigenvalues(mesh, k: int) -> np.ndarray:
    """The k smallest Neumann eigenvalues, ascending, from eigsh's own
    sigma-shifted factorization, a random start and the default ncv."""
    import scipy.sparse.linalg

    nv = mesh.dof_count
    stiffness, mass = two_pass_assemble(mesh)

    center = mesh.vertices.mean(axis=0)
    spread = float(np.linalg.norm(mesh.vertices - center, axis=1).max())
    sigma = -0.2 * (1.8412 / max(spread, 1e-9)) ** 2
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(nv)
    vals = scipy.sparse.linalg.eigsh(
        stiffness,
        k=k,
        M=mass,
        sigma=sigma,
        which="LM",
        v0=v0,
        maxiter=2000,
        return_eigenvectors=False,
    )
    return np.sort(np.asarray(vals, dtype=float))[:k]


def spilu_fill_order(mesh, refinement: int) -> np.ndarray:
    """The sparse route's fill order, new-to-old, as SuperLU picks it on the mesh's own
    K - sigma M: COLAMD's, or from fem._MMD_MIN_REFINEMENT refinements on the minimum-
    degree order of A + A^T, postordered by etree_postorder of elimination_tree."""
    import scipy.sparse
    import scipy.sparse.linalg

    stiffness, mass = two_pass_assemble(mesh)  # one pattern: the same indices and indptr
    spread = float(np.linalg.norm(mesh.vertices - mesh.vertices.mean(axis=0), axis=1).max())
    sigma = -0.2 * (1.8412 / spread) ** 2
    shifted = scipy.sparse.csc_matrix((stiffness.data - sigma * mass.data, stiffness.indices, stiffness.indptr))
    refined = refinement >= fem._MMD_MIN_REFINEMENT
    spec = "MMD_AT_PLUS_A" if refined else "COLAMD"
    order = np.argsort(scipy.sparse.linalg.spilu(shifted, drop_tol=1.0, fill_factor=1.0, permc_spec=spec).perm_c)
    if refined:  # the tree of M's pattern, whose entries are all nonzero (K's can be 0)
        order = order[etree_postorder(elimination_tree(mass, order))]
    return order


def elimination_tree(pattern, order) -> list[int]:
    """The parent of each vertex, -1 at a root, in the elimination tree of the
    symmetric sparse pattern renumbered by order (new-to-old)."""
    position = {int(old): new for new, old in enumerate(order)}
    rows, cols = pattern.nonzero()
    later = [set() for _ in order]  # each vertex's neighbours eliminated after it
    for i, j in zip(rows.tolist(), cols.tolist()):
        a, b = position[i], position[j]
        if a < b:
            later[a].add(b)
    parent = []
    for v, up in enumerate(later):
        parent.append(min(up, default=-1))
        if up:
            later[parent[v]] |= up - {parent[v]}
    return parent


def etree_postorder(parent: list[int]) -> list[int]:
    """A postorder of the forest parent (-1 at a root): each vertex after its
    children, taken in ascending order from ascending roots."""
    children = [[] for _ in range(len(parent) + 1)]  # the last list: the roots
    for v, p in enumerate(parent):
        children[p].append(v)
    postorder, stack = [], [(-1, iter(children[-1]))]
    while stack:
        v, rest = stack[-1]
        c = next(rest, None)
        if c is None:
            postorder.append(stack.pop()[0])
        else:
            stack.append((c, iter(children[c])))
    return postorder[:-1]  # the virtual root -1 comes last


def is_postorder(parent: list[int]) -> bool:
    """Whether each vertex precedes its parent and every subtree is contiguous."""
    size, first = [1] * len(parent), list(range(len(parent)))
    for v, p in enumerate(parent):
        if p == -1:
            continue
        if p <= v:
            return False
        size[p] += size[v]
        first[p] = min(first[p], first[v])
    # the descendants of v all precede it, so v's run is [first[v], v] exactly when it holds size[v] items
    return all(v - first[v] + 1 == size[v] for v in range(len(parent)))


def three_side_mesh_size(mesh) -> float:
    """Longest triangle side, from each triangle's three sides as 2-vectors."""
    v, t = mesh.vertices, mesh.triangles
    edges = v[t[:, [1, 2, 0]]] - v[t]  # (nt, 3, 2): edges 01, 12, 20
    return float(np.sqrt((edges * edges).sum(axis=2).max()))


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind J_nu(x), nu >= 0, x >= 0."""
    from scipy.special import jv

    return float(jv(check_real("order", nu, 0), check_real("x", x, 0)))


def quasi_monotonicity_upper(mu1_inner: float, norm_sq: float) -> float:
    """Upper bound mu_1(outer) <= ||E||^2 mu_1(inner) for an extending pair.

    Here `inner` is the domain the extension leaves and `outer` any
    Lipschitz domain the extension lands in; enlarging a domain can raise
    mu_1 by at most the energy factor of the extension.
    """
    return check_real("mu1_inner", mu1_inner, 0) * check_real("norm_sq", norm_sq, 1)


def quasidisc_bound(k: float, radius: float) -> float:
    """Planar K-quasidisc inside a disc of radius R: mu_1 >= (p_1/R)^2 / (1+K)^2."""
    return bounds.extension_ball_bound(quasidisc_norm_sq(k).value_sq, radius, 2)
