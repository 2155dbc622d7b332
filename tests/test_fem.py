"""Meshing, P1 assembly, and the Neumann eigenvalue solver."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from neubound import cli, fem, geometry
from neubound.errors import NumericalError
from oracles import (
    construction_numbered,
    elimination_tree,
    etree_postorder,
    is_postorder,
    rayleigh_quotient,
    relabelling_eigensolve,
    scalar_triangulate,
    scipy_shift_invert_eigenvalues,
    spilu_fill_order,
    three_side_mesh_size,
    two_pass_assemble,
)

_SQUARE_SPEC = {
    "kind": "polygon",
    "vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
    "name": "square",
    "convex": True,
}


def _square(refinement=0, samples=None):
    return fem.triangulate(
        geometry.load_domain_spec(_SQUARE_SPEC), refinement=refinement, samples=samples
    )


def test_reference_triangle_matrices():
    # on the assembly oracle, which reads only vertices and triangles; fem's assemble
    # matches the oracle bit for bit (test_assembly_matches_two_pass_oracle)
    mesh = SimpleNamespace(vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), triangles=np.array([[0, 1, 2]]))
    stiffness, mass = two_pass_assemble(mesh)
    k_want = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    m_want = (1.0 / 24.0) * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    assert np.allclose(stiffness.toarray(), k_want, atol=1e-14)
    assert np.allclose(mass.toarray(), m_want, atol=1e-16)


def test_stiffness_annihilates_constants_and_mass_sums_to_area():
    for spec_name, refinement, area in (("unit_disc", 2, None), ("bowtie", 3, 1.0)):
        spec = geometry.named_domain(spec_name)
        mesh = fem.triangulate(spec, refinement=refinement)
        stiffness, mass = fem.assemble(mesh)
        ones = np.ones(mesh.dof_count)
        assert np.max(np.abs(stiffness @ ones)) < 1e-12
        total_mass = float(ones @ (mass @ ones))
        if area is not None:
            assert total_mass == pytest.approx(area, rel=1e-12)
        else:
            # inscribed polygon of the disc: below pi, converging to it
            assert total_mass < math.pi
            assert total_mass == pytest.approx(math.pi, rel=1e-2)


def test_rigid_motion_invariance():
    mesh = _square(refinement=2)
    base = fem.neumann_eigenvalues(mesh, k=4).eigenvalues
    theta = 1.1
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    moved = dataclasses.replace(mesh, vertices=mesh.vertices @ rot.T + np.array([3.0, -7.0]))
    shifted = fem.neumann_eigenvalues(moved, k=4).eigenvalues
    assert np.allclose(base, shifted, rtol=1e-9, atol=1e-10)


def test_spectrum_shape_and_constant_mode():
    result = fem.neumann_eigenvalues(_square(refinement=3), k=5)
    vals = np.asarray(result.eigenvalues)
    assert len(vals) == 5
    assert vals[0] == 0.0  # the constant mode, not its round-off
    assert np.all(np.diff(vals) >= -1e-12)
    # square eigenvalues approach pi^2 (twice) then 2 pi^2
    assert vals[1] == pytest.approx(math.pi**2, rel=2e-2)
    assert vals[2] == pytest.approx(math.pi**2, rel=2e-2)
    assert vals[3] == pytest.approx(2.0 * math.pi**2, rel=4e-2)


def test_square_convergence_is_monotone():
    mu = [
        fem.neumann_eigenvalues(_square(refinement=r), k=2).eigenvalues[1]
        for r in range(1, 5)
    ]
    assert all(a > b for a, b in zip(mu, mu[1:]))
    assert all(value > math.pi**2 for value in mu)  # conforming upper bounds


# (name, boundary points, refinement): the bowtie ladder and unit_disc/12 at
# r = 0..4 span 7..1,633 unknowns; the rest bracket _DENSE_MAX_DOF, with
# the verify workload's r2 rungs of 121 and 141 unknowns
_SOLVER_MESHES = [
    *(("bowtie", None, r) for r in range(5)),
    *(("unit_disc", 12, r) for r in range(5)),
    ("unit_disc", 14, 2),
    ("unit_disc", 42, 1),
    ("unit_disc", 43, 1),
    ("unit_disc", fem._DENSE_MAX_DOF - 1, 0),
    ("unit_disc", fem._DENSE_MAX_DOF, 0),
]


def _solver_mesh(name, samples, refinement):
    return fem.triangulate(geometry.named_domain(name), refinement=refinement, samples=samples)


def test_dense_and_sparse_solvers_agree():
    # generalized eigh as the oracle for both routes, on either side of
    # the dense threshold
    dofs = set()
    for case in _SOLVER_MESHES:
        mesh = _solver_mesh(*case)
        dofs.add(mesh.dof_count)
        stiffness, mass = fem.assemble(mesh)
        dense = scipy.linalg.eigh(
            stiffness.toarray(), mass.toarray(), subset_by_index=[0, 3], eigvals_only=True
        )
        sparse = fem.neumann_eigenvalues(mesh, k=4).eigenvalues
        assert np.allclose(dense, sparse, rtol=1e-8, atol=1e-9), case
    assert {121, 141, fem._DENSE_MAX_DOF, fem._DENSE_MAX_DOF + 1} <= dofs
    assert 121 <= fem._DENSE_MAX_DOF < 141


# the dense route's meshes among _SOLVER_MESHES: 7 to 128 unknowns
_DENSE_MESHES = [("bowtie", None, r) for r in range(3)] + [
    ("unit_disc", 12, 0), ("unit_disc", 12, 1), ("unit_disc", 12, 2), ("unit_disc", 42, 1),
    ("unit_disc", fem._DENSE_MAX_DOF - 1, 0),
]


@pytest.mark.parametrize("case", _DENSE_MESHES, ids=lambda c: f"{c[0]}/{c[1]}/r{c[2]}")
def test_the_dense_route_solves_the_matrices_assemble_makes(case, monkeypatch):
    # one assembly for both routes: the dense route's K and M are assemble's, densified, bit for bit
    mesh = _solver_mesh(*case)
    assert 7 <= mesh.dof_count <= fem._DENSE_MAX_DOF
    seen = []

    def recorded(mesh, _original=fem._dense):
        seen.append(_original(mesh))
        return seen[-1]

    monkeypatch.setattr(fem, "_dense", recorded)
    fem.neumann_eigenvalues(mesh, k=4)
    (dense,) = seen
    for got, want in zip(dense, fem.assemble(mesh)):
        assert np.array_equal(got, want.toarray())


def _both_routes(mesh, monkeypatch, k=4):
    """neumann_eigenvalues with every mesh on the dense route, then on the sparse one."""
    results = []
    for threshold in (fem._MAX_DOF, 0):
        monkeypatch.setattr(fem, "_DENSE_MAX_DOF", threshold)
        results.append(fem.neumann_eigenvalues(mesh, k=k))
    return results


@pytest.mark.parametrize(
    "case", [c for c in _SOLVER_MESHES if c[2] <= 3], ids=lambda c: f"{c[0]}/{c[1]}/r{c[2]}"
)
def test_forced_routes_agree(case, monkeypatch):
    # each route on the same meshes (7..433 unknowns) by moving the threshold
    dense, sparse = _both_routes(_solver_mesh(*case), monkeypatch)
    assert dense.solves == 0 < sparse.solves
    assert dense.eigenvalues[0] == sparse.eigenvalues[0] == 0.0
    assert np.allclose(dense.eigenvalues[1:], sparse.eigenvalues[1:], rtol=1e-12, atol=0.0)
    assert max(dense.residuals) <= 1e-12


# near-coincident vertex angles give slivers that cost an unshifted dense
# solve its constant mode (lambda_0 ~ 1.5e-7 at 325 unknowns); both routes
# solve about a negative shift and keep it
_THIN_FAN = {
    "kind": "polygon",
    "vertices": [
        [1.6018193197749238, 1.2582468217679432],
        [1.562276206756139, 1.416081330404638],
        [1.2887317742106053, 1.9467743264270996],
        [1.2851603842321575, 1.9754096913144008],
        [1.1802551687915739, 2.0230430975572817],
        [0.3447201646046596, 1.7899516270356726],
        [0.45530130608774255, 1.7369737762788522],
        [0.46961938179077045, 0.9715450302516109],
        [1.1701666147462335, 0.7367124930054245],
    ],
    "anchor": [1.0638629464477578, 1.4491459906237516],
}


def test_thin_fan_keeps_the_constant_mode():
    mesh = fem.triangulate(geometry.load_domain_spec(_THIN_FAN), refinement=3)
    assert mesh.dof_count == 325
    lam0, lam1 = fem.neumann_eigenvalues(mesh, k=4).eigenvalues[:2]
    assert abs(lam0) <= 1e-8 * lam1
    assert lam1 == pytest.approx(8.981154423, rel=1e-8)


@pytest.mark.parametrize("refinement, dof", [(0, 10), (1, 28), (2, 91)])
def test_thin_fan_keeps_the_constant_mode_on_the_dense_route(refinement, dof, monkeypatch):
    # the solve raises NumericalError unless |lambda_0| < 1e-8 lambda_1
    mesh = fem.triangulate(geometry.load_domain_spec(_THIN_FAN), refinement=refinement)
    assert mesh.dof_count == dof <= fem._DENSE_MAX_DOF
    dense = fem.neumann_eigenvalues(mesh, k=4)
    assert dense.solves == 0 and dense.eigenvalues[0] == 0.0
    sparse = _both_routes(mesh, monkeypatch)[1]
    assert dense.eigenvalues[1] == pytest.approx(sparse.eigenvalues[1], rel=1e-12, abs=0.0)


def test_boundary_vertices_are_tracked():
    mesh = _square(refinement=2)
    # boundary vertices of the unit square sit on its edges
    on_edge = (
        np.isclose(mesh.vertices[:, 0], 0.0)
        | np.isclose(mesh.vertices[:, 0], 1.0)
        | np.isclose(mesh.vertices[:, 1], 0.0)
        | np.isclose(mesh.vertices[:, 1], 1.0)
    )
    assert np.array_equal(mesh.boundary, on_edge)


def test_edges_between_boundary_vertices_are_boundary_edges():
    # if this fails, refinement has glued a chord across the domain
    for name in ("unit_disc", "bowtie", "tan_disc"):
        mesh = fem.triangulate(geometry.named_domain(name), refinement=2, samples=48)
        edge_count: dict[tuple[int, int], int] = {}
        for tri in mesh.triangles:
            for a, b in ((0, 1), (1, 2), (2, 0)):
                key = tuple(sorted((int(tri[a]), int(tri[b]))))
                edge_count[key] = edge_count.get(key, 0) + 1
        for (va, vb), count in edge_count.items():
            if mesh.boundary[va] and mesh.boundary[vb]:
                assert count == 1, f"{name}: interior chord between boundary vertices"


def _rotated_rectangle():
    c, s = math.cos(0.7), math.sin(0.7)
    corners = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 0.5], [0.0, 0.5]])
    return {"kind": "polygon", "vertices": (corners @ [[c, s], [-s, c]]).tolist()}


def _random_star_polygon():
    rng = np.random.default_rng(20171016)
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, 13))
    radii = rng.uniform(0.4, 1.6, 13)
    center = np.array([0.3, -1.2])
    vertices = center + radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return {"kind": "polygon", "vertices": vertices.tolist(), "anchor": center.tolist()}


_ORACLE_SPECS = {
    **{name: geometry.named_domain(name) for name in geometry.preset_names()},
    "rotated_rectangle": geometry.load_domain_spec(_rotated_rectangle()),
    "equilateral_triangle": geometry.load_domain_spec(
        {"kind": "polygon", "vertices": [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(0.75)]]}
    ),
    "random_star": geometry.load_domain_spec(_random_star_polygon()),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_SPECS))
def test_refinement_matches_scalar_oracle(name):
    """Array refinement reproduces the triangle-by-triangle loop bit for bit.

    Same fan, then r = 0..5 levels while the mesh stays within the solver's
    DOF cap: vertices, triangles (midpoints numbered by first use) and the
    boundary mask, read in construction numbering, must be equal, not close.
    A mesh keeps that numbering up to _DENSE_MAX_DOF unknowns and takes its
    pattern's fill order above.  The last boundary arc of every
    loop crosses the parameter seam (s = (m-1)/m -> 0), so the wrap-around
    of the arc midpoint is covered.  The oracle's swap branch (a parameter
    gap above 1/2) is never taken: children keep their parent's edge
    directions, so every arc is met in the loop's direction, and no fan arc
    spans half the parameter range.
    """
    spec = _ORACLE_SPECS[name]
    for refinement in range(6):
        try:
            mesh = fem.triangulate(spec, refinement=refinement)
        except ValueError as exc:  # above the DOF cap, rejected before refining
            assert "unknowns" in str(exc) and refinement >= 4  # every spec is checked on refined meshes
            break
        vertices, triangles, boundary = scalar_triangulate(spec, refinement)
        natural = construction_numbered(mesh)
        assert np.array_equal(natural.vertices, vertices)
        assert np.array_equal(natural.triangles, triangles)
        assert mesh.triangles.dtype == np.int32
        assert np.array_equal(natural.boundary, boundary)
        identity = np.array_equal(mesh._pattern.order, np.arange(mesh.dof_count))
        assert identity == (mesh.dof_count <= fem._DENSE_MAX_DOF)


_ASSEMBLY_CASES = [
    *((name, r) for name in geometry.preset_names() for r in range(4)),
    ("thin_fan", 3),
    ("bowtie", 5),
    ("unit_disc/34", 5),  # 34 boundary points: 17,953 unknowns, near the cap
]


@pytest.mark.parametrize("name, refinement", _ASSEMBLY_CASES)
def test_assembly_matches_two_pass_oracle(name, refinement):
    # one bincount per matrix into the memo's pattern sums as np.add.at does, in triangle order
    name, _, samples = name.partition("/")
    spec = geometry.load_domain_spec(_THIN_FAN) if name == "thin_fan" else geometry.named_domain(name)
    mesh = fem.triangulate(spec, refinement=refinement, samples=int(samples) if samples else None)
    if samples:
        assert mesh.dof_count == 17_953
    for got, want in zip(fem.assemble(mesh), two_pass_assemble(mesh)):
        assert np.array_equal(got.data, want.data)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.indptr, want.indptr)


@pytest.mark.parametrize("name", sorted(_ORACLE_SPECS))
def test_eigenvalues_match_scipy_shift_invert_oracle(name):
    """The factor-once solve with its seeded smooth start and ncv = 2k + 2
    finds the eigenvalues eigsh finds with its own factorization, a random
    start and the default ncv.  eigenvalues[0] is ~0 and carries only
    roundoff, so only eigenvalues[1:] are compared, relatively.  Fans refined
    at least _MMD_MIN_REFINEMENT times (r4 here) take the minimum-degree fill
    order, the rest COLAMD's."""
    for refinement in range(1, 5):
        mesh = fem.triangulate(_ORACLE_SPECS[name], refinement=refinement)
        for k in (2, 4, 6):
            got = np.array(fem.neumann_eigenvalues(mesh, k=k).eigenvalues)
            want = scipy_shift_invert_eigenvalues(mesh, k)
            assert np.allclose(got[1:], want[1:], rtol=1e-12, atol=0.0), (refinement, k)


_DOUBLE_MU1 = {"unit_disc": 1.8411837813406593**2, "square": math.pi**2}


@pytest.mark.parametrize("name", sorted(_DOUBLE_MU1))
@pytest.mark.parametrize("boundary", [12, 34])
def test_double_eigenvalues_are_returned_twice(name, boundary):
    """Stopping at tol = 1e-10 loses no copy of a double eigenvalue: the
    disc's mu_1 and the square's pi^2 each appear twice, and the whole list
    matches the tol = 0 oracle, at the verify workload's smallest and
    largest boundary sizes."""
    spec = geometry.load_domain_spec(_SQUARE_SPEC if name == "square" else name)
    target = _DOUBLE_MU1[name]
    for refinement in range(1, 4):
        mesh = fem.triangulate(spec, refinement=refinement, samples=boundary)
        for k in (4, 10):
            got = np.array(fem.neumann_eigenvalues(mesh, k=k).eigenvalues)
            want = scipy_shift_invert_eigenvalues(mesh, k)
            assert np.allclose(got[1:], want[1:], rtol=1e-12, atol=0.0), (refinement, k)
            near = got[np.abs(got - target) < 0.1 * target]
            assert len(near) == 2, (refinement, k, got)


# k = 4 solve counts plus a slack of 2; measured 23, 22 and 22 (42, 27 and
# 28 when ARPACK iterated to machine epsilon)
_SOLVE_BUDGET = [("unit_disc", 4, 24, 25), ("bowtie", 5, None, 24), ("random_star", 4, None, 24)]


@pytest.mark.parametrize("name, refinement, samples, budget", _SOLVE_BUDGET)
def test_solve_count_stays_within_budget(name, refinement, samples, budget):
    mesh = fem.triangulate(_ORACLE_SPECS[name], refinement=refinement, samples=samples)
    solves = fem.neumann_eigenvalues(mesh, k=4).solves
    assert 0 < solves <= budget


def test_solve_count_is_bounded_by_the_iteration_cap():
    mesh = _square(refinement=3)
    assert mesh.dof_count > fem._DENSE_MAX_DOF  # the sparse route
    for k in (2, 6, 10):
        solves = fem.neumann_eigenvalues(mesh, k=k).solves
        assert 0 < solves <= 2000 * (2 * k + 2)  # maxiter * ncv


def test_the_dense_route_makes_no_solves():
    mesh = _square(refinement=2)
    assert mesh.dof_count <= fem._DENSE_MAX_DOF
    for k in (2, 6, 10):
        assert fem.neumann_eigenvalues(mesh, k=k).solves == 0


@pytest.mark.parametrize("name", sorted(_ORACLE_SPECS))
def test_mesh_size_matches_three_side_oracle(name):
    for refinement in range(4):
        mesh = fem.triangulate(_ORACLE_SPECS[name], refinement=refinement)
        assert mesh.mesh_size == three_side_mesh_size(mesh)


def test_curved_boundary_vertices_stay_on_circle():
    mesh = fem.triangulate(geometry.named_domain("unit_disc"), refinement=3, samples=24)
    radii = np.linalg.norm(mesh.vertices[mesh.boundary], axis=1)
    assert np.allclose(radii, 1.0, atol=1e-12)
    assert int(mesh.boundary.sum()) == 24 * 2**3


def test_disc_convergence_is_monotone():
    spec = geometry.named_domain("unit_disc")
    mu = [
        fem.neumann_eigenvalues(fem.triangulate(spec, refinement=r), k=2).eigenvalues[1]
        for r in range(0, 4)
    ]
    assert all(a > b for a, b in zip(mu, mu[1:]))


def test_non_star_anchor_is_reported():
    spec = geometry.named_domain("bowtie", anchor=(0.0, 0.0))
    with pytest.raises(NumericalError, match="star-shaped"):
        fem.triangulate(spec)


def test_triangulate_validation():
    spec = geometry.load_domain_spec(_SQUARE_SPEC)
    with pytest.raises(ValueError):
        fem.triangulate(spec, refinement=-1)
    with pytest.raises(ValueError):
        fem.triangulate(spec, refinement=99)
    with pytest.raises(ValueError, match="anchor"):
        geometry.load_domain_spec({**_SQUARE_SPEC, "anchor": [float("nan"), 0.0]})


@pytest.mark.parametrize("name", ["bowtie", "unit_disc"])
def test_refinement_limits_predict_the_unknowns(name, monkeypatch):
    # triangulate predicts the first level above the solver's cap from the
    # fan: its count is the last mesh's V + E, with E = V + T - 1 (Euler for
    # a disc), and it is rejected before refining, also from verify_bound
    spec = geometry.named_domain(name)
    for refinement in range(fem._MAX_REFINEMENT + 1):
        try:
            mesh = fem.triangulate(spec, refinement=refinement)
        except ValueError as exc:
            message = str(exc)
            break
    assert refinement >= 4
    nv, nt = mesh.dof_count, len(mesh.triangles)
    assert message == f"mesh has {2 * nv + nt - 1} unknowns, above the supported {fem._MAX_DOF}"
    assert nv <= fem._MAX_DOF < 2 * nv + nt - 1
    monkeypatch.setattr(fem, "_edges", lambda *a: pytest.fail("refined a rejected mesh"))
    with pytest.raises(ValueError) as exc:
        fem.verify_bound(spec, refinement=refinement)
    assert str(exc.value) == message
    with pytest.raises(ValueError, match="unknowns, above the supported"):
        fem.verify_bound(spec, refinement=fem._MAX_REFINEMENT)
    with pytest.raises(ValueError, match=r"refinement must be an integer in \[0, 8\], got 9"):
        fem.triangulate(spec, 9)


def test_eigen_solver_validation():
    mesh = _square(refinement=1)
    with pytest.raises(ValueError):
        fem.neumann_eigenvalues(mesh, k=1)
    with pytest.raises(ValueError):
        fem.neumann_eigenvalues(mesh, k=11)
    with pytest.raises(ValueError, match="k=5 needs a mesh with more than 5 vertices"):
        fem.neumann_eigenvalues(_square(refinement=0), k=5)


def test_eigenpairs_carry_small_backward_errors():
    for name, refinement in (("unit_disc", 3), ("bowtie", 4)):
        mesh = fem.triangulate(geometry.named_domain(name), refinement=refinement)
        result = fem.neumann_eigenvalues(mesh, k=4)
        assert len(result.residuals) == 4
        assert all(0.0 <= r <= 1e-12 for r in result.residuals), result.residuals


def _fem_cli_exits_2(refinement, message):
    argv = ["fem", "--domain", "bowtie", "--refinement", str(refinement)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        assert cli.main(argv) == 2
    assert message in err.getvalue()


# the sparse route's faults on meshes above _DENSE_MAX_DOF: the unit square
# at r3 has 145 unknowns and the bowtie at r3 217; the dense route's twins
# below use the square at r2 (41) and the bowtie at r2 (61)
def test_a_large_backward_error_is_a_numerical_error(monkeypatch):
    # eigenvectors spoiled after ARPACK returns must fail the residual check
    import scipy.sparse.linalg

    eigsh = scipy.sparse.linalg.eigsh

    def spoiled(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        return vals, vecs + 1e-3 * np.random.default_rng(1).standard_normal(vecs.shape)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spoiled)
    # the message names the worst-shaped triangle; the square's are all half squares
    with pytest.raises(NumericalError, match=r"backward error .*; triangle 0 is the worst shaped, its longest edge 2 times"):
        fem.neumann_eigenvalues(_square(refinement=3), k=4)
    _fem_cli_exits_2(3, "backward error")


def test_a_missing_constant_mode_is_a_numerical_error(monkeypatch):
    # a spectrum that skips the constant pair must fail the constant-mode
    # check before lambda_0 is reported as 0.0
    import scipy.sparse.linalg

    eigsh = scipy.sparse.linalg.eigsh

    def without_constant(*args, k, **kwargs):
        vals, vecs = eigsh(*args, k=k + 1, **kwargs)
        keep = np.argsort(vals)[1:]
        return vals[keep], vecs[:, keep]

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", without_constant)
    with pytest.raises(NumericalError, match="constant mode"):
        fem.neumann_eigenvalues(_square(refinement=3), k=4)
    _fem_cli_exits_2(3, "constant mode")


def test_a_large_backward_error_on_the_dense_route_is_a_numerical_error(monkeypatch):
    eigh = np.linalg.eigh

    def spoiled(a):
        theta, y = eigh(a)
        return theta, y + 1e-3 * np.random.default_rng(1).standard_normal(y.shape)

    monkeypatch.setattr(np.linalg, "eigh", spoiled)
    with pytest.raises(NumericalError, match="backward error"):
        fem.neumann_eigenvalues(_square(refinement=2), k=4)
    _fem_cli_exits_2(2, "backward error")


def test_a_missing_constant_mode_on_the_dense_route_is_a_numerical_error(monkeypatch):
    # theta = 1 / (lambda - sigma) is largest for the constant mode
    eigh = np.linalg.eigh

    def without_constant(a):
        theta, y = eigh(a)
        return theta[:-1], y[:, :-1]

    monkeypatch.setattr(np.linalg, "eigh", without_constant)
    with pytest.raises(NumericalError, match="constant mode"):
        fem.neumann_eigenvalues(_square(refinement=2), k=4)
    _fem_cli_exits_2(2, "constant mode")
    # at side 1e5 every lambda is near 1e-9: the check is relative to lambda_1,
    # so the stripped spectrum fails it, and not only the backward-error check
    spec = geometry.load_domain_spec({"kind": "polygon", "vertices": [[0, 0], [1e5, 0], [1e5, 1e5], [0, 1e5]]})
    with pytest.raises(NumericalError, match="spectrum lacks the constant mode"):
        fem.neumann_eigenvalues(fem.triangulate(spec, refinement=2), k=4)


def test_a_failed_cholesky_factorization_is_a_numerical_error(monkeypatch):
    def not_positive_definite(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
    with pytest.raises(NumericalError, match="not positive definite"):
        fem.neumann_eigenvalues(_square(refinement=2), k=4)
    _fem_cli_exits_2(2, "not positive definite")


def test_degenerate_triangle_is_named():
    # the square's fan with its anchor moved onto the first edge: fan triangle 0 is flat
    square = _square()
    mesh = dataclasses.replace(square, vertices=np.vstack([[0.5, 0.0], square.vertices[1:]]))
    for solve in (fem.assemble, lambda m: fem.neumann_eigenvalues(m, k=2)):
        with pytest.raises(NumericalError, match="^triangle 0 is inverted or degenerate$"):
            solve(mesh)


def test_a_triangle_flattened_by_refinement_is_named_by_the_solve():
    # the fan passes its check, but refinement quarters the sliver at the 1e-13 edge;
    # triangulate leaves the refined triangles to the one check in the assembly
    spec = geometry.load_domain_spec(
        {"kind": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [1e-13, 1], [0, 1]]}
    )
    mesh = fem.triangulate(spec, refinement=1)
    with pytest.raises(NumericalError, match="^triangle 12 is inverted or degenerate$"):
        fem.neumann_eigenvalues(mesh)


def test_arpack_non_convergence_is_a_numerical_error(monkeypatch):
    import scipy.sparse.linalg

    def stalled(*args, k, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("ARPACK error -1: No convergence", np.zeros(0), None)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
    with pytest.raises(NumericalError, match="eigenvalue iteration did not converge"):
        fem.neumann_eigenvalues(_square(refinement=3), k=4)
    _fem_cli_exits_2(3, "did not converge")


def test_rayleigh_quotient():
    mesh = _square(refinement=3)
    constant = rayleigh_quotient(mesh, np.full(mesh.dof_count, 4.2))
    assert constant == pytest.approx(0.0, abs=1e-12)

    # u = x - 1/2 is mean-zero with quotient exactly 12 on the square
    u = mesh.vertices[:, 0] - 0.5
    quotient = rayleigh_quotient(mesh, u)
    assert quotient == pytest.approx(12.0, rel=1e-12)
    mu1 = fem.neumann_eigenvalues(mesh, k=2).eigenvalues[1]
    assert quotient >= mu1 - 1e-12

    with pytest.raises(ValueError):
        rayleigh_quotient(mesh, np.zeros(mesh.dof_count))
    with pytest.raises(ValueError):
        rayleigh_quotient(mesh, np.ones(3))


def test_verify_bound_passes_for_honest_metadata():
    record = fem.verify_bound(geometry.named_domain("unit_disc"), refinement=3)
    assert record["all_satisfied"] is True
    assert record["fem_mu1"] == pytest.approx(3.39, abs=2e-2)
    checked = [b for b in record["bounds"] if "margin" in b]
    assert checked and all(b["margin"] > 0.0 for b in checked)


def test_verify_bound_catches_false_claims():
    # claim a perfect extension for the tan-disc: the resulting "bound"
    # exceeds the true eigenvalue and the mesh must expose it
    lying = geometry.named_domain("tan_disc", norm_sq=1.0, star_beta=None)
    with pytest.raises(NumericalError, match="exceeds"):
        fem.verify_bound(lying, refinement=3)
    record = fem.verify_bound(lying, refinement=3, strict=False)
    assert record["all_satisfied"] is False
    assert any(b.get("satisfied") is False for b in record["bounds"])


def test_verify_bound_requires_planar_domain():
    spec = geometry.load_domain_spec({**_SQUARE_SPEC, "dim": 3})
    with pytest.raises(ValueError):
        fem.verify_bound(spec)


@pytest.mark.parametrize("name, boundary", [("bowtie", None), ("half_disc", 16)])
def test_a_verify_ladder_measures_its_spec_once(name, boundary, monkeypatch):
    calls = {"diameter": 0, "min_enclosing_ball": 0}
    for layer in calls:
        def counted(points, _layer=layer, _original=getattr(geometry, layer)):
            calls[_layer] += 1
            return _original(points)

        monkeypatch.setattr(geometry, layer, counted)
    spec = geometry.named_domain(name)
    records = [fem.verify_bound(spec, refinement=r, fem_samples=boundary) for r in range(1, 5)]
    assert calls == {"diameter": 1, "min_enclosing_ball": 1}
    # repr round-trips every float, so equal reprs are equal bits
    for r, record in enumerate(records, 1):
        fresh = fem.verify_bound(geometry.named_domain(name), refinement=r, fem_samples=boundary)
        assert repr(record) == repr(fresh)


@pytest.mark.parametrize("side", [10.0**e for e in range(-8, 9, 2)])
def test_scaled_squares_have_the_unit_square_spectrum(side):
    # the degeneracy checks are relative to the domain's bounding box, so
    # a square of any side meshes and solves like the unit one
    vertices = (side * np.array(_SQUARE_SPEC["vertices"])).tolist()
    spec = geometry.load_domain_spec({"kind": "polygon", "vertices": vertices})
    for refinement, dof in ((2, 41), (3, 145)):  # the dense route, then the sparse one
        mesh = fem.triangulate(spec, refinement=refinement)
        assert (mesh.dof_count, mesh.dof_count <= fem._DENSE_MAX_DOF) == (dof, refinement == 2)
        got = fem.neumann_eigenvalues(mesh, k=4).eigenvalues
        want = fem.neumann_eigenvalues(_square(refinement), k=4).eigenvalues
        assert got[0] == 0.0
        assert np.allclose(np.array(got[1:]) * side**2, want[1:], rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("refinement", [1, 3])  # the dense route, then the sparse one
def test_a_square_too_small_for_the_float_range_is_a_numerical_error(refinement):
    # the shift sigma = -0.2 (1.8412 / spread)^2 leaves the float range first
    vertices = (1e-154 * np.array(_SQUARE_SPEC["vertices"])).tolist()
    mesh = fem.triangulate(geometry.load_domain_spec({"kind": "polygon", "vertices": vertices}), refinement)
    with pytest.raises(NumericalError, match="^mu_1 of a mesh of size 7.07e-155 is beyond the float range$"):
        fem.neumann_eigenvalues(mesh)


@pytest.mark.parametrize("refinement", [1, 3])  # the dense route, then the sparse one
def test_an_eigenvalue_beyond_the_float_range_is_a_numerical_error(refinement):
    # sigma is finite here, but lam = sigma + 1/theta (dense) or the rescaled
    # lam (sparse) overflows for the upper eigenvalues: caught before the
    # residual check, and without a NumPy warning
    vertices = (2.5e-154 * np.array(_SQUARE_SPEC["vertices"])).tolist()
    mesh = fem.triangulate(geometry.load_domain_spec({"kind": "polygon", "vertices": vertices}), refinement)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^mu_1 of a mesh of size 1.77e-154 is beyond the float range$"):
            fem.neumann_eigenvalues(mesh)


def _spectrum_bits(result):
    return result.eigenvalues, result.residuals, result.solves, result.dof_count, result.mesh_size


@pytest.fixture
def cold_memo():
    """An empty pattern memo, emptied again afterwards: each pattern is built on its own
    and keeps the order it was built with, so one built while a test patches the
    crossover must not outlive it."""
    fem._fan_pattern.cache_clear()
    yield
    fem._fan_pattern.cache_clear()


_MEMO_CASES = [("unit_disc", 34, 3), ("unit_disc", 34, 4), ("bowtie", None, 3)]


@pytest.mark.parametrize("case", _MEMO_CASES, ids=str)
def test_a_cold_and_a_warm_memo_give_the_same_bits(case, cold_memo):
    def solve():
        mesh = _solver_mesh(*case)
        assert mesh.dof_count > fem._DENSE_MAX_DOF  # the route that keeps a fill order
        return mesh, fem.neumann_eigenvalues(mesh, k=4)

    cold_mesh, cold = solve()
    warm_mesh, warm = solve()
    # both meshes sit on one pattern, numbered in the fill order the cold miss made
    assert warm_mesh._pattern is cold_mesh._pattern
    assert np.array_equal(warm_mesh.vertices, cold_mesh.vertices)
    assert _spectrum_bits(warm) == _spectrum_bits(cold)


_RECTANGLE = {"kind": "polygon", "vertices": [[0, 0], [2, 0], [2, 1], [0, 1]]}


@pytest.fixture
def spilu_calls(monkeypatch):
    """The shapes spilu is called on: a pattern of more than _DENSE_MAX_DOF vertices
    computes its fill order through it when the memo misses that pattern."""
    import scipy.sparse.linalg

    calls = []

    def counted(shifted, *args, _original=scipy.sparse.linalg.spilu, **kwargs):
        calls.append(shifted.shape)
        return _original(shifted, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "spilu", counted)
    return calls


def test_meshes_of_one_fan_pattern_share_an_entry_and_an_order(cold_memo, spilu_calls):
    rectangle = geometry.load_domain_spec(_RECTANGLE)
    records = [fem.verify_bound(spec, refinement=3, fem_samples=34)
               for spec in (geometry.named_domain("unit_disc"), rectangle)]
    assert [record["dof_count"] for record in records] == [1225, 1225]
    info = fem._fan_pattern.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert spilu_calls == [(1225, 1225)]
    # each coarser pattern is built on its own, and only (34, 2) of 341 unknowns is sparse-size
    assert all(fem._fan_pattern(34, r) for r in range(4)) and fem._fan_pattern.cache_info().misses == 4
    assert spilu_calls == [(1225, 1225), (341, 341)]
    disc, rect = (fem.triangulate(spec, 3, samples=34) for spec in (geometry.named_domain("unit_disc"), rectangle))
    assert disc._pattern is rect._pattern
    assert disc.triangles is rect.triangles and disc.boundary is rect.boundary
    # the order owns its memory: a view would pin spilu's factor
    assert disc._pattern.order.flags.owndata and disc._pattern.order.base is None


def test_a_cold_verify_builds_and_orders_only_the_pattern_it_solves(cold_memo, spilu_calls):
    # unit_disc at the default r4 on 96 boundary points: one pattern, built and ordered once,
    # and none of the coarser levels it is refined through
    assert fem.verify_bound(geometry.named_domain("unit_disc"))["dof_count"] == 13_057
    info = fem._fan_pattern.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert spilu_calls == [(13_057, 13_057)]


def test_the_memo_keeps_at_most_its_cap_and_drops_the_least_recently_used(cold_memo):
    spec, cap = geometry.named_domain("unit_disc"), fem._PATTERN_CAP
    for m in range(3, cap + 13):
        fem.triangulate(spec, refinement=1, samples=m)  # one entry each: (m, 1), its fan built in it
        assert fem._fan_pattern.cache_info().currsize <= cap
    info = fem._fan_pattern.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (cap, cap, cap + 10)

    def misses(m, refinement):
        before = fem._fan_pattern.cache_info().misses
        fem._fan_pattern(m, refinement)
        return fem._fan_pattern.cache_info().misses - before

    # the last 64 patterns are kept, m = 13 to cap + 12, (13, 1) the least recently used
    assert misses(cap + 12, 1) == 0 and misses(13, 1) == 0
    assert misses(12, 1) == 1  # (12, 1) comes back, and one entry goes
    assert misses(13, 1) == 0  # not (13, 1), just used, as oldest-first would drop
    assert misses(14, 1) == 1  # but (14, 1), used least recently
    assert misses(15, 1) == 1 and misses(cap + 12, 0) == 1  # (15, 1) went for (14, 1); no fan was kept
    assert fem._fan_pattern.cache_info().currsize == cap


def test_the_arrays_of_a_mesh_are_read_only():
    mesh = fem.triangulate(geometry.named_domain("unit_disc"), refinement=2, samples=12)
    for array in (mesh.vertices, mesh.triangles, mesh.boundary):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]
    # and those its pattern keeps for the solver: an index array sorted in place by a
    # caller (splu sorts unsorted ones) would corrupt every later mesh of the pattern
    pattern = fem.triangulate(geometry.named_domain("unit_disc"), refinement=3, samples=12)._pattern
    levels = [array for level in pattern.levels for array in level]
    for array in (*pattern.edges, pattern.order, *levels):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]
    with pytest.raises(dataclasses.FrozenInstanceError):  # nor is the pattern itself reassigned
        pattern.edges = pattern.edges


def _pattern_arrays(pattern):
    """Every array a fan pattern holds, its levels' included."""
    fields = [getattr(pattern, f.name) for f in dataclasses.fields(pattern)]
    flat = [x for value in fields for x in (value if isinstance(value, tuple) else (value,))]
    return [array for x in flat for array in (x if isinstance(x, tuple) else (x,))]


@pytest.mark.parametrize("boundary, refinement", [(12, 1), (34, 3), (34, 5)])  # 37 to 17,953 unknowns
def test_every_index_array_of_a_fan_pattern_is_int32(boundary, refinement):
    pattern = _solver_mesh("unit_disc", boundary, refinement)._pattern
    arrays = _pattern_arrays(pattern)
    assert len(arrays) == 3 + 5 + 3 * refinement  # triangles, boundary, order; edges; levels
    for array in arrays:
        assert array.dtype == (bool if array is pattern.boundary else np.int32)


def test_a_fan_pattern_holds_at_most_115_bytes_per_unknown():
    # 138.1 with int64 triangles; levels and order count, as each pattern owns them
    mesh = _solver_mesh("unit_disc", 34, 5)
    assert mesh.dof_count == 17_953
    assert sum(array.nbytes for array in _pattern_arrays(mesh._pattern)) / mesh.dof_count <= 115.0


# unit_disc r2-r5/34 (341 to 17,953 unknowns, both fill orders), then one mesh per domain kind
_RELABELLING_MESHES = [
    *(("unit_disc", 34, r) for r in range(2, 6)),
    ("bowtie", None, 3),
    ("tan_disc", 17, 4),
    ("half_disc", 10, 4),
    ("rectangle", None, 4),
]


@pytest.mark.parametrize("case", _RELABELLING_MESHES, ids=lambda c: f"{c[0]}/{c[1]}/r{c[2]}")
def test_the_sparse_route_matches_the_relabelling_oracle_bit_for_bit(case):
    # numbering a sparse-size pattern in its fill order once moves no bit of any spectrum
    # against gathering construction-numbered matrices into that order on each solve
    name, samples, refinement = case
    spec = geometry.load_domain_spec(_RECTANGLE) if name == "rectangle" else geometry.named_domain(name)
    mesh = fem.triangulate(spec, refinement, samples=samples)
    assert mesh.dof_count > fem._DENSE_MAX_DOF
    assert _spectrum_bits(fem.neumann_eigenvalues(mesh, k=4)) == relabelling_eigensolve(mesh, 4)


@pytest.mark.parametrize("case", [("unit_disc", 20, 3), ("unit_disc", 34, 4)], ids=str)
def test_eigsh_calls_the_bare_mass_product_and_solve(case, monkeypatch):
    # M and OPinv reach eigsh as their bare callables: no product or solve passes through
    # LinearOperator.matvec's checks or MatrixLinearOperator's dispatch, and solves counts OPinv
    import scipy.sparse
    import scipy.sparse.linalg

    entered = []
    wrapping = type(scipy.sparse.linalg.aslinearoperator(scipy.sparse.eye(2, format="csr")))
    for cls, name in ((scipy.sparse.linalg.LinearOperator, "matvec"), (wrapping, "_matvec")):
        def counted(self, x, _original=getattr(cls, name), _label=f"{cls.__name__}.{name}"):
            entered.append(_label)
            return _original(self, x)

        monkeypatch.setattr(cls, name, counted)
    opinv_calls = []
    eigsh = scipy.sparse.linalg.eigsh

    def recorded(*args, OPinv, **kwargs):
        solve = OPinv.matvec

        def counted(b):
            opinv_calls.append(len(b))
            return solve(b)

        OPinv.matvec = counted
        return eigsh(*args, OPinv=OPinv, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recorded)
    mesh = _solver_mesh(*case)
    result = fem.neumann_eigenvalues(mesh, k=4)
    assert entered == []
    assert result.solves == len(opinv_calls) > 0
    assert set(opinv_calls) == {mesh.dof_count}


@pytest.mark.parametrize("name", sorted(_ORACLE_SPECS))
def test_refinement_matches_scalar_oracle_on_a_cold_and_a_warm_memo(name, cold_memo):
    test_refinement_matches_scalar_oracle(name)
    misses = fem._fan_pattern.cache_info().misses
    assert misses  # the levels the cold pass enumerated, read by the warm one
    test_refinement_matches_scalar_oracle(name)
    assert fem._fan_pattern.cache_info().misses == misses


@pytest.mark.parametrize("boundary", [12, 34])  # unit_disc r4: 1,633 and 4,625 unknowns
def test_the_fill_order_above_the_crossover_postorders_its_elimination_tree(boundary, cold_memo):
    import scipy.sparse.linalg

    mesh = _solver_mesh("unit_disc", boundary, 4)
    entry = mesh._pattern
    assert len(entry.levels) == fem._MMD_MIN_REFINEMENT
    order = entry.order
    assert sorted(order.tolist()) == list(range(mesh.dof_count))
    assert order.dtype == np.int32 and not order.flags.writeable
    # M has K's pattern, with every entry nonzero: the mesh's own, numbered in the order
    assert is_postorder(elimination_tree(fem.assemble(mesh)[1], range(mesh.dof_count)))
    mass = two_pass_assemble(construction_numbered(mesh))[1]
    assert is_postorder(elimination_tree(mass, order))
    # the oracle tells them apart: spilu's minimum-degree order itself is not one
    spilu_order = np.argsort(scipy.sparse.linalg.spilu(mass.tocsc(), permc_spec="MMD_AT_PLUS_A").perm_c)
    assert not is_postorder(elimination_tree(mass, spilu_order))


@pytest.mark.parametrize("seed", range(4))
def test_etree_postorder_renumbers_the_same_tree_on_random_patterns(seed):
    # random symmetric patterns of 80 vertices, often a forest
    import scipy.sparse

    rng = np.random.default_rng(seed)
    pattern = scipy.sparse.random(80, 80, density=0.02 * (seed + 1), random_state=rng)
    pattern = (pattern + pattern.T + scipy.sparse.eye(80)).tocsr()
    postorder = fem._etree_postorder(scipy.sparse.tril(pattern, -1, format="csr"))
    assert sorted(postorder.tolist()) == list(range(80))
    renumbered = elimination_tree(pattern, postorder)
    assert is_postorder(renumbered)
    natural = elimination_tree(pattern, range(80))
    assert [-1 if p < 0 else int(postorder[p]) for p in renumbered] == [natural[v] for v in postorder]
    assert postorder.tolist() == etree_postorder(natural)  # the fill-order oracle's walk, vertex for vertex


def test_the_oracle_postorder_takes_roots_and_children_in_ascending_order():
    # roots 4 and 5; 5's children 2 and 3; 2's children 0 and 1
    parent = [2, 2, 5, 5, -1, -1]
    assert etree_postorder(parent) == [4, 0, 1, 2, 3, 5]
    assert etree_postorder([-1] * 3) == [0, 1, 2] and etree_postorder([1, 2, -1]) == [0, 1, 2]


def test_the_minimum_degree_order_fills_less_than_colamd(cold_memo, monkeypatch):
    import scipy.sparse.linalg

    fills = []

    def counted(a, *args, _original=scipy.sparse.linalg.splu, **kwargs):
        lu = _original(a, *args, **kwargs)
        fills.append(lu.L.nnz + lu.U.nnz)
        return lu

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted)
    for crossover in (5, fem._MMD_MIN_REFINEMENT):  # COLAMD's order, then the default
        monkeypatch.setattr(fem, "_MMD_MIN_REFINEMENT", crossover)
        fem._fan_pattern.cache_clear()  # a fresh pattern, which computes its order
        fem.neumann_eigenvalues(_solver_mesh("unit_disc", 34, 4), k=4)
    assert fills[1] < fills[0] and fills[1] < 206_012  # COLAMD read 206,012, this order 176,226


def test_a_mesh_keeps_its_pattern_after_the_memo_drops_it(cold_memo):
    # the memo once looked a mesh's pattern up again on each solve: after 64 newer fans,
    # this r4 mesh lost its levels, took COLAMD's order and moved in the last bits
    mesh = _solver_mesh("unit_disc", 12, 4)
    assert mesh.dof_count == 1633
    first = fem.neumann_eigenvalues(mesh, k=4)
    fem._fan_pattern.cache_clear()
    for m in range(13, 13 + fem._PATTERN_CAP):
        _solver_mesh("unit_disc", m, 0)
    assert _spectrum_bits(fem.neumann_eigenvalues(mesh, k=4)) == _spectrum_bits(first)


_ORDER_PATTERNS = [(12, 3), (34, 3), (6, 4), (12, 4), (17, 4)]  # 433 to 2,313 unknowns, both orders


@pytest.mark.parametrize("boundary, refinement", _ORDER_PATTERNS)
def test_the_fill_order_depends_on_the_pattern_alone(boundary, refinement):
    # the order a pattern takes from I plus its graph Laplacian is the one SuperLU picks on
    # the real K - sigma M, for a disc and a rectangle alike
    for spec in (geometry.named_domain("unit_disc"), geometry.load_domain_spec(_RECTANGLE)):
        mesh = fem.triangulate(spec, refinement, samples=boundary)
        assert mesh.dof_count > fem._DENSE_MAX_DOF
        assert np.array_equal(mesh._pattern.order, spilu_fill_order(construction_numbered(mesh), refinement))


def test_threads_solving_one_mesh_from_a_cold_memo_agree(cold_memo):
    start = threading.Barrier(4, timeout=60)

    def solve(_):
        start.wait()  # all four meet the empty memo and the pattern's first order together
        return _spectrum_bits(fem.neumann_eigenvalues(_solver_mesh("unit_disc", 12, 4), k=4))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the memo and the order too
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(solve, range(4)))
    finally:
        sys.setswitchinterval(interval)
    assert results == [results[0]] * 4
    assert results[0] == _spectrum_bits(fem.neumann_eigenvalues(_solver_mesh("unit_disc", 12, 4), k=4))


@pytest.mark.parametrize("boundary, refinement", [(34, 3), (12, 4)])  # 1,225 and 1,633 unknowns: both orders
def test_a_rigidly_moved_mesh_keeps_its_pattern_and_its_fill_order(boundary, refinement):
    mesh = _solver_mesh("unit_disc", boundary, refinement)
    base = fem.neumann_eigenvalues(mesh, k=4)
    pattern, order = mesh._pattern, mesh._pattern.order
    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    moved = dataclasses.replace(mesh, vertices=mesh.vertices @ rot.T + np.array([5.0, 2.0]))
    assert moved._pattern is pattern and moved.triangles is mesh.triangles and moved.boundary is mesh.boundary
    shifted = fem.neumann_eigenvalues(moved, k=4)
    assert moved._pattern.order is order and shifted.solves > 0
    assert np.allclose(base.eigenvalues, shifted.eigenvalues, rtol=1e-9, atol=1e-10)
    assert shifted.mesh_size == pytest.approx(base.mesh_size, rel=1e-12)


def test_a_mesh_is_vertices_placed_on_a_fan_pattern():
    mesh = _square(refinement=1)
    with pytest.raises(TypeError):
        fem.Mesh(mesh.vertices, mesh.triangles, mesh.boundary)
    nan, inf = (np.where(np.arange(13)[:, None] == 5, bad, mesh.vertices) for bad in (np.nan, np.inf))
    for vertices in (mesh.vertices[1:], mesh.vertices[:, :1], mesh.vertices.ravel(), nan, inf):
        with pytest.raises(ValueError, match=r"^the mesh's pattern places 13 finite vertices, got shape"):
            dataclasses.replace(mesh, vertices=vertices)
