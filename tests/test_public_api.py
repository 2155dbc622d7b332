"""The public surface: the exported names and the README's library examples."""

from __future__ import annotations

import ast
import functools
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import neubound
from neubound import fem, geometry

_ROOT = Path(__file__).resolve().parent.parent
_README = _ROOT / "README.md"

_PUBLIC_NAMES = [
    "Ball",
    "BoundReport",
    "DomainSpec",
    "ExtensionNormEstimate",
    "Mesh",
    "NumericalError",
    "SpectrumResult",
    "StarShapeData",
    "affine_qc_coefficient",
    "assemble",
    "ball_mu1",
    "bessel_i",
    "bessel_k",
    "best_bound_report",
    "boundary_loop",
    "diameter",
    "example_names",
    "extension_ball_bound",
    "half_ball_reflection_norm_sq",
    "improvement_condition",
    "load_domain_spec",
    "mikhlin_ball_norm_sq",
    "mikhlin_star_norm_sq_bound",
    "min_enclosing_ball",
    "named_domain",
    "neumann_eigenvalues",
    "p_zero",
    "payne_weinberger_bound",
    "piecewise_qc_coefficient",
    "preset_names",
    "quasidisc_norm_sq",
    "reproduce",
    "spiral_shaped_K",
    "star_shaped_K",
    "star_shaped_bound",
    "symmetric_domain_bound",
    "triangulate",
    "verify_bound",
]


def test_public_names_are_pinned():
    # changing the public surface must be a deliberate edit of this list
    assert sorted(neubound.__all__) == _PUBLIC_NAMES
    assert all(hasattr(neubound, name) for name in neubound.__all__)


def test_lazy_names_resolve_list_and_star_import():
    # the package loads its submodules on first attribute access
    assert set(neubound.__all__) <= set(dir(neubound))
    namespace: dict = {}
    exec("from neubound import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(_PUBLIC_NAMES)
    assert namespace["p_zero"] is neubound.special.p_zero
    assert neubound.reproduce is importlib.import_module("neubound.reproduce")
    with pytest.raises(AttributeError):
        neubound.no_such_name


def _type_checking_namespace(module) -> dict:
    """The module's globals plus the names its `if TYPE_CHECKING:` block imports."""
    namespace = dict(vars(module))
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            exec(compile(ast.Module(node.body, []), module.__file__, "exec"), namespace)
    return namespace


def _annotated_members(obj) -> list:
    """obj itself, and for a class every function defined on it."""
    if not inspect.isclass(obj):
        return [obj]
    members = [obj]
    for member in vars(obj).values():
        # property, functools.cached_property, staticmethod and classmethod
        for attribute in ("fget", "func", "__func__"):
            member = getattr(member, attribute, member)
        if inspect.isfunction(member):
            members.append(member)
    return members


def test_exported_annotations_resolve():
    # each annotation must name something a type checker can find: the
    # defining module's globals, or what it imports under TYPE_CHECKING
    checked = 0
    for name in neubound.__all__:
        obj = getattr(neubound, name)
        if inspect.ismodule(obj):
            continue
        namespace = _type_checking_namespace(sys.modules[obj.__module__])
        for member in _annotated_members(obj):
            typing.get_type_hints(member, globalns=namespace)
            checked += 1
    assert checked > len(neubound.__all__)


def test_readme_schema_lists_every_spec_key():
    block = re.search(r"```jsonc\n(.*?)```", _README.read_text(), flags=re.S).group(1)
    keys = set(re.findall(r'^\s*"(\w+)":', block, flags=re.M))
    assert keys == {"kind"} | set(geometry._SPEC_FIELDS)


def test_readme_library_examples_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", _README.read_text(), flags=re.S)
    assert blocks, "README has no python examples"
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(_README), "exec"), namespace)
    out = capsys.readouterr().out.split("\n")
    formula, value = out[0].split()
    assert formula == "quasidisc"
    assert float(value) == pytest.approx(0.3729164046387855, rel=1e-12)
    assert float(out[1]) > float(value)  # the FEM mu_1 sits above the bound


# runs the CLI on argv, or only `import neubound` when argv is empty, then
# writes the names of the loaded modules as stdout's last line
_LIST_LOADED_MODULES = """
import sys
if sys.argv[1:]:
    from neubound import cli
    status = cli.main(sys.argv[1:])
else:
    import neubound
    status = 0
sys.stdout.write("\\n" + " ".join(sys.modules) + "\\n")
sys.exit(status)
"""


@functools.lru_cache(maxsize=None)
def _modules_after_fresh_run(argv: tuple[str, ...]) -> frozenset[str]:
    """The modules a fresh process holds after `import neubound`, or after the CLI on argv."""
    src = str(Path(neubound.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # sys.modules, not -X importtime: that logs import statements only, and
    # misses the submodules the package loads through importlib
    out = subprocess.run(
        [sys.executable, "-c", _LIST_LOADED_MODULES, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout
    names = frozenset(out.splitlines()[-1].split())
    assert "neubound" in names
    return names


def _loaded_by_fresh_import(module: str, argv: tuple[str, ...] = ()) -> bool:
    """Whether a fresh process loads module: `import neubound`, or the CLI on argv."""
    return module in _modules_after_fresh_run(tuple(argv))


def test_import_does_not_load_numpy():
    # every submodule, and with it NumPy, loads on first attribute access
    assert not _loaded_by_fresh_import("numpy")


def test_import_does_not_load_the_sparse_stack():
    # scipy.sparse loads inside fem when a mesh is built, so commands that
    # build none skip its import cost
    assert not _loaded_by_fresh_import("scipy.sparse")


def test_import_does_not_load_scipy_special():
    # scipy.special loads only inside p_zero off its table (n = 2..8 at the
    # default tol), for J; I and K run on math alone
    assert not _loaded_by_fresh_import("scipy.special")


_TAN_DISC = ("bound", "--domain", "tan_disc")
# the two-ball extension norm needs only Bessel I and K, and half_ball only
# the bound formulas, so these run on math alone
_MATH_ONLY = [
    ("mikhlin", "--n", "4", "--R", "2.5"),
    ("mikhlin-star", "--m1", "1", "--m2", "1.5", "--m3", "0.3", "--n", "3", "--R", "2"),
    ("reproduce", "mikhlin_table"),
    ("reproduce", "half_ball"),
]


@pytest.mark.parametrize("module", ["scipy.spatial", "scipy.sparse"])
def test_bound_on_a_sampled_loop_loads_no_hull_or_sparse_module(module):
    # diameter takes the convex hull of tan_disc's 4,096 samples in NumPy,
    # so bound needs neither scipy.spatial nor the scipy.sparse it imports
    assert not _loaded_by_fresh_import(module, _TAN_DISC)


@pytest.mark.parametrize(
    "argv,module,loaded",
    [
        # p_zero(2) comes from the table
        (_TAN_DISC, "scipy.special", False),
        (("pzero", "--n", "5"), "scipy.special", False),
        *((argv, "scipy.special", False) for argv in _MATH_ONLY),
        (("verify", "--domain", "bowtie", "--refinement", "1"), "scipy.special", False),
        # meshes up to fem._DENSE_MAX_DOF unknowns are solved in NumPy alone:
        # the bowtie at r2 has 61, unit_disc at r0 97 and at r2 961
        (("verify", "--domain", "bowtie", "--refinement", "2"), "scipy", False),
        (("fem", "--domain", "unit_disc", "--refinement", "0"), "scipy", False),
        (("verify", "--domain", "unit_disc", "--refinement", "2"), "scipy.sparse", True),
        # off the table p_zero falls back to the scan over scipy.special.jv
        (("pzero", "--n", "9"), "scipy.special", True),
        (("pzero", "--n", "5", "--tol", "1e-6"), "scipy.special", True),
        # the enclosing ball's fixed order is integer arithmetic, so only
        # the sparse route, through SciPy, loads numpy.random
        (("bound", "--domain", "bowtie"), "numpy.random", False),
        (("mecb", "--domain", "unit_disc"), "numpy.random", False),
        (("verify", "--domain", "bowtie", "--refinement", "2"), "numpy.random", False),
        (("reproduce", "bowtie"), "numpy.random", False),
        (("verify", "--domain", "unit_disc", "--refinement", "2"), "numpy.random", True),
        # reproduce loads with its command, csv with --output csv
        (("pzero", "--n", "5"), "neubound.reproduce", False),
        (("pzero", "--n", "5"), "csv", False),
        (("qc", "--beta", "0.5"), "neubound.reproduce", False),
        (("qc", "--beta", "0.5"), "csv", False),
        # the CLI imports dataclasses only for the commands that use it
        (("pzero", "--n", "5"), "dataclasses", False),
        (("qc", "--beta", "0.5"), "dataclasses", False),
    ],
    ids=lambda v: "_".join(a.lstrip("-") for a in v) if isinstance(v, tuple) else None,
)
def test_command_loads_scipy_module_only_when_it_needs_it(argv, module, loaded):
    assert _loaded_by_fresh_import(module, argv) is loaded


@pytest.mark.parametrize(
    "argv,loaded",
    [
        # commands that handle no point cloud run on math alone
        (("pzero", "--n", "5"), False),
        (("qc", "--beta", "0.5"), False),
        (("qc", "--matrix", "1", "1", "0", "1"), False),
        (("reproduce", "pzero_table"), False),
        *((argv, False) for argv in _MATH_ONLY),
        (_TAN_DISC, True),
    ],
    ids=lambda v: "_".join(a.lstrip("-") for a in v) if isinstance(v, tuple) else None,
)
def test_command_loads_numpy_only_when_it_needs_it(argv, loaded):
    assert _loaded_by_fresh_import("numpy", argv) is loaded


def test_every_attribute_the_benchmark_tracer_patches_exists():
    # perfbench/run.py --trace wraps these attributes by name (bounds.p_zero
    # too, since bounds imports it by name); a cleanup that drops one would
    # break tracing without failing any other test
    spec = importlib.util.spec_from_file_location("tracing", _ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for module, attribute, _, _ in tracing.LAYERS:
        assert hasattr(importlib.import_module(f"neubound.{module}"), attribute), (module, attribute)
    # the size it records for neumann_eigenvalues
    assert "dof_count" in neubound.SpectrumResult.__dataclass_fields__


def test_neumann_eigenvalues_assembles_through_the_module_attribute(monkeypatch):
    # the tracer's fem.assemble layer wraps this attribute; sparse assembly
    # reached any other way (a private helper, a second pass) would read
    # 0 ms there.  Meshes up to fem._DENSE_MAX_DOF unknowns are solved
    # densely and assemble no CSR matrices, so these meshes are larger
    calls = []
    assemble = fem.assemble

    def counting(mesh):
        calls.append(mesh)
        return assemble(mesh)

    monkeypatch.setattr(fem, "assemble", counting)
    mesh = fem.triangulate(neubound.named_domain("bowtie"), refinement=3)
    assert mesh.dof_count > fem._DENSE_MAX_DOF
    for k in (2, 4):
        fem.neumann_eigenvalues(mesh, k=k)
    assert calls == [mesh, mesh]
    fem.verify_bound(neubound.named_domain("unit_disc"), refinement=1)
    assert len(calls) == 3
