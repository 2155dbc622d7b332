"""Command-line behavior: schemas, exit codes, determinism, CSV."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neubound
from neubound import cli, geometry, qcmaps


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pzero_schema(capsys):
    code, out, _ = _run(capsys, "pzero", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 2, "p": pytest.approx(1.841183781, abs=1e-8)}


def test_mikhlin_schema(capsys):
    code, out, _ = _run(capsys, "mikhlin", "--n", "3", "--R", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["value_sq"] == pytest.approx(8.38905, abs=1e-4)
    assert payload["kind"] == "exact"
    assert payload["source"] == "ball extension formula"


def test_mikhlin_high_odd_dimension(capsys):
    code, out, _ = _run(capsys, "mikhlin", "--n", "21", "--R", "2")
    assert code == 0
    assert json.loads(out)["value_sq"] == pytest.approx(402.05834567772152, rel=1e-9)


def test_mikhlin_star_matches_library(capsys):
    code, out, _ = _run(
        capsys, "mikhlin-star", "--m1", "1", "--m2", "1", "--m3", "0", "--n", "3", "--R", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value_sq"] == pytest.approx(30.556224395722595, rel=1e-8)
    assert payload["ball_value_sq"] == pytest.approx(8.389056099, rel=1e-8)


def test_qc_star_and_spiral(capsys):
    code, out, _ = _run(capsys, "qc", "--beta", "0.5")
    assert code == 0
    assert json.loads(out)["K"] == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), rel=1e-9)

    code, out, _ = _run(capsys, "qc", "--beta", "0.5", "--gamma", "0.3")
    assert code == 0
    assert json.loads(out)["kind"] == "spiral"

    code, _, err = _run(capsys, "qc")
    assert code == 1 and "beta" in err


def test_qc_piecewise(capsys):
    code, out, _ = _run(
        capsys, "qc", "--matrix", "1", "0", "0", "1", "--matrix", "1", "0", "1", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "piecewise_affine"
    assert payload["K"] == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, rel=1e-9)


@pytest.mark.parametrize("argv", [
    ["qc", "--beta", "0.096966", "--gamma", "-9.3e-05"],
    ["qc", "--beta", "0.5", "--gamma", "-1E-2"],
    ["qc", "--matrix", "1", "-2e-3", "0.5", "2"],
    ["qc", "--matrix", "-1.", "-.5e+1", "3", "-2"],
])
def test_a_negative_value_in_exponent_notation_is_a_value(capsys, argv):
    # each reads as it does glued to its flag by "=", or as a decimal
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    if "--gamma" in argv:
        same = [*argv[:-2], f"--gamma={argv[-1]}"]
    else:
        same = [*argv[:2], *(repr(float(a)) for a in argv[2:])]
    assert _run(capsys, *same) == (0, out, "")


@pytest.mark.parametrize("value", ["-e5", "-1e", "-1e+"])  # -x is a golden case
def test_a_non_numeric_negative_value_is_still_an_option(capsys, value):
    code, out, err = _run(capsys, "qc", "--beta", "0.5", "--gamma", value)
    assert (code, out) == (1, "")
    assert err == "error: argument --gamma: expected one argument\n"


@pytest.mark.parametrize("flag", [["--beta", "0.5"], ["--gamma", "0.1"], ["--beta", "0.5", "--gamma", "0.1"]])
def test_qc_rejects_a_matrix_with_beta_or_gamma(capsys, flag):
    # no flag is dropped: the command fails and prints no K
    code, out, err = _run(capsys, "qc", "--matrix", "2", "0", "0", "1", *flag)
    assert (code, out) == (1, "")
    assert err == "error: qc takes either --matrix or --beta (with --gamma), not both\n"


def test_mecb_bowtie(capsys):
    code, out, _ = _run(capsys, "mecb", "--domain", "bowtie")
    assert code == 0
    payload = json.loads(out)
    assert payload["center"][1] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert payload["radius"] == pytest.approx(5.0 / 6.0, abs=1e-9)


def test_bound_report_round_trip(capsys):
    code, out, err = _run(capsys, "bound", "--domain", "bowtie")
    assert code == 0
    payload = json.loads(out)
    assert payload["best_value"] == payload["bounds"][payload["best"]]["value"]
    assert "warning:" in err  # the d/2-convention note is surfaced


def test_byte_identical_reruns(capsys):
    for argv in (
        ("bound", "--domain", "bowtie"),
        ("mecb", "--domain", "tan_disc"),
        ("verify", "--domain", "unit_disc", "--refinement", "2"),
        ("fem", "--domain", "bowtie", "--refinement", "2", "--table"),
    ):
        first = _run(capsys, *argv)
        assert first[0] == 0, argv
        assert _run(capsys, *argv) == first, argv


@pytest.mark.parametrize("refinement", ["7", "9"])
def test_fem_table_rejects_its_top_level_before_solving(capsys, monkeypatch, refinement):
    # the table and the single-level form reject the same refinement with the
    # same message; the table solves none of the levels below it first
    from neubound import fem

    argv = ("fem", "--domain", "bowtie", "--refinement", refinement)
    single = _run(capsys, *argv)
    monkeypatch.setattr(fem, "neumann_eigenvalues", lambda *a, **k: pytest.fail("solved a level"))
    assert _run(capsys, *argv, "--table") == single
    assert single[0] == 1 and single[2].startswith("error: ")


def test_inline_json_domain(capsys):
    domain = json.dumps(
        {"kind": "polygon", "vertices": [[0, 0], [2, 0], [2, 2], [0, 2]], "convex": True}
    )
    code, out, _ = _run(capsys, "bound", "--domain", domain)
    assert code == 0
    payload = json.loads(out)
    values = {b["formula"]: b["value"] for b in payload["bounds"]}
    assert values["payne_weinberger"] == pytest.approx(math.pi**2 / 8.0, rel=1e-9)


def test_fem_table_csv(capsys):
    code, out, _ = _run(
        capsys, "fem", "--domain", "unit_disc", "--refinement", "2",
        "--samples", "24", "--table", "--output", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "refinement,dof_count,mesh_size,mu1"
    assert len(lines) == 4
    mu = [float(line.split(",")[3]) for line in lines[1:]]
    assert mu[0] > mu[1] > mu[2]


def test_verify_command(capsys):
    code, out, _ = _run(
        capsys, "verify", "--domain", "unit_disc", "--refinement", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_satisfied"] is True
    assert payload["fem_mu1"] > payload["bounds"][0]["value"]


def test_reproduce_warns_on_discrepancy(capsys):
    code, out, err = _run(capsys, "reproduce", "tan_star")
    assert code == 0
    payload = json.loads(out)
    assert payload["discrepancies"]
    assert "warning:" in err


def test_reproduce_csv_table(capsys):
    code, out, _ = _run(capsys, "reproduce", "pzero_table", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8  # header + seven dimensions
    assert lines[0].startswith("n,published,computed")


@pytest.mark.parametrize("example", ["mikhlin_table", "pzero_table"])
def test_reproduce_differences_keep_three_digits(capsys, example):
    # the published values carry 4-6 digits, so a longer difference would
    # print the computed value's last-ulp noise
    code, out, _ = _run(capsys, "reproduce", example)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows
    for row in rows:
        exact = row["computed"] - row["published"]
        assert row["difference"] == float(f"{exact:.3g}")


def test_exit_code_for_input_errors(capsys):
    assert _run(capsys, "reproduce", "nonsense")[0] == 1
    assert _run(capsys, "mikhlin", "--n", "3", "--R", "0.5")[0] == 1
    assert _run(capsys, "bound", "--domain", "/no/such/file.json")[0] == 1
    assert _run(capsys, "pzero")[0] == 1  # missing required flag
    assert _run(capsys, "fem", "--domain", "unit_disc", "--output", "csv")[0] == 1


def test_unknown_preset_lists_the_presets(capsys):
    code, _, err = _run(capsys, "bound", "--domain", "bowtei")
    assert code == 1
    assert "bowtie, half_disc, tan_disc, unit_disc" in err


def test_integer_valued_json_numbers_read_as_floats(capsys):
    square = {"kind": "polygon", "vertices": [[0, 0], [2, 0], [2, 1], [0, 1]], "convex": True}
    outputs = [
        _run(capsys, "bound", "--domain", json.dumps({**square, "K": k, "beta": beta}))
        for k, beta in ((2, 0), (2.0, 0.0))
    ]
    assert outputs[0][0] == 0 and outputs[0] == outputs[1]


def _bound_exit(spec):
    """Exit status, stdout and stderr of `bound --domain <spec as JSON>`.

    Warnings land in stderr, as they would from the command line.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["bound", "--domain", json.dumps(spec)])
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return code, out.getvalue(), err.getvalue()


def _assert_one_error_line(spec):
    code, out, err = _bound_exit(spec)
    assert (code, out) == (1, ""), spec
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "named", "name": "unit_disc", "K": [1]},
        {"kind": "named", "name": ["bowtie"]},
        {"kind": "named", "name": {}},
        {"kind": "named", "name": "unit_disc", "samples": 3.9},
        {"kind": "named", "name": "half_disc", "dim": 2.7},
        {"kind": "named", "name": "unit_disc", "samples": "64"},
        {"kind": "named", "name": "unit_disc", "samples": 64.0},
        {"kind": "sampler", "name": "unit_disc", "samples": 8, "vertices": [[0, 0], [5, 0], [5, 5]]},
        {"kind": "sampler", "name": "unit_disc", "samples": 10**12},
        {"kind": "named", "name": "bowtie", "convex": True},
        {"kind": "polygon", "vertices": [[0, 0], [1e200, 0], [0, 1e200]]},
        {"kind": "named", "name": "bowtie", "K": 10**400},
        {"kind": "polygon", "vertices": [[0, 0], [2, 0], [0, 1.5]], "samples": 2**21},
        {"kind": "polygon", "vertices": [[True, 0], [2, 0], [0, 1.5]]},
    ],
    ids=["K_list", "name_list", "name_object", "samples_fraction", "dim_fraction",
         "samples_string", "samples_float", "sampler_vertices", "samples_huge",
         "reflex_polygon_declared_convex", "vertices_huge", "K_huge_int",
         "polygon_samples_above_cap", "vertices_bool_among_numbers"],
)
def test_malformed_spec_exits_1(spec):
    _assert_one_error_line(spec)


def test_mecb_rejects_vertices_whose_squared_distances_overflow(capsys):
    # at 1e160 the squared distances overflow to inf and the enclosing ball
    # would be NaN, which is not JSON; 1e150 is the largest coordinate accepted
    triangle = {"kind": "polygon", "vertices": [[0, 0], [1e160, 0], [0, 1e160]]}
    code, out, err = _run(capsys, "mecb", "--domain", json.dumps(triangle))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    triangle["vertices"] = [[0, 0], [1e150, 0], [0, 1e150]]
    code, out, _ = _run(capsys, "mecb", "--domain", json.dumps(triangle))
    assert code == 0 and json.loads(out)["radius"] == pytest.approx(1e150 / math.sqrt(2))


def test_mecb_rejects_an_infinite_declared_norm(capsys):
    # mecb reads no metadata, but the spec it loads is checked in full
    spec = '{"kind": "named", "name": "bowtie", "norm_sq": 1e999}'
    code, out, err = _run(capsys, "mecb", "--domain", spec)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("domain", ["unit_disc", "bowtie"])  # a polygon rejects any sample count
def test_samples_flag_above_the_cap_exits_1(capsys, domain):
    code, out, err = _run(capsys, "bound", "--domain", domain, "--samples", str(10**12))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


_QUAD = {"kind": "polygon", "vertices": [[0, 0], [3, 0.4], [2.5, 2], [0.3, 1.7]], "convex": True}


@pytest.mark.parametrize("domain", ["bowtie", json.dumps(_QUAD)], ids=["bowtie", "quadrilateral"])
@pytest.mark.parametrize("command", ["bound", "mecb", "verify"])
def test_samples_flag_on_a_polygon_measures_the_vertices(capsys, monkeypatch, command, domain):
    # edge points are convex combinations of the vertices, so the vertices
    # alone give d and R; a sample count does not apply to a polygon, and
    # --samples, its spec's "samples", is rejected
    monkeypatch.setenv(cli.PRECISION_ENV, "17")  # floats print round-trip
    verts = geometry.load_domain_spec(domain).vertices
    argv = [command, "--domain", domain, *(["--refinement", "1"] if command == "verify" else [])]
    code, out, err = _run(capsys, *argv, "--samples", "1000")
    assert (code, out) == (1, "")
    assert err == "error: a polygon spec is measured at its vertices; samples do not apply\n"
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    if command == "mecb":
        radius, points = doc["radius"], doc["points_used"]
    else:
        radius, points = doc["geometry"]["enclosing_radius"], doc["geometry"]["boundary_points"]
        assert doc["geometry"]["diameter"] == geometry.diameter(verts)
    want = geometry.min_enclosing_ball(verts).radius
    assert points == len(verts)
    assert abs(radius - want) <= 4 * math.ulp(want)


@pytest.mark.parametrize(
    "command, domain, flag, key, value, code",
    [
        ("bound", "bowtie", "--samples", "samples", 1000, 1),  # a polygon takes no samples
        ("mecb", "bowtie", "--samples", "samples", 1000, 1),
        ("verify", "bowtie", "--samples", "samples", 1000, 1),
        ("verify", "unit_disc", "--samples", "samples", 48, 0),  # the mesh follows spec.samples
        ("bound", "bowtie", "--samples", "samples", 2**21, 1),
        ("bound", "half_disc", "--n", "dim", 1, 1),
    ],
    ids=["bound_polygon", "mecb_polygon", "verify_polygon", "verify_sampler", "samples_above_cap", "dim_1"],
)
def test_flags_read_as_their_spec_keys(capsys, command, domain, flag, key, value, code):
    extra = ["--refinement", "1"] if command == "verify" else []
    by_flag = _run(capsys, command, "--domain", domain, flag, str(value), *extra)
    assert by_flag[0] == code
    spec = json.dumps({"kind": "named", "name": domain, key: value})
    assert _run(capsys, command, "--domain", spec, *extra) == by_flag


_BASE_SPECS = {
    "polygon": {"kind": "polygon", "vertices": [[0, 0], [2, 0], [2, 1], [0, 1]]},
    "sampler": {"kind": "sampler", "name": "unit_disc", "samples": 64},
    "named": {"kind": "named", "name": "half_disc", "samples": 64},
}
_TEXT = st.text(st.characters(codec="utf-8"), max_size=6)
_LISTS = st.lists(st.one_of(st.integers(), _TEXT), max_size=3)
_OBJECTS = st.dictionaries(_TEXT, st.integers(), max_size=2)
_NUMBERS = st.one_of(st.integers(), st.floats())
_NOT_NUMBER = st.one_of(st.none(), st.booleans(), _TEXT, _LISTS, _OBJECTS)
# arrays must hold numbers only
_NOT_ARRAY = st.one_of(
    st.none(), st.booleans(), _NUMBERS, _TEXT, _OBJECTS,
    st.lists(st.one_of(st.none(), st.booleans(), _TEXT), min_size=1, max_size=3),
)
# the wrong-typed values of each key; a polygon may leave "name" null
_WRONG_VALUES = {
    "kind": st.one_of(_NOT_NUMBER, _NUMBERS).filter(
        lambda v: v not in ("polygon", "sampler", "named")
    ),
    "dim": st.one_of(_NOT_NUMBER, st.floats()),  # JSON 3.0 is not an integer
    "samples": st.one_of(_NOT_NUMBER, st.floats()),
    "name": st.one_of(st.booleans(), _NUMBERS, _LISTS, _OBJECTS),
    "vertices": _NOT_ARRAY,
    "symmetry_center": _NOT_ARRAY,
    "anchor": _NOT_ARRAY,
    "K": _NOT_NUMBER,
    "beta": _NOT_NUMBER,
    "norm_sq": _NOT_NUMBER,
    "convex": st.one_of(st.none(), _NUMBERS, _TEXT, _LISTS, _OBJECTS),
}


def test_wrong_value_strategies_cover_the_schema():
    assert set(_WRONG_VALUES) == {"kind"} | set(geometry._SPEC_FIELDS)


@pytest.mark.parametrize("base", sorted(_BASE_SPECS))
@pytest.mark.parametrize("key", sorted(_WRONG_VALUES))
@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_wrong_typed_spec_values_exit_1(base, key, data):
    spec = {**_BASE_SPECS[base], key: data.draw(_WRONG_VALUES[key], label=key)}
    _assert_one_error_line(spec)


def test_exit_code_for_numerical_failures(capsys):
    code, _, err = _run(capsys, "mikhlin", "--n", "3", "--R", "800")
    assert code == 2
    assert "numerical error" in err


def test_non_finite_result_exits_2(capsys, monkeypatch):
    # NaN is not JSON, so the command fails instead of printing it
    monkeypatch.setattr(qcmaps, "star_shaped_K", lambda beta: math.nan)
    code, out, err = _run(capsys, "qc", "--beta", "0.5")
    assert (code, out) == (2, "")
    assert err.startswith("numerical error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "value, plain",
    [
        (np.bool_(True), True),
        (np.int64(7), 7),
        (np.float64(0.1) * 3, 0.1 * 3),
        (np.array(2.5), 2.5),
        (np.array([[1.0, 2.0], [3.0, 1.0 / 3.0]]), [[1.0, 2.0], [3.0, 1.0 / 3.0]]),
    ],
    ids=["bool_", "int64", "float64", "array_0d", "array_2d"],
)
def test_numpy_values_serialize_as_their_python_values(value, plain):
    rounded, want = cli._round_floats({"x": value}, 10), cli._round_floats({"x": plain}, 10)
    assert json.dumps(rounded) == json.dumps(want)
    assert type(rounded["x"]) is type(want["x"])


@pytest.mark.parametrize(
    "argv, code",
    [
        (("pzero", "--n", "3"), 0),
        (("bound", "--domain", "nope"), 1),
        (("mikhlin", "--n", "3", "--R", "800"), 2),
    ],
    ids=["exit_0", "exit_1", "exit_2"],
)
def test_fresh_process_matches_main(capsys, argv, code):
    # the script's own exit path (gc.freeze, then sys.exit) keeps the
    # status and flushes both streams as main() left them; the streams are
    # left buffered, as by default, so a skipped flush would lose output
    src = str(Path(neubound.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "neubound.cli", *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == code
    assert (proc.returncode, proc.stdout, proc.stderr) == _run(capsys, *argv)


def test_help_exits_cleanly(capsys):
    assert _run(capsys, "--help")[0] == 0


def test_precision_env(capsys, monkeypatch):
    monkeypatch.setenv(cli.PRECISION_ENV, "4")
    code, out, _ = _run(capsys, "pzero", "--n", "2")
    assert code == 0
    assert json.loads(out)["p"] == 1.841

    monkeypatch.setenv(cli.PRECISION_ENV, "frog")
    assert _run(capsys, "pzero", "--n", "2")[0] == 1
    monkeypatch.setenv(cli.PRECISION_ENV, "0")
    assert _run(capsys, "pzero", "--n", "2")[0] == 1


def test_precision_is_read_before_the_command_runs(capsys, monkeypatch):
    from neubound import fem

    monkeypatch.setenv(cli.PRECISION_ENV, "frog")
    monkeypatch.setattr(fem, "verify_bound", lambda *a, **k: pytest.fail("ran the command"))
    code, out, err = _run(capsys, "verify", "--domain", "unit_disc")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {cli.PRECISION_ENV} must be an integer")


# each command's arguments as (option strings, dest, default, type, required,
# nargs, choices, metavar, help); argparse's own -h and the --output every
# command takes come first
_HELP_ROW = (("-h", "--help"), "help", "==SUPPRESS==", None, False, 0, None, None, "show this help message and exit")
_OUTPUT_ROW = (
    ("--output",), "output", "json", None, False, None, ("json", "csv"), None,
    "serialization format (csv only for tabular reports)",
)
_DOMAIN_ROW = (("--domain",), "domain", None, None, True, None, None, None, "preset name, JSON file, or inline JSON")
_SAMPLES_ROW = (
    ("--samples",), "samples", None, int, False, None, None, None,
    'the spec\'s "samples": a sampler\'s boundary resolution; a polygon rejects it',
)
_K_ROW = (("--k",), "k", 4, int, False, None, None, None, "how many eigenvalues, 2..10")
_PARSER_PIN = {
    "pzero": ("first zero of the radial Neumann condition", [
        (("--n",), "n", None, int, True, None, None, None, "ambient dimension, n >= 2"),
        (("--tol",), "tol", 1e-10, float, False, None, None, None, "bisection tolerance"),
    ]),
    "mikhlin": ("squared two-ball extension norm", [
        (("--n",), "n", None, int, True, None, None, None, "ambient dimension, n >= 3"),
        (("--R",), "big_r", None, float, True, None, None, None, "outer radius > 1"),
    ]),
    "mikhlin-star": ("star-shaped extension norm bound", [
        (("--m1",), "m1", None, float, True, None, None, None, "lower radial bound"),
        (("--m2",), "m2", None, float, True, None, None, None, "upper radial bound"),
        (("--m3",), "m3", None, float, True, None, None, None, "angular derivative bound"),
        (("--n",), "n", None, int, True, None, None, None, "ambient dimension, n >= 3"),
        (("--R",), "big_r", None, float, True, None, None, None, "outer radius > m2"),
    ]),
    "qc": ("quasiconformality coefficient of a map", [
        (
            ("--matrix",), "matrix", None, float, False, 4, None, ("A", "B", "C", "D"),
            "row-major 2x2 Jacobian; repeat for piecewise maps; not with --beta or --gamma",
        ),
        (("--beta",), "beta", None, float, False, None, None, None, "star-shape parameter in [0, 1)"),
        (("--gamma",), "gamma", None, float, False, None, None, None, "spiral twist, |gamma| < beta*pi/2"),
    ]),
    "mecb": ("minimum enclosing ball of a domain's boundary", [_DOMAIN_ROW, _SAMPLES_ROW]),
    "bound": ("every applicable eigenvalue lower bound", [
        _DOMAIN_ROW,
        (("--n",), "n", None, int, False, None, None, None, 'ambient dimension: the spec\'s "dim"'),
        _SAMPLES_ROW,
    ]),
    "fem": ("finite-element Neumann eigenvalues", [
        _DOMAIN_ROW,
        (("--refinement",), "refinement", 3, int, False, None, None, None, "uniform refinement levels"),
        (("--samples",), "samples", None, int, False, None, None, None, "mesh boundary sample count"),
        _K_ROW,
        (("--table",), "table", False, None, False, 0, None, None, "emit a convergence table over refinements 0..R"),
    ]),
    "verify": ("check all bounds against the mesh eigenvalue", [
        _DOMAIN_ROW,
        (("--refinement",), "refinement", 4, int, False, None, None, None, "uniform refinement levels"),
        _SAMPLES_ROW,
        (("--fem-samples",), "fem_samples", None, int, False, None, None, None, "mesh boundary sample count"),
        _K_ROW,
        (
            ("--allow-violation",), "allow_violation", False, None, False, 0, None, None,
            "report violations instead of failing with exit status 2",
        ),
    ]),
    "reproduce": ("recompute a worked example", [
        ((), "example", None, None, True, None, None, None,
         "one of: bowtie, half_ball, mikhlin_table, pzero_table, tan_star"),
    ]),
}


def test_every_command_parses_as_pinned():
    # the whole command-line surface, flag by flag: a change to any name,
    # default, type or help text must be a deliberate edit of _PARSER_PIN
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    listed = {a.dest: a.help for a in commands._choices_actions}
    assert listed == {name: help_text for name, (help_text, _) in _PARSER_PIN.items()}
    for name, (_, rows) in _PARSER_PIN.items():
        actions = [
            (tuple(a.option_strings), a.dest, a.default, a.type, a.required, a.nargs, a.choices, a.metavar, a.help)
            for a in commands.choices[name]._actions
        ]
        assert actions == [_HELP_ROW, _OUTPUT_ROW, *rows], name


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_command_help_exits_cleanly(capsys, command):
    code, out, _ = _run(capsys, command, "--help")
    assert code == 0
    assert out.startswith(f"usage: neubound {command} ")
