"""Golden CLI corpus: stdout, stderr and exit status of fixed commands.

Each case in CASES has a file tests/golden/<id>.txt holding the command
line, its exit status, its stdout and its stderr.  The test replays every
case through cli.main in-process and compares the rendering byte for byte,
so any change to any output shows as a diff of those files.  After a
deliberate change to the output, regenerate them and review the diff:

    PYTHONPATH=src python tests/test_golden.py

which prints the id of each case whose file it rewrote.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

import pytest

from neubound import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

_PRESETS = ("bowtie", "half_disc", "tan_disc", "unit_disc")
_SQUARE = {"kind": "polygon", "vertices": [[0, 0], [2, 0], [2, 2], [0, 2]], "convex": True}
_TRIANGLE = {"kind": "polygon", "vertices": [[0, 0], [1, 0], [0, 1]]}
_TINY_EDGE = {"kind": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [1e-13, 1], [0, 1]]}
_SLIVERS = {"kind": "polygon", "vertices": [[0, 0], [1, 2e-12], [2, 0], [3, 1e-12], [4, 0], [2, 1e-3]]}


def _square(side: float, **flags) -> dict:
    return {"kind": "polygon", "vertices": [[0, 0], [side, 0], [side, side], [0, side]], **flags}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name in _PRESETS:
        cases[f"bound-{name}"] = ["bound", "--domain", name]
        cases[f"mecb-{name}"] = ["mecb", "--domain", name]
        for r in range(4):
            cases[f"verify-{name}-r{r}"] = ["verify", "--domain", name, "--refinement", str(r)]
        cases[f"fem-{name}-table-csv"] = [
            "fem", "--domain", name, "--refinement", "2", "--table", "--output", "csv"
        ]
    cases["fem-bowtie-r2"] = ["fem", "--domain", "bowtie", "--refinement", "2"]
    cases["fem-unit_disc-r1-samples24-k6"] = [
        "fem", "--domain", "unit_disc", "--refinement", "1", "--samples", "24", "--k", "6"
    ]
    # D'Hondt gives the diameter one sample more than rounding the arc's share did
    cases["fem-half_disc-r1-samples14"] = ["fem", "--domain", "half_disc", "--refinement", "1", "--samples", "14"]
    for n in range(3, 10):
        cases[f"bound-half_disc-n{n}"] = ["bound", "--domain", "half_disc", "--n", str(n)]
    for example in ("bowtie", "half_ball", "mikhlin_table", "pzero_table", "tan_star"):
        cases[f"reproduce-{example}"] = ["reproduce", example]
    for n in range(2, 13):
        cases[f"pzero-n{n}"] = ["pzero", "--n", str(n)]
        cases[f"pzero-n{n}-tol1e-12"] = ["pzero", "--n", str(n), "--tol", "1e-12"]
    cases.update({
        "mikhlin-n3-R2": ["mikhlin", "--n", "3", "--R", "2"],
        "mikhlin-n4-R2.5": ["mikhlin", "--n", "4", "--R", "2.5"],
        "mikhlin_star": ["mikhlin-star", "--m1", "1", "--m2", "1.5", "--m3", "0.3", "--n", "3", "--R", "2"],
        "qc-beta": ["qc", "--beta", "0.5"],
        "qc-spiral": ["qc", "--beta", "0.5", "--gamma", "0.3"],
        "qc-affine": ["qc", "--matrix", "1", "0", "1", "1"],
        "qc-piecewise": ["qc", "--matrix", "1", "0", "0", "1", "--matrix", "1", "0", "1", "1"],
        # a negative value in exponent notation is a value, not an option
        "qc-spiral-negative-exponent": ["qc", "--beta", "0.096966", "--gamma", "-9.3e-05"],
        "qc-affine-negative-exponent": ["qc", "--matrix", "1", "-2e-3", "0.5", "2"],
        "bound-square-json": ["bound", "--domain", json.dumps(_SQUARE)],
        "reproduce-pzero_table-csv": ["reproduce", "pzero_table", "--output", "csv"],
        # the sample count and the dimension, as flags; a polygon rejects a sample count
        "bound-bowtie-samples1000": ["bound", "--domain", "bowtie", "--samples", "1000"],
        "mecb-bowtie-samples1000": ["mecb", "--domain", "bowtie", "--samples", "1000"],
        "verify-bowtie-samples1000-r2": ["verify", "--domain", "bowtie", "--samples", "1000", "--refinement", "2"],
        "bound-square-samples64": ["bound", "--domain", json.dumps(_SQUARE), "--samples", "64"],
        "bound-unit_disc-samples512": ["bound", "--domain", "unit_disc", "--samples", "512"],
        # an odd count puts no sample pair across a diameter; the same formulas are listed
        "bound-unit_disc-samples511": ["bound", "--domain", "unit_disc", "--samples", "511"],
        "bound-tan_disc-samples4095": ["bound", "--domain", "tan_disc", "--samples", "4095"],
        "bound-half_disc-samples300-n4": ["bound", "--domain", "half_disc", "--samples", "300", "--n", "4"],
        "mecb-tan_disc-samples1024": ["mecb", "--domain", "tan_disc", "--samples", "1024"],
        "verify-unit_disc-samples48-r2": ["verify", "--domain", "unit_disc", "--samples", "48", "--refinement", "2"],
        "verify-unit_disc-samples48-fem24-r2": [
            "verify", "--domain", "unit_disc", "--samples", "48", "--fem-samples", "24", "--refinement", "2"
        ],
        "verify-half_disc-samples200-r1": ["verify", "--domain", "half_disc", "--samples", "200", "--refinement", "1"],
        # rejected input: exit 1, and numerical failures: exit 2
        "reject-bound-n1": ["bound", "--domain", "half_disc", "--n", "1"],
        "reject-bound-unknown-preset": ["bound", "--domain", "bowtei"],
        "reject-bound-missing-file": ["bound", "--domain", "/no/such/file.json"],
        "reject-bound-bad-json": ["bound", "--domain", "{not json"],
        "reject-bound-unit_disc-samples-cap": ["bound", "--domain", "unit_disc", "--samples", str(10**12)],
        "reject-bound-bowtie-samples-cap": ["bound", "--domain", "bowtie", "--samples", str(10**12)],
        "reject-mecb-samples2": ["mecb", "--domain", "unit_disc", "--samples", "2"],
        "reject-verify-fem-samples2": ["verify", "--domain", "unit_disc", "--fem-samples", "2", "--refinement", "0"],
        "reject-verify-refinement9": ["verify", "--domain", "bowtie", "--refinement", "9"],
        # a mesh boundary below the polygon's vertex count, once ignored
        "reject-verify-bowtie-fem-samples4": ["verify", "--domain", "bowtie", "--refinement", "1", "--fem-samples", "4"],
        "reject-fem-csv-single": ["fem", "--domain", "unit_disc", "--output", "csv"],
        "reject-fem-table-refinement-negative": ["fem", "--domain", "bowtie", "--refinement", "-1", "--table"],
        # rejected before level 0 is solved, as the single-level form rejects it
        "reject-fem-table-refinement9": ["fem", "--domain", "bowtie", "--refinement", "9", "--table"],
        "reject-reproduce-unknown": ["reproduce", "nonsense"],
        "reject-pzero-missing-n": ["pzero"],
        "reject-pzero-n1": ["pzero", "--n", "1"],
        "reject-qc-nothing": ["qc"],
        "reject-qc-matrix-and-beta": ["qc", "--matrix", "2", "0", "0", "1", "--beta", "0.5"],
        "reject-qc-gamma-non-numeric": ["qc", "--beta", "0.5", "--gamma", "-x"],
        "reject-mikhlin-R-below-1": ["mikhlin", "--n", "3", "--R", "0.5"],
        "reject-mikhlin-R800-numerical": ["mikhlin", "--n", "3", "--R", "800"],
        # I_150 and K_150 one ulp above R = 1 round to their values at 1: the denominator is 0.0
        "reject-mikhlin-n302-R-one-ulp-numerical": ["mikhlin", "--n", "302", "--R", "1.0000000000000002"],
        # the root passes the scan's end, t = 20
        "reject-pzero-n420-numerical": ["pzero", "--n", "420"],
        "reject-fem-k4-triangle": ["fem", "--domain", json.dumps(_TRIANGLE), "--refinement", "0", "--k", "4"],
        # the fan passes; refinement flattens a child of the sliver at the 1e-13 edge
        "reject-fem-tiny-edge-r1": ["fem", "--domain", json.dumps(_TINY_EDGE), "--refinement", "1"],
        # every triangle passes the area check, but slivers spoil the spectrum; the message names the worst
        "reject-fem-slivers-r1": ["fem", "--domain", json.dumps(_SLIVERS), "--refinement", "1"],
        # mu_1 scales as side^-2 and leaves the float range near side 1e-154
        "reject-bound-square-1e-155-numerical": ["bound", "--domain", json.dumps(_square(1e-155, convex=True))],
        "reject-fem-square-1e-154-r1-numerical": ["fem", "--domain", json.dumps(_square(1e-154)), "--refinement", "1"],
        # sigma is finite, but the upper eigenvalues are not
        "reject-fem-square-2.5e-154-r1-numerical": [
            "fem", "--domain", json.dumps(_square(2.5e-154)), "--refinement", "1"
        ],
        # (1 + K)^2 leaves the float range for K above about 1.34e154
        "reject-bound-bowtie-K1e160-numerical": [
            "bound", "--domain", json.dumps({"kind": "named", "name": "bowtie", "K": 1e160})
        ],
    })
    json_rejects = {
        "samples-cap-polygon": {**_SQUARE, "samples": 2**21},
        "samples-cap-sampler": {"kind": "sampler", "name": "unit_disc", "samples": 2**21},
        "samples-float": {"kind": "named", "name": "unit_disc", "samples": 64.0},
        "dim-fraction": {"kind": "named", "name": "half_disc", "dim": 2.7},
        "null-K": {"kind": "named", "name": "bowtie", "K": None},
        "unknown-key": {"kind": "named", "name": "bowtie", "radius": 1},
        "sampler-vertices": {"kind": "sampler", "name": "unit_disc", "vertices": [[0, 0], [5, 0], [5, 5]]},
        "reflex-declared-convex": {"kind": "named", "name": "bowtie", "convex": True},
        "vertices-huge": {"kind": "polygon", "vertices": [[0, 0], [1e200, 0], [0, 1e200]]},
        "K-huge-int": {"kind": "named", "name": "bowtie", "K": 10**400},
        "self-intersecting": {"kind": "polygon", "vertices": [[0, 0], [2, 2], [2, 0], [0, 1]]},
        # two triangles that meet only at a repeated vertex: the interior is disconnected
        "pinched": {"kind": "polygon", "vertices": [[0, 0], [2, 0], [1, 1], [2, 2], [0, 2], [1, 1]], "K": 2},
        "unknown-sampler": {"kind": "sampler", "name": "blob"},
        "named-without-name": {"kind": "named"},
    }
    for label, spec in json_rejects.items():
        cases[f"reject-bound-{label}"] = ["bound", "--domain", json.dumps(spec)]
    # coordinates given as JSON numbers of either type
    bool_vertex = {"kind": "polygon", "vertices": [[True, 0], [2, 0], [0, 1.5]]}
    big_int = {"kind": "polygon", "vertices": [[0, 0], [2, 0], [0, 10**22]]}
    cases["mecb-bool-vertex"] = ["mecb", "--domain", json.dumps(bool_vertex)]
    cases["mecb-int-beyond-int64"] = ["mecb", "--domain", json.dumps(big_int)]
    return cases


CASES = _cases()


def render(argv: list[str]) -> str:
    """The command line, exit status, stdout and stderr of one run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return (
        f"$ neubound {shlex.join(argv)}\nexit {code}\n"
        f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    )


def test_golden_files_match_the_cases():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, monkeypatch):
    monkeypatch.delenv(cli.PRECISION_ENV, raising=False)
    assert render(CASES[case]) == (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")


def regenerate() -> None:
    os.environ.pop(cli.PRECISION_ENV, None)
    GOLDEN.mkdir(exist_ok=True)
    for stale in set(GOLDEN.glob("*.txt")) - {GOLDEN / f"{c}.txt" for c in CASES}:
        stale.unlink()
        sys.stdout.write(f"removed {stale.stem}\n")
    for case, argv in CASES.items():
        path, text = GOLDEN / f"{case}.txt", render(argv)
        if not path.exists() or path.read_text(encoding="utf-8") != text:
            path.write_text(text, encoding="utf-8")
            sys.stdout.write(f"rewrote {case}\n")
    sys.stdout.write(f"checked {len(CASES)} cases in {GOLDEN}\n")


if __name__ == "__main__":
    regenerate()
