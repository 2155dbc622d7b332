"""Command-line surface: eigenvalue bounds, extension norms, meshes, reports.

Every command writes a single JSON document (or CSV, for tabular reports)
to standard output; notes and discrepancy warnings go to standard error.
Exit status 0 is success, 1 an input or validation problem, 2 a numerical
failure.  Floats are printed with NEUBOUND_PRECISION significant digits
(default 10); NaN and infinities, which JSON lacks, are numerical failures.
Runs with identical flags are byte-identical.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import re
import sys

from .errors import NumericalError, check_int

PRECISION_ENV = "NEUBOUND_PRECISION"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)  # subparsers are made with this class too
        # argparse's negative-number pattern, ^-\d+$|^-\d*\.\d+$, with an exponent allowed:
        # without one, "--gamma -9.3e-05" takes -9.3e-05 for an option and fails, "expected one argument"
        self._negative_number_matcher = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")

    def error(self, message):  # route argparse failures to exit status 1, as any ValueError
        raise ValueError(message)


def _precision() -> int:
    raw = os.environ.get(PRECISION_ENV, "10")
    try:
        digits = int(raw)
    except ValueError:
        raise ValueError(f"{PRECISION_ENV} must be an integer, got {raw!r}") from None
    return check_int(PRECISION_ENV, digits, 1, 17)


def _round_floats(obj, digits: int):
    if hasattr(obj, "tolist"):  # a NumPy scalar or array, as Python values
        obj = obj.tolist()
    if isinstance(obj, float):
        if not math.isfinite(obj):  # NaN and Infinity are not JSON
            raise NumericalError(f"the report holds a non-finite value, {obj}")
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, dict):
        return {str(k): _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj


def _csv_rows(report: dict):
    for key in ("rows", "bounds"):
        rows = report.get(key)
        if isinstance(rows, list) and rows and all(isinstance(r, dict) for r in rows):
            return rows
    return None


def _flatten(row: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in row.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, name + "."))
        elif isinstance(value, (list, tuple)):
            flat[name] = json.dumps(value)
        else:
            flat[name] = value
    return flat


def _emit(report: dict, output: str, digits: int) -> None:
    report = _round_floats(report, digits)
    if output == "json":
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
        return
    rows = _csv_rows(report)
    if rows is None:
        raise ValueError("this report has no tabular view; use --output json")
    import csv

    flat = [_flatten(r) for r in rows]
    fields = list(dict.fromkeys(k for r in flat for k in r))  # each column once, in order of first use
    writer = csv.DictWriter(sys.stdout, fieldnames=fields, restval="", lineterminator="\n")
    writer.writeheader()
    writer.writerows(flat)


def _warn(lines) -> None:
    for line in lines:
        sys.stderr.write(f"warning: {line}\n")


# Each handler takes the parsed arguments and the one neubound module its
# command calls, which main imports after parsing, so a process loads NumPy
# and SciPy only when its command needs them.  Calls go through the module
# attributes, which a tracer may wrap.
def _cmd_pzero(args, special) -> dict:
    return {"n": args.n, "p": special.p_zero(args.n, tol=args.tol)}


def _cmd_mikhlin(args, extension_norms) -> dict:
    import dataclasses

    est = extension_norms.mikhlin_ball_norm_sq(args.n, args.big_r)
    return {"n": args.n, "R": args.big_r, **dataclasses.asdict(est)}


def _cmd_mikhlin_star(args, extension_norms) -> dict:
    import dataclasses

    data = extension_norms.StarShapeData(m1=args.m1, m2=args.m2, m3=args.m3, n=args.n, big_r=args.big_r)
    est = extension_norms.mikhlin_star_norm_sq_bound(data)
    ball = extension_norms.mikhlin_ball_norm_sq(args.n, args.big_r)
    return {
        "m1": args.m1,
        "m2": args.m2,
        "m3": args.m3,
        "n": args.n,
        "R": args.big_r,
        "ball_value_sq": ball.value_sq,
        **dataclasses.asdict(est),
    }


def _cmd_qc(args, qcmaps) -> dict:
    if args.matrix:
        if args.beta is not None or args.gamma is not None:
            raise ValueError("qc takes either --matrix or --beta (with --gamma), not both")
        matrices = [[row[:2], row[2:]] for row in args.matrix]
        if len(matrices) == 1:
            return {"kind": "affine", "K": qcmaps.affine_qc_coefficient(matrices[0])}
        return {
            "kind": "piecewise_affine",
            "pieces": len(matrices),
            "K": qcmaps.piecewise_qc_coefficient(matrices),
        }
    if args.beta is None:
        raise ValueError("qc needs either --matrix or --beta")
    if args.gamma is not None:
        return {
            "kind": "spiral",
            "beta": args.beta,
            "gamma": args.gamma,
            "K": qcmaps.spiral_shaped_K(args.beta, args.gamma),
        }
    return {"kind": "star", "beta": args.beta, "K": qcmaps.star_shaped_K(args.beta)}


def _domain(args, **flags):
    """The --domain spec with each flag given set as its spec field, checked like the JSON key."""
    import dataclasses

    from . import geometry

    spec = geometry.load_domain_spec(args.domain)
    flags = {field: value for field, value in flags.items() if value is not None}
    return dataclasses.replace(spec, **flags) if flags else spec


def _cmd_mecb(args, _geometry) -> dict:  # _domain reads the spec through geometry
    spec = _domain(args, samples=args.samples)
    count, _, ball = spec.measurement
    return {"domain": spec.name, "points_used": count, "center": ball.center, "radius": ball.radius}


def _cmd_bound(args, bounds) -> dict:
    report = bounds.best_bound_report(_domain(args, samples=args.samples, dim=args.n))
    _warn(report.notes)
    return report.as_dict()


def _cmd_fem(args, fem) -> dict:
    spec = _domain(args)
    top = fem.triangulate(spec, refinement=args.refinement, samples=args.samples)  # before any solve
    rows = []
    for level in range(0 if args.table else args.refinement, args.refinement + 1):
        mesh = top if level == args.refinement else fem.triangulate(spec, level, args.samples)
        result = fem.neumann_eigenvalues(mesh, k=args.k)
        row = {"refinement": level, "dof_count": result.dof_count, "mesh_size": result.mesh_size}
        if not args.table:
            row["eigenvalues"] = list(result.eigenvalues)
        rows.append({**row, "mu1": result.eigenvalues[1]})
    return {"domain": spec.name, "rows": rows} if args.table else {"domain": spec.name, **rows[0]}


def _cmd_verify(args, fem) -> dict:
    record = fem.verify_bound(
        _domain(args, samples=args.samples),
        refinement=args.refinement,
        k=args.k,
        fem_samples=args.fem_samples,
        strict=not args.allow_violation,
    )
    _warn(record["notes"])
    if not record["all_satisfied"]:
        _warn(["at least one bound is not below the finite-element eigenvalue"])
    return record


def _cmd_reproduce(args, reproduce) -> dict:
    report = reproduce.reproduce(args.example)
    _warn(report.get("discrepancies", []))
    return report


def _examples() -> dict:  # the keywords of reproduce's argument, which lists the examples
    from . import reproduce  # so only reproduce's parser imports them

    return {"help": f"one of: {', '.join(reproduce.example_names())}"}


# an argument is add_argument's flag and keywords, or a function that returns the keywords
_OUTPUT = (
    "--output",
    {"choices": ("json", "csv"), "default": "json", "help": "serialization format (csv only for tabular reports)"},
)
_DOMAIN = ("--domain", {"required": True, "help": "preset name, JSON file, or inline JSON"})
_SAMPLES_HELP = 'the spec\'s "samples": a sampler\'s boundary resolution; a polygon rejects it'
_SAMPLES = ("--samples", {"type": int, "help": _SAMPLES_HELP})
_K = ("--k", {"type": int, "default": 4, "help": "how many eigenvalues, 2..10"})

_COMMANDS = {  # name: (handler, the module it calls, help, its arguments after --output)
    "pzero": (_cmd_pzero, "special", "first zero of the radial Neumann condition", (
        ("--n", {"type": int, "required": True, "help": "ambient dimension, n >= 2"}),
        ("--tol", {"type": float, "default": 1e-10, "help": "bisection tolerance"}),
    )),
    "mikhlin": (_cmd_mikhlin, "extension_norms", "squared two-ball extension norm", (
        ("--n", {"type": int, "required": True, "help": "ambient dimension, n >= 3"}),
        ("--R", {"dest": "big_r", "type": float, "required": True, "help": "outer radius > 1"}),
    )),
    "mikhlin-star": (_cmd_mikhlin_star, "extension_norms", "star-shaped extension norm bound", (
        ("--m1", {"type": float, "required": True, "help": "lower radial bound"}),
        ("--m2", {"type": float, "required": True, "help": "upper radial bound"}),
        ("--m3", {"type": float, "required": True, "help": "angular derivative bound"}),
        ("--n", {"type": int, "required": True, "help": "ambient dimension, n >= 3"}),
        ("--R", {"dest": "big_r", "type": float, "required": True, "help": "outer radius > m2"}),
    )),
    "qc": (_cmd_qc, "qcmaps", "quasiconformality coefficient of a map", (
        ("--matrix", {
            "type": float, "nargs": 4, "action": "append", "metavar": ("A", "B", "C", "D"),
            "help": "row-major 2x2 Jacobian; repeat for piecewise maps; not with --beta or --gamma",
        }),
        ("--beta", {"type": float, "help": "star-shape parameter in [0, 1)"}),
        ("--gamma", {"type": float, "help": "spiral twist, |gamma| < beta*pi/2"}),
    )),
    "mecb": (_cmd_mecb, "geometry", "minimum enclosing ball of a domain's boundary", (_DOMAIN, _SAMPLES)),
    "bound": (_cmd_bound, "bounds", "every applicable eigenvalue lower bound", (
        _DOMAIN,
        ("--n", {"type": int, "help": 'ambient dimension: the spec\'s "dim"'}),
        _SAMPLES,
    )),
    "fem": (_cmd_fem, "fem", "finite-element Neumann eigenvalues", (
        _DOMAIN,
        ("--refinement", {"type": int, "default": 3, "help": "uniform refinement levels"}),
        ("--samples", {"type": int, "help": "mesh boundary sample count"}),
        _K,
        ("--table", {"action": "store_true", "help": "emit a convergence table over refinements 0..R"}),
    )),
    "verify": (_cmd_verify, "fem", "check all bounds against the mesh eigenvalue", (
        _DOMAIN,
        ("--refinement", {"type": int, "default": 4, "help": "uniform refinement levels"}),
        _SAMPLES,
        ("--fem-samples", {"type": int, "help": "mesh boundary sample count"}),
        _K,
        ("--allow-violation",
         {"action": "store_true", "help": "report violations instead of failing with exit status 2"}),
    )),
    "reproduce": (_cmd_reproduce, "reproduce", "recompute a worked example", (("example", _examples),)),
}


def _build_parser(names=_COMMANDS) -> _Parser:
    """The parser with a subparser for each command in names."""
    parser = _Parser(prog="neubound", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        _, _, help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in (_OUTPUT, *arguments):
            p.add_argument(flag, **(keywords() if callable(keywords) else keywords))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command line that starts with a command builds that command's parser alone;
    # --help, no command or an unknown one build them all, to list them
    parser = _build_parser(argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS)
    try:
        args = parser.parse_args(argv)
        digits = _precision()  # before the command, which may run for seconds
        handler, module = _COMMANDS[args.command][:2]
        report = handler(args, importlib.import_module(f".{module}", __package__))
        _emit(report, args.output, digits)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ArithmeticError as exc:  # NumericalError is one
        sys.stderr.write(f"numerical error: {exc}\n")
        return 2
    return 0


def run() -> None:
    """The `neubound` script: main() on sys.argv, then exit with its status.

    A command is one short run, so the cyclic collector is off while it
    runs: its passes over the objects imports make cost more than the
    little cyclic garbage a run leaves (medians of 30 fresh processes on a
    2-vCPU host: verify 324 -> 309 ms, bound 117 -> 114 ms; peak memory up
    by under 0.5 MB).  The interpreter's last collection, which runs even
    so, would walk every object NumPy and SciPy made; gc.freeze() moves
    them out of its reach.  atexit handlers and stream flushing still run.
    Not part of main(), which tests call many times in one process.
    """
    gc.disable()
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
