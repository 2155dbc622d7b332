"""Benchmark worker: set up one workload, say "ready", then run it timed.

Started by run.py, which times set-up from process start to the "ready"
line.  The last stdout line is a JSON document with the run's metrics,
metadata and per-op records.  --probe exits right after "ready".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import neubound

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not Path(neubound.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"perfbench: imported neubound from {neubound.__file__}, not from {ROOT / 'src'}")

import hostspeed  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PREGENERATED_BLOCKS = 10  # more than a run uses; later ones are made on demand
CLI_COMMANDS = ("pzero", "qc", "mikhlin", "bound", "reproduce", "verify")
FLOOR_RUNS = 5
_perf = time.perf_counter


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _median(values):
    return float(np.median(values)) if values else 0.0


def _run_op(op, traced, tracer, records):
    """Run one op, appending (op, traced, start, end, result, error, spans)."""
    op_id = len(records)
    tracer.op = op_id
    first = len(tracer.spans)
    start = _perf()
    try:
        result, error = op.run(traced), None
    except Exception as exc:  # every failure is counted, none stops the run
        result, error = None, f"{type(exc).__name__}: {exc}"
    end = _perf()
    spans = tracer.spans[first:] if traced else []
    if traced and isinstance(result, dict) and result.get("spans"):
        # spans recorded inside a CLI process: make their ids unique
        spans = [
            [op_id, (op_id, s[1]), None if s[2] is None else (op_id, s[2]), *s[3:]]
            for s in result["spans"]
        ]
    records.append((op, traced, start, end, result, error, spans))


def _timed_phase(stream, blocks, seconds, trace):
    """Run whole blocks until `seconds` of op time have passed.  Returns the
    records, the timed wall time, the block count, and host-speed probes
    taken before every op and after the last.  A traced run plays every op
    twice, untraced and traced, alternating which goes first, so both see
    the same input and the same host."""
    tracer = tracing.Tracer()
    records, probes = [], []
    deadline = seconds * 1.5 + 10.0  # bounds a run whose blocks got far slower
    start = _perf()
    paused = 0.0
    index = 0
    while _perf() - start - paused < seconds:
        ops = blocks[index] if index < len(blocks) else stream.block(index)
        for i, op in enumerate(ops):
            if _perf() - start > deadline:
                break
            for traced in (i % 2 == 1, i % 2 == 0) if trace else (False,):
                before = _perf()
                probes.append(hostspeed.probe_ms())
                paused += _perf() - before
                if traced:
                    tracer.instrument()
                try:
                    _run_op(op, traced, tracer, records)
                finally:
                    tracer.restore()
        index += 1
    probes.append(hostspeed.probe_ms())
    return records, _perf() - start - paused, index, probes


def _check(records):
    """Audit every result; returns per-op problem lists."""
    out = []
    for op, _, _, _, result, error, _ in records:
        if error is not None:
            out.append([error])
            continue
        try:
            out.append(op.check(result))
        except Exception as exc:  # a malformed result is a failed op
            out.append([f"check raised {type(exc).__name__}: {exc}"])
    return out


def _floor_and_import():
    """Median wall of `python -c pass` and median in-process `import neubound`."""
    env = workloads.cli_env()
    floor, imports = [], []
    probe = "import time; t = time.perf_counter(); import neubound; print(time.perf_counter() - t)"
    for _ in range(FLOOR_RUNS):
        t0 = _perf()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True, timeout=30)
        floor.append(_perf() - t0)
        out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT, check=True,
                             timeout=30, capture_output=True, text=True)
        imports.append(float(out.stdout))
    return 1e3 * _median(floor), 1e3 * _median(imports)


def _trace_metrics(records):
    traced = [r for r in records if r[1]]
    untraced_wall = sum(r[3] - r[2] for r in records if not r[1])
    spans = [s for r in traced for s in r[6]]
    out = tracing.layer_metrics(spans, len(traced))
    wall = sum(r[3] - r[2] for r in traced)
    gap = 0.0
    problems = []
    for op, _, start, end, _, _, op_spans in traced:
        problems += tracing.nesting_problems(op_spans, start, end)
        gap += (end - start) - sum(s[5] - s[4] for s in op_spans if s[2] is None)
    out["trace.gap_frac"] = gap / wall if wall > 0 else 0.0
    out["trace.overhead_frac"] = wall / untraced_wall - 1.0 if untraced_wall else 0.0
    floor_ms, import_ms = _floor_and_import()
    out["cli.python_floor_ms"] = floor_ms
    out["cli.import_ms"] = import_ms
    for command in CLI_COMMANDS:
        walls = [1e3 * (r[3] - r[2]) for r in records
                 if not r[1] and r[0].cls == f"cli_{command}" and r[5] is None]
        out[f"cli.{command}.ms"] = _median(walls)
    return out, problems


def _unit(name):
    if name == "ops_per_s":
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if ".us_per_" in name:
        return "us"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--wrong-reference", action="store_true",
                        help="scale every reference by 1.5, for the smoke test")
    parser.add_argument("--probe", action="store_true", help="exit after set-up")
    args = parser.parse_args()

    if args.wrong_reference:
        reference.WRONG_REFERENCE_FACTOR = 1.5
    (HERE / "results").mkdir(exist_ok=True)
    stream = workloads.STREAMS[args.workload](args.seed, small=args.small)
    blocks = [stream.block(i) for i in range(PREGENERATED_BLOCKS)]
    workloads.warm_up(args.workload)
    print("ready", flush=True)
    if args.probe:
        return 0

    records, wall, blocks_run, probes = _timed_phase(stream, blocks, args.seconds, args.trace)
    problems = _check(records)
    failed = sum(1 for p in problems if p)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blocks": blocks_run,
        "timed_wall_s": wall,
        "host_probe_ms": _median(probes),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "neubound": neubound.__version__,
        "machine": platform.machine(),
    }
    ok = [not p for p in problems]
    trace_problems = []
    if args.trace:
        metrics, trace_problems = _trace_metrics(records)
        meta["trace_problems"] = trace_problems[:20]
    else:
        raw = np.array([1e3 * (r[3] - r[2]) for r in records])
        # each op at the host speed around it: probes just before and after
        slowness = 0.5 * (np.array(probes[:-1]) + probes[1:]) / hostspeed.REFERENCE_MS
        lat = list((raw / slowness)[ok])
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        p90 = _percentile(lat, 90)
        metrics = {
            "op_p50_ms": _percentile(lat, 50),
            "op_p90_ms": p90,
            "ops_per_s": 1e3 * sum(ok) / (raw / slowness).sum(),
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        }
        meta["ops_beyond_p90"] = sum(1 for x in lat if x > p90)
        meta["raw"] = {
            "op_p50_ms": _percentile(list(raw[ok]), 50),
            "op_p90_ms": _percentile(list(raw[ok]), 90),
            "ops_per_s": sum(ok) / wall,
        }
    meta["failed_frac"] = failed / max(len(records), 1)
    ops = []
    for i, ((op, traced, start, end, result, _, _), prob) in enumerate(zip(records, problems)):
        entry = {"id": i, "class": op.cls, "traced": traced, "ms": 1e3 * (end - start), **op.info}
        if not prob:
            entry.update(op.sizes(result))
        else:
            entry["problems"] = prob[:3]
        ops.append(entry)
    doc = {
        "correct": failed == 0 and not trace_problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
        "meta": meta,
        "ops": ops,
    }
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
