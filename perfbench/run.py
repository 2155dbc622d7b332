"""neubound benchmark: time one workload and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Workloads: certify, verify, cli (see perfbench/README.md).  --trace 0
prints the end-to-end metrics, --trace 1 the per-layer ones.  The last
stdout line is a JSON object with correct, attempted, failed and metrics;
the full record (metadata, every op) goes to perfbench/results/.

The benchmark runs the package from src/ next to this directory, pins the
BLAS pools to one thread, and measures set-up (process start to the first
timed op) in SETUP_SAMPLES fresh processes, reporting the median.  All
timings are reported at a reference host speed (see hostspeed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "verify", "cli")
HELD_OUT_SEED = 20171016  # not used while writing the benchmark; see README
BLAS_THREADS = 1
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # the whole run, probes included, ends well inside 180 s
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def _start_worker(cmd, env, deadline):
    """Start a worker; return (process, kill timer, seconds until "ready"
    at the reference host speed, raw seconds)."""
    slowness = hostspeed.slowness([hostspeed.probe_ms() for _ in range(5)])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    killer.daemon = True
    killer.start()
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        killer.cancel()
        raise RuntimeError(f"worker did not get ready: {line.strip()!r}")
    return proc, killer, setup / slowness, setup


def _finish(proc, killer):
    out = proc.stdout.read()
    code = proc.wait()
    killer.cancel()
    if code != 0:
        raise RuntimeError(f"worker exited with status {code}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs (smoke test)")
    parser.add_argument("--wrong-reference", action="store_true", help="corrupt every reference (smoke test)")
    args = parser.parse_args()

    if not (ROOT / "src" / "neubound" / "__init__.py").is_file():
        print(f"perfbench: no neubound package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ)
    env.update({name: str(BLAS_THREADS) for name in BLAS_ENV})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    cmd += ["--small"] * args.small + ["--wrong-reference"] * args.wrong_reference

    try:
        proc, killer, setup, raw = _start_worker(cmd, env, deadline)
        doc = json.loads(_finish(proc, killer).strip().splitlines()[-1])
        setups, raws = [setup], [raw]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, killer, setup, raw = _start_worker(cmd + ["--probe"], env, deadline)
                _finish(proc, killer)
                setups.append(setup)
                raws.append(raw)
    except (RuntimeError, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = doc["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    meta = doc["meta"]
    meta.update(
        held_out_seed=HELD_OUT_SEED,
        git_sha=_git_sha(),
        setup_samples_s=setups,
        raw_setup_samples_s=raws,
        command=sys.argv,
    )
    out_path = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(doc, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{doc['attempted']} ops, {doc['failed']} failed, {meta['blocks']} blocks, "
          f"blas_threads={meta['blas_threads']} nproc={meta['cpu_count']}")
    for name, metric in sorted(metrics.items()):
        print(f"  {name:48s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'failed_frac':48s} {meta['failed_frac']:14.6g} ratio")
    print("  meta: " + json.dumps({k: meta[k] for k in (
        "seed", "held_out_seed", "git_sha", "cpu_count", "blas_threads",
        "python", "numpy", "scipy", "neubound", "host_probe_ms")}))
    print(f"  record: {out_path.relative_to(ROOT)}")
    for op in doc["ops"]:
        if "problems" in op:
            print(f"  failed op {op['id']} ({op['class']}): {op['problems'][0]}", file=sys.stderr)
            break
    print(json.dumps({k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
