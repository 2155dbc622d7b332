"""Seeded inputs for the three workloads, as blocks of operations.

A block is a fixed mix of operation classes; the seed draws the shapes,
sizes and parameters inside each class.  Every block of a workload costs
about the same, so runs on different seeds measure the same mix, and a run
always times whole blocks.

  certify  load_domain_spec + best_bound_report on unique domain requests,
           plus a minority of Mikhlin star-norm requests.  No FEM.
  verify   ladders of verify_bound(spec, refinement=r) over consecutive r on
           one domain, spanning the dense and sparse eigensolver paths.
  cli      fresh `python -m neubound.cli` processes, one at a time.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref
from neubound import bounds, extension_norms, fem, geometry

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "verify", "cli")
SAMPLERS = ("unit_disc", "half_disc", "tan_disc")
EXAMPLES = ("bowtie", "half_ball", "mikhlin_table", "pzero_table", "tan_star")
DOF_CAP = 19_000  # under the package's supported 20,000 unknowns
CLI_TIMEOUT_S = 60


@dataclass
class Op:
    """One timed operation: run() does the work, check() audits its result."""

    cls: str
    run: Callable[[bool], Any]
    check: Callable[[Any], list[str]]
    info: dict = field(default_factory=dict)
    sizes: Callable[[Any], dict] = lambda result: {}


# ---------------------------------------------------------------------------
# shapes


def _star_vertices(rng, m, symmetric=False, min_gap=1e-6):
    """Radial polygon about the origin: sorted angles, gaps below 0.9 pi and
    above min_gap times the mean gap."""
    while True:
        k = m // 2 if symmetric else m
        span = math.pi if symmetric else 2.0 * math.pi
        theta = np.sort(rng.uniform(0.0, span, k))
        radius = rng.uniform(0.55, 1.0, k)
        if symmetric:
            theta = np.concatenate([theta, theta + math.pi])
            radius = np.concatenate([radius, radius])
        gaps = np.diff(np.concatenate([theta, theta[:1] + 2.0 * math.pi]))
        if gaps.max() < 0.9 * math.pi and gaps.min() > min_gap * 2.0 * math.pi / m:
            return np.c_[radius * np.cos(theta), radius * np.sin(theta)]


def _place(rng, vertices):
    """Random similarity: scale, rotation, translation.
    Returns (vertices, offset, scale)."""
    scale = rng.uniform(0.5, 2.0)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    offset = rng.uniform(-2.0, 2.0, 2)
    return scale * vertices @ rot.T + offset, offset, scale


def _convex_vertices(rng, m):
    theta = np.sort(rng.uniform(0.0, 2.0 * math.pi, m))
    a, b = rng.uniform(0.5, 2.0, 2)
    return np.c_[a * np.cos(theta), b * np.sin(theta)]


def _grid(rng, lo, hi, count, j):
    """A size drawn log-uniformly from stratum j of count equal log strata
    of [lo, hi]: every block covers the whole range the same way."""
    return int(round(lo * (hi / lo) ** ((j + rng.uniform()) / count)))


# ---------------------------------------------------------------------------
# certify


def _certify_request(req, meta, expect, cls, info):
    def run(traced):
        spec = geometry.load_domain_spec(req)
        return bounds.best_bound_report(spec).as_dict()

    def check(report):
        return ref.check_geometry(report["geometry"], expect) + ref.check_bounds(report, meta, expect)

    def sizes(report):
        return {"boundary_points": report["geometry"]["boundary_points"]}

    return Op(cls, run, check, info, sizes)


def _mikhlin_star_op(rng):
    m1 = rng.uniform(1.0, 1.5)
    params = {
        "m1": m1,
        "m2": m1 + rng.uniform(0.0, 1.0),
        "m3": rng.uniform(0.0, 1.0),
        "n": int(rng.integers(3, 9)),
    }
    params["big_r"] = params["m2"] + rng.uniform(0.5, 3.0)

    def run(traced):
        data = extension_norms.StarShapeData(**params)
        return extension_norms.mikhlin_star_norm_sq_bound(data).value_sq

    def check(value):
        return ref.close(value, ref.mikhlin_star(**params), 1e-8, "star norm")

    return Op("mikhlin_star", run, check, {"n": params["n"]})


class CertifyStream:
    """Per block: 30 star polygons (8..400 vertices), 10 convex polygons
    (3..200), 15 sampler requests (5 sizes per family) and 5 Mikhlin
    star-norm requests.  Sizes are stratified over log ranges.

    tan_disc runs up to 16,384 samples; unit_disc and half_disc stop at
    8,192, where their O(h^2) diameter already costs over a second: at
    16,384 one op each took 5 s and 2 s, leaving too few ops per run for a
    steady median."""

    VARIANTS = ("beta", "K", "symmetric", "none")
    TOP_SAMPLES = {"unit_disc": 8192, "half_disc": 8192, "tan_disc": 16384}

    def __init__(self, seed, small=False):
        self.seed, self.small = seed, small
        self.seen = set()

    def block(self, index):
        rng = np.random.default_rng([self.seed, index])
        ops = []
        stars, convex, sizes, norms = (6, 3, 2, 2) if self.small else (30, 10, 5, 5)
        for j in range(stars):
            m = _grid(rng, 8, 400, 30, j)
            ops.append(self._star(rng, m, self.VARIANTS[(j + index) % 4]))
        for j in range(convex):
            m = _grid(rng, 3, 200, 10, j)
            verts, _, _ = _place(rng, _convex_vertices(rng, m))
            req = {"kind": "polygon", "vertices": verts.tolist(), "convex": True}
            ops.append(_certify_request(req, {"convex": True}, {"vertices": verts}, "convex_polygon", {"m": m}))
        for k in range(sizes):
            for f, name in enumerate(SAMPLERS):
                n = 2 + (k + f + index) % 7 if name == "half_disc" else 2
                m = _grid(rng, 256, self.TOP_SAMPLES[name], 5, k)
                ops.append(self._sampler(name, m, n))
        for _ in range(norms):
            ops.append(_mikhlin_star_op(rng))
        rng.shuffle(ops)
        return ops

    def _star(self, rng, m, variant):
        symmetric = variant == "symmetric"
        m += m % 2 if symmetric else 0
        verts, offset, _ = _place(rng, _star_vertices(rng, m, symmetric))
        req = {"kind": "polygon", "vertices": verts.tolist()}
        meta = {}
        if variant == "beta":
            meta["beta"] = req["beta"] = float(rng.uniform(0.0, 0.8))
        if variant in ("K", "symmetric"):
            meta["K"] = req["K"] = float(rng.uniform(1.0, 4.0))
        if symmetric:
            req["symmetry_center"] = offset.tolist()
        return _certify_request(req, meta, {"vertices": verts}, "star_polygon", {"m": m, "variant": variant})

    def _sampler(self, name, m, n):
        while (name, m, n) in self.seen:  # requests are unique within a run
            m -= 1
        self.seen.add((name, m, n))
        req = {"kind": "named", "name": name, "samples": m}
        if n != 2:
            req["dim"] = n
        d, r = ref.PRESET_GEOMETRY[name]
        meta = {
            "unit_disc": {"K": 1.0, "convex": True},
            "half_disc": {"norm_sq": 2.0, "convex": True, "n": n},
            "tan_disc": {"beta": 0.5},
        }[name]
        expect = {"diameter": d, "radius": r, "samples": m}
        return _certify_request(req, meta, expect, f"sampler_{name}", {"samples": m, "n": n})


# ---------------------------------------------------------------------------
# verify


def _ladder(cls, spec, boundary, exact_mu1, expect, polygon, top_dof):
    """Ops for verify_bound at r = 1 .. r_max on a mesh with `boundary`
    boundary points, keeping the finest mesh under top_dof unknowns."""
    rungs = [r for r in range(1, 9) if ref.fan_dof(boundary, r) <= top_dof]
    state = {}  # previous rung's mu_1: conforming spaces nest on polygons
    ops = []
    for r in rungs:
        def run(traced, r=r):
            return fem.verify_bound(spec, refinement=r, fem_samples=boundary)

        def check(record, r=r):
            if r == rungs[0]:
                state.clear()  # a ladder may be run more than once
            problems = ref.check_geometry(record["geometry"], expect)
            problems += ref.check_spectrum(record, exact_mu1)
            if record["dof_count"] != ref.fan_dof(boundary, r):
                problems.append(f"dof {record['dof_count']} != fan count {ref.fan_dof(boundary, r)}")
            prev = state.get("mu1")
            if polygon and prev is not None and record["fem_mu1"] > prev * (1.0 + 1e-9):
                problems.append(f"mu1 rose under refinement on a polygon: {prev} -> {record['fem_mu1']}")
            state["mu1"] = record["fem_mu1"]
            return problems

        def sizes(record):
            return {"dof": record["dof_count"], "boundary_points": record["geometry"]["boundary_points"]}

        info = {"refinement": r, "fem_boundary": boundary, "dof": ref.fan_dof(boundary, r)}
        ops.append(Op(cls, run, check, info, sizes))
    return ops


class VerifyStream:
    """Per block: one ladder each on unit_disc, half_disc, tan_disc, bowtie,
    a rectangle, an equilateral triangle and a random star polygon.  The
    mesh boundary sizes BOUNDARY rotate over the seven domains from block to
    block, so every block meshes the same set of DOF counts (r = 1..5 spans
    37..17,953 DOF, both eigensolver paths)."""

    BOUNDARY = (12, 14, 17, 20, 24, 29, 34)

    def __init__(self, seed, small=False):
        self.seed, self.small = seed, small
        self.top_dof = 600 if small else DOF_CAP

    def block(self, index):
        rng = np.random.default_rng([self.seed, index])
        sizes = [self.BOUNDARY[(f + index) % 7] for f in range(7)]
        ladders = []
        for name, b in zip(SAMPLERS, sizes):
            d, r = ref.PRESET_GEOMETRY[name]
            expect = {"diameter": d, "radius": r, "samples": ref.PRESET_SAMPLES[name]}
            exact = None if name == "tan_disc" else ref.MU1_DISC
            ladders.append(self._ladder(name, geometry.named_domain(name), b, exact, expect, False))

        d, r = ref.PRESET_GEOMETRY["bowtie"]
        ladders.append(self._ladder("bowtie", geometry.named_domain("bowtie"), sizes[3], None,
                                    {"diameter": d, "radius": r}, True))

        aspect = rng.uniform(1.0, 2.5)
        verts, _, scale = _place(rng, np.array([[0.0, 0.0], [1.0, 0.0], [1.0, aspect], [0.0, aspect]]))
        exact = (math.pi / (scale * aspect)) ** 2
        ladders.append(self._polygon("rectangle", verts, sizes[4], exact))

        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
        verts, _, scale = _place(rng, tri)
        exact = 16.0 * math.pi**2 / (9.0 * scale**2)
        ladders.append(self._polygon("triangle", verts, sizes[5], exact))

        # near-coincident vertex angles make fan triangles so thin that the
        # dense eigh path loses the constant mode (lambda_0 ~ 5e-7 at 325
        # DOF); keep gaps above a fifth of the mean so no op fails by design
        m = int(rng.integers(6, 12))
        verts, offset, _ = _place(rng, _star_vertices(rng, m, min_gap=0.2))
        spec = geometry.load_domain_spec({"kind": "polygon", "vertices": verts.tolist(), "anchor": offset.tolist()})
        ladders.append(self._ladder("star_polygon", spec, sizes[6], None, {"vertices": verts}, True))

        rng.shuffle(ladders)
        return [op for ladder in ladders for op in ladder]

    def _polygon(self, cls, verts, boundary, exact):
        spec = geometry.load_domain_spec({"kind": "polygon", "vertices": verts.tolist(), "convex": True})
        return self._ladder(cls, spec, boundary, exact, {"vertices": verts}, True)

    def _ladder(self, cls, spec, boundary, exact, expect, polygon):
        return _ladder(cls, spec, boundary, exact, expect, polygon, self.top_dof)


# ---------------------------------------------------------------------------
# cli


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_cli(argv, spans_path=None):
    """Run one CLI process; traced runs go through the span-recording shim."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "neubound.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_shim.py"), str(spans_path), *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=cli_env(), cwd=ROOT, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def _cli_op(command, argv, check):
    def run(traced):
        spans_path = None
        if traced:
            spans_path = HERE / "results" / f"spans-{os.getpid()}.json"
        code, out, err = run_cli(argv, spans_path)
        spans = None
        if spans_path is not None and spans_path.exists():
            spans = json.loads(spans_path.read_text())
            spans_path.unlink()
        return {"code": code, "stdout": out, "stderr": err, "spans": spans}

    def check_result(result):
        if result["code"] != 0:
            return [f"exit {result['code']}: {result['stderr'].strip()[-300:]}"]
        try:
            doc = json.loads(result["stdout"])
        except json.JSONDecodeError as exc:
            return [f"stdout is not JSON: {exc}"]
        return check(doc)

    def sizes(result):
        try:
            doc = json.loads(result["stdout"])
        except json.JSONDecodeError:
            return {}
        out = {}
        if isinstance(doc.get("geometry"), dict):
            out["boundary_points"] = doc["geometry"].get("boundary_points")
        if "dof_count" in doc:
            out["dof"] = doc["dof_count"]
        return out

    return Op(f"cli_{command}", run, check_result, {"argv": argv}, sizes)


def _preset_expect(name, samples):
    d, r = ref.PRESET_GEOMETRY[name]
    if name == "bowtie":
        return {"diameter": d, "radius": r}
    return {"diameter": d, "radius": r, "samples": samples or ref.PRESET_SAMPLES[name]}


PRESET_META = {
    "bowtie": {"K": ref.BOWTIE_K},
    "unit_disc": {"K": 1.0, "convex": True},
    "half_disc": {"norm_sq": 2.0, "convex": True},
    "tan_disc": {"beta": 0.5},
}


def _check_reproduce(name, doc):
    p = ref.close
    if name == "pzero_table":
        return [e for row in doc["rows"] for e in p(row["computed"], ref.p_zero(row["n"]), 1e-8, f"p_zero({row['n']})")]
    if name == "mikhlin_table":
        return [
            e
            for row in doc["rows"]
            for e in p(row["computed"], ref.mikhlin_ball(row["n"], row["R"]), 1e-8, f"mikhlin({row['n']}, {row['R']})")
        ]
    if name == "bowtie":
        d, r = ref.PRESET_GEOMETRY["bowtie"]
        bound = (ref.p_zero(2) / r) ** 2 / (1.0 + ref.BOWTIE_K) ** 2
        inter = doc["intermediate"]
        return (
            p(inter["diameter"]["computed"], d, 1e-9, "bowtie diameter")
            + p(inter["enclosing_radius"]["computed"], r, 1e-9, "bowtie radius")
            + p(doc["bounds"]["enclosing_ball_form"]["computed"], bound, 1e-8, "bowtie bound")
        )
    if name == "half_ball":
        comp = doc["computed"]
        improves = {str(n): math.sqrt(2.0) <= 2.0 * ref.p_zero(n) / math.pi for n in range(3, 9)}
        problems = p(comp["bound_n4"]["computed"], ref.p_zero(4) ** 2 / 2.0, 1e-8, "half ball n=4")
        problems += p(comp["payne_weinberger"]["computed"], math.pi**2 / 4.0, 1e-9, "half ball pi^2/d^2")
        if comp["improves_for_n"] != improves:
            problems.append(f"improvement flags {comp['improves_for_n']} != {improves}")
        return problems
    d = doc["intermediate"]["sampled_diameter"]
    under, over = ref.sample_slack(ref.PRESET_SAMPLES["tan_disc"])
    bound = 4.0 * math.sin(math.pi / 8.0) ** 4 * (ref.p_zero(2) / d) ** 2
    return ref.within(d, 2.0 * math.tan(1.0), under, over, "tan_star diameter") + p(
        doc["computed"]["bound_from_sampled_diameter"], bound, 1e-8, "tan_star bound"
    )


class CliStream:
    """Per block: pzero, two qc (star or spiral beta, affine pieces),
    mikhlin, bound on each preset, one reproduce example and verify on each
    preset.  The example and the refinement (0..3) each preset is verified
    at follow the block index; the seed draws the numeric arguments."""

    def __init__(self, seed, small=False):
        self.seed, self.small = seed, small

    def block(self, index):
        rng = np.random.default_rng([self.seed, index])
        presets = ("bowtie",) + SAMPLERS
        n = int(rng.integers(2, 9))
        ops = [
            _cli_op("pzero", ["pzero", "--n", str(n)],
                    lambda doc: ref.close(doc["p"], ref.p_zero(n), 1e-9, "p_zero")),
            self._qc_beta(rng),
        ]
        if self.small:
            presets = presets[index % 4:][:1]
        else:
            ops.append(self._qc_matrix(rng))
            # odd n takes the closed-form route, even n the series route
            dim, big_r = 3 + index % 2 + 2 * int(rng.integers(0, 3)), round(float(rng.uniform(1.2, 4.0)), 6)
            ops.append(_cli_op("mikhlin", ["mikhlin", "--n", str(dim), "--R", repr(big_r)],
                               lambda doc: ref.close(doc["value_sq"], ref.mikhlin_ball(dim, big_r), 1e-8, "mikhlin")))
        example = EXAMPLES[index % len(EXAMPLES)]
        ops.append(_cli_op("reproduce", ["reproduce", example], lambda doc: _check_reproduce(example, doc)))
        for j, name in enumerate(presets):
            ops.append(self._bound(rng, name, index % 2 == 1))
            ops.append(self._verify(rng, name, (index + j) % (2 if self.small else 4)))
        rng.shuffle(ops)
        return ops

    def _qc_beta(self, rng):
        beta = round(float(rng.uniform(0.0, 0.95)), 6)
        argv = ["qc", "--beta", repr(beta)]
        if beta > 0.05 and rng.uniform() < 0.5:
            gamma = round(float(rng.uniform(-0.9, 0.9)) * beta * math.pi / 2.0, 6)
            argv += ["--gamma", repr(gamma)]
        return _cli_op("qc", argv, lambda doc: ref.close(doc["K"], ref.star_k(beta), 1e-9, "star K"))

    def _qc_matrix(self, rng):
        argv, worst = ["qc"], 1.0
        for _ in range(int(rng.integers(1, 4))):
            mat = np.round(rng.uniform(-1.0, 1.0, (2, 2)) + 2.0 * np.eye(2), 6)
            if np.linalg.det(mat) <= 0.0:
                mat[1] = -mat[1]
            argv += ["--matrix", *(repr(float(x)) for x in mat.ravel())]
            worst = max(worst, ref.affine_k(mat))
        return _cli_op("qc", argv, lambda doc: ref.close(doc["K"], worst, 1e-9, "affine K"))

    def _bound(self, rng, name, lifted):
        argv = ["bound", "--domain", name]
        samples, meta = None, dict(PRESET_META[name])
        if name != "bowtie":
            samples = int(1024 * 2 ** rng.uniform(0.0, 0.1))
            argv += ["--samples", str(samples)]
        if name == "half_disc" and lifted:  # the half-ball in n = 3..8
            meta["n"] = int(rng.integers(3, 9))
            argv += ["--n", str(meta["n"])]
        expect = _preset_expect(name, samples)

        def check(doc):
            return ref.check_geometry(doc["geometry"], expect) + ref.check_bounds(doc, meta, expect)

        return _cli_op("bound", argv, check)

    def _verify(self, rng, name, r):
        argv = ["verify", "--domain", name, "--refinement", str(r)]
        if name != "bowtie":
            # 32..34 boundary points: refinement 3 gives 1,153..1,225 DOF,
            # clear of the dense/sparse switch at 1,800
            argv += ["--fem-samples", str(int(rng.integers(32, 35)))]
        expect = _preset_expect(name, None)
        exact = ref.MU1_DISC if name in ("unit_disc", "half_disc") else None

        def check(doc):
            return ref.check_geometry(doc["geometry"], expect) + ref.check_spectrum(doc, exact)

        return _cli_op("verify", argv, check)


STREAMS = {"certify": CertifyStream, "verify": VerifyStream, "cli": CliStream}


def warm_up(workload):
    """Untimed first calls: fill p_zero's cache, load lazy SciPy modules,
    take the cold eigensolves and warm the file cache for CLI processes."""
    if workload == "cli":
        code, _, err = run_cli(["pzero", "--n", "2"])
        if code != 0:
            raise RuntimeError(f"warm-up CLI process failed: {err}")
        return
    for n in range(2, 9):
        bounds.best_bound_report(geometry.named_domain("half_disc", dim=n))
    bounds.best_bound_report(geometry.named_domain("tan_disc"))
    for n in range(3, 9):
        extension_norms.mikhlin_ball_norm_sq(n, 2.0)
    if workload == "verify":
        unit = geometry.named_domain("unit_disc")
        fem.verify_bound(unit, refinement=3, fem_samples=24)  # dense eigh
        fem.verify_bound(unit, refinement=4, fem_samples=24)  # sparse eigsh
