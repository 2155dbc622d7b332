"""Spans around neubound's public calls, recorded from the benchmark's side.

A traced run replaces module attributes with wrappers that record
(op id, span id, parent span, name, start, end, error, size).  The package
reaches its own callees through module attributes (bounds calls
geometry.diameter, verify_bound calls triangulate, ...), so nested calls
are caught too.  Nothing is wrapped in an untraced run.

Per-layer figures use self time: a span's duration minus the part its
child spans cover.  Times are per operation (total self time / ops), so
the layers plus the untraced gap add up to the mean operation latency.
"""

from __future__ import annotations

import functools
import importlib
import time

_perf = time.perf_counter

# (module, attribute, span name, size of the result counted at this layer)
LAYERS = (
    ("geometry", "load_domain_spec", "geometry.load_domain_spec",
     lambda spec: len(spec.vertices) if spec.kind == "polygon" else None),
    ("geometry", "boundary_loop", "geometry.boundary_loop", lambda loop: len(loop[0])),
    ("geometry", "diameter", "geometry.diameter", None),
    ("geometry", "min_enclosing_ball", "geometry.min_enclosing_ball", None),
    ("bounds", "best_bound_report", "bounds.best_bound_report", None),
    ("special", "p_zero", "special.p_zero", None),
    ("bounds", "p_zero", "special.p_zero", None),  # bounds imports it by name
    ("extension_norms", "mikhlin_ball_norm_sq", "extension_norms.mikhlin_ball_norm_sq", None),
    ("extension_norms", "mikhlin_star_norm_sq_bound", "extension_norms.mikhlin_star_norm_sq_bound", None),
    ("fem", "verify_bound", "fem.verify_bound", None),
    ("fem", "triangulate", "fem.triangulate", lambda mesh: len(mesh.triangles)),
    ("fem", "assemble", "fem.assemble", None),
    ("fem", "neumann_eigenvalues", "fem.neumann_eigenvalues", lambda result: result.dof_count),
)

# metric name -> span name; every layer time is a self time in ms per op
TIME_METRICS = {
    "geometry.load_domain_spec.ms": "geometry.load_domain_spec",
    "geometry.boundary_loop.ms": "geometry.boundary_loop",
    "geometry.diameter.ms": "geometry.diameter",
    "geometry.min_enclosing_ball.ms": "geometry.min_enclosing_ball",
    "bounds.best_bound_report.self_ms": "bounds.best_bound_report",
    "special.p_zero.ms": "special.p_zero",
    "extension_norms.mikhlin_ball_norm_sq.ms": "extension_norms.mikhlin_ball_norm_sq",
    "extension_norms.mikhlin_star_norm_sq_bound.ms": "extension_norms.mikhlin_star_norm_sq_bound",
    "fem.triangulate.ms": "fem.triangulate",
    "fem.assemble.ms": "fem.assemble",
    "fem.neumann_eigenvalues.self_ms": "fem.neumann_eigenvalues",
    "fem.verify_bound.self_ms": "fem.verify_bound",
    "cli.main.self_ms": "cli.main",
}
# metric name -> span name whose sizes it averages per call
SIZE_METRICS = {
    "geometry.polygon_vertices": "geometry.load_domain_spec",
    "geometry.boundary_points": "geometry.boundary_loop",
    "fem.triangles": "fem.triangulate",
    "fem.dof": "fem.neumann_eigenvalues",
}
# metric name -> (span name, microseconds of self time per unit of size)
RATE_METRICS = {
    "fem.triangulate.us_per_triangle": "fem.triangulate",
    "fem.eigensolve.us_per_dof": "fem.neumann_eigenvalues",
}
SPAN_NAMES = sorted({name for _, _, name, _ in LAYERS} | {"cli.main"})
ERROR_METRICS = {f"{name}.errors": name for name in SPAN_NAMES}


class Tracer:
    """In-memory span recorder.  A span is a list, filled in place:
    [op, id, parent id, name, start, end, raised, size or None]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def span(self, name, fn, *args, size=None, **kwargs):
        sid = len(self.spans)
        rec = [self.op, sid, self._stack[-1] if self._stack else None, name, _perf(), 0.0, False, None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec[6] = True
            raise
        finally:
            rec[5] = _perf()
            self._stack.pop()
        if size is not None:
            rec[7] = size(result)
        return result

    def instrument(self):
        """Wrap every layer in LAYERS; undo with restore()."""
        for module_name, attr, name, size in LAYERS:
            module = importlib.import_module(f"neubound.{module_name}")
            original = getattr(module, attr)

            @functools.wraps(original)
            def traced(*args, _fn=original, _name=name, _size=size, **kwargs):
                return self.span(_name, _fn, *args, size=_size, **kwargs)

            setattr(module, attr, traced)
            self._patches.append((module, attr, original))

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def nesting_problems(spans, start, end) -> list[str]:
    """Spans of one op must nest: children inside parents, siblings disjoint,
    top-level spans inside the op's own [start, end]."""
    by_id = {s[1]: s for s in spans}
    last_end: dict = {}
    problems = []
    for s in sorted(spans, key=lambda s: s[4]):
        parent = by_id.get(s[2])
        lo, hi = (start, end) if parent is None else (parent[4], parent[5])
        if not (lo <= s[4] <= s[5] <= hi):
            problems.append(f"span {s[3]} escapes its parent")
        if s[4] < last_end.get(s[2], lo):
            problems.append(f"span {s[3]} overlaps a sibling")
        last_end[s[2]] = s[5]
    return problems


def self_times(spans) -> dict:
    """Span id -> duration minus the duration of its direct children."""
    own = {s[1]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[2] in own:
            own[s[2]] -= s[5] - s[4]
    return own


def layer_metrics(spans, ops: int) -> dict:
    """Per-layer figures from all spans of the traced ops."""
    own = self_times(spans)
    self_s: dict = {}
    size_total: dict = {}
    sized: dict = {}
    calls: dict = {}
    errors: dict = {}
    for s in spans:
        name = s[3]
        self_s[name] = self_s.get(name, 0.0) + own[s[1]]
        calls[name] = calls.get(name, 0) + 1
        errors[name] = errors.get(name, 0) + int(s[6])
        if s[7] is not None:
            size_total[name] = size_total.get(name, 0) + s[7]
            sized[name] = sized.get(name, 0) + 1
    ops = max(ops, 1)
    out = {}
    for metric, name in TIME_METRICS.items():
        out[metric] = 1e3 * self_s.get(name, 0.0) / ops
    for metric, name in SIZE_METRICS.items():
        out[metric] = size_total.get(name, 0) / max(sized.get(name, 0), 1)
    for metric, name in RATE_METRICS.items():
        out[metric] = 1e6 * self_s.get(name, 0.0) / max(size_total.get(name, 0), 1)
    for metric, name in ERROR_METRICS.items():
        out[metric] = errors.get(name, 0)
    out["special.p_zero.calls"] = calls.get("special.p_zero", 0) / ops
    return out
