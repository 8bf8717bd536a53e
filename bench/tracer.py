"""Out-of-tree tracer: wraps fbmcf's public functions and methods at layer
boundaries, records spans, and turns them into the per-layer metric table.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces every
wrapped name wherever it is looked up (the defining module, every fbmcf
module that imported it by name, and the barrier classes), and
``Tracer.uninstall`` puts the originals back.

Spans are aggregated per call path (the tuple of span names from the root),
so memory stays bounded however many calls a flow makes: each path keeps a
call count, inclusive and self time, work counters, a log-bucketed duration
histogram for percentiles, and the first ``RAW_SPANS_PER_PATH`` raw spans
(id, name, start, end, parent id).
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time

import numpy as np

RAW_SPANS_PER_PATH = 32
BUCKETS_PER_OCTAVE = 8
FBMCF_MODULES = ("fbmcf.barrier", "fbmcf.kernels", "fbmcf.varifold",
                 "fbmcf.flow", "fbmcf.density", "fbmcf.tangent",
                 "fbmcf.regularize", "fbmcf.scenario", "fbmcf.acceptance",
                 "fbmcf.cli")


def _n_points(x):
    return 1 if np.ndim(x) == 1 else len(x)


def _vertex_count(state):
    return sum(len(c.points) for c in state.components)


def _quadrature_points(state, order=8):
    return order * sum(len(c.points) - (0 if c.closed else 1)
                       for c in state.components if len(c.points) > 1)


# counters(args, kwargs, result) -> {counter: increment}
def _points_arg(a, k, r):
    return {"points": _n_points(a[1] if len(a) > 1 else next(iter(k.values())))}


def _step_counters(a, k, r):
    return {"vertices": _vertex_count(a[0])}


def _remesh_counters(a, k, r):
    return {"changed": int(r is not a[0])}


def _run_counters(a, k, r):
    kinds = [e.kind for e in r.events]
    return {"pop": kinds.count("Pop"), "vanish": kinds.count("Vanish"),
            "collision": kinds.count("Collision")}


def _samples_counters(a, k, r):
    return {"samples": len(r)}


def _kernel_points(a, k, r):
    return {"points": _n_points(a[2])}


def _artifact_bytes(a, k, r):
    return {"bytes": sum(os.path.getsize(os.path.join(r, f))
                         for f in os.listdir(r))}


def _slice_points(a, k, r):
    return {"points": _quadrature_points(a[0], a[2] if len(a) > 2
                                         else k.get("order", 8))}


BARRIER_KINDS = {"line": "Line", "circle": "Circle",
                 "parametric": "ParametricBarrier"}
# the barrier queries the workloads make, per kind
_QUERIES = ("project", "normal", "omega_signed", "distance", "reflect_point")
BARRIER_METHODS = {"line": _QUERIES, "circle": _QUERIES,
                   "parametric": ("project", "normal", "omega_signed",
                                  "reflect_point")}

# (span name, "module:attribute", counters); "module:Class.method" for methods
FUNCTION_TARGETS = [
    ("flow.run", "fbmcf.flow:run", _run_counters),
    ("flow.step", "fbmcf.flow:step", _step_counters),
    ("flow.detect_and_pop", "fbmcf.flow:detect_and_pop", None),
    ("flow.remesh", "fbmcf.flow:remesh", _remesh_counters),
    ("flow.slice_at", "fbmcf.flow:FlowHistory.slice_at", None),
    ("flow.history_write", "fbmcf.flow:FlowHistory.to_jsonl", None),
    ("flow.history_read", "fbmcf.flow:FlowHistory.from_jsonl", None),
    ("flow.dissipation_check", "fbmcf.flow:dissipation_inequality_check", None),
    ("barrier.global_reflection_scale",
     "fbmcf.barrier:Barrier.global_reflection_scale", None),
    ("barrier.measured_c1", "fbmcf.barrier:measured_c1", None),
    ("kernels.heat_op", "fbmcf.kernels:sample_heat_operator_cases",
     _samples_counters),
    ("kernels.calibrate_alpha", "fbmcf.kernels:calibrate_alpha", None),
    ("kernels.support_probe", "fbmcf.kernels:support_probe", None),
    ("kernels.reflected_truncated_kernel",
     "fbmcf.kernels:reflected_truncated_kernel", _kernel_points),
    ("density.eval", "fbmcf.density:reflected_density", None),
    ("density.eval", "fbmcf.density:gaussian_density", None),
    ("density.integrate_slice", "fbmcf.density:integrate_slice", _slice_points),
    ("density.monotonicity_report", "fbmcf.density:monotonicity_report", None),
    ("tangent.extract", "fbmcf.tangent:extract_tangent_flow", None),
    ("tangent.hausdorff", "fbmcf.tangent:hausdorff_distance", None),
    ("tangent.self_shrinker_residual", "fbmcf.tangent:self_shrinker_residual",
     None),
    ("varifold.first_variation", "fbmcf.varifold:first_variation", None),
    ("varifold.certify", "fbmcf.varifold:certify_free_boundary", None),
    ("varifold.boundary_monotonicity",
     "fbmcf.varifold:boundary_monotonicity_check", None),
    ("regularize.solve_translator", "fbmcf.regularize:solve_translator_profile",
     None),
    ("regularize.i_epsilon", "fbmcf.regularize:i_epsilon", None),
    ("regularize.slab_mass", "fbmcf.regularize:slab_mass", None),
    ("scenario.run_scenario", "fbmcf.scenario:run_scenario", _artifact_bytes),
]


def targets():
    """Every (span name, target, counters) the tracer wraps."""
    out = list(FUNCTION_TARGETS)
    for kind, cls in BARRIER_KINDS.items():
        for meth in BARRIER_METHODS[kind]:
            out.append((f"barrier.{kind}.{meth}", f"fbmcf.barrier:{cls}.{meth}",
                        _points_arg))
    return out


class _Path:
    __slots__ = ("names", "calls", "total", "self_time", "counters", "hist",
                 "raw")

    def __init__(self, names):
        self.names = names
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counters = {}
        self.hist = {}
        self.raw = []


class Tracer:
    """Span recorder; ``install`` patches fbmcf, ``uninstall`` restores it."""

    def __init__(self):
        self._paths = {}        # (parent path id, name) -> _Path
        self._stack = []        # [path, start, child time, span id]
        self._next_id = 0
        self._patches = []      # (owner, attribute, original, had_own)
        self.wrapped = {}       # span name -> list of patched lookup sites

    # -- recording -------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else None
        key = (id(parent[0]) if parent else None, name)
        path = self._paths.get(key)
        if path is None:
            path = _Path((parent[0].names if parent else ()) + (name,))
            self._paths[key] = path
        self._next_id += 1
        frame = [path, 0.0, 0.0, self._next_id]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame, counters):
        end = time.perf_counter()
        self._stack.pop()
        path, start, child, span_id = frame
        dur = end - start
        path.calls += 1
        path.total += dur
        path.self_time += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        b = int(math.floor(math.log2(max(dur, 1e-9)) * BUCKETS_PER_OCTAVE))
        path.hist[b] = path.hist.get(b, 0) + 1
        if len(path.raw) < RAW_SPANS_PER_PATH:
            parent_id = self._stack[-1][3] if self._stack else None
            path.raw.append((span_id, path.names[-1], start, end, parent_id))
        if counters:
            c = path.counters
            for k, v in counters.items():
                c[k] = c.get(k, 0) + v

    def _wrap(self, name, fn, counters):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                tracer._exit(frame, counters(args, kwargs, result)
                             if done and counters else None)
            return result

        traced.__fbmcf_traced__ = fn
        return traced

    # -- patching --------------------------------------------------------

    def install(self):
        """Wrap every target at its definition and at every lookup site."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod in FBMCF_MODULES:
            importlib.import_module(mod)
        try:
            for name, target, counters in targets():
                self._install_one(name, target, counters)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, name, target, counters):
        mod_name, attr = target.split(":")
        module = sys.modules[mod_name]
        sites = self.wrapped.setdefault(name, [])
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__.get(meth)
            had_own = raw is not None
            if raw is None:
                raw = getattr(cls, meth)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__, counters))
            else:
                new = self._wrap(name, raw, counters)
            self._patches.append((cls, meth, raw, had_own))
            setattr(cls, meth, new)
            sites.append(f"{mod_name}.{attr}")
            return
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, counters)
        for m_name, m in sorted(sys.modules.items()):
            if not (m_name == "fbmcf" or m_name.startswith("fbmcf.")):
                continue
            if m.__dict__.get(attr) is original:
                self._patches.append((m, attr, original, True))
                setattr(m, attr, wrapper)
                sites.append(f"{m_name}.{attr}")

    def uninstall(self):
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- aggregation -----------------------------------------------------

    def _select(self, name, under=None):
        return [p for p in self._paths.values() if p.names[-1] == name
                and (under is None or under in p.names[:-1])]

    def calls(self, name, under=None):
        return sum(p.calls for p in self._select(name, under))

    def self_s(self, name, under=None):
        return sum(p.self_time for p in self._select(name, under))

    def total_s(self, name, under=None):
        """Inclusive time, counting only outermost spans of that name."""
        return sum(p.total for p in self._select(name, under)
                   if name not in p.names[:-1])

    def counter(self, name, key, under=None):
        return sum(p.counters.get(key, 0) for p in self._select(name, under))

    def percentile(self, name, q, under=None):
        """(q-th percentile in seconds, sample count) from the histograms."""
        hist = {}
        for p in self._select(name, under):
            for b, c in p.hist.items():
                hist[b] = hist.get(b, 0) + c
        n = sum(hist.values())
        if n == 0:
            return 0.0, 0
        rank = q / 100.0 * n
        seen = 0
        for b in sorted(hist):
            if seen + hist[b] >= rank:
                break
            seen += hist[b]
        # log-linear interpolation inside the bucket [2^(b/B), 2^((b+1)/B))
        frac = min(max((rank - seen) / hist[b], 0.0), 1.0)
        return 2.0 ** ((b + frac) / BUCKETS_PER_OCTAVE), n

    def dump(self):
        """JSON-ready per-path table plus the retained raw spans."""
        rows, spans = [], []
        for p in sorted(self._paths.values(), key=lambda p: p.names):
            rows.append({"path": list(p.names), "calls": p.calls,
                         "total_s": p.total, "self_s": p.self_time,
                         "counters": dict(p.counters),
                         "histogram": {str(b): c for b, c in sorted(p.hist.items())}})
            spans.extend({"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                          "parent": s[4]} for s in p.raw)
        spans.sort(key=lambda s: s["id"])
        return {"paths": rows, "spans": spans,
                "buckets_per_octave": BUCKETS_PER_OCTAVE}


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(tr: Tracer):
    """The per-layer table (values, plus the sample count behind each
    percentile) from one traced pass."""
    m = {}
    samples = {}
    run = "flow.run"
    steps = tr.calls("flow.step", under=run)
    vertex_steps = tr.counter("flow.step", "vertices", under=run)
    step_self = tr.self_s("flow.step", under=run)
    m["flow.steps"] = steps
    m["flow.vertex_steps"] = vertex_steps
    m["flow.step.self_s"] = step_self
    for q in (50, 99):
        v, n = tr.percentile("flow.step", q, under=run)
        m[f"flow.step.p{q}_us"] = v * 1e6
        samples[f"flow.step.p{q}_us"] = n
    m["flow.vertex_step_ns"] = _ratio(step_self * 1e9, vertex_steps)
    m["flow.detect_and_pop.self_s"] = tr.self_s("flow.detect_and_pop")
    m["flow.remesh.self_s"] = tr.self_s("flow.remesh")
    m["flow.remesh.changed_frac"] = _ratio(
        tr.counter("flow.remesh", "changed"), tr.calls("flow.remesh"))
    m["flow.run.self_s"] = tr.self_s("flow.run")
    m["flow.events.pop"] = tr.counter("flow.run", "pop")
    m["flow.events.vanish"] = tr.counter("flow.run", "vanish")
    m["flow.slice_at.calls"] = tr.calls("flow.slice_at")
    m["flow.slice_at.self_s"] = tr.self_s("flow.slice_at")
    m["flow.history_write.self_s"] = tr.self_s("flow.history_write")
    m["flow.history_read.self_s"] = tr.self_s("flow.history_read")
    m["flow.dissipation_check.self_s"] = tr.self_s("flow.dissipation_check")

    for kind in BARRIER_KINDS:
        names = [f"barrier.{kind}.{meth}" for meth in BARRIER_METHODS[kind]]
        calls = sum(tr.calls(n) for n in names)
        points = sum(tr.counter(n, "points") for n in names)
        proj = f"barrier.{kind}.project"
        m[f"barrier.{kind}.calls"] = calls
        m[f"barrier.{kind}.points_per_call"] = _ratio(points, calls)
        m[f"barrier.{kind}.project.ns_per_point"] = _ratio(
            tr.total_s(proj) * 1e9, tr.counter(proj, "points"))
        m[f"barrier.{kind}.self_s"] = sum(tr.self_s(n) for n in names)
    m["barrier.global_reflection_scale.calls"] = tr.calls(
        "barrier.global_reflection_scale")
    m["barrier.global_reflection_scale.self_s"] = tr.self_s(
        "barrier.global_reflection_scale")
    m["barrier.measured_c1.self_s"] = tr.self_s("barrier.measured_c1")

    heat_samples = tr.counter("kernels.heat_op", "samples")
    m["kernels.heat_op.samples"] = heat_samples
    m["kernels.heat_op.samples_per_s"] = _ratio(
        heat_samples, tr.total_s("kernels.heat_op"))
    m["kernels.calibrate_alpha.self_s"] = tr.self_s("kernels.calibrate_alpha")
    m["kernels.support_probe.self_s"] = tr.self_s("kernels.support_probe")
    rtk = "kernels.reflected_truncated_kernel"
    m[f"{rtk}.points"] = tr.counter(rtk, "points")
    m[f"{rtk}.ns_per_point"] = _ratio(tr.total_s(rtk) * 1e9,
                                      tr.counter(rtk, "points"))

    m["density.evaluations"] = tr.calls("density.eval")
    for q in (50, 99):
        v, n = tr.percentile("density.eval", q)
        m[f"density.eval.p{q}_us"] = v * 1e6
        samples[f"density.eval.p{q}_us"] = n
    isl = "density.integrate_slice"
    m[f"{isl}.points"] = tr.counter(isl, "points")
    m[f"{isl}.ns_per_point"] = _ratio(tr.total_s(isl) * 1e9,
                                      tr.counter(isl, "points"))
    m["density.monotonicity_report.self_s"] = tr.self_s(
        "density.monotonicity_report")

    m["tangent.extract.self_s"] = tr.self_s("tangent.extract")
    m["tangent.hausdorff.calls"] = tr.calls("tangent.hausdorff")
    m["tangent.hausdorff.self_s"] = tr.self_s("tangent.hausdorff")
    m["tangent.self_shrinker_residual.self_s"] = tr.self_s(
        "tangent.self_shrinker_residual")

    m["varifold.first_variation.calls"] = tr.calls("varifold.first_variation")
    v, n = tr.percentile("varifold.first_variation", 50)
    m["varifold.first_variation.p50_us"] = v * 1e6
    samples["varifold.first_variation.p50_us"] = n
    m["varifold.certify.self_s"] = tr.self_s("varifold.certify")
    m["varifold.boundary_monotonicity.self_s"] = tr.self_s(
        "varifold.boundary_monotonicity")

    m["regularize.solve_translator.self_s"] = tr.self_s(
        "regularize.solve_translator")
    m["regularize.i_epsilon.self_s"] = tr.self_s("regularize.i_epsilon")
    m["regularize.slab_mass.self_s"] = tr.self_s("regularize.slab_mass")

    scen_self = tr.self_s("scenario.run_scenario")
    scen_bytes = tr.counter("scenario.run_scenario", "bytes")
    m["scenario.run_scenario.self_s"] = scen_self
    m["scenario.artifact_bytes"] = scen_bytes
    # serialisation and hashing time: run_scenario's own time plus the
    # history write it calls
    m["scenario.artifact_mb_per_s"] = _ratio(
        scen_bytes / 1e6, scen_self + m["flow.history_write.self_s"])
    return m, samples
