"""Tracer coverage self-test.

    python3 -m pytest -q bench/selftest_tracer.py

Kept out of the default test collection (the file name does not match
``test_*.py``) because it runs one traced pass of every workload.
"""

import importlib
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

# span name -> the workloads on which it must record at least one call
FLOW_STEPPING = ("barrier_flows", "closed_refinement")
EXPECTED = {
    "flow.run": FLOW_STEPPING,
    "flow.step": FLOW_STEPPING,
    "flow.detect_and_pop": FLOW_STEPPING,
    "flow.remesh": FLOW_STEPPING,
    "flow.slice_at": ("density_map", "barrier_flows", "closed_refinement"),
    "flow.history_write": ("barrier_flows", "density_map"),
    "flow.history_read": ("density_map", "barrier_flows"),
    "flow.dissipation_check": FLOW_STEPPING,
    "barrier.global_reflection_scale": ("curved_barrier_checks",
                                        "barrier_flows"),
    "barrier.measured_c1": ("curved_barrier_checks",),
    "kernels.heat_op": ("curved_barrier_checks",),
    "kernels.calibrate_alpha": ("curved_barrier_checks",),
    "kernels.support_probe": ("curved_barrier_checks",),
    "kernels.reflected_truncated_kernel": ("density_map", "barrier_flows"),
    "density.eval": ("density_map", "barrier_flows"),
    "density.integrate_slice": ("density_map", "barrier_flows"),
    "density.monotonicity_report": ("density_map", "barrier_flows"),
    "tangent.extract": ("density_map", "barrier_flows"),
    "tangent.hausdorff": ("density_map", "barrier_flows"),
    "tangent.self_shrinker_residual": ("density_map", "barrier_flows"),
    "varifold.first_variation": ("curved_barrier_checks",),
    "varifold.certify": ("curved_barrier_checks",),
    "varifold.boundary_monotonicity": ("curved_barrier_checks",),
    "regularize.solve_translator": ("curved_barrier_checks",),
    "regularize.i_epsilon": ("curved_barrier_checks",),
    "regularize.slab_mass": ("curved_barrier_checks",),
    "scenario.run_scenario": ("barrier_flows", "density_map"),
}
BARRIER_EXPECTED = {
    "line": ("barrier_flows", "density_map"),
    "circle": ("barrier_flows", "curved_barrier_checks"),
    "parametric": ("curved_barrier_checks",),
}
for _kind, _where in BARRIER_EXPECTED.items():
    for _meth in tracer.BARRIER_METHODS[_kind]:
        EXPECTED[f"barrier.{_kind}.{_meth}"] = _where

# per-layer metrics that must be non-zero where the layer table puts them
NONZERO = {
    "barrier_flows": ["flow.steps", "flow.step.self_s", "flow.events.pop",
                      "barrier.line.calls", "barrier.circle.calls",
                      "scenario.artifact_bytes", "flow.history_write.self_s"],
    "closed_refinement": ["flow.steps", "flow.vertex_steps",
                          "flow.remesh.self_s", "flow.run.self_s"],
    "density_map": ["density.evaluations", "flow.slice_at.calls",
                    "flow.history_read.self_s", "tangent.hausdorff.calls",
                    "kernels.reflected_truncated_kernel.points",
                    "scenario.artifact_bytes"],
    "curved_barrier_checks": ["kernels.heat_op.samples",
                              "varifold.first_variation.calls",
                              "barrier.parametric.calls",
                              "barrier.global_reflection_scale.calls",
                              "regularize.solve_translator.self_s"],
}


def fbmcf_namespaces():
    """Every module and barrier/history class dict the tracer may patch."""
    for name in tracer.FBMCF_MODULES:
        importlib.import_module(name)
    out = {n: m.__dict__ for n, m in sys.modules.items()
           if n == "fbmcf" or n.startswith("fbmcf.")}
    barrier = sys.modules["fbmcf.barrier"]
    for cls in ("Barrier", *tracer.BARRIER_KINDS.values()):
        out[cls] = getattr(barrier, cls).__dict__
    out["FlowHistory"] = sys.modules["fbmcf.flow"].FlowHistory.__dict__
    return out


def snapshot():
    return {ns: dict(d) for ns, d in fbmcf_namespaces().items()}


def wrapped_names(ns_dicts):
    found = []
    for ns, d in ns_dicts.items():
        for attr, v in d.items():
            fn = v.__func__ if isinstance(v, classmethod) else v
            if hasattr(fn, "__fbmcf_traced__"):
                found.append(f"{ns}.{attr}")
    return found


def test_every_target_has_an_expected_workload():
    names = {name for name, _, _ in tracer.targets()}
    assert names == set(EXPECTED)


def test_patched_where_looked_up_and_restored():
    before = snapshot()
    tr = tracer.Tracer()
    with tr:
        import fbmcf.barrier as b
        import fbmcf.density as d
        import fbmcf.flow as f
        import fbmcf.kernels as k
        import fbmcf.scenario as s
        assert d.reflected_truncated_kernel is k.reflected_truncated_kernel
        assert hasattr(d.reflected_truncated_kernel, "__fbmcf_traced__")
        assert hasattr(s.run, "__fbmcf_traced__") and s.run is f.run
        assert k.measured_c1 is b.measured_c1 is s.measured_c1
        assert hasattr(s.calibrate_alpha, "__fbmcf_traced__")
        for kind, cls_name in tracer.BARRIER_KINDS.items():
            cls = getattr(b, cls_name)
            for meth in tracer.BARRIER_METHODS[kind]:
                assert hasattr(cls.__dict__[meth], "__fbmcf_traced__"), \
                    (cls_name, meth)
        assert hasattr(f.FlowHistory.__dict__["from_jsonl"].__func__,
                       "__fbmcf_traced__")
        assert "fbmcf.density.reflected_truncated_kernel" in \
            tr.wrapped["kernels.reflected_truncated_kernel"]
    after = snapshot()
    assert wrapped_names(after) == []
    for ns, d in before.items():
        assert after[ns].keys() == d.keys(), ns
        for attr, v in d.items():
            assert after[ns][attr] is v, (ns, attr)


def test_uninstall_after_error():
    before = snapshot()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert wrapped_names(snapshot()) == []
    assert snapshot().keys() == before.keys()


@pytest.fixture(scope="module")
def traced_passes():
    """One traced pass (set-up plus one cycle) per workload, seed 0."""
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        w = cls(0, os.path.join(os.path.dirname(HERE), ".bench_out",
                                "selftest", name))
        tr = tracer.Tracer()
        with tr:
            w.setup()
            ops, _ = w.cycle()
        layer, _ = tracer.layer_metrics(tr)
        out[name] = (tr, ops, layer)
    return out


def test_workloads_pass_their_oracles(traced_passes):
    for name, (_, ops, _) in traced_passes.items():
        failed = [(op.name, op.checks, op.error) for op in ops if not op.ok]
        assert failed == [], name


def test_every_wrapped_name_is_exercised(traced_passes):
    missing = [(span, w) for span, where in EXPECTED.items() for w in where
               if traced_passes[w][0].calls(span) == 0]
    assert missing == []


def test_layer_metrics_nonzero_where_expected(traced_passes):
    zero = [(w, m) for w, names in NONZERO.items() for m in names
            if not traced_passes[w][2][m]]
    assert zero == []


def test_flow_layer_idle_off_the_flow_workloads(traced_passes):
    layer = traced_passes["curved_barrier_checks"][2]
    assert layer["flow.steps"] == 0 and layer["barrier.line.calls"] == 0


def test_no_wrappers_left_after_traced_runs(traced_passes):
    assert wrapped_names(snapshot()) == []
