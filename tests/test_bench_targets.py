"""The benchmark tracer wraps fbmcf names by "module:attr"; a rename or
deletion under src/ must fail here instead of at benchmark time."""

import importlib
import importlib.util
import os

import pytest

TRACER_PATH = os.path.join(os.path.dirname(__file__), "..", "bench", "tracer.py")


def load_tracer():
    """Import bench/tracer.py as a standalone module (runs no workload)."""
    spec = importlib.util.spec_from_file_location("fbmcf_bench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = sorted({target for _, target, _ in load_tracer().targets()})


@pytest.mark.parametrize("target", TARGETS)
def test_target_resolves_to_callable(target):
    mod_name, attr = target.split(":")
    obj = importlib.import_module(mod_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj), target


def test_tracer_patches_frozen_barrier_classes_and_restores_them():
    """Install and uninstall the tracer without a workload: the barrier
    methods are wrapped on the classes, calls on immutable instances made
    before installation are traced, and every class dict comes back."""
    tracer = load_tracer()
    barrier = importlib.import_module("fbmcf.barrier")
    classes = [barrier.Barrier] + [getattr(barrier, name)
                                   for name in tracer.BARRIER_KINDS.values()]
    before = {cls: dict(cls.__dict__) for cls in classes}
    S = barrier.Circle((0.0, 0.0), 1.0)
    x = [[0.5, 0.2], [0.1, -0.7]]
    expected = S.reflect_point(x)
    tr = tracer.Tracer()
    with tr:
        for kind, cls_name in tracer.BARRIER_KINDS.items():
            cls = getattr(barrier, cls_name)
            for meth in tracer.BARRIER_METHODS[kind]:
                assert hasattr(cls.__dict__[meth], "__fbmcf_traced__"), \
                    (cls_name, meth)
        assert hasattr(barrier.Barrier.__dict__["global_reflection_scale"],
                       "__fbmcf_traced__")
        assert (S.reflect_point(x) == expected).all()
        S.global_reflection_scale(2)
        S.global_reflection_scale(2)
    assert tr.calls("barrier.circle.reflect_point") == 1
    assert tr.calls("barrier.global_reflection_scale") == 2
    for cls in classes:
        assert cls.__dict__.keys() == before[cls].keys(), cls
        for attr, value in before[cls].items():
            assert cls.__dict__[attr] is value, (cls, attr)
