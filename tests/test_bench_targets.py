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
