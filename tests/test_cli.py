import base64
import concurrent.futures
import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbmcf.cli import main
from fbmcf.errors import ConfigError
from fbmcf.flow import HISTORY_FORMAT, FlowHistory
from fbmcf.scenario import _write_atomic, load_config, run_scenario

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "fbmcf",
                            "scenarios")
WORKLOADS_PATH = os.path.join(os.path.dirname(__file__), "..", "bench",
                              "workloads.py")


def scenario_path(name):
    return os.path.join(SCENARIO_DIR, name)


@pytest.fixture(scope="module")
def half_circle_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("art")
    code = main(["run", scenario_path("half_circle_shrinker.json"),
                 "--out", str(out)])
    assert code == 0
    return out / "half_circle_shrinker"


def _tiny_circle_configs(tmp_path):
    """Paths of two barrier-free circle scenarios that run in well under a
    second."""
    paths = []
    for name, radius in (("tiny_a", 1.0), ("tiny_b", 0.8)):
        cfg = {"name": name, "seed": 0, "barrier": None,
               "initial_curve": {"kind": "circle", "radius": radius, "n": 32},
               "flow": {"t_end": 0.01, "snapshot_dt": 0.005}}
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(cfg))
        paths.append(str(p))
    return paths


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs each
    submit inline, so no process is started."""

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture
def inline_pool(monkeypatch):
    monkeypatch.setattr(_InlinePool, "made", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    return _InlinePool


class TestRun:
    def test_half_circle_manifest_has_density_profile(self, half_circle_artifacts):
        manifest = json.loads((half_circle_artifacts / "manifest.json").read_text())
        assert "density_profile.csv" in manifest["files"]
        assert (half_circle_artifacts / "density_profile.csv").exists()

    def test_manifest_lists_every_file_with_hash(self, half_circle_artifacts):
        manifest = json.loads((half_circle_artifacts / "manifest.json").read_text())
        files = {p.name for p in half_circle_artifacts.iterdir()} - {"manifest.json"}
        assert files == set(manifest["files"])
        import hashlib
        for fname, digest in manifest["files"].items():
            data = (half_circle_artifacts / fname).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest

    def test_peanut_events_contain_one_pop(self, tmp_path):
        code = main(["run", scenario_path("peanut_pop.json"),
                     "--out", str(tmp_path)])
        assert code == 0
        events = json.loads((tmp_path / "peanut_pop" / "events.json").read_text())
        pops = [e for e in events if e["kind"] == "Pop"]
        assert len(pops) == 1

    def test_invalid_kappa_exits_2(self, tmp_path, capsys):
        cfg = {
            "name": "bad_kappa",
            "barrier": {"kind": "circle", "radius": 1.0,
                        "omega_side": "outside"},
            "initial_curve": {"kind": "lasso", "n": 64},
            "flow": {"t_end": 0.002, "snapshot_dt": 0.001},
            "kernels": {"kappa": 50.0},
            "density": {"center": [0.0, 1.2, 0.002]},
            "pipeline": ["flow", "density"],
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        code = main(["run", str(p), "--out", str(tmp_path / "out")])
        assert code == 3  # numerical admissibility failure
        err = capsys.readouterr().err
        assert "kappa" in err and "r_S/c1" in err

    def test_stiff_translator_exits_3(self, tmp_path, capsys):
        """A translator the march cannot finish within its step cap fails
        as a numerical failure instead of running for a minute."""
        cfg = {"name": "stiff_translator", "barrier": None,
               "regularize": {"R0": 1000, "epsilon": 0.5},
               "pipeline": ["regularize"]}
        p = tmp_path / "stiff.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "translator march stalled" in err and "Traceback" not in err

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_stage_removes_only_a_directory_it_made(self, tmp_path,
                                                           existing):
        """A stage that fails (exit 3) takes the artifact directory with it
        when the run made it; one that was there keeps its files."""
        cfg = {"name": "stiff_translator", "barrier": None,
               "regularize": {"R0": 1000, "epsilon": 0.5},
               "pipeline": ["regularize"]}
        p = tmp_path / "stiff.json"
        p.write_text(json.dumps(cfg))
        art = tmp_path / "out" / "stiff_translator"
        if existing:
            art.mkdir(parents=True)
            (art / "notes.txt").write_text("kept")
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 3
        if existing:
            assert [f.name for f in art.iterdir()] == ["notes.txt"]
            assert (art / "notes.txt").read_text() == "kept"
        else:
            assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("block", [
        {"epsilon": 1e-300}, {"R0": 1e300, "epsilon": 1e150}],
        ids=["eps_cube_underflows", "cubes_overflow"])
    def test_unrepresentable_translator_start_exits_2(self, tmp_path, capsys,
                                                      block):
        """Refused with one line before the artifact directory is made."""
        cfg = {"name": "tiny_eps", "barrier": None, "regularize": block,
               "pipeline": ["regularize"]}
        p = tmp_path / "tiny_eps.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "no representable start" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("epsilon", [1e-13, 1e-20, 1e-99])
    def test_translator_beyond_the_floats_exits_3(self, tmp_path, capsys,
                                                  epsilon):
        """A tiny epsilon whose march would cube a w beyond the floats is a
        numerical failure: one line, no traceback, no directory."""
        cfg = {"name": "tiny_eps", "barrier": None,
               "regularize": {"epsilon": epsilon}, "pipeline": ["regularize"]}
        p = tmp_path / "tiny_eps.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "translator march left the floats" in err
        assert "Traceback" not in err
        assert list((tmp_path / "out").iterdir()) == []

    def test_run_scenario_refuses_unrepresentable_translator_start(
            self, tmp_path):
        cfg = {"name": "tiny_eps", "barrier": None,
               "regularize": {"epsilon": 1e-300}, "pipeline": ["regularize"]}
        p = tmp_path / "tiny_eps.json"
        p.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="cube of the epsilon"):
            run_scenario(str(p), str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [
        "{not json", '["name"]', "5", '"name"', "null",
        '{"name": ["a"]}', '{"name": 5}', '{"name": ""}', '{"name": "."}',
        '{"name": ".."}', '{"name": "a/b"}', '{"name": "/abs"}',
        '{"name": "a\\u0000b"}',
    ], ids=["not_json", "list", "number", "string", "null", "list_name",
            "number_name", "empty_name", "dot_name", "dotdot_name",
            "nested_name", "absolute_name", "nul_name"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, text):
        """A config that is not a JSON object, or whose name does not name
        one directory, is refused before any directory is made."""
        p = tmp_path / "broken.json"
        p.write_text(text)
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["broken.json"]

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FBMCF_SEED", "7")
        code = main(["run", scenario_path("circle_shrinker.json"),
                     "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads(
            (tmp_path / "circle_shrinker" / "manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_non_integer_env_seed_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FBMCF_SEED", "abc")
        assert main(["run", scenario_path("circle_shrinker.json"),
                     "--out", str(tmp_path)]) == 2

    def test_polyline_flags_shorter_than_points_exits_2(self, tmp_path, capsys):
        cfg = {"name": "short_flags",
               "barrier": {"kind": "line", "normal": [0.0, -1.0]},
               "initial_curve": {"kind": "polyline",
                                 "points": [[-1.0, 0.0], [-0.5, 0.5],
                                            [0.5, 0.5], [1.0, 0.0]],
                                 "flags": [1, 0, 0]},
               "flow": {"t_end": 0.01, "snapshot_dt": 0.005}}
        p = tmp_path / "short_flags.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        assert "4 points but 3 flags" in capsys.readouterr().err

    @pytest.mark.parametrize("flow, key", [
        ({"h_target": 0.0}, "h_target"),
        ({"h_target": -1.0}, "h_target"),
        ({"h_target": float("nan")}, "h_target"),
        ({"snapshot_dt": 0}, "snapshot_dt"),
        ({"snapshot_dt": "0.005"}, "snapshot_dt"),
        ({"h_target": 1e-200}, "h_target"),
        ({"h_target": 1e-160}, "h_target"),
        ({"t_end": -0.01}, "t_end"),
        ({"t_end": float("inf")}, "t_end"),
    ])
    def test_flow_block_that_cannot_end_exits_2(self, tmp_path, capsys, flow,
                                                 key):
        """Rejected before the flow starts: remesh would double the vertex
        count every step at h_target <= 0, snapshot_dt = 0 divides by zero,
        and the closed step divides by zero or overflows when h_target^2
        is below the smallest normal float."""
        cfg = {"name": "bad_flow", "barrier": None,
               "initial_curve": {"kind": "circle", "radius": 1.0, "n": 8},
               "flow": {"t_end": 0.01, "snapshot_dt": 0.005, **flow}}
        p = tmp_path / "bad_flow.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"flow.{key} must be finite" in err
        assert "Traceback" not in err

    def test_flow_block_with_unbounded_work_exits_2(self, tmp_path, capsys):
        """An h_target that lets the run end only after about 6e10
        vertex-steps is refused before the artifact directory is made."""
        cfg = {"name": "bad_flow", "barrier": None,
               "initial_curve": {"kind": "circle", "radius": 1.0, "n": 8},
               "flow": {"t_end": 0.01, "snapshot_dt": 0.005,
                        "h_target": 1e-4}}
        p = tmp_path / "bad_flow.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "raise flow.h_target or lower flow.t_end" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("block, key", [("flow", "cfl"),
                                            ("flow", "pop_threshold"),
                                            ("kernels", "sample_budget")])
    def test_removed_key_exits_2(self, tmp_path, capsys, block, key):
        """Keys whose values became constants are refused, not ignored."""
        cfg = {"name": "removed_key", "barrier": None,
               "initial_curve": {"kind": "circle", "radius": 1.0, "n": 8},
               "flow": {"t_end": 0.01, "snapshot_dt": 0.005}}
        cfg.setdefault(block, {})[key] = 0.4
        p = tmp_path / "removed_key.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{block}.{key} is not a setting" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["h_targt", "dt", "CFL"])
    def test_unknown_flow_key_exits_2(self, tmp_path, capsys, key):
        """A misspelled flow setting is refused, not run with the default."""
        cfg = {"name": "unknown_key", "barrier": None,
               "initial_curve": {"kind": "circle", "radius": 1.0, "n": 8},
               "flow": {"t_end": 0.01, "snapshot_dt": 0.005, key: 0.5}}
        p = tmp_path / "unknown_key.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"flow.{key} is not a setting" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("block, body, key", [
        ("barrier", {"kind": "line", "normal": [0.0, -1.0], "ofset": 0.0},
         "ofset"),
        ("barrier", {"kind": "circle", "radius": 1.0, "side": "outside"},
         "side"),
        ("initial_curve", {"kind": "lasso", "n": 32, "dip": 0.1}, "dip"),
        ("initial_curve", {"kind": "circle", "radius": 1.0, "N": 8}, "N"),
    ])
    def test_unknown_block_key_exits_2(self, tmp_path, capsys, block, body,
                                       key):
        """A key that is not a setting of the block's kind is refused, not
        ignored, before the artifact directory is made."""
        cfg = {"name": "unknown_key", "barrier": None,
               "initial_curve": {"kind": "circle", "radius": 1.0, "n": 8},
               "flow": {"t_end": 0.01, "snapshot_dt": 0.005}, block: body}
        p = tmp_path / "unknown_key.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{block}.{key} is not a setting of kind" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("block, body", [
        ("initial_curve", {"kind": "polyline",
                           "points": [[0.0, 0.0], [1.0, float("nan")],
                                      [2.0, 0.0]]}),
        ("initial_curve", {"kind": "polyline",
                           "points": [[0.0, 0.0], [1.0, float("inf")],
                                      [2.0, 0.0]]}),
        # finite, but the length of its first segment overflows
        ("initial_curve", {"kind": "polyline",
                           "points": [[0.0, 0.0], [1.0, 1e308],
                                      [2.0, 0.0]]}),
        ("barrier", {"kind": "circle", "radius": float("nan")}),
        ("barrier", {"kind": "line", "normal": [0.0, float("nan")]}),
        # finite, but its length overflows
        ("barrier", {"kind": "line", "normal": [1e308, 1e308]}),
        ("initial_curve", {"kind": "half_circle", "radius": float("nan"),
                           "n": 8}),
    ], ids=["nan_point", "inf_point", "overflowing_length", "nan_radius",
            "nan_normal", "overflowing_normal", "nan_half_circle"])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, block, body):
        """JSON admits NaN and Infinity; such a number, or a length that
        overflows, is refused before a history is written, with no numpy
        warning on standard error."""
        cfg = {"name": "non_finite", "barrier": None,
               "initial_curve": {"kind": "circle", "radius": 1.0, "n": 8},
               "flow": {"t_end": 0.01, "h_target": 0.5,
                        "snapshot_dt": 0.005}, block: body}
        p = tmp_path / "non_finite.json"
        p.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "non_finite" / "history.jsonl").exists()

    @pytest.mark.parametrize("block, body, match", [
        ("barrier", {"kind": "line", "normal": [0, -1, 0]}, "normal"),
        ("barrier", {"kind": "circle", "radius": 2.0, "center": [0, 0, 0]},
         "center"),
        ("barrier", {"kind": "parametric",
                     "points": np.eye(8, 3).tolist()}, "points"),
        ("barrier", {"kind": "parametric", "omega_side": "bogus",
                     "points": [[np.cos(a), np.sin(a)] for a in
                                np.linspace(0, 6, 8)]}, "omega_side"),
        ("initial_curve", {"kind": "circle", "radius": 0.5, "n": 8,
                           "center": [0, 0, 0]}, "center"),
        ("initial_curve", {"kind": "polyline", "points": []}, "points"),
        ("initial_curve", {"kind": "polyline", "points": [0, 1, 2]},
         "points"),
        ("initial_curve", {"kind": "polyline", "points": [[0, 0, 0]]},
         "points"),
        ("initial_curve", {"kind": "polyline", "closed": "yes",
                           "points": [[0, 0], [1, 0], [0, 1]]}, "closed"),
        ("initial_curve", {"kind": "polyline", "flags": ["no", 0, 1],
                           "points": [[0, 0], [1, 0], [0, 1]]}, "flags"),
    ], ids=["line_normal_3d", "circle_center_3d", "parametric_points_3d",
            "parametric_bogus_side", "circle_initial_center_3d",
            "polyline_empty", "polyline_flat",
            "polyline_3d", "polyline_closed_string", "polyline_flag_string"])
    def test_malformed_coordinates_exit_2(self, tmp_path, capsys, block, body,
                                          match):
        """A coordinate of the wrong shape or a flag that is not a bool in a
        barrier or initial-curve block is refused before any directory is
        made."""
        cfg = {"name": "bad_shape", "barrier": None,
               "initial_curve": {"kind": "circle", "radius": 0.5, "n": 8},
               "flow": {"t_end": 0.01, "snapshot_dt": 0.005}, block: body}
        p = tmp_path / "bad_shape.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert match in err
        assert not (tmp_path / "out").exists()

    def test_bad_barrier_kind_leaves_no_directory(self, tmp_path, capsys):
        """The barrier and the initial curve are built before the artifact
        directory is made."""
        cfg = {"name": "bad_kind", "barrier": {"kind": "lin"},
               "initial_curve": {"kind": "circle", "radius": 1.0, "n": 8},
               "flow": {"t_end": 0.01, "snapshot_dt": 0.005}}
        p = tmp_path / "bad_kind.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        assert "unknown barrier kind 'lin'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "bad_kind").exists()

    @pytest.mark.parametrize("key", ["kappa", "alpha", "c1"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"), "1.0"])
    def test_non_finite_kernel_value_exits_2(self, tmp_path, capsys, key,
                                             value):
        """NaN passes every bound check of the kernel parameters, so a
        kernels value that is not a finite number is refused when the config
        is read, before the flow runs."""
        cfg = {"name": "bad_kernels",
               "barrier": {"kind": "line", "normal": [0.0, -1.0]},
               "initial_curve": {"kind": "half_circle", "n": 16},
               "flow": {"t_end": 0.01, "snapshot_dt": 0.005},
               "kernels": {"kappa": 0.5, "alpha": 8.0, "c1": 2.0, key: value},
               "density": {"center": [0.0, 0.5, 0.01]},
               "pipeline": ["flow", "density"]}
        p = tmp_path / "bad_kernels.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"kernels.{key} must be a finite number" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_nonpositive_kappa_exits_2(self, tmp_path, capsys):
        """The kernel parameters' own bounds are config errors too."""
        cfg = {"name": "bad_kappa",
               "barrier": {"kind": "line", "normal": [0.0, -1.0]},
               "kernels": {"kappa": -1.0, "alpha": 8.0, "c1": 2.0},
               "pipeline": ["kernel_checks"]}
        p = tmp_path / "bad_kappa.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "kappa must be positive" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("block, key", [
        ("kernels", "kapa"), ("density", "centre"), ("tangent", "lambda"),
        ("varifold", "vertex"), ("kernel_checks", "samples"),
        ("regularize", "eps")])
    def test_unknown_key_of_a_pipeline_block_exits_2(self, tmp_path, capsys,
                                                     block, key):
        """A misspelled setting of any block is refused, not run with the
        default of the key it meant."""
        cfg = {"name": "unknown_key", "barrier": None,
               "initial_curve": {"kind": "circle", "radius": 1.0, "n": 8},
               "flow": {"t_end": 0.01, "snapshot_dt": 0.005},
               block: {key: 1.0}}
        p = tmp_path / "unknown_key.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{block}.{key} is not a setting; the {block} block takes" \
            in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("pipeline", [["flwo"], "flow", [["flow"]]])
    def test_bad_pipeline_exits_2(self, tmp_path, capsys, pipeline):
        """A pipeline that is not a list of stage names is refused, not run
        as an empty one that writes only a manifest."""
        cfg = {"name": "bad_pipeline", "barrier": None,
               "initial_curve": {"kind": "circle", "radius": 1.0, "n": 8},
               "flow": {"t_end": 0.01, "snapshot_dt": 0.005},
               "pipeline": pipeline}
        p = tmp_path / "bad_pipeline.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "pipeline must be a list of stages from flow, density" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage, block, key", [
        ("density", "density", "center"), ("tangent", "tangent", "center"),
        ("varifold_checks", "varifold", "vertices")])
    def test_stage_without_its_input_exits_2(self, tmp_path, capsys, stage,
                                             block, key):
        """Refused before the flow runs and the artifact directory is made,
        so no history is left behind without a manifest."""
        cfg = {"name": "no_input",
               "barrier": {"kind": "line", "normal": [0.0, -1.0]},
               "initial_curve": {"kind": "half_circle", "n": 16},
               "flow": {"t_end": 0.01, "snapshot_dt": 0.005},
               "kernels": {"kappa": 0.5, "alpha": 8.0, "c1": 2.0},
               "pipeline": ["flow", stage]}
        p = tmp_path / "no_input.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert f"the {stage} stage needs {block}.{key}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("stage", ["flow", "density", "tangent"])
    def test_flow_without_an_initial_curve_exits_2(self, tmp_path, capsys,
                                                   stage):
        cfg = {"name": "no_curve", "pipeline": [stage],
               "density": {"center": [0.0, 0.0, 0.1]},
               "tangent": {"center": [0.0, 0.0, 0.1]}}
        p = tmp_path / "no_curve.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert err == "config error: the flow needs an initial_curve block\n"

    @pytest.mark.parametrize("block, rest", [
        ("flow", {"initial_curve": {"kind": "circle", "n": 8}}),
        ("kernel_checks", {"pipeline": ["kernel_checks"],
                           "barrier": {"kind": "line"},
                           "kernels": {"kappa": 0.5, "alpha": 8.0,
                                       "c1": 2.0}})])
    def test_null_block_runs_as_an_empty_one(self, tmp_path, block, rest):
        """A block set to null takes every default, as an empty one does."""
        manifests = []
        for body in (None, {}):
            p = tmp_path / "null_block.json"
            p.write_text(json.dumps({"name": "null_block", block: body,
                                     **rest}))
            out = tmp_path / f"out-{body}"
            assert main(["run", str(p), "--out", str(out)]) == 0
            manifests.append((out / "null_block" / "manifest.json")
                             .read_bytes())
        assert manifests[0] == manifests[1]

    @pytest.mark.parametrize("block, body, stage", [
        ("flow", {"t_end": 0.01, "snapshot_dt": 0.005,
                  "vanish_length": "abc"}, "flow"),
        ("tangent", {"center": [0.0, 0.5, 0.01], "lambdas": "abc"},
         "tangent"),
        ("regularize", {"epsilon": 5}, "regularize"),
        ("varifold", {"vertices": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]],
                      "n_fields": "x"}, "varifold_checks"),
        ("kernel_checks", {"n_samples": -5}, "kernel_checks"),
    ], ids=["vanish_length", "lambdas", "epsilon", "n_fields", "n_samples"])
    def test_malformed_block_value_exits_2(self, tmp_path, capsys, block,
                                           body, stage):
        """A malformed value of a block is refused with a one-line message
        when the config is read, before the flow runs or a stage's output
        is written."""
        cfg = {"name": "bad_value",
               "barrier": {"kind": "line", "normal": [0.0, -1.0]},
               "initial_curve": {"kind": "half_circle", "n": 16},
               "flow": {"t_end": 0.01, "snapshot_dt": 0.005},
               "kernels": {"kappa": 0.5, "alpha": 8.0, "c1": 2.0},
               block: body,
               "pipeline": ["flow", stage]}
        p = tmp_path / "bad_value.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        key = next(k for k in body if k not in ("t_end", "snapshot_dt",
                                                 "center", "vertices"))
        assert f"{block}.{key} must be" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_bundled_and_benchmark_configs_load(self, tmp_path, monkeypatch):
        """Every key the bundled scenarios and the benchmark's corner and
        lasso configs set is a setting."""
        spec = importlib.util.spec_from_file_location("fbmcf_bench_workloads",
                                                      WORKLOADS_PATH)
        workloads = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up while it executes
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        flows = workloads.BarrierFlows(0, str(tmp_path / "bench"))
        flows.setup()  # writes the two configs; runs nothing
        R, b = workloads.rigid_motion(0, 3)
        history_cfg = workloads.write_json(
            str(tmp_path / "corner_history.json"),
            workloads.corner_config("corner_history", 0, R, b, ["flow"]))
        paths = [scenario_path(f) for f in sorted(os.listdir(SCENARIO_DIR))]
        paths += [flows.corner_cfg, flows.lasso_cfg, history_cfg]
        assert len(paths) == 6
        for path in paths:
            assert load_config(path)["name"]
        corner = load_config(flows.corner_cfg)
        assert {"kernels", "density", "tangent"} <= corner.keys()

    def test_jobs_beyond_config_count_start_one_worker_each(self, tmp_path,
                                                             inline_pool):
        paths = _tiny_circle_configs(tmp_path)
        assert main(["run", *paths, "--out", str(tmp_path / "out"),
                     "--jobs", "5000"]) == 0
        assert inline_pool.made == [2]
        for name in ("tiny_a", "tiny_b"):
            assert (tmp_path / "out" / name / "manifest.json").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_exits_2(self, tmp_path, capsys, inline_pool,
                                      jobs):
        paths = _tiny_circle_configs(tmp_path)
        assert main(["run", *paths, "--out", str(tmp_path / "out"),
                     "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert "--jobs must be at least 1" in err and "Traceback" not in err
        assert inline_pool.made == []
        assert not (tmp_path / "out").exists()

    def test_parallel_jobs_match_serial_run(self, tmp_path):
        paths = _tiny_circle_configs(tmp_path)
        manifests = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["run", *paths, "--out", str(out), "--jobs", jobs]) == 0
            manifests[jobs] = [(out / n / "manifest.json").read_bytes()
                               for n in ("tiny_a", "tiny_b")]
        assert manifests["1"] == manifests["2"]

    def test_determinism_byte_identical(self, tmp_path):
        outs, histories = [], []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = main(["run", scenario_path("circle_shrinker.json"),
                         "--out", str(out)])
            assert code == 0
            manifest = json.loads(
                (out / "circle_shrinker" / "manifest.json").read_text())
            outs.append(manifest["files"])
            histories.append(
                (out / "circle_shrinker" / "history.jsonl").read_bytes())
        assert outs[0] == outs[1]
        assert histories[0] == histories[1]


_PAIR = st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=2)
_RING = st.integers(8, 12).map(lambda m: [
    [np.cos(a), 0.7 * np.sin(a)] for a in np.linspace(0, 6.2, m)])
_SIDE = st.sampled_from(["inside", "outside"])
# the well-formed value of each part of a config
_VALID = {
    "name": st.just("ok"),
    "barrier": st.one_of(
        st.none(),
        st.fixed_dictionaries({"kind": st.just("line"), "normal": _PAIR}),
        st.fixed_dictionaries({"kind": st.just("circle"), "center": _PAIR,
                               "radius": st.floats(0.2, 2.0),
                               "omega_side": _SIDE}),
        st.fixed_dictionaries({"kind": st.just("parametric"),
                               "points": _RING, "omega_side": _SIDE})),
    "initial_curve": st.one_of(
        st.fixed_dictionaries({"kind": st.just("circle"), "center": _PAIR,
                               "radius": st.floats(0.1, 1.0),
                               "n": st.integers(3, 16)}),
        st.fixed_dictionaries({"kind": st.just("polyline"), "points": _RING,
                               "closed": st.booleans()})),
}
_JUNK = st.one_of(st.just(float("nan")), st.text(max_size=2), st.none())
_BAD_VECTOR = st.one_of(st.lists(st.floats(-2.0, 2.0), max_size=4)
                        .filter(lambda v: len(v) != 2),
                        st.lists(_JUNK, min_size=2, max_size=2), _JUNK,
                        st.lists(_PAIR, min_size=1, max_size=2))
_BAD_POINTS = st.one_of(
    st.lists(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3),
             max_size=10),
    st.lists(st.floats(-2.0, 2.0), max_size=4),
    st.lists(st.lists(_PAIR, min_size=1, max_size=2), max_size=3),
    st.lists(st.lists(_JUNK, min_size=2, max_size=2), max_size=3))
_BAD_SIDE = st.sampled_from(["bogus", 1, None])
_NOT_OBJECT = st.one_of(st.lists(st.integers(), max_size=2), st.integers(),
                        st.floats(allow_nan=False), st.text(max_size=3),
                        st.booleans())
# a malformed value of each part, one of which an example takes
_MALFORMED = {
    "top": st.one_of(st.lists(st.text(max_size=3), max_size=2),
                     st.integers(), st.text(max_size=3), st.none(),
                     st.booleans()),
    "name": st.one_of(st.sampled_from(["", ".", "..", "a/b", "/x", "a\0"]),
                      st.integers(), st.lists(st.text(max_size=1),
                                              max_size=1), st.none()),
    "barrier": st.one_of(
        st.fixed_dictionaries({"kind": st.just("line"),
                               "normal": _BAD_VECTOR}),
        st.fixed_dictionaries({"kind": st.just("circle"),
                               "center": _BAD_VECTOR}),
        st.fixed_dictionaries({"kind": st.just("circle"),
                               "omega_side": _BAD_SIDE, "radius": st.just(1)}),
        st.fixed_dictionaries({"kind": st.just("parametric"),
                               "points": _BAD_POINTS}),
        st.fixed_dictionaries({"kind": st.just("parametric"),
                               "points": _RING, "omega_side": _BAD_SIDE}),
        _NOT_OBJECT),
    "initial_curve": st.one_of(
        st.fixed_dictionaries({"kind": st.just("circle"),
                               "center": _BAD_VECTOR}),
        st.fixed_dictionaries({"kind": st.just("polyline"),
                               "points": _BAD_POINTS}),
        st.fixed_dictionaries({"kind": st.just("polyline"), "points": _RING,
                               "closed": st.sampled_from(
                                   ["yes", 0, 1, None, [True]])}),
        st.fixed_dictionaries({"kind": st.just("polyline"), "points": _RING,
                               "flags": st.lists(st.sampled_from(
                                   ["no", 0.5, None, True]), max_size=12)}),
        _NOT_OBJECT, st.none()),
}


@st.composite
def _configs(draw):
    """A config with at most one malformed part (None leaves the key out),
    and a t_end that is tiny or short."""
    bad = draw(st.sampled_from([None, *_MALFORMED]))
    if bad == "top":
        return draw(_MALFORMED["top"])
    cfg = {key: draw(_MALFORMED[key] if key == bad else valid)
           for key, valid in _VALID.items()}
    cfg = {key: value for key, value in cfg.items() if value is not None}
    cfg["flow"] = {"t_end": draw(st.sampled_from([1e-300, 1e-9, 0.004])),
                   "snapshot_dt": 0.002}
    return cfg


@settings(max_examples=120, derandomize=True, deadline=None)
@given(cfg=_configs())
def test_malformed_configs_exit_with_a_code_and_one_line(cfg):
    """Over configs of every shape, ``main`` returns 0, 2 or 3, lets no
    exception out, writes at most the one line of its error to standard
    error, and leaves no artifact directory when it fails."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", path, "--out", os.path.join(tmp, "out")])
        assert code in (0, 2, 3)
        assert err.getvalue().count("\n") == (code != 0), err.getvalue()
        assert os.path.isdir(os.path.join(tmp, "out", "ok")) == (code == 0)


class TestAuxPipelines:
    def test_kernel_and_varifold_checks(self, tmp_path):
        th = np.linspace(0.0, np.pi, 25)
        cfg = {
            "name": "aux_checks",
            "seed": 0,
            "barrier": {"kind": "line", "normal": [0.0, -1.0], "offset": 0.0},
            "kernels": {"kappa": 0.5, "alpha": 8.0, "c1": 2.0},
            "kernel_checks": {"n_samples": 200},
            "varifold": {
                "vertices": np.stack([np.cos(th), np.sin(th)], axis=-1).tolist(),
                "closed": False,
                "n_fields": 60,
                "tol": 0.02,
            },
            "pipeline": ["kernel_checks", "varifold_checks"],
        }
        p = tmp_path / "aux.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 0
        art = tmp_path / "out" / "aux_checks"
        csv = (art / "heat_operator_samples.csv").read_text().splitlines()
        assert csv[0] == "case,x1,x2,tau,value,value_scaled"
        assert len(csv) > 600  # two kernels per admissible sample, 3 cases
        rep = json.loads((art / "varifold_report.json").read_text())
        assert rep["is_free_boundary"]
        assert "residual" in rep and "fitted_H" in rep


def _partial_then_raise(path):
    with open(path, "w") as f:
        f.write("partial")
    raise RuntimeError("writer failed")


class TestAtomicWrites:
    def test_raising_writer_leaves_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            _write_atomic(str(tmp_path / "a.csv"), _partial_then_raise)
        assert list(tmp_path.iterdir()) == []

    def test_raising_writer_keeps_old_file(self, tmp_path):
        target = tmp_path / "a.csv"
        target.write_text("old")
        with pytest.raises(RuntimeError):
            _write_atomic(str(target), _partial_then_raise)
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]
        assert target.read_text() == "old"

    def test_scenario_artifact_writer_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(FlowHistory, "write_summary_csv",
                            lambda self, path: _partial_then_raise(path))
        cfg = {"name": "tiny", "seed": 0, "barrier": None,
               "initial_curve": {"kind": "circle", "radius": 1.0, "n": 32},
               "flow": {"t_end": 0.01, "snapshot_dt": 0.005}}
        p = tmp_path / "tiny.json"
        p.write_text(json.dumps(cfg))
        with pytest.raises(RuntimeError):
            run_scenario(str(p), str(tmp_path / "out"))
        # the history written before the failure goes with the directory
        # the run made
        assert list((tmp_path / "out").iterdir()) == []


class TestVerify:
    def test_filtered_verify_passes(self, capsys, tmp_path):
        code = main(["verify", "--filter", "6", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS [6]" in out
        table = (tmp_path / "verify_results.csv").read_text()
        assert table.splitlines()[0] == "id,description,measured,bound,passed,detail"

    def test_timings_have_one_key_per_row_run(self, tmp_path):
        assert main(["verify", "--filter", "7", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "verify_results.csv").read_text().splitlines()[1:]
        timings = json.loads((tmp_path / "verify_timings.json").read_text())
        assert list(timings["seconds"]) == [r.split(",")[0] for r in rows] \
            == ["7"]
        assert 0 < timings["seconds"]["7"] <= timings["total_seconds"]

    def test_unknown_filter_exits_2(self):
        assert main(["verify", "--filter", "nonsense"]) == 2

    def test_non_integer_env_seed_exits_2(self, monkeypatch):
        monkeypatch.setenv("FBMCF_SEED", "abc")
        assert main(["verify", "--filter", "6"]) == 2

    def test_repeated_filtered_verify_byte_identical(self, tmp_path):
        texts = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = main(["verify", "--filter", "7", "--out", str(out)])
            assert code == 0
            texts.append((out / "verify_results.csv").read_bytes())
        assert texts[0] == texts[1]


def _header(marker=HISTORY_FORMAT):
    return json.dumps({"config": {}, "format": marker})


def _b64(*coords):
    return base64.b64encode(np.array(coords, "<f8").tobytes()).decode("ascii")


def _snapshot(points, counts=(2,), flagged=(), closed=(False,), t=0.0):
    """One history line whose components hold ``counts`` vertices, with the
    snapshot's coordinates in ``points``."""
    return json.dumps({"t": t, "points": points, "counts": list(counts),
                       "flagged": list(flagged), "closed": list(closed),
                       "events": []})


class TestDensityCommand:
    def test_density_from_stored_history(self, half_circle_artifacts, capsys):
        hist = half_circle_artifacts / "history.jsonl"
        # the moving contact corner at t = 0.45 is a smooth boundary point
        code = main(["density", str(hist), "--center",
                     "0.31622776601683794,0,0.45",
                     "--kappa", "1e6", "--radii", "0.2,0.1,0.05,0.025"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["fitted_A"] == 0.0
        assert 0.9 < out["theta_at_point"] < 1.15

    def test_bad_center_exits_2(self, half_circle_artifacts):
        hist = half_circle_artifacts / "history.jsonl"
        assert main(["density", str(hist), "--center", "zzz",
                     "--kappa", "1e6"]) == 2

    def test_nonpositive_kappa_exits_2(self, half_circle_artifacts):
        hist = half_circle_artifacts / "history.jsonl"
        assert main(["density", str(hist), "--center", "0.3,0,0.45",
                     "--kappa", "-1"]) == 2

    def test_non_numeric_radius_exits_2(self, half_circle_artifacts):
        hist = half_circle_artifacts / "history.jsonl"
        assert main(["density", str(hist), "--center", "0.3,0,0.45",
                     "--kappa", "1e6", "--radii", "0.1,abc"]) == 2

    @pytest.mark.parametrize("radii", ["0,0.1", "nan,0.1", "0.1,inf"])
    def test_nonpositive_or_nonfinite_radius_exits_2(self, half_circle_artifacts,
                                                     radii, capsys):
        hist = half_circle_artifacts / "history.jsonl"
        assert main(["density", str(hist), "--center", "0.3,0,0.45",
                     "--kappa", "1e6", "--radii", radii]) == 2
        assert "--radii" in capsys.readouterr().err

    def test_missing_history_exits_2(self, tmp_path, capsys):
        assert main(["density", str(tmp_path / "nonexistent.jsonl"),
                     "--center", "0.3,0,0.45", "--kappa", "1e6"]) == 2
        assert "cannot read history" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", [
        ["{not json"],
        ['{"t": 0.1}'],
        # the layout before binary coordinates: no format marker
        ['{"config": {}}', '{"closed": [false], "components": [[[0.0, 0.0], '
         '[1.0, 0.0]]], "events": [], "flags": [[0, 0]], "t": 0.0}'],
        [_header("fbmcf-history/1"), _snapshot(_b64(0.0, 0.0, 1.0, 0.0))],
        [_header(), _snapshot("AAAA!AAA")],
        [_header(), _snapshot(_b64(0.0, 0.0, 1.0))],
        [_header(), _snapshot(_b64(0.0, 0.0, 1.0, 0.0), flagged=[[0]])],
        [_header(), _snapshot(_b64(0.0, 0.0, 1.0, 0.0), flagged=[2])],
        [_header(), _snapshot(_b64(0.0, 0.0, 1.0, 0.0),
                              closed=[False, True])],
        [_header(), _snapshot(_b64(0.0, 0.0, 1.0, np.nan))],
        [_header(), _snapshot(_b64(0.0, 0.0, np.inf, 0.0))],
        [_header(), _snapshot(_b64(0.0, 0.0, 1.0, 0.0), t=np.nan)],
        # the layout before this one: a base64 text and flag list per component
        [_header("fbmcf-history/2"), json.dumps(
            {"t": 0.0, "points": [_b64(0.0, 0.0, 1.0, 0.0)],
             "flags": [[0, 0]], "closed": [False], "events": []})],
        [_header(), _snapshot(_b64(0.0, 0.0, 1.0, 0.0), counts=[3])],
        [_header(), _snapshot(_b64(0.0, 0.0, 1.0, 0.0), counts=[3, -1],
                              closed=[False, False])],
        [_header(), _snapshot(_b64(0.0, 0.0, 1.0, 0.0), counts=[2.0])],
        [_header(), _snapshot(_b64(0.0, 0.0, 1.0, 0.0), counts=[True, 1],
                              closed=[False, False])],
        [_header(), _snapshot(_b64(0.0, 0.0, 1.0, 0.0), closed=[1])],
        [_header(), _snapshot(_b64(0.0, 0.0, 1.0, 0.0), flagged=[-1])],
        [_header(), _snapshot(_b64(0.0, 0.0, 1.0, 0.0), flagged=[0.0])],
        [_header(), _snapshot(_b64(0.0, 0.0, 1.0, 0.0), flagged=[True])],
        [_header(), _snapshot(_b64(0.0, 0.0, 1.0, 0.0), flagged=[0, True])],
        [_header(), _snapshot(_b64(0.0, 0.0, 1.0, 0.0), flagged=[2**70])],
        [_header(), _snapshot(_b64(0.0, 0.0, 1.0, 0.0)),
         _snapshot(_b64(0.0, 0.0), counts=[1], flagged=[1], t=0.1)],
        [_header(), _snapshot(_b64(0.0, 0.0, 1.0, 0.0)[:-1])],
        [_header(), _snapshot(_b64(0.0, 0.0, 1.0, 0.0) + "=")],
    ], ids=["not-json", "no-components", "old-layout", "unknown-marker",
            "invalid-base64", "bytes-not-multiple-of-16", "flag-lists",
            "flags-per-point", "closed-flags", "nan-coordinate",
            "inf-coordinate", "nan-time", "layout-2", "count-too-large",
            "negative-count", "float-count", "bool-count", "int-closed-flag",
            "negative-flag-index", "float-flag-index", "bool-flag-index",
            "mixed-bool-flag-index", "huge-flag-index", "flag-beyond-its-snapshot",
            "truncated-base64", "extra-padding"])
    def test_malformed_history_exits_2(self, tmp_path, lines, capsys):
        hist = tmp_path / "history.jsonl"
        hist.write_text("\n".join(lines) + "\n")
        assert main(["density", str(hist), "--center", "0.3,0,0.45",
                     "--kappa", "1e6"]) == 2
        assert "cannot read history" in capsys.readouterr().err

    def test_wellformed_history_line_reads(self, tmp_path):
        """The line the malformed cases above spoil, read as it is."""
        hist = tmp_path / "history.jsonl"
        hist.write_text("\n".join([
            _header(), _snapshot(_b64(0.0, -0.0, 1.0, 0.0), flagged=[1]),
            _snapshot(_b64(0.0, 0.0, 0.5, 0.0, 1.0, 0.0, 2.0, 2.0),
                      counts=[3, 1], closed=[True, False], t=0.1)]) + "\n")
        back = FlowHistory.from_jsonl(hist)
        first, (ring, dot) = back.snapshots[0].components, \
            back.snapshots[1].components
        assert first[0].points.tobytes() == np.array(
            [[0.0, -0.0], [1.0, 0.0]]).tobytes()
        assert first[0].on_s.tolist() == [False, True]
        assert ring.closed and len(ring.points) == 3 and not dot.closed
        assert back.times.tolist() == [0.0, 0.1]

    @pytest.mark.parametrize("center,kappa", [
        ("nan,0,0.05", "1e6"), ("0.3,0,inf", "1e6"), ("0.3,-inf,0.45", "1e6"),
        ("0.3,0,0.45", "inf"), ("0.3,0,0.45", "nan")])
    def test_non_finite_center_or_kappa_exits_2_before_reading(
            self, tmp_path, capsys, center, kappa):
        """The arguments are refused before the (missing) history is read."""
        assert main(["density", str(tmp_path / "nonexistent.jsonl"),
                     "--center", center, "--kappa", kappa]) == 2
        err = capsys.readouterr().err
        assert "cannot read history" not in err
        assert "--center" in err or "--kappa" in err
