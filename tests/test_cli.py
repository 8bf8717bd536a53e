import concurrent.futures
import importlib.util
import json
import os
import sys
import warnings

import numpy as np
import pytest

from fbmcf.cli import main
from fbmcf.flow import FlowHistory
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

    def test_malformed_config_exits_2(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["run", str(p)]) == 2

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
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = main(["run", scenario_path("circle_shrinker.json"),
                         "--out", str(out)])
            assert code == 0
            manifest = json.loads(
                (out / "circle_shrinker" / "manifest.json").read_text())
            outs.append(manifest["files"])
        assert outs[0] == outs[1]


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
        # written before the failure: history; after it: nothing
        assert [f.name for f in (tmp_path / "out" / "tiny").iterdir()] \
            == ["history.jsonl"]


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

    @pytest.mark.parametrize("line", ["{not json", '{"t": 0.1}'],
                             ids=["not-json", "no-components"])
    def test_malformed_history_exits_2(self, tmp_path, line, capsys):
        hist = tmp_path / "history.jsonl"
        hist.write_text(line + "\n")
        assert main(["density", str(hist), "--center", "0.3,0,0.45",
                     "--kappa", "1e6"]) == 2
        assert "cannot read history" in capsys.readouterr().err
