import json
import os

import numpy as np
import pytest

from fbmcf.cli import main
from fbmcf.flow import FlowHistory
from fbmcf.scenario import _write_atomic, run_scenario

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "fbmcf",
                            "scenarios")


def scenario_path(name):
    return os.path.join(SCENARIO_DIR, name)


@pytest.fixture(scope="module")
def half_circle_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("art")
    code = main(["run", scenario_path("half_circle_shrinker.json"),
                 "--out", str(out)])
    assert code == 0
    return out / "half_circle_shrinker"


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

    def test_unknown_filter_exits_2(self):
        assert main(["verify", "--filter", "nonsense"]) == 2

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
