"""Scenario configs: JSON in, validated objects out, artifacts written.

A scenario bundles a barrier, an initial curve, kernel parameters, and a
pipeline selection.  ``run_scenario`` executes the requested pipelines and
writes deterministic artifacts (JSON lines history, CSV tables, JSON
reports) plus a manifest listing every file with its content hash.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .barrier import Circle, Line, ParametricBarrier
from .errors import ConfigError
from .kernels import (KernelParams, calibrate_alpha, measured_c1,
                      sample_heat_operator_cases, support_probe,
                      write_heat_operator_csv)
from . import flow as flow_mod
from .flow import CurveState, circle_curve, half_circle_curve, lasso_curve, run


def barrier_from_config(cfg):
    if cfg is None:
        return None
    try:
        kind = cfg["kind"]
        if kind == "line":
            return Line(normal=cfg.get("normal", (0.0, -1.0)),
                        offset=cfg.get("offset", 0.0),
                        scale_cap=cfg.get("scale_cap", 1e6))
        if kind == "circle":
            return Circle(center=cfg.get("center", (0.0, 0.0)),
                          radius=cfg["radius"],
                          omega_side=cfg.get("omega_side", "inside"))
        if kind == "parametric":
            return ParametricBarrier(np.asarray(cfg["points"], dtype=float),
                                     omega_side=cfg.get("omega_side", "inside"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad barrier block: {exc}") from exc
    raise ConfigError(f"unknown barrier kind {cfg.get('kind')!r}")


def barrier_to_config(S):
    if S is None:
        return None
    if isinstance(S, Line):
        return {"kind": "line", "normal": S.nu.tolist(), "offset": S.offset,
                "scale_cap": S.scale_cap}
    if isinstance(S, Circle):
        return {"kind": "circle", "center": S.center.tolist(),
                "radius": S.radius, "omega_side": S.omega_side}
    if isinstance(S, ParametricBarrier):
        return {"kind": "parametric", "points": S.points.tolist(),
                "omega_side": S.omega_side}
    raise ConfigError("unserializable barrier")


def initial_curve_from_config(cfg):
    try:
        kind = cfg["kind"]
        if kind == "circle":
            return circle_curve(center=cfg.get("center", (0.0, 0.0)),
                                radius=cfg.get("radius", 1.0),
                                n=cfg.get("n", 512))
        if kind == "half_circle":
            return half_circle_curve(radius=cfg.get("radius", 1.0),
                                     n=cfg.get("n", 256),
                                     center=cfg.get("center", (0.0, 0.0)))
        if kind == "lasso":
            return lasso_curve(barrier_radius=cfg.get("barrier_radius", 1.0),
                               dip=cfg.get("dip", 0.04),
                               lobe=cfg.get("lobe", 0.5),
                               opening=cfg.get("opening", 0.35),
                               n=cfg.get("n", 384))
        if kind == "polyline":
            pts = np.asarray(cfg["points"], dtype=float)
            flags = np.asarray(cfg.get("flags", np.zeros(len(pts))), dtype=bool)
            return CurveState([flow_mod.Component(
                pts, cfg.get("closed", False), flags)])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad initial_curve block: {exc}") from exc
    raise ConfigError(f"unknown initial curve kind {cfg.get('kind')!r}")


def kernel_params_from_config(cfg, barrier, seed=0):
    cfg = dict(cfg or {})
    if barrier is None:
        raise ConfigError("kernel checks need a barrier")
    c1 = cfg.get("c1", measured_c1(barrier))
    alpha = cfg.get("alpha")
    kappa = cfg.get("kappa")
    draft = KernelParams.for_barrier(barrier, kappa=kappa,
                                     alpha=alpha or 8.0, c1=c1)
    if alpha is None:
        alpha = calibrate_alpha(draft, barrier,
                                sample_budget=cfg.get("sample_budget", 2000),
                                seed=seed)
    return KernelParams.for_barrier(barrier, kappa=kappa, alpha=alpha, c1=c1)


def _write_atomic(path, writer):
    """writer(tmp) into a ``.tmp-`` file beside path, then rename it onto
    path: readers see the old file or the whole new one, and a writer that
    raises leaves neither the temporary file nor path behind."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       ".tmp-" + os.path.basename(path))
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _json_writer(obj):
    """Writer of obj as sorted, indented JSON plus a final newline."""
    def write(path):
        with open(path, "w") as f:
            f.write(json.dumps(obj, sort_keys=True, indent=1) + "\n")
    return write


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def load_config(path):
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if "name" not in cfg:
        raise ConfigError("config needs a 'name'")
    return cfg


def run_scenario(config_path, out_dir=None, seed=None):
    """Execute a scenario config; returns the artifact directory.

    Environment variable FBMCF_SEED (or the ``seed`` argument) overrides the
    config seed.  Every written file lands in the manifest with its hash.
    """
    cfg = load_config(config_path)
    name = cfg["name"]
    if seed is None:
        seed = int(os.environ.get("FBMCF_SEED", cfg.get("seed", 0)))
    out_root = out_dir or cfg.get("out", "out")
    art_dir = os.path.join(out_root, name)
    os.makedirs(art_dir, exist_ok=True)

    barrier = barrier_from_config(cfg.get("barrier"))
    pipeline = cfg.get("pipeline", ["flow"])
    written = []

    def emit(fname, writer):
        _write_atomic(os.path.join(art_dir, fname), writer)
        written.append(fname)

    history = None
    if "flow" in pipeline or "density" in pipeline or "tangent" in pipeline:
        fc = cfg.get("flow", {})
        initial = initial_curve_from_config(cfg["initial_curve"])
        n_pts = sum(len(c.points) for c in initial.components)
        h_default = initial.total_length() / max(n_pts - 1, 1)
        history = run(initial,
                      t_end=fc.get("t_end", 0.25),
                      h_target=fc.get("h_target", h_default),
                      snapshot_dt=fc.get("snapshot_dt", 0.005),
                      cfl=fc.get("cfl", 0.4),
                      pop_threshold=fc.get("pop_threshold"),
                      vanish_length=fc.get("vanish_length"),
                      barrier=barrier,
                      config_echo={"name": name, "seed": seed,
                                   "barrier": barrier_to_config(barrier)})
        emit("history.jsonl", history.to_jsonl)
        emit("summary.csv", history.write_summary_csv)
        if history.events:
            emit("events.json",
                 _json_writer([e.to_dict() for e in history.events]))

    if "density" in pipeline:
        from .density import monotonicity_report
        dc = cfg.get("density", {})
        params = kernel_params_from_config(cfg.get("kernels"), barrier, seed)
        center = dc.get("center")
        if center is None:
            raise ConfigError("density pipeline needs density.center")
        radii = dc.get("radii", [0.4, 0.2, 0.1, 0.05])
        rep = monotonicity_report(history, barrier, center, params, radii)
        emit("density_profile.csv", rep.write_csv)

        emit("density_report.json", _json_writer(rep.to_dict()))

    if "tangent" in pipeline:
        from .tangent import extract_tangent_flow
        tc = cfg.get("tangent", {})
        center = tc.get("center")
        if center is None:
            raise ConfigError("tangent pipeline needs tangent.center")
        lambdas = tc.get("lambdas", [0.5, 0.4, 0.3])
        _, rep = extract_tangent_flow(history, center, lambdas,
                                      tol=tc.get("tol", 1e-3),
                                      mesh_h=cfg.get("flow", {}).get("h_target"))
        emit("tangent_report.json", _json_writer({
            "lambdas": rep.lambdas,
            "hausdorff_gaps": rep.hausdorff_gaps,
            "residuals": rep.residuals,
            "converged": rep.converged,
            "floor_hit": rep.floor_hit,
            "limit_slice": [c.points.tolist()
                            for c in rep.limit_slice.components],
        }))

    if "varifold_checks" in pipeline:
        from .varifold import (DiscreteVarifold, certify_free_boundary,
                               tangential_family)
        vc = cfg.get("varifold", {})
        if "vertices" not in vc:
            raise ConfigError("varifold_checks needs varifold.vertices")
        V = DiscreteVarifold.from_polyline(
            np.asarray(vc["vertices"], dtype=float),
            closed=vc.get("closed", False),
            multiplicity=vc.get("multiplicity", 1))
        fields = tangential_family(barrier, n_fields=vc.get("n_fields", 40),
                                   seed=seed)
        rep = certify_free_boundary(V, barrier, fields,
                                    tol=vc.get("tol"))
        emit("varifold_report.json", _json_writer({
            "residual": rep.residual,
            "fitted_H": rep.fitted_curvature.tolist(),
            "is_free_boundary": rep.is_free_boundary,
        }))

    if "kernel_checks" in pipeline:
        params = kernel_params_from_config(cfg.get("kernels"), barrier, seed)
        kc = cfg.get("kernel_checks", {})
        samples = sample_heat_operator_cases(
            barrier, params, n_samples=kc.get("n_samples", 1000), seed=seed)
        emit("heat_operator_samples.csv",
             lambda p: write_heat_operator_csv(samples, p))

    if "regularize" in pipeline:
        from .regularize import (solve_translator_profile, write_profile_csv,
                                 write_slices_csv)
        rc = cfg.get("regularize", {})
        eps = rc.get("epsilon", 0.05)
        prof = solve_translator_profile(
            eps, rc.get("R0", 1.0),
            tolerances=tuple(rc.get("tol", (1e-11, 1e-13))))
        emit("profile.csv", lambda p: write_profile_csv(prof, p))
        t_grid = np.linspace(0.0, rc.get("t_max", 0.4), 81)
        emit("slices.csv", lambda p: write_slices_csv(prof, t_grid, p))

    manifest = {
        "scenario": name,
        "seed": seed,
        "files": {f: _sha256(os.path.join(art_dir, f)) for f in sorted(written)},
    }
    _write_atomic(os.path.join(art_dir, "manifest.json"),
                  _json_writer(manifest))
    return art_dir
