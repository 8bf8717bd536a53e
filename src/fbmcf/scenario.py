"""Scenario configs: JSON in, validated objects out, artifacts written.

A scenario bundles a barrier, an initial curve, kernel parameters, and a
pipeline selection.  ``run_scenario`` executes the requested pipelines and
writes deterministic artifacts (JSON lines history, CSV tables, JSON
reports) plus a manifest listing every file with its content hash.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
import shutil
import sys

import numpy as np

from .barrier import Circle, Line, ParametricBarrier
from .errors import ConfigError
from .kernels import (KernelParams, calibrate_alpha, measured_c1,
                      sample_heat_operator_cases, support_probe,
                      write_heat_operator_csv)
from . import flow as flow_mod
from .flow import (CurveState, check_initial_curve, check_run_params,
                   check_run_work, circle_curve, half_circle_curve,
                   lasso_curve, run)


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
                               n=cfg.get("n", 384))
        if kind == "polyline":
            pts = np.asarray(cfg["points"], dtype=float)
            if pts.ndim != 2 or pts.shape[1:] != (2,) or len(pts) < 2:
                raise ConfigError(f"polyline points must be at least 2 [x, "
                                  f"y] pairs, got shape {pts.shape}")
            closed = cfg.get("closed", False)
            flags = cfg.get("flags", [False] * len(pts))
            if not (isinstance(closed, bool) and isinstance(flags, list)
                    and all(f in (0, 1) for f in flags)):
                raise ConfigError(f"polyline closed must be true or false and "
                                  f"flags a list of true, false, 0 or 1; got "
                                  f"closed={closed!r}, flags={flags!r}")
            if len(flags) != len(pts):
                raise ConfigError(f"polyline has {len(pts)} points but "
                                  f"{len(flags)} flags")
            return CurveState([flow_mod.Component(
                pts, closed, np.array(flags, dtype=bool))])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad initial_curve block: {exc}") from exc
    raise ConfigError(f"unknown initial curve kind {cfg.get('kind')!r}")


def flow_params_from_config(fc, h_default):
    """(t_end, h_target, snapshot_dt, vanish_length) of a flow block,
    checked by ``flow.check_run_params`` to let the run end."""
    params = (fc.get("t_end", 0.25), fc.get("h_target", h_default),
              fc.get("snapshot_dt", 0.005), fc.get("vanish_length"))
    check_run_params(*params)
    return params


def kernel_params_from_config(cfg, barrier, seed=0):
    cfg = dict(cfg or {})
    if barrier is None:
        raise ConfigError("kernel checks need a barrier")
    c1 = cfg["c1"] if "c1" in cfg else measured_c1(barrier)
    alpha = cfg.get("alpha")
    kappa = cfg.get("kappa")
    try:
        draft = KernelParams.for_barrier(barrier, kappa=kappa,
                                         alpha=alpha or 8.0, c1=c1)
        if alpha is None:
            alpha = calibrate_alpha(draft, barrier, seed=seed)
        return KernelParams.for_barrier(barrier, kappa=kappa, alpha=alpha,
                                        c1=c1)
    except ValueError as exc:  # kappa <= 0 or alpha < 1/2
        raise ConfigError(f"bad kernels block: {exc}") from exc


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


def env_seed(default):
    """The integer seed FBMCF_SEED when it is set, else ``default``."""
    value = os.environ.get("FBMCF_SEED", default)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"seed must be an integer, got {value!r}") from None


# keys of earlier configs whose values are fixed constants: a config that
# sets one is refused rather than run without it
_REMOVED_KEYS = (("flow", "cfl"), ("flow", "pop_threshold"),
                 ("kernels", "sample_budget"))
# every key each block may set: a misspelled one is refused rather than
# run with the default of the key it meant
_BLOCK_KEYS = {
    "flow": ("t_end", "h_target", "snapshot_dt", "vanish_length"),
    "kernels": ("kappa", "alpha", "c1"),
    "density": ("center", "radii"),
    "tangent": ("center", "lambdas", "tol"),
    "varifold": ("vertices", "closed", "multiplicity", "n_fields", "tol"),
    "kernel_checks": ("n_samples",),
    "regularize": ("epsilon", "R0", "tol", "t_max"),
}


def _real(v):
    return isinstance(v, numbers.Real) and abs(v) <= sys.float_info.max


def _positive(v):
    return _real(v) and v > 0


def _count(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) \
        and v >= 1


def _reals(n, test):
    """Check of a nonempty list (of n entries unless n is None) whose
    entries pass test."""
    return lambda v: isinstance(v, list) and len(v) > 0 \
        and (n is None or len(v) == n) and all(map(test, v))


# what each block value must be, checked when the config is read, so a
# malformed value is refused before any work rather than where it is used
_BLOCK_VALUES = {
    ("initial_curve", "center"): (_reals(2, _real),
                                  "a list of 2 finite numbers"),
    ("density", "center"): (_reals(3, _real), "a list of 3 finite numbers"),
    ("density", "radii"): (_reals(None, _positive),
                           "a list of positive finite numbers"),
    ("tangent", "center"): (_reals(3, _real), "a list of 3 finite numbers"),
    ("tangent", "lambdas"): (
        lambda v: _reals(None, _positive)(v) and sorted(v, reverse=True) == v,
        "a decreasing list of positive finite numbers"),
    ("tangent", "tol"): (_positive, "a positive finite number"),
    ("varifold", "vertices"): (
        lambda v: _reals(None, _reals(2, _real))(v) and len(v) >= 2,
        "a list of at least 2 [x, y] pairs of finite numbers"),
    ("varifold", "closed"): (lambda v: isinstance(v, bool), "true or false"),
    ("varifold", "multiplicity"): (_count, "an integer >= 1"),
    ("varifold", "n_fields"): (_count, "an integer >= 1"),
    ("varifold", "tol"): (lambda v: v is None or _positive(v),
                          "a positive finite number or null"),
    ("kernel_checks", "n_samples"): (_count, "an integer >= 1"),
    ("regularize", "epsilon"): (_positive, "a positive finite number"),
    ("regularize", "R0"): (_positive, "a positive finite number"),
    ("regularize", "tol"): (_reals(2, _positive),
                            "a list of 2 positive finite numbers"),
    ("regularize", "t_max"): (_positive, "a positive finite number"),
}
# the stages a pipeline lists, and the block value each stage cannot run
# without
_STAGES = ("flow", "density", "tangent", "varifold_checks", "kernel_checks",
           "regularize")
_STAGE_NEEDS = {"density": ("density", "center"),
                "tangent": ("tangent", "center"),
                "varifold_checks": ("varifold", "vertices")}
# every key besides "kind" that a barrier or initial_curve block of each
# kind may set, for the same reason
_KIND_KEYS = {
    "barrier": {"line": ("normal", "offset", "scale_cap"),
                "circle": ("center", "radius", "omega_side"),
                "parametric": ("points", "omega_side")},
    "initial_curve": {"circle": ("center", "radius", "n"),
                      "half_circle": ("center", "radius", "n"),
                      "lasso": ("barrier_radius", "n"),
                      "polyline": ("points", "flags", "closed")},
}


def load_config(path):
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object, got "
                          f"{type(cfg).__name__}")
    name = cfg.get("name")  # the artifact directory's one path component
    if not (isinstance(name, str) and name not in ("", ".", "..")
            and os.path.basename(name) == name and "\0" not in name):
        raise ConfigError(f"config needs a 'name' naming one directory: a "
                          f"nonempty string without a path separator or "
                          f"NUL, not '.' or '..'; got {name!r}")
    for block, keys in _BLOCK_KEYS.items():
        body = cfg.get(block) or {}
        if not isinstance(body, dict):
            raise ConfigError(f"{block} must be an object, got {body!r}")
        for key in body:
            if (block, key) in _REMOVED_KEYS:
                raise ConfigError(f"{block}.{key} is not a setting: its value "
                                  "is fixed; remove the key")
            if key not in keys:
                raise ConfigError(f"{block}.{key} is not a setting; the "
                                  f"{block} block takes {', '.join(keys)}")
    # null leaves a kernel value to be measured or calibrated; anything
    # else must be a finite number, since NaN passes every bound check
    for key, value in (cfg.get("kernels") or {}).items():
        if value is not None and not _real(value):
            raise ConfigError(f"kernels.{key} must be a finite number or "
                              f"null, got {value!r}")
    for (block, key), (test, what) in _BLOCK_VALUES.items():
        body = cfg.get(block) or {}
        if key in body and not test(body[key]):
            raise ConfigError(f"{block}.{key} must be {what}, "
                              f"got {body[key]!r}")
    pipeline = cfg.get("pipeline", ["flow"])
    if not (isinstance(pipeline, list)
            and all(stage in _STAGES for stage in pipeline)):
        raise ConfigError(f"pipeline must be a list of stages from "
                          f"{', '.join(_STAGES)}; got {pipeline!r}")
    for stage, (block, key) in _STAGE_NEEDS.items():
        if stage in pipeline and (cfg.get(block) or {}).get(key) is None:
            raise ConfigError(f"the {stage} stage needs {block}.{key}")
    for block, kinds in _KIND_KEYS.items():
        body = cfg.get(block)
        kind = body.get("kind") if isinstance(body, dict) else None
        if not (isinstance(kind, str) and kind in kinds):
            continue  # refused with the block when it is built
        for key in body:
            if key != "kind" and key not in kinds[kind]:
                raise ConfigError(
                    f"{block}.{key} is not a setting of kind {kind!r}; it "
                    f"takes {', '.join(kinds[kind])}")
    return cfg


def run_scenario(config_path, out_dir=None, seed=None):
    """Execute a scenario config; returns the artifact directory.

    Environment variable FBMCF_SEED (or the ``seed`` argument) overrides the
    config seed.  Every written file lands in the manifest with its hash.
    A run that raises removes the artifact directory if this call made it;
    a directory that was there before keeps its files.
    """
    cfg = load_config(config_path)
    name = cfg["name"]
    if seed is None:
        seed = env_seed(cfg.get("seed", 0))
    pipeline = cfg.get("pipeline", ["flow"])
    runs_flow = "flow" in pipeline or "density" in pipeline \
        or "tangent" in pipeline

    # everything a config block can refuse is built before the artifact
    # directory is made, so a refused config leaves no directory behind
    barrier = barrier_from_config(cfg.get("barrier"))
    if runs_flow:
        fc = cfg.get("flow", {})
        if cfg.get("initial_curve") is None:
            raise ConfigError("the flow needs an initial_curve block")
        initial = initial_curve_from_config(cfg["initial_curve"])
        check_initial_curve(initial)  # before it is measured below
        n_pts = sum(len(c.points) for c in initial.components)
        h_default = initial.total_length() / max(n_pts - 1, 1)
        t_end, h_target, snapshot_dt, vanish_length = \
            flow_params_from_config(fc, h_default)
        check_run_work(CurveState(initial.components, initial.time,
                                  barrier if barrier is not None
                                  else initial.barrier),
                       t_end, h_target, snapshot_dt)
    if "density" in pipeline or "kernel_checks" in pipeline:
        params = kernel_params_from_config(cfg.get("kernels"), barrier, seed)
    if "regularize" in pipeline:
        rc = cfg.get("regularize", {})
        eps, R0 = rc.get("epsilon", 0.05), rc.get("R0", 1.0)
        if not eps <= R0 / 2.0:
            raise ConfigError("regularize.epsilon must be at most R0 / 2")
        from .regularize import check_translator_params
        check_translator_params(eps, R0)

    out_root = out_dir or cfg.get("out", "out")
    art_dir = os.path.join(out_root, name)
    made = not os.path.exists(art_dir)
    os.makedirs(art_dir, exist_ok=True)
    try:
        written = []

        def emit(fname, writer):
            _write_atomic(os.path.join(art_dir, fname), writer)
            written.append(fname)

        history = None
        if runs_flow:
            history = run(initial, t_end=t_end, h_target=h_target,
                          snapshot_dt=snapshot_dt,
                          vanish_length=vanish_length,
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
            radii = dc.get("radii", [0.4, 0.2, 0.1, 0.05])
            rep = monotonicity_report(history, barrier, dc["center"], params,
                                      radii)
            emit("density_profile.csv", rep.write_csv)

            emit("density_report.json", _json_writer(rep.to_dict()))

        if "tangent" in pipeline:
            from .tangent import extract_tangent_flow
            tc = cfg.get("tangent", {})
            lambdas = tc.get("lambdas", [0.5, 0.4, 0.3])
            _, rep = extract_tangent_flow(
                history, tc["center"], lambdas, tol=tc.get("tol", 1e-3),
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
            V = DiscreteVarifold.from_polyline(
                np.asarray(vc["vertices"], dtype=float),
                closed=vc.get("closed", False),
                multiplicity=vc.get("multiplicity", 1))
            fields = tangential_family(
                barrier, n_fields=vc.get("n_fields", 40), seed=seed)
            rep = certify_free_boundary(V, barrier, fields,
                                        tol=vc.get("tol"))
            emit("varifold_report.json", _json_writer({
                "residual": rep.residual,
                "fitted_H": rep.fitted_curvature.tolist(),
                "is_free_boundary": rep.is_free_boundary,
            }))

        if "kernel_checks" in pipeline:
            kc = cfg.get("kernel_checks", {})
            samples = sample_heat_operator_cases(
                barrier, params, n_samples=kc.get("n_samples", 1000),
                seed=seed)
            emit("heat_operator_samples.csv",
                 lambda p: write_heat_operator_csv(samples, p))

        if "regularize" in pipeline:
            from .regularize import (solve_translator_profile,
                                     write_profile_csv, write_slices_csv)
            prof = solve_translator_profile(
                eps, R0, tolerances=tuple(rc.get("tol", (1e-11, 1e-13))))
            emit("profile.csv", lambda p: write_profile_csv(prof, p))
            t_grid = np.linspace(0.0, rc.get("t_max", 0.4), 81)
            emit("slices.csv", lambda p: write_slices_csv(prof, t_grid, p))

        manifest = {
            "scenario": name,
            "seed": seed,
            "files": {f: _sha256(os.path.join(art_dir, f))
                      for f in sorted(written)},
        }
        _write_atomic(os.path.join(art_dir, "manifest.json"),
                      _json_writer(manifest))
    except BaseException:
        if made:
            shutil.rmtree(art_dir, ignore_errors=True)
        raise
    return art_dir
