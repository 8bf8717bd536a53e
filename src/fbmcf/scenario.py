"""Scenario configs: JSON in, validated objects out, artifacts written.

A scenario bundles a barrier, an initial curve, kernel parameters, and a
pipeline selection.  ``_KINDS`` says what each barrier and initial-curve
kind is, its builder supplying every default, and ``_BLOCKS`` what each
other block may set.  ``run_scenario`` executes the requested pipelines
and writes deterministic artifacts (JSON lines history, CSV tables, JSON
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
                      sample_heat_operator_cases, write_heat_operator_csv)
from .flow import (Component, CurveState, check_initial_curve,
                   check_run_params, check_run_work, circle_curve,
                   half_circle_curve, lasso_curve, run)

# the radii of a density report that sets none
DENSITY_RADII = (0.4, 0.2, 0.1, 0.05)


def _polyline(points, flags=(), closed=False):
    """One polyline, flags marking its vertices on the barrier (none when
    flags is left out: a JSON config cannot give the tuple)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1:] != (2,) or len(pts) < 2:
        raise ConfigError(f"polyline points must be at least 2 [x, y] pairs, "
                          f"got shape {pts.shape}")
    flags = [False] * len(pts) if flags == () else flags
    if not (isinstance(closed, bool) and isinstance(flags, list)
            and all(f in (0, 1) for f in flags)):
        raise ConfigError(f"polyline closed must be true or false and flags "
                          f"a list of true, false, 0 or 1; got "
                          f"closed={closed!r}, flags={flags!r}")
    if len(flags) != len(pts):
        raise ConfigError(f"polyline has {len(pts)} points but {len(flags)} "
                          f"flags")
    return CurveState([Component(pts, closed, np.array(flags, dtype=bool))])


# what each barrier and initial_curve kind is: (builder, required keys,
# optional keys); a key left out takes the builder's default
_KINDS = {
    "barrier": {
        "line": (Line, (), ("normal", "offset", "scale_cap")),
        "circle": (Circle, ("radius",), ("center", "omega_side")),
        "parametric": (ParametricBarrier, ("points",), ("omega_side",))},
    "initial_curve": {
        "circle": (circle_curve, (), ("center", "radius", "n")),
        "half_circle": (half_circle_curve, (), ("center", "radius", "n")),
        "lasso": (lasso_curve, (), ("barrier_radius", "n")),
        "polyline": (_polyline, ("points",), ("flags", "closed"))},
}


def _build(block, body):
    """The object a barrier or initial_curve block describes: its kind's
    builder called with the keys of that kind that the block sets.  Other
    keys are ignored here (``load_config`` refuses them in a config)."""
    try:
        kind = body["kind"]
        if not (isinstance(kind, str) and kind in _KINDS[block]):
            raise ConfigError(f"unknown {block.replace('_', ' ')} kind "
                              f"{kind!r}")
        builder, required, optional = _KINDS[block][kind]
        args = {key: body[key] for key in required}
        args.update((key, body[key]) for key in optional if key in body)
        return builder(**args)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {block} block: {exc}") from exc


def barrier_from_config(cfg):
    return None if cfg is None else _build("barrier", cfg)


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


_POSITIVE = (_positive, "a positive finite number")
_COUNT = (_count, "an integer >= 1")
# every key each block may set, so a misspelled one is refused rather than
# run with the default of the key it meant, and what its value must be,
# checked when the config is read so a malformed value is refused before
# any work; None for a value checked where it is used
_BLOCKS = {
    # check_run_params checks these once the default h_target is known
    "flow": dict.fromkeys(("t_end", "h_target", "snapshot_dt",
                           "vanish_length")),
    # null leaves a kernel value to be measured or calibrated; anything
    # else must be a finite number, since NaN passes every bound check
    "kernels": dict.fromkeys(("kappa", "alpha", "c1"), (
        lambda v: v is None or _real(v), "a finite number or null")),
    "density": {
        "center": (_reals(3, _real), "a list of 3 finite numbers"),
        "radii": (_reals(None, _positive),
                  "a list of positive finite numbers")},
    "tangent": {
        "center": (_reals(3, _real), "a list of 3 finite numbers"),
        "lambdas": (lambda v: _reals(None, _positive)(v)
                    and sorted(v, reverse=True) == v,
                    "a decreasing list of positive finite numbers"),
        "tol": _POSITIVE},
    "varifold": {
        "vertices": (lambda v: _reals(None, _reals(2, _real))(v)
                     and len(v) >= 2,
                     "a list of at least 2 [x, y] pairs of finite numbers"),
        "closed": (lambda v: isinstance(v, bool), "true or false"),
        "multiplicity": _COUNT,
        "n_fields": _COUNT,
        "tol": (lambda v: v is None or _positive(v),
                "a positive finite number or null")},
    "kernel_checks": {"n_samples": _COUNT},
    "regularize": {"epsilon": _POSITIVE, "R0": _POSITIVE,
                   "tol": (_reals(2, _positive),
                           "a list of 2 positive finite numbers"),
                   "t_max": _POSITIVE},
}
# the stages a pipeline lists, and the block value each stage cannot run
# without
_STAGES = ("flow", "density", "tangent", "varifold_checks", "kernel_checks",
           "regularize")
_STAGE_NEEDS = {"density": ("density", "center"),
                "tangent": ("tangent", "center"),
                "varifold_checks": ("varifold", "vertices")}


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
    for block, checks in _BLOCKS.items():
        body = cfg.get(block) or {}
        if not isinstance(body, dict):
            raise ConfigError(f"{block} must be an object, got {body!r}")
        for key, value in body.items():
            if key not in checks:
                raise ConfigError(f"{block}.{key} is not a setting; the "
                                  f"{block} block takes {', '.join(checks)}")
            if checks[key] and not checks[key][0](value):
                raise ConfigError(f"{block}.{key} must be {checks[key][1]}, "
                                  f"got {value!r}")
    curve = cfg.get("initial_curve")
    if isinstance(curve, dict) and "center" in curve \
            and not _reals(2, _real)(curve["center"]):
        raise ConfigError(f"initial_curve.center must be a list of 2 finite "
                          f"numbers, got {curve['center']!r}")
    pipeline = cfg.get("pipeline", ["flow"])
    if not (isinstance(pipeline, list)
            and all(stage in _STAGES for stage in pipeline)):
        raise ConfigError(f"pipeline must be a list of stages from "
                          f"{', '.join(_STAGES)}; got {pipeline!r}")
    for stage, (block, key) in _STAGE_NEEDS.items():
        if stage in pipeline and (cfg.get(block) or {}).get(key) is None:
            raise ConfigError(f"the {stage} stage needs {block}.{key}")
    for block, kinds in _KINDS.items():
        body = cfg.get(block)
        kind = body.get("kind") if isinstance(body, dict) else None
        if not (isinstance(kind, str) and kind in kinds):
            continue  # refused with the block when it is built
        keys = kinds[kind][1] + kinds[kind][2]
        for key in body:
            if key != "kind" and key not in keys:
                raise ConfigError(
                    f"{block}.{key} is not a setting of kind {kind!r}; it "
                    f"takes {', '.join(keys)}")
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
    runs_flow = not {"flow", "density", "tangent"}.isdisjoint(pipeline)

    # everything a config block can refuse is built before the artifact
    # directory is made, so a refused config leaves no directory behind
    barrier = barrier_from_config(cfg.get("barrier"))
    if runs_flow:
        fc = cfg.get("flow") or {}
        if cfg.get("initial_curve") is None:
            raise ConfigError("the flow needs an initial_curve block")
        initial = _build("initial_curve", cfg["initial_curve"])
        check_initial_curve(initial)  # before it is measured below
        n_pts = sum(len(c.points) for c in initial.components)
        t_end, h_target, snapshot_dt, vanish_length = (
            fc.get("t_end", 0.25),
            fc.get("h_target", initial.total_length() / max(n_pts - 1, 1)),
            fc.get("snapshot_dt", 0.005), fc.get("vanish_length"))
        check_run_params(t_end, h_target, snapshot_dt, vanish_length)
        check_run_work(initial, t_end, h_target, snapshot_dt)
    if "density" in pipeline or "kernel_checks" in pipeline:
        if barrier is None:
            raise ConfigError("kernel checks need a barrier")
        kern = cfg.get("kernels") or {}
        c1 = kern["c1"] if "c1" in kern else measured_c1(barrier)
        alpha, kappa = kern.get("alpha"), kern.get("kappa")
        try:
            if alpha is None:
                alpha = calibrate_alpha(KernelParams.for_barrier(
                    barrier, kappa=kappa, c1=c1), barrier, seed=seed)
            params = KernelParams.for_barrier(barrier, kappa=kappa,
                                              alpha=alpha, c1=c1)
        except ValueError as exc:  # kappa <= 0 or alpha < 1/2
            raise ConfigError(f"bad kernels block: {exc}") from exc
    if "regularize" in pipeline:
        rc = cfg.get("regularize") or {}
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
            dc = cfg["density"]
            rep = monotonicity_report(history, barrier, dc["center"], params,
                                      dc.get("radii", DENSITY_RADII))
            emit("density_profile.csv", rep.write_csv)
            emit("density_report.json", _json_writer(rep.to_dict()))

        if "tangent" in pipeline:
            from .tangent import extract_tangent_flow
            tc = cfg["tangent"]
            lambdas = tc.get("lambdas", [0.5, 0.4, 0.3])
            _, rep = extract_tangent_flow(
                history, tc["center"], lambdas, tol=tc.get("tol", 1e-3),
                mesh_h=fc.get("h_target"))
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
            vc = cfg["varifold"]
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
            kc = cfg.get("kernel_checks") or {}
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
