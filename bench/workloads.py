"""The four benchmark workloads, driven through fbmcf's public API.

Each workload has a repeatable ``setup`` (input generation and warm-up) and
a ``cycle`` that runs every op once and returns their results.  An op is one
oracle-checked stage; each check is (name, measured, bound) and passes when
measured <= bound, as in ``fbmcf.acceptance``.  Yes/no checks measure 0 or 1
against a bound of 0.5.

The seed picks the rigid motion of the flow scenarios and the RNG streams of
samples and point clouds; it never changes a size.  Library calls go through
module attributes (``flow.run``, not ``run``) so the tracer's patches apply.

Sizes are chosen so one cycle takes a few seconds on a 2-core machine while
every oracle passes with margin; ``README.md`` gives the reasons.
"""

from __future__ import annotations

import json
import os
import shutil
import traceback
from dataclasses import dataclass, field

import numpy as np

from fbmcf import barrier as barrier_mod
from fbmcf import density, flow, kernels, regularize, scenario, tangent, varifold
from fbmcf.errors import FbmcfError

SHRINKER_DENSITY = float(np.sqrt(2.0 * np.pi / np.e))
BIG_KAPPA = kernels.KernelParams(kappa=1e7, alpha=8.0, c1=2.0)

CORNER_N = 128                       # half-circle vertices
CORNER_T_END = 0.4995                # just before extinction at t = 1/2
CORNER_SNAPSHOT_DT = 5e-4
CORNER_RADII = [0.5, 0.4, 0.3, 0.2, 0.1]
TANGENT_LAMBDAS = [0.5, 0.4, 0.3]
LASSO_N = 192
LASSO_T_END = 0.18                   # the single pop happens near t = 0.144
CIRCLE_NS = (128, 256)               # n and 2n for the observed order
DENSITY_GRID = 128                   # smooth spacetime centres per cycle
SMOOTH_RADII = [0.2, 0.1, 0.05, 0.025]
HEAT_SAMPLES = 2000                  # per case; A, B and C, direct and mirrored
SUPPORT_PROBES = 1000
KGON_SIDES = (3, 6, 12, 64)
TRANSLATOR_EPS = (0.2, 0.1, 0.05)
ELLIPSE_CLOUD = 96


@dataclass
class OpResult:
    name: str
    checks: list = field(default_factory=list)   # (name, measured, bound)
    error: str = ""

    @property
    def ok(self):
        return not self.error and all(m <= b for _, m, b in self.checks)

    def ratio(self):
        """Worst measured/bound (every bound is positive); an op that
        raised reads as at least 2."""
        worst = max((m / b for _, m, b in self.checks), default=0.0)
        worst = max(worst, 2.0) if self.error else worst
        return float(min(worst, 1e9))  # a failed check can measure inf


def run_op(name, fn):
    """Run one op; an exception is a failed op, recorded with its traceback."""
    op = OpResult(name)
    try:
        op.checks = [(c, float(m), float(b)) for c, m, b in fn()]
    except Exception:  # an op failing must not stop the benchmark
        op.error = traceback.format_exc(limit=4)
    return op


def flag(failed):
    return 1.0 if failed else 0.0


def rigid_motion(seed, stream):
    """Seeded rotation and shift; every oracle below is invariant under it."""
    rng = np.random.default_rng([seed, stream])
    a = rng.uniform(0.0, 2.0 * np.pi)
    R = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    return R, rng.uniform(-1.0, 1.0, 2)


def write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True, indent=1)
    return path


def read_json(path):
    with open(path) as f:
        return json.load(f)


def artifact_bytes(art_dir):
    return sum(os.path.getsize(os.path.join(art_dir, f))
               for f in sorted(os.listdir(art_dir)))


def event_counts(events):
    kinds = [e["kind"] if isinstance(e, dict) else e.kind for e in events]
    return {k.lower(): kinds.count(k) for k in ("Pop", "Vanish", "Collision")}


def corner_config(name, seed, R, b, pipeline):
    """Half circle standing on a Line, moved by (R, b), run to extinction."""
    comp = flow.half_circle_curve(radius=1.0, n=CORNER_N).components[0]
    nu = R @ np.array([0.0, -1.0])
    x0 = [float(b[0]), float(b[1]), 0.5]
    return {
        "name": name, "seed": seed,
        "barrier": {"kind": "line", "normal": nu.tolist(),
                    "offset": float(nu @ b), "scale_cap": 1e8},
        "initial_curve": {"kind": "polyline", "closed": False,
                          "points": (comp.points @ R.T + b).tolist(),
                          "flags": comp.on_s.astype(int).tolist()},
        "flow": {"t_end": CORNER_T_END, "h_target": np.pi / CORNER_N,
                 "snapshot_dt": CORNER_SNAPSHOT_DT, "vanish_length": 0.02},
        "kernels": {"kappa": BIG_KAPPA.kappa, "alpha": BIG_KAPPA.alpha,
                    "c1": BIG_KAPPA.c1},
        "density": {"center": x0, "radii": CORNER_RADII},
        "tangent": {"center": x0, "lambdas": TANGENT_LAMBDAS, "tol": 1e-3},
        "pipeline": pipeline,
    }


def tangent_checks(limit_points, gaps, converged):
    rad = float(np.linalg.norm(limit_points, axis=1).mean())
    return [("cauchy_gap", gaps[-1], 1e-3),
            ("limit_radius_dev", abs(rad - np.sqrt(2.0)), 5e-3 * np.sqrt(2.0)),
            ("not_converged", flag(not converged), 0.5)]


class Workload:
    name = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.facts = {}

    def setup(self):
        raise NotImplementedError

    def ops(self):
        """(name, callable) pairs of one cycle, in order."""
        raise NotImplementedError

    def cycle(self):
        """Run every op once; returns (op results, deterministic facts)."""
        self.facts = {}
        return [run_op(n, fn) for n, fn in self.ops()], dict(self.facts)


class BarrierFlows(Workload):
    """`fbmcf run` on a corner scenario and a one-pop lasso scenario."""

    name = "barrier_flows"

    def setup(self):
        R, b = rigid_motion(self.seed, 1)
        self.corner_cfg = write_json(
            os.path.join(self.workdir, "corner.json"),
            corner_config("corner", self.seed, R, b,
                          ["flow", "density", "tangent"]))
        lasso = flow.lasso_curve(barrier_radius=1.0, n=LASSO_N)
        comp = lasso.components[0]
        self.lasso_barrier = barrier_mod.Circle(b, 1.0, omega_side="outside")
        self.lasso_cfg = write_json(os.path.join(self.workdir, "lasso.json"), {
            "name": "lasso", "seed": self.seed,
            "barrier": {"kind": "circle", "center": b.tolist(), "radius": 1.0,
                        "omega_side": "outside"},
            "initial_curve": {"kind": "polyline", "closed": False,
                              "points": (comp.points @ R.T + b).tolist(),
                              "flags": comp.on_s.astype(int).tolist()},
            "flow": {"t_end": LASSO_T_END,
                     "h_target": lasso.total_length() / LASSO_N,
                     "snapshot_dt": 0.002},
            "pipeline": ["flow"],
        })
        self.out = os.path.join(self.workdir, "artifacts")
        shutil.rmtree(self.out, ignore_errors=True)

    def ops(self):
        return [("corner_scenario", self.corner), ("lasso_scenario", self.lasso)]

    def _record(self, key, art):
        manifest = read_json(os.path.join(art, "manifest.json"))
        self.facts[f"{key}.history_sha256"] = manifest["files"]["history.jsonl"]
        self.facts[f"{key}.artifact_bytes"] = artifact_bytes(art)
        events = os.path.join(art, "events.json")
        counts = event_counts(read_json(events) if os.path.exists(events) else [])
        for k, v in counts.items():
            self.facts[f"{key}.events.{k}"] = v

    def corner(self):
        art = scenario.run_scenario(self.corner_cfg, out_dir=self.out,
                                    seed=self.seed)
        self._record("corner", art)
        dens = read_json(os.path.join(art, "density_report.json"))
        tan = read_json(os.path.join(art, "tangent_report.json"))
        limit = np.vstack([np.asarray(c) for c in tan["limit_slice"]])
        return [("corner_theta_dev",
                 abs(dens["theta_at_point"] - SHRINKER_DENSITY),
                 0.02 * SHRINKER_DENSITY),
                ("fitted_A_nonzero", flag(dens["fitted_A"] != 0.0), 0.5),
                ] + tangent_checks(limit, tan["hausdorff_gaps"],
                                   tan["converged"])

    def lasso(self):
        art = scenario.run_scenario(self.lasso_cfg, out_dir=self.out,
                                    seed=self.seed)
        self._record("lasso", art)
        hist = flow.FlowHistory.from_jsonl(os.path.join(art, "history.jsonl"),
                                           barrier=self.lasso_barrier)
        pops = [e for e in hist.events if e.kind == "Pop"]
        t_pop = pops[0].time
        post = next(s for s in hist.snapshots
                    if s.time > t_pop and s.components)
        bdry = np.vstack([c.points[c.on_s] for c in post.components])
        on_s = float(np.abs(np.atleast_1d(
            self.lasso_barrier.distance(bdry))).max())
        rep = flow.dissipation_inequality_check(
            hist, flow.SpacetimeTestFunction.constant(1.0),
            t_pop - 0.02, t_pop + 0.02)
        return [("pop_count_dev", abs(len(pops) - 1), 0.5),
                ("components_dev", abs(len(post.components) - 2), 0.5),
                ("boundary_vertices_dev", abs(len(bdry) - 4), 0.5),
                ("on_s_dev", on_s, 1e-8),
                ("mass_gap", -rep.gap, rep.tol),
                ("mass_inequality_failed", flag(not rep.passed), 0.5)]


class ClosedRefinement(Workload):
    """Barrier-free circles at n and 2n: radius law, order, saturation."""

    name = "closed_refinement"

    def setup(self):
        rng = np.random.default_rng([self.seed, 2])
        self.center = rng.uniform(-1.0, 1.0, 2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        self.initial = {}
        for n in CIRCLE_NS:
            th = phase + 2.0 * np.pi * np.arange(n) / n
            pts = self.center + np.stack([np.cos(th), np.sin(th)], axis=-1)
            self.initial[n] = flow.CurveState([flow.Component(pts, closed=True)])
        self.errors = {}
        # warm-up: a short coarse flow through the same code paths
        flow.run(flow.circle_curve(self.center, 1.0, 32), t_end=0.01,
                 h_target=2.0 * np.pi / 32, snapshot_dt=0.005)

    def ops(self):
        return [(f"circle_n{n}", lambda n=n: self.circle(n)) for n in CIRCLE_NS]

    def circle(self, n):
        hist = flow.run(self.initial[n], t_end=0.45, h_target=2.0 * np.pi / n,
                        snapshot_dt=0.005)
        self.facts[f"n{n}.snapshots"] = len(hist.snapshots)
        for k, v in event_counts(hist.events).items():
            self.facts[f"n{n}.events.{k}"] = v
        err = max(abs(float(np.linalg.norm(s.all_points() - self.center,
                                           axis=1).mean())
                      - np.sqrt(1.0 - 2.0 * s.time))
                  for s in hist.snapshots if s.components)
        self.errors[n] = err
        rep = flow.dissipation_inequality_check(
            hist, flow.SpacetimeTestFunction.constant(1.0), 0.05, 0.4)
        checks = [("radius_err", err, 0.005),
                  ("saturation", abs(rep.gap) / abs(rep.lhs), 0.01),
                  ("mass_gap", -rep.gap, rep.tol)]
        coarse = CIRCLE_NS[0]
        if n != coarse:
            order = float(np.log2(self.errors[coarse] / err))
            checks.append(("order_deficit", max(1.8 - order, 0.0), 1.8))
        return checks


class DensityMap(Workload):
    """`fbmcf density` and a regularity scan over a stored corner history."""

    name = "density_map"

    def setup(self):
        R, b = rigid_motion(self.seed, 3)
        self.x0 = (float(b[0]), float(b[1]), 0.5)
        self.top = b + R @ np.array([0.0, 1.0])
        nu = R @ np.array([0.0, -1.0])
        self.barrier = barrier_mod.Line(nu, float(nu @ b), scale_cap=1e8)
        cfg = write_json(os.path.join(self.workdir, "corner_history.json"),
                         corner_config("corner_history", self.seed, R, b,
                                       ["flow"]))
        art = scenario.run_scenario(cfg, out_dir=os.path.join(
            self.workdir, "artifacts"), seed=self.seed)
        self.path = os.path.join(art, "history.jsonl")
        # smooth points of the exact solution: the semicircle of radius
        # sqrt(1 - 2t) about the corner, away from both contact points
        rng = np.random.default_rng([self.seed, 4])
        t0 = rng.uniform(0.1, 0.4, DENSITY_GRID)
        ang = rng.uniform(0.15, np.pi - 0.15, DENSITY_GRID)
        rad = np.sqrt(1.0 - 2.0 * t0)
        pts = b + (rad[:, None] * np.stack([np.cos(ang), np.sin(ang)],
                                           axis=-1)) @ R.T
        self.centres = [(float(p[0]), float(p[1]), float(t))
                        for p, t in zip(pts, t0)]
        for x in self.centres:
            self._check_admissible(x, SMOOTH_RADII)
        self._check_admissible(self.x0, CORNER_RADII)
        # warm-up: read the history back and evaluate one density
        hist = flow.FlowHistory.from_jsonl(self.path, barrier=self.barrier)
        density.density_at_point(hist, self.barrier, self.centres[0],
                                 BIG_KAPPA, radii=SMOOTH_RADII)

    @staticmethod
    def _check_admissible(x, radii):
        """Every radius used at x must be admissible, so density_at_point
        never skips one and each counted failure is real."""
        cap = min(BIG_KAPPA.tau0, x[2])
        if max(radii) ** 2 > cap or x[2] > CORNER_T_END + CORNER_SNAPSHOT_DT:
            raise ValueError(f"inadmissible density centre {x}")

    def ops(self):
        out = [("read_history", self.read)]
        out += [(f"density_{i}", lambda x=x: self.smooth_point(x))
                for i, x in enumerate(self.centres)]
        out += [("corner_density", self.corner),
                ("tangent_flow", self.tangent_flow),
                ("mass_bound", self.mass_bound),
                ("graph_estimate", self.graph)]
        return out

    def read(self):
        self.hist = flow.FlowHistory.from_jsonl(self.path, barrier=self.barrier)
        n_snap = len(self.hist.snapshots)
        self.facts["snapshots"] = n_snap
        for k, v in event_counts(self.hist.events).items():
            self.facts[f"events.{k}"] = v
        expected = int(round(CORNER_T_END / CORNER_SNAPSHOT_DT)) + 1
        return [("snapshot_count_dev", abs(n_snap - expected), 0.5)]

    def smooth_point(self, x):
        theta, _ = density.density_at_point(self.hist, self.barrier, x,
                                            BIG_KAPPA, radii=SMOOTH_RADII)
        label = density.classify_regular(self.hist, self.barrier, x, BIG_KAPPA,
                                         eta=0.05, radii=SMOOTH_RADII)
        rep = density.monotonicity_report(self.hist, self.barrier, x,
                                          BIG_KAPPA, SMOOTH_RADII)
        return [("theta_dev", abs(theta - 1.0), 0.05),
                ("not_regular", flag(label != "Regular"), 0.5),
                ("report_theta_dev", abs(rep.theta_at_point - 1.0), 0.05)]

    def corner(self):
        rep = density.monotonicity_report(self.hist, self.barrier, self.x0,
                                          BIG_KAPPA, CORNER_RADII)
        return [("corner_theta_dev", abs(rep.theta_at_point - SHRINKER_DENSITY),
                 0.02 * SHRINKER_DENSITY),
                ("fitted_A_nonzero", flag(rep.fitted_A != 0.0), 0.5)]

    def tangent_flow(self):
        rescaled, rep = tangent.extract_tangent_flow(
            self.hist, self.x0, TANGENT_LAMBDAS, tol=1e-3,
            mesh_h=np.pi / CORNER_N)
        resid = tangent.self_shrinker_residual(rescaled[-1])
        return tangent_checks(rep.limit_slice.all_points(), rep.hausdorff_gaps,
                              rep.converged) + [("shrinker_residual", resid, 1e-3)]

    def mass_bound(self):
        rep = flow.mass_bound_check(self.hist, self.x0[:2], 0.5, 0.3)
        return [("mass_bound_fails", flag(not rep.holds), 0.5),
                ("mass_bound_c", rep.c, 4.0)]

    def graph(self):
        rep = flow.graph_estimate_check(self.hist, self.top, (0.005, 0.1))
        return [("graph_quantity", rep.sup_quantity, 5.0)]


def _ellipse(t):
    return np.array([1.5 * np.cos(t), np.sin(t)])


def _ellipse_d1(t):
    return np.array([-1.5 * np.sin(t), np.cos(t)])


def _ellipse_d2(t):
    return np.array([-1.5 * np.cos(t), -np.sin(t)])


class CurvedBarrierChecks(Workload):
    """Kernels, varifolds and translators on a Circle; an ellipse barrier."""

    name = "curved_barrier_checks"

    def setup(self):
        s = self.seed
        self.outside = barrier_mod.Circle((0.0, 0.0), 1.0, omega_side="outside")
        self.inside = barrier_mod.Circle((0.0, 0.0), 1.0)
        self.kgon_fields = varifold.tangential_family(
            self.inside, n_fields=40, seed=s, localized_fraction=0.0)
        self.cert_fields = varifold.tangential_family(self.inside, n_fields=40,
                                                      seed=s + 1)
        rng = np.random.default_rng([s, 5])
        a = rng.uniform(0.0, 2.0 * np.pi)
        self.radial = varifold.DiscreteVarifold.from_polyline(
            np.outer([1.0, 2.0], [np.cos(a), np.sin(a)]))
        self.slabs = rng.uniform(0.0, 1.0, (10, 2))
        # a small seeded jitter keeps every epsilon inside the criterion-10
        # regime while letting the seed vary the translator inputs too
        self.eps = [e * (1.0 + rng.uniform(-0.005, 0.005))
                    for e in TRANSLATOR_EPS]
        ang = rng.uniform(0.0, 2.0 * np.pi, ELLIPSE_CLOUD)
        rho = 1.0 + rng.uniform(-0.2, 0.2, ELLIPSE_CLOUD)
        self.cloud = np.stack([1.5 * rho * np.cos(ang), rho * np.sin(ang)],
                              axis=-1)
        self.ellipse = barrier_mod.ParametricBarrier.from_function(
            _ellipse, _ellipse_d1, _ellipse_d2, n_samples=256)
        self.params = None
        # warm-up: one small first variation and one projection batch
        varifold.first_variation(self._kgon(3), self.kgon_fields[0])
        self.ellipse.project(self.cloud[:2])

    @staticmethod
    def _kgon(k):
        th = np.linspace(0.0, 2.0 * np.pi, k, endpoint=False)
        return varifold.DiscreteVarifold.from_polyline(
            np.stack([np.cos(th), np.sin(th)], axis=-1), closed=True)

    def ops(self):
        out = [("heat_operator", self.heat_operator),
               ("support_probe", self.support_probe),
               ("kgon_stationary", self.kgon_stationary),
               ("certify_free_boundary", self.certify),
               ("two_radius_identity", self.two_radius)]
        out += [(f"translator_{i}", lambda eps=eps: self.translator(eps))
                for i, eps in enumerate(self.eps)]
        out += [("ellipse_queries", self.ellipse_queries),
                ("ellipse_reflection_scale", self.reflection_scale)]
        return out

    def heat_operator(self):
        S = self.outside
        draft = kernels.KernelParams.for_barrier(S)
        alpha = kernels.calibrate_alpha(draft, S, seed=self.seed)
        self.params = kernels.KernelParams.for_barrier(S, alpha=alpha)
        samples = kernels.sample_heat_operator_cases(
            S, self.params, n_samples=HEAT_SAMPLES, seed=self.seed)
        self.facts["heat_op.samples"] = len(samples)
        worst = max(s.value_scaled for s in samples)
        return [("heat_op_scaled", max(worst, 0.0), 1e-8)]

    def support_probe(self):
        margin = kernels.support_probe(self.outside, self.params,
                                       n_probes=SUPPORT_PROBES, seed=self.seed)
        return [("support_violation", max(-margin, 0.0), 1e-12)]

    def kgon_stationary(self):
        worst = 0.0
        for k in KGON_SIDES:
            V = self._kgon(k)
            pts = V.segments()[0]
            for X in self.kgon_fields:
                dv = abs(varifold.first_variation(V, X))
                worst = max(worst, dv / (1.0 + X.c1_norm(pts)))
        return [("kgon_first_variation", worst, 1e-8)]

    def certify(self):
        rep = varifold.certify_free_boundary(self._kgon(12), self.inside,
                                             self.cert_fields, tol=1e-6)
        return [("certify_residual", rep.residual, 1e-6),
                ("fitted_curvature", float(np.abs(rep.fitted_curvature).max()),
                 1e-6)]

    def two_radius(self):
        res = varifold.boundary_monotonicity_check(
            self.radial, self.inside, varifold.ScalarField.one(), 0.5, 0.2)
        return [("radial_residual", res, 1e-6)]

    def translator(self, eps):
        prof = regularize.solve_translator_profile(eps, 1.0)
        violations = 0
        for a, b in self.slabs * prof.z_max:
            try:
                regularize.slab_mass(prof, (a, b))
            except FbmcfError:
                violations += 1
        return [("soliton_residual", prof.soliton_residual(), 1e-6),
                ("area_excess", max(regularize.i_epsilon(prof) - 2.0 * np.pi,
                                    0.0), 1e-9),
                ("slab_violations", violations, 0.5)]

    def ellipse_queries(self):
        E, x = self.ellipse, self.cloud
        feet = E.project(x)
        normals = E.normal(feet)
        depth = E.omega_signed(x)
        back = E.reflect_point(E.reflect_point(x))
        inside = 1.0 - (x[:, 0] / 1.5) ** 2 - x[:, 1] ** 2
        scale = 1.0 + np.linalg.norm(x, axis=1)
        return [("involution", float((np.linalg.norm(back - x, axis=1)
                                      / scale).max()), 1e-8),
                ("idempotence", float(np.linalg.norm(E.project(feet) - feet,
                                                     axis=1).max()), 1e-8),
                ("unit_normal", float(np.abs(np.linalg.norm(normals, axis=1)
                                             - 1.0).max()), 1e-12),
                ("omega_sign_mismatch",
                 int(np.sum(np.sign(depth) != np.sign(inside))), 0.5)]

    def reflection_scale(self):
        E = self.ellipse
        r = E.global_reflection_scale(n_samples=1)
        return [("scale_outside_reach", flag(not 0.0 < r <= E.reach), 0.5)]


WORKLOADS = {w.name: w for w in (BarrierFlows, ClosedRefinement, DensityMap,
                                 CurvedBarrierChecks)}
