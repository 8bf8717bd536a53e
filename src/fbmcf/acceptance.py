"""The acceptance suite: every shipped guarantee as one measured row.

Each criterion compares a measured quantity against its pinned bound and
reports pass/fail; composite criteria report the worst normalized ratio of
their subchecks (a row passes when measured <= bound for every part).
Expensive artifacts (flow histories) are cached and shared across rows.
All randomness is seeded, so repeated runs produce identical rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .barrier import Circle, Line, norm2, norm2_sq
from .density import (density_at_point, gaussian_density, monotonicity_report,
                      reflected_density)
from .flow import (SpacetimeTestFunction, dissipation_inequality_check,
                   circle_curve, half_circle_curve, lasso_curve,
                   orthogonality_residual, run, segment_curve, static_history)
from .kernels import (KernelParams, calibrate_alpha, sample_heat_operator_cases,
                      support_probe)
from .regularize import (i_epsilon, slab_mass, solve_translator_profile,
                         translate_slices)
from .tangent import (clip_chains, extract_tangent_flow, hausdorff_distance,
                      reflect_flow, rescale, self_shrinker_residual)
from .varifold import (DiscreteVarifold, ScalarField,
                       boundary_monotonicity_check, first_variation,
                       tangential_family)

SHRINKER_DENSITY = float(np.sqrt(2.0 * np.pi / np.e))
DENSITY_LINE = Line(normal=(0.0, -1.0), offset=0.0, scale_cap=1e8)
BIG_KAPPA = KernelParams(kappa=1e7, alpha=8.0, c1=2.0)


@dataclass
class CriterionResult:
    id: str
    description: str
    measured: float
    bound: float
    passed: bool
    detail: str = ""

    def row(self):
        flag = "PASS" if self.passed else "FAIL"
        return "%s [%s] %s: measured %.6g vs bound %.6g%s" % (
            flag, self.id, self.description, self.measured, self.bound,
            f"  ({self.detail})" if self.detail else "")


def _worst(parts):
    """Combine (name, measured, bound) parts into one normalized row value."""
    worst = max(m / b if b > 0 else np.inf for _, m, b in parts)
    detail = "; ".join("%s=%.3g/%.3g" % part for part in parts)
    return worst, detail


class ArtifactCache:
    """Lazily built shared flow histories and solver outputs."""

    def __init__(self, seed=0):
        self.seed = seed
        self._store = {}

    def get(self, key, builder):
        if key not in self._store:
            self._store[key] = builder()
        return self._store[key]

    # -- histories --------------------------------------------------------

    def circle(self, n=512):
        return self.get(("circle", n), lambda: run(
            circle_curve(radius=1.0, n=n), t_end=0.45,
            h_target=2 * np.pi / n, snapshot_dt=0.005))

    def circle_extinction(self):
        return self.get("circle_ext", lambda: run(
            circle_curve(radius=1.0, n=512), t_end=0.4995,
            h_target=2 * np.pi / 512, snapshot_dt=5e-4, vanish_length=0.02))

    def half_circle(self):
        return self.get("half", lambda: run(
            half_circle_curve(radius=1.0, n=256), t_end=0.45,
            h_target=np.pi / 256, snapshot_dt=0.005, barrier=DENSITY_LINE))

    def corner(self):
        return self.get("corner", lambda: run(
            half_circle_curve(radius=1.0, n=512), t_end=0.4995,
            h_target=np.pi / 512, snapshot_dt=5e-4, barrier=DENSITY_LINE,
            vanish_length=0.02))

    def peanut(self):
        def build():
            st = lasso_curve(barrier_radius=1.0, n=384)
            return run(st, t_end=0.3, h_target=st.total_length() / 384,
                       snapshot_dt=0.002,
                       barrier=Circle((0.0, 0.0), 1.0, omega_side="outside"))
        return self.get("peanut", build)

    def translator(self, eps):
        return self.get(("translator", eps),
                        lambda: solve_translator_profile(eps, 1.0))


def _radius_error(history):
    errs = []
    for s in history.snapshots:
        if s.components:
            R = norm2(s.all_points()).mean()
            errs.append(abs(R - np.sqrt(1.0 - 2.0 * s.time)))
    return max(errs)


# -- the twelve criteria ---------------------------------------------------

def criterion_1(cache: ArtifactCache):
    e512 = _radius_error(cache.circle(512))
    e1024 = _radius_error(cache.circle(1024))
    order = float(np.log2(e512 / e1024))
    ratio, detail = _worst([
        ("radius_err", e512, 0.005),
        ("order_deficit", max(1.8 - order, 0.0), 1.8),
    ])
    return CriterionResult(
        "1", "circle radius law and spatial order", ratio, 1.0,
        ratio <= 1.0, detail + f"; order={order:.2f}")


def criterion_2(cache: ArtifactCache):
    half = cache.half_circle()
    full = cache.circle(512)
    worst = 0.0
    for s_half in half.snapshots:
        if not s_half.components:
            break
        upper = clip_chains(full.slice_at(s_half.time), (0.0, -1.0), 0.0)
        worst = max(worst, hausdorff_distance(s_half, upper))
    bound = 2.0 * 0.005  # twice the criterion-1 radius-law bound
    return CriterionResult(
        "2", "half circle equals doubled circle restricted to Omega",
        worst, bound, worst <= bound)


def criterion_3(cache: ArtifactCache):
    line_hist = static_history(
        segment_curve((-12.0, 0.0), (12.0, 0.0), n=1200), -1.0, 0.1, 12)
    th_line = gaussian_density(line_hist, (0.0, 0.0, 0.0), 0.25)
    th_circ, _ = density_at_point(cache.circle_extinction(), None,
                                  (0.0, 0.0, 0.5),
                                  radii=[0.6, 0.3, 0.15, 0.075])
    th_corner, _ = density_at_point(cache.corner(), DENSITY_LINE,
                                    (0.0, 0.0, 0.5), BIG_KAPPA,
                                    radii=[0.6, 0.3, 0.15, 0.075])
    ratio, detail = _worst([
        ("line_dev", abs(th_line - 1.0), 1e-6),
        ("circle_dev", abs(th_circ - SHRINKER_DENSITY), 0.01 * SHRINKER_DENSITY),
        ("corner_dev", abs(th_corner - SHRINKER_DENSITY), 0.02 * SHRINKER_DENSITY),
    ])
    return CriterionResult("3", "static line / extinction / corner densities",
                           ratio, 1.0, ratio <= 1.0, detail)


def criterion_4(cache: ArtifactCache):
    corner = cache.corner()
    rep = monotonicity_report(corner, DENSITY_LINE, (0.0, 0.0, 0.5),
                              BIG_KAPPA, [0.5, 0.4, 0.3, 0.2, 0.1, 0.05])
    spread = float(rep.theta_values.max() - rep.theta_values.min())
    s = corner.slice_at(0.2)
    pts = s.all_points()
    x = pts[int(np.argmin(np.abs(np.arctan2(pts[:, 1], pts[:, 0]) - 0.9)))]
    rep2 = monotonicity_report(corner, DENSITY_LINE, (x[0], x[1], 0.2),
                               BIG_KAPPA, [0.3, 0.2, 0.1, 0.05])
    mono = rep2.monotone_quantity()[::-1]
    slack = float(max(0.0, -np.diff(mono).min()))
    ratio, detail = _worst([
        ("theta_spread", spread, 0.01 * float(rep.theta_values.mean())),
        ("smooth_slack", slack, 1e-9 * (1.0 + float(np.abs(mono).max()))),
    ])
    detail += f"; fitted_A={rep.fitted_A}"
    return CriterionResult("4", "monotone quantity: shrinker constancy, A=0",
                           ratio, 1.0, ratio <= 1.0 and rep.fitted_A == 0.0,
                           detail)


def criterion_5(cache: ArtifactCache, n_samples=10_000):
    S = Circle((0.0, 0.0), 1.0, omega_side="outside")
    draft = KernelParams.for_barrier(S)
    alpha = calibrate_alpha(draft, S, seed=cache.seed)
    params = KernelParams.for_barrier(S, alpha=alpha)
    samples = sample_heat_operator_cases(S, params, n_samples=n_samples,
                                         seed=cache.seed)
    worst = max(s.value_scaled for s in samples)
    margin = support_probe(S, params, n_probes=1000, seed=cache.seed)
    ratio, detail = _worst([
        ("heat_op_scaled", max(worst, 0.0), 1e-8),
        ("support_violation", max(-margin, 0.0), 1e-12),
    ])
    detail += f"; alpha={alpha}; n={len(samples)}"
    return CriterionResult("5", "cutoff subsolution inequalities (A/B/C)",
                           ratio, 1.0, worst <= 1e-8 and margin > 0.0, detail)


def criterion_6(cache: ArtifactCache):
    S = Circle((0.0, 0.0), 1.0)
    fields = tangential_family(S, n_fields=40, seed=cache.seed,
                               localized_fraction=0.0)
    worst = 0.0
    for k in (3, 6, 12, 64):
        th = np.linspace(0.0, 2.0 * np.pi, k, endpoint=False)
        V = DiscreteVarifold.from_polyline(
            np.stack([np.cos(th), np.sin(th)], axis=-1), closed=True)
        pts = V.segments()[0]
        for X in fields:
            dv = abs(first_variation(V, X))
            worst = max(worst, dv / (1.0 + X.c1_norm(pts)))
    return CriterionResult("6", "inscribed k-gons are stationary",
                           worst, 1e-8, worst <= 1e-8)


def criterion_7(cache: ArtifactCache):
    S = Circle((0.0, 0.0), 1.0)
    V = DiscreteVarifold.from_polyline([[1.0, 0.0], [2.0, 0.0]])
    res_radial = boundary_monotonicity_check(V, S, ScalarField.one(), 0.5, 0.2)
    th = np.linspace(0.0, np.pi, 513)
    half = DiscreteVarifold.from_polyline(
        np.stack([np.cos(th), np.sin(th)], axis=-1))
    h = ScalarField(lambda p: 1.0 + 0.3 * p[:, 0],
                    lambda p: np.tile([0.3, 0.0], (len(p), 1)))
    line = Line(normal=(0.0, -1.0), offset=0.0)
    res_coarse = boundary_monotonicity_check(half, line, h, 0.6, 0.3, order=4)
    res_fine = boundary_monotonicity_check(half, line, h, 0.6, 0.3, order=32)
    ratio, detail = _worst([
        ("radial_residual", res_radial, 1e-6),
        ("half_residual", res_fine, 1e-4),
        ("refinement_gain", max(res_fine - res_coarse, 0.0), 1e-12),
    ])
    return CriterionResult("7", "two-radius boundary identity",
                           ratio, 1.0, ratio <= 1.0, detail)


def criterion_8(cache: ArtifactCache):
    hist = cache.peanut()
    S = hist.barrier
    pops = [e for e in hist.events if e.kind == "Pop"]
    if len(pops) != 1:
        return CriterionResult("8", "peanut pops once", float(len(pops)), 1.0,
                               False, f"{len(pops)} pop events")
    post = [s for s in hist.snapshots if s.time > pops[0].time and s.components]
    s = post[0]
    bdry = np.vstack([c.points[c.on_s] for c in s.components])
    on_s_dev = float(np.abs(S.distance(bdry)).max())
    orth = orthogonality_residual(s)
    phi = SpacetimeTestFunction.constant(1.0)
    rep = dissipation_inequality_check(hist, phi, pops[0].time - 0.02,
                                  pops[0].time + 0.02)
    ok = (len(s.components) == 2 and len(bdry) == 4 and on_s_dev <= 1e-8
          and orth < 1e-2 and rep.passed)
    ratio, detail = _worst([
        ("on_s_dev", on_s_dev, 1e-8),
        ("orthogonality", orth, 1e-2),
        ("dissipation_gap_deficit", max(-(rep.gap + rep.tol), 0.0), 1e-12),
    ])
    detail += f"; ncomp={len(s.components)}; nbdry={len(bdry)}"
    return CriterionResult("8", "pop event topology and inequality",
                           ratio, 1.0, ok, detail)


def criterion_9(cache: ArtifactCache):
    parts = []
    phi_const = SpacetimeTestFunction.constant(1.0)
    circle = cache.circle(512)
    rep = dissipation_inequality_check(circle, phi_const, 0.05, 0.4)
    parts.append(("circle_gap_deficit", max(-(rep.gap + rep.tol), 0.0), 1e-12))
    equality_dev = abs(rep.gap) / abs(rep.lhs)
    parts.append(("circle_saturation", equality_dev, 0.01))

    phi_bump = SpacetimeTestFunction(
        lambda p, t: 1.0 + np.exp(-norm2_sq(p)),
        lambda p, t: -2.0 * p * np.exp(-norm2_sq(p))[:, None],
        lambda p, t: np.zeros(len(p)))
    rep2 = dissipation_inequality_check(circle, phi_bump, 0.05, 0.4)
    parts.append(("circle_bump_deficit", max(-(rep2.gap + rep2.tol), 0.0), 1e-12))

    half = cache.half_circle()
    phi_line = SpacetimeTestFunction(
        lambda p, t: 1.0 + p[:, 1] ** 2 * np.exp(-t),
        lambda p, t: np.stack([np.zeros(len(p)),
                               2.0 * p[:, 1] * np.exp(-t)], axis=-1),
        lambda p, t: -p[:, 1] ** 2 * np.exp(-t))
    rep3 = dissipation_inequality_check(half, phi_line, 0.05, 0.35)
    parts.append(("half_deficit", max(-(rep3.gap + rep3.tol), 0.0), 1e-12))

    peanut = cache.peanut()
    phi_rad = SpacetimeTestFunction(
        lambda p, t: (norm2_sq(p) - 1.0) ** 2 + 0.5,
        lambda p, t: 4.0 * (norm2_sq(p) - 1.0)[:, None] * p,
        lambda p, t: np.zeros(len(p)))
    rep4 = dissipation_inequality_check(peanut, phi_rad, 0.02, 0.1)
    parts.append(("peanut_deficit", max(-(rep4.gap + rep4.tol), 0.0), 1e-12))
    rep5 = dissipation_inequality_check(peanut, phi_const, 0.02, 0.1)
    parts.append(("peanut_const_deficit", max(-(rep5.gap + rep5.tol), 0.0), 1e-12))

    ratio, detail = _worst(parts)
    return CriterionResult("9", "mass inequality on reference scenarios",
                           ratio, 1.0, ratio <= 1.0, detail)


def criterion_10(cache: ArtifactCache):
    parts = []
    rng = np.random.default_rng(cache.seed)
    errs = []
    t_grid = np.linspace(0.0, 0.4, 81)
    for eps in (0.2, 0.1, 0.05):
        prof = cache.translator(eps)
        parts.append((f"residual_{eps}", prof.soliton_residual(), 1e-6))
        parts.append((f"area_excess_{eps}",
                      max(i_epsilon(prof) - 2.0 * np.pi, 0.0), 1e-9))
        errs.append(float(np.abs(translate_slices(prof, t_grid)
                                 - np.sqrt(1.0 - 2.0 * t_grid)).max()))
    prof = cache.translator(0.1)
    slab_ok = True
    for _ in range(100):
        a, b = rng.uniform(0.0, prof.z_max, 2)
        try:
            slab_mass(prof, (a, b))
        except Exception:
            slab_ok = False
            break
    parts.append(("slice_err_0.05", errs[2], 0.05))
    monotone = errs[0] > errs[1] > errs[2]
    parts.append(("eps_monotonicity_violation", 0.0 if monotone else 1.0, 0.5))
    parts.append(("slab_violation", 0.0 if slab_ok else 1.0, 0.5))
    ratio, detail = _worst(parts)
    detail += "; slice errs=" + ",".join("%.4f" % e for e in errs)
    return CriterionResult("10", "translator residual, area, slabs, slices",
                           ratio, 1.0, ratio <= 1.0, detail)


def criterion_11(cache: ArtifactCache):
    corner = cache.corner()
    X0 = (0.0, 0.0, 0.5)
    rescaled, rep = extract_tangent_flow(corner, X0, [0.5, 0.4, 0.3],
                                         tol=1e-3, mesh_h=np.pi / 512)
    gaps = max(rep.hausdorff_gaps)
    pts = rep.limit_slice.all_points()
    rad_dev = abs(float(norm2(pts).mean()) - np.sqrt(2.0))
    resid = self_shrinker_residual(rescaled[-1])
    refl = reflect_flow(rescaled[-1], rescaled[-1].barrier)
    th_tf = gaussian_density(refl, (0.0, 0.0, 0.0), 1.0)
    radii = [0.6, 0.3, 0.15, 0.075]
    th_pt, err7 = density_at_point(corner, DENSITY_LINE, X0, BIG_KAPPA,
                                   radii=radii)
    p6 = KernelParams(kappa=1e6, alpha=8.0, c1=2.0)
    th6, err6 = density_at_point(corner, DENSITY_LINE, X0, p6, radii=radii)
    ratio, detail = _worst([
        ("cauchy_gap", gaps, 1e-3),
        ("limit_radius_dev", rad_dev, 5e-3 * np.sqrt(2.0)),
        ("shrinker_residual", resid, 1e-3),
        ("density_transfer_dev", abs(th_tf - th_pt), 0.02 * th_pt),
        ("kappa_dependence", abs(th6 - th_pt), err6 + err7 + 1e-4),
    ])
    return CriterionResult("11", "tangent flow at the extinction corner",
                           ratio, 1.0, ratio <= 1.0 and rep.converged, detail)


def criterion_12(cache: ArtifactCache):
    """Determinism: re-running a representative subset from scratch twice
    produces byte-identical rows."""
    def subset_rows():
        fresh = ArtifactCache(seed=cache.seed)
        rows = [criterion_6(fresh), criterion_7(fresh),
                criterion_5(fresh, n_samples=500)]
        return "\n".join(r.row() for r in rows)

    a = subset_rows()
    b = subset_rows()
    same = a == b
    return CriterionResult("12", "repeated verification is byte-identical",
                           0.0 if same else 1.0, 0.5, same)


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6, criterion_7, criterion_8,
                criterion_9, criterion_10, criterion_11, criterion_12]


def run_all(filter=None, seed=0, printer=None):
    """Run the acceptance criteria (optionally filtered by id substring)."""
    cache = ArtifactCache(seed=seed)
    rows = []
    for fn in ALL_CRITERIA:
        cid = fn.__name__.split("_")[1]
        if filter and filter not in (cid, fn.__name__):
            continue
        result = fn(cache)
        rows.append(result)
        if printer:
            printer(result.row())
    if filter and not rows:
        raise KeyError(f"unknown criterion filter {filter!r}")
    return rows
