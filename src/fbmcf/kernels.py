"""Backward Gaussian kernels, mass cutoffs, and their reflected variants.

The mass cutoff at radius ``kappa`` is

    phi(x, t) = (1 - kappa^(-1/2) tau^(-3/4) (|x|^2 - alpha tau))_+^4,   tau = -t,

a parabolically scale-invariant bump whose support shrinks like tau^(3/8).
Its reflected companion ``phi~(x, t) = phi(x~, t)`` uses the barrier mirror
map; the pair enters the reflected, truncated heat kernel

    f = rho phi + rho~ phi~

used by the density module.  ``reflected_truncated_kernel`` evaluates the
direct and the mirror image in one pass, their squared distances stacked
on an axis of length 2, with tau and its powers taken once.  Each entry
goes through the same ufuncs in the same order as ``cutoff(.) *
heat_kernel(.)``, so it has the bits of two separate evaluations.

This module also provides a finite-difference heat-operator sampler for the
subsolution inequalities the cutoffs satisfy, and a runtime calibration of
the cutoff constant ``alpha``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .barrier import Barrier, measured_c1, norm2, norm2_sq
from .errors import (CalibrationFailure, KappaTooLarge, NonNegativeTime)

ALPHA_GRID_MAX = 2.0 ** 10
ALPHA_SAMPLES = 2000  # seeded samples per alpha tried by calibrate_alpha


def beta0_squared(alpha):
    """Support-time constant: tau <= beta0^2 kappa^2 keeps spt phi in B_{kappa/20}."""
    return ((1.0 + alpha) * 20.0 ** 2) ** (-4.0 / 3.0)


@dataclass(frozen=True)
class KernelParams:
    """Cutoff and monotonicity parameters (cutoff radius kappa) of a curve flow.

    ``beta0_sq`` and the default monotonicity horizon ``tau0`` are derived
    from ``alpha``; ``tau0`` may be shrunk but never exceeds beta0^2 kappa^2.
    """

    kappa: float = 1.0
    alpha: float = 8.0
    tau0: float = field(default=None)  # type: ignore[assignment]
    c1: float = 2.0

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.alpha < 0.5:
            raise ValueError("alpha must be at least 1/2")
        if self.tau0 is None:
            object.__setattr__(self, "tau0", self.beta0_sq * self.kappa ** 2)
        if self.tau0 > self.beta0_sq * self.kappa ** 2 * (1 + 1e-12):
            raise ValueError("tau0 must satisfy tau0 <= beta0^2 kappa^2")

    @property
    def beta0_sq(self):
        return beta0_squared(self.alpha)

    @classmethod
    def for_barrier(cls, S: Barrier, kappa=None, alpha=8.0, c1=None):
        """Construct parameters validated against the barrier's admissible bound."""
        c1 = measured_c1(S) if c1 is None else c1
        r_s = S.global_reflection_scale()
        bound = r_s / c1
        if kappa is None:
            kappa = bound
        if kappa > bound * (1 + 1e-12):
            raise KappaTooLarge(
                f"kappa={kappa:.6g} exceeds the admissible bound r_S/c1="
                f"{bound:.6g} required for the monotone Gaussian quantity")
        return cls(kappa=float(kappa), alpha=float(alpha), c1=float(c1))


def _tau(t):
    """tau = -t > 0.  Powers of tau go through ``np.power``: its ufunc loop
    gives one point the bits of an array entry, while ``**`` on a numpy
    scalar takes another path."""
    t = np.asarray(t, dtype=float)
    tau = -t
    if (tau <= 0).any():
        raise NonNegativeTime("backward kernels need t < 0")
    return tau


def heat_kernel(x, t):
    """Backward Gaussian rho(x, t) = (4 pi tau)^(-1/2) exp(-|x|^2 / 4 tau) of
    a curve (flow dimension one), at a point (2,) or points (..., 2)."""
    return _rho(norm2_sq(np.asarray(x, dtype=float)), _tau(t))


def _rho(sq, tau):
    """heat_kernel from |x|^2 and tau."""
    return np.power(4.0 * np.pi * tau, -0.5) * np.exp(-sq / (4.0 * tau))


def cutoff_argument(x, t, params: KernelParams):
    """The scale-free argument s with phi = (1 - s)_+^4."""
    return _cutoff_argument(norm2_sq(np.asarray(x, dtype=float)), _tau(t),
                            params)


def _cutoff_argument(sq, tau, params: KernelParams):
    """cutoff_argument from |x|^2 and tau."""
    k = params.kappa
    return k ** (-0.5) * np.power(tau, -0.75) * (sq - params.alpha * tau)


def cutoff(x, t, params: KernelParams):
    """Mass cutoff phi at radius kappa; C^3 across its support edge."""
    return _phi(cutoff_argument(x, t, params))


def _phi(s):
    """phi = (1 - s)_+^4 from its argument s."""
    return np.power(np.maximum(1.0 - s, 0.0), 4)


def _tube_mirror(S: Barrier, x):
    """Mirror images 2 zeta(x) - x, and whether each x lies in the reach tube."""
    x = np.asarray(x, dtype=float)
    feet = S.project(x)
    inside = norm2(x - feet) < S.reach * (1.0 - 1e-12)
    return 2.0 * feet - x, inside


def reflected_cutoff(S: Barrier, x, t, params: KernelParams):
    """phi~(x, t) = phi(x~, t); zero where x leaves the reflection tube.

    Outside the reach tube the reflected support cannot contain the mirror
    image for admissible (kappa, tau), so the zero extension is exact there.
    """
    mirror, inside = _tube_mirror(S, x)
    return np.where(inside, cutoff(mirror, t, params), 0.0)


def reflected_truncated_kernel(S: Barrier, X0, x, t, params: KernelParams):
    """f(x, t) = phi rho (x - x0, t - t0) + phi rho (x~ - x0, t - t0).

    The mirror image is taken of x itself and then recentered at x0.  The
    squared distances of both images are stacked on a leading axis of
    length 2 and go through the kernel in one pass.
    """
    x0 = np.asarray(X0[:2], dtype=float)
    t0 = float(X0[2]) if len(X0) > 2 else 0.0
    tau = _tau(np.asarray(t, dtype=float) - t0)
    x = np.asarray(x, dtype=float)
    mirror, inside = _tube_mirror(S, x)
    # unit axes between the image axis and the points' axes let a t with
    # more axes than the points broadcast as it would against one image
    shape = (2,) + (1,) * (tau.ndim - x.ndim + 1) + x.shape[:-1]
    sq = np.stack([norm2_sq(x - x0), norm2_sq(mirror - x0)]).reshape(shape)
    f = _phi(_cutoff_argument(sq, tau, params)) * _rho(sq, tau)
    return f[0] + np.where(inside, f[1], 0.0)


def heat_operator(fn, xs, ts, dirs, kappa):
    """(d_t - tr_L D^2) fn at points xs and times ts < 0, batched.

    Each row of ``dirs`` is a unit direction spanning the 1-plane of its
    sample.  Richardson-extrapolated central differences: the spatial step
    is tied to the cutoff radius (h = 1e-4 kappa) and halved once, the time
    step follows parabolic scaling, guarded so tau stays positive.  ``fn``
    is called once, on the 5 spatial and then 4 temporal stencil points of
    all B samples stacked offset by offset, so row j belongs to sample j mod B.
    """
    B = len(xs)
    taus = -np.asarray(ts, dtype=float)
    h = 1e-4 * kappa
    ht = np.minimum(1e-4 * taus, 0.25 * taus)
    # spatial offsets 0, +-h, +-h/2 at time t; temporal tau -+ ht, -+ ht/2 at x
    offs = np.array([0.0, 1.0, -1.0, 0.5, -0.5])
    pts = (xs[None, :, :] + offs[:, None, None] * h * dirs[None, :, :]).reshape(-1, 2)
    tgrid = np.concatenate([taus - ht, taus + ht, taus - ht / 2.0, taus + ht / 2.0])
    vals = fn(np.vstack([pts, np.tile(xs, (4, 1))]),
              -np.concatenate([np.tile(taus, len(offs)), tgrid]))
    f = vals[:len(offs) * B].reshape(len(offs), B)
    g = vals[len(offs) * B:].reshape(4, B)
    sec_h = (f[1] - 2.0 * f[0] + f[2]) / h ** 2
    sec_h2 = (f[3] - 2.0 * f[0] + f[4]) / (h / 2.0) ** 2
    d2 = (4.0 * sec_h2 - sec_h) / 3.0
    first_h = (g[0] - g[1]) / (2.0 * ht)
    first_h2 = (g[2] - g[3]) / ht
    d1 = (4.0 * first_h2 - first_h) / 3.0
    return d1 - d2


# -- inequality sampling -------------------------------------------------------

@dataclass
class HeatOperatorSample:
    case: str
    x: np.ndarray
    tau: float
    value: float
    value_scaled: float


def sample_heat_operator_cases(S: Barrier, params: KernelParams, n_samples=10_000,
                               seed=0):
    """Sampled subsolution inequality for phi and phi~ in the three admissible cases.

    Case A: the kernel center lies in the closed admissible side within
    kappa/10 of the barrier and x ranges over the admissible side.
    Case B: the center lies on the barrier and x is arbitrary in the tube.
    Case C: the center lies on a tangent line of the barrier at a point y,
    with |x - y| <= min(|y|/10, r_S/c1).

    Samples whose cutoff argument lands within 0.15 of the C^3
    support seam s = 1 are redrawn: the finite-difference stencil cannot
    straddle the seam, and the operator vanishes identically beyond it.

    Returns a list of :class:`HeatOperatorSample` with both the raw operator
    value and the parabolically normalized value (raw * kappa^(1/2) tau^(3/4)).
    A sample's ``x`` (kernel-frame position) is a read-only row of its batch.
    """
    rng = np.random.default_rng(seed)
    kappa = params.kappa
    tau_max = params.beta0_sq * kappa ** 2
    out = []
    boundary = S.boundary_samples(256)
    kappa_bound = S.global_reflection_scale() / params.c1
    reach_ok = (lambda pts: S.distance(pts) < S.reach * 0.98) \
        if np.isfinite(S.reach) else (lambda pts: np.ones(len(pts), bool))

    for case in ("A", "B", "C"):
        collected = 0
        guard = 0
        while collected < n_samples and guard < 200:
            guard += 1
            m = min(4096, 2 * (n_samples - collected) + 256)
            tau = tau_max * 10.0 ** rng.uniform(-2.0, 0.0, m)
            anchors = boundary[rng.integers(len(boundary), size=m)]
            normals = S.normal(anchors)

            if case in ("A", "B"):
                # x near the kernel center: parametrize by the cutoff argument
                s_arg = rng.uniform(-3.0, 1.0 - 0.15, m)
                radius_sq = params.alpha * tau + s_arg * kappa ** 0.5 * tau ** 0.75
                keep = radius_sq > 0
                tau, radius_sq = tau[keep], radius_sq[keep]
                anchors, normals = anchors[keep], normals[keep]
                m = len(tau)
                ang = rng.uniform(0.0, 2.0 * np.pi, m)
                probe = np.sqrt(radius_sq)[:, None] * np.stack(
                    [np.cos(ang), np.sin(ang)], axis=-1)
                if case == "A":
                    depth = rng.uniform(0.0, kappa / 10.0, m)
                    centers = anchors - depth[:, None] * normals
                else:
                    centers = anchors
                x_world = centers + probe
                ok = (S.omega_signed(x_world) >= 0) if case == "A" \
                    else np.ones(m, dtype=bool)
            else:
                # center on the tangent line at the anchor; x within |y|/10 of y
                tang = np.stack([-normals[:, 1], normals[:, 0]], axis=-1)
                slide = kappa * 10.0 ** rng.uniform(-1.5, -0.3, m) * np.where(
                    rng.uniform(size=m) < 0.5, -1.0, 1.0)
                centers = anchors + slide[:, None] * tang
                lim = np.minimum(np.abs(slide) / 10.0, kappa_bound)
                ang = rng.uniform(0.0, 2.0 * np.pi, m)
                rad = lim * np.sqrt(rng.uniform(0.0, 1.0, m))
                x_world = anchors + rad[:, None] * np.stack(
                    [np.cos(ang), np.sin(ang)], axis=-1)
                ok = np.ones(m, dtype=bool)

            ok &= reach_ok(x_world)
            # both cutoff arguments must avoid the C^3 support seam
            s_direct = cutoff_argument(x_world - centers, -tau, params)
            ok &= np.abs(s_direct - 1.0) > 0.15
            mirror_rel = 2.0 * S.project(x_world) - x_world - centers
            s_mirror = cutoff_argument(mirror_rel, -tau, params)
            ok &= np.abs(s_mirror - 1.0) > 0.15

            idx = np.nonzero(ok)[0][: n_samples - collected]
            if len(idx) == 0:
                continue
            dirs = _unit_dirs(rng, len(idx))
            c = centers[idx]

            def phi(p, t):
                return cutoff(p - np.tile(c, (len(p) // len(c), 1)), t, params)

            def phi_reflected(p, t):
                return phi(2.0 * S.project(p) - p, t)

            xb, tb = x_world[idx], tau[idx]
            # the batch's kernel-frame positions, shared read-only by the
            # samples of both cutoffs: each sample's x is a row of it
            rel = xb - c
            rel.flags.writeable = False
            taus = tb.tolist()
            for fn in (phi, phi_reflected):
                vals = heat_operator(fn, xb, -tb, dirs, kappa)
                scaled = vals * kappa ** 0.5 * tb ** 0.75
                out.extend(HeatOperatorSample(case, x, t, v, s) for x, t, v, s
                           in zip(rel, taus, vals.tolist(), scaled.tolist()))
            collected += len(idx)
        if collected < n_samples:
            raise CalibrationFailure(f"could not draw enough case-{case} samples")
    return out


def support_probe(S: Barrier, params: KernelParams, n_probes=1000, seed=0):
    """Check the support claims: spt phi in B_{kappa/20} and, for centers within
    kappa/10 of the barrier, spt(phi + phi~) in B_{kappa/2}.

    Returns the worst margin (positive means all probes confirm the claims).
    """
    rng = np.random.default_rng(seed)
    kappa = params.kappa
    tau_max = params.beta0_sq * kappa ** 2
    boundary = S.boundary_samples(128)
    # five scalars per probe, drawn probe by probe from one generator
    draws = [(rng.uniform(0.05, 1.0), rng.integers(len(boundary)),
              rng.uniform(0.0, kappa / 10.0), rng.uniform(0.0, kappa),
              rng.uniform(0.0, 2.0 * np.pi)) for _ in range(n_probes)]
    u_tau, idx, depth, u_r, ang = (np.array(col) for col in zip(*draws))
    tau = tau_max * u_tau
    anchor = boundary[idx]
    center = anchor - depth[:, None] * S.normal(anchor)
    x = center + (u_r * 1.2)[:, None] * np.stack([np.cos(ang), np.sin(ang)],
                                                 axis=-1)
    rel = x - center
    # one dot per probe: the bits np.linalg.norm gives a single vector
    dist = np.sqrt(np.vecdot(rel, rel))
    phi = cutoff(rel, -tau, params)
    tube = S.distance(x) < S.reach * 0.98
    tot = phi[tube] + cutoff(S.reflect_point(x[tube]) - center[tube],
                             -tau[tube], params)
    d = dist[tube]
    margins = np.concatenate([
        kappa / 20.0 - dist[(phi > 0.0) & (dist > kappa / 20.0)],
        kappa / 2.0 - d[(tot > 0.0) & (d > kappa / 2.0)]])
    return margins.min() if len(margins) else 1.0


def calibrate_alpha(draft: KernelParams, S: Barrier, seed=0):
    """Smallest dyadic alpha >= 1/2 making the cutoff subsolution inequality hold.

    The check evaluates the sufficient bracket from the subsolution estimate,

        -3 q^2 / (4 tau) - alpha/4 + 2 + c_meas * |q| / r_S  <=  0,

    over ALPHA_SAMPLES seeded admissible samples per alpha (q the
    kernel-frame position of x or its mirror), with the curvature constant
    c_meas measured from the barrier's mirror Hessian.  Flat barriers have
    c_meas = 0, so the smallest passing value is the dyadic ceiling of 8.
    """
    rng = np.random.default_rng(seed)
    kappa = draft.kappa
    r_s = S.global_reflection_scale()
    c_meas = 0.0 if S.is_flat() else _measured_curvature_constant(S, kappa, r_s, rng)

    alpha = 0.5
    while alpha <= ALPHA_GRID_MAX:
        params = KernelParams(kappa=kappa, alpha=alpha, c1=draft.c1)
        tau_max = params.beta0_sq * kappa ** 2
        tau = tau_max * 10.0 ** rng.uniform(-2, 0, ALPHA_SAMPLES)
        q = np.sqrt(tau)[:, None] * rng.uniform(0.0, 6.0, (ALPHA_SAMPLES, 1)) \
            * _unit_dirs(rng, ALPHA_SAMPLES)
        qq = norm2(q)
        bracket = (-3.0 * qq ** 2 / (4.0 * tau) - alpha / 4.0 + 2.0
                   + c_meas * qq / r_s)
        if np.max(bracket) <= 0.0:
            return alpha
        alpha *= 2.0
    raise CalibrationFailure("no alpha <= 2^10 satisfies the sampled inequality")


def _unit_dirs(rng, m):
    ang = rng.uniform(0, 2 * np.pi, m)
    return np.stack([np.cos(ang), np.sin(ang)], axis=-1)


def _measured_curvature_constant(S: Barrier, kappa, r_s, rng):
    """Empirical c with |tr_L D^2 |x~|^2 - 2| <= c (d + |x~|)/r_S over 200
    seeded probes, r_s being S's global reflection scale.

    The probes draw their numbers one by one, in the loop, since the
    distance test of a probe decides whether its direction is drawn; the
    mirrors of all kept probes are one reflect_point call."""
    boundary = S.boundary_samples(64)
    normals = S.normal(boundary)
    h = 1e-5 * kappa
    kept = []  # (anchor index, x, d(x), e) of the probes inside 0.9 reach
    for _ in range(200):
        k = rng.integers(len(boundary))
        nvec = normals[k]
        x = boundary[k] - rng.uniform(-0.4, 0.4) * r_s * nvec \
            + rng.uniform(-0.4, 0.4) * r_s * np.array([-nvec[1], nvec[0]])
        d = S.distance(x)
        if d >= 0.9 * S.reach:
            continue
        kept.append((k, x, d, _unit_dirs(rng, 1)[0]))
    if not kept:
        return 0.0
    k, x, d, e = (np.array(col) for col in zip(*kept))
    anchor = boundary[k]
    mirrors = S.reflect_point(np.stack([x + h * e, x, x - h * e])) - anchor
    f = np.sum(mirrors ** 2, axis=-1)
    second = (f[0] - 2.0 * f[1] + f[2]) / h ** 2
    denom = (d + np.sqrt(np.vecdot(mirrors[1], mirrors[1]))) / r_s
    ok = denom > 1e-9
    return 1.5 * (np.abs(second - 2.0)[ok] / denom[ok]).max(initial=0.0)


def write_heat_operator_csv(samples, path):
    """Diagnostic CSV with columns (case, x1, x2, tau, value, value_scaled)."""
    lines = ["case,x1,x2,tau,value,value_scaled"]
    for s in samples:
        lines.append("%s,%.17g,%.17g,%.17g,%.17g,%.17g"
                     % (s.case, s.x[0], s.x[1], s.tau, s.value, s.value_scaled))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
