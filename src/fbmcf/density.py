"""Gaussian densities of flow histories and density-threshold classification.

The plain (backward) Gaussian density of a history M at a spacetime point
X0 = (x0, t0) and scale r integrates the backward heat kernel over the slice
at time t0 - r^2.  Near a barrier the kernel is truncated by the mass cutoff
and symmetrized with its barrier reflection; the resulting quantity, after
multiplying by e^(A sqrt r) and adding A M r^2, is nondecreasing in r, and
its r -> 0 limit is the density used for regularity classification.

The truncated quantity differs from the plain Gaussian by an
O(sqrt(r/kappa)) factor at finite r, so the pointwise density is obtained by
polynomial extrapolation in sqrt(r) over the smallest admissible radii.

Each reflected density is computed once per history: ``reflected_density``
keeps its values on the ``FlowHistory``, keyed by the barrier object, the
``KernelParams`` value and the float64 bits of (x0, y0, t0, r), and clears
them at ``_DENSITY_MEMO_CAP`` entries.  So ``density_at_point``,
``classify_regular`` and ``monotonicity_report`` at one centre and the same
radii integrate each slice once between them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .barrier import Barrier
from .errors import InadmissibleRadius, KappaTooLarge, NoFiniteA, OutOfHistory
from .flow import FlowHistory, state_ball_mass
from .kernels import KernelParams, cutoff, heat_kernel, reflected_truncated_kernel
from .varifold import integrate_slice


def gaussian_density(history: FlowHistory, X0, r):
    """(4 pi r^2)^(-1/2) int exp(-|x - x0|^2 / 4 r^2) over the slice at t0 - r^2."""
    x0 = np.asarray(X0[:2], dtype=float)
    t0 = float(X0[2])
    if r <= 0:
        raise InadmissibleRadius("radius must be positive")
    state = history.slice_at(t0 - r * r)
    return integrate_slice(
        state, lambda p: heat_kernel(p - x0, -r * r))


# entries a history's density memo holds before it is cleared
_DENSITY_MEMO_CAP = 4096


def reflected_density(history: FlowHistory, S: Barrier, X0, r,
                      params: KernelParams):
    """Truncated/reflected Gaussian density at scale r.

    Centers within kappa/10 of the barrier integrate the reflected truncated
    kernel; centers farther inside integrate the truncated kernel alone.
    The two branches agree across the switch distance (asserted when the
    center sits within 1e-6 kappa of it).

    The value is kept on ``history`` and a repeated query returns it without
    integrating again.  The key is the barrier object, the kernel parameters
    by value and the float64 bits of (x0, y0, t0, r), so -0.0 and 0.0 are
    distinct queries and a query with a NaN is never kept.  The kappa and
    radius checks run on every call and an exception is never kept; the
    memo is cleared when it holds ``_DENSITY_MEMO_CAP`` values.
    """
    x0 = np.asarray(X0[:2], dtype=float)
    t0 = float(X0[2])
    bound = S.global_reflection_scale() / params.c1
    if params.kappa > bound * (1 + 1e-12):
        raise KappaTooLarge(
            f"kappa={params.kappa:.6g} exceeds the admissible bound {bound:.6g}")
    t_start = history.times[0]
    if r <= 0 or r * r > min(params.tau0, t0 - t_start) * (1 + 1e-9):
        raise InadmissibleRadius(
            f"need r^2 <= min(tau0, t0 - t_start); got r={r:.6g}")
    coords = np.array([x0[0], x0[1], t0, r], dtype=float)
    key = (S, params, coords.tobytes())
    memo = history._densities
    if key in memo:
        return memo[key]
    state = history.slice_at(t0 - r * r)
    d0 = float(S.distance(x0))

    def near(p):
        return reflected_truncated_kernel(S, np.concatenate([x0, [t0]]),
                                          p, t0 - r * r, params)

    def interior(p):
        rel = p - x0
        return cutoff(rel, -r * r, params) * heat_kernel(rel, -r * r)

    if abs(d0 - params.kappa / 10.0) <= 1e-6 * params.kappa:
        theta = integrate_slice(state, near)
        b = integrate_slice(state, interior)
        if abs(theta - b) > 1e-4 * max(1.0, abs(theta)):
            raise InadmissibleRadius(
                "density branches disagree at the switch distance")
    elif d0 <= params.kappa / 10.0:
        theta = integrate_slice(state, near)
    else:
        theta = integrate_slice(state, interior)
    if not np.isnan(coords).any():
        if len(memo) >= _DENSITY_MEMO_CAP:
            memo.clear()
        memo[key] = theta
    return theta


@dataclass
class DensityReport:
    center: np.ndarray
    radii: np.ndarray
    theta_values: np.ndarray
    fitted_A: float
    M_bound: float
    theta_at_point: float
    theta_error: float

    def monotone_quantity(self):
        return (np.exp(self.fitted_A * np.sqrt(self.radii)) * self.theta_values
                + self.fitted_A * self.M_bound * self.radii ** 2)

    def to_dict(self):
        """JSON fields of ``fbmcf density`` and density_report.json."""
        return {
            "center": self.center.tolist(),
            "radii": self.radii.tolist(),
            "theta_values": self.theta_values.tolist(),
            "fitted_A": self.fitted_A,
            "M_bound": self.M_bound,
            "theta_at_point": self.theta_at_point,
            "theta_error": self.theta_error,
        }

    def write_csv(self, path):
        mono = self.monotone_quantity()
        with open(path, "w") as f:
            f.write("r,theta,monotone_quantity\n")
            for r, th, mq in zip(self.radii, self.theta_values, mono):
                f.write("%.17g,%.17g,%.17g\n" % (r, th, mq))


def _mass_bound(history: FlowHistory, x0, t0, params):
    t_ref = max(t0 - params.tau0, history.times[0])
    state = history.slice_at(t_ref)
    return state_ball_mass(state, x0, params.kappa / 2.0)


def monotonicity_report(history: FlowHistory, S: Barrier, X0,
                        params: KernelParams, radius_grid) -> DensityReport:
    """Fit the smallest dyadic constant A <= 2^20 making r -> e^(A sqrt r)
    Theta(r) + A M r^2 nondecreasing, to 1e-9 of the largest Theta, over the
    (decreasing) radius grid."""
    radii = np.sort(np.asarray(radius_grid, dtype=float))
    x0 = np.asarray(X0[:2], dtype=float)
    t0 = float(X0[2])
    thetas = np.array([reflected_density(history, S, X0, r, params)
                       for r in radii])
    M = _mass_bound(history, x0, t0, params)
    scale = 1.0 + np.abs(thetas).max()

    def nondecreasing(A):
        q = np.exp(A * np.sqrt(radii)) * thetas + A * M * radii ** 2
        return bool(np.all(np.diff(q) >= -1e-9 * scale))

    fitted = None
    if nondecreasing(0.0):
        fitted = 0.0
    else:
        A = 2.0 ** -10
        while A <= 2.0 ** 20:
            if nondecreasing(A):
                fitted = A
                break
            A *= 2.0
    if fitted is None:
        raise NoFiniteA("no finite A makes the quantity nondecreasing")
    theta0, err = _extrapolate_sqrt(radii, thetas)
    return DensityReport(center=np.concatenate([x0, [t0]]),
                         radii=radii[::-1], theta_values=thetas[::-1],
                         fitted_A=fitted, M_bound=M,
                         theta_at_point=theta0, theta_error=err)


def _extrapolate_sqrt(radii, thetas):
    """Neville extrapolation to r = 0 in the variable q = sqrt(r).

    Uses the four smallest radii; the truncation bias of the reflected
    kernel expands in sqrt(r/kappa), so polynomial elimination in q removes
    it order by order.  The error estimate is the last elimination update.
    """
    order = np.argsort(radii)[:4]
    q = np.sqrt(np.asarray(radii, dtype=float)[order])
    y = np.asarray(thetas, dtype=float)[order].copy()
    idx = np.argsort(q)[::-1]  # largest q first, eliminate toward q = 0
    q, y = q[idx], y[idx]
    tableau = [y.copy()]
    col = y.copy()
    n = len(q)
    for level in range(1, n):
        new = np.empty(n - level)
        for i in range(n - level):
            new[i] = (q[i] * col[i + 1] - q[i + level] * col[i]) \
                / (q[i] - q[i + level])
        col = new
        tableau.append(col.copy())
    best = float(tableau[-1][-1])
    prev = float(tableau[-2][-1]) if n >= 2 else best
    return best, abs(best - prev) + 1e-6 * abs(best)


def density_at_point(history: FlowHistory, S, X0, params=None, radii=None):
    """Pointwise density by sqrt(r)-extrapolation over the four smallest
    admissible radii (by default four halvings down from 0.75 sqrt(tau_cap)).

    With S None the plain Gaussian density is extrapolated; else the
    reflected/truncated one.  Returns (theta, error_estimate).
    """
    x0 = np.asarray(X0[:2], dtype=float)
    t0 = float(X0[2])
    t_start = history.times[0]
    if radii is None:
        tau_cap = t0 - t_start
        if params is not None:
            tau_cap = min(tau_cap, params.tau0)
        r0 = 0.75 * np.sqrt(tau_cap)
        radii = r0 * 0.5 ** np.arange(4)
    radii = np.asarray(radii, dtype=float)
    thetas = []
    used = []
    for r in radii:
        try:
            if S is None:
                th = gaussian_density(history, X0, r)
            else:
                th = reflected_density(history, S, X0, r, params)
        except (OutOfHistory, InadmissibleRadius):
            continue
        thetas.append(th)
        used.append(r)
    if len(used) < 2:
        raise InadmissibleRadius("fewer than two admissible radii")
    return _extrapolate_sqrt(np.asarray(used), np.asarray(thetas))


def classify_regular(history: FlowHistory, S, X, params=None, eta=0.05,
                     radii=None):
    """'Regular' when the pointwise density sits below 1 + eta, else 'Suspect'."""
    theta, _ = density_at_point(history, S, X, params, radii=radii)
    return "Regular" if theta < 1.0 + eta else "Suspect"


def euclidean_density(V, x, r):
    """mu_V(B_r(x)) / (omega_1 r) with omega_1 = 2, so a line through x
    has density one at every scale."""
    if r <= 0:
        raise ValueError("radius must be positive")
    return V.ball_mass(np.asarray(x, dtype=float), r) / (2.0 * r)
