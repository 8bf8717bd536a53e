"""Rotationally symmetric translating solitons of the weighted area functional.

The surface of revolution {(r(z) cos a, r(z) sin a, z)} is stationary for
the exponentially weighted area (1/eps) int e^(-z/eps) dA exactly when the
profile solves

    r'' = (1 + r'^2) (1 + r r' / eps) / r,

equivalently when the mean curvature balances the vertical drift,
kappa_1 + kappa_2 = -r' / (eps sqrt(1 + r'^2)).  Starting from a circle of
radius R0 at z = 0, the profile closes smoothly on the axis at a finite
height z_max ~ R0^2 / (2 eps); sliding the surface downward at speed 1/eps
makes its z = 0 slices track the shrinking-circle flow as eps -> 0.

Solving by forward shooting in the initial slope is exponentially
ill-conditioned (slope perturbations grow like e^(z/eps), a factor e^200
at eps = 0.05), so the solver integrates the swapped parametrization
w(r) = dz/dr outward from the axis instead: smooth closure pins
w = -r/(2 eps) - r^3/(32 eps^3) + O(r^5) there, the profile is monotone so
w(r) is global, and the march is stable.  The equivalent initial slope
r'(0) = 1/w(R0) is reported on the profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator

from .errors import FbmcfError, OutOfRange, ShootingFailure, StiffnessFailure


@dataclass
class TranslatorProfile:
    """Radial profile of the weighted-minimal translator surface."""

    epsilon: float
    R0: float
    z: np.ndarray        # increasing, 0 to just below z_max (graph region)
    r: np.ndarray        # strictly positive, decreasing
    rp: np.ndarray       # dr/dz at the samples
    cap_r: np.ndarray    # axis cap parametrized by radius (ascending)
    cap_z: np.ndarray    # heights of the cap samples (flow coordinates)
    cap_w: np.ndarray    # dz/dr on the cap
    z_max: float
    shoot_slope: float   # the slope r'(0) a shooting solve would search for
    full_r: np.ndarray   # uniform r grid
    full_w: np.ndarray   # dz/dr on it

    @property
    def samples(self):
        """(z_k, r_k) table over the whole profile including the cap."""
        zz = np.concatenate([self.z, self.cap_z[::-1], [self.z_max]])
        rr = np.concatenate([self.r, self.cap_r[::-1], [0.0]])
        keep = np.concatenate([[True], np.diff(zz) > 0])
        return zz[keep], rr[keep]

    def radius_at(self, z):
        zz, rr = self.samples
        interp = PchipInterpolator(zz, rr)
        return interp(z)

    def soliton_residual(self):
        """max pointwise deviation from kappa_1 + kappa_2 = -r'/(eps sqrt(1+r'^2)).

        Evaluated in the radius parametrization, where the identity reads

            -w'/(1+w^2)^(3/2) - w/(r sqrt(1+w^2)) - 1/(eps sqrt(1+w^2)) = 0

        (w = dz/dr < 0), and only a first derivative is needed: w' comes
        from five-point central differences of the stored uniform-in-r
        samples, independently of the integrator's own derivative values.
        """
        r, w = self.full_r, self.full_w
        dr = r[1] - r[0]
        wm2, wm1, w0, wp1, wp2 = w[:-4], w[1:-3], w[2:-2], w[3:-1], w[4:]
        wp = (wm2 - 8 * wm1 + 8 * wp1 - wp2) / (12.0 * dr)
        rr = r[2:-2]
        root = np.sqrt(1.0 + w0 ** 2)
        resid = np.abs(-wp / root ** 3 - w0 / (rr * root)
                       - 1.0 / (self.epsilon * root))
        return float(resid.max())


def solve_translator_profile(epsilon, R0=1.0, tolerances=(1e-11, 1e-13)):
    """Integrate the axis-regular translator branch out to radius R0.

    The augmented system (w, z)(r) starts on the smooth-closure asymptote at
    a tiny radius and marches outward; the profile is then shifted so the
    radius-R0 slice sits at height zero.  The solution is sampled at 48,000
    uniform radii and the graph region resampled at 12,000 uniform heights.
    """
    if not (0.0 < epsilon <= R0 / 2.0):
        raise ValueError("need 0 < epsilon <= R0 / 2")
    rtol, atol = tolerances
    eps = float(epsilon)

    r0 = max(1e-7 * R0, 1e-5 * eps)
    w0 = -r0 / (2.0 * eps) - r0 ** 3 / (32.0 * eps ** 3)
    z0 = -r0 ** 2 / (4.0 * eps)  # height relative to the axis point on top

    def rhs(r, y):
        w = y[0]
        return [-(w ** 3 + w) / r - (w * w + 1.0) / eps, w]

    blow = lambda r, y: y[0] + 1e6
    blow.terminal = True
    blow.direction = -1
    sol = solve_ivp(rhs, (r0, R0), [w0, z0], method="RK45",
                    rtol=rtol, atol=atol, dense_output=True, events=[blow])
    if not sol.success:
        raise StiffnessFailure(f"profile integration failed: {sol.message}")
    if sol.t[-1] < R0 * (1.0 - 1e-9):
        raise ShootingFailure(
            f"axis-regular branch stopped at r = {sol.t[-1]:.6g} < R0")

    z_max = float(-sol.y[1][-1])  # height of the axis above the z = 0 slice

    # graph region: |dz/dr| not too small, i.e. |r'| = |1/w| <= slope cap
    n_dense = 12000
    r_dense = np.linspace(r0, R0, 4 * n_dense)
    w_dense, z_dense = sol.sol(r_dense)
    z_dense = z_dense + z_max  # flow coordinates, z(R0) = 0
    slope_cap = 50.0
    graphical = np.abs(1.0 / w_dense) <= slope_cap
    r_graph = r_dense[graphical]
    z_graph = z_dense[graphical]
    w_graph = w_dense[graphical]
    order = np.argsort(z_graph)
    z_grid = np.linspace(z_graph[order][0], z_graph[order][-1], n_dense)
    r_interp = PchipInterpolator(z_graph[order], r_graph[order])
    rp_interp = PchipInterpolator(z_graph[order], 1.0 / w_graph[order])
    cap_sel = ~graphical
    if not np.any(cap_sel):
        cap_sel = r_dense <= r_dense[0] * 2.0
    return TranslatorProfile(
        epsilon=eps, R0=float(R0),
        z=z_grid, r=np.asarray(r_interp(z_grid)),
        rp=np.asarray(rp_interp(z_grid)),
        cap_r=r_dense[cap_sel], cap_z=z_dense[cap_sel], cap_w=w_dense[cap_sel],
        z_max=z_max, shoot_slope=float(1.0 / w_dense[-1]),
        full_r=r_dense, full_w=w_dense)


def _weighted_area_elements(profile: TranslatorProfile, weight):
    """Integrals of weight(z) dA over the graph region and the axis cap."""
    from scipy.integrate import simpson
    z, r, rp = profile.z, profile.r, profile.rp
    integrand = weight(z) * 2.0 * np.pi * r * np.sqrt(1.0 + rp ** 2)
    main = float(simpson(integrand, x=z))
    # cap in the r parametrization: dA = 2 pi r sqrt(1 + w^2) dr
    rr, zz, ww = profile.cap_r, profile.cap_z, profile.cap_w
    cap_integrand = weight(zz) * 2.0 * np.pi * rr * np.sqrt(1.0 + ww ** 2)
    cap = float(simpson(cap_integrand, x=rr))
    return main, cap


def i_epsilon(profile: TranslatorProfile):
    """(1/eps) int e^(-z/eps) dA over the profile surface."""
    eps = profile.epsilon
    main, cap = _weighted_area_elements(profile, lambda z: np.exp(-z / eps))
    return (main + cap) / eps


def i_epsilon_of_table(z, r, epsilon):
    """Weighted area of an arbitrary competitor profile table (z, r(z))."""
    z = np.asarray(z, dtype=float)
    r = np.asarray(r, dtype=float)
    rp = np.gradient(r, z)
    integrand = np.exp(-z / epsilon) * 2.0 * np.pi * r * np.sqrt(1.0 + rp ** 2)
    return float(np.trapezoid(integrand, z)) / epsilon


def slab_mass(profile: TranslatorProfile, interval):
    """Surface area over z in [a, b]; checks the slab bound
    ||P(A)|| <= (|A| + eps) ||Sigma|| with ||Sigma|| = 2 pi R0."""
    a, b = float(interval[0]), float(interval[1])
    if b < a:
        a, b = b, a

    def w(z):
        return ((z >= a) & (z <= b)).astype(float)

    main, cap = _weighted_area_elements(profile, w)
    mass = main + cap
    bound = ((b - a) + profile.epsilon) * (2.0 * np.pi * profile.R0)
    if mass > bound * (1.0 + 1e-9):
        raise FbmcfError(
            f"slab mass {mass:.6g} violates the bound {bound:.6g}")
    return mass


def translate_slices(profile: TranslatorProfile, t_grid):
    """Slice radii of the downward translates: r_eps(t) = r(t / eps)."""
    t_grid = np.asarray(t_grid, dtype=float)
    zz = t_grid / profile.epsilon
    if np.any(zz > profile.z_max * (1.0 + 1e-12)):
        raise OutOfRange("translate time exceeds the profile height")
    if np.any(zz < 0.0):
        raise OutOfRange("translate times must be nonnegative")
    return np.asarray(profile.radius_at(np.minimum(zz, profile.z_max)))


def meridian_polyline(profile: TranslatorProfile, n=400):
    """The (x, z) section through the axis on the x >= 0 side."""
    z_grid = np.linspace(0.0, profile.z_max, n)
    r_grid = np.clip(np.asarray(profile.radius_at(z_grid)), 0.0, None)
    return np.stack([r_grid, z_grid], axis=-1)


def write_profile_csv(profile: TranslatorProfile, path):
    """400 uniform heights of the profile with its soliton residual."""
    resid = profile.soliton_residual()
    zz, rr = profile.samples
    z_grid = np.linspace(zz[0], zz[-1], 400)
    r_grid = profile.radius_at(z_grid)
    with open(path, "w") as f:
        f.write("z,r,residual\n")
        for z, r in zip(z_grid, r_grid):
            f.write("%.17g,%.17g,%.17g\n" % (z, r, resid))


def write_slices_csv(profile: TranslatorProfile, t_grid, path):
    r_eps = translate_slices(profile, t_grid)
    r_exact = np.sqrt(np.clip(profile.R0 ** 2 - 2.0 * np.asarray(t_grid), 0.0, None))
    with open(path, "w") as f:
        f.write("t,r_eps,r_exact,error\n")
        for t, a, b in zip(t_grid, r_eps, r_exact):
            f.write("%.17g,%.17g,%.17g,%.17g\n" % (t, a, b, abs(a - b)))
