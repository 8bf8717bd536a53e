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
r'(0) = 1/w(R0) is reported on the profile, which is the solver's table of
heights z, slopes w and cumulative areas at uniform radii.  The weighted
area I_eps is one Simpson pass over the table in r; a slab's area is the
difference of the cumulative area (one trapezoid pass at solve time) at
the slab's two end radii; slice radii interpolate the table linearly in z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FbmcfError, OutOfRange, ShootingFailure, StiffnessFailure


@dataclass
class TranslatorProfile:
    """Radial profile of the weighted-minimal translator surface."""

    epsilon: float
    R0: float
    r: np.ndarray        # uniform radii, ascending, from just off the axis to R0
    z: np.ndarray        # heights at r, descending to z(R0) = 0
    w: np.ndarray        # dz/dr at r, negative
    area: np.ndarray     # surface area between radii r[0] and r, ascending
    z_max: float         # height of the axis point

    @property
    def shoot_slope(self):
        """The slope r'(0) a shooting solve would search for."""
        return float(1.0 / self.w[-1])

    def radius_at(self, z):
        """Slice radius at heights z in [0, z_max]: R0 at 0, 0 at z_max."""
        return np.interp(z, np.append(self.z[::-1], self.z_max),
                         np.append(self.r[::-1], 0.0))

    def soliton_residual(self):
        """max pointwise deviation from kappa_1 + kappa_2 = -r'/(eps sqrt(1+r'^2)).

        Evaluated in the radius parametrization, where the identity reads

            -w'/(1+w^2)^(3/2) - w/(r sqrt(1+w^2)) - 1/(eps sqrt(1+w^2)) = 0

        (w = dz/dr < 0), and only a first derivative is needed: w' comes
        from five-point central differences of the stored uniform-in-r
        samples, independently of the integrator's own derivative values.
        """
        r, w = self.r, self.w
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
    uniform radii, and the area element 2 pi r sqrt(1 + w^2) dr is summed
    along them by the trapezoid rule.
    """
    from scipy.integrate import solve_ivp  # imported here: slow to load

    if not (0.0 < epsilon <= R0 / 2.0):
        raise ValueError("need 0 < epsilon <= R0 / 2")
    rtol, atol = tolerances
    eps = float(epsilon)

    r0 = max(1e-7 * R0, 1e-5 * eps)
    w0 = -r0 / (2.0 * eps) - r0 ** 3 / (32.0 * eps ** 3)
    z0 = -r0 ** 2 / (4.0 * eps)  # height relative to the axis point on top

    def rhs(r, y):
        w = float(y[0])
        return np.array([-(w ** 3 + w) / r - (w * w + 1.0) / eps, w])

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
    r = np.linspace(r0, R0, 48000)
    w, z = sol.sol(r)
    dA = 2.0 * np.pi * r * np.sqrt(1.0 + w ** 2)
    area = np.concatenate([[0.0], np.cumsum(0.5 * (dA[1:] + dA[:-1])
                                            * np.diff(r))])
    return TranslatorProfile(epsilon=eps, R0=float(R0), r=r, z=z + z_max,
                             w=w, area=area, z_max=z_max)


def i_epsilon(profile: TranslatorProfile):
    """(1/eps) int e^(-z/eps) dA over the profile surface, by Simpson's rule
    in r."""
    from scipy.integrate import simpson
    eps, r, w = profile.epsilon, profile.r, profile.w
    integrand = (np.exp(-profile.z / eps) * 2.0 * np.pi * r
                 * np.sqrt(1.0 + w ** 2))
    return float(simpson(integrand, x=r)) / eps


def i_epsilon_of_table(z, r, epsilon):
    """Weighted area of an arbitrary competitor profile table (z, r(z))."""
    z = np.asarray(z, dtype=float)
    r = np.asarray(r, dtype=float)
    rp = np.gradient(r, z)
    integrand = np.exp(-z / epsilon) * 2.0 * np.pi * r * np.sqrt(1.0 + rp ** 2)
    return float(np.trapezoid(integrand, z)) / epsilon


def slab_mass(profile: TranslatorProfile, interval):
    """Surface area over z in [a, b]; checks the slab bound
    ||P(A)|| <= (|A| + eps) ||Sigma|| with ||Sigma|| = 2 pi R0.

    The profile is monotone, so the slab is the part of the surface between
    the radii r(b) <= r(a), and its area is the difference of the cumulative
    area table there."""
    a, b = float(interval[0]), float(interval[1])
    if not (np.isfinite(a) and np.isfinite(b)):
        raise OutOfRange("slab ends must be finite")
    if b < a:
        a, b = b, a
    lo, hi = np.interp(profile.radius_at([b, a]), profile.r, profile.area)
    mass = float(hi - lo)
    bound = ((b - a) + profile.epsilon) * (2.0 * np.pi * profile.R0)
    if mass > bound * (1.0 + 1e-9):
        raise FbmcfError(
            f"slab mass {mass:.6g} violates the bound {bound:.6g}")
    return mass


def translate_slices(profile: TranslatorProfile, t_grid):
    """Slice radii of the downward translates: r_eps(t) = r(t / eps)."""
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.isfinite(t_grid).all():
        raise OutOfRange("translate times must be finite")
    zz = t_grid / profile.epsilon
    if np.any(zz > profile.z_max * (1.0 + 1e-12)):
        raise OutOfRange("translate time exceeds the profile height")
    if np.any(zz < 0.0):
        raise OutOfRange("translate times must be nonnegative")
    return profile.radius_at(zz)


def meridian_polyline(profile: TranslatorProfile, n=400):
    """The (x, z) section through the axis on the x >= 0 side."""
    z_grid = np.linspace(0.0, profile.z_max, n)
    return np.stack([profile.radius_at(z_grid), z_grid], axis=-1)


def write_profile_csv(profile: TranslatorProfile, path):
    """400 uniform heights of the profile with its soliton residual."""
    resid = profile.soliton_residual()
    with open(path, "w") as f:
        f.write("z,r,residual\n")
        for r, z in meridian_polyline(profile):
            f.write("%.17g,%.17g,%.17g\n" % (z, r, resid))


def write_slices_csv(profile: TranslatorProfile, t_grid, path):
    r_eps = translate_slices(profile, t_grid)
    r_exact = np.sqrt(np.clip(profile.R0 ** 2 - 2.0 * np.asarray(t_grid), 0.0, None))
    with open(path, "w") as f:
        f.write("t,r_eps,r_exact,error\n")
        for t, a, b in zip(t_grid, r_eps, r_exact):
            f.write("%.17g,%.17g,%.17g,%.17g\n" % (t, a, b, abs(a - b)))
