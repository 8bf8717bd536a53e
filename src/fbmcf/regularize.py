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
w(r) is global, and the march is stable.  The march is the Dormand-Prince
5(4) pair (J. Comput. Appl. Math. 6, 1980) with the step control of
scipy's RK45, written out on Python floats; each accepted step keeps its
stage values, which give the coefficients of Shampine's quartic dense
output (Math. Comp. 46, 1986), and one vectorised Horner pass samples
that at uniform radii.  The equivalent initial slope r'(0) = 1/w(R0) is
reported on the profile, which is the table of heights z, slopes w and
cumulative areas at those radii.  The weighted area I_eps is one Simpson
pass over the table in r; a slab's area is the difference of the
cumulative area (one trapezoid pass at solve time) at the slab's two end
radii; slice radii interpolate the table linearly in z.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import (ConfigError, FbmcfError, OutOfRange, ShootingFailure,
                     StiffnessFailure)


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


# attempted steps (accepted or rejected) before the translator march gives
# up; the largest solve the package runs (R0 = 1, eps = 0.05) takes 612
_MAX_STEPS = 100_000


def check_translator_params(epsilon, R0):
    """Raise ConfigError unless eps^3 and r0^3 are normal floats, where
    r0 = max(1e-7 R0, 1e-5 eps) is the radius the march starts from (the
    closure asymptote there divides by eps^3 and cubes r0); returns r0."""
    r0 = max(1e-7 * float(R0), 1e-5 * float(epsilon))
    for what, value in (("epsilon", float(epsilon)), ("start radius", r0)):
        try:
            cube = value ** 3
        except OverflowError:
            cube = math.inf
        if not sys.float_info.min <= cube <= sys.float_info.max:
            raise ConfigError(
                f"regularize: epsilon {epsilon!r} with R0 {R0!r} has no "
                f"representable start: the cube of the {what} {value!r} is "
                "not a normal float")
    return r0


def solve_translator_profile(epsilon, R0=1.0, tolerances=(1e-11, 1e-13)):
    """Integrate the axis-regular translator branch out to radius R0.

    The augmented system (w, z)(r) starts on the smooth-closure asymptote at
    a tiny radius and marches outward by Dormand-Prince 5(4) with RK45's
    tableau and step control (initial step rule, safety 0.9, step factors
    in [0.2, 10], none above 1 right after a rejection, RMS error norm,
    rtol at least 100 machine epsilons), on Python floats; the z stages are
    the w stage values, since z' = w.  Each accepted step keeps its start,
    length, (w, z) and stage values; after the march, Q = K P gives every
    step's quartic dense output, evaluated at 48,000 uniform radii by
    Horner's rule.  The profile is then shifted so the radius-R0 slice sits
    at height zero, and the area element 2 pi r sqrt(1 + w^2) dr is summed
    along the radii by the trapezoid rule.

    Raises ConfigError when ``check_translator_params`` finds no
    representable start, ShootingFailure if w = dz/dr reaches -1e6, and
    StiffnessFailure if a step falls below 10 ulps of r, the march
    attempts more than ``_MAX_STEPS`` steps, or w at the start or at a
    stage is too large to cube in floats (tiny epsilons).
    """
    if not (0.0 < epsilon <= R0 / 2.0):
        raise ValueError("need 0 < epsilon <= R0 / 2")
    r0 = check_translator_params(epsilon, R0)
    from scipy.integrate import RK45  # its tableau only; slow to load

    eps, R0 = float(epsilon), float(R0)
    rtol = max(float(tolerances[0]), 100.0 * sys.float_info.epsilon)
    atol = float(tolerances[1])
    A, B, C, E = (getattr(RK45, k).tolist() for k in "ABCE")
    expo = -1.0 / (RK45.error_estimator_order + 1)

    w0 = -r0 / (2.0 * eps) - r0 ** 3 / (32.0 * eps ** 3)
    z0 = -r0 ** 2 / (4.0 * eps)  # height relative to the axis point on top

    def f(r, w):  # w'
        try:
            return -(w ** 3 + w) / r - (w * w + 1.0) / eps
        except OverflowError:  # w^3 beyond the floats: no step can follow
            raise StiffnessFailure(
                f"translator march left the floats at r = {r:.6g}: "
                f"w = {w:.3g} cannot be cubed") from None

    def rms(a, b):
        return math.sqrt(0.5 * (a * a + b * b))

    # scipy's select_initial_step: the two scales, then a trial Euler step
    t, w, z, k = r0, w0, z0, f(r0, w0)
    sw, sz = atol + abs(w) * rtol, atol + abs(z) * rtol
    d0, d1 = rms(w / sw, z / sz), rms(k / sw, w / sz)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, R0 - t)
    w1 = w + h0 * k
    d2 = rms((f(t + h0, w1) - k) / sw, (w1 - w) / sz) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 \
        else (0.01 / max(d1, d2)) ** (-expo)
    h_abs = min(100.0 * h0, h1, R0 - t)

    table = array("d")  # per accepted step: t, h, w, z and w', w at stages
    attempts = 0
    while t < R0:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            attempts += 1
            if h_abs < min_step or attempts > _MAX_STEPS:
                raise StiffnessFailure(
                    f"translator march stalled at r = {t:.6g} after "
                    f"{attempts - 1} steps (step {h_abs:.3g})")
            t_new = min(t + h_abs, R0)
            h = h_abs = t_new - t
            K, V = [k], [w]  # w' and w (= z') at the stages
            for a, c in zip(A[1:], C[1:]):
                v = w + sum(map(mul, a, K)) * h
                V.append(v)
                K.append(f(t + c * h, v))
            w_new = w + h * sum(map(mul, B, K))
            z_new = z + h * sum(map(mul, B, V))
            K.append(f(t + h, w_new))
            V.append(w_new)
            err = rms(h * sum(map(mul, E, K))
                      / (atol + max(abs(w), abs(w_new)) * rtol),
                      h * sum(map(mul, E, V))
                      / (atol + max(abs(z), abs(z_new)) * rtol))
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** expo)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** expo)
            rejected = True
        table.extend((t, h, w, z, *K, *V))
        t, w, z, k = t_new, w_new, z_new, K[-1]
        if w <= -1e6:
            raise ShootingFailure(f"axis-regular branch stopped at r = "
                                  f"{t:.6g}: dz/dr reached -1e6")

    z_max = -z  # height of the axis above the z = 0 slice
    steps = np.frombuffer(table).reshape(-1, 18)
    r = np.linspace(r0, R0, 48000)
    # how many radii each step covers; one on a step boundary belongs to
    # the step that ends there, as in scipy's OdeSolution
    ends = np.searchsorted(r, steps[1:, 0], side="right")
    covered = np.diff(ends, prepend=0, append=len(r))

    def at_r(column):  # a per-step column, repeated over the step's radii
        return np.repeat(column, covered)

    h = at_r(steps[:, 1])
    x = (r - at_r(steps[:, 0])) / h

    def dense(i, stages):  # column i at r, from its step's quartic Q = K P
        Q = steps[:, stages] @ RK45.P
        q = at_r(Q[:, 3])
        for j in (2, 1, 0):
            q = at_r(Q[:, j]) + x * q
        return at_r(steps[:, i]) + h * (x * q)

    w, z = dense(2, slice(4, 11)), dense(3, slice(11, 18))
    dA = 2.0 * np.pi * r * np.sqrt(1.0 + w ** 2)
    area = np.concatenate([[0.0], np.cumsum(0.5 * (dA[1:] + dA[:-1])
                                            * np.diff(r))])
    return TranslatorProfile(epsilon=eps, R0=R0, r=r, z=z + z_max,
                             w=w, area=area, z_max=z_max)


def i_epsilon(profile: TranslatorProfile):
    """(1/eps) int e^(-z/eps) dA over the profile surface, by Simpson's rule
    in r."""
    from scipy.integrate import simpson
    eps, r, w = profile.epsilon, profile.r, profile.w
    integrand = (np.exp(-profile.z / eps) * 2.0 * np.pi * r
                 * np.sqrt(1.0 + w ** 2))
    return float(simpson(integrand, x=r)) / eps


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


def meridian_polyline(profile: TranslatorProfile):
    """The (x, z) section through the axis on the x >= 0 side, at 400
    uniform heights."""
    z_grid = np.linspace(0.0, profile.z_max, 400)
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
