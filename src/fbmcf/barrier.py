"""Planar barrier curves: distance, projection, reflection, and regularity scales.

A barrier is an embedded oriented curve S in the plane.  The orienting unit
normal ``nu_S`` always points *out of* the closed admissible side Omega.  All
queries (distance ``d``, nearest-point projection ``zeta``, point reflection
``x~ = 2 zeta(x) - x``, vector reflection) are closed form for lines and
circles and Newton-based for generic parametric curves.

Two quantitative scales are attached to every barrier point:

* ``regularity_scale(y, k, alpha)`` -- the largest radius at which S is a
  graph over its tangent line with scale-invariant C^{k,alpha} bounds <= 1;
* ``reflection_regularity_scale(y)`` -- the largest radius at which the
  tangent-straightening map Phi and its inverse stay quantitatively close to
  the identity (with an empirically measured constant).

Flat barriers have infinite scales; they are reported as a configurable cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BeyondReach, ChartFailure

FLAT_SCALE_CAP = 1e6


def _as_points(x):
    """Return (points, was_single) with points shaped (N, 2)."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        return a[None, :], True
    return a, False


def _unpack(values, single):
    return values[0] if single else values


@dataclass(frozen=True)
class ReflectionData:
    """One reflection query: base point, foot, mirror image and local scale."""

    base: np.ndarray
    foot: np.ndarray
    mirror: np.ndarray
    distance: float
    local_scale: float


class LocalChart:
    """Graph description of S over its tangent line at a base point.

    Coordinates: ``point = base + xi * t + eta * n`` with ``t`` the unit
    tangent and ``n = nu_S(base)``.  The curve is ``eta = u(xi)`` for
    ``|xi| < halfwidth``, with ``u(0) = u'(0) = 0``.
    """

    def __init__(self, base, tangent, normal, u, du, d2u, halfwidth, d3u=None):
        self.base = np.asarray(base, dtype=float)
        self.tangent = np.asarray(tangent, dtype=float)
        self.normal = np.asarray(normal, dtype=float)
        self.u = u
        self.du = du
        self.d2u = d2u
        self._d3u = d3u
        self.halfwidth = float(halfwidth)

    def d3u(self, xi):
        if self._d3u is not None:
            return self._d3u(xi)
        h = 1e-5 * max(self.halfwidth, 1.0)
        return (self.d2u(xi + h) - self.d2u(xi - h)) / (2.0 * h)

    def to_local(self, points):
        p = np.asarray(points, dtype=float) - self.base
        return np.stack([p @ self.tangent, p @ self.normal], axis=-1)


class Barrier:
    """Common query interface; subclasses provide ``project`` and ``normal``."""

    reach: float = np.inf
    scale_cap: float = FLAT_SCALE_CAP

    # -- subclass surface ------------------------------------------------

    def project(self, x):
        raise NotImplementedError

    def normal(self, x):
        """Unit normal nu_S at the foot zeta(x) of each point (vectorized);
        on S that is the normal at x itself."""
        raise NotImplementedError

    def omega_signed(self, x):
        """Signed depth into Omega: >= 0 on the closed admissible side."""
        raise NotImplementedError

    def local_chart(self, y) -> LocalChart:
        raise NotImplementedError

    def boundary_samples(self, n):
        """Points sampled along S, used by certificates and test sweeps."""
        raise NotImplementedError

    def transformed(self, center, scale):
        """The barrier (S - center) / scale, for parabolic rescaling."""
        raise NotImplementedError

    # -- shared queries ----------------------------------------------------

    def distance(self, x):
        pts, single = _as_points(x)
        feet = np.atleast_2d(self.project(pts))
        d = np.linalg.norm(pts - feet, axis=-1)
        return _unpack(d, single)

    def tangent(self, y):
        n, single = _as_points(self.normal(y))
        t = np.stack([-n[:, 1], n[:, 0]], axis=-1)
        return _unpack(t, single)

    def _check_reach(self, pts, feet):
        d = np.linalg.norm(pts - feet, axis=-1)
        if np.any(d >= self.reach * (1.0 - 1e-12)):
            raise BeyondReach(
                f"point at distance {d.max():.6g} outside the reach tube "
                f"(reach {self.reach:.6g})")

    def reflect_point(self, x):
        """Mirror image x~ = 2 zeta(x) - x across the barrier."""
        pts, single = _as_points(x)
        feet = np.atleast_2d(self.project(pts))
        self._check_reach(pts, feet)
        return _unpack(2.0 * feet - pts, single)

    def reflect_vector(self, x, v):
        """Linear reflection of v across the tangent line at zeta(x)."""
        pts, single = _as_points(x)
        vecs, _ = _as_points(v)
        self._check_reach(pts, np.atleast_2d(self.project(pts)))
        n = np.atleast_2d(self.normal(pts))
        out = vecs - 2.0 * np.sum(vecs * n, axis=-1, keepdims=True) * n
        return _unpack(out, single)

    def distance_gradient(self, x):
        """Gradient of the (unsigned) distance: (x - zeta(x)) / d(x)."""
        pts, single = _as_points(x)
        feet = np.atleast_2d(self.project(pts))
        rel = pts - feet
        d = np.linalg.norm(rel, axis=-1, keepdims=True)
        return _unpack(rel / np.maximum(d, 1e-300), single)

    def distance_hessian(self, x, h=None):
        """Hessian of the distance, by central differences of the gradient."""
        pts, single = _as_points(x)
        if h is None:
            h = 1e-6 * max(1.0, float(np.abs(pts).max()))
        out = np.empty((len(pts), 2, 2))
        for k, ek in enumerate(np.eye(2)):
            gp = np.atleast_2d(self.distance_gradient(pts + h * ek))
            gm = np.atleast_2d(self.distance_gradient(pts - h * ek))
            out[:, :, k] = (gp - gm) / (2.0 * h)
        out = 0.5 * (out + np.swapaxes(out, 1, 2))
        return _unpack(out, single)

    def reflection_data(self, x) -> ReflectionData:
        x = np.asarray(x, dtype=float)
        foot = self.project(x)
        mirror = self.reflect_point(x)
        return ReflectionData(
            base=x, foot=foot, mirror=mirror,
            distance=float(np.linalg.norm(x - foot)),
            local_scale=self.reflection_regularity_scale(foot))

    def affine_reflection(self, foot):
        """The affine reflection about the tangent line at a fixed foot point."""
        foot = np.asarray(foot, dtype=float)
        n = self.normal(foot)

        def refl(y):
            pts, single = _as_points(y)
            out = pts - 2.0 * np.outer((pts - foot) @ n, n)
            return _unpack(out, single)

        return refl

    # -- regularity scales ---------------------------------------------------

    def inverse_projection(self, y) -> "InverseProjection":
        """Tangent-straightening map Phi at a point y on S."""
        return InverseProjection(self.local_chart(y))

    def regularity_scale(self, y, k, alpha=0.0, resolution=1e-3):
        """Largest r at which S is a graph over T_y S with C^{k,alpha} bounds <= 1.

        The chart plane is pinned to the tangent line at y, so the result is
        a (possibly strict) lower bound for the optimal-plane scale.  The
        search is a bisection over sampled graph-fit certificates with the
        given relative resolution.
        """
        if k > 3:
            raise ChartFailure("graph certificates are implemented for k <= 3")
        if self.is_flat():
            return self.scale_cap
        chart = self.local_chart(y)
        samples = self.boundary_samples(512)

        def ok(r):
            return self._graph_certificate(chart, samples, r, k, alpha)

        return _bisect_scale(ok, hi=self.scale_cap, resolution=resolution)

    def reflection_regularity_scale(self, y, resolution=1e-3):
        """Largest radius (<= the C^3 scale) with quantified straightening bounds.

        The closeness constant is measured on the C^3-scale box and the
        certificate then demands the bounds with ten times that constant, so
        the returned radius is conservative whenever the fit degrades.
        """
        if self.is_flat():
            return self.scale_cap
        rho = self.regularity_scale(y, 3, resolution=resolution)
        phi = self.inverse_projection(y)
        c0 = 10.0 * max(phi.measured_constant(rho), 1e-12)

        def ok(r):
            return phi.certificate(r, c0) and r <= rho * (1 + 1e-12)

        return _bisect_scale(ok, hi=rho, resolution=resolution)

    def global_reflection_scale(self, n_samples=16):
        """inf over sampled barrier points of the reflection regularity scale."""
        if self.is_flat():
            return self.scale_cap
        pts = self.boundary_samples(n_samples)
        return min(self.reflection_regularity_scale(p) for p in pts)

    def is_flat(self):
        return False

    # certificate shared by all barriers
    def _graph_certificate(self, chart, samples, r, k, alpha):
        if r > 0.999 * chart.halfwidth:
            return False
        xi = np.linspace(-r, r, 65)
        try:
            u = np.asarray(chart.u(xi), dtype=float)
            derivs = [np.asarray(chart.du(xi), dtype=float)]
            if k >= 2:
                derivs.append(np.asarray(chart.d2u(xi), dtype=float))
            if k >= 3:
                derivs.append(np.asarray(chart.d3u(xi), dtype=float))
        except (FloatingPointError, ValueError):
            return False
        if not np.all(np.isfinite(u)) or any(not np.all(np.isfinite(d)) for d in derivs):
            return False
        # restrict to the part of the graph inside the box |eta| <= r
        inside = np.abs(u) <= r
        total = (np.max(np.abs(u[inside])) / r if np.any(inside) else 0.0)
        for i, d in enumerate(derivs, start=1):
            di = d[inside] if np.any(inside) else d[:0]
            if di.size:
                total += r ** (i - 1) * np.max(np.abs(di))
        if alpha > 0.0 and np.any(inside):
            dk = derivs[-1][inside]
            xii = xi[inside]
            dx = np.abs(xii[:, None] - xii[None, :])
            quot = np.abs(dk[:, None] - dk[None, :]) / np.maximum(dx, 1e-300) ** alpha
            np.fill_diagonal(quot, 0.0)
            total += r ** (k + alpha - 1) * quot.max()
        if total > 1.0:
            return False
        # every barrier sample inside the box must lie on the chart graph
        loc = chart.to_local(samples)
        in_box = (np.abs(loc[:, 0]) <= r) & (np.abs(loc[:, 1]) <= r)
        if np.any(in_box):
            xi_b = loc[in_box, 0]
            if np.any(np.abs(xi_b) > chart.halfwidth * 0.99999):
                return False
            eta_fit = np.asarray(chart.u(xi_b), dtype=float)
            tol = 1e-7 * max(r, 1.0)
            if np.any(np.abs(eta_fit - loc[in_box, 1]) > tol):
                return False
        return True


def _bisect_scale(ok, hi, resolution):
    """Largest r <= hi passing ``ok``, found by bracketing plus bisection."""
    r = hi
    for _ in range(60):
        if ok(r):
            break
        r *= 0.5
    else:
        return r  # conservative lower bound; certificate never certified
    lo, up = r, min(2.0 * r, hi)
    if up <= lo * (1 + 1e-12):
        return lo
    while not ok(up) and (up - lo) > resolution * lo:
        mid = 0.5 * (lo + up)
        if ok(mid):
            lo = mid
        else:
            up = mid
    return lo


class Line(Barrier):
    """Straight barrier {x : normal . x = offset}; Omega = {normal . x <= offset}."""

    def __init__(self, normal=(0.0, -1.0), offset=0.0, scale_cap=FLAT_SCALE_CAP):
        n = np.asarray(normal, dtype=float)
        norm = np.linalg.norm(n)
        if norm == 0.0:
            raise ValueError("line normal must be nonzero")
        self.nu = n / norm
        self.offset = float(offset) / norm
        self.scale_cap = float(scale_cap)
        self.reach = np.inf

    def is_flat(self):
        return True

    def _height(self, pts):
        """nu . x row by row, elementwise so a row's bits do not depend on
        how many rows share the call (a BLAS product would)."""
        return pts[:, 0] * self.nu[0] + pts[:, 1] * self.nu[1]

    def project(self, x):
        pts, single = _as_points(x)
        s = self._height(pts) - self.offset
        return _unpack(pts - s[:, None] * self.nu, single)

    def normal(self, x):
        pts, single = _as_points(x)
        out = np.empty_like(pts)
        out[:] = self.nu
        return _unpack(out, single)

    def omega_signed(self, x):
        pts, single = _as_points(x)
        return _unpack(self.offset - self._height(pts), single)

    def distance_hessian(self, x, h=None):
        pts, single = _as_points(x)
        return _unpack(np.zeros((len(pts), 2, 2)), single)

    def local_chart(self, y):
        y = np.asarray(np.atleast_2d(y)[0], dtype=float)
        base = self.project(y)
        t = np.array([-self.nu[1], self.nu[0]])
        zeros = lambda xi: np.zeros_like(np.asarray(xi, dtype=float))
        return LocalChart(base, t, self.nu, zeros, zeros, zeros,
                          halfwidth=self.scale_cap * 10.0, d3u=zeros)

    def boundary_samples(self, n):
        t = np.array([-self.nu[1], self.nu[0]])
        base = self.offset * self.nu
        s = np.linspace(-10.0, 10.0, n)
        return base + s[:, None] * t

    def transformed(self, center, scale):
        center = np.asarray(center, dtype=float)
        return Line(self.nu, (self.offset - self.nu @ center) / scale,
                    scale_cap=self.scale_cap)


class Circle(Barrier):
    """Circular barrier; ``omega_side`` picks which side is the admissible domain."""

    def __init__(self, center=(0.0, 0.0), radius=1.0, omega_side="inside"):
        if radius <= 0:
            raise ValueError("circle radius must be positive")
        if omega_side not in ("inside", "outside"):
            raise ValueError("omega_side must be 'inside' or 'outside'")
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.omega_side = omega_side
        self.reach = float(radius)

    def _radial(self, pts):
        rel = pts - self.center
        rr = np.linalg.norm(rel, axis=-1)
        if np.any(rr < 1e-14 * self.radius):
            raise BeyondReach("projection from the circle center is not unique")
        return rel, rr

    def project(self, x):
        pts, single = _as_points(x)
        rel, rr = self._radial(pts)
        return _unpack(self.center + rel * (self.radius / rr)[:, None], single)

    def normal(self, x):
        pts, single = _as_points(x)
        rel, rr = self._radial(pts)
        out = rel / rr[:, None]
        if self.omega_side == "outside":
            out = -out
        return _unpack(out, single)

    def omega_signed(self, x):
        pts, single = _as_points(x)
        rr = np.linalg.norm(pts - self.center, axis=-1)
        s = self.radius - rr if self.omega_side == "inside" else rr - self.radius
        return _unpack(s, single)

    def distance_hessian(self, x, h=None):
        pts, single = _as_points(x)
        rel, rr = self._radial(pts)
        rhat = rel / rr[:, None]
        proj = np.eye(2)[None, :, :] - rhat[:, :, None] * rhat[:, None, :]
        sign = np.where(rr >= self.radius, 1.0, -1.0)
        out = sign[:, None, None] * proj / rr[:, None, None]
        return _unpack(out, single)

    def local_chart(self, y):
        y = np.asarray(np.atleast_2d(y)[0], dtype=float)
        base = self.project(y)
        n = self.normal(base)
        t = np.array([-n[1], n[0]])
        R = self.radius
        sign = 1.0 if self.omega_side == "outside" else -1.0
        # outward-normal chart is -(R - sqrt(R^2 - xi^2)); flip for inward normal

        def u(xi):
            xi = np.asarray(xi, dtype=float)
            return sign * (R - np.sqrt(np.maximum(R * R - xi * xi, 0.0)))

        def du(xi):
            xi = np.asarray(xi, dtype=float)
            return sign * xi / np.sqrt(np.maximum(R * R - xi * xi, 1e-300))

        def d2u(xi):
            xi = np.asarray(xi, dtype=float)
            return sign * R * R / np.sqrt(np.maximum(R * R - xi * xi, 1e-300)) ** 3

        def d3u(xi):
            xi = np.asarray(xi, dtype=float)
            return sign * 3 * R * R * xi / np.sqrt(np.maximum(R * R - xi * xi, 1e-300)) ** 5

        return LocalChart(base, t, n, u, du, d2u, halfwidth=0.999 * R, d3u=d3u)

    def boundary_samples(self, n):
        th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return self.center + self.radius * np.stack([np.cos(th), np.sin(th)], axis=-1)

    def transformed(self, center, scale):
        center = np.asarray(center, dtype=float)
        return Circle((self.center - center) / scale, self.radius / scale,
                      omega_side=self.omega_side)


class ParametricBarrier(Barrier):
    """Closed C^3 barrier from a parametric sample table (plus optional callables).

    The table stores ``gamma(theta)`` with first and second derivatives on a
    uniform closed parameter grid.  Projection runs Newton iteration on the
    squared distance, multistarted from the eight nearest table samples; when
    analytic callables are supplied they are used for the Newton evaluations,
    otherwise a periodic cubic spline through the table is used.

    The reach is estimated as ``min(1/max curvature, min self-distance / 2)``.
    """

    def __init__(self, points, d1=None, d2=None, funcs=None, omega_side="inside"):
        from scipy.interpolate import CubicSpline

        self.points = np.asarray(points, dtype=float)
        m = len(self.points)
        if m < 8:
            raise ValueError("parametric barrier needs at least 8 samples")
        self.theta = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
        self.omega_side = omega_side
        if funcs is not None:
            self._f, self._df, self._ddf = funcs
        else:
            th_closed = np.concatenate([self.theta, [2.0 * np.pi]])
            pts_closed = np.vstack([self.points, self.points[:1]])
            spl = CubicSpline(th_closed, pts_closed, bc_type="periodic")
            self._f = spl
            self._df = spl.derivative(1)
            self._ddf = spl.derivative(2)
        self.d1 = np.asarray([self._df(t) for t in self.theta]) if d1 is None \
            else np.asarray(d1, dtype=float)
        self.d2 = np.asarray([self._ddf(t) for t in self.theta]) if d2 is None \
            else np.asarray(d2, dtype=float)

        speed = np.linalg.norm(self.d1, axis=1)
        cross = self.d1[:, 0] * self.d2[:, 1] - self.d1[:, 1] * self.d2[:, 0]
        kappa = np.abs(cross) / np.maximum(speed, 1e-300) ** 3
        self._orientation = np.sign(np.sum(cross))  # >0 for counterclockwise
        reach_curv = 1.0 / max(kappa.max(), 1e-300)
        self.reach = min(reach_curv, 0.5 * self._min_self_distance())

    @classmethod
    def from_function(cls, f, df, ddf, n_samples=256, omega_side="inside"):
        th = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
        pts = np.asarray([f(t) for t in th], dtype=float)
        d1 = np.asarray([df(t) for t in th], dtype=float)
        d2 = np.asarray([ddf(t) for t in th], dtype=float)
        return cls(pts, d1, d2, funcs=(f, df, ddf), omega_side=omega_side)

    def _min_self_distance(self):
        """Narrowest bottleneck: pairs far apart along the curve but close in space."""
        pts = self.points
        m = len(pts)
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        idx = np.arange(m)
        sep = np.minimum(np.abs(idx[:, None] - idx[None, :]),
                         m - np.abs(idx[:, None] - idx[None, :]))
        edge = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        arc = edge.mean() * sep
        # a convex arc has arc/chord <= pi/2; ratios beyond 3 flag a true neck
        mask = (sep > 0) & (arc > 3.0 * np.maximum(d, 1e-300))
        return d[mask].min() if np.any(mask) else np.inf

    def _foot_parameter(self, x):
        """Parameter of the foot of one point x: Newton on the squared
        distance, multistarted from the eight nearest table samples."""
        x = np.asarray(x, dtype=float)
        d2_samples = np.linalg.norm(self.points - x, axis=1)
        starts = self.theta[np.argsort(d2_samples)[:8]]
        best_theta, best_d2 = None, np.inf
        for th0 in starts:
            th = float(th0)
            for _ in range(60):
                g = np.asarray(self._f(th), dtype=float)
                dg = np.asarray(self._df(th), dtype=float)
                ddg = np.asarray(self._ddf(th), dtype=float)
                rel = g - x
                grad = rel @ dg
                hess = dg @ dg + rel @ ddg
                if hess <= 0:
                    step = -grad / max(dg @ dg, 1e-300)
                else:
                    step = -grad / hess
                step = np.clip(step, -0.5, 0.5)
                th += step
                if abs(step) < 1e-14:
                    break
            g = np.asarray(self._f(th), dtype=float)
            dd = float(np.sum((g - x) ** 2))
            if dd < best_d2:
                best_d2, best_theta = dd, th % (2.0 * np.pi)
        return best_theta

    def _normal_at(self, th):
        """nu_S at parameter th."""
        dg = np.asarray(self._df(th), dtype=float)
        t = dg / np.linalg.norm(dg)
        # outward of a counterclockwise curve is (t_y, -t_x)
        nrm = np.array([t[1], -t[0]]) * self._orientation
        return nrm if self.omega_side == "inside" else -nrm

    def project(self, x):
        pts, single = _as_points(x)
        out = np.empty_like(pts)
        for i, p in enumerate(pts):
            out[i] = self._f(self._foot_parameter(p))
        return _unpack(out, single)

    def normal(self, x):
        pts, single = _as_points(x)
        out = np.empty_like(pts)
        for i, p in enumerate(pts):
            out[i] = self._normal_at(self._foot_parameter(p))
        return _unpack(out, single)

    def omega_signed(self, x):
        pts, single = _as_points(x)
        out = np.empty(len(pts))
        for i, p in enumerate(pts):
            th = self._foot_parameter(p)
            foot = np.asarray(self._f(th), dtype=float)
            out[i] = (foot - p) @ self._normal_at(th)
        return _unpack(out, single)

    def local_chart(self, y):
        th0 = self._foot_parameter(np.asarray(np.atleast_2d(y)[0], dtype=float))
        base = np.asarray(self._f(th0), dtype=float)
        n = self._normal_at(th0)
        t = np.array([-n[1], n[0]])

        def theta_for(xi):
            """Parameter with tangential coordinate xi, by Newton from th0."""
            th = th0
            for _ in range(60):
                g = np.asarray(self._f(th), dtype=float)
                dg = np.asarray(self._df(th), dtype=float)
                val = (g - base) @ t - xi
                der = dg @ t
                if abs(der) < 1e-14:
                    raise ChartFailure("tangential coordinate fold-over")
                step = -val / der
                th += np.clip(step, -0.5, 0.5)
                if abs(step) < 1e-14:
                    return th
            raise ChartFailure("chart parameter iteration did not converge")

        def _pointwise(fn):
            def wrapped(xi):
                xi_arr = np.asarray(xi, dtype=float)
                flat = np.atleast_1d(xi_arr).ravel()
                vals = np.array([fn(float(x1)) for x1 in flat])
                return vals.reshape(xi_arr.shape) if xi_arr.ndim else float(vals[0])
            return wrapped

        @_pointwise
        def u(x1):
            th = theta_for(x1)
            return (np.asarray(self._f(th), dtype=float) - base) @ n

        @_pointwise
        def du(x1):
            dg = np.asarray(self._df(theta_for(x1)), dtype=float)
            return (dg @ n) / (dg @ t)

        @_pointwise
        def d2u(x1):
            th = theta_for(x1)
            dg = np.asarray(self._df(th), dtype=float)
            ddg = np.asarray(self._ddf(th), dtype=float)
            xp, ep = dg @ t, dg @ n
            xpp, epp = ddg @ t, ddg @ n
            return (epp * xp - ep * xpp) / xp ** 3

        # halfwidth: where the tangential speed dg.t stays bounded away from 0
        hw = self.reach
        return LocalChart(base, t, n, u, du, d2u, halfwidth=hw)

    def boundary_samples(self, n):
        th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return np.asarray([self._f(t) for t in th], dtype=float)

    def transformed(self, center, scale):
        center = np.asarray(center, dtype=float)
        f, df, ddf = self._f, self._df, self._ddf
        funcs = (lambda t: (np.asarray(f(t)) - center) / scale,
                 lambda t: np.asarray(df(t)) / scale,
                 lambda t: np.asarray(ddf(t)) / scale)
        return ParametricBarrier((self.points - center) / scale,
                                 self.d1 / scale, self.d2 / scale,
                                 funcs=funcs, omega_side=self.omega_side)


class InverseProjection:
    """The straightening map Phi(xi, s) = (xi, u(xi)) + s * nu(xi) in chart coordinates.

    ``evaluate``, ``jacobian`` and ``second_derivative`` act on local
    coordinates centered at the chart base point, so Phi(0) = 0 and
    DPhi(0) = Id.
    """

    def __init__(self, chart: LocalChart):
        self.chart = chart

    def evaluate(self, xi, s):
        xi = np.asarray(xi, dtype=float)
        s = np.asarray(s, dtype=float)
        u = self.chart.u(xi)
        up = self.chart.du(xi)
        w = np.sqrt(1.0 + up ** 2)
        return np.stack([xi - s * up / w, u + s / w], axis=-1)

    def jacobian(self, xi, s):
        xi = np.asarray(xi, dtype=float)
        s = np.asarray(s, dtype=float)
        up = self.chart.du(xi)
        upp = self.chart.d2u(xi)
        w = np.sqrt(1.0 + up ** 2)
        j = np.empty(np.broadcast(xi, s).shape + (2, 2))
        j[..., 0, 0] = 1.0 - s * upp / w ** 3
        j[..., 0, 1] = -up / w
        j[..., 1, 0] = up - s * up * upp / w ** 3
        j[..., 1, 1] = 1.0 / w
        return j

    def second_derivative(self, xi, s, h=None):
        """D^2 Phi by central differences of the analytic Jacobian."""
        if h is None:
            h = 1e-6 * max(abs(float(np.max(np.abs(xi)))) + abs(float(np.max(np.abs(s)))), 1.0)
        d_xi = (self.jacobian(xi + h, s) - self.jacobian(xi - h, s)) / (2 * h)
        d_s = (self.jacobian(xi, s + h) - self.jacobian(xi, s - h)) / (2 * h)
        return np.stack([d_xi, d_s], axis=-1)  # [..., i, j, k] = d_k (DPhi)_{ij}

    def invert(self, z, tol=1e-12, maxiter=60):
        """Newton inversion of Phi at a local-coordinate target z."""
        z = np.asarray(z, dtype=float)
        q = z.copy()
        for _ in range(maxiter):
            val = self.evaluate(q[..., 0], q[..., 1])
            res = val - z
            if np.max(np.abs(res)) < tol:
                return q
            jac = self.jacobian(q[..., 0], q[..., 1])
            try:
                step = np.linalg.solve(jac, res[..., None])[..., 0]
            except np.linalg.LinAlgError:
                raise ChartFailure("straightening map not invertible at sample")
            q = q - step
        raise ChartFailure("Newton inversion of the straightening map stalled")

    def measured_constant(self, rho, n_grid=17):
        """Empirical constant c with |Phi-Id| <= c|z|^2/rho etc. on the rho-box."""
        xi = np.linspace(-rho, rho, n_grid)
        s = np.linspace(-rho, rho, n_grid)
        XI, S = np.meshgrid(xi, s, indexing="ij")
        Z = np.stack([XI, S], axis=-1)
        r = np.linalg.norm(Z, axis=-1)
        mask = r > 1e-9 * rho
        val = self.evaluate(XI, S)
        jac = self.jacobian(XI, S)
        hess = self.second_derivative(XI, S, h=1e-6 * rho)
        c = 0.0
        dev0 = np.linalg.norm(val - Z, axis=-1)
        c = max(c, np.max(dev0[mask] * rho / r[mask] ** 2))
        dev1 = np.linalg.norm((jac - np.eye(2)).reshape(jac.shape[:-2] + (4,)), axis=-1)
        c = max(c, np.max(dev1[mask] * rho / r[mask]))
        dev2 = np.linalg.norm(hess.reshape(hess.shape[:-3] + (8,)), axis=-1)
        c = max(c, np.max(dev2) * rho)
        return float(c)

    def certificate(self, r, c0, n_grid=13):
        """Conditions on Phi (box) and Phi^{-1} (ball) at scale r with constant c0."""
        xi = np.linspace(-r, r, n_grid)
        s = np.linspace(-r, r, n_grid)
        XI, S = np.meshgrid(xi, s, indexing="ij")
        Z = np.stack([XI, S], axis=-1)
        rr = np.linalg.norm(Z, axis=-1)
        mask = rr > 1e-9 * r
        try:
            val = self.evaluate(XI, S)
            jac = self.jacobian(XI, S)
            hess = self.second_derivative(XI, S, h=1e-6 * r)
        except (ChartFailure, FloatingPointError):
            return False
        if not np.all(np.isfinite(val)):
            return False
        dev0 = np.linalg.norm(val - Z, axis=-1)
        dev1 = np.linalg.norm((jac - np.eye(2)).reshape(jac.shape[:-2] + (4,)), axis=-1)
        dev2 = np.linalg.norm(hess.reshape(hess.shape[:-3] + (8,)), axis=-1)
        slack = 1e-9
        if np.any(dev0[mask] > c0 * rr[mask] ** 2 / r + slack):
            return False
        if np.any(dev1[mask] > c0 * rr[mask] / r + slack):
            return False
        if np.any(dev2 > c0 / r + slack):
            return False
        # inverse on the ball B_r(0): Newton inversion must converge with the
        # same closeness bounds
        th = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        radii = np.linspace(0.2 * r, 0.98 * r, 5)
        for rad in radii:
            targets = rad * np.stack([np.cos(th), np.sin(th)], axis=-1)
            try:
                q = self.invert(targets)
            except ChartFailure:
                return False
            dev = np.linalg.norm(q - targets, axis=-1)
            if np.any(dev > c0 * rad ** 2 / r + slack):
                return False
        return True


def measured_c1(S: Barrier, n_base=8, n_probe=24, seed=0):
    """Empirical constant in |y~ - refl(y)| <= c1 |y - zeta(x)|^2 / r_S.

    Flat barriers reflect exactly, so the measured value is floored at 2.0,
    which also keeps the admissible cutoff radius kappa <= r_S / c1 safely
    inside the reach tube for curved barriers.
    """
    floor = 2.0
    if S.is_flat():
        return floor
    rng = np.random.default_rng(seed)
    bases = S.boundary_samples(n_base)
    worst = 0.0
    for b in bases:
        r_s = S.reflection_regularity_scale(b)
        refl = S.affine_reflection(b)
        t = S.tangent(b)
        n = S.normal(b)
        for _ in range(n_probe):
            xi = rng.uniform(-0.5, 0.5) * r_s
            eta = rng.uniform(-0.5, 0.5) * r_s
            y = b + xi * t + eta * n
            if S.distance(y) >= 0.9 * S.reach:
                continue
            dev = np.linalg.norm(S.reflect_point(y) - refl(y))
            d2 = np.sum((y - b) ** 2)
            if d2 > 1e-12 * r_s ** 2:
                worst = max(worst, dev * r_s / d2)
    return max(floor, 1.5 * worst)
