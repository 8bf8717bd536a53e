"""Planar barrier curves: distance, projection, reflection, and regularity scales.

A barrier is an embedded oriented curve S in the plane.  The orienting unit
normal ``nu_S`` always points *out of* the closed admissible side Omega.  All
queries (distance ``d``, nearest-point projection ``zeta``, point reflection
``x~ = 2 zeta(x) - x``, vector reflection) are closed form for lines and
circles and Newton-based for generic parametric curves.

Two quantitative scales are attached to every barrier point:

* ``regularity_scale(y, k)`` -- the largest radius at which S is a graph
  over its tangent line with scale-invariant C^k bounds <= 1;
* ``reflection_regularity_scale(y)`` -- the largest radius at which the
  tangent-straightening map Phi and its inverse stay quantitatively close to
  the identity (with an empirically measured constant).

Flat barriers have infinite scales; they are reported as a configurable cap.

Barriers are immutable values: the constructor stores array attributes as
read-only copies, assigning an attribute afterwards raises, and
``transformed`` returns a new barrier.  What depends on S alone -- the
global reflection scale r_S, the reflection constant c1 of ``measured_c1``
and a parametric barrier's k-d tree over its table -- is therefore built
once per barrier and kept on it.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass

import numpy as np

from .errors import BeyondReach, ChartFailure

FLAT_SCALE_CAP = 1e6


def norm2_sq(v):
    """|v|^2 over a last axis of length 2, taken componentwise: the bits of
    ``np.sum(v ** 2, axis=-1)`` without numpy's strided reduction."""
    return v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1]


def norm2(v):
    """|v| over a last axis of length 2: the bits of
    ``np.linalg.norm(v, axis=-1)``, several times faster on short arrays."""
    return np.sqrt(norm2_sq(v))


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
    """Common query interface; subclasses provide ``project`` and ``normal``.

    Every point query takes one point ``(2,)`` or an array ``(..., 2)`` and
    runs the same elementwise arithmetic on either, so a point's result has
    the same bits whichever batch it is queried in.  Norms and sums of
    squares over the coordinate axis are taken componentwise (``norm2``),
    which gives the bits of numpy's reduction because a square is never
    -0.0.  A dot product keeps the reduction it has (``np.sum`` or
    ``np.vecdot``): numpy's reduction turns (-0.0) + (-0.0) into +0.0 and
    a componentwise sum does not, so rewriting one would change bits.

    A value: subclass constructors set attributes through ``_init`` and
    nothing can be assigned afterwards, so scales measured from the barrier
    stay valid and are kept on the instance (``_measured``).  A copy or an
    unpickled barrier restores its state through ``_init`` too, so its
    arrays are read-only as well.
    """

    reach: float = np.inf
    scale_cap: float = FLAT_SCALE_CAP

    def _init(self, **attrs):
        """Set attributes from a constructor; arrays become read-only copies."""
        for name, value in attrs.items():
            if isinstance(value, np.ndarray):
                value = value.copy()
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __setstate__(self, state):
        self._init(**state)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(
            f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise FrozenInstanceError(
            f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def _measured(self, key, measure):
        """measure(), run on the first call with this key and then kept."""
        memo = self.__dict__.setdefault("_memo", {})
        if key not in memo:
            memo[key] = measure()
        return memo[key]

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

    def magnitude(self):
        """Size of the numbers that define the barrier, which sets the
        rounding of its depths together with the query's coordinates."""
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
        x = np.asarray(x, dtype=float)
        return norm2(x - self.project(x))

    def tangent(self, y):
        n = self.normal(y)
        return np.stack([-n[..., 1], n[..., 0]], axis=-1)

    def _check_reach(self, pts, feet):
        if self.reach == np.inf and \
                np.abs(pts - feet).max(initial=0.0) < 1e150:
            return  # d cannot overflow to the infinite reach
        d = norm2(pts - feet)
        if np.any(d >= self.reach * (1.0 - 1e-12)):
            raise BeyondReach(
                f"point at distance {d.max():.6g} outside the reach tube "
                f"(reach {self.reach:.6g})")

    def reflect_point(self, x):
        """Mirror image x~ = 2 zeta(x) - x across the barrier."""
        x = np.asarray(x, dtype=float)
        feet = self.project(x)
        self._check_reach(x, feet)
        return 2.0 * feet - x

    def reflect_vector(self, x, v):
        """Linear reflection of v across the tangent line at zeta(x)."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        self._check_reach(x, self.project(x))
        n = self.normal(x)
        return v - 2.0 * np.sum(v * n, axis=-1, keepdims=True) * n

    def distance_gradient(self, x):
        """Gradient of the (unsigned) distance: (x - zeta(x)) / d(x)."""
        x = np.asarray(x, dtype=float)
        rel = x - self.project(x)
        d = norm2(rel)[..., None]
        return rel / np.maximum(d, 1e-300)

    def distance_hessian(self, x):
        """Hessian of the distance, by central differences of the gradient
        with the step 1e-6 max(1, |x|_inf) taken point by point."""
        x = np.asarray(x, dtype=float)
        h = 1e-6 * np.maximum(1.0, np.abs(x).max(axis=-1))[..., None]
        out = np.empty(x.shape + (2,))
        for k, ek in enumerate(np.eye(2)):
            gp = self.distance_gradient(x + h * ek)
            gm = self.distance_gradient(x - h * ek)
            out[..., k] = (gp - gm) / (2.0 * h)
        return 0.5 * (out + np.swapaxes(out, -1, -2))

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
            y = np.asarray(y, dtype=float)
            # vecdot takes one dot per point, so no point's bits depend on
            # the batch (a matrix product would)
            return y - 2.0 * np.vecdot(y - foot, n)[..., None] * n

        return refl

    # -- regularity scales ---------------------------------------------------

    def inverse_projection(self, y) -> "InverseProjection":
        """Tangent-straightening map Phi at a point y on S."""
        return InverseProjection(self.local_chart(y))

    def regularity_scale(self, y, k):
        """Largest r at which S is a graph over T_y S with C^k bounds <= 1.

        The chart plane is pinned to the tangent line at y, so the result is
        a (possibly strict) lower bound for the optimal-plane scale.  The
        search is a bisection over sampled graph-fit certificates to a
        relative resolution of 1e-3.
        """
        if k > 3:
            raise ChartFailure("graph certificates are implemented for k <= 3")
        if self.is_flat():
            return self.scale_cap
        chart = self.local_chart(y)
        samples = self.boundary_samples(512)

        def ok(r):
            return self._graph_certificate(chart, samples, r, k)

        return _bisect_scale(ok, hi=self.scale_cap)

    def reflection_regularity_scale(self, y):
        """Largest radius (<= the C^3 scale) with quantified straightening bounds.

        The closeness constant is measured on the C^3-scale box and the
        certificate then demands the bounds with ten times that constant, so
        the returned radius is conservative whenever the fit degrades.
        """
        if self.is_flat():
            return self.scale_cap
        rho = self.regularity_scale(y, 3)
        phi = self.inverse_projection(y)
        c0 = 10.0 * max(phi.measured_constant(rho), 1e-12)

        def ok(r):
            return phi.certificate(r, c0) and r <= rho * (1 + 1e-12)

        return _bisect_scale(ok, hi=rho)

    def global_reflection_scale(self, n_samples=16):
        """inf over sampled barrier points of the reflection regularity scale,
        measured once per ``n_samples``."""
        if self.is_flat():
            return self.scale_cap
        return self._measured(("r_S", n_samples), lambda: min(
            self.reflection_regularity_scale(p)
            for p in self.boundary_samples(n_samples)))

    def is_flat(self):
        return False

    # certificate shared by all barriers
    def _graph_certificate(self, chart, samples, r, k):
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


def _bisect_scale(ok, hi):
    """Largest r <= hi passing ``ok``, found by bracketing plus bisection
    to a relative resolution of 1e-3."""
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
    while not ok(up) and (up - lo) > 1e-3 * lo:
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
        if n.shape != (2,):
            raise ValueError(f"line normal must be 2 numbers, got {normal}")
        with np.errstate(over="ignore"):  # an overflow is reported below
            norm = np.linalg.norm(n)
        if not 0.0 < norm < np.inf:
            raise ValueError("line normal must be nonzero with a finite "
                             "length")
        offset = float(offset) / norm
        if not np.isfinite([offset, scale_cap]).all():
            raise ValueError("line offset and scale_cap must be finite")
        self._init(nu=n / norm, offset=offset, scale_cap=float(scale_cap),
                   reach=np.inf)

    def is_flat(self):
        return True

    def _height(self, pts):
        """nu . x point by point, elementwise so a point's bits do not depend
        on how many points share the call (a BLAS product would)."""
        return pts[..., 0] * self.nu[0] + pts[..., 1] * self.nu[1]

    def project(self, x):
        x = np.asarray(x, dtype=float)
        s = self._height(x) - self.offset
        return x - s[..., None] * self.nu

    def normal(self, x):
        return np.broadcast_to(self.nu, np.shape(x)).copy()

    def omega_signed(self, x):
        return self.offset - self._height(np.asarray(x, dtype=float))

    def magnitude(self):
        return abs(self.offset)

    def distance_hessian(self, x):
        return np.zeros(np.shape(x) + (2,))

    def local_chart(self, y):
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
        if not 0 < radius < np.inf:
            raise ValueError("circle radius must be positive and finite")
        center = np.asarray(center, dtype=float)
        if center.shape != (2,) or not np.isfinite(center).all():
            raise ValueError(f"circle center must be 2 finite numbers, got "
                             f"{center}")
        if omega_side not in ("inside", "outside"):
            raise ValueError("omega_side must be 'inside' or 'outside'")
        self._init(center=center, radius=float(radius),
                   omega_side=omega_side, reach=float(radius))

    def _radial(self, x):
        rel = np.asarray(x, dtype=float) - self.center
        rr = norm2(rel)
        if np.any(rr < 1e-14 * self.radius):
            raise BeyondReach("projection from the circle center is not unique")
        return rel, rr

    def project(self, x):
        rel, rr = self._radial(x)
        return self.center + rel * (self.radius / rr)[..., None]

    def normal(self, x):
        rel, rr = self._radial(x)
        out = rel / rr[..., None]
        if self.omega_side == "outside":
            out = -out
        return out

    def omega_signed(self, x):
        rr = norm2(np.asarray(x, dtype=float) - self.center)
        return self.radius - rr if self.omega_side == "inside" else rr - self.radius

    def magnitude(self):
        return float(norm2(self.center)) + self.radius

    def distance_hessian(self, x):
        rel, rr = self._radial(x)
        rhat = rel / rr[..., None]
        proj = np.eye(2) - rhat[..., :, None] * rhat[..., None, :]
        sign = np.where(rr >= self.radius, 1.0, -1.0)
        return sign[..., None, None] * proj / rr[..., None, None]

    def local_chart(self, y):
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

    The table stores ``gamma(theta)`` on a uniform closed parameter grid; the
    first and second derivatives there only give the curvature for the
    reach.  Projection runs Newton iteration on the squared distance,
    multistarted from the eight nearest table samples; when analytic
    callables ``funcs = (f, df, ddf)`` are supplied they are used for the
    Newton evaluations, otherwise a periodic cubic spline through the table
    is used.  The callables act on whole arrays: given parameters
    ``theta`` of any shape they return ``gamma``, ``gamma'`` and ``gamma''``
    with shape ``(2,) + theta.shape``, x components first.

    The reach is estimated as ``min(1/max curvature, min self-distance / 2)``.
    """

    def __init__(self, points, funcs=None, omega_side="inside"):
        from scipy.interpolate import CubicSpline

        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2 or len(points) < 8:
            raise ValueError(f"parametric barrier points must be (m, 2) with "
                             f"m >= 8, got shape {points.shape}")
        m = len(points)
        if omega_side not in ("inside", "outside"):
            raise ValueError("omega_side must be 'inside' or 'outside'")
        if not np.isfinite(points).all():
            raise ValueError("parametric barrier points must be finite")
        theta = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
        if funcs is None:
            th_closed = np.concatenate([theta, [2.0 * np.pi]])
            pts_closed = np.vstack([points, points[:1]])
            spl = CubicSpline(th_closed, pts_closed.T, axis=1, bc_type="periodic")
            funcs = (spl, spl.derivative(1), spl.derivative(2))
        f, df, ddf = funcs
        d1 = np.asarray(df(theta), dtype=float).T
        d2 = np.asarray(ddf(theta), dtype=float).T

        speed = norm2(d1)
        cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        kappa = np.abs(cross) / np.maximum(speed, 1e-300) ** 3
        orientation = np.sign(np.sum(cross))  # >0 for counterclockwise
        self._init(points=points, theta=theta, omega_side=omega_side,
                   _f=f, _df=df, _ddf=ddf, _orientation=orientation)
        reach_curv = 1.0 / max(kappa.max(), 1e-300)
        self._init(reach=min(reach_curv, 0.5 * self._min_self_distance()))

    @classmethod
    def from_function(cls, f, df, ddf, n_samples=256):
        th = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
        return cls(np.asarray(f(th), dtype=float).T, funcs=(f, df, ddf))

    def _min_self_distance(self):
        """Narrowest bottleneck: pairs far apart along the curve but close in space."""
        pts = self.points
        m = len(pts)
        d = norm2(pts[:, None, :] - pts[None, :, :])
        idx = np.arange(m)
        sep = np.minimum(np.abs(idx[:, None] - idx[None, :]),
                         m - np.abs(idx[:, None] - idx[None, :]))
        edge = norm2(np.roll(pts, -1, axis=0) - pts)
        arc = edge.mean() * sep
        # a convex arc has arc/chord <= pi/2; ratios beyond 3 flag a true neck
        mask = (sep > 0) & (arc > 3.0 * np.maximum(d, 1e-300))
        return d[mask].min() if np.any(mask) else np.inf

    def _foot_parameter(self, pts):
        """Foot parameters (...) and feet (..., 2) of points (..., 2): Newton
        on the squared distance from the eight nearest table samples of each
        point, all starts in lockstep; a start stops once its step is below
        1e-14, and the closest of a point's eight results wins."""
        from scipy.spatial import cKDTree

        shape = np.shape(pts)[:-1]
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        # the k-d tree over the table is built on first use and kept
        tree = self._measured("sample_tree", lambda: cKDTree(self.points))
        th = self.theta[tree.query(pts, 8)[1]].ravel()
        x = np.repeat(pts, 8, axis=0).T
        active = np.arange(len(th))
        for _ in range(60):
            if not len(active):
                break
            a = th[active]
            g, dg, ddg = self._f(a), self._df(a), self._ddf(a)
            rel = g - x[:, active]
            grad = _dot2(rel, dg)
            speed2 = _dot2(dg, dg)
            hess = speed2 + _dot2(rel, ddg)
            step = -grad / np.where(hess <= 0, np.maximum(speed2, 1e-300), hess)
            step = np.clip(step, -0.5, 0.5)
            th[active] = a + step
            active = active[np.abs(step) >= 1e-14]
        g = np.asarray(self._f(th), dtype=float)
        best = np.argmin(np.sum((g - x) ** 2, axis=0).reshape(-1, 8), axis=1)
        best += 8 * np.arange(len(pts))
        return ((th[best] % (2.0 * np.pi)).reshape(shape),
                g[:, best].T.reshape(shape + (2,)))

    def _normal_at(self, th):
        """nu_S at parameters th, shaped th.shape + (2,)."""
        dg = np.asarray(self._df(th), dtype=float)
        t = dg / np.sqrt(_dot2(dg, dg))
        # outward of a counterclockwise curve is (t_y, -t_x)
        sign = self._orientation if self.omega_side == "inside" \
            else -self._orientation
        return sign * np.stack([t[1], -t[0]], axis=-1)

    def project(self, x):
        return self._foot_parameter(x)[1]

    def normal(self, x):
        return self._normal_at(self._foot_parameter(x)[0])

    def omega_signed(self, x):
        th, feet = self._foot_parameter(x)
        rel, n = feet - x, self._normal_at(th)
        return rel[..., 0] * n[..., 0] + rel[..., 1] * n[..., 1]

    def magnitude(self):
        return float(np.abs(self.points).max())

    def local_chart(self, y):
        th0, base = self._foot_parameter(y)
        n = self._normal_at(th0)
        t = np.array([-n[1], n[0]])

        def theta_for(xi):
            """Parameters with tangential coordinates xi, by a masked Newton
            iteration from th0 run on all of them at once."""
            target = np.asarray(xi, dtype=float)
            flat = target.ravel()
            th = np.full(flat.size, th0)
            active = np.arange(flat.size)
            for _ in range(60):
                if not len(active):
                    break
                a = th[active]
                g, dg = self._f(a), self._df(a)
                val = _dot2(g - base[:, None], t) - flat[active]
                der = _dot2(dg, t)
                if np.any(np.abs(der) < 1e-14):
                    raise ChartFailure("tangential coordinate fold-over")
                step = -val / der
                th[active] = a + np.clip(step, -0.5, 0.5)
                active = active[np.abs(step) >= 1e-14]
            if len(active):
                raise ChartFailure("chart parameter iteration did not converge")
            return th.reshape(target.shape)

        def u(xi):
            g = np.asarray(self._f(theta_for(xi)), dtype=float)
            return _dot2((g.T - base).T, n)

        def du(xi):
            dg = np.asarray(self._df(theta_for(xi)), dtype=float)
            return _dot2(dg, n) / _dot2(dg, t)

        def d2u(xi):
            th = theta_for(xi)
            dg = np.asarray(self._df(th), dtype=float)
            ddg = np.asarray(self._ddf(th), dtype=float)
            xp, ep = _dot2(dg, t), _dot2(dg, n)
            xpp, epp = _dot2(ddg, t), _dot2(ddg, n)
            return (epp * xp - ep * xpp) / xp ** 3

        # halfwidth: where the tangential speed dg.t stays bounded away from 0
        hw = self.reach
        return LocalChart(base, t, n, u, du, d2u, halfwidth=hw)

    def boundary_samples(self, n):
        th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return np.asarray(self._f(th), dtype=float).T

    def transformed(self, center, scale):
        center = np.asarray(center, dtype=float)
        f, df, ddf = self._f, self._df, self._ddf
        funcs = (lambda t: (np.asarray(f(t)).T - center).T / scale,
                 lambda t: np.asarray(df(t)) / scale,
                 lambda t: np.asarray(ddf(t)) / scale)
        return ParametricBarrier((self.points - center) / scale, funcs=funcs,
                                 omega_side=self.omega_side)


def _dot2(a, b):
    """a . b over a leading axis of length 2 (elementwise, so each entry's
    bits do not depend on how many share the call)."""
    return a[0] * b[0] + a[1] * b[1]


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

    def invert(self, z):
        """Newton inversion of Phi at a local-coordinate target z, to 1e-12."""
        z = np.asarray(z, dtype=float)
        q = z.copy()
        for _ in range(60):
            val = self.evaluate(q[..., 0], q[..., 1])
            res = val - z
            if np.max(np.abs(res)) < 1e-12:
                return q
            jac = self.jacobian(q[..., 0], q[..., 1])
            try:
                step = np.linalg.solve(jac, res[..., None])[..., 0]
            except np.linalg.LinAlgError:
                raise ChartFailure("straightening map not invertible at sample")
            q = q - step
        raise ChartFailure("Newton inversion of the straightening map stalled")

    def measured_constant(self, rho):
        """Empirical constant c with |Phi-Id| <= c|z|^2/rho etc. on a 17 x 17
        grid over the rho-box."""
        xi = np.linspace(-rho, rho, 17)
        s = np.linspace(-rho, rho, 17)
        XI, S = np.meshgrid(xi, s, indexing="ij")
        Z = np.stack([XI, S], axis=-1)
        r = norm2(Z)
        mask = r > 1e-9 * rho
        val = self.evaluate(XI, S)
        jac = self.jacobian(XI, S)
        hess = self.second_derivative(XI, S, h=1e-6 * rho)
        c = 0.0
        dev0 = norm2(val - Z)
        c = max(c, np.max(dev0[mask] * rho / r[mask] ** 2))
        dev1 = np.linalg.norm((jac - np.eye(2)).reshape(jac.shape[:-2] + (4,)), axis=-1)
        c = max(c, np.max(dev1[mask] * rho / r[mask]))
        dev2 = np.linalg.norm(hess.reshape(hess.shape[:-3] + (8,)), axis=-1)
        c = max(c, np.max(dev2) * rho)
        return float(c)

    def certificate(self, r, c0):
        """Conditions on Phi (13 x 13 box grid) and Phi^{-1} (ball) at scale r
        with constant c0."""
        xi = np.linspace(-r, r, 13)
        s = np.linspace(-r, r, 13)
        XI, S = np.meshgrid(xi, s, indexing="ij")
        Z = np.stack([XI, S], axis=-1)
        rr = norm2(Z)
        mask = rr > 1e-9 * r
        try:
            val = self.evaluate(XI, S)
            jac = self.jacobian(XI, S)
            hess = self.second_derivative(XI, S, h=1e-6 * r)
        except (ChartFailure, FloatingPointError):
            return False
        if not np.all(np.isfinite(val)):
            return False
        dev0 = norm2(val - Z)
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
            dev = norm2(q - targets)
            if np.any(dev > c0 * rad ** 2 / r + slack):
                return False
        return True


def measured_c1(S: Barrier):
    """Empirical constant in |y~ - refl(y)| <= c1 |y - zeta(x)|^2 / r_S,
    probed at 24 seeded points around each of 8 barrier samples; measured
    once per barrier.

    Flat barriers reflect exactly, so the measured value is floored at 2.0,
    which also keeps the admissible cutoff radius kappa <= r_S / c1 safely
    inside the reach tube for curved barriers.
    """
    floor = 2.0
    if S.is_flat():
        return floor

    def measure():
        rng = np.random.default_rng(0)
        worst = 0.0
        for b in S.boundary_samples(8):
            r_s = S.reflection_regularity_scale(b)
            refl = S.affine_reflection(b)
            t = S.tangent(b)
            n = S.normal(b)
            for _ in range(24):
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

    return S._measured("c1", measure)
