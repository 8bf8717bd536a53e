"""Discrete integral 1-varifolds: first variation, free-boundary certification,
reflection doubling, and the two-radius boundary monotonicity identity.

A varifold here is a weighted collection of straight segments (usually the
edges of one or more polylines, with integer multiplicities).  Its first
variation against a C^1 field X is

    delta V(X) = sum_segments  mult * int_segment <D_e X, e> dl,

computed by fixed-order Gauss-Legendre quadrature per segment
(``segment_quadrature``, which density integrals and the flow's dissipation
check share).  The polyline type ``Component`` is the same one the flow
evolves, so a flow slice is a varifold without conversion.  The atomic
decomposition of delta V -- turning vectors at interior vertices, conormals
at chain endpoints -- is what the boundary monotonicity identity pairs
against, which makes that identity exact for polylines up to quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .barrier import Barrier, Line
from .errors import IllConditionedFit

_GL_CACHE = {}


def segment_quadrature(starts, ends, order):
    """Gauss-Legendre nodes of the given order on every segment.

    Returns (points, lengths, weights) with points shaped (segments, order, 2);
    the integral of f over segment k is 0.5 * lengths[k] * (f(points[k]) @ weights).
    """
    if order not in _GL_CACHE:
        _GL_CACHE[order] = leggauss(order)
    nodes, weights = _GL_CACHE[order]
    d = ends - starts
    s = 0.5 * (nodes + 1.0)
    return (starts[:, None, :] + s[None, :, None] * d[:, None, :],
            np.linalg.norm(d, axis=1), weights)


def _read_only_copy(a, dtype):
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Component:
    """One polyline: positions, closed flag, per-vertex barrier flags and an
    integer multiplicity.  Closed polylines wrap around.

    A value: ``points`` and ``on_s`` are read-only copies of what the
    constructor was given, so a component can be shared between states and
    its segment lengths are measured once.
    """

    points: np.ndarray
    closed: bool = False
    on_s: np.ndarray = None  # type: ignore[assignment]
    multiplicity: int = 1
    _lengths: np.ndarray = field(default=None, init=False, repr=False,
                                 compare=False)

    def __post_init__(self):
        points = _read_only_copy(self.points, float)
        on_s = np.zeros(len(points), dtype=bool) if self.on_s is None \
            else self.on_s
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "on_s", _read_only_copy(on_s, bool))

    def segments(self):
        """(starts, ends) of every segment."""
        if self.closed:
            return self.points, np.roll(self.points, -1, axis=0)
        return self.points[:-1], self.points[1:]

    def segment_lengths(self):
        """Length of every segment (read-only, computed on first use)."""
        if self._lengths is None:
            starts, ends = self.segments()
            lengths = np.linalg.norm(ends - starts, axis=1)
            lengths.flags.writeable = False
            object.__setattr__(self, "_lengths", lengths)
        return self._lengths

    def length(self):
        return float(self.segment_lengths().sum())


class DiscreteVarifold:
    """Integral 1-varifold backed by polyline components."""

    def __init__(self, chains):
        self.chains = list(chains)
        for c in self.chains:
            if c.multiplicity < 1 or c.multiplicity != int(c.multiplicity):
                raise ValueError("multiplicities must be positive integers")
            if np.any(c.segment_lengths() <= 0.0):
                raise ValueError("degenerate (zero length) segment")

    @classmethod
    def from_polyline(cls, points, closed=False, multiplicity=1):
        return cls([Component(points, closed, multiplicity=multiplicity)])

    @property
    def total_mass(self):
        return sum(c.multiplicity * c.segment_lengths().sum() for c in self.chains)

    def segments(self):
        """(starts, ends, mults) stacked over all chains."""
        segs = [c.segments() for c in self.chains]
        mult = np.concatenate([np.full(len(a), c.multiplicity)
                               for (a, _), c in zip(segs, self.chains)])
        return (np.vstack([a for a, _ in segs]), np.vstack([b for _, b in segs]),
                mult)

    def atoms(self):
        """Atomic first-variation data.

        Returns (positions, vectors) with delta V(X) = - sum vectors . X(pos):
        interior turning vectors e_next - e_prev and, at open-chain endpoints,
        minus the outward conormal.
        """
        pos, vec = [], []
        for c in self.chains:
            starts, ends = c.segments()
            d = ends - starts
            e = d / np.linalg.norm(d, axis=1, keepdims=True)
            m = c.multiplicity
            if c.closed:
                k = e - np.roll(e, 1, axis=0)
                pos.append(c.points)
                vec.append(m * k)
            else:
                if len(c.points) > 2:
                    k = e[1:] - e[:-1]
                    pos.append(c.points[1:-1])
                    vec.append(m * k)
                # endpoint atoms are minus the outward conormal (times mult)
                pos.append(c.points[:1])
                vec.append(m * e[:1])
                pos.append(c.points[-1:])
                vec.append(-m * e[-1:])
        return np.vstack(pos), np.vstack(vec)

    def ball_mass(self, center, r):
        """mu_V(B_r(center)) from exact chord-ball clipping."""
        starts, ends, mult = self.segments()
        center = np.asarray(center, dtype=float)
        a = starts - center
        d = ends - starts
        L = np.linalg.norm(d, axis=1)
        # |a + s d|^2 = r^2 solved for s in [0, 1]
        A = np.sum(d * d, axis=1)
        Bq = 2.0 * np.sum(a * d, axis=1)
        C = np.sum(a * a, axis=1) - r * r
        disc = Bq * Bq - 4.0 * A * C
        inside = np.zeros(len(L))
        pos = disc > 0
        s1 = np.full(len(L), np.inf)
        s2 = np.full(len(L), -np.inf)
        s1[pos] = (-Bq[pos] - np.sqrt(disc[pos])) / (2.0 * A[pos])
        s2[pos] = (-Bq[pos] + np.sqrt(disc[pos])) / (2.0 * A[pos])
        lo = np.clip(s1, 0.0, 1.0)
        hi = np.clip(s2, 0.0, 1.0)
        inside[pos] = np.maximum(hi[pos] - lo[pos], 0.0)
        return float(np.sum(mult * inside * L))


@dataclass
class FreeBoundaryReport:
    is_free_boundary: bool
    residual: float
    tol: float
    fitted_curvature: np.ndarray  # per-segment tangential curvature vector
    field_count: int


def first_variation(V: DiscreteVarifold, X, order=8, refine_tol=1e-10):
    """delta V(X) = int div_V X dmu by per-segment Gauss-Legendre quadrature.

    The order is doubled once and the refinement accepted when two successive
    evaluations agree to ``refine_tol`` relative to the mass.
    """
    val = _first_variation_at_order(V, X, order)
    val2 = _first_variation_at_order(V, X, 2 * order)
    if abs(val2 - val) > refine_tol * (1.0 + V.total_mass):
        val3 = _first_variation_at_order(V, X, 4 * order)
        return val3
    return val2


def _first_variation_at_order(V, X, order):
    starts, ends, mult = V.segments()
    pts, L, weights = segment_quadrature(starts, ends, order)
    e = (ends - starts) / L[:, None]
    jac = X.jacobian(pts.reshape(-1, 2)).reshape(len(L), order, 2, 2)
    div = np.einsum("ka,kqab,kb->kq", e, jac, e)
    integrals = 0.5 * L * (div @ weights)
    return float(np.sum(mult * integrals))


def certify_free_boundary(V: DiscreteVarifold, S: Barrier, fields, tol=None,
                          order=8, rcond=1e-3):
    """Least-squares recovery of a per-segment tangential curvature vector.

    Solves delta V(X_f) = - sum_j mult_j  H_j . int_{seg_j} X_f dl  for the
    piecewise-constant field H and reports the worst per-field residual,
    normalized by 1 + |X_f|_C1.  A varifold with free boundary in S is one
    the fit can explain: conormal atoms that are not barrier-normal leave a
    residual no segment-constant field can absorb.

    Singular directions the family senses at below ``rcond`` of the leading
    scale are excluded from the fit (they carry no information and would
    otherwise amplify quadrature noise into the recovered curvature).
    """
    if tol is None:
        tol = 1e-6 * V.total_mass
    starts, ends, mult = V.segments()
    pts, L, weights = segment_quadrature(starts, ends, order)
    nseg = len(L)
    pts = pts.reshape(-1, 2)

    A = np.empty((len(fields), 2 * nseg))
    b = np.empty(len(fields))
    norms = np.empty(len(fields))
    for i, X in enumerate(fields):
        vals = X.value(pts).reshape(nseg, order, 2)
        seg_int = 0.5 * L[:, None] * np.einsum("kqc,q->kc", vals, weights)
        A[i] = (-mult[:, None] * seg_int).reshape(-1)
        b[i] = first_variation(V, X, order=order)
        norms[i] = X.c1_norm(pts)

    rank = np.linalg.matrix_rank(A, tol=1e-12 * max(1.0, np.abs(A).max()))
    if rank < min(len(fields), 2 * nseg) // 4 + 1:
        raise IllConditionedFit("tangential test family is degenerate")

    h, *_ = np.linalg.lstsq(A, b, rcond=rcond)
    res = np.abs(A @ h - b) / (1.0 + norms)
    return FreeBoundaryReport(
        is_free_boundary=bool(res.max() < tol),
        residual=float(res.max()),
        tol=float(tol),
        fitted_curvature=h.reshape(nseg, 2),
        field_count=len(fields))


def reflect_varifold(V: DiscreteVarifold, P: Line):
    """V + (mirror of V across the line P); multiplicities unchanged."""
    chains = list(V.chains)
    for c in V.chains:
        mirrored = P.reflect_point(c.points)
        chains.append(Component(np.atleast_2d(mirrored), c.closed,
                                multiplicity=c.multiplicity))
    return DiscreteVarifold(chains)


# -- scalar fields and the boundary monotonicity identity ----------------------

class ScalarField:
    """Scalar test function with an exact gradient."""

    def __init__(self, value, grad):
        self._value = value
        self._grad = grad

    def value(self, pts):
        return self._value(np.atleast_2d(np.asarray(pts, dtype=float)))

    def grad(self, pts):
        return self._grad(np.atleast_2d(np.asarray(pts, dtype=float)))

    @classmethod
    def one(cls):
        return cls(lambda p: np.ones(len(p)), lambda p: np.zeros_like(p))


def boundary_monotonicity_check(V: DiscreteVarifold, S: Barrier, h: ScalarField,
                                sigma, tau, order=32):
    """Residual of the two-radius identity for the barrier-distance tube.

    For 0 < tau < sigma <= r_S the weighted tube masses at the two radii
    differ by a shell integral; both sides pair the atomic first variation of
    the polyline against the tube field, so for a genuinely free-boundary
    polyline the residual is quadrature-level.  Segments are split where they
    cross the tube boundaries.
    """
    if not (0.0 < tau < sigma):
        raise ValueError("need 0 < tau < sigma")

    def tube_terms(rho):
        """(int_{B_rho(S)} h |D^T d|^2 dmu, nu(B_rho(S)) smooth part)."""
        main = 0.0
        nu_smooth = 0.0
        starts, ends, mult = V.segments()
        for p0, p1, m in zip(starts, ends, mult):
            for q0, q1 in _split_segment_by_tube(S, p0, p1, (rho,)):
                mid_d = S.distance(0.5 * (q0 + q1))
                if mid_d >= rho:
                    continue
                a_main, a_nu, _ = _segment_tube_integrals(S, h, q0, q1, order)
                main += m * a_main
                nu_smooth += m * a_nu
        return main, nu_smooth

    def atomic_nu(rho):
        pos, vec = V.atoms()
        dd = np.atleast_1d(S.distance(pos))
        total = 0.0
        for p, v, dv in zip(pos, vec, dd):
            if dv < rho and dv > 0:
                grad_d = (p - S.project(p)) / dv
                total += float(h.value(p)[0]) * dv * float(v @ grad_d)
        return total

    main_s, nu_s = tube_terms(sigma)
    main_t, nu_t = tube_terms(tau)
    lhs = (main_s + nu_s + atomic_nu(sigma)) / sigma \
        - (main_t + nu_t + atomic_nu(tau)) / tau

    # shell integral: same integrands without the d factor
    rhs = 0.0
    starts, ends, mult = V.segments()
    for p0, p1, m in zip(starts, ends, mult):
        for q0, q1 in _split_segment_by_tube(S, p0, p1, (tau, sigma)):
            mid_d = S.distance(0.5 * (q0 + q1))
            if not (tau < mid_d < sigma):
                continue
            rhs += m * _segment_tube_integrals(S, h, q0, q1, order)[2]
    pos, vec = V.atoms()
    dd = np.atleast_1d(S.distance(pos))
    for p, v, dv in zip(pos, vec, dd):
        if tau < dv < sigma:
            grad_d = (p - S.project(p)) / dv
            rhs += float(h.value(p)[0]) * float(v @ grad_d)

    return abs(lhs - rhs)


def _split_segment_by_tube(S, p0, p1, radii, n_scan=64):
    """Split [p0, p1] at distance-level crossings of the given radii."""
    ts = np.linspace(0.0, 1.0, n_scan + 1)
    pts = p0[None, :] + ts[:, None] * (p1 - p0)[None, :]
    d = np.atleast_1d(S.distance(pts))
    L = np.linalg.norm(p1 - p0)
    cuts = [0.0, 1.0]
    for rho in radii:
        g = d - rho
        exact = np.nonzero(np.abs(g) <= 1e-14 * max(rho, L))[0]
        cuts.extend(ts[exact])
        sign_change = np.nonzero(g[:-1] * g[1:] < 0)[0]
        for i in sign_change:
            lo, hi = ts[i], ts[i + 1]
            glo = g[i]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                val = S.distance(p0 + mid * (p1 - p0)) - rho
                if val == 0.0:
                    break
                if glo * val < 0:
                    hi = mid
                else:
                    lo, glo = mid, val
            cuts.append(0.5 * (lo + hi))
    cuts = np.unique(np.clip(cuts, 0.0, 1.0))
    return [(p0 + a * (p1 - p0), p0 + b * (p1 - p0))
            for a, b in zip(cuts[:-1], cuts[1:])]


def _segment_tube_integrals(S, h, q0, q1, order):
    """Integrals over [q0, q1] of h |D^T d|^2 (tube mass), of
    d (D_e h <D d, e> + h tr_e D^2 d) (smooth part of nu) and of
    D_e h <D d, e> + h tr_e D^2 d (shell integrand), in that order."""
    pts, L, weights = segment_quadrature(q0[None, :], q1[None, :], order)
    pts, L = pts[0], L[0]
    e = (q1 - q0) / L
    d = np.atleast_1d(S.distance(pts))
    feet = np.atleast_2d(S.project(pts))
    grad_d = (pts - feet) / np.maximum(d, 1e-300)[:, None]
    hess = S.distance_hessian(pts)
    hv = h.value(pts)
    hg = h.grad(pts)
    dtd = grad_d @ e
    main = hv * dtd ** 2
    tr_term = np.einsum("a,qab,b->q", e, hess, e)
    nu = d * (hg @ e) * dtd + hv * d * tr_term
    shell = (hg @ e) * dtd + hv * tr_term
    return tuple(0.5 * L * float(weights @ f) for f in (main, nu, shell))


# -- test fields ----------------------------------------------------------------

class TestField:
    """C^1 vector field with an exact Jacobian, vectorized over points."""

    def __init__(self, value, jacobian, label=""):
        self._value = value
        self._jacobian = jacobian
        self.label = label

    def value(self, pts):
        return self._value(np.atleast_2d(np.asarray(pts, dtype=float)))

    def jacobian(self, pts):
        return self._jacobian(np.atleast_2d(np.asarray(pts, dtype=float)))

    def c1_norm(self, pts):
        return float(np.abs(self.value(pts)).max()
                     + np.abs(self.jacobian(pts)).max())


class Poly2:
    """Bivariate polynomial with exact gradient, coefficients c[i, j] x^i y^j."""

    def __init__(self, coeffs):
        self.c = np.asarray(coeffs, dtype=float)

    def __call__(self, pts):
        x, y = pts[:, 0], pts[:, 1]
        out = np.zeros(len(pts))
        for i in range(self.c.shape[0]):
            for j in range(self.c.shape[1]):
                if self.c[i, j] != 0.0:
                    out += self.c[i, j] * x ** i * y ** j
        return out

    def grad(self, pts):
        x, y = pts[:, 0], pts[:, 1]
        gx = np.zeros(len(pts))
        gy = np.zeros(len(pts))
        for i in range(self.c.shape[0]):
            for j in range(self.c.shape[1]):
                if self.c[i, j] == 0.0:
                    continue
                if i > 0:
                    gx += i * self.c[i, j] * x ** (i - 1) * y ** j
                if j > 0:
                    gy += j * self.c[i, j] * x ** i * y ** (j - 1)
        return np.stack([gx, gy], axis=-1)


def polynomial_field(cx, cy, label="poly"):
    px, py = Poly2(cx), Poly2(cy)

    def value(pts):
        return np.stack([px(pts), py(pts)], axis=-1)

    def jacobian(pts):
        gx, gy = px.grad(pts), py.grad(pts)
        j = np.empty((len(pts), 2, 2))
        j[:, 0, :] = gx
        j[:, 1, :] = gy
        return j

    return TestField(value, jacobian, label)


def rotational_field(p: Poly2, center=(0.0, 0.0), label="rot"):
    """p(x) * rot90(x - center): tangent to every circle about the center."""
    c = np.asarray(center, dtype=float)
    R = np.array([[0.0, -1.0], [1.0, 0.0]])

    def value(pts):
        rel = pts - c
        rot = rel @ R.T
        return p(pts)[:, None] * rot

    def jacobian(pts):
        rel = pts - c
        rot = rel @ R.T
        g = p.grad(pts)
        return rot[:, :, None] * g[:, None, :] + p(pts)[:, None, None] * R

    return TestField(value, jacobian, label)


def vanishing_factor_field(S: Barrier, q: Poly2, direction, label="vanish"):
    """q(x) * omega_signed(x) * w: vanishes on S, so trivially tangential.

    The gradient of the signed depth is -nu_S(zeta(x)) (exact within the
    reach tube), which is all the Jacobian needs.
    """
    w = np.asarray(direction, dtype=float)

    def value(pts):
        g = np.atleast_1d(S.omega_signed(pts))
        return (q(pts) * g)[:, None] * w

    def jacobian(pts):
        g = np.atleast_1d(S.omega_signed(pts))
        grad_g = -np.atleast_2d(S.normal(pts))
        total = g[:, None] * q.grad(pts) + q(pts)[:, None] * grad_g
        return w[None, :, None] * total[:, None, :]

    return TestField(value, jacobian, label)


def line_tangential_field(P: Line, a: Poly2, b: Poly2, label="linefield"):
    """a(x) t + b(x) (nu.x - offset) nu: tangent to the line P on P."""
    nu = P.nu
    t = np.array([-nu[1], nu[0]])

    def lvl(pts):
        return pts @ nu - P.offset

    def value(pts):
        return a(pts)[:, None] * t + (b(pts) * lvl(pts))[:, None] * nu

    def jacobian(pts):
        ga = a.grad(pts)
        gb = b.grad(pts)
        term = lvl(pts)[:, None] * gb + b(pts)[:, None] * nu
        return t[None, :, None] * ga[:, None, :] + nu[None, :, None] * term[:, None, :]

    return TestField(value, jacobian, label)


def bump_window(center, width, power=3):
    """Smooth rational bell (1 + |x-c|^2/w^2)^(-power) with exact gradient.

    Smooth everywhere (no support kink), so per-segment Gauss-Legendre
    quadrature of windowed fields converges spectrally.
    """
    c = np.asarray(center, dtype=float)
    w2 = float(width) ** 2

    def val(pts):
        r2 = np.sum((pts - c) ** 2, axis=-1)
        return (1.0 + r2 / w2) ** (-power)

    def grad(pts):
        rel = pts - c
        r2 = np.sum(rel ** 2, axis=-1)
        return (-2.0 * power / w2) * ((1.0 + r2 / w2) ** (-power - 1.0))[:, None] * rel

    return val, grad


def windowed_field(X: TestField, center, width, label=None):
    """X multiplied by a compactly supported C^1 bump."""
    bval, bgrad = bump_window(center, width)

    def value(pts):
        return bval(pts)[:, None] * X.value(pts)

    def jacobian(pts):
        return (bval(pts)[:, None, None] * X.jacobian(pts)
                + X.value(pts)[:, :, None] * bgrad(pts)[:, None, :])

    return TestField(value, jacobian, label or (X.label + "*bump"))


def tangential_family(S: Barrier, n_fields=40, seed=0, max_degree=3,
                      window=None, region_center=(0.0, 0.0), region_radius=3.0,
                      localized_fraction=0.7):
    """A family of fields tangent to S with exact Jacobians.

    Lines get tangential/normal-split polynomial fields; circles get
    rotational fields plus fields vanishing on S; other barriers get the
    vanishing-factor family only.  Global polynomials alone span a
    low-dimensional space, so most fields are localized with randomly
    placed C^1 bump windows inside the region of interest; ``window =
    (center, width)`` instead pins one window for every field.
    """
    rng = np.random.default_rng(seed)
    fields = []
    rc = np.asarray(region_center, dtype=float)

    def rand_poly(deg):
        c = rng.uniform(-1.0, 1.0, (deg + 1, deg + 1))
        mask = np.add.outer(np.arange(deg + 1), np.arange(deg + 1)) <= deg
        return Poly2(np.where(mask, c, 0.0))

    while len(fields) < n_fields:
        deg = int(rng.integers(0, max_degree + 1))
        if isinstance(S, Line):
            X = line_tangential_field(S, rand_poly(deg), rand_poly(max(deg - 1, 0)))
        elif hasattr(S, "center") and hasattr(S, "radius"):
            if rng.uniform() < 0.5:
                X = rotational_field(rand_poly(deg), center=S.center)
            else:
                ang = rng.uniform(0, 2 * np.pi)
                X = vanishing_factor_field(
                    S, rand_poly(deg), np.array([np.cos(ang), np.sin(ang)]))
        else:
            ang = rng.uniform(0, 2 * np.pi)
            X = vanishing_factor_field(
                S, rand_poly(deg), np.array([np.cos(ang), np.sin(ang)]))
        if window is not None:
            X = windowed_field(X, *window)
        elif rng.uniform() < localized_fraction:
            c = rc + rng.uniform(-1.0, 1.0, 2) * region_radius
            w = region_radius * rng.uniform(0.2, 0.9)
            X = windowed_field(X, c, w)
        fields.append(X)
    return fields


def transformed_field(X: TestField, rotation, shift):
    """Pushforward of X under the rigid motion x -> R x + shift."""
    R = np.asarray(rotation, dtype=float)
    b = np.asarray(shift, dtype=float)

    def value(pts):
        return X.value((pts - b) @ R) @ R.T

    def jacobian(pts):
        return np.einsum("ab,qbc,dc->qad", R, X.jacobian((pts - b) @ R), R)

    return TestField(value, jacobian, X.label + "|moved")


def check_tangential(X: TestField, S: Barrier, n_samples=1000, tol=1e-10):
    """max |X . nu_S| over barrier samples (should be ~0 for tangential fields)."""
    pts = S.boundary_samples(n_samples)
    vals = X.value(pts)
    normals = np.atleast_2d(S.normal(pts))
    return float(np.abs(np.sum(vals * normals, axis=-1)).max())
