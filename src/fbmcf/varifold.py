"""Discrete integral 1-varifolds: first variation, free-boundary certification
and the two-radius boundary monotonicity identity.

A varifold here is a weighted collection of straight segments (usually the
edges of one or more polylines, with integer multiplicities).  Its first
variation against a C^1 field X is exact from X's values at the vertices:

    delta V(X) = sum_segments  mult * int_segment <D_e X, e> dl
               = sum_segments  mult * e . (X(end) - X(start)),

since <D_e X, e> is the derivative of e . X along a segment of direction e.
By vertex, the sum is the atomic decomposition -- turning vectors at
interior vertices, conormals at chain endpoints -- that the boundary
monotonicity identity also pairs against.  Integrals over segments go by
fixed-order Gauss-Legendre quadrature (``segment_quadrature``).  Integrals
over flow slices go through one sum, ``integrate_slices``: the plain and
reflected Gaussian densities and the dissipation check all use it.  The
polyline type ``Component`` is the one the flow evolves, so a flow slice is
a varifold without conversion.  Over the lumped vertex mass the turning is
the flow's curvature vector H = turning / mass (``turning_and_mass``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .barrier import Barrier, Line, norm2, norm2_sq
from .errors import IllConditionedFit

_GL_CACHE = {}
_ZERO = np.zeros(1)


def _gauss_legendre(order):
    if order not in _GL_CACHE:
        _GL_CACHE[order] = leggauss(order)
    return _GL_CACHE[order]


def segment_quadrature(starts, ends, order):
    """Gauss-Legendre nodes of the given order on every segment.

    Returns (points, lengths, weights) with points shaped (segments, order, 2);
    the integral of f over segment k is 0.5 * lengths[k] * (f(points[k]) @ weights).
    The points start + s (end - start) are formed one coordinate at a time,
    so numpy loops over the nodes rather than over the two coordinates of each.
    """
    nodes, weights = _gauss_legendre(order)
    s = 0.5 * (nodes + 1.0)
    d = ends - starts
    pts = np.empty((len(d), order, 2))
    for c in range(2):
        np.add(starts[:, c, None], s * d[:, c, None], out=pts[..., c])
    return pts, norm2(d), weights


def integrate_slices(slices, fn, order):
    """int fn dmu over each of a group of slices, each a list of components
    with a segment, all with one segment count: one ``segment_quadrature``
    over their stacked segments and one call of fn on its points, shaped
    (slices, points per slice, 2).  Each component's sum of 0.5 l (f @ w)
    is taken on its own and added to its slice's total in component order."""
    chains = [c for comps in slices for c in comps]
    if not chains:
        return [0.0] * len(slices)
    pts, L, weights = segment_quadrature(
        *map(np.concatenate, zip(*(c.segments() for c in chains))), order)
    vals = np.asarray(fn(pts.reshape(len(slices), -1, 2))).reshape(-1, order)
    totals, start = [], 0
    for comps in slices:
        total = 0.0
        for c in comps:
            rows = slice(start, start + len(c.points) - (not c.closed))
            total += float(np.sum(0.5 * L[rows] * (vals[rows] @ weights)))
            start = rows.stop
        totals.append(total)
    return totals


def integrate_slice(state, fn, order):
    """int fn dmu over a flow slice (a ``CurveState``), ``order``-point
    Gauss-Legendre per segment: ``integrate_slices`` over its components
    with a segment, fn taking points (N, 2)."""
    (total,) = integrate_slices(
        [[c for c in state.components if len(c.points) > 1]],
        lambda p: fn(p.reshape(-1, 2)), order)
    return total


def turning_and_mass(vectors, lengths, closed):
    """Turning u_i - u_{i-1} (vertices, 2) and lumped mass (l_i + l_{i-1}) / 2
    (vertices,) of a polyline from its segment vectors and lengths, u_i the
    unit direction of the segment leaving vertex i.  An open chain's ends
    have zero turning and half their one segment as mass.  H = turning / mass
    is the curvature vector."""
    u = vectors / lengths[:, None]
    if closed:  # pad with the segment before the first vertex
        u = np.concatenate([u[-1:], u])
    else:  # repeated end directions turn by zero
        u = np.concatenate([u[:1], u, u[-1:]])
    return u[1:] - u[:-1], lumped_mass(lengths, closed)


def lumped_mass(lengths, closed):
    """(l_i + l_{i-1}) / 2 at every vertex of a polyline, the mass of
    ``turning_and_mass``: an open chain's ends get half their one segment."""
    lengths = np.concatenate([lengths[-1:], lengths]) if closed \
        else np.concatenate([_ZERO, lengths, _ZERO])
    return 0.5 * (lengths[1:] + lengths[:-1])


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
    its segment vectors and lengths are measured once.  A component that a
    flow step advanced implicitly also keeps the level it was stepped from,
    as the arrays (points, segment lengths, dt) and never as a component, so
    histories do not chain; any other component has none.
    """

    points: np.ndarray
    closed: bool = False
    on_s: np.ndarray = None  # type: ignore[assignment]
    multiplicity: int = 1
    _vectors: np.ndarray = field(default=None, init=False, repr=False,
                                 compare=False)
    _lengths: np.ndarray = field(default=None, init=False, repr=False,
                                 compare=False)
    _previous: tuple = field(default=None, init=False, repr=False,
                             compare=False)

    def __post_init__(self):
        points = _read_only_copy(self.points, float)
        on_s = np.zeros(len(points), dtype=bool) if self.on_s is None \
            else self.on_s
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "on_s", _read_only_copy(on_s, bool))

    @classmethod
    def _view(cls, points, closed, on_s):
        """A component of multiplicity one over read-only (n, 2) float and
        (n,) bool arrays, kept as they are rather than copied (a history's
        snapshots are views of its columns)."""
        comp = object.__new__(cls)
        comp.__dict__.update(points=points, closed=closed, on_s=on_s,
                             _vectors=None, _lengths=None)
        return comp

    def segments(self):
        """(starts, ends) of every segment."""
        if self.closed:
            return self.points, np.concatenate([self.points[1:],
                                                self.points[:1]])
        return self.points[:-1], self.points[1:]

    def segment_vectors(self):
        """end - start of every segment (read-only, computed on first use)."""
        if self._vectors is None:
            starts, ends = self.segments()
            vectors = ends - starts
            vectors.flags.writeable = False
            object.__setattr__(self, "_vectors", vectors)
        return self._vectors

    def segment_lengths(self):
        """Length of every segment (read-only, computed on first use)."""
        if self._lengths is None:
            lengths = norm2(self.segment_vectors())
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
        interior turning vectors u_i - u_{i-1} (``turning_and_mass``) and, at
        open-chain endpoints, minus the outward conormal.
        """
        pos, vec = [], []
        for c in self.chains:
            d, L = c.segment_vectors(), c.segment_lengths()
            turning, _ = turning_and_mass(d, L, c.closed)
            rows = slice(None) if c.closed else slice(1, -1)
            pos.append(c.points[rows])
            vec.append(c.multiplicity * turning[rows])
            if not c.closed:
                # endpoint atoms are minus the outward conormal (times mult)
                pos.append(c.points[[0, -1]])
                vec.append(c.multiplicity * (d[[0, -1]] / L[[0, -1], None])
                           * [[1.0], [-1.0]])
        return np.vstack(pos), np.vstack(vec)

    def ball_mass(self, center, r):
        """mu_V(B_r(center)) from exact chord-ball clipping."""
        return float(ball_masses(*self.segments(), np.asarray(
            center, dtype=float), np.array([r], dtype=float))[0])


def ball_masses(starts, ends, mult, center, radii):
    """mu(B_r(center)) of segments [starts, ends] with multiplicities mult,
    from exact chord-ball clipping, for every r in radii (K,).  Each radius
    sums its own row, so a mass has the bits of a one-radius call."""
    return np.sum(ball_mass_terms(starts, ends, mult, center, radii), axis=1)


def ball_mass_terms(starts, ends, mult, center, radii):
    """The (K, segments) terms that ``ball_masses`` sums along each row: mult
    times the length of each segment inside B_r(center), for every r in
    radii (K,).  Elementwise, so a term has the same bits however the
    segments are stacked."""
    a = starts - center
    d = ends - starts
    # |a + s d|^2 = r^2 solved for s in [0, 1]
    A = norm2_sq(d)
    L = np.sqrt(A)
    Bq = 2.0 * np.sum(a * d, axis=1)
    C = norm2_sq(a) - (radii * radii)[:, None]
    disc = Bq * Bq - 4.0 * A * C
    pos = disc > 0
    root = np.sqrt(np.where(pos, disc, 0.0))
    lo = np.clip((-Bq - root) / (2.0 * A), 0.0, 1.0)
    hi = np.clip((-Bq + root) / (2.0 * A), 0.0, 1.0)
    inside = np.where(pos, np.maximum(hi - lo, 0.0), 0.0)
    return mult * inside * L


@dataclass
class FreeBoundaryReport:
    is_free_boundary: bool
    residual: float
    tol: float
    fitted_curvature: np.ndarray  # per-segment tangential curvature vector
    field_count: int


def first_variation(V: DiscreteVarifold, X):
    """delta V(X) = int div_V X dmu = - sum vectors . X(positions) over the
    atoms, exact for a polygonal varifold (Buet, Leonardi & Masnou, ARMA
    226, 2017); it takes X's values at the vertices, never its Jacobian."""
    return _atomic_first_variation(V.atoms(), X)


def _atomic_first_variation(atoms, X):
    pos, vec = atoms
    return -float(np.sum(np.vecdot(vec, X.value(pos))))


def certify_free_boundary(V: DiscreteVarifold, S: Barrier, fields, tol=None):
    """Least-squares recovery of a per-segment tangential curvature vector.

    Solves delta V(X_f) = - sum_j mult_j  H_j . int_{seg_j} X_f dl  for the
    piecewise-constant field H and reports the worst per-field residual,
    normalized by 1 + |X_f|_C1.  A varifold with free boundary in S is one
    the fit can explain: conormal atoms that are not barrier-normal leave a
    residual no segment-constant field can absorb.

    Order-8 Gauss-Legendre nodes give every field's segment integrals and
    its C^1 norm, from one ``value_and_jacobian`` evaluation per field; the
    first variations take each field's values at the atoms, which are
    built once.
    Singular directions the family senses at below 1e-3 of the leading
    scale are excluded from the fit (they carry no information and would
    otherwise amplify quadrature noise into the recovered curvature).
    """
    if tol is None:
        tol = 1e-6 * V.total_mass
    starts, ends, mult = V.segments()
    order = 8
    pts, L, weights = segment_quadrature(starts, ends, order)
    nseg = len(L)
    pts = pts.reshape(-1, 2)

    atoms = V.atoms()
    A = np.empty((len(fields), 2 * nseg))
    b = np.empty(len(fields))
    norms = np.empty(len(fields))
    for i, X in enumerate(fields):
        vals, jac = X.value_and_jacobian(pts)
        seg_int = 0.5 * L[:, None] * np.einsum(
            "kqc,q->kc", vals.reshape(nseg, order, 2), weights)
        A[i] = (-mult[:, None] * seg_int).reshape(-1)
        b[i] = _atomic_first_variation(atoms, X)
        # X.c1_norm(pts), from the values already in hand
        norms[i] = np.abs(vals).max() + np.abs(jac).max()

    rank = np.linalg.matrix_rank(A, tol=1e-12 * max(1.0, np.abs(A).max()))
    if rank < min(len(fields), 2 * nseg) // 4 + 1:
        raise IllConditionedFit("tangential test family is degenerate")

    h, *_ = np.linalg.lstsq(A, b, rcond=1e-3)
    res = np.abs(A @ h - b) / (1.0 + norms)
    return FreeBoundaryReport(
        is_free_boundary=bool(res.max() < tol),
        residual=float(res.max()),
        tol=float(tol),
        fitted_curvature=h.reshape(nseg, 2),
        field_count=len(fields))


# -- scalar fields and the boundary monotonicity identity ----------------------

@dataclass(frozen=True)
class ScalarField:
    """Scalar test function with an exact gradient: ``value`` maps points
    (N, 2) to (N,) and ``grad`` maps them to (N, 2)."""

    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def one(cls):
        return cls(lambda p: np.ones(len(p)), lambda p: np.zeros_like(p))


def boundary_monotonicity_check(V: DiscreteVarifold, S: Barrier, h: ScalarField,
                                sigma, tau, order=32):
    """Residual of the two-radius identity for the barrier-distance tube.

    For 0 < tau < sigma <= r_S the weighted tube masses at the two radii
    differ by a shell integral; both sides pair the atomic first variation of
    the polyline against the tube field, so for a genuinely free-boundary
    polyline the residual is quadrature-level.  Every segment is split where
    it crosses either tube boundary, and each piece goes by the distance of
    its midpoint: it lies in tube(rho) when that distance is below rho and
    in the shell when it is between tau and sigma.  Atoms go by their own
    distance.  Sums run left to right in piece and atom order.
    """
    if not (0.0 < tau < sigma):
        raise ValueError("need 0 < tau < sigma")
    starts, ends, mult = V.segments()
    q0, q1, seg = _split_by_tube(S, starts, ends, (tau, sigma))
    mid_d = S.distance(0.5 * (q0 + q1))
    inside = mid_d < sigma
    q0, q1, m, mid_d = q0[inside], q1[inside], mult[seg[inside]], mid_d[inside]
    main, nu, shell = (m * f for f in _tube_integrals(S, h, q0, q1, order))

    pos, vec = V.atoms()
    rel = pos - S.project(pos)
    d = norm2(rel)
    near = (0.0 < d) & (d < sigma)
    pos, vec, rel, d = pos[near], vec[near], rel[near], d[near]
    hv = h.value(pos)
    # vecdot takes one dot per atom, so no atom's bits depend on another
    dot = np.vecdot(vec, rel / d[:, None])

    nu_atom = hv * d * dot
    lhs = (_running_sum(main) + _running_sum(nu) + _running_sum(nu_atom)) / sigma \
        - (_running_sum(main[mid_d < tau]) + _running_sum(nu[mid_d < tau])
           + _running_sum(nu_atom[d < tau])) / tau
    # shell integral: the same integrands without the d factor
    rhs = _running_sum(np.concatenate([shell[tau < mid_d], (hv * dot)[tau < d]]))
    return abs(lhs - rhs)


def _running_sum(terms):
    """Left-to-right sum of a 1-D array (np.sum would pair terms)."""
    return float(np.cumsum(np.append(0.0, terms))[-1])


def _split_by_tube(S, starts, ends, radii):
    """Split every segment [starts[k], ends[k]] at the distance-level
    crossings of the given radii, located on a 64-interval scan and refined
    by bisection, all brackets in lockstep.  A scan point within
    1e-14 max(rho, length) of a level is a cut as it stands.  A level
    crossed twice between scan points is found by ``_dip_brackets``.

    Returns (q0, q1, seg): piece endpoints, and each piece's segment index,
    ordered by segment and then along it.
    """
    ts = np.linspace(0.0, 1.0, 65)
    radii = np.asarray(radii, dtype=float)
    d_seg = ends - starts
    L = norm2(d_seg)
    scan = S.distance(starts[:, None, :] + ts[:, None] * d_seg[:, None, :])
    g = scan[:, None, :] - radii[:, None]  # (segment, radius, scan point)
    k_hit, _, i_hit = np.nonzero(np.abs(g) <= 1e-14 * np.maximum(
        radii[:, None], L[:, None, None]))
    k, r, i = np.nonzero(g[..., :-1] * g[..., 1:] < 0)
    brackets = zip((k, r, ts[i], ts[i + 1], g[k, r, i]),
                   _dip_brackets(S, starts, d_seg, L, radii, ts, g))
    k, r, lo, hi, glo = (np.concatenate(pair) for pair in brackets)
    active = np.arange(len(k))
    for _ in range(60):
        if not len(active):
            break
        mid = 0.5 * (lo[active] + hi[active])
        val = S.distance(starts[k[active]] + mid[:, None] * d_seg[k[active]]) \
            - radii[r[active]]
        # a bracket whose midpoint hits the level exactly stops there
        moving = val != 0.0
        active, mid, val = active[moving], mid[moving], val[moving]
        left = glo[active] * val < 0
        hi[active[left]] = mid[left]
        lo[active[~left]], glo[active[~left]] = mid[~left], val[~left]

    n = len(starts)
    # rows (segment, cut), sorted and deduplicated; a piece joins two
    # consecutive cuts of one segment
    cuts = np.unique(np.stack([
        np.concatenate([np.arange(n), np.arange(n), k_hit, k]),
        np.clip(np.concatenate([np.zeros(n), np.ones(n), ts[i_hit],
                                0.5 * (lo + hi)]), 0.0, 1.0)], axis=1), axis=0)
    seg, cut = cuts[:, 0].astype(int), cuts[:, 1]
    piece = np.nonzero(seg[1:] == seg[:-1])[0]
    seg = seg[piece]
    return (starts[seg] + cut[piece, None] * d_seg[seg],
            starts[seg] + cut[piece + 1, None] * d_seg[seg], seg)


def _dip_brackets(S, starts, d_seg, L, radii, ts, g):
    """Sign-change brackets that the scan g (segment, radius, scan point)
    steps over, where the distance crosses a level and comes back between
    two scan points.

    Candidates are interior scan points where |g| has a local minimum, g
    has the same sign at both neighbours, and |g| <= L/64: the distance is
    1-Lipschitz, so |g| changes by at most L/64 per scan step.  A lockstep
    golden-section search of at most 60 steps minimizes |g| over the two
    scan intervals around each candidate.  A search stops when it finds a
    point t across the level, or when the Lipschitz bound shows that its
    interval has none.  Each t splits its two scan intervals into two
    brackets.  Returns (k, r, lo, hi, glo), like the scan's own brackets.
    """
    side = np.sign(g[..., 1:-1])
    f_prev = side * g[..., :-2]
    f, f_next = side * g[..., 1:-1], side * g[..., 2:]
    k, r, i = np.nonzero((side != 0) & (f_prev > 0) & (f_next > 0)
                         & (f <= f_prev) & (f < f_next)
                         & (f < L[:, None, None] * (ts[1] - ts[0])))
    side, i = side[k, r, i], i + 1
    if not len(k):
        return k, r, ts[i], ts[i], ts[i]
    a, b = ts[i - 1], ts[i + 1]

    def f_at(idx, t):
        return side[idx] * (S.distance(starts[k[idx]] + t[:, None]
                                       * d_seg[k[idx]]) - radii[r[idx]])

    inv_phi = 0.5 * (np.sqrt(5.0) - 1.0)
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    n = len(k)
    fc, fd = np.split(f_at(np.tile(np.arange(n), 2),
                           np.concatenate([c, d])), 2)
    # a point across the level and its g, per bracket (NaN while none is found)
    t_cross = np.where(fc < 0, c, np.where(fd < 0, d, np.nan))
    g_cross = side * np.where(fc < 0, fc, fd)
    active = np.nonzero(np.isnan(t_cross)
                        & (np.maximum(fc, fd) <= L[k] * (b - a)))[0]
    for _ in range(60):
        if not len(active):
            break
        left = fc[active] < fd[active]
        lft, rgt = active[left], active[~left]
        b[lft], d[lft], fd[lft] = d[lft], c[lft], fc[lft]
        a[rgt], c[rgt], fc[rgt] = c[rgt], d[rgt], fd[rgt]
        c[lft] = b[lft] - inv_phi * (b[lft] - a[lft])
        d[rgt] = a[rgt] + inv_phi * (b[rgt] - a[rgt])
        t_new = np.where(left, c[active], d[active])
        f_new = f_at(active, t_new)
        fc[lft], fd[rgt] = f_new[left], f_new[~left]
        across = f_new < 0
        t_cross[active[across]] = t_new[across]
        g_cross[active[across]] = side[active[across]] * f_new[across]
        keep = ~across & (np.maximum(fc[active], fd[active])
                          <= L[k[active]] * (b[active] - a[active]))
        active = active[keep]

    found = np.nonzero(~np.isnan(t_cross))[0]
    k, r, i, t = k[found], r[found], i[found], t_cross[found]
    return (np.tile(k, 2), np.tile(r, 2),
            np.concatenate([ts[i - 1], t]), np.concatenate([t, ts[i + 1]]),
            np.concatenate([g[k, r, i - 1], g_cross[found]]))


def _tube_integrals(S, h, q0, q1, order):
    """Per-piece integrals over [q0, q1] of h |D^T d|^2 (tube mass), of
    d (D_e h <D d, e> + h tr_e D^2 d) (smooth part of nu) and of
    D_e h <D d, e> + h tr_e D^2 d (shell integrand), in that order."""
    pts, L, weights = segment_quadrature(q0, q1, order)
    pts = pts.reshape(-1, 2)
    e = np.repeat((q1 - q0) / L[:, None], order, axis=0)
    rel = pts - S.project(pts)
    d = norm2(rel)
    dtd = np.vecdot(rel / np.maximum(d, 1e-300)[:, None], e)
    tr_term = np.einsum("qa,qab,qb->q", e, S.distance_hessian(pts), e)
    hv = h.value(pts)
    hge = np.vecdot(h.grad(pts), e)
    main = hv * dtd ** 2
    nu = d * hge * dtd + hv * d * tr_term
    shell = hge * dtd + hv * tr_term
    return tuple(0.5 * L * (f.reshape(len(L), order) @ weights)
                 for f in (main, nu, shell))


# -- test fields ----------------------------------------------------------------

@dataclass(frozen=True)
class TestField:
    """C^1 vector field with an exact Jacobian: ``value`` maps points (N, 2)
    to (N, 2), and ``value_and_jacobian`` maps them to the same values and
    the Jacobians (N, 2, 2) from one evaluation of the terms they share."""

    value: Callable[[np.ndarray], np.ndarray]
    value_and_jacobian: Callable[[np.ndarray], tuple]

    def c1_norm(self, pts):
        value, jac = self.value_and_jacobian(pts)
        return float(np.abs(value).max() + np.abs(jac).max())


class Poly2:
    """Bivariate polynomial with exact gradient, coefficients c[i, j] x^i y^j.

    The value and both partial derivatives are the three columns of one
    coefficient matrix over the power table x^i y^j (i, j below the shape
    of c), so any of them costs one table and one matrix product."""

    def __init__(self, coeffs):
        self.c = np.asarray(coeffs, dtype=float)
        n, m = self.c.shape
        dx, dy = np.zeros((n, m)), np.zeros((n, m))
        dx[:-1] = np.arange(1, n)[:, None] * self.c[1:]
        dy[:, :-1] = np.arange(1, m) * self.c[:, 1:]
        self._columns = np.stack([self.c, dx, dy], axis=-1).reshape(n * m, 3)

    def __call__(self, pts):
        return self.value_and_grad(pts)[0]

    def value_and_grad(self, pts):
        """p (N,) and its gradient (N, 2) from one power table."""
        n, m = self.c.shape
        # powers[:, c, k] is the k-th power of coordinate c, by repeated
        # multiplication
        powers = np.empty((len(pts), 2, max(n, m)))
        powers[..., 0] = 1.0
        powers[..., 1:] = pts[:, :, None]
        np.multiply.accumulate(powers, axis=2, out=powers)
        table = (powers[:, 0, :n, None]
                 * powers[:, 1, None, :m]).reshape(len(pts), n * m)
        out = table @ self._columns
        return out[:, 0], out[:, 1:]


def rotational_field(p: Poly2, center):
    """p(x) * rot90(x - center): tangent to every circle about the center."""
    c = np.asarray(center, dtype=float)
    R = np.array([[0.0, -1.0], [1.0, 0.0]])

    def value(pts):
        rel = pts - c
        rot = rel @ R.T
        return p(pts)[:, None] * rot

    def value_and_jacobian(pts):
        rel = pts - c
        rot = rel @ R.T
        v, g = p.value_and_grad(pts)
        return (v[:, None] * rot,
                rot[:, :, None] * g[:, None, :] + v[:, None, None] * R)

    return TestField(value, value_and_jacobian)


def vanishing_factor_field(S: Barrier, q: Poly2, direction):
    """q(x) * omega_signed(x) * w: vanishes on S, so trivially tangential.

    The gradient of the signed depth is -nu_S(zeta(x)) (exact within the
    reach tube), which is all the Jacobian needs.
    """
    w = np.asarray(direction, dtype=float)

    def value(pts):
        g = S.omega_signed(pts)
        return (q(pts) * g)[:, None] * w

    def value_and_jacobian(pts):
        g = S.omega_signed(pts)
        grad_g = -S.normal(pts)
        qv, qg = q.value_and_grad(pts)
        total = g[:, None] * qg + qv[:, None] * grad_g
        return (qv * g)[:, None] * w, w[None, :, None] * total[:, None, :]

    return TestField(value, value_and_jacobian)


def line_tangential_field(P: Line, a: Poly2, b: Poly2):
    """a(x) t + b(x) (nu.x - offset) nu: tangent to the line P on P."""
    nu = P.nu
    t = np.array([-nu[1], nu[0]])

    def lvl(pts):
        return pts @ nu - P.offset

    def value(pts):
        return a(pts)[:, None] * t + (b(pts) * lvl(pts))[:, None] * nu

    def value_and_jacobian(pts):
        (av, ga), (bv, gb) = a.value_and_grad(pts), b.value_and_grad(pts)
        level = lvl(pts)
        term = level[:, None] * gb + bv[:, None] * nu
        return (av[:, None] * t + (bv * level)[:, None] * nu,
                t[None, :, None] * ga[:, None, :]
                + nu[None, :, None] * term[:, None, :])

    return TestField(value, value_and_jacobian)


def bump_window(center, width):
    """Smooth rational bell (1 + |x-c|^2/w^2)^(-3) with exact gradient.

    Smooth everywhere (no support kink), so per-segment Gauss-Legendre
    quadrature of windowed fields converges spectrally.
    """
    c = np.asarray(center, dtype=float)
    w2 = float(width) ** 2

    def val(pts):
        r2 = norm2_sq(pts - c)
        return (1.0 + r2 / w2) ** -3

    def grad(pts):
        rel = pts - c
        r2 = norm2_sq(rel)
        return (-6.0 / w2) * ((1.0 + r2 / w2) ** -4.0)[:, None] * rel

    return val, grad


def windowed_field(X: TestField, center, width):
    """X multiplied by a compactly supported C^1 bump."""
    bval, bgrad = bump_window(center, width)

    def value(pts):
        return bval(pts)[:, None] * X.value(pts)

    def value_and_jacobian(pts):
        v, jac = X.value_and_jacobian(pts)
        b = bval(pts)
        return (b[:, None] * v, b[:, None, None] * jac
                + v[:, :, None] * bgrad(pts)[:, None, :])

    return TestField(value, value_and_jacobian)


def tangential_family(S: Barrier, n_fields=40, seed=0,
                      localized_fraction=0.7):
    """A family of fields tangent to S with exact Jacobians.

    Lines get tangential/normal-split polynomial fields of degree at most 3;
    circles get rotational fields plus fields vanishing on S; other barriers
    get the vanishing-factor family only.  Global polynomials alone span a
    low-dimensional space, so most fields are localized with randomly
    placed C^1 bump windows inside the square |x|, |y| <= 3.
    """
    rng = np.random.default_rng(seed)
    fields = []

    def rand_poly(deg):
        c = rng.uniform(-1.0, 1.0, (deg + 1, deg + 1))
        mask = np.add.outer(np.arange(deg + 1), np.arange(deg + 1)) <= deg
        return Poly2(np.where(mask, c, 0.0))

    while len(fields) < n_fields:
        deg = int(rng.integers(0, 4))
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
        if rng.uniform() < localized_fraction:
            c = rng.uniform(-1.0, 1.0, 2) * 3.0
            w = 3.0 * rng.uniform(0.2, 0.9)
            X = windowed_field(X, c, w)
        fields.append(X)
    return fields
