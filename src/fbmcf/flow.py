"""Front-tracking curve shortening with a one-sided barrier constraint.

Curves are polylines moving by the discrete curvature vector, turning over
lumped mass (``varifold.turning_and_mass``, also the remesh sagitta's),

    H_i = (u_i - u_{i-1}) / ((l_i + l_{i-1}) / 2),

which is exact (magnitude 1/R, radially inward) on uniformly sampled
circles.  Vertices flagged as boundary points ride on the barrier: they
turn against a ghost segment to their neighbor's mirror image and keep the
barrier-tangential part.  Free ends of open chains are pinned.  With the
segment lengths l frozen, H = D(l) X is linear in the vertices X: D is a
cyclic tridiagonal operator on a closed component, and on an open chain a
tridiagonal one whose end rows, against a line, are exactly the mirror
ghost (a Neumann row along the line).

Closed components, and open chains with no barrier or a flat one, advance
by linearly implicit BDF2 with variable steps (Dziuk, M3AS 1994; Akrivis,
Li & Lubich, Math. Comp. 2017): the lengths are frozen at the extrapolation
l* = (1 + w) l^n - w l^{n-1}, w = dt_n / dt_{n-1}, and one tridiagonal
solve gives the new level, shared by x and y on a closed component and by
the two coordinates of the line's frame on an open chain.  A component
without a previous level (new, split, popped or remeshed), or whose
extrapolated lengths are not all positive, restarts with one backward-Euler
step.  The step has no stability bound; ``run`` sizes it from
``h_target`` and the snapshot cadence.  Flagged ends are re-projected onto
the line after each step.

Open chains against a curved barrier take an explicit Euler step bounded
by 0.4 h_min^2 over those chains.  Their boundary vertices are re-projected
onto the barrier after each step, and a single Gauss-Seidel pass rotates
the adjacent vertex so the one-sided quadratic tangent estimate meets the
barrier orthogonally.  That estimate and solve run on plain floats with
``math``, so they do not depend on BLAS or SIMD dispatch; each component's
barrier queries go out in one batch.  Components are immutable and measure
their segment lengths once, so a step, the pop threshold, the remesh
trigger, the vanish test and the next step size share one measurement.

Interior vertices that reach the barrier moving inward trigger a "pop": the
touching vertex is duplicated into two boundary vertices placed on the
barrier and the curve splits there.  Popping, vanishing (short components
are deleted), and detected self-crossings are recorded as events.  Every
snapshot is checked for a crossing of two segments that share no vertex,
in any component or between components; the last and first
segments of a closed component are adjacent, the ends of an open chain
are not.  The check pairs segments whose midpoints a k-d tree finds within
one longest segment, so its time grows as M log M and its memory as M in
the number M of segments while their lengths stay comparable, as
remeshing keeps them.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Callable

import numpy as np

from .barrier import Barrier, norm2, norm2_sq
from .errors import (ConfigError, GraphFailure, InadmissibleTestFunction,
                     OutOfHistory, StepTooLarge)
from .varifold import (Component, DiscreteVarifold, ball_masses,
                       integrate_slice, turning_and_mass)


@dataclass
class CurveState:
    """Time slice of the evolving front."""

    components: list
    time: float = 0.0
    barrier: Barrier | None = None

    def total_length(self):
        return sum(c.length() for c in self.components)

    def h_min(self):
        """Shortest segment."""
        lens = [c.segment_lengths().min() for c in self.components
                if len(c.points) > 1]
        return min(lens) if lens else np.inf

    def all_points(self):
        return np.vstack([c.points for c in self.components]) if self.components \
            else np.zeros((0, 2))

    def min_barrier_distance(self):
        if self.barrier is None or not self.components:
            return np.inf
        return float(np.min(self.barrier.distance(self.all_points())))


@dataclass
class FlowEvent:
    time: float
    kind: str  # Pop | Vanish | Collision
    location: np.ndarray

    def to_dict(self):
        return {"time": self.time, "kind": self.kind,
                "location": [float(self.location[0]), float(self.location[1])]}


# FlowHistory attributes fixed at construction
_KEPT = ("snapshots", "times")


@dataclass
class FlowHistory:
    """Time-ordered snapshots (a tuple) plus the events between them; the
    read-only array ``times`` of snapshot times is built at construction.

    ``snapshots`` and ``times`` cannot be reassigned or deleted afterwards
    (``FrozenInstanceError``), so values computed from them and kept on the
    history, the reflected densities of ``density.reflected_density``, stay
    valid.  ``barrier`` may be reassigned: no kept value reads it.  A copy
    or an unpickled history is built through the constructor too.
    """

    snapshots: tuple
    events: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    barrier: Barrier | None = None

    def __post_init__(self):
        object.__setattr__(self, "snapshots", tuple(self.snapshots))
        times = np.array([s.time for s in self.snapshots])
        times.flags.writeable = False
        object.__setattr__(self, "times", times)
        self._dt_grid = np.diff(times).max() if len(times) > 1 else 0.0
        self._densities = {}  # see density.reflected_density

    def __setattr__(self, name, value):
        if name in _KEPT and name in self.__dict__:
            raise FrozenInstanceError(
                f"cannot assign to {name!r}: a FlowHistory keeps its snapshots")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        if name in _KEPT:
            raise FrozenInstanceError(
                f"cannot delete {name!r}: a FlowHistory keeps its snapshots")
        object.__delattr__(self, name)

    def __reduce__(self):
        # a copy or an unpickled history is built anew: read-only times and
        # an empty density memo
        return (type(self), (self.snapshots, self.events, self.config,
                             self.barrier))

    def slice_at(self, t):
        """State at time t: exact snapshot, vertexwise interpolation when the
        bracketing snapshots are compatible, else the nearest snapshot."""
        times = self.times
        if len(times) == 0:
            raise OutOfHistory("empty history")
        if t < times[0] - 1e-9 - self._dt_grid \
                or t > times[-1] + 1e-9 + self._dt_grid:
            raise OutOfHistory(f"time {t} outside stored range "
                               f"[{times[0]}, {times[-1]}]")
        i = int(np.argmin(np.abs(times - t)))
        if abs(times[i] - t) < 1e-12 or t < times[0] or t > times[-1]:
            return self.snapshots[i]
        lo = int(np.searchsorted(times, t) - 1)
        lo = max(0, min(lo, len(times) - 2))
        hi = lo + 1
        a, b = self.snapshots[lo], self.snapshots[hi]
        lam = (t - times[lo]) / (times[hi] - times[lo])
        if len(a.components) != len(b.components) or any(
                ca.closed != cb.closed
                for ca, cb in zip(a.components, b.components)):
            return a if abs(times[lo] - t) <= abs(times[hi] - t) else b
        comps = []
        for ca, cb in zip(a.components, b.components):
            pa, pb = ca.points, cb.points
            flags = ca.on_s & cb.on_s if len(ca.on_s) == len(cb.on_s) else None
            if len(pa) != len(pb):
                # remesh changed the count: align by arclength resampling
                m = max(len(pa), len(pb))
                n_seg = m if ca.closed else m - 1
                pa = resample_uniform(ca, n_seg)
                pb = resample_uniform(cb, n_seg)
                flags = np.zeros(len(pa), dtype=bool)
                if not ca.closed:
                    flags[0] = ca.on_s[0] and cb.on_s[0]
                    flags[-1] = ca.on_s[-1] and cb.on_s[-1]
            comps.append(Component((1 - lam) * pa + lam * pb, ca.closed, flags))
        return CurveState(comps, t, a.barrier)

    def events_in(self, a, b):
        return [e for e in self.events if a <= e.time <= b]

    def to_jsonl(self, path):
        """One snapshot per line; a leading header line echoes the config."""
        with open(path, "w") as f:
            f.write(json.dumps({"config": self.config}, sort_keys=True) + "\n")
            prev_t = -np.inf
            for s in self.snapshots:
                evs = [e.to_dict() for e in self.events if prev_t < e.time <= s.time]
                rec = {
                    "t": s.time,
                    "components": [c.points.tolist() for c in s.components],
                    "flags": [c.on_s.astype(int).tolist() for c in s.components],
                    "closed": [c.closed for c in s.components],
                    "events": evs,
                }
                f.write(json.dumps(rec, sort_keys=True) + "\n")
                prev_t = s.time

    @classmethod
    def from_jsonl(cls, path, barrier=None):
        snapshots, events, config = [], [], {}
        with open(path) as f:
            for line in f:
                rec = json.loads(line)
                if "config" in rec and "t" not in rec:
                    config = rec["config"]
                    continue
                comps = [Component(np.asarray(p), closed, np.asarray(fl, bool))
                         for p, fl, closed in zip(rec["components"], rec["flags"],
                                                  rec["closed"])]
                snapshots.append(CurveState(comps, rec["t"], barrier))
                for e in rec.get("events", []):
                    events.append(FlowEvent(e["time"], e["kind"],
                                            np.asarray(e["location"])))
        return cls(snapshots, events, config, barrier)

    def summary_rows(self):
        rows = []
        for s in self.snapshots:
            rows.append((s.time, s.total_length(), s.min_barrier_distance(),
                         len(s.components)))
        return rows

    def write_summary_csv(self, path):
        with open(path, "w") as f:
            f.write("t,length,min_d_to_S,n_components\n")
            for t, length, dmin, ncomp in self.summary_rows():
                f.write("%.17g,%.17g,%.17g,%d\n" % (t, length, dmin, ncomp))


# -- discrete curvature ---------------------------------------------------------

def vertex_velocity(comp: Component, barrier: Barrier | None):
    """Curvature velocity H = turning / mass at every vertex.

    A barrier-flagged end turns against a ghost segment to its neighbor's
    mirror image across the barrier, barrier-tangential by symmetry; the
    tangential projection guards against curvature of the barrier itself.
    Free ends of open chains have zero turning, so they are pinned.
    """
    pts = comp.points
    m = len(pts)
    if m < 2:
        return np.zeros_like(pts)
    e, L = comp.segment_vectors(), comp.segment_lengths()
    ends = _boundary_ends(comp) if barrier is not None else []
    first = int(bool(ends) and ends[0][0] == 0)  # a ghost precedes vertex 0
    if ends:
        # the flagged ends, 0 and/or m - 1, as a view
        rows = slice(ends[0][0], ends[-1][0] + 1, m - 1)
        mirrors = barrier.reflect_point(pts[[nb for _, nb, _ in ends]])
        ghost = pts[rows] - mirrors
        ghost[first:] *= -1.0  # the last vertex's ghost segment leaves it
        lg = np.sqrt(np.add.reduce(ghost * ghost, axis=1))
        e = np.concatenate([ghost[:first], e, ghost[first:]])
        L = np.concatenate([lg[:first], L, lg[first:]])
    turning, mass = turning_and_mass(e, L, comp.closed)
    vel = (turning / mass[:, None])[first:first + m]
    if ends:
        n = barrier.normal(pts[rows])
        k = vel[rows]
        k -= np.add.reduce(k * n, axis=1)[:, None] * n
    return vel


# -- implicit components: linearly implicit BDF2 -------------------------------

def _implicit(comp: Component, barrier: Barrier | None):
    """Whether ``step`` advances the component implicitly: components of at
    least three vertices that are closed, or open with no barrier or a flat
    one (a ``Line``)."""
    return len(comp.points) > 2 and (comp.closed or barrier is None
                                     or barrier.is_flat())


def closed_stencil(lengths):
    """(mass, diagonal, off) of the closed curvature stencil at segment
    lengths l (l_i from vertex i to i + 1): H = D X with D = M^{-1} K, M the
    lumped masses (l_i + l_{i-1}) / 2 of ``turning_and_mass`` and K the
    symmetric cyclic tridiagonal matrix with K_ii = diagonal_i =
    -(1/l_i + 1/l_{i-1}) and K_{i,i+1} = K_{i+1,i} = off_i = 1/l_i, indices
    taken around the curve."""
    before = np.concatenate([lengths[-1:], lengths[:-1]])
    off = 1.0 / lengths
    return 0.5 * (lengths + before), -(off + 1.0 / before), off


def _implicit_step(comp: Component, dt, barrier: Barrier | None):
    """New vertices of an implicit component after one step of size dt.

    BDF2 from the previous level kept on the component, with step ratio
    w = dt / dt_prev and lengths frozen at (1 + w) l^n - w l^{n-1}:

        (1 + 2w)/(1 + w) X' - (1 + w) X^n + w^2/(1 + w) X^{n-1} = dt D X',

    or backward Euler, X' - X^n = dt D(l^n) X', without one or when the
    extrapolated lengths are not all positive (a collapsing segment, such
    as an end sliding under its neighbor).  Multiplied by the masses the
    system is symmetric and positive definite.
    """
    X, lengths = comp.points, comp.segment_lengths()
    a, rhs, frozen = 1.0, X, lengths
    if comp._previous is not None:
        X_old, lengths_old, dt_old = comp._previous
        w = dt / dt_old
        extrapolated = (1.0 + w) * lengths - w * lengths_old
        if extrapolated.min() > 0.0:
            a = (1.0 + 2.0 * w) / (1.0 + w)
            rhs = (1.0 + w) * X - (w * w / (1.0 + w)) * X_old
            frozen = extrapolated
    if comp.closed:
        return _closed_solve(a, rhs, frozen, dt)
    return _open_solve(comp, a, rhs, frozen, dt, barrier)


def _solve_definite(d, e, b):
    """Solution of the symmetric positive definite tridiagonal system with
    diagonal d, off-diagonal e and right-hand sides b (rows), by LAPACK
    ``ptsv``; d and b are overwritten."""
    # imported here: scipy.linalg takes longer to load than runs without an
    # implicit component take
    from scipy.linalg.lapack import dptsv
    # b.T is Fortran-ordered: solved uncopied
    _, _, y, info = dptsv(d, e, b.T, overwrite_d=1, overwrite_b=1)
    if info != 0:  # the frozen lengths are positive, so not definite means
        # a zero-length or non-finite segment
        raise StepTooLarge("an implicit step met a zero-length or non-finite "
                           "segment")
    return y.T


def _closed_solve(a, rhs, frozen, dt):
    """Solution of (a M - dt K) X' = M rhs on a closed component, M and K
    from ``closed_stencil(frozen)``.  The cyclic corner is split off by
    Sherman-Morrison, so x, y and the correction vector are one tridiagonal
    solve with three right-hand sides."""
    mass, diagonal, off = closed_stencil(frozen)
    d = a * mass - dt * diagonal
    e = -dt * off  # e[i] couples i and i + 1, e[-1] the last and the first
    # A = T + u v^T with u = (-d_0, 0, ..., 0, e_{-1}),
    # v = (1, 0, ..., 0, -e_{-1} / d_0); T is tridiagonal and stays definite
    c, d0 = e[-1], d[0]
    d[0] = 2.0 * d0
    d[-1] += c * c / d0
    b = np.zeros((3, len(rhs)))
    np.multiply(mass, rhs.T, out=b[:2])
    b[2, 0], b[2, -1] = -d0, c
    y = _solve_definite(d, e[:-1], b)  # rows: x, y and the correction vector
    vy = y[:, 0] - (c / d0) * y[:, -1]
    y[:2] -= np.multiply.outer(vy[:2] / (1.0 + vy[2]), y[2])
    return y[:2].T


def _open_solve(comp: Component, a, rhs, frozen, dt, barrier):
    """Solution of (a M - dt K) X' = M rhs on an open chain.

    M holds the lumped masses of ``turning_and_mass``, half a segment at
    each end, and K the tridiagonal stencil, whose end row (-1/l, 1/l) is
    the ghost segment to the neighbor's mirror image across a line.  The
    unknowns are the coordinates in the barrier's frame, s along the line
    and z along its normal, or x and y without a barrier.  A flagged end on
    a line keeps that Neumann row in s and stays on the line in z; any
    other end is pinned.  Pinned rows move to the right-hand side, so both
    coordinates stack into one definite tridiagonal system of 2m rows.
    """
    m = len(rhs)
    coupling = dt / frozen  # dt K_{i,i+1}
    mass = np.zeros(m)
    mass[:-1] = 0.5 * frozen
    mass[1:] += 0.5 * frozen
    d = np.empty(2 * m)  # the s rows, then the z rows
    d[:m] = a * mass
    d[:m - 1] += coupling
    d[1:m] += coupling
    d[m:] = d[:m]
    e = np.zeros(2 * m - 1)  # e[m - 1] = 0 splits s and z
    e[:m - 1] = e[m:] = -coupling
    # rows: the line's tangent and normal, or x and y without a barrier
    frame = np.eye(2) if barrier is None else \
        np.array([[-barrier.nu[1], barrier.nu[0]], barrier.nu])
    b = ((rhs @ frame.T).T * mass).ravel()
    (t0, t1), (n0, n1) = frame.tolist()
    for j, nb in ((0, 1), (m - 1, m - 2)):
        if barrier is not None and comp.on_s[j]:
            pins = [(1, barrier.offset)]  # on the line; s keeps its row
        else:
            x, y = comp.points[j].tolist()
            pins = [(0, x * t0 + y * t1), (1, x * n0 + y * n1)]
        for k, value in pins:
            r, edge = k * m + j, k * m + min(j, nb)
            d[r], b[r] = 1.0, value
            b[k * m + nb] -= e[edge] * value
            e[edge] = 0.0
    return _solve_definite(d, e, b[None])[0].reshape(2, m).T @ frame


# -- boundary vertices ----------------------------------------------------------
#
# The tangent estimate and the orthogonality solve use plain floats and
# ``math``: a handful of 2-vectors per endpoint do not pay for numpy calls,
# and the results do not depend on BLAS or SIMD dispatch.

def _boundary_ends(comp: Component):
    """(j, nb, nb2) for each barrier-flagged endpoint j of an open component:
    its neighbor nb and the next vertex nb2 (None on a two-vertex chain)."""
    m = len(comp.points)
    if comp.closed or m < 2:
        return []
    return [(j, nb, nb2 if m > 2 else None)
            for j, nb, nb2 in ((0, 1, 2), (m - 1, m - 2, m - 3)) if comp.on_s[j]]


def _tangent_estimate(p0, p1, p2):
    """Unit one-sided curve direction at p0: the derivative at 0 of the
    quadratic through (0, p0), (s1, p1), (s2, p2) in chord length s, or the
    chord direction p0 -> p1 when p2 is None or that derivative vanishes."""
    x0, y0 = p0
    x1, y1 = p1
    ax, ay = x1 - x0, y1 - y0
    s1 = math.sqrt(ax * ax + ay * ay)
    if p2 is not None:
        x2, y2 = p2
        bx, by = x2 - x1, y2 - y1
        s2 = s1 + math.sqrt(bx * bx + by * by)
        c0 = -(s1 + s2) / (s1 * s2)
        c1 = s2 / (s1 * (s2 - s1))
        c2 = s1 / (s2 * (s2 - s1))
        dx = c0 * x0 + c1 * x1 - c2 * x2
        dy = c0 * y0 + c1 * y1 - c2 * y2
        n = math.sqrt(dx * dx + dy * dy)
        if n > 0.0:
            return dx / n, dy / n
    return ax / s1, ay / s1


def _contact_angle(t, target):
    """Signed angle from the unit direction t to the unit direction target."""
    return math.atan2(t[0] * target[1] - t[1] * target[0],
                      t[0] * target[0] + t[1] * target[1])


def orthogonality_residual(state: CurveState):
    """Worst angle (radians) between the inward curve direction and the
    inward barrier normal over all boundary vertices."""
    if state.barrier is None:
        return 0.0
    worst = 0.0
    for comp in state.components:
        ends = _boundary_ends(comp)
        if not ends:
            continue
        pts = comp.points
        targets = (-state.barrier.normal(pts[[j for j, _, _ in ends]])).tolist()
        for (j, nb, nb2), target in zip(ends, targets):
            p2 = None if nb2 is None else pts[nb2].tolist()
            t_est = _tangent_estimate(pts[j].tolist(), pts[nb].tolist(), p2)
            worst = max(worst, abs(_contact_angle(t_est, target)))
    return worst


def _gauss_seidel_orthogonality(pts, ends, targets):
    """One pass over the point array pts, in place: rotate the neighbor nb of
    each boundary vertex j in ``ends`` (the (j, nb, nb2) triples of
    ``_boundary_ends``, nb2 never None) about pts[j] so the quadratic tangent
    estimate meets the matching unit direction in ``targets``, the inward
    barrier normal at pts[j]."""
    for (j, nb, nb2), target in zip(ends, targets):
        # read here, not before the loop: on short chains the second end's
        # stencil contains the vertex the first end just rotated
        p0, p1, p2 = pts[[j, nb, nb2]].tolist()
        x0, y0 = p0
        bx, by = p1[0] - x0, p1[1] - y0

        def rotated(theta):
            c, s = math.cos(theta), math.sin(theta)
            return x0 + (c * bx - s * by), y0 + (s * bx + c * by)

        def residual_angle(q):
            return _contact_angle(_tangent_estimate(p0, q, p2), target)

        # secant solve for the rotation of the adjacent vertex
        theta = 0.0
        r0 = residual_angle(p1)
        if abs(r0) < 1e-6:  # already orthogonal to well below the target
            continue
        theta1 = r0
        for _ in range(8):
            r1 = residual_angle(rotated(theta1))
            if abs(r1) < 1e-12:
                break
            denom = r1 - r0
            if abs(denom) < 1e-15:
                break
            theta, r0, theta1 = theta1, r1, theta1 - r1 * (theta1 - theta) / denom
        pts[nb] = rotated(theta1)


def _explicit_h_min(state: CurveState):
    """Shortest segment of the components ``step`` advances explicitly."""
    lens = [c.segment_lengths().min() for c in state.components
            if not _implicit(c, state.barrier) and len(c.points) > 1]
    return min(lens) if lens else np.inf


def step(state: CurveState, dt):
    """One time step of curvature motion.

    An implicit component (closed, or open with no barrier or a flat one)
    takes a linearly implicit BDF2 step from the level it keeps, or a
    backward-Euler step when it has none (it is new, split, popped or
    remeshed); the new component keeps this level.  Its flagged ends obey
    the mirror condition exactly and are re-projected onto the line.  Open
    chains against a curved barrier take an explicit Euler step, and dt may
    not exceed 0.4 h_min^2 over them: interior vertices move by the discrete
    curvature vector; boundary vertices move tangentially and are
    re-projected onto the barrier, then one Gauss-Seidel pass restores
    orthogonality at the contact.  Each new component is built from its
    final point array.
    """
    h = _explicit_h_min(state)
    if dt > _CFL * h * h * (1.0 + 1e-9):
        raise StepTooLarge(f"dt={dt:.3g} exceeds {_CFL:.2f} h_min^2 = "
                           f"{_CFL * h * h:.3g}")
    S = state.barrier
    new_comps = []
    for comp in state.components:
        implicit = _implicit(comp, S)
        if implicit:
            pts = _implicit_step(comp, dt, S)
        else:
            pts = comp.points + dt * vertex_velocity(comp, S)
        if S is not None and np.any(comp.on_s):
            flagged = np.nonzero(comp.on_s)[0]
            pts[flagged] = S.project(pts[flagged])
            ends = _boundary_ends(comp) \
                if not implicit and len(pts) > 2 else []
            if ends:
                targets = (-S.normal(pts[[j for j, _, _ in ends]])).tolist()
                _gauss_seidel_orthogonality(pts, ends, targets)
        new = Component(pts, comp.closed, comp.on_s)
        if implicit:
            object.__setattr__(new, "_previous",
                               (comp.points, comp.segment_lengths(), dt))
        new_comps.append(new)
    return CurveState(new_comps, state.time + dt, state.barrier)


def detect_and_pop(state: CurveState, pop_threshold=None):
    """Split curves where an interior vertex reaches the barrier moving inward.

    Returns (new_state, events).  The touching vertex is duplicated into two
    boundary-flagged vertices placed on the barrier.  Vertices that crossed
    to the forbidden side are treated as touching (hard one-sidedness).
    Simultaneous triggers are processed in ascending arc-length order;
    adjacent triggered vertices are coalesced to the deepest one.  The
    default threshold is half the shortest segment.  Components without a
    trigger are passed on as they are.
    """
    if state.barrier is None:
        return state, []
    S = state.barrier
    thresh = pop_threshold if pop_threshold is not None \
        else 0.5 * state.h_min()
    events = []
    out = []
    for comp in state.components:
        pts = comp.points
        interior = ~comp.on_s
        depth = S.omega_signed(pts)
        d = np.abs(depth)  # one-sided flows: |omega depth| = barrier distance
        near = interior & ((d < thresh) | (depth < 0.0))
        if not np.any(near):
            out.append(comp)
            continue
        vel = vertex_velocity(comp, S)
        feet = S.project(pts)
        toward = np.sum(vel * (feet - pts), axis=1) > 0.0
        trigger = interior & (((d < thresh) & toward) | (depth < 0.0))
        idx = np.nonzero(trigger)[0]
        if len(idx) == 0:
            out.append(comp)
            continue
        idx = _coalesce_adjacent(idx, d, len(pts), comp.closed)
        pieces = _split_component(comp, idx, feet)
        for i in idx:
            events.append(FlowEvent(state.time, "Pop", feet[i].copy()))
        out.extend(pieces)
    return CurveState(out, state.time, state.barrier), events


def _coalesce_adjacent(idx, d, m, closed):
    """Keep only the deepest vertex of each run of adjacent triggers."""
    if len(idx) <= 1:
        return idx
    groups = [[idx[0]]]
    for i in idx[1:]:
        if i - groups[-1][-1] == 1:
            groups[-1].append(i)
        else:
            groups.append([i])
    if closed and len(groups) > 1 and groups[0][0] == 0 and groups[-1][-1] == m - 1:
        groups[0] = groups.pop() + groups[0]
    return np.array(sorted(int(g[int(np.argmin(d[g]))]) for g in groups))


def _split_component(comp: Component, cuts, feet):
    """Split at the cut vertices, given the barrier feet of all vertices: each
    cut becomes two boundary vertices on its foot, pieces run from cut (or an
    open chain's end) to cut (or end), and pieces under three vertices are
    dropped."""
    pts, flags, m = comp.points, comp.on_s, len(comp.points)
    is_cut = np.zeros(m, dtype=bool)
    is_cut[cuts] = True
    cuts = sorted(int(i) for i in cuts)
    bounds = cuts + [cuts[0] + m] if comp.closed else [0] + cuts + [m - 1]
    pieces = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        ring = np.arange(a, b + 1) % m
        p, f = pts[ring], flags[ring]
        for end in (0, -1):
            if is_cut[ring[end]]:
                p[end], f[end] = feet[ring[end]], True
        if len(p) >= 3:
            pieces.append(Component(p, False, f))
    return pieces


def _mergeable(comp: Component, lo, implicit):
    """Mask of the segments ``remesh`` may merge away: on an explicit chain
    those shorter than lo.  An implicit component's step has no bound that
    short segments would shrink, and a merge costs it its previous level, so
    only a flagged end of an implicit open chain that slid under its
    neighbor, as after a pop at a tangential touch, is merged: its segment
    is shorter than lo and than half the next one."""
    lens = comp.segment_lengths()
    if not implicit:
        return lens < lo
    mask = np.zeros(len(lens), dtype=bool)
    if not comp.closed:
        for end, after in ((0, 1), (-1, -2)):
            mask[end] = comp.on_s[end] and lens[end] < min(lo, 0.5 * lens[after])
    return mask


def remesh(state: CurveState, h_target):
    """Split segments longer than 1.5 h and merge the ``_mergeable``
    segments shorter than 0.5 h, interior vertices on explicit chains and
    collapsed flagged ends on implicit ones; boundary flags are preserved
    and the total length changes by at most 1e-3 of itself.

    Components that need no change are passed on as they are, and the state
    itself is returned when none does.
    """
    lo, hi = 0.5 * h_target, 1.5 * h_target
    implicit = [_implicit(c, state.barrier) for c in state.components]
    fine = [len(c.points) > 1 and c.segment_lengths().max() <= hi
            and not _mergeable(c, lo, imp).any()
            for c, imp in zip(state.components, implicit)]
    if all(fine):
        return state
    new_comps = []
    total_before = sum(float(c.segment_lengths().sum())
                       for c in state.components)
    budget = 1e-3 * max(total_before, 1e-12)
    spent = 0.0
    for comp, ok, imp in zip(state.components, fine, implicit):
        if ok:
            new_comps.append(comp)
            continue
        pts, flags, lens = comp.points, comp.on_s, comp.segment_lengths()
        base_len = float(lens.sum())
        # merge pass, shortest first, kept within the length-change budget;
        # leftovers wait for the next remesh call
        changed = True
        while changed and len(pts) > 3:
            changed = False
            order = np.argsort(lens)
            for si in order[_mergeable(comp, lo, imp)[order]]:
                i, j = si, si + 1
                if flags[i] and flags[j]:
                    continue
                if flags[i] or i == 0:
                    keep, drop, target = i, j, pts[i]
                elif flags[j] or j == len(pts) - 1:
                    keep, drop, target = j, i, pts[j]
                else:
                    # midpoint plus a sagitta correction from the mean
                    # curvature of the two vertices, so merging does not
                    # dent smooth arcs
                    keep, drop = i, j
                    k, w = turning_and_mass(comp.segment_vectors(), lens,
                                            False)
                    H = k[[i, j]] / w[[i, j], None]
                    target = 0.5 * (pts[i] + pts[j]) \
                        + 0.5 * (H[0] + H[1]) * (lens[si] ** 2 / 8.0)
                trial_pts = np.delete(pts, drop, axis=0)
                trial_flags = np.delete(flags, drop)
                trial_pts[keep if keep < drop else keep - 1] = target
                trial = Component(trial_pts, comp.closed, trial_flags)
                new_len = trial.length()
                delta = abs(new_len - base_len)
                if spent + delta > budget:
                    break
                spent += delta
                base_len = new_len
                comp = trial
                pts, flags, lens = trial.points, trial.on_s, \
                    trial.segment_lengths()
                changed = True
                break
        # split pass: chord midpoints, exactly length neutral
        long = np.nonzero(lens > hi)[0]
        if len(long):
            starts, ends = comp.segments()
            comp = Component(
                np.insert(pts, long + 1, 0.5 * (starts[long] + ends[long]),
                          axis=0),
                comp.closed, np.insert(flags, long + 1, False))
        new_comps.append(comp)
    out = CurveState(new_comps, state.time, state.barrier)
    if abs(out.total_length() - total_before) > 1e-3 * max(total_before, 1e-12):
        raise StepTooLarge("remesh changed the length by more than 1e-3")
    return out


# the crossing test's candidate radius over the longest segment: 1% above
# the bound 1, which covers the parameter band's 2e-9 and rounding
_PAIR_MARGIN = 1.01


def _self_intersects(state: CurveState):
    """Any crossing between non-adjacent segments (all components).

    Segments are adjacent when they share a vertex: consecutive ones, and
    the last and first of a closed component (an open chain's ends are not
    adjacent).  Each vertex belongs to the segment it starts: segments meet
    when their parameters t, u lie in the half-open band (-eps, 1 - eps), so
    a curve that passes through one of its own vertices crosses there, and
    two pieces that share only an end point do not.  Broad phase: a k-d
    tree of the segment midpoints (Bentley, CACM 1975).  Two segments that
    meet have midpoints at most (l_i + l_j) / 2 <= l_max apart, so only the
    pairs it finds within _PAIR_MARGIN l_max are candidates.  Narrow phase:
    the exact parametric test on the candidates, which gives pair (i, j) the
    same bits as an all-pairs test.  Memory is O(M + candidates).  Raises
    StepTooLarge on a non-finite coordinate or segment length.
    """
    # imported here, as scipy.linalg is in _solve_definite: importing the
    # module does not load scipy.spatial
    from scipy.spatial import cKDTree
    comps = [c for c in state.components if len(c.segment_lengths())]
    n_seg = np.array([len(c.segment_lengths()) for c in comps], dtype=int)
    M = int(n_seg.sum())
    if M < 3:
        return False
    # a non-finite coordinate makes a length non-finite; cKDTree would
    # refuse its midpoint with an untyped ValueError
    l_max = float(np.concatenate([c.segment_lengths() for c in comps]).max())
    if not math.isfinite(l_max):
        raise StepTooLarge("the crossing test met a non-finite coordinate "
                           "or segment length")
    if l_max == 0.0:
        return False
    P0 = np.concatenate([c.segments()[0] for c in comps])
    d = np.concatenate([c.segment_vectors() for c in comps])
    i, j = cKDTree(P0 + 0.5 * d).query_pairs(
        _PAIR_MARGIN * l_max, output_type="ndarray").T

    # the segment after each one in its component, -1 after an open end
    nxt = np.arange(1, M + 1)
    last = np.cumsum(n_seg) - 1
    nxt[last] = np.where([c.closed for c in comps], last - n_seg + 1, -1)
    keep = (nxt[i] != j) & (nxt[j] != i)
    i, j = i[keep], j[keep]

    x0, y0 = P0.T
    dx, dy = d.T
    dxi, dyi, dxj, dyj = dx[i], dy[i], dx[j], dy[j]
    rx, ry = x0[j] - x0[i], y0[j] - y0[i]
    denom = dxi * dyj - dyi * dxj
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = (rx * dyj - ry * dxj) / denom
        u = (rx * dyi - ry * dxi) / denom
    eps = 1e-9
    hit = (np.abs(denom) > 1e-300) & (t > -eps) & (t < 1 - eps) & \
          (u > -eps) & (u < 1 - eps)
    return bool(np.any(hit))


# an implicit component's step, at most this many h_target^2 and half the
# snapshot cadence, dividing the cadence
_IMPLICIT_DT_H2 = 2.0
# an explicit chain's step, at most this many h_min^2 of the explicit chains
_CFL = 0.4


def check_run_params(t_end, h_target, snapshot_dt):
    """Raise ConfigError unless a run with these values can end: all reals
    with a finite float value, t_end >= 0, the others > 0 and h_target^2 a
    normal float (remesh splits without end at h_target <= 0, the snapshot
    grid and the implicit step divide by snapshot_dt, and the implicit step
    divides by a zero h_target^2 and overflows on a subnormal one)."""
    for key, value in (("t_end", t_end), ("h_target", h_target),
                       ("snapshot_dt", snapshot_dt)):
        bound = ">= 0" if key == "t_end" else "> 0"
        if not (isinstance(value, numbers.Real)
                and abs(value) <= sys.float_info.max
                and (value >= 0 if key == "t_end" else value > 0)):
            raise ConfigError(f"flow.{key} must be finite and {bound}, "
                              f"got {value!r}")
    if h_target * h_target < sys.float_info.min:
        raise ConfigError(f"flow.h_target must be finite and its square at "
                          f"least {sys.float_info.min!r}, got {h_target!r}")


def check_initial_curve(state: CurveState):
    """Raise ConfigError unless every coordinate and segment length of the
    state is finite.  The lengths are measured, and kept on the components,
    with numpy's overflow warning silenced: this error reports it."""
    with np.errstate(over="ignore", invalid="ignore"):
        finite = all(np.isfinite(c.points).all()
                     and np.isfinite(c.segment_lengths()).all()
                     for c in state.components)
    if not finite:
        raise ConfigError("the initial curve needs finite coordinates and "
                          "segment lengths")


def run(initial: CurveState, t_end, h_target, snapshot_dt,
        vanish_length=None, barrier=None, config_echo=None):
    """Drive the flow: step, pop, remesh, snapshot on an exact cadence grid.

    Stops at ``t_end``, on total extinction, or on a Collision event: every
    snapshot is checked for a crossing of segments that share no vertex
    (an open chain's ends are not adjacent).  ``vanish_length`` (default
    10 h_target) deletes components shorter than the threshold, recording a
    Vanish event.  Raises ConfigError, before any step, on values with which
    the run could not end (``check_run_params``) and on an initial curve
    with a non-finite coordinate or segment length (``check_initial_curve``).

    Open chains against a curved barrier bound the step by 0.4 h_min^2,
    their h_min only.  An implicit component's step is snapshot_dt /
    ceil(snapshot_dt / min(2 h_target^2, snapshot_dt / 2)); while one is
    present, the rest of each snapshot interval is cut into equal steps
    within both bounds, so the BDF2 step ratio stays near one.

    Components are values that measure their segment lengths once, so the
    pop threshold, the remesh trigger, the vanish test and the next ``dt``
    share one measurement per component; snapshots share components with
    the running state instead of copying them, and a component that no
    pop or remesh replaced keeps its previous level for the next BDF2 step.
    """
    check_run_params(t_end, h_target, snapshot_dt)
    check_initial_curve(initial)
    state = CurveState(list(initial.components), initial.time,
                       barrier if barrier is not None else initial.barrier)
    vanish_len = 10.0 * h_target if vanish_length is None else vanish_length
    implicit_dt = snapshot_dt / math.ceil(
        snapshot_dt / min(_IMPLICIT_DT_H2 * h_target ** 2, 0.5 * snapshot_dt))
    t0 = state.time
    n_snap = int(round((t_end - t0) / snapshot_dt))
    snap_times = t0 + snapshot_dt * np.arange(n_snap + 1)
    events = []
    snapshots = [state]
    halted = False

    for k in range(1, n_snap + 1):
        t_next = snap_times[k]
        while state.time < t_next - 1e-14:
            h = _explicit_h_min(state)
            rest = t_next - state.time
            if any(_implicit(c, state.barrier) for c in state.components):
                cap = min(_CFL * h * h, implicit_dt)
                dt = rest / math.ceil(rest / cap * (1.0 - 1e-9))
            else:
                dt = min(_CFL * h * h, rest)
            state = step(state, dt)
            state, pop_events = detect_and_pop(state)
            events.extend(pop_events)
            state = remesh(state, h_target)
            # delete vanished components
            kept = []
            for comp in state.components:
                if comp.length() < vanish_len or len(comp.points) < 3:
                    events.append(FlowEvent(state.time, "Vanish",
                                            comp.points.mean(axis=0)))
                else:
                    kept.append(comp)
            state = CurveState(kept, state.time, state.barrier)
            if not state.components:
                break
        state = CurveState(state.components, t_next, state.barrier)
        snapshots.append(state)
        if not state.components:
            break
        if _self_intersects(state):
            events.append(FlowEvent(state.time, "Collision",
                                    state.all_points().mean(axis=0)))
            halted = True
            break

    cfg = dict(config_echo or {})
    cfg.update({"t_end": t_end, "h_target": h_target, "snapshot_dt": snapshot_dt,
                "halted": halted})
    return FlowHistory(snapshots, events, cfg, state.barrier)


# -- initial curves -------------------------------------------------------------

def circle_curve(center=(0.0, 0.0), radius=1.0, n=512):
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    pts = np.asarray(center) + radius * np.stack([np.cos(th), np.sin(th)], axis=-1)
    return CurveState([Component(pts, closed=True)])


def half_circle_curve(radius=1.0, n=256, center=(0.0, 0.0)):
    """Upper half circle with both endpoints flagged on the line y = c_y."""
    th = np.linspace(0.0, np.pi, n + 1)
    pts = np.asarray(center) + radius * np.stack([np.cos(th), np.sin(th)], axis=-1)
    flags = np.zeros(n + 1, dtype=bool)
    flags[0] = flags[-1] = True
    return CurveState([Component(pts, closed=False, on_s=flags)])


def segment_curve(p0, p1, n=16, flag_start=False):
    """Straight open chain from p0 to p1; only its start may sit on S."""
    s = np.linspace(0.0, 1.0, n + 1)[:, None]
    pts = np.asarray(p0) + s * (np.asarray(p1) - np.asarray(p0))
    flags = np.zeros(n + 1, dtype=bool)
    flags[0] = flag_start
    return CurveState([Component(pts, closed=False, on_s=flags)])


def resample_uniform(comp: Component, n):
    """Points of the polyline resampled to n segments of equal chord-length
    parameter (n points when closed, n + 1 when open)."""
    starts, ends = comp.segments()
    ring = np.vstack([starts[:1], ends])
    s = np.concatenate([[0.0], np.cumsum(comp.segment_lengths())])
    # one point per segment start plus, on an open chain, the last end (a
    # closed ring's last segment ends at its first point)
    n_out = n + len(comp.points) - len(starts)
    targets = np.linspace(0.0, s[-1], n + 1)[:n_out]
    return np.stack([np.interp(targets, s, ring[:, 0]),
                     np.interp(targets, s, ring[:, 1])], axis=-1)


def lasso_curve(barrier_radius=1.0, n=384):
    """Open curve wrapped around a circular barrier centered at the origin,
    with a waist dipping toward the barrier top: the standard popping
    scenario ("peanut").

    Endpoints sit on the barrier near the bottom opening, 0.35 rad from
    the bottom on each side, and lift off steeply (as the 1/4 power of the
    normalized angle from the end) so no vertex starts inside the pop band;
    two lobes bulge out symmetrically by about 0.5; the waist at the top
    starts 0.04 above the barrier and is carried onto it by its own
    curvature, producing a single tangential contact.
    """
    dip, lobe, opening = 0.04, 0.5, 0.35
    th_end = np.pi - opening  # polar angle from the top; endpoints near bottom
    th = np.linspace(-th_end, th_end, 4 * n + 1)
    u = (th_end - np.abs(th)) / th_end
    bulge = np.sin(np.pi * np.abs(th) / th_end)
    g = (dip + lobe * bulge ** 2) * u ** 0.25
    g[0] = g[-1] = 0.0
    r = barrier_radius + g
    # angle measured from the top of the barrier circle
    ang = 0.5 * np.pi - th
    dense = r[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    pts = resample_uniform(Component(dense), n)
    flags = np.zeros(n + 1, dtype=bool)
    flags[0] = flags[-1] = True
    return CurveState([Component(pts, closed=False, on_s=flags)])


def static_history(state: CurveState, t0, t1, n_snapshots=9):
    """History of a motionless configuration (for density and mass checks)."""
    snaps = [CurveState(list(state.components), float(t), state.barrier)
             for t in np.linspace(t0, t1, n_snapshots)]
    return FlowHistory(snaps, [], {"static": True}, state.barrier)


# -- integral checks ------------------------------------------------------------

@dataclass(frozen=True)
class SpacetimeTestFunction:
    """phi(x, t) >= 0 with exact spatial gradient and time derivative:
    ``value(pts, t)`` and ``dt(pts, t)`` map points (N, 2) to (N,) and
    ``grad(pts, t)`` maps them to (N, 2)."""

    value: Callable[[np.ndarray, float], np.ndarray]
    grad: Callable[[np.ndarray, float], np.ndarray]
    dt: Callable[[np.ndarray, float], np.ndarray]

    @classmethod
    def constant(cls, c=1.0):
        return cls(lambda p, t: np.full(len(p), c),
                   lambda p, t: np.zeros_like(p),
                   lambda p, t: np.zeros(len(p)))

    def check_admissible(self, barrier, times):
        """Nonnegative, with spatial gradient tangent to the barrier on it,
        both to 1e-8 at 400 barrier samples."""
        if barrier is None:
            return
        tol = 1e-8
        pts = barrier.boundary_samples(400)
        normals = barrier.normal(pts)
        for t in times:
            if np.any(self.value(pts, t) < -tol):
                raise InadmissibleTestFunction("test function is negative")
            g = self.grad(pts, t)
            if np.abs(np.sum(g * normals, axis=-1)).max() > tol:
                raise InadmissibleTestFunction(
                    "gradient not tangent to the barrier on the barrier")


@dataclass
class DissipationReport:
    lhs: float
    rhs: float
    gap: float
    tol: float
    passed: bool


def dissipation_inequality_check(history: FlowHistory, phi: SpacetimeTestFunction,
                            a, b):
    """Integral mass inequality between times a and b.

    LHS is the test-function mass drop; RHS accumulates the curvature
    dissipation, the curvature-gradient pairing, and the explicit time
    derivative, by trapezoid over the stored snapshots.  Returns a report
    with gap = RHS - LHS, which must exceed -C (dt + h^2)(b - a) for the
    discretization constant C = 100.

    Pop and Vanish events inside (a, b) are instantaneous mass drops: the
    interval is split at each event (with a one-cadence margin, since the
    straightening spike after a pop is shorter than the snapshot cadence and
    would alias the dissipation integral), the smooth pieces are checked as
    above, and each jump piece passes when the weighted mass does not
    increase beyond tolerance.
    """
    C = 100.0
    times = history.times
    sel = (times >= a - 1e-12) & (times <= b + 1e-12)
    snap_times = times[sel]
    if len(snap_times) < 2:
        raise OutOfHistory("need at least two snapshots in [a, b]")
    phi.check_admissible(history.barrier, [snap_times[0], snap_times[-1]])
    cadence = float(np.diff(snap_times).max())

    event_times = sorted({e.time for e in history.events_in(a, b)
                          if e.kind in ("Pop", "Vanish")})
    # carve [a, b] into smooth pieces and jump windows around events
    pieces = []
    cursor = a
    for te in event_times:
        lo = max(cursor, te - 1.5 * cadence)
        hi = min(b, te + 2.5 * cadence)
        if lo - cursor > cadence:
            pieces.append(("smooth", cursor, lo))
        pieces.append(("jump", lo, hi))
        cursor = hi
    if b - cursor > cadence or not pieces:
        pieces.append(("smooth", cursor, b))

    lhs_total = 0.0
    rhs_total = 0.0
    worst_gap = np.inf
    tol_total = 0.0
    all_pass = True
    for kind, lo, hi in pieces:
        state_lo = history.slice_at(lo)
        state_hi = history.slice_at(hi)
        lhs = integrate_slice(state_hi, lambda p: phi.value(p, hi), order=4) \
            - integrate_slice(state_lo, lambda p: phi.value(p, lo), order=4)
        lhs_total += lhs
        if kind == "jump":
            # mass may only drop across a pop or vanish
            phimax = 0.0
            for st in (state_lo, state_hi):
                pts = st.all_points()
                if len(pts):
                    phimax = max(phimax, float(np.max(phi.value(pts, lo))))
            h_loc = min(state_lo.h_min(), 1.0)
            tol = C * (hi - lo) + 2.0 * phimax * h_loc
            ok = lhs <= tol
            gap = tol - lhs
            rhs_total += min(lhs, 0.0)
        else:
            rhs, h_sq = _dissipation_integral(history, phi, lo, hi)
            rhs_total += rhs
            dt_grid = cadence
            tol = C * (dt_grid + h_sq) * max(hi - lo, cadence)
            gap = rhs - lhs
            ok = gap >= -tol
        worst_gap = min(worst_gap, gap)
        tol_total += tol
        all_pass = all_pass and ok
    return DissipationReport(lhs=lhs_total, rhs=rhs_total,
                        gap=float(rhs_total - lhs_total), tol=float(tol_total),
                        passed=bool(all_pass))


def _effective_velocities(state: CurveState):
    """Per-vertex velocities of the discrete dynamics (one probe step).

    Equals the curvature velocity away from the barrier and additionally
    captures the projection and orthogonality enforcement at contacts.
    """
    h = state.h_min()
    if not np.isfinite(h):
        return [np.zeros_like(c.points) for c in state.components]
    dt = 0.2 * _CFL * h * h
    probe = step(state, dt)
    return [(cb.points - ca.points) / dt
            for ca, cb in zip(state.components, probe.components)]


def _dissipation_integral(history, phi, a, b):
    times = history.times
    sel = (times >= a - 1e-12) & (times <= b + 1e-12)
    snap_times = times[sel]
    if len(snap_times) < 2:
        snap_times = np.array([a, b])
    rates = []
    h_sq = 0.0
    for t in snap_times:
        s = history.slice_at(t)
        rate = 0.0
        vels = _effective_velocities(s)
        for comp, vel in zip(s.components, vels):
            _, w = turning_and_mass(comp.segment_vectors(),
                                    comp.segment_lengths(), comp.closed)
            pv = phi.value(comp.points, t)
            gv = phi.grad(comp.points, t)
            rate += float(np.sum(w * (-norm2_sq(vel) * pv
                                      + np.sum(vel * gv, axis=1))))
            if len(comp.points) > 1:
                h_sq = max(h_sq, comp.segment_lengths().max() ** 2)
        rate += integrate_slice(s, lambda p: phi.dt(p, t), order=4)
        rates.append(rate)
    return float(np.trapezoid(rates, snap_times)), h_sq


def _varifold(state: CurveState):
    """The slice as a varifold, or None when no component has a segment."""
    comps = [c for c in state.components if len(c.points) > 1]
    return DiscreteVarifold(comps) if comps else None


def state_ball_mass(state: CurveState, center, r):
    V = _varifold(state)
    return 0.0 if V is None else V.ball_mass(center, r)


# snapshots whose initial-slice ball masses mass_bound_check takes in one
# call: it bounds the (snapshots, segments) arrays, while a call per
# snapshot would repeat the per-call overhead
_MASS_BLOCK = 64


@dataclass
class MassBoundReport:
    holds: bool
    c: float
    support_c: float


def mass_bound_check(history: FlowHistory, z, r, kappa):
    """Forward mass bound mu(t)(B_r(z)) <= c^(1+t/kappa^2) mu(0)(B_{R(t)}(z))
    with R(t) = r + kappa + c t / kappa, reporting the smallest admissible c
    on the grid 1, 1.1, ..., 8.

    Also reports the smallest support constant with
    max |x - z| on spt mu(t) <= R_0 + kappa + c t / kappa.

    Each snapshot's mass in B_r(z) is measured once; the initial slice's
    masses in the balls B_R(t)(z) of a grid value are taken _MASS_BLOCK
    snapshots at a time, and a value is refused at its first failing block.
    """
    z = np.asarray(z, dtype=float)
    c_grid = np.concatenate([[1.0], np.arange(1.1, 8.01, 0.1)])
    t0 = history.times[0]
    mu0 = history.snapshots[0]
    V0 = _varifold(mu0)
    segments0 = None if V0 is None else V0.segments()
    ts = [s.time - t0 for s in history.snapshots]
    lhs = [state_ball_mass(s, z, r) for s in history.snapshots]

    def holds(c, lo):
        """The bound at grid value c on the block of snapshots from lo."""
        hi = lo + _MASS_BLOCK
        radii = np.array([r + kappa + c * t / kappa for t in ts[lo:hi]])
        mass0 = np.zeros(len(radii)) if segments0 is None \
            else ball_masses(*segments0, z, radii)
        return not any(m > c ** (1.0 + t / kappa ** 2) * m0 + 1e-12
                       for m, t, m0 in zip(lhs[lo:hi], ts[lo:hi], mass0))

    found = None
    for c in c_grid:
        if all(holds(c, lo) for lo in range(0, len(ts), _MASS_BLOCK)):
            found = float(c)
            break
    # support containment constant
    pts0 = mu0.all_points()
    R0 = float(norm2(pts0 - z).max()) if len(pts0) else 0.0
    support_c = 0.0
    for s in history.snapshots[1:]:
        t = s.time - t0
        if t <= 0 or not s.components:
            continue
        reach = float(norm2(s.all_points() - z).max())
        need = (reach - R0 - kappa) * kappa / t
        support_c = max(support_c, need)
    return MassBoundReport(holds=found is not None,
                           c=found if found is not None else np.inf,
                           support_c=max(support_c, 0.0))


@dataclass
class GraphEstimateReport:
    sup_quantity: float
    table: list  # (t, |u|/sqrt(t), |Du|, |D2u| sqrt(t), |du/dt| sqrt(t))


def graph_estimate_check(history: FlowHistory, x, window):
    """Local graph norms over the initial tangent line near a point x.

    For each snapshot time t in ``window`` the vertices within eight median
    segment lengths of x along the tangent line of the initial curve at x
    are expressed over that line and fit by a parabola;
    the scale-weighted combination |u|/sqrt(t) + |Du| + |D2u| sqrt(t) +
    |du/dt| sqrt(t) should stay bounded as t -> 0 for smooth initial data.
    """
    x = np.asarray(x, dtype=float)
    init = history.snapshots[0]
    t_init = init.time
    best = None
    for comp in init.components:
        d = norm2(comp.points - x)
        i = int(np.argmin(d))
        if best is None or d[i] < best[0]:
            best = (d[i], comp, i)
    if best is None:
        raise GraphFailure("empty initial slice")
    _, comp, i = best
    m = len(comp.points)
    i_prev = (i - 1) % m if comp.closed else max(i - 1, 0)
    i_next = (i + 1) % m if comp.closed else min(i + 1, m - 1)
    tangent = comp.points[i_next] - comp.points[i_prev]
    tangent = tangent / np.linalg.norm(tangent)
    normal = np.array([-tangent[1], tangent[0]])
    fit_width = 8.0 * np.median(comp.segment_lengths())

    table = []
    prev = None
    for t in history.times:
        if not (window[0] <= t - t_init <= window[1]) or t - t_init <= 0:
            continue
        s = history.slice_at(t)
        pts = s.all_points()
        # keep the local branch only, then require it to be graphical
        local = norm2(pts - x) <= 4.0 * fit_width
        pts = pts[local]
        xi = (pts - x) @ tangent
        eta = (pts - x) @ normal
        mask = np.abs(xi) <= fit_width
        if mask.sum() < 5:
            raise GraphFailure("not enough vertices for a local graph fit")
        xi_m, eta_m = xi[mask], eta[mask]
        if eta_m.max() - eta_m.min() > 2.0 * fit_width:
            raise GraphFailure("local slice is not a graph over the tangent line")
        A = np.stack([np.ones_like(xi_m), xi_m, xi_m ** 2], axis=-1)
        coef, *_ = np.linalg.lstsq(A, eta_m, rcond=None)
        u0, du, d2u = coef[0], coef[1], 2.0 * coef[2]
        tt = t - t_init
        dudt = 0.0
        if prev is not None:
            dudt = (u0 - prev[1]) / (tt - prev[0])
        table.append((tt, abs(u0) / np.sqrt(tt), abs(du),
                      abs(d2u) * np.sqrt(tt), abs(dudt) * np.sqrt(tt)))
        prev = (tt, u0)
    if not table:
        raise GraphFailure("no snapshots inside the window")
    sup_q = max(sum(row[1:]) for row in table)
    return GraphEstimateReport(sup_quantity=float(sup_q), table=table)
