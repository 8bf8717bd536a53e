"""Front-tracking curve shortening with a one-sided barrier constraint.

Curves are polylines moving by the discrete curvature vector

    kappa_i = 2 (e_i - e_{i-1}) / (l_i + l_{i-1}),

which is exact (magnitude 1/R, radially inward) on uniformly sampled
circles.  Vertices flagged as boundary points ride on the barrier: their
velocity is the barrier-tangential part of the mirrored-neighbor curvature,
their position is re-projected onto the barrier after each step, and a
single Gauss-Seidel pass rotates the adjacent vertex so the one-sided
quadratic tangent estimate meets the barrier orthogonally.  That boundary
arithmetic runs on plain floats with ``math``, so it does not depend on BLAS
or SIMD dispatch; each component's barrier queries go out in one batch.
Components are immutable and measure their segment lengths once, so a step,
the pop threshold, the remesh trigger, the vanish test and the next step
size share one measurement.

Interior vertices that reach the barrier moving inward trigger a "pop": the
touching vertex is duplicated into two boundary vertices placed on the
barrier and the curve splits there.  Popping, vanishing (short components
are deleted), and detected self-crossings are recorded as events.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .barrier import Barrier
from .errors import (GraphFailure, InadmissibleTestFunction, OutOfHistory,
                     StepTooLarge, WindowViolation)
from .varifold import Component, DiscreteVarifold


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
        return float(np.min(np.atleast_1d(self.barrier.distance(self.all_points()))))


@dataclass
class FlowEvent:
    time: float
    kind: str  # Pop | Vanish | Collision
    location: np.ndarray

    def to_dict(self):
        return {"time": self.time, "kind": self.kind,
                "location": [float(self.location[0]), float(self.location[1])]}


@dataclass
class FlowHistory:
    """Time-ordered snapshots plus the events between them."""

    snapshots: list
    events: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    barrier: Barrier | None = None

    @property
    def times(self):
        return np.array([s.time for s in self.snapshots])

    def slice_at(self, t):
        """State at time t: exact snapshot, vertexwise interpolation when the
        bracketing snapshots are compatible, else the nearest snapshot."""
        times = self.times
        if len(times) == 0:
            raise OutOfHistory("empty history")
        dt_grid = np.diff(times).max() if len(times) > 1 else 0.0
        if t < times[0] - 1e-9 - dt_grid or t > times[-1] + 1e-9 + dt_grid:
            raise OutOfHistory(f"time {t} outside stored range "
                               f"[{times[0]}, {times[-1]}]")
        i = int(np.argmin(np.abs(times - t)))
        if abs(times[i] - t) < 1e-12:
            return self.snapshots[i]
        lo = int(np.searchsorted(times, t) - 1)
        lo = max(0, min(lo, len(times) - 2))
        hi = lo + 1
        a, b = self.snapshots[lo], self.snapshots[hi]
        if t < times[0] or t > times[-1]:
            return self.snapshots[i]
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
    """Curvature velocity at every vertex; boundary vertices slide tangentially.

    Boundary vertices use a mirrored neighbor across the barrier, which by
    symmetry produces a barrier-tangential turning vector; the tangential
    projection guards against curvature of the barrier itself.  Free (off
    barrier) endpoints of open chains are pinned.
    """
    pts = comp.points
    m = len(pts)
    vel = np.zeros_like(pts)
    if m < 2:
        return vel
    seg_starts, seg_ends = comp.segments()
    e = seg_ends - seg_starts
    L = comp.segment_lengths()
    if comp.closed:
        e_unit = e / L[:, None]
        vel = 2.0 * (e_unit - np.roll(e_unit, 1, axis=0)) \
            / (L + np.roll(L, 1))[:, None]
        return vel
    if m > 2:
        e_unit = e / L[:, None]
        vel[1:-1] = 2.0 * (e_unit[1:] - e_unit[:-1]) / (L[1:] + L[:-1])[:, None]
    ends = _boundary_ends(comp) if barrier is not None else []
    if not ends:
        return vel
    mirrors = barrier.reflect_point(pts[[nb for _, nb, _ in ends]]).tolist()
    normals = barrier.normal(pts[[j for j, _, _ in ends]]).tolist()
    for (j, nb, _), (mx, my), (nx, ny) in zip(ends, mirrors, normals):
        (xj, yj), (xn, yn) = pts[[j, nb]].tolist()
        e1x, e1y = xn - xj, yn - yj
        e0x, e0y = xj - mx, yj - my
        l1 = math.sqrt(e1x * e1x + e1y * e1y)
        l0 = math.sqrt(e0x * e0x + e0y * e0y)
        if l0 < 1e-300 or l1 < 1e-300:
            continue
        kx = 2.0 * (e1x / l1 - e0x / l0) / (l0 + l1)
        ky = 2.0 * (e1y / l1 - e0y / l0) / (l0 + l1)
        kn = kx * nx + ky * ny
        vel[j] = (kx - kn * nx, ky - kn * ny)
    return vel


# -- boundary vertices ----------------------------------------------------------
#
# Plain floats and ``math`` throughout: a handful of 2-vectors per endpoint do
# not pay for numpy calls, and the results do not depend on BLAS or SIMD
# dispatch.

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


def step(state: CurveState, dt, cfl=0.4):
    """One explicit Euler step of curvature motion.

    Interior vertices move by the discrete curvature vector; boundary
    vertices move tangentially and are re-projected onto the barrier, then
    one Gauss-Seidel pass restores orthogonality at the contact.  Each new
    component is built from its final point array.
    """
    h = state.h_min()
    if dt > cfl * h * h * (1.0 + 1e-9):
        raise StepTooLarge(f"dt={dt:.3g} exceeds {cfl:.2f} h_min^2 = "
                           f"{cfl * h * h:.3g}")
    S = state.barrier
    new_comps = []
    for comp in state.components:
        pts = comp.points + dt * vertex_velocity(comp, S)
        if S is not None and np.any(comp.on_s):
            flagged = np.nonzero(comp.on_s)[0]
            pts[flagged] = np.atleast_2d(S.project(pts[flagged]))
            ends = _boundary_ends(comp) if len(pts) > 2 else []
            if ends:
                targets = (-S.normal(pts[[j for j, _, _ in ends]])).tolist()
                _gauss_seidel_orthogonality(pts, ends, targets)
        new_comps.append(Component(pts, comp.closed, comp.on_s))
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
        depth = np.atleast_1d(S.omega_signed(pts))
        d = np.abs(depth)  # one-sided flows: |omega depth| = barrier distance
        near = interior & ((d < thresh) | (depth < 0.0))
        if not np.any(near):
            out.append(comp)
            continue
        vel = vertex_velocity(comp, S)
        feet = np.atleast_2d(S.project(pts))
        toward = np.sum(vel * (feet - pts), axis=1) > 0.0
        trigger = interior & (((d < thresh) & toward) | (depth < 0.0))
        idx = np.nonzero(trigger)[0]
        if len(idx) == 0:
            out.append(comp)
            continue
        idx = _coalesce_adjacent(idx, d, len(pts), comp.closed)
        pieces = _split_component(comp, idx, S)
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


def _split_component(comp: Component, cuts, S: Barrier):
    """Split at the cut vertices; each cut vertex becomes two boundary vertices."""
    pts, flags = comp.points, comp.on_s
    feet = {int(i): np.asarray(S.project(pts[i]), dtype=float) for i in cuts}
    pieces = []
    cuts = sorted(int(i) for i in cuts)
    if comp.closed:
        ordered = cuts + [cuts[0] + len(pts)]
        for a, b in zip(ordered[:-1], ordered[1:]):
            ring = np.arange(a, b + 1) % len(pts)
            p = pts[ring]
            f = flags[ring]
            p[0] = feet[int(ring[0])]
            p[-1] = feet[int(ring[-1])]
            f[0] = f[-1] = True
            if len(p) >= 3:
                pieces.append(Component(p, False, f))
    else:
        bounds = [0] + cuts + [len(pts) - 1]
        for k in range(len(bounds) - 1):
            a, b = bounds[k], bounds[k + 1]
            p = pts[a:b + 1].copy()
            f = flags[a:b + 1].copy()
            if a in feet:
                p[0] = feet[a]
                f[0] = True
            if b in feet:
                p[-1] = feet[b]
                f[-1] = True
            if len(p) >= 3:
                pieces.append(Component(p, False, f))
    return pieces


def _local_curvature_pair(pts, flags, i, j, closed):
    """Average turning-based curvature vector at the two merge vertices."""
    m = len(pts)

    def kappa_at(v):
        if closed:
            p_prev, p_next = pts[(v - 1) % m], pts[(v + 1) % m]
        else:
            if v == 0 or v == m - 1:
                return np.zeros(2)
            p_prev, p_next = pts[v - 1], pts[v + 1]
        e0 = pts[v] - p_prev
        e1 = p_next - pts[v]
        l0, l1 = np.linalg.norm(e0), np.linalg.norm(e1)
        if l0 < 1e-300 or l1 < 1e-300:
            return np.zeros(2)
        return 2.0 * (e1 / l1 - e0 / l0) / (l0 + l1)

    return 0.5 * (kappa_at(i) + kappa_at(j))


def remesh(state: CurveState, h_target):
    """Split segments longer than 1.5 h and merge interior vertices of
    segments shorter than 0.5 h; boundary flags are preserved and the total
    length changes by at most 1e-3 of itself.

    Components that need no change are passed on as they are, and the state
    itself is returned when none does.
    """
    lo, hi = 0.5 * h_target, 1.5 * h_target
    fine = [len(c.points) > 1 and c.segment_lengths().min() >= lo
            and c.segment_lengths().max() <= hi for c in state.components]
    if all(fine):
        return state
    new_comps = []
    total_before = sum(float(c.segment_lengths().sum())
                       for c in state.components)
    budget = 1e-3 * max(total_before, 1e-12)
    spent = 0.0
    for comp, ok in zip(state.components, fine):
        if ok:
            new_comps.append(comp)
            continue
        pts, flags, lens = comp.points, comp.on_s, comp.segment_lengths()
        base_len = float(lens.sum())
        # merge pass, kept within the length-change budget; leftovers wait
        # for the next remesh call
        changed = True
        while changed and len(pts) > (3 if not comp.closed else 4):
            changed = False
            order = np.argsort(lens)
            for si in order:
                if lens[si] >= lo:
                    break
                i, j = si, (si + 1) % len(pts)
                if not comp.closed and si + 1 >= len(pts):
                    continue
                if flags[i] and flags[j]:
                    continue
                if flags[i] or (not comp.closed and i == 0):
                    keep, drop, target = i, j, pts[i]
                elif flags[j] or (not comp.closed and j == len(pts) - 1):
                    keep, drop, target = j, i, pts[j]
                else:
                    # midpoint plus a sagitta correction from the local
                    # curvature, so merging does not dent smooth arcs
                    keep, drop = i, j
                    mid = 0.5 * (pts[i] + pts[j])
                    chord = np.linalg.norm(pts[j] - pts[i])
                    kap = _local_curvature_pair(pts, flags, i, j, comp.closed)
                    target = mid + kap * (chord ** 2 / 8.0)
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


def _self_intersects(state: CurveState):
    """Any proper crossing between non-adjacent segments (all components)."""
    segs = [c.segments() for c in state.components]
    n_seg = np.array([len(a) for a, _ in segs], dtype=int)
    M = int(n_seg.sum())
    if M < 3:
        return False
    P0 = np.vstack([a for a, _ in segs])
    d = np.vstack([b for _, b in segs]) - P0

    def cross(a, b):
        return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]

    rel = P0[None, :, :] - P0[:, None, :]
    denom = cross(d[:, None, :], d[None, :, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        t = cross(rel, d[None, :, :]) / denom
        u = cross(rel, d[:, None, :]) / denom
    eps = 1e-9
    hit = (np.abs(denom) > 1e-300) & (t > eps) & (t < 1 - eps) & \
          (u > eps) & (u < 1 - eps)
    comp_id = np.repeat(np.arange(len(segs)), n_seg)
    seg_id = np.concatenate([np.arange(n) for n in n_seg])
    same_comp = comp_id[:, None] == comp_id[None, :]
    gap = np.abs(seg_id[:, None] - seg_id[None, :])
    ncomp_seg = np.repeat(n_seg, n_seg)
    adjacent = same_comp & ((gap <= 1) | (gap >= ncomp_seg[:, None] - 1))
    return bool(np.any(hit & ~adjacent))


def run(initial: CurveState, t_end, h_target, snapshot_dt, cfl=0.4,
        pop_threshold=None, vanish_length=None, barrier=None,
        self_intersection_checks=50, config_echo=None):
    """Drive the flow: step, pop, remesh, snapshot on an exact cadence grid.

    Stops at ``t_end``, on total extinction, or on a Collision event.
    ``vanish_length`` (default 10 h_target) deletes components shorter than
    the threshold, recording a Vanish event.

    Components are values that measure their segment lengths once, so the
    pop threshold, the remesh trigger, the vanish test and the next ``dt``
    share one measurement per component; snapshots share components with
    the running state instead of copying them.
    """
    state = CurveState(list(initial.components), initial.time,
                       barrier if barrier is not None else initial.barrier)
    vanish_len = 10.0 * h_target if vanish_length is None else vanish_length
    t0 = state.time
    n_snap = int(round((t_end - t0) / snapshot_dt))
    snap_times = t0 + snapshot_dt * np.arange(n_snap + 1)
    events = []
    snapshots = [state]
    check_stride = max(1, n_snap // max(self_intersection_checks, 1))
    halted = False

    for k in range(1, n_snap + 1):
        t_next = snap_times[k]
        while state.time < t_next - 1e-14:
            h = state.h_min()
            dt = min(cfl * h * h, t_next - state.time)
            state = step(state, dt, cfl=cfl)
            state, pop_events = detect_and_pop(state, pop_threshold)
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
        if k % check_stride == 0 and _self_intersects(state):
            events.append(FlowEvent(state.time, "Collision",
                                    state.all_points().mean(axis=0)))
            halted = True
            break

    cfg = dict(config_echo or {})
    cfg.update({"t_end": t_end, "h_target": h_target, "snapshot_dt": snapshot_dt,
                "cfl": cfl, "halted": halted})
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


def segment_curve(p0, p1, n=16, flag_start=False, flag_end=False):
    s = np.linspace(0.0, 1.0, n + 1)[:, None]
    pts = np.asarray(p0) + s * (np.asarray(p1) - np.asarray(p0))
    flags = np.zeros(n + 1, dtype=bool)
    flags[0], flags[-1] = flag_start, flag_end
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


def lasso_curve(barrier_radius=1.0, dip=0.04, lobe=0.5, opening=0.35,
                liftoff_power=0.25, n=384, center=(0.0, 0.0)):
    """Open curve wrapped around a circular barrier with a waist dipping
    toward the barrier top: the standard popping scenario ("peanut").

    Endpoints sit on the barrier near the bottom opening and lift off
    steeply (exponent ``liftoff_power``) so no vertex starts inside the pop
    band; two lobes bulge out symmetrically; the waist at the top starts
    ``dip`` above the barrier and is carried onto it by its own curvature,
    producing a single tangential contact.
    """
    th_end = np.pi - opening  # polar angle from the top; endpoints near bottom
    th = np.linspace(-th_end, th_end, 4 * n + 1)
    u = (th_end - np.abs(th)) / th_end
    bulge = np.sin(np.pi * np.abs(th) / th_end)
    g = (dip + lobe * bulge ** 2) * u ** liftoff_power
    g[0] = g[-1] = 0.0
    r = barrier_radius + g
    # angle measured from the top of the barrier circle
    ang = 0.5 * np.pi - th
    dense = np.asarray(center) + r[:, None] * np.stack(
        [np.cos(ang), np.sin(ang)], axis=-1)
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

class SpacetimeTestFunction:
    """phi(x, t) >= 0 with exact spatial gradient and time derivative."""

    def __init__(self, value, grad, dt, label=""):
        self._value, self._grad, self._dt = value, grad, dt
        self.label = label

    def value(self, pts, t):
        return self._value(np.atleast_2d(np.asarray(pts, dtype=float)), t)

    def grad(self, pts, t):
        return self._grad(np.atleast_2d(np.asarray(pts, dtype=float)), t)

    def dt(self, pts, t):
        return self._dt(np.atleast_2d(np.asarray(pts, dtype=float)), t)

    @classmethod
    def constant(cls, c=1.0):
        return cls(lambda p, t: np.full(len(p), c),
                   lambda p, t: np.zeros_like(p),
                   lambda p, t: np.zeros(len(p)),
                   label=f"const({c})")

    def check_admissible(self, barrier, times, tol=1e-8, n_samples=400):
        """Nonnegative, with spatial gradient tangent to the barrier on it."""
        if barrier is None:
            return
        pts = barrier.boundary_samples(n_samples)
        normals = np.atleast_2d(barrier.normal(pts))
        for t in times:
            if np.any(self.value(pts, t) < -tol):
                raise InadmissibleTestFunction("test function is negative")
            g = self.grad(pts, t)
            if np.abs(np.sum(g * normals, axis=-1)).max() > tol:
                raise InadmissibleTestFunction(
                    "gradient not tangent to the barrier on the barrier")


def _lumped_vertex_masses(comp: Component):
    lens = comp.segment_lengths()
    m = len(comp.points)
    w = np.zeros(m)
    if comp.closed:
        w = 0.5 * (lens + np.roll(lens, 1))
    else:
        w[:-1] += 0.5 * lens
        w[1:] += 0.5 * lens
    return w


@dataclass
class DissipationReport:
    lhs: float
    rhs: float
    gap: float
    tol: float
    passed: bool


def dissipation_inequality_check(history: FlowHistory, phi: SpacetimeTestFunction,
                            a, b, C=100.0):
    """Integral mass inequality between times a and b.

    LHS is the test-function mass drop; RHS accumulates the curvature
    dissipation, the curvature-gradient pairing, and the explicit time
    derivative, by trapezoid over the stored snapshots.  Returns a report
    with gap = RHS - LHS, which must exceed -C (dt + h^2)(b - a) for the
    discretization constant C.

    Pop and Vanish events inside (a, b) are instantaneous mass drops: the
    interval is split at each event (with a one-cadence margin, since the
    straightening spike after a pop is shorter than the snapshot cadence and
    would alias the dissipation integral), the smooth pieces are checked as
    above, and each jump piece passes when the weighted mass does not
    increase beyond tolerance.
    """
    from .density import integrate_slice
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
    dt = 0.2 * 0.4 * h * h
    probe = step(state, dt)
    return [(cb.points - ca.points) / dt
            for ca, cb in zip(state.components, probe.components)]


def _dissipation_integral(history, phi, a, b):
    from .density import integrate_slice
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
            w = _lumped_vertex_masses(comp)
            pv = phi.value(comp.points, t)
            gv = phi.grad(comp.points, t)
            rate += float(np.sum(w * (-np.sum(vel ** 2, axis=1) * pv
                                      + np.sum(vel * gv, axis=1))))
            if len(comp.points) > 1:
                h_sq = max(h_sq, comp.segment_lengths().max() ** 2)
        rate += integrate_slice(s, lambda p: phi.dt(p, t), order=4)
        rates.append(rate)
    return float(np.trapezoid(rates, snap_times)), h_sq


def state_ball_mass(state: CurveState, center, r):
    comps = [c for c in state.components if len(c.points) > 1]
    if not comps:
        return 0.0
    return DiscreteVarifold(comps).ball_mass(center, r)


@dataclass
class MassBoundReport:
    holds: bool
    c: float
    support_c: float


def mass_bound_check(history: FlowHistory, z, r, kappa, window_radius=None,
                     c_grid=None):
    """Forward mass bound mu(t)(B_r(z)) <= c^(1+t/kappa^2) mu(0)(B_{R(t)}(z))
    with R(t) = r + kappa + c t / kappa, reporting the smallest admissible c.

    Also reports the smallest support constant with
    max |x - z| on spt mu(t) <= R_0 + kappa + c t / kappa.
    """
    z = np.asarray(z, dtype=float)
    if c_grid is None:
        c_grid = np.concatenate([[1.0], np.arange(1.1, 8.01, 0.1)])
    t0 = history.times[0]
    mu0 = history.snapshots[0]
    found = None
    for c in c_grid:
        ok = True
        for s in history.snapshots:
            t = s.time - t0
            R = r + kappa + c * t / kappa
            if window_radius is not None and np.linalg.norm(z) + R > window_radius:
                raise WindowViolation("comparison ball leaves the window")
            lhs = state_ball_mass(s, z, r)
            rhs = c ** (1.0 + t / kappa ** 2) * state_ball_mass(mu0, z, R)
            if lhs > rhs + 1e-12:
                ok = False
                break
        if ok:
            found = float(c)
            break
    # support containment constant
    pts0 = mu0.all_points()
    R0 = float(np.linalg.norm(pts0 - z, axis=1).max()) if len(pts0) else 0.0
    support_c = 0.0
    for s in history.snapshots[1:]:
        t = s.time - t0
        if t <= 0 or not s.components:
            continue
        reach = float(np.linalg.norm(s.all_points() - z, axis=1).max())
        need = (reach - R0 - kappa) * kappa / t
        support_c = max(support_c, need)
    return MassBoundReport(holds=found is not None,
                           c=found if found is not None else np.inf,
                           support_c=max(support_c, 0.0))


@dataclass
class GraphEstimateReport:
    sup_quantity: float
    table: list  # (t, |u|/sqrt(t), |Du|, |D2u| sqrt(t), |du/dt| sqrt(t))


def graph_estimate_check(history: FlowHistory, x, window, fit_width=None):
    """Local graph norms over the initial tangent line near a point x.

    For each snapshot time t in ``window`` the nearby vertices are expressed
    over the tangent line of the initial curve at x and fit by a parabola;
    the scale-weighted combination |u|/sqrt(t) + |Du| + |D2u| sqrt(t) +
    |du/dt| sqrt(t) should stay bounded as t -> 0 for smooth initial data.
    """
    x = np.asarray(x, dtype=float)
    init = history.snapshots[0]
    t_init = init.time
    best = None
    for comp in init.components:
        d = np.linalg.norm(comp.points - x, axis=1)
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
    if fit_width is None:
        fit_width = 8.0 * np.median(comp.segment_lengths())

    table = []
    prev = None
    for t in history.times:
        if not (window[0] <= t - t_init <= window[1]) or t - t_init <= 0:
            continue
        s = history.slice_at(t)
        pts = s.all_points()
        # keep the local branch only, then require it to be graphical
        local = np.linalg.norm(pts - x, axis=1) <= 4.0 * fit_width
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
