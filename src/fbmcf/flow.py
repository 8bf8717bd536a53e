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

Every component of at least three vertices advances by linearly implicit
BDF2 with variable steps (Dziuk, M3AS 1994; Akrivis, Li & Lubich, Math.
Comp. 2017): the lengths are frozen at the extrapolation
l* = (1 + w) l^n - w l^{n-1}, w = dt_n / dt_{n-1}, and one tridiagonal
solve gives the new level, shared by x and y on a closed component and by
the two coordinates of the line's frame on an open chain with no barrier
or a flat one.  On an open chain against a curved barrier a flagged end
moves along the tangent line at its current point, with the line's end row
projected on it, and the chain's coordinates in the frame of that tangent
order into one tridiagonal solve too.  A component without a previous
level (new, split, popped or remeshed), or whose extrapolated lengths are
not all positive, restarts with one backward-Euler step.  The step has no
stability bound; ``run`` sizes it from ``h_target`` and the snapshot
cadence.  Flagged ends are re-projected onto the barrier after each step.
On a curved barrier a single Gauss-Seidel pass then rotates the vertex next
to each flagged end so the one-sided quadratic tangent estimate meets the
barrier orthogonally, and ``remesh`` merges the chain's short segments.
That estimate and solve run on plain floats with ``math``, so they do not
depend on BLAS or SIMD dispatch.  Components are immutable and measure
their segment lengths once, so a step, the pop band, the remesh trigger
and the vanish test share one measurement.

A flow must pop upon tangential contact with the barrier, and a tangential
contact is a local minimum of the signed depth along the curve: an
unflagged vertex pops when its depth is below the previous vertex's and
not above the next one's, and it has crossed the barrier or lies within
half the shortest segment moving toward it.  The vertex is duplicated into
two boundary vertices on the barrier and the curve splits there.  Popping,
vanishing (short components are deleted), and detected self-crossings are
recorded as events.  Every
snapshot is checked for a crossing of two segments that share no vertex,
in any component or between components; the last and first
segments of a closed component are adjacent, the ends of an open chain
are not.  A state of one component first tries an O(M) certificate in
the number M of segments: a strictly convex ring (turns of one sign, a
tangent that winds once) or a chain that is a graph over its chord cannot
cross itself, with a margin of 1e-6 longest segments, 1000 times the
crossing band.  Any other state builds a k-d tree of the segment midpoints
and tests the pairs within one longest segment, so its time grows as
M log M and its memory as M while the lengths stay comparable, as
remeshing keeps them.

A run's snapshots go into a ``FlowHistory`` as columns: one read-only
coordinate array and one flag array over every vertex of every snapshot,
with offsets per component and per snapshot.  Slices, summaries, the mass
scan, parabolic rescaling and the file layout ``fbmcf-history/3`` (one
base64 block of coordinates and the flagged vertex indices per snapshot)
work on the columns; ``snapshots`` are views of them, built on demand.
"""

from __future__ import annotations

import binascii
import json
import math
import numbers
import sys
from collections.abc import Sequence
from dataclasses import FrozenInstanceError, dataclass
from typing import Callable

import numpy as np

from .barrier import Barrier, norm2, norm2_sq
from .errors import (ConfigError, GraphFailure, InadmissibleTestFunction,
                     OutOfHistory, StepTooLarge)
from .varifold import (Component, DiscreteVarifold, ball_mass_terms,
                       ball_masses, integrate_slice, lumped_mass,
                       turning_and_mass)


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


# the header marker of the history file layout that FlowHistory.to_jsonl
# writes and from_jsonl reads
HISTORY_FORMAT = "fbmcf-history/3"

# vertices a scan over a history takes in one pass (a longer snapshot goes
# alone): it bounds the transient arrays, while a pass per snapshot would
# repeat the per-call overhead
_SCAN_BLOCK = 1 << 14


def _offsets(counts):
    """(len(counts) + 1,) int64 running totals from 0."""
    return np.cumsum([0, *counts], dtype=np.int64)


def _decode_line(rec):
    """(t, counts, closed, flagged, coordinate bytes) of one history line;
    ValueError on a malformed one."""
    t, counts, closed, flagged = (rec["t"], rec["counts"], rec["closed"],
                                  rec["flagged"])
    if not math.isfinite(t):
        raise ValueError(f"a snapshot at time {t}")
    if not (isinstance(counts, list) and isinstance(closed, list)
            and isinstance(flagged, list) and len(counts) == len(closed)):
        raise ValueError(f"counts {counts!r} with closed flags {closed!r}")
    raw = binascii.a2b_base64(rec["points"], strict_mode=True)
    if len(raw) != 16 * sum(counts):
        raise ValueError(f"{len(raw)} coordinate bytes for {sum(counts)} "
                         "points")
    return float(t), counts, closed, flagged, raw


class _Snapshots(Sequence):
    """A history's snapshots (``FlowHistory._state``), each built when it is
    first read: a length or a few reads build no more."""

    def __init__(self, history):
        self._history = history

    def __len__(self):
        return len(self._history.times)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._history._state,
                             range(*i.indices(len(self)))))
        return self._history._state(range(len(self))[i])

    def __iter__(self):
        return map(self._history._state, range(len(self)))


# FlowHistory's column attributes, fixed at construction
_COLUMNS = ("_points", "_flags", "_vertex_offsets", "_closed",
            "_component_offsets", "times")
_KEPT = ("snapshots",) + _COLUMNS


class FlowHistory:
    """Time-ordered snapshots plus the events between them, kept as columns
    of read-only arrays:

    - ``_points`` (N, 2) and ``_flags`` (N,): the coordinates and barrier
      flags of every vertex, snapshot after snapshot and component after
      component;
    - ``_vertex_offsets`` (C + 1,) and ``_closed`` (C,): where each of the C
      components starts in them, and whether it is closed;
    - ``_component_offsets`` (S + 1,) and ``times`` (S,): where each of the
      S snapshots starts among the components, and its time.

    Components have multiplicity one.  ``snapshots`` is a read-only
    sequence of ``CurveState``s on the history's ``barrier`` whose
    components are read-only views of the columns, each built when first
    read and then kept, which measure their segments when first asked.
    ``slice_at`` builds only the snapshots around its time, and
    ``summary_rows``, the file layout, ``tangent.rescale`` and the mass
    scan of ``mass_bound_check`` read the columns alone.

    ``snapshots`` and the columns cannot be reassigned or deleted
    (``FrozenInstanceError``), so values computed from them and kept on the
    history, the reflected densities of ``density.reflected_density``, stay
    valid.  ``barrier`` may be reassigned: no kept value reads it.  A copy
    or an unpickled history is built from the columns again.
    """

    def __init__(self, snapshots, events=(), config=None, barrier=None):
        states = tuple(snapshots)
        comps = [c for s in states for c in s.components]
        if any(c.multiplicity != 1 for c in comps):
            raise ValueError("a history's components have multiplicity one")
        columns = (
            np.concatenate([c.points for c in comps]) if comps
            else np.zeros((0, 2)),
            np.concatenate([c.on_s for c in comps]) if comps
            else np.zeros(0, bool),
            _offsets([len(c.points) for c in comps]),
            np.array([c.closed for c in comps], bool),
            _offsets([len(s.components) for s in states]),
            np.array([s.time for s in states], float))
        self._init(columns, list(events), {} if config is None else config,
                   barrier)

    @classmethod
    def _from_columns(cls, columns, events, config, barrier):
        history = object.__new__(cls)
        history._init(columns, events, config, barrier)
        return history

    def _init(self, columns, events, config, barrier):
        for name, a in zip(_COLUMNS, columns):
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        self.events, self.config, self.barrier = events, config, barrier
        times = self.times
        self._dt_grid = np.diff(times).max() if len(times) > 1 else 0.0
        self._densities = {}  # see density.reflected_density
        # the offsets, closed flags and times as Python numbers, for _state
        self._lists = (self._component_offsets.tolist(),
                       self._vertex_offsets.tolist(), self._closed.tolist(),
                       times.tolist())

    def __setattr__(self, name, value):
        if name in _KEPT:
            raise FrozenInstanceError(
                f"cannot assign to {name!r}: a FlowHistory keeps its snapshots")
        object.__setattr__(self, name, value)
        if name == "barrier":  # built snapshots carry the old one
            object.__setattr__(self, "_states", [None] * len(self.times))

    def __delattr__(self, name):
        if name in _KEPT:
            raise FrozenInstanceError(
                f"cannot delete {name!r}: a FlowHistory keeps its snapshots")
        object.__delattr__(self, name)

    def __reduce__(self):
        # a copy or an unpickled history is built anew: read-only columns and
        # an empty density memo
        return (FlowHistory._from_columns,
                (tuple(getattr(self, name) for name in _COLUMNS),
                 self.events, self.config, self.barrier))

    def _with_points(self, points, times, barrier):
        """The same components at new coordinates and times, on barrier,
        with no events and a copy of the config."""
        return FlowHistory._from_columns(
            (points, self._flags, self._vertex_offsets, self._closed,
             self._component_offsets, times), [], dict(self.config), barrier)

    @property
    def snapshots(self):
        return _Snapshots(self)

    def _state(self, i):
        """Snapshot i as a CurveState over views of the columns, built once
        (for each barrier the history is given)."""
        state = self._states[i]
        if state is None:
            comp, vert, closed, times = self._lists
            points, flags = self._points, self._flags
            state = self._states[i] = CurveState(
                [Component._view(points[vert[k]:vert[k + 1]], closed[k],
                                 flags[vert[k]:vert[k + 1]])
                 for k in range(comp[i], comp[i + 1])],
                times[i], self.barrier)
        return state

    def slice_at(self, t):
        """State at time t: exact snapshot, vertexwise interpolation when the
        bracketing snapshots are compatible, else the snapshot on t's side of
        the first Pop or Vanish event between them (the nearer snapshot
        when there is none).  Raises OutOfHistory for a t outside the stored
        range or not finite."""
        times = self.times
        if len(times) == 0:
            raise OutOfHistory("empty history")
        # written so that a NaN t fails it too
        if not (times[0] - 1e-9 - self._dt_grid <= t
                <= times[-1] + 1e-9 + self._dt_grid):
            raise OutOfHistory(f"time {t} outside stored range "
                               f"[{times[0]}, {times[-1]}]")
        i = int(np.argmin(np.abs(times - t)))
        if abs(times[i] - t) < 1e-12 or t < times[0] or t > times[-1]:
            return self._state(i)
        lo = int(np.searchsorted(times, t) - 1)
        lo = max(0, min(lo, len(times) - 2))
        hi = lo + 1
        a, b = self._state(lo), self._state(hi)
        lam = (t - times[lo]) / (times[hi] - times[lo])
        if len(a.components) != len(b.components) or any(
                ca.closed != cb.closed
                for ca, cb in zip(a.components, b.components)):
            jump = min((e.time for e in self.events
                        if e.kind in ("Pop", "Vanish")
                        and times[lo] < e.time <= times[hi]),
                       default=0.5 * (times[lo] + times[hi]))
            return a if t < jump else b
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
        return CurveState(comps, t, self.barrier)

    def events_in(self, a, b):
        return [e for e in self.events if a <= e.time <= b]

    def _blocks(self):
        """(lo, hi) ranges of consecutive snapshots whose vertices total at
        most ``_SCAN_BLOCK`` (or one longer snapshot), covering the history."""
        starts = self._vertex_offsets[self._component_offsets]
        lo, n = 0, len(self.times)
        while lo < n:
            hi = int(np.searchsorted(starts, starts[lo] + _SCAN_BLOCK,
                                     side="right")) - 1
            hi = min(max(hi, lo + 1), n)
            yield lo, hi
            lo = hi

    def _segments(self, lo, hi):
        """Vertex indices (starts, ends) of the segments of snapshots lo to
        hi - 1, component after component in the order of
        ``Component.segments`` (a closed component's wrap-around segment
        last; one vertex makes no segment), and the segment offsets of
        their components, from 0 (one more entry than components)."""
        ka, kb = self._component_offsets[[lo, hi]]
        ends = self._vertex_offsets[ka:kb + 1]
        count = np.diff(ends)
        closed = self._closed[ka:kb] & (count > 1)
        last = ends[1:] - 1 - ends[0]  # within the block; meaningless if empty
        following = np.arange(ends[0] + 1, ends[-1] + 1)
        following[last[closed]] = ends[:-1][closed]
        has_next = np.ones(len(following), bool)
        has_next[last[(count > 0) & ~closed]] = False
        starts = np.flatnonzero(has_next)
        n_seg = np.where(closed, count, np.maximum(count - 1, 0))
        return starts + ends[0], following[starts], _offsets(n_seg)

    def to_jsonl(self, path):
        """A header line ``{"config": ..., "format": HISTORY_FORMAT}``, then
        one snapshot per line: ``{"closed", "counts", "events", "flagged",
        "points", "t"}``.  ``counts`` and ``closed`` hold each component's
        vertex count and closed flag, ``flagged`` the indices of the
        snapshot's vertices on the barrier (counted over its components in
        order), and ``points`` is the base64 text of the snapshot's
        coordinates as little-endian float64 in row-major order (x0, y0,
        x1, y1, ...), component after component, so every bit reads back,
        -0.0 included."""
        points = self._points.astype("<f8", copy=False)
        comps, verts, closed, times = self._lists
        with open(path, "w") as f:
            f.write(json.dumps({"config": self.config,
                                "format": HISTORY_FORMAT}, sort_keys=True)
                    + "\n")
            prev_t = -np.inf
            for i, t in enumerate(times):
                a, b = comps[i], comps[i + 1]
                lo, hi = verts[a], verts[b]
                rec = {
                    "t": t,
                    "counts": [verts[k + 1] - verts[k] for k in range(a, b)],
                    "closed": closed[a:b],
                    "flagged": np.flatnonzero(self._flags[lo:hi]).tolist(),
                    "points": binascii.b2a_base64(
                        points[lo:hi].tobytes(), newline=False).decode("ascii"),
                    "events": [e.to_dict() for e in self.events
                               if prev_t < e.time <= t],
                }
                f.write(json.dumps(rec, sort_keys=True) + "\n")
                prev_t = t

    @classmethod
    def from_jsonl(cls, path, barrier=None):
        """The history ``to_jsonl`` wrote to path, on ``barrier``.

        Raises ConfigError ("cannot read history ...") when the file cannot
        be opened or parsed, when its header lacks the ``HISTORY_FORMAT``
        marker (as every older layout does), and on invalid base64, vertex
        counts or closed flags that are not lists of non-negative integers
        and of booleans of one length, a coordinate byte count other than
        16 per vertex, a flagged index that is not an integer of the
        snapshot's vertices, or a non-finite coordinate or snapshot time.
        """
        times, counts, closed, flagged, events = [], [], [], [], []
        n_comps, n_points, n_flagged = [], [], []
        raw = bytearray()
        try:
            with open(path) as f:
                header = json.loads(f.readline())
                if not isinstance(header, dict) \
                        or header.get("format") != HISTORY_FORMAT:
                    raise ValueError(
                        f"its header has no format marker {HISTORY_FORMAT!r}"
                        "; an older history is rebuilt by fbmcf run")
                for line in f:
                    rec = json.loads(line)
                    t, c, cl, fl, coords = _decode_line(rec)
                    times.append(t)
                    counts += c
                    closed += cl
                    flagged += fl
                    n_comps.append(len(c))
                    n_points.append(len(coords) // 16)
                    n_flagged.append(len(fl))
                    raw += coords
                    events.extend(FlowEvent(e["time"], e["kind"],
                                            np.asarray(e["location"]))
                                  for e in rec["events"])
            if set(map(type, counts)) - {int} or min(counts, default=0) < 0 \
                    or set(map(type, closed)) - {bool}:
                raise ValueError("vertex counts that are not non-negative "
                                 "integers or closed flags that are not "
                                 "booleans")
            if set(map(type, flagged)) - {int}:
                raise ValueError("flagged indices that are not integers")
            points = np.frombuffer(raw, "<f8").reshape(-1, 2)
            if not np.isfinite(points).all():
                raise ValueError("a non-finite coordinate")
            index = np.array(flagged, np.int64)
            first = _offsets(n_points)
            if not (0 <= index).all() or not (
                    index < np.repeat(n_points, n_flagged)).all():
                raise ValueError("a flagged index beyond its snapshot")
            flags = np.zeros(len(points), bool)
            flags[index + np.repeat(first[:-1], n_flagged)] = True
        except (OSError, ValueError, KeyError, TypeError,
                OverflowError) as exc:
            raise ConfigError(f"cannot read history {path}: {exc}") from exc
        columns = (points, flags, _offsets(counts), np.array(closed, bool),
                   _offsets(n_comps), np.array(times, float))
        return cls._from_columns(columns, events, header.get("config", {}),
                                 barrier)

    def summary_rows(self):
        """(t, total length, least barrier distance, component count) of
        every snapshot, with the bits of ``CurveState.total_length`` and
        ``min_barrier_distance`` (inf without a barrier or a vertex): each
        component's lengths are summed on their own, the distances are
        taken a block of snapshots at a time."""
        rows, points, S = [], self._points, self.barrier
        comp, _, _, times = self._lists
        first = self._vertex_offsets[self._component_offsets]
        for lo, hi in self._blocks():
            starts, ends, seg = self._segments(lo, hi)
            lengths = norm2(points[ends] - points[starts])
            seg = seg.tolist()
            dmin = np.full(hi - lo, np.inf)
            own = np.flatnonzero(first[lo + 1:hi + 1] > first[lo:hi])
            if S is not None and len(own):
                dmin[own] = np.minimum.reduceat(
                    S.distance(points[first[lo]:first[hi]]),
                    first[lo:hi][own] - first[lo])
            for i, d in zip(range(lo, hi), dmin.tolist()):
                a, b = comp[i] - comp[lo], comp[i + 1] - comp[lo]
                length = sum(float(lengths[seg[k]:seg[k + 1]].sum())
                             for k in range(a, b))
                rows.append((times[i], length, d, b - a))
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

def _curved(comp: Component, barrier: Barrier | None):
    """Whether the component is an open chain against a curved barrier:
    ``step`` turns its flagged ends orthogonal by a Gauss-Seidel pass and
    ``remesh`` merges its short interior segments."""
    return not comp.closed and barrier is not None and not barrier.is_flat()


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
    """New vertices of a component of at least three vertices after one
    step of size dt.

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
    if _curved(comp, barrier):
        return _curved_solve(comp, a, rhs, frozen, dt, barrier)
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


def _open_stencil(a, frozen, dt):
    """(coupling, mass, diagonal) of a M - dt K on an open chain with
    segment lengths frozen: dt K_{i,i+1} = dt / l_i, the lumped masses of
    ``turning_and_mass`` (half a segment at each end) and a M_ii - dt K_ii.
    """
    coupling = dt / frozen
    mass = np.zeros(len(frozen) + 1)
    mass[:-1] = 0.5 * frozen
    mass[1:] += 0.5 * frozen
    diagonal = a * mass
    diagonal[:-1] += coupling
    diagonal[1:] += coupling
    return coupling, mass, diagonal


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
    coupling, mass, diagonal = _open_stencil(a, frozen, dt)
    d = np.empty(2 * m)  # the s rows, then the z rows
    d[:m] = d[m:] = diagonal
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


def _curved_solve(comp: Component, a, rhs, frozen, dt, barrier):
    """Solution of (a M - dt K) X' = M rhs on an open chain against a curved
    barrier, M and K as in ``_open_solve``.

    A flagged end j moves by s_j along the tangent line tau_j of the barrier
    at its current point, X'_j = X_j + s_j tau_j, and keeps its stencil row
    (the line's Neumann row) projected on tau_j; a free end is pinned
    (tau_j = 0, s_j = 0).  The unknowns [s_0, x_1, y_1, ..., s_{m-1}] form a
    symmetric positive definite system.  The interior vertices take
    coordinates (x', y') in the orthonormal frame whose first axis is the
    first moving end's tangent (the x axis when none moves), so that end
    couples to x' of its neighbor alone; ordered [s_0, x'_1, ..., x'_{m-2},
    s_{m-1}, y'_{m-2}, ..., y'_1] the system is tridiagonal, of 2m - 2 rows.
    On a line it gives ``_open_solve``'s result to rounding, at about 1.5
    times its cost per step, so flat barriers keep that solve.
    """
    X, m = comp.points, len(rhs)
    coupling, mass, diagonal = _open_stencil(a, frozen, dt)
    tau = [(0.0, 0.0), (0.0, 0.0)]  # zero at a pinned end
    moving = [j for j in (0, m - 1) if comp.on_s[j]]
    if moving:
        for j, (nx, ny) in zip(moving, barrier.normal(X[moving]).tolist()):
            tau[j > 0] = (-ny, nx)
    ex, ey = tau[moving[0] > 0] if moving else (1.0, 0.0)
    frame = np.array([[ex, ey], [ey, -ex]])  # rows: the x' and y' axes
    # in the order of the unknowns, the rows of s_0 and s_{m-1} where x'_0
    # and y'_{m-1} would be
    d = np.concatenate((diagonal[:-1], diagonal[:0:-1]))
    e = -np.concatenate((coupling, coupling[-1:0:-1]))
    local = (rhs @ frame.T).T * mass
    b = np.concatenate((local[0, :-1], local[1, :0:-1]))
    ends = []
    # end j: its row k, the rows of its neighbor's x' and y', its tangent
    # tau_j and its point in the frame, (t, n) and (px, py)
    for j, (k, near_x, near_y), (tx, ty), (px, py) in zip(
            (0, -1), ((0, 1, -1), (m - 1, m - 2, m)), tau,
            (X[[0, -1]] @ frame.T).tolist()):
        c = coupling.item(j)
        t, n = tx * ex + ty * ey, tx * ey - ty * ex
        b[near_x] += c * px
        b[near_y] += c * py
        if t or n:
            b[k] = t * (local.item(0, j) - d.item(k) * px) \
                + n * (local.item(1, j) - d.item(k) * py)
        else:
            d[k], b[k] = 1.0, 0.0
        # s_j's couplings to its neighbor's x' and y'; at the first end n is
        # exactly 0, its tangent being the frame's first axis or zero
        e[min(k, near_x)] *= t
        if k:
            e[k] *= n
        ends.append((k, px, py, t, n))
    u = _solve_definite(d, e, b[None])[0]
    w = np.empty((2, m))  # the x' and y' of every vertex
    w[0, :-1] = u[:m - 1]
    w[1, :0:-1] = u[m - 1:]
    for j, (k, px, py, t, n) in zip((0, -1), ends):
        s = u.item(k)
        w[0, j], w[1, j] = px + s * t, py + s * n
    return w.T @ frame


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


def step(state: CurveState, dt):
    """One time step of curvature motion.

    A component of at least three vertices takes a linearly implicit BDF2
    step from the level it keeps, or a backward-Euler step when it has none
    (it is new, split, popped or remeshed); the new component keeps this
    level.  Its flagged ends obey the mirror condition on the tangent line
    at their current point and are re-projected onto the barrier; on an
    open chain against a curved barrier one Gauss-Seidel pass then restores
    orthogonality at the contact.  A component of fewer than three vertices
    is passed on as it is (``run`` deletes it as vanished).  Each new
    component is built from its final point array.
    """
    S = state.barrier
    new_comps = []
    for comp in state.components:
        if len(comp.points) < 3:
            new_comps.append(comp)
            continue
        pts = _implicit_step(comp, dt, S)
        if S is not None and np.any(comp.on_s):
            flagged = np.nonzero(comp.on_s)[0]
            pts[flagged] = S.project(pts[flagged])
            ends = _boundary_ends(comp) if _curved(comp, S) else []
            if ends:
                targets = (-S.normal(pts[[j for j, _, _ in ends]])).tolist()
                _gauss_seidel_orthogonality(pts, ends, targets)
        new = Component(pts, comp.closed, comp.on_s)
        object.__setattr__(new, "_previous",
                           (comp.points, comp.segment_lengths(), dt))
        new_comps.append(new)
    return CurveState(new_comps, state.time + dt, state.barrier)


# ulps of the coordinates' size below which two depths count as equal
_DEPTH_ULPS = 4


def detect_and_pop(state: CurveState):
    """Split curves where an interior vertex touches the barrier: it is a
    local minimum of the signed depth and in contact.

    Returns (new_state, events).  A local minimum is below the depth before
    it and not above the one after it, both beyond the depths' rounding: a
    few ulps of the largest of the component's coordinates and the
    barrier's ``magnitude`` (so a run of minima equal up to rounding cuts
    at its first vertex); closed components wrap around, and an open
    chain's missing outer neighbor counts as +inf.  Flagged vertices never
    cut but count as neighbors, so beside a fresh end, where the depth
    rises from zero, nothing pops.  Contact is having crossed to the
    forbidden side (hard one-sidedness), or lying within half the shortest
    segment and moving toward the barrier; a pinned free end pops only once
    it has crossed.  A closed component of depths equal up to rounding,
    with no first minimum, cuts at its first vertex in contact.  Each cut
    becomes two boundary-flagged vertices on its foot, in ascending
    arc-length order; components without a cut are passed on as they are.
    """
    if state.barrier is None:
        return state, []
    S = state.barrier
    band = 0.5 * state.h_min()
    events = []
    out = []
    for comp in state.components:
        pts = comp.points
        interior = ~comp.on_s
        depth = S.omega_signed(pts)
        if not np.any(interior & (depth < band)):
            out.append(comp)
            continue
        vel = vertex_velocity(comp, S)
        feet = S.project(pts)
        toward = np.sum(vel * (feet - pts), axis=1) > 0.0
        contact = interior & ((depth < 0.0) | ((depth < band) & toward))
        before, after = np.roll(depth, 1), np.roll(depth, -1)
        if not comp.closed:
            before[0] = after[-1] = np.inf
        tol = _DEPTH_ULPS * np.spacing(max(float(np.abs(pts).max()),
                                           S.magnitude()))
        low = (depth < before - tol) & (depth <= after + tol)
        idx = np.nonzero(contact & low)[0] if low.any() \
            else np.nonzero(contact)[0][:1]
        if len(idx) == 0:
            out.append(comp)
            continue
        pieces = _split_component(comp, idx, feet)
        for i in idx:
            events.append(FlowEvent(state.time, "Pop", feet[i].copy()))
        out.extend(pieces)
    return CurveState(out, state.time, state.barrier), events


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


def _mergeable(comp: Component, lo, curved):
    """Mask of the segments ``remesh`` may merge away: on an open chain
    against a curved barrier (``_curved``) those shorter than lo, so the
    segments next to a contact that the Gauss-Seidel pass turns do not
    collapse.  Elsewhere a merge costs the component its previous level and
    buys nothing, so only a flagged end of an open chain that slid under its
    neighbor, as after a pop at a tangential touch, is merged: its segment
    is shorter than lo and than half the next one."""
    lens = comp.segment_lengths()
    if curved:
        return lens < lo
    mask = np.zeros(len(lens), dtype=bool)
    if not comp.closed:
        for end, after in ((0, 1), (-1, -2)):
            mask[end] = comp.on_s[end] and lens[end] < min(lo, 0.5 * lens[after])
    return mask


def remesh(state: CurveState, h_target):
    """Split segments longer than 1.5 h and merge the ``_mergeable``
    segments shorter than 0.5 h, every one on an open chain against a
    curved barrier and collapsed flagged ends elsewhere; boundary flags are
    preserved and the total length changes by at most 1e-3 of itself.

    Components that need no change are passed on as they are, and the state
    itself is returned when none does.
    """
    lo, hi = 0.5 * h_target, 1.5 * h_target
    curved = [_curved(c, state.barrier) for c in state.components]
    fine = [len(c.points) > 1 and c.segment_lengths().max() <= hi
            and not _mergeable(c, lo, cur).any()
            for c, cur in zip(state.components, curved)]
    if all(fine):
        return state
    new_comps = []
    total_before = sum(float(c.segment_lengths().sum())
                       for c in state.components)
    budget = 1e-3 * max(total_before, 1e-12)
    spent = 0.0
    for comp, ok, cur in zip(state.components, fine, curved):
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
            for si in order[_mergeable(comp, lo, cur)[order]]:
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
# the crossing band: segments meet at parameters t, u in (-eps, 1 - eps)
_BAND = 1e-9
# the certificate's separation over the longest segment, 1000 bands
_CERTIFIED_GAP = 1e-6


def _certified(comp: Component, l_max):
    """Whether a component of at least one segment is certified free of
    crossings, with gap = _CERTIFIED_GAP l_max for the longest segment l_max
    of the state: a closed one of at least three segments whose turns
    cross(d_k, d_{k+1}) all have one sign and exceed gap l_max in size,
    with a tangent that winds once (a strictly convex polygon), or an open
    chain whose segments all project by more than gap on its chord's
    direction (a graph over it)."""
    gap = _CERTIFIED_GAP * l_max
    d = comp.segment_vectors()
    dx, dy = d[:, 0], d[:, 1]
    if not comp.closed:
        vx, vy = float(dx.sum()), float(dy.sum())
        return bool((dx * vx + dy * vy).min() > gap * math.hypot(vx, vy))
    if len(d) < 3:
        return False
    turn = dx[:-1] * dy[1:] - dy[:-1] * dx[1:]
    turn = np.append(turn, dx[-1] * dy[0] - dy[-1] * dx[0])
    bound = gap * l_max
    if turn.min() > bound:
        y = dy
    elif turn.max() < -bound:
        y = -dy  # mirrored in the x axis, a clockwise polygon turns left
    else:
        return False
    # direction angle in [0, pi): a left turn of less than pi comes there
    # from [pi, 2 pi) only by passing angle 0, once per winding
    upper = (y > 0.0) | ((y == 0.0) & (dx > 0.0))
    wraps = np.count_nonzero(upper[1:] & ~upper[:-1]) \
        + int(upper[0] and not upper[-1])
    return wraps == 1


def _self_intersects(state: CurveState):
    """Any crossing between non-adjacent segments (all components).

    Segments are adjacent when they share a vertex: consecutive ones, and
    the last and first of a closed component (an open chain's ends are not
    adjacent).  Each vertex belongs to the segment it starts: segments meet
    when their parameters t, u lie in the half-open band (-eps, 1 - eps),
    eps = _BAND, so a curve that passes through one of its own vertices
    crosses there, and two pieces that share only an end point do not.

    Certificate, O(M) in the number M of segments and with no tree: a
    state of one component that is ``_certified``, a strictly convex
    polygon or a graph-like chain with the separation gap = _CERTIFIED_GAP
    l_max, 1000 bands, has no crossing.  A polygon whose turns all have one
    sign and whose tangent winds once is convex (Preparata & Shamos 1985):
    every vertex off segment k lies on one side of the line of k and more
    than gap from it, the two next to it by the turn bound
    |cross(d, d')| / l_k > gap and the others by convexity.  The segments
    of a chain project on its chord in order, each by more than gap, so
    segments k and j > k + 1 are more than gap apart along it.  The band
    lengthens a segment by at most eps l_max, a thousandth of gap, so no
    non-adjacent pair of a certified component has t and u in the band.
    On a ring that holds for the computed t and u too, as a segment's ends
    lie far beyond rounding from the other's line.  On a chain, two
    segments parallel to within rounding give the narrow phase t and u
    that are quotients of rounding noise and may fall in the band; there
    the certificate answers for the geometry.

    Otherwise, broad phase: a k-d tree of the segment midpoints (Bentley,
    CACM 1975).  Two segments that meet have midpoints at most
    (l_i + l_j) / 2 <= l_max apart, so only the pairs it finds within
    _PAIR_MARGIN l_max are candidates; when they are only the adjacent
    pairs, there is no crossing.  Narrow phase: the exact parametric test
    on the candidates, which gives pair (i, j) the same bits as an
    all-pairs test.  Memory is O(M + candidates).  Raises StepTooLarge on a
    non-finite coordinate or segment length.
    """
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
    if l_max == 0.0 or (len(comps) == 1 and _certified(comps[0], l_max)):
        return False
    # imported here, as scipy.linalg is in _solve_definite: importing the
    # module does not load scipy.spatial
    from scipy.spatial import cKDTree
    P0 = np.concatenate([c.segments()[0] for c in comps])
    d = np.concatenate([c.segment_vectors() for c in comps])
    i, j = cKDTree(P0 + 0.5 * d).query_pairs(
        _PAIR_MARGIN * l_max, output_type="ndarray").T
    # the tree finds every adjacent pair (midpoints at most l_max apart), so
    # when it finds only as many pairs as there are adjacent ones, none can
    # cross.  A closed component of s segments has s adjacent pairs, but one
    # when s = 2 and none when s = 1.
    closed = np.array([c.closed for c in comps])
    n_adjacent = np.where(closed, np.minimum(n_seg, n_seg * (n_seg - 1) // 2),
                          n_seg - 1).sum()
    if len(i) == n_adjacent:
        return False

    # the segment after each one in its component, -1 after an open end
    nxt = np.arange(1, M + 1)
    last = np.cumsum(n_seg) - 1
    nxt[last] = np.where(closed, last - n_seg + 1, -1)
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
    eps = _BAND
    hit = (np.abs(denom) > 1e-300) & (t > -eps) & (t < 1 - eps) & \
          (u > -eps) & (u < 1 - eps)
    return bool(np.any(hit))


# the step, at most this many h_target^2 and half the snapshot cadence,
# dividing the cadence
_IMPLICIT_DT_H2 = 2.0
# the most vertex-steps ``run`` takes on; the largest runs of the package
# (the n = 1024 circle and the peanut) estimate about 2e7 and 8e6
_MAX_WORK = 1e9


def check_run_params(t_end, h_target, snapshot_dt, vanish_length):
    """Raise ConfigError unless a run with these values can end: all reals
    with a finite float value, t_end and vanish_length (None for its
    default) >= 0, the others > 0 and h_target^2 a normal float (remesh
    splits without end at h_target <= 0, the snapshot grid and the implicit
    step divide by snapshot_dt, and the implicit step divides by a zero
    h_target^2 and overflows on a subnormal one)."""
    for key, value, bound in (("t_end", t_end, ">= 0"),
                              ("h_target", h_target, "> 0"),
                              ("snapshot_dt", snapshot_dt, "> 0"),
                              ("vanish_length", vanish_length, ">= 0")):
        if value is None and key == "vanish_length":
            continue
        if not (isinstance(value, numbers.Real)
                and abs(value) <= sys.float_info.max
                and (value >= 0 if bound == ">= 0" else value > 0)):
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


def _implicit_dt(h_target, snapshot_dt):
    """The step of a run: it divides the snapshot cadence and is at most
    2 h_target^2 and half the cadence."""
    return snapshot_dt / math.ceil(
        snapshot_dt / min(_IMPLICIT_DT_H2 * h_target ** 2, 0.5 * snapshot_dt))


def check_run_work(state: CurveState, t_end, h_target, snapshot_dt):
    """Raise ConfigError unless the run's estimated work, vertices times
    steps, is at most ``_MAX_WORK``: remesh keeps about n + L / (0.5
    h_target) vertices, and the run takes steps of ``_implicit_dt``."""
    vertices = sum(len(c.points) for c in state.components) \
        + state.total_length() / (0.5 * h_target)
    span = max(t_end - state.time, 0.0)
    work = vertices * span / _implicit_dt(h_target, snapshot_dt)
    if work > _MAX_WORK:
        raise ConfigError(
            f"the run would take about {work:.2g} vertex-steps, more than "
            f"{_MAX_WORK:.0e}: raise flow.h_target or lower flow.t_end")


def _kept(state: CurveState):
    """The snapshot of a running state: views of its components' arrays,
    without the level they were stepped from."""
    return CurveState([Component._view(c.points, c.closed, c.on_s)
                       for c in state.components], state.time)


def run(initial: CurveState, t_end, h_target, snapshot_dt,
        vanish_length=None, barrier=None, config_echo=None):
    """Drive the flow: step, pop, remesh, snapshot on an exact cadence grid.

    Stops at ``t_end``, on total extinction, or on a Collision event: every
    snapshot is checked for a crossing of segments that share no vertex
    (an open chain's ends are not adjacent).  ``vanish_length`` (default
    10 h_target) deletes components shorter than the threshold, recording a
    Vanish event.  Raises ConfigError, before any step, on values with which
    the run could not end (``check_run_params``), on an initial curve
    with a non-finite coordinate or segment length (``check_initial_curve``)
    and on an estimated work beyond ``_MAX_WORK`` (``check_run_work``).

    The step is snapshot_dt / ceil(snapshot_dt / min(2 h_target^2,
    snapshot_dt / 2)) (``_implicit_dt``), for every component: the rest of
    each snapshot interval is cut into equal steps of at most that size,
    so the BDF2 step ratio stays near one.

    Components are values that measure their segment lengths once, so the
    pop band, the remesh trigger and the vanish test share one measurement
    per component, and a component that no pop or remesh replaced keeps
    its previous level for the next BDF2 step.  A
    snapshot shares the running state's coordinate, flag, segment vector
    and length arrays and keeps nothing else of its components, so their
    previous levels are freed as the run goes on; the history copies the
    coordinates and flags into its columns at the end and keeps the
    measurements for its snapshots.
    """
    check_run_params(t_end, h_target, snapshot_dt, vanish_length)
    check_initial_curve(initial)
    state = CurveState(list(initial.components), initial.time,
                       barrier if barrier is not None else initial.barrier)
    vanish_len = 10.0 * h_target if vanish_length is None else vanish_length
    check_run_work(state, t_end, h_target, snapshot_dt)
    implicit_dt = _implicit_dt(h_target, snapshot_dt)
    t0 = state.time
    n_snap = int(round((t_end - t0) / snapshot_dt))
    snap_times = t0 + snapshot_dt * np.arange(n_snap + 1)
    events = []
    snapshots = [_kept(state)]
    halted = False

    for k in range(1, n_snap + 1):
        t_next = snap_times[k]
        while state.time < t_next - 1e-14:
            rest = t_next - state.time
            dt = rest / math.ceil(rest / implicit_dt * (1.0 - 1e-9))
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
        snapshots.append(_kept(state))
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


def _effective_velocities(state: CurveState, config):
    """Per-vertex velocities of the discrete dynamics, read from the state.

    A component moves by its curvature velocity, the limit of its linearly
    implicit step as dt -> 0 from any previous level, so a history gives
    the same velocities in memory and reloaded.  That limit misses the
    Gauss-Seidel pass, which turns the neighbor of a flagged end on an open
    chain against a curved barrier by an angle that does not shrink with
    dt: such a chain is probed with one ``step`` of the run's own size,
    ``_implicit_dt`` of the ``h_target`` and ``snapshot_dt`` in the run's
    config.  A snapshot keeps no previous level, so the probe is the same
    backward-Euler step in memory and reloaded.
    """
    S = state.barrier
    turned = [_curved(c, S) and bool(_boundary_ends(c))
              and len(c.points) > 2 for c in state.components]
    if not any(turned):
        return [vertex_velocity(c, S) for c in state.components]
    try:
        dt = _implicit_dt(config["h_target"], config["snapshot_dt"])
    except (KeyError, TypeError) as exc:
        raise ConfigError("the dissipation check of a chain against a "
                          "curved barrier needs the h_target and "
                          "snapshot_dt of its run in the history's "
                          "config") from exc
    probe = iter(step(CurveState([c for c, t in zip(state.components, turned)
                                  if t], state.time, S), dt).components)
    return [(next(probe).points - c.points) / dt if t
            else vertex_velocity(c, S)
            for c, t in zip(state.components, turned)]


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
        vels = _effective_velocities(s, history.config)
        for comp, vel in zip(s.components, vels):
            w = lumped_mass(comp.segment_lengths(), comp.closed)
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


def _masses_and_reach(history: FlowHistory, z, r):
    """Each snapshot's mu(B_r(z)), with the bits of ``state_ball_mass``, and
    the largest |x - z| over its vertices (0.0 without one), as lists.

    A block of snapshots at a time (``FlowHistory._blocks``): one
    ``ball_mass_terms`` pass over the segments of the block's components,
    and each snapshot's mass is the sum of its own contiguous slice.  A
    zero-length segment raises the ValueError of ``DiscreteVarifold``.
    """
    n = len(history.times)
    masses, reach = np.zeros(n), np.zeros(n)
    radius = np.array([r], dtype=float)
    points, comp = history._points, history._lists[0]
    # each snapshot's first vertex, then the end
    first = history._vertex_offsets[history._component_offsets]
    for lo, hi in history._blocks():
        starts, ends, seg = history._segments(lo, hi)
        p0, p1 = points[starts], points[ends]
        if (norm2(p1 - p0) <= 0.0).any():
            raise ValueError("degenerate (zero length) segment")
        terms = ball_mass_terms(p0, p1, 1, z, radius)[0]
        seg = seg.tolist()
        for i in range(lo, hi):
            masses[i] = terms[seg[comp[i] - comp[lo]]:
                              seg[comp[i + 1] - comp[lo]]].sum()
        # the largest distance of each snapshot with a vertex
        own = np.flatnonzero(first[lo + 1:hi + 1] > first[lo:hi])
        if len(own):
            dist = norm2(points[first[lo]:first[hi]] - z)
            reach[lo + own] = np.maximum.reduceat(
                dist, first[lo:hi][own] - first[lo])
    return masses.tolist(), reach.tolist()


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

    Each snapshot's mass in B_r(z) and its reach max |x - z| come from one
    pass over the history's columns (``_masses_and_reach``).  The initial
    slice's masses in the balls B_R(t)(z) of a grid value are taken for as
    many radii at a time as keep the (radii, segments) arrays within
    ``_SCAN_BLOCK`` entries, and a value is refused at its first failing
    group.
    """
    z = np.asarray(z, dtype=float)
    c_grid = np.concatenate([[1.0], np.arange(1.1, 8.01, 0.1)])
    t0 = history.times[0]
    V0 = _varifold(history._state(0))
    segments0 = None if V0 is None else V0.segments()
    ts = history.times - t0
    lhs, reach = _masses_and_reach(history, z, r)
    n0 = 0 if V0 is None else len(segments0[0])
    group = _SCAN_BLOCK // max(n0, 1) + 1

    def holds(c, lo):
        """The bound at grid value c on the group of snapshots from lo."""
        hi = lo + group
        radii = np.array([r + kappa + c * t / kappa for t in ts[lo:hi]])
        mass0 = np.zeros(len(radii)) if segments0 is None \
            else ball_masses(*segments0, z, radii)
        return not any(m > c ** (1.0 + t / kappa ** 2) * m0 + 1e-12
                       for m, t, m0 in zip(lhs[lo:hi], ts[lo:hi], mass0))

    found = None
    for c in c_grid:
        if all(holds(c, lo) for lo in range(0, len(ts), group)):
            found = float(c)
            break
    # support containment constant
    R0 = reach[0]
    support_c = 0.0
    n_comps = np.diff(history._component_offsets)
    for n, t, far in zip(n_comps[1:], ts[1:], reach[1:]):
        if t <= 0 or not n:
            continue
        need = (far - R0 - kappa) * kappa / t
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
    init = history._state(0)
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
