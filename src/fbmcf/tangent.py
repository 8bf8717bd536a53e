"""Parabolic rescaling of flow histories and tangent-flow extraction.

The dilation D_{1/lam}(M - X0) maps a snapshot (x, t) to
((x - x0)/lam, (t - t0)/lam^2) and rescales the barrier the same way.
Tangent flows are extracted by materializing a decreasing sequence of
rescalings and watching the t = -1 slices become Cauchy in Hausdorff
distance; limits here are always reported together with the mesh resolution
floor that caps how far the sequence can descend.

Hausdorff distances measure each vertex against a union of polylines
(``point_to_chain_distance``).  Two k-d tree queries, one over the segment
starts and one over the segment midpoints, give every point its candidate
segments, so P points against M segments cost (P + M) log M and memory
linear in the candidates while segment lengths stay comparable.  One long
segment widens every point's candidate set, up to the dense P M.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .barrier import Line, norm2, norm2_sq
from .flow import _PAIR_MARGIN, Component, CurveState, FlowHistory


def point_to_chain_distance(pts, chains):
    """Distance from each point (P, 2) to the union of the polylines
    ``chains`` (a list of Components): the exact point-segment distance to
    its nearest segment, inf when the chains have no segment.

    A k-d tree over the segment starts gives each point the distance dv to
    its nearest vertex, which bounds its distance to the union.  The segment
    holding its nearest point then has its midpoint within dv + l_max / 2,
    so a ball query over the midpoints with radius ``_PAIR_MARGIN`` (dv +
    l_max / 2), the margin covering rounding in the tree, finds every
    candidate; the exact clamp-and-norm runs on those pairs alone.
    """
    from scipy.spatial import cKDTree

    segments = [c.segments() for c in chains]
    out = np.full(len(pts), np.inf)
    if len(pts) == 0 or not any(len(a) for a, _ in segments):
        return out
    starts = np.concatenate([a for a, _ in segments])
    d = np.concatenate([b for _, b in segments]) - starts
    dv = cKDTree(starts).query(pts)[0]
    radius = _PAIR_MARGIN * (dv + 0.5 * float(norm2(d).max()))
    hits = cKDTree(starts + 0.5 * d).query_ball_point(pts, radius)
    counts = np.fromiter(map(len, hits), np.intp, len(hits))
    p = np.repeat(np.arange(len(pts)), counts)
    s = np.fromiter(itertools.chain.from_iterable(hits), np.intp, counts.sum())
    a, ds, q = starts[s], d[s], pts[p]
    t = np.clip(np.einsum("pc,pc->p", q - a, ds)
                / np.maximum(norm2_sq(ds), 1e-300), 0.0, 1.0)
    np.minimum.at(out, p, norm2(q - (a + t[:, None] * ds)))
    return out


def _directed_distance(src, dst, window):
    """Largest distance from a vertex of the polylines ``src`` to the union
    of ``dst``; with ``window = (center, radius)`` only the vertices within
    radius of center count."""
    pts = np.concatenate([c.points for c in src]) if src else np.zeros((0, 2))
    if window is not None:
        center, radius = window
        pts = pts[norm2(pts - center) <= radius]
    if len(pts) == 0:
        return 0.0
    return float(point_to_chain_distance(pts, dst).max())


def hausdorff_distance(a, b):
    """Symmetric Hausdorff distance between unions of polylines, each given
    as a CurveState or a list of Components."""
    ca = a.components if isinstance(a, CurveState) else a
    cb = b.components if isinstance(b, CurveState) else b
    if not ca or not cb:
        return np.inf
    return max(_directed_distance(ca, cb, None),
               _directed_distance(cb, ca, None))


def clip_chains(state: CurveState, normal, offset):
    """Restrict a slice to the half plane normal . x <= offset.

    Segments crossing the boundary line are cut at the exact crossing, so
    the result is again a list of open Components.
    """
    nu = np.asarray(normal, dtype=float)
    chains = []
    for comp in state.components:
        starts, ends = comp.segments()
        level_a = starts @ nu - offset
        level_b = ends @ nu - offset
        current = []
        for a, b, la, lb in zip(starts, ends, level_a, level_b):
            if la <= 0:
                current.append(a)
            if (la < 0 < lb) or (lb < 0 < la):
                s = la / (la - lb)
                current.append(a + s * (b - a))
                if la < 0:  # leaving the half plane
                    if len(current) >= 2:
                        chains.append(Component(np.asarray(current)))
                    current = []
        if len(ends) and level_b[-1] <= 0:
            current.append(ends[-1])
        if len(current) >= 2:
            chains.append(Component(np.asarray(current)))
    return chains


def rescale(history: FlowHistory, X0, lam) -> FlowHistory:
    """Materialized parabolic rescaling D_{1/lam}(M - X0) about the spacetime
    point X0 = (x0, t0).

    Masses rescale by 1/lam (lengths divide by lam) and the barrier maps to
    (S - x0)/lam.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    x0 = np.asarray(X0[:2], dtype=float)
    t0 = float(X0[2])
    barrier = history.barrier.transformed(x0, lam) if history.barrier is not None \
        else None
    snaps = []
    for s in history.snapshots:
        comps = [Component((c.points - x0) / lam, c.closed, c.on_s)
                 for c in s.components]
        snaps.append(CurveState(comps, (s.time - t0) / lam ** 2, barrier))
    return FlowHistory(snaps, [], dict(history.config), barrier)


@dataclass
class TangentFlowReport:
    lambdas: list
    hausdorff_gaps: list
    residuals: list
    converged: bool
    floor_hit: bool
    limit_slice: CurveState


def extract_tangent_flow(history: FlowHistory, X0, lambdas, tol=1e-3,
                         mesh_h=None):
    """Materialize rescalings at a decreasing lambda sequence and report
    Cauchy behavior of the t = -1 slices.

    Lambdas below ten mesh widths are flagged (resolution floor) rather than
    fatal.  Returns (rescaled_histories, report).
    """
    lambdas = list(lambdas)
    if any(lam <= 0 for lam in lambdas):
        raise ValueError("lambdas must be positive")
    if sorted(lambdas, reverse=True) != lambdas:
        raise ValueError("lambdas must decrease")
    if mesh_h is None:
        mesh_h = history.config.get("h_target", 0.0)
    floor_hit = bool(lambdas[-1] < 10.0 * mesh_h)

    rescaled = [rescale(history, X0, lam) for lam in lambdas]
    slices = [r.slice_at(-1.0) for r in rescaled]
    gaps = [hausdorff_distance(a, b) for a, b in zip(slices[:-1], slices[1:])]
    residuals = [self_shrinker_residual(r) for r in rescaled]
    converged = bool(gaps and gaps[-1] < tol)
    return rescaled, TangentFlowReport(
        lambdas=lambdas, hausdorff_gaps=gaps, residuals=residuals,
        converged=converged, floor_hit=floor_hit, limit_slice=slices[-1])


def reflect_flow(hist: FlowHistory, P: Line) -> FlowHistory:
    """Double every snapshot across the line P and clear boundary flags."""
    snaps = []
    for s in hist.snapshots:
        comps = []
        for c in s.components:
            comps.append(Component(c.points, c.closed,
                                   np.zeros(len(c.points), bool)))
            comps.append(Component(P.reflect_point(c.points), c.closed,
                                   np.zeros(len(c.points), bool)))
        snaps.append(CurveState(comps, s.time, None))
    return FlowHistory(snaps, [], dict(hist.config), None)


def self_shrinker_residual(hist: FlowHistory):
    """Deviation from exact self-similarity M(t) = sqrt(-t) M(-1).

    Maximum over six times t in (-1, -1/4] of the (windowed) Hausdorff
    distance between the slice and the rescaled reference slice at t = -1,
    normalized by the reference diameter.  The comparison window shrinks
    with the smallest scale factor, 1/2, so that slices truncated by a
    finite computational window (a static line, say) are compared only
    where both sides carry data.
    """
    ref = hist.slice_at(-1.0)
    pts = ref.all_points()
    if len(pts) == 0:
        return np.inf
    centroid = pts.mean(axis=0)
    diam = float(norm2(pts - centroid).max()) * 2.0
    diam = max(diam, 1e-12)
    window = (centroid, 0.45 * diam * 0.5)

    worst = 0.0
    for t in np.linspace(-1.0, -0.25, 7)[1:]:
        scale = np.sqrt(-t)
        scaled_ref = [Component(c.points * scale, c.closed)
                      for c in ref.components]
        comps = hist.slice_at(t).components
        d = max(_directed_distance(comps, scaled_ref, window),
                _directed_distance(scaled_ref, comps, window))
        worst = max(worst, d / diam)
    return float(worst)
