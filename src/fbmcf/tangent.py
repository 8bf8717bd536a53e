"""Parabolic rescaling of flow histories and tangent-flow extraction.

The dilation D_{1/lam}(M - X0) maps a snapshot (x, t) to
((x - x0)/lam, (t - t0)/lam^2) and rescales the barrier the same way.
Tangent flows are extracted by materializing a decreasing sequence of
rescalings and watching the t = -1 slices become Cauchy in Hausdorff
distance; limits here are always reported together with the mesh resolution
floor that caps how far the sequence can descend.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .barrier import Line
from .flow import Component, CurveState, FlowHistory


def point_to_chain_distance(pts, comp: Component):
    """Distance from each point to a polyline (exact point-segment)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    starts, ends = comp.segments()
    d = ends - starts
    L2 = np.maximum(np.sum(d * d, axis=1), 1e-300)
    rel = pts[:, None, :] - starts[None, :, :]
    t = np.clip(np.einsum("psc,sc->ps", rel, d) / L2, 0.0, 1.0)
    proj = starts[None, :, :] + t[..., None] * d[None, :, :]
    dist = np.linalg.norm(pts[:, None, :] - proj, axis=-1)
    return dist.min(axis=1)


def hausdorff_distance(a, b):
    """Symmetric Hausdorff distance between unions of polylines, each given
    as a CurveState or a list of Components."""
    ca = a.components if isinstance(a, CurveState) else a
    cb = b.components if isinstance(b, CurveState) else b
    if not ca or not cb:
        return np.inf

    def directed(src, dst):
        worst = 0.0
        for c in src:
            dmin = np.full(len(c.points), np.inf)
            for q in dst:
                dmin = np.minimum(dmin, point_to_chain_distance(c.points, q))
            worst = max(worst, float(dmin.max()))
        return worst

    return max(directed(ca, cb), directed(cb, ca))


def clip_chains(state: CurveState, normal, offset, keep="nonpositive"):
    """Restrict a slice to the half plane normal . x <= offset (or >=).

    Segments crossing the boundary line are cut at the exact crossing, so
    the result is again a list of open Components.
    """
    nu = np.asarray(normal, dtype=float)
    sign = 1.0 if keep == "nonpositive" else -1.0
    chains = []
    for comp in state.components:
        starts, ends = comp.segments()
        level_a = sign * (starts @ nu - offset)
        level_b = sign * (ends @ nu - offset)
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


@dataclass
class RescaledHistory:
    """Materialized parabolic rescaling D_{1/lam}(M - X0)."""

    base: FlowHistory
    center: np.ndarray
    lam: float
    history: FlowHistory = field(default=None)  # type: ignore[assignment]

    def slice_at(self, t):
        return self.history.slice_at(t)

    @property
    def barrier(self):
        return self.history.barrier


def rescale(history: FlowHistory, X0, lam) -> RescaledHistory:
    """Parabolic rescaling about the spacetime point X0 = (x0, t0).

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
    hist = FlowHistory(snaps, [], dict(history.config), barrier)
    return RescaledHistory(base=history, center=np.concatenate([x0, [t0]]),
                           lam=lam, history=hist)


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


def reflect_flow(rescaled, P: Line) -> FlowHistory:
    """Double every snapshot across the line P and clear boundary flags."""
    hist = rescaled.history if isinstance(rescaled, RescaledHistory) else rescaled
    snaps = []
    for s in hist.snapshots:
        comps = []
        for c in s.components:
            comps.append(Component(c.points, c.closed,
                                   np.zeros(len(c.points), bool)))
            comps.append(Component(np.atleast_2d(P.reflect_point(c.points)),
                                   c.closed, np.zeros(len(c.points), bool)))
        snaps.append(CurveState(comps, s.time, None))
    return FlowHistory(snaps, [], dict(hist.config), None)


def self_shrinker_residual(history, t_lo=-1.0, t_hi=-0.25, n_check=7):
    """Deviation from exact self-similarity M(t) = sqrt(-t) M(-1).

    Maximum over sampled t of the (windowed) Hausdorff distance between the
    slice and the rescaled reference slice, normalized by the reference
    diameter.  The comparison window shrinks with the smallest scale factor
    so that slices truncated by a finite computational window (a static
    line, say) are compared only where both sides carry data.
    """
    hist = history.history if isinstance(history, RescaledHistory) else history
    ref = hist.slice_at(t_lo)
    pts = ref.all_points()
    if len(pts) == 0:
        return np.inf
    centroid = pts.mean(axis=0)
    diam = float(np.linalg.norm(pts - centroid, axis=1).max()) * 2.0
    diam = max(diam, 1e-12)
    min_scale = np.sqrt(-t_hi) / np.sqrt(-t_lo)
    window = 0.45 * diam * min_scale

    def windowed(src, dst):
        worst = 0.0
        for c in src:
            sel = c.points[np.linalg.norm(c.points - centroid, axis=1) <= window]
            if len(sel) == 0:
                continue
            dmin = np.full(len(sel), np.inf)
            for q in dst:
                dmin = np.minimum(dmin, point_to_chain_distance(sel, q))
            worst = max(worst, float(dmin.max()))
        return worst

    worst = 0.0
    for t in np.linspace(t_lo, t_hi, n_check)[1:]:
        scale = np.sqrt(-t) / np.sqrt(-t_lo)
        scaled_ref = [Component(c.points * scale, c.closed)
                      for c in ref.components]
        comps = hist.slice_at(t).components
        d = max(windowed(comps, scaled_ref), windowed(scaled_ref, comps))
        worst = max(worst, d / diam)
    return float(worst)
