import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbmcf.barrier import Line, norm2, norm2_sq
from fbmcf.density import density_at_point, gaussian_density
from fbmcf.flow import (Component, CurveState, FlowHistory, circle_curve,
                        segment_curve, static_history)
from fbmcf.kernels import KernelParams
from fbmcf.tangent import (extract_tangent_flow, hausdorff_distance,
                           point_to_chain_distance, reflect_flow, rescale,
                           self_shrinker_residual)
from fbmcf.varifold import DiscreteVarifold
from conftest import DENSITY_LINE

BIG_KAPPA = KernelParams(kappa=1e7, alpha=8.0, c1=2.0)


def grim_reaper_history(t0=-1.0, t1=-0.25, n_snap=16, width=1.45, n_pts=400):
    """Translating solution y = t - log cos x: not a shrinker."""
    x = np.linspace(-width, width, n_pts)
    snaps = []
    for t in np.linspace(t0, t1, n_snap):
        pts = np.stack([x, t - np.log(np.cos(x))], axis=-1)
        snaps.append(CurveState([Component(pts)], float(t), None))
    return FlowHistory(snaps, [], {}, None)


def static_line_tangent_history():
    st = segment_curve((-30.0, 0.0), (30.0, 0.0), n=3000)
    return static_history(st, -2.0, 0.1, 22)


class TestRescale:
    def test_identity(self, circle_extinction_history):
        r = rescale(circle_extinction_history, (0.0, 0.0, 0.0), 1.0)
        s0 = circle_extinction_history.snapshots[0]
        s1 = r.snapshots[0]
        np.testing.assert_allclose(s1.all_points(), s0.all_points())
        assert s1.time == s0.time

    def test_circle_to_unit(self):
        st = circle_curve(radius=2.5, n=64)
        hist = static_history(st, -1.0, 0.0, 3)
        r = rescale(hist, (0.0, 0.0, 0.0), 2.5)
        radii = np.linalg.norm(r.snapshots[-1].all_points(), axis=1)
        np.testing.assert_allclose(radii, 1.0, atol=1e-12)

    def test_measure_scaling_on_balls(self, circle_extinction_history):
        """mu_{x, lam}(A) = lam^{-1} mu(x + lam A) checked on balls."""
        from fbmcf.flow import state_ball_mass
        lam = 0.37
        x0 = np.array([0.2, 0.1])
        r = rescale(circle_extinction_history, (x0[0], x0[1], 0.3), lam)
        t_res = -0.5
        s_res = r.slice_at(t_res)
        s_orig = circle_extinction_history.slice_at(0.3 + lam ** 2 * t_res)
        for (c, rad) in (((0.0, 0.0), 1.0), ((1.0, -0.5), 0.7)):
            m_res = state_ball_mass(s_res, c, rad)
            m_orig = state_ball_mass(s_orig, x0 + lam * np.asarray(c), lam * rad)
            assert m_res == pytest.approx(m_orig / lam, rel=1e-10, abs=1e-12)

    def test_composition_multiplies(self, circle_extinction_history):
        a = rescale(circle_extinction_history, (0.0, 0.0, 0.5), 0.5)
        b = rescale(a, (0.0, 0.0, 0.0), 0.4)
        c = rescale(circle_extinction_history, (0.0, 0.0, 0.5), 0.2)
        assert hausdorff_distance(b.slice_at(-1.0),
                                  c.slice_at(-1.0)) <= 1e-10

    def test_density_invariant_at_center(self, circle_extinction_history):
        lam = 0.5
        r = rescale(circle_extinction_history, (0.0, 0.0, 0.5), lam)
        th_orig = gaussian_density(circle_extinction_history,
                                   (0.0, 0.0, 0.5), lam * 0.6)
        th_resc = gaussian_density(r, (0.0, 0.0, 0.0), 0.6)
        assert th_resc == pytest.approx(th_orig, rel=1e-10)


class TestExtraction:
    def test_corner_tangent_flow(self, corner_history):
        """Rescalings at the extinction corner converge to the half circle
        of radius sqrt(2) at t = -1."""
        rescaled, rep = extract_tangent_flow(
            corner_history, (0.0, 0.0, 0.5), [0.5, 0.4, 0.3],
            tol=1e-3, mesh_h=np.pi / 512)
        assert rep.converged
        assert not rep.floor_hit
        assert max(rep.hausdorff_gaps) < 1e-3
        pts = rep.limit_slice.all_points()
        radii = np.linalg.norm(pts, axis=1)
        assert radii.mean() == pytest.approx(np.sqrt(2.0), rel=5e-3)
        assert pts[:, 1].min() >= -1e-9  # half circle stays on one side
        # the rescaled barrier is the fixed line through the origin
        assert rescaled[-1].barrier.offset == pytest.approx(0.0, abs=1e-12)

    def test_smooth_point_flattens(self, corner_history):
        """At a smooth point the rescaled slices approach a straight line."""
        s = corner_history.slice_at(0.2)
        pts = s.all_points()
        x = pts[int(np.argmin(np.abs(np.arctan2(pts[:, 1], pts[:, 0]) - 1.1)))]
        devs = []
        for lam in (0.2, 0.1, 0.05):
            r = rescale(corner_history, (x[0], x[1], 0.2), lam)
            sl = r.slice_at(-1.0).all_points()
            local = sl[np.linalg.norm(sl, axis=1) < 2.0]
            # distance from the best-fit line through the local cloud
            c = local.mean(axis=0)
            u, sv, vt = np.linalg.svd(local - c)
            devs.append(sv[1] / np.sqrt(len(local)))
        assert devs[2] < devs[0]
        assert devs[2] < 0.05

    def test_boundary_point_half_line(self, corner_history):
        """At the moving contact point the limit is an orthogonal half line."""
        x0 = np.array([np.sqrt(1.0 - 2.0 * 0.2), 0.0])
        r = rescale(corner_history, (x0[0], x0[1], 0.2), 0.05)
        sl = r.slice_at(-1.0).all_points()
        local = sl[np.linalg.norm(sl, axis=1) < 3.0]
        assert len(local) > 5
        assert local[:, 1].min() >= -1e-6      # stays in Omega
        # direction aligns with the barrier normal (vertical here): the
        # tangent line of the barrier at x0 is horizontal
        spread_x = np.ptp(local[:, 0])
        spread_y = np.ptp(local[:, 1])
        assert spread_x <= 0.15 * spread_y

    def test_lambda_floor_flagged(self, corner_history):
        _, rep = extract_tangent_flow(corner_history, (0.0, 0.0, 0.5),
                                      [0.5, 0.01], tol=1e-3,
                                      mesh_h=np.pi / 512)
        assert rep.floor_hit


class TestReflectFlow:
    def test_half_circle_doubles(self, corner_history):
        r = rescale(corner_history, (0.0, 0.0, 0.5), 0.4)
        refl = reflect_flow(r, r.barrier)
        s = refl.slice_at(-1.0)
        assert len(s.components) == 2 * len(r.slice_at(-1.0).components)
        assert s.total_length() == pytest.approx(
            2.0 * r.slice_at(-1.0).total_length(), rel=1e-12)
        assert not any(c.on_s.any() for c in s.components)

    def test_disjoint_union_away_from_line(self):
        st = circle_curve(center=(0.0, 5.0), radius=1.0, n=64)
        hist = static_history(st, -1.0, 0.0, 3)
        refl = reflect_flow(hist, Line(normal=(0.0, -1.0), offset=0.0))
        s = refl.snapshots[0]
        ys = s.all_points()[:, 1]
        assert (ys > 0).sum() == (ys < 0).sum() == len(ys) // 2

    def test_double_reflection_idempotent_on_symmetric(self):
        st = circle_curve(center=(0.0, 0.0), radius=1.0, n=64)
        hist = static_history(st, -1.0, 0.0, 3)
        P = Line(normal=(0.0, -1.0), offset=0.0)
        once = reflect_flow(hist, P)
        twice = reflect_flow(once, P)
        # supports coincide (multiplicity doubles)
        assert hausdorff_distance(twice.snapshots[0], once.snapshots[0]) <= 1e-12


class TestSelfShrinkerResidual:
    def test_circle_is_shrinker(self, circle_extinction_history):
        r = rescale(circle_extinction_history, (0.0, 0.0, 0.5), 0.5)
        assert self_shrinker_residual(r) < 1e-3

    def test_grim_reaper_is_not(self):
        assert self_shrinker_residual(grim_reaper_history()) > 0.05

    def test_static_line_scale_invariant(self):
        hist = static_line_tangent_history()
        assert self_shrinker_residual(hist) <= 1e-9


class TestDensityTransfer:
    def test_corner_density_equals_reflected_tangent_flow_density(
            self, corner_history):
        rescaled, rep = extract_tangent_flow(
            corner_history, (0.0, 0.0, 0.5), [0.5, 0.4, 0.3],
            tol=1e-3, mesh_h=np.pi / 512)
        refl = reflect_flow(rescaled[-1], rescaled[-1].barrier)
        th_tf = gaussian_density(refl, (0.0, 0.0, 0.0), 1.0)
        th_pt, err = density_at_point(corner_history, DENSITY_LINE,
                                      (0.0, 0.0, 0.5), BIG_KAPPA,
                                      radii=[0.6, 0.3, 0.15, 0.075])
        assert th_tf == pytest.approx(th_pt, rel=0.02)

    def test_reflected_tangent_flow_density_constant(self, corner_history):
        """Self-shrinker density is scale free across r in [0.5, 2]."""
        rescaled, _ = extract_tangent_flow(
            corner_history, (0.0, 0.0, 0.5), [0.5, 0.4], tol=1e-2,
            mesh_h=np.pi / 512)
        refl = reflect_flow(rescaled[-1], rescaled[-1].barrier)
        vals = [gaussian_density(refl, (0.0, 0.0, 0.0), r)
                for r in (0.5, 1.0, 1.4)]
        assert max(vals) - min(vals) <= 0.02 * np.mean(vals)

    def test_euclidean_gaussian_bridge_static_line(self):
        """For the static line, the Euclidean density of the t = -1 slice
        equals its Gaussian density."""
        hist = static_line_tangent_history()
        th_gauss = gaussian_density(hist, (0.0, 0.0, 0.0), 1.0)
        slice_pts = hist.slice_at(-1.0)
        V = DiscreteVarifold.from_polyline(slice_pts.components[0].points)
        # mu_V(B_r(x)) / (omega_1 r), omega_1 = 2, at r = 2
        th_eucl = V.ball_mass(np.zeros(2), 2.0) / 4.0
        assert th_eucl == pytest.approx(th_gauss, rel=0.01)


def _point_to_chain_distance_dense(pts, chains):
    """Reference for ``point_to_chain_distance``: every point against every
    segment of each chain at once, in dense (points, segments) arrays."""
    out = np.full(len(pts), np.inf)
    for comp in chains:
        starts, ends = comp.segments()
        if len(starts) == 0:
            continue
        d = ends - starts
        L2 = np.maximum(norm2_sq(d), 1e-300)
        rel = pts[:, None, :] - starts[None, :, :]
        t = np.clip(np.einsum("psc,sc->ps", rel, d) / L2, 0.0, 1.0)
        proj = starts[None, :, :] + t[..., None] * d[None, :, :]
        out = np.minimum(out, norm2(pts[:, None, :] - proj).min(axis=1))
    return out


_coord = st.floats(-4.0, 4.0) | st.integers(-8, 8).map(lambda k: k / 2.0)


@st.composite
def _chain(draw):
    """An open or closed polyline; some vertices repeat (zero-length
    segments) and one far vertex may add a very long segment."""
    pts = draw(st.lists(st.tuples(_coord, _coord), min_size=2, max_size=12))
    for i in draw(st.lists(st.integers(0, len(pts) - 1), max_size=3)):
        pts.insert(i, pts[i])
    if draw(st.booleans()):
        pts.insert(draw(st.integers(0, len(pts))),
                   (draw(st.floats(-1e4, 1e4)), 1e4))
    return Component(np.array(pts, dtype=float), draw(st.booleans()))


class TestPointToChainDistance:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(_chain(), min_size=1, max_size=3),
           st.lists(st.tuples(_coord, _coord), min_size=1, max_size=20),
           st.booleans())
    def test_equals_dense_reference(self, chains, extra, on_vertices):
        """Random points, or the chains' own vertices and random points,
        against one to three chains: the same bits as the dense reference,
        and the Hausdorff distance the reference's distances give."""
        pts = np.array(extra, dtype=float)
        if on_vertices:
            pts = np.vstack([c.points for c in chains] + [pts])
        got = point_to_chain_distance(pts, chains)
        ref = _point_to_chain_distance_dense(pts, chains)
        assert got.tobytes() == ref.tobytes()
        src = [Component(pts)]
        ref_h = max(ref.max(), _point_to_chain_distance_dense(
            np.vstack([c.points for c in chains]), src).max())
        assert hausdorff_distance(src, chains) == ref_h

    def test_no_segments_is_infinitely_far(self):
        pts = np.array([[0.0, 0.0], [1.0, 2.0]])
        assert np.all(point_to_chain_distance(pts, []) == np.inf)
        assert point_to_chain_distance(np.zeros((0, 2)),
                                       [circle_curve(n=8).components[0]]).shape \
            == (0,)

    def test_memory_bound(self):
        """4,000 segments against their own vertices pushed off the chain:
        the dense (points, segments, 2) arrays would take 256 MB each."""
        chain = circle_curve(n=4000).components[0]
        pts = 1.001 * chain.points
        point_to_chain_distance(pts[:1], [chain])  # imports scipy.spatial
        tracemalloc.start()
        try:
            got = point_to_chain_distance(pts, [chain])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6
        np.testing.assert_allclose(got, 0.001, rtol=1e-3)
