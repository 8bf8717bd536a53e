import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbmcf.barrier import Circle, Line
from fbmcf.errors import InadmissibleTestFunction, StepTooLarge
from fbmcf.flow import (
    Component, CurveState, SpacetimeTestFunction, dissipation_inequality_check,
    circle_curve, detect_and_pop, graph_estimate_check, half_circle_curve,
    mass_bound_check, orthogonality_residual, remesh, run,
    segment_curve, static_history, step, vertex_velocity,
    _boundary_ends, _gauss_seidel_orthogonality, _tangent_estimate,
)

LINE = Line(normal=(0.0, -1.0), offset=0.0)  # Omega = upper half plane
H_HALF = np.pi / 256


def mean_radius(state, center=(0.0, 0.0)):
    return float(np.linalg.norm(state.all_points() - np.asarray(center), axis=1).mean())


@pytest.fixture(scope="module")
def circle_history(artifact_cache):
    return artifact_cache.circle(512)


@pytest.fixture(scope="module")
def half_circle_history(artifact_cache):
    # n = 256 half circle on y = 0 to t = 0.45 with h = H_HALF; its barrier
    # differs from LINE only in scale_cap, which the flow never reads
    return artifact_cache.half_circle()


@pytest.fixture(scope="module")
def lasso_history(artifact_cache):
    return artifact_cache.peanut()


class TestStep:
    def test_circle_one_step_radius_drop(self):
        st = circle_curve(radius=1.0, n=512)
        dt = 6e-5
        st2 = step(st, dt)
        drop = mean_radius(st) - mean_radius(st2)
        assert drop == pytest.approx(dt / 1.0, rel=0.01)

    def test_orthogonal_segment_is_fixed(self):
        st = segment_curve((0.0, 0.0), (0.0, 1.0), n=16, flag_start=True)
        st = CurveState(st.components, 0.0, LINE)
        st2 = step(st, 1e-4 * (1.0 / 16) ** 2)
        assert np.abs(st2.components[0].points - st.components[0].points).max() <= 1e-10

    def test_half_circle_stays_half_circle(self, half_circle_history):
        for s in half_circle_history.snapshots:
            if not s.components:
                continue
            radii = np.linalg.norm(s.all_points(), axis=1)
            expected = np.sqrt(1.0 - 2.0 * s.time)
            assert abs(radii.mean() - expected) <= 0.005 * expected
            assert radii.std() <= 0.002

    def test_step_too_large(self):
        st = circle_curve(radius=1.0, n=64)
        with pytest.raises(StepTooLarge):
            step(st, 1.0)

    def test_boundary_vertices_stay_on_barrier(self, half_circle_history):
        for s in half_circle_history.snapshots:
            for c in s.components:
                pts = c.points[c.on_s]
                if len(pts):
                    assert np.abs(np.atleast_1d(LINE.distance(pts))).max() <= 1e-8

    def test_one_sidedness(self, half_circle_history):
        for s in half_circle_history.snapshots:
            if s.components:
                assert np.min(np.atleast_1d(
                    LINE.omega_signed(s.all_points()))) >= -1e-9

    def test_orthogonality_residual_target(self, half_circle_history):
        mid = half_circle_history.snapshots[len(half_circle_history.snapshots) // 2]
        assert orthogonality_residual(mid) < 1e-3

    def test_corner_step_makes_six_line_queries(self):
        """Mirror, normal, projection, Gauss-Seidel normal and pop depth:
        reflect_point's own projection included, six queries per step."""

        class CountingLine(Line):
            calls = 0

            def project(self, x):
                self.calls += 1
                return super().project(x)

            def normal(self, x):
                self.calls += 1
                return super().normal(x)

            def omega_signed(self, x):
                self.calls += 1
                return super().omega_signed(x)

            def distance(self, x):
                self.calls += 1
                return super().distance(x)

            def reflect_point(self, x):
                self.calls += 1
                return super().reflect_point(x)

        S = CountingLine(normal=(0.0, -1.0), offset=0.0)
        state = CurveState(half_circle_curve(radius=1.0, n=128).components,
                           0.0, S)
        h = np.pi / 128
        for _ in range(3):  # one iteration of run's step loop each
            S.calls = 0
            state = step(state, 0.4 * state.h_min() ** 2)
            state, _ = detect_and_pop(state)
            state = remesh(state, h)
            assert S.calls <= 6


def _rot(v, angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


CONTACT_BARRIERS = {
    # (barrier, the two feet of the chain)
    "line": (LINE, [np.array([0.0, 0.0]), np.array([2.0, 0.0])]),
    "circle": (Circle((0.0, 0.0), 1.0), [np.array([-1.0, 0.0]),
                                        np.array([1.0, 0.0])]),
}


def _contact_chain(S, feet, alphas, bends, seg):
    """Open 7-vertex chain between two barrier points; each end leaves S at
    angle alpha from the inward normal and turns by bend at its neighbor."""
    arms = []
    for foot, alpha, bend in zip(feet, alphas, bends):
        inward = -S.normal(foot)
        p1 = foot + seg * _rot(inward, alpha)
        arms.append([foot, p1, p1 + seg * _rot(inward, alpha + bend)])
    (a0, a1, a2), (b0, b1, b2) = arms
    flags = np.zeros(7, dtype=bool)
    flags[0] = flags[-1] = True
    return Component(np.array([a0, a1, a2, 0.5 * (a2 + b2), b2, b1, b0]),
                     False, flags)


def _end_residual(comp, S, j):
    """orthogonality_residual with only endpoint j flagged."""
    flags = np.zeros(len(comp.points), dtype=bool)
    flags[j] = True
    return orthogonality_residual(
        CurveState([Component(comp.points, False, flags)], 0.0, S))


class TestBoundaryKernel:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0, 2 * np.pi),
           st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(-1.0, 1.0))
    def test_tangent_matches_polyfit(self, x0, y0, heading, l1, l2, bend):
        p0 = np.array([x0, y0])
        p1 = p0 + l1 * _rot(np.array([1.0, 0.0]), heading)
        p2 = p1 + l2 * _rot(np.array([1.0, 0.0]), heading + bend)
        pts = np.array([p0, p1, p2])
        s = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0),
                                                            axis=1))])
        # d/ds at s = 0 of the quadratic in chord length through the points
        d = np.array([np.polyfit(s, pts[:, k], 2)[1] for k in (0, 1)])
        t = _tangent_estimate(p0.tolist(), p1.tolist(), p2.tolist())
        np.testing.assert_allclose(t, d / np.linalg.norm(d), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("kind", sorted(CONTACT_BARRIERS))
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(alphas=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
           seg=st.floats(0.02, 0.3))
    def test_boundary_velocity_matches_vector_formula(self, kind, alphas, seg):
        """Mirrored-neighbor curvature, barrier-tangential part, in numpy."""
        S, feet = CONTACT_BARRIERS[kind]
        comp = _contact_chain(S, feet, alphas, (0.0, 0.0), seg)
        vel = vertex_velocity(comp, S)
        pts = comp.points
        for j, nb in ((0, 1), (6, 5)):
            e1 = pts[nb] - pts[j]
            e0 = pts[j] - S.reflect_point(pts[nb])
            l1, l0 = np.linalg.norm(e1), np.linalg.norm(e0)
            k = 2.0 * (e1 / l1 - e0 / l0) / (l0 + l1)
            nu = S.normal(S.project(pts[j]))
            np.testing.assert_allclose(vel[j], k - (k @ nu) * nu,
                                       rtol=0, atol=1e-12)

    def test_tangent_two_points_is_chord(self):
        assert _tangent_estimate((1.0, 1.0), (1.0, 3.0), None) == (0.0, 1.0)

    @pytest.mark.parametrize("kind", sorted(CONTACT_BARRIERS))
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(alphas=st.tuples(st.floats(-0.25, 0.25), st.floats(-0.25, 0.25)),
           bends=st.tuples(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)),
           seg=st.floats(0.05, 0.3))
    def test_gauss_seidel_pass(self, kind, alphas, bends, seg):
        S, feet = CONTACT_BARRIERS[kind]
        comp = _contact_chain(S, feet, alphas, bends, seg)
        before = comp.points
        start = [_end_residual(comp, S, j) for j in (0, 6)]
        assert max(start) < 0.3
        after = before.copy()
        ends = _boundary_ends(comp)
        targets = (-S.normal(after[[j for j, _, _ in ends]])).tolist()
        _gauss_seidel_orthogonality(after, ends, targets)
        comp = Component(after, False, comp.on_s)
        # only the two neighbors of the boundary vertices move
        np.testing.assert_array_equal(after[[0, 2, 3, 4, 6]],
                                      before[[0, 2, 3, 4, 6]])
        for j, nb, r0 in ((0, 1, start[0]), (6, 5, start[1])):
            # a rotation about the boundary vertex
            d0 = np.linalg.norm(before[nb] - before[j])
            d1 = np.linalg.norm(after[nb] - after[j])
            assert abs(d1 - d0) <= 1e-14 * d0
            if r0 < 1e-6:  # already orthogonal: left alone
                np.testing.assert_array_equal(after[nb], before[nb])
            else:
                assert _end_residual(comp, S, j) < 1e-9


def _fresh_lengths(comp):
    starts, ends = comp.segments()
    return np.linalg.norm(ends - starts, axis=1)


class TestComponentValue:
    def test_points_and_flags_are_read_only(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        flags = np.array([True, False, False])
        comp = Component(pts, False, flags)
        with pytest.raises(ValueError):
            comp.points[0, 0] = 5.0
        with pytest.raises(ValueError):
            comp.on_s[1] = True
        with pytest.raises(ValueError):
            comp.segment_lengths()[0] = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            comp.points = pts
        # the constructor copied its inputs
        pts[0, 0], flags[1] = 5.0, True
        assert comp.points[0, 0] == 0.0 and not comp.on_s[1]
        np.testing.assert_array_equal(comp.segment_lengths(), [1.0, 1.0])

    def test_lengths_fresh_after_pop(self):
        Sc = Circle((0.0, 0.0), 1.0, omega_side="outside")
        th = np.linspace(-0.5, 0.5, 41)
        pts = np.stack([np.sin(th), 1.003 - 0.3 * th ** 2], axis=-1)
        st = CurveState([Component(pts)], 0.0, Sc)
        st.components[0].segment_lengths()  # cache before the pop
        st2, events = detect_and_pop(st, pop_threshold=0.01)
        assert events and len(st2.components) == 2
        for c in st2.components:
            np.testing.assert_array_equal(c.segment_lengths(),
                                          _fresh_lengths(c))

    @pytest.mark.parametrize("scale", [0.5, 2.5], ids=["split", "merge"])
    def test_lengths_fresh_after_remesh(self, scale):
        st = half_circle_curve(radius=1.0, n=32)
        h = st.components[0].segment_lengths().mean()
        st2 = remesh(st, scale * h)
        assert len(st2.components[0].points) != 33
        for c in st2.components:
            np.testing.assert_array_equal(c.segment_lengths(),
                                          _fresh_lengths(c))


class TestRunLaws:
    def test_circle_radius_law(self, circle_history):
        errs = [abs(mean_radius(s) - np.sqrt(1.0 - 2.0 * s.time))
                for s in circle_history.snapshots if s.components]
        assert max(errs) <= 0.005

    def test_circle_extinction_time(self):
        hist = run(circle_curve(radius=1.0, n=256), t_end=0.55,
                   h_target=2 * np.pi / 256, snapshot_dt=0.005,
                   vanish_length=0.05)
        vanish = [e for e in hist.events if e.kind == "Vanish"]
        assert vanish
        assert vanish[0].time == pytest.approx(0.5, abs=0.005)

    def test_half_circle_extinction(self):
        hist = run(half_circle_curve(radius=1.0, n=128), t_end=0.55,
                   h_target=np.pi / 128, snapshot_dt=0.005,
                   barrier=LINE, vanish_length=0.05)
        vanish = [e for e in hist.events if e.kind == "Vanish"]
        assert vanish
        assert vanish[0].time == pytest.approx(0.5, abs=0.005)

    def test_snapshot_cadence_exact(self, circle_history):
        times = circle_history.times
        expected = 0.005 * np.arange(len(times))
        np.testing.assert_allclose(times, expected, atol=1e-12)

    def test_spatial_convergence_order(self):
        errs = []
        for n in (128, 256):
            hist = run(circle_curve(radius=1.0, n=n), t_end=0.4,
                       h_target=2 * np.pi / n, snapshot_dt=0.01)
            errs.append(max(abs(mean_radius(s) - np.sqrt(1.0 - 2.0 * s.time))
                            for s in hist.snapshots if s.components))
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.8

    def test_reflection_equivariance(self, half_circle_history, circle_history):
        """Half flow with barrier == doubled flow without, restricted to Omega."""
        full = circle_history
        # criterion-1 bounds the radius-law error by 0.005; polyline-vs-
        # polyline Hausdorff additionally carries an irreducible sagitta
        # floor from mismatched vertex phases, tracked separately below
        e1 = max(abs(mean_radius(s) - np.sqrt(1.0 - 2.0 * s.time))
                 for s in full.snapshots if s.components)
        assert e1 <= 0.005
        from fbmcf.tangent import clip_chains, hausdorff_distance
        worst = 0.0
        for s_half in half_circle_history.snapshots:
            if not s_half.components:
                break
            s_full = full.slice_at(s_half.time)
            upper = clip_chains(s_full, (0.0, -1.0), 0.0)  # y >= 0 side
            worst = max(worst, hausdorff_distance(s_half, upper))
        assert worst <= 2.0 * 0.005
        sagitta_floor = (1.5 * H_HALF) ** 2 / (8.0 * np.sqrt(1.0 - 2.0 * 0.45))
        assert worst <= 2.0 * (e1 + sagitta_floor)

    def test_avoidance_of_comparison_ball(self, half_circle_history):
        """Flow initially disjoint from the tangent ball stays disjoint from
        the linearly shrunken ball for a short time."""
        kappa = 0.25
        x = np.array([0.0, 1.0])      # top of the initial half circle
        v = np.array([0.0, 1.0])      # outward normal there
        center = x - kappa * v        # ball attached from inside
        c_rate = 2.0 / kappa ** 2     # 2 n / kappa^2
        t0_max = 0.4 * kappa ** 2
        for s in half_circle_history.snapshots:
            if s.time > t0_max or not s.components:
                break
            radius = kappa * (1.0 - c_rate * s.time)
            dmin = np.linalg.norm(s.all_points() - center, axis=1).min()
            assert dmin >= radius - 1e-9


class TestPop:
    def test_far_state_unchanged(self):
        st = circle_curve(center=(0.0, 5.0), radius=1.0, n=64)
        st = CurveState(st.components, 0.0, LINE)
        st2, events = detect_and_pop(st)
        assert events == []
        np.testing.assert_array_equal(st2.components[0].points,
                                      st.components[0].points)

    def test_lasso_single_pop(self, lasso_history):
        pops = [e for e in lasso_history.events if e.kind == "Pop"]
        assert len(pops) == 1
        # contact at the top of the barrier circle
        np.testing.assert_allclose(pops[0].location, [0.0, 1.0], atol=0.05)

    def test_post_pop_topology(self, lasso_history):
        Sc = Circle((0.0, 0.0), 1.0, omega_side="outside")
        pops = [e for e in lasso_history.events if e.kind == "Pop"]
        post = [s for s in lasso_history.snapshots if s.time > pops[0].time
                and s.components]
        assert post
        s = post[0]
        assert len(s.components) == 2
        boundary_pts = np.vstack([c.points[c.on_s] for c in s.components])
        assert len(boundary_pts) == 4
        assert np.abs(np.atleast_1d(Sc.distance(boundary_pts))).max() <= 1e-8
        assert orthogonality_residual(s) < 1e-2

    def test_pop_mass_budget(self):
        """The pop itself changes the length by at most twice the threshold."""
        Sc = Circle((0.0, 0.0), 1.0, omega_side="outside")
        # cap arc whose apex sits in the pop band over the barrier top and
        # whose curvature points down onto it
        th = np.linspace(-0.5, 0.5, 41)
        pts = np.stack([np.sin(th), 1.003 - 0.3 * th ** 2], axis=-1)
        st = CurveState([Component(pts)], 0.0, Sc)
        thresh = 0.01
        st2, events = detect_and_pop(st, pop_threshold=thresh)
        assert len(events) >= 1
        drop = st.total_length() - st2.total_length()
        assert abs(drop) <= 2.0 * thresh * len(events)

    def test_crossing_vertex_pops(self):
        """A vertex placed beyond the barrier is popped onto it (hard one-sidedness)."""
        pts = np.array([[1.8, -0.4], [1.2, 0.0], [0.55, 0.4], [1.2, 0.8], [1.8, 1.2]])
        st = CurveState([Component(pts)], 0.0,
                        Circle((0.0, 0.0), 1.0, omega_side="outside"))
        st2, events = detect_and_pop(st, pop_threshold=0.01)
        assert len(events) == 1
        assert all(np.all(np.atleast_1d(st2.barrier.omega_signed(c.points)) >= -1e-12)
                   for c in st2.components)


class TestCollision:
    def test_self_crossing_halts_with_event(self):
        # bowtie: two lobes sharing a crossing
        th = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        pts = np.stack([np.sin(2 * th), np.sin(th)], axis=-1) + [0.0, 3.0]
        st = CurveState([Component(pts, closed=True)])
        hist = run(st, t_end=0.05, h_target=st.total_length() / 64,
                   snapshot_dt=0.002, self_intersection_checks=1000)
        kinds = [e.kind for e in hist.events]
        assert "Collision" in kinds
        assert hist.config["halted"]
        # the run stops at the collision snapshot
        assert hist.times[-1] < 0.05


class TestRemesh:
    def test_identity_on_uniform(self):
        st = circle_curve(radius=1.0, n=128)
        h = st.components[0].segment_lengths().mean()
        st2 = remesh(st, h)
        assert len(st2.components[0].points) == 128

    def test_returns_input_within_band(self):
        """Every segment in [0.5 h, 1.5 h]: the very same state comes back."""
        state = half_circle_curve(radius=1.0, n=16)
        h = np.pi / 16
        for target in (h, 0.67 * h, 1.99 * h):
            assert remesh(state, target) is state

    def test_untouched_components_pass_through(self):
        fine = circle_curve(radius=1.0, n=64).components[0]
        coarse = circle_curve(center=(5.0, 0.0), radius=1.0, n=16).components[0]
        h = fine.segment_lengths().mean()
        st2 = remesh(CurveState([fine, coarse]), h)
        assert st2.components[0] is fine
        assert len(st2.components[1].points) > 16

    def test_split_doubles_coarse_circle(self):
        st = circle_curve(radius=1.0, n=32)
        h = st.components[0].segment_lengths().mean()
        st2 = remesh(st, h / 2.0)
        assert len(st2.components[0].points) == 64

    def test_boundary_flags_preserved(self):
        st = half_circle_curve(radius=1.0, n=16)
        st2 = remesh(st, np.pi / 64)
        assert st2.components[0].on_s[0] and st2.components[0].on_s[-1]
        assert st2.components[0].on_s.sum() == 2

    def test_curvature_law_after_remesh(self):
        """Remeshing does not degrade the radius-law error beyond 2x."""
        hist_fine = run(circle_curve(radius=1.0, n=256), t_end=0.3,
                        h_target=2 * np.pi / 256, snapshot_dt=0.01)
        # force frequent remeshing by targeting a slightly different h
        hist_rough = run(circle_curve(radius=1.0, n=256), t_end=0.3,
                         h_target=2 * np.pi / 230, snapshot_dt=0.01)
        def err(h):
            return max(abs(mean_radius(s) - np.sqrt(1 - 2 * s.time))
                       for s in h.snapshots if s.components)
        assert err(hist_rough) <= 2.0 * err(hist_fine) + 1e-5


class TestDissipationInequality:
    def test_circle_saturates_with_constant_phi(self, circle_history):
        phi = SpacetimeTestFunction.constant(1.0)
        rep = dissipation_inequality_check(circle_history, phi, 0.05, 0.4)
        assert rep.passed
        # smooth flows saturate: both sides agree to 1%
        assert rep.gap == pytest.approx(0.0, abs=0.01 * abs(rep.lhs))

    def test_vanishing_phi(self, circle_history):
        # supported away from the flow: both sides zero
        def away(p, t):
            return np.clip(np.sum((p - np.array([10.0, 0.0])) ** 2, axis=-1) * 0.0, 0, None)
        phi = SpacetimeTestFunction(
            lambda p, t: np.zeros(len(p)),
            lambda p, t: np.zeros_like(p),
            lambda p, t: np.zeros(len(p)))
        rep = dissipation_inequality_check(circle_history, phi, 0.05, 0.4)
        assert rep.lhs == pytest.approx(0.0, abs=1e-14)
        assert rep.rhs == pytest.approx(0.0, abs=1e-14)

    def test_inequality_across_pop(self, lasso_history):
        pops = [e for e in lasso_history.events if e.kind == "Pop"]
        t_pop = pops[0].time
        phi = SpacetimeTestFunction.constant(1.0)
        rep = dissipation_inequality_check(lasso_history, phi, t_pop - 0.02,
                                      t_pop + 0.02)
        assert rep.passed
        # mass drops through the pop, so the inequality is strict
        assert rep.lhs < 0

    def test_admissibility_enforced(self, half_circle_history):
        bad = SpacetimeTestFunction(
            lambda p, t: 1.0 + p[:, 1],
            lambda p, t: np.tile([0.0, 1.0], (len(p), 1)),
            lambda p, t: np.zeros(len(p)))
        with pytest.raises(InadmissibleTestFunction):
            dissipation_inequality_check(half_circle_history, bad, 0.05, 0.2)

    def test_barrier_adapted_phi_passes(self, half_circle_history):
        # phi = 1 + y^2 e^{-t}: gradient (0, 2y) vanishes on the line y=0
        phi = SpacetimeTestFunction(
            lambda p, t: 1.0 + p[:, 1] ** 2 * np.exp(-t),
            lambda p, t: np.stack([np.zeros(len(p)),
                                   2.0 * p[:, 1] * np.exp(-t)], axis=-1),
            lambda p, t: -p[:, 1] ** 2 * np.exp(-t))
        rep = dissipation_inequality_check(half_circle_history, phi, 0.05, 0.35)
        assert rep.passed


class TestMassBounds:
    def test_static_segment_c_is_one(self):
        st = segment_curve((-1.0, 2.0), (1.0, 2.0), n=16)
        hist = static_history(st, 0.0, 1.0, 11)
        rep = mass_bound_check(hist, (0.0, 2.0), 0.5, 0.3)
        assert rep.holds and rep.c == 1.0

    def test_half_circle_c_small(self, half_circle_history):
        rep = mass_bound_check(half_circle_history, (0.0, 0.0), 0.5, 0.3)
        assert rep.holds
        assert rep.c <= 4.0

    def test_support_containment(self, circle_history):
        rep = mass_bound_check(circle_history, (0.0, 0.0), 0.5, 0.3)
        # a shrinking circle never expands: support constant stays ~0
        assert rep.support_c <= 1e-9


class TestGraphEstimate:
    def test_flat_line_zero(self):
        st = segment_curve((-2.0, 0.5), (2.0, 0.5), n=64)
        hist = static_history(st, 0.0, 0.2, 21)
        rep = graph_estimate_check(hist, np.array([0.0, 0.5]), (0.005, 0.2))
        assert rep.sup_quantity <= 1e-10

    def test_shrinking_circle_bounded(self, circle_history):
        rep = graph_estimate_check(circle_history, np.array([1.0, 0.0]),
                                   (0.005, 0.1))
        assert rep.sup_quantity <= 3.0

    def test_half_circle_boundary_point_bounded(self, half_circle_history):
        rep = graph_estimate_check(half_circle_history, np.array([1.0, 0.0]),
                                   (0.005, 0.1))
        assert np.isfinite(rep.sup_quantity)
        assert rep.sup_quantity <= 5.0


class TestSerialization:
    def test_jsonl_roundtrip(self, tmp_path, lasso_history):
        path = tmp_path / "hist.jsonl"
        lasso_history.to_jsonl(path)
        back = lasso_history.from_jsonl(path)
        assert len(back.snapshots) == len(lasso_history.snapshots)
        assert len(back.events) == len(lasso_history.events)
        np.testing.assert_allclose(
            back.snapshots[-1].all_points(),
            lasso_history.snapshots[-1].all_points())

    def test_summary_csv(self, tmp_path, circle_history):
        path = tmp_path / "summary.csv"
        circle_history.write_summary_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,length,min_d_to_S,n_components"
        assert len(lines) == len(circle_history.snapshots) + 1
