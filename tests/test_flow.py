import base64
import copy
import dataclasses
import json
import math
import os
import pickle
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbmcf import flow
from fbmcf.barrier import Circle, Line, ParametricBarrier
from fbmcf.errors import (ConfigError, InadmissibleTestFunction,
                          OutOfHistory, StepTooLarge)
from fbmcf.flow import (
    Component, CurveState, FlowEvent, FlowHistory, SpacetimeTestFunction,
    dissipation_inequality_check,
    circle_curve, closed_stencil, detect_and_pop, graph_estimate_check,
    half_circle_curve, lasso_curve, mass_bound_check, orthogonality_residual,
    remesh, run, segment_curve, static_history, step, vertex_velocity,
    _boundary_ends, _gauss_seidel_orthogonality, _self_intersects,
    _tangent_estimate,
)
from fbmcf.varifold import DiscreteVarifold, turning_and_mass

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
        pts = segment_curve((0.0, 0.0), (0.0, 1.0), n=16).components[0].points
        st = CurveState([Component(pts, False, np.arange(17) == 0)], 0.0, LINE)
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
        """No step size is too large: every component of three vertices or
        more is implicit, open chains against a curved barrier too, so a
        step of 1.0 (about 150 h_min^2 on the lasso) gives finite points
        with the flagged ends on the barrier."""
        Sc = Circle((0.0, 0.0), 1.0, omega_side="outside")
        for S, st0 in ((Sc, lasso_curve(barrier_radius=1.0, n=64)),
                       (LINE, half_circle_curve(radius=1.0, n=64))):
            (comp,) = step(CurveState(st0.components, 0.0, S), 1.0).components
            assert np.isfinite(comp.points).all()
            assert np.abs(S.distance(comp.points[comp.on_s])).max() <= 1e-12

    @pytest.mark.parametrize("kind", ["closed", "line", "curved"])
    def test_zero_length_segment_raises(self, kind):
        """Vertex 1 moved onto vertex 0 makes a zero-length segment, whose
        coupling dt / l is not finite: the step raises StepTooLarge rather
        than return non-finite points, from a previous level too."""
        Sc = Circle((0.0, 0.0), 1.0, omega_side="outside")
        S, st0 = {"closed": (None, circle_curve(radius=1.0, n=32)),
                  "line": (LINE, half_circle_curve(radius=1.0, n=32)),
                  "curved": (Sc, lasso_curve(barrier_radius=1.0, n=64))}[kind]
        comp = st0.components[0]
        pts = comp.points.copy()
        pts[1] = pts[0]
        fresh = Component(pts, comp.closed, comp.on_s)
        stepped = Component(pts, comp.closed, comp.on_s)
        object.__setattr__(stepped, "_previous",
                           (comp.points, comp.segment_lengths(), 1e-3))
        for c in (fresh, stepped):
            with pytest.raises(StepTooLarge, match="zero-length"):
                step(CurveState([c], 0.0, S), 1e-3)

    @pytest.mark.parametrize("x", [np.inf, 1e300])
    def test_infinite_length_segment_raises(self, x):
        """A vertex at infinity, or so far out that its segments' squared
        lengths overflow, makes infinite frozen lengths, whose masses are
        not finite: the step raises StepTooLarge rather than return
        non-finite points."""
        pts = circle_curve(radius=1.0, n=32).components[0].points.copy()
        pts[3] = (x, 0.0)
        with np.errstate(over="ignore"), \
                pytest.raises(StepTooLarge, match="non-finite"):
            step(CurveState([Component(pts, True)], 0.0, None), 1e-3)

    @pytest.mark.parametrize("closed, flags", [
        (False, [True, False]), (False, [True, True]), (True, [False, False])])
    def test_two_vertex_component_is_passed_on(self, closed, flags):
        """A component of fewer than three vertices is not stepped; ``run``
        deletes it as vanished after its first step."""
        Sc = Circle((0.0, 0.0), 1.0, omega_side="outside")
        comp = Component(np.array([[0.0, 1.0], [0.3, 1.5]]), closed,
                         np.array(flags))
        out = step(CurveState([comp], 0.0, Sc), 1e-3)
        assert out.components[0] is comp and out.time == 1e-3
        # 10 h_target deletes it; 1.5 h_target splits no segment first
        hist = run(CurveState([comp]), t_end=0.01, h_target=1.0,
                   snapshot_dt=0.005, barrier=Sc)
        assert [e.kind for e in hist.events] == ["Vanish"]
        assert hist.events[0].time == pytest.approx(0.0025)
        assert [len(s.components) for s in hist.snapshots] == [1, 0]

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

    def test_corner_step_makes_two_line_queries(self):
        """The projection of the flagged ends and the pop depth: two queries
        per step, since the implicit step reads the line's frame directly
        and takes no Gauss-Seidel pass."""

        class CountingLine(Line):
            calls = 0  # on the class: barrier instances are immutable

            def project(self, x):
                CountingLine.calls += 1
                return super().project(x)

            def normal(self, x):
                CountingLine.calls += 1
                return super().normal(x)

            def omega_signed(self, x):
                CountingLine.calls += 1
                return super().omega_signed(x)

            def distance(self, x):
                CountingLine.calls += 1
                return super().distance(x)

            def reflect_point(self, x):
                CountingLine.calls += 1
                return super().reflect_point(x)

        S = CountingLine(normal=(0.0, -1.0), offset=0.0)
        state = CurveState(half_circle_curve(radius=1.0, n=128).components,
                           0.0, S)
        h = np.pi / 128
        for _ in range(3):  # one iteration of run's step loop each
            CountingLine.calls = 0
            state = step(state, 0.4 * state.h_min() ** 2)
            state, _ = detect_and_pop(state)
            state = remesh(state, h)
            assert CountingLine.calls <= 2


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


def _reference_velocity(comp, barrier):
    """Reference curvature velocity, written out case by case: the
    2 (u_i - u_{i-1}) / (l_i + l_{i-1}) formula on the interior and a plain
    float loop over the barrier-flagged ends against the mirrored neighbor."""
    pts = comp.points
    m = len(pts)
    if m < 2:
        return np.zeros_like(pts)
    e = comp.segment_vectors()
    L = comp.segment_lengths()
    if comp.closed:
        e_unit = e / L[:, None]
        e_prev = np.concatenate([e_unit[-1:], e_unit[:-1]])
        L_prev = np.concatenate([L[-1:], L[:-1]])
        return 2.0 * (e_unit - e_prev) / (L + L_prev)[:, None]
    vel = np.zeros_like(pts)
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


def _reference_masses(comp):
    """Reference lumped vertex masses, half of each segment added to each of
    its two vertices."""
    lens = comp.segment_lengths()
    if comp.closed:
        return 0.5 * (lens + np.roll(lens, 1))
    w = np.zeros(len(comp.points))
    w[:-1] += 0.5 * lens
    w[1:] += 0.5 * lens
    return w


def _ellipse():
    return ParametricBarrier.from_function(
        lambda t: np.array([1.5 * np.cos(t), np.sin(t)]),
        lambda t: np.array([-1.5 * np.sin(t), np.cos(t)]),
        lambda t: np.array([-1.5 * np.cos(t), -np.sin(t)]), n_samples=256)


STENCIL_BARRIERS = {
    "line": LINE,
    "circle_inside": Circle((0.0, 0.0), 1.0),
    "circle_outside": Circle((0.0, 0.0), 1.0, omega_side="outside"),
    "ellipse": _ellipse(),
}


@st.composite
def _stencil_chain(draw):
    """(barrier, chain): a walk of 2 to 10 vertices from a barrier foot into
    the domain, with steps of 0.01 to 0.05 (inside every barrier's reach),
    closed or open with either, both or no end flagged."""
    S = STENCIL_BARRIERS[draw(st.sampled_from(sorted(STENCIL_BARRIERS)))]
    m = draw(st.integers(2, 10))
    closed = m >= 3 and draw(st.booleans())
    a = draw(st.floats(0.0, 2.0 * np.pi))
    foot = S.project(np.array([1.2 * np.cos(a), 1.2 * np.sin(a)]))
    inward = -S.normal(foot)
    heading = math.atan2(inward[1], inward[0]) + draw(st.floats(-1.2, 1.2))
    pts = [foot]
    for _ in range(m - 1):
        heading += draw(st.floats(-0.6, 0.6))
        step_len = draw(st.floats(0.01, 0.05))
        pts.append(pts[-1] + step_len * np.array([np.cos(heading),
                                                   np.sin(heading)]))
    flags = np.zeros(m, dtype=bool)
    if not closed:
        flags[[0, -1]] = draw(st.tuples(st.booleans(), st.booleans()))
    return S, Component(np.array(pts), closed, flags)


class TestCurvatureStencil:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_stencil_chain())
    def test_velocity_and_mass_match_reference_bits(self, drawn):
        """turning / mass with ghost segments at barrier ends gives the bits
        of the per-end formula; the mass gives the dissipation check's."""
        S, comp = drawn
        for barrier in (S, None):
            assert vertex_velocity(comp, barrier).tobytes() == \
                _reference_velocity(comp, barrier).tobytes()
        _, mass = turning_and_mass(comp.segment_vectors(),
                                   comp.segment_lengths(), comp.closed)
        assert mass.tobytes() == _reference_masses(comp).tobytes()

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_stencil_chain())
    def test_interior_velocity_times_mass_is_the_atom(self, drawn):
        S, comp = drawn
        pts = comp.points
        vel = vertex_velocity(comp, S)
        pos, vec = DiscreteVarifold([comp]).atoms()
        before = np.linalg.norm(pts - np.roll(pts, 1, axis=0), axis=1)
        after = np.roll(before, -1)
        mass = 0.5 * (before + after)
        rows = slice(None) if comp.closed else slice(1, -1)
        n_rows = len(mass[rows])
        np.testing.assert_array_equal(pos[:n_rows], pts[rows])
        np.testing.assert_allclose(vel[rows] * mass[rows, None], vec[:n_rows],
                                   rtol=0, atol=1e-13)


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
        with pytest.raises(ValueError):
            comp.segment_vectors()[0, 0] = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            comp.points = pts
        # the constructor copied its inputs
        pts[0, 0], flags[1] = 5.0, True
        assert comp.points[0, 0] == 0.0 and not comp.on_s[1]
        np.testing.assert_array_equal(comp.segment_lengths(), [1.0, 1.0])

    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    def test_segment_vectors_are_end_minus_start(self, closed):
        comp = circle_curve(radius=1.0, n=16).components[0]
        comp = Component(comp.points, closed)
        starts, ends = comp.segments()
        np.testing.assert_array_equal(comp.segment_vectors(), ends - starts)
        assert comp.segment_vectors() is comp.segment_vectors()

    def test_lengths_fresh_after_pop(self):
        Sc = Circle((0.0, 0.0), 1.0, omega_side="outside")
        th = np.linspace(-0.5, 0.5, 41)
        pts = np.stack([np.sin(th), 1.003 - 0.3 * th ** 2], axis=-1)
        st = CurveState([Component(pts)], 0.0, Sc)
        st.components[0].segment_lengths()  # cache before the pop
        st2, events = detect_and_pop(st)
        assert events and len(st2.components) == 2
        for c in st2.components:
            np.testing.assert_array_equal(c.segment_lengths(),
                                          _fresh_lengths(c))

    @pytest.mark.parametrize("scale", [0.5, 2.5], ids=["split", "merge"])
    def test_lengths_fresh_after_remesh(self, scale):
        """On an open chain against a circle, whose explicit step merges."""
        st = lasso_curve(barrier_radius=1.0, n=32)
        st = CurveState(st.components, 0.0,
                        Circle((0.0, 0.0), 1.0, omega_side="outside"))
        h = st.components[0].segment_lengths().mean()
        st2 = remesh(st, scale * h)
        assert len(st2.components[0].points) != 33
        for c in st2.components:
            np.testing.assert_array_equal(c.segment_lengths(),
                                          _fresh_lengths(c))


def _recording_step(monkeypatch, closed=True):
    """Make ``run`` record (dt, restart) for every closed (or every open)
    component it steps, restart meaning the component has no previous
    level."""
    log = []
    inner = flow.step

    def recording(state, dt):
        log.extend((dt, c._previous is None) for c in state.components
                   if c.closed == closed)
        return inner(state, dt)

    monkeypatch.setattr(flow, "step", recording)
    return log


def _orthogonal_arc(R, r, n):
    """The n-segment arc, inside the circle of radius R about the origin, of
    the circle of radius r centered below it that meets it orthogonally;
    both ends flagged."""
    D = math.hypot(R, r)
    th = np.linspace(math.asin(r / D), math.pi - math.asin(r / D), n + 1)
    flags = np.zeros(n + 1, dtype=bool)
    flags[0] = flags[-1] = True
    return Component(np.stack([r * np.cos(th), r * np.sin(th) - D], axis=-1),
                     False, flags)


def _circle_radius_error(hist, center):
    return max(abs(mean_radius(CurveState(s.components[:1]), center)
                   - np.sqrt(1.0 - 2.0 * s.time)) for s in hist.snapshots)


class TestImplicitClosedStep:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.integers(3, 40), st.integers(0, 2 ** 32 - 1))
    def test_operator_is_turning_over_mass(self, n, seed):
        """D(l) X from the stencil's diagonals equals turning / mass on
        random closed polylines."""
        rng = np.random.default_rng(seed)
        th = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        r = rng.uniform(0.5, 1.5, n)
        comp = Component(np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
                         + rng.uniform(-1.0, 1.0, 2), closed=True)
        mass, diagonal, off = closed_stencil(comp.segment_lengths())
        i = np.arange(n)
        K = np.diag(diagonal)
        K[i, (i + 1) % n] += off
        K[(i + 1) % n, i] += off
        turning, w = turning_and_mass(comp.segment_vectors(),
                                      comp.segment_lengths(), True)
        H = turning / w[:, None]
        np.testing.assert_array_equal(mass, w)
        np.testing.assert_allclose((K @ comp.points) / mass[:, None], H,
                                   rtol=0, atol=1e-12 * max(1.0, abs(H).max()))

    def test_shrinking_circle_keeps_vertices_and_restarts_once(
            self, monkeypatch):
        log = _recording_step(monkeypatch)
        hist = run(circle_curve(radius=1.0, n=64), t_end=0.4,
                   h_target=2 * np.pi / 64, snapshot_dt=0.01)
        assert hist.events == []
        assert all(len(s.components[0].points) == 64 for s in hist.snapshots)
        assert [restart for _, restart in log].count(True) == 1 and log[0][1]
        # 2 h^2 = 0.019 exceeds half the cadence, which is the step
        dts = np.array([dt for dt, _ in log])
        np.testing.assert_allclose(dts, 0.005, rtol=1e-9)

    def test_mixed_state_keeps_the_radius_law(self, monkeypatch):
        """A circle beside an open chain against a curved barrier takes the
        run's one step size, restarts once and stays at least as close to
        its radius law as when it flows alone."""
        h = np.pi / 128
        center = (0.0, 0.0)
        circle = circle_curve(center=center, radius=1.0, n=256)
        alone = run(circle, t_end=0.3, h_target=h, snapshot_dt=0.005)
        log = _recording_step(monkeypatch)
        mixed = run(CurveState(circle.components
                               + [_orthogonal_arc(4.0, 1.0, 128)]),
                    t_end=0.3, h_target=h, snapshot_dt=0.005,
                    barrier=Circle((0.0, 0.0), 4.0))
        assert mixed.events == []
        assert all(len(s.components) == 2 for s in mixed.snapshots)
        np.testing.assert_allclose([dt for dt, _ in log],
                                   flow._implicit_dt(h, 0.005), rtol=1e-9)
        assert [restart for _, restart in log].count(True) == 1
        assert _circle_radius_error(mixed, center) <= \
            _circle_radius_error(alone, center)

    @pytest.mark.parametrize("params, key", [
        ({"h_target": 0.0}, "h_target"),
        ({"h_target": -1.0}, "h_target"),
        ({"snapshot_dt": 0.0}, "snapshot_dt"),
        ({"h_target": 1e-200}, "h_target"),  # h_target^2 underflows to 0
        ({"h_target": 1e-160}, "h_target"),  # h_target^2 is subnormal
        ({"t_end": float("nan")}, "t_end"),
        ({"t_end": 10 ** 400}, "t_end"),  # no float value
        ({"vanish_length": "abc"}, "vanish_length"),
        ({"vanish_length": -1.0}, "vanish_length"),
    ])
    def test_run_rejects_values_that_cannot_end(self, monkeypatch, params,
                                                 key):
        """A typed error before the first step, from the check the scenario
        config shares."""
        def no_step(*args, **kwargs):
            raise AssertionError("stepped")

        monkeypatch.setattr(flow, "step", no_step)
        kwargs = {"t_end": 0.01, "h_target": 0.1, "snapshot_dt": 0.005,
                  **params}
        with pytest.raises(ConfigError, match=f"flow.{key} must be finite"):
            run(circle_curve(n=16), **kwargs)

    def test_run_rejects_non_finite_initial_curve(self, monkeypatch):
        """A NaN coordinate is refused before the first step."""
        def no_step(*args, **kwargs):
            raise AssertionError("stepped")

        monkeypatch.setattr(flow, "step", no_step)
        pts = circle_curve(n=16).components[0].points.copy()
        pts[3, 1] = np.nan
        with pytest.raises(ConfigError, match="finite coordinates"):
            run(CurveState([Component(pts, closed=True)]), t_end=0.01,
                h_target=0.1, snapshot_dt=0.005)

    @pytest.mark.parametrize("barrier, h_target", [
        (None, 1e-4),  # 1.2e5 vertices times 5e5 steps of 2e-8
        (Circle((0.0, 0.0), 4.0), 2e-4)])  # 2.7e4 times 1.25e5 of 8e-8
    def test_run_refuses_unbounded_work(self, monkeypatch, barrier, h_target):
        """A small h_target that passes ``check_run_params`` is refused
        before the first step, in well under a second, when vertices times
        steps exceeds the work bound."""
        def no_step(*args, **kwargs):
            raise AssertionError("stepped")

        monkeypatch.setattr(flow, "step", no_step)
        initial = circle_curve(n=8) if barrier is None \
            else CurveState([_orthogonal_arc(4.0, 1.0, 16)])
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="vertex-steps, more than 1e"):
            run(initial, t_end=0.01, h_target=h_target, snapshot_dt=0.005,
                barrier=barrier)
        assert time.perf_counter() - start < 1.0


def _dense_open_step(comp, dt, S):
    """Reference for an open chain's implicit step: a dense solve per frame
    coordinate of (a M - dt K) X' = M rhs, the stencil rows of pinned values
    replaced by identity rows."""
    X, frozen = comp.points, comp.segment_lengths()
    a, rhs = 1.0, X
    if comp._previous is not None:
        X_old, lengths_old, dt_old = comp._previous
        w = dt / dt_old
        a = (1.0 + 2.0 * w) / (1.0 + w)
        rhs = (1.0 + w) * X - (w * w / (1.0 + w)) * X_old
        frozen = (1.0 + w) * frozen - w * lengths_old
    m = len(X)
    # the masses of a straight chain with the frozen segment lengths
    M = np.diag(_reference_masses(Component(
        np.cumsum(np.concatenate([[0.0], frozen]))[:, None] * [1.0, 0.0])))
    K = np.zeros((m, m))
    for i, length in enumerate(frozen):
        K[np.ix_([i, i + 1], [i, i + 1])] += np.array([[-1.0, 1.0],
                                                       [1.0, -1.0]]) / length
    frame = np.eye(2) if S is None else \
        np.array([[-S.nu[1], S.nu[0]], S.nu])
    out = np.zeros_like(X)
    for k in (0, 1):
        A, b = a * M - dt * K, M @ (rhs @ frame[k])
        for j in (0, m - 1):
            if S is not None and comp.on_s[j]:
                if k == 0:
                    continue  # the mirror ghost's Neumann row
                value = S.offset
            else:
                value = X[j] @ frame[k]
            A[j], b[j] = 0.0, value
            A[j, j] = 1.0
        out += np.outer(np.linalg.solve(A, b), frame[k])
    return out


@st.composite
def _open_chain(draw):
    """A random open chain, flags, optionally a previous level, and a
    barrier: none or a line through the first vertex."""
    m = draw(st.integers(3, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    heading = rng.uniform(0.0, 2.0 * np.pi) \
        + np.cumsum(rng.uniform(-0.6, 0.6, m - 1))
    steps = rng.uniform(0.05, 0.3, m - 1)[:, None] \
        * np.stack([np.cos(heading), np.sin(heading)], axis=-1)
    pts = np.cumsum(np.concatenate([rng.uniform(-1.0, 1.0, (1, 2)), steps]),
                    axis=0)
    flags = np.zeros(m, dtype=bool)
    flags[[0, -1]] = draw(st.tuples(st.booleans(), st.booleans()))
    S = None
    if draw(st.booleans()):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        nu = np.array([np.cos(phi), np.sin(phi)])
        S = Line(normal=nu, offset=float(nu @ pts[0]))
    comp = Component(pts, False, flags)
    dt = rng.uniform(1e-4, 1e-1)
    if draw(st.booleans()):
        old = Component(pts + rng.uniform(-0.01, 0.01, pts.shape))
        object.__setattr__(comp, "_previous",
                           (old.points, old.segment_lengths(),
                            dt * rng.uniform(0.5, 2.0)))
    return comp, S, dt


def _bdf2_data(comp, dt):
    """(a, rhs, frozen) of ``_implicit_step``'s BDF2 step, or of its
    backward-Euler step without a previous level or a positive
    extrapolation, recomputed."""
    X, lengths = comp.points, comp.segment_lengths()
    if comp._previous is None:
        return 1.0, X, lengths
    X_old, lengths_old, dt_old = comp._previous
    w = dt / dt_old
    frozen = (1.0 + w) * lengths - w * lengths_old
    if frozen.min() <= 0.0:
        return 1.0, X, lengths
    return ((1.0 + 2.0 * w) / (1.0 + w),
            (1.0 + w) * X - (w * w / (1.0 + w)) * X_old, frozen)


def _dense_curved_step(comp, dt, S):
    """Reference for the implicit step of an open chain against a curved
    barrier: the dense Galerkin solve of (a M - dt K) X' = M rhs, per x and
    y, over X' = X + P u with u the interior coordinates and, at each
    flagged end, the displacement along the barrier's tangent there (a free
    end is pinned)."""
    X, m = comp.points, len(comp.points)
    a, rhs, frozen = _bdf2_data(comp, dt)
    M = np.diag(_reference_masses(Component(
        np.cumsum(np.concatenate([[0.0], frozen]))[:, None] * [1.0, 0.0])))
    K = np.zeros((m, m))
    for i, length in enumerate(frozen):
        K[np.ix_([i, i + 1], [i, i + 1])] += np.array([[-1.0, 1.0],
                                                       [1.0, -1.0]]) / length
    A = np.kron(a * M - dt * K, np.eye(2))  # rows x_0, y_0, x_1, ...
    base = np.zeros(2 * m)
    columns = []
    for j in range(m):
        if 0 < j < m - 1:
            columns += [np.eye(2 * m)[2 * j], np.eye(2 * m)[2 * j + 1]]
            continue
        base[2 * j:2 * j + 2] = X[j]
        if comp.on_s[j]:
            tangent = np.zeros(2 * m)
            tangent[2 * j:2 * j + 2] = S.tangent(X[j])
            columns.append(tangent)
    P = np.array(columns).T
    f = np.kron(M, np.eye(2)) @ rhs.ravel()
    u = np.linalg.solve(P.T @ A @ P, P.T @ (f - A @ base))
    return (base + P @ u).reshape(m, 2)


@st.composite
def _curved_chain(draw):
    """A random open chain, flags, optionally a previous level, and a
    curved barrier on which the flagged ends lie: a circle through the
    first vertex, or the ellipse with the flagged ends projected on it."""
    comp, _, dt = draw(_open_chain())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = comp.points.copy()
    if draw(st.booleans()):
        radius = rng.uniform(0.5, 3.0)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        S = Circle(pts[0] + radius * np.array([np.cos(phi), np.sin(phi)]),
                   radius, omega_side=draw(st.sampled_from(["inside",
                                                            "outside"])))
    else:
        S = _ellipse()
    pts[comp.on_s] = S.project(pts[comp.on_s])
    new = Component(pts, False, comp.on_s)
    if comp._previous is not None:
        object.__setattr__(new, "_previous", comp._previous)
    return new, S, dt


class TestImplicitOpenStep:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_curved_chain())
    def test_curved_step_is_the_dense_solve(self, drawn):
        """Against a curved barrier a flagged end moves along the tangent
        line at its point with the Neumann row projected on it; free ends
        are pinned; the tridiagonal solve in the end's frame is the dense
        Galerkin solve in x and y."""
        comp, S, dt = drawn
        got = flow._implicit_step(comp, dt, S)
        expected = _dense_curved_step(comp, dt, S)
        np.testing.assert_allclose(got, expected, rtol=0,
                                   atol=1e-11 * max(1.0, abs(expected).max()))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_open_chain())
    def test_curved_solve_on_a_line_is_the_frame_solve(self, drawn):
        """On a line, with the flagged ends on it, the tangent-line ends of
        the curved solve give the line's frame solve to rounding."""
        comp, S, dt = drawn
        if S is None:
            S = Line(normal=(0.6, 0.8), offset=float(comp.points[0]
                                                      @ [0.6, 0.8]))
        pts = comp.points.copy()
        pts[comp.on_s] = S.project(pts[comp.on_s])
        chain = Component(pts, False, comp.on_s)
        object.__setattr__(chain, "_previous", comp._previous)
        a, rhs, frozen = _bdf2_data(chain, dt)
        got = flow._curved_solve(chain, a, rhs, frozen, dt, S)
        frame = flow._open_solve(chain, a, rhs, frozen, dt, S)
        np.testing.assert_allclose(got, frame, rtol=0,
                                   atol=1e-13 * max(1.0, abs(frame).max()))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_open_chain())
    def test_step_is_the_dense_solve(self, drawn):
        """Free ends pinned; a flagged end on a line keeps its mirror row
        along the line and stays on it; x and y alike without a barrier."""
        comp, S, dt = drawn
        new = step(CurveState([comp], 0.0, S), dt).components[0]
        expected = _dense_open_step(comp, dt, S)
        np.testing.assert_allclose(new.points, expected, rtol=0, atol=1e-11)
        if S is not None and comp.on_s.any():
            assert np.abs(S.omega_signed(new.points[new.on_s])).max() <= 1e-12
        assert new._previous[0] is comp.points and new._previous[2] == dt

    def test_half_circle_matches_mirrored_circle(self, half_circle_history,
                                                 circle_history):
        """The n = 256 half circle on a line is the upper half of the
        n = 512 circle at every snapshot: its end rows are the mirror
        image of the circle's rows at the contact."""
        assert len(half_circle_history.snapshots) \
            == len(circle_history.snapshots)
        worst = 0.0
        for half, full in zip(half_circle_history.snapshots,
                              circle_history.snapshots):
            assert half.time == full.time and len(half.components) == 1
            worst = max(worst, np.abs(half.components[0].points
                                      - full.components[0].points[:257])
                        .max())
        assert worst <= 1e-12

    def test_contact_orthogonal_without_gauss_seidel(self, monkeypatch):
        def no_pass(*args):
            raise AssertionError("Gauss-Seidel pass")

        monkeypatch.setattr(flow, "_gauss_seidel_orthogonality", no_pass)
        log = _recording_step(monkeypatch, closed=False)
        hist = run(half_circle_curve(radius=1.0, n=256), t_end=0.45,
                   h_target=H_HALF, snapshot_dt=0.005, barrier=LINE)
        assert hist.events == []
        assert all(len(s.components[0].points) == 257 for s in hist.snapshots)
        assert [restart for _, restart in log].count(True) == 1
        assert max(orthogonality_residual(s) for s in hist.snapshots) < 1e-6

    def test_non_positive_extrapolation_restarts(self):
        """A previous level whose extrapolated lengths are not all positive
        is dropped: the step is the backward-Euler one."""
        comp = half_circle_curve(radius=1.0, n=16).components[0]
        old = Component(2.0 * comp.points)
        object.__setattr__(comp, "_previous",
                           (old.points, old.segment_lengths(), 1e-3))
        dt = 1e-3  # (1 + w) l - w (2 l) = 0
        stepped = step(CurveState([comp], 0.0, LINE), dt).components[0]
        fresh = step(CurveState([Component(comp.points, False, comp.on_s)],
                                0.0, LINE), dt).components[0]
        np.testing.assert_array_equal(stepped.points, fresh.points)

    @pytest.mark.parametrize("snapshot_dt", [0.0002, 0.001, 0.005])
    @pytest.mark.parametrize("n", [21, 41, 81, 161])
    @pytest.mark.parametrize("c", [1.0, 4.0])
    def test_tangential_touch_pops_and_pieces_restart(self, monkeypatch, c,
                                                      n, snapshot_dt):
        """A parabola y = c x^2 touching the line at its vertex (1e-12
        across it) pops there once: each piece restarts with one
        backward-Euler step, its popped end stays on the line and turns
        orthogonal to it, no vertex crosses it, and the neighbors of the
        fresh ends, where the depth rises from zero, never pop."""
        x = np.linspace(-1.0, 1.0, n)
        st0 = CurveState([Component(np.stack([x, c * x * x - 1e-12],
                                             axis=-1))], 0.0, LINE)
        popped, events = detect_and_pop(st0)
        assert [e.kind for e in events] == ["Pop"]
        assert [p.on_s.nonzero()[0].tolist() for p in popped.components] \
            == [[n // 2], [0]]
        log = _recording_step(monkeypatch, closed=False)
        hist = run(popped, t_end=0.05, h_target=2.0 / (n - 1),
                   snapshot_dt=snapshot_dt)
        assert log[0][1] and log[1][1]  # the two pieces' first step
        assert [e.kind for e in hist.events] == []
        for s in hist.snapshots:
            assert len(s.components) == 2
            for piece in s.components:
                assert piece.on_s.sum() == 1
                assert np.abs(LINE.omega_signed(
                    piece.points[piece.on_s])).max() <= 1e-12
                assert LINE.omega_signed(piece.points).min() >= -1e-12
        assert orthogonality_residual(hist.snapshots[-1]) < 1e-2

    def test_collapsed_end_is_merged(self):
        """On an implicit chain remesh merges only a flagged end that slid
        under its neighbor; uniformly short segments stay."""
        comp = half_circle_curve(radius=0.05, n=16).components[0]
        st0 = CurveState([comp], 0.0, LINE)
        assert remesh(st0, 0.1) is st0  # every segment under 0.5 h_target
        pts = comp.points.copy()
        pts[1] = pts[0] + 0.01 * (pts[1] - pts[0])  # the end slid under it
        st1 = CurveState([Component(pts, False, comp.on_s)], 0.0, LINE)
        out = remesh(st1, 0.1).components[0]
        np.testing.assert_array_equal(out.points,
                                      np.delete(pts, 1, axis=0))
        np.testing.assert_array_equal(out.on_s, np.delete(comp.on_s, 1))


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

    def test_circle_lasso_takes_the_implicit_step(self, monkeypatch):
        """The n = 192 lasso against a Circle steps at the run's one step
        size, pops once before t = 0.16, and at the first snapshot after
        the pop has its four ends on S and orthogonal to it and a
        dissipation gap >= 0."""
        Sc = Circle((0.0, 0.0), 1.0, omega_side="outside")
        st0 = lasso_curve(barrier_radius=1.0, n=192)
        h = st0.total_length() / 192
        log = _recording_step(monkeypatch, closed=False)
        hist = run(st0, t_end=0.18, h_target=h, snapshot_dt=0.002,
                   barrier=Sc)
        np.testing.assert_allclose([dt for dt, _ in log],
                                   flow._implicit_dt(h, 0.002), rtol=1e-9)
        pops = [e for e in hist.events if e.kind == "Pop"]
        assert [e.kind for e in hist.events] == ["Pop"]
        assert pops[0].time < 0.16
        post = next(s for s in hist.snapshots if s.time > pops[0].time)
        assert len(post.components) == 2
        ends = np.vstack([c.points[c.on_s] for c in post.components])
        assert len(ends) == 4 and Sc.distance(ends).max() <= 1e-8
        assert orthogonality_residual(post) <= 1e-2
        rep = dissipation_inequality_check(
            hist, SpacetimeTestFunction.constant(1.0), pops[0].time - 0.02,
            pops[0].time + 0.02)
        assert rep.passed and rep.gap >= 0.0

    def test_lasso_pops_against_parametric_circle(self):
        """The lasso against the unit circle given as a ParametricBarrier
        from analytic callables: one pop, two arcs, feet on S."""
        f = lambda t: np.array([np.cos(t), np.sin(t)])
        df = lambda t: np.array([-np.sin(t), np.cos(t)])
        ddf = lambda t: np.array([-np.cos(t), -np.sin(t)])
        th = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        S = ParametricBarrier(f(th).T, funcs=(f, df, ddf),
                              omega_side="outside")
        st = lasso_curve(barrier_radius=1.0, n=96)
        hist = run(st, t_end=0.18, h_target=st.total_length() / 96,
                   snapshot_dt=0.002, barrier=S)
        assert [e.kind for e in hist.events] == ["Pop"]
        post = [s for s in hist.snapshots if s.time > hist.events[0].time]
        assert post and all(len(s.components) == 2 for s in post)
        last = post[-1]
        assert last.time == pytest.approx(0.18)
        boundary_pts = np.vstack([c.points[c.on_s] for c in last.components])
        assert len(boundary_pts) == 4
        assert np.abs(S.distance(boundary_pts)).max() <= 1e-8

    def test_pop_mass_budget(self):
        """The pop itself changes the length by at most twice the band, half
        the shortest segment."""
        Sc = Circle((0.0, 0.0), 1.0, omega_side="outside")
        # cap arc whose apex sits in the pop band over the barrier top and
        # whose curvature points down onto it
        th = np.linspace(-0.5, 0.5, 41)
        pts = np.stack([np.sin(th), 1.003 - 0.3 * th ** 2], axis=-1)
        st = CurveState([Component(pts)], 0.0, Sc)
        band = 0.5 * st.h_min()
        st2, events = detect_and_pop(st)
        assert len(events) >= 1
        drop = st.total_length() - st2.total_length()
        assert abs(drop) <= 2.0 * band * len(events)

    def test_crossing_vertex_pops(self):
        """A vertex placed beyond the barrier is popped onto it (hard one-sidedness)."""
        pts = np.array([[1.8, -0.4], [1.2, 0.0], [0.55, 0.4], [1.2, 0.8], [1.8, 1.2]])
        st = CurveState([Component(pts)], 0.0,
                        Circle((0.0, 0.0), 1.0, omega_side="outside"))
        st2, events = detect_and_pop(st)
        assert len(events) == 1
        assert all(np.all(np.atleast_1d(st2.barrier.omega_signed(c.points)) >= -1e-12)
                   for c in st2.components)

    def test_two_touches_of_a_closed_curve_pop_twice(self):
        """r = 1.003 + 0.3 sin^2 theta around the outside unit circle has
        two depth minima, at theta = 0 and pi: one cut at each."""
        th = np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False)
        r = 1.003 + 0.3 * np.sin(th) ** 2
        st = CurveState([Component(r[:, None] * np.stack(
            [np.cos(th), np.sin(th)], axis=-1), True)], 0.0,
            Circle((0.0, 0.0), 1.0, omega_side="outside"))
        st2, events = detect_and_pop(st)
        assert [e.kind for e in events] == ["Pop", "Pop"]
        np.testing.assert_allclose([e.location for e in events],
                                   [[1.0, 0.0], [-1.0, 0.0]], atol=1e-12)
        assert [p.on_s.nonzero()[0].tolist() for p in st2.components] \
            == [[0, 100], [0, 100]]

    def test_crossed_vertex_beside_a_flagged_end_pops(self):
        """A vertex 0.01 below the line next to a half circle's flagged
        end is a depth minimum that has crossed: it pops onto the line."""
        comp = half_circle_curve(radius=1.0, n=32).components[0]
        pts = comp.points.copy()
        pts[1, 1] = -0.01
        st = CurveState([Component(pts, False, comp.on_s)], 0.0, LINE)
        st2, events = detect_and_pop(st)
        assert [e.kind for e in events] == ["Pop"]
        np.testing.assert_array_equal(events[0].location, [pts[1, 0], 0.0])
        (piece,) = st2.components
        assert len(piece.points) == 32
        assert piece.on_s.nonzero()[0].tolist() == [0, 31]

    def test_equal_depth_octagon_pops_once_at_vertex_0(self):
        """Every vertex of the octagon has the same depth, so there is no
        first minimum: the ring cuts at its first vertex in contact."""
        a, b = 1.1, 0.45
        pts = np.array([[a, b], [b, a], [-b, a], [-a, b],
                        [-a, -b], [-b, -a], [b, -a], [a, -b]])
        Sc = Circle((0.0, 0.0), 1.0, omega_side="outside")
        depth = Sc.omega_signed(pts)
        assert np.all(depth == depth[0])
        st2, events = detect_and_pop(CurveState([Component(pts, True)],
                                                0.0, Sc))
        assert [e.kind for e in events] == ["Pop"]
        np.testing.assert_array_equal(events[0].location,
                                      Sc.project(pts[:1])[0])
        (piece,) = st2.components
        assert not piece.closed and len(piece.points) == 9
        assert piece.on_s.nonzero()[0].tolist() == [0, 8]

    @pytest.mark.parametrize("center", [(0.0, 0.0), (30.0, -20.0)])
    @pytest.mark.parametrize("n", [64, 256, 512, 1024])
    def test_concentric_ring_pops_once(self, center, n):
        """A ring of radius 1.003 around the outside unit circle has equal
        depths up to rounding, whose noise makes no minimum: it pops once,
        at vertex 0, and leaves one open chain."""
        Sc = Circle(center, 1.0, omega_side="outside")
        st = circle_curve(center=center, radius=1.003, n=n)
        depth = Sc.omega_signed(st.components[0].points)
        assert np.ptp(depth) > 0.0  # the rounding noise is there
        st2, events = detect_and_pop(CurveState(st.components, 0.0, Sc))
        assert [e.kind for e in events] == ["Pop"]
        np.testing.assert_array_equal(
            events[0].location, Sc.project(st.components[0].points[:1])[0])
        (piece,) = st2.components
        assert not piece.closed and len(piece.points) == n + 1

    @pytest.mark.parametrize("height, pops", [(0.001, 0), (-0.001, 1)],
                             ids=["above", "below"])
    def test_free_end_pops_only_once_crossed(self, height, pops):
        """An unflagged open end is pinned: in the band but not moving, it
        pops only from across the line."""
        x = np.linspace(0.0, 0.5, 6)
        pts = np.stack([x, height + 0.5 * x], axis=-1)
        st2, events = detect_and_pop(CurveState([Component(pts)], 0.0, LINE))
        assert len(events) == pops
        assert [p.on_s.nonzero()[0].tolist() for p in st2.components] \
            == [[0] if pops else []]

    def test_circle_shrinking_away_from_the_barrier_never_pops(self):
        """A circle of radius 0.999 inside the unit circle lies in the band
        but moves away from S."""
        Sc = Circle((0.0, 0.0), 1.0, omega_side="inside")
        st = circle_curve(radius=0.999, n=256)
        st2, events = detect_and_pop(CurveState(st.components, 0.0, Sc))
        assert events == [] and st2.components[0] is st.components[0]
        hist = run(st, t_end=0.01, h_target=2.0 * np.pi / 256,
                   snapshot_dt=0.005, barrier=Sc)
        assert hist.events == []


def _self_intersects_dense(state):
    """Reference for ``_self_intersects``: every pair of segments at once, in
    dense M x M arrays; only closed components wrap around, and each vertex
    belongs to the segment it starts (t, u in (-eps, 1 - eps))."""
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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = cross(rel, d[None, :, :]) / denom
        u = cross(rel, d[:, None, :]) / denom
    eps = 1e-9
    hit = (np.abs(denom) > 1e-300) & (t > -eps) & (t < 1 - eps) & \
          (u > -eps) & (u < 1 - eps)
    comp_id = np.repeat(np.arange(len(segs)), n_seg)
    seg_id = np.concatenate([np.arange(n) for n in n_seg])
    same_comp = comp_id[:, None] == comp_id[None, :]
    gap = np.abs(seg_id[:, None] - seg_id[None, :])
    ncomp_seg = np.repeat(n_seg, n_seg)
    wraps = np.repeat([c.closed for c in state.components], n_seg)
    adjacent = same_comp & ((gap <= 1) | (
        wraps[:, None] & (gap >= ncomp_seg[:, None] - 1)))
    return bool(np.any(hit & ~adjacent))


@st.composite
def _polyline(draw):
    """Random points of one component: free floats, a half-integer lattice
    (repeated points, exactly collinear overlaps), points on one lattice
    line (collinear, folding back over itself), or a short-step walk
    many segment lengths across unless one long jump lengthens a segment."""
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["free", "lattice", "line", "walk"]))
    if kind == "free":
        coord = st.floats(-2.0, 2.0)
    else:
        coord = st.integers(-4, 4).map(lambda v: 0.5 * v)
    pts = np.array(draw(st.lists(st.tuples(coord, coord),
                                 min_size=n, max_size=n)))
    if kind == "line":
        pts = pts[0] + (2.0 * pts[:, :1]) * (pts[-1] - pts[0])
    elif kind == "walk":
        pts = pts[0] + np.cumsum(0.05 * pts, axis=0)
        if draw(st.booleans()):
            pts[draw(st.integers(0, n - 1))] += (5.0, 3.0)
    return Component(pts, closed=draw(st.booleans()))


# a segment given by its midpoint and half its direction
_segment = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                     st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)).map(
    lambda m: Component([(m[0] - m[2], m[1] - m[3]),
                         (m[0] + m[2], m[1] + m[3])]))


@st.composite
def _smooth_component(draw):
    """3 to 40 vertices on r = rho (1 + a sin(k theta + phi)) about a centre
    in [-1.5, 1.5]^2: a closed star-shaped curve, which never crosses
    itself, or an open arc of one, whose ends may nearly meet; components
    stay apart, touch or cross."""
    n = draw(st.integers(3, 40))
    closed = draw(st.booleans())
    rho, a = draw(st.floats(0.2, 1.0)), draw(st.floats(0.0, 0.6))
    k, phi = draw(st.integers(1, 5)), draw(st.floats(0.0, 2.0 * np.pi))
    span = 2.0 * np.pi if closed else draw(st.floats(0.5, 2.0 * np.pi))
    th = np.linspace(0.0, span, n, endpoint=not closed)
    r = rho * (1.0 + a * np.sin(k * th + phi))
    cx, cy = draw(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)))
    return Component(np.stack([cx + r * np.cos(th), cy + r * np.sin(th)],
                              axis=-1), closed=closed)


# exact symmetries of the plane: a quarter turn and a reflection keep every
# coordinate's bits, so a straight chain stays exactly straight
_SYMMETRY = st.sampled_from([((1, 0), (0, 1)), ((0, -1), (1, 0)),
                             ((-1, 0), (0, -1)), ((0, 1), (-1, 0)),
                             ((1, 0), (0, -1)), ((0, 1), (1, 0))])


@st.composite
def _convex_points(draw, min_n=3):
    """3 to 24 vertices of a strictly convex polygon on an ellipse about a
    centre in [-1.5, 1.5]^2, at angles whose gaps differ by up to 100
    times, in either orientation."""
    n = draw(st.integers(min_n, 24))
    gaps = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n + 1,
                                  max_size=n + 1)))
    th = 2.0 * np.pi * np.cumsum(gaps)[:-1] / gaps.sum()
    a, b = draw(st.floats(0.2, 2.0)), draw(st.floats(0.2, 2.0))
    cx, cy = draw(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)))
    pts = np.stack([cx + a * np.cos(th), cy + b * np.sin(th)], axis=-1)
    return pts[::-1] if draw(st.booleans()) else pts


@st.composite
def _reflex_polygon(draw):
    """A convex polygon with one vertex pushed toward the centroid, past it
    or short of it: a reflex turn, or a crossing when pushed far."""
    pts = draw(_convex_points(min_n=4))
    k = draw(st.integers(0, len(pts) - 1))
    centre = pts.mean(axis=0)
    pts[k] = centre + draw(st.floats(-0.8, 0.99)) * (pts[k] - centre)
    return Component(pts, closed=True)


@st.composite
def _star_polygon(draw):
    """The star polygon {n/m} with m >= 2 on radii jittered by up to 10%,
    either orientation: its tangent winds m times, and when m and n share
    a factor g, a star of n/g vertices is run g times over."""
    n = draw(st.integers(5, 30))
    m = draw(st.integers(2, (n - 1) // 2))
    th = 2.0 * np.pi * m * np.arange(n) / n + draw(st.floats(0.0, 6.0))
    r = np.array(draw(st.lists(st.floats(0.9, 1.1), min_size=n, max_size=n)))
    pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
    return Component(pts[::-1] if draw(st.booleans()) else pts, closed=True)


@st.composite
def _duplicate_vertex_polygon(draw):
    """A convex polygon with one vertex repeated, exactly or moved by 1e-12
    to 1e-4 at an angle phi from the side it starts: a zero-length or tiny
    segment, with a convex turn for a small phi of the polygon's sense."""
    pts = draw(_convex_points())
    k = draw(st.integers(0, len(pts) - 1))
    size = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-7, 1e-5, 1e-4]))
    side = pts[(k + 1) % len(pts)] - pts[k]
    phi = draw(st.floats(-np.pi, np.pi)) + np.arctan2(side[1], side[0])
    extra = pts[k] + size * np.array([np.cos(phi), np.sin(phi)])
    return Component(np.insert(pts, k + 1, extra, axis=0), closed=True)


@st.composite
def _graph_points(draw):
    """3 to 24 vertices of a graph y(x), x from -2 in steps of 0.01 to 0.5
    and slopes in [-0.9, 0.9], so every segment projects forward on the
    chord, turned by an exact symmetry."""
    n = draw(st.integers(3, 24))
    x = np.cumsum(draw(st.lists(st.floats(0.01, 0.5), min_size=n,
                                max_size=n))) - 2.0
    slopes = draw(st.lists(st.floats(-0.9, 0.9), min_size=n - 1,
                           max_size=n - 1))
    y = np.concatenate([[0.0], np.cumsum(slopes * np.diff(x))])
    return np.stack([x, y], axis=-1) @ np.array(draw(_SYMMETRY)).T


@st.composite
def _defective_chain(draw):
    """A graph chain with one extra vertex after vertex k, at an angle up to
    1.5 from the chord's direction: a tiny segment (1e-12 to 1e-4 long, so
    on either side of the certificate's margin), a zero-length one, or a
    step back against the chord."""
    pts = draw(_graph_points())
    k = draw(st.integers(0, len(pts) - 1))
    kind = draw(st.sampled_from(["tiny", "zero", "backward"]))
    if kind == "tiny":
        size = draw(st.sampled_from([1e-12, 1e-9, 1e-7, 1e-6, 1e-5, 1e-4]))
    else:
        size = 0.0 if kind == "zero" else draw(st.floats(0.01, 1.0))
    chord = pts[-1] - pts[0]
    phi = np.arctan2(chord[1], chord[0]) + draw(st.floats(-1.5, 1.5)) \
        + (np.pi if kind == "backward" else 0.0)
    extra = pts[k] + size * np.array([np.cos(phi), np.sin(phi)])
    return Component(np.insert(pts, k + 1, extra, axis=0))


@st.composite
def _certifiable(draw):
    """A strictly convex ring or a graph chain."""
    if draw(st.booleans()):
        return Component(draw(_convex_points()), closed=True)
    return Component(draw(_graph_points()))


@st.composite
def _two_components(draw):
    """Two certifiable components, the second moved along x or y so that
    its bounding box starts a fraction of the longest segment beyond the
    first's (apart, about 1e-6 apart, touching) or overlaps it."""
    a, b = draw(_certifiable()), draw(_certifiable())
    axis = draw(st.integers(0, 1))
    l_max = max(a.segment_lengths().max(), b.segment_lengths().max())
    gap = draw(st.sampled_from([-0.5, -1e-3, 0.0, 5e-7, 2e-6, 1e-3, 0.5]))
    shift = np.zeros(2)
    shift[axis] = a.points[:, axis].max() - b.points[:, axis].min() \
        + gap * l_max
    shift[1 - axis] = draw(st.floats(-1.0, 1.0))
    return [a, Component(b.points + shift, closed=b.closed)]


class TestEllipseBarrierFlow:
    """A flow against a non-circular barrier: an arc inside the 1.5 x 1
    ellipse, both ends on S, bulging away from the minor axis."""

    @pytest.fixture(scope="class")
    def ellipse_history(self):
        f = lambda t: np.array([1.5 * np.cos(t), np.sin(t)])
        df = lambda t: np.array([-1.5 * np.sin(t), np.cos(t)])
        ddf = lambda t: np.array([-1.5 * np.cos(t), -np.sin(t)])
        S = ParametricBarrier.from_function(f, df, ddf, n_samples=256)
        s = np.linspace(0.0, 1.0, 65)
        # meets S at (0, -1) and (0, 1) along the minor axis, i.e. orthogonally
        pts = np.stack([0.4 * np.sin(np.pi * s) ** 2, 2.0 * s - 1.0], axis=-1)
        flags = np.zeros(len(s), dtype=bool)
        flags[0] = flags[-1] = True
        st = CurveState([Component(pts, False, flags)])
        return S, run(st, t_end=0.1, h_target=st.total_length() / 64,
                      snapshot_dt=0.01, barrier=S)

    def test_runs_to_t_end_without_events(self, ellipse_history):
        _, hist = ellipse_history
        assert hist.events == []
        assert len(hist.snapshots) == 11
        assert hist.snapshots[-1].time == pytest.approx(0.1)
        lengths = [s.total_length() for s in hist.snapshots]
        assert all(b < a for a, b in zip(lengths, lengths[1:]))

    def test_ends_stay_on_barrier_and_orthogonal(self, ellipse_history):
        S, hist = ellipse_history
        for snap in hist.snapshots:
            (comp,) = snap.components
            ends = comp.points[comp.on_s]
            assert len(ends) == 2
            assert np.abs(S.distance(ends)).max() <= 1e-8
            assert orthogonality_residual(snap) < 1e-2
            assert np.min(S.omega_signed(comp.points)) >= -1e-9
        # the ends slid along the curved barrier, off the minor axis
        (last,) = hist.snapshots[-1].components
        assert np.all(last.points[last.on_s][:, 0] > 0.05)


class TestCollision:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(st.lists(_polyline(), min_size=1, max_size=2)
           | st.lists(_segment, min_size=3, max_size=12))
    def test_equals_dense_test(self, comps):
        """One- and two-component polylines, and loose segments, near and
        far apart in units of their longest segment."""
        state = CurveState(comps)
        assert _self_intersects(state) == _self_intersects_dense(state)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(_smooth_component(), min_size=1, max_size=3))
    def test_smooth_curves_equal_dense_test(self, comps):
        """Remeshed-like curves, where the k-d tree often finds only the
        adjacent pairs and the narrow phase is skipped: open, closed and
        several components, apart or crossing."""
        state = CurveState(comps)
        assert _self_intersects(state) == _self_intersects_dense(state)

    @pytest.mark.parametrize("dx", [-1, 0, 1])
    @pytest.mark.parametrize("dy", [-1, 0, 1])
    def test_crossing_in_neighbouring_cells(self, dx, dy):
        """Unit segments: a crossing pair whose midpoints lie 0.2 apart
        along each of eight directions, or coincide, far from the anchor
        segment, is found."""
        anchor = Component([(-0.5, 0.0), (0.5, 0.0)])
        m_a = np.array([5.5 + 0.45 * dx, 5.5 + 0.45 * dy])
        m_b = m_a + 0.2 * np.array([dx, dy])
        p = np.array([0.6, 0.8])
        q = np.array([0.8, -0.6])
        comps = [anchor, Component([m_a - 0.5 * p, m_a + 0.5 * p]),
                 Component([m_b - 0.5 * q, m_b + 0.5 * q])]
        assert _self_intersects(CurveState(comps))

    def test_open_chain_ends_are_not_adjacent(self):
        """The first and last segments of an open chain cross."""
        pts = [(-1, 0), (1, 0), (1, 1), (0, 1.5), (-0.2, 1), (0, -1)]
        assert _self_intersects(CurveState([Component(pts)]))
        assert not _self_intersects(CurveState([Component(pts[:-1])]))

    def test_non_finite_coordinate_raises_typed_error(self):
        """NaN reaches the check only from a failed step; it is a typed
        numerical failure, not the k-d tree's ValueError."""
        pts = circle_curve(n=16).components[0].points.copy()
        pts[5, 0] = np.nan
        with pytest.raises(StepTooLarge, match="non-finite"):
            _self_intersects(CurveState([Component(pts, closed=True)]))

    def test_memory_bound(self):
        """2048 segments; all-pairs arrays would take about 240 MB."""
        state = circle_curve(n=2048)
        tracemalloc.start()
        try:
            assert not _self_intersects(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    def test_memory_bound_on_the_tree_path(self):
        """A non-convex ring r = 1 + 0.3 sin 5 theta of 2048 segments fails
        the certificate, so the k-d tree runs, within the same 8 MB."""
        th = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
        r = 1.0 + 0.3 * np.sin(5.0 * th)
        comp = Component(np.stack([r * np.cos(th), r * np.sin(th)], axis=-1),
                         closed=True)
        assert not flow._certified(comp, comp.segment_lengths().max())
        tracemalloc.start()
        try:
            assert not _self_intersects(CurveState([comp]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_reflex_polygon() | _duplicate_vertex_polygon()
           | _defective_chain())
    def test_certificate_edges_equal_dense_test(self, comp):
        """Convex rings with a reflex turn or a repeated vertex, and graph
        chains with a tiny, zero-length or backward segment: either the
        certificate holds or the tree decides, with the dense answer."""
        state = CurveState([comp])
        assert _self_intersects(state) == _self_intersects_dense(state)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_star_polygon())
    def test_star_polygons_are_not_certified(self, comp):
        """The tangent winds at least twice, so no star is certified, even
        where every turn has one sign."""
        assert not flow._certified(comp, comp.segment_lengths().max())
        state = CurveState([comp])
        assert _self_intersects(state) == _self_intersects_dense(state)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_two_components())
    def test_two_certifiable_components_equal_dense_test(self, comps):
        """Only a state of one component is certified, so a pair of
        certifiable components with boxes apart, touching or overlapping
        takes the tree path, with the dense answer."""
        state = CurveState(comps)
        assert _self_intersects(state) == _self_intersects_dense(state)

    def test_certificate_cases(self):
        """What the certificate accepts and refuses, one case each."""
        def certified(comp):
            return flow._certified(comp, comp.segment_lengths().max())

        ring = circle_curve(n=64).components[0]
        square = Component([(0, 0), (1, 0), (1, 1), (0, 1)], closed=True)
        arc = half_circle_curve(n=32).components[0]
        assert certified(ring)
        assert certified(Component(ring.points[::-1], closed=True))
        assert certified(square)  # horizontal sides: dy is exactly 0
        assert certified(arc)
        # a reflex turn, a repeated vertex, a doubly run square and a
        # pentagram, which winds twice
        assert not certified(Component([(0, 0), (1, 0), (0.5, 0.2), (1, 1),
                                        (0, 1)], closed=True))
        assert not certified(Component(np.insert(ring.points, 3,
                                                 ring.points[3], axis=0),
                                       closed=True))
        assert not certified(Component(np.vstack([square.points] * 2),
                                       closed=True))
        th = 4.0 * np.pi * np.arange(5) / 5
        assert not certified(Component(np.stack([np.cos(th), np.sin(th)], -1),
                                       closed=True))
        # a chain folding back
        assert not certified(Component([(0, 0), (1, 0), (0.5, 0.1)]))

    def test_certified_states_build_no_tree(self, monkeypatch):
        """A circle and a half circle return without a k-d tree; the lasso
        fails the certificate and still builds one."""
        import scipy.spatial

        def no_tree(*args, **kwargs):
            raise AssertionError("a k-d tree was built")

        real = scipy.spatial.cKDTree
        monkeypatch.setattr(scipy.spatial, "cKDTree", no_tree)
        assert not _self_intersects(circle_curve(n=256))
        assert not _self_intersects(half_circle_curve(n=128))
        lasso = lasso_curve()
        with pytest.raises(AssertionError, match="k-d tree"):
            _self_intersects(lasso)
        monkeypatch.setattr(scipy.spatial, "cKDTree", real)
        assert _self_intersects(lasso) == _self_intersects_dense(lasso)

    @staticmethod
    def _bowtie():
        """Two lobes crossing at vertices 0 and 32, which coincide."""
        th = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        pts = np.stack([np.sin(2 * th), np.sin(th)], axis=-1) + [0.0, 3.0]
        return CurveState([Component(pts, closed=True)])

    def test_crossing_through_a_vertex(self):
        """Each vertex belongs to the segment it starts, so the bowtie
        crosses where two of its vertices coincide."""
        st = self._bowtie()
        np.testing.assert_allclose(st.components[0].points[0],
                                   st.components[0].points[32], atol=1e-15)
        assert _self_intersects(st)

    def test_self_crossing_halts_with_event(self):
        st = self._bowtie()
        hist = run(st, t_end=0.05, h_target=st.total_length() / 64,
                   snapshot_dt=0.002)
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

    def test_curved_chain_needs_its_run_config(self, lasso_history):
        """A chain against a curved barrier is probed with the step of the
        run that made the history, read from its config: without it the
        check raises ConfigError."""
        bare = FlowHistory(lasso_history.snapshots, lasso_history.events,
                           {}, lasso_history.barrier)
        with pytest.raises(ConfigError, match="h_target and snapshot_dt"):
            dissipation_inequality_check(
                bare, SpacetimeTestFunction.constant(1.0), 0.02, 0.04)

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

    @pytest.mark.parametrize("name", ["circle_history", "half_circle_history"])
    def test_reloaded_history_gives_the_same_report(self, name, request,
                                                    tmp_path):
        """A history is its columns in memory as after a reload (no
        snapshot keeps the integrator's previous level), so both give one
        report."""
        hist = request.getfixturevalue(name)
        path = tmp_path / "history.jsonl"
        hist.to_jsonl(path)
        reloaded = FlowHistory.from_jsonl(path, barrier=hist.barrier)
        phi = SpacetimeTestFunction(
            lambda p, t: 1.0 + p[:, 1] ** 2 * np.exp(-t),
            lambda p, t: np.stack([np.zeros(len(p)),
                                   2.0 * p[:, 1] * np.exp(-t)], axis=-1),
            lambda p, t: -p[:, 1] ** 2 * np.exp(-t))
        assert dissipation_inequality_check(hist, phi, 0.05, 0.35) \
            == dissipation_inequality_check(reloaded, phi, 0.05, 0.35)


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


class TestSliceAt:
    def test_one_snapshot_history_returns_it_near_its_time(self):
        hist = run(circle_curve(n=64), t_end=0.001, h_target=0.1,
                   snapshot_dt=0.005)
        assert len(hist.snapshots) == 1
        for t in (5e-10, -5e-10):
            assert hist.slice_at(t) is hist.snapshots[0]

    @pytest.mark.parametrize("kind", ["Pop", "Vanish"])
    def test_jump_late_in_an_interval_keeps_the_earlier_snapshot(self, kind):
        """Between snapshots of different components, a time before the
        first Pop or Vanish in the interval reads the snapshot before it,
        also when the later snapshot is nearer; a Collision is no jump, and
        without a jump the nearer snapshot is read."""
        one = circle_curve(n=16)
        two = CurveState(one.components + circle_curve((3.0, 0.0), 1.0,
                                                       16).components)
        states = [CurveState(s.components, t) for s, t in
                  ((one, 0.0), (two, 1.0), (one, 2.0))]
        hist = FlowHistory(states, [FlowEvent(0.8, kind, np.zeros(2)),
                                    FlowEvent(1.9, "Collision",
                                              np.zeros(2))])
        snaps = hist.snapshots
        for t, i in ((0.3, 0), (0.7, 0), (0.8, 1), (0.9, 1), (1.2, 1),
                     (1.7, 2)):
            assert hist.slice_at(t) is snaps[i], t

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_is_out_of_history(self, t):
        hist = static_history(segment_curve((-1.0, 0.0), (1.0, 0.0), n=8),
                              0.0, 0.1, 3)
        with pytest.raises(OutOfHistory):
            hist.slice_at(t)


class TestHistoryKeepsSnapshots:
    """Values kept on a history (its densities) read only its snapshots and
    times, which cannot change after construction."""

    def test_snapshots_and_times_cannot_be_reassigned(self):
        hist = static_history(segment_curve((-1.0, 0.0), (1.0, 0.0), n=8),
                              0.0, 0.1, 3)
        for h in (hist, copy.deepcopy(hist), pickle.loads(pickle.dumps(hist))):
            for name in ("snapshots", "times"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(h, name, getattr(h, name)[:1])
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(h, name)
            assert len(h.snapshots) == len(h.times) == 3
            assert not h.times.flags.writeable
            h.barrier = LINE  # densities never read the history's barrier
            assert h.barrier is LINE

    def test_components_have_multiplicity_one(self):
        comp = Component([(0.0, 0.0), (1.0, 0.0)], multiplicity=2)
        with pytest.raises(ValueError, match="multiplicity one"):
            FlowHistory([CurveState([comp], 0.0)])

    def test_snapshots_are_built_when_read(self):
        """``snapshots`` is a sequence that builds a snapshot when it is
        first read and keeps it; a new barrier gives new snapshots."""
        hist = static_history(segment_curve((-1.0, 0.0), (1.0, 0.0), n=8),
                              0.0, 0.1, 3)
        snaps = hist.snapshots
        assert len(snaps) == 3 and hist._states == [None] * 3
        assert snaps[-1] is snaps[2] and snaps[-1].time == 0.1
        assert hist._states[:2] == [None] * 2
        assert [s.time for s in snaps[:2]] == [0.0, 0.05]
        assert snaps[0] is hist.slice_at(0.0)
        with pytest.raises(IndexError):
            snaps[3]
        assert snaps[0].barrier is None
        hist.barrier = LINE
        assert hist.snapshots[0].barrier is LINE
        assert hist.slice_at(0.02).barrier is LINE
        with pytest.raises(dataclasses.FrozenInstanceError):
            hist._points = hist._points[:1]


# finite floats, with the edge cases drawn often: signed zeros, the
# smallest subnormal, a subnormal near the normal range and huge values
_coordinate = st.sampled_from([0.0, -0.0, 5e-324, -5e-324,
                               1.1125369292536007e-308, 1.7e308, -1.7e308]) \
    | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _history(draw):
    """One to four snapshots of zero to three components of one to five
    points each, open or closed, with events between the snapshots."""
    times = sorted(draw(st.sets(st.floats(0.0, 10.0), min_size=1,
                                max_size=4)))
    snapshots = []
    for t in times:
        comps = []
        for _ in range(draw(st.integers(0, 3))):
            n = draw(st.integers(1, 5))
            pts = draw(st.lists(st.tuples(_coordinate, _coordinate),
                                min_size=n, max_size=n))
            flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            comps.append(Component(np.array(pts, dtype=float).reshape(n, 2),
                                   draw(st.booleans()), np.array(flags)))
        snapshots.append(CurveState(comps, t))
    events = [flow.FlowEvent(draw(st.sampled_from(times)),
                             draw(st.sampled_from(["Pop", "Vanish",
                                                   "Collision"])),
                             np.array(draw(st.tuples(_coordinate, _coordinate))))
              for _ in range(draw(st.integers(0, 3)))]
    events.sort(key=lambda e: e.time)
    return FlowHistory(snapshots, events, {"name": "h", "seed": 0})


class TestSerialization:
    def test_jsonl_roundtrip(self, tmp_path, lasso_history):
        path = tmp_path / "hist.jsonl"
        lasso_history.to_jsonl(path)
        back = lasso_history.from_jsonl(path)
        assert len(back.snapshots) == len(lasso_history.snapshots)
        assert len(back.events) == len(lasso_history.events)
        assert back.snapshots[-1].all_points().tobytes() == \
            lasso_history.snapshots[-1].all_points().tobytes()

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_history())
    def test_roundtrip_keeps_every_bit(self, hist):
        """Coordinates and event locations read back bit for bit, the sign
        of zero included, with the flags, closed flags and events, and
        each line decodes into its components by the recipe of the
        README."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "history.jsonl")
            hist.to_jsonl(path)
            back = FlowHistory.from_jsonl(path, barrier=LINE)
            with open(path) as f:
                lines = [json.loads(line) for line in f]
        assert lines[0] == {"config": hist.config,
                            "format": flow.HISTORY_FORMAT}
        assert back.config == hist.config
        assert back.times.tobytes() == hist.times.tobytes()
        for rec, a, b in zip(lines[1:], hist.snapshots, back.snapshots):
            assert b.barrier is LINE
            xy = np.frombuffer(base64.b64decode(rec["points"]),
                               "<f8").reshape(-1, 2)
            decoded = np.split(xy, np.cumsum(rec["counts"], dtype=int))[:-1]
            assert len(a.components) == len(b.components) == len(decoded) \
                == len(rec["closed"])
            flags = np.concatenate([c.on_s for c in a.components]) \
                if a.components else np.zeros(0, bool)
            assert rec["flagged"] == np.flatnonzero(flags).tolist()
            for xy_c, ca, cb in zip(decoded, a.components, b.components):
                assert xy_c.tobytes() == ca.points.tobytes()
                assert cb.points.tobytes() == ca.points.tobytes()
                assert cb.closed == ca.closed
                assert cb.on_s.tolist() == ca.on_s.tolist()
        assert [(e.time, e.kind) for e in back.events] == \
            [(e.time, e.kind) for e in hist.events]
        for ea, eb in zip(hist.events, back.events):
            assert eb.location.tobytes() == ea.location.tobytes()

    def test_summary_csv(self, tmp_path, circle_history):
        path = tmp_path / "summary.csv"
        circle_history.write_summary_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,length,min_d_to_S,n_components"
        assert len(lines) == len(circle_history.snapshots) + 1
