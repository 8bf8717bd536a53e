import copy
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbmcf.barrier import (Circle, Line, ParametricBarrier, measured_c1, norm2,
                           norm2_sq)
from fbmcf.errors import BeyondReach
from fbmcf.kernels import (KernelParams, cutoff, heat_kernel, reflected_cutoff,
                           reflected_truncated_kernel)


def unit_circle_parametric(n=64):
    f = lambda t: np.array([np.cos(t), np.sin(t)])
    df = lambda t: np.array([-np.sin(t), np.cos(t)])
    ddf = lambda t: np.array([-np.cos(t), -np.sin(t)])
    return ParametricBarrier.from_function(f, df, ddf, n_samples=n)


def ellipse_parametric(a=2.0, b=1.0, n=256):
    f = lambda t: np.array([a * np.cos(t), b * np.sin(t)])
    df = lambda t: np.array([-a * np.sin(t), b * np.cos(t)])
    ddf = lambda t: np.array([-a * np.cos(t), -b * np.sin(t)])
    return ParametricBarrier.from_function(f, df, ddf, n_samples=n)


def ellipse_point(angle, depth, a=2.0, b=1.0):
    """gamma(angle) moved by depth along the ellipse's outward normal."""
    nrm = np.array([b * np.cos(angle), a * np.sin(angle)])
    return np.array([a * np.cos(angle), b * np.sin(angle)]) \
        + depth * nrm / np.linalg.norm(nrm)


def spline_parametric(n=256):
    """Periodic-spline barrier through n samples of the unit circle."""
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return ParametricBarrier(np.stack([np.cos(th), np.sin(th)], axis=-1))


def near_unit_circle(n, seed, spread=0.3):
    rng = np.random.default_rng(seed)
    ang = rng.uniform(0.0, 2.0 * np.pi, n)
    rho = 1.0 + rng.uniform(-spread, spread, n)
    return rho[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1)


def sweep_distance(f, x, n=2_000_001):
    """Independent oracle: dense parameter sweep of |gamma(t) - x|."""
    t = np.linspace(0.0, 2.0 * np.pi, n)
    pts = np.stack([f(t)[0], f(t)[1]], axis=-1)
    d = np.linalg.norm(pts - np.asarray(x), axis=1)
    i = np.argmin(d)
    return d[i], pts[i]


class TestNorm2:
    """The componentwise norms have the bits of numpy's reductions."""

    MAGS = 10.0 ** np.arange(-320.0, 301.0, 5.0)
    VALUES = np.concatenate([MAGS, -MAGS, [0.0, -0.0, np.inf, -np.inf,
                                           np.nan, -np.nan, 5e-324,
                                           np.finfo(float).max, 1.5, 3.0]])

    def test_every_pair_of_magnitudes(self):
        """1e-320 to 1e300 with both signs, +-0.0, +-inf and nan in each
        coordinate: subnormal squares, squares that underflow to zero and
        sums that overflow to inf."""
        v = np.stack(np.meshgrid(self.VALUES, self.VALUES, indexing="ij"),
                     axis=-1)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            n, ref = norm2(v), np.linalg.norm(v, axis=-1)
            sq, ref_sq = norm2_sq(v), np.sum(v ** 2, axis=-1)
        assert n.shape == ref.shape == v.shape[:-1]
        assert n.tobytes() == ref.tobytes()
        assert sq.tobytes() == ref_sq.tobytes()

    def test_single_vector(self):
        for v in ([3.0, 4.0], [-0.0, -0.0], [1e-320, 1e300], [np.nan, 1.0]):
            v = np.array(v)
            with np.errstate(over="ignore", under="ignore"):
                n, ref = norm2(v), np.linalg.norm(v, axis=-1)
            assert type(n) is type(ref)
            assert np.asarray(n).tobytes() == np.asarray(ref).tobytes()


class TestDistanceProject:
    def test_line_distance(self):
        S = Line(normal=(0.0, 1.0), offset=0.0)
        assert S.distance(np.array([3.0, 4.0])) == pytest.approx(4.0)

    def test_circle_distance(self):
        S = Circle((0.0, 0.0), 1.0)
        assert S.distance(np.array([2.0, 0.0])) == pytest.approx(1.0)

    def test_parametric_circle_distance_vs_sweep(self):
        S = unit_circle_parametric(64)
        x = np.array([0.0, 1.5])
        f = lambda t: (np.cos(t), np.sin(t))
        d_oracle, _ = sweep_distance(f, x)
        assert S.distance(x) == pytest.approx(d_oracle, abs=1e-8)
        assert S.distance(x) == pytest.approx(0.5, abs=1e-8)

    def test_line_project(self):
        S = Line(normal=(0.0, 1.0), offset=0.0)
        np.testing.assert_allclose(S.project(np.array([3.0, 4.0])), [3.0, 0.0])

    def test_circle_project(self):
        S = Circle((0.0, 0.0), 1.0)
        np.testing.assert_allclose(S.project(np.array([0.5, 0.0])), [1.0, 0.0])

    def test_ellipse_project_vs_sweep(self):
        S = ellipse_parametric()
        x = np.array([0.0, 2.0])
        f = lambda t: (2.0 * np.cos(t), np.sin(t))
        _, foot_oracle = sweep_distance(f, x)
        foot = S.project(x)
        np.testing.assert_allclose(foot, foot_oracle, atol=1e-6)
        np.testing.assert_allclose(foot, [0.0, 1.0], atol=1e-8)

    def test_circle_center_beyond_reach(self):
        S = Circle((0.0, 0.0), 1.0)
        with pytest.raises(BeyondReach):
            S.project(np.array([0.0, 0.0]))


class TestReflection:
    def test_line_mirror(self):
        S = Line(normal=(0.0, 1.0), offset=0.0)
        np.testing.assert_allclose(S.reflect_point(np.array([2.0, 3.0])), [2.0, -3.0])

    def test_circle_mirror(self):
        S = Circle((0.0, 0.0), 1.0)
        np.testing.assert_allclose(S.reflect_point(np.array([0.5, 0.0])), [1.5, 0.0])

    def test_reflect_beyond_reach(self):
        S = Circle((0.0, 0.0), 1.0)
        with pytest.raises(BeyondReach):
            S.reflect_point(np.array([3.0, 0.0]))

    def test_reach_check_on_finite_and_infinite_reach(self):
        """A Circle still checks its reach in both reflections; a Line skips
        the check where it cannot fire and gives the mirror and reflected
        vector bits of the unchecked formulas, and a distance that
        overflows the norm still raises."""
        S = Circle((0.0, 0.0), 1.0)
        far = np.array([[0.5, 0.0], [0.0, 2.5]])
        for query in (lambda x: S.reflect_point(x),
                      lambda x: S.reflect_vector(x, np.ones_like(x))):
            with pytest.raises(BeyondReach):
                query(far)
        line = Line(normal=(0.6, -0.8), offset=0.3)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(64, 2)) * 10.0 ** rng.uniform(-3, 140, (64, 1))
        v = rng.normal(size=(64, 2))
        feet = line.project(x)
        n = line.normal(x)
        assert line.reflect_point(x).tobytes() == (2.0 * feet - x).tobytes()
        assert line.reflect_vector(x, v).tobytes() == (
            v - 2.0 * np.sum(v * n, axis=-1, keepdims=True) * n).tobytes()
        with np.errstate(over="ignore"), pytest.raises(BeyondReach):
            line.reflect_point(np.array([0.0, 1e200]))

    def test_vector_reflection_line(self):
        S = Line(normal=(0.0, 1.0), offset=0.0)
        np.testing.assert_allclose(
            S.reflect_vector(np.array([0.0, 0.5]), np.array([1.0, 1.0])),
            [1.0, -1.0])

    def test_tangent_vector_fixed(self):
        S = Circle((0.0, 0.0), 1.0)
        x = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])  # tangent at (1, 0)
        np.testing.assert_allclose(S.reflect_vector(x, v), v, atol=1e-12)

    def test_normal_vector_flips(self):
        S = Circle((0.0, 0.0), 1.0)
        np.testing.assert_allclose(
            S.reflect_vector(np.array([1.0, 0.0]), np.array([1.0, 0.0])),
            [-1.0, 0.0], atol=1e-12)

    def test_vector_reflection_preserves_norm(self):
        S = Circle((0.0, 0.0), 1.0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = np.array([1.0, 0.0]) + 0.3 * rng.standard_normal(2)
            v = rng.standard_normal(2)
            w = S.reflect_vector(x, v)
            assert np.linalg.norm(w) == pytest.approx(np.linalg.norm(v), abs=1e-12)

    @settings(max_examples=40, derandomize=True)
    @given(st.floats(-3, 3), st.floats(0.05, 0.8), st.floats(0, 2 * np.pi))
    def test_involution_circle(self, _seed, depth, angle):
        S = Circle((0.0, 0.0), 1.0)
        x = (1.0 + depth) * np.array([np.cos(angle), np.sin(angle)])
        back = S.reflect_point(S.reflect_point(x))
        assert np.linalg.norm(back - x) <= 1e-10 * (1.0 + np.linalg.norm(x))

    def test_involution_parametric(self):
        S = unit_circle_parametric(128)
        rng = np.random.default_rng(7)
        for _ in range(20):
            ang = rng.uniform(0, 2 * np.pi)
            x = (1.0 + rng.uniform(-0.3, 0.3)) * np.array([np.cos(ang), np.sin(ang)])
            back = S.reflect_point(S.reflect_point(x))
            assert np.linalg.norm(back - x) <= 1e-8 * (1.0 + np.linalg.norm(x))

    def test_foot_consistency(self):
        for S in (Line(normal=(0.0, 1.0)), Circle((0.0, 0.0), 1.0)):
            rng = np.random.default_rng(11)
            for _ in range(20):
                ang = rng.uniform(0, 2 * np.pi)
                base = np.array([np.cos(ang), np.sin(ang)])
                x = base * (1.0 + rng.uniform(-0.4, 0.4)) if isinstance(S, Circle) \
                    else np.array([rng.uniform(-2, 2), rng.uniform(-1, 1)])
                foot1 = S.project(x)
                foot2 = S.project(S.reflect_point(x))
                assert np.linalg.norm(foot1 - foot2) <= 1e-8

    def test_second_order_closeness_circle(self):
        """|y~ - refl(y)| <= c1 |y - zeta(x)|^2 / r_S around a fixed foot."""
        S = Circle((0.0, 0.0), 1.0)
        base = np.array([1.0, 0.0])
        r_s = S.reflection_regularity_scale(base)
        refl = S.affine_reflection(base)
        rng = np.random.default_rng(5)
        ratios = []
        for _ in range(200):
            y = base + rng.uniform(-0.5, 0.5, 2) * r_s
            if S.distance(y) >= 0.9 * S.reach:
                continue
            dev = np.linalg.norm(S.reflect_point(y) - refl(y))
            d2 = np.sum((y - base) ** 2)
            if d2 > 1e-10:
                ratios.append(dev * r_s / d2)
        assert max(ratios) < 10.0  # finite, O(1) measured constant

    def test_second_order_closeness_radial_probe(self):
        # radial probes reflect exactly; the deviation bound is trivially met
        S = Circle((0.0, 0.0), 1.0)
        x = np.array([0.9, 0.1])
        foot = S.project(x)
        refl = S.affine_reflection(foot)
        dev = np.linalg.norm(S.reflect_point(x) - refl(x))
        r_s = S.reflection_regularity_scale(foot)
        assert dev <= 2.0 * np.sum((x - foot) ** 2) / r_s + 1e-12

    def test_pointwise_second_order_bound_sampled(self):
        # measured form of the closeness estimate on the unit circle
        S = Circle((0.0, 0.0), 1.0)
        rng = np.random.default_rng(13)
        for _ in range(100):
            base = S.boundary_samples(32)[rng.integers(32)]
            t, n = S.tangent(base), S.normal(base)
            y = base + rng.uniform(-0.1, 0.1) * t + rng.uniform(-0.1, 0.1) * n
            dev = np.linalg.norm(S.reflect_point(y) - S.affine_reflection(base)(y))
            assert dev <= 2.0 * np.sum((y - base) ** 2) + 1e-12


class TestReflectionData:
    def test_fields_consistent(self):
        S = Circle((0.0, 0.0), 1.0)
        x = np.array([0.8, 0.3])
        data = S.reflection_data(x)
        np.testing.assert_allclose(data.mirror, 2.0 * data.foot - data.base,
                                   atol=1e-15)
        assert data.distance == pytest.approx(np.linalg.norm(x - data.foot))
        assert data.local_scale > 0.0


class TestTraceEstimate:
    def test_trace_of_mirror_hessian(self):
        """tr_L D^2 |x~|^2 stays within c (d + |x~|)/r_S of 2n, sampled."""
        S = Circle((0.0, 0.0), 1.0)
        r_s = S.global_reflection_scale(8)
        rng = np.random.default_rng(2)
        ratios = []
        for h in (1e-5, 5e-6):
            worst = 0.0
            for _ in range(60):
                ang = rng.uniform(0, 2 * np.pi)
                x = (1.0 + rng.uniform(-0.3, 0.3)) * np.array([np.cos(ang), np.sin(ang)])
                e = rng.standard_normal(2)
                e /= np.linalg.norm(e)

                def f(p):
                    return np.sum(S.reflect_point(p) ** 2)

                second = (f(x + h * e) - 2.0 * f(x) + f(x - h * e)) / h ** 2
                mirror = S.reflect_point(x)
                denom = (S.distance(x) + np.linalg.norm(mirror)) / r_s
                worst = max(worst, abs(second - 2.0) / max(denom, 1e-12))
            ratios.append(worst)
        assert all(np.isfinite(r) for r in ratios)
        assert ratios[1] <= 2.0 * ratios[0] + 1e-6  # stable under refinement


class TestInverseProjection:
    def test_flat_chart_is_identity(self):
        S = Line(normal=(0.0, 1.0), offset=0.0)
        phi = S.inverse_projection(np.array([0.0, 0.0]))
        xi = np.linspace(-3, 3, 11)
        s = np.linspace(-2, 2, 11)
        XI, SS = np.meshgrid(xi, s)
        val = phi.evaluate(XI, SS)
        np.testing.assert_allclose(val[..., 0], XI, atol=1e-14)
        np.testing.assert_allclose(val[..., 1], SS, atol=1e-14)

    def test_normalization_at_base(self):
        S = Circle((0.0, 0.0), 2.0)
        phi = S.inverse_projection(np.array([2.0, 0.0]))
        np.testing.assert_allclose(phi.evaluate(0.0, 0.0), [0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(phi.jacobian(0.0, 0.0), np.eye(2), atol=1e-10)

    def test_jacobian_deviation_linear_in_radius(self):
        """sup over the 0.1-box of |DPhi - Id| <= c * 0.1 with c <= 2 (unit circle)."""
        S = Circle((0.0, 0.0), 1.0)
        phi = S.inverse_projection(np.array([1.0, 0.0]))
        r = 0.1
        xi = np.linspace(-r, r, 41)
        s = np.linspace(-r, r, 41)
        XI, SS = np.meshgrid(xi, s)
        jac = phi.jacobian(XI, SS)
        dev = np.abs(jac - np.eye(2)).max()
        assert dev <= 2.0 * r

    def test_jacobian_matches_finite_differences(self):
        S = Circle((0.0, 0.0), 1.0)
        phi = S.inverse_projection(np.array([0.0, 1.0]))
        h = 1e-6
        for (xi, s) in [(0.05, -0.1), (-0.2, 0.15)]:
            fd0 = (phi.evaluate(xi + h, s) - phi.evaluate(xi - h, s)) / (2 * h)
            fd1 = (phi.evaluate(xi, s + h) - phi.evaluate(xi, s - h)) / (2 * h)
            jac = phi.jacobian(xi, s)
            np.testing.assert_allclose(jac[..., 0], fd0, atol=1e-8)
            np.testing.assert_allclose(jac[..., 1], fd1, atol=1e-8)

    def test_inversion_roundtrip(self):
        S = Circle((0.0, 0.0), 1.0)
        phi = S.inverse_projection(np.array([1.0, 0.0]))
        targets = np.array([[0.05, 0.1], [-0.1, -0.02], [0.2, 0.0]])
        q = phi.invert(targets)
        np.testing.assert_allclose(phi.evaluate(q[:, 0], q[:, 1]), targets, atol=1e-10)


class TestRegularityScales:
    def test_flat_scales_capped(self):
        S = Line(normal=(0.0, 1.0))
        assert S.regularity_scale(np.zeros(2), 2) == S.scale_cap
        assert S.reflection_regularity_scale(np.zeros(2)) == S.scale_cap

    def test_circle_scale_proportional_to_radius(self):
        vals = []
        for R in (1.0, 2.0, 4.0):
            S = Circle((0.0, 0.0), R)
            vals.append(S.regularity_scale(np.array([R, 0.0]), 2) / R)
        assert abs(vals[0] - vals[1]) <= 1e-2 * vals[0]
        assert abs(vals[1] - vals[2]) <= 1e-2 * vals[1]

    def test_reflection_scale_bounded_by_c3_scale(self):
        S = Circle((0.0, 0.0), 1.0)
        y = np.array([1.0, 0.0])
        r3 = S.regularity_scale(y, 3)
        rs = S.reflection_regularity_scale(y)
        assert 0.0 < rs <= r3 * (1 + 1e-9)

    def test_reflection_scale_equivariance(self):
        r1 = Circle((0.0, 0.0), 1.0).reflection_regularity_scale(np.array([1.0, 0.0]))
        r2 = Circle((0.0, 0.0), 2.0).reflection_regularity_scale(np.array([2.0, 0.0]))
        assert r2 == pytest.approx(2.0 * r1, rel=5e-3)

    def test_circle_beats_ellipse_vertex(self):
        circle = Circle((0.0, 0.0), 1.0)
        ellipse = ellipse_parametric(2.0, 1.0, 256)
        r_circle = circle.reflection_regularity_scale(np.array([1.0, 0.0]))
        r_vertex = ellipse.reflection_regularity_scale(np.array([2.0, 0.0]))
        assert r_circle > r_vertex

    def test_regularity_scale_equivariance(self):
        r1 = Circle((0.0, 0.0), 1.0).regularity_scale(np.array([0.0, 1.0]), 2)
        r2 = Circle((0.0, 0.0), 3.0).regularity_scale(np.array([0.0, 3.0]), 2)
        assert r2 == pytest.approx(3.0 * r1, rel=5e-3)


class TestMeasuredC1:
    def test_line_floor(self):
        assert measured_c1(Line()) == 2.0

    def test_circle_finite(self):
        c1 = measured_c1(Circle((0.0, 0.0), 1.0))
        assert 2.0 <= c1 < 50.0


BARRIER_KINDS = [lambda: Line(normal=(3.0, 4.0), offset=1.0),
                 lambda: Circle((0.3, -0.2), 1.3),
                 lambda: ellipse_parametric(1.5, 1.0, 256)]
KIND_IDS = ["line", "circle", "ellipse"]
TH64 = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)


class TestFrozen:
    """Barriers are values: nothing can be assigned after construction."""

    @pytest.mark.parametrize("make", BARRIER_KINDS, ids=KIND_IDS)
    def test_assignment_raises(self, make):
        S = make()
        with pytest.raises(FrozenInstanceError):
            S.reach = 0.5
        with pytest.raises(FrozenInstanceError):
            S.extra = 1.0
        with pytest.raises(FrozenInstanceError):
            del S.reach

    @pytest.mark.parametrize("make", BARRIER_KINDS, ids=KIND_IDS)
    def test_array_attributes_read_only(self, make):
        S = make()
        arrays = [v for v in vars(S).values() if isinstance(v, np.ndarray)]
        assert arrays
        for a in arrays:
            with pytest.raises(ValueError):
                a.flat[0] = 0.0

    @pytest.mark.parametrize("copier", [
        copy.deepcopy, lambda S: pickle.loads(pickle.dumps(S))],
        ids=["deepcopy", "pickle"])
    @pytest.mark.parametrize("make", [
        BARRIER_KINDS[0], BARRIER_KINDS[1],
        lambda: ParametricBarrier(np.stack(
            [1.5 * np.cos(TH64), np.sin(TH64)], axis=-1))],
        ids=["line", "circle", "table"])
    def test_copies_are_frozen_values(self, make, copier):
        """A deep copy or an unpickled barrier keeps read-only arrays next to
        the measurement it carries, and answers with the same bits."""
        S = make()
        S.global_reflection_scale()
        T = copier(S)
        arrays = [v for v in vars(T).values() if isinstance(v, np.ndarray)]
        assert arrays and not any(a.flags.writeable for a in arrays)
        with pytest.raises(FrozenInstanceError):
            T.reach = 0.5
        assert T.global_reflection_scale() == S.global_reflection_scale()
        pts = near_unit_circle(50, seed=3)
        assert T.project(pts).tobytes() == S.project(pts).tobytes()
        assert T.normal(pts).tobytes() == S.normal(pts).tobytes()

    def test_arrays_are_copies(self):
        center, points = np.array([0.3, -0.2]), near_unit_circle(32, seed=1)
        C, P = Circle(center, 1.3), ParametricBarrier(points)
        center[0], points[0, 0] = 9.0, 9.0
        assert C.center[0] == 0.3 and P.points[0, 0] != 9.0
        assert center.flags.writeable and points.flags.writeable


class TestConstructorChecks:
    """Coordinates of the wrong shape and unknown sides raise ValueError,
    which a scenario config reports as a config error."""

    @pytest.mark.parametrize("normal", [(0.0, -1.0, 0.0), (1.0,), [[0.0, 1.0]]])
    def test_line_normal_needs_two_numbers(self, normal):
        with pytest.raises(ValueError, match="normal must be 2 numbers"):
            Line(normal=normal)

    @pytest.mark.parametrize("center", [(0.0, 0.0, 0.0), (1.0,), 0.0])
    def test_circle_center_needs_two_numbers(self, center):
        with pytest.raises(ValueError, match="center must be 2 finite numbers"):
            Circle(center=center, radius=1.0)

    @pytest.mark.parametrize("points", [np.zeros((8, 3)), np.zeros(16),
                                        np.zeros((8, 2, 1))])
    def test_parametric_points_need_two_columns(self, points):
        with pytest.raises(ValueError, match=r"must be \(m, 2\)"):
            ParametricBarrier(points)

    @pytest.mark.parametrize("make", [
        lambda side: Circle(radius=1.0, omega_side=side),
        lambda side: ParametricBarrier(
            np.stack([np.cos(TH64), np.sin(TH64)], axis=-1), omega_side=side)],
        ids=["circle", "parametric"])
    def test_unknown_omega_side_raises(self, make):
        with pytest.raises(ValueError, match="omega_side"):
            make("bogus")
        assert make("outside").omega_side == "outside"


class TestMeasuredOnce:
    """r_S and c1 are measured on first use and kept on the barrier."""

    @pytest.mark.parametrize("make, n", [(lambda: Circle((0.3, -0.2), 1.3), 16),
                                         (lambda: ellipse_parametric(1.5, 1.0),
                                          4)],
                             ids=["circle", "ellipse"])
    def test_kept_values_equal_fresh_values(self, make, n):
        S = make()
        c1, r_s = measured_c1(S), S.global_reflection_scale(n)
        assert (measured_c1(S), S.global_reflection_scale(n)) == (c1, r_s)
        fresh = make()
        assert fresh.global_reflection_scale(n) == r_s
        assert measured_c1(fresh) == c1
        # the value an unkept measurement gives
        assert r_s == min(S.reflection_regularity_scale(p)
                          for p in S.boundary_samples(n))

    @pytest.fixture
    def scale_calls(self, monkeypatch):
        """Calls of Circle.reflection_regularity_scale, one entry each."""
        calls = []
        scale = Circle.reflection_regularity_scale

        def counting(self, y):
            calls.append(1)
            return scale(self, y)

        monkeypatch.setattr(Circle, "reflection_regularity_scale", counting)
        return calls

    def test_second_call_measures_nothing(self, scale_calls):
        S = Circle((0.0, 0.0), 1.0, omega_side="outside")
        S.global_reflection_scale()
        assert len(scale_calls) == 16
        S.global_reflection_scale()
        assert len(scale_calls) == 16
        measured_c1(S)
        assert len(scale_calls) == 24
        measured_c1(S)
        assert len(scale_calls) == 24

    def test_sample_counts_kept_apart(self, scale_calls):
        S = Circle((0.0, 0.0), 1.0)
        r16 = S.global_reflection_scale(16)
        r8 = S.global_reflection_scale(8)
        assert len(scale_calls) == 24
        assert (S.global_reflection_scale(8), S.global_reflection_scale(16)) \
            == (r8, r16)
        assert len(scale_calls) == 24
        assert Circle((0.0, 0.0), 1.0).global_reflection_scale(8) == r8

    def test_transformed_measures_its_own_scale(self):
        S = Circle((0.2, 0.1), 1.0)
        r_s = S.global_reflection_scale()
        T = S.transformed((0.2, 0.1), 0.5)
        assert T.global_reflection_scale() == pytest.approx(2.0 * r_s,
                                                            rel=5e-3)
        assert T.global_reflection_scale() == \
            Circle((0.0, 0.0), 2.0).global_reflection_scale()
        assert S.global_reflection_scale() == r_s


class TestNormals:
    def test_unit_normals(self):
        for S in (Line(normal=(3.0, 4.0), offset=1.0),
                  Circle((1.0, -2.0), 1.5),
                  unit_circle_parametric(64)):
            pts = S.boundary_samples(16)
            norms = np.linalg.norm(np.atleast_2d(S.normal(pts)), axis=-1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_omega_side_circle(self):
        inside = Circle((0.0, 0.0), 1.0, omega_side="inside")
        outside = Circle((0.0, 0.0), 1.0, omega_side="outside")
        x_in = np.array([0.3, 0.0])
        assert inside.omega_signed(x_in) > 0
        assert outside.omega_signed(x_in) < 0
        # normal points out of Omega
        np.testing.assert_allclose(inside.normal(np.array([1.0, 0.0])), [1.0, 0.0])
        np.testing.assert_allclose(outside.normal(np.array([1.0, 0.0])), [-1.0, 0.0])

    def test_ellipse_omega_signed_sign(self):
        """Signed depth agrees with x^2/a^2 + y^2/b^2 < 1 and has the
        distance as its magnitude (one foot solve serves both factors)."""
        S = ellipse_parametric(2.0, 1.0, 256)
        pts = np.random.default_rng(5).uniform([-3.0, -2.0], [3.0, 2.0],
                                               size=(300, 2))
        q = (pts[:, 0] / 2.0) ** 2 + pts[:, 1] ** 2
        pts = pts[np.abs(q - 1.0) > 0.05][:100]
        inside = (pts[:, 0] / 2.0) ** 2 + pts[:, 1] ** 2 < 1.0
        depth = S.omega_signed(pts)
        assert inside.any() and not inside.all()
        np.testing.assert_array_equal(depth > 0, inside)
        np.testing.assert_allclose(np.abs(depth), S.distance(pts), rtol=0,
                                   atol=1e-10)


class TestBatchInvariance:
    """A query on one point returns the bits of its row in a batched call."""

    @pytest.mark.parametrize("S", [Line(normal=(3.0, 4.0), offset=1.0),
                                   Line(normal=(-0.6, 1.7), offset=-0.3),
                                   Circle((0.3, -0.2), 1.3),
                                   ellipse_parametric(2.0, 1.0, 256),
                                   spline_parametric(256)],
                             ids=["line", "line-skew", "circle", "ellipse",
                                  "spline"])
    def test_single_equals_batch_row(self, S):
        # within half a unit of S, and inside the reach of curved barriers
        half = min(0.5, 0.4 * S.reach)
        pts = S.boundary_samples(1000) \
            + np.random.default_rng(3).uniform(-half, half, size=(1000, 2))
        for query in (S.project, S.normal, S.omega_signed, S.reflect_point,
                      S.distance):
            batch = query(pts)
            for x, row in zip(pts, batch):
                assert np.array_equal(query(x), row), query.__name__

    BARRIERS = [Line(normal=(-0.6, 1.7), offset=-0.3), Circle((0.3, -0.2), 1.3),
                ellipse_parametric(2.0, 1.0, 256), spline_parametric(256)]
    IDS = ["line", "circle", "ellipse", "spline"]
    PARAMS = KernelParams(kappa=1.0)

    @classmethod
    def queries(cls, S):
        """Every point query of S and the kernels, as functions of points
        (..., 2) and times (...); rows of a batch get their own time."""
        p = cls.PARAMS
        foot = S.boundary_samples(7)[3]
        refl = S.affine_reflection(foot)
        X0 = np.append(foot, 0.02)
        return {
            "project": lambda x, t: S.project(x),
            "normal": lambda x, t: S.normal(x),
            "omega_signed": lambda x, t: S.omega_signed(x),
            "distance": lambda x, t: S.distance(x),
            "tangent": lambda x, t: S.tangent(x),
            "reflect_point": lambda x, t: S.reflect_point(x),
            "reflect_vector": lambda x, t: S.reflect_vector(x, x[..., ::-1]),
            "distance_gradient": lambda x, t: S.distance_gradient(x),
            "distance_hessian": lambda x, t: S.distance_hessian(x),
            "affine_reflection": lambda x, t: refl(x),
            "heat_kernel": lambda x, t: heat_kernel(x - foot, t),
            "cutoff": lambda x, t: cutoff(x - foot, t, p),
            "reflected_cutoff": lambda x, t: reflected_cutoff(S, x, t, p),
            "reflected_truncated_kernel":
                lambda x, t: reflected_truncated_kernel(S, X0, x, t, p),
        }

    @staticmethod
    def sample(S, n, seed):
        half = min(0.5, 0.4 * S.reach)
        rng = np.random.default_rng(seed)
        pts = S.boundary_samples(n) + rng.uniform(-half, half, size=(n, 2))
        return pts, -rng.uniform(0.001, 0.01, n)

    @pytest.mark.parametrize("S", BARRIERS, ids=IDS)
    def test_every_query_single_equals_batch_row(self, S):
        pts, ts = self.sample(S, 60, seed=5)
        for name, query in self.queries(S).items():
            batch = query(pts, ts)
            assert batch.shape[0] == len(pts), name
            for x, t, row in zip(pts, ts, batch):
                assert np.array_equal(query(x, t), row), name

    @pytest.mark.parametrize("S", BARRIERS, ids=IDS)
    def test_grid_of_points_keeps_shape_and_bits(self, S):
        pts, ts = self.sample(S, 60, seed=6)
        for name, query in self.queries(S).items():
            flat = query(pts, ts)
            grid = query(pts.reshape(3, 20, 2), ts.reshape(3, 20))
            assert grid.shape == (3, 20) + flat.shape[1:], name
            assert np.array_equal(grid.reshape(flat.shape), flat), name

    def test_fallback_hessian_step_is_per_point(self):
        """The finite-difference Hessian of one point does not depend on the
        other points of its call."""
        S = ellipse_parametric(1.5, 1.0, 256)
        y = np.array([1.4, 0.1])
        alone = S.distance_hessian(y)
        paired = S.distance_hessian(np.array([y, [3.0, 0.0]]))[0]
        assert np.array_equal(alone, paired)


class TestParametric:
    ELLIPSE = ellipse_parametric(2.0, 1.0, 256)  # reach b^2/a = 0.5

    @settings(max_examples=60, derandomize=True)
    @given(st.floats(0, 2 * np.pi), st.floats(-0.2, 0.2))
    def test_ellipse_reflection_involution(self, angle, depth):
        x = ellipse_point(angle, depth)
        back = self.ELLIPSE.reflect_point(self.ELLIPSE.reflect_point(x))
        assert np.linalg.norm(back - x) <= 1e-10 * (1.0 + np.linalg.norm(x))

    @settings(max_examples=60, derandomize=True)
    @given(st.floats(0, 2 * np.pi), st.floats(-0.4, 1.0))
    def test_ellipse_projection_idempotent(self, angle, depth):
        foot = self.ELLIPSE.project(ellipse_point(angle, depth))
        assert np.linalg.norm(self.ELLIPSE.project(foot) - foot) <= 1e-12

    @pytest.mark.parametrize("n_points", [1, 500])
    def test_project_calls_callables_in_lockstep(self, n_points):
        """All points and starts share each Newton iteration: 3 callable
        calls per iteration, at most 60 iterations, one final evaluation."""
        calls = []

        def counted(fn):
            def wrapped(t):
                calls.append(1)
                return fn(t)
            return wrapped

        a, b = 2.0, 1.0
        S = ParametricBarrier.from_function(
            counted(lambda t: np.array([a * np.cos(t), b * np.sin(t)])),
            counted(lambda t: np.array([-a * np.sin(t), b * np.cos(t)])),
            counted(lambda t: np.array([-a * np.cos(t), -b * np.sin(t)])))
        pts = np.stack([ellipse_point(t, d) for t, d in zip(
            np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False),
            np.linspace(-0.3, 0.8, n_points))])
        calls.clear()
        feet = S.project(pts)
        assert len(calls) <= 3 * 60 + 1
        assert feet.shape == (n_points, 2)

    @pytest.mark.parametrize("make", [lambda: ellipse_parametric(1.5, 1.0),
                                      lambda: unit_circle_parametric(64),
                                      lambda: spline_parametric(64)],
                             ids=["ellipse", "circle", "spline"])
    def test_tree_seeds_match_dense_seeds(self, make):
        """The k-d tree's eight nearest samples give the feet that the
        eight nearest by a full sort of all sample distances give, on a
        cloud, on the table samples and on the symmetry axes, where
        samples tie."""

        class DenseSeeds:
            def __init__(self, points):
                self.points = points

            def query(self, pts, k):
                d2 = norm2_sq(self.points[None, :, :] - pts[:, None, :])
                return None, np.argsort(d2, axis=1)[:, :k]

        S, dense = make(), make()
        dense._measured("sample_tree", lambda: DenseSeeds(dense.points))
        rng = np.random.default_rng(8)
        ang = rng.uniform(0.0, 2.0 * np.pi, 1000)
        rho = 1.0 + rng.uniform(-0.2, 0.2, 1000)
        axis = np.linspace(-1.8, 1.8, 37)
        axis = axis[np.abs(axis) > 0.3]
        zero = np.zeros_like(axis)
        pts = np.concatenate([
            rho[:, None] * np.stack([1.5 * np.cos(ang), np.sin(ang)], axis=-1),
            S.points, np.stack([axis, zero], axis=-1),
            np.stack([zero, axis], axis=-1)])
        for got, want in zip(S._foot_parameter(pts),
                             dense._foot_parameter(pts)):
            assert np.array_equal(got, want)

    def test_foot_query_memory_is_linear_in_points(self):
        """4,096 points on a 256-sample table hold O(points) at a time."""
        import tracemalloc
        S = ellipse_parametric(1.5, 1.0, 256)
        pts = near_unit_circle(4096, seed=9) * [1.5, 1.0]
        S.project(pts[:2])
        tracemalloc.start()
        S.project(pts)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 12e6

    def test_spline_matches_circle(self):
        S, C = spline_parametric(256), Circle((0.0, 0.0), 1.0)
        x = near_unit_circle(500, seed=4)
        np.testing.assert_allclose(S.project(x), C.project(x), rtol=0, atol=1e-6)

    @pytest.mark.parametrize("S", [ellipse_parametric(2.0, 1.0, 256),
                                   spline_parametric(256)],
                             ids=["ellipse", "spline"])
    def test_transformed_commutes_with_project(self, S):
        c, s = np.array([0.3, -0.2]), 0.7
        x = near_unit_circle(200, seed=6)
        np.testing.assert_allclose(S.transformed(c, s).project((x - c) / s),
                                   (S.project(x) - c) / s, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("S, tol", [(unit_circle_parametric(64), 1e-8),
                                        (spline_parametric(256), 1e-6)],
                             ids=["analytic", "spline"])
    def test_chart_matches_circle_chart(self, S, tol):
        C = Circle((0.0, 0.0), 1.0)
        xi = np.linspace(-0.5, 0.5, 41).reshape(41, 1) * [1.0, -0.6]
        for ang in (0.0, 1.0, 2.5, 4.0):
            y = np.array([np.cos(ang), np.sin(ang)])
            chart, exact = S.local_chart(y), C.local_chart(y)
            got = chart.u(xi)
            assert got.shape == xi.shape
            np.testing.assert_allclose(got, exact.u(xi), rtol=0, atol=tol)
            np.testing.assert_allclose(chart.du(xi), exact.du(xi), rtol=0,
                                       atol=10 * tol)
