import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbmcf.barrier import Circle, Line, ParametricBarrier, measured_c1
from fbmcf.errors import BeyondReach


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


def sweep_distance(f, x, n=2_000_001):
    """Independent oracle: dense parameter sweep of |gamma(t) - x|."""
    t = np.linspace(0.0, 2.0 * np.pi, n)
    pts = np.stack([f(t)[0], f(t)[1]], axis=-1)
    d = np.linalg.norm(pts - np.asarray(x), axis=1)
    i = np.argmin(d)
    return d[i], pts[i]


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
                                   Circle((0.3, -0.2), 1.3)],
                             ids=["line", "line-skew", "circle"])
    def test_single_equals_batch_row(self, S):
        # within half a unit of S, inside the circle's reach
        pts = S.boundary_samples(1000) \
            + np.random.default_rng(3).uniform(-0.5, 0.5, size=(1000, 2))
        for query in (S.project, S.normal, S.omega_signed, S.reflect_point,
                      S.distance):
            batch = query(pts)
            for x, row in zip(pts, batch):
                assert np.array_equal(query(x), row), query.__name__
