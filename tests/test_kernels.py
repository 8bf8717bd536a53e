import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbmcf.barrier import Circle, Line
from fbmcf.errors import CalibrationFailure, KappaTooLarge, NonNegativeTime
from fbmcf.kernels import (
    KernelParams, beta0_squared, calibrate_alpha, cutoff, cutoff_argument,
    heat_kernel, heat_operator, reflected_truncated_kernel,
    sample_heat_operator_cases, support_probe,
)

LINE = Line(normal=(0.0, -1.0), offset=0.0)  # Omega = upper half plane


class TestHeatKernel:
    def test_normalization_at_origin(self):
        tau = 1.0 / (4.0 * np.pi)
        assert heat_kernel(np.zeros(2), -tau) == pytest.approx(1.0)

    def test_closed_form_value(self):
        val = heat_kernel(np.array([2.0, 0.0]), -1.0)
        assert val == pytest.approx((4.0 * np.pi) ** -0.5 * np.exp(-1.0))

    @settings(max_examples=50, derandomize=True)
    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0.1, 2.0),
           st.floats(0.3, 3.0))
    def test_parabolic_homogeneity(self, x1, x2, tau, lam):
        x = np.array([x1, x2])
        lhs = heat_kernel(lam * x, -lam ** 2 * tau)
        rhs = lam ** -1 * heat_kernel(x, -tau)
        assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-12)

    def test_positive_time_rejected(self):
        with pytest.raises(NonNegativeTime):
            heat_kernel(np.zeros(2), 0.5)


class TestCutoff:
    def test_center_value(self):
        for alpha in (0.5, 2.0, 8.0):
            p = KernelParams(kappa=0.7, alpha=alpha)
            val = cutoff(np.zeros(2), -p.kappa ** 2, p)
            assert val == pytest.approx((1.0 + alpha) ** 4)

    def test_support_boundary(self):
        p = KernelParams(kappa=1.3, alpha=1.0)
        tau = 0.3 * p.kappa ** 2
        r_sq = p.alpha * tau + p.kappa ** 2 * (tau / p.kappa ** 2) ** 0.75
        val = cutoff(np.array([np.sqrt(r_sq), 0.0]), -tau, p)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_support_radius_claim(self):
        """tau <= beta0^2 kappa^2 confines spt phi to B_{kappa/20}."""
        p = KernelParams(kappa=2.0, alpha=8.0)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            tau = p.beta0_sq * p.kappa ** 2 * rng.uniform(0.01, 1.0)
            x = rng.uniform(-0.2, 0.2, 2) * p.kappa
            if cutoff(x, -tau, p) > 0:
                assert np.linalg.norm(x) <= p.kappa / 20.0 + 1e-12

    def test_beta0_formula(self):
        assert beta0_squared(8.0) == pytest.approx((9.0 * 400.0) ** (-4.0 / 3.0))


class TestReflectedCutoff:
    """The mirror summand phi~ rho~ of ``reflected_truncated_kernel``."""

    def test_flat_mirror(self):
        p = KernelParams(kappa=1.0, alpha=8.0)
        tau = 0.5 * p.beta0_sq
        X0 = np.array([0.0, 0.002, 0.0])
        x, mirror = np.array([0.003, 0.004]), np.array([0.003, -0.004])
        direct = cutoff(x - X0[:2], -tau, p) * heat_kernel(x - X0[:2], -tau)
        mirrored = cutoff(mirror - X0[:2], -tau, p) \
            * heat_kernel(mirror - X0[:2], -tau)
        assert mirrored > 0.0
        assert reflected_truncated_kernel(LINE, X0, x, -tau, p) \
            == pytest.approx(float(direct + mirrored))

    def test_fixed_points_on_barrier(self):
        """A point on the barrier is its own mirror image."""
        p = KernelParams(kappa=1.0, alpha=8.0)
        tau = 0.3 * p.beta0_sq
        x = np.array([0.003, 0.0])
        direct = cutoff(x, -tau, p) * heat_kernel(x, -tau)
        assert direct > 0.0
        assert reflected_truncated_kernel(LINE, np.zeros(3), x, -tau, p) \
            == pytest.approx(2.0 * float(direct))

    def test_combined_support_near_barrier(self):
        S = Circle((0.0, 0.0), 1.0, omega_side="outside")
        p = KernelParams.for_barrier(S)
        assert support_probe(S, p, n_probes=1000, seed=3) > 0.0

    @pytest.mark.parametrize("S", [Circle((0.0, 0.0), 1.0),
                                   Circle((0.2, -0.1), 1.3, omega_side="outside"),
                                   Line(normal=(0.3, -1.0), offset=0.2)],
                             ids=["inside", "outside", "line"])
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_support_probe_equals_probe_loop(self, S, seed):
        """The batched probe returns the bits of one probe at a time, also
        where a too-long time horizon makes margins negative."""

        class LongHorizon(KernelParams):
            @property
            def beta0_sq(self):
                return 50.0 * beta0_squared(self.alpha)

        for p in (KernelParams(kappa=0.2, alpha=8.0),
                  LongHorizon(kappa=0.2, alpha=1.0)):
            got = support_probe(S, p, n_probes=300, seed=seed)
            assert repr(got) == repr(_support_probe_loop(S, p, 300, seed))

    def test_out_of_reach_is_zero(self):
        """A point far outside the reach tube has no mirror term, even with
        the centre at its mirror image 2 zeta(x) - x = (-3, 0)."""
        S = Circle((0.0, 0.0), 1.0)
        p = KernelParams(kappa=0.15, alpha=8.0)
        assert reflected_truncated_kernel(
            S, np.array([-3.0, 0.0, 0.0]), np.array([5.0, 0.0]),
            -0.5 * p.beta0_sq * p.kappa ** 2, p) == 0.0


class TestReflectedTruncatedKernel:
    def test_times_per_point_with_a_point_out_of_reach(self):
        S = Circle((0.0, 0.0), 1.0)
        p = KernelParams(kappa=0.1)
        X0 = np.array([0.9, 0.0, 0.0])
        x = np.array([[0.9, 0.0], [0.0, 0.95], [2.5, 0.0]])
        t = np.array([-1e-4, -2e-4, -3e-4])
        vals = reflected_truncated_kernel(S, X0, x, t, p)
        assert vals[0] > 0.0
        for xi, ti, v in zip(x, t, vals):
            assert v == reflected_truncated_kernel(S, X0, xi, ti, p)

    def test_flat_symmetry(self):
        p = KernelParams(kappa=1.0, alpha=8.0)
        x0 = np.array([0.0, 0.0, 0.0])  # spacetime center on the barrier
        tau = 0.4 * p.beta0_sq
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(-0.05, 0.05, 2)
            xm = np.array([x[0], -x[1]])
            a = reflected_truncated_kernel(LINE, x0, x, -tau, p)
            b = reflected_truncated_kernel(LINE, x0, xm, -tau, p)
            assert a == pytest.approx(b, rel=1e-12)

    def test_far_interior_reflected_term_vanishes(self):
        """d(x0) > kappa: the mirror summand misses the direct support."""
        p = KernelParams(kappa=0.5, alpha=8.0)
        x0 = np.array([0.0, 2.0, 0.0])  # two kappa above the barrier
        tau = 0.5 * p.beta0_sq * p.kappa ** 2
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = x0[:2] + rng.uniform(-1, 1, 2) * p.kappa / 10.0
            f = reflected_truncated_kernel(LINE, x0, x, -tau, p)
            direct = float(cutoff(x - x0[:2], -tau, p)
                           * heat_kernel(x - x0[:2], -tau))
            assert f == pytest.approx(direct, abs=1e-300)

    def test_total_integral_over_line(self):
        """Full line far from the barrier integrates to 1 (Gaussian quadrature oracle).

        The truncation excess scales like 4 (alpha - 2) sqrt(r / kappa), so the
        neutral constant alpha = 2 with a large flat-barrier cutoff radius makes
        the integral match the untruncated Gaussian to quadrature accuracy.
        """
        from numpy.polynomial.legendre import leggauss
        p = KernelParams(kappa=1e8, alpha=2.0)
        x0 = np.array([0.0, 50.0, 0.0])
        r = 0.05
        tau = r ** 2
        nodes, weights = leggauss(80)
        total = 0.0
        for a in np.arange(-6.0, 6.0, 0.5):
            xs = a + 0.25 * (nodes + 1.0)
            pts = np.stack([x0[0] + xs, np.full_like(xs, 50.0)], axis=-1)
            vals = reflected_truncated_kernel(LINE, x0, pts, -tau, p)
            total += np.sum(weights * 0.25 * vals)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_parabolic_scale_invariance(self):
        """f_{S/lam, kappa/lam}(x/lam, t/lam^2) = lam^n f_{S,kappa}(x,t)."""
        S = Circle((0.0, 1.2), 1.0, omega_side="outside")
        p = KernelParams(kappa=0.15, alpha=8.0)
        lam = 0.37
        S_scaled = S.transformed(np.zeros(2), lam)
        p_scaled = KernelParams(kappa=p.kappa / lam, alpha=p.alpha)
        x0 = np.zeros(3)
        rng = np.random.default_rng(5)
        for _ in range(25):
            tau = p.beta0_sq * p.kappa ** 2 * rng.uniform(0.05, 0.9)
            x = rng.uniform(-1, 1, 2) * p.kappa / 8.0
            lhs = reflected_truncated_kernel(S_scaled, x0, x / lam, -tau / lam ** 2, p_scaled)
            rhs = lam * reflected_truncated_kernel(S, x0, x, -tau, p)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestHeatOperator:
    def test_matches_closed_form_on_gaussian(self):
        """(d_t - D^2_LL) rho against the symbolic derivative, one batch."""
        rng = np.random.default_rng(6)
        xs, taus, dirs = [], [], []
        for _ in range(25):
            xs.append(rng.uniform(-1.5, 1.5, 2))
            taus.append(rng.uniform(0.3, 2.0))
            e = rng.standard_normal(2)
            dirs.append(e / np.linalg.norm(e))
        xs, taus, dirs = np.array(xs), np.array(taus), np.array(dirs)
        rho = heat_kernel(xs, -taus)
        xe = np.sum(xs * dirs, axis=1)
        exact = rho * (1.0 / taus - (np.sum(xs * xs, axis=1) + xe ** 2)
                       / (4.0 * taus ** 2))
        approx = heat_operator(heat_kernel, xs, -taus, dirs, kappa=1.0)
        assert approx == pytest.approx(exact, abs=1e-6)

    def test_cutoff_subsolution_flat(self):
        """phi is a heat subsolution in the admissible band (normalized values)."""
        p = KernelParams(kappa=1.0, alpha=8.0)
        samples = sample_heat_operator_cases(LINE, p, n_samples=300, seed=7)
        worst = max(s.value_scaled for s in samples)
        assert worst <= 1e-8

    def test_cutoff_subsolution_circle(self):
        S = Circle((0.0, 0.0), 1.0, omega_side="outside")
        alpha = calibrate_alpha(KernelParams.for_barrier(S), S, seed=8)
        p = KernelParams.for_barrier(S, alpha=alpha)
        samples = sample_heat_operator_cases(S, p, n_samples=300, seed=9)
        worst = max(s.value_scaled for s in samples)
        assert worst <= 1e-8

    def test_samples_are_pinned_bits(self):
        """The samples, their order and their bits are pinned: sha256 over
        each sample's case, x, tau, value and value_scaled."""
        S = Circle((0.0, 0.0), 1.0, omega_side="outside")
        samples = sample_heat_operator_cases(S, KernelParams.for_barrier(S),
                                             n_samples=300, seed=9)
        h = hashlib.sha256()
        for s in samples:
            h.update(s.case.encode())
            h.update(np.asarray(s.x, dtype=float).tobytes())
            h.update(np.array([s.tau, s.value, s.value_scaled]).tobytes())
        assert len(samples) == 1800
        assert h.hexdigest() == ("daf756a3f7bb334cbcabb846d9c46396"
                                 "ba75949cf4c6cce3d0f3f534d3ded9f2")
        with pytest.raises(ValueError):
            samples[0].x[0] = 0.0


class TestCalibration:
    def test_flat_barrier_returns_eight(self):
        p = KernelParams(kappa=1.0, alpha=8.0)
        assert calibrate_alpha(p, LINE, seed=0) == 8.0

    def test_circle_terminates(self):
        S = Circle((0.0, 0.0), 1.0, omega_side="outside")
        alpha = calibrate_alpha(KernelParams.for_barrier(S), S, seed=0)
        assert 0.5 <= alpha <= 2.0 ** 10

    def test_alpha_at_least_half(self):
        for barrier in (LINE, Circle((0.0, 0.0), 2.0, omega_side="outside")):
            draft = KernelParams.for_barrier(barrier)
            assert calibrate_alpha(draft, barrier, seed=1) >= 0.5

    def test_deterministic(self):
        S = Circle((0.0, 0.0), 1.0, omega_side="outside")
        draft = KernelParams.for_barrier(S)
        assert calibrate_alpha(draft, S, seed=5) == calibrate_alpha(draft, S, seed=5)


class TestAdmissibility:
    def test_kappa_too_large(self):
        S = Circle((0.0, 0.0), 1.0)
        with pytest.raises(KappaTooLarge):
            KernelParams.for_barrier(S, kappa=10.0)

    def test_default_kappa_admissible(self):
        S = Circle((0.0, 0.0), 1.0)
        p = KernelParams.for_barrier(S)
        assert p.kappa <= S.global_reflection_scale() / p.c1 * (1 + 1e-9)


def _support_probe_loop(S, params, n_probes, seed):
    """support_probe one probe at a time: the reference for its bits."""
    rng = np.random.default_rng(seed)
    kappa = params.kappa
    tau_max = params.beta0_sq * kappa ** 2
    worst = np.inf
    boundary = S.boundary_samples(128)
    for _ in range(n_probes):
        tau = tau_max * rng.uniform(0.05, 1.0)
        anchor = boundary[rng.integers(len(boundary))]
        n = S.normal(anchor)
        center = anchor - rng.uniform(0.0, kappa / 10.0) * n
        r = rng.uniform(0.0, kappa) * 1.2
        ang = rng.uniform(0.0, 2.0 * np.pi)
        x = center + r * np.array([np.cos(ang), np.sin(ang)])
        phi = float(cutoff(x - center, -tau, params))
        if phi > 0.0 and np.linalg.norm(x - center) > kappa / 20.0:
            worst = min(worst, kappa / 20.0 - np.linalg.norm(x - center))
        if S.distance(x) < S.reach * 0.98:
            tot = phi + float(cutoff(S.reflect_point(x) - center, -tau, params))
            if tot > 0.0 and np.linalg.norm(x - center) > kappa / 2.0:
                worst = min(worst, kappa / 2.0 - np.linalg.norm(x - center))
    return worst if np.isfinite(worst) else 1.0
