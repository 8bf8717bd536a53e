import sys
import time
from array import array

import numpy as np
import pytest

from fbmcf import regularize
from fbmcf.errors import (ConfigError, FbmcfError, OutOfRange,
                          StiffnessFailure)
from fbmcf.regularize import (
    i_epsilon, meridian_polyline, slab_mass, solve_translator_profile,
    translate_slices,
)

TWO_PI = 2.0 * np.pi


def i_epsilon_of_table(z, r, epsilon):
    """Weighted area (1/eps) int e^(-z/eps) dA of a competitor profile
    table (z, r(z)), by the trapezoid rule in z."""
    rp = np.gradient(r, z)
    integrand = np.exp(-z / epsilon) * 2.0 * np.pi * r * np.sqrt(1.0 + rp ** 2)
    return float(np.trapezoid(integrand, z)) / epsilon


@pytest.fixture(scope="module")
def profile_005():
    return solve_translator_profile(0.05, 1.0)


@pytest.fixture(scope="module")
def profile_010():
    return solve_translator_profile(0.1, 1.0)


class TestSolve:
    def test_soliton_residual(self, profile_005):
        assert profile_005.soliton_residual() <= 1e-6

    def test_extinction_height(self, profile_005):
        assert profile_005.z_max == pytest.approx(0.5 / 0.05, rel=0.05)

    def test_initial_radius(self, profile_005):
        assert profile_005.r[-1] == pytest.approx(1.0, abs=1e-9)
        assert profile_005.z[-1] == pytest.approx(0.0, abs=1e-9)

    def test_profile_monotone(self, profile_005):
        """Uniform radii with heights falling from the axis to the rim."""
        p = profile_005
        assert np.all(np.diff(p.r) > 0.0)
        assert np.all(np.diff(p.z) < 0.0) and np.all(p.w < 0.0)
        assert np.ptp(np.diff(p.r)) <= 1e-12

    def test_closure_on_axis(self, profile_005):
        p = profile_005
        assert p.r[0] == pytest.approx(0.0, abs=1e-6)
        assert p.z[0] == pytest.approx(p.z_max, abs=1e-6)

    def test_radius_at_endpoints_and_monotone(self, profile_005):
        p = profile_005
        assert p.radius_at(0.0) == p.R0
        assert p.radius_at(p.z_max) == 0.0
        r = p.radius_at(np.linspace(0.0, p.z_max, 5001))
        assert np.all(np.diff(r) < 0.0)

    def test_slope_matches_circle_law(self, profile_005):
        # slices track r(t) = sqrt(1 - 2t): r'(0) in z equals -eps/R0, the
        # reciprocal of dz/dr at R0
        assert 1.0 / profile_005.w[-1] == pytest.approx(-0.05, rel=0.01)

    def test_epsilon_range_enforced(self):
        with pytest.raises(ValueError):
            solve_translator_profile(0.6, 1.0)

    @pytest.mark.parametrize("eps, R0, what", [
        (1e-300, 1.0, "epsilon"), (1e150, 1e300, "epsilon"),
        (1.0, 1e110, "start radius"), (1e-99, 1e-98, "start radius")])
    def test_unrepresentable_start_is_a_config_error(self, eps, R0, what):
        """eps^3 or r0^3 outside the normal floats (it underflows or
        overflows) is refused before the march, with a typed error."""
        with pytest.raises(ConfigError, match=f"cube of the {what} "):
            solve_translator_profile(eps, R0)
        with pytest.raises(ConfigError, match=f"cube of the {what} "):
            regularize.check_translator_params(eps, R0)

    def test_representable_start_returns_the_start_radius(self):
        assert regularize.check_translator_params(0.05, 1.0) == 1e-5 * 0.05
        assert regularize.check_translator_params(1e-3, 1.0) == 1e-7

    def test_residual_refines_with_tolerance(self):
        res = {}
        for rtol in (1e-4, 1e-5, 1e-6, 1e-7):
            p = solve_translator_profile(0.05, 1.0,
                                         tolerances=(rtol, rtol * 1e-2))
            res[rtol] = p.soliton_residual()
        assert res[1e-4] / res[1e-5] >= 5.0
        assert res[1e-6] / res[1e-7] >= 5.0

    def test_scale_equivariance(self):
        """(eps, R0) -> (2 eps, 2 R0) dilates the profile by two."""
        pa = solve_translator_profile(0.1, 1.0)
        pb = solve_translator_profile(0.2, 2.0)
        za = np.linspace(0.0, pa.z_max, 2001)
        assert np.abs(pb.radius_at(2.0 * za)
                      - 2.0 * pa.radius_at(za)).max() <= 1e-6

    @pytest.mark.parametrize("eps", [1e-13, 1e-14, 1e-20, 1e-50, 1e-99])
    def test_w_beyond_the_floats_stops_typed(self, eps):
        """Tiny admitted epsilons start (1e-99) or take a trial stage (1e-13)
        at a w whose cube is not a float: a StiffnessFailure at once, not
        an OverflowError."""
        start = time.perf_counter()
        with pytest.raises(StiffnessFailure, match="left the floats"):
            solve_translator_profile(eps, 1.0)
        assert time.perf_counter() - start < 1.0

    def test_stiff_march_stops_typed(self):
        """At R0 = 1000 the branch is stiff (w' has slope about -r/eps^2
        in w), so an explicit march needs millions of steps: it is refused
        at the step cap instead of running for a minute."""
        start = time.perf_counter()
        with pytest.raises(StiffnessFailure, match="after 100000 steps"):
            solve_translator_profile(0.5, 1000.0)
        assert time.perf_counter() - start < 30.0


def rk45_oracle(eps):
    """The translator solve at R0 = 1 as scipy's ``solve_ivp`` does it:
    accepted step count and (r, z, w, z_max) on the same 48,000 radii."""
    from scipy.integrate import solve_ivp

    R0 = 1.0
    r0 = max(1e-7 * R0, 1e-5 * eps)
    w0 = -r0 / (2.0 * eps) - r0 ** 3 / (32.0 * eps ** 3)
    z0 = -r0 ** 2 / (4.0 * eps)

    def rhs(r, y):
        w = float(y[0])
        return np.array([-(w ** 3 + w) / r - (w * w + 1.0) / eps, w])

    blow = lambda r, y: y[0] + 1e6
    blow.terminal = True
    blow.direction = -1
    sol = solve_ivp(rhs, (r0, R0), [w0, z0], method="RK45", rtol=1e-11,
                    atol=1e-13, dense_output=True, events=[blow])
    assert sol.success and sol.t[-1] == R0
    z_max = -sol.y[1][-1]
    r = np.linspace(r0, R0, 48000)
    w, z = sol.sol(r)
    return len(sol.t) - 1, r, z + z_max, w, z_max


class TestMarch:
    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    def test_matches_rk45(self, eps, monkeypatch):
        """As many accepted steps as scipy's RK45, and the same profile to
        1e-12 of each quantity's scale."""
        tables = []

        def recorded(typecode):  # the march's table: per accepted step
            tables.append(array(typecode))  # t, h, w, z, 7 w' and 7 w
            return tables[-1]

        monkeypatch.setattr(regularize, "array", recorded)
        p = solve_translator_profile(eps, 1.0)
        steps, r, z, w, z_max = rk45_oracle(eps)
        assert [len(table) for table in tables] == [18 * steps]
        for mine, ref in ((p.r, r), (p.z, z), (p.w, w)):
            assert np.abs(mine - ref).max() <= 1e-12 * np.abs(ref).max()
        assert abs(p.z_max - z_max) <= 1e-12 * z_max

    def test_rtol_floor(self):
        """rtol is raised to 100 machine epsilons, as scipy's RK45 does."""
        low = solve_translator_profile(0.2, 1.0, tolerances=(1e-20, 1e-22))
        floor = solve_translator_profile(
            0.2, 1.0, tolerances=(100 * sys.float_info.epsilon, 1e-22))
        for key in ("r", "z", "w", "area"):
            assert np.array_equal(getattr(low, key), getattr(floor, key))
        assert low.z_max == floor.z_max


class TestWeightedArea:
    def test_cylinder_competitor(self):
        eps = 0.1
        z = np.linspace(0.0, 40.0 * eps, 20000)
        r = np.ones_like(z)
        val = i_epsilon_of_table(z, r, eps)
        assert val == pytest.approx(TWO_PI, rel=1e-4)

    def test_minimizer_below_cylinder(self, profile_005, profile_010):
        for p in (profile_005, profile_010):
            assert i_epsilon(p) <= TWO_PI

    def test_minimizer_beats_competitors(self, profile_010):
        eps = 0.1
        val = i_epsilon(profile_010)
        # cylinder
        z = np.linspace(0.0, 40.0 * eps, 20000)
        assert val <= i_epsilon_of_table(z, np.ones_like(z), eps) + 1e-9
        # cone to (0, z_max)
        zc = np.linspace(0.0, profile_010.z_max, 20000)
        cone = 1.0 - zc / profile_010.z_max
        assert val <= i_epsilon_of_table(zc, cone, eps) + 1e-9
        # graph of the exact circle flow r = sqrt(1 - 2 eps z), sampled
        # uniformly in r so the vertical tip is resolved
        rg = np.linspace(1.0, 1e-6, 20000)
        zg = (1.0 - rg ** 2) / (2.0 * eps)
        assert val <= i_epsilon_of_table(zg, rg, eps) + 1e-9

    def test_descent_from_cylinder(self):
        """A neck perturbation varying on a scale longer than eps lowers the
        weighted area of the cylinder to first order."""
        eps = 0.1
        z = np.linspace(0.0, 80.0 * eps, 8000)
        base = np.ones_like(z)
        val0 = i_epsilon_of_table(z, base, eps)
        perturbed = base - 0.05 * (1.0 - np.exp(-z))
        val1 = i_epsilon_of_table(z, perturbed, eps)
        assert val1 < val0

    def test_large_eps_still_bounded(self):
        p = solve_translator_profile(0.5, 1.0)
        assert i_epsilon(p) <= TWO_PI


class TestSlabs:
    def test_slab_masses_add_up(self, profile_010):
        """Slabs split at a table height add up to the whole surface, and the
        lower one is at least the cylinder of its height at its smallest
        radius (the meridian is longer than the height it climbs)."""
        p = profile_010
        cut = p.z[-5001]
        low, high = slab_mass(p, (0.0, cut)), slab_mass(p, (cut, p.z_max))
        whole = slab_mass(p, (0.0, p.z_max))
        assert abs(low + high - whole) <= 1e-12 * whole
        assert TWO_PI * p.radius_at(cut) * cut <= low

    def test_random_slabs_match_adaptive_quadrature(self, profile_010):
        """Each slab is the area between its two end radii of the surface
        whose slope interpolates the table: within 1e-6 of adaptive
        quadrature of that area element."""
        from scipy.integrate import quad
        p = profile_010

        def element(rho):
            return TWO_PI * rho * np.sqrt(1.0 + np.interp(rho, p.r, p.w) ** 2)

        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = np.sort(rng.uniform(0.0, p.z_max, 2))
            r_a, r_b = p.radius_at([a, b])
            ref, _ = quad(element, max(r_b, p.r[0]), r_a, limit=500,
                          epsabs=1e-11, epsrel=1e-11)
            assert abs(slab_mass(p, (a, b)) - ref) <= 1e-6

    @pytest.mark.parametrize("interval", [(np.nan, 1.0), (0.0, np.inf),
                                          (-np.inf, 1.0)])
    def test_non_finite_slab_refused(self, profile_010, interval):
        with pytest.raises(OutOfRange):
            slab_mass(profile_010, interval)

    def test_slab_near_cap_small(self, profile_005):
        m = slab_mass(profile_005, (profile_005.z_max - 0.05,
                                    profile_005.z_max))
        assert m <= 0.2

    def test_hundred_random_slabs(self, profile_010):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.uniform(0.0, profile_010.z_max, 2)
            slab_mass(profile_010, (a, b))  # raises on violation

    def test_whole_surface_area_vs_bound(self, profile_010):
        m = slab_mass(profile_010, (0.0, profile_010.z_max))
        assert m <= (profile_010.z_max + 0.1) * TWO_PI


class TestSlices:
    def test_time_zero_radius(self, profile_005):
        assert translate_slices(profile_005, [0.0])[0] == pytest.approx(1.0, abs=1e-9)

    def test_slices_track_circle_law(self, profile_005):
        t = np.linspace(0.0, 0.4, 81)
        err = np.abs(translate_slices(profile_005, t) - np.sqrt(1.0 - 2.0 * t))
        assert err.max() <= 0.05

    def test_error_decreases_in_epsilon(self, profile_005, profile_010):
        t = np.linspace(0.0, 0.4, 81)
        errs = []
        for p in (solve_translator_profile(0.2, 1.0), profile_010, profile_005):
            errs.append(np.abs(translate_slices(p, t)
                               - np.sqrt(1.0 - 2.0 * t)).max())
        assert errs[0] > errs[1] > errs[2]

    def test_monotone_slice_law(self, profile_005):
        t = np.linspace(0.0, 0.45, 91)
        r = translate_slices(profile_005, t)
        assert np.all(np.diff(r) < 0)

    def test_out_of_range(self, profile_005):
        with pytest.raises(OutOfRange):
            translate_slices(profile_005, [0.05 * profile_005.z_max * 1.5])

    def test_nan_time_refused(self, profile_005):
        with pytest.raises(OutOfRange):
            translate_slices(profile_005, [0.1, np.nan])


class TestHalving:
    def test_meridian_certifies_free_boundary(self, profile_010):
        """The meridian section meets the axis orthogonally: the planar
        varifold certification against the axis line passes."""
        from fbmcf.barrier import Line
        from fbmcf.varifold import (DiscreteVarifold, certify_free_boundary,
                                    tangential_family, windowed_field)
        pts = meridian_polyline(profile_010)
        pts[-1, 0] = 0.0  # endpoint exactly on the axis
        V = DiscreteVarifold.from_polyline(pts)
        axis = Line(normal=(-1.0, 0.0), offset=0.0)  # Omega = {x >= 0}
        z_top = profile_010.z_max
        fields = [windowed_field(X, (0.0, z_top), 0.6 * z_top)
                  for X in tangential_family(axis, n_fields=60, seed=3,
                                             localized_fraction=0.0)]
        rep = certify_free_boundary(V, axis, fields, tol=2e-2 * V.total_mass)
        assert rep.is_free_boundary
