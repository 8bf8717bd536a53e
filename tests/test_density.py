import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbmcf import density, kernels, varifold
from fbmcf.barrier import Circle, Line
from fbmcf.errors import InadmissibleRadius, KappaTooLarge
from fbmcf.density import (
    classify_regular, density_at_point, gaussian_density, monotonicity_report,
    reflected_density,
)
from fbmcf.flow import (CurveState, FlowHistory, circle_curve, segment_curve,
                        static_history)
from fbmcf.kernels import KernelParams
from fbmcf.varifold import Component, DiscreteVarifold
from conftest import DENSITY_LINE
from test_scan_references import integrate_per_component

SHRINKER_DENSITY = np.sqrt(2.0 * np.pi / np.e)  # 1.520347...
BIG_KAPPA = KernelParams(kappa=1e7, alpha=8.0, c1=2.0)


@pytest.fixture(scope="module")
def line_history():
    st = segment_curve((-12.0, 0.0), (12.0, 0.0), n=1200)
    return static_history(st, -1.0, 0.1, 12)


def shifted_line_history(y=50.0):
    st = segment_curve((-12.0, y), (12.0, y), n=1200)
    return static_history(st, -1.0, 0.1, 12)


class TestGaussianDensity:
    def test_static_line_density_one(self, line_history):
        for r in (0.05, 0.2, 0.4):
            th = gaussian_density(line_history, (0.0, 0.0, 0.0), r)
            assert th == pytest.approx(1.0, abs=1e-6)

    def test_circle_extinction_density(self, circle_extinction_history):
        th = gaussian_density(circle_extinction_history, (0.0, 0.0, 0.5), 0.3)
        assert th == pytest.approx(SHRINKER_DENSITY, rel=0.005)

    def test_center_off_support(self, line_history):
        vals = [gaussian_density(line_history, (0.0, 2.0, 0.0), r)
                for r in (0.4, 0.2, 0.1)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-20


class TestReflectedDensity:
    def test_half_line_corner_is_one(self):
        """Half line meeting the barrier orthogonally doubles to a full line.

        The truncation excess is ~24 sqrt(r/kappa), so r = 1e-3 with the
        large flat-barrier cutoff keeps it inside the 1e-4 budget.
        """
        pts = segment_curve((0.0, 0.0), (0.0, 0.5), n=500).components[0].points
        st = CurveState([Component(pts, False, np.arange(501) == 0)])
        hist = static_history(st, -1.0, 0.1, 12)
        wide = Line(normal=(0.0, -1.0), offset=0.0, scale_cap=1e10)
        params = KernelParams(kappa=1e9, alpha=8.0, c1=2.0)
        th = reflected_density(hist, wide, (0.0, 0.0, 0.0), 1e-3, params)
        assert th == pytest.approx(1.0, abs=1e-4)

    def test_half_circle_corner_density(self, corner_history):
        th, err = density_at_point(corner_history, DENSITY_LINE,
                                   (0.0, 0.0, 0.5), BIG_KAPPA,
                                   radii=[0.6, 0.3, 0.15, 0.075])
        assert th == pytest.approx(SHRINKER_DENSITY, rel=0.01)

    def test_far_interior_matches_plain_gaussian(self):
        st = segment_curve((-0.5, 50.0), (0.5, 50.0), n=1000)
        hist = static_history(st, -1.0, 0.1, 12)
        r = 1e-3
        plain = gaussian_density(hist, (0.0, 50.0, 0.0), r)
        wide = Line(normal=(0.0, -1.0), offset=0.0, scale_cap=1e10)
        params = KernelParams(kappa=1e9, alpha=8.0, c1=2.0)
        trunc = reflected_density(hist, wide, (0.0, 50.0, 0.0), r, params)
        assert trunc == pytest.approx(plain, abs=1e-4)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(case=st.sampled_from(["line", "circle-inside", "circle-outside"]),
           excess=st.floats(1e-9, 1.0), along=st.floats(-np.pi, np.pi),
           shift=st.floats(-1.0, 1.0), t0=st.floats(0.0, 0.1),
           frac=st.floats(0.5, 1.0))
    def test_mirror_term_vanishes_far_inside(self, case, excess, along, shift,
                                             t0, frac):
        """At a centre in Omega farther than kappa/10 from the barrier, the
        mirror term is 0 at every quadrature node: the density is the
        truncated kernel's integral alone at tau = t - t0, bit for bit."""
        params = (KernelParams(kappa=1.0, alpha=8.0, c1=2.0) if case == "line"
                  else SMALL_KAPPA)
        kappa = params.kappa
        if case == "line":
            S = DENSITY_LINE  # Omega = {y >= 0}
            frame = lambda u, v: np.stack([u, v], axis=-1)  # noqa: E731
        else:
            side = case.split("-")[1]
            S = Circle((0.0, 0.0), 1.0, omega_side=side)
            sign = -1.0 if side == "inside" else 1.0
            frame = lambda u, v: ((1.0 + sign * v)[..., None]  # noqa: E731
                                  * np.stack([np.cos(u), np.sin(u)], axis=-1))
        d = 0.1 * kappa * (1.0 + excess)  # the centre's distance to S
        u = along + np.linspace(-kappa / 20, kappa / 20, 201)
        arc = frame(u, np.full_like(u, d + shift * kappa / 100))
        hist = static_history(CurveState([Component(arc, closed=False)]),
                              -1.0, 0.1, 12)
        x0 = frame(np.array(along), np.array(d))
        r = frac * np.sqrt(params.tau0)
        t = t0 - r * r
        theta = reflected_density(hist, S, (x0[0], x0[1], t0), r, params)
        state = hist.slice_at(t)
        for c in state.components:
            nodes = varifold.segment_quadrature(*c.segments(), 8)[0]
            mirror, inside = kernels._tube_mirror(S, nodes)
            m = mirror - x0
            term = kernels.cutoff(m, t - t0, params) \
                * kernels.heat_kernel(m, t - t0)
            assert (np.where(inside, term, 0.0) == 0.0).all()
        direct = integrate_per_component(
            state, lambda p: kernels.cutoff(p - x0, t - t0, params)
            * kernels.heat_kernel(p - x0, t - t0), 8)
        assert theta > 0.0
        assert np.float64(theta).tobytes() == np.float64(direct).tobytes()

    def test_inadmissible_radius(self, corner_history):
        with pytest.raises(InadmissibleRadius):
            reflected_density(corner_history, DENSITY_LINE, (0.0, 0.0, 0.5),
                              0.9, BIG_KAPPA)

    @pytest.mark.parametrize("r", [np.nan, np.inf])
    def test_non_finite_radius_is_inadmissible(self, corner_history, r):
        hist = _fresh(corner_history)
        with pytest.raises(InadmissibleRadius):
            reflected_density(hist, DENSITY_LINE, (0.0, 0.5, 0.3), r,
                              BIG_KAPPA)
        assert hist._densities == {}

    def test_kappa_too_large(self, corner_history):
        S = Circle((0.0, 0.0), 1.0)
        params = KernelParams(kappa=1.0, alpha=8.0, c1=2.0)
        with pytest.raises(KappaTooLarge):
            reflected_density(corner_history, S, (0.0, 0.0, 0.5), 0.01, params)

    def test_parabolic_scale_invariance(self, corner_history):
        """Theta(D_{1/lam} M, 0, R) = Theta(M, 0, lam R) with S, kappa scaled."""
        from fbmcf.tangent import rescale
        lam = 2.0
        X0 = (0.0, 0.0, 0.5)
        resc = rescale(corner_history, X0, lam)
        p_scaled = KernelParams(kappa=BIG_KAPPA.kappa / lam, alpha=8.0, c1=2.0)
        for R in (0.05, 0.12):
            lhs = reflected_density(resc, resc.barrier,
                                    (0.0, 0.0, 0.0), R, p_scaled)
            rhs = lam * reflected_density(corner_history, DENSITY_LINE, X0,
                                          lam * R, BIG_KAPPA) / lam
            assert lhs == pytest.approx(rhs, rel=1e-8)


def _fresh(history):
    """The same snapshots in a new FlowHistory, whose density memo is empty."""
    return FlowHistory(history.snapshots, history.events, history.config,
                       history.barrier)


@pytest.fixture
def slice_times(monkeypatch):
    """Times of the slices ``density`` integrates during the test: the rows
    of its kernel calls, whose times are shaped (slices, 1)."""
    times = []

    def counting(S, X0, x, t, params):
        times.extend(np.ravel(t))
        return kernels.reflected_truncated_kernel(S, X0, x, t, params)

    monkeypatch.setattr(density, "reflected_truncated_kernel", counting)
    return times


# kappa = 0.15 is admissible on the unit circle (reflection scale 0.318 / c1)
SMALL_KAPPA = KernelParams(kappa=0.15, alpha=8.0, c1=2.0)


def _memo_case(name, corner_history):
    """(history, barrier, params, centres), the centres all within or all
    farther than kappa/10 from the barrier."""
    if name == "line-near":  # kappa/10 = 1e6
        return (corner_history, DENSITY_LINE, BIG_KAPPA,
                [(0.0, 0.0, 0.5), (0.6, 0.0, 0.2), (0.3, 0.7, 0.3)])
    if name == "line-interior":  # farther than kappa/10 = 0.1: no mirror term
        return (corner_history, DENSITY_LINE,
                KernelParams(kappa=1.0, alpha=8.0, c1=2.0),
                [(0.0, 0.8, 0.2), (0.5, 0.5, 0.3)])
    side = name.split("-")[1]
    radius = 0.995 if side == "inside" else 1.005  # within kappa/10 of S
    hist = static_history(circle_curve(radius=radius, n=1000), -1.0, 0.1, 12)
    return (hist, Circle((0.0, 0.0), 1.0, omega_side=side), SMALL_KAPPA,
            [(radius, 0.0, 0.0), (0.0, -radius, 0.05), (0.5, 0.0, 0.1)])


class TestDensityMemo:
    """A repeated query on one history returns the kept value, bit for bit
    the value a history with an empty memo computes."""

    @pytest.mark.parametrize("case", ["line-near", "line-interior",
                                      "circle-inside", "circle-outside"])
    def test_hit_equals_fresh_bits(self, case, corner_history, slice_times):
        hist, S, params, centres = _memo_case(case, corner_history)
        hist = _fresh(hist)
        # default radii: four halvings from each centre's own time cap
        first = [density_at_point(hist, S, X, params) for X in centres]
        n = len(slice_times)
        again = [density_at_point(hist, S, X, params) for X in centres]
        assert len(slice_times) == n
        ref = [density_at_point(_fresh(hist), S, X, params) for X in centres]
        assert np.array(again).tobytes() == np.array(first).tobytes()
        assert np.array(again).tobytes() == np.array(ref).tobytes()

    def test_distinct_queries_never_collide(self, corner_history,
                                            slice_times):
        hist = _fresh(corner_history)
        X, r = (0.0, 0.5, 0.3), 0.1
        twin = Line(normal=(0.0, -1.0), offset=0.0, scale_cap=1e8)
        queries = [
            (DENSITY_LINE, BIG_KAPPA, X, r),
            (twin, BIG_KAPPA, X, r),  # an equal barrier is another object
            (DENSITY_LINE, KernelParams(kappa=1e6, alpha=8.0, c1=2.0), X, r),
            (DENSITY_LINE, BIG_KAPPA, X, np.nextafter(r, 1.0)),
            (DENSITY_LINE, BIG_KAPPA, (-0.0, 0.5, 0.3), r),
            (DENSITY_LINE, BIG_KAPPA, (0.0, 0.5, np.nextafter(0.3, 1.0)), r),
        ]
        values = [reflected_density(hist, S, Y, rr, p)
                  for S, p, Y, rr in queries]
        assert len(slice_times) == len(queries)
        for (S, p, Y, rr), v in zip(queries, values):
            fresh = reflected_density(_fresh(hist), S, Y, rr, p)
            assert np.float64(v).tobytes() == np.float64(fresh).tobytes()
        # kernel parameters are compared by value
        equal = KernelParams(kappa=1e7, alpha=8.0, c1=2.0)
        assert reflected_density(hist, DENSITY_LINE, X, r, equal) == values[0]
        assert len(slice_times) == 2 * len(queries)
        # a query with a NaN is integrated on every call
        for _ in range(2):
            reflected_density(hist, DENSITY_LINE, (np.nan, 0.5, 0.3), r,
                              BIG_KAPPA)
        assert len(slice_times) == 2 * len(queries) + 2

    def test_errors_raised_on_every_call(self, corner_history):
        hist = _fresh(corner_history)
        X = (0.0, 0.5, 0.3)
        unit = Circle((0.0, 0.0), 1.0)
        for _ in range(2):
            with pytest.raises(KappaTooLarge):
                reflected_density(hist, unit, X, 0.01,
                                  KernelParams(kappa=1.0, alpha=8.0, c1=2.0))
            with pytest.raises(InadmissibleRadius):
                reflected_density(hist, DENSITY_LINE, X, 0.9, BIG_KAPPA)
        assert hist._densities == {}

    def test_cap_clears_and_keeps_results(self, corner_history, monkeypatch,
                                          slice_times):
        monkeypatch.setattr(density, "_DENSITY_MEMO_CAP", 3)
        hist = _fresh(corner_history)
        X = (0.3, 0.7, 0.3)
        radii = [0.2, 0.15, 0.1, 0.05, 0.025]
        passes = []
        for _ in range(2):
            values = []
            for r in radii:
                values.append(reflected_density(hist, DENSITY_LINE, X, r,
                                                BIG_KAPPA))
                assert len(hist._densities) <= 3
            passes.append(np.array(values))
        # five keys cycle through a memo of three: every call integrates
        assert len(slice_times) == 2 * len(radii)
        ref = np.array([reflected_density(_fresh(hist), DENSITY_LINE, X, r,
                                          BIG_KAPPA) for r in radii])
        assert passes[0].tobytes() == passes[1].tobytes() == ref.tobytes()

    def test_smooth_point_integrates_each_radius_once(self, corner_history,
                                                      slice_times):
        """density_at_point, classify_regular and monotonicity_report at one
        centre and four radii integrate four slices between them, in one
        kernel pass."""
        hist = _fresh(corner_history)
        radii = [0.2, 0.1, 0.05, 0.025]
        X = (0.3, 0.7, 0.3)
        density_at_point(hist, DENSITY_LINE, X, BIG_KAPPA, radii=radii)
        classify_regular(hist, DENSITY_LINE, X, BIG_KAPPA, eta=0.05,
                         radii=radii)
        monotonicity_report(hist, DENSITY_LINE, X, BIG_KAPPA, radii)
        assert len(slice_times) == 4


class TestMonotonicity:
    def test_corner_constant_density_zero_A(self, corner_history):
        rep = monotonicity_report(corner_history, DENSITY_LINE,
                                  (0.0, 0.0, 0.5), BIG_KAPPA,
                                  [0.5, 0.4, 0.3, 0.2, 0.1, 0.05])
        assert rep.fitted_A == 0.0
        spread = rep.theta_values.max() - rep.theta_values.min()
        assert spread <= 0.01 * rep.theta_values.mean()

    def test_smooth_point_nondecreasing(self, corner_history):
        s = corner_history.slice_at(0.2)
        pts = s.all_points()
        i = int(np.argmin(np.abs(np.arctan2(pts[:, 1], pts[:, 0]) - 0.9)))
        x = pts[i]
        rep = monotonicity_report(corner_history, DENSITY_LINE,
                                  (x[0], x[1], 0.2), BIG_KAPPA,
                                  [0.3, 0.2, 0.1, 0.05])
        mono = rep.monotone_quantity()[::-1]  # radii stored decreasing
        assert np.all(np.diff(mono) >= -1e-9 * (1 + np.abs(mono).max()))

    def test_static_line_exactly_constant(self):
        # line far from the barrier (a flow inside the barrier itself is the
        # degenerate doubled case)
        st = segment_curve((-12.0, 5.0), (12.0, 5.0), n=1200)
        hist = static_history(st, -1.0, 0.1, 12)
        rep = monotonicity_report(hist, DENSITY_LINE,
                                  (0.0, 5.0, 0.0), BIG_KAPPA,
                                  [0.4, 0.2, 0.1, 0.05])
        assert rep.fitted_A == 0.0
        # the spread is set by the truncation excess 24 sqrt(r/kappa)
        bias_span = 24.0 * (np.sqrt(0.4 / 1e7) - np.sqrt(0.05 / 1e7))
        assert rep.theta_values.max() - rep.theta_values.min() <= 2.0 * bias_span

    def test_report_csv(self, tmp_path, line_history):
        rep = monotonicity_report(line_history, DENSITY_LINE,
                                  (0.0, 0.0, 0.0), BIG_KAPPA, [0.4, 0.2, 0.1])
        path = tmp_path / "density_profile.csv"
        rep.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "r,theta,monotone_quantity"
        assert len(lines) == 4


class TestDensityAtPoint:
    def test_smooth_interior_point(self, corner_history):
        s = corner_history.slice_at(0.2)
        pts = s.all_points()
        i = int(np.argmin(np.abs(np.arctan2(pts[:, 1], pts[:, 0]) - 0.9)))
        x = pts[i]
        th, err = density_at_point(corner_history, DENSITY_LINE,
                                   (x[0], x[1], 0.2), BIG_KAPPA,
                                   radii=[0.3, 0.15, 0.075, 0.0375])
        assert th == pytest.approx(1.0, rel=0.02)

    def test_kappa_independence(self, corner_history):
        radii = [0.6, 0.3, 0.15, 0.075]
        vals = {}
        for kap in (1e6, 1e7):
            p = KernelParams(kappa=kap, alpha=8.0, c1=2.0)
            vals[kap] = density_at_point(corner_history, DENSITY_LINE,
                                         (0.0, 0.0, 0.5), p, radii=radii)
        diff = abs(vals[1e6][0] - vals[1e7][0])
        assert diff <= vals[1e6][1] + vals[1e7][1] + 1e-4

    def test_point_off_support(self, line_history):
        th, _ = density_at_point(line_history, None, (0.0, 3.0, 0.0),
                                 radii=[0.4, 0.2, 0.1, 0.05])
        # extrapolation noise is set by the largest-radius tail value
        assert abs(th) <= 1e-5


class TestClassification:
    def test_smooth_point_regular(self, corner_history):
        s = corner_history.slice_at(0.2)
        pts = s.all_points()
        x = pts[int(np.argmin(np.abs(np.arctan2(pts[:, 1], pts[:, 0]) - 0.9)))]
        verdict = classify_regular(corner_history, DENSITY_LINE,
                                   (x[0], x[1], 0.2), BIG_KAPPA, eta=0.1,
                                   radii=[0.3, 0.15, 0.075, 0.0375])
        assert verdict == "Regular"

    def test_extinction_point_suspect(self, circle_extinction_history):
        verdict = classify_regular(circle_extinction_history, None,
                                   (0.0, 0.0, 0.5), eta=0.1,
                                   radii=[0.5, 0.25, 0.125, 0.0625])
        assert verdict == "Suspect"

    def test_pop_point_suspect(self, pop_history):
        """Tangential contact doubles the local sheet: density ~= 2.

        The admissible cutoff radius of the curved barrier is microscopic at
        this resolution, so the classification uses the barrier's tangent
        line at the contact (the rescaling limit of the barrier), which is
        exact to O(r^2 / R_barrier) at the radii used.
        """
        pops = [e for e in pop_history.events if e.kind == "Pop"]
        x, t = pops[0].location, pops[0].time
        tangent_line = Line(normal=x / np.linalg.norm(x),
                            offset=np.linalg.norm(x), scale_cap=1e8)
        th, err = density_at_point(pop_history, tangent_line,
                                   (x[0], x[1], t), BIG_KAPPA,
                                   radii=[0.08, 0.04, 0.02, 0.01])
        assert th > 1.1
        verdict = classify_regular(pop_history, tangent_line, (x[0], x[1], t),
                                   BIG_KAPPA, eta=0.1,
                                   radii=[0.08, 0.04, 0.02, 0.01])
        assert verdict == "Suspect"

    def test_barrier_without_params_raises(self, corner_history):
        """A reflected density needs KernelParams: a barrier with params
        None raises ValueError naming them, not an AttributeError."""
        for call in (density_at_point, classify_regular):
            with pytest.raises(ValueError, match="KernelParams"):
                call(corner_history, DENSITY_LINE, (0.6, 0.3, 0.25))

    def test_classification_matches_graph_fit(self, corner_history):
        """Regular verdicts coincide with a successful local graph fit."""
        from fbmcf.flow import graph_estimate_check
        rep = graph_estimate_check(corner_history, np.array([0.0, 1.0]),
                                   (0.005, 0.1))
        assert np.isfinite(rep.sup_quantity)  # graphable -> regular region
        s = corner_history.slice_at(0.2)
        pts = s.all_points()
        x = pts[int(np.argmin(np.abs(np.arctan2(pts[:, 1], pts[:, 0]) - 1.2)))]
        assert classify_regular(corner_history, DENSITY_LINE,
                                (x[0], x[1], 0.2), BIG_KAPPA, eta=0.1,
                                radii=[0.3, 0.15, 0.075, 0.0375]) == "Regular"


class TestUpperSemiContinuity:
    def test_perturbed_shrinkers(self, corner_history):
        """limsup of densities along a converging family stays below the
        limit density plus 2% (centers and radii converge)."""
        from fbmcf.flow import half_circle_curve, run
        vals = []
        for k, radius in enumerate((1.06, 1.03, 1.0)):
            hist = run(half_circle_curve(radius=radius, n=256),
                       t_end=radius ** 2 / 2 - 0.003, h_target=np.pi / 256,
                       snapshot_dt=1e-3, barrier=DENSITY_LINE,
                       vanish_length=0.03)
            r_k = 0.22 + 0.04 * (2 - k)
            th = reflected_density(hist, DENSITY_LINE,
                                   (0.0, 0.0, radius ** 2 / 2), r_k, BIG_KAPPA)
            vals.append(th)
        base, _ = density_at_point(corner_history, DENSITY_LINE,
                                   (0.0, 0.0, 0.5), BIG_KAPPA,
                                   radii=[0.6, 0.3, 0.15, 0.075])
        assert max(vals) <= base * 1.02


def euclidean_density(V, x, r):
    """mu_V(B_r(x)) / (omega_1 r) with omega_1 = 2, so a line through x
    has density one at every scale."""
    return V.ball_mass(np.asarray(x, dtype=float), r) / (2.0 * r)


class TestEuclideanDensity:
    def test_line_through_center(self):
        V = DiscreteVarifold.from_polyline([[-3.0, 0.0], [3.0, 0.0]])
        for r in (0.5, 1.0, 2.0):
            assert euclidean_density(V, (0.0, 0.0), r) == pytest.approx(1.0)

    def test_two_transverse_lines(self):
        V = DiscreteVarifold([Component(np.array([[-3.0, 0.0], [3.0, 0.0]])),
                              Component(np.array([[0.0, -3.0], [0.0, 3.0]]))])
        assert euclidean_density(V, (0.0, 0.0), 1.0) == pytest.approx(2.0)

    def test_kgon_vertex(self):
        k = 64
        th = np.linspace(0.0, 2.0 * np.pi, k, endpoint=False)
        pts = np.stack([np.cos(th), np.sin(th)], axis=-1)
        V = DiscreteVarifold.from_polyline(pts, closed=True)
        val = euclidean_density(V, (1.0, 0.0), 0.01)
        assert 0.99 < val <= 1.0 + 1e-12
