import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fbmcf.barrier import Circle, Line, ParametricBarrier
from fbmcf.varifold import (
    Component, DiscreteVarifold, ScalarField, boundary_monotonicity_check,
    certify_free_boundary, first_variation, rotational_field,
    tangential_family, vanishing_factor_field, windowed_field, Poly2,
    _split_by_tube,
)
# aliased so that pytest does not collect it as a test class
from fbmcf.varifold import TestField as VectorField

LINE = Line(normal=(0.0, -1.0), offset=0.0)  # Omega = upper half plane
ELLIPSE = ParametricBarrier.from_function(  # 1.5 x 1, reach 1/1.5
    lambda t: np.array([1.5 * np.cos(t), np.sin(t)]),
    lambda t: np.array([-1.5 * np.sin(t), np.cos(t)]),
    lambda t: np.array([-1.5 * np.cos(t), -np.sin(t)]), n_samples=256)
LINEAR_H = ScalarField(lambda p: 1.0 + 0.3 * p[:, 0],
                       lambda p: np.tile([0.3, 0.0], (len(p), 1)))


def polynomial_field(cx, cy):
    """The field (px, py) of two ``Poly2`` coefficient tables."""
    px, py = Poly2(cx), Poly2(cy)

    def value(pts):
        return np.stack([px(pts), py(pts)], axis=-1)

    def value_and_jacobian(pts):
        (vx, gx), (vy, gy) = px.value_and_grad(pts), py.value_and_grad(pts)
        j = np.empty((len(pts), 2, 2))
        j[:, 0, :] = gx
        j[:, 1, :] = gy
        return np.stack([vx, vy], axis=-1), j

    return VectorField(value, value_and_jacobian)


def transformed_field(X, rotation, shift):
    """Pushforward of X under the rigid motion x -> R x + shift."""
    R = np.asarray(rotation, dtype=float)
    b = np.asarray(shift, dtype=float)

    def value(pts):
        return X.value((pts - b) @ R) @ R.T

    def value_and_jacobian(pts):
        v, jac = X.value_and_jacobian((pts - b) @ R)
        return v @ R.T, np.einsum("ab,qbc,dc->qad", R, jac, R)

    return VectorField(value, value_and_jacobian)


def check_tangential(X, S, n_samples):
    """max |X . nu_S| over barrier samples (about 0 for tangential fields)."""
    pts = S.boundary_samples(n_samples)
    return float(np.abs(np.sum(X.value(pts) * S.normal(pts), axis=-1)).max())


def kgon(k, radius=1.0, center=(0.0, 0.0)):
    th = np.linspace(0.0, 2.0 * np.pi, k, endpoint=False)
    pts = np.asarray(center) + radius * np.stack([np.cos(th), np.sin(th)], axis=-1)
    return DiscreteVarifold.from_polyline(pts, closed=True)


def half_circle(k, radius=1.0):
    th = np.linspace(0.0, np.pi, k + 1)
    pts = radius * np.stack([np.cos(th), np.sin(th)], axis=-1)
    return DiscreteVarifold.from_polyline(pts, closed=False)


def field_x1():
    """X = (x, 0): div along a horizontal segment is 1."""
    return polynomial_field([[0.0, 0.0], [1.0, 0.0]], [[0.0]])


def field_identity():
    return polynomial_field([[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]])


class TestConstruction:
    def test_rejects_degenerate_segment(self):
        with pytest.raises(ValueError):
            DiscreteVarifold.from_polyline([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])

    def test_rejects_fractional_multiplicity(self):
        with pytest.raises(ValueError):
            DiscreteVarifold([Component(np.array([[0.0, 0.0], [1.0, 0.0]]),
                                        multiplicity=1.5)])

    def test_total_mass(self):
        V = DiscreteVarifold([Component(np.array([[0.0, 0.0], [2.0, 0.0]]),
                                        multiplicity=3)])
        assert V.total_mass == pytest.approx(6.0)

    def test_ball_mass_exact_clip(self):
        V = DiscreteVarifold.from_polyline([[-2.0, 0.0], [2.0, 0.0]])
        assert V.ball_mass((0.0, 0.0), 1.0) == pytest.approx(2.0)
        assert V.ball_mass((0.0, 0.5), 1.0) == pytest.approx(2.0 * np.sqrt(0.75))


class TestFirstVariation:
    def test_unit_segment_stretch(self):
        V = DiscreteVarifold.from_polyline([[0.0, 0.0], [1.0, 0.0]])
        assert first_variation(V, field_x1()) == pytest.approx(1.0)

    def test_kgon_stationary_tangential(self):
        """Inscribed polygons are stationary against circle-tangential fields."""
        fields = tangential_family(Circle((0.0, 0.0), 1.0), n_fields=40, seed=0)
        for k in (3, 6, 12, 64):
            V = kgon(k)
            for X in fields:
                dv = first_variation(V, X)
                pts = V.segments()[0]
                assert abs(dv) <= 1e-8 * (1.0 + X.c1_norm(pts))

    def test_polygonalized_circle_vs_smooth(self):
        """delta V(identity) ~= length for the circle (closed-form oracle)."""
        V = kgon(256)
        # identity field: div_V = 1 everywhere, so delta V = mass; the smooth
        # circle has delta(X) = int 1 dl = 2 pi
        dv = first_variation(V, field_identity())
        assert dv == pytest.approx(V.total_mass, rel=1e-12)
        assert dv == pytest.approx(2.0 * np.pi, rel=1e-3)

    def test_linearity(self):
        V = half_circle(37)
        X = rotational_field(Poly2([[1.0, 0.2], [0.3, 0.0]]), (0.0, 0.0))
        Y = field_identity()
        a, b = 0.7, -1.3

        class Combo:
            def value(self, p):
                return a * X.value(p) + b * Y.value(p)

        lhs = first_variation(V, Combo())
        rhs = a * first_variation(V, X) + b * first_variation(V, Y)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_additivity(self):
        V1 = kgon(12)
        V2 = half_circle(9, radius=2.0)
        V12 = DiscreteVarifold(V1.chains + V2.chains)
        X = field_identity()
        assert first_variation(V12, X) == pytest.approx(
            first_variation(V1, X) + first_variation(V2, X), abs=1e-12)

    def test_refinement_order(self):
        """Polygonalization error in delta V decays at second order in 1/k."""
        S = Circle((0.0, 0.0), 1.0)
        X = rotational_field(Poly2([[0.0, 1.0], [0.5, 0.0]]), center=(0.1, 0.0))
        exact = None
        errs = []
        ks = (64, 128, 256, 512)
        # oracle: dense-k limit
        exact = first_variation(kgon(8192), X)
        for k in ks:
            errs.append(abs(first_variation(kgon(k), X) - exact))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(orders) >= 1.8

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(st.sampled_from(["line", "circle", "ellipse"]),
           st.integers(0, 10_000), st.data())
    def test_equals_per_segment_endpoint_sum(self, barrier, seed, data):
        """The atomic sum is the per-segment sum of mult e . (X(end) -
        X(start)) regrouped by vertex: the two agree to 1e-13 of the sum of
        the endpoint terms' magnitudes, on open and closed chains with
        multiplicities 1-3 against tangential fields of every kind."""
        S = {"line": LINE, "circle": Circle((0.0, 0.0), 1.0),
             "ellipse": ELLIPSE}[barrier]
        chains = []
        for _ in range(data.draw(st.integers(1, 2))):
            closed = data.draw(st.booleans())
            n = data.draw(st.integers(3 if closed else 2, 8))
            th = np.array(data.draw(st.lists(st.floats(0.0, 2.0 * np.pi),
                                             min_size=n, max_size=n)))
            rho = np.array(data.draw(st.lists(st.floats(0.8, 1.2),
                                              min_size=n, max_size=n)))
            # near the ellipse, well inside its reach
            pts = rho[:, None] * np.stack([1.5 * np.cos(th), np.sin(th)], -1)
            c = Component(pts, closed,
                          multiplicity=data.draw(st.integers(1, 3)))
            assume(c.segment_lengths().min() > 1e-3)
            chains.append(c)
        V = DiscreteVarifold(chains)
        for X in tangential_family(S, n_fields=6, seed=seed):
            terms = []
            for c in V.chains:
                starts, ends = c.segments()
                e = c.segment_vectors() / c.segment_lengths()[:, None]
                terms += [c.multiplicity * np.vecdot(e, X.value(ends)),
                          -c.multiplicity * np.vecdot(e, X.value(starts))]
            terms = np.concatenate(terms)
            assert abs(first_variation(V, X) - terms.sum()) \
                <= 1e-13 * np.abs(terms).sum()

    def test_exact_across_a_kink(self):
        """|x| in the vanishing factor kinks where the segment passes
        nearest the centre; a 64-point Gauss-Legendre rule on each side of
        that point agrees with the exact value to 1e-14."""
        X = vanishing_factor_field(Circle((0.0, 0.0), 1.0), Poly2([[1.0]]),
                                   (1.0, 0.0))
        a, b = np.array([-0.9, 0.1]), np.array([0.5, -0.3])
        d = b - a
        L, e = np.linalg.norm(d), d / np.linalg.norm(d)
        s_kink = -(a @ d) / (d @ d)
        nodes, weights = np.polynomial.legendre.leggauss(64)
        reference = 0.0
        for lo, hi in ((0.0, s_kink), (s_kink, 1.0)):
            s = lo + 0.5 * (hi - lo) * (nodes + 1.0)
            _, jac = X.value_and_jacobian(a + s[:, None] * d)
            div = np.einsum("a,qab,b->q", e, jac, e)
            reference += 0.5 * (hi - lo) * L * (div @ weights)
        value = first_variation(DiscreteVarifold.from_polyline([a, b]), X)
        assert abs(value - reference) <= 1e-14
        assert abs(value - 0.31003698) <= 1e-8

    def test_one_value_call_at_the_atoms(self):
        """X is evaluated once, at the atoms' positions, and its Jacobian
        never."""
        V = DiscreteVarifold(kgon(7).chains + half_circle(5).chains)
        X = rotational_field(Poly2([[1.0, 0.2], [0.3, 0.0]]), (0.1, 0.0))
        calls = []

        def value(pts):
            calls.append(np.array(pts))
            return X.value(pts)

        def jacobian(pts):
            raise AssertionError("the Jacobian was evaluated")

        first_variation(V, VectorField(value, jacobian))
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], V.atoms()[0])


def _poly2_double_loop(c, pts):
    """p, dp/dx, dp/dy term by term, and the sums of the terms' magnitudes."""
    x, y = pts[:, 0], pts[:, 1]
    sums = np.zeros((3, len(pts)))
    mags = np.zeros((3, len(pts)))
    for i in range(c.shape[0]):
        for j in range(c.shape[1]):
            if c[i, j] == 0.0:
                continue
            terms = [c[i, j] * x ** i * y ** j]
            terms.append(i * c[i, j] * x ** (i - 1) * y ** j if i > 0 else 0.0)
            terms.append(j * c[i, j] * x ** i * y ** (j - 1) if j > 0 else 0.0)
            for k, t in enumerate(terms):
                sums[k] += t
                mags[k] += np.abs(t)
    return sums, mags


# coordinates and coefficients below 1e-30 in magnitude are zero, so no
# term underflows, where its two groupings of factors would round apart
_COORD = st.floats(-3.0, 3.0).map(lambda v: v if abs(v) > 1e-30 else 0.0)
_COEFF = st.floats(-1.0, 1.0).map(lambda v: v if abs(v) > 1e-30 else 0.0)


class TestPoly2:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.integers(0, 3), st.sampled_from([0, 1, 7]), st.data())
    def test_matches_term_by_term_loop(self, degree, n, data):
        """Value and gradient from the power table agree with summing the
        terms one by one to 4 ulps of the sum of the terms' magnitudes."""
        size = (degree + 1) ** 2
        c = np.array(data.draw(st.lists(_COEFF, min_size=size, max_size=size)))
        keep = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
        c = np.where(keep, c, 0.0).reshape(degree + 1, degree + 1)
        pts = np.array(data.draw(st.lists(_COORD, min_size=2 * n,
                                          max_size=2 * n))).reshape(n, 2)
        p = Poly2(c)
        value, grad = p(pts), p.value_and_grad(pts)[1]
        assert value.shape == (n,) and grad.shape == (n, 2)
        sums, mags = _poly2_double_loop(c, pts)
        got = np.vstack([value, grad.T])
        assert np.all(np.abs(got - sums) <= 4.0 * np.spacing(mags))


class TestCertification:
    def test_kgon_free_boundary_with_zero_curvature(self):
        S = Circle((0.0, 0.0), 1.0)
        fields = tangential_family(S, n_fields=40, seed=1)
        rep = certify_free_boundary(kgon(12), S, fields, tol=1e-6)
        assert rep.is_free_boundary
        assert np.abs(rep.fitted_curvature).max() <= 1e-6

    def test_half_circle_orthogonal_certified_with_curvature(self):
        S = LINE
        V = half_circle(32)
        fields = tangential_family(S, n_fields=96, seed=2)
        rep = certify_free_boundary(V, S, fields, tol=5e-3 * V.total_mass)
        assert rep.is_free_boundary
        mags = np.linalg.norm(rep.fitted_curvature, axis=1)
        assert np.median(mags) == pytest.approx(1.0, rel=0.02)

    def test_slanted_segment_not_free_boundary(self):
        """45-degree contact leaves a conormal atom no fit can absorb."""
        S = LINE
        pts = np.stack([np.linspace(0, 1, 9), np.linspace(0, 1, 9)], axis=-1)
        V = DiscreteVarifold.from_polyline(pts)
        fields = tangential_family(S, n_fields=60, seed=3)
        rep = certify_free_boundary(V, S, fields, tol=1e-6 * V.total_mass)
        assert not rep.is_free_boundary
        assert rep.residual > 1e-3

    def test_tangential_family_is_tangential(self):
        for S in (LINE, Circle((0.5, -0.2), 1.3)):
            for X in tangential_family(S, n_fields=10, seed=4):
                assert check_tangential(X, S, n_samples=1000) <= 1e-10

    def test_rigid_motion_invariance(self):
        """Certification is unchanged when V, S, and the family move together."""
        ang = 0.63
        R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        shift = np.array([0.4, -1.1])

        V = half_circle(24)
        fields = tangential_family(LINE, 80, seed=5)
        rep0 = certify_free_boundary(V, LINE, fields, tol=5e-3 * V.total_mass)

        nu_new = R @ LINE.nu
        line_new = Line(nu_new, nu_new @ shift)
        pts_new = (R @ V.chains[0].points.T).T + shift
        V_new = DiscreteVarifold.from_polyline(pts_new)
        fields_new = [transformed_field(X, R, shift) for X in fields]
        rep1 = certify_free_boundary(V_new, line_new, fields_new,
                                     tol=5e-3 * V_new.total_mass)
        # the design matrix maps by an orthogonal column transform, so the
        # verdict is invariant; the residual can wobble where singular values
        # sit near the rcond cutoff
        assert rep0.is_free_boundary == rep1.is_free_boundary
        assert rep1.residual <= 2.0 * rep0.residual + 1e-12
        assert rep0.residual <= 2.0 * rep1.residual + 1e-12


    def test_atoms_built_once_and_each_field_evaluated_once(self,
                                                            monkeypatch):
        """One ``atoms()`` per call; per field one ``value_and_jacobian`` at
        the nodes and one ``value`` at the atoms, whose bits are those of
        ``first_variation``."""
        S = Circle((0.0, 0.0), 1.0)
        V = kgon(12)
        fields = tangential_family(S, n_fields=12, seed=2)
        calls = {"atoms": 0, "value": 0, "both": 0}
        atoms = DiscreteVarifold.atoms

        def counted_atoms(self):
            calls["atoms"] += 1
            return atoms(self)

        def counted(X):
            def value(p):
                calls["value"] += 1
                return X.value(p)

            def value_and_jacobian(p):
                calls["both"] += 1
                return X.value_and_jacobian(p)

            return VectorField(value, value_and_jacobian)

        monkeypatch.setattr(DiscreteVarifold, "atoms", counted_atoms)
        rep = certify_free_boundary(V, S, [counted(X) for X in fields])
        assert calls == {"atoms": 1, "value": 12, "both": 12}
        monkeypatch.setattr(DiscreteVarifold, "atoms", atoms)
        assert rep.fitted_curvature.tobytes() == certify_free_boundary(
            V, S, fields).fitted_curvature.tobytes()

    @pytest.mark.parametrize("S", [LINE, Circle((0.3, -0.2), 1.2)],
                             ids=["line", "circle"])
    def test_fields_share_one_evaluation(self, S, monkeypatch):
        """``value_and_jacobian`` gives the bits of ``value``, and a windowed
        field evaluates its inner polynomials once for both."""
        pts = np.random.default_rng(3).uniform(-2.0, 2.0, (200, 2))
        fields = tangential_family(S, n_fields=16, seed=7)
        fields += [polynomial_field([[0.1, 0.2], [0.3, 0.0]], [[0.5]])]
        fields += [transformed_field(X, [[0.0, -1.0], [1.0, 0.0]], (0.2, 0.1))
                   for X in fields[:4]]
        for X in fields:
            value, _ = X.value_and_jacobian(pts)
            assert value.tobytes() == X.value(pts).tobytes()
        calls = []
        grad = Poly2.value_and_grad
        monkeypatch.setattr(Poly2, "value_and_grad",
                            lambda self, p: calls.append(1) or grad(self, p))
        windowed_field(polynomial_field([[1.0]], [[0.0, 1.0]]), (0.0, 0.0),
                       0.5).value_and_jacobian(pts)
        assert len(calls) == 2


class TestReflection:
    def test_doubled_varifold_has_no_boundary_atom(self):
        """The doubled half circle balances its conormals at the seam.

        An atomic boundary term survives window shrinking; the smooth
        curvature contribution scales away with the window width.
        """
        V = half_circle(256)
        W = DiscreteVarifold(V.chains + [
            Component(LINE.reflect_point(c.points), c.closed)
            for c in V.chains])
        X = polynomial_field([[1.0]], [[1.0]])  # constant field (1, 1)
        ratios = []
        for w in (0.3, 0.15, 0.075):
            Xw = windowed_field(X, (1.0, 0.0), w)
            dv = first_variation(W, Xw)
            dv_half = first_variation(V, Xw)
            assert abs(dv_half) > 0.5  # the lone conormal stays order one
            ratios.append(abs(dv) / abs(dv_half))
        assert ratios[-1] < 0.2
        assert ratios[2] < ratios[1] < ratios[0]


class TestKgonLimit:
    def test_stationarity_is_lost_in_the_limit(self):
        """Every k-gon is stationary against circle-tangential fields, but
        the limit circle is not stationary against unconstrained fields:
        the k-gon first variations against a fixed normal-carrying field
        converge to the nonzero curvature pairing of the circle."""
        S = Circle((0.0, 0.0), 1.0)
        tangential = tangential_family(S, n_fields=10, seed=8,
                                       localized_fraction=0.0)
        # radial field: sees the curvature of the limit circle
        radial = polynomial_field([[0.0, 0.0], [1.0, 0.0]],
                                  [[0.0, 1.0], [0.0, 0.0]])
        limit_value = None
        prev = None
        for k in (16, 64, 256, 1024):
            V = kgon(k)
            for X in tangential:
                assert abs(first_variation(V, X)) <= 1e-8
            val = first_variation(V, radial)
            if prev is not None:
                limit_value = val
            prev = val
        # oracle: delta(circle)(x) = int div_circle(x) dl = int 1 dl = 2 pi...
        # for the identity field the tangential divergence is 1 everywhere
        assert limit_value == pytest.approx(2.0 * np.pi, rel=1e-4)
        assert abs(limit_value) > 1.0  # decisively nonzero


class TestBoundaryMonotonicity:
    def test_radial_segment_identity(self):
        """Radial spoke against the unit circle: all terms closed form.

        On [1+a, 2] x {0} with h = 1: |D^T d|^2 = 1, tr_V D^2 d = 0, H = 0,
        so each tube term is rho^{-1} * rho and the shell term vanishes.
        """
        S = Circle((0.0, 0.0), 1.0)
        V = DiscreteVarifold.from_polyline([[1.0, 0.0], [2.0, 0.0]])
        res = boundary_monotonicity_check(V, S, ScalarField.one(), 0.5, 0.2)
        assert res <= 1e-6

    def test_segment_outside_tube(self):
        S = Circle((0.0, 0.0), 1.0)
        V = DiscreteVarifold.from_polyline([[3.0, 0.0], [4.0, 0.0]])
        res = boundary_monotonicity_check(V, S, ScalarField.one(), 0.3, 0.1)
        assert res == pytest.approx(0.0, abs=1e-15)

    def test_half_circle_identity_refines(self):
        S = LINE
        V = half_circle(512)
        res32 = boundary_monotonicity_check(V, S, LINEAR_H, 0.6, 0.3, order=32)
        assert res32 <= 1e-4
        res8 = boundary_monotonicity_check(V, S, LINEAR_H, 0.6, 0.3, order=4)
        assert res32 <= res8 + 1e-12

    def test_ellipse_arc_identity(self):
        """An arc inside the ellipse that crosses both tube boundaries; the
        ellipse has no closed-form Hessian, so this runs the
        finite-difference one."""
        th = np.linspace(-1.0, 1.0, 121)
        arc = (1.0 - 0.18 * (th + 1.0))[:, None] * np.stack(
            [1.45 * np.cos(th), 0.95 * np.sin(th)], axis=-1)
        d = ELLIPSE.distance(arc)
        assert d.min() < 0.1 and d.max() > 0.3
        V = DiscreteVarifold.from_polyline(arc)
        res = boundary_monotonicity_check(V, ELLIPSE, LINEAR_H, 0.3, 0.1)
        assert res <= 1e-9

    @pytest.mark.parametrize("chord", [
        [[-32.5, 1.25], [31.5, 1.25]],  # outside: dips below tau
        [[-0.81, 0.49999], [0.79, 0.49999]],  # inside: bumps above sigma
    ], ids=["dip", "bump"])
    def test_level_crossed_twice_between_scan_points(self, chord):
        """A chord whose distance to the unit circle crosses a level and
        comes back between two scan points: both crossings are cuts."""
        S = Circle((0.0, 0.0), 1.0)
        V = DiscreteVarifold.from_polyline(chord)
        res = boundary_monotonicity_check(V, S, ScalarField.one(), 0.5, 0.3)
        assert res <= 1e-12


def _split_segment_by_tube(S, p0, p1, radii):
    """Reference for ``_split_by_tube``: one segment at a time, one bisection
    at a time."""
    ts = np.linspace(0.0, 1.0, 65)
    pts = p0[None, :] + ts[:, None] * (p1 - p0)[None, :]
    d = S.distance(pts)
    L = np.linalg.norm(p1 - p0)
    cuts = [0.0, 1.0]
    for rho in radii:
        g = d - rho
        exact = np.nonzero(np.abs(g) <= 1e-14 * max(rho, L))[0]
        cuts.extend(ts[exact])
        sign_change = np.nonzero(g[:-1] * g[1:] < 0)[0]
        for i in sign_change:
            lo, hi = ts[i], ts[i + 1]
            glo = g[i]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                val = S.distance(p0 + mid * (p1 - p0)) - rho
                if val == 0.0:
                    break
                if glo * val < 0:
                    hi = mid
                else:
                    lo, glo = mid, val
            cuts.append(0.5 * (lo + hi))
    cuts = np.unique(np.clip(cuts, 0.0, 1.0))
    return [(p0 + a * (p1 - p0), p0 + b * (p1 - p0))
            for a, b in zip(cuts[:-1], cuts[1:])]


class TestSplitByTube:
    @pytest.mark.parametrize("S", [LINE, Circle((0.0, 0.0), 1.0), ELLIPSE],
                             ids=["line", "circle", "ellipse"])
    def test_matches_per_segment_split(self, S):
        rng = np.random.default_rng(3)
        starts = rng.uniform(-1.2, 1.2, (40, 2))
        ends = starts + rng.uniform(-0.6, 0.6, (40, 2))
        radii = (0.1, 0.3)
        q0, q1, seg = _split_by_tube(S, starts, ends, radii)
        want = [(k, a, b) for k in range(len(starts))
                for a, b in _split_segment_by_tube(S, starts[k], ends[k], radii)]
        assert len(want) > len(starts)  # some segments are cut
        assert len(seg) == len(want)
        for (k, a, b), s, r0, r1 in zip(want, seg, q0, q1):
            assert s == k
            assert np.array_equal(r0, a) and np.array_equal(r1, b)
