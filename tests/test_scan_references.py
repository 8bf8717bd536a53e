"""Reference versions of the density-scan kernels, compared bit for bit.

``reflected_truncated_kernel`` evaluates the direct and mirror images in one
stacked pass, ``DiscreteVarifold.ball_mass`` clips every segment without
masks and takes many radii at once, and ``mass_bound_check`` measures each
snapshot once, a block of a history's columns at a time.  ``slice_at``,
``tangent.rescale`` and ``summary_rows`` read a history's columns, and a
density centre integrates its radii in one kernel pass.  The references
below evaluate the same quantities the plain way, one snapshot or one
radius at a time and with numpy's norm reductions; every result must have
the same bits.  A slice integral goes through ``varifold.integrate_slices``,
one integrand call on the stacked segments of every component; its
reference takes each component's own nodes and sums them one at a time.
"""

import base64
import json
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from fbmcf import density, tangent
from fbmcf.barrier import Circle, Line
from fbmcf.errors import InadmissibleRadius, KappaTooLarge, OutOfHistory
from fbmcf.flow import (Component, CurveState, FlowHistory, circle_curve,
                        half_circle_curve, mass_bound_check, resample_uniform,
                        run, segment_curve, static_history,
                        _masses_and_reach)
from fbmcf.kernels import KernelParams, heat_kernel, reflected_truncated_kernel
from fbmcf.varifold import DiscreteVarifold, ball_masses, integrate_slice


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


# -- reflected truncated kernel --------------------------------------------------

def _reflected_truncated_kernel_two_pass(S, X0, x, t, params):
    """Reference for ``reflected_truncated_kernel``: cutoff times heat kernel
    of the direct image, then of the mirror image, each with its own tau
    and squared norm."""
    def sq(v):
        return np.sum(np.asarray(v, dtype=float) ** 2, axis=-1)

    def cutoff(v, t):
        tau = -np.asarray(t, dtype=float)
        s = params.kappa ** (-0.5) * np.power(tau, -0.75) \
            * (sq(v) - params.alpha * tau)
        return np.power(np.clip(1.0 - s, 0.0, None), 4)

    def heat_kernel(v, t):
        tau = -np.asarray(t, dtype=float)
        return np.power(4.0 * np.pi * tau, -0.5) * np.exp(-sq(v) / (4.0 * tau))

    x0 = np.asarray(X0[:2], dtype=float)
    t0 = float(X0[2]) if len(X0) > 2 else 0.0
    dt = np.asarray(t, dtype=float) - t0
    x = np.asarray(x, dtype=float)
    rel = x - x0
    feet = S.project(x)
    inside = np.linalg.norm(x - feet, axis=-1) < S.reach * (1.0 - 1e-12)
    mirror_rel = 2.0 * feet - x - x0
    return cutoff(rel, dt) * heat_kernel(rel, dt) + np.where(
        inside, cutoff(mirror_rel, dt) * heat_kernel(mirror_rel, dt), 0.0)


PARAMS = KernelParams(kappa=0.5, alpha=8.0, c1=2.0)
BARRIERS = {
    "line": Line((0.6, -0.8), 0.3),
    "circle_inside": Circle((0.2, -0.1), 1.0),
    "circle_outside": Circle((0.2, -0.1), 1.0, omega_side="outside"),
}


def _kernel_inputs(seed, n):
    """A centre X0 = (x0, t0), points around x0 at the scale of the cutoff
    support and a few far away, and times t < t0."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1.0, 1.0, 2)
    t0 = rng.uniform(-0.5, 0.5)
    tau = 10.0 ** rng.uniform(-4.0, -1.0, n)
    x = x0 + np.sqrt(tau)[:, None] * rng.normal(0.0, 2.0, (n, 2))
    x[: n // 8] = rng.uniform(-4.0, 4.0, (n // 8, 2))
    return (x0[0], x0[1], t0), x, t0 - tau


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(BARRIERS))
def test_reflected_kernel_per_point_times(name, seed):
    S = BARRIERS[name]
    X0, x, t = _kernel_inputs(seed, 1000)
    if isinstance(S, Circle):
        assert np.any(S.distance(x) >= S.reach)  # some mirrors are dropped
        assert np.any(S.distance(x) < S.reach)
    new = reflected_truncated_kernel(S, X0, x, t, PARAMS)
    ref = _reflected_truncated_kernel_two_pass(S, X0, x, t, PARAMS)
    assert np.count_nonzero(new) > 100
    assert same_bits(new, ref)


@pytest.mark.parametrize("name", sorted(BARRIERS))
def test_reflected_kernel_shared_time_and_shapes(name):
    """One time for all points, a single point at one or at two times, a
    grid of points, and a centre without a time coordinate."""
    S = BARRIERS[name]
    X0, x, t = _kernel_inputs(3, 240)
    for args in ((X0, x, t[0]), (X0, x[5], t[5]), (X0, x[5], t[:2]),
                 (X0[:2], x, -t), (X0, x.reshape(12, 20, 2), t.reshape(12, 20)),
                 (X0, x.reshape(12, 20, 2), t[0]), (X0, x[:20], t[:12, None])):
        new = reflected_truncated_kernel(S, *args, PARAMS)
        ref = _reflected_truncated_kernel_two_pass(S, *args, PARAMS)
        assert same_bits(new, ref)


# -- ball mass ---------------------------------------------------------------------

def _ball_mass_masked(V, center, r):
    """Reference for ``DiscreteVarifold.ball_mass``: the chord-ball roots
    solved only where the discriminant is positive."""
    starts, ends, mult = V.segments()
    center = np.asarray(center, dtype=float)
    a = starts - center
    d = ends - starts
    L = np.linalg.norm(d, axis=1)
    A = np.sum(d * d, axis=1)
    Bq = 2.0 * np.sum(a * d, axis=1)
    C = np.sum(a * a, axis=1) - r * r
    disc = Bq * Bq - 4.0 * A * C
    inside = np.zeros(len(L))
    pos = disc > 0
    s1 = np.full(len(L), np.inf)
    s2 = np.full(len(L), -np.inf)
    s1[pos] = (-Bq[pos] - np.sqrt(disc[pos])) / (2.0 * A[pos])
    s2[pos] = (-Bq[pos] + np.sqrt(disc[pos])) / (2.0 * A[pos])
    lo = np.clip(s1, 0.0, 1.0)
    hi = np.clip(s2, 0.0, 1.0)
    inside[pos] = np.maximum(hi[pos] - lo[pos], 0.0)
    return float(np.sum(mult * inside * L))


def _random_varifold(rng, n_chains, multiplicities, max_points=60):
    chains = []
    for k in range(n_chains):
        n = int(rng.integers(2, max_points))
        pts = np.cumsum(rng.normal(0.0, 0.2, (n, 2)), axis=0) \
            + rng.uniform(-1.0, 1.0, 2)
        chains.append(Component(pts, closed=bool(k % 2 and n > 2),
                                multiplicity=multiplicities[k % len(
                                    multiplicities)]))
    return DiscreteVarifold(chains)


@pytest.mark.parametrize("multiplicities", [(1,), (2,), (3,), (1, 2, 3)])
@pytest.mark.parametrize("seed", [0, 1])
def test_ball_mass_equals_masked_clip(multiplicities, seed):
    """Multiplicities 2 and 3 pin the product order (mult * inside) * L."""
    rng = np.random.default_rng([seed, len(multiplicities),
                                 multiplicities[0]])
    V = _random_varifold(rng, 4, multiplicities)
    pts = V.segments()[0]
    for _ in range(40):
        center = rng.uniform(-2.0, 2.0, 2)
        r = float(10.0 ** rng.uniform(-2.0, 1.0))
        assert same_bits(V.ball_mass(center, r),
                         _ball_mass_masked(V, center, r))
    # balls through a vertex, and radius zero
    for center, r in ((pts[3], 0.5), (pts[3], 0.0), (pts[0], 1e-300)):
        assert same_bits(V.ball_mass(center, r),
                         _ball_mass_masked(V, center, r))


def test_many_radii_rows_equal_one_radius_calls():
    """3000 segments and 70 radii: each row of ball_masses is summed on its
    own, with the bits of the one-radius reference."""
    rng = np.random.default_rng(5)
    V = _random_varifold(rng, 60, (1, 2, 3), max_points=100)
    starts, ends, mult = V.segments()
    assert len(mult) > 2500
    center = np.array([0.1, -0.2])
    radii = np.sort(10.0 ** rng.uniform(-1.5, 0.7, 70))
    masses = ball_masses(starts, ends, mult, center, radii)
    for r, m in zip(radii, masses):
        assert same_bits(float(m), _ball_mass_masked(V, center, r))


# -- mass bound -------------------------------------------------------------------

def _mass_bound_check_per_probe(history, z, r, kappa):
    """Reference for ``mass_bound_check``: a new varifold and a masked ball
    mass for both sides of every (c, snapshot) probe."""
    def mass(state, rad):
        comps = [c for c in state.components if len(c.points) > 1]
        return _ball_mass_masked(DiscreteVarifold(comps), z, rad) \
            if comps else 0.0

    z = np.asarray(z, dtype=float)
    c_grid = np.concatenate([[1.0], np.arange(1.1, 8.01, 0.1)])
    t0 = history.times[0]
    mu0 = history.snapshots[0]
    found = None
    for c in c_grid:
        ok = True
        for s in history.snapshots:
            t = s.time - t0
            R = r + kappa + c * t / kappa
            if mass(s, r) > c ** (1.0 + t / kappa ** 2) * mass(mu0, R) + 1e-12:
                ok = False
                break
        if ok:
            found = float(c)
            break
    pts0 = mu0.all_points()
    R0 = float(np.linalg.norm(pts0 - z, axis=1).max()) if len(pts0) else 0.0
    support_c = 0.0
    for s in history.snapshots[1:]:
        t = s.time - t0
        if t <= 0 or not s.components:
            continue
        reach = float(np.linalg.norm(s.all_points() - z, axis=1).max())
        support_c = max(support_c, (reach - R0 - kappa) * kappa / t)
    return (found is not None, found if found is not None else np.inf,
            max(support_c, 0.0))


def _segment_history(half_lengths, times):
    """Snapshots of the segment [-L, L] x {0}, one per (L, t); L = 0 gives
    an empty slice."""
    snaps = []
    for L, t in zip(half_lengths, times):
        comps = [] if L == 0 else [Component(
            np.stack([np.linspace(-L, L, 9), np.zeros(9)], axis=-1))]
        snaps.append(CurveState(comps, float(t)))
    return FlowHistory(snaps)


def _histories():
    times = np.linspace(0.0, 1.0, 150)
    jump = np.where(times < 0.6, 0.4, 0.45)  # c = 1 fails in the second block
    # one snapshot that c = 1 fails: first after mu0, at either edge of the
    # first block of 64, and last
    spikes = {f"spike_{i}": _segment_history(
        np.where(np.arange(150) == i, 0.45, 0.4), times)
        for i in (1, 63, 64, 149)}
    rng = np.random.default_rng(11)
    wobble = 0.4 * (1.0 + rng.uniform(-0.2, 0.2, 150))
    return {
        **spikes,
        "second_block": _segment_history(jump, times),
        "random": _segment_history(wobble, times),
        "no_grid_value": _segment_history([0.01] + [0.5] * 99,
                                          np.linspace(0.0, 0.5, 100)),
        "empty_start": _segment_history([0.0] + [0.4] * 9,
                                        np.linspace(0.0, 0.1, 10)),
        "circle": run(circle_curve(n=48), t_end=0.3, h_target=0.15,
                      snapshot_dt=0.002),
        "half_circle": run(half_circle_curve(n=32), t_end=0.3, h_target=0.1,
                           snapshot_dt=0.002, barrier=Line()),
    }


HISTORIES = _histories()


@pytest.mark.parametrize("name", sorted(HISTORIES))
@pytest.mark.parametrize("z, r, kappa", [((0.0, 0.0), 0.5, 0.3),
                                         ((0.3, 0.1), 0.2, 0.15)])
def test_mass_bound_equals_per_probe_check(name, z, r, kappa):
    hist = HISTORIES[name]
    rep = mass_bound_check(hist, z, r, kappa)
    holds, c, support_c = _mass_bound_check_per_probe(hist, z, r, kappa)
    assert rep.holds == holds
    assert same_bits(rep.c, c) and same_bits(rep.support_c, support_c)


def test_mass_bound_histories_cover_each_outcome():
    """The histories above reach c = 1, c > 1 only after the first block of
    snapshots, and no grid value at all."""
    z, r, kappa = (0.0, 0.0), 0.5, 0.3
    c = {name: mass_bound_check(HISTORIES[name], z, r, kappa).c
         for name in ("second_block", "no_grid_value", "circle", "spike_1",
                      "spike_63", "spike_64", "spike_149")}
    assert c["circle"] == 1.0
    assert all(c[f"spike_{i}"] > 1.0 for i in (1, 63, 64, 149))
    assert 1.0 < c["second_block"] < np.inf
    assert c["no_grid_value"] == np.inf
    assert len(HISTORIES["second_block"].snapshots) > 64


# -- per-snapshot scans of stored histories -----------------------------------

def _masses_and_reach_per_snapshot(history, z, r):
    """Reference for ``flow._masses_and_reach``: a new varifold, a masked
    ball mass and a norm reduction for each snapshot on its own."""
    masses, reach = [], []
    for s in history.snapshots:
        comps = [c for c in s.components if len(c.points) > 1]
        masses.append(_ball_mass_masked(DiscreteVarifold(comps), z, r)
                      if comps else 0.0)
        pts = s.all_points()
        reach.append(float(np.linalg.norm(pts - z, axis=1).max())
                     if len(pts) else 0.0)
    return masses, reach


@pytest.fixture(params=["corner", "pop"])
def stored_history(request, corner_history, pop_history):
    """(history, centre): the half circle flowed into its corner on a line,
    1,000 snapshots, about the corner, and the lasso that pops on a circle
    into several components, about its waist."""
    return {"corner": (corner_history, np.array([0.0, 0.0])),
            "pop": (pop_history, np.array([0.05, 1.05]))}[request.param]


def test_pop_history_has_several_components(pop_history):
    assert max(len(s.components) for s in pop_history.snapshots) >= 2


@pytest.mark.parametrize("r", [0.1, 0.3, 0.5])
def test_block_masses_equal_per_snapshot_masses(stored_history, r):
    history, z = stored_history
    new = _masses_and_reach(history, z, r)
    ref = _masses_and_reach_per_snapshot(history, z, r)
    assert np.array(new).tobytes() == np.array(ref).tobytes()


def test_block_masses_keep_the_zero_length_error():
    """A zero-length segment in any snapshot raises the ValueError of
    ``DiscreteVarifold``, as a varifold per snapshot did."""
    good = Component([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    bad = Component([(0.0, 0.0), (1.0, 0.0), (1.0, 0.0)])
    hist = FlowHistory([CurveState([good], 0.0), CurveState([good], 0.1),
                        CurveState([good, bad], 0.2)])
    with pytest.raises(ValueError, match="zero length"):
        mass_bound_check(hist, (0.0, 0.0), 0.5, 0.3)


# -- columnar histories against per-snapshot references ---------------------------

@pytest.fixture(scope="module")
def decoded(corner_history, pop_history, tmp_path_factory):
    """name -> (history, its snapshots as ``CurveState``s decoded from its
    file by the README's recipe, apart from the history's own columns, and
    per snapshot the time of the first Pop or Vanish event its line
    records, the first since the snapshot before, or None)."""
    out = {}
    for name, history in (("corner", corner_history), ("pop", pop_history)):
        path = tmp_path_factory.mktemp(name) / "history.jsonl"
        history.to_jsonl(path)
        states, jumps = [], []
        with open(path) as f:
            next(f)
            for line in f:
                rec = json.loads(line)
                jumps.append(min((e["time"] for e in rec["events"]
                                  if e["kind"] in ("Pop", "Vanish")),
                                 default=None))
                xy = np.frombuffer(base64.b64decode(rec["points"]),
                                   "<f8").reshape(-1, 2)
                flags = np.zeros(len(xy), bool)
                flags[rec["flagged"]] = True
                ends = np.cumsum(rec["counts"], dtype=int)
                states.append(CurveState(
                    [Component(p, c, fl) for p, fl, c in zip(
                        np.split(xy, ends)[:-1], np.split(flags, ends)[:-1],
                        rec["closed"])], rec["t"], history.barrier))
        out[name] = (history, states, jumps)
    return out


def _slice_at_per_snapshot(states, jumps, t):
    """Reference for ``FlowHistory.slice_at``: the bracketing snapshots
    interpolated component by component, or, when their components differ,
    the one on t's side of the first jump between them (of their middle
    when there is none)."""
    times = np.array([s.time for s in states])
    i = int(np.argmin(np.abs(times - t)))
    if abs(times[i] - t) < 1e-12 or t < times[0] or t > times[-1]:
        return states[i]
    lo = max(0, min(int(np.searchsorted(times, t) - 1), len(times) - 2))
    a, b = states[lo], states[lo + 1]
    lam = (t - times[lo]) / (times[lo + 1] - times[lo])
    if len(a.components) != len(b.components) or any(
            ca.closed != cb.closed
            for ca, cb in zip(a.components, b.components)):
        jump = jumps[lo + 1]
        if jump is None:
            jump = 0.5 * (times[lo] + times[lo + 1])
        return a if t < jump else b
    comps = []
    for ca, cb in zip(a.components, b.components):
        pa, pb = ca.points, cb.points
        flags = ca.on_s & cb.on_s if len(pa) == len(pb) else None
        if len(pa) != len(pb):
            n_seg = max(len(pa), len(pb)) - (not ca.closed)
            pa, pb = resample_uniform(ca, n_seg), resample_uniform(cb, n_seg)
            flags = np.zeros(len(pa), dtype=bool)
            if not ca.closed:
                flags[0] = ca.on_s[0] and cb.on_s[0]
                flags[-1] = ca.on_s[-1] and cb.on_s[-1]
        comps.append(Component((1 - lam) * pa + lam * pb, ca.closed, flags))
    return CurveState(comps, t, a.barrier)


def _state_bits(state):
    return (state.time, [(c.points.tobytes(), c.on_s.tobytes(), c.closed)
                         for c in state.components])


def _bracket_kinds(states):
    """Per pair of neighbouring snapshots: 'components' when their
    component counts or closed flags differ, 'vertices' when a component's
    vertex count does, else 'same'."""
    kinds = []
    for a, b in zip(states[:-1], states[1:]):
        if len(a.components) != len(b.components) or any(
                ca.closed != cb.closed
                for ca, cb in zip(a.components, b.components)):
            kinds.append("components")
        elif any(len(ca.points) != len(cb.points)
                 for ca, cb in zip(a.components, b.components)):
            kinds.append("vertices")
        else:
            kinds.append("same")
    return np.array(kinds)


@pytest.mark.parametrize("name", ["corner", "pop"])
def test_slice_at_equals_per_snapshot_slices(name, decoded):
    """Seeded times, snapshot times, the middles of every bracket where a
    remesh changed a vertex count or a pop changed the components, and the
    times of the pops and vanishes and just before them."""
    history, states, jumps = decoded[name]
    times = history.times
    kinds = _bracket_kinds(states)
    special = np.flatnonzero(kinds != "same")
    rng = np.random.default_rng(17)
    ts = np.concatenate([rng.uniform(times[0], times[-1], 200), times[::41],
                         0.5 * (times[special] + times[special + 1]),
                         times[special] + 1e-13, [times[-1] + 1e-10],
                         [j - d for j in jumps if j is not None
                          for d in (1e-7, 0.0)]])
    if name == "pop":
        assert {"vertices", "components"} <= set(kinds)
    for t in ts:
        assert _state_bits(history.slice_at(t)) \
            == _state_bits(_slice_at_per_snapshot(states, jumps, t))


def _rescale_per_snapshot(states, X0, lam):
    """Reference for ``tangent.rescale``: new components snapshot by
    snapshot."""
    x0, t0 = np.asarray(X0[:2], dtype=float), float(X0[2])
    return [CurveState([Component((c.points - x0) / lam, c.closed, c.on_s)
                        for c in s.components], (s.time - t0) / lam ** 2)
            for s in states]


@pytest.mark.parametrize("name", ["corner", "pop"])
def test_rescale_equals_per_snapshot_rescale(name, decoded):
    """A rescaling, and a rescaling of it."""
    history, states, _ = decoded[name]
    X0 = {"corner": (0.0, 0.0, 0.5), "pop": (0.05, 1.05, 0.2)}[name]
    once = tangent.rescale(history, X0, 0.4)
    twice = tangent.rescale(once, (0.01, -0.02, 0.3), 0.7)
    ref_once = _rescale_per_snapshot(states, X0, 0.4)
    ref_twice = _rescale_per_snapshot(ref_once, (0.01, -0.02, 0.3), 0.7)
    for new, ref in ((once, ref_once), (twice, ref_twice)):
        assert new.times.tobytes() == np.array([s.time for s in ref]).tobytes()
        assert [_state_bits(s)[1] for s in new.snapshots] \
            == [_state_bits(s)[1] for s in ref]
        assert new.events == [] and new.config == history.config
    # the rescaled history shares the flags and offsets, not the points
    assert once._flags is history._flags
    assert not np.shares_memory(once._points, history._points)


def min_barrier_distance(state):
    """Reference for a summary row's distance: the least barrier distance
    of all the slice's points, inf without a barrier or a vertex."""
    if state.barrier is None or not state.components:
        return np.inf
    return float(np.min(state.barrier.distance(state.all_points())))


@pytest.mark.parametrize("name", ["corner", "pop"])
def test_summary_rows_equal_per_snapshot_rows(name, decoded):
    history, states, _ = decoded[name]
    ref = [(s.time, s.total_length(), min_barrier_distance(s),
            len(s.components)) for s in states]
    assert np.array(history.summary_rows()).tobytes() == np.array(ref).tobytes()


def test_summary_rows_of_empty_and_one_vertex_components():
    """No barrier, an empty snapshot, a closed component of one vertex
    (one zero-length segment) and of two, and an open one of one vertex."""
    one = Component([(0.5, 0.5)], closed=True)
    pair = Component([(0.0, 0.0), (3.0, 4.0)], closed=True)
    dot = Component([(1.0, 1.0)])
    hist = FlowHistory([CurveState([one, pair], 0.0), CurveState([], 0.1),
                        CurveState([dot, pair, one], 0.2)])
    ref = [(s.time, s.total_length(), min_barrier_distance(s),
            len(s.components)) for s in hist.snapshots]
    assert hist.summary_rows() == ref
    assert hist.summary_rows()[0][1] == 10.0


def test_columnar_scans_build_no_snapshots(tmp_path, corner_history):
    """Slices, rescaling, the mass scan, the summary and the file layout
    read the columns: they build the snapshots they use (the initial one
    and the two around the slice time) and no other."""
    path = tmp_path / "history.jsonl"
    corner_history.to_jsonl(path)
    hist = FlowHistory.from_jsonl(path, barrier=corner_history.barrier)
    hist.slice_at(0.2501)
    tangent.rescale(hist, (0.0, 0.0, 0.5), 0.3).slice_at(-1.0)
    mass_bound_check(hist, (0.0, 0.0), 0.5, 0.3)
    hist.summary_rows()
    hist.to_jsonl(tmp_path / "again.jsonl")
    assert [i for i, s in enumerate(hist._states) if s is not None] \
        == [0, 500, 501]
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()
    assert len(hist.snapshots) == len(hist.times)
    # the snapshots are views of the columns, not copies
    assert np.shares_memory(hist.snapshots[7].components[0].points,
                            hist._points)


def test_mass_scan_memory_is_bounded(corner_history):
    """The mass scan goes a block of snapshots at a time: a pass over all
    of the corner's 513,000 vertices at once would hold about 50 MB."""
    tracemalloc.start()
    try:
        _masses_and_reach(corner_history, np.zeros(2), 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(corner_history._points) > 500_000
    assert peak < 6e6


# -- one kernel pass per density centre -------------------------------------------

def _density_cases(corner_history, pop_history):
    """(history, barrier, params, centre, radii): smooth points of the
    corner on its line, one with an inadmissible radius and one with radii
    out of history, points on the pop's circle, one across the pop, points
    of both farther than kappa / 10 from the barrier, and a point between
    two parallel chains above the line, whose slices' per-chain sums give
    other bits than one sum over both chains at radii 0.2 and 0.1."""
    line = corner_history.barrier
    big = KernelParams(kappa=1e6, alpha=8.0, c1=2.0)
    circle = pop_history.barrier
    small = KernelParams(kappa=0.15, alpha=8.0, c1=2.0)  # tau0 about 4e-7
    t_end = float(corner_history.times[-1])
    after_pop = pop_history.times[np.searchsorted(
        pop_history.times, pop_history.events[0].time)]
    # a vertex of the lasso 0.05 or more from the circle, at t = 0.05
    lasso = pop_history.slice_at(0.05).all_points()
    far = lasso[np.argmax(circle.distance(lasso) >= 0.05)]
    pair = CurveState([segment_curve((-1.0, y), (1.0, y), n=100).components[0]
                       for y in (0.1, 0.3)], 0.0, line)
    return [
        (corner_history, line, big, (0.6, 0.3, 0.25), [0.2, 0.1, 0.05, 0.025]),
        (corner_history, line, big, (0.3, 0.0, 0.1), [0.4, 0.2, 0.1, 0.05]),
        (corner_history, line, big, (0.0, 0.2, t_end + 0.003),
         [0.1, 0.07, 0.04, 0.02]),
        (pop_history, circle, small, (0.0, 1.0, after_pop + 2e-7),
         [6e-4, 4e-4, 2e-4, 1e-4]),
        (pop_history, circle, small, (0.3, 0.96, 0.1), [6e-4, 3e-4, 1e-4]),
        (corner_history, line, KernelParams(kappa=1.0, alpha=8.0, c1=2.0),
         (0.3, 0.5568, 0.3), [4e-3, 2e-3, 1e-3, 5e-4]),
        (pop_history, circle, small, (far[0], far[1], 0.05),
         [6e-4, 4e-4, 2e-4, 1e-4]),
        (static_history(pair, 0.0, 0.4), line, big, (0.05, 0.2, 0.3),
         [0.2, 0.1, 0.05, 0.025]),
    ]


def integrate_per_component(state, fn, order):
    """Reference for ``integrate_slice``: ``order``-point Gauss-Legendre on
    each component's own segment vectors and lengths, one call of fn and
    one sum per component, the sums added in component order."""
    nodes, weights = leggauss(order)
    s = 0.5 * (nodes + 1.0)
    total = 0.0
    for comp in state.components:
        if len(comp.points) < 2:
            continue
        d, L = comp.segment_vectors(), comp.segment_lengths()
        pts = np.empty((len(d), order, 2))
        for c in range(2):
            np.add(comp.points[:len(d), c, None], s * d[:, c, None],
                   out=pts[..., c])
        vals = np.asarray(fn(pts.reshape(-1, 2))).reshape(len(L), order)
        total += float(np.sum(0.5 * L * (vals @ weights)))
    return total


def _reflected_density_per_slice(history, S, X0, r, params):
    """Reference for a reflected density: the reflected truncated kernel at
    the slice's points, integrated one component at a time."""
    t0 = float(X0[2])
    return integrate_per_component(
        history.slice_at(t0 - r * r),
        lambda p: reflected_truncated_kernel(S, X0, p, t0 - r * r, params), 8)


@pytest.mark.parametrize("order", [4, 8])
def test_slice_integrals_after_a_pop_equal_per_component_sums(pop_history,
                                                              order):
    """On the lasso's slices after its pop, of two components each, one
    integrand call over the stacked segments gives the bits of the
    per-component sums: for the plain heat kernel, and for a group of
    kernel times on one slice through the reflected kernel."""
    S = pop_history.barrier
    params = KernelParams(kappa=0.15, alpha=8.0, c1=2.0)
    after = pop_history.times[pop_history.times > pop_history.events[0].time]
    states = [pop_history.slice_at(t) for t in after[:6]]
    assert min(len(s.components) for s in states) >= 2
    x0 = np.array([0.0, 1.0])
    for st in states:
        fn = lambda p: heat_kernel(p - x0, -0.01)  # noqa: E731
        assert same_bits(integrate_slice(st, fn, order),
                         integrate_per_component(st, fn, order))
    centre = np.array([0.0, 1.0, after[5] + 1e-4])
    comps = states[0].components
    times = states[0].time + np.array([0.0, 1e-3, 2e-3])
    thetas = density._integrate_group(S, centre, [(t, comps) for t in times],
                                      params)
    for t, theta in zip(times, thetas):
        assert theta > 0.0
        assert same_bits(theta, integrate_per_component(
            states[0], lambda p: reflected_truncated_kernel(S, centre, p, t,
                                                            params), 8))


def _memo_bits(history):
    return {key: np.float64(v).tobytes()
            for key, v in history._densities.items()}


@pytest.mark.parametrize("case", range(8), ids=[
    "line", "line-inadmissible", "line-out-of-history", "circle-pop",
    "circle", "line-interior", "circle-interior", "two-chains"])
def test_one_pass_densities_equal_per_radius_densities(
        case, corner_history, pop_history, monkeypatch):
    """``density_at_point`` and ``monotonicity_report``, with the pass of
    all a centre's radii and with one radius at a time, keep the memo
    entries, and return the values, of the per-slice reference."""
    history, S, params, X, radii = _density_cases(corner_history,
                                                  pop_history)[case]
    X = tuple(map(float, X))
    ref = {}  # memo key: reference value, of the admissible radii in history
    for r in radii:
        if r * r > min(params.tau0, X[2] - history.times[0]):
            continue
        try:
            theta = _reflected_density_per_slice(history, S, X, r, params)
        except OutOfHistory:
            continue
        ref[(S, params, np.array([*X, r]).tobytes())] = theta
    assert len(ref) >= 2
    if case in (1, 2):
        assert len(ref) < len(radii)
    used = [r for r in radii
            if (S, params, np.array([*X, r]).tobytes()) in ref]
    point = density._extrapolate_sqrt(np.array(used),
                                      np.array(list(ref.values())))
    calls = []

    def counted(*args):
        calls.append(args[3])
        return reflected_truncated_kernel(*args)

    monkeypatch.setattr(density, "reflected_truncated_kernel", counted)
    for one_pass in (True, False):
        if not one_pass:
            monkeypatch.setattr(density, "_integrate_radii",
                                lambda *args: None)
        fresh = FlowHistory(history.snapshots, history.events,
                            history.config, history.barrier)
        calls.clear()
        assert density.density_at_point(fresh, S, X, params,
                                        radii=radii) == point
        try:
            rep = density.monotonicity_report(fresh, S, X, params, radii)
            assert same_bits(rep.theta_values,
                             np.array(list(ref.values()))[np.argsort(used)]
                             [::-1])
        except (OutOfHistory, InadmissibleRadius):
            assert case in (1, 2)
        assert _memo_bits(fresh) == {k: np.float64(v).tobytes()
                                     for k, v in ref.items()}
        # one kernel call for all radii, unless the pop's slices differ in
        # segment count; else one per radius
        if one_pass and case != 3:
            assert len(calls) == 1
        if not one_pass:
            assert len(calls) == len(ref)


def test_density_pass_memory_is_bounded(corner_history):
    """A long radius list goes through the kernel in groups of about
    ``_SCAN_BLOCK`` points: 200 radii on the corner's 512-segment slices in
    one call would hold about 80 MB.  Every value keeps the bits of the
    per-radius path."""
    line = corner_history.barrier
    params = KernelParams(kappa=1e6, alpha=8.0, c1=2.0)
    X = (0.6, 0.3, 0.25)
    radii = np.linspace(0.01, 0.45, 200)
    fresh = FlowHistory(corner_history.snapshots, [], {}, line)
    tracemalloc.start()
    try:
        density._integrate_radii(fresh, line, X, radii, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6
    assert len(fresh._densities) == len(radii)
    ref = FlowHistory(corner_history.snapshots, [], {}, line)
    for r in radii:
        assert same_bits(density.reflected_density(fresh, line, X, r, params),
                         density.reflected_density(ref, line, X, r, params))


def test_kappa_too_large_raises_in_the_pass(corner_history):
    """A kappa too large raises in the pass as in ``reflected_density``, and
    keeps nothing."""
    line = corner_history.barrier
    X = (0.6, 0.3, 0.25)
    params = KernelParams(kappa=1e9, alpha=8.0, c1=2.0)
    fresh = FlowHistory(corner_history.snapshots, [], {}, line)
    with pytest.raises(KappaTooLarge):
        density._integrate_radii(fresh, line, X, np.asarray([0.2, 0.1]),
                                 params)
    assert fresh._densities == {}
    with pytest.raises(KappaTooLarge):
        density.density_at_point(fresh, line, X, params, radii=[0.2, 0.1])
