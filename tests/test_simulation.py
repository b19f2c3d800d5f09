import math
import re
import tracemalloc
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from attikit import (
    GimbalLockError,
    InvalidConfigError,
    NonFiniteInputError,
    RateProfile,
    conjugate,
    critically_damped_reference,
    from_axis_angle,
    normalized,
    pitch_sweep_dt,
    pitch_sweep_profile,
    propagate_euler_321,
    propagate_quaternion,
    pure,
    quat_mul,
    rotate_vector_inverse,
    simulate_unwinding,
)
from attikit import simulation
from attikit.algebra import _mul
from attikit.checks import require_unit
from attikit.conversions import _from_axis_angle
from attikit.kinematics import _conditioning, _euler_rates_321
from attikit.simulation import AttitudeState, EulerState, EulerTrajectory, _grid, _hamilton

Z = np.array([0.0, 0.0, 1.0])
IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


class TestRateProfile:
    def test_constant(self):
        p = RateProfile.constant([1.0, 2.0, 3.0])
        assert np.array_equal(p(0.0), [1, 2, 3])
        assert np.array_equal(p(17.5), [1, 2, 3])

    def test_zero_order_hold(self):
        p = RateProfile.from_samples([0.0, 1.0, 2.0], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert np.array_equal(p(0.5), [1, 0, 0])
        assert np.array_equal(p(1.0), [0, 1, 0])
        assert np.array_equal(p(1.999), [0, 1, 0])
        assert np.array_equal(p(5.0), [0, 0, 1])
        assert np.array_equal(p(-1.0), [1, 0, 0])

    def test_csv_round_trip(self, tmp_path):
        f = tmp_path / "profile.csv"
        f.write_text("t,p,q,r\n0,0.1,0.2,0.3\n1,0.4,0.5,0.6\n")
        p = RateProfile.from_csv(f)
        assert np.array_equal(p(0.5), [0.1, 0.2, 0.3])
        assert np.array_equal(p(1.5), [0.4, 0.5, 0.6])

    def test_callable_shape_error_typed(self):
        with pytest.raises(InvalidConfigError, match="3-vectors"):
            RateProfile(lambda t: [1, 2])(0.0)

    @pytest.mark.parametrize(
        "times, rates, cause",
        [
            ([0.0, 1.0], [[1, 0, 0]], "expected times"),
            ([], np.zeros((0, 3)), "empty"),
            ([0.0, 0.0], [[1, 0, 0], [0, 1, 0]], "strictly increasing"),
        ],
        ids=["shape", "empty", "not-increasing"],
    )
    def test_from_samples_errors_typed(self, times, rates, cause):
        with pytest.raises(InvalidConfigError, match=cause):
            RateProfile.from_samples(times, rates)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_time_rejected(self, bad):
        with pytest.raises(NonFiniteInputError, match=f"^non-finite sample time {bad} at row 1$"):
            RateProfile.from_samples([0.0, bad, 1.0], np.eye(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rate_rejected(self, bad):
        message = f"^non-finite sample rate \\[{bad}, 0.0, 0.0\\] at row 1$"
        with pytest.raises(NonFiniteInputError, match=message):
            RateProfile.from_samples([0.0, 5.0], [[0.0, 0.0, 1.0], [bad, 0.0, 0.0]])

    @settings(deadline=None)
    @given(
        times=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8, unique=True).map(sorted),
        data=st.data(),
    )
    def test_hold_is_searchsorted_right(self, times, data):
        rates = np.arange(3.0 * len(times)).reshape(-1, 3)
        span = st.floats(times[0] - 1.0, times[-1] + 1.0)
        t = data.draw(st.one_of(st.sampled_from(times), span), label="t")
        p = RateProfile.from_samples(times, rates)
        for s in (t, times[0] - 1.0, times[-1] + 1.0):
            i = max(0, int(np.searchsorted(times, s, side="right")) - 1)
            assert np.array_equal(p(s), rates[i])

    @settings(deadline=None)
    @given(
        times=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8, unique=True).map(sorted),
        data=st.data(),
    )
    @pytest.mark.parametrize("kind", ["constant", "samples", "callable"])
    def test_sample_equals_per_time_call(self, kind, times, data):
        rates = np.arange(1.0, 1.0 + 3.0 * len(times)).reshape(-1, 3)
        profile = {
            "constant": lambda: RateProfile.constant(rates[-1]),
            "samples": lambda: RateProfile.from_samples(times, rates),
            "callable": lambda: RateProfile(lambda t: [math.sin(t), t, -2.0 * t]),
        }[kind]()
        # Before the first sample, on a switch, 1 ulp either side of it, between, and after the last.
        switches = [u for s in times for u in (np.nextafter(s, -math.inf), s, np.nextafter(s, math.inf))]
        query = st.one_of(
            st.floats(times[0] - 1e3, times[0], exclude_max=True),
            st.sampled_from(switches),
            st.floats(times[0], times[-1]),
            st.floats(times[-1], times[-1] + 1e3, exclude_min=True),
        )
        ts = np.array(data.draw(st.lists(query, min_size=1, max_size=12), label="ts"))
        table = profile.sample(ts)
        assert table.dtype == float and not np.shares_memory(table, rates)
        assert np.array_equal(table, np.stack([profile(t) for t in ts.tolist()]))
        assert profile.sample(ts[:0]).shape == (0, 3)

    @pytest.mark.parametrize("ts", [0.5, [[0.0, 0.5], [1.0, 1.5]]], ids=["scalar", "2-D"])
    @pytest.mark.parametrize(
        "profile",
        [
            RateProfile.constant([1.0, 2.0, 3.0]),
            RateProfile.from_samples([0.0, 1.0], [[1, 0, 0], [0, 1, 0]]),
            RateProfile(lambda t: [t, 0.0, 0.0]),
        ],
        ids=["constant", "samples", "callable"],
    )
    def test_sample_needs_1d_times(self, profile, ts):
        with pytest.raises(InvalidConfigError, match=r"^sample times must be 1-D, got shape \("):
            profile.sample(ts)

    def test_csv_requires_header(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("0,0.1,0.2,0.3\n")
        with pytest.raises(InvalidConfigError, match="bad.csv line 1: expected CSV header"):
            RateProfile.from_csv(f)

    @pytest.mark.parametrize(
        "body, cause",
        [
            ("0,0.1,0.2,0.3\n1,x,0.5,0.6\n", "line 3: cannot parse 'x' as a float"),
            ("0,0.1,0.2,0.3\n\n1,0.5,0.6\n", "line 4: expected 4 values, got 3"),
        ],
        ids=["cell", "short-row-after-blank"],
    )
    def test_csv_errors_typed_and_located(self, tmp_path, body, cause):
        f = tmp_path / "profile.csv"
        f.write_text("t,p,q,r\n" + body)
        with pytest.raises(InvalidConfigError) as info:
            RateProfile.from_csv(f)
        assert str(info.value) == f"{f} {cause}"

    @pytest.mark.parametrize(
        "make",
        [lambda w: RateProfile.constant(w[0]), lambda w: RateProfile.from_samples([0.0, 0.2], w)],
        ids=["constant", "samples"],
    )
    def test_shares_no_memory(self, make):
        rates = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        p, ref = make(rates), make(rates.copy())
        ts = np.array([-0.1, 0.0, 0.1, 0.3])
        table, other = p.sample(ts), p.sample(ts)
        for a, b in [(table, other), (table, rates), (table, ts)]:
            assert not np.shares_memory(a, b)
        states = propagate_quaternion(IDENTITY, p, 0.1, 0.4, method="expmap")
        states[0].w_body[:] = 99.0
        p(0.3)[:] = 99.0
        table[:] = 99.0
        rates[:] = 99.0
        for s in states[1:]:
            assert np.array_equal(s.w_body, ref(s.t))
        for t in (0.0, 0.1, 0.3):
            assert np.array_equal(p(t), ref(t))
        assert np.array_equal(other, ref.sample(ts)) and np.array_equal(p.sample(ts), other)


class TestPropagateQuaternion:
    def test_expmap_exact_for_constant_rate(self):
        states = propagate_quaternion(
            IDENTITY, RateProfile.constant([0, 0, math.pi / 2]), 1e-3, 1.0, method="expmap"
        )
        target = from_axis_angle(Z, math.pi / 2)
        assert np.max(np.abs(states[-1].q - target)) < 1e-12

    def test_rk4_matches_closed_form(self):
        states = propagate_quaternion(
            IDENTITY, RateProfile.constant([0, 0, math.pi / 2]), 1e-3, 1.0, method="rk4"
        )
        target = from_axis_angle(Z, math.pi / 2)
        assert np.max(np.abs(states[-1].q - target)) < 1e-6

    def test_zero_profile_constant(self):
        q0 = normalized([1.0, 2.0, 3.0, 4.0])
        states = propagate_quaternion(q0, RateProfile.constant([0, 0, 0]), 0.1, 1.0)
        for s in states:
            assert np.max(np.abs(s.q - q0)) < 1e-15

    def test_unit_norm_every_step(self, rng):
        prof = RateProfile.constant(rng.normal(size=3) * 3.0)
        q0 = normalized(rng.normal(size=4))
        for method in ("rk4", "expmap"):
            for s in propagate_quaternion(q0, prof, 1e-2, 2.0, method=method):
                assert abs(np.linalg.norm(s.q) - 1.0) < 1e-12

    def test_rk4_norm_drift_per_step(self, rng):
        # Pre-renormalization drift of a single RK4 step stays below 1e-10
        # at dt <= 1e-3 and |w| <= 10.
        w = rng.normal(size=3)
        w = 10.0 * w / np.linalg.norm(w)
        q = normalized(rng.normal(size=4))
        dt = 1e-3

        def f(qq):
            return 0.5 * quat_mul(qq, pure(w))

        k1 = f(q)
        k2 = f(q + 0.5 * dt * k1)
        k3 = f(q + 0.5 * dt * k2)
        k4 = f(q + dt * k3)
        q_raw = q + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        assert abs(np.linalg.norm(q_raw) - 1.0) < 1e-10

    def test_methods_agree_on_piecewise_constant(self, rng):
        prof = RateProfile.from_samples(
            [0.0, 0.4, 0.8], rng.normal(size=(3, 3))
        )
        q0 = normalized(rng.normal(size=4))
        a = propagate_quaternion(q0, prof, 1e-3, 1.2, method="rk4")
        b = propagate_quaternion(q0, prof, 1e-3, 1.2, method="expmap")
        assert np.max(np.abs(a[-1].q - b[-1].q)) < 1e-6

    def test_rk4_exact_when_switches_miss_the_grid_by_one_ulp(self, rng):
        times, dt = np.arange(0.0, 1.0, 0.05), 1e-3
        grid = _grid(dt, 1.0, 0.0)
        late = [s for s in times if s not in grid and np.nextafter(s, 0.0) in grid]
        assert np.round(late, 12).tolist() == [0.15, 0.3, 0.6, 0.85]
        rates = rng.normal(size=(times.size, 3))
        states = propagate_quaternion(IDENTITY, RateProfile.from_samples(times, rates), dt, 1.0)
        exact = IDENTITY
        for w, start, end in zip(rates, times, [*times[1:], states[-1].t]):
            exact = quat_mul(exact, exp_step(w, end - start))
        assert np.abs(states[-1].q - exact).max() <= 1e-12

    def test_invalid_dt(self):
        with pytest.raises(InvalidConfigError):
            propagate_quaternion(IDENTITY, RateProfile.constant([0, 0, 1]), -0.1, 1.0)

    @pytest.mark.parametrize("t0, t1", [(0.0, math.inf), (0.0, math.nan), (-math.inf, 1.0)])
    def test_non_finite_span_typed(self, t0, t1):
        name = "t1" if math.isfinite(t0) else "t0"
        with pytest.raises(InvalidConfigError, match=f"^{name} must be finite, got "):
            propagate_quaternion(IDENTITY, RateProfile.constant([0, 0, 1]), 0.1, t1, t0=t0)

    @pytest.mark.parametrize(
        "dt, t1, t0",
        [(1e-300, 1.0, 0.0), (1e-9, 100.0, 0.0), (1.0, 1e308, -1e308), (1e-7, 1.0000002, 0.0)],
        ids=["1e300-steps", "1e11-steps", "inf-steps", "just-over"],
    )
    def test_step_count_above_max_steps_rejected(self, dt, t1, t0):
        # Raised before any grid array is built, so the huge counts cost nothing.
        with pytest.raises(InvalidConfigError, match=re.escape(f"dt = {dt} and t1 = {t1} ask for ")):
            propagate_quaternion(IDENTITY, RateProfile.constant([0, 0, 1]), dt, t1, t0=t0)
        with pytest.raises(InvalidConfigError, match="MAX_STEPS"):
            propagate_euler_321([0, 0, 0], RateProfile.constant([0, 0, 1]), dt, t1, t0=t0)

    def test_step_count_at_the_cap_accepted(self, monkeypatch):
        # The raw count (t1 - t0) / dt is compared, before it is rounded to the grid.
        monkeypatch.setattr(simulation, "MAX_STEPS", 4)
        assert _grid(1.0, 4.0, 0.0).size == 5
        with pytest.raises(InvalidConfigError, match="4.4 steps > MAX_STEPS = 4$"):
            _grid(1.0, 4.4, 0.0)

    def test_grid_times_are_t0_plus_k_dt(self):
        states = propagate_quaternion(IDENTITY, RateProfile.constant([0, 0, 1]), 0.1, 1.0, t0=0.3)
        assert [s.t for s in states] == [0.3] + [0.3 + k * 0.1 for k in range(1, 8)]

    @pytest.mark.parametrize("dt", [1e-3, 3.0], ids=["steps", "zero-steps"])
    def test_unknown_method_rejected(self, dt):
        with pytest.raises(InvalidConfigError, match="bogus"):
            propagate_quaternion(IDENTITY, RateProfile.constant([0, 0, 1]), dt, 1.0, method="bogus")


def exp_step(w, dt):
    """The rotation by |w| dt about w."""
    n = float(np.linalg.norm(w))
    if n == 0.0:
        return IDENTITY
    axis = w / n  # off unit norm when w is subnormal, so normalized once more
    return from_axis_angle(axis / np.linalg.norm(axis), n * dt)


def reference_propagate(q0, profile, dt, t1, method, t0):
    """The per-step loop propagate_quaternion ran before its increments were batched."""
    q = require_unit(q0).copy()
    ts = _grid(dt, t1, t0).tolist()
    states = [AttitudeState(t0, q.copy(), profile(t0))]
    for t, t_next in pairwise(ts):
        w = states[-1].w_body
        if method == "rk4":
            # CF4: two exponential maps of the rates at the Gauss nodes, renormalized per step.
            c = math.sqrt(3.0) / 6.0
            w1, w2 = profile(t + (0.5 - c) * dt), profile(t + (0.5 + c) * dt)
            a1, a2 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0, (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
            q = quat_mul(q, exp_step(a2 * w1 + a1 * w2, dt))
            q = normalized(quat_mul(q, exp_step(a1 * w1 + a2 * w2, dt)))
        else:
            wn = float(np.linalg.norm(w))
            if wn > 0.0:
                q = _mul(q, _from_axis_angle(w / wn, wn * dt))
        states.append(AttitudeState(t_next, q.copy(), profile(t_next)))
    return states


DTS = (2.0**-10, 1e-3, 0.01)
unit_quats = (
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)
    .filter(lambda x: np.linalg.norm(x) > 0.1)
    .map(lambda x: np.divide(x, np.linalg.norm(x)))
)
rate_rows = st.lists(st.one_of(st.just(0.0), st.floats(-5.0, 5.0)), min_size=3, max_size=3)


@st.composite
def zoh_runs(draw):
    """(dt, t0, t1, profile): a 1-8 sample ZOH profile with switches on or off the grid."""
    dt, t0 = draw(st.sampled_from(DTS)), draw(st.sampled_from([0.0, 0.3]))
    t1 = draw(st.floats(t0 + 1e-3, 2.0))
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        k = draw(st.lists(st.integers(0, round(2.0 / dt)), min_size=n, max_size=n, unique=True))
        times = t0 + dt * np.sort(k)
    else:
        times = np.sort(draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n, unique=True)))
    rates = draw(st.lists(rate_rows, min_size=n, max_size=n))
    return dt, t0, t1, RateProfile.from_samples(times, rates)


def assert_matches_reference(q0, profile, dt, t1, method, t0):
    new = propagate_quaternion(q0, profile, dt, t1, method=method, t0=t0)
    ref = reference_propagate(q0, profile, dt, t1, method, t0)
    assert [s.t for s in new] == [s.t for s in ref]
    assert np.array_equal([s.w_body for s in new], [s.w_body for s in ref])
    q, q_ref = np.array([s.q for s in new]), np.array([s.q for s in ref])
    if method == "expmap":
        assert np.array_equal(q, q_ref)
    else:
        assert np.abs(q - q_ref).max() <= 1e-13
        assert np.abs(np.linalg.norm(q, axis=1) - 1.0).max() <= 1e-15
    return new


class TestBatchedIncrements:
    """propagate_quaternion against the per-step loop it replaced."""

    @settings(deadline=None)
    @given(q0=unit_quats, run=zoh_runs(), method=st.sampled_from(["rk4", "expmap"]))
    def test_matches_per_step_loop(self, q0, run, method):
        dt, t0, t1, profile = run
        assert_matches_reference(q0, profile, dt, t1, method, t0)

    @pytest.mark.parametrize("method", ["rk4", "expmap"])
    def test_zero_steps(self, method):
        q0 = normalized([1.0, 2.0, 3.0, 4.0])
        profile = RateProfile.constant([0.5, -1.0, 2.0])
        states = assert_matches_reference(q0, profile, 3.0, 1.0, method, 0.3)
        assert len(states) == 1
        assert np.array_equal(states[0].q, q0) and np.array_equal(states[0].w_body, [0.5, -1.0, 2.0])


def vectors(bound):
    """3-vectors with components in [-bound, bound] and norm at least 0.1."""
    v = st.lists(st.floats(-bound, bound), min_size=3, max_size=3).map(np.array)
    return v.filter(lambda x: np.linalg.norm(x) >= 0.1)


class ConingRates(RateProfile):
    """The coning body rate w(t) = R(E(b, t))ᵀ a + b; sample calls each public function once per table."""

    def __init__(self, a, b):
        super().__init__(lambda t: rotate_vector_inverse(exp_step(b, t), a) + b)
        self.a, self.b = a, b

    def sample(self, ts):
        ts = np.asarray(ts, dtype=float)
        n = float(np.linalg.norm(self.b))  # vectors() keeps it at 0.1 or more
        axis = self.b / n
        axis = np.tile(axis / np.linalg.norm(axis), (ts.size, 1))
        return rotate_vector_inverse(from_axis_angle(axis, n * ts), self.a) + self.b


class TestConingOracle:
    """Two constant-axis spins q(t) = E(a, t) ∘ E(b, t), E(v, t) = exp(½ v t).

    The body rate w(t) = R(E(b, t))ᵀ a + b is smooth and time-varying, so this
    checks each method's order (Savage, JGCD 1998, two-axis coning).
    """

    A = np.array([0.3, -0.2, 0.5])
    B = np.array([0.0, 0.0, 2.0])
    DTS = (0.04, 0.02, 0.01, 0.005)

    def errors(self, method, a=A, b=B, t1=10.0, dts=DTS):
        profile = ConingRates(a, b)
        out = []
        for dt in dts:
            last = propagate_quaternion(IDENTITY, profile, dt, t1, method=method)[-1]
            exact = quat_mul(exp_step(a, last.t), exp_step(b, last.t))
            d = quat_mul(conjugate(exact), last.q)
            out.append(2.0 * math.atan2(np.linalg.norm(d[1:]), abs(d[0])))
        return np.array(out)

    @pytest.mark.parametrize(
        "method, ratio, tol, err_at_001",
        [("rk4", 16.0, 0.5, 1.015e-10), ("expmap", 2.0, 0.1, 6.953e-4)],
        ids=["rk4", "expmap"],
    )
    def test_convergence_order(self, method, ratio, tol, err_at_001):
        err = self.errors(method)
        assert np.all(np.abs(err[:-1] / err[1:] - ratio) <= tol), err
        assert err[self.DTS.index(0.01)] == pytest.approx(err_at_001, rel=1e-3)

    def test_array_sample_matches_per_time_rate(self):
        # Not bit equality: NumPy's SIMD sin and cos may round differently from its scalar ones.
        profile, ts = ConingRates(self.A, self.B), _grid(0.01, 5.0, 0.0)
        want = np.stack([profile(t) for t in ts.tolist()])
        assert np.abs(profile.sample(ts) - want).max() <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(a=vectors(1.0), b=vectors(2.0))
    def test_rk4_order_on_random_coning(self, a, b):
        # Spins about near-parallel axes barely cone: the rate is then almost constant, which
        # rk4 integrates to round-off, and the order no longer shows in the error.
        assume(np.linalg.norm(np.cross(a, b)) >= 0.1)
        err = self.errors("rk4", a, b, 5.0, self.DTS[:3])
        assert np.all(np.abs(err[:-1] / err[1:] - 16.0) <= 0.5), err
        assert np.all(err < self.errors("expmap", a, b, 5.0, self.DTS[:3])), err


class TestPropagateEuler321:
    def test_e0_shape_typed(self):
        with pytest.raises(InvalidConfigError, match="Euler angle triple"):
            propagate_euler_321([0.1, 0.2], RateProfile.constant([0, 0, 0]), 0.1, 1.0)

    def test_zero_rates_constant(self):
        traj = propagate_euler_321([0.1, 0.2, 0.3], RateProfile.constant([0, 0, 0]), 0.1, 1.0)
        assert not traj.gimbal_locked
        for s in traj.states:
            assert (s.phi, s.theta, s.psi) == (0.1, 0.2, 0.3)

    def test_pitch_sweep_flagged_halt(self):
        dt = pitch_sweep_dt(0.5, 1e-3)
        traj = propagate_euler_321([0, 0, 0], pitch_sweep_profile(0.5), dt, 4.0)
        assert traj.gimbal_locked
        last = traj.states[-1]
        assert abs(last.theta - math.pi / 2) < 1e-8
        assert last.conditioning > 1e8

    def test_negative_pitch_sweep_locks_at_minus_pi_over_2(self):
        dt = pitch_sweep_dt(-3.0, 1e-3)
        assert dt == pitch_sweep_dt(3.0, 1e-3)
        traj = propagate_euler_321([0, 0, 0], pitch_sweep_profile(-3.0), dt, 4.0)
        assert traj.gimbal_locked
        assert abs(traj.states[-1].theta + math.pi / 2) < 1e-8

    @pytest.mark.parametrize("rate", [0.0, -0.0, math.nan, math.inf, -math.inf])
    def test_pitch_sweep_rejects_zero_or_non_finite_rate(self, rate):
        with pytest.raises(InvalidConfigError, match=f"^pitch_rate must be finite and nonzero, got {rate}$"):
            pitch_sweep_dt(rate, 1e-3)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
    def test_pitch_sweep_rejects_bad_dt(self, dt):
        with pytest.raises(InvalidConfigError, match=f"^dt must be positive, got {dt}$"):
            pitch_sweep_dt(0.5, dt)

    @pytest.mark.parametrize("dt", [1e-3, 1e-4], ids=["inf-steps", "rate-dt-underflows"])
    def test_pitch_sweep_rejects_rate_too_small_to_lock(self, dt):
        with pytest.raises(InvalidConfigError, match=f"^pitch_rate 1e-320 is too small .* dt = {dt}$"):
            pitch_sweep_dt(1e-320, dt)

    def test_small_angle_cross_check_vs_quaternion(self):
        # 321 sequence: a yaw-only history matches the XYZ psi extraction, so
        # compare via rotation quaternions built from each representation.
        w = np.array([0.02, -0.03, 0.04])
        prof = RateProfile.constant(w)
        dt = 1e-4
        traj = propagate_euler_321([0.0, 0.0, 0.0], prof, dt, 0.5)
        qstates = propagate_quaternion(IDENTITY, prof, dt, 0.5, method="expmap")
        assert not traj.gimbal_locked
        for es, qs in zip(traj.states[::500], qstates[::500]):
            # 321 Euler angles: R = Rz(psi) Ry(theta) Rx(phi).
            q_euler = quat_mul(
                from_axis_angle(Z, es.psi),
                quat_mul(
                    from_axis_angle([0, 1, 0], es.theta),
                    from_axis_angle([1, 0, 0], es.phi),
                ),
            )
            delta = quat_mul(
                np.array([q_euler[0], -q_euler[1], -q_euler[2], -q_euler[3]]), qs.q
            )
            angle_err = 2.0 * math.atan2(np.linalg.norm(delta[1:]), abs(delta[0]))
            assert angle_err <= 1e-4


finite_components = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e150, -1e150]),
    st.floats(-1e150, 1e150),
)
quadruples = st.tuples(*[finite_components] * 4)


class TestFloatFold:
    @given(a=quadruples, b=quadruples)
    def test_hamilton_is_mul_bit_for_bit(self, a, b):
        got, want = np.array(_hamilton(a, b)), _mul(np.array(a), np.array(b))
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize(
        "method, size, peak_per_state",
        [("rk4", 4097, 520), ("expmap", 4097, 441), ("euler321", 3218, 280)],
        ids=["rk4", "expmap", "euler321"],
    )
    def test_transient_memory(self, method, size, peak_per_state):
        dt = 2.0**-10
        q0, profile = normalized([1.0, 2.0, 3.0, 4.0]), RateProfile.constant([0.3, -1.1, 1.7])
        sweep_dt = pitch_sweep_dt(0.5, dt)

        def run():
            if method == "euler321":  # the 4 s pitch sweep: it locks after 3,217 of its 4,096 steps
                return propagate_euler_321([0, 0, 0], pitch_sweep_profile(), sweep_dt, 4.0).states
            return propagate_quaternion(q0, profile, dt, 4.0, method=method)

        run()  # warm caches first
        tracemalloc.start()
        try:
            states = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(states) == size
        assert peak / len(states) <= peak_per_state


def reference_euler_321(e0, profile, dt, t1, t0=0.0):
    """The NumPy per-step loop propagate_euler_321 ran before it stepped on floats."""
    e = np.asarray(e0, dtype=float).copy()
    states = [EulerState(t0, e[0], e[1], e[2], _conditioning(e[1]))]
    for t, t_next in pairwise(_grid(dt, t1, t0).tolist()):
        try:
            rates = _euler_rates_321(e[0], e[1], profile(t))
        except GimbalLockError:
            return EulerTrajectory(states, gimbal_locked=True)
        e = e + dt * rates
        states.append(EulerState(t_next, e[0], e[1], e[2], _conditioning(e[1])))
    return EulerTrajectory(states, gimbal_locked=False)


def assert_euler_matches_reference(e0, profile, dt, t1, t0=0.0):
    new = propagate_euler_321(e0, profile, dt, t1, t0)
    ref = reference_euler_321(e0, profile, dt, t1, t0)
    assert new.gimbal_locked == ref.gimbal_locked
    assert np.array_equal(np.array(new.states), np.array(ref.states))
    return new


euler_angles = st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3).map(
    lambda e: [e[0], 0.5 * e[1], e[2]]
)


class TestEulerFloatSteps:
    """propagate_euler_321 against the NumPy per-step loop it replaced."""

    @settings(deadline=None)
    @given(e0=euler_angles, run=zoh_runs())
    def test_zero_order_hold(self, e0, run):
        dt, t0, t1, profile = run
        assert_euler_matches_reference(e0, profile, dt, t1, t0)

    @settings(deadline=None)
    @given(e0=euler_angles, a=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
    def test_smooth(self, e0, a):
        profile = RateProfile(lambda t: [a[0] * math.sin(t), a[1] + math.cos(3.0 * t), a[2] * t])
        assert_euler_matches_reference(e0, profile, 1e-3, 2.0)

    @pytest.mark.parametrize("rate", [0.5, 20.0, -3.0])
    def test_sweep_to_lock(self, rate):
        traj = assert_euler_matches_reference(
            [0.0, 0.0, -0.2], pitch_sweep_profile(rate), pitch_sweep_dt(abs(rate), 1e-3), 4.0
        )
        assert traj.gimbal_locked and traj.states[-1].conditioning > 1e8

    def test_zero_steps(self):
        traj = assert_euler_matches_reference([0.1, 0.2, 0.3], pitch_sweep_profile(), 3.0, 1.0, 0.3)
        assert traj.states == [EulerState(0.3, 0.1, 0.2, 0.3, 1.0 / abs(math.cos(0.2)))]

    def test_profile_error_at_the_lock_step_is_raised(self):
        dt = pitch_sweep_dt(0.5, 1e-3)
        t_lock = propagate_euler_321([0, 0, 0], pitch_sweep_profile(0.5), dt, 4.0).states[-1].t
        profile = RateProfile(lambda t: [0.0, 0.5, 0.0] if t < t_lock else [math.nan, 0.0, 0.0])
        for run in (propagate_euler_321, reference_euler_321):
            with pytest.raises(NonFiniteInputError, match=f"t={t_lock}"):
                run([0, 0, 0], profile, dt, 4.0)

    def test_profile_error_after_the_lock_is_raised(self):
        # The whole grid is sampled before the first step, so a rate that turns non-finite only
        # past the lock names its time; the per-step loop stopped at the lock without seeing it.
        dt = pitch_sweep_dt(0.5, 1e-3)
        t_lock = propagate_euler_321([0, 0, 0], pitch_sweep_profile(0.5), dt, 4.0).states[-1].t
        grid = _grid(dt, 4.0, 0.0).tolist()
        t_bad = grid[grid.index(t_lock) + 1]
        profile = RateProfile(lambda t: [0.0, 0.5, 0.0] if t <= t_lock else [math.nan, 0.0, 0.0])
        with pytest.raises(NonFiniteInputError, match=f"non-finite at t={re.escape(str(t_bad))}: "):
            propagate_euler_321([0, 0, 0], profile, dt, 4.0)
        assert reference_euler_321([0, 0, 0], profile, dt, 4.0).gimbal_locked

    @pytest.mark.parametrize("w", [[1e308, 0.0, 0.0], [0.0, 0.0, 1e308]], ids=["phi", "psi"])
    def test_overflow_typed(self, w):
        with pytest.raises(NonFiniteInputError, match=r"Euler angles overflow at t=10\.0: "):
            propagate_euler_321([0.0, 0.0, 0.0], RateProfile.constant(w), 10.0, 30.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_e0_typed(self, bad):
        with pytest.raises(NonFiniteInputError, match="Euler angles"):
            propagate_euler_321([0.0, bad, 0.0], pitch_sweep_profile(), 0.1, 1.0)


def spike(bad):
    """Rates that are finite except at t = 0.5, a grid time for dt = 0.125."""
    return RateProfile(lambda t: [bad, 0.0, 0.0] if t == 0.5 else [0.1, 0.2, 0.3])


PROPAGATORS = {
    "rk4": lambda profile: propagate_quaternion(IDENTITY, profile, 0.125, 1.0, method="rk4"),
    "expmap": lambda profile: propagate_quaternion(IDENTITY, profile, 0.125, 1.0, method="expmap"),
    "euler321": lambda profile: propagate_euler_321([0.0, 0.0, 0.0], profile, 0.125, 1.0),
}


class TestProfileChecks:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("run", PROPAGATORS.values(), ids=PROPAGATORS)
    def test_non_finite_rate_names_the_time(self, run, bad):
        with pytest.raises(NonFiniteInputError, match=r"non-finite at t=0\.5: "):
            run(spike(bad))

    @pytest.mark.parametrize("shape", [(2,), (3, 1), ()])
    @pytest.mark.parametrize("run", PROPAGATORS.values(), ids=PROPAGATORS)
    def test_shape_error_typed(self, run, shape):
        with pytest.raises(InvalidConfigError, match="3-vectors"):
            run(RateProfile(lambda t: np.zeros(shape)))


class TestUnwinding:
    def test_at_rest_stays(self):
        states, summary = simulate_unwinding(0.0, 0.0, 1.0, 2.0, 1e-3, 1.0)
        assert summary.final_theta == 0.0
        assert summary.path_length == 0.0
        for s in states:
            assert s.theta == 0.0 and s.omega == 0.0

    def test_unwinding_from_near_goal(self):
        theta0 = 2.0 * math.pi - 0.1
        states, summary = simulate_unwinding(theta0, 0.0, 1.0, 2.0, 1e-3, 30.0)
        assert abs(summary.final_theta) <= 1e-3
        assert summary.path_length >= (2.0 * math.pi - 0.1) - 0.05
        assert summary.short_way == pytest.approx(0.1, abs=1e-12)
        # Critically damped closed form is an exact oracle here.
        ts = np.array([s.t for s in states])
        thetas = np.array([s.theta for s in states])
        assert np.max(np.abs(thetas - critically_damped_reference(theta0, ts))) < 1e-6

    def test_antipode_path_length(self):
        _, summary = simulate_unwinding(math.pi, 0.0, 1.0, 2.0, 1e-3, 30.0)
        assert summary.path_length >= math.pi - 1e-3
        assert summary.short_way == pytest.approx(math.pi, abs=1e-12)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.5])
    @pytest.mark.parametrize("c", [1.0, 2.0, 3.0])
    def test_path_length_inequality_family(self, eps, c):
        theta0 = 2.0 * math.pi - eps
        _, summary = simulate_unwinding(theta0, 0.0, 1.0, c, 1e-3, 40.0)
        assert summary.path_length >= theta0 - 0.05
        assert summary.short_way == pytest.approx(eps, abs=1e-12)

    def test_energy_monotone(self):
        k = 1.0
        states, _ = simulate_unwinding(3.0, -1.0, k, 1.5, 1e-3, 10.0)
        v_prev = None
        for s in states:
            v = 0.5 * s.omega**2 + 0.5 * k * s.theta**2
            if v_prev is not None:
                assert v <= v_prev + 1e-9 * max(v_prev, 1.0)
            v_prev = v

    @pytest.mark.parametrize(
        "k, c, dt, t1",
        [
            (4.0, 1.5, 1e-3, 10.0),
            (0.5, 3.0, 1e-3, 10.0),
            (1.0 + 1e-12, 2.0, 1e-3, 10.0),
            (1e-6, 2.0, 0.5, 2000.0),
        ],
        ids=["under-damped", "over-damped", "near-critical", "over-damped-long"],
    )
    def test_closed_form_matches_expm(self, k, c, dt, t1):
        linalg = pytest.importorskip("scipy.linalg")
        x0 = np.array([3.0, -1.0])
        states, summary = simulate_unwinding(*x0, k, c, dt, t1)
        got = np.array([(s.theta, s.omega) for s in states])
        assert np.isfinite(got).all() and np.isfinite(summary).all()
        a = np.array([[0.0, 1.0], [-k, -c]])
        stride = max(1, len(states) // 400)
        want = np.array([linalg.expm(a * s.t) @ x0 for s in states[::stride]])
        np.testing.assert_allclose(got[::stride], want, rtol=0.0, atol=1e-12)

    def test_invalid_gains(self):
        with pytest.raises(InvalidConfigError):
            simulate_unwinding(1.0, 0.0, -1.0, 2.0, 1e-3, 1.0)
        with pytest.raises(InvalidConfigError):
            simulate_unwinding(1.0, 0.0, 1.0, 0.0, 1e-3, 1.0)

    @pytest.mark.parametrize("name", ["theta0", "omega0", "k", "c"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_named(self, name, bad):
        args = {"theta0": 1.0, "omega0": 0.0, "k": 1.0, "c": 2.0, name: bad}
        with pytest.raises(NonFiniteInputError, match=f"^{name} must be finite, got {bad}$"):
            simulate_unwinding(**args, dt=1e-3, t1=1.0)
