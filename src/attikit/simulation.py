"""Attitude propagation and the gimbal-lock / unwinding demonstrations.

Quaternion propagation samples the profile on the grid once and composes
per-step increments, q_{k+1} = q_k ∘ m_k (qdot = 1/2 q ∘ (0, w) is linear in
q), built from exponential maps E(w dt) = (cos(|w| dt / 2), what sin(|w| dt / 2)).
``expmap`` takes E(w dt) of the rate at each interval start: exact only for
piecewise-constant rates aligned with the grid. ``rk4`` keeps its name but is
the commutator-free fourth-order step CF4 (Celledoni, Marthinsen & Owren, FGCS
2003), E((a2 w1 + a1 w2) dt) ∘ E((a1 w1 + a2 w2) dt) with a1,2 = (3 ∓ 2√3)/12
and w1, w2 the rates at the two Gauss nodes: exact wherever expmap is. The increments are array passes; the
serial fold runs on Python floats, in _mul's order, so it rounds like _mul.

The Euler-angle propagator deliberately keeps the angular position on the
integration grid (explicit Euler), so when a trajectory is driven into the
pitch singularity the flagged halt happens at a state actually visited, with
its conditioning recorded. Its steps run on Python floats as well.

The planar unwinding system keeps theta on the real line on purpose: the
controller u = -k theta - c omega lives on the covering space while the
configuration is a circle, which is exactly what makes it take the long way
around from theta = 2*pi - eps. Being linear, it is solved in closed form.
"""

from __future__ import annotations

import bisect
import cmath
import csv
import math
from itertools import accumulate, pairwise
from typing import NamedTuple

import numpy as np

from .algebra import _mul, _norm, _unit
from .checks import MAX_STEPS, SINGULARITY_THRESHOLD, reject, require_finite, require_unit
from .conversions import _from_axis_angle
from .errors import InvalidConfigError, NonFiniteInputError


class AttitudeState(NamedTuple):
    t: float
    q: np.ndarray  # unit quaternion, scalar first
    w_body: np.ndarray  # body rates [p, q, r], rad/s


class EulerState(NamedTuple):
    t: float
    phi: float
    theta: float
    psi: float
    conditioning: float


class EulerTrajectory(NamedTuple):
    states: list[EulerState]
    gimbal_locked: bool


class PlanarState(NamedTuple):
    t: float
    theta: float  # unwrapped angle, radians
    omega: float  # rad/s
    u: float  # control torque -k theta - c omega


class UnwindingSummary(NamedTuple):
    final_theta: float
    path_length: float  # integral of |omega| dt
    short_way: float  # min(theta0 mod 2pi, 2pi - theta0 mod 2pi)


class RateProfile:
    """Body angular velocity as a function of time over an interval.

    Wraps either a closed-form callable t -> [p, q, r] or sampled values
    with zero-order hold.
    """

    def __init__(self, func):
        self._func = func

    def __call__(self, t: float) -> np.ndarray:
        w = np.array(self._func(t), dtype=float)
        if w.shape != (3,):
            raise InvalidConfigError(f"rate profile must yield 3-vectors, got shape {w.shape}")
        if not all(map(math.isfinite, w.tolist())):
            raise NonFiniteInputError(f"rate profile non-finite at t={t}: {w}")
        return w

    @classmethod
    def constant(cls, w) -> "RateProfile":
        w = np.array(w, dtype=float)
        return cls(lambda t: w)

    @classmethod
    def from_samples(cls, times, rates) -> "RateProfile":
        """Zero-order hold over sample times; clamps outside the sampled span."""
        times = np.array(times, dtype=float)
        rates = np.array(rates, dtype=float)
        if times.ndim != 1 or rates.shape != (times.size, 3):
            raise InvalidConfigError("expected times (n,) and rates (n, 3)")
        if times.size == 0:
            raise InvalidConfigError("empty rate profile")
        reject(~np.isfinite(times), NonFiniteInputError, "non-finite sample time {}", times)
        reject(~np.isfinite(rates).all(axis=1), NonFiniteInputError, "non-finite sample rate {}", rates)
        if np.any(np.diff(times) <= 0):
            raise InvalidConfigError("sample times must be strictly increasing")
        starts = times.tolist()

        def hold(t: float) -> np.ndarray:
            return rates[max(0, bisect.bisect_right(starts, t) - 1)]

        return cls(hold)

    @classmethod
    def from_csv(cls, path) -> "RateProfile":
        """Load a profile CSV with header t,p,q,r (SI units, zero-order hold)."""
        samples = []
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.reader(f)
            if [c.strip() for c in next(reader, [])] != ["t", "p", "q", "r"]:
                raise InvalidConfigError(f"{path} line 1: expected CSV header 't,p,q,r'")
            for row in filter(None, reader):  # blank lines are skipped
                where = f"{path} line {reader.line_num}"
                if len(row) != 4:
                    raise InvalidConfigError(f"{where}: expected 4 values, got {len(row)}")
                samples.append([_parse_cell(cell, where) for cell in row])
        samples = np.array(samples).reshape(-1, 4)
        return cls.from_samples(samples[:, 0], samples[:, 1:])


def _parse_cell(cell: str, where: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise InvalidConfigError(f"{where}: cannot parse {cell!r} as a float") from None


def _grid(dt: float, t1: float, t0: float) -> np.ndarray:
    """The grid times t0 + k dt, k = 0..n, with n dt the nearest to t1 - t0."""
    if not (dt > 0.0 and math.isfinite(dt)):
        raise InvalidConfigError(f"dt must be positive, got {dt}")
    require_finite(InvalidConfigError, t0=t0, t1=t1)
    if not t1 > t0:
        raise InvalidConfigError(f"t1 = {t1} must exceed t0 = {t0}")
    n = (t1 - t0) / dt
    if not n <= MAX_STEPS:  # written so that an inf step count fails too
        raise InvalidConfigError(f"dt = {dt} and t1 = {t1} ask for {n:.3g} steps > MAX_STEPS = {MAX_STEPS}")
    return t0 + dt * np.arange(round(n) + 1)


def _rates(profile: RateProfile, ts: np.ndarray) -> np.ndarray:
    return np.fromiter(map(profile, ts.tolist()), np.dtype((float, 3)), ts.size)


def _hamilton(a, b):
    """_mul of two float 4-tuples, rounded alike: its terms in its order, summed from +0.0."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        0.0 + a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        0.0 + a1 * b0 + a0 * b1 + a2 * b3 - a3 * b2,
        0.0 + a2 * b0 + a0 * b2 + a3 * b1 - a1 * b3,
        0.0 + a3 * b0 + a0 * b3 + a1 * b2 - a2 * b1,
    )


def _exp(w: np.ndarray, dt: float) -> np.ndarray:
    """E(w dt) per row of w: the rotation by |w| dt about w, the identity where w = 0."""
    wn = _norm(w)
    return _from_axis_angle(w / np.where(wn > 0.0, wn, 1.0)[:, None], wn * dt)


def propagate_quaternion(
    q0, profile: RateProfile, dt: float, t1: float, method: str = "rk4", t0: float = 0.0
) -> list[AttitudeState]:
    """Integrate qdot = 1/2 q ∘ (0, w'(t)) on a fixed grid as q_{k+1} = q_k ∘ m_k.

    ``expmap`` steps by the exact rotation of the rate at each interval start.
    ``rk4`` keeps its name but takes the commutator-free fourth-order step CF4
    from the rates at the Gauss nodes t + (1/2 ∓ √3/6) dt, three profile samples
    per step as classic RK4 took. Its states 1…n are divided by their norms once,
    which equals renormalizing every step because the fold is linear in q.
    """
    if method not in ("rk4", "expmap"):
        raise InvalidConfigError(f"unknown method {method!r}")
    q0 = require_unit(q0)
    ts = _grid(dt, t1, t0)
    w = _rates(profile, ts)
    if method == "rk4":
        t, c = ts[:-1], math.sqrt(3.0) / 6.0
        w1, w2 = _rates(profile, t + (0.5 - c) * dt), _rates(profile, t + (0.5 + c) * dt)
        a1, a2 = 0.25 - c, 0.25 + c  # (3 ∓ 2√3) / 12
        m = _mul(_exp(a2 * w1 + a1 * w2, dt), _exp(a1 * w1 + a2 * w2, dt))
    else:
        m = _exp(w[:-1], dt)
    qs = accumulate(m.tolist(), _hamilton, initial=tuple(q0.tolist()))
    qs = np.fromiter(qs, np.dtype((float, 4)), ts.size)
    del m  # the increments are not kept alongside the states
    if method == "rk4":
        qs[1:] = _unit(qs[1:])
    return list(map(AttitudeState, ts.tolist(), qs, w))


def propagate_euler_321(
    e0, profile: RateProfile, dt: float, t1: float, t0: float = 0.0
) -> EulerTrajectory:
    """Integrate 321 Euler angles through the rate inversion.

    Steps with explicit Euler so rates are only ever evaluated at emitted
    states; when the inversion hits the pitch singularity the trajectory is
    flagged and halted at the last reachable state rather than crashing.
    Non-finite angles, given or reached by overflow, raise NonFiniteInputError.
    """
    e = np.asarray(e0, dtype=float)
    if e.shape != (3,):
        raise InvalidConfigError(f"expected Euler angle triple, got shape {e.shape}")
    if not np.isfinite(e).all():
        raise NonFiniteInputError(f"Euler angles must be finite, got {e.tolist()}")
    phi, theta, psi = e.tolist()
    cth = math.cos(theta)
    # No finite double has cos(theta) == 0: at the one nearest pi/2, 1/|cos| is ~1.6e16.
    states = [EulerState(t0, phi, theta, psi, 1.0 / abs(cth))]
    for t, t_next in pairwise(_grid(dt, t1, t0).tolist()):
        p, q, r = profile(t).tolist()
        if abs(cth) <= SINGULARITY_THRESHOLD:
            return EulerTrajectory(states, gimbal_locked=True)
        # Rows [1, sphi tth, cphi tth], [0, cphi, -sphi], [0, sphi/cth, cphi/cth] times w.
        # np.tan keeps each step equal to the array kernel's; math.tan rounds ~0.5 % of angles
        # differently.
        sphi, cphi = math.sin(phi), math.cos(phi)
        u = sphi * q + cphi * r
        phi += dt * (p + float(np.tan(theta)) * u)
        theta, psi = theta + dt * (cphi * q - sphi * r), psi + dt * (u / cth)
        if not (math.isfinite(phi) and math.isfinite(theta) and math.isfinite(psi)):
            raise NonFiniteInputError(f"Euler angles overflow at t={t_next}: {[phi, theta, psi]}")
        cth = math.cos(theta)
        states.append(EulerState(t_next, phi, theta, psi, 1.0 / abs(cth)))
    return EulerTrajectory(states, gimbal_locked=False)


def pitch_sweep_profile(pitch_rate: float = 0.5) -> RateProfile:
    """Constant pure-pitch body rate driving theta straight at +pi/2."""
    return RateProfile.constant(np.array([0.0, pitch_rate, 0.0]))


def pitch_sweep_dt(pitch_rate: float = 0.5, target_dt: float = 1e-3) -> float:
    """Step size near target_dt such that the sweep lands on theta = pi/2.

    Snapping the grid onto the singular pitch angle lets the gimbal-lock
    demo halt with the conditioning metric actually blown up (>1e8) instead
    of stepping over the singularity; a negative rate lands on -pi/2. A rate
    so small that no finite step count reaches the lock is an InvalidConfigError.
    """
    if not (pitch_rate != 0.0 and math.isfinite(pitch_rate)):
        raise InvalidConfigError(f"pitch_rate must be finite and nonzero, got {pitch_rate}")
    if not (target_dt > 0.0 and math.isfinite(target_dt)):
        raise InvalidConfigError(f"dt must be positive, got {target_dt}")
    rate_dt = abs(pitch_rate) * target_dt
    steps = (0.5 * math.pi) / rate_dt if rate_dt > 0.0 else math.inf
    if not math.isfinite(steps):
        raise InvalidConfigError(f"pitch_rate {pitch_rate} is too small to reach pi/2 at dt = {target_dt}")
    n = max(1, round(steps))
    return (0.5 * math.pi) / (abs(pitch_rate) * n)


def _planar_exact(theta0: float, omega0: float, k: float, c: float, t: np.ndarray):
    """exp(A t) x0 = e^{mu t} (cosh(beta t) I + sinh(beta t)/beta (A - mu I)) x0 as (theta, omega).

    mu = -c/2 and beta = sqrt(c^2/4 - k), imaginary when under-damped. Both terms are built
    from e^{(mu +- beta) t}, whose exponents have negative real part: nothing overflows or cancels.
    """
    mu = -0.5 * c
    beta = cmath.sqrt(0.25 * c * c - k)
    slow = np.exp((mu + beta) * t)
    e_cosh = (0.5 * (slow + np.exp((mu - beta) * t))).real
    if beta == 0:
        e_sinh = t * np.exp(mu * t)
    else:
        e_sinh = (slow * -np.expm1(-2.0 * beta * t) / (2.0 * beta)).real
    theta = e_cosh * theta0 + e_sinh * (-mu * theta0 + omega0)
    return theta, e_cosh * omega0 - e_sinh * (k * theta0 - mu * omega0)


def simulate_unwinding(
    theta0: float,
    omega0: float,
    k: float,
    c: float,
    dt: float,
    t1: float,
) -> tuple[list[PlanarState], UnwindingSummary]:
    """Solve thetadot = omega, omegadot = -k theta - c omega exactly at each grid time.

    The summary reports the path length ∫|omega| dt (trapezoid) next to the
    short-way distance on the circle, the gap between the two being the
    unwinding effect.
    """
    require_finite(NonFiniteInputError, theta0=theta0, omega0=omega0, k=k, c=c)
    if not (k > 0.0 and c > 0.0):
        raise InvalidConfigError(f"gains must be positive, got k={k}, c={c}")
    ts = _grid(dt, t1, 0.0)
    theta, omega = _planar_exact(theta0, omega0, k, c, ts)
    u = (-k * theta - c * omega).tolist()
    states = list(map(PlanarState, ts.tolist(), theta.tolist(), omega.tolist(), u))

    speed = np.abs(omega)
    wrapped = theta0 % math.tau
    summary = UnwindingSummary(
        final_theta=states[-1].theta,
        path_length=0.5 * dt * float((speed[1:] + speed[:-1]).sum()),
        short_way=min(wrapped, math.tau - wrapped),
    )
    return states, summary


def critically_damped_reference(theta0: float, t) -> np.ndarray:
    """Closed-form solution theta0 (1 + t) e^{-t} for k = 1, c = 2, omega0 = 0.

    An independent oracle for simulate_unwinding, written out by hand rather
    than taken from _planar_exact; the tests and demos/demo_unwinding.py check
    the solver against it.
    """
    t = np.asarray(t, dtype=float)
    return theta0 * (1.0 + t) * np.exp(-t)
