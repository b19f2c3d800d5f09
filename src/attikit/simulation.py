"""Attitude propagation and the gimbal-lock / unwinding demonstrations.

Quaternion propagation offers two integrators: classic RK4 with per-step
renormalization, and the exponential-map step

    q_{k+1} = q_k ∘ (cos(|w| dt / 2), what sin(|w| dt / 2))

which is exact for piecewise-constant body rates and serves as the oracle
for the RK4 path.

The Euler-angle propagator deliberately keeps the angular position on the
integration grid (explicit Euler), so when a trajectory is driven into the
pitch singularity the flagged halt happens at a state actually visited, with
its conditioning recorded.

The planar unwinding system integrates theta on the real line on purpose:
the controller u = -k theta - c omega lives on the covering space while the
configuration is a circle, which is exactly what makes it take the long way
around from theta = 2*pi - eps.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .algebra import _mul, _pure, _unit
from .checks import SINGULARITY_THRESHOLD, require_unit
from .conversions import _from_axis_angle
from .errors import (
    GimbalLockError,
    InvalidConfigError,
    NonFiniteInputError,
)
from .kinematics import _conditioning, _euler_rates_321

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class AttitudeState:
    t: float
    q: np.ndarray  # unit quaternion, scalar first
    w_body: np.ndarray  # body rates [p, q, r], rad/s


@dataclass(frozen=True)
class EulerState:
    t: float
    phi: float
    theta: float
    psi: float
    conditioning: float


@dataclass(frozen=True)
class EulerTrajectory:
    states: list[EulerState]
    gimbal_locked: bool


@dataclass(frozen=True)
class PlanarState:
    t: float
    theta: float  # unwrapped angle, radians
    omega: float  # rad/s
    u: float  # control torque -k theta - c omega


@dataclass(frozen=True)
class UnwindingSummary:
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
        w = np.asarray(self._func(t), dtype=float)
        if w.shape != (3,):
            raise ValueError(f"rate profile must yield 3-vectors, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise NonFiniteInputError(f"rate profile non-finite at t={t}: {w}")
        return w

    @classmethod
    def constant(cls, w) -> "RateProfile":
        w = np.asarray(w, dtype=float).copy()
        return cls(lambda t: w)

    @classmethod
    def from_samples(cls, times, rates) -> "RateProfile":
        """Zero-order hold over sample times; clamps outside the sampled span."""
        times = np.asarray(times, dtype=float)
        rates = np.asarray(rates, dtype=float)
        if times.ndim != 1 or rates.shape != (times.size, 3):
            raise ValueError("expected times (n,) and rates (n, 3)")
        if times.size == 0:
            raise ValueError("empty rate profile")
        if np.any(np.diff(times) <= 0):
            raise ValueError("sample times must be strictly increasing")

        def hold(t: float) -> np.ndarray:
            i = int(np.searchsorted(times, t, side="right")) - 1
            return rates[max(0, min(i, times.size - 1))]

        return cls(hold)

    @classmethod
    def from_csv(cls, path) -> "RateProfile":
        """Load a profile CSV with header t,p,q,r (SI units, zero-order hold)."""
        times = []
        rates = []
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f)
            if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != [
                "t",
                "p",
                "q",
                "r",
            ]:
                raise ValueError(f"{path}: expected CSV header 't,p,q,r'")
            for row in reader:
                times.append(float(row["t"]))
                rates.append([float(row["p"]), float(row["q"]), float(row["r"])])
        return cls.from_samples(np.array(times), np.array(rates))


def _check_grid(dt: float, t1: float, t0: float) -> int:
    if not (dt > 0.0 and math.isfinite(dt)):
        raise InvalidConfigError(f"dt must be positive, got {dt}")
    if not t1 > t0:
        raise InvalidConfigError(f"t1 = {t1} must exceed t0 = {t0}")
    return int(round((t1 - t0) / dt))


def propagate_quaternion(
    q0, profile: RateProfile, dt: float, t1: float, method: str = "rk4", t0: float = 0.0
) -> list[AttitudeState]:
    """Integrate qdot = 1/2 q ∘ (0, w'(t)) on a fixed grid.

    ``rk4`` renormalizes after every step; ``expmap`` composes exact
    axis-angle steps using the rate at each interval start (exact for
    piecewise-constant profiles aligned with the grid).
    """
    q = require_unit(q0).copy()
    n = _check_grid(dt, t1, t0)
    states = [AttitudeState(t0, q.copy(), profile(t0))]
    t = t0
    for k in range(n):
        if method == "rk4":
            # The end-of-step rate is sampled just inside [t, t+dt) so a
            # zero-order-hold switch aligned with the grid belongs entirely
            # to the next step (negligible for smooth profiles).
            t_end = float(np.nextafter(t + dt, t))
            k1 = 0.5 * _mul(q, _pure(profile(t)))
            k2 = 0.5 * _mul(q + 0.5 * dt * k1, _pure(profile(t + 0.5 * dt)))
            k3 = 0.5 * _mul(q + 0.5 * dt * k2, _pure(profile(t + 0.5 * dt)))
            k4 = 0.5 * _mul(q + dt * k3, _pure(profile(t_end)))
            q = _unit(q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        elif method == "expmap":
            w = profile(t)
            wn = float(np.linalg.norm(w))
            if wn > 0.0:
                q = _mul(q, _from_axis_angle(w / wn, wn * dt))
        else:
            raise InvalidConfigError(f"unknown method {method!r}")
        t = t0 + (k + 1) * dt
        states.append(AttitudeState(t, q.copy(), profile(t)))
    return states


def propagate_euler_321(
    e0, profile: RateProfile, dt: float, t1: float, t0: float = 0.0
) -> EulerTrajectory:
    """Integrate 321 Euler angles through the rate inversion.

    Steps with explicit Euler so rates are only ever evaluated at emitted
    states; when the inversion hits the pitch singularity the trajectory is
    flagged and halted at the last reachable state rather than crashing.
    """
    e = np.asarray(e0, dtype=float).copy()
    if e.shape != (3,):
        raise ValueError(f"expected Euler angle triple, got shape {e.shape}")
    n = _check_grid(dt, t1, t0)
    states = [EulerState(t0, e[0], e[1], e[2], _conditioning(e[1]))]
    t = t0
    for k in range(n):
        try:
            rates = _euler_rates_321(e[0], e[1], profile(t), SINGULARITY_THRESHOLD)
        except GimbalLockError:
            return EulerTrajectory(states, gimbal_locked=True)
        e = e + dt * rates
        t = t0 + (k + 1) * dt
        states.append(EulerState(t, e[0], e[1], e[2], _conditioning(e[1])))
    return EulerTrajectory(states, gimbal_locked=False)


def pitch_sweep_profile(pitch_rate: float = 0.5) -> RateProfile:
    """Constant pure-pitch body rate driving theta straight at +pi/2."""
    return RateProfile.constant(np.array([0.0, pitch_rate, 0.0]))


def pitch_sweep_dt(pitch_rate: float = 0.5, target_dt: float = 1e-3) -> float:
    """Step size near target_dt such that the sweep lands on theta = pi/2.

    Snapping the grid onto the singular pitch angle lets the gimbal-lock
    demo halt with the conditioning metric actually blown up (>1e8) instead
    of stepping over the singularity.
    """
    n = max(1, round((0.5 * math.pi) / (pitch_rate * target_dt)))
    return (0.5 * math.pi) / (pitch_rate * n)


def simulate_unwinding(
    theta0: float,
    omega0: float,
    k: float,
    c: float,
    dt: float,
    t1: float,
) -> tuple[list[PlanarState], UnwindingSummary]:
    """Integrate the planar system thetadot = omega, omegadot = -k theta - c omega.

    The summary reports the total path length ∫|omega| dt next to the
    short-way distance on the circle, the gap between the two being the
    unwinding effect.
    """
    if not (k > 0.0 and c > 0.0):
        raise InvalidConfigError(f"gains must be positive, got k={k}, c={c}")
    n = _check_grid(dt, t1, 0.0)

    def u_of(th: float, om: float) -> float:
        return -k * th - c * om

    theta, omega = float(theta0), float(omega0)
    states = [PlanarState(0.0, theta, omega, u_of(theta, omega))]
    path = 0.0
    for i in range(n):
        # RK4 on the linear state [theta, omega].
        def f(th, om):
            return om, u_of(th, om)

        k1 = f(theta, omega)
        k2 = f(theta + 0.5 * dt * k1[0], omega + 0.5 * dt * k1[1])
        k3 = f(theta + 0.5 * dt * k2[0], omega + 0.5 * dt * k2[1])
        k4 = f(theta + dt * k3[0], omega + dt * k3[1])
        theta_next = theta + (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        omega_next = omega + (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        path += 0.5 * dt * (abs(omega) + abs(omega_next))
        theta, omega = theta_next, omega_next
        states.append(PlanarState((i + 1) * dt, theta, omega, u_of(theta, omega)))

    wrapped = math.fmod(theta0, TWO_PI)
    if wrapped < 0.0:
        wrapped += TWO_PI
    summary = UnwindingSummary(
        final_theta=theta,
        path_length=path,
        short_way=min(wrapped, TWO_PI - wrapped),
    )
    return states, summary


def critically_damped_reference(theta0: float, t) -> np.ndarray:
    """Closed-form solution theta0 (1 + t) e^{-t} for k = 1, c = 2, omega0 = 0."""
    t = np.asarray(t, dtype=float)
    return theta0 * (1.0 + t) * np.exp(-t)
