"""Seeded inputs for the three workloads.

Everything here is plain NumPy: the program under test only ever sees the
arrays, argument strings and profile CSV built from these values. Every
time grid uses a binary-exact step and span, so rejecting steps that do not
divide the span cannot change the work done.
"""

from __future__ import annotations

import math

import numpy as np

from reference import quat_from_euler_xyz, quat_mul, rotation_matrix

DT = 2.0**-10  # binary-exact step shared by every grid

# batch
BATCH_ROWS = 4096
CHUNK_ROWS = 256  # rows per timed operation
EDGE_SHARE = 0.125  # split evenly over the three edge kinds below
EDGE_KINDS = ("q0_zero", "half_turn_tie", "pitch_near_pole")
TIE_AXES = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]], dtype=float)

# propagate
PROP_T1 = 0.5  # 512 steps per quaternion propagation, so a run holds ~100 rounds
HOLD = 2.0**-4  # zero-order-hold sample spacing, a multiple of DT
UNWIND = {"theta0": 2.0 * math.pi - 0.1, "omega0": 0.0, "k": 1.0, "c": 2.0, "t1": 4.0}
SWEEP_LOCK_STEPS = 1024  # steps to the lock whatever the seeded pitch rate, so work is seed-free
SWEEP_EXTRA_STEPS = 64  # grid runs past the lock so the halt is the program's

# cli
CLI_RK4_T1 = 4.0
CLI_EXPMAP_T1 = 8.0
CLI_UNWIND_T1 = 16.0


def _unit(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def batch_inputs(seed: int) -> dict:
    """Unit quaternions q, p, vectors v, unit axes and angles; a fixed share of q are edge rows."""
    rng = np.random.default_rng([seed, 1])
    n = BATCH_ROWS
    q = _unit(rng.normal(size=(n, 4)))
    kind = np.full(n, -1, dtype=np.int8)
    n_edge = int(round(EDGE_SHARE * n))
    rows = rng.permutation(n)[:n_edge]
    for k, part in enumerate(np.array_split(rows, len(EDGE_KINDS))):
        kind[part] = k
        m = part.size
        if EDGE_KINDS[k] == "q0_zero":
            q[part] = np.column_stack([np.zeros(m), _unit(rng.normal(size=(m, 3)))])
        elif EDGE_KINDS[k] == "half_turn_tie":
            axes = TIE_AXES[rng.integers(len(TIE_AXES), size=m)]
            axes *= rng.choice([-1.0, 1.0], size=(m, 3))
            q[part] = np.column_stack([np.zeros(m), _unit(axes)])
        else:
            theta = rng.choice([-0.5, 0.5], size=m) * math.pi + rng.uniform(-1e-7, 1e-7, size=m)
            phi, psi = rng.uniform(-math.pi, math.pi, size=(2, m))
            q[part] = quat_from_euler_xyz(phi, theta, psi)
    return {
        "q": q,
        "p": _unit(rng.normal(size=(n, 4))),
        "v": rng.normal(size=(n, 3)),
        "axis": _unit(rng.normal(size=(n, 3))),
        "angle": rng.uniform(-math.pi, math.pi, size=n),
        "kind": kind,
    }


def _rate(rng, lo=0.5, hi=2.0):
    return _unit(rng.normal(size=3)) * rng.uniform(lo, hi)


def sweep_grid(pitch_rate: float) -> tuple[float, float, int]:
    """(dt, t1, lock step) for a pitch sweep whose grid lands on theta = pi/2."""
    n_lock = SWEEP_LOCK_STEPS
    dt = (0.5 * math.pi) / (pitch_rate * n_lock)
    return dt, dt * (n_lock + SWEEP_EXTRA_STEPS), n_lock


def propagate_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    n_hold = int(PROP_T1 / HOLD)
    return {
        "q0": _unit(rng.normal(size=4)),
        "w": _rate(rng),
        "hold_t": np.arange(n_hold) * HOLD,
        "hold_w": rng.normal(scale=0.8, size=(n_hold, 3)),
        "pitch_rate": float(rng.uniform(0.4, 0.6)),
    }


def _fmt(values) -> str:
    return ",".join(repr(float(x)) for x in np.ravel(values))


def cli_inputs(seed: int) -> dict:
    """Argument strings for every short and long call, plus what each must print."""
    rng = np.random.default_rng([seed, 3])
    phi, psi = rng.uniform(-math.pi, math.pi, size=2)
    theta = float(rng.uniform(-1.2, 1.2))
    q = quat_from_euler_xyz(phi, theta, psi)
    if q[0] < 0.0:
        q = -q
    half = math.atan2(np.linalg.norm(q[1:]), q[0])
    reprs = {
        "quat": _fmt(q),
        "matrix": _fmt(rotation_matrix(q)),
        "axis-angle": _fmt([*(q[1:] / np.linalg.norm(q[1:])), 2.0 * half]),
        "euler-xyz": _fmt([phi, theta, psi]),
        "jpl": _fmt([q[1], q[2], q[3], q[0]]),
    }
    pert = _unit(rng.normal(size=4))
    vec = rng.normal(size=3)
    r = rotation_matrix(q)
    short = []
    for src in reprs:
        for dst in reprs:
            args = ["convert", "--from", src, "--to", dst, "--value", reprs[src]]
            short.append((args, ("rotation", dst, r)))
    for frame, expect in (("local", quat_mul(q, pert)), ("global", quat_mul(pert, q))):
        args = ["compose", "--base", _fmt(q), "--perturbation", _fmt(pert), "--frame", frame]
        short.append((args, ("quat", expect)))
    for direction, expect in (("local-to-global", r @ vec), ("global-to-local", r.T @ vec)):
        args = ["rotate", "--quat", _fmt(q), "--vec", _fmt(vec), "--direction", direction]
        short.append((args, ("vec", expect)))

    q0 = _unit(rng.normal(size=4))
    w = _rate(rng)
    n_hold = int(CLI_EXPMAP_T1 / HOLD)
    profile_t = np.arange(n_hold) * HOLD
    profile_w = rng.normal(scale=0.8, size=(n_hold, 3))
    pitch_rate = float(rng.uniform(0.45, 0.55))
    dt = repr(DT)
    long = {
        "integrate-rk4": ["integrate", "--q0", _fmt(q0), "--rate", _fmt(w), "--dt", dt,
                          "--t1", repr(CLI_RK4_T1), "--method", "rk4"],
        "integrate-expmap": ["integrate", "--q0", _fmt(q0), "--profile", "{profile}", "--dt", dt,
                             "--t1", repr(CLI_EXPMAP_T1), "--method", "expmap"],
        "demo-unwinding": ["demo-unwinding", "--dt", dt, "--t1", repr(CLI_UNWIND_T1)],
        "demo-gimbal-lock": ["demo-gimbal-lock", "--pitch-rate", repr(pitch_rate), "--dt", dt],
    }
    profile_csv = "t,p,q,r\n" + "".join(
        f"{_fmt([t, *wk])}\n" for t, wk in zip(profile_t, profile_w)
    )
    return {
        "short": short,
        "long": long,
        "profile_csv": profile_csv,
        "q0": q0,
        "w": w,
        "profile_t": profile_t,
        "profile_w": profile_w,
        "pitch_rate": pitch_rate,
    }
