"""Independent references the benchmark checks the program's outputs against.

Closed forms are written here in NumPy, separately from attikit. The batch
oracle is ``scipy.spatial.transform.Rotation`` (scalar-first), imported only
when checking so that it never counts towards the measured process memory.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-12  # pure arithmetic on unit quaternions
TOL_ROUND_TRIP = 1e-9  # extraction round trips, propagation over 1e4 steps
TOL_GIMBAL = 2e-6  # a degenerate Euler extraction snaps theta by up to 1e-6 rad
TOL_PRINTED = 1e-9  # the CLI prints 12 decimal places


def quat_mul(a, b):
    a0, a1, a2, a3 = np.moveaxis(np.asarray(a, dtype=float), -1, 0)
    b0, b1, b2, b3 = np.moveaxis(np.asarray(b, dtype=float), -1, 0)
    return np.stack(
        [
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a1 * b0 + a0 * b1 + a2 * b3 - a3 * b2,
            a2 * b0 + a0 * b2 + a3 * b1 - a1 * b3,
            a3 * b0 + a0 * b3 + a1 * b2 - a2 * b1,
        ],
        axis=-1,
    )


def rotation_matrix(q):
    q0, q1, q2, q3 = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    rows = [
        [q0 * q0 + q1 * q1 - q2 * q2 - q3 * q3, 2 * (q1 * q2 - q0 * q3), 2 * (q0 * q2 + q1 * q3)],
        [2 * (q1 * q2 + q0 * q3), q0 * q0 - q1 * q1 + q2 * q2 - q3 * q3, 2 * (q2 * q3 - q0 * q1)],
        [2 * (q1 * q3 - q0 * q2), 2 * (q0 * q1 + q2 * q3), q0 * q0 - q1 * q1 - q2 * q2 + q3 * q3],
    ]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def axis_angle_quat(axis, angle):
    half = 0.5 * np.asarray(angle, dtype=float)
    return np.concatenate([np.cos(half)[..., None], np.sin(half)[..., None] * axis], axis=-1)


def rotvec_quat(w):
    """exp of the rotation vector w: (cos |w|/2, w/|w| sin |w|/2), batched."""
    w = np.asarray(w, dtype=float)
    n = np.linalg.norm(w, axis=-1)
    safe = np.where(n > 0.0, n, 1.0)
    return axis_angle_quat(w / safe[..., None], n)


def quat_from_euler_xyz(phi, theta, psi):
    """q_x(phi) ∘ q_y(theta) ∘ q_z(psi), batched."""
    phi, theta, psi = (np.asarray(a, dtype=float) for a in (phi, theta, psi))
    ex, ey, ez = np.eye(3)
    qx, qy, qz = axis_angle_quat(ex, phi), axis_angle_quat(ey, theta), axis_angle_quat(ez, psi)
    return quat_mul(qx, quat_mul(qy, qz))


def euler_xyz_matrix(phi, theta, psi):
    return rotation_matrix(quat_from_euler_xyz(phi, theta, psi))


def _near_up_to_sign(a, b, tol):
    d = np.minimum(np.abs(a - b).max(axis=-1), np.abs(a + b).max(axis=-1))
    return d <= tol


def _canonical(q):
    return q[:, 0] >= 0.0


def _max_abs(a, axes=(-1,)):
    return np.abs(a).max(axis=axes)


# --- batch -------------------------------------------------------------------


def check_batch(inp: dict, out: dict, double_cover: np.ndarray) -> dict:
    """Per-row pass/fail of every chain output; returns {check: bool array (N,)}.

    ``out`` maps each chain function to its (N, width) flattened outputs,
    NaN where a call raised. ``double_cover`` holds the per-row result of the
    exact R(q) == R(-q) and rotate(q) == rotate(-q) identities.
    """
    from scipy.spatial.transform import Rotation

    q, p, v, axis, angle = (inp[k] for k in ("q", "p", "v", "axis", "angle"))
    n = q.shape[0]
    rq = Rotation.from_quat(q, scalar_first=True)
    rp = Rotation.from_quat(p, scalar_first=True)
    mq = rq.as_matrix()
    vscale = 1.0 + np.linalg.norm(v, axis=1)
    checks = {}

    qm = out["quat_mul"]
    checks["quat_mul"] = (_max_abs(qm - quat_mul(q, p)) <= TOL) & _near_up_to_sign(
        qm, (rq * rp).as_quat(scalar_first=True), TOL
    )
    checks["rotate_vector"] = _max_abs(out["rotate_vector"] - rq.apply(v)) <= TOL * vscale
    checks["rotate_vector_inverse"] = (
        _max_abs(out["rotate_vector_inverse"] - rq.apply(v, inverse=True)) <= TOL * vscale
    )
    checks["to_rotation_matrix"] = _max_abs(out["to_rotation_matrix"] - mq.reshape(n, 9)) <= TOL
    fr = out["from_rotation_matrix"]
    checks["from_rotation_matrix"] = _near_up_to_sign(fr, q, TOL_ROUND_TRIP) & _canonical(fr)

    phi, theta, psi, degenerate = out["quat_to_euler_xyz"].T
    m_euler = euler_xyz_matrix(phi, theta, psi)
    err = _max_abs(m_euler - mq, axes=(-2, -1))
    flagged = degenerate == 1.0
    pole = np.abs(np.abs(theta) - 0.5 * math.pi) == 0.0
    ok_regular = (degenerate == 0.0) & (err <= TOL_ROUND_TRIP) & (np.abs(theta) <= 0.5 * math.pi)
    ok_degenerate = flagged & pole & (psi == 0.0) & (err <= TOL_GIMBAL)
    euler_ok = np.where(flagged, ok_degenerate, ok_regular)
    far = np.abs(np.cos(theta)) > 1e-3
    ref = rq[far].as_euler("XYZ")
    wrap = np.angle(np.exp(1j * (out["quat_to_euler_xyz"][far, :3] - ref)))
    euler_ok[far] &= _max_abs(wrap) <= TOL_ROUND_TRIP
    near_pole = inp["kind"] == 2  # generated within 1e-7 rad of theta = ±pi/2
    euler_ok[near_pole] &= flagged[near_pole]
    checks["quat_to_euler_xyz"] = euler_ok

    fa = out["from_axis_angle"]
    rotvec_ref = Rotation.from_rotvec(axis * angle[:, None]).as_quat(scalar_first=True)
    checks["from_axis_angle"] = (_max_abs(fa - axis_angle_quat(axis, angle)) <= TOL) & (
        _near_up_to_sign(fa, rotvec_ref, TOL)
    )
    ta_axis, ta_angle = out["to_axis_angle"][:, :3], out["to_axis_angle"][:, 3]
    m_aa = rotation_matrix(axis_angle_quat(ta_axis, ta_angle))
    checks["to_axis_angle"] = (
        (_max_abs(m_aa - mq, axes=(-2, -1)) <= TOL_ROUND_TRIP)
        & (np.abs(np.linalg.norm(ta_axis, axis=1) - 1.0) <= TOL)
        & (ta_angle > -math.pi)
        & (ta_angle <= math.pi)
    )
    eq = out["error_quaternion"]
    checks["error_quaternion"] = _near_up_to_sign(
        eq, (rp.inv() * rq).as_quat(scalar_first=True), TOL
    ) & _canonical(eq)
    e = out["eg_matrices"][:, :12].reshape(n, 3, 4)
    g = out["eg_matrices"][:, 12:].reshape(n, 3, 4)
    eye = np.eye(3)
    checks["eg_matrices"] = (
        (_max_abs(e @ e.transpose(0, 2, 1) - eye, axes=(-2, -1)) <= TOL)
        & (_max_abs(g @ g.transpose(0, 2, 1) - eye, axes=(-2, -1)) <= TOL)
        & (_max_abs(e @ g.transpose(0, 2, 1) - mq, axes=(-2, -1)) <= TOL)
    )
    checks["double_cover"] = double_cover
    return checks


# --- propagate ---------------------------------------------------------------


def constant_rate_quats(q0, w, t):
    """q0 ∘ exp(w t / 2): the exact solution for a constant body rate."""
    return quat_mul(q0, rotvec_quat(np.outer(t, w)))


def held_rate_quats(q0, hold_t, hold_w, t):
    """Exact solution for a zero-order-hold body rate switching at hold_t."""
    t = np.asarray(t, dtype=float)
    idx = np.clip(np.searchsorted(hold_t, t, side="right") - 1, 0, hold_t.size - 1)
    starts = [np.asarray(q0, dtype=float)]
    for i in range(hold_t.size - 1):
        starts.append(quat_mul(starts[-1], rotvec_quat(hold_w[i] * (hold_t[i + 1] - hold_t[i]))))
    starts = np.array(starts)
    return quat_mul(starts[idx], rotvec_quat(hold_w[idx] * (t - hold_t[idx])[:, None]))


def critically_damped(theta0, t):
    """theta(t), omega(t) of thetaddot = -theta - 2 thetadot with omega(0) = 0."""
    t = np.asarray(t, dtype=float)
    return theta0 * (1.0 + t) * np.exp(-t), -theta0 * t * np.exp(-t)
