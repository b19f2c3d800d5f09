"""Quaternion kinematics: rates, accelerations, and Euler-rate mappings.

Angular velocity appears in two frames: body rates w' (components p, q, r in
the rotating frame) and world rates w (components in the fixed frame).  The
core relations are

    qdot = 1/2 q ∘ (0, w')  =  1/2 (0, w) ∘ q  =  1/2 G' w'  =  1/2 E' w

with the 3x4 matrices E, G linear in the quaternion components, satisfying
E E' = G G' = I and E G' = R(q).  (' denotes transpose.)  They are the
lower blocks of the product matrices: G(q) = Q(q)'[1:], E(q) = Qbar(q)'[1:].

Every function takes stacked inputs: ``(..., 4)`` quaternions and rates,
``(..., 3)`` angular velocities, and angles that broadcast against them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .algebra import _conj, _left, _mul, _pure, _right
from .checks import (
    SINGULARITY_THRESHOLD,
    TRAJECTORY_TOLERANCE,
    dot,
    finite,
    reject,
    require_tangent_rate,
    require_unit,
)
from .conversions import _angle, _matrix
from .errors import GimbalLockError, InconsistentTrajectoryError


class EGMatrices(NamedTuple):
    E: np.ndarray  # (..., 3, 4), world-frame rate map: w = 2 E qdot
    G: np.ndarray  # (..., 3, 4), body-frame rate map: w' = 2 G qdot


def _g(q):
    return np.swapaxes(_left(q), -1, -2)[..., 1:, :]


def eg_matrices(q) -> EGMatrices:
    """The E and G matrices for unit quaternions."""
    q = require_unit(q)
    return EGMatrices(np.swapaxes(_right(q), -1, -2)[..., 1:, :], _g(q))


def qdot_from_body_rates(q, w_body) -> np.ndarray:
    """Quaternion rate 1/2 q ∘ (0, w') for body-frame angular velocity."""
    return 0.5 * _mul(require_unit(q), _pure(finite(w_body, (3,), "body rate")))


def qdot_from_world_rates(q, w_world) -> np.ndarray:
    """Quaternion rate 1/2 (0, w) ∘ q for world-frame angular velocity."""
    return 0.5 * _mul(_pure(finite(w_world, (3,), "world rate")), require_unit(q))


def body_rates_from_qdot(q, qd) -> np.ndarray:
    """Body angular velocity w' = vector part of 2 conj(q) ∘ qdot."""
    q = require_unit(q)
    qd = require_tangent_rate(q, qd)
    return (2.0 * _mul(_conj(q), qd))[..., 1:]


def world_rates_from_qdot(q, qd) -> np.ndarray:
    """World angular velocity w = vector part of 2 qdot ∘ conj(q)."""
    q = require_unit(q)
    qd = require_tangent_rate(q, qd)
    return (2.0 * _mul(qd, _conj(q)))[..., 1:]


def body_accel_from_q(q, qd, qdd) -> np.ndarray:
    """Body angular acceleration wdot' = 2 G qdd.

    For a unit-norm trajectory, conj(qd) ∘ qd = (|qd|^2, 0), so the scalar
    part of 2 conj(q) ∘ qdd must equal -2 |qd|^2; violations beyond
    TRAJECTORY_TOLERANCE mean (q, qd, qdd) are not samples of one trajectory.
    """
    q = require_unit(q)
    qd = finite(qd, (4,), "quaternion rate")
    qdd = finite(qdd, (4,), "quaternion acceleration")
    residual = (2.0 * _mul(_conj(q), qdd))[..., 0] + 2.0 * dot(qd, qd)
    message = "scalar(2 conj(q)∘qdd) + 2|qd|^2 = {:.3e}"
    reject(np.abs(residual) > TRAJECTORY_TOLERANCE, InconsistentTrajectoryError, message, residual)
    return 2.0 * (_g(q) @ qdd[..., None])[..., 0]


def rotation_matrix_rate(q, qd) -> tuple[np.ndarray, np.ndarray]:
    """(Rdot, Omega_body) with Rdot = R Omega' and Omega' = 2 G Gdot^T.

    Omega_body is the skew matrix of the body angular velocity.
    """
    q = require_unit(q)
    qd = require_tangent_rate(q, qd)
    # G is linear in its argument, so Gdot = G(qdot).
    omega = 2.0 * (_g(q) @ np.swapaxes(_g(qd), -1, -2))
    return _matrix(q) @ omega, omega


# --- 321 (yaw-pitch-roll) Euler rates ---------------------------------------


def euler_321_rate_matrix(phi, theta) -> np.ndarray:
    """Matrices mapping 321 Euler rates [phidot, thetadot, psidot] to body rates.

    Their determinant is cos(theta); they are singular at theta = ±pi/2.
    """
    phi, theta = _angle(phi), _angle(theta)
    sphi, cphi = np.sin(phi), np.cos(phi)
    sth, cth = np.sin(theta), np.cos(theta)
    m = np.zeros(np.broadcast_shapes(np.shape(phi), np.shape(theta)) + (3, 3))
    m[..., 0, 0] = 1.0
    m[..., 0, 2] = -sth
    m[..., 1, 1] = cphi
    m[..., 1, 2] = sphi * cth
    m[..., 2, 1] = -sphi
    m[..., 2, 2] = cphi * cth
    return m


def body_rates_from_euler_321(phi, theta, euler_rates) -> np.ndarray:
    """Body rates [p, q, r] from 321 Euler angle rates (total forward map)."""
    er = finite(euler_rates, (3,), "Euler rates")
    return (euler_321_rate_matrix(phi, theta) @ er[..., None])[..., 0]


def _euler_rates_321(phi, theta, w):
    cth = np.cos(theta)
    bad = abs(cth) <= SINGULARITY_THRESHOLD
    if np.count_nonzero(bad):
        raise GimbalLockError(float(np.ravel(cth)[np.argmax(bad)]))
    sphi, cphi = np.sin(phi), np.cos(phi)
    p, q, r = w[..., 0], w[..., 1], w[..., 2]
    # Rows [1, sphi tth, cphi tth], [0, cphi, -sphi], [0, sphi/cth, cphi/cth] times w.
    u = sphi * q + cphi * r
    phidot = p + np.tan(theta) * u
    rates = np.empty(phidot.shape + (3,))
    rates[..., 0] = phidot
    rates[..., 1] = cphi * q - sphi * r
    rates[..., 2] = u / cth
    return rates


def euler_rates_from_body_321(phi, theta, w_body) -> np.ndarray:
    """321 Euler rates from body rates; GimbalLockError where |cos theta| <= SINGULARITY_THRESHOLD."""
    return _euler_rates_321(_angle(phi), _angle(theta), finite(w_body, (3,), "body rate"))


def _conditioning(theta):
    # No finite double has cos(theta) == 0: at the one nearest pi/2 this is ~1.6e16.
    return 1.0 / abs(np.cos(theta))


def euler_rate_conditioning(theta):
    """Growth factor 1/|cos theta| of the rate-inversion entries.

    It grows without bound toward theta = ±pi/2.
    """
    return _conditioning(_angle(theta))
