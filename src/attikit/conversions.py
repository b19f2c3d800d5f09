"""Conversions among attitude representations, over stacked inputs.

Covers unit quaternion <-> rotation matrix, axis-angle and XYZ Euler angles,
the Rodrigues rotation formula as an independent cross-check, and the
Hamilton <-> JPL convention bridge.  Quaternions are ``(..., 4)``, vectors
and axes ``(..., 3)``, matrices ``(..., 3, 3)``, and angles broadcast
against them.

The primary sandwich convention is Hamilton local-to-global,
``x_G = q ∘ x_L ∘ conj(q)``.  The inverse (global-to-local) direction is a
separate named operation so the convention is never flipped silently.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .algebra import _canonical, _conj, _mul, _unit
from .checks import (
    GIMBAL_EPSILON,
    dot,
    finite,
    require_rotation_matrix,
    require_unit,
    require_unit_axis,
)
from .errors import InvalidConfigError

_X, _Y, _Z = np.eye(3)
_NEXT, _PREV = [1, 2, 0], [2, 0, 1]

# Largest-pivot extraction (Markley 2008).  Row i of _PIVOT_DIAG_SIGN gives the
# diagonal signs of 4 q_i^2 (i >= 1); row i of _PIVOT_OFF picks 4 q_i q_j from the
# off-diagonal combinations in _from_matrix, -1 marking q_i itself.
_PIVOT_DIAG_SIGN = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1.0]])
_PIVOT_OFF = np.array([[-1, 0, 1, 2], [0, -1, 3, 4], [1, 3, -1, 5], [2, 4, 5, -1]])
_JPL_CONJ_SIGN = np.array([-1.0, -1.0, -1.0, 1.0])


class AxisAngle(NamedTuple):
    axis: np.ndarray  # (..., 3) unit vectors
    angle: float | np.ndarray  # radians, in (-pi, pi]


class EulerAnglesXYZ(NamedTuple):
    """XYZ-sequence Euler angles: phi about X, theta about new Y, psi about new Z.

    ``degenerate`` marks a gimbal-lock extraction where only phi + psi (or
    phi - psi) is observable; by policy psi is set to 0 and the full twist
    folded into phi.  Fields are arrays when extracted from a stack.
    """

    phi: float | np.ndarray
    theta: float | np.ndarray
    psi: float | np.ndarray
    degenerate: bool | np.ndarray = False


def _angle(x):
    return finite(x, (), "angle")


def _cross(a, b):
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


def _from_axis_angle(axis, angle):
    half = 0.5 * angle
    vec = np.sin(half)[..., None] * axis
    out = np.empty(vec.shape[:-1] + (4,))
    out[..., 0] = np.cos(half)
    out[..., 1:] = vec
    return out


def _rotate(q, v):
    # v + 2 q0 (u × v) + 2 u × (u × v): every term is even in q, so q and -q
    # give bit-identical results.
    u = q[..., 1:]
    t = _cross(u, v)
    return v + 2.0 * q[..., :1] * t + 2.0 * _cross(u, t)


def _matrix(q):
    q0, q1, q2, q3 = (q[..., k] for k in range(4))
    r = np.stack(
        [
            q0 * q0 + q1 * q1 - q2 * q2 - q3 * q3,
            2.0 * (q1 * q2 - q0 * q3),
            2.0 * (q0 * q2 + q1 * q3),
            2.0 * (q1 * q2 + q0 * q3),
            q0 * q0 - q1 * q1 + q2 * q2 - q3 * q3,
            2.0 * (q2 * q3 - q0 * q1),
            2.0 * (q1 * q3 - q0 * q2),
            2.0 * (q0 * q1 + q2 * q3),
            q0 * q0 - q1 * q1 - q2 * q2 + q3 * q3,
        ],
        axis=-1,
    )
    return r.reshape(r.shape[:-1] + (3, 3))


def _from_matrix(r):
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = (r[..., k // 3, k % 3] for k in range(9))
    tr = r00 + r11 + r22
    # argmax keeps the first of tied pivots, in the order [tr, r00, r11, r22].
    i = np.argmax(np.stack([tr, r00, r11, r22], axis=-1), axis=-1)
    sign = _PIVOT_DIAG_SIGN[i]
    # s = 4 |q_i|, from 4 q0^2 = 1 + tr or 4 q_i^2 = 1 ± r00 ± r11 ± r22.
    diag = 1.0 + sign[..., 0] * r00 + sign[..., 1] * r11 + sign[..., 2] * r22
    s = np.sqrt(np.where(i == 0, 1.0 + tr, diag)) * 2.0
    off = np.stack([r21 - r12, r02 - r20, r10 - r01, r01 + r10, r02 + r20, r12 + r21], axis=-1)
    q = np.take_along_axis(off, _PIVOT_OFF[i], axis=-1) / s[..., None]
    np.put_along_axis(q, i[..., None], 0.25 * s[..., None], axis=-1)
    return _canonical(_unit(q))


def from_axis_angle(axis, angle) -> np.ndarray:
    """Unit quaternions (cos(θ/2), n sin(θ/2)) for rotation by angle about axis."""
    return _from_axis_angle(require_unit_axis(axis), _angle(angle))


def to_axis_angle(q) -> AxisAngle:
    """Extract (axis, angle) with angle in (-pi, pi], canonicalizing first.

    The identity quaternion maps to angle 0 about (1, 0, 0) by convention.
    """
    q = _canonical(require_unit(q))
    vec = q[..., 1:]
    vec_norm = np.sqrt(dot(vec, vec))
    zero = vec_norm == 0.0
    axis = np.where(zero[..., None], _X, vec / np.where(zero, 1.0, vec_norm)[..., None])
    # q0 >= 0 after canonicalization, so the angle lies in [0, pi].
    return AxisAngle(axis, 2.0 * np.arctan2(vec_norm, q[..., 0]))


def rotate_vector(q, v) -> np.ndarray:
    """Local-to-global sandwich rotation: vector part of q ∘ (0,v) ∘ conj(q)."""
    return _rotate(require_unit(q), finite(v, (3,), "vector"))


def rotate_vector_inverse(q, v) -> np.ndarray:
    """Global-to-local sandwich rotation: vector part of conj(q) ∘ (0,v) ∘ q."""
    return _rotate(_conj(require_unit(q)), finite(v, (3,), "vector"))


def rodrigues_rotate(axis, angle, v, direction: str = "local-to-global") -> np.ndarray:
    """Rodrigues rotation formula, independent of the quaternion pipeline.

    ``local-to-global`` uses the sin θ (n × v) cross term and matches
    rotate_vector; ``global-to-local`` uses sin θ (v × n) and matches
    rotate_vector_inverse.
    """
    axis = require_unit_axis(axis)
    angle = _angle(angle)
    v = finite(v, (3,), "vector")
    if direction == "local-to-global":
        cross = _cross(axis, v)
    elif direction == "global-to-local":
        cross = _cross(v, axis)
    else:
        raise InvalidConfigError(f"unknown direction {direction!r}")
    c = np.cos(angle)[..., None]
    s = np.sin(angle)[..., None]
    return (1.0 - c) * dot(axis, v)[..., None] * axis + c * v + s * cross


def to_rotation_matrix(q) -> np.ndarray:
    """3x3 rotation matrices R with R @ v = rotate_vector(q, v).

    Even in every quaternion component, so R(q) = R(-q) exactly.
    """
    return _matrix(require_unit(q))


def from_rotation_matrix(r) -> np.ndarray:
    """Canonicalized unit quaternions for rotation matrices.

    Uses largest-pivot selection among the four trace-based candidates for
    stability near 180-degree rotations.
    """
    return _from_matrix(require_rotation_matrix(r))


def _elementary(angle, i: int, j: int) -> np.ndarray:
    # Rotations by angle in the (i, j) coordinate plane.
    c, s = np.cos(angle), np.sin(angle)
    m = np.zeros(np.shape(c) + (3, 3))
    m[..., 3 - i - j, 3 - i - j] = 1.0
    m[..., i, i] = m[..., j, j] = c
    m[..., i, j] = -s
    m[..., j, i] = s
    return m


def euler_xyz_to_matrix(phi, theta, psi) -> np.ndarray:
    """Body-to-world rotation matrices R_x(phi) R_y(theta) R_z(psi)."""
    return (
        _elementary(_angle(phi), 1, 2)
        @ _elementary(_angle(theta), 2, 0)
        @ _elementary(_angle(psi), 0, 1)
    )


def euler_xyz_to_quat(phi, theta, psi) -> np.ndarray:
    """Unit quaternions q_phi ∘ q_theta ∘ q_psi (local rotations post-multiplied)."""
    q_phi = _from_axis_angle(_X, _angle(phi))
    q_theta = _from_axis_angle(_Y, _angle(theta))
    q_psi = _from_axis_angle(_Z, _angle(psi))
    return _mul(q_phi, _mul(q_theta, q_psi))


def quat_to_euler_xyz(q) -> EulerAnglesXYZ:
    """Extract XYZ Euler angles from unit quaternions.

    theta is the principal asin branch in [-pi/2, pi/2]; phi and psi use the
    four-quadrant arctangent.  Within ``GIMBAL_EPSILON`` radians of
    theta = ±pi/2 only the combined twist is observable: the result is
    flagged degenerate with psi = 0 and the twist folded into phi.
    """
    q = require_unit(q)
    q0, q1, q2, q3 = (q[..., k] for k in range(4))
    s = np.clip(2.0 * (q0 * q2 + q1 * q3), -1.0, 1.0)
    degenerate = np.abs(s) >= math.cos(GIMBAL_EPSILON)
    sign = np.copysign(1.0, s)
    # At the poles R[1,0] = sin(phi ± psi) and R[1,1] = cos(phi ∓ psi).
    phi_pole = np.arctan2(
        sign * (2.0 * (q1 * q2 + q0 * q3)), q0 * q0 - q1 * q1 + q2 * q2 - q3 * q3
    )
    phi = np.arctan2(-2.0 * (q2 * q3 - q0 * q1), q0 * q0 - q1 * q1 - q2 * q2 + q3 * q3)
    psi = np.arctan2(-2.0 * (q1 * q2 - q0 * q3), q0 * q0 + q1 * q1 - q2 * q2 - q3 * q3)
    return EulerAnglesXYZ(
        np.where(degenerate, phi_pole, phi)[()],
        np.where(degenerate, sign * (0.5 * math.pi), np.arcsin(s))[()],
        np.where(degenerate, 0.0, psi)[()],
        degenerate,
    )


# --- Hamilton / JPL convention bridge --------------------------------------
#
# JPL quaternions are stored vector-first, use the left-handed algebra
# (ij = -k), and read global-to-local by default: x_L = q ∘ x_G ∘ q*.


def _jpl_mul(a, b):
    av, a0 = a[..., :3], a[..., 3:]
    bv, b0 = b[..., :3], b[..., 3:]
    vec = a0 * bv + b0 * av - _cross(av, bv)
    return np.concatenate([vec, a0 * b0 - dot(av, bv)[..., None]], axis=-1)


def jpl_quat_mul(a, b) -> np.ndarray:
    """JPL quaternion product (vector-first storage, ij = -k)."""
    return _jpl_mul(finite(a, (4,), "JPL quaternion"), finite(b, (4,), "JPL quaternion"))


def jpl_rotate_global_to_local(q_jpl, v) -> np.ndarray:
    """Apply JPL quaternions by their own rules: vector part of q ∘ (v,0) ∘ q*."""
    q_jpl = finite(q_jpl, (4,), "JPL quaternion")
    v = finite(v, (3,), "vector")
    x = np.concatenate([v, np.zeros(v.shape[:-1] + (1,))], axis=-1)
    return _jpl_mul(_jpl_mul(q_jpl, x), q_jpl * _JPL_CONJ_SIGN)[..., :3]


def hamilton_to_jpl(q) -> np.ndarray:
    """JPL (vector-first) quaternions representing the same physical attitudes.

    The storage reorder alone suffices: the handedness flip and the
    local-to-global/global-to-local flip cancel, which the rotation-matrix
    oracle in the tests verifies (never asserted by component fiat).
    """
    return require_unit(q)[..., [1, 2, 3, 0]]


def jpl_to_hamilton(q_jpl) -> np.ndarray:
    """Inverse bridge; result is canonicalized."""
    return _canonical(require_unit(finite(q_jpl, (4,), "JPL quaternion")[..., [3, 0, 1, 2]]))
