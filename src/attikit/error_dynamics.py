"""Attitude-error quaternion and its first-order dynamics, over stacked inputs.

The error quaternion q_e = inverse(q_d) ∘ q rotates vectors from the body
frame to the desired frame, so q = q_d ∘ q_e.  With the angular velocity
error expressed in the body frame, its kinematics reduce to the familiar
form qdot_e = 1/2 q_e ∘ (0, w_body - w_desired_body).
"""

from __future__ import annotations

import numpy as np

from .algebra import _canonical, _conj, _mul, _pure
from .checks import finite, require_rotation_matrix, require_unit
from .conversions import rotate_vector, rotate_vector_inverse


def error_quaternion(q_d, q) -> np.ndarray:
    """Canonicalized relative rotation inverse(q_d) ∘ q (body to desired frame)."""
    return _canonical(_mul(_conj(require_unit(q_d)), require_unit(q)))


def error_matrix(r_d, r) -> np.ndarray:
    """Relative rotation matrix inverse(R_d) R, so R_d @ result = R."""
    return np.swapaxes(require_rotation_matrix(r_d), -1, -2) @ require_rotation_matrix(r)


def error_quaternion_rate(q_e, w_body, w_des_body) -> np.ndarray:
    """qdot_e = 1/2 q_e ∘ (0, w_body - w_des_body).

    Both rates are in the body frame; q_e = identity with matching rates is
    an exact fixed point.
    """
    w_tilde = finite(w_body, (3,), "body rate") - finite(w_des_body, (3,), "desired body rate")
    return 0.5 * _mul(require_unit(q_e), _pure(w_tilde))


def desired_rate_to_body_frame(q_e, w_des_in_desired) -> np.ndarray:
    """Transport a desired-frame angular velocity into the body frame.

    Inverse of ``body_rate_to_desired_frame``; norm-preserving.
    """
    return rotate_vector_inverse(q_e, w_des_in_desired)


def body_rate_to_desired_frame(q_e, w_in_body) -> np.ndarray:
    """Transport a body-frame angular velocity into the desired frame."""
    return rotate_vector(q_e, w_in_body)
