"""The tolerance table and the one input checker behind every public entry.

Each checker takes a single value or a stack of them (any leading batch
shape), returns it as a float array, and raises a typed error. For a stack
the message names the first offending row. ``require_finite`` checks named
scalar run parameters and names the first bad one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    InconsistentRateError,
    InvalidAxisError,
    InvalidConfigError,
    InvalidRotationError,
    NonFiniteInputError,
    NonUnitQuaternionError,
)

UNIT_TOLERANCE = 1e-9  # admitted | |q| - 1 | of a unit quaternion
CLI_UNIT_TOLERANCE = 1e-6  # admitted | |q| - 1 | of a hand-typed CLI quaternion or axis, then normalized
DEGENERATE_NORM_THRESHOLD = 1e-12  # |q| at or below this cannot be inverted or normalized
AXIS_TOLERANCE = 1e-9  # admitted | |n| - 1 | of a rotation axis
ROTATION_TOLERANCE = 1e-6  # admitted max |R'R - I| and |det R - 1| of a rotation matrix
GIMBAL_EPSILON = 1e-6  # radians from theta = ±pi/2 extracted as degenerate XYZ Euler angles
SINGULARITY_THRESHOLD = 1e-8  # |cos theta| at or below this is 3-2-1 gimbal lock
RATE_ORTHOGONALITY_TOLERANCE = 1e-6  # admitted |<q, qdot>| of a quaternion rate
TRAJECTORY_TOLERANCE = 1e-6  # admitted |scalar(2 conj(q)∘qdd) + 2 |qd|^2|
MAX_STEPS = 10**7  # most grid steps (t1 - t0) / dt a propagation may take


def dot(a, b):
    """Inner product over the last axis, rounded exactly as the 1-D ``a @ b``."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def reject(bad, error, message: str, values) -> None:
    """Raise ``error(message.format(values[i]))`` for the first True entry i of a batch mask.

    For a stack the message ends by naming the offending row.
    """
    if not np.count_nonzero(bad):
        return
    if bad.ndim == 0:
        raise error(message.format(np.asarray(values).tolist()))
    i = np.unravel_index(np.argmax(bad), bad.shape)
    row = int(i[0]) if bad.ndim == 1 else tuple(map(int, i))
    raise error(f"{message.format(values[i].tolist())} at row {row}")


def require_finite(error, **values: float) -> None:
    """Raise ``error`` naming the first of the named scalar parameters that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise error(f"{name} must be finite, got {value}")


def finite(x, tail: tuple, what: str) -> np.ndarray:
    """``x`` as a float array of shape ``(..., *tail)`` with only finite entries."""
    x = np.asarray(x, dtype=float)
    if x.shape[x.ndim - len(tail) :] != tail:
        shape = ", ".join(map(str, ("...", *tail)))
        raise InvalidConfigError(f"{what} must have shape ({shape}), got {x.shape}")
    ok = np.isfinite(x).all(axis=tuple(range(x.ndim - len(tail), x.ndim)))
    reject(~ok, NonFiniteInputError, f"{what} has non-finite components: {{}}", x)
    return x


def _unit_norm(x, width: int, tol: float, what: str, error):
    x = finite(x, (width,), what)
    n = np.sqrt(dot(x, x))
    reject(np.abs(n - 1.0) > tol, error, f"{what} norm {{!r}} deviates from 1 beyond {tol}", n)
    return x


def require_unit(q, tol: float = UNIT_TOLERANCE, what: str = "quaternion") -> np.ndarray:
    """Stacked quaternions of unit norm within tol."""
    return _unit_norm(q, 4, tol, what, NonUnitQuaternionError)


def require_unit_axis(axis, tol: float = AXIS_TOLERANCE) -> np.ndarray:
    """Stacked rotation axes of unit norm within tol."""
    return _unit_norm(axis, 3, tol, "axis", InvalidAxisError)


def require_rotation_matrix(r, tol: float = ROTATION_TOLERANCE) -> np.ndarray:
    """Stacked 3x3 matrices, orthonormal with determinant +1 within tol."""
    r = finite(r, (3, 3), "rotation matrix")
    err = np.abs(np.swapaxes(r, -1, -2) @ r - np.eye(3)).max(axis=(-2, -1))
    message = "matrix is not orthonormal (max |R'R - I| = {:.3e})"
    reject(err > tol, InvalidRotationError, message, err)
    det = np.linalg.det(r)
    reject(np.abs(det - 1.0) > tol, InvalidRotationError, "matrix determinant {!r} is not +1", det)
    return r


def require_tangent_rate(q, qd) -> np.ndarray:
    """Stacked quaternion rates orthogonal to q within RATE_ORTHOGONALITY_TOLERANCE."""
    qd = finite(qd, (4,), "quaternion rate")
    d = np.abs(dot(q, qd))
    message = (
        f"<q, qdot> = {{:.3e}} exceeds {RATE_ORTHOGONALITY_TOLERANCE}; "
        "rate is not tangent to the unit sphere"
    )
    reject(d > RATE_ORTHOGONALITY_TOLERANCE, InconsistentRateError, message, d)
    return qd
