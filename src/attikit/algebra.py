"""Hamilton quaternion algebra over stacked quaternions.

Quaternions are stored scalar-first as numpy arrays ``[..., q0, q1, q2, q3]``
where ``q0`` is the real part and ``[q1, q2, q3]`` the imaginary (vector)
part; a single quaternion is the empty batch shape.  The product follows the
right-handed rules (ij = k).  All functions are pure; arrays are never
modified in place.

Public functions validate their inputs once; the underscored kernels assume
already-validated arrays and are what the rest of the package calls.
"""

from __future__ import annotations

import numpy as np

from .checks import DEGENERATE_NORM_THRESHOLD, dot, finite, reject
from .errors import SingularQuaternionError

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])

# quat_mul(a, b)[k] = sum_j _MUL_SIGN[k, j] a[_MUL_A[k, j]] b[_MUL_B[k, j]], summed in
# the written-out order a0 b0 - a1 b1 - a2 b2 - a3 b3, a1 b0 + a0 b1 + a2 b3 - a3 b2, ...
_MUL_A = np.array([[0, 1, 2, 3], [1, 0, 2, 3], [2, 0, 3, 1], [3, 0, 1, 2]])
_MUL_B = np.array([[0, 1, 2, 3], [0, 1, 3, 2], [0, 2, 1, 3], [0, 3, 2, 1]])
_MUL_SIGN = np.array([[1, -1, -1, -1], [1, 1, 1, -1], [1, 1, 1, -1], [1, 1, 1, -1.0]])
# Q(q)[k, j] = _LEFT_SIGN[k, j] q[_PRODUCT_INDEX[k, j]]; Qbar(p) likewise with _RIGHT_SIGN.
_PRODUCT_INDEX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_LEFT_SIGN = np.array([[1, -1, -1, -1], [1, 1, -1, 1], [1, 1, 1, -1], [1, -1, 1, 1.0]])
_RIGHT_SIGN = np.array([[1, -1, -1, -1], [1, 1, 1, -1], [1, -1, 1, 1], [1, 1, -1, 1.0]])
_CONJ_SIGN = np.array([1.0, -1.0, -1.0, -1.0])


def _mul(a, b):
    return (_MUL_SIGN * a[..., _MUL_A] * b[..., _MUL_B]).sum(axis=-1)


def _conj(q):
    return q * _CONJ_SIGN


def _pure(v):
    out = np.zeros(v.shape[:-1] + (4,))
    out[..., 1:] = v
    return out


def _norm(q):
    return np.sqrt(dot(q, q))


def _unit(q):
    return q / _norm(q)[..., None]


def _left(q):
    return _LEFT_SIGN * q[..., _PRODUCT_INDEX]


def _right(p):
    return _RIGHT_SIGN * p[..., _PRODUCT_INDEX]


def _canonical(q):
    # The first nonzero component, q0 unless it is zero, is made positive.
    lead = np.take_along_axis(q, np.argmax(q != 0.0, axis=-1)[..., None], axis=-1)
    return np.where(lead < 0.0, -q, q)


def pure(v) -> np.ndarray:
    """Embed 3-vectors as pure quaternions (zero scalar part)."""
    return _pure(finite(v, (3,), "vector"))


def quat_mul(a, b) -> np.ndarray:
    """Hamilton product a∘b (right-handed, ij = k), broadcasting over stacks.

    Non-commutative, associative, norm-multiplicative.
    """
    return _mul(finite(a, (4,), "quaternion"), finite(b, (4,), "quaternion"))


def conjugate(q) -> np.ndarray:
    """Conjugate (q0, -q_vec). Involutive; for unit q equals the inverse."""
    return _conj(finite(q, (4,), "quaternion"))


def norm(q):
    """Euclidean 4-norm over the last axis; finite for components up to ~1e150."""
    return _norm(finite(q, (4,), "quaternion"))


def _nondegenerate(n2, action: str):
    bad = n2 <= DEGENERATE_NORM_THRESHOLD**2
    reject(bad, SingularQuaternionError, f"norm {{!r}} too small to {action}", np.sqrt(n2))


def inverse(q) -> np.ndarray:
    """Multiplicative inverse conj(q)/|q|^2, so quat_mul(q, inverse(q)) = identity."""
    q = finite(q, (4,), "quaternion")
    n2 = dot(q, q)
    _nondegenerate(n2, "invert")
    return _conj(q) / n2[..., None]


def normalized(q) -> np.ndarray:
    """Divide by the norm, yielding unit quaternions.

    This is the explicit renormalizing constructor: use it when drift is
    expected; everywhere else out-of-tolerance inputs are rejected.
    """
    q = finite(q, (4,), "quaternion")
    _nondegenerate(dot(q, q), "normalize")
    return _unit(q)


def product_matrix_left(q) -> np.ndarray:
    """(..., 4, 4) matrices Q(q) with quat_mul(q, p) = Q(q) @ p."""
    return _left(finite(q, (4,), "quaternion"))


def product_matrix_right(p) -> np.ndarray:
    """(..., 4, 4) matrices Qbar(p) with quat_mul(q, p) = Qbar(p) @ q."""
    return _right(finite(p, (4,), "quaternion"))


def canonicalize(q) -> np.ndarray:
    """Pick the canonical representative of each pair {q, -q}.

    Returns q if q0 > 0, -q if q0 < 0.  At q0 == 0 the first nonzero vector
    component is made positive, so the rule is total and deterministic.
    Both signs map to the same rotation matrix exactly.
    """
    return _canonical(finite(q, (4,), "quaternion"))

