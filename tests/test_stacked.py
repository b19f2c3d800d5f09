"""Stacked inputs: one call over a stack equals the stack of per-row calls.

Rows mix generic unit quaternions with the edge kinds of the array core:
q0 = 0, half turns whose matrices tie in the largest-pivot selection, and
pitch within 1e-7 rad of ±pi/2.  scipy's Rotation is the independent oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import attikit as ak
from attikit.conversions import jpl_quat_mul, jpl_rotate_global_to_local
from conftest import random_unit_quats

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
TIE_AXES = [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]


def _unit(x):
    x = np.asarray(x, dtype=float)
    return x / np.linalg.norm(x)


def _directions(n):
    return st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).filter(
        lambda x: np.linalg.norm(x) > 0.1
    ).map(_unit)


generic = _directions(4)
q0_zero = _directions(3).map(lambda v: np.concatenate([[0.0], v]))
half_turn_tie = st.tuples(
    st.sampled_from(TIE_AXES), st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3)
).map(lambda t: np.concatenate([[0.0], _unit(np.multiply(*t))]))
near_pole = st.tuples(
    st.floats(-math.pi, math.pi),
    st.sampled_from([-0.5 * math.pi, 0.5 * math.pi]),
    st.floats(-1e-7, 1e-7),
    st.floats(-math.pi, math.pi),
).map(lambda t: ak.euler_xyz_to_quat(t[0], t[1] + t[2], t[3]))
edge_quats = st.one_of(generic, q0_zero, half_turn_tie, near_pole)


@st.composite
def stacks(draw):
    n = draw(st.integers(min_value=1, max_value=6))

    def rows(strategy):
        return np.array(draw(st.lists(strategy, min_size=n, max_size=n)))

    q = rows(edge_quats)
    return {
        "q": q,
        "p": rows(edge_quats),
        "v": rows(st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3)),
        "axis": rows(_directions(3)),
        "angle": rows(st.floats(-math.pi, math.pi)),
        "matrix": np.array([ak.to_rotation_matrix(row) for row in q]),
    }


# The benchmark's chain: function and the stack entries it takes.
CHAIN = (
    ("quat_mul", ("q", "p")),
    ("rotate_vector", ("q", "v")),
    ("rotate_vector_inverse", ("q", "v")),
    ("to_rotation_matrix", ("q",)),
    ("from_rotation_matrix", ("matrix",)),
    ("quat_to_euler_xyz", ("q",)),
    ("from_axis_angle", ("axis", "angle")),
    ("to_axis_angle", ("q",)),
    ("error_quaternion", ("p", "q")),
    ("eg_matrices", ("q",)),
)


def _fields(result):
    return tuple(result) if isinstance(result, tuple) else (result,)


@pytest.mark.parametrize("name,keys", CHAIN, ids=[name for name, _ in CHAIN])
@given(data=stacks())
def test_stacked_call_equals_per_row_calls(name, keys, data):
    fn = getattr(ak, name)
    args = [data[k] for k in keys]
    stacked = _fields(fn(*args))
    per_row = [_fields(fn(*row)) for row in zip(*args)]
    for k, field in enumerate(stacked):
        np.testing.assert_array_equal(field, np.array([r[k] for r in per_row]))


def _near_up_to_sign(a, b, tol):
    return np.minimum(np.abs(a - b).max(axis=-1), np.abs(a + b).max(axis=-1)) <= tol


@settings(deadline=None)  # the first example imports scipy
@given(data=stacks())
def test_chain_matches_scipy_rotation(data):
    rotation = pytest.importorskip("scipy.spatial.transform").Rotation
    q, p, v, axis, angle = (data[k] for k in ("q", "p", "v", "axis", "angle"))
    rq = rotation.from_quat(q, scalar_first=True)
    rp = rotation.from_quat(p, scalar_first=True)
    r = rq.as_matrix()
    tol = 1e-12 * (1.0 + np.abs(v).max())

    assert _near_up_to_sign(ak.quat_mul(q, p), (rq * rp).as_quat(scalar_first=True), 1e-12).all()
    assert np.abs(ak.rotate_vector(q, v) - rq.apply(v)).max() <= tol
    assert np.abs(ak.rotate_vector_inverse(q, v) - rq.apply(v, inverse=True)).max() <= tol
    assert np.abs(ak.to_rotation_matrix(q) - r).max() <= 1e-12
    back = ak.from_rotation_matrix(r)
    assert _near_up_to_sign(back, q, 1e-9).all() and (back[:, 0] >= 0.0).all()
    assert _near_up_to_sign(
        ak.error_quaternion(p, q), (rp.inv() * rq).as_quat(scalar_first=True), 1e-12
    ).all()
    e, g = ak.eg_matrices(q)
    assert np.abs(e @ np.swapaxes(g, -1, -2) - r).max() <= 1e-12

    fa = ak.from_axis_angle(axis, angle)
    rotvec = rotation.from_rotvec(axis * angle[:, None]).as_quat(scalar_first=True)
    assert _near_up_to_sign(fa, rotvec, 1e-12).all()
    aa = ak.to_axis_angle(q)
    assert np.abs(rotation.from_rotvec(aa.axis * aa.angle[:, None]).as_matrix() - r).max() <= 1e-9

    euler = ak.quat_to_euler_xyz(q)
    r_euler = rotation.from_euler("XYZ", np.stack([euler.phi, euler.theta, euler.psi], -1))
    err = np.abs(r_euler.as_matrix() - r).max(axis=(-2, -1))
    assert (err[~euler.degenerate] <= 1e-9).all() and (err[euler.degenerate] <= 2e-6).all()
    far = ~euler.degenerate & (np.abs(np.cos(euler.theta)) > 1e-3)
    if far.any():
        ref = rq[far].as_euler("XYZ")
        got = np.stack([euler.phi, euler.theta, euler.psi], -1)[far]
        assert np.abs(np.angle(np.exp(1j * (got - ref)))).max() <= 1e-9


def test_pitch_near_pole_flagged_degenerate():
    theta = np.array([-1e-7, 0.0, 1e-7]) + np.array([[0.5 * math.pi], [-0.5 * math.pi]])
    q = ak.euler_xyz_to_quat(np.linspace(-3.0, 3.0, 3), theta, 0.3)
    e = ak.quat_to_euler_xyz(q)
    assert e.degenerate.all() and (e.psi == 0.0).all()
    assert (np.abs(e.theta) == 0.5 * math.pi).all()


def test_double_cover_bit_identical_on_stacks():
    rng = np.random.default_rng(8)
    q = np.concatenate([random_unit_quats(rng, 500), np.eye(4), -np.eye(4)])
    v = rng.normal(size=(q.shape[0], 3))
    assert np.array_equal(ak.to_rotation_matrix(-q), ak.to_rotation_matrix(q))
    assert np.array_equal(ak.rotate_vector(-q, v), ak.rotate_vector(q, v))
    assert np.array_equal(ak.canonicalize(-q), ak.canonicalize(q))


def test_single_inputs_return_scalars_and_plain_shapes():
    q = ak.euler_xyz_to_quat(0.1, 0.2, 0.3)
    assert q.shape == (4,)
    assert isinstance(ak.norm(q), float)
    assert ak.to_rotation_matrix(q).shape == (3, 3)
    aa = ak.to_axis_angle(q)
    assert aa.axis.shape == (3,) and isinstance(aa.angle, float)
    e = ak.quat_to_euler_xyz(q)
    assert all(isinstance(x, float) for x in (e.phi, e.theta, e.psi)) and not e.degenerate
    assert [m.shape for m in ak.eg_matrices(q)] == [(3, 4), (3, 4)]
    assert isinstance(ak.euler_rate_conditioning(0.3), float)


def test_broadcasting_over_batch_shapes():
    rng = np.random.default_rng(3)
    q = random_unit_quats(rng, 6).reshape(2, 3, 4)
    p = random_unit_quats(rng, 1)[0]
    out = ak.quat_mul(q, p)
    assert out.shape == (2, 3, 4)
    assert np.array_equal(out[1, 2], ak.quat_mul(q[1, 2], p))
    angles = np.linspace(-3.0, 3.0, 5)
    fa = ak.from_axis_angle([0.0, 0.0, 1.0], angles)
    assert fa.shape == (5, 4)
    assert np.array_equal(fa[4], ak.from_axis_angle([0.0, 0.0, 1.0], angles[4]))
    assert ak.euler_321_rate_matrix(angles, 0.2).shape == (5, 3, 3)


class TestFirstBadRowNamed:
    def setup_method(self):
        self.q = random_unit_quats(np.random.default_rng(5), 5)

    def test_non_unit_row(self):
        self.q[3] *= 1.1
        with pytest.raises(ak.NonUnitQuaternionError, match=r"at row 3$"):
            ak.to_rotation_matrix(self.q)

    def test_first_of_several_bad_rows(self):
        self.q[2, 1] = np.nan
        self.q[4, 0] = np.inf
        with pytest.raises(ak.NonFiniteInputError, match=r"at row 2$"):
            ak.quat_mul(self.q, IDENTITY)

    def test_batch_index_tuple(self):
        q = self.q[:4].reshape(2, 2, 4).copy()
        q[1, 0] *= 2.0
        with pytest.raises(ak.NonUnitQuaternionError, match=r"at row \(1, 0\)$"):
            ak.eg_matrices(q)

    def test_rotation_matrix_row(self):
        r = ak.to_rotation_matrix(self.q)
        r[1] = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ak.InvalidRotationError, match=r"at row 1"):
            ak.from_rotation_matrix(r)

    def test_axis_row(self):
        axes = np.eye(3)
        axes[2] *= 3.0
        with pytest.raises(ak.InvalidAxisError, match=r"at row 2$"):
            ak.from_axis_angle(axes, 0.5)

    def test_single_input_message_has_no_row(self):
        with pytest.raises(ak.NonUnitQuaternionError) as exc:
            ak.to_rotation_matrix([2.0, 0.0, 0.0, 0.0])
        assert "row" not in str(exc.value)


class TestValidationHoles:
    def test_jpl_quat_mul_rejects_nan(self):
        with pytest.raises(ak.NonFiniteInputError):
            jpl_quat_mul([np.nan, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0])
        with pytest.raises(ak.NonFiniteInputError):
            jpl_quat_mul([0.0, 0.0, 0.0, 1.0], [0.0, np.inf, 0.0, 1.0])

    def test_jpl_rotate_rejects_nan(self):
        with pytest.raises(ak.NonFiniteInputError):
            jpl_rotate_global_to_local([0.0, 0.0, np.nan, 1.0], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("w_des", [0.0, [0.0], [0.0, 0.0]])
    def test_error_rate_rejects_non_vector_rates(self, w_des):
        with pytest.raises(ValueError):
            ak.error_quaternion_rate(IDENTITY, [0.0, 0.0, 1.0], w_des)
        with pytest.raises(ValueError):
            ak.error_quaternion_rate(IDENTITY, w_des, [0.0, 0.0, 1.0])
