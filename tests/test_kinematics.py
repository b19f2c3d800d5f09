import inspect
import math

import numpy as np
import pytest

from attikit import (
    GimbalLockError,
    InconsistentRateError,
    InconsistentTrajectoryError,
    body_accel_from_q,
    body_rates_from_euler_321,
    body_rates_from_qdot,
    conjugate,
    eg_matrices,
    euler_321_rate_matrix,
    euler_rate_conditioning,
    euler_rates_from_body_321,
    from_axis_angle,
    qdot_from_body_rates,
    qdot_from_world_rates,
    quat_mul,
    rotate_vector,
    rotation_matrix_rate,
    to_rotation_matrix,
    world_rates_from_qdot,
)
from attikit.checks import SINGULARITY_THRESHOLD
from conftest import random_unit_quats, sample_trajectory

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def skew(w):
    return np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0.0]])


class TestEGMatrices:
    def test_identity_quaternion(self):
        e, g = eg_matrices(IDENTITY)
        expected = np.hstack([np.zeros((3, 1)), np.eye(3)])
        assert np.array_equal(e, expected)
        assert np.array_equal(g, expected)
        assert np.array_equal(e @ g.T, np.eye(3))

    def test_orthogonality_identities(self, rng):
        for q in random_unit_quats(rng, 500):
            e, g = eg_matrices(q)
            assert np.max(np.abs(e @ e.T - np.eye(3))) < 1e-14
            assert np.max(np.abs(g @ g.T - np.eye(3))) < 1e-14

    def test_egt_is_rotation_matrix(self, rng):
        for q in random_unit_quats(rng, 500):
            e, g = eg_matrices(q)
            r = e @ g.T
            assert np.max(np.abs(r - to_rotation_matrix(q))) < 1e-14
            assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-13
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-13)


class TestQuaternionRates:
    def test_body_rate_at_identity(self):
        qd = qdot_from_body_rates(IDENTITY, [0, 0, 1])
        assert np.array_equal(qd, [0, 0, 0, 0.5])

    def test_world_rate_at_identity(self):
        qd = qdot_from_world_rates(IDENTITY, [0, 0, 1])
        assert np.array_equal(qd, [0, 0, 0, 0.5])

    def test_zero_rate(self, rng):
        for q in random_unit_quats(rng, 10):
            assert np.array_equal(qdot_from_body_rates(q, [0, 0, 0]), np.zeros(4))
            assert np.array_equal(qdot_from_world_rates(q, [0, 0, 0]), np.zeros(4))

    def test_four_constructions_agree(self, rng):
        for q in random_unit_quats(rng, 1000):
            w_body = rng.normal(size=3)
            w_world = rotate_vector(q, w_body)
            e, g = eg_matrices(q)
            forms = [
                qdot_from_body_rates(q, w_body),
                qdot_from_world_rates(q, w_world),
                0.5 * (g.T @ w_body),
                0.5 * (e.T @ w_world),
            ]
            for f in forms[1:]:
                assert np.max(np.abs(f - forms[0])) < 1e-13

    def test_rate_orthogonal_to_quaternion(self, rng):
        for q in random_unit_quats(rng, 200):
            qd = qdot_from_body_rates(q, rng.normal(size=3))
            assert abs(float(q @ qd)) < 1e-12

    def test_recovery_round_trip(self, rng):
        for q in random_unit_quats(rng, 1000):
            w = rng.normal(size=3)
            qd = qdot_from_body_rates(q, w)
            assert np.max(np.abs(body_rates_from_qdot(q, qd) - w)) < 1e-12
            w_world = rotate_vector(q, w)
            assert np.max(np.abs(world_rates_from_qdot(q, qd) - w_world)) < 1e-12

    def test_recovery_at_identity(self):
        assert np.allclose(body_rates_from_qdot(IDENTITY, [0, 0, 0, 0.5]), [0, 0, 1], atol=1e-15)

    def test_matrix_form_matches_product_form(self, rng):
        for q in random_unit_quats(rng, 500):
            qd = qdot_from_body_rates(q, rng.normal(size=3))
            e, g = eg_matrices(q)
            assert np.max(np.abs(2.0 * (e @ qd) - (2.0 * quat_mul(qd, conjugate(q)))[1:])) < 1e-13
            assert np.max(np.abs(2.0 * (g @ qd) - (2.0 * quat_mul(conjugate(q), qd))[1:])) < 1e-13

    def test_world_rates_are_rotated_body_rates(self, rng):
        for q in random_unit_quats(rng, 300):
            w = rng.normal(size=3)
            qd = qdot_from_body_rates(q, w)
            e, g = eg_matrices(q)
            assert np.max(np.abs(world_rates_from_qdot(q, qd) - (e @ g.T) @ w)) < 1e-13

    def test_non_orthogonal_rate_rejected(self, rng):
        q = random_unit_quats(rng, 1)[0]
        with pytest.raises(InconsistentRateError):
            body_rates_from_qdot(q, q.copy())  # parallel, maximally inconsistent

    def test_norm_conservation(self, rng):
        for q in random_unit_quats(rng, 200):
            qd = qdot_from_world_rates(q, rng.normal(size=3))
            assert abs(2.0 * float(q @ qd)) < 1e-12


class TestBodyAcceleration:
    def test_zero_everything(self, rng):
        q = random_unit_quats(rng, 1)[0]
        assert np.array_equal(body_accel_from_q(q, np.zeros(4), np.zeros(4)), np.zeros(3))

    def test_constant_rate_about_z(self):
        # q(t) = (cos(wt/2), 0, 0, sin(wt/2)): qdd is analytic, wdot' = 0.
        w = 0.7
        for t in (0.0, 0.4, 1.3):
            h = 0.5 * w * t
            q = np.array([math.cos(h), 0, 0, math.sin(h)])
            qd = 0.5 * w * np.array([-math.sin(h), 0, 0, math.cos(h)])
            qdd = -0.25 * w * w * q
            assert np.max(np.abs(body_accel_from_q(q, qd, qdd))) < 1e-9

    def test_matches_finite_difference(self, rng):
        h = 1e-5
        for _ in range(20):
            traj = sample_trajectory(rng)
            t = rng.uniform(0.2, 0.8)
            accel = body_accel_from_q(traj.q(t), traj.qdot(t), traj.qddot(t))
            wp = body_rates_from_qdot(traj.q(t + h), traj.qdot(t + h))
            wm = body_rates_from_qdot(traj.q(t - h), traj.qdot(t - h))
            fd = (wp - wm) / (2 * h)
            assert np.max(np.abs(accel - fd)) < 1e-5

    def test_inconsistent_trajectory_rejected(self, rng):
        q = random_unit_quats(rng, 1)[0]
        qd = qdot_from_body_rates(q, [1.0, 0, 0])
        with pytest.raises(InconsistentTrajectoryError):
            body_accel_from_q(q, qd, 10.0 * q)  # scalar identity badly violated


class TestRotationMatrixRate:
    def test_zero_rate(self, rng):
        q = random_unit_quats(rng, 1)[0]
        rdot, omega = rotation_matrix_rate(q, np.zeros(4))
        assert np.array_equal(rdot, np.zeros((3, 3)))
        assert np.array_equal(omega, np.zeros((3, 3)))

    def test_omega_is_skew_of_body_rates(self, rng):
        for q in random_unit_quats(rng, 1000):
            w = rng.normal(size=3)
            qd = qdot_from_body_rates(q, w)
            rdot, omega = rotation_matrix_rate(q, qd)
            assert np.max(np.abs(omega + omega.T)) < 1e-12
            assert np.max(np.abs(omega - skew(w))) < 1e-13
            assert np.max(np.abs(rdot - to_rotation_matrix(q) @ omega)) < 1e-13

    def test_matches_finite_difference(self, rng):
        h = 1e-5
        for _ in range(20):
            traj = sample_trajectory(rng)
            t = rng.uniform(0.2, 0.8)
            rdot, _ = rotation_matrix_rate(traj.q(t), traj.qdot(t))
            fd = (to_rotation_matrix(traj.q(t + h)) - to_rotation_matrix(traj.q(t - h))) / (2 * h)
            assert np.max(np.abs(rdot - fd)) < 1e-5


class TestEuler321Rates:
    def test_identity_at_zero_angles(self):
        er = np.array([0.3, -0.2, 0.8])
        assert np.allclose(body_rates_from_euler_321(0.0, 0.0, er), er, atol=1e-16)
        assert np.allclose(euler_rates_from_body_321(0.0, 0.0, er), er, atol=1e-16)

    def test_roll_yaw_collapse_at_vertical_pitch(self):
        # p = phidot - psidot sin(theta) = 1 - (-1) = 2, q = r = 0.
        w = body_rates_from_euler_321(0.0, math.pi / 2, [1.0, 0.0, -1.0])
        assert np.allclose(w, [2.0, 0.0, 0.0], atol=1e-12)

    def test_determinant_is_cos_theta(self, rng):
        for theta in np.linspace(-1.5, 1.5, 61):
            phi = rng.uniform(-math.pi, math.pi)
            det = np.linalg.det(euler_321_rate_matrix(phi, theta))
            assert det == pytest.approx(math.cos(theta), abs=1e-12)

    def test_inverse_pair(self, rng):
        for _ in range(1000):
            phi = rng.uniform(-math.pi, math.pi)
            theta = rng.uniform(-1.4, 1.4)
            er = rng.normal(size=3)
            w = body_rates_from_euler_321(phi, theta, er)
            back = euler_rates_from_body_321(phi, theta, w)
            assert np.max(np.abs(back - er)) <= 1e-10 * max(1.0, np.max(np.abs(er)))

    def test_gimbal_lock_raises_with_diagnostic(self):
        with pytest.raises(GimbalLockError) as exc:
            euler_rates_from_body_321(0.2, math.pi / 2, [1.0, 0, 0])
        assert abs(exc.value.cos_theta) <= 1e-8

    def test_lock_threshold_is_the_table_entry(self):
        # The threshold is not a parameter: |cos theta| <= SINGULARITY_THRESHOLD locks.
        assert list(inspect.signature(euler_rates_from_body_321).parameters) == ["phi", "theta", "w_body"]
        euler_rates_from_body_321(0.2, math.pi / 2 - 2.0 * SINGULARITY_THRESHOLD, [1.0, 0, 0])
        with pytest.raises(GimbalLockError):
            euler_rates_from_body_321(0.2, math.pi / 2 - 0.5 * SINGULARITY_THRESHOLD, [1.0, 0, 0])

    def test_conditioning_values(self):
        assert euler_rate_conditioning(0.0) == 1.0
        assert euler_rate_conditioning(math.pi / 3) == pytest.approx(2.0, rel=1e-12)
        assert euler_rate_conditioning(math.pi / 2 - 1e-3) == pytest.approx(1000.0, rel=0.01)

    def test_conditioning_infinite_at_pole(self):
        # math.cos(pi/2) is not exactly zero in floats; probe the exact pole
        # via a theta whose cosine underflows to 0.
        assert euler_rate_conditioning(float(np.arccos(0.0))) > 1e15


class TestFiniteDifferenceQdot:
    def test_analytic_qdot_matches_central_difference(self, rng):
        h = 1e-6
        for _ in range(20):
            traj = sample_trajectory(rng)
            t = rng.uniform(0.2, 0.8)
            fd = (traj.q(t + h) - traj.q(t - h)) / (2 * h)
            assert np.max(np.abs(traj.qdot(t) - fd)) < 1e-6

    def test_propagated_rate_matches_trajectory(self, rng):
        # Constant body rate: q(t) = q0 ∘ exp-step(w t); analytic qdot from
        # the kinematic relation matches central differences.
        h = 1e-6
        q0 = random_unit_quats(rng, 1)[0]
        w = rng.normal(size=3)
        wn = np.linalg.norm(w)

        def q_of(t):
            return quat_mul(q0, from_axis_angle(w / wn, wn * t))

        for t in (0.1, 0.5, 1.7):
            qd = qdot_from_body_rates(q_of(t), w)
            fd = (q_of(t + h) - q_of(t - h)) / (2 * h)
            assert np.max(np.abs(qd - fd)) < 1e-6
