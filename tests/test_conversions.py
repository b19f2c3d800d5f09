import inspect
import math

import numpy as np
import pytest

from attikit import (
    InvalidAxisError,
    InvalidConfigError,
    InvalidRotationError,
    canonicalize,
    conjugate,
    euler_xyz_to_matrix,
    euler_xyz_to_quat,
    from_axis_angle,
    from_rotation_matrix,
    hamilton_to_jpl,
    jpl_to_hamilton,
    quat_mul,
    quat_to_euler_xyz,
    rodrigues_rotate,
    rotate_vector,
    rotate_vector_inverse,
    to_axis_angle,
    to_rotation_matrix,
)
from attikit.checks import GIMBAL_EPSILON
from attikit.conversions import jpl_quat_mul, jpl_rotate_global_to_local
from conftest import random_unit_quats

Z_AXIS = np.array([0.0, 0.0, 1.0])
X_AXIS = np.array([1.0, 0.0, 0.0])

QA = quat_mul(from_axis_angle(Z_AXIS, math.pi / 4), from_axis_angle(X_AXIS, math.pi / 2))
QB = quat_mul(from_axis_angle(X_AXIS, math.pi / 2), from_axis_angle(Z_AXIS, math.pi / 4))


class TestAxisAngle:
    def test_half_angle_substitution(self):
        q = from_axis_angle(Z_AXIS, math.pi / 2)
        s = math.sqrt(0.5)
        assert np.allclose(q, [s, 0, 0, s], atol=1e-15)

    def test_zero_rotation(self):
        assert np.array_equal(from_axis_angle(X_AXIS, 0.0), [1, 0, 0, 0])

    def test_worked_example_composition(self):
        assert np.allclose(QA, [0.6533, 0.6533, 0.2706, 0.2706], atol=5e-5)

    def test_negated_axis_and_angle_identical(self, rng):
        for _ in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(-math.pi, math.pi)
            assert np.max(np.abs(from_axis_angle(axis, angle) - from_axis_angle(-axis, -angle))) < 1e-15

    def test_non_unit_axis_rejected(self):
        with pytest.raises(InvalidAxisError):
            from_axis_angle([1.0, 1.0, 0.0], 0.3)

    def test_extraction(self):
        s = math.sqrt(0.5)
        aa = to_axis_angle([s, 0, 0, s])
        assert np.allclose(aa.axis, Z_AXIS, atol=1e-5)
        assert aa.angle == pytest.approx(math.pi / 2, abs=1e-5)

    def test_identity_convention(self):
        aa = to_axis_angle([1, 0, 0, 0])
        assert aa.angle == 0.0
        assert np.array_equal(aa.axis, X_AXIS)

    def test_negated_input_canonicalized(self):
        s = math.sqrt(0.5)
        aa = to_axis_angle([-s, 0, 0, -s])
        assert np.allclose(aa.axis, Z_AXIS, atol=1e-12)
        assert aa.angle == pytest.approx(math.pi / 2, abs=1e-12)

    def test_round_trip(self, rng):
        for q in random_unit_quats(rng, 300):
            aa = to_axis_angle(q)
            assert np.max(np.abs(from_axis_angle(aa.axis, aa.angle) - canonicalize(q))) < 1e-12
            assert -math.pi < aa.angle <= math.pi


class TestRotateVector:
    def test_worked_example_case_a(self):
        assert np.allclose(rotate_vector(QA, [0, 0, 1]), [0.7071, -0.7071, 0.0], atol=5e-5)

    def test_worked_example_case_b(self):
        assert np.allclose(rotate_vector(QB, [0, 0, 1]), [0.0, -1.0, 0.0], atol=5e-5)

    def test_identity(self):
        assert np.array_equal(rotate_vector([1, 0, 0, 0], [3, -4, 5]), [3.0, -4.0, 5.0])

    def test_inverse_of_worked_example_case_a(self):
        out = rotate_vector_inverse(QA, [0.7071, -0.7071, 0.0])
        assert np.allclose(out, [0, 0, 1], atol=1e-4)

    def test_sandwich_scalar_part_vanishes(self, rng):
        from attikit import pure

        for q in random_unit_quats(rng, 100):
            v = rng.normal(size=3)
            full = quat_mul(quat_mul(q, pure(v)), conjugate(q))
            assert abs(full[0]) < 1e-12

    def test_round_trip_and_norm(self, rng):
        for q in random_unit_quats(rng, 200):
            v = rng.normal(size=3)
            out = rotate_vector(q, v)
            assert np.max(np.abs(rotate_vector_inverse(q, out) - v)) < 1e-13
            assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(v), rel=1e-12)

    def test_double_cover_bit_identical(self, rng):
        for q in random_unit_quats(rng, 100):
            v = rng.normal(size=3)
            assert np.array_equal(rotate_vector(q, v), rotate_vector(-q, v))
            assert np.array_equal(to_rotation_matrix(q), to_rotation_matrix(-q))


class TestRodrigues:
    def test_local_to_global_hand_value(self):
        # (1-c)(n.v)n + c v + s (n x v) with n=z, th=pi/2, v=x: n x v = y.
        out = rodrigues_rotate(Z_AXIS, math.pi / 2, [1, 0, 0])
        assert np.allclose(out, [0, 1, 0], atol=1e-15)

    def test_zero_angle(self):
        v = np.array([0.3, -0.2, 0.9])
        assert np.allclose(rodrigues_rotate(Z_AXIS, 0.0, v), v, atol=1e-16)

    def test_documented_direction_hand_value(self):
        # The v x n cross term gives the inverse rotation: x -> -y.
        out = rodrigues_rotate(Z_AXIS, math.pi / 2, [1, 0, 0], direction="global-to-local")
        assert np.allclose(out, [0, -1, 0], atol=1e-15)

    def test_unknown_direction_typed(self):
        with pytest.raises(InvalidConfigError, match="sideways"):
            rodrigues_rotate(Z_AXIS, 1.0, [1, 0, 0], direction="sideways")

    def test_oracle_triangle(self, rng):
        for q in random_unit_quats(rng, 300):
            v = rng.normal(size=3)
            aa = to_axis_angle(q)
            sandwich = rotate_vector(q, v)
            matrix = to_rotation_matrix(q) @ v
            rod = rodrigues_rotate(aa.axis, aa.angle, v)
            assert np.max(np.abs(sandwich - matrix)) < 1e-12
            assert np.max(np.abs(sandwich - rod)) < 1e-12

    def test_documented_direction_matches_inverse_sandwich(self, rng):
        for q in random_unit_quats(rng, 300):
            v = rng.normal(size=3)
            aa = to_axis_angle(q)
            rod = rodrigues_rotate(aa.axis, aa.angle, v, direction="global-to-local")
            assert np.max(np.abs(rod - rotate_vector_inverse(q, v))) < 1e-12


class TestRotationMatrix:
    def test_identity(self):
        assert np.array_equal(to_rotation_matrix([1, 0, 0, 0]), np.eye(3))

    def test_z_quarter_turn(self):
        s = math.sqrt(0.5)
        r = to_rotation_matrix([s, 0, 0, s])
        assert np.allclose(r, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-5)

    def test_orthonormal_det_plus_one(self, rng):
        for q in random_unit_quats(rng, 200):
            r = to_rotation_matrix(q)
            assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-12
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_from_identity(self):
        assert np.array_equal(from_rotation_matrix(np.eye(3)), [1, 0, 0, 0])

    def test_from_half_turn_about_x(self):
        q = from_rotation_matrix(np.diag([1.0, -1.0, -1.0]))
        assert np.allclose(q, [0, 1, 0, 0], atol=1e-15)
        assert np.allclose(to_rotation_matrix(q), np.diag([1.0, -1.0, -1.0]), atol=1e-15)

    def test_round_trip(self, rng):
        for q in random_unit_quats(rng, 10_000):
            back = from_rotation_matrix(to_rotation_matrix(q))
            assert np.max(np.abs(back - canonicalize(q))) < 1e-12

    def test_rejects_non_orthonormal(self):
        with pytest.raises(InvalidRotationError):
            from_rotation_matrix(np.eye(3) * 1.1)

    def test_rejects_reflection(self):
        with pytest.raises(InvalidRotationError):
            from_rotation_matrix(np.diag([1.0, 1.0, -1.0]))


class TestEulerXYZ:
    def test_zero_angles(self):
        assert np.allclose(euler_xyz_to_matrix(0, 0, 0), np.eye(3), atol=1e-16)
        assert np.array_equal(euler_xyz_to_quat(0, 0, 0), [1, 0, 0, 0])

    def test_pure_roll_matrix(self):
        r = euler_xyz_to_matrix(math.pi / 2, 0, 0)
        assert np.allclose(r, [[1, 0, 0], [0, 0, -1], [0, 1, 0]], atol=1e-15)

    def test_pure_roll_quat(self):
        q = euler_xyz_to_quat(math.pi / 2, 0, 0)
        s = math.sqrt(0.5)
        assert np.allclose(q, [s, s, 0, 0], atol=1e-5)

    def test_matrix_vs_quat_consistency(self, rng):
        for _ in range(500):
            e = rng.uniform(-math.pi, math.pi, size=3)
            m = euler_xyz_to_matrix(*e)
            assert np.max(np.abs(m - to_rotation_matrix(euler_xyz_to_quat(*e)))) < 1e-12

    def test_quat_matches_axis_angle_composition(self, rng):
        for _ in range(200):
            phi, theta, psi = rng.uniform(-math.pi, math.pi, size=3)
            direct = euler_xyz_to_quat(phi, theta, psi)
            composed = quat_mul(
                from_axis_angle(X_AXIS, phi),
                quat_mul(from_axis_angle([0, 1, 0], theta), from_axis_angle(Z_AXIS, psi)),
            )
            assert np.max(np.abs(direct - composed)) < 1e-14

    def test_extract_identity(self):
        e = quat_to_euler_xyz([1, 0, 0, 0])
        assert (e.phi, e.theta, e.psi, e.degenerate) == (0.0, 0.0, 0.0, False)

    def test_extract_pure_roll(self):
        s = math.sqrt(0.5)
        e = quat_to_euler_xyz([s, s, 0, 0])
        assert e.phi == pytest.approx(math.pi / 2, abs=1e-9)
        assert abs(e.theta) < 1e-9 and abs(e.psi) < 1e-9

    def test_round_trip_away_from_singularity(self, rng):
        count = 0
        while count < 500:
            phi, psi = rng.uniform(-math.pi, math.pi, size=2)
            theta = rng.uniform(-1.4, 1.4)
            q = canonicalize(euler_xyz_to_quat(phi, theta, psi))
            e = quat_to_euler_xyz(q)
            assert not e.degenerate
            back = canonicalize(euler_xyz_to_quat(e.phi, e.theta, e.psi))
            assert np.max(np.abs(back - q)) < 1e-9
            count += 1

    def test_degenerate_extraction_flagged_and_recoverable(self):
        for theta_pole in (math.pi / 2, -math.pi / 2):
            q = euler_xyz_to_quat(0.4, theta_pole, -0.7)
            e = quat_to_euler_xyz(q)
            assert e.degenerate
            assert e.psi == 0.0
            r_back = to_rotation_matrix(euler_xyz_to_quat(e.phi, e.theta, e.psi))
            assert np.max(np.abs(r_back - to_rotation_matrix(q))) < 1e-6

    def test_degenerate_band_is_the_table_entry(self):
        # The band is not a parameter: within GIMBAL_EPSILON of theta = pi/2 is degenerate.
        assert list(inspect.signature(quat_to_euler_xyz).parameters) == ["q"]
        outside = euler_xyz_to_quat(0.4, math.pi / 2 - 2.0 * GIMBAL_EPSILON, -0.7)
        inside = euler_xyz_to_quat(0.4, math.pi / 2 - 0.5 * GIMBAL_EPSILON, -0.7)
        assert not quat_to_euler_xyz(outside).degenerate
        assert quat_to_euler_xyz(inside).degenerate


class TestJplBridge:
    def test_identity_reorder(self):
        assert np.array_equal(hamilton_to_jpl([1, 0, 0, 0]), [0, 0, 0, 1])

    def test_matrix_oracle(self, rng):
        # The JPL value applied by JPL rules must act as the transpose
        # (global-to-local) of the Hamilton rotation matrix.
        for q in random_unit_quats(rng, 200):
            v = rng.normal(size=3)
            jpl = hamilton_to_jpl(q)
            target = to_rotation_matrix(q).T @ v
            assert np.max(np.abs(jpl_rotate_global_to_local(jpl, v) - target)) < 1e-12

    def test_quarter_turn_oracle(self):
        s = math.sqrt(0.5)
        q = np.array([s, 0, 0, s])
        jpl = hamilton_to_jpl(q)
        v = np.array([1.0, 2.0, 3.0])
        assert np.max(np.abs(jpl_rotate_global_to_local(jpl, v) - to_rotation_matrix(q).T @ v)) < 1e-12

    def test_round_trip(self, rng):
        for q in random_unit_quats(rng, 200):
            back = jpl_to_hamilton(hamilton_to_jpl(q))
            assert np.max(np.abs(back - canonicalize(q))) < 1e-14

    def test_jpl_product_is_flipped_hamilton_product(self, rng):
        # Sommer et al., arXiv 1801.07478: J(a) (x)_JPL J(b) = J(b ∘ a), J the reorder.
        a = random_unit_quats(rng, 1000)
        b = random_unit_quats(rng, 1000)
        np.testing.assert_allclose(
            jpl_quat_mul(hamilton_to_jpl(a), hamilton_to_jpl(b)),
            hamilton_to_jpl(quat_mul(b, a)),
            rtol=0,
            atol=1e-15,
        )
