import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from attikit import (
    IDENTITY,
    InvalidConfigError,
    NonFiniteInputError,
    SingularQuaternionError,
    canonicalize,
    conjugate,
    inverse,
    norm,
    normalized,
    product_matrix_left,
    product_matrix_right,
    quat_mul,
)
from conftest import random_unit_quats

finite_quats = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=4, max_size=4
).map(np.array)


class TestQuatMul:
    def test_worked_example_local(self):
        # Z by 45 deg then X by 90 deg about the new axis.
        z45 = np.array([math.cos(math.pi / 8), 0, 0, math.sin(math.pi / 8)])
        x90 = np.array([math.cos(math.pi / 4), math.sin(math.pi / 4), 0, 0])
        qa = quat_mul(z45, x90)
        assert np.allclose(qa, [0.6533, 0.6533, 0.2706, 0.2706], atol=5e-5)

    def test_worked_example_global(self):
        z45 = np.array([math.cos(math.pi / 8), 0, 0, math.sin(math.pi / 8)])
        x90 = np.array([math.cos(math.pi / 4), math.sin(math.pi / 4), 0, 0])
        qb = quat_mul(x90, z45)
        assert np.allclose(qb, [0.6533, 0.6533, -0.2706, 0.2706], atol=5e-5)

    def test_identity_element(self, rng):
        for q in rng.normal(size=(20, 4)):
            assert np.array_equal(quat_mul(IDENTITY, q), q)

    def test_ij_equals_k(self):
        i = np.array([0.0, 1.0, 0.0, 0.0])
        j = np.array([0.0, 0.0, 1.0, 0.0])
        assert np.array_equal(quat_mul(i, j), [0.0, 0.0, 0.0, 1.0])
        assert np.array_equal(quat_mul(j, i), [0.0, 0.0, 0.0, -1.0])

    def test_non_commutative_witness(self):
        i = np.array([0.0, 1.0, 0.0, 0.0])
        j = np.array([0.0, 0.0, 1.0, 0.0])
        assert np.max(np.abs(quat_mul(i, j) - quat_mul(j, i))) > 0.1

    def test_associativity(self, rng):
        qs = random_unit_quats(rng, 300)
        for a, b, c in zip(qs[::3], qs[1::3], qs[2::3]):
            lhs = quat_mul(quat_mul(a, b), c)
            rhs = quat_mul(a, quat_mul(b, c))
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_norm_multiplicative(self, rng):
        for _ in range(10_000 // 100):
            a = rng.normal(size=(100, 4))
            b = rng.normal(size=(100, 4))
            for x, y in zip(a, b):
                lhs = norm(quat_mul(x, y))
                rhs = norm(x) * norm(y)
                assert lhs == pytest.approx(rhs, rel=4 * np.finfo(float).eps)

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteInputError):
            quat_mul([np.nan, 0, 0, 0], IDENTITY)
        with pytest.raises(NonFiniteInputError):
            quat_mul(IDENTITY, [1, np.inf, 0, 0])

    def test_rejects_wrong_shape_typed(self):
        with pytest.raises(InvalidConfigError, match=r"must have shape \(\.\.\., 4\), got \(3,\)"):
            quat_mul([1, 2, 3], IDENTITY)


class TestConjugate:
    def test_definition(self):
        assert np.array_equal(conjugate([1, 2, 3, 4]), [1, -2, -3, -4])

    def test_real_fixed_point(self):
        assert np.array_equal(conjugate(IDENTITY), IDENTITY)

    def test_involution_exact(self, rng):
        for q in rng.normal(size=(50, 4)):
            assert np.array_equal(conjugate(conjugate(q)), q)

    def test_anti_homomorphism(self, rng):
        qs = random_unit_quats(rng, 200)
        for a, b in zip(qs[::2], qs[1::2]):
            lhs = conjugate(quat_mul(a, b))
            rhs = quat_mul(conjugate(b), conjugate(a))
            assert np.max(np.abs(lhs - rhs)) < 1e-14


class TestNorm:
    def test_simple_values(self):
        assert norm([1, 0, 0, 0]) == 1.0
        assert norm([1, 1, 1, 1]) == 2.0

    def test_worked_example_quaternions_are_unit(self):
        assert norm([0.6533, 0.6533, 0.2706, 0.2706]) == pytest.approx(1.0, abs=1e-4)

    def test_no_overflow_at_large_magnitude(self):
        assert math.isfinite(norm([1e150, 1e150, 0, 0]))


class TestInverse:
    def test_identity(self):
        assert np.array_equal(inverse(IDENTITY), IDENTITY)

    def test_unit_inverse_is_conjugate(self, rng):
        for q in random_unit_quats(rng, 100):
            assert np.max(np.abs(inverse(q) - conjugate(q))) < 1e-15
            assert np.max(np.abs(quat_mul(q, conjugate(q)) - IDENTITY)) < 1e-12

    def test_real_scalar(self):
        # (2,0,0,0) * (0.5,0,0,0) = identity by direct multiplication.
        inv = inverse([2.0, 0, 0, 0])
        assert np.array_equal(inv, [0.5, 0, 0, 0])
        assert np.array_equal(quat_mul([2.0, 0, 0, 0], inv), IDENTITY)

    def test_general_right_inverse(self, rng):
        for q in rng.normal(size=(100, 4)):
            assert np.max(np.abs(quat_mul(q, inverse(q)) - IDENTITY)) < 1e-12

    def test_near_zero_rejected(self):
        with pytest.raises(SingularQuaternionError):
            inverse([1e-13, 0, 0, 0])


class TestProductMatrices:
    def test_left_of_identity(self):
        assert np.array_equal(product_matrix_left(IDENTITY), np.eye(4))

    def test_agree_with_product(self, rng):
        a = rng.normal(size=(1000, 4))
        b = rng.normal(size=(1000, 4))
        worst_l = worst_r = 0.0
        for q, p in zip(a, b):
            direct = quat_mul(q, p)
            worst_l = max(worst_l, np.max(np.abs(product_matrix_left(q) @ p - direct)))
            worst_r = max(worst_r, np.max(np.abs(product_matrix_right(p) @ q - direct)))
        assert worst_l <= 1e-14
        assert worst_r <= 1e-14


class TestCanonicalize:
    def test_negative_scalar_flipped(self):
        assert np.array_equal(canonicalize([-1, 0, 0, 0]), IDENTITY)

    def test_positive_scalar_unchanged(self):
        q = np.array([0.6533, 0.6533, 0.2706, 0.2706])
        assert np.array_equal(canonicalize(q), q)

    def test_zero_scalar_tie_break(self):
        assert np.array_equal(canonicalize([0, -1, 0, 0]), [0, 1, 0, 0])
        assert np.array_equal(canonicalize([0, 0, 0, -1]), [0, 0, 0, 1])

    def test_idempotent_exact(self, rng):
        for q in random_unit_quats(rng, 200):
            c = canonicalize(q)
            assert np.array_equal(canonicalize(c), c)
            assert np.array_equal(canonicalize(-q), c)

    @given(finite_quats)
    def test_sign_pair_collapses(self, q):
        if np.any(q != 0.0):
            assert np.array_equal(canonicalize(q), canonicalize(-q))


class TestNormalized:
    def test_divides_by_norm(self):
        assert np.array_equal(normalized([2.0, 0, 0, 0]), IDENTITY)

    def test_rejects_zero(self):
        with pytest.raises(SingularQuaternionError):
            normalized([0.0, 0, 0, 0])
