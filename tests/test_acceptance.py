"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.
"""

import json
import math
import subprocess
import sys

import numpy as np

import attikit as ak
from conftest import random_unit_quats, sample_trajectory

SEED = 74839
Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])
IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def build_qa_qb():
    z45 = ak.from_axis_angle(Z, math.pi / 4)
    x90 = ak.from_axis_angle(X, math.pi / 2)
    return ak.quat_mul(z45, x90), ak.quat_mul(x90, z45)


def test_criterion_01_worked_example_fixtures():
    qa, qb = build_qa_qb()
    assert np.max(np.abs(qa - [0.6533, 0.6533, 0.2706, 0.2706])) < 5e-5
    assert np.max(np.abs(qb - [0.6533, 0.6533, -0.2706, 0.2706])) < 5e-5
    # Full sandwich products, including the (vanishing) scalar component.
    z_hat = ak.pure([0.0, 0.0, 1.0])
    xa = ak.quat_mul(ak.quat_mul(qa, z_hat), ak.conjugate(qa))
    xb = ak.quat_mul(ak.quat_mul(qb, z_hat), ak.conjugate(qb))
    assert np.max(np.abs(xa - [0.0, 0.7071, -0.7071, 0.0])) < 5e-5
    assert np.max(np.abs(xb - [0.0, 0.0, -1.0, 0.0])) < 5e-5
    report(1, "worked-example fixtures qa, qb, xa, xb match to 5e-5")


def test_criterion_02_oracle_triangle():
    rng = np.random.default_rng(SEED)
    qs = random_unit_quats(rng, 10_000)
    vs = rng.normal(size=(10_000, 3))
    aa = ak.to_axis_angle(qs)
    sandwich = ak.rotate_vector(qs, vs)
    matrix = np.einsum("nij,nj->ni", ak.to_rotation_matrix(qs), vs)
    rod = ak.rodrigues_rotate(aa.axis, aa.angle, vs)
    worst_fwd = max(
        np.max(np.abs(sandwich - matrix)),
        np.max(np.abs(sandwich - rod)),
        np.max(np.abs(matrix - rod)),
    )
    rod_inv = ak.rodrigues_rotate(aa.axis, aa.angle, vs, direction="global-to-local")
    worst_inv = np.max(np.abs(rod_inv - ak.rotate_vector_inverse(qs, vs)))
    assert worst_fwd < 1e-12
    assert worst_inv < 1e-12
    report(2, f"sandwich/matrix/Rodrigues triangle agrees ({worst_fwd:.2e}, inverse {worst_inv:.2e})")


def test_criterion_03_eg_identities():
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for q in random_unit_quats(rng, 10_000):
        e, g = ak.eg_matrices(q)
        r = ak.to_rotation_matrix(q)
        worst = max(
            worst,
            np.max(np.abs(e @ e.T - np.eye(3))),
            np.max(np.abs(g @ g.T - np.eye(3))),
            np.max(np.abs(e @ g.T - r)),
            np.max(np.abs(r.T @ r - np.eye(3))),
            abs(np.linalg.det(r) - 1.0),
        )
    assert worst < 1e-12
    report(3, f"EE'=I, GG'=I, EG'=R, R in SO(3) (worst {worst:.2e})")


def test_criterion_04_derivative_equivalences():
    rng = np.random.default_rng(SEED + 4)
    qs = random_unit_quats(rng, 10_000)
    w_body = rng.normal(size=(10_000, 3))
    w_world = ak.rotate_vector(qs, w_body)
    e, g = ak.eg_matrices(qs)
    qd = ak.qdot_from_body_rates(qs, w_body)
    forms = (
        ak.qdot_from_world_rates(qs, w_world),
        0.5 * np.einsum("nij,ni->nj", g, w_body),  # G^T w_body
        0.5 * np.einsum("nij,ni->nj", e, w_world),  # E^T w_world
    )
    worst_forms = max(np.max(np.abs(other - qd)) for other in forms)
    worst_recovery = max(
        np.max(np.abs(ak.body_rates_from_qdot(qs, qd) - w_body)),
        np.max(np.abs(ak.world_rates_from_qdot(qs, qd) - w_world)),
    )
    assert worst_forms < 1e-13
    assert worst_recovery < 1e-12
    report(4, f"four qdot forms agree ({worst_forms:.2e}); rate recovery inverts ({worst_recovery:.2e})")


def test_criterion_05_finite_difference_checks():
    rng = np.random.default_rng(SEED + 5)
    h = 1e-5
    worst_qd = worst_rdot = worst_accel = 0.0
    for _ in range(30):
        traj = sample_trajectory(rng)
        t = rng.uniform(0.2, 0.8)
        q, qd, qdd = traj.q(t), traj.qdot(t), traj.qddot(t)
        fd_q = (traj.q(t + h) - traj.q(t - h)) / (2 * h)
        worst_qd = max(worst_qd, np.max(np.abs(qd - fd_q)))
        rdot, _ = ak.rotation_matrix_rate(q, qd)
        fd_r = (ak.to_rotation_matrix(traj.q(t + h)) - ak.to_rotation_matrix(traj.q(t - h))) / (2 * h)
        worst_rdot = max(worst_rdot, np.max(np.abs(rdot - fd_r)))
        accel = ak.body_accel_from_q(q, qd, qdd)
        fd_w = (
            ak.body_rates_from_qdot(traj.q(t + h), traj.qdot(t + h))
            - ak.body_rates_from_qdot(traj.q(t - h), traj.qdot(t - h))
        ) / (2 * h)
        worst_accel = max(worst_accel, np.max(np.abs(accel - fd_w)))
    assert worst_qd <= 1e-5
    assert worst_rdot <= 1e-5
    assert worst_accel <= 1e-5
    report(5, f"qdot/Rdot/body-accel match central differences ({worst_qd:.2e}, {worst_rdot:.2e}, {worst_accel:.2e})")


def test_criterion_06_euler_rate_singularity():
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    for theta in np.linspace(-1.5, 1.5, 301):
        phi = rng.uniform(-math.pi, math.pi)
        det = np.linalg.det(ak.euler_321_rate_matrix(phi, theta))
        worst = max(worst, abs(det - math.cos(theta)))
    assert worst < 1e-12
    try:
        ak.euler_rates_from_body_321(0.0, math.pi / 2, [1.0, 0.0, 0.0])
        raise AssertionError("gimbal lock not raised")
    except ak.GimbalLockError:
        pass
    cond = ak.euler_rate_conditioning(math.pi / 2 - 1e-3)
    assert abs(cond - 1000.0) / 1000.0 < 0.01
    report(6, f"det = cos(theta) ({worst:.2e}); lock raised at pi/2; conditioning {cond:.1f}")


def test_criterion_07_round_trips():
    rng = np.random.default_rng(SEED + 7)
    worst_m = worst_aa = worst_e = 0.0
    for q in random_unit_quats(rng, 2_000):
        qc = ak.canonicalize(q)
        worst_m = max(worst_m, np.max(np.abs(ak.from_rotation_matrix(ak.to_rotation_matrix(q)) - qc)))
        aa = ak.to_axis_angle(q)
        worst_aa = max(worst_aa, np.max(np.abs(ak.from_axis_angle(aa.axis, aa.angle) - qc)))
    count = 0
    while count < 2_000:
        phi, psi = rng.uniform(-math.pi, math.pi, size=2)
        theta = rng.uniform(-(math.pi / 2 - 1e-3), math.pi / 2 - 1e-3)
        q = ak.canonicalize(ak.euler_xyz_to_quat(phi, theta, psi))
        e = ak.quat_to_euler_xyz(q)
        assert not e.degenerate
        worst_e = max(worst_e, np.max(np.abs(ak.canonicalize(ak.euler_xyz_to_quat(e.phi, e.theta, e.psi)) - q)))
        count += 1
    assert worst_m < 1e-9 and worst_aa < 1e-9 and worst_e < 1e-9
    # Degenerate extraction still reproduces the rotation matrix.
    q_pole = ak.euler_xyz_to_quat(0.4, math.pi / 2, -0.7)
    e = ak.quat_to_euler_xyz(q_pole)
    assert e.degenerate
    r_err = np.max(
        np.abs(
            ak.to_rotation_matrix(ak.euler_xyz_to_quat(e.phi, e.theta, e.psi))
            - ak.to_rotation_matrix(q_pole)
        )
    )
    assert r_err < 1e-6
    report(7, f"round trips matrix/axis-angle/euler ({worst_m:.2e}, {worst_aa:.2e}, {worst_e:.2e}); degenerate re-encodes R ({r_err:.2e})")


def test_criterion_08_double_cover():
    rng = np.random.default_rng(SEED + 8)
    for q in random_unit_quats(rng, 500):
        v = rng.normal(size=3)
        assert np.array_equal(ak.to_rotation_matrix(q), ak.to_rotation_matrix(-q))
        assert np.array_equal(ak.rotate_vector(q, v), ak.rotate_vector(-q, v))
        assert np.array_equal(ak.canonicalize(q), ak.canonicalize(-q))
    report(8, "q and -q give bit-identical matrices/rotations; canonicalize collapses the pair")


def test_criterion_09_propagation():
    profile = ak.RateProfile.constant([0.0, 0.0, math.pi / 2])
    target = ak.from_axis_angle(Z, math.pi / 2)
    exp_states = ak.propagate_quaternion(IDENTITY, profile, 1e-3, 1.0, method="expmap")
    err_exp = np.max(np.abs(exp_states[-1].q - target))
    rk4_states = ak.propagate_quaternion(IDENTITY, profile, 1e-3, 1.0, method="rk4")
    err_rk4 = np.max(np.abs(rk4_states[-1].q - target))
    assert err_exp < 1e-12
    assert err_rk4 < 1e-6
    for s in exp_states + rk4_states:
        assert abs(np.linalg.norm(s.q) - 1.0) < 1e-12
    report(9, f"constant-rate propagation: expmap {err_exp:.2e}, rk4 {err_rk4:.2e}, unit norm held")


def test_criterion_10_unwinding():
    theta0 = 2.0 * math.pi - 0.1
    states, summary = ak.simulate_unwinding(theta0, 0.0, 1.0, 2.0, 1e-3, 30.0)
    assert abs(summary.final_theta) <= 1e-3
    assert summary.path_length >= 6.13
    assert abs(summary.short_way - 0.1) < 1e-12
    ts = np.array([s.t for s in states])
    thetas = np.array([s.theta for s in states])
    ref_err = np.max(np.abs(thetas - ak.critically_damped_reference(theta0, ts)))
    assert ref_err < 1e-6
    report(10, f"unwinding: path {summary.path_length:.3f} vs short way 0.1; closed-form error {ref_err:.2e}")


def test_criterion_11_error_dynamics():
    rng = np.random.default_rng(SEED + 11)
    worst = 0.0
    for qs in random_unit_quats(rng, 10_000).reshape(-1, 2, 4):
        q_d, q = qs
        q_e = ak.error_quaternion(q_d, q)
        recomposed = ak.quat_mul(q_d, q_e)
        worst = max(worst, min(np.max(np.abs(recomposed - q)), np.max(np.abs(recomposed + q))))
    assert worst < 1e-12
    # Finite-difference check along coupled constant-rate trajectories.
    h = 1e-5
    q0 = random_unit_quats(rng, 2)
    w_body = np.array([0.3, -0.4, 0.6])
    w_des = np.array([-0.2, 0.5, 0.1])
    qs_traj = ak.propagate_quaternion(q0[0], ak.RateProfile.constant(w_body), h, 0.02, method="expmap")
    qd_traj = ak.propagate_quaternion(q0[1], ak.RateProfile.constant(w_des), h, 0.02, method="expmap")
    worst_fd = 0.0
    for i in (1, 500, 1500):
        q_e = ak.quat_mul(ak.conjugate(qd_traj[i].q), qs_traj[i].q)
        w_des_body = ak.desired_rate_to_body_frame(q_e, w_des)
        analytic = 0.5 * ak.quat_mul(q_e, ak.pure(w_body - w_des_body))
        fd = (
            ak.quat_mul(ak.conjugate(qd_traj[i + 1].q), qs_traj[i + 1].q)
            - ak.quat_mul(ak.conjugate(qd_traj[i - 1].q), qs_traj[i - 1].q)
        ) / (2 * h)
        worst_fd = max(worst_fd, np.max(np.abs(analytic - fd)))
    assert worst_fd < 1e-5
    fixed = ak.error_quaternion_rate(IDENTITY, [0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
    assert np.array_equal(fixed, np.zeros(4))
    report(11, f"q_d∘q_e recomposes q ({worst:.2e}); rate matches finite differences ({worst_fd:.2e}); fixed point exact")


def test_criterion_12_cli_fixtures_and_determinism():
    z45 = "0.923879532511287,0,0,0.38268343236509"
    x90 = "0.707106781186548,0.707106781186548,0,0"

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "attikit", *args], capture_output=True, text=True
        )

    outs = []
    for _ in range(2):
        a = run("compose", "--base", z45, "--perturbation", x90, "--frame", "local", "--precision", "4")
        b = run("compose", "--base", z45, "--perturbation", x90, "--frame", "global", "--precision", "4")
        assert a.returncode == 0 and b.returncode == 0
        outs.append((a.stdout, b.stdout))
    assert outs[0] == outs[1]
    qa = json.loads(outs[0][0])
    qb = json.loads(outs[0][1])
    assert qa == {"q0": 0.6533, "q1": 0.6533, "q2": 0.2706, "q3": 0.2706}
    assert qb == {"q0": 0.6533, "q1": 0.6533, "q2": -0.2706, "q3": 0.2706}
    qa_full = run("compose", "--base", z45, "--perturbation", x90, "--precision", "15")
    qa_vals = json.loads(qa_full.stdout)
    qa_text = ",".join(str(qa_vals[k]) for k in ("q0", "q1", "q2", "q3"))
    ra = run("rotate", "--quat", qa_text, "--vec", "0,0,1", "--precision", "4")
    assert json.loads(ra.stdout)["v"] == [0.7071, -0.7071, 0.0]
    qb_full = run("compose", "--base", z45, "--perturbation", x90, "--frame", "global", "--precision", "15")
    qb_vals = json.loads(qb_full.stdout)
    qb_text = ",".join(str(qb_vals[k]) for k in ("q0", "q1", "q2", "q3"))
    rb = run("rotate", "--quat", qb_text, "--vec", "0,0,1", "--precision", "4")
    assert json.loads(rb.stdout)["v"] == [0.0, -1.0, 0.0]
    report(12, "CLI compose/rotate reproduce the worked example at 4 decimals, byte-identical across runs")
