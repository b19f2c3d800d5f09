import csv
import json
import math
import subprocess
import sys

import pytest

Q_Z45 = "0.923879532511287,0,0,0.38268343236509"
Q_X90 = "0.707106781186548,0.707106781186548,0,0"


def run_cli(*args, env_extra=None):
    import os

    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "attikit", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestConvert:
    def test_euler_to_quat(self):
        r = run_cli("convert", "--from", "euler-xyz", "--to", "quat", "--value", "1.5707963,0,0")
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert out["q0"] == pytest.approx(0.70711, abs=5e-5)
        assert out["q1"] == pytest.approx(0.70711, abs=5e-5)

    def test_quat_canonicalized(self):
        r = run_cli("convert", "--from", "quat", "--to", "quat", "--value", "-1,0,0,0")
        assert r.returncode == 0
        assert json.loads(r.stdout) == {"q0": 1.0, "q1": 0.0, "q2": 0.0, "q3": 0.0}

    def test_quat_to_matrix_identity(self):
        r = run_cli("convert", "--from", "quat", "--to", "matrix", "--value", "1,0,0,0")
        assert json.loads(r.stdout)["r"] == [1, 0, 0, 0, 1, 0, 0, 0, 1]

    def test_degrees_boundary(self):
        r = run_cli(
            "convert",
            "--from", "euler-xyz", "--to", "quat",
            "--value", "90,0,0", "--angle-unit", "deg",
        )
        out = json.loads(r.stdout)
        assert out["q0"] == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_degenerate_extraction_exits_zero_with_flag(self):
        # theta = pi/2 exactly: gimbal-locked extraction is a result, not an error.
        q = f"{math.sqrt(0.5):.17g},0,{math.sqrt(0.5):.17g},0"
        r = run_cli("convert", "--from", "quat", "--to", "euler-xyz", "--value", q)
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert out["degenerate"] is True
        assert out["psi"] == 0.0

    def test_parse_failure_exit_2(self):
        r = run_cli("convert", "--from", "quat", "--to", "quat", "--value", "1,0,frog,0")
        assert r.returncode == 2

    def test_invalid_rotation_exit_3(self):
        r = run_cli("convert", "--from", "matrix", "--to", "quat", "--value", "1,0,0,0,1,0,0,0,2")
        assert r.returncode == 3

    def test_non_unit_quat_exit_3(self):
        r = run_cli("convert", "--from", "quat", "--to", "matrix", "--value", "1,1,0,0")
        assert r.returncode == 3

    def test_jpl_round_trip(self):
        r = run_cli("convert", "--from", "quat", "--to", "jpl", "--value", Q_Z45)
        jpl = json.loads(r.stdout)["jpl"]
        r2 = run_cli("convert", "--from", "jpl", "--to", "quat", "--value", ",".join(map(str, jpl)))
        out = json.loads(r2.stdout)
        assert out["q0"] == pytest.approx(0.923879532511, abs=1e-9)
        assert out["q3"] == pytest.approx(0.382683432365, abs=1e-9)

    def test_csv_output_format(self):
        r = run_cli(
            "convert", "--from", "quat", "--to", "quat", "--value", "1,0,0,0",
            "--output-format", "csv",
        )
        assert r.stdout.strip() == "1,0,0,0"


class TestComposeRotate:
    def test_worked_example_case_a(self):
        r = run_cli(
            "compose", "--base", Q_Z45, "--perturbation", Q_X90,
            "--frame", "local", "--precision", "4",
        )
        assert json.loads(r.stdout) == {"q0": 0.6533, "q1": 0.6533, "q2": 0.2706, "q3": 0.2706}

    def test_worked_example_case_b(self):
        r = run_cli(
            "compose", "--base", Q_Z45, "--perturbation", Q_X90,
            "--frame", "global", "--precision", "4",
        )
        assert json.loads(r.stdout) == {"q0": 0.6533, "q1": 0.6533, "q2": -0.2706, "q3": 0.2706}

    def test_identity_perturbation(self):
        for frame in ("local", "global"):
            r = run_cli("compose", "--base", Q_Z45, "--perturbation", "1,0,0,0", "--frame", frame)
            out = json.loads(r.stdout)
            assert out["q0"] == pytest.approx(0.923879532511287, abs=1e-12)

    def test_rotate_worked_example_vectors(self):
        ra = run_cli("compose", "--base", Q_Z45, "--perturbation", Q_X90, "--precision", "15")
        qa = json.loads(ra.stdout)
        qa_text = ",".join(str(qa[k]) for k in ("q0", "q1", "q2", "q3"))
        r = run_cli("rotate", "--quat", qa_text, "--vec", "0,0,1", "--precision", "4")
        assert json.loads(r.stdout)["v"] == [0.7071, -0.7071, 0.0]

    def test_rotate_identity(self):
        r = run_cli("rotate", "--quat", "1,0,0,0", "--vec", "3,-4,5")
        assert json.loads(r.stdout)["v"] == [3.0, -4.0, 5.0]

    def test_byte_identical_repeats(self):
        runs = [
            run_cli("compose", "--base", Q_Z45, "--perturbation", Q_X90, "--precision", "4")
            for _ in range(3)
        ]
        assert len({r.stdout for r in runs}) == 1

    def test_non_unit_exit_3(self):
        r = run_cli("compose", "--base", "1,1,1,1", "--perturbation", "1,0,0,0")
        assert r.returncode == 3


class TestPrecisionConfig:
    def test_env_override(self):
        r = run_cli(
            "rotate", "--quat", "1,0,0,0", "--vec", "0.123456789,0,0",
            env_extra={"ATTIKIT_PRECISION": "4"},
        )
        assert json.loads(r.stdout)["v"][0] == 0.1235

    def test_flag_beats_env(self):
        r = run_cli(
            "rotate", "--quat", "1,0,0,0", "--vec", "0.123456789,0,0",
            "--precision", "6", env_extra={"ATTIKIT_PRECISION": "4"},
        )
        assert json.loads(r.stdout)["v"][0] == 0.123457

    def test_out_of_range_precision_rejected(self):
        r = run_cli("rotate", "--quat", "1,0,0,0", "--vec", "1,0,0", "--precision", "3")
        assert r.returncode == 2

    def test_non_integer_env_precision_explained(self):
        r = run_cli(
            "rotate", "--quat", "1,0,0,0", "--vec", "1,0,0",
            env_extra={"ATTIKIT_PRECISION": "abc"},
        )
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == "error: ATTIKIT_PRECISION must be an integer, got 'abc'\n"


class TestIntegrate:
    def test_constant_rate_expmap_fixture(self, tmp_path):
        out = tmp_path / "traj.csv"
        r = run_cli(
            "integrate", "--q0", "1,0,0,0", "--rate", f"0,0,{math.pi / 2:.17g}",
            "--dt", "0.001", "--t1", "1", "--method", "expmap", "--output", str(out),
        )
        assert r.returncode == 0
        # Final attitude is from_axis_angle(z, pi/2) = (0.70711, 0, 0, 0.70711).
        summary = json.loads(r.stdout)
        assert summary["q0"] == pytest.approx(math.sqrt(0.5), abs=5e-5)
        assert summary["q3"] == pytest.approx(math.sqrt(0.5), abs=5e-5)
        with open(out) as f:
            rows = list(csv.DictReader(f))
        assert list(rows[0]) == ["t", "q0", "q1", "q2", "q3", "p", "q", "r"]
        assert len(rows) == 1001

    def test_profile_csv(self, tmp_path):
        prof = tmp_path / "prof.csv"
        prof.write_text("t,p,q,r\n0,0,0,0\n")
        r = run_cli(
            "integrate", "--profile", str(prof), "--dt", "0.1", "--t1", "0.5"
        )
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "t,q0,q1,q2,q3,p,q,r"
        assert lines[-1].startswith("0.5,1,0,0,0")

    def test_missing_profile_exit_2(self):
        r = run_cli("integrate", "--profile", "/nonexistent.csv", "--dt", "0.1", "--t1", "1")
        assert r.returncode == 2


class TestDemos:
    def test_unwinding_defaults_summary(self, tmp_path):
        out = tmp_path / "u.csv"
        r = run_cli("demo-unwinding", "--output", str(out))
        assert r.returncode == 0
        summary = json.loads(r.stdout)
        assert summary["path_length"] >= 6.13
        assert summary["short_way"] == pytest.approx(0.1, abs=1e-9)
        assert abs(summary["final_theta"]) <= 1e-3
        with open(out) as f:
            header = f.readline().strip()
        assert header == "t,theta,omega,u"

    def test_unwinding_invalid_gains_exit_3(self):
        r = run_cli("demo-unwinding", "--k", "-1")
        assert r.returncode == 3

    def test_gimbal_lock_sweep(self, tmp_path):
        out = tmp_path / "g.csv"
        r = run_cli("demo-gimbal-lock", "--output", str(out))
        assert r.returncode == 0
        summary = json.loads(r.stdout)
        assert summary["gimbal_lock"] is True
        with open(out) as f:
            rows = list(csv.DictReader(f))
        assert list(rows[0]) == ["t", "phi", "theta", "psi", "conditioning", "flag"]
        last = rows[-1]
        assert float(last["conditioning"]) > 1e8
        assert last["flag"] == "1"
        assert float(last["theta"]) == pytest.approx(math.pi / 2, abs=1e-6)

    def test_demos_deterministic(self, tmp_path):
        outputs = []
        for i in range(2):
            out = tmp_path / f"g{i}.csv"
            run_cli("demo-gimbal-lock", "--output", str(out))
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
