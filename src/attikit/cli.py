"""Command-line interface.

Subcommands: convert, compose, rotate, integrate, demo-unwinding,
demo-gimbal-lock.  Quaternions are written on the command line as
"q0,q1,q2,q3" (scalar first), matrices as 9 row-major comma-separated
values.  All angles are radians unless --angle-unit deg is given, in which
case degrees are converted at this boundary and never seen internally.

Exit codes: 0 success (a flagged gimbal-lock halt or degenerate extraction
is still success: the flag is the result), 2 parse/IO error, 3 invalid
mathematical input.

Trajectory CSV goes to --output when given (summary JSON then on stdout),
otherwise to stdout (summary JSON on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import algebra, checks, conversions, simulation
from .errors import AttitudeError

CLI_UNIT_TOLERANCE = 1e-6  # looser than the library: hand-typed quats get normalized

EXIT_PARSE = 2
EXIT_INVALID = 3

REPRS = ("quat", "matrix", "axis-angle", "euler-xyz", "jpl")


def _precision_default() -> int:
    raw = os.environ.get("ATTIKIT_PRECISION")
    if raw is None:
        return 12
    try:
        return int(raw)
    except ValueError:
        print(f"error: ATTIKIT_PRECISION must be an integer, got {raw!r}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _check_precision(p: int) -> int:
    if not 4 <= p <= 17:
        print(f"error: precision {p} outside [4, 17]", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    return p


def _round(x: float, p: int) -> float:
    r = round(float(x), p)
    return 0.0 if r == 0.0 else r  # collapse -0.0


def _parse_floats(text: str, n: int, what: str) -> np.ndarray:
    try:
        vals = [float(tok) for tok in text.split(",")]
    except ValueError:
        print(f"error: cannot parse {what} from {text!r}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    if len(vals) != n:
        print(f"error: {what} needs {n} comma-separated values, got {len(vals)}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    return np.array(vals)


def _parse_unit_quat(text: str, what: str = "quaternion") -> np.ndarray:
    q = checks.require_unit(_parse_floats(text, 4, what), CLI_UNIT_TOLERANCE, what)
    return algebra.normalized(q)


def _angle_in(x: float, unit: str) -> float:
    return math.radians(x) if unit == "deg" else x


def _angle_out(x: float, unit: str) -> float:
    return math.degrees(x) if unit == "deg" else x


def _emit(payload: dict, values: list[float], fmt: str, p: int) -> None:
    if fmt == "csv":
        print(",".join(f"{_round(v, p):.{p}g}" for v in values))
    else:
        rounded = {
            k: (_round(v, p) if isinstance(v, float) else [_round(x, p) for x in v] if isinstance(v, list) else v)
            for k, v in payload.items()
        }
        print(json.dumps(rounded))


def _decode_to_quat(repr_name: str, value: str, unit: str) -> np.ndarray:
    if repr_name == "quat":
        return _parse_unit_quat(value)
    if repr_name == "matrix":
        r = _parse_floats(value, 9, "matrix").reshape(3, 3)
        return conversions.from_rotation_matrix(r)
    if repr_name == "axis-angle":
        v = _parse_floats(value, 4, "axis-angle")
        axis = checks.require_unit_axis(v[:3], CLI_UNIT_TOLERANCE)
        return conversions.from_axis_angle(axis / np.linalg.norm(axis), _angle_in(v[3], unit))
    if repr_name == "euler-xyz":
        e = _parse_floats(value, 3, "euler-xyz")
        return conversions.euler_xyz_to_quat(
            _angle_in(e[0], unit), _angle_in(e[1], unit), _angle_in(e[2], unit)
        )
    if repr_name == "jpl":
        return conversions.jpl_to_hamilton(_parse_unit_quat(value, "jpl quaternion"))
    raise AssertionError(repr_name)


def _encode_from_quat(repr_name: str, q: np.ndarray, unit: str) -> tuple[dict, list[float]]:
    if repr_name == "quat":
        qc = algebra.canonicalize(q)
        payload = {"q0": qc[0], "q1": qc[1], "q2": qc[2], "q3": qc[3]}
        return payload, list(qc)
    if repr_name == "matrix":
        r = conversions.to_rotation_matrix(q).reshape(-1)
        return {"r": list(r)}, list(r)
    if repr_name == "axis-angle":
        aa = conversions.to_axis_angle(q)
        angle = _angle_out(aa.angle, unit)
        return {"axis": list(aa.axis), "angle": angle}, [*aa.axis, angle]
    if repr_name == "euler-xyz":
        e = conversions.quat_to_euler_xyz(q)
        payload = {
            "phi": _angle_out(e.phi, unit),
            "theta": _angle_out(e.theta, unit),
            "psi": _angle_out(e.psi, unit),
        }
        if e.degenerate:
            payload["degenerate"] = True
        return payload, [payload["phi"], payload["theta"], payload["psi"]]
    if repr_name == "jpl":
        j = conversions.hamilton_to_jpl(algebra.canonicalize(q))
        return {"jpl": list(j)}, list(j)
    raise AssertionError(repr_name)


def cmd_convert(args) -> int:
    q = _decode_to_quat(args.source, args.value, args.angle_unit)
    payload, values = _encode_from_quat(args.target, q, args.angle_unit)
    _emit(payload, values, args.output_format, args.precision)
    return 0


def cmd_compose(args) -> int:
    base = _parse_unit_quat(args.base, "base quaternion")
    pert = _parse_unit_quat(args.perturbation, "perturbation quaternion")
    if args.frame == "local":
        q = algebra.quat_mul(base, pert)
    else:
        q = algebra.quat_mul(pert, base)
    payload = {"q0": q[0], "q1": q[1], "q2": q[2], "q3": q[3]}
    _emit(payload, list(q), args.output_format, args.precision)
    return 0


def cmd_rotate(args) -> int:
    q = _parse_unit_quat(args.quat)
    v = _parse_floats(args.vec, 3, "vector")
    if args.direction == "local-to-global":
        out = conversions.rotate_vector(q, v)
    else:
        out = conversions.rotate_vector_inverse(q, v)
    _emit({"v": list(out)}, list(out), args.output_format, args.precision)
    return 0


def _open_sink(args):
    if args.output:
        return open(args.output, "w", encoding="utf-8", newline="\n"), sys.stdout
    return sys.stdout, sys.stderr


def _load_profile(args) -> simulation.RateProfile:
    if getattr(args, "profile", None):
        if not os.path.exists(args.profile):
            print(f"error: no such file: {args.profile}", file=sys.stderr)
            raise SystemExit(EXIT_PARSE)
        try:
            return simulation.RateProfile.from_csv(args.profile)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_PARSE)
    return simulation.RateProfile.constant(_parse_floats(args.rate, 3, "rate"))


def cmd_integrate(args) -> int:
    q0 = _parse_unit_quat(args.q0, "initial quaternion")
    profile = _load_profile(args)
    states = simulation.propagate_quaternion(q0, profile, args.dt, args.t1, method=args.method)
    p = args.precision
    sink, side = _open_sink(args)
    try:
        sink.write("t,q0,q1,q2,q3,p,q,r\n")
        for s in states:
            row = [s.t, *s.q, *s.w_body]
            sink.write(",".join(f"{_round(x, p):.{p}g}" for x in row) + "\n")
    finally:
        if sink is not sys.stdout:
            sink.close()
    final = states[-1]
    summary = {
        "t": _round(final.t, p),
        "q0": _round(final.q[0], p),
        "q1": _round(final.q[1], p),
        "q2": _round(final.q[2], p),
        "q3": _round(final.q[3], p),
    }
    print(json.dumps(summary), file=side)
    return 0


def cmd_demo_unwinding(args) -> int:
    states, summary = simulation.simulate_unwinding(
        args.theta0, args.omega0, args.k, args.c, args.dt, args.t1
    )
    p = args.precision
    sink, side = _open_sink(args)
    try:
        sink.write("t,theta,omega,u\n")
        for s in states:
            sink.write(
                ",".join(f"{_round(x, p):.{p}g}" for x in (s.t, s.theta, s.omega, s.u)) + "\n"
            )
    finally:
        if sink is not sys.stdout:
            sink.close()
    payload = {
        "final_theta": _round(summary.final_theta, p),
        "path_length": _round(summary.path_length, p),
        "short_way": _round(summary.short_way, p),
    }
    print(json.dumps(payload), file=side)
    return 0


def cmd_demo_gimbal_lock(args) -> int:
    if args.profile:
        profile = _load_profile(args)
        dt = args.dt
    else:
        profile = simulation.pitch_sweep_profile(args.pitch_rate)
        dt = simulation.pitch_sweep_dt(args.pitch_rate, args.dt)
    e0 = _parse_floats(args.e0, 3, "initial Euler angles")
    traj = simulation.propagate_euler_321(e0, profile, dt, args.t1)
    p = args.precision
    sink, side = _open_sink(args)
    try:
        sink.write("t,phi,theta,psi,conditioning,flag\n")
        last = len(traj.states) - 1
        for i, s in enumerate(traj.states):
            flag = 1 if (traj.gimbal_locked and i == last) else 0
            vals = ",".join(
                f"{_round(x, p):.{p}g}" for x in (s.t, s.phi, s.theta, s.psi, s.conditioning)
            )
            sink.write(f"{vals},{flag}\n")
    finally:
        if sink is not sys.stdout:
            sink.close()
    final = traj.states[-1]
    payload = {
        "gimbal_lock": traj.gimbal_locked,
        "t": _round(final.t, p),
        "theta": _round(final.theta, p),
        "conditioning": _round(final.conditioning, p),
    }
    print(json.dumps(payload), file=side)
    return 0


def _add_common(sub, output_format: bool = True) -> None:
    sub.add_argument("--precision", type=int, default=None, help="decimal digits, 4..17")
    if output_format:
        sub.add_argument("--output-format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="attikit", description=__doc__.split("\n")[1])
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("convert", help="convert between attitude representations")
    c.add_argument("--from", dest="source", choices=REPRS, required=True)
    c.add_argument("--to", dest="target", choices=REPRS, required=True)
    c.add_argument("--value", required=True)
    c.add_argument("--angle-unit", choices=("rad", "deg"), default="rad")
    _add_common(c)
    c.set_defaults(func=cmd_convert)

    c = sub.add_parser("compose", help="compose a base attitude with a perturbation")
    c.add_argument("--base", required=True)
    c.add_argument("--perturbation", required=True)
    c.add_argument("--frame", choices=("local", "global"), default="local")
    _add_common(c)
    c.set_defaults(func=cmd_compose)

    c = sub.add_parser("rotate", help="rotate a vector by a unit quaternion")
    c.add_argument("--quat", required=True)
    c.add_argument("--vec", required=True)
    c.add_argument(
        "--direction", choices=("local-to-global", "global-to-local"), default="local-to-global"
    )
    _add_common(c)
    c.set_defaults(func=cmd_rotate)

    c = sub.add_parser("integrate", help="propagate a quaternion under a body-rate profile")
    c.add_argument("--q0", default="1,0,0,0")
    g = c.add_mutually_exclusive_group(required=True)
    g.add_argument("--profile", help="CSV file with header t,p,q,r (zero-order hold)")
    g.add_argument("--rate", help="constant body rate 'p,q,r'")
    c.add_argument("--dt", type=float, required=True)
    c.add_argument("--t1", type=float, required=True)
    c.add_argument("--method", choices=("rk4", "expmap"), default="rk4")
    c.add_argument("--output", help="trajectory CSV file (default: stdout)")
    _add_common(c, output_format=False)
    c.set_defaults(func=cmd_integrate)

    c = sub.add_parser("demo-unwinding", help="planar unwinding demonstration")
    c.add_argument("--theta0", type=float, default=2.0 * math.pi - 0.1)
    c.add_argument("--omega0", type=float, default=0.0)
    c.add_argument("--k", type=float, default=1.0)
    c.add_argument("--c", type=float, default=2.0)
    c.add_argument("--dt", type=float, default=1e-3)
    c.add_argument("--t1", type=float, default=30.0)
    c.add_argument("--output", help="trajectory CSV file (default: stdout)")
    _add_common(c, output_format=False)
    c.set_defaults(func=cmd_demo_unwinding)

    c = sub.add_parser("demo-gimbal-lock", help="Euler-rate singularity demonstration")
    c.add_argument("--pitch-rate", type=float, default=0.5)
    c.add_argument("--profile", help="CSV rate profile instead of the built-in pitch sweep")
    c.add_argument("--e0", default="0,0,0")
    c.add_argument("--dt", type=float, default=1e-3)
    c.add_argument("--t1", type=float, default=4.0)
    c.add_argument("--output", help="trajectory CSV file (default: stdout)")
    _add_common(c, output_format=False)
    c.set_defaults(func=cmd_demo_gimbal_lock)

    return parser


_VALUE_FLAGS = {"--value", "--base", "--perturbation", "--quat", "--vec", "--q0", "--rate", "--e0"}


def _join_value_flags(argv):
    # Lets users write e.g. --value "-1,0,0,0" without argparse mistaking the
    # leading minus for an option.
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_join_value_flags(list(argv)))
    if args.precision is None:
        args.precision = _precision_default()
    _check_precision(args.precision)
    try:
        return args.func(args)
    except AttitudeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
