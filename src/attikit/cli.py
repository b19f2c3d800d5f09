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
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import algebra, checks, conversions, simulation
from .errors import AttitudeError

EXIT_PARSE = 2
EXIT_INVALID = 3

REPRS = ("quat", "matrix", "axis-angle", "euler-xyz", "jpl")


class _ParseError(Exception):
    """A command-line value or input file that cannot be read (exit 2)."""


def _precision(flag: int | None) -> int:
    """--precision, else ATTIKIT_PRECISION, else 12; it must lie in [4, 17]."""
    if flag is None:
        raw = os.environ.get("ATTIKIT_PRECISION", "12")
        try:
            flag = int(raw)
        except ValueError:
            raise _ParseError(f"ATTIKIT_PRECISION must be an integer, got {raw!r}") from None
    if not 4 <= flag <= 17:
        raise _ParseError(f"precision {flag} outside [4, 17]")
    return flag


def _round(x: float, p: int) -> float:
    r = round(float(x), p)
    return 0.0 if r == 0.0 else r  # collapse -0.0


def _parse_floats(text: str, n: int, what: str) -> np.ndarray:
    try:
        vals = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise _ParseError(f"cannot parse {what} from {text!r}") from None
    if len(vals) != n:
        raise _ParseError(f"{what} needs {n} comma-separated values, got {len(vals)}")
    return np.array(vals)


def _parse_unit_quat(text: str, what: str = "quaternion") -> np.ndarray:
    q = checks.require_unit(_parse_floats(text, 4, what), checks.CLI_UNIT_TOLERANCE, what)
    return algebra._unit(q)


def _angle_in(x: float, unit: str) -> float:
    return math.radians(x) if unit == "deg" else x


def _angle_out(x: float, unit: str) -> float:
    return math.degrees(x) if unit == "deg" else x


def _rounded(payload: dict, p: int) -> dict:
    """The payload with its float and list entries rounded to p decimal places."""
    return {
        k: (_round(v, p) if isinstance(v, float) else [_round(x, p) for x in v] if isinstance(v, list) else v)
        for k, v in payload.items()
    }


def _csv_lines(rows, width: int, p: int):
    """CSV lines: each value rounded to p decimal places, then printed with at most p significant digits."""
    line = ",".join([f"%.{p}g"] * width) + "\n"
    return (line % tuple(_round(v, p) for v in row) for row in rows)


def _emit(payload: dict, fmt: str, p: int) -> None:
    if fmt == "csv":
        # One row: the float and list entries in order; a flag such as "degenerate" is left out.
        values = (x for v in payload.values() for x in (v if isinstance(v, list) else [v]))
        row = [x for x in values if isinstance(x, float)]
        sys.stdout.writelines(_csv_lines([row], len(row), p))
    else:
        print(json.dumps(_rounded(payload, p)))


def _write_trajectory(args, header: str, rows, summary: dict) -> None:
    """CSV to --output and the summary JSON to stdout, else CSV to stdout and summary to stderr."""
    if args.output:
        sink, side = open(args.output, "w", encoding="utf-8", newline="\n"), sys.stdout
    else:
        sink, side = contextlib.nullcontext(sys.stdout), sys.stderr
    with sink as f:
        f.write(header + "\n")
        f.writelines(_csv_lines(rows, header.count(",") + 1, args.precision))
    print(json.dumps(_rounded(summary, args.precision)), file=side)


def _quat_payload(q) -> dict:
    return {"q0": q[0], "q1": q[1], "q2": q[2], "q3": q[3]}


def _decode_to_quat(repr_name: str, value: str, unit: str) -> np.ndarray:
    if repr_name == "quat":
        return _parse_unit_quat(value)
    if repr_name == "matrix":
        r = _parse_floats(value, 9, "matrix").reshape(3, 3)
        return conversions.from_rotation_matrix(r)
    if repr_name == "axis-angle":
        v = _parse_floats(value, 4, "axis-angle")
        axis = checks.require_unit_axis(v[:3], checks.CLI_UNIT_TOLERANCE)
        return conversions.from_axis_angle(axis / np.linalg.norm(axis), _angle_in(v[3], unit))
    if repr_name == "euler-xyz":
        e = _parse_floats(value, 3, "euler-xyz")
        return conversions.euler_xyz_to_quat(
            _angle_in(e[0], unit), _angle_in(e[1], unit), _angle_in(e[2], unit)
        )
    if repr_name == "jpl":
        return conversions.jpl_to_hamilton(_parse_unit_quat(value, "jpl quaternion"))
    raise AssertionError(repr_name)


def _encode_from_quat(repr_name: str, q: np.ndarray, unit: str) -> dict:
    if repr_name == "quat":
        return _quat_payload(algebra.canonicalize(q))
    if repr_name == "matrix":
        return {"r": list(conversions.to_rotation_matrix(q).reshape(-1))}
    if repr_name == "axis-angle":
        aa = conversions.to_axis_angle(q)
        return {"axis": list(aa.axis), "angle": _angle_out(aa.angle, unit)}
    if repr_name == "euler-xyz":
        e = conversions.quat_to_euler_xyz(q)
        payload = {
            "phi": _angle_out(e.phi, unit),
            "theta": _angle_out(e.theta, unit),
            "psi": _angle_out(e.psi, unit),
        }
        if e.degenerate:
            payload["degenerate"] = True
        return payload
    if repr_name == "jpl":
        return {"jpl": list(conversions.hamilton_to_jpl(algebra.canonicalize(q)))}
    raise AssertionError(repr_name)


def cmd_convert(args) -> int:
    q = _decode_to_quat(args.source, args.value, args.angle_unit)
    _emit(_encode_from_quat(args.target, q, args.angle_unit), args.output_format, args.precision)
    return 0


def cmd_compose(args) -> int:
    base = _parse_unit_quat(args.base, "base quaternion")
    pert = _parse_unit_quat(args.perturbation, "perturbation quaternion")
    if args.frame == "local":
        q = algebra._mul(base, pert)
    else:
        q = algebra._mul(pert, base)
    _emit(_quat_payload(q), args.output_format, args.precision)
    return 0


def cmd_rotate(args) -> int:
    q = _parse_unit_quat(args.quat)
    v = _parse_floats(args.vec, 3, "vector")
    if args.direction == "local-to-global":
        out = conversions.rotate_vector(q, v)
    else:
        out = conversions.rotate_vector_inverse(q, v)
    _emit({"v": list(out)}, args.output_format, args.precision)
    return 0


def _load_profile(args) -> simulation.RateProfile:
    if args.profile:
        try:
            return simulation.RateProfile.from_csv(args.profile)
        except ValueError as exc:  # an AttitudeError or a UnicodeDecodeError from the file
            raise _ParseError(exc) from exc
    return simulation.RateProfile.constant(_parse_floats(args.rate, 3, "rate"))


def cmd_integrate(args) -> int:
    q0 = _parse_unit_quat(args.q0, "initial quaternion")
    profile = _load_profile(args)
    states = simulation.propagate_quaternion(q0, profile, args.dt, args.t1, method=args.method)
    rows = ((s.t, *s.q, *s.w_body) for s in states)
    final = states[-1]
    _write_trajectory(args, "t,q0,q1,q2,q3,p,q,r", rows, {"t": final.t, **_quat_payload(final.q)})
    return 0


def cmd_demo_unwinding(args) -> int:
    states, summary = simulation.simulate_unwinding(
        args.theta0, args.omega0, args.k, args.c, args.dt, args.t1
    )
    rows = ((s.t, s.theta, s.omega, s.u) for s in states)
    _write_trajectory(args, "t,theta,omega,u", rows, summary._asdict())
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
    last = len(traj.states) - 1
    rows = (
        (s.t, s.phi, s.theta, s.psi, s.conditioning, float(traj.gimbal_locked and i == last))
        for i, s in enumerate(traj.states)
    )
    final = traj.states[-1]
    summary = {
        "gimbal_lock": traj.gimbal_locked,
        "t": final.t,
        "theta": final.theta,
        "conditioning": final.conditioning,
    }
    _write_trajectory(args, "t,phi,theta,psi,conditioning,flag", rows, summary)
    return 0


def _add_common(sub, output_format: bool = True) -> None:
    sub.add_argument(
        "--precision", type=int, default=None,
        help="decimal places p, 4..17: round to 10^-p; CSV prints at most p significant digits",
    )
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
    c.add_argument(
        "--method", choices=("rk4", "expmap"), default="rk4",
        help="rk4: the commutator-free fourth-order step CF4 (two exponential maps per step; "
        "it keeps the name rk4); expmap: one exponential map of the rate at each step start",
    )
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
    try:
        args.precision = _precision(args.precision)
        return args.func(args)
    except (_ParseError, OSError, AttitudeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID if isinstance(exc, AttitudeError) else EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
