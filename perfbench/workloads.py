"""The three workloads, each a closed loop with one client.

Every workload runs for a wall-clock budget, times each operation, checks
every output outside the timed region, and returns a plain dict: items
done, their busy time, per-operation times, attempted and failed counts and,
when given a tracer, the spans it recorded. ``between`` runs after every
timed call, outside its timing.

Each also returns ``class_s``, the times of every call that repeats once a
round (one list per call), and ``round_items``, the items one round does.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import resource
import subprocess
import threading
import time
import tracemalloc

import numpy as np

import inputs as gen
import reference as ref


# --- batch -------------------------------------------------------------------

# (function, module, argument keys, flattened output width). A key naming a
# chain function stands for that function's output on the same rows.
CHAIN = (
    ("quat_mul", "algebra", ("q", "p"), 4),
    ("rotate_vector", "conversions", ("q", "v"), 3),
    ("rotate_vector_inverse", "conversions", ("q", "v"), 3),
    ("to_rotation_matrix", "conversions", ("q",), 9),
    ("from_rotation_matrix", "conversions", ("to_rotation_matrix",), 4),
    ("quat_to_euler_xyz", "conversions", ("q",), 4),
    ("from_axis_angle", "conversions", ("axis", "angle"), 4),
    ("to_axis_angle", "conversions", ("q",), 4),
    ("error_quaternion", "error_dynamics", ("p", "q"), 4),
    ("eg_matrices", "kinematics", ("q",), 24),
)
INPUT_KEYS = ("q", "p", "v", "axis", "angle")
UNIT_CHECKED = ("algebra", "conversions", "kinematics", "error_dynamics", "simulation")


def _fields(result):
    if isinstance(result, np.ndarray):
        return (result,)
    if dataclasses.is_dataclass(result):
        return tuple(getattr(result, f.name) for f in dataclasses.fields(result))
    return tuple(result)


def _flat(result, n: int, width: int) -> np.ndarray:
    """(n, width) float rows from a list of per-row results or one batched
    result; NaN rows where a call raised or the shape is wrong."""
    if isinstance(result, list):
        out = np.full((n, width), np.nan)
        for i, r in enumerate(result):
            if r is not None:
                row = np.concatenate([np.ravel(np.asarray(f, dtype=float)) for f in _fields(r)])
                if row.size == width:
                    out[i] = row
        return out
    try:
        out = np.concatenate(
            [np.asarray(f, dtype=float).reshape(n, -1) for f in _fields(result)], axis=1
        )
    except (TypeError, ValueError):
        return np.full((n, width), np.nan)
    return out if out.shape == (n, width) else np.full((n, width), np.nan)


def _call(fn, batched: bool, args):
    if batched:
        try:
            return fn(*(a if isinstance(a, np.ndarray) else np.stack(a) for a in args))
        except Exception:
            return None
    out = []
    for row in zip(*args):
        try:
            out.append(fn(*row))
        except Exception:
            out.append(None)
    return out


def probe_modes(attikit, data) -> dict:
    """Per chain function: True when a valid 2-row batch returns the same
    stack as two per-row calls, else False (callers loop over rows)."""
    two = {k: data[k][:2] for k in INPUT_KEYS}
    two["to_rotation_matrix"] = ref.rotation_matrix(two["q"])
    modes = {}
    for name, _, keys, width in CHAIN:
        fn = getattr(attikit, name)
        args = [two[k] for k in keys]
        batched = _call(fn, True, args)
        per_row = _flat(_call(fn, False, args), 2, width)
        got = _flat(batched, 2, width) if batched is not None else None
        modes[name] = bool(
            got is not None
            and np.isfinite(per_row).all()
            and np.allclose(got, per_row, rtol=0.0, atol=ref.TOL)
        )
    return modes


def run_batch(attikit, data, seconds: float, tracer, between) -> dict:
    n = data["q"].shape[0]
    modes = probe_modes(attikit, data)
    fns = {name: getattr(attikit, name) for name, *_ in CHAIN}
    if tracer is not None:
        fns = {
            name: tracer.wrap(f"{mod}.{name}", fns[name]) for name, mod, _, _ in CHAIN
        }
        for mod in UNIT_CHECKED:
            module = getattr(attikit, mod)
            if hasattr(module, "require_unit"):
                tracer.patch(module, "require_unit", "algebra.require_unit")

    first = {name: np.full((n, width), np.nan) for name, _, _, width in CHAIN}
    processed = np.zeros(n, dtype=np.int64)
    mismatched = np.zeros(n, dtype=np.int64)
    op_s, class_s = [], {}
    bounds = [(lo, min(lo + gen.CHUNK_ROWS, n)) for lo in range(0, n, gen.CHUNK_ROWS)]
    clock = time.perf_counter
    t_end = clock() + seconds
    k = 0
    try:
        while k < len(bounds) or clock() < t_end:
            lo, hi = bounds[k % len(bounds)]
            results = {key: data[key][lo:hi] for key in INPUT_KEYS}
            t0 = clock()
            for name, _, keys, _ in CHAIN:
                results[name] = _call(fns[name], modes[name], [results[key] for key in keys])
            op_s.append(clock() - t0)
            class_s.setdefault(lo, []).append(op_s[-1])
            processed[lo:hi] += 1
            for name, _, _, width in CHAIN:
                rows = _flat(results[name], hi - lo, width)
                if k < len(bounds):
                    first[name][lo:hi] = rows
                else:
                    same = np.isclose(rows, first[name][lo:hi], rtol=0.0, atol=0.0, equal_nan=True)
                    mismatched[lo:hi] += ~same.all(axis=1)
            k += 1
            between()
    finally:
        if tracer is not None:
            tracer.restore()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    cover = np.zeros(n, dtype=bool)
    for i in range(n):
        q, v = data["q"][i], data["v"][i]
        try:
            cover[i] = np.array_equal(
                attikit.to_rotation_matrix(q), attikit.to_rotation_matrix(-q)
            ) and np.array_equal(attikit.rotate_vector(q, v), attikit.rotate_vector(-q, v))
        except Exception:
            cover[i] = False
    checks = ref.check_batch(data, first, cover)
    bad = ~np.logical_and.reduce(list(checks.values()))
    failed = int(np.where(bad, processed, np.minimum(mismatched, processed)).sum())
    return {
        "items": int(processed.sum()),
        "busy_s": float(sum(op_s)),
        "op_s": op_s,
        "class_s": class_s,
        "round_items": n,
        "attempted": int(processed.sum()),
        "failed": failed,
        "rss_kb": rss_kb,
        "detail": {
            "modes": {k: ("batched" if v else "per-row") for k, v in modes.items()},
            "rows_in_batch": n,
            "rows_per_op": gen.CHUNK_ROWS,
            "edge_share": float(np.mean(data["kind"] >= 0)),
            "edge_rows": {kind: int(np.sum(data["kind"] == i)) for i, kind in enumerate(gen.EDGE_KINDS)},
            "failed_rows_by_check": {k: int((~v).sum()) for k, v in checks.items()},
            "rows_changed_between_passes": int(mismatched.sum()),
        },
    }


# --- propagate ---------------------------------------------------------------

PROPAGATORS = ("rk4", "expmap", "euler321", "unwinding")
# Calls inside the simulation loop whose time is not the loop's own.
SIM_CALLEES = (
    ("quat_mul", "algebra.quat_mul"),
    ("normalized", "algebra.normalized"),
    ("from_axis_angle", "conversions.from_axis_angle"),
    ("euler_rates_from_body_321", "kinematics.euler_rates_from_body_321"),
)
PROFILE_SPAN = "simulation.RateProfile.__call__"


def _propagate_calls(attikit, inp):
    """(label, propagator, thunk, checker) for one round, in a fixed order."""
    sim = attikit.simulation
    n = round(gen.PROP_T1 / gen.DT)
    t = np.arange(n + 1) * gen.DT
    constant = sim.RateProfile.constant(inp["w"])
    held = sim.RateProfile.from_samples(inp["hold_t"], inp["hold_w"])
    q_const = ref.constant_rate_quats(inp["q0"], inp["w"], t)
    q_held = ref.held_rate_quats(inp["q0"], inp["hold_t"], inp["hold_w"], t)
    idx = np.clip(np.searchsorted(inp["hold_t"], t, side="right") - 1, 0, inp["hold_t"].size - 1)
    w_held = inp["hold_w"][idx]

    def check_quat(q_ref, w_ref, exact):
        def check(states):
            ts = np.array([s.t for s in states])
            qs = np.array([s.q for s in states])
            ws = np.array([s.w_body for s in states])
            if qs.shape != (n + 1, 4) or not np.array_equal(ts, t):
                return False, None, len(states) - 1
            err = float(np.abs(qs - q_ref).max())
            ok = err <= ref.TOL_ROUND_TRIP and np.array_equal(ws, np.broadcast_to(w_ref, ws.shape))
            return ok, (err if exact else None), len(states) - 1
        return check

    rate = inp["pitch_rate"]
    sweep_dt, sweep_t1, n_lock = gen.sweep_grid(rate)
    sweep = sim.RateProfile.constant(np.array([0.0, rate, 0.0]))

    def check_sweep(traj):
        e = np.array([[s.t, s.phi, s.theta, s.psi, s.conditioning] for s in traj.states])
        ok = (
            traj.gimbal_locked
            and e.shape == (n_lock + 1, 5)
            and np.abs(e[:, 2] - rate * e[:, 0]).max() <= ref.TOL_ROUND_TRIP
            and not e[:, [1, 3]].any()
            and e[-1, 4] > 1e8
        )
        return ok, None, len(traj.states) - 1

    u = gen.UNWIND
    n_unwind = round(u["t1"] / gen.DT)
    t_unwind = np.arange(n_unwind + 1) * gen.DT
    theta_ref, omega_ref = ref.critically_damped(u["theta0"], t_unwind)

    def check_unwinding(result):
        states, summary = result
        s = np.array([[st.t, st.theta, st.omega] for st in states])
        if s.shape != (n_unwind + 1, 3) or not np.array_equal(s[:, 0], t_unwind):
            return False, None, len(states) - 1
        err = float(max(np.abs(s[:, 1] - theta_ref).max(), np.abs(s[:, 2] - omega_ref).max()))
        ok = err <= ref.TOL_ROUND_TRIP and summary.final_theta == s[-1, 1]
        return ok, err, n_unwind

    q0, dt, t1 = inp["q0"], gen.DT, gen.PROP_T1
    const_ok, held_ok = check_quat(q_const, inp["w"], True), check_quat(q_held, w_held, False)
    return [
        ("rk4_constant", "rk4", lambda f: f(q0, constant, dt, t1, method="rk4"), const_ok),
        ("rk4_held", "rk4", lambda f: f(q0, held, dt, t1, method="rk4"), held_ok),
        ("expmap_constant", "expmap", lambda f: f(q0, constant, dt, t1, method="expmap"), const_ok),
        ("expmap_held", "expmap", lambda f: f(q0, held, dt, t1, method="expmap"), held_ok),
        ("euler321_sweep", "euler321", lambda f: f(np.zeros(3), sweep, sweep_dt, sweep_t1), check_sweep),
        ("unwinding", "unwinding",
         lambda f: f(u["theta0"], u["omega0"], u["k"], u["c"], dt, u["t1"]), check_unwinding),
    ]


def run_propagate(attikit, inp, seconds: float, tracer, between) -> dict:
    sim = attikit.simulation
    entry = {
        "rk4": sim.propagate_quaternion,
        "expmap": sim.propagate_quaternion,
        "euler321": sim.propagate_euler_321,
        "unwinding": sim.simulate_unwinding,
    }
    calls = _propagate_calls(attikit, inp)
    if tracer is not None:
        entry = {kind: tracer.wrap(f"simulation.{kind}", fn) for kind, fn in entry.items()}
        for attr, name in SIM_CALLEES:
            if hasattr(sim, attr):
                tracer.patch(sim, attr, name)
        tracer.patch(sim.RateProfile, "__call__", PROFILE_SPAN)

    steps = dict.fromkeys(PROPAGATORS, 0)
    op_s, attempted, failed, ref_err = [], 0, 0, 0.0
    class_s = {label: [] for label, *_ in calls}
    failed_by_call = {label: 0 for label, *_ in calls}
    clock = time.perf_counter
    t_end = clock() + seconds
    rounds = 0
    try:
        while rounds == 0 or clock() < t_end:
            # One operation is a round of all six calls: they differ tenfold in
            # length, so a quantile over single calls would only pick a call type.
            round_s = 0.0
            for label, kind, thunk, check in calls:
                attempted += 1
                t0 = clock()
                try:
                    result = thunk(entry[kind])
                except Exception:
                    result = None
                class_s[label].append(clock() - t0)
                round_s += class_s[label][-1]
                ok = False
                if result is not None:
                    ok, err, taken = check(result)
                    steps[kind] += taken
                    if err is not None:
                        ref_err = max(ref_err, err)
                del result
                if not ok:
                    failed += 1
                    failed_by_call[label] += 1
                between()
            op_s.append(round_s)
            rounds += 1
    finally:
        if tracer is not None:
            tracer.restore()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "items": sum(steps.values()),
        "busy_s": float(sum(op_s)),
        "op_s": op_s,
        "class_s": class_s,
        "round_items": sum(steps.values()) // rounds,
        "attempted": attempted,
        "failed": failed,
        "rss_kb": rss_kb,
        "ref_err": ref_err,
        "steps": steps,
        "detail": {"rounds": rounds, "steps_by_propagator": steps, "failed_by_call": failed_by_call,
                   "dt": gen.DT, "t1": gen.PROP_T1, "unwinding": gen.UNWIND},
    }
    if tracer is not None:
        out["state_bytes"] = _state_bytes(attikit, inp)
    return out


def _state_bytes(attikit, inp) -> float:
    """tracemalloc peak of one expmap propagation divided by the states it keeps."""
    profile = attikit.RateProfile.constant(inp["w"])
    tracemalloc.start()
    try:
        states = attikit.propagate_quaternion(inp["q0"], profile, gen.DT, gen.PROP_T1, method="expmap")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / len(states)


# --- cli ---------------------------------------------------------------------


def run_child(ctx, argv, timeout: float = 120.0):
    """Run one process to completion.

    Returns (exit code, stdout, start in perf_counter_ns, wall s, peak RSS kB).
    """
    out_path = os.path.join(ctx.tmp, "stdout")
    with open(out_path, "w+b") as out:
        start_ns = time.perf_counter_ns()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=subprocess.DEVNULL, env=ctx.env, cwd=ctx.root
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = (time.perf_counter_ns() - start_ns) * 1e-9
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return proc.returncode, out.read(), start_ns, wall, usage.ru_maxrss


def _decoded_rotation(dst: str, payload: dict) -> np.ndarray:
    if dst == "quat":
        q = np.array([payload[k] for k in ("q0", "q1", "q2", "q3")])
        if q[0] < 0.0:
            raise ValueError("quaternion output is not canonical")
        return ref.rotation_matrix(q)
    if dst == "matrix":
        return np.array(payload["r"]).reshape(3, 3)
    if dst == "axis-angle":
        q = ref.axis_angle_quat(np.array(payload["axis"]), payload["angle"])
        return ref.rotation_matrix(q)
    if dst == "euler-xyz":
        if payload.get("degenerate"):
            raise ValueError("unexpected degenerate extraction")
        return ref.euler_xyz_matrix(payload["phi"], payload["theta"], payload["psi"])
    j = np.array(payload["jpl"])
    return ref.rotation_matrix(np.array([j[3], j[0], j[1], j[2]]))


def _check_short(stdout: bytes, expect) -> bool:
    try:
        payload = json.loads(stdout)
        if expect[0] == "rotation":
            got, want = _decoded_rotation(expect[1], payload), expect[2]
        elif expect[0] == "quat":
            got, want = np.array([payload[k] for k in ("q0", "q1", "q2", "q3")]), expect[1]
        else:
            got, want = np.array(payload["v"]), expect[1]
        return bool(np.abs(got - want).max() <= ref.TOL_PRINTED * (1.0 + np.abs(want).max()))
    except (ValueError, KeyError, TypeError, IndexError):
        return False


CSV_HEADERS = {
    "integrate-rk4": "t,q0,q1,q2,q3,p,q,r",
    "integrate-expmap": "t,q0,q1,q2,q3,p,q,r",
    "demo-unwinding": "t,theta,omega,u",
    "demo-gimbal-lock": "t,phi,theta,psi,conditioning,flag",
}


def library_final_rows(attikit, inp) -> dict:
    """Expected row count and final CSV row of every long call, computed in-process.

    Arguments the long calls leave out take the CLI's defaults: theta0 = 2 pi - 0.1,
    omega0 = 0, k = 1, c = 2 for demo-unwinding and t1 = 4 for demo-gimbal-lock.
    """
    sim = attikit.simulation
    const = sim.RateProfile.constant(inp["w"])
    held = sim.RateProfile.from_samples(inp["profile_t"], inp["profile_w"])
    rk4 = sim.propagate_quaternion(inp["q0"], const, gen.DT, gen.CLI_RK4_T1, "rk4")
    expmap = sim.propagate_quaternion(inp["q0"], held, gen.DT, gen.CLI_EXPMAP_T1, "expmap")
    unwind, _ = sim.simulate_unwinding(2.0 * math.pi - 0.1, 0.0, 1.0, 2.0, gen.DT, gen.CLI_UNWIND_T1)
    rate = inp["pitch_rate"]
    profile, dt = sim.pitch_sweep_profile(rate), sim.pitch_sweep_dt(rate, gen.DT)
    sweep = sim.propagate_euler_321(np.zeros(3), profile, dt, 4.0)
    e = sweep.states[-1]
    u = unwind[-1]
    return {
        "integrate-rk4": (len(rk4), [rk4[-1].t, *rk4[-1].q, *rk4[-1].w_body]),
        "integrate-expmap": (len(expmap), [expmap[-1].t, *expmap[-1].q, *expmap[-1].w_body]),
        "demo-unwinding": (len(unwind), [u.t, u.theta, u.omega, u.u]),
        "demo-gimbal-lock": (
            len(sweep.states),
            [e.t, e.phi, e.theta, e.psi, e.conditioning, float(sweep.gimbal_locked)],
        ),
    }


def _check_long(label: str, path: str, stdout: bytes, expect) -> tuple[bool, int, int]:
    """(ok, data rows, bytes) of one long call's CSV output."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
        lines = raw.decode().splitlines()
        json.loads(stdout)
    except (OSError, ValueError):
        return False, 0, 0
    rows, final = expect
    if not lines or lines[0] != CSV_HEADERS[label] or len(lines) != rows + 1:
        return False, max(0, len(lines) - 1), len(raw)
    try:
        got = np.array([float(x) for x in lines[-1].split(",")])
    except ValueError:
        return False, len(lines) - 1, len(raw)
    want = np.array(final)
    ok = got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= ref.TOL_PRINTED * np.maximum(1.0, np.abs(want)))
    )
    return ok, len(lines) - 1, len(raw)


def _take_spans(spans: list, kind: str, path: str) -> None:
    """Move one traced child's spans into memory; a child that died early wrote none."""
    if os.path.exists(path):
        with np.load(path) as f:
            spans.append((kind, dict(f)))
        os.remove(path)


def run_cli(ctx, inp, seconds: float, traced: bool, between) -> dict:
    """Fresh ``python -m attikit`` processes, one at a time, in whole rounds:
    every short call, then every long call."""
    tmp = ctx.tmp
    profile_path = os.path.join(tmp, "profile.csv")
    with open(profile_path, "w", encoding="utf-8", newline="\n") as f:
        f.write(inp["profile_csv"])
    expected = library_final_rows(ctx.attikit, inp)
    spans_path = os.path.join(tmp, "spans.npz")

    def argv_for(args):
        if traced:
            return [ctx.python, ctx.traced_cli, str(time.perf_counter_ns()), spans_path, *args]
        return [ctx.python, "-m", "attikit", *args]

    short_s, long_s, rows, rss_kb, attempted, failed, rounds = [], 0.0, 0, 0, 0, 0, 0
    class_s = {label: [] for label in inp["long"]}
    round_rows = round_bytes = 0
    spans = []
    clock = time.perf_counter
    t_end = clock() + seconds
    while rounds == 0 or clock() < t_end:
        written_rows = written_bytes = 0
        for args, expect in inp["short"]:
            rc, stdout, _, wall, maxrss = run_child(ctx, argv_for(args))
            attempted += 1
            short_s.append(wall)
            between()
            rss_kb = max(rss_kb, maxrss)
            written_bytes += len(stdout)
            failed += not (rc == 0 and _check_short(stdout, expect))
            if traced:
                _take_spans(spans, "short", spans_path)
        for label, args in inp["long"].items():
            out_path = os.path.join(tmp, f"{label}.csv")
            args = [a.replace("{profile}", profile_path) for a in args] + ["--output", out_path]
            rc, stdout, _, wall, maxrss = run_child(ctx, argv_for(args))
            attempted += 1
            long_s += wall
            class_s[label].append(wall)
            between()
            rss_kb = max(rss_kb, maxrss)
            ok, n_rows, n_bytes = _check_long(label, out_path, stdout, expected[label])
            rows += n_rows
            written_rows += n_rows
            written_bytes += n_bytes + len(stdout)
            failed += not (rc == 0 and ok)
            if traced:
                _take_spans(spans, "long", spans_path)
            with contextlib.suppress(FileNotFoundError):
                os.remove(out_path)
        if rounds == 0:
            round_rows, round_bytes = written_rows, written_bytes
        rounds += 1
    return {
        "items": rows,
        "busy_s": long_s,
        "op_s": short_s,
        "class_s": class_s,
        "round_items": round_rows,
        "attempted": attempted,
        "failed": failed,
        "rss_kb": rss_kb,
        "rows_written": round_rows,
        "bytes_written": round_bytes,
        "child_spans": spans,
        "detail": {
            "rounds": rounds,
            "short_calls_per_round": len(inp["short"]),
            "long_calls_per_round": len(inp["long"]),
            "long_rows_per_round": round_rows,
            "bytes_per_round": round_bytes,
        },
    }
