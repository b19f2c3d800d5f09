"""attikit benchmark: library batch, in-process propagation and CLI workloads.

    python3 perfbench/run.py --workload batch|propagate|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout; it measures the checkout's ``src/attikit``
and nothing else (no installed copy, no build step). Inputs come from
``--seed`` alone. Every output is checked against an independent reference
and failures are counted, never fatal.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the
workload untraced and traced for the overhead, then gives every layer its
per-layer numbers from a traced pass of the workload that exercises it.
Human-readable lines come first; the last line of stdout is one JSON object.
Results and spans go to ``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("batch", "propagate", "cli")
SETUP_STARTS = 15  # fresh interpreters timed per untraced run, after one warm-up start
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
# This host runs mostly in one speed state with fast spells of 5-15 s. The
# median or mean of a 30 s run lands in either state by chance; the 75th
# percentile stays in the dominant one, and a slower program still moves it
# in full. It sets op_ms_p75 and, through each repeating call's time,
# items_per_s.
OP_PERCENTILE = 75

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "op_ms_p75": "ms",
    "op_ms_tail": "ms",
}
# Reported beside the end-to-end metrics, in the results file and the printed lines.
EXTRA_UNITS = {
    "items_per_s_mean": "1/s",
    "error_rate": "1",
    "prop_ref_err": "1",
    "op_samples": "count",
    "op_tail_percentile": "%",
    "setup_starts": "count",
}
# Workload-specific names of the generic metrics, printed beside them.
ALIASES = {
    "batch": {"items_per_s": "batch_rows_per_s", "op_ms_p75": "batch_chunk_ms_p75",
              "op_ms_tail": "batch_chunk_ms_tail"},
    "propagate": {"items_per_s": "prop_steps_per_s", "op_ms_p75": "prop_round_ms_p75",
                  "op_ms_tail": "prop_round_ms_tail"},
    "cli": {"items_per_s": "cli_rows_per_s", "op_ms_p75": "cli_short_ms_p75",
            "op_ms_tail": "cli_short_ms_tail"},
}

# (metric, span): span time per batch row, in microseconds.
BATCH_LAYERS = (
    ("algebra.quat_mul_us", "algebra.quat_mul"),
    ("algebra.require_unit_us", "algebra.require_unit"),
    ("conversions.rotate_vector_us", "conversions.rotate_vector"),
    ("conversions.rotate_vector_inverse_us", "conversions.rotate_vector_inverse"),
    ("conversions.to_rotation_matrix_us", "conversions.to_rotation_matrix"),
    ("conversions.from_rotation_matrix_us", "conversions.from_rotation_matrix"),
    ("conversions.quat_to_euler_xyz_us", "conversions.quat_to_euler_xyz"),
    ("conversions.from_axis_angle_us", "conversions.from_axis_angle"),
    ("conversions.to_axis_angle_us", "conversions.to_axis_angle"),
    ("kinematics.eg_matrices_us", "kinematics.eg_matrices"),
    ("error_dynamics.error_quaternion_us", "error_dynamics.error_quaternion"),
)
# Spans whose time does not count as the simulation loop's own (simulation.self_share).
SIM_NOT_SELF = (
    "simulation.RateProfile.__call__",
    "algebra.quat_mul",
    "conversions.from_axis_angle",
    "algebra.normalized",
)
PER_LAYER_UNITS = {
    **{metric: "us" for metric, _ in BATCH_LAYERS},
    "kinematics.euler_rates_from_body_321_us": "us",
    "simulation.rk4_step_us": "us",
    "simulation.expmap_step_us": "us",
    "simulation.euler321_step_us": "us",
    "simulation.unwinding_step_us": "us",
    "simulation.rk4_profile_calls_per_step": "count",
    "simulation.expmap_profile_calls_per_step": "count",
    "simulation.self_share": "ratio",
    "simulation.state_bytes": "B",
    "cli.interp_s": "s",
    "cli.numpy_import_s": "s",
    "cli.attikit_import_s": "s",
    "cli.parse_ms": "ms",
    "cli.compute_s": "s",
    "cli.write_us_per_row": "us",
    "cli.rows_written": "count",
    "cli.bytes_written": "B",
    "trace.overhead_pct": "%",
}
TRACE_SHARES = (0.3, 0.3, 0.2)  # untraced pass, traced pass, each other workload


class Context:
    """What every workload needs to reach the checkout's attikit."""

    def __init__(self, attikit, tmp: Path):
        self.attikit = attikit
        self.root = str(ROOT)
        self.python = sys.executable
        self.traced_cli = str(HERE / "traced_cli.py")
        env = {k: v for k, v in os.environ.items() if k != "ATTIKIT_PRECISION"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.env = env
        self.tmp = str(tmp)


def _import_checkout():
    sys.path.insert(0, str(SRC))
    import attikit

    if Path(attikit.__file__).resolve() != SRC / "attikit" / "__init__.py":
        raise SystemExit(f"error: imported attikit from {attikit.__file__}, not {SRC}")
    return attikit


class SetupClock:
    """Times fresh interpreters from spawn to ``import attikit`` returning.

    Called between a workload's operations, it spreads SETUP_STARTS starts
    evenly over the run, so a slow spell on the host moves a few samples
    rather than all of them. The first start, before the run, fills the
    bytecode cache, checks which attikit a fresh interpreter imports, and
    is discarded.
    """

    PROBE = "import time, attikit; print(time.perf_counter_ns(), attikit.__file__)"

    def __init__(self, ctx, seconds: float):
        self.ctx = ctx
        self.samples: list[float] = []
        self.interval = seconds / SETUP_STARTS
        self.start()
        self.due = time.perf_counter()

    def start(self) -> float:
        from workloads import run_child

        ctx = self.ctx
        code, out, start_ns, _, _ = run_child(ctx, [ctx.python, "-c", self.PROBE])
        done_ns, path = out.decode().split(maxsplit=1) if code == 0 else ("0", "")
        if code != 0 or Path(path.strip()).resolve() != SRC / "attikit" / "__init__.py":
            raise SystemExit(f"error: a fresh interpreter imported attikit from {path.strip()!r}")
        return (int(done_ns) - start_ns) * 1e-9

    def __call__(self) -> None:
        if len(self.samples) < SETUP_STARTS and time.perf_counter() >= self.due:
            self.samples.append(self.start())
            self.due += self.interval

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_STARTS:
            self.samples.append(self.start())
        return self.samples


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    s = sorted(samples)
    k = len(s) - TAIL_BEYOND - 1 if len(s) > TAIL_BEYOND else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s)


def run_pass(ctx, workload: str, seed: int, seconds: float, tracer=None, between=None) -> dict:
    import inputs
    import workloads

    between = between or (lambda: None)
    if workload == "batch":
        return workloads.run_batch(ctx.attikit, inputs.batch_inputs(seed), seconds, tracer, between)
    if workload == "propagate":
        return workloads.run_propagate(
            ctx.attikit, inputs.propagate_inputs(seed), seconds, tracer, between
        )
    return workloads.run_cli(ctx, inputs.cli_inputs(seed), seconds, tracer is not None, between)


def end_to_end(res: dict, setup: list[float]) -> tuple[dict, dict]:
    import numpy as np

    value, pct = tail(res["op_s"])
    # A round with each of its calls at that call's percentile time.
    round_s = sum(np.percentile(ts, OP_PERCENTILE) for ts in res["class_s"].values())
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["rss_kb"] / 1024.0,
        "items_per_s": res["round_items"] / round_s,
        "op_ms_p75": float(np.percentile(res["op_s"], OP_PERCENTILE)) * 1e3,
        "op_ms_tail": value * 1e3,
    }
    extra = {
        "items_per_s_mean": res["items"] / res["busy_s"],
        "error_rate": res["failed"] / res["attempted"],
        "op_samples": len(res["op_s"]),
        "op_tail_percentile": pct,
        "setup_starts": len(setup),
    }
    if "ref_err" in res:
        extra["prop_ref_err"] = res["ref_err"]
    return metrics, extra


def traced_pass(ctx, workload: str, seed: int, seconds: float, tag: str) -> tuple[dict, dict]:
    """One traced pass; saves its spans and returns (result, span summary)."""
    import numpy as np
    from spans import Tracer, merge, summarize

    tracer = Tracer()
    res = run_pass(ctx, workload, seed, seconds, tracer)
    if workload == "cli":
        arrays = merge([spans for _, spans in res["child_spans"]])
        long_only = merge([spans for kind, spans in res["child_spans"] if kind == "long"])
        res["long_stats"] = summarize(long_only)
    else:
        arrays = tracer.arrays()
    path = WORK / "results" / f"{tag}-spans-{workload}.npz"
    np.savez_compressed(path, **arrays)
    res["spans_file"] = str(path.relative_to(ROOT))
    return res, summarize(arrays)


def _per(stats: dict, span: str, key: str, items) -> float:
    return stats[span][key] / items if span in stats and items else 0.0


def layer_metrics(home: dict) -> dict:
    m = {}
    res, stats = home["batch"]
    for metric, span in BATCH_LAYERS:
        m[metric] = _per(stats, span, "total_ns", res["items"]) * 1e-3

    res, stats = home["propagate"]
    span = "kinematics.euler_rates_from_body_321"
    m[span + "_us"] = _per(stats, span, "total_ns", stats.get(span, {}).get("count")) * 1e-3
    root_ns = outside_ns = 0.0
    for kind, steps in res["steps"].items():
        s = stats.get(f"simulation.{kind}", {"total_ns": 0.0, "children": {}})
        m[f"simulation.{kind}_step_us"] = s["total_ns"] / steps * 1e-3 if steps else 0.0
        calls = s["children"].get(SIM_NOT_SELF[0], {}).get("count", 0)
        if kind in ("rk4", "expmap"):
            per_step = round(calls / steps, 2) if steps else 0.0
            m[f"simulation.{kind}_profile_calls_per_step"] = per_step
        root_ns += s["total_ns"]
        outside_ns += sum(s["children"].get(c, {}).get("ns", 0.0) for c in SIM_NOT_SELF)
    m["simulation.self_share"] = (root_ns - outside_ns) / root_ns if root_ns else 0.0
    m["simulation.state_bytes"] = res["state_bytes"]

    res, stats = home["cli"]
    children = stats["cli.main"]["count"]
    m["cli.interp_s"] = _per(stats, "cli.interp", "total_ns", children) * 1e-9
    m["cli.numpy_import_s"] = _per(stats, "cli.import_numpy", "total_ns", children) * 1e-9
    m["cli.attikit_import_s"] = _per(stats, "cli.import_attikit", "total_ns", children) * 1e-9
    m["cli.parse_ms"] = (
        _per(stats, "cli.build_parser", "total_ns", children)
        + _per(stats, "cli.parse_args", "total_ns", children)
    ) * 1e-6
    long_stats, rounds = res["long_stats"], res["detail"]["rounds"]
    compute_ns = sum(v["total_ns"] for k, v in long_stats.items() if k.startswith("simulation."))
    m["cli.compute_s"] = compute_ns / rounds * 1e-9
    m["cli.write_us_per_row"] = _per(long_stats, "cli.main", "self_ns", res["items"]) * 1e-3
    m["cli.rows_written"] = res["rows_written"]
    m["cli.bytes_written"] = res["bytes_written"]
    return m


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "attikit" / "__init__.py").is_file():
        print(f"error: no attikit sources under {SRC}", file=sys.stderr)
        return 2
    attikit = _import_checkout()
    import numpy as np

    (WORK / "results").mkdir(parents=True, exist_ok=True)
    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        ctx = Context(attikit, tmp)
        setup_clock = SetupClock(ctx, args.seconds)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": {
                "git_sha": _git_sha(),
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "attikit_file": attikit.__file__,
                "platform": platform.platform(),
            },
        }
        if args.trace == 0:
            res = run_pass(ctx, args.workload, args.seed, args.seconds, between=setup_clock)
            record["setup_s_samples"] = setup = setup_clock.finish()
            values, extra = end_to_end(res, setup)
            attempted, failed = res["attempted"], res["failed"]
            units = END_TO_END
            record["detail"] = {args.workload: res["detail"]}
            record["extra"] = extra
            record["call_ms_p75"] = {
                str(k): float(np.percentile(v, OP_PERCENTILE)) * 1e3 for k, v in res["class_s"].items()
            }
            lines = [(name, values[name], END_TO_END[name], ALIASES[args.workload].get(name))
                     for name in END_TO_END]
            lines += [(name, value, EXTRA_UNITS[name], None) for name, value in extra.items()]
        else:
            untraced_s, traced_s, other_s = (share * args.seconds for share in TRACE_SHARES)
            plain = run_pass(ctx, args.workload, args.seed, untraced_s)
            home = {args.workload: traced_pass(ctx, args.workload, args.seed, traced_s, tag)}
            for other in WORKLOADS:
                if other != args.workload:
                    home[other] = traced_pass(ctx, other, args.seed, other_s, tag)
            values = layer_metrics(home)
            traced = home[args.workload][0]
            if traced["items"] and plain["items"]:
                slowdown = (traced["busy_s"] / traced["items"]) / (plain["busy_s"] / plain["items"])
            else:  # every operation failed; failed > 0 already says so
                slowdown = 1.0
            values["trace.overhead_pct"] = (slowdown - 1.0) * 100.0
            passes = [plain] + [res for res, _ in home.values()]
            attempted = sum(r["attempted"] for r in passes)
            failed = sum(r["failed"] for r in passes)
            units = PER_LAYER_UNITS
            record["detail"] = {w: res["detail"] for w, (res, _) in home.items()}
            record["spans_files"] = [res["spans_file"] for res, _ in home.values()]
            record["span_summary"] = {w: stats for w, (_, stats) in home.items()}
            lines = [(name, values[name], PER_LAYER_UNITS[name], None) for name in PER_LAYER_UNITS]

        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        record.update(metrics=metrics, attempted=attempted, failed=failed)
        (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1, default=float))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for name, value, unit, alias in lines:
        label = f"{name} ({alias})" if alias else name
        print(f"{args.workload:9s} {label:52s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
