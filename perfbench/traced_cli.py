"""Traced stand-in for ``python -m attikit``, used by the cli workload's traced run.

    python3 perfbench/traced_cli.py SPAWN_NS SPANS_PATH ATTIKIT_ARGS...

SPAWN_NS is the parent's ``time.perf_counter_ns()`` just before it started
this process (CLOCK_MONOTONIC, shared by every process on Linux). The script
records interpreter start, the NumPy and attikit imports, argument parsing,
the ``attikit.simulation`` entry points the CLI reaches and ``cli.main`` as
spans, writes them to SPANS_PATH and exits with the CLI's exit code.
"""

import time

T_FIRST = time.perf_counter_ns()

import sys  # noqa: E402

t0 = time.perf_counter_ns()
import numpy  # noqa: E402,F401

t1 = time.perf_counter_ns()
import attikit.cli  # noqa: E402

t2 = time.perf_counter_ns()

from spans import Tracer  # noqa: E402

SIM_ENTRY_POINTS = ("propagate_quaternion", "propagate_euler_321", "simulate_unwinding")


def main() -> int:
    spawn_ns, spans_path, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.record("cli.interp", spawn_ns, T_FIRST)
    tracer.record("cli.import_numpy", t0, t1)
    tracer.record("cli.import_attikit", t1, t2)

    cli = attikit.cli
    build_parser = cli.build_parser

    def traced_build_parser():
        start = time.perf_counter_ns()
        parser = build_parser()
        tracer.record("cli.build_parser", start, time.perf_counter_ns())
        parser.parse_args = tracer.wrap("cli.parse_args", parser.parse_args)
        return parser

    cli.build_parser = traced_build_parser
    for name in SIM_ENTRY_POINTS:
        tracer.patch(cli.simulation, name, f"simulation.{name}")
    try:
        code = tracer.wrap("cli.main", cli.main)(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        tracer.save(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
