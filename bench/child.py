"""One benchmark sample: a fresh interpreter that sets basketsim up and runs one command.

    python3 bench/child.py RESULT CONFIG [--trace DIR] [-- CLI-ARGS...]

Set-up is ``import basketsim``, ``import basketsim.cli`` and
``config.load_config(CONFIG)``; the process records the CLOCK_MONOTONIC time
at which it ended, so the caller can measure set-up from before it started
the interpreter. Without CLI-ARGS the process stops there (a set-up probe).
Otherwise it calls ``basketsim.cli.main(CLI-ARGS)`` and records the wall and
CPU time of that call and the peak memory of itself and of its largest pool
worker. With ``--trace DIR`` it installs the tracer first and records the
per-layer metrics; pool workers write their part into DIR. The record is
written to RESULT as JSON.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv: list[str]) -> int:
    result_path, config_path, *rest = argv
    trace_dir = None
    if rest[:1] == ["--trace"]:
        trace_dir = rest[1]
        rest = rest[2:]
    cli_args = rest[1:] if rest[:1] == ["--"] else rest

    basketsim = importlib.import_module("basketsim")
    cli = importlib.import_module("basketsim.cli")
    config = importlib.import_module("basketsim.config")
    t0 = time.perf_counter()
    config.load_config(config_path)
    record = {
        "setup_end": time.monotonic(),
        "load_config_s": time.perf_counter() - t0,
        "program": basketsim.__file__,
    }

    if cli_args:
        tracer = None
        if trace_dir is not None:
            import tracer as tracer_module

            tracer = tracer_module.install(trace_dir)
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            rc = cli.main(cli_args)
        except Exception:  # a crash is a failed command, reported by the caller
            traceback.print_exc()
            rc = 1
        record["wall_s"] = time.perf_counter() - t0
        record["cpu_s"] = _cpu_s() - cpu0
        record["rc"] = rc
        # ru_maxrss is in KiB on Linux; for RUSAGE_CHILDREN it is the largest child
        record["rss_self_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["rss_worker_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        if tracer is not None:
            record["layers"] = tracer.report()

    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
