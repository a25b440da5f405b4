"""The basketsim benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. One client runs one CLI command at a time (a closed loop). Every
command is a fresh interpreter (``bench/child.py``), so the weight caches start
cold, as they do for a user of the CLI. All commands of a run use ``--seed N``;
the workload's study config is fixed and written once per run.

A run first starts one untimed interpreter to warm the file cache, then five
set-up probes. It then runs the workload's command back to back until the next
one would end after S seconds (at least three commands). With ``--trace 1`` it
then runs the command twice more with the tracer installed, checks that the
exact counts of the two traced runs agree, and reports per-layer metrics
instead of end-to-end ones.

Each command's outputs are checked (see ``workloads.py``); a command that
exits nonzero or fails its check counts as failed. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The lines before it give every metric by name with its unit and
sample count, the environment and, for a failure, the reason.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
# the metrics to report, with their units
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_PROBES = 5
MIN_COMMANDS = 3
TRACED_COMMANDS = 2
RUN_LIMIT_S = 170.0

# counts that must repeat exactly between two traced commands at one seed
EXACT_COUNTS = (
    "weights.solves",
    "trial.unique_outcomes",
    "simulate.run_scenario.calls",
    "simulate.pools",
    "tune.candidates",
)


class BenchError(RuntimeError):
    """The benchmark cannot run at all; no result is printed."""


def _spawn_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("BASKETSIM_WORKERS", None)
    return env


class Runner:
    def __init__(self, name: str, workload: Workload, seed: int, deadline: float) -> None:
        self.name = name
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.dir = WORK / f"{name}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "study.json"
        self.config.write_text(json.dumps(workload.config, indent=2))
        self.env = _spawn_env()
        self.spawned = 0

    def spawn(self, cli_args: list[str] | None = None, trace: bool = False) -> dict | None:
        """Run one child interpreter; return its record, or None if it failed."""
        self.spawned += 1
        tag = f"{self.spawned:03d}"
        result = self.dir / f"{tag}.json"
        argv = [sys.executable, str(BENCH / "child.py"), str(result), str(self.config)]
        if trace:
            trace_dir = self.dir / f"{tag}-workers"
            trace_dir.mkdir()
            argv += ["--trace", str(trace_dir)]
        if cli_args is not None:
            argv += ["--", *cli_args]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the run finished")
        log_path = self.dir / f"{tag}.log"
        with open(log_path, "w") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                argv, cwd=self.dir, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                rc = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                raise BenchError(f"a command did not end within the run's {RUN_LIMIT_S:.0f} s")
            finally:
                # pool workers are in the child's session; none may outlive it
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        if rc != 0 or not result.exists():
            print(f"# {self.name}: child exited with {rc}; log tail:", file=sys.stderr)
            print(log_path.read_text()[-2000:], file=sys.stderr)
            return None
        record = json.loads(result.read_text())
        record["setup_s"] = record["setup_end"] - t0
        return record

    def command(self, trace: bool = False) -> tuple[dict | None, list[str]]:
        """One CLI command of the workload, with its output check."""
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        args = [*self.workload.cli, "--config", str(self.config), "--out", str(out),
                "--seed", str(self.seed)]
        record = self.spawn(args, trace=trace)
        if record is None:
            return None, ["the command process crashed"]
        if record["rc"] != 0:
            return record, [f"basketsim exited with code {record['rc']}"]
        try:
            return record, self.workload.check(out, self.workload.m)
        except (OSError, KeyError, ValueError) as exc:
            return record, [f"output check could not read the outputs: {exc!r}"]


def _summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def _environment(seed: int) -> dict:
    import importlib.metadata as md

    def version(pkg: str) -> str:
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return "absent"

    commit = "unknown"  # a checkout without .git, as the benchmark may be run from
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "seed": seed,
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    start = time.monotonic()
    runner = Runner(name, workload, seed, start + RUN_LIMIT_S)
    try:
        if runner.spawn() is None:
            raise BenchError("basketsim cannot be imported and set up from src/")
        setups: list[dict] = []
        for _ in range(SETUP_PROBES):
            record = runner.spawn()
            if record is None:
                raise BenchError("a set-up probe failed")
            setups.append(record)

        commands: list[dict] = []
        problems: list[str] = []
        attempted = 0
        window_start = time.monotonic()
        longest = 0.0
        while attempted < MIN_COMMANDS or (
            time.monotonic() - window_start + longest <= seconds
        ):
            t0 = time.monotonic()
            record, issues = runner.command()
            longest = max(longest, time.monotonic() - t0)
            attempted += 1
            problems += issues
            if record is not None:
                setups.append(record)
                if not issues:
                    commands.append(record)

        traced: list[dict] = []
        if trace:
            for _ in range(TRACED_COMMANDS):
                record, issues = runner.command(trace=True)
                attempted += 1
                problems += issues
                if record is not None and not issues:
                    traced.append(record)
    finally:
        shutil.rmtree(runner.dir, ignore_errors=True)

    failed = attempted - len(commands) - len(traced)
    samples: dict[str, list[float]] = {}
    if not commands:
        problems.append("no command succeeded")
    elif not trace:
        samples = {
            "setup_s": [r["setup_s"] for r in setups],
            "wall_s": [r["wall_s"] for r in commands],
            "replicates_per_s": [workload.replicates / r["wall_s"] for r in commands],
            "cpu_s": [r["cpu_s"] for r in commands],
            "peak_rss_mb": [r["rss_self_mb"] + r["rss_worker_mb"] for r in commands],
        }
    elif len(traced) == TRACED_COMMANDS:
        first, second = (r["layers"] for r in traced)
        for key in EXACT_COUNTS:
            if first.get(key) != second.get(key):
                problems.append(
                    f"{key} differs between two traced runs: {first.get(key)} vs {second.get(key)}"
                )
        samples = {key: [first[key], second[key]] for key in first.keys() & second.keys()}
        samples["config.load_config.s"] = [r["load_config_s"] for r in setups]
        untraced = statistics.median(r["wall_s"] for r in commands)
        samples["tracing_overhead_s"] = [r["wall_s"] - untraced for r in traced]
    else:
        problems.append("a traced command failed")

    lines: list[str] = []
    metrics: dict[str, dict] = {}
    absent: list[str] = []
    for spec in SPEC["per_layer" if trace else "end_to_end"]:
        name, unit = spec["name"], spec["unit"]
        values = samples.get(name)
        if not values:
            absent.append(name)
            continue
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:<34} {value:<14.6g} {unit:<6} {_summary(values)}")
    if samples and absent:
        lines.append(f"# absent, its hook target is gone: {', '.join(absent)}")
    # fail_ratio is reported here but is not a BENCHMARK.json metric: it is 0
    # on a correct program, and the JSON line carries it as failed / attempted
    ratio = failed / attempted
    lines.append(
        f"{'fail_ratio':<34} {ratio:<14.6g} {'ratio':<6} failed={failed} attempted={attempted}"
    )
    for line in lines:
        print(line)
    print("# environment " + json.dumps(_environment(seed)))
    for problem in problems:
        print(f"# FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }




def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running child and its workers are killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if not (SRC / "basketsim" / "__init__.py").is_file():
        print(f"error: {SRC / 'basketsim'} not found; run from a basketsim source checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
