"""The benchmark tracer's hook targets must exist in the program.

``bench/tracer.py`` skips a hook whose module attribute is gone and drops
every metric built on it, so a renamed function would silently empty the
per-layer report.  A probe that cannot read a hooked call's arguments drops
its metric too, and one that raises anything else crashes the command.  The
tracer is loaded from its file and only read; the traced run writes no
bytecode next to it.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
# per-layer metrics that bench/run.py derives from the child's record rather
# than from the tracer's report
RUNNER_METRICS = {"config.load_config.s", "tracing_overhead_s"}


def _tracer():
    # executed from its source text, so nothing is written next to it
    namespace = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return SimpleNamespace(**namespace)


def test_every_hook_target_is_callable():
    tracer = _tracer()
    assert tracer.HOOKS
    for module_name, attr, span in tracer.HOOKS:
        assert module_name.startswith("basketsim.")
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr} (span {span}) is not callable"


def test_pool_hook_target_is_a_class():
    module_name, attr, _ = _tracer().POOL_HOOK
    assert isinstance(getattr(importlib.import_module(module_name), attr, None), type)


def test_traced_simulate_reports_every_metric(tmp_path):
    config = {
        "design": {
            "baskets": [
                {"name": f"B{i}", "n_max": 25, "looks": [{"size": 10, "futility_max_responses": 1}]}
                for i in range(1, 6)
            ],
            "p0": 0.15,
            "alpha": 0.1,
        },
        "method": {"type": "local_pp", "base": "peb", "a": 0.35, "delta": 0.4},
        "prior": {"b1": 0.15, "b2": 0.85},
        "scenarios": [
            {"name": "S1", "orr": [0.15] * 5},
            {"name": "S3", "orr": [0.15, 0.3, 0.3, 0.3, 0.3]},
        ],
        "run": {"M": 200, "seed": 1, "workers": 1},
    }
    config_path = tmp_path / "study.json"
    config_path.write_text(json.dumps(config))
    result = tmp_path / "result.json"
    trace_dir = tmp_path / "workers"
    trace_dir.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "BASKETSIM_WORKERS"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cli_args = ["simulate", "--config", str(config_path), "--out", str(tmp_path), "--workers", "2"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), str(result), str(config_path),
         "--trace", str(trace_dir), "--", *cli_args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads(result.read_text())
    assert record["rc"] == 0, proc.stdout + proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {metric["name"] for metric in spec["per_layer"]} - RUNNER_METRICS
    assert len(expected) == 25
    assert set(record["layers"]) == expected
