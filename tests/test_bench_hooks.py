"""The benchmark tracer's hook targets must exist in the program.

``bench/tracer.py`` skips a hook whose module attribute is gone and drops
every metric built on it, so a renamed function would silently empty the
per-layer report.  The tracer is loaded from its file and only read.
"""

import importlib
from pathlib import Path
from types import SimpleNamespace

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
