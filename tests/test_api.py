"""The public surface: every exported name resolves, and the README's Library
snippet runs as written."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import basketsim

ROOT = Path(__file__).resolve().parents[1]
# basketsim.tune and basketsim.calibrate are shadowed on the package by
# functions of those names, so modules are imported by their dotted names
MODULES = ["basketsim"] + [
    f"basketsim.{info.name}" for info in pkgutil.iter_modules(basketsim.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert module.__all__
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def _library_snippet() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (snippet,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    return snippet


def test_readme_library_snippet_runs():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _library_snippet()],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    # the per-basket rejection rates, then the TPR and the CCR
    assert done.stdout.count("\n") == 1 and done.stdout.startswith("(")
