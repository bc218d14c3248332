"""The package's import surface: each name has one import path, its submodule."""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import svkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(svkit.__path__))


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports this checkout's svkit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(svkit.__file__).parents[1]), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


def test_package_root_holds_only_the_version():
    proc = run_fresh(
        "import json, svkit; "
        "print(json.dumps([sorted(n for n in vars(svkit) if not n.startswith('_')), svkit.__version__]))"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], "0.1.0"]


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first(module):
    # no module relies on another having been imported before it (an import cycle would)
    proc = run_fresh(f"import svkit.{module}")
    assert proc.returncode == 0, proc.stderr
