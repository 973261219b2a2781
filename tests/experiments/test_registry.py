"""The experiment registry is data, and every table has one renderer.

Each registry record names its function as ``"module:function"`` and
holds the keyword arguments ``--quick`` passes; these tests hold the
records to their functions, keep ``--list`` free of experiment imports,
and keep the per-class render helpers the registry replaced from coming
back.  (``test_experiments.py`` pins the 23 names.)
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.runner import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_quick_arguments_bind_to_the_function(name):
    experiment = EXPERIMENTS[name]
    function = experiment.load()
    assert callable(function), experiment.run
    inspect.signature(function).bind(**experiment.quick)


def test_list_imports_no_experiment_module():
    script = (
        "import sys\n"
        "from repro.experiments.runner import main\n"
        "main(['--list'])\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('repro.experiments.')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )
    assert done.stdout.splitlines()[-1] == "['repro.experiments.runner']"


def _definitions():
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.relative_to(SRC).as_posix(), node.name


def test_one_renderer_and_no_wrappers():
    definitions = list(_definitions())
    assert [path for path, name in definitions
            if name in ("render_row", "as_table_row", "render_table")] == []
    assert [name for path, name in definitions
            if path == "repro/experiments/runner.py"
            and name.startswith("_run_")] == []
    assert [path for path, name in definitions if name == "render_rows"] == [
        "repro/analysis/tables.py"
    ]
