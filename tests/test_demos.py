"""The demos run to completion, and the package exports what they import.

Each demo runs in a fresh interpreter from an empty working directory, with
the package source on ``PYTHONPATH``.  ``make_sample_data.py`` is left out:
it rewrites the bundled data files.  Instead its sample table is replayed in
memory and compared with the bundled files.
"""

import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iterborda
from iterborda.preflib import serialize_soc

ROOT = Path(__file__).resolve().parent.parent


def test_exports_are_what_the_demos_import():
    imported = set()
    for demo in (ROOT / "demos").glob("*.py"):
        for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "iterborda":
                imported.update(alias.name for alias in node.names)
    public = {
        name
        for name, value in vars(iterborda).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(iterborda.__all__) == imported
    assert len(imported) == 14


@pytest.mark.parametrize(
    "demo", ["single_election.py", "manipulation_walkthrough.py", "experiment_sweep.py"]
)
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def load_make_sample_data():
    path = ROOT / "demos" / "make_sample_data.py"
    spec = importlib.util.spec_from_file_location("make_sample_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MAKE_SAMPLE_DATA = load_make_sample_data()


@pytest.mark.parametrize("row", MAKE_SAMPLE_DATA.SAMPLES, ids=lambda row: row[0])
def test_bundled_samples_regenerate(row):
    bundled = MAKE_SAMPLE_DATA.OUT_DIR / f"{row[0]}.soc"
    assert serialize_soc(MAKE_SAMPLE_DATA.make_sample(*row)) == bundled.read_text(
        encoding="utf-8"
    )
