"""The demos run to completion, and the package exports what they import.

Each demo runs in a fresh interpreter from an empty working directory, with
the package source on ``PYTHONPATH``.  ``make_sample_data.py`` is left out:
it rewrites the bundled data files.  Instead its sample table is replayed in
memory and compared with the bundled files.

A package module may import a name it never uses only so that the
benchmark's tracer (``perfbench/tracer.py``) can patch it there.
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
    assert len(imported) == 13


def load_module(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unused_imports_are_tracer_targets():
    unused = set()
    for path in (ROOT / "src" / "iterborda").glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.update((path.stem, name) for name in bound - used)
    tracer = load_module(ROOT / "perfbench" / "tracer.py")
    targets = {
        (owner.__name__.rpartition(".")[2], attr)
        for owner, attr, _ in tracer.layer_targets()
        if inspect.ismodule(owner)
    }
    assert unused <= targets, sorted(unused - targets)


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


MAKE_SAMPLE_DATA = load_module(ROOT / "demos" / "make_sample_data.py")


@pytest.mark.parametrize("row", MAKE_SAMPLE_DATA.SAMPLES, ids=lambda row: row[0])
def test_bundled_samples_regenerate(row):
    bundled = MAKE_SAMPLE_DATA.OUT_DIR / f"{row[0]}.soc"
    assert serialize_soc(MAKE_SAMPLE_DATA.make_sample(*row)) == bundled.read_text(
        encoding="utf-8"
    )
