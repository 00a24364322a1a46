"""The demos run to completion, and the package exports what they import.

Each demo runs in a fresh interpreter from an empty working directory, with
the package source on ``PYTHONPATH``.  ``make_sample_data.py`` is left out:
it rewrites the bundled data files.  Instead its sample table is replayed in
memory and compared with the bundled files.

A package module may import a name it never uses, and the package may define
a top-level function or class that no module of the package, the demos or the
benchmark refers to other than by importing it, only so that the benchmark's
tracer (``perfbench/tracer.py``) can patch it.  Test modules get no such
leeway: each uses all it imports, and a test module refers to each helper.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iterborda
from iterborda.preflib import serialize_soc

from center_helpers import load_module

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
    assert len(imported) == 11


def dead_names(modules, readers):
    """Imports a module never uses, as (module, name), and its top-level functions
    and classes that no reader names; a test names its fixtures as parameters."""
    referenced = {
        getattr(node, "id", None) or getattr(node, "attr", None) or node.arg
        for tree in readers
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.arg))
    }
    unused, unreferenced = set(), set()
    for path, tree in modules.items():
        bound = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.update((path.stem, name) for name in bound - used)
        unreferenced.update(
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in referenced
        )
    return unused, unreferenced


def test_unused_names_are_tracer_targets():
    sources = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for folder in ("src/iterborda", "demos", "perfbench", "tests")
        for path in (ROOT / folder).glob("*.py")
    }
    tests = {p: t for p, t in sources.items() if p.parent.name == "tests"}
    package = {p: t for p, t in sources.items() if p.parent.name == "iterborda" and p.stem != "__init__"}
    unused, unreferenced = dead_names(package, [t for p, t in sources.items() if p not in tests])
    tracer = load_module(ROOT / "perfbench" / "tracer.py")
    targets = {
        (owner.__name__.rpartition(".")[2], attr)
        for owner, attr, _ in tracer.layer_targets()
        if inspect.ismodule(owner)
    }
    assert unused <= targets, sorted(unused - targets)
    assert unreferenced <= {attr for _, attr in targets}, sorted(unreferenced)
    assert unreferenced == {"necessary_winner_from_total", "enumerate_extensions"}
    unused, unreferenced = dead_names(tests, tests.values())
    assert not unused, sorted(unused)
    assert all(name.startswith(("test_", "Test")) for name in unreferenced), sorted(unreferenced)


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
