"""The names the benchmark in ``perfbench/`` takes from cavqed exist.  The
suite never imports ``perfbench/`` (its files are parsed here), so a deleted
name would otherwise show only when the benchmark runs."""
import ast
import importlib
from pathlib import Path

import cavqed.system

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_imports_resolve():
    missing, modules = [], set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cavqed"):
                modules.add(node.module)
                module = importlib.import_module(node.module)
                missing += [(path.name, node.module, alias.name) for alias in node.names
                            if not hasattr(module, alias.name)]
    assert {"cavqed.system", "cavqed.transmon"} <= modules
    assert missing == []


def test_tracer_patches_exist():
    # perfbench/tracer.py wraps these two methods by name
    for name in ("energy", "overlap"):
        assert callable(getattr(cavqed.system.DressedSpectrum, name))
