"""The names the benchmark in ``perfbench/`` takes from cavqed exist, and the
configuration overrides of its HOM variants stay valid.  The suite never
imports ``perfbench/`` (its files are parsed here), so a deleted name or
config key would otherwise show only when the benchmark runs."""
import ast
import importlib
from pathlib import Path

import pytest

import cavqed.system
from cavqed import config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
HOM_DEFAULT = PERFBENCH.parent / "configs" / "hom_default.yaml"


def _hom_variants() -> dict:
    """``HOM_VARIANTS`` of ``perfbench/inputs.py``: variant -> override assignments."""
    tree = ast.parse((PERFBENCH / "inputs.py").read_text(encoding="utf-8"))
    [value] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["HOM_VARIANTS"]]
    return ast.literal_eval(value)


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


@pytest.mark.parametrize("name", sorted(_hom_variants()))
def test_hom_variant_overrides_validate(name):
    # e.g. bins_16384 sets hom.n_bins: the key must stay in the schema while
    # the benchmark sets it.  inputs.py fills {sigma2} with the repr of 0.6 sigma.
    overrides = [a.format(sigma2=repr(0.6 * 2.5)) for a in _hom_variants()[name]]
    config.validate_config(config.apply_overrides(config.load_config(str(HOM_DEFAULT)),
                                                  overrides))
