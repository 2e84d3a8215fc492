"""The README's Python examples run as written, and its YAML examples are
valid configurations."""
import re
import warnings
from pathlib import Path

import yaml

from cavqed.config import validate_config

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks(text, language):
    """Bodies of the fenced blocks of ``language``, in document order."""
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def test_python_blocks_run_in_order():
    # Later blocks use the names earlier ones define, so all share one namespace.
    blocks = fenced_blocks(README.read_text(encoding="utf-8"), "python")
    assert blocks
    namespace = {"__name__": "readme"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, block in enumerate(blocks):
            exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def test_yaml_blocks_are_valid_configurations():
    blocks = fenced_blocks(README.read_text(encoding="utf-8"), "yaml")
    assert blocks
    for block in blocks:
        validate_config(yaml.safe_load(block))
