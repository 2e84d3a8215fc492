"""The README's Python examples run as written."""
import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    """Bodies of the fenced ```python blocks, in document order."""
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def test_python_blocks_run_in_order():
    # Later blocks use the names earlier ones define, so all share one namespace.
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks
    namespace = {"__name__": "readme"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, block in enumerate(blocks):
            exec(compile(block, f"README.md python block {i}", "exec"), namespace)
