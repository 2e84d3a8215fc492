"""Largest shift per key between two trees of cavqed outputs.

    python tests/output_shift.py OLD_DIR NEW_DIR

Every ``.json`` and ``.csv`` file of OLD_DIR is compared with the file of the
same name in NEW_DIR: JSON value by value, CSV cell by cell under its header
row (its ``#`` comment lines as strings).  A key is the path to a value with list indices left out, e.g.
``points[].chi_MHz``.  Floats may move, and the largest absolute shift of
each key is printed as a Markdown table; every other value (strings, ints,
booleans, nulls, list lengths and key sets) must be equal, and the first
difference ends the run with exit code 1.
"""
from __future__ import annotations

import csv
import json
import sys
from pathlib import Path


class Mismatch(ValueError):
    """Two outputs differ in something other than a float."""


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _load(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    lines = path.read_text().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    header, *rows = csv.reader(line for line in lines if not line.startswith("#"))
    return {"#": comments,
            "rows": [{name: _cell(text) for name, text in zip(header, row)}
                     for row in rows]}


def _walk(old, new, key: str, shifts: dict[str, float]) -> None:
    if isinstance(old, float) and isinstance(new, float):
        shifts[key] = max(shifts.get(key, 0.0), abs(new - old))
    elif isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            raise Mismatch(f"{key or '<root>'}: keys {sorted(old)} != {sorted(new)}")
        for name in old:
            _walk(old[name], new[name], f"{key}.{name}" if key else name, shifts)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            raise Mismatch(f"{key}: {len(old)} entries != {len(new)}")
        for a, b in zip(old, new):
            _walk(a, b, f"{key}[]", shifts)
    elif type(old) is not type(new) or old != new:
        raise Mismatch(f"{key}: {old!r} != {new!r}")


def output_shifts(old_dir, new_dir) -> dict[str, dict[str, float]]:
    """{file name: {key: largest |new - old|}} over the output files of
    ``old_dir``; raises :class:`Mismatch` on any non-float difference."""
    result = {}
    for old_path in sorted(Path(old_dir).iterdir()):
        if old_path.suffix not in (".json", ".csv"):
            continue
        new_path = Path(new_dir) / old_path.name
        if not new_path.is_file():
            raise Mismatch(f"{old_path.name}: missing from {new_dir}")
        shifts: dict[str, float] = {}
        _walk(_load(old_path), _load(new_path), "", shifts)
        result[old_path.name] = shifts
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/output_shift.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    try:
        table = output_shifts(*argv)
    except Mismatch as exc:
        print(f"non-float difference: {exc}", file=sys.stderr)
        return 1
    print("| file | key | largest shift |\n|---|---|---|")
    for name, shifts in table.items():
        for key, shift in shifts.items():
            print(f"| {name} | `{key}` | {shift:.3g} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
