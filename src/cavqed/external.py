"""Interchange of externally computed cavity modes (e.g. from a numerical
field solver) as CSV.

Each record carries a mode label, the resonant frequency in GHz, the
unit-normalized electric field vector evaluated at each qubit site
(components in m^(-3/2), same normalization as the analytic modes), and the
two port coupling rates in sqrt(rad/s).

Column layout: ``mode_label, f_GHz, Ex1, Ey1, Ez1, [Ex2, Ey2, Ez2, ...],
g_port1, g_port2``.  For a single qubit site the bare aliases ``Ex, Ey, Ez``
are accepted on read; ``#``-prefixed comment lines are skipped; unknown
columns are ignored with a warning.  Writing then reading a record list
reproduces it exactly (17-significant-digit round-trip); a record refuses a
label that the reader would strip or skip as a comment.
"""
from __future__ import annotations

import csv
import math
import re
import warnings
from dataclasses import dataclass

from .errors import ExternalModesError
from .output import open_output

_E_COLUMN = re.compile(r"^E([xyz])([1-9][0-9]*)?$")
_KNOWN_SCALARS = ("mode_label", "f_GHz", "g_port1", "g_port2")


@dataclass(frozen=True)
class ExternalModeRecord:
    """One cavity mode as provided by an external solver."""

    mode_label: str
    f_GHz: float
    e_fields: tuple[tuple[float, float, float], ...]
    g_port1: float
    g_port2: float

    def __post_init__(self) -> None:
        if not self.mode_label:
            raise ValueError("mode_label must be non-empty")
        if self.mode_label != self.mode_label.strip() or self.mode_label.startswith("#"):
            raise ValueError(f"mode_label {self.mode_label!r} would not survive the CSV round "
                             "trip: it starts with '#' or has leading or trailing whitespace")
        if not 0 < self.f_GHz < math.inf:  # also rejects NaN
            raise ValueError(f"f_GHz must be positive and finite, got {self.f_GHz!r}")
        if len(self.e_fields) < 1:
            raise ValueError("need field values for at least one qubit site")
        if any(len(vec) != 3 for vec in self.e_fields):
            raise ValueError("each field entry must have 3 components")
        object.__setattr__(
            self, "e_fields",
            tuple(tuple(float(c) for c in vec) for vec in self.e_fields))
        for name, values in (("e_fields", [c for vec in self.e_fields for c in vec]),
                             ("g_port1", (self.g_port1,)), ("g_port2", (self.g_port2,))):
            if not all(map(math.isfinite, values)):  # the reader refuses them
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")

    @property
    def n_sites(self) -> int:
        return len(self.e_fields)


def _parse_header(header: list[str], path: str) -> tuple[dict, list[tuple[int, int, int]]]:
    """Map scalar column names to indices and E columns to per-site triples."""
    positions: dict[str, int] = {}
    e_cols: dict[int, dict[str, int]] = {}
    for i, raw in enumerate(header):
        name = raw.strip()
        if name in _KNOWN_SCALARS:
            if name in positions:
                raise ExternalModesError(f"{path}: duplicate column {name!r}")
            positions[name] = i
            continue
        match = _E_COLUMN.match(name)
        if match:
            component, suffix = match.group(1), match.group(2)
            site = int(suffix) if suffix else 1
            slot = e_cols.setdefault(site, {})
            if component in slot:
                raise ExternalModesError(f"{path}: duplicate column {name!r}")
            slot[component] = i
            continue
        warnings.warn(f"{path}: ignoring unknown column {name!r}", stacklevel=3)
    missing = [name for name in _KNOWN_SCALARS if name not in positions]
    if missing:
        raise ExternalModesError(f"{path}: missing required column(s) {missing}")
    if not e_cols:
        raise ExternalModesError(f"{path}: no field columns (Ex/Ey/Ez) found")
    sites = sorted(e_cols)
    if sites != list(range(1, len(sites) + 1)):
        raise ExternalModesError(
            f"{path}: qubit-site field columns must be numbered 1..N, got {sites}")
    triples = []
    for site in sites:
        slot = e_cols[site]
        if sorted(slot) != ["x", "y", "z"]:
            raise ExternalModesError(
                f"{path}: site {site} needs all of Ex/Ey/Ez, got "
                f"{sorted('E' + c for c in slot)}")
        triples.append((slot["x"], slot["y"], slot["z"]))
    return positions, triples


def _parse_float(row: list[str], index: int, name: str, line_no: int, path: str) -> float:
    try:
        value = float(row[index])
    except (ValueError, IndexError) as exc:
        text = row[index] if index < len(row) else "<missing>"
        raise ExternalModesError(
            f"{path}, line {line_no}: field {name!r}: cannot parse {text!r} "
            "as a number") from exc
    if not math.isfinite(value):
        raise ExternalModesError(
            f"{path}, line {line_no}: field {name!r}: non-finite value {row[index]!r}")
    return value


def read_external_modes(path: str) -> list[ExternalModeRecord]:
    """Parse a mode CSV; raise :class:`ExternalModesError` with the offending
    line and field on any structural or numeric problem, including a
    non-finite number (nan, inf) and a header with no records after it."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [(i + 1, row) for i, row in enumerate(csv.reader(fh))
                if row and not row[0].lstrip().startswith("#")]
    if not rows:
        raise ExternalModesError(f"{path}: no header row found")
    (_, header), data_rows = rows[0], rows[1:]
    positions, triples = _parse_header(header, path)
    if not data_rows:
        raise ExternalModesError(f"{path}: no mode records")
    records = []
    seen_lines: dict[str, int] = {}
    for line_no, row in data_rows:
        label = row[positions["mode_label"]].strip() if positions["mode_label"] < len(row) else ""
        if not label:
            raise ExternalModesError(f"{path}, line {line_no}: empty mode_label")
        if label in seen_lines:
            raise ExternalModesError(
                f"{path}, line {line_no}: duplicate mode_label {label!r} "
                f"(first seen on line {seen_lines[label]})")
        seen_lines[label] = line_no
        f_ghz = _parse_float(row, positions["f_GHz"], "f_GHz", line_no, path)
        fields = tuple(
            tuple(_parse_float(row, idx, f"E{comp}{site}", line_no, path)
                  for comp, idx in zip("xyz", triple))
            for site, triple in enumerate(triples, start=1))
        record_kwargs = dict(
            mode_label=label,
            f_GHz=f_ghz,
            e_fields=fields,
            g_port1=_parse_float(row, positions["g_port1"], "g_port1", line_no, path),
            g_port2=_parse_float(row, positions["g_port2"], "g_port2", line_no, path),
        )
        try:
            records.append(ExternalModeRecord(**record_kwargs))
        except ValueError as exc:
            raise ExternalModesError(f"{path}, line {line_no}: {exc}") from exc
    return records


def write_external_modes(path: str, records) -> None:
    """Write records as CSV (17 significant digits; single-site files use the
    bare Ex/Ey/Ez aliases)."""
    records = list(records)
    if not records:
        raise ValueError("need at least one record")
    n_sites = records[0].n_sites
    if any(rec.n_sites != n_sites for rec in records):
        raise ValueError("all records must have the same number of qubit sites")
    if n_sites == 1:
        e_names = ["Ex", "Ey", "Ez"]
    else:
        e_names = [f"E{comp}{site}" for site in range(1, n_sites + 1) for comp in "xyz"]
    with open_output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode_label", "f_GHz", *e_names, "g_port1", "g_port2"])
        for rec in records:
            flat_fields = [format(c, ".17g") for vec in rec.e_fields for c in vec]
            writer.writerow([rec.mode_label, format(rec.f_GHz, ".17g"), *flat_fields,
                             format(rec.g_port1, ".17g"), format(rec.g_port2, ".17g")])
