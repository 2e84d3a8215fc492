"""YAML run configuration: schema validation, dotted-path overrides, canonical
hashing, boundary unit conversions, and object builders.

Boundary units are human-scale (mm, GHz, microseconds, fF, nH); everything
behind the builders is SI with angular frequencies in rad/s.  The hash covers
the configuration exactly as supplied (after overrides, before defaults), so
two runs with the same hash used the same inputs.

:data:`CONFIG_SCHEMA` is a JSON Schema (draft-07) document and the one
definition of the configuration: each optional key's value when absent is the
``default`` annotation of its entry, which :func:`get_setting` reads.  It is
checked by a small walker that implements exactly the keywords the schema
uses, with draft-07 semantics, plus one rule JSON Schema lacks: every
``number`` and ``integer`` must be finite.  The walker ignores ``default``, as
JSON Schema does.
Files and override values are parsed with PyYAML's libyaml-backed safe loader
where PyYAML was built with libyaml, and with its pure-Python ``SafeLoader``
otherwise; both resolve and construct the same objects.
"""
from __future__ import annotations

import copy
import hashlib
import json
import math
import re

import yaml

from .cavity import CavityGeometry, CoaxProbe, ModeIndex
from .errors import ConfigError
from .transmon import DipoleSpec

SCHEMA_VERSION = 1

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_VEC3 = {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3}

CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "geometry"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "geometry": {
            "type": "object",
            "additionalProperties": False,
            "required": ["a_mm", "b_mm", "d_mm"],
            "properties": {
                "a_mm": _POSITIVE,
                "b_mm": _POSITIVE,
                "d_mm": _POSITIVE,
                "eps_r": {"type": "number", "minimum": 1.0, "default": 1.0},
            },
        },
        "probes": {
            "type": "array",
            "default": [],
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["x0_mm", "z0_mm", "r_inner_mm", "r_outer_mm", "h_mm"],
                "properties": {
                    "x0_mm": {"type": "number"},
                    "z0_mm": {"type": "number"},
                    "r_inner_mm": _POSITIVE,
                    "r_outer_mm": _POSITIVE,
                    "h_mm": {"type": "number", "minimum": 0},
                    "wall": {"enum": ["bottom", "top"], "default": "bottom"},
                },
            },
        },
        "modes": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"f_max_GHz": {**_POSITIVE, "default": 15.0}},
        },
        "hom": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "sigma1_us": {**_POSITIVE, "default": 2.5},
                "sigma2_us": {**_POSITIVE, "default": 2.5},
                "center": {
                    "oneOf": [{"enum": ["balanced", "scan"]}, {"type": "number"}],
                    "default": "balanced",
                },
                "tau_max_us": {**_POSITIVE, "default": 25.0},
                "n_tau": {"type": "integer", "minimum": 1, "default": 101},
                # read by nothing since HOM curves are closed-form; kept so that
                # configs that set it stay valid until schema_version changes
                "n_bins": {"type": "integer", "minimum": 2, "default": 8192},
                "normalization": {"enum": ["integrated", "time_local"],
                                  "default": "integrated"},
                "mode": {"type": "string", "default": "TE101"},
            },
        },
        "qubits": {
            "type": "array",
            "default": [],
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["dipole", "L_J_nH", "C_L_fF"],
                "properties": {
                    "dipole": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["length_mm", "radius_mm", "center_mm", "orientation"],
                        "properties": {
                            "length_mm": _POSITIVE,
                            "radius_mm": _POSITIVE,
                            "gap_mm": {"type": "number", "minimum": 0, "default": 0.0},
                            "center_mm": _VEC3,
                            "orientation": _VEC3,
                        },
                    },
                    "L_J_nH": _POSITIVE,
                    "C_L_fF": _POSITIVE,
                    "c_ant_fF": _POSITIVE,
                },
            },
        },
        "dispersive": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "cavity_modes": {
                    "type": "array",
                    "items": {"type": "string"},
                    "minItems": 1,
                    "default": ["TE101", "TE102"],
                },
                "M": {"type": "integer", "minimum": 2, "default": 6},
                "chi": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "qubit": {"type": "integer", "minimum": 0, "default": 0},
                        "cavity": {"type": "integer", "minimum": 0, "default": 0},
                    },
                },
                "zeta_pair": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 0},
                    "minItems": 2,
                    "maxItems": 2,
                },
                "sweep": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["type"],
                    "properties": {
                        "type": {"enum": ["none", "position_grid", "L_J"],
                                 "default": "none"},
                        "qubit": {"type": "integer", "minimum": 0, "default": 0},
                        "n_x": {"type": "integer", "minimum": 1, "default": 11},
                        "n_z": {"type": "integer", "minimum": 1, "default": 11},
                        "margin_mm": {**_POSITIVE, "default": 1.0},
                        "start_nH": _POSITIVE,
                        "stop_nH": _POSITIVE,
                        "n_points": {"type": "integer", "minimum": 1},
                    },
                },
            },
        },
        "external_modes": {"type": "string"},
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"basename": {"type": "string", "default": "cavqed"}},
        },
    },
}

_MODE_LABEL = re.compile(r"^(TE|TM)(?:(\d)(\d)(\d)|_(\d+)_(\d+)_(\d+))$")


def validate_config(cfg: dict) -> None:
    """Raise :class:`ConfigError` (with the offending path) for the first
    violation of :data:`CONFIG_SCHEMA` or non-finite number."""
    problem = _first_violation(cfg, CONFIG_SCHEMA, ())
    if problem is not None:
        path, message = problem
        where = "/".join(str(p) for p in path) or "<root>"
        raise ConfigError(f"invalid configuration at {where}: {message}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


#: JSON types by name; an integer-valued float is an ``integer`` (draft-07).
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}


def _same(a, b) -> bool:
    """JSON equality of scalars: ``true`` is not ``1``."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _first_violation(value, schema: dict, path: tuple):
    """First ``(path, message)`` at which ``value`` breaks ``schema``, or None."""
    kind = schema.get("type")
    if kind is not None:
        if kind in ("number", "integer") and _is_number(value) and not _is_finite(value):
            return path, f"{value!r} is not a finite number"
        if not _TYPES[kind](value):
            return path, f"{value!r} is not of type {kind!r}"
    if "const" in schema and not _same(value, schema["const"]):
        return path, f"{schema['const']!r} was expected"
    if "enum" in schema and not any(_same(value, e) for e in schema["enum"]):
        return path, f"{value!r} is not one of {schema['enum']!r}"
    if _is_number(value):
        if value < schema.get("minimum", -math.inf):
            return path, f"{value!r} is less than the minimum of {schema['minimum']!r}"
        if value <= schema.get("exclusiveMinimum", -math.inf):
            return path, (f"{value!r} is less than or equal to the minimum of "
                          f"{schema['exclusiveMinimum']!r}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return path, f"{value!r} has fewer than {schema['minItems']} items"
        if len(value) > schema.get("maxItems", math.inf):
            return path, f"{value!r} has more than {schema['maxItems']} items"
        for i, item in enumerate(value):
            problem = _first_violation(item, schema.get("items", {}), path + (i,))
            if problem is not None:
                return problem
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        if schema.get("additionalProperties", True) is False:
            unexpected = [key for key in value if key not in properties]
            if unexpected:
                return path, f"unexpected key(s) {unexpected}"
        missing = [key for key in schema.get("required", ()) if key not in value]
        if missing:
            return path, f"missing required key(s) {missing}"
        for key, subschema in properties.items():
            if key in value:
                problem = _first_violation(value[key], subschema, path + (key,))
                if problem is not None:
                    return problem
    if "oneOf" in schema:
        matches = sum(_first_violation(value, s, path) is None for s in schema["oneOf"])
        if matches != 1:
            return path, (f"{value!r} is valid under {matches} of the "
                          f"{len(schema['oneOf'])} alternatives (exactly one required)")
    return None


#: libyaml's safe loader shares SafeLoader's resolver and constructor.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _parse_yaml(stream):
    return yaml.load(stream, Loader=_YAML_LOADER)


def load_config(path: str) -> dict:
    """Read, parse, and validate a YAML configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = _parse_yaml(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"could not parse {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path} must contain a mapping at the top level")
    validate_config(cfg)
    return cfg


def apply_overrides(cfg: dict, assignments) -> dict:
    """Return a copy of ``cfg`` with ``key.path=value`` assignments applied.

    Path components address mapping keys or (as integers) sequence indices;
    intermediate mappings are created on demand.  Values are parsed as YAML
    scalars/fragments (so ``true``, ``3.5``, ``[1, 2]`` all work).
    """
    out = copy.deepcopy(cfg)
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError(f"override {assignment!r} must look like key.path=value")
        dotted, _, raw_value = assignment.partition("=")
        parts = dotted.strip().split(".")
        if not all(parts):
            raise ConfigError(f"override {assignment!r} has an empty path component")
        try:
            value = _parse_yaml(raw_value)
        except yaml.YAMLError as exc:
            raise ConfigError(f"override {assignment!r}: bad value: {exc}") from exc
        node = out
        for part in parts[:-1]:
            node = _descend(node, part, assignment)
        last = parts[-1]
        if isinstance(node, list):
            idx = _list_index(node, last, assignment)
            node[idx] = value
        elif isinstance(node, dict):
            node[last] = value
        else:
            raise ConfigError(f"override {assignment!r}: cannot index into a scalar")
    return out


def _descend(node, part: str, assignment: str):
    if isinstance(node, list):
        return node[_list_index(node, part, assignment)]
    if isinstance(node, dict):
        return node.setdefault(part, {})
    raise ConfigError(f"override {assignment!r}: cannot index into a scalar at {part!r}")


def _list_index(node: list, part: str, assignment: str) -> int:
    try:
        idx = int(part)
    except ValueError:
        raise ConfigError(f"override {assignment!r}: list index {part!r} is not an "
                          "integer") from None
    if not -len(node) <= idx < len(node):
        raise ConfigError(f"override {assignment!r}: index {idx} out of range")
    return idx


def config_hash(cfg: dict) -> str:
    """sha256 of the canonical JSON form (sorted keys, minimal separators)."""
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def get_setting(cfg: dict, dotted: str):
    """Fetch a dotted-path entry; an absent one takes the ``default`` of its
    :data:`CONFIG_SCHEMA` entry.  An integer path component indexes a list
    and steps the schema into ``items``."""
    node, schema = cfg, CONFIG_SCHEMA
    for part in dotted.split("."):
        if "items" in schema:
            schema, key = schema["items"], int(part)
            found = isinstance(node, list) and -len(node) <= key < len(node)
        else:
            schema, key = schema.get("properties", {}).get(part, {}), part
            found = isinstance(node, dict) and key in node
        node = node[key] if found else None
    if found:
        return node
    if "default" not in schema:
        raise ConfigError(f"missing configuration entry {dotted!r}")
    return copy.deepcopy(schema["default"])


# --- unit conversions (boundary <-> SI) ------------------------------------

def mm_to_m(value: float) -> float:
    return value * 1e-3


def us_to_s(value: float) -> float:
    return value * 1e-6


def ff_to_farad(value: float) -> float:
    return value * 1e-15


def nh_to_henry(value: float) -> float:
    return value * 1e-9


def ghz_to_rad_per_s(value: float) -> float:
    return 2.0 * math.pi * 1e9 * value


def rad_per_s_to_ghz(value: float) -> float:
    return value / (2.0 * math.pi * 1e9)


def rad_per_s_to_mhz(value: float) -> float:
    return value / (2.0 * math.pi * 1e6)


# --- builders ---------------------------------------------------------------

def parse_mode_label(label: str) -> ModeIndex:
    """Parse ``TE101`` / ``TM110`` (single-digit) or ``TE_1_0_12`` labels."""
    match = _MODE_LABEL.match(label.strip())
    if not match:
        raise ConfigError(f"unrecognized mode label {label!r} "
                          "(expected e.g. TE101 or TE_1_0_12)")
    family = match.group(1)
    digits = match.groups()[1:4] if match.group(2) is not None else match.groups()[4:7]
    m, n, p = (int(x) for x in digits)
    try:
        return ModeIndex(family=family, m=m, n=n, p=p)
    except ValueError as exc:
        raise ConfigError(f"mode label {label!r}: {exc}") from exc


def build_geometry(cfg: dict) -> CavityGeometry:
    geo = cfg["geometry"]
    return CavityGeometry(
        a=mm_to_m(geo["a_mm"]),
        b=mm_to_m(geo["b_mm"]),
        d=mm_to_m(geo["d_mm"]),
        eps_r=float(get_setting(cfg, "geometry.eps_r")),
    )


def build_probes(cfg: dict) -> list[CoaxProbe]:
    return [CoaxProbe(x0=mm_to_m(entry["x0_mm"]),
                      z0=mm_to_m(entry["z0_mm"]),
                      r_inner=mm_to_m(entry["r_inner_mm"]),
                      r_outer=mm_to_m(entry["r_outer_mm"]),
                      h=mm_to_m(entry["h_mm"]),
                      wall=get_setting(cfg, f"probes.{i}.wall"))
            for i, entry in enumerate(get_setting(cfg, "probes"))]


def build_dipole(qubit_cfg: dict) -> DipoleSpec:
    dip = qubit_cfg["dipole"]
    return DipoleSpec(
        length=mm_to_m(dip["length_mm"]),
        radius=mm_to_m(dip["radius_mm"]),
        gap=mm_to_m(get_setting({"qubits": [qubit_cfg]}, "qubits.0.dipole.gap_mm")),
        center=tuple(mm_to_m(c) for c in dip["center_mm"]),
        orientation=tuple(float(c) for c in dip["orientation"]),
    )
