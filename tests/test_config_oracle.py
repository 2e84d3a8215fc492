"""The config walker against ``jsonschema`` (a test-only oracle): both must
agree on valid/invalid for mutated shipped configurations, and on the failing
path where ``jsonschema`` reports a single error.  The one stated deviation:
cavqed rejects non-finite numbers, which JSON Schema's ``number`` admits."""
import copy
import math
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from cavqed import config
from cavqed.errors import ConfigError

jsonschema = pytest.importorskip("jsonschema")

ORACLE = jsonschema.Draft7Validator(config.CONFIG_SCHEMA)
SHIPPED = [yaml.safe_load(path.read_text(encoding="utf-8")) for path in
           sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))]

#: Replacement values: wrong types, bools, out-of-range numbers, bad enums,
#: empty and odd-length lists, and values some nodes accept.
VALUES = ["text", "balanced", "scan", "bottom", "none", "L_J", "TE101", None,
          True, False, 0, 1, 2, -1, 0.0, 0.5, -0.5, 3.0, 1e9, [], [1.0], [0, 1],
          [1, 2, 3], [1.0, 2.0, 3.0, 4.0], ["TE101"], {}, {"type": "none"}]


def _nodes(value, path=()):
    """Every path in a parsed configuration, the root included."""
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _nodes(child, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _nodes(child, path + (i,))


def _get(cfg, path):
    for part in path:
        cfg = cfg[part]
    return cfg


def _schema_at(path):
    schema = config.CONFIG_SCHEMA
    for part in path:
        schema = schema["items"] if isinstance(part, int) else schema["properties"][part]
    return schema


@st.composite
def mutated_configs(draw):
    cfg = copy.deepcopy(draw(st.sampled_from(SHIPPED)))
    path = draw(st.sampled_from(list(_nodes(cfg))))
    node = _get(cfg, path)
    kinds = ["set"]
    if isinstance(node, dict):
        kinds.append("add_key")
    if path:
        kinds.append("delete")
    if isinstance(node, int) and not isinstance(node, bool):
        kinds.append("float_integer")
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        kinds.append("number")
    if isinstance(node, list):
        kinds += ["empty_list", "long_list"]
    kind = draw(st.sampled_from(kinds))
    event(f"mutation: {kind}")
    if kind == "add_key":
        node[draw(st.sampled_from(["zz_unknown", "a_m", "type"]))] = 1
        return cfg
    if kind == "delete":
        parent = _get(cfg, path[:-1])
        del parent[path[-1]]
        return cfg
    if kind == "float_integer":
        value = float(node)
    elif kind == "number":
        value = draw(st.one_of(st.integers(-3, 20), st.floats(-10.0, 1e4)))
    elif kind == "empty_list":
        value = []
    elif kind == "long_list":
        value = node + node[:1] * draw(st.integers(1, 3))
    else:
        value = copy.deepcopy(draw(st.sampled_from(VALUES)))
    if not path:
        return value
    _get(cfg, path[:-1])[path[-1]] = value
    return cfg


def _walker_verdict(cfg):
    try:
        config.validate_config(cfg)
    except ConfigError as exc:
        return str(exc)
    return None


def _where(path) -> str:
    return "/".join(str(p) for p in path) or "<root>"


def test_oracle_accepts_schema():
    jsonschema.Draft7Validator.check_schema(config.CONFIG_SCHEMA)


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_configs())
def test_walker_agrees_with_jsonschema(cfg):
    errors = list(ORACLE.iter_errors(cfg))
    verdict = _walker_verdict(cfg)
    event("valid" if not errors else f"{min(len(errors), 2)} oracle error(s)")
    assert (verdict is None) == (not errors), (verdict, [e.message for e in errors])
    if len(errors) == 1:
        assert verdict.startswith(
            f"invalid configuration at {_where(errors[0].absolute_path)}: ")


def _numeric_typed_leaves():
    for index, cfg in enumerate(SHIPPED):
        for path in _nodes(cfg):
            node = _get(cfg, path)
            if (isinstance(node, (int, float)) and not isinstance(node, bool)
                    and "type" in _schema_at(path)):
                yield index, path


def _oracle_admits(schema, value) -> bool:
    """JSON Schema's verdict on a non-finite ``value``: an ``integer`` is
    integral, so finite, and the lower bounds compare as floats do."""
    if schema["type"] != "number":
        return False
    if "minimum" in schema and value < schema["minimum"]:
        return False
    return not ("exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_are_the_stated_deviation(value):
    """cavqed rejects every non-finite number; ``jsonschema`` accepts it at
    every ``number`` node whose lower bound it passes."""
    leaves = list(_numeric_typed_leaves())
    assert len(leaves) > 40
    admitted = 0
    for index, path in leaves:
        cfg = copy.deepcopy(SHIPPED[index])
        _get(cfg, path[:-1])[path[-1]] = value
        verdict = _walker_verdict(cfg)
        assert verdict == (f"invalid configuration at {_where(path)}: "
                           f"{value!r} is not a finite number")
        oracle_valid = not list(ORACLE.iter_errors(cfg))
        assert oracle_valid == _oracle_admits(_schema_at(path), value)
        admitted += oracle_valid
    assert admitted > 0
