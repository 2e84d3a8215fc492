import math
from pathlib import Path

import numpy.testing as npt
import pytest
import yaml

from cavqed import config
from cavqed.errors import ConfigError

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))

#: The JSON Schema keywords the config walker implements.
WALKER_KEYWORDS = {"$schema", "type", "properties", "required", "additionalProperties",
                   "items", "minItems", "maxItems", "const", "enum", "minimum",
                   "exclusiveMinimum", "oneOf"}

MINIMAL = {
    "schema_version": 1,
    "geometry": {"a_mm": 22.86, "b_mm": 10.16, "d_mm": 40.0},
}


def full_config():
    return {
        "schema_version": 1,
        "geometry": {"a_mm": 22.86, "b_mm": 10.16, "d_mm": 40.0, "eps_r": 1.0},
        "probes": [
            {"x0_mm": 11.43, "z0_mm": 10.0, "r_inner_mm": 0.05,
             "r_outer_mm": 2.5, "h_mm": 0.75, "wall": "bottom"},
            {"x0_mm": 11.43, "z0_mm": 30.0, "r_inner_mm": 0.05,
             "r_outer_mm": 2.5, "h_mm": 0.75, "wall": "top"},
        ],
        "qubits": [
            {"dipole": {"length_mm": 1.0, "radius_mm": 0.04, "gap_mm": 0.102,
                        "center_mm": [11.43, 5.08, 20.0],
                        "orientation": [0.0, 1.0, 0.0]},
             "L_J_nH": 9.4, "C_L_fF": 50.34},
        ],
        "dispersive": {"cavity_modes": ["TE101", "TE102"], "M": 6},
    }


class TestValidation:
    def test_minimal_valid(self):
        config.validate_config(MINIMAL)

    def test_full_valid(self):
        config.validate_config(full_config())

    def test_missing_geometry(self):
        with pytest.raises(ConfigError):
            config.validate_config({"schema_version": 1})

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError):
            config.validate_config({**MINIMAL, "schema_version": 2})

    def test_unknown_key_rejected(self):
        cfg = full_config()
        cfg["geometry"]["a_m"] = 0.02286
        with pytest.raises(ConfigError):
            config.validate_config(cfg)

    def test_wrong_type_rejected(self):
        cfg = full_config()
        cfg["dispersive"]["M"] = "six"
        with pytest.raises(ConfigError):
            config.validate_config(cfg)
        cfg = full_config()
        cfg["probes"][0]["wall"] = "east"
        with pytest.raises(ConfigError):
            config.validate_config(cfg)

    def test_error_names_location(self):
        cfg = full_config()
        cfg["qubits"][0]["L_J_nH"] = None
        with pytest.raises(ConfigError, match="qubits"):
            config.validate_config(cfg)


    def test_integer_semantics(self):
        cfg = full_config()
        cfg["dispersive"]["M"] = 8.0  # an integer-valued float is an integer
        config.validate_config(cfg)
        for bad in (8.5, True, "8"):
            cfg["dispersive"]["M"] = bad
            with pytest.raises(ConfigError, match="at dispersive/M: .* not of type"):
                config.validate_config(cfg)

    def test_bool_is_not_a_number(self):
        cfg = full_config()
        cfg["geometry"]["eps_r"] = True
        with pytest.raises(ConfigError, match="at geometry/eps_r: True is not of type"):
            config.validate_config(cfg)

    def test_const_and_enum_compare_bools_strictly(self):
        with pytest.raises(ConfigError, match="at schema_version: "):
            config.validate_config({**MINIMAL, "schema_version": True})
        config.validate_config({**MINIMAL, "schema_version": 1.0})
        cfg = full_config()
        cfg["probes"][0]["wall"] = True
        with pytest.raises(ConfigError, match="at probes/0/wall: "):
            config.validate_config(cfg)

    def test_bounds(self):
        cfg = full_config()
        cfg["geometry"]["a_mm"] = 0
        with pytest.raises(ConfigError, match="at geometry/a_mm: 0 is less than or equal"):
            config.validate_config(cfg)
        cfg = full_config()
        cfg["qubits"][0]["dipole"]["center_mm"] = [1.0, 2.0]
        with pytest.raises(ConfigError, match="at qubits/0/dipole/center_mm: "):
            config.validate_config(cfg)
        cfg = full_config()
        cfg["dispersive"]["cavity_modes"] = []
        with pytest.raises(ConfigError, match="at dispersive/cavity_modes: "):
            config.validate_config(cfg)

    def test_one_of(self):
        for center in ("balanced", "scan", 7.5):
            config.validate_config({**MINIMAL, "hom": {"center": center}})
        for center in ("middle", None, [7.5], math.nan):
            with pytest.raises(ConfigError, match="at hom/center: "):
                config.validate_config({**MINIMAL, "hom": {"center": center}})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400],
                             ids=["nan", "inf", "-inf", "int_beyond_float"])
    def test_non_finite_numbers_rejected(self, value):
        cfg = full_config()
        cfg["qubits"][0]["L_J_nH"] = value
        with pytest.raises(ConfigError,
                           match="at qubits/0/L_J_nH: .* is not a finite number"):
            config.validate_config(cfg)
        cfg = full_config()
        cfg["dispersive"]["M"] = value
        with pytest.raises(ConfigError, match="at dispersive/M: .* is not a finite number"):
            config.validate_config(cfg)

    def test_root_path(self):
        with pytest.raises(ConfigError, match="at <root>: missing required key"):
            config.validate_config({"schema_version": 1})
        with pytest.raises(ConfigError, match="at <root>: unexpected key"):
            config.validate_config({**MINIMAL, "extra": 1})

    def test_schema_uses_only_walker_keywords(self):
        """A keyword the walker does not implement would be silently ignored."""
        def walk(schema):
            assert set(schema) <= WALKER_KEYWORDS, set(schema) - WALKER_KEYWORDS
            assert schema.get("type", "object") in config._TYPES
            assert schema.get("additionalProperties", False) is False
            children = [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]
            if "items" in schema:
                children.append(schema["items"])
            for child in children:
                walk(child)
        walk(config.CONFIG_SCHEMA)


class TestLoad:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "case.yaml"
        path.write_text(yaml.safe_dump(full_config()))
        assert config.load_config(str(path)) == full_config()

    def test_invalid_content(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("schema_version: 1\n")
        with pytest.raises(ConfigError):
            config.load_config(str(path))

    def test_non_mapping(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError):
            config.load_config(str(path))


    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_shipped_configs_parse_as_with_safe_loader(self, path):
        text = path.read_text(encoding="utf-8")
        reference = yaml.load(text, Loader=yaml.SafeLoader)
        parsed = config._parse_yaml(text)
        assert parsed == reference and repr(parsed) == repr(reference)
        assert config.load_config(str(path)) == reference

    @pytest.mark.parametrize("text", ["1e3", "1.5e3", "0x10", "0o17", "1_000", "yes",
                                      "No", "~", "null", ".nan", "-.inf", "2001-12-14",
                                      "[1, 2.0, true, x]", "{a: 1}"])
    def test_scalars_parse_as_with_safe_loader(self, text):
        reference = yaml.load(text, Loader=yaml.SafeLoader)
        parsed = config._parse_yaml(text)
        assert repr(parsed) == repr(reference)


class TestOverrides:
    def test_scalar_override(self):
        out = config.apply_overrides(full_config(), ["geometry.a_mm=20.0"])
        assert out["geometry"]["a_mm"] == 20.0
        # original untouched
        assert full_config()["geometry"]["a_mm"] == 22.86

    def test_typed_values(self):
        base = full_config()
        out = config.apply_overrides(base, [
            "dispersive.M=8",
            "dispersive.sweep.type=position_grid",
            "dispersive.cavity_modes=[TE101]",
            "output.basename=alt",
        ])
        assert out["dispersive"]["M"] == 8
        assert out["dispersive"]["sweep"]["type"] == "position_grid"
        assert out["dispersive"]["cavity_modes"] == ["TE101"]
        assert out["output"]["basename"] == "alt"

    def test_list_index_path(self):
        out = config.apply_overrides(full_config(), ["qubits.0.L_J_nH=3.095"])
        assert out["qubits"][0]["L_J_nH"] == 3.095

    def test_nested_creation(self):
        out = config.apply_overrides(dict(MINIMAL), ["hom.n_bins=4096"])
        assert out["hom"]["n_bins"] == 4096

    def test_diagnostics(self):
        for bad in ("geometry.a_mm", "=1.0", "qubits.5.L_J_nH=1",
                    "qubits.x.L_J_nH=1", "geometry.a_mm.deeper=1"):
            with pytest.raises(ConfigError):
                config.apply_overrides(full_config(), [bad])


class TestHashAndSettings:
    def test_hash_stable_and_sensitive(self):
        a = config.config_hash(full_config())
        assert a == config.config_hash(full_config())
        assert len(a) == 64
        changed = config.apply_overrides(full_config(), ["geometry.a_mm=20.0"])
        assert config.config_hash(changed) != a
        # key order must not matter
        reordered = dict(reversed(list(full_config().items())))
        assert config.config_hash(reordered) == a

    def test_get_setting_with_defaults(self):
        cfg = full_config()
        assert config.get_setting(cfg, "geometry.a_mm") == 22.86
        assert config.get_setting(cfg, "modes.f_max_GHz") == 15.0
        assert config.get_setting(cfg, "hom.n_bins") == 8192
        assert config.get_setting(cfg, "dispersive.sweep.type") == "none"
        with pytest.raises(ConfigError):
            config.get_setting(cfg, "geometry.nonexistent")


class TestConverters:
    def test_linear_units(self):
        npt.assert_allclose(config.mm_to_m(22.86), 22.86e-3, rtol=1e-15)
        npt.assert_allclose(config.us_to_s(2.5), 2.5e-6, rtol=1e-15)
        npt.assert_allclose(config.ff_to_farad(50.34), 50.34e-15, rtol=1e-15)
        npt.assert_allclose(config.nh_to_henry(9.4), 9.4e-9, rtol=1e-15)

    def test_frequency_units(self):
        npt.assert_allclose(config.ghz_to_rad_per_s(7.5), 2 * math.pi * 7.5e9,
                            rtol=1e-15)
        npt.assert_allclose(config.rad_per_s_to_ghz(2 * math.pi * 7.5e9), 7.5,
                            rtol=1e-15)
        npt.assert_allclose(config.rad_per_s_to_mhz(2 * math.pi * 7.5e6), 7.5,
                            rtol=1e-15)


class TestModeLabels:
    def test_compact_form(self):
        idx = config.parse_mode_label("TE101")
        assert (idx.family, idx.m, idx.n, idx.p) == ("TE", 1, 0, 1)
        idx = config.parse_mode_label("TM210")
        assert (idx.family, idx.m, idx.n, idx.p) == ("TM", 2, 1, 0)

    def test_underscore_form(self):
        idx = config.parse_mode_label("TE_1_0_12")
        assert (idx.family, idx.m, idx.n, idx.p) == ("TE", 1, 0, 12)

    def test_round_trip_with_label(self):
        for label in ("TE101", "TM111", "TE_1_0_12"):
            assert config.parse_mode_label(label).label == label

    def test_invalid_labels(self):
        for bad in ("TE001", "TM011", "TEM101", "TE10", "te101", "TE_1_0",
                    "garbage"):
            with pytest.raises(ConfigError):
                config.parse_mode_label(bad)


class TestBuilders:
    def test_geometry(self):
        geom = config.build_geometry(full_config())
        assert (geom.a, geom.b, geom.d) == (22.86e-3, 10.16e-3, 40e-3)
        assert geom.eps_r == 1.0

    def test_probes(self):
        probes = config.build_probes(full_config())
        assert len(probes) == 2
        assert probes[0].x0 == 11.43e-3
        assert probes[0].h == 0.75e-3
        assert probes[1].wall == "top"
        assert config.build_probes(MINIMAL) == []

    def test_dipole(self):
        dipole = config.build_dipole(full_config()["qubits"][0])
        assert dipole.length == 1e-3
        assert dipole.radius == 0.04e-3
        assert dipole.gap == 0.102e-3
        npt.assert_allclose(dipole.center, (11.43e-3, 5.08e-3, 20e-3), rtol=0)
        npt.assert_allclose(dipole.orientation, (0.0, 1.0, 0.0), rtol=0)
