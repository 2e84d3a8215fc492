import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy.testing as npt
import pytest
import yaml

import cavqed as cq
import cavqed.cli as cli
from cavqed.cavity import eval_fields, make_mode, mode_list
from cavqed.config import (build_dipole, build_geometry, build_probes,
                           parse_mode_label, rad_per_s_to_ghz)
from cavqed.errors import ConvergenceError, FieldVariationWarning
from cavqed.perturbation import perturbed_frequency_tip
from cavqed.ports import port_coupling
from cavqed.system import FLAG_BOUNDARY_SLACK, FLAG_THRESHOLD

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TABLE1 = str(CONFIGS / "table1_single_qubit.yaml")
HOM = str(CONFIGS / "hom_default.yaml")
CHI_MAP = str(CONFIGS / "chi_map.yaml")
ZZ_SWEEP = str(CONFIGS / "zz_sweep.yaml")

F_TE101_GHZ = "7.5524260725275605"
F_TE101_PERTURBED_GHZ = 7.552418853250746


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
    return comments, rows[0], rows[1:]


class TestModes:
    def test_modes_csv(self, tmp_path):
        out = tmp_path / "m.csv"
        assert cli.main(["modes", "--config", TABLE1, "--out", str(out)]) == 0
        comments, header, rows = read_csv(out)
        assert comments[0] == "# schema_version=1"
        assert comments[1].startswith("# config_sha256=")
        assert len(comments[1].split("=")[1]) == 64
        assert header == ["family", "m", "n", "p",
                          "f_unperturbed_GHz", "f_perturbed_GHz"]
        labels = [f"{r[0]}{r[1]}{r[2]}{r[3]}" for r in rows]
        assert labels == ["TE101", "TE102", "TE103", "TE201"]
        assert rows[0][4] == F_TE101_GHZ
        npt.assert_allclose(float(rows[0][5]), F_TE101_PERTURBED_GHZ, rtol=1e-12)
        # frequencies survive a text round trip exactly (17 significant digits)
        for row in rows:
            for cell in row[4:]:
                assert f"{float(cell):.17g}" == cell

    def test_perturbation_lowers_fundamental(self, tmp_path):
        out = tmp_path / "m.csv"
        cli.main(["modes", "--config", TABLE1, "--out", str(out)])
        _, _, rows = read_csv(out)
        assert float(rows[0][5]) < float(rows[0][4])


class TestHom:
    def run_quick(self, tmp_path, *extra):
        out = tmp_path / "h.csv"
        rc = cli.main(["hom", "--config", HOM, "--out", str(out),
                       "--override", "hom.n_tau=5",
                       "--override", "hom.n_bins=2048",
                       "--override", "hom.tau_max_us=5.0", *extra])
        assert rc == 0
        sidecar = json.loads(out.with_suffix(".json").read_text())
        _, header, rows = read_csv(out)
        assert header == ["tau_s", "g2"]
        return rows, sidecar

    def test_quick_curve_and_sidecar(self, tmp_path):
        rows, sidecar = self.run_quick(tmp_path)
        assert len(rows) == 5
        assert sidecar["schema_version"] == 1
        assert sidecar["mode_source"] == "internal"
        assert sidecar["mode_label"] == "TE101"
        assert sidecar["normalization"] == "integrated"
        assert sidecar["sigma1_us"] == 2.5
        assert sidecar["n_bins"] == 2048
        npt.assert_allclose(sidecar["f_resonance_GHz"], F_TE101_PERTURBED_GHZ,
                            rtol=1e-12)
        npt.assert_allclose(sidecar["balanced_center_GHz"], 7.553407616250731,
                            rtol=1e-9)
        npt.assert_allclose(sidecar["center_GHz"], sidecar["balanced_center_GHz"],
                            rtol=0)
        npt.assert_allclose(sidecar["bandwidth_fwhm_MHz"], 1.9775259999703618,
                            rtol=1e-9)
        assert sidecar["g1_sqrt_rad_per_s"] != 0.0
        npt.assert_allclose(sidecar["g2_sqrt_rad_per_s"],
                            -sidecar["g1_sqrt_rad_per_s"], rtol=1e-12)
        # the linewidth sets the default grid's span, 40 FWHM, so the alias
        # period is 2*pi*(n_bins - 1)/span
        span = 40 * 2 * math.pi * 1e6 * sidecar["bandwidth_fwhm_MHz"]
        npt.assert_allclose(sidecar["alias_period_us"], 2 * math.pi * 2047 / span / 1e-6,
                            rtol=1e-12)
        assert sidecar["alias_period_us"] > 2 * 5.0
        npt.assert_allclose(sidecar["bins_per_inv_sigma"],
                            sidecar["alias_period_us"] / (2 * math.pi * 2.5), rtol=1e-12)
        # the narrower packet (the larger 1/sigma) sets it; the span is unchanged
        _, narrower = self.run_quick(tmp_path, "--override", "hom.sigma2_us=1.5")
        assert narrower["alias_period_us"] == sidecar["alias_period_us"]
        npt.assert_allclose(narrower["bins_per_inv_sigma"],
                            sidecar["bins_per_inv_sigma"] * 2.5 / 1.5, rtol=1e-12)
        values = [float(r[1]) for r in rows]
        taus = [float(r[0]) for r in rows]
        assert taus[2] == 0.0
        assert all(0.0 <= v <= 1.0 + 1e-12 for v in values)
        assert values[2] < 0.01  # interference dip at zero delay
        assert values[0] > 0.4   # distinguishable-packet tail

    def test_explicit_center(self, tmp_path):
        rows, sidecar = self.run_quick(tmp_path, "--override", "hom.center=7.5524")
        npt.assert_allclose(sidecar["center_GHz"], 7.5524, rtol=0)

    def test_external_mode_matches_internal(self, tmp_path, response):
        internal_rows, internal_sidecar = self.run_quick(tmp_path)
        modes_csv = tmp_path / "ext.csv"
        record = cq.ExternalModeRecord(
            mode_label="TE101",
            f_GHz=internal_sidecar["f_resonance_GHz"],
            e_fields=((0.0, 656.1679790026246, 0.0),),
            g_port1=response.g1, g_port2=response.g2)
        cq.write_external_modes(str(modes_csv), [record])
        out = tmp_path / "ext_h.csv"
        rc = cli.main(["hom", "--config", HOM, "--out", str(out),
                       "--override", "hom.n_tau=5",
                       "--override", "hom.n_bins=2048",
                       "--override", "hom.tau_max_us=5.0",
                       "--override", f"external_modes={modes_csv}"])
        assert rc == 0
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["mode_source"] == "external"
        assert sidecar["g1_sqrt_rad_per_s"] == response.g1
        assert sidecar["g2_sqrt_rad_per_s"] == response.g2
        _, _, rows = read_csv(out)
        for (_, internal_g2), (_, external_g2) in zip(internal_rows, rows):
            npt.assert_allclose(float(external_g2), float(internal_g2),
                                rtol=1e-9)

    def test_alias_period_shorter_than_delay_span(self, tmp_path, capsys):
        # 256 bins repeat every 3.2 us, inside the +-25 us delay window
        rc = cli.main(["hom", "--config", HOM, "--out", str(tmp_path / "h.csv"),
                       "--override", "hom.n_bins=256"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "hom.n_bins" in err and "hom.tau_max_us" in err
        assert not (tmp_path / "h.csv").exists()

    def test_json_out_refused_before_compute(self, tmp_path, capsys, monkeypatch):
        # the sidecar takes --out with suffix .json, so it would replace the CSV
        def no_compute(*args):
            raise AssertionError("compute started")

        monkeypatch.setattr(cli, "_hom_response", no_compute)
        out = tmp_path / "h.json"
        rc = cli.main(["hom", "--config", HOM, "--out", str(out)])
        assert rc == 2
        assert f"--out {out}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_label_in_external_file(self, tmp_path, capsys):
        modes_csv = tmp_path / "ext.csv"
        record = cq.ExternalModeRecord(mode_label="TE102", f_GHz=9.96,
                                       e_fields=((0.0, 1.0, 0.0),),
                                       g_port1=1.0, g_port2=1.0)
        cq.write_external_modes(str(modes_csv), [record])
        rc = cli.main(["hom", "--config", HOM, "--out", str(tmp_path / "h.csv"),
                       "--override", f"external_modes={modes_csv}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "TE101" in err and "available: ['TE102']" in err


class TestDispersive:
    def test_single_point(self, tmp_path):
        out = tmp_path / "d.json"
        assert cli.main(["dispersive", "--config", TABLE1,
                         "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["mode_source"] == "internal"
        assert payload["sweep_type"] == "none"
        assert payload["M"] == 6
        assert [m["label"] for m in payload["cavity_modes"]] == ["TE101", "TE102"]
        npt.assert_allclose(payload["cavity_modes"][0]["f_GHz"],
                            F_TE101_PERTURBED_GHZ, rtol=1e-12)
        npt.assert_allclose(payload["qubit_c_ant_fF"][0], 9.1284879284938,
                            rtol=1e-9)
        point = payload["points"][0]
        npt.assert_allclose(point["omega01_GHz"], 6.387406290428549, rtol=1e-9)
        npt.assert_allclose(point["alpha_MHz"], -372.05008835782337, rtol=1e-9)
        npt.assert_allclose(point["chi_MHz"], -0.10111564146432062, rtol=1e-8)
        npt.assert_allclose(point["omega_k_GHz"], F_TE101_PERTURBED_GHZ,
                            atol=2e-4)
        assert point["zeta_MHz"] is None
        assert point["flags"] == []

    def test_c_ant_override_raises_qubit_frequency(self, tmp_path):
        base = tmp_path / "base.json"
        cli.main(["dispersive", "--config", TABLE1, "--out", str(base)])
        fem = tmp_path / "fem.json"
        rc = cli.main(["dispersive", "--config", TABLE1, "--out", str(fem),
                       "--override", "qubits.0.c_ant_fF=8.035"])
        assert rc == 0
        payload = json.loads(fem.read_text())
        assert payload["qubit_c_ant_fF"][0] == 8.035
        f_base = json.loads(base.read_text())["points"][0]["omega01_GHz"]
        f_fem = payload["points"][0]["omega01_GHz"]
        assert f_fem > f_base

    def test_position_grid(self, tmp_path):
        out = tmp_path / "grid.json"
        rc = cli.main(["dispersive", "--config", CHI_MAP, "--out", str(out),
                       "--override", "dispersive.sweep.n_x=3",
                       "--override", "dispersive.sweep.n_z=3",
                       "--override", "dispersive.M=3"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["points"]) == 9
        assert payload["n_flagged_points"] == 0
        assert payload["average_chi_MHz"] < 0.0
        assert {"x_mm", "z_mm"} <= set(payload["points"][0])

    def test_fields_evaluated_once_per_dipole_and_mode(self, tmp_path, field_calls,
                                                       monkeypatch):
        # each run fills the couplings g[point, mode, qubit, transition] of
        # all its points in one transition_couplings call
        couplings = []
        couple = cli.transition_couplings

        def recorded(*args):
            g = couple(*args)
            couplings.append(g.shape)
            return g

        monkeypatch.setattr(cli, "transition_couplings", recorded)
        # an L_J sweep moves no dipole: one evaluation per (qubit, mode), the
        # two fixed dipoles sharing one eval_fields call per mode
        assert cli.main(["dispersive", "--config", ZZ_SWEEP, "--out",
                         str(tmp_path / "lj.json"), "--override", "dispersive.M=3",
                         "--override", "dispersive.sweep.n_points=7"]) == 0
        fields = [(mode, center) for mode, centers in field_calls for center in centers]
        assert len(field_calls) == 3 == len({mode for mode, _ in field_calls})
        assert len(fields) == 2 * 3 == len(set(fields))
        assert couplings == [(7, 3, 2, 2)]
        # a position grid moves the swept dipole: one evaluation per point per
        # mode, all the points' dipoles in one eval_fields call per mode
        field_calls.clear()
        couplings.clear()
        assert cli.main(["dispersive", "--config", CHI_MAP, "--out",
                         str(tmp_path / "grid.json"), "--override", "dispersive.M=3",
                         "--override", "dispersive.sweep.n_x=3",
                         "--override", "dispersive.sweep.n_z=3"]) == 0
        fields = [(mode, center) for mode, centers in field_calls for center in centers]
        assert len(field_calls) == 2 == len({mode for mode, _ in field_calls})
        assert len(fields) == 9 * 2 == len(set(fields))
        assert couplings == [(9, 2, 1, 2)]

    def test_chi_map_point_independent_of_sweep(self, tmp_path):
        grid = tmp_path / "grid.json"
        assert cli.main(["dispersive", "--config", CHI_MAP, "--out", str(grid)]) == 0
        point = json.loads(grid.read_text())["points"][51]
        out = tmp_path / "one.json"
        assert cli.main(["dispersive", "--config", CHI_MAP, "--out", str(out),
                         "--override", "dispersive.sweep={type: none}",
                         "--override", "qubits.0.dipole.center_mm="
                         f"[{point['x_mm']!r}, 5.08, {point['z_mm']!r}]"]) == 0
        alone = json.loads(out.read_text())["points"][0]
        # bit for bit: every float key, the flags and the overlap
        assert {**alone, "x_mm": point["x_mm"], "z_mm": point["z_mm"]} == point

    def test_oversized_mode_set_refused(self, tmp_path, capsys):
        geom = build_geometry(yaml.safe_load(Path(TABLE1).read_text()))
        labels = [mode.index.label for mode in mode_list(geom, 40e9)]
        assert len(labels) == 177
        out = tmp_path / "many.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FieldVariationWarning)
            rc = cli.main(["dispersive", "--config", TABLE1, "--out", str(out),
                           "--override", "dispersive.M=3", "--override",
                           f"dispersive.cavity_modes=[{', '.join(labels)}]"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "177 cavity mode(s)" in err and "15931 states" in err
        assert not out.exists()

    def test_inductance_sweep(self, tmp_path):
        out = tmp_path / "lj.json"
        rc = cli.main(["dispersive", "--config", ZZ_SWEEP, "--out", str(out),
                       "--override", "dispersive.sweep.n_points=3",
                       "--override", "dispersive.M=3"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["sweep_type"] == "L_J"
        points = payload["points"]
        assert [p["L_J_nH"] for p in points] == [3.374, 3.112, 2.85]
        # the swept qubit stiffens as L_J drops, so omega01 must rise
        assert points[-1]["omega01_GHz"] > points[0]["omega01_GHz"]
        assert all(p["zeta_MHz"] is not None for p in points)

    @pytest.fixture(scope="class")
    def zz_points(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("zz") / "zz.json"
        assert cli.main(["dispersive", "--config", ZZ_SWEEP, "--out", str(out)]) == 0
        return json.loads(out.read_text())["points"]

    @staticmethod
    def zz_single_point(tmp_path, l_j_nh):
        out = tmp_path / "one.json"
        assert cli.main(["dispersive", "--config", ZZ_SWEEP, "--out", str(out),
                         "--override", "dispersive.sweep={type: none}",
                         "--override", f"qubits.1.L_J_nH={l_j_nh!r}"]) == 0
        return json.loads(out.read_text())["points"][0]

    def test_min_label_overlap(self, tmp_path, zz_points):
        # inside the ~1e-6 nH wide |11>-|20> gap that criterion 10 bisects to
        at_gap = self.zz_single_point(tmp_path, 3.287495224609375)
        assert at_gap["flags"] == [[1, 1, 0, 0, 0]]
        for point in zz_points + [at_gap]:
            assert bool(point["flags"]) == (
                point["min_label_overlap"] <= FLAG_THRESHOLD + FLAG_BOUNDARY_SLACK)
        assert 0.97 <= min(p["min_label_overlap"] for p in zz_points) <= 0.98

    def test_point_independent_of_sweep(self, tmp_path, zz_points):
        point = zz_points[8]
        alone = self.zz_single_point(tmp_path, point["L_J_nH"])
        # bit for bit: every float key, the flags and the overlap
        assert {**alone, "L_J_nH": point["L_J_nH"]} == point

    def test_external_modes_match_analytic(self, tmp_path):
        # the external CSV carries what a field solver would supply: the
        # analytic fields at the dipole centers, the probe-shifted
        # frequencies and the port couplings
        cfg = yaml.safe_load(Path(ZZ_SWEEP).read_text())
        geom = build_geometry(cfg)
        probes = build_probes(cfg)
        centers = [build_dipole(qc).center for qc in cfg["qubits"]]
        records = []
        for label in cfg["dispersive"]["cavity_modes"]:
            mode = make_mode(parse_mode_label(label), geom)
            e_fields, _ = eval_fields(mode, geom, centers)
            records.append(cq.ExternalModeRecord(
                mode_label=label,
                f_GHz=rad_per_s_to_ghz(
                    perturbed_frequency_tip(mode, geom, probes).omega_perturbed),
                e_fields=tuple(tuple(vec) for vec in e_fields.tolist()),
                g_port1=port_coupling(mode, geom, probes[0]).g,
                g_port2=port_coupling(mode, geom, probes[1]).g))
        modes_csv = tmp_path / "zz_modes.csv"
        cq.write_external_modes(str(modes_csv), records)
        payloads = []
        for name, extra in (("analytic", []),
                            ("external", ["--override", f"external_modes={modes_csv}"])):
            out = tmp_path / f"{name}.json"
            rc = cli.main(["dispersive", "--config", ZZ_SWEEP, "--out", str(out),
                           "--override", "dispersive.sweep.n_points=7",
                           "--override", "dispersive.M=3", *extra])
            assert rc == 0
            payloads.append(json.loads(out.read_text()))
        analytic, external = payloads
        assert (analytic["mode_source"], external["mode_source"]) == ("internal",
                                                                      "external")
        assert len(external["points"]) == 7
        for key in ("omega01_GHz", "omega_k_GHz", "alpha_MHz", "chi_MHz",
                    "zeta_MHz"):
            reference = [p[key] for p in analytic["points"]]
            values = [p[key] for p in external["points"]]
            scale = max(abs(v) for v in reference)
            npt.assert_allclose(values, reference, rtol=0, atol=1e-9 * scale,
                                err_msg=key)

    def test_position_grid_needs_analytic_modes(self, tmp_path, capsys):
        modes_csv = tmp_path / "ext.csv"
        record = cq.ExternalModeRecord(mode_label="TE101", f_GHz=7.55,
                                       e_fields=((0.0, 656.0, 0.0),),
                                       g_port1=1.0, g_port2=1.0)
        cq.write_external_modes(str(modes_csv), [record])
        rc = cli.main(["dispersive", "--config", CHI_MAP,
                       "--out", str(tmp_path / "d.json"),
                       "--override", f"external_modes={modes_csv}",
                       "--override", "dispersive.cavity_modes=[TE101]"])
        assert rc == 2
        assert "analytic" in capsys.readouterr().err

    def test_missing_label_in_external_file(self, tmp_path, capsys):
        # the same lookup and message as `cavqed hom`
        modes_csv = tmp_path / "ext.csv"
        record = cq.ExternalModeRecord(mode_label="TE102", f_GHz=9.96,
                                       e_fields=((0.0, 656.0, 0.0),),
                                       g_port1=1.0, g_port2=1.0)
        cq.write_external_modes(str(modes_csv), [record])
        rc = cli.main(["dispersive", "--config", TABLE1,
                       "--out", str(tmp_path / "d.json"),
                       "--override", f"external_modes={modes_csv}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "TE101" in err and "available: ['TE102']" in err

    def test_missing_sweep_key(self, tmp_path, capsys):
        cfg = yaml.safe_load(Path(ZZ_SWEEP).read_text())
        del cfg["dispersive"]["sweep"]["start_nH"]
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg))
        rc = cli.main(["dispersive", "--config", str(path),
                       "--out", str(tmp_path / "d.json")])
        assert rc == 2
        assert "start_nH" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["start_nH", "stop_nH", "n_points"])
    def test_missing_sweep_key_named(self, tmp_path, capsys, key):
        cfg = yaml.safe_load(Path(ZZ_SWEEP).read_text())
        del cfg["dispersive"]["sweep"][key]
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg))
        rc = cli.main(["dispersive", "--config", str(path),
                       "--out", str(tmp_path / "d.json")])
        assert rc == 2
        assert f"'dispersive.sweep.{key}'" in capsys.readouterr().err
        assert not (tmp_path / "d.json").exists()


class TestIngestCheck:
    def make_config(self, tmp_path, modes_csv, n_qubits=1):
        cfg = yaml.safe_load(Path(TABLE1).read_text())
        cfg["external_modes"] = str(modes_csv)
        cfg["qubits"] = cfg["qubits"] * n_qubits
        path = tmp_path / "ing.yaml"
        path.write_text(yaml.safe_dump(cfg))
        return str(path)

    def test_ok_and_normalized_copy(self, tmp_path, capsys):
        modes_csv = tmp_path / "ext.csv"
        records = [cq.ExternalModeRecord(mode_label="TE101", f_GHz=7.55,
                                         e_fields=((0.0, 656.0, 0.0),),
                                         g_port1=-994.4, g_port2=994.4)]
        cq.write_external_modes(str(modes_csv), records)
        copy = tmp_path / "normalized.csv"
        rc = cli.main(["ingest-check",
                       "--config", self.make_config(tmp_path, modes_csv),
                       "--out", str(copy)])
        assert rc == 0
        assert "OK: 1 mode(s), 1 qubit site(s): TE101" in capsys.readouterr().out
        assert cq.read_external_modes(str(copy)) == records

    def test_noncanonical_label_warned(self, tmp_path, capsys):
        modes_csv = tmp_path / "ext.csv"
        cq.write_external_modes(str(modes_csv), [
            cq.ExternalModeRecord(mode_label="fancy_mode", f_GHz=7.55,
                                  e_fields=((0.0, 656.0, 0.0),),
                                  g_port1=1.0, g_port2=1.0)])
        rc = cli.main(["ingest-check",
                       "--config", self.make_config(tmp_path, modes_csv)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "fancy_mode" in captured.err

    def test_too_few_sites(self, tmp_path, capsys):
        modes_csv = tmp_path / "ext.csv"
        cq.write_external_modes(str(modes_csv), [
            cq.ExternalModeRecord(mode_label="TE101", f_GHz=7.55,
                                  e_fields=((0.0, 656.0, 0.0),),
                                  g_port1=1.0, g_port2=1.0)])
        rc = cli.main(["ingest-check",
                       "--config", self.make_config(tmp_path, modes_csv,
                                                    n_qubits=2)])
        assert rc == 2
        assert "2 qubits" in capsys.readouterr().err

    def test_non_finite_value_rejected(self, tmp_path, capsys):
        modes_csv = tmp_path / "ext.csv"
        modes_csv.write_text("mode_label,f_GHz,Ex,Ey,Ez,g_port1,g_port2\n"
                             "TE101,7.55,0,nan,0,1000,inf\n")
        rc = cli.main(["ingest-check",
                       "--config", self.make_config(tmp_path, modes_csv)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "'Ey1'" in captured.err and "non-finite" in captured.err
        assert "OK" not in captured.out

    def test_requires_external_entry(self, capsys):
        rc = cli.main(["ingest-check", "--config", TABLE1])
        assert rc == 2
        assert "external_modes" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest-check", "hom", "dispersive"])
def test_header_only_mode_file_refused(tmp_path, capsys, command):
    modes_csv = tmp_path / "ext.csv"
    modes_csv.write_text("mode_label,f_GHz,Ex,Ey,Ez,g_port1,g_port2\n")
    cfg = yaml.safe_load(Path(HOM if command == "hom" else TABLE1).read_text())
    cfg["external_modes"] = str(modes_csv)
    config = tmp_path / "ext.yaml"
    config.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 2
    assert f"{modes_csv}: no mode records" in capsys.readouterr().err
    assert not out.exists()


def _external_config(tmp_path):
    """A table1 configuration whose external_modes file holds one record."""
    modes_csv = tmp_path / "ext.csv"
    cq.write_external_modes(str(modes_csv), [
        cq.ExternalModeRecord(mode_label="TE101", f_GHz=7.55,
                              e_fields=((0.0, 656.0, 0.0),),
                              g_port1=-994.4, g_port2=994.4)])
    cfg = yaml.safe_load(Path(TABLE1).read_text())
    cfg["external_modes"] = str(modes_csv)
    path = tmp_path / "ext.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


class TestExternalModesHash:
    """``config_sha256`` hashes the ``external_modes`` path as written;
    ``external_modes_sha256`` hashes the file's bytes."""

    RECORD = cq.ExternalModeRecord(mode_label="TE101", f_GHz=7.55,
                                   e_fields=((0.0, 656.0, 0.0),),
                                   g_port1=-994.4, g_port2=994.4)
    ARGV = {"hom": ["hom", "--config", HOM, "--override", "hom.n_tau=5",
                    "--override", "hom.n_bins=2048", "--override", "hom.tau_max_us=5.0"],
            "dispersive": ["dispersive", "--config", TABLE1, "--override", "dispersive.M=3",
                           "--override", "dispersive.cavity_modes=[TE101]"]}

    def run(self, tmp_path, command, *extra):
        out = tmp_path / ("h.csv" if command == "hom" else "d.json")
        assert cli.main(self.ARGV[command] + ["--out", str(out), *extra]) == 0
        return json.loads(out.with_suffix(".json").read_text())  # hom: the sidecar

    @pytest.mark.parametrize("command", ["hom", "dispersive"])
    def test_hash_follows_content_not_path(self, tmp_path, command):
        paths = [tmp_path / name / "modes.csv" for name in ("a", "b")]
        for path in paths:
            path.parent.mkdir()
            cq.write_external_modes(str(path), [self.RECORD])
        first, second = (self.run(tmp_path, command, "--override", f"external_modes={path}")
                         for path in paths)
        assert first["config_sha256"] != second["config_sha256"]
        assert (first["external_modes_sha256"] == second["external_modes_sha256"]
                == hashlib.sha256(paths[0].read_bytes()).hexdigest())
        edited = tmp_path / "edited.csv"
        cq.write_external_modes(str(edited),
                                [dataclasses.replace(self.RECORD, f_GHz=7.56)])
        inode = paths[0].stat().st_ino
        paths[0].write_bytes(edited.read_bytes())  # same path, same inode
        assert paths[0].stat().st_ino == inode
        again = self.run(tmp_path, command, "--override", f"external_modes={paths[0]}")
        assert again["config_sha256"] == first["config_sha256"]
        assert again["external_modes_sha256"] != first["external_modes_sha256"]

    @pytest.mark.parametrize("command", ["hom", "dispersive"])
    def test_absent_without_external_modes(self, tmp_path, command):
        assert "external_modes_sha256" not in self.run(tmp_path, command)


class TestOutputFiles:
    """A rerun replaces an existing output file instead of truncating it,
    except where that would change what the output path means."""

    @staticmethod
    def modes(out, *overrides):
        argv = ["modes", "--config", TABLE1, "--out", str(out)]
        for item in overrides:
            argv += ["--override", item]
        return cli.main(argv)

    @pytest.fixture
    def unlink_calls(self, monkeypatch):
        # records the calls and removes nothing
        calls = []
        monkeypatch.setattr(os, "unlink", lambda path, **kw: calls.append(str(path)))
        return calls

    @pytest.mark.parametrize("command", ["modes", "dispersive", "ingest-check"])
    def test_rerun_writes_a_new_file(self, tmp_path, command):
        config = _external_config(tmp_path) if command == "ingest-check" else TABLE1
        out = tmp_path / "out"
        argv = [command, "--config", config, "--out", str(out)]
        assert cli.main(argv) == 0
        with open(out, encoding="utf-8") as old:
            first = old.read()
            assert cli.main(argv) == 0
            # the open file keeps its inode alive, so no new file can reuse it
            assert os.fstat(old.fileno()).st_ino != out.stat().st_ino
            old.seek(0)
            assert old.read() == first
        assert out.read_text(encoding="utf-8") == first

    def test_shorter_rewrite_leaves_no_tail(self, tmp_path):
        out, fresh = tmp_path / "m.csv", tmp_path / "fresh.csv"
        assert self.modes(out, "modes.f_max_GHz=20") == 0
        longer = out.stat().st_size
        assert self.modes(out) == 0
        assert self.modes(fresh) == 0
        assert out.stat().st_size < longer
        assert out.read_bytes() == fresh.read_bytes()

    def test_symlink_target_is_rewritten(self, tmp_path):
        target, link, fresh = (tmp_path / name for name in ("t.csv", "l.csv", "f.csv"))
        target.write_text("old content that is longer than nothing\n" * 100)
        link.symlink_to(target)
        assert self.modes(link) == 0
        assert self.modes(fresh) == 0
        assert link.is_symlink()
        assert target.read_bytes() == fresh.read_bytes()

    def test_hard_link_updates_every_name(self, tmp_path):
        out, alias, fresh = (tmp_path / name for name in ("m.csv", "a.csv", "f.csv"))
        assert self.modes(out, "modes.f_max_GHz=20") == 0
        os.link(out, alias)
        assert self.modes(out) == 0
        assert self.modes(fresh) == 0
        assert out.read_bytes() == alias.read_bytes() == fresh.read_bytes()
        assert out.stat().st_ino == alias.stat().st_ino

    def test_devnull_is_written_not_removed(self, unlink_calls):
        assert self.modes(os.devnull) == 0
        assert unlink_calls == []

    def test_unwritable_output_is_not_unlinked(self, tmp_path, monkeypatch,
                                               unlink_calls):
        out, fresh = tmp_path / "m.csv", tmp_path / "f.csv"
        assert self.modes(out, "modes.f_max_GHz=20") == 0
        inode = out.stat().st_ino
        monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
        # root and the file's owner can still open it; it is rewritten in place
        assert self.modes(out) == 0
        assert unlink_calls == []
        assert out.stat().st_ino == inode
        assert self.modes(fresh) == 0
        assert out.read_bytes() == fresh.read_bytes()

    def test_failed_unlink_falls_back_to_rewrite(self, tmp_path, monkeypatch):
        # e.g. a sticky directory that forbids removing another user's file
        out, fresh = tmp_path / "m.csv", tmp_path / "f.csv"
        assert self.modes(out, "modes.f_max_GHz=20") == 0

        def refuse(path, **kwargs):
            raise PermissionError(1, "Operation not permitted", str(path))

        monkeypatch.setattr(os, "unlink", refuse)
        assert self.modes(out) == 0
        assert self.modes(fresh) == 0
        assert out.read_bytes() == fresh.read_bytes()

    def test_failed_run_leaves_outputs_untouched(self, tmp_path):
        out = tmp_path / "h.csv"
        argv = ["hom", "--config", HOM, "--out", str(out),
                "--override", "hom.n_tau=5", "--override", "hom.tau_max_us=5.0"]
        assert cli.main(argv + ["--override", "hom.n_bins=2048"]) == 0
        before = out.read_bytes(), out.with_suffix(".json").read_bytes()
        # 256 bins alias within the +-5 us delays: exit 2 after the response
        assert cli.main(argv + ["--override", "hom.n_bins=256"]) == 2
        assert (out.read_bytes(), out.with_suffix(".json").read_bytes()) == before


class TestExitCodes:
    def test_missing_config(self, tmp_path, capsys):
        rc = cli.main(["modes", "--config", str(tmp_path / "absent.yaml")])
        assert rc == 2
        assert "error (configuration)" in capsys.readouterr().err

    def test_bad_override(self, tmp_path, capsys):
        rc = cli.main(["modes", "--config", TABLE1,
                       "--out", str(tmp_path / "m.csv"),
                       "--override", "geometry.a_mm"])
        assert rc == 2

    @pytest.mark.parametrize("command, override, path", [
        ("modes", "probes.0.h_mm=.nan", "probes/0/h_mm"),
        ("modes", "modes.f_max_GHz=.inf", "modes/f_max_GHz"),
        ("dispersive", "qubits.0.L_J_nH=.nan", "qubits/0/L_J_nH"),
        ("dispersive", "qubits.0.dipole.center_mm=[.nan,1,1]",
         "qubits/0/dipole/center_mm/0"),
    ])
    def test_non_finite_override(self, tmp_path, capsys, command, override, path):
        rc = cli.main([command, "--config", TABLE1, "--out", str(tmp_path / "out"),
                       "--override", override])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"invalid configuration at {path}: " in err
        assert "not a finite number" in err
        assert not (tmp_path / "out").exists()

    def test_degenerate_response(self, tmp_path, capsys):
        modes_csv = tmp_path / "ext.csv"
        cq.write_external_modes(str(modes_csv), [
            cq.ExternalModeRecord(mode_label="TE101", f_GHz=7.55,
                                  e_fields=((0.0, 656.0, 0.0),),
                                  g_port1=0.0, g_port2=0.0)])
        rc = cli.main(["hom", "--config", HOM,
                       "--out", str(tmp_path / "h.csv"),
                       "--override", f"external_modes={modes_csv}"])
        assert rc == 3
        assert "error (degenerate physics)" in capsys.readouterr().err

    def test_antenna_validity(self, tmp_path, capsys):
        rc = cli.main(["dispersive", "--config", TABLE1,
                       "--out", str(tmp_path / "d.json"),
                       "--override", "qubits.0.dipole.length_mm=20.0"])
        assert rc == 3
        assert "error (degenerate physics)" in capsys.readouterr().err

    def test_numerical_failure(self, tmp_path, capsys, monkeypatch):
        def broken(params, n_levels=4, n_charge=None):
            raise ConvergenceError("charge basis did not converge")

        monkeypatch.setattr(cli, "transmon_spectrum", broken)
        rc = cli.main(["dispersive", "--config", TABLE1,
                       "--out", str(tmp_path / "d.json")])
        assert rc == 4
        assert "error (numerical)" in capsys.readouterr().err


def test_import_leaves_scipy_unloaded():
    """Neither scipy nor jsonschema is a runtime dependency."""
    code = ("import sys, cavqed.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'jsonschema')))")
    # import the same cavqed the suite tests, in a fresh interpreter
    package_parent = str(Path(cq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": package_parent}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True, env=env)
    assert result.stdout.strip() == "[]"
