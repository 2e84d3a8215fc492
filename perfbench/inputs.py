"""Workload inputs: seeded copies of the shipped configurations, the
external-mode CSV, and the command lines that one pass runs through
``cavqed.cli.main``.

A seed moves physical inputs by amounts that keep the work of a pass the
same (the same point counts, truncations, grids and delays) and keep every
correctness check meaningful:

* ``dispersive_sweeps``: the ``chi_map`` qubit's L_J by up to +-0.2%, and the
  whole ``zz_sweep`` L_J grid by up to +-1/4 of its step;
* ``reference_stack``: the qubit's L_J by up to +-0.2%;
* ``hom_curves``: the packet width sigma by up to +-4% (with tau_max = 10 sigma).
"""
from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from cavqed.cavity import eval_fields, make_mode
from cavqed.config import (build_dipole, build_geometry, build_probes, get_setting,
                           load_config, parse_mode_label, rad_per_s_to_ghz,
                           validate_config)
from cavqed.external import ExternalModeRecord, write_external_modes
from cavqed.perturbation import perturbed_frequency_tip
from cavqed.ports import port_coupling

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

#: Truncations of the reference stack: 6^3 = 216, 10^3 = 1000, 12^3 = 1728 states.
REFERENCE_M = (6, 10, 12)

#: HOM variants as extra ``--override`` assignments; ``{sigma2}`` is the
#: mismatched packet width (0.6 sigma, i.e. 1.5 us at the shipped 2.5 us).
HOM_VARIANTS = {
    "balanced": (),
    "time_local": ("hom.normalization=time_local",),
    "scan": ("hom.center=scan",),
    "mismatched": ("hom.sigma2_us={sigma2}",),
    "bins_16384": ("hom.n_bins=16384",),
}


@dataclass(frozen=True)
class Op:
    """One ``cavqed`` command of a pass: its argv, its output file, the
    number of work items it finishes, and the input values its checks use."""

    name: str
    argv: tuple[str, ...]
    out: Path
    items: int
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    ops: tuple[Op, ...]
    configs: dict  # op name -> the configuration the op runs, before overrides

    @property
    def items_per_pass(self) -> int:
        return sum(op.items for op in self.ops)


def _write_config(cfg: dict, path: Path) -> Path:
    validate_config(cfg)
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")  # JSON is YAML
    return path


def _op(command: str, name: str, config_path: Path, out: Path, items: int,
        overrides=(), **params) -> Op:
    argv = [command, "--config", str(config_path), "--out", str(out)]
    for assignment in overrides:
        argv += ["--override", assignment]
    return Op(name=name, argv=tuple(argv), out=out, items=items, params=params)


def write_modes_csv(cfg: dict, path: Path) -> None:
    """External-mode CSV of the configuration's cavity modes, from the analytic
    fields at each qubit's dipole center (what a field solver would supply)."""
    geom = build_geometry(cfg)
    probes = build_probes(cfg)
    centers = [build_dipole(qc).center for qc in cfg["qubits"]]
    records = []
    for label in get_setting(cfg, "dispersive.cavity_modes"):
        mode = make_mode(parse_mode_label(label), geom)
        e_fields, _ = eval_fields(mode, geom, centers)
        records.append(ExternalModeRecord(
            mode_label=label,
            f_GHz=rad_per_s_to_ghz(
                perturbed_frequency_tip(mode, geom, probes).omega_perturbed),
            e_fields=tuple(tuple(vec) for vec in e_fields.tolist()),
            g_port1=port_coupling(mode, geom, probes[0]).g,
            g_port2=port_coupling(mode, geom, probes[1]).g))
    write_external_modes(str(path), records)


def _dispersive_sweeps(rng: random.Random, workdir: Path):
    chi = load_config(str(CONFIGS / "chi_map.yaml"))
    chi["qubits"][0]["L_J_nH"] *= 1.0 + 2e-3 * rng.uniform(-1.0, 1.0)
    zz = load_config(str(CONFIGS / "zz_sweep.yaml"))
    sweep = zz["dispersive"]["sweep"]
    shift = 0.25 * rng.uniform(-1.0, 1.0) * (
        (sweep["stop_nH"] - sweep["start_nH"]) / (sweep["n_points"] - 1))
    sweep["start_nH"] += shift
    sweep["stop_nH"] += shift
    zz["qubits"][sweep["qubit"]]["L_J_nH"] = sweep["start_nH"]
    zz_ext = copy.deepcopy(zz)
    csv_path = workdir / "zz_modes.csv"
    write_modes_csv(zz, csv_path)
    zz_ext["external_modes"] = str(csv_path)
    n_chi = get_setting(chi, "dispersive.sweep.n_x") * get_setting(chi, "dispersive.sweep.n_z")
    configs = {"chi_map": chi, "zz_sweep": zz, "zz_external": zz_ext}
    ops = [_op("dispersive", name, _write_config(cfg, workdir / f"{name}.cfg.json"),
               workdir / f"{name}.json", n_chi if name == "chi_map" else sweep["n_points"])
           for name, cfg in configs.items()]
    return ops, configs


def _reference_stack(rng: random.Random, workdir: Path):
    cfg = load_config(str(CONFIGS / "table1_single_qubit.yaml"))
    cfg["qubits"][0]["L_J_nH"] *= 1.0 + 2e-3 * rng.uniform(-1.0, 1.0)
    path = _write_config(cfg, workdir / "table1.cfg.json")
    ops = [_op("dispersive", f"table1_M{m}", path, workdir / f"table1_M{m}.json", 1,
               overrides=(f"dispersive.M={m}",), M=m)
           for m in REFERENCE_M]
    return ops, {op.name: cfg for op in ops}


def _hom_curves(rng: random.Random, workdir: Path):
    cfg = load_config(str(CONFIGS / "hom_default.yaml"))
    sigma = 2.5 * (1.0 + 0.04 * rng.uniform(-1.0, 1.0))
    cfg["hom"].update(sigma1_us=sigma, sigma2_us=sigma, tau_max_us=10.0 * sigma)
    path = _write_config(cfg, workdir / "hom.cfg.json")
    sigma2 = 0.6 * sigma
    n_tau = int(get_setting(cfg, "hom.n_tau"))
    ops = [_op("hom", f"hom_{name}", path, workdir / f"hom_{name}.csv", n_tau,
               overrides=[a.format(sigma2=repr(sigma2)) for a in assignments],
               sigma1_us=sigma, sigma2_us=sigma2 if name == "mismatched" else sigma,
               tau_max_us=10.0 * sigma,
               normalization="time_local" if name == "time_local" else "integrated",
               scan=name == "scan")
           for name, assignments in HOM_VARIANTS.items()]
    return ops, {op.name: cfg for op in ops}


_MAKERS = {"dispersive_sweeps": _dispersive_sweeps,
             "reference_stack": _reference_stack,
             "hom_curves": _hom_curves}


def build(workload: str, seed: int, workdir: Path) -> Inputs:
    """Load and validate the configurations, apply the seed, and write every
    file the workload's commands read into ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    ops, configs = _MAKERS[workload](random.Random(f"{workload}/{seed}"), workdir)
    return Inputs(workload=workload, seed=seed, ops=tuple(ops), configs=configs)
