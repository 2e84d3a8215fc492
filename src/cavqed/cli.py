"""Command-line interface: mode tables, two-photon interference curves, and
dispersive-parameter sweeps from a single YAML configuration.

Subcommands
-----------
``modes``
    CSV table of cavity eigenmodes up to a frequency cap, with bare and
    probe-perturbed frequencies.
``hom``
    Two-photon coincidence curve g2(tau), in closed form, as CSV plus a JSON
    sidecar with the underlying resonance, couplings, and packet settings.
``dispersive``
    JSON with qubit frequency, anharmonicity, photon shift chi, and (for two
    qubits) the qubit-qubit shift zeta; supports single-point, position-grid,
    and junction-inductance sweeps.
``ingest-check``
    Validate an externally produced mode CSV and report its contents.

Exit codes: 0 success; 2 configuration/input problems; 3 physically degenerate
or out-of-validity requests; 4 numerical failures.  All outputs are
deterministic for a given configuration, embed the configuration's sha256,
and use GHz/MHz/mm/us/fF/nH at the boundary.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .cavity import CavityGeometry, make_mode, mode_list
from .config import (apply_overrides, build_dipole, build_geometry, build_probes,
                     config_hash, ff_to_farad, get_setting, ghz_to_rad_per_s,
                     load_config, mm_to_m, nh_to_henry, parse_mode_label,
                     rad_per_s_to_ghz, rad_per_s_to_mhz, us_to_s, validate_config,
                     SCHEMA_VERSION)
from .errors import (ConfigError, ConvergenceError, DegenerateResponseError,
                     ExternalModesError, OutOfValidityError, UndefinedCorrelationError)
from .external import read_external_modes, write_external_modes
from .hom import PhotonWavepacket, balanced_center_frequency, hom_curve, scan_balanced_center
from .output import open_output
from .perturbation import perturbed_frequency_tip
from .ports import ScatteringResponse, half_power_bandwidth, two_port_response
from .system import (DispersiveColumns, SystemBasis, dipole_center_fields,
                     dispersive_columns, first_misplaced_dipole, sector_spectra,
                     transition_couplings)
from .transmon import TransmonParams, dipole_capacitance, transmon_spectra


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="YAML configuration file")
    parser.add_argument("--out", help="output file path (default: derived from "
                        "output.basename in the configuration)")
    parser.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                        help="dotted-path configuration override, repeatable "
                        "(e.g. --override dispersive.M=8)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavqed",
        description="Analytic cavity electrodynamics: eigenmodes, two-photon "
                    "interference, and dispersive qubit parameters.")
    sub = parser.add_subparsers(dest="command", required=True)

    modes_p = sub.add_parser("modes", help="tabulate cavity eigenmodes as CSV")
    _add_common(modes_p)
    modes_p.set_defaults(func=cmd_modes)

    hom_p = sub.add_parser("hom", help="two-photon coincidence curve g2(tau)")
    _add_common(hom_p)
    hom_p.set_defaults(func=cmd_hom)

    disp_p = sub.add_parser("dispersive",
                            help="qubit frequency, anharmonicity, chi, zeta")
    _add_common(disp_p)
    disp_p.set_defaults(func=cmd_dispersive)

    ingest_p = sub.add_parser("ingest-check",
                              help="validate an external mode CSV")
    _add_common(ingest_p)
    ingest_p.set_defaults(func=cmd_ingest_check)
    return parser


def _prepare(args) -> tuple[dict, str]:
    cfg = load_config(args.config)
    if args.override:
        cfg = apply_overrides(cfg, args.override)
        validate_config(cfg)
    return cfg, config_hash(cfg)


def _resolve_out(args, cfg: dict, suffix: str) -> Path:
    if args.out:
        return Path(args.out)
    return Path(f"{get_setting(cfg, 'output.basename')}{suffix}")


def _write_csv(path: Path, sha: str, header: list[str], rows) -> None:
    with open_output(path, newline="") as fh:
        fh.write(f"# schema_version={SCHEMA_VERSION}\n")
        fh.write(f"# config_sha256={sha}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)  # one write, not one per token
    with open_output(path) as fh:
        fh.write(text + "\n")


def _external_modes_hash(cfg: dict) -> dict:
    """``{"external_modes_sha256": ...}``, the sha256 of the external mode
    file's bytes, for a run that reads one (``config_sha256`` covers only its
    path); empty otherwise."""
    if "external_modes" not in cfg:
        return {}
    data = Path(cfg["external_modes"]).read_bytes()
    return {"external_modes_sha256": hashlib.sha256(data).hexdigest()}


def _external_records(cfg: dict, labels: list[str]) -> dict:
    """External mode records by label; ConfigError if one of ``labels`` is missing."""
    by_label = {rec.mode_label: rec for rec in read_external_modes(cfg["external_modes"])}
    missing = [lbl for lbl in labels if lbl not in by_label]
    if missing:
        raise ConfigError(f"external mode file lacks record(s) {missing}; "
                          f"available: {sorted(by_label)}")
    return by_label


# --- modes -------------------------------------------------------------------

def cmd_modes(args) -> int:
    cfg, sha = _prepare(args)
    geom = build_geometry(cfg)
    probes = build_probes(cfg)
    f_max_hz = float(get_setting(cfg, "modes.f_max_GHz")) * 1e9
    rows = []
    for mode in mode_list(geom, f_max_hz):
        f_unperturbed = rad_per_s_to_ghz(mode.omega)
        if probes:
            f_perturbed = rad_per_s_to_ghz(
                perturbed_frequency_tip(mode, geom, probes).omega_perturbed)
        else:
            f_perturbed = f_unperturbed
        idx = mode.index
        rows.append([idx.family, idx.m, idx.n, idx.p,
                     _fmt(f_unperturbed), _fmt(f_perturbed)])
    out = _resolve_out(args, cfg, "_modes.csv")
    _write_csv(out, sha, ["family", "m", "n", "p",
                          "f_unperturbed_GHz", "f_perturbed_GHz"], rows)
    print(f"wrote {len(rows)} modes to {out}")
    return 0


# --- hom ---------------------------------------------------------------------

def _hom_response(cfg: dict, geom: CavityGeometry) -> tuple[ScatteringResponse, str, str]:
    """Resolve the two-port response for the selected mode, from the analytic
    pipeline or from an external mode file."""
    label = str(get_setting(cfg, "hom.mode"))
    if "external_modes" in cfg:
        rec = _external_records(cfg, [label])[label]
        resp = ScatteringResponse(omega0=ghz_to_rad_per_s(rec.f_GHz),
                                  g1=rec.g_port1, g2=rec.g_port2)
        return resp, "external", label
    probes = build_probes(cfg)
    if len(probes) != 2:
        raise ConfigError("hom needs exactly two probes (or an external_modes file)")
    mode = make_mode(parse_mode_label(label), geom)
    resp = two_port_response(mode, geom, (probes[0], probes[1]))
    return resp, "internal", label


def cmd_hom(args) -> int:
    cfg, sha = _prepare(args)
    out = _resolve_out(args, cfg, "_hom.csv")
    sidecar = out.with_suffix(".json")
    if sidecar == out:
        raise ConfigError(f"--out {out} would be overwritten by the JSON sidecar, "
                          "which takes the --out path with suffix .json; "
                          "give --out another suffix, e.g. .csv")
    geom = build_geometry(cfg)
    resp, mode_source, label = _hom_response(cfg, geom)
    sigma1 = us_to_s(float(get_setting(cfg, "hom.sigma1_us")))
    sigma2 = us_to_s(float(get_setting(cfg, "hom.sigma2_us")))
    n_tau = int(get_setting(cfg, "hom.n_tau"))
    tau_max = us_to_s(float(get_setting(cfg, "hom.tau_max_us")))
    normalization = str(get_setting(cfg, "hom.normalization"))
    center_setting = get_setting(cfg, "hom.center")
    try:
        balanced = balanced_center_frequency(resp)
    except DegenerateResponseError:
        if center_setting in ("balanced", "scan"):
            raise
        balanced = None  # no |R| = |T| point, but an explicit centre has a curve
    if center_setting == "balanced":
        center = balanced
    elif center_setting == "scan":
        # +-Gamma: +-1 FWHM would reach the mirror point omega0 - Gamma
        center = scan_balanced_center(resp, min(sigma1, sigma2),
                                      half_width=half_power_bandwidth(resp) / 2.0,
                                      n_scan=41, normalization=normalization)
    else:
        center = ghz_to_rad_per_s(float(center_setting))
    pkt1 = PhotonWavepacket(omega_in=center, sigma=sigma1, port=1)
    pkt2 = PhotonWavepacket(omega_in=center, sigma=sigma2, port=2)
    taus = np.linspace(-tau_max, tau_max, n_tau)
    curve = hom_curve(resp, pkt1, pkt2, taus, normalization=normalization)
    _write_csv(out, sha, ["tau_s", "g2"],
               ([_fmt(t), _fmt(v)] for t, v in zip(curve.taus, curve.g2_values)))
    _write_json(sidecar, {
        "schema_version": SCHEMA_VERSION,
        "config_sha256": sha,
        "mode_source": mode_source,
        "mode_label": label,
        "f_resonance_GHz": rad_per_s_to_ghz(resp.omega0),
        "g1_sqrt_rad_per_s": resp.g1,
        "g2_sqrt_rad_per_s": resp.g2,
        "bandwidth_fwhm_MHz": half_power_bandwidth(resp) / (2.0 * math.pi * 1e6),
        "balanced_center_GHz": None if balanced is None else rad_per_s_to_ghz(balanced),
        "center_GHz": rad_per_s_to_ghz(center),
        "normalization": normalization,
        "sigma1_us": sigma1 / 1e-6,
        "sigma2_us": sigma2 / 1e-6,
        **_external_modes_hash(cfg),
    })
    finite = [v for v in curve.g2_values if not math.isnan(v)]
    dip = min(finite) if finite else math.nan
    print(f"wrote {len(curve.taus)} delays to {out} (sidecar {sidecar}); "
          f"min g2 = {dip:.3e}")
    return 0


# --- dispersive ----------------------------------------------------------------

def _refuse_repeated_modes(labels: list[str], keys: list) -> None:
    """ConfigError naming the first mode of ``dispersive.cavity_modes`` whose
    key (its parsed index, or its label for external modes) is listed twice."""
    first: dict = {}
    for j, key in enumerate(keys):
        i = first.setdefault(key, j)
        if i != j:
            raise ConfigError(f"dispersive.cavity_modes lists mode {labels[i]} twice: "
                              f"at positions {i} ({labels[i]!r}) and {j} ({labels[j]!r})")


def _cavity_inputs(cfg: dict, geom: CavityGeometry, labels: list[str], n_qubits: int):
    """(omega_k per requested mode, field function, mode source), where the
    function maps a sweep's dipoles [point, qubit, 7] (center, unit axis and
    length, as :func:`cmd_dispersive` lays them out) to the E vectors
    [point, mode, qubit, xyz] at their centers.  Analytic fields come from
    one :func:`dipole_center_fields` call per mode over the sweep's distinct
    dipoles, so each (dipole, mode) field is evaluated once."""
    if "external_modes" in cfg:
        _refuse_repeated_modes(labels, labels)
        by_label = _external_records(cfg, labels)
        unused = sorted(set(by_label) - set(labels))
        if unused:
            print(f"warning: ignoring {len(unused)} unused external mode(s): "
                  f"{unused}", file=sys.stderr)
        chosen = [by_label[lbl] for lbl in labels]
        for rec in chosen:
            if rec.n_sites < n_qubits:
                raise ConfigError(
                    f"external mode {rec.mode_label!r} has fields for "
                    f"{rec.n_sites} qubit site(s); configuration has {n_qubits}")
        fixed = np.array([rec.e_fields[:n_qubits] for rec in chosen])
        return ([ghz_to_rad_per_s(rec.f_GHz) for rec in chosen],
                lambda dipoles: np.broadcast_to(fixed, (len(dipoles), *fixed.shape)),
                "external")
    probes = build_probes(cfg)
    indices = [parse_mode_label(lbl) for lbl in labels]
    _refuse_repeated_modes(labels, indices)
    modes = [make_mode(index, geom) for index in indices]
    omegas = [perturbed_frequency_tip(mode, geom, probes).omega_perturbed
              if probes else mode.omega for mode in modes]

    def fields_at(dipoles: np.ndarray) -> np.ndarray:
        number: dict = {}  # distinct dipole -> its index, in order of appearance
        which = [number.setdefault(row, len(number))
                 for row in map(tuple, dipoles.reshape(-1, 7).tolist())]
        distinct = np.array(list(number))
        at = np.stack([dipole_center_fields(distinct[:, :3], distinct[:, 3:6], distinct[:, 6],
                                            mode, geom) for mode in modes],
                      axis=1)  # [dipole, mode, xyz]
        return at[np.reshape(which, dipoles.shape[:2])].swapaxes(1, 2)

    return omegas, fields_at, "internal"


def _mm(point) -> str:
    return "(" + ", ".join(f"{c / 1e-3:.6g}" for c in point) + ") mm"


def _sweep_points(cfg: dict, geom: CavityGeometry, n_qubits: int, sweep_type: str):
    """``(qubit, centers, l_nh, extra)`` of a sweep over P points: the swept
    qubit, its dipole centers (P, 3) in m or its junction inductances (P
    floats, nH), whichever moves (the other is None), and the extra output
    keys as columns of P values.  A run without a sweep is one point where
    nothing moves."""
    if sweep_type == "none":
        return 0, None, None, {}
    qi = int(get_setting(cfg, "dispersive.sweep.qubit"))
    if not 0 <= qi < n_qubits:
        raise ConfigError(f"sweep qubit index {qi} out of range")
    if sweep_type == "position_grid":
        n_x = int(get_setting(cfg, "dispersive.sweep.n_x"))
        n_z = int(get_setting(cfg, "dispersive.sweep.n_z"))
        margin = mm_to_m(float(get_setting(cfg, "dispersive.sweep.margin_mm")))
        if not 0 < margin < min(geom.a, geom.d) / 2:
            raise ConfigError("sweep margin must lie inside the quarter cavity")
        x = np.repeat(np.linspace(margin, geom.a / 2.0, n_x), n_z)
        z = np.tile(np.linspace(margin, geom.d / 2.0, n_z), n_x)
        centers = np.stack([x, np.full_like(x, geom.b / 2.0), z], axis=1)
        return qi, centers, None, {"x_mm": (x / 1e-3).tolist(), "z_mm": (z / 1e-3).tolist()}
    if sweep_type == "L_J":
        start = float(get_setting(cfg, "dispersive.sweep.start_nH"))
        stop = float(get_setting(cfg, "dispersive.sweep.stop_nH"))
        n_points = int(get_setting(cfg, "dispersive.sweep.n_points"))
        # the dipole stays put: only the junction, hence the spectrum, changes
        l_nhs = np.linspace(start, stop, n_points).tolist()
        return qi, None, l_nhs, {"L_J_nH": l_nhs}
    raise ConfigError(f"unknown sweep type {sweep_type!r}")  # pragma: no cover - schema


def _point_entries(res: DispersiveColumns, extra: dict) -> list[dict]:
    """Output entry of every sweep point, in order, from the read-out columns
    and the sweep's extra output columns."""
    none = [None] * len(res.chi)
    columns = {
        "omega01_GHz": rad_per_s_to_ghz(res.omega01).tolist(),
        "alpha_MHz": none if res.alpha is None else rad_per_s_to_mhz(res.alpha).tolist(),
        "omega_k_GHz": rad_per_s_to_ghz(res.omega_cavity).tolist(),
        "chi_MHz": rad_per_s_to_mhz(res.chi).tolist(),
        "zeta_MHz": none if res.zeta is None else rad_per_s_to_mhz(res.zeta).tolist(),
        "flags": [[list(lbl) for lbl, flagged in zip(res.labels, row) if flagged]
                  if any(row) else [] for row in res.flagged.tolist()],
        "min_label_overlap": res.min_label_overlap.tolist(),
        **extra,
    }
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


def cmd_dispersive(args) -> int:
    cfg, sha = _prepare(args)
    geom = build_geometry(cfg)
    qubit_cfgs = get_setting(cfg, "qubits")
    if not qubit_cfgs:
        raise ConfigError("dispersive needs at least one entry under 'qubits'")
    n_q = len(qubit_cfgs)
    labels = [str(lbl) for lbl in get_setting(cfg, "dispersive.cavity_modes")]
    m_levels = int(get_setting(cfg, "dispersive.M"))
    chi_qubit = int(get_setting(cfg, "dispersive.chi.qubit"))
    chi_cavity = int(get_setting(cfg, "dispersive.chi.cavity"))
    zeta_pair = cfg.get("dispersive", {}).get("zeta_pair")
    if zeta_pair is None and n_q >= 2:
        zeta_pair = [0, 1]
    if zeta_pair is not None:
        zeta_pair = (int(zeta_pair[0]), int(zeta_pair[1]))
    omegas, fields_at, mode_source = _cavity_inputs(cfg, geom, labels, n_q)

    # the configured qubits: dipoles, divider capacitances (F), L_J (nH)
    specs = [build_dipole(qc) for qc in qubit_cfgs]
    c_load = [ff_to_farad(float(qc["C_L_fF"])) for qc in qubit_cfgs]
    c_ant = [ff_to_farad(float(qc["c_ant_fF"])) if "c_ant_fF" in qc
             else dipole_capacitance(spec, min(omegas))
             for qc, spec in zip(qubit_cfgs, specs)]
    l_nh = [float(qc["L_J_nH"]) for qc in qubit_cfgs]

    sweep_type = str(get_setting(cfg, "dispersive.sweep.type"))
    if sweep_type == "position_grid" and mode_source == "external":
        raise ConfigError("position_grid sweeps need analytic modes "
                          "(external fields are fixed per site)")
    qi, swept_centers, swept_l_nh, extra = _sweep_points(cfg, geom, n_q, sweep_type)
    # every dipole of every point as a row of its center (m), unit axis and
    # length (m) [point, qubit, 7]; a run without a sweep has one point
    n_points = len(next(iter(extra.values()), [None]))
    dipoles = np.repeat([[(*spec.center, *spec.orientation, spec.length) for spec in specs]],
                        n_points, axis=0)
    if swept_centers is not None:
        dipoles[:, qi, :3] = swept_centers
    misplaced = first_misplaced_dipole(dipoles[..., :3], dipoles[..., 3:6], dipoles[..., 6],
                                       geom)
    if misplaced is not None:
        (p, q), tip = misplaced
        message = f"qubit {q} dipole tip {_mm(tip)} lies outside the cavity"
        if swept_centers is not None and q == qi:
            message = (f"sweep point {p} (x = {extra['x_mm'][p]:.6g} mm, "
                       f"z = {extra['z_mm'][p]:.6g} mm): {message}")
        raise ConfigError(message)

    # one transmon solve: the configured qubits, then the swept junctions
    owners = list(range(n_q)) + [qi] * len(swept_l_nh or [])
    l_nh += swept_l_nh or []
    params = [TransmonParams.from_circuit(c_ant[q] + c_load[q], nh_to_henry(l))
              for q, l in zip(owners, l_nh)]
    try:
        levels, elements = transmon_spectra(params, n_levels=m_levels)
    except ConvergenceError as exc:
        if exc.point is None:
            raise
        where = f"qubit {exc.point}" if exc.point < n_q else f"sweep point {exc.point - n_q}"
        raise ConvergenceError(f"{where} (L_J = {l_nh[exc.point]!r} nH): {exc}",
                               point=exc.point) from exc
    # the levels and charge elements [point, qubit, ...]
    point_levels, point_elements = (np.repeat(values[None, :n_q], n_points, axis=0)
                                    for values in (levels, elements))
    if swept_l_nh is not None:
        point_levels[:, qi] = levels[n_q:]
        point_elements[:, qi] = elements[n_q:]
    couplings = transition_couplings(point_elements, c_ant, c_load, dipoles[..., 6],
                                     dipoles[..., 3:6], fields_at(dipoles), omegas)
    basis = SystemBasis(n_qubits=n_q, n_cavities=len(omegas), n_levels=m_levels)
    points = _point_entries(
        dispersive_columns(sector_spectra(point_levels, omegas, couplings, basis),
                           qubit=chi_qubit, cavity=chi_cavity, qubit_pair=zeta_pair),
        extra)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config_sha256": sha,
        "mode_source": mode_source,
        "cavity_modes": [{"label": lbl, "f_GHz": rad_per_s_to_ghz(om)}
                         for lbl, om in zip(labels, omegas)],
        "M": m_levels,
        "sweep_type": sweep_type,
        "qubit_c_ant_fF": [c / 1e-15 for c in c_ant],
        "points": points,
        **_external_modes_hash(cfg),
    }
    if sweep_type != "none":
        payload["n_flagged_points"] = sum(1 for p in points if p["flags"])
    if sweep_type == "position_grid":
        clean = [p["chi_MHz"] for p in points if not p["flags"]]
        payload["average_chi_MHz"] = (sum(clean) / len(clean)) if clean else None

    out = _resolve_out(args, cfg, "_dispersive.json")
    _write_json(out, payload)
    print(f"wrote {len(points)} point(s) to {out}")
    return 0


# --- ingest-check --------------------------------------------------------------

def cmd_ingest_check(args) -> int:
    cfg, _ = _prepare(args)
    if "external_modes" not in cfg:
        raise ConfigError("configuration has no 'external_modes' entry to check")
    path = cfg["external_modes"]
    records = read_external_modes(path)
    n_sites = records[0].n_sites
    for rec in records:
        try:
            parse_mode_label(rec.mode_label)
        except ConfigError:
            print(f"warning: mode label {rec.mode_label!r} is not in canonical "
                  "TE/TM form; it can only be matched verbatim", file=sys.stderr)
    n_qubits = len(get_setting(cfg, "qubits"))
    if n_qubits and n_sites < n_qubits:
        raise ExternalModesError(
            f"{path}: records carry {n_sites} qubit site(s) but the "
            f"configuration defines {n_qubits} qubits")
    if args.out:
        write_external_modes(args.out, records)
        print(f"wrote normalized copy to {args.out}")
    labels = ", ".join(rec.mode_label for rec in records)
    print(f"OK: {len(records)} mode(s), {n_sites} qubit site(s): {labels}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DegenerateResponseError, UndefinedCorrelationError,
            OutOfValidityError) as exc:
        print(f"error (degenerate physics): {exc}", file=sys.stderr)
        return 3
    except (ConvergenceError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"error (numerical): {exc}", file=sys.stderr)
        return 4
    except (ConfigError, ExternalModesError, FileNotFoundError, IsADirectoryError,
            ValueError, OSError) as exc:
        print(f"error (configuration): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
