"""Correctness checks on the outputs of one pass.

Each check compares an output with a value the benchmark computes apart from
the command that wrote it, with a paper reference value, or with a property
the method must have.  None compares with a stored copy of an earlier run.
Tolerances admit relative shifts of ~1e-9 (a change of physical-constant set
moves the coupling chain by ~7e-10) and reject the perturbations exercised in
``perfbench/tests``.

``check(inputs, outputs)`` returns a list of failure messages; empty means
correct.  ``outputs`` maps an op name to its parsed output (see
:func:`read_outputs`).
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
import warnings

import numpy as np

from cavqed.cavity import make_mode
from cavqed.config import (build_dipole, build_geometry, build_probes, ff_to_farad,
                           get_setting, nh_to_henry, parse_mode_label)
from cavqed.perturbation import perturbed_frequency_tip
from cavqed.system import QubitInstance, coupling_matrix
from cavqed.transmon import TransmonParams, dipole_capacitance, transmon_spectrum

RAD_PER_MHZ = 2.0 * math.pi * 1e6

#: chi against the second-order estimate 2 g0^2/D0 - g1^2/D1 (relative); the
#: fourth-order remainder is <= 4.9e-4 on the shipped configurations.
CHI_ESTIMATE_RTOL = 2e-3
#: Criterion 4: grid-averaged chi of the chi map, MHz.
CHI_MAP_AVERAGE_MHZ = (-0.028, 0.15)
#: Criterion 3: omega01 (GHz) and alpha (MHz) of the single-qubit reference.
REFERENCE_OMEGA01_GHZ = (6.39, 0.01)
REFERENCE_ALPHA_MHZ = (-371.72, 0.02)
#: omega01 and alpha at the two largest truncations (relative).
TRUNCATION_RTOL = 1e-3
#: External-mode run against the analytic run (relative; zeta relative to max |zeta|).
EXTERNAL_RTOL = 1e-6
#: HOM: tails of the integrated curve, agreement with the Gaussian closed form,
#: symmetry in tau, and the time-local dip.
HOM_TAIL_ATOL = 1e-2
HOM_CLOSED_FORM_ATOL = 2e-3
HOM_SYMMETRY_ATOL = 1e-9
HOM_TIME_LOCAL_DIP_MAX = 1e-3
#: ``cavqed hom`` scans this many centers over +-FWHM around the closed form.
HOM_N_SCAN = 41


# --- reading -----------------------------------------------------------------------

def read_curve(path) -> dict:
    """HOM CSV and its JSON sidecar as {"taus_s", "g2", "sidecar"}."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    body = np.array(rows[1:], dtype=float)
    with open(path.with_suffix(".json"), encoding="utf-8") as fh:
        sidecar = json.load(fh)
    return {"taus_s": body[:, 0], "g2": body[:, 1], "sidecar": sidecar}


def read_outputs(inputs) -> dict:
    outputs = {}
    for op in inputs.ops:
        if op.argv[0] == "hom":
            outputs[op.name] = read_curve(op.out)
        else:
            with open(op.out, encoding="utf-8") as fh:
                outputs[op.name] = json.load(fh)
    return outputs


# --- helpers -----------------------------------------------------------------------

def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a - b)


def _within(errors: list, what: str, value, ref: float, rtol: float) -> None:
    if value is None or not abs(value - ref) <= rtol * abs(ref):
        errors.append(f"{what} = {value} not within {rtol:g} of {ref}")


def second_order_chi_mhz(cfg: dict, centers_m, qubit: int, cavity: int) -> np.ndarray:
    """2 g0^2/D0 - g1^2/D1 (MHz) for ``qubit`` placed at each of ``centers_m``,
    with g_j from ``coupling_matrix`` and D_j = omega_{j,j+1} - omega_k from the
    bare transmon levels and the probe-perturbed mode frequency."""
    geom = build_geometry(cfg)
    probes = build_probes(cfg)
    modes = []
    for label in get_setting(cfg, "dispersive.cavity_modes"):
        mode = make_mode(parse_mode_label(label), geom)
        omega = (perturbed_frequency_tip(mode, geom, probes).omega_perturbed
                 if probes else mode.omega)
        modes.append(dataclasses.replace(mode, omega=omega))
    qc = cfg["qubits"][qubit]
    dipole = build_dipole(qc)
    c_ant = (ff_to_farad(float(qc["c_ant_fF"])) if "c_ant_fF" in qc
             else dipole_capacitance(dipole, min(m.omega for m in modes)))
    c_load = ff_to_farad(float(qc["C_L_fF"]))
    spectrum = transmon_spectrum(TransmonParams.from_circuit(
        c_ant + c_load, nh_to_henry(float(qc["L_J_nH"]))), n_levels=3)
    placed = [QubitInstance(dipole=dataclasses.replace(dipole, center=tuple(c)),
                            spectrum=spectrum, c_ant=c_ant, c_load=c_load)
              for c in centers_m]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = coupling_matrix(placed, [modes[cavity]], geom, 3).g[0]
    levels = spectrum.levels
    d0 = levels[1] - modes[cavity].omega
    d1 = levels[2] - levels[1] - modes[cavity].omega
    return (2.0 * g[:, 0]**2 / d0 - g[:, 1]**2 / d1) / RAD_PER_MHZ


def _check_chi_estimates(errors, name, points, estimates) -> None:
    for i, (point, est) in enumerate(zip(points, estimates)):
        if not _rel(point["chi_MHz"], est) <= CHI_ESTIMATE_RTOL:
            errors.append(f"{name} point {i}: chi {point['chi_MHz']} MHz vs "
                          f"second-order estimate {est} MHz")
            return


def _check_flag_count(errors, name, payload) -> None:
    flagged = sum(1 for p in payload["points"] if p["flags"])
    if payload.get("n_flagged_points") != flagged:
        errors.append(f"{name}: n_flagged_points {payload.get('n_flagged_points')} "
                      f"but {flagged} point(s) carry flags")


# --- dispersive_sweeps --------------------------------------------------------------

def check_chi_map(cfg: dict, payload: dict) -> list[str]:
    errors: list[str] = []
    geom = build_geometry(cfg)
    margin = float(get_setting(cfg, "dispersive.sweep.margin_mm")) * 1e-3
    xs = np.linspace(margin, geom.a / 2.0, int(get_setting(cfg, "dispersive.sweep.n_x")))
    zs = np.linspace(margin, geom.d / 2.0, int(get_setting(cfg, "dispersive.sweep.n_z")))
    grid = [(x, z) for x in xs for z in zs]
    points = payload["points"]
    if len(points) != len(grid):
        return [f"chi_map: {len(points)} points, expected {len(grid)}"]
    for point, (x, z) in zip(points, grid):
        if abs(point["x_mm"] - x * 1e3) > 1e-9 or abs(point["z_mm"] - z * 1e3) > 1e-9:
            errors.append(f"chi_map: point at ({point['x_mm']}, {point['z_mm']}) mm "
                          f"is not grid point ({x * 1e3}, {z * 1e3}) mm")
            break
    qi = int(get_setting(cfg, "dispersive.sweep.qubit"))
    y = build_dipole(cfg["qubits"][qi]).center[1]
    estimates = second_order_chi_mhz(cfg, [(x, y, z) for x, z in grid], qi,
                                     int(get_setting(cfg, "dispersive.chi.cavity")))
    _check_chi_estimates(errors, "chi_map", points, estimates)
    clean = [p["chi_MHz"] for p in points if not p["flags"]]
    average = sum(clean) / len(clean) if clean else None
    if average is None or not _rel(payload["average_chi_MHz"], average) <= 1e-12:
        errors.append(f"chi_map: average_chi_MHz {payload['average_chi_MHz']} is not "
                      f"the mean {average} of the unflagged points")
    _within(errors, "chi_map average chi (MHz)", average, *CHI_MAP_AVERAGE_MHZ)
    _check_flag_count(errors, "chi_map", payload)
    return errors


def check_zz_sweep(cfg: dict, payload: dict, name: str = "zz_sweep") -> list[str]:
    errors: list[str] = []
    sweep = cfg["dispersive"]["sweep"]
    l_values = np.linspace(sweep["start_nH"], sweep["stop_nH"], sweep["n_points"])
    points = payload["points"]
    if len(points) != len(l_values):
        return [f"{name}: {len(points)} points, expected {len(l_values)}"]
    if any(abs(p["L_J_nH"] - l) > 1e-12 for p, l in zip(points, l_values)):
        errors.append(f"{name}: L_J values are not the configured sweep grid")
    zetas = [p["zeta_MHz"] for p in points]
    if any(z is None or not math.isfinite(z) for z in zetas):
        errors.append(f"{name}: missing or non-finite zeta")
    elif not any(a * b < 0 for a, b in zip(zetas, zetas[1:])):
        errors.append(f"{name}: zeta never changes sign")
    _check_flag_count(errors, name, payload)
    return errors


def check_external_match(analytic: dict, external: dict) -> list[str]:
    """The external-mode run reproduces the analytic run point by point."""
    errors: list[str] = []
    if analytic.get("mode_source") != "internal" or external.get("mode_source") != "external":
        errors.append("zz_external: mode sources are "
                      f"{analytic.get('mode_source')!r}/{external.get('mode_source')!r}")
    a_points, e_points = analytic["points"], external["points"]
    if len(a_points) != len(e_points):
        return errors + ["zz_external: point counts differ from the analytic run"]
    zeta_scale = max(abs(p["zeta_MHz"] or 0.0) for p in a_points)
    for i, (a, e) in enumerate(zip(a_points, e_points)):
        for key in ("omega01_GHz", "alpha_MHz", "chi_MHz"):
            if not _rel(e[key], a[key]) <= EXTERNAL_RTOL:
                errors.append(f"zz_external point {i}: {key} {e[key]} vs analytic {a[key]}")
        if (e["zeta_MHz"] is None or a["zeta_MHz"] is None
                or not abs(e["zeta_MHz"] - a["zeta_MHz"]) <= EXTERNAL_RTOL * zeta_scale):
            errors.append(f"zz_external point {i}: zeta_MHz {e['zeta_MHz']} vs "
                          f"analytic {a['zeta_MHz']}")
        if e["flags"] != a["flags"]:
            errors.append(f"zz_external point {i}: flags {e['flags']} vs {a['flags']}")
    return errors


# --- reference_stack -----------------------------------------------------------------

def check_reference_stack(inputs, outputs: dict) -> list[str]:
    errors: list[str] = []
    results = []
    for op in inputs.ops:
        payload = outputs[op.name]
        if payload["M"] != op.params["M"] or len(payload["points"]) != 1:
            errors.append(f"{op.name}: M = {payload['M']} with "
                          f"{len(payload['points'])} point(s)")
            continue
        point = payload["points"][0]
        _within(errors, f"{op.name} omega01 (GHz)", point["omega01_GHz"],
                *REFERENCE_OMEGA01_GHZ)
        _within(errors, f"{op.name} alpha (MHz)", point["alpha_MHz"], *REFERENCE_ALPHA_MHZ)
        cfg = inputs.configs[op.name]
        qi = int(get_setting(cfg, "dispersive.chi.qubit"))
        estimate = second_order_chi_mhz(cfg, [build_dipole(cfg["qubits"][qi]).center], qi,
                                        int(get_setting(cfg, "dispersive.chi.cavity")))
        _check_chi_estimates(errors, op.name, [point], estimate)
        results.append(point)
    if len(results) == len(inputs.ops) >= 2:
        for key in ("omega01_GHz", "alpha_MHz"):
            if not _rel(results[-1][key], results[-2][key]) <= TRUNCATION_RTOL:
                errors.append(f"{key} moves from {results[-2][key]} to "
                              f"{results[-1][key]} between the two largest M")
    return errors


# --- hom_curves -----------------------------------------------------------------------

def check_hom_curve(params: dict, n_tau: int, curve: dict, name: str = "hom") -> list[str]:
    errors: list[str] = []
    taus, values, side = curve["taus_s"], curve["g2"], curve["sidecar"]
    tau_max = params["tau_max_us"] * 1e-6
    if len(taus) != n_tau or np.max(np.abs(taus - np.linspace(-tau_max, tau_max, n_tau))) \
            > 1e-12 * tau_max:
        return [f"{name}: delays are not the {n_tau}-point grid over +-{tau_max} s"]
    for key in ("sigma1_us", "sigma2_us"):
        if not _rel(side[key], params[key]) <= 1e-12:
            errors.append(f"{name}: {key} {side[key]} but the input is {params[key]}")
    if side["normalization"] != params["normalization"]:
        errors.append(f"{name}: normalization {side['normalization']!r}")
    # The time-local curve tends to exactly 1, so roundoff may carry it just above.
    upper = 1.0 if params["normalization"] == "integrated" else 1.0 + 1e-9
    if not np.all(np.isfinite(values)) or np.any(values < 0.0) or np.any(values > upper):
        return errors + [f"{name}: g2 values outside [0, {upper}] or not finite"]
    asym = float(np.max(np.abs(values - values[::-1])))
    if not asym <= HOM_SYMMETRY_ATOL:
        errors.append(f"{name}: curve is not symmetric in tau (max |g(t) - g(-t)| {asym:.3g})")
    s1, s2 = params["sigma1_us"] * 1e-6, params["sigma2_us"] * 1e-6
    dip = float(values[n_tau // 2])  # tau = 0: the grid is symmetric with odd n_tau
    if s1 == s2 and dip > float(np.min(values)):
        errors.append(f"{name}: matched packets, but the minimum is not at tau = 0")
    if params["normalization"] == "integrated":
        for tail in (values[0], values[-1]):
            if not abs(tail - 0.5) <= HOM_TAIL_ATOL:
                errors.append(f"{name}: tail {tail} at +-{tau_max} s is not 0.5")
        visibility = 2.0 * s1 * s2 / (s1 * s1 + s2 * s2)
        closed = 0.5 * (1.0 - visibility * np.exp(-taus**2 / (s1 * s1 + s2 * s2)))
        dev = float(np.max(np.abs(values - closed)))
        if not dev <= HOM_CLOSED_FORM_ATOL:
            errors.append(f"{name}: deviates from the Gaussian closed form by {dev:.3g}")
    else:
        if not dip <= HOM_TIME_LOCAL_DIP_MAX:
            errors.append(f"{name}: time-local dip {dip:.3g} above {HOM_TIME_LOCAL_DIP_MAX}")
        for tail in (values[0], values[-1]):
            if not abs(tail - 1.0) <= HOM_TAIL_ATOL:
                errors.append(f"{name}: time-local tail {tail} is not 1")
    linewidth = math.pi * (side["g1_sqrt_rad_per_s"]**2 + side["g2_sqrt_rad_per_s"]**2)
    balanced = side["f_resonance_GHz"] + linewidth / (2.0 * math.pi * 1e9)
    if not _rel(side["balanced_center_GHz"], balanced) <= 1e-12:
        errors.append(f"{name}: balanced_center_GHz {side['balanced_center_GHz']} is not "
                      f"omega0 + pi (g1^2 + g2^2) = {balanced} GHz")
    step = 2.0 * (2.0 * linewidth) / (HOM_N_SCAN - 1) / (2.0 * math.pi * 1e9)
    offset = abs(side["center_GHz"] - balanced)
    if params["scan"] and not offset <= step * (1.0 + 1e-9):
        errors.append(f"{name}: scanned center {offset * 1e3:.6g} MHz from the balanced "
                      f"frequency, more than one scan step ({step * 1e3:.6g} MHz)")
    if not params["scan"] and not offset <= 1e-12 * balanced:
        errors.append(f"{name}: center {side['center_GHz']} GHz is not the balanced frequency")
    return errors


# --- dispatch -------------------------------------------------------------------------

def check(inputs, outputs: dict) -> list[str]:
    if inputs.workload == "dispersive_sweeps":
        return (check_chi_map(inputs.configs["chi_map"], outputs["chi_map"])
                + check_zz_sweep(inputs.configs["zz_sweep"], outputs["zz_sweep"])
                + check_zz_sweep(inputs.configs["zz_external"], outputs["zz_external"],
                                 "zz_external")
                + check_external_match(outputs["zz_sweep"], outputs["zz_external"]))
    if inputs.workload == "reference_stack":
        return check_reference_stack(inputs, outputs)
    errors = []
    for op in inputs.ops:
        n_tau = int(get_setting(inputs.configs[op.name], "hom.n_tau"))
        errors += check_hom_curve(op.params, n_tau, outputs[op.name], op.name)
    return errors
