"""End-to-end acceptance checks.

Each test exercises one advertised capability at its stated tolerance and
runtime budget and emits a single machine-greppable line

    criterion NN: PASS|FAIL -- <measured values>

on the process stderr (bypassing capture) before asserting.
"""
import json
import math
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
import yaml

import cavqed as cq
import cavqed.cli as cli
from cavqed.hom import _abc
from cavqed.system import _readout_labels

import oracles
from conftest import ACCEPTANCE_LINES, C_LOAD, L_J, make_probe
from test_cli import CHI_MAP, ZZ_SWEEP

TWO_PI = 2 * math.pi


def report(number: int, passed: bool, details: str) -> None:
    status = "PASS" if passed else "FAIL"
    line = f"criterion {number:2d}: {status} -- {details}"
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stderr__, flush=True)


def build_reference_stack(m_levels):
    """Fresh two-mode, one-qubit reference chain (no fixture reuse, so the
    runtime budgets below cover the full computation), solved by the dense
    oracle on the whole M**3 product space: the sector solver would solve the
    same N <= 2 blocks at every M, so criterion 5 needs the dense one."""
    geom = cq.CavityGeometry(a=22.86e-3, b=10.16e-3, d=40e-3)
    probes = [make_probe(geom, 10e-3, "bottom"), make_probe(geom, 30e-3, "top")]
    modes = []
    for mnp in ((1, 0, 1), (1, 0, 2)):
        mode = cq.make_mode(cq.ModeIndex("TE", *mnp), geom)
        omega = cq.perturbed_frequency_tip(mode, geom, probes).omega_perturbed
        modes.append(cq.CavityMode(index=mode.index, omega=omega,
                                   norm_E=mode.norm_E, norm_H=mode.norm_H))
    dipole = cq.DipoleSpec(length=1e-3, radius=0.04e-3, gap=0.102e-3,
                           center=(geom.a / 2, geom.b / 2, geom.d / 2),
                           orientation=(0.0, 1.0, 0.0))
    c_ant = cq.dipole_capacitance(dipole, modes[0].omega)
    params = cq.TransmonParams.from_circuit(c_ant + C_LOAD, L_J)
    spectrum = cq.transmon_spectrum(params, n_levels=m_levels)
    qubit = cq.QubitInstance(dipole=dipole, spectrum=spectrum,
                             c_ant=c_ant, c_load=C_LOAD)
    couplings = cq.coupling_matrix([qubit], modes, geom, n_levels=m_levels)
    basis = cq.SystemBasis(n_qubits=1, n_cavities=2, n_levels=m_levels)
    h = oracles.assemble_hamiltonian([spectrum], [m.omega for m in modes],
                                     couplings, basis)
    return cq.dispersive_params(oracles.dressed_spectrum(h, basis))


def test_criterion_01_mode_frequencies():
    start = time.perf_counter()
    geom = cq.CavityGeometry(a=22.86e-3, b=10.16e-3, d=40e-3)
    f101 = cq.resonant_frequency(cq.ModeIndex("TE", 1, 0, 1), geom) / TWO_PI
    f102 = cq.resonant_frequency(cq.ModeIndex("TE", 1, 0, 2), geom) / TWO_PI
    elapsed = time.perf_counter() - start
    ok = (abs(f101 / 7.55e9 - 1) < 2e-3 and abs(f102 / 9.96e9 - 1) < 2e-3
          and elapsed < 1.0)
    report(1, ok, f"TE101 {f101 / 1e9:.6f} GHz, TE102 {f102 / 1e9:.6f} GHz "
                  f"(targets 7.55 / 9.96 +-0.2%), {elapsed:.3f} s")
    npt.assert_allclose(f101, 7.55e9, rtol=2e-3)
    npt.assert_allclose(f102, 9.96e9, rtol=2e-3)
    assert elapsed < 1.0


def test_criterion_02_antenna_capacitance():
    start = time.perf_counter()
    dipole = cq.DipoleSpec(length=1e-3, radius=0.04e-3, gap=0.102e-3,
                           center=(11.43e-3, 5.08e-3, 20e-3),
                           orientation=(0.0, 1.0, 0.0))
    c_ant = cq.dipole_capacitance(dipole, TWO_PI * 7.552418853250746e9)
    elapsed = time.perf_counter() - start
    ok = abs(c_ant / 9.091e-15 - 1) < 0.01 and elapsed < 1.0
    report(2, ok, f"C_ant {c_ant / 1e-15:.4f} fF (target 9.091 +-1%), "
                  f"{elapsed:.3f} s")
    npt.assert_allclose(c_ant, 9.091e-15, rtol=0.01)
    assert elapsed < 1.0


def test_criterion_03_single_qubit_parameters():
    start = time.perf_counter()
    result = build_reference_stack(m_levels=6)
    elapsed = time.perf_counter() - start
    f01 = result.omega01 / TWO_PI
    alpha = result.alpha / TWO_PI
    ok = (abs(f01 / 6.39e9 - 1) < 0.01 and abs(alpha / -371.72e6 - 1) < 0.02
          and elapsed < 5.0)
    report(3, ok, f"omega01/2pi {f01 / 1e9:.6f} GHz (target 6.39 +-1%), "
                  f"alpha/2pi {alpha / 1e6:.3f} MHz (target -371.72 +-2%), "
                  f"{elapsed:.2f} s")
    npt.assert_allclose(f01, 6.39e9, rtol=0.01)
    npt.assert_allclose(alpha, -371.72e6, rtol=0.02)
    assert elapsed < 5.0


def test_criterion_04_chi_map_average(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "chi_map.json"
    rc = cli.main(["dispersive", "--config", CHI_MAP, "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert rc == 0
    payload = json.loads(out.read_text())
    average = payload["average_chi_MHz"]
    ok = (-0.028 * 1.15 <= average <= -0.028 * 0.85) and elapsed < 600.0
    report(4, ok, f"grid-average chi {average:.6f} MHz (target -0.028 +-15%), "
                  f"{len(payload['points'])} points, "
                  f"{payload['n_flagged_points']} flagged, {elapsed:.1f} s")
    assert len(payload["points"]) == 121
    assert -0.028 * 1.15 <= average <= -0.028 * 0.85
    assert elapsed < 600.0


def test_criterion_05_truncation_convergence():
    start = time.perf_counter()
    small = build_reference_stack(m_levels=3)
    large = build_reference_stack(m_levels=15)
    elapsed = time.perf_counter() - start
    d_f01 = abs(small.omega01 / large.omega01 - 1)
    d_alpha = abs(small.alpha / large.alpha - 1)
    ok = d_f01 < 1e-3 and d_alpha < 1e-3 and elapsed < 300.0
    report(5, ok, f"M=3 vs M=15: d(omega01) {d_f01:.2e}, d(alpha) {d_alpha:.2e} "
                  f"(both < 1e-3), {elapsed:.1f} s")
    assert d_f01 < 1e-3
    assert d_alpha < 1e-3
    assert elapsed < 300.0


def test_criterion_06_scattering_unitarity():
    start = time.perf_counter()
    geom = cq.CavityGeometry(a=22.86e-3, b=10.16e-3, d=40e-3)
    probes = (make_probe(geom, 10e-3, "bottom"), make_probe(geom, 30e-3, "top"))
    mode = cq.make_mode(cq.ModeIndex("TE", 1, 0, 1), geom)
    resp = cq.two_port_response(mode, geom, probes)
    rng = np.random.default_rng(2024)
    fwhm = cq.half_power_bandwidth(resp)
    omegas = resp.omega0 + rng.uniform(-50, 50, size=10_000) * fwhm
    s = cq.transfer_functions(resp, omegas)
    identity = np.einsum("...ij,...kj->...ik", s, s.conj())
    deviation = float(np.max(np.abs(identity - np.eye(2))))
    elapsed = time.perf_counter() - start
    ok = deviation < 1e-12 and elapsed < 1.0
    report(6, ok, f"max |S S^dag - I| = {deviation:.2e} over 10^4 draws "
                  f"(< 1e-12), {elapsed:.3f} s")
    assert deviation < 1e-12
    assert elapsed < 1.0


def test_criterion_07_hom_dip_and_tails(response):
    start = time.perf_counter()
    sigma = 2.5e-6
    center = cq.balanced_center_frequency(response)
    pkt1 = cq.PhotonWavepacket(omega_in=center, sigma=sigma, port=1)
    pkt2 = cq.PhotonWavepacket(omega_in=center, sigma=sigma, port=2)
    grid = cq.default_grid(response, sigma, n_bins=8192)
    dip = cq.g2(response, pkt1, pkt2, 0.0, grid)
    tails = [cq.g2_integrated(response, pkt1, pkt2, tau, grid)
             for tau in (-10 * sigma, 10 * sigma)]
    elapsed = time.perf_counter() - start
    tail_dev = max(abs(t - 0.5) for t in tails)
    ok = dip <= 1e-3 and tail_dev <= 1e-2 and elapsed < 120.0
    report(7, ok, f"g2(0) = {dip:.2e} (<= 1e-3), g2(+-10 sigma) within "
                  f"{tail_dev:.2e} of 0.5 (<= 1e-2), {elapsed:.2f} s")
    assert dip <= 1e-3
    assert tail_dev <= 1e-2
    assert elapsed < 120.0


def test_criterion_08_coincidence_sums_vs_enumeration(response):
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    fwhm = cq.half_power_bandwidth(response)
    grid = cq.FrequencyGrid(response.omega0 - 3 * fwhm,
                            response.omega0 + 3 * fwhm, 16)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cq.GridCoverageWarning)
        for _ in range(100):
            pkt1 = cq.PhotonWavepacket(
                response.omega0 + rng.uniform(-1, 1) * fwhm,
                2.5e-6 * rng.uniform(0.01, 0.1), port=1)
            pkt2 = cq.PhotonWavepacket(
                response.omega0 + rng.uniform(-1, 1) * fwhm,
                2.5e-6 * rng.uniform(0.01, 0.1), port=2)
            tau = rng.uniform(-1, 1) * 1e-7
            t0 = rng.uniform(0, 1) * 1e-7
            w1 = cq.spectral_weights(pkt1, grid, t_ref=t0)
            w2 = cq.spectral_weights(pkt2, grid, t_ref=t0 + tau)
            expected = oracles.brute_force_abc(response, w1, w2, grid.omegas,
                                               tau, t0)
            actual = _abc(response, pkt1, pkt2, tau, grid, t0=t0)
            npt.assert_allclose(actual, expected, rtol=1e-10, atol=1e-30)
            for a, b in zip(actual, expected):
                if b != 0.0:
                    worst = max(worst, abs(a / b - 1))
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    report(8, ok, f"A, B, C vs brute-force enumeration: worst relative "
                  f"deviation {worst:.2e} (<= 1e-10) over 100 draws, 16 bins, "
                  f"{elapsed:.2f} s")
    assert elapsed < 60.0


def test_criterion_09_dressed_doublet():
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    params = cq.TransmonParams(E_C=1e-24, E_J=1e-22)
    basis = cq.SystemBasis(n_qubits=1, n_cavities=1, n_levels=2)
    worst = 0.0
    for _ in range(100):
        omega01 = TWO_PI * rng.uniform(4e9, 8e9)
        detuning = TWO_PI * rng.uniform(0.15e9, 1e9) * rng.choice([-1, 1])
        omega_cavity = omega01 - detuning
        g = TWO_PI * rng.uniform(10e6, 50e6)
        spec = cq.TransmonSpectrum(params=params, levels=(0.0, omega01),
                                   charge_elements=(-1j,))
        h = oracles.assemble_hamiltonian([spec], [omega_cavity],
                                         cq.CouplingMatrix(g=np.array([[[g]]])), basis)
        dressed = oracles.dressed_spectrum(h, basis)
        lower, upper = oracles.jaynes_cummings_doublet(omega01, omega_cavity, g)
        e0 = dressed.energy((0, 0))
        e_qubit = dressed.energy((1, 0)) - e0
        e_cavity = dressed.energy((0, 1)) - e0
        expected_qubit, expected_cavity = ((lower, upper) if detuning < 0
                                           else (upper, lower))
        worst = max(worst, abs(e_qubit / expected_qubit - 1),
                    abs(e_cavity / expected_cavity - 1))
        npt.assert_allclose(e_qubit, expected_qubit, rtol=1e-10)
        npt.assert_allclose(e_cavity, expected_cavity, rtol=1e-10)
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    report(9, ok, f"dressed pair vs closed-form doublet: worst relative "
                  f"deviation {worst:.2e} (<= 1e-10) over 100 draws, "
                  f"{elapsed:.2f} s")
    assert elapsed < 10.0


def bisect_zeta_gap(tmp_path, lo, hi, zeta_lo):
    """Bisect qubit 1's L_J between two sweep points whose zeta differs in
    sign, with single-point runs of the zz_sweep config.  Stops at the first
    flagged point or when the midpoint can no longer be split; returns that
    point's inductance (nH) and payload entry."""
    out = tmp_path / "gap.json"
    while True:
        mid = 0.5 * (lo + hi)
        rc = cli.main(["dispersive", "--config", ZZ_SWEEP, "--out", str(out),
                       "--override", "dispersive.sweep={type: none}",
                       "--override", f"qubits.1.L_J_nH={mid!r}"])
        assert rc == 0
        point = json.loads(out.read_text())["points"][0]
        if point["flags"] or mid in (lo, hi):
            return mid, point
        if point["zeta_MHz"] * zeta_lo > 0:
            lo = mid
        else:
            hi = mid


def test_criterion_10_zz_sweep(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "zz.json"
    rc = cli.main(["dispersive", "--config", ZZ_SWEEP, "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert rc == 0
    payload = json.loads(out.read_text())
    points = payload["points"]
    zetas = [p["zeta_MHz"] for p in points]
    brackets = [(a, b) for a, b in zip(points, points[1:])
                if a["zeta_MHz"] * b["zeta_MHz"] < 0]
    n_flagged = payload["n_flagged_points"]
    n_flagged_sampled = sum(1 for p in points if p["flags"])
    # The resonant gaps are < 1 MHz wide and the samples ~20 MHz apart, so
    # the flag is checked where zeta changes sign, not at the samples.
    gaps = [bisect_zeta_gap(tmp_path, a["L_J_nH"], b["L_J_nH"], a["zeta_MHz"])
            for a, b in brackets]
    swapped_flagged = all([1, 1, 0, 0, 0] in p["flags"] for _, p in gaps)
    ok = (len(brackets) >= 1 and swapped_flagged and elapsed < 300.0
          and len(zetas) == 51 and n_flagged == n_flagged_sampled)
    gap_text = ", ".join(f"L_J {l_nh:.5f} nH flags {p['flags']}"
                         for l_nh, p in gaps)
    report(10, ok, f"51-point junction sweep: {len(brackets)} zeta sign "
                   f"change(s), max |zeta| {max(abs(z) for z in zetas) * 1e3:.1f} kHz, "
                   f"{n_flagged} flagged sampled point(s), {elapsed:.1f} s; "
                   f"bisected gaps: {gap_text} (expect (1,1,0,0,0) flagged)")
    assert len(zetas) == 51
    assert len(brackets) >= 1
    assert elapsed < 300.0
    assert n_flagged == n_flagged_sampled
    for l_nh, point in gaps:
        assert [1, 1, 0, 0, 0] in point["flags"], (
            f"label (1,1,0,0,0) not flagged at the zeta sign change bisected "
            f"to L_J = {l_nh!r} nH (flags {point['flags']})")


@pytest.fixture(scope="module")
def zz_solves(tmp_path_factory):
    """Criterion 10's sweep and its two bisected zeta gaps, run through the
    CLI with its stacked solver recorded: ``(args, spectra)`` of the sweep's
    one solve, and per gap its L_J (nH), its payload entry and the
    ``(args, spectrum)`` of its one-point solve."""
    tmp_path = tmp_path_factory.mktemp("zz")
    out = tmp_path / "zz.json"
    solves = []

    def captured(*args):
        spectra = cq.sector_spectra(*args)
        solves.extend((args, dressed) for dressed in spectra)
        return spectra

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "sector_spectra", captured)
        assert cli.main(["dispersive", "--config", ZZ_SWEEP, "--out", str(out)]) == 0
        points = json.loads(out.read_text())["points"]
        sweep = (solves[0][0], [dressed for _, dressed in solves])
        assert len(sweep[1]) == len(points) == 51
        gaps = []
        for a, b in zip(points, points[1:]):
            if a["zeta_MHz"] * b["zeta_MHz"] < 0:
                solves.clear()
                l_nh, point = bisect_zeta_gap(tmp_path, a["L_J_nH"], b["L_J_nH"],
                                              a["zeta_MHz"])
                gaps.append((l_nh, point, solves[-1]))
    assert len(gaps) == 2
    return sweep, gaps


def test_gap_flags_match_dense_oracle(zz_solves):
    """At both zeta gaps that criterion 10 bisects to, the dense oracle
    (M = 3, 243 states) flags the same read-out labels as the sector solver
    that the CLI ran, on the very inputs the CLI passed it."""
    readout = yaml.safe_load(Path(ZZ_SWEEP).read_text())["dispersive"]
    readout = {"qubit": readout["chi"]["qubit"], "cavity": readout["chi"]["cavity"],
               "qubit_pair": readout["zeta_pair"]}
    for l_nh, point, ((levels, omegas, g, basis), sector) in zz_solves[1]:
        assert len(levels) == len(g) == 1
        spectra = [SimpleNamespace(levels=row) for row in levels[0]]  # reads .levels only
        dense = oracles.dressed_spectrum(
            oracles.assemble_hamiltonian(spectra, omegas, cq.CouplingMatrix(g=g[0]), basis),
            basis)
        assert len(dense.levels) == 3**5
        from_sector = cq.dispersive_params(sector, **readout)
        from_dense = cq.dispersive_params(dense, **readout)
        assert [list(lbl) for lbl in from_sector.flags] == point["flags"]
        assert from_dense.flags == from_sector.flags
        assert (1, 1, 0, 0, 0) in from_dense.flags
        npt.assert_allclose(dense.overlap((1, 1, 0, 0, 0)), 0.4998, atol=1e-4)
        scale = max(abs(energy) for energy, _ in dense.levels.values())
        for label in _readout_labels(basis, readout["qubit"], readout["cavity"],
                                     tuple(readout["qubit_pair"])).values():
            assert abs(dense.energy(label) - sector.energy(label)) <= 1e-12 * scale


def test_gap_points_independent_of_stack(zz_solves):
    """Stacked with each other and with the 51 sampled points, both bisected
    gap points get exactly the levels they got alone, and every sampled point
    those of its sweep.  Label (1,1,0,0,0) overlaps no eigenvector by more
    than 1/2 at the gaps, so these blocks go through _greedy_assign's loop."""
    ((levels, omegas, g, basis), sampled), gaps = zz_solves
    stack_levels = np.concatenate([gaps[0][2][0][0], levels, gaps[1][2][0][0]])
    stack_g = np.concatenate([gaps[0][2][0][2], g, gaps[1][2][0][2]])
    stacked = cq.sector_spectra(stack_levels, omegas, stack_g, basis)
    alone = [gaps[0][2][1], *sampled, gaps[1][2][1]]
    assert len(stacked) == len(alone) == 53
    for solved, expected in zip(stacked, alone):
        assert solved.levels == expected.levels
    for _, _, (_, dressed) in gaps:
        assert dressed.overlap((1, 1, 0, 0, 0)) < 0.5