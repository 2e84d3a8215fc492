"""The benchmark's own tests: every correctness check passes on real outputs
and fails on a perturbed copy of them, and the tracer counts calls exactly
and restores the package when it is removed."""
import contextlib
import copy
import io
import os

import numpy as np
import pytest

import cavqed.cli as cli
import checks
import inputs
from tracer import Tracer
from workload import quiet_median


def _run_pass(built):
    with contextlib.redirect_stdout(io.StringIO()):
        for op in built.ops:
            assert cli.main(list(op.argv)) == 0, op.name
    return checks.read_outputs(built)


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    built = inputs.build("dispersive_sweeps", 5, tmp_path_factory.mktemp("sweeps"))
    return built, _run_pass(built)


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    built = inputs.build("reference_stack", 5, tmp_path_factory.mktemp("stack"))
    return built, _run_pass(built)


@pytest.fixture(scope="module")
def curves(tmp_path_factory):
    built = inputs.build("hom_curves", 5, tmp_path_factory.mktemp("curves"))
    return built, _run_pass(built)


def _errors_after(run, change):
    built, outputs = run
    perturbed = copy.deepcopy(outputs)
    change(perturbed)
    return checks.check(built, perturbed)


def _expect(errors, *words):
    assert errors, "the perturbed output passed every check"
    assert any(all(w in e for w in words) for e in errors), errors


@pytest.mark.parametrize("run", ["sweeps", "stack", "curves"])
def test_real_outputs_pass(run, request):
    built, outputs = request.getfixturevalue(run)
    assert checks.check(built, outputs) == []


def test_inputs_depend_on_seed_not_size(tmp_path):
    a = inputs.build("hom_curves", 1, tmp_path / "a")
    b = inputs.build("hom_curves", 2, tmp_path / "b")
    again = inputs.build("hom_curves", 1, tmp_path / "c")
    assert a.items_per_pass == b.items_per_pass == 505
    assert a.ops[0].params != b.ops[0].params
    assert a.ops[0].params == again.ops[0].params


# --- dispersive_sweeps --------------------------------------------------------------

def test_chi_scaled_by_one_percent_fails(sweeps):
    def change(out):
        out["chi_map"]["points"][60]["chi_MHz"] *= 1.01
    _expect(_errors_after(sweeps, change), "chi_map point 60", "second-order")


def test_chi_map_average_off_reference_fails(sweeps):
    def change(out):
        payload = out["chi_map"]
        for point in payload["points"]:
            point["chi_MHz"] *= 1.2
        payload["average_chi_MHz"] *= 1.2
    _expect(_errors_after(sweeps, change), "average chi")


def test_flag_count_off_by_one_fails(sweeps):
    def change(out):
        out["zz_sweep"]["n_flagged_points"] += 1
    _expect(_errors_after(sweeps, change), "zz_sweep", "n_flagged_points")


def test_zeta_without_sign_change_fails(sweeps):
    def change(out):
        for point in out["zz_sweep"]["points"]:
            point["zeta_MHz"] = abs(point["zeta_MHz"])
    _expect(_errors_after(sweeps, change), "zz_sweep", "sign")


def test_missing_sweep_point_fails(sweeps):
    def change(out):
        out["zz_external"]["points"].pop()
    _expect(_errors_after(sweeps, change), "zz_external", "points")


def test_external_zeta_shift_fails(sweeps):
    def change(out):
        points = out["zz_external"]["points"]
        scale = max(abs(p["zeta_MHz"]) for p in points)
        points[20]["zeta_MHz"] += 1e-5 * scale
    _expect(_errors_after(sweeps, change), "zz_external point 20", "zeta")


def test_external_omega01_shift_fails(sweeps):
    def change(out):
        out["zz_external"]["points"][7]["omega01_GHz"] *= 1.0 + 1e-5
    _expect(_errors_after(sweeps, change), "zz_external point 7", "omega01")


# --- reference_stack -----------------------------------------------------------------

def test_reference_omega01_off_fails(stack):
    def change(out):
        out["table1_M6"]["points"][0]["omega01_GHz"] *= 1.02
    _expect(_errors_after(stack, change), "table1_M6 omega01")


def test_reference_alpha_off_fails(stack):
    def change(out):
        out["table1_M10"]["points"][0]["alpha_MHz"] *= 1.03
    _expect(_errors_after(stack, change), "table1_M10 alpha")


def test_unconverged_truncation_fails(stack):
    def change(out):
        out["table1_M12"]["points"][0]["alpha_MHz"] *= 1.002
    _expect(_errors_after(stack, change), "alpha_MHz moves")


def test_reference_chi_scaled_fails(stack):
    def change(out):
        out["table1_M12"]["points"][0]["chi_MHz"] *= 1.01
    _expect(_errors_after(stack, change), "table1_M12", "second-order")


# --- hom_curves ----------------------------------------------------------------------

def test_hom_tail_moved_fails(curves):
    def change(out):
        out["hom_balanced"]["g2"][0] += 0.02
    errors = _errors_after(curves, change)
    _expect(errors, "hom_balanced", "tail")
    _expect(errors, "hom_balanced", "symmetric")


def test_hom_asymmetry_fails(curves):
    def change(out):
        out["hom_bins_16384"]["g2"][30] += 1e-6
    _expect(_errors_after(curves, change), "hom_bins_16384", "symmetric")


def test_hom_dip_off_closed_form_fails(curves):
    def change(out):
        out["hom_mismatched"]["g2"][50] += 0.005
    _expect(_errors_after(curves, change), "hom_mismatched", "closed form")


def test_hom_value_above_one_fails(curves):
    def change(out):
        g2 = out["hom_scan"]["g2"]
        g2[:] = np.where(np.arange(len(g2)) % 50 == 0, 1.01, g2)
    _expect(_errors_after(curves, change), "hom_scan", "outside")


def test_time_local_dip_raised_fails(curves):
    def change(out):
        out["hom_time_local"]["g2"][50] = 2e-3
    _expect(_errors_after(curves, change), "hom_time_local", "dip")


def test_scan_center_two_steps_off_fails(curves):
    def change(out):
        side = out["hom_scan"]["sidecar"]
        step_ghz = 2.0 * side["bandwidth_fwhm_MHz"] * 1e-3 / (checks.HOM_N_SCAN - 1)
        side["center_GHz"] += 2.0 * step_ghz
    _expect(_errors_after(curves, change), "hom_scan", "scan step")


# --- tracer ------------------------------------------------------------------------------

def test_tracer_counts_repeat_and_uninstall_restores(tmp_path):
    built = inputs.build("reference_stack", 1, tmp_path)
    argv = list(built.ops[0].argv) + ["--override", "dispersive.M=3"]
    original = cli.assemble_hamiltonian
    tracer = Tracer()
    tracer.install()
    snapshots = []
    try:
        assert cli.assemble_hamiltonian is not original
        for _ in range(2):
            tracer.reset()
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
            snapshots.append(tracer.snapshot())
    finally:
        tracer.uninstall()
    assert cli.assemble_hamiltonian is original
    first, second = snapshots
    assert first["calls"] == second["calls"]
    assert first["calls"]["system.assemble_hamiltonian"] == 1
    assert first["calls"]["config.load_config"] == 1
    assert first["max_dim"] == 27 and first["hamiltonian_bytes"] == 27 * 27 * 8
    assert first["labels_assigned"] == 27
    assert first["labels_read"] == 5  # ground, q=1, c=1, q=1 c=1, q=2
    assert first["calls"]["cavity.eval_fields"] > 0


def test_quiet_median_drops_passes_with_host_steal():
    ncpu = os.cpu_count() or 1
    times = [1.0, 1.1, 1.2, 3.0]
    assert quiet_median(times, [0.0, 0.0, 0.0, 0.5 * ncpu * 3.0]) == 1.1
    assert quiet_median(times, [None, 0.0, 0.0, 0.0]) == 1.15
    # a run without any quiet pass keeps its quieter half
    steals = [0.3 * ncpu * t for t in times[:3]] + [0.9 * ncpu * 3.0]
    assert quiet_median(times, steals) == 1.1
