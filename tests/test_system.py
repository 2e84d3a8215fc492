import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import cavqed as cq
from cavqed.errors import DispersiveInvalidError, FieldVariationWarning

import oracles
from conftest import C_LOAD

TWO_PI = 2 * math.pi
# Frozen values for the center transmon coupled to the two perturbed modes.
V_RX_CENTER = 0.32808398950131235
V_RX_LINE_INTEGRAL = 0.3280921101911344
DIVIDER = 0.1535012617013248
G01_MHZ = 14.330220106187259
DRESSED_F01_GHZ = 6.387406290428549
DRESSED_ALPHA_MHZ = -372.05008835782337
CHI_MHZ = -0.10111564146432062


@pytest.fixture(scope="module")
def dressed_reference(reference_system, geom):
    qubit = reference_system["qubit"]
    modes = reference_system["modes"]
    couplings = cq.coupling_matrix([qubit], modes, geom, n_levels=6)
    basis = cq.SystemBasis(n_qubits=1, n_cavities=2, n_levels=6)
    h = cq.assemble_hamiltonian([qubit], [m.omega for m in modes],
                                couplings, basis)
    dressed = cq.dressed_spectrum(h, basis)
    return basis, dressed, couplings


class TestReceivingVoltage:
    def test_reference_value(self, center_dipole, te101, geom):
        v = cq.receiving_voltage(center_dipole, te101, geom)
        npt.assert_allclose(v, V_RX_CENTER, rtol=1e-12)

    def test_matches_line_integral(self, center_dipole, te101, geom):
        v = cq.receiving_voltage(center_dipole, te101, geom)
        full = cq.receiving_voltage_line_integral(center_dipole, te101, geom)
        npt.assert_allclose(full, V_RX_LINE_INTEGRAL, rtol=1e-12)
        assert abs(v - full) / abs(full) < 1e-4

    def test_no_warning_for_small_dipole(self, center_dipole, te101, geom):
        with warnings.catch_warnings():
            warnings.simplefilter("error", FieldVariationWarning)
            cq.receiving_voltage(center_dipole, te101, geom)

    def test_warns_on_field_variation(self, geom, te102):
        long_tilted = cq.DipoleSpec(length=4e-3, radius=0.04e-3, gap=0.102e-3,
                                    center=(geom.a / 2, geom.b / 2, 15e-3),
                                    orientation=(0.0, 1.0, 1.0))
        with pytest.warns(FieldVariationWarning):
            v = cq.receiving_voltage(long_tilted, te102, geom)
        npt.assert_allclose(v, 0.6561679790026247, rtol=1e-12)


class TestCouplingRates:
    def test_divider(self, reference_system):
        qubit = reference_system["qubit"]
        expected = reference_system["c_ant"] / (reference_system["c_ant"] + C_LOAD)
        npt.assert_allclose(qubit.divider, expected, rtol=1e-15)
        npt.assert_allclose(qubit.divider, DIVIDER, rtol=1e-12)

    def test_terminal_voltage(self):
        npt.assert_allclose(cq.terminal_voltage(2.0, 1e-15, 3e-15), 0.5, rtol=1e-15)

    def test_reference_coupling(self, reference_system, geom):
        g = cq.qubit_cavity_coupling(reference_system["qubit"],
                                     reference_system["modes"][0], geom, j=0)
        npt.assert_allclose(g / (TWO_PI * 1e6), G01_MHZ, rtol=1e-10)

    def test_from_field_equivalence(self, reference_system, geom):
        qubit = reference_system["qubit"]
        mode = reference_system["modes"][0]
        e_field, _ = cq.eval_fields(mode, geom, qubit.dipole.center)
        g_field = cq.transition_couplings(qubit, e_field, mode.omega)[0]
        g_direct = cq.qubit_cavity_coupling(qubit, mode, geom, j=0)
        npt.assert_allclose(g_field, g_direct, rtol=1e-12)

    def test_transition_index_validated(self, reference_system, geom):
        with pytest.raises(ValueError):
            cq.qubit_cavity_coupling(reference_system["qubit"],
                                     reference_system["modes"][0], geom, j=5)

    def test_coupling_matrix_shape(self, reference_system, geom):
        couplings = cq.coupling_matrix([reference_system["qubit"]],
                                       reference_system["modes"], geom,
                                       n_levels=4)
        assert couplings.g.shape == (2, 1, 3)
        g_direct = cq.qubit_cavity_coupling(reference_system["qubit"],
                                            reference_system["modes"][1], geom, 2)
        npt.assert_allclose(couplings.g[1, 0, 2], g_direct, rtol=0)

    def test_coupling_matrix_needs_enough_elements(self, reference_system, geom):
        with pytest.raises(ValueError):
            cq.coupling_matrix([reference_system["qubit"]],
                               reference_system["modes"], geom, n_levels=7)

    def test_coupling_matrix_validation(self):
        with pytest.raises(ValueError):
            cq.CouplingMatrix(g=np.zeros((2, 2)))


class TestPlacement:
    def test_center_ok(self, reference_system, geom):
        cq.validate_qubit_placement(reference_system["qubit"], geom)

    def test_tip_outside_rejected(self, reference_system, geom):
        dipole = cq.DipoleSpec(length=1e-3, radius=0.04e-3, gap=0.102e-3,
                               center=(geom.a / 2, geom.b - 0.4e-3, geom.d / 2),
                               orientation=(0.0, 1.0, 0.0))
        qubit = cq.QubitInstance(dipole=dipole,
                                 spectrum=reference_system["spectrum"],
                                 c_ant=reference_system["c_ant"], c_load=C_LOAD)
        with pytest.raises(ValueError):
            cq.validate_qubit_placement(qubit, geom)


class TestSystemBasis:
    def test_dimensions(self):
        basis = cq.SystemBasis(n_qubits=2, n_cavities=1, n_levels=3)
        assert basis.n_sites == 3
        assert basis.dim == 27

    def test_label_order_and_round_trip(self):
        basis = cq.SystemBasis(n_qubits=1, n_cavities=1, n_levels=2)
        labels = [tuple(lbl) for lbl in basis.labels()]
        assert labels == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for i, label in enumerate(labels):
            assert basis.index_of(label) == i

    def test_index_validation(self):
        basis = cq.SystemBasis(n_qubits=1, n_cavities=1, n_levels=2)
        with pytest.raises(ValueError):
            basis.index_of((0, 0, 0))
        with pytest.raises(ValueError):
            basis.index_of((0, 2))

    def test_basis_validation(self):
        with pytest.raises(ValueError):
            cq.SystemBasis(n_qubits=0, n_cavities=0, n_levels=3)
        with pytest.raises(ValueError):
            cq.SystemBasis(n_qubits=1, n_cavities=1, n_levels=1)


class TestAssembleHamiltonian:
    def test_symmetric_real(self, reference_system, dressed_reference, geom):
        basis, _, couplings = dressed_reference
        modes = reference_system["modes"]
        h = cq.assemble_hamiltonian([reference_system["qubit"]],
                                    [m.omega for m in modes], couplings, basis)
        assert h.dtype == np.float64
        npt.assert_array_equal(h, h.T)

    def test_diagonal_is_bare_energy(self, reference_system, dressed_reference):
        basis, _, couplings = dressed_reference
        spectrum = reference_system["spectrum"]
        omegas = [m.omega for m in reference_system["modes"]]
        h = cq.assemble_hamiltonian([reference_system["qubit"]], omegas,
                                    couplings, basis)
        for label in ((0, 0, 0), (1, 0, 0), (2, 1, 0), (3, 2, 5)):
            expected = (spectrum.levels[label[0]] + label[1] * omegas[0]
                        + label[2] * omegas[1])
            npt.assert_allclose(h[basis.index_of(label), basis.index_of(label)],
                                expected, rtol=1e-12)

    def test_coupling_entries(self, reference_system, dressed_reference):
        basis, _, couplings = dressed_reference
        omegas = [m.omega for m in reference_system["modes"]]
        h = cq.assemble_hamiltonian([reference_system["qubit"]], omegas,
                                    couplings, basis)
        i = basis.index_of((1, 0, 0))
        npt.assert_allclose(h[i, basis.index_of((0, 1, 0))],
                            couplings.g[0, 0, 0], rtol=0)
        npt.assert_allclose(h[i, basis.index_of((0, 0, 1))],
                            couplings.g[1, 0, 0], rtol=0)
        # Photon-number enhancement: |1, 1, 0> <-> |0, 2, 0> carries sqrt(2).
        npt.assert_allclose(h[basis.index_of((1, 1, 0)), basis.index_of((0, 2, 0))],
                            couplings.g[0, 0, 0] * math.sqrt(2.0), rtol=1e-15)
        # Excitation-number conservation: no matrix element between sectors.
        assert h[basis.index_of((1, 0, 0)), basis.index_of((0, 0, 0))] == 0.0

    def test_accepts_bare_spectra(self, reference_system, dressed_reference):
        basis, _, couplings = dressed_reference
        omegas = [m.omega for m in reference_system["modes"]]
        h_qubit = cq.assemble_hamiltonian([reference_system["qubit"]], omegas,
                                          couplings, basis)
        h_spec = cq.assemble_hamiltonian([reference_system["spectrum"]], omegas,
                                         couplings, basis)
        npt.assert_array_equal(h_qubit, h_spec)

    def test_shape_validation(self, reference_system, dressed_reference):
        basis, _, couplings = dressed_reference
        omegas = [m.omega for m in reference_system["modes"]]
        qubit = reference_system["qubit"]
        with pytest.raises(ValueError):
            cq.assemble_hamiltonian([qubit, qubit], omegas, couplings, basis)
        with pytest.raises(ValueError):
            cq.assemble_hamiltonian([qubit], omegas[:1], couplings, basis)
        bad = cq.CouplingMatrix(g=np.zeros((1, 1, 5)))
        with pytest.raises(ValueError):
            cq.assemble_hamiltonian([qubit], omegas, bad, basis)


def _jc_system(omega01, omega_cavity, g):
    params = cq.TransmonParams(E_C=1e-24, E_J=1e-22)
    spec = cq.TransmonSpectrum(params=params, levels=(0.0, omega01),
                               charge_elements=(-1j,))
    basis = cq.SystemBasis(n_qubits=1, n_cavities=1, n_levels=2)
    couplings = cq.CouplingMatrix(g=np.array([[[g]]]))
    h = cq.assemble_hamiltonian([spec], [omega_cavity], couplings, basis)
    return basis, cq.dressed_spectrum(h, basis)


class TestDressedSpectrum:
    def test_jaynes_cummings_doublet(self):
        omega01 = TWO_PI * 6.0e9
        omega_cavity = TWO_PI * 6.2e9
        g = TWO_PI * 50e6
        basis, dressed = _jc_system(omega01, omega_cavity, g)
        lower, upper = oracles.jaynes_cummings_doublet(omega01, omega_cavity, g)
        e0 = dressed.energy((0, 0))
        npt.assert_allclose(dressed.energy((1, 0)) - e0, lower, rtol=1e-10)
        npt.assert_allclose(dressed.energy((0, 1)) - e0, upper, rtol=1e-10)
        npt.assert_allclose(dressed.energy((1, 1)) - e0, omega01 + omega_cavity,
                            rtol=1e-12)
        assert not dressed.is_flagged((1, 0))
        assert not dressed.is_flagged((0, 1))
        assert dressed.flagged() == ()

    def test_resonant_states_flagged(self):
        omega01 = TWO_PI * 6.0e9
        basis, dressed = _jc_system(omega01, omega01, TWO_PI * 50e6)
        assert dressed.is_flagged((1, 0))
        assert dressed.is_flagged((0, 1))
        npt.assert_allclose(dressed.overlap((1, 0)), 0.5, rtol=1e-9)
        assert set(dressed.flagged()) == {(1, 0), (0, 1)}

    def test_assignment_is_permutation(self, dressed_reference):
        basis, dressed, _ = dressed_reference
        eigens = sorted(dressed.eigen_index.values())
        assert eigens == list(range(basis.dim))

    def test_reference_overlaps_clean(self, dressed_reference):
        _, dressed, _ = dressed_reference
        assert dressed.flagged() == ()
        assert dressed.overlap((0, 0, 0)) > 0.99

    def test_deterministic(self, reference_system, dressed_reference):
        basis, dressed, couplings = dressed_reference
        omegas = [m.omega for m in reference_system["modes"]]
        h = cq.assemble_hamiltonian([reference_system["qubit"]], omegas,
                                    couplings, basis)
        again = cq.dressed_spectrum(h, basis)
        assert again.eigen_index == dressed.eigen_index
        npt.assert_array_equal(again.energies, dressed.energies)

    def test_dimension_validation(self):
        basis = cq.SystemBasis(n_qubits=1, n_cavities=1, n_levels=3)
        with pytest.raises(ValueError):
            cq.dressed_spectrum(np.zeros((4, 4)), basis)

    def test_label_validation(self, dressed_reference):
        _, dressed, _ = dressed_reference
        with pytest.raises(ValueError):
            dressed.energy((0, 0))


class TestDispersiveParams:
    def test_reference_values(self, dressed_reference):
        _, dressed, _ = dressed_reference
        result = cq.dispersive_params(dressed, qubit=0, cavity=0)
        npt.assert_allclose(result.omega01 / (TWO_PI * 1e9), DRESSED_F01_GHZ,
                            rtol=1e-10)
        npt.assert_allclose(result.alpha / (TWO_PI * 1e6), DRESSED_ALPHA_MHZ,
                            rtol=1e-10)
        npt.assert_allclose(result.chi / (TWO_PI * 1e6), CHI_MHZ, rtol=1e-9)
        assert result.zeta is None
        assert result.flags == ()

    def test_cavity_pull_is_small_and_negative(self, dressed_reference):
        _, dressed, _ = dressed_reference
        result = cq.dispersive_params(dressed)
        assert result.chi < 0.0
        assert abs(result.chi) < 1e-3 * abs(result.omega01)

    def test_index_validation(self, dressed_reference):
        _, dressed, _ = dressed_reference
        with pytest.raises(ValueError):
            cq.dispersive_params(dressed, qubit=1)
        with pytest.raises(ValueError):
            cq.dispersive_params(dressed, cavity=2)
        with pytest.raises(ValueError):
            cq.dispersive_params(dressed, qubit_pair=(0, 0))

    def test_strict_rejects_flagged(self):
        omega01 = TWO_PI * 6.0e9
        _, dressed = _jc_system(omega01, omega01, TWO_PI * 50e6)
        with pytest.raises(DispersiveInvalidError, match="overlap"):
            cq.dispersive_params(dressed)
        result = cq.dispersive_params(dressed, strict=False)
        assert (1, 0) in result.flags and (0, 1) in result.flags
        assert math.isfinite(result.chi)

    def test_alpha_requires_three_levels(self):
        _, dressed = _jc_system(TWO_PI * 6.0e9, TWO_PI * 6.2e9, TWO_PI * 50e6)
        result = cq.dispersive_params(dressed)
        assert result.alpha is None

    def test_zeta_symmetric_pair(self, reference_system, geom):
        qubit_a = reference_system["qubit"]
        dipole_b = cq.DipoleSpec(length=1e-3, radius=0.04e-3, gap=0.102e-3,
                                 center=(geom.a / 2, geom.b / 2, 15e-3),
                                 orientation=(0.0, 1.0, 0.0))
        qubit_b = cq.QubitInstance(dipole=dipole_b,
                                   spectrum=reference_system["spectrum"],
                                   c_ant=reference_system["c_ant"],
                                   c_load=C_LOAD)
        mode = reference_system["modes"][0]
        couplings = cq.coupling_matrix([qubit_a, qubit_b], [mode], geom,
                                       n_levels=3)
        basis = cq.SystemBasis(n_qubits=2, n_cavities=1, n_levels=3)
        h = cq.assemble_hamiltonian([qubit_a, qubit_b], [mode.omega],
                                    couplings, basis)
        dressed = cq.dressed_spectrum(h, basis)
        fwd = cq.dispersive_params(dressed, qubit_pair=(0, 1))
        rev = cq.dispersive_params(dressed, qubit_pair=(1, 0))
        assert fwd.zeta is not None
        assert fwd.zeta == rev.zeta


class TestTwoLevelEstimate:
    def test_closed_form(self):
        npt.assert_allclose(cq.two_level_chi_estimate(2.0, 3.0, -1.0),
                            4.0 * -1.0 / (3.0 * 2.0), rtol=1e-15)

    def test_degenerate_rejected(self):
        with pytest.raises(DispersiveInvalidError):
            cq.two_level_chi_estimate(1.0, 0.0, -1.0)
        with pytest.raises(DispersiveInvalidError):
            cq.two_level_chi_estimate(1.0, 1.0, -1.0)

    def test_scale_against_full_model(self, reference_system, geom,
                                      dressed_reference):
        _, dressed, _ = dressed_reference
        full = cq.dispersive_params(dressed).chi
        spectrum = reference_system["spectrum"]
        mode = reference_system["modes"][0]
        g0 = cq.qubit_cavity_coupling(reference_system["qubit"], mode, geom, 0)
        estimate = cq.two_level_chi_estimate(
            g0, spectrum.omega01 - mode.omega, spectrum.anharmonicity)
        ratio = estimate / full
        assert 0.3 < ratio < 0.7
