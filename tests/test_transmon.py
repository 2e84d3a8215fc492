import math

import numpy.testing as npt
import pytest
from scipy.constants import c as C0, h as PLANCK

import cavqed as cq
from cavqed.errors import (ConvergenceError, OutOfValidityError,
                           TransmonRegimeWarning)
from cavqed.transmon import E_CHARGE, HBAR

import oracles
from conftest import C_LOAD, L_J

# Frozen values for the 1 mm dipole transmon (C_L = 50.34 fF, L_J = 9.4 nH,
# antenna capacitance evaluated at the perturbed fundamental).
C_ANT_F = 9.1284879284938e-15
E_C_MHZ = 325.72258013269663
E_J_GHZ = 17.389522617709485
F01_GHZ = 6.3875825590928095
ALPHA_MHZ = -372.1512140598127
N01 = 1.1068526987291054
N12 = 1.51837435440328
N01_ASYMPTOTIC = 1.13650788662727


class TestDipoleSpec:
    def test_orientation_normalized(self):
        spec = cq.DipoleSpec(length=1e-3, radius=0.04e-3, gap=0.1e-3,
                             center=(0.0, 0.0, 0.0), orientation=(0.0, 2.0, 0.0))
        npt.assert_allclose(spec.orientation, (0.0, 1.0, 0.0), rtol=0)

    def test_validation(self):
        good = dict(length=1e-3, radius=0.04e-3, gap=0.1e-3,
                    center=(0.0, 0.0, 0.0), orientation=(0.0, 1.0, 0.0))
        cq.DipoleSpec(**good)
        for bad in (dict(length=0.0), dict(radius=0.0), dict(radius=0.6e-3),
                    dict(gap=-1e-6), dict(gap=1.1e-3),
                    dict(orientation=(0.0, 0.0, 0.0)), dict(center=(0.0, 0.0)),
                    dict(orientation=(1.0, 0.0))):
            with pytest.raises(ValueError):
                cq.DipoleSpec(**{**good, **bad})


class TestDipoleCapacitance:
    def test_reference_value(self, center_dipole):
        omega = 2 * math.pi * 7.552418853250746e9
        c_ant = cq.dipole_capacitance(center_dipole, omega)
        npt.assert_allclose(c_ant, C_ANT_F, rtol=1e-9)

    def test_closed_form(self, center_dipole):
        omega = 2 * math.pi * 6e9
        k = omega / C0
        length = center_dipole.length
        expected = math.tan(k * length / 2) / (
            120.0 * omega * (math.log(length / (2 * center_dipole.radius)) - 1.0))
        npt.assert_allclose(cq.dipole_capacitance(center_dipole, omega),
                            expected, rtol=1e-12)

    def test_monotonic_below_resonance(self, center_dipole):
        omegas = [2 * math.pi * f for f in (2e9, 5e9, 8e9, 20e9)]
        values = [cq.dipole_capacitance(center_dipole, w) for w in omegas]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_out_of_validity_past_resonance(self, center_dipole):
        omega = math.pi * C0 / center_dipole.length * 1.01
        with pytest.raises(OutOfValidityError):
            cq.dipole_capacitance(center_dipole, omega)

    def test_out_of_validity_thick_wire(self):
        thick = cq.DipoleSpec(length=1e-3, radius=0.2e-3, gap=0.1e-3,
                              center=(0.0, 0.0, 0.0), orientation=(0.0, 1.0, 0.0))
        with pytest.raises(OutOfValidityError):
            cq.dipole_capacitance(thick, 2 * math.pi * 6e9)

    def test_invalid_frequency(self, center_dipole):
        with pytest.raises(ValueError):
            cq.dipole_capacitance(center_dipole, 0.0)


class TestTransmonParams:
    def test_from_circuit(self, reference_system):
        params = reference_system["params"]
        c_total = reference_system["c_ant"] + C_LOAD
        npt.assert_allclose(params.E_C, E_CHARGE**2 / (2 * c_total), rtol=1e-15)
        npt.assert_allclose(params.E_J, (HBAR / (2 * E_CHARGE))**2 / L_J,
                            rtol=1e-15)
        npt.assert_allclose(params.E_C / PLANCK / 1e6, E_C_MHZ, rtol=1e-12)
        npt.assert_allclose(params.E_J / PLANCK / 1e9, E_J_GHZ, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            cq.TransmonParams(E_C=0.0, E_J=1e-23)
        with pytest.raises(ValueError):
            cq.TransmonParams(E_C=1e-24, E_J=-1e-23)

    def test_regime_warning(self):
        with pytest.warns(TransmonRegimeWarning):
            cq.TransmonParams(E_C=1e-24, E_J=1e-23)


class TestTransmonSpectrum:
    def test_reference_frequencies(self, reference_system):
        spectrum = reference_system["spectrum"]
        npt.assert_allclose(spectrum.omega01 / (2e9 * math.pi), F01_GHZ,
                            rtol=1e-12)
        npt.assert_allclose(spectrum.anharmonicity / (2e6 * math.pi), ALPHA_MHZ,
                            rtol=1e-12)
        assert spectrum.levels[0] == 0.0
        assert len(spectrum.levels) == 6
        assert len(spectrum.charge_elements) == 5

    def test_reference_matrix_elements(self, reference_system):
        elements = reference_system["spectrum"].charge_elements
        npt.assert_allclose(abs(elements[0]), N01, rtol=1e-12)
        npt.assert_allclose(abs(elements[1]), N12, rtol=1e-12)

    def test_element_phase_convention(self, reference_system):
        for element in reference_system["spectrum"].charge_elements:
            assert element.real == 0.0
            assert element.imag < 0.0

    def test_anharmonicity_needs_three_levels(self, reference_system):
        params = reference_system["params"]
        two = cq.transmon_spectrum(params, n_levels=2)
        with pytest.raises(ValueError):
            two.anharmonicity

    def test_spectrum_validation(self, reference_system):
        params = reference_system["params"]
        with pytest.raises(ValueError):
            cq.TransmonSpectrum(params=params, levels=(0.0,), charge_elements=())
        with pytest.raises(ValueError):
            cq.TransmonSpectrum(params=params, levels=(0.0, 1.0),
                                charge_elements=(-1j, -2j))

    def test_argument_validation(self, reference_system):
        params = reference_system["params"]
        with pytest.raises(ValueError):
            cq.transmon_spectrum(params, n_levels=1)
        with pytest.raises(ValueError):
            cq.transmon_spectrum(params, n_levels=12, n_charge=5)

    def test_insufficient_cutoff_detected(self, reference_system):
        with pytest.raises(ConvergenceError):
            cq.transmon_spectrum(reference_system["params"], n_levels=4,
                                 n_charge=6)

    def test_default_cutoff_formula(self, reference_system):
        params = reference_system["params"]
        expected = 4 * math.ceil((params.E_J / (8 * params.E_C))**0.25) + 4 + 8
        assert cq.default_charge_cutoff(params, 4) == expected


class TestAsymptotics:
    def test_matrix_element(self, reference_system):
        params = reference_system["params"]
        approx = oracles.charge_matrix_element_asymptotic(params, 0)
        npt.assert_allclose(abs(approx), N01_ASYMPTOTIC, rtol=1e-12)
        assert approx.real == 0.0 and approx.imag < 0.0
        exact = abs(reference_system["spectrum"].charge_elements[0])
        assert abs(abs(approx) - exact) / exact < 0.05
        ratio = abs(oracles.charge_matrix_element_asymptotic(params, 1) / approx)
        npt.assert_allclose(ratio, math.sqrt(2.0), rtol=1e-12)

    def test_levels(self, reference_system):
        params = reference_system["params"]
        spectrum = reference_system["spectrum"]
        assert oracles.level_asymptotic(params, 0) == 0.0
        for j in (1, 2):
            approx = oracles.level_asymptotic(params, j)
            assert abs(approx - spectrum.levels[j]) / spectrum.levels[j] < 0.01

    def test_invalid_level(self, reference_system):
        with pytest.raises(ValueError):
            oracles.level_asymptotic(reference_system["params"], -1)
        with pytest.raises(ValueError):
            oracles.charge_matrix_element_asymptotic(reference_system["params"], -1)
