import contextlib
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import event, given, reject, settings
from hypothesis import strategies as st
from scipy.constants import c as C0, h as PLANCK

import cavqed as cq
from cavqed.errors import (ConvergenceError, OutOfValidityError,
                           TransmonRegimeWarning)
from cavqed.transmon import E_CHARGE, HBAR, MIN_RATIO_FOR_TRANSMON_REGIME

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
        # NaN passes a `<= 0` test; every non-finite input is refused by name
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="E_C must be positive and finite"):
                cq.TransmonParams(E_C=bad, E_J=1e-22)
            with pytest.raises(ValueError, match="E_J must be positive and finite"):
                cq.TransmonParams(E_C=1e-24, E_J=bad)
            with pytest.raises(ValueError, match="c_total must be positive and finite"):
                cq.TransmonParams.from_circuit(bad, 9e-9)
            with pytest.raises(ValueError, match="l_j must be positive and finite"):
                cq.TransmonParams.from_circuit(1e-13, bad)

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


class TestMathieuOracle:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(ratio=st.floats(5.0, 300.0), n_levels=st.integers(2, 8))
    def test_levels_match_mathieu(self, ratio, n_levels):
        """The charge-basis levels are the Mathieu characteristic values to
        round-off, across the charge and transmon regimes."""
        e_c = PLANCK * 300e6
        regime = (pytest.warns(TransmonRegimeWarning)
                  if ratio < MIN_RATIO_FOR_TRANSMON_REGIME else contextlib.nullcontext())
        with regime:
            params = cq.TransmonParams(E_C=e_c, E_J=ratio * e_c)
        try:
            expected = oracles.transmon_levels_mathieu(params, n_levels)
        except oracles.MathieuValueError:
            event("scipy Mathieu value of the wrong rank: example rejected")
            reject()
        levels = cq.transmon_spectrum(params, n_levels=n_levels).levels
        assert levels[0] == expected[0] == 0.0
        npt.assert_allclose(levels[1:], expected[1:], rtol=1e-12, atol=0)

    def test_wrong_rank_rejected(self, monkeypatch):
        # scipy's own failure mode: the neighbouring characteristic value
        params = cq.TransmonParams(E_C=PLANCK * 300e6, E_J=PLANCK * 30e9)
        oracles.transmon_levels_mathieu(params, 8)
        neighbour = oracles.mathieu_a
        monkeypatch.setattr(oracles, "mathieu_a", lambda m, q: neighbour(m + 2, q))
        with pytest.raises(oracles.MathieuValueError, match="level 0 "):
            oracles.transmon_levels_mathieu(params, 8)


def _params(ratio):
    """Transmon at E_C/h = 300 MHz and the given E_J/E_C, regime warning silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TransmonRegimeWarning)
        return cq.TransmonParams(E_C=PLANCK * 300e6, E_J=ratio * PLANCK * 300e6)


class TestParitySplitSolve:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(ratio=st.floats(5.0, 300.0), n_levels=st.integers(2, 8))
    def test_matches_dense_oracle(self, ratio, n_levels):
        """Levels and |elements| are those of the dense, unsplit charge-basis
        solve at the same cutoff and at cutoff 60.  The split sets the
        element of two levels of the same parity to exactly 0, so nonzero
        elements throughout mean the merged levels alternate even/odd."""
        params = _params(ratio)
        spectrum = cq.transmon_spectrum(params, n_levels=n_levels)
        levels = np.array(spectrum.levels) * HBAR
        elements = np.abs(spectrum.charge_elements)
        assert np.all(elements > 0.0)
        for cutoff in (cq.default_charge_cutoff(params, n_levels), 60):
            dense_levels, dense_elements = oracles.charge_basis_solve(
                params, n_levels, cutoff)
            npt.assert_allclose(levels[1:], dense_levels[1:], rtol=1e-12, atol=0)
            npt.assert_allclose(elements, dense_elements, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("ratio", [1.0, 5.0, 20.0, 50.0, 200.0, 2e4])
    @pytest.mark.parametrize("n_charge", [2, 5, 12, 25, 60, 150])
    def test_charge_sum_rule(self, ratio, n_charge):
        """Sum over every eigenpair j of the truncated charge basis of
        (E_j - E_0)|<j|n|0>|^2 equals (E_J/2)<0|cos(phi)|0>, i.e. half the
        ground-state value of [[n, H], n] = E_J cos(phi).  The commutator
        identity holds in the truncated basis as well, so the rule checks the
        oracle's vectors and charge elements, against which the split solve is
        held, at any cutoff, converged or not."""
        params = _params(ratio)
        n, energies, vectors = oracles._dense_charge_eigh(params, n_charge)
        assert vectors.shape == (2 * n_charge + 1,) * 2
        from_ground = vectors.T @ (n * vectors[:, 0])  # <j|n|0> for every j
        weighted = np.sum((energies - energies[0]) * from_ground**2)
        cos_phi = vectors[:-1, 0] @ vectors[1:, 0]  # cos(phi) shifts n by +-1, 1/2 each
        expected = params.E_J / 2.0 * cos_phi
        assert abs(weighted - expected) <= 1e-12 * abs(expected)

    def test_stack_equals_points_alone(self):
        """A 51-point call over several cutoffs, in shuffled order, gives each
        point bitwise the spectrum of its own one-point call."""
        ratios = np.random.default_rng(21).permutation(np.geomspace(20.0, 300.0, 51))
        params = [_params(ratio) for ratio in ratios]
        assert len({cq.default_charge_cutoff(p, 5) for p in params}) > 1
        levels, elements = cq.transmon_spectra(params, n_levels=5)
        assert levels.shape == (51, 5) and elements.shape == (51, 4)
        for p, point_levels, point_elements in zip(params, levels, elements):
            alone = cq.transmon_spectra([p], n_levels=5)
            assert point_levels.tobytes() == alone[0].tobytes()
            assert point_elements.tobytes() == alone[1].tobytes()
            spectrum = cq.transmon_spectrum(p, n_levels=5)
            assert spectrum.levels == tuple(point_levels.tolist())
            assert spectrum.charge_elements == tuple(-1j * el for el in point_elements.tolist())

    def test_residual_check_never_looser(self):
        """Over E_J/E_C in [5, 300], 2..8 levels and every cutoff from the
        smallest allowed to the default, the check raises exactly where the
        same bound, evaluated from the dense, unsplit eigenpairs (residual,
        parity and gap per eigenvector), rejects the cutoff.  Wherever it
        accepts a cutoff, so does the dense N vs N + 4 check of the oracle
        (so it raises wherever that check raises), and neither raises at
        the default."""
        for ratio in np.geomspace(5.0, 300.0, 20):
            params = _params(ratio)
            for n_levels in range(2, 9):
                default = cq.default_charge_cutoff(params, n_levels)
                for cutoff in range(n_levels // 2, default + 1):
                    case = (ratio, n_levels, cutoff)
                    try:
                        cq.transmon_spectrum(params, n_levels, cutoff)
                    except ConvergenceError:
                        assert cutoff < default, case
                        assert oracles.residual_bound_exceeded(params, n_levels, cutoff), case
                        continue
                    assert not oracles.residual_bound_exceeded(params, n_levels, cutoff), case
                    oracles.transmon_spectrum_dense(params, n_levels, cutoff)
