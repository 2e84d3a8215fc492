import dataclasses
import itertools
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, event, given, note, settings
from hypothesis import strategies as st

import cavqed as cq
from cavqed.errors import FieldVariationWarning
from cavqed.system import (FLAG_BOUNDARY_SLACK, FLAG_THRESHOLD, MAX_SECTOR_STATES,
                           _greedy_assign, _n2_sector_size, _sector_layout)

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
    dressed = cq.sector_spectrum([qubit.spectrum], [m.omega for m in modes],
                                 couplings, basis)
    return basis, dressed, couplings


@pytest.fixture(scope="module")
def dense_hamiltonian(reference_system, dressed_reference):
    """The dense oracle's matrix of the reference system (216 states)."""
    basis, _, couplings = dressed_reference
    return oracles.assemble_hamiltonian([reference_system["spectrum"]],
                                        [m.omega for m in reference_system["modes"]],
                                        couplings, basis)


@pytest.fixture(scope="module")
def dense_reference(dressed_reference, dense_hamiltonian):
    return oracles.dressed_spectrum(dense_hamiltonian, dressed_reference[0])


def point_voltage(dipole, mode, geom):
    """Point-dipole receiving voltage (1/2) * l * (l_hat . E(center)) from the
    library's field at the dipole center."""
    e_center = cq.dipole_center_fields([dipole], mode, geom)[0]
    return 0.5 * dipole.length * float(e_center @ np.asarray(dipole.orientation))


class TestReceivingVoltage:
    def test_reference_value(self, center_dipole, te101, geom):
        v = point_voltage(center_dipole, te101, geom)
        npt.assert_allclose(v, V_RX_CENTER, rtol=1e-12)

    def test_matches_line_integral(self, center_dipole, te101, geom):
        v = point_voltage(center_dipole, te101, geom)
        full = cq.receiving_voltage_line_integral(center_dipole, te101, geom)
        npt.assert_allclose(full, V_RX_LINE_INTEGRAL, rtol=1e-12)
        assert abs(v - full) / abs(full) < 1e-4

    def test_no_warning_for_small_dipole(self, center_dipole, te101, geom):
        with warnings.catch_warnings():
            warnings.simplefilter("error", FieldVariationWarning)
            point_voltage(center_dipole, te101, geom)

    def test_warns_on_field_variation(self, geom, te102):
        long_tilted = cq.DipoleSpec(length=4e-3, radius=0.04e-3, gap=0.102e-3,
                                    center=(geom.a / 2, geom.b / 2, 15e-3),
                                    orientation=(0.0, 1.0, 1.0))
        with pytest.warns(FieldVariationWarning):
            v = point_voltage(long_tilted, te102, geom)
        npt.assert_allclose(v, 0.6561679790026247, rtol=1e-12)

    def test_stacked_fields_equal_one_dipole_fields(self, geom, te102, center_dipole):
        # a short dipole next to the long tilted one: bitwise the one-dipole
        # fields, and one warning, for the long dipole, worded as alone
        long_tilted = cq.DipoleSpec(length=4e-3, radius=0.04e-3, gap=0.102e-3,
                                    center=(geom.a / 2, geom.b / 2, 15e-3),
                                    orientation=(0.0, 1.0, 1.0))
        with pytest.warns(FieldVariationWarning) as alone:
            fields = [cq.dipole_center_fields([dipole], te102, geom)[0]
                      for dipole in (center_dipole, long_tilted)]
        with warnings.catch_warnings(record=True) as stacked_warnings:
            warnings.simplefilter("always")
            stacked = cq.dipole_center_fields([center_dipole, long_tilted], te102, geom)
        assert stacked.shape == (2, 3)
        assert stacked.tobytes() == np.array(fields).tobytes()
        [warning] = stacked_warnings
        assert warning.category is FieldVariationWarning
        assert [str(w.message) for w in alone] == [str(warning.message)]


class TestCouplingRates:
    def test_divider(self, reference_system):
        qubit = reference_system["qubit"]
        expected = reference_system["c_ant"] / (reference_system["c_ant"] + C_LOAD)
        npt.assert_allclose(qubit.divider, expected, rtol=1e-15)
        npt.assert_allclose(qubit.divider, DIVIDER, rtol=1e-12)

    def test_terminal_voltage(self):
        npt.assert_allclose(oracles.terminal_voltage(2.0, 1e-15, 3e-15), 0.5, rtol=1e-15)

    def test_reference_coupling(self, reference_system, geom):
        g = cq.coupling_matrix([reference_system["qubit"]],
                               reference_system["modes"], geom, n_levels=2).g[0, 0, 0]
        npt.assert_allclose(g / (TWO_PI * 1e6), G01_MHZ, rtol=1e-10)

    def test_from_field_equivalence(self, reference_system, geom):
        qubit = reference_system["qubit"]
        mode = reference_system["modes"][0]
        e_field, _ = cq.eval_fields(mode, geom, qubit.dipole.center)
        g_field = cq.transition_couplings([[qubit]], np.reshape(e_field, (1, 1, 1, 3)),
                                          [mode.omega], n_levels=2)[0, 0, 0, 0]
        g_direct = cq.coupling_matrix([qubit], [mode], geom, n_levels=2).g[0, 0, 0]
        npt.assert_allclose(g_field, g_direct, rtol=1e-12)

    def test_coupling_matrix_shape(self, reference_system, geom):
        qubit = reference_system["qubit"]
        mode = reference_system["modes"][1]
        couplings = cq.coupling_matrix([qubit], reference_system["modes"], geom,
                                       n_levels=4)
        assert couplings.g.shape == (2, 1, 3)
        g_direct = cq.transition_couplings(
            [[qubit]], cq.dipole_center_fields([qubit.dipole], mode, geom)[None, None],
            [mode.omega], n_levels=4)[0, 0, 0, 2]
        npt.assert_allclose(couplings.g[1, 0, 2], g_direct, rtol=0)

    def test_stacked_couplings_equal_points_alone(self, reference_system, geom,
                                                  te101, te102):
        """Every point of a stacked call gets bitwise the rates of its own
        one-point call, of coupling_matrix and of the scalar chain: 1 and 2
        qubits, an upright and a tilted dipole, two spectra with more charge
        elements than the three levels use, two dividers."""
        base = reference_system["qubit"]
        tilted = dataclasses.replace(base.dipole, center=(8e-3, 4e-3, 15e-3),
                                     orientation=(0.3, 1.0, 0.5))
        params = cq.TransmonParams.from_circuit(base.c_ant + C_LOAD, 7e-9)
        other = cq.transmon_spectrum(params, n_levels=4)
        variants = [base, dataclasses.replace(base, dipole=tilted),
                    dataclasses.replace(base, spectrum=other, c_load=2 * C_LOAD),
                    dataclasses.replace(base, dipole=tilted, spectrum=other)]
        modes = [te101, te102]
        omegas = [mode.omega for mode in modes]
        for n_qubits in (1, 2):
            point_qubits = [list(qubits)
                            for qubits in itertools.product(variants, repeat=n_qubits)]
            fields = np.array([[cq.dipole_center_fields([q.dipole for q in qubits],
                                                        mode, geom)
                                for mode in modes] for qubits in point_qubits])
            stacked = cq.transition_couplings(point_qubits, fields, omegas, n_levels=3)
            assert stacked.shape == (4**n_qubits, 2, n_qubits, 2)
            for qubits, field, g in zip(point_qubits, fields, stacked):
                alone = cq.transition_couplings([qubits], field[None], omegas, n_levels=3)
                assert alone[0].tobytes() == g.tobytes()
                matrix = cq.coupling_matrix(qubits, modes, geom, n_levels=3)
                assert matrix.g.tobytes() == g.tobytes()
                chain = [[oracles.qubit_mode_couplings(qubit, field[k, q], omegas[k], 3)
                          for q, qubit in enumerate(qubits)] for k in range(len(modes))]
                assert np.array(chain).tobytes() == g.tobytes()

    def test_coupling_matrix_one_field_call_per_mode(self, reference_system, geom,
                                                     te101, te102, field_calls):
        qubit = reference_system["qubit"]
        moved = dataclasses.replace(
            qubit, dipole=dataclasses.replace(qubit.dipole, center=(8e-3, 5e-3, 15e-3)))
        te103 = cq.make_mode(cq.ModeIndex("TE", 1, 0, 3), geom)
        couplings = cq.coupling_matrix([qubit, moved], [te101, te102, te103], geom,
                                       n_levels=3)
        assert couplings.g.shape == (3, 2, 2)
        assert field_calls == [(mode.index, [qubit.dipole.center, moved.dipole.center])
                               for mode in (te101, te102, te103)]

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

    def test_label_order_and_round_trip(self):
        basis = cq.SystemBasis(n_qubits=1, n_cavities=1, n_levels=2)
        labels = oracles.product_labels(basis)
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
    """The dense oracle's matrix (tests/oracles.py)."""

    def test_symmetric_real(self, dense_hamiltonian):
        h = dense_hamiltonian
        assert h.dtype == np.float64
        npt.assert_array_equal(h, h.T)

    def test_diagonal_is_bare_energy(self, reference_system, dressed_reference,
                                     dense_hamiltonian):
        basis, h = dressed_reference[0], dense_hamiltonian
        spectrum = reference_system["spectrum"]
        omegas = [m.omega for m in reference_system["modes"]]
        for label in ((0, 0, 0), (1, 0, 0), (2, 1, 0), (3, 2, 5)):
            expected = (spectrum.levels[label[0]] + label[1] * omegas[0]
                        + label[2] * omegas[1])
            npt.assert_allclose(h[basis.index_of(label), basis.index_of(label)],
                                expected, rtol=1e-12)

    def test_coupling_entries(self, dressed_reference, dense_hamiltonian):
        basis, _, couplings = dressed_reference
        h = dense_hamiltonian
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


def _jc_system(omega01, omega_cavity, g):
    params = cq.TransmonParams(E_C=1e-24, E_J=1e-22)
    spec = cq.TransmonSpectrum(params=params, levels=(0.0, omega01),
                               charge_elements=(-1j,))
    basis = cq.SystemBasis(n_qubits=1, n_cavities=1, n_levels=2)
    couplings = cq.CouplingMatrix(g=np.array([[[g]]]))
    return basis, cq.sector_spectrum([spec], [omega_cavity], couplings, basis)


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

    def test_assignment_is_permutation(self, dense_reference, dense_hamiltonian):
        # the dense oracle labels every product state with its own eigenvector
        energies = sorted(energy for energy, _ in dense_reference.levels.values())
        npt.assert_array_equal(energies, np.linalg.eigh(dense_hamiltonian)[0])

    def test_reference_overlaps_clean(self, dressed_reference):
        _, dressed, _ = dressed_reference
        assert dressed.flagged() == ()
        assert dressed.overlap((0, 0, 0)) > 0.99

    def test_deterministic(self, reference_system, dressed_reference):
        basis, dressed, couplings = dressed_reference
        omegas = [m.omega for m in reference_system["modes"]]
        again = cq.sector_spectrum([reference_system["spectrum"]], omegas,
                                   couplings, basis)
        assert again.levels == dressed.levels

    def test_dimension_validation(self):
        basis = cq.SystemBasis(n_qubits=1, n_cavities=1, n_levels=3)
        with pytest.raises(ValueError):
            oracles.dressed_spectrum(np.zeros((4, 4)), basis)

    def test_label_validation(self, dressed_reference):
        _, dressed, _ = dressed_reference
        with pytest.raises(ValueError):
            dressed.energy((0, 0))

    @pytest.mark.parametrize("label", [[1, 0, 1], np.array([1, 0, 1]),
                                       tuple(np.array([1, 0, 1]))])
    def test_label_sequence_types(self, dressed_reference, label):
        # a list, an array or a tuple of numpy ints reads the plain tuple's level
        _, dressed, _ = dressed_reference
        assert dressed.energy(label) == dressed.energy((1, 0, 1))
        assert dressed.overlap(label) == dressed.overlap((1, 0, 1))
        assert dressed.is_flagged(label) == dressed.is_flagged((1, 0, 1))


def _squared_blocks(rng):
    """Squared overlaps of a shuffled block-diagonal unitary: a perturbed
    identity (most rows above 1/2), a Haar block (rows with no entry above
    1/2), exact ties at 1/2 and 1/4, and a permutation (exact 1s and 0s)."""
    z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    haar, _ = np.linalg.qr(z)
    h = rng.normal(scale=rng.uniform(0.05, 1.5), size=(12, 12))
    _, perturbed = np.linalg.eigh(np.diag(np.arange(12.0)) + (h + h.T) / 2)
    blocks = [np.abs(perturbed)**2, np.abs(haar)**2, np.full((2, 2), 0.5),
              np.full((4, 4), 0.25), np.eye(3)[rng.permutation(3)]]
    dim = sum(b.shape[0] for b in blocks)
    overlap2 = np.zeros((dim, dim))
    start = 0
    for block in blocks:
        stop = start + block.shape[0]
        overlap2[start:stop, start:stop] = block
        start = stop
    return overlap2[np.ix_(rng.permutation(dim), rng.permutation(dim))]


class TestGreedyAssign:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_plain_greedy(self, seed):
        overlap2 = _squared_blocks(np.random.default_rng(seed))
        assigned = _greedy_assign(overlap2)
        npt.assert_array_equal(assigned, oracles.greedy_assign(overlap2))
        assert sorted(assigned) == list(range(overlap2.shape[0]))

    @pytest.mark.parametrize("dim", [1, 2, 9, 40])
    def test_haar_unitaries(self, dim):
        rng = np.random.default_rng(dim)
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        overlap2 = np.abs(np.linalg.qr(z)[0])**2
        npt.assert_array_equal(_greedy_assign(overlap2),
                               oracles.greedy_assign(overlap2))

    def test_two_entries_above_half(self):
        # round-off can lift a tie at 1/2 just above it in both entries
        above = np.nextafter(0.5, 1.0)
        in_a_row = np.array([[above, above, 0.0],
                             [0.5, 0.5, 0.0],
                             [0.0, 0.0, 1.0]])
        for overlap2 in (in_a_row, in_a_row.T):
            npt.assert_array_equal(_greedy_assign(overlap2), [0, 1, 2])
            npt.assert_array_equal(_greedy_assign(overlap2),
                                   oracles.greedy_assign(overlap2))


class TestSectorSpectrum:
    def test_reference_values(self, dressed_reference, dense_reference):
        # the dense oracle reproduces the frozen values the sector solver is
        # held to (TestDispersiveParams) and its smallest read-out overlap
        result = cq.dispersive_params(dense_reference)
        npt.assert_allclose(result.omega01 / (TWO_PI * 1e9), DRESSED_F01_GHZ,
                            rtol=1e-10)
        npt.assert_allclose(result.alpha / (TWO_PI * 1e6), DRESSED_ALPHA_MHZ,
                            rtol=1e-10)
        npt.assert_allclose(result.chi / (TWO_PI * 1e6), CHI_MHZ, rtol=1e-9)
        assert result.flags == ()
        sector = cq.dispersive_params(dressed_reference[1])
        assert sector.min_label_overlap == result.min_label_overlap

    @pytest.mark.parametrize("n_qubits, n_cavities, n_levels, size", [
        (1, 2, 6, 10), (2, 3, 3, 21), (1, 2, 15, 10), (1, 1, 2, 4), (2, 2, 2, 11),
        (1, 0, 2, 2), (0, 1, 2, 2)])
    def test_sector_sizes(self, n_qubits, n_cavities, n_levels, size):
        spec = cq.TransmonSpectrum(params=cq.TransmonParams(E_C=1e-24, E_J=1e-22),
                                   levels=tuple(TWO_PI * 6e9 * j * 0.95**j
                                                for j in range(n_levels)),
                                   charge_elements=(-1j,) * (n_levels - 1))
        basis = cq.SystemBasis(n_qubits=n_qubits, n_cavities=n_cavities,
                               n_levels=n_levels)
        g = np.full((n_cavities, n_qubits, n_levels - 1), TWO_PI * 20e6)
        dressed = cq.sector_spectrum([spec] * n_qubits,
                                     [TWO_PI * 7.5e9] * n_cavities,
                                     cq.CouplingMatrix(g=g), basis)
        # every occupation tuple of total <= 2 within the cutoff, basis order
        expected = [lbl for lbl in oracles.product_labels(basis) if sum(lbl) <= 2]
        assert list(dressed.levels) == expected
        assert len(expected) == size
        # each block's eigenvalues, one per label, sum to its bare diagonal
        bare = sum(sum(spec.levels[n] for n in lbl[:n_qubits])
                   + TWO_PI * 7.5e9 * sum(lbl[n_qubits:]) for lbl in expected)
        npt.assert_allclose(sum(energy for energy, _ in dressed.levels.values()),
                            bare, rtol=1e-12)
        layout = _sector_layout(n_qubits, n_cavities, n_levels)
        assert list(layout.labels) == expected
        assert layout.occ.tolist() == [list(lbl) for lbl in expected]
        assert len(layout.sectors[2].rows) == _n2_sector_size(n_qubits + n_cavities,
                                                              n_levels)

    @pytest.mark.parametrize("n_qubits, n_cavities, n_levels", [
        (1, 2, 6), (2, 3, 3), (1, 2, 15), (1, 1, 2), (2, 2, 2)])
    def test_layout_entries_are_the_coupling_terms(self, n_qubits, n_cavities, n_levels):
        # entry (src, dst, k, q, j, amplitude) of a block lowers qubit q from
        # j+1 to j and adds one photon to mode k; together the entries are
        # every such pair of labels of total <= 2, each once
        layout = _sector_layout(n_qubits, n_cavities, n_levels)
        labels = layout.labels
        expected = set()
        for a in labels:
            for q in range(n_qubits):
                for k in range(n_cavities):
                    b = list(a)
                    b[q] -= 1
                    b[n_qubits + k] += 1
                    if a[q] >= 1 and tuple(b) in labels:
                        expected.add((a, tuple(b), k, q, a[q] - 1,
                                      math.sqrt(a[n_qubits + k] + 1)))
        found = set()
        for n, sector in enumerate(layout.sectors):
            block = [labels[i] for i in sector.rows]
            assert block == [lbl for lbl in labels if sum(lbl) == n]
            for src, dst, k, q, j, amp in zip(*(a.tolist() for a in sector[1:])):
                found.add((block[src], block[dst], k, q, j, amp))
            assert len(sector.src) == len(set(zip(sector.src.tolist(),
                                                  sector.dst.tolist())))
        assert found == expected
        assert not layout.occ.flags.writeable

    def test_oversized_n2_block_refused_before_allocation(self, monkeypatch):
        # 1 qubit + 177 modes at M = 3: 15,931 states in N = 2, a 1.9 GiB
        # block; the refusal comes before the layout or any block is built
        monkeypatch.setattr(cq.system, "_sector_layout", None)
        n_modes, n_levels = 177, 3
        spec = cq.TransmonSpectrum(params=cq.TransmonParams(E_C=1e-24, E_J=1e-22),
                                   levels=(0.0, TWO_PI * 6e9, TWO_PI * 11.7e9),
                                   charge_elements=(-1j, -1j))
        basis = cq.SystemBasis(n_qubits=1, n_cavities=n_modes, n_levels=n_levels)
        g = np.zeros((n_modes, 1, n_levels - 1))
        with pytest.raises(ValueError, match=r"177 cavity mode\(s\).*15931 states"):
            cq.sector_spectrum([spec], [TWO_PI * 7.5e9] * n_modes,
                               cq.CouplingMatrix(g=g), basis)
        # the 96-mode truncation (4,753 states) stays within the limit
        assert _n2_sector_size(1 + 96, n_levels) == 4753 <= MAX_SECTOR_STATES
        assert _n2_sector_size(1 + 177, n_levels) == 15931 > MAX_SECTOR_STATES

    def test_label_outside_sectors_rejected(self, dressed_reference):
        _, dressed, _ = dressed_reference
        for label in ((3, 0, 0), (1, 1, 1)):
            with pytest.raises(ValueError, match=r"excitation number 3.*N <= 2"):
                dressed.energy(label)
            with pytest.raises(ValueError, match=r"excitation number 3.*N <= 2"):
                dressed.overlap(label)
        with pytest.raises(ValueError, match="outside local dimension"):
            dressed.energy((6, 0, 0))
        with pytest.raises(ValueError, match="3 entries"):
            dressed.energy((0, 0))

    def test_flagged_in_basis_order(self):
        # qubit resonant with mode 1 (labels (1,0,0) and (0,0,1) hybridize);
        # the sector labels of N = 1 and N = 2 interleave in basis order
        omega = TWO_PI * 6.0e9
        spec = cq.TransmonSpectrum(params=cq.TransmonParams(E_C=1e-24, E_J=1e-22),
                                   levels=(0.0, omega, 2 * omega - TWO_PI * 0.3e9),
                                   charge_elements=(-1j, -1j))
        basis = cq.SystemBasis(n_qubits=1, n_cavities=2, n_levels=3)
        g = np.zeros((2, 1, 2))
        g[1, 0] = TWO_PI * 50e6
        omegas = [TWO_PI * 7.5e9, omega]
        dressed = cq.sector_spectrum([spec], omegas, cq.CouplingMatrix(g=g), basis)
        dense = oracles.dressed_spectrum(
            oracles.assemble_hamiltonian([spec], omegas, cq.CouplingMatrix(g=g), basis),
            basis)
        flagged = dressed.flagged()
        assert {(0, 0, 1), (1, 0, 0)} <= set(flagged)
        assert list(flagged) == sorted(flagged)
        assert flagged == tuple(lbl for lbl in dense.flagged() if sum(lbl) <= 2)

    def test_shape_validation(self, reference_system, dressed_reference):
        basis, _, couplings = dressed_reference
        omegas = [m.omega for m in reference_system["modes"]]
        spec = reference_system["spectrum"]
        with pytest.raises(ValueError, match="counts must match"):
            cq.sector_spectrum([spec, spec], omegas, couplings, basis)
        with pytest.raises(ValueError, match="counts must match"):
            cq.sector_spectrum([spec], omegas[:1], couplings, basis)
        bad = cq.CouplingMatrix(g=np.zeros((1, 1, 5)))
        with pytest.raises(ValueError, match="couplings shape"):
            cq.sector_spectrum([spec], omegas, bad, basis)
        two_level = cq.TransmonSpectrum(params=reference_system["params"],
                                        levels=spec.levels[:2],
                                        charge_elements=spec.charge_elements[:1])
        with pytest.raises(ValueError, match="provides 2 levels; basis needs 6"):
            cq.sector_spectrum([two_level], omegas, couplings, basis)
        # the stacked call checks its inputs at the call, nothing iterated
        levels = np.zeros((2, 1, 6))
        with pytest.raises(ValueError, match="2 points of levels but 3 of couplings"):
            cq.sector_spectra(levels, omegas, np.zeros((3, 2, 1, 5)), basis)
        with pytest.raises(ValueError, match="levels hold 5 per qubit"):
            cq.sector_spectra(levels[:, :, :5], omegas, np.zeros((2, 2, 1, 5)), basis)


# Relative distance (to the largest |energy|) below which two dense
# eigenvalues count as one degenerate level: its eigenvectors are any rotation
# within the eigenspace, so a label assigned to it need not agree between the
# solvers.  Round-off scale, so only exact ties are skipped.
TIE = 1e-10


@st.composite
def small_systems(draw, shape=None):
    """Random 1-2 qubit, 1-3 mode systems (units of 2*pi GHz), with modes and
    the second qubit optionally within 1 MHz of the first qubit; ``shape``
    (qubits, modes, levels) fixes the basis."""
    if shape is None:
        n_qubits = draw(st.integers(1, 2))
        n_cavities = draw(st.integers(1, 3))
        n_levels = draw(st.integers(2, 4 if n_qubits + n_cavities <= 4 else 3))
    else:
        n_qubits, n_cavities, n_levels = shape
    unit = TWO_PI * 1e9
    near = st.floats(-1e-3, 1e-3)
    omega01 = [draw(st.floats(5.0, 7.0))]
    if n_qubits == 2:
        omega01.append(draw(st.one_of(st.floats(5.0, 7.0),
                                      near.map(lambda d: omega01[0] + d))))
    spectra = []
    for w in omega01:
        alpha = draw(st.floats(-0.4, -0.1))
        spectra.append(cq.TransmonSpectrum(
            params=cq.TransmonParams(E_C=1e-24, E_J=1e-22),
            levels=tuple(unit * (j * w + alpha * j * (j - 1) / 2)
                         for j in range(n_levels)),
            charge_elements=(-1j,) * (n_levels - 1)))
    omegas = [unit * draw(st.one_of(st.floats(5.0, 9.0),
                                    near.map(lambda d: omega01[0] + d)))
              for _ in range(n_cavities)]
    shape = (n_cavities, n_qubits, n_levels - 1)
    g = draw(st.lists(st.floats(0.0, 0.1), min_size=math.prod(shape),
                      max_size=math.prod(shape)))
    couplings = cq.CouplingMatrix(g=unit * np.reshape(g, shape))
    basis = cq.SystemBasis(n_qubits=n_qubits, n_cavities=n_cavities,
                           n_levels=n_levels)
    return spectra, omegas, couplings, basis


def _compare_sector_dense(spectra, omegas, couplings, basis) -> int:
    """Check the sector solver against the dense one; return how many
    unflagged labels of N >= 1 had their energy and overlap compared."""
    dense = oracles.dressed_spectrum(
        oracles.assemble_hamiltonian(spectra, omegas, couplings, basis), basis)
    sector = cq.sector_spectrum(spectra, omegas, couplings, basis)
    labels = [lbl for lbl in oracles.product_labels(basis) if sum(lbl) <= 2]
    assert list(sector.levels) == labels
    dense_energies = np.array([energy for energy, _ in dense.levels.values()])
    sector_energies = np.array([energy for energy, _ in sector.levels.values()])
    scale = float(np.max(np.abs(dense_energies)))
    nearest = np.min(np.abs(sector_energies[:, None] - dense_energies), axis=1)
    assert np.all(nearest <= 1e-12 * scale)
    threshold = FLAG_THRESHOLD + FLAG_BOUNDARY_SLACK
    compared = 0
    for label in labels:
        distance = np.sort(np.abs(dense_energies - dense.energy(label)))[1]
        if distance <= TIE * scale or np.count_nonzero(
                np.abs(dense_energies - sector.energy(label)) <= TIE * scale) > 1:
            continue  # assigned to a degenerate level in either solver
        # round-off of 1e-12 * scale turns an eigenvector by at most that
        # over the distance to the next eigenvalue
        tol = 1e-8 + 1e-12 * scale / distance
        if max(sector.overlap(label), dense.overlap(label)) <= threshold + tol:
            # flagged in both, or within round-off of the threshold
            assert sector.overlap(label) <= threshold + tol, label
            assert dense.overlap(label) <= threshold + tol, label
            continue
        # an overlap above 1/2 fixes the pairing: same eigenvector in both
        assert not sector.is_flagged(label) and not dense.is_flagged(label), label
        assert abs(sector.energy(label) - dense.energy(label)) <= 1e-12 * scale, label
        assert abs(sector.overlap(label) - dense.overlap(label)) <= tol, label
        compared += sum(label) > 0
    return compared


def test_sector_matches_dense():
    """The sector eigenvalues are dense eigenvalues.  Every label of the
    sectors N <= 2 not assigned to a degenerate level (see TIE) is flagged by
    both solvers or by neither, unless its overlap lies within round-off of
    the threshold.  An unflagged label (overlap above 1/2) pairs with the only
    eigenvector it overlaps by more than 1/2, so it also has the dense energy
    and overlap; a flagged one may pair differently where greedy overlaps tie
    exactly (e.g. at an exact resonance), which round-off breaks."""
    counts = []

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(small_systems())
    def check(system):
        compared = _compare_sector_dense(*system)
        note(f"labels of N >= 1 compared: {compared}")
        event("labels of N >= 1 compared", compared)
        counts.append(compared)

    check()
    # boundary draws (g = 0, exact resonances) must not skip most examples
    assert len(counts) >= 100
    assert sum(n > 0 for n in counts) >= 0.8 * len(counts)


@st.composite
def system_stacks(draw):
    """Stacks of 1-4 random systems of one basis that share the first one's
    cavity frequencies: (points as (spectra, couplings), omegas, basis)."""
    spectra, omegas, couplings, basis = draw(small_systems())
    shape = (basis.n_qubits, basis.n_cavities, basis.n_levels)
    rest = draw(st.lists(small_systems(shape), max_size=3))
    points = [(spectra, couplings)] + [(other[0], other[2]) for other in rest]
    return points, omegas, basis


def test_stacked_points_equal_points_alone():
    """Each point of a stacked solve gets exactly (==) the levels it gets
    solved alone, on the random systems of test_sector_matches_dense."""
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(system_stacks())
    def check(stack):
        points, omegas, basis = stack
        levels = np.array([[spec.levels for spec in spectra] for spectra, _ in points])
        g = np.array([couplings.g for _, couplings in points])
        stacked = cq.sector_spectra(levels, omegas, g, basis)
        assert len(stacked) == len(points)
        for (spectra, couplings), dressed in zip(points, stacked):
            alone = cq.sector_spectrum(spectra, omegas, couplings, basis)
            assert dressed.levels == alone.levels

    check()


def test_chunked_stack_equals_whole_stack(monkeypatch):
    """A stack split into chunks, each eigh call holding at most
    MAX_SECTOR_STATES**2 entries, gives exactly the unchunked spectra."""
    unit = TWO_PI * 1e9
    rng = np.random.default_rng(7)
    basis = cq.SystemBasis(n_qubits=2, n_cavities=3, n_levels=3)  # N = 2: 15 states
    omegas = [unit * f for f in (7.5, 9.9, 12.4)]
    levels = np.array([[(0.0, unit * w, unit * (2 * w - 0.3)) for w in pair]
                       for pair in rng.uniform(5.0, 7.0, size=(7, 2))])
    g = unit * rng.uniform(0.0, 0.1, size=(7, 3, 2, 2))
    whole = [dressed.levels for dressed in cq.sector_spectra(levels, omegas, g, basis)]
    eigh = np.linalg.eigh
    shapes = []

    def recorded(blocks):
        shapes.append(blocks.shape)
        return eigh(blocks)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    monkeypatch.setattr(cq.system, "MAX_SECTOR_STATES", 30)  # 30**2 // 15**2 = 4
    chunked = [dressed.levels for dressed in cq.sector_spectra(levels, omegas, g, basis)]
    assert chunked == whole
    # N = 1 and N = 2 per chunk; the one-state N = 0 block is already diagonal
    assert [shape[1] for shape in shapes] == [5, 15] * 2
    assert [shape[0] for shape in shapes] == [4, 4, 3, 3]
    assert max(math.prod(shape) for shape in shapes) == 30**2


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

    def test_flagged_labels_reported_with_values(self):
        omega01 = TWO_PI * 6.0e9
        _, dressed = _jc_system(omega01, omega01, TWO_PI * 50e6)
        result = cq.dispersive_params(dressed)
        assert (1, 0) in result.flags and (0, 1) in result.flags
        assert all(math.isfinite(v) for v in (result.omega01, result.omega_cavity,
                                              result.chi))
        npt.assert_allclose(result.min_label_overlap, 0.5, rtol=1e-9)

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
        dressed = cq.sector_spectrum([qubit_a.spectrum, qubit_b.spectrum],
                                     [mode.omega], couplings, basis)
        fwd = cq.dispersive_params(dressed, qubit_pair=(0, 1))
        rev = cq.dispersive_params(dressed, qubit_pair=(1, 0))
        assert fwd.zeta is not None
        assert fwd.zeta == rev.zeta
        assert cq.dispersive_params(dressed, qubit_pair=[0, 1]) == fwd
        with pytest.raises(ValueError, match="invalid qubit pair"):
            cq.dispersive_params(dressed, qubit_pair=[1, 1])


class TestTwoLevelEstimate:
    def test_closed_form(self):
        npt.assert_allclose(oracles.two_level_chi_estimate(2.0, 3.0, -1.0),
                            4.0 * -1.0 / (3.0 * 2.0), rtol=1e-15)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            oracles.two_level_chi_estimate(1.0, 0.0, -1.0)
        with pytest.raises(ValueError, match="undefined"):
            oracles.two_level_chi_estimate(1.0, 1.0, -1.0)

    def test_scale_against_full_model(self, reference_system, dressed_reference):
        _, dressed, couplings = dressed_reference
        full = cq.dispersive_params(dressed).chi
        spectrum = reference_system["spectrum"]
        mode = reference_system["modes"][0]
        g0 = couplings.g[0, 0, 0]
        estimate = oracles.two_level_chi_estimate(
            g0, spectrum.omega01 - mode.omega, spectrum.anharmonicity)
        ratio = estimate / full
        assert 0.3 < ratio < 0.7
