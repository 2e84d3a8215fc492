"""Independent reference implementations used to cross-check fast closed forms.

The two-photon coincidence pieces are evaluated by explicit enumeration of the
(output port, frequency bin) mode pairs, O(n_bins^2) in memory and time,
avoiding the algebraic factorizations of the production code; the closed-form
sums are also kept in their plain form, over every bin of the grid.  Greedy
labeling visits every (bare state, eigenvector) pair.  The dense dispersive
reference assembles the rotating-wave Hamiltonian on the whole truncated
product space with Kronecker products and diagonalizes it in one piece; it
shares no fill code with the sector solver it checks.  The textbook
estimates at the end (harmonic transmon limits, the two-level chi, the
capacitive divider) are scale and sign references for the exact results;
the coupling chain is evaluated there one qubit and one mode at a time.
"""
import math

import numpy as np

from cavqed.constants import E_CHARGE, EPS0, HBAR
from cavqed.hom import spectral_weights
from cavqed.ports import transfer_functions
from cavqed.system import DressedSpectrum, _greedy_assign


def brute_force_abc(resp, w1, w2, omegas, tau, t0=0.0):
    """(A, B, C) for detectors at port 1 (time t0) and port 2 (time t0 + tau).

    Input state: (sum_m w1[m] a1^dag(w_m)) (sum_n w2[n] a2^dag(w_n)) |0>.
    Each input operator is rotated into output operators through the unitary
    scattering matrix, giving the two-photon output amplitude tensor
    F[alpha, beta] over flattened modes alpha = (port, bin).  Detection
    amplitudes then follow from Wick contractions:

        A = |u1.F.u2 + u2.F.u1|^2
        B = sum_gamma |(F + F^T) u1|_gamma^2     (singles at detector 1)
        C = likewise with u2                     (singles at detector 2)

    with u_j the detector projection/phase vectors.
    """
    omegas = np.asarray(omegas, dtype=float)
    n = omegas.size
    s_matrix = transfer_functions(resp, omegas)          # (n, 2, 2), [out, in]
    from_port1 = s_matrix[:, :, 0].T * np.asarray(w1)    # (2, n): out port, bin
    from_port2 = s_matrix[:, :, 1].T * np.asarray(w2)
    f_tensor = np.einsum("qm,rn->qmrn", from_port1, from_port2).reshape(2 * n, 2 * n)
    u1 = np.zeros(2 * n, dtype=complex)
    u1[:n] = np.exp(-1j * omegas * t0)
    u2 = np.zeros(2 * n, dtype=complex)
    u2[n:] = np.exp(-1j * omegas * (t0 + tau))
    amplitude = u1 @ f_tensor @ u2 + u2 @ f_tensor @ u1
    v1 = f_tensor.T @ u1 + f_tensor @ u1
    v2 = f_tensor.T @ u2 + f_tensor @ u2
    return (float(abs(amplitude) ** 2),
            float(np.vdot(v1, v1).real),
            float(np.vdot(v2, v2).real))


def _full_grid_delay_sums(omegas, taus, plus, minus):
    """[sum(plus * exp(+i*omega*tau)), sum(minus * exp(-i*omega*tau))], one
    ``np.sum`` per delay over every bin."""
    sums = np.empty((2, taus.size), dtype=complex)
    for k, tau in enumerate(taus):
        phase = np.exp(1j * (tau * omegas))
        sums[0, k] = np.sum(plus * phase)
        sums[1, k] = np.sum(minus * np.conj(phase))
    return sums


def full_grid_abc(resp, pkt1, pkt2, tau, grid, t0=0.0, normalization="time_local"):
    """(A, B, C) of :func:`cavqed.hom._abc` summed over every bin of ``grid``,
    including the bins where both packet weights are exactly zero."""
    if normalization not in ("integrated", "time_local"):
        raise ValueError(f"unknown normalization {normalization!r}")
    if pkt1.port != 1 or pkt2.port != 2:
        raise ValueError("pkt1 must enter port 1 and pkt2 port 2")
    taus = np.asarray(tau, dtype=float).reshape(-1)
    om = grid.omegas
    s_matrix = transfer_functions(resp, om)
    w1 = spectral_weights(pkt1, grid, t0)
    w2 = spectral_weights(pkt2, grid, t0)
    detect = np.exp(-1j * om * t0)
    a1 = w1 * s_matrix[:, 0, 0] * detect
    b1 = w2 * s_matrix[:, 0, 1] * detect
    a2 = w2 * s_matrix[:, 1, 1] * detect
    b2 = w1 * s_matrix[:, 1, 0] * detect
    if normalization == "time_local":
        trans_1, trans_2 = _full_grid_delay_sums(om, taus, b1, b2)
        refl_1, refl_2 = np.sum(a1), np.sum(a2)
        norm1, norm2 = np.sum(np.abs(w1)**2), np.sum(np.abs(w2)**2)
        abc = (np.abs(refl_1 * refl_2 + trans_1 * trans_2)**2,
               np.abs(trans_1)**2 * norm1 + np.abs(refl_1)**2 * norm2,
               np.abs(trans_2)**2 * norm2 + np.abs(refl_2)**2 * norm1)
    else:
        y, x = _full_grid_delay_sums(om, taus, a2 * np.conj(b2), a1 * np.conj(b1))
        p1, q1, p2, q2 = (np.sum(np.abs(amp)**2) for amp in (a1, b1, a2, b2))
        abc = (p1 * p2 + q1 * q2 + 2.0 * np.real(x * y),
               np.full(taus.shape, p1 + q1), np.full(taus.shape, p2 + q2))
    return tuple(v.reshape(np.shape(tau)) for v in abc)


def jaynes_cummings_doublet(omega01, omega_cavity, g):
    """Single-excitation dressed energies of the resonant two-level/one-mode
    model: (w01 + wc)/2 -+ sqrt(delta^2 + 4 g^2)/2."""
    mean = 0.5 * (omega01 + omega_cavity)
    split = 0.5 * np.sqrt((omega01 - omega_cavity) ** 2 + 4.0 * g * g)
    return mean - split, mean + split


def product_labels(basis):
    """Every occupation tuple of ``basis`` in row-major (last site fastest)
    order, so the i-th label is the i-th bare product state."""
    return [tuple(lbl) for lbl in np.ndindex(*(basis.n_levels,) * basis.n_sites)]


def _embed(ops, n_sites, n_levels):
    """Kronecker product over all sites of the local operators ``ops``
    {site: matrix}, with the identity at every other site."""
    result = np.eye(1)
    for s in range(n_sites):
        result = np.kron(result, ops.get(s, np.eye(n_levels)))
    return result


def assemble_hamiltonian(spectra, cavity_omegas, couplings, basis):
    """Rotating-wave Hamiltonian (real symmetric, rad/s) on the whole product
    space of ``basis``: each transmon spectrum's ground-referenced levels, each mode's
    omega_k * a^dag a, and for every (cavity k, qubit q)
    sum_j g[k,q,j] * (|j><j+1| a_k^dag + h.c.), each coupling term one
    Kronecker product of its two local operators."""
    n_q, m, n_sites = basis.n_qubits, basis.n_levels, basis.n_sites
    dim = m**n_sites
    h = np.zeros((dim, dim))
    lower_cav = np.diag(np.sqrt(np.arange(1, m)), 1)  # annihilation operator a
    for q, spec in enumerate(spectra):
        h_local = np.diag(np.array(spec.levels[:m]) - spec.levels[0])
        h += _embed({q: h_local}, n_sites, m)
    for k, omega_k in enumerate(cavity_omegas):
        h += omega_k * _embed({n_q + k: lower_cav.T @ lower_cav}, n_sites, m)
    for k in range(basis.n_cavities):
        for q in range(n_q):
            sigma_lower = np.diag(couplings.g[k, q], 1)  # sum_j g_j |j><j+1|
            term = _embed({q: sigma_lower, n_q + k: lower_cav.T}, n_sites, m)
            h += term + term.T
    return h


def dressed_spectrum(hamiltonian, basis):
    """Diagonalize the whole product space and label every basis state by
    greedy maximum overlap (``cavqed.system._greedy_assign``, which
    :func:`greedy_assign` checks)."""
    dim = basis.n_levels**basis.n_sites
    if hamiltonian.shape != (dim, dim):
        raise ValueError("hamiltonian dimension does not match the basis")
    energies, vectors = np.linalg.eigh(hamiltonian)
    overlap2 = np.abs(vectors)**2  # [bare index, eigen index]
    bare_assigned = _greedy_assign(overlap2)
    return DressedSpectrum(basis, dict(zip(
        product_labels(basis),
        zip(energies[bare_assigned].tolist(),
            overlap2[np.arange(dim), bare_assigned].tolist()))))


def greedy_assign(overlap2):
    """Eigenvector index per bare state by plain greedy maximum overlap: visit
    every (bare, eigen) pair in order of decreasing squared overlap (ties by
    bare-then-eigen index) and accept it when both members are still free."""
    dim = overlap2.shape[0]
    order = np.argsort(-overlap2, axis=None, kind="stable")
    bare_assigned = np.full(dim, -1, dtype=int)
    eigen_taken = np.zeros(dim, dtype=bool)
    for flat in order:
        bare, eig = divmod(int(flat), dim)
        if bare_assigned[bare] >= 0 or eigen_taken[eig]:
            continue
        bare_assigned[bare] = eig
        eigen_taken[eig] = True
    return bare_assigned


def charge_matrix_element_asymptotic(params, j):
    """Harmonic-limit estimate of <j|n|j+1>:
    -i * (E_J/(8*E_C))**(1/4) * sqrt((j+1)/2)."""
    if j < 0:
        raise ValueError("j must be >= 0")
    return -1j * (params.E_J / (8.0 * params.E_C))**0.25 * math.sqrt((j + 1) / 2.0)


def level_asymptotic(params, j):
    """Harmonic-plus-Kerr estimate of the ground-referenced level j (rad/s):
    (sqrt(8*E_C*E_J)*j - (E_C/2)*(j^2 + j)) / hbar."""
    if j < 0:
        raise ValueError("j must be >= 0")
    return (math.sqrt(8.0 * params.E_C * params.E_J) * j
            - 0.5 * params.E_C * (j * j + j)) / HBAR


def two_level_chi_estimate(g, delta, alpha):
    """Textbook two-level dispersive estimate g^2 * alpha / (delta*(delta+alpha)).

    A scale/sign sanity reference only: it uses a single transition and a
    sigma-z shift convention, so it underestimates the full ground-referenced
    chi of the multilevel model by roughly a factor of two.
    """
    if delta == 0.0 or delta + alpha == 0.0:
        raise ValueError("estimate undefined at delta = 0 or delta = -alpha")
    return g * g * alpha / (delta * (delta + alpha))


def terminal_voltage(v_rx, c_ant, c_load):
    """Voltage across the junction: the divider C_ant/(C_ant + C_L) applied to
    the receiving voltage."""
    if c_ant <= 0 or c_load <= 0:
        raise ValueError("capacitances must be positive")
    return c_ant / (c_ant + c_load) * v_rx


def qubit_mode_couplings(qubit, e_center, omega_k, n_levels):
    """g[j] (rad/s), j < n_levels - 1, of one qubit to one mode whose E vector
    at the dipole center is ``e_center``, one scalar at a time:
    2e * |<j|n|j+1>| * sqrt(omega_k/(2*eps0*hbar)) * V_t with
    V_t the divider applied to V_RX = (1/2) * l * (l_hat . E)."""
    v_rx = 0.5 * qubit.dipole.length * float(np.asarray(e_center)
                                             @ np.asarray(qubit.dipole.orientation))
    v_t = terminal_voltage(v_rx, qubit.c_ant, qubit.c_load)
    element = np.abs(qubit.spectrum.charge_elements[:n_levels - 1])
    return 2.0 * E_CHARGE * element * math.sqrt(omega_k / (2.0 * EPS0 * HBAR)) * v_t
