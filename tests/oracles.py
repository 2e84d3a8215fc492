"""Independent reference implementations used to cross-check fast closed forms.

The two-photon coincidence pieces are evaluated by explicit enumeration of the
(output port, frequency bin) mode pairs, O(n_bins^2) in memory and time,
avoiding the algebraic factorizations of the production code; the closed-form
sums are also kept in their plain form, over every bin of the grid, and the
balanced-centre scan evaluates each candidate on its own grid.  Greedy
labeling visits every (bare state, eigenvector) pair.  The dense dispersive
reference assembles the rotating-wave Hamiltonian on the whole truncated
product space with Kronecker products and diagonalizes it in one piece; it
shares no fill code with the sector solver it checks.  The textbook
estimates at the end (harmonic transmon limits, the two-level chi, the
capacitive divider) are scale and sign references for the exact results,
while the Mathieu characteristic values give the exact transmon levels;
the coupling chain is evaluated there one qubit and one mode at a time.
The dense, unsplit charge-basis transmon solve, with its N vs N + 4 check and
the truncation-residual bound evaluated from its eigenpairs, is the reference
for the library's parity-split solve.
The probe perturbation is integrated over each pin's whole volume, against
the library's tip sampling, and the port coupling by the trapezoidal rule
over the coax annulus against the Stokes closed form of ``port_coupling``.
"""
import functools
import math

import numpy as np
from scipy.special import mathieu_a, mathieu_b

from cavqed.cavity import eval_fields
from cavqed.constants import C0, E_CHARGE, EPS0, HBAR
from cavqed.errors import ConvergenceError
from cavqed.hom import (PhotonWavepacket, _abc, _ratio, balanced_center_frequency,
                        default_grid, spectral_weights)
from cavqed.perturbation import _result, _validate_probes
from cavqed.ports import PortCoupling, transfer_functions
from cavqed.system import SectorSpectra, _greedy_assign
from cavqed.transmon import CONVERGENCE_RTOL, default_charge_cutoff

#: Default (n_rho, n_phi, n_axial) midpoint resolution of
#: :func:`perturbed_frequency_quadrature`.
DEFAULT_QUADRATURE_RESOLUTION = (8, 16, 32)

#: Default trapezoidal node counts of :func:`port_coupling_quadrature`.
DEFAULT_N_RHO = 64
DEFAULT_N_PHI = 64

#: Cross-section normalization of the delta-normalized coax TEM field:
#: integral over the annulus of eps0*|E_T|^2 dS = 2*eps0/(pi*c0), independent
#: of the annulus radii (closed-form integral of 1/rho^2 against rho drho dphi).
COAX_CROSS_SECTION_NORM = 2.0 * EPS0 / (math.pi * C0)


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


def scan_dips_per_grid(resp, sigma, half_width, n_scan, n_bins, normalization):
    """(candidates, g2(0) at each) of :func:`cavqed.scan_balanced_center`, each
    candidate on its own ``default_grid`` centred on it, with its own pair of
    packet spectra: one whole one-delay evaluation per candidate."""
    center0 = balanced_center_frequency(resp)
    candidates = np.linspace(center0 - half_width, center0 + half_width, n_scan).tolist()
    dips = [_ratio(*_abc(resp, PhotonWavepacket(center, sigma, port=1),
                         PhotonWavepacket(center, sigma, port=2), 0.0,
                         default_grid(resp, sigma, n_bins=n_bins, center=center),
                         normalization=normalization))
            for center in candidates]
    return candidates, dips


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
    :func:`greedy_assign` checks), as a one-point ``SectorSpectra`` over
    every product label, read by ``dispersive_columns`` like the sector solver's."""
    dim = basis.n_levels**basis.n_sites
    if hamiltonian.shape != (dim, dim):
        raise ValueError("hamiltonian dimension does not match the basis")
    energies, vectors = np.linalg.eigh(hamiltonian)
    overlap2 = np.abs(vectors)**2  # [bare index, eigen index]
    bare_assigned = _greedy_assign(overlap2)
    return SectorSpectra(basis, tuple(product_labels(basis)), energies[None, bare_assigned],
                         overlap2[np.arange(dim), bare_assigned][None])


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


class MathieuValueError(ValueError):
    """scipy returned a Mathieu characteristic value of the wrong rank."""


def _mathieu_count(x, q, odd, size=64):
    """How many pi-periodic Mathieu characteristic values of one parity lie
    below ``x``: a Sturm count (negative LDL^T pivots) of the symmetrized
    Fourier recurrence, diagonal (2k)^2 over k >= 0 for a_2k or k >= 1 for
    b_2k, off-diagonal q (sqrt(2)*q between A_0 and A_2)."""
    count, pivot = 0, 1.0
    for i, k in enumerate(range(1 if odd else 0, size)):
        coupling = 0.0 if i == 0 else (2.0 if i == 1 and not odd else 1.0) * q * q
        pivot = (2.0 * k) ** 2 - x - coupling / pivot
        pivot = pivot or 1e-300
        count += pivot < 0
    return count


def transmon_levels_mathieu(params, n_levels):
    """Exact ground-referenced levels (rad/s) of 4*E_C*n^2 - E_J*cos(phi) at
    n_g = 0 from Mathieu characteristic values (Koch et al., PRA 76, 042319
    (2007)): E_m = E_C * (a_0, b_2, a_2, b_4, a_4, ...)[m](q), q = -E_J/(2*E_C).

    scipy's ``mathieu_a``/``mathieu_b`` return a neighbouring characteristic
    value in narrow windows of q (for example b_8 near E_J/E_C = 76.1 and a_6
    near 50.5, scipy 1.17), so each value's rank within its parity is checked
    by a Sturm count; :class:`MathieuValueError` reports a wrong one."""
    q = -params.E_J / (2.0 * params.E_C)
    values = np.array([mathieu_b(m + 1, q) if m % 2 else mathieu_a(m, q)
                       for m in range(n_levels)])
    for m, value in enumerate(values):
        odd, rank = m % 2 == 1, (m - 1) // 2 if m % 2 else m // 2
        tol = 1e-6 * max(1.0, abs(value))
        if (_mathieu_count(value - tol, q, odd),
                _mathieu_count(value + tol, q, odd)) != (rank, rank + 1):
            raise MathieuValueError(f"level {m} at q = {q!r}: {value!r} is not "
                                    f"characteristic value {rank} of its parity")
    return params.E_C * (values - values[0]) / HBAR


@functools.lru_cache(maxsize=64)
def _dense_charge_eigh(params, n_charge):
    """Every eigenpair of the dense (2N+1)-square charge-basis matrix
    diag(4*E_C*n^2) - (E_J/2) on the off-diagonals, n = -N..N (cached: a
    cutoff scan solves each cutoff as N and again as the N + 4 of N - 4)."""
    n = np.arange(-n_charge, n_charge + 1, dtype=float)
    off_diagonal = np.full(2 * n_charge, -params.E_J / 2.0)
    hamiltonian = (np.diag(4.0 * params.E_C * n**2)
                   + np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1))
    energies, vectors = np.linalg.eigh(hamiltonian)
    return n, energies, vectors


def charge_basis_solve(params, n_levels, n_charge):
    """Lowest ``n_levels`` ground-referenced levels (J) and |<j|n|j+1>| of the
    dense charge-basis matrix at cutoff N, with no parity split."""
    n, energies, vectors = _dense_charge_eigh(params, n_charge)
    elements = np.array([float(np.abs(vectors[:, j] @ (n * vectors[:, j + 1])))
                         for j in range(n_levels - 1)])
    return energies[:n_levels] - energies[0], elements


def transmon_spectrum_dense(params, n_levels, n_charge=None):
    """Levels (J) and |<j|n|j+1>| of :func:`charge_basis_solve` at the cutoff N,
    cross-checked at N + 4: :class:`ConvergenceError` when a ground-referenced
    level or a charge element moves by more than ``CONVERGENCE_RTOL`` relative
    between the two cutoffs."""
    cutoff = default_charge_cutoff(params, n_levels) if n_charge is None else n_charge
    levels, elements = charge_basis_solve(params, n_levels, cutoff)
    levels_ref, elements_ref = charge_basis_solve(params, n_levels, cutoff + 4)
    scale = max(float(levels[-1]), params.E_J)
    if (np.max(np.abs(levels - levels_ref)) > CONVERGENCE_RTOL * scale
            or np.max(np.abs(elements - elements_ref)) > CONVERGENCE_RTOL
            * max(1.0, float(np.max(np.abs(elements))))):
        raise ConvergenceError(
            f"charge-basis results not converged at cutoff {cutoff}; increase n_charge")
    return levels, elements


def residual_bound_exceeded(params, n_levels, n_charge):
    """Whether the truncation-residual bound of ``cavqed.transmon`` rejects the
    cutoff N, evaluated from the dense, unsplit eigenpairs: eigenvector k
    leaves the residual (E_J/2)*sqrt(v_N^2 + v_-N^2) against the untruncated
    operator, its parity is the sign of sum_n v_n*v_-n, and its gap is the
    distance to the nearest eigenvalue of the same parity."""
    _, energies, vectors = _dense_charge_eigh(params, n_charge)
    residuals = params.E_J / 2.0 * np.hypot(vectors[0, :n_levels], vectors[-1, :n_levels])
    even = np.sum(vectors * vectors[::-1], axis=0) > 0.0
    distance = np.abs(energies[:n_levels, None] - energies)
    distance[(even[:n_levels, None] != even)
             | np.eye(n_levels, energies.size, dtype=bool)] = np.inf
    gaps = distance.min(axis=1)
    levels, elements = charge_basis_solve(params, n_levels, n_charge)
    angles = [r / (gap - r) if gap > r else math.inf for r, gap in zip(residuals, gaps)]
    level_error = max(r + residuals[0] for r in residuals)
    element_error = (n_charge + 1) * max(a + b for a, b in zip(angles, angles[1:]))
    return bool(level_error > CONVERGENCE_RTOL * max(float(levels[-1]), params.E_J)
                or element_error > CONVERGENCE_RTOL * max(1.0, float(np.max(elements))))


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


def perturbed_frequency_quadrature(mode, geom, probes,
                                   resolution=DEFAULT_QUADRATURE_RESOLUTION):
    """Midpoint integration of ``|H|^2 - eps_r |E|^2`` over each probe's
    inner-conductor cylinder at the given (n_rho, n_phi, n_axial) resolution:
    the volume integral that ``cavqed.perturbation.perturbed_frequency_tip``
    samples at the tip."""
    _validate_probes(geom, probes)
    n_rho, n_phi, n_ax = resolution
    if min(n_rho, n_phi, n_ax) < 1:
        raise ValueError("quadrature resolution components must be >= 1")
    numerator = 0.0
    for probe in probes:
        if probe.h == 0:
            continue
        d_rho = probe.r_inner / n_rho
        d_phi = 2.0 * math.pi / n_phi
        d_y = probe.h / n_ax
        rhos = (np.arange(n_rho) + 0.5) * d_rho
        phis = (np.arange(n_phi) + 0.5) * d_phi
        depth = (np.arange(n_ax) + 0.5) * d_y
        ys = depth if probe.wall == "bottom" else geom.b - depth
        rho_g, phi_g, y_g = np.meshgrid(rhos, phis, ys, indexing="ij")
        pts = np.stack([probe.x0 + rho_g * np.cos(phi_g), y_g,
                        probe.z0 + rho_g * np.sin(phi_g)], axis=-1)
        E, H = eval_fields(mode, geom, pts)
        density = np.sum(H * H, axis=-1) - geom.eps_r * np.sum(E * E, axis=-1)
        numerator += float(np.sum(density * rho_g) * d_rho * d_phi * d_y)
    return _result(mode, numerator)


def coax_tem_profile(probe, rho, phi):
    """Delta-normalized coax TEM transverse E field at (rho, phi) on the wall plane.

    The semi-infinite line supports standing waves ``E(omega, rho, z) =
    sqrt(2/(pi*c0)) * e_T(rho) * cos(omega*z/c0)`` with ``e_T`` the unit
    transverse profile ``rho_hat / (rho*sqrt(2*pi*ln(r_outer/r_inner)))``;
    this makes ``integral(eps_r E(w).E(w') dV) = delta(w - w')``.  This
    function returns the transverse factor at the wall plane (z_coax = 0,
    where the cosine is 1), as a 3-vector in cavity coordinates with the
    radial direction in the x-z wall plane: ``rho_hat = (cos phi, 0, sin phi)``.
    Units s^(1/2) m^(-3/2); broadcastable over ``rho``/``phi`` arrays.
    """
    rho = np.asarray(rho, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if np.any(rho < probe.r_inner) or np.any(rho > probe.r_outer):
        raise ValueError("rho outside the coax annulus")
    scale = math.sqrt(2.0 / (math.pi * C0)) / math.sqrt(
        2.0 * math.pi * math.log(probe.r_outer / probe.r_inner))
    mag = scale / rho
    out = np.zeros(np.broadcast(rho, phi).shape + (3,), dtype=float)
    out[..., 0] = mag * np.cos(phi)
    out[..., 2] = mag * np.sin(phi)
    return out


def port_coupling_quadrature(mode, geom, probe, n_rho=DEFAULT_N_RHO, n_phi=DEFAULT_N_PHI):
    """Annulus overlap integral ``(c0/2) * integral(H . (E_TEM x n_hat) dS)`` by
    the trapezoidal rule in rho and phi: the discrete method that
    ``cavqed.ports.port_coupling``'s closed form is checked against.

    ``n_rho``/``n_phi`` are node counts (>= 2 and >= 4 respectively).  The
    annulus must lie inside the cavity wall footprint.
    """
    if n_rho < 2 or n_phi < 4:
        raise ValueError("require n_rho >= 2 and n_phi >= 4")
    probe.check_footprint(geom)

    rhos = np.linspace(probe.r_inner, probe.r_outer, n_rho)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi)
    w_rho = np.full(n_rho, rhos[1] - rhos[0])
    w_rho[0] *= 0.5
    w_rho[-1] *= 0.5
    w_phi = np.full(n_phi, phis[1] - phis[0])
    w_phi[0] *= 0.5
    w_phi[-1] *= 0.5

    rho_g, phi_g = np.meshgrid(rhos, phis, indexing="ij")
    y_wall = 0.0 if probe.wall == "bottom" else geom.b
    n_into = 1.0 if probe.wall == "bottom" else -1.0  # inward normal = n_into * y_hat
    pts = np.stack([probe.x0 + rho_g * np.cos(phi_g),
                    np.full_like(rho_g, y_wall),
                    probe.z0 + rho_g * np.sin(phi_g)], axis=-1)
    _, H = eval_fields(mode, geom, pts)
    e_tem = coax_tem_profile(probe, rho_g, phi_g)
    # E_TEM x (n_into*y_hat): (cos, 0, sin) x (0, 1, 0) = (-sin, 0, cos) = phi_hat.
    cross = np.empty_like(e_tem)
    cross[..., 0] = -n_into * e_tem[..., 2]
    cross[..., 1] = 0.0
    cross[..., 2] = n_into * e_tem[..., 0]
    integrand = np.sum(H * cross, axis=-1) * rho_g
    g = 0.5 * C0 * float(w_rho @ integrand @ w_phi)
    return PortCoupling(g=g)
