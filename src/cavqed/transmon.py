"""Transmon qubit: antenna capacitance, charge-basis spectrum, and charge
matrix elements.

The qubit is a Josephson junction shunted by the capacitance of a thin-wire
half-wave dipole antenna (plus a local shunt), with Hamiltonian
H = 4*E_C*n^2 - E_J*cos(phi) diagonalized exactly in the charge basis, split
by the parity n -> -n into two blocks, with the truncation checked by its
residual.  Energies are reported as ground-referenced angular frequencies (rad/s).

Input-impedance model for the antenna: an open-circuited thin-wire dipole of
total length l and wire radius r behaves, below its half-wave resonance, as a
capacitor C_ant = tan(k*l/2) / (120 * omega * (ln(l/(2*r)) - 1)) with
k = omega/c0; the model is meaningful only while k*l/2 < pi/2.
"""
from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .constants import C0, E_CHARGE, HBAR
from .errors import ConvergenceError, OutOfValidityError, TransmonRegimeWarning

#: E_J/E_C below this triggers :class:`TransmonRegimeWarning` (charge dispersion
#: is no longer negligible).
MIN_RATIO_FOR_TRANSMON_REGIME = 20.0

#: Extra charge states beyond the asymptotic estimate in the default cutoff.
DEFAULT_CUTOFF_MARGIN = 8

#: Largest relative change of a level or charge element that the truncation
#: residual may allow.
CONVERGENCE_RTOL = 1e-10


@dataclass(frozen=True)
class DipoleSpec:
    """Thin-wire dipole antenna: total tip-to-tip length, wire radius, feed
    gap (all meters), center position (x, y, z) and unit orientation vector.

    The gap is validated but enters no formula: :func:`dipole_capacitance`
    uses the length and radius, and the coupling the length and orientation.
    """

    length: float
    radius: float
    gap: float
    center: tuple[float, float, float]
    orientation: tuple[float, float, float]

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("length must be positive")
        if not 0 < self.radius < self.length / 2:
            raise ValueError("radius must be in (0, length/2)")
        if not 0 <= self.gap < self.length:
            raise ValueError("gap must be in [0, length)")
        if len(self.center) != 3:
            raise ValueError("center must have 3 components")
        if len(self.orientation) != 3:
            raise ValueError("orientation must have 3 components")
        norm = math.sqrt(sum(c * c for c in self.orientation))
        if norm == 0.0:
            raise ValueError("orientation must be nonzero")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "orientation",
                           tuple(float(c) / norm for c in self.orientation))


@dataclass(frozen=True)
class TransmonParams:
    """Charging and Josephson energies in joules."""

    E_C: float
    E_J: float

    def __post_init__(self) -> None:
        for name in ("E_C", "E_J"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # also rejects NaN
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.E_J / self.E_C < MIN_RATIO_FOR_TRANSMON_REGIME:
            warnings.warn(
                f"E_J/E_C = {self.E_J / self.E_C:.2f} < "
                f"{MIN_RATIO_FOR_TRANSMON_REGIME:g}: charge dispersion is not "
                "negligible and the anharmonic-oscillator picture degrades",
                TransmonRegimeWarning, stacklevel=2)

    @classmethod
    def from_circuit(cls, c_total: float, l_j: float) -> "TransmonParams":
        """From total shunt capacitance (F) and junction inductance (H):
        E_C = e^2/(2*C), E_J = (hbar/(2e))^2 / L_J."""
        for name, value in (("c_total", c_total), ("l_j", l_j)):
            if not 0 < value < math.inf:  # also rejects NaN
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        e_c = E_CHARGE**2 / (2.0 * c_total)
        e_j = (HBAR / (2.0 * E_CHARGE))**2 / l_j
        return cls(E_C=e_c, E_J=e_j)


@dataclass(frozen=True)
class TransmonSpectrum:
    """Ground-referenced level angular frequencies (rad/s) and nearest-neighbor
    charge matrix elements <j|n|j+1> (phase convention: -i * |element|)."""

    params: TransmonParams
    levels: tuple[float, ...]
    charge_elements: tuple[complex, ...]

    def __post_init__(self) -> None:
        if len(self.levels) < 2:
            raise ValueError("need at least two levels")
        if len(self.charge_elements) != len(self.levels) - 1:
            raise ValueError("need exactly one charge element per adjacent pair")

    @property
    def omega01(self) -> float:
        """0 -> 1 transition angular frequency (rad/s)."""
        return self.levels[1] - self.levels[0]

    @property
    def anharmonicity(self) -> float:
        """(E2 - E1) - (E1 - E0) as an angular frequency (rad/s); negative."""
        if len(self.levels) < 3:
            raise ValueError("anharmonicity requires at least three levels")
        return self.levels[2] - 2.0 * self.levels[1] + self.levels[0]


def dipole_capacitance(dipole: DipoleSpec, omega: float) -> float:
    """Equivalent input capacitance (F) of the open-ended thin-wire dipole at
    angular frequency ``omega``.

    Raises :class:`OutOfValidityError` at or beyond the half-wave resonance
    k*l/2 >= pi/2, where the reactance ceases to be capacitive.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    half_kl = 0.5 * omega / C0 * dipole.length
    if half_kl >= math.pi / 2:
        raise OutOfValidityError(
            f"k*l/2 = {half_kl:.4f} >= pi/2: dipole is at/above its half-wave "
            "resonance and no longer acts as a capacitor")
    log_term = math.log(dipole.length / (2.0 * dipole.radius)) - 1.0
    if log_term <= 0:
        raise OutOfValidityError("wire too thick: ln(l/(2r)) - 1 <= 0")
    return math.tan(half_kl) / (120.0 * omega * log_term)


def default_charge_cutoff(params: TransmonParams, n_levels: int) -> int:
    """Charge-state cutoff N (basis spans n = -N..N); scales with the zero-point
    charge spread (E_J/(8*E_C))^(1/4) plus a fixed safety margin."""
    spread = (params.E_J / (8.0 * params.E_C))**0.25
    return 4 * math.ceil(spread) + n_levels + DEFAULT_CUTOFF_MARGIN


def _tridiagonal(diagonal: np.ndarray, off_diagonal: np.ndarray) -> np.ndarray:
    """Stack of symmetric tridiagonal matrices (P, S, S) from the diagonals
    (P, S) and the off-diagonal values (P, 1)."""
    n_points, size = diagonal.shape
    matrices = np.zeros((n_points, size, size))
    flat = matrices.reshape(n_points, size * size)
    flat[:, ::size + 1] = diagonal
    flat[:, 1::size + 1] = off_diagonal
    flat[:, size::size + 1] = off_diagonal
    return matrices


def _neighbour_gaps(energies: np.ndarray) -> np.ndarray:
    """Gap from each eigenvalue of a block (P, S), ascending, to its nearest
    neighbour in the block; inf for a block of one."""
    wall = np.full((energies.shape[0], 1), np.inf)
    padded = np.hstack([-wall, energies, wall])
    return np.minimum(energies - padded[:, :-2], padded[:, 2:] - energies)


def _solve_cutoff_group(e_c: np.ndarray, e_j: np.ndarray, n_levels: int,
                        cutoff: int):
    """Lowest ``n_levels`` ground-referenced levels (J), |<j|n|j+1>| and the
    unconverged-point mask (P,) of P transmons that share one charge cutoff
    N; ``e_c`` and ``e_j`` have shape (P, 1).

    At n_g = 0 the Hamiltonian commutes with n -> -n, so it splits into an
    even block over |0>, (|n>+|-n>)/sqrt(2) and an odd block over
    (|n>-|-n>)/sqrt(2), n = 1..N, each solved for all P points by one
    ``eigh`` call.  Odd vectors are padded with a zero n = 0 component, so
    <even|n|odd> = sum_n e_n*n*o_n over the common components n = 0..N.
    """
    n = np.arange(cutoff + 1, dtype=float)
    even = _tridiagonal(4.0 * e_c * n**2, -e_j / 2.0)
    even[:, 0, 1] = even[:, 1, 0] = -e_j[:, 0] / math.sqrt(2.0)
    even_energies, even_vectors = np.linalg.eigh(even)
    odd_energies, odd_vectors = np.linalg.eigh(
        _tridiagonal(4.0 * e_c * n[1:]**2, -e_j / 2.0))
    n_points = e_c.shape[0]
    # eigenvectors as rows over n = 0..N: the N+1 even states, then the N odd
    states = np.zeros((n_points, 2 * cutoff + 1, cutoff + 1))
    states[:, :cutoff + 1] = even_vectors.swapaxes(1, 2)
    states[:, cutoff + 1:, 1:] = odd_vectors.swapaxes(1, 2)
    energies = np.hstack([even_energies, odd_energies])
    gaps = np.hstack([_neighbour_gaps(even_energies), _neighbour_gaps(odd_energies)])
    odd = np.arange(2 * cutoff + 1) > cutoff

    order = np.argsort(energies, axis=1, kind="stable")[:, :n_levels]
    rows = np.arange(n_points)[:, None]
    energies, states = energies[rows, order], states[rows, order]
    gaps, odd = gaps[rows, order], odd[order]
    levels = energies - energies[:, :1]
    elements = np.abs(np.sum(states[:, :-1] * n * states[:, 1:], axis=2))
    elements[odd[:, :-1] == odd[:, 1:]] = 0.0

    # Truncation leaves the eigenpair of parity-block vector v the residual
    # (E_J/2)*|v_N| against the untruncated operator.  It bounds the error of
    # each level; over the gap to the nearest level of its block, it bounds
    # the angle of its eigenvector, which moves a charge element by at most
    # N + 1 (the largest |n| the residual reaches) times the two angles.
    residuals = e_j / 2.0 * np.abs(states[:, :, cutoff])
    scale = np.maximum(levels[:, -1], e_j[:, 0])
    angles = np.divide(residuals, gaps - residuals, out=np.full_like(residuals, np.inf),
                       where=gaps > residuals)
    level_error = (residuals + residuals[:, :1]).max(axis=1)
    element_error = (cutoff + 1) * (angles[:, :-1] + angles[:, 1:]).max(axis=1)
    unconverged = ((level_error > CONVERGENCE_RTOL * scale)
                   | (element_error
                      > CONVERGENCE_RTOL * np.maximum(1.0, elements.max(axis=1))))
    return levels, elements, unconverged


def transmon_spectra(params: Sequence[TransmonParams], n_levels: int = 4,
                     n_charge: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact charge-basis spectra of P transmons, one parity-split solve per
    distinct cutoff (:func:`default_charge_cutoff` of each point unless
    ``n_charge`` is given): the ground-referenced levels (P, n_levels) in
    rad/s and the charge elements |<j|n|j+1>| (P, n_levels - 1).  A point's
    rows are bitwise those of its own one-point call.

    Raises :class:`ConvergenceError`, with the lowest failing index as
    ``point``, when the truncation residual could move a ground-referenced
    level or a charge element by more than a relative ``CONVERGENCE_RTOL``.
    """
    if n_levels < 2:
        raise ValueError("n_levels must be >= 2")
    if n_charge is not None and 2 * n_charge + 1 < n_levels:
        raise ValueError("charge cutoff too small for requested level count")
    cutoffs = [default_charge_cutoff(p, n_levels) if n_charge is None else n_charge
               for p in params]
    levels = np.empty((len(cutoffs), n_levels))
    elements = np.empty((len(cutoffs), n_levels - 1))
    failed = []
    for cutoff in sorted(set(cutoffs)):
        points = [p for p, c in enumerate(cutoffs) if c == cutoff]
        e_c = np.array([[params[p].E_C] for p in points])
        e_j = np.array([[params[p].E_J] for p in points])
        group_levels, group_elements, unconverged = _solve_cutoff_group(
            e_c, e_j, n_levels, cutoff)
        levels[points] = group_levels / HBAR
        elements[points] = group_elements
        failed += [points[i] for i in np.flatnonzero(unconverged)]
    if failed:
        point = min(failed)
        raise ConvergenceError(
            f"charge-basis results not converged at cutoff {cutoffs[point]} "
            f"(E_J/E_C = {params[point].E_J / params[point].E_C:.6g}); "
            "increase n_charge", point=point)
    return levels, elements


def transmon_spectrum(params: TransmonParams, n_levels: int = 4,
                      n_charge: int | None = None) -> TransmonSpectrum:
    """One-point call of :func:`transmon_spectra`."""
    levels, elements = transmon_spectra([params], n_levels, n_charge)
    return TransmonSpectrum(params=params, levels=tuple(levels[0].tolist()),
                            charge_elements=tuple(-1j * el for el in elements[0].tolist()))
