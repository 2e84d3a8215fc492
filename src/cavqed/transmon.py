"""Transmon qubit: antenna capacitance, charge-basis spectrum, and charge
matrix elements.

The qubit is a Josephson junction shunted by the capacitance of a thin-wire
half-wave dipole antenna (plus a local shunt), with Hamiltonian
H = 4*E_C*n^2 - E_J*cos(phi) diagonalized exactly in the charge basis.
Energies are reported as ground-referenced angular frequencies (rad/s).

Input-impedance model for the antenna: an open-circuited thin-wire dipole of
total length l and wire radius r behaves, below its half-wave resonance, as a
capacitor C_ant = tan(k*l/2) / (120 * omega * (ln(l/(2*r)) - 1)) with
k = omega/c0; the model is meaningful only while k*l/2 < pi/2.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import C0, E_CHARGE, HBAR
from .errors import ConvergenceError, OutOfValidityError, TransmonRegimeWarning

#: E_J/E_C below this triggers :class:`TransmonRegimeWarning` (charge dispersion
#: is no longer negligible).
MIN_RATIO_FOR_TRANSMON_REGIME = 20.0

#: Extra charge states beyond the asymptotic estimate in the default cutoff.
DEFAULT_CUTOFF_MARGIN = 8

#: Relative agreement required between cutoffs N and N+4.
CONVERGENCE_RTOL = 1e-10


@dataclass(frozen=True)
class DipoleSpec:
    """Thin-wire dipole antenna: total tip-to-tip length, wire radius, feed
    gap (all meters), center position (x, y, z) and unit orientation vector."""

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
        if self.E_C <= 0 or self.E_J <= 0:
            raise ValueError("E_C and E_J must be positive")
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
        if c_total <= 0 or l_j <= 0:
            raise ValueError("c_total and l_j must be positive")
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


def _solve_charge_basis(params: TransmonParams, n_levels: int, n_charge: int):
    """Lowest ``n_levels`` eigenpairs of diag(4*E_C*n^2) - (E_J/2) on the
    off-diagonals, n = -n_charge..n_charge."""
    n = np.arange(-n_charge, n_charge + 1, dtype=float)
    off_diagonal = np.full(2 * n_charge, -params.E_J / 2.0)
    hamiltonian = (np.diag(4.0 * params.E_C * n**2)
                   + np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1))
    energies, vectors = np.linalg.eigh(hamiltonian)
    elements = np.array([
        float(np.abs(vectors[:, j] @ (n * vectors[:, j + 1])))
        for j in range(n_levels - 1)
    ])
    return energies[:n_levels], elements


def transmon_spectrum(params: TransmonParams, n_levels: int = 4,
                      n_charge: int | None = None) -> TransmonSpectrum:
    """Exact charge-basis diagonalization, cross-checked at cutoff N+4.

    Raises :class:`ConvergenceError` when ground-referenced levels or charge
    elements move by more than a relative 1e-10 between the two cutoffs.
    """
    if n_levels < 2:
        raise ValueError("n_levels must be >= 2")
    cutoff = default_charge_cutoff(params, n_levels) if n_charge is None else n_charge
    if 2 * cutoff + 1 < n_levels:
        raise ValueError("charge cutoff too small for requested level count")
    energies, elements = _solve_charge_basis(params, n_levels, cutoff)
    energies_ref, elements_ref = _solve_charge_basis(params, n_levels, cutoff + 4)
    levels = energies - energies[0]
    levels_ref = energies_ref - energies_ref[0]
    scale = max(float(levels[-1]), params.E_J)
    if (np.max(np.abs(levels - levels_ref)) > CONVERGENCE_RTOL * scale
            or np.max(np.abs(elements - elements_ref)) > CONVERGENCE_RTOL
            * max(1.0, float(np.max(np.abs(elements))))):
        raise ConvergenceError(
            f"charge-basis results not converged at cutoff {cutoff}; increase n_charge")
    return TransmonSpectrum(
        params=params,
        levels=tuple(float(e) / HBAR for e in levels),
        charge_elements=tuple(-1j * float(el) for el in elements))
