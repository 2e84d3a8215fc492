"""Shape-perturbation shift of cavity resonances from protruding coax inner conductors.

First-order boundary perturbation for a small volume ``dV`` removed from the
cavity by a protruding conductor:

    omega_pert = omega0 * (1 + numerator / denominator)

where, for *unit-normalized* mode profiles (``integral(eps_r |E|^2 dV) =
integral(|H|^2 dV) = 1``, see :mod:`cavqed.cavity`), the energy-difference
numerator is ``sum over probes of (|H|^2 - eps_r*|E|^2) * dV`` and the total
stored-energy denominator is exactly 2 (the sum of the two unit integrals).
The mu0/eps0 weights of the unnormalized classical formula are absorbed by
the normalization; the constant actually used is stored on the result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import CavityGeometry, CavityMode, CoaxProbe, eval_fields

#: Stored-energy denominator for unit-normalized modes.
TOTAL_ENERGY_DENOMINATOR = 2.0


@dataclass(frozen=True)
class PerturbationResult:
    """Unperturbed/perturbed angular frequencies and the energy quotient pieces."""

    omega_unperturbed: float
    omega_perturbed: float
    delta_energy_numerator: float
    total_energy_denominator: float


def tip_point(probe: CoaxProbe, geom: CavityGeometry) -> np.ndarray:
    """Center of the inner conductor's free end: (x0, h, z0) from the bottom wall,
    (x0, b - h, z0) from the top."""
    y = probe.h if probe.wall == "bottom" else geom.b - probe.h
    return np.array([probe.x0, y, probe.z0])


def _validate_probes(geom: CavityGeometry, probes: list[CoaxProbe]) -> None:
    for probe in probes:
        if probe.h >= geom.b:
            raise ValueError("probe protrusion h must be smaller than the cavity height b")
        probe.check_footprint(geom)
    for i, p1 in enumerate(probes):
        for p2 in probes[i + 1:]:
            axis_dist = math.hypot(p1.x0 - p2.x0, p1.z0 - p2.z0)
            if axis_dist >= p1.r_inner + p2.r_inner:
                continue
            if p1.wall == p2.wall or p1.h + p2.h > geom.b:
                raise ValueError("probe inner conductors overlap")


def _result(mode: CavityMode, numerator: float) -> PerturbationResult:
    omega0 = mode.omega
    return PerturbationResult(
        omega_unperturbed=omega0,
        omega_perturbed=omega0 * (1.0 + numerator / TOTAL_ENERGY_DENOMINATOR),
        delta_energy_numerator=numerator,
        total_energy_denominator=TOTAL_ENERGY_DENOMINATOR,
    )


def perturbed_frequency_tip(mode: CavityMode, geom: CavityGeometry,
                            probes: list[CoaxProbe]) -> PerturbationResult:
    """Tip-sampling approximation: fields sampled at each probe's free-end center
    and multiplied by the removed volume pi*r_inner^2*h.

    Valid when the mode field is nearly constant along the probe (true for the
    dominant TE10p family, whose fields do not vary along y).  Shifts from
    multiple probes add (first-order theory).
    """
    _validate_probes(geom, probes)
    numerator = 0.0
    for probe in probes:
        E, H = eval_fields(mode, geom, tip_point(probe, geom))
        dv = math.pi * probe.r_inner**2 * probe.h
        numerator += (float(H @ H) - geom.eps_r * float(E @ E)) * dv
    return _result(mode, numerator)
