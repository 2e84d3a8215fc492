"""Port couplings in closed form and the two-port input-output transfer functions.

The coupling rate between a cavity mode and the TEM continuum of a coax probe,
in (rad/s)^(1/2), is the overlap over the wall annulus r_i <= rho <= r_o,

    g = (c0/2) * integral( H_k . (E_TEM x n_hat) dS ),   n_hat = n_into * y_hat,

with the unperturbed H field at the Markov point omega_p = omega_k; the inward
normal makes the sign of g follow the probe's wall side.  By Stokes' theorem it
has a closed form.  The delta-normalized TEM field on the wall is s*rho_hat/rho,
s = 1/(pi*sqrt(c0*ln(r_o/r_i))), so the rho of dS cancels and each circle gives
its circulation of H: the displacement flux (omega_k*eps_r/c0) * integral(E_y dA)
through its disk.  On the wall E_y is a sum of plane waves of one transverse
wavenumber kappa = sqrt(kx^2 + kz^2), so that flux is 2*pi*rho*J1(kappa*rho)/kappa
times E_y on the axis, and the rho integral of J1 leaves

    g = -pi * n_into * s * omega_k * eps_r * E_y(x0, y_wall, z0)
        * (J0(kappa*r_i) - J0(kappa*r_o)) / kappa^2.

The single-mode two-port response is the Lorentzian scattering matrix

    R1  = (pi*(g2^2 - g1^2) - i*Delta) / D,   T12 = T21 = -2*pi*g1*g2 / D,
    R2  = (pi*(g1^2 - g2^2) - i*Delta) / D,   D = pi*(g1^2 + g2^2) - i*Delta,

with Delta = omega - omega0.  It is exactly unitary for real g1, g2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import (CavityGeometry, CavityMode, CoaxProbe, eval_fields, resonant_frequency,
                     wavenumbers)
from .constants import C0
from .errors import DegenerateResponseError
from .perturbation import perturbed_frequency_tip


@dataclass(frozen=True)
class PortCoupling:
    """Signed coupling rate in (rad/s)^(1/2); the sign carries the H-field parity
    (and wall side) at the port location."""

    g: float


@dataclass(frozen=True)
class ScatteringResponse:
    """Single-mode two-port response: perturbed resonance omega0 and couplings g1, g2."""

    omega0: float
    g1: float
    g2: float

    def __post_init__(self) -> None:
        if not 0 < self.omega0 < math.inf:  # also rejects NaN
            raise ValueError(f"omega0 must be positive and finite, got {self.omega0!r}")
        for name in ("g1", "g2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")


def port_coupling(mode: CavityMode, geom: CavityGeometry, probe: CoaxProbe) -> PortCoupling:
    """The annulus overlap integral in closed form (module docstring); the
    annulus must lie inside the cavity wall footprint."""
    probe.check_footprint(geom)
    kx, _, kz, _, _ = wavenumbers(mode.index, geom)
    kappa = math.hypot(kx, kz)  # > 0 for every valid mode: TE needs p >= 1, TM m >= 1
    y_wall, n_into = (0.0, 1.0) if probe.wall == "bottom" else (geom.b, -1.0)
    E, _ = eval_fields(mode, geom, (probe.x0, y_wall, probe.z0))
    # the resonance eval_fields' H is built on; mode.omega may be a perturbed one
    omega_k = resonant_frequency(mode.index, geom)
    j0_drop = _j0_difference(kappa * probe.r_inner, kappa * probe.r_outer)
    g = (-n_into * omega_k * geom.eps_r * float(E[1]) * j0_drop
         / (kappa**2 * math.sqrt(C0 * math.log(probe.r_outer / probe.r_inner))))
    return PortCoupling(g=g)


def _j0_difference(a: float, b: float) -> float:
    """J0(a) - J0(b) for 0 <= a < b without subtracting two J0 values: (2/pi) *
    integral_0^pi sin((a+b)/2 sin t) sin((b-a)/2 sin t) dt by the midpoint rule on
    int(b) + 32 nodes, whose first aliased term, J_2n(b) with 2n > b + 62, is nil."""
    n = int(b) + 32
    sin_t = np.sin((np.arange(n) + 0.5) * (math.pi / n))
    return 2.0 / n * float(np.sum(np.sin(0.5 * (a + b) * sin_t) * np.sin(0.5 * (b - a) * sin_t)))


def two_port_response(mode: CavityMode, geom: CavityGeometry,
                      probes: tuple[CoaxProbe, CoaxProbe]) -> ScatteringResponse:
    """Full pipeline for the default experiment: perturbed resonance (tip sampling
    over both probes) plus the two port couplings."""
    p1, p2 = probes
    omega0 = perturbed_frequency_tip(mode, geom, [p1, p2]).omega_perturbed
    g1 = port_coupling(mode, geom, p1).g
    g2 = port_coupling(mode, geom, p2).g
    return ScatteringResponse(omega0=omega0, g1=g1, g2=g2)


def transfer_functions(resp: ScatteringResponse, omega) -> np.ndarray:
    """Scattering matrix [[R1, T12], [T21, R2]] at angular frequency ``omega``.

    ``omega`` may be a scalar or array; the result has shape ``omega.shape + (2, 2)``
    (complex).  Raises :class:`DegenerateResponseError` when g1 = g2 = 0.
    """
    if resp.g1 == 0.0 and resp.g2 == 0.0:
        raise DegenerateResponseError("both port couplings are zero; response undefined at resonance")
    omega = np.asarray(omega, dtype=float)
    # Always 1-d: numpy rounds a 0-d complex division differently from its array
    # loop, and a scalar call must equal the same entry of an array call bitwise.
    delta = omega.reshape(-1) - resp.omega0
    g1sq, g2sq = resp.g1**2, resp.g2**2
    i_delta = 1j * delta
    den = math.pi * (g1sq + g2sq) - i_delta
    t = -2.0 * math.pi * resp.g1 * resp.g2 / den
    out = np.empty(delta.shape + (2, 2), dtype=complex)
    out[:, 0, 0] = (math.pi * (g2sq - g1sq) - i_delta) / den
    out[:, 0, 1] = t
    out[:, 1, 0] = t
    out[:, 1, 1] = (math.pi * (g1sq - g2sq) - i_delta) / den
    return out.reshape(omega.shape + (2, 2))


def half_power_bandwidth(resp: ScatteringResponse) -> float:
    """FWHM of the transmitted power |T12|^2: 2*pi*(g1^2 + g2^2) in rad/s."""
    if resp.g1 == 0.0 and resp.g2 == 0.0:
        raise DegenerateResponseError("both port couplings are zero; bandwidth undefined")
    return 2.0 * math.pi * (resp.g1**2 + resp.g2**2)
