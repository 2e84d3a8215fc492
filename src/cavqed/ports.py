"""Port-coupling overlap integrals and the two-port input-output transfer functions.

The coupling rate between a cavity mode and the TEM continuum of a coax probe
is the wall-annulus overlap integral

    g = (c0/2) * sqrt(omega_p/omega_k) * integral( H_k . (E_TEM x n_hat) dS )

evaluated with the unperturbed cavity H field and the delta-normalized TEM
profile, with the port frequency at the cavity resonance (omega_p = omega_k,
the Markov evaluation point, so the square-root factor is 1).  ``n_hat`` is
the unit normal pointing into the cavity, which is why the probe's wall side
determines the sign of g.  Units: (rad/s)^(1/2).

The single-mode two-port response is the Lorentzian scattering matrix

    R1  = (pi*(g2^2 - g1^2) - i*Delta) / D,   T12 = T21 = -2*pi*g1*g2 / D,
    R2  = (pi*(g1^2 - g2^2) - i*Delta) / D,   D = pi*(g1^2 + g2^2) - i*Delta,

with Delta = omega - omega0.  It is exactly unitary for real g1, g2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import CavityGeometry, CavityMode, CoaxProbe, coax_tem_profile, eval_fields
from .constants import C0
from .errors import DegenerateResponseError
from .perturbation import perturbed_frequency_tip

#: Default trapezoidal node counts for the annulus overlap integral.
DEFAULT_N_RHO = 64
DEFAULT_N_PHI = 64


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


def port_coupling(mode: CavityMode, geom: CavityGeometry, probe: CoaxProbe,
                  n_rho: int = DEFAULT_N_RHO, n_phi: int = DEFAULT_N_PHI) -> PortCoupling:
    """Annulus overlap integral by the trapezoidal rule in rho and phi.

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
    delta = omega - resp.omega0
    g1sq, g2sq = resp.g1**2, resp.g2**2
    i_delta = 1j * delta
    den = math.pi * (g1sq + g2sq) - i_delta
    t = -2.0 * math.pi * resp.g1 * resp.g2 / den
    out = np.empty(delta.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = (math.pi * (g2sq - g1sq) - i_delta) / den
    out[..., 0, 1] = t
    out[..., 1, 0] = t
    out[..., 1, 1] = (math.pi * (g1sq - g2sq) - i_delta) / den
    return out


def half_power_bandwidth(resp: ScatteringResponse) -> float:
    """FWHM of the transmitted power |T12|^2: 2*pi*(g1^2 + g2^2) in rad/s."""
    if resp.g1 == 0.0 and resp.g2 == 0.0:
        raise DegenerateResponseError("both port couplings are zero; bandwidth undefined")
    return 2.0 * math.pi * (resp.g1**2 + resp.g2**2)
