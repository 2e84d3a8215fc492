"""Analytic eigenmodes of a rectangular PEC cavity and the coaxial-port TEM profile.

Conventions
-----------
The cavity occupies ``[0, a] x [0, b] x [0, d]`` with perfectly conducting
walls and uniform relative permittivity ``eps_r``.  Mode profiles are
*unit-normalized*:

    integral( eps_r * E_k . E_k' dV ) = delta_kk'   and
    integral( H_k . H_k' dV )         = delta_kk'

so ``E`` carries units of m^(-3/2).  The per-photon field scale
``sqrt(hbar*omega/(2*eps0))`` is applied by consumers, never here.  All
quantities are SI with angular frequencies in rad/s.

Normalization amplitudes are closed forms (sin^2/cos^2 integrals), not
numerical quadrature, so downstream quantities carry no quadrature noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C0, EPS0

#: Walls through which a coax probe may enter: ``bottom`` is y = 0, ``top`` is y = b.
PROBE_WALLS = ("bottom", "top")

#: Cross-section normalization of the delta-normalized coax TEM field:
#: integral over the annulus of eps0*|E_T|^2 dS = 2*eps0/(pi*c0), independent
#: of the annulus radii (closed-form integral of 1/rho^2 against rho drho dphi).
COAX_CROSS_SECTION_NORM = 2.0 * EPS0 / (math.pi * C0)


@dataclass(frozen=True)
class CavityGeometry:
    """Rectangular cavity dimensions in meters and uniform relative permittivity."""

    a: float
    b: float
    d: float
    eps_r: float = 1.0

    def __post_init__(self) -> None:
        if not (self.a > 0 and self.b > 0 and self.d > 0):
            raise ValueError("cavity dimensions a, b, d must all be positive")
        if self.eps_r < 1.0:
            raise ValueError("eps_r must be >= 1")


@dataclass(frozen=True)
class CoaxProbe:
    """Coaxial probe entering through a broad (a x d) wall, axis along y.

    ``(x0, z0)`` is the axis position on the wall, ``r_inner``/``r_outer`` the
    coax radii, and ``h`` the protrusion length of the inner conductor into
    the cavity.  ``wall`` selects which broad wall the probe enters through:
    ``"bottom"`` (y = 0) or ``"top"`` (y = b).  The wall side fixes the sign
    of the inward normal and therefore the sign of the port coupling.
    """

    x0: float
    z0: float
    r_inner: float
    r_outer: float
    h: float
    wall: str = "bottom"

    def __post_init__(self) -> None:
        if not (0 < self.r_inner < self.r_outer):
            raise ValueError("require 0 < r_inner < r_outer")
        if self.h < 0:
            raise ValueError("protrusion length h must be >= 0")
        if self.wall not in PROBE_WALLS:
            raise ValueError(f"wall must be one of {PROBE_WALLS}, got {self.wall!r}")


@dataclass(frozen=True)
class ModeIndex:
    """Mode family ("TE" or "TM") and integer indices (m, n, p).

    Valid combinations: TE requires p >= 1 and not both m = n = 0 (other
    combinations have identically zero fields); TM requires m >= 1 and
    n >= 1 with any p >= 0.
    """

    family: str
    m: int
    n: int
    p: int

    def __post_init__(self) -> None:
        if self.family not in ("TE", "TM"):
            raise ValueError(f"family must be 'TE' or 'TM', got {self.family!r}")
        if min(self.m, self.n, self.p) < 0:
            raise ValueError("mode indices must be non-negative integers")
        if self.family == "TE":
            if self.m == 0 and self.n == 0:
                raise ValueError("TE modes require m and n not both zero")
            if self.p == 0:
                raise ValueError("TE modes require p >= 1 (p = 0 has zero field)")
        else:
            if self.m < 1 or self.n < 1:
                raise ValueError("TM modes require m >= 1 and n >= 1")

    @property
    def label(self) -> str:
        if max(self.m, self.n, self.p) <= 9:
            return f"{self.family}{self.m}{self.n}{self.p}"
        return f"{self.family}_{self.m}_{self.n}_{self.p}"


@dataclass(frozen=True)
class CavityMode:
    """A single normalized cavity eigenmode.

    ``norm_E`` / ``norm_H`` are the scalar amplitude prefactors (m^(-3/2)) of
    the E and H standing-wave patterns; for the dominant TE10p family,
    ``norm_E`` equals the peak |E| in the cavity.
    """

    index: ModeIndex
    omega: float
    norm_E: float
    norm_H: float


def wavenumbers(index: ModeIndex, geom: CavityGeometry) -> tuple[float, float, float, float, float]:
    """Return (kx, ky, kz, kc, k) in rad/m for the mode, kc transverse, k total."""
    kx = index.m * math.pi / geom.a
    ky = index.n * math.pi / geom.b
    kz = index.p * math.pi / geom.d
    kc = math.hypot(kx, ky)
    k = math.sqrt(kx * kx + ky * ky + kz * kz)
    return kx, ky, kz, kc, k


def resonant_frequency(index: ModeIndex, geom: CavityGeometry) -> float:
    """Angular resonant frequency (rad/s): (c0/sqrt(eps_r))*pi*sqrt((m/a)^2+(n/b)^2+(p/d)^2)."""
    *_, k = wavenumbers(index, geom)
    return C0 / math.sqrt(geom.eps_r) * k


def _amplitudes(index: ModeIndex, geom: CavityGeometry) -> tuple[float, float]:
    """Closed-form normalization amplitudes (norm_E, norm_H) for the mode."""
    a, b, d, eps_r = geom.a, geom.b, geom.d, geom.eps_r
    kx, ky, kz, kc, k = wavenumbers(index, geom)
    omega = resonant_frequency(index, geom)
    vol = a * b * d
    if index.family == "TE":
        # One transverse index may be zero; its cos^2 factor then integrates to L, not L/2.
        if index.m >= 1 and index.n >= 1:
            amp = math.sqrt(8.0 / (vol * eps_r))
        else:
            amp = 2.0 / math.sqrt(vol * eps_r)
        return amp, amp * C0 / omega
    # TM family: base amplitude B multiplies the potential-derived pattern; the
    # longitudinal component has peak amplitude B*kc^2/k.
    if index.p >= 1:
        base = math.sqrt(8.0 / (eps_r * vol)) / kc
    else:
        base = 2.0 / (kc * math.sqrt(eps_r * vol))
    return base * kc * kc / k, base * math.sqrt(eps_r) * kc


def make_mode(index: ModeIndex, geom: CavityGeometry) -> CavityMode:
    """Assemble a :class:`CavityMode` with closed-form frequency and amplitudes."""
    norm_e, norm_h = _amplitudes(index, geom)
    return CavityMode(index=index, omega=resonant_frequency(index, geom), norm_E=norm_e, norm_H=norm_h)


def eval_fields(mode: CavityMode, geom: CavityGeometry, r) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the normalized (E, H) profiles at point(s) ``r``.

    ``r`` is an array of shape (..., 3) in meters; returns two real arrays of
    the same shape.  Points must lie inside the closed cavity box (wall points
    included; tangential E vanishes there by construction).  Pure and
    deterministic: identical inputs give bitwise-identical outputs.
    """
    r = np.asarray(r, dtype=float)
    if r.shape[-1] != 3:
        raise ValueError("r must have shape (..., 3)")
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    if (np.any(x < 0) or np.any(x > geom.a) or np.any(y < 0) or np.any(y > geom.b)
            or np.any(z < 0) or np.any(z > geom.d)):
        raise ValueError("point outside the cavity box")

    kx, ky, kz, kc, k = wavenumbers(mode.index, geom)
    omega = resonant_frequency(mode.index, geom)
    sx, cx = np.sin(kx * x), np.cos(kx * x)
    sy, cy = np.sin(ky * y), np.cos(ky * y)
    sz, cz = np.sin(kz * z), np.cos(kz * z)
    E = np.zeros(r.shape, dtype=float)
    H = np.zeros(r.shape, dtype=float)

    if mode.index.family == "TE":
        amp = mode.norm_E
        hpre = amp * C0 / omega
        E[..., 0] = -amp * (ky / kc) * cx * sy * sz
        E[..., 1] = amp * (kx / kc) * sx * cy * sz
        # E_z = 0 for the TE (H_z) family.
        H[..., 0] = -hpre * (kx * kz / kc) * sx * cy * cz
        H[..., 1] = -hpre * (ky * kz / kc) * cx * sy * cz
        H[..., 2] = hpre * kc * cx * cy * sz
    else:
        base = mode.norm_E * k / (kc * kc)
        E[..., 0] = -base * (kx * kz / k) * cx * sy * sz
        E[..., 1] = -base * (ky * kz / k) * sx * cy * sz
        E[..., 2] = base * (kc * kc / k) * sx * sy * cz
        hpre = base * math.sqrt(geom.eps_r)
        H[..., 0] = hpre * ky * sx * cy * cz
        H[..., 1] = -hpre * kx * cx * sy * cz
        # H_z = 0 for the TM (E_z) family.
    return E, H


def mode_list(geom: CavityGeometry, f_max: float) -> list[CavityMode]:
    """All valid TE/TM modes with resonance frequency <= ``f_max`` (Hz).

    Sorted ascending by frequency; ties broken by (family, m, n, p)
    lexicographic order.
    """
    if f_max <= 0:
        raise ValueError("f_max must be positive")
    k_max = 2.0 * math.pi * f_max * math.sqrt(geom.eps_r) / C0
    m_max = int(k_max * geom.a / math.pi)
    n_max = int(k_max * geom.b / math.pi)
    p_max = int(k_max * geom.d / math.pi)
    modes: list[CavityMode] = []
    for family in ("TE", "TM"):
        for m in range(m_max + 1):
            for n in range(n_max + 1):
                for p in range(p_max + 1):
                    try:
                        idx = ModeIndex(family, m, n, p)
                    except ValueError:
                        continue
                    omega = resonant_frequency(idx, geom)
                    if omega <= 2.0 * math.pi * f_max:
                        modes.append(make_mode(idx, geom))
    modes.sort(key=lambda mode: (mode.omega, mode.index.family, mode.index.m,
                                 mode.index.n, mode.index.p))
    return modes


def coax_tem_profile(probe: CoaxProbe, rho, phi) -> np.ndarray:
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
