"""Hong-Ou-Mandel second-order correlation for two single-photon wavepackets
scattered through the two-port cavity.

Two normalizations of g2(tau) are provided:

``g2`` (time-local)
    The discretized frequency-domain sums A, B, C for detection events at two
    fixed times t0 and t0 + tau, with g2 = A/(B*C).  This is the quantity the
    brute-force two-photon oracle reproduces termwise.  Its distinguishable-
    photon limit (|tau| >> sigma) is exactly 1: at large delay, coincidences
    at the two specific times factorize into independent singles.

``g2_integrated``
    The coincidence *fraction*: the numerator integrated over both detection
    times at fixed delay (Parseval-reduced to closed form in frequency space),
    divided by the product of total singles.  Its distinguishable-photon limit
    is exactly 1/2 (two photons end up at the same port half the time), which
    is the conventional plotted HOM curve with 0.5 tails.

Both are minimal at tau = 0 for matched packets and lie in [0, 1].  The dip
of the integrated curve does not reach 0 exactly: it is bounded below by the
spectral Cauchy-Schwarz slack, of order 1/(2*Gamma*sigma)^2 for a cavity
linewidth Gamma = pi*(g1^2+g2^2) wide compared to the photon bandwidth.

Only the phase exp(-i*omega*tau) depends on the delay: a curve computes the
response and packet spectra once, and each delay only multiplies them by its
own phase row, reduced on its own so its g2 is bitwise the same in any delay
array.  The sums skip the bins where both packet weights are exactly zero (a
Gaussian weight underflows to 0.0 beyond ~38.6/sigma from its centre): they
run over the contiguous bins from the first to the last that either packet
reaches, so only np.sum's grouping differs from summing the whole grid.

Internally the global reference time t0 is fixed to 0; results are
t0-invariant (a tested property, not a knob).  Proportionality constants
between field and output operators cancel in the ratios and are dropped.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateResponseError, GridCoverageWarning, UndefinedCorrelationError
from .ports import ScatteringResponse, transfer_functions

#: Default bins of :func:`default_grid` and ``hom.n_bins``; for the shipped
#: ``hom_default`` packets the alias period is then 41*sigma, above 2*tau_max.
DEFAULT_N_BINS = 8192

#: g2 values for tau points where the correlation is undefined (missing, not aborted).
MISSING_VALUE = math.nan


@dataclass(frozen=True)
class PhotonWavepacket:
    """Modulated-Gaussian single photon: center frequency (rad/s), temporal
    standard deviation (s), and input port (1 or 2)."""

    omega_in: float
    sigma: float
    port: int

    def __post_init__(self) -> None:
        if not self.omega_in > 0:  # also rejects NaN
            raise ValueError("omega_in must be positive")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if self.port not in (1, 2):
            raise ValueError("port must be 1 or 2")


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform angular-frequency grid discretizing the continuum integrals."""

    omega_min: float
    omega_max: float
    n_bins: int

    def __post_init__(self) -> None:
        if not self.omega_min < self.omega_max:
            raise ValueError("require omega_min < omega_max")
        if self.n_bins < 2:
            raise ValueError("n_bins must be >= 2")

    @property
    def omegas(self) -> np.ndarray:
        return np.linspace(self.omega_min, self.omega_max, self.n_bins)


@dataclass(frozen=True)
class HomCurve:
    """Delay grid (s) and the corresponding g2 values (NaN marks undefined points)."""

    taus: tuple[float, ...]
    g2_values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.taus) != len(self.g2_values):
            raise ValueError("taus and g2_values lengths must match")


def default_grid(resp: ScatteringResponse, sigma: float,
                 n_bins: int = DEFAULT_N_BINS, center: float | None = None) -> FrequencyGrid:
    """Grid covering both the photon bandwidth (20/sigma) and the cavity
    linewidth (40*pi*(g1^2+g2^2)) around ``center`` (default: the resonance).

    Note: discrete sums are exactly periodic in tau with period
    2*pi/(grid spacing); evaluating at large |tau| (e.g. 10*sigma tails)
    requires enough bins that the alias period exceeds the largest delay.
    """
    half_span = max(20.0 / sigma, 40.0 * math.pi * (resp.g1**2 + resp.g2**2))
    mid = resp.omega0 if center is None else center
    return FrequencyGrid(mid - half_span, mid + half_span, n_bins)


def spectral_weights(pkt: PhotonWavepacket, grid: FrequencyGrid, t_ref: float = 0.0) -> np.ndarray:
    """Normalized spectral weights W(omega_m) = exp(-(sigma*(omega_m - omega_in))^2/2)
    * exp(i*omega_m*t_ref), scaled so sum|W|^2 = 1 (one photon per port).

    Warns with :class:`GridCoverageWarning` when the grid does not cover
    omega_in +- 6/sigma; raises on zero norm (packet entirely off-grid).
    """
    margin = 6.0 / pkt.sigma
    if grid.omega_min > pkt.omega_in - margin or grid.omega_max < pkt.omega_in + margin:
        warnings.warn("frequency grid does not cover the wavepacket's +-6/sigma support; "
                      "spectral truncation will bias the correlation", GridCoverageWarning,
                      stacklevel=2)
    om = grid.omegas
    env = np.exp(-0.5 * (pkt.sigma * (om - pkt.omega_in))**2)
    norm = math.sqrt(float(env @ env))
    if norm == 0.0:
        raise ValueError("wavepacket has zero weight on the grid")
    if t_ref == 0.0:  # the phase factor is exactly 1+0j
        return (env / norm).astype(complex)
    return env / norm * np.exp(1j * om * t_ref)


def _delay_sums(omegas: np.ndarray, taus: np.ndarray, plus: np.ndarray,
                minus: np.ndarray) -> np.ndarray:
    """[sum(plus * exp(+i*omega*tau)), sum(minus * exp(-i*omega*tau))] for the 1-D
    ``taus``.  Each delay's phase row is reduced on its own with ``np.sum``, not
    BLAS, so a delay's value does not depend on the other delays.  ``_abc``
    passes only the bins a packet reaches: the terms where both packet weights
    are exactly zero are skipped."""
    sums = np.empty((2, taus.size), dtype=complex)
    for k, tau in enumerate(taus):
        phase = np.exp(1j * (tau * omegas))
        sums[0, k] = np.sum(plus * phase)
        sums[1, k] = np.sum(minus * np.conj(phase))
    return sums


def _abc(resp: ScatteringResponse, pkt1: PhotonWavepacket, pkt2: PhotonWavepacket, tau,
         grid: FrequencyGrid, t0: float = 0.0, normalization: str = "time_local") -> tuple:
    """Coincidences A and detector singles B, C (g2 = A/(B*C)) for detectors at
    t0 and t0 + tau, for a scalar or an array ``tau``, from one response and one
    spectrum per packet.  ``"time_local"`` gives the sums the brute-force oracle
    checks termwise; ``"integrated"`` the terms of :func:`g2_integrated`.

    Every sum skips the bins where both packet weights are exactly zero: the
    response and all sums are evaluated only from the first to the last bin
    where either weight is non-zero, since every term outside is exactly 0.0."""
    if normalization not in ("integrated", "time_local"):
        raise ValueError(f"unknown normalization {normalization!r}")
    if pkt1.port != 1 or pkt2.port != 2:
        raise ValueError("pkt1 must enter port 1 and pkt2 port 2")
    # 1-D even for a scalar tau: numpy's complex scalar arithmetic rounds differently.
    taus = np.asarray(tau, dtype=float).reshape(-1)
    w1 = spectral_weights(pkt1, grid, t0)
    w2 = spectral_weights(pkt2, grid, t0)
    reached = np.flatnonzero((w1 != 0) | (w2 != 0))
    keep = slice(reached[0], reached[-1] + 1)
    om, w1, w2 = grid.omegas[keep], w1[keep], w2[keep]
    s_matrix = transfer_functions(resp, om)
    detect = np.exp(-1j * om * t0)
    # Packet 2's delay phase cancels detector 2's on the reflected path (a2).
    a1 = w1 * s_matrix[:, 0, 0] * detect    # photon 1 reflected into detector 1
    b1 = w2 * s_matrix[:, 0, 1] * detect    # photon 2 transmitted into detector 1
    a2 = w2 * s_matrix[:, 1, 1] * detect    # photon 2 reflected into detector 2
    b2 = w1 * s_matrix[:, 1, 0] * detect    # photon 1 transmitted into detector 2
    if normalization == "time_local":
        trans_1, trans_2 = _delay_sums(om, taus, b1, b2)
        refl_1, refl_2 = np.sum(a1), np.sum(a2)
        norm1, norm2 = np.sum(np.abs(w1)**2), np.sum(np.abs(w2)**2)
        abc = (np.abs(refl_1 * refl_2 + trans_1 * trans_2)**2,
               np.abs(trans_1)**2 * norm1 + np.abs(refl_1)**2 * norm2,
               np.abs(trans_2)**2 * norm2 + np.abs(refl_2)**2 * norm1)
    else:
        y, x = _delay_sums(om, taus, a2 * np.conj(b2), a1 * np.conj(b1))
        p1, q1, p2, q2 = (np.sum(np.abs(amp)**2) for amp in (a1, b1, a2, b2))
        abc = (p1 * p2 + q1 * q2 + 2.0 * np.real(x * y),
               np.full(taus.shape, p1 + q1), np.full(taus.shape, p2 + q2))
    return tuple(v.reshape(np.shape(tau)) for v in abc)


def _g2_at(resp: ScatteringResponse, pkt1: PhotonWavepacket, pkt2: PhotonWavepacket,
           tau: float, grid: FrequencyGrid, normalization: str) -> float:
    a, b, c = _abc(resp, pkt1, pkt2, float(tau), grid, normalization=normalization)
    if b * c == 0.0:
        raise UndefinedCorrelationError("zero flux at a detector; g2 undefined")
    return float(a / (b * c))


def g2(resp: ScatteringResponse, pkt1: PhotonWavepacket, pkt2: PhotonWavepacket,
       tau: float, grid: FrequencyGrid) -> float:
    """Time-local second-order correlation A/(B*C) at delay ``tau``.

    Requires pkt1 on port 1 and pkt2 on port 2.  Raises
    :class:`UndefinedCorrelationError` when a detector sees zero flux.
    """
    return _g2_at(resp, pkt1, pkt2, tau, grid, "time_local")


def g2_integrated(resp: ScatteringResponse, pkt1: PhotonWavepacket, pkt2: PhotonWavepacket,
                  tau: float, grid: FrequencyGrid) -> float:
    """Time-integrated coincidence fraction at packet delay ``tau``.

    Closed form (Parseval over both detection times): with G_i the normalized
    packet spectra and R, T the transfer functions,

        P1 = sum|G1*R1|^2,  Q1 = sum|G2*T12|^2   (detector 1 singles pieces)
        P2 = sum|G2*R2|^2,  Q2 = sum|G1*T21|^2   (detector 2 singles pieces)
        X  = sum G1*R1*conj(G2*T12)*exp(-i*omega*tau)
        Y  = sum G2*R2*conj(G1*T21)*exp(+i*omega*tau)

        g2_integrated = (P1*P2 + Q1*Q2 + 2*Re(X*Y)) / ((P1+Q1)*(P2+Q2)).

    Always in [0, 1]; tends to exactly 1/2 for fully distinguishable packets.
    """
    return _g2_at(resp, pkt1, pkt2, tau, grid, "integrated")


def hom_curve(resp: ScatteringResponse, pkt1: PhotonWavepacket, pkt2: PhotonWavepacket,
              taus, grid: FrequencyGrid, normalization: str = "integrated") -> HomCurve:
    """Map the chosen correlation over a 1-D delay grid.

    ``normalization``: ``"integrated"`` (default; 0.5 tails, the conventional
    plotted curve) or ``"time_local"`` (A/(B*C) at fixed detection times;
    tails -> 1).
    Delays where a detector sees zero flux are NaN, not raised.
    """
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1:
        raise ValueError("taus must be one-dimensional")
    a, b, c = _abc(resp, pkt1, pkt2, taus, grid, normalization=normalization)
    values = np.divide(a, b * c, out=np.full(taus.shape, MISSING_VALUE),
                       where=b * c != 0.0)
    return HomCurve(taus=tuple(taus.tolist()), g2_values=tuple(values.tolist()))


def balanced_center_frequency(resp: ScatteringResponse) -> float:
    """The detuning where |R| = |T| with a +-pi/2 relative phase (beam-splitter
    condition): omega0 + pi*(g1^2 + g2^2)."""
    if resp.g1 == 0.0 and resp.g2 == 0.0:
        raise DegenerateResponseError("both port couplings are zero; no balanced point")
    return resp.omega0 + math.pi * (resp.g1**2 + resp.g2**2)


def scan_balanced_center(resp: ScatteringResponse, sigma: float, half_width: float,
                         n_scan: int, n_bins: int = DEFAULT_N_BINS,
                         normalization: str = "time_local") -> float:
    """Scan-based cross-check of :func:`balanced_center_frequency`: minimize g2(0)
    over a common packet center frequency in a window around the closed form.

    Returns the argmin center (rad/s); agreement with the closed form is within
    one scan step for symmetric couplings.
    """
    center0 = balanced_center_frequency(resp)
    candidates = np.linspace(center0 - half_width, center0 + half_width, n_scan).tolist()
    dips = [_g2_at(resp, PhotonWavepacket(center, sigma, port=1),
                   PhotonWavepacket(center, sigma, port=2), 0.0,
                   default_grid(resp, sigma, n_bins=n_bins, center=center), normalization)
            for center in candidates]
    return candidates[int(np.argmin(dips))]
