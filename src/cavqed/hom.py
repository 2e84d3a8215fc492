"""Hong-Ou-Mandel second-order correlation for two single-photon wavepackets
scattered through the two-port cavity, in closed form.

Two normalizations of g2(tau) are provided:

``"time_local"``
    Detection events at two fixed times t0 and t0 + tau, with g2 = A/(B*C):
    the continuum limit of the frequency-domain sums that the brute-force
    two-photon oracle reproduces termwise.  Its distinguishable-photon limit
    (|tau| >> sigma) is exactly 1: at large delay, coincidences at the two
    specific times factorize into independent singles.

``"integrated"``
    The coincidence *fraction*: the numerator integrated over both detection
    times at fixed delay (Parseval-reduced to frequency space), divided by
    the product of total singles.  Its distinguishable-photon limit is
    exactly 1/2 (two photons end up at the same port half the time), which
    is the conventional plotted HOM curve with 0.5 tails.

Both are minimal at tau = 0 for matched packets and lie in [0, 1].  The dip
of the integrated curve does not reach 0 exactly: it is bounded below by the
spectral Cauchy-Schwarz slack, of order 1/(2*Gamma*sigma)^2 for a cavity
linewidth Gamma = pi*(g1^2+g2^2) wide compared to the photon bandwidth.

Every frequency integral is a Gaussian packet spectrum times a rational
function of the detuning with the one pole of the response, D = Gamma -
i*delta.  With 1/|D|^2 = (1/D + 1/conj(D))/(2*Gamma), the reflection R_i =
1 - 2*pi*g_i^2/D, the transmission T = -2*pi*g1*g2/D and the products
|T|^2, R_1*conj(T) and R_2*conj(T) are constants plus 1/D and 1/conj(D)
terms, and each term reduces to

    G(s, tau)        = integral exp(-s^2 x^2/2 + i x tau) dx
                     = sqrt(2*pi)/s * exp(-tau^2/(2 s^2)),
    F(s, tau, Delta) = integral exp(-s^2 x^2/2 + i x tau) / (Gamma - i(x + Delta)) dx
                     = pi * exp(-tau^2/(2 s^2)) * w(z),
                       z = ((Delta + i*Gamma)*s + i*tau/s)/sqrt(2),

with w the Faddeeva function, x the offset from the packet centre and Delta
the centre's detuning.  For Im z < 0 (tau < -Gamma*s^2) the reflection w(z)
= 2*exp(-z^2) - w(-z) is used, the Gaussian prefactor folded into the one
exponent, which then decays as exp(Gamma*tau).  Two packet spectra multiply
into one Gaussian of s^2 = sigma1^2 + sigma2^2; of the packet centres only
the relative phase exp(i*(c2 - c1)*tau) of the time-local coincidence
survives, so no value carries an omega*tau phase.

The global reference time t0 is fixed to 0; the discrete sums of the test
oracle show the results are t0-invariant.  Proportionality constants between
field and output operators cancel in the ratios and are dropped.  Every
operation is elementwise over the delays, so a delay's g2 is bitwise the
same in any delay array.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateResponseError, UndefinedCorrelationError
from .ports import ScatteringResponse, _linewidth

#: g2 values for tau points where the correlation is undefined (missing, not aborted).
MISSING_VALUE = math.nan

#: Terms and scale of Weideman's rational approximation of w (J. A. C. Weideman,
#: SIAM J. Numer. Anal. 31, 1497 (1994)); N = 40 matches scipy's wofz to ~2e-14
#: relative over the upper half-plane.
_WEIDEMAN_N = 40
_WEIDEMAN_L = math.sqrt(_WEIDEMAN_N / math.sqrt(2.0))


@functools.cache
def _weideman_coefficients() -> np.ndarray:
    """The N polynomial coefficients, highest power first: the cosine
    transform of exp(-t^2)*(L^2 + t^2) at t = L*tan(theta/2) on 4N points
    (the real part of the FFT of the original, written out).  Computed on
    first use, so that importing the module touches no tan or cos code."""
    m = 2 * _WEIDEMAN_N
    theta = np.arange(1 - m, m) * (math.pi / m)
    t = _WEIDEMAN_L * np.tan(0.5 * theta)
    samples = np.exp(-t * t) * (_WEIDEMAN_L**2 + t * t)
    return np.cos(np.outer(np.arange(_WEIDEMAN_N, 0, -1), theta)) @ samples / (2 * m)


def faddeeva(z) -> np.ndarray:
    """w(z) = exp(-z^2)*erfc(-i*z) for Im z >= 0, elementwise."""
    iz = 1j * np.asarray(z, dtype=complex)
    pole = _WEIDEMAN_L - iz
    series = np.polyval(_weideman_coefficients(), (_WEIDEMAN_L + iz) / pole)
    return (2.0 * series / pole + 1.0 / math.sqrt(math.pi)) / pole


def _pole_integrals(gamma: float, s, tau, delta) -> np.ndarray:
    """F(s, tau, Delta) of the module docstring, elementwise over the
    broadcast arrays, with the reflection of w for Im z < 0."""
    shifted = (delta + 1j * gamma) * s
    z = (shifted + 1j * tau / s) / math.sqrt(2.0)
    below = z.imag < 0.0
    direct = np.exp(-0.5 * (tau / s)**2) * faddeeva(np.where(below, -z, z))
    # exp(-tau^2/(2 s^2) - z^2), evaluated only where it is used: it decays there
    folded = np.exp(np.where(below, -0.5 * shifted * shifted - 1j * delta * tau + gamma * tau,
                             0.0))
    return math.pi * np.where(below, 2.0 * folded - direct, direct)


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
class HomCurve:
    """Delay grid (s) and the corresponding g2 values (NaN marks undefined points)."""

    taus: tuple[float, ...]
    g2_values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.taus) != len(self.g2_values):
            raise ValueError("taus and g2_values lengths must match")


def _coincidence_terms(resp: ScatteringResponse, sigma1: float, sigma2: float, center1,
                       center2, taus: np.ndarray, normalization: str) -> tuple:
    """Coincidences A and detector singles B, C (g2 = A/(B*C)) at the 1-D
    ``taus``, for a packet of width sigma1 centred at center1 entering port 1
    and one of sigma2 at center2 entering port 2 (rad/s; a centre may also be
    an array as long as ``taus``).  The spectra are normalized to one photon
    each; all pole integrals come from one :func:`_pole_integrals` call."""
    if normalization not in ("integrated", "time_local"):
        raise ValueError(f"unknown normalization {normalization!r}")
    gamma = _linewidth(resp, "response undefined at resonance")
    g1, g2 = resp.g1, resp.g2
    kappa = -2.0 * math.pi * g1 * g2  # T = kappa/D
    zero = np.zeros(taus.shape)
    delta1, delta2 = center1 - resp.omega0 + zero, center2 - resp.omega0 + zero
    root1, root2 = math.sqrt(math.sqrt(math.pi) / sigma1), math.sqrt(math.sqrt(math.pi) / sigma2)
    if normalization == "time_local":
        # r_i: packet i reflected into detector i; t_1: packet 2 transmitted
        # into detector 1 (phase exp(+i*omega*tau)); t_2: packet 1 into detector 2
        f = _pole_integrals(gamma, np.array([[sigma1], [sigma2], [sigma2], [sigma1]]),
                            np.stack((zero, zero, taus, -taus)),
                            np.stack((delta1, delta2, delta2, delta1)))
        refl_1 = (math.sqrt(2.0 * math.pi) / sigma1 - 2.0 * math.pi * g1 * g1 * f[0]) / root1
        refl_2 = (math.sqrt(2.0 * math.pi) / sigma2 - 2.0 * math.pi * g2 * g2 * f[1]) / root2
        trans_1, trans_2 = kappa * f[2] / root2, kappa * f[3] / root1
        both = trans_1 * trans_2 * np.exp(1j * ((center2 - center1) * taus))
        return (np.abs(refl_1 * refl_2 + both)**2,
                np.abs(trans_1)**2 + np.abs(refl_1)**2,
                np.abs(trans_2)**2 + np.abs(refl_2)**2)
    # The product of the two spectra: one Gaussian of width s about centre.
    width2 = sigma1 * sigma1 + sigma2 * sigma2
    s = math.sqrt(width2)
    center = (sigma1 * sigma1 * center1 + sigma2 * sigma2 * center2) / width2
    f = _pole_integrals(gamma, np.array([[s], [s], [math.sqrt(2.0) * sigma1],
                                         [math.sqrt(2.0) * sigma2]]),
                        np.stack((taus, -taus, zero, zero)),
                        np.stack((center - resp.omega0 + zero,) * 2 + (delta1, delta2)))
    overlap = np.exp(-(sigma1 * sigma2 * (center1 - center2))**2 / (2.0 * width2)) / (root1 * root2)
    # R_1*conj(T) = beta_1/D + (beta_1 + kappa)/conj(D), and likewise R_2*conj(T)
    beta1 = 2.0 * math.pi**2 * g1**3 * g2 / gamma
    beta2 = 2.0 * math.pi**2 * g2**3 * g1 / gamma
    x = overlap * (beta1 * f[1] + (beta1 + kappa) * np.conj(f[0]))
    y = overlap * (beta2 * f[0] + (beta2 + kappa) * np.conj(f[1]))
    # |T|^2 = (kappa^2/Gamma) * Re(1/D); P_i = 1 - Q_j by unitarity
    q2 = kappa * kappa / gamma * f[2].real / (root1 * root1)
    q1 = kappa * kappa / gamma * f[3].real / (root2 * root2)
    p1, p2 = 1.0 - q2, 1.0 - q1
    return p1 * p2 + q1 * q2 + 2.0 * np.real(x * y), p1 + q1, p2 + q2


def _ratio(a, b, c) -> float:
    """g2 = A/(B*C) at one delay; raises :class:`UndefinedCorrelationError`
    when a detector sees zero flux."""
    if b * c == 0.0:
        raise UndefinedCorrelationError("zero flux at a detector; g2 undefined")
    return float(a / (b * c))


def hom_curve(resp: ScatteringResponse, pkt1: PhotonWavepacket, pkt2: PhotonWavepacket,
              taus, normalization: str = "integrated") -> HomCurve:
    """Map the chosen correlation over a 1-D delay grid.

    ``normalization``: ``"integrated"`` (default; 0.5 tails, the conventional
    plotted curve) or ``"time_local"`` (A/(B*C) at fixed detection times;
    tails -> 1).  Requires pkt1 on port 1 and pkt2 on port 2.
    Delays where a detector sees zero flux are NaN, not raised.

    The integrated fraction (Parseval over both detection times): with G_i
    the normalized packet spectra and R, T the transfer functions,

        P1 = int|G1*R1|^2,  Q1 = int|G2*T12|^2   (detector 1 singles pieces)
        P2 = int|G2*R2|^2,  Q2 = int|G1*T21|^2   (detector 2 singles pieces)
        X  = int G1*R1*conj(G2*T12)*exp(-i*omega*tau)
        Y  = int G2*R2*conj(G1*T21)*exp(+i*omega*tau)

        g2 = (P1*P2 + Q1*Q2 + 2*Re(X*Y)) / ((P1+Q1)*(P2+Q2)),

    always in [0, 1]; tends to exactly 1/2 for fully distinguishable packets.
    Each integral is evaluated in closed form (module docstring).
    """
    if pkt1.port != 1 or pkt2.port != 2:
        raise ValueError("pkt1 must enter port 1 and pkt2 port 2")
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1:
        raise ValueError("taus must be one-dimensional")
    a, b, c = _coincidence_terms(resp, pkt1.sigma, pkt2.sigma, pkt1.omega_in,
                                 pkt2.omega_in, taus, normalization)
    values = np.divide(a, b * c, out=np.full(taus.shape, MISSING_VALUE),
                       where=b * c != 0.0)
    return HomCurve(taus=tuple(taus.tolist()), g2_values=tuple(values.tolist()))


def balanced_center_frequency(resp: ScatteringResponse) -> float:
    """The frequency above resonance where |R1| = |R2| = |T| (beam-splitter
    condition): omega0 + pi*sqrt(8*g1^2*g2^2 - (g1^2 + g2^2)^2), which is
    omega0 + pi*(g1^2 + g2^2) for g1^2 = g2^2.  It exists only for |g2/g1| in
    [sqrt(2) - 1, sqrt(2) + 1]; outside, :class:`DegenerateResponseError`."""
    _linewidth(resp, "no balanced point")
    g1sq, g2sq = resp.g1**2, resp.g2**2
    excess = 8.0 * g1sq * g2sq - (g1sq + g2sq)**2
    if excess < 0.0:
        ratio = abs(resp.g2 / resp.g1) if resp.g1 != 0.0 else math.inf
        raise DegenerateResponseError(
            f"|g2/g1| = {ratio:.6g} lies outside [sqrt(2) - 1, sqrt(2) + 1]: "
            "|T|^2 stays below 1/2; no balanced point")
    return resp.omega0 + math.pi * math.sqrt(excess)


def _scan_dips(resp: ScatteringResponse, sigma: float, half_width: float, n_scan: int,
               normalization: str) -> tuple[list[float], list[float]]:
    """The candidate centres of :func:`scan_balanced_center` and g2(0) at
    each, for matched packets of width ``sigma`` centred there: one closed-form
    evaluation over all candidates."""
    if not (isinstance(n_scan, (int, np.integer)) and n_scan >= 1):
        raise ValueError(f"n_scan must be an integer >= 1, got {n_scan!r}")
    if not 0.0 <= half_width < math.inf:  # also rejects NaN
        raise ValueError(f"half_width must be finite and >= 0, got {half_width!r}")
    center0 = balanced_center_frequency(resp)
    candidates = np.linspace(center0 - half_width, center0 + half_width, n_scan)
    a, b, c = _coincidence_terms(resp, sigma, sigma, candidates, candidates,
                                 np.zeros(n_scan), normalization)
    return candidates.tolist(), [_ratio(*abc) for abc in zip(a, b, c)]


def scan_balanced_center(resp: ScatteringResponse, sigma: float, half_width: float,
                         n_scan: int, normalization: str = "time_local") -> float:
    """Scan-based cross-check of :func:`balanced_center_frequency`: confirms
    the balanced point of symmetric couplings to within one scan step.  ``n_scan``
    candidates (an integer >= 1) span closed form +- ``half_width`` (finite, >= 0; rad/s);
    returns the one (rad/s) with the smallest g2(0).  The true g2(0) minimum
    lies about 1/(2*sigma**2*Gamma) above the balanced point (Gamma =
    pi*(g1**2 + g2**2), half the FWHM; +2.05 kHz for 2.5 us packets on the
    shipped response).  A ``half_width`` of one FWHM reaches the mirror point
    omega0 - Gamma, where |R| = |T| too."""
    candidates, dips = _scan_dips(resp, sigma, half_width, n_scan, normalization)
    return candidates[int(np.argmin(dips))]
