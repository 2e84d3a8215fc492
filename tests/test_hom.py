import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import wofz

import cavqed as cq
import cavqed.cli as cli
from cavqed import config
from cavqed.errors import DegenerateResponseError, UndefinedCorrelationError
from cavqed.hom import _coincidence_terms, _pole_integrals, _ratio, faddeeva

import oracles
from oracles import GridCoverageWarning
from test_cli import HOM

SIGMA = 2.5e-6
# Frozen correlations for matched 2.5 us packets at the balanced center
# frequency of the symmetric two-port response (8192-bin grid sums).
DIP_TIME_LOCAL = 8.609504003055441e-06
DIP_INTEGRATED = 0.0010395612478552028
TAIL_INTEGRATED = 0.5000005336825472

#: Largest |closed form - grid sums| of g2 on the shipped response, whose
#: 8192-bin sums differ from their continuum limit by ~2e-12 (discretization
#: and the round-off of their omega*tau phases, ~1e6 rad at 10 sigma).
GRID_ATOL = 1e-10


@pytest.fixture(scope="module")
def balanced(response):
    center = cq.balanced_center_frequency(response)
    pkt1 = cq.PhotonWavepacket(omega_in=center, sigma=SIGMA, port=1)
    pkt2 = cq.PhotonWavepacket(omega_in=center, sigma=SIGMA, port=2)
    grid = oracles.default_grid(response, SIGMA, n_bins=8192)
    return pkt1, pkt2, grid


def one_delay_g2(resp, pkt1, pkt2, tau, normalization):
    """The correlation at one delay: a one-delay :func:`cavqed.hom_curve`."""
    return cq.hom_curve(resp, pkt1, pkt2, [tau], normalization=normalization).g2_values[0]


def trimmed_grid(grid, pkt1, pkt2):
    """The sub-grid of ``grid`` from the first to the last bin where either
    packet weight is non-zero (a Gaussian weight underflows to 0.0 beyond
    ~38.6/sigma from its centre)."""
    reached = np.flatnonzero((oracles.spectral_weights(pkt1, grid) != 0)
                             | (oracles.spectral_weights(pkt2, grid) != 0))
    om = grid.omegas
    return oracles.FrequencyGrid(om[reached[0]], om[reached[-1]], reached[-1] + 1 - reached[0])


def grid_g2(resp, pkt1, pkt2, taus, grid, normalization, t0=0.0):
    """g2 of the oracle's sums over every bin of ``grid``."""
    a, b, c = oracles.full_grid_abc(resp, pkt1, pkt2, taus, grid, t0=t0,
                                    normalization=normalization)
    return a / (b * c)


class TestDataclasses:
    def test_wavepacket_validation(self):
        cq.PhotonWavepacket(omega_in=1e9, sigma=1e-6, port=2)
        with pytest.raises(ValueError):
            cq.PhotonWavepacket(omega_in=0.0, sigma=1e-6, port=1)
        with pytest.raises(ValueError):
            cq.PhotonWavepacket(omega_in=1e9, sigma=0.0, port=1)
        with pytest.raises(ValueError):
            cq.PhotonWavepacket(omega_in=1e9, sigma=1e-6, port=3)

    @pytest.mark.parametrize("omega_in, sigma", [(math.nan, 1e-6), (1e9, math.nan)])
    def test_wavepacket_rejects_nan(self, omega_in, sigma):
        with pytest.raises(ValueError, match="must be positive"):
            cq.PhotonWavepacket(omega_in=omega_in, sigma=sigma, port=1)

    def test_grid_validation(self):
        grid = oracles.FrequencyGrid(1.0, 2.0, 5)
        npt.assert_allclose(grid.omegas, np.linspace(1.0, 2.0, 5), rtol=0)
        with pytest.raises(ValueError):
            oracles.FrequencyGrid(2.0, 1.0, 5)
        with pytest.raises(ValueError):
            oracles.FrequencyGrid(1.0, 2.0, 1)

    def test_curve_validation(self):
        curve = cq.HomCurve(taus=(0.0, 1.0), g2_values=(0.5, 0.25))
        assert curve.taus == (0.0, 1.0)
        with pytest.raises(ValueError):
            cq.HomCurve(taus=(0.0, 1.0), g2_values=(0.5,))


class TestFaddeeva:
    def test_matches_scipy_over_upper_half_plane(self):
        # |z| log-uniform over 1e-6..1e6, arguments over [0, pi]: the real axis,
        # the imaginary axis and both quadrants
        rng = np.random.default_rng(3)
        radius = 10.0 ** rng.uniform(-6.0, 6.0, 80_000)
        angle = rng.uniform(0.0, math.pi, 80_000)
        angle[:4] = (0.0, 0.5 * math.pi, math.pi, 0.25 * math.pi)
        z = radius * np.exp(1j * angle)
        z.imag = np.maximum(z.imag, 0.0)
        expected = wofz(z)
        assert np.max(np.abs(faddeeva(z) - expected) / np.abs(expected)) <= 1e-13

    def test_pole_integrals_match_scipy_on_both_branches(self):
        # F = pi*exp(-tau^2/(2 s^2))*w(z), with w evaluated by scipy anywhere;
        # tau < -Gamma*s^2 puts z below the real axis (the reflected branch)
        gamma, s = 2.0, 1.5
        tau = np.linspace(-3.0 * gamma * s * s, 3.0 * gamma * s * s, 61)
        for delta in (-3.0, 0.0, 0.7):
            z = ((delta + 1j * gamma) * s + 1j * tau / s) / math.sqrt(2.0)
            assert np.any(z.imag < 0) and np.any(z.imag > 0)
            expected = math.pi * np.exp(-0.5 * (tau / s)**2) * wofz(z)
            npt.assert_allclose(_pole_integrals(gamma, s, tau, delta), expected,
                                rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("sigma_gamma", [10.0, 140.0])
    def test_reflected_branch_decays_without_overflow(self, sigma_gamma):
        # Evaluated naively, 2*exp(-z^2) overflows far below the real axis;
        # folded into one exponent, the term decays as exp(Gamma*tau).
        gamma, s = sigma_gamma, 1.0
        tau = np.array([-2.0 * gamma * s * s, -10.0 * s * gamma, -100.0 * gamma])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = _pole_integrals(gamma, s, tau, 0.0)
        assert np.all(np.isfinite(f))
        assert np.all(np.abs(f) <= 2.0 * math.pi * np.exp(gamma * tau + 0.5 * (gamma * s)**2))


class TestSpectralWeights:
    def test_unit_norm(self, response, balanced):
        pkt1, _, grid = balanced
        weights = oracles.spectral_weights(pkt1, grid)
        npt.assert_allclose(np.sum(np.abs(weights) ** 2), 1.0, rtol=1e-14)

    def test_reference_time_phase(self, response, balanced):
        pkt1, _, grid = balanced
        base = oracles.spectral_weights(pkt1, grid)
        shifted = oracles.spectral_weights(pkt1, grid, t_ref=3e-7)
        npt.assert_allclose(shifted, base * np.exp(1j * grid.omegas * 3e-7),
                            rtol=1e-12)

    @pytest.mark.parametrize("t_ref", [0.0, -0.0])
    def test_zero_reference_time_is_bitwise_the_phase_form(self, balanced, t_ref):
        # at t_ref = 0 the phase factor exp(i*omega*t_ref) is exactly 1+0j
        for pkt in balanced[:2]:
            om = balanced[2].omegas
            env = np.exp(-0.5 * (pkt.sigma * (om - pkt.omega_in))**2)
            phase_form = env / math.sqrt(float(env @ env)) * np.exp(1j * om * t_ref)
            weights = oracles.spectral_weights(pkt, balanced[2], t_ref=t_ref)
            assert weights.dtype == phase_form.dtype
            assert weights.tobytes() == phase_form.tobytes()

    def test_coverage_warning(self, response):
        grid = oracles.default_grid(response, SIGMA)
        outside = cq.PhotonWavepacket(
            omega_in=grid.omega_max + 1.0 / SIGMA, sigma=SIGMA, port=1)
        with pytest.warns(GridCoverageWarning):
            oracles.spectral_weights(outside, grid)

    def test_zero_norm_rejected(self, response):
        grid = oracles.FrequencyGrid(1e9, 1e9 + 1e3, 4)
        far = cq.PhotonWavepacket(omega_in=2e9, sigma=1e-3, port=1)
        with pytest.raises(ValueError), pytest.warns(GridCoverageWarning):
            oracles.spectral_weights(far, grid)


class TestDefaultGrid:
    def test_narrowband_packet_sets_span(self, response):
        # For long packets the cavity linewidth dominates the span.
        grid = oracles.default_grid(response, sigma=1.0)
        fwhm = cq.half_power_bandwidth(response)
        npt.assert_allclose(grid.omega_max - grid.omega_min, 40 * fwhm, rtol=1e-12)

    def test_broadband_packet_sets_span(self, response):
        grid = oracles.default_grid(response, sigma=1e-9)
        npt.assert_allclose(grid.omega_max - grid.omega_min, 2 * 20 / 1e-9,
                            rtol=1e-12)

    def test_centering(self, response):
        grid = oracles.default_grid(response, SIGMA)
        mid = 0.5 * (grid.omega_min + grid.omega_max)
        npt.assert_allclose(mid, response.omega0, rtol=1e-12)
        shifted = oracles.default_grid(response, SIGMA, center=response.omega0 + 5e6)
        mid = 0.5 * (shifted.omega_min + shifted.omega_max)
        npt.assert_allclose(mid, response.omega0 + 5e6, rtol=1e-12)

    def test_alias_period_clears_scan_window(self, response):
        # The discrete grid makes every sum periodic in time with period
        # 2*pi/d_omega; the default bin count must push that beyond 10 sigma.
        grid = oracles.default_grid(response, SIGMA, n_bins=8192)
        d_omega = grid.omegas[1] - grid.omegas[0]
        assert 2 * math.pi / d_omega > 10 * SIGMA

    def test_default_bins_clear_shipped_delays(self, response):
        # The oracle's default is the schema default of hom.n_bins (which the
        # closed form does not read), and its alias period holds the whole
        # +-10 sigma delay span of the shipped configuration.
        assert oracles.DEFAULT_N_BINS == config.get_setting({}, "hom.n_bins")
        grid = oracles.default_grid(response, SIGMA)
        d_omega = grid.omegas[1] - grid.omegas[0]
        assert 2 * math.pi / d_omega > 2 * 10 * SIGMA


class TestCorrelations:
    def test_dip_time_local(self, response, balanced):
        pkt1, pkt2, _ = balanced
        npt.assert_allclose(one_delay_g2(response, pkt1, pkt2, 0.0, "time_local"),
                            DIP_TIME_LOCAL, rtol=1e-6)

    def test_tail_time_local(self, response, balanced):
        pkt1, pkt2, _ = balanced
        npt.assert_allclose(one_delay_g2(response, pkt1, pkt2, 10 * SIGMA, "time_local"),
                            1.0, rtol=1e-9)

    def test_dip_integrated(self, response, balanced):
        pkt1, pkt2, _ = balanced
        npt.assert_allclose(one_delay_g2(response, pkt1, pkt2, 0.0, "integrated"),
                            DIP_INTEGRATED, rtol=1e-6)

    def test_tail_integrated(self, response, balanced):
        pkt1, pkt2, _ = balanced
        npt.assert_allclose(one_delay_g2(response, pkt1, pkt2, 10 * SIGMA, "integrated"),
                            TAIL_INTEGRATED, rtol=1e-6)

    def test_delay_symmetry(self, response, balanced):
        pkt1, pkt2, _ = balanced
        for tau in (0.7 * SIGMA, 2.0 * SIGMA):
            plus = one_delay_g2(response, pkt1, pkt2, tau, "integrated")
            minus = one_delay_g2(response, pkt1, pkt2, -tau, "integrated")
            npt.assert_allclose(plus, minus, rtol=1e-9)

    def test_detection_time_invariance(self, response, balanced):
        # The closed form fixes t0 = 0; the grid sums, which carry the
        # detector phase exp(-i*omega*t0), give the same g2 at another t0.
        pkt1, pkt2, grid = balanced
        closed = one_delay_g2(response, pkt1, pkt2, 1.1 * SIGMA, "time_local")
        for t0 in (0.0, 1.3 * SIGMA):
            npt.assert_allclose(grid_g2(response, pkt1, pkt2, 1.1 * SIGMA, grid, "time_local",
                                        t0=t0), closed, rtol=1e-9)

    def test_port_roles_enforced(self, response, balanced):
        pkt1, pkt2, _ = balanced
        same_port = cq.PhotonWavepacket(pkt2.omega_in, pkt2.sigma, port=1)
        with pytest.raises(ValueError):
            cq.hom_curve(response, pkt1, same_port, [0.0], normalization="time_local")
        with pytest.raises(ValueError):
            cq.hom_curve(response, pkt2, pkt2, [0.0], normalization="integrated")

    def test_bounded_on_random_draws(self, response):
        rng = np.random.default_rng(7)
        fwhm = cq.half_power_bandwidth(response)
        for _ in range(25):
            center1 = response.omega0 + rng.uniform(-1, 1) * fwhm
            center2 = response.omega0 + rng.uniform(-1, 1) * fwhm
            sigma1 = SIGMA * rng.uniform(0.5, 2.0)
            sigma2 = SIGMA * rng.uniform(0.5, 2.0)
            tau = rng.uniform(-2, 2) * SIGMA
            pkt1 = cq.PhotonWavepacket(center1, sigma1, port=1)
            pkt2 = cq.PhotonWavepacket(center2, sigma2, port=2)
            for value in (one_delay_g2(response, pkt1, pkt2, tau, "time_local"),
                          one_delay_g2(response, pkt1, pkt2, tau, "integrated")):
                assert 0.0 <= value <= 1.0 + 1e-12

    @pytest.mark.filterwarnings("ignore::oracles.GridCoverageWarning")
    def test_matches_brute_force_enumeration(self, response):
        # The oracle's grid sums against the enumeration of the two-photon
        # output amplitudes over all (m, n) frequency pairs on a deliberately
        # tiny grid; the grid truncates the packets (hence the coverage
        # warning) identically on both sides of the comparison.
        rng = np.random.default_rng(21)
        fwhm = cq.half_power_bandwidth(response)
        grid = oracles.FrequencyGrid(response.omega0 - 3 * fwhm,
                                     response.omega0 + 3 * fwhm, 12)
        for _ in range(20):
            pkt1 = cq.PhotonWavepacket(
                response.omega0 + rng.uniform(-1, 1) * fwhm,
                SIGMA * rng.uniform(0.01, 0.1), port=1)
            pkt2 = cq.PhotonWavepacket(
                response.omega0 + rng.uniform(-1, 1) * fwhm,
                SIGMA * rng.uniform(0.01, 0.1), port=2)
            taus = rng.uniform(-1, 1, size=4) * 1e-7
            t0 = rng.uniform(0, 1) * 1e-7
            actual = np.array(oracles.full_grid_abc(response, pkt1, pkt2, taus, grid, t0=t0))
            w1 = oracles.spectral_weights(pkt1, grid, t_ref=t0)
            for k, tau in enumerate(taus):
                # The input state carries the packet timing phases: packet 1
                # is referenced to t0, packet 2 to t0 + tau.
                w2 = oracles.spectral_weights(pkt2, grid, t_ref=t0 + tau)
                expected = oracles.brute_force_abc(response, w1, w2,
                                                   grid.omegas, tau, t0)
                npt.assert_allclose(actual[:, k], expected, rtol=1e-10, atol=1e-30)


class TestHomCurve:
    def test_curve_shapes_and_time_local(self, response, balanced):
        # Every delay is bitwise the value of a one-delay curve, in either
        # normalization and in either delay order.
        pkt1, pkt2, _ = balanced
        taus = np.linspace(-2 * SIGMA, 2 * SIGMA, 6)
        for normalization in ("time_local", "integrated"):
            for order in (taus, taus[::-1]):
                curve = cq.hom_curve(response, pkt1, pkt2, order,
                                     normalization=normalization)
                assert len(curve.taus) == len(curve.g2_values) == 6
                npt.assert_array_equal(curve.taus, order)
                for tau, value in zip(curve.taus, curve.g2_values):
                    npt.assert_allclose(
                        value, one_delay_g2(response, pkt1, pkt2, tau, normalization),
                        rtol=0)

    @pytest.mark.parametrize("sigma2", [SIGMA, 0.6 * SIGMA])
    def test_integrated_curve_matches_gaussian_closed_form(self, response, sigma2):
        # Broadband cavity limit: 1/2 (1 - V exp(-tau^2 / (s1^2 + s2^2))) with
        # visibility V = 2 s1 s2 / (s1^2 + s2^2), at every delay out to 10 sigma.
        center = cq.balanced_center_frequency(response)
        pkt1 = cq.PhotonWavepacket(omega_in=center, sigma=SIGMA, port=1)
        pkt2 = cq.PhotonWavepacket(omega_in=center, sigma=sigma2, port=2)
        taus = np.linspace(-10 * SIGMA, 10 * SIGMA, 101)
        curve = cq.hom_curve(response, pkt1, pkt2, taus)
        width2 = SIGMA**2 + sigma2**2
        closed = 0.5 * (1.0 - 2.0 * SIGMA * sigma2 / width2 * np.exp(-taus**2 / width2))
        npt.assert_allclose(curve.g2_values, closed, rtol=0, atol=2e-3)

    def test_one_response_evaluation_per_curve(self, response, balanced, monkeypatch):
        # The response enters through its pole integrals: one batched call per
        # curve, over every term and delay.
        pkt1, pkt2, _ = balanced
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return _pole_integrals(*args, **kwargs)

        monkeypatch.setattr("cavqed.hom._pole_integrals", counting)
        for normalization in ("integrated", "time_local"):
            cq.hom_curve(response, pkt1, pkt2, np.linspace(-SIGMA, SIGMA, 11),
                         normalization=normalization)
        assert len(calls) == 2

    @pytest.mark.parametrize("normalization", ["time_local", "integrated"])
    @pytest.mark.parametrize("offsets, sigma2, n_bins, t0", [
        ((0.0, 0.0), SIGMA, 8192, 0.0),               # hom_default packets
        ((0.0, 0.0), 0.6 * SIGMA, 8192, 0.0),         # mismatched widths
        ((3.0, -2.0), SIGMA, 8192, 0.0),              # off-centre packets
        ((0.0, 0.0), SIGMA, 16384, 0.0),
        ((1.0, -1.0), 0.6 * SIGMA, 8192, 1.3 * SIGMA),
    ])
    def test_trimmed_sums_match_full_grid(self, response, normalization, offsets,
                                          sigma2, n_bins, t0):
        # The grid sums at detection time t0 over the bins the packets reach
        # equal those over the whole grid: the rest are exact zeros, so only
        # np.sum's grouping and the sub-grid's bins differ, by an ulp of omega,
        # i.e. ~2e-10 rad in the omega*tau phases at 10 sigma.  The closed form
        # at t0 = 0 matches them out to +-10 sigma, distinct centres included.
        center = cq.balanced_center_frequency(response)
        pkt1 = cq.PhotonWavepacket(center + offsets[0] / SIGMA, SIGMA, port=1)
        pkt2 = cq.PhotonWavepacket(center + offsets[1] / sigma2, sigma2, port=2)
        grid = oracles.default_grid(response, sigma2, n_bins=n_bins, center=center)
        trimmed = trimmed_grid(grid, pkt1, pkt2)
        assert trimmed.n_bins < grid.n_bins / 4
        taus = np.linspace(-10 * SIGMA, 10 * SIGMA, 21)
        full = grid_g2(response, pkt1, pkt2, taus, grid, normalization, t0=t0)
        npt.assert_allclose(grid_g2(response, pkt1, pkt2, taus, trimmed, normalization, t0=t0),
                            full, rtol=0, atol=1e-12)
        curve = cq.hom_curve(response, pkt1, pkt2, taus, normalization=normalization)
        npt.assert_allclose(curve.g2_values, full, rtol=0, atol=GRID_ATOL)

    @pytest.mark.parametrize("normalization", ["time_local", "integrated"])
    def test_broadband_packet_sums_every_bin_bitwise(self, response, normalization):
        # default_grid spans +-20/sigma here, so no weight underflows: the
        # trimmed grid is the whole grid, bit for bit.  At sigma*Gamma = 0.016
        # 65,536 bins resolve the pole, and the closed form matches their sums.
        sigma = SIGMA / 1000
        center = cq.balanced_center_frequency(response)
        pkt1 = cq.PhotonWavepacket(center, sigma, port=1)
        pkt2 = cq.PhotonWavepacket(center, sigma, port=2)
        grid = oracles.default_grid(response, sigma, n_bins=65536, center=center)
        npt.assert_allclose(grid.omega_max - grid.omega_min, 40 / sigma, rtol=1e-12)
        assert trimmed_grid(grid, pkt1, pkt2).omegas.tobytes() == grid.omegas.tobytes()
        taus = np.linspace(-10 * sigma, 10 * sigma, 21)
        curve = cq.hom_curve(response, pkt1, pkt2, taus, normalization=normalization)
        npt.assert_allclose(curve.g2_values,
                            grid_g2(response, pkt1, pkt2, taus, grid, normalization,
                                    t0=0.7 * sigma),
                            rtol=0, atol=GRID_ATOL)

    @pytest.mark.parametrize("sigma", [0.96 * SIGMA, 1.04 * SIGMA])
    @pytest.mark.parametrize("variant", ["balanced", "time_local", "scan", "mismatched",
                                         "bins_16384"])
    def test_benchmark_variants_match_full_grid(self, response, sigma, variant):
        # The benchmark's five hom_curves runs at the ends of its +-4% packet
        # widths: 101 delays over +-10 sigma against the oracle's sums on the
        # grid of the run's hom.n_bins (8192, or 16384 for bins_16384).
        normalization = "time_local" if variant == "time_local" else "integrated"
        sigma2 = 0.6 * sigma if variant == "mismatched" else sigma
        fwhm = cq.half_power_bandwidth(response)
        center = (cq.scan_balanced_center(response, sigma, half_width=fwhm / 2, n_scan=41,
                                          normalization=normalization)
                  if variant == "scan" else cq.balanced_center_frequency(response))
        pkt1 = cq.PhotonWavepacket(center, sigma, port=1)
        pkt2 = cq.PhotonWavepacket(center, sigma2, port=2)
        n_bins = 16384 if variant == "bins_16384" else 8192
        grid = oracles.default_grid(response, sigma2, n_bins=n_bins, center=center)
        taus = np.linspace(-10 * sigma, 10 * sigma, 101)
        curve = cq.hom_curve(response, pkt1, pkt2, taus, normalization=normalization)
        npt.assert_allclose(curve.g2_values,
                            grid_g2(response, pkt1, pkt2, taus, grid, normalization),
                            rtol=0, atol=GRID_ATOL)

    @settings(max_examples=25, deadline=None)
    @given(log_sigma_gamma=st.floats(math.log10(0.05), math.log10(50.0)),
           ratio=st.floats(0.3, 1.0), sign=st.sampled_from([-1.0, 1.0]),
           width_ratio=st.floats(0.5, 2.0),
           offsets=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
           delay=st.floats(-3.0, 3.0),
           normalization=st.sampled_from(["time_local", "integrated"]))
    def test_matches_fine_grid_on_random_responses(self, log_sigma_gamma, ratio, sign,
                                                   width_ratio, offsets, delay,
                                                   normalization):
        # sigma*Gamma over 0.05-50, g2/g1 over 0.3-1 in either sign, packet
        # widths within 2x of each other and centres within 2/sigma of
        # omega0 + Gamma.  The bound is the oracle's own error: 1e-11 for the
        # round-off of its omega*tau phases plus twice the change from 32,768
        # to 65,536 bins (<= 6e-12 on such draws).
        g1 = 1000.0
        resp = cq.ScatteringResponse(omega0=2 * math.pi * 7.5e9, g1=g1, g2=sign * ratio * g1)
        gamma = math.pi * (resp.g1**2 + resp.g2**2)
        sigma1 = 10.0**log_sigma_gamma / gamma
        sigma2 = width_ratio * sigma1
        middle = resp.omega0 + gamma
        pkt1 = cq.PhotonWavepacket(middle + offsets[0] / sigma1, sigma1, port=1)
        pkt2 = cq.PhotonWavepacket(middle + offsets[1] / sigma2, sigma2, port=2)
        taus = np.array([0.0, delay * max(sigma1, sigma2)])
        closed = cq.hom_curve(resp, pkt1, pkt2, taus, normalization=normalization).g2_values
        coarse, fine = (grid_g2(resp, pkt1, pkt2, taus,
                                oracles.default_grid(resp, min(sigma1, sigma2), n_bins=n_bins,
                                                     center=middle), normalization)
                        for n_bins in (32768, 65536))
        refinement = float(np.max(np.abs(fine - coarse)))
        npt.assert_allclose(closed, fine, rtol=0, atol=1e-11 + 2.0 * refinement)

    def test_rejects_non_1d_delays(self, response, balanced):
        pkt1, pkt2, _ = balanced
        with pytest.raises(ValueError):
            cq.hom_curve(response, pkt1, pkt2, [[0.0, SIGMA]])

    def test_curve_integrated_default(self, response, balanced):
        pkt1, pkt2, _ = balanced
        curve = cq.hom_curve(response, pkt1, pkt2, [0.0])
        npt.assert_allclose(curve.g2_values[0], DIP_INTEGRATED, rtol=1e-6)

    def test_unknown_normalization(self, response, balanced):
        pkt1, pkt2, _ = balanced
        with pytest.raises(ValueError):
            cq.hom_curve(response, pkt1, pkt2, [0.0], normalization="per_packet")
        with pytest.raises(ValueError):
            cq.scan_balanced_center(response, SIGMA, half_width=1e3, n_scan=3,
                                    normalization="per_packet")

    @pytest.mark.parametrize("g", [0.0, 1e-155])
    def test_vanishing_linewidth_refused(self, balanced, g):
        # 1e-155 squares to a subnormal: 1/Gamma would overflow
        pkt1, pkt2, _ = balanced
        dead = cq.ScatteringResponse(omega0=1e9, g1=g, g2=g)
        with pytest.raises(DegenerateResponseError, match="both port couplings are zero"):
            cq.hom_curve(dead, pkt1, pkt2, [0.0])


class TestBalancedCenter:
    def test_closed_form(self, response):
        expected = response.omega0 + math.pi * (response.g1**2 + response.g2**2)
        npt.assert_allclose(cq.balanced_center_frequency(response), expected,
                            rtol=1e-15)

    def test_symmetric_form_bitwise_at_shipped_couplings(self, response):
        # the general formula gives the same bits as omega0 + pi*(g1^2 + g2^2)
        assert math.pi * (response.g1**2 + response.g2**2) == 6212610.547333923
        assert (cq.balanced_center_frequency(response)
                == response.omega0 + math.pi * (response.g1**2 + response.g2**2))

    def test_degenerate_rejected(self):
        # 1e-155 squares to a subnormal: 1/Gamma would overflow
        for g in (0.0, 1e-155):
            dead = cq.ScatteringResponse(omega0=1e9, g1=g, g2=g)
            with pytest.raises(DegenerateResponseError, match="both port couplings are zero"):
                cq.balanced_center_frequency(dead)

    @pytest.mark.parametrize("ratio", [0.42, 0.5, 0.8, 1.0, -1.0, 1.7, 2.4])
    def test_asymmetric_couplings_balance(self, ratio):
        resp = cq.ScatteringResponse(omega0=4.7e10, g1=1000.0, g2=ratio * 1000.0)
        s_matrix = cq.transfer_functions(resp, cq.balanced_center_frequency(resp))
        npt.assert_allclose(np.abs(s_matrix)**2, np.full((2, 2), 0.5), rtol=1e-12)

    @pytest.mark.parametrize("g1, g2, shown", [(1000.0, 300.0, "0.3"),
                                               (1000.0, -2500.0, "2.5"),
                                               (0.0, 5.0, "inf")])
    def test_no_balanced_point_outside_ratio_range(self, g1, g2, shown):
        resp = cq.ScatteringResponse(omega0=4.7e10, g1=g1, g2=g2)
        with pytest.raises(DegenerateResponseError, match=f"g2/g1\\| = {shown} lies outside"):
            cq.balanced_center_frequency(resp)

    def test_scan_agrees_with_closed_form(self, response):
        closed = cq.balanced_center_frequency(response)
        fwhm = cq.half_power_bandwidth(response)
        found = cq.scan_balanced_center(response, SIGMA, half_width=0.5 * fwhm, n_scan=41)
        step = fwhm / (41 - 1)
        assert abs(found - closed) <= step * (1 + 1e-12)


def _exact_zero_flux_case():
    """Inputs for which detector 1 sees exactly zero flux.

    With g2 = 0 the transmission is identically zero, and for a packet on
    resonance the reflected amplitude sqrt(2*pi)/sigma - 2*Gamma*F is real:
    w(i*y) is real on the imaginary axis.  It vanishes where w(i*y) =
    1/(2*sqrt(pi)*y), at y = Gamma*sigma/sqrt(2) = 0.43275159936630775.  The
    cancellation lands on a representable zero only for particular
    rounding, so search a few ulp around that coupling.
    """
    base = math.sqrt(math.sqrt(2.0) * 0.43275159936630775 / math.pi)
    pkt1 = cq.PhotonWavepacket(6.0, 1.0, port=1)
    pkt2 = cq.PhotonWavepacket(6.0, 1.0, port=2)
    for k in range(-50, 51):
        g1 = base
        for _ in range(abs(k)):
            g1 = math.nextafter(g1, math.inf if k > 0 else -math.inf)
        resp = cq.ScatteringResponse(omega0=6.0, g1=g1, g2=0.0)
        _, b, c = _coincidence_terms(resp, 1.0, 1.0, 6.0, 6.0, np.zeros(1), "time_local")
        if b[0] * c[0] == 0.0:
            return resp, pkt1, pkt2
    return None


class TestUndefinedCorrelation:
    def test_zero_flux_raises(self):
        case = _exact_zero_flux_case()
        if case is None:
            pytest.skip("rounding on this platform never cancels the flux exactly")
        resp, pkt1, pkt2 = case
        abc = _coincidence_terms(resp, pkt1.sigma, pkt2.sigma, pkt1.omega_in, pkt2.omega_in,
                                 np.zeros(1), "time_local")
        with pytest.raises(UndefinedCorrelationError):
            _ratio(*(value[0] for value in abc))

    def test_curve_marks_missing_points(self):
        case = _exact_zero_flux_case()
        if case is None:
            pytest.skip("rounding on this platform never cancels the flux exactly")
        resp, pkt1, pkt2 = case
        curve = cq.hom_curve(resp, pkt1, pkt2, [-1e-2, 0.0, 1e-2],
                             normalization="time_local")
        assert all(math.isnan(v) for v in curve.g2_values)
        assert curve.taus == (-1e-2, 0.0, 1e-2)


class TestDelayBlocks:
    @pytest.mark.parametrize("normalization", ["time_local", "integrated"])
    @pytest.mark.parametrize("sigma2, n_bins", [
        (SIGMA, 8192),          # balanced, time_local and scan variants
        (0.6 * SIGMA, 8192),    # mismatched widths
        (SIGMA, 16384),
    ])
    def test_curve_equals_one_delay_curves(self, response, normalization, sigma2, n_bins):
        # Every delay of a curve is bitwise its one-delay value, in either
        # delay order, and within GRID_ATOL of the n_bins grid sums of the
        # benchmark variant it stands for.
        center = cq.balanced_center_frequency(response)
        pkt1 = cq.PhotonWavepacket(center, SIGMA, port=1)
        pkt2 = cq.PhotonWavepacket(center, sigma2, port=2)
        taus = np.linspace(-10 * SIGMA, 10 * SIGMA, 101)
        curve = cq.hom_curve(response, pkt1, pkt2, taus, normalization=normalization)
        alone = tuple(one_delay_g2(response, pkt1, pkt2, tau, normalization) for tau in taus)
        assert np.array(curve.g2_values).tobytes() == np.array(alone).tobytes()
        reverse = cq.hom_curve(response, pkt1, pkt2, taus[::-1], normalization=normalization)
        assert reverse.g2_values == curve.g2_values[::-1]
        grid = oracles.default_grid(response, sigma2, n_bins=n_bins, center=center)
        npt.assert_allclose(curve.g2_values,
                            grid_g2(response, pkt1, pkt2, taus, grid, normalization),
                            rtol=0, atol=GRID_ATOL)


class TestSharedScanSpectrum:
    @pytest.mark.parametrize("normalization", ["time_local", "integrated"])
    @pytest.mark.parametrize("sigma", [0.96 * SIGMA, SIGMA, 1.04 * SIGMA])
    def test_matches_per_grid_scan(self, response, normalization, sigma):
        # 41 candidates over the CLI's +-Gamma window against 41 grid sums of
        # 8192 bins, each grid centred on its candidate.  The dips agree far
        # inside the lead of the best one (> 1.9 relative), so the same
        # candidate wins.
        half_width = cq.half_power_bandwidth(response) / 2
        candidates, dips = cq.hom._scan_dips(response, sigma, half_width, 41, normalization)
        expected_candidates, expected = oracles.scan_dips_per_grid(
            response, sigma, half_width, 41, 8192, normalization)
        assert candidates == expected_candidates
        npt.assert_allclose(dips, expected, rtol=1e-10, atol=0)
        assert np.argmin(dips) == np.argmin(expected)
        found = cq.scan_balanced_center(response, sigma, half_width=half_width, n_scan=41,
                                        normalization=normalization)
        assert found == expected_candidates[int(np.argmin(expected))]

    @pytest.mark.parametrize("normalization", ["time_local", "integrated"])
    def test_cli_window_leaves_the_mirror_point_out(self, normalization, monkeypatch,
                                                     tmp_path):
        # +-1 FWHM would reach the mirror point omega0 - Gamma, where |R| = |T|
        # too, and the best dip would lead the next by only ~5e-12 (integrated)
        # and ~6e-10 (time_local) relative: round-off could pick the centre.
        scans, scan_dips = [], cq.hom._scan_dips

        def recorded(*args):
            scans.append((args, scan_dips(*args)))
            return scans[-1][1]

        monkeypatch.setattr(cq.hom, "_scan_dips", recorded)
        assert cli.main(["hom", "--config", HOM, "--out", str(tmp_path / "h.csv"),
                         "--override", "hom.center=scan",
                         "--override", f"hom.normalization={normalization}"]) == 0
        [((resp, _, half_width, _, _), (candidates, dips))] = scans
        assert half_width == cq.half_power_bandwidth(resp) / 2.0
        best, second = sorted(dips)[:2]
        assert (second - best) / best > 1e-3
        assert candidates[int(np.argmin(dips))] == cq.balanced_center_frequency(resp)

    @pytest.mark.parametrize("n_scan", [0, -3, 2.5])
    def test_scan_count_checked(self, response, n_scan):
        with pytest.raises(ValueError, match="n_scan must be an integer >= 1"):
            cq.scan_balanced_center(response, SIGMA, half_width=1e3, n_scan=n_scan)

    @pytest.mark.parametrize("half_width", [-1.0, math.nan, math.inf])
    def test_scan_half_width_checked(self, response, half_width):
        with pytest.raises(ValueError, match="half_width must be finite and >= 0"):
            cq.scan_balanced_center(response, SIGMA, half_width=half_width, n_scan=3)

    def test_single_candidate(self, response):
        closed = cq.balanced_center_frequency(response)
        assert cq.scan_balanced_center(response, SIGMA, half_width=0.0, n_scan=1) == closed
