import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import cavqed as cq
from cavqed import config
from cavqed.errors import (DegenerateResponseError, GridCoverageWarning,
                           UndefinedCorrelationError)
from cavqed.hom import _abc, _g2_at

import oracles

SIGMA = 2.5e-6
# Frozen correlations for matched 2.5 us packets at the balanced center
# frequency of the symmetric two-port response (8192-bin default grid).
DIP_TIME_LOCAL = 8.60966709290488e-06
DIP_INTEGRATED = 0.0010395711148581954
TAIL_INTEGRATED = 0.5000005336825472


@pytest.fixture(scope="module")
def balanced(response):
    center = cq.balanced_center_frequency(response)
    pkt1 = cq.PhotonWavepacket(omega_in=center, sigma=SIGMA, port=1)
    pkt2 = cq.PhotonWavepacket(omega_in=center, sigma=SIGMA, port=2)
    grid = cq.default_grid(response, SIGMA, n_bins=8192)
    return pkt1, pkt2, grid


def one_delay_g2(resp, pkt1, pkt2, tau, grid, normalization):
    """The correlation at one delay: a one-delay :func:`cavqed.hom_curve`."""
    return cq.hom_curve(resp, pkt1, pkt2, [tau], grid,
                        normalization=normalization).g2_values[0]


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
        grid = cq.FrequencyGrid(1.0, 2.0, 5)
        npt.assert_allclose(grid.omegas, np.linspace(1.0, 2.0, 5), rtol=0)
        with pytest.raises(ValueError):
            cq.FrequencyGrid(2.0, 1.0, 5)
        with pytest.raises(ValueError):
            cq.FrequencyGrid(1.0, 2.0, 1)

    def test_curve_validation(self):
        curve = cq.HomCurve(taus=(0.0, 1.0), g2_values=(0.5, 0.25))
        assert curve.taus == (0.0, 1.0)
        with pytest.raises(ValueError):
            cq.HomCurve(taus=(0.0, 1.0), g2_values=(0.5,))


class TestSpectralWeights:
    def test_unit_norm(self, response, balanced):
        pkt1, _, grid = balanced
        weights = cq.spectral_weights(pkt1, grid)
        npt.assert_allclose(np.sum(np.abs(weights) ** 2), 1.0, rtol=1e-14)

    def test_reference_time_phase(self, response, balanced):
        pkt1, _, grid = balanced
        base = cq.spectral_weights(pkt1, grid)
        shifted = cq.spectral_weights(pkt1, grid, t_ref=3e-7)
        npt.assert_allclose(shifted, base * np.exp(1j * grid.omegas * 3e-7),
                            rtol=1e-12)

    @pytest.mark.parametrize("t_ref", [0.0, -0.0])
    def test_zero_reference_time_is_bitwise_the_phase_form(self, balanced, t_ref):
        # at t_ref = 0 the phase factor exp(i*omega*t_ref) is exactly 1+0j
        for pkt in balanced[:2]:
            om = balanced[2].omegas
            env = np.exp(-0.5 * (pkt.sigma * (om - pkt.omega_in))**2)
            phase_form = env / math.sqrt(float(env @ env)) * np.exp(1j * om * t_ref)
            weights = cq.spectral_weights(pkt, balanced[2], t_ref=t_ref)
            assert weights.dtype == phase_form.dtype
            assert weights.tobytes() == phase_form.tobytes()

    def test_coverage_warning(self, response):
        grid = cq.default_grid(response, SIGMA)
        outside = cq.PhotonWavepacket(
            omega_in=grid.omega_max + 1.0 / SIGMA, sigma=SIGMA, port=1)
        with pytest.warns(GridCoverageWarning):
            cq.spectral_weights(outside, grid)

    def test_zero_norm_rejected(self, response):
        grid = cq.FrequencyGrid(1e9, 1e9 + 1e3, 4)
        far = cq.PhotonWavepacket(omega_in=2e9, sigma=1e-3, port=1)
        with pytest.raises(ValueError), pytest.warns(GridCoverageWarning):
            cq.spectral_weights(far, grid)


class TestDefaultGrid:
    def test_narrowband_packet_sets_span(self, response):
        # For long packets the cavity linewidth dominates the span.
        grid = cq.default_grid(response, sigma=1.0)
        fwhm = cq.half_power_bandwidth(response)
        npt.assert_allclose(grid.omega_max - grid.omega_min, 40 * fwhm, rtol=1e-12)

    def test_broadband_packet_sets_span(self, response):
        grid = cq.default_grid(response, sigma=1e-9)
        npt.assert_allclose(grid.omega_max - grid.omega_min, 2 * 20 / 1e-9,
                            rtol=1e-12)

    def test_centering(self, response):
        grid = cq.default_grid(response, SIGMA)
        mid = 0.5 * (grid.omega_min + grid.omega_max)
        npt.assert_allclose(mid, response.omega0, rtol=1e-12)
        shifted = cq.default_grid(response, SIGMA, center=response.omega0 + 5e6)
        mid = 0.5 * (shifted.omega_min + shifted.omega_max)
        npt.assert_allclose(mid, response.omega0 + 5e6, rtol=1e-12)

    def test_alias_period_clears_scan_window(self, response):
        # The discrete grid makes every sum periodic in time with period
        # 2*pi/d_omega; the default bin count must push that beyond 10 sigma.
        grid = cq.default_grid(response, SIGMA, n_bins=8192)
        d_omega = grid.omegas[1] - grid.omegas[0]
        assert 2 * math.pi / d_omega > 10 * SIGMA

    def test_default_bins_clear_shipped_delays(self, response):
        # The library default is the CLI default, and its alias period holds
        # the whole +-10 sigma delay span of the shipped configuration.
        assert cq.hom.DEFAULT_N_BINS == config.get_setting({}, "hom.n_bins")
        grid = cq.default_grid(response, SIGMA)
        d_omega = grid.omegas[1] - grid.omegas[0]
        assert 2 * math.pi / d_omega > 2 * 10 * SIGMA


class TestCorrelations:
    def test_dip_time_local(self, response, balanced):
        pkt1, pkt2, grid = balanced
        npt.assert_allclose(one_delay_g2(response, pkt1, pkt2, 0.0, grid, "time_local"),
                            DIP_TIME_LOCAL, rtol=1e-6)

    def test_tail_time_local(self, response, balanced):
        pkt1, pkt2, grid = balanced
        npt.assert_allclose(one_delay_g2(response, pkt1, pkt2, 10 * SIGMA, grid, "time_local"),
                            1.0, rtol=1e-9)

    def test_dip_integrated(self, response, balanced):
        pkt1, pkt2, grid = balanced
        npt.assert_allclose(one_delay_g2(response, pkt1, pkt2, 0.0, grid, "integrated"),
                            DIP_INTEGRATED, rtol=1e-6)

    def test_tail_integrated(self, response, balanced):
        pkt1, pkt2, grid = balanced
        npt.assert_allclose(one_delay_g2(response, pkt1, pkt2, 10 * SIGMA, grid, "integrated"),
                            TAIL_INTEGRATED, rtol=1e-6)

    def test_delay_symmetry(self, response, balanced):
        pkt1, pkt2, grid = balanced
        for tau in (0.7 * SIGMA, 2.0 * SIGMA):
            plus = one_delay_g2(response, pkt1, pkt2, tau, grid, "integrated")
            minus = one_delay_g2(response, pkt1, pkt2, -tau, grid, "integrated")
            npt.assert_allclose(plus, minus, rtol=1e-9)

    def test_detection_time_invariance(self, response, balanced):
        pkt1, pkt2, grid = balanced
        ref = _abc(response, pkt1, pkt2, 1.1 * SIGMA, grid, t0=0.0)
        moved = _abc(response, pkt1, pkt2, 1.1 * SIGMA, grid, t0=1.3 * SIGMA)
        g_ref = ref[0] / (ref[1] * ref[2])
        g_moved = moved[0] / (moved[1] * moved[2])
        npt.assert_allclose(g_moved, g_ref, rtol=1e-9)

    def test_port_roles_enforced(self, response, balanced):
        pkt1, pkt2, grid = balanced
        same_port = cq.PhotonWavepacket(pkt2.omega_in, pkt2.sigma, port=1)
        with pytest.raises(ValueError):
            cq.hom_curve(response, pkt1, same_port, [0.0], grid, normalization="time_local")
        with pytest.raises(ValueError):
            cq.hom_curve(response, pkt2, pkt2, [0.0], grid, normalization="integrated")

    def test_bounded_on_random_draws(self, response):
        rng = np.random.default_rng(7)
        grid = cq.default_grid(response, SIGMA, n_bins=512)
        fwhm = cq.half_power_bandwidth(response)
        for _ in range(25):
            center1 = response.omega0 + rng.uniform(-1, 1) * fwhm
            center2 = response.omega0 + rng.uniform(-1, 1) * fwhm
            sigma1 = SIGMA * rng.uniform(0.5, 2.0)
            sigma2 = SIGMA * rng.uniform(0.5, 2.0)
            tau = rng.uniform(-2, 2) * SIGMA
            pkt1 = cq.PhotonWavepacket(center1, sigma1, port=1)
            pkt2 = cq.PhotonWavepacket(center2, sigma2, port=2)
            for value in (one_delay_g2(response, pkt1, pkt2, tau, grid, "time_local"),
                          one_delay_g2(response, pkt1, pkt2, tau, grid, "integrated")):
                assert 0.0 <= value <= 1.0 + 1e-12

    @pytest.mark.filterwarnings("ignore::cavqed.errors.GridCoverageWarning")
    def test_matches_brute_force_enumeration(self, response):
        # Independent oracle: enumerate the two-photon output amplitudes over
        # all (m, n) frequency pairs on a deliberately tiny grid; the grid
        # truncates the packets (hence the coverage warning) identically on
        # both sides of the comparison.
        rng = np.random.default_rng(21)
        fwhm = cq.half_power_bandwidth(response)
        grid = cq.FrequencyGrid(response.omega0 - 3 * fwhm,
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
            actual = np.array(_abc(response, pkt1, pkt2, taus, grid, t0=t0))
            w1 = cq.spectral_weights(pkt1, grid, t_ref=t0)
            for k, tau in enumerate(taus):
                # The input state carries the packet timing phases: packet 1
                # is referenced to t0, packet 2 to t0 + tau.
                w2 = cq.spectral_weights(pkt2, grid, t_ref=t0 + tau)
                expected = oracles.brute_force_abc(response, w1, w2,
                                                   grid.omegas, tau, t0)
                npt.assert_allclose(actual[:, k], expected, rtol=1e-10, atol=1e-30)


class TestHomCurve:
    def test_curve_shapes_and_time_local(self, response, balanced):
        # Every delay is bitwise the value of a one-delay curve, in either
        # normalization and in either delay order.
        pkt1, pkt2, grid = balanced
        taus = np.linspace(-2 * SIGMA, 2 * SIGMA, 6)
        for normalization in ("time_local", "integrated"):
            for order in (taus, taus[::-1]):
                curve = cq.hom_curve(response, pkt1, pkt2, order, grid,
                                     normalization=normalization)
                assert len(curve.taus) == len(curve.g2_values) == 6
                npt.assert_array_equal(curve.taus, order)
                for tau, value in zip(curve.taus, curve.g2_values):
                    npt.assert_allclose(
                        value, one_delay_g2(response, pkt1, pkt2, tau, grid, normalization),
                        rtol=0)

    @pytest.mark.parametrize("sigma2", [SIGMA, 0.6 * SIGMA])
    def test_integrated_curve_matches_gaussian_closed_form(self, response, sigma2):
        # Broadband cavity limit: 1/2 (1 - V exp(-tau^2 / (s1^2 + s2^2))) with
        # visibility V = 2 s1 s2 / (s1^2 + s2^2), at every delay out to 10 sigma.
        center = cq.balanced_center_frequency(response)
        pkt1 = cq.PhotonWavepacket(omega_in=center, sigma=SIGMA, port=1)
        pkt2 = cq.PhotonWavepacket(omega_in=center, sigma=sigma2, port=2)
        grid = cq.default_grid(response, sigma2, n_bins=8192, center=center)
        taus = np.linspace(-10 * SIGMA, 10 * SIGMA, 101)
        curve = cq.hom_curve(response, pkt1, pkt2, taus, grid)
        width2 = SIGMA**2 + sigma2**2
        closed = 0.5 * (1.0 - 2.0 * SIGMA * sigma2 / width2 * np.exp(-taus**2 / width2))
        npt.assert_allclose(curve.g2_values, closed, rtol=0, atol=2e-3)

    def test_one_response_evaluation_per_curve(self, response, balanced, monkeypatch):
        pkt1, pkt2, grid = balanced
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return cq.transfer_functions(*args, **kwargs)

        monkeypatch.setattr("cavqed.hom.transfer_functions", counting)
        for normalization in ("integrated", "time_local"):
            cq.hom_curve(response, pkt1, pkt2, np.linspace(-SIGMA, SIGMA, 11), grid,
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
        # The sums skip the bins where both packet weights underflow to 0.0;
        # only np.sum's pairwise grouping may differ from summing every bin.
        # A, B, C are O(1) in the integrated normalization, but the time-local
        # A reaches ~5e3, where one ulp is ~1e-12: their bound scales with them.
        center = cq.balanced_center_frequency(response)
        pkt1 = cq.PhotonWavepacket(center + offsets[0] / SIGMA, SIGMA, port=1)
        pkt2 = cq.PhotonWavepacket(center + offsets[1] / sigma2, sigma2, port=2)
        grid = cq.default_grid(response, sigma2, n_bins=n_bins, center=center)
        reached = (cq.spectral_weights(pkt1, grid) != 0) | (cq.spectral_weights(pkt2, grid) != 0)
        assert np.count_nonzero(reached) < grid.n_bins / 4
        taus = np.linspace(-10 * SIGMA, 10 * SIGMA, 21)
        actual = _abc(response, pkt1, pkt2, taus, grid, t0=t0, normalization=normalization)
        expected = oracles.full_grid_abc(response, pkt1, pkt2, taus, grid, t0=t0,
                                         normalization=normalization)
        for value, reference in zip(actual, expected):
            npt.assert_allclose(value, reference, rtol=0,
                                atol=1e-14 * max(1.0, np.max(np.abs(reference))))
        npt.assert_allclose(actual[0] / (actual[1] * actual[2]),
                            expected[0] / (expected[1] * expected[2]), rtol=0, atol=1e-14)
        curve = cq.hom_curve(response, pkt1, pkt2, taus, grid, normalization=normalization)
        a, b, c = oracles.full_grid_abc(response, pkt1, pkt2, taus, grid,
                                        normalization=normalization)
        npt.assert_allclose(curve.g2_values, a / (b * c), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("normalization", ["time_local", "integrated"])
    def test_broadband_packet_sums_every_bin_bitwise(self, response, normalization):
        # default_grid spans +-20/sigma here, so no weight underflows and the
        # trimmed sums are the full-grid sums, bit for bit.
        sigma = SIGMA / 1000
        center = cq.balanced_center_frequency(response)
        pkt1 = cq.PhotonWavepacket(center, sigma, port=1)
        pkt2 = cq.PhotonWavepacket(center, sigma, port=2)
        grid = cq.default_grid(response, sigma, n_bins=4096, center=center)
        npt.assert_allclose(grid.omega_max - grid.omega_min, 40 / sigma, rtol=1e-12)
        taus = np.linspace(-10 * sigma, 10 * sigma, 21)
        actual = _abc(response, pkt1, pkt2, taus, grid, t0=0.7 * sigma,
                      normalization=normalization)
        expected = oracles.full_grid_abc(response, pkt1, pkt2, taus, grid, t0=0.7 * sigma,
                                         normalization=normalization)
        for value, reference in zip(actual, expected):
            npt.assert_array_equal(value, reference)

    @pytest.mark.parametrize("sigma, sigma2, n_bins, bound", [
        (SIGMA, SIGMA, 8192, 600),                   # hom_default: tails underflow
        (SIGMA, 0.6 * SIGMA, 8192, 900),             # packet 2 reaches further
        (SIGMA / 1000, SIGMA / 1000, 4096, None),    # broadband: nothing underflows
    ])
    def test_response_evaluated_only_where_packets_reach(self, response, monkeypatch,
                                                         sigma, sigma2, n_bins, bound):
        center = cq.balanced_center_frequency(response)
        pkt1 = cq.PhotonWavepacket(center, sigma, port=1)
        pkt2 = cq.PhotonWavepacket(center, sigma2, port=2)
        grid = cq.default_grid(response, sigma2, n_bins=n_bins, center=center)
        seen = []

        def recording(resp, omega):
            seen.append(np.array(omega))
            return cq.transfer_functions(resp, omega)

        monkeypatch.setattr("cavqed.hom.transfer_functions", recording)
        for normalization in ("integrated", "time_local"):
            cq.hom_curve(response, pkt1, pkt2, [0.0, sigma], grid,
                         normalization=normalization)
        reached = ((cq.spectral_weights(pkt1, grid) != 0)
                   | (cq.spectral_weights(pkt2, grid) != 0))
        assert len(seen) == 2
        for omega in seen:
            if bound is None:
                assert omega.size == grid.n_bins
            else:
                assert omega.size <= bound
            assert np.isin(grid.omegas[reached], omega).all()

    def test_rejects_non_1d_delays(self, response, balanced):
        pkt1, pkt2, grid = balanced
        with pytest.raises(ValueError):
            cq.hom_curve(response, pkt1, pkt2, [[0.0, SIGMA]], grid)

    def test_curve_integrated_default(self, response, balanced):
        pkt1, pkt2, grid = balanced
        curve = cq.hom_curve(response, pkt1, pkt2, [0.0], grid)
        npt.assert_allclose(curve.g2_values[0], DIP_INTEGRATED, rtol=1e-6)

    def test_unknown_normalization(self, response, balanced):
        pkt1, pkt2, grid = balanced
        with pytest.raises(ValueError):
            cq.hom_curve(response, pkt1, pkt2, [0.0], grid,
                         normalization="per_packet")
        with pytest.raises(ValueError):
            cq.scan_balanced_center(response, SIGMA, half_width=1e3, n_scan=3,
                                    n_bins=512, normalization="per_packet")


class TestBalancedCenter:
    def test_closed_form(self, response):
        expected = response.omega0 + math.pi * (response.g1**2 + response.g2**2)
        npt.assert_allclose(cq.balanced_center_frequency(response), expected,
                            rtol=1e-15)

    def test_degenerate_rejected(self):
        dead = cq.ScatteringResponse(omega0=1e9, g1=0.0, g2=0.0)
        with pytest.raises(DegenerateResponseError):
            cq.balanced_center_frequency(dead)

    def test_scan_agrees_with_closed_form(self, response):
        closed = cq.balanced_center_frequency(response)
        fwhm = cq.half_power_bandwidth(response)
        found = cq.scan_balanced_center(response, SIGMA, half_width=0.5 * fwhm,
                                        n_scan=41, n_bins=4096)
        step = fwhm / (41 - 1)
        assert abs(found - closed) <= step * (1 + 1e-12)


def _exact_zero_flux_case():
    """Inputs for which detector 1 sees exactly zero flux.

    With g2 = 0 the transmission is identically zero, and on a two-bin grid
    symmetric about resonance the reflection amplitudes are exact complex
    conjugates; near g1^2 = 2/pi their common real part cancels to exactly
    0.0 in IEEE arithmetic.  The cancellation lands on a representable zero
    only for particular rounding, so search a few ulp around the target.
    """
    base = math.sqrt(2.0 / math.pi)
    grid = cq.FrequencyGrid(4.0, 8.0, 2)
    pkt1 = cq.PhotonWavepacket(6.0, 1e-2, port=1)
    pkt2 = cq.PhotonWavepacket(6.0, 1e-2, port=2)
    for k in range(-50, 51):
        g1 = base
        for _ in range(abs(k)):
            g1 = math.nextafter(g1, math.inf if k > 0 else -math.inf)
        resp = cq.ScatteringResponse(omega0=6.0, g1=g1, g2=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridCoverageWarning)
            _, b, c = _abc(resp, pkt1, pkt2, 0.0, grid)
        if b * c == 0.0:
            return resp, pkt1, pkt2, grid
    return None


class TestUndefinedCorrelation:
    def test_zero_flux_raises(self):
        case = _exact_zero_flux_case()
        if case is None:
            pytest.skip("rounding on this platform never cancels the flux exactly")
        resp, pkt1, pkt2, grid = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridCoverageWarning)
            with pytest.raises(UndefinedCorrelationError):
                _g2_at(resp, pkt1, pkt2, 0.0, grid, "time_local")

    def test_curve_marks_missing_points(self):
        case = _exact_zero_flux_case()
        if case is None:
            pytest.skip("rounding on this platform never cancels the flux exactly")
        resp, pkt1, pkt2, grid = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridCoverageWarning)
            curve = cq.hom_curve(resp, pkt1, pkt2, [-1e-2, 0.0, 1e-2], grid,
                                 normalization="time_local")
        assert all(math.isnan(v) for v in curve.g2_values)
        assert curve.taus == (-1e-2, 0.0, 1e-2)
