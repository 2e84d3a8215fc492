import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import j0

import cavqed as cq
from cavqed.constants import C0
from cavqed.errors import DegenerateResponseError
from cavqed.ports import _j0_difference

import oracles
from conftest import make_probe

# Frozen reference coupling for the fundamental at z = 10 mm on the bottom
# wall (0.05 / 2.5 mm coax, 64 x 64 oracle quadrature), in sqrt(rad/s).
REFERENCE_G = -994.3656269125462
# The same coupling from the closed form of port_coupling.
CLOSED_FORM_G = -994.3679792275288

# Modes of the h^2 convergence check, and probes off every symmetry line.
CONVERGENCE_MODES = [("TE", 1, 0, 1), ("TE", 1, 0, 2), ("TE", 1, 0, 3),
                     ("TE", 1, 1, 1), ("TM", 1, 1, 1)]
# Every TE and TM mode of the reference cavity up to 20 GHz (m <= 2, n <= 1, p <= 5).
DRAWN_MODES = [mode.index for mode in cq.mode_list(
    cq.CavityGeometry(a=22.86e-3, b=10.16e-3, d=40e-3), 20e9)]


def coupling_scale(mode, geom, probe):
    """(c0/2) * max|H| * integral(|E_TEM| dS), a bound on |g|: the TEM field
    s/rho, s = 1/(pi*sqrt(c0*ln(r_o/r_i))), integrates to 2*pi*s*(r_o - r_i)."""
    rho, phi = np.meshgrid(np.linspace(probe.r_inner, probe.r_outer, 9),
                           np.linspace(0.0, 2 * math.pi, 16), indexing="ij")
    y_wall = 0.0 if probe.wall == "bottom" else geom.b
    # a rim point of an annulus that touches a side wall can round past it
    points = np.stack([np.clip(probe.x0 + rho * np.cos(phi), 0.0, geom.a),
                       np.full_like(rho, y_wall),
                       np.clip(probe.z0 + rho * np.sin(phi), 0.0, geom.d)], axis=-1)
    h_max = np.linalg.norm(cq.eval_fields(mode, geom, points)[1], axis=-1).max()
    log_ratio = math.log(probe.r_outer / probe.r_inner)
    return C0 * h_max * (probe.r_outer - probe.r_inner) / math.sqrt(C0 * log_ratio)


def convergence_cases():
    for eps_r in (1.0, 2.2):
        geom = cq.CavityGeometry(a=22.86e-3, b=10.16e-3, d=40e-3, eps_r=eps_r)
        for index in CONVERGENCE_MODES:
            mode = cq.make_mode(cq.ModeIndex(*index), geom)
            for wall, z0 in (("bottom", 13e-3), ("top", 30e-3)):
                probe = cq.CoaxProbe(x0=0.4 * geom.a, z0=z0, r_inner=0.05e-3,
                                     r_outer=2.5e-3, h=0.75e-3, wall=wall)
                yield f"{mode.index.label}-{wall}-eps{eps_r}", mode, geom, probe


class TestPortCoupling:
    def test_reference_value(self, geom, te101):
        pc = oracles.port_coupling_quadrature(te101, geom, make_probe(geom, 10e-3, "bottom"))
        npt.assert_allclose(pc.g, REFERENCE_G, rtol=1e-9)

    def test_closed_form_reference_value(self, geom, te101):
        pc = cq.port_coupling(te101, geom, make_probe(geom, 10e-3, "bottom"))
        npt.assert_allclose(pc.g, CLOSED_FORM_G, rtol=1e-12)

    def test_opposite_walls_antisymmetric(self, geom, te101):
        g_bottom = cq.port_coupling(te101, geom, make_probe(geom, 10e-3, "bottom")).g
        g_top = cq.port_coupling(te101, geom, make_probe(geom, 30e-3, "top")).g
        npt.assert_allclose(g_top, -g_bottom, rtol=1e-12)

    def test_same_wall_mirror_parity(self, geom, te101, te102):
        # Mirroring z0 -> d - z0 on the same wall preserves the coupling for
        # odd longitudinal index and flips it for even.
        g1 = cq.port_coupling(te101, geom, make_probe(geom, 10e-3, "bottom")).g
        g2 = cq.port_coupling(te101, geom, make_probe(geom, 30e-3, "bottom")).g
        npt.assert_allclose(g2, g1, rtol=1e-12)
        g1 = cq.port_coupling(te102, geom, make_probe(geom, 10e-3, "bottom")).g
        g2 = cq.port_coupling(te102, geom, make_probe(geom, 30e-3, "bottom")).g
        npt.assert_allclose(g2, -g1, rtol=1e-12)

    def test_node_position_decouples(self, geom, te102):
        # z = d/2 is an H_z node of the p = 2 mode: the port integral vanishes.
        g_mid = cq.port_coupling(te102, geom, make_probe(geom, 20e-3, "bottom")).g
        assert abs(g_mid) < 1e-10

    def test_quadrature_refinement(self, geom, te101):
        probe = make_probe(geom, 10e-3)
        g64 = oracles.port_coupling_quadrature(te101, geom, probe, 64, 64).g
        g128 = oracles.port_coupling_quadrature(te101, geom, probe, 128, 128).g
        assert abs(g128 - g64) / abs(g64) < 1e-5

    def test_resolution_validation(self, geom, te101):
        probe = make_probe(geom, 10e-3)
        with pytest.raises(ValueError):
            oracles.port_coupling_quadrature(te101, geom, probe, n_rho=1)
        with pytest.raises(ValueError):
            oracles.port_coupling_quadrature(te101, geom, probe, n_phi=3)

    @pytest.mark.parametrize("case", list(convergence_cases()), ids=lambda case: case[0])
    def test_quadrature_converges_as_h_squared(self, case):
        # The trapezoidal rule in rho errs by O(h^2): each doubling of the
        # rho-nodes cuts its distance to the closed form by ((2n-1)/(n-1))^2 ~ 4.
        _, mode, geom, probe = case
        exact = cq.port_coupling(mode, geom, probe).g
        errors = [abs(oracles.port_coupling_quadrature(mode, geom, probe, n_rho, 64).g - exact)
                  / abs(exact) for n_rho in (64, 128, 256, 512)]
        assert errors[-1] <= 1.2e-7  # 1.07e-7 for TE103, the largest
        for n_rho, coarse, fine in zip((64, 128, 256), errors, errors[1:]):
            npt.assert_allclose(coarse / fine, ((2 * n_rho - 1) / (n_rho - 1)) ** 2,
                                rtol=0.02)

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(10e-3, 50e-3), b=st.floats(5e-3, 20e-3), d=st.floats(10e-3, 50e-3),
           eps_r=st.floats(1.0, 4.0), index=st.sampled_from(DRAWN_MODES),
           wall=st.sampled_from(["bottom", "top"]), r_outer=st.floats(0.2e-3, 2.5e-3),
           inner_ratio=st.floats(0.01, 0.9), x_frac=st.floats(0.0, 1.0),
           z_frac=st.floats(0.0, 1.0))
    def test_closed_form_matches_quadrature(self, a, b, d, eps_r, index, wall, r_outer,
                                            inner_ratio, x_frac, z_frac):
        geom = cq.CavityGeometry(a=a, b=b, d=d, eps_r=eps_r)
        mode = cq.make_mode(index, geom)
        probe = cq.CoaxProbe(x0=min(r_outer + x_frac * (a - 2 * r_outer), a - r_outer),
                             z0=min(r_outer + z_frac * (d - 2 * r_outer), d - r_outer),
                             r_inner=inner_ratio * r_outer, r_outer=r_outer, h=0.0,
                             wall=wall)
        # Richardson's extrapolation of the O(h^2) rule, at h and h/2
        coarse, fine = (oracles.port_coupling_quadrature(mode, geom, probe, n_rho, 128).g
                        for n_rho in (129, 257))
        extrapolated = (4.0 * fine - coarse) / 3.0
        assert abs(cq.port_coupling(mode, geom, probe).g - extrapolated) <= 1e-9 * coupling_scale(
            mode, geom, probe)

    def test_annulus_must_fit_wall(self, geom, te101):
        probe = cq.CoaxProbe(x0=1e-3, z0=10e-3, r_inner=0.05e-3,
                             r_outer=2.5e-3, h=0.75e-3)
        with pytest.raises(ValueError):
            cq.port_coupling(te101, geom, probe)

    def test_footprint_rule_shared_with_perturbation(self, geom, te101):
        probe = cq.CoaxProbe(x0=1e-3, z0=10e-3, r_inner=0.05e-3,
                             r_outer=2.5e-3, h=0.75e-3)
        for call in (lambda: cq.port_coupling(te101, geom, probe),
                     lambda: cq.perturbed_frequency_tip(te101, geom, [probe])):
            with pytest.raises(ValueError, match="probe footprint extends outside"):
                call()


class TestJ0Difference:
    """J0(a) - J0(b), 0 <= a < b = kappa*r_o, as port_coupling evaluates it."""

    @settings(max_examples=300, deadline=None)
    @given(b=st.floats(0.1, 300.0), ratio=st.floats(0.0, 1.0, exclude_max=True))
    def test_matches_scipy(self, b, ratio):
        a = ratio * b
        reference = j0(a) - j0(b)
        # rounding the arguments alone moves J0 by up to b * eps
        tolerance = 1e-12 * abs(reference) + 4 * np.finfo(float).eps * (1 + b)
        assert abs(_j0_difference(a, b) - reference) <= tolerance

    @settings(max_examples=300, deadline=None)
    @given(b=st.floats(1e-6, 0.1), ratio=st.floats(0.0, 1.0, exclude_max=True))
    def test_matches_series_below_a_tenth(self, b, ratio):
        # J0(x) = 1 - x^2/4 + x^4/64 - x^6/2304 + ...: the two-term series of
        # the difference errs by less than its next term
        a = ratio * b
        squares = (b - a) * (b + a)  # b^2 - a^2 without cancellation
        series = squares * (1 / 4 - (b * b + a * a) / 64)
        next_term = squares * (b**4 + a * a * b * b + a**4) / 2304
        assert abs(_j0_difference(a, b) - series) <= next_term + 4e-15 * series


class TestTwoPortResponse:
    def test_symmetric_feed(self, geom, probes, te101, response):
        assert response.g1 == cq.port_coupling(te101, geom, probes[0]).g
        npt.assert_allclose(response.g2, -response.g1, rtol=1e-12)
        perturbed = cq.perturbed_frequency_tip(te101, geom, list(probes))
        assert response.omega0 == perturbed.omega_perturbed

    def test_response_validation(self):
        with pytest.raises(ValueError):
            cq.ScatteringResponse(omega0=-1.0, g1=1.0, g2=1.0)
        # NaN passes a `<= 0` test; every non-finite input is refused by name
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="omega0 must be positive and finite"):
                cq.ScatteringResponse(omega0=bad, g1=1.0, g2=1.0)
            with pytest.raises(ValueError, match="g2 must be finite"):
                cq.ScatteringResponse(omega0=1e9, g1=1.0, g2=bad)


class TestTransferFunctions:
    def test_unitary_and_reciprocal(self, response):
        omegas = response.omega0 + np.linspace(-50, 50, 101) * 1e6
        s = cq.transfer_functions(response, omegas)
        identity = np.einsum("...ij,...kj->...ik", s, s.conj())
        npt.assert_allclose(identity, np.broadcast_to(np.eye(2), identity.shape),
                            atol=1e-13)
        npt.assert_array_equal(s[..., 0, 1], s[..., 1, 0])

    def test_on_resonance_closed_form(self, response):
        s = cq.transfer_functions(response, response.omega0)
        g1sq, g2sq = response.g1**2, response.g2**2
        npt.assert_allclose(s[0, 0], (g2sq - g1sq) / (g1sq + g2sq), rtol=1e-12)
        npt.assert_allclose(s[1, 1], (g1sq - g2sq) / (g1sq + g2sq), rtol=1e-12)
        npt.assert_allclose(s[0, 1], -2 * response.g1 * response.g2 / (g1sq + g2sq),
                            rtol=1e-12)
        # Symmetric feed: full transmission on resonance.
        npt.assert_allclose(abs(s[0, 1]), 1.0, rtol=1e-12)

    def test_far_detuned_reflects(self, response):
        omega = response.omega0 + 1e4 * cq.half_power_bandwidth(response)
        s = cq.transfer_functions(response, omega)
        npt.assert_allclose(abs(s[0, 0]), 1.0, atol=1e-7)
        npt.assert_allclose(abs(s[0, 1]), 0.0, atol=1e-4)

    def test_half_power_bandwidth(self, response):
        fwhm = cq.half_power_bandwidth(response)
        npt.assert_allclose(
            fwhm, 2 * math.pi * (response.g1**2 + response.g2**2), rtol=1e-15)
        peak = abs(cq.transfer_functions(response, response.omega0)[0, 1])**2
        edge = abs(cq.transfer_functions(response, response.omega0 + fwhm / 2)[0, 1])**2
        npt.assert_allclose(edge, peak / 2, rtol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(g1=st.floats(-3e3, 3e3), g2=st.one_of(st.floats(-3e3, -1e-3), st.floats(1e-3, 3e3)),
           detunings=st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=6))
    def test_scalar_matches_vector(self, g1, g2, detunings):
        response = cq.ScatteringResponse(omega0=2 * math.pi * 7.55e9, g1=g1, g2=g2)
        omegas = response.omega0 + np.array(detunings)
        batch = cq.transfer_functions(response, omegas)
        assert batch.shape == (omegas.size, 2, 2)
        for i, omega in enumerate(omegas):
            assert cq.transfer_functions(response, omega).tobytes() == batch[i].tobytes()
        grid = cq.transfer_functions(response, omegas.reshape(1, -1))
        assert grid.tobytes() == batch.tobytes()

    def test_degenerate_rejected(self):
        # at 1e-155 the squares underflow to subnormals and 1/Gamma would overflow
        for g in (0.0, 1e-155):
            dead = cq.ScatteringResponse(omega0=1e9, g1=g, g2=g)
            with pytest.raises(DegenerateResponseError, match="both port couplings are zero"):
                cq.transfer_functions(dead, 1e9)
            with pytest.raises(DegenerateResponseError, match="both port couplings are zero"):
                cq.half_power_bandwidth(dead)

    def test_single_sided_cavity(self):
        # One dead port: |R| = 1 everywhere (all power returns), no transmission.
        resp = cq.ScatteringResponse(omega0=2 * math.pi * 7e9, g1=500.0, g2=0.0)
        omegas = resp.omega0 + np.linspace(-1, 1, 11) * 1e7
        s = cq.transfer_functions(resp, omegas)
        npt.assert_allclose(np.abs(s[:, 0, 0]), 1.0, rtol=1e-12)
        npt.assert_allclose(s[:, 0, 1], 0.0, atol=1e-15)
        npt.assert_allclose(np.abs(s[:, 1, 1]), 1.0, rtol=1e-12)
