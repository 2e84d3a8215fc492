import math

import numpy as np
import numpy.testing as npt
import pytest

import cavqed as cq
from cavqed.errors import DegenerateResponseError

from conftest import make_probe

# Frozen reference coupling for the fundamental at z = 10 mm on the bottom
# wall (0.05 / 2.5 mm coax, 64 x 64 quadrature), in sqrt(rad/s).
REFERENCE_G = -994.3656269125462


class TestPortCoupling:
    def test_reference_value(self, geom, te101):
        pc = cq.port_coupling(te101, geom, make_probe(geom, 10e-3, "bottom"))
        npt.assert_allclose(pc.g, REFERENCE_G, rtol=1e-9)

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
        g64 = cq.port_coupling(te101, geom, probe, 64, 64).g
        g128 = cq.port_coupling(te101, geom, probe, 128, 128).g
        assert abs(g128 - g64) / abs(g64) < 1e-5

    def test_resolution_validation(self, geom, te101):
        probe = make_probe(geom, 10e-3)
        with pytest.raises(ValueError):
            cq.port_coupling(te101, geom, probe, n_rho=1)
        with pytest.raises(ValueError):
            cq.port_coupling(te101, geom, probe, n_phi=3)

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

    def test_scalar_matches_vector(self, response):
        omegas = response.omega0 + np.array([-3e6, 0.0, 5e6])
        batch = cq.transfer_functions(response, omegas)
        for i, omega in enumerate(omegas):
            npt.assert_array_equal(cq.transfer_functions(response, omega), batch[i])

    def test_degenerate_rejected(self):
        dead = cq.ScatteringResponse(omega0=1e9, g1=0.0, g2=0.0)
        with pytest.raises(DegenerateResponseError):
            cq.transfer_functions(dead, 1e9)
        with pytest.raises(DegenerateResponseError):
            cq.half_power_bandwidth(dead)

    def test_single_sided_cavity(self):
        # One dead port: |R| = 1 everywhere (all power returns), no transmission.
        resp = cq.ScatteringResponse(omega0=2 * math.pi * 7e9, g1=500.0, g2=0.0)
        omegas = resp.omega0 + np.linspace(-1, 1, 11) * 1e7
        s = cq.transfer_functions(resp, omegas)
        npt.assert_allclose(np.abs(s[:, 0, 0]), 1.0, rtol=1e-12)
        npt.assert_allclose(s[:, 0, 1], 0.0, atol=1e-15)
        npt.assert_allclose(np.abs(s[:, 1, 1]), 1.0, rtol=1e-12)
