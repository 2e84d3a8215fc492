import math

import numpy as np
import numpy.testing as npt
import pytest

import cavqed as cq
from cavqed.constants import C0, EPS0

import oracles
from conftest import make_probe

# Reference frequencies (GHz) for the 22.86 x 10.16 x 40 mm air-filled cavity.
REFERENCE_GHZ = {
    ("TE", 1, 0, 1): 7.552426072,
    ("TE", 1, 0, 2): 9.958327600,
    ("TE", 1, 0, 3): 13.014743060,
}
TE101_PEAK_AMPLITUDE = 656.1679790026246  # m^(-3/2)


def midpoint_grid(geom, n):
    axes = [(np.arange(n) + 0.5) * lim / n for lim in (geom.a, geom.b, geom.d)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return pts, geom.a * geom.b * geom.d / n**3


class TestModeIndex:
    def test_validity_rules(self):
        cq.ModeIndex("TE", 1, 0, 1)
        cq.ModeIndex("TE", 0, 1, 2)
        cq.ModeIndex("TM", 1, 1, 0)
        with pytest.raises(ValueError):
            cq.ModeIndex("TE", 0, 0, 1)  # zero transverse pattern
        with pytest.raises(ValueError):
            cq.ModeIndex("TE", 1, 0, 0)  # zero longitudinal pattern
        with pytest.raises(ValueError):
            cq.ModeIndex("TM", 0, 1, 1)
        with pytest.raises(ValueError):
            cq.ModeIndex("TM", 1, 0, 1)
        with pytest.raises(ValueError):
            cq.ModeIndex("XX", 1, 1, 1)
        with pytest.raises(ValueError):
            cq.ModeIndex("TE", -1, 0, 1)

    def test_labels(self):
        assert cq.ModeIndex("TE", 1, 0, 1).label == "TE101"
        assert cq.ModeIndex("TM", 2, 1, 0).label == "TM210"
        assert cq.ModeIndex("TE", 1, 0, 12).label == "TE_1_0_12"


class TestGeometryAndFrequency:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            cq.CavityGeometry(a=-1.0, b=1.0, d=1.0)
        with pytest.raises(ValueError):
            cq.CavityGeometry(a=1.0, b=1.0, d=1.0, eps_r=0.5)

    def test_reference_frequencies(self, geom):
        for (family, m, n, p), f_ghz in REFERENCE_GHZ.items():
            omega = cq.resonant_frequency(cq.ModeIndex(family, m, n, p), geom)
            npt.assert_allclose(omega / (2e9 * math.pi), f_ghz, rtol=1e-9)

    def test_frequency_closed_form(self, geom):
        idx = cq.ModeIndex("TM", 2, 1, 3)
        expected = C0 * math.pi * math.sqrt(
            (2 / geom.a)**2 + (1 / geom.b)**2 + (3 / geom.d)**2)
        npt.assert_allclose(cq.resonant_frequency(idx, geom), expected, rtol=1e-14)

    def test_dielectric_scaling(self):
        air = cq.CavityGeometry(a=0.02, b=0.01, d=0.04)
        filled = cq.CavityGeometry(a=0.02, b=0.01, d=0.04, eps_r=4.0)
        idx = cq.ModeIndex("TE", 1, 0, 1)
        npt.assert_allclose(cq.resonant_frequency(idx, filled),
                            cq.resonant_frequency(idx, air) / 2.0, rtol=1e-14)

    def test_te101_peak_amplitude(self, geom, te101):
        npt.assert_allclose(te101.norm_E, TE101_PEAK_AMPLITUDE, rtol=1e-12)
        # E_y = norm_E sin(pi x/a) sin(pi z/d): the sin^2 pattern integrates
        # to a*b*d/4, so unit normalization fixes the peak at sqrt(4/(a*b*d)).
        expected = math.sqrt(4.0 / (geom.a * geom.b * geom.d))
        npt.assert_allclose(te101.norm_E, expected, rtol=1e-14)


class TestFieldNormalization:
    @pytest.mark.parametrize("family,m,n,p", [
        ("TE", 1, 0, 1), ("TE", 1, 0, 2), ("TE", 2, 0, 1), ("TE", 1, 1, 1),
        ("TM", 1, 1, 0), ("TM", 1, 1, 1), ("TM", 2, 1, 2),
    ])
    def test_unit_energy_normalization(self, geom, family, m, n, p):
        mode = cq.make_mode(cq.ModeIndex(family, m, n, p), geom)
        pts, dv = midpoint_grid(geom, 64)
        e_field, h_field = cq.eval_fields(mode, geom, pts)
        npt.assert_allclose(geom.eps_r * np.sum(e_field**2) * dv, 1.0, rtol=1e-12)
        npt.assert_allclose(np.sum(h_field**2) * dv, 1.0, rtol=1e-12)

    def test_unit_energy_with_dielectric(self):
        geom = cq.CavityGeometry(a=0.02, b=0.01, d=0.04, eps_r=2.3)
        mode = cq.make_mode(cq.ModeIndex("TE", 1, 0, 1), geom)
        pts, dv = midpoint_grid(geom, 48)
        e_field, h_field = cq.eval_fields(mode, geom, pts)
        npt.assert_allclose(geom.eps_r * np.sum(e_field**2) * dv, 1.0, rtol=1e-12)
        npt.assert_allclose(np.sum(h_field**2) * dv, 1.0, rtol=1e-12)

    @pytest.mark.parametrize("other", [
        ("TE", 1, 0, 2), ("TE", 2, 0, 1), ("TE", 1, 1, 1), ("TM", 1, 1, 1),
    ])
    def test_mode_orthogonality(self, geom, te101, other):
        mode2 = cq.make_mode(cq.ModeIndex(*other), geom)
        pts, dv = midpoint_grid(geom, 48)
        e1, h1 = cq.eval_fields(te101, geom, pts)
        e2, h2 = cq.eval_fields(mode2, geom, pts)
        assert abs(geom.eps_r * np.sum(e1 * e2) * dv) < 1e-12
        assert abs(np.sum(h1 * h2) * dv) < 1e-12

    def test_tangential_e_vanishes_on_walls(self, geom):
        for spec in [("TE", 1, 1, 2), ("TM", 1, 1, 1)]:
            mode = cq.make_mode(cq.ModeIndex(*spec), geom)
            line = np.linspace(0.0, 1.0, 7)
            # x = 0 and x = a walls: tangential components are E_y, E_z.
            for x in (0.0, geom.a):
                pts = np.stack([np.full(7, x), line * geom.b, line * geom.d], axis=-1)
                e_field, _ = cq.eval_fields(mode, geom, pts)
                npt.assert_allclose(e_field[:, 1:], 0.0, atol=1e-10)
            for y in (0.0, geom.b):
                pts = np.stack([line * geom.a, np.full(7, y), line * geom.d], axis=-1)
                e_field, _ = cq.eval_fields(mode, geom, pts)
                npt.assert_allclose(e_field[:, [0, 2]], 0.0, atol=1e-10)
            for z in (0.0, geom.d):
                pts = np.stack([line * geom.a, line * geom.b, np.full(7, z)], axis=-1)
                e_field, _ = cq.eval_fields(mode, geom, pts)
                npt.assert_allclose(e_field[:, :2], 0.0, atol=1e-10)

    def test_normal_h_vanishes_on_walls(self, geom):
        mode = cq.make_mode(cq.ModeIndex("TE", 1, 1, 2), geom)
        line = np.linspace(0.1, 0.9, 5)
        for y in (0.0, geom.b):
            pts = np.stack([line * geom.a, np.full(5, y), line * geom.d], axis=-1)
            _, h_field = cq.eval_fields(mode, geom, pts)
            npt.assert_allclose(h_field[:, 1], 0.0, atol=1e-10)


class TestEvalFields:
    def test_point_and_batch_agree(self, geom, te101):
        pts = np.array([[1e-3, 2e-3, 3e-3], [5e-3, 5e-3, 20e-3]])
        e_batch, h_batch = cq.eval_fields(te101, geom, pts)
        for i, pt in enumerate(pts):
            e_one, h_one = cq.eval_fields(te101, geom, pt)
            npt.assert_array_equal(e_one, e_batch[i])
            npt.assert_array_equal(h_one, h_batch[i])

    def test_outside_box_rejected(self, geom, te101):
        with pytest.raises(ValueError):
            cq.eval_fields(te101, geom, [geom.a * 1.01, 1e-3, 1e-3])
        with pytest.raises(ValueError):
            cq.eval_fields(te101, geom, [1e-3, -1e-6, 1e-3])

    def test_shape_validation(self, geom, te101):
        with pytest.raises(ValueError):
            cq.eval_fields(te101, geom, [1e-3, 2e-3])

    def test_te101_center_values(self, geom, te101):
        center = [geom.a / 2, geom.b / 2, geom.d / 2]
        e_field, h_field = cq.eval_fields(te101, geom, center)
        npt.assert_allclose(e_field, [0.0, te101.norm_E, 0.0], rtol=1e-12)
        # At the volume center H is purely longitudinal-null for TE101 (H_z
        # has cos(x)cos(y) -> 0 at x = a/2) and H_x peaks at z = d/2... both
        # transverse H components contain cos(pi*z/d) -> 0, so H = 0 there
        # except H_z which carries cos(pi*x/a) -> 0: the center is a magnetic
        # null of TE101.
        npt.assert_allclose(h_field, 0.0, atol=te101.norm_H * 1e-12)


class TestModeList:
    def test_below_15ghz(self, geom):
        modes = cq.mode_list(geom, 15e9)
        labels = [m.index.label for m in modes]
        assert labels == ["TE101", "TE102", "TE103", "TE201"]
        freqs = [m.omega for m in modes]
        assert freqs == sorted(freqs)

    def test_cap_is_inclusive_domain_checked(self, geom):
        with pytest.raises(ValueError):
            cq.mode_list(geom, 0.0)

    def test_higher_cap_includes_tm(self, geom):
        modes = cq.mode_list(geom, 20e9)
        families = {m.index.family for m in modes}
        assert families == {"TE", "TM"}


class TestCoaxProbeAndTemProfile:
    def test_probe_validation(self):
        with pytest.raises(ValueError):
            cq.CoaxProbe(x0=0.01, z0=0.01, r_inner=2e-3, r_outer=1e-3, h=0.0)
        with pytest.raises(ValueError):
            cq.CoaxProbe(x0=0.01, z0=0.01, r_inner=1e-4, r_outer=1e-3, h=-1e-4)
        with pytest.raises(ValueError):
            cq.CoaxProbe(x0=0.01, z0=0.01, r_inner=1e-4, r_outer=1e-3, h=0.0,
                         wall="side")

    def test_cross_section_normalization(self, geom):
        # integral over the annulus of eps0 |E_T|^2 dS is a radius-independent
        # constant; verify by quadrature for two different probes.  In
        # u = ln(rho) the radial integrand of the 1/rho profile is constant,
        # so trapezoid quadrature is exact up to roundoff.
        for (ri, ro) in [(0.05e-3, 2.5e-3), (0.2e-3, 1.1e-3)]:
            probe = make_probe(geom, 10e-3, h=0.0)
            probe = cq.CoaxProbe(x0=probe.x0, z0=probe.z0, r_inner=ri,
                                 r_outer=ro, h=0.0)
            u = np.linspace(math.log(ri), math.log(ro), 400)
            rho = np.clip(np.exp(u), ri, ro)
            phi = np.linspace(0.0, 2 * math.pi, 200)
            profile = oracles.coax_tem_profile(probe, rho[:, None], phi[None, :])
            # dS = rho drho dphi = rho^2 du dphi
            integrand = EPS0 * np.sum(profile**2, axis=-1) * rho[:, None] ** 2
            w_u = np.full(u.size, u[1] - u[0]); w_u[[0, -1]] /= 2
            w_phi = np.full(phi.size, phi[1] - phi[0]); w_phi[[0, -1]] /= 2
            total = w_u @ integrand @ w_phi
            npt.assert_allclose(total, oracles.COAX_CROSS_SECTION_NORM, rtol=1e-10)

    def test_profile_is_radial_in_wall_plane(self, geom):
        probe = make_probe(geom, 10e-3)
        vec = oracles.coax_tem_profile(probe, 1e-3, 0.3)
        assert vec[1] == 0.0
        npt.assert_allclose(vec[2] / vec[0], math.tan(0.3), rtol=1e-12)

    def test_profile_outside_annulus_rejected(self, geom):
        probe = make_probe(geom, 10e-3)
        with pytest.raises(ValueError):
            oracles.coax_tem_profile(probe, probe.r_outer * 1.01, 0.0)
        with pytest.raises(ValueError):
            oracles.coax_tem_profile(probe, probe.r_inner * 0.99, 0.0)

    def test_inverse_rho_falloff(self, geom):
        probe = make_probe(geom, 10e-3)
        v1 = oracles.coax_tem_profile(probe, 0.5e-3, 0.0)
        v2 = oracles.coax_tem_profile(probe, 1.0e-3, 0.0)
        npt.assert_allclose(np.linalg.norm(v1) / np.linalg.norm(v2), 2.0, rtol=1e-12)
