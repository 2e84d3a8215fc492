import math

import numpy.testing as npt
import pytest

import cavqed as cq
from cavqed.perturbation import TOTAL_ENERGY_DENOMINATOR

import oracles
from conftest import make_probe

# Frozen reference: two 0.75 mm pins (z = 10 and 30 mm, opposite walls) shift
# the fundamental by this relative amount, about -7.22 kHz.
TWO_PIN_RELATIVE_SHIFT = -9.558884e-7


class TestTipFormula:
    def test_reference_shift(self, geom, probes, te101):
        res = cq.perturbed_frequency_tip(te101, geom, list(probes))
        quotient = (res.omega_perturbed - res.omega_unperturbed) / res.omega_unperturbed
        npt.assert_allclose(quotient, TWO_PIN_RELATIVE_SHIFT, rtol=1e-4)
        shift_hz = (res.omega_perturbed - res.omega_unperturbed) / (2 * math.pi)
        npt.assert_allclose(shift_hz, -7219.3, rtol=1e-3)

    def test_denominator_is_total_energy(self, geom, probes, te101):
        res = cq.perturbed_frequency_tip(te101, geom, list(probes))
        assert res.total_energy_denominator == TOTAL_ENERGY_DENOMINATOR == 2.0

    def test_shift_linear_in_pin_length(self, geom, te101):
        shifts = []
        for h in (0.5e-3, 0.75e-3):
            probe = make_probe(geom, 10e-3, h=h)
            res = cq.perturbed_frequency_tip(te101, geom, [probe])
            shifts.append((res.omega_perturbed - res.omega_unperturbed) / h)
        npt.assert_allclose(shifts[0], shifts[1], rtol=1e-12)

    def test_zero_length_pin_shifts_nothing(self, geom, te101):
        res = cq.perturbed_frequency_tip(te101, geom, [make_probe(geom, 10e-3, h=0.0)])
        assert res.omega_perturbed == res.omega_unperturbed

    def test_additive_over_probes(self, geom, probes, te101):
        both = cq.perturbed_frequency_tip(te101, geom, list(probes))
        singles = [cq.perturbed_frequency_tip(te101, geom, [p]).delta_energy_numerator
                   for p in probes]
        npt.assert_allclose(both.delta_energy_numerator, sum(singles), rtol=1e-12)

    def test_tip_point_walls(self, geom):
        bottom = make_probe(geom, 10e-3, "bottom")
        top = make_probe(geom, 30e-3, "top")
        npt.assert_allclose(cq.tip_point(bottom, geom),
                            [geom.a / 2, bottom.h, 10e-3], rtol=1e-15)
        npt.assert_allclose(cq.tip_point(top, geom),
                            [geom.a / 2, geom.b - top.h, 30e-3], rtol=1e-15)

    def test_electric_tip_lowers_frequency(self, geom, te101):
        # The pin tip sits in an E-dominated region of the fundamental, so the
        # removed volume lowers the resonance.
        res = cq.perturbed_frequency_tip(te101, geom, [make_probe(geom, 10e-3)])
        assert res.omega_perturbed < res.omega_unperturbed


class TestQuadratureOracle:
    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_tip_formula(self, geom, probes, p):
        mode = cq.make_mode(cq.ModeIndex("TE", 1, 0, p), geom)
        tip = cq.perturbed_frequency_tip(mode, geom, list(probes))
        quad = oracles.perturbed_frequency_quadrature(mode, geom, list(probes))
        shift_tip = tip.omega_perturbed - tip.omega_unperturbed
        shift_quad = quad.omega_perturbed - quad.omega_unperturbed
        npt.assert_allclose(shift_quad, shift_tip, rtol=5e-4)

    def test_skips_zero_length_pins(self, geom, te101):
        res = oracles.perturbed_frequency_quadrature(te101, geom,
                                                     [make_probe(geom, 10e-3, h=0.0)])
        assert res.omega_perturbed == res.omega_unperturbed


class TestProbeValidation:
    def test_pin_taller_than_cavity(self, geom, te101):
        probe = cq.CoaxProbe(x0=geom.a / 2, z0=10e-3, r_inner=0.05e-3,
                             r_outer=2.5e-3, h=geom.b)
        with pytest.raises(ValueError):
            cq.perturbed_frequency_tip(te101, geom, [probe])

    def test_footprint_outside_wall(self, geom, te101):
        probe = cq.CoaxProbe(x0=1e-3, z0=10e-3, r_inner=0.05e-3,
                             r_outer=2.5e-3, h=0.5e-3)
        with pytest.raises(ValueError):
            cq.perturbed_frequency_tip(te101, geom, [probe])

    def test_same_wall_overlap_rejected(self, geom, te101):
        p1 = make_probe(geom, 10e-3, "bottom")
        p2 = cq.CoaxProbe(x0=p1.x0, z0=10.05e-3, r_inner=0.05e-3,
                          r_outer=2.5e-3, h=0.75e-3, wall="bottom")
        with pytest.raises(ValueError):
            cq.perturbed_frequency_tip(te101, geom, [p1, p2])

    def test_opposite_wall_same_axis_allowed(self, geom, te101):
        p1 = cq.CoaxProbe(x0=geom.a / 2, z0=10e-3, r_inner=0.05e-3,
                          r_outer=2.5e-3, h=0.5e-3, wall="bottom")
        p2 = cq.CoaxProbe(x0=geom.a / 2, z0=10e-3, r_inner=0.05e-3,
                          r_outer=2.5e-3, h=0.5e-3, wall="top")
        cq.perturbed_frequency_tip(te101, geom, [p1, p2])  # pins don't meet
