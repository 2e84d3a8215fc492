"""Shared reference setup: the 22.86 x 10.16 x 40 mm air cavity with two
0.75 mm coax pins, and the 1 mm dipole-antenna transmon at the cavity center."""
import pytest

import cavqed as cq

COAX_R_INNER = 0.05e-3
COAX_R_OUTER = 2.5e-3
PIN_LENGTH = 0.75e-3
C_LOAD = 50.34e-15
L_J = 9.4e-9

# Pass/fail lines recorded by the acceptance tests; replayed after the run so
# they survive output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def geom():
    return cq.CavityGeometry(a=22.86e-3, b=10.16e-3, d=40e-3)


def make_probe(geom, z0, wall="bottom", h=PIN_LENGTH):
    return cq.CoaxProbe(x0=geom.a / 2, z0=z0, r_inner=COAX_R_INNER,
                        r_outer=COAX_R_OUTER, h=h, wall=wall)


@pytest.fixture(scope="session")
def probes(geom):
    return (make_probe(geom, 10e-3, "bottom"), make_probe(geom, 30e-3, "top"))


@pytest.fixture(scope="session")
def te101(geom):
    return cq.make_mode(cq.ModeIndex("TE", 1, 0, 1), geom)


@pytest.fixture(scope="session")
def te102(geom):
    return cq.make_mode(cq.ModeIndex("TE", 1, 0, 2), geom)


@pytest.fixture(scope="session")
def response(geom, probes, te101):
    return cq.two_port_response(te101, geom, probes)


@pytest.fixture(scope="session")
def center_dipole(geom):
    return cq.DipoleSpec(length=1e-3, radius=0.04e-3, gap=0.102e-3,
                         center=(geom.a / 2, geom.b / 2, geom.d / 2),
                         orientation=(0.0, 1.0, 0.0))


@pytest.fixture(scope="session")
def reference_system(geom, probes, te101, te102, center_dipole):
    """Perturbed two-mode cavity plus the center transmon, truncated at 6."""
    perturbed = []
    for mode in (te101, te102):
        omega = cq.perturbed_frequency_tip(mode, geom, list(probes)).omega_perturbed
        perturbed.append(cq.CavityMode(index=mode.index, omega=omega,
                                       norm_E=mode.norm_E, norm_H=mode.norm_H))
    c_ant = cq.dipole_capacitance(center_dipole, perturbed[0].omega)
    params = cq.TransmonParams.from_circuit(c_ant + C_LOAD, L_J)
    spectrum = cq.transmon_spectrum(params, n_levels=6)
    qubit = cq.QubitInstance(dipole=center_dipole, spectrum=spectrum,
                             c_ant=c_ant, c_load=C_LOAD)
    return {"modes": perturbed, "c_ant": c_ant, "params": params,
            "spectrum": spectrum, "qubit": qubit}


@pytest.fixture
def field_calls(monkeypatch):
    """(mode, dipole centers) of every eval_fields call that samples
    dipoles (five points along each)."""
    calls = []
    evaluate = cq.system.eval_fields

    def counted(mode, geom, points):
        centers = [tuple(center) for center in points[:, 2].tolist()]
        calls.append((mode.index, centers))
        return evaluate(mode, geom, points)

    monkeypatch.setattr(cq.system, "eval_fields", counted)
    return calls
