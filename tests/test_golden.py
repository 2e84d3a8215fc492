"""The outputs of the four shipped configurations, compared with the files in
``tests/golden/``.

Each configuration runs in-process and its outputs are walked against the
golden ones by ``output_shift``: every non-float (labels, flags, counts,
hashes, strings, list lengths and key sets) must be equal, and every float
must lie within the round-off tolerance of its key in ``TOLERANCE``.  Keys
not listed there are inputs echoed back or closed forms that no solver
touches, and must not move at all.  Whether the bytes were identical is
recorded as the test property ``bytes_identical``.

A change that moves results on purpose regenerates the golden files with
the same commands (``cavqed modes --config configs/table1_single_qubit.yaml
--out tests/golden/table1_single_qubit_modes.csv``, and so on for ``RUNS``)
and gives the shift table of ``python tests/output_shift.py`` in CHANGES.md;
it does not widen a tolerance.
"""
from pathlib import Path

import cavqed.cli as cli
from output_shift import output_shifts

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: (subcommand, configuration, output file name); the hom run also writes
#: its JSON sidecar next to the CSV.
RUNS = [
    ("modes", "table1_single_qubit", "table1_single_qubit_modes.csv"),
    ("hom", "hom_default", "hom_default_hom.csv"),
    ("dispersive", "table1_single_qubit", "table1_single_qubit_dispersive.json"),
    ("dispersive", "chi_map", "chi_map_dispersive.json"),
    ("dispersive", "zz_sweep", "zz_sweep_dispersive.json"),
]

#: Largest allowed absolute shift per key (the last component of its path),
#: in the key's own unit: eigensolver round-off on the dressed energies
#: (5e-11 MHz on chi and zeta), and summation round-off on the HOM curve.
TOLERANCE = {
    "chi_MHz": 5e-11,
    "zeta_MHz": 5e-11,
    "alpha_MHz": 5e-11,
    "average_chi_MHz": 5e-11,
    "omega01_GHz": 1e-13,
    "omega_k_GHz": 1e-13,
    "min_label_overlap": 1e-11,
    "g2": 1e-14,
}


def test_shipped_outputs_match_golden(tmp_path, capsys, record_property):
    for command, config, name in RUNS:
        assert cli.main([command, "--config", str(CONFIGS / f"{config}.yaml"),
                         "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    golden = sorted(path.name for path in GOLDEN.iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == golden
    assert len(golden) == 6
    too_far = []
    for file_name, shifts in output_shifts(GOLDEN, tmp_path).items():
        for key, shift in shifts.items():
            bound = TOLERANCE.get(key.rsplit(".", 1)[-1], 0.0)
            if not shift <= bound:
                too_far.append(f"{file_name} {key}: {shift:.3g} > {bound:g}")
    assert not too_far, too_far
    differ = [name for name in golden
              if (tmp_path / name).read_bytes() != (GOLDEN / name).read_bytes()]
    record_property("bytes_identical", not differ)
    print(f"golden outputs: bytes identical except {differ}" if differ
          else "golden outputs: all bytes identical")

