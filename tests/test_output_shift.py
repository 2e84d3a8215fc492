import json

import pytest

from output_shift import Mismatch, main, output_shifts

CSV = "# schema_version=1\ntau_s,g2\n0,{g2}\n1e-6,0.5\n"


def _tree(path, chi, flags, g2="0.25"):
    path.mkdir()
    (path / "d.json").write_text(json.dumps(
        {"points": [{"chi_MHz": chi, "flags": flags, "L_J_nH": 3.0}], "M": 3}))
    (path / "h.csv").write_text(CSV.format(g2=g2))
    return path


def test_largest_shift_per_key(tmp_path, capsys):
    old = _tree(tmp_path / "old", -0.1, [])
    new = _tree(tmp_path / "new", -0.1 + 2e-11, [], g2="0.2500001")
    shifts = output_shifts(old, new)
    assert shifts["d.json"]["points[].chi_MHz"] == pytest.approx(2e-11, rel=1e-3)
    assert shifts["d.json"]["points[].L_J_nH"] == 0.0
    assert shifts["h.csv"]["rows[].g2"] == pytest.approx(1e-7, rel=1e-6)
    assert main([str(old), str(new)]) == 0
    assert "| d.json | `points[].chi_MHz` | 2e-11 |" in capsys.readouterr().out


@pytest.mark.parametrize("change", ["flags", "M", "comment", "missing"])
def test_non_float_difference_fails(tmp_path, change):
    old = _tree(tmp_path / "old", -0.1, [])
    new = _tree(tmp_path / "new", -0.1, [[1, 1, 0]] if change == "flags" else [])
    if change == "M":
        (new / "d.json").write_text((new / "d.json").read_text().replace('"M": 3', '"M": 4'))
    elif change == "comment":
        (new / "h.csv").write_text(CSV.format(g2="0.25").replace("=1", "=2"))
    elif change == "missing":
        (new / "h.csv").unlink()
    with pytest.raises(Mismatch):
        output_shifts(old, new)
    assert main([str(old), str(new)]) == 1
