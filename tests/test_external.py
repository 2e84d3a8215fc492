import pytest

import cavqed as cq
from cavqed.errors import ExternalModesError


def one_site_records():
    return [
        cq.ExternalModeRecord(mode_label="TE101", f_GHz=7.552418853250746,
                              e_fields=((0.0, 656.1679790026246, 0.0),),
                              g_port1=-994.3656269125462,
                              g_port2=994.3656269125461),
        cq.ExternalModeRecord(mode_label="TE102", f_GHz=9.95830234358963,
                              e_fields=((0.0, 464.0, 0.125),),
                              g_port1=-994.4, g_port2=-994.4),
    ]


def two_site_records():
    return [
        cq.ExternalModeRecord(mode_label="custom_A", f_GHz=5.125,
                              e_fields=((1.0, -2.0, 3.0), (4.5e-7, 0.0, -1.0)),
                              g_port1=10.0, g_port2=-10.0),
    ]


class TestRecord:
    def test_validation(self):
        good = dict(mode_label="TE101", f_GHz=7.5,
                    e_fields=((0.0, 1.0, 0.0),), g_port1=1.0, g_port2=1.0)
        cq.ExternalModeRecord(**good)
        for bad in (dict(mode_label=""), dict(f_GHz=0.0), dict(e_fields=()),
                    dict(e_fields=((1.0, 2.0),))):
            with pytest.raises(ValueError):
                cq.ExternalModeRecord(**{**good, **bad})

    def test_n_sites(self):
        assert two_site_records()[0].n_sites == 2
        assert one_site_records()[0].n_sites == 1


class TestRoundTrip:
    def test_single_site(self, tmp_path):
        path = tmp_path / "modes.csv"
        cq.write_external_modes(str(path), one_site_records())
        header = path.read_text().splitlines()[0]
        assert header.split(",")[2:5] == ["Ex", "Ey", "Ez"]
        assert cq.read_external_modes(str(path)) == one_site_records()

    def test_multi_site(self, tmp_path):
        path = tmp_path / "modes.csv"
        cq.write_external_modes(str(path), two_site_records())
        header = path.read_text().splitlines()[0]
        assert "Ex1" in header and "Ez2" in header
        assert cq.read_external_modes(str(path)) == two_site_records()


class TestRead:
    def write(self, tmp_path, text):
        path = tmp_path / "modes.csv"
        path.write_text(text)
        return str(path)

    def test_suffixed_single_site_alias(self, tmp_path):
        path = self.write(tmp_path,
                          "mode_label,f_GHz,Ex1,Ey1,Ez1,g_port1,g_port2\n"
                          "TE101,7.55,0,656.2,0,-994.4,994.4\n")
        records = cq.read_external_modes(path)
        assert records[0].e_fields == ((0.0, 656.2, 0.0),)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path,
                          "# produced by an external field solver\n"
                          "mode_label,f_GHz,Ex,Ey,Ez,g_port1,g_port2\n"
                          "\n"
                          "# a comment between rows\n"
                          "TE101,7.55,0,656.2,0,-994.4,994.4\n")
        assert len(cq.read_external_modes(path)) == 1

    def test_unknown_column_warned(self, tmp_path):
        path = self.write(tmp_path,
                          "mode_label,f_GHz,Q_factor,Ex,Ey,Ez,g_port1,g_port2\n"
                          "TE101,7.55,12000,0,656.2,0,-994.4,994.4\n")
        with pytest.warns(UserWarning, match="Q_factor"):
            records = cq.read_external_modes(path)
        assert records[0].f_GHz == 7.55

    def test_missing_required_column(self, tmp_path):
        path = self.write(tmp_path,
                          "mode_label,Ex,Ey,Ez,g_port1,g_port2\n"
                          "TE101,0,656.2,0,-994.4,994.4\n")
        with pytest.raises(ExternalModesError, match="f_GHz"):
            cq.read_external_modes(path)

    def test_no_field_columns(self, tmp_path):
        path = self.write(tmp_path,
                          "mode_label,f_GHz,g_port1,g_port2\n"
                          "TE101,7.55,-994.4,994.4\n")
        with pytest.raises(ExternalModesError, match="field columns"):
            cq.read_external_modes(path)

    def test_non_contiguous_sites(self, tmp_path):
        path = self.write(tmp_path,
                          "mode_label,f_GHz,Ex1,Ey1,Ez1,Ex3,Ey3,Ez3,"
                          "g_port1,g_port2\n")
        with pytest.raises(ExternalModesError, match="1..N"):
            cq.read_external_modes(path)

    def test_missing_component(self, tmp_path):
        path = self.write(tmp_path,
                          "mode_label,f_GHz,Ex1,Ey1,g_port1,g_port2\n")
        with pytest.raises(ExternalModesError, match="Ex/Ey/Ez"):
            cq.read_external_modes(path)

    def test_duplicate_column(self, tmp_path):
        path = self.write(tmp_path,
                          "mode_label,f_GHz,f_GHz,Ex,Ey,Ez,g_port1,g_port2\n")
        with pytest.raises(ExternalModesError, match="duplicate"):
            cq.read_external_modes(path)

    def test_bad_number_diagnostic(self, tmp_path):
        path = self.write(tmp_path,
                          "mode_label,f_GHz,Ex,Ey,Ez,g_port1,g_port2\n"
                          "TE101,7.55,0,656.2,0,-994.4,994.4\n"
                          "TE102,nine.96,0,464.0,0,-994.4,-994.4\n")
        with pytest.raises(ExternalModesError, match=r"line 3.*f_GHz"):
            cq.read_external_modes(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = self.write(tmp_path,
                          "mode_label,f_GHz,Ex,Ey,Ez,g_port1,g_port2\n"
                          "TE101,7.55,0,nan,0,1000,inf\n")
        with pytest.raises(ExternalModesError,
                           match=r"line 2: field 'Ey1': non-finite value 'nan'"):
            cq.read_external_modes(path)

    def test_short_row_diagnostic(self, tmp_path):
        path = self.write(tmp_path,
                          "mode_label,f_GHz,Ex,Ey,Ez,g_port1,g_port2\n"
                          "TE101,7.55,0,656.2\n")
        with pytest.raises(ExternalModesError, match="line 2"):
            cq.read_external_modes(path)

    def test_duplicate_label_cites_both_lines(self, tmp_path):
        path = self.write(tmp_path,
                          "mode_label,f_GHz,Ex,Ey,Ez,g_port1,g_port2\n"
                          "TE101,7.55,0,656.2,0,-994.4,994.4\n"
                          "TE101,7.56,0,656.2,0,-994.4,994.4\n")
        with pytest.raises(ExternalModesError, match=r"line 2.*line 3|line 3.*line 2"):
            cq.read_external_modes(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ExternalModesError, match="no header"):
            cq.read_external_modes(self.write(tmp_path, ""))

    def test_header_only_file(self, tmp_path):
        path = self.write(tmp_path, "mode_label,f_GHz,Ex,Ey,Ez,g_port1,g_port2\n"
                                    "# no records follow\n")
        with pytest.raises(ExternalModesError, match="modes.csv: no mode records"):
            cq.read_external_modes(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            cq.read_external_modes(str(tmp_path / "absent.csv"))


class TestWrite:
    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cq.write_external_modes(str(tmp_path / "out.csv"), [])

    def test_inconsistent_sites_rejected(self, tmp_path):
        records = one_site_records() + two_site_records()
        with pytest.raises(ValueError):
            cq.write_external_modes(str(tmp_path / "out.csv"), records)
