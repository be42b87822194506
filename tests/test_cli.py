import csv
import io
import json

import numpy as np
import pytest

from photonloc.cli import main

FAST = ["--ntheta", "8", "--nphi", "8", "--nradial", "24"]


def run_csv(capsys, argv):
    code = main(argv)
    text = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(text)))
    return code, rows


class TestMMatrix:
    def test_equator_values_and_exit_code(self, capsys):
        code, rows = run_csv(
            capsys, ["mmatrix", "--theta", repr(np.pi / 2), "--phi", "0"]
        )
        assert code == 0
        table = {(r["sigma1"], r["sigma2"]): float(r["re"]) for r in rows}
        assert abs(table[("1", "1")] - 0.5) < 1e-12
        assert abs(table[("1", "-1")] - 0.5) < 1e-12
        assert abs(table[("0", "0")] - 1.0) < 1e-12
        assert abs(table[("0", "1")]) < 1e-12
        assert all(float(r["residual"]) < 1e-12 for r in rows)

    def test_pole_matrix(self, capsys):
        code, rows = run_csv(capsys, ["mmatrix", "--theta", "0", "--phi", "0"])
        assert code == 0
        table = {(r["sigma1"], r["sigma2"]): float(r["re"]) for r in rows}
        assert abs(table[("1", "1")] - 1.0) < 1e-14
        assert abs(table[("0", "0")]) < 1e-14
        assert abs(table[("-1", "-1")] - 1.0) < 1e-14

    def test_spin2_subset_trace(self, capsys):
        code, rows = run_csv(
            capsys,
            ["mmatrix", "--theta", "0.8", "--phi", "1.1", "--j", "2",
             "--helicities", "-2,0,2"],
        )
        assert code == 0
        trace = sum(float(r["re"]) for r in rows if r["sigma1"] == r["sigma2"])
        assert abs(trace - 3.0) < 1e-12
        # closed-form columns only apply to the transverse spin-1 case
        assert all(r["residual"] == "" for r in rows)

    def test_bad_angle_is_usage_error(self, capsys):
        assert main(["mmatrix", "--theta", "9.9"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("phi", ["nan", "inf"])
    def test_non_finite_azimuth_is_usage_error(self, capsys, phi):
        assert main(["mmatrix", "--theta", "1", "--phi", phi]) == 2
        captured = capsys.readouterr()
        assert "azimuth must be finite" in captured.err
        assert captured.out == ""


class TestKernelScan:
    def test_full_helicity_family_off_diagonals_vanish(self, capsys):
        code, rows = run_csv(
            capsys,
            ["kernel-scan", "--family", "spherical3", "--r-list", "0,2", *FAST],
        )
        assert code == 0
        for row in rows:
            if row["sigma1"] != row["sigma2"]:
                assert abs(float(row["re"])) < 1e-12

    def test_photon_family_reports_oracle_agreement(self, capsys):
        code, rows = run_csv(
            capsys,
            ["kernel-scan", "--family", "cartesian-photon", "--r-list", "0,1",
             "--direction", "1,0,1", *FAST],
        )
        assert code == 0
        assert {row["i1"] for row in rows} == {"x", "y", "z"}
        assert all(float(row["rel_err"]) < 1e-6 for row in rows)
        coincidence = [
            float(r["re"]) for r in rows
            if r["r_over_a"] == "0" and r["i1"] == r["i2"]
        ]
        expected = 2.0 / 3.0 / (8.0 * np.pi**1.5)
        assert all(abs(v - expected) < 1e-8 for v in coincidence)

    def test_radiation_gauge_family_scans_with_energy_weighted_kernel(self, capsys):
        code, rows = run_csv(
            capsys,
            ["kernel-scan", "--family", "radiation-gauge", "--r-list", "0", *FAST],
        )
        assert code == 0
        diag = next(float(r["re"]) for r in rows if r["i1"] == "x" and r["i2"] == "x")
        photon_expected = 2.0 / 3.0 / (8.0 * np.pi**1.5)
        assert diag > 0
        assert abs(diag - photon_expected) > 0.1 * photon_expected

    def test_oracle_flag_reports_zero_residual(self, capsys):
        code, rows = run_csv(
            capsys,
            ["kernel-scan", "--family", "spherical-photon", "--r-list", "1",
             "--oracle", *FAST],
        )
        assert code == 0
        assert all(float(row["rel_err"]) == 0.0 for row in rows)

    def test_starved_quadrature_fails_with_residual_exit(self, capsys):
        code, rows = run_csv(
            capsys,
            ["kernel-scan", "--family", "cartesian-photon", "--r-list", "10",
             "--direction", "1,0,1", "--ntheta", "4", "--nphi", "4",
             "--nradial", "4"],
        )
        assert code == 1

    def test_scalar_family_rejected_by_parser(self):
        with pytest.raises(SystemExit) as err:
            main(["kernel-scan", "--family", "scalar"])
        assert err.value.code == 2

    def test_bad_direction_is_usage_error(self, capsys):
        assert main(["kernel-scan", "--family", "spherical3",
                     "--direction", "0,0,0"]) == 2


@pytest.mark.parametrize("command", [["kernel-scan", "--family", "spherical3"],
                                     ["defect-j", "--j", "1"]])
@pytest.mark.parametrize("flag, value, message", [
    ("--r-list", ",", "--r-list must contain at least one separation"),
    ("--direction", "0,0,0", "--direction needs three"),
    ("--direction", "1,0", "--direction needs three"),
    ("--direction", "nan,0,1", "--direction needs three finite"),
    ("--direction", "inf,0,1", "--direction needs three finite"),
])
def test_bad_separations_are_usage_errors(capsys, command, flag, value, message):
    assert main([*command, flag, value]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


class TestDefectCommand:
    def test_spin2_defect_table(self, capsys):
        code, rows = run_csv(
            capsys,
            ["defect-j", "--j", "2", "--helicities", "-1,1", "--r-list", "0"],
        )
        assert code == 0
        assert len(rows) == 25
        frob = float(rows[0]["frobenius"])
        assert frob > 0.1 / (8.0 * np.pi**1.5)

    def test_full_set_is_zero(self, capsys):
        code, rows = run_csv(
            capsys,
            ["defect-j", "--j", "2", "--helicities", "-2,-1,0,1,2",
             "--r-list", "0,1"],
        )
        assert code == 0
        assert all(float(r["re"]) == 0.0 and float(r["im"]) == 0.0 for r in rows)


class TestCheckSuites:
    @pytest.mark.parametrize("suite", ["covariance", "gauge", "translation", "alt-product"])
    def test_suite_passes(self, suite, capsys):
        code, rows = run_csv(capsys, ["check", suite, "--seed", "7"])
        assert code == 0
        assert rows, "suite produced no rows"
        assert all(row["status"] == "PASS" for row in rows)
        for row in rows:
            assert float(row["residual"]) <= float(row["tolerance"])

    def test_alt_product_reports_factor_two(self, capsys):
        code, rows = run_csv(capsys, ["check", "alt-product"])
        ratio = next(float(r["value"]) for r in rows if r["check"] == "coincidence-ratio")
        assert abs(ratio - 2.0) < 1e-6

    def test_translation_suite_flags_the_sign_flip(self, capsys):
        code, rows = run_csv(capsys, ["check", "translation"])
        names = [row["check"] for row in rows]
        assert any("minus" in name for name in names)

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["check", "locality"])
        assert err.value.code == 2


class TestOutputContracts:
    def test_csv_outputs_are_byte_identical(self, tmp_path):
        argv = ["check", "translation", "--seed", "3"]
        paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
        for path in paths:
            assert main([*argv, "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_kernel_scan_outputs_are_byte_identical(self, tmp_path):
        argv = ["kernel-scan", "--family", "spherical-photon", "--r-list", "0,1",
                "--seed", "5", *FAST]
        paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
        for path in paths:
            assert main([*argv, "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_uses_crlf_line_endings(self, tmp_path):
        out = tmp_path / "table.csv"
        main(["mmatrix", "--theta", "1.0", "--out", str(out)])
        assert b"\r\n" in out.read_bytes()

    def test_json_output_is_an_array_of_row_objects(self, tmp_path):
        out = tmp_path / "table.json"
        assert main(["check", "alt-product", "--format", "json",
                     "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert isinstance(rows, list)
        assert all(isinstance(row["value"], float) for row in rows)

    def test_numbers_round_trip_through_csv(self, capsys):
        code, rows = run_csv(
            capsys, ["kernel-scan", "--family", "cartesian3", "--r-list", "1", *FAST]
        )
        from photonloc.overlap import overlap_kernel_matrix
        from photonloc.states import StateFamily

        kernel = overlap_kernel_matrix(
            StateFamily.of("cartesian3"), np.array([0.0, 0.0, 1.0]), 1.0
        )
        diag = next(float(r["re"]) for r in rows if r["i1"] == "x" and r["i2"] == "x")
        assert diag == kernel.entries[0, 0].real
