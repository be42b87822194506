import csv
import io
import json
from dataclasses import replace

import numpy as np
import pytest

import photonloc.checks
from photonloc.cli import main
from photonloc.overlap import QuadratureSpec, brute_force_kernel_matrix
from photonloc.states import StateFamily

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

    @pytest.mark.parametrize("theta", ["9.9", "-0.1", "3.1416", "nan", "inf"])
    def test_bad_angle_is_usage_error(self, capsys, theta):
        assert main(["mmatrix", "--theta", theta]) == 2
        captured = capsys.readouterr()
        assert "polar angle must lie in [0, pi]" in captured.err
        assert captured.out == ""

    def test_repeated_helicities_are_judged_as_their_set(self, capsys, monkeypatch):
        argv = ["mmatrix", "--theta", "0.8", "--phi", "1.1"]
        code, rows = run_csv(capsys, [*argv, "--helicities", "-1,1"])
        assert code == 0 and all(r["residual"] != "" for r in rows)
        assert run_csv(capsys, [*argv, "--helicities", "1,-1,1"]) == (code, rows)
        # the closed form is compared, so a wrong one fails the command
        monkeypatch.setattr(photonloc.checks, "transverse_helicity_sum_closed_form",
                            lambda khat: np.zeros((3, 3), dtype=complex))
        assert main([*argv, "--helicities", "1,-1,1"]) == 1

    @pytest.mark.parametrize("j", ["-1", "11"])
    def test_bad_spin_is_reported_before_the_helicities(self, capsys, j):
        assert main(["mmatrix", "--theta", "1", "--j", j]) == 2
        captured = capsys.readouterr()
        assert "spin" in captured.err and "helicities" not in captured.err
        assert captured.out == ""

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

    @pytest.mark.parametrize("family", ["spherical3", "cartesian3"])
    def test_plain_scan_of_full_helicity_families_passes(self, capsys, family):
        # at r/a = 10 the exact kernel is a ~1e-13 delta; the gate's dipole floor
        # keeps the oracle's rounding error from counting as a failure
        code, rows = run_csv(capsys, ["kernel-scan", "--family", family])
        assert code == 0
        assert max(float(row["rel_err"]) for row in rows) < 1e-12

    def test_gate_catches_an_error_of_1e_5_of_the_dipole_floor(self, capsys, monkeypatch):
        exact = photonloc.checks.overlap_kernel_matrix

        def perturbed(family, rvec, a):
            kernel = exact(family, rvec, a)
            floor = 1.0 / (4.0 * np.pi * max(np.linalg.norm(rvec), a) ** 3)
            entries = kernel.entries.copy()
            entries[0, 1] += 1e-5 * floor
            return replace(kernel, entries=entries)

        monkeypatch.setattr(photonloc.checks, "overlap_kernel_matrix", perturbed)
        argv = ["kernel-scan", "--family", "spherical-photon", "--r-list", "1",
                "--direction", "1,0,1"]
        code, rows = run_csv(capsys, argv)
        assert code == 1
        assert max(float(row["rel_err"]) for row in rows) == pytest.approx(1e-5, rel=1e-6)

    def test_node_flags_build_an_explicit_spec_with_defaults(self, capsys):
        family = StateFamily.of("cartesian-photon")
        rvec = 2.0 * np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
        for flags, q in (([], None), (["--ntheta", "4"], QuadratureSpec(n_theta=4)),
                         (["--nphi", "5", "--nradial", "6"], QuadratureSpec(n_phi=5, n_radial=6))):
            code, rows = run_csv(capsys, ["kernel-scan", "--family", "cartesian-photon",
                                          "--r-list", "2", "--direction", "1,0,1", *flags])
            oracle = brute_force_kernel_matrix(family, rvec, 1.0, q).entries
            got = [complex(float(r["oracle_re"]), float(r["oracle_im"])) for r in rows]
            assert np.array_equal(np.array(got).reshape(3, 3), oracle)

    def test_separation_beyond_the_self_sized_oracle_is_usage_error(self, capsys):
        assert main(["kernel-scan", "--family", "spherical3", "--r-list", "2000"]) == 2
        captured = capsys.readouterr()
        assert "beyond the self-sized oracle's range" in captured.err
        assert captured.out == ""

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
    ("--r-list", "-2,2", "--r-list separations must be finite and non-negative"),
    ("--r-list", "1,-0.5", "--r-list separations must be finite and non-negative"),
    ("--r-list", "inf", "--r-list separations must be finite and non-negative"),
    ("--r-list", "0,nan", "--r-list separations must be finite and non-negative"),
    ("--direction", "0,0,0", "--direction needs three"),
    ("--direction", "1,0", "--direction needs three"),
    ("--direction", "nan,0,1", "--direction needs three finite"),
    ("--direction", "inf,0,1", "--direction needs three finite"),
    ("--a", "nan", "regulator width must be finite and positive"),
    ("--a", "1e308", "times --a 1e+308 overflows"),
])
def test_bad_separations_are_usage_errors(capsys, command, flag, value, message):
    assert main([*command, flag, value]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("direction", ["1e200,1e200,0", "1e-200,1e-200,0", "1e308,-1e308,1e308"])
def test_direction_normalizes_without_overflow_or_underflow(capsys, direction):
    # |direction| overflows or underflows, its unit vector does not
    argv = ["defect-j", "--j", "1", "--r-list", "0,5"]
    code, rows = run_csv(capsys, [*argv, "--direction", direction])
    scale = float(direction.split(",")[0])
    unit = ",".join(str(float(c) / scale) for c in direction.split(","))
    assert (code, capsys.readouterr().err) == (0, "")
    ref_code, ref_rows = run_csv(capsys, [*argv, "--direction", unit])
    assert ref_code == 0 and len(rows) == len(ref_rows) == 18
    for row, ref in zip(rows, ref_rows):
        for col in ("re", "im", "frobenius"):
            assert abs(float(row[col]) - float(ref[col])) <= 1e-15 * float(ref["frobenius"])
    at_five = [float(r["re"]) for r in rows if r["r_over_a"] == "5"]
    assert at_five != [float(r["re"]) for r in rows if r["r_over_a"] == "0"]


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

    @pytest.mark.parametrize("helicities", [",".join(map(str, range(-11, 12))), "-1,1"])
    def test_spin_above_the_maximum_is_usage_error(self, capsys, helicities):
        assert main(["defect-j", "--j", "11", "--helicities", helicities]) == 2
        captured = capsys.readouterr()
        assert "at most 10" in captured.err and captured.out == ""


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
        argv = ["kernel-scan", "--family", "spherical-photon", "--r-list", "0,1", *FAST]
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
