import json

import numpy as np
import pytest

import inspect

import photonloc.checks as checks
import photonloc.polarization as polarization
import photonloc.states as states
from photonloc.cli import main
from photonloc.states import StateFamily

COLUMNS = ["check", "value", "residual", "tolerance", "status"]


@pytest.mark.parametrize("seed", [0, 7, 12345])
@pytest.mark.parametrize("suite", checks.SUITES)
def test_every_suite_passes_in_the_library(suite, seed):
    rows = checks.run(suite, seed)
    assert rows
    for row in rows:
        assert isinstance(row, checks.Row)
        assert row.residual <= row.tolerance, row
        assert row.status == "PASS"


@pytest.mark.parametrize("suite", checks.SUITES)
def test_json_table_is_the_library_rows_plus_status(suite, capsys):
    assert main(["check", suite, "--seed", "7", "--format", "json"]) == 0
    table = json.loads(capsys.readouterr().out)
    expected = [{**row._asdict(), "status": row.status} for row in checks.run(suite, 7)]
    assert table == expected
    assert all(list(row) == COLUMNS for row in table)


def test_value_is_the_residual_unless_reported_apart():
    for suite in checks.SUITES:
        for row in checks.run(suite, 3):
            if row.check != "coincidence-ratio":
                assert row.value == row.residual
    ratio = next(row for row in checks.run("alt-product", 3) if row.check == "coincidence-ratio")
    assert abs(ratio.value - 2.0) < 1e-12
    assert ratio.residual == abs(ratio.value - 2.0)


def test_translation_draws_nothing(capsys):
    outputs = []
    for seed in ("1", "99"):
        assert main(["check", "translation", "--seed", seed]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("residual", [1e-9, np.nan])
def test_a_failing_row_makes_check_exit_1(monkeypatch, capsys, residual):
    passing = checks.gauge

    def failing(seed):
        rows = passing(seed)
        rows[2] = rows[2]._replace(value=residual, residual=residual)
        return rows

    monkeypatch.setattr(checks, "gauge", failing)
    assert main(["check", "gauge", "--format", "json"]) == 1
    table = json.loads(capsys.readouterr().out)
    assert [row["status"] for row in table] == ["PASS", "PASS", "FAIL", "PASS", "PASS", "PASS"]


def _label_rows_without_the_e2_conjugate():
    """``states._label_rows`` with e^{2 i phi} for e^{-2 i phi} in its lam = +1 row."""
    source = inspect.getsource(states._label_rows)
    target = "(down * bm) * e2.conj()"
    assert source.count(target) == 1
    namespace = dict(vars(states))
    exec(source.replace(target, "(down * bm) * e2"), namespace)
    return namespace["_label_rows"]


def _label_rows_with_a_longitudinal_part(family, coefficients, khat):
    """``states._label_rows`` with khat / 2 added to the lam = +1 polarization vector."""
    rows = states._label_rows(family, coefficients, khat)
    rows[:, family.helicities.index(1)] += 0.5 * (khat @ coefficients)
    return rows


@pytest.mark.parametrize("corrupted", ["conjugate", "longitudinal"])
def test_a_corrupted_helicity_frame_fails_both_polarization_suites(monkeypatch, capsys, corrupted):
    # the polarization vectors are read off the states' label rows, so a frame the
    # states would carry with a wrong lam = +1 row fails the suites that judge it
    mutated = (_label_rows_without_the_e2_conjugate() if corrupted == "conjugate"
               else _label_rows_with_a_longitudinal_part)
    monkeypatch.setattr(polarization, "_label_rows", mutated)
    failing = {}
    for suite in ("gauge", "alt-product"):
        assert main(["check", suite, "--format", "json"]) == 1
        table = json.loads(capsys.readouterr().out)
        failing[suite] = {row["check"] for row in table if row["status"] == "FAIL"}
    assert "transversality" in failing["gauge"]
    assert failing["alt-product"] == {"unsummed-integrand-transverse-projector"}


@pytest.mark.parametrize("command", [["mmatrix", "--theta", "1"],
                                     ["kernel-scan", "--family", "spherical3"],
                                     ["defect-j", "--j", "1"]])
def test_seed_is_a_usage_error_outside_check(command, capsys):
    with pytest.raises(SystemExit) as err:
        main([*command, "--seed", "5"])
    assert err.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_helicity_sum_residual_has_a_closed_form_for_the_transverse_set_only():
    khat = np.array([np.sin(0.8) * np.cos(1.1), np.sin(0.8) * np.sin(1.1), np.cos(0.8)])
    matrix, closed, residual = checks.helicity_sum_residual(khat, (1, -1), 1)
    assert residual.shape == (3, 3) and residual.max() <= checks.MMATRIX_TOL
    assert residual[0, 1] == abs(matrix[0, 1] - closed[0, 1])
    # a repeated helicity lists the same set, which is judged the same way
    for got, want in zip(checks.helicity_sum_residual(khat, (1, -1, 1, -1), 1),
                         (matrix, closed, residual)):
        np.testing.assert_array_equal(got, want)
    assert checks.helicity_sum_residual(khat, (-2, 0, 2), 2)[1:] == (None, None)
    assert checks.helicity_sum_residual(khat, (1, 1), 1)[1:] == (None, None)


def test_kernel_against_oracle_scales_by_the_dipole_floor():
    family = StateFamily.of("spherical3")
    rvec = np.array([0.0, 0.0, 10.0])
    value, oracle, rel = checks.kernel_against_oracle(family, rvec, 1.0)
    floor = 1.0 / (4.0 * np.pi * 10.0**3)
    assert np.abs(oracle).max() < floor  # the exact kernel is a ~1e-13 delta here
    np.testing.assert_array_equal(rel, np.vectorize(abs)(value - oracle) / floor)
    assert rel.max() <= checks.SCAN_REL_TOL
    _, _, rel = checks.kernel_against_oracle(family, rvec, 1.0, take_oracle=True)
    assert not rel.any()
