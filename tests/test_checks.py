import json

import numpy as np
import pytest

import inspect

import photonloc.checks as checks
import photonloc.overlap as overlap
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
    assert [row["status"] for row in table] == ["PASS", "PASS", "FAIL", "PASS", "PASS", "PASS",
                                                "PASS"]


def _mutated(function, target, replacement):
    """``function`` recompiled in its module's namespace with its one ``target`` replaced."""
    source = inspect.getsource(function)
    assert source.count(target) == 1
    namespace = dict(vars(inspect.getmodule(function)))
    exec(source.replace(target, replacement), namespace)
    return namespace[function.__name__]


def _azimuth_powers_conjugated():
    """``states._azimuth_powers`` with e^{-i b phi} for e^{i b phi} and back, so that the
    label rows carry e^{-i (sigma - lam) phi}."""
    return _mutated(states._azimuth_powers, "(p, p.conj())", "(p.conj(), p)")


def _label_rows_with_a_longitudinal_part(family, coefficients, khat):
    """``states._label_rows`` with khat / 2 added to the lam = +1 polarization vector."""
    rows = states._label_rows(family, coefficients, khat)
    rows[:, family.helicities.index(1)] += 0.5 * (khat @ coefficients)
    return rows


@pytest.mark.parametrize("corrupted", ["conjugate", "longitudinal"])
def test_a_corrupted_helicity_frame_fails_both_polarization_suites(monkeypatch, capsys, corrupted):
    # the polarization vectors are read off the states' label rows, so a frame the
    # states would carry with a conjugated azimuth phase or a wrong lam = +1 row fails
    # the suites that judge it
    if corrupted == "conjugate":
        monkeypatch.setattr(states, "_azimuth_powers", _azimuth_powers_conjugated())
    else:
        monkeypatch.setattr(polarization, "_label_rows", _label_rows_with_a_longitudinal_part)
    failing = {}
    for suite in ("gauge", "alt-product"):
        assert main(["check", suite, "--format", "json"]) == 1
        table = json.loads(capsys.readouterr().out)
        failing[suite] = {row["check"] for row in table if row["status"] == "FAIL"}
    assert {"transversality", "helicity-eigenvalue"} <= failing["gauge"]
    assert failing["alt-product"] == {"unsummed-integrand-transverse-projector"}


def test_a_one_sided_field_strength_fails_only_the_invariance_row(monkeypatch, capsys):
    # field-strength-invariance judges field_strength, not the frame: a pure gauge g k
    # drops out of the antisymmetric form for every eps, and of no other
    mutated = _mutated(polarization.field_strength, " - eps[..., :, None] * k[..., None, :]", "")
    monkeypatch.setattr(checks, "field_strength", mutated)
    assert main(["check", "gauge", "--format", "json"]) == 1
    table = json.loads(capsys.readouterr().out)
    failing = {row["check"] for row in table if row["status"] == "FAIL"}
    assert failing == {"field-strength-invariance"}


@pytest.mark.parametrize("module, function, target, replacement", [
    (states, states._anchor_phase, "state.x[0] - khat @ state.x[1:]",
     "khat @ state.x[1:] - state.x[0]"),
    (checks, states.translate_state, "state.x + sign * a", "state.x - sign * a"),
], ids=["anchor-phase", "translate-state"])
def test_a_flipped_translation_sign_fails_every_translation_row(monkeypatch, capsys, module,
                                                                 function, target, replacement):
    # the rows apply U(a) as a phase on the grid amplitudes, apart from translate_state
    monkeypatch.setattr(module, function.__name__, _mutated(function, target, replacement))
    assert main(["check", "translation", "--format", "json"]) == 1
    table = json.loads(capsys.readouterr().out)
    assert all(row["status"] == "FAIL" and row["residual"] > 0.1 for row in table)


def test_a_tripled_alternative_pairing_fails_only_the_rows_that_read_it(monkeypatch, capsys):
    mutated = _mutated(overlap.alt_overlap, "2.0 * gaussian_delta", "3.0 * gaussian_delta")
    monkeypatch.setattr(checks, "alt_overlap", mutated)
    assert main(["check", "alt-product", "--format", "json"]) == 1
    table = json.loads(capsys.readouterr().out)
    assert [row["status"] for row in table] == ["FAIL", "FAIL", "PASS"]


def test_a_dropped_helicity_fails_the_scan_on_every_nonzero_entry(monkeypatch, capsys):
    # along z the spherical-photon kernel is diagonal; the off-diagonal zeros stay exact
    argv = ["kernel-scan", "--family", "spherical-photon", "--format", "json"]
    assert main(argv) == 0
    before = json.loads(capsys.readouterr().out)
    mutated = _mutated(overlap._helicity_columns, "for lam in helicities)",
                       "for lam in helicities[1:])")
    monkeypatch.setattr(overlap, "_helicity_columns", mutated)
    assert main(argv) == 1
    after = json.loads(capsys.readouterr().out)
    assert all(row["rel_err"] <= checks.SCAN_REL_TOL for row in before)
    for old, new in zip(before, after, strict=True):
        diagonal = old["sigma1"] == old["sigma2"]
        assert (new["rel_err"] > checks.SCAN_REL_TOL) == diagonal, new
        assert (old["oracle_re"], old["oracle_im"]) == (new["oracle_re"], new["oracle_im"])


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
