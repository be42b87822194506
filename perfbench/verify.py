"""Check every benchmark output against the independent reference.

An operation fails when it raises, exits non-zero, comes out of tolerance in
the ``max_rel_err`` measure, or (cli) writes stdout that differs from an
earlier run of the same command in the run. Failures inside a known baseline
defect of the program count in ``failed_frac`` like any other; only failures
outside them make a run incorrect.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

import reference
import workloads

#: the repository's CLI gate tolerance, QuadratureSpec.rel_tol
TOL = 1e-6

#: defects of the program at the commit that introduced this benchmark
KNOWN_DEFECTS = {
    "kernels": "production radial rule wrong beyond r/a ~ 22 (ROADMAP item 2)",
    "oracle": "brute-force oracle wrong beyond r/a ~ 45 along the poles and ~ 27 near "
              "the equatorial plane (ROADMAP item 3)",
    "cli": "plain kernel-scan of spherical3/cartesian3 exits 1: the gate divides "
           "by the exact ~1e-13 delta at r/a = 10",
}


def band(r_over_a) -> str:
    if r_over_a is None:
        return "no-separation"
    if r_over_a <= 20.0:
        return "r/a<=20"
    return "20<r/a<=40" if r_over_a <= 40.0 else "r/a>40"


def _coefficients(state) -> np.ndarray:
    R = np.eye(3) if state["rotation"] is None else np.asarray(state["rotation"])
    return reference.rotated_coefficients(state["kind"], state["label"], R)


def _radial_power(kind: str) -> int:
    return reference.FAMILIES[kind][2] if kind in reference.FAMILIES else 0


def library_reference(op):
    """(reference value, |r|, a, radial power s) of one kernels or oracle operation."""
    entry, a = op["entry"], op["a"]
    if entry in ("qm", "alt", "oracle-overlap"):
        s1, s2 = op["states"]
        r = math.dist(s1["x"][1:], s2["x"][1:])
        if entry == "alt":
            return reference.alt_overlap(r, a), r, a, 0
        ref = reference.qm_overlap(s1["kind"], s1["x"], _coefficients(s1),
                                   s2["x"], _coefficients(s2), a)
        return ref, r, a, _radial_power(s1["kind"])
    rvec = np.asarray(op["r"])
    r = float(np.linalg.norm(rvec))
    if entry in ("kernel", "oracle-kernel"):
        return reference.family_kernel(op["family"], rvec, a), r, a, _radial_power(op["family"])
    if entry == "transverse":
        return reference.transverse(rvec, a), r, a, 0
    return reference.defect_kernel(op["j"], op["helicities"], rvec, a), r, a, 0


def rescaled_reference(ref, r: float, a: float, s: int, factor: float):
    """``library_reference`` of an operation with every length scaled by
    ``factor``: a kernel is homogeneous of degree -(3 + s) in length, and the
    error measure's floor scales alike."""
    return np.asarray(ref) * factor ** -(3 + s), r * factor, a * factor, s


def library_error(value, ref, r: float, a: float, s: int) -> float:
    ref = np.asarray(ref, dtype=complex).ravel()
    if value.size != ref.size:
        return math.inf
    return reference.rel_err(value, ref, r, a, s)


def library_known_defect(workload: str, op) -> bool:
    if workload == "kernels":
        return op["r_over_a"] > 20.0
    return op["entry"] == "oracle-kernel" and op["r_over_a"] > 20.0


# --- cli -------------------------------------------------------------------


def _rows(stdout: bytes):
    return list(csv.DictReader(io.StringIO(stdout.decode())))


def _matrices(rows, label_cols, labels, columns):
    """{r_over_a: matrix} built from the table rows of one value column pair."""
    out = {}
    n = len(labels)
    for row in rows:
        ra = float(row["r_over_a"])
        m = out.setdefault(ra, np.full((n, n), np.nan, dtype=complex))
        i = labels.index(_label(row[label_cols[0]]))
        k = labels.index(_label(row[label_cols[1]]))
        m[i, k] = complex(float(row[columns[0]]), float(row[columns[1]]))
    return out


def _label(text: str):
    return text if text in workloads.LABELS["cartesian3"] else int(text)


def _scan_error(argv, rows) -> float:
    family = argv[argv.index("--family") + 1]
    labels = workloads.LABELS[family]
    cartesian = isinstance(labels[0], str)
    label_cols = ("i1", "i2") if cartesian else ("sigma1", "sigma2")
    err = 0.0
    for columns in (("re", "im"), ("oracle_re", "oracle_im")):
        matrices = _matrices(rows, label_cols, labels, columns)
        if sorted(matrices) != sorted(workloads.CLI_SCAN_R_LIST):
            return math.inf
        for ra, value in matrices.items():
            ref = reference.family_kernel(family, np.array([0.0, 0.0, ra]), 1.0)
            err = max(err, reference.rel_err(value, ref, ra, 1.0, _radial_power(family)))
    return err


def _defect_error(rows) -> float:
    j = 10
    labels = tuple(range(j, -j - 1, -1))
    matrices = _matrices(rows, ("sigma1", "sigma2"), labels, ("re", "im"))
    if sorted(matrices) != sorted(workloads.CLI_DEFECT_R_LIST):
        return math.inf
    err = 0.0
    frobenius = {float(row["r_over_a"]): float(row["frobenius"]) for row in rows}
    for ra, value in matrices.items():
        ref = reference.defect_kernel(j, (-1, 1), np.array([0.0, 0.0, ra]), 1.0)
        err = max(err, reference.rel_err(value, ref, ra, 1.0))
        scale = max(float(np.linalg.norm(ref)), reference.dipole_floor(ra, 1.0))
        err = max(err, abs(frobenius[ra] - float(np.linalg.norm(ref))) / scale)
    return err


def _check_problems(argv, rows) -> list:
    problems = []
    if not rows:
        problems.append("empty table")
    for row in rows:
        if row["status"] != "PASS" or not float(row["residual"]) <= float(row["tolerance"]):
            problems.append(f"{row['check']}: residual {row['residual']} > {row['tolerance']}")
        if row["check"] == "coincidence-ratio" and not abs(float(row["value"]) - 2.0) <= TOL:
            problems.append(f"alternative pairing ratio {row['value']}, expected 2")
    return problems


def cli_result(argv, returncode: int, stdout: bytes, earlier):
    """(max_rel_err or None, problems, known defect) of one cli operation.

    ``earlier`` is the stdout of an earlier run of the same command, or None.
    """
    problems = []
    err = None
    try:
        rows = _rows(stdout)
        if argv[0] == "kernel-scan":
            err = _scan_error(argv, rows)
        elif argv[0] == "defect-j":
            err = _defect_error(rows)
        else:
            problems += _check_problems(argv, rows)
    except (KeyError, ValueError, UnicodeDecodeError) as exc:
        problems.append(f"unreadable table: {type(exc).__name__}: {exc}")
    if err is not None and not err <= TOL:
        problems.append(f"max_rel_err {err:.3e} > {TOL}")
    if earlier is not None and stdout != earlier:
        problems.append("stdout differs from an earlier run of the same command")
    known = False
    if returncode != 0:
        gate = (argv[0] == "kernel-scan" and "--oracle" not in argv
                and argv[argv.index("--family") + 1] in ("spherical3", "cartesian3"))
        known = gate and returncode == 1 and not problems
        problems.append(f"exit status {returncode}")
    return err, problems, known


def cli_band(argv) -> str:
    if argv[0] == "kernel-scan":
        return band(max(workloads.CLI_SCAN_R_LIST))
    if argv[0] == "defect-j":
        return band(max(workloads.CLI_DEFECT_R_LIST))
    return band(None)
