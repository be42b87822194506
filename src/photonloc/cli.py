"""Command-line front end: runnable checks and scans with CSV/JSON tables.

Every command writes one machine-readable table (CSV with RFC-4180 quoting or
a JSON array of row objects) to stdout or ``--out``. Identical invocations,
including the seed of ``check``, produce byte-identical output. Exit status: 0
when all checks pass, 1 on a residual failure, 2 on a usage error. Every
residual and tolerance comes from :mod:`photonloc.checks`; this module parses
arguments, formats tables and exits.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys

import numpy as np

from . import checks
from .overlap import QuadratureSpec, general_j_defect
from .states import FAMILY_KINDS, SCALAR, StateFamily, require_regulator_width

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_USAGE = 2


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def _write_table(rows, out, fmt):
    """Rows of one table; the first row's keys are the columns, in order."""
    if fmt == "csv":
        buf = io.StringIO()
        fieldnames = list(rows[0])
        writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\r\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row.get(k)) for k in fieldnames})
        text = buf.getvalue()
    else:
        text = json.dumps(rows, indent=2) + "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as handle:
            handle.write(text)


def _parse_list(text, kind=float):
    return tuple(kind(item) for item in text.split(",") if item.strip() != "")


def _parse_separations(args):
    """(r/a, separation vector) for each ``--r-list`` value of a scan: r/a times
    ``--a`` times the unit ``--direction``, checked finite."""
    direction = np.asarray(_parse_list(args.direction), dtype=float)
    if direction.shape != (3,) or not np.isfinite(direction).all() or not direction.any():
        raise ValueError("--direction needs three finite comma-separated components, not all zero")
    direction = direction / math.hypot(*direction)
    r_list = _parse_list(args.r_list)
    if not r_list:
        raise ValueError("--r-list must contain at least one separation")
    if not all(0.0 <= r < np.inf for r in r_list):
        raise ValueError(f"--r-list separations must be finite and non-negative, got {args.r_list}")
    require_regulator_width(args.a)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        separations = [r_over_a * args.a * direction for r_over_a in r_list]
    if not all(np.isfinite(rvec).all() for rvec in separations):
        raise ValueError(f"--r-list {args.r_list} times --a {args.a!r} overflows: "
                         "every separation r/a * a must be finite")
    return list(zip(r_list, separations))


def _pair_rows(labels, label_cols, lead, columns):
    """One row per label pair: ``lead``, the two labels, then each column's entry
    at that pair; a column given as None or a scalar repeats in every row."""
    rows = []
    for p, l1 in enumerate(labels):
        for r, l2 in enumerate(labels):
            row = {**lead, label_cols[0]: l1, label_cols[1]: l2}
            for name, col in columns.items():
                row[name] = col if col is None or np.ndim(col) == 0 else float(col[p, r])
            rows.append(row)
    return rows


def _exit_status(judged) -> int:
    """The one exit rule: 1 unless every (residual, tolerance) pair has residual <= tolerance."""
    return EXIT_OK if all(res <= tol for res, tol in judged) else EXIT_RESIDUAL


# --- subcommands ------------------------------------------------------------


def _cmd_mmatrix(args) -> int:
    if not 0.0 <= args.theta <= math.pi:
        raise ValueError(f"polar angle must lie in [0, pi], got {args.theta}")
    if not math.isfinite(args.phi):
        raise ValueError(f"azimuth must be finite, got {args.phi}")
    st = math.sin(args.theta)
    khat = (st * math.cos(args.phi), st * math.sin(args.phi), math.cos(args.theta))
    matrix, closed, residual = checks.helicity_sum_residual(
        khat, _parse_list(args.helicities, int), args.j
    )
    closed_re, closed_im = (None, None) if closed is None else (closed.real, closed.imag)
    rows = _pair_rows(
        range(args.j, -args.j - 1, -1), ("sigma1", "sigma2"), {},
        {"re": matrix.real, "im": matrix.imag, "closed_re": closed_re,
         "closed_im": closed_im, "residual": residual},
    )
    _write_table(rows, args.out, args.format)
    return _exit_status((row["residual"], checks.MMATRIX_TOL)
                        for row in rows if row["residual"] is not None)


def _cmd_kernel_scan(args) -> int:
    family = StateFamily.of(args.family)
    counts = {"n_theta": args.ntheta, "n_phi": args.nphi, "n_radial": args.nradial}
    counts = {name: n for name, n in counts.items() if n is not None}
    q = QuadratureSpec(**counts) if counts else None  # no flag: the oracle sizes itself
    label_cols = ("i1", "i2") if family.label_basis == "cartesian" else ("sigma1", "sigma2")
    rows = []
    for r_over_a, rvec in _parse_separations(args):
        value, oracle, rel = checks.kernel_against_oracle(family, rvec, args.a, q, args.oracle)
        rows += _pair_rows(
            family.labels, label_cols, {"r_over_a": float(r_over_a)},
            {"re": value.real, "im": value.imag, "oracle_re": oracle.real,
             "oracle_im": oracle.imag, "rel_err": rel},
        )
    _write_table(rows, args.out, args.format)
    return _exit_status((row["rel_err"], checks.SCAN_REL_TOL) for row in rows)


def _cmd_defect(args) -> int:
    helicities = _parse_list(args.helicities, int)
    rows = []
    for r_over_a, rvec in _parse_separations(args):
        kernel = general_j_defect(args.j, helicities, rvec, args.a)
        rows += _pair_rows(
            kernel.labels, ("sigma1", "sigma2"), {"r_over_a": float(r_over_a)},
            {"re": kernel.entries.real, "im": kernel.entries.imag,
             "frobenius": float(np.linalg.norm(kernel.entries))},
        )
    _write_table(rows, args.out, args.format)
    return EXIT_OK


def _cmd_check(args) -> int:
    results = checks.run(args.suite, args.seed)
    rows = [{**row._asdict(), "status": row.status} for row in results]
    _write_table(rows, args.out, args.format)
    return _exit_status((row.residual, row.tolerance) for row in results)


# --- argument parsing -------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


class _Parser(argparse.ArgumentParser):
    """Argument parser that accepts comma lists of negative numbers as values.

    Needed so that e.g. ``--helicities -2,0,2`` parses without the ``=`` form;
    no option string starts with a dash followed by a digit.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d[\d.,eE+-]*$")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="photonloc",
        description="Checks and scans for momentum-helicity localized-state candidates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mmatrix", help="helicity-sum matrix at a momentum direction")
    p.add_argument("--theta", type=float, required=True, help="polar angle, radians")
    p.add_argument("--phi", type=float, default=0.0, help="azimuth, radians")
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--helicities", default="-1,1", help="comma-separated helicities")
    _add_common(p)
    p.set_defaults(func=_cmd_mmatrix)

    p = sub.add_parser("kernel-scan", help="overlap kernel entries vs. the oracle")
    p.add_argument(
        "--family",
        required=True,
        choices=[k for k in FAMILY_KINDS if k != SCALAR],
    )
    p.add_argument("--direction", default="0,0,1", help="separation direction components")
    p.add_argument("--r-list", default="0,1,2,5,10", help="separations in units of a")
    p.add_argument("--a", type=float, default=1.0, help="Gaussian regulator width")
    # without any of these flags the oracle sizes its grid from k_max r
    p.add_argument("--ntheta", type=int, default=None, help="oracle uses 4*NTHETA polar nodes")
    p.add_argument("--nphi", type=int, default=None, help="oracle uses 4*NPHI azimuthal nodes")
    p.add_argument("--nradial", type=int, default=None, help="oracle uses 4*NRADIAL radial nodes")
    p.add_argument(
        "--oracle", action="store_true", help="take values from the brute-force path"
    )
    _add_common(p)
    p.set_defaults(func=_cmd_kernel_scan)

    p = sub.add_parser("defect-j", help="completeness-defect kernel for spin j")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--helicities", default="-1,1", help="helicities the particle carries")
    p.add_argument("--direction", default="0,0,1")
    p.add_argument("--r-list", default="0,1,2")
    p.add_argument("--a", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(func=_cmd_defect)

    p = sub.add_parser("check", help="run an invariant suite")
    p.add_argument("suite", choices=checks.SUITES)
    p.add_argument("--seed", type=int, default=0, help="seed of the suite's random draws")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
