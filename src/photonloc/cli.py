"""Command-line front end: runnable checks and scans with CSV/JSON tables.

Every command writes one machine-readable table (CSV with RFC-4180 quoting or
a JSON array of row objects) to stdout or ``--out``. Identical invocations,
including the seed, produce byte-identical output. Exit status: 0 when all
checks pass, 1 on a residual failure, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys

import numpy as np

from .overlap import (
    QuadratureSpec,
    alt_overlap,
    brute_force_kernel_matrix,
    general_j_defect,
    overlap_kernel_matrix,
)
from .polarization import (
    AXES,
    field_strength,
    gauge_transform,
    helicity_sum_matrix,
    minkowski_dot,
    polarization_vector,
    transverse_helicity_sum_closed_form,
    transverse_outer_product,
    wave_four_vector,
)
from .rotations import (
    Direction,
    rotation_from_axis_angle,
    spherical_to_cartesian,
    standard_rotation,
    wigner_D,
    wigner_angle,
)
from .states import (
    CARTESIAN_PHOTON,
    RADIATION_GAUGE,
    SCALAR,
    SPHERICAL_PHOTON,
    FAMILY_KINDS,
    StateFamily,
    make_localized_state,
    momentum_amplitude,
    rotate_state,
    translate_state,
)

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_USAGE = 2

CHECK_SUITES = ("covariance", "gauge", "translation", "alt-product")

#: largest kernel-scan entry deviation from the oracle, relative to the oracle's largest entry
SCAN_REL_TOL = 1e-6


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def _write_table(rows, fieldnames, out, fmt):
    if fmt == "csv":
        buf = io.StringIO()
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


def _parse_int_list(text):
    return tuple(int(item) for item in text.split(",") if item.strip() != "")


def _parse_float_list(text):
    return tuple(float(item) for item in text.split(",") if item.strip() != "")


def _parse_separations(args):
    """Unit ``--direction`` and the ``--r-list`` values of a scan."""
    direction = np.asarray(_parse_float_list(args.direction), dtype=float)
    if direction.shape != (3,) or not np.isfinite(direction).all() or not direction.any():
        raise ValueError("--direction needs three finite comma-separated components, not all zero")
    r_list = _parse_float_list(args.r_list)
    if not r_list:
        raise ValueError("--r-list must contain at least one separation")
    return direction / np.linalg.norm(direction), r_list


def _random_rotation(rng):
    axis = rng.normal(size=3)
    return rotation_from_axis_angle(axis, rng.uniform(-np.pi, np.pi))


def _random_direction(rng) -> Direction:
    return Direction(np.arccos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2 * np.pi))


def _status(residual, tolerance) -> str:
    return "PASS" if residual <= tolerance else "FAIL"


# --- subcommands ------------------------------------------------------------


def _cmd_mmatrix(args) -> int:
    direction = Direction(args.theta, args.phi)
    helicities = _parse_int_list(args.helicities)
    matrix = helicity_sum_matrix(direction, helicities, j=args.j)
    closed = None
    if args.j == 1 and tuple(sorted(helicities)) == (-1, 1):
        closed = transverse_helicity_sum_closed_form(direction)
    labels = list(range(args.j, -args.j - 1, -1))
    rows = []
    worst = 0.0
    for p, s1 in enumerate(labels):
        for r, s2 in enumerate(labels):
            row = {
                "sigma1": s1,
                "sigma2": s2,
                "re": float(matrix[p, r].real),
                "im": float(matrix[p, r].imag),
            }
            if closed is not None:
                residual = float(abs(matrix[p, r] - closed[p, r]))
                row["closed_re"] = float(closed[p, r].real)
                row["closed_im"] = float(closed[p, r].imag)
                row["residual"] = residual
                worst = max(worst, residual)
            else:
                row["closed_re"] = None
                row["closed_im"] = None
                row["residual"] = None
            rows.append(row)
    fields = ["sigma1", "sigma2", "re", "im", "closed_re", "closed_im", "residual"]
    _write_table(rows, fields, args.out, args.format)
    return EXIT_RESIDUAL if worst > 1e-12 else EXIT_OK


def _cmd_kernel_scan(args) -> int:
    family = StateFamily.of(args.family)
    q = QuadratureSpec(n_theta=args.ntheta, n_phi=args.nphi, n_radial=args.nradial)
    direction, r_list = _parse_separations(args)

    label_cols = ("i1", "i2") if family.label_basis == "cartesian" else ("sigma1", "sigma2")
    rows = []
    worst = 0.0
    for r_over_a in r_list:
        rvec = r_over_a * args.a * direction
        oracle = brute_force_kernel_matrix(family, rvec, args.a, q).entries
        if args.oracle:
            value = oracle
        else:
            value = overlap_kernel_matrix(family, rvec, args.a).entries
        scale = max(np.abs(oracle).max(), 1e-300)
        for p, l1 in enumerate(family.labels):
            for r, l2 in enumerate(family.labels):
                rel = float(abs(value[p, r] - oracle[p, r]) / scale)
                worst = max(worst, rel)
                rows.append(
                    {
                        "r_over_a": float(r_over_a),
                        label_cols[0]: l1,
                        label_cols[1]: l2,
                        "re": float(value[p, r].real),
                        "im": float(value[p, r].imag),
                        "oracle_re": float(oracle[p, r].real),
                        "oracle_im": float(oracle[p, r].imag),
                        "rel_err": rel,
                    }
                )
    fields = ["r_over_a", *label_cols, "re", "im", "oracle_re", "oracle_im", "rel_err"]
    _write_table(rows, fields, args.out, args.format)
    return EXIT_RESIDUAL if worst > SCAN_REL_TOL else EXIT_OK


def _cmd_defect(args) -> int:
    helicities = _parse_int_list(args.helicities)
    direction, r_list = _parse_separations(args)
    rows = []
    for r_over_a in r_list:
        kernel = general_j_defect(args.j, helicities, r_over_a * args.a * direction, args.a)
        frob = float(np.linalg.norm(kernel.entries))
        for p, s1 in enumerate(kernel.labels):
            for r, s2 in enumerate(kernel.labels):
                rows.append(
                    {
                        "r_over_a": float(r_over_a),
                        "sigma1": s1,
                        "sigma2": s2,
                        "re": float(kernel.entries[p, r].real),
                        "im": float(kernel.entries[p, r].imag),
                        "frobenius": frob,
                    }
                )
    fields = ["r_over_a", "sigma1", "sigma2", "re", "im", "frobenius"]
    _write_table(rows, fields, args.out, args.format)
    return EXIT_OK


# --- check suites -----------------------------------------------------------


def _suite_covariance(seed):
    rng = np.random.default_rng(seed)
    rows = []

    for kind, label in ((SPHERICAL_PHOTON, 0), (CARTESIAN_PHOTON, "y")):
        state = make_localized_state(
            StateFamily.of(kind), (0.3, 0.1, -0.2, 0.4), label, 1.0
        )
        diff, scale = 0.0, 0.0
        for _ in range(100):
            R = _random_rotation(rng)
            k = rng.normal(size=3) * rng.uniform(0.3, 2.0)
            lam = int(rng.choice([-1, 1]))
            w = wigner_angle(R, Direction.from_vector(k))
            lhs = momentum_amplitude(rotate_state(state, R), R @ k, lam)
            rhs = np.exp(-1j * lam * w) * momentum_amplitude(state, k, lam)
            diff = max(diff, abs(lhs - rhs))
            scale = max(scale, abs(rhs))
        rows.append(
            {
                "check": f"rotation-mixing-{kind}",
                "value": diff / scale,
                "residual": diff / scale,
                "tolerance": 1e-10,
            }
        )

    u = spherical_to_cartesian()
    resid = max(
        np.abs(u.conj().T @ wigner_D(1, R) @ u - R).max()
        for R in (_random_rotation(rng) for _ in range(100))
    )
    rows.append(
        {
            "check": "spherical-cartesian-conjugation",
            "value": resid,
            "residual": resid,
            "tolerance": 1e-12,
        }
    )

    resid = 0.0
    for j in range(5):
        for _ in range(20):
            r1, r2 = _random_rotation(rng), _random_rotation(rng)
            resid = max(
                resid,
                np.abs(wigner_D(j, r1 @ r2) - wigner_D(j, r1) @ wigner_D(j, r2)).max(),
            )
    rows.append(
        {
            "check": "d-matrix-homomorphism",
            "value": resid,
            "residual": resid,
            "tolerance": 1e-10,
        }
    )

    fix, rebuild = 0.0, 0.0
    z = np.array([0.0, 0.0, 1.0])
    for _ in range(100):
        R = _random_rotation(rng)
        direction = _random_direction(rng)
        rotated = Direction.from_vector(R @ direction.unit_vector)
        composed = standard_rotation(rotated).T @ R @ standard_rotation(direction)
        fix = max(fix, np.abs(composed @ z - z).max())
        w = wigner_angle(R, direction)
        rebuild = max(rebuild, np.abs(rotation_from_axis_angle(z, w) - composed).max())
    rows.append(
        {"check": "little-group-fixes-z", "value": fix, "residual": fix, "tolerance": 1e-12}
    )
    rows.append(
        {
            "check": "little-group-angle-reconstruction",
            "value": rebuild,
            "residual": rebuild,
            "tolerance": 1e-12,
        }
    )
    return rows


def _suite_gauge(seed):
    rng = np.random.default_rng(seed)
    directions = [Direction(0.0, 0.0), Direction(np.pi, 0.0), Direction(np.pi / 2, 0.0)]
    directions += [_random_direction(rng) for _ in range(50)]

    lorentz = preserved = strength = norm = transverse = ortho = 0.0
    for direction in directions:
        khat = direction.unit_vector
        omega = float(rng.uniform(0.2, 4.0))
        g = complex(rng.normal(), rng.normal())
        k4 = wave_four_vector(omega, direction)
        for lam in (-1, 1):
            pol = polarization_vector(direction, lam)
            lorentz = max(lorentz, abs(minkowski_dot(k4, pol.components)) / omega)
            shifted = gauge_transform(pol, omega, g)
            preserved = max(preserved, abs(minkowski_dot(k4, shifted.components)) / omega)
            f0 = field_strength(omega, direction, pol)
            f1 = field_strength(omega, direction, shifted)
            strength = max(strength, np.abs(f1 - f0).max() / omega)
            norm = max(norm, abs(pol.spatial @ pol.spatial.conj() - 1.0))
            transverse = max(transverse, abs(khat @ pol.spatial))
            other = polarization_vector(direction, -lam)
            ortho = max(ortho, abs(pol.spatial @ other.spatial.conj()))
    return [
        {"check": "lorentz-condition", "value": lorentz, "residual": lorentz, "tolerance": 1e-12},
        {"check": "gauge-shift-preserves-lorentz", "value": preserved, "residual": preserved, "tolerance": 1e-12},
        {"check": "field-strength-invariance", "value": strength, "residual": strength, "tolerance": 1e-12},
        {"check": "polarization-normalization", "value": norm, "residual": norm, "tolerance": 1e-12},
        {"check": "transversality", "value": transverse, "residual": transverse, "tolerance": 1e-12},
        {"check": "helicity-orthogonality", "value": ortho, "residual": ortho, "tolerance": 1e-12},
    ]


def _translation_grid():
    axis = np.linspace(-2.3, 2.7, 10)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    return grid.reshape(-1, 3)


def _suite_translation(seed):
    rng = np.random.default_rng(seed)
    grid = _translation_grid()
    shift = np.array([0.6, -0.4, 0.25, 0.8])
    second = np.array([-0.2, 0.35, 0.5, -0.15])
    rows = []

    def max_amp_diff(state_a, state_b):
        diff, scale = 0.0, 0.0
        for lam in state_a.family.helicities:
            amp_a = momentum_amplitude(state_a, grid, lam)
            amp_b = momentum_amplitude(state_b, grid, lam)
            diff = max(diff, np.abs(amp_a - amp_b).max())
            scale = max(scale, np.abs(amp_b).max())
        return diff / scale

    base = np.array([0.1, 0.2, -0.3, 0.4])
    for kind in (SCALAR, SPHERICAL_PHOTON):
        label = 0
        pos = make_localized_state(StateFamily.of(kind), base, label, 1.0)
        resid = max_amp_diff(
            translate_state(pos, shift),
            make_localized_state(StateFamily.of(kind), base + shift, label, 1.0),
        )
        rows.append(
            {
                "check": f"positive-frequency-reanchors-at-x-plus-a-{kind}",
                "value": resid,
                "residual": resid,
                "tolerance": 1e-14,
            }
        )

        neg = make_localized_state(StateFamily.of(kind, "negative"), base, label, 1.0)
        resid = max_amp_diff(
            translate_state(neg, shift),
            make_localized_state(StateFamily.of(kind, "negative"), base - shift, label, 1.0),
        )
        rows.append(
            {
                "check": f"negative-frequency-reanchors-at-x-minus-a-{kind}",
                "value": resid,
                "residual": resid,
                "tolerance": 1e-14,
            }
        )

    pos = make_localized_state(StateFamily.of(SCALAR), base, 0, 1.0)
    resid = max_amp_diff(
        translate_state(translate_state(pos, shift), second),
        translate_state(pos, shift + second),
    )
    rows.append(
        {
            "check": "translation-composition",
            "value": resid,
            "residual": resid,
            "tolerance": 1e-14,
        }
    )
    return rows


def _suite_alt_product(seed):
    rng = np.random.default_rng(seed)
    a = 1.0
    family = StateFamily.of(RADIATION_GAUGE)
    origin = make_localized_state(family, (0.0, 0.0, 0.0, 0.0), "x", a)
    # the regulated delta is written out: alt_overlap itself returns gaussian_delta
    delta = 1.0 / (8.0 * np.pi**1.5 * a**3)
    ratio = alt_overlap(origin, origin).real / delta
    rows = [
        {
            "check": "coincidence-ratio",
            "value": ratio,
            "residual": abs(ratio - 2.0),
            "tolerance": 1e-12,
        }
    ]

    resid = 0.0
    rhat = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    for r_over_a in (0.5, 1.0, 2.0, 5.0):
        shifted = make_localized_state(
            family, np.concatenate(([0.0], r_over_a * a * rhat)), "y", a
        )
        value = alt_overlap(shifted, origin).real
        expected = 2.0 * delta * np.exp(-(r_over_a**2) / 4.0)
        resid = max(resid, abs(value - expected) / expected)
    rows.append(
        {
            "check": "separation-matches-twice-gaussian",
            "value": resid,
            "residual": resid,
            "tolerance": 1e-12,
        }
    )

    resid = 0.0
    for _ in range(30):
        direction = _random_direction(rng)
        khat = direction.unit_vector
        for i1 in range(3):
            for i2 in range(3):
                value = transverse_outer_product(direction, AXES[i1], AXES[i2])
                expected = (1.0 if i1 == i2 else 0.0) - khat[i1] * khat[i2]
                resid = max(resid, abs(value - expected))
    rows.append(
        {
            "check": "unsummed-integrand-transverse-projector",
            "value": resid,
            "residual": resid,
            "tolerance": 1e-13,
        }
    )
    return rows


_SUITES = {
    "covariance": _suite_covariance,
    "gauge": _suite_gauge,
    "translation": _suite_translation,
    "alt-product": _suite_alt_product,
}


def _cmd_check(args) -> int:
    rows = _SUITES[args.suite](args.seed)
    failed = False
    for row in rows:
        row["status"] = _status(row["residual"], row["tolerance"])
        failed = failed or row["status"] == "FAIL"
    fields = ["check", "value", "residual", "tolerance", "status"]
    _write_table(rows, fields, args.out, args.format)
    return EXIT_RESIDUAL if failed else EXIT_OK


# --- argument parsing -------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--seed", type=int, default=0)


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
    p.add_argument("--ntheta", type=int, default=32, help="oracle uses 4*NTHETA polar nodes")
    p.add_argument("--nphi", type=int, default=32, help="oracle uses 4*NPHI azimuthal nodes")
    p.add_argument("--nradial", type=int, default=64, help="oracle uses 4*NRADIAL radial nodes")
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
    p.add_argument("suite", choices=CHECK_SUITES)
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
