"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they execute (they also appear in the captured output section of a
plain ``pytest`` run).
"""

import numpy as np

from photonloc.overlap import (
    QuadratureSpec,
    alt_overlap,
    brute_force_kernel_matrix,
    gaussian_delta,
    general_j_defect,
    overlap_kernel_matrix,
    transverse_kernel,
)
from photonloc.polarization import (
    field_strength,
    helicity_sum_matrix,
    minkowski_dot,
    polarization_vectors,
    wave_four_vector,
)
from photonloc.rotations import (
    Direction,
    rotation_from_axis_angle,
    spherical_to_cartesian,
    standard_rotation,
    wigner_D,
    wigner_angle,
)
from photonloc.states import (
    CARTESIAN3,
    CARTESIAN_PHOTON,
    RADIATION_GAUGE,
    SCALAR,
    SPHERICAL3,
    SPHERICAL_PHOTON,
    StateFamily,
    make_localized_state,
    momentum_amplitude,
    rotate_state,
    translate_state,
)

Q = QuadratureSpec()
RHAT = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
Z = np.array([0.0, 0.0, 1.0])


def report(number, name, passed, detail):
    line = f"criterion {number} ({name}): {'PASS' if passed else 'FAIL'} | {detail}"
    print(line)
    assert passed, line


def random_rotation(rng):
    return rotation_from_axis_angle(rng.normal(size=3), rng.uniform(-np.pi, np.pi))


def random_direction(rng):
    return Direction(np.arccos(rng.uniform(-1, 1)), rng.uniform(0, 2 * np.pi))


def transverse_sum_printed_form(theta, phi):
    """The closed-form transverse helicity sum, written out entry by entry."""
    st, ct = np.sin(theta), np.cos(theta)
    rt2 = np.sqrt(2.0)
    e = np.exp
    longitudinal = np.array(
        [
            [0.5 * st**2, -e(-1j * phi) / rt2 * st * ct, -0.5 * e(-2j * phi) * st**2],
            [-e(1j * phi) / rt2 * st * ct, ct**2, e(-1j * phi) / rt2 * st * ct],
            [-0.5 * e(2j * phi) * st**2, e(1j * phi) / rt2 * st * ct, 0.5 * st**2],
        ]
    )
    return np.eye(3) - longitudinal


def test_criterion_1_transverse_helicity_sum_closed_form():
    worst = 0.0
    for theta in np.linspace(0.0, np.pi, 20):
        for phi in np.linspace(0.0, 2 * np.pi, 20, endpoint=False):
            computed = helicity_sum_matrix(Direction(theta, phi), (-1, 1))
            worst = max(
                worst, np.abs(computed - transverse_sum_printed_form(theta, phi)).max()
            )
    equator = helicity_sum_matrix(Direction(np.pi / 2, 0.0), (-1, 1))
    printed = np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]])
    worst = max(worst, np.abs(equator - printed).max())
    report(
        1,
        "transverse helicity-sum closed form",
        worst < 1e-12,
        f"max-abs deviation {worst:.3e} over 20x20 grid (tolerance 1e-12)",
    )


def test_criterion_2_full_helicity_completeness():
    a = 1.0
    expected = 1.0 / (8.0 * np.pi**1.5 * a**3)
    worst_off, worst_diag = 0.0, 0.0
    for kind in (SPHERICAL3, CARTESIAN3):
        family = StateFamily.of(kind)
        coincidence = overlap_kernel_matrix(family, np.zeros(3), a).entries
        diag = coincidence.diagonal().real.min()
        worst_diag = max(worst_diag, abs(diag - expected) / expected)
        for r_over_a in (2.0, 5.0, 10.0):
            kernel = overlap_kernel_matrix(family, r_over_a * a * RHAT, a).entries
            off = kernel - np.diag(kernel.diagonal())
            worst_off = max(worst_off, np.abs(off).max() / diag)
    passed = worst_off < 1e-8 and worst_diag < 1e-6
    report(
        2,
        "full-helicity completeness",
        passed,
        f"off-diagonal/diagonal {worst_off:.3e} (tol 1e-8), "
        f"coincidence diagonal rel err {worst_diag:.3e} (tol 1e-6)",
    )


def test_criterion_3_photon_defect_kernel():
    a = 1.0
    family = StateFamily.of(CARTESIAN_PHOTON)
    worst = 0.0
    for r_over_a in (0.0, 1.0, 5.0, 10.0):
        rvec = r_over_a * a * RHAT
        oracle = brute_force_kernel_matrix(family, rvec, a, Q).entries
        scale = np.abs(oracle).max()
        fast = overlap_kernel_matrix(family, rvec, a).entries
        assembled = gaussian_delta(r_over_a * a, a) * np.eye(3) - transverse_kernel(
            rvec, a
        )
        worst = max(
            worst,
            np.abs(fast - oracle).max() / scale,
            np.abs(assembled - oracle).max() / scale,
        )
    r = 10.0 * a
    kernel = overlap_kernel_matrix(family, r * RHAT, a).entries.real
    traceless = kernel - np.trace(kernel) / 3.0 * np.eye(3)
    tail = (3.0 * np.outer(RHAT, RHAT) - np.eye(3)) / (4.0 * np.pi * r**3)
    tail_err = np.abs(traceless - tail).max() / np.abs(tail).max()
    passed = worst < 1e-6 and tail_err < 0.02
    report(
        3,
        "photon kernel vs oracle and far-field tail",
        passed,
        f"kernel-vs-oracle rel {worst:.3e} (tol 1e-6), "
        f"far-field tail rel {tail_err:.3e} (tol 2e-2)",
    )


def test_criterion_4_alternative_pairing_factor_two():
    # the regulated delta exp(-r^2/4a^2) / (8 pi^1.5 a^3) is written out here:
    # alt_overlap returns photonloc.gaussian_delta itself
    a = 1.0
    family = StateFamily.of(RADIATION_GAUGE)
    origin = make_localized_state(family, np.zeros(4), "x", a)
    ratio = alt_overlap(origin, origin).real * (8.0 * np.pi**1.5 * a**3)
    worst_sep = 0.0
    for r_over_a in (0.5, 1.0, 2.0, 5.0):
        shifted = make_localized_state(
            family, np.concatenate(([0.0], r_over_a * a * RHAT)), "y", a
        )
        value = alt_overlap(shifted, origin).real
        expected = 2.0 * np.exp(-(r_over_a**2) / 4.0) / (8.0 * np.pi**1.5 * a**3)
        worst_sep = max(worst_sep, abs(value - expected) / expected)
    passed = abs(ratio - 2.0) < 1e-12 and worst_sep < 1e-12
    report(
        4,
        "alternative pairing gives twice the delta",
        passed,
        f"coincidence ratio {ratio:.15f} (tol 1e-12 around 2), "
        f"separation rel err {worst_sep:.3e} (tol 1e-12)",
    )


def test_criterion_5_rotation_covariance():
    rng = np.random.default_rng(2024)
    mixing_worst = 0.0
    for kind, label in ((SPHERICAL_PHOTON, 0), (CARTESIAN_PHOTON, "y")):
        state = make_localized_state(
            StateFamily.of(kind), np.array([0.3, 0.1, -0.2, 0.4]), label, 1.0
        )
        diff, scale = 0.0, 0.0
        for _ in range(100):
            R = random_rotation(rng)
            k = rng.normal(size=3) * rng.uniform(0.3, 2.0)
            lam = int(rng.choice([-1, 1]))
            w = wigner_angle(R, Direction.from_vector(k))
            lhs = momentum_amplitude(rotate_state(state, R), R @ k, lam)
            rhs = np.exp(-1j * lam * w) * momentum_amplitude(state, k, lam)
            diff = max(diff, abs(lhs - rhs))
            scale = max(scale, abs(rhs))
        mixing_worst = max(mixing_worst, diff / scale)
    u = spherical_to_cartesian()
    conj_worst = max(
        np.abs(u.conj().T @ wigner_D(1, R) @ u - R).max()
        for R in (random_rotation(rng) for _ in range(100))
    )
    passed = mixing_worst < 1e-10 and conj_worst < 1e-12
    report(
        5,
        "rotation covariance of state families",
        passed,
        f"mixing residual {mixing_worst:.3e} (tol 1e-10), "
        f"basis conjugation residual {conj_worst:.3e} (tol 1e-12)",
    )


def test_criterion_6_little_group_angle():
    rng = np.random.default_rng(1789)
    fix_worst, rebuild_worst = 0.0, 0.0
    for _ in range(100):
        R = random_rotation(rng)
        direction = random_direction(rng)
        rotated = Direction.from_vector(R @ direction.unit_vector)
        composed = standard_rotation(rotated).T @ R @ standard_rotation(direction)
        fix_worst = max(fix_worst, np.abs(composed @ Z - Z).max())
        w = wigner_angle(R, direction)
        rebuild_worst = max(
            rebuild_worst, np.abs(rotation_from_axis_angle(Z, w) - composed).max()
        )
    passed = fix_worst < 1e-12 and rebuild_worst < 1e-12
    report(
        6,
        "little-group angle extraction",
        passed,
        f"z-fixing residual {fix_worst:.3e}, reconstruction residual "
        f"{rebuild_worst:.3e} (tol 1e-12 each)",
    )


def test_criterion_7_gauge_sector():
    rng = np.random.default_rng(77)
    directions = [Direction(0.0, 0.0), Direction(np.pi, 0.0), Direction(np.pi / 2, 1.3)]
    directions += [random_direction(rng) for _ in range(50)]
    khat = np.array([direction.unit_vector for direction in directions])
    draws = [(rng.uniform(0.2, 4.0), complex(rng.normal(), rng.normal())) for _ in directions]
    omega, g = map(np.array, zip(*draws))
    k4 = wave_four_vector(omega, khat)[:, None]
    pol = polarization_vectors(khat)[:, ::2]  # lam = -1, +1
    shifted = pol + g[:, None, None] * k4
    lorentz_worst = (np.abs(minkowski_dot(k4, shifted)) / omega[:, None]).max()
    strength = np.abs(field_strength(k4, shifted) - field_strength(k4, pol)).max(axis=(-2, -1))
    strength_worst = (strength / omega[:, None]).max()
    norm_worst = np.abs(np.sum(np.abs(pol[..., 1:]) ** 2, axis=-1) - 1.0).max()
    passed = max(lorentz_worst, strength_worst, norm_worst) < 1e-12
    report(
        7,
        "gauge sector",
        passed,
        f"lorentz condition {lorentz_worst:.3e}, field-strength invariance "
        f"{strength_worst:.3e}, normalization {norm_worst:.3e} (tol 1e-12 each)",
    )


def test_criterion_8_translation_behavior():
    axis = np.linspace(-2.3, 2.7, 10)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    assert grid.shape == (1000, 3)
    base = np.array([0.1, 0.2, -0.3, 0.4])
    shift = np.array([0.6, -0.4, 0.25, 0.8])

    pos = make_localized_state(StateFamily.of(SCALAR), base, 0, 1.0)
    rebuilt = make_localized_state(StateFamily.of(SCALAR), base + shift, 0, 1.0)
    pos_err = np.abs(
        momentum_amplitude(translate_state(pos, shift), grid, 0)
        - momentum_amplitude(rebuilt, grid, 0)
    ).max()

    neg_family = StateFamily.of(SCALAR, "negative")
    neg = make_localized_state(neg_family, base, 0, 1.0)
    neg_back = make_localized_state(neg_family, base - shift, 0, 1.0)
    neg_err = np.abs(
        momentum_amplitude(translate_state(neg, shift), grid, 0)
        - momentum_amplitude(neg_back, grid, 0)
    ).max()
    neg_forward = make_localized_state(neg_family, base + shift, 0, 1.0)
    flip_gap = np.abs(
        momentum_amplitude(translate_state(neg, shift), grid, 0)
        - momentum_amplitude(neg_forward, grid, 0)
    ).max()

    passed = pos_err < 1e-14 and neg_err < 1e-14 and flip_gap > 1e-3
    report(
        8,
        "translation re-anchoring",
        passed,
        f"positive-frequency error {pos_err:.3e} (tol 1e-14), negative-frequency "
        f"x-a error {neg_err:.3e} (tol 1e-14), sign-flip gap {flip_gap:.3e}",
    )


def test_criterion_9_spin2_completeness_defect():
    a = 1.0
    scale = gaussian_delta(0.0, a)
    transverse_only = general_j_defect(2, (-1, 1), np.zeros(3), a)
    frobenius = np.linalg.norm(transverse_only.entries)
    full = general_j_defect(2, range(-2, 3), np.zeros(3), a)
    full_frobenius = np.linalg.norm(full.entries)
    passed = frobenius > 0.1 * scale and full_frobenius < 1e-10 * scale
    report(
        9,
        "spin-2 completeness defect",
        passed,
        f"transverse-only Frobenius {frobenius:.3e} vs 0.1*delta {0.1 * scale:.3e}; "
        f"full-set Frobenius {full_frobenius:.3e} (tol 1e-10*delta)",
    )
