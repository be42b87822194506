"""Every residual the command line judges, with its tolerance.

The invariant suites return :class:`Row` records, PASS iff ``residual <=
tolerance`` (so a NaN fails); seeded suites draw from ``default_rng(seed)`` in
a fixed order. The kernel-scan and helicity-sum comparisons return per-entry
residuals for :data:`SCAN_REL_TOL` and :data:`MMATRIX_TOL`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .overlap import alt_overlap, brute_force_kernel_matrix, overlap_kernel_matrix
from .polarization import (
    field_strength,
    helicity_sum_matrix,
    minkowski_dot,
    polarization_vectors,
    transverse_helicity_sum_closed_form,
    transverse_outer_product,
    validate_helicities,
    wave_four_vector,
)
from .rotations import (
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
    StateFamily,
    make_localized_state,
    momentum_amplitude,
    rotate_state,
    translate_state,
)

SUITES = ("covariance", "gauge", "translation", "alt-product")

#: largest kernel-scan entry deviation from the oracle, relative to the oracle's largest
#: entry or the dipole tail's 1/(4 pi max(r, a)^(3+s)), whichever is larger
SCAN_REL_TOL = 1e-6

#: largest |helicity-sum matrix - transverse closed form| entry
MMATRIX_TOL = 1e-12


class Row(NamedTuple):
    """One judged residual; ``value`` is what is reported, the residual unless it differs."""

    check: str
    value: float
    residual: float
    tolerance: float

    @property
    def status(self) -> str:
        return "PASS" if self.residual <= self.tolerance else "FAIL"


def _row(check: str, residual, tolerance: float) -> Row:
    return Row(check, residual, residual, tolerance)


#: |z| entry by entry with the scalar ``abs``: ``np.abs`` over a complex array can
#: differ from it in the last digit
_entrywise_abs = np.vectorize(abs, otypes=[float])


# --- closed-form and oracle comparisons ---------------------------------------


def helicity_sum_residual(khat, helicities, j: int):
    """(helicity-sum matrix, closed form, |difference| per entry) at the unit vector
    ``khat``. The closed form exists for the transverse spin-1 set {-1, 1} only, however
    often its members are listed; otherwise the last two are None."""
    matrix = helicity_sum_matrix(khat, helicities, j=j)
    if j != 1 or validate_helicities(helicities, j) != (-1, 1):
        return matrix, None, None
    closed = transverse_helicity_sum_closed_form(khat)
    return matrix, closed, _entrywise_abs(matrix - closed)


def kernel_against_oracle(family: StateFamily, rvec, a: float, q=None, take_oracle=False):
    """(values, oracle entries, relative error per entry) at one separation; the values
    are the production kernel, or the oracle itself if ``take_oracle``. The error scale
    is the oracle's largest entry floored at the dipole tail's size: an exact kernel far
    below it (the delta at r/a = 10) does not set the size of the oracle's rounding error.
    """
    oracle = brute_force_kernel_matrix(family, rvec, a, q).entries
    value = oracle if take_oracle else overlap_kernel_matrix(family, rvec, a).entries
    floor = 1.0 / (4.0 * np.pi * max(np.linalg.norm(rvec), a) ** (3.0 + family.radial_power))
    scale = max(np.abs(oracle).max(), floor)
    return value, oracle, _entrywise_abs(value - oracle) / scale


# --- invariant suites ---------------------------------------------------------


def _random_rotation(rng):
    return rotation_from_axis_angle(rng.normal(size=3), rng.uniform(-np.pi, np.pi))


def _random_direction(rng) -> np.ndarray:
    theta, phi = np.arccos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2 * np.pi)
    return np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])


def covariance(seed: int = 0) -> list:
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
            w = wigner_angle(R, k / np.linalg.norm(k))
            lhs = momentum_amplitude(rotate_state(state, R), R @ k, lam)
            rhs = np.exp(-1j * lam * w) * momentum_amplitude(state, k, lam)
            diff = max(diff, abs(lhs - rhs))
            scale = max(scale, abs(rhs))
        rows.append(_row(f"rotation-mixing-{kind}", diff / scale, 1e-10))

    u = spherical_to_cartesian()
    resid = max(
        np.abs(u.conj().T @ wigner_D(1, R) @ u - R).max()
        for R in (_random_rotation(rng) for _ in range(100))
    )
    rows.append(_row("spherical-cartesian-conjugation", resid, 1e-12))

    resid = 0.0
    for j in range(5):
        for _ in range(20):
            r1, r2 = _random_rotation(rng), _random_rotation(rng)
            resid = max(
                resid,
                np.abs(wigner_D(j, r1 @ r2) - wigner_D(j, r1) @ wigner_D(j, r2)).max(),
            )
    rows.append(_row("d-matrix-homomorphism", resid, 1e-10))

    fix, rebuild = 0.0, 0.0
    z = np.array([0.0, 0.0, 1.0])
    for _ in range(100):
        R = _random_rotation(rng)
        khat = _random_direction(rng)
        composed = standard_rotation(R @ khat).T @ R @ standard_rotation(khat)
        fix = max(fix, np.abs(composed @ z - z).max())
        w = wigner_angle(R, khat)
        rebuild = max(rebuild, np.abs(rotation_from_axis_angle(z, w) - composed).max())
    rows.append(_row("little-group-fixes-z", fix, 1e-12))
    rows.append(_row("little-group-angle-reconstruction", rebuild, 1e-12))
    return rows


def gauge(seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    poles_and_x = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]
    khat = np.array(poles_and_x + [_random_direction(rng) for _ in range(50)])
    # one energy and one gauge parameter per direction, drawn in that order
    draws = [(rng.uniform(0.2, 4.0), complex(rng.normal(), rng.normal())) for _ in khat]
    omega, g = map(np.array, zip(*draws))

    k = wave_four_vector(omega, khat)[:, None]  # (M, 1, 4) against the (M, 2, 4) below
    eps = polarization_vectors(khat)[:, ::2]  # lam = -1, +1
    shifted = eps + g[:, None, None] * k
    spatial = eps[..., 1:]
    energy = omega[:, None]
    strength = np.abs(field_strength(k, shifted) - field_strength(k, eps)).max(axis=(-2, -1))
    # eps(lam) is the helicity eigenvector: (S.khat) eps = i khat x eps = lam eps
    eigen = 1j * np.cross(khat[:, None], spatial) - np.array([-1.0, 1.0])[:, None] * spatial
    return [
        _row("lorentz-condition", (np.abs(minkowski_dot(k, eps)) / energy).max(), 1e-12),
        _row("gauge-shift-preserves-lorentz",
             (np.abs(minkowski_dot(k, shifted)) / energy).max(), 1e-12),
        _row("field-strength-invariance", (strength / energy).max(), 1e-12),
        _row("polarization-normalization",
             np.abs(np.sum(spatial * spatial.conj(), axis=-1) - 1.0).max(), 1e-12),
        _row("transversality", np.abs(np.sum(khat[:, None] * spatial, axis=-1)).max(), 1e-12),
        # |eps(+1) . eps*(-1)| = |eps(-1) . eps*(+1)|: one pair covers both helicities
        _row("helicity-orthogonality",
             np.abs(np.sum(spatial[:, 1] * spatial[:, 0].conj(), axis=-1)).max(), 1e-12),
        _row("helicity-eigenvalue", np.linalg.norm(eigen, axis=-1).max(), 1e-12),
    ]


def translation() -> list:
    """U(a) as the phase e^{i (omega a0 - k.a)} on a fixed momentum grid, against
    ``translate_state``'s re-anchoring; it draws no random numbers."""
    axis = np.linspace(-2.3, 2.7, 10)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    omega = np.linalg.norm(grid, axis=1)
    shift = np.array([0.6, -0.4, 0.25, 0.8])
    second = np.array([-0.2, 0.35, 0.5, -0.15])
    rows = []

    def max_amp_diff(state, *shifts):
        """Largest |c(translated state) - e^{i (omega a0 - k.a)} c(state)|, a the sum of
        ``shifts``, translated one after another, relative to the largest |c(state)|."""
        moved = state
        for step in shifts:
            moved = translate_state(moved, step)
        a = sum(shifts)
        phase = np.exp(1j * (omega * a[0] - grid @ a[1:]))
        diff, scale = 0.0, 0.0
        for lam in state.family.helicities:
            amp = momentum_amplitude(state, grid, lam)
            diff = max(diff, np.abs(momentum_amplitude(moved, grid, lam) - phase * amp).max())
            scale = max(scale, np.abs(amp).max())
        return diff / scale

    base = np.array([0.1, 0.2, -0.3, 0.4])
    for kind in (SCALAR, SPHERICAL_PHOTON):
        # a positive-frequency state re-anchors at x + a, a negative-frequency one at
        # x - a: both take the same phase
        for frequency, end in (("positive", "plus"), ("negative", "minus")):
            state = make_localized_state(StateFamily.of(kind, frequency), base, 0, 1.0)
            resid = max_amp_diff(state, shift)
            rows.append(_row(f"{frequency}-frequency-reanchors-at-x-{end}-a-{kind}", resid, 1e-14))

    pos = make_localized_state(StateFamily.of(SCALAR), base, 0, 1.0)
    rows.append(_row("translation-composition", max_amp_diff(pos, shift, second), 1e-14))
    return rows


def alt_product(seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    a = 1.0
    family = StateFamily.of(RADIATION_GAUGE)
    origin = make_localized_state(family, (0.0, 0.0, 0.0, 0.0), "x", a)
    # the regulated delta is written out: alt_overlap itself returns gaussian_delta
    delta = 1.0 / (8.0 * np.pi**1.5 * a**3)
    ratio = alt_overlap(origin, origin).real / delta
    rows = [Row("coincidence-ratio", ratio, abs(ratio - 2.0), 1e-12)]

    resid = 0.0
    rhat = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    for r_over_a in (0.5, 1.0, 2.0, 5.0):
        shifted = make_localized_state(
            family, np.concatenate(([0.0], r_over_a * a * rhat)), "y", a
        )
        value = alt_overlap(shifted, origin).real
        expected = 2.0 * delta * np.exp(-(r_over_a**2) / 4.0)
        resid = max(resid, abs(value - expected) / expected)
    rows.append(_row("separation-matches-twice-gaussian", resid, 1e-12))

    khat = np.array([_random_direction(rng) for _ in range(30)])
    expected = np.eye(3) - khat[:, :, None] * khat[:, None, :]
    resid = _entrywise_abs(transverse_outer_product(khat) - expected).max()
    rows.append(_row("unsummed-integrand-transverse-projector", resid, 1e-13))
    return rows


def run(suite: str, seed: int = 0) -> list:
    """The rows of one of :data:`SUITES`; translation draws nothing, so ``seed``
    does not reach it."""
    if suite == "translation":
        return translation()
    return {"covariance": covariance, "gauge": gauge, "alt-product": alt_product}[suite](seed)
