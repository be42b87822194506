"""Polarization vectors, gauge shifts, and helicity-sum matrices.

Radiation-gauge polarization vectors are read off the label rows the states
carry, eps^i(khat, lambda) = conj C_i(khat, lambda) for the Cartesian unit
label i (:func:`photonloc.states._label_rows`), so the frame these checks
judge is the frame every state, kernel and oracle uses. Helicity-sum matrices
measure how much of the spin-j completeness relation survives when the
helicity spectrum is restricted (the obstruction to building three mutually
orthogonal localized states for the photon).

Four-vectors use (t, x, y, z) component ordering with metric (+, -, -, -),
so the light-like momentum is k = omega * (1, khat); arrays of four-vectors
hold the components on their last axis. A gauge shift is eps + g * k.

Helicity sets are plain sequences of integers; :func:`validate_helicities`
normalizes them to a sorted tuple.
"""

from __future__ import annotations

import numpy as np

from .rotations import Direction, _validated_spin, standard_rotation, wigner_D
from .states import CARTESIAN3, StateFamily, _label_rows

_UNIT_TOL = 1e-12


def _unit_directions(khat) -> np.ndarray:
    """``khat`` as a float array of shape (M, 3) whose rows are finite unit vectors."""
    khat = np.asarray(khat, dtype=float)
    if khat.ndim != 2 or khat.shape[1] != 3:
        raise ValueError(f"directions must have shape (M, 3), got {khat.shape}")
    if not np.all(np.isfinite(khat)):
        raise ValueError("directions must be finite")
    if not np.all(np.abs(np.sqrt(np.sum(khat * khat, axis=1)) - 1.0) <= _UNIT_TOL):
        raise ValueError(f"directions must be unit vectors to {_UNIT_TOL}")
    return khat


def minkowski_dot(u, v):
    """Lorentz products u . v = u0 v0 - u_vec . v_vec over the last axis (no conjugation)."""
    u = np.asarray(u)
    v = np.asarray(v)
    # stacked 1 x 3 by 3 x 1 products: each sums as the 1-D ``@`` of one pair does
    return u[..., 0] * v[..., 0] - (u[..., None, 1:] @ v[..., 1:, None])[..., 0, 0]


def wave_four_vector(omega, khat) -> np.ndarray:
    """Light-like momenta omega * (1, khat), shape (M, 4), at unit directions ``khat``
    of shape (M, 3); ``omega`` is one energy or one per direction, finite and positive."""
    khat = _unit_directions(khat)
    omega = np.asarray(omega, dtype=float)
    if not np.all((omega > 0.0) & (omega < np.inf)):
        raise ValueError(f"energy must be finite and positive, got {omega}")
    k = np.ones((khat.shape[0], 4))
    k[:, 1:] = khat
    return omega[..., None] * k


def validate_helicities(helicities, j: int) -> tuple:
    """Normalize a helicity set to a sorted tuple of integers within [-j, j]."""
    values = set()
    for h in helicities:
        if h != int(h):
            raise ValueError(f"helicities must be integers, got {h}")
        values.add(int(h))
    if not values:
        raise ValueError("helicity set must be non-empty")
    values = tuple(sorted(values))
    if values[0] < -j or values[-1] > j:
        raise ValueError(f"helicities {values} outside the spin-{j} range [-{j}, {j}]")
    return values


def polarization_vectors(khat) -> np.ndarray:
    """Radiation-gauge polarization four-vectors at unit directions ``khat``, shape (M, 3).

    Returns shape (M, 3, 4): ``[:, lam + 1]`` is eps^mu(khat, lam) for
    lam = -1, 0, +1, with time component 0 and eps^i = conj C_i(khat, lam).
    For lam = +-1 the spatial part is orthogonal to khat and eps . eps* = 1; the
    lam = 0 member is khat itself, used only by the hypothetical full-helicity
    constructions.
    """
    khat = _unit_directions(khat)
    family = StateFamily.of(CARTESIAN3)  # helicities (-1, 0, 1): row column lam + 1
    eps = np.zeros((khat.shape[0], 3, 4), dtype=complex)
    for i, unit in enumerate(np.eye(3)):
        eps[:, :, 1 + i] = _label_rows(family, unit, khat).conj()
    return eps


def field_strength(k, eps) -> np.ndarray:
    """Momentum-space field-strength tensors k^mu eps^nu - k^nu eps^mu, shape (..., 4, 4).

    ``k`` and ``eps`` hold four-vectors on their last axis. Antisymmetric;
    identically zero when eps is proportional to k (a pure gauge).
    """
    k = np.asarray(k)
    eps = np.asarray(eps)
    return k[..., :, None] * eps[..., None, :] - eps[..., :, None] * k[..., None, :]


def helicity_sum_matrix(direction: Direction, helicities, j: int = 1) -> np.ndarray:
    """Sum over a helicity subset of the standard-rotation projector columns.

    Returns the (2j+1) x (2j+1) Hermitian matrix

        sum_{lambda in set} D_{s1, lambda} conj(D_{s2, lambda}),

    with D the spin-j D-matrix of the standard rotation for ``direction`` and
    rows/columns ordered sigma = +j..-j. The full helicity set gives the
    identity (completeness); dropping helicities leaves the identity minus a
    projector of rank equal to the number dropped.
    """
    j = _validated_spin(j)  # before the helicities, whose range it sets
    values = validate_helicities(helicities, j)
    D = wigner_D(j, standard_rotation(direction))
    cols = D[:, [j - lam for lam in values]]
    return cols @ cols.conj().T


def longitudinal_projector(direction: Direction) -> np.ndarray:
    """Closed-form rank-1 projector onto the missing zero-helicity content.

    This is the matrix subtracted from the identity by the transverse
    (lambda = +-1) helicity sum at spin 1; rows/columns ordered
    sigma = (+1, 0, -1). Built directly from trigonometric entries, so it is
    independent of the D-matrix construction.
    """
    st, ct = np.sin(direction.theta), np.cos(direction.theta)
    phase = np.exp(-1j * direction.phi)
    v = np.array([-st / np.sqrt(2.0) * phase, ct, st / np.sqrt(2.0) / phase])
    return np.outer(v, v.conj())


def transverse_helicity_sum_closed_form(direction: Direction) -> np.ndarray:
    """Closed form of the spin-1 helicity sum restricted to lambda = +-1."""
    return np.eye(3, dtype=complex) - longitudinal_projector(direction)


def transverse_outer_product(khat) -> np.ndarray:
    """Transverse projectors sum_{lambda=+-1} eps^{i1} eps*^{i2}, shape (M, 3, 3), at
    unit directions ``khat`` of shape (M, 3).

    Equals delta_{i1 i2} - khat_{i1} khat_{i2} for every direction.
    """
    eps = polarization_vectors(khat)[:, ::2, 1:]  # lam = -1, +1; spatial parts
    return np.sum(eps[..., :, None] * eps[..., None, :].conj(), axis=1)
