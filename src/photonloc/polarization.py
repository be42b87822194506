"""Polarization vectors, gauge shifts, and helicity-sum matrices.

Radiation-gauge polarization vectors are read off the label rows the states
carry, eps^i(khat, lambda) = conj C_i(khat, lambda) for the Cartesian unit
label i, all three from one evaluation of the states' Wigner sum
(:func:`photonloc.states._label_rows`), so the frame these checks judge is the
frame every state, kernel and oracle uses. Helicity-sum matrices
measure how much of the spin-j completeness relation survives when the
helicity spectrum is restricted (the obstruction to building three mutually
orthogonal localized states for the photon); they rotate the aligned helicity
indicator as the kernel rotates its radial diagonal, with no D-matrix.

Four-vectors use (t, x, y, z) component ordering with metric (+, -, -, -),
so the light-like momentum is k = omega * (1, khat); arrays of four-vectors
hold the components on their last axis. A gauge shift is eps + g * k.

Helicity sets are plain sequences of integers; :func:`validate_helicities`
normalizes them to a sorted tuple.
"""

from __future__ import annotations

import numpy as np

from .rotations import _rotated_diagonal, _unit_directions, _validated_spin, validate_helicities
from .states import CARTESIAN3, StateFamily, _label_rows


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
    if omega.shape not in ((), khat.shape[:1]):
        raise ValueError(f"energy must be one value or one per direction, got shape {omega.shape}")
    if not np.all((omega > 0.0) & (omega < np.inf)):
        raise ValueError(f"energy must be finite and positive, got {omega}")
    k = np.ones((khat.shape[0], 4))
    k[:, 1:] = khat
    return omega[..., None] * k


def polarization_vectors(khat) -> np.ndarray:
    """Radiation-gauge polarization four-vectors at unit directions ``khat``, shape (M, 3).

    Returns shape (M, 3, 4): ``[:, lam + 1]`` is eps^mu(khat, lam) for
    lam = -1, 0, +1, with time component 0 and eps^i = conj C_i(khat, lam).
    For lam = +-1 the spatial part is orthogonal to khat and eps . eps* = 1; the
    lam = 0 member is khat itself, used only by the hypothetical full-helicity
    constructions.
    """
    khat = _unit_directions(khat)
    eps = np.zeros((khat.shape[0], 3, 4), dtype=complex)
    # the rows of the Cartesian unit labels, one column each: [:, lam + 1, i] is C_i(khat, lam)
    eps[:, :, 1:] = _label_rows(StateFamily.of(CARTESIAN3), np.eye(3), khat).conj()
    return eps


def field_strength(k, eps) -> np.ndarray:
    """Momentum-space field-strength tensors k^mu eps^nu - k^nu eps^mu, shape (..., 4, 4).

    ``k`` and ``eps`` hold four-vectors on their last axis. Antisymmetric;
    identically zero when eps is proportional to k (a pure gauge).
    """
    k = np.asarray(k)
    eps = np.asarray(eps)
    return k[..., :, None] * eps[..., None, :] - eps[..., :, None] * k[..., None, :]


def helicity_sum_matrix(khat, helicities, j: int = 1) -> np.ndarray:
    """Sum over a helicity subset of the standard-rotation projector columns.

    Returns the (2j+1) x (2j+1) Hermitian matrix

        sum_{lambda in set} D_{s1, lambda} conj(D_{s2, lambda}) = D P D^H,

    with D the spin-j D-matrix of the standard rotation to the unit vector ``khat``,
    P the aligned indicator diagonal of the set and rows/columns ordered
    sigma = +j..-j. Computed as the rotated diagonal of ``rotations``, in which the
    phase e^(i phi lambda) of D's columns cancels. The full helicity set gives the
    identity (completeness); dropping helicities leaves the identity minus a
    projector of rank equal to the number dropped.
    """
    j = _validated_spin(j)  # before the helicities, whose range it sets
    values = validate_helicities(helicities, j)
    diag = np.zeros(2 * j + 1)
    diag[[j - lam for lam in values]] = 1.0
    return _rotated_diagonal(j, _unit_directions([khat])[0].tolist(), diag)


def longitudinal_projector(khat) -> np.ndarray:
    """Closed-form rank-1 projector onto the missing zero-helicity content.

    This is the matrix subtracted from the identity by the transverse
    (lambda = +-1) helicity sum at spin 1, at the unit vector ``khat``;
    rows/columns ordered sigma = (+1, 0, -1). It is v v^H with
    v = (-(x - i y), sqrt(2) z, x + i y) / sqrt(2), the spherical components of
    khat, so it is independent of the D-matrix construction.
    """
    x, y, z = _unit_directions([khat])[0].tolist()
    v = np.array([-(x - 1j * y), np.sqrt(2.0) * z, x + 1j * y]) / np.sqrt(2.0)
    return np.outer(v, v.conj())


def transverse_helicity_sum_closed_form(khat) -> np.ndarray:
    """Closed form of the spin-1 helicity sum restricted to lambda = +-1."""
    return np.eye(3, dtype=complex) - longitudinal_projector(khat)


def transverse_outer_product(khat) -> np.ndarray:
    """Transverse projectors sum_{lambda=+-1} eps^{i1} eps*^{i2}, shape (M, 3, 3), at
    unit directions ``khat`` of shape (M, 3).

    Equals delta_{i1 i2} - khat_{i1} khat_{i2} for every direction.
    """
    eps = polarization_vectors(khat)[:, ::2, 1:]  # lam = -1, +1; spatial parts
    return np.sum(eps[..., :, None] * eps[..., None, :].conj(), axis=1)
