"""Polarization vectors, gauge shifts, and helicity-sum matrices.

Radiation-gauge polarization vectors are obtained by applying the standard
rotation for the momentum direction to their z-axis values; helicity-sum
matrices measure how much of the spin-j completeness relation survives when
the helicity spectrum is restricted (the obstruction to building three
mutually orthogonal localized states for the photon).

Four-vectors use (t, x, y, z) component ordering with metric (+, -, -, -),
so the light-like momentum is k = omega * (1, khat).

Helicity sets are plain sequences of integers; :func:`validate_helicities`
normalizes them to a sorted tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rotations import (
    Direction,
    _validated_spin,
    spherical_to_cartesian,
    standard_rotation,
    wigner_D,
)

#: Cartesian axis labels, in index order.
AXES = ("x", "y", "z")

# z-axis conjugate polarization vectors eps*(z_hat, lambda); row order
# lambda = (+1, 0, -1) coincides with the spherical<->Cartesian unitary.
_EPS_STAR_Z = spherical_to_cartesian()


@dataclass(frozen=True, eq=False)
class PolarizationVector:
    """Four-component polarization vector for a definite helicity.

    ``components`` stores eps^mu in (t, x, y, z) ordering. For the physical
    transverse helicities (lambda = +-1) in the radiation gauge the time
    component vanishes, the spatial part is orthogonal to the momentum
    direction, and eps . eps* = 1. The lambda = 0 member is the longitudinal
    unit vector along khat, used only by the hypothetical full-helicity
    constructions.
    """

    components: np.ndarray
    helicity: int
    direction: Direction
    gauge_tag: str = "radiation"

    @property
    def spatial(self) -> np.ndarray:
        return self.components[1:]

    @property
    def conjugate(self) -> np.ndarray:
        """Complex-conjugate four-vector eps*^mu."""
        return self.components.conj()


def minkowski_dot(u, v) -> complex:
    """Lorentz product u . v = u0 v0 - u_vec . v_vec (no conjugation)."""
    u = np.asarray(u)
    v = np.asarray(v)
    return u[0] * v[0] - u[1:] @ v[1:]


def wave_four_vector(omega: float, direction: Direction) -> np.ndarray:
    """Light-like momentum four-vector omega * (1, khat)."""
    k = np.empty(4)
    k[0] = omega
    k[1:] = omega * direction.unit_vector
    return k


def axis_index(axis) -> int:
    """Map an axis label ('x'|'y'|'z', or 0|1|2) to its index."""
    if axis in AXES:
        return AXES.index(axis)
    if axis in (0, 1, 2):
        return int(axis)
    raise ValueError(f"axis must be one of {AXES}, got {axis!r}")


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


def polarization_vector(direction: Direction, helicity: int) -> PolarizationVector:
    """Radiation-gauge polarization vector for the given momentum direction.

    The spatial part is the standard rotation applied to the z-axis vector of
    the same helicity; the time component is zero.
    """
    if helicity not in (-1, 0, 1):
        raise ValueError(f"helicity must be -1, 0 or +1, got {helicity}")
    eps_star_z = _EPS_STAR_Z[1 - helicity]  # rows ordered (+1, 0, -1)
    spatial = standard_rotation(direction) @ eps_star_z.conj()
    components = np.zeros(4, dtype=complex)
    components[1:] = spatial
    return PolarizationVector(components, helicity, direction, "radiation")


def gauge_transform(
    pol: PolarizationVector, omega: float, g: complex
) -> PolarizationVector:
    """Shift a polarization vector by g * k^mu with k = omega * (1, khat).

    Leaves the momentum-space field strength unchanged and, because k is
    light-like, preserves the Lorentz condition k . eps = 0 whenever the
    input satisfied it.
    """
    if omega <= 0:
        raise ValueError(f"energy must be positive, got {omega}")
    k = wave_four_vector(omega, pol.direction)
    return PolarizationVector(
        pol.components + g * k, pol.helicity, pol.direction, "transformed"
    )


def field_strength(
    omega: float, direction: Direction, pol: PolarizationVector
) -> np.ndarray:
    """Momentum-space field-strength tensor k^mu eps^nu - k^nu eps^mu.

    Antisymmetric complex 4x4 matrix; identically zero when eps is
    proportional to k (a pure gauge).
    """
    if omega <= 0:
        raise ValueError(f"energy must be positive, got {omega}")
    k = wave_four_vector(omega, direction).astype(complex)
    eps = pol.components
    return np.outer(k, eps) - np.outer(eps, k)


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


def transverse_outer_product(direction: Direction, i1, i2) -> complex:
    """Transverse projector entry sum_{lambda=+-1} eps^{i1} eps*^{i2}.

    Equals delta_{i1 i2} - khat_{i1} khat_{i2} for every direction.
    """
    a1 = axis_index(i1)
    a2 = axis_index(i2)
    total = 0.0 + 0.0j
    for lam in (-1, 1):
        eps = polarization_vector(direction, lam).spatial
        total += eps[a1] * np.conj(eps[a2])
    return complex(total)
