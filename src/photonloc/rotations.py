"""Rotation-group machinery for momentum-helicity frames.

Provides plain 3x3 rotation matrices, the standard rotation carrying the
z-axis into a given momentum direction, Wigner D-matrices for integer spin,
the little-group (Wigner) angle induced on helicity frames, and the unitary
change of basis between spherical and Cartesian labels.

D-matrices are built one way: the ZYZ Euler angles of R, Jz phases and
``small_d_matrix``. The small-d matrix d^j(beta) is a trigonometric polynomial
of degree j, evaluated as its Fourier series: one cos/sin pair of the
multiples of beta and one real matrix product with coefficient matrices built
once per spin from the Jy eigensystem. The brute-force oracle in ``overlap``
builds none, to stay independent: it reads the label rows off khat.

Conventions
-----------
* Active rotations; ``rotation_from_axis_angle(z_hat, a)`` maps x-hat toward
  y-hat for small positive ``a``.
* D-matrix rows and columns are ordered by descending magnetic quantum
  number, m = +j, ..., -j.
* ``wigner_D(1, R)`` conjugated by ``spherical_to_cartesian()`` equals R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Largest spin for which D-matrices are constructed.
J_MAX = 10

_ROTATION_TOL = 1e-9
_POLE_TOL = 1e-15


@dataclass(frozen=True)
class Direction:
    """A point on the unit sphere identifying a momentum direction.

    Parameters
    ----------
    theta : float
        Polar angle in [0, pi], radians.
    phi : float
        Finite azimuthal angle, radians; stored reduced to [0, 2*pi). At the
        poles (theta = 0 or pi) the azimuth is canonicalized to 0.
    """

    theta: float
    phi: float

    def __post_init__(self):
        theta = float(self.theta)
        phi = float(self.phi)
        if -_POLE_TOL <= theta < 0.0:
            theta = 0.0
        if np.pi < theta <= np.pi + _POLE_TOL:
            theta = np.pi
        if not 0.0 <= theta <= np.pi:
            raise ValueError(f"polar angle must lie in [0, pi], got {theta}")
        if not math.isfinite(phi):
            raise ValueError(f"azimuth must be finite, got {phi}")
        phi = phi % (2.0 * np.pi)
        if theta in (0.0, np.pi):
            phi = 0.0
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    @classmethod
    def from_vector(cls, v) -> "Direction":
        """Direction of a nonzero 3-vector, theta = atan2(hypot(v_x, v_y), v_z).

        Keeps a tilt off either pole, and the direction of a vector whose norm underflows.
        """
        v = np.asarray(v, dtype=float)
        if not np.any(v):
            raise ValueError("direction of the zero vector is undefined")
        theta = math.atan2(math.hypot(v[0], v[1]), v[2])
        return cls(theta, math.atan2(v[1], v[0]))

    @property
    def unit_vector(self) -> np.ndarray:
        st = np.sin(self.theta)
        return np.array(
            [st * np.cos(self.phi), st * np.sin(self.phi), np.cos(self.theta)]
        )


def rotation_z(angle: float) -> np.ndarray:
    """Rotation by ``angle`` about the z-axis."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_y(angle: float) -> np.ndarray:
    """Rotation by ``angle`` about the y-axis."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_from_axis_angle(axis, angle: float) -> np.ndarray:
    """Proper orthogonal matrix rotating by ``angle`` about ``axis``.

    The axis is normalized internally; a zero axis raises ``ValueError``.
    """
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        raise ValueError("rotation axis must have nonzero norm")
    u = axis / norm
    k = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
    c, s = np.cos(angle), np.sin(angle)
    return c * np.eye(3) + s * k + (1.0 - c) * np.outer(u, u)


def require_rotation_matrix(R, tol: float = _ROTATION_TOL) -> np.ndarray:
    """Validate that R is a proper orthogonal 3x3 matrix; returns it as float array."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ValueError(f"rotation matrix must be 3x3, got shape {R.shape}")
    if not np.all(np.isfinite(R)):
        raise ValueError("rotation matrix entries must be finite")
    if np.abs(R.T @ R - np.eye(3)).max() > tol:
        raise ValueError("matrix is not orthogonal within tolerance")
    if abs(np.linalg.det(R) - 1.0) > tol:
        raise ValueError("matrix determinant differs from +1; not a proper rotation")
    return R


def standard_rotation(direction: Direction) -> np.ndarray:
    """The rotation R_z(phi) R_y(theta) R_z(-phi) carrying z-hat to ``direction``.

    Fixes the helicity frame for every momentum direction. With the canonical
    pole convention (phi = 0) this is the identity at theta = 0 and R_y(pi)
    at theta = pi.
    """
    return (
        rotation_z(direction.phi)
        @ rotation_y(direction.theta)
        @ rotation_z(-direction.phi)
    )


@lru_cache(maxsize=None)
def _generators(j: int):
    """Spin-j angular momentum matrices (Jx, Jy, Jz), basis ordered m = +j..-j."""
    n = 2 * j + 1
    m = np.arange(j, -j - 1, -1, dtype=float)
    jz = np.diag(m).astype(complex)
    jp = np.zeros((n, n))
    for i in range(1, n):
        # raising operator: |j,m> -> sqrt(j(j+1) - m(m+1)) |j,m+1>
        jp[i - 1, i] = np.sqrt(j * (j + 1) - m[i] * (m[i] + 1))
    jm = jp.T
    jx = ((jp + jm) / 2.0).astype(complex)
    jy = (jp - jm) / 2.0j
    return jx, jy, jz


def angular_momentum_generators(j: int):
    """Return (Jx, Jy, Jz) for integer spin j in the descending-m basis."""
    j = _validated_spin(j)
    jx, jy, jz = _generators(j)
    return jx.copy(), jy.copy(), jz.copy()


@lru_cache(maxsize=None)
def _jy_eigensystem(j: int):
    """Eigenvalues and eigenvectors of the spin-j Jy, read-only."""
    evals, vecs = np.linalg.eigh(_generators(j)[1])
    evals.flags.writeable = vecs.flags.writeable = False
    return evals, vecs


@lru_cache(maxsize=J_MAX + 1)
def _magnetic_numbers(j: int) -> np.ndarray:
    """Read-only m = +j, ..., -j, the order of D-matrix rows and columns."""
    m = np.arange(j, -j - 1, -1)
    m.setflags(write=False)
    return m


@lru_cache(maxsize=J_MAX + 1)
def _fourier_basis(j: int):
    """Read-only (lam, F) with d^j(beta) = t(beta) @ F, F of shape (2j+1, (2j+1)^2),
    t = (cos(lam beta), sin(lam[1:] beta)) and lam = 0, ..., j.

    exp(-i beta Jy) = sum_k e^(-i beta e_k) P_k over the projectors of the Jy
    eigenvalues e_k = k - j (ascending), so the +-lam pair gives
    cos(lam beta) Re(P_+ + P_-) + sin(lam beta) Im(P_+ - P_-). d_mm' is even in
    beta for even m - m' and odd otherwise; the other parity is set to exact zeros,
    so that d_m,m+1 ~ beta keeps its relative precision near beta = 0 whatever
    the eigensolver's rounding.
    """
    _, vecs = _jy_eigensystem(j)
    proj = vecs.T[:, :, None] * vecs.T.conj()[:, None, :]  # P_k[m, n]
    up, down = proj[j:], proj[j::-1]
    cos, sin = (up + down).real, (up - down).imag[1:]
    cos[0] /= 2.0
    m = _magnetic_numbers(j)
    odd = (m[:, None] - m) % 2 == 1
    cos[:, odd] = 0.0
    sin[:, ~odd] = 0.0
    lam = np.arange(j + 1.0)
    basis = np.concatenate((cos, sin)).reshape(2 * j + 1, -1)
    lam.setflags(write=False)
    basis.setflags(write=False)
    return lam, basis


def _validated_spin(j) -> int:
    if j != int(j) or j < 0:
        raise ValueError(
            f"spin must be a non-negative integer (half-integer spins unsupported), got {j}"
        )
    j = int(j)
    if j > J_MAX:
        raise ValueError(f"spin j={j} exceeds the supported maximum {J_MAX}")
    return j


def wigner_D(j: int, R) -> np.ndarray:
    """Wigner D-matrix of the spin-j representation of rotation ``R``.

    Writes R = R_z(alpha) R_y(beta) R_z(gamma); returns exp(-i alpha Jz)
    d^(j)(beta) exp(-i gamma Jz). Near beta = 0 (pi) gamma comes from the
    alpha + gamma (alpha - gamma) that the 2x2 block fixes well, so the error
    of alpha multiplies only d-entries that vanish there.

    Returns
    -------
    numpy.ndarray
        Complex unitary matrix of shape (2j+1, 2j+1), indices ordered
        m = +j, ..., -j.
    """
    j = _validated_spin(j)
    R = require_rotation_matrix(R)
    beta = math.atan2(math.hypot(R[0, 2], R[1, 2]), R[2, 2])
    alpha = math.atan2(R[1, 2], R[0, 2])
    if R[2, 2] >= 0.0:
        gamma = math.atan2(R[1, 0] - R[0, 1], R[0, 0] + R[1, 1]) - alpha
    else:
        gamma = alpha - math.atan2(-(R[1, 0] + R[0, 1]), R[1, 1] - R[0, 0])
    m = _magnetic_numbers(j)
    return np.exp(-1j * alpha * m)[:, None] * _small_d(j, beta) * np.exp(-1j * gamma * m)


def small_d_matrix(j: int, beta) -> np.ndarray:
    """Reduced rotation matrix d^(j)(beta) = exp(-i beta Jy), vectorized in beta.

    Returns a real array of shape ``beta.shape + (2j+1, 2j+1)`` with the same
    descending-m index ordering as :func:`wigner_D`. Raises ValueError for a
    non-finite angle.
    """
    j = _validated_spin(j)
    beta = np.asarray(beta, dtype=float)
    if not np.isfinite(beta).all():
        raise ValueError("rotation angle beta must be finite")
    return _small_d(j, beta)


def _small_d(j: int, beta) -> np.ndarray:
    """:func:`small_d_matrix` for a valid spin and finite ``beta``, unchecked."""
    lam, basis = _fourier_basis(j)
    x = np.multiply.outer(beta, lam)
    t = np.empty(x.shape[:-1] + (2 * j + 1,))
    np.cos(x, out=t[..., : j + 1])
    np.sin(x[..., 1:], out=t[..., j + 1 :])
    return (t @ basis).reshape(x.shape[:-1] + (2 * j + 1, 2 * j + 1))


def wigner_angle(R, direction: Direction, tol: float = 1e-12) -> float:
    """Angle of the little-group rotation induced on the helicity frame.

    Composing the inverse standard rotation at the rotated direction with R
    and the standard rotation at ``direction`` yields a rotation that fixes
    the z-axis; the returned angle w, reduced to (-pi, pi], reproduces that
    composition as a rotation about z.

    Raises
    ------
    RuntimeError
        If the composed matrix fails to fix the z-axis within ``tol``.
    """
    R = require_rotation_matrix(R)
    rotated = Direction.from_vector(R @ direction.unit_vector)
    composed = standard_rotation(rotated).T @ R @ standard_rotation(direction)
    z = np.array([0.0, 0.0, 1.0])
    defect = max(
        np.abs(composed @ z - z).max(),
        np.abs(composed.T @ z - z).max(),
    )
    if defect > tol:
        raise RuntimeError(
            f"composed frame rotation does not fix the z-axis (defect {defect:.3e})"
        )
    w = float(np.arctan2(composed[1, 0], composed[0, 0]))
    if w <= -np.pi:
        w += 2.0 * np.pi
    return w


# Unitary <sigma|i>: rows sigma = (+1, 0, -1), columns i = (x, y, z).
_SPH_TO_CART = np.array(
    [
        [-1.0, 1.0j, 0.0],
        [0.0, 0.0, np.sqrt(2.0)],
        [1.0, 1.0j, 0.0],
    ],
    dtype=complex,
) / np.sqrt(2.0)


def spherical_to_cartesian() -> np.ndarray:
    """Unitary matrix mapping Cartesian axis labels to spherical labels.

    Rows are indexed by sigma = (+1, 0, -1) and columns by (x, y, z).
    Conjugating the spin-1 D-matrix by this unitary returns the plain 3x3
    rotation matrix: ``U.conj().T @ wigner_D(1, R) @ U == R``.
    """
    return _SPH_TO_CART.copy()
