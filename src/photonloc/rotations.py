"""Rotation-group machinery for momentum-helicity frames.

Provides plain 3x3 rotation matrices, the standard rotation carrying the
z-axis into a given momentum direction, Wigner D-matrices for integer spin,
the little-group (Wigner) angle induced on helicity frames, and the unitary
change of basis between spherical and Cartesian labels.

A direction is a unit 3-vector khat, checked by ``_unit_directions``; its
polar angles are read off its components, with azimuth 0 on the poles.

D-matrices are built one way: the ZYZ Euler angles of R, Jz phases and
``small_d_matrix``. The small-d matrix d^j(beta) is a trigonometric polynomial
of degree j, evaluated as its Fourier series: one complex exponential
exp(i lam beta), lam = 0..j, read as its cos/sin pairs, and one real matrix
product with coefficient matrices built once per spin from the Jy
eigensystem. A diagonal in the frame aligned with a direction (the kernels'
radial diagonal, a helicity indicator) is rotated one way too, by
``_rotated_diagonal``: A diag A^H with A = e^(-i phi Jz) d(theta), since the
standard rotation's last Jz phase commutes with the diagonal. The
brute-force oracle in ``overlap`` builds neither, to stay independent: it
reads the label rows off khat.

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
from functools import lru_cache

import numpy as np

#: Largest spin for which D-matrices are constructed.
J_MAX = 10

_ROTATION_TOL = 1e-9
_UNIT_TOL = 1e-12


def _unit_directions(khat) -> np.ndarray:
    """``khat`` as a float array of shape (M, 3) whose rows are finite unit vectors; one
    direction is checked as ``_unit_directions([khat])[0]``."""
    khat = np.asarray(khat, dtype=float)
    if khat.ndim != 2 or khat.shape[1] != 3:
        raise ValueError(f"directions must have shape (M, 3), got {khat.shape}")
    if not np.all(np.isfinite(khat)):
        raise ValueError("directions must be finite")
    if not np.all(np.abs(np.sqrt(np.sum(khat * khat, axis=1)) - 1.0) <= _UNIT_TOL):
        raise ValueError(f"directions must be unit vectors to {_UNIT_TOL}")
    return khat


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


def require_rotation_matrix(R) -> np.ndarray:
    """Validate that R is a proper orthogonal 3x3 matrix; returns it as float array."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ValueError(f"rotation matrix must be 3x3, got shape {R.shape}")
    if not np.all(np.isfinite(R)):
        raise ValueError("rotation matrix entries must be finite")
    if np.abs(R.T @ R - np.eye(3)).max() > _ROTATION_TOL:
        raise ValueError("matrix is not orthogonal within tolerance")
    if abs(np.linalg.det(R) - 1.0) > _ROTATION_TOL:
        raise ValueError("matrix determinant differs from +1; not a proper rotation")
    return R


def standard_rotation(khat) -> np.ndarray:
    """The rotation carrying z-hat to the unit vector ``khat``, by theta about
    (-sin phi, cos phi, 0): R_z(phi) R_y(theta) R_z(-phi), the helicity frame at khat.

    Built from the components, cos(theta) = z and sin(theta) e^(i phi) = x + i y, with
    cos(phi), sin(phi) the real quotients by rho = hypot(x, y), and phi = 0 on the poles
    as in :func:`photonloc.states._label_rows`: the identity at +z, R_y(pi) at -z.
    """
    x, y, z = _unit_directions([khat])[0].tolist()
    rho = math.hypot(x, y)
    c, s = (x / rho, y / rho) if rho > 0.0 else (1.0, 0.0)
    v = 1.0 - z  # Rodrigues: z I + rho [n]_x + (1 - z) n n^T, n = (-s, c, 0)
    return np.array([
        [z + v * s * s, -v * s * c, x],
        [-v * s * c, z + v * c * c, y],
        [-x, -y, z],
    ])


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
    """Read-only (i lam, F) with d^j(beta) = t(beta) @ F, F of shape (2j+2, (2j+1)^2),
    t = exp(i lam beta) viewed as real pairs (cos(lam beta), sin(lam beta)) and
    lam = 0, ..., j; the row of sin(0) is zero.

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
    cos, sin = (up + down).real, (up - down).imag
    cos[0] /= 2.0
    m = _magnetic_numbers(j)
    odd = (m[:, None] - m) % 2 == 1
    cos[:, odd] = 0.0
    sin[:, ~odd] = 0.0
    ilam = 1j * np.arange(j + 1.0)
    basis = np.stack((cos, sin), axis=1).reshape(2 * j + 2, -1)
    ilam.setflags(write=False)
    basis.setflags(write=False)
    return ilam, basis


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
    ilam, basis = _fourier_basis(j)
    t = np.exp(np.multiply.outer(beta, ilam))
    return (t.view(float) @ basis).reshape(t.shape[:-1] + (2 * j + 1, 2 * j + 1))


def _rotated_diagonal(j: int, v, diag: np.ndarray, basis: np.ndarray | None = None) -> np.ndarray:
    """A diag A^H with A = B e^(-i phi Jz) d(theta), for (theta, phi) the polar angles of
    the three floats ``v`` = (x, y, z) and B the change of basis ``basis`` (default I);
    B diag B^H at v = 0. ``diag`` is indexed m = +j..-j.

    This is D diag D^H for D the spin-j D-matrix of the standard rotation to v: its last
    Jz phase commutes with the diagonal.
    """
    x, y, z = v
    if not (x or y or z):
        if basis is None:
            return np.diag(diag)
        A = basis
    else:
        phi = math.atan2(y, x)
        if z < 0.0:  # d_mm'(pi - b) = (-1)^(j+m) d_m,-m'(b) keeps a tilt off -z exact
            diag, phi = diag[::-1], phi - math.pi
        d = _small_d(j, math.atan2(math.hypot(x, y), abs(z)))
        phase = np.exp(-1j * phi * _magnetic_numbers(j))
        A = d * phase[:, None]
        if basis is not None:
            A = basis @ A
    return (A * diag) @ A.conj().T


def wigner_angle(R, khat) -> float:
    """Angle of the little-group rotation induced on the helicity frame.

    Composing the inverse standard rotation at the rotated direction R khat with R
    and the standard rotation at the unit vector ``khat`` yields a rotation that
    fixes the z-axis; the returned angle w, reduced to (-pi, pi], reproduces that
    composition as a rotation about z.

    Raises
    ------
    RuntimeError
        If the composed matrix fails to fix the z-axis within 1e-12.
    """
    R = require_rotation_matrix(R)
    khat = _unit_directions([khat])[0]
    rotated = R @ khat  # renormalized: R is orthogonal only to the validation tolerance
    composed = standard_rotation(rotated / math.hypot(*rotated)).T @ R @ standard_rotation(khat)
    z = np.array([0.0, 0.0, 1.0])
    defect = max(np.abs(composed[:, 2] - z).max(), np.abs(composed[2] - z).max())
    if defect > 1e-12:
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
