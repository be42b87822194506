"""Independent reference values for the photonloc benchmark.

Nothing here imports photonloc or copies its reduction steps. Every kernel is
written from its closed form:

* full-helicity families: ``delta_a(r) * I``;
* ``s = 0`` photon families: ``delta_a(r) * I - T`` with
  ``T_ij = -d_i d_j [erf(r/2a) / (4 pi r)]``, which is also ``transverse_kernel``;
* radiation gauge (``s = -1``) and spin-j completeness defects: the
  Gaussian-Bessel integral
  ``I_l = sqrt(pi)/2^(l+2) Gamma((l+3+s)/2)/Gamma(l+3/2) r^l/a^(l+3+s)
  1F1((l+3+s)/2; l+3/2; -r^2/4a^2)``
  in mpmath, with Wigner's explicit-sum ``d^j`` for the angular part.

mpmath carries 40 digits, so the ``erf`` form stays exact near ``r/a = 0.01``
where double precision would cancel about five digits.

Conventions match the photonloc documentation: labels run ``+j .. -j``,
spherical spin-1 labels are ``(+1, 0, -1)``, Cartesian labels ``(x, y, z)``,
and the kernel is ``(2 pi)^-3 int d^3k k^s exp(-a^2 k^2) G(khat) exp(i k.r)``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp
import numpy as np

mp.mp.dps = 40

#: 4 pi / (2 pi)^3, the angular factor of every partial-wave term.
_C = 1.0 / (2.0 * math.pi**2)

#: <sigma|i>: rows sigma = (+1, 0, -1), columns (x, y, z); e_{+1} = -(x + i y)/sqrt 2.
U = np.array([[-1.0, 1.0j, 0.0], [0.0, 0.0, math.sqrt(2.0)], [1.0, 1.0j, 0.0]]) / math.sqrt(2.0)

#: family kind -> (helicity set, label basis, radial power s)
FAMILIES = {
    "spherical3": ((-1, 0, 1), "spherical", 0),
    "cartesian3": ((-1, 0, 1), "cartesian", 0),
    "spherical-photon": ((-1, 1), "spherical", 0),
    "cartesian-photon": ((-1, 1), "cartesian", 0),
    "radiation-gauge": ((-1, 1), "cartesian", -1),
}
SPHERICAL_LABELS = (1, 0, -1)
CARTESIAN_LABELS = ("x", "y", "z")


def dipole_floor(r: float, a: float, s: int = 0) -> float:
    """Dipole scale 1/(4 pi max(r, a)^(3+s)), the error measure's floor.

    For the photon families (s = 0) this is the photon dipole scale. A kernel
    with radial power s has the dimension of length^-(3+s), so the
    radiation-gauge family (s = -1) takes the same scale in its own units,
    which keeps its errors independent of ``a``.
    """
    return 1.0 / (4.0 * math.pi * max(r, a) ** (3 + s))


def rel_err(value, ref, r: float, a: float, s: int = 0) -> float:
    """max|value - ref| / max(max|ref|, dipole floor); inf if anything is not finite."""
    value = np.asarray(value, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    scale = max(float(np.abs(ref).max()), dipole_floor(r, a, s))
    err = float(np.abs(value - ref).max()) / scale
    return err if math.isfinite(err) else math.inf


def delta_a(r: float, a: float) -> float:
    """Gaussian-regulated delta exp(-r^2/4a^2) / (8 pi^1.5 a^3)."""
    r, a = mp.mpf(r), mp.mpf(a)
    return float(mp.exp(-r * r / (4 * a * a)) / (8 * mp.pi**1.5 * a**3))


def radial(l: int, s: int, r: float, a: float) -> float:
    """I_l = int_0^inf k^(2+s) exp(-a^2 k^2) j_l(k r) dk, closed form."""
    if r == 0.0:
        return 0.0 if l else float(mp.gamma(mp.mpf(3 + s) / 2) / (2 * mp.mpf(a) ** (3 + s)))
    r, a = mp.mpf(r), mp.mpf(a)
    alpha = mp.mpf(l + 3 + s) / 2
    beta = l + mp.mpf(3) / 2
    value = (mp.sqrt(mp.pi) / 2 ** (l + 2) * mp.gamma(alpha) / mp.gamma(beta)
             * r**l / a ** (l + 3 + s) * mp.hyp1f1(alpha, beta, -r * r / (4 * a * a)))
    return float(value)


def _unit(rvec):
    rvec = np.asarray(rvec, dtype=float)
    r = float(np.linalg.norm(rvec))
    return r, (rvec / r if r > 0.0 else np.zeros(3))


def transverse(rvec, a: float) -> np.ndarray:
    """T_ij = -d_i d_j [erf(r/2a) / (4 pi r)], the Fourier transform of khat_i khat_j."""
    r, n = _unit(rvec)
    if r == 0.0:
        return np.eye(3) * delta_a(0.0, a) / 3.0
    rm, am = mp.mpf(r), mp.mpf(a)
    x = rm / (2 * am)
    erf = mp.erf(x)
    g = mp.exp(-x * x) / (am * mp.sqrt(mp.pi))  # d/dr erf(r/2a)
    dg = -g * rm / (2 * am * am)
    f1 = (g * rm - erf) / (4 * mp.pi * rm**2)
    f2 = (dg * rm**2 - 2 * g * rm + 2 * erf) / (4 * mp.pi * rm**3)
    nn = np.outer(n, n)
    return -(float(f2) * nn + float(f1 / rm) * (np.eye(3) - nn))


def _transverse_partial_waves(rvec, a: float, s: int) -> np.ndarray:
    """FT of (delta_ij - khat_i khat_j) k^s e^{-a^2 k^2}: C[2/3 I_0 delta + (rr - delta/3) I_2]."""
    r, n = _unit(rvec)
    i0, i2 = radial(0, s, r, a), radial(2, s, r, a)
    return _C * (2.0 / 3.0 * i0 * np.eye(3) + i2 * (np.outer(n, n) - np.eye(3) / 3.0))


def cartesian_kernel(kind: str, rvec, a: float) -> np.ndarray:
    """Spin-1 family kernel in Cartesian labels."""
    helicities, _, s = FAMILIES[kind]
    r = float(np.linalg.norm(rvec))
    if len(helicities) == 3:
        return delta_a(r, a) * np.eye(3, dtype=complex)
    if s == 0:
        return (delta_a(r, a) * np.eye(3) - transverse(rvec, a)).astype(complex)
    return _transverse_partial_waves(rvec, a, s).astype(complex)


def family_kernel(kind: str, rvec, a: float) -> np.ndarray:
    """Kernel matrix of a three-label family in its own label basis."""
    k = cartesian_kernel(kind, rvec, a)
    if FAMILIES[kind][1] == "spherical":
        return U @ k @ U.conj().T
    return k


def label_vector(kind: str, label) -> np.ndarray:
    """Unit coefficient vector of a label."""
    if kind == "scalar":
        return np.ones(1, dtype=complex)
    labels = SPHERICAL_LABELS if FAMILIES[kind][1] == "spherical" else CARTESIAN_LABELS
    c = np.zeros(3, dtype=complex)
    c[labels.index(label)] = 1.0
    return c


def rotated_coefficients(kind: str, label, R) -> np.ndarray:
    """Label coefficients after an active rotation R: D^1(R) = U R U^dagger, or R."""
    c = label_vector(kind, label)
    if kind == "scalar":
        return c
    if FAMILIES[kind][1] == "spherical":
        return U @ np.asarray(R) @ U.conj().T @ c
    return np.asarray(R) @ c


def qm_overlap(kind: str, x1, c1, x2, c2, a: float) -> complex:
    """<s1|s2> = c1^dagger K(x1 - x2) c2 for equal-time states."""
    rvec = np.asarray(x1, dtype=float)[1:] - np.asarray(x2, dtype=float)[1:]
    if kind == "scalar":
        k = np.full((1, 1), delta_a(float(np.linalg.norm(rvec)), a), dtype=complex)
    else:
        k = family_kernel(kind, rvec, a)
    return complex(np.conj(c1) @ k @ c2)


def alt_overlap(r: float, a: float) -> complex:
    """Label-summed pairing of radiation-gauge states: twice the regulated delta."""
    return complex(2.0 * delta_a(r, a))


# --- spin-j completeness defect --------------------------------------------


@lru_cache(maxsize=None)
def _small_d_terms(j: int):
    """Wigner's explicit sum for d^j_{m'm}: coefficient and half-angle powers per term."""
    n = 2 * j + 1
    kmax = 2 * j + 1
    coef = np.zeros((n, n, kmax))
    pc = np.zeros((n, n, kmax))
    ps = np.zeros((n, n, kmax))
    f = math.factorial
    for row, m1 in enumerate(range(j, -j - 1, -1)):
        for col, m in enumerate(range(j, -j - 1, -1)):
            pref = math.sqrt(f(j + m1) * f(j - m1) * f(j + m) * f(j - m))
            for t, k in enumerate(range(max(0, m - m1), min(j + m, j - m1) + 1)):
                sign = -1.0 if (m1 - m + k) % 2 else 1.0
                coef[row, col, t] = sign * pref / (f(j + m - k) * f(k) * f(m1 - m + k) * f(j - m1 - k))
                pc[row, col, t] = 2 * j + m - m1 - 2 * k
                ps[row, col, t] = m1 - m + 2 * k
    return coef, pc, ps


def small_d(j: int, beta) -> np.ndarray:
    """d^j(beta) = <j m'| exp(-i beta J_y) |j m>, shape beta.shape + (2j+1, 2j+1)."""
    coef, pc, ps = _small_d_terms(j)
    beta = np.asarray(beta, dtype=float)[..., None, None, None]
    return (coef * np.cos(beta / 2) ** pc * np.sin(beta / 2) ** ps).sum(axis=-1)


def _legendre(lmax: int, mu: np.ndarray) -> np.ndarray:
    p = np.empty((lmax + 1,) + mu.shape)
    p[0] = 1.0
    if lmax:
        p[1] = mu
    for l in range(1, lmax):
        p[l + 1] = ((2 * l + 1) * mu * p[l] - l * p[l - 1]) / (l + 1)
    return p


@lru_cache(maxsize=None)
def _projections(j: int) -> np.ndarray:
    """c[l, sigma, lambda] = (2l+1)/2 int P_l(mu) d^j_{sigma lambda}(theta)^2 dmu, exact."""
    mu, w = np.polynomial.legendre.leggauss(2 * j + 8)
    d2 = small_d(j, np.arccos(mu)) ** 2  # (nodes, sigma, lambda)
    p = _legendre(2 * j, mu)  # (l, nodes)
    scale = (2 * np.arange(2 * j + 1) + 1) / 2.0
    return scale[:, None, None] * np.einsum("ln,n,nsk->lsk", p, w, d2)


def defect_kernel(j: int, present, rvec, a: float) -> np.ndarray:
    """FT of the helicity sum over the helicities missing from ``present``."""
    n = 2 * j + 1
    missing = [lam for lam in range(-j, j + 1) if lam not in set(present)]
    if not missing:
        return np.zeros((n, n), dtype=complex)
    r, u = _unit(rvec)
    cols = [j - lam for lam in missing]
    coeff = _projections(j)[:, :, cols].sum(axis=2)  # (l, sigma)
    lmax = 2 * j if r > 0.0 else 0
    radial_l = np.array([radial(l, 0, r, a) for l in range(lmax + 1)])
    phases = (1j) ** np.arange(lmax + 1)
    diag = _C * (phases * radial_l) @ coeff[: lmax + 1]
    if r == 0.0:
        return np.diag(diag)
    theta = math.acos(max(-1.0, min(1.0, u[2])))
    phi = math.atan2(u[1], u[0])
    m = np.arange(j, -j - 1, -1)
    D = np.exp(-1j * m * phi)[:, None] * small_d(j, theta) * np.exp(1j * m * phi)[None, :]
    return (D * diag) @ D.conj().T
