"""Equal-time scalar products and overlap kernels for localized-state families.

Production path
---------------
For every family the equal-time overlap of two label states reduces to

    K_{l1 l2}(r) = (2*pi)^-3 * integral d^3k  w(k) G_{l1 l2}(khat) e^{i k.r},

with r = x1_vec - x2_vec, radial weight w(k) = k^s exp(-a^2 k^2) carrying the
measure left over by the covariant normalization, and G the helicity sum over
the family's spectrum. In the frame aligned with r the angular matrix is
diagonal with entries that are polynomials of degree 2j in cos(theta). A
(2j+1)-node Gauss-Legendre rule projects them exactly on Legendre
polynomials, which turns the angular integral into 4*pi i^l j_l(kr) per
order. Each radial integral then has a closed form (Gradshteyn-Ryzhik
6.631.1 with j_l(y) = sqrt(pi/2y) J_(l+1/2)(y)):

    I_l = integral_0^inf dk k^(2+s) exp(-a^2 k^2) j_l(k r)
        = sqrt(pi)/2^(l+2) * Gamma(b)/Gamma(c) * x^l * a^-(3+s) * 1F1(b; c; -x^2/4),

with x = r/a, b = (l+3+s)/2 and c = l+3/2. The aligned result is conjugated
back by the representation matrix of the aligning rotation. No production
step has a node count or a tolerance.

Oracle path
-----------
``brute_force_overlap`` and ``brute_force_kernel_matrix`` sum the full
3-D product grid (Gauss-Legendre in cos(theta) x uniform azimuth x
Gauss-Legendre radial) at four times the node counts of a
:class:`QuadratureSpec`, building the integrand from momentum amplitudes and
D-matrices directly. The spin-1 D-matrix table on the angular grid is one
stacked generator exponential over the polar nodes times azimuthal phases
(the Euler factorization of the standard rotation), cached per grid and
basis; ``brute_force_kernel_matrix`` then sums the angular nodes at each
radial node and the radial nodes last, both as matrix products. They share
no reduction step, D-matrix builder or closed form with the production path
and back every kernel result in the tests and the ``--oracle`` CLI path.

All evaluations are pure functions with a fixed summation order, so results
do not depend on how calls are distributed over threads or processes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm
from scipy.special import eval_legendre, gammaln, hyp1f1

from .polarization import validate_helicities
from .rotations import (
    Direction,
    angular_momentum_generators,
    small_d_matrix,
    spherical_to_cartesian,
    standard_rotation,
    wigner_D,
)
from .states import (
    RADIATION_GAUGE,
    SCALAR,
    LocalizedState,
    StateFamily,
    momentum_amplitude,
    require_regulator_width,
)

#: The oracle truncates momentum integrals at k = cutoff / a; exp(-8.5^2) ~ 5e-32.
RADIAL_CUTOFF = 8.5


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts of the brute-force oracle.

    ``n_theta`` Gauss-Legendre nodes in cos(theta), ``n_phi`` uniform
    azimuthal nodes and ``n_radial`` Gauss-Legendre nodes on
    [0, RADIAL_CUTOFF / a]; the oracle multiplies every count by four.
    Each count must be an integer (numpy integers included) of at least 4.
    """

    n_theta: int = 32
    n_phi: int = 32
    n_radial: int = 64

    def __post_init__(self):
        for name in ("n_theta", "n_phi", "n_radial"):
            if operator.index(getattr(self, name)) < 4:
                raise ValueError(f"{name} must be at least 4")


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Label-by-label equal-time overlap matrix at a fixed spatial separation."""

    separation: np.ndarray
    entries: np.ndarray
    family: str
    regulator_width: float
    labels: tuple


def gaussian_delta(r: float, a: float) -> float:
    """Gaussian-regulated three-dimensional delta, exp(-r^2/4a^2) / (8 pi^(3/2) a^3)."""
    return np.exp(-r * r / (4.0 * a * a)) / (8.0 * np.pi**1.5 * a**3)


@lru_cache(maxsize=None)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _radial_integrals(lmax: int, r: float, a: float, s: float) -> np.ndarray:
    """I_l = integral_0^inf dk k^(2+s) exp(-a^2 k^2) j_l(k r) for l = 0..lmax.

    Closed form of the module docstring, for s in {0, -1}. Raises ValueError
    where 1F1 leaves the double range: r/a beyond ~2e14 at lmax = 20
    (spin 10), ~3e46 at lmax = 2.
    """
    l = np.arange(lmax + 1)
    x = r / a
    b, c = (l + 3.0 + s) / 2.0, l + 1.5
    z = x * x / 4.0
    hyp = np.empty(lmax + 1)
    # b == c only at l = s = 0, where 1F1 is exactly exp(-z) and scipy's series costs O(z)
    same = b == c
    hyp[same] = np.exp(-z)
    hyp[~same] = hyp1f1(b[~same], c[~same], -z)
    # 1F1(b; c; -z) > 0 for c > b > 0, so a value below the normal range has underflowed
    if not np.all(hyp[~same] >= np.finfo(float).tiny):
        raise ValueError(
            f"separation r/a = {x:.3g} is beyond the double range of Legendre orders to {lmax}"
        )
    prefactor = np.sqrt(np.pi) * 2.0 ** -(l + 2.0) * np.exp(gammaln(b) - gammaln(c))
    return prefactor * x**l * a ** -(3.0 + s) * hyp


def _separation(rvec) -> np.ndarray:
    rvec = np.asarray(rvec, dtype=float)
    if rvec.shape != (3,):
        raise ValueError(f"separation must be a 3-vector, got shape {rvec.shape}")
    if not np.all(np.isfinite(rvec)):
        raise ValueError(f"separation must be finite, got {rvec}")
    return rvec


def _state_separation(s1: LocalizedState, s2: LocalizedState) -> np.ndarray:
    """Spatial separation x1 - x2 of two states' anchors, checked finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected
        return _separation(s1.x[1:] - s2.x[1:])


def _aligned_diagonal(j: int, helicities: tuple, r: float, a: float, s: float) -> np.ndarray:
    """Diagonal of the kernel in the frame whose z-axis is the separation."""
    # f has degree 2j in mu, so P_l * f (l <= 2j) has degree <= 4j: 2j+1 nodes are exact
    mu, w = _leggauss(2 * j + 1)
    d = small_d_matrix(j, np.arccos(mu))  # (n, 2j+1, 2j+1)
    cols = [j - lam for lam in helicities]
    f = (d[:, :, cols] ** 2).sum(axis=2)  # (n, 2j+1); phi-independent diagonals
    l = np.arange(2 * j + 1)
    coeff = ((2 * l + 1) / 2.0)[:, None] * (eval_legendre(l[:, None], mu) * w) @ f
    powers = np.array([1.0, 1j, -1.0, -1j])[l % 4]
    diag = (powers * _radial_integrals(2 * j, r, a, s)) @ coeff
    return diag * (4.0 * np.pi / (2.0 * np.pi) ** 3)


def _spherical_kernel(j: int, helicities: tuple, rvec: np.ndarray, a: float,
                      s: float) -> np.ndarray:
    """Kernel matrix in the spherical label basis at separation ``rvec``."""
    rnorm = float(np.linalg.norm(rvec))
    diag = _aligned_diagonal(j, helicities, rnorm, a, s)
    if rnorm == 0.0:
        return np.diag(diag)
    D = wigner_D(j, standard_rotation(Direction.from_vector(rvec)))
    return D @ np.diag(diag) @ D.conj().T


def _family_kernel_parameters(family: StateFamily):
    """(helicity set, label basis, radial measure power) for a 3-label family."""
    if family.kind == SCALAR:
        raise ValueError(
            "the scalar family has a single label; use qm_overlap on scalar states"
        )
    s = 1.0 - 2.0 * family.weight_exponent
    return family.helicities, family.label_basis, s


def overlap_kernel_matrix(family: StateFamily, rvec, a: float) -> KernelMatrix:
    """Full label-by-label equal-time overlap matrix at spatial separation rvec.

    Full-helicity families give the regulated delta times the identity;
    photon families lose the longitudinal projector term, which survives as a
    non-local transverse tail.
    """
    a = require_regulator_width(a)
    helicities, basis, s = _family_kernel_parameters(family)
    rvec = _separation(rvec)
    entries = _spherical_kernel(1, helicities, rvec, a, s)
    if basis == "cartesian":
        u = spherical_to_cartesian()
        entries = u.conj().T @ entries @ u
    return KernelMatrix(rvec.copy(), entries, family.kind, a, family.labels)


def transverse_kernel(rvec, a: float) -> np.ndarray:
    """Fourier transform of khat_i khat_j against the regulated measure.

    Real symmetric 3x3 matrix; its trace equals the regulated scalar delta
    and its large-separation limit is -(3 rhat rhat^T - I) / (4 pi r^3).
    """
    a = require_regulator_width(a)
    entries = _spherical_kernel(1, (0,), _separation(rvec), a, 0.0)
    u = spherical_to_cartesian()
    entries = u.conj().T @ entries @ u
    scale = np.abs(entries).max()
    if scale > 0 and np.abs(entries.imag).max() > 1e-10 * scale:
        raise RuntimeError("transverse kernel acquired a non-negligible imaginary part")
    return entries.real


def general_j_defect(j: int, helicities, rvec, a: float) -> KernelMatrix:
    """Kernel of the completeness defect for a spin-j label set.

    ``helicities`` lists the helicities the particle actually carries; the
    returned matrix is the Fourier transform, against the regulated measure,
    of the helicity sum over the *missing* helicities. It vanishes for the
    full set and is nonzero for every incomplete one.
    """
    if j != int(j) or j < 1:
        raise ValueError(f"spin must be a positive integer, got {j}")
    j = int(j)
    a = require_regulator_width(a)
    present = validate_helicities(helicities, j)
    missing = tuple(lam for lam in range(-j, j + 1) if lam not in present)
    rvec = _separation(rvec)
    labels = tuple(range(j, -j - 1, -1))
    if not missing:
        entries = np.zeros((2 * j + 1, 2 * j + 1), dtype=complex)
    else:
        entries = _spherical_kernel(j, missing, rvec, a, 0.0)
    return KernelMatrix(rvec.copy(), entries, f"helicity-defect-j{j}", a, labels)


def _require_overlap_compatible(s1: LocalizedState, s2: LocalizedState):
    for s in (s1, s2):
        require_regulator_width(s.regulator_width)
        if s.family.frequency_sign != "positive":
            raise ValueError(
                "negative-frequency states are translation test fixtures and do "
                "not enter overlap computations"
            )
    if s1.family.kind != s2.family.kind:
        raise ValueError(
            f"overlap requires matching families, got {s1.family.kind!r} and "
            f"{s2.family.kind!r}"
        )
    if s1.x[0] != s2.x[0]:
        raise ValueError("only equal-time overlaps are supported")
    if s1.regulator_width != s2.regulator_width:
        raise ValueError("states must share the same regulator width")


def qm_overlap(s1: LocalizedState, s2: LocalizedState) -> complex:
    """Quantum-mechanical overlap <s1|s2> under the covariant measure.

    The momentum integral carries one power of omega from the covariant
    normalization of the basis vectors; everything else lives in the state
    amplitudes. Reduces to the label-coefficient contraction of the family's
    kernel matrix.
    """
    _require_overlap_compatible(s1, s2)
    rvec = _state_separation(s1, s2)
    a = s1.regulator_width
    if s1.family.kind == SCALAR:
        entries = _spherical_kernel(0, (0,), rvec, a, 0.0)
    else:
        entries = overlap_kernel_matrix(s1.family, rvec, a).entries
    return complex(s1.coefficients.conj() @ entries @ s2.coefficients)


def alt_overlap(s1: LocalizedState, s2: LocalizedState) -> complex:
    """Label-summed alternative pairing of two radiation-gauge states.

    Traces over the vector label using the unit normalization of the
    transverse polarization vectors, so the integrand collapses to twice the
    plane-wave Gaussian and the result is twice the regulated delta. The
    states' label coefficients never enter; that loss of label resolution is
    exactly what separates this pairing from :func:`qm_overlap`.
    """
    for s in (s1, s2):
        if s.family.kind != RADIATION_GAUGE:
            raise ValueError(
                "the alternative pairing is defined for radiation-gauge states only"
            )
    _require_overlap_compatible(s1, s2)
    rnorm = float(np.linalg.norm(_state_separation(s1, s2)))
    return complex(2.0 * gaussian_delta(rnorm, s1.regulator_width))


# --- brute-force product-grid oracle ---------------------------------------


def _oracle_radial_grid(q: QuadratureSpec, a: float):
    nk = 4 * q.n_radial
    t, w = _leggauss(nk)
    k = (t + 1.0) * (RADIAL_CUTOFF / (2.0 * a))
    wk = w * (RADIAL_CUTOFF / (2.0 * a))
    return k, wk


@lru_cache(maxsize=4)
def _oracle_label_coefficients(basis: str, n_theta: int, n_phi: int):
    """Label coefficients on the oracle angular grid, built from D-matrices.

    Returns read-only (khat, angular weights, A) with A[label, node, helicity]
    the amplitude coefficient for each of the three labels; helicity axis
    ordered (+1, 0, -1). On the product grid the standard rotation factorizes
    as D(R_z(phi) R_y(theta) R_z(-phi)) = exp(-i phi Jz) exp(-i theta Jy)
    exp(i phi Jz), so one stacked ``expm`` over the polar nodes and broadcast
    azimuthal phases give every node, independently of ``small_d_matrix``,
    ``wigner_D`` and the closed forms used by the state amplitudes.
    """
    nmu, nphi = 4 * n_theta, 4 * n_phi
    mu, wmu = _leggauss(nmu)
    phi = np.arange(nphi) * (2.0 * np.pi / nphi)
    st = np.sqrt(1.0 - mu**2)
    khat = np.empty((nmu * nphi, 3))
    khat[:, 0] = np.outer(st, np.cos(phi)).ravel()
    khat[:, 1] = np.outer(st, np.sin(phi)).ravel()
    khat[:, 2] = np.outer(mu, np.ones(nphi)).ravel()
    weights = np.outer(wmu, np.full(nphi, 2.0 * np.pi / nphi)).ravel()
    _, jy, _ = angular_momentum_generators(1)
    d = expm(np.arccos(mu)[:, None, None] * (-1j * jy).real)  # (nmu, 3, 3), real
    m = np.array([1.0, 0.0, -1.0])
    ph = np.exp(1j * np.outer(phi, m))  # (nphi, 3)
    # conj(D)[node, sigma, helicity]: rows sigma, columns helicity, both descending
    conj_d = ph[None, :, :, None] * d[:, None, :, :] * ph.conj()[None, :, None, :]
    conj_d = conj_d.reshape(nmu * nphi, 3, 3)
    if basis == "cartesian":
        conj_d = spherical_to_cartesian().T @ conj_d
    A = conj_d.transpose(1, 0, 2)
    for arr in (khat, weights, A):
        arr.setflags(write=False)
    return khat, weights, A


def brute_force_kernel_matrix(family: StateFamily, rvec, a: float,
                              q: QuadratureSpec | None = None) -> KernelMatrix:
    """Oracle kernel matrix by direct 3-D product-grid quadrature."""
    a = require_regulator_width(a)
    q = q or QuadratureSpec()
    helicities, basis, s = _family_kernel_parameters(family)
    rvec = _separation(rvec)
    khat, wang, A = _oracle_label_coefficients(basis, q.n_theta, q.n_phi)
    rows = [1 - lam for lam in helicities]
    G = np.einsum("anl,bnl->abn", A[:, :, rows].conj(), A[:, :, rows])
    k, wk = _oracle_radial_grid(q, a)
    wrad = wk * k ** (2.0 + s) * np.exp(-a * a * k * k)
    phase = np.exp(1j * np.outer(k, khat @ rvec))
    # angular sum at each radial node first, then the radial sum: this order keeps
    # the oracle at its rounding floor (cli max_rel_err 6.5e-14); a single einsum
    # over both node sets measured up to 2.7e-12 and radial-first 2.0e-13
    angular = phase @ (G * wang).reshape(-1, khat.shape[0]).T  # (radial, label pairs)
    entries = (wrad @ angular).reshape(3, 3) / (2.0 * np.pi) ** 3
    return KernelMatrix(rvec.copy(), entries, family.kind, a, family.labels)


def brute_force_overlap(s1: LocalizedState, s2: LocalizedState,
                        q: QuadratureSpec | None = None) -> complex:
    """Oracle overlap summing momentum amplitudes over the 3-D product grid."""
    q = q or QuadratureSpec()
    _require_overlap_compatible(s1, s2)
    a = s1.regulator_width
    khat, wang, _ = _oracle_label_coefficients("spherical", q.n_theta, q.n_phi)
    k, wk = _oracle_radial_grid(q, a)
    wrad = wk * k**3  # k^2 from the volume element, one k from the measure
    total = 0.0 + 0.0j
    block = max(1, 2_000_000 // khat.shape[0])
    for start in range(0, k.size, block):
        kb = k[start : start + block]
        kvecs = kb[:, None, None] * khat[None, :, :]
        acc = np.zeros((kb.size, khat.shape[0]), dtype=complex)
        for lam in s1.family.helicities:
            amp1 = momentum_amplitude(s1, kvecs, lam)
            amp2 = momentum_amplitude(s2, kvecs, lam)
            acc += amp1.conj() * amp2
        total += wrad[start : start + block] @ (acc @ wang)
    return complex(total)
