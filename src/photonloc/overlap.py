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

with x = r/a, b = (l+3+s)/2 and c = l+3/2. The Legendre coefficients are
cached per spin, one column per helicity, and their sum over a helicity set
once per (spin, set) in a bounded cache. The aligned diagonal is rotated
back by ``rotations._rotated_diagonal``, the helicity sums' rotation too: with
theta and phi read off r by atan2, A diag A^H with A = B e^(-i phi m) d(theta),
with no rotation matrix, so a tilt off either pole keeps its precision.
d(theta) is the Fourier series of ``rotations``, evaluated unchecked because
the angle comes from atan2; B is the change of label basis, the identity for
spherical labels and the module-level constant U^H for Cartesian ones, so no
conjugation follows the rotation. A call checks
and copies its separation once. No production step has a node count or a
tolerance. ``scipy.special`` (1F1, Gamma, Legendre) serves only
this closed form and is imported where it runs, so a process that never
evaluates a production kernel never loads it.

Oracle path
-----------
``brute_force_overlap`` and ``brute_force_kernel_matrix`` sum a product grid
(Gauss-Legendre in cos(theta) x uniform azimuth x Gauss-Legendre radial) whose
polar axis is the separation r, so that the phase e^{i k.r} depends only on
(k, cos theta). Without a :class:`QuadratureSpec` the grid sizes itself from
k_max r: RADIAL_CUTOFF r / (2a) + 64 polar and radial nodes, rounded up to a
multiple of 32, and eight azimuths, exact for the degree-2 label part; an
explicit spec gives four times its counts. Both oracles take the label
dependence from the states' own label rows C(khat, lam), so the kernel oracle
is by construction the overlap oracle of unit-label states. Both sum their
phase in one loop, ``_oracle_polar_radial_sum``: e^{i k p(cos theta)} per
block of radial shells, summed over cos(theta) at each radial node, then over
k. ``brute_force_kernel_matrix`` sums conj(C_a) C_b of the unit labels over
helicities and azimuth into a table cached per family and grid, takes
p = r cos(theta), and rotates the aligned result back with a plain 3x3
rotation R, R z = rhat: K(r) = R K(|r| z) R^T, which assumes only a
rotation-invariant measure. ``brute_force_overlap`` rotates the nodes,
khat' = R khat, and sums the states' amplitudes in their separable form
c(k khat, lam) = E(k) e^{i k u(khat)} C(khat, lam): the helicity contraction
of the rows once per direction node, summed over azimuth, and the envelopes E
once per radial node. The anchor phases meet as e^{i k (u2 - u1)} with
u = t - khat.x, and at equal times u2 - u1 = khat'.(x1 - x2) depends on
cos(theta) alone, so p is the states' own u2 - u1 per polar node; a spread of
u2 - u1 over azimuth or a departure from r cos(theta) beyond rounding raises,
and so do anchors whose rounding in u would hide the separation. The two
oracles share no reduction step, D-matrix or closed form with the production
path and back every kernel result in the tests and the ``--oracle`` CLI path,
and never import ``scipy.special``. Summing
O(a^-3) terms to an O(r^-3) result, the oracle's error relative to the dipole
tail is a rounding floor that grows as (r/a)^3: ~1e-12 at r/a = 68, ~2e-11 (up
to 1e-10) at r/a = 200.

All evaluations are pure functions with a fixed summation order, so results
do not depend on how calls are distributed over threads or processes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .polarization import validate_helicities
from .rotations import J_MAX, _rotated_diagonal, small_d_matrix, spherical_to_cartesian
from .states import (
    RADIATION_GAUGE,
    SCALAR,
    LocalizedState,
    StateFamily,
    _amplitude_factors,
    _label_rows,
    require_regulator_width,
)

#: The oracle truncates momentum integrals at k = cutoff / a; exp(-8.5^2) ~ 5e-32.
RADIAL_CUTOFF = 8.5

#: (k, cos theta) points per block of the oracles' phase sum (whole radial shells).
#: It bounds the phase buffer. A fresh self-sized scalar overlap at r/a = 1000
#: (process peak RSS, median of three, 2 vCPUs): 58 MB, 0.88 s, against 58 MB,
#: 0.91 s at 4k points, 63 MB, 0.87 s at 131k and 105 MB, 0.87 s at 1M.
_ORACLE_BLOCK_POINTS = 16_384

#: Largest r/a of a self-sized oracle grid, 4320 nodes per axis. The work grows as
#: (r/a)^2: at the bound a kernel or an overlap takes ~0.6 s warm and ~0.9 s in a
#: fresh process on 2 vCPUs.
_ORACLE_MAX_R_OVER_A = 1e3

_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps

#: Read-only <sigma|i> and its adjoint: spherical entries K go to Cartesian as U^H K U.
_U = spherical_to_cartesian()
_U_H = _U.conj().T
_U.setflags(write=False)
_U_H.setflags(write=False)


@dataclass(frozen=True)
class QuadratureSpec:
    """Explicit node counts of the brute-force oracle.

    ``n_theta`` Gauss-Legendre nodes in cos(theta), ``n_phi`` uniform
    azimuthal nodes and ``n_radial`` Gauss-Legendre nodes on
    [0, RADIAL_CUTOFF / a]; the oracle multiplies every count by four. Without
    a spec the oracle sizes its grid from k_max r, so a spec serves to refine
    or starve it. Each count must be an integer (numpy integers included) of
    at least 4.
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
def _radial_constants(lmax: int, s: float):
    """Separation-independent parts of the closed form for l = 0..lmax, read-only:
    (the first order with b != c, l, b and c from that order on, the prefactor
    sqrt(pi) 2^-(l+2) Gamma(b) / Gamma(c), and scipy's ``hyp1f1``, bound here so
    the warm path imports nothing). Keyed on lmax = 2j <= 20 and s in {0, -1}:
    at most 42 entries."""
    from scipy.special import gammaln, hyp1f1

    l = np.arange(lmax + 1)
    b, c = (l + 3.0 + s) / 2.0, l + 1.5
    # b == c only at l = s = 0, where 1F1 is exactly exp(-z) and scipy's series costs O(z)
    start = int(b[0] == c[0])
    prefactor = np.sqrt(np.pi) * 2.0 ** -(l + 2.0) * np.exp(gammaln(b) - gammaln(c))
    arrays = (l, b[start:], c[start:], prefactor)
    for arr in arrays:
        arr.setflags(write=False)
    return (start,) + arrays + (hyp1f1,)


def _radial_integrals(lmax: int, r: float, a: float, s: float) -> np.ndarray:
    """I_l = integral_0^inf dk k^(2+s) exp(-a^2 k^2) j_l(k r) for l = 0..lmax.

    Closed form of the module docstring, for s in {0, -1}. Raises ValueError
    where 1F1 leaves the double range: r/a beyond ~2e14 at lmax = 20
    (spin 10), ~3e46 at lmax = 2.
    """
    start, l, b, c, prefactor, hyp1f1 = _radial_constants(lmax, s)
    x = r / a
    z = x * x / 4.0
    hyp = np.empty(lmax + 1)
    hyp[:start] = math.exp(-z)
    rest = hyp1f1(b, c, -z, out=hyp[start:])
    # 1F1(b; c; -z) > 0 for c > b > 0, so a value below the normal range has underflowed
    if not min(rest.tolist(), default=math.inf) >= _TINY:
        raise ValueError(
            f"separation r/a = {x:.3g} is beyond the double range of Legendre orders to {lmax}"
        )
    out = prefactor * x**l
    out *= a ** -(3.0 + s)
    out *= hyp
    return out


def _separation(rvec) -> np.ndarray:
    """A checked float copy of the 3-vector ``rvec``, the one a KernelMatrix stores."""
    rvec = np.array(rvec, dtype=float)
    if rvec.shape != (3,):
        raise ValueError(f"separation must be a 3-vector, got shape {rvec.shape}")
    x, y, z = rvec.tolist()
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"separation must be finite, got {rvec}")
    return rvec


def _state_separation(s1: LocalizedState, s2: LocalizedState) -> np.ndarray:
    """Spatial separation x1 - x2 of two states' anchors, checked finite."""
    _, x1, y1, z1 = s1.x.tolist()
    _, x2, y2, z2 = s2.x.tolist()
    return _separation((x1 - x2, y1 - y2, z1 - z2))  # an overflow gives inf, which is rejected


@lru_cache(maxsize=None)
def _aligned_table(j: int) -> np.ndarray:
    """Read-only T[l, m, j - lam], i^l and 4 pi / (2 pi)^3 included: the kernel in the
    frame aligned with r is diagonal, entries sum_(l, lam) I_l T[l, m, j - lam]."""
    from scipy.special import eval_legendre

    # d^2 has degree 2j in mu, so P_l * d^2 (l <= 2j) has degree <= 4j: 2j+1 nodes are exact
    mu, w = np.polynomial.legendre.leggauss(2 * j + 1)
    l = np.arange(2 * j + 1)
    proj = ((2 * l + 1) / 2.0)[:, None] * eval_legendre(l[:, None], mu) * w
    weights = np.array([1.0, 1j, -1.0, -1j])[l % 4] * (4.0 * np.pi / (2.0 * np.pi) ** 3)
    table = weights[:, None, None] * np.einsum("ln,nmk->lmk", proj,
                                               small_d_matrix(j, np.arccos(mu)) ** 2)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=256)
def _helicity_columns(j: int, helicities: tuple) -> np.ndarray:
    """Read-only C[l, m] = sum over ``helicities`` of T[l, m, j - lam], T = ``_aligned_table(j)``.
    The bound of 256 holds every helicity set a benchmark run uses."""
    coeff = _aligned_table(j)[:, :, [j - lam for lam in helicities]].sum(axis=2)
    coeff.setflags(write=False)
    return coeff


def _spherical_kernel(j: int, helicities: tuple, rvec: np.ndarray, a: float, s: float,
                      basis: np.ndarray | None = None) -> np.ndarray:
    """Kernel matrix at separation ``rvec`` in the spherical label basis, or in the
    basis B K B^H when ``basis`` gives the change of basis B (``_U_H`` for Cartesian
    labels): the aligned radial diagonal rotated to ``rvec`` by :func:`_rotated_diagonal`.
    """
    v = rvec.tolist()
    diag = _radial_integrals(2 * j, math.hypot(*v), a, s) @ _helicity_columns(j, helicities)
    return _rotated_diagonal(j, v, diag, basis)


def _radial_power(family: StateFamily) -> float:
    """The radial measure power s = 1 - 2p of a 3-label family of weight exponent p."""
    if family.kind == SCALAR:
        raise ValueError(
            "the scalar family has a single label; use qm_overlap on scalar states"
        )
    return 1.0 - 2.0 * family.weight_exponent


def _family_kernel(family: StateFamily, rvec: np.ndarray, a: float, s: float) -> np.ndarray:
    """Kernel entries of a 3-label family in its own label basis; the caller checks
    ``rvec`` and ``a`` and passes the family's radial power ``s``."""
    basis = _U_H if family.label_basis == "cartesian" else None
    return _spherical_kernel(1, family.helicities, rvec, a, s, basis)


def overlap_kernel_matrix(family: StateFamily, rvec, a: float) -> KernelMatrix:
    """Full label-by-label equal-time overlap matrix at spatial separation rvec.

    Full-helicity families give the regulated delta times the identity;
    photon families lose the longitudinal projector term, which survives as a
    non-local transverse tail.
    """
    a = require_regulator_width(a)
    s = _radial_power(family)
    rvec = _separation(rvec)
    return KernelMatrix(rvec, _family_kernel(family, rvec, a, s), family.kind, a, family.labels)


def transverse_kernel(rvec, a: float) -> np.ndarray:
    """Fourier transform of khat_i khat_j against the regulated measure.

    Real symmetric 3x3 matrix; its trace equals the regulated scalar delta
    and its large-separation limit is -(3 rhat rhat^T - I) / (4 pi r^3).
    """
    a = require_regulator_width(a)
    entries = _spherical_kernel(1, (0,), _separation(rvec), a, 0.0, _U_H)
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
    if j != int(j) or not 1 <= j <= J_MAX:  # before the helicities, whose range it sets
        raise ValueError(f"spin must be a positive integer at most {J_MAX}, got {j}")
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
    return KernelMatrix(rvec, entries, f"helicity-defect-j{j}", a, labels)


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
        entries = _family_kernel(s1.family, rvec, a, _radial_power(s1.family))
    return complex(np.vdot(s1.coefficients, entries @ s2.coefficients))


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
    rnorm = math.hypot(*_state_separation(s1, s2).tolist())
    return complex(2.0 * gaussian_delta(rnorm, s1.regulator_width))


# --- brute-force aligned-grid oracle -----------------------------------------


def _oracle_node_counts(q: QuadratureSpec | None, r: float, a: float):
    """(polar, azimuthal, radial) node counts of the oracle grid at separation r.

    An explicit spec gives four times its counts. Self-sized (``q`` None), the
    phase k r cos(theta) spans RADIAL_CUTOFF r / a radians over the grid, so the
    polar and radial counts follow k_max r / 2 with 64 nodes on top, rounded up
    to a multiple of 32 (so that warm calls share tables); eight azimuthal nodes
    are exact for the degree-2 label part.
    """
    if q is not None:
        return 4 * q.n_theta, 4 * q.n_phi, 4 * q.n_radial
    if not r <= _ORACLE_MAX_R_OVER_A * a:
        raise ValueError(f"separation r/a = {r / a:.3g} is beyond the self-sized oracle's "
                         f"range, r/a <= {_ORACLE_MAX_R_OVER_A:g}")
    n = math.ceil(RADIAL_CUTOFF * r / (2.0 * a)) + 64
    n = -(-n // 32) * 32
    return n, 8, n


def _oracle_rotation(rvec: np.ndarray) -> np.ndarray:
    """Proper rotation R with R z = rvec / |rvec| (the identity at rvec = 0).

    Columns (e1, e2, rhat) of the branchless orthonormal basis of Duff et al.,
    J. Comput. Graph. Tech. 6, 1 (2017): it divides by 1 + |rhat_z| >= 1, so
    rhat near -z is as exact as rhat near +z.
    """
    r = math.hypot(*rvec)
    if r == 0.0:
        return np.eye(3)
    x, y, z = rvec / r
    sign = math.copysign(1.0, z)
    c = -1.0 / (sign + z)
    b = x * y * c
    return np.array([[1.0 + sign * x * x * c, b, x],
                     [sign * b, sign + y * y * c, y],
                     [-sign * x, -y, z]])


@lru_cache(maxsize=32)
def _oracle_gauss_legendre(n: int):
    """Read-only n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on the three-term recurrence from Tricomi's initial guess,
    weights 2 / ((1 - x^2) P_n'(x)^2), on the positive half and mirrored. It
    needs O(n) memory, 0.16 s at n = 4320 where numpy's companion-matrix
    ``leggauss`` takes ~8 s and ~350 MB, and its weights hold to ~1e-15 where
    those of ``leggauss`` are off by up to 1e-8 at n = 928.
    """
    i = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1.0) / (8.0 * n**3)) * np.cos(np.pi * (4.0 * i - 1.0) / (4.0 * n + 2.0))
    for _ in range(10):
        p_prev, p = np.ones_like(x), x
        for m in range(2, n + 1):
            p_prev, p = p, ((2.0 * m - 1.0) * x * p - (m - 1.0) * p_prev) / m
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        step = p / dp
        x = x - step
        if np.abs(step).max() <= 1e-16:
            break
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    nodes = np.concatenate((-x, x[::-1][n % 2 :]))
    weights = np.concatenate((w, w[::-1][n % 2 :]))
    for arr in (nodes, weights):
        arr.setflags(write=False)
    return nodes, weights


def _oracle_radial_grid(nk: int, a: float):
    t, w = _oracle_gauss_legendre(nk)
    k = (t + 1.0) * (RADIAL_CUTOFF / (2.0 * a))
    wk = w * (RADIAL_CUTOFF / (2.0 * a))
    return k, wk


def _oracle_angular_grid(nmu: int, nphi: int):
    """(khat, weights) of ``nmu`` Gauss-Legendre nodes in cos(theta) times ``nphi``
    uniform azimuths, azimuth the fast axis; the weights sum to 4 pi."""
    mu, wmu = _oracle_gauss_legendre(nmu)
    phi = np.arange(nphi) * (2.0 * np.pi / nphi)
    st = np.sqrt(1.0 - mu**2)
    khat = np.stack((np.outer(st, np.cos(phi)).ravel(), np.outer(st, np.sin(phi)).ravel(),
                     np.repeat(mu, nphi)), axis=1)
    return khat, np.outer(wmu, np.full(nphi, 2.0 * np.pi / nphi)).ravel()


@lru_cache(maxsize=16)
def _oracle_label_sums(kind: str, nmu: int, nphi: int) -> np.ndarray:
    """Read-only G[(a, b), mu]: sum over helicities and azimuth of conj(C_a) C_b times
    the angular weight, C_a the label rows of the family's unit label a on the
    unrotated grid. The bound of 16 tables holds every key a benchmark round uses."""
    khat, weights = _oracle_angular_grid(nmu, nphi)
    rows = np.stack([_label_rows(StateFamily(kind), b, khat) for b in np.eye(3, dtype=complex)])
    G = np.einsum("anl,bnl->abn", rows.conj(), rows) * weights
    G = G.reshape(9, nmu, nphi).sum(axis=2)
    G.setflags(write=False)
    return G


def _oracle_polar_radial_sum(table: np.ndarray, k: np.ndarray, wrad: np.ndarray,
                             polar: np.ndarray) -> np.ndarray:
    """sum_(n, mu) wrad[n] e^{i k[n] polar[mu]} table[:, mu], shape (len(table),).

    The one phase loop of both oracles: the phase depends only on the radial
    node and the polar node of the aligned grid. It is formed per block of
    radial shells, summed over cos(theta) at each radial node, then over k.
    """
    total = np.zeros(table.shape[0], dtype=complex)
    block = max(1, _ORACLE_BLOCK_POINTS // polar.size)
    for start in range(0, k.size, block):
        arg = np.outer(k[start : start + block], polar)
        phase = np.empty(arg.shape, dtype=complex)  # bit-identical to np.exp(1j * arg)
        np.cos(arg, out=phase.real)
        np.sin(arg, out=phase.imag)
        total += wrad[start : start + block] @ (phase @ table.T)
    return total


def brute_force_kernel_matrix(family: StateFamily, rvec, a: float,
                              q: QuadratureSpec | None = None) -> KernelMatrix:
    """Oracle kernel matrix by direct quadrature on a grid aligned with ``rvec``.

    Entry (a, b) is the oracle overlap of the unit-label states a at ``rvec``
    and b at the origin. In the frame whose z-axis is rhat the phase e^{i k.r}
    depends only on (k, cos theta): the states' label rows are summed over
    helicities and azimuth first (``_oracle_label_sums``), then over cos(theta)
    at each radial node, then over k. The result is rotated back with the plain
    3x3 rotation, K(r) = R K(|r| z) R^T, the spherical families through
    ``spherical_to_cartesian()``. This assumes only that the measure is
    rotation invariant. ``q`` None sizes the grid from k_max r.
    """
    a = require_regulator_width(a)
    s = _radial_power(family)
    rvec = _separation(rvec)
    r = math.hypot(*rvec)
    nmu, nphi, nk = _oracle_node_counts(q, r, a)
    G = _oracle_label_sums(family.kind, nmu, nphi)  # azimuth first
    k, wk = _oracle_radial_grid(nk, a)
    wrad = wk * k ** (2.0 + s) * np.exp(-a * a * k * k)
    aligned = _oracle_polar_radial_sum(G, k, wrad, r * _oracle_gauss_legendre(nmu)[0])
    aligned = aligned.reshape(3, 3) / (2.0 * np.pi) ** 3
    rot = _oracle_rotation(rvec)
    if family.label_basis == "spherical":
        rot = _U @ rot @ _U_H
    entries = rot @ aligned @ rot.conj().T
    return KernelMatrix(rvec, entries, family.kind, a, family.labels)


def brute_force_overlap(s1: LocalizedState, s2: LocalizedState,
                        q: QuadratureSpec | None = None) -> complex:
    """Oracle overlap summing momentum amplitudes over a grid aligned with the
    anchors' separation: the nodes are rotated, khat' = R khat, with the same
    weights. ``q`` None sizes the grid from k_max r.

    Each amplitude is the product of its separable factors, envelope(k)
    e^{i k u(khat)} rows(khat): the helicity contraction of the two states'
    label rows is formed once per direction and summed over azimuth, the
    product of the envelopes once per radial node. The two anchor phases meet
    as e^{i k (u2 - u1)}, u2 - u1 = khat'.(x1 - x2) = r cos(theta) at equal
    times, so the states' own u enter through their difference per polar node
    and the phase is summed by ``_oracle_polar_radial_sum``, as in the kernel oracle.
    Raises ValueError if u overflows, or if its rounding could move the phase
    k u by a radian at the grid's largest k, where the anchors hide their
    separation; RuntimeError if u2 - u1 varies with azimuth or departs from
    r cos(theta) beyond rounding.
    """
    _require_overlap_compatible(s1, s2)
    a = s1.regulator_width
    rvec = _state_separation(s1, s2)
    r = math.hypot(*rvec)
    nmu, nphi, nk = _oracle_node_counts(q, r, a)
    khat, wang = _oracle_angular_grid(nmu, nphi)
    khat = khat @ _oracle_rotation(rvec).T
    k, wk = _oracle_radial_grid(nk, a)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        env1, u1, rows1 = _amplitude_factors(s1, k, khat)
        env2, u2, rows2 = _amplitude_factors(s2, k, khat)
        # each u carries a rounding error of a few eps (|t| + |x|_1)
        bound = 64.0 * _EPS * (np.abs(s1.x).sum() + np.abs(s2.x).sum())
    if not (np.isfinite(u1).all() and np.isfinite(u2).all()):
        raise ValueError("the anchor phase u = t - khat.x overflows: the anchors leave the "
                         "double range of the oracle")
    if not k[-1] * bound < 1.0:
        raise ValueError(f"the anchors are too large for the oracle: the rounding of the "
                         f"anchor phase k u reaches {k[-1] * bound:.3g} rad, which hides "
                         f"their separation")
    du = (u2 - u1).reshape(nmu, nphi)
    if not np.ptp(du, axis=1).max() <= bound:
        raise RuntimeError("the states' relative anchor phase varies with azimuth on the "
                           "grid aligned with their separation")
    polar = r * _oracle_gauss_legendre(nmu)[0]
    if not np.abs(du - polar[:, None]).max() <= bound:
        raise RuntimeError("the states' relative anchor phase departs from r cos(theta) on "
                           "the grid aligned with their separation")
    labels = (np.einsum("nl,nl->n", rows1.conj(), rows2) * wang).reshape(nmu, nphi).sum(axis=1)
    wrad = wk * k**3 * env1 * env2  # k^2 from the volume element, one k from the measure
    return complex(_oracle_polar_radial_sum(labels[None], k, wrad, du.mean(axis=1))[0])
