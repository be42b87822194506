"""Equal-time scalar products and overlap kernels for localized-state families.

Production path
---------------
Every kernel is a family's, by the one path ``_family_kernel``: ``general_j_defect``
takes the missing helicities, ``transverse_kernel`` the zero helicity in Cartesian
labels. For every family the equal-time overlap of two label states reduces to

    K_{l1 l2}(r) = (2*pi)^-3 * integral d^3k  w(k) G_{l1 l2}(khat) e^{i k.r},

with r = x1_vec - x2_vec, radial weight w(k) = k^s exp(-a^2 k^2) carrying the
measure left over by the covariant normalization, and G the helicity sum over
the family's spectrum. In the frame aligned with r the angular matrix is
diagonal with entries that are polynomials of degree 2j in cos(theta). Their
Legendre coefficients are Clebsch-Gordan sums, rank 1 in each order
(``_helicity_columns``), exact rationals rounded once, and order l turns the angular
integral into 4*pi i^l j_l(kr). Each radial integral then has a closed form (Gradshteyn-Ryzhik
6.631.1 with j_l(y) = sqrt(pi/2y) J_(l+1/2)(y)):

    I_l = integral_0^inf dk k^(2+s) exp(-a^2 k^2) j_l(k r)
        = sqrt(pi)/2^(l+2) * Gamma(b)/Gamma(c) * x^l * a^-(3+s) * 1F1(b; c; -x^2/4),

with x = r/a, b = (l+3+s)/2 and c = l+3/2, the prefactor rounded once from exact
factorials. The coefficients are cached per spin and helicity set. The aligned
diagonal is rotated back by ``rotations._rotated_diagonal``, the helicity sums' rotation too: with
theta and phi read off r by atan2, A diag A^H with A = B e^(-i phi m) d(theta),
with no rotation matrix, so a tilt off either pole keeps its precision.
d(theta) is the Fourier series of ``rotations``, evaluated unchecked because
the angle comes from atan2; B is the change of label basis, the identity for
spherical labels and U^H, the adjoint of the read-only ``rotations`` constant
U = <sigma|i>, for Cartesian ones, so no conjugation follows the rotation. A call
checks and copies its separation once. No production step has a node count or a
tolerance. ``scipy.special`` (1F1) serves only
this closed form and is imported where it runs, so a process that never
evaluates a production kernel never loads it.

Oracle path
-----------
``brute_force_kernel_matrix`` and ``brute_force_overlap`` share one reduction,
``_oracle_kernel``, on a product grid (Gauss-Legendre in cos(theta) x uniform
azimuth x Gauss-Legendre radial) whose polar axis is the separation r, so that the
phase e^{i k.r} depends only on (k, cos theta). Without a :class:`QuadratureSpec` the
grid sizes itself from k_max r: RADIAL_CUTOFF r / (2a) + 64 polar and radial nodes,
rounded up to a multiple of 32, and 8 azimuths; an explicit spec gives four times its
counts. In the frame aligned with r the row of unit spherical label sigma is
d^j_{sigma lam}(theta) e^{i (sigma - lam) phi}, so the azimuth integral of
conj(C_a) C_b leaves delta_ab: the label part is the diagonal
g[sigma, mu] = 2 pi w_mu sum_lam |d^j_{sigma lam}(theta_mu)|^2 on the polar nodes
alone (``_oracle_label_diagonal``, the states' rows at phi = 0, cached per spin,
helicities and polar count), at every spin and in both label bases. The phase is
summed in one loop, ``_oracle_polar_radial_sum``: S(p) = sum_k w(k) e^{i k p} once per
polar node p = r cos(theta), then contracted with g. The polar nodes are mirrored and
w is real, so S(-p) = conj(S(p)): only the upper polar half is summed. The radial nodes
are mirrored too, k + k' = span, and only the lower radial half takes cos and sin: an
upper node's phase is e^{i span p} e^{-i k p}, off by ~eps span p, on weights the
regulator leaves below 1e-6 of their peak. The radial weight is w = wk k^3 E(k)^2,
E the states' envelope ``states._envelope``: k^2 from the volume element, one k from
the measure. The aligned diagonal is rotated back by
the rows of the unit labels at rhat, X[sigma, sigma'] = C_{e_sigma}(rhat, sigma'), as
K = conj(X) diag(S) X^T, Cartesian labels through <sigma|i>: helicity rows obey
C_c(R khat, lam) = e^{i lam w} C_{D(R)^H c}(khat, lam) (Jacob and Wick, Ann. Phys. 7,
404 (1959)), the Wigner phase e^{i lam w} cancels in sum_lam conj(C_1) C_2, and the
state's own row at rhat is D(R)^H c for the standard rotation R to rhat, so no
D-matrix enters. An overlap is then c1^H K(x1 - x2) c2, for states that share the
family and a. Neither the azimuth of the aligned frame about rhat nor the azimuth
count enters K, so an explicit spec of 4 n_phi <= 2j azimuths does not alias it: the
azimuths serve only the overlap's anchor-phase checks. The anchor phases meet as
e^{i k (u2 - u1)}, u = t - khat.x, and at equal times u2 - u1 = khat'.(x1 - x2) =
r cos(theta) on the rotated nodes khat' = R khat. The states' own u enter through
checks before the sum: a spread of u2 - u1 over azimuth or a departure from
r cos(theta) beyond rounding raises, and so do anchors whose rounding in u would hide
the separation. One pass over u2 - u1 - r cos(theta) passes every check; only when it
fails do the checks run one by one, in that order, so each failure keeps its error.
The oracle shares no reduction step, D-matrix or closed form with the production path,
backs every kernel result in the tests and the ``--oracle`` CLI path, and never
imports ``scipy.special``. Summing O(a^-3) terms to an O(r^-3) result, its error
relative to the dipole tail is a rounding floor that grows as (r/a)^3: ~1e-12 at
r/a = 68, ~2e-11 (up to 1e-10) at r/a = 200.

All evaluations are pure functions with a fixed summation order, so results
do not depend on how calls are distributed over threads or processes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rotations import J_MAX, _SPH_TO_CART, _SPH_TO_CART_H, _rotated_diagonal, _rounded_sqrt
from .rotations import _validated_spin, validate_helicities
from .states import (
    RADIATION_GAUGE,
    LocalizedState,
    StateFamily,
    _anchor_phase,
    _envelope,
    _unit_rows,
    _wigner_rows,
    require_regulator_width,
)

#: The oracle truncates momentum integrals at k = cutoff / a; exp(-8.5^2) ~ 5e-32.
RADIAL_CUTOFF = 8.5

#: (k, cos theta) points of the lower radial half per block of the oracles' phase sum
#: (whole polar columns). It bounds the phase buffer. A fresh self-sized scalar overlap
#: at r/a = 1000 (process peak RSS, median of three, 2 vCPUs): 33 MB, 0.30 s, against
#: 33 MB, 0.40 s at 4k points, 34 MB, 0.28 s at 131k and 48 MB, 0.39 s at 1M. It bounds
#: the label diagonal's rows per block too.
_ORACLE_BLOCK_POINTS = 16_384

#: Largest r/a of a self-sized oracle grid, 4320 nodes per axis. The work grows as
#: (r/a)^2: at the bound a spin-1 kernel takes 0.13 s warm and 0.27 s in a fresh
#: process; a spin-10 overlap takes 0.17 s warm and 0.29 s fresh with two helicities,
#: 0.19 s warm and 0.39 s fresh with all 21 (medians of three fresh processes, 2 vCPUs).
_ORACLE_MAX_R_OVER_A = 1e3

_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps
_SUBNORMAL = np.finfo(float).smallest_subnormal


@dataclass(frozen=True)
class QuadratureSpec:
    """Explicit node counts of the brute-force oracle.

    ``n_theta`` Gauss-Legendre nodes in cos(theta), ``n_phi`` uniform
    azimuthal nodes and ``n_radial`` Gauss-Legendre nodes on
    [0, RADIAL_CUTOFF / a]; the oracle multiplies every count by four. Without
    a spec the oracle sizes its grid from k_max r, so a spec serves to refine
    or starve it. The label part is summed over azimuth in closed form, so
    ``n_phi`` sets only the azimuths of the overlap's anchor-phase checks and does
    not enter a kernel. Each count must be an integer (numpy integers included) of
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
    a = require_regulator_width(a)
    if not math.isfinite(r):
        raise ValueError(f"distance must be finite, got {r}")
    return np.exp(-r * r / (4.0 * a * a)) / (8.0 * np.pi**1.5 * a**3)


@lru_cache(maxsize=None)
def _radial_constants(lmax: int, s: float):
    """Separation-independent parts of the closed form for l = 0..lmax, read-only:
    (the first order with b != c, l, b and c from that order on, the prefactor
    sqrt(pi) 2^-(l+2) Gamma(b) / Gamma(c), and scipy's ``hyp1f1``, bound here so
    the warm path imports nothing). Keyed on lmax = 2j <= 20 and s in {0, -1}:
    at most 42 entries. By Gamma(n/2) = (n-2)!! 2^-floor((n-1)/2) sqrt(pi)^(n mod 2), the
    prefactor is (2b-2)!! / (2^floor(b+1/2) (2l+1)!!), times sqrt(pi) (pi the double) for
    odd 2b, rounded once."""
    from scipy.special import hyp1f1

    l = np.arange(lmax + 1)
    b, c = (l + 3.0 + s) / 2.0, l + 1.5
    # b == c only at l = s = 0, where 1F1 is exactly exp(-z) and scipy's series costs O(z)
    start = int(b[0] == c[0])
    pi_num, pi_den = math.pi.as_integer_ratio()
    prefactor = np.empty(lmax + 1)
    for order in range(lmax + 1):
        n = order + 3 + int(s)  # 2b
        num, den = math.prod(range(n - 2, 0, -2)), math.prod(range(2 * order + 1, 0, -2))
        den, odd = den << (n + 1) // 2, n % 2
        prefactor[order] = _rounded_sqrt(pi_num**odd * num * num, pi_den**odd * den * den)
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


@lru_cache(maxsize=J_MAX + 1)
def _racah_integers(j: int) -> tuple:
    """Racah's integers of <j m j -m|l 0>, v[l][j - m] = (-1)^(j-m) (j+m)! (j-m)! sum_k
    (-1)^k C(2j-l, k) C(l, j-m-k)^2, m = +j..-j, as tuples; v_l(-m) = (-1)^l v_l(m)."""
    j = _validated_spin(j)
    f = math.factorial
    rows = []
    for l in range(2 * j + 1):
        half = [(-1) ** (j - m) * f(j + m) * f(j - m)
                * sum((-1) ** k * math.comb(2 * j - l, k) * math.comb(l, j - m - k) ** 2
                      for k in range(j - m + 1))
                for m in range(j, -1, -1)]
        rows.append(tuple(half + [(-1) ** l * v for v in half[-2::-1]]))
    return tuple(rows)


@lru_cache(maxsize=256)
def _helicity_columns(j: int, helicities: tuple) -> np.ndarray:
    """Read-only C[l, m], m = +j..-j, i^l and 4 pi / (2 pi)^3 included: the aligned kernel
    is diagonal, entries sum_l I_l C[l, m]. C is the Legendre projection of
    sum_lam d^j_(m lam)(theta)^2 over ``helicities``, each term (-1)^(m-lam)
    <j m j -m|l 0><j lam j -lam|l 0> (Edmonds, Angular Momentum in Quantum Mechanics,
    eq. 4.3.2), by Racah's sum (2l+1) v_l(m) v_l(lam) / ((2j+l+1)! (2j-l)!): rank 1 per
    order, with sum_lam v_l(lam) an integer. Each entry is rounded once; a complete set's
    sum is 0 at l >= 1 (Clebsch-Gordan orthogonality), so those orders are exactly 0.
    The bound of 256 holds every helicity set a benchmark run uses."""
    v, f = _racah_integers(j), math.factorial
    scale, scale_den = (4.0 * math.pi / (2.0 * math.pi) ** 3).as_integer_ratio()
    rows = []
    for l, vl in enumerate(v):
        num = (2 * l + 1) * scale * sum(vl[j - lam] for lam in helicities)
        den = f(2 * j + l + 1) * f(2 * j - l) * scale_den
        rows.append([num * vm / den for vm in vl])
    coeff = np.array([1.0, 1j, -1.0, -1j])[np.arange(2 * j + 1) % 4, None] * np.array(rows)
    coeff.setflags(write=False)
    return coeff


def _family_kernel(family: StateFamily, rvec: np.ndarray, a: float) -> np.ndarray:
    """Kernel entries of any family in its own label basis; the caller checks rvec and a."""
    j = family.spin
    v = rvec.tolist()
    diag = (_radial_integrals(2 * j, math.hypot(*v), a, family.radial_power)
            @ _helicity_columns(j, family.helicities))
    basis = _SPH_TO_CART_H if family.label_basis == "cartesian" else None
    return _rotated_diagonal(j, v, diag, basis)


_LONGITUDINAL = StateFamily(1, (0,), "cartesian")


@lru_cache(maxsize=256)
def _defect_family(j, helicities: tuple) -> StateFamily:
    """The spin-j family of the helicities missing from ``helicities`` (the complete
    family for a complete set); the bound of 256 holds every set a benchmark run uses."""
    j = _validated_spin(j)  # before the helicities, whose range it sets
    if j == 0:
        raise ValueError("a defect needs a positive integer spin: spin 0 misses no helicity")
    present = validate_helicities(helicities, j)
    return StateFamily(j, tuple(lam for lam in range(-j, j + 1) if lam not in present) or present)


def overlap_kernel_matrix(family: StateFamily, rvec, a: float) -> KernelMatrix:
    """Full label-by-label equal-time overlap matrix at spatial separation rvec.

    Full-helicity families give the regulated delta times the identity (the 1 x 1
    delta for the scalar family); photon families lose the longitudinal projector
    term, which survives as a non-local transverse tail.
    """
    a = require_regulator_width(a)
    rvec = _separation(rvec)
    return KernelMatrix(rvec, _family_kernel(family, rvec, a), family.kind, a, family.labels)


def transverse_kernel(rvec, a: float) -> np.ndarray:
    """Fourier transform of khat_i khat_j against the regulated measure.

    Real symmetric 3x3 matrix; its trace equals the regulated scalar delta
    and its large-separation limit is -(3 rhat rhat^T - I) / (4 pi r^3).
    """
    a = require_regulator_width(a)
    entries = _family_kernel(_LONGITUDINAL, _separation(rvec), a)
    scale = np.abs(entries).max()
    if scale > 0 and np.abs(entries.imag).max() > 1e-10 * scale:
        raise RuntimeError("transverse kernel acquired a non-negligible imaginary part")
    return entries.real


def general_j_defect(j: int, helicities, rvec, a: float) -> KernelMatrix:
    """Kernel of the completeness defect for a spin-j label set.

    ``helicities`` lists the helicities the particle actually carries; the
    returned matrix is the kernel of the family of the *missing* helicities:
    the Fourier transform, against the regulated measure, of their helicity
    sum. It vanishes for the full set and is nonzero for every incomplete one.
    """
    family = _defect_family(j, tuple(helicities))
    a = require_regulator_width(a)
    rvec = _separation(rvec)
    n = len(family.labels)
    missing = len(family.helicities) < n
    entries = _family_kernel(family, rvec, a) if missing else np.zeros((n, n), dtype=complex)
    return KernelMatrix(rvec, entries, family.kind, a, family.labels)


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
    entries = _family_kernel(s1.family, rvec, s1.regulator_width)
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
    to a multiple of 32 (so that warm calls share tables). The label part is summed
    over azimuth in closed form, so the 8 azimuths serve only the overlap's
    anchor-phase checks.
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
    x, y, z = rvec.tolist()
    r = math.hypot(x, y, z)
    if r == 0.0:
        return np.eye(3)
    x, y, z = x / r, y / r, z / r
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


@lru_cache(maxsize=32)
def _oracle_angular_grid(nmu: int, nphi: int):
    """Read-only (khat, weights) of ``nmu`` Gauss-Legendre nodes in cos(theta) times
    ``nphi`` uniform azimuths, azimuth the fast axis; the weights sum to 4 pi."""
    mu, wmu = _oracle_gauss_legendre(nmu)
    phi = np.arange(nphi) * (2.0 * np.pi / nphi)
    st = np.sqrt(1.0 - mu**2)
    khat = np.stack((np.outer(st, np.cos(phi)).ravel(), np.outer(st, np.sin(phi)).ravel(),
                     np.repeat(mu, nphi)), axis=1)
    weights = np.outer(wmu, np.full(nphi, 2.0 * np.pi / nphi)).ravel()
    for arr in (khat, weights):
        arr.setflags(write=False)
    return khat, weights


@lru_cache(maxsize=16)
def _oracle_label_diagonal(spin: int, helicities: tuple, nmu: int) -> np.ndarray:
    """Read-only g[sigma, mu] = 2 pi w_mu sum_lam |d^j_{sigma lam}(theta_mu)|^2, shape
    (2j+1, nmu), sigma = j..-j: the one label table of both oracles.

    The row of unit label sigma is d^j_{sigma lam}(theta) e^{i (sigma - lam) phi}, so
    conj(C_a) C_b carries e^{i (b - a) phi}, and its azimuth integral leaves
    delta_ab times 2 pi w_mu sum_lam |d^j_{a lam}|^2. The rows are :func:`_wigner_rows` at
    phi = 0 on the polar nodes, per block of at most ``_ORACLE_BLOCK_POINTS`` row entries
    (a complete spin-10 diagonal at 4320 nodes peaks 1 MB above the process, 46 MB in
    one block). It is 0.7 MB, so the bound of 16 holds at most ~11 MB."""
    mu, wmu = _oracle_gauss_legendre(nmu)
    khat = np.stack((np.sqrt(1.0 - mu**2), np.zeros(nmu), mu), axis=1)
    family, g = StateFamily(spin, helicities), np.empty((2 * spin + 1, nmu))
    block = max(1, _ORACLE_BLOCK_POINTS // ((2 * spin + 1) * len(helicities)))
    for start in range(0, nmu, block):
        parts = _wigner_rows(family, khat[start : start + block]).view(float)  # real, imaginary
        g[:, start : start + block] = np.einsum("snl,snl->sn", parts, parts)
    g *= 2.0 * np.pi * wmu
    g.setflags(write=False)
    return g


def _oracle_polar_radial_sum(table: np.ndarray, k: np.ndarray, wrad: np.ndarray,
                             r: float, nmu: int) -> np.ndarray:
    """sum_(n, mu) wrad[n] e^{i k[n] p[mu]} table[:, mu], shape (len(table),), over the
    polar nodes p = r cos(theta) of the ``nmu``-node Gauss-Legendre rule.

    The one phase loop of both oracles: the phase depends only on the radial
    node and the polar node of the aligned grid. S(p) = sum_n wrad[n] e^{i k[n] p}
    is summed per block of polar nodes, then contracted with the table. The polar
    nodes are mirrored, p[nmu - 1 - mu] = -p[mu] exactly, and wrad is real, so
    S(-p) = conj(S(p)): only the upper polar half is summed. The radial nodes obey
    k[n] + k[-1-n] = k[0] + k[-1] = span, so cos and sin run on the lower half alone:
    S(p) = e w_lo + e^{i span p} conj(e) w_up, e = e^{i k[n] p}, w_up[n] = wrad[-1-n].
    The upper nodes, under 2e-7 of the oracles' total weight, take the rounding, ~eps span p."""
    half, m, span = nmu // 2, (k.size + 1) // 2, k[0] + k[-1]
    polar = r * _oracle_gauss_legendre(nmu)[0][half:]  # the middle node of an odd rule too
    w = np.stack((wrad[:m], wrad[::-1][:m]), axis=1)
    w[k.size // 2 :, 1] = 0.0  # the middle node of odd nk is a lower node only
    S, block = np.empty(nmu, dtype=complex), max(1, _ORACLE_BLOCK_POINTS // m)
    for start in range(half, nmu, block):
        p = polar[start - half : start - half + block]
        arg = np.outer(p, k[:m])
        (c_lo, c_up), (s_lo, s_up) = (np.cos(arg) @ w).T, (np.sin(arg) @ w).T
        cos_span, sin_span = np.cos(span * p), np.sin(span * p)
        S.real[start : start + block] = c_lo + cos_span * c_up + sin_span * s_up
        S.imag[start : start + block] = s_lo + sin_span * c_up - cos_span * s_up
    S[:half] = S[::-1][:half].conj()
    return table @ S


def _oracle_kernel(family: StateFamily, a: float, r: float, rhat: np.ndarray, nmu: int,
                   k: np.ndarray, wk: np.ndarray) -> np.ndarray:
    """K = conj(X) diag(S) X^T in the family's label basis, the one reduction of both
    oracles: S = ``_oracle_polar_radial_sum`` of the spherical label diagonal
    ``_oracle_label_diagonal`` with the radial weight wk k^3 E(k)^2, E the states'
    envelope (k^2 from the volume element, one k from the measure), and X the rows of the
    unit labels at ``rhat``, X[sigma, sigma'] = C_{e_sigma}(rhat, sigma') (Cartesian
    labels through <sigma|i>), which rotate the aligned diagonal back."""
    envelope = _envelope(family, a, k)
    wrad = wk * k**3 * envelope * envelope
    g = _oracle_label_diagonal(family.spin, family.helicities, nmu)
    S = _oracle_polar_radial_sum(g, k, wrad, r, nmu)
    X = _unit_rows(family.spin, rhat)
    if family.label_basis == "cartesian":
        X = _SPH_TO_CART.T @ X
    return (X.conj() * S) @ X.T


def brute_force_kernel_matrix(family: StateFamily, rvec, a: float,
                              q: QuadratureSpec | None = None) -> KernelMatrix:
    """Oracle kernel matrix by direct quadrature on a grid aligned with ``rvec``.

    Entry (a, b) is the oracle overlap of the unit-label states a at ``rvec`` and b at
    the origin, at every spin: in the frame whose z-axis is rhat the phase e^{i k.r}
    depends only on (k, cos theta) and the label part is the diagonal
    ``_oracle_label_diagonal`` on the polar nodes, rotated back by the unit labels'
    rows at rhat (``_oracle_kernel``, module docstring). ``q`` None sizes the grid
    from k_max r; the azimuth count does not enter.
    """
    a = require_regulator_width(a)
    rvec = _separation(rvec)
    r = math.hypot(*rvec.tolist())
    nmu, _, nk = _oracle_node_counts(q, r, a)
    k, wk = _oracle_radial_grid(nk, a)
    entries = _oracle_kernel(family, a, r, _oracle_rotation(rvec)[:, 2], nmu, k, wk)
    return KernelMatrix(rvec, entries, family.kind, a, family.labels)


def _check_anchor_phases(s1: LocalizedState, s2: LocalizedState, khat: np.ndarray,
                         polar: np.ndarray, kmax: float):
    """The anchor-phase checks of :func:`brute_force_overlap`, in its order, on the rotated
    nodes ``khat`` (azimuth the fast axis; ``polar`` is r cos(theta) per polar node).

    One pass decides the usual case: a departure within a quarter of the rounding
    bound everywhere keeps every u finite and the spread over a polar row within
    the bound, so every check below passes. Otherwise the checks run in turn."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        u1, u2 = _anchor_phase(s1, khat), _anchor_phase(s2, khat)
        # each u carries a rounding error of a few eps (|t| + |x|_1), and of a few
        # subnormal steps where the products khat_i x_i are subnormal
        size = sum(map(abs, s1.x.tolist())) + sum(map(abs, s2.x.tolist()))
        bound = 64.0 * (_EPS * size + _SUBNORMAL)
        du = (u2 - u1).reshape(len(polar), -1)
        off_axis = du - polar[:, None]
        departure = np.abs(off_axis, out=off_axis).max()  # NaN where a u is not finite
    if kmax * bound < 1.0 and departure <= 0.25 * bound:
        return
    if not (np.isfinite(u1).all() and np.isfinite(u2).all()):
        raise ValueError("the anchor phase u = t - khat.x overflows: the anchors leave the "
                         "double range of the oracle")
    if not kmax * bound < 1.0:
        raise ValueError(f"the anchors are too large for the oracle: the rounding of the "
                         f"anchor phase k u reaches {kmax * bound:.3g} rad, which hides "
                         f"their separation")
    if not np.ptp(du, axis=1).max() <= bound:
        raise RuntimeError("the states' relative anchor phase varies with azimuth on the "
                           "grid aligned with their separation")
    if not departure <= bound:
        raise RuntimeError("the states' relative anchor phase departs from r cos(theta) on "
                           "the grid aligned with their separation")


def brute_force_overlap(s1: LocalizedState, s2: LocalizedState,
                        q: QuadratureSpec | None = None) -> complex:
    """Oracle overlap c1^H K c2 on a grid aligned with the anchors' separation r,
    R z = rhat, K the oracle kernel of ``_oracle_kernel`` at r: the Wigner phase of the
    rotated helicity rows cancels in their helicity sum, so the states pair through
    their coefficients alone. ``q`` None sizes the grid from k_max r.

    The two anchor phases meet as e^{i k (u2 - u1)}, u2 - u1 = khat'.(x1 - x2) =
    r cos(theta) on the rotated nodes khat' = R khat at equal times. The states' own u
    enter only through the checks of that identity on the azimuthal grid, which run
    before the sum: one pass over u2 - u1 - r cos(theta) passes them, and only a
    failure runs them one by one.
    Raises ValueError if u overflows, or if its rounding could move the phase k u by
    a radian at the grid's largest k, where the anchors hide their separation;
    RuntimeError if u2 - u1 varies with azimuth or departs from r cos(theta) beyond
    rounding.
    """
    _require_overlap_compatible(s1, s2)
    a = s1.regulator_width
    rvec = _state_separation(s1, s2)
    r = math.hypot(*rvec.tolist())
    nmu, nphi, nk = _oracle_node_counts(q, r, a)
    rot = _oracle_rotation(rvec)
    khat = (rot @ _oracle_angular_grid(nmu, nphi)[0].T).T
    k, wk = _oracle_radial_grid(nk, a)
    _check_anchor_phases(s1, s2, khat, r * _oracle_gauss_legendre(nmu)[0], k[-1])
    K = _oracle_kernel(s1.family, a, r, rot[:, 2], nmu, k, wk)
    return complex(np.vdot(s1.coefficients, K @ s2.coefficients))
