"""Closed-form momentum-space amplitude families for candidate localized states.

Every state in the toolkit is a superposition over momentum-helicity
eigenvectors whose amplitude factorizes as

    c(k, lambda) = (2*pi)^(-3/2) * omega^(-p) * C(khat, lambda)
                   * exp(+-i k.x) * exp(-a^2 |k|^2 / 2),

where p is the family weight exponent, C the family's label coefficient (a
conjugated spin-j D-matrix element of the standard rotation to khat, read off
the components of khat), k.x = omega*t - k_vec.x_vec, and a > 0 a Gaussian
regulator width that makes all overlaps finite while commuting with rotations.
With k.x = |k| u(khat), u = t - khat.x_vec, the amplitude is a product of three
separable factors: an envelope in |k|, the anchor phase exp(+-i |k| u) and the
label rows C(khat, lambda), the package's one helicity frame: the polarization
vectors are read off them. A state is stored as its family, anchor point,
regulator width, and a complex coefficient vector over the family's labels (a
unit vector at construction, mixed by rotations).

Families
--------
A family is (spin j <= 10, helicity set, label basis, weight p = 1/2 or 1, frequency
sign), labelled sigma = +j..-j or, at spin 1, x, y, z. The named families:

scalar            spin 0, single zero-helicity label, weight omega^(-1/2)
spherical3        three spherical labels sigma, full helicity set, omega^(-1/2)
cartesian3        three Cartesian labels, full helicity set, omega^(-1/2)
spherical-photon  spherical labels, transverse helicities only, omega^(-1/2)
cartesian-photon  Cartesian labels, transverse helicities only, omega^(-1/2)
radiation-gauge   Cartesian labels, transverse helicities, weight omega^(-1)
                  (vector-potential-like states built from radiation-gauge
                  polarization vectors)

Negative-frequency variants (phase exp(-i k.x)) exist only as translation
test fixtures: a spacetime translation re-anchors them at x - a instead of
x + a. They are rejected by the overlap engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .rotations import _SPH_TO_CART, J_MAX, _validated_spin, require_rotation_matrix, wigner_D
from .rotations import validate_helicities

SCALAR = "scalar"
SPHERICAL3 = "spherical3"
CARTESIAN3 = "cartesian3"
SPHERICAL_PHOTON = "spherical-photon"
CARTESIAN_PHOTON = "cartesian-photon"
RADIATION_GAUGE = "radiation-gauge"

#: The named families: kind -> (spin, helicity set, label basis, weight exponent p).
_NAMED = {
    SCALAR: (0, (0,), "spherical", 0.5),
    SPHERICAL3: (1, (-1, 0, 1), "spherical", 0.5),
    CARTESIAN3: (1, (-1, 0, 1), "cartesian", 0.5),
    SPHERICAL_PHOTON: (1, (-1, 1), "spherical", 0.5),
    CARTESIAN_PHOTON: (1, (-1, 1), "cartesian", 0.5),
    RADIATION_GAUGE: (1, (-1, 1), "cartesian", 1.0),
}
_KIND_OF = {row: kind for kind, row in _NAMED.items()}
FAMILY_KINDS = tuple(_NAMED)

#: Cartesian axis labels, in index order.
AXES = ("x", "y", "z")


@dataclass(frozen=True)
class StateFamily:
    """Amplitude family, checked once: ``kind`` (the name of a named family, else the
    tuple as a string) and ``labels`` are computed at construction."""

    spin: int
    helicities: tuple
    label_basis: str = "spherical"
    weight_exponent: float = 0.5
    frequency_sign: str = "positive"
    kind: str = field(init=False, repr=False, compare=False)
    labels: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        spin = _validated_spin(self.spin)
        helicities = validate_helicities(self.helicities, spin)
        if not (self.label_basis == "spherical" or self.label_basis == "cartesian" and spin == 1):
            raise ValueError(f"label basis must be 'spherical', or 'cartesian' at spin 1, got "
                             f"{self.label_basis!r} at spin {spin}")
        if self.weight_exponent not in (0.5, 1.0):
            raise ValueError(f"weight exponent p must be 1/2 or 1, got {self.weight_exponent!r}")
        if self.frequency_sign not in ("positive", "negative"):
            raise ValueError("frequency_sign must be 'positive' or 'negative'")
        row = (spin, helicities, self.label_basis, float(self.weight_exponent))
        labels = AXES if self.label_basis == "cartesian" else tuple(range(spin, -spin - 1, -1))
        self.__dict__.update(spin=spin, helicities=helicities, weight_exponent=row[3],
                             labels=labels, kind=_KIND_OF.get(row, str(row)))

    @classmethod
    def of(cls, kind: str, frequency_sign: str = "positive") -> "StateFamily":
        """The named family ``kind``, one of :data:`FAMILY_KINDS`."""
        if kind not in _NAMED:
            raise ValueError(f"unknown family kind {kind!r}; choose from {FAMILY_KINDS}")
        return cls(*_NAMED[kind], frequency_sign)

    @property
    def radial_power(self) -> float:
        """The power s = 1 - 2p of k in the overlap kernel's radial weight k^s e^(-a^2 k^2)."""
        return 1.0 - 2.0 * self.weight_exponent


@dataclass(frozen=True, eq=False)
class LocalizedState:
    """Candidate localized state: family, anchor x = (t, x, y, z), label mixture.

    ``coefficients`` is the complex vector over the family's labels; it is the
    unit vector of the construction label and gets multiplied by the
    appropriate representation matrix under rotations.
    """

    family: StateFamily
    x: np.ndarray
    coefficients: np.ndarray
    regulator_width: float


def require_regulator_width(a) -> float:
    """The Gaussian regulator width as a float; it must be finite and positive."""
    a = float(a)
    if not 0.0 < a < np.inf:
        raise ValueError(f"regulator width must be finite and positive, got {a}")
    return a


def require_finite_anchor(x, name: str = "anchor x") -> np.ndarray:
    """The anchor ``x`` as a float four-vector; every component must be finite."""
    x = np.asarray(x, dtype=float)
    if x.shape != (4,):
        raise ValueError(f"spacetime point must have shape (4,), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def make_localized_state(family: StateFamily, x, label, a: float) -> LocalizedState:
    """Construct a single-label state anchored at spacetime point ``x``.

    Parameters
    ----------
    family : StateFamily
    x : array-like, shape (4,)
        Finite anchor point (t, x, y, z) in natural units.
    label : int or str
        sigma in {+j, ..., -j} for spherical label families, 'x'|'y'|'z' for
        Cartesian ones.
    a : float
        Gaussian regulator width, finite and strictly positive.
    """
    a = require_regulator_width(a)
    x = require_finite_anchor(x)
    if label not in family.labels:
        raise ValueError(f"{family.kind} family takes labels {family.labels}, got {label!r}")
    coeff = np.zeros(len(family.labels), dtype=complex)
    coeff[family.labels.index(label)] = 1.0
    return LocalizedState(family, x, coeff, a)


@lru_cache(maxsize=J_MAX + 1)
def _wigner_sum_table(j: int) -> np.ndarray:
    """Read-only P[b, sigma, lam], sigma and lam = +j..-j, of Wigner's factorial sum
    d^j_{sigma lam} = sum_b P[b, sigma, lam] cos(theta/2)^(2j - b) sin(theta/2)^b."""
    f = math.factorial
    table = np.zeros((2 * j + 1,) * 3)
    for i, m1 in enumerate(range(j, -j - 1, -1)):
        for k, m2 in enumerate(range(j, -j - 1, -1)):
            norm = math.sqrt(f(j + m1) * f(j - m1) * f(j + m2) * f(j - m2))
            for s in range(max(0, m2 - m1), min(j + m2, j - m1) + 1):
                den = f(j + m2 - s) * f(s) * f(m1 - m2 + s) * f(j - m1 - s)
                table[m1 - m2 + 2 * s, i, k] = (-1) ** (m1 - m2 + s) * norm / den
    table.setflags(write=False)
    return table


def _azimuth_phase(khat: np.ndarray):
    """(rho, e^{i phi}) at unit directions ``khat`` of shape (M, 3): rho = sin(theta) =
    |khat_x + i khat_y| and e^{i phi} = 1 on the poles. e^{i phi} is formed by real
    divisions into its real and imaginary parts: a complex one scales by 1/rho, which
    overflows for a subnormal rho."""
    rho = np.hypot(khat[:, 0], khat[:, 1])
    e = np.ones(len(rho), dtype=complex)
    off_pole = rho > 0.0
    np.divide(khat[:, 0], rho, out=e.real, where=off_pole)
    np.divide(khat[:, 1], rho, out=e.imag, where=off_pole)
    return rho, e


def _wigner_rows(family: StateFamily, khat: np.ndarray) -> np.ndarray:
    """x[sigma, n, lam] = d^j_{sigma lam}(theta) e^{i (sigma - lam) phi}, sigma = j..-j,
    shape (2j+1, M, len(helicities)), at unit directions ``khat`` of shape (M, 3): row
    sigma is the label rows of the unit spherical label sigma, d from Wigner's sum
    :func:`_wigner_sum_table`."""
    j, helicities = family.spin, family.helicities
    c = khat[:, 2]  # cos(theta)
    rho, e = _azimuth_phase(khat)
    # cos, sin of theta/2 from the larger of 1 +- c and rho / 2 = cos sin: no cancellation
    big = np.sqrt(0.5 * (1.0 + np.abs(c)))
    cos_half, sin_half = np.where(c >= 0.0, (big, 0.5 * rho / big), (0.5 * rho / big, big))
    powers = np.arange(2 * j + 1)
    monomials = cos_half[:, None] ** powers[::-1] * sin_half[:, None] ** powers
    table = _wigner_sum_table(j)[:, :, [j - lam for lam in helicities]]
    sigma, lam = np.arange(j, -j - 1, -1), np.array(helicities)
    x = (e ** sigma[:, None])[:, :, None] * e[:, None] ** -lam
    x *= monomials @ table.transpose(1, 0, 2)
    return x


def _label_rows(family: StateFamily, coefficients: np.ndarray, khat: np.ndarray) -> np.ndarray:
    """Label rows C(khat, lam) of ``coefficients``, shape (M, len(helicities)), at unit
    directions ``khat`` of shape (M, 3): the inverse-frame D-matrix elements
    d^j_{sigma lam}(theta) e^{i (sigma - lam) phi} read off the components of khat,
    cos(theta) = khat_z and sin(theta) e^{i phi} = khat_x + i khat_y, with e^{i phi} = 1
    on the poles, contracted with the coefficients; Cartesian coefficients enter
    through their spherical components <sigma|i>. Spin 0 broadcasts its coefficient,
    spin 1 is a closed form, higher spins contract :func:`_wigner_rows`.
    """
    if family.spin == 0:
        return np.broadcast_to(coefficients, (khat.shape[0], 1))
    if family.spin > 1:
        x = _wigner_rows(family, khat)
        return (coefficients @ x.reshape(len(x), -1)).reshape(khat.shape[0], -1)
    b = coefficients
    if family.label_basis == "cartesian":
        b = _SPH_TO_CART @ b
    c = khat[:, 2]  # cos(theta)
    e = _azimuth_phase(khat)[1]
    bp, b0, bm = b
    up, down = 0.5 * (1.0 + c), 0.5 * (1.0 - c)
    transverse = khat[:, 0] + 1j * khat[:, 1]
    w = transverse * np.sqrt(0.5)  # sin(theta) e^{i phi} / sqrt(2)
    e2 = e**2  # e^{2 i phi}
    rows = np.empty((khat.shape[0], len(family.helicities)), dtype=complex)
    for i, lam in enumerate(family.helicities):
        if lam == 1:
            rows[:, i] = up * bp + w.conj() * b0 + (down * bm) * e2.conj()
        elif lam == 0:
            rows[:, i] = c * b0 + w.conj() * bm - w * bp
        else:
            rows[:, i] = up * bm - w * b0 + (down * bp) * e2
    return rows


def _unit_rows(spin: int, khat: np.ndarray) -> np.ndarray:
    """X[sigma, sigma'] = C_{e_sigma}(khat, sigma'), sigma and sigma' = j..-j: the label
    rows at the one unit direction ``khat`` of shape (3,) of every unit spherical label
    of the complete spin-j family, so that c @ X is the row of the spherical coefficients
    c in sigma order. The branches are those of :func:`_label_rows`: spin 0 is 1, spin 1
    its closed form at unit coefficients on Python scalars (~4 us against ~32 us for
    :func:`_wigner_rows` at one node, which leaves the oracle overlap's p50 gain short
    of a quarter), higher spins :func:`_wigner_rows`."""
    if spin == 0:
        return np.ones((1, 1), dtype=complex)
    if spin > 1:
        complete = StateFamily(spin, tuple(range(-spin, spin + 1)))
        return _wigner_rows(complete, khat[None])[:, 0, ::-1]
    x, y, c = khat.tolist()  # c = cos(theta)
    rho = math.hypot(x, y)
    e = complex(x / rho, y / rho) if rho > 0.0 else 1.0  # e^{i phi}, as _azimuth_phase
    up, down = 0.5 * (1.0 + c), 0.5 * (1.0 - c)
    w = complex(x, y) * math.sqrt(0.5)  # sin(theta) e^{i phi} / sqrt(2)
    e2 = e * e
    return np.array([[up, -w, down * e2],
                     [w.conjugate(), c, -w],
                     [down * e2.conjugate(), w.conjugate(), up]])


def _envelope(family: StateFamily, a: float, k: np.ndarray) -> np.ndarray:
    """The radial factor (2 pi)^(-3/2) k^(-p) e^(-a^2 k^2 / 2) of the amplitude of a
    ``family`` state of regulator width ``a`` at radii ``k``, shape (N,)."""
    return (2.0 * np.pi) ** -1.5 * k**-family.weight_exponent * np.exp(-0.5 * a * a * k * k)


def _anchor_phase(state: LocalizedState, khat: np.ndarray) -> np.ndarray:
    """The phase variable u = +-(t - khat.x_vec) of the amplitude, signed by the frequency
    sign, at unit directions ``khat`` of shape (M, 3): the anchor phase is e^{i |k| u}."""
    u = state.x[0] - khat @ state.x[1:]
    return -u if state.family.frequency_sign == "negative" else u


def momentum_amplitude(state: LocalizedState, k, lam: int) -> np.ndarray:
    """Evaluate the state's momentum-space amplitude c(k, lam).

    Parameters
    ----------
    state : LocalizedState
    k : array-like, shape (..., 3)
        Momentum three-vectors; must be finite and nonzero.
    lam : int
        Helicity. Amplitudes vanish identically outside the family's set.

    Returns
    -------
    numpy.ndarray or complex
        Complex amplitude with shape ``k.shape[:-1]``: the product of the
        separable factors, evaluated at each momentum's own |k| and khat;
        exactly 0 where the envelope underflows. Raises ValueError where the
        envelope is nonzero but the anchor phase |k| u overflows.
    """
    k = np.asarray(k, dtype=float)
    if k.shape[-1] != 3:
        raise ValueError(f"momenta must have a trailing axis of length 3, got {k.shape}")
    kvec = k.reshape(-1, 3)
    if not np.all(np.isfinite(kvec)):
        raise ValueError("momenta must be finite")
    omega = np.hypot(np.hypot(kvec[:, 0], kvec[:, 1]), kvec[:, 2])  # squares no component
    if np.any(omega == 0.0):
        raise ValueError("momentum direction undefined at k = 0")
    amp = np.zeros(kvec.shape[0], dtype=complex)
    if lam in state.family.helicities:
        khat = kvec / omega[:, None]
        with np.errstate(over="ignore"):  # a^2 k^2 past the double range: the envelope is 0
            envelope = _envelope(state.family, state.regulator_width, omega)
            live = envelope > 0.0  # the phase of an underflowed envelope is never formed
            arg = omega[live] * _anchor_phase(state, khat)[live]  # an overflow is rejected below
        if not np.all(np.isfinite(arg)):
            raise ValueError("the anchor phase |k| (t - khat.x) overflows: the anchor times "
                             "the momentum leaves the double range")
        amp.real[live], amp.imag[live] = envelope[live] * np.cos(arg), envelope[live] * np.sin(arg)
        one = replace(state.family, helicities=(lam,))  # the column lam of the family's rows
        amp *= _label_rows(one, state.coefficients, khat)[:, 0]
    return amp[0] if k.ndim == 1 else amp.reshape(k.shape[:-1])


def rotate_state(state: LocalizedState, R) -> LocalizedState:
    """Apply a rotation: x_vec -> R x_vec and mix the label coefficients.

    Spherical-label coefficients are multiplied by the family's spin-j D-matrix
    (1 at spin 0), Cartesian ones by R itself, exactly (no quadrature); the
    regulator is rotation invariant and unchanged.
    """
    R = require_rotation_matrix(R)
    if state.family.label_basis == "cartesian":
        mixed = R.astype(complex) @ state.coefficients
    else:
        mixed = wigner_D(state.family.spin, R) @ state.coefficients
    x = state.x.copy()
    with np.errstate(over="ignore"):  # an overflowed anchor is rejected below
        x[1:] = R @ x[1:]
    return replace(state, x=require_finite_anchor(x, "rotated anchor R x"), coefficients=mixed)


def translate_state(state: LocalizedState, a) -> LocalizedState:
    """Apply a spacetime translation by four-vector ``a``.

    Positive-frequency states re-anchor at x + a. Negative-frequency states
    pick up the same unitary phase but re-anchor at x - a, which is what
    disqualifies them as localized-state candidates.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (4,):
        raise ValueError(f"translation must be a four-vector, got shape {a.shape}")
    sign = 1.0 if state.family.frequency_sign == "positive" else -1.0
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        x = state.x + sign * a
    name = "translated anchor x + a" if sign > 0 else "translated anchor x - a"
    return replace(state, x=require_finite_anchor(x, name))
