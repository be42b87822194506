"""Closed-form momentum-space amplitude families for candidate localized states.

Every state in the toolkit is a superposition over momentum-helicity
eigenvectors whose amplitude factorizes as

    c(k, lambda) = (2*pi)^(-3/2) * omega^(-p) * C(khat, lambda)
                   * exp(+-i k.x) * exp(-a^2 |k|^2 / 2),

where p is the family weight exponent, C the family's label coefficient (a
conjugated spin-1 D-matrix element of the standard rotation to khat, read off
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
scalar            single zero-helicity label, weight omega^(-1/2)
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

from dataclasses import dataclass, replace

import numpy as np

from .rotations import _SPH_TO_CART, require_rotation_matrix, wigner_D

SCALAR = "scalar"
SPHERICAL3 = "spherical3"
CARTESIAN3 = "cartesian3"
SPHERICAL_PHOTON = "spherical-photon"
CARTESIAN_PHOTON = "cartesian-photon"
RADIATION_GAUGE = "radiation-gauge"

FAMILY_KINDS = (
    SCALAR,
    SPHERICAL3,
    CARTESIAN3,
    SPHERICAL_PHOTON,
    CARTESIAN_PHOTON,
    RADIATION_GAUGE,
)

#: The one description of a family: kind -> (weight exponent p, helicity set, label basis).
_CANONICAL = {
    SCALAR: (0.5, (0,), "scalar"),
    SPHERICAL3: (0.5, (-1, 0, 1), "spherical"),
    CARTESIAN3: (0.5, (-1, 0, 1), "cartesian"),
    SPHERICAL_PHOTON: (0.5, (-1, 1), "spherical"),
    CARTESIAN_PHOTON: (0.5, (-1, 1), "cartesian"),
    RADIATION_GAUGE: (1.0, (-1, 1), "cartesian"),
}

#: Cartesian axis labels, in index order.
AXES = ("x", "y", "z")

#: label basis -> labels, spherical ones descending as the D-matrix rows.
_LABELS = {"scalar": (0,), "spherical": (1, 0, -1), "cartesian": AXES}


@dataclass(frozen=True)
class StateFamily:
    """Amplitude family: kind and frequency sign; the kind fixes every other property."""

    kind: str
    frequency_sign: str = "positive"

    def __post_init__(self):
        if self.kind not in _CANONICAL:
            raise ValueError(f"unknown family kind {self.kind!r}; choose from {FAMILY_KINDS}")
        if self.frequency_sign not in ("positive", "negative"):
            raise ValueError("frequency_sign must be 'positive' or 'negative'")

    @classmethod
    def of(cls, kind: str, frequency_sign: str = "positive") -> "StateFamily":
        """Canonical family for a kind string."""
        return cls(kind, frequency_sign)

    @property
    def weight_exponent(self) -> float:
        return _CANONICAL[self.kind][0]

    @property
    def helicities(self) -> tuple:
        return _CANONICAL[self.kind][1]

    @property
    def label_basis(self) -> str:
        return _CANONICAL[self.kind][2]

    @property
    def labels(self) -> tuple:
        return _LABELS[self.label_basis]

    @property
    def spin(self) -> int:
        """The spin j of the 2j + 1 labels."""
        return len(_LABELS[_CANONICAL[self.kind][2]]) // 2

    @property
    def radial_power(self) -> float:
        """The power s = 1 - 2p of k in the overlap kernel's radial weight k^s e^(-a^2 k^2)."""
        return 1.0 - 2.0 * _CANONICAL[self.kind][0]


def label_index(family: StateFamily, label) -> int:
    """Position of a label in the family's coefficient vector."""
    if label not in family.labels:
        raise ValueError(f"{family.kind} family takes labels {family.labels}, got {label!r}")
    return family.labels.index(label)


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
        sigma in {+1, 0, -1} for spherical label families, 'x'|'y'|'z' for
        Cartesian ones, 0 for the scalar family.
    a : float
        Gaussian regulator width, finite and strictly positive.
    """
    a = require_regulator_width(a)
    x = require_finite_anchor(x)
    idx = label_index(family, label)
    coeff = np.zeros(len(family.labels), dtype=complex)
    coeff[idx] = 1.0
    return LocalizedState(family, x, coeff, a)


def _label_rows(family: StateFamily, coefficients: np.ndarray, khat: np.ndarray) -> np.ndarray:
    """Label rows C(khat, lam) of ``coefficients``, shape (M, len(helicities)), at unit
    directions ``khat`` of shape (M, 3): the inverse-frame D-matrix elements
    d^1_{sigma lam}(theta) e^{i (sigma - lam) phi} read off the components of khat,
    cos(theta) = khat_z and sin(theta) e^{i phi} = khat_x + i khat_y, with e^{i phi} = 1
    on the poles, contracted with the coefficients; Cartesian coefficients enter
    through their spherical components <sigma|i>.
    """
    if family.label_basis == "scalar":
        return np.broadcast_to(coefficients, (khat.shape[0], 1))
    b = coefficients
    if family.label_basis == "cartesian":
        b = _SPH_TO_CART @ b
    bp, b0, bm = b
    c = khat[:, 2]  # cos(theta)
    up, down = 0.5 * (1.0 + c), 0.5 * (1.0 - c)
    transverse = khat[:, 0] + 1j * khat[:, 1]
    w = transverse * np.sqrt(0.5)  # sin(theta) e^{i phi} / sqrt(2)
    # e^{i phi} by real divisions: a complex one scales by 1/rho, which overflows for a
    # subnormal rho
    rho = np.hypot(khat[:, 0], khat[:, 1])
    cos_phi = np.divide(khat[:, 0], rho, out=np.ones_like(rho), where=rho > 0.0)
    sin_phi = np.divide(khat[:, 1], rho, out=np.zeros_like(rho), where=rho > 0.0)
    e2 = (cos_phi + 1j * sin_phi) ** 2  # e^{2 i phi}
    rows = np.empty((khat.shape[0], len(family.helicities)), dtype=complex)
    for i, lam in enumerate(family.helicities):
        if lam == 1:
            rows[:, i] = up * bp + w.conj() * b0 + (down * bm) * e2.conj()
        elif lam == 0:
            rows[:, i] = c * b0 + w.conj() * bm - w * bp
        else:
            rows[:, i] = up * bm - w * b0 + (down * bp) * e2
    return rows


def _amplitude_factors(state: LocalizedState, k: np.ndarray, khat: np.ndarray):
    """The separable factors of c(k khat, lam) = envelope(k) e^{i k u(khat)} rows(khat, lam).

    ``k`` holds positive radii, shape (N,), and ``khat`` unit directions, shape
    (M, 3). Returns the envelope (2 pi)^(-3/2) k^(-p) e^(-a^2 k^2 / 2), shape (N,);
    the phase variable u = +-(t - khat.x_vec), signed by the frequency sign, shape
    (M,); and the state's :func:`_label_rows`, shape (M, len(helicities)).
    """
    family = state.family
    a = state.regulator_width
    envelope = (2.0 * np.pi) ** -1.5 * k**-family.weight_exponent * np.exp(-0.5 * a * a * k * k)
    u = state.x[0] - khat @ state.x[1:]
    if family.frequency_sign == "negative":
        u = -u
    return envelope, u, _label_rows(family, state.coefficients, khat)


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
        with np.errstate(over="ignore"):  # a^2 k^2 past the double range: the envelope is 0
            envelope, u, rows = _amplitude_factors(state, omega, kvec / omega[:, None])
            live = envelope > 0.0  # the phase of an underflowed envelope is never formed
            arg = omega[live] * u[live]  # an overflow is rejected below
        if not np.all(np.isfinite(arg)):
            raise ValueError("the anchor phase |k| (t - khat.x) overflows: the anchor times "
                             "the momentum leaves the double range")
        amp.real[live], amp.imag[live] = envelope[live] * np.cos(arg), envelope[live] * np.sin(arg)
        amp *= rows[:, state.family.helicities.index(lam)]
    return amp[0] if k.ndim == 1 else amp.reshape(k.shape[:-1])


def rotate_state(state: LocalizedState, R) -> LocalizedState:
    """Apply a rotation: x_vec -> R x_vec and mix the label coefficients.

    Spherical-label coefficients are multiplied by the family's D-matrix (1 for
    the scalar family), Cartesian ones by R itself, exactly (no quadrature); the
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
