"""Closed-form momentum-space amplitude families for candidate localized states.

Every state in the toolkit is a superposition over momentum-helicity
eigenvectors whose amplitude factorizes as

    c(k, lambda) = (2*pi)^(-3/2) * omega^(-p) * C(khat, lambda)
                   * exp(+-i k.x) * exp(-a^2 |k|^2 / 2),

where p is the family weight exponent, C the family's label coefficient,
k.x = omega*t - k_vec.x_vec, and a > 0 a Gaussian regulator width that makes
all overlaps finite while commuting with rotations. A state is stored as its
family, anchor point, regulator width, and a complex coefficient vector over
the family's labels (a unit vector at construction, mixed by rotations).

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

from .polarization import AXES, axis_index
from .rotations import require_rotation_matrix, spherical_to_cartesian, wigner_D

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

#: kind -> (weight exponent p, helicity set, label basis)
_CANONICAL = {
    SCALAR: (0.5, (0,), "scalar"),
    SPHERICAL3: (0.5, (-1, 0, 1), "spherical"),
    CARTESIAN3: (0.5, (-1, 0, 1), "cartesian"),
    SPHERICAL_PHOTON: (0.5, (-1, 1), "spherical"),
    CARTESIAN_PHOTON: (0.5, (-1, 1), "cartesian"),
    RADIATION_GAUGE: (1.0, (-1, 1), "cartesian"),
}

_SPHERICAL_LABELS = (1, 0, -1)  # descending, matching D-matrix ordering


@dataclass(frozen=True)
class StateFamily:
    """Amplitude family: kind, measure weight, helicity support, frequency sign."""

    kind: str
    weight_exponent: float
    helicities: tuple
    frequency_sign: str = "positive"

    def __post_init__(self):
        if self.kind not in _CANONICAL:
            raise ValueError(f"unknown family kind {self.kind!r}; choose from {FAMILY_KINDS}")
        p, hel, _ = _CANONICAL[self.kind]
        if (self.weight_exponent, tuple(self.helicities)) != (p, hel):
            raise ValueError(
                f"family {self.kind!r} requires weight exponent {p} and helicities {hel}"
            )
        if self.frequency_sign not in ("positive", "negative"):
            raise ValueError("frequency_sign must be 'positive' or 'negative'")

    @classmethod
    def of(cls, kind: str, frequency_sign: str = "positive") -> "StateFamily":
        """Canonical family for a kind string."""
        if kind not in _CANONICAL:
            raise ValueError(f"unknown family kind {kind!r}; choose from {FAMILY_KINDS}")
        p, hel, _ = _CANONICAL[kind]
        return cls(kind, p, hel, frequency_sign)

    @property
    def label_basis(self) -> str:
        return _CANONICAL[self.kind][2]

    @property
    def labels(self) -> tuple:
        if self.label_basis == "scalar":
            return (0,)
        if self.label_basis == "spherical":
            return _SPHERICAL_LABELS
        return AXES


def label_index(family: StateFamily, label) -> int:
    """Position of a label in the family's coefficient vector."""
    basis = family.label_basis
    if basis == "scalar":
        if label in (0, None):
            return 0
        raise ValueError(f"scalar family takes label 0, got {label!r}")
    if basis == "spherical":
        if label in _SPHERICAL_LABELS:
            return _SPHERICAL_LABELS.index(label)
        raise ValueError(f"spherical family takes labels {_SPHERICAL_LABELS}, got {label!r}")
    return axis_index(label)


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


def _small_d1_column(theta, lam: int):
    """Column lam of the spin-1 reduced rotation matrix, shape theta.shape + (3,)."""
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    rt2 = np.sqrt(2.0)
    col = np.empty(theta.shape + (3,))
    if lam == 1:
        col[..., 0], col[..., 1], col[..., 2] = (1 + c) / 2, s / rt2, (1 - c) / 2
    elif lam == 0:
        col[..., 0], col[..., 1], col[..., 2] = -s / rt2, c, s / rt2
    else:
        col[..., 0], col[..., 1], col[..., 2] = (1 - c) / 2, -s / rt2, (1 + c) / 2
    return col


def _spherical_coefficient_row(theta, phi, lam: int):
    """Inverse-frame coefficients A[..., sigma] for helicity lam, spherical labels.

    These are the inverse standard-rotation D-matrix elements with row index
    the helicity and column index the state label, ordered (+1, 0, -1).
    """
    d = _small_d1_column(theta, lam)
    phi = np.asarray(phi, dtype=float)
    # azimuthal factors e^{i (sigma - lam) phi} via integer powers of e^{i phi}
    e1 = np.cos(phi) + 1j * np.sin(phi)
    e2 = e1 * e1
    powers = {0: 1.0, 1: e1, -1: e1.conj(), 2: e2, -2: e2.conj()}
    out = np.empty(d.shape, dtype=complex)
    for col, sigma in enumerate((1, 0, -1)):
        out[..., col] = d[..., col] * powers[sigma - lam]
    return out


def _label_coefficient_row(family: StateFamily, theta, phi, lam: int):
    basis = family.label_basis
    if basis == "scalar":
        shape = np.broadcast(np.asarray(theta), np.asarray(phi)).shape
        return np.ones(shape + (1,), dtype=complex)
    row = _spherical_coefficient_row(theta, phi, lam)
    # the Cartesian row (conjugate polarization components) is the spherical row times <sigma|i>
    return row if basis == "spherical" else row @ spherical_to_cartesian()


def momentum_amplitude(state: LocalizedState, k, lam: int) -> np.ndarray:
    """Evaluate the state's momentum-space amplitude c(k, lam).

    Parameters
    ----------
    state : LocalizedState
    k : array-like, shape (..., 3)
        Momentum three-vectors; must be nonzero.
    lam : int
        Helicity. Amplitudes vanish identically outside the family's set.

    Returns
    -------
    numpy.ndarray or complex
        Complex amplitude with shape ``k.shape[:-1]``.
    """
    k = np.asarray(k, dtype=float)
    if k.shape[-1] != 3:
        raise ValueError(f"momenta must have a trailing axis of length 3, got {k.shape}")
    scalar_input = k.ndim == 1
    kvec = np.atleast_2d(k)
    omega = np.linalg.norm(kvec, axis=-1)
    if np.any(omega == 0.0):
        raise ValueError("momentum direction undefined at k = 0")
    if lam not in state.family.helicities:
        out = np.zeros(omega.shape, dtype=complex)
        return out[0] if scalar_input else out.reshape(k.shape[:-1])

    theta = np.arccos(np.clip(kvec[..., 2] / omega, -1.0, 1.0))
    phi = np.arctan2(kvec[..., 1], kvec[..., 0])
    mixed = _label_coefficient_row(state.family, theta, phi, lam) @ state.coefficients

    t, xvec = state.x[0], state.x[1:]
    kx = omega * t - kvec @ xvec
    if state.family.frequency_sign == "negative":
        kx = -kx
    phase = np.cos(kx) + 1j * np.sin(kx)
    a = state.regulator_width
    amp = (
        (2.0 * np.pi) ** -1.5
        * omega ** -state.family.weight_exponent
        * mixed
        * phase
        * np.exp(-0.5 * a * a * omega * omega)
    )
    return amp[0] if scalar_input else amp.reshape(k.shape[:-1])


def rotate_state(state: LocalizedState, R) -> LocalizedState:
    """Apply a rotation: x_vec -> R x_vec and mix the label coefficients.

    Spherical-label coefficients are multiplied by the spin-1 D-matrix,
    Cartesian ones by R itself, exactly (no quadrature); the regulator is
    rotation invariant and unchanged.
    """
    R = require_rotation_matrix(R)
    basis = state.family.label_basis
    if basis == "scalar":
        mixed = state.coefficients
    elif basis == "spherical":
        mixed = wigner_D(1, R) @ state.coefficients
    else:
        mixed = R.astype(complex) @ state.coefficients
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
