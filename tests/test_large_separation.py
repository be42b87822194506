"""Kernels far beyond the regulator width, the a -> 0 regime of the paper.

Every reference here is independent of the production closed form: the
photon-family tails are the a -> 0 Fourier transforms written out by hand,
the radiation-gauge kernel is written with Dawson's integral, and the radial
integrals are summed by Gauss-Legendre quadrature in mpmath arithmetic.
"""

import time

import mpmath as mp
import numpy as np
import pytest
from scipy.special import dawsn

from photonloc.overlap import (
    _radial_integrals,
    general_j_defect,
    overlap_kernel_matrix,
    transverse_kernel,
)
from photonloc.states import CARTESIAN_PHOTON, RADIATION_GAUGE, StateFamily

R_OVER_A = (20.0, 40.0, 100.0, 1e3, 1e8)
DIRECTIONS = [
    np.array([0.0, 0.0, 1.0]),
    np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0),
    np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8]),
]


def dipole(rvec):
    """(3 rhat rhat^T - I) / (4 pi r^3)."""
    r = np.linalg.norm(rvec)
    rhat = rvec / r
    return (3.0 * np.outer(rhat, rhat) - np.eye(3)) / (4.0 * np.pi * r**3)


def radiation_gauge_kernel(rvec, a):
    """(2 pi)^-3 integral d^3k exp(-a^2 k^2) (I - khat khat^T) e^{i k.r} / k.

    The angular integral leaves (2 pi^2)^-1 integral dk k exp(-a^2 k^2) times
    I (j_0 - j_1/kr) + rhat rhat^T j_2, and with y = r/2a and F = dawsn:
    integral k exp(-a^2 k^2) j_0(kr) dk = 2y F(y) / r^2 and
    integral k exp(-a^2 k^2) j_1(kr)/(kr) dk = (1 - F(y)/y) / r^2.
    """
    r = np.linalg.norm(rvec)
    rhat = rvec / r
    y = r / (2.0 * a)
    f0 = 2.0 * y * dawsn(y)
    f1 = 1.0 - dawsn(y) / y
    return ((f0 - f1) * np.eye(3) + (3.0 * f1 - f0) * np.outer(rhat, rhat)) / (
        2.0 * np.pi**2 * r**2
    )


@pytest.mark.parametrize("r_over_a", R_OVER_A)
@pytest.mark.parametrize("a", [1.0, 1e-3])
class TestDipoleTail:
    # beyond r/a = 20 the photon kernels differ from their a -> 0 tails by
    # terms of order exp(-r^2/4a^2) < 1e-43, so the tail is exact to rounding

    def test_transverse_kernel(self, r_over_a, a):
        for rhat in DIRECTIONS:
            rvec = r_over_a * a * rhat
            tail = -dipole(rvec)
            error = np.abs(transverse_kernel(rvec, a) - tail).max()
            assert error < 1e-12 * np.abs(tail).max()

    def test_cartesian_photon(self, r_over_a, a):
        family = StateFamily.of(CARTESIAN_PHOTON)
        for rhat in DIRECTIONS:
            rvec = r_over_a * a * rhat
            tail = dipole(rvec)
            error = np.abs(overlap_kernel_matrix(family, rvec, a).entries - tail).max()
            assert error < 1e-12 * np.abs(tail).max()

    def test_radiation_gauge(self, r_over_a, a):
        # the 1/k weight gives a 1/r^2 tail, rhat rhat^T / (pi^2 r^2), reached
        # only up to relative corrections of order (a/r)^2
        family = StateFamily.of(RADIATION_GAUGE)
        for rhat in DIRECTIONS:
            rvec = r_over_a * a * rhat
            exact = radiation_gauge_kernel(rvec, a)
            kernel = overlap_kernel_matrix(family, rvec, a).entries
            assert np.abs(kernel - exact).max() < 1e-12 * np.abs(exact).max()
            if r_over_a >= 1e8:
                r = np.linalg.norm(rvec)
                tail = np.outer(rhat, rhat) / (np.pi**2 * r**2)
                assert np.abs(kernel - tail).max() < 1e-12 * np.abs(tail).max()


@pytest.mark.parametrize(
    "r, a",
    [(40.0, 1.0), (1.0, 1e-3), (1e6, 1.0)],
)
def test_photon_kernel_along_z_is_the_dipole(r, a):
    # cartesian-photon xx entry with r along z is -1/(4 pi r^3) once r >> a
    kernel = overlap_kernel_matrix(StateFamily.of(CARTESIAN_PHOTON), [0.0, 0.0, r], a)
    expected = np.diag([-1.0, -1.0, 2.0]) / (4.0 * np.pi * r**3)
    assert abs(kernel.entries[0, 0] - expected[0, 0]) < 1e-12 * abs(expected[0, 0])
    assert np.abs(kernel.entries - expected).max() < 1e-12 * abs(expected[2, 2])


def _mp_radial_integrals(lmax, x, powers):
    """integral_0^7.5 dk k^(2+s) exp(-k^2) j_l(kx) at a = 1, for l <= lmax, each s.

    24-node Gauss-Legendre panels two oscillation periods wide, at 90 digits.
    j_l comes from the upward recurrence: it loses digits where kx < l, but at
    90 digits not enough to matter there. The integrand beyond k = 7.5 is
    below 1e-22.
    """
    with mp.workdps(90):
        x = mp.mpf(x)
        nodes, weights = mp.gauss_quadrature(24, "legendre")
        width = 4 * mp.pi / x
        totals = {s: [mp.mpf(0)] * (lmax + 1) for s in powers}
        for panel in range(int(mp.ceil(mp.mpf("7.5") / width))):
            for t, w in zip(nodes, weights):
                k = width * (panel + (t + 1) / 2)
                y = k * x
                jl = [mp.sin(y) / y, mp.sin(y) / y**2 - mp.cos(y) / y]
                for l in range(1, lmax):
                    jl.append((2 * l + 1) / y * jl[l] - jl[l - 1])
                for s in powers:
                    base = w * width / 2 * k ** (2 + s) * mp.exp(-k * k)
                    for l in range(lmax + 1):
                        totals[s][l] += base * jl[l]
        return {s: np.array([float(v) for v in totals[s]]) for s in powers}


@pytest.mark.parametrize("r_over_a", [20.0, 40.0])
def test_radial_integrals_match_mpmath_quadrature(r_over_a):
    lmax = 20
    references = _mp_radial_integrals(lmax, r_over_a, (0, -1))
    for s, reference in references.items():
        closed = _radial_integrals(lmax, r_over_a, 1.0, float(s))
        # the l = s = 0 integral is exp(-r^2/4a^2)-small; measure it against
        # the r^-(3+s) scale of the others
        scale = np.maximum(np.abs(reference), r_over_a ** -(3.0 + s))
        assert (np.abs(closed - reference) / scale).max() < 1e-13


def test_spin10_defect_at_huge_separation_is_fast_finite_and_hermitian():
    rvec = 1e8 * np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    best = np.inf
    for _ in range(5):
        start = time.perf_counter()
        kernel = general_j_defect(10, (-1, 1), rvec, 1.0)
        best = min(best, time.perf_counter() - start)
    entries = kernel.entries
    assert np.all(np.isfinite(entries))
    scale = np.abs(entries).max()
    assert 0.0 < scale < 1.0
    assert np.abs(entries - entries.conj().T).max() < 1e-12 * scale
    assert best < 0.010


def test_separation_beyond_double_range_is_rejected():
    with pytest.raises(ValueError, match="double range"):
        general_j_defect(10, (-1, 1), [0.0, 0.0, 1e20], 1.0)
