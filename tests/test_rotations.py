import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import expm

from photonloc.rotations import (
    J_MAX,
    _fourier_basis,
    _generators,
    _unit_directions,
    require_rotation_matrix,
    rotation_from_axis_angle,
    small_d_matrix,
    spherical_to_cartesian,
    standard_rotation,
    wigner_D,
    wigner_angle,
)

Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def rotation_z(angle):
    return rotation_from_axis_angle(Z, angle)


def rotation_y(angle):
    return rotation_from_axis_angle(Y, angle)


def unit_vector(theta, phi):
    st = np.sin(theta)
    return np.array([st * np.cos(phi), st * np.sin(phi), np.cos(theta)])


def random_rotation(rng):
    return rotation_from_axis_angle(rng.normal(size=3), rng.uniform(-np.pi, np.pi))


def random_direction(rng):
    return unit_vector(np.arccos(rng.uniform(-1, 1)), rng.uniform(0, 2 * np.pi))


def reference_standard_rotation(khat):
    """R_z(phi) R_y(theta) R_z(-phi) at the polar angles of khat, phi = 0 on the poles."""
    theta, phi = math.atan2(math.hypot(khat[0], khat[1]), khat[2]), math.atan2(khat[1], khat[0])
    return rotation_z(phi) @ rotation_y(theta) @ rotation_z(-phi)


class TestAxisAngle:
    def test_zero_angle_is_identity(self):
        np.testing.assert_allclose(rotation_from_axis_angle(Z, 0.0), np.eye(3))

    def test_quarter_turn_about_z_maps_x_to_y(self):
        R = rotation_from_axis_angle(Z, np.pi / 2)
        np.testing.assert_allclose(R @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)

    def test_random_rotations_are_proper_orthogonal(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            R = random_rotation(rng)
            assert np.abs(R.T @ R - np.eye(3)).max() < 1e-12
            assert abs(np.linalg.det(R) - 1.0) < 1e-12

    def test_axis_is_normalized_internally(self):
        R1 = rotation_from_axis_angle([0.0, 0.0, 7.3], 0.4)
        np.testing.assert_allclose(R1, rotation_from_axis_angle(Z, 0.4), atol=1e-15)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            rotation_from_axis_angle([0.0, 0.0, 0.0], 1.0)


class TestUnitDirections:
    def test_returns_float_unit_vectors_unchanged(self):
        khat = [[0, 0, 1], [-0.0, 0.0, -1.0], [0.6, -0.8, 0.0]]
        np.testing.assert_array_equal(_unit_directions(khat), np.array(khat, dtype=float))

    @pytest.mark.parametrize("khat, message", [
        ([0.0, 0.0, 1.0], r"shape \(M, 3\)"),
        ([[[0.0, 0.0, 1.0]]], "shape"),
        ([[0.0, 1.0]], "shape"),
        ([[0.0, np.nan, 1.0]], "finite"),
        ([[np.inf, 0.0, 0.0]], "finite"),
        ([[0.0, 0.0, 0.0]], "unit"),
        ([[-0.0, 0.0, -0.0]], "unit"),
        ([[1e-170, 0.0, 0.0]], "unit"),
        ([[0.0, 0.0, 1.0 + 1e-9]], "unit"),
    ])
    def test_invalid_directions_rejected(self, khat, message):
        with pytest.raises(ValueError, match=message):
            _unit_directions(khat)

    @pytest.mark.parametrize("khat", [[0.0, 1.0], [[0.0, 0.0, 1.0]], 1.0, [0.0, 0.0, 0.5]])
    def test_single_direction_consumers_reject_anything_but_one_unit_vector(self, khat):
        for consume in (standard_rotation, lambda k: wigner_angle(np.eye(3), k)):
            with pytest.raises(ValueError, match="directions must"):
                consume(khat)


class TestStandardRotation:
    def test_poles_give_the_identity_and_r_y_of_pi(self):
        for zero in (0.0, -0.0):
            np.testing.assert_array_equal(standard_rotation([zero, zero, 1.0]), np.eye(3))
            np.testing.assert_array_equal(standard_rotation([zero, -zero, -1.0]),
                                          np.diag([-1.0, 1.0, -1.0]))
        np.testing.assert_allclose(standard_rotation(-Z), rotation_y(np.pi), rtol=0, atol=1e-15)

    def test_equator_at_zero_azimuth_is_rotation_about_y(self):
        R = standard_rotation([1.0, 0.0, 0.0])
        np.testing.assert_allclose(R, rotation_y(np.pi / 2), atol=1e-15)

    def test_matches_the_euler_reference_and_carries_z_to_khat(self):
        rng = np.random.default_rng(4)
        khats = [unit_vector(theta, phi) for theta in np.linspace(0.0, np.pi, 15)
                 for phi in np.linspace(0.0, 2 * np.pi, 15, endpoint=False)]
        for khat in khats + [random_direction(rng) for _ in range(50)]:
            R = standard_rotation(khat)
            np.testing.assert_array_equal(R @ Z, khat)
            assert np.abs(R - reference_standard_rotation(khat)).max() <= 2e-15
            assert np.abs(R.T @ R - np.eye(3)).max() <= 1e-15

    @pytest.mark.parametrize("tilt", [1e-9, 1e-300, 1e-310])
    @pytest.mark.parametrize("z", [1.0, -1.0])
    def test_keeps_its_azimuth_on_a_tilt_off_either_pole(self, tilt, z):
        # R_y(pi) conjugated by R_z(phi) depends on phi: a frame that dropped the
        # azimuth of a subnormal tilt off -z would be off by O(1)
        for phi in (0.4, 2.9, -1.7):
            khat = np.array([tilt * np.cos(phi), tilt * np.sin(phi), z])
            R = standard_rotation(khat)
            np.testing.assert_array_equal(R @ Z, khat)
            # a subnormal tilt carries ~44 bits: cos(phi), sin(phi) are that precise
            tol = 1e-12 if tilt < np.finfo(float).tiny else 2e-15
            assert np.abs(R - reference_standard_rotation(khat)).max() <= tol
            if z < 0.0:  # R_y(pi) conjugated by R_z(phi) has 2 phi in its 2x2 block
                azimuth = math.atan2(khat[1], khat[0])  # of the rounded components
                assert abs(math.atan2(-(R[1, 0] + R[0, 1]), R[1, 1] - R[0, 0])
                           - math.remainder(2 * azimuth, 2 * np.pi)) <= 1e-15


class TestWignerD:
    def test_identity_rotation_gives_identity_matrix(self):
        np.testing.assert_allclose(wigner_D(1, np.eye(3)), np.eye(3), atol=1e-15)

    def test_spin1_rotation_about_y_matches_generator_exponential(self):
        # independent oracle: exponentiate an explicitly written spin-1 Jy
        jy = np.array(
            [[0.0, -1.0j, 0.0], [1.0j, 0.0, -1.0j], [0.0, 1.0j, 0.0]]
        ) / np.sqrt(2.0)
        beta = 0.8317
        expected = expm(-1j * beta * jy)
        got = wigner_D(1, rotation_y(beta))
        np.testing.assert_allclose(got, expected, atol=1e-13)
        assert abs(got[1, 1] - np.cos(beta)) < 1e-13

    def test_matches_generator_exponential_near_gimbal_lock(self):
        # reference exp(-i theta n.J) for every factor; near beta = 0 and pi the
        # Euler angles alpha, gamma are ill-conditioned one by one
        rng = np.random.default_rng(13)
        betas = (0.0, 1e-12, 1e-8, np.pi / 2, np.pi - 1e-8, np.pi)
        for j in range(J_MAX + 1):
            jx, jy, jz = _generators(j)
            cases = []
            for beta in betas:
                for alpha, gamma in rng.uniform(-np.pi, np.pi, size=(4, 2)):
                    R = rotation_z(alpha) @ rotation_y(beta) @ rotation_z(gamma)
                    ref = expm(-1j * alpha * jz) @ expm(-1j * beta * jy) @ expm(-1j * gamma * jz)
                    cases.append((R, ref))
            for _ in range(10):
                axis, angle = rng.normal(size=3), rng.uniform(-np.pi, np.pi)
                n = axis / np.linalg.norm(axis)
                ref = expm(-1j * angle * (n[0] * jx + n[1] * jy + n[2] * jz))
                cases.append((rotation_from_axis_angle(axis, angle), ref))
            for R, ref in cases:
                assert np.abs(wigner_D(j, R) - ref).max() < 1e-13

    def test_unitary_and_homomorphism_for_j2(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            r1, r2 = random_rotation(rng), random_rotation(rng)
            d1, d2 = wigner_D(2, r1), wigner_D(2, r2)
            assert np.abs(d1.conj().T @ d1 - np.eye(5)).max() < 1e-12
            assert np.abs(wigner_D(2, r1 @ r2) - d1 @ d2).max() < 1e-10

    def test_homomorphism_through_spin_four(self):
        rng = np.random.default_rng(3)
        for j in range(5):
            for _ in range(10):
                r1, r2 = random_rotation(rng), random_rotation(rng)
                resid = np.abs(
                    wigner_D(j, r1 @ r2) - wigner_D(j, r1) @ wigner_D(j, r2)
                ).max()
                assert resid < 1e-10

    def test_small_d_matrix_agrees_with_full_matrix_at_rotation_about_y(self):
        for j in (0, 1, 2, 3):
            for beta in (0.0, 0.4, 1.9, np.pi):
                np.testing.assert_allclose(
                    small_d_matrix(j, beta), wigner_D(j, rotation_y(beta)).real,
                    atol=1e-13,
                )

    def test_small_d_matrix_matches_wigner_factorial_sum(self):
        # Wigner's explicit sum in 40-digit arithmetic, an independent reference at every spin
        rng = np.random.default_rng(43)
        betas = np.concatenate((rng.uniform(0.0, np.pi, 4), [0.0, np.pi, 1e-12, np.pi - 1e-12]))
        fact = [math.factorial(n) for n in range(2 * J_MAX + 1)]
        with mp.workdps(40):
            for b, beta in enumerate(betas):
                c, s = mp.cos(mp.mpf(beta) / 2), mp.sin(mp.mpf(beta) / 2)
                cpow = [c**n for n in range(2 * J_MAX + 1)]
                spow = [s**n for n in range(2 * J_MAX + 1)]
                for j in range(J_MAX + 1):
                    got = small_d_matrix(j, betas)[b]
                    for p, m1 in enumerate(range(j, -j - 1, -1)):
                        for q, m2 in enumerate(range(j, -j - 1, -1)):
                            ref = mp.sqrt(fact[j + m1] * fact[j - m1] * fact[j + m2] * fact[j - m2])
                            ref *= mp.fsum(
                                (-1) ** (m1 - m2 + k) * cpow[2 * j + m2 - m1 - 2 * k]
                                * spow[m1 - m2 + 2 * k]
                                / (fact[j + m2 - k] * fact[k] * fact[m1 - m2 + k] * fact[j - m1 - k])
                                for k in range(max(0, m2 - m1), min(j + m2, j - m1) + 1))
                            assert abs(got[p, q] - float(ref)) <= 1e-14

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_small_d_matrix_rejects_a_non_finite_angle(self, bad):
        for beta in (bad, np.array([0.3, bad, 1.2])):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(ValueError, match="finite"):
                    small_d_matrix(1, beta)
            assert caught == []

    def test_fourier_basis_is_read_only_and_bounded(self):
        for j in range(J_MAX + 1):
            ilam, basis = _fourier_basis(j)
            assert basis.shape == (2 * j + 2, (2 * j + 1) ** 2)
            for arr in (ilam, basis):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.0
        info = _fourier_basis.cache_info()
        assert info.maxsize == J_MAX + 1 and info.currsize <= J_MAX + 1

    def test_generator_commutator(self):
        jx, jy, jz = _generators(2)
        np.testing.assert_allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-13)

    def test_unsupported_spin_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            wigner_D(11, np.eye(3))
        with pytest.raises(ValueError, match="integer"):
            wigner_D(0.5, np.eye(3))
        with pytest.raises(ValueError, match="integer"):
            wigner_D(-1, np.eye(3))

    def test_non_rotation_rejected(self):
        with pytest.raises(ValueError, match="orthogonal"):
            wigner_D(1, np.eye(3) * 1.1)
        with pytest.raises(ValueError, match="determinant"):
            wigner_D(1, np.diag([1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rotation_rejected(self, bad):
        R = rotation_z(0.3)
        R[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            wigner_D(1, R)
        with pytest.raises(ValueError, match="finite"):
            wigner_angle(R, unit_vector(0.5, 0.2))


class TestWignerAngle:
    def test_rotation_about_z_at_north_pole_returns_its_angle(self):
        for alpha in (-2.5, -0.3, 0.0, 1.1, 3.0):
            w = wigner_angle(rotation_z(alpha), Z)
            assert abs(w - alpha) < 1e-14

    def test_rotation_about_y_at_north_pole_is_neutral(self):
        assert abs(wigner_angle(rotation_y(0.9), Z)) < 1e-14

    def test_angle_reduced_to_half_open_interval(self):
        w = wigner_angle(rotation_z(np.pi), Z)
        assert -np.pi < w <= np.pi

    def test_reconstructs_composed_rotation(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            R = random_rotation(rng)
            d = random_direction(rng)
            composed = standard_rotation(R @ d).T @ R @ standard_rotation(d)
            w = wigner_angle(R, d)
            assert np.abs(rotation_from_axis_angle(Z, w) - composed).max() < 1e-12

    def test_composed_matrix_is_in_the_little_group_of_z(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            R = random_rotation(rng)
            d = random_direction(rng)
            composed = standard_rotation(R @ d).T @ R @ standard_rotation(d)
            assert abs(composed[2, 2] - 1.0) < 1e-12

    def test_inconsistent_near_rotation_raises(self):
        # orthogonal enough to pass input validation, but too degraded for
        # the composed matrix to fix the z-axis at the little-group tolerance
        rng = np.random.default_rng(12)
        R = random_rotation(rng) + 2e-10 * rng.normal(size=(3, 3))
        with pytest.raises(RuntimeError, match="fix the z-axis"):
            wigner_angle(R, random_direction(rng))


class TestSphericalToCartesian:
    def test_z_column_selects_middle_row(self):
        np.testing.assert_allclose(
            spherical_to_cartesian()[:, 2], [0.0, 1.0, 0.0], atol=1e-16
        )

    def test_unitary(self):
        u = spherical_to_cartesian()
        np.testing.assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-15)

    def test_conjugation_turns_d_matrix_into_rotation_matrix(self):
        rng = np.random.default_rng(9)
        u = spherical_to_cartesian()
        for _ in range(50):
            R = random_rotation(rng)
            back = u.conj().T @ wigner_D(1, R) @ u
            assert np.abs(back - R).max() < 1e-12
            assert np.abs(back.imag).max() < 1e-13


def test_require_rotation_matrix_accepts_valid_and_rejects_shape():
    require_rotation_matrix(rotation_z(0.3))
    with pytest.raises(ValueError, match="3x3"):
        require_rotation_matrix(np.eye(4))
