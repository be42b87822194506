import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photonloc.polarization
import photonloc.rotations
from photonloc.polarization import (
    field_strength,
    helicity_sum_matrix,
    longitudinal_projector,
    minkowski_dot,
    polarization_vectors,
    transverse_helicity_sum_closed_form,
    transverse_outer_product,
    validate_helicities,
    wave_four_vector,
)
from photonloc.rotations import J_MAX, standard_rotation, spherical_to_cartesian, wigner_D

RT2 = np.sqrt(2.0)
Z = np.array([0.0, 0.0, 1.0])
Z_HAT = np.array([[0.0, 0.0, 1.0]])
X_HAT = np.array([[1.0, 0.0, 0.0]])


def unit_vector(theta, phi):
    st = np.sin(theta)
    return np.array([st * np.cos(phi), st * np.sin(phi), np.cos(theta)])


def random_direction(rng):
    return unit_vector(np.arccos(rng.uniform(-1, 1)), rng.uniform(0, 2 * np.pi))


def random_khat(rng, m):
    return np.array([random_direction(rng) for _ in range(m)])


def reference_polarization(khat, lam: int) -> np.ndarray:
    """Independent frame: the standard rotation applied to the z-axis vector
    eps(z_hat, lam), whose conjugate is the spherical<->Cartesian row of lam."""
    return standard_rotation(khat) @ spherical_to_cartesian()[1 - lam].conj()


#: polar angles on and 1e-9 off both poles, or anywhere in [0, pi]
POLAR = st.one_of(st.sampled_from([0.0, 1e-9, np.pi - 1e-9, np.pi]), st.floats(0.0, np.pi))


@st.composite
def directions(draw):
    """Unit vectors on either pole (every sign of zero), 1e-9 or a subnormal 1e-310
    off it, or anywhere on the sphere."""
    phi = draw(st.floats(-np.pi, np.pi))
    where = draw(st.sampled_from(["north", "south", "anywhere"]))
    if where == "anywhere":
        return unit_vector(draw(st.floats(0.0, np.pi)), phi)
    tilt = draw(st.sampled_from([0.0, -0.0, 1e-9, 1e-310]))
    return np.array([tilt * np.cos(phi), tilt * np.sin(phi), 1.0 if where == "north" else -1.0])


@st.composite
def spins_and_helicity_sets(draw):
    j = draw(st.integers(0, J_MAX))
    return j, draw(st.lists(st.integers(-j, j), min_size=1, max_size=2 * j + 3))


class TestPolarizationVectors:
    def test_z_axis_conjugate_components(self):
        eps_star = polarization_vectors(Z_HAT)[0, :, 1:].conj()
        np.testing.assert_allclose(eps_star[2], [-1 / RT2, 1j / RT2, 0.0], atol=1e-15)
        np.testing.assert_allclose(eps_star[1], [0.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(eps_star[0], [1 / RT2, 1j / RT2, 0.0], atol=1e-15)

    def test_x_axis_zero_helicity_is_x_unit_vector(self):
        np.testing.assert_allclose(polarization_vectors(X_HAT)[0, 1, 1:], [1.0, 0.0, 0.0],
                                   atol=1e-15)

    def test_exact_south_pole_uses_the_canonical_frame(self):
        # khat = -z exactly has no azimuth: the frame is R_y(pi) of the z-axis one
        got = polarization_vectors([[0.0, 0.0, -1.0]])[0, :, 1:]
        for lam in (-1, 0, 1):
            expected = reference_polarization(-Z, lam)
            np.testing.assert_allclose(got[lam + 1], expected, rtol=0, atol=1e-15)

    @settings(max_examples=200)
    @given(angles=st.lists(st.tuples(POLAR, st.floats(0.0, 2 * np.pi)), min_size=1,
                           max_size=8))
    def test_match_the_standard_rotation_reference(self, angles):
        khat = np.array([unit_vector(theta, phi) for theta, phi in angles])
        got = polarization_vectors(khat)
        assert got.shape == (len(khat), 3, 4)
        assert not got[..., 0].any()
        for eps, direction in zip(got, khat):
            for lam in (-1, 0, 1):
                expected = reference_polarization(direction, lam)
                assert np.abs(eps[lam + 1, 1:] - expected).max() <= 1e-15

    @pytest.mark.parametrize("khat, message", [
        ([0.0, 0.0, 1.0], "shape"),
        ([[0.0, 0.0, 1.0, 0.0]], "shape"),
        ([[0.0, np.nan, 1.0]], "finite"),
        ([[0.0, 0.0, np.inf]], "finite"),
        ([[0.0, 0.0, 1.0 + 1e-9]], "unit"),
        ([[0.6, 0.0, 0.0]], "unit"),
    ])
    def test_invalid_directions_rejected(self, khat, message):
        with pytest.raises(ValueError, match=message):
            polarization_vectors(khat)

    def test_transversality_and_orthonormal_triad(self):
        khat = random_khat(np.random.default_rng(1), 30)
        spatial = polarization_vectors(khat)[..., 1:]
        assert np.abs(np.einsum("mi,mli->ml", khat, spatial[:, ::2])).max() < 1e-12
        gram = np.einsum("mai,mbi->mab", spatial, spatial.conj())
        assert np.abs(gram - np.eye(3)).max() < 1e-12

    def test_lorentz_condition_for_transverse_helicities(self):
        rng = np.random.default_rng(2)
        khat = random_khat(rng, 20)
        k = wave_four_vector(rng.uniform(0.1, 5.0, size=20), khat)
        eps = polarization_vectors(khat)[:, ::2]
        assert np.abs(minkowski_dot(k[:, None], eps)).max() < 1e-12


class TestWaveFourVector:
    def test_light_like_with_energy_first(self):
        rng = np.random.default_rng(3)
        khat = random_khat(rng, 10)
        omega = rng.uniform(0.1, 5.0, size=10)
        k = wave_four_vector(omega, khat)
        np.testing.assert_array_equal(k[:, 0], omega)
        np.testing.assert_allclose(k[:, 1:], omega[:, None] * khat, rtol=1e-15)
        assert np.abs(minkowski_dot(k, k)).max() < 1e-12
        np.testing.assert_array_equal(wave_four_vector(2.0, khat), wave_four_vector([2.0] * 10, khat))

    @pytest.mark.parametrize("omega", [0.0, -1.0, np.nan, np.inf])
    def test_energy_must_be_finite_and_positive(self, omega):
        with pytest.raises(ValueError, match="finite and positive"):
            wave_four_vector(omega, Z_HAT)
        with pytest.raises(ValueError, match="finite and positive"):
            wave_four_vector([1.0, omega], np.vstack([Z_HAT, X_HAT]))
        # one energy, or one per direction: a wrong count or shape is rejected first
        for energies, khat in (([1.0, omega], Z_HAT), ([1.0, 2.0, omega], np.vstack([Z_HAT, X_HAT])),
                               ([[1.0, omega]], np.vstack([Z_HAT, X_HAT]))):
            with pytest.raises(ValueError, match="one per direction"):
                wave_four_vector(energies, khat)

    def test_directions_validated(self):
        with pytest.raises(ValueError, match="unit"):
            wave_four_vector(1.0, 2.0 * Z_HAT)


class TestGaugeShift:
    def test_longitudinal_shift_example(self):
        shifted = polarization_vectors(Z_HAT)[0, 1] + 1.0 * wave_four_vector(1.0, Z_HAT)[0]
        np.testing.assert_allclose(shifted, [1.0, 0.0, 0.0, 2.0], atol=1e-15)

    def test_preserves_lorentz_condition(self):
        rng = np.random.default_rng(3)
        khat = random_khat(rng, 20)
        k = wave_four_vector(rng.uniform(0.1, 4.0, size=20), khat)
        g = rng.normal(size=20) + 1j * rng.normal(size=20)
        shifted = polarization_vectors(khat)[:, 0] + g[:, None] * k
        assert np.abs(minkowski_dot(k, shifted)).max() < 1e-12


class TestFieldStrength:
    def test_pure_gauge_polarization_gives_zero(self):
        k = wave_four_vector(1.3, X_HAT)
        np.testing.assert_allclose(field_strength(k, (0.4 - 2j) * k), np.zeros((1, 4, 4)),
                                   atol=1e-15)

    def test_radiation_gauge_structure_along_z(self):
        f = field_strength(wave_four_vector(1.0, Z_HAT), polarization_vectors(Z_HAT)[:, 2])[0]
        nonzero = np.abs(f) > 1e-14
        expected = np.zeros((4, 4), dtype=bool)
        for time_or_z in (0, 3):
            for tr in (1, 2):
                expected[time_or_z, tr] = expected[tr, time_or_z] = True
        assert (nonzero == expected).all()

    def test_antisymmetric(self):
        khat = random_khat(np.random.default_rng(4), 5)
        f = field_strength(wave_four_vector(0.7, khat), polarization_vectors(khat)[:, 0])
        np.testing.assert_allclose(f, -np.swapaxes(f, -1, -2), atol=1e-15)

    def test_invariant_under_gauge_shift(self):
        rng = np.random.default_rng(5)
        khat = random_khat(rng, 20)
        k = wave_four_vector(rng.uniform(0.2, 3.0, size=20), khat)
        g = rng.normal(size=20) + 1j * rng.normal(size=20)
        eps = polarization_vectors(khat)[:, 2]
        f0 = field_strength(k, eps)
        f1 = field_strength(k, eps + g[:, None] * k)
        assert np.abs(f1 - f0).max() < 1e-12


class TestHelicitySum:
    def test_full_set_gives_identity(self):
        rng = np.random.default_rng(6)
        for j in (1, 2):
            d = random_direction(rng)
            full = range(-j, j + 1)
            np.testing.assert_allclose(
                helicity_sum_matrix(d, full, j=j), np.eye(2 * j + 1), atol=1e-13
            )

    def test_transverse_set_at_equator(self):
        got = helicity_sum_matrix([1.0, 0.0, 0.0], (-1, 1))
        expected = np.array([[0.5, 0, 0.5], [0, 1, 0], [0.5, 0, 0.5]])
        np.testing.assert_allclose(got, expected, atol=1e-13)

    def test_transverse_set_at_pole(self):
        got = helicity_sum_matrix(Z, (-1, 1))
        np.testing.assert_allclose(got, np.diag([1.0, 0.0, 1.0]), atol=1e-14)

    def test_matches_closed_form_on_angle_grid(self):
        worst = 0.0
        for theta in np.linspace(0.0, np.pi, 20):
            for phi in np.linspace(0.0, 2 * np.pi, 20, endpoint=False):
                d = unit_vector(theta, phi)
                diff = np.abs(
                    helicity_sum_matrix(d, (-1, 1))
                    - transverse_helicity_sum_closed_form(d)
                ).max()
                worst = max(worst, diff)
        assert worst < 1e-12

    def test_spin2_subset_is_hermitian_with_trace_of_set_size(self):
        rng = np.random.default_rng(7)
        d = random_direction(rng)
        m = helicity_sum_matrix(d, (-2, 0, 2), j=2)
        np.testing.assert_allclose(m, m.conj().T, atol=1e-13)
        assert abs(np.trace(m).real - 3.0) < 1e-12

    def test_out_of_range_helicity_rejected(self):
        with pytest.raises(ValueError, match="range"):
            helicity_sum_matrix(Z, (-2, 2), j=1)
        with pytest.raises(ValueError, match="non-empty"):
            helicity_sum_matrix(Z, (), j=1)
        with pytest.raises(ValueError, match="unit"):
            helicity_sum_matrix([0.0, 0.0, 0.5], (-1, 1))

    @settings(max_examples=300)
    @given(khat=directions(), spin_and_set=spins_and_helicity_sets())
    def test_is_the_d_matrix_conjugated_indicator(self, khat, spin_and_set):
        # D P D^H with D the spin-j D-matrix of the standard rotation, P the indicator
        j, helicities = spin_and_set
        P = np.diag([1.0 if m in helicities else 0.0 for m in range(j, -j - 1, -1)])
        D = wigner_D(j, standard_rotation(khat))
        got = helicity_sum_matrix(khat, helicities, j)
        assert np.abs(got - D @ P @ D.conj().T).max() <= 1e-14

    def test_reaches_no_d_matrix_or_standard_rotation(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("reached a D-matrix or the standard rotation")

        for module in (photonloc.rotations, photonloc.polarization):
            for name in ("wigner_D", "standard_rotation"):
                monkeypatch.setattr(module, name, forbidden, raising=False)
        rng = np.random.default_rng(12)
        for khat in [Z, -Z] + [random_direction(rng) for _ in range(5)]:
            helicity_sum_matrix(khat, (-2, 1), j=3)
            longitudinal_projector(khat)
            transverse_helicity_sum_closed_form(khat)


class TestLongitudinalProjector:
    def test_rank_one_projector_properties(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            m = longitudinal_projector(random_direction(rng))
            np.testing.assert_allclose(m @ m, m, atol=1e-12)
            np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
            assert abs(np.trace(m).real - 1.0) < 1e-12

    def test_angular_average_is_one_third_of_identity(self):
        # quadrature over the sphere: Gauss-Legendre in cos(theta), uniform azimuth
        mu, w = np.polynomial.legendre.leggauss(32)
        phis = np.arange(32) * 2 * np.pi / 32
        total = np.zeros((3, 3), dtype=complex)
        for m_node, weight in zip(mu, w):
            for phi in phis:
                total += weight * longitudinal_projector(unit_vector(np.arccos(m_node), phi))
        total *= (2 * np.pi / 32) / (4 * np.pi)
        np.testing.assert_allclose(total, np.eye(3) / 3.0, atol=1e-10)

    def test_closed_form_consistent_with_d_matrix_product(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            d = random_direction(rng)
            D = wigner_D(1, standard_rotation(d))
            product = np.outer(D[:, 1], D[:, 1].conj())
            assert np.abs(longitudinal_projector(d) - product).max() < 1e-13


class TestInverseFrameCoefficients:
    def test_match_rotated_z_axis_values(self):
        # contracting the inverse-frame D-matrix with the basis unitary must
        # reproduce the rotated conjugate polarization vectors
        rng = np.random.default_rng(10)
        u = spherical_to_cartesian()
        for _ in range(20):
            d = random_direction(rng)
            r0 = standard_rotation(d)
            inverse = wigner_D(1, r0).conj().T
            eps_star = polarization_vectors([d])[0, :, 1:].conj()
            for row, lam in enumerate((1, 0, -1)):
                lhs = inverse[row] @ u
                rhs = r0 @ u[row]
                assert np.abs(lhs - rhs).max() < 1e-12
                assert np.abs(lhs - eps_star[lam + 1]).max() < 1e-12


class TestTransverseOuterProduct:
    def test_z_axis_values(self):
        np.testing.assert_allclose(transverse_outer_product(Z_HAT), [np.diag([1.0, 1.0, 0.0])],
                                   atol=1e-15)

    def test_matches_transverse_projector_everywhere(self):
        khat = random_khat(np.random.default_rng(11), 30)
        expected = np.eye(3) - khat[:, :, None] * khat[:, None, :]
        assert np.abs(transverse_outer_product(khat) - expected).max() < 1e-13


def test_validate_helicities_normalizes_and_rejects():
    assert validate_helicities([1, -1, 1], 1) == (-1, 1)
    for bad in (0.5, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="integers"):
            validate_helicities([bad], 1)
