from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonloc.overlap import qm_overlap
from photonloc.rotations import (
    _SPH_TO_CART,
    rotation_from_axis_angle,
    standard_rotation,
    wigner_angle,
    wigner_D,
)
from photonloc.states import (
    CARTESIAN3,
    CARTESIAN_PHOTON,
    FAMILY_KINDS,
    RADIATION_GAUGE,
    SCALAR,
    SPHERICAL3,
    SPHERICAL_PHOTON,
    StateFamily,
    _label_rows,
    _unit_rows,
    _wigner_rows,
    _NAMED,
    make_localized_state,
    momentum_amplitude,
    rotate_state,
    translate_state,
)

ORIGIN = np.zeros(4)


def random_rotation(rng):
    return rotation_from_axis_angle(rng.normal(size=3), rng.uniform(-np.pi, np.pi))


def coefficient_test_momenta(seed):
    """Random momenta, then the poles with every sign of zero, 1e-12 tilts off both
    poles and the -x axis on both sides of the azimuthal branch cut."""
    poles = [[x, y, z] for z in (1.3, -0.7) for x in (0.0, -0.0) for y in (0.0, -0.0)]
    tilts = [[1e-12 * np.cos(p), 1e-12 * np.sin(p), z] for z in (1.0, -1.0)
             for p in (0.4, 2.9, -1.7)]
    branch_cut = [[-0.9, 0.0, 0.0], [-0.9, -0.0, 0.0]]
    rng = np.random.default_rng(seed)
    return [*rng.normal(size=(10, 3)), *np.array(poles + tilts + branch_cut)]


class TestStateFamily:
    def test_canonical_weights_and_helicities(self):
        assert StateFamily.of(SCALAR).weight_exponent == 0.5
        assert StateFamily.of(SCALAR).helicities == (0,)
        assert StateFamily.of(SPHERICAL3).helicities == (-1, 0, 1)
        assert StateFamily.of(SPHERICAL_PHOTON).helicities == (-1, 1)
        assert StateFamily.of(CARTESIAN_PHOTON).weight_exponent == 0.5
        assert StateFamily.of(RADIATION_GAUGE).weight_exponent == 1.0
        assert StateFamily.of(RADIATION_GAUGE).helicities == (-1, 1)
        # spin and radial power s = 1 - 2p are read off the labels and the weight
        spins_and_powers = {SCALAR: (0, 0.0), SPHERICAL3: (1, 0.0), CARTESIAN3: (1, 0.0),
                            SPHERICAL_PHOTON: (1, 0.0), CARTESIAN_PHOTON: (1, 0.0),
                            RADIATION_GAUGE: (1, -1.0)}
        for kind, (spin, power) in spins_and_powers.items():
            family = StateFamily.of(kind)
            assert (family.spin, family.radial_power) == (spin, power)
            assert len(family.labels) == 2 * family.spin + 1

    def test_all_kinds_constructible(self):
        for kind in FAMILY_KINDS:
            family = StateFamily.of(kind)
            assert family.kind == kind
            assert family.frequency_sign == "positive"
            assert StateFamily(*_NAMED[kind]) == family
            assert (family.spin, family.helicities, family.label_basis,
                    family.weight_exponent) == _NAMED[kind]

    def test_inconsistent_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            StateFamily.of("tensor")
        with pytest.raises(ValueError, match="frequency_sign"):
            StateFamily.of(SCALAR, "backwards")
        for spin in (-1, 0.5, 11):
            with pytest.raises(ValueError, match="non-negative integer at most 10"):
                StateFamily(spin, (0,))
        with pytest.raises(ValueError, match="outside the spin-2 range"):
            StateFamily(2, (-3, 1))
        with pytest.raises(ValueError, match="non-empty"):
            StateFamily(2, ())
        for spin, basis in ((1, "scalar"), (1, "helical"), (0, "cartesian"), (2, "cartesian")):
            with pytest.raises(ValueError, match="label basis"):
                StateFamily(spin, (0,), basis)
        for weight in (0.0, 0.75, 2.0, np.nan):
            with pytest.raises(ValueError, match="weight exponent"):
                StateFamily(1, (-1, 1), "spherical", weight)

    def test_label_sets(self):
        assert StateFamily.of(SPHERICAL3).labels == (1, 0, -1)
        assert StateFamily.of(CARTESIAN3).labels == ("x", "y", "z")
        assert StateFamily.of(SCALAR).labels == (0,)


class TestMakeLocalizedState:
    def test_unit_coefficient_at_label(self):
        state = make_localized_state(StateFamily.of(SPHERICAL3), ORIGIN, -1, 1.0)
        np.testing.assert_allclose(state.coefficients, [0.0, 0.0, 1.0])

    def test_label_family_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            make_localized_state(StateFamily.of(SPHERICAL3), ORIGIN, "x", 1.0)
        for label in (1.5, 0):  # axis positions are not labels
            with pytest.raises(ValueError, match="labels"):
                make_localized_state(StateFamily.of(CARTESIAN3), ORIGIN, label, 1.0)
        for label in (3, None):
            with pytest.raises(ValueError, match="label"):
                make_localized_state(StateFamily.of(SCALAR), ORIGIN, label, 1.0)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            make_localized_state(StateFamily.of(SCALAR), ORIGIN, 0, 0.0)
        with pytest.raises(ValueError, match="positive"):
            make_localized_state(StateFamily.of(SCALAR), ORIGIN, 0, -1.0)

    def test_non_finite_width_rejected(self):
        for a in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                make_localized_state(StateFamily.of(SCALAR), ORIGIN, 0, a)

    def test_bad_anchor_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            make_localized_state(StateFamily.of(SCALAR), np.zeros(3), 0, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_anchor_rejected(self, bad):
        x = ORIGIN.copy()
        x[2] = bad
        with pytest.raises(ValueError, match="anchor x must be finite"):
            make_localized_state(StateFamily.of(SPHERICAL_PHOTON), x, 1, 1.0)


class TestMomentumAmplitude:
    def test_scalar_state_at_origin_is_real_positive(self):
        state = make_localized_state(StateFamily.of(SCALAR), ORIGIN, 0, 0.7)
        rng = np.random.default_rng(0)
        k = rng.normal(size=(40, 3))
        amp = momentum_amplitude(state, k, 0)
        assert np.abs(amp.imag).max() < 1e-18
        assert (amp.real > 0).all()

    def test_scalar_amplitude_closed_form(self):
        a = 0.9
        state = make_localized_state(StateFamily.of(SCALAR), ORIGIN, 0, a)
        k = np.array([0.3, -0.4, 1.2])
        omega = np.linalg.norm(k)
        expected = (2 * np.pi) ** -1.5 * omega**-0.5 * np.exp(-0.5 * a * a * omega**2)
        assert abs(momentum_amplitude(state, k, 0) - expected) < 1e-16

    def test_spherical_family_coefficients_are_identity_along_z(self):
        # at k parallel to z the inverse frame rotation is trivial
        a = 1.0
        k = np.array([0.0, 0.0, 1.7])
        omega = 1.7
        for sigma in (1, 0, -1):
            state = make_localized_state(StateFamily.of(SPHERICAL3), ORIGIN, sigma, a)
            for lam in (-1, 0, 1):
                amp = momentum_amplitude(state, k, lam)
                expected = 0.0
                if lam == sigma:
                    expected = (
                        (2 * np.pi) ** -1.5 * omega**-0.5 * np.exp(-0.5 * omega**2)
                    )
                assert abs(amp - expected) < 1e-16

    def test_photon_families_have_no_zero_helicity_support(self):
        k = np.random.default_rng(1).normal(size=(10, 3))
        for kind in (SPHERICAL_PHOTON, CARTESIAN_PHOTON, RADIATION_GAUGE):
            label = 0 if kind == SPHERICAL_PHOTON else "x"
            state = make_localized_state(StateFamily.of(kind), ORIGIN, label, 1.0)
            assert np.abs(momentum_amplitude(state, k, 0)).max() == 0.0

    def test_radiation_gauge_weight_is_inverse_energy(self):
        k = np.array([0.0, 0.0, 2.0])
        photon = make_localized_state(StateFamily.of(CARTESIAN_PHOTON), ORIGIN, "x", 1.0)
        potential = make_localized_state(StateFamily.of(RADIATION_GAUGE), ORIGIN, "x", 1.0)
        ratio = momentum_amplitude(potential, k, 1) / momentum_amplitude(photon, k, 1)
        assert abs(ratio - 2.0**-0.5) < 1e-14

    def test_spherical_coefficients_match_inverse_frame_matrix(self):
        # the amplitude coefficient must be the conjugated D-matrix element of
        # the standard rotation for the momentum direction
        from photonloc.rotations import standard_rotation

        a = 1.0
        for k in coefficient_test_momenta(9):
            omega = np.linalg.norm(k)
            D = wigner_D(1, standard_rotation(k / np.linalg.norm(k)))
            prefactor = (2 * np.pi) ** -1.5 * omega**-0.5 * np.exp(-0.5 * omega**2)
            for row, sigma in enumerate((1, 0, -1)):
                state = make_localized_state(StateFamily.of(SPHERICAL3), ORIGIN, sigma, a)
                for lam in (-1, 0, 1):
                    expected = prefactor * np.conj(D[row, 1 - lam])
                    assert abs(momentum_amplitude(state, k, lam) - expected) < 1e-14

    def test_cartesian_coefficients_match_polarization_vectors(self):
        # the independent frame: the standard rotation of the z-axis conjugate
        # polarization vectors eps*(z_hat, lam), the spherical<->Cartesian rows
        from photonloc.rotations import spherical_to_cartesian, standard_rotation

        a = 1.0
        for k in coefficient_test_momenta(10):
            omega = np.linalg.norm(k)
            r0 = standard_rotation(k / np.linalg.norm(k))
            prefactor = (2 * np.pi) ** -1.5 * omega**-0.5 * np.exp(-0.5 * omega**2)
            for axis_pos, axis in enumerate(("x", "y", "z")):
                state = make_localized_state(StateFamily.of(CARTESIAN3), ORIGIN, axis, a)
                for lam in (-1, 0, 1):
                    eps_star = (r0 @ spherical_to_cartesian()[1 - lam])[axis_pos]
                    expected = prefactor * eps_star
                    assert abs(momentum_amplitude(state, k, lam) - expected) < 1e-14

    @pytest.mark.parametrize("transverse", [[1e-310, 0.0], [3e-320, -4e-320]])
    @pytest.mark.parametrize("z", [1.0, -1.0])
    def test_subnormal_tilt_off_a_pole_keeps_its_azimuth(self, transverse, z):
        # a complex division by the subnormal |k_perp| would scale by its overflowing
        # reciprocal and return NaN; the label rows depend on khat only through the
        # azimuth here, so they equal those of the 1e-12 tilt with the same azimuth
        tilt = np.array(transverse) / np.hypot(*transverse) * 1e-12
        for axis in ("x", "y"):
            state = make_localized_state(StateFamily.of(CARTESIAN3), ORIGIN, axis, 1.0)
            for lam in (-1, 0, 1):
                got = momentum_amplitude(state, np.array([*transverse, z]), lam)
                near = momentum_amplitude(state, np.array([*tilt, z]), lam)
                assert abs(got - near) < 1e-13

    @pytest.mark.parametrize("frequency, sign", [("positive", 1.0), ("negative", -1.0)])
    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_anchored_amplitude_is_the_anchor_phase_times_the_origin_amplitude(
        self, kind, frequency, sign
    ):
        family = StateFamily.of(kind, frequency)
        k = np.array(coefficient_test_momenta(12))
        omega = np.linalg.norm(k, axis=-1)
        for x in ([2.5, 6.0, -7.0, 3.5], [-4.0, -0.3, 9.2, -3.1]):  # t != 0, |x_vec| ~ 10
            x = np.array(x)
            phase = np.exp(sign * 1j * (omega * x[0] - k @ x[1:]))
            for label in family.labels:
                at_x = make_localized_state(family, x, label, 0.8)
                at_origin = make_localized_state(family, ORIGIN, label, 0.8)
                for lam in family.helicities:
                    expected = phase * momentum_amplitude(at_origin, k, lam)
                    got = momentum_amplitude(at_x, k, lam)
                    assert np.all(np.abs(got - expected) <= 1e-14 * np.abs(expected))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_momentum_rejected(self, bad):
        state = make_localized_state(StateFamily.of(SPHERICAL3), ORIGIN, 1, 1.0)
        k = np.ones((4, 3))
        k[2, 0] = bad
        for momenta in (k, k[2]):
            with pytest.raises(ValueError, match="momenta must be finite"):
                momentum_amplitude(state, momenta, 1)

    def test_huge_momentum_gives_exact_zero_without_warning(self):
        # |k|^2 and, at the large anchor, k u leave the double range; 60/a only
        # underflows the envelope
        big = np.array([1e200, -3e200, 2e200, 5e199])
        momenta = ([1e200, 0.0, 0.0], [[-1e200, 1e200, 3e199], [0.0, 0.0, 60.0]])
        for kind in FAMILY_KINDS:
            family = StateFamily.of(kind)
            for x in (ORIGIN, big):
                state = make_localized_state(family, x, family.labels[-1], 1.0)
                for k in momenta:
                    for lam in family.helicities:
                        assert np.all(momentum_amplitude(state, k, lam) == 0.0)

    def test_overflowing_anchor_phase_rejected(self):
        # at |k| = 10, a = 0.1 the envelope is e^-0.5, but |k| u = 1e309 overflows
        x = np.array([0.0, -1e308, 0.0, 0.0])
        for kind in FAMILY_KINDS:
            family = StateFamily.of(kind)
            state = make_localized_state(family, x, family.labels[-1], 0.1)
            for k in ([10.0, 0.0, 0.0], [[0.0, 0.0, 10.0], [10.0, 0.0, 0.0]]):
                with pytest.raises(ValueError, match="anchor times the momentum"):
                    momentum_amplitude(state, k, family.helicities[0])

    def test_tiny_momentum_matches_closed_form(self):
        # |k| = 1e-200 squares to 0. Along x with x_vec = (-3e199, 0, 0) the phase is
        # k u = 0.3; the rows are conj(D^1_{sigma lam}) at theta = pi/2, phi = 0, and
        # eps*(x_hat, +-1)_y = i / sqrt(2) for the Cartesian y label
        k, x = 1e-200, np.array([0.0, -3e199, 0.0, 0.0])
        phase = (2 * np.pi) ** -1.5 * np.exp(0.3j)
        cases = (
            (SCALAR, 0, 0.5, {0: 1.0}),
            (SPHERICAL3, 0, 0.5, {1: 2**-0.5, 0: 0.0, -1: -(2**-0.5)}),
            (RADIATION_GAUGE, "y", 1.0, {1: 1j * 2**-0.5, -1: 1j * 2**-0.5}),
        )
        for kind, label, p, rows in cases:
            state = make_localized_state(StateFamily.of(kind), x, label, 0.7)
            for lam, row in rows.items():
                got = momentum_amplitude(state, [k, 0.0, 0.0], lam)
                assert abs(got - phase * k**-p * row) <= 1e-15 * k**-p

    def test_zero_momentum_rejected(self):
        state = make_localized_state(StateFamily.of(SCALAR), ORIGIN, 0, 1.0)
        with pytest.raises(ValueError, match="undefined"):
            momentum_amplitude(state, np.zeros(3), 0)


class TestRotateState:
    def test_identity_rotation_leaves_state_unchanged(self):
        state = make_localized_state(
            StateFamily.of(SPHERICAL_PHOTON), np.array([0.0, 1.0, 2.0, 3.0]), 1, 1.0
        )
        rotated = rotate_state(state, np.eye(3))
        np.testing.assert_allclose(rotated.coefficients, state.coefficients, atol=1e-15)
        np.testing.assert_allclose(rotated.x, state.x, atol=1e-15)

    def test_spherical_mixing_uses_spin1_representation(self):
        rng = np.random.default_rng(2)
        R = random_rotation(rng)
        state = make_localized_state(StateFamily.of(SPHERICAL3), ORIGIN, 0, 1.0)
        rotated = rotate_state(state, R)
        np.testing.assert_allclose(rotated.coefficients, wigner_D(1, R)[:, 1], atol=1e-14)

    def test_cartesian_mixing_uses_rotation_matrix(self):
        rng = np.random.default_rng(3)
        R = random_rotation(rng)
        state = make_localized_state(StateFamily.of(CARTESIAN_PHOTON), ORIGIN, "y", 1.0)
        rotated = rotate_state(state, R)
        np.testing.assert_allclose(rotated.coefficients, R[:, 1].astype(complex), atol=1e-14)

    def test_rotation_preserves_regulator_and_time(self):
        rng = np.random.default_rng(4)
        state = make_localized_state(
            StateFamily.of(CARTESIAN3), np.array([1.5, 0.2, -0.3, 0.7]), "z", 0.8
        )
        rotated = rotate_state(state, random_rotation(rng))
        assert rotated.regulator_width == state.regulator_width
        assert rotated.x[0] == state.x[0]

    def test_overflowing_rotated_anchor_rejected(self):
        x = np.array([0.0, 1.5e308, 1.5e308, 0.0])
        state = make_localized_state(StateFamily.of(SCALAR), x, 0, 1.0)
        R = rotation_from_axis_angle([0.0, 0.0, 1.0], np.pi / 4)
        with pytest.raises(ValueError, match="rotated anchor R x must be finite"):
            rotate_state(state, R)

    def test_amplitude_covariance_under_rotations(self):
        # amplitudes at the rotated momentum equal the original amplitudes
        # times the helicity phase of the little-group angle
        rng = np.random.default_rng(5)
        for kind, label in ((SPHERICAL_PHOTON, 0), (CARTESIAN_PHOTON, "y"), (SPHERICAL3, -1)):
            state = make_localized_state(
                StateFamily.of(kind), np.array([0.3, 0.1, -0.2, 0.4]), label, 1.0
            )
            worst, scale = 0.0, 0.0
            for _ in range(50):
                R = random_rotation(rng)
                k = rng.normal(size=3) * rng.uniform(0.3, 2.0)
                lam = int(rng.choice(sorted(state.family.helicities)))
                w = wigner_angle(R, k / np.linalg.norm(k))
                lhs = momentum_amplitude(rotate_state(state, R), R @ k, lam)
                rhs = np.exp(-1j * lam * w) * momentum_amplitude(state, k, lam)
                worst = max(worst, abs(lhs - rhs))
                scale = max(scale, abs(rhs))
            assert worst / scale < 1e-10

    def test_non_rotation_rejected(self):
        state = make_localized_state(StateFamily.of(SCALAR), ORIGIN, 0, 1.0)
        with pytest.raises(ValueError, match="orthogonal"):
            rotate_state(state, 2.0 * np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rotation_rejected(self, bad):
        state = make_localized_state(StateFamily.of(SPHERICAL_PHOTON), ORIGIN, 0, 1.0)
        R = np.eye(3)
        R[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            rotate_state(state, R)



class TestSpinJStates:
    @staticmethod
    def directions():
        """Random unit vectors, both poles, a 1e-9 tilt off -z and subnormal transverse
        components next to both poles."""
        rng = np.random.default_rng(71)
        random = rng.normal(size=(6, 3))
        tilt = [1e-9, 0.0, -np.sqrt(1.0 - 1e-18)]
        special = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], tilt, [0.0, -0.0, -1.0],
                   [3e-320, -4e-320, 1.0], [1e-310, 0.0, -1.0]]
        return np.concatenate((random / np.linalg.norm(random, axis=1)[:, None], special))

    def test_label_rows_are_the_conjugated_d_matrix_columns(self):
        khat = self.directions()
        for j in range(2, 11):
            family = StateFamily(j, tuple(range(-j, j + 1)))
            expected = np.stack([wigner_D(j, standard_rotation(v)).conj() for v in khat])
            units = _wigner_rows(family, khat)  # the rows of every unit label
            for i in range(2 * j + 1):
                unit = np.zeros(2 * j + 1, dtype=complex)
                unit[i] = 1.0
                rows = _label_rows(family, unit, khat)  # columns lam = -j..j
                assert np.abs(rows - expected[:, i, ::-1]).max() <= 1e-13
                assert np.abs(units[i] - expected[:, i, ::-1]).max() <= 1e-13

    @settings(max_examples=120)
    @given(data=st.data())
    def test_unit_rows_give_every_states_row_at_one_direction(self, data):
        # the oracle overlap reads both states' aligned coefficients off one X: c @ X, the
        # spherical components of c for Cartesian labels, is the state's own row over the
        # complete helicity set, reversed to sigma order
        j = data.draw(st.integers(0, 10), label="j")
        cartesian = j == 1 and data.draw(st.booleans(), label="cartesian")
        family = StateFamily(j, tuple(range(-j, j + 1)), "cartesian" if cartesian else "spherical")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        special = [[0.0, 0.0, 1.0], [0.0, -0.0, -1.0], [1e-9, 0.0, -np.sqrt(1.0 - 1e-18)],
                   [3e-320, -4e-320, 1.0], [-1.0, -0.0, 0.0]]
        choice = data.draw(st.integers(-1, len(special) - 1), label="direction")
        rhat = rng.normal(size=3) if choice < 0 else np.array(special[choice])
        rhat = rhat / np.linalg.norm(rhat)
        state = make_localized_state(family, ORIGIN, family.labels[rng.integers(2 * j + 1)], 1.0)
        state = rotate_state(state, random_rotation(rng))
        if data.draw(st.booleans(), label="mixed"):
            mixed = rng.normal(size=2 * j + 1) + 1j * rng.normal(size=2 * j + 1)
            state = replace(state, coefficients=mixed / np.linalg.norm(mixed))
        c = state.coefficients
        spherical = _SPH_TO_CART @ c if cartesian else c
        expected = _label_rows(family, c, rhat[None])[0, ::-1]
        assert np.abs(spherical @ _unit_rows(j, rhat) - expected).max() <= 1e-15

    @pytest.mark.parametrize("basis", ["spherical", "cartesian"])
    def test_unit_rows_give_every_spin_1_row_in_both_label_bases(self, basis):
        # the spin-1 closed form of _unit_rows off the poles, on a tilt off -z and on the
        # -x axis at -0 azimuth, for every unit label and a mixed state
        family = StateFamily(1, (-1, 0, 1), basis)
        directions = [[0.3, -0.5, 0.8], [-0.6, 0.2, -0.7], [0.1, 0.9, 0.05], [-0.4, -0.3, 0.0],
                      [1e-9, 0.0, -np.sqrt(1.0 - 1e-18)], [-1.0, -0.0, 0.0]]
        coefficients = [*np.eye(3, dtype=complex), np.array([0.6, -0.3 + 0.5j, 0.2j])]
        for rhat in directions:
            rhat = np.array(rhat) / np.linalg.norm(rhat)
            X = _unit_rows(1, rhat)
            for c in coefficients:
                spherical = _SPH_TO_CART @ c if basis == "cartesian" else c
                expected = _label_rows(family, c, rhat[None])[0, ::-1]
                assert np.abs(spherical @ X - expected).max() <= 1e-15

    def test_overlap_is_rotation_invariant_at_every_spin(self):
        rng = np.random.default_rng(73)
        for j in range(2, 11):
            helicities = tuple(lam for lam in range(-j, j + 1) if rng.uniform() < 0.5) or (j,)
            family = StateFamily(j, helicities)
            x1, x2 = np.r_[0.0, rng.normal(size=3)], np.r_[0.0, rng.normal(size=3)]
            s1 = make_localized_state(family, x1, family.labels[rng.integers(2 * j + 1)], 0.7)
            s2 = make_localized_state(family, x2, family.labels[rng.integers(2 * j + 1)], 0.7)
            R = random_rotation(rng)
            s1, s2 = rotate_state(s1, random_rotation(rng)), rotate_state(s2, R)
            K = qm_overlap(s1, s2)
            rotated = qm_overlap(rotate_state(s1, R), rotate_state(s2, R))
            r = np.linalg.norm(x1 - x2)
            assert abs(rotated - K) <= 1e-12 * max(abs(K), 1.0 / (4.0 * np.pi * max(r, 0.7) ** 3))


class TestTranslateState:
    def test_zero_translation_is_identity(self):
        state = make_localized_state(StateFamily.of(SCALAR), ORIGIN, 0, 1.0)
        np.testing.assert_allclose(translate_state(state, np.zeros(4)).x, state.x)

    def test_positive_frequency_reanchors_forward(self):
        base = np.array([0.1, 0.2, -0.3, 0.4])
        shift = np.array([0.6, -0.4, 0.25, 0.8])
        state = make_localized_state(StateFamily.of(SPHERICAL_PHOTON), base, 0, 1.0)
        rebuilt = make_localized_state(StateFamily.of(SPHERICAL_PHOTON), base + shift, 0, 1.0)
        moved = translate_state(state, shift)
        np.testing.assert_allclose(moved.x, rebuilt.x, atol=1e-15)
        k = np.random.default_rng(6).normal(size=(50, 3))
        for lam in (-1, 1):
            np.testing.assert_allclose(
                momentum_amplitude(moved, k, lam),
                momentum_amplitude(rebuilt, k, lam),
                atol=1e-16,
            )

    def test_translated_amplitude_equals_phase_times_original(self):
        base = np.array([0.1, 0.2, -0.3, 0.4])
        shift = np.array([0.6, -0.4, 0.25, 0.8])
        state = make_localized_state(StateFamily.of(SCALAR), base, 0, 1.0)
        moved = translate_state(state, shift)
        k = np.random.default_rng(7).normal(size=(100, 3))
        omega = np.linalg.norm(k, axis=-1)
        phase = np.exp(1j * (omega * shift[0] - k @ shift[1:]))
        got = momentum_amplitude(moved, k, 0)
        expected = phase * momentum_amplitude(state, k, 0)
        assert np.abs(got - expected).max() < 1e-15

    def test_negative_frequency_reanchors_backward(self):
        base = np.array([0.1, 0.2, -0.3, 0.4])
        shift = np.array([0.6, -0.4, 0.25, 0.8])
        family = StateFamily.of(SCALAR, "negative")
        moved = translate_state(make_localized_state(family, base, 0, 1.0), shift)
        rebuilt = make_localized_state(family, base - shift, 0, 1.0)
        np.testing.assert_allclose(moved.x, rebuilt.x, atol=1e-15)

    def test_two_translations_compose(self):
        state = make_localized_state(StateFamily.of(SPHERICAL3), ORIGIN, 1, 1.0)
        a = np.array([0.6, -0.4, 0.25, 0.8])
        b = np.array([-0.2, 0.35, 0.5, -0.15])
        k = np.random.default_rng(8).normal(size=(50, 3))
        twice = translate_state(translate_state(state, a), b)
        once = translate_state(state, a + b)
        for lam in (-1, 0, 1):
            diff = np.abs(
                momentum_amplitude(twice, k, lam) - momentum_amplitude(once, k, lam)
            ).max()
            assert diff < 1e-14

    def test_bad_shift_shape_rejected(self):
        state = make_localized_state(StateFamily.of(SCALAR), ORIGIN, 0, 1.0)
        with pytest.raises(ValueError, match="four-vector"):
            translate_state(state, np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_translation_rejected(self, bad):
        state = make_localized_state(StateFamily.of(SCALAR), ORIGIN, 0, 1.0)
        shift = np.zeros(4)
        shift[0] = bad
        with pytest.raises(ValueError, match=r"translated anchor x \+ a must be finite"):
            translate_state(state, shift)

    @pytest.mark.parametrize("frequency, sign", [("positive", "+"), ("negative", "-")])
    def test_overflowing_translation_rejected(self, frequency, sign):
        x = np.array([0.0, 1e308, 0.0, 0.0])
        state = make_localized_state(StateFamily.of(SCALAR, frequency), x, 0, 1.0)
        shift = (1.0 if frequency == "positive" else -1.0) * x
        with pytest.raises(ValueError, match=rf"translated anchor x \{sign} a must be finite"):
            translate_state(state, shift)
