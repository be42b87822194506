import time
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from photonloc.overlap import (
    KernelMatrix,
    QuadratureSpec,
    _oracle_label_coefficients,
    alt_overlap,
    brute_force_kernel_matrix,
    brute_force_overlap,
    gaussian_delta,
    general_j_defect,
    overlap_kernel_matrix,
    qm_overlap,
    transverse_kernel,
)
from photonloc.rotations import (
    Direction,
    rotation_from_axis_angle,
    spherical_to_cartesian,
    standard_rotation,
    wigner_D,
)
from photonloc.states import (
    CARTESIAN3,
    CARTESIAN_PHOTON,
    RADIATION_GAUGE,
    SCALAR,
    SPHERICAL3,
    SPHERICAL_PHOTON,
    LocalizedState,
    StateFamily,
    make_localized_state,
    rotate_state,
)

# modest node counts keep the brute-force comparisons quick; the oracle
# runs at four times these
Q = QuadratureSpec(n_theta=12, n_phi=12, n_radial=32)

RHAT = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)


def state_at(kind, position, label, a=1.0, t=0.0):
    x = np.concatenate(([t], position))
    return make_localized_state(StateFamily.of(kind), x, label, a)


class TestQuadratureSpec:
    def test_defaults_are_valid(self):
        q = QuadratureSpec()
        assert (q.n_theta, q.n_phi, q.n_radial) == (32, 32, 64)
        assert [f.name for f in fields(QuadratureSpec)] == ["n_theta", "n_phi", "n_radial"]

    def test_node_counts_validated(self):
        for name in ("n_theta", "n_phi", "n_radial"):
            with pytest.raises(ValueError, match="at least 4"):
                QuadratureSpec(**{name: 3})
            for count in (4.5, 8.0, "8"):
                with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                    QuadratureSpec(**{name: count})

    def test_numpy_integer_counts_accepted(self):
        q = QuadratureSpec(np.int64(12), np.int32(12), np.int16(32))
        assert q == QuadratureSpec(12, 12, 32)


class TestScalarOverlap:
    def test_coincidence_matches_gaussian_integral_oracle(self):
        for a in (0.5, 1.0, 2.0):
            s = state_at(SCALAR, [0.0, 0.0, 0.0], 0, a)
            value = qm_overlap(s, s).real
            # independent oracle: adaptive quadrature of the radial Gaussian
            oracle, _ = quad(lambda k: k * k * np.exp(-a * a * k * k), 0.0, 20.0 / a)
            oracle *= 4.0 * np.pi / (2.0 * np.pi) ** 3
            assert abs(value - oracle) / oracle < 1e-12
            assert abs(value - gaussian_delta(0.0, a)) / oracle < 1e-12

    def test_separation_matches_gaussian_image(self):
        a = 0.8
        for r_over_a in (0.5, 2.0, 4.0):
            s1 = state_at(SCALAR, r_over_a * a * RHAT, 0, a)
            s2 = state_at(SCALAR, [0.0, 0.0, 0.0], 0, a)
            value = qm_overlap(s1, s2).real
            expected = gaussian_delta(r_over_a * a, a)
            assert abs(value - expected) / expected < 1e-10


class TestOverlapContracts:
    def test_unequal_times_rejected(self):
        s1 = state_at(SCALAR, [0.0, 0.0, 0.0], 0, t=0.0)
        s2 = state_at(SCALAR, [0.0, 0.0, 0.0], 0, t=1.0)
        with pytest.raises(ValueError, match="equal-time"):
            qm_overlap(s1, s2)

    def test_unequal_widths_rejected(self):
        s1 = state_at(SCALAR, [0.0, 0.0, 0.0], 0, a=1.0)
        s2 = state_at(SCALAR, [0.0, 0.0, 0.0], 0, a=2.0)
        with pytest.raises(ValueError, match="regulator"):
            qm_overlap(s1, s2)

    def test_mismatched_families_rejected(self):
        s1 = state_at(SPHERICAL3, [0.0, 0.0, 0.0], 0)
        s2 = state_at(SPHERICAL_PHOTON, [0.0, 0.0, 0.0], 0)
        with pytest.raises(ValueError, match="matching families"):
            qm_overlap(s1, s2)

    def test_negative_frequency_rejected(self):
        family = StateFamily.of(SCALAR, "negative")
        s = make_localized_state(family, np.zeros(4), 0, 1.0)
        with pytest.raises(ValueError, match="negative-frequency"):
            qm_overlap(s, s)

    def test_scalar_family_has_no_kernel_matrix(self):
        with pytest.raises(ValueError, match="scalar"):
            overlap_kernel_matrix(StateFamily.of(SCALAR), np.zeros(3), 1.0)



class TestInputBoundary:
    BAD_WIDTHS = (0.0, -1.0, np.nan, np.inf)

    def test_kernel_entry_points_reject_bad_widths(self):
        family = StateFamily.of(CARTESIAN_PHOTON)
        rvec = np.array([0.3, 0.0, 0.4])
        for a in self.BAD_WIDTHS:
            for call in (
                lambda: overlap_kernel_matrix(family, rvec, a),
                lambda: transverse_kernel(rvec, a),
                lambda: general_j_defect(2, (-1, 1), rvec, a),
                lambda: brute_force_kernel_matrix(family, rvec, a, Q),
            ):
                with pytest.raises(ValueError, match="finite and positive"):
                    call()

    def test_state_pairings_reject_bad_widths(self):
        family = StateFamily.of(RADIATION_GAUGE)
        good = state_at(RADIATION_GAUGE, [0.0, 0.0, 0.0], "x")
        for a in self.BAD_WIDTHS:
            bad = LocalizedState(family, np.zeros(4), good.coefficients, a)
            for pairing in (qm_overlap, alt_overlap):
                with pytest.raises(ValueError, match="regulator width"):
                    pairing(bad, bad)
            with pytest.raises(ValueError, match="regulator width"):
                brute_force_overlap(bad, bad, Q)

    def test_non_finite_separations_rejected(self):
        family = StateFamily.of(SPHERICAL_PHOTON)
        for bad in (np.nan, np.inf, -np.inf):
            rvec = np.array([0.0, bad, 1.0])
            for call in (
                lambda: overlap_kernel_matrix(family, rvec, 1.0),
                lambda: transverse_kernel(rvec, 1.0),
                lambda: general_j_defect(1, (-1, 1), rvec, 1.0),
                lambda: brute_force_kernel_matrix(family, rvec, 1.0, Q),
            ):
                with pytest.raises(ValueError, match="separation must be finite"):
                    call()
        # states built directly can carry a non-finite anchor; finite anchors can
        # still overflow in their difference
        anchors = [([0.0, bad, 1.0], [0.0, 0.0, 0.0]) for bad in (np.nan, np.inf, -np.inf)]
        anchors.append(([0.0, 1e308, 1.0], [0.0, -1e308, 0.0]))
        for kind, label in ((SCALAR, 0), (SPHERICAL_PHOTON, 1), (RADIATION_GAUGE, "x")):
            coeff = state_at(kind, [0.0, 0.0, 0.0], label).coefficients
            pairings = (qm_overlap, alt_overlap) if kind == RADIATION_GAUGE else (qm_overlap,)
            for x1, x2 in anchors:
                s1 = LocalizedState(StateFamily.of(kind), np.array([0.0, *x1]), coeff, 1.0)
                s2 = LocalizedState(StateFamily.of(kind), np.array([0.0, *x2]), coeff, 1.0)
                for pairing in pairings:
                    with pytest.raises(ValueError, match="separation must be finite"):
                        pairing(s1, s2)


class TestFullHelicityFamilies:
    @pytest.mark.parametrize("kind", [SPHERICAL3, CARTESIAN3])
    def test_kernel_is_regulated_delta_times_identity(self, kind):
        a = 1.0
        scale = gaussian_delta(0.0, a)
        for r_over_a in (0.0, 2.0, 5.0):
            kernel = overlap_kernel_matrix(StateFamily.of(kind), r_over_a * a * RHAT, a)
            off = kernel.entries - np.diag(kernel.entries.diagonal())
            assert np.abs(off).max() < 1e-12 * scale
            expected = gaussian_delta(r_over_a * a, a)
            np.testing.assert_allclose(
                kernel.entries.diagonal().real, expected, rtol=1e-10
            )

    def test_cross_label_overlaps_vanish(self):
        s1 = state_at(SPHERICAL3, 1.3 * RHAT, 1)
        s2 = state_at(SPHERICAL3, [0.0, 0.0, 0.0], 0)
        assert abs(qm_overlap(s1, s2)) < 1e-12 * gaussian_delta(0.0, 1.0)


class TestBruteForceAgreement:
    def test_transverse_photon_pair_along_z(self):
        a = 1.0
        s1 = state_at(SPHERICAL_PHOTON, [0.0, 0.0, 5.0 * a], 0, a)
        s2 = state_at(SPHERICAL_PHOTON, [0.0, 0.0, 0.0], 0, a)
        fast = qm_overlap(s1, s2)
        oracle = brute_force_overlap(s1, s2, Q)
        assert abs(fast - oracle) / abs(oracle) < 1e-6

    def test_ten_seeded_configurations(self):
        rng = np.random.default_rng(42)
        kinds = (SCALAR, SPHERICAL3, CARTESIAN3, SPHERICAL_PHOTON, CARTESIAN_PHOTON,
                 RADIATION_GAUGE)
        for trial in range(10):
            kind = kinds[trial % len(kinds)]
            family = StateFamily.of(kind)
            labels = family.labels
            a = rng.uniform(0.6, 1.5)
            s1 = state_at(kind, rng.normal(size=3), labels[rng.integers(len(labels))], a)
            s2 = state_at(kind, rng.normal(size=3), labels[rng.integers(len(labels))], a)
            fast = qm_overlap(s1, s2)
            oracle = brute_force_overlap(s1, s2, Q)
            scale = max(abs(oracle), gaussian_delta(0.0, a) * 1e-8)
            assert abs(fast - oracle) / scale < 1e-6

    def test_kernel_matrix_against_oracle(self):
        a = 1.0
        for kind in (SPHERICAL_PHOTON, RADIATION_GAUGE):
            family = StateFamily.of(kind)
            for r_over_a in (0.0, 1.0, 5.0):
                rvec = r_over_a * a * RHAT
                fast = overlap_kernel_matrix(family, rvec, a).entries
                oracle = brute_force_kernel_matrix(family, rvec, a, Q).entries
                scale = np.abs(oracle).max()
                assert np.abs(fast - oracle).max() / scale < 1e-6


class TestOracleTable:
    @pytest.mark.parametrize("basis", ["spherical", "cartesian"])
    @pytest.mark.parametrize("spec", [QuadratureSpec(4, 4, 4), Q])
    def test_batched_table_matches_node_by_node_rotations(self, basis, spec):
        khat, _, A = _oracle_label_coefficients(basis, spec.n_theta, spec.n_phi)
        assert A.shape == (3, 16 * spec.n_theta * spec.n_phi, 3)
        for n, vec in enumerate(khat):
            inv = wigner_D(1, standard_rotation(Direction.from_vector(vec))).conj().T
            expected = inv.T if basis == "spherical" else (inv @ spherical_to_cartesian()).T
            assert np.abs(A[:, n, :] - expected).max() < 1e-14

    def test_cached_table_is_read_only(self):
        for arr in _oracle_label_coefficients("spherical", Q.n_theta, Q.n_phi):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_cold_default_tables_build_under_one_second(self):
        q = QuadratureSpec()
        _oracle_label_coefficients.cache_clear()
        start = time.perf_counter()
        for basis in ("spherical", "cartesian"):
            _oracle_label_coefficients(basis, q.n_theta, q.n_phi)
        assert time.perf_counter() - start < 1.0


class TestOverlapSymmetries:
    def test_hermiticity_of_the_pairing(self):
        rng = np.random.default_rng(1)
        s1 = state_at(SPHERICAL_PHOTON, rng.normal(size=3), 1)
        s2 = state_at(SPHERICAL_PHOTON, rng.normal(size=3), -1)
        forward = qm_overlap(s1, s2)
        backward = qm_overlap(s2, s1)
        assert abs(forward - np.conj(backward)) < 1e-12

    def test_kernel_hermitian_under_separation_flip(self):
        rvec = np.array([0.7, -0.3, 1.1])
        family = StateFamily.of(SPHERICAL_PHOTON)
        k_plus = overlap_kernel_matrix(family, rvec, 1.0).entries
        k_minus = overlap_kernel_matrix(family, -rvec, 1.0).entries
        np.testing.assert_allclose(k_plus.conj().T, k_minus, atol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_gram_matrix_is_positive_semidefinite(self, data):
        # N cartesian-photon states with arbitrary complex label mixtures,
        # anchored within 500 a of the origin: pair separations reach 1e3 a
        n = data.draw(st.integers(2, 6), label="n")
        a = data.draw(st.floats(0.1, 10.0), label="a")
        unit = st.floats(-1.0, 1.0)
        states = []
        for _ in range(n):
            direction = np.array(data.draw(st.tuples(unit, unit, unit)))
            norm = np.linalg.norm(direction)
            direction = direction / norm if norm > 1e-3 else np.array([0.0, 0.0, 1.0])
            radius = a * 10.0 ** data.draw(st.floats(-2.0, np.log10(500.0)))
            parts = np.array(data.draw(st.lists(unit, min_size=6, max_size=6)))
            state = state_at(CARTESIAN_PHOTON, radius * direction, "x", a)
            states.append(replace(state, coefficients=parts[:3] + 1j * parts[3:]))
        gram = np.array([[qm_overlap(si, sj) for sj in states] for si in states])
        scale = np.abs(gram).max()
        assert np.abs(gram - gram.conj().T).max() <= 1e-12 * scale
        eigenvalues = np.linalg.eigvalsh(gram)
        assert eigenvalues.min() >= -1e-12 * eigenvalues.max()

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        s1 = state_at(CARTESIAN_PHOTON, [0.4, -0.2, 0.9], "x")
        s2 = state_at(CARTESIAN_PHOTON, [-0.5, 0.3, 0.1], "z")
        base = qm_overlap(s1, s2)
        for _ in range(5):
            R = rotation_from_axis_angle(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
            rotated = qm_overlap(rotate_state(s1, R), rotate_state(s2, R))
            assert abs(rotated - base) / abs(base) < 1e-8


class TestAlternativePairing:
    # the regulated delta is written out here rather than taken from
    # photonloc.gaussian_delta, which alt_overlap itself returns

    def test_coincidence_is_twice_the_regulated_delta(self):
        for a in (0.5, 1.0, 2.0):
            s = state_at(RADIATION_GAUGE, [0.0, 0.0, 0.0], "x", a)
            ratio = alt_overlap(s, s).real * (8.0 * np.pi**1.5 * a**3)
            assert abs(ratio - 2.0) < 1e-12

    def test_separation_is_twice_the_gaussian_image(self):
        a = 1.0
        for r_over_a in (0.5, 1.0, 2.0, 5.0):
            s1 = state_at(RADIATION_GAUGE, r_over_a * a * RHAT, "x", a)
            s2 = state_at(RADIATION_GAUGE, [0.0, 0.0, 0.0], "y", a)
            value = alt_overlap(s1, s2).real
            expected = 2.0 * np.exp(-(r_over_a**2) / 4.0) / (8.0 * np.pi**1.5 * a**3)
            assert abs(value - expected) / expected < 1e-12

    def test_label_resolution_is_lost(self):
        # the trace pairing returns the same number for every label pair,
        # while the quantum-mechanical kernel keeps nonzero off-diagonal
        # structure at the same separation
        a = 1.0
        rvec = 2.0 * a * RHAT
        s_x = state_at(RADIATION_GAUGE, rvec, "x", a)
        s_z = state_at(RADIATION_GAUGE, [0.0, 0.0, 0.0], "z", a)
        s_y = state_at(RADIATION_GAUGE, rvec, "y", a)
        assert abs(alt_overlap(s_x, s_z) - alt_overlap(s_y, s_z)) < 1e-15
        kernel = overlap_kernel_matrix(StateFamily.of(RADIATION_GAUGE), rvec, a)
        off = kernel.entries[0, 2]
        assert abs(off) > 1e-4 * gaussian_delta(0.0, a)
        assert abs(qm_overlap(s_x, s_z) - off) < 1e-12

    def test_non_radiation_gauge_states_rejected(self):
        s = state_at(CARTESIAN_PHOTON, [0.0, 0.0, 0.0], "x")
        with pytest.raises(ValueError, match="radiation-gauge"):
            alt_overlap(s, s)


class TestTransverseKernel:
    def test_coincidence_is_one_third_of_delta_times_identity(self):
        a = 1.3
        kernel = transverse_kernel(np.zeros(3), a)
        np.testing.assert_allclose(
            kernel, gaussian_delta(0.0, a) / 3.0 * np.eye(3), rtol=1e-10, atol=1e-15
        )

    def test_axis_aligned_separation_has_no_off_diagonal(self):
        kernel = transverse_kernel(np.array([0.0, 0.0, 2.0]), 1.0)
        off = kernel - np.diag(kernel.diagonal())
        assert np.abs(off).max() < 1e-13 * np.abs(kernel).max()

    def test_trace_equals_regulated_delta(self):
        rng = np.random.default_rng(3)
        a = 0.9
        for _ in range(5):
            rvec = rng.normal(size=3)
            kernel = transverse_kernel(rvec, a)
            expected = gaussian_delta(np.linalg.norm(rvec), a)
            assert abs(kernel.trace() - expected) / gaussian_delta(0.0, a) < 1e-12

    def test_far_field_tail_is_negative_dipole_pattern(self):
        a = 1.0
        r = 10.0 * a
        kernel = transverse_kernel(r * RHAT, a)
        tail = (np.eye(3) - 3.0 * np.outer(RHAT, RHAT)) / (4.0 * np.pi * r**3)
        assert np.abs(kernel - tail).max() / np.abs(tail).max() < 0.02

    def test_matches_brute_force_oracle(self):
        # the oracle integrates the transverse projector family directly:
        # identity kernel minus photon kernel isolates the projector term
        a = 1.0
        rvec = 1.5 * RHAT
        photon = brute_force_kernel_matrix(StateFamily.of(CARTESIAN_PHOTON), rvec, a, Q)
        full = brute_force_kernel_matrix(StateFamily.of(CARTESIAN3), rvec, a, Q)
        oracle = (full.entries - photon.entries).real
        kernel = transverse_kernel(rvec, a)
        assert np.abs(kernel - oracle).max() / np.abs(oracle).max() < 1e-6


class TestPhotonKernel:
    def test_coincidence_is_two_thirds_of_delta(self):
        a = 1.0
        kernel = overlap_kernel_matrix(StateFamily.of(CARTESIAN_PHOTON), np.zeros(3), a)
        np.testing.assert_allclose(
            kernel.entries.real,
            2.0 / 3.0 * gaussian_delta(0.0, a) * np.eye(3),
            rtol=1e-10,
            atol=1e-15,
        )
        assert np.abs(kernel.entries.imag).max() < 1e-15

    def test_equals_delta_term_minus_transverse_kernel(self):
        a = 1.0
        for r_over_a in (0.0, 1.0, 3.0):
            rvec = r_over_a * a * RHAT
            kernel = overlap_kernel_matrix(StateFamily.of(CARTESIAN_PHOTON), rvec, a)
            assembled = gaussian_delta(r_over_a * a, a) * np.eye(3) - transverse_kernel(
                rvec, a
            )
            scale = gaussian_delta(0.0, a)
            assert np.abs(kernel.entries - assembled).max() < 1e-12 * scale

    def test_coincidence_diagonal_scales_as_inverse_cubed_width(self):
        widths = np.array([0.5, 1.0, 2.0])
        diagonals = [
            overlap_kernel_matrix(StateFamily.of(CARTESIAN_PHOTON), np.zeros(3), a)
            .entries[0, 0]
            .real
            for a in widths
        ]
        slope = np.polyfit(np.log(widths), np.log(diagonals), 1)[0]
        assert abs(slope + 3.0) < 1e-3

    def test_off_diagonal_tail_survives_the_small_width_limit(self):
        # fixed physical separation d: the transverse tail entry stays at its
        # 3 rhat_x rhat_z / (4 pi d^3) value while the delta term dies off
        d = 10.0
        rvec = d * RHAT
        scale = 1.0 / (8.0 * np.pi**1.5 * d**3)
        for a in (0.5, 1.0, 2.0):
            kernel = overlap_kernel_matrix(StateFamily.of(CARTESIAN_PHOTON), rvec, a)
            ratio = abs(kernel.entries[0, 2].real) / scale
            assert ratio > 1.0
        narrow = overlap_kernel_matrix(StateFamily.of(CARTESIAN_PHOTON), rvec, 1.0)
        expected = 3.0 * RHAT[0] * RHAT[2] / (4.0 * np.pi * d**3)
        assert abs(narrow.entries[0, 2].real - expected) / expected < 0.02


class TestRadiationGaugeKernel:
    def test_matches_brute_force_with_inverse_energy_weight(self):
        a = 1.0
        for r_over_a in (0.0, 2.0):
            rvec = r_over_a * a * RHAT
            fast = overlap_kernel_matrix(StateFamily.of(RADIATION_GAUGE), rvec, a)
            oracle = brute_force_kernel_matrix(StateFamily.of(RADIATION_GAUGE), rvec, a, Q)
            scale = np.abs(oracle.entries).max()
            assert np.abs(fast.entries - oracle.entries).max() / scale < 1e-6

    def test_weight_changes_the_kernel(self):
        a = 1.0
        photon = overlap_kernel_matrix(StateFamily.of(CARTESIAN_PHOTON), np.zeros(3), a)
        potential = overlap_kernel_matrix(StateFamily.of(RADIATION_GAUGE), np.zeros(3), a)
        ratio = potential.entries[0, 0].real / photon.entries[0, 0].real
        assert abs(ratio - 1.0) > 0.1


class TestGeneralDefect:
    def test_full_helicity_set_gives_zero(self):
        kernel = general_j_defect(2, range(-2, 3), np.zeros(3), 1.0)
        assert np.abs(kernel.entries).max() == 0.0
        assert kernel.labels == (2, 1, 0, -1, -2)

    def test_spin1_defect_restores_completeness_of_photon_kernel(self):
        a = 1.0
        for r_over_a in (0.0, 1.5):
            rvec = r_over_a * a * RHAT
            photon = overlap_kernel_matrix(StateFamily.of(SPHERICAL_PHOTON), rvec, a)
            defect = general_j_defect(1, (-1, 1), rvec, a)
            total = photon.entries + defect.entries
            expected = gaussian_delta(r_over_a * a, a) * np.eye(3)
            assert np.abs(total - expected).max() < 1e-12 * gaussian_delta(0.0, a)

    def test_spin2_transverse_only_defect_magnitude(self):
        a = 1.0
        kernel = general_j_defect(2, (-1, 1), np.zeros(3), a)
        # angular average of the three missing rank-1 projectors is 3/5 of
        # the identity, so the coincidence defect is (3/5) delta * identity
        expected = 0.6 * gaussian_delta(0.0, a) * np.eye(5)
        np.testing.assert_allclose(kernel.entries.real, expected, rtol=1e-9, atol=1e-14)
        frobenius = np.linalg.norm(kernel.entries)
        assert frobenius > 0.1 * gaussian_delta(0.0, a)

    def test_invalid_spin_and_helicities_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            general_j_defect(0, (0,), np.zeros(3), 1.0)
        with pytest.raises(ValueError, match="range"):
            general_j_defect(2, (-3, 3), np.zeros(3), 1.0)


def test_kernel_matrix_records_its_configuration():
    kernel = overlap_kernel_matrix(StateFamily.of(CARTESIAN_PHOTON), RHAT, 0.7)
    assert isinstance(kernel, KernelMatrix)
    assert kernel.family == CARTESIAN_PHOTON
    assert kernel.regulator_width == 0.7
    assert kernel.labels == ("x", "y", "z")
    np.testing.assert_allclose(kernel.separation, RHAT)
