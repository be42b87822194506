import time
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import photonloc.overlap
import photonloc.rotations
import photonloc.states
from photonloc.overlap import (
    KernelMatrix,
    QuadratureSpec,
    _aligned_table,
    _helicity_columns,
    _oracle_angular_grid,
    _oracle_gauss_legendre,
    _oracle_label_sums,
    _oracle_node_counts,
    _oracle_radial_grid,
    _oracle_rotation,
    _radial_integrals,
    _radial_power,
    _spherical_kernel,
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
    J_MAX,
    rotation_from_axis_angle,
    small_d_matrix,
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
    momentum_amplitude,
    rotate_state,
    translate_state,
)

# modest node counts keep the brute-force comparisons quick; the oracle
# runs at four times these
Q = QuadratureSpec(n_theta=12, n_phi=12, n_radial=32)

RHAT = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)

THREE_LABEL_KINDS = (SPHERICAL3, CARTESIAN3, SPHERICAL_PHOTON, CARTESIAN_PHOTON,
                     RADIATION_GAUGE)


def state_at(kind, position, label, a=1.0, t=0.0):
    x = np.concatenate(([t], position))
    return make_localized_state(StateFamily.of(kind), x, label, a)


def mixed_label_states(kind, anchors, a, rng, t=0.0):
    """One state per anchor x, built at R^T x and rotated by a random R: mixed labels at x."""
    labels = StateFamily.of(kind).labels
    states = []
    for x in anchors:
        R = rotation_from_axis_angle(rng.normal(size=3), rng.uniform(0, np.pi))
        label = labels[rng.integers(len(labels))]
        states.append(rotate_state(state_at(kind, R.T @ x, label, a, t), R))
    return states


def helicity_loop_overlap(s1, s2, q):
    """The oracle overlap from one momentum_amplitude call per state, helicity and
    radial shell: a second contraction of brute_force_overlap's aligned grid."""
    a, rvec = s1.regulator_width, s1.x[1:] - s2.x[1:]
    nmu, nphi, nk = _oracle_node_counts(q, np.linalg.norm(rvec), a)
    khat, wang = _oracle_angular_grid(nmu, nphi)
    khat = khat @ _oracle_rotation(rvec).T
    k, wk = _oracle_radial_grid(nk, a)
    shells = np.zeros(k.size, dtype=complex)
    for n, kvecs in enumerate(k[:, None, None] * khat[None, :, :]):
        for lam in s1.family.helicities:
            amp1 = momentum_amplitude(s1, kvecs, lam)
            shells[n] += (amp1.conj() * momentum_amplitude(s2, kvecs, lam)) @ wang
    return complex((wk * k**3) @ shells)


def legendre_projection(j):
    """{lam: aligned-table column} from a 4j+2-node Legendre rule, one helicity at a time."""
    mu, w = np.polynomial.legendre.leggauss(4 * j + 2)
    l = np.arange(2 * j + 1)
    proj = ((2 * l + 1) / 2.0) * np.polynomial.legendre.legvander(mu, 2 * j) * w[:, None]
    d = small_d_matrix(j, np.arccos(mu))
    weights = (1j**l)[:, None] * (4.0 * np.pi / (2.0 * np.pi) ** 3)
    return {lam: weights * (proj.T @ d[:, :, j - lam] ** 2) for lam in range(-j, j + 1)}


def rotated_diagonal_kernel(columns, helicities, rvec, a, s):
    """The aligned diagonal conjugated by the full D-matrix of the standard rotation."""
    j = (len(columns) - 1) // 2
    coeff = sum(columns[lam] for lam in helicities)
    diag = _radial_integrals(2 * j, np.linalg.norm(rvec), a, s) @ coeff
    D = wigner_D(j, standard_rotation(rvec / np.linalg.norm(rvec)))
    return D @ np.diag(diag) @ D.conj().T


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

    @pytest.mark.parametrize("spec", [QuadratureSpec(4, 4, 4), Q])
    def test_overlap_matches_per_helicity_amplitude_loop(self, spec):
        rng = np.random.default_rng(23)
        for kind in (SCALAR, SPHERICAL3, CARTESIAN3, SPHERICAL_PHOTON, CARTESIAN_PHOTON,
                     RADIATION_GAUGE):
            labels = StateFamily.of(kind).labels
            a = rng.uniform(0.6, 1.5)
            s1, s2 = (
                rotate_state(state_at(kind, rng.normal(size=3), labels[i], a),
                             rotation_from_axis_angle(rng.normal(size=3), rng.uniform(0, np.pi)))
                for i in rng.integers(len(labels), size=2)
            )
            expected = helicity_loop_overlap(s1, s2, spec)
            got = brute_force_overlap(s1, s2, spec)
            assert abs(got - expected) < 1e-13 * gaussian_delta(0.0, a)

    @pytest.mark.parametrize("spec", [Q, None])
    def test_oracle_is_translation_invariant_and_hermitian(self, spec):
        # a common four-vector shift moves both states' anchor phases; swapping
        # the states conjugates the sum
        rng = np.random.default_rng(31)
        for kind in (SCALAR, SPHERICAL3, CARTESIAN3, SPHERICAL_PHOTON, CARTESIAN_PHOTON,
                     RADIATION_GAUGE):
            labels = StateFamily.of(kind).labels
            a = rng.uniform(0.6, 1.5)
            t = rng.uniform(-2.0, 2.0)
            s1, s2 = (
                rotate_state(state_at(kind, rng.normal(size=3), labels[i], a, t),
                             rotation_from_axis_angle(rng.normal(size=3), rng.uniform(0, np.pi)))
                for i in rng.integers(len(labels), size=2)
            )
            shift = np.concatenate(([rng.uniform(-5.0, 5.0)], rng.normal(size=3) * 4.0))
            base = brute_force_overlap(s1, s2, spec)
            shifted = brute_force_overlap(translate_state(s1, shift),
                                          translate_state(s2, shift), spec)
            swapped = brute_force_overlap(s2, s1, spec)
            bound = 1e-13 * gaussian_delta(0.0, a)
            assert abs(shifted - base) < bound
            assert abs(swapped - base.conjugate()) < bound

    @pytest.mark.parametrize("spec", [Q, None])
    def test_oracle_holds_at_large_anchors(self, spec):
        # anchors and time of magnitude 1e6 at separation ~2: each state's phase
        # k u ~ 1e7 cancels in u2 - u1 to k r cos(theta). At magnitude 1e9 the rounding
        # of x1 - x2 alone moves both sides by a few 1e-9 of the coincident delta, and
        # the azimuth guard must stay silent
        rng = np.random.default_rng(67)
        for scale, tolerance in ((1e6, 1e-10), (1e9, 1e-7)):
            for kind in (SCALAR,) + THREE_LABEL_KINDS:
                a = rng.uniform(0.6, 1.5)
                t = scale * rng.uniform(-1.0, 1.0)
                x2 = scale * rng.uniform(-1.0, 1.0, size=3)
                direction = rng.normal(size=3)
                x1 = x2 + 2.0 * direction / np.linalg.norm(direction)
                states = mixed_label_states(kind, (x1, x2), a, rng, t)
                oracle = brute_force_overlap(*states, spec)
                exact = qm_overlap(*states)
                assert abs(oracle - exact) < tolerance * gaussian_delta(0.0, a)

    @pytest.mark.parametrize("spec", [Q, None])
    def test_oracle_rejects_an_azimuth_dependent_relative_phase(self, monkeypatch, spec):
        s1 = state_at(CARTESIAN_PHOTON, [0.3, -0.2, 0.5], "x")
        s2 = state_at(CARTESIAN_PHOTON, [-0.1, 0.4, 0.0], "y")
        factors = photonloc.overlap._amplitude_factors

        def corrupted(state, k, khat):
            envelope, u, rows = factors(state, k, khat)
            if state is s1:
                u = u + 1e-9 * khat[:, 0]
            return envelope, u, rows

        brute_force_overlap(s1, s2, spec)
        monkeypatch.setattr(photonloc.overlap, "_amplitude_factors", corrupted)
        with pytest.raises(RuntimeError, match="varies with azimuth"):
            brute_force_overlap(s1, s2, spec)

    @pytest.mark.parametrize("spec", [Q, None])
    def test_oracle_rejects_a_relative_phase_off_the_separation(self, monkeypatch, spec):
        # a shift of u along rhat is the same at every azimuth, so only the comparison
        # of u2 - u1 with r cos(theta) sees it
        x1, x2 = np.array([0.3, -0.2, 0.5]), np.array([-0.1, 0.4, 0.0])
        s1 = state_at(CARTESIAN_PHOTON, x1, "x")
        s2 = state_at(CARTESIAN_PHOTON, x2, "y")
        rhat = (x1 - x2) / np.linalg.norm(x1 - x2)
        factors = photonloc.overlap._amplitude_factors

        def corrupted(state, k, khat):
            envelope, u, rows = factors(state, k, khat)
            if state is s1:
                u = u + 1e-9 * (khat @ rhat)
            return envelope, u, rows

        monkeypatch.setattr(photonloc.overlap, "_amplitude_factors", corrupted)
        with pytest.raises(RuntimeError, match="departs from r cos"):
            brute_force_overlap(s1, s2, spec)

    @pytest.mark.parametrize("spec", [Q, None])
    def test_oracle_rejects_anchors_that_hide_the_separation(self, spec):
        # u2 - u1 rounds to 0 at |x| ~ 1e300, which would give the coincident value
        # 0.0224 where qm_overlap gives 0.0083
        s1 = state_at(SCALAR, [1e300, 0.0, 0.0], 0)
        s2 = state_at(SCALAR, [1e300, 0.0, 2.0], 0)
        assert abs(qm_overlap(s1, s2) - 0.008258) < 1e-6
        with pytest.raises(ValueError, match="hides their separation"):
            brute_force_overlap(s1, s2, spec)

    def test_oracle_rejects_an_overflowing_anchor_phase(self):
        # each |x_i| is finite, but t - khat.x leaves the double range; no warning
        # may escape before the error (warnings are errors in this suite)
        s = state_at(SCALAR, [1e308, 1e308, 1e308], 0, t=-1e308)
        with pytest.raises(ValueError, match="anchor phase u = t - khat.x overflows"):
            brute_force_overlap(s, s)

    def test_oracle_calls_no_production_reduction(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle reached a production-path function")

        for module, name in ((photonloc.overlap, "small_d_matrix"),
                             (photonloc.overlap, "_aligned_table"),
                             (photonloc.overlap, "_helicity_columns"),
                             (photonloc.overlap, "_rotated_diagonal"),
                             (photonloc.overlap, "_radial_integrals"),
                             (photonloc.overlap, "_radial_constants"),
                             (np.polynomial.legendre, "leggauss"),
                             (photonloc.rotations, "small_d_matrix"),
                             (photonloc.rotations, "_small_d"),
                             (photonloc.rotations, "_magnetic_numbers"),
                             (photonloc.rotations, "_fourier_basis"),
                             (photonloc.rotations, "_rotated_diagonal"),
                             (photonloc.rotations, "wigner_D"),
                             (photonloc.states, "wigner_D")):
            monkeypatch.setattr(module, name, forbidden)
        _oracle_label_sums.cache_clear()
        for q in (QuadratureSpec(4, 4, 4), None):
            for kind, label in ((SPHERICAL3, 0), (CARTESIAN_PHOTON, "x")):
                s1 = state_at(kind, [0.2, -0.1, 0.4], label)
                s2 = state_at(kind, [0.0, 0.3, 0.0], label)
                brute_force_overlap(s1, s2, q)
                brute_force_kernel_matrix(StateFamily.of(kind), [0.2, -0.4, 0.4], 1.0, q)

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

    @pytest.mark.parametrize("kind", THREE_LABEL_KINDS)
    @pytest.mark.parametrize("spec", [QuadratureSpec(4, 4, 4), Q, None])
    def test_kernel_oracle_is_the_overlap_oracle_of_unit_labels(self, kind, spec):
        # K_ij(r) = <label i at r | label j at 0>; the two oracles share the grid and the
        # phase sum, not the label sums: the kernel's unit rows on the unrotated grid are
        # rotated back, the overlap takes the rows on rotated nodes. They agree to
        # rounding even on a starved grid
        a = 0.8
        family = StateFamily.of(kind)
        rng = np.random.default_rng(61)
        separations = (np.zeros(3), np.array([0.0, 0.0, -1.3]),
                       np.array([1.2e-12, 0.0, 1.2]), rng.normal(size=3))
        for rvec in separations:
            kernel = brute_force_kernel_matrix(family, rvec, a, spec).entries
            for i, label_i in enumerate(family.labels):
                for j, label_j in enumerate(family.labels):
                    overlap = brute_force_overlap(state_at(kind, rvec, label_i, a),
                                                  state_at(kind, np.zeros(3), label_j, a), spec)
                    assert abs(kernel[i, j] - overlap) < 1e-13 * gaussian_delta(0.0, a)


class TestOracleTable:
    @pytest.mark.parametrize("kind", THREE_LABEL_KINDS)
    @pytest.mark.parametrize("spec", [QuadratureSpec(4, 4, 4), Q])
    def test_label_sums_match_node_by_node_rotations(self, kind, spec):
        nmu, nphi = 4 * spec.n_theta, 4 * spec.n_phi
        family = StateFamily.of(kind)
        khat, weights = _oracle_angular_grid(nmu, nphi)
        assert np.abs(np.linalg.norm(khat, axis=1) - 1.0).max() < 1e-15
        assert abs(weights.sum() - 4.0 * np.pi) < 1e-13
        expected = np.zeros((nmu * nphi, 3, 3), dtype=complex)
        for n, vec in enumerate(khat):
            D = wigner_D(1, standard_rotation(vec))
            if family.label_basis == "cartesian":
                D = spherical_to_cartesian().conj().T @ D
            cols = D[:, [1 - lam for lam in family.helicities]]
            expected[n] = weights[n] * (cols @ cols.conj().T)
        expected = expected.reshape(nmu, nphi, 9).sum(axis=1).T
        G = _oracle_label_sums(kind, nmu, nphi)
        assert G.shape == (9, nmu)
        assert np.abs(G - expected).max() < 1e-14

    def test_cached_table_is_read_only(self):
        G = _oracle_label_sums(SPHERICAL_PHOTON, 4 * Q.n_theta, 4 * Q.n_phi)
        with pytest.raises(ValueError, match="read-only"):
            G[0] = 0.0

    def test_cold_default_tables_build_under_one_second(self):
        q = QuadratureSpec()
        _oracle_label_sums.cache_clear()
        start = time.perf_counter()
        for kind in THREE_LABEL_KINDS:
            _oracle_label_sums(kind, 4 * q.n_theta, 4 * q.n_phi)
        assert time.perf_counter() - start < 1.0


def dipole_floor_error(got, exact, r, a, s):
    """Largest entry error relative to max(|exact|, 1/(4 pi max(r, a)^(3+s)))."""
    floor = 1.0 / (4.0 * np.pi * max(r, a) ** (3.0 + s))
    return np.abs(np.asarray(got) - exact).max() / max(np.abs(exact).max(), floor)


class TestAlignedOracle:
    DIRECTIONS = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (0.6, -0.8, 0.0),
                  (-0.0, 1.0, -0.0), (1e-12, 0.0, 1.0), (-4e-13, 7e-13, -1.0)]

    def test_gauss_legendre_rule_holds_its_weights_at_large_n(self):
        for n in (4, 5, 48, 128):
            nodes, weights = _oracle_gauss_legendre(n)
            expected = np.polynomial.legendre.leggauss(n)
            np.testing.assert_allclose(nodes, expected[0], rtol=0, atol=1e-15)
            np.testing.assert_allclose(weights, expected[1], rtol=1e-10)
        for n in (384, 928, 4320):
            nodes, weights = _oracle_gauss_legendre(n)
            assert np.array_equal(nodes, -nodes[::-1]) and np.all(np.diff(nodes) > 0)
            # e^{i c x} on [-1, 1] with c = 0.85 n, as in a self-sized phase sum
            c = 0.85 * n
            assert abs(weights @ np.cos(c * nodes) - 2.0 * np.sin(c) / c) < 2e-14

    def test_rotation_takes_z_to_the_separation(self):
        rng = np.random.default_rng(53)
        for rvec in [np.array(d) * 3.0 for d in self.DIRECTIONS] + list(rng.normal(size=(20, 3))):
            R = _oracle_rotation(rvec)
            assert abs(np.linalg.det(R) - 1.0) < 1e-15
            assert np.abs(R.T @ R - np.eye(3)).max() < 1e-15
            assert np.abs(R[:, 2] - rvec / np.linalg.norm(rvec)).max() < 1e-15
        assert np.array_equal(_oracle_rotation(np.zeros(3)), np.eye(3))

    @pytest.mark.parametrize("r_over_a", [20.0, 40.0, 68.0, 200.0])
    def test_self_sized_kernel_matches_production(self, r_over_a):
        rng = np.random.default_rng(int(r_over_a))
        directions = self.DIRECTIONS + list(rng.normal(size=(3, 3)))
        for kind in THREE_LABEL_KINDS:
            family = StateFamily.of(kind)
            s = 1.0 - 2.0 * family.weight_exponent
            for direction in directions:
                a = rng.uniform(0.5, 2.0)
                rvec = r_over_a * a * np.asarray(direction) / np.linalg.norm(direction)
                oracle = brute_force_kernel_matrix(family, rvec, a).entries
                exact = overlap_kernel_matrix(family, rvec, a).entries
                assert dipole_floor_error(oracle, exact, r_over_a * a, a, s) < 1e-10

    def test_self_sized_overlap_of_rotated_states_matches_production(self):
        rng = np.random.default_rng(59)
        for r_over_a in (0.5, 5.0, 40.0):
            for kind in (SCALAR,) + THREE_LABEL_KINDS:
                family = StateFamily.of(kind)
                s = 1.0 - 2.0 * family.weight_exponent
                a = rng.uniform(0.6, 1.5)
                direction = rng.normal(size=3)
                x2 = rng.normal(size=3) * a
                x1 = x2 + r_over_a * a * direction / np.linalg.norm(direction)
                states = mixed_label_states(kind, (x1, x2), a, rng)
                oracle = brute_force_overlap(*states)
                exact = qm_overlap(*states)
                assert dipole_floor_error(oracle, exact, r_over_a * a, a, s) < 1e-10

    def test_self_sized_grid_differs_from_explicit_specs(self):
        family = StateFamily.of(CARTESIAN_PHOTON)
        rvec = 10.0 * RHAT
        exact = overlap_kernel_matrix(family, rvec, 1.0).entries
        sized = brute_force_kernel_matrix(family, rvec, 1.0).entries
        default = brute_force_kernel_matrix(family, rvec, 1.0, QuadratureSpec()).entries
        starved = brute_force_kernel_matrix(family, rvec, 1.0, QuadratureSpec(4, 4, 4)).entries
        assert _oracle_node_counts(None, 10.0, 1.0) == (128, 8, 128)
        assert _oracle_node_counts(QuadratureSpec(), 10.0, 1.0) == (128, 128, 256)
        assert not np.array_equal(sized, default)
        assert dipole_floor_error(sized, exact, 10.0, 1.0, 0.0) < 1e-12
        assert dipole_floor_error(starved, exact, 10.0, 1.0, 0.0) > 1e-3

    def test_self_sized_range_is_bounded(self):
        family = StateFamily.of(SPHERICAL_PHOTON)
        assert _oracle_node_counts(None, 1e3, 1.0) == (4320, 8, 4320)
        with pytest.raises(ValueError, match="beyond the self-sized oracle's range"):
            brute_force_kernel_matrix(family, [0.0, 0.0, 1.001e3], 1.0)
        s1 = state_at(SCALAR, [2e3, 0.0, 0.0], 0)
        with pytest.raises(ValueError, match="beyond the self-sized oracle's range"):
            brute_force_overlap(s1, state_at(SCALAR, [0.0, 0.0, 0.0], 0))

    def test_table_cache_holds_a_round_of_separations(self):
        # one r = 0 point and nine log-spaced r/a to 68, one family per rung, and an
        # overlap at the test spec, which uses no table: a second round builds none
        ladder = [0.0] + [10.0 ** (-1.0 + (k + 0.5) / 3.0) for k in range(9)]
        origin = state_at(SCALAR, [0.0, 0.0, 0.0], 0)

        def round_of_calls():
            for k, r_over_a in enumerate(ladder):
                family = StateFamily.of(THREE_LABEL_KINDS[k % 5])
                brute_force_kernel_matrix(family, r_over_a * RHAT, 1.0)
            brute_force_overlap(state_at(SCALAR, RHAT, 0), origin, Q)
            return _oracle_label_sums.cache_info()

        _oracle_label_sums.cache_clear()
        first = round_of_calls()
        second = round_of_calls()
        assert second.misses == first.misses
        assert second.currsize <= second.maxsize == 16


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

    @pytest.mark.parametrize("helicities", [range(-11, 12), (-1, 1)])
    def test_spin_above_the_maximum_rejected_before_the_helicities(self, helicities):
        with pytest.raises(ValueError, match=f"at most {J_MAX}"):
            general_j_defect(J_MAX + 1, helicities, np.array([0.3, 0.0, 1.0]), 1.0)


class TestKernelEngine:
    DIRECTIONS = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (1.0, -0.0, 0.0),
                  (-1.0, 0.0, 0.0), (-1.0, -0.0, 0.0), (-0.0, 0.0, -1.0)]

    def test_matches_the_standard_rotation_d_matrix_for_every_spin(self):
        rng = np.random.default_rng(31)
        directions = self.DIRECTIONS + list(rng.normal(size=(4, 3)))
        for j in range(J_MAX + 1):
            columns = legendre_projection(j)
            subsets = {(0,) if j == 0 else (-j, j), tuple(range(-j, j + 1))}
            while len(subsets) < (1 if j == 0 else 5):
                mask = rng.integers(2, size=2 * j + 1).astype(bool)
                if mask.any():
                    subsets.add(tuple(np.arange(-j, j + 1)[mask]))
            for helicities in sorted(subsets):
                for direction in directions:
                    a, s = rng.uniform(0.5, 2.0), rng.choice([0.0, -1.0])
                    rvec = rng.uniform(0.3, 3.0) * a * np.asarray(direction)
                    expected = rotated_diagonal_kernel(columns, helicities, rvec, a, s)
                    got = _spherical_kernel(j, helicities, rvec, a, s)
                    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_cartesian_labels_conjugate_the_spherical_kernel(self):
        # the change of basis folded into the rotation against U^H K U after it
        U = spherical_to_cartesian()
        rng = np.random.default_rng(47)
        directions = self.DIRECTIONS + list(rng.normal(size=(4, 3)))
        separations = [np.zeros(3), np.array([-0.0, 0.0, -0.0])]
        separations += [rng.uniform(0.3, 3.0) * np.asarray(d) for d in directions]
        for rvec in separations:
            a = rng.uniform(0.5, 2.0)
            expected = (U.conj().T @ _spherical_kernel(1, (0,), rvec, a, 0.0) @ U).real
            got = transverse_kernel(rvec, a)
            assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()
            for kind in (CARTESIAN3, CARTESIAN_PHOTON, RADIATION_GAUGE):
                family = StateFamily.of(kind)
                s = _radial_power(family)
                expected = U.conj().T @ _spherical_kernel(1, family.helicities, rvec, a, s) @ U
                got = overlap_kernel_matrix(family, rvec, a).entries
                assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()

    def test_table_matches_a_finer_legendre_projection(self):
        rng = np.random.default_rng(37)
        for j in range(J_MAX + 1):
            table = _aligned_table(j)
            assert table.shape == (2 * j + 1, 2 * j + 1, 2 * j + 1)
            columns = legendre_projection(j)
            for lam, column in columns.items():
                assert np.abs(table[:, :, j - lam] - column).max() < 1e-14
            mask = rng.integers(2, size=2 * j + 1).astype(bool)
            helicities = [lam for lam, keep in zip(range(-j, j + 1), mask) if keep]
            summed = table[:, :, [j - lam for lam in helicities]].sum(axis=2)
            expected = sum((columns[lam] for lam in helicities), np.zeros_like(summed))
            assert np.abs(summed - expected).max() < 1e-14

    def test_table_is_read_only_and_cached_per_spin_only(self):
        rvec = np.array([0.4, -0.2, 0.9])
        for j in range(1, 4):
            for mask in range(1, 2 ** (2 * j + 1)):
                helicities = [lam for b, lam in enumerate(range(-j, j + 1)) if mask >> b & 1]
                general_j_defect(j, helicities, rvec, 1.0)
        for j in range(J_MAX + 1):
            _spherical_kernel(j, (j,), rvec, 1.0, 0.0)
            with pytest.raises(ValueError, match="read-only"):
                _aligned_table(j)[0, 0, 0] = 0.0
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            _aligned_table(J_MAX + 1)
        assert _aligned_table.cache_info().currsize <= J_MAX + 1

    def test_helicity_columns_are_read_only_bounded_column_sums(self):
        for j in range(1, 4):
            table = _aligned_table(j)
            for mask in range(1, 2 ** (2 * j + 1)):
                helicities = tuple(lam for b, lam in enumerate(range(-j, j + 1)) if mask >> b & 1)
                columns = _helicity_columns(j, helicities)
                expected = sum(table[:, :, j - lam] for lam in helicities)
                assert np.abs(columns - expected).max() <= 1e-15
                with pytest.raises(ValueError, match="read-only"):
                    columns[0, 0] = 0.0
        info = _helicity_columns.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize

    @pytest.mark.parametrize("pole", [1.0, -1.0])
    def test_tilt_off_a_pole_survives_in_the_off_diagonal_entries(self, pole):
        family = StateFamily.of(CARTESIAN_PHOTON)
        ratios = []
        for t in (1e-12, 1e-9, 1e-6):
            rvec = np.array([2.0 * t, 0.0, 2.0 * pole])
            xz = overlap_kernel_matrix(family, rvec, 1.0).entries[0, 2]
            spin10 = np.diagonal(general_j_defect(10, (-1, 1), rvec, 1.0).entries, 1)
            assert xz != 0.0 and np.all(spin10 != 0.0)
            ratios.append(np.concatenate(([xz], spin10)) / t)
        np.testing.assert_allclose(ratios[1:], [ratios[0]] * 2, rtol=1e-9)


def _draw_unit_vector(data, label):
    unit = st.floats(-1.0, 1.0)
    v = np.array(data.draw(st.tuples(unit, unit, unit), label=label))
    norm = np.linalg.norm(v)
    return v / norm if norm > 1e-3 else np.array([0.0, 0.0, 1.0])


def _draw_rotation(data):
    angle = data.draw(st.floats(-np.pi, np.pi), label="angle")
    return rotation_from_axis_angle(_draw_unit_vector(data, "axis"), angle)


def _draw_separation(data):
    """(rvec, a): r/a log-uniform in [1e-2, 1e3] along a drawn direction."""
    a = data.draw(st.floats(0.1, 10.0), label="a")
    r_over_a = 10.0 ** data.draw(st.floats(-2.0, 3.0), label="log10 r/a")
    return r_over_a * a * _draw_unit_vector(data, "direction"), a


def _kernel_scale(K, rvec, a, s):
    """max(|K|, 1 / (4 pi max(r, a)^(3+s))): the Legendre terms of a kernel are of
    the dipole size r^-(3+s) at large r, so a kernel that cancels far below it (the
    Gaussian of a full helicity set) rounds at this floor, not at |K|."""
    floor = 1.0 / (4.0 * np.pi * max(np.linalg.norm(rvec), a) ** (3.0 + s))
    return max(np.abs(K).max(), floor)


class TestKernelProperties:
    @settings(max_examples=300)
    @given(data=st.data())
    def test_defect_is_rotation_covariant_and_hermitian(self, data):
        j = data.draw(st.integers(1, J_MAX), label="j")
        mask = data.draw(st.lists(st.booleans(), min_size=2 * j + 1, max_size=2 * j + 1)
                         .filter(lambda m: 0 < sum(m) < len(m)), label="mask")
        helicities = tuple(lam for lam, keep in zip(range(-j, j + 1), mask) if keep)
        rvec, a = _draw_separation(data)
        R = _draw_rotation(data)
        K = general_j_defect(j, helicities, rvec, a).entries
        scale = _kernel_scale(K, rvec, a, 0.0)
        D = wigner_D(j, R)
        rotated = general_j_defect(j, helicities, R @ rvec, a).entries
        assert np.abs(rotated - D @ K @ D.conj().T).max() <= 1e-12 * scale
        flipped = general_j_defect(j, helicities, -rvec, a).entries
        assert np.abs(flipped - K.conj().T).max() <= 1e-12 * scale

    @settings(max_examples=250)
    @given(data=st.data())
    def test_every_family_kernel_is_rotation_covariant(self, data):
        family = StateFamily.of(data.draw(st.sampled_from(THREE_LABEL_KINDS), label="kind"))
        rvec, a = _draw_separation(data)
        R = _draw_rotation(data)
        M = R if family.label_basis == "cartesian" else wigner_D(1, R)
        K = overlap_kernel_matrix(family, rvec, a).entries
        rotated = overlap_kernel_matrix(family, R @ rvec, a).entries
        scale = _kernel_scale(K, rvec, a, _radial_power(family))
        assert np.abs(rotated - M @ K @ M.conj().T).max() <= 1e-12 * scale


def test_kernel_matrix_keeps_its_own_copy_of_the_separation():
    rvec = np.array([0.4, -0.2, 0.9])
    kernels = (overlap_kernel_matrix(StateFamily.of(CARTESIAN_PHOTON), rvec, 1.0),
               general_j_defect(2, (-1, 1), rvec, 1.0))
    rvec[:] = 7.0
    for kernel in kernels:
        np.testing.assert_array_equal(kernel.separation, [0.4, -0.2, 0.9])


def test_kernel_matrix_records_its_configuration():
    kernel = overlap_kernel_matrix(StateFamily.of(CARTESIAN_PHOTON), RHAT, 0.7)
    assert isinstance(kernel, KernelMatrix)
    assert kernel.family == CARTESIAN_PHOTON
    assert kernel.regulator_width == 0.7
    assert kernel.labels == ("x", "y", "z")
    np.testing.assert_allclose(kernel.separation, RHAT)
