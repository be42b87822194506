import math
import time
from dataclasses import fields, replace
from fractions import Fraction

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
    _helicity_columns,
    _oracle_angular_grid,
    _oracle_gauss_legendre,
    _oracle_kernel,
    _oracle_label_diagonal,
    _oracle_node_counts,
    _oracle_polar_radial_sum,
    _oracle_radial_grid,
    _oracle_rotation,
    _defect_family,
    _family_kernel,
    _racah_integers,
    _radial_integrals,
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
    _envelope,
    _label_rows,
    _unit_rows,
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


def per_node_overlap(s1, s2, q):
    """brute_force_overlap node by node: both states' label rows at every rotated node,
    contracted over helicities and summed over azimuth, then the oracle's phase sum. The
    azimuth rule sums the label part, of azimuthal degree 2j, exactly only with more
    than 2j nodes, so where the oracle's grid has fewer it takes 2j + 1 rounded up to a
    multiple of 8."""
    a, rvec = s1.regulator_width, s1.x[1:] - s2.x[1:]
    r = math.hypot(*rvec)
    nmu, nphi, nk = _oracle_node_counts(q, r, a)
    nphi = max(nphi, 8 * -(-(2 * s1.family.spin + 1) // 8))
    khat, wang = _oracle_angular_grid(nmu, nphi)
    khat = khat @ _oracle_rotation(rvec).T
    rows1, rows2 = (_label_rows(s.family, s.coefficients, khat) for s in (s1, s2))
    labels = (np.einsum("nl,nl->n", rows1.conj(), rows2) * wang).reshape(nmu, nphi).sum(axis=1)
    k, wk = _oracle_radial_grid(nk, a)
    envelope = (2.0 * np.pi) ** -1.5 * k**-s1.family.weight_exponent * np.exp(-0.5 * a * a * k * k)
    wrad = wk * k**3 * envelope * envelope
    return complex(_oracle_polar_radial_sum(labels[None], k, wrad, r, nmu)[0])


def legendre_projection(j):
    """{lam: single-helicity column} from a 4j+2-node Legendre rule, one helicity at a time."""
    mu, w = np.polynomial.legendre.leggauss(4 * j + 2)
    l = np.arange(2 * j + 1)
    proj = ((2 * l + 1) / 2.0) * np.polynomial.legendre.legvander(mu, 2 * j) * w[:, None]
    d = small_d_matrix(j, np.arccos(mu))
    weights = (1j**l)[:, None] * (4.0 * np.pi / (2.0 * np.pi) ** 3)
    return {lam: weights * (proj.T @ d[:, :, j - lam] ** 2) for lam in range(-j, j + 1)}


def clebsch_gordan_columns(j):
    """The map from a helicity set S to _helicity_columns(j, S), from sympy's exact
    Clebsch-Gordan coefficients, each entry rounded once from 30 digits:
    i^l 4 pi / (2 pi)^3 sum_(lam in S) (-1)^(m-lam) <j m j -m|l 0><j lam j -lam|l 0>.
    At fixed l the coefficients share one square root, so their ratios to a nonzero one
    are rational and the sum over S is exact; a zero sum gives an exact 0."""
    import mpmath as mp
    from sympy.physics.wigner import clebsch_gordan

    n = 2 * j + 1
    orders = []
    for l in range(n):
        cg = [clebsch_gordan(j, j, l, j - i, i - j, 0) for i in range(n)]
        ref = next(c for c in cg if c != 0)
        ratios = [c / ref for c in cg]
        assert all(r.is_Rational for r in ratios) and (ref**2).is_Rational
        # (-1)^(m-lam) as (-1)^(i+k), i = j - m and k = j - lam
        signed = [(-1) ** i * Fraction(int(r.p), int(r.q)) for i, r in enumerate(ratios)]
        orders.append((signed, Fraction(int((ref**2).p), int((ref**2).q))))

    def columns(helicities):
        out = np.empty((n, n))
        with mp.workdps(30):
            for l, (signed, ref2) in enumerate(orders):
                total = sum(signed[j - lam] for lam in helicities) * ref2
                for i, rho in enumerate(signed):
                    exact = rho * total
                    out[l, i] = mp.mpf(exact.numerator) / exact.denominator / (2 * mp.pi**2)
        return np.array([1.0, 1j, -1.0, -1j])[np.arange(n) % 4, None] * out

    return columns


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
        # both kernel entry points, which named such a kernel as the positive family's
        for kernel in (overlap_kernel_matrix, brute_force_kernel_matrix):
            with pytest.raises(ValueError, match="negative-frequency"):
                kernel(StateFamily.of(SPHERICAL3, "negative"), (0.3, 0.1, 0.2), 1.0)

    def test_scalar_family_kernel_is_the_delta_on_both_paths(self):
        # the scalar kernel is the 1 x 1 regulated delta, and the kernel oracle serves
        # every spin: spin 0 gives that delta, spin 2 the production kernel
        family, spin2 = StateFamily.of(SCALAR), StateFamily(2, (-1, 1))
        for rvec in (np.zeros(3), 0.8 * RHAT):
            r = np.linalg.norm(rvec)
            expected = gaussian_delta(r, 1.0)
            kernel = overlap_kernel_matrix(family, rvec, 1.0)
            assert kernel.entries.shape == (1, 1) and kernel.labels == (0,)
            assert abs(kernel.entries[0, 0] - expected) <= 1e-15 * expected
            oracle = brute_force_kernel_matrix(family, rvec, 1.0)
            assert oracle.entries.shape == (1, 1) and oracle.labels == (0,)
            assert abs(oracle.entries[0, 0] - expected) <= 1e-14 * expected
            oracle = brute_force_kernel_matrix(spin2, rvec, 1.0)
            exact = overlap_kernel_matrix(spin2, rvec, 1.0).entries
            assert oracle.entries.shape == (5, 5) and oracle.labels == (2, 1, 0, -1, -2)
            assert dipole_floor_error(oracle.entries, exact, r, 1.0, 0.0) <= 1e-14



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

    def test_gaussian_delta_rejects_bad_widths_and_distances(self):
        for a in self.BAD_WIDTHS:
            with pytest.raises(ValueError, match="finite and positive"):
                gaussian_delta(0.0, a)
        for r in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="distance must be finite"):
                gaussian_delta(r, 1.0)


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
        phase = photonloc.overlap._anchor_phase

        def corrupted(state, khat):
            u = phase(state, khat)
            if state is s1:
                u = u + 1e-9 * khat[:, 0]
            return u

        brute_force_overlap(s1, s2, spec)
        monkeypatch.setattr(photonloc.overlap, "_anchor_phase", corrupted)
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
        phase = photonloc.overlap._anchor_phase

        def corrupted(state, khat):
            u = phase(state, khat)
            if state is s1:
                u = u + 1e-9 * (khat @ rhat)
            return u

        monkeypatch.setattr(photonloc.overlap, "_anchor_phase", corrupted)
        with pytest.raises(RuntimeError, match="departs from r cos"):
            brute_force_overlap(s1, s2, spec)

    @pytest.mark.parametrize("spec", [Q, None])
    def test_oracle_checks_keep_their_order(self, monkeypatch, spec):
        # a failed one-pass check runs the checks one by one: an overflow is reported
        # before a spread over azimuth, and a spread before a departure off the separation
        x1, x2 = np.array([0.3, -0.2, 0.5]), np.array([-0.1, 0.4, 0.0])
        s1 = state_at(CARTESIAN_PHOTON, x1, "x")
        s2 = state_at(CARTESIAN_PHOTON, x2, "y")
        rhat = (x1 - x2) / np.linalg.norm(x1 - x2)
        phase = photonloc.overlap._anchor_phase

        def corrupted(overflow):
            def spread_off_axis(state, khat):
                u = phase(state, khat)
                if state is s1:
                    u = u + 1e-9 * khat[:, 0] + 1e-9 * (khat @ rhat)
                    if overflow:
                        u[-1] = np.inf
                return u
            return spread_off_axis

        monkeypatch.setattr(photonloc.overlap, "_anchor_phase", corrupted(overflow=True))
        with pytest.raises(ValueError, match="anchor phase u = t - khat.x overflows"):
            brute_force_overlap(s1, s2, spec)
        monkeypatch.setattr(photonloc.overlap, "_anchor_phase", corrupted(overflow=False))
        with pytest.raises(RuntimeError, match="varies with azimuth"):
            brute_force_overlap(s1, s2, spec)

    @pytest.mark.parametrize("spec", [Q, None])
    def test_oracle_admits_a_relative_phase_within_its_rounding_bound(self, monkeypatch, spec):
        # a shift along rhat of half the rounding bound fails the one-pass check but
        # passes every check it stands for; u never enters the sum, so the value stays
        x1, x2 = np.array([0.3, -0.2, 0.5]), np.array([-0.1, 0.4, 0.0])
        s1 = state_at(CARTESIAN_PHOTON, x1, "x")
        s2 = state_at(CARTESIAN_PHOTON, x2, "y")
        rhat = (x1 - x2) / np.linalg.norm(x1 - x2)
        bound = 64.0 * np.finfo(float).eps * (np.abs(s1.x).sum() + np.abs(s2.x).sum())
        expected = brute_force_overlap(s1, s2, spec)
        phase = photonloc.overlap._anchor_phase

        def shifted(state, khat):
            u = phase(state, khat)
            return u + 0.5 * bound * (khat @ rhat) if state is s1 else u

        monkeypatch.setattr(photonloc.overlap, "_anchor_phase", shifted)
        assert brute_force_overlap(s1, s2, spec) == expected

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

    def test_oracle_takes_a_subnormal_separation(self):
        # u2 - u1 rounds to subnormal steps there, which the rounding bound must admit
        s1 = state_at(SCALAR, [0.0, 2.2e-311, 2.2e-311], 0)
        s2 = state_at(SCALAR, [0.0, 0.0, 0.0], 0)
        exact = gaussian_delta(0.0, 1.0)
        assert abs(brute_force_overlap(s1, s2) - exact) <= 1e-13 * exact

    def test_oracle_calls_no_production_reduction(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle reached a production-path function")

        for module, name in ((math, "comb"),  # the binomials of Racah's integers
                             (math, "isqrt"),  # the rounded square roots of the basis, prefactors
                             (photonloc.overlap, "_racah_integers"),
                             (photonloc.overlap, "_helicity_columns"),
                             (photonloc.overlap, "_rounded_sqrt"),
                             (photonloc.overlap, "_rotated_diagonal"),
                             (photonloc.overlap, "_radial_integrals"),
                             (photonloc.overlap, "_radial_constants"),
                             (np.polynomial.legendre, "leggauss"),
                             (photonloc.rotations, "small_d_matrix"),
                             (photonloc.rotations, "_small_d"),
                             (photonloc.rotations, "_magnetic_numbers"),
                             (photonloc.rotations, "_fourier_basis"),
                             (photonloc.rotations, "_rounded_sqrt"),
                             (photonloc.rotations, "_rotated_diagonal"),
                             (photonloc.rotations, "wigner_D"),
                             (photonloc.states, "wigner_D")):
            monkeypatch.setattr(module, name, forbidden)
        # every table is built under the patch: five diagonals per grid, the kernel and
        # the overlap of one label structure at one separation sharing theirs
        _oracle_label_diagonal.cache_clear()
        for q in (QuadratureSpec(4, 4, 4), None):
            for kind, label in ((SPHERICAL3, 0), (CARTESIAN_PHOTON, "x")):
                s1 = state_at(kind, [0.2, -0.1, 0.4], label)
                s2 = state_at(kind, [0.0, 0.3, 0.0], label)
                brute_force_overlap(s1, s2, q)
                brute_force_kernel_matrix(StateFamily.of(kind), [0.2, -0.4, 0.4], 1.0, q)
            brute_force_kernel_matrix(StateFamily.of(SCALAR), [0.2, -0.4, 0.4], 1.0, q)
            for j in (2, 10):
                family = StateFamily(j, (-1, 1))
                s1 = make_localized_state(family, [0.0, 0.2, -0.1, 0.4], j, 1.0)
                s2 = make_localized_state(family, [0.0, 0.0, 0.3, 0.0], -1, 1.0)
                mixed = np.exp(1j * np.arange(2 * j + 1)) / np.sqrt(2 * j + 1)
                brute_force_overlap(replace(s1, coefficients=mixed), s2, q)
                brute_force_kernel_matrix(family, [0.2, -0.4, 0.4], 1.0, q)
        assert _oracle_label_diagonal.cache_info().misses == 10

    def test_warm_spin_1_kernel_oracle_never_calls_wigner_rows(self, monkeypatch):
        # a warm oracle call evaluates the unit labels' rows at rhat alone, by the
        # one-direction stage of _unit_rows: the many-direction stage costs ~25 us there
        rvec = [0.2, -0.4, 0.4]
        warm = {kind: brute_force_kernel_matrix(StateFamily.of(kind), rvec, 1.0, Q).entries
                for kind in (SPHERICAL3, CARTESIAN_PHOTON)}

        def forbidden(*args, **kwargs):
            raise AssertionError("a warm spin-1 oracle call reached _wigner_rows")

        monkeypatch.setattr(photonloc.states, "_wigner_rows", forbidden)
        monkeypatch.setattr(photonloc.overlap, "_wigner_rows", forbidden)
        for kind, entries in warm.items():
            again = brute_force_kernel_matrix(StateFamily.of(kind), rvec, 1.0, Q).entries
            assert np.array_equal(again, entries)

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
        # K_ij(r) = <label i at r | label j at 0>. The overlap oracle is c1^H K c2 of the
        # kernel's own reduction, so the node-by-node contraction of the unit-label
        # states' rows checks both, to rounding even on a starved grid
        a = 0.8
        family = StateFamily.of(kind)
        rng = np.random.default_rng(61)
        separations = (np.zeros(3), np.array([0.0, 0.0, -1.3]),
                       np.array([1.2e-12, 0.0, 1.2]), rng.normal(size=3))
        for rvec in separations:
            kernel = brute_force_kernel_matrix(family, rvec, a, spec).entries
            for i, label_i in enumerate(family.labels):
                for j, label_j in enumerate(family.labels):
                    states = (state_at(kind, rvec, label_i, a),
                              state_at(kind, np.zeros(3), label_j, a))
                    overlap = brute_force_overlap(*states, spec)
                    assert abs(kernel[i, j] - overlap) < 1e-13 * gaussian_delta(0.0, a)
                    node_by_node = per_node_overlap(*states, spec)
                    assert abs(kernel[i, j] - node_by_node) < 1e-13 * gaussian_delta(0.0, a)


class TestOracleTable:
    @pytest.mark.parametrize("kind", THREE_LABEL_KINDS)
    @pytest.mark.parametrize("spec", [QuadratureSpec(4, 4, 4), Q])
    def test_label_sums_match_node_by_node_rotations(self, kind, spec):
        # the kernel oracle's label part, conj(X) diag(g) X^T with X the unit labels'
        # rows at rhat, is the azimuth sum of node-by-node D-matrix products in the
        # family's label basis on the grid rotated to rhat, on the z-axis and off it;
        # on one radial shell the oracle's kernel is these sums times the shell's phases
        nmu, nphi = 4 * spec.n_theta, 4 * spec.n_phi
        family = StateFamily.of(kind)
        cartesian = family.label_basis == "cartesian"
        to_labels = spherical_to_cartesian().conj().T if cartesian else np.eye(3)
        g = _oracle_label_diagonal(1, family.helicities, nmu)
        for rhat in (np.array([0.0, 0.0, 1.0]), RHAT):
            rot = _oracle_rotation(rhat)
            khat, weights = _oracle_angular_grid(nmu, nphi)
            khat = khat @ rot.T
            assert np.abs(np.linalg.norm(khat, axis=1) - 1.0).max() < 1e-15
            expected = np.zeros((nmu * nphi, 3, 3), dtype=complex)
            for n, vec in enumerate(khat):
                D = to_labels @ wigner_D(1, standard_rotation(vec))
                cols = D[:, [1 - lam for lam in family.helicities]]
                expected[n] = weights[n] * (cols @ cols.conj().T)
            expected = expected.reshape(nmu, nphi, 3, 3).sum(axis=1)
            X = to_labels.conj() @ _unit_rows(1, rot[:, 2])
            table = np.einsum("is,sm,js->mij", X.conj(), g, X)
            assert np.abs(table - expected).max() < 1e-14
            k, wk, a, r = np.array([1.3]), np.array([1.0]), 0.8, 0.7
            weight = k[0] ** 3 * _envelope(family, a, k)[0] ** 2
            phases = np.exp(1j * k[0] * r * _oracle_gauss_legendre(nmu)[0])
            shell = weight * np.einsum("m,mij->ij", phases, expected)
            kernel = _oracle_kernel(family, a, r, rot[:, 2], nmu, k, wk)
            assert np.abs(kernel - shell).max() < 1e-14 * weight

    @pytest.mark.parametrize("j, helicities", [(0, (0,)), (1, (-1, 1)), (1, (-1, 0, 1)),
                                               (2, (-2, 1)), (10, (-10, -1, 0, 7))])
    def test_spin_j_label_diagonal_matches_node_by_node_rotations(self, j, helicities):
        # the (2j+1)^2 table of node-by-node D-matrices on 24 azimuths, more than 2j, is
        # diagonal up to rounding, and its diagonal is the polar-node table; Wigner's
        # factorial sum rounds to ~2e-14 at spin 10
        nmu, nphi = 16, 24
        khat, weights = _oracle_angular_grid(nmu, nphi)
        assert np.abs(np.linalg.norm(khat, axis=1) - 1.0).max() < 1e-15
        assert abs(weights.sum() - 4.0 * np.pi) < 1e-13
        expected = np.zeros((nmu * nphi, 2 * j + 1, 2 * j + 1), dtype=complex)
        for n, vec in enumerate(khat):
            cols = wigner_D(j, standard_rotation(vec))[:, [j - lam for lam in helicities]]
            expected[n] = weights[n] * (cols @ cols.conj().T)
        expected = expected.reshape(nmu, nphi, 2 * j + 1, 2 * j + 1).sum(axis=1)
        diagonal = np.einsum("mii->im", expected)
        off_diagonal = expected * (1.0 - np.eye(2 * j + 1))
        assert np.abs(off_diagonal).max() < 1e-13
        g = _oracle_label_diagonal(j, helicities, nmu)
        assert g.shape == (2 * j + 1, nmu) and g.dtype == float
        assert np.abs(g - diagonal).max() < 1e-13

    def test_cached_table_is_read_only(self):
        g = _oracle_label_diagonal(1, (-1, 1), 4 * Q.n_theta)
        with pytest.raises(ValueError, match="read-only"):
            g[0] = 0.0

    def test_cached_angular_grid_is_read_only(self):
        khat, weights = _oracle_angular_grid(4 * Q.n_theta, 4 * Q.n_phi)
        for arr in (khat, weights):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_one_table_per_label_structure(self):
        # the diagonal sees neither the weight exponent nor the label basis: one grid
        # builds one table for spherical3 and cartesian3, and one for the three photon
        # families, though the radiation-gauge kernel differs from the cartesian-photon one
        _oracle_label_diagonal.cache_clear()
        kernels = {kind: brute_force_kernel_matrix(StateFamily.of(kind), 10.0 * RHAT, 1.0).entries
                   for kind in THREE_LABEL_KINDS}
        assert _oracle_label_diagonal.cache_info().currsize == 2
        assert not np.allclose(kernels[CARTESIAN_PHOTON], kernels[RADIATION_GAUGE])

    def test_self_sized_spin_j_diagonal_is_cached(self):
        # a self-sized spin-10 overlap at r/a = 20 reads a 21 x 160 diagonal, 27 kB
        family = StateFamily(10, (-1, 1))
        s1 = make_localized_state(family, [0.0, 0.0, 0.0, 20.0], 10, 1.0)
        s2 = make_localized_state(family, np.zeros(4), -1, 1.0)
        _oracle_label_diagonal.cache_clear()
        brute_force_overlap(s1, s2)
        assert _oracle_label_diagonal.cache_info().currsize == 1
        g = _oracle_label_diagonal(10, (-1, 1), 160)
        assert _oracle_label_diagonal.cache_info().hits == 1
        assert g.shape == (21, 160)
        with pytest.raises(ValueError, match="read-only"):
            g[0] = 0.0

    def test_few_azimuths_do_not_alias_the_spin_j_label_part(self):
        # 4 n_phi = 16 azimuths, fewer than 2j = 20: the label part is summed in closed
        # form over azimuth, so the overlap keeps its precision
        family = StateFamily(10, (-10, -3, 1, 4))
        rng = np.random.default_rng(83)
        mixed = rng.normal(size=21) + 1j * rng.normal(size=21)
        s1 = make_localized_state(family, [0.0, 0.3, -0.4, 1.1], 10, 1.0)
        s1 = replace(s1, coefficients=mixed / np.linalg.norm(mixed))
        s2 = make_localized_state(family, [0.0, 0.0, 0.2, 0.0], -3, 1.0)
        q = QuadratureSpec(n_theta=12, n_phi=4, n_radial=32)
        r = np.linalg.norm(s1.x[1:] - s2.x[1:])
        assert dipole_floor_error(brute_force_overlap(s1, s2, q), qm_overlap(s1, s2),
                                  r, 1.0, 0.0) <= 1e-13

    def test_cold_default_tables_build_under_one_second(self):
        q = QuadratureSpec()
        _oracle_label_diagonal.cache_clear()
        start = time.perf_counter()
        for kind in THREE_LABEL_KINDS:
            family = StateFamily.of(kind)
            _oracle_label_diagonal(family.spin, family.helicities, 4 * q.n_theta)
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

    @pytest.mark.parametrize("nmu", [96, 97])
    @pytest.mark.parametrize("r", [0.0, 0.3, 68.0, 999.0])
    def test_mirrored_phase_sum_matches_the_direct_sum(self, monkeypatch, nmu, r):
        # a self-sized grid's shape, nk = nmu, in blocks of 8 polar columns of the lower
        # radial half, the last one partial at odd nmu. The identity table reads S(p) node by
        # node; a table row's contraction rounds on the scale of its absolute sum, which sets
        # the bound
        monkeypatch.setattr(photonloc.overlap, "_ORACLE_BLOCK_POINTS", 8 * -(-nmu // 2))
        rng = np.random.default_rng(nmu)
        k, wk = _oracle_radial_grid(nmu, 1.0)
        wrad = wk * k**2 * np.exp(-k * k)
        polar = r * _oracle_gauss_legendre(nmu)[0]
        tables = [np.eye(nmu)] + [rng.normal(size=(rows, nmu)) + 1j * rng.normal(size=(rows, nmu))
                                  for rows in (1, 9)]
        for table in tables:
            direct = table @ (np.exp(1j * np.outer(polar, k)) @ wrad)
            mirrored = _oracle_polar_radial_sum(table, k, wrad, r, nmu)
            bound = 1e-15 * np.abs(wrad).sum() * np.abs(table).sum(axis=1).max()
            assert np.abs(mirrored - direct).max() <= bound

    @pytest.mark.parametrize("nmu", [96, 97])
    @pytest.mark.parametrize("r", [0.3, 3.0, 10.0])
    @pytest.mark.parametrize("power", [0, 6])
    def test_radial_mirror_holds_for_weights_heavy_on_the_upper_half(self, monkeypatch, nmu,
                                                                     r, power):
        # a flat and a k^6 weight put half and nearly all of the sum on the upper radial
        # nodes, which take their phases off the mirror, e^{i span p} e^{-i k p}: a wrong
        # sign or a lost upper column shows at O(1). The phases round by ~eps (1 + span r)
        # and the sums on the scale of sum |wrad|; the largest error read 0.58 of that
        monkeypatch.setattr(photonloc.overlap, "_ORACLE_BLOCK_POINTS", 8 * -(-nmu // 2))
        k, wk = _oracle_radial_grid(nmu, 1.0)
        wrad = wk * k**power
        direct = np.exp(1j * np.outer(r * _oracle_gauss_legendre(nmu)[0], k)) @ wrad
        mirrored = _oracle_polar_radial_sum(np.eye(nmu), k, wrad, r, nmu)
        bound = 4.0 * np.finfo(float).eps * (1.0 + (k[0] + k[-1]) * r) * np.abs(wrad).sum()
        assert np.abs(mirrored - direct).max() <= bound

    def test_phase_sum_takes_cos_and_sin_on_the_lower_radial_half(self, monkeypatch):
        # a count of the arguments, not a timing: the upper polar half of the lower radial
        # half, plus the span phase once per upper polar node
        family, rvec = StateFamily.of(SPHERICAL_PHOTON), 10.0 * RHAT
        nmu, _, nk = _oracle_node_counts(None, 10.0, 1.0)
        assert (nmu, nk) == (128, 128)
        brute_force_kernel_matrix(family, rvec, 1.0)  # builds the tables
        counts = {"cos": 0, "sin": 0}
        for name in counts:
            def counted(x, *args, _name=name, _ufunc=getattr(np, name), **kwargs):
                counts[_name] += np.size(x)
                return _ufunc(x, *args, **kwargs)
            monkeypatch.setattr(np, name, counted)
        brute_force_kernel_matrix(family, rvec, 1.0)
        upper = -(-nmu // 2)
        assert counts == {"cos": -(-nk // 2) * upper + upper, "sin": -(-nk // 2) * upper + upper}

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
        # overlap at the test spec, which reads its diagonal: a second round builds none
        ladder = [0.0] + [10.0 ** (-1.0 + (k + 0.5) / 3.0) for k in range(9)]
        origin = state_at(SCALAR, [0.0, 0.0, 0.0], 0)

        def round_of_calls():
            for k, r_over_a in enumerate(ladder):
                family = StateFamily.of(THREE_LABEL_KINDS[k % 5])
                brute_force_kernel_matrix(family, r_over_a * RHAT, 1.0)
            brute_force_overlap(state_at(SCALAR, RHAT, 0), origin, Q)
            return _oracle_label_diagonal.cache_info()

        _oracle_label_diagonal.cache_clear()
        before = round_of_calls()
        after = round_of_calls()
        assert after.misses == before.misses
        assert after.currsize <= after.maxsize == 16


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
                    got = _family_kernel(StateFamily(j, helicities, "spherical", (1 - s) / 2),
                                         rvec, a)
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
            longitudinal = _family_kernel(StateFamily(1, (0,), "spherical", 0.5), rvec, a)
            expected = (U.conj().T @ longitudinal @ U).real
            got = transverse_kernel(rvec, a)
            assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()
            for kind in (CARTESIAN3, CARTESIAN_PHOTON, RADIATION_GAUGE):
                family = StateFamily.of(kind)
                s = family.radial_power
                spherical = StateFamily(1, family.helicities, "spherical", (1 - s) / 2)
                expected = U.conj().T @ _family_kernel(spherical, rvec, a) @ U
                got = overlap_kernel_matrix(family, rvec, a).entries
                assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()

    def test_helicity_columns_match_a_finer_legendre_projection(self):
        rng = np.random.default_rng(37)
        for j in range(J_MAX + 1):
            columns = legendre_projection(j)
            for lam, column in columns.items():
                got = _helicity_columns(j, (lam,))
                assert got.shape == (2 * j + 1, 2 * j + 1)
                assert np.abs(got - column).max() < 1e-14
            mask = rng.integers(2, size=2 * j + 1).astype(bool)
            helicities = tuple(lam for lam, keep in zip(range(-j, j + 1), mask) if keep) or (j,)
            expected = sum(columns[lam] for lam in helicities)
            assert np.abs(_helicity_columns(j, helicities) - expected).max() < 1e-14

    def test_helicity_columns_are_the_clebsch_gordan_sum_to_two_ulp(self):
        for j in range(5):
            exact = clebsch_gordan_columns(j)
            for mask in range(1, 2 ** (2 * j + 1)):
                helicities = tuple(lam for b, lam in enumerate(range(-j, j + 1)) if mask >> b & 1)
                got, want = _helicity_columns(j, helicities), exact(helicities)
                for part in ("real", "imag"):
                    got_part, want_part = getattr(got, part), getattr(want, part)
                    assert np.all(got_part[want_part == 0.0] == 0.0)  # no residue on a zero
                    assert np.all(np.abs(got_part - want_part)
                                  <= 2.0 * np.spacing(np.abs(want_part)))

    def test_complete_sets_keep_only_the_delta_order_exactly(self):
        for j in range(J_MAX + 1):
            columns = _helicity_columns(j, tuple(range(-j, j + 1)))
            assert np.all(columns[1:] == 0.0)
            np.testing.assert_allclose(columns[0], 1.0 / (2.0 * np.pi**2), rtol=1e-15)

    def test_racah_integers_are_cached_per_spin_only(self):
        rvec = np.array([0.4, -0.2, 0.9])
        for j in range(1, 4):
            for mask in range(1, 2 ** (2 * j + 1)):
                helicities = [lam for b, lam in enumerate(range(-j, j + 1)) if mask >> b & 1]
                general_j_defect(j, helicities, rvec, 1.0)
        for j in range(J_MAX + 1):
            _family_kernel(StateFamily(j, (j,), "spherical", 0.5), rvec, 1.0)
            v = _racah_integers(j)
            assert len(v) == 2 * j + 1
            assert all(type(row) is tuple and len(row) == 2 * j + 1 for row in v)
            assert all(type(x) is int for row in v for x in row)
        with pytest.raises(ValueError, match=f"at most {J_MAX}"):
            _racah_integers(J_MAX + 1)
        assert _racah_integers.cache_info().currsize <= J_MAX + 1

    def test_helicity_columns_are_read_only_bounded_column_sums(self):
        for j in range(1, 4):
            single = {lam: _helicity_columns(j, (lam,)) for lam in range(-j, j + 1)}
            for mask in range(1, 2 ** (2 * j + 1)):
                helicities = tuple(lam for b, lam in enumerate(range(-j, j + 1)) if mask >> b & 1)
                columns = _helicity_columns(j, helicities)
                expected = sum(single[lam] for lam in helicities)
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


def _draw_proper_subset(data, j):
    """A nonempty proper subset of the spin-j helicities, as a sorted tuple."""
    mask = data.draw(st.lists(st.booleans(), min_size=2 * j + 1, max_size=2 * j + 1)
                     .filter(lambda m: 0 < sum(m) < len(m)), label="mask")
    return tuple(lam for lam, keep in zip(range(-j, j + 1), mask) if keep)


def _draw_oracle_pair(data, spins):
    """Two equal-time states of a drawn family of spin in ``spins``, r/a in [0, 8], and
    the self-sized grid or a small spec, both with more than 2j azimuths. A drawn seed
    places them: a rotated unit label and rotated mixed coefficients."""
    j = data.draw(spins, label="j")
    cartesian = j == 1 and data.draw(st.booleans(), label="cartesian")
    complete = j == 0 or data.draw(st.booleans(), label="complete set")
    helicities = tuple(range(-j, j + 1)) if complete else _draw_proper_subset(data, j)
    weight = data.draw(st.sampled_from((0.5, 1.0)), label="weight exponent")
    family = StateFamily(j, helicities, "cartesian" if cartesian else "spherical", weight)
    a = data.draw(st.floats(0.5, 2.0), label="a")
    r_over_a = data.draw(st.floats(0.0, 8.0), label="r/a")
    spec = data.draw(st.sampled_from((None, QuadratureSpec(4, 6, 4))), label="spec")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x2 = rng.uniform(-2.0, 2.0, size=3) * a
    direction = rng.normal(size=3)
    x1 = x2 + r_over_a * a * direction / np.linalg.norm(direction)
    n = len(family.labels)
    mixed = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    R = rotation_from_axis_angle(rng.normal(size=3), rng.uniform(0.0, np.pi))
    s1, s2 = (make_localized_state(family, np.r_[0.0, R.T @ x], family.labels[0], a)
              for x in (x1, x2))
    return rotate_state(s1, R), rotate_state(replace(s2, coefficients=mixed), R), spec


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
        helicities = _draw_proper_subset(data, j)
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
        scale = _kernel_scale(K, rvec, a, family.radial_power)
        assert np.abs(rotated - M @ K @ M.conj().T).max() <= 1e-12 * scale

    @settings(max_examples=100)
    @given(data=st.data())
    def test_label_trace_of_every_incomplete_set_is_the_delta(self, data):
        # sum_m |d^j_{m lam}|^2 = 1 leaves only the l = 0 order in the trace
        j = data.draw(st.integers(1, J_MAX), label="j")
        helicities = _draw_proper_subset(data, j)
        rvec, a = _draw_separation(data)
        K = overlap_kernel_matrix(StateFamily(j, helicities), rvec, a).entries
        expected = len(helicities) * gaussian_delta(np.linalg.norm(rvec), a)
        assert abs(np.trace(K) - expected) <= 1e-13 * _kernel_scale(K, rvec, a, 0.0)

    @pytest.mark.parametrize("j", [1, 3, 10])
    @settings(max_examples=100)
    @given(data=st.data())
    def test_complete_families_are_the_delta_to_relative_precision(self, j, data):
        # a complete helicity sum leaves the l = 0 order alone, exactly, so the kernel
        # keeps the Gaussian far below the dipole floor
        if j == 1:
            family = StateFamily.of(data.draw(st.sampled_from((SPHERICAL3, CARTESIAN3)),
                                              label="kind"))
        else:
            family = StateFamily(j, tuple(range(-j, j + 1)))
        a = data.draw(st.floats(0.1, 10.0), label="a")
        r_over_a = data.draw(st.floats(0.0, 30.0), label="r/a")
        rvec = r_over_a * a * _draw_unit_vector(data, "direction")
        delta = gaussian_delta(np.linalg.norm(rvec), a)
        K = overlap_kernel_matrix(family, rvec, a).entries
        assert np.abs(K - delta * np.eye(2 * j + 1)).max() <= 1e-12 * delta

    @settings(max_examples=30)
    @given(data=st.data())
    def test_oracle_overlap_of_spin_j_states_matches_production(self, data):
        # the label part is the polar-node diagonal at every spin
        j = data.draw(st.integers(2, J_MAX), label="j")
        family = StateFamily(j, _draw_proper_subset(data, j))
        a = data.draw(st.floats(0.5, 2.0), label="a")
        r_over_a = data.draw(st.floats(0.0, 8.0), label="r/a")
        rvec = r_over_a * a * _draw_unit_vector(data, "direction")
        labels = [data.draw(st.sampled_from(family.labels), label=f"label {i}") for i in (1, 2)]
        s1 = make_localized_state(family, np.r_[0.0, rvec], labels[0], a)
        s2 = make_localized_state(family, np.zeros(4), labels[1], a)
        exact = qm_overlap(s1, s2)
        assert dipole_floor_error(brute_force_overlap(s1, s2), exact, r_over_a * a, a, 0.0) <= 1e-13

    @settings(max_examples=50)
    @given(data=st.data())
    def test_spin_j_kernel_oracle_matches_the_defect(self, data):
        # the oracle's rounding floor grows with r/a: over 13,800 random draws (spins
        # 2-10, r/a to 68) the error read at most 1.6e-15 max(4, r/a)^2, 1.3e-13 at
        # r/a <= 10 and 2.8e-12 at r/a 68
        j = data.draw(st.integers(2, J_MAX), label="j")
        helicities = _draw_proper_subset(data, j)
        a = data.draw(st.floats(0.1, 10.0), label="a")
        r_over_a = data.draw(st.floats(0.0, 68.0), label="r/a")
        rvec = r_over_a * a * _draw_unit_vector(data, "direction")
        K = general_j_defect(j, helicities, rvec, a).entries
        oracle = brute_force_kernel_matrix(_defect_family(j, helicities), rvec, a).entries
        error = np.abs(oracle - K).max() / _kernel_scale(K, rvec, a, 0.0)
        assert error <= 4e-15 * max(4.0, r_over_a) ** 2

    @settings(max_examples=40)
    @given(data=st.data())
    def test_oracle_overlap_is_the_per_node_contraction(self, data):
        # the states' rows on the rotated nodes are those of their aligned coefficients
        # up to a helicity phase, which cancels, and the azimuth rule drops the frame's
        # azimuth about rhat. The two orders of summation round apart on the scale of
        # the oracle's terms, which the phase sum leaves (r/a)^2 above the dipole floor:
        # over 2600 random draws the error reads at most 1.7e-16 (r/a)^2, and up to
        # 8.7e-16 (r/a) at r/a ~ 7
        s1, s2, spec = _draw_oracle_pair(data, st.integers(0, 1))
        a, r = s1.regulator_width, np.linalg.norm(s1.x[1:] - s2.x[1:])
        error = dipole_floor_error(brute_force_overlap(s1, s2, spec),
                                   per_node_overlap(s1, s2, spec), r, a, s1.family.radial_power)
        assert error <= 4e-16 * max(1.0, r / a) ** 2

    @settings(max_examples=20)
    @given(data=st.data())
    def test_spin_j_oracle_overlap_is_the_per_node_contraction(self, data):
        s1, s2, spec = _draw_oracle_pair(data, st.integers(2, J_MAX))
        a, r = s1.regulator_width, np.linalg.norm(s1.x[1:] - s2.x[1:])
        error = dipole_floor_error(brute_force_overlap(s1, s2, spec),
                                   per_node_overlap(s1, s2, spec), r, a, s1.family.radial_power)
        assert error <= 1e-13


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
