"""Tests of the two-qubit state algebra, conventions, and CHSH observable."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim.states import (
    HERMITICITY_TOL,
    BellAngles,
    DensityMatrix,
    MeasurementSetting,
    TwoQubitState,
    bell_pair_ideal,
    bell_signal,
    chsh_operator,
    correlation,
    fidelity,
    measurement_axis,
    rotation_matrix,
    werner,
)

from conftest import (
    ATOM,
    PHOTON,
    density,
    oracle_correlation,
    oracle_outcome_probabilities,
    outcome_probabilities,
    random_density_matrices,
    random_pure_pair,
    rotate,
)

TSIRELSON = 2.0 * math.sqrt(2.0)

CANONICAL = BellAngles.canonical()

finite_angles = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


class TestDomainTypes:
    def test_bell_pair_amplitudes(self):
        amps = bell_pair_ideal().amplitudes
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(amps, [inv_sqrt2, 0.0, 0.0, inv_sqrt2], atol=1e-15)

    def test_pure_state_rejects_bad_norm(self):
        with pytest.raises(ValueError, match="norm"):
            TwoQubitState(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_pure_state_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            TwoQubitState(np.array([1.0, 0.0]))

    def test_density_matrix_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    _OFF_DIAGONAL = [(i, j) for i in range(4) for j in range(i + 1, 4)]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        entries=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=32, max_size=32),
        size=st.floats(min_value=1e-13, max_value=1e-11),
        phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
        pair=st.integers(min_value=0, max_value=5),
    )
    @example(entries=[0.0] * 32, size=1e-12, phase=0.0, pair=0)
    @example(entries=[0.0] * 32, size=1e-12, phase=math.pi / 2, pair=5)
    @example(entries=[0.3] * 32, size=1e-12, phase=0.0, pair=2)
    @example(entries=[0.0] * 32, size=float(np.nextafter(1e-12, 1.0)), phase=0.0, pair=1)
    def test_hermiticity_decision_matches_allclose(self, entries, size, phase, pair):
        # A positive, trace-1 Hermitian matrix plus an anti-Hermitian perturbation
        # whose only nonzero pair of entries leaves |m - m^dagger| = size there.
        a = (np.array(entries[:16]) + 1j * np.array(entries[16:])).reshape(4, 4)
        h = a @ a.conj().T + np.eye(4)
        h = (h + h.conj().T) / 2.0
        m = h / np.trace(h).real
        i, j = self._OFF_DIAGONAL[pair]
        k = 0.5 * size * complex(math.cos(phase), math.sin(phase))
        m[i, j] += k
        m[j, i] -= k.conjugate()
        expected = np.allclose(m, m.conj().T, atol=HERMITICITY_TOL, rtol=0)
        try:
            DensityMatrix(m)
            accepted = True
        except ValueError as exc:
            assert "Hermitian" in str(exc)
            accepted = False
        assert accepted == expected

    @pytest.mark.parametrize(
        "index, value",
        [
            ((0, 0), np.inf),
            ((2, 2), -np.inf),
            ((0, 1), np.inf),
            ((3, 1), complex(np.inf, np.inf)),
            ((1, 1), np.nan),
            ((0, 3), complex(0.0, np.nan)),
        ],
    )
    def test_density_matrix_rejects_non_finite_entries(self, index, value):
        m = np.eye(4, dtype=complex) / 4.0
        m[index] = value
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    def test_density_matrix_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(4, dtype=complex))

    def test_density_matrix_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(m)

    def test_density_matrix_leaves_the_callers_array_writable(self):
        m = np.eye(4, dtype=complex) / 4.0
        rho = DensityMatrix(m)
        m[0, 1] = 0.1
        assert rho.matrix[0, 1] == 0.0
        assert not rho.matrix.flags.writeable

    @given(theta=finite_angles, phi=finite_angles)
    def test_setting_canonicalization_preserves_axis(self, theta, phi):
        setting = MeasurementSetting(theta, phi)
        assert 0.0 <= setting.theta <= math.pi
        assert 0.0 <= setting.phi < 2.0 * math.pi
        assert MeasurementSetting(setting.theta, setting.phi) == setting
        raw = np.array(
            [
                -math.sin(theta) * math.cos(phi),
                -math.sin(theta) * math.sin(phi),
                math.cos(theta),
            ]
        )
        np.testing.assert_allclose(measurement_axis(setting), raw, atol=1e-9)

    def test_setting_rejects_non_finite(self):
        with pytest.raises(ValueError):
            MeasurementSetting(math.nan)

    def test_setting_is_an_immutable_value(self):
        """Immutable, hashed, printed and rebuilt from its fields; only the
        constructor canonicalizes, ``_replace`` keeps what it is given."""
        setting = MeasurementSetting(-0.3)
        with pytest.raises(AttributeError):
            setting.theta = 1.0
        assert hash(setting) == hash((setting.theta, setting.phi))
        assert repr(setting) == f"MeasurementSetting(theta={setting.theta!r}, phi={math.pi!r})"
        assert MeasurementSetting(*setting) == setting
        assert setting._replace(theta=-0.3).theta == -0.3


class TestRotation:
    def test_identity_rotation_is_exact(self, rng):
        state = TwoQubitState(random_pure_pair(rng))
        for phi in (0.0, 1.3, 5.0):
            rotated = rotate(state, ATOM, MeasurementSetting(0.0, phi))
            np.testing.assert_array_equal(rotated.amplitudes, state.amplitudes)

    def test_single_qubit_probability_formula(self):
        # (|0> + |1>)/sqrt(2) rotated by (theta, phi): P(0) = (1 - cos(phi) sin(theta))/2
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        for theta in np.linspace(0.0, math.pi, 9):
            for phi in np.linspace(0.0, 2.0 * math.pi, 11):
                u = rotation_matrix(MeasurementSetting(theta, phi))
                got = abs((u @ plus)[0]) ** 2
                assert got == pytest.approx((1.0 - math.cos(phi) * math.sin(theta)) / 2.0, abs=1e-12)

    def test_pi_rotation_swaps_populations(self):
        rotated = rotate(bell_pair_ideal(), ATOM, MeasurementSetting(math.pi, 0.0))
        f00, f01, f10, f11 = outcome_probabilities(
            density(rotated), MeasurementSetting(0.0), MeasurementSetting(0.0)
        )
        assert f01 == pytest.approx(0.5, abs=1e-12)
        assert f10 == pytest.approx(0.5, abs=1e-12)
        assert f00 == pytest.approx(0.0, abs=1e-12)
        assert f11 == pytest.approx(0.0, abs=1e-12)

    def test_rotation_preserves_norm_and_positivity(self, rng):
        state = TwoQubitState(random_pure_pair(rng))
        rho = DensityMatrix(random_density_matrices(rng, 1)[0])
        for _ in range(20):
            setting = MeasurementSetting(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            qubit = ATOM if rng.random() < 0.5 else PHOTON
            state = rotate(state, qubit, setting)
            rho = rotate(rho, qubit, setting)
        # construction re-validates: norm, hermiticity, trace, positivity
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-10

    def test_matches_projector_oracle_on_random_states(self, rng):
        for _ in range(25):
            rho = random_density_matrices(rng, 1)[0]
            sa = (rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            sb = (rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            got = outcome_probabilities(
                DensityMatrix(rho), MeasurementSetting(*sa), MeasurementSetting(*sb)
            )
            np.testing.assert_allclose(got, oracle_outcome_probabilities(rho, sa, sb), atol=1e-12)


class TestOutcomeProbabilities:
    def test_aligned_schmidt_basis(self):
        fractions = outcome_probabilities(
            werner(1.0), MeasurementSetting(0.0), MeasurementSetting(0.0)
        )
        np.testing.assert_allclose(fractions, [0.5, 0.0, 0.0, 0.5], atol=1e-12)

    def test_quarter_turn_populations(self):
        f00, f01, f10, f11 = outcome_probabilities(
            werner(1.0), MeasurementSetting(0.0), MeasurementSetting(math.pi / 4)
        )
        expected_same = (1.0 + math.cos(math.pi / 4)) / 4.0  # 0.42677669...
        expected_diff = (1.0 - math.cos(math.pi / 4)) / 4.0  # 0.07322330...
        assert f00 == pytest.approx(expected_same, abs=1e-12)
        assert f11 == pytest.approx(expected_same, abs=1e-12)
        assert f01 == pytest.approx(expected_diff, abs=1e-12)
        assert f10 == pytest.approx(expected_diff, abs=1e-12)
        assert f00 == pytest.approx(0.42678, abs=5e-6)

    def test_maximally_mixed_is_rotation_invariant(self, rng):
        mixed = DensityMatrix(np.eye(4, dtype=complex) / 4.0)
        for _ in range(10):
            sa = MeasurementSetting(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            sb = MeasurementSetting(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            np.testing.assert_allclose(
                outcome_probabilities(mixed, sa, sb), [0.25] * 4, atol=1e-12
            )

    def test_fractions_sum_to_one_and_match_correlation(self, rng):
        for rho in random_density_matrices(rng, 50):
            sa = MeasurementSetting(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            sb = MeasurementSetting(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            f00, f01, f10, f11 = outcome_probabilities(DensityMatrix(rho), sa, sb)
            assert abs(f00 + f01 + f10 + f11 - 1.0) < 1e-12
            # q = 2(f00 + f11) - 1
            q = correlation(DensityMatrix(rho), sa, sb)
            assert q == pytest.approx(2.0 * (f00 + f11) - 1.0, abs=1e-12)


class TestCorrelation:
    def test_ideal_pair_law_on_grid(self):
        pair = werner(1.0)
        for theta_a in np.linspace(0.0, math.pi, 10):
            for theta_b in np.linspace(0.0, math.pi, 10):
                q = correlation(pair, MeasurementSetting(theta_a), MeasurementSetting(theta_b))
                assert abs(q - math.cos(theta_a - theta_b)) < 1e-12

    def test_aligned_bases_are_perfectly_correlated(self):
        pair = werner(1.0)
        for theta in (0.0, 0.3, math.pi / 4, 2.5):
            q = correlation(pair, MeasurementSetting(theta), MeasurementSetting(theta))
            assert q == pytest.approx(1.0, abs=1e-12)

    def test_quarter_turn_value(self):
        q = correlation(werner(1.0), MeasurementSetting(math.pi / 4), MeasurementSetting(0.0))
        assert q == pytest.approx(math.cos(math.pi / 4), abs=1e-12)

    def test_werner_scales_the_law(self):
        p = 0.82667
        q = correlation(werner(p), MeasurementSetting(math.pi / 4), MeasurementSetting(0.0))
        assert q == pytest.approx(p * math.cos(math.pi / 4), abs=1e-12)
        assert q == pytest.approx(0.58454, abs=5e-6)
        oracle = oracle_correlation(werner(p).matrix, (math.pi / 4, 0.0), (0.0, 0.0))
        assert q == pytest.approx(oracle, abs=1e-12)


class TestBellSignal:
    def _ideal_q(self, theta_a, theta_b):
        return correlation(werner(1.0), MeasurementSetting(theta_a), MeasurementSetting(theta_b))

    def test_canonical_maximum(self):
        q22 = self._ideal_q(math.pi / 2, 3 * math.pi / 4)
        q12 = self._ideal_q(0.0, 3 * math.pi / 4)
        q21 = self._ideal_q(math.pi / 2, math.pi / 4)
        q11 = self._ideal_q(0.0, math.pi / 4)
        assert bell_signal(q22, q12, q21, q11) == pytest.approx(TSIRELSON, abs=1e-12)

    def test_reference_upper_block(self):
        assert bell_signal(0.613, -0.519, 0.513, 0.558) == pytest.approx(2.203, abs=1e-12)

    def test_product_state_at_canonical_angles(self):
        # q = cos(theta_a) * cos(theta_b) for |0s0p>
        product = density(TwoQubitState(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)))
        q = lambda a, b: correlation(product, MeasurementSetting(a), MeasurementSetting(b))
        for theta_a in (0.0, math.pi / 2):
            for theta_b in (math.pi / 4, 3 * math.pi / 4):
                assert q(theta_a, theta_b) == pytest.approx(
                    math.cos(theta_a) * math.cos(theta_b), abs=1e-12
                )
        value = bell_signal(
            q(math.pi / 2, 3 * math.pi / 4),
            q(0.0, 3 * math.pi / 4),
            q(math.pi / 2, math.pi / 4),
            q(0.0, math.pi / 4),
        )
        assert value == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert value == pytest.approx(1.41421, abs=5e-6)

    def test_rejects_out_of_range_correlation(self):
        with pytest.raises(ValueError, match="outside"):
            bell_signal(1.1, 0.0, 0.0, 0.0)

    @given(
        q=st.tuples(*(st.floats(min_value=-1, max_value=1) for _ in range(4)))
    )
    def test_algebraic_ceiling_is_four(self, q):
        assert bell_signal(*q) <= 4.0 + 1e-12

    def test_tsirelson_ceiling_random_states_and_angles(self, rng):
        n = 10_000
        rhos = random_density_matrices(rng, n)
        thetas = rng.uniform(0.0, math.pi, size=(n, 4))
        phis = rng.uniform(0.0, 2.0 * math.pi, size=(n, 4))
        # batched axis observables for each of the four settings
        operators = []
        sx, sy, sz = (
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.diag([1.0, -1.0]).astype(complex),
        )
        for k in range(4):
            mx = -np.sin(thetas[:, k]) * np.cos(phis[:, k])
            my = -np.sin(thetas[:, k]) * np.sin(phis[:, k])
            mz = np.cos(thetas[:, k])
            operators.append(
                mx[:, None, None] * sx + my[:, None, None] * sy + mz[:, None, None] * sz
            )
        a1, a2, b1, b2 = operators
        qs = {}
        for (i, a), (j, b) in [
            ((1, a1), (1, b1)),
            ((1, a1), (2, b2)),
            ((2, a2), (1, b1)),
            ((2, a2), (2, b2)),
        ]:
            joint = np.einsum("nij,nkl->nikjl", a, b).reshape(n, 4, 4)
            qs[(i, j)] = np.real(np.einsum("nij,nji->n", rhos, joint))
        values = np.abs(qs[(2, 2)] - qs[(1, 2)]) + np.abs(qs[(2, 1)] + qs[(1, 1)])
        assert float(values.max()) <= TSIRELSON + 1e-9


class TestFidelity:
    def test_self_fidelity(self):
        pair = bell_pair_ideal()
        assert fidelity(density(pair), pair) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_overlap(self):
        mixed = DensityMatrix(np.eye(4, dtype=complex) / 4.0)
        assert fidelity(mixed, bell_pair_ideal()) == pytest.approx(0.25, abs=1e-12)

    def test_werner_value(self):
        p = 0.82667
        expected = p + (1.0 - p) / 4.0  # 0.8700025
        assert fidelity(werner(p), bell_pair_ideal()) == pytest.approx(expected, abs=1e-12)
        assert fidelity(werner(p), bell_pair_ideal()) == pytest.approx(0.87, abs=5e-6)

    def test_linearity_in_the_state(self, rng):
        target = bell_pair_ideal()
        for _ in range(20):
            rho1, rho2 = random_density_matrices(rng, 2)
            lam = rng.uniform()
            mixed = DensityMatrix(lam * rho1 + (1.0 - lam) * rho2)
            combined = lam * fidelity(DensityMatrix(rho1), target) + (1.0 - lam) * fidelity(
                DensityMatrix(rho2), target
            )
            assert fidelity(mixed, target) == pytest.approx(combined, abs=1e-12)


class TestWerner:
    def test_endpoints(self):
        np.testing.assert_allclose(
            werner(1.0).matrix, density(bell_pair_ideal()).matrix, atol=1e-15
        )
        np.testing.assert_allclose(werner(0.0).matrix, np.eye(4) / 4.0, atol=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            werner(1.2)
        with pytest.raises(ValueError):
            werner(-0.1)


class TestChshOperator:
    def test_canonical_spectrum(self):
        eigenvalues = np.linalg.eigvalsh(chsh_operator(CANONICAL))
        np.testing.assert_allclose(
            sorted(eigenvalues), [-TSIRELSON, 0.0, 0.0, TSIRELSON], atol=1e-12
        )

    @pytest.mark.parametrize(
        "state, expected",
        [(werner(1.0), TSIRELSON), (werner(0.82667), TSIRELSON * 0.82667)],
        ids=["ideal", "werner"],
    )
    def test_ideal_pair_expectation(self, state, expected):
        rho = state.matrix
        value = np.real(np.trace(rho @ chsh_operator(CANONICAL)))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_traceless(self):
        assert abs(np.trace(chsh_operator(CANONICAL))) < 1e-12

    def test_hermitian_for_random_angles(self, rng):
        for _ in range(10):
            angles = BellAngles(
                *(
                    MeasurementSetting(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
                    for _ in range(4)
                )
            )
            op = chsh_operator(angles)
            assert np.allclose(op, op.conj().T, atol=1e-12)

    def test_consistent_with_correlations(self, rng):
        # Tr(rho O) must equal the signed combination q22 - q12 + q21 + q11.
        for _ in range(1000):
            rho = DensityMatrix(random_density_matrices(rng, 1)[0])
            angles = BellAngles(
                *(
                    MeasurementSetting(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
                    for _ in range(4)
                )
            )
            q = {
                (i, j): correlation(rho, a, b)
                for i, a in ((1, angles.a1), (2, angles.a2))
                for j, b in ((1, angles.b1), (2, angles.b2))
            }
            signed = q[(2, 2)] - q[(1, 2)] + q[(2, 1)] + q[(1, 1)]
            traced = float(np.real(np.trace(rho.matrix @ chsh_operator(angles))))
            assert traced == pytest.approx(signed, abs=1e-10)
