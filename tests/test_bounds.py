"""Tests of the extremal Bell windows, LHV enumeration, and angle scans."""

import math

import numpy as np
import pytest
from conftest import bisection_window, canonical_window
from hypothesis import example, given
from hypothesis import strategies as st

from bellsim.bounds import (
    LHV_BOUND,
    TSIRELSON_BOUND,
    enumerate_strategies,
    extremal_bell_numeric,
    tsirelson_scan,
)
from bellsim.states import (
    BellAngles,
    DensityMatrix,
    MeasurementSetting,
    bell_pair_ideal,
    chsh_operator,
    fidelity,
    werner,
)

CANONICAL = BellAngles.canonical()


def _window(f, angles=CANONICAL):
    result = extremal_bell_numeric(f, angles)
    return result.bell_min, result.bell_max


def _density(ket):
    """The validated density matrix of a witness ket."""
    return DensityMatrix(np.outer(ket, ket))


class TestClosedForm:
    """The solver's window at the canonical angles against 2*sqrt(2)*[2F - 1, F]."""

    def test_reference_fidelity_window(self):
        b_min, b_max = _window(0.87)
        assert (b_min, b_max) == pytest.approx(canonical_window(0.87), abs=1e-12)
        assert b_min == pytest.approx(2.0930, abs=5e-5)
        assert b_max == pytest.approx(2.4607, abs=5e-5)
        # the published claim, after rounding
        assert round(b_min, 2) == 2.09
        assert round(b_max, 2) == 2.46

    def test_pure_target(self):
        b_min, b_max = _window(1.0)
        assert b_min == pytest.approx(TSIRELSON_BOUND, abs=1e-12)
        assert b_max == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_three_quarters(self):
        b_min, b_max = _window(0.75)
        assert b_min == pytest.approx(1.41421, abs=5e-6)
        assert b_max == pytest.approx(2.12132, abs=5e-6)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            _window(1.01)
        with pytest.raises(ValueError):
            _window(-0.2)

    def test_monotone_maximum_over_sweep(self):
        values = [_window(f)[1] for f in np.linspace(0.0, 1.0, 50)]
        assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(values, values[1:]))


class TestNumericExtremes:
    def test_matches_closed_form_at_reference_fidelity(self):
        result = extremal_bell_numeric(0.87, CANONICAL)
        closed_min, closed_max = canonical_window(0.87)
        assert result.bell_max == pytest.approx(closed_max, abs=1e-9)
        assert result.bell_min == pytest.approx(closed_min, abs=1e-9)
        assert result.converged
        assert result.duality_gap <= 1e-9

    def test_fully_constrained_at_unit_fidelity(self):
        result = extremal_bell_numeric(1.0, CANONICAL)
        assert result.bell_min == pytest.approx(TSIRELSON_BOUND, abs=1e-9)
        assert result.bell_max == pytest.approx(TSIRELSON_BOUND, abs=1e-9)

    @pytest.mark.parametrize("f", [0.6, 0.75, 0.87, 0.95])
    def test_brackets_closed_form(self, f):
        closed_min, closed_max = canonical_window(f)
        result = extremal_bell_numeric(f, CANONICAL)
        assert result.bell_min == pytest.approx(closed_min, abs=1e-9)
        assert result.bell_max == pytest.approx(closed_max, abs=1e-9)
        assert result.bell_max <= TSIRELSON_BOUND + 1e-9

    def test_witnesses_satisfy_constraint(self):
        result = extremal_bell_numeric(0.87, CANONICAL)
        target = bell_pair_ideal()
        for witness in map(_density, (result.witness_min, result.witness_max)):
            assert abs(fidelity(witness, target) - 0.87) < 1e-6
            eigenvalues = np.linalg.eigvalsh(witness.matrix)
            assert eigenvalues.min() > -1e-10
            assert np.trace(witness.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_abs_form_never_below_signed(self):
        result = extremal_bell_numeric(0.8, CANONICAL)
        assert result.abs_form_max >= result.bell_max - 1e-9
        assert result.abs_form_min >= result.bell_min - 1e-9

    def test_low_fidelity_flagged_but_computed(self):
        result = extremal_bell_numeric(0.3, CANONICAL)
        assert result.out_of_regime
        closed_min, closed_max = canonical_window(0.3)
        assert result.bell_min == pytest.approx(closed_min, abs=1e-9)
        assert result.bell_min < 0.0
        assert result.bell_max == pytest.approx(closed_max, abs=1e-9)

    def test_degenerate_optimum_takes_phi_minus(self):
        """At the canonical angles W vanishes on (Phi-, Psi+), so the maximum's
        witness is not unique; the solver's fixed rule puts the rest on Phi-."""
        f = 0.3
        result = extremal_bell_numeric(f, CANONICAL)
        r = math.sqrt(0.5)
        phi_plus, phi_minus = np.array([r, 0.0, 0.0, r]), np.array([r, 0.0, 0.0, -r])
        expected = math.sqrt(f) * phi_plus + math.sqrt(1.0 - f) * phi_minus
        assert np.allclose(result.witness_max, expected, rtol=0.0, atol=1e-12)
        assert result.abs_form_max == pytest.approx(result.bell_max, abs=1e-12)

    def test_constraint_rejects_bad_fidelity(self):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            extremal_bell_numeric(1.3, CANONICAL)


# Every setting the solver accepts: theta anywhere, azimuth 0 or pi (canonicalisation
# of theta outside [0, pi] flips one into the other).
_SETTINGS = st.builds(
    MeasurementSetting,
    st.floats(-3.0 * math.pi, 3.0 * math.pi),
    st.sampled_from((0.0, math.pi)),
)
# The custom angles (1.5, 0.4, -0.15, 0.9)*pi: a1 and b1 canonicalise to azimuth pi.
_AZIMUTH_PI = vars(BellAngles.from_thetas(*(a * math.pi for a in (1.5, 0.4, -0.15, 0.9))))
_Z = MeasurementSetting(0.0, 0.0)


def _dual_bound(w, projector, f, lambdas):
    """Smallest l*f + lambda_max(W - l*P) on a grid: an upper bound on max Tr(rho W)."""
    return min(lam * f + np.linalg.eigvalsh(w - lam * projector)[-1] for lam in lambdas)


class TestDualCertificate:
    """Each extreme must be attained by a feasible witness, lie below
    every value of the SDP dual, and match the bisection oracle."""

    def _check(self, f, angles):
        result = extremal_bell_numeric(f, angles)
        target = bell_pair_ideal()
        w = chsh_operator(angles)
        projector = np.outer(target.amplitudes, target.amplitudes.conj())
        extremes = ((result.witness_max, result.bell_max), (result.witness_min, result.bell_min))
        for ket, value in extremes:
            witness = _density(ket)
            assert abs(fidelity(witness, target) - f) <= 1e-9
            assert np.linalg.eigvalsh(witness.matrix).min() >= -1e-12
            assert np.trace(witness.matrix).real == pytest.approx(1.0, abs=1e-12)
            assert float(np.real(np.trace(witness.matrix @ w))) == pytest.approx(value, abs=1e-9)
        lambdas = np.linspace(-40.0, 40.0, 161)
        assert result.bell_max <= _dual_bound(w, projector, f, lambdas) + 1e-9
        assert -result.bell_min <= _dual_bound(-w, projector, f, lambdas) + 1e-9
        assert result.converged
        oracle = bisection_window(f, w)
        assert (result.bell_min, result.bell_max) == pytest.approx(oracle, abs=1e-12)
        return result

    @given(
        f=st.floats(0.0, 1.0),
        a1=_SETTINGS,
        a2=_SETTINGS,
        b1=_SETTINGS,
        b2=_SETTINGS,
    )
    @example(f=0.0, **_AZIMUTH_PI)
    @example(f=1e-30, **_AZIMUTH_PI)
    @example(f=0.5, **_AZIMUTH_PI)
    @example(f=1.0 - 1e-16, **_AZIMUTH_PI)
    @example(f=1.0, **_AZIMUTH_PI)
    # Equal thetas leave |h| at the rounding level, with noise on the top eigenvector;
    # a dual evaluated at m = 1e-15 there had a gap of 0.09.
    @example(
        f=0.5,
        a1=MeasurementSetting(0.5, 0.0),
        a2=MeasurementSetting(0.5, math.pi),
        b1=MeasurementSetting(0.5, math.pi),
        b2=MeasurementSetting(0.5, 0.0),
    )
    def test_witnesses_and_weak_duality(self, f, a1, a2, b1, b2):
        self._check(f, BellAngles(a1, a2, b1, b2))

    # A tiny but nonzero azimuth is out of the plane as much as phi = 1 is.
    @pytest.mark.parametrize(
        "f, phi", [(0.5, 1.0), (0.5, 1e-300), (0.87, 1e-300), (0.5, 2.225073858507e-311)]
    )
    def test_out_of_plane_setting_is_rejected(self, f, phi):
        angles = BellAngles(_Z, _Z, MeasurementSetting(1.0, phi), _Z)
        with pytest.raises(ValueError, match="out of the x-z plane"):
            extremal_bell_numeric(f, angles)

    @pytest.mark.parametrize("f", [0.0, 1.0])
    def test_endpoint_fidelities_at_custom_angles(self, f):
        angles = BellAngles.from_thetas(*(a * math.pi for a in (0.1, 0.4, 0.15, 0.9)))
        result = self._check(f, angles)
        assert abs(result.duality_gap) <= 1e-12
        w = chsh_operator(angles)
        projector = werner(1.0).matrix
        if f == 1.0:
            expected = float(np.real(np.trace(projector @ w)))
            assert result.bell_min == pytest.approx(expected, abs=1e-12)
            assert result.bell_max == pytest.approx(expected, abs=1e-12)
        else:
            # Extremes of W on the complement of the target, with the target
            # direction pushed out of the way.
            q = np.eye(4) - projector
            assert result.bell_max == pytest.approx(
                np.linalg.eigvalsh(q @ w @ q - 100.0 * projector)[-1], abs=1e-12
            )
            assert result.bell_min == pytest.approx(
                np.linalg.eigvalsh(q @ w @ q + 100.0 * projector)[0], abs=1e-12
            )


class TestLhv:
    def test_maximum_is_two(self):
        values = [value for _, value in enumerate_strategies()]
        assert max(values) == LHV_BOUND

    def test_every_strategy_is_at_most_two(self):
        for (a1, a2, b1, b2), value in enumerate_strategies():
            assert value <= LHV_BOUND + 1e-15
            assert value == abs(a2 * b2 - a1 * b2) + abs(a2 * b1 + a1 * b1)

    def test_sixteen_strategies(self):
        table = enumerate_strategies()
        assert len(table) == 16
        assert len({strategy for strategy, _ in table}) == 16
        assert {outcome for strategy, _ in table for outcome in strategy} == {-1, 1}

    def test_all_plus_strategy(self):
        assert dict(enumerate_strategies())[(1, 1, 1, 1)] == pytest.approx(2.0, abs=1e-15)

    def test_uniform_mixture_cancels(self):
        # mixture-level correlations: mean of a_i * b_j over all strategies
        q = {(i, j): 0.0 for i in (1, 2) for j in (1, 2)}
        for (a1, a2, b1, b2), _ in enumerate_strategies():
            q[(1, 1)] += a1 * b1 / 16.0
            q[(1, 2)] += a1 * b2 / 16.0
            q[(2, 1)] += a2 * b1 / 16.0
            q[(2, 2)] += a2 * b2 / 16.0
        mixed = abs(q[(2, 2)] - q[(1, 2)]) + abs(q[(2, 1)] + q[(1, 1)])
        assert mixed == pytest.approx(0.0, abs=1e-15)

    @given(entry=st.sampled_from(enumerate_strategies()))
    def test_deterministic_value_is_exactly_two(self, entry):
        # |a2 b2 - a1 b2| + |a2 b1 + a1 b1| = |b2||a2 - a1| + |b1||a2 + a1| = 2
        _, value = entry
        assert value == 2.0


class TestTsirelsonScan:
    def test_canonical_resolution_recovers_maximum(self):
        result = tsirelson_scan(64)
        assert abs(result.bell_value - TSIRELSON_BOUND) < 1e-9

    def test_coarse_grid_stays_below_ceiling(self):
        result = tsirelson_scan(8)
        assert result.bell_value <= TSIRELSON_BOUND + 1e-12

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            tsirelson_scan(7)

    def test_rejects_grid_above_ceiling_before_allocating(self):
        # (N + 1)^2 work arrays at N = 1e8 would need about 80 PB
        with pytest.raises(ValueError, match="grid resolution"):
            tsirelson_scan(100_000_000)

    def test_argmax_realizes_reported_value(self):
        result = tsirelson_scan(32)
        a1, a2, b1, b2 = result.thetas
        q = lambda x, y: math.cos(x - y)
        recomputed = abs(q(a2, b2) - q(a1, b2)) + abs(q(a2, b1) + q(a1, b1))
        assert recomputed == pytest.approx(result.bell_value, abs=1e-12)

    def test_optimal_b_family_for_fixed_a(self):
        # brute-force oracle: with a1 = 0, a2 = pi/2 fixed, the optimal
        # (b1, b2) lie in the (pi/4, 3*pi/4) family
        thetas = np.arange(65) * (math.pi / 64)
        a1, a2 = 0.0, math.pi / 2

        def partial_bell(b1, b2):
            q = lambda x, y: math.cos(x - y)
            return abs(q(a2, b2) - q(a1, b2)) + abs(q(a2, b1) + q(a1, b1))

        best = max(
            ((partial_bell(b1, b2), b1, b2) for b1 in thetas for b2 in thetas),
            key=lambda item: item[0],
        )
        value, b1, b2 = best
        assert value == pytest.approx(TSIRELSON_BOUND, abs=1e-12)
        assert {round(b1 / math.pi, 6), round(b2 / math.pi, 6)} == {0.25, 0.75}


class TestSettingsInteroperability:
    def test_numeric_extremes_with_custom_angles(self):
        # suboptimal angles reduce the attainable window
        angles = BellAngles(
            MeasurementSetting(0.0),
            MeasurementSetting(math.pi / 3),
            MeasurementSetting(math.pi / 4),
            MeasurementSetting(2 * math.pi / 3),
        )
        result = extremal_bell_numeric(1.0, angles)
        operator = chsh_operator(angles)
        expected = float(np.real(np.trace(werner(1.0).matrix @ operator)))
        assert result.bell_max == pytest.approx(expected, abs=1e-9)
        assert result.bell_max < TSIRELSON_BOUND
