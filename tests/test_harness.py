"""Tests of correlation estimation, swap averaging, and the full Bell runs."""

import math

import numpy as np
import pytest

from bellsim.harness import (
    REFERENCE_CORRELATIONS_1,
    REFERENCE_CORRELATIONS_2,
    BellResult,
    CorrelationTally,
    SettingsPlan,
    bell_from_correlations,
    combine_swapped_runs,
    estimate_correlation,
    reference_bell_results,
    run_experiment,
)
from bellsim.protocol import DetectorParams, SourceParams
from bellsim.states import BellAngles

TSIRELSON = 2.0 * math.sqrt(2.0)
WERNER_P = 0.82667
WERNER_BELL = TSIRELSON * WERNER_P


class TestEstimateCorrelation:
    def test_perfect_correlation(self):
        q, sigma = estimate_correlation(CorrelationTally(500, 0, 0, 500))
        assert q == 1.0
        assert sigma == 0.0

    def test_partial_correlation(self):
        q, sigma = estimate_correlation(CorrelationTally(450, 50, 50, 450))
        assert q == pytest.approx(0.8, abs=1e-15)
        assert sigma == pytest.approx(math.sqrt(0.36 / 1000.0), abs=1e-12)
        assert sigma == pytest.approx(0.01897, abs=5e-6)

    def test_no_correlation(self):
        q, sigma = estimate_correlation(CorrelationTally(250, 250, 250, 250))
        assert q == 0.0
        assert sigma == pytest.approx(math.sqrt(1.0 / 1000.0), abs=1e-12)

    def test_empty_tally_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            estimate_correlation(CorrelationTally(0, 0, 0, 0))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CorrelationTally(-1, 0, 0, 0)


class TestCombineSwappedRuns:
    def test_symmetric_tallies(self):
        # a swapped tally whose relabeling reproduces the normal one
        normal = CorrelationTally(400, 100, 100, 400)
        swapped = normal.with_photon_relabeled()
        q_combined, _ = combine_swapped_runs(normal, swapped)
        q_single, _ = estimate_correlation(normal)
        assert q_combined == pytest.approx(q_single, abs=1e-15)

    def test_mean_and_error_propagation(self):
        # construct tallies with q1 = 0.6 and q2 = 0.5 at N = 1600 each,
        # then check against hand-propagated values
        normal = CorrelationTally(640, 160, 160, 640)  # q = 0.6
        swapped_logical = CorrelationTally(600, 200, 200, 600)  # q = 0.5
        swapped = swapped_logical.with_photon_relabeled()
        q, sigma = combine_swapped_runs(normal, swapped)
        q1, s1 = estimate_correlation(normal)
        q2, s2 = estimate_correlation(swapped_logical)
        assert q == pytest.approx(0.5 * (q1 + q2), abs=1e-15)
        assert sigma == pytest.approx(0.5 * math.hypot(s1, s2), abs=1e-15)

    def test_quoted_propagation_example(self):
        # mean of 0.6 +/- 0.02 and 0.5 +/- 0.02 is 0.55 +/- 0.01414
        sigma = 0.5 * math.hypot(0.02, 0.02)
        assert sigma == pytest.approx(0.01414, abs=5e-6)

    def test_relabeling_is_an_involution(self):
        tally = CorrelationTally(1, 2, 3, 4, pmt_role_swapped=True)
        back = tally.with_photon_relabeled().with_photon_relabeled()
        assert back == tally

    def test_empty_subrun_rejected(self):
        with pytest.raises(ValueError):
            combine_swapped_runs(CorrelationTally(0, 0, 0, 0), CorrelationTally(1, 0, 0, 0))


class TestBellFromCorrelations:
    def test_reference_upper_block(self):
        first, _ = reference_bell_results()
        assert first.bell_value == pytest.approx(2.203, abs=5e-4)
        assert first.bell_sigma == pytest.approx(0.028, abs=5e-4)

    def test_reference_lower_block(self):
        _, second = reference_bell_results()
        assert second.bell_value == pytest.approx(2.218, abs=5e-4)
        assert second.bell_sigma == pytest.approx(0.028, abs=5e-4)

    def test_reference_tables_are_presented_in_table_order(self):
        first, second = reference_bell_results()
        rows_1 = [(e.theta_ion, e.theta_photon, e.correlation) for e in first.correlations]
        assert rows_1 == [
            (ts, tp, REFERENCE_CORRELATIONS_1[(ts, tp)]) for ts, tp in SettingsPlan().experiment_settings(1)
        ]
        rows_2 = [(e.theta_ion, e.theta_photon, e.correlation) for e in second.correlations]
        assert rows_2 == [
            (ts, tp, REFERENCE_CORRELATIONS_2[(ts, tp)]) for ts, tp in SettingsPlan().experiment_settings(2)
        ]

    def test_all_zero_correlations(self):
        zero = (0.0, 0.0)
        result = bell_from_correlations(zero, zero, zero, zero, BellAngles.canonical())
        assert result.bell_value == 0.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            BellResult(correlations=(), bell_value=1.0, bell_sigma=-0.1, events_used=0)


class TestRunExperiment:
    def test_ideal_source_reaches_quantum_maximum(self):
        plan = SettingsPlan(events_per_setting=100_000)
        first, second = run_experiment(plan, SourceParams(), DetectorParams(), seed=42)
        for result in (first, second):
            assert abs(result.bell_value - TSIRELSON) < 3.0 * result.bell_sigma
            assert result.events_used == 400_000

    def test_werner_source_is_scaled(self):
        plan = SettingsPlan(events_per_setting=100_000)
        first, second = run_experiment(
            plan, SourceParams(werner_p=WERNER_P), DetectorParams(), seed=42
        )
        for result in (first, second):
            assert abs(result.bell_value - WERNER_BELL) < 3.0 * result.bell_sigma

    def test_sigma_band_at_reference_scale(self):
        plan = SettingsPlan(events_per_setting=2000)
        first, second = run_experiment(
            plan, SourceParams(werner_p=WERNER_P), DetectorParams(), seed=9
        )
        for result in (first, second):
            assert 0.02 <= result.bell_sigma <= 0.05

    def test_same_seed_reproduces(self):
        plan = SettingsPlan(events_per_setting=2000)
        a = run_experiment(plan, SourceParams(), DetectorParams(), seed=77)
        b = run_experiment(plan, SourceParams(), DetectorParams(), seed=77)
        assert a == b

    def test_sampled_values_stay_physical(self):
        plan = SettingsPlan(events_per_setting=500)
        first, second = run_experiment(plan, SourceParams(werner_p=0.5), DetectorParams(), seed=1)
        for result in (first, second):
            assert result.bell_value <= 4.0
            for estimate in result.correlations:
                assert abs(estimate.correlation) <= 1.0

    def test_swapped_detector_config_rejected(self):
        with pytest.raises(ValueError, match="normal-role"):
            run_experiment(
                SettingsPlan(events_per_setting=10),
                SourceParams(),
                DetectorParams().with_swapped_pmts(),
                seed=0,
            )

    def test_unbalanced_pmts_cancel_to_first_order(self):
        # strongly asymmetric PMT efficiencies: the combined estimate stays
        # within sampling noise of the true correlation
        plan = SettingsPlan(events_per_setting=100_000)
        det = DetectorParams(pmt_efficiency_1=0.95, pmt_efficiency_2=0.55)
        first, _ = run_experiment(plan, SourceParams(werner_p=WERNER_P), det, seed=12)
        for estimate in first.correlations:
            expected = WERNER_P * math.cos(estimate.theta_ion - estimate.theta_photon)
            assert abs(estimate.correlation - expected) < 5.0 * estimate.sigma

    def test_equal_efficiencies_combined_matches_pooled(self):
        # with symmetric PMTs, equal-weight combination and raw pooling agree
        # within sampling noise
        rng = np.random.default_rng(55)
        from bellsim.protocol import TWO_PULSE, PulseSequence, sample_outcome_counts
        from bellsim.states import MeasurementSetting

        source = SourceParams(werner_p=WERNER_P)
        det = DetectorParams()
        pulse = PulseSequence(TWO_PULSE, math.pi / 2)
        setting_p = MeasurementSetting(math.pi / 4)
        counts_normal = sample_outcome_counts(30_001, source, pulse, setting_p, det, rng)
        counts_swapped = sample_outcome_counts(
            29_000, source, pulse, setting_p, det.with_swapped_pmts(), rng
        )
        normal = CorrelationTally.from_counts(counts_normal)
        swapped = CorrelationTally.from_counts(counts_swapped, pmt_role_swapped=True)
        q_combined, sigma = combine_swapped_runs(normal, swapped)
        relabeled = swapped.with_photon_relabeled()
        pooled = CorrelationTally(
            normal.n00 + relabeled.n00,
            normal.n01 + relabeled.n01,
            normal.n10 + relabeled.n10,
            normal.n11 + relabeled.n11,
        )
        q_pooled, _ = estimate_correlation(pooled)
        assert abs(q_combined - q_pooled) < 5.0 * sigma

    def test_reported_sigma_matches_run_to_run_scatter(self):
        # empirical spread of the Bell estimate over repeated seeded runs
        # agrees with the reported multinomial sigma_B within 30%
        plan = SettingsPlan(events_per_setting=10_000)
        source = SourceParams(werner_p=WERNER_P)
        values = []
        sigmas = []
        for seed in range(100):
            first, _ = run_experiment(plan, source, DetectorParams(), seed=seed)
            values.append(first.bell_value)
            sigmas.append(first.bell_sigma)
        scatter = float(np.std(values))
        reported = float(np.mean(sigmas))
        assert abs(scatter - reported) / reported < 0.30


class TestSettingsPlan:
    def test_experiment_one_grid(self):
        plan = SettingsPlan()
        assert plan.experiment_settings(1) == [
            (0.0, math.pi / 4),
            (0.0, 3 * math.pi / 4),
            (math.pi / 2, math.pi / 4),
            (math.pi / 2, 3 * math.pi / 4),
        ]

    def test_experiment_two_grid(self):
        plan = SettingsPlan()
        assert plan.experiment_settings(2) == [
            (math.pi / 4, 0.0),
            (math.pi / 4, math.pi / 2),
            (3 * math.pi / 4, 0.0),
            (3 * math.pi / 4, math.pi / 2),
        ]

    def test_role_order_settings_follow_the_footer(self):
        plan = SettingsPlan()
        # experiment 2: role A is the photon, role B the ion
        assert plan.role_order_settings(2) == [
            (math.pi / 4, 0.0),
            (3 * math.pi / 4, 0.0),
            (math.pi / 4, math.pi / 2),
            (3 * math.pi / 4, math.pi / 2),
        ]

    def test_rejects_tiny_budget(self):
        with pytest.raises(ValueError):
            SettingsPlan(events_per_setting=1)

    def test_rejects_unknown_experiment(self):
        with pytest.raises(ValueError):
            SettingsPlan().experiment_settings(3)
