"""Tests of correlation estimation, swap averaging, and the full Bell runs."""

import math

import numpy as np
import pytest

from bellsim.harness import (
    REFERENCE_CORRELATIONS_1,
    REFERENCE_CORRELATIONS_2,
    _role_order_settings,
    combine_swapped_runs,
    estimate_correlation,
    experiment_settings,
    reference_bell_results,
    run_experiment,
)
from bellsim.protocol import DetectorParams, SourceParams
from bellsim.states import bell_signal

TSIRELSON = 2.0 * math.sqrt(2.0)
WERNER_P = 0.82667
WERNER_BELL = TSIRELSON * WERNER_P


def _relabel(counts):
    """Swap the photon outcome labels of counts ordered n00, n01, n10, n11."""
    return np.reshape(counts, (2, 2))[:, ::-1].reshape(-1)


class TestEstimateCorrelation:
    def test_perfect_correlation(self):
        q, sigma = estimate_correlation(np.array([500, 0, 0, 500]))
        assert q == 1.0
        assert sigma == 0.0

    def test_partial_correlation(self):
        q, sigma = estimate_correlation(np.array([450, 50, 50, 450]))
        assert q == pytest.approx(0.8, abs=1e-15)
        assert sigma == pytest.approx(math.sqrt(0.36 / 1000.0), abs=1e-12)
        assert sigma == pytest.approx(0.01897, abs=5e-6)

    def test_no_correlation(self):
        q, sigma = estimate_correlation(np.array([250, 250, 250, 250]))
        assert q == 0.0
        assert sigma == pytest.approx(math.sqrt(1.0 / 1000.0), abs=1e-12)

    def test_empty_tally_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            estimate_correlation(np.array([0, 0, 0, 0]))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            estimate_correlation(np.array([-1, 0, 0, 0]))


class TestCombineSwappedRuns:
    def test_symmetric_tallies(self):
        # a swapped tally whose relabeling reproduces the normal one
        normal = np.array([400, 100, 100, 400])
        swapped = _relabel(normal)
        q_combined, _ = combine_swapped_runs(normal, swapped)
        q_single, _ = estimate_correlation(normal)
        assert q_combined == pytest.approx(q_single, abs=1e-15)

    def test_mean_and_error_propagation(self):
        # construct tallies with q1 = 0.6 and q2 = 0.5 at N = 1600 each,
        # then check against hand-propagated values
        normal = np.array([640, 160, 160, 640])  # q = 0.6
        swapped_logical = np.array([600, 200, 200, 600])  # q = 0.5
        swapped = _relabel(swapped_logical)
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
        # the library's relabeling undoes this one: a run passed as its own
        # relabeled swap combines to exactly its own correlation
        counts = np.array([1, 2, 3, 4])
        assert _relabel(counts).tolist() == [2, 1, 4, 3]
        assert _relabel(_relabel(counts)).tolist() == counts.tolist()
        q_combined, _ = combine_swapped_runs(counts, _relabel(counts))
        assert q_combined == estimate_correlation(counts)[0]

    def test_empty_subrun_rejected(self):
        with pytest.raises(ValueError):
            combine_swapped_runs(np.array([0, 0, 0, 0]), np.array([1, 0, 0, 0]))


class TestBellFromCorrelations:
    def test_reference_upper_block(self):
        first, _ = reference_bell_results()
        assert first["bell_value"] == pytest.approx(2.203, abs=5e-4)
        assert first["bell_sigma"] == pytest.approx(0.028, abs=5e-4)

    def test_reference_lower_block(self):
        _, second = reference_bell_results()
        assert second["bell_value"] == pytest.approx(2.218, abs=5e-4)
        assert second["bell_sigma"] == pytest.approx(0.028, abs=5e-4)

    def test_reference_tables_are_presented_in_table_order(self):
        first, second = reference_bell_results()
        for block, table in ((first, REFERENCE_CORRELATIONS_1), (second, REFERENCE_CORRELATIONS_2)):
            rows = [
                (e["theta_ion_pi"], e["theta_photon_pi"], e["correlation"])
                for e in block["correlations"]
            ]
            assert rows == [
                (ts / math.pi, tp / math.pi, table[(ts, tp)])
                for ts, tp in experiment_settings(block["experiment"])
            ]

    def test_all_zero_correlations(self):
        assert bell_signal(0.0, 0.0, 0.0, 0.0) == 0.0


class TestRunExperiment:
    def test_ideal_source_reaches_quantum_maximum(self):
        events = 100_000
        first, second = run_experiment(events, SourceParams(), DetectorParams(), seed=42)
        for result in (first, second):
            assert abs(result["bell_value"] - TSIRELSON) < 3.0 * result["bell_sigma"]
            assert result["events_used"] == 400_000

    def test_werner_source_is_scaled(self):
        events = 100_000
        first, second = run_experiment(
            events, SourceParams(werner_p=WERNER_P), DetectorParams(), seed=42
        )
        for result in (first, second):
            assert abs(result["bell_value"] - WERNER_BELL) < 3.0 * result["bell_sigma"]

    def test_sigma_band_at_reference_scale(self):
        events = 2000
        first, second = run_experiment(
            events, SourceParams(werner_p=WERNER_P), DetectorParams(), seed=9
        )
        for result in (first, second):
            assert 0.02 <= result["bell_sigma"] <= 0.05

    def test_same_seed_reproduces(self):
        events = 2000
        a = run_experiment(events, SourceParams(), DetectorParams(), seed=77)
        b = run_experiment(events, SourceParams(), DetectorParams(), seed=77)
        assert a == b

    def test_sampled_values_stay_physical(self):
        events = 500
        first, second = run_experiment(events, SourceParams(werner_p=0.5), DetectorParams(), seed=1)
        for result in (first, second):
            assert result["bell_value"] <= 4.0
            for estimate in result["correlations"]:
                assert abs(estimate["correlation"]) <= 1.0

    def test_swapped_detector_config_rejected(self):
        with pytest.raises(ValueError, match="normal-role"):
            run_experiment(
                10,
                SourceParams(),
                DetectorParams().with_swapped_pmts(),
                seed=0,
            )

    def test_unbalanced_pmts_cancel_to_first_order(self):
        # strongly asymmetric PMT efficiencies: the combined estimate stays
        # within sampling noise of the true correlation
        events = 100_000
        det = DetectorParams(pmt_efficiency_1=0.95, pmt_efficiency_2=0.55)
        first, _ = run_experiment(events, SourceParams(werner_p=WERNER_P), det, seed=12)
        for estimate in first["correlations"]:
            theta_ion, theta_photon = estimate["theta_ion_pi"], estimate["theta_photon_pi"]
            expected = WERNER_P * math.cos(theta_ion * math.pi - theta_photon * math.pi)
            assert abs(estimate["correlation"] - expected) < 5.0 * estimate["sigma"]

    def test_equal_efficiencies_combined_matches_pooled(self):
        # with symmetric PMTs, equal-weight combination and raw pooling agree
        # within sampling noise
        rng = np.random.default_rng(55)
        from bellsim.protocol import TWO_PULSE, PulseSequence, recorded_outcome_distribution
        from bellsim.states import MeasurementSetting

        source = SourceParams(werner_p=WERNER_P)
        det = DetectorParams()
        pulse = PulseSequence(TWO_PULSE, math.pi / 2)
        setting_p = MeasurementSetting(math.pi / 4)
        counts_normal = rng.multinomial(
            30_001, recorded_outcome_distribution(source, pulse, setting_p, det)
        )
        counts_swapped = rng.multinomial(
            29_000, recorded_outcome_distribution(source, pulse, setting_p, det.with_swapped_pmts())
        )
        q_combined, sigma = combine_swapped_runs(counts_normal, counts_swapped)
        q_pooled, _ = estimate_correlation(counts_normal + _relabel(counts_swapped))
        assert abs(q_combined - q_pooled) < 5.0 * sigma

    def test_reported_sigma_matches_run_to_run_scatter(self):
        # empirical spread of the Bell estimate over repeated seeded runs
        # agrees with the reported multinomial sigma_B within 30%
        events = 10_000
        source = SourceParams(werner_p=WERNER_P)
        values = []
        sigmas = []
        for seed in range(100):
            first, _ = run_experiment(events, source, DetectorParams(), seed=seed)
            values.append(first["bell_value"])
            sigmas.append(first["bell_sigma"])
        scatter = float(np.std(values))
        reported = float(np.mean(sigmas))
        assert abs(scatter - reported) / reported < 0.30


class TestSettingsPlan:
    def test_experiment_one_grid(self):
        assert experiment_settings(1) == [
            (0.0, math.pi / 4),
            (0.0, 3 * math.pi / 4),
            (math.pi / 2, math.pi / 4),
            (math.pi / 2, 3 * math.pi / 4),
        ]

    def test_experiment_two_grid(self):
        assert experiment_settings(2) == [
            (math.pi / 4, 0.0),
            (math.pi / 4, math.pi / 2),
            (3 * math.pi / 4, 0.0),
            (3 * math.pi / 4, math.pi / 2),
        ]

    def test_role_order_settings_follow_the_footer(self):
        # experiment 2: role A is the photon, role B the ion
        assert _role_order_settings(2) == [
            (math.pi / 4, 0.0),
            (3 * math.pi / 4, 0.0),
            (math.pi / 4, math.pi / 2),
            (3 * math.pi / 4, math.pi / 2),
        ]

    def test_rejects_tiny_budget(self):
        with pytest.raises(ValueError, match="at least 2 events"):
            run_experiment(1, SourceParams(), DetectorParams(), seed=0)

    def test_rejects_unknown_experiment(self):
        with pytest.raises(ValueError):
            experiment_settings(3)
