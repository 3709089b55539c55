"""Tests of the stochastic entanglement-pipeline model."""

import hashlib
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from conftest import oracle_outcome_probabilities, outcome_probabilities
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim.protocol import (
    BRIGHT,
    DARK,
    SINGLE_PULSE,
    TWO_PULSE,
    DetectorParams,
    EventRecord,
    PulseSequence,
    SourceParams,
    iter_heralded_events,
    recorded_outcome_distribution,
    simulate_attempts,
    _atom_stage,
    _photon_stage,
    _read_out,
    _readout_coefficients,
    _recorded_chain,
)
from bellsim.states import (
    EIGENVALUE_FLOOR,
    HERMITICITY_TOL,
    TRACE_TOL,
    DensityMatrix,
    MeasurementSetting,
    TwoQubitState,
    bell_pair_ideal,
    correlation,
    rotation_matrix,
    werner,
)

angle = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def _atoms(state: np.ndarray) -> np.ndarray:
    """One atom ket or 2x2 density matrix as a stack of one density matrix."""
    rho = np.outer(state, state.conj()) if state.ndim == 1 else state
    return np.asarray(rho, dtype=complex)[None]


class TestSourceParams:
    def test_default_success_probability(self):
        assert SourceParams().success_probability == pytest.approx(2.0e-4, abs=1e-18)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            SourceParams(excitation_probability=1.5)
        with pytest.raises(ValueError):
            SourceParams(excitation_window=0.0)

    def test_expected_event_budget(self):
        # 20 minutes at the default repetition rate
        params = SourceParams()
        attempts = 1200.0 * params.repetition_rate
        assert attempts * params.success_probability == pytest.approx(1992.0, abs=1e-9)


class TestPulseSequence:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            PulseSequence(mode="three_pulse", rotation_theta=0.1)

    def test_two_pulse_common_offset_leaves_state_unchanged(self, rng):
        atom = _atoms(np.array([0.6, 0.8j]))
        for _ in range(20):
            theta = rng.uniform(0.0, math.pi)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            transfer = rng.uniform(0.0, 2.0 * math.pi)
            offset = rng.uniform(-10.0, 10.0)
            base = _readout_coefficients(atom, PulseSequence(TWO_PULSE, theta, phi, transfer))
            shifted = _readout_coefficients(
                atom, PulseSequence(TWO_PULSE, theta, phi + offset, transfer + offset)
            )
            np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-12)

    def test_zero_theta_is_transfer_only(self):
        # theta = 0: populations move |1> -> |1~> untouched
        a, b = _readout_coefficients(_atoms(np.array([0.6, 0.8])), PulseSequence(TWO_PULSE, 0.0))
        np.testing.assert_allclose([a[0], abs(b[0])], [0.36, 0.0], atol=1e-15)

    def test_single_pulse_phase_tracks_arrival_time(self):
        # a quarter precession period adds pi/2 to the rotation azimuth
        atom = _atoms(np.array([0.6, 0.8j]))
        seq = PulseSequence(SINGLE_PULSE, math.pi / 2, rotation_phase=0.0)
        a, b = _readout_coefficients(atom, seq)
        quarter = a[0] + (b[0] * np.exp(-0.5j * math.pi)).real  # a = 2 pi f / (4 f)
        a_turned, b_turned = _readout_coefficients(atom, replace(seq, rotation_phase=math.pi / 2))
        assert quarter == pytest.approx(a_turned[0] + b_turned[0].real, abs=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        theta=angle,
        phi=angle,
        frequency=st.floats(min_value=1e6, max_value=2e10),
        mixed=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_single_pulse_batch_matches_per_event_rotation(
        self, theta, phi, frequency, mixed, seed
    ):
        # Per event: U_t = D U D^dagger with D = diag(1, e^{2 pi i f t}).
        rng = np.random.default_rng(seed)
        n = 12
        arrival = rng.uniform(0.0, 50e-9, n)
        amplitudes = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
        if not mixed:
            amplitudes[:, :, 1] = 0.0
        states = amplitudes @ np.conj(np.swapaxes(amplitudes, 1, 2))
        states /= np.trace(states, axis1=1, axis2=2)[:, None, None]
        seq = PulseSequence(SINGLE_PULSE, theta, phi, microwave_frequency=frequency)
        u = rotation_matrix(MeasurementSetting(theta, phi))
        expected = []
        for state, t in zip(states, arrival):
            d = np.diag([1.0, np.exp(2j * math.pi * frequency * t)])
            u_t = d @ u @ d.conj().T
            expected.append((u_t @ state @ u_t.conj().T)[0, 0].real)
        a, b = _readout_coefficients(states, seq)
        p_bright = a + (b * np.exp(-2j * math.pi * frequency * arrival)).real
        np.testing.assert_allclose(p_bright, expected, rtol=0, atol=1e-12)

    def test_single_pulse_washout(self):
        # uniform arrivals across a 50 ns window at 14.5 GHz erase the contrast
        rng = np.random.default_rng(99)
        seq = PulseSequence(SINGLE_PULSE, math.pi / 2)
        window = 50e-9
        n = 10_000
        a, b = _readout_coefficients(_atoms(np.array([1.0, 1.0]) / math.sqrt(2.0)), seq)
        arrival = rng.uniform(0.0, window, n)
        p_bright = a[0] + (b[0] * np.exp(-2j * math.pi * seq.microwave_frequency * arrival)).real
        bright = np.count_nonzero(_read_out(p_bright, DetectorParams(), rng) == BRIGHT)
        assert abs(bright / n - 0.5) < 5.0 / math.sqrt(n)


class TestMeasurePhoton:
    pulse = PulseSequence(TWO_PULSE, 0.0)  # transfer only: the atom keeps its label
    setting_p = MeasurementSetting(0.0)

    def test_dead_pmt_records_only_the_other(self, rng):
        det = DetectorParams(pmt_efficiency_2=0.0)
        events = list(
            iter_heralded_events(500, SourceParams(), self.pulse, self.setting_p, det, rng)
        )
        assert events and all(event.photon_outcome == 0 for event in events)

    def test_swapped_roles_relabel_the_tube(self, rng):
        # with PMT 2 dead and roles swapped, only polarization outcome 1 survives
        det = DetectorParams(pmt_efficiency_2=0.0).with_swapped_pmts()
        assert det.pmt_role_swapped
        events = list(
            iter_heralded_events(500, SourceParams(), self.pulse, self.setting_p, det, rng)
        )
        assert events
        for event in events:
            assert event.photon_outcome == 0
            assert event.atom_outcome == DARK


class TestMeasureAtom:
    def test_pure_dark_state(self, rng):
        assert np.all(_read_out(np.zeros(100), DetectorParams(), rng) == DARK)

    def test_misclassification_accuracy(self):
        rng = np.random.default_rng(3)
        det = DetectorParams.experiment_like()
        n = 40_000
        correct_bright = np.count_nonzero(_read_out(np.ones(n), det, rng) == BRIGHT)
        correct_dark = np.count_nonzero(_read_out(np.zeros(n), det, rng) == DARK)
        sigma = math.sqrt(n * 0.975 * 0.025)
        assert abs(correct_bright - 0.975 * n) < 5.0 * sigma
        assert abs(correct_dark - 0.975 * n) < 5.0 * sigma

    def test_maximally_mixed_atom_is_unbiased(self):
        rng = np.random.default_rng(4)
        mixed = _atoms(np.eye(2, dtype=complex) / 2.0)
        a, b = _readout_coefficients(mixed, PulseSequence(TWO_PULSE, 1.1, 0.4))
        det = DetectorParams(atom_bright_error=0.3, atom_dark_error=0.3)
        n = 40_000
        bright = np.count_nonzero(_read_out(np.full(n, a[0] + b[0].real), det, rng) == BRIGHT)
        assert abs(bright / n - 0.5) < 5.0 / (2.0 * math.sqrt(n))


class TestRunTrial:
    certain = SourceParams(excitation_probability=1.0, collection_efficiency=1.0,
                           detector_quantum_efficiency=1.0)

    def test_aligned_settings_perfectly_correlated(self):
        # Schmidt collapse: each photon outcome leaves the atom in the matching state
        rng = np.random.default_rng(17)
        pulse = PulseSequence(TWO_PULSE, 0.0)
        events = simulate_attempts(
            300, self.certain, pulse, MeasurementSetting(0.0), DetectorParams(), rng
        )
        assert len(events) == 300
        assert all(event.atom_outcome == event.photon_outcome for event in events)
        assert all(0.0 <= e.arrival_time <= self.certain.excitation_window for e in events)

    def test_event_record_fields(self):
        rng = np.random.default_rng(23)
        pulse = PulseSequence(TWO_PULSE, math.pi / 2)
        (event,) = simulate_attempts(
            1, self.certain, pulse, MeasurementSetting(math.pi / 4), DetectorParams(), rng
        )
        assert isinstance(event, EventRecord)
        assert event.attempt_index == 0
        assert 0.0 <= event.arrival_time <= self.certain.excitation_window
        assert event.setting_s.theta == pytest.approx(math.pi / 2)
        assert event.setting_p.theta == pytest.approx(math.pi / 4)
        assert not event.pmt_role_swapped

    def test_event_record_is_an_immutable_hashable_record(self):
        event = EventRecord(4, 1e-8, MeasurementSetting(0.1), MeasurementSetting(0.2), 1, 0, True)
        with pytest.raises(AttributeError):
            event.atom_outcome = 1
        assert hash(event) == hash(event._replace(atom_outcome=0))
        assert len({event, event._replace(atom_outcome=1)}) == 2
        assert EventRecord._fields == (
            "attempt_index", "arrival_time", "setting_s", "setting_p",
            "photon_outcome", "atom_outcome", "pmt_role_swapped",
        )

    def test_seeded_runs_are_identical(self):
        source = SourceParams()
        pulse = PulseSequence(TWO_PULSE, math.pi / 2)
        setting_p = MeasurementSetting(math.pi / 4)
        det = DetectorParams()
        streams = []
        for _ in range(2):
            rng = np.random.default_rng(2024)
            streams.append(simulate_attempts(200_000, source, pulse, setting_p, det, rng))
        assert streams[0] == streams[1]
        assert len(streams[0]) > 10


class TestEventBudget:
    def test_ten_million_attempts_yield_about_two_thousand(self):
        rng = np.random.default_rng(8)
        source = SourceParams()
        pulse = PulseSequence(TWO_PULSE, 0.0)
        events = simulate_attempts(
            10_000_000, source, pulse, MeasurementSetting(math.pi / 4), DetectorParams(), rng
        )
        expected = 10_000_000 * source.success_probability
        sigma = math.sqrt(expected * (1.0 - source.success_probability))
        assert abs(len(events) - expected) < 5.0 * sigma


def _tally_events(events) -> np.ndarray:
    counts = np.zeros(4, dtype=int)
    for event in events:
        counts[2 * event.atom_outcome + event.photon_outcome] += 1
    return counts


class TestSamplingConsistency:
    def test_counts_converge_to_exact_fractions(self):
        # equal efficiencies, no readout errors: recorded = quantum fractions
        rng = np.random.default_rng(31)
        source = SourceParams()
        pulse = PulseSequence(TWO_PULSE, math.pi / 2)
        setting_p = MeasurementSetting(math.pi / 4)
        det = DetectorParams()
        n = 100_000
        counts = rng.multinomial(n, recorded_outcome_distribution(source, pulse, setting_p, det))
        exact = outcome_probabilities(werner(1.0), MeasurementSetting(math.pi / 2), setting_p)
        for observed, f in zip(counts, exact):
            band = 5.0 * math.sqrt(f * (1.0 - f) / n)
            assert abs(observed / n - f) <= band

    def test_event_chain_converges_to_exact_fractions(self):
        rng = np.random.default_rng(37)
        source = SourceParams()
        pulse = PulseSequence(TWO_PULSE, math.pi / 2)
        setting_p = MeasurementSetting(math.pi / 4)
        det = DetectorParams()
        n = 50_000
        counts = _tally_events(
            iter_heralded_events(n, source, pulse, setting_p, det, rng)
        )
        exact = outcome_probabilities(werner(1.0), MeasurementSetting(math.pi / 2), setting_p)
        for observed, f in zip(counts, exact):
            band = 5.0 * math.sqrt(f * (1.0 - f) / n)
            assert abs(observed / n - f) <= band

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        werner_p=st.floats(0.0, 1.0),
        theta_atom=angle,
        rotation_phase=angle,
        theta_photon=angle,
        phi_photon=angle,
    )
    @example(werner_p=1.0, theta_atom=math.pi / 2, rotation_phase=0.0, theta_photon=math.pi / 4,
             phi_photon=0.0)
    def test_closed_form_obeys_the_convention_law(
        self, werner_p, theta_atom, rotation_phase, theta_photon, phi_photon
    ):
        # The samplers rotate and read out; ``correlation`` traces against
        # M_a (x) M_b.  With ideal detectors the two routes give one number.
        pulse = PulseSequence(TWO_PULSE, theta_atom, rotation_phase)
        photon = MeasurementSetting(theta_photon, phi_photon)
        f00, f01, f10, f11 = recorded_outcome_distribution(
            SourceParams(werner_p=werner_p), pulse, photon, DetectorParams()
        )
        expected = correlation(werner(werner_p), pulse.effective_setting, photon)
        assert abs(f00 + f11 - f01 - f10 - expected) <= 1e-12

    def test_two_sampling_paths_agree(self):
        # the closed-form conditional distribution matches the event chain,
        # including asymmetric PMT acceptance and readout flips
        source = SourceParams(werner_p=0.9)
        pulse = PulseSequence(TWO_PULSE, math.pi / 2)
        setting_p = MeasurementSetting(3 * math.pi / 4)
        det = DetectorParams(
            pmt_efficiency_1=0.9,
            pmt_efficiency_2=0.5,
            atom_bright_error=0.02,
            atom_dark_error=0.05,
        )
        n = 40_000
        rng = np.random.default_rng(41)
        counts_fast = rng.multinomial(
            n, recorded_outcome_distribution(source, pulse, setting_p, det)
        )
        counts_chain = _tally_events(
            iter_heralded_events(n, source, pulse, setting_p, det, np.random.default_rng(43))
        )
        expected = recorded_outcome_distribution(source, pulse, setting_p, det)
        for counts in (counts_fast, counts_chain):
            for observed, f in zip(counts, expected):
                band = 5.0 * math.sqrt(f * (1.0 - f) / n)
                assert abs(observed / n - f) <= band

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(
        werner_p=st.floats(0.0, 1.0),
        theta_atom=st.floats(0.0, math.pi),
        theta_photon=st.floats(0.0, math.pi),
        pmt_efficiency_1=st.floats(0.05, 1.0),
        pmt_efficiency_2=st.floats(0.05, 1.0),
        bright_error=st.floats(0.0, 0.2),
        dark_error=st.floats(0.0, 0.2),
        dark_event_probability=st.floats(0.0, 1e-3),
        swapped=st.booleans(),
        mode=st.sampled_from([TWO_PULSE, SINGLE_PULSE]),
        window=st.floats(1e-13, 5e-8),
        rotation_phase=st.floats(0.0, 2.0 * math.pi),
    )
    def test_event_chain_matches_closed_form_everywhere(
        self, werner_p, theta_atom, theta_photon, pmt_efficiency_1, pmt_efficiency_2,
        bright_error, dark_error, dark_event_probability, swapped, mode, window, rotation_phase,
    ):
        source = SourceParams(werner_p=werner_p, excitation_window=window)
        pulse = PulseSequence(mode, theta_atom, rotation_phase)
        setting_p = MeasurementSetting(theta_photon)
        det = DetectorParams(
            pmt_efficiency_1=pmt_efficiency_1,
            pmt_efficiency_2=pmt_efficiency_2,
            atom_bright_error=bright_error,
            atom_dark_error=dark_error,
            dark_event_probability=dark_event_probability,
            waveplate_angle=math.pi / 4 if swapped else 0.0,
        )
        n = 5000
        counts = _tally_events(
            iter_heralded_events(n, source, pulse, setting_p, det, np.random.default_rng(97))
        )
        expected = recorded_outcome_distribution(source, pulse, setting_p, det)
        assert np.all(expected >= 0.0)
        assert abs(expected.sum() - 1.0) <= 1e-12
        for observed, f in zip(counts, expected):
            band = 5.0 * math.sqrt(f * (1.0 - f) / n)
            assert abs(observed / n - f) <= band

    def test_acceptance_factor_reflects_pmt_loss(self):
        # Each heralded attempt records with probability 0.4, so recording n
        # events takes a negative-binomial count of heralded attempts: mean
        # n / 0.4, variance n * 0.6 / 0.4**2.
        source = SourceParams()
        pulse = PulseSequence(TWO_PULSE, 0.0)
        det = DetectorParams(pmt_efficiency_1=0.4, pmt_efficiency_2=0.4)
        n = 2000
        events = list(
            iter_heralded_events(
                n, source, pulse, MeasurementSetting(0.0), det, np.random.default_rng(89)
            )
        )
        attempts = events[-1].attempt_index + 1
        assert abs(attempts - n / 0.4) <= 5.0 * math.sqrt(n * 0.6) / 0.4


class TestDarkEvents:
    def test_default_off(self):
        assert DetectorParams().dark_event_probability == 0.0

    def test_dark_events_carry_no_correlation(self):
        # darks as likely as real events: the measured correlation halves
        source = SourceParams()
        pulse = PulseSequence(TWO_PULSE, math.pi / 2)
        setting_p = MeasurementSetting(math.pi / 4)
        p_true = source.success_probability
        det = DetectorParams(dark_event_probability=p_true / (1.0 - p_true))
        probabilities = recorded_outcome_distribution(source, pulse, setting_p, det)
        q = probabilities[0] + probabilities[3] - probabilities[1] - probabilities[2]
        clean = math.cos(math.pi / 2 - math.pi / 4)
        assert q == pytest.approx(clean / 2.0, abs=1e-12)

    def test_dark_only_source_is_uncorrelated(self):
        rng = np.random.default_rng(61)
        source = SourceParams(excitation_probability=0.0)
        pulse = PulseSequence(TWO_PULSE, math.pi / 2)
        det = DetectorParams(dark_event_probability=0.01)
        events = simulate_attempts(
            100_000, source, pulse, MeasurementSetting(math.pi / 4), det, rng
        )
        assert len(events) > 500
        counts = _tally_events(events)
        n = counts.sum()
        q = (counts[0] + counts[3] - counts[1] - counts[2]) / n
        assert abs(q) < 5.0 / math.sqrt(n)
        # ground-state atom through a pi/2 pulse: bright half the time
        bright = counts[0] + counts[1]
        assert abs(bright / n - 0.5) < 5.0 / (2.0 * math.sqrt(n))

    def test_event_chain_matches_closed_form_with_darks(self):
        source = SourceParams()
        pulse = PulseSequence(TWO_PULSE, math.pi / 3)
        setting_p = MeasurementSetting(math.pi / 4)
        det = DetectorParams(dark_event_probability=1e-4)
        n = 30_000
        counts = _tally_events(
            iter_heralded_events(n, source, pulse, setting_p, det, np.random.default_rng(67))
        )
        expected = recorded_outcome_distribution(source, pulse, setting_p, det)
        for observed, f in zip(counts, expected):
            band = 5.0 * math.sqrt(f * (1.0 - f) / n)
            assert abs(observed / n - f) <= band

    def test_simulate_attempts_matches_closed_form_with_darks(self):
        # darks make up a third of the heralds: a dark mask drawn at the
        # per-attempt dark probability instead of the dark share fails here
        source = SourceParams(werner_p=0.85, excitation_probability=1.0)  # 2e-3 per attempt
        pulse = PulseSequence(TWO_PULSE, math.pi / 3)
        setting_p = MeasurementSetting(math.pi / 4)
        det = DetectorParams(
            pmt_efficiency_1=0.9,
            pmt_efficiency_2=0.5,
            atom_bright_error=0.02,
            atom_dark_error=0.05,
            dark_event_probability=source.success_probability / 2.0,
        )
        counts = _tally_events(
            simulate_attempts(
                5_000_000, source, pulse, setting_p, det, np.random.default_rng(73)
            )
        )
        n = counts.sum()
        assert n > 5000
        expected = recorded_outcome_distribution(source, pulse, setting_p, det)
        for observed, f in zip(counts, expected):
            band = 5.0 * math.sqrt(f * (1.0 - f) / n)
            assert abs(observed / n - f) <= band

    def test_run_trial_emits_dark_events(self):
        rng = np.random.default_rng(71)
        source = SourceParams(excitation_probability=0.0)
        pulse = PulseSequence(TWO_PULSE, 0.0)
        det = DetectorParams(dark_event_probability=0.5)
        hits = simulate_attempts(100, source, pulse, MeasurementSetting(0.0), det, rng)
        assert 10 < len(hits) < 90
        # theta = 0 leaves the ground-state atom bright
        assert all(e.atom_outcome == BRIGHT for e in hits)


def _single_pulse_oracle(werner_p, pulse, theta_photon, det, window) -> np.ndarray:
    """Recorded (atom, PMT) fractions from Bloch-axis projectors, averaged over arrivals."""
    pair = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    rho = werner_p * np.outer(pair, pair) + (1.0 - werner_p) * np.eye(4) / 4.0
    n_times = 4001
    times = (np.arange(n_times) + 0.5) * window / n_times
    joint = np.mean(
        [
            oracle_outcome_probabilities(
                rho,
                (pulse.rotation_theta,
                 pulse.rotation_phase + 2.0 * math.pi * pulse.microwave_frequency * t),
                (theta_photon, 0.0),
            )
            for t in times
        ],
        axis=0,
    ).reshape(2, 2)  # [atom, photon outcome]
    flip = np.array(
        [[1.0 - det.atom_bright_error, det.atom_dark_error],
         [det.atom_bright_error, 1.0 - det.atom_dark_error]]
    )
    recorded = flip @ joint
    swapped = int(det.pmt_role_swapped)
    recorded = recorded[:, [swapped, 1 - swapped]] * [det.pmt_efficiency_1, det.pmt_efficiency_2]
    return (recorded / recorded.sum()).reshape(-1)


class TestSinglePulseChain:
    points = pytest.mark.parametrize(
        "werner_p, window, rotation_phase",
        [
            (1.0, 50e-9, 0.0),  # 725 precession periods: the azimuth washes out
            (1.0, 1e-11, 0.7),  # 0.145 periods: arrival time shifts the azimuth
            (0.82667, 1e-11, 0.7),
        ],
    )
    theta_photon = math.pi / 4
    det = DetectorParams(
        pmt_efficiency_1=0.9,
        pmt_efficiency_2=0.6,
        atom_bright_error=0.03,
        atom_dark_error=0.05,
        waveplate_angle=math.pi / 4,
    )

    @points
    def test_tallies_match_arrival_averaged_oracle(self, werner_p, window, rotation_phase):
        source = SourceParams(werner_p=werner_p, excitation_window=window)
        pulse = PulseSequence(SINGLE_PULSE, math.pi / 2, rotation_phase=rotation_phase)
        n = 20_000
        counts = _tally_events(
            iter_heralded_events(
                n, source, pulse, MeasurementSetting(self.theta_photon), self.det,
                np.random.default_rng(101),
            )
        )
        expected = _single_pulse_oracle(werner_p, pulse, self.theta_photon, self.det, window)
        for observed, f in zip(counts, expected):
            band = 5.0 * math.sqrt(f * (1.0 - f) / n)
            assert abs(observed / n - f) <= band

    @points
    def test_closed_form_matches_arrival_averaged_oracle(self, werner_p, window, rotation_phase):
        source = SourceParams(werner_p=werner_p, excitation_window=window)
        pulse = PulseSequence(SINGLE_PULSE, math.pi / 2, rotation_phase=rotation_phase)
        expected = recorded_outcome_distribution(
            source, pulse, MeasurementSetting(self.theta_photon), self.det
        )
        oracle = _single_pulse_oracle(werner_p, pulse, self.theta_photon, self.det, window)
        np.testing.assert_allclose(expected, oracle, rtol=0, atol=1e-7)


def _bright_probability(rho: np.ndarray, theta: float, phi: float) -> float:
    """Bright (|0>) population of a 2x2 atom state after the rotation U(theta, phi)."""
    u = rotation_matrix(MeasurementSetting(theta, phi))
    return float((u @ rho @ u.conj().T)[0, 0].real)


class TestAtomStage:
    """The samplers' atom stage against an oracle built from validated states."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        werner_p=st.floats(min_value=0.0, max_value=1.0),
        theta=angle,
        phi=angle,
        mode=st.sampled_from([TWO_PULSE, SINGLE_PULSE]),
        rotation_theta=angle,
        rotation_phase=angle,
        transfer_phase=angle,
    )
    @example(werner_p=0.0, theta=0.3, phi=1.1, mode=TWO_PULSE,
             rotation_theta=0.7, rotation_phase=0.2, transfer_phase=-0.4)
    @example(werner_p=1.0, theta=math.pi / 4, phi=0.0, mode=SINGLE_PULSE,
             rotation_theta=math.pi / 2, rotation_phase=0.7, transfer_phase=0.0)
    def test_matches_validated_state_oracle(
        self, werner_p, theta, phi, mode, rotation_theta, rotation_phase, transfer_phase
    ):
        source = SourceParams(werner_p=werner_p)
        pulse = PulseSequence(mode, rotation_theta, rotation_phase, transfer_phase)
        photon = MeasurementSetting(theta, phi)
        probs, a, b = _atom_stage(source, pulse, photon)

        # Oracle: the validated source state, its photon rotated by kron(I, U).
        if werner_p == 1.0:
            amps = bell_pair_ideal().amplitudes
            rho = np.outer(amps, amps.conj())
        else:
            rho = werner(werner_p).matrix
        np.testing.assert_allclose(
            oracle_outcome_probabilities(rho, (0.0, 0.0), (photon.theta, photon.phi))
            .reshape(2, 2).sum(axis=0),
            probs, rtol=0, atol=1e-12,
        )
        full = np.kron(np.eye(2), rotation_matrix(photon))
        rotated = (full @ rho @ full.conj().T).reshape(2, 2, 2, 2)
        ground = np.diag([1.0, 0.0])
        atoms = [rotated[:, o, :, o] / probs[o] if probs[o] > 0.0 else ground for o in range(2)]
        # p_bright(a) = A + Re(B e^{-ia}) at precession phases a = 0, pi and pi/2.
        phase = rotation_phase - transfer_phase if mode == TWO_PULSE else rotation_phase
        for atom, a_i, b_i in zip([*atoms, ground], a, b):
            at_zero, at_pi, at_half_pi = (
                _bright_probability(atom, rotation_theta, phase + shift)
                for shift in (0.0, math.pi, math.pi / 2)
            )
            expected_a = 0.5 * (at_zero + at_pi)
            np.testing.assert_allclose(
                [a_i, b_i.real, b_i.imag],
                [expected_a, 0.5 * (at_zero - at_pi), at_half_pi - expected_a],
                rtol=0, atol=1e-12,
            )

        _, stacked = _photon_stage(source, photon)
        for atom in stacked:
            assert np.abs(atom - atom.conj().T).max() <= HERMITICITY_TOL
            assert abs(np.trace(atom) - 1.0) <= TRACE_TOL
            assert np.linalg.eigvalsh(atom).min() >= EIGENVALUE_FLOOR

    @pytest.mark.parametrize("mode", [TWO_PULSE, SINGLE_PULSE])
    @pytest.mark.parametrize("werner_p", [1.0, 0.82667])
    def test_samplers_build_no_validated_state(self, monkeypatch, werner_p, mode):
        calls = []

        def counted(validate):
            return lambda self: calls.append(type(self).__name__) or validate(self)

        for cls in (DensityMatrix, TwoQubitState):
            monkeypatch.setattr(cls, "__post_init__", counted(cls.__post_init__))
        werner(0.5)  # the counter sees a validation outside the samplers
        assert calls
        calls.clear()
        source = SourceParams(werner_p=werner_p)
        pulse = PulseSequence(mode, math.pi / 2)
        photon = MeasurementSetting(math.pi / 4)
        det = DetectorParams.experiment_like()
        rng = np.random.default_rng(3)
        assert len(list(iter_heralded_events(2000, source, pulse, photon, det, rng))) == 2000
        assert simulate_attempts(10_000_000, source, pulse, photon, det, rng)
        recorded_outcome_distribution(source, pulse, photon, det)
        assert calls == []


class TestAttemptIndices:
    source = SourceParams(excitation_probability=1.0)  # 2e-3 per attempt
    pulse = PulseSequence(TWO_PULSE, 0.3)
    setting_p = MeasurementSetting(0.6)
    det = DetectorParams(pmt_efficiency_1=0.5, pmt_efficiency_2=0.7, dark_event_probability=1e-3)

    def test_simulate_attempts_indices_increase_inside_the_block(self):
        n_attempts = 2_500_000  # heralds spread over the whole block
        events = simulate_attempts(
            n_attempts, self.source, self.pulse, self.setting_p, self.det,
            np.random.default_rng(103),
        )
        indices = [event.attempt_index for event in events]
        assert len(indices) > 1000
        assert all(a < b for a, b in zip(indices, indices[1:]))
        assert indices[0] >= 0 and indices[-1] < n_attempts
        assert indices[-1] > 0.9 * n_attempts

    def test_heralded_event_indices_increase(self):
        n = 20_000
        events = list(
            iter_heralded_events(
                n, self.source, self.pulse, self.setting_p, self.det,
                np.random.default_rng(107),
            )
        )
        indices = [event.attempt_index for event in events]
        assert len(indices) == n
        assert indices[0] >= 0
        assert all(a < b for a, b in zip(indices, indices[1:]))


class TestHeraldGate:
    pulse = PulseSequence(TWO_PULSE, 0.3)
    setting_p = MeasurementSetting(0.6)

    def test_cost_does_not_grow_with_attempts(self):
        # No clock here: a gate that draws per attempt cannot finish 1e12
        # attempts at all (8 TB of uniforms, or a million 1e6-attempt chunks).
        source = SourceParams(excitation_probability=1e-8)  # 2e-11 per attempt
        n_attempts = 10**12
        events = simulate_attempts(
            n_attempts, source, self.pulse, self.setting_p, DetectorParams(),
            np.random.default_rng(109),
        )
        mean = n_attempts * source.success_probability
        assert abs(len(events) - mean) < 5.0 * math.sqrt(mean)
        indices = [event.attempt_index for event in events]
        assert len(indices) > 0
        assert all(a < b for a, b in zip(indices, indices[1:]))
        assert indices[0] >= 0 and indices[-1] < n_attempts

    def test_negative_attempts_record_nothing(self):
        source = SourceParams(excitation_probability=1.0)
        events = simulate_attempts(
            -5, source, self.pulse, self.setting_p, DetectorParams(), np.random.default_rng(131)
        )
        assert events == []

    def test_zero_probability_records_nothing(self):
        source = SourceParams(excitation_probability=0.0)
        det = DetectorParams()
        assert source.success_probability == det.dark_event_probability == 0.0
        events = simulate_attempts(
            10**9, source, self.pulse, self.setting_p, det, np.random.default_rng(113)
        )
        assert events == []

    @settings(deadline=None, derandomize=True)
    @given(
        excitation=st.sampled_from((0.0, 0.1, 1.0)),
        efficiency_1=st.sampled_from((0.0, 0.5)),
        efficiency_2=st.sampled_from((0.0, 0.5)),
        dark_rate=st.sampled_from((0.0, 1e-3)),
        waveplate=st.booleans(),
    )
    def test_event_sampler_raises_exactly_when_closed_form_does(
        self, excitation, efficiency_1, efficiency_2, dark_rate, waveplate
    ):
        # a source that never heralds, or whose heralds are never recorded,
        # has no recorded-outcome distribution and yields no events
        source = SourceParams(excitation_probability=excitation)
        det = DetectorParams(
            pmt_efficiency_1=efficiency_1, pmt_efficiency_2=efficiency_2,
            dark_event_probability=dark_rate,
        )
        if waveplate:
            det = det.with_swapped_pmts()
        try:
            recorded_outcome_distribution(source, self.pulse, self.setting_p, det)
        except ValueError:
            closed_form_raises = True
        else:
            closed_form_raises = False
        events = iter_heralded_events(
            5, source, self.pulse, self.setting_p, det, np.random.default_rng(137)
        )
        if closed_form_raises:
            with pytest.raises(ValueError, match="no outcome is ever recorded"):
                list(events)
        else:
            assert len(list(events)) == 5

    @pytest.mark.parametrize("efficiency", [5e-324, 1e-320])
    def test_event_sampler_raises_past_the_attempt_index_range(self, monkeypatch, efficiency):
        # The closed form records here, but n / acceptance is past 2**63 - 1
        # (at 5e-324 the acceptance even rounds to 0): the sampler raises
        # before any draw.  The stub chain makes a regression fail, not hang.
        calls = []

        def chain(*args):
            calls.append(args)
            if len(calls) > 3:
                raise RuntimeError("the sampler kept drawing")
            return []

        monkeypatch.setattr("bellsim.protocol._recorded_chain", chain)
        source = SourceParams()
        det = DetectorParams(pmt_efficiency_1=efficiency, pmt_efficiency_2=efficiency)
        recorded_outcome_distribution(source, self.pulse, self.setting_p, det)
        events = iter_heralded_events(
            5, source, self.pulse, self.setting_p, det, np.random.default_rng(139)
        )
        with pytest.raises(ValueError, match=r"acceptance .* 2\*\*63 - 1"):
            list(events)
        assert calls == []

    @pytest.mark.parametrize("efficiency", [1e-12, 1e-15])
    def test_tiny_acceptance_takes_one_chain_call(self, monkeypatch, efficiency):
        # 5 events at acceptance ~1e-15 lie ~5e15 heralded attempts apart, but
        # the attempts between them are drawn as geometric gaps: one chain call.
        calls = []

        def chain(*args):
            calls.append(args)
            return _recorded_chain(*args)

        monkeypatch.setattr("bellsim.protocol._recorded_chain", chain)
        det = DetectorParams(pmt_efficiency_1=efficiency, pmt_efficiency_2=efficiency)
        events = iter_heralded_events(
            5, SourceParams(), self.pulse, self.setting_p, det, np.random.default_rng(149)
        )
        indices = [event.attempt_index for event in events]
        assert len(calls) == 1
        assert len(indices) == 5 and indices[0] >= 0
        assert all(a < b for a, b in zip(indices, indices[1:]))

    def test_event_sampler_raises_when_the_drawn_gaps_pass_the_index_range(self):
        # 8 events at acceptance ~1e-18 pass the check before the draw (8 <
        # 1e-18 * (2**63 - 1)), but with seed 1 their gaps sum past 2**63 - 1,
        # where numpy clips a gap and the cumsum of gaps wraps.
        det = DetectorParams(pmt_efficiency_1=1e-18, pmt_efficiency_2=1e-18)

        def sample(seed):
            return list(
                iter_heralded_events(
                    8, SourceParams(), self.pulse, self.setting_p, det,
                    np.random.default_rng(seed),
                )
            )

        indices = [event.attempt_index for event in sample(0)]
        assert len(indices) == 8 and indices[0] >= 0
        assert all(a < b for a, b in zip(indices, indices[1:]))
        with pytest.raises(ValueError, match=r"acceptance .* 2\*\*63 - 1"):
            sample(1)

    @settings(deadline=None, derandomize=True)
    @given(
        efficiency=st.sampled_from((5e-324, 1e-320, 1e-310, 1e-300, 0.5)),
        dark_rate=st.sampled_from((0.0, 5e-324, 1e-3)),
        pmt=st.sampled_from((0, 1)),
        waveplate=st.booleans(),
    )
    def test_positive_efficiency_always_records(self, efficiency, dark_rate, pmt, waveplate):
        # Only one PMT sees light, through a subnormal efficiency at worst: its
        # heralds still record, in their exact share against the dark clicks,
        # which split evenly over both PMTs.
        source = SourceParams()
        efficiencies = {f"pmt_efficiency_{pmt + 1}": efficiency, f"pmt_efficiency_{2 - pmt}": 0.0}
        det = DetectorParams(dark_event_probability=dark_rate, **efficiencies)
        if waveplate:
            det = det.with_swapped_pmts()
        distribution = recorded_outcome_distribution(
            source, self.pulse, self.setting_p, det
        )
        # each photon outcome, so the one routed to the lit PMT, has probability 1/2
        herald = Fraction(source.success_probability) * Fraction(efficiency) / 2
        dark = Fraction(1.0 - source.success_probability) * Fraction(dark_rate)
        expected = (herald + dark / 2) / (herald + dark)
        assert abs(distribution.sum() - 1.0) <= 1e-12
        assert distribution.reshape(2, 2).sum(axis=0)[pmt] == pytest.approx(
            float(expected), abs=1e-12
        )

    @pytest.mark.parametrize("n_attempts", [1, 5000, 20_000])
    def test_certain_herald_records_every_attempt(self, n_attempts):
        source = SourceParams(excitation_probability=1.0, collection_efficiency=1.0,
                              detector_quantum_efficiency=1.0)
        events = simulate_attempts(
            n_attempts, source, self.pulse, self.setting_p, DetectorParams(),
            np.random.default_rng(127),
        )
        assert [event.attempt_index for event in events] == list(range(n_attempts))

    def test_acceptance_rounded_above_one_records_every_herald(self):
        # At this setting the photon marginal sums to 1 + 2**-52, so the summed
        # branch weights would ask numpy for a probability above 1.
        source = SourceParams(excitation_probability=1.0, collection_efficiency=1.0,
                              detector_quantum_efficiency=1.0)
        setting_p = MeasurementSetting(3.3, 1.6)
        probs = _photon_stage(source, setting_p)[0]
        assert float(probs[0]) + float(probs[1]) > 1.0
        rng = np.random.default_rng(151)
        events = list(
            iter_heralded_events(5, source, self.pulse, setting_p, DetectorParams(), rng)
        )
        events += simulate_attempts(5, source, self.pulse, setting_p, DetectorParams(), rng)
        assert [event.attempt_index for event in events] == [*range(5), *range(5)]


def _pinned_stream(mode: str, dark: float, werner_p: float) -> list[EventRecord]:
    """20000 heralded events and one 1e7-attempt block, experiment-like readout, seed 7."""
    source = SourceParams(werner_p=werner_p)
    det = DetectorParams(
        pmt_efficiency_2=0.8, atom_bright_error=0.025, atom_dark_error=0.025,
        dark_event_probability=dark,
    )
    pulse = PulseSequence(mode, math.pi / 2)
    setting_p = MeasurementSetting(math.pi / 4)
    rng = np.random.default_rng(7)
    events = list(iter_heralded_events(20_000, source, pulse, setting_p, det, rng))
    return events + simulate_attempts(10_000_000, source, pulse, setting_p, det, rng)


class TestPinnedStreams:
    """Per-event streams are pinned by digest: a chain that draws other events fails here.

    A change to the draw order changes every stream; recompute the digests
    only when the event law is unchanged and its statistical tests pass.
    """

    # SHA-256 over repr(tuple(event)) of each stream, in order.
    DIGESTS = {
        (TWO_PULSE, 0.0, 1.0):
            "3010676c38702372e7fe2ea87526113291c96de20200417532ad05b558d6abdb",
        (TWO_PULSE, 0.0, 0.82667):
            "e93875f823253c418ee2d72e6f44d4f1d07371274f3ae4c7b4914f6b65f42307",
        (TWO_PULSE, 1e-5, 1.0):
            "16b77f586608f99038d6aba2fcff7bfbe75505fa05eeba0eb423380082b65f54",
        (TWO_PULSE, 1e-5, 0.82667):
            "049ecf9f95c410a92da530efc2ff72e0c1c79b2a5dc4bbdbd785931ce54fe034",
        (SINGLE_PULSE, 0.0, 1.0):
            "3a01cc9ecb67557ee84c4f312716d231110945d42bddb02a6689a7a37748abe1",
        (SINGLE_PULSE, 0.0, 0.82667):
            "da3d5811849bb3a07c5eeb9a2ea40444dc81f8a93abcef7dd5c74c7304093c84",
        (SINGLE_PULSE, 1e-5, 1.0):
            "ab054cd496833e5aa420ff5c318052d792a0098cdf4e2e22818ec812eb9d334a",
        (SINGLE_PULSE, 1e-5, 0.82667):
            "3617d0a4077ffba423ca02b56436ebe5fa5cad8518059d159be97215fd009149",
    }

    @pytest.mark.parametrize(
        "config", list(DIGESTS), ids=lambda c: f"{c[0]}-dark{c[1]:g}-werner{c[2]:g}"
    )
    def test_stream_digest_and_records(self, config):
        events = _pinned_stream(*config)
        digest = hashlib.sha256()
        for event in events:
            digest.update(repr(tuple(event)).encode())
        assert digest.hexdigest() == self.DIGESTS[config]
        for event in events:
            assert type(event) is EventRecord
            assert len(event) == len(EventRecord._fields)
            assert event == EventRecord(*event)
            flipped = event._replace(atom_outcome=1 - event.atom_outcome)
            assert flipped == (*event[:5], 1 - event.atom_outcome, event[6])
            with pytest.raises(AttributeError):
                event.atom_outcome = 0
