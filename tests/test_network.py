"""Tests of loophole arithmetic, the swap projection, and latency."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.cli import main
from bellsim.loopholes import (
    SPEED_OF_LIGHT,
    detection_efficiency,
    light_cone_separation,
    photon_survival,
)
from bellsim.network import (
    BSA_FAIL,
    PSI_MINUS,
    PSI_PLUS,
    BELL_KETS,
    adapted_bell_angles,
    chain_latency,
    heralded_ion_state,
    swap_conditional_states,
    _analyzer_probabilities,
)
from bellsim.states import (
    DensityMatrix,
    chsh_operator,
    fidelity,
    werner,
)

TSIRELSON = 2.0 * math.sqrt(2.0)


class TestLocality:
    def test_default_geometry_not_closed(self):
        required = light_cone_separation(125e-6)
        assert required == pytest.approx(37474.05725, abs=1e-6)
        assert not 1.1 >= required

    def test_fifty_microseconds_needs_fifteen_kilometers(self):
        required = light_cone_separation(50e-6)
        assert required == pytest.approx(14989.6229, abs=1e-3)
        assert required / 1000.0 == pytest.approx(15.0, abs=0.011)

    def test_zero_time_closes_trivially(self):
        required = light_cone_separation(0.0)
        assert required == 0.0
        assert 1.1 >= required

    def test_rotation_time_adds_to_the_budget(self):
        required = light_cone_separation(50e-6 + 50e-6)
        assert required == pytest.approx(SPEED_OF_LIGHT * 100e-6, abs=1e-6)

    def test_requirement_is_linear_in_time(self):
        base = light_cone_separation(40e-6)
        doubled = light_cone_separation(80e-6)
        assert doubled == pytest.approx(2.0 * base, rel=1e-15)

    def test_rejects_negative_geometry(self):
        with pytest.raises(ValueError):
            light_cone_separation(-1e-6)


def _detection_budget(capsys, tmp_path, efficiencies, threshold):
    """The ``detection_budget`` record of a ``loopholes`` run."""
    path = tmp_path / "budget.json"
    path.write_text(json.dumps({"detection_efficiencies": efficiencies}))
    assert main(["loopholes", "--config", str(path), "--threshold", str(threshold)]) == 0
    return json.loads(capsys.readouterr().out)["results"]["detection_budget"]


class TestMidpointAndBudgets:
    def test_detection_budget_product(self):
        assert detection_efficiency([0.10, 0.01, 0.20]) == pytest.approx(2.0e-4, abs=1e-18)

    def test_detection_budget_all_ones(self):
        assert detection_efficiency([1.0, 1.0, 1.0]) == 1.0

    def test_ion_pair_detection(self, capsys, tmp_path):
        budget = _detection_budget(capsys, tmp_path, [0.95, 0.95], 0.8)
        assert budget["efficiency"] == pytest.approx(0.9025, abs=1e-12)
        assert budget["passes"] is True

    def test_threshold_failure(self, capsys, tmp_path):
        assert _detection_budget(capsys, tmp_path, [0.5], 0.8)["passes"] is False

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            detection_efficiency([1.2])


class TestPhotonSurvival:
    def test_zero_length_returns_coupling(self):
        assert photon_survival(0.0, 0.2, 0.37) == pytest.approx(0.37)

    def test_telecom_like_loss(self):
        survival = photon_survival(7500.0, 0.2, 1.0)
        assert survival == pytest.approx(10.0 ** -0.15, abs=1e-12)
        assert survival == pytest.approx(0.7079, abs=5e-5)

    def test_deep_uv_like_loss(self):
        survival = photon_survival(7500.0, 10.0, 1.0)
        assert survival == pytest.approx(10.0 ** -7.5, rel=1e-12)
        assert survival == pytest.approx(3.16e-8, abs=5e-10)

    @pytest.mark.parametrize(
        "link", [(-1.0, 0.2, 1.0), (0.0, -0.2, 1.0), (0.0, 0.2, 1.5), (0.0, 0.2, -0.1)]
    )
    def test_rejects_bad_link(self, link):
        with pytest.raises(ValueError):
            photon_survival(*link)

    @given(
        l1=st.floats(min_value=0.0, max_value=50000.0),
        l2=st.floats(min_value=0.0, max_value=50000.0),
        attenuation=st.floats(min_value=0.0, max_value=20.0),
    )
    def test_multiplicative_over_concatenation(self, l1, l2, attenuation):
        joined = photon_survival(l1 + l2, attenuation, 1.0)
        split = photon_survival(l1, attenuation, 1.0) * photon_survival(l2, attenuation, 1.0)
        assert joined == pytest.approx(split, rel=1e-12, abs=1e-300)


def _oracle_swap(pair_a: np.ndarray, pair_b: np.ndarray, outcome_ket: np.ndarray):
    """Independent 16-dim projector oracle for the swap conditional state."""
    joint = np.kron(pair_a, pair_b)
    # projector onto |ket> of qubits (photon_a, photon_b) = positions 1 and 3
    identity = np.eye(2, dtype=complex)
    projector4 = np.outer(outcome_ket, outcome_ket.conj())  # on (p_a, p_b)
    # build the 16x16 operator by summing basis transitions
    op = np.zeros((16, 16), dtype=complex)
    for pa in range(2):
        for pb in range(2):
            for qa in range(2):
                for qb in range(2):
                    weight = projector4[2 * pa + pb, 2 * qa + qb]
                    if weight == 0:
                        continue
                    ket_pa = identity[:, pa]
                    ket_pb = identity[:, pb]
                    bra_qa = identity[:, qa]
                    bra_qb = identity[:, qb]
                    transition = np.kron(
                        np.kron(identity, np.outer(ket_pa, bra_qa.conj())),
                        np.kron(identity, np.outer(ket_pb, bra_qb.conj())),
                    )
                    op += weight * transition
    projected = op @ joint @ op.conj().T
    probability = float(np.real(np.trace(projected)))
    # trace out the photons (axes 1 and 3)
    tensor = projected.reshape(2, 2, 2, 2, 2, 2, 2, 2)
    reduced = np.einsum("apbqcpdq->abcd", tensor).reshape(4, 4)
    return probability, reduced / probability if probability > 0 else None


class TestEntanglementSwap:
    def test_ideal_pairs_herald_their_bell_state(self):
        pair = werner(1.0).matrix
        conditionals = swap_conditional_states(werner(1.0), werner(1.0))
        for outcome in (PSI_PLUS, PSI_MINUS):
            probability, state = conditionals[outcome]
            assert probability == pytest.approx(0.25, abs=1e-12)
            assert fidelity(state, heralded_ion_state(outcome)) == pytest.approx(1.0, abs=1e-12)
            # independent projector oracle
            oracle_p, oracle_state = _oracle_swap(pair, pair, BELL_KETS[outcome])
            assert probability == pytest.approx(oracle_p, abs=1e-12)
            np.testing.assert_allclose(state.matrix, oracle_state, atol=1e-12)

    def test_heralded_output_is_pure_and_maximally_entangled(self):
        conditionals = swap_conditional_states(werner(1.0), werner(1.0))
        for outcome in (PSI_PLUS, PSI_MINUS):
            _, state = conditionals[outcome]
            eigenvalues = np.linalg.eigvalsh(state.matrix)
            assert eigenvalues.max() == pytest.approx(1.0, abs=1e-10)
            # reduced single-ion entropy ln 2
            tensor = state.matrix.reshape(2, 2, 2, 2)
            for axis_pair in (("abcb", (0,)), ("abad", (1,))):
                pattern, _ = axis_pair
                reduced = np.einsum(f"{pattern}->" + ("ac" if pattern == "abcb" else "bd"), tensor)
                probs = np.linalg.eigvalsh(reduced)
                probs = probs[probs > 1e-15]
                entropy = -float(np.sum(probs * np.log(probs)))
                assert entropy == pytest.approx(math.log(2.0), abs=1e-9)

    def test_signed_bell_signal_of_heralded_states(self):
        conditionals = swap_conditional_states(werner(1.0), werner(1.0))
        for outcome in (PSI_PLUS, PSI_MINUS):
            _, state = conditionals[outcome]
            operator = chsh_operator(adapted_bell_angles(outcome))
            value = float(np.real(np.trace(state.matrix @ operator)))
            assert abs(value - TSIRELSON) < 1e-9

    def test_sampled_success_rate(self):
        rng = np.random.default_rng(29)
        probabilities = _analyzer_probabilities(
            swap_conditional_states(werner(1.0), werner(1.0))
        )
        n = 100_000
        counts = rng.multinomial(
            n, [probabilities[PSI_PLUS], probabilities[PSI_MINUS], probabilities[BSA_FAIL]]
        )
        success = (counts[0] + counts[1]) / n
        assert abs(success - 0.5) < 0.005

    def test_maximally_mixed_input_gives_mixed_output(self, rng):
        mixed = DensityMatrix(np.eye(4, dtype=complex) / 4.0)
        conditionals = swap_conditional_states(mixed, werner(1.0))
        for outcome in (PSI_PLUS, PSI_MINUS):
            probability, state = conditionals[outcome]
            assert probability == pytest.approx(0.25, abs=1e-12)
            np.testing.assert_allclose(state.matrix, np.eye(4) / 4.0, atol=1e-12)
            operator = chsh_operator(adapted_bell_angles(outcome))
            assert abs(np.trace(state.matrix @ operator)) <= 2.0

    def test_werner_inputs_degrade_monotonically(self):
        # data processing: the swapped pair is never better than the inputs
        p = 0.82667
        input_bell = TSIRELSON * p
        conditionals = swap_conditional_states(werner(p), werner(p))
        for outcome in (PSI_PLUS, PSI_MINUS):
            _, state = conditionals[outcome]
            operator = chsh_operator(adapted_bell_angles(outcome))
            value = float(np.real(np.trace(state.matrix @ operator)))
            assert value <= input_bell + 1e-12
            assert value == pytest.approx(TSIRELSON * p * p, abs=1e-9)

    def test_werner_outcome_probabilities_are_fixed(self):
        # the photon marginals of Werner pairs are I/2, so each odd-parity
        # outcome heralds with exactly 1/4 whatever the mixing
        for p_a in np.linspace(0.0, 1.0, 11):
            for p_b in np.linspace(0.0, 1.0, 11):
                probabilities = _analyzer_probabilities(
                    swap_conditional_states(werner(p_a), werner(p_b))
                )
                assert probabilities[PSI_PLUS] == pytest.approx(0.25, abs=1e-12)
                assert probabilities[PSI_MINUS] == pytest.approx(0.25, abs=1e-12)
                assert probabilities[BSA_FAIL] == pytest.approx(0.5, abs=1e-12)

    def test_heralded_state_lookup_rejects_fail(self):
        with pytest.raises(ValueError):
            heralded_ion_state(BSA_FAIL)
        with pytest.raises(ValueError):
            adapted_bell_angles(BSA_FAIL)


def harmonic(n):
    return math.fsum(1.0 / k for k in range(1, n + 1))


def tail_sum_attempts(links, p):
    """E[max] = sum_t P(max > t), summed until the terms (about n q^t) fall below e^-45."""
    if p == 1.0:
        return 1.0  # every link is up at the first attempt
    log_q = math.log1p(-p)
    t = np.arange(1, math.ceil((math.log(links) + 45.0) / -log_q))
    miss = -np.expm1(t * log_q)  # 1 - q^t
    return 1.0 + math.fsum(-np.expm1(links * np.log(miss)))


log_probability = st.floats(min_value=-17.0, max_value=0.0).map(lambda e: 10.0**e)
chain_nodes = st.integers(min_value=2, max_value=200)


class TestChainLatency:
    def test_single_link_unit_probability(self):
        assert chain_latency(2, 1.0, attempt_rate=5.0, per_attempt_success=1.0) == (
            pytest.approx(0.2, abs=1e-15)
        )

    def test_single_link_heralded_rate(self):
        latency = chain_latency(2, 1.0, attempt_rate=8.3e3, per_attempt_success=2.0e-4)
        assert latency == pytest.approx(0.60, abs=0.005)

    def test_two_links_inclusion_exclusion(self):
        latency = chain_latency(3, 1.0, attempt_rate=1.0, per_attempt_success=0.5)
        expected = 2.0 / 0.5 - 1.0 / (2 * 0.5 - 0.25)
        assert latency == pytest.approx(expected, abs=1e-12)
        assert latency == pytest.approx(2.667, abs=5e-4)

    def test_against_tail_sum_oracle(self):
        # E[max] = sum_t P(max > t), truncated far into the tail
        p, links = 0.3, 4
        t = np.arange(200)
        oracle = float(np.sum(1.0 - (1.0 - (1.0 - p) ** t) ** links))
        latency = chain_latency(links + 1, 1.0, attempt_rate=1.0, per_attempt_success=p)
        assert latency == pytest.approx(oracle, rel=1e-9)

    def test_fiber_loss_enters_the_rate(self):
        lossless = chain_latency(2, 1.0, 1.0, 0.5)
        survival = photon_survival(15000.0, 0.2, 1.0)
        lossy = chain_latency(2, survival, 1.0, 0.5)
        assert lossy == pytest.approx(lossless / survival, rel=0.02)

    def test_monotone_in_success_and_rate(self):
        latencies_p = [
            chain_latency(4, 1.0, 1.0, p) for p in np.linspace(0.05, 1.0, 12)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(latencies_p, latencies_p[1:]))
        latencies_r = [
            chain_latency(4, 1.0, rate, 0.3) for rate in np.linspace(1.0, 100.0, 12)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(latencies_r, latencies_r[1:]))

    def test_sixty_node_chain(self):
        latency = chain_latency(60, 1.0, attempt_rate=1.0, per_attempt_success=2e-4)
        assert latency == pytest.approx(23314.187, abs=1e-3)

    def test_eighty_node_chain_takes_seconds(self):
        latency = chain_latency(80, 1.0, attempt_rate=8.3e3, per_attempt_success=2e-4)
        assert latency == pytest.approx(harmonic(79) / 2e-4 / 8.3e3, rel=1e-4)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(p=log_probability, nodes=chain_nodes, rate=st.floats(min_value=1.0, max_value=1e4))
    def test_rises_with_nodes_and_is_at_least_one_link(self, p, nodes, rate):
        latency = chain_latency(nodes, 1.0, rate, p)
        longer = chain_latency(nodes + 1, 1.0, rate, p)
        assert math.isfinite(latency)
        assert longer > latency if p <= 0.5 else longer >= latency
        assert latency * rate >= (1.0 / p) * (1.0 - 1e-12)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        p=st.floats(min_value=-17.0, max_value=-6.0).map(lambda e: 10.0**e),
        nodes=chain_nodes,
        rate=st.floats(min_value=1.0, max_value=1e4),
    )
    def test_tends_to_harmonic_number_over_p(self, p, nodes, rate):
        # E[max] = H_n / p + O(H_n) as p -> 0
        scaled = p * chain_latency(nodes, 1.0, rate, p) * rate
        assert abs(scaled - harmonic(nodes - 1)) <= (p + 1e-12) * harmonic(nodes - 1)

    @pytest.mark.parametrize("nodes", [999, 1000, 1001, 10**6])
    def test_long_chains_tend_to_harmonic_number_over_p(self, nodes):
        p = 1e-12
        scaled = p * chain_latency(nodes, 1.0, 1.0, p)
        assert scaled == pytest.approx(harmonic(nodes - 1), rel=1e-11)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p=st.floats(min_value=-4.0, max_value=0.0).map(lambda e: 10.0**e), nodes=chain_nodes)
    def test_matches_the_tail_sum_series(self, p, nodes):
        # The series is affordable for p >= 1e-4: at most about 5e5 terms.
        latency = chain_latency(nodes, 1.0, attempt_rate=1.0, per_attempt_success=p)
        assert latency == pytest.approx(tail_sum_attempts(nodes - 1, p), rel=1e-9)

    def test_cli_runs_at_tiny_link_success(self, capsys):
        assert main(["swap", "--trials", "100", "--link-success", "1e-17"]) == 0
        latency = json.loads(capsys.readouterr().out)["results"]["chain"]["expected_latency_s"]
        assert latency == pytest.approx(1e17 / 8.3e3, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            chain_latency(1, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            chain_latency(2, 1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            chain_latency(2, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="lossy link"):
            chain_latency(2, photon_survival(0.0, 0.2, 0.0), 1.0, 0.5)
        with pytest.raises(ValueError, match="overflows"):
            chain_latency(3, 1.0, 1.0, 1e-320)
