import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamp_entropy import (
    EmptyHistoryError,
    InvalidProbabilityError,
    KernelDistribution,
    LampModel,
    NotIrreducibleError,
    RowSumError,
    TooShortError,
    UnknownTokenError,
    ZeroProbabilityError,
    entropy_rate,
    lamp_entropy_rate,
    lamp_transition_distribution,
    load_model,
    log_loss,
    save_model,
    simulate_lamp,
    simulate_markov,
    stationary_distribution,
    step_log2_probs,
    validate_stochastic,
)
from lamp_entropy.lamp import model_to_json_dict

from test_markov import H_BINARY_01, random_ergodic


@pytest.fixture
def symmetric_chain():
    return validate_stochastic([[0.9, 0.1], [0.1, 0.9]], ["a", "b"])


class TestKernelDistribution:
    def test_validation(self):
        with pytest.raises(RowSumError):
            KernelDistribution([0.5, 0.6])
        assert KernelDistribution([0.25, 0.75]).k == 2

    @pytest.mark.parametrize("weights", [[float("nan"), 1.0], [float("inf"), 0.0]])
    def test_non_finite_rejected(self, weights):
        with pytest.raises(InvalidProbabilityError):
            KernelDistribution(weights)

    def test_point_mass(self):
        w = KernelDistribution.point_mass(3)
        assert w.weights.tolist() == [0.0, 0.0, 1.0]

    def test_uniform(self):
        assert np.allclose(KernelDistribution.uniform(4).weights, 0.25)

    def test_geometric(self):
        w = KernelDistribution.geometric(3, 0.5)
        # 1, 1/2, 1/4 normalised by 7/4.
        assert np.allclose(w.weights, [4 / 7, 2 / 7, 1 / 7])


class TestTransitionDistribution:
    def test_order_one_reduces_to_row(self, symmetric_chain):
        model = LampModel(symmetric_chain, KernelDistribution.point_mass(1))
        dist = lamp_transition_distribution(model, ["a", "b"])
        assert np.array_equal(dist, symmetric_chain.rows[1])

    def test_hand_mixed_rows(self):
        # 0.5 * P_b + 0.5 * P_a = 0.5*[0.2,0.8] + 0.5*[0.9,0.1] = [0.55, 0.45].
        P = validate_stochastic([[0.9, 0.1], [0.2, 0.8]], ["a", "b"])
        model = LampModel(P, KernelDistribution([0.5, 0.5]))
        dist = lamp_transition_distribution(model, ["a", "b"])
        assert np.abs(dist - [0.55, 0.45]).max() < 1e-12

    def test_short_history_clamps_to_first_symbol(self):
        P = validate_stochastic([[0.9, 0.1], [0.2, 0.8]], ["a", "b"])
        model = LampModel(P, KernelDistribution([0.2, 0.3, 0.5]))
        dist = lamp_transition_distribution(model, ["a"])
        assert np.abs(dist - P.rows[0]).max() < 1e-12

    def test_empty_history(self, symmetric_chain):
        model = LampModel(symmetric_chain, KernelDistribution.point_mass(1))
        with pytest.raises(EmptyHistoryError):
            lamp_transition_distribution(model, [])

    def test_unknown_token(self, symmetric_chain):
        model = LampModel(symmetric_chain, KernelDistribution.point_mass(1))
        with pytest.raises(UnknownTokenError):
            lamp_transition_distribution(model, ["zzz"])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        hist_len=st.integers(min_value=1, max_value=12),
        k=st.integers(min_value=1, max_value=8),
    )
    def test_is_probability_vector(self, seed, hist_len, k):
        rng = np.random.default_rng(seed)
        P = random_ergodic(3, rng, floor=0.0)
        w = rng.dirichlet(np.ones(k))
        model = LampModel(P, KernelDistribution(w / w.sum()))
        history = [P.labels[i] for i in rng.integers(0, 3, size=hist_len)]
        dist = lamp_transition_distribution(model, history)
        assert (dist >= 0).all()
        assert abs(dist.sum() - 1.0) < 1e-9


class TestSimulateLamp:
    def test_lag_two_hand_trace(self):
        # P flips the symbol; lag is always 2, clamped to x0 at step 1:
        # a -> flip(x0)=b -> flip(x0)=b -> flip(x1)=a -> flip(x2)=a -> flip(x3)=b.
        P = validate_stochastic([[0.0, 1.0], [1.0, 0.0]], ["a", "b"])
        model = LampModel(P, KernelDistribution([0.0, 1.0]))
        assert simulate_lamp(model, 6, seed=0, init=0) == ["a", "b", "b", "a", "a", "b"]

    def test_same_seed_same_path(self):
        rng = np.random.default_rng(11)
        P = random_ergodic(3, rng)
        model = LampModel(P, KernelDistribution.uniform(4))
        assert simulate_lamp(model, 300, seed=5) == simulate_lamp(model, 300, seed=5)

    def test_order_one_matches_chain_distribution(self):
        # delta-1 kernel is the plain chain; compare empirical transition
        # frequencies of the two samplers.
        rng = np.random.default_rng(12)
        P = random_ergodic(3, rng)
        model = LampModel(P, KernelDistribution.point_mass(1))
        lamp_seq = P.states.encode(simulate_lamp(model, 200_000, seed=1))
        markov_seq = P.states.encode(simulate_markov(P, 200_000, seed=2))
        for seq in (lamp_seq, markov_seq):
            counts = np.zeros((3, 3))
            np.add.at(counts, (seq[:-1], seq[1:]), 1)
            emp = counts / counts.sum(axis=1, keepdims=True)
            assert np.abs(emp - P.rows).max() < 0.02

    def test_one_step_frequencies_match_formula(self):
        # Frequency of the second symbol over many seeds approximates the
        # predictive distribution given the fixed first symbol.
        P = validate_stochastic([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]], list("abc"))
        model = LampModel(P, KernelDistribution([0.4, 0.6]))
        expected = lamp_transition_distribution(model, ["b"])
        counts = np.zeros(3)
        trials = 4000
        for s in range(trials):
            tok = simulate_lamp(model, 2, seed=s, init="b")[1]
            counts[P.states.index_of(tok)] += 1
        assert np.abs(counts / trials - expected).max() < 0.03

    def test_long_run_frequencies_match_stationary(self):
        rng = np.random.default_rng(13)
        P = random_ergodic(3, rng)
        pi = stationary_distribution(P).probs
        model = LampModel(P, KernelDistribution([0.5, 0.3, 0.2]))
        seq = P.states.encode(simulate_lamp(model, 10**6, seed=3))
        freqs = np.bincount(seq, minlength=3) / seq.shape[0]
        assert np.abs(freqs - pi).max() < 0.01


class TestLampEntropyRate:
    def test_matches_first_order_value(self, symmetric_chain):
        model = LampModel(symmetric_chain, KernelDistribution([0.3, 0.7]))
        assert abs(lamp_entropy_rate(model) - H_BINARY_01) < 1e-6

    def test_point_mass_equals_chain(self, symmetric_chain):
        model = LampModel(symmetric_chain, KernelDistribution.point_mass(1))
        pi = stationary_distribution(symmetric_chain)
        assert lamp_entropy_rate(model) == entropy_rate(symmetric_chain, pi)

    def test_kernel_independence_bit_identical(self, symmetric_chain):
        a = LampModel(symmetric_chain, KernelDistribution([0.5, 0.5]))
        b = LampModel(symmetric_chain, KernelDistribution.uniform(10))
        assert lamp_entropy_rate(a) == lamp_entropy_rate(b)

    def test_reducible_rejected(self):
        P = validate_stochastic([[1.0, 0.0], [0.0, 1.0]], ["a", "b"])
        with pytest.raises(NotIrreducibleError):
            lamp_entropy_rate(LampModel(P, KernelDistribution.point_mass(1)))


class TestLogLoss:
    def test_deterministic_chain_zero_loss_any_kernel(self):
        P = validate_stochastic([[0.0, 1.0], [1.0, 0.0]], ["a", "b"])
        for w in (KernelDistribution.point_mass(1), KernelDistribution([0.5, 0.5])):
            model = LampModel(P, w)
            seq = simulate_lamp(model, 3000, seed=1, init=0)
            assert log_loss(model, seq, burn_in=10) == 0.0

    def test_uniform_rows_exactly_one_bit(self):
        P = validate_stochastic([[0.5, 0.5], [0.5, 0.5]], ["a", "b"])
        model = LampModel(P, KernelDistribution([0.2, 0.8]))
        seq = ["a", "b", "b", "a", "a", "a", "b"]
        assert log_loss(model, seq, burn_in=0) == 1.0

    def test_self_scored_matches_entropy_rate(self, symmetric_chain):
        model = LampModel(symmetric_chain, KernelDistribution([0.5, 0.5]))
        seq = simulate_lamp(model, 200_000, seed=21)
        assert abs(log_loss(model, seq) - H_BINARY_01) < 0.02

    def test_too_short(self, symmetric_chain):
        model = LampModel(symmetric_chain, KernelDistribution.point_mass(1))
        with pytest.raises(TooShortError):
            log_loss(model, ["a", "b"], burn_in=1)

    def test_zero_probability_event(self):
        P = validate_stochastic([[0.0, 1.0], [1.0, 0.0]], ["a", "b"])
        model = LampModel(P, KernelDistribution.point_mass(1))
        with pytest.raises(ZeroProbabilityError):
            log_loss(model, ["a", "a", "a"], burn_in=0)

    def test_step_log2_probs_is_mixture_law(self):
        P = validate_stochastic([[0.9, 0.1], [0.2, 0.8]], ["a", "b"])
        model = LampModel(P, KernelDistribution([0.5, 0.5]))
        logs = step_log2_probs(model, ["a", "b", "a"])
        # position 1: history [a] clamps both lags -> P_a[b] = 0.1
        # position 2: 0.5*P_b[a] + 0.5*P_a[a] = 0.55
        assert np.abs(logs - np.log2([0.1, 0.55])).max() < 1e-12


def test_model_json_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    P = random_ergodic(3, rng)
    model = LampModel(P, KernelDistribution.geometric(5, 0.6))
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.labels == model.labels
    assert np.allclose(back.matrix.rows, model.matrix.rows, atol=1e-15)
    assert np.allclose(back.kernel.weights, model.kernel.weights, atol=1e-15)


@pytest.mark.parametrize(
    "doc",
    [
        {"labels": ["a", "b"], "rows": [[float("nan"), 1.0], [0.5, 0.5]], "kernel": [1.0]},
        {"labels": ["a", "b"], "rows": [[0.5, 0.5], [0.5, 0.5]], "kernel": [float("nan"), 1.0]},
    ],
)
def test_load_model_rejects_nan(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc, indent=2))
    assert "NaN" in path.read_text()
    with pytest.raises(InvalidProbabilityError):
        load_model(path)


def test_save_model_bytes_of_large_model(tmp_path):
    # 70 states, sparse rows whose zeros are partly -0.0, and labels that
    # json escapes; the file must be exactly what json.dumps writes.
    rng = np.random.default_rng(11)
    n = 70
    rows = np.where(rng.random((n, n)) < 0.1, rng.random((n, n)), 0.0)
    rows[:, 0] += 1.0
    rows /= rows.sum(axis=1, keepdims=True)
    rows[rows == 0.0] = np.where(rng.random(int((rows == 0.0).sum())) < 0.5, -0.0, 0.0)
    labels = [f"s{i}" for i in range(n - 3)] + ['say "hi"', "caf\u00e9", "tab\there"]
    source = tmp_path / "source.json"
    source.write_text(json.dumps(
        {"labels": labels, "rows": rows.tolist(), "kernel": [0.25, 0.75]}, indent=2
    ))
    model = load_model(source)
    assert np.signbit(model.matrix.rows[model.matrix.rows == 0.0]).any()
    path = tmp_path / "model.json"
    text = save_model(model, path)
    old = json.dumps(model_to_json_dict(model), indent=2) + "\n"
    assert "-0.0" in old and "\\u00e9" in old
    assert path.read_text(encoding="utf-8") == text == old
