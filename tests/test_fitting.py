import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lamp_entropy import (
    DegenerateInitError,
    EmptyCorpusError,
    KernelDistribution,
    LampModel,
    SequenceCorpus,
    UnknownTokenError,
    count_transitions,
    fit_first_order,
    fit_lamp_em,
    lamp_log_likelihood,
    lamp_transition_distribution,
    log_loss,
    simulate_lamp,
    validate_stochastic,
)

from lamp_entropy.fitting import _distinct_patterns, _em_round
from test_markov import random_ergodic


def per_position_em(corpus, k, iterations, init=None):
    """Reference EM with one row per scored position and no merging."""
    n = corpus.vocabulary.n
    sources, targets = [], []
    for seq in corpus.sequences:
        idx = corpus.vocabulary.encode(seq)
        for t in range(1, len(idx)):
            sources.append([idx[max(0, t - q)] for q in range(1, k + 1)])
            targets.append(idx[t])
    sources = np.array(sources)
    targets = np.array(targets)
    if init is None:
        weights = np.full(k, 1.0 / k)
        rows = fit_first_order(corpus, smoothing=0.1).rows
    else:
        weights, rows = init[0].weights, init[1].rows
    trace = []
    for _ in range(iterations):
        mixture = rows[sources, targets[:, None]] * weights
        totals = mixture.sum(axis=1)
        trace.append(np.log2(totals).sum())
        responsibilities = mixture / totals[:, None]
        weights = responsibilities.sum(axis=0) / targets.shape[0]
        accum = np.zeros((n, n))
        cell_targets = np.broadcast_to(targets[:, None], sources.shape)
        np.add.at(accum, (sources, cell_targets), responsibilities)
        sums = accum.sum(axis=1, keepdims=True)
        rows = np.where(sums > 0, accum / np.where(sums > 0, sums, 1.0), 1.0 / n)
    return np.array(trace), weights, rows


def pinned_fit_corpus(case):
    """The seeded corpus of a PINNED_FITS case."""
    rng = np.random.default_rng(41)
    if case in ("k1-short", "k2-short"):
        k = int(case[1])
        lengths = rng.integers(2, k + 3, size=300)
        return SequenceCorpus.from_sequences(
            [[f"s{x}" for x in rng.integers(0, 5, size=length)] for length in lengths]
        )
    if case == "k7-spike":
        model = LampModel(random_ergodic(3, rng), KernelDistribution([0.1, 0, 0, 0, 0, 0, 0.9]))
        return SequenceCorpus.from_sequences([simulate_lamp(model, 20_000, seed=11)])
    model = LampModel(random_ergodic(64, rng), KernelDistribution.uniform(12))
    return SequenceCorpus.from_sequences([simulate_lamp(model, 200, seed=s) for s in range(30)])


def fit_digest(report):
    """sha256 of the float.hex of the trace, the weights and the rows."""
    values = (
        *report.log_likelihood_trace,
        *report.model.kernel.weights.tolist(),
        *report.model.matrix.rows.ravel().tolist(),
    )
    return hashlib.sha256("\n".join(map(float.hex, values)).encode()).hexdigest()


# sha256 of seeded fits (fit_digest), by (case, k): sequences of 2..k+2
# tokens, a 20,000-step spike-7 path over 3 states, and 64 states, whose
# k=10 and k=12 pattern keys are renumbered while packing. The k >= 2
# digests were re-recorded when EM's round began to sum its weights and
# cell masses lag-major: against the pattern-major order they replace,
# the same 12 rounds moved the traces by at most 5.2e-15 relative and the
# weights and rows by at most 1.7e-15; k=1 kept its bits.
PINNED_FITS = {
    ("k1-short", 1): "4923f5a6de1255c3ae01769e05a28d4c40c9fdc5b38bbe6d2beaaecb81b37c2b",
    ("k2-short", 2): "8f6ae55eb4a93464d4b709240674de02d2116719a82d2e1fea56d570b9abe30c",
    ("k7-spike", 7): "092ee02ea322c4c3748c3ac717d5a602825387d909e528d8a8d3fef11f223273",
    ("states-64", 10): "efc7fd986685b2a564facb19eedd1d093fb42ba9ab6f47bff188a9f8159da352",
    ("states-64", 12): "d5054327eea53f8d95b2c479ce167886bcc6c9ac6402ac08c4aead6a9cdb826e",
}


def assert_matches_per_position_em(corpus, k, iterations, init=None):
    trace, weights, rows = per_position_em(corpus, k, iterations, init)
    report = fit_lamp_em(corpus, k=k, init=init, max_iter=iterations, tol=0.0)
    assert np.abs(np.array(report.log_likelihood_trace) / trace - 1.0).max() < 1e-9
    assert np.abs(report.model.kernel.weights - weights).max() < 1e-9
    assert np.abs(report.model.matrix.rows - rows).max() < 1e-9


def per_position_patterns(sequences, k):
    """Multiplicity of each (target, sources at lags 1..k) of every scored
    position, found one position at a time."""
    patterns = Counter()
    for seq in sequences:
        for t in range(1, len(seq)):
            patterns[(seq[t], *(seq[max(t - q, 0)] for q in range(1, k + 1)))] += 1
    return patterns


@st.composite
def pattern_corpora(draw):
    """(n, k, sequences): up to 40 sequences of 0..k+3 codes below n, at
    least one of them with a transition. Many states and a long kernel
    (64 states and k >= 10, say) make the packed keys too wide for an
    int64, so they are renumbered."""
    n = draw(st.integers(1, 70))
    k = draw(st.integers(1, 13))
    code = st.integers(0, n - 1)
    sequences = draw(st.lists(st.lists(code, max_size=k + 3), max_size=39))
    at = draw(st.integers(0, len(sequences)))
    sequences.insert(at, draw(st.lists(code, min_size=2, max_size=k + 3)))
    return n, k, sequences


# 40 sequences of 2..15 codes below 64, whose keys are renumbered at k >= 10.
RENUMBERED = [[(7 * i + 3 * j) % 64 for j in range(2 + i % 14)] for i in range(40)]
# 2**16 states: at k = 8 the keys are renumbered twice, before lags 3 and 6.
WIDE = [[(40_503 * (5 * i + j)) % 2**16 for j in range(i % 12)] for i in range(40)]


@settings(max_examples=300, deadline=None)
@given(pattern_corpora())
@example((64, 10, RENUMBERED))
@example((64, 12, RENUMBERED))
@example((2**16, 8, WIDE))
def test_distinct_patterns_match_per_position_count(case):
    n, k, sequences = case
    tokens = np.array([x for seq in sequences for x in seq], dtype=np.int32)
    offsets = np.cumsum([0] + [len(seq) for seq in sequences])
    sources, targets, multiplicity = _distinct_patterns(tokens, offsets, k, n)
    want = per_position_patterns(sequences, k)
    got = [(t, *src) for t, src in zip(targets.tolist(), sources.tolist())]
    # Distinct, in the order of the packed (target, sources) key.
    assert got == sorted(want)
    assert dict(zip(got, multiplicity.tolist())) == want
    assert multiplicity.sum() == tokens.shape[0] - sum(1 for seq in sequences if seq)
    assert sources.dtype == targets.dtype == np.int64


@st.composite
def em_points(draw):
    """(corpus, k, A, B): a corpus of up to 12 sequences over up to 6
    labels, empty and one-token ones among them, with at least one
    transition, and two (weights, rows) points with every entry positive."""
    labels = [f"s{i}" for i in range(draw(st.integers(1, 6)))]
    k = draw(st.integers(1, 6))
    label = st.sampled_from(labels)
    sequences = draw(st.lists(st.lists(label, max_size=12), max_size=11))
    at = draw(st.integers(0, len(sequences)))
    sequences.insert(at, draw(st.lists(label, min_size=2, max_size=12)))
    corpus = SequenceCorpus.from_sequences(sequences)
    n = corpus.vocabulary.n
    entries = st.floats(0.01, 1.0)

    def point():
        weights = np.array(draw(st.lists(entries, min_size=k, max_size=k)))
        rows = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)))
        rows = rows.reshape(n, n)
        return weights / weights.sum(), rows / rows.sum(axis=1, keepdims=True)

    return corpus, k, point(), point()


def snapshot(arrays):
    return [np.asarray(a).tobytes() for a in arrays]


@settings(max_examples=150, deadline=None)
@given(em_points())
def test_em_round_is_a_function_of_its_point(case):
    # The round keeps no state between calls: an accelerator that calls it
    # at extrapolated points and then at an earlier one gets that point's
    # answer again, and no array it was handed or given back is changed.
    corpus, k, *points = case
    init, other = [
        (KernelDistribution(weights), validate_stochastic(rows, corpus.vocabulary.labels))
        for weights, rows in points
    ]
    cells, em_round = _em_round(corpus.tokens, corpus.offsets, k, corpus.vocabulary.n)
    weights_a, probs_a = init[0].weights, init[1].rows.ravel()[cells]
    weights_b, probs_b = other[0].weights, other[1].rows.ravel()[cells]
    inputs = [weights_a, probs_a, weights_b, probs_b]
    before = snapshot(inputs)
    first = em_round(weights_a, probs_a)
    returned = snapshot(first)
    em_round(weights_b, probs_b)
    assert snapshot(first) == returned
    assert snapshot(em_round(weights_a, probs_a)) == returned
    assert snapshot(inputs) == before
    # The round is the fit's: one round from A is a one-round fit from A.
    report = fit_lamp_em(corpus, k, init=init, max_iter=1)
    assert report.log_likelihood_trace == (first[0],)
    assert report.model.kernel.weights.tobytes() == first[1].tobytes()
    # EM never lowers the likelihood, up to rounding: 1e-12 relative, and
    # 1e-12 bits where the likelihood is near 1 and its log2 near 0.
    trace = [first[0]]
    weights, probs = first[1], first[3]
    for _ in range(12):
        log_likelihood, weights, _, probs = em_round(weights, probs)
        trace.append(log_likelihood)
    trace = np.array(trace)
    assert (np.diff(trace) >= -1e-12 * np.maximum(np.abs(trace[:-1]), 1.0)).all()


class TestCountTransitions:
    def test_single_sequence(self):
        corpus = SequenceCorpus.from_sequences([["a", "b", "a"]])
        counts = count_transitions(corpus).counts
        assert counts.tolist() == [[0, 1], [1, 0]]

    def test_no_counting_across_boundaries(self):
        corpus = SequenceCorpus.from_sequences([["a", "b"], ["b", "a"]])
        counts = count_transitions(corpus).counts
        assert counts.tolist() == [[0, 1], [1, 0]]

    def test_singleton_sequence_contributes_nothing(self):
        corpus = SequenceCorpus.from_sequences([["a"]])
        assert count_transitions(corpus).counts.sum() == 0

    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(30)
        seqs = [[f"s{x}" for x in rng.integers(0, 6, size=length)]
                for length in rng.integers(0, 12, size=40)]
        corpus = SequenceCorpus.from_sequences(seqs)
        expected = np.zeros((corpus.vocabulary.n,) * 2, dtype=np.int64)
        for seq in seqs:
            for a, b in zip(seq, seq[1:]):
                expected[corpus.vocabulary.index_of(a), corpus.vocabulary.index_of(b)] += 1
        assert np.array_equal(count_transitions(corpus).counts, expected)


class TestFitFirstOrder:
    def test_deterministic_cycle(self):
        corpus = SequenceCorpus.from_sequences([["a", "b", "a"]])
        P = fit_first_order(corpus)
        assert P.rows.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_hand_ratios(self):
        # a->b three times, a->c once: row a is (0, 3/4, 1/4).
        corpus = SequenceCorpus.from_sequences(
            [["a", "b"], ["a", "b"], ["a", "b"], ["a", "c"]]
        )
        P = fit_first_order(corpus)
        row_a = P.rows[P.states.index_of("a")]
        assert row_a.tolist() == [0.0, 0.75, 0.25]

    def test_heavy_smoothing_approaches_uniform(self):
        corpus = SequenceCorpus.from_sequences([["a", "b", "a", "b"]])
        P = fit_first_order(corpus, smoothing=1e9)
        assert np.abs(P.rows - 0.5).max() < 1e-6
        with pytest.raises(ValueError, match="smoothing"):
            fit_first_order(corpus, smoothing=-1e-9)

    def test_unseen_source_gets_uniform_row(self):
        # b never appears as a source.
        corpus = SequenceCorpus.from_sequences([["a", "b"]])
        P = fit_first_order(corpus)
        assert P.rows[P.states.index_of("b")].tolist() == [0.5, 0.5]

    def test_no_transitions(self):
        corpus = SequenceCorpus.from_sequences([["a"], ["b"]])
        with pytest.raises(EmptyCorpusError):
            fit_first_order(corpus)


class TestFitLampEm:
    def test_order_one_matches_closed_form_exactly(self):
        rng = np.random.default_rng(31)
        P = random_ergodic(3, rng)
        tokens = simulate_lamp(LampModel(P, KernelDistribution.point_mass(1)), 5000, seed=4)
        corpus = SequenceCorpus.from_sequences([tokens])
        report = fit_lamp_em(corpus, k=1)
        direct = fit_first_order(corpus, smoothing=0.0)
        assert np.array_equal(report.model.matrix.rows, direct.rows)
        assert report.model.kernel.weights.tolist() == [1.0]
        assert report.converged

    def test_trace_is_monotone(self):
        rng = np.random.default_rng(32)
        P = random_ergodic(3, rng)
        model = LampModel(P, KernelDistribution([0.6, 0.4]))
        corpus = SequenceCorpus.from_sequences([simulate_lamp(model, 20_000, seed=5)])
        report = fit_lamp_em(corpus, k=4, max_iter=40)
        trace = np.array(report.log_likelihood_trace)
        assert (np.diff(trace) >= -1e-9).all()

    def test_recovers_generator(self):
        P = validate_stochastic(
            [[0.7, 0.2, 0.1], [0.1, 0.7, 0.2], [0.2, 0.1, 0.7]], list("abc")
        )
        w = KernelDistribution([0.6, 0.4])
        tokens = simulate_lamp(LampModel(P, w), 30_000, seed=6)
        corpus = SequenceCorpus.from_sequences([tokens])
        report = fit_lamp_em(corpus, k=2)
        order = [report.model.matrix.states.index_of(l) for l in "abc"]
        P_hat = report.model.matrix.rows[np.ix_(order, order)]
        assert np.abs(P_hat - P.rows).max() < 0.08
        assert np.abs(report.model.kernel.weights - w.weights).max() < 0.08

    def test_matches_per_position_em(self):
        rng = np.random.default_rng(36)
        model = LampModel(random_ergodic(4, rng), KernelDistribution([0.5, 0.3, 0.2]))
        lengths = rng.integers(2, 400, size=25)
        corpus = SequenceCorpus.from_sequences(
            [simulate_lamp(model, int(length), seed=s) for s, length in enumerate(lengths)]
        )
        assert_matches_per_position_em(corpus, k=3, iterations=15)

    def test_patterns_too_wide_for_one_int64(self):
        # 64 states and 12 lags give 2**78 patterns, more than an int64
        # can number, so the pattern keys are renumbered while packing.
        rng = np.random.default_rng(37)
        model = LampModel(random_ergodic(64, rng), KernelDistribution.uniform(12))
        corpus = SequenceCorpus.from_sequences(
            [simulate_lamp(model, 100, seed=s) for s in range(20)]
        )
        assert corpus.vocabulary.n == 64
        assert_matches_per_position_em(corpus, k=12, iterations=5)

    def test_pattern_keys_wider_than_int32(self):
        # With 2**16 states a k=2 key spans 2**48 values: packed in the
        # corpus's int32 codes, the target column would wrap out of the
        # key and (6, 5) -> 7 would merge with (6, 5) -> 8.
        n = 2**16
        tokens = np.array([5, 6, 7, 5, 6, 8, n - 1, n - 2], dtype=np.int32)
        offsets = np.array([0, 6, 8])
        sources, targets, multiplicity = _distinct_patterns(tokens, offsets, 2, n)
        want = Counter()
        for a, b in zip(offsets[:-1], offsets[1:]):
            seq = tokens[a:b].tolist()
            for t in range(1, len(seq)):
                want[(seq[t - 1], seq[max(t - 2, 0)], seq[t])] += 1
        got = {
            (*src, tgt): m
            for src, tgt, m in zip(sources.tolist(), targets.tolist(), multiplicity.tolist())
        }
        assert got == want
        assert sources.dtype == np.int64

    @pytest.mark.parametrize("case, k", list(PINNED_FITS))
    def test_fits_pinned(self, case, k):
        report = fit_lamp_em(pinned_fit_corpus(case), k=k, max_iter=12, tol=0.0)
        assert fit_digest(report) == PINNED_FITS[case, k]

    def test_observed_row_without_mass_becomes_uniform(self):
        # b -> c is observed only at lag 1, where the initial matrix gives
        # it probability 0; row b gets no mass and turns uniform, which
        # lets lag 1 explain b -> c from the second round on.
        corpus = SequenceCorpus.from_sequences([["a", "b", "c"]])
        matrix = validate_stochastic(
            [[1 / 3, 1 / 3, 1 / 3], [0.0, 1.0, 0.0], [1 / 3, 1 / 3, 1 / 3]], list("abc")
        )
        assert_matches_per_position_em(
            corpus, k=2, iterations=4, init=(KernelDistribution.uniform(2), matrix)
        )

    def test_state_never_a_source_gets_uniform_row(self):
        corpus = SequenceCorpus.from_sequences([["a", "b", "c"], ["b", "a", "c"]])
        report = fit_lamp_em(corpus, k=2)
        assert report.model.matrix.rows[corpus.vocabulary.index_of("c")].tolist() == [1 / 3] * 3

    def test_degenerate_init(self):
        corpus = SequenceCorpus.from_sequences([["a", "b", "a"]])
        identity = validate_stochastic([[1.0, 0.0], [0.0, 1.0]], ["a", "b"])
        with pytest.raises(DegenerateInitError):
            fit_lamp_em(corpus, k=1, init=(KernelDistribution.point_mass(1), identity))
        # An init of another order, or over another vocabulary, fits nothing.
        with pytest.raises(ValueError, match="order 2, expected 1"):
            fit_lamp_em(corpus, k=1, init=(KernelDistribution.uniform(2), identity))
        swapped = validate_stochastic([[1.0, 0.0], [0.0, 1.0]], ["b", "a"])
        with pytest.raises(ValueError, match="vocabulary"):
            fit_lamp_em(corpus, k=1, init=(KernelDistribution.point_mass(1), swapped))

    def test_mismatched_init_is_rejected_before_the_pattern_step(self, monkeypatch):
        def no_pattern_step(*args):
            raise AssertionError("the pattern step ran before init was checked")

        monkeypatch.setattr("lamp_entropy.fitting._em_round", no_pattern_step)
        corpus = SequenceCorpus.from_sequences([["a", "b", "a", "b", "b"]])
        identity = validate_stochastic([[1.0, 0.0], [0.0, 1.0]], ["a", "b"])
        swapped = validate_stochastic([[1.0, 0.0], [0.0, 1.0]], ["b", "a"])
        with pytest.raises(ValueError, match="order 6, expected 5"):
            fit_lamp_em(corpus, k=5, init=(KernelDistribution.uniform(6), identity))
        with pytest.raises(ValueError, match="vocabulary"):
            fit_lamp_em(corpus, k=5, init=(KernelDistribution.uniform(5), swapped))

    def test_short_and_empty_sequences_add_nothing(self):
        # An empty or one-token sequence holds no transition: the fit is
        # the fit without it.
        alone = fit_digest(fit_lamp_em(SequenceCorpus.from_sequences([["a", "b"]]), k=2))
        for seqs in ([["a", "b"], ["a"]], [["a", "b"], []], [[], ["a", "b"], [], ["b"], []]):
            corpus = SequenceCorpus.from_sequences(seqs)
            assert fit_digest(fit_lamp_em(corpus, k=2)) == alone
        rng = np.random.default_rng(8)
        seqs = [list(rng.choice(list("abcd"), rng.integers(2, 15))) for _ in range(30)]
        padded = [[]] + seqs[:10] + [["c"], [], ["a"]] + seqs[10:] + [["d"], []]
        for k in (1, 3):
            fits = [
                fit_lamp_em(SequenceCorpus.from_sequences(c), k, max_iter=30, tol=0.0)
                for c in (padded, seqs)
            ]
            assert fits[0].model.labels == fits[1].model.labels
            assert fit_digest(fits[0]) == fit_digest(fits[1])
        # No sequence at all leaves nothing to fit.
        empty = SequenceCorpus(np.array([], np.int32), np.array([0]), corpus.vocabulary)
        with pytest.raises(EmptyCorpusError, match="no transitions to fit"):
            fit_lamp_em(empty, k=2)

    def test_nan_tol_rejected(self):
        # delta < nan is never true, so a NaN tol would run every round unconverged.
        corpus = SequenceCorpus.from_sequences([["a", "b", "a"]])
        with pytest.raises(ValueError, match="tol"):
            fit_lamp_em(corpus, k=1, tol=float("nan"))
        with pytest.raises(ValueError, match="k must"):
            fit_lamp_em(corpus, k=0)
        with pytest.raises(ValueError, match="max_iter"):
            fit_lamp_em(corpus, k=1, max_iter=0)

    def test_trace_scores_the_models_em_returns(self):
        # Round r's trace entry is the likelihood of the model after r
        # rounds, as lamp_log_likelihood scores it: EM's merged patterns
        # and the scorer clamp lags past a sequence's start alike, and
        # sequences shorter than k take the clamp at most positions.
        rng = np.random.default_rng(38)
        model = LampModel(random_ergodic(5, rng), KernelDistribution([0.5, 0.3, 0.2]))
        lengths = rng.integers(2, 9, size=60)
        corpus = SequenceCorpus.from_sequences(
            [simulate_lamp(model, int(length), seed=s) for s, length in enumerate(lengths)]
        )
        init_matrix = validate_stochastic(
            random_ergodic(corpus.vocabulary.n, rng).rows, corpus.vocabulary.labels
        )
        init = (KernelDistribution([0.2, 0.3, 0.5]), init_matrix)
        first = fit_lamp_em(corpus, 3, init=init, max_iter=1).log_likelihood_trace[0]
        assert first == pytest.approx(
            lamp_log_likelihood(LampModel(init_matrix, init[0]), corpus), rel=1e-12
        )
        for r in range(1, 8):
            after = fit_lamp_em(corpus, 3, init=init, max_iter=r, tol=0.0).model
            trace = fit_lamp_em(corpus, 3, init=init, max_iter=r + 1, tol=0.0).log_likelihood_trace
            assert trace[r] == pytest.approx(lamp_log_likelihood(after, corpus), rel=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(33)
        P = random_ergodic(3, rng)
        model = LampModel(P, KernelDistribution([0.5, 0.5]))
        tokens = simulate_lamp(model, 10_000, seed=7)
        corpus = SequenceCorpus.from_sequences([tokens])
        renamed = SequenceCorpus.from_sequences(
            [[f"<{t}>" for t in seq] for seq in corpus.sequences]
        )
        a = fit_lamp_em(corpus, k=2)
        b = fit_lamp_em(renamed, k=2)
        order = [b.model.matrix.states.index_of(f"<{l}>") for l in a.model.labels]
        assert np.abs(a.model.matrix.rows - b.model.matrix.rows[np.ix_(order, order)]).max() < 1e-9
        assert np.abs(a.model.kernel.weights - b.model.kernel.weights).max() < 1e-9
        assert abs(a.log_likelihood_trace[-1] - b.log_likelihood_trace[-1]) < 1e-9


class TestLampLogLikelihood:
    def test_deterministic_chain_zero(self):
        P = validate_stochastic([[0.0, 1.0], [1.0, 0.0]], ["a", "b"])
        model = LampModel(P, KernelDistribution.point_mass(1))
        corpus = SequenceCorpus.from_sequences([["a", "b", "a", "b"]])
        assert lamp_log_likelihood(model, corpus) == 0.0

    def test_uniform_rows_cost_log_n_per_position(self):
        n = 4
        P = validate_stochastic(np.full((n, n), 1 / n), list("abcd"))
        model = LampModel(P, KernelDistribution.uniform(3))
        corpus = SequenceCorpus.from_sequences([["a", "b", "c"], ["d", "a"]])
        scored = corpus.total_tokens - corpus.n_sequences
        assert lamp_log_likelihood(model, corpus) == -scored * math.log2(n)

    def test_point_mass_kernel_matches_log_loss(self):
        # With a single lag the per-symbol likelihood and the transition
        # surprisal coincide.
        rng = np.random.default_rng(34)
        P = random_ergodic(3, rng)
        model = LampModel(P, KernelDistribution.point_mass(2))
        seq = simulate_lamp(model, 2000, seed=8)
        corpus = SequenceCorpus.from_sequences([seq])
        scored = len(seq) - 1
        assert lamp_log_likelihood(model, corpus) == pytest.approx(
            -scored * log_loss(model, seq, burn_in=0), rel=1e-12
        )

    def test_matches_bruteforce_mixture_oracle(self):
        rng = np.random.default_rng(35)
        P = random_ergodic(3, rng)
        model = LampModel(P, KernelDistribution([0.3, 0.5, 0.2]))
        seq = simulate_lamp(model, 200, seed=9)
        corpus = SequenceCorpus.from_sequences([seq])
        expected = 0.0
        for t in range(1, len(seq)):
            dist = lamp_transition_distribution(model, seq[:t])
            expected += math.log2(dist[model.matrix.states.index_of(seq[t])])
        assert lamp_log_likelihood(model, corpus) == pytest.approx(expected, abs=1e-9)

    def test_corpus_codes_mapped_to_model_labels(self):
        # The corpus numbers b before a; a single-token sequence is not
        # scored, so a label the model lacks is harmless there.
        P = validate_stochastic([[0.2, 0.8], [0.6, 0.4]], ["a", "b"])
        model = LampModel(P, KernelDistribution.point_mass(1))
        corpus = SequenceCorpus.from_sequences([["b", "a", "a"], ["z"]])
        assert lamp_log_likelihood(model, corpus) == math.log2(0.6) + math.log2(0.2)
        with pytest.raises(UnknownTokenError, match="'z'"):
            lamp_log_likelihood(model, SequenceCorpus.from_sequences([["a", "b"], ["b", "z"]]))
