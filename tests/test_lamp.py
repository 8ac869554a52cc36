import codecs
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamp_entropy import (
    EmptyHistoryError,
    InvalidInitStateError,
    InvalidProbabilityError,
    KernelDistribution,
    LampModel,
    NotIrreducibleError,
    RowSumError,
    TooShortError,
    UnknownTokenError,
    ZeroProbabilityError,
    entropy_rate,
    is_irreducible,
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
import lamp_entropy.lamp as lamp_module
import lamp_entropy.markov as markov_module
from lamp_entropy.lamp import _step_scores, model_to_json_dict

from test_markov import (
    H_BINARY_01,
    NEAR_ONE,
    SAMPLER_SIZES,
    SHORT_ROW,
    FixedDraws,
    random_ergodic,
    short_row_chain,
)


def sparse_chain(n, seed, out_degree=3):
    """Ergodic chain with at most ``out_degree + 1`` successors per state:
    a few random ones plus the next state on a cycle."""
    rng = np.random.default_rng(seed)
    rows = np.zeros((n, n))
    for i in range(n):
        succ = np.append(rng.choice(n, out_degree, replace=False), (i + 1) % n)
        rows[i, succ] = rng.random(succ.size) + 0.1
    rows /= rows.sum(axis=1, keepdims=True)
    return validate_stochastic(rows, [f"s{i}" for i in range(n)])


def reducible_sparse_chain(n, seed, out_degree=3):
    """Shuffled: the first half of the states transient, each leaking into
    one of two closed classes of ``n / 4`` states; every state has at most
    ``out_degree + 2`` successors, the next one on its block's cycle among them."""
    rng = np.random.default_rng(seed)
    rows = np.zeros((n, n))
    t, a = n // 2, 3 * n // 4
    for i in range(n):
        lo, hi = (0, t) if i < t else (t, a) if i < a else (a, n)
        succ = np.append(rng.integers(lo, hi, out_degree), lo + (i - lo + 1) % (hi - lo))
        rows[i, succ] += rng.random(succ.size) + 0.1
        if i < t:
            rows[i, rng.integers(t, n)] += 0.2
    perm = rng.permutation(n)
    rows = (rows / rows.sum(axis=1, keepdims=True))[np.ix_(perm, perm)]
    return validate_stochastic(rows, [f"s{i}" for i in range(n)])


SPIKE_7 = KernelDistribution([0.1, 0, 0, 0, 0, 0, 0.9])
THREE_STATE = validate_stochastic(
    [[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.0, 0.6, 0.4]], ["a", "b", "c"]
)

# sha256 of the newline-joined labels of 5,000 steps at seed 17 under the
# spike-7 kernel, by (chain, init, sampler): THREE_STATE, the 80-state
# sparse chain (rows of a few positive cells) and a dense 70-state chain
# (every row shares one list of column numbers).
PINNED_STREAMS = {
    ("three", None, "lamp"): "803eb157d48175082c038754064fe37c37405f98168df9ec07b1b18c491dcc53",
    ("three", None, "markov"): "1389899863d9c71bbfb2fa2298a02772843100938870a6ee5945e21c7d1a77b8",
    ("three", 1, "lamp"): "8f9146217504ea25344b7fa2c21b5bd47d742a155ef62bfc45891b081eeedd79",
    ("three", 1, "markov"): "a60906e3e262b54800dd324a55cc9c426f2ad6959d822d6324aa64d27a4f42f5",
    ("sparse80", None, "lamp"): "381e9e3e83318c3b42faae7d3838652dfee769cad9317a6e21295586c0ae17c8",
    ("sparse80", None, "markov"):
        "393fe45430ad0717e2cec266de10db146e2f3d455a41e80820d890ec2e59790c",
    ("sparse80", 1, "lamp"): "2e96291078929bd640384a954ac1c9587f4020aff510aeea517fec349b463450",
    ("sparse80", 1, "markov"): "cb4c8481d841f5cce4cb13ad5ec00c815002d7686ddc95f33dbcf5a6d76a13f9",
    ("dense70", None, "lamp"): "8ee249ab9f4c60c10f0d06cf07887cf193200dd97982b28461be4315da9f1d8a",
    ("dense70", None, "markov"): "1ca456ddfde1c722e0fc4e80da23bf653ee677f9047e762141136106d19a4122",
    ("dense70", 1, "lamp"): "a0a8f94a182d66cd01c1b9d6b8b502d2d321067b7cd8b49caee3a06117fb7c1c",
    ("dense70", 1, "markov"): "31570e40395f02192b54cb9323af1c793e5d4c259893fd804554df1d8887ed32",
}
PINNED_CHAINS = {
    "three": lambda: THREE_STATE,
    "sparse80": lambda: sparse_chain(80, 5),
    "dense70": lambda: random_ergodic(70, np.random.default_rng(5)),
}


@pytest.fixture
def symmetric_chain():
    return validate_stochastic([[0.9, 0.1], [0.1, 0.9]], ["a", "b"])


class TestKernelDistribution:
    def test_validation(self):
        with pytest.raises(RowSumError):
            KernelDistribution([0.5, 0.6])
        assert KernelDistribution([0.25, 0.75]).k == 2
        for weights in ([], [[1.0]]):
            with pytest.raises(ValueError, match="non-empty 1-D"):
                KernelDistribution(weights)
        for build, args, message in (
            (KernelDistribution.point_mass, (0,), "lag must"),
            (KernelDistribution.uniform, (0,), "k must"),
            (KernelDistribution.geometric, (0,), "k must"),
            (KernelDistribution.geometric, (3, 1.0), "ratio"),
        ):
            with pytest.raises(ValueError, match=message):
                build(*args)

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

    @pytest.mark.parametrize("case", list(PINNED_STREAMS))
    def test_seeded_streams_pinned(self, case):
        chain, init, sampler = case
        matrix = PINNED_CHAINS[chain]()
        if sampler == "lamp":
            tokens = simulate_lamp(LampModel(matrix, SPIKE_7), 5000, seed=17, init=init)
        else:
            tokens = simulate_markov(matrix, 5000, seed=17, init=init)
        assert hashlib.sha256("\n".join(tokens).encode()).hexdigest() == PINNED_STREAMS[case]

    @pytest.mark.parametrize("n", SAMPLER_SIZES)
    @pytest.mark.parametrize("u, state", [(0.0, "s1"), (NEAR_ONE, "s5")])
    def test_draws_land_on_positive_cells(self, n, u, state):
        model = LampModel(short_row_chain(n), KernelDistribution([0.5, 0.5]))
        assert simulate_lamp(model, 4, seed=FixedDraws(u), init=0) == ["s0", state, state, state]

    @pytest.mark.parametrize("n", SAMPLER_SIZES)
    @pytest.mark.parametrize("u", [0.0, NEAR_ONE])
    def test_draws_land_on_positive_lags(self, n, u):
        # Lags 1 and 7 have weight 0 and the kernel's cumulative total lies
        # below NEAR_ONE; on a deterministic cycle, drawing either of them
        # would emit a symbol of model probability 0.
        cycle = validate_stochastic(np.roll(np.eye(n), 1, axis=1), [f"s{i}" for i in range(n)])
        model = LampModel(cycle, KernelDistribution([0.0, *SHORT_ROW, 0.0]))
        path = simulate_lamp(model, 30, seed=FixedDraws(u), init=0)
        assert np.isfinite(step_log2_probs(model, path)).all()

    @pytest.mark.parametrize("init", [None, 1])
    def test_one_step_is_first_symbol(self, init):
        model = LampModel(sparse_chain(80, 5), SPIKE_7)
        path = simulate_lamp(model, 50, seed=3, init=init)
        assert simulate_lamp(model, 1, seed=3, init=init) == path[:1]

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            simulate_lamp(LampModel(THREE_STATE, SPIKE_7), 0, seed=0)

    def test_fractional_init_rejected(self):
        # A float index is no state: int() would start this path at state 2.
        model = LampModel(THREE_STATE, SPIKE_7)
        with pytest.raises(InvalidInitStateError, match="2.9"):
            simulate_lamp(model, 4, seed=0, init=2.9)
        path = simulate_lamp(model, 4, seed=0, init="c")
        assert simulate_lamp(model, 4, seed=0, init=2) == path
        assert simulate_lamp(model, 4, seed=0, init=np.int64(2)) == path

    def test_dense_working_memory(self):
        # The path's states and labels, about 17 bytes a step, one block's
        # draws and sources (about 2 MB), and one (cum, cols) pair of lists
        # per row. Full-length draws and sources took 113 bytes a step, and
        # anything held per state and per step breaks the bound too.
        steps = 250_000
        model = LampModel(random_ergodic(64, np.random.default_rng(2)), SPIKE_7)
        tracemalloc.start()
        try:
            simulate_lamp(model, steps, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * steps + 2**22

    def test_stationary_start_holds_no_dense_block(self):
        # The first state's law needs the solver's dense blocks; the matrix
        # keeps only its edges and condensation, O(n + edges). Measured at
        # 1.08 * n^2 * 8 bytes while no dense block outlives the call that
        # made it and the walk took dense cumulative sums, at 0.89 once it
        # summed the positive cells alone, and at 1.72 with the solver's
        # blocks kept on the matrix.
        n = 300
        model = LampModel(reducible_sparse_chain(n, seed=5), KernelDistribution([0.5, 0.5]))
        assert not is_irreducible(model.matrix)
        tracemalloc.start()
        try:
            simulate_lamp(model, 100, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * n * n * 8

    def test_walk_holds_no_dense_block(self):
        # The walk sums each row over its positive cells: measured at
        # 0.25 * n^2 * 8 bytes, 1.07 with the dense cumulative sums.
        n = 300
        P = reducible_sparse_chain(n, seed=5)
        tracemalloc.start()
        try:
            simulate_markov(P, 100, seed=1, init=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.4 * n * n * 8

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
            loss = log_loss(model, seq, burn_in=10)
            assert loss == 0.0
            assert not math.copysign(1, loss) < 0  # +0.0, not -0.0

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
        with pytest.raises(TooShortError):
            step_log2_probs(model, ["a"])
        with pytest.raises(ValueError, match="burn_in"):
            log_loss(model, ["a", "b", "a"], burn_in=-1)

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

    @pytest.mark.parametrize(
        "model, seed, loss",
        [
            (LampModel(THREE_STATE, SPIKE_7), 3, "0x1.34b966705653dp+0"),
            (LampModel(sparse_chain(600, 6), KernelDistribution.geometric(3, 0.5)), 4,
             "0x1.d9af6c54341e7p+0"),
        ],
        ids=["three-state-spike-7", "sparse-600"],
    )
    def test_self_scored_loss_pinned(self, model, seed, loss):
        seq = simulate_lamp(model, 20_000, seed=seed)
        assert log_loss(model, seq).hex() == loss


@st.composite
def scored_paths(draw):
    """A small model and a path over its states, often shorter than k."""
    n = draw(st.integers(1, 8))
    row = st.lists(st.integers(0, 4), min_size=n, max_size=n)
    counts = np.array(draw(st.lists(row, min_size=n, max_size=n)), dtype=float)
    counts[np.arange(n), np.arange(n)] += counts.sum(axis=1) == 0
    rows = counts / counts.sum(axis=1, keepdims=True)
    matrix = validate_stochastic(rows, [f"s{i}" for i in range(n)])
    k = draw(st.integers(1, 8))
    shape = draw(st.sampled_from(["point", "spike", "any"]))
    if shape == "point":
        kernel = KernelDistribution.point_mass(k)
    else:
        if shape == "spike":
            w = np.zeros(k)
            w[[0, k - 1]] = draw(st.lists(st.integers(1, 9), min_size=2, max_size=2))
        else:
            w = np.array(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)), dtype=float)
            w[-1] += w.sum() == 0
        kernel = KernelDistribution(w / w.sum())
    seq = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2 * k + 4))
    return LampModel(matrix, kernel), seq


def check_against_oracle(model, seq):
    """Both scorers against a per-position oracle built from
    :func:`lamp_transition_distribution` and the explicit lag sum."""
    rows, w = model.matrix.rows, model.kernel.weights
    tokens = [model.labels[i] for i in seq]
    mixture = [
        lamp_transition_distribution(model, tokens[:t])[seq[t]] for t in range(1, len(seq))
    ]
    if min(mixture) == 0.0:
        with pytest.raises(ZeroProbabilityError):
            _step_scores(model, np.array(seq), weighted=True)
        with pytest.raises(ZeroProbabilityError):
            step_log2_probs(model, tokens)
        return
    expected_log = np.log2(mixture)
    assert np.abs(step_log2_probs(model, tokens) - expected_log).max() <= 1e-12
    # Posterior-weighted log2 P of the realised transition, position by position.
    oracle = []
    for t in range(1, len(seq)):
        total = 0.0
        for q in range(1, model.kernel.k + 1):
            p = rows[seq[max(0, t - q)], seq[t]]
            if p > 0.0:
                total += w[q - 1] * p * math.log2(p)
        oracle.append(total / mixture[t - 1])
    weighted = _step_scores(model, np.array(seq), weighted=True)
    assert np.abs(weighted - oracle).max() <= 1e-12 * max(1.0, np.abs(oracle).max())
    expected_loss = max(-math.fsum(oracle) / len(oracle), 0.0)
    loss = log_loss(model, tokens, burn_in=0)
    assert abs(loss - expected_loss) <= 1e-12 * max(1.0, expected_loss)


@settings(max_examples=300, deadline=None)
@given(scored_paths())
def test_step_scores_match_per_position_oracle(case):
    check_against_oracle(*case)


SMALL_BLOCKS = [1, 2, 3, 7]


@settings(max_examples=300, deadline=None)
@given(scored_paths(), st.sampled_from(SMALL_BLOCKS))
def test_step_scores_match_oracle_in_small_blocks(case, block):
    # Paths of up to 2k + 4 symbols span several blocks, and a lag's
    # clamped sources can fill whole blocks.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lamp_module, "_BLOCK", block)
        check_against_oracle(*case)


# Twelve lags of decreasing weight: in blocks of 1 to 7 steps, a step's
# source can lie several blocks back.
LAGS_12 = KernelDistribution.geometric(12, 0.8)


@st.composite
def sampling_cases(draw):
    """A block length, a chain, a kernel, an init, a seed, and ``n_steps``
    whose ``n_steps - 1`` draws fill no block, one block, or a block
    multiple -1, 0 or +1."""
    block = draw(st.sampled_from(SMALL_BLOCKS))
    chain = draw(st.sampled_from(["three", "sparse80"]))
    kernel = draw(st.sampled_from([SPIKE_7, LAGS_12]))
    init = draw(st.sampled_from([None, "index", "label"]))
    multiple = block * draw(st.integers(2, 8))
    n_steps = 1 + draw(st.sampled_from([0, block, multiple - 1, multiple, multiple + 1]))
    return block, chain, kernel, init, draw(st.integers(0, 2**32 - 1)), n_steps


@settings(max_examples=200, deadline=None)
@given(sampling_cases())
def test_paths_independent_of_sampling_block(case):
    block, chain, kernel, init, seed, n_steps = case
    matrix = PINNED_CHAINS[chain]()
    init = {"index": 1, "label": matrix.labels[-1]}.get(init)
    model = LampModel(matrix, kernel)
    lamp_path = simulate_lamp(model, n_steps, seed=seed, init=init)
    markov_path = simulate_markov(matrix, n_steps, seed=seed, init=init)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(markov_module, "_BLOCK", block)
        assert simulate_lamp(model, n_steps, seed=seed, init=init) == lamp_path
        assert simulate_markov(matrix, n_steps, seed=seed, init=init) == markov_path


class TestBlockedScoring:
    @pytest.fixture
    def long_kernel_case(self):
        rng = np.random.default_rng(12)
        w = rng.random(12) + 0.05
        model = LampModel(random_ergodic(4, rng), KernelDistribution(w / w.sum()))
        return model, simulate_lamp(model, 200, seed=12)

    @pytest.mark.parametrize("block", SMALL_BLOCKS)
    def test_bits_independent_of_block(self, monkeypatch, long_kernel_case, block):
        model, seq = long_kernel_case
        loss = log_loss(model, seq, burn_in=5).hex()
        logs = step_log2_probs(model, seq)
        monkeypatch.setattr(lamp_module, "_BLOCK", block)
        assert log_loss(model, seq, burn_in=5).hex() == loss
        assert step_log2_probs(model, seq).tobytes() == logs.tobytes()

    @pytest.mark.parametrize("block", SMALL_BLOCKS)
    def test_zero_probability_position_is_global(self, monkeypatch, block):
        P = validate_stochastic([[0.0, 1.0], [0.5, 0.5]], ["a", "b"])
        model = LampModel(P, KernelDistribution([0.5, 0, 0.5]))
        # Position 11 is the first a -> a step whose lag-1 and lag-3 sources are both a.
        seq = ["a", "b"] * 5 + ["a", "a", "b"]
        with pytest.raises(ZeroProbabilityError, match="position 11 "):
            step_log2_probs(model, seq)
        monkeypatch.setattr(lamp_module, "_BLOCK", block)
        for score in (step_log2_probs, lambda m, s: log_loss(m, s, burn_in=0)):
            with pytest.raises(ZeroProbabilityError, match="position 11 "):
                score(model, seq)

    def test_log_loss_working_memory(self):
        model = LampModel(THREE_STATE, SPIKE_7)
        seq = simulate_lamp(model, 1_000_000, seed=5)
        tracemalloc.start()
        try:
            log_loss(model, seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The int32 codes and the float64 scores: 12 MB, plus block buffers.
        assert peak < 16e6


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
    # A UTF-8 byte-order mark is read past.
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    with_bom = load_model(path)
    assert with_bom.labels == back.labels
    assert np.array_equal(with_bom.matrix.rows, back.matrix.rows)
    assert np.array_equal(with_bom.kernel.weights, back.kernel.weights)


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
    text = "".join(save_model(model, path).chunks) + "\n"
    old = json.dumps(model_to_json_dict(model), indent=2) + "\n"
    assert "-0.0" in old and "\\u00e9" in old
    assert path.read_text(encoding="utf-8") == text == old
