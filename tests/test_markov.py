import codecs
import functools
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lamp_entropy import (
    DimensionMismatchError,
    DuplicateLabelError,
    InvalidInitStateError,
    InvalidProbabilityError,
    KernelDistribution,
    LampModel,
    MalformedFileError,
    NegativeEntryError,
    NonSquareError,
    NotIrreducibleError,
    RowSumError,
    StateSpace,
    StationaryDistribution,
    TransitionMatrix,
    UnknownTokenError,
    entropy_rate,
    is_irreducible,
    load_matrix_csv,
    load_matrix_json,
    save_matrix_csv,
    save_matrix_json,
    save_model,
    simulate_markov,
    stationary_distribution,
    validate_stochastic,
)
from lamp_entropy import markov
from lamp_entropy.markov import EncodedJSON, encode_json, write_json

NAN, INF = float("nan"), float("inf")

# Hand-solved fixed point of [[0.5, 0.5], [1, 0]]: pi = pi P gives
# pi_0 = 0.5 pi_0 + pi_1 and pi_0 + pi_1 = 1, so pi = (2/3, 1/3).
PI_LAZY_RESET = np.array([2 / 3, 1 / 3])

# Binary entropy of 0.1: -(0.9 log2 0.9 + 0.1 log2 0.1).
H_BINARY_01 = 0.4689955935892812


# Period 2: power iteration on P itself would oscillate forever.
PERIODIC_TWO_CYCLE = validate_stochastic([[0.0, 1.0], [1.0, 0.0]], ["a", "b"])


def random_ergodic(n, rng, floor=0.1):
    rows = (1 - floor) * rng.dirichlet(np.ones(n), size=n) + floor / n
    return validate_stochastic(rows, [f"s{i}" for i in range(n)])


# Summed left to right this row reaches 0.9999999999999998, so a draw of
# NEAR_ONE lies above its cumulative total.
SHORT_ROW = [0.06, 0.61, 0.08, 0.07, 0.18]
NEAR_ONE = float(np.nextafter(1.0, 0.0))

# Short-row chains where zero cells are few (7 states) and most (70).
SAMPLER_SIZES = [7, 70]


def short_row_chain(n):
    """Every row is SHORT_ROW on states 1..5 and 0 on state 0 and states
    6..n-1; built directly, so the rows are not rescaled."""
    rows = np.zeros((n, n))
    rows[:, 1:6] = SHORT_ROW
    return TransitionMatrix(StateSpace(tuple(f"s{i}" for i in range(n))), rows)


class FixedDraws(np.random.Generator):
    """A generator whose uniform draws all equal ``value``."""

    def __init__(self, value):
        super().__init__(np.random.PCG64(0))
        self.value = value

    def random(self, size=None):
        return self.value if size is None else np.full(size, self.value)


class TestValidateStochastic:
    def test_valid_matrix(self):
        P = validate_stochastic([[0.5, 0.5], [1.0, 0.0]], ["a", "b"])
        assert P.labels == ("a", "b")
        assert np.allclose(P.rows.sum(axis=1), 1.0)

    def test_single_state(self):
        P = validate_stochastic([[1.0]], ["a"])
        assert P.n == 1
        with pytest.raises(ValueError, match="at least one label"):
            StateSpace(())
        with pytest.raises(UnknownTokenError):
            P.states.index_of("b")

    def test_row_sum_violation(self):
        with pytest.raises(RowSumError):
            validate_stochastic([[0.5, 0.6], [1.0, 0.0]], ["a", "b"])

    def test_non_square(self, tmp_path):
        with pytest.raises(NonSquareError):
            validate_stochastic([[0.5, 0.5]], ["a"])
        with pytest.raises(NonSquareError):
            TransitionMatrix(StateSpace(("a",)), [[0.5, 0.5]])
        path = tmp_path / "m.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(NonSquareError):
            load_matrix_csv(path)

    def test_label_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            validate_stochastic([[1.0]], ["a", "b"])
        with pytest.raises(DimensionMismatchError):
            StationaryDistribution(StateSpace(("a", "b")), [1.0])

    def test_negative_entry(self):
        with pytest.raises(NegativeEntryError):
            validate_stochastic([[1.5, -0.5], [0.5, 0.5]], ["a", "b"])

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabelError):
            validate_stochastic([[0.5, 0.5], [0.5, 0.5]], ["a", "a"])

    def test_labels_must_be_strings(self):
        # A string is no sequence of labels: tuple("ab") would be ("a", "b").
        # A dict would give its keys, and a set's order follows the hash seed.
        for labels in (["a", 1], "ab", {"a": 0, "b": 1}, {"a", "b"}):
            with pytest.raises(TypeError):
                validate_stochastic([[0.5, 0.5], [1.0, 0.0]], labels)

    def test_tiny_deviation_renormalised(self):
        P = validate_stochastic([[0.5, 0.5 + 1e-12], [1.0, 0.0]], ["a", "b"])
        assert abs(P.rows[0].sum() - 1.0) < 1e-15

    @pytest.mark.parametrize(
        "rows",
        [[[NAN, NAN], [0.5, 0.5]], [[NAN, 1.0], [0.5, 0.5]], [[INF, 0.0], [0.5, 0.5]],
         [[-INF, 1.0], [0.5, 0.5]]],
    )
    def test_non_finite_rejected(self, rows):
        with pytest.raises(InvalidProbabilityError):
            validate_stochastic(rows, ["a", "b"])
        with pytest.raises(InvalidProbabilityError):
            TransitionMatrix(StateSpace(("a", "b")), np.array(rows))

    @pytest.mark.parametrize(
        "rows, error, message",
        [
            ([[1.5, -0.5], [0.5, 0.5]], NegativeEntryError,
             "transition probabilities must be non-negative"),
            ([[0.5, 0.5], [NAN, 1.0]], InvalidProbabilityError,
             "transition probabilities must be finite"),
            ([[0.5, 0.5], [INF, 0.0]], InvalidProbabilityError,
             "transition probabilities must be finite"),
            ([[INF, -INF], [0.5, 0.5]], InvalidProbabilityError,
             "transition probabilities must be finite"),
            ([[0.5, 0.5], [0.0, 0.0]], RowSumError, "row 1 sums to 0.0, expected 1"),
            ([[0.5, 0.5], [0.75, 0.75]], RowSumError, "row 1 sums to 1.5, expected 1"),
            # Two faults: the first in check order is reported, as for a
            # TransitionMatrix built from the raw rows.
            ([[0.5, 0.7], [1.5, -0.5]], NegativeEntryError,
             "transition probabilities must be non-negative"),
            ([[0.0, 0.0], [0.75, 0.75]], RowSumError, "row 0 sums to 0.0, expected 1"),
        ],
    )
    def test_fault_error_and_message(self, rows, error, message):
        raw = np.array(rows)
        before = raw.copy()
        for build in (validate_stochastic, lambda r, labels: TransitionMatrix(StateSpace(labels), r)):
            with pytest.raises(error) as info:
                build(raw, ("a", "b"))
            assert str(info.value) == message
        np.testing.assert_array_equal(raw, before)

    def test_caller_array_untouched(self):
        raw = np.array([[0.5, 0.5 + 1e-12], [1.0, 0.0]])
        before = raw.copy()
        P = validate_stochastic(raw, ["a", "b"])
        assert raw.tobytes() == before.tobytes()
        assert P.rows.tobytes() == (before / before.sum(axis=1)[:, None]).tobytes()


@pytest.mark.parametrize("probs", [[NAN, 1.0], [NAN, NAN], [INF, 0.0]])
def test_stationary_distribution_rejects_non_finite(probs):
    with pytest.raises(InvalidProbabilityError):
        StationaryDistribution(StateSpace(("a", "b")), np.array(probs))


class TestStationaryDistribution:
    def test_symmetric_chain(self):
        P = validate_stochastic([[0.9, 0.1], [0.1, 0.9]], ["a", "b"])
        pi = stationary_distribution(P)
        assert np.allclose(pi.probs, [0.5, 0.5], atol=1e-10)

    def test_lazy_reset_chain(self):
        P = validate_stochastic([[0.5, 0.5], [1.0, 0.0]], ["a", "b"])
        pi = stationary_distribution(P)
        assert np.abs(pi.probs - PI_LAZY_RESET).max() < 1e-9

    def test_single_state(self):
        P = validate_stochastic([[1.0]], ["a"])
        assert stationary_distribution(P).probs[0] == 1.0

    # "direct": the fixed-point residual of the solve itself; "power": the
    # solve also matches u·P^t from a uniform start, iterated in the test
    # (these chains have every entry ≥ floor/n, so u·P^t contracts fast).
    @pytest.mark.parametrize("reference", ["direct", "power"])
    def test_fixed_point_residual(self, reference):
        rng = np.random.default_rng(5)
        for n in (2, 3, 7):
            P = random_ergodic(n, rng)
            pi = stationary_distribution(P)
            assert np.abs(pi.probs @ P.rows - pi.probs).sum() < 1e-8
            if reference == "power":
                x = np.full(n, 1.0 / n)
                for _ in range(500):
                    x = x @ P.rows
                assert np.abs(pi.probs - x).sum() < 1e-8

    def test_power_handles_periodic_chain(self):
        # Periodic: u·P^t never converges, but its average does.
        pi = stationary_distribution(PERIODIC_TWO_CYCLE)
        assert np.abs(pi.probs - 0.5).max() < 1e-15
        u = np.array([1.0, 0.0])
        cesaro = (u + u @ PERIODIC_TWO_CYCLE.rows) / 2
        assert np.abs(pi.probs - cesaro).max() < 1e-15

    def test_relabelling_invariance(self):
        rng = np.random.default_rng(9)
        P = random_ergodic(4, rng)
        perm = [2, 0, 3, 1]
        relabelled = validate_stochastic(
            P.rows[np.ix_(perm, perm)], [P.labels[i] for i in perm]
        )
        pi = stationary_distribution(P).probs
        pi_rel = stationary_distribution(relabelled).probs
        assert np.abs(pi[perm] - pi_rel).max() < 1e-8

    def test_irreducibility_check(self):
        P = validate_stochastic([[1.0, 0.0], [0.0, 1.0]], ["a", "b"])
        with pytest.raises(NotIrreducibleError):
            stationary_distribution(P, check_irreducible=True)


def irreducible_system(n):
    """``I - P + 1v``, ``v`` uniform, for a sparse ``P`` made irreducible
    by a cycle through every state: the matrix the sweep inverts."""
    rng = np.random.default_rng(n)
    rows = rng.random((n, n)) * (rng.random((n, n)) < 0.05) + np.roll(np.eye(n), 1, axis=1)
    a = rows / -rows.sum(axis=1, keepdims=True)
    a += 1.0 / n
    a.flat[:: n + 1] += 1.0
    return a


class TestInverse:
    @pytest.mark.parametrize("n", [1, 2, 128, 129, 300, 600])
    def test_residual(self, n):
        a = irreducible_system(n)
        w = markov._inverse(a.copy())
        assert np.abs(a @ w - np.eye(n)).sum(axis=1).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 128])
    def test_base_block_is_lapack_bit_for_bit(self, n):
        a = irreducible_system(n)
        assert markov._inverse(a.copy()).tobytes() == np.linalg.inv(a).tobytes()

    @pytest.mark.parametrize("n", [129, 300, 600])
    def test_writes_over_its_argument(self, n):
        a = irreducible_system(n)
        assert markov._inverse(a) is a

    def test_working_memory(self):
        # Quarter-size temporaries only: 0.30·n^2·8 bytes, against
        # n^2·8 for the new array that np.linalg.inv returns.
        n = 600
        a = irreducible_system(n)
        tracemalloc.start()
        try:
            markov._inverse(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * n**2 * 8


class TestEntropyRate:
    def test_fair_coin_rows(self):
        P = validate_stochastic([[0.5, 0.5], [0.5, 0.5]], ["a", "b"])
        pi = StationaryDistribution(P.states, np.array([0.5, 0.5]))
        assert entropy_rate(P, pi) == 1.0

    def test_binary_entropy_value(self):
        P = validate_stochastic([[0.9, 0.1], [0.1, 0.9]], ["a", "b"])
        pi = stationary_distribution(P)
        assert abs(entropy_rate(P, pi) - H_BINARY_01) < 1e-6

    def test_lazy_reset_value(self):
        # (2/3) * H_b(0.5) + (1/3) * 0 = 2/3 bits.
        P = validate_stochastic([[0.5, 0.5], [1.0, 0.0]], ["a", "b"])
        pi = stationary_distribution(P)
        assert abs(entropy_rate(P, pi) - 2 / 3) < 1e-9

    def test_dimension_mismatch(self):
        P = validate_stochastic([[0.5, 0.5], [0.5, 0.5]], ["a", "b"])
        other = StationaryDistribution(StateSpace(("x", "y")), np.array([0.5, 0.5]))
        with pytest.raises(DimensionMismatchError):
            entropy_rate(P, other)

    def test_zero_iff_deterministic_rows(self):
        P = validate_stochastic([[0.0, 1.0], [1.0, 0.0]], ["a", "b"])
        pi = stationary_distribution(P)
        assert entropy_rate(P, pi) == 0.0
        rng = np.random.default_rng(3)
        noisy = random_ergodic(3, rng)
        assert entropy_rate(noisy, stationary_distribution(noisy)) > 0.0

    def test_maximal_for_uniform_rows(self):
        n = 4
        P = validate_stochastic(np.full((n, n), 1 / n), list("abcd"))
        pi = stationary_distribution(P)
        assert abs(entropy_rate(P, pi) - np.log2(n)) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_bounded_by_log_n(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        P = random_ergodic(n, rng, floor=0.0)
        pi = stationary_distribution(P)
        h = entropy_rate(P, pi)
        assert 0.0 <= h <= np.log2(n) + 1e-12


class TestSimulateMarkov:
    def test_absorbing_single_state(self):
        P = validate_stochastic([[1.0]], ["a"])
        assert simulate_markov(P, 5, seed=0, init=0) == ["a"] * 5

    def test_deterministic_two_cycle(self):
        P = validate_stochastic([[0.0, 1.0], [1.0, 0.0]], ["a", "b"])
        assert simulate_markov(P, 4, seed=0, init=0) == ["a", "b", "a", "b"]

    def test_same_seed_same_path(self):
        rng = np.random.default_rng(1)
        P = random_ergodic(3, rng)
        assert simulate_markov(P, 500, seed=42) == simulate_markov(P, 500, seed=42)
        assert simulate_markov(P, 500, seed=42) != simulate_markov(P, 500, seed=43)

    def test_init_by_label(self):
        P = validate_stochastic([[0.0, 1.0], [1.0, 0.0]], ["a", "b"])
        assert simulate_markov(P, 3, seed=0, init="b") == ["b", "a", "b"]

    @pytest.mark.parametrize("init", [None, 2])
    def test_one_step_is_first_symbol(self, init):
        P = random_ergodic(5, np.random.default_rng(3))
        path = simulate_markov(P, 50, seed=4, init=init)
        assert simulate_markov(P, 1, seed=4, init=init) == path[:1]

    def test_zero_steps_rejected(self):
        P = validate_stochastic([[1.0]], ["a"])
        with pytest.raises(ValueError):
            simulate_markov(P, 0, seed=0)

    def test_invalid_init(self):
        P = validate_stochastic([[1.0]], ["a"])
        with pytest.raises(InvalidInitStateError):
            simulate_markov(P, 3, seed=0, init=5)
        with pytest.raises(InvalidInitStateError):
            simulate_markov(P, 3, seed=0, init="zzz")

    def test_fractional_init_rejected(self):
        # A float index is no state: int() would start this path at state 1.
        P = validate_stochastic([[0.0, 1.0], [1.0, 0.0]], ["a", "b"])
        with pytest.raises(InvalidInitStateError, match="1.7"):
            simulate_markov(P, 4, seed=0, init=1.7)
        assert simulate_markov(P, 3, seed=0, init=np.int64(1)) == ["b", "a", "b"]
        assert simulate_markov(P, 3, seed=0, init=np.uint8(1)) == ["b", "a", "b"]

    @pytest.mark.parametrize("n", SAMPLER_SIZES)
    @pytest.mark.parametrize("u, state", [(0.0, "s1"), (NEAR_ONE, "s5")])
    def test_draws_land_on_positive_cells(self, n, u, state):
        # A search over the dense row maps 0 to state 0 and NEAR_ONE past
        # the row's total to state n-1; both have probability 0.
        P = short_row_chain(n)
        assert simulate_markov(P, 4, seed=FixedDraws(u), init=0) == ["s0", state, state, state]

    @pytest.mark.parametrize("n", SAMPLER_SIZES)
    def test_init_draw_lands_on_positive_state(self, n):
        # State 0 is transient, so its stationary probability is exactly 0.
        P = short_row_chain(n)
        assert stationary_distribution(P).probs[0] == 0.0
        assert simulate_markov(P, 2, seed=FixedDraws(0.0)) == ["s1", "s1"]

    def test_working_memory(self):
        # The path's states and labels, about 17 bytes a step, and one
        # block's draws (about 0.5 MB). Anything held per step beyond the
        # path breaks the bound: full-length draws took 49 bytes a step.
        steps = 1_000_000
        P = random_ergodic(64, np.random.default_rng(2))
        tracemalloc.start()
        try:
            simulate_markov(P, steps, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * steps + 2**22

    def test_empirical_frequencies_match_chain(self):
        P = validate_stochastic([[0.9, 0.1], [0.1, 0.9]], ["a", "b"])
        seq = simulate_markov(P, 10**6, seed=7)
        idx = P.states.encode(seq)
        freq_a = float((idx == 0).mean())
        assert abs(freq_a - 0.5) < 0.01
        pair_counts = np.zeros((2, 2))
        np.add.at(pair_counts, (idx[:-1], idx[1:]), 1)
        emp = pair_counts / pair_counts.sum(axis=1, keepdims=True)
        assert np.abs(emp - P.rows).max() < 0.01


class TestMatrixIO:
    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        P = random_ergodic(4, rng)
        path = tmp_path / "m.json"
        save_matrix_json(P, path)
        back = load_matrix_json(path)
        assert back.labels == P.labels
        assert np.allclose(back.rows, P.rows, atol=1e-15)
        # A UTF-8 byte-order mark is read past.
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        with_bom = load_matrix_json(path)
        assert with_bom.labels == P.labels and np.array_equal(with_bom.rows, back.rows)

    def test_json_with_nan_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"labels": ["a", "b"], "rows": [[NAN, 1.0], [0.5, 0.5]]}))
        assert "NaN" in path.read_text()
        with pytest.raises(InvalidProbabilityError):
            load_matrix_json(path)

    @pytest.mark.parametrize(
        "doc", [{"labels": [0, 1], "rows": [[0.5, 0.5], [1.0, 0.0]]}, {"labels": ["a"]}, [[1.0]]],
        ids=["integer-labels", "no-rows", "not-an-object"],
    )
    def test_malformed_json_names_the_file(self, tmp_path, doc):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFileError, match="m.json"):
            load_matrix_json(path)

    def test_json_bytes_are_json_dumps(self, tmp_path):
        rows = np.zeros((70, 70))
        rows[:, 0] = 0.3
        rows[:, 1:8] = 0.1
        rows[3, 9] = -0.0
        labels = [f"s{i}" for i in range(68)] + ['"q"', "\u00e9\\"]
        P = TransitionMatrix(StateSpace(tuple(labels)), rows)
        path = tmp_path / "m.json"
        save_matrix_json(P, path)
        old = {"labels": labels, "rows": P.rows.tolist()}
        assert path.read_text(encoding="utf-8") == json.dumps(old, indent=2) + "\n"

    def test_json_working_memory(self, tmp_path):
        # 1,000 states, about 1 % of cells nonzero: an 11 MB file, nearly
        # all of it zeros on lines of their own. The writer holds one row's
        # text and a byte a cell; the whole text took 3.8 times the file.
        rng = np.random.default_rng(8)
        n = 1000
        rows = np.where(rng.random((n, n)) < 0.01, rng.random((n, n)), 0.0)
        rows[np.arange(n), (np.arange(n) + 1) % n] += 1.0
        P = validate_stochastic(rows / rows.sum(axis=1, keepdims=True), [f"s{i}" for i in range(n)])
        path = tmp_path / "m.json"
        tracemalloc.start()
        try:
            save_matrix_json(P, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 3

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        P = random_ergodic(3, rng)
        path = tmp_path / "m.csv"
        save_matrix_csv(P, path)
        back = load_matrix_csv(path)
        assert back.labels == P.labels
        assert np.array_equal(back.rows, P.rows)
        # A UTF-8 byte-order mark is not part of the first label.
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        with_bom = load_matrix_csv(path)
        assert with_bom.labels == P.labels and np.array_equal(with_bom.rows, P.rows)


def test_is_irreducible():
    assert is_irreducible(validate_stochastic([[0.0, 1.0], [1.0, 0.0]], ["a", "b"]))
    assert not is_irreducible(validate_stochastic([[1.0, 0.0], [0.0, 1.0]], ["a", "b"]))
    assert not is_irreducible(validate_stochastic([[0.5, 0.5], [0.0, 1.0]], ["a", "b"]))


def plain(value):
    """``value`` as json.dumps takes it: arrays as lists, embedded text parsed."""
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, EncodedJSON):
        return json.loads("".join(value.chunks))
    return value


def written(doc) -> bytes:
    """The bytes that write_json puts in a file for ``doc``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        write_json(doc, path)
        return path.read_bytes()


@functools.cache
def saved_model() -> EncodedJSON:
    """What save_model returns for a model with escaped labels and a -0.0."""
    P = validate_stochastic([[0.5, 0.5, 0.0], [-0.0, 0.1, 0.9], [1.0, 0.0, -0.0]],
                            ['say "hi"', "caf\u00e9", "c"])
    with tempfile.TemporaryDirectory() as tmp:
        return save_model(LampModel(P, KernelDistribution([0.25, 0.75])), Path(tmp) / "m.json")


# Floats whose text is easy to get wrong: signed zero, the smallest
# subnormal, exponent forms and a value that needs 17 digits.
TRICKY_FLOATS = [0.0, -0.0, 5e-324, 1e-300, 1e16, 0.1 + 0.2, 1.0, 0.5]
# Quotes, backslashes, control and non-ASCII characters, plus any text.
labels_st = st.text(
    alphabet=st.sampled_from('ab"\\/\n\t\u00e9\u2603\U0001f600\x00 '), max_size=6
) | st.text(max_size=4)
floats_st = st.sampled_from(TRICKY_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
non_finite_st = st.sampled_from([NAN, INF, -INF])
arrays_st = (
    arrays(np.float64, st.tuples(st.integers(0, 4), st.integers(0, 4)), elements=floats_st)
    | arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 3)),
             elements=floats_st | non_finite_st)
    | arrays(np.float64, st.integers(0, 4), elements=floats_st | non_finite_st)
)
leaves_st = st.none() | st.booleans() | st.integers() | floats_st | st.floats() | labels_st
documents_st = st.recursive(
    leaves_st | arrays_st,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(labels_st, children, max_size=4),
    max_leaves=12,
)


class TestEncodeJson:
    @settings(max_examples=300, deadline=None)
    @given(documents_st)
    @example({"labels": ["é", '"quoted"', "back\\slash"], "rows": np.array([[1.0]]), "empty": []})
    @example({"rows": np.array([TRICKY_FLOATS, TRICKY_FLOATS[::-1]])})
    @example(np.array([[NAN, 1.0], [INF, -INF]]))
    def test_matches_json_dumps(self, doc):
        text = encode_json(doc)
        assert text == json.dumps(plain(doc), indent=2) + "\n"
        assert written(doc) == text.encode("utf-8")

    @settings(max_examples=100, deadline=None)
    @given(documents_st, documents_st, labels_st)
    def test_embedded_text_is_reindented(self, inner, outer, key):
        doc = {key: EncodedJSON(tuple(markov._chunks(inner, ""))), "rest": [outer, saved_model()]}
        text = encode_json(doc)
        assert text == json.dumps(plain(doc), indent=2) + "\n"
        assert written(doc) == text.encode("utf-8")

    def test_tricky_matrix_entries(self):
        rows = np.array([TRICKY_FLOATS])
        text = encode_json({"rows": rows})
        assert [line.strip(" ,") for line in text.splitlines()[3:-3]] == [
            "0.0", "-0.0", "5e-324", "1e-300", "1e+16", "0.30000000000000004", "1.0", "0.5"
        ]

    def test_non_string_key_rejected(self):
        with pytest.raises(TypeError):
            encode_json({1: 2})
