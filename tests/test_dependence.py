import csv
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lamp_entropy import (
    KernelDistribution,
    LagTooLargeError,
    LampModel,
    SequenceCorpus,
    ContingencyTable,
    contingency_table,
    corpus_dependency_profile,
    cramers_v,
    dependency_profile,
    simulate_lamp,
    validate_stochastic,
    write_profile_csv,
)

from test_markov import random_ergodic


class TestContingencyTable:
    def test_lag_one_pairs(self):
        table = contingency_table(["a", "b", "a", "b"], 1)
        assert table.row_labels == ("a", "b")
        # pairs: (a,b), (b,a), (a,b)
        assert table.counts.tolist() == [[0, 2], [1, 0]]
        assert table.total == 3

    def test_lag_zero_is_diagonal(self):
        table = contingency_table(["a", "b", "b"], 0)
        assert table.counts.tolist() == [[1, 0], [0, 2]]

    def test_lag_too_large(self):
        with pytest.raises(LagTooLargeError):
            contingency_table(["a"], 1)
        with pytest.raises(ValueError, match="lag must"):
            contingency_table(["a", "b"], -1)


def exact_cramers_v(counts) -> tuple[float, bool]:
    """Cramér's V with chi-squared summed over every cell in exact rationals."""
    rows = counts.tolist()
    row_sums = [sum(row) for row in rows]
    col_sums = [sum(col) for col in zip(*rows)]
    total = sum(row_sums)
    r = sum(1 for s in row_sums if s)
    c = sum(1 for s in col_sums if s)
    if total == 0 or r < 2 or c < 2:
        return 0.0, True
    # (O - E)^2 / E with E = r_i c_j / N, over integers: (O N - r_i c_j)^2 / (N r_i c_j).
    chi2 = sum(
        Fraction((o * total - ri * cj) ** 2, total * ri * cj)
        for row, ri in zip(rows, row_sums)
        if ri
        for o, cj in zip(row, col_sums)
        if cj
    )
    return math.sqrt(chi2 / (total * min(r - 1, c - 1))), False


@st.composite
def count_tables(draw):
    """1..13 by 1..13 tables of counts up to 1e12, many zeros, some rows and columns empty."""
    n_rows = draw(st.integers(min_value=1, max_value=13))
    n_cols = draw(st.integers(min_value=1, max_value=13))
    top = draw(st.sampled_from([1, 20, 10**9, 10**12]))
    cells = st.one_of(st.just(0), st.integers(min_value=0, max_value=top))
    flat = draw(st.lists(cells, min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    counts = np.array(flat, dtype=np.int64).reshape(n_rows, n_cols)
    counts[draw(st.lists(st.integers(0, n_rows - 1), max_size=2)), :] = 0
    counts[:, draw(st.lists(st.integers(0, n_cols - 1), max_size=2))] = 0
    return counts


class TestCramersV:
    def test_perfect_association(self):
        v = cramers_v(ContingencyTable(("a", "b"), ("a", "b"), np.array([[5, 0], [0, 5]])))
        assert v == (1.0, False)

    def test_exact_independence(self):
        v = cramers_v(ContingencyTable(("a", "b"), ("a", "b"), np.array([[25, 25], [25, 25]])))
        assert v == (0.0, False)

    def test_constant_variable_degenerate(self):
        v = cramers_v(ContingencyTable(("a", "b"), ("a", "b"), np.array([[10, 0], [0, 0]])))
        assert v == (0.0, True)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=20), min_size=2, max_size=5),
            min_size=2,
            max_size=5,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_range_and_permutation_invariance(self, rows):
        counts = np.array(rows)
        labels_r = tuple(f"r{i}" for i in range(counts.shape[0]))
        labels_c = tuple(f"c{i}" for i in range(counts.shape[1]))
        v = cramers_v(ContingencyTable(labels_r, labels_c, counts))
        assert 0.0 <= v.value <= 1.0
        rng = np.random.default_rng(counts.sum())
        rp = rng.permutation(counts.shape[0])
        cp = rng.permutation(counts.shape[1])
        shuffled = cramers_v(
            ContingencyTable(labels_r, labels_c, counts[np.ix_(rp, cp)])
        )
        assert shuffled.value == pytest.approx(v.value, abs=1e-12)
        assert shuffled.degenerate == v.degenerate

    @settings(max_examples=400, deadline=None)
    @given(count_tables())
    @example(np.full((4, 6), 10**12))  # independence: V = 0
    @example(np.full((13, 13), 999_999_999_989))
    @example(np.array([[3, 0, 5]]))  # one row: degenerate
    @example(np.array([[0, 0], [7, 0], [2, 0]]))  # one nonzero column: degenerate
    @example(np.zeros((3, 3), dtype=np.int64))  # no pairs: degenerate
    @example(np.array([[10**12, 0, 0], [0, 1, 0], [0, 0, 10**12]]))
    @example(np.array([[3, 4], [4, 6]]))  # V = 1/35; (O - E)^2 / E cancels
    def test_matches_fraction_chi_squared(self, counts):
        labels_r = tuple(f"r{i}" for i in range(counts.shape[0]))
        labels_c = tuple(f"c{i}" for i in range(counts.shape[1]))
        got = cramers_v(ContingencyTable(labels_r, labels_c, counts))
        want, degenerate = exact_cramers_v(counts)
        assert got.degenerate == degenerate
        assert math.isclose(got.value, want, rel_tol=1e-15), (got.value, want)

    @pytest.mark.parametrize("seed", range(5))
    def test_near_independent_large_counts(self, seed):
        # A rank-1 table of counts between 1e10 and 1e12 is independent;
        # nudging each cell by at most two leaves O N and r_i c_j equal to
        # about 15 digits, which O - E loses to cancellation.
        rng = np.random.default_rng(seed)
        counts = np.outer(rng.integers(10**5, 10**6, 4), rng.integers(10**5, 10**6, 5))
        counts += rng.integers(-2, 3, counts.shape)
        labels_r = tuple(f"r{i}" for i in range(4))
        labels_c = tuple(f"c{i}" for i in range(5))
        got = cramers_v(ContingencyTable(labels_r, labels_c, counts))
        want, _ = exact_cramers_v(counts)
        assert math.isclose(got.value, want, rel_tol=1e-15), (got.value, want)


class TestDependencyProfile:
    def test_lag_zero_is_one(self):
        profile = dependency_profile(["a", "b", "a", "b", "b"], 2, include_lag0=True)
        assert profile[0].lag == 0
        assert profile[0].cramers_v == 1.0

    def test_excludes_lag_zero_by_default(self):
        profile = dependency_profile(["a", "b", "a", "b", "b"], 2)
        assert [p.lag for p in profile] == [1, 2]

    def test_iid_sequence_has_no_association(self):
        rng = np.random.default_rng(55)
        seq = [f"s{i}" for i in rng.integers(0, 4, size=200_000)]
        profile = dependency_profile(seq, 40)
        assert max(p.cramers_v for p in profile) < 0.01

    def test_kernel_spike_shows_up_at_its_lag(self):
        rng = np.random.default_rng(56)
        P = random_ergodic(3, rng, floor=0.15)
        model = LampModel(P, KernelDistribution([0.1, 0, 0, 0, 0, 0, 0.9]))
        seq = simulate_lamp(model, 200_000, seed=77)
        profile = dependency_profile(seq, 20)
        values = {p.lag: p.cramers_v for p in profile}
        others = [values[l] for l in range(1, 21) if l != 7]
        assert values[7] > float(np.median(others))

    def test_max_lag_validation(self):
        with pytest.raises(LagTooLargeError):
            dependency_profile(["a", "b"], 5)
        with pytest.raises(ValueError, match="max_lag"):
            dependency_profile(["a", "b"], 0)
        with pytest.raises(ValueError, match="max_lag"):
            corpus_dependency_profile(SequenceCorpus.from_sequences([["a", "b"]]), 0)

    def test_equals_one_sequence_corpus_and_per_lag_tables(self):
        rng = np.random.default_rng(57)
        seq = [f"s{i}" for i in rng.integers(0, 5, size=300)]
        profile = dependency_profile(seq, 6, include_lag0=True)
        assert profile == corpus_dependency_profile(SequenceCorpus.from_sequences([seq]), 6, True)
        for point in profile:
            expected = cramers_v(contingency_table(seq, point.lag))
            assert (point.cramers_v, point.degenerate) == expected


class TestCorpusProfile:
    def test_pools_tables_across_sequences(self):
        corpus = SequenceCorpus.from_sequences([["a", "b", "a"], ["a", "b"]])
        profile = corpus_dependency_profile(corpus, 2)
        # lag-1 pairs pooled: (a,b),(b,a) from the first, (a,b) from the
        # second -- the same multiset as the single path a,b,a,b.
        same_pairs = cramers_v(contingency_table(["a", "b", "a", "b"], 1))
        assert profile[0].lag == 1
        assert profile[0].cramers_v == pytest.approx(same_pairs.value, abs=1e-12)
        # short sequences skip lags they cannot support.
        assert profile[1].lag == 2

    def test_equals_summed_per_sequence_tables(self):
        rng = np.random.default_rng(58)
        # 5 labels: fewer cells than pairs, so a lag's cells are counted.
        # 60 labels: far more cells than pairs, so they are sorted.
        for n_labels in (5, 60):
            seqs = [[f"s{x}" for x in rng.integers(0, n_labels, size=length)]
                    for length in rng.integers(1, 9, size=60)]
            corpus = SequenceCorpus.from_sequences(seqs)
            labels = corpus.vocabulary.labels
            n = len(labels)
            profile = corpus_dependency_profile(corpus, 10, include_lag0=True)
            assert [p.lag for p in profile] == list(range(11))
            for point in profile:
                summed = np.zeros((n, n), dtype=np.int64)
                for seq in seqs:
                    for a, b in zip(seq, seq[point.lag:]):
                        summed[labels.index(a), labels.index(b)] += 1
                expected = cramers_v(ContingencyTable(labels, labels, summed))
                assert (point.cramers_v, point.degenerate) == expected, (n_labels, point.lag)

    def test_working_memory(self):
        # About 4,000 labels over 20,000 tokens: a dense n^2 int64 table
        # would take 128 MB a lag, far more than the pairs themselves.
        rng = np.random.default_rng(61)
        seqs = [[f"w{x}" for x in rng.integers(0, 4000, size=length)]
                for length in rng.integers(2, 16, size=2500)]
        corpus = SequenceCorpus.from_sequences(seqs)
        n = corpus.vocabulary.n
        assert corpus.total_tokens >= 20_000 and n > 3900
        tracemalloc.start()
        try:
            profile = corpus_dependency_profile(corpus, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not any(p.degenerate for p in profile)
        assert peak < n * n * 8 / 10

    def test_lag_with_no_pairs_is_degenerate(self):
        corpus = SequenceCorpus.from_sequences([["a", "b"]])
        profile = corpus_dependency_profile(corpus, 3)
        assert profile[1].degenerate and profile[2].degenerate

    def test_boundary_pairs_never_counted(self):
        corpus = SequenceCorpus.from_sequences([["a", "b"], ["b", "a"]])
        pooled = corpus_dependency_profile(corpus, 1)[0]
        # only (a,b) and (b,a) pairs exist; a boundary pair (b,b) would
        # break the perfect flip association.
        assert pooled.cramers_v == 1.0


def test_profile_csv(tmp_path):
    profile = dependency_profile(["a", "b", "a", "b", "a"], 2, include_lag0=True)
    path = tmp_path / "profile.csv"
    write_profile_csv(profile, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["lag"] for r in rows] == ["0", "1", "2"]
    assert set(rows[0]) == {"lag", "cramers_v", "degenerate_flag"}
    assert rows[0]["cramers_v"] == "1.0"
    assert rows[0]["degenerate_flag"] == "false"
