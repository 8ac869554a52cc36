import csv

import numpy as np
import pytest
from hypothesis import given, settings
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
        seqs = [[f"s{x}" for x in rng.integers(0, 5, size=length)]
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
            assert (point.cramers_v, point.degenerate) == expected

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
