from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lamp_entropy import (
    EmptyCorpusError,
    MalformedRowError,
    RareTokenCollisionError,
    SequenceCorpus,
    dedupe_consecutive,
    load_sequences,
    preprocess,
    replace_rare,
)
from lamp_entropy.corpus import lagged_pair_counts

tokens_strategy = st.lists(
    st.lists(st.sampled_from("abcd"), min_size=1, max_size=30), min_size=1, max_size=8
)


class TestLoadSequences:
    def test_lines(self, tmp_path):
        path = tmp_path / "c.lines"
        path.write_text("a b a\nc c\n", encoding="utf-8")
        corpus = load_sequences(path)
        assert corpus.sequences == (("a", "b", "a"), ("c", "c"))
        assert corpus.vocabulary.labels == ("a", "b", "c")
        assert corpus.total_tokens == 5

    def test_lines_skips_blank_lines(self, tmp_path):
        path = tmp_path / "c.lines"
        path.write_text("a b\n\nc\n", encoding="utf-8")
        assert load_sequences(path).n_sequences == 2

    def test_tsv_grouping(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("u1\tx\nu1\ty\nu2\tx\n", encoding="utf-8")
        corpus = load_sequences(path, fmt="tsv", group_col=0, item_col=1)
        assert corpus.sequences == (("x", "y"), ("x",))

    def test_tsv_malformed_row(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("u1\tx\nu1\n", encoding="utf-8")
        with pytest.raises(MalformedRowError):
            load_sequences(path, fmt="tsv", group_col=0, item_col=1)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.lines"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptyCorpusError):
            load_sequences(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_sequences(tmp_path / "nope.lines")


class TestDedupeConsecutive:
    def test_collapses_runs(self):
        corpus = SequenceCorpus.from_sequences([["a", "a", "b", "b", "a"]])
        assert dedupe_consecutive(corpus).sequences == (("a", "b", "a"),)

    def test_no_adjacent_repeats_unchanged(self):
        corpus = SequenceCorpus.from_sequences([["a", "b", "a", "b"]])
        assert dedupe_consecutive(corpus).sequences == (("a", "b", "a", "b"),)

    def test_full_collapse(self):
        corpus = SequenceCorpus.from_sequences([["c", "c", "c"]])
        assert dedupe_consecutive(corpus).sequences == (("c",),)

    @settings(max_examples=100, deadline=None)
    @given(tokens_strategy)
    def test_idempotent(self, seqs):
        corpus = SequenceCorpus.from_sequences(seqs)
        once = dedupe_consecutive(corpus)
        twice = dedupe_consecutive(once)
        assert once.sequences == twice.sequences


class TestReplaceRare:
    def test_counts_taken_before_replacement(self):
        corpus = SequenceCorpus.from_sequences([["a", "b", "a"], ["c"]])
        cleaned, replaced = replace_rare(corpus, 2, "UNK")
        assert cleaned.sequences == (("a", "UNK", "a"), ("UNK",))
        assert replaced == {"b", "c"}

    def test_min_count_one_is_noop(self):
        corpus = SequenceCorpus.from_sequences([["a", "b"]])
        cleaned, replaced = replace_rare(corpus, 1, "UNK")
        assert cleaned.sequences == corpus.sequences
        assert replaced == frozenset()

    def test_all_rare_leaves_runs(self):
        corpus = SequenceCorpus.from_sequences([["a", "b", "c"]])
        cleaned, _ = replace_rare(corpus, 5, "UNK")
        assert cleaned.sequences == (("UNK", "UNK", "UNK"),)

    def test_collision(self):
        corpus = SequenceCorpus.from_sequences([["a", "b"]])
        with pytest.raises(RareTokenCollisionError):
            replace_rare(corpus, 2, "a")

    @settings(max_examples=60, deadline=None)
    @given(tokens_strategy, st.integers(min_value=1, max_value=6))
    def test_survivors_meet_threshold(self, seqs, min_count):
        corpus = SequenceCorpus.from_sequences(seqs)
        cleaned, _ = replace_rare(corpus, min_count, "UNK")
        for tok, count in cleaned.token_counts().items():
            if tok != "UNK":
                assert count >= min_count


class TestPreprocess:
    def test_pipeline_order_and_reports(self):
        # dedupe first, pool rare tokens, dedupe the new runs of UNK.
        corpus = SequenceCorpus.from_sequences(
            [["a", "a", "b", "c", "a"], ["a", "b", "b", "a"]]
        )
        cleaned, reports = preprocess(corpus, min_count=2, rare_token="UNK")
        # after first dedupe: (a,b,c,a), (a,b,a); counts a=4,b=2,c=1
        # replace: (a,b,UNK,a), (a,b,a); second dedupe changes nothing here.
        assert cleaned.sequences == (("a", "b", "UNK", "a"), ("a", "b", "a"))
        assert [r["stage"] for r in reports] == ["input", "dedupe", "replace_rare", "dedupe"]
        assert reports[0]["N"] == 9
        assert reports[1]["N"] == 7
        assert reports[2]["replaced"] == 1
        assert reports[-1]["vocab"] == 3

    def test_second_dedupe_removes_placeholder_runs(self):
        corpus = SequenceCorpus.from_sequences([["a", "x", "y", "a"]])
        cleaned, _ = preprocess(corpus, min_count=2, rare_token="UNK")
        assert cleaned.sequences == (("a", "UNK", "a"),)


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpusError):
        SequenceCorpus.from_sequences([])


class TestEncodedCorpus:
    def test_flat_codes_and_offsets(self):
        corpus = SequenceCorpus.from_sequences([["b", "a"], [], ["a", "c", "b"]])
        assert corpus.vocabulary.labels == ("b", "a", "c")
        assert corpus.tokens.dtype == np.int32
        assert corpus.tokens.tolist() == [0, 1, 1, 2, 0]
        assert corpus.offsets.dtype == np.int64
        assert corpus.offsets.tolist() == [0, 2, 2, 5]
        assert corpus.sequences == (("b", "a"), (), ("a", "c", "b"))
        assert (corpus.n_sequences, corpus.total_tokens) == (3, 5)

    def test_arrays_are_read_only_copies(self):
        tokens = np.array([0, 1, 0])
        corpus = SequenceCorpus(tokens, [0, 3], SequenceCorpus.from_sequences(["ab"]).vocabulary)
        tokens[0] = 1
        assert corpus.tokens.tolist() == [0, 1, 0]
        with pytest.raises(ValueError):
            corpus.tokens[0] = 1
        with pytest.raises(ValueError):
            corpus.offsets[0] = 1

    @pytest.mark.parametrize(
        "tokens, offsets",
        [([0, 1], [0, 1]), ([0, 1], [1, 2]), ([0, 1], [0, 2, 1, 2]), ([0, 2], [0, 2]), ([-1], [0, 1])],
    )
    def test_malformed_arrays_rejected(self, tokens, offsets):
        vocab = SequenceCorpus.from_sequences(["ab"]).vocabulary
        with pytest.raises(ValueError):
            SequenceCorpus(tokens, offsets, vocab)

    def test_equality_is_identity(self):
        corpus = SequenceCorpus.from_sequences([["a", "b"]])
        assert corpus == corpus
        assert corpus != SequenceCorpus.from_sequences([["a", "b"]])

    def test_empty_sequences_only_rejected(self):
        with pytest.raises(EmptyCorpusError):
            SequenceCorpus.from_sequences([[], []])

    def test_lagged_pairs_skip_boundaries_and_short_sequences(self):
        seqs = [["a", "b", "c", "a"], ["b"], [], ["c", "a", "b"], ["a", "c"]]
        corpus = SequenceCorpus.from_sequences(seqs)
        n = corpus.vocabulary.n
        for lag in range(5):
            want = np.zeros((n, n), dtype=np.int64)
            for seq in seqs:
                idx = corpus.vocabulary.encode(seq)
                for t in range(len(idx) - lag):
                    want[idx[t], idx[t + lag]] += 1
            got = lagged_pair_counts(corpus.tokens, corpus.offsets, n, lag)
            assert np.array_equal(got, want), lag


def reference_dedupe(seqs):
    return [[tok for i, tok in enumerate(seq) if i == 0 or seq[i - 1] != tok] for seq in seqs]


def reference_replace_rare(seqs, min_count, rare_token):
    counts = Counter(tok for seq in seqs for tok in seq)
    rare = {tok for tok, c in counts.items() if c < min_count}
    return [[rare_token if tok in rare else tok for tok in seq] for seq in seqs], rare


def reference_report(stage, seqs):
    vocab = dict.fromkeys(tok for seq in seqs for tok in seq)
    return {"stage": stage, "n_sequences": len(seqs), "N": sum(map(len, seqs)), "vocab": len(vocab)}


def check_corpus(corpus, seqs):
    assert corpus.sequences == tuple(tuple(seq) for seq in seqs)
    assert corpus.vocabulary.labels == tuple(dict.fromkeys(tok for seq in seqs for tok in seq))


# Small alphabets so that runs, rare tokens and runs of rare tokens are common.
raw_corpora = st.lists(
    st.lists(st.sampled_from(["a", "a", "b", "c", "d", "e", "f"]), max_size=12),
    min_size=1,
    max_size=6,
).filter(lambda seqs: any(seqs))


class TestPipelineAgainstReference:
    """The array pipeline against the string-tuple semantics, written out here."""

    @settings(max_examples=300, deadline=None)
    @given(raw_corpora, st.integers(min_value=0, max_value=50))
    @example([["a", "b", "b"], [], ["c"]], 0)  # empty sequence
    @example([["a", "b", "c"], ["d", "e"]], 40)  # every token rare
    @example([["a", "x", "y", "z", "a"], ["a", "q"]], 2)  # a rare run pools into one placeholder
    def test_matches_reference(self, seqs, pick):
        deduped = reference_dedupe(seqs)
        counts = sorted(set(Counter(tok for seq in deduped for tok in seq).values()))
        # A threshold exactly at some token's count, or one off either side.
        candidates = [1] + counts + [c + 1 for c in counts]
        min_count = candidates[pick % len(candidates)]
        replaced_seqs, rare = reference_replace_rare(deduped, min_count, "UNK")
        cleaned_seqs = reference_dedupe(replaced_seqs)

        corpus = SequenceCorpus.from_sequences(seqs)
        check_corpus(corpus, seqs)
        once = dedupe_consecutive(corpus)
        check_corpus(once, deduped)
        pooled, replaced = replace_rare(once, min_count, "UNK")
        check_corpus(pooled, replaced_seqs)
        assert replaced == rare

        cleaned, reports = preprocess(corpus, min_count, "UNK")
        check_corpus(cleaned, cleaned_seqs)
        want = [
            reference_report("input", seqs),
            reference_report("dedupe", deduped),
            dict(reference_report("replace_rare", replaced_seqs), replaced=len(rare)),
            reference_report("dedupe", cleaned_seqs),
        ]
        assert reports == want


labels_strategy = st.text(alphabet="ab1_é", min_size=1, max_size=3)


class TestLoadersAgainstReference:
    """Files encode as their sequences do: labels coded in order of first appearance."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(labels_strategy, max_size=8), min_size=1, max_size=6).filter(any))
    @example([["b"], [], ["a", "b", "c"], []])
    def test_lines(self, tmp_path_factory, seqs):
        path = tmp_path_factory.mktemp("encode") / "c.lines"
        path.write_text("".join(" ".join(seq) + "\n" for seq in seqs), encoding="utf-8")
        # Blank lines are skipped, so empty sequences drop out.
        check_corpus(load_sequences(path), [seq for seq in seqs if seq])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["u1", "u2", "u3"]), labels_strategy), min_size=1))
    def test_tsv(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("encode") / "c.tsv"
        path.write_text("".join(f"{user}\t{item}\n" for user, item in rows), encoding="utf-8")
        groups: dict = {}
        for user, item in rows:
            groups.setdefault(user, []).append(item)
        check_corpus(load_sequences(path, "tsv", 0, 1), list(groups.values()))
