import hashlib
import json
import logging
import os
import tempfile
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
from lamp_entropy import corpus as corpus_module
from lamp_entropy.corpus import _distinct, lagged_pair_counts, load_sequences_cached

tokens_strategy = st.lists(
    st.lists(st.sampled_from("abcd"), min_size=1, max_size=30), min_size=1, max_size=8
)


class TestLoadSequences:
    def test_lines(self, tmp_path):
        path = tmp_path / "c.lines"
        # A UTF-8 byte-order mark is not part of the first token.
        for text in ("a b a\nc c\n", "\ufeffa b a\nc c\n"):
            path.write_text(text, encoding="utf-8")
            corpus = load_sequences(path)
            assert corpus.sequences == (("a", "b", "a"), ("c", "c"))
            assert corpus.vocabulary.labels == ("a", "b", "c")
            assert corpus.total_tokens == 5
        with pytest.raises(ValueError, match="unknown corpus format"):
            load_sequences(path, "csv")

    def test_lines_skips_blank_lines(self, tmp_path):
        path = tmp_path / "c.lines"
        path.write_text("a b\n\nc\n", encoding="utf-8")
        assert load_sequences(path).n_sequences == 2

    def test_tsv_grouping(self, tmp_path):
        path = tmp_path / "c.tsv"
        # A blank line is skipped; a byte-order mark is not part of the first group.
        for text in ("u1\tx\nu1\ty\nu2\tx\n", "u1\tx\n\nu1\ty\nu2\tx\n", "\ufeffu1\tx\nu1\ty\nu2\tx\n"):
            path.write_text(text, encoding="utf-8")
            corpus = load_sequences(path, fmt="tsv", group_col=0, item_col=1)
            assert corpus.sequences == (("x", "y"), ("x",))
        with pytest.raises(ValueError, match="needs group_col and item_col"):
            load_sequences(path, fmt="tsv")

    def test_tsv_malformed_row(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("u1\tx\nu1\n", encoding="utf-8")
        with pytest.raises(MalformedRowError):
            load_sequences(path, fmt="tsv", group_col=0, item_col=1)

    @pytest.mark.parametrize("cols", [(-1, 1), (0, -2)])
    def test_tsv_negative_column(self, tmp_path, cols):
        path = tmp_path / "c.tsv"
        path.write_text("u1\tx\nu1\ty\n", encoding="utf-8")
        with pytest.raises(ValueError, match="must be >= 0"):
            load_sequences(path, "tsv", *cols)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.lines"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptyCorpusError):
            load_sequences(path)
        path.write_text("\n \n\n", encoding="utf-8")
        with pytest.raises(EmptyCorpusError):
            load_sequences(path, "tsv", 0, 1)

    def test_lines_working_memory(self, tmp_path):
        # 200,000 tokens on 400 lines over 1,000 labels. Encoded a line at a
        # time, a load holds the codes (8 bytes a token in the list, then 4
        # in each array) and one line's labels; every token kept as a string
        # until the end took 71 bytes a token.
        rng = np.random.default_rng(9)
        labels = np.array([f"item{i}" for i in range(1000)])
        path = tmp_path / "c.lines"
        with open(path, "w", encoding="utf-8") as fh:
            for _ in range(400):
                fh.write(" ".join(labels[rng.integers(0, 1000, 500)]) + "\n")
        tracemalloc.start()
        try:
            corpus = load_sequences(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert corpus.total_tokens == 200_000
        assert peak < 32 * corpus.total_tokens

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_sequences(tmp_path / "nope.lines")


# Separators that str.split breaks on besides the space: file iteration
# ends a line only at "\n" and "\r", so these stay inside a line.
SEPARATORS = [" ", "\t", "  ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u3000"]
label_chars = st.sampled_from(["a", "b", "é", "字", "\x00", "\ufeff", "😀"])


@st.composite
def corpus_files(draw):
    """The bytes of a Lines or TSV corpus, its format and its columns:
    non-ASCII labels, NULs, blank lines, Unicode separators and maybe a
    byte-order mark and CRLF line ends."""
    label = st.text(label_chars, min_size=1, max_size=3)
    if draw(st.booleans()):
        lines = [
            "".join(tok + draw(st.sampled_from(SEPARATORS)) for tok in draw(st.lists(label, max_size=5)))
            for _ in range(draw(st.integers(0, 6)))
        ]
        fmt, cols = "lines", (None, None)
    else:
        # A TSV item may hold spaces and end in a NUL; a row may be blank.
        item = st.text(st.sampled_from(["a", "é", " ", "\u3000", "\x00"]), min_size=1, max_size=3)
        rows = st.tuples(st.sampled_from(["u1", "u2", "ü3"]), item)
        lines = [
            f"{g}\t{i}" if draw(st.integers(0, 5)) else "" for g, i in draw(st.lists(rows, max_size=8))
        ]
        fmt, cols = "tsv", draw(st.sampled_from([(0, 1), (1, 0)]))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + text).encode("utf-8"), fmt, cols


def assert_same_corpus(got, want):
    for name in ("tokens", "offsets"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got.vocabulary.labels == want.vocabulary.labels


def corpus_digest(corpus):
    digest = hashlib.sha256()
    for array in (corpus.tokens, corpus.offsets):
        digest.update(array.dtype.str.encode() + array.tobytes())
    digest.update(json.dumps(corpus.vocabulary.labels).encode())
    return digest.hexdigest()


# load_sequences' reading of whitespace, line ends, byte-order marks and
# NULs, which every cache entry records the outcome of.
READER_PIN_FILES = [
    ("lines", (None, None),
     "\ufeffa b\x1cc\x1dd\x1ee\x1ff\u3000g\x85h i\x0bj\x0ck\r\n\n \t\nl\x00 \x00m é字\rn\ufeff\n"),
    ("tsv", (0, 2),
     "\ufeffu1\tx\ta\x00\r\nu2\ty\tb c\u3000\n\n\x1c\t\n u1\tz\t\x00\x00\nu2\tw\té\x85\ttail\n"),
]


class TestCorpusCache:
    @settings(max_examples=80, deadline=None)
    @given(corpus_files())
    def test_hit_is_the_parse(self, case):
        data, fmt, cols = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "corpus")
            cache = os.path.join(tmp, "cache")
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                want = load_sequences(path, fmt, *cols)
            except EmptyCorpusError:
                with pytest.raises(EmptyCorpusError):
                    load_sequences_cached(path, fmt, *cols, cache_dir=cache)
                assert not os.path.exists(cache)
                return
            assert_same_corpus(load_sequences_cached(path, fmt, *cols, cache_dir=cache), want)
            [entry] = os.listdir(cache)
            with mock.patch.object(corpus_module, "load_sequences") as parse:
                got = load_sequences_cached(path, fmt, *cols, cache_dir=cache)
            parse.assert_not_called()
            assert_same_corpus(got, want)
            assert os.listdir(cache) == [entry]

    def test_reader_semantics_are_pinned(self, tmp_path):
        digests = []
        for fmt, cols, text in READER_PIN_FILES:
            path = tmp_path / f"pin.{fmt}"
            path.write_bytes(text.encode("utf-8"))
            digests.append(corpus_digest(load_sequences(path, fmt, *cols)))
        assert corpus_module._READER_DIGEST == hashlib.sha256(" ".join(digests).encode()).hexdigest(), (
            "load_sequences reads these files differently now, so cache entries written "
            "before this change would serve other corpora: bump corpus._CACHE_VERSION and "
            "re-pin corpus._READER_DIGEST"
        )

    def test_none_parses_only(self, tmp_path):
        path = tmp_path / "c.lines"
        path.write_text("a b\n", encoding="utf-8")
        with mock.patch.object(corpus_module, "load_sequences", wraps=load_sequences) as parse:
            for _ in range(2):
                assert load_sequences_cached(path, cache_dir=None).sequences == (("a", "b"),)
        assert parse.call_count == 2

    def test_file_changed_during_the_parse_is_not_cached(self, tmp_path):
        path = tmp_path / "c.lines"
        path.write_text("a b\n", encoding="utf-8")
        cache = tmp_path / "cache"

        def parse_then_rewrite(*args):
            corpus = load_sequences(*args)
            path.write_text("a c\n", encoding="utf-8")
            return corpus

        with mock.patch.object(corpus_module, "load_sequences", parse_then_rewrite):
            corpus = load_sequences_cached(path, cache_dir=cache)
        assert corpus.sequences == (("a", "b"),)
        assert not cache.exists()

    def test_labels_that_end_in_nul_survive_a_hit(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("u\ta\x00\nu\tb\x00\x00\nv\t\x00\n", encoding="utf-8")
        cache = tmp_path / "cache"
        load_sequences_cached(path, "tsv", 0, 1, cache_dir=cache)
        with mock.patch.object(corpus_module, "load_sequences") as parse:
            corpus = load_sequences_cached(path, "tsv", 0, 1, cache_dir=cache)
        parse.assert_not_called()
        assert corpus.vocabulary.labels == ("a\x00", "b\x00\x00", "\x00")


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
        with pytest.raises(ValueError, match="min_count"):
            replace_rare(corpus, 0, "UNK")

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

    def test_stages_are_logged_in_order(self, caplog):
        corpus = SequenceCorpus.from_sequences([["a", "a", "x", "y", "a"], ["b", "a", "b"]])
        with caplog.at_level(logging.INFO, logger="lamp_entropy.corpus"):
            preprocess(corpus, min_count=2, rare_token="UNK")
        assert [r.getMessage() for r in caplog.records if r.name == "lamp_entropy.corpus"] == [
            "preprocess input        n_sequences=2 N=8 vocab=4",
            "preprocess dedupe       n_sequences=2 N=7 vocab=4",
            "preprocess replace_rare n_sequences=2 N=7 vocab=3",
            "preprocess dedupe       n_sequences=2 N=6 vocab=3",
        ]

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
        [([0, 1], [0, 1]), ([0, 1], [1, 2]), ([0, 1], [0, 2, 1, 2]), ([0, 2], [0, 2]), ([-1], [0, 1]),
         ([[0, 1]], [0, 2])],
    )
    def test_malformed_arrays_rejected(self, tokens, offsets):
        vocab = SequenceCorpus.from_sequences(["ab"]).vocabulary
        with pytest.raises(ValueError):
            SequenceCorpus(tokens, offsets, vocab)

    @pytest.mark.parametrize(
        "tokens, offsets",
        [([0.7, 1.9], [0, 2]), (np.array([0, 2**32 + 1]), [0, 2]), ([0, 1], [0.0, 2.0])],
        ids=["float-codes", "int64-code-beyond-int32", "float-offsets"],
    )
    def test_values_the_cast_would_change_are_rejected(self, tokens, offsets):
        vocab = SequenceCorpus.from_sequences(["ab"]).vocabulary
        with pytest.raises(ValueError):
            SequenceCorpus(tokens, offsets, vocab)

    def test_empty_token_list_is_valid(self):
        corpus = SequenceCorpus([], [0, 0], SequenceCorpus.from_sequences(["ab"]).vocabulary)
        assert (corpus.tokens.dtype, corpus.total_tokens, corpus.n_sequences) == (np.int32, 0, 1)

    def test_equality_is_identity(self):
        corpus = SequenceCorpus.from_sequences([["a", "b"]])
        assert corpus == corpus
        assert corpus != SequenceCorpus.from_sequences([["a", "b"]])

    def test_empty_sequences_only_rejected(self):
        with pytest.raises(EmptyCorpusError):
            SequenceCorpus.from_sequences([[], []])

    def test_lagged_pairs_skip_boundaries_and_short_sequences(self):
        few = [["a", "b", "c", "a"], ["b"], [], ["c", "a", "b"], ["a", "c"]]
        rng = np.random.default_rng(3)
        many = few + [list(rng.choice(list("abcdef"), rng.integers(0, 10))) for _ in range(400)]
        for seqs in (few, many):
            corpus = SequenceCorpus.from_sequences(seqs)
            n = corpus.vocabulary.n
            # Up to lags beyond every sequence's length, where no pair is left.
            for lag in range(max(map(len, seqs)) + 3):
                want = np.zeros((n, n), dtype=np.int64)
                for seq in seqs:
                    idx = corpus.vocabulary.encode(seq)
                    for t in range(len(idx) - lag):
                        want[idx[t], idx[t + lag]] += 1
                got = lagged_pair_counts(corpus.tokens, corpus.offsets, n, lag)
                assert np.array_equal(got, want), (len(seqs), lag)


@st.composite
def keys_below_bound(draw):
    """Int64 keys, 1-D or ``(k, P)`` and possibly empty, and a bound above
    every key that lies below, at or above the number of keys."""
    shape = draw(st.one_of(
        st.tuples(st.integers(0, 40)), st.tuples(st.integers(1, 5), st.integers(0, 12))
    ))
    size = int(np.prod(shape))
    relation = draw(st.sampled_from(["below", "equal", "above"]))
    if relation == "below":
        assume(size >= 2)
        bound = draw(st.integers(1, size - 1))
    elif relation == "equal":
        bound = size
    else:
        bound = draw(st.integers(size + 1, 2**62))
    if not size:
        return np.zeros(shape, dtype=np.int64), bound
    return draw(arrays(np.int64, shape, elements=st.integers(0, bound - 1))), bound


class TestDistinct:
    @settings(max_examples=300, deadline=None)
    @given(keys_below_bound())
    def test_matches_np_unique(self, case):
        keys, bound = case

        def same(got, want):
            return got.dtype == want.dtype and np.array_equal(got, want)

        values, counts = _distinct(keys, bound)
        want_values, want_counts = np.unique(keys, return_counts=True)
        assert same(values, want_values) and same(counts, want_counts)
        values, inverse = _distinct(keys, bound, inverse=True)
        want_values, want_inverse = np.unique(keys, return_inverse=True)
        assert same(values, want_values)
        assert same(inverse.reshape(keys.shape), want_inverse.reshape(keys.shape))

    def test_counts_without_sorting_when_the_range_is_no_wider(self, monkeypatch):
        keys = np.array([[4, 0, 4], [2, 2, 4]], dtype=np.int64)

        def no_sort(*args, **kwargs):
            raise AssertionError("np.unique called")

        monkeypatch.setattr(np, "unique", no_sort)
        values, counts = _distinct(keys, 6)
        assert (values.tolist(), counts.tolist()) == ([0, 2, 4], [1, 2, 3])
        values, inverse = _distinct(keys, 5, inverse=True)
        assert (values.tolist(), inverse.tolist()) == ([0, 2, 4], [[2, 0, 2], [1, 1, 2]])


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
