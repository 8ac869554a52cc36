"""Sequence corpora: ingestion and the preprocessing pipeline.

A corpus is an immutable, encoded collection of token sequences: one
flat array of state codes, the offsets where each sequence starts, and
the vocabulary that maps codes to labels. Strings are mapped to codes
once, when the corpus is read or built, and decoded only for output.
Preprocessing collapses consecutive duplicates (so fitted matrices
carry no self-loops) and pools rare tokens into a single placeholder;
both are array passes over the codes.
"""

from __future__ import annotations

import logging
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCorpusError, MalformedRowError, RareTokenCollisionError
from .markov import StateSpace

logger = logging.getLogger(__name__)

DEFAULT_RARE_TOKEN = "__rare__"


@dataclass(frozen=True, eq=False)
class SequenceCorpus:
    """Encoded token sequences over a shared vocabulary.

    ``tokens`` holds every sequence's state codes end to end (int32,
    read-only) and ``offsets`` the ``n_sequences + 1`` positions where
    the sequences start and the last one ends (int64, read-only):
    sequence ``i`` is ``tokens[offsets[i]:offsets[i + 1]]``, and may be
    empty. Code ``c`` stands for ``vocabulary.labels[c]``. The arrays
    are copied on construction. Corpora built from labels
    (:meth:`from_sequences`, :func:`load_sequences`) list their
    vocabulary in order of first appearance.
    """

    tokens: np.ndarray
    offsets: np.ndarray
    vocabulary: StateSpace

    def __post_init__(self) -> None:
        tokens = np.array(self.tokens, dtype=np.int32)
        offsets = np.array(self.offsets, dtype=np.int64)
        if tokens.ndim != 1 or offsets.ndim != 1 or offsets.shape[0] < 1:
            raise ValueError("tokens and offsets must be 1-D, with at least one offset")
        if offsets[0] != 0 or offsets[-1] != tokens.shape[0] or (np.diff(offsets) < 0).any():
            raise ValueError("offsets must rise from 0 to the number of tokens")
        if tokens.shape[0] and (tokens.min() < 0 or tokens.max() >= self.vocabulary.n):
            raise ValueError("token codes must index the vocabulary")
        tokens.flags.writeable = False
        offsets.flags.writeable = False
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "offsets", offsets)

    @classmethod
    def from_sequences(cls, sequences) -> "SequenceCorpus":
        """Encode label sequences, deriving the vocabulary in first-appearance order."""
        flat: list = []
        lengths: list[int] = []
        for seq in sequences:
            before = len(flat)
            flat.extend(seq)
            lengths.append(len(flat) - before)
        if not lengths:
            raise EmptyCorpusError("corpus contains no sequences")
        return cls._from_flat(flat, lengths)

    @classmethod
    def _from_flat(cls, flat: list, lengths: list[int]) -> "SequenceCorpus":
        """Encode ``flat`` labels, cut into sequences of the given lengths."""
        if not flat:
            raise EmptyCorpusError("corpus contains no tokens")
        # One pass: a label not seen before gets the next code.
        index = defaultdict()
        index.default_factory = index.__len__
        codes = np.fromiter(map(index.__getitem__, flat), dtype=np.int32, count=len(flat))
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls(codes, offsets, StateSpace(tuple(index)))

    @property
    def n_sequences(self) -> int:
        return self.offsets.shape[0] - 1

    @property
    def total_tokens(self) -> int:
        return self.tokens.shape[0]

    @property
    def sequences(self) -> tuple[tuple[str, ...], ...]:
        """The sequences as label tuples, decoded on every access."""
        labels = np.array(self.vocabulary.labels, dtype=object)
        flat = labels[self.tokens].tolist()
        bounds = self.offsets.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))

    def token_counts(self) -> Counter:
        """How often each label occurs, over all sequences."""
        counts = np.bincount(self.tokens, minlength=self.vocabulary.n).tolist()
        return Counter({lab: c for lab, c in zip(self.vocabulary.labels, counts) if c})


def lagged_pair_counts(tokens: np.ndarray, offsets: np.ndarray, n: int, lag: int) -> np.ndarray:
    """``(n, n)`` counts of the pairs ``(tokens[t], tokens[t + lag])`` that
    lie within one sequence; rows index the earlier token.

    ``tokens`` and ``offsets`` are as stored in a :class:`SequenceCorpus`.
    """
    m = max(tokens.shape[0] - lag, 0)
    earlier = tokens[:m]
    later = tokens[lag : lag + m]
    ends = offsets[1:-1]
    if lag and ends.shape[0]:
        # A pair straddles a boundary when a sequence ends within its
        # lag: the ``lag`` positions before each inner end pair across
        # it (a sequence shorter than the lag loses all of its pairs).
        within = np.ones(m, dtype=bool)
        for q in range(1, lag + 1):
            before = ends - q
            within[before[(before >= 0) & (before < m)]] = False
        earlier = earlier[within]
        later = later[within]
    # Codes are combined in int64: n * n can exceed the int32 range.
    codes = earlier.astype(np.int64)
    codes *= n
    codes += later
    return np.bincount(codes, minlength=n * n).reshape(n, n)


def load_sequences(
    path,
    fmt: str = "lines",
    group_col: int | None = None,
    item_col: int | None = None,
) -> SequenceCorpus:
    """Read and encode a corpus from disk.

    ``fmt="lines"``: one sequence per line, tokens separated by spaces
    (blank lines are skipped). ``fmt="tsv"``: tab-separated rows grouped
    by the value in ``group_col``; the ``item_col`` values of each group
    form one sequence in file order. The labels are encoded as they are
    read, with the vocabulary in order of first appearance.
    """
    if fmt == "lines":
        flat: list[str] = []
        lengths: list[int] = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                tokens = line.split()
                if tokens:
                    flat.extend(tokens)
                    lengths.append(len(tokens))
        if not lengths:
            raise EmptyCorpusError(f"no sequences found in {path}")
        return SequenceCorpus._from_flat(flat, lengths)
    if fmt == "tsv":
        if group_col is None or item_col is None:
            raise ValueError("tsv format needs group_col and item_col")
        width = max(group_col, item_col) + 1
        groups: dict[str, list[str]] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                cells = line.rstrip("\n").split("\t")
                if len(cells) < width:
                    raise MalformedRowError(
                        f"line {lineno}: expected at least {width} columns, got {len(cells)}"
                    )
                groups.setdefault(cells[group_col], []).append(cells[item_col])
        if not groups:
            raise EmptyCorpusError(f"no sequences found in {path}")
        return SequenceCorpus.from_sequences(groups.values())
    raise ValueError(f"unknown corpus format {fmt!r}")


def dedupe_consecutive(corpus: SequenceCorpus) -> SequenceCorpus:
    """Collapse runs of identical adjacent tokens within each sequence.

    The first token of every sequence is kept, so no run crosses a
    sequence boundary and empty sequences stay empty. The vocabulary is
    unchanged: a label's first occurrence is never a repeat.
    """
    tokens, offsets = corpus.tokens, corpus.offsets
    keep = np.ones(tokens.shape[0], dtype=bool)
    np.not_equal(tokens[1:], tokens[:-1], out=keep[1:])
    keep[offsets[:-1][np.diff(offsets) > 0]] = True
    kept_before = np.zeros(tokens.shape[0] + 1, dtype=np.int64)
    np.cumsum(keep, out=kept_before[1:])
    return SequenceCorpus(tokens[keep], kept_before[offsets], corpus.vocabulary)


def replace_rare(
    corpus: SequenceCorpus, min_count: int, rare_token: str = DEFAULT_RARE_TOKEN
) -> tuple[SequenceCorpus, frozenset[str]]:
    """Replace every token seen fewer than ``min_count`` times corpus-wide.

    Counts are taken on the input corpus, before any replacement. The
    new vocabulary lists the labels left in order of first appearance,
    the placeholder where the first replaced token was. Returns the new
    corpus and the set of replaced tokens.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if rare_token in corpus.vocabulary:
        raise RareTokenCollisionError(
            f"replacement token {rare_token!r} already occurs in the corpus"
        )
    tokens = corpus.tokens
    n = corpus.vocabulary.n
    labels = corpus.vocabulary.labels
    counts = np.bincount(tokens, minlength=n)
    is_rare = (counts > 0) & (counts < min_count)
    rare = frozenset(labels[i] for i in np.flatnonzero(is_rare))
    if not rare:
        return corpus, rare
    # Slot n is the placeholder. A slot first appears where the first of
    # its codes does; the new codes number the slots in that order.
    total = tokens.shape[0]
    first = np.full(n, total, dtype=np.int64)
    np.minimum.at(first, tokens, np.arange(total))
    slot = np.where(is_rare, n, np.arange(n))
    slot_first = np.full(n + 1, total, dtype=np.int64)
    np.minimum.at(slot_first, slot, first)
    order = np.argsort(slot_first)[: np.count_nonzero(slot_first < total)]
    new_code = np.zeros(n + 1, dtype=np.int32)
    new_code[order] = np.arange(order.shape[0])
    slot_labels = labels + (rare_token,)
    vocabulary = StateSpace(tuple(slot_labels[i] for i in order))
    return SequenceCorpus(new_code[slot][tokens], corpus.offsets, vocabulary), rare


def preprocess(
    corpus: SequenceCorpus,
    min_count: int = 10,
    rare_token: str = DEFAULT_RARE_TOKEN,
) -> tuple[SequenceCorpus, list[dict]]:
    """Run the fixed pipeline: dedupe, replace rare tokens, dedupe again.

    Every stage works on the codes; no label is read or written. The
    second dedupe removes the adjacent placeholder runs that rare-token
    pooling can create, restoring the no-self-loop guarantee. Returns the
    cleaned corpus and one report dict per stage (its sequence, token
    and vocabulary counts; the ``replace_rare`` stage also gives how
    many labels it pooled).
    """
    reports = [_stage_report("input", corpus)]
    corpus = dedupe_consecutive(corpus)
    reports.append(_stage_report("dedupe", corpus))
    corpus, replaced = replace_rare(corpus, min_count, rare_token)
    stage = _stage_report("replace_rare", corpus)
    stage["replaced"] = len(replaced)
    reports.append(stage)
    corpus = dedupe_consecutive(corpus)
    reports.append(_stage_report("dedupe", corpus))
    for report in reports:
        logger.info(
            "preprocess %-12s n_sequences=%d N=%d vocab=%d",
            report["stage"],
            report["n_sequences"],
            report["N"],
            report["vocab"],
        )
    return corpus, reports


def _stage_report(stage: str, corpus: SequenceCorpus) -> dict:
    return {
        "stage": stage,
        "n_sequences": corpus.n_sequences,
        "N": corpus.total_tokens,
        "vocab": corpus.vocabulary.n,
    }
