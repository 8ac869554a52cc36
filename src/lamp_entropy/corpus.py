"""Sequence corpora: ingestion and the preprocessing pipeline.

A corpus is an immutable collection of token sequences sharing one
vocabulary. Preprocessing collapses consecutive duplicates (so fitted
matrices carry no self-loops) and pools rare tokens into a single
placeholder.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCorpusError, MalformedRowError, RareTokenCollisionError
from .markov import StateSpace

logger = logging.getLogger(__name__)

DEFAULT_RARE_TOKEN = "__rare__"


@dataclass(frozen=True)
class SequenceCorpus:
    """Token sequences with a shared vocabulary."""

    sequences: tuple[tuple[str, ...], ...]
    vocabulary: StateSpace

    @classmethod
    def from_sequences(cls, sequences) -> "SequenceCorpus":
        """Build a corpus, deriving the vocabulary in first-appearance order."""
        seqs = tuple(tuple(s) for s in sequences)
        if not seqs:
            raise EmptyCorpusError("corpus contains no sequences")
        seen: dict[str, None] = {}
        for seq in seqs:
            for tok in seq:
                if tok not in seen:
                    seen[tok] = None
        if not seen:
            raise EmptyCorpusError("corpus contains no tokens")
        return cls(seqs, StateSpace(tuple(seen)))

    @property
    def n_sequences(self) -> int:
        return len(self.sequences)

    @property
    def total_tokens(self) -> int:
        return sum(len(s) for s in self.sequences)

    def encoded(self) -> list[np.ndarray]:
        """Sequences as int32 index arrays over the vocabulary."""
        return [self.vocabulary.encode(s) for s in self.sequences]

    def concatenated(self) -> tuple[np.ndarray, np.ndarray]:
        """All sequences encoded end to end, and where each one starts.

        Returns the int64 token array and ``n_sequences + 1`` int64
        offsets: sequence ``i`` is ``tokens[offsets[i]:offsets[i + 1]]``.
        """
        encoded = self.encoded()
        offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
        np.cumsum([idx.shape[0] for idx in encoded], out=offsets[1:])
        return np.concatenate(encoded).astype(np.int64), offsets

    def token_counts(self) -> Counter:
        counts: Counter = Counter()
        for seq in self.sequences:
            counts.update(seq)
        return counts


def lagged_pair_counts(tokens: np.ndarray, offsets: np.ndarray, n: int, lag: int) -> np.ndarray:
    """``(n, n)`` counts of the pairs ``(tokens[t], tokens[t + lag])`` that
    lie within one sequence; rows index the earlier token.

    ``tokens`` and ``offsets`` are as returned by
    :meth:`SequenceCorpus.concatenated`.
    """
    m = max(tokens.shape[0] - lag, 0)
    ends = np.repeat(offsets[1:], np.diff(offsets))
    within = ends[:m] > np.arange(lag, lag + m)
    codes = tokens[:m] * n + tokens[lag : lag + m]
    return np.bincount(codes[within], minlength=n * n).reshape(n, n)


def load_sequences(
    path,
    fmt: str = "lines",
    group_col: int | None = None,
    item_col: int | None = None,
) -> SequenceCorpus:
    """Read a corpus from disk.

    ``fmt="lines"``: one sequence per line, tokens separated by spaces
    (blank lines are skipped). ``fmt="tsv"``: tab-separated rows grouped
    by the value in ``group_col``; the ``item_col`` values of each group
    form one sequence in file order.
    """
    if fmt == "lines":
        sequences = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                tokens = line.split()
                if tokens:
                    sequences.append(tokens)
    elif fmt == "tsv":
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
        sequences = list(groups.values())
    else:
        raise ValueError(f"unknown corpus format {fmt!r}")
    if not sequences:
        raise EmptyCorpusError(f"no sequences found in {path}")
    return SequenceCorpus.from_sequences(sequences)


def dedupe_consecutive(corpus: SequenceCorpus) -> SequenceCorpus:
    """Collapse runs of identical adjacent tokens within each sequence."""
    out = []
    for seq in corpus.sequences:
        if not seq:
            out.append(seq)
            continue
        deduped = [seq[0]]
        deduped.extend(b for a, b in zip(seq, seq[1:]) if b != a)
        out.append(tuple(deduped))
    return SequenceCorpus.from_sequences(out)


def replace_rare(
    corpus: SequenceCorpus, min_count: int, rare_token: str = DEFAULT_RARE_TOKEN
) -> tuple[SequenceCorpus, frozenset[str]]:
    """Replace every token seen fewer than ``min_count`` times corpus-wide.

    Counts are taken on the input corpus, before any replacement.
    Returns the new corpus and the set of replaced tokens.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if rare_token in corpus.vocabulary:
        raise RareTokenCollisionError(
            f"replacement token {rare_token!r} already occurs in the corpus"
        )
    counts = corpus.token_counts()
    rare = frozenset(tok for tok, c in counts.items() if c < min_count)
    if not rare:
        return corpus, rare
    out = [
        tuple(rare_token if tok in rare else tok for tok in seq)
        for seq in corpus.sequences
    ]
    return SequenceCorpus.from_sequences(out), rare


def preprocess(
    corpus: SequenceCorpus,
    min_count: int = 10,
    rare_token: str = DEFAULT_RARE_TOKEN,
) -> tuple[SequenceCorpus, list[dict]]:
    """Run the fixed pipeline: dedupe, replace rare tokens, dedupe again.

    The second pass removes the adjacent placeholder runs that rare-token
    pooling can create, restoring the no-self-loop guarantee. Returns the
    cleaned corpus and one report dict per stage.
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
