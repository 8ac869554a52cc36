"""Sequence corpora: ingestion and the preprocessing pipeline.

A corpus is an immutable, encoded collection of token sequences: one
flat array of state codes, the offsets where each sequence starts, and
the vocabulary that maps codes to labels. Strings are mapped to codes
once, when the corpus is read or built, and decoded only for output;
:func:`load_sequences_cached` keeps each file's encoded corpus on disk,
keyed by the file's bytes, so that a file is parsed once.
Preprocessing collapses consecutive duplicates (so fitted matrices
carry no self-loops) and pools rare tokens into a single placeholder;
both are array passes over the codes.
"""

from __future__ import annotations

import json
import logging
import os
import stat
import tempfile
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCorpusError, MalformedRowError, RareTokenCollisionError, malformed_file
from .markov import StateSpace

logger = logging.getLogger(__name__)

DEFAULT_MIN_COUNT = 10
DEFAULT_RARE_TOKEN = "__rare__"

# Part of every cache key of load_sequences_cached. Bump it whenever
# load_sequences can give another corpus for the same bytes, so that no
# entry written by the older reader is read, and re-pin _READER_DIGEST:
# tests/test_corpus.py hashes load_sequences' output on fixed inputs and
# compares it with this digest.
_CACHE_VERSION = 1
_READER_DIGEST = "7db18816336e4de83b4d7fad13a644ba980ef0714fde6bf9283a00263ad9ebef"


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
        # Checked on the caller's arrays: the cast would round or wrap a bad value.
        tokens, offsets = np.asarray(self.tokens), np.asarray(self.offsets)
        if tokens.ndim != 1 or offsets.ndim != 1 or offsets.shape[0] < 1:
            raise ValueError("tokens and offsets must be 1-D, with at least one offset")
        if any(a.size and a.dtype.kind not in "iu" for a in (tokens, offsets)):
            raise ValueError("token codes and offsets must be integers")
        if offsets[0] != 0 or offsets[-1] != tokens.shape[0] or (offsets[1:] < offsets[:-1]).any():
            raise ValueError("offsets must rise from 0 to the number of tokens")
        if tokens.shape[0] and (tokens.min() < 0 or tokens.max() >= self.vocabulary.n):
            raise ValueError("token codes must index the vocabulary")
        tokens, offsets = tokens.astype(np.int32), offsets.astype(np.int64)
        tokens.flags.writeable = False
        offsets.flags.writeable = False
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "offsets", offsets)

    @classmethod
    def from_sequences(cls, sequences) -> "SequenceCorpus":
        """Encode label sequences, deriving the vocabulary in first-appearance order.

        Every corpus built from labels is encoded here, each file that
        :func:`load_sequences` reads included. The corpus is encoded one
        sequence at a time, so only the sequence being encoded is held
        as labels when ``sequences`` yields them lazily. Raises
        :class:`EmptyCorpusError` when there is no token at all.
        """
        # One pass: a label not seen before gets the next code.
        index = defaultdict()
        index.default_factory = index.__len__
        codes: list = []
        ends = [0]
        for seq in sequences:
            codes.extend(map(index.__getitem__, seq))
            ends.append(len(codes))
        if not codes:
            raise EmptyCorpusError("corpus contains no tokens")
        tokens = np.fromiter(codes, dtype=np.int32, count=len(codes))
        return cls(tokens, np.array(ends, dtype=np.int64), StateSpace(tuple(index)))

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
    return np.bincount(lagged_pair_codes(tokens, offsets, n, lag), minlength=n * n).reshape(n, n)


def lagged_pair_codes(tokens: np.ndarray, offsets: np.ndarray, n: int, lag: int) -> np.ndarray:
    """The pairs of :func:`lagged_pair_counts` as int64 codes
    ``earlier * n + later``, in ``[0, n * n)``, in token order."""
    m = max(tokens.shape[0] - lag, 0)
    earlier = tokens[:m]
    later = tokens[lag : lag + m]
    if lag and offsets.shape[0] > 2:
        # Number every token with its sequence: a pair lies within one
        # sequence when both of its tokens carry the same number.
        seq = np.repeat(np.arange(offsets.shape[0] - 1, dtype=np.int32), np.diff(offsets))
        within = seq[:m] == seq[lag : lag + m]
        earlier = earlier[within]
        later = later[within]
    # Codes are combined in int64: n * n can exceed the int32 range.
    codes = earlier.astype(np.int64)
    codes *= n
    codes += later
    return codes


def _distinct(keys: np.ndarray, bound: int, inverse: bool = False):
    """``np.unique(keys, return_counts=True)``, or with ``return_inverse=True``
    when ``inverse`` is set, for int64 keys in ``[0, bound)``: the same
    values, counts or inverse, dtypes and order.

    When the range is no wider than the keys it counts them: ``bincount``,
    then the nonzero bins, ranked by a ``cumsum`` for the inverse, with no
    work array larger than the keys. A wider range is sorted.
    """
    if bound > keys.size:
        return np.unique(keys, return_inverse=inverse, return_counts=not inverse)
    flat = keys.ravel()
    counts = np.bincount(flat, minlength=bound)
    seen = counts != 0
    values = np.flatnonzero(seen)
    if not inverse:
        return values, counts[seen]
    rank = np.cumsum(seen)
    rank -= 1
    return values, rank[flat].reshape(keys.shape)


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
    form one sequence in file order. Both are encoded by
    :meth:`SequenceCorpus.from_sequences`, one sequence at a time: a
    Lines file is never held as labels beyond the line being encoded.
    """
    if fmt == "lines":
        with open(path, "r", encoding="utf-8-sig") as fh, malformed_file(path):
            return SequenceCorpus.from_sequences(filter(None, map(str.split, fh)))
    if fmt == "tsv":
        if group_col is None or item_col is None:
            raise ValueError("tsv format needs group_col and item_col")
        if group_col < 0 or item_col < 0:
            raise ValueError(f"tsv columns must be >= 0, got {group_col} and {item_col}")
        width = max(group_col, item_col) + 1
        groups: dict[str, list[str]] = {}
        with open(path, "r", encoding="utf-8-sig") as fh, malformed_file(path):
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                cells = line.rstrip("\n").split("\t")
                if len(cells) < width:
                    raise MalformedRowError(
                        f"line {lineno}: expected at least {width} columns, got {len(cells)}"
                    )
                groups.setdefault(cells[group_col], []).append(cells[item_col])
        return SequenceCorpus.from_sequences(groups.values())
    raise ValueError(f"unknown corpus format {fmt!r}")


def load_sequences_cached(
    path,
    fmt: str = "lines",
    group_col: int | None = None,
    item_col: int | None = None,
    *,
    cache_dir,
) -> SequenceCorpus:
    """:func:`load_sequences`, through a cache of encoded corpora in ``cache_dir``.

    An entry is keyed by the sha256 of a header (the cache version, the
    Unicode version that ``str.split`` follows, ``fmt`` and, for TSV, the
    columns) followed by the file's bytes, which every call hashes in
    full. A hit loads the entry's arrays through the
    :class:`SequenceCorpus` checks; a miss parses the file and writes the
    entry, unless the file's bytes changed during the parse. Only regular
    files are cached, and ``cache_dir=None`` parses only. A cache that
    cannot be read or written is logged at INFO and the file is parsed:
    the corpus, and every error a file raises, are the same either way.
    """
    if cache_dir is None:
        return load_sequences(path, fmt, group_col, item_col)
    try:
        key = _cache_key(path, fmt, group_col, item_col)
    except OSError as exc:  # the parse raises it again if the file cannot be read
        logger.info("corpus cache skipped (%s)", exc)
        return load_sequences(path, fmt, group_col, item_col)
    entry = os.path.join(cache_dir, f"{key}.npz")
    try:
        corpus = _read_entry(entry)
    except FileNotFoundError:
        logger.info("corpus cache miss %s %s", key[:12], entry)
    except Exception as exc:  # an unreadable entry is parsed again and rewritten
        logger.info("corpus cache miss %s %s (%s: %s)", key[:12], entry, type(exc).__name__, exc)
    else:
        logger.info("corpus cache hit %s %s", key[:12], entry)
        return corpus
    corpus = load_sequences(path, fmt, group_col, item_col)
    try:
        if _cache_key(path, fmt, group_col, item_col) == key:
            _write_entry(cache_dir, entry, corpus)
        else:
            logger.info("corpus cache entry not written: %s changed while it was read", path)
    except Exception as exc:
        logger.info("corpus cache entry not written (%s: %s)", type(exc).__name__, exc)
    return corpus


def _cache_key(path, fmt, group_col, item_col) -> str:
    if not stat.S_ISREG(os.stat(path).st_mode):
        # A pipe cannot be read twice: once to hash it, once to parse it.
        raise OSError(f"{path} is not a regular file")
    # Imported here: importing the package does not pay for them.
    import hashlib
    import unicodedata

    columns = (group_col, item_col) if fmt == "tsv" else ()
    header = (_CACHE_VERSION, unicodedata.unidata_version, fmt, *columns)
    digest = hashlib.sha256(f"{header!r}\n".encode())
    # One reused buffer: a new bytes object per block made the hash about a third slower.
    buffer = bytearray(1 << 20)
    view = memoryview(buffer)
    with open(path, "rb") as fh:
        while size := fh.readinto(buffer):
            digest.update(view[:size])
    return digest.hexdigest()


def _read_entry(entry) -> SequenceCorpus:
    # Opened here: np.load leaves a path's file open when the zip is bad.
    with open(entry, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
        arrays = npz["tokens"], npz["offsets"], npz["labels"]
    for array, dtype in zip(arrays, (np.int32, np.int64, np.uint8)):
        if array.dtype != dtype or array.ndim != 1:
            raise ValueError(f"entry holds a {array.dtype} array of shape {array.shape}")
    tokens, offsets, labels = arrays
    labels = json.loads(labels.tobytes())
    if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
        raise ValueError("entry's labels are not a list of strings")
    return SequenceCorpus(tokens, offsets, StateSpace(tuple(labels)))


def _write_entry(cache_dir, entry, corpus: SequenceCorpus) -> None:
    # The labels go in as JSON bytes: a NumPy string array drops a label's trailing NULs.
    labels = np.frombuffer(json.dumps(corpus.vocabulary.labels).encode(), dtype=np.uint8)
    os.makedirs(cache_dir, mode=0o700, exist_ok=True)
    # Written aside and renamed into place, so no reader sees a partial entry.
    fd, scratch = tempfile.mkstemp(suffix=".tmp", dir=cache_dir)
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, tokens=corpus.tokens, offsets=corpus.offsets, labels=labels)
        os.replace(scratch, entry)
    except BaseException:
        os.unlink(scratch)
        raise


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
    min_count: int = DEFAULT_MIN_COUNT,
    rare_token: str = DEFAULT_RARE_TOKEN,
) -> tuple[SequenceCorpus, list[dict]]:
    """Run the fixed pipeline: dedupe, replace rare tokens, dedupe again.

    Every stage works on the codes; no label is read or written. The
    second dedupe removes the adjacent placeholder runs that rare-token
    pooling can create, restoring the no-self-loop guarantee. Returns the
    cleaned corpus and one report dict per stage, logged as it is made
    (its sequence, token and vocabulary counts; the ``replace_rare``
    stage also gives how many labels it pooled).
    """
    reports = [_stage_report("input", corpus)]
    corpus = dedupe_consecutive(corpus)
    reports.append(_stage_report("dedupe", corpus))
    corpus, replaced = replace_rare(corpus, min_count, rare_token)
    reports.append({**_stage_report("replace_rare", corpus), "replaced": len(replaced)})
    corpus = dedupe_consecutive(corpus)
    reports.append(_stage_report("dedupe", corpus))
    return corpus, reports


def _stage_report(stage: str, corpus: SequenceCorpus) -> dict:
    report = {
        "stage": stage,
        "n_sequences": corpus.n_sequences,
        "N": corpus.total_tokens,
        "vocab": corpus.vocabulary.n,
    }
    logger.info("preprocess %-12s n_sequences=%d N=%d vocab=%d", *report.values())
    return report
