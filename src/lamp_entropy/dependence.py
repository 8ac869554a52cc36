"""Lagged self-association profiles via Cramér's V.

Pairs of symbols a fixed lag apart form a contingency table; the
chi-squared statistic against independence, normalised to [0, 1],
measures how strongly the sequence depends on its own past at that lag
without assigning any ordinal meaning to the symbols.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import SequenceCorpus, lagged_pair_counts
from .errors import LagTooLargeError


class CramersV(NamedTuple):
    value: float
    degenerate: bool


class ProfilePoint(NamedTuple):
    lag: int
    cramers_v: float
    degenerate: bool


@dataclass(frozen=True)
class ContingencyTable:
    """Cross-counts of (earlier symbol, later symbol) pairs."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def contingency_table(seq, lag: int) -> ContingencyTable:
    """Counts of pairs ``(seq[i], seq[i + lag])``; rows index the earlier symbol."""
    if lag < 0:
        raise ValueError("lag must be >= 0")
    if len(seq) <= lag:
        raise LagTooLargeError(f"lag {lag} needs a sequence longer than {lag}")
    corpus = SequenceCorpus.from_sequences([seq])
    labels = corpus.vocabulary.labels
    counts = lagged_pair_counts(corpus.tokens, corpus.offsets, len(labels), lag)
    return ContingencyTable(labels, labels, counts)


def cramers_v(table: ContingencyTable) -> CramersV:
    """Association strength in [0, 1]: 0 under independence, 1 for a bijection.

    ``sqrt((chi2 / total) / min(r - 1, c - 1))`` with Pearson's chi-squared
    against the independence model. Rows and columns with zero counts are
    dropped first; a table left with a single row or column describes a
    constant variable, for which association is vacuous: the value is 0
    and the degeneracy flag is set.
    """
    counts = table.counts.astype(float)
    counts = counts[counts.sum(axis=1) > 0][:, counts.sum(axis=0) > 0]
    total = counts.sum()
    r, c = counts.shape
    if total <= 0 or r < 2 or c < 2:
        return CramersV(0.0, True)
    row_sums = counts.sum(axis=1)
    col_sums = counts.sum(axis=0)
    expected = np.outer(row_sums, col_sums) / total
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    value = math.sqrt(chi2 / (total * min(r - 1, c - 1)))
    return CramersV(min(max(value, 0.0), 1.0), False)


def dependency_profile(seq, max_lag: int, include_lag0: bool = False) -> list[ProfilePoint]:
    """Cramér's V of ``seq`` against itself at each lag 1..max_lag.

    Lag 0 is included only on request; it is 1 for any sequence with two
    distinct symbols.
    """
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    if len(seq) <= max_lag:
        raise LagTooLargeError(f"max_lag {max_lag} needs a sequence longer than {max_lag}")
    return corpus_dependency_profile(SequenceCorpus.from_sequences([seq]), max_lag, include_lag0)


def corpus_dependency_profile(
    corpus: SequenceCorpus, max_lag: int, include_lag0: bool = False
) -> list[ProfilePoint]:
    """Pooled profile over a corpus: tables are summed per lag.

    Pairs never straddle sequence boundaries; sequences shorter than a
    given lag simply contribute nothing to it. A lag with no pairs at
    all is reported as degenerate.
    """
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    n = corpus.vocabulary.n
    labels = corpus.vocabulary.labels
    out = []
    for lag in range(0 if include_lag0 else 1, max_lag + 1):
        counts = lagged_pair_counts(corpus.tokens, corpus.offsets, n, lag)
        v = cramers_v(ContingencyTable(labels, labels, counts))
        out.append(ProfilePoint(lag, v.value, v.degenerate))
    return out


def write_profile_csv(profile, path) -> None:
    """Profile as CSV with columns lag, cramers_v, degenerate_flag."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lag", "cramers_v", "degenerate_flag"])
        for point in profile:
            writer.writerow(
                [point.lag, repr(point.cramers_v), "true" if point.degenerate else "false"]
            )
