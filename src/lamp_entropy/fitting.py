"""Maximum-likelihood fitting of chains and lag-mixture models.

The first-order fit is a closed-form count ratio with optional add-alpha
smoothing. The lag-mixture fit treats the backward lag at each position
as a latent variable and alternates exact expectation and maximisation
steps; the total log2-likelihood never decreases.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import SequenceCorpus, lagged_pair_counts
from .errors import DegenerateInitError, EmptyCorpusError, TooShortError, UnknownTokenError
from .lamp import KernelDistribution, LampModel, _step_scores, model_to_json_dict
from .markov import StateSpace, TransitionMatrix

logger = logging.getLogger(__name__)

DEFAULT_EM_TOL = 1e-6
DEFAULT_EM_MAX_ITER = 500
DEFAULT_INIT_SMOOTHING = 0.1


@dataclass(frozen=True)
class TransitionCounts:
    """Observed i -> j adjacent-pair counts, never across sequence ends."""

    states: StateSpace
    counts: np.ndarray


@dataclass(frozen=True)
class FitReport:
    """Outcome of an alternating-maximisation fit."""

    model: LampModel
    log_likelihood_trace: tuple[float, ...]
    iterations: int
    converged: bool

    def to_json_dict(self) -> dict:
        return {"model": model_to_json_dict(self.model), **self._fit_json_dict()}

    def _fit_json_dict(self) -> dict:
        # Everything but the model, which the CLI embeds already encoded.
        return {
            "log_likelihood_trace": list(self.log_likelihood_trace),
            "iterations": self.iterations,
            "converged": self.converged,
        }


def count_transitions(corpus: SequenceCorpus) -> TransitionCounts:
    """Count adjacent pairs within each sequence."""
    counts = lagged_pair_counts(corpus.tokens, corpus.offsets, corpus.vocabulary.n, 1)
    return TransitionCounts(corpus.vocabulary, counts)


def fit_first_order(corpus: SequenceCorpus, smoothing: float = 0.0) -> TransitionMatrix:
    """Estimate a first-order transition matrix from pair counts.

    ``P_ij = (count_ij + smoothing) / (rowsum_i + smoothing * n)``. With
    zero smoothing, states never observed as a source get a uniform row.
    """
    if smoothing < 0:
        raise ValueError("smoothing must be >= 0")
    counts = count_transitions(corpus).counts
    if counts.sum() == 0:
        raise EmptyCorpusError("corpus contains no transitions to fit")
    return TransitionMatrix(corpus.vocabulary, _normalise_rows(counts + smoothing))


def _normalise_rows(weights: np.ndarray) -> np.ndarray:
    weights = weights.astype(float, copy=True)
    row_sums = weights.sum(axis=1)
    empty = row_sums == 0.0
    if empty.any():
        for i in np.nonzero(empty)[0]:
            logger.info("state %d has no observed transitions; using a uniform row", i)
        weights[empty] = 1.0
        row_sums = weights.sum(axis=1)
    return weights / row_sums[:, None]


def fit_lamp_em(
    corpus: SequenceCorpus,
    k: int,
    init: tuple[KernelDistribution, TransitionMatrix] | None = None,
    max_iter: int = DEFAULT_EM_MAX_ITER,
    tol: float = DEFAULT_EM_TOL,
) -> FitReport:
    """Fit kernel weights and a transition matrix by alternating maximisation.

    The latent variable is the backward lag at each scored position.
    Expectation assigns each position a responsibility over lags
    proportional to ``w_q * P[x_{max(0, t-q)}, x_t]``; maximisation
    renormalises responsibility totals into new weights and a new
    matrix. Stops once the total log2-likelihood improves by less than
    ``tol``, or after ``max_iter`` rounds.

    A position enters both steps only through its pattern: its ``k``
    lagged sources and its target. Positions sharing a pattern are
    merged once, before the first round, into one row weighted by how
    often the pattern occurs, and maximisation accumulates over the
    distinct (source, target) cells those rows touch. A round therefore
    costs time in the number of distinct patterns rather than
    positions; a long path over few states has few of them. The
    patterns are found with one in-place pass per lag and one sort of
    their packed keys. A round holds its ``(k, P)`` arrays lag-major,
    so that every sum over lags or over patterns adds whole contiguous
    rows. Every sum keeps the order of the one-row-per-pattern
    ``(P, k)`` arithmetic, so every fitted number is the same to the
    bit.

    Parameters
    ----------
    corpus : SequenceCorpus
        Training data; every sequence must hold at least two tokens.
    k : int
        Kernel order (largest backward lag).
    init : optional (kernel, matrix) pair
        Starting point. The default is a uniform kernel and an
        add-``0.1`` smoothed first-order fit, which keeps the initial
        likelihood finite.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    tokens, offsets = corpus.tokens, corpus.offsets
    lengths = np.diff(offsets)
    if (lengths < 2).any():
        raise TooShortError("every sequence must hold at least two tokens")
    n = corpus.vocabulary.n
    total_positions = tokens.shape[0] - lengths.shape[0]

    sources, targets, multiplicity = _distinct_patterns(tokens, offsets, k, n)
    # Rounds run lag-major, on (k, P) arrays: a lag is one contiguous row.
    cells, cell_of = np.unique(sources.T * n + targets, return_inverse=True)
    del sources, targets
    cell_of = cell_of.reshape(k, -1)
    # Maximisation adds each cell's mass in (pattern, lag) order.
    cell_of_by_pattern = cell_of.T.ravel()
    cell_row = cells // n

    if init is None:
        weights = np.full(k, 1.0 / k)
        matrix_rows = _normalise_rows(
            lagged_pair_counts(tokens, offsets, n, 1) + DEFAULT_INIT_SMOOTHING
        )
    else:
        kernel0, matrix0 = init
        if kernel0.k != k:
            raise ValueError(f"init kernel has order {kernel0.k}, expected {k}")
        if matrix0.states.labels != corpus.vocabulary.labels:
            raise ValueError("init matrix state space does not match the corpus vocabulary")
        weights = kernel0.weights
        matrix_rows = matrix0.rows

    cell_probs = matrix_rows.ravel()[cells]
    del matrix_rows
    mixture = np.empty(cell_of.shape)
    trace: list[float] = []
    previous = -np.inf
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        np.take(cell_probs, cell_of, out=mixture, mode="clip")
        mixture *= weights[:, None]
        totals = _pairwise_row_sum(mixture)
        if (totals <= 0.0).any():
            raise DegenerateInitError(
                "an observed transition has probability 0 under the current "
                "parameters; the initialisation contains a structural zero "
                "the data requires"
            )
        log_likelihood = float(multiplicity @ np.log2(totals))
        trace.append(log_likelihood)
        delta = log_likelihood - previous
        logger.info("em iter=%d log2_likelihood=%.6f delta=%.3g", iteration, log_likelihood, delta)

        # Responsibilities, in place. Dividing before weighting keeps a
        # k=1 responsibility exactly 1.
        mixture /= totals
        mixture *= multiplicity
        # The last partial sum adds a lag's patterns one after another.
        weights = np.cumsum(mixture, axis=1)[:, -1] / total_positions
        cell_mass = np.bincount(
            cell_of_by_pattern, weights=mixture.T.ravel(), minlength=cells.shape[0]
        )
        row_mass = np.bincount(cell_row, weights=cell_mass, minlength=n)[cell_row]
        # A row with no mass becomes uniform, as in _normalise_rows.
        cell_probs = np.divide(
            cell_mass, row_mass, out=np.full_like(cell_mass, 1.0 / n), where=row_mass > 0
        )

        if delta < tol:
            converged = True
            break
        previous = log_likelihood

    # Free the pattern and round arrays before the dense n * n build.
    del multiplicity, cell_of, cell_of_by_pattern, mixture
    accum = np.zeros(n * n)
    accum[cells] = cell_mass
    model = LampModel(
        TransitionMatrix(corpus.vocabulary, _normalise_rows(accum.reshape(n, n))),
        KernelDistribution(weights),
    )
    return FitReport(model, tuple(trace), iteration, converged)


def _pairwise_row_sum(rows: np.ndarray) -> np.ndarray:
    """Sum of the rows of an (m, P) array, added in the order in which
    numpy's pairwise summation adds m contiguous values: one after
    another below 8, in 8 interleaved partial sums up to 128, halves
    beyond. Equals ``rows.T.sum(axis=1)`` bit for bit, but adds whole
    rows instead of reducing P rows of m values one by one."""
    m = rows.shape[0]
    if m > 128:
        half = m // 2 - m // 2 % 8
        return _pairwise_row_sum(rows[:half]) + _pairwise_row_sum(rows[half:])
    if m < 8:
        total, end = rows[0].copy(), 1
    else:
        partial = rows[:8].copy()
        end = m - m % 8
        for i in range(8, end, 8):
            partial += rows[i : i + 8]
        partial[0::2] += partial[1::2]
        partial[0::4] += partial[2::4]
        partial[0] += partial[4]
        total = partial[0]
    for row in rows[end:]:
        total += row
    return total


def _distinct_patterns(
    tokens: np.ndarray, offsets: np.ndarray, k: int, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (sources at lags 1..k, target) patterns of the scored
    positions, and how many positions share each, in increasing order of
    the packed (target, source 1, ..., source k) key.

    Every position after the first of its sequence is scored; its source
    at lag ``q`` is ``q`` steps back, clamped to the sequence start.
    Every sequence must hold at least one token. Returns ``(sources
    (P, k), targets (P,), multiplicity (P,))``; the sources are int64, so
    ``sources * n + target`` cannot overflow.
    """
    starts = offsets[:-1]
    scored = np.ones(tokens.shape[0], dtype=bool)
    scored[starts] = False
    # The positions 1..k-1 steps into their sequence, the only ones whose
    # sources can clamp, and the position of each one's current source.
    into = np.arange(1, k)
    near = (starts[:, None] + into)[into < np.diff(offsets)[:, None]]
    source = near.copy()
    # Pack each position's pattern into one int64, a column at a time and
    # in place: shift in the token q steps back, then redo the positions
    # near a sequence start with their clamped source. When the next
    # column could overflow, renumber the keys densely.
    key = tokens.astype(np.int64)
    bound = n
    for q in range(1, k + 1):
        if bound * n > np.iinfo(np.int64).max:
            uniq, key = np.unique(key, return_inverse=True)
            bound = uniq.shape[0]
        prefix = key[near]
        key *= n
        key[q:] += tokens[:-q]
        # One step back, except from the first token of a sequence.
        source -= scored[source]
        key[near] = prefix * n + tokens[source]
        bound *= n
    key = key[scored]
    # Any position stands for its pattern, so an unstable sort will do;
    # its runs are the patterns in key order.
    order = np.argsort(key)
    key = key[order]
    new_run = np.empty(key.shape, dtype=bool)
    new_run[:1] = True
    np.not_equal(key[1:], key[:-1], out=new_run[1:])
    first = np.flatnonzero(new_run)
    multiplicity = np.diff(first, append=key.shape[0])
    at = np.flatnonzero(scored)[order[first]]
    targets = tokens[at]
    sources = np.empty((at.shape[0], k), dtype=np.int64)
    for q in range(k):
        # One step back, except from the first token of a sequence.
        at -= scored[at]
        sources[:, q] = tokens[at]
    return sources, targets, multiplicity.astype(float)


def lamp_log_likelihood(model: LampModel, corpus: SequenceCorpus) -> float:
    """Total log2-likelihood of the corpus under the model.

    Every position after the first of each sequence is scored against
    its full history; single-token sequences contribute nothing.
    """
    # Corpus code -> model code, -1 for a label the model lacks.
    states = model.matrix.states
    to_model = np.array(
        [states.index_of(lab) if lab in states else -1 for lab in corpus.vocabulary.labels]
    )
    bounds = corpus.offsets.tolist()
    total = 0.0
    for a, b in zip(bounds, bounds[1:]):
        if b - a >= 2:
            idx = to_model[corpus.tokens[a:b]]
            if (idx < 0).any():
                code = corpus.tokens[a + int(np.argmax(idx < 0))]
                raise UnknownTokenError(f"unknown token {corpus.vocabulary.labels[code]!r}")
            total += float(np.log2(_step_scores(model, idx, weighted=False)[0]).sum())
    return total
