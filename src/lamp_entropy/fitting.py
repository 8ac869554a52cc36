"""Maximum-likelihood fitting of chains and lag-mixture models.

The first-order fit is a closed-form count ratio with optional add-alpha
smoothing. The lag-mixture fit treats the backward lag at each position
as a latent variable and alternates exact expectation and maximisation
steps; the total log2-likelihood never decreases.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from .corpus import SequenceCorpus, lagged_pair_counts
from .errors import DegenerateInitError, EmptyCorpusError, UnknownTokenError
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
        # Every field but the model, which the CLI embeds already encoded.
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "model"}


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
    ``tol`` (which must not be NaN), or after ``max_iter`` rounds.

    A position enters both steps only through its pattern: its ``k``
    lagged sources and its target. Positions sharing a pattern are
    merged once, before the first round, into one row weighted by how
    often the pattern occurs, and maximisation accumulates over the
    distinct (source, target) cells those rows touch. A round therefore
    costs time in the number of distinct patterns rather than
    positions; a long path over few states has few of them. A round
    holds its ``(k, P)`` arrays lag-major and sums in that order: the
    weights one lag at a time, the cell masses by one ``bincount``.

    Parameters
    ----------
    corpus : SequenceCorpus
        Training data: at least one transition. An empty or one-token
        sequence holds no transition and adds nothing to the fit.
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
    if math.isnan(tol):
        raise ValueError("tol must be a number, got nan")
    tokens, offsets = corpus.tokens, corpus.offsets
    n = corpus.vocabulary.n
    # The first token of each non-empty sequence is not scored.
    total_positions = tokens.shape[0] - np.count_nonzero(np.diff(offsets))
    if total_positions == 0:
        raise EmptyCorpusError("corpus contains no transitions to fit")

    # A start that cannot fit is rejected before the pattern step, the costliest part of a fit.
    if init is not None:
        kernel0, matrix0 = init
        if kernel0.k != k:
            raise ValueError(f"init kernel has order {kernel0.k}, expected {k}")
        if matrix0.states.labels != corpus.vocabulary.labels:
            raise ValueError("init matrix state space does not match the corpus vocabulary")

    cells, em_round = _em_round(tokens, offsets, k, n)
    if init is None:
        weights = np.full(k, 1.0 / k)
        cell_probs = _normalise_rows(
            lagged_pair_counts(tokens, offsets, n, 1) + DEFAULT_INIT_SMOOTHING
        ).ravel()[cells]
    else:
        weights = kernel0.weights
        cell_probs = matrix0.rows.ravel()[cells]

    trace: list[float] = []
    previous = -np.inf
    for iteration in range(1, max_iter + 1):
        log_likelihood, weights, cell_mass, cell_probs = em_round(weights, cell_probs)
        trace.append(log_likelihood)
        delta = log_likelihood - previous
        logger.info("em iter=%d log2_likelihood=%.6f delta=%.3g", iteration, log_likelihood, delta)
        if delta < tol:
            break
        previous = log_likelihood

    # Free the round's patterns before the dense n * n build.
    del em_round
    accum = np.zeros(n * n)
    accum[cells] = cell_mass
    model = LampModel(
        TransitionMatrix(corpus.vocabulary, _normalise_rows(accum.reshape(n, n))),
        KernelDistribution(weights),
    )
    return FitReport(model, tuple(trace), iteration, converged=delta < tol)


def _em_round(tokens: np.ndarray, offsets: np.ndarray, k: int, n: int):
    """EM's round over the fixed patterns of the scored positions, and
    the observed cells it reads, as flat ``source * n + target`` indices.

    The round maps the kernel weights and the cells' probabilities to
    the log2-likelihood there, the new weights, the cell masses and the
    new cell probabilities, in new arrays. It keeps no state between calls.
    """
    sources, targets, multiplicity = _distinct_patterns(tokens, offsets, k, n)
    total_positions = multiplicity.sum()
    # The round's (k, P) arrays are lag-major: a lag is one contiguous row.
    cells, cell_of = np.unique(sources.T * n + targets, return_inverse=True)
    cell_of = cell_of.reshape(k, -1)
    cell_row = cells // n

    def em_round(weights: np.ndarray, cell_probs: np.ndarray):
        mixture = np.take(cell_probs, cell_of, mode="clip")
        mixture *= weights[:, None]
        totals = mixture.sum(axis=0)
        if (totals <= 0.0).any():
            raise DegenerateInitError(
                "an observed transition has probability 0 under the current "
                "parameters; the initialisation contains a structural zero "
                "the data requires"
            )
        log_likelihood = float(multiplicity @ np.log2(totals))
        # Responsibilities, in place. Dividing before weighting keeps a
        # k=1 responsibility exactly 1.
        mixture /= totals
        mixture *= multiplicity
        cell_mass = np.bincount(
            cell_of.ravel(), weights=mixture.ravel(), minlength=cells.shape[0]
        )
        row_mass = np.bincount(cell_row, weights=cell_mass, minlength=n)[cell_row]
        # A row with no mass becomes uniform, as in _normalise_rows.
        new_probs = np.divide(
            cell_mass, row_mass, out=np.full_like(cell_mass, 1.0 / n), where=row_mass > 0
        )
        return log_likelihood, mixture.sum(axis=1) / total_positions, cell_mass, new_probs

    return cells, em_round


def _distinct_patterns(
    tokens: np.ndarray, offsets: np.ndarray, k: int, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (sources at lags 1..k, target) patterns of the scored
    positions, and how many positions share each, in increasing order of
    the packed (target, source 1, ..., source k) key.

    Every position after the first of its sequence is scored; its source
    at lag ``q`` is ``q`` steps back, clamped to the sequence start. An
    empty sequence scores nothing. The key values are sorted once, and
    each distinct key is decoded back into its target and sources.
    Returns ``(sources (P, k) int64, targets (P,) int64, multiplicity
    (P,) float)``; the int64 codes keep ``sources * n + target`` from
    overflowing.
    """
    starts = offsets[:-1]
    lengths = np.diff(offsets)
    scored = np.ones(tokens.shape[0], dtype=bool)
    scored[starts[lengths > 0]] = False
    # The positions 1..k-1 steps into their sequence, the only ones whose
    # sources can clamp, and the position of each one's current source.
    into = np.arange(1, k)
    near = (starts[:, None] + into)[into < lengths[:, None]]
    source = near.copy()
    # Pack each position's pattern into one int64, base-n digits target
    # first, a column at a time and in place: shift in the token q steps
    # back, then redo the positions near a sequence start with their
    # clamped source. When the next column could overflow, renumber the
    # keys densely and keep the table to decode them by.
    key = tokens.astype(np.int64)
    bound = n
    tables = {}
    for q in range(1, k + 1):
        if bound * n > np.iinfo(np.int64).max:
            tables[q], key = np.unique(key, return_inverse=True)
            bound = tables[q].shape[0]
        prefix = key[near]
        key *= n
        key[q:] += tokens[:-q]
        # One step back, except from the first token of a sequence.
        source -= scored[source]
        key[near] = prefix * n + tokens[source]
        bound *= n
    key, multiplicity = np.unique(key[scored], return_counts=True)
    # Peel the digits off, lag k first, undoing each renumbering.
    sources = np.empty((key.shape[0], k), dtype=np.int64)
    for q in range(k, 0, -1):
        key, sources[:, q - 1] = np.divmod(key, n)
        if q in tables:
            key = tables[q][key]
    return sources, key, multiplicity.astype(float)


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
            total += float(_step_scores(model, idx, weighted=False).sum())
    return total
