"""Mixture-of-lags processes: a first-order chain plus a lag kernel.

The process picks a backward lag q from the kernel, then transitions
from the state observed q steps ago using the ordinary transition
matrix. Early steps, where the history is shorter than the lag, clamp
to the first symbol.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyHistoryError, TooShortError, ZeroProbabilityError, malformed_file
from .markov import (
    _BLOCK,
    _check_probabilities,
    _chunks,
    _inverse_cdf,
    _spans,
    _start,
    _walk,
    EncodedJSON,
    TransitionMatrix,
    entropy_rate,
    stationary_distribution,
    validate_stochastic,
    write_json,
)


@dataclass(frozen=True)
class KernelDistribution:
    """Probability distribution over backward lags 1..k."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("kernel weights must be a non-empty 1-D vector")
        _check_probabilities(w, "kernel weights")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def k(self) -> int:
        """Order of the process: the largest representable lag."""
        return int(self.weights.size)

    @classmethod
    def point_mass(cls, lag: int) -> "KernelDistribution":
        if lag < 1:
            raise ValueError("lag must be >= 1")
        w = np.zeros(lag)
        w[lag - 1] = 1.0
        return cls(w)

    @classmethod
    def uniform(cls, k: int) -> "KernelDistribution":
        if k < 1:
            raise ValueError("k must be >= 1")
        return cls(np.full(k, 1.0 / k))

    @classmethod
    def geometric(cls, k: int, ratio: float = 0.5) -> "KernelDistribution":
        """Truncated geometric kernel, w_q proportional to ratio**(q-1)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if not 0 < ratio < 1:
            raise ValueError("ratio must lie in (0, 1)")
        w = ratio ** np.arange(k, dtype=float)
        return cls(w / w.sum())


@dataclass(frozen=True)
class LampModel:
    """A transition matrix paired with a lag kernel."""

    matrix: TransitionMatrix
    kernel: KernelDistribution

    @property
    def labels(self) -> tuple[str, ...]:
        return self.matrix.labels


def lamp_transition_distribution(model: LampModel, history) -> np.ndarray:
    """Next-symbol distribution given the observed history.

    Returns ``sum_q w_q * P[x_{max(0, n-q)}]`` where ``n`` is the
    history length; lags that reach past the start of the history clamp
    to the first symbol.
    """
    if len(history) == 0:
        raise EmptyHistoryError("cannot condition on an empty history")
    idx = model.matrix.states.encode(history)
    n_hist = idx.shape[0]
    k = model.kernel.k
    sources = idx[np.maximum(n_hist - np.arange(1, k + 1), 0)]
    return model.kernel.weights @ model.matrix.rows[sources]


def simulate_lamp(
    model: LampModel,
    n_steps: int,
    seed,
    init: int | str | None = None,
) -> list[str]:
    """Sample a length-``n_steps`` token path from the process.

    Each step consumes two uniform draws: one selects the backward lag
    through the kernel's inverse CDF, the next selects the successor
    state from the chosen source row, in the walk that
    :func:`markov.simulate_markov` takes from the previous state
    (``markov._walk``). ``init`` seeds the single first symbol (``None``
    draws it from the stationary distribution of the matrix); lags
    pointing before the start clamp to that symbol. Draws land only on
    lags of positive weight and on transitions of positive probability,
    including a draw of 0 and one above a total that rounded below 1.
    Steps are drawn ``_BLOCK`` at a time, in the order of one full-length
    call, so the path does not depend on the block length; the call holds
    the path's states and labels, about 17 bytes a step, plus one block's
    draws and sources.
    """
    rng, first = _start(model.matrix, n_steps, seed, init)
    [(lag_cum, lag_cols)] = _inverse_cdf(model.kernel.weights)

    def blocks():
        for a, b in _spans(n_steps - 1):
            u = rng.random((b - a, 2))
            lag_idx = lag_cols[np.searchsorted(lag_cum, u[:, 0], side="left")]
            # Source position for step t is max(0, t - q_t); always already sampled.
            sources = np.maximum(np.arange(a + 1, b + 1) - (lag_idx + 1), 0)
            yield sources.tolist(), u[:, 1].tolist()

    return _walk(model.matrix, first, blocks())


def lamp_entropy_rate(model: LampModel) -> float:
    """Entropy rate of the process in bits per symbol.

    Equals the entropy rate of the underlying first-order chain; the
    lag kernel does not enter the value. A reducible matrix raises
    :class:`NotIrreducibleError`.
    """
    pi = stationary_distribution(model.matrix, check_irreducible=True)
    return entropy_rate(model.matrix, pi)


def step_log2_probs(model: LampModel, sequence) -> np.ndarray:
    """log2 predictive probability of each symbol after the first.

    Entry ``t-1`` scores ``sequence[t]`` against the history
    ``sequence[:t]``. Raises :class:`ZeroProbabilityError` if any symbol
    has model probability 0. Scored in blocks: about 12 bytes per position.
    """
    return _step_scores(model, model.matrix.states.encode(sequence), weighted=False)


def _step_scores(model: LampModel, idx: np.ndarray, weighted: bool) -> np.ndarray:
    """Per position t >= 1 of the encoded sequence ``idx``: the log2 of
    the mixture probability of ``idx[t]``, or, if ``weighted``, the
    posterior-weighted log2 transition probability.

    The weighted score is ``sum_q gamma_q * log2 P[x_{max(0,t-q)}, x_t]``
    with ``gamma_q`` proportional to ``w_q * P[x_{max(0,t-q)}, x_t]``:
    the expected surprisal of the step's realised transition once the
    latent lag is integrated out under its posterior given the path.

    Positions are scored in blocks of ``_BLOCK`` in reused buffers; only
    the result is full length. Within a block each lag of positive weight
    gathers its transition probabilities from the flattened matrix at the
    cells ``source * n + target`` (and their log2 from a table built once
    per call). Both sums accumulate ``w_q * p`` and ``(w_q * p) * log2 p``
    lag by lag, in lag order, so no score depends on the block length.
    """
    m = idx.shape[0] - 1
    if m < 1:
        raise TooShortError("need at least two symbols to score")
    rows = model.matrix.rows
    n = rows.shape[0]
    flat = rows.ravel()
    if weighted:
        positive = rows > 0.0
        log_rows = np.zeros_like(rows)
        log_rows[positive] = np.log2(rows[positive])
        flat_log = log_rows.ravel()
    lags = [(q, w) for q, w in enumerate(model.kernel.weights.tolist(), start=1) if w != 0.0]
    first = int(idx[0]) * n
    out = np.empty(m)
    size = min(_BLOCK, m)
    cell_buf = np.empty(size, dtype=np.intp)
    float_buf = np.empty((3, size))
    for a in range(0, m, size):
        b = min(a + size, m)
        cell = cell_buf[: b - a]
        p, mixture, log_p = float_buf[:, : b - a]
        score = out[a:b]
        targets = idx[a + 1 : b + 1]
        mixture.fill(0.0)
        if weighted:
            score.fill(0.0)
        for q, w_q in lags:
            # Positions t < q clamp their source to the first symbol; the
            # rest of the block reads idx[t - q].
            clamped = min(max(q - 1 - a, 0), b - a)
            cell[:clamped] = first
            sources = idx[a + clamped + 1 - q : b + 1 - q]
            np.multiply(sources, n, out=cell[clamped:], dtype=np.intp)
            cell += targets
            # mode="clip" writes straight into the buffer; "raise" would
            # gather into a temporary copy first.
            np.take(flat, cell, out=p, mode="clip")
            p *= w_q
            mixture += p
            if weighted:
                np.take(flat_log, cell, out=log_p, mode="clip")
                p *= log_p
                score += p
        zero = mixture <= 0.0
        if zero.any():
            pos = a + int(np.argmax(zero)) + 1
            raise ZeroProbabilityError(f"symbol at position {pos} has model probability 0")
        if weighted:
            score /= mixture
        else:
            np.log2(mixture, out=score)
    return out


def log_loss(model: LampModel, sequence, burn_in: int = 1000) -> float:
    """Average surprisal of the realised transitions, in bits per symbol.

    Each scored position contributes ``-log2 P[source, x_t]`` for the
    transition actually taken; the latent lag that picked the source is
    integrated out under its posterior given the path. For a
    self-generated path this is a Monte-Carlo estimate of the entropy
    rate: the transition source is stationary, so the expected step
    surprisal is exactly ``-sum_ij pi_i P_ij log2 P_ij`` no matter what
    the kernel looks like. Positions ``t > burn_in`` are scored, which
    washes out the clamping of early lags to the first symbol.
    The call holds the int32 codes and one float64 score per position
    (about 12 bytes per position) plus an ``n x n`` log2 table.
    """
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    if len(sequence) <= burn_in + 1:
        raise TooShortError(
            f"sequence of length {len(sequence)} leaves nothing to score "
            f"after burn_in={burn_in}"
        )
    step_log2 = _step_scores(model, model.matrix.states.encode(sequence), weighted=True)
    # max keeps its first argument on a tie: 0.0 first, so a zero loss is +0.0.
    return max(0.0, float(-step_log2[burn_in:].mean()))


def model_to_json_dict(model: LampModel) -> dict:
    """The model's JSON document: labels, matrix rows and kernel weights."""
    doc = _model_document(model)
    doc["rows"] = doc["rows"].tolist()
    return doc


def _model_document(model: LampModel) -> dict:
    # The document with the matrix left as an array, which the writer
    # formats without building a list of floats.
    return {
        "labels": list(model.labels),
        "rows": model.matrix.rows,
        "kernel": model.kernel.weights.tolist(),
    }


def save_model(model: LampModel, path) -> EncodedJSON:
    """Write the model's JSON document to ``path``; return its chunks,
    which a larger document embeds without encoding the model again."""
    encoded = EncodedJSON(tuple(_chunks(_model_document(model), "")))
    write_json(encoded, path)
    return encoded


def load_model(path) -> LampModel:
    with malformed_file(path):
        doc = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        matrix = validate_stochastic(doc["rows"], doc["labels"])
        return LampModel(matrix, KernelDistribution(np.asarray(doc["kernel"], dtype=float)))
