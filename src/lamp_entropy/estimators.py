"""The seven entropy estimators and the artificial-weight sweep.

Three empirical estimators work on raw symbol frequencies; the plug-in
estimators substitute fitted transition matrices (first-order or
lag-mixture) into the closed-form entropy rate after conditioning the
matrix to be irreducible; the strategy (:class:`LargestCC` or
:class:`Induced`) gives the rate or law and its report. The sweep
conditions one fitted matrix at ``p = 2**-i`` over a range of exponents
in one call, which factors each closed class once for all of them (a
series in ``p``), and looks for the plateau where the estimate
stabilises. How the corpus was cleaned is recorded by the run that
cleaned it, not by the estimators.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from .conditioning import Induced, LargestCC, _check_strategy, induced_entropy_rates
from .corpus import SequenceCorpus
from .errors import (
    EmptyCorpusError,
    EmptySequenceError,
    InvalidProbabilityError,
    NotADistributionError,
    malformed_file,
)
from .fitting import DEFAULT_EM_MAX_ITER, DEFAULT_EM_TOL, fit_first_order, fit_lamp_em
from .lamp import KernelDistribution
from .markov import TransitionMatrix, _check_probabilities, stationary_distribution, write_csv

DEFAULT_SWEEP_EXPONENTS = {"markov": range(1, 26), "lamp": range(1, 51)}
DEFAULT_PLATEAU_REL_TOL = 1e-3
DEFAULT_PLATEAU_WINDOW = 3


class EstimatorMethod(str, Enum):
    SEQUENCE_LEVEL = "sequence_level"
    PATH_LEVEL = "path_level"
    STATIONARY_DISTRIBUTION = "stationary_distribution"
    MARKOV_LARGEST_CC = "markov_largest_cc"
    MARKOV_INDUCED = "markov_induced"
    LAMP_LARGEST_CC = "lamp_largest_cc"
    LAMP_INDUCED = "lamp_induced"


@dataclass(frozen=True)
class EntropyReport:
    """An entropy estimate in bits per symbol; whoever cleaned the corpus sets ``preprocessing``."""

    method: EstimatorMethod
    bits_per_symbol: float
    conditioning: dict | None = None
    preprocessing: dict | None = None
    details: dict | None = None

    def to_json_dict(self) -> dict:
        """Every field, in order, with the method as its value."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**doc, "method": self.method.value}


@dataclass(frozen=True)
class SweepResult:
    """Entropy estimates across ``p = 2**-i`` with plateau metadata."""

    exponents: tuple[int, ...]
    raw: tuple[float, ...]
    normalized: tuple[float, ...]
    recommended_exponent: int | None


def shannon_entropy(dist) -> float:
    """Shannon entropy of a probability vector, in bits (0 log 0 == 0)."""
    arr = np.asarray(dist, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise NotADistributionError("expected a non-empty 1-D probability vector")
    _check_probabilities(arr, "probabilities")
    positive = arr[arr > 0.0]
    value = float(-(positive * np.log2(positive)).sum())
    return value if value > 0.0 else 0.0


def sequence_level_estimate(corpus: SequenceCorpus) -> EntropyReport:
    """Entropy of the token distribution pooled across all sequences."""
    counts = np.bincount(corpus.tokens, minlength=corpus.vocabulary.n)
    total = counts.sum()
    if total == 0:
        raise EmptyCorpusError("corpus contains no tokens")
    return EntropyReport(EstimatorMethod.SEQUENCE_LEVEL, shannon_entropy(counts / total))


def path_level_estimate(corpus: SequenceCorpus) -> EntropyReport:
    """Per-sequence frequency entropy, averaged with equal weight per sequence."""
    if corpus.n_sequences == 0:
        raise EmptyCorpusError("corpus contains no tokens")
    values = []
    bounds = corpus.offsets.tolist()
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        if a == b:
            raise EmptySequenceError(f"sequence {i} is empty")
        counts = np.bincount(corpus.tokens[a:b])
        values.append(shannon_entropy(counts / counts.sum()))
    return EntropyReport(EstimatorMethod.PATH_LEVEL, float(np.mean(values)))


def stationary_distribution_estimate(
    matrix: TransitionMatrix, conditioning: LargestCC | Induced | None = None
) -> EntropyReport:
    """Entropy of the stationary distribution of a chain after conditioning.

    With no conditioning the chain must be irreducible, or this raises
    :class:`NotIrreducibleError`. Under :class:`Induced` the law is that
    of the (n+1)-state chain, taken from the block solve without
    building that chain.
    """
    if conditioning is None:
        probs, report = stationary_distribution(matrix, check_irreducible=True).probs, None
    else:
        _check_strategy(conditioning)
        probs, report = conditioning._law(matrix)
    return EntropyReport(
        EstimatorMethod.STATIONARY_DISTRIBUTION, shannon_entropy(probs), conditioning=report
    )


def markov_plugin_estimate(
    corpus: SequenceCorpus, conditioning: LargestCC | Induced
) -> EntropyReport:
    """Entropy rate of the first-order fit after conditioning."""
    _check_strategy(conditioning)
    fitted = fit_first_order(corpus, smoothing=0.0)
    bits, report = conditioning._rate(fitted)
    return EntropyReport(EstimatorMethod(f"markov_{conditioning.name}"), bits, conditioning=report)


def lamp_plugin_estimate(
    corpus: SequenceCorpus,
    k: int,
    conditioning: LargestCC | Induced,
    *,
    init: tuple[KernelDistribution, TransitionMatrix] | None = None,
    max_iter: int = DEFAULT_EM_MAX_ITER,
    tol: float = DEFAULT_EM_TOL,
) -> EntropyReport:
    """Entropy rate of the fitted lag-mixture's matrix after conditioning.

    The fitted kernel is reported in the details but does not enter the
    value: the entropy rate depends on the transition matrix alone.
    """
    _check_strategy(conditioning)
    fit = fit_lamp_em(corpus, k, init=init, max_iter=max_iter, tol=tol)
    bits, report = conditioning._rate(fit.model.matrix)
    return EntropyReport(
        EstimatorMethod(f"lamp_{conditioning.name}"),
        bits,
        conditioning=report,
        details={
            "kernel": fit.model.kernel.weights.tolist(),
            "em_iterations": fit.iterations,
            "em_converged": fit.converged,
        },
    )


def sweep_p_artificial(
    corpus: SequenceCorpus,
    kind: str = "markov",
    k: int | None = None,
    exponents=None,
    *,
    max_iter: int = DEFAULT_EM_MAX_ITER,
    tol: float = DEFAULT_EM_TOL,
) -> SweepResult:
    """Entropy estimates across artificial weights ``p = 2**-i``.

    ``kind`` is a key of :data:`DEFAULT_SWEEP_EXPONENTS`, which gives
    the default exponents. The model is fitted once, after every ``p`` is
    checked to lie in (0, 1); only the conditioning varies with ``i``. The
    normalised curve is a min-max rescaling (all zeros when the raw curve
    is constant), and the recommended exponent is the default plateau
    choice.
    """
    if kind not in DEFAULT_SWEEP_EXPONENTS:
        raise ValueError(f"unknown model kind {kind!r}")
    if kind == "lamp" and k is None:
        raise ValueError("lamp sweeps need the kernel order k")
    if exponents is None:
        exponents = DEFAULT_SWEEP_EXPONENTS[kind]
    exponents = tuple(exponents)
    for i in exponents:
        if not isinstance(i, (int, np.integer)):
            raise ValueError(f"exponents must be integers, got {i!r}")
    exponents = tuple(map(int, exponents))
    if not exponents:
        raise ValueError("exponent range is empty")
    p_values = [_p_of_exponent(i) for i in exponents]
    if kind == "lamp":
        fitted = fit_lamp_em(corpus, k, max_iter=max_iter, tol=tol).model.matrix
    else:
        fitted = fit_first_order(corpus, smoothing=0.0)
    raw = tuple(induced_entropy_rates(fitted, p_values))
    result = SweepResult(exponents, raw, tuple(minmax_normalize(raw)), None)
    return replace(result, recommended_exponent=detect_plateau(result))


def _p_of_exponent(i: int) -> float:
    """The sweep's ``p = 2**-i``, checked to lie in (0, 1)."""
    try:
        p = 2.0**-i
    except OverflowError:
        # An i too large for a float, or one so negative that 2**-i overflows.
        p = None
    if p is None or not 0.0 < p < 1.0:
        raise InvalidProbabilityError(
            f"exponent {i} gives no p_artificial = 2**-i strictly between 0 and 1"
        )
    return p


def minmax_normalize(values) -> list[float]:
    """Rescale to [0, 1] with min 0 and max 1; a constant curve maps to zeros."""
    arr = np.asarray(values, dtype=float)
    lo = arr.min()
    hi = arr.max()
    if hi == lo:
        return [0.0] * arr.size
    return ((arr - lo) / (hi - lo)).tolist()


def detect_plateau(
    sweep: SweepResult,
    rel_tol: float = DEFAULT_PLATEAU_REL_TOL,
    window: int = DEFAULT_PLATEAU_WINDOW,
) -> int | None:
    """Largest exponent whose trailing window of raw values is stable.

    A window ending at exponent ``i`` qualifies when its raw values
    differ pairwise by less than ``rel_tol * |raw value at i|``. Returns
    ``None`` when no window qualifies.
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    best = None
    values = sweep.raw
    for j in range(window - 1, len(values)):
        chunk = values[j - window + 1 : j + 1]
        if max(chunk) - min(chunk) < rel_tol * abs(values[j]):
            best = sweep.exponents[j]
    return best


def write_sweep_csv(sweep: SweepResult, path) -> None:
    """Curve data as CSV with columns i, p, raw_bits, normalized."""
    p = [2.0**-i for i in sweep.exponents]
    rows = zip(sweep.exponents, p, sweep.raw, sweep.normalized)
    write_csv(path, ["i", "p", "raw_bits", "normalized"], rows)


def read_sweep_csv(path) -> SweepResult:
    with open(path, "r", encoding="utf-8-sig", newline="") as fh, malformed_file(path):
        rows = list(csv.DictReader(fh))
        if not rows:
            raise ValueError("no sweep points")
        exponents = tuple(int(r["i"]) for r in rows)
        raw = tuple(float(r["raw_bits"]) for r in rows)
        normalized = tuple(float(r["normalized"]) for r in rows)
        return SweepResult(exponents, raw, normalized, None)
