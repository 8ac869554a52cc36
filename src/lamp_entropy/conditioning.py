"""Reducibility diagnosis and repair for transition matrices.

Two repair strategies are provided: restricting the chain to its
largest strongly connected component (:class:`LargestCC`), and
appending a low-probability artificial state that links every state to
every other (:class:`Induced`). Each strategy's ``_apply``, ``_law``
and ``_rate`` give the conditioned matrix, the stationary law and the
entropy rate in bits, each with the step's report; no other module
tells the strategies apart.

Under the artificial state this module defines the induced chain, its
law ``[x, p]/(1 + p)`` and its rate formula; ``x(p)`` and ``x(p)·h``
come certified from the solver of :mod:`lamp_entropy.markov`, without
building the (n+1)-state chain, from the edges, ``h`` and condensation a
matrix finds once; each solve gathers its dense blocks. The chain itself
is built by :func:`induce_irreducibility`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DegenerateComponentError, InvalidProbabilityError
from .markov import StateSpace, TransitionMatrix, _Blocks, _components
from .markov import entropy_rate, stationary_distribution

ARTIFICIAL_STATE_LABEL = "__artificial__"
DEFAULT_P_ARTIFICIAL = 2.0**-15


@dataclass(frozen=True)
class SccPartition:
    """Partition of the state indices into strongly connected components."""

    components: tuple[frozenset[int], ...]
    component_of: dict[int, int]
    largest_id: int


def _step_report(method: str, excluded: int, p_artificial, n_before: int, n_after: int) -> dict:
    """The JSON-ready report of a conditioning step."""
    return {
        "method": method,
        "excluded": excluded,
        "p_artificial": p_artificial,
        "n_before": n_before,
        "n_after": n_after,
    }


@dataclass(frozen=True)
class LargestCC:
    """Conditioning strategy: keep only the largest strongly connected component."""

    name: ClassVar[str] = "largest_cc"

    def _apply(self, matrix: TransitionMatrix) -> tuple[TransitionMatrix, dict]:
        restricted, _, excluded = restrict_to_largest_scc(matrix)
        return restricted, _step_report("largest_scc", excluded, None, matrix.n, restricted.n)

    def _law(self, matrix: TransitionMatrix) -> tuple[np.ndarray, dict]:
        restricted, report = apply_conditioning(matrix, self)
        return stationary_distribution(restricted).probs, report

    def _rate(self, matrix: TransitionMatrix) -> tuple[float, dict]:
        restricted, report = apply_conditioning(matrix, self)
        return entropy_rate(restricted, stationary_distribution(restricted)), report


@dataclass(frozen=True)
class Induced:
    """Conditioning strategy: append an artificial state with weight ``p_artificial``."""

    p_artificial: float = DEFAULT_P_ARTIFICIAL
    name: ClassVar[str] = "induced"

    def __post_init__(self) -> None:
        _check_p_artificial(self.p_artificial)

    def _apply(self, matrix: TransitionMatrix) -> tuple[TransitionMatrix, dict]:
        return induce_irreducibility(matrix, self.p_artificial), self._report(matrix)

    def _law(self, matrix: TransitionMatrix) -> tuple[np.ndarray, dict]:
        """The law of the (n+1)-state chain, ``[x(p), p]/(1 + p)``, from the block solve."""
        p = self.p_artificial
        return np.append(_Blocks(matrix).stationary(p), p) / (1.0 + p), self._report(matrix)

    def _rate(self, matrix: TransitionMatrix) -> tuple[float, dict]:
        return induced_entropy_rates(matrix, [self.p_artificial])[0], self._report(matrix)

    def _report(self, matrix: TransitionMatrix) -> dict:
        return _step_report("induced", 0, self.p_artificial, matrix.n, matrix.n + 1)


def strongly_connected_components(
    matrix: TransitionMatrix, edge_threshold: float = 0.0
) -> SccPartition:
    """Exact SCC partition of the digraph with edges where P_ij > threshold.

    Iterative Tarjan, linear in nodes plus edges. ``largest_id`` picks
    the maximum-cardinality component, ties broken by the lowest state
    index it contains. A threshold below 0, or NaN, raises ValueError.
    """
    components, component_of = _components(matrix, edge_threshold)
    frozen = tuple(frozenset(members) for members in components)
    best = max(range(len(frozen)), key=lambda c: (len(frozen[c]), -min(frozen[c])))
    return SccPartition(frozen, dict(enumerate(component_of)), best)


def restrict_to_largest_scc(
    matrix: TransitionMatrix,
) -> tuple[TransitionMatrix, list[str], int]:
    """Restrict the chain to its largest SCC, renormalising each row.

    Returns the submatrix, the kept labels, and how many states were
    dropped.
    """
    partition = strongly_connected_components(matrix)
    keep = sorted(partition.components[partition.largest_id])
    sub = matrix.rows[np.ix_(keep, keep)]
    if len(keep) == 1 and sub[0, 0] <= 0.0:
        raise DegenerateComponentError(
            "largest component is a single state with no self-transition"
        )
    sub = sub / sub.sum(axis=1, keepdims=True)
    labels = [matrix.labels[i] for i in keep]
    restricted = TransitionMatrix(StateSpace(tuple(labels)), sub)
    return restricted, labels, matrix.n - len(keep)


def induce_irreducibility(matrix: TransitionMatrix, p_artificial: float) -> TransitionMatrix:
    """Append an artificial state reachable from (and reaching) every state.

    Every original row is scaled by ``1 - p_artificial`` and given
    probability ``p_artificial`` of jumping to the artificial state,
    whose own row is uniform over the original states. The result is
    irreducible and aperiodic by construction, and the original block
    equals ``(1 - p_artificial) * P`` exactly.
    """
    _check_p_artificial(p_artificial)
    n = matrix.n
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = matrix.rows * (1.0 - p_artificial)
    out[:n, n] = p_artificial
    out[n, :n] = 1.0 / n
    label = ARTIFICIAL_STATE_LABEL
    while label in matrix.states:
        label += "_"
    states = StateSpace(tuple(matrix.labels) + (label,))
    return TransitionMatrix(states, out)


def _check_p_artificial(p_artificial: float) -> None:
    if not 0.0 < p_artificial < 1.0:
        raise InvalidProbabilityError(
            f"p_artificial must lie strictly between 0 and 1, got {p_artificial!r}"
        )


def induced_entropy_rates(matrix: TransitionMatrix, p_values) -> list[float]:
    """Entropy rate of ``induce_irreducibility(matrix, p)`` for each ``p``, in bits.

    The (n+1)-state chain is never built. With ``c = 1 - p`` and ``u``
    uniform over the n states, ``x = p·u(I - cP)^-1`` (PageRank with
    damping ``c``) is ``1 + p`` times the induced chain's stationary
    law on the original states, and the rate is
    ``[c·x·h + h_b(p) + p·log2 n] / (1 + p)``, where ``h`` holds the
    row entropies and ``h_b`` is the binary entropy. ``x·h`` comes from
    ``_Blocks.rates`` of :mod:`lamp_entropy.markov`, which certifies it.
    """
    p_values = [float(p) for p in p_values]
    for p in p_values:
        _check_p_artificial(p)
    log2_n = math.log2(matrix.n)
    return [_rate(p, xh, log2_n) for p, xh in zip(p_values, _Blocks(matrix).rates(p_values))]


def _rate(p: float, xh: float, log2_n: float) -> float:
    c = 1.0 - p
    # c·log2(c) through log1p: exact even where 1 - p rounds to 1.
    h_b = -p * math.log2(p) - c * math.log1p(-p) / math.log(2.0)
    return float((c * xh + h_b + p * log2_n) / (1.0 + p))


def apply_conditioning(
    matrix: TransitionMatrix, strategy: LargestCC | Induced
) -> tuple[TransitionMatrix, dict]:
    """Apply a conditioning strategy; returns the new matrix and its report:
    the method, excluded state count, artificial weight (or null), and the
    state counts before and after."""
    _check_strategy(strategy)
    return strategy._apply(matrix)


def _check_strategy(strategy) -> None:
    if not isinstance(strategy, (LargestCC, Induced)):
        raise TypeError(f"unknown conditioning strategy {strategy!r}")
