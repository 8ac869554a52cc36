"""Reducibility diagnosis and repair for transition matrices.

Two repair strategies are provided: restricting the chain to its
largest strongly connected component, and appending a low-probability
artificial state that links every state to every other.

The entropy rate under the artificial state is taken without building
the (n+1)-state chain: :func:`induced_entropy_rates` solves the
stationary law per block of the SCC condensation (one solve over the
transient states, one bordered solve per closed class), set up once for
any number of weights, and certifies each value by a closed-form mass
identity or raises :class:`IllConditionedError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateComponentError, IllConditionedError, InvalidProbabilityError
from .markov import STATIONARY_RESIDUAL_TOL, StateSpace, TransitionMatrix

ARTIFICIAL_STATE_LABEL = "__artificial__"
DEFAULT_P_ARTIFICIAL = 2.0**-15


@dataclass(frozen=True)
class SccPartition:
    """Partition of the state indices into strongly connected components."""

    components: tuple[frozenset[int], ...]
    component_of: dict[int, int]
    largest_id: int


@dataclass(frozen=True)
class LargestCC:
    """Conditioning strategy: keep only the largest strongly connected component."""


@dataclass(frozen=True)
class Induced:
    """Conditioning strategy: append an artificial state with weight ``p_artificial``."""

    p_artificial: float = DEFAULT_P_ARTIFICIAL


def strongly_connected_components(
    matrix: TransitionMatrix, edge_threshold: float = 0.0
) -> SccPartition:
    """Exact SCC partition of the digraph with edges where P_ij > threshold.

    Iterative Tarjan, linear in nodes plus edges. ``largest_id`` picks
    the maximum-cardinality component, ties broken by the lowest state
    index it contains.
    """
    if edge_threshold < 0:
        raise ValueError("edge_threshold must be >= 0")
    sources, targets = np.nonzero(matrix.rows > edge_threshold)
    components, component_of = _tarjan(matrix.n, sources, targets)
    frozen = tuple(frozenset(members) for members in components)
    best = max(range(len(frozen)), key=lambda c: (len(frozen[c]), -min(frozen[c])))
    return SccPartition(frozen, dict(enumerate(component_of)), best)


def _tarjan(n: int, sources: np.ndarray, targets: np.ndarray) -> tuple[list[list[int]], list[int]]:
    """Iterative Tarjan over the edges ``sources[e] -> targets[e]``.

    The edges must be sorted by source, as ``np.nonzero`` returns them.
    Returns the components in the order Tarjan completes them (every
    edge leaving a component points into an earlier one) and the
    component id of each state.
    """
    starts = np.searchsorted(sources, np.arange(n + 1)).tolist()
    targets = targets.tolist()
    order = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    component_of = [0] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if order[root] != -1:
            continue
        work = [(root, starts[root])]
        while work:
            v, next_edge = work[-1]
            if order[v] == -1:
                order[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            for e in range(next_edge, starts[v + 1]):
                w = targets[e]
                if order[w] == -1:
                    work[-1] = (v, e + 1)
                    work.append((w, starts[w]))
                    descended = True
                    break
                if on_stack[w] and low[w] < low[v]:
                    low[v] = low[w]
            if descended:
                continue
            if low[v] == order[v]:
                cid = len(components)
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component_of[w] = cid
                    members.append(w)
                    if w == v:
                        break
                components.append(members)
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
    return components, component_of


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
    row entropies and ``h_b`` is the binary entropy.

    ``x`` is solved per block of the SCC condensation, set up once for
    all ``p``. Transient states ``T`` (their component has an edge
    leaving it) take one solve ``z_T = u_T(I - cP_TT)^-1 = x_T/p``. A
    closed class ``C`` then holds mass ``m_C = |C|/n + c·z_T·P_TC·1`` in
    closed form, and ``x_C`` comes from ``x_C(I - cP_CC) =
    p(u_C + c·z_T·P_TC)`` with its last equation replaced by
    ``sum(x_C) = m_C``, which stays well conditioned however small
    ``p`` is. The identity ``p·sum(z_T) + sum_C m_C = 1`` certifies the
    transient solve, whose error grows as ``eps/(p + leak)`` for a
    transient block that leaks out of itself slowly: when the identity
    is off by more than ``STATIONARY_RESIDUAL_TOL`` this raises
    :class:`IllConditionedError` instead of returning a number.
    """
    p_values = [float(p) for p in p_values]
    for p in p_values:
        _check_p_artificial(p)
    rows = matrix.rows
    n = matrix.n
    sources, targets = np.nonzero(rows > 0.0)
    probs = rows[sources, targets]
    h = np.bincount(sources, weights=-probs * np.log2(probs), minlength=n)
    components, component_of = _tarjan(n, sources, targets)
    label = np.array(component_of)
    leaves = label[sources] != label[targets]
    is_open = np.zeros(len(components), dtype=bool)
    is_open[label[sources[leaves]]] = True
    transient = np.flatnonzero(is_open[label])
    closed = [np.sort(members) for cid, members in enumerate(components) if not is_open[cid]]

    # Transposed blocks: x·A = b is solved as A^T·x = b.
    t = transient.size
    if t:
        p_tt = rows[np.ix_(transient, transient)].T
        p_tc = rows[np.ix_(transient, np.concatenate(closed))]
        h_t = h[transient]
    blocks = []
    start = 0
    for members in closed:
        stop = start + members.size
        p_cc = rows.T if members.size == n else rows[np.ix_(members, members)].T
        blocks.append((slice(start, stop), p_cc, h[members]))
        start = stop

    u = 1.0 / n
    log2_n = math.log2(n)
    rates = []
    for p in p_values:
        c = 1.0 - p
        if t:
            z_t = _solve(_identity_minus(c, p_tt), np.full(t, u))
            inflow = c * (z_t @ p_tc)
            mass = p * z_t.sum()
            xh = p * (z_t @ h_t)
        else:
            inflow = np.zeros(n)
            mass = xh = 0.0
        for part, p_cc, h_c in blocks:
            size = p_cc.shape[0]
            m_c = size * u + inflow[part].sum()
            a = _identity_minus(c, p_cc)
            a[-1] = 1.0
            b = p * (u + inflow[part])
            b[-1] = m_c
            xh += _solve(a, b) @ h_c
            mass += m_c
        # c·log2(c) through log1p: exact even where 1 - p rounds to 1.
        h_b = -p * math.log2(p) - c * math.log1p(-p) / math.log(2.0)
        rate = float((c * xh + h_b + p * log2_n) / (1.0 + p))
        # NaN fails both tests, so a non-finite solve raises here too.
        if not (abs(mass - 1.0) <= STATIONARY_RESIDUAL_TOL and math.isfinite(rate)):
            raise IllConditionedError(
                f"induced chain at p={p!r} is too ill-conditioned: stationary mass "
                f"sums to {float(mass)!r} (tolerance {STATIONARY_RESIDUAL_TOL}), rate {rate!r}"
            )
        rates.append(rate)
    return rates


def _identity_minus(c: float, block: np.ndarray) -> np.ndarray:
    """``I - c·block`` in the block's memory layout.

    The transposed blocks are Fortran-ordered; ``np.eye(n) - c * block``
    mixes layouts and took half as long as the LU itself at 561 states.
    """
    a = block * -c
    a.flat[:: a.shape[0] + 1] += 1.0
    return a


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"singular block in the induced-chain solve: {exc}") from None


def conditioning_report(strategy: LargestCC | Induced, n_before: int, n_after: int) -> dict:
    """The JSON-ready report of a conditioning step.

    Method, excluded state count, the artificial weight (or null), and
    the state counts before and after.
    """
    if isinstance(strategy, LargestCC):
        method, excluded, p_artificial = "largest_scc", n_before - n_after, None
    else:
        method, excluded, p_artificial = "induced", 0, strategy.p_artificial
    return {
        "method": method,
        "excluded": excluded,
        "p_artificial": p_artificial,
        "n_before": n_before,
        "n_after": n_after,
    }


def apply_conditioning(
    matrix: TransitionMatrix, strategy: LargestCC | Induced
) -> tuple[TransitionMatrix, dict]:
    """Apply a conditioning strategy; returns the new matrix and its report.

    The report is :func:`conditioning_report`'s.
    """
    if isinstance(strategy, LargestCC):
        conditioned, _, _ = restrict_to_largest_scc(matrix)
    elif isinstance(strategy, Induced):
        conditioned = induce_irreducibility(matrix, strategy.p_artificial)
    else:
        raise TypeError(f"unknown conditioning strategy {strategy!r}")
    return conditioned, conditioning_report(strategy, matrix.n, conditioned.n)
