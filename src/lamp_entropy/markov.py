"""First-order Markov chains over a finite, labelled state space.

Transition matrices are validated, immutable, row-stochastic arrays
that find their edges, row entropies ``h`` and SCC condensation once.
Every law and every rate's ``x(p)·h`` comes from one certified solver
per block of it; each solve gathers its dense blocks (``_Blocks``).
Rates are in bits per symbol. Every JSON artifact of the package is
written by :func:`write_json` as :func:`encode_json` encodes it, and
every CSV artifact by :func:`write_csv`.
"""

from __future__ import annotations

import csv
import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatchError,
    DuplicateLabelError,
    IllConditionedError,
    InvalidInitStateError,
    InvalidProbabilityError,
    NegativeEntryError,
    NonSquareError,
    NotIrreducibleError,
    RowSumError,
    UnknownTokenError,
    malformed_file,
)

ROW_SUM_TOL = 1e-9
STATIONARY_RESIDUAL_TOL = 1e-8

# Most terms of the series in p that one closed class may take.
_SERIES_MAX_TERMS = 100

# Largest error bound, in bits, with which a rate from the series in p
# is returned; a point above it takes the block solve.
_SERIES_TOL = 1e-13

# Largest block that _inverse hands to LAPACK's inv instead of splitting.
_INVERSE_BASE = 128

# Steps per sampling block and positions per scoring block: a float64
# block buffer is 128 KB, so a block's buffers stay in L2 cache however
# long the path.
_BLOCK = 16_384


@dataclass(frozen=True)
class StateSpace:
    """Ordered set of distinct token labels, with index lookup."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise ValueError("a state space needs at least one label")
        index = {}
        for i, lab in enumerate(labels):
            if lab in index:
                raise DuplicateLabelError(f"duplicate state label {lab!r}")
            index[lab] = i
        object.__setattr__(self, "_index", index)

    @property
    def n(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownTokenError(f"unknown token {label!r}") from None

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def encode(self, tokens) -> np.ndarray:
        """Map a token sequence to an int32 index array."""
        try:
            return np.fromiter(
                map(self._index.__getitem__, tokens), dtype=np.int32, count=len(tokens)
            )
        except KeyError as exc:
            raise UnknownTokenError(f"unknown token {exc.args[0]!r}") from None

    def decode(self, indices) -> list[str]:
        labels = self.labels
        return [labels[i] for i in indices]


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic matrix over a state space.

    Direct construction checks the invariants (square, non-negative,
    rows summing to 1 within ``ROW_SUM_TOL``) but does not rescale;
    use :func:`validate_stochastic` to build one from raw data.
    """

    states: StateSpace
    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
            raise NonSquareError(f"expected a square matrix, got shape {rows.shape}")
        if rows.shape[0] != self.states.n:
            raise DimensionMismatchError(f"{self.states.n} labels for a {rows.shape[0]}-row matrix")
        _check_probabilities(rows, "transition probabilities")
        object.__setattr__(self, "rows", _read_only(rows.copy()))

    @property
    def n(self) -> int:
        return self.states.n

    @property
    def labels(self) -> tuple[str, ...]:
        return self.states.labels

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Row starts and columns of the positive cells (:func:`_edges`)."""
        return tuple(map(_read_only, _edges(self.rows)))

    @cached_property
    def h(self) -> np.ndarray:
        """Each row's entropy ``-sum_j P_ij log2 P_ij`` in bits, over :attr:`edges`."""
        starts, targets = self.edges
        sources = np.repeat(np.arange(self.n), np.diff(starts))
        probs = self.rows[sources, targets]
        return _read_only(np.bincount(sources, weights=-probs * np.log2(probs), minlength=self.n))

    @cached_property
    def components(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The SCCs of :attr:`edges` and each state's SCC id, from one
        :func:`_tarjan`, in the order it completes them."""
        components, component_of = _tarjan(*self.edges)
        return tuple(map(tuple, components)), tuple(component_of)

    @cached_property
    def condensation(self) -> tuple[int, np.ndarray, tuple[np.ndarray, ...]]:
        """The number of SCCs, the transient states (those whose component
        has an edge leaving it) and the closed classes, each sorted, from
        :attr:`components`."""
        starts, targets = self.edges
        components, component_of = self.components
        label = np.array(component_of)
        source_label = np.repeat(label, np.diff(starts))
        is_open = np.zeros(len(components), dtype=bool)
        is_open[source_label[source_label != label[targets]]] = True
        transient = _read_only(np.flatnonzero(is_open[label]))
        closed = [np.sort(members) for cid, members in enumerate(components) if not is_open[cid]]
        return len(components), transient, tuple(map(_read_only, closed))


def _read_only(values: np.ndarray) -> np.ndarray:
    """``values``, no longer writeable: an array that a frozen object holds."""
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class StationaryDistribution:
    """Fixed point of the chain: a probability vector with pi @ P == pi."""

    states: StateSpace
    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.shape[0] != self.states.n:
            raise DimensionMismatchError("probability vector does not match state space")
        _check_probabilities(probs, "stationary probabilities")
        object.__setattr__(self, "probs", _read_only(probs.copy()))


def validate_stochastic(raw, labels) -> TransitionMatrix:
    """Validate raw transition data and return a normalised matrix.

    Rows are rescaled to sum to exactly 1, but only when each raw row
    sum already deviates from 1 by less than ``ROW_SUM_TOL``; larger
    deviations are rejected rather than silently repaired. Any other
    row is divided by 1.0, which is exact, so :class:`TransitionMatrix`
    checks it with its raw values. Labels must be a list or tuple of
    strings: a set's order would follow the hash seed, a dict give its keys.
    """
    if not isinstance(labels, (list, tuple)):
        raise TypeError(f"labels must be a list or tuple of strings, not {type(labels).__name__}")
    labels = tuple(labels)
    if not all(isinstance(label, str) for label in labels):
        raise TypeError("labels must be strings")
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {arr.shape}")
    # TransitionMatrix rejects rows such as [inf, -inf] and [1e308,
    # 1e308]; summing them here must not warn first.
    with np.errstate(invalid="ignore", over="ignore"):
        sums = arr.sum(axis=1)
    ok = abs(sums - 1.0) < ROW_SUM_TOL
    return TransitionMatrix(StateSpace(labels), arr / np.where(ok, sums, 1.0)[:, None])


def _check_probabilities(values: np.ndarray, what: str) -> None:
    """Check a probability vector, or each row of a matrix.

    Entries must be non-negative and each sum within ``ROW_SUM_TOL`` of
    1. Both checks are positive assertions, so NaN fails them; the scan
    for non-finite entries runs only once one has failed.
    """
    if not (values >= 0).all():
        _reject_non_finite(values, what)
        raise NegativeEntryError(f"{what} must be non-negative")
    sums = values.sum(axis=-1)
    ok = abs(sums - 1.0) < ROW_SUM_TOL
    # A vector's sum is a scalar: test it as one (ndarray.all costs more than
    # the whole check on a short vector: a sequence's shannon_entropy, a law).
    if values.ndim == 1:
        if not ok:
            _reject_non_finite(values, what)
            raise RowSumError(f"{what} sum to {float(sums)!r}, expected 1")
    elif not ok.all():
        _reject_non_finite(values, what)
        i = int(np.argmin(ok))
        raise RowSumError(f"row {i} sums to {float(sums[i])!r}, expected 1")


def _reject_non_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise InvalidProbabilityError(f"{what} must be finite")


def is_irreducible(matrix: TransitionMatrix, edge_threshold: float = 0.0) -> bool:
    """True when every state reaches every other via transitions above
    ``edge_threshold``, which must be >= 0 (:func:`_edges`)."""
    return len(_components(matrix, edge_threshold)[0]) == 1


def _components(matrix: TransitionMatrix, threshold: float = 0.0):
    """:func:`_tarjan` of the edges above ``threshold``: the matrix's
    :attr:`~TransitionMatrix.components` at 0, a fresh scan at any other."""
    if threshold == 0:
        return matrix.components
    return _tarjan(*_edges(matrix.rows, threshold))


def _edges(rows: np.ndarray, threshold: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Row starts and int32 columns of the cells of a 2-D ``rows`` above
    ``threshold``: row ``i``'s are ``cols[starts[i]:starts[i + 1]]``. The one
    scan for edges and the one threshold rule: ``threshold >= 0``, which NaN
    fails, or :class:`ValueError`. No ``(nnz, 2)`` index buffer is alive
    while :func:`_tarjan` walks them.
    """
    if not threshold >= 0:
        raise ValueError(f"edge_threshold must be >= 0, got {threshold!r}")
    m, n = rows.shape
    flat = np.flatnonzero(rows > threshold)
    starts = np.searchsorted(flat, np.arange(0, m * n + 1, n))
    np.remainder(flat, n, out=flat)
    return starts, flat.astype(np.int32)


def _tarjan(starts: np.ndarray, targets: np.ndarray) -> tuple[list[list[int]], list[int]]:
    """Iterative Tarjan over the edges of :func:`_edges`.

    Returns the components in the order Tarjan completes them (every
    edge leaving a component points into an earlier one) and the
    component id of each state. Targets are read through a memoryview:
    a list of Python ints took about 40 bytes an edge.
    """
    n = starts.size - 1
    starts = starts.tolist()
    targets = targets.data
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
            for e in range(next_edge, starts[v + 1]):
                w = targets[e]
                if order[w] == -1:
                    work[-1] = (v, e + 1)
                    work.append((w, starts[w]))
                    break
                if on_stack[w] and low[w] < low[v]:
                    low[v] = low[w]
            else:  # no unvisited successor left: v is finished
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


class _Blocks:
    """A matrix's dense blocks, gathered for one call that solves, at any
    ``p``, for ``x(p) = p·u(I - cP)^-1`` (``c = 1 - p``, ``u`` uniform):
    the law of the chain that restarts uniformly with probability ``p``.

    The split comes from the matrix's :attr:`~TransitionMatrix.condensation`:
    transient states (``T``) and closed classes. Blocks are stored
    transposed (``x·A = b`` is solved as ``A^T·x = b``). The row
    entropies ``h`` are the matrix's own. The dense blocks are gathered
    per call, not kept with the matrix, so a held matrix pins no copy.
    """

    def __init__(self, matrix: TransitionMatrix):
        rows, self.matrix, self.u = matrix.rows, matrix, 1.0 / matrix.n
        _, self.transient, classes = matrix.condensation
        if self.transient.size:
            self.p_tt = rows[np.ix_(self.transient, self.transient)].T
            self.p_tc = rows[np.ix_(self.transient, np.concatenate(classes))]
        # Per class: its states, its columns of P_TC, and P_CC.
        bounds = [0, *accumulate(members.size for members in classes)]
        self.closed = [
            (cls, slice(a, b), rows.T if cls.size == matrix.n else rows[np.ix_(cls, cls)].T)
            for cls, a, b in zip(classes, bounds, bounds[1:])
        ]

    def inflow(self, p: float) -> tuple[np.ndarray | None, np.ndarray, float]:
        """``z_T = u_T(I - cP_TT)^-1`` (``None`` when skipped), the inflow
        ``c·z_T·P_TC`` into the closed states and the mass ``p·sum(z_T)``.
        The solve is skipped without transient states, and at ``p = 0``
        with one closed class, which then holds all the mass."""
        n, t = self.matrix.n, self.transient.size
        if not t or (p == 0.0 and len(self.closed) == 1):
            return None, np.zeros(n - t), 0.0
        z_t = _solve(_identity_minus(1.0 - p, self.p_tt), np.full(t, self.u))
        return z_t, (1.0 - p) * (z_t @ self.p_tc), p * z_t.sum()

    def masses(self, p, inflow: np.ndarray) -> list:
        """Each closed class's mass ``m_C = |C|/n + c·z_T·P_TC·1`` at ``p``
        (a point, or an array of them) from its :meth:`inflow` (a row per
        point); at ``p = 0`` the one closed class holds all the mass, 1."""
        masses = [m.size * self.u + inflow[..., part].sum(axis=-1) for m, part, _ in self.closed]
        return [np.where(p == 0.0, 1.0, masses[0])] if len(masses) == 1 else masses

    def solve(self, p: float) -> tuple[np.ndarray | None, list[np.ndarray], float]:
        """``z_T`` (``x_T = p·z_T``; ``None`` when skipped), each ``x_C``,
        and the mass ``p·sum(z_T) + sum_C m_C``, which is 1 exactly.

        ``x_C`` solves ``x_C(I - cP_CC) = p(u_C + c·z_T·P_TC)`` with its
        last equation replaced by ``sum(x_C) = m_C`` (:meth:`masses`),
        which stays well conditioned however small ``p`` is. At ``p = 0``
        this gives ``x_T = 0`` and ``x_C = m_C·π_C``.
        """
        c = 1.0 - p
        z_t, inflow, mass = self.inflow(p)
        x_closed = []
        for (_, part, p_cc), m_c in zip(self.closed, self.masses(p, inflow)):
            a = _identity_minus(c, p_cc)
            a[-1] = 1.0
            b = p * (self.u + inflow[part])
            b[-1] = m_c
            x_closed.append(_solve(a, b))
            mass += m_c
        return z_t, x_closed, mass

    def series(self, p_values) -> list[tuple[float, float, np.ndarray]]:
        """Per closed class (``P = P_CC``, ``h = h_C``, ``π = π_C``): ``π·h``,
        a scale ``q`` and the rows ``q^k·g_k`` of ``(I - cP)^-1 h = (c/p)(π·h)·1
        + sum_k (-p)^k g_k``, where ``g_0 = Zh``, ``g_k = Z(P·g_{k-1} -
        (π·g_{k-1})·1)`` and ``Z = (I - P + 1π)^-1``. One inverse ``W = (I -
        P + 1v)^-1``, ``v`` uniform, written over its own scratch block by
        :func:`_inverse`, gives ``π = vW`` and ``Z = W - 1(πW - π)``. ``q``
        is the largest of ``p_values`` at which the terms still shrink;
        they stop once below 1e-17 of the first, or at ``_SERIES_MAX_TERMS``.
        """
        tops = sorted(p_values, reverse=True)
        out = []
        for members, _, p_cc in self.closed:
            size = members.size
            w = p_cc.T * -1.0
            w += 1.0 / size
            w.flat[:: size + 1] += 1.0
            try:
                w = _inverse(w)
            except np.linalg.LinAlgError:  # then no point passes its check
                w.fill(np.nan)
            pi = w.sum(axis=0) / size
            w -= pi @ w - pi
            h = self.matrix.h[members]
            q, top = tops[0], 0
            terms = [w @ h]
            norms = [np.abs(terms[0]).max()]
            while len(terms) < _SERIES_MAX_TERMS and norms[-1] > 1e-17 * norms[0]:
                g = terms[-1]
                terms.append(q * (w @ (p_cc.T @ g - pi @ g)))
                norms.append(np.abs(terms[-1]).max())
                while norms[-1] >= norms[-2] and top + 1 < len(tops):
                    top += 1
                    scale = (tops[top] / q) ** np.arange(len(terms))
                    q = tops[top]
                    terms = [term * f for term, f in zip(terms, scale)]
                    norms = [norm * f for norm, f in zip(norms, scale)]
                if norms[-1] >= norms[-2]:  # diverges at every point
                    break
            out.append((pi @ h, q, np.array(terms)))
        return out

    def rates(self, p_values) -> list[float]:
        """The certified ``x(p)·h`` at each of ``p_values``. One ``p`` takes
        the block solve (:meth:`rate`). Several share one inverse per closed
        class ``C`` (:meth:`series`): ``x_C·h_C = c·m_C(π_C·h_C) + p·sum_k
        (-p)^k b·g_k``, ``b = u_C + c·z_T·P_TC``, within ``m_C·||r||_inf``
        for the residual ``r`` of the summed ``(I - cP_CC)^-1 h_C``; a point
        whose bound exceeds ``_SERIES_TOL`` takes the block solve. The
        transient solve's error grows as ``eps/(p + leak)`` for a block that
        leaks out of itself slowly: a point whose ``p·sum(z_T) + sum_C m_C``
        is off 1 by more than ``STATIONARY_RESIDUAL_TOL``, or whose value is
        not finite, raises :class:`IllConditionedError`."""
        if len(p_values) < 2:
            return [self.rate(p) for p in p_values]
        p = np.array(p_values)
        c = 1.0 - p
        h_t = self.matrix.h[self.transient]
        z_t, inflow, mass = zip(*map(self.inflow, p_values))
        xh = np.array([0.0 if z is None else p_j * (z @ h_t) for p_j, z in zip(p_values, z_t)])
        inflow, mass, bound = np.array(inflow), np.array(mass), np.zeros(p.size)
        for (members, part, p_cc), (pi_h, q, terms), m_c in zip(
            self.closed, self.series(p_values), self.masses(p, inflow)
        ):
            # s = sum_k (-p)^k g_k; a point beyond q diverges and is not summed.
            s = np.power.outer(-np.minimum(p, q) / q, np.arange(len(terms))) @ terms
            r = s - c[:, None] * (s @ p_cc) + (c[:, None] * pi_h - self.matrix.h[members])
            bound += np.where(p > q, np.inf, m_c * np.abs(r).max(axis=1))
            xh += c * m_c * pi_h + p * ((self.u + inflow[:, part]) * s).sum(axis=1)
            mass += m_c
        return [
            _certified(p_j, mass[j], "x·h", xh[j]) if bound[j] <= _SERIES_TOL else self.rate(p_j)
            for j, p_j in enumerate(p_values)
        ]

    def rate(self, p: float) -> float:
        """The certified ``x(p)·h`` at one ``p`` from the block solve: the reference."""
        z_t, x_closed, mass = self.solve(p)
        xh = 0.0 if z_t is None else p * (z_t @ self.matrix.h[self.transient])
        for (members, _, _), x_c in zip(self.closed, x_closed):
            xh += x_c @ self.matrix.h[members]
        return _certified(p, mass, "x·h", xh)

    def stationary(self, p: float) -> np.ndarray:
        """``x(p)`` over all n states, clipped at 0 and renormalised.

        Certified by the mass identity and the residual ``||x - c·xP -
        p·u||_1``, each within ``STATIONARY_RESIDUAL_TOL``; otherwise
        this raises :class:`IllConditionedError`.
        """
        z_t, x_closed, mass = self.solve(p)
        rows = self.matrix.rows
        x = np.zeros(rows.shape[0])
        if z_t is not None:
            x[self.transient] = p * z_t
        for (members, _, _), x_c in zip(self.closed, x_closed):
            x[members] = x_c
        residual = float(np.abs(x - (1.0 - p) * (x @ rows) - p / rows.shape[0]).sum())
        _certified(p, mass, "residual", residual, STATIONARY_RESIDUAL_TOL)
        np.maximum(x, 0.0, out=x)
        return x / x.sum()


def _certified(p: float, mass: float, name: str, value: float, limit: float = np.inf) -> float:
    """``value``, once ``|value| < limit`` and the mass identity holds within
    ``STATIONARY_RESIDUAL_TOL``; NaN fails both tests, so a non-finite solve raises."""
    if not (abs(mass - 1.0) <= STATIONARY_RESIDUAL_TOL and abs(value) < limit):
        raise IllConditionedError(
            f"stationary solve at p={p!r} failed its certificate: mass {float(mass)!r}, "
            f"{name} {float(value)!r} (tolerance {STATIONARY_RESIDUAL_TOL})"
        )
    return value


def _identity_minus(c: float, block: np.ndarray) -> np.ndarray:
    """``I - c·block`` in the block's memory layout.

    The transposed blocks are Fortran-ordered; ``np.eye(n) - c * block``
    mixes layouts and took half as long as the LU itself at 561 states.
    """
    a = block * -c
    a.flat[:: a.shape[0] + 1] += 1.0
    return a


def _inverse(a: np.ndarray) -> np.ndarray:
    """``a^-1``, written over ``a`` by 2×2 block recursion (Strassen 1969).

    With ``X = A11^-1``, ``Y = X·A12`` and ``Z = S^-1`` for the Schur
    complement ``S = A22 - A21·Y``, the inverse is ``[[X - Y·B21, -Y·Z],
    [B21, Z]]``, ``B21 = -Z·A21·X``: almost all flops are matrix
    products, and each step holds one quarter-size temporary. A block of
    at most ``_INVERSE_BASE`` states is LAPACK's ``inv``, returned as a
    new array. No pivoting across halves: every leading block must be
    nonsingular, as those of ``I - P + 1v`` on an irreducible ``P`` are.
    """
    n = a.shape[0]
    if n <= _INVERSE_BASE:
        return np.linalg.inv(a)
    h = n // 2
    a11, a12, a21, a22 = a[:h, :h], a[:h, h:], a[h:, :h], a[h:, h:]
    a11[...] = _inverse(a11)
    a12[...] = a11 @ a12
    a22 -= a21 @ a12
    a22[...] = _inverse(a22)
    a21[...] = a21 @ a11
    np.negative(a22 @ a21, out=a21)
    a11 -= a12 @ a21
    np.negative(a12 @ a22, out=a12)
    return a


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"singular block in the stationary solve: {exc}") from None


def stationary_distribution(
    matrix: TransitionMatrix, check_irreducible: bool = False
) -> StationaryDistribution:
    """The law ``x(0)``: ``x(0) @ P == x(0)``, ``sum(x(0)) == 1``.

    On an irreducible chain this is its stationary distribution; on a
    reducible one, the limit from a uniform start (time-averaged if the
    chain is periodic), ``lim (1/T)·sum_{t<T} u·P^t``: zero on transient
    states and ``a_C·π_C`` on each closed class ``C``, with ``a_C`` the
    probability of ending in ``C``. Solved per SCC block; if the mass
    identity ``sum_C a_C = 1`` or the residual ``||xP - x||_1`` is off by
    ``STATIONARY_RESIDUAL_TOL`` or more, this raises
    :class:`IllConditionedError`. With ``check_irreducible``, a reducible
    chain raises :class:`NotIrreducibleError`.
    """
    if check_irreducible and matrix.condensation[0] > 1:
        raise NotIrreducibleError("transition matrix is reducible")
    return StationaryDistribution(matrix.states, _Blocks(matrix).stationary(0.0))


def entropy_rate(matrix: TransitionMatrix, stationary: StationaryDistribution) -> float:
    """Entropy rate of the stationary chain, in bits per symbol.

    Computes ``-sum_i pi_i sum_j P_ij log2 P_ij`` over the nonzero
    entries, so that ``0 * log 0 == 0``.
    """
    if stationary.states.labels != matrix.states.labels:
        raise DimensionMismatchError("stationary distribution is for a different state space")
    value = float(stationary.probs @ matrix.h)
    return value if value > 0.0 else 0.0


def simulate_markov(
    matrix: TransitionMatrix,
    n_steps: int,
    seed,
    init: int | str | None = None,
) -> list[str]:
    """Sample a length-``n_steps`` token path from the chain.

    ``init`` is a state index or label; ``None`` draws the first symbol
    from the stationary distribution. Output is fully determined by the
    seed: one uniform draw per transition, mapped through the inverse
    CDF of the current state's row by :func:`_walk` (ties on a
    cumulative boundary resolve to the lower index). Draws land only on
    cells of positive probability, including a draw of 0 and one above a
    row total that rounded below 1. The draws are made ``_BLOCK`` at a
    time, in the order of one full-length call, so the path does not
    depend on the block length; the call holds the path's states and
    labels, about 17 bytes a step, plus one block's draws.
    """
    rng, first = _start(matrix, n_steps, seed, init)
    blocks = ((range(a, b), rng.random(b - a).tolist()) for a, b in _spans(n_steps - 1))
    return _walk(matrix, first, blocks)


def _spans(m: int):
    """The blocks ``[a, b)`` of ``range(m)``, ``_BLOCK`` steps each."""
    return ((a, min(a + _BLOCK, m)) for a in range(0, m, _BLOCK))


def _walk(matrix: TransitionMatrix, first: int, blocks) -> list[str]:
    """Labels of the path from state ``first`` that takes one step per
    draw. ``blocks`` yields the steps in order, as ``(sources, draws)``
    pairs of equal length: a step leaves the state at its source
    position, in its block or an earlier one, for the first positive
    cell of that state's row whose cumulative sum is >= its draw, found
    by bisection. The one sampler behind :func:`simulate_markov` and
    :func:`lamp.simulate_lamp`; only the states and the labels are full
    length. Rows with no zero cell share one list of column numbers:
    indexing a ``range`` would build an int every step.
    """
    every = list(range(matrix.n))
    cells = [
        (cum, every if cols.size == matrix.n else cols.tolist())
        for cum, cols in _inverse_cdf(matrix.rows, matrix.edges)
    ]
    states = [first]
    append = states.append
    for sources, draws in blocks:
        for s, d in zip(sources, draws):
            cum, cols = cells[states[s]]
            append(cols[bisect_left(cum, d)])
    return matrix.states.decode(states)


def _start(matrix: TransitionMatrix, n_steps: int, seed, init) -> tuple[np.random.Generator, int]:
    """The generator and first state of both samplers' paths: state
    ``init`` (a label or an index), or else one stationary draw."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    rng = np.random.default_rng(seed)
    if init is None:
        [(cum, cols)] = _inverse_cdf(stationary_distribution(matrix).probs)
        return rng, int(cols[bisect_left(cum, rng.random())])
    if isinstance(init, str):
        if init not in matrix.states:
            raise InvalidInitStateError(f"no state labelled {init!r}")
        return rng, matrix.states.index_of(init)
    if not isinstance(init, (int, np.integer)):
        raise InvalidInitStateError(f"init must be a label or a state index, got {init!r}")
    idx = int(init)
    if not 0 <= idx < matrix.n:
        raise InvalidInitStateError(f"state index {idx} out of range for n={matrix.n}")
    return rng, idx


def _inverse_cdf(probs: np.ndarray, edges=None) -> list[tuple[list[float], np.ndarray]]:
    """Per row of ``probs`` (a stochastic matrix, or one probability
    vector): the list of cumulative sums at its positive cells, ``edges``
    or else those :func:`_edges` finds, and those cells' columns.

    The sums are the dense row's cumulative sums, and a uniform draw
    ``u`` maps to the first positive cell whose sum is >= ``u``. That is
    the cell a search over the dense row finds, except where the dense
    search lands on a zero cell: a draw of 0 before the first positive
    cell, or a draw above a total that rounded below 1 past the last
    one. The last sum of each row is set to +inf, so the latter lands
    on the row's last positive cell. Each row is summed over its positive
    cells alone, in column order: adding a zero cell to a sum is exact,
    so the sums are the dense ones, in memory linear in the edges.
    """
    rows = np.atleast_2d(probs)
    starts, cols = _edges(rows) if edges is None else edges
    values = rows[np.repeat(np.arange(rows.shape[0]), np.diff(starts)), cols]
    bounds = starts.tolist()
    cells = []
    for a, b in zip(bounds, bounds[1:]):
        cum = np.cumsum(values[a:b])
        cum[-1] = np.inf
        cells.append((cum.tolist(), cols[a:b]))
    return cells


@dataclass(frozen=True)
class EncodedJSON:
    """An encoded document, embedded as it is in a larger one.

    ``chunks`` are the pieces of its :func:`encode_json` text, without
    the final newline, as :func:`lamp_entropy.lamp.save_model` returns
    them.
    """

    chunks: tuple[str, ...]


def encode_json(doc) -> str:
    """The text ``json.dumps(doc, indent=2) + "\\n"``, byte for byte.

    An ndarray is written as its ``tolist()`` and an :class:`EncodedJSON`
    as its chunks, re-indented to where it sits. A finite 2-D float64
    array, such as a transition matrix, is formatted straight from the
    array, one row at a time: each nonzero entry by ``float.__repr__``
    (as ``json`` does), every zero as one shared ``"0.0"``. Strings,
    other numbers and non-finite values go through ``json.dumps``, so
    escaping and the spelling of ``NaN`` are the standard encoder's.
    Object keys must be strings.
    """
    return "".join(_chunks(doc, "")) + "\n"


def write_json(doc, path) -> None:
    """Write :func:`encode_json` of ``doc`` to ``path`` as it is encoded.

    The text is written a chunk at a time (a matrix row, a key, a
    scalar) and none is kept; a document that fails to encode leaves
    the file cut short.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_chunks(doc, ""))
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` to ``path`` as CSV, each float by ``str``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _chunks(value, indent: str):
    """The text of ``value`` at ``indent``, in pieces that join to it."""
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        opener = "{\n"
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            yield f"{opener}{inner}{json.dumps(key)}: "
            yield from _chunks(item, inner)
            opener = ",\n"
        yield "\n" + indent + "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
            return
        opener = "[\n"
        for item in value:
            yield opener + inner
            yield from _chunks(item, inner)
            opener = ",\n"
        yield "\n" + indent + "]"
    elif isinstance(value, np.ndarray):
        if value.ndim == 2 and value.size and value.dtype == np.float64:
            if np.isfinite(value).all():
                yield from _matrix_chunks(value, indent)
                return
        yield from _chunks(value.tolist(), indent)
    elif isinstance(value, EncodedJSON):
        if not indent:
            yield from value.chunks
            return
        # Encoded JSON has raw newlines only in its layout (strings escape
        # them), so this shifts the layout and touches no string.
        for chunk in value.chunks:
            yield chunk.replace("\n", "\n" + indent)
    else:
        yield json.dumps(value)


def _matrix_chunks(rows: np.ndarray, indent: str):
    # One chunk per row. Only for a non-empty matrix: empty ones take the
    # list path.
    inner = indent + "  "
    head = inner + "[\n" + inner + "  "
    sep = ",\n" + inner + "  "
    tail = "\n" + inner + "]"
    # +0.0 is the one finite float whose bits are all zero: -0.0 compares
    # equal to 0.0, but json spells it "-0.0".
    row_of, col_of = np.nonzero(rows.view(np.int64) != 0)
    values = rows[row_of, col_of]
    ends = np.searchsorted(row_of, np.arange(1, rows.shape[0] + 1)).tolist()
    cells = ["0.0"] * rows.shape[1]
    opener = "[\n"
    start = 0
    for end in ends:
        cols = col_of[start:end].tolist()
        for j, text in zip(cols, map(float.__repr__, values[start:end].tolist())):
            cells[j] = text
        yield opener + head + sep.join(cells) + tail
        for j in cols:
            cells[j] = "0.0"
        opener = ",\n"
        start = end
    yield "\n" + indent + "]"


def save_matrix_json(matrix: TransitionMatrix, path) -> None:
    write_json({"labels": list(matrix.labels), "rows": matrix.rows}, path)


def load_matrix_json(path) -> TransitionMatrix:
    with malformed_file(path):
        doc = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        return validate_stochastic(doc["rows"], doc["labels"])


def save_matrix_csv(matrix: TransitionMatrix, path) -> None:
    """Dense CSV: a header row of labels, then one probability row per state."""
    write_csv(path, matrix.labels, (row.tolist() for row in matrix.rows))


def load_matrix_csv(path) -> TransitionMatrix:
    with open(path, "r", encoding="utf-8-sig", newline="") as fh, malformed_file(path):
        reader = csv.reader(fh)
        try:
            labels = next(reader)
        except StopIteration:
            raise NonSquareError("empty CSV matrix file") from None
        rows = [[float(x) for x in row] for row in reader if row]
        return validate_stochastic(rows, labels)
