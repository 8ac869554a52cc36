"""First-order Markov chains over a finite, labelled state space.

Transition matrices are validated, immutable, row-stochastic arrays.
The stationary distribution is obtained by a direct linear solve for
small chains and by damped power iteration otherwise; the entropy rate
is reported in bits per symbol throughout. Every JSON artifact of the
package is written by :func:`encode_json`.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatchError,
    DuplicateLabelError,
    InvalidInitStateError,
    InvalidProbabilityError,
    NegativeEntryError,
    NoConvergenceError,
    NonSquareError,
    NotIrreducibleError,
    RowSumError,
    UnknownTokenError,
)

ROW_SUM_TOL = 1e-9
STATIONARY_RESIDUAL_TOL = 1e-8
POWER_ITERATION_TOL = 1e-12
POWER_ITERATION_BUDGET = 10**6
DIRECT_SOLVE_MAX_STATES = 2000

# Next-state sampling precomputes a full quantile table when the state
# space is small; above this bound it falls back to per-step bisection.
_TABLE_SAMPLING_MAX_STATES = 64


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
            raise DimensionMismatchError(
                f"{self.states.n} labels for a {rows.shape[0]}-row matrix"
            )
        _check_probabilities(rows, "transition probabilities")
        rows = rows.copy()
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.states.n

    @property
    def labels(self) -> tuple[str, ...]:
        return self.states.labels


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
        probs = probs.copy()
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)


def validate_stochastic(raw, labels) -> TransitionMatrix:
    """Validate raw transition data and return a normalised matrix.

    Rows are rescaled to sum to exactly 1, but only when each raw row
    sum already deviates from 1 by less than ``ROW_SUM_TOL``; larger
    deviations are rejected rather than silently repaired.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {arr.shape}")
    labels = list(labels)
    if arr.shape[0] != len(labels):
        raise DimensionMismatchError(
            f"{len(labels)} labels for a {arr.shape[0]}-row matrix"
        )
    sums = _check_probabilities(arr, "transition probabilities")
    return TransitionMatrix(StateSpace(tuple(labels)), arr / sums[:, None])


def _check_probabilities(values: np.ndarray, what: str) -> np.ndarray:
    """Check a probability vector, or each row of a matrix; return the sums.

    Entries must be non-negative and each sum within ``ROW_SUM_TOL`` of
    1. Both checks are positive assertions, so NaN fails them; the scan
    for non-finite entries runs only once one has failed.
    """
    if not (values >= 0).all():
        _reject_non_finite(values, what)
        raise NegativeEntryError(f"{what} must be non-negative")
    sums = values.sum(axis=-1)
    ok = abs(sums - 1.0) < ROW_SUM_TOL
    # A vector's sum is a scalar: test it as one (ndarray.all costs more
    # than the whole check for the small chains of a sweep).
    if values.ndim == 1:
        if not ok:
            _reject_non_finite(values, what)
            raise RowSumError(f"{what} sum to {sums!r}, expected 1")
    elif not ok.all():
        _reject_non_finite(values, what)
        i = int(np.argmin(ok))
        raise RowSumError(f"row {i} sums to {sums[i]!r}, expected 1")
    return sums


def _reject_non_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise InvalidProbabilityError(f"{what} must be finite")


def is_irreducible(matrix: TransitionMatrix, edge_threshold: float = 0.0) -> bool:
    """True when every state reaches every other via positive transitions."""
    adj = matrix.rows > edge_threshold
    return _reaches_all(adj, 0) and _reaches_all(adj.T, 0)


def _reaches_all(adj: np.ndarray, start: int) -> bool:
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    frontier = [start]
    while frontier:
        nxt = adj[frontier].any(axis=0) & ~seen
        frontier = np.nonzero(nxt)[0].tolist()
        seen |= nxt
    return bool(seen.all())


def stationary_distribution(
    matrix: TransitionMatrix,
    method: str = "auto",
    check_irreducible: bool = False,
) -> StationaryDistribution:
    """Solve pi @ P == pi, sum(pi) == 1.

    ``method`` is ``"direct"`` (linear solve), ``"power"`` (damped power
    iteration) or ``"auto"``, which solves directly up to
    ``DIRECT_SOLVE_MAX_STATES`` states. Both paths are deterministic.
    """
    if check_irreducible and not is_irreducible(matrix):
        raise NotIrreducibleError("transition matrix is reducible")
    if method == "auto":
        method = "direct" if matrix.n <= DIRECT_SOLVE_MAX_STATES else "power"
    if method == "direct":
        probs = _stationary_direct(matrix.rows)
        if probs is None or _residual(probs, matrix.rows) >= STATIONARY_RESIDUAL_TOL:
            probs = _stationary_power(matrix.rows)
    elif method == "power":
        probs = _stationary_power(matrix.rows)
    else:
        raise ValueError(f"unknown method {method!r}")
    return StationaryDistribution(matrix.states, probs)


def _residual(probs: np.ndarray, rows: np.ndarray) -> float:
    return float(np.abs(probs @ rows - probs).sum())


def _stationary_direct(rows: np.ndarray) -> np.ndarray | None:
    n = rows.shape[0]
    a = rows.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(pi).all():
        return None
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0:
        return None
    return pi / total


def _stationary_power(rows: np.ndarray) -> np.ndarray:
    # Damp with the half-lazy chain (P + I)/2: same fixed point, and the
    # iteration converges even for periodic chains.
    n = rows.shape[0]
    lazy = 0.5 * (rows + np.eye(n))
    pi = np.full(n, 1.0 / n)
    for _ in range(POWER_ITERATION_BUDGET):
        nxt = pi @ lazy
        if np.abs(nxt - pi).sum() < POWER_ITERATION_TOL:
            nxt = np.clip(nxt, 0.0, None)
            return nxt / nxt.sum()
        pi = nxt
    raise NoConvergenceError(
        f"power iteration did not converge within {POWER_ITERATION_BUDGET} steps"
    )


def entropy_rate(matrix: TransitionMatrix, stationary: StationaryDistribution) -> float:
    """Entropy rate of the stationary chain, in bits per symbol.

    Computes ``-sum_i pi_i sum_j P_ij log2 P_ij`` with the convention
    that ``0 * log 0 == 0``.
    """
    if stationary.states.labels != matrix.states.labels:
        raise DimensionMismatchError("stationary distribution is for a different state space")
    rows = matrix.rows
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(rows > 0.0, rows * np.log2(np.where(rows > 0.0, rows, 1.0)), 0.0)
    value = float(-(stationary.probs @ plogp.sum(axis=1)))
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
    CDF of the relevant row (ties on a cumulative boundary resolve to
    the lower index).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    rng = np.random.default_rng(seed)
    first = _resolve_init(matrix, init, rng)
    labels = matrix.states.labels
    if n_steps == 1:
        return [labels[first]]
    u = rng.random(n_steps - 1)
    states = [0] * n_steps
    states[0] = first
    if matrix.n <= _TABLE_SAMPLING_MAX_STATES:
        table = _next_state_table(matrix.rows, u)
        prev = first
        for t in range(1, n_steps):
            prev = table[prev][t - 1]
            states[t] = prev
    else:
        from bisect import bisect_left

        cum = [row.tolist() for row in np.cumsum(matrix.rows, axis=1)]
        top = matrix.n - 1
        draws = u.tolist()
        prev = first
        for t in range(1, n_steps):
            x = bisect_left(cum[prev], draws[t - 1])
            prev = x if x <= top else top
            states[t] = prev
    return [labels[i] for i in states]


def _resolve_init(matrix: TransitionMatrix, init, rng) -> int:
    if init is None:
        probs = stationary_distribution(matrix).probs
        cum = np.cumsum(probs)
        idx = int(np.searchsorted(cum, rng.random(), side="left"))
        return min(idx, matrix.n - 1)
    if isinstance(init, str):
        if init not in matrix.states:
            raise InvalidInitStateError(f"no state labelled {init!r}")
        return matrix.states.index_of(init)
    idx = int(init)
    if not 0 <= idx < matrix.n:
        raise InvalidInitStateError(f"state index {idx} out of range for n={matrix.n}")
    return idx


def _next_state_table(rows: np.ndarray, u: np.ndarray) -> list[list[int]]:
    """Per-source next states for each uniform draw, via the inverse CDF."""
    cum = np.cumsum(rows, axis=1)
    top = rows.shape[0] - 1
    table = []
    for s in range(rows.shape[0]):
        nxt = np.searchsorted(cum[s], u, side="left")
        np.minimum(nxt, top, out=nxt)
        table.append(nxt.tolist())
    return table


@dataclass(frozen=True)
class EncodedJSON:
    """Text from :func:`encode_json`, embedded as it is in a larger document."""

    text: str


def encode_json(doc) -> str:
    """The text ``json.dumps(doc, indent=2) + "\\n"``, byte for byte.

    An ndarray is written as its ``tolist()`` and an :class:`EncodedJSON`
    as its text, re-indented to where it sits. A finite 2-D float64
    array, such as a transition matrix, is formatted straight from the
    array: each nonzero entry by ``float.__repr__`` (as ``json`` does),
    every zero as one shared ``"0.0"``. Strings, other numbers and
    non-finite values go through ``json.dumps``, so escaping and the
    spelling of ``NaN`` are the standard encoder's. Object keys must be
    strings.
    """
    return _encode(doc, "") + "\n"


def write_json(doc, path) -> str:
    """Write :func:`encode_json` of ``doc`` to ``path``; return the text."""
    text = encode_json(doc)
    Path(path).write_text(text, encoding="utf-8")
    return text


def _encode(value, indent: str) -> str:
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            items.append(f"{inner}{json.dumps(key)}: {_encode(item, inner)}")
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [_encode(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + indent + "]"
    if isinstance(value, np.ndarray):
        if value.ndim == 2 and value.size and value.dtype == np.float64:
            if np.isfinite(value).all():
                return _encode_matrix(value, indent)
        return _encode(value.tolist(), indent)
    if isinstance(value, EncodedJSON):
        # Encoded JSON has raw newlines only in its layout (strings escape
        # them), so this shifts the layout and touches no string.
        return value.text.rstrip("\n").replace("\n", "\n" + indent)
    return json.dumps(value)


def _encode_matrix(rows: np.ndarray, indent: str) -> str:
    # Only for a non-empty matrix: empty ones take the list path.
    inner = indent + "  "
    flat = rows.ravel()
    cells = ["0.0"] * flat.size
    # -0.0 compares equal to 0.0, but json spells it "-0.0".
    hit = np.flatnonzero((flat != 0.0) | np.signbit(flat))
    for i, text in zip(hit.tolist(), map(float.__repr__, flat[hit].tolist())):
        cells[i] = text
    head = "[\n" + inner + "  "
    sep = ",\n" + inner + "  "
    tail = "\n" + inner + "]"
    n_cols = rows.shape[1]
    row_texts = [
        head + sep.join(cells[a : a + n_cols]) + tail for a in range(0, flat.size, n_cols)
    ]
    return "[\n" + inner + (",\n" + inner).join(row_texts) + "\n" + indent + "]"


def save_matrix_json(matrix: TransitionMatrix, path) -> None:
    write_json({"labels": list(matrix.labels), "rows": matrix.rows}, path)


def load_matrix_json(path) -> TransitionMatrix:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return validate_stochastic(doc["rows"], doc["labels"])


def save_matrix_csv(matrix: TransitionMatrix, path) -> None:
    """Dense CSV: a header row of labels, then one probability row per state."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(matrix.labels)
        for row in matrix.rows:
            writer.writerow([repr(x) for x in row.tolist()])


def load_matrix_csv(path) -> TransitionMatrix:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            labels = next(reader)
        except StopIteration:
            raise NonSquareError("empty CSV matrix file") from None
        rows = [[float(x) for x in row] for row in reader if row]
    return validate_stochastic(rows, labels)
