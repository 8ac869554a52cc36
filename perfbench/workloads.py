"""Seeded workload inputs and their independent reference values.

Nothing here imports ``lamp_entropy``. Corpora, paths and models come
from this module's own numpy samplers, and every reference value comes
from its own numpy/scipy code, so a change to the package's samplers,
preprocessing or solvers can change neither what a workload feeds the
package nor what its outputs are checked against.

``generate`` writes everything a run needs into a work directory and a
``manifest.json`` that ``measure.py`` reads; it runs before the measured
process starts, so generator memory stays out of that process's peak RSS.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from pathlib import Path

import numpy as np
from scipy import linalg
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

WORKLOADS = ("lamp-path", "item-stream", "large-vocab")

SPIKE_7 = (0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.9)
WALK_KERNEL = (0.6, 0.25, 0.15)
SWEEP_EXPONENTS = tuple(range(1, 26))      # the CLI's default markov sweep
DEFAULT_P_ARTIFICIAL = 2.0**-15            # the CLI's default --p-artificial
MIN_COUNT = 10                             # the CLI's default --min-count
RARE_TOKEN = "__rare__"                    # the CLI's default --rare-token

# "full" is what the benchmark measures; "tiny" only serves smoke.py.
# Score paths keep the same length at both sizes: the 0.01-bit check
# against the closed form needs them long.
SIZES = {
    "lamp-path": {
        "full": {"steps": 250_000, "fit_k": 7, "fit_iter": 20, "profile_lags": 20},
        "tiny": {"steps": 250_000, "fit_k": 7, "fit_iter": 3, "profile_lags": 5},
    },
    "item-stream": {
        "full": {"users": 400, "events": 500, "core": 560, "tail": 420, "once": 80,
                 "starts": 40, "fit_iter": 10, "sim_steps": 100_000, "profile_lags": 2,
                 "score_steps": 1_000_000},
        "tiny": {"users": 60, "events": 200, "core": 120, "tail": 100, "once": 6,
                 "starts": 6, "fit_iter": 3, "sim_steps": 5_000, "profile_lags": 2,
                 "score_steps": 1_000_000},
    },
    "large-vocab": {
        "full": {"seqs": 100, "events": 1_800, "items": 2_050, "succ": 30,
                 "fit_iter": 10, "sim_steps": 100_000, "profile_lags": 1,
                 "score_steps": 1_000_000},
        "tiny": {"seqs": 20, "events": 1_000, "items": 300, "succ": 30,
                 "fit_iter": 2, "sim_steps": 5_000, "profile_lags": 1,
                 "score_steps": 1_000_000},
    },
}


# ---------------------------------------------------------------- sampling


class SparseChain:
    """A chain stored as per-state successor lists with cumulative weights."""

    def __init__(self, succ: list[np.ndarray], weights: list[np.ndarray]):
        self.succ = [s.tolist() for s in succ]
        self.cum = [np.cumsum(w).tolist() for w in weights]
        self.n = len(succ)
        self._succ = succ
        self._weights = weights

    def dense(self) -> np.ndarray:
        rows = np.zeros((self.n, self.n))
        for i, (s, w) in enumerate(zip(self._succ, self._weights)):
            rows[i, s] = w
        return rows

    def step(self, state: int, u: float) -> int:
        cum = self.cum[state]
        j = bisect_right(cum, u)
        return self.succ[state][j if j < len(cum) else len(cum) - 1]


def draw_lags(rng: np.random.Generator, kernel, count: int) -> list[int]:
    """Backward lags 1..k by inverse CDF; zero-weight lags are never drawn."""
    lags = np.searchsorted(np.cumsum(kernel), rng.random(count), side="right") + 1
    return np.minimum(lags, len(kernel)).tolist()


def sample_lamp(rng, chain: SparseChain, kernel, steps: int, first: int) -> list[int]:
    """Two-stage lag-mixture sampler: lag from the kernel, then one chain step."""
    lags = draw_lags(rng, kernel, steps - 1)
    u = rng.random(steps - 1).tolist()
    x = [first] * steps
    for t in range(1, steps):
        src = t - lags[t - 1]
        x[t] = chain.step(x[src if src > 0 else 0], u[t - 1])
    return x


def dirichlet_rows(rng, sizes) -> list[np.ndarray]:
    return [rng.dirichlet(np.ones(int(m))) for m in sizes]


def successor_lists(rng, n: int, sizes, popularity) -> list[np.ndarray]:
    """Distinct successors per state, drawn by popularity, never the state itself.

    Each list contains ``i + 1 mod n``, so the chain is strongly connected.
    """
    out = []
    for i, m in enumerate(sizes):
        p = popularity.copy()
        p[i] = 0.0
        p[(i + 1) % n] = 0.0
        extra = rng.choice(n, size=int(m) - 1, replace=False, p=p / p.sum())
        out.append(np.concatenate(([(i + 1) % n], extra)).astype(np.int64))
    return out


# -------------------------------------------------------------- references


def stationary(rows: np.ndarray) -> np.ndarray:
    """Stationary law of an irreducible chain by one dense solve.

    Uses ``pi (I - P + J) = 1`` with J the all-ones matrix, which is
    nonsingular exactly when P is irreducible.
    """
    n = rows.shape[0]
    pi = linalg.solve((np.eye(n) - rows + 1.0).T, np.ones(n))
    return pi / pi.sum()


def entropy_rate(rows: np.ndarray) -> float:
    pi = stationary(rows)
    positive = rows > 0.0
    plogp = np.zeros_like(rows)
    plogp[positive] = rows[positive] * np.log2(rows[positive])
    return float(-(pi @ plogp.sum(axis=1)))


def induced(rows: np.ndarray, p: float) -> np.ndarray:
    """The chain plus one artificial state: weight p out of every state, uniform back."""
    n = rows.shape[0]
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = (1.0 - p) * rows
    out[:n, n] = p
    out[n, :n] = 1.0 / n
    return out


def largest_scc(rows: np.ndarray) -> np.ndarray:
    """Restriction to the largest strongly connected component, rows renormalised.

    Ties go to the component holding the lowest state index.
    """
    _, comp = connected_components(csr_matrix(rows > 0.0), directed=True, connection="strong")
    sizes = np.bincount(comp)
    best = max(range(sizes.size), key=lambda c: (sizes[c], -int(np.argmax(comp == c))))
    keep = np.nonzero(comp == best)[0]
    sub = rows[np.ix_(keep, keep)]
    return sub / sub.sum(axis=1, keepdims=True)


def preprocess(sequences: list[list[str]], min_count: int = MIN_COUNT) -> list[list[str]]:
    """Dedupe consecutive repeats, pool tokens seen < min_count times, dedupe again."""

    def dedupe(seqs):
        return [[t for j, t in enumerate(s) if j == 0 or t != s[j - 1]] for s in seqs]

    seqs = dedupe(sequences)
    counts: dict[str, int] = {}
    for s in seqs:
        for t in s:
            counts[t] = counts.get(t, 0) + 1
    seqs = [[RARE_TOKEN if counts[t] < min_count else t for t in s] for s in seqs]
    return dedupe(seqs)


def encode(sequences) -> tuple[list[np.ndarray], int]:
    """Integer codes in first-appearance order, and the vocabulary size."""
    index: dict[str, int] = {}
    out = []
    for s in sequences:
        out.append(np.array([index.setdefault(t, len(index)) for t in s], dtype=np.int64))
    return out, len(index)


def first_order(codes: list[np.ndarray], n: int) -> np.ndarray:
    """Count-ratio transition matrix; states never seen as a source get a uniform row."""
    src = np.concatenate([c[:-1] for c in codes])
    dst = np.concatenate([c[1:] for c in codes])
    counts = np.bincount(src * n + dst, minlength=n * n).reshape(n, n).astype(float)
    sums = counts.sum(axis=1)
    counts[sums == 0.0] = 1.0
    return counts / counts.sum(axis=1, keepdims=True)


def cramers_v(codes: list[np.ndarray], n: int, lag: int) -> float:
    """Cramér's V of the table of (x_t, x_t+lag) pairs pooled over sequences."""
    src = np.concatenate([c[:-lag] for c in codes if c.size > lag])
    dst = np.concatenate([c[lag:] for c in codes if c.size > lag])
    table = np.bincount(src * n + dst, minlength=n * n).reshape(n, n).astype(float)
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    r, c = table.shape
    total = table.sum()
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / total
    chi2 = ((table - expected) ** 2 / expected).sum()
    return float(min(max(np.sqrt(chi2 / (total * min(r - 1, c - 1))), 0.0), 1.0))


def corpus_references(raw: list[list[str]], lags: int, conditioning: str) -> dict:
    """Reference estimate, sweep and profile for a CLI corpus workload."""
    codes, n = encode(preprocess(raw))
    rows = first_order(codes, n)
    if conditioning == "largest-cc":
        estimate = entropy_rate(largest_scc(rows))
    else:
        estimate = entropy_rate(induced(rows, DEFAULT_P_ARTIFICIAL))
    raw_codes, raw_n = encode(raw)
    _, comp = connected_components(csr_matrix(rows > 0.0), directed=True, connection="strong")
    return {
        "estimate_bits": estimate,
        "sweep_bits": [entropy_rate(induced(rows, 2.0**-i)) for i in SWEEP_EXPONENTS],
        "profile_v": [cramers_v(raw_codes, raw_n, lag) for lag in range(1, lags + 1)],
        "states": n,
        "raw_vocab": raw_n,
        "tokens": int(sum(c.size for c in codes)),
        "sccs": int(comp.max() + 1),
    }


# ---------------------------------------------------------------- workloads


def _write_model(path: Path, labels, rows: np.ndarray, kernel) -> None:
    doc = {"labels": list(labels), "rows": rows.tolist(), "kernel": list(kernel)}
    path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def _write_lines(path: Path, sequences) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sequences:
            fh.write(" ".join(seq) + "\n")


def corpus_workload(rng, size: dict, out: Path, raw, chain: SparseChain, labels,
                    conditioning: str) -> dict:
    """Write a CLI workload's corpus, its walk's model and a million-step
    path of that model for scoring; return the references."""
    _write_lines(out / "corpus.lines", raw)
    rows = chain.dense()
    _write_model(out / "model.json", labels, rows, WALK_KERNEL)
    refs = corpus_references(raw, size["profile_lags"], conditioning)
    path = sample_lamp(rng, chain, WALK_KERNEL, size["score_steps"], int(rng.integers(chain.n)))
    _write_lines(out / "score.lines", [[labels[i] for i in path]])
    refs.update({"corpus": "corpus.lines", "model": "model.json", "score_path": "score.lines",
                 "score_bits": entropy_rate(rows), "conditioning": conditioning})
    return refs


def lamp_path(rng, size: dict, out: Path) -> dict:
    """One 3-state chain with rows 0.85*Dirichlet(1) + 0.05 under the spike-7 kernel."""
    rows = 0.85 * rng.dirichlet(np.ones(3), size=3) + 0.05
    chain = SparseChain([np.arange(3)] * 3, list(rows))
    labels = ["a", "b", "c"]
    path = sample_lamp(rng, chain, SPIKE_7, size["steps"], int(rng.integers(3)))
    codes = [np.asarray(path, dtype=np.int64)]
    fitted = first_order(codes, 3)
    _write_lines(out / "path.lines", [[labels[i] for i in path]])
    # The package encodes the path in first-appearance order; the rates
    # below do not depend on the order, so the chain's own order is used.
    return {
        "labels": labels,
        "rows": rows.tolist(),
        "kernel": list(SPIKE_7),
        "path": "path.lines",
        "pi": stationary(rows).tolist(),
        "score_bits": entropy_rate(rows),
        "profile_v": [cramers_v(codes, 3, lag) for lag in range(1, size["profile_lags"] + 1)],
        "estimate_bits": entropy_rate(induced(fitted, DEFAULT_P_ARTIFICIAL)),
        "sweep_bits": [entropy_rate(induced(fitted, 2.0**-i)) for i in SWEEP_EXPONENTS],
    }


def item_stream(rng, size: dict, out: Path) -> dict:
    """Users' item streams: Zipf popularity, sparse successors, a lag-mixture walk,
    15% stutters, a rare tail, one-off items and session-start tokens that never recur.

    The seed moves every token but not the sizes the operations' cost
    depends on: after preprocessing exactly ``core`` walk items, the
    ``starts`` session starts (each opens ``users / starts`` sequences,
    so each is seen ``MIN_COUNT`` times) and the pooled rare token are
    states, and the raw vocabulary is exactly ``core + tail + once +
    starts``. Each tail item is seen 1 to 9 times and each one-off item
    once, so both are pooled.
    """
    n = size["core"]
    popularity = 1.0 / np.arange(1, n + 1) ** 1.1
    popularity = popularity[rng.permutation(n)]
    popularity /= popularity.sum()
    succ = successor_lists(rng, n, rng.integers(3, 12, size=n), popularity)
    chain = SparseChain(succ, dirichlet_rows(rng, [s.size for s in succ]))
    labels = [f"i{j:04d}" for j in range(n)]
    users, events = size["users"], size["events"]
    # Tail and one-off tokens replace walk steps at distinct seeded positions.
    tail = np.repeat(np.arange(size["tail"]), rng.integers(1, MIN_COUNT, size=size["tail"]))
    extra = [f"tail{j:04d}" for j in rng.permutation(tail)] + \
        [f"once{j:03d}" for j in range(size["once"])]
    slots = rng.choice(users * (events - 2), size=len(extra), replace=False)
    placed = dict(zip(slots.tolist(), extra))
    raw = []
    for user in range(users):
        walk = [int(rng.choice(n, p=popularity))]
        seq = [f"start{user % size['starts']:02d}", labels[walk[0]]]
        kinds = rng.random(events - 2)
        lags = draw_lags(rng, WALK_KERNEL, kinds.size)
        u = rng.random(kinds.size).tolist()
        for t, kind in enumerate(kinds.tolist()):
            token = placed.get(user * (events - 2) + t)
            if token is not None and token != seq[-1]:
                seq.append(token)
            elif kind < 0.15 and token is None:
                seq.append(seq[-1])
            else:
                src = walk[max(len(walk) - lags[t], 0)]
                walk.append(chain.step(src, u[t]))
                seq.append(labels[walk[-1]])
                if token is not None:   # the same tail item twice in a row: keep both
                    seq.append(token)
        raw.append(seq)
    _top_up(rng, raw, labels)
    return corpus_workload(rng, size, out, raw, chain, labels, "induced")


def _top_up(rng, raw: list[list[str]], labels) -> None:
    """Insert walk items seen fewer than MIN_COUNT times (after deduplication)
    until each is seen exactly MIN_COUNT times.

    Each copy goes between two different tokens that differ from it, so no
    other token's deduplicated count changes.
    """
    counts = dict.fromkeys(labels, 0)
    for seq in raw:
        for j, t in enumerate(seq):
            if t in counts and (j == 0 or t != seq[j - 1]):
                counts[t] += 1
    for label in labels:
        for _ in range(MIN_COUNT - counts[label]):
            while True:
                seq = raw[int(rng.integers(len(raw)))]
                j = int(rng.integers(1, len(seq)))
                if label != seq[j - 1] != seq[j] != label:
                    seq.insert(j, label)
                    break


def large_vocab(rng, size: dict, out: Path) -> dict:
    """Long sequences over a flat-popularity vocabulary above the direct-solve limit."""
    n = size["items"]
    flat = np.full(n, 1.0 / n)
    succ = successor_lists(rng, n, np.full(n, size["succ"]), flat)
    chain = SparseChain(succ, dirichlet_rows(rng, [s.size for s in succ]))
    labels = [f"v{j:04d}" for j in range(n)]
    raw = []
    for _ in range(size["seqs"]):
        path = sample_lamp(rng, chain, WALK_KERNEL, size["events"], int(rng.integers(n)))
        raw.append([labels[i] for i in path])
    return corpus_workload(rng, size, out, raw, chain, labels, "largest-cc")


GENERATORS = {"lamp-path": lamp_path, "item-stream": item_stream, "large-vocab": large_vocab}


def generate(workload: str, seed: int, size_name: str, out: Path) -> dict:
    """Write the workload's inputs and references under ``out``; return the manifest."""
    size = SIZES[workload][size_name]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    manifest = {"workload": workload, "seed": seed, "size": size_name, **size}
    manifest.update(GENERATORS[workload](rng, size, out))
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return manifest
