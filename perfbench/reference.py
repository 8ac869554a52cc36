"""A fixed reference computation that measures how fast the machine runs now.

On a shared virtual machine the same code runs 20-40 % slower in one
stretch of seconds than in the next, and a whole run or half an hour
can be slow. ``seconds()`` times one fixed piece of work of the kinds
lamp-entropy does (interpreter-bound dict, string and float-formatting
work; numpy elementwise, reduction and sorting work over cache-sized
arrays; a scatter into a fresh 10 MB table) so that each timed operation can be set against the
machine's speed at the moment it ran (see measure.py and run.py).

Nothing here imports ``lamp_entropy``: a change to the package cannot
change the reference.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The reference's typical time on the machine the baseline was recorded
# on (2 vCPUs, Intel Xeon, Python 3.11.7, numpy 2.4). A time "at reference
# speed" is a measured time multiplied by NOMINAL_S / (the reference's
# time measured next to it).
NOMINAL_S = 0.020

_rng = np.random.default_rng(20170403)
_WORDS = [f"item{i}" for i in _rng.integers(0, 1100, 48_000)]
_FLOATS = _rng.random(250_000)
_CODES = _rng.integers(0, 600, 250_000)
_CELLS = _rng.integers(0, 1_200_000, (2, 160_000))


def _work() -> float:
    """Four parts of about equal time on the machine NOMINAL_S was taken on."""
    # interpreter: counting and sorting strings
    counts: dict[str, int] = {}
    for word in _WORDS:
        counts[word] = counts.get(word, 0) + 1
    keys = sorted(counts, key=counts.__getitem__)
    # interpreter: formatting floats
    text = ",".join(map(repr, _FLOATS[:5_000].tolist()))
    # numpy over cache-sized arrays
    logs = np.log(_FLOATS + 1e-9)
    table = np.bincount(_CODES, weights=logs, minlength=600)
    order = np.argsort(_FLOATS[:20_000], kind="stable")
    # numpy over fresh 10 MB tables, as dense contingency tables are
    cells = np.zeros(1_200_000, dtype=np.int64)
    for codes in _CELLS:
        cells += np.bincount(codes, minlength=cells.size)
    return float(table.sum() + order[0] + len(keys) + len(text) + cells.max())


def seconds() -> float:
    """Wall time of one run of the reference work."""
    start = perf_counter()
    _work()
    return perf_counter() - start


_work()  # first call pays numpy's lazy set-up; later calls time only the work
