"""Span tracing of lamp_entropy's public API, installed from outside the package.

``Tracer.install`` wraps every public function and method of the eight
layer modules (plus dataclass ``__post_init__`` validators) and rebinds
every attribute in the package's modules that refers to one of them:
the modules import names with ``from .x import f``, so patching only the
defining module would miss those copies. ``uninstall`` restores the
originals, so untraced samples run the package untouched.

Each call records a span (id, parent id, operation id, name, layer,
start, end). A few calls also record a value (tokens read, states
removed, a stationary residual, ...); that bookkeeping runs in its own
``bench`` span so it never counts as package time. Spans stay in memory
until the run ends. A span's self time is its duration minus the
durations of its children; over one operation the self times add up to
the operation's root span.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import tracemalloc
from collections import defaultdict
from statistics import median
from time import perf_counter

import numpy as np

PACKAGE = "lamp_entropy"
LAYERS = ("corpus", "fitting", "conditioning", "markov", "lamp", "estimators", "dependence", "cli")

# Per-layer metrics, as (kind, span names). "self" sums self times,
# "total" sums whole span durations, "count" counts spans and "sum" /
# "max" aggregate the values recorded by the hooks below.
METRICS = {
    "corpus.load_s": ("self", ["corpus.load_sequences"]),
    "corpus.preprocess_s": ("self", ["corpus.preprocess", "corpus.dedupe_consecutive",
                                     "corpus.replace_rare",
                                     "corpus.SequenceCorpus.from_sequences"]),
    "corpus.encode_s": ("total", ["corpus.SequenceCorpus.encoded"]),
    "corpus.encode_calls": ("count", ["corpus.SequenceCorpus.encoded"]),
    "corpus.tokens_in": ("sum", ["corpus.tokens_in"]),
    "fitting.count_s": ("self", ["fitting.count_transitions"]),
    "fitting.em_s": ("total", ["fitting.fit_lamp_em"]),
    "fitting.em_iterations": ("sum", ["fitting.em_iterations"]),
    "fitting.em_iter_s": ("per_iter", ["fitting.fit_lamp_em"]),
    "fitting.em_peak_alloc_mb": ("max", ["fitting.em_peak_alloc_mb"]),
    "conditioning.scc_s": ("total", ["conditioning.strongly_connected_components"]),
    "conditioning.apply_s": ("total", ["conditioning.apply_conditioning"]),
    "conditioning.states_excluded": ("sum", ["conditioning.states_excluded"]),
    "conditioning.states_added": ("sum", ["conditioning.states_added"]),
    "markov.stationary_s": ("total", ["markov.stationary_distribution"]),
    "markov.stationary_calls": ("count", ["markov.stationary_distribution"]),
    "markov.stationary_residual_max": ("max", ["markov.stationary_residual"]),
    "markov.validate_s": ("self", ["markov.validate_stochastic",
                                   "markov.TransitionMatrix.__post_init__",
                                   "markov.StationaryDistribution.__post_init__"]),
    "markov.entropy_rate_s": ("total", ["markov.entropy_rate"]),
    "lamp.simulate_s": ("total", ["lamp.simulate_lamp"]),
    "lamp.score_s": ("total", ["lamp.log_loss"]),
    "lamp.model_write_s": ("total", ["lamp.save_model"]),
    "lamp.model_read_s": ("total", ["lamp.load_model"]),
    "lamp.model_bytes": ("sum", ["lamp.model_bytes"]),
    "estimators.sweep_self_s": ("self", ["estimators.sweep_p_artificial"]),
    "estimators.sweep_points": ("sum", ["estimators.sweep_points"]),
    "estimators.plugin_self_s": ("self", ["estimators.markov_plugin_estimate",
                                          "estimators.lamp_plugin_estimate",
                                          "estimators.stationary_distribution_estimate",
                                          "estimators.sequence_level_estimate",
                                          "estimators.path_level_estimate"]),
    "dependence.profile_s": ("total", ["dependence.dependency_profile",
                                       "dependence.corpus_dependency_profile"]),
    "dependence.tables": ("count", ["dependence.cramers_v"]),
    "cli.self_s": ("self", ["cli.main"]),
    "cli.bytes_written": ("sum", ["cli.bytes_written"]),
}
UNITS = {"_s": "s", "_mb": "MB", "_max": "ratio", "_frac": "ratio",
         "_bytes": "bytes", "_written": "bytes"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def _after_stationary(args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    probs = result.probs
    return {"markov.stationary_residual": float(np.abs(probs @ matrix.rows - probs).sum())}


def _after_conditioning(args, kwargs, result):
    report = result[1]
    return {
        "conditioning.states_excluded": report["excluded"],
        "conditioning.states_added": max(report["n_after"] - report["n_before"], 0),
    }


def _after_em(args, kwargs, result):
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"fitting.em_iterations": result.iterations, "fitting.em_peak_alloc_mb": peak / 2**20}


def _before_em(args, kwargs):
    tracemalloc.start()


# Values recorded after (and, for EM, set-up before) particular calls.
AFTER = {
    "corpus.load_sequences": lambda a, k, r: {"corpus.tokens_in": r.total_tokens},
    "fitting.fit_lamp_em": _after_em,
    "conditioning.apply_conditioning": _after_conditioning,
    "markov.stationary_distribution": _after_stationary,
    "lamp.save_model": lambda a, k, r: {
        "lamp.model_bytes": os.path.getsize(a[1] if len(a) > 1 else k["path"])},
    "lamp.load_model": lambda a, k, r: {
        "lamp.model_bytes": os.path.getsize(a[0] if a else k["path"])},
    "estimators.sweep_p_artificial": lambda a, k, r: {"estimators.sweep_points": len(r.exponents)},
}
BEFORE = {"fitting.fit_lamp_em": _before_em}


class Tracer:
    """Records spans of the package's public calls during traced operations."""

    def __init__(self):
        self.spans: list[tuple] = []       # (id, parent, op, name, layer, start, end)
        self.values: list[tuple] = []      # (op, key, value)
        self.errors: dict[str, int] = {layer: 0 for layer in LAYERS}
        self._stack: list[int] = []
        self._next_id = 0
        self._op = -1
        self._patches = self._build_patches()

    # ------------------------------------------------------------ wrapping

    def _build_patches(self) -> list[tuple]:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        patches = []
        for layer in LAYERS:
            module = modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, f"{layer}.{name}", layer)
                    for mod in modules.values():
                        for attr, value in vars(mod).items():
                            if value is obj:
                                patches.append((mod, attr, obj, wrapper))
                elif inspect.isclass(obj):
                    for attr, raw in vars(obj).items():
                        if attr.startswith("_") and attr != "__post_init__":
                            continue
                        qualname = f"{layer}.{name}.{attr}"
                        if isinstance(raw, (classmethod, staticmethod)):
                            wrapped = type(raw)(self._wrap(raw.__func__, qualname, layer))
                        elif inspect.isfunction(raw):
                            wrapped = self._wrap(raw, qualname, layer)
                        else:
                            continue
                        patches.append((obj, attr, raw, wrapped))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        before = BEFORE.get(name)
        after = AFTER.get(name)

        def traced(*args, **kwargs):
            if before is not None:
                tracer._bench(before, args, kwargs)
            parent = tracer._stack[-1]
            sid = tracer._next_id
            tracer._next_id += 1
            tracer._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, tracer._op, name, layer, start, end))
            if after is not None:
                tracer._bench(after, args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = name
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _bench(self, hook, *hook_args) -> None:
        """Run a bookkeeping hook in its own span of the ``bench`` pseudo-layer."""
        sid = self._next_id
        self._next_id += 1
        start = perf_counter()
        recorded = hook(*hook_args)
        end = perf_counter()
        self.spans.append((sid, self._stack[-1], self._op, "bench.hook", "bench", start, end))
        for key, value in (recorded or {}).items():
            self.values.append((self._op, key, value))

    # ---------------------------------------------------------- operations

    def begin(self, op_id: int) -> None:
        """Open the root span of one traced operation."""
        self._op = op_id
        self._first_span = len(self.spans)
        self._first_value = len(self.values)
        self._root_id = self._next_id
        self._next_id += 1
        self._stack = [self._root_id]
        self._root_start = perf_counter()

    def end(self, op_name: str) -> float:
        """Close the root span; returns its duration."""
        end = perf_counter()
        self.spans.append(
            (self._root_id, None, self._op, f"op.{op_name}", "bench", self._root_start, end)
        )
        self._stack = []
        if tracemalloc.is_tracing():  # EM raised before its hook could stop it
            tracemalloc.stop()
        return end - self._root_start

    def record(self, key: str, value: float) -> None:
        """Attach a value measured outside the package to the last operation."""
        self.values.append((self._op, key, value))

    # ------------------------------------------------------------- results

    def summarize(self) -> dict:
        """Per-layer metrics, self time per layer and the self-time sum check
        of the last operation."""
        spans = self.spans[self._first_span:]
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _, _, _, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        total_time: dict[str, float] = defaultdict(float)
        count: dict[str, int] = defaultdict(int)
        by_layer: dict[str, float] = defaultdict(float)
        root = 0.0
        for sid, parent, _, name, layer, start, end in spans:
            own = (end - start) - child_time[sid]
            self_time[name] += own
            total_time[name] += end - start
            count[name] += 1
            by_layer[layer] += own
            if parent is None:
                root = end - start
        sums: dict[str, float] = defaultdict(float)
        maxima: dict[str, float] = defaultdict(float)
        for _, key, value in self.values[self._first_value:]:
            sums[key] += value
            maxima[key] = max(maxima[key], value)

        metrics = {}
        for metric, (kind, names) in METRICS.items():
            if kind == "self":
                value = sum(self_time[n] for n in names)
            elif kind == "total":
                value = sum(total_time[n] for n in names)
            elif kind == "count":
                value = sum(count[n] for n in names)
            elif kind == "sum":
                value = sum(sums[n] for n in names)
            elif kind == "max":
                value = max(maxima[n] for n in names)
            else:  # per_iter: EM's own loop time per iteration
                iterations = sums["fitting.em_iterations"]
                value = self_time[names[0]] / iterations if iterations else 0.0
            metrics[metric] = value
        return {
            "metrics": metrics,
            "self_by_layer": dict(by_layer),
            "duration": root,
            "self_sum_error": abs(sum(by_layer.values()) - root),
        }

    def dump(self, path) -> None:
        """Write every span and value, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fields = ["id", "parent", "op", "name", "layer", "start", "end"]
            fh.write(json.dumps({"fields": fields}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for value in self.values:
                fh.write(json.dumps({"op": value[0], "key": value[1], "value": value[2]}) + "\n")


def aggregate(per_op: dict[str, list[dict]]) -> dict[str, float]:
    """Per-layer metrics for one round: per op the median over its traced
    samples, then summed over ops (maxima for the ``max`` metrics)."""
    out = {}
    for metric, (kind, _) in METRICS.items():
        medians = [median(s["metrics"][metric] for s in samples) for samples in per_op.values()]
        out[metric] = max(medians) if kind == "max" else sum(medians)
    return out
