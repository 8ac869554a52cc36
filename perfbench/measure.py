"""The measured process: one workload's operations, one at a time.

``run.py`` starts this process once the workload's inputs and reference
values are on disk, so generator memory stays out of its peak RSS::

    python3 perfbench/measure.py --workdir DIR --seconds S --trace 0|1

One client runs a closed loop: the next operation starts when the
previous one has finished. Each operation first runs one untimed
warm-up sample; then the loop runs rounds of all operations until
``--seconds`` have passed (see ``Run.loop``). Every sample's output is
checked against the references, so a wrong answer counts as a failure.
An operation's metric is the median of its samples' times at reference
speed: each duration set against the reference work timed just before
and just after it (reference.py), which cancels most of a shared
machine's swings in speed.

With ``--trace 1`` every sample is a pair: the operation untraced, then
the same call traced (see tracing.py). The pair's artifacts must be
byte-identical, the traced run's self times must add up to its
duration, and the untraced halves give the tracing overhead.

The result goes to DIR/result.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import resource
import shutil
import sys
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

import lamp_entropy as le
from lamp_entropy import cli

import reference
from tracing import LAYERS, METRICS, Tracer, aggregate, unit_of

RATE_TOL = 0.01      # score vs closed form, and simulated frequencies vs pi (A1, A2)
BITS_TOL = 1e-6      # estimate and sweep vs the reference solve (A6)
V_TOL = 1e-12        # Cramér's V vs the reference pooled table
SELF_SUM_TOL = 1e-6  # traced self times vs the operation's duration, seconds
ROUND_MIN_S = 0.25   # time each operation gets in a round of the loop, at least


class Op:
    """One user-facing operation: ``run(i)`` is timed, ``check`` and
    ``artifact`` look at its result afterwards."""

    def __init__(self, name, run, check, artifact, out: Path | None = None):
        self.name = name
        self.run = run
        self.check = check          # (result, i) -> None, or a description of the fault
        self.artifact = artifact    # result -> bytes, compared between traced and untraced
        self.out = out              # CLI output directory, emptied before each sample

    def prepare(self) -> None:
        if self.out is not None:
            shutil.rmtree(self.out, ignore_errors=True)
            self.out.mkdir()


def read_tokens(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").split()


def monotone(trace) -> str | None:
    for a, b in zip(trace, trace[1:]):
        if b < a - 1e-9 * max(1.0, abs(a)):
            return f"log-likelihood fell from {a!r} to {b!r}"
    return None


def compare(name: str, got, want, tol: float) -> str | None:
    if len(got) != len(want):
        return f"{name}: {len(got)} values, expected {len(want)}"
    worst = max(abs(g - w) for g, w in zip(got, want))
    return None if worst <= tol else f"{name}: off by {worst:.3g} (tol {tol:g})"


def score_check(bits: float):
    def check(value, i):
        err = abs(value - bits)
        return None if err <= RATE_TOL else f"log_loss off the closed form by {err:.4f} bits"

    return check


# ------------------------------------------------------------ lamp-path


def lamp_path_ops(m: dict, work: Path) -> list[Op]:
    """Library calls on one long path of a 3-state chain."""
    model = le.LampModel(
        le.validate_stochastic(m["rows"], m["labels"]), le.KernelDistribution(m["kernel"])
    )
    path = read_tokens(work / m["path"])
    corpus = le.SequenceCorpus.from_sequences([path])
    steps = m["steps"]
    pi = dict(zip(m["labels"], m["pi"]))

    def check_simulate(tokens, i):
        if len(tokens) != steps:
            return f"{len(tokens)} symbols, expected {steps}"
        counts = Counter(tokens)
        if set(counts) - set(pi):
            return "symbols outside the model's labels"
        worst = max(abs(counts[lab] / steps - p) for lab, p in pi.items())
        return None if worst <= RATE_TOL else f"frequency off pi by {worst:.4f}"

    def check_fit(report, i):
        return monotone(report.log_likelihood_trace)

    def check_profile(profile, i):
        if [p.lag for p in profile] != list(range(1, m["profile_lags"] + 1)):
            return "wrong lags"
        return compare("cramers_v", [p.cramers_v for p in profile], m["profile_v"], V_TOL)

    def check_estimate(report, i):
        return compare("bits", [report.bits_per_symbol], [m["estimate_bits"]], BITS_TOL)

    def check_sweep(result, i):
        if result.exponents != tuple(range(1, 26)):
            return "wrong exponents"
        return compare("sweep", result.raw, m["sweep_bits"], BITS_TOL)

    def fit_bytes(r):
        return b"".join([r.model.matrix.rows.tobytes(), r.model.kernel.weights.tobytes(),
                         repr((r.model.labels, r.log_likelihood_trace, r.iterations,
                               r.converged)).encode()])

    return [
        Op("simulate", lambda i: le.simulate_lamp(model, steps, seed=i), check_simulate,
           lambda r: "\n".join(r).encode()),
        Op("score", lambda i: le.log_loss(model, path), score_check(m["score_bits"]),
           lambda r: repr(r).encode()),
        Op("fit", lambda i: le.fit_lamp_em(corpus, m["fit_k"], max_iter=m["fit_iter"], tol=0.0),
           check_fit, fit_bytes),
        Op("profile", lambda i: le.dependency_profile(path, m["profile_lags"]), check_profile,
           lambda r: repr(r).encode()),
        Op("estimate", lambda i: le.markov_plugin_estimate(corpus, le.Induced(2.0**-15)),
           check_estimate, lambda r: repr(r.to_json_dict()).encode()),
        Op("sweep", lambda i: le.sweep_p_artificial(corpus, "markov", exponents=range(1, 26)),
           check_sweep, lambda r: repr(r).encode()),
    ]


# ------------------------------------------------- item-stream, large-vocab


def corpus_ops(m: dict, work: Path) -> list[Op]:
    """`lamp-entropy` subcommands on a corpus file, plus library scoring."""
    out = work / "out"
    corpus = str(work / m["corpus"])
    model_path = str(work / m["model"])
    model = le.load_model(model_path)
    labels = set(model.labels)
    score_path = read_tokens(work / m["score_path"])

    def cli_op(name, argv, check):
        def run(i):
            return cli.main(argv(i))

        def full_check(status, i):
            return f"exit status {status}" if status != 0 else check(i)

        def artifact(status):
            return b"".join(p.name.encode() + b"\0" + p.read_bytes() for p in sorted(out.iterdir()))

        return Op(name, run, full_check, artifact, out)

    def csv_rows(name):
        with open(out / name, encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))

    def check_estimate(i):
        bits = json.loads((out / "report.json").read_text(encoding="utf-8"))["bits_per_symbol"]
        return compare("bits", [bits], [m["estimate_bits"]], BITS_TOL)

    def check_sweep(i):
        rows = csv_rows("sweep.csv")
        if [int(r["i"]) for r in rows] != list(range(1, 26)):
            return "wrong exponents"
        return compare("sweep", [float(r["raw_bits"]) for r in rows], m["sweep_bits"], BITS_TOL)

    def check_fit(i):
        report = json.loads((out / "model.json.report.json").read_text(encoding="utf-8"))
        return monotone(report["log_likelihood_trace"])

    def check_simulate(i):
        lines = (out / "path.lines").read_text(encoding="utf-8").splitlines()
        tokens = lines[0].split() if len(lines) == 1 else []
        if len(tokens) != m["sim_steps"]:
            return f"{len(tokens)} symbols on {len(lines)} lines, expected {m['sim_steps']} on 1"
        return None if set(tokens) <= labels else "symbols outside the model's labels"

    def check_profile(i):
        rows = csv_rows("profile.csv")
        if [int(r["lag"]) for r in rows] != list(range(1, m["profile_lags"] + 1)):
            return "wrong lags"
        return compare("cramers_v", [float(r["cramers_v"]) for r in rows], m["profile_v"], V_TOL)

    inp = ["--input", corpus]
    return [
        cli_op("estimate", lambda i: ["entropy", *inp, "--method", "markov", "--conditioning",
                                      m["conditioning"], "--output", str(out / "report.json")],
               check_estimate),
        cli_op("sweep", lambda i: ["sweep", *inp, "--output", str(out / "sweep.csv")], check_sweep),
        cli_op("fit", lambda i: ["fit", *inp, "--k", "2", "--max-iter", str(m["fit_iter"]),
                                 "--tol", "0", "--output", str(out / "model.json")], check_fit),
        cli_op("simulate", lambda i: ["simulate", "--model", model_path, "--steps",
                                      str(m["sim_steps"]), "--seed", str(i),
                                      "--output", str(out / "path.lines")], check_simulate),
        cli_op("profile", lambda i: ["profile", *inp, "--max-lag", str(m["profile_lags"]),
                                     "--output", str(out / "profile.csv")], check_profile),
        Op("score", lambda i: le.log_loss(model, score_path), score_check(m["score_bits"]),
           lambda r: repr(r).encode()),
    ]


OPS = {"lamp-path": lamp_path_ops, "item-stream": corpus_ops, "large-vocab": corpus_ops}


# ------------------------------------------------------------ the loop


class Run:
    def __init__(self, ops: list[Op], tracer: Tracer | None):
        self.ops = ops
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.durations = {op.name: [] for op in ops}
        self.scaled = {op.name: [] for op in ops}      # durations at reference speed
        self.traced = {op.name: [] for op in ops}      # tracer summaries
        self._op_id = 0

    def sample(self, op: Op, i: int, traced: bool) -> tuple[float, bytes | None]:
        """Run, time and check one sample; returns its duration and artifact digest."""
        op.prepare()
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.install()
            tracer.begin(self._op_id)
        error = None
        start = perf_counter()
        try:
            result = op.run(i)
        except Exception as exc:  # any raise is a failed operation, reported below
            result, error = None, f"{type(exc).__name__}: {exc}"
        duration = perf_counter() - start
        if tracer is not None:
            duration = tracer.end(op.name)
            tracer.uninstall()
        self._op_id += 1
        self.attempted += 1
        digest = None
        try:
            fault = error or op.check(result, i)
            if self.tracer is not None and error is None:
                digest = hashlib.sha256(op.artifact(result)).digest()
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:  # bad output
            fault = f"unreadable output: {type(exc).__name__}: {exc}"
        if tracer is not None:
            if op.out is not None:
                tracer.record("cli.bytes_written", sum(p.stat().st_size for p in op.out.iterdir()))
            summary = tracer.summarize()
            if summary["self_sum_error"] > SELF_SUM_TOL:
                gap = summary["self_sum_error"]
                fault = fault or f"self times miss the duration by {gap:.3g} s"
            self.traced[op.name].append(summary)
        if fault:
            self.failures.append(f"{op.name}[{i}]{' traced' if traced else ''}: {fault}")
        return duration, digest

    def measure(self, op: Op, i: int) -> float:
        duration, digest = self.sample(op, i, traced=False)
        self.durations[op.name].append(duration)
        if self.tracer is None:
            return duration
        traced_duration, traced_digest = self.sample(op, i, traced=True)
        if digest != traced_digest:
            self.failures.append(f"{op.name}[{i}]: traced and untraced artifacts differ")
        return duration + traced_duration

    def loop(self, seconds: float) -> None:
        """Warm up, then run rounds of the operations until ``seconds`` have passed.

        In a round each operation runs until it has taken ROUND_MIN_S, at
        least once, so short operations get many samples and long ones
        one per round. Untraced, the reference (reference.py) runs before
        the first sample and after each sample; a sample's time at
        reference speed is its duration times ``NOMINAL_S`` over the mean
        of the two reference times around it.
        """
        for op in self.ops:
            self.sample(op, 0, traced=False)            # warm-up, untimed
        count = 0
        start = perf_counter()
        before = None if self.tracer else reference.seconds()
        while perf_counter() - start < seconds:
            for op in self.ops:
                spent = 0.0
                while spent < ROUND_MIN_S:
                    count += 1
                    duration = self.measure(op, count)
                    spent += duration
                    if before is not None:
                        after = reference.seconds()
                        self.scaled[op.name].append(
                            duration * reference.NOMINAL_S / ((before + after) / 2))
                        before = after


def timing_summary(values: list[float]) -> dict:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    n = len(values)
    out = {"median_s": median(values), "samples": n}
    if n >= 11:
        out[f"p{math.floor(100 * (n - 10) / n)}_s"] = sorted(values)[n - 11]
    return out


def result_doc(run: Run, workload: str, input_shape: dict) -> dict:
    metrics = {}
    report = {"workload": workload, "input": input_shape, "operations": {}}
    for op in run.ops:
        report["operations"][op.name] = timing_summary(run.durations[op.name])
    if run.tracer is None:
        for op in run.ops:
            at_ref = median(run.scaled[op.name])
            report["operations"][op.name]["median_at_ref_s"] = at_ref
            metrics[f"{op.name}_s"] = {"value": at_ref, "unit": "s"}
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    else:
        layer = aggregate(run.traced)
        for name in METRICS:
            metrics[name] = {"value": layer[name], "unit": unit_of(name)}
        for name in LAYERS:
            metrics[f"{name}.errors"] = {"value": run.tracer.errors[name], "unit": "count"}
        traced = sum(median(s["duration"] for s in run.traced[op.name]) for op in run.ops)
        untraced = sum(median(run.durations[op.name]) for op in run.ops)
        metrics["trace.overhead_frac"] = {"value": traced / untraced - 1.0, "unit": "ratio"}
        report["self_time_by_layer_s"] = {
            op.name: {
                layer: median(s["self_by_layer"].get(layer, 0.0) for s in run.traced[op.name])
                for layer in LAYERS + ("bench",)
            }
            for op in run.ops
        }
        report["self_sum_error_max_s"] = max(
            s["self_sum_error"] for samples in run.traced.values() for s in samples
        )
    failed = len(run.failures)
    report["fail_frac"] = failed / run.attempted
    report["failures"] = run.failures[:20]
    return {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
        "report": report,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(le.__file__).resolve().parent.parent != src:
        print(f"lamp_entropy imported from {le.__file__}, not from {src}", file=sys.stderr)
        return 2
    manifest = json.loads((args.workdir / "manifest.json").read_text(encoding="utf-8"))
    ops = OPS[manifest["workload"]](manifest, args.workdir)
    tracer = Tracer() if args.trace else None
    run = Run(ops, tracer)
    run.loop(args.seconds)
    shape = {k: manifest[k] for k in ("states", "raw_vocab", "tokens", "sccs") if k in manifest}
    doc = result_doc(run, manifest["workload"], shape)
    (args.workdir / "result.json").write_text(json.dumps(doc), encoding="utf-8")
    if tracer is not None:
        tracer.dump(args.workdir / "spans.jsonl")
    return 0


if __name__ == "__main__":
    sys.exit(main())
