"""Benchmark of lamp-entropy: one workload, one seed, one line of results.

    python3 perfbench/run.py --workload lamp-path --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The run

1. writes the workload's inputs and reference values, from the seed,
   under ``.perfbench/`` (workloads.py);
2. with ``--trace 0``, times ``import lamp_entropy, lamp_entropy.cli``
   in fresh interpreters, before and after the measured process, each
   between two runs of the reference work (reference.py); ``setup_s`` is
   the median of those times at reference speed;
3. starts the measured process (measure.py), which runs the workload's
   operations for ``--seconds`` and checks every output;
4. prints a readable report, then, as the last line, one JSON object
   with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
   end-to-end metrics with ``--trace 0``, the per-layer metrics with
   ``--trace 1``.

Inputs are deleted afterwards; a traced run keeps its spans in
``.perfbench/spans-<workload>-<seed>.jsonl``. Exits non-zero, printing
no result, when the package or an input cannot be found or the measured
process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
IMPORT_SAMPLES = 8  # before and again after the measured process
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import lamp_entropy, lamp_entropy.cli; "
    "print(repr(time.perf_counter() - t))"
)


def child_env() -> dict:
    """Environment for every process the run starts: the checkout's package
    and one BLAS thread, so operations and the reference work run on one
    CPU and a neighbour's load on the other cannot stall a BLAS call."""
    env = dict(os.environ)
    env.pop("LAMP_ENTROPY_LOG_LEVEL", None)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def import_seconds(env: dict) -> list[tuple[float, float]]:
    """Import times of fresh interpreters, as (seconds, seconds at reference speed)."""
    import reference

    times = []
    before = reference.seconds()
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        after = reference.seconds()
        seconds = float(done.stdout.strip())
        times.append((seconds, seconds * reference.NOMINAL_S / ((before + after) / 2)))
        before = after
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one lamp-entropy benchmark workload.")
    parser.add_argument("--workload", required=True,
                        help="lamp-path, item-stream or large-vocab")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="input size; tiny is for smoke.py")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "lamp_entropy" / "__init__.py").is_file():
        print(f"error: no lamp_entropy package under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    os.environ.update({var: env[var] for var in THREAD_VARS})
    import workloads  # numpy is imported only now, under the thread limits above

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    work = WORKDIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workloads.generate(args.workload, args.seed, args.size, work)
        imports = [] if args.trace else import_seconds(env)
        measured = subprocess.run(
            [sys.executable, str(HERE / "measure.py"), "--workdir", str(work),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, stdout=subprocess.DEVNULL,
            timeout=max(DEADLINE_S - (time.monotonic() - started), 1.0),
        )
        if measured.returncode != 0:
            print(f"error: measured process exited with {measured.returncode}", file=sys.stderr)
            return 1
        doc = json.loads((work / "result.json").read_text(encoding="utf-8"))
        if not args.trace:
            imports += import_seconds(env)
        else:
            shutil.copyfile(work / "spans.jsonl",
                            WORKDIR / f"spans-{args.workload}-{args.seed}.jsonl")
    except subprocess.TimeoutExpired:
        print(f"error: run went past {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if imports:
        setup = median(at_ref for _, at_ref in imports)
        doc["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
        doc["report"]["setup"] = {"median_s": median(s for s, _ in imports),
                                  "median_at_ref_s": setup, "samples": len(imports)}
    print(json.dumps(doc.pop("report")))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
