"""Fast self-check of the benchmark at tiny input sizes.

    python3 perfbench/smoke.py

For every workload (those in BENCHMARK.json, and large-vocab) it runs
``run.py --size tiny`` untraced and traced. It requires that every
operation passed its correctness check (in the traced run that includes
byte-identical artifacts from the traced and untraced call of each
pair), that the metric names are exactly those of BENCHMARK.json, and
that the traced run left its spans. Last, it copies only BENCHMARK.json
and perfbench/ into an empty directory and requires run.py to fail
there without printing a result. Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_workload(workload: str, trace: int) -> None:
    done = run(ROOT, workload, trace)
    if done.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
    report, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{workload} trace={trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} trace={trace}: failures {report['failures']}")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        sys.exit(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                 f"{sorted(set(got) ^ set(wanted))}")
    bad = [n for n, m in result["metrics"].items() if not math.isfinite(m["value"])]
    if bad:
        sys.exit(f"{workload} trace={trace}: non-finite {bad}")
    if trace and not (ROOT / ".perfbench" / f"spans-{workload}-7.jsonl").is_file():
        sys.exit(f"{workload}: traced run left no spans")
    print(f"ok  {workload:12s} trace={trace}  attempted={result['attempted']}")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        sys.exit("run.py succeeded without the package")
    print("ok  without the package: exit", done.returncode)


def main() -> int:
    # large-vocab is not in BENCHMARK.json (see README.md) but stays runnable.
    for workload in [w["name"] for w in SPEC["workloads"]] + ["large-vocab"]:
        for trace in (0, 1):
            check_workload(workload, trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
