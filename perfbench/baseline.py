"""Record a baseline: several seeds per workload, plus one traced run each.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --workloads large-vocab --seeds 1-3 --merge

Runs ``run.py`` untraced once per seed (one after another, never in
parallel) and traced once on the first seed, with BENCHMARK.json's
``run_seconds``. For each end-to-end metric it stores every value, the
median and the quartiles, and the spread: the distance between the
quartiles as a share of the median, as ``statistics.quantiles(v, n=4)``
gives them. Prints the spreads as it goes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    report, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return report, result


def quartile_spread(values: list[float]) -> dict:
    """Median, quartiles, and their distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid if mid else 0.0}


def hardware() -> str:
    model = next((line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    return f"{len(os.sched_getaffinity(0))} CPUs, {model}, Python {platform.python_version()}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    parser.add_argument("--merge", action="store_true",
                        help="add to the workloads already in --out")
    args = parser.parse_args()

    doc = {"hardware": hardware(), "run_seconds": SPEC["run_seconds"], "workloads": {}}
    if args.merge and args.out.exists():
        doc["workloads"] = json.loads(args.out.read_text(encoding="utf-8"))["workloads"]
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            report, result = bench(workload, seed, 0)
            runs.append({"seed": seed, **result, "operations": report["operations"]})
            print(workload, seed, result["correct"], result["failed"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        names = list(runs[0]["metrics"])
        end_to_end = {
            name: {"unit": runs[0]["metrics"][name]["unit"],
                   **quartile_spread([r["metrics"][name]["value"] for r in runs])}
            for name in names
        }
        for name, s in end_to_end.items():
            print(f"  {workload:12s} {name:12s} median={s['median']:.4f} spread={s['spread']:.3f}")
        report, result = bench(workload, args.seeds[0], 1)
        doc["workloads"][workload] = {
            "seeds": args.seeds,
            "end_to_end": end_to_end,
            "runs": runs,
            "per_layer": {"seed": args.seeds[0], **result, "report": report},
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
