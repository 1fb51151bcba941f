"""Record the benchmark's baseline at the current commit.

    python3 perfbench/baseline.py [--runs 10] [--out perfbench/baseline.json]

For every workload in BENCHMARK.json this makes `--runs` untraced runs on
seeds 1..N (median and quartile spread of each end-to-end metric), one
untraced run on the default seed and one on the held-out seed, and two
traced runs on the default seed, whose exact counts must agree.  Runs are
made one after another, never side by side, each for BENCHMARK.json's
`run_seconds`.
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

import numpy as np

import run as bench
from tracing import EXACT_COUNTS

HELD_OUT_SEED = 0x5EED


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(bench.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    header = next(line.split() for line in lines if line.startswith("workload "))
    return {
        "seed": hex(seed),
        "program_seed": header[header.index("program") + 2],
        "passes": int(header[header.index("passes") + 1]),
        "digest": next(line.split()[1] for line in lines if line.startswith("digest ")),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fail_ratio": result["failed"] / result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "raw_medians": next((line for line in lines if line.startswith("raw medians")), None),
    }


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=bench.BENCH_DIR / "baseline.json")
    args = parser.parse_args()
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    record = {
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "QFOUNDRY_THREADS": os.environ.get("QFOUNDRY_THREADS", "unset")
            + " in the caller; run.py removes it, so verify-all uses 1 worker",
        },
        "default_seed": hex(bench.DEFAULT_SEED),
        "held_out_seed": hex(HELD_OUT_SEED),
        "run_seconds": seconds,
        "units": {m["name"]: [m["unit"], m["better"]]
                  for m in spec["end_to_end"] + spec["per_layer"]},
        "workloads": {},
    }
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = [run_once(name, seed, 0, seconds) for seed in range(1, args.runs + 1)]
        traced = [run_once(name, bench.DEFAULT_SEED, 1, seconds) for _ in range(2)]
        counts = [{c: t["metrics"][c] for c in EXACT_COUNTS} for t in traced]
        record["workloads"][name] = {
            "why": entry["why"],
            "default_seed": hex(bench.DEFAULT_SEED),
            "seeded_runs": {
                "seeds": [r["seed"] for r in runs],
                "program_seeds": [r["program_seed"] for r in runs],
                "digests": [r["digest"] for r in runs],
                "fail_ratio": [r["fail_ratio"] for r in runs],
                "median": {m: statistics.median(r["metrics"][m] for r in runs)
                           for m in runs[0]["metrics"]},
                "quartile_spread": {m: spread([r["metrics"][m] for r in runs])
                                    for m in runs[0]["metrics"]},
                "values": {m: [r["metrics"][m] for r in runs] for m in runs[0]["metrics"]},
            },
            "default": run_once(name, bench.DEFAULT_SEED, 0, seconds),
            "held_out": run_once(name, HELD_OUT_SEED, 0, seconds),
            "traced": traced[0],
            "exact_counts_repeat": counts[0] == counts[1],
        }
        print(f"{name}: done", flush=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
