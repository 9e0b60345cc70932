#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --workloads ecg200,gesture-dba --seeds 0-9 \
        --out bench/BENCH_baseline.json

Runs one benchmark process at a time (`run.py` with the run length from
BENCHMARK.json unless --seconds is given) and reports, per workload and
metric, the median, the quartiles and the spread: the interquartile
distance as a share of the median, which BENCHMARK.json's bounds are
judged against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                           workload, "--seed", str(seed), "--seconds",
                           str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"command": " ".join(sys.argv), "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in seed_list(args.seeds)]
        report["host"] = runs[-1][0]["host"]
        metrics = {}
        for name in runs[0][1]["metrics"]:
            metrics[name] = summarise([r["metrics"][name]["value"]
                                       for _, r in runs])
            metrics[name]["unit"] = runs[0][1]["metrics"][name]["unit"]
            bound = bounds.get(name) if not args.trace else None
            flag = "" if bound is None or name == "setup_s" else \
                ("  ok" if metrics[name]["spread"] < bound / 3 else "  WIDE")
            print(f"{workload:12s} {name:40s} median {metrics[name]['median']:.6g}"
                  f"  spread {metrics[name]['spread']:.4f}{flag}", flush=True)
        report["workloads"][workload] = {
            "seeds": seed_list(args.seeds),
            "details": [{k: d[k] for k in ("seed", "rounds", "setup_samples_s",
                                           "wall_samples_s",
                                           "reference_kernel_s")}
                        for d, _ in runs],
            "all_correct": all(r["correct"] for _, r in runs),
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "metrics": metrics}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(w["all_correct"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
