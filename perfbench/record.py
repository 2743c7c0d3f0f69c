"""Measure every workload on several seeds and append the result to the
trajectory.

    python3 perfbench/record.py --label "what changed"

Run it from the repository root.  For each workload it makes one untraced
run for each of SEEDS and one traced run with TRACE_SEED, then appends to
perfbench/trajectory.json every end-to-end value with its median, quartiles
and quartile spread as a share of the median (for times also before the
probe scaling), and the per-layer metrics of the traced run.  It prints the
spreads as it goes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TRAJECTORY = os.path.join(HERE, "trajectory.json")
SEEDS = list(range(1, 11))
TRACE_SEED = 11


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["meta"] = json.loads(lines[-2])["meta"]
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    entry = {"label": args.label, "date": time.strftime("%Y-%m-%d"),
             "run_seconds": bench["run_seconds"], "seeds": SEEDS,
             "trace_seed": TRACE_SEED, "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        runs = [run_once(name, seed, bench["run_seconds"], 0) for seed in SEEDS]
        if not all(r["correct"] for r in runs):
            print(f"{name}: incorrect output: {[r['meta']['failures'] for r in runs]}")
            return 1
        end_to_end = {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
                      for m in bench["end_to_end"]}
        # the same times before scaling by the probe, to show what scaling buys
        for metric, s in end_to_end.items():
            if metric in runs[0]["meta"]["measured"]:
                s["measured"] = summarize([r["meta"]["measured"][metric] for r in runs])
        traced = run_once(name, TRACE_SEED, bench["run_seconds"], 1)
        entry["workloads"][name] = {
            "end_to_end": end_to_end,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        entry["machine"] = {k: runs[0]["meta"][k]
                            for k in ("python", "platform", "machine", "nproc")}
        for metric, s in end_to_end.items():
            unscaled = (f"  unscaled median {s['measured']['median']:.4g} "
                        f"spread {s['measured']['spread']:.3f}" if "measured" in s else "")
            print(f"{name:14s} {metric:13s} median {s['median']:.4g} "
                  f"spread {s['spread']:.3f}{unscaled}", flush=True)
    trajectory = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY, encoding="utf-8") as fh:
            trajectory = json.load(fh)
    trajectory.append(entry)
    with open(TRAJECTORY, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=1)
        fh.write("\n")
    print(f"appended entry {len(trajectory)} to {TRAJECTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
