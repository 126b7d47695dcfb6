"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 orbitbench/spread.py --workloads pipeline --seeds 1-5
    python3 orbitbench/spread.py --seeds 1-10 --write orbitbench/baseline.json

Runs ``run.py`` once per (workload, seed), one process at a time, with the
``run_seconds`` of BENCHMARK.json.  For every end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (interquartile distance over the median) next to the metric's bound.
``--write`` also stores those figures, every run's values, the per-layer
metrics of one traced run (first seed) and the machine conditions as a
baseline file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import run_process

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--write", default=None, metavar="BASELINE_JSON")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, ok = {}, True
    for workload in args.workloads.split(","):
        runs, conditions = [], None
        for seed in args.seeds:
            outcome = run_process(workload, seed, args.seconds, 0)
            if outcome is None:
                return 1
            result, comments = outcome
            conditions = json.loads(comments[-1].split(" ", 2)[2])
            ok &= result["correct"]
            runs.append({"seed": seed, "attempted": result["attempted"], "failed": result["failed"],
                         **{k: m["value"] for k, m in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
        figures = {}
        for name, bound in bounds.items():
            values = [run[name] for run in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            figures[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {workload:<9} {name:<15} median {med:<12.5g} spread {spread:7.4f}"
                  f"  bound {bound}  {flag}")
        summary[workload] = {"figures": figures, "runs": runs, "conditions": conditions}
        if args.write:
            outcome = run_process(workload, args.seeds[0], args.seconds, 1)
            if outcome is None:
                return 1
            ok &= outcome[0]["correct"]
            summary[workload]["per_layer"] = {
                k: m["value"] for k, m in outcome[0]["metrics"].items()}
    if args.write:
        Path(args.write).write_text(json.dumps(
            {"seconds": args.seconds, "seeds": args.seeds, "workloads": summary}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
