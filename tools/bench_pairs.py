"""Benchmark two commits of this repository against each other in alternating pairs.

    python3 tools/bench_pairs.py PARENT_REV CHANGE_REV --out BENCH_16.json

Each revision is extracted with ``git archive`` into a work directory and
runs its own ``orbitbench/run.py``, one process at a time.  For every
workload of BENCHMARK.json, ``--pairs`` pairs of untraced runs of
``run_seconds``: both sides of a pair share a seed, the parent runs first
in even pairs and the change first in odd ones.  Then three traced runs
per side of the claimed workload (``pipeline`` without a claim), the
parent first in runs 0 and 2 and the change first in run 1, stored under
``trace`` with every run's per-request layer figures and each side's
median, and the tier-1 suite timed ``--tier1`` times per side.  The
record holds, per workload and end-to-end metric, both sides' quartiles
(``statistics.quantiles(method="inclusive")``), every run's value, the
pairs the change won, and whether the change's median is worse than the
parent's by more than the metric's BENCHMARK.json bound.
Only when ``--claim WORKLOAD:METRIC`` names a claimed gain does it judge
one (the change wins at least 9 of 10 pairs and the medians differ by
more than the parent's interquartile distance); otherwise ``claim`` is
null.  It also holds the machine conditions and both revisions with
their ``src`` trees.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TRACE_KEYS = ("cli.self_s", "cli.busy_s", "pipeline.busy_s", "pipeline.self_s",
              "group_engine.calls", "group_engine.busy_s", "core.calls", "core.self_s",
              "oracle.calls", "oracle.busy_s", "oracle.self_s", "cli.json_out_s",
              "cli.report_bytes")
TRACED_RUNS = 3


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int):
    cmd = [sys.executable, "orbitbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{tree.name} {workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    conditions = json.loads(lines[-2].split(" ", 2)[2])
    return json.loads(lines[-1]), conditions


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(rows: list[dict], spec: dict) -> dict:
    out = {
        "seeds": [row["seed"] for row in rows],
        "first_side": [row["first"] for row in rows],
        "attempted": {s: sum(row[s]["attempted"] for row in rows) for s in SIDES},
        "failed": {s: sum(row[s]["failed"] for row in rows) for s in SIDES},
        "metrics": {},
    }
    for name, (direction, bound) in spec.items():
        runs = {s: [row[s]["metrics"][name]["value"] for row in rows] for s in SIDES}
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"]))
        qp, qc = quartiles(runs["parent"]), quartiles(runs["change"])
        ratio = qc["median"] / qp["median"] - 1
        out["metrics"][name] = {
            "better": direction, "parent": qp, "change": qc,
            "change_wins": wins, "pairs": len(rows),
            "median_change_ratio": ratio, "bound": bound,
            "worse_than_bound": -sign * ratio > bound,
            "parent_iqr": qp["q3"] - qp["q1"],
            "parent_runs": runs["parent"], "change_runs": runs["change"],
        }
    return out


def traced(trees: dict, workload: str, seed: int, seconds: float, tmp: Path) -> dict:
    sys.path.insert(0, str(trees["change"] / "orbitbench"))
    import workloads

    (tmp / "count").mkdir()
    per_round = len(workloads.generate(workload, seed, str(tmp / "count")))
    out = {"workload": workload,
           "run": f"run.py --workload {workload} --seed {seed} --seconds {seconds:g} --trace 1",
           "first_side": [SIDES[i % 2] for i in range(TRACED_RUNS)]}
    runs = {side: [] for side in SIDES}
    for i in range(TRACED_RUNS):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            result, _ = run(trees[side], workload, seed, seconds, 1)
            # one warm round, then the same number of plain and traced rounds
            requests = (result["attempted"] - per_round) // 2
            totals = {k: result["metrics"][k]["value"] for k in TRACE_KEYS}
            runs[side].append({"traced_requests": requests, "totals": totals,
                               "per_request": {k: v / requests for k, v in totals.items()}})
    for side in SIDES:
        out[side] = {"runs": runs[side], "median_per_request": {
            k: statistics.median(r["per_request"][k] for r in runs[side]) for k in TRACE_KEYS}}
    return out


def tier1(trees: dict, times: int) -> dict:
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    out = {"command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
           **{s: {"result": None, "wall_s": []} for s in SIDES}}
    for i in range(times):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            start = time.perf_counter()
            done = subprocess.run(cmd, cwd=trees[side], capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": "src"})
            out[side]["wall_s"].append(round(time.perf_counter() - start, 2))
            out[side]["result"] = done.stdout.strip().splitlines()[-1].strip("= ")
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=601)
    parser.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC",
                        help="the claimed gain to judge (default: none, no verdict)")
    parser.add_argument("--trace-seconds", type=float, default=20)
    parser.add_argument("--tier1", type=int, default=3, metavar="TIMES")
    parser.add_argument("--workdir", default=None, help="where the extractions go (a temporary directory)")
    args = parser.parse_args(argv)
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    revs = {s: git("rev-parse", rev) for s, rev in zip(SIDES, (args.parent, args.change))}
    record = {
        "what": "parent against change, orbitbench/run.py --trace 0 on every BENCHMARK.json "
                "workload, written by tools/bench_pairs.py",
        **{f"{s}_commit": revs[s] for s in SIDES},
        **{f"{s}_src_tree": git("rev-parse", f"{revs[s]}:src") for s in SIDES},
        "run": {"seconds": args.seconds, "trace": 0, "pairs_per_workload": args.pairs,
                "order": "even pairs run the parent first, odd pairs the change first",
                "seed_shared_within_pair": True},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-", dir=args.workdir) as tmp:
        trees = {s: Path(tmp) / s for s in SIDES}
        for side in SIDES:
            extract(revs[side], trees[side])
        conditions = None
        for k, workload in enumerate(w["name"] for w in spec["workloads"]):
            rows = []
            for i in range(args.pairs):
                seed = args.first_seed + 100 * k + i
                row = {"seed": seed, "first": SIDES[i % 2]}
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    row[side], conditions = run(trees[side], workload, seed, args.seconds, 0)
                    print(f"{workload} pair {i} {side}: " + ", ".join(
                        f"{m}={v['value']:.5g}" for m, v in row[side]["metrics"].items()),
                        flush=True)
                rows.append(row)
            record["workloads"][workload] = summarize(rows, metrics)
        record["conditions"] = {**conditions, "python": platform.python_version(),
                                "platform": platform.platform()}
        record["claim"] = None
        workload = "pipeline"
        if args.claim is not None:
            workload, name = args.claim.split(":")
            m = record["workloads"][workload]["metrics"][name]
            gap = abs(m["change"]["median"] - m["parent"]["median"])
            record["claim"] = {
                "workload": workload, "metric": name,
                "rule": "change wins >= 9 of 10 pairs and the medians differ by more than "
                        "the parent's interquartile distance",
                "met": m["change_wins"] >= 0.9 * m["pairs"] and gap > m["parent_iqr"],
            }
        record["trace"] = traced(trees, workload, args.first_seed + 10, args.trace_seconds,
                                 Path(tmp))
        record["tier1"] = tier1(trees, args.tier1)
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    worse = [f"{w}:{name}" for w, summary in record["workloads"].items()
             for name, m in summary["metrics"].items() if m["worse_than_bound"]]
    print(f"worse than the bound: {', '.join(worse) or 'none'}")
    if record["claim"] is not None:
        print(f"claim met: {record['claim']['met']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
