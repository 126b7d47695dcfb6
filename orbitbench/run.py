"""orbitlab benchmark: a closed loop of CLI requests, one client, in process.

    python3 orbitbench/run.py --workload pipeline --seed 1 --seconds 50 --trace 0
    python3 orbitbench/run.py --all --seed 1 --seconds 10

Run from the root of an orbitlab checkout.  Each request goes through
``orbitlab.cli.dispatch(argv)`` with stdout and stderr captured; its JSON
report is parsed and then checked against an answer known independently of
orbitlab (see workloads.py).  A request fails on a wrong answer, an
unexpected exit code, an unparseable report or an exception.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs one untimed warm-up round, then whole rounds untraced
for half the time, then the same rounds again with every layer wrapped (see
layers.py), and reports the per-layer metrics plus the tracing overhead
(traced wall minus untraced wall).
``--all`` runs every workload in its own process, both ways, and prints
every metric by name with its unit.

The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers  # this directory is on sys.path when run as a script
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Set-up runs three times before the measured rounds and twice after them,
# so that its median samples two moments of the run.
SETUP_BEFORE, SETUP_AFTER = 3, 2
TAIL_BEYOND = 10


def fresh_cli():
    """Import orbitlab.cli anew: every orbitlab module and cache starts empty."""
    for name in [m for m in sys.modules if m == "orbitlab" or m.startswith("orbitlab.")]:
        del sys.modules[name]
    return importlib.import_module("orbitlab.cli")


def set_up(workload: str, seed: int, directory: Path, reps: int, times: list[float]):
    """Import orbitlab.cli and generate the inputs ``reps`` times.

    Appends each set-up time to ``times``; returns the last import and the
    last requests.  Each repetition writes into an emptied directory:
    overwriting the previous files costs more, and more erratically, than
    creating them.
    """
    for _ in range(reps):
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        gc.collect()  # the previous repetition's modules and inputs are garbage now
        start = time.perf_counter()
        cli = fresh_cli()
        requests = workloads.generate(workload, seed, str(directory))
        times.append(time.perf_counter() - start)
    return cli, requests


def settle() -> None:
    """Exempt everything alive now (inputs, expected answers, modules) from
    the cyclic collector, so that the benchmark's own data does not lengthen
    the collections that run inside requests."""
    gc.collect()
    gc.freeze()


def send(cli, request):
    """One request: returns (latency seconds, failure reason or None)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.dispatch(request.argv)
        report = json.loads(out.getvalue())
    except Exception as exc:  # every exception is a failed request
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    try:
        return latency, request.verify(rc, report)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return latency, f"malformed report: {type(exc).__name__}: {exc}"


class Loop:
    """Closed loop, one client: the next request starts when one ends.

    The loop runs whole rounds of the workload's request list, so the mix
    is the same in every run; it stops after the round that crosses the
    time limit.
    """

    def __init__(self, cli, requests, tracer=None):
        self.cli, self.requests, self.tracer = cli, requests, tracer
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.round_walls: list[float] = []
        self.wall = 0.0

    def run(self, seconds: float = float("inf"), rounds: int | None = None) -> int:
        """Whole rounds until ``seconds`` have passed or ``rounds`` are done."""
        start = time.perf_counter()
        done = 0
        while (done < rounds) if rounds is not None else (time.perf_counter() - start < seconds):
            round_start = time.perf_counter()
            for request in self.requests:
                if self.tracer is not None:
                    self.tracer.request = len(self.latencies)
                latency, problem = send(self.cli, request)
                self.latencies.append(latency)
                if problem is not None:
                    self.failures.append(f"{request.kind}: {problem}")
            self.round_walls.append(time.perf_counter() - round_start)
            done += 1
        self.wall = time.perf_counter() - start
        return done


def tail(latencies):
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def conditions() -> dict:
    nproc = None
    if shutil.which("nproc"):
        done = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10)
        nproc = int(done.stdout) if done.returncode == 0 else None
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "ORBITLAB_THREADS": os.environ.get("ORBITLAB_THREADS", "unset"),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    if not (ROOT / "src" / "orbitlab" / "cli.py").is_file():
        print(f"error: no orbitlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times: list[float] = []
        cli, requests = set_up(args.workload, args.seed, work, SETUP_BEFORE, setup_times)
        settle()
        if not args.trace:
            plain = Loop(cli, requests)
            plain.run(seconds=args.seconds)
            set_up(args.workload, args.seed, work, SETUP_AFTER, setup_times)
            loops = [plain]
            p50 = statistics.median(plain.latencies)
            tail_s, tail_pct = tail(plain.latencies)
            metrics = {
                "setup_s": metric(statistics.median(setup_times), "s"),
                # the median round, so a burst of machine noise shorter than
                # half the run does not move it
                "throughput_rps": metric(
                    len(requests) / statistics.median(plain.round_walls), "1/s"),
                "latency_p50_s": metric(p50, "s"),
                "latency_tail_s": metric(tail_s, "s"),
                "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            note = f"latency_tail_s is p{tail_pct:.1f} of {len(plain.latencies)} samples"
        else:
            # One untimed round warms the process (heap, lazily imported
            # modules); both timed passes then start from a fresh import.
            warm = Loop(cli, requests)
            warm.run(rounds=1)
            plain = Loop(fresh_cli(), requests)
            rounds = plain.run(seconds=args.seconds / 2)
            cli = fresh_cli()
            tracer = layers.Tracer()
            tracer.install()
            settle()
            traced = Loop(cli, requests, tracer)
            traced.run(rounds=rounds)
            loops = [warm, plain, traced]
            per_layer = layers.per_layer_metrics(tracer, traced.wall, plain.wall)
            metrics = {name: metric(v, u) for name, (v, u) in per_layer.items()}
            out = BENCH / ".out"
            out.mkdir(exist_ok=True)
            spans = out / f"spans-{args.workload}-{args.seed}.tsv"
            tracer.write(str(spans))
            note = f"{len(tracer.spans)} spans in {spans.relative_to(ROOT)}"
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (BENCH / ".work").rmdir()
    attempted = sum(len(loop.latencies) for loop in loops)
    failed = sum(len(loop.failures) for loop in loops)
    for loop in loops:
        for failure in loop.failures[:5]:
            print(f"FAILED {failure}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} {note}; fail_ratio={failed / attempted:.6g} "
          f"({failed}/{attempted}); closed loop, 1 client")
    print(f"# conditions {json.dumps(conditions(), sort_keys=True)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_process(workload: str, seed: int, seconds: float, trace: int):
    """Run one workload in a process of its own and wait for it.

    Returns the result object and the comment lines printed before it, or
    None after reporting a failed run on stderr.
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
        return None
    return json.loads(lines[-1]), lines[:-1]


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced; one table."""
    status = 0
    print(f"{'workload':<9} {'metric':<34} {'value':>14}  unit")
    for name in workloads.WORKLOADS:
        for flag in (0, 1):
            outcome = run_process(name, args.seed, args.seconds, flag)
            if outcome is None or not outcome[0]["correct"]:
                status = 1
            if outcome is None:
                continue
            result, comments = outcome
            print("\n".join(comments))
            for key, m in result["metrics"].items():
                print(f"{name:<9} {key:<34} {m['value']:>14.6g}  {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, both ways")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required without --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
