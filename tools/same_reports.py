"""Check that two revisions of this repository give the same reports.

    python3 tools/same_reports.py BASE_REV [CHANGE_REV]

Every request of the benchmark workloads (``orbitbench/workloads.py``:
``pipeline``, ``oracle``, ``certify`` and ``graphing``) for seeds 1-3 is
run through each side's ``orbitlab.cli.dispatch``.  Each revision is
extracted with ``git archive`` into a temporary directory; without
CHANGE_REV the change side is this checkout as it stands.  Each side runs
in its own process.  The inputs are written once, into one directory both
sides read, because input paths appear in error texts.

A request is the same on both sides when its exit code and its stderr are
byte-identical and its report is the same once parsed.  Each report is
parsed, its ``timing_ms`` set to null, and written back as
``json.dumps(report, sort_keys=True, separators=(",", ":"))``, the form
``orbitlab`` prints; stdout that is not one JSON document is compared as
it is.  Since reports are printed in that form, this is as strict as
comparing their bytes.  The script prints the count and the first
differences, and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
SHOWN = 5


def extract(rev: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def generate(directory: Path) -> list[dict]:
    """Write every workload's inputs under ``directory``; return the requests."""
    sys.path.insert(0, str(ROOT / "orbitbench"))
    import workloads

    requests = []
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            inputs = directory / f"{name}-{seed}"
            inputs.mkdir(parents=True)
            requests += [{"workload": name, "seed": seed, "kind": r.kind, "argv": r.argv}
                         for r in workloads.generate(name, seed, str(inputs))]
    return requests


def normalized(stdout: str) -> str:
    """The report in ``stdout`` with its timing blanked, or ``stdout`` itself."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return stdout
    if isinstance(report, dict) and "timing_ms" in report:
        report["timing_ms"] = None
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def serve(tree: str, requests_path: str, out_path: str) -> None:
    """Run every request through ``tree``'s dispatch; write what each gave."""
    sys.path.insert(0, str(Path(tree) / "src"))
    from orbitlab import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(tree).resolve()):
        sys.exit(f"imported {cli.__file__}, not the tree under {tree}")
    results = []
    for request in json.loads(Path(requests_path).read_text()):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.dispatch(request["argv"])
        except Exception as exc:  # an escaped exception is an outcome to compare
            rc = f"{type(exc).__name__}: {exc}"
        results.append({"rc": rc, "stderr": err.getvalue(),
                        "report": normalized(out.getvalue())})
    Path(out_path).write_text(json.dumps(results))


def run_side(tree: Path, requests_path: Path, out_path: Path) -> list[dict]:
    subprocess.run([sys.executable, __file__, "--serve", str(tree), str(requests_path),
                    str(out_path)], check=True)
    return json.loads(out_path.read_text())


def readable(part: str, value) -> list[str]:
    """``value`` as lines to diff; a report is indented so that a diff can show its keys."""
    text = str(value)
    if part == "report":
        with contextlib.suppress(ValueError):
            text = json.dumps(json.loads(text), indent=2, sort_keys=True)
    return text.splitlines()


def difference(base: dict, change: dict) -> list[str]:
    lines = []
    for part in ("rc", "stderr", "report"):
        if base[part] != change[part]:
            lines.append(f"  {part} differs")
            lines += ["    " + line.rstrip("\n") for line in list(difflib.unified_diff(
                readable(part, base[part]), readable(part, change[part]),
                "base", "change", lineterm="", n=1))[:20]]
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--serve"]:
        serve(*argv[1:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change", nargs="?", default=None,
                        help="a revision (default: this checkout as it stands)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-reports-") as tmp:
        tmp = Path(tmp)
        trees = {"base": tmp / "base", "change": tmp / "change"}
        extract(args.base, trees["base"])
        if args.change is None:
            trees["change"] = ROOT
        else:
            extract(args.change, trees["change"])
        requests = generate(tmp / "inputs")
        (tmp / "requests.json").write_text(json.dumps(requests))
        results = {side: run_side(tree, tmp / "requests.json", tmp / f"{side}.json")
                   for side, tree in trees.items()}
    differ = [i for i, (b, c) in enumerate(zip(results["base"], results["change"])) if b != c]
    codes = Counter(str(r["rc"]) for r in results["change"])
    print(f"{len(requests) - len(differ)} of {len(requests)} requests identical; change: "
          + ", ".join(f"{count} exit {rc}" for rc, count in sorted(codes.items())))
    for i in differ[:SHOWN]:
        r = requests[i]
        print(f"{r['workload']} seed {r['seed']} {r['kind']}: {' '.join(r['argv'])}")
        print("\n".join(difference(results["base"][i], results["change"][i])))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
