"""Single command line entry point with versioned JSON reports.

Machine-readable output goes to standard output as one JSON report per
invocation; a short human summary goes to standard error.  Exit codes:
0 when every certificate in the report is true, 1 when some certificate
is false, 2 on input or usage errors.

Reports are byte-identical across repeated runs with the same inputs,
except for the timing field.  The argument parser is built once per
process, on the first request, and reused by every later one.  The leading
subcommand names are looked up, so only the parser they name parses a request.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import traceback

from .core import Permutation, check_space, frac_str
from .cycles import make_cycle, orbit_sizes, validate_precycle
from .group_engine import check_join_generation, generates_full_group
from .oracle import (
    SearchSpaceTooLargeError,
    brute_min_generating_support,
    brute_min_generators,
    brute_min_graphing_cost,
)
from .pipeline import MODES, ConfigError, PipelineConfig, certificates_ok, run_pipeline
from .relations import (
    Graphing,
    Partition,
    cost_graphing,
    cost_relation,
    generate_relation,
    in_full_group,
    is_ergodic,
    join,
)

SCHEMA_VERSION = "2"


class InputError(ValueError):
    """Bad file, malformed JSON, or invalid field content: exit code 2."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path} is nested too deeply to parse") from exc


def _parse(path: str, parser, what: str):
    data = _load_json(path)
    try:
        return data, parser(data)
    except (ValueError, TypeError) as exc:
        raise InputError(f"{path} is not a valid {what}: {exc}") from exc


def _parse_relations(paths: list[str]) -> tuple[list, list[Partition]]:
    """Parse every ``--relation`` file; return their data and their partitions."""
    parsed = [_parse(path, Partition.from_json_dict, "partition") for path in paths]
    return [data for data, _ in parsed], [rel for _, rel in parsed]


def _parse_perm_list(data) -> list[Permutation]:
    try:
        perms = data["perms"]
        n = data["n"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"generator JSON needs 'n' and 'perms': {exc}") from exc
    check_space(n, "generator list 'n'")
    out = [Permutation.from_json_dict(p) for p in perms]
    for p in out:
        if p.n != n:
            raise ValueError(f"permutation on {p.n} points, header says {n}")
    return out


def _report_text(report: dict) -> str:
    """The report as one compact line with sorted keys."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def _error_text(exc: BaseException) -> str:
    """The message of ``exc``, led by the last orbitlab module but ``cli`` it went through."""
    last = None
    for frame in traceback.extract_tb(exc.__traceback__):
        fname = frame.filename.replace("\\", "/")
        if "/orbitlab/" in fname:
            stem = fname.rsplit("/", 1)[-1].removesuffix(".py")
            if stem != "cli":
                last = stem
    return f"{last}: {exc}" if last else str(exc)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top parser, and the subcommands action of each parser that has one."""
    levels = {}
    parser = argparse.ArgumentParser(
        prog="orbitlab",
        description="Exact computations on finite uniform spaces: partial "
        "injections, generated relations, full groups, chain cycles, "
        "certified generator pipelines, and brute-force oracles.",
    )
    levels[parser] = sub = parser.add_subparsers(dest="command", required=True)

    vp = sub.add_parser("validate-precycle", help="check the chain conditions")
    vp.add_argument("--in", dest="infile", required=True, metavar="GRAPHING_JSON")

    mc = sub.add_parser("make-cycle", help="close a valid chain into its cycle")
    mc.add_argument("--in", dest="infile", required=True, metavar="PRECYCLE_JSON")

    rel = sub.add_parser("relation", help="generated relations, costs, joins")
    levels[rel] = relsub = rel.add_subparsers(dest="action", required=True)
    rg = relsub.add_parser("generate")
    rg.add_argument("--graphing", required=True, metavar="GRAPHING_JSON")
    rc = relsub.add_parser("cost")
    src = rc.add_mutually_exclusive_group(required=True)
    src.add_argument("--graphing", metavar="GRAPHING_JSON")
    src.add_argument("--relation", metavar="PARTITION_JSON")
    rj = relsub.add_parser("join")
    rj.add_argument(
        "--relation",
        action="append",
        required=True,
        dest="relations",
        metavar="PARTITION_JSON",
    )

    ver = sub.add_parser("verify", help="full-group membership and generation")
    levels[ver] = versub = ver.add_subparsers(dest="action", required=True)
    vm = versub.add_parser("membership")
    vm.add_argument("--perm", required=True, metavar="PERM_JSON")
    vm.add_argument("--relation", required=True, metavar="PARTITION_JSON")
    vg = versub.add_parser("generation")
    vg.add_argument("--gens", required=True, metavar="GENS_JSON")
    vg.add_argument("--relation", required=True, metavar="PARTITION_JSON")
    vj = versub.add_parser("join-generation")
    vj.add_argument(
        "--relation",
        action="append",
        required=True,
        dest="relations",
        metavar="PARTITION_JSON",
    )

    pl = sub.add_parser("pipeline", help="build and certify generator sets")
    pl.add_argument("--n", type=int, required=True, help="number of chains")
    pl.add_argument("--N", type=int, required=True, dest="n_points", help="space size")
    pl.add_argument("--p", type=int, required=True, help="odd chain parameter")
    pl.add_argument("--m", type=int, required=True, help="block size")
    pl.add_argument("--graphing", default=None, metavar="GRAPHING_JSON")
    pl.add_argument("--mode", choices=MODES, default="both")
    pl.add_argument("--out", default=None, metavar="REPORT_JSON")

    orc = sub.add_parser("oracle", help="exhaustive searches at tiny sizes")
    levels[orc] = orcsub = orc.add_subparsers(dest="action", required=True)
    for name in ("min-cost", "min-gens", "min-support"):
        op = orcsub.add_parser(name)
        op.add_argument("--relation", required=True, metavar="PARTITION_JSON")
        if name == "min-support":
            op.add_argument("--t", type=int, required=True, help="tuple length")
        op.add_argument("--out", default=None, metavar="RESULT_JSON")

    return parser, levels


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The top parser's ``parse_args(argv)``: each leading subcommand name is
    looked up, and only the parser where that walk stops parses the rest."""
    top, levels = _build_parser()
    parser, args, i = top, argparse.Namespace(), 0
    while parser in levels and i < len(argv) and argv[i] in levels[parser].choices:
        setattr(args, levels[parser].dest, argv[i])
        parser, i = levels[parser].choices[argv[i]], i + 1
    args, extras = parser.parse_known_args(argv[i:], args)
    if extras:
        top.error("unrecognized arguments: " + " ".join(extras))
    return args


def _cmd_validate_precycle(args):
    data, graphing = _parse(args.infile, Graphing.from_json_dict, "graphing")
    try:
        pre = validate_precycle(graphing)
        cert = {"valid": True, "p": pre.p, "error": None}
        results = {"n": pre.n, "p": pre.p}
    except ValueError as exc:
        cert = {"valid": False, "p": None, "error": _error_text(exc)}
        results = {"n": graphing.n, "p": None}
    return {"in": data}, results, [{"name": "precycle_valid", "certificate": cert}]


def _cmd_make_cycle(args):
    data, graphing = _parse(args.infile, Graphing.from_json_dict, "graphing")
    pre = validate_precycle(graphing)
    cycle = make_cycle(pre)
    results = {
        "cycle": cycle.to_json_dict(),
        "orbit_sizes": list(orbit_sizes(cycle)),
        "p": pre.p,
    }
    return {"in": data}, results, []


def _cmd_relation(args):
    if args.action == "generate":
        data, graphing = _parse(args.graphing, Graphing.from_json_dict, "graphing")
        rel = generate_relation(graphing)
        results = {
            "relation": rel.to_json_dict(),
            "num_classes": rel.num_classes,
            "is_ergodic": is_ergodic(rel),
            "cost_graphing": frac_str(cost_graphing(graphing)),
            "cost_relation": frac_str(cost_relation(rel)),
        }
        inputs = {"graphing": data}
    elif args.action == "cost":
        if args.graphing is not None:
            data, graphing = _parse(args.graphing, Graphing.from_json_dict, "graphing")
            rel = generate_relation(graphing)
            results = {
                "cost_graphing": frac_str(cost_graphing(graphing)),
                "cost_relation": frac_str(cost_relation(rel)),
            }
            inputs = {"graphing": data, "relation": None}
        else:
            data, rel = _parse(args.relation, Partition.from_json_dict, "partition")
            results = {"cost_relation": frac_str(cost_relation(rel))}
            inputs = {"graphing": None, "relation": data}
    else:  # join
        datas, rels = _parse_relations(args.relations)
        joined = join(rels)
        results = {
            "relation": joined.to_json_dict(),
            "num_classes": joined.num_classes,
            "cost_relation": frac_str(cost_relation(joined)),
        }
        inputs = {"relations": datas}
    return inputs, results, []


def _cmd_verify(args):
    if args.action == "membership":
        pdata, perm = _parse(args.perm, Permutation.from_json_dict, "permutation")
        rdata, rel = _parse(args.relation, Partition.from_json_dict, "partition")
        cert = {"in_full_group": in_full_group(perm, rel)}
        inputs = {"perm": pdata, "relation": rdata}
        return inputs, {}, [{"name": "membership", "certificate": cert}]
    if args.action == "generation":
        gdata, gens = _parse(args.gens, _parse_perm_list, "generator list")
        rdata, rel = _parse(args.relation, Partition.from_json_dict, "partition")
        _, cert = generates_full_group(gens, rel)
        inputs = {"gens": gdata, "relation": rdata}
        return inputs, {}, [{"name": "generation", "certificate": cert}]
    # join-generation
    datas, rels = _parse_relations(args.relations)
    _, cert = check_join_generation(rels)
    inputs = {"relations": datas}
    return inputs, {}, [{"name": "join_generation", "certificate": cert}]


def _cmd_pipeline(args):
    gdata = graphing = None
    if args.graphing is not None:
        gdata, graphing = _parse(args.graphing, Graphing.from_json_dict, "graphing")
    try:
        config = PipelineConfig(
            n_cycles=args.n,
            n_points=args.n_points,
            p=args.p,
            m=args.m,
            graphing=graphing,
        )
    except ConfigError as exc:
        raise InputError(f"pipeline: {exc}") from exc
    report = run_pipeline(config, mode=args.mode)
    certificates = []
    for name, value in report.certificates.items():
        if name == "isopgen":
            for i, cert in enumerate(value, start=1):
                certificates.append({"name": f"isopgen_cycle_{i}", "certificate": cert})
        else:
            certificates.append({"name": name, "certificate": value})
    inputs = {
        "n": args.n,
        "N": args.n_points,
        "p": args.p,
        "m": args.m,
        "mode": args.mode,
        "graphing": gdata,
    }
    return inputs, report.to_json_dict(), certificates


def _cmd_oracle(args):
    data, rel = _parse(args.relation, Partition.from_json_dict, "partition")
    try:
        if args.action == "min-cost":
            result = brute_min_graphing_cost(rel)
        elif args.action == "min-gens":
            result = brute_min_generators(rel)
        else:
            result = brute_min_generating_support(rel, args.t)
    except SearchSpaceTooLargeError as exc:
        raise InputError(f"oracle: {exc}") from exc
    inputs = {"relation": data}
    if args.action == "min-support":
        inputs["t"] = args.t
    return inputs, result.to_json_dict(), []


_HANDLERS = {
    "validate-precycle": _cmd_validate_precycle,
    "make-cycle": _cmd_make_cycle,
    "relation": _cmd_relation,
    "verify": _cmd_verify,
    "pipeline": _cmd_pipeline,
    "oracle": _cmd_oracle,
}


def dispatch(argv: list[str]) -> int:
    """Parse arguments, run the command, and print the JSON report."""
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    command = args.command
    if getattr(args, "action", None):
        command = f"{args.command} {args.action}"

    start = time.perf_counter()
    try:
        inputs, results, certificates = _HANDLERS[args.command](args)
    except InputError as exc:
        return _fail(command, str(exc))
    except (ValueError, KeyError, TypeError) as exc:
        return _fail(command, _error_text(exc))

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "certificates": certificates,
        "timing_ms": round((time.perf_counter() - start) * 1000, 3),
    }
    text = _report_text(report)
    out_path = getattr(args, "out", None)
    # Write the file first, so that stdout holds exactly one report.
    if out_path is not None:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _fail(command, f"cannot write {out_path}: {exc}")
    print(text)
    ok = certificates_ok(certificates)
    status = "all certificates true" if ok else "FALSE certificate present"
    if not certificates:
        status = "no certificates"
    print(
        f"orbitlab {command}: {len(certificates)} certificate(s); {status}",
        file=sys.stderr,
    )
    return 0 if ok else 1


def _fail(command: str, message: str) -> int:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "error": message,
    }
    print(_report_text(report))
    print(f"orbitlab {command}: error: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
