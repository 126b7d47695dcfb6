"""Layer spans recorded from outside the program.

``Tracer.install`` wraps the public functions and public methods of every
orbitlab module (the layers) and rebinds each wrapped function wherever a
module holds it: ``from .x import f`` copies a binding, so
``pipeline.generates_full_group`` and ``cli.generates_full_group`` are
patched alongside ``group_engine.generates_full_group``.  ``cli.json`` is
replaced by a copy whose ``load`` and ``dumps`` are traced, which times
JSON in and out as the CLI looks them up.

Spans stay in memory as ``(name, start, end, parent, request id)`` and are
written out when the run ends.  Calls made inside the oracle's worker
processes run in other processes, so their spans never reach this one: the
parent only sees the ``oracle`` span that waited for them.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

LAYERS = ("core", "relations", "cycles", "group_engine", "pipeline", "oracle", "cli")

# Operator methods that are layer operations in their own right.
OPERATORS = {("core", "Permutation"): ("__mul__", "__pow__")}

CERTIFY = ("group_engine.generates_full_group", "group_engine.check_join_generation")


def _count_gens(tracer, args):
    gens = list(args[0])
    tracer.counters["group_engine.gens_in"] += len(gens)
    return (gens,) + args[1:]


def _count_points(points):
    def prep(tracer, args):
        tracer.counters["relations.points"] += points(args)
        return args

    return prep


def _count_candidates(tracer, result):
    tracer.counters["oracle.candidates"] += result.search_space_size


def _count_bytes(tracer, text):
    tracer.counters["cli.report_bytes"] += len(text)


# name -> (prep(tracer, args) -> args, post(tracer, result))
HOOKS = {
    "group_engine.group_from_generators": (_count_gens, None),
    "relations.generate_relation": (_count_points(lambda a: a[0].n), None),
    "relations.join": (_count_points(lambda a: a[0][0].n if a[0] else 0), None),
    "relations.Partition.from_pairs": (_count_points(lambda a: a[1]), None),  # a[0] is the class
    "oracle.brute_min_graphing_cost": (None, _count_candidates),
    "oracle.brute_min_generators": (None, _count_candidates),
    "oracle.brute_min_generating_support": (None, _count_candidates),
    "cli.json.dumps": (None, _count_bytes),
}


class Tracer:
    """Wraps the layers of one imported orbitlab and keeps their spans."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.request = -1
        self.counters: dict[str, int] = defaultdict(int)
        self._refusal = ()  # the oracle's size-cap error, once installed

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        prep, post = HOOKS.get(name, (None, None))
        refusal = self._refusal if name.startswith("oracle.") else ()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prep is not None:
                args = prep(self, args)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except refusal:
                self.counters["oracle.refusals"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.request)
            if post is not None:
                post(self, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer of the imported orbitlab."""
        modules = {name: sys.modules[f"orbitlab.{name}"] for name in LAYERS}
        self._refusal = modules["oracle"].SearchSpaceTooLargeError
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    replaced[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif isinstance(obj, type) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        for modname, mod in list(sys.modules.items()):
            if modname == "orbitlab" or modname.startswith("orbitlab."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in replaced:
                        setattr(mod, attr, replaced[id(obj)])
        timed_json = types.SimpleNamespace(**vars(modules["cli"].json))
        timed_json.load = self.wrap("cli.json.load", timed_json.load)
        timed_json.dumps = self.wrap("cli.json.dumps", timed_json.dumps)
        modules["cli"].json = timed_json

    def _wrap_class(self, layer, cls):
        extra = OPERATORS.get((layer, cls.__name__), ())
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, member.__func__)))
            elif isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, member.__func__)))
            elif isinstance(member, types.FunctionType):
                setattr(cls, attr, self.wrap(name, member))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\trequest\n")
            for sid, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{request}\n")


def layer_times(spans) -> dict[str, dict[str, float]]:
    """Per layer: calls, busy seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time sums that over its spans, so it is the
    time during which the layer was the innermost one running.  Busy time
    is inclusive: the durations of the layer's spans that have no ancestor
    in the same layer, so re-entry (A -> B -> A) is not counted twice.
    Parents always precede their children in ``spans``.
    """
    bit = {layer: 1 << i for i, layer in enumerate(LAYERS)}
    out = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    child = [0.0] * len(spans)
    mask = [0] * len(spans)
    for sid, (name, start, end, parent, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        duration = end - start
        above = mask[parent] if parent >= 0 else 0
        mask[sid] = above | bit[layer]
        if parent >= 0:
            child[parent] += duration
        stats = out[layer]
        stats["calls"] += 1
        if not above & bit[layer]:
            stats["busy_s"] += duration
    for sid, (name, start, end, _, _) in enumerate(spans):
        out[name.split(".", 1)[0]]["self_s"] += (end - start) - child[sid]
    return out


def per_layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Every per-layer metric of the traced pass, as ``name -> (value, unit)``."""
    spans = tracer.spans
    layers = layer_times(spans)
    metrics = {}
    for layer, stats in layers.items():
        metrics[f"{layer}.calls"] = (stats["calls"], "count")
        metrics[f"{layer}.busy_s"] = (stats["busy_s"], "s")
        metrics[f"{layer}.self_s"] = (stats["self_s"], "s")
        metrics[f"{layer}.self_share"] = (stats["self_s"] / traced_wall, "ratio")

    def durations(*names):
        return [end - start for name, start, end, _, _ in spans if name in names]

    def per_s(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    counters = tracer.counters
    builds = durations("group_engine.group_from_generators")
    certify = durations(*CERTIFY)
    metrics["group_engine.chain_builds"] = (len(builds), "count")
    metrics["group_engine.chain_build_s"] = (sum(builds), "s")
    metrics["group_engine.certify_max_s"] = (max(certify, default=0.0), "s")
    metrics["group_engine.gens_in"] = (counters["group_engine.gens_in"], "count")
    points = counters["relations.points"]
    metrics["relations.points"] = (points, "count")
    metrics["relations.points_per_s"] = (per_s(points, layers["relations"]["busy_s"]), "1/s")
    candidates = counters["oracle.candidates"]
    metrics["oracle.candidates"] = (candidates, "count")
    metrics["oracle.candidates_per_s"] = (per_s(candidates, layers["oracle"]["busy_s"]), "1/s")
    metrics["oracle.refusals"] = (counters["oracle.refusals"], "count")
    metrics["cli.json_in_s"] = (sum(durations("cli.json.load")), "s")
    metrics["cli.json_out_s"] = (sum(durations("cli.json.dumps")), "s")
    metrics["cli.report_bytes"] = (counters["cli.report_bytes"], "bytes")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics
