"""Self-test of the benchmark's span arithmetic and layer patching.

    python3 orbitbench/selftest.py

The first test feeds hand-built spans, whose busy and self times are known,
through ``layers.layer_times`` and ``layers.per_layer_metrics``.  The second
installs a tracer on the orbitlab sources next to this directory and checks
that every copy of a wrapped function was rebound.
"""

from __future__ import annotations

import importlib
import json
import sys
import unittest
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent

# (name, start, end, parent, request): a cli request that runs the pipeline,
# which certifies through the engine, calls core operators, re-enters the
# pipeline from inside core, and finally serializes its report.
SPANS = [
    ("cli.dispatch", 0.0, 10.0, -1, 0),                          # 0
    ("pipeline.run_pipeline", 1.0, 9.0, 0, 0),                   # 1
    ("group_engine.generates_full_group", 2.0, 6.0, 1, 0),       # 2
    ("group_engine.group_from_generators", 2.5, 5.5, 2, 0),      # 3
    ("core.Permutation.__mul__", 3.0, 4.0, 3, 0),                # 4
    ("pipeline.merge_generators", 6.5, 8.0, 1, 0),               # 5
    ("core.Permutation.__pow__", 7.0, 7.5, 5, 0),                # 6
    ("pipeline.split_graphing", 7.1, 7.3, 6, 0),                 # 7
    ("cli.json.dumps", 9.2, 9.8, 0, 0),                          # 8
]


class SpanArithmetic(unittest.TestCase):
    def test_layer_times(self):
        got = layers.layer_times(SPANS)
        want = {
            # self: 10 - (8 + 0.6) for dispatch, plus 0.6 for dumps
            "cli": (2, 10.0, 2.0),
            # busy: only the outer pipeline span; self: 8 - 4 - 1.5, 1.5 - 0.5, 0.2
            "pipeline": (3, 8.0, 3.7),
            "group_engine": (2, 4.0, 1.0 + 2.0),
            "core": (2, 1.5, 1.0 + 0.3),
            "relations": (0, 0.0, 0.0),
        }
        for layer, (calls, busy, own) in want.items():
            stats = got[layer]
            self.assertEqual(stats["calls"], calls, layer)
            self.assertAlmostEqual(stats["busy_s"], busy, places=9, msg=layer)
            self.assertAlmostEqual(stats["self_s"], own, places=9, msg=layer)
        # self times partition the root span
        self.assertAlmostEqual(sum(s["self_s"] for s in got.values()), 10.0, places=9)

    def test_per_layer_metrics(self):
        tracer = layers.Tracer()
        tracer.spans.extend(SPANS)
        metrics = layers.per_layer_metrics(tracer, traced_wall=10.0, untraced_wall=9.0)
        self.assertEqual(set(metrics), {m["name"] for m in _spec()["per_layer"]})
        value = {name: v for name, (v, _) in metrics.items()}
        self.assertAlmostEqual(value["cli.self_share"], 0.2)
        self.assertAlmostEqual(value["cli.json_out_s"], 0.6)
        self.assertEqual(value["group_engine.chain_builds"], 1)
        self.assertAlmostEqual(value["group_engine.chain_build_s"], 3.0)
        self.assertAlmostEqual(value["group_engine.certify_max_s"], 4.0)
        self.assertAlmostEqual(value["trace.overhead_s"], 1.0)


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@unittest.skipUnless((ROOT / "src" / "orbitlab").is_dir(), "needs the orbitlab sources")
class Patching(unittest.TestCase):
    def test_every_binding_is_wrapped(self):
        sys.path.insert(0, str(ROOT / "src"))
        for name in [m for m in sys.modules if m.startswith("orbitlab")]:
            del sys.modules[name]
        cli = importlib.import_module("orbitlab.cli")
        engine = sys.modules["orbitlab.group_engine"]
        pipeline = sys.modules["orbitlab.pipeline"]
        package = sys.modules["orbitlab"]
        original = engine.generates_full_group
        tracer = layers.Tracer()
        tracer.install()
        wrapped = engine.generates_full_group
        self.assertIsNot(wrapped, original)
        self.assertIs(wrapped.__wrapped__, original)
        for module in (cli, pipeline, package):
            self.assertIs(module.generates_full_group, wrapped)
        relation = package.Partition.single_class(3)
        gens = package.full_group_generators(relation)
        ok, _ = pipeline.generates_full_group(list(gens), relation)
        self.assertTrue(ok)
        names = [span[0] for span in tracer.spans]
        self.assertIn("group_engine.generates_full_group", names)
        self.assertIn("group_engine.group_from_generators", names)
        self.assertEqual(tracer.counters["group_engine.gens_in"], len(gens))


if __name__ == "__main__":
    unittest.main()
