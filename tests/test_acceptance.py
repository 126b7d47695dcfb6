"""Acceptance gate: nine budgeted criteria, exact arithmetic throughout.

Each criterion is one test, so `pytest -v` prints one pass/fail line per
criterion.  Randomized suites use fixed seeds; every equality is exact
(Fraction or integer), never approximate.  Suites 2-6 record the
generating tuples they certify, and criterion 7 checks the support-sum
lower bound on all of them.
"""

import json
import random
import re
import time
from fractions import Fraction

from helpers import all_partitions, random_partition, random_precycle
from orbitlab import (
    Graphing,
    Partition,
    Permutation,
    PipelineConfig,
    brute_min_generating_support,
    brute_min_generators,
    brute_min_graphing_cost,
    build_matui_pair,
    check_join_generation,
    conjugate_partial,
    cost_relation,
    full_group_generators,
    generate_relation,
    generates_full_group,
    isopgen_generators,
    join,
    make_cycle,
    orbit_sizes,
    run_pipeline,
    support_measure,
    uniform_distance,
)
from orbitlab.cli import dispatch
from orbitlab.pipeline import certificates_ok

# (label, generating tuple, relation) triples recorded by suites 2-6 and
# consumed by the criterion-7 lower-bound check.
RECORDS: list[tuple[str, tuple[Permutation, ...], Partition]] = []


def _record(label: str, gens, relation: Partition) -> None:
    RECORDS.append((label, tuple(gens), relation))


def _passed(num: int, detail: str) -> None:
    print(f"PASS criterion {num}: {detail}")


def test_criterion_1_cycle_structure():
    budget = 5.0
    start = time.perf_counter()
    rng = random.Random(10_001)
    for _ in range(1000):
        pre = random_precycle(rng, n_max=64, p_max=9)
        p = pre.p
        cycle = make_cycle(pre)
        assert set(orbit_sizes(cycle)) <= {1, p}
        for phi in pre.maps:
            # the cycle restricted to dom(phi) is exactly phi
            for s, t in phi.pairs:
                assert cycle(s) == t
        for j in range(len(pre.maps) - 1):
            assert conjugate_partial(cycle, pre.maps[j]) == pre.maps[j + 1]
        assert cycle ** p == Permutation.identity(pre.n)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _passed(1, f"1000 random chains, orbit/restriction/conjugation exact "
               f"({elapsed:.2f}s < {budget}s)")


def test_criterion_2_isopgen():
    budget = 30.0
    start = time.perf_counter()
    rng = random.Random(20_002)
    checked = 0
    for _ in range(200):
        pre = random_precycle(rng, n_max=24, p_max=9)
        rel = generate_relation(pre.as_graphing())
        for i in range(1, len(pre.maps) + 1):
            gens = isopgen_generators(pre, i)
            assert generates_full_group(gens, rel)[0]
            _record(f"isopgen chain index {i}", gens, rel)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _passed(2, f"200 random chains, {checked} generator sets reach the exact "
               f"full-group order ({elapsed:.2f}s < {budget}s)")


def test_criterion_3_join_generation():
    budget = 30.0
    start = time.perf_counter()
    rng = random.Random(30_003)
    for _ in range(300):
        n = rng.randint(2, 8)
        rels = [random_partition(rng, n) for _ in range(rng.randint(1, 4))]
        ok, cert = check_join_generation(rels)
        assert ok and cert["generates"] is True
        gens = tuple(g for rel in rels for g in full_group_generators(rel))
        _record("join generation", gens, join(rels))
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _passed(3, f"300 random families generate their join's full group "
               f"({elapsed:.2f}s < {budget}s)")


def test_criterion_4_minimum_cost():
    budget = 60.0
    start = time.perf_counter()
    checked = 0
    for n in range(1, 7):
        for rel in all_partitions(n):
            res = brute_min_graphing_cost(rel)
            assert res.optimum == Fraction(n - rel.num_classes, n)
            assert res.exhaustive
            checked += 1
    assert checked == 278  # Bell numbers B(1)..B(6)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _passed(4, f"all {checked} partitions of up to 6 points: exhaustive "
               f"minimum equals (N - #classes)/N ({elapsed:.2f}s < {budget}s)")


def test_criterion_5_cycle_transposition_pair():
    budget = 10.0
    start = time.perf_counter()
    for n in range(3, 31):
        t0, u0 = build_matui_pair(n)
        assert support_measure(u0) == Fraction(2, n)
        single = Partition.single_class(n)
        ok, cert = generates_full_group([t0, u0], single)
        assert ok and cert["generates"] is True
        _record("cycle+transposition pair", (t0, u0), single)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _passed(5, f"pairs certified for N = 3..30, support measure exactly 2/N "
               f"({elapsed:.2f}s < {budget}s)")


def test_criterion_6_pipeline():
    budget = 60.0
    start = time.perf_counter()
    configs = [(1, 3, 1, 10), (1, 5, 2, 40), (2, 3, 2, 40), (3, 3, 1, 30)]
    for n, p, m, n_points in configs:
        config = PipelineConfig(n_cycles=n, n_points=n_points, p=p, m=m)
        report = run_pipeline(config, mode="both")
        certs = report.certificates
        assert certs["full_set"]["generates"] is True
        assert certs["reduced_set"]["generates"] is True
        assert certs["mode_b"]["generates"] is True
        assert certs["power_identities"] == {
            "u1_pow_p_plus_2_equals_u0": True,
            "u1_pow_p_plus_3_equals_c1": True,
        }
        assert certificates_ok(report.certificates)
        gs = report.generators
        assert gs.u1 ** (p + 2) == gs.u0
        assert gs.u1 ** (p + 3) == gs.cycles[0]
        assert len(gs.full_set()) == n + 2
        assert len(gs.reduced_set()) == n + 1

        single = Partition.single_class(n_points)
        label = f"(n={n}, p={p}, m={m}, N={n_points})"
        _record(f"pipeline full set {label}", gs.full_set(), single)
        _record(f"pipeline reduced set {label}", gs.reduced_set(), single)
        joined = join(
            [generate_relation(pre.as_graphing()) for pre in report.precycles]
        )
        psi_gens = full_group_generators(
            generate_relation(Graphing(n_points, (gs.psi,)))
        )
        _record("pipeline mode b", gs.cycles + psi_gens, joined)
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _passed(6, f"4 configurations, all certificates and power identities "
               f"exact ({elapsed:.2f}s < {budget}s)")


def test_criterion_7_support_lower_bound():
    assert RECORDS, "suites 2-6 must run first and record their tuples"
    for label, gens, relation in RECORDS:
        identity = Permutation.identity(relation.n)
        total = sum(
            (uniform_distance(g, identity) for g in gens), start=Fraction(0)
        )
        assert total >= cost_relation(relation), label
    _passed(7, f"support-sum lower bound holds on all {len(RECORDS)} "
               f"recorded generating tuples")


def test_criterion_8_support_oracle():
    budget = 300.0
    start = time.perf_counter()
    sym4 = Partition.single_class(4)
    res = brute_min_generating_support(sym4, 2)
    assert res.optimum == Fraction(5, 4)
    assert res.exhaustive is True
    assert res.comparison == {
        "relation_cost": "3/4",
        "gap": "1/2",
        "strictly_above_cost": True,
    }
    gens = brute_min_generators(sym4)
    assert gens.optimum == 2
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _passed(8, f"minimum support 5/4 strictly above cost 3/4, minimum tuple "
               f"size 2 ({elapsed:.2f}s < {budget}s)")


def test_criterion_9_determinism(capsys, tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    chain = write(
        "chain.json",
        {"n": 6, "maps": [{"n": 6, "pairs": [[0, 2]]}, {"n": 6, "pairs": [[2, 4]]}]},
    )
    graphing = write("g.json", {"n": 4, "maps": [{"n": 4, "pairs": [[0, 1], [1, 2]]}]})
    sym4 = write("sym4.json", {"n": 4, "classes": [[0, 1, 2, 3]]})

    invocations = [
        ["validate-precycle", "--in", chain],
        ["make-cycle", "--in", chain],
        ["relation", "generate", "--graphing", graphing],
        ["verify", "join-generation", "--relation", sym4, "--relation", sym4],
        ["oracle", "min-support", "--relation", sym4, "--t", "2"],
        ["pipeline", "--n", "1", "--N", "12", "--p", "3", "--m", "1"],
    ]
    for argv in invocations:
        runs = []
        for _ in range(2):
            code = dispatch(argv)
            out = capsys.readouterr().out
            out = re.sub(r'"timing_ms": ?[0-9.]+', '"timing_ms": 0', out)
            runs.append((code, out))
        assert runs[0] == runs[1], argv

    # library-level reports repeat byte for byte
    config = PipelineConfig(n_cycles=1, n_points=16, p=3, m=1)
    dumps = [
        json.dumps(run_pipeline(config).to_json_dict(), sort_keys=True)
        for _ in range(2)
    ]
    assert dumps[0] == dumps[1]
    results = [
        json.dumps(
            brute_min_generating_support(Partition.single_class(4), 2).to_json_dict(),
            sort_keys=True,
        )
        for _ in range(2)
    ]
    assert results[0] == results[1]

    # seeded random suites replay identically
    def digest():
        rng = random.Random(10_001)
        sink = []
        for _ in range(50):
            pre = random_precycle(rng, n_max=64, p_max=9)
            sink.append(json.dumps(pre.to_json_dict(), sort_keys=True))
            sink.append(json.dumps(make_cycle(pre).to_json_dict(), sort_keys=True))
        return "\n".join(sink)

    assert digest() == digest()
    _passed(9, "repeated CLI and library reports byte-identical with the "
               "timing field normalized")
