"""Seeded inputs for the four benchmark workloads, each with its known answer.

Every request is a CLI argument list for ``orbitlab.cli.dispatch`` plus a
``verify`` function that checks the exit code and the parsed JSON report.
Expected answers never come from orbitlab: they follow from how the input
was built (generating sets and graphings with known classes), from closed
forms (factorial group orders, ``(N-k)/N`` costs, 0/1/2 generators), or
from small checks written here (union-find, naive closure, orbit walks).

Each workload is one fixed multiset of request shapes.  The seed only
relabels points, draws the random parts of the inputs and shuffles the
order, so different seeds give comparable work.  One list is one round;
the closed loop runs whole rounds, so every run has the same mix.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

Report = dict
Check = Callable[[int, Report], "str | None"]


@dataclass(frozen=True)
class Request:
    kind: str
    argv: list[str]
    verify: Check


class InputDir:
    """Writes the generated input files; the program sees only these."""

    def __init__(self, path: str):
        self.path = path
        self.count = 0

    def write(self, obj) -> str:
        self.count += 1
        name = os.path.join(self.path, f"in{self.count:05d}.json")
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(obj, separators=(",", ":")))  # dumps has the C encoder
        return name


# ----------------------------------------------------------------- helpers


def frac(num: int, den: int) -> str:
    """A rational as the program prints it: always ``num/den``, reduced."""
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}"


def frac_of(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def from_cycles(n: int, cycles) -> list[int]:
    images = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return images


def perm_json(images) -> dict:
    return {"n": len(images), "images": list(images)}


def canonical(classes) -> list[list[int]]:
    """Classes as the program lists them: sorted, ordered by least point."""
    return sorted(sorted(c) for c in classes)


def uf_classes(n: int, pairs) -> list[list[int]]:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    buckets: dict[int, list[int]] = {}
    for x in range(n):
        buckets.setdefault(find(x), []).append(x)
    return [buckets[r] for r in sorted(buckets)]


def class_pairs(classes):
    return [(c[i], c[i + 1]) for c in classes for i in range(len(c) - 1)]


def fact_prod(sizes) -> int:
    return math.prod(math.factorial(s) for s in sizes)


def naive_order(gens, n: int) -> int:
    """Size of the group the image lists generate, by breadth-first closure."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    raw = [tuple(g) for g in gens]
    while frontier:
        nxt = []
        for p in frontier:
            for g in raw:
                q = tuple(g[x] for x in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def is_permutation(images, n: int) -> bool:
    return (
        isinstance(images, list)
        and len(images) == n
        and sorted(images) == list(range(n))
    )


def preserves(images, classes) -> bool:
    cid = {}
    for i, c in enumerate(classes):
        for x in c:
            cid[x] = i
    return all(cid[x] == cid[y] for x, y in enumerate(images))


def split(points, sizes):
    out, at = [], 0
    for s in sizes:
        out.append(points[at : at + s])
        at += s
    return out


def shuffled_classes(rng: random.Random, classes):
    """The same partition, listed in a random class and point order."""
    listed = [rng.sample(c, len(c)) for c in classes]
    rng.shuffle(listed)
    return listed


def expect_report(want_rc: int, body: Callable[[Report], "str | None"]) -> Check:
    def verify(rc: int, report: Report):
        if rc != want_rc:
            return f"exit code {rc}, expected {want_rc}: {report.get('error')}"
        return body(report)

    return verify


def certificate(order: int, full: int) -> dict:
    return {
        "in_full_group": True,
        "generated_order": str(order),
        "full_group_order": str(full),
        "generates": order == full,
    }


def expect_certificates(want) -> Callable[[Report], "str | None"]:
    def body(report):
        got = report.get("certificates")
        if got != want:
            return f"certificates {got!r}, expected {want!r}"
        return None

    return body


# ----------------------------------------------------------------- certify

# (kind, N, class sizes, parameter, instances a round).  Six positive and
# five negative shapes; the negatives keep every generator inside its
# class, so only the generated order tells them apart.  Engine work depends
# on the labels, so each shape appears in several independently labelled
# instances; the slowest shape, one class of 24, has the most, and fills
# the latency tail.
CERTIFY_SHAPES = (
    ("standard", 8, (8,), None, 3),
    ("standard", 20, (10, 6, 4), None, 3),
    ("hidden", 24, (24,), None, 6),
    ("hidden", 18, (9, 9), None, 3),
    ("extra", 16, (16,), None, 3),
    ("join", 22, (14, 8), None, 3),
    ("even", 22, (22,), None, 3),
    ("intransitive", 20, (20,), 12, 3),
    ("intransitive", 24, (12, 12), 7, 3),
    ("imprimitive", 24, (24,), 6, 3),
    ("imprimitive", 18, (12, 6), 4, 3),
)


def standard(c):
    """Full cycle plus first transposition: generates Sym(c)."""
    if len(c) < 2:
        return []
    if len(c) == 2:
        return [[c]]
    return [[c], [c[:2]]]


def _gens_standard(rng, n, classes, _):
    return [g for c in classes for g in standard(c)], fact_prod(map(len, classes))


def _gens_hidden(rng, n, classes, _):
    # u = (a b) * odd cycle on disjoint points; u^q = (a b) for the odd
    # length q, so <cycle, u> still holds the transposition.
    first, last = classes[0], classes[-1]
    odd = first[2:5] if len(classes) == 1 else last[:5]
    gens = [[first], [first[:2], odd]]
    for c in classes[1:]:
        gens.extend(standard(c))
    return gens, fact_prod(map(len, classes))


def _gens_extra(rng, n, classes, _):
    gens, order = _gens_standard(rng, n, classes, None)
    for _ in range(2):
        images = list(range(n))
        for c in classes:
            for a, b in zip(c, rng.sample(c, len(c))):
                images[a] = b
        gens.append(images)
    return gens, order


def _gens_even(rng, n, classes, _):
    # A_k = <(c0 c1 c2), (c0 .. c_{k-1})> for odd k, <(c0 c1 c2), (c1 .. c_{k-1})>
    # for even k; every generator is even on every class.
    gens = []
    for c in classes:
        gens.append([c[:3]])
        gens.append([c] if len(c) % 2 else [c[1:]])
    return gens, math.prod(math.factorial(len(c)) // 2 for c in classes)


def _gens_intransitive(rng, n, classes, cut):
    first = classes[0]
    parts = [first[:cut], first[cut:]] + list(classes[1:])
    return [g for c in parts for g in standard(c)], fact_prod(map(len, parts))


def _gens_imprimitive(rng, n, classes, m):
    # Sym(m) on block 0, plus rigid block moves: generates Sym(m) wr Sym(b).
    first = classes[0]
    b = len(first) // m
    blocks = [first[i * m : (i + 1) * m] for i in range(b)]
    gens = standard(blocks[0])
    gens.append([[blk[j] for blk in blocks] for j in range(m)])
    gens.append([[blocks[0][j], blocks[1][j]] for j in range(m)])
    for c in classes[1:]:
        gens.extend(standard(c))
    order = math.factorial(m) ** b * math.factorial(b) * fact_prod(map(len, classes[1:]))
    return gens, order


CERTIFY_BUILDERS = {
    "standard": _gens_standard,
    "hidden": _gens_hidden,
    "extra": _gens_extra,
    "even": _gens_even,
    "intransitive": _gens_intransitive,
    "imprimitive": _gens_imprimitive,
}


def _join_parts(classes):
    """Two partitions whose join is exactly ``classes``: chunks of four, and
    chunks of four shifted by two, overlap along each class."""
    r1, r2 = [], []
    for c in classes:
        r1.extend(c[i : i + 4] for i in range(0, len(c), 4))
        r2.append(c[:2])
        r2.extend(c[i : i + 4] for i in range(2, len(c), 4))
    return r1, r2


def _certify_request(rng, files, kind, n, sizes, param) -> Request:
    classes = split(rng.sample(range(n), n), sizes)
    full = fact_prod(sizes)
    if kind == "join":
        argv = ["verify", "join-generation"]
        for part in _join_parts(classes):
            argv += ["--relation", files.write({"n": n, "classes": shuffled_classes(rng, part)})]
        want = [{"name": "join_generation", "certificate": certificate(full, full)}]
        return Request("join-generation", argv, expect_report(0, expect_certificates(want)))
    gens, order = CERTIFY_BUILDERS[kind](rng, n, classes, param)
    images = [g if isinstance(g[0], int) else from_cycles(n, g) for g in gens]
    gens_path = files.write({"n": n, "perms": [perm_json(g) for g in images]})
    rel_path = files.write({"n": n, "classes": shuffled_classes(rng, classes)})
    cert = certificate(order, full)
    want = [{"name": "generation", "certificate": cert}]
    argv = ["verify", "generation", "--gens", gens_path, "--relation", rel_path]
    rc = 0 if cert["generates"] else 1
    return Request(f"generation/{kind}", argv, expect_report(rc, expect_certificates(want)))


def certify(rng: random.Random, files: InputDir) -> list[Request]:
    requests = [
        _certify_request(rng, files, kind, n, sizes, param)
        for kind, n, sizes, param, instances in CERTIFY_SHAPES
        for _ in range(instances)
    ]
    rng.shuffle(requests)
    return requests


# ----------------------------------------------------------------- pipeline

# (n chains, N, p, m, mode, with a --graphing input).  Every one satisfies
# ((p+2)/p)*c < 1, 2 + (p+2)*m <= N and 2/N < 1 - (1 + p/2)*c, c = p*m/N.
# Listed by cost: five cheap ones, the middle one three times, five at
# N >= 20.  The repeats put the median inside one configuration's samples,
# and the three N = 24 ones, of similar cost, fill the tail, so neither
# hops between configurations from run to run.  With m = 1 a graphing
# reshapes into the same chains for every seed; the m = 2 graphing, whose
# engine work varies with the seed, is a cheap one.
PIPELINE_CONFIGS = (
    (2, 14, 3, 1, "b", True),
    (2, 12, 3, 1, "both", False),
    (2, 18, 3, 2, "b", True),
    (3, 20, 5, 1, "b", False),
    (1, 16, 3, 1, "a", True),
    (2, 20, 3, 1, "both", False),
    (2, 20, 3, 1, "both", False),
    (2, 20, 3, 1, "both", False),
    (3, 20, 5, 1, "a", True),
    (3, 22, 5, 1, "both", True),
    (2, 24, 3, 2, "both", False),
    (2, 24, 5, 1, "both", True),
    (2, 24, 3, 1, "both", False),
)


def _pipeline_chains(n_chains, N, p, m, pairs):
    """The slot maps of every extended chain, as the construction lays them
    out: block j holds points 2 + j*m .. 2 + (j+1)*m - 1."""
    blocks = [list(range(2 + j * m, 2 + (j + 1) * m)) for j in range(p + 2)]
    chains = []
    for i in range(n_chains):
        if pairs is None:
            # chain i sends slot r of block j to slot (r + i) mod m of block j+1
            sigmas = [[(r + i) % m for r in range(m)] for _ in range(p)]
        else:
            # map j of chunk i, pairs by source; a witness matches sorted
            # points, so slot a goes to the rank of its pair's target
            chunk = pairs[i * p * m : (i + 1) * p * m]
            sigmas = []
            for j in range(p):
                mp = sorted(chunk[j * m : (j + 1) * m])
                targets = sorted(t for _, t in mp)
                sigmas.append([targets.index(t) for _, t in mp])
        sigmas.append(list(range(m)))  # the shared map: block p -> block p+1
        edges = [
            (blocks[j][a], blocks[j + 1][sigma[a]])
            for j, sigma in enumerate(sigmas)
            for a in range(m)
        ]
        chains.append(edges)
    return chains


def _pipeline_request(rng, files, cfg) -> Request:
    n_chains, N, p, m, mode, with_graphing = cfg
    argv = ["pipeline", "--n", str(n_chains), "--N", str(N), "--p", str(p),
            "--m", str(m), "--mode", mode]
    pairs = None
    if with_graphing:
        count = n_chains * p * m
        raw = list(zip(rng.sample(range(N), count), rng.sample(range(N), count)))
        half = count // 2
        maps = [sorted(raw[:half]), sorted(raw[half:])]
        pairs = maps[0] + maps[1]  # the order in which the pairs are dealt
        argv += ["--graphing", files.write({
            "n": N,
            "maps": [{"n": N, "pairs": [list(pr) for pr in mp]} for mp in maps if mp],
        })]
    chains = _pipeline_chains(n_chains, N, p, m, pairs)
    n_fact = math.factorial(N)
    want = [{"name": "power_identities", "certificate": {
        "u1_pow_p_plus_2_equals_u0": True, "u1_pow_p_plus_3_equals_c1": True}}]
    if mode in ("a", "both"):
        chain_order = math.factorial(p + 2) ** m
        want.append({"name": "full_set", "certificate": certificate(n_fact, n_fact)})
        want.append({"name": "reduced_set", "certificate": certificate(n_fact, n_fact)})
        for i in range(n_chains):
            want.append({"name": f"isopgen_cycle_{i + 1}",
                         "certificate": certificate(chain_order, chain_order)})
    if mode in ("b", "both"):
        joined = uf_classes(N, [e for edges in chains for e in edges])
        order = fact_prod(len(c) for c in joined)
        want.append({"name": "mode_b", "certificate": certificate(order, order)})
    moved = (p + 2) * m
    c = Fraction(p * m, N)
    ledger = {
        "c": frac_of(c),
        "budget_ratio": frac_of(Fraction(p + 2, p) * c),
        "epsilon": frac_of(1 - (1 + Fraction(p, 2)) * c),
        "u0_support_measure": frac(2, N),
        # reduced set: T0 moves N points, U1 = U0*C1 moves 2 + moved,
        # every further cycle moves `moved`
        "generator_distance_sum": frac(N + 2 + n_chains * moved, N),
    }
    check_certs = expect_certificates(want)

    def body(report):
        problem = check_certs(report)
        if problem:
            return problem
        results = report["results"]
        if results["cost_ledger"] != ledger:
            return f"cost ledger {results['cost_ledger']!r}, expected {ledger!r}"
        if results["mode"] != mode or len(results["precycles"]) != n_chains:
            return "mode or chain count differs"
        return None

    return Request(f"pipeline/{mode}" + ("/graphing" if with_graphing else ""),
                   argv, expect_report(0, body))


def pipeline(rng: random.Random, files: InputDir) -> list[Request]:
    requests = [_pipeline_request(rng, files, cfg) for cfg in PIPELINE_CONFIGS]
    rng.shuffle(requests)
    return requests


# ----------------------------------------------------------------- graphing

# (kind, N, classes or chain length p).  Four cheaper shapes, the 35 000
# point make-cycle twice in the middle so that the median falls inside its
# samples, and four dearer shapes.
GRAPHING_SHAPES = (
    ("generate", 30_000, 1),
    ("generate", 10_000, 40),
    ("cost-graphing", 50_000, 100),
    ("cost-relation", 50_000, 7),
    ("join", 40_000, 20),
    ("make-cycle", 35_000, 7),
    ("make-cycle", 35_000, 7),
    ("precycle-valid", 20_000, 5),
    ("precycle-overlap", 30_000, 7),
    ("make-cycle", 50_000, 5),
)


def random_classes(rng, n, k):
    points = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), k - 1))
    return [points[a:b] for a, b in zip([0] + cuts, cuts + [n])]


def _graphing_with_classes(rng, n, classes):
    """Two maps: a path through each class, and a random injection inside
    each class on half of its points.  Their classes are exactly ``classes``."""
    path = class_pairs(classes)
    inner = []
    for c in classes:
        sources = rng.sample(c, len(c) // 2)
        inner.extend(zip(sources, rng.sample(c, len(sources))))
    graphing = {"n": n, "maps": [
        {"n": n, "pairs": [list(pr) for pr in path]},
        {"n": n, "pairs": [list(pr) for pr in inner]},
    ]}
    return graphing, len(path) + len(inner)


def _chain(rng, n, p):
    """A valid chain of p-1 maps over p disjoint stations of m points."""
    m = n // (2 * p)
    points = rng.sample(range(n), p * m)
    stations = [points[j * m : (j + 1) * m] for j in range(p)]
    maps = []
    for j in range(p - 1):
        targets = rng.sample(stations[j + 1], m)
        maps.append(list(zip(stations[j], targets)))
    return stations, maps


def _chain_json(n, maps):
    return {"n": n, "maps": [{"n": n, "pairs": [list(pr) for pr in mp]} for mp in maps]}


def _orbit_sizes(images) -> list[int]:
    seen = bytearray(len(images))
    sizes = []
    for x in range(len(images)):
        if not seen[x]:
            size, y = 0, x
            while not seen[y]:
                seen[y] = 1
                size += 1
                y = images[y]
            sizes.append(size)
    return sorted(sizes)


def _graphing_request(rng, files, kind, n, k) -> Request:
    if kind in ("generate", "cost-graphing"):
        classes = random_classes(rng, n, k)
        graphing, pairs = _graphing_with_classes(rng, n, classes)
        path = files.write(graphing)
        cost_rel, cost_g = frac(n - k, n), frac(pairs, n)
        if kind == "generate":
            want_rel = {"n": n, "classes": canonical(classes)}

            def body(report):
                res = report["results"]
                got = (res["relation"] == want_rel, res["num_classes"], res["is_ergodic"],
                       res["cost_graphing"], res["cost_relation"])
                if got != (True, k, k == 1, cost_g, cost_rel):
                    return f"relation generate: got {got[1:]}, expected {(k, k == 1, cost_g, cost_rel)}"
                return None

            return Request("relation-generate", ["relation", "generate", "--graphing", path],
                           expect_report(0, body))
        want = {"cost_graphing": cost_g, "cost_relation": cost_rel}
        return Request("relation-cost-graphing", ["relation", "cost", "--graphing", path],
                       expect_report(0, lambda r: None if r["results"] == want
                                     else f"costs {r['results']!r}, expected {want!r}"))
    if kind == "cost-relation":
        classes = random_classes(rng, n, k)
        path = files.write({"n": n, "classes": shuffled_classes(rng, classes)})
        want = {"cost_relation": frac(n - k, n)}
        return Request("relation-cost-relation", ["relation", "cost", "--relation", path],
                       expect_report(0, lambda r: None if r["results"] == want
                                     else f"cost {r['results']!r}, expected {want!r}"))
    if kind == "join":
        classes = random_classes(rng, n, k)
        r1, r2 = _join_parts(classes)
        argv = ["relation", "join"]
        for part in (r1, r2):
            argv += ["--relation", files.write({"n": n, "classes": shuffled_classes(rng, part)})]
        want = {"relation": {"n": n, "classes": canonical(classes)},
                "num_classes": k, "cost_relation": frac(n - k, n)}
        return Request("relation-join", argv,
                       expect_report(0, lambda r: None if r["results"] == want
                                     else "joined relation differs from the known classes"))
    p = k
    stations, maps = _chain(rng, n, p)
    if kind == "precycle-overlap":
        # the last map sends one point into station 0: stations 0 and p-1 share it
        shared = stations[0][0]
        maps[-1][0] = (maps[-1][0][0], shared)
        path = files.write(_chain_json(n, maps))
        token = re.compile(rf"\b{shared}\b")

        def body(report):
            (cert,) = report["certificates"]
            c = cert["certificate"]
            if c["valid"] is not False or c["p"] is not None or not token.search(c["error"] or ""):
                return f"overlap at {shared} not reported: {c!r}"
            return None

        return Request("validate-precycle/overlap", ["validate-precycle", "--in", path],
                       expect_report(1, body))
    path = files.write(_chain_json(n, maps))
    if kind == "precycle-valid":
        want = [{"name": "precycle_valid", "certificate": {"valid": True, "p": p, "error": None}}]
        return Request("validate-precycle/valid", ["validate-precycle", "--in", path],
                       expect_report(0, expect_certificates(want)))
    images = list(range(n))
    for mp in maps:
        for s, t in mp:
            images[s] = t
    forward = [dict(mp) for mp in maps]
    for start in stations[0]:
        x = start
        for fw in forward:
            x = fw[x]
        images[x] = start
    want_sizes = sorted([1] * (n - p * len(stations[0])) + [p] * len(stations[0]))

    def body(report):
        res = report["results"]
        got = res["cycle"]["images"]
        sizes = _orbit_sizes(got) if is_permutation(got, n) else None
        if sizes is None or set(sizes) - {1, p}:
            return f"make-cycle orbit sizes {sizes} not all in {{1, {p}}}"
        if sizes != res["orbit_sizes"] or sizes != want_sizes or got != images or res["p"] != p:
            return "make-cycle result differs from the closed chain"
        return None

    return Request("make-cycle", ["make-cycle", "--in", path], expect_report(0, body))


def graphing(rng: random.Random, files: InputDir) -> list[Request]:
    requests = [_graphing_request(rng, files, *shape) for shape in GRAPHING_SHAPES]
    rng.shuffle(requests)
    return requests


# ----------------------------------------------------------------- oracle


# The min-support scans run this many times per round, so that the slowest
# request (the pooled scan of Sym(5) pairs) fills the latency tail.
SUPPORT_REPEATS = 3


def set_partitions(n: int):
    """Every partition of range(n), by restricted growth strings."""

    def grow(prefix, top):
        if len(prefix) == n:
            classes: dict[int, list[int]] = {}
            for x, label in enumerate(prefix):
                classes.setdefault(label, []).append(x)
            yield list(classes.values())
            return
        for label in range(top + 2):
            yield from grow(prefix + [label], max(top, label))

    yield from grow([0], 0)


def min_generators(sizes) -> int:
    """Least generating-set size of a product of symmetric groups: trivial
    needs 0, a lone Sym(2) is cyclic and needs 1, anything else needs 2."""
    big = sorted(s for s in sizes if s > 1)
    return 0 if not big else 1 if big == [2] else 2


def _check_perm_list(wit, n, classes, length, full):
    if not isinstance(wit, list) or len(wit) != length:
        return f"witness {wit!r} is not a list of {length} permutations"
    images = [w["images"] for w in wit]
    if not all(is_permutation(img, n) and preserves(img, classes) for img in images):
        return "witness leaves the full group"
    if naive_order(images, n) != full:
        return "witness does not generate the full group"
    return None


def _oracle_requests(rng, files, classes) -> list[Request]:
    n = sum(map(len, classes))
    k = len(classes)
    full = fact_prod(map(len, classes))
    cost = Fraction(n - k, n)
    path = files.write({"n": n, "classes": shuffled_classes(rng, classes)})
    requests = []

    def min_cost(report):
        res = report["results"]
        maps = res["witness"]["maps"]
        pairs = [tuple(mp["pairs"][0]) for mp in maps if len(mp["pairs"]) == 1]
        if (res["optimum"], res["search_space_size"], res["exhaustive"]) != (
                frac_of(cost), 1 << (n * (n - 1) // 2), True):
            return f"min-cost result {res!r}"
        if len(pairs) != len(maps) or len(pairs) != n - k or uf_classes(n, pairs) != canonical(classes):
            return "min-cost witness does not generate the relation with n-k edges"
        return None

    requests.append(Request("min-cost", ["oracle", "min-cost", "--relation", path],
                            expect_report(0, min_cost)))
    if n > 5:
        return requests
    gens = min_generators(map(len, classes))

    def min_gens(report):
        res = report["results"]
        if res["optimum"] != gens or res["exhaustive"] is not True:
            return f"min-gens optimum {res['optimum']}, expected {gens}"
        return _check_perm_list(res["witness"], n, classes, gens, full)

    requests.append(Request("min-gens", ["oracle", "min-gens", "--relation", path],
                            expect_report(0, min_gens)))
    for t in (1, 2) * SUPPORT_REPEATS:
        def min_support(report, t=t):
            res = report["results"]
            if res["search_space_size"] != full ** t or res["exhaustive"] is not True:
                return f"min-support searched {res['search_space_size']}, expected {full ** t}"
            if gens > t:
                want = {"relation_cost": frac_of(cost), "gap": None, "strictly_above_cost": None}
                if res["optimum"] is not None or res["comparison"] != want:
                    return f"min-support t={t} should be infeasible: {res!r}"
                return None
            if res["optimum"] is None:
                return f"min-support t={t} found nothing"
            opt = Fraction(res["optimum"])
            problem = _check_perm_list(res["witness"], n, classes, t, full)
            if problem:
                return problem
            moved = sum(x != y for w in res["witness"] for x, y in enumerate(w["images"]))
            want = {"relation_cost": frac_of(cost), "gap": frac_of(opt - cost),
                    "strictly_above_cost": opt > cost}
            if opt < cost or Fraction(moved, n) != opt or res["comparison"] != want:
                return f"min-support t={t}: optimum {opt} against cost {cost}, support {moved}/{n}"
            return None

        requests.append(Request(f"min-support/t{t}",
                                ["oracle", "min-support", "--relation", path, "--t", str(t)],
                                expect_report(0, min_support)))
    return requests


def _refused(report):
    if "error" not in report or "results" in report:
        return "over-cap search was not refused"
    return None


def oracle(rng: random.Random, files: InputDir) -> list[Request]:
    requests = []
    for n in range(1, 7):
        for classes in set_partitions(n):
            requests.extend(_oracle_requests(rng, files, classes))
    over_cap = (
        (7, ["oracle", "min-cost"]),
        (6, ["oracle", "min-gens"]),
        (6, ["oracle", "min-support", "--t", "1"]),
        (4, ["oracle", "min-support", "--t", "3"]),
    )
    for n, argv in over_cap:
        for k in (1, 3):
            path = files.write({"n": n, "classes": random_classes(rng, n, k)})
            requests.append(Request("over-cap", argv + ["--relation", path],
                                    expect_report(2, _refused)))
    rng.shuffle(requests)
    return requests


WORKLOADS = {
    "certify": certify,
    "pipeline": pipeline,
    "graphing": graphing,
    "oracle": oracle,
}


def generate(name: str, seed: int, directory: str) -> list[Request]:
    """Write the inputs of one workload under ``directory``; return its requests."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), InputDir(directory))
