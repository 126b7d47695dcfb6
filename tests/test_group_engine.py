"""Permutation-group orders, membership, and generation certificates.

The deterministic chain builder is driven directly and cross-checked
against a naive breadth-first closure on every small case, so the two
routes to the group order are independent.  ``_generated_order``, the
order behind ``generates_full_group``, proves full groups by
transposition closure and builds a chain otherwise; it is cross-checked
against both.  Membership is decided by sifting through the chain, or by
the class check when the closure proved the full group.
"""

import inspect
import math
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_partition, random_permutation
from orbitlab import (
    Partition,
    Permutation,
    SpaceMismatchError,
    check_join_generation,
    full_group_generators,
    full_group_order,
    generates_full_group,
    group_engine,
    in_full_group,
    join,
    naive_closure,
)
from orbitlab.group_engine import (
    _Chain,
    _generated_order,
    _orbits,
    _transposition_closure_is_full,
    _transposition_seed,
)


def chain_of(gens, n):
    """The Sims table of the generators, built directly."""
    chain = _Chain(n)
    for g in gens:
        chain.add(g.images)
    return chain


def sifts(chain, perm):
    """Membership by sifting through the chain."""
    return chain.strip(perm.images) == chain.identity


def order_and_chain(gens, n, blocks=None):
    """``_generated_order`` over ``blocks``, the generators' orbits by
    default, and the Sims table it built: None when the transposition
    closure proved the order.  A spy on ``_Chain`` catches the table."""
    images = [g.images for g in gens]
    built = []

    def spy(size):
        built.append(_Chain(size))
        return built[-1]

    with mock.patch.object(group_engine, "_Chain", spy):
        order = _generated_order(images, _orbits(images, n) if blocks is None else blocks)
    return order, (built[0] if built else None)


def sym_gens(n):
    if n < 2:
        return ()
    gens = [Permutation.from_cycles(n, [tuple(range(n))])]
    if n >= 3:
        gens.append(Permutation.from_cycles(n, [(0, 1)]))
    return tuple(gens)


def cycles_in_classes(rng, rel, lengths):
    """Disjoint cycles of the given lengths, each inside one class.

    A length that no class has room left for is skipped.
    """
    free = [list(c) for c in rel.classes()]
    for pts in free:
        rng.shuffle(pts)
    cycles = []
    for length in lengths:
        fits = [pts for pts in free if len(pts) >= length]
        if fits:
            pts = rng.choice(fits)
            cycles.append(tuple(pts.pop() for _ in range(length)))
    return cycles


def mixed_generators(rng, rel):
    """Up to four generators: class shuffles, transpositions, one 2-cycle
    plus odd cycles, decoys (two 2-cycles, or a 2-cycle and a 4-cycle),
    and permutations that may leave their classes."""
    n = rel.n
    gens = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(("shuffle", "transposition", "seed", "decoy", "any"))
        if kind == "shuffle":
            images = list(range(n))
            for cls_pts in rel.classes():
                moved = list(cls_pts)
                rng.shuffle(moved)
                for x, y in zip(cls_pts, moved):
                    images[x] = y
            gens.append(Permutation(tuple(images)))
        elif kind == "any":
            gens.append(random_permutation(rng, n))
        else:
            lengths = {
                "transposition": [2],
                "seed": [2] + [rng.choice((3, 5)) for _ in range(rng.randint(1, 2))],
                "decoy": rng.choice(([2, 2], [2, 4])),
            }[kind]
            gens.append(Permutation.from_cycles(n, cycles_in_classes(rng, rel, lengths)))
    return gens


def refine(rng, rel):
    """A random partition whose classes split those of ``rel``."""
    classes = []
    for cls_pts in rel.classes():
        cut = rng.randint(1, len(cls_pts))
        classes.extend(c for c in (cls_pts[:cut], cls_pts[cut:]) if c)
    return Partition.from_classes(rel.n, classes)


def block_permutations(rng, rel, count):
    """Permutations of one class that keep a system of blocks of size m,
    1 < m < class size, plus a transposition inside the first block."""
    n = rel.n
    fits = [
        (c, m) for c in rel.classes() for m in range(2, len(c)) if len(c) % m == 0
    ]
    if not fits:
        return []
    cls_pts, m = rng.choice(fits)
    blocks = [cls_pts[i : i + m] for i in range(0, len(cls_pts), m)]
    gens = [Permutation.from_cycles(n, [blocks[0][:2]])]
    for _ in range(count):
        images = list(range(n))
        targets = blocks[:]
        rng.shuffle(targets)
        for src, dst in zip(blocks, targets):
            dst = list(dst)
            rng.shuffle(dst)
            for x, y in zip(src, dst):
                images[x] = y
        gens.append(Permutation(tuple(images)))
    return gens


def engine_sets(rng, rel):
    """Generator sets of every shape: the mixed sets, even sets, sets that
    are intransitive on the classes, and imprimitive sets."""
    kind = rng.choice(("mixed", "even", "intransitive", "imprimitive"))
    if kind == "mixed":
        return mixed_generators(rng, rel)
    if kind == "even":
        return [
            Permutation.from_cycles(
                rel.n, cycles_in_classes(rng, rel, rng.choice(([3], [3, 3], [2, 2], [5])))
            )
            for _ in range(rng.randint(1, 3))
        ]
    if kind == "intransitive":
        return mixed_generators(rng, refine(rng, rel))
    return block_permutations(rng, rel, rng.randint(1, 2))


def orbit_swaps(closure, n):
    """For each two distinct orbits of equal size, the permutation that
    swaps them point by point in increasing order."""
    orbits = sorted({tuple(sorted({p[x] for p in closure})) for x in range(n)})
    swaps = []
    for i, a in enumerate(orbits):
        for b in orbits[i + 1 :]:
            if len(a) == len(b):
                images = list(range(n))
                for x, y in zip(a, b):
                    images[x], images[y] = y, x
                swaps.append(Permutation(tuple(images)))
    return swaps


class TestOneRoute:
    """``_generated_order`` against the chain built directly and naive closure."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.integers(0, 10**6))
    def test_order_and_membership_match_the_chain(self, seed):
        rng = random.Random(seed)
        rel = random_partition(rng, rng.randint(1, 8))
        n = rel.n
        gens = engine_sets(rng, rel)
        closure = naive_closure(gens, n)
        chain = chain_of(gens, n)
        assert chain.order() == len(closure)
        partitions = [_orbits([g.images for g in gens], n)]
        if all(in_full_group(g, rel) for g in gens):
            partitions.append(rel)
        for blocks in partitions:
            order, built = order_and_chain(gens, n, blocks)
            assert order == chain.order()
            if built is not None:
                continue
            # Proved by the closure: membership is the O(n) class check.
            swaps = orbit_swaps(closure, n)
            for p in swaps:
                assert not in_full_group(p, blocks)
            members = [Permutation(images) for images in sorted(closure)[:5]]
            others = [random_permutation(rng, n) for _ in range(5)]
            for p in swaps + members + others:
                assert in_full_group(p, blocks) == sifts(chain, p) == (p.images in closure)

    def test_shapes_reach_both_routes(self):
        counts = {"closure": 0, "chain": 0, "swaps": 0}
        for seed in range(100):
            rng = random.Random(seed)
            rel = random_partition(rng, rng.randint(1, 8))
            gens = engine_sets(rng, rel)
            if order_and_chain(gens, rel.n)[1] is None:
                counts["closure"] += 1
                counts["swaps"] += bool(orbit_swaps(naive_closure(gens, rel.n), rel.n))
            else:
                counts["chain"] += 1
        assert all(counts.values()), counts

    def test_alternating_group_on_twenty_points(self):
        # No transposition seeds: the order comes from the chain, at scale.
        n = 20
        gens = [Permutation.from_cycles(n, [(0, 1, k)]) for k in range(2, n)]
        order, chain = order_and_chain(gens, n)
        assert chain is not None
        assert order == math.factorial(n) // 2
        assert sifts(chain, Permutation.from_cycles(n, [(0, 1, 2)]))
        assert not sifts(chain, Permutation.from_cycles(n, [(0, 1)]))


class TestGroupFromGenerators:
    """Orders from ``_generated_order`` and membership by sifting."""

    def test_trivial_group_needs_explicit_space(self):
        # With no generators, only the partition gives the space.
        assert order_and_chain((), 4) == (1, None)

    def test_symmetric_group_orders(self):
        for n in range(2, 9):
            assert order_and_chain(sym_gens(n), n)[0] == math.factorial(n)

    def test_large_space_exact_order(self):
        assert order_and_chain(sym_gens(40), 40)[0] == math.factorial(40)

    def test_cyclic_group(self):
        c = Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)])
        swap = Permutation.from_cycles(6, [(0, 1)])
        chain = chain_of((c,), 6)
        assert chain.order() == len(naive_closure((c,))) == 6
        assert sifts(chain, c ** 4)
        assert not sifts(chain, swap)
        assert order_and_chain((c,), 6)[0] == 6

    def test_membership_by_sifting(self):
        gens = sym_gens(5)
        chain = chain_of(gens, 5)
        members = naive_closure(gens)
        rng = random.Random(11)
        for _ in range(20):
            p = random_permutation(rng, 5)
            assert p.images in members
            assert sifts(chain, p)

    @pytest.mark.parametrize("b, k", [(2, 10), (4, 6), (6, 4)])
    def test_wreath_products_past_naive_closure(self, b, k):
        # Sym(b) wr Sym(k): Sym(b) on block 0, plus a block cycle and a block swap.
        n = b * k
        blocks = [tuple(range(i * b, (i + 1) * b)) for i in range(k)]
        gens = (
            Permutation.from_cycles(n, [blocks[0]]),
            Permutation.from_cycles(n, [blocks[0][:2]]),
            Permutation.from_cycles(n, [tuple(blk[j] for blk in blocks) for j in range(b)]),
            Permutation.from_cycles(n, [(blocks[0][j], blocks[1][j]) for j in range(b)]),
        )
        order = math.factorial(b) ** k * math.factorial(k)
        assert order > inspect.signature(naive_closure).parameters["cap"].default
        got, chain = order_and_chain(gens, n)
        assert chain is not None
        assert got == order
        keeps_blocks = Permutation.from_cycles(
            n, [(blocks[0][j], blocks[2][j]) for j in range(b)] + [blocks[1][:2]]
        )
        assert sifts(chain, keeps_blocks)
        assert not sifts(chain, Permutation.from_cycles(n, [(blocks[0][0], blocks[1][0])]))

    def test_cycle_longer_than_the_recursion_limit(self):
        n = sys.getrecursionlimit() + 1
        c = Permutation.from_cycles(n, [tuple(range(n))])
        order, chain = order_and_chain((c,), n)
        assert chain is not None
        assert order == n
        assert sifts(chain, c ** 7)
        assert not sifts(chain, Permutation.from_cycles(n, [(0, 1)]))

    def test_klein_four_group(self):
        a = Permutation.from_cycles(4, [(0, 1), (2, 3)])
        b = Permutation.from_cycles(4, [(0, 2), (1, 3)])
        chain = chain_of((a, b), 4)
        assert chain.order() == len(naive_closure((a, b))) == 4
        assert sifts(chain, a * b)
        assert order_and_chain((a, b), 4)[0] == 4

    def test_mismatched_generator_spaces_rejected(self):
        with pytest.raises(SpaceMismatchError):
            generates_full_group(
                (Permutation.identity(3), Permutation.identity(4)), Partition.single_class(3)
            )

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**6))
    def test_order_matches_naive_closure(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        gens = tuple(random_permutation(rng, n) for _ in range(rng.randint(0, 3)))
        expected = len(naive_closure(gens, n))
        got = chain_of(gens, n).order()
        assert got == expected
        assert order_and_chain(gens, n)[0] == expected
        assert math.factorial(n) % got == 0  # Lagrange

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6))
    def test_adding_generators_never_shrinks_the_group(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        gens = [random_permutation(rng, n) for _ in range(3)]
        orders = [chain_of(gens[: k + 1], n).order() for k in range(3)]
        assert orders == sorted(orders)
        for k in range(1, 3):
            assert orders[k] % orders[k - 1] == 0

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6))
    def test_every_generated_element_is_a_member(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        gens = tuple(random_permutation(rng, n) for _ in range(2))
        chain = chain_of(gens, n)
        for images in naive_closure(gens):
            assert sifts(chain, Permutation(images))


class TestNaiveClosure:
    def test_closure_of_a_transposition(self):
        t = Permutation.from_cycles(3, [(0, 1)])
        # elements come back as raw image tuples
        assert naive_closure((t,)) == {(0, 1, 2), (1, 0, 2)}

    def test_requires_generators(self):
        with pytest.raises(ValueError):
            naive_closure(())

    def test_symmetric_group_sizes(self):
        for n in (2, 3, 4, 5):
            assert len(naive_closure(sym_gens(n))) == math.factorial(n)


class TestGeneratesFullGroup:
    def test_standard_generators_certify(self):
        rng = random.Random(7)
        for _ in range(15):
            rel = random_partition(rng, rng.randint(1, 8))
            ok, cert = generates_full_group(full_group_generators(rel), rel)
            assert ok
            assert cert == {
                "in_full_group": True,
                "generated_order": str(full_group_order(rel)),
                "full_group_order": str(full_group_order(rel)),
                "generates": True,
            }

    def test_proper_subgroup_fails_with_orders(self):
        rel = Partition.single_class(4)
        c = Permutation.from_cycles(4, [(0, 1, 2, 3)])
        ok, cert = generates_full_group((c,), rel)
        assert not ok
        assert cert == {
            "in_full_group": True,
            "generated_order": "4",
            "full_group_order": "24",
            "generates": False,
        }

    def test_generator_outside_the_full_group_short_circuits(self):
        rel = Partition.from_classes(4, [[0, 1], [2, 3]])
        bad = Permutation.from_cycles(4, [(1, 2)])
        ok, cert = generates_full_group((bad,), rel)
        assert not ok
        assert cert["in_full_group"] is False
        assert cert["generates"] is False

    def test_empty_generators_only_generate_trivial(self):
        ok, cert = generates_full_group((), Partition(tuple(range(3))))
        assert ok and cert["generated_order"] == "1"
        ok, cert = generates_full_group((), Partition.single_class(3))
        assert not ok

    def test_orders_are_decimal_strings(self):
        rel = Partition.single_class(25)
        ok, cert = generates_full_group(full_group_generators(rel), rel)
        assert ok
        assert cert["full_group_order"] == str(math.factorial(25))

    def test_three_hundred_point_cycle_and_transposition(self):
        n = 300
        gens = (
            Permutation.from_cycles(n, [tuple(range(n))]),
            Permutation.from_cycles(n, [(0, 1)]),
        )
        ok, cert = generates_full_group(gens, Partition.single_class(n))
        assert ok and cert["generates"] is True
        assert cert["generated_order"] == str(math.factorial(300))

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.integers(0, 10**6))
    def test_certificate_matches_the_engine(self, seed):
        rng = random.Random(seed)
        rel = random_partition(rng, rng.randint(1, 9))
        gens = mixed_generators(rng, rel)
        order = chain_of(gens, rel.n).order()
        full = full_group_order(rel)
        in_fg = all(in_full_group(g, rel) for g in gens)
        assert generates_full_group(gens, rel)[1] == {
            "in_full_group": in_fg,
            "generated_order": str(order),
            "full_group_order": str(full),
            "generates": in_fg and order == full,
        }
        if in_fg and _transposition_closure_is_full([g.images for g in gens], rel):
            assert order == full


class TestTranspositionClosure:
    def test_two_cycle_with_odd_cycles_seeds_its_transposition(self):
        p = Permutation.from_cycles(5, [(0, 1), (2, 3, 4)])
        assert _transposition_seed(p.images) == (0, 1)
        assert p ** 3 == Permutation.from_cycles(5, [(0, 1)])
        assert _transposition_seed(Permutation.from_cycles(3, [(1, 2)]).images) == (1, 2)

    def test_no_seed_without_a_lone_two_cycle(self):
        for cycles in ([(0, 1), (2, 3, 4, 5)], [(0, 1), (2, 3)], [(0, 1, 2)], []):
            p = Permutation.from_cycles(6, cycles)
            assert _transposition_seed(p.images) is None, cycles

    def test_merged_generator_reaches_the_full_group(self):
        # U1 = U0 * C1 with C1 of odd orbit size p+2 = 5: U1^5 = U0.
        n = 12
        t0 = Permutation.from_cycles(n, [tuple(range(n))])
        u1 = Permutation.from_cycles(n, [(0, 1), (2, 3, 4, 5, 6), (7, 8, 9, 10, 11)])
        assert _transposition_closure_is_full([t0.images, u1.images], Partition.single_class(n))

    def test_alternating_group_falls_back_to_the_engine(self):
        n = 6
        rel = Partition.single_class(n)
        gens = [Permutation.from_cycles(n, [(0, 1, k)]) for k in range(2, n)]
        assert not _transposition_closure_is_full([g.images for g in gens], rel)
        ok, cert = generates_full_group(gens, rel)
        assert not ok
        assert cert == {
            "in_full_group": True,
            "generated_order": str(math.factorial(n) // 2),
            "full_group_order": str(math.factorial(n)),
            "generates": False,
        }

    def test_closure_stops_at_the_least_block(self):
        # (0 2)(1 3) keeps the blocks {0, 1} and {2, 3}; the closure of (0 1)
        # joins only 2 and 3, so it cannot prove Sym(4).
        rel = Partition.single_class(4)
        gens = [Permutation.from_cycles(4, [(0, 1)]), Permutation.from_cycles(4, [(0, 2), (1, 3)])]
        assert not _transposition_closure_is_full([g.images for g in gens], rel)
        ok, cert = generates_full_group(gens, rel)
        assert not ok and cert["generated_order"] == "8"

    def test_mixed_sets_reach_both_routes(self):
        counts = {"proof": 0, "engine_full": 0, "engine_smaller": 0}
        for seed in range(300):
            rng = random.Random(seed)
            rel = random_partition(rng, rng.randint(1, 9))
            gens = mixed_generators(rng, rel)
            if not all(in_full_group(g, rel) for g in gens):
                continue
            if _transposition_closure_is_full([g.images for g in gens], rel):
                counts["proof"] += 1
            elif chain_of(gens, rel.n).order() == full_group_order(rel):
                counts["engine_full"] += 1
            else:
                counts["engine_smaller"] += 1
        assert all(counts.values()), counts


def closure_by_union_find(gens, blocks):
    """The transposition closure as a union-find pass: every seed is joined
    first, then each joined pair of roots is closed under every generator."""
    parent = list(range(blocks.n))
    joined = []

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
            joined.append((ra, rb))

    for g in gens:
        pair = _transposition_seed(g)
        if pair is not None:
            union(*pair)
    needed = blocks.n - blocks.num_classes
    done = 0
    while done < len(joined) < needed:
        a, b = joined[done]
        done += 1
        for g in gens:
            union(g[a], g[b])
    return len(joined) == needed


class TestClosureDecidesAsUnionFind:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.integers(0, 10**6), st.booleans())
    def test_label_array_matches_union_find(self, seed, over_orbits):
        rng = random.Random(seed)
        rel = random_partition(rng, rng.randint(1, 9))
        n = rel.n
        gens = engine_sets(rng, rel) + [
            random_permutation(rng, n) for _ in range(rng.randint(0, 1))
        ]
        rng.shuffle(gens)
        images = [g.images for g in gens]
        # The closure needs blocks that every generator preserves.
        in_fg = all(in_full_group(g, rel) for g in gens)
        blocks = _orbits(images, n) if over_orbits or not in_fg else rel
        full = _transposition_closure_is_full(images, blocks)
        assert full == closure_by_union_find(images, blocks)
        if full:
            order = full_group_order(blocks)
            assert chain_of(gens, n).order() == order
            # Orders past the naive closure's cap, as Sym(9)'s, rest on the chain.
            if order <= inspect.signature(naive_closure).parameters["cap"].default:
                assert len(naive_closure(gens, n)) == order


class TestCheckJoinGeneration:
    def test_two_overlapping_relations_generate_their_join(self):
        r1 = Partition.from_classes(3, [[0, 1], [2]])
        r2 = Partition.from_classes(3, [[0], [1, 2]])
        ok, cert = check_join_generation([r1, r2])
        assert ok
        assert cert["generated_order"] == "6"
        assert cert["full_group_order"] == str(
            full_group_order(join([r1, r2]))
        )

    def test_disjoint_relations_also_generate(self):
        r1 = Partition.from_classes(4, [[0, 1], [2], [3]])
        r2 = Partition.from_classes(4, [[0], [1], [2, 3]])
        ok, cert = check_join_generation([r1, r2])
        assert ok and cert["generated_order"] == "4"

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10**6))
    def test_random_pairs_verify_against_naive_order(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        rels = [random_partition(rng, n) for _ in range(rng.randint(1, 3))]
        ok, cert = check_join_generation(rels)
        gens = tuple(g for rel in rels for g in full_group_generators(rel))
        expected = len(naive_closure(gens, n))
        assert int(cert["generated_order"]) == expected
        assert ok == (expected == full_group_order(join(rels)))

    def test_requires_relations(self):
        with pytest.raises(ValueError):
            check_join_generation([])
