"""Generated relations, costs, joins, full groups, and class-matching maps."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_graphing, random_partition
from orbitlab import (
    Graphing,
    PartialInjection,
    Partition,
    Permutation,
    cost_graphing,
    cost_relation,
    full_group_generators,
    full_group_order,
    generate_relation,
    in_full_group,
    is_ergodic,
    isopar_witness,
    join,
    spanning_graphing,
)


class TestPartition:
    def test_canonical_ids_validated(self):
        with pytest.raises(ValueError):
            Partition((1, 1))  # root must be the least class element
        with pytest.raises(ValueError):
            Partition((0, 0, 1))  # 1 is not itself a root

    def test_from_classes_and_back(self):
        p = Partition.from_classes(5, [[3, 1], [0, 2], [4]])
        assert p.classes() == ((0, 2), (1, 3), (4,))
        assert p.num_classes == 3
        ids = p.class_id
        assert ids[1] == ids[3] and ids[0] != ids[1]

    def test_from_classes_must_cover(self):
        with pytest.raises(ValueError):
            Partition.from_classes(3, [[0, 1]])
        with pytest.raises(ValueError):
            Partition.from_classes(3, [[0, 1], [1, 2]])

    def test_from_pairs_closure(self):
        p = Partition.from_pairs(6, [(0, 3), (3, 5), (1, 2)])
        assert p.classes() == ((0, 3, 5), (1, 2), (4,))

    def test_json_round_trip(self):
        p = Partition.from_classes(4, [[0, 3], [1, 2]])
        assert Partition.from_json_dict(p.to_json_dict()) == p
        assert p.to_json_dict() == {"n": 4, "classes": [[0, 3], [1, 2]]}


class TestGenerateRelation:
    def test_components_of_the_union(self):
        g = Graphing(
            6,
            (
                PartialInjection(6, ((0, 1), (1, 2))),
                PartialInjection(6, ((3, 4),)),
            ),
        )
        rel = generate_relation(g)
        assert rel.classes() == ((0, 1, 2), (3, 4), (5,))

    def test_empty_graphing_gives_singletons(self):
        assert generate_relation(Graphing(3, ())) == Partition(tuple(range(3)))


class TestCost:
    def test_cost_graphing_sums_domain_measures(self):
        g = Graphing(
            8,
            (PartialInjection(8, ((0, 1), (2, 3))), PartialInjection(8, ((4, 5),))),
        )
        assert cost_graphing(g) == Fraction(3, 8)

    def test_cost_relation_closed_form(self):
        rel = Partition.from_classes(6, [[0, 1, 2], [3, 4], [5]])
        assert cost_relation(rel) == Fraction(6 - 3, 6)
        assert cost_relation(Partition(tuple(range(5)))) == 0
        assert cost_relation(Partition.single_class(4)) == Fraction(3, 4)

    def test_spanning_graphing_attains_the_cost(self):
        rng = random.Random(3)
        for _ in range(30):
            rel = random_partition(rng, rng.randint(1, 12))
            g = spanning_graphing(rel)
            assert generate_relation(g) == rel
            assert cost_graphing(g) == cost_relation(rel)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**6))
    def test_generating_graphings_cost_at_least_the_relation(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        g = random_graphing(rng, n, rng.randint(0, 3), n)
        rel = generate_relation(g)
        assert cost_graphing(g) >= cost_relation(rel)


class TestJoinAndErgodicity:
    def test_join_is_coarsest_common_refinement_upper_bound(self):
        r1 = Partition.from_classes(4, [[0, 1], [2], [3]])
        r2 = Partition.from_classes(4, [[0], [1, 2], [3]])
        assert join([r1, r2]).classes() == ((0, 1, 2), (3,))

    def test_join_requires_input(self):
        with pytest.raises(ValueError):
            join([])

    def test_join_of_one_is_itself(self):
        r = Partition.from_classes(3, [[0, 2], [1]])
        assert join([r]) == r

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10**6))
    def test_join_commutative_idempotent_and_coarser(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        r1, r2 = random_partition(rng, n), random_partition(rng, n)
        j = join([r1, r2])
        assert j == join([r2, r1]) == join([j, r1])
        for rel in (r1, r2):
            for cls in rel.classes():
                for a, b in zip(cls, cls[1:]):
                    assert j.class_id[a] == j.class_id[b]

    def test_ergodic_means_single_class(self):
        assert is_ergodic(Partition.single_class(5))
        assert not is_ergodic(Partition(tuple(range(2))))
        assert not is_ergodic(Partition.from_classes(3, [[0, 1], [2]]))


class TestIsoparWitness:
    def test_matches_within_classes_increasing(self):
        rel = Partition.from_classes(6, [[0, 1, 2], [3, 4, 5]])
        w = isopar_witness(rel, {0, 2, 3}, {1, 2, 5})
        assert w.pairs == ((0, 1), (2, 2), (3, 5))
        for s, t in w.pairs:
            assert rel.class_id[s] == rel.class_id[t]

    def test_rank_mismatch_reports_classes(self):
        rel = Partition.from_classes(4, [[0, 1], [2, 3]])
        with pytest.raises(ValueError, match="class of 0"):
            isopar_witness(rel, {0, 1}, {0, 2})

    def test_empty_sets_give_empty_witness(self):
        rel = Partition.single_class(3)
        assert isopar_witness(rel, (), ()).pairs == ()

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10**6))
    def test_witness_on_ergodic_relation_always_exists(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        size = rng.randint(0, n)
        a = rng.sample(range(n), size)
        b = rng.sample(range(n), size)
        w = isopar_witness(Partition.single_class(n), a, b)
        assert w.dom == set(a) and w.rng == set(b)


class TestFullGroup:
    def test_membership_is_classwise(self):
        rel = Partition.from_classes(4, [[0, 1], [2, 3]])
        assert in_full_group(Permutation.from_cycles(4, [(0, 1), (2, 3)]), rel)
        assert not in_full_group(Permutation.from_cycles(4, [(1, 2)]), rel)
        assert in_full_group(Permutation.identity(4), rel)

    def test_order_is_product_of_factorials(self):
        rel = Partition.from_classes(6, [[0, 1, 2], [3, 4], [5]])
        assert full_group_order(rel) == math.factorial(3) * 2
        assert full_group_order(Partition.single_class(30)) == math.factorial(30)
        assert full_group_order(Partition(tuple(range(7)))) == 1

    def test_generators_for_a_pair_class_deduplicate(self):
        rel = Partition.from_classes(2, [[0, 1]])
        gens = full_group_generators(rel)
        assert gens == (Permutation.from_cycles(2, [(0, 1)]),)

    def test_generators_cycle_plus_transposition_per_class(self):
        rel = Partition.from_classes(5, [[0, 2, 4], [1, 3]])
        gens = full_group_generators(rel)
        assert gens == (
            Permutation.from_cycles(5, [(0, 2, 4)]),
            Permutation.from_cycles(5, [(0, 2)]),
            Permutation.from_cycles(5, [(1, 3)]),
        )

    def test_generators_lie_in_the_full_group(self):
        rng = random.Random(5)
        for _ in range(20):
            rel = random_partition(rng, rng.randint(1, 10))
            for g in full_group_generators(rel):
                assert in_full_group(g, rel)
