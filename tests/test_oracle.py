"""Exhaustive-search ground truth: frozen optima, caps, and independence from
the stabilizer-chain engine."""

import ast
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_partitions
from orbitlab import (
    Graphing,
    Partition,
    Permutation,
    SearchResult,
    SearchSpaceTooLargeError,
    SpaceMismatchError,
    brute_min_generating_support,
    brute_min_generators,
    brute_min_graphing_cost,
    cost_graphing,
    cost_relation,
    full_group_order,
    generate_relation,
    generates_full_group,
    naive_closure,
    oracle,
)
from orbitlab.core import frac_str


def class_preserving_arrays(relation):
    """The full group's image arrays in lexicographic order, by filtering
    every permutation of the points: the reference ``oracle._group`` must
    reproduce."""
    ids = relation.class_id
    return [img for img in itertools.permutations(range(relation.n))
            if tuple(map(ids.__getitem__, img)) == ids]


def full_group(relation):
    return [Permutation(img) for img in class_preserving_arrays(relation)]


def lexicographic_min_support(relation, t):
    """One scan over all |G|^t tuples in lexicographic order, the reference
    ``brute_min_generating_support`` must reproduce: prune on the best total
    so far, keep the first generating tuple at the optimum."""
    n, elements = relation.n, full_group(relation)
    best = witness = None
    for tup in itertools.product(elements, repeat=t):
        total = sum(len(g.support()) for g in tup)
        if (best is None or total < best) and len(naive_closure(tup, n)) == len(elements):
            best, witness = total, tup
    optimum = None if best is None else Fraction(best, n)
    cost = cost_relation(relation)
    comparison = {
        "relation_cost": frac_str(cost),
        "gap": None if optimum is None else frac_str(optimum - cost),
        "strictly_above_cost": None if optimum is None else optimum > cost,
    }
    return SearchResult(optimum, witness, len(elements) ** t, True, comparison)


def pairwise_conjugacy_representatives(elements):
    """Lex-least element of each conjugacy class, by conjugating every
    element by every element."""
    pairs = [(h, h.inverse()) for h in elements]
    reps, seen = [], set()
    for g in elements:
        if g not in seen:
            reps.append(g)
            seen.update(h * g * h_inv for h, h_inv in pairs)
    return reps


def tuple_closure(gens, n, cap):
    """Breadth-first closure by tuple composition, stopped once it holds
    more than ``cap`` elements: the route the byte tables must reproduce."""
    identity = tuple(range(n))
    seen, frontier = {identity}, [identity]
    while frontier and len(seen) <= cap:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g.images[x] for x in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


@st.composite
def generator_sets(draw):
    n = draw(st.integers(1, 9))
    images = draw(st.lists(st.permutations(range(n)), max_size=3))
    return n, tuple(Permutation(img) for img in images)


class TestBruteMinGraphingCost:
    def test_single_class_on_four_points(self):
        res = brute_min_graphing_cost(Partition.single_class(4))
        assert res.optimum == Fraction(3, 4)
        assert res.search_space_size == 64
        assert res.exhaustive
        # first witness in subset order is the star at point 0
        pairs = tuple(mp.pairs[0] for mp in res.witness.maps)
        assert pairs == ((0, 1), (0, 2), (0, 3))

    def test_two_pair_classes(self):
        rel = Partition.from_classes(4, [[0, 1], [2, 3]])
        res = brute_min_graphing_cost(rel)
        assert res.optimum == Fraction(1, 2)
        assert generate_relation(res.witness) == rel

    def test_singletons_cost_nothing(self):
        res = brute_min_graphing_cost(Partition(tuple(range(3))))
        assert res.optimum == 0
        assert res.witness == Graphing(3, ())
        assert res.search_space_size == 8

    def test_optimum_equals_relation_cost_everywhere(self):
        # the brute-force route and the closed form agree on every
        # partition of up to 5 points
        for n in range(1, 6):
            for rel in all_partitions(n):
                res = brute_min_graphing_cost(rel)
                assert res.optimum == cost_relation(rel)
                assert generate_relation(res.witness) == rel
                assert cost_graphing(res.witness) == res.optimum

    def test_refuses_beyond_six_points(self):
        with pytest.raises(SearchSpaceTooLargeError):
            brute_min_graphing_cost(Partition.single_class(7))


class TestFullGroupElements:
    """``oracle._group``: the full group as byte tables, support sizes and
    conjugacy representatives, built in one pass."""

    def test_counts_match_orders(self):
        for n in range(1, 5):
            for rel in all_partitions(n):
                tables, support, _ = oracle._group(rel)
                assert len(tables) == len(support) == full_group_order(rel)
                assert len(set(tables)) == len(tables)

    def test_sorted_by_image_array(self):
        tables, _, _ = oracle._group(Partition.from_classes(5, [[0, 2, 4], [1, 3]]))
        arrays = [tuple(t[:5]) for t in tables]
        assert arrays == sorted(arrays)
        assert all(t[5:] == bytes(range(5, 256)) for t in tables)

    def test_elements_preserve_classes(self):
        rel = Partition.from_classes(4, [[0, 1], [2, 3]])
        for table in oracle._group(rel)[0]:
            for x in range(4):
                assert rel.class_id[x] == rel.class_id[table[x]]

    def test_matches_class_preserving_permutations(self):
        # tables and support sizes against filtering all n! arrays, on every
        # partition of up to 6 points
        for n in range(1, 7):
            for rel in all_partitions(n):
                tables, support, _ = oracle._group(rel)
                arrays = class_preserving_arrays(rel)
                assert [tuple(t[:n]) for t in tables] == arrays
                assert list(support) == [sum(x != y for x, y in enumerate(img))
                                         for img in arrays]


class TestBruteMinGenerators:
    def test_trivial_relation(self):
        res = brute_min_generators(Partition(tuple(range(4))))
        assert res.optimum == 0
        assert res.witness == ()
        assert res.search_space_size == 1
        assert res.exhaustive

    def test_two_point_class(self):
        res = brute_min_generators(Partition.from_classes(2, [[0, 1]]))
        assert res.optimum == 1
        assert res.witness == (Permutation((1, 0)),)

    def test_symmetric_group_on_four_points(self):
        res = brute_min_generators(Partition.single_class(4))
        assert res.optimum == 2
        assert tuple(p.images for p in res.witness) == ((0, 1, 3, 2), (1, 2, 0, 3))
        assert res.search_space_size == 39
        assert res.exhaustive

    def test_witness_generates_the_full_group(self):
        for n in range(1, 5):
            for rel in all_partitions(n):
                res = brute_min_generators(rel)
                assert generates_full_group(res.witness, rel)[0]

    def test_minimality_against_unreduced_scan(self):
        # independent check on 3 points: no shorter tuple generates
        for rel in all_partitions(3):
            res = brute_min_generators(rel)
            if res.optimum == 0:
                continue
            shorter = res.optimum - 1
            elems = full_group(rel)
            for tup in itertools.product(elems, repeat=shorter):
                order = len(naive_closure(tup)) if tup else 1
                assert order < full_group_order(rel)

    def test_refuses_beyond_five_points(self):
        with pytest.raises(SearchSpaceTooLargeError):
            brute_min_generators(Partition.single_class(6))

    @pytest.mark.parametrize("k", [3, 4])
    def test_needs_one_generator_per_two_point_class(self, monkeypatch, k):
        """Sym(2)^k is C2^k, which needs k generators, so t has no fixed
        bound: with the cap raised to 8 points, k = 4 needs t = 4."""
        monkeypatch.setattr(oracle, "MAX_GROUP_POINTS", 2 * k)
        rel = Partition.from_classes(2 * k, [[2 * i, 2 * i + 1] for i in range(k)])
        res = brute_min_generators(rel)
        assert res.optimum == k
        assert res.exhaustive
        assert len(naive_closure(res.witness)) == 2**k

    def test_representatives_match_pairwise_conjugation(self):
        # the closed-form lex-least element per cycle type and class against
        # conjugating by every element, on every partition of up to 6
        # points, order included
        for n in range(1, 7):
            for rel in all_partitions(n):
                elems = full_group(rel)
                got = [elems[i] for i in oracle._group(rel)[2]]
                assert got == pairwise_conjugacy_representatives(elems)


class TestBruteMinGeneratingSupport:
    def test_symmetric_group_on_four_points_pairs(self):
        res = brute_min_generating_support(Partition.single_class(4), 2)
        assert res.optimum == Fraction(5, 4)
        assert tuple(p.images for p in res.witness) == ((0, 1, 3, 2), (1, 2, 0, 3))
        assert res.search_space_size == 24 ** 2
        assert res.comparison == {
            "relation_cost": "3/4",
            "gap": "1/2",
            "strictly_above_cost": True,
        }

    def test_single_generator_cannot_give_sym3(self):
        res = brute_min_generating_support(Partition.single_class(3), 1)
        assert res.optimum is None
        assert res.witness is None
        assert res.exhaustive
        assert res.comparison == {
            "relation_cost": "2/3",
            "gap": None,
            "strictly_above_cost": None,
        }

    def test_two_point_class_single_generator(self):
        res = brute_min_generating_support(Partition.from_classes(2, [[0, 1]]), 1)
        assert res.optimum == 1
        assert res.comparison["strictly_above_cost"] is True

    def test_zero_tuple_only_generates_trivial(self):
        res = brute_min_generating_support(Partition(tuple(range(3))), 0)
        assert res.optimum == 0 and res.witness == ()
        assert res.comparison == {
            "relation_cost": "0/1",
            "gap": "0/1",
            "strictly_above_cost": False,
        }
        res = brute_min_generating_support(Partition.single_class(3), 0)
        assert res.optimum is None

    def test_optimum_strictly_above_cost_on_symmetric_groups(self):
        expected = {3: Fraction(4, 3), 4: Fraction(5, 4), 5: Fraction(6, 5)}
        for n, value in expected.items():
            res = brute_min_generating_support(Partition.single_class(n), 2)
            assert res.optimum == value
            assert res.comparison["strictly_above_cost"] is True
            assert res.optimum > cost_relation(Partition.single_class(n))

    def test_longer_tuples_never_cost_more(self):
        rel = Partition.single_class(4)
        one = brute_min_generating_support(rel, 1)
        two = brute_min_generating_support(rel, 2)
        assert one.optimum is None or two.optimum <= one.optimum

    def test_witnesses_generate(self):
        for n in range(2, 5):
            for rel in all_partitions(n):
                res = brute_min_generating_support(rel, 2)
                if res.optimum is None:
                    continue
                assert generates_full_group(res.witness, rel)[0]

    def test_caps(self):
        with pytest.raises(SearchSpaceTooLargeError):
            brute_min_generating_support(Partition.single_class(6), 1)
        with pytest.raises(SearchSpaceTooLargeError):
            brute_min_generating_support(Partition.single_class(3), 3)
        with pytest.raises(SearchSpaceTooLargeError):
            brute_min_generating_support(Partition.single_class(3), -1)

    def test_matches_the_lexicographic_scan(self):
        # the search over conjugacy representatives by support total reports
        # what one full scan in lexicographic order reports, on every
        # partition of up to 5 points
        for n in range(1, 6):
            for rel in all_partitions(n):
                for t in (0, 1, 2):
                    got = brute_min_generating_support(rel, t).to_json_dict()
                    assert got == lexicographic_min_support(rel, t).to_json_dict()

    def test_closure_count_on_sym5_pairs(self, monkeypatch):
        # a deterministic work count: the full scan closes 755 tuples here
        calls = []
        closure = oracle._closure

        def spy(*args, **kwargs):
            calls.append(args)
            return closure(*args, **kwargs)

        monkeypatch.setattr(oracle, "_closure", spy)
        brute_min_generating_support(Partition.single_class(5), 2)
        assert len(calls) == 179

    def test_symmetric_group_on_five_points_pinned(self):
        # the largest group under the caps; the support search (candidates
        # in order of support total) and the min-gens scan (t = 1, 2, ...)
        # both start from conjugacy representatives and keep this witness
        rel = Partition.single_class(5)
        witness = ((0, 1, 2, 4, 3), (1, 2, 3, 0, 4))
        pairs = brute_min_generating_support(rel, 2)
        assert pairs.optimum == Fraction(6, 5)
        assert tuple(p.images for p in pairs.witness) == witness
        assert pairs.search_space_size == 120 ** 2
        gens = brute_min_generators(rel)
        assert gens.optimum == 2
        assert tuple(p.images for p in gens.witness) == witness
        assert gens.search_space_size == 161

    def test_json_serialization_of_results(self):
        res = brute_min_generating_support(Partition.single_class(3), 2)
        data = res.to_json_dict()
        assert data["optimum"] == "4/3"
        assert isinstance(data["witness"], list)
        assert data["comparison"]["relation_cost"] == "2/3"
        empty = brute_min_generating_support(Partition.single_class(3), 1)
        assert empty.to_json_dict()["optimum"] is None
        cost = brute_min_graphing_cost(Partition.single_class(3))
        assert cost.to_json_dict()["witness"] == {
            "n": 3,
            "maps": [
                {"n": 3, "pairs": [[0, 1]]},
                {"n": 3, "pairs": [[0, 2]]},
            ],
        }


class TestNaiveClosureCap:
    def test_cap_is_enforced(self):
        gens = (
            Permutation.from_cycles(6, [tuple(range(6))]),
            Permutation.from_cycles(6, [(0, 1)]),
        )
        with pytest.raises(SearchSpaceTooLargeError):
            naive_closure(gens, cap=10)

    def test_identity_closure_without_generators(self):
        assert naive_closure((), n_points=3) == {(0, 1, 2)}


class TestNaiveClosureBytes:
    @settings(deadline=None, max_examples=60)
    @given(generator_sets())
    def test_matches_tuple_composition(self, drawn):
        n, gens = drawn
        cap = 6_000  # Sym(7) closes; giants on 8 or 9 points exceed it
        expected = tuple_closure(gens, n, cap)
        if len(expected) > cap:
            with pytest.raises(SearchSpaceTooLargeError):
                naive_closure(gens, n_points=n, cap=cap)
        else:
            assert naive_closure(gens, n_points=n, cap=cap) == expected

    def test_transposition_on_256_points(self):
        # the largest space the tables cover, with the cap met exactly
        t = Permutation.from_cycles(256, [(0, 255)])
        assert naive_closure((t,), cap=2) == {tuple(range(256)), t.images}
        with pytest.raises(SearchSpaceTooLargeError):
            naive_closure((t,), cap=1)

    def test_refuses_generators_on_different_spaces(self):
        with pytest.raises(SpaceMismatchError, match="3 != 4"):
            naive_closure((Permutation((1, 0, 2)), Permutation((1, 0, 2, 3))))

    def test_refuses_n_points_other_than_the_generators(self):
        with pytest.raises(SpaceMismatchError, match="3 != 5"):
            naive_closure((Permutation((1, 0, 2)),), n_points=5)
        assert naive_closure((Permutation((1, 0, 2)),), n_points=3) == {
            (0, 1, 2), (1, 0, 2)}

    def test_checks_n_points_as_a_space_size(self):
        for bad in (0, -3, True):
            with pytest.raises(ValueError, match="n_points"):
                naive_closure((), n_points=bad)

    def test_refuses_more_than_256_points(self):
        with pytest.raises(SearchSpaceTooLargeError):
            naive_closure((Permutation.identity(257),))
        with pytest.raises(SearchSpaceTooLargeError):
            naive_closure((), n_points=257)


def test_oracle_does_not_import_the_engine_or_a_pool():
    # the oracle is the independent route the engine is checked against
    source = Path(__file__).resolve().parents[1] / "src" / "orbitlab" / "oracle.py"
    imported = []
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
    for name in imported:
        parts = name.split(".")
        assert "group_engine" not in parts and "multiprocessing" not in parts, name
        assert "concurrent.futures" not in name, name
