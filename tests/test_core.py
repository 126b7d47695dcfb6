"""Permutations, partial injections, and the exact uniform metric."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_permutation
from orbitlab import (
    PartialInjection,
    Partition,
    Permutation,
    PrePCycle,
    SpaceMismatchError,
    compose,
    conjugate_partial,
    generates_full_group,
    in_full_group,
    join,
    merge_generators,
    naive_closure,
    support_measure,
    uniform_distance,
)
from orbitlab.core import MAX_POINTS, check_space


def perms(n):
    return st.permutations(list(range(n))).map(lambda xs: Permutation(tuple(xs)))


class TestPermutation:
    def test_from_cycles(self):
        t = Permutation.from_cycles(4, [(0, 1, 2)])
        assert t.images == (1, 2, 0, 3)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 2))

    def test_rejects_overlapping_cycles(self):
        with pytest.raises(ValueError):
            Permutation.from_cycles(4, [(0, 1), (1, 2)])

    @pytest.mark.parametrize(
        "n, cycle, point",
        [(4, (3, -1), "-1"), (3, (2, 3), "3"), (3, (0, 1.0), "1.0"), (3, (True, 2), "True")],
        ids=["negative", "past_n", "float", "bool"],
    )
    def test_from_cycles_refuses_points_outside_the_space(self, n, cycle, point):
        with pytest.raises(ValueError, match=f"^point {point} outside the space of size {n}$"):
            Permutation.from_cycles(n, [cycle])

    def test_composition_applies_right_factor_first(self):
        t = Permutation.from_cycles(3, [(0, 1)])
        u = Permutation.from_cycles(3, [(1, 2)])
        assert (t * u)(1) == t(u(1)) == 2
        assert (t * u).images == (1, 2, 0)

    def test_inverse_round_trip(self):
        rng = random.Random(7)
        for _ in range(20):
            t = random_permutation(rng, 9)
            assert t * t.inverse() == Permutation.identity(9)

    def test_power_matches_repeated_product(self):
        t = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
        acc = Permutation.identity(5)
        for k in range(12):
            assert t**k == acc
            acc = acc * t
        assert t**-3 == (t.inverse()) ** 3

    def test_cycles_round_trip(self):
        t = Permutation.from_cycles(7, [(0, 3, 5), (1, 6)])
        assert t.cycles() == ((0, 3, 5), (1, 6))

    def test_json_round_trip(self):
        t = Permutation.from_cycles(4, [(0, 2)])
        assert Permutation.from_json_dict(t.to_json_dict()) == t
        assert t.to_json_dict() == {"n": 4, "images": [2, 1, 0, 3]}

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            Permutation.identity(3) * Permutation.identity(4)

    def test_products_match_the_validating_constructor(self):
        """``*``, ``**`` and ``inverse`` skip the bijection check; their
        results must equal permutations built through it."""
        rng = random.Random(16)
        for _ in range(50):
            n = rng.randint(1, 30)
            t, u = random_permutation(rng, n), random_permutation(rng, n)
            k = rng.randint(-7, 40)
            product = Permutation(tuple(t.images[u.images[x]] for x in range(n)))
            inverse = Permutation(tuple(t.images.index(y) for y in range(n)))
            power = Permutation(tuple(range(n)))
            for _ in range(abs(k)):
                power = Permutation(tuple((t if k > 0 else inverse).images[x] for x in power.images))
            for fast, slow in ((t * u, product), (t.inverse(), inverse), (t**k, power)):
                assert fast == slow and hash(fast) == hash(slow)
                assert type(fast.images) is tuple
        with pytest.raises(ValueError, match="bijection"):
            Permutation((0, 0, 1))


class TestPartialInjection:
    def test_pairs_are_canonically_sorted(self):
        phi = PartialInjection(5, ((3, 0), (1, 4)))
        assert phi.pairs == ((1, 4), (3, 0))

    def test_duplicate_source_rejected(self):
        with pytest.raises(ValueError):
            PartialInjection(5, ((1, 2), (1, 3)))

    def test_duplicate_target_rejected(self):
        with pytest.raises(ValueError):
            PartialInjection(5, ((1, 2), (3, 2)))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PartialInjection(3, ((1, 3),))

    def test_domain_range_measure(self):
        phi = PartialInjection(6, ((0, 1), (2, 3), (4, 5)))
        assert phi.dom == {0, 2, 4}
        assert phi.rng == {1, 3, 5}
        assert phi.domain_measure == Fraction(1, 2)

    def test_json_round_trip(self):
        phi = PartialInjection(5, ((4, 0), (2, 3)))
        assert PartialInjection.from_json_dict(phi.to_json_dict()) == phi
        assert phi.to_json_dict() == {"n": 5, "pairs": [[2, 3], [4, 0]]}


class TestCompose:
    def test_defined_exactly_on_the_chain(self):
        inner = PartialInjection(6, ((0, 1), (2, 3)))
        outer = PartialInjection(6, ((3, 5), (4, 0)))
        out = compose(outer, inner)
        assert out.pairs == ((2, 5),)

    def test_empty_overlap_gives_empty_map(self):
        inner = PartialInjection(4, ((0, 1),))
        outer = PartialInjection(4, ((2, 3),))
        assert compose(outer, inner).pairs == ()

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            compose(PartialInjection(3, ()), PartialInjection(4, ()))

    @settings(deadline=None, max_examples=50)
    @given(st.data())
    def test_associativity(self, data):
        n = 6
        rng = random.Random(data.draw(st.integers(0, 10**6)))

        def rnd():
            size = rng.randint(0, n)
            return PartialInjection(
                n, tuple(zip(rng.sample(range(n), size), rng.sample(range(n), size)))
            )

        a, b, c = rnd(), rnd(), rnd()
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


class TestUniformDistance:
    def test_counts_disagreements(self):
        t = Permutation.from_cycles(4, [(0, 1)])
        u = Permutation.from_cycles(4, [(0, 1, 2)])
        # t: (1,0,2,3); u: (1,2,0,3) -> differ at 1 and 2
        assert uniform_distance(t, u) == Fraction(2, 4)

    def test_distance_to_identity_is_support_measure(self):
        rng = random.Random(11)
        for _ in range(25):
            t = random_permutation(rng, 10)
            assert uniform_distance(t, Permutation.identity(10)) == support_measure(t)
            assert support_measure(t) == Fraction(len(t.support()), 10)

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_metric_axioms_and_bi_invariance(self, data):
        n = 6
        t = data.draw(perms(n))
        u = data.draw(perms(n))
        v = data.draw(perms(n))
        d = uniform_distance
        assert d(t, u) == d(u, t)
        assert (d(t, u) == 0) == (t == u)
        assert d(t, u) <= d(t, v) + d(v, u)
        assert d(v * t, v * u) == d(t, u)
        assert d(t * v, u * v) == d(t, u)


class TestSpaceChecks:
    @pytest.mark.parametrize("n", [1, MAX_POINTS])
    def test_accepts_one_to_the_cap(self, n):
        """What it refuses, and with which text, is pinned on every wire
        type in test_cli.py."""
        check_space(n)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: uniform_distance(Permutation.identity(3), Permutation.identity(4)),
            lambda: in_full_group(Permutation.identity(3), Partition.single_class(4)),
            lambda: join([Partition.single_class(3), Partition.single_class(4)]),
            lambda: generates_full_group([Permutation.identity(3)], Partition.single_class(4)),
            lambda: naive_closure((Permutation.identity(3), Permutation.identity(4))),
            lambda: conjugate_partial(Permutation.identity(3), PartialInjection(4, ())),
            lambda: merge_generators(Permutation.identity(3), Permutation.identity(4), 3),
            lambda: PrePCycle(3, (PartialInjection(4, ((0, 1),)),)),
        ],
        ids=[
            "uniform_distance", "in_full_group", "join", "generates_full_group",
            "naive_closure", "conjugate_partial", "merge_generators", "PrePCycle",
        ],
    )
    def test_operands_on_different_spaces(self, call):
        with pytest.raises(SpaceMismatchError, match="^space sizes differ: [34] != [34]$"):
            call()


def test_every_exported_name_resolves():
    import orbitlab

    for name in orbitlab.__all__:
        getattr(orbitlab, name)


def test_every_public_function_has_a_caller():
    """A public function or method needs a caller: its name must appear
    somewhere else in the package, or be exported.  Dunders are exempt.
    Names are matched, not bindings, so a method whose name another
    method shares and uses passes unseen."""
    import orbitlab

    sources = sorted((Path(__file__).resolve().parents[1] / "src" / "orbitlab").glob("*.py"))
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sources]
    used = set()
    defined = []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        body = list(tree.body)
        while body:
            node = body.pop()
            if isinstance(node, ast.ClassDef):
                body.extend(node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append(node.name)
    uncalled = sorted(
        {name for name in defined if not name.startswith("_")}
        - used
        - set(orbitlab.__all__)
    )
    assert not uncalled, f"public names without a caller: {uncalled}"
