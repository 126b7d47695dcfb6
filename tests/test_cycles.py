"""Chain validation, cycle closure, conjugation shifts, and per-index generators."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_precycle
from orbitlab import (
    ChainingError,
    DisjointnessError,
    Graphing,
    PartialInjection,
    Permutation,
    PrePCycle,
    conjugate_partial,
    generate_relation,
    generates_full_group,
    isopgen_generators,
    make_cycle,
    orbit_sizes,
    validate_precycle,
)


def two_step_chain():
    # stations {0,1}, {2,3}, {4,5} -> p = 3
    return PrePCycle(
        8,
        (
            PartialInjection(8, ((0, 2), (1, 3))),
            PartialInjection(8, ((2, 4), (3, 5))),
        ),
    )


class TestPrePCycleValidation:
    def test_p_counts_stations_not_maps(self):
        assert two_step_chain().p == 3
        single = PrePCycle(4, (PartialInjection(4, ((0, 1),)),))
        assert single.p == 2

    def test_needs_at_least_one_map(self):
        with pytest.raises(ValueError, match="at least one map"):
            PrePCycle(4, ())

    def test_maps_must_be_nonempty(self):
        with pytest.raises(ValueError, match="empty"):
            PrePCycle(4, (PartialInjection(4, ()),))

    def test_range_must_equal_next_domain(self):
        with pytest.raises(ChainingError) as exc:
            PrePCycle(
                6,
                (
                    PartialInjection(6, ((0, 2),)),
                    PartialInjection(6, ((3, 4),)),
                ),
            )
        assert exc.value.index == 0  # 0-based position of the earlier map

    def test_stations_must_be_disjoint(self):
        # range of the last map meets the first domain
        with pytest.raises(DisjointnessError) as exc:
            PrePCycle(
                4,
                (
                    PartialInjection(4, ((0, 1),)),
                    PartialInjection(4, ((1, 0),)),
                ),
            )
        assert exc.value.point == 0

    def test_space_sizes_must_agree(self):
        with pytest.raises(ValueError, match="size"):
            PrePCycle(
                8,
                (
                    PartialInjection(8, ((0, 1),)),
                    PartialInjection(7, ((1, 2),)),
                ),
            )

    def test_as_graphing_and_validate_round_trip(self):
        pre = two_step_chain()
        g = pre.as_graphing()
        assert isinstance(g, Graphing)
        assert validate_precycle(g) == pre

    def test_validate_rejects_broken_graphing(self):
        g = Graphing(
            6,
            (PartialInjection(6, ((0, 1),)), PartialInjection(6, ((3, 4),))),
        )
        with pytest.raises(ChainingError):
            validate_precycle(g)

    def test_json_round_trip(self):
        pre = two_step_chain()
        assert validate_precycle(Graphing.from_json_dict(pre.to_json_dict())) == pre


class TestMakeCycle:
    def test_closes_each_chain(self):
        c = make_cycle(two_step_chain())
        assert c(0) == 2 and c(2) == 4 and c(4) == 0
        assert c(1) == 3 and c(3) == 5 and c(5) == 1
        assert c(6) == 6 and c(7) == 7

    def test_orbit_sizes_are_one_or_p(self):
        c = make_cycle(two_step_chain())
        assert orbit_sizes(c) == (1, 1, 3, 3)

    def test_order_of_the_cycle_is_p(self):
        pre = two_step_chain()
        c = make_cycle(pre)
        assert c ** pre.p == Permutation.identity(pre.n)
        assert c ** 2 != Permutation.identity(pre.n)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 10**6))
    def test_random_chains_close_correctly(self, seed):
        rng = random.Random(seed)
        pre = random_precycle(rng)
        c = make_cycle(pre)
        p = pre.p
        assert set(orbit_sizes(c)) <= {1, p}
        # the cycle extends every map in the chain
        for phi in pre.maps:
            for s, t in phi.pairs:
                assert c(s) == t
        assert c ** p == Permutation.identity(pre.n)


class TestConjugatePartial:
    def test_cycle_conjugation_shifts_the_chain(self):
        pre = two_step_chain()
        c = make_cycle(pre)
        assert conjugate_partial(c, pre.maps[0]) == pre.maps[1]

    def test_general_conjugation_formula(self):
        c = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
        phi = PartialInjection(5, ((0, 2),))
        assert conjugate_partial(c, phi) == PartialInjection(5, ((1, 3),))

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 10**6))
    def test_shift_holds_along_random_chains(self, seed):
        rng = random.Random(seed)
        pre = random_precycle(rng)
        c = make_cycle(pre)
        for j in range(len(pre.maps) - 1):
            assert conjugate_partial(c, pre.maps[j]) == pre.maps[j + 1]


class TestIsopgenGenerators:
    def test_index_must_be_in_range(self):
        pre = two_step_chain()
        with pytest.raises(ValueError):
            isopgen_generators(pre, 0)
        with pytest.raises(ValueError):
            isopgen_generators(pre, 3)

    def test_last_generator_is_the_cycle(self):
        pre = two_step_chain()
        gens = isopgen_generators(pre, 1)
        assert gens[-1] == make_cycle(pre)

    def test_generates_full_group_of_the_chain_relation(self):
        pre = two_step_chain()
        rel = generate_relation(pre.as_graphing())
        for i in (1, 2):
            ok, cert = generates_full_group(isopgen_generators(pre, i), rel)
            assert ok and cert["generates"]

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 10**6))
    def test_random_chains_generate_their_full_groups(self, seed):
        rng = random.Random(seed)
        pre = random_precycle(rng, n_max=16, p_max=4, m_max=3)
        rel = generate_relation(pre.as_graphing())
        i = rng.randint(1, len(pre.maps))
        ok, _ = generates_full_group(isopgen_generators(pre, i), rel)
        assert ok
