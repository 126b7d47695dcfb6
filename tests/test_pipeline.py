"""Configuration checks, the reshaping tool-chain, and full pipeline runs."""

import dataclasses
import decimal
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlab import (
    ConfigError,
    GeneratorSet,
    Graphing,
    PartialInjection,
    Partition,
    Permutation,
    PipelineConfig,
    PrePCycle,
    append_psi,
    build_matui_pair,
    compose,
    cost_graphing,
    generate_relation,
    isopar_witness,
    merge_generators,
    orbit_sizes,
    regroup_graphing,
    reshape_to_precycle,
    run_pipeline,
    split_graphing,
)
from orbitlab import generates_full_group, group_engine, pipeline
from orbitlab.core import MAX_POINTS
from orbitlab.pipeline import MAX_CHAINS, certificates_ok


def small_config(**overrides):
    params = dict(n_cycles=1, n_points=10, p=3, m=1)
    params.update(overrides)
    return PipelineConfig(**params)


class TestPipelineConfig:
    def test_valid_config_derives_cost_and_blocks(self):
        cfg = small_config()
        assert cfg.cost_per_cycle == Fraction(3, 10)
        assert cfg.blocks() == ((2,), (3,), (4,), (5,), (6,))

    def test_blocks_have_width_m(self):
        cfg = PipelineConfig(n_cycles=2, n_points=40, p=3, m=2)
        assert cfg.blocks() == (
            (2, 3), (4, 5), (6, 7), (8, 9), (10, 11),
        )

    def test_positive_integer_fields(self):
        for field in ("n_cycles", "n_points", "p", "m"):
            with pytest.raises(ConfigError):
                small_config(**{field: 0})

    def test_booleans_are_not_integers(self):
        for field in ("n_cycles", "n_points", "p", "m"):
            with pytest.raises(ConfigError, match="must be a positive integer, got True"):
                small_config(**{field: True})

    def test_p_must_be_odd_and_at_least_three(self):
        with pytest.raises(ConfigError, match="odd"):
            small_config(p=4, n_points=40)
        with pytest.raises(ConfigError, match="odd"):
            small_config(p=1, n_points=40)

    def test_budget_bound(self):
        # ((3+2)/3) * (3*2/10) = 1, not strictly below it
        with pytest.raises(ConfigError, match="budget"):
            PipelineConfig(n_cycles=1, n_points=10, p=3, m=2)

    def test_layout_bound(self):
        # blocks need 2 + 5*1 = 7 points
        with pytest.raises(ConfigError, match="layout"):
            PipelineConfig(n_cycles=1, n_points=6, p=3, m=1)

    def test_support_bound(self):
        # budget and layout pass but 2/12 >= 1 - (5/2)*(1/2)
        with pytest.raises(ConfigError, match="support"):
            PipelineConfig(n_cycles=1, n_points=12, p=3, m=2)

    def test_space_is_capped(self):
        assert PipelineConfig(n_cycles=1, n_points=MAX_POINTS, p=3, m=1).n_points == MAX_POINTS
        for n_points in (MAX_POINTS + 1, 2**70):
            with pytest.raises(ConfigError, match="at most"):
                PipelineConfig(n_cycles=1, n_points=n_points, p=3, m=1)

    def test_chain_count_is_capped(self):
        assert small_config(n_cycles=MAX_CHAINS).n_cycles == MAX_CHAINS
        for n_cycles in (MAX_CHAINS + 1, 2**70):
            with pytest.raises(ConfigError, match=f"at most {MAX_CHAINS}"):
                small_config(n_cycles=n_cycles)

    def test_graphing_space_must_match(self):
        g = Graphing(9, (PartialInjection(9, ((0, 1),)),))
        with pytest.raises(ConfigError, match="graphing lives on"):
            small_config(graphing=g)

    def test_graphing_pair_count_must_be_n_p_m(self):
        g = Graphing(10, (PartialInjection(10, ((7, 8),)),))
        with pytest.raises(ConfigError, match="n\\*p\\*m"):
            small_config(graphing=g)


class TestBuildMatuiPair:
    def test_shapes_and_support(self):
        t0, u0 = build_matui_pair(8)
        assert orbit_sizes(t0) == (8,)
        assert u0.support() == {0, 1}
        assert u0 * u0 == Permutation.identity(8)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            build_matui_pair(2)

    def test_pair_generates_the_symmetric_group(self):
        """The pair is proved through the public route, past any naive closure."""
        n_points = 5000
        ok, cert = generates_full_group(
            list(build_matui_pair(n_points)), Partition.single_class(n_points)
        )
        assert ok and cert["generates"] is True
        for field in ("generated_order", "full_group_order"):
            assert decimal.Decimal(cert[field]) == math.factorial(n_points)

    @pytest.mark.parametrize("mode, calls", [("a", 4), ("b", 1), ("both", 5)])
    def test_pipeline_does_not_certify_the_pair_in_line(self, monkeypatch, mode, calls):
        """Only reported certificates are computed: never the bare pair."""
        seen = []

        def spy(gens, relation):
            seen.append(list(gens))
            return generates_full_group(gens, relation)

        monkeypatch.setattr(pipeline, "generates_full_group", spy)
        report = run_pipeline(PipelineConfig(n_cycles=2, n_points=16, p=3, m=1), mode=mode)
        assert certificates_ok(report.certificates)
        pair = list(build_matui_pair(16))
        assert len(seen) == calls
        assert pair not in seen


class TestSplitGraphing:
    def two_map_graphing(self):
        return Graphing(
            12,
            (
                PartialInjection(12, ((0, 4), (1, 5))),
                PartialInjection(12, ((2, 6), (3, 7))),
            ),
        )

    def test_splits_preserve_pairs_and_cost(self):
        g = self.two_map_graphing()
        parts = split_graphing(g, 2)
        assert len(parts) == 2
        assert all(cost_graphing(part) == cost_graphing(g) / 2 for part in parts)
        all_pairs = {(s, t) for mp in g.maps for s, t in mp.pairs}
        got = {(s, t) for part in parts for mp in part.maps for s, t in mp.pairs}
        assert got == all_pairs

    def test_chunk_crossing_a_map_boundary_keeps_two_maps(self):
        g = Graphing(
            12,
            (
                PartialInjection(12, ((0, 4),)),
                PartialInjection(12, ((1, 5), (2, 6), (3, 7))),
            ),
        )
        first, second = split_graphing(g, 2)
        assert [mp.pairs for mp in first.maps] == [((0, 4),), ((1, 5),)]
        assert [mp.pairs for mp in second.maps] == [((2, 6), (3, 7))]

    def test_uneven_split_reports_padding(self):
        g = Graphing(12, (PartialInjection(12, ((0, 4), (1, 5), (2, 6))),))
        with pytest.raises(ValueError, match="pad the graphing with 1 more"):
            split_graphing(g, 2)

    def test_part_count_must_be_positive(self):
        with pytest.raises(ValueError):
            split_graphing(self.two_map_graphing(), 0)


class TestRegroupGraphing:
    def test_regroups_into_k_maps_of_m_pairs(self):
        g = Graphing(
            10,
            (PartialInjection(10, ((0, 1), (2, 3), (4, 5), (6, 7))),),
        )
        out = regroup_graphing(g, 2, 2)
        assert len(out.maps) == 2
        assert all(len(mp.pairs) == 2 for mp in out.maps)
        assert {(s, t) for mp in out.maps for s, t in mp.pairs} == {
            (0, 1), (2, 3), (4, 5), (6, 7),
        }

    def test_pair_count_must_match(self):
        g = Graphing(10, (PartialInjection(10, ((0, 1),)),))
        with pytest.raises(ValueError, match="k\\*m"):
            regroup_graphing(g, 2, 1)

    def test_conflicting_pairs_cannot_share_a_map(self):
        # both pairs leave point 0, so one map of size two is impossible
        g = Graphing(
            10,
            (PartialInjection(10, ((0, 1),)), PartialInjection(10, ((0, 2),))),
        )
        with pytest.raises(ValueError, match="first-fit"):
            regroup_graphing(g, 1, 2)


class TestReshapeToPrecycle:
    def test_carries_maps_onto_blocks(self):
        g = Graphing(
            12,
            (PartialInjection(12, ((8, 9),)), PartialInjection(12, ((9, 10),))),
        )
        pre = reshape_to_precycle(g, [(2,), (3,), (4,)])
        assert pre.maps[0].pairs == ((2, 3),)
        assert pre.maps[1].pairs == ((3, 4),)

    def test_needs_one_more_block_than_maps(self):
        g = Graphing(12, (PartialInjection(12, ((8, 9),)),))
        with pytest.raises(ValueError, match="blocks"):
            reshape_to_precycle(g, [(2,)])

    def test_block_and_map_sizes_must_agree(self):
        g = Graphing(12, (PartialInjection(12, ((8, 9), (6, 7))),))
        with pytest.raises(ValueError, match="sizes"):
            reshape_to_precycle(g, [(2,), (3,)])

    def test_blocks_must_be_disjoint(self):
        g = Graphing(12, (PartialInjection(12, ((8, 9),)),))
        with pytest.raises(ValueError, match="overlap"):
            reshape_to_precycle(g, [(2,), (2,)])

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.integers(0, 10**6))
    def test_carry_by_rank_equals_the_composition(self, seed):
        # The reference is the composition with the increasing matchings of
        # block j onto the map's domain and of its range onto block j+1.
        rng = random.Random(seed)
        k = rng.randint(1, 6)
        m = rng.randint(1, 30 // (k + 1))
        n = rng.randint((k + 1) * m, 30)
        points = rng.sample(range(n), (k + 1) * m)
        blocks = [points[j * m : (j + 1) * m] for j in range(k + 1)]
        maps = [
            PartialInjection(n, tuple(zip(rng.sample(range(n), m), rng.sample(range(n), m))))
            for _ in range(k)
        ]
        pre = reshape_to_precycle(Graphing(n, tuple(maps)), blocks)
        single = Partition.single_class(n)
        assert len(pre.maps) == k
        for j, (old, new) in enumerate(zip(maps, pre.maps)):
            before = isopar_witness(single, blocks[j], old.dom)
            after = isopar_witness(single, old.rng, blocks[j + 1])
            assert new == compose(after, compose(old, before))
        for phi in maps + list(pre.maps):
            assert type(phi.dom) is frozenset and type(phi.rng) is frozenset
            assert phi.dom == {s for s, _ in phi.pairs}
            assert phi.rng == {t for _, t in phi.pairs}
            for name in ("dom", "rng"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(phi, name, frozenset())


class TestAppendPsi:
    def test_extends_every_chain_with_the_same_map(self):
        pre1 = PrePCycle(10, (PartialInjection(10, ((2, 4), (3, 5))),))
        pre2 = PrePCycle(10, (PartialInjection(10, ((3, 4), (2, 5))),))
        out = append_psi([pre1, pre2], (4, 5), (6, 7))
        assert out[0].maps[-1] == out[1].maps[-1]
        assert out[0].maps[-1].pairs == ((4, 6), (5, 7))
        assert all(c.p == 3 for c in out)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="no chains to extend"):
            append_psi([], (0,), (1,))

    def test_target_block_must_be_fresh(self):
        pre = PrePCycle(10, (PartialInjection(10, ((2, 4),)),))
        with pytest.raises(ValueError):
            append_psi([pre], (4,), (2,))


class TestMergeGenerators:
    def test_power_identities(self):
        u0 = Permutation.from_cycles(9, [(0, 1)])
        c1 = Permutation.from_cycles(9, [(2, 3, 4, 5, 6)])
        u1 = merge_generators(u0, c1, 3)
        assert u1 == u0 * c1
        assert u1 ** 5 == u0 and u1 ** 6 == c1

    def test_identity_merge_returns_the_cycle(self):
        c1 = Permutation.from_cycles(7, [(2, 3, 4, 5, 6)])
        assert merge_generators(Permutation.identity(7), c1, 3) == c1

    def test_p_must_be_odd(self):
        c1 = Permutation.from_cycles(8, [(2, 3, 4, 5, 6, 7)])
        with pytest.raises(ValueError, match="odd"):
            merge_generators(Permutation.from_cycles(8, [(0, 1)]), c1, 4)

    def test_first_factor_must_be_an_involution(self):
        bad = Permutation.from_cycles(9, [(0, 1, 2)])
        c1 = Permutation.from_cycles(9, [(3, 4, 5, 6, 7)])
        with pytest.raises(ValueError, match="square"):
            merge_generators(bad, c1, 3)

    def test_supports_must_be_disjoint(self):
        u0 = Permutation.from_cycles(9, [(0, 2)])
        c1 = Permutation.from_cycles(9, [(2, 3, 4, 5, 6)])
        with pytest.raises(ValueError, match="overlap"):
            merge_generators(u0, c1, 3)

    def test_orbit_sizes_must_be_p_plus_2(self):
        u0 = Permutation.from_cycles(9, [(0, 1)])
        wrong = Permutation.from_cycles(9, [(2, 3, 4)])
        with pytest.raises(ValueError, match="orbits"):
            merge_generators(u0, wrong, 3)


class TestGeneratorSet:
    def base_run(self):
        return run_pipeline(PipelineConfig(1, 12, 3, 1), mode="a")

    def test_set_sizes(self):
        gs = self.base_run().generators
        assert len(gs.full_set()) == 3  # t0, u0, one cycle
        assert len(gs.reduced_set()) == 2  # t0, merged u1

    def test_cycle_support_must_avoid_u0(self):
        gs = self.base_run().generators
        with pytest.raises(ValueError, match="overlapping"):
            GeneratorSet(
                gs.t0, gs.u0, gs.u1,
                (Permutation.from_cycles(12, [(0, 2)]),),
                gs.blocks, gs.psi,
            )

    def test_psi_must_connect_the_last_two_blocks(self):
        gs = self.base_run().generators
        with pytest.raises(ValueError, match="domain"):
            GeneratorSet(
                gs.t0, gs.u0, gs.u1, gs.cycles, gs.blocks,
                PartialInjection(12, ((4, 6),)),
            )
        with pytest.raises(ValueError, match="range"):
            GeneratorSet(
                gs.t0, gs.u0, gs.u1, gs.cycles, gs.blocks,
                PartialInjection(12, ((5, 7),)),
            )


class TestRunPipeline:
    def test_mode_keys(self):
        cfg = PipelineConfig(1, 12, 3, 1)
        a = run_pipeline(cfg, mode="a")
        b = run_pipeline(cfg, mode="b")
        both = run_pipeline(cfg, mode="both")
        assert set(a.certificates) == {
            "power_identities", "full_set", "reduced_set", "isopgen",
        }
        assert set(b.certificates) == {"power_identities", "mode_b"}
        assert set(both.certificates) == set(a.certificates) | {"mode_b"}
        assert (a.mode, b.mode, both.mode) == ("a", "b", "both")

    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="mode"):
            run_pipeline(PipelineConfig(1, 12, 3, 1), mode="c")

    def test_all_certificates_true_on_synthesized_runs(self):
        for cfg in (
            PipelineConfig(1, 10, 3, 1),
            PipelineConfig(2, 16, 3, 1),
            PipelineConfig(1, 20, 5, 1),
        ):
            report = run_pipeline(cfg)
            assert certificates_ok(report.certificates), cfg

    def test_thousand_point_run_certifies(self):
        report = run_pipeline(PipelineConfig(n_cycles=1, n_points=1000, p=5, m=2))
        assert set(report.certificates) == {
            "power_identities", "full_set", "reduced_set", "isopgen", "mode_b",
        }
        assert certificates_ok(report.certificates)

    def test_orders_beyond_the_int_string_limit(self):
        """2000! has 5 736 digits, more than ``str(int)`` converts by default."""
        report = run_pipeline(PipelineConfig(n_cycles=1, n_points=2000, p=3, m=1))
        assert certificates_ok(report.certificates)
        for name in ("full_set", "reduced_set"):
            cert = report.certificates[name]
            for field in ("generated_order", "full_group_order"):
                assert len(cert[field]) == 5736
                assert decimal.Decimal(cert[field]) == math.factorial(2000)

    def test_chains_are_extended_by_psi(self):
        cfg = PipelineConfig(2, 16, 3, 1)
        report = run_pipeline(cfg, mode="a")
        for pre in report.precycles:
            assert pre.p == cfg.p + 2
            assert pre.maps[-1] == report.generators.psi
        for cyc in report.generators.cycles:
            assert set(orbit_sizes(cyc)) <= {1, cfg.p + 2}

    def test_merged_element_recovers_both_factors(self):
        report = run_pipeline(PipelineConfig(1, 12, 3, 1), mode="a")
        gs = report.generators
        assert gs.u1 == gs.u0 * gs.cycles[0]
        assert gs.u1 ** 5 == gs.u0
        assert gs.u1 ** 6 == gs.cycles[0]
        assert report.certificates["power_identities"] == {
            "u1_pow_p_plus_2_equals_u0": True,
            "u1_pow_p_plus_3_equals_c1": True,
        }

    def test_frozen_cost_ledger(self):
        report = run_pipeline(PipelineConfig(1, 10, 3, 1), mode="a")
        assert report.cost_ledger == {
            "c": Fraction(3, 10),
            "budget_ratio": Fraction(1, 2),
            "epsilon": Fraction(1, 4),
            "u0_support_measure": Fraction(1, 5),
            "generator_distance_sum": Fraction(17, 10),
        }

    def test_frozen_mode_b_certificate(self):
        report = run_pipeline(PipelineConfig(1, 12, 3, 1), mode="b")
        assert report.certificates["mode_b"] == {
            "in_full_group": True,
            "generated_order": "120",
            "full_group_order": "120",
            "generates": True,
        }

    def test_mode_b_group_is_a_proper_subgroup_of_sym(self):
        report = run_pipeline(PipelineConfig(1, 12, 3, 1), mode="b")
        joined = generate_relation(report.precycles[0].as_graphing())
        assert not joined.num_classes == 1  # strictly smaller than S_N
        assert int(report.certificates["mode_b"]["full_group_order"]) < 479001600

    def test_user_graphing_path_matches_synthesized_chain(self):
        cfg = PipelineConfig(1, 12, 3, 1)
        user = Graphing(
            12,
            (
                PartialInjection(12, ((7, 8),)),
                PartialInjection(12, ((8, 9),)),
                PartialInjection(12, ((9, 10),)),
            ),
        )
        cfg_user = PipelineConfig(1, 12, 3, 1, graphing=user)
        assert run_pipeline(cfg_user).generators == run_pipeline(cfg).generators

    def test_user_graphing_with_two_chains(self):
        user = Graphing(
            16,
            (
                PartialInjection(16, ((8, 9), (10, 11))),
                PartialInjection(16, ((9, 12), (11, 13))),
                PartialInjection(16, ((12, 14), (13, 15))),
            ),
        )
        cfg = PipelineConfig(2, 16, 3, 1, graphing=user)
        report = run_pipeline(cfg)
        assert certificates_ok(report.certificates)
        assert len(report.generators.cycles) == 2

    def test_builds_no_stabilizer_chain(self, monkeypatch):
        """Every pipeline certificate is proved by the transposition closure."""
        built = []
        monkeypatch.setattr(group_engine, "_Chain", lambda n: built.append(n))
        user = Graphing(
            12,
            (
                PartialInjection(12, ((7, 8),)),
                PartialInjection(12, ((8, 9),)),
                PartialInjection(12, ((9, 10),)),
            ),
        )
        for cfg in (
            PipelineConfig(1, 10, 3, 1),
            PipelineConfig(2, 16, 3, 1),
            PipelineConfig(1, 20, 5, 1),
            PipelineConfig(2, 40, 3, 2),
            PipelineConfig(1, 12, 3, 1, graphing=user),
        ):
            report = run_pipeline(cfg, mode="both")
            assert certificates_ok(report.certificates), cfg
        assert built == []

    def test_determinism(self):
        cfg = PipelineConfig(2, 16, 3, 1)
        first = run_pipeline(cfg)
        second = run_pipeline(cfg)
        assert first == second
        assert first.to_json_dict() == second.to_json_dict()

    def test_report_serialization(self):
        report = run_pipeline(PipelineConfig(1, 10, 3, 1), mode="a")
        data = report.to_json_dict()
        assert set(data) == {"mode", "generators", "precycles", "cost_ledger"}
        assert data["cost_ledger"]["c"] == "3/10"
        assert data["cost_ledger"]["generator_distance_sum"] == "17/10"
        assert len(data["precycles"]) == 1

    def test_tampered_certificate_detected(self):
        report = run_pipeline(PipelineConfig(1, 10, 3, 1), mode="a")
        assert certificates_ok(report.certificates)
        report.certificates["isopgen"][0]["generates"] = False
        assert not certificates_ok(report.certificates)


@pytest.mark.parametrize(
    "certificates, ok",
    [
        ({}, True),
        ([], True),
        ((), True),
        ({"a": {}, "b": [], "c": [{}]}, True),
        ({"order": "120", "names": ["x", "y"], "n": 0}, True),
        ({"a": True, "b": [True, {"c": True}]}, True),
        ({"a": [{"b": [{"c": [{"d": [False]}]}]}], "e": True}, False),
        ([[[[[[[[[[False]]]]]]]]], True], False),
        (False, False),
        (True, True),
    ],
)
def test_certificates_ok_reads_every_boolean_leaf(certificates, ok):
    assert certificates_ok(certificates) is ok


def test_certificates_ok_past_the_recursion_limit():
    deep: list = [False]
    for _ in range(3 * sys.getrecursionlimit()):
        deep = [deep]
    assert certificates_ok(deep) is False
