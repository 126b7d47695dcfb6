"""Command line interface: report schema, exit codes, determinism, errors."""

import argparse
import gc
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitlab.cli import _build_parser, _parse_args, _report_text, dispatch, main
from orbitlab.core import MAX_POINTS
from orbitlab.pipeline import MAX_CHAINS

REPO_ROOT = Path(__file__).resolve().parents[1]
TOP_KEYS = {"schema_version", "command", "inputs", "results", "certificates", "timing_ms"}
CERT_KEYS = {"in_full_group", "generated_order", "full_group_order", "generates"}


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def source_env(**extra):
    """The environment with the checkout's ``src/`` first on PYTHONPATH."""
    pythonpath = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath)), **extra}


def run_cli(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    return code, report, captured.err


@pytest.fixture
def chain_file(tmp_path):
    return write_json(
        tmp_path,
        "chain.json",
        {
            "n": 6,
            "maps": [
                {"n": 6, "pairs": [[0, 2]]},
                {"n": 6, "pairs": [[2, 4]]},
            ],
        },
    )


@pytest.fixture
def broken_chain_file(tmp_path):
    return write_json(
        tmp_path,
        "broken.json",
        {
            "n": 6,
            "maps": [
                {"n": 6, "pairs": [[0, 1]]},
                {"n": 6, "pairs": [[3, 4]]},
            ],
        },
    )


@pytest.fixture
def sym4_file(tmp_path):
    return write_json(tmp_path, "sym4.json", {"n": 4, "classes": [[0, 1, 2, 3]]})


class TestValidatePrecycle:
    def test_valid_chain(self, capsys, chain_file):
        code, report, err = run_cli(capsys, ["validate-precycle", "--in", chain_file])
        assert code == 0
        assert set(report) == TOP_KEYS
        assert report["schema_version"] == "2"
        assert report["command"] == "validate-precycle"
        assert report["certificates"] == [
            {
                "name": "precycle_valid",
                "certificate": {"valid": True, "p": 3, "error": None},
            }
        ]
        assert report["results"] == {"n": 6, "p": 3}
        assert "all certificates true" in err

    def test_broken_chain_is_a_false_certificate(self, capsys, broken_chain_file):
        code, report, err = run_cli(
            capsys, ["validate-precycle", "--in", broken_chain_file]
        )
        assert code == 1
        cert = report["certificates"][0]["certificate"]
        assert cert["valid"] is False and cert["p"] is None
        assert cert["error"] == "cycles: range of map 0 differs from domain of map 1"
        assert "FALSE certificate" in err

    def test_malformed_json_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, report, err = run_cli(capsys, ["validate-precycle", "--in", str(path)])
        assert code == 2
        assert "error" in report and "not valid JSON" in report["error"]

    def test_error_report_is_schema_2(self, capsys, tmp_path):
        code, report, _ = run_cli(
            capsys, ["validate-precycle", "--in", str(tmp_path / "nope.json")]
        )
        assert code == 2
        assert report == {
            "schema_version": "2",
            "command": "validate-precycle",
            "error": report["error"],
        }

    def test_missing_file_is_a_usage_error(self, capsys, tmp_path):
        code, report, _ = run_cli(
            capsys, ["validate-precycle", "--in", str(tmp_path / "nope.json")]
        )
        assert code == 2
        assert "cannot read" in report["error"]


class TestMakeCycle:
    def test_closes_the_chain(self, capsys, chain_file):
        code, report, err = run_cli(capsys, ["make-cycle", "--in", chain_file])
        assert code == 0
        assert report["results"]["cycle"] == {"n": 6, "images": [2, 1, 4, 3, 0, 5]}
        assert report["results"]["orbit_sizes"] == [1, 1, 1, 3]
        assert report["results"]["p"] == 3
        assert report["certificates"] == []
        assert "no certificates" in err

    def test_invalid_chain_is_a_usage_error(self, capsys, broken_chain_file):
        code, report, _ = run_cli(capsys, ["make-cycle", "--in", broken_chain_file])
        assert code == 2
        assert report["error"] == "cycles: range of map 0 differs from domain of map 1"


class TestRelation:
    def test_non_utf8_file_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b'{"n": 2, "classes": [[0, 1]], "name": "\xff"}')
        code, report, err = run_cli(capsys, ["relation", "cost", "--relation", str(path)])
        assert code == 2
        assert report["error"] == (
            f"cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 39: "
            "invalid start byte"
        )
        assert "Traceback" not in err

    def test_generate(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "g.json",
            {"n": 4, "maps": [{"n": 4, "pairs": [[0, 1], [1, 2]]}]},
        )
        code, report, _ = run_cli(capsys, ["relation", "generate", "--graphing", path])
        assert code == 0
        assert report["results"] == {
            "relation": {"n": 4, "classes": [[0, 1, 2], [3]]},
            "num_classes": 2,
            "is_ergodic": False,
            "cost_graphing": "1/2",
            "cost_relation": "1/2",
        }

    def test_cost_from_relation_file(self, capsys, tmp_path):
        path = write_json(tmp_path, "r.json", {"n": 4, "classes": [[0, 1], [2, 3]]})
        code, report, _ = run_cli(capsys, ["relation", "cost", "--relation", path])
        assert code == 0
        assert report["results"] == {"cost_relation": "1/2"}

    def test_cost_sources_are_mutually_exclusive(self, capsys, tmp_path):
        rel = write_json(tmp_path, "r.json", {"n": 2, "classes": [[0, 1]]})
        g = write_json(tmp_path, "g.json", {"n": 2, "maps": []})
        code = dispatch(
            ["relation", "cost", "--relation", rel, "--graphing", g]
        )
        capsys.readouterr()
        assert code == 2

    def test_join(self, capsys, tmp_path):
        r1 = write_json(tmp_path, "r1.json", {"n": 3, "classes": [[0, 1], [2]]})
        r2 = write_json(tmp_path, "r2.json", {"n": 3, "classes": [[0], [1, 2]]})
        code, report, _ = run_cli(
            capsys, ["relation", "join", "--relation", r1, "--relation", r2]
        )
        assert code == 0
        assert report["command"] == "relation join"
        assert report["results"]["relation"] == {"n": 3, "classes": [[0, 1, 2]]}
        assert report["results"]["cost_relation"] == "2/3"


class TestVerify:
    def test_membership_true(self, capsys, tmp_path, sym4_file):
        perm = write_json(tmp_path, "p.json", {"n": 4, "images": [1, 0, 2, 3]})
        code, report, _ = run_cli(
            capsys, ["verify", "membership", "--perm", perm, "--relation", sym4_file]
        )
        assert code == 0
        assert report["certificates"] == [
            {"name": "membership", "certificate": {"in_full_group": True}}
        ]

    def test_membership_false(self, capsys, tmp_path):
        rel = write_json(tmp_path, "r.json", {"n": 4, "classes": [[0, 1], [2, 3]]})
        perm = write_json(tmp_path, "p.json", {"n": 4, "images": [0, 2, 1, 3]})
        code, report, _ = run_cli(
            capsys, ["verify", "membership", "--perm", perm, "--relation", rel]
        )
        assert code == 1

    def test_generation_with_strong_generators(self, capsys, tmp_path):
        rel = write_json(tmp_path, "r.json", {"n": 3, "classes": [[0, 1, 2]]})
        gens = write_json(
            tmp_path,
            "gens.json",
            {
                "n": 3,
                "perms": [
                    {"n": 3, "images": [1, 2, 0]},
                    {"n": 3, "images": [1, 0, 2]},
                ],
            },
        )
        code, report, _ = run_cli(
            capsys, ["verify", "generation", "--gens", gens, "--relation", rel]
        )
        assert code == 0
        cert = report["certificates"][0]["certificate"]
        assert set(cert) == CERT_KEYS
        assert cert == {
            "in_full_group": True,
            "generated_order": "6",
            "full_group_order": "6",
            "generates": True,
        }

    def test_generation_with_weak_generators(self, capsys, tmp_path):
        rel = write_json(tmp_path, "r.json", {"n": 3, "classes": [[0, 1, 2]]})
        gens = write_json(
            tmp_path,
            "gens.json",
            {"n": 3, "perms": [{"n": 3, "images": [1, 2, 0]}]},
        )
        code, report, _ = run_cli(
            capsys, ["verify", "generation", "--gens", gens, "--relation", rel]
        )
        assert code == 1
        assert report["certificates"][0]["certificate"]["generated_order"] == "3"

    def test_generator_space_mismatch_is_a_usage_error(self, capsys, tmp_path):
        rel = write_json(tmp_path, "r.json", {"n": 3, "classes": [[0, 1, 2]]})
        gens = write_json(
            tmp_path,
            "gens.json",
            {"n": 3, "perms": [{"n": 4, "images": [1, 0, 2, 3]}]},
        )
        code, report, _ = run_cli(
            capsys, ["verify", "generation", "--gens", gens, "--relation", rel]
        )
        assert code == 2
        assert "not a valid generator list" in report["error"]

    def test_join_generation(self, capsys, tmp_path):
        r1 = write_json(tmp_path, "r1.json", {"n": 3, "classes": [[0, 1], [2]]})
        r2 = write_json(tmp_path, "r2.json", {"n": 3, "classes": [[0], [1, 2]]})
        code, report, _ = run_cli(
            capsys,
            ["verify", "join-generation", "--relation", r1, "--relation", r2],
        )
        assert code == 0
        cert = report["certificates"][0]["certificate"]
        assert cert["generated_order"] == cert["full_group_order"] == "6"


class TestPipeline:
    ARGS = ["pipeline", "--n", "1", "--N", "12", "--p", "3", "--m", "1"]

    def test_full_run_certificate_names(self, capsys):
        code, report, err = run_cli(capsys, self.ARGS)
        assert code == 0
        names = [c["name"] for c in report["certificates"]]
        assert names == [
            "power_identities",
            "full_set",
            "reduced_set",
            "isopgen_cycle_1",
            "mode_b",
        ]
        for entry in report["certificates"][1:]:
            assert set(entry["certificate"]) == CERT_KEYS
        assert set(report["results"]) == {"mode", "generators", "precycles", "cost_ledger"}
        assert report["results"]["cost_ledger"]["c"] == "1/4"
        assert "5 certificate(s)" in err

    def test_mode_a_only(self, capsys):
        code, report, _ = run_cli(capsys, self.ARGS + ["--mode", "a"])
        assert code == 0
        names = [c["name"] for c in report["certificates"]]
        assert "mode_b" not in names and "full_set" in names

    def test_mode_b_only(self, capsys):
        code, report, _ = run_cli(capsys, self.ARGS + ["--mode", "b"])
        assert code == 0
        names = [c["name"] for c in report["certificates"]]
        assert names == ["power_identities", "mode_b"]
        assert report["certificates"][1]["certificate"]["generated_order"] == "120"

    def test_bad_config_is_a_usage_error(self, capsys):
        code, report, _ = run_cli(
            capsys, ["pipeline", "--n", "1", "--N", "10", "--p", "4", "--m", "1"]
        )
        assert code == 2
        assert report["error"].startswith("pipeline: p must be odd")

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, self.ARGS + ["--out", str(out)])
        assert code == 0
        # re-run to recapture stdout alongside the written file
        code = dispatch(self.ARGS + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert out.read_text(encoding="utf-8") == captured.out
        on_disk = json.loads(out.read_text(encoding="utf-8"))
        printed = json.loads(captured.out)
        on_disk.pop("timing_ms")
        printed.pop("timing_ms")
        assert on_disk == printed

    def test_user_graphing_input(self, capsys, tmp_path):
        g = write_json(
            tmp_path,
            "user.json",
            {
                "n": 12,
                "maps": [
                    {"n": 12, "pairs": [[7, 8]]},
                    {"n": 12, "pairs": [[8, 9]]},
                    {"n": 12, "pairs": [[9, 10]]},
                ],
            },
        )
        code, report, _ = run_cli(capsys, self.ARGS + ["--graphing", g])
        assert code == 0
        assert report["inputs"]["graphing"]["n"] == 12

    def test_inputs_echo_the_arguments(self, capsys):
        code, report, _ = run_cli(capsys, self.ARGS + ["--mode", "b"])
        assert code == 0
        assert report["inputs"] == {
            "n": 1, "N": 12, "p": 3, "m": 1, "mode": "b", "graphing": None,
        }

    def test_seed_is_a_usage_error(self, capsys, sym4_file):
        for argv in (
            self.ARGS,
            ["oracle", "min-cost", "--relation", sym4_file],
            ["relation", "cost", "--relation", sym4_file],
        ):
            assert dispatch(argv + ["--seed", "1"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "unrecognized arguments: --seed 1" in captured.err


class TestOracle:
    def test_min_cost(self, capsys, sym4_file):
        code, report, _ = run_cli(
            capsys, ["oracle", "min-cost", "--relation", sym4_file]
        )
        assert code == 0
        assert report["results"]["optimum"] == "3/4"
        assert report["results"]["exhaustive"] is True
        assert report["results"]["search_space_size"] == 64

    def test_min_gens(self, capsys, sym4_file):
        code, report, _ = run_cli(
            capsys, ["oracle", "min-gens", "--relation", sym4_file]
        )
        assert code == 0
        assert report["results"]["optimum"] == 2
        assert [p["images"] for p in report["results"]["witness"]] == [
            [0, 1, 3, 2],
            [1, 2, 0, 3],
        ]

    def test_min_support(self, capsys, sym4_file):
        code, report, _ = run_cli(
            capsys, ["oracle", "min-support", "--relation", sym4_file, "--t", "2"]
        )
        assert code == 0
        assert report["inputs"]["t"] == 2
        assert report["results"]["optimum"] == "5/4"
        assert report["results"]["comparison"] == {
            "relation_cost": "3/4",
            "gap": "1/2",
            "strictly_above_cost": True,
        }

    def test_min_support_infeasible_still_exits_zero(self, capsys, tmp_path):
        rel = write_json(tmp_path, "s3.json", {"n": 3, "classes": [[0, 1, 2]]})
        code, report, _ = run_cli(
            capsys, ["oracle", "min-support", "--relation", rel, "--t", "1"]
        )
        assert code == 0  # an infeasible search is a result, not a failure
        assert report["results"]["optimum"] is None

    def test_negative_t_is_a_usage_error(self, capsys, sym4_file):
        code, report, _ = run_cli(
            capsys, ["oracle", "min-support", "--relation", sym4_file, "--t", "-1"]
        )
        assert code == 2
        assert "between 0 and 2" in report["error"]

    def test_oversize_relation_is_refused(self, capsys, tmp_path):
        rel = write_json(
            tmp_path, "big.json", {"n": 9, "classes": [[i for i in range(9)]]}
        )
        code, report, _ = run_cli(capsys, ["oracle", "min-gens", "--relation", rel])
        assert code == 2
        assert report["error"].startswith("oracle:")

    def test_out_file(self, capsys, tmp_path, sym4_file):
        out = tmp_path / "res.json"
        code, report, _ = run_cli(
            capsys,
            ["oracle", "min-cost", "--relation", sym4_file, "--out", str(out)],
        )
        assert code == 0
        on_disk = json.loads(out.read_text(encoding="utf-8"))
        on_disk.pop("timing_ms")
        report.pop("timing_ms")
        assert on_disk == report


class TestOutFile:
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["oracle", "min-cost", "--relation", "{rel}"], id="oracle"),
            pytest.param(["pipeline", "--n", "1", "--N", "10", "--p", "3", "--m", "1"], id="pipeline"),
        ],
    )
    def test_write_failure_prints_one_report(self, capsys, tmp_path, sym4_file, argv):
        out = tmp_path / "missing" / "report.json"
        argv = [a.format(rel=sym4_file) for a in argv] + ["--out", str(out)]
        code, report, _ = run_cli(capsys, argv)  # stdout must parse as one document
        assert code == 2
        assert report["error"].startswith(f"cannot write {out}")
        assert "results" not in report
        assert not out.exists()


class TestBoundedInput:
    """Inputs too deep to parse or too large to index exit 2, before any work."""

    def test_deeply_nested_json_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        code, report, err = run_cli(capsys, ["relation", "cost", "--relation", str(path)])
        assert code == 2
        assert "nested too deeply" in report["error"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("n", [2**70, MAX_POINTS + 1], ids=["2^70", "cap+1"])
    @pytest.mark.parametrize(
        "argv, obj",
        [
            pytest.param(
                ["relation", "cost", "--relation"], {"classes": []}, id="relation-cost"
            ),
            pytest.param(
                ["relation", "generate", "--graphing"], {"maps": []}, id="relation-generate"
            ),
            pytest.param(
                ["verify", "generation", "--relation", "{sym4}", "--gens"],
                {"perms": []},
                id="verify-generation",
            ),
            pytest.param(
                ["verify", "membership", "--relation", "{sym4}", "--perm"],
                {"images": []},
                id="verify-membership",
            ),
            pytest.param(["pipeline", "--n", "1", "--p", "3", "--m", "1", "--N"], None, id="pipeline"),
        ],
    )
    def test_space_past_the_cap_is_refused(self, capsys, tmp_path, sym4_file, n, argv, obj):
        argv = [a.format(sym4=sym4_file) for a in argv]
        if obj is None:
            argv.append(str(n))
        else:
            argv.append(write_json(tmp_path, "big.json", {"n": n, **obj}))
        _build_parser()  # built once per process; not part of the refusal
        tracemalloc.start()
        try:
            code = dispatch(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 2
        assert str(MAX_POINTS) in report["error"]
        assert "Traceback" not in captured.err
        assert peak < 4 * MAX_POINTS  # less than one list slot per point

    @pytest.mark.parametrize("n", [2**70, MAX_CHAINS + 1], ids=["2^70", "cap+1"])
    def test_chain_count_past_the_cap_is_refused(self, capsys, n):
        code, report, err = run_cli(
            capsys, ["pipeline", "--n", str(n), "--N", "12", "--p", "3", "--m", "1"]
        )
        assert code == 2
        assert report["error"] == f"pipeline: n_cycles must be at most {MAX_CHAINS}, got {n}"
        assert "Traceback" not in err

    def test_map_past_the_cap_is_refused(self, capsys, tmp_path):
        path = write_json(tmp_path, "g.json", {"n": 3, "maps": [{"n": MAX_POINTS + 1, "pairs": []}]})
        code, report, _ = run_cli(capsys, ["relation", "generate", "--graphing", path])
        assert code == 2
        assert str(MAX_POINTS) in report["error"]


class TestSpaceSizeOnEveryWireType:
    """Every wire ``n`` is an integer from 1 to ``MAX_POINTS``, checked in one place."""

    @pytest.mark.parametrize(
        "n, text",
        [
            pytest.param(True, "{label} must be an integer, got True", id="true"),
            pytest.param(0, "{label} must be positive, got 0", id="0"),
            pytest.param(-1, "{label} must be positive, got -1", id="-1"),
            pytest.param(2.5, "{label} must be an integer, got 2.5", id="2.5"),
            pytest.param("3", "{label} must be an integer, got '3'", id="str"),
            pytest.param(
                MAX_POINTS + 1,
                f"space size {MAX_POINTS + 1} exceeds the cap of {MAX_POINTS} points",
                id="cap+1",
            ),
        ],
    )
    @pytest.mark.parametrize(
        "argv, what, label, wrap",
        [
            pytest.param(
                ["relation", "generate", "--graphing"],
                "graphing",
                "space size",
                lambda n: {"n": n, "maps": []},
                id="graphing",
            ),
            pytest.param(
                ["relation", "generate", "--graphing"],
                "graphing",
                "space size",
                lambda n: {"n": 3, "maps": [{"n": n, "pairs": []}]},
                id="graphing-map",
            ),
            pytest.param(
                ["relation", "cost", "--relation"],
                "partition",
                "space size",
                lambda n: {"n": n, "classes": []},
                id="partition",
            ),
            pytest.param(
                ["verify", "membership", "--relation", "{sym4}", "--perm"],
                "permutation",
                "permutation 'n'",
                lambda n: {"n": n, "images": []},
                id="permutation",
            ),
            pytest.param(
                ["verify", "generation", "--relation", "{sym4}", "--gens"],
                "generator list",
                "generator list 'n'",
                lambda n: {"n": n, "perms": []},
                id="generator-list",
            ),
        ],
    )
    def test_is_refused_with_one_report(
        self, capsys, tmp_path, sym4_file, argv, what, label, wrap, n, text
    ):
        path = write_json(tmp_path, "in.json", wrap(n))
        argv = [a.format(sym4=sym4_file) for a in argv] + [path]
        code, report, err = run_cli(capsys, argv)
        assert code == 2
        assert set(report) == {"schema_version", "command", "error"}
        assert report["error"] == f"{path} is not a valid {what}: " + text.format(label=label)
        assert "Traceback" not in err


class TestStrictIntegers:
    """Wire values must be JSON integers: nothing is truncated or coerced."""

    @pytest.mark.parametrize(
        "command, files",
        [
            pytest.param(
                ["relation", "generate", "--graphing"],
                [{"n": 3, "maps": [{"n": 3, "pairs": [[0.9, 2.5]]}]}],
                id="float-pairs",
            ),
            pytest.param(
                ["relation", "generate", "--graphing"],
                [{"n": 3, "maps": [{"n": 3, "pairs": [["0", "1"]]}]}],
                id="string-pairs",
            ),
            pytest.param(
                ["verify", "membership", "--relation"],
                [{"n": 2, "classes": [[0, 1]]}, {"n": 2, "images": [True, False]}],
                id="bool-images",
            ),
            pytest.param(
                ["relation", "cost", "--relation"],
                [{"n": True, "classes": [[0]]}],
                id="bool-n",
            ),
        ],
    )
    def test_non_integer_input_is_a_usage_error(self, capsys, tmp_path, command, files):
        argv = command + [write_json(tmp_path, "a.json", files[0])]
        if len(files) > 1:
            argv += ["--perm", write_json(tmp_path, "b.json", files[1])]
        code, report, _ = run_cli(capsys, argv)
        assert code == 2
        assert "integer" in report["error"]


class TestPositiveSpaceSize:
    """A space of 0 or fewer points is refused, never coerced to an empty one."""

    EMPTY = {"n": 0, "classes": []}

    @pytest.mark.parametrize(
        "argv, files",
        [
            pytest.param(
                ["relation", "cost", "--relation", "{0}"],
                [{"n": -3, "classes": []}],
                id="relation-cost",
            ),
            pytest.param(
                ["relation", "join", "--relation", "{0}"],
                [EMPTY],
                id="relation-join",
            ),
            pytest.param(
                ["oracle", "min-support", "--t", "1", "--relation", "{0}"],
                [EMPTY],
                id="oracle-min-support",
            ),
            pytest.param(
                ["verify", "generation", "--gens", "{0}", "--relation", "{1}"],
                [{"n": 0, "perms": []}, EMPTY],
                id="verify-generation",
            ),
            pytest.param(
                ["verify", "membership", "--perm", "{0}", "--relation", "{1}"],
                [{"n": 0, "images": []}, EMPTY],
                id="verify-membership",
            ),
        ],
    )
    def test_empty_or_negative_space_is_a_usage_error(self, capsys, tmp_path, argv, files):
        paths = [write_json(tmp_path, f"in{i}.json", obj) for i, obj in enumerate(files)]
        code, report, err = run_cli(capsys, [a.format(*paths) for a in argv])
        assert code == 2
        assert "positive" in report["error"]
        assert "Traceback" not in err


class TestDispatchBasics:
    def test_unknown_command_exits_two(self, capsys):
        assert dispatch(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_subcommand_exits_two(self, capsys):
        assert dispatch(["relation"]) == 2
        capsys.readouterr()

    def test_reports_are_deterministic(self, capsys, chain_file):
        outs = []
        for _ in range(2):
            code = dispatch(["make-cycle", "--in", chain_file])
            assert code == 0
            report = json.loads(capsys.readouterr().out)
            report["timing_ms"] = 0
            outs.append(json.dumps(report, sort_keys=True))
        assert outs[0] == outs[1]

    def test_main_defaults_to_sys_argv(self, capsys, monkeypatch, chain_file):
        monkeypatch.setattr(
            sys, "argv", ["orbitlab", "validate-precycle", "--in", chain_file]
        )
        assert main() == 0
        capsys.readouterr()


class TestReportWriter:
    """Reports are written as ``json.dumps(report, sort_keys=True, separators=(",", ":"))``."""

    @pytest.mark.parametrize("value", [{1, 2}, b"bytes", object(), {"a": [frozenset()]}])
    def test_values_a_report_never_holds_raise(self, value):
        with pytest.raises(TypeError):
            _report_text(value)

    def test_every_command_prints_json_dumps_bytes(self, capsys, tmp_path, chain_file, sym4_file):
        perm = write_json(tmp_path, "p.json", {"n": 4, "images": [1, 0, 2, 3]})
        gens = write_json(tmp_path, "gens.json", {"n": 4, "perms": [{"n": 4, "images": [1, 0, 2, 3]}]})
        pair = write_json(tmp_path, "pair.json", {"n": 4, "classes": [[0, 1], [2], [3]]})
        argvs = [
            (["validate-precycle", "--in", chain_file], 0),
            (["make-cycle", "--in", chain_file], 0),
            (["relation", "generate", "--graphing", chain_file], 0),
            (["relation", "cost", "--relation", sym4_file], 0),
            (["relation", "join", "--relation", sym4_file, "--relation", pair], 0),
            (["verify", "membership", "--perm", perm, "--relation", sym4_file], 0),
            (["verify", "generation", "--gens", gens, "--relation", sym4_file], 1),
            (["verify", "join-generation", "--relation", pair, "--relation", pair], 0),
            (["pipeline", "--n", "2", "--N", "20", "--p", "3", "--m", "1"], 0),
            (["oracle", "min-cost", "--relation", sym4_file], 0),
            (["oracle", "min-gens", "--relation", sym4_file], 0),
            (["oracle", "min-support", "--relation", sym4_file, "--t", "2"], 0),
            (["pipeline", "--n", "1", "--N", "10", "--p", "4", "--m", "1"], 2),
        ]
        for argv, want in argvs:
            assert dispatch(argv) == want, argv
            out = capsys.readouterr().out
            text = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"))
            assert out == text + "\n", argv

    def test_echoed_non_finite_floats_print_json_dumps_bytes(self, capsys, tmp_path):
        # json.load reads 1e999 as infinity and accepts NaN; unknown keys are echoed
        path = tmp_path / "rel.json"
        path.write_text('{"n": 2, "classes": [[0, 1]], "x": [1e999, -1e999, NaN, 0.5]}')
        assert dispatch(["relation", "cost", "--relation", str(path)]) == 0
        out = capsys.readouterr().out
        assert '"x":[Infinity,-Infinity,NaN,0.5]' in out
        assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["pipeline", "--n", "2", "--N", "20", "--p", "3", "--m", "1"], id="pipeline"),
            pytest.param(["oracle", "min-support", "--relation", "{rel}", "--t", "2"], id="oracle"),
        ],
    )
    def test_no_cyclic_garbage_per_request(self, capsys, sym4_file, argv):
        argv = [a.format(rel=sym4_file) for a in argv]
        assert dispatch(argv) == 0  # warm: the parser and any caches exist now
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()  # so no automatic collection frees a cycle first
        try:
            assert dispatch(argv) == 0
            unreachable = gc.collect()
        finally:
            if enabled:
                gc.enable()
        capsys.readouterr()
        assert unreachable == 0


ROOT_HELP = """\
usage: orbitlab [-h]
                {validate-precycle,make-cycle,relation,verify,pipeline,oracle}
                ...

Exact computations on finite uniform spaces: partial injections, generated
relations, full groups, chain cycles, certified generator pipelines, and
brute-force oracles.

positional arguments:
  {validate-precycle,make-cycle,relation,verify,pipeline,oracle}
    validate-precycle   check the chain conditions
    make-cycle          close a valid chain into its cycle
    relation            generated relations, costs, joins
    verify              full-group membership and generation
    pipeline            build and certify generator sets
    oracle              exhaustive searches at tiny sizes

options:
  -h, --help            show this help message and exit
"""

PIPELINE_USAGE = """\
usage: orbitlab pipeline [-h] --n N --N N_POINTS --p P --m M
                         [--graphing GRAPHING_JSON] [--mode {a,b,both}]
                         [--out REPORT_JSON]
"""

PIPELINE_HELP = PIPELINE_USAGE + """\

options:
  -h, --help            show this help message and exit
  --n N                 number of chains
  --N N_POINTS          space size
  --p P                 odd chain parameter
  --m M                 block size
  --graphing GRAPHING_JSON
  --mode {a,b,both}
  --out REPORT_JSON
"""

PIPELINE_MISSING = PIPELINE_USAGE + (
    "orbitlab pipeline: error: the following arguments are required: --N, --p, --m\n"
)


def _normalized(code, out, err):
    """Exit code, report without its timing, and stderr, for comparison."""
    report = json.loads(out) if out else None
    if report is not None:
        report.pop("timing_ms", None)
    return code, report, err


class TestSharedParser:
    """The parser is built once per process; no request may leak into the next."""

    @pytest.fixture
    def argvs(self, tmp_path):
        r1 = write_json(tmp_path, "r1.json", {"n": 4, "classes": [[0, 1], [2], [3]]})
        r2 = write_json(tmp_path, "r2.json", {"n": 4, "classes": [[0], [1, 2], [3]]})
        r3 = write_json(tmp_path, "r3.json", {"n": 4, "classes": [[0], [1], [2, 3]]})
        g = write_json(tmp_path, "g.json", {"n": 4, "maps": [{"n": 4, "pairs": [[0, 1]]}]})
        sym3 = write_json(tmp_path, "sym3.json", {"n": 3, "classes": [[0, 1, 2]]})
        return [
            ["relation", "join", "--relation", r1, "--relation", r2, "--relation", r3],
            ["frobnicate"],
            ["relation", "join", "--relation", r1],
            ["verify", "join-generation", "--relation", r1, "--relation", r2,
             "--relation", r3],
            ["relation"],
            ["verify", "join-generation", "--relation", r1],
            ["relation", "cost", "--graphing", g],
            ["relation", "cost", "--relation", r2],
            ["oracle", "min-support", "--relation", sym3, "--t", "2"],
            ["oracle", "min-support", "--relation", sym3],
            ["oracle", "min-cost", "--relation", sym3],
        ]

    def test_each_request_matches_a_fresh_process(self, capsys, monkeypatch, argvs):
        monkeypatch.setenv("COLUMNS", "80")
        env = source_env(COLUMNS="80")
        for argv in argvs:
            code = dispatch(argv)
            captured = capsys.readouterr()
            proc = subprocess.run(
                [sys.executable, "-m", "orbitlab.cli", *argv],
                capture_output=True,
                text=True,
                env=env,
            )
            assert _normalized(code, captured.out, captured.err) == _normalized(
                proc.returncode, proc.stdout, proc.stderr
            ), argv

    def test_later_requests_build_no_parser(self, capsys, monkeypatch, argvs):
        dispatch(argvs[0])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in argvs:
            dispatch(argv)
        capsys.readouterr()
        assert built == []

    @pytest.mark.parametrize(
        "argv, code, out, err",
        [
            (["--help"], 0, ROOT_HELP, ""),
            (["pipeline", "--help"], 0, PIPELINE_HELP, ""),
            (["pipeline", "--n", "1"], 2, "", PIPELINE_MISSING),
        ],
        ids=["root-help", "pipeline-help", "missing-arguments"],
    )
    def test_help_and_usage_text(self, capsys, monkeypatch, argvs, argv, code, out, err):
        """Text formatted at print time from the shared parser, at 80 columns."""
        monkeypatch.setenv("COLUMNS", "80")
        dispatch(argvs[0])
        capsys.readouterr()
        assert dispatch(argv) == code
        assert capsys.readouterr() == (out, err)


ROOT_USAGE = """\
usage: orbitlab [-h]
                {validate-precycle,make-cycle,relation,verify,pipeline,oracle}
                ...
"""

# Tokens a request may hold: command names, options, values, help flags,
# ``--``, ``--opt=value``, abbreviated options and junk.
ARGV_TOKENS = st.sampled_from(
    [
        "validate-precycle", "make-cycle", "relation", "verify", "pipeline", "oracle",
        "generate", "cost", "join", "membership", "generation", "join-generation",
        "min-cost", "min-gens", "min-support",
        "--in", "--graphing", "--relation", "--perm", "--gens", "--out", "--mode",
        "--n", "--N", "--p", "--m", "--t",
        "r.json", "3", "-1", "0x1", "a", "both", "c",
        "-h", "--help", "--", "-", "",
        "--relation=r.json", "--t=2", "--mode=b", "--help=x", "--n=", "-t2",
        "--rel", "--re", "--gra", "--o", "--he", "--mo", "--N_points",
        "frobnicate", "-x", "--foo", "-hx", "min", "oracle min-cost",
    ]
) | st.text(max_size=4)
ARGV_PREFIXES = st.sampled_from(
    [
        [], ["oracle"], ["oracle", "min-cost"], ["oracle", "min-support"],
        ["relation"], ["relation", "cost"], ["relation", "join"],
        ["verify", "generation"], ["verify", "join-generation"], ["pipeline"],
        ["make-cycle"],
    ]
)
ARGVS = st.builds(
    lambda head, tail: [*head, *tail], ARGV_PREFIXES, st.lists(ARGV_TOKENS, max_size=7)
)


def _parse_outcome(parse, argv):
    """The namespace or exit code of ``parse(argv)``, and what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestParsePath:
    """``_parse_args`` parses each request as the top parser's ``parse_args`` does."""

    @settings(deadline=None, max_examples=400)
    @given(ARGVS)
    @example(["oracle", "-h", "min-cost"])
    @example(["relation", "join", "--relation", "a", "--", "--relation", "b"])
    @example(["--", "oracle", "min-gens", "--relation", "r"])
    def test_matches_parse_args(self, argv):
        top = _build_parser()[0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("COLUMNS", "80")
            assert _parse_outcome(_parse_args, argv) == _parse_outcome(top.parse_args, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "min-cost", "--relation", "r", "--foo"],
            ["oracle", "--foo", "min-cost", "--relation", "r"],
        ],
        ids=["after-the-leaf", "between-the-levels"],
    )
    def test_unrecognized_arguments_print_the_top_usage(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        assert dispatch(argv) == 2
        assert capsys.readouterr() == (
            "",
            ROOT_USAGE + "orbitlab: error: unrecognized arguments: --foo\n",
        )


class TestSubprocessEntryPoints:
    def test_module_invocation(self, tmp_path):
        rel = write_json(tmp_path, "r.json", {"n": 4, "classes": [[0, 1], [2, 3]]})
        proc = subprocess.run(
            [sys.executable, "-m", "orbitlab.cli", "relation", "cost", "--relation", rel],
            capture_output=True,
            text=True,
            env=source_env(),
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["results"] == {"cost_relation": "1/2"}
        assert "no certificates" in proc.stderr

    @staticmethod
    def _validate_precycle(tmp_path, command, env=None):
        chain = write_json(
            tmp_path,
            "c.json",
            {"n": 4, "maps": [{"n": 4, "pairs": [[0, 1]]}]},
        )
        proc = subprocess.run(
            [*command, "validate-precycle", "--in", chain],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["certificates"][0]["certificate"]["p"] == 2

    def test_console_script(self, tmp_path):
        """The script declared in pyproject.toml, run from the checkout.

        Writes the wrapper a console-script installer generates for the
        ``[project.scripts]`` entry, so a wrong module or function name
        there fails this test without the package being installed.
        """
        tomllib = pytest.importorskip("tomllib")
        with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
            spec = tomllib.load(fh)["project"]["scripts"]["orbitlab"]
        entry = EntryPoint(name="orbitlab", value=spec, group="console_scripts")
        wrapper = tmp_path / "orbitlab"
        wrapper.write_text(
            "import sys\n"
            f"from {entry.module} import {entry.attr}\n"
            "if __name__ == '__main__':\n"
            f"    sys.exit({entry.attr}())\n",
            encoding="utf-8",
        )
        self._validate_precycle(tmp_path, [sys.executable, str(wrapper)], source_env())

    @pytest.mark.skipif(
        shutil.which("orbitlab") is None, reason="orbitlab console script not installed"
    )
    def test_installed_console_script(self, tmp_path):
        self._validate_precycle(tmp_path, [shutil.which("orbitlab")])
