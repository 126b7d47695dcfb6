"""Exact finite laboratory for orbit equivalence.

Partial injections and graphings on N-point uniform spaces, the relations
they generate, costs, full groups and their certified generation, chains
closing into cycles, an end-to-end small-generator pipeline, and
brute-force oracles — all in exact rational arithmetic.
"""

from .core import (
    PartialInjection,
    Permutation,
    SpaceMismatchError,
    compose,
    support_measure,
    uniform_distance,
)
from .cycles import (
    ChainingError,
    DisjointnessError,
    PrePCycle,
    conjugate_partial,
    isopgen_generators,
    make_cycle,
    orbit_sizes,
    validate_precycle,
)
from .group_engine import check_join_generation, generates_full_group
from .oracle import (
    SearchResult,
    SearchSpaceTooLargeError,
    brute_min_generating_support,
    brute_min_generators,
    brute_min_graphing_cost,
    naive_closure,
)
from .pipeline import (
    ConfigError,
    GeneratorSet,
    PipelineConfig,
    PipelineReport,
    build_matui_pair,
    merge_generators,
    regroup_graphing,
    run_pipeline,
    split_graphing,
)
from .relations import (
    Graphing,
    Partition,
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

__version__ = "0.1.0"

__all__ = [
    "PartialInjection",
    "Permutation",
    "SpaceMismatchError",
    "compose",
    "support_measure",
    "uniform_distance",
    "Partition",
    "Graphing",
    "generate_relation",
    "cost_graphing",
    "cost_relation",
    "spanning_graphing",
    "join",
    "is_ergodic",
    "isopar_witness",
    "in_full_group",
    "full_group_order",
    "full_group_generators",
    "PrePCycle",
    "ChainingError",
    "DisjointnessError",
    "validate_precycle",
    "make_cycle",
    "orbit_sizes",
    "conjugate_partial",
    "isopgen_generators",
    "generates_full_group",
    "check_join_generation",
    "PipelineConfig",
    "ConfigError",
    "GeneratorSet",
    "PipelineReport",
    "build_matui_pair",
    "split_graphing",
    "regroup_graphing",
    "merge_generators",
    "run_pipeline",
    "SearchResult",
    "SearchSpaceTooLargeError",
    "brute_min_graphing_cost",
    "brute_min_generators",
    "brute_min_generating_support",
    "naive_closure",
    "__version__",
]
