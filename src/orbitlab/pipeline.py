"""End-to-end construction of small certified generating sets.

Given a space of N points, an odd chain length parameter p, a block size
m, and a count n, the pipeline lays out p+2 disjoint blocks of size m next
to the two-point support of a transposition, threads n chains through the
blocks, closes them into cycles, and certifies two generating sets for the
symmetric group on the space:

* the full set: the N-cycle T0, the transposition U0, and the n cycles;
* the reduced set: T0, the merged element U1 = U0 * C1, and cycles 2..n.

The merge trick: U0 and C1 have disjoint supports, U0 is an involution,
and every nontrivial orbit of C1 has odd size p+2, so U1^(p+2) = U0 and
U1^(p+3) = C1 exactly; nothing is lost by replacing the pair with the
product.  Mode B drops T0 and certifies the cycles against the proper
full group of the relation they generate, so the certificates also cover
the case where the target group is smaller than the whole symmetric group.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    MAX_POINTS,
    PartialInjection,
    Permutation,
    check_same_space,
    frac_str,
    support_measure,
    uniform_distance,
)
from .cycles import PrePCycle, make_cycle, orbit_sizes
from .group_engine import generates_full_group
from .relations import Graphing, Partition, generate_relation, join

MODES = ("a", "b", "both")

# The most chains a run may thread.  Time and report size grow linearly in
# the chain count: at the cap, ``--N 20000 --p 3 --m 1 --mode both`` takes
# 1.1-1.6 s and prints a 5.0 MB report, as long as a one-chain run at
# ``MAX_POINTS`` took while each certificate converted both orders.
MAX_CHAINS = 10


class ConfigError(ValueError):
    """A pipeline configuration violates one of its arithmetic constraints."""


@dataclass(frozen=True)
class PipelineConfig:
    """Validated parameters for one pipeline run.

    ``n_cycles`` is the number of chains, ``n_points`` the space size,
    ``p`` the odd chain parameter, ``m`` the block size.  The derived
    per-chain cost is c = p*m/N and must satisfy ((p+2)/p)*c < 1, the
    blocks must fit next to the two reserved support points, and the
    two-point support must stay below the slack 1 - (1 + p/2)*c.
    """

    n_cycles: int
    n_points: int
    p: int
    m: int
    graphing: Graphing | None = None

    def __post_init__(self) -> None:
        for name in ("n_cycles", "n_points", "p", "m"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.n_cycles > MAX_CHAINS:
            raise ConfigError(f"n_cycles must be at most {MAX_CHAINS}, got {self.n_cycles}")
        if self.n_points > MAX_POINTS:
            raise ConfigError(f"n_points must be at most {MAX_POINTS}, got {self.n_points}")
        if self.p < 3 or self.p % 2 == 0:
            raise ConfigError(f"p must be odd and at least 3, got {self.p}")
        c = self.cost_per_cycle
        if Fraction(self.p + 2, self.p) * c >= 1:
            raise ConfigError(
                f"budget violated: ((p+2)/p)*c = {Fraction(self.p + 2, self.p) * c} >= 1"
            )
        if 2 + (self.p + 2) * self.m > self.n_points:
            raise ConfigError(
                f"layout needs 2 + (p+2)*m = {2 + (self.p + 2) * self.m} points, "
                f"space has {self.n_points}"
            )
        eps = 1 - (1 + Fraction(self.p, 2)) * c
        if Fraction(2, self.n_points) >= eps:
            raise ConfigError(
                f"support bound violated: 2/N = {Fraction(2, self.n_points)} "
                f">= 1 - (1 + p/2)*c = {eps}"
            )
        if self.graphing is not None:
            if self.graphing.n != self.n_points:
                raise ConfigError(
                    f"graphing lives on {self.graphing.n} points, space has {self.n_points}"
                )
            total_pairs = sum(len(phi.pairs) for phi in self.graphing.maps)
            needed = self.n_cycles * self.p * self.m
            if total_pairs != needed:
                raise ConfigError(
                    f"graphing carries {total_pairs} pairs, the layout needs "
                    f"exactly n*p*m = {needed}"
                )

    @property
    def cost_per_cycle(self) -> Fraction:
        return Fraction(self.p * self.m, self.n_points)

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The p+2 disjoint blocks, laid out from point 2 upward."""
        return tuple(
            tuple(range(2 + j * self.m, 2 + (j + 1) * self.m))
            for j in range(self.p + 2)
        )


@dataclass(frozen=True)
class GeneratorSet:
    """The labeled output generators of a run, with the blocks and psi used."""

    t0: Permutation
    u0: Permutation
    u1: Permutation
    cycles: tuple[Permutation, ...]
    blocks: tuple[tuple[int, ...], ...]
    psi: PartialInjection

    def __post_init__(self) -> None:
        u0_supp = self.u0.support()
        for i, c in enumerate(self.cycles, start=1):
            if u0_supp & c.support():
                raise ValueError(f"u0 and cycle {i} have overlapping supports")
        if self.psi.dom != frozenset(self.blocks[-2]):
            raise ValueError("psi domain is not the next-to-last block")
        if self.psi.rng != frozenset(self.blocks[-1]):
            raise ValueError("psi range is not the last block")

    def full_set(self) -> tuple[Permutation, ...]:
        return (self.t0, self.u0) + self.cycles

    def reduced_set(self) -> tuple[Permutation, ...]:
        return (self.t0, self.u1) + self.cycles[1:]

    def to_json_dict(self) -> dict:
        return {
            "t0": self.t0.to_json_dict(),
            "u0": self.u0.to_json_dict(),
            "u1": self.u1.to_json_dict(),
            "cycles": [c.to_json_dict() for c in self.cycles],
            "blocks": [list(b) for b in self.blocks],
            "psi": self.psi.to_json_dict(),
        }


@dataclass(frozen=True)
class PipelineReport:
    """Everything a run produced: generators, chains, certificates, costs."""

    mode: str
    generators: GeneratorSet
    precycles: tuple[PrePCycle, ...]
    certificates: dict
    cost_ledger: dict

    def to_json_dict(self) -> dict:
        # No certificates: a report lists them once, at its top level.
        return {
            "mode": self.mode,
            "generators": self.generators.to_json_dict(),
            "precycles": [pre.to_json_dict() for pre in self.precycles],
            "cost_ledger": {k: frac_str(v) for k, v in self.cost_ledger.items()},
        }


def certificates_ok(certificates) -> bool:
    """True when every boolean leaf of nested certificate mappings and lists is true."""
    stack = [certificates]
    while stack:
        obj = stack.pop()
        if isinstance(obj, bool):
            if not obj:
                return False
        elif isinstance(obj, Mapping):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
    return True


def build_matui_pair(n_points: int) -> tuple[Permutation, Permutation]:
    """The canonical transitive-plus-small-support pair on N points.

    Returns the N-cycle (0 1 ... N-1) and the transposition (0 1), which
    generate the whole symmetric group; every ``full_set`` certificate
    proves it again for a set containing both.  The transposition's
    support has measure 2/N.
    """
    if n_points < 3:
        raise ValueError(f"need at least 3 points, got {n_points}")
    return (
        Permutation.from_cycles(n_points, [range(n_points)]),
        Permutation.from_cycles(n_points, [(0, 1)]),
    )


def split_graphing(phi: Graphing, n: int) -> list[Graphing]:
    """Split a graphing into n graphings of equal cost.

    The source/target pairs, taken per map in sorted source order, are
    dealt into n consecutive chunks; map boundaries are preserved inside
    each chunk.  The union of the outputs is exactly the input pair set.
    """
    if n < 1:
        raise ValueError(f"cannot split into {n} parts")
    triples = [
        (idx, s, t) for idx, m in enumerate(phi.maps) for s, t in m.pairs
    ]
    if len(triples) % n != 0:
        raise ValueError(
            f"cannot split {len(triples)} pairs evenly into {n} parts; "
            f"pad the graphing with {n - len(triples) % n} more pairs"
        )
    k = len(triples) // n
    out = []
    for i in range(n):
        chunk = triples[i * k : (i + 1) * k]
        maps = []
        run: list[tuple[int, int]] = []
        run_idx: int | None = None
        for idx, s, t in chunk:
            if idx != run_idx and run:
                maps.append(PartialInjection(phi.n, tuple(run)))
                run = []
            run_idx = idx
            run.append((s, t))
        if run:
            maps.append(PartialInjection(phi.n, tuple(run)))
        out.append(Graphing(phi.n, tuple(maps)))
    return out


def regroup_graphing(phi: Graphing, k: int, m: int) -> Graphing:
    """Rearrange a graphing's pairs into exactly k maps of m pairs each.

    Pairs are placed first-fit in map order then source order; a pair goes
    into the first unfilled map in which its source and target are still
    unused.  Raises when the pairs cannot be arranged this way (first-fit
    is not a complete matching search; heavily tangled inputs may be
    rejected even when some arrangement exists).
    """
    pairs = [(s, t) for mp in phi.maps for s, t in mp.pairs]
    if len(pairs) != k * m:
        raise ValueError(f"need exactly k*m = {k * m} pairs, got {len(pairs)}")
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for s, t in pairs:
        for bucket in buckets:
            if len(bucket) < m and all(s != bs and t != bt for bs, bt in bucket):
                bucket.append((s, t))
                break
        else:
            raise ValueError(
                f"first-fit cannot place pair ({s}, {t}) into {k} maps of size {m}"
            )
    return Graphing(phi.n, tuple(PartialInjection(phi.n, tuple(b)) for b in buckets))


def merge_generators(u0: Permutation, c1: Permutation, p: int) -> Permutation:
    """Merge an involution with a disjoint cycle permutation into one element.

    Requires odd p, u0 squared trivial, disjoint supports, and every
    nontrivial orbit of c1 of size exactly p+2.  The product u1 = u0 * c1
    then satisfies u1^(p+2) = u0 and u1^(p+3) = c1, which is verified
    exactly before returning.
    """
    if p < 1 or p % 2 == 0:
        raise ValueError(f"p must be odd, got {p}")
    check_same_space(u0, c1)
    identity = Permutation.identity(u0.n)
    if u0 * u0 != identity:
        raise ValueError("the first factor must square to the identity")
    overlap = u0.support() & c1.support()
    if overlap:
        raise ValueError(f"supports overlap at {sorted(overlap)}")
    bad = set(orbit_sizes(c1)) - {1, p + 2}
    if bad:
        raise ValueError(
            f"the second factor must have orbits of size 1 or {p + 2}, found {sorted(bad)}"
        )
    u1 = u0 * c1
    power = u1 ** (p + 2)
    if power != u0 or power * u1 != c1:  # pragma: no cover
        raise RuntimeError("power identities failed on disjoint factors")
    return u1


def _chains(config: PipelineConfig, blocks, psi: PartialInjection) -> list[PrePCycle]:
    # Each chain is p slot maps plus psi: slot map j sends the r-th point of
    # block j to the point of rank slots[r] in block j+1.  Synthetic chain i + 1
    # takes slot (r + i) mod m in every block, so distinct chains trace
    # distinct pairings; a graphing's map gives, pair by pair in source
    # order, the rank of the pair's target in the map's range.
    N, p, m = config.n_points, config.p, config.m
    if config.graphing is None:
        slot_maps = [[[(r + i) % m for r in range(m)]] * p for i in range(config.n_cycles)]
    else:
        slot_maps = []
        for chunk in split_graphing(config.graphing, config.n_cycles):
            chain = []
            for old in regroup_graphing(chunk, p, m).maps:
                rank = {t: r for r, t in enumerate(sorted(old.rng))}
                chain.append([rank[t] for _, t in old.pairs])
            slot_maps.append(chain)
    return [
        PrePCycle(N, tuple(
            PartialInjection(N, tuple((s, blocks[j + 1][r]) for s, r in zip(blocks[j], slots)))
            for j, slots in enumerate(chain)
        ) + (psi,))
        for chain in slot_maps
    ]


def run_pipeline(config: PipelineConfig, mode: str = "both") -> PipelineReport:
    """Run the full construction and certify the generating sets.

    Mode "a" certifies the full (n+2)-element and reduced (n+1)-element
    sets against the symmetric group, plus one certificate per cycle that
    the shared-map full group together with that cycle generates the full
    group of the cycle's relation.  Mode "b" replaces the merged element
    by the bare first cycle and certifies against the full group of the
    join of the cycle relations, a proper subgroup.  False certificates
    are reported, never raised.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    N = config.n_points
    blocks = config.blocks()
    t0, u0 = build_matui_pair(N)
    # T0 is an N-cycle, so the relation it generates is the single class.
    single = Partition.single_class(N)
    # psi keeps each slot: it matches the last two blocks in point order.
    psi = PartialInjection(N, tuple(zip(blocks[-2], blocks[-1])))
    tilde = _chains(config, blocks, psi)
    cycles = [make_cycle(pre) for pre in tilde]
    u1 = merge_generators(u0, cycles[0], config.p)
    gen_set = GeneratorSet(
        t0=t0,
        u0=u0,
        u1=u1,
        cycles=tuple(cycles),
        blocks=blocks,
        psi=psi,
    )

    # The relation of psi has the classes {s, t}, one per pair.
    psi_gens = [Permutation.from_cycles(N, [pair]) for pair in psi.pairs]
    chain_rels = [generate_relation(pre.as_graphing()) for pre in tilde]
    # merge_generators returns only once both identities hold exactly.
    certificates: dict = {
        "power_identities": {
            "u1_pow_p_plus_2_equals_u0": True,
            "u1_pow_p_plus_3_equals_c1": True,
        },
    }

    if mode in ("a", "both"):
        _, cert_full = generates_full_group(list(gen_set.full_set()), single)
        _, cert_reduced = generates_full_group(list(gen_set.reduced_set()), single)
        certificates["full_set"] = cert_full
        certificates["reduced_set"] = cert_reduced
        certificates["isopgen"] = [
            generates_full_group(psi_gens + [cyc], rel)[1]
            for rel, cyc in zip(chain_rels, cycles)
        ]

    if mode in ("b", "both"):
        # Without the transposition the reachable group is the full group of
        # the join of the cycle relations; the merge degenerates to c1 alone,
        # so the cycles themselves are the generators.
        _, cert_b = generates_full_group(cycles + psi_gens, join(chain_rels))
        certificates["mode_b"] = cert_b

    c = config.cost_per_cycle
    reduced = gen_set.reduced_set()
    identity = Permutation.identity(N)
    cost_ledger = {
        "c": c,
        "budget_ratio": Fraction(config.p + 2, config.p) * c,
        "epsilon": 1 - (1 + Fraction(config.p, 2)) * c,
        "u0_support_measure": support_measure(u0),
        "generator_distance_sum": sum(
            (uniform_distance(g, identity) for g in reduced), start=Fraction(0)
        ),
    }
    return PipelineReport(
        mode=mode,
        generators=gen_set,
        precycles=tuple(tilde),
        certificates=certificates,
        cost_ledger=cost_ledger,
    )
