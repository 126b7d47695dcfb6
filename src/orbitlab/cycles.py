"""Chains of partial injections and the cycle permutations they induce.

A chain of ``p - 1`` partial injections in which the range of each map is
the domain of the next, and in which the ``p`` stations (the ``p - 1``
domains plus the final range) are pairwise disjoint, threads every starting
point through a path of length ``p``.  Closing each path back to its start
yields a permutation all of whose nontrivial orbits have size exactly
``p``.  Conjugation by that permutation shifts the chain by one step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import PartialInjection, Permutation, check_same_space, check_space
from .relations import Graphing, full_group_generators, generate_relation


class ChainingError(ValueError):
    """Range of one map fails to equal the domain of the next.

    ``index`` is the 0-based position of the earlier map.
    """

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class DisjointnessError(ValueError):
    """Two stations of the chain overlap.  ``point`` is a shared point."""

    def __init__(self, point: int, message: str):
        super().__init__(message)
        self.point = point


def _check_chain(pre: "PrePCycle") -> None:
    maps = pre.maps
    if not maps:
        raise ValueError("a chain needs at least one map")
    for i, phi in enumerate(maps):
        check_same_space(phi, pre)
        if not phi.pairs:
            raise ValueError(f"map {i} is empty")
    for i in range(len(maps) - 1):
        if maps[i].rng != maps[i + 1].dom:
            raise ChainingError(
                i,
                f"range of map {i} differs from domain of map {i + 1}",
            )
    # Stations: every domain, plus the final range.
    seen: dict[int, int] = {}
    stations = [phi.dom for phi in maps] + [maps[-1].rng]
    for k, station in enumerate(stations):
        for x in station:
            if x in seen:
                raise DisjointnessError(
                    x, f"stations {seen[x]} and {k} share point {x}"
                )
            seen[x] = k


@dataclass(frozen=True)
class PrePCycle:
    """A validated chain of ``p - 1`` partial injections.

    ``p`` is always inferred from the number of maps; it is never supplied.
    Map order is significant.
    """

    n: int
    maps: tuple[PartialInjection, ...]

    def __post_init__(self) -> None:
        maps = tuple(self.maps)
        object.__setattr__(self, "maps", maps)
        check_space(self.n)
        _check_chain(self)

    @property
    def p(self) -> int:
        return len(self.maps) + 1

    def as_graphing(self) -> Graphing:
        return Graphing(self.n, self.maps)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "maps": [phi.to_json_dict() for phi in self.maps]}


def validate_precycle(graphing: Graphing) -> PrePCycle:
    """Check the chain conditions and return the validated chain.

    Raises :class:`ChainingError` when consecutive maps fail to line up,
    :class:`DisjointnessError` when two stations overlap, and plain
    :class:`ValueError` for empty input.
    """
    return PrePCycle(graphing.n, graphing.maps)


def make_cycle(pre: PrePCycle) -> Permutation:
    """The permutation advancing every chain one step and closing it.

    On the domain of map ``j`` it acts as map ``j``; on the final range it
    returns each point to the start of its chain; elsewhere it is the
    identity.  Every nontrivial orbit has size exactly ``p``.
    """
    images = list(range(pre.n))
    for phi in pre.maps:
        for s, t in phi.pairs:
            images[s] = t
    # Close each chain: walk forward from the start to the final station.
    for start in sorted(pre.maps[0].dom):
        x = start
        for phi in pre.maps:
            x = phi.apply(x)
        images[x] = start
    return Permutation(tuple(images))


def orbit_sizes(perm: Permutation) -> tuple[int, ...]:
    """Sizes of all orbits, fixed points included, in increasing order."""
    sizes = [len(c) for c in perm.cycles()]
    sizes.extend([1] * (perm.n - sum(sizes)))
    return tuple(sorted(sizes))


def conjugate_partial(c: Permutation, phi: PartialInjection) -> PartialInjection:
    """The partial injection ``c . phi . c^{-1}``, with domain ``c(dom phi)``."""
    check_same_space(c, phi)
    return PartialInjection(phi.n, tuple((c(s), c(t)) for s, t in phi.pairs))


def isopgen_generators(pre: PrePCycle, i: int = 1) -> tuple[Permutation, ...]:
    """Generators witnessing that one chain map plus the cycle suffice.

    Returns the standard generators of the full group of the relation of
    map ``i`` (1-based), followed by the cycle of the chain.  Together
    they generate the full group of the relation of the whole chain.
    """
    if not 1 <= i <= len(pre.maps):
        raise ValueError(f"map index must be in 1..{len(pre.maps)}, got {i}")
    single = Graphing(pre.n, (pre.maps[i - 1],))
    gens = full_group_generators(generate_relation(single))
    return gens + (make_cycle(pre),)
