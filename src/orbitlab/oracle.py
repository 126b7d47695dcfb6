"""Brute-force ground truth at tiny sizes.

Everything here certifies optima by enumeration.  "Generates" is decided
by naive breadth-first closure, never by the stabilizer-chain engine, so
the two routes can be checked against each other.  Hard size caps refuse
rather than approximate: a result marked exhaustive is a true optimum.

Each search is serial and keeps the first witness at the optimum in
lexicographic order over image arrays, so equal inputs give identical
results.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import (
    PartialInjection,
    Permutation,
    SpaceMismatchError,
    check_same_space,
    check_space,
    frac_str,
)
from .relations import Graphing, Partition, cost_relation

MAX_COST_POINTS = 6
MAX_GROUP_POINTS = 5
MAX_SUPPORT_TUPLE = 2
_CLOSURE_CAP = 100_000
_BYTES = bytes(range(256))


class SearchSpaceTooLargeError(ValueError):
    """The requested exhaustive search exceeds the hard size caps."""


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one exhaustive search.

    ``optimum`` is None when no feasible configuration exists.  ``witness``
    is the first configuration attaining the optimum in enumeration order.
    ``search_space_size`` is the space the optimum is certified over: all
    edge subsets for ``min-cost`` and all |G|^t tuples for ``min-support``,
    while for ``min-gens`` it counts the candidates the scan examined.
    ``exhaustive`` is True only when the search certifies the optimum:
    every candidate that could have beaten it was ruled out.
    """

    optimum: Fraction | int | None
    witness: object
    search_space_size: int
    exhaustive: bool
    comparison: dict | None = None

    def to_json_dict(self) -> dict:
        if self.optimum is None:
            opt = None
        elif isinstance(self.optimum, Fraction):
            opt = frac_str(self.optimum)
        else:
            opt = self.optimum
        if self.witness is None:
            wit = None
        elif isinstance(self.witness, Graphing):
            wit = self.witness.to_json_dict()
        else:
            wit = [p.to_json_dict() for p in self.witness]
        return {
            "optimum": opt,
            "witness": wit,
            "search_space_size": self.search_space_size,
            "exhaustive": self.exhaustive,
            "comparison": self.comparison,
        }


@lru_cache(maxsize=None)
def _min_edge_table(n: int) -> dict[tuple[int, ...], tuple[int, tuple[tuple[int, int], ...]]]:
    """For every partition of n points: fewest edges whose components are
    exactly its classes, with the first such edge set in subset order.

    Built by one full scan of all 2^(n choose 2) edge subsets.
    """
    edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
    table: dict[tuple[int, ...], tuple[int, tuple[tuple[int, int], ...]]] = {}
    for mask in range(1 << len(edges)):
        chosen = [edges[i] for i in range(len(edges)) if mask >> i & 1]
        key = Partition.from_pairs(n, chosen).class_id
        count = len(chosen)
        best = table.get(key)
        if best is None or count < best[0]:
            table[key] = (count, tuple(chosen))
    return table


def brute_min_graphing_cost(relation: Partition) -> SearchResult:
    """Minimum cost over all single-edge-map graphings generating the relation.

    Fully enumerates every subset of the n(n-1)/2 possible edges, so the
    space size is 2^(n choose 2); refuses beyond n = 6.
    """
    n = relation.n
    if n > MAX_COST_POINTS:
        raise SearchSpaceTooLargeError(
            f"exhaustive edge-subset search is capped at {MAX_COST_POINTS} points, got {n}"
        )
    count, chosen = _min_edge_table(n)[relation.class_id]
    witness = Graphing(
        n, tuple(PartialInjection(n, (pair,)) for pair in chosen)
    )
    return SearchResult(
        optimum=Fraction(count, n),
        witness=witness,
        search_space_size=1 << (n * (n - 1) // 2),
        exhaustive=True,
    )


def _cycle_types(k: int, least: int = 1):
    """Every cycle type of Sym(k), as a non-decreasing tuple of lengths."""
    if k == 0:
        yield ()
    for part in range(least, k + 1):
        for rest in _cycle_types(k - part, part):
            yield (part,) + rest


def _group(relation: Partition) -> tuple[tuple[bytes, ...], tuple[int, ...], list[int]]:
    """The full group in one pass: each element's ``bytes.translate`` table
    (see ``_closure``), sorted, which is image-array order; each element's
    support size; and the position of the lex-least element of each
    conjugacy class, in increasing order.

    Each class of at least 2 points contributes its permutations as tables,
    multiplied into the product.  Conjugacy classes are the cycle types per
    class.  On a sorted class the lex-least permutation of a type fixes the
    least points, then runs cycles of increasing length over consecutive
    points: that choice puts the least possible image at each position in
    turn.  Classes occupy disjoint positions, so the lex-least element of a
    combination of types is the product of the per-class minima.
    """
    tables, support, minima = [_BYTES], [0], [_BYTES]
    for cls in relation.classes():
        if len(cls) == 1:
            continue
        table = bytearray(_BYTES)
        cls_tables, cls_support = [], []
        for perm in itertools.permutations(cls):
            for src, dst in zip(cls, perm):
                table[src] = dst
            cls_tables.append(bytes(table))
            cls_support.append(sum(map(operator.ne, cls, perm)))
        tables = [e.translate(t) for e in tables for t in cls_tables]
        support = [s + c for s in support for c in cls_support]
        cls_minima = []
        for lengths in _cycle_types(len(cls)):
            start = 0
            for length in lengths:
                for j in range(length):
                    table[cls[start + j]] = cls[start + (j + 1) % length]
                start += length
            cls_minima.append(bytes(table))
        minima = [e.translate(t) for e in minima for t in cls_minima]
    tables, support = zip(*sorted(zip(tables, support)))
    return tables, support, sorted(bisect.bisect_left(tables, m) for m in minima)


def brute_min_generators(relation: Partition) -> SearchResult:
    """Least t such that some t-tuple from the full group generates it.

    The first tuple element ranges over conjugacy representatives only:
    conjugating a generating tuple by a group element yields another one,
    so this loses no candidates for the decision at each t.  Remaining
    positions range over the whole group in lexicographic order.
    """
    n = relation.n
    if n > MAX_GROUP_POINTS:
        raise SearchSpaceTooLargeError(
            f"full-group enumeration is capped at {MAX_GROUP_POINTS} points, got {n}"
        )
    tables, _, reps = _group(relation)
    full_order = len(tables)
    examined = 1
    if full_order == 1:
        return SearchResult(
            optimum=0, witness=(), search_space_size=examined, exhaustive=True
        )
    # Ends by t = |G| + 1 at the latest, where a tuple lists every element.
    for t in itertools.count(1):
        for first in reps:
            for rest in itertools.product(range(full_order), repeat=t - 1):
                examined += 1
                tup = (first,) + rest
                if len(_closure([tables[i] for i in tup], n)) == full_order:
                    return SearchResult(
                        optimum=t,
                        witness=_witness(tables, tup, n),
                        search_space_size=examined,
                        exhaustive=True,
                    )


def brute_min_generating_support(relation: Partition, t: int) -> SearchResult:
    """Minimum support-measure sum over generating t-tuples from the full group.

    Simultaneous conjugation keeps each entry's support and whether the
    tuple generates, so the first entry ranges over conjugacy
    representatives only.  These candidates are closed, by naive closure,
    in a stable sort by support total: the first that generates gives the
    optimum, and every smaller total was closed before it.  It is also the
    witness a full lexicographic scan of all |G|^t tuples keeps, the first
    generating tuple at the optimum, because that tuple starts with the
    lex-least element of its conjugacy class (conjugating it to start
    there would give an earlier one).  The comparison block reports the
    relation's cost, the gap, and whether the optimum sits strictly above
    it; an infeasible search (no generating t-tuple) yields optimum None.
    """
    n = relation.n
    if n > MAX_GROUP_POINTS:
        raise SearchSpaceTooLargeError(
            f"full-group enumeration is capped at {MAX_GROUP_POINTS} points, got {n}"
        )
    if t < 0 or t > MAX_SUPPORT_TUPLE:
        raise SearchSpaceTooLargeError(
            f"tuple length must be between 0 and {MAX_SUPPORT_TUPLE}, got {t}"
        )
    tables, support, reps = _group(relation)
    full_order = len(tables)
    pools = [reps] + [range(full_order)] * (t - 1) if t else []
    candidates = sorted(
        itertools.product(*pools), key=lambda tup: sum(map(support.__getitem__, tup))
    )
    found = next((tup for tup in candidates
                  if len(_closure([tables[i] for i in tup], n)) == full_order), None)
    witness = None if found is None else _witness(tables, found, n)
    optimum = None if found is None else Fraction(sum(map(support.__getitem__, found)), n)
    rel_cost = cost_relation(relation)
    comparison = {
        "relation_cost": frac_str(rel_cost),
        "gap": None if optimum is None else frac_str(optimum - rel_cost),
        "strictly_above_cost": None if optimum is None else optimum > rel_cost,
    }
    return SearchResult(
        optimum=optimum,
        witness=witness,
        search_space_size=full_order**t,
        exhaustive=True,
        comparison=comparison,
    )


def naive_closure(gens, n_points: int | None = None, cap: int = _CLOSURE_CAP) -> frozenset:
    """All products of the generators, as raw image tuples, by breadth-first
    closure.  Independent of the stabilizer-chain engine; refuses more than
    256 points.
    """
    gens = list(gens)
    if not gens and n_points is None:
        raise ValueError("an empty generator list needs an explicit n_points")
    for g in gens[1:]:
        check_same_space(gens[0], g)
    n = gens[0].n if gens else n_points
    if n_points is not None:
        check_space(n_points, "n_points")
        if n_points != n:
            raise SpaceMismatchError(f"space sizes differ: {n} != {n_points}")
    if n > 256:
        raise SearchSpaceTooLargeError(f"naive closure is capped at 256 points, got {n}")
    tables = [bytes(g.images) + _BYTES[n:] for g in gens]
    return frozenset(map(tuple, _closure(tables, n, cap)))


def _witness(tables, positions, n: int) -> tuple[Permutation, ...]:
    """The elements at ``positions`` as permutations on n points."""
    return tuple(Permutation._trusted(tuple(tables[i][:n])) for i in positions)


def _closure(tables: list[bytes], n: int, cap: int = _CLOSURE_CAP) -> set[bytes]:
    """Breadth-first closure of generator tables on n points; each element
    is its image array as n bytes.  A table is 256 bytes, identity past n, so
    that ``p.translate(table)`` is the product g∘p."""
    identity = _BYTES[:n]
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in tables:
                q = p.translate(g)
                if q not in seen:
                    if len(seen) >= cap:
                        raise SearchSpaceTooLargeError(
                            f"closure exceeded {cap} elements"
                        )
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen
