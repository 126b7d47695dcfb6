"""Equivalence relations generated by systems of partial injections.

A graphing is an ordered family of partial injections; the equivalence
relation it generates has as classes the connected components of the union
of the graphs of the maps.  On a finite uniform space everything is exact:

* ``cost_graphing`` is the sum of the domain measures,
* ``cost_relation`` is the infimum of that over all generating graphings,
  which a spanning forest attains, giving ``(n - #classes) / n``,
* the full group of a relation is the direct product of the symmetric
  groups on its classes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import (
    PartialInjection, Permutation, SpaceMismatchError, check_same_space, check_space
)


@dataclass(frozen=True)
class Partition:
    """A partition of ``{0, ..., n-1}``, canonically stored.

    ``class_id[x]`` is the least element of the class of ``x``; two
    partitions are equal iff they induce the same relation.
    """

    class_id: tuple[int, ...]

    def __post_init__(self) -> None:
        ids = tuple(self.class_id)
        object.__setattr__(self, "class_id", ids)
        n = len(ids)
        for x, r in enumerate(ids):
            if type(r) is not int or not 0 <= r <= x:
                raise ValueError(f"class id of {x} must be its least class element, got {r!r}")
            if ids[r] != r:
                raise ValueError(f"class id {r} of {x} is not itself a root")

    @property
    def n(self) -> int:
        return len(self.class_id)

    @classmethod
    def single_class(cls, n: int) -> "Partition":
        return cls((0,) * n) if n else cls(())

    @classmethod
    def from_classes(cls, n: int, classes: Iterable[Iterable[int]]) -> "Partition":
        check_space(n)
        ids = [-1] * n
        for block in classes:
            pts = sorted(block)
            if not pts:
                raise ValueError("empty class")
            root = pts[0]
            for x in pts:
                if type(x) is not int:
                    raise ValueError(f"point {x!r} is not an integer")
                if not 0 <= x < n:
                    raise ValueError(f"point {x} outside the space of size {n}")
                if ids[x] != -1:
                    raise ValueError(f"point {x} appears in two classes")
                ids[x] = root
        missing = [x for x, r in enumerate(ids) if r == -1]
        if missing:
            raise ValueError(f"points not covered by any class: {missing}")
        return cls(tuple(ids))

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Partition":
        """The finest partition joining each given pair of points."""
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"pair ({a}, {b}) outside the space of size {n}")
            ra, rb = find(a), find(b)
            if ra != rb:
                if ra > rb:
                    ra, rb = rb, ra
                parent[rb] = ra
        return cls(tuple(find(x) for x in range(n)))

    def classes(self) -> tuple[tuple[int, ...], ...]:
        """The classes as sorted tuples, ordered by least element."""
        buckets: dict[int, list[int]] = {}
        for x, r in enumerate(self.class_id):
            buckets.setdefault(r, []).append(x)
        return tuple(tuple(buckets[r]) for r in sorted(buckets))

    @property
    def num_classes(self) -> int:
        return sum(1 for x, r in enumerate(self.class_id) if x == r)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "classes": [list(c) for c in self.classes()]}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Partition":
        try:
            n = data["n"]
            classes = data["classes"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"partition JSON needs 'n' and 'classes': {exc}") from exc
        return cls.from_classes(n, classes)


@dataclass(frozen=True)
class Graphing:
    """An ordered family of partial injections on a common space."""

    n: int
    maps: tuple[PartialInjection, ...]

    def __post_init__(self) -> None:
        maps = tuple(self.maps)
        object.__setattr__(self, "maps", maps)
        check_space(self.n)
        for i, phi in enumerate(maps):
            if phi.n != self.n:
                raise SpaceMismatchError(
                    f"map {i} lives on a space of size {phi.n}, expected {self.n}"
                )

    def to_json_dict(self) -> dict:
        return {"n": self.n, "maps": [phi.to_json_dict() for phi in self.maps]}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Graphing":
        try:
            n = data["n"]
            maps = data["maps"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"graphing JSON needs 'n' and 'maps': {exc}") from exc
        return cls(n, tuple(PartialInjection.from_json_dict(m) for m in maps))


def generate_relation(graphing: Graphing) -> Partition:
    """Orbit partition of the graphing: connected components of the union of graphs."""
    edges = [(s, t) for phi in graphing.maps for s, t in phi.pairs]
    return Partition.from_pairs(graphing.n, edges)


def cost_graphing(graphing: Graphing) -> Fraction:
    """Sum of the domain measures of the maps."""
    return sum(
        (phi.domain_measure for phi in graphing.maps),
        start=Fraction(0),
    )


def cost_relation(relation: Partition) -> Fraction:
    """Least cost of a graphing generating the relation.

    A spanning forest of the classes attains it, so the value is
    ``(n - #classes) / n``.
    """
    return Fraction(relation.n - relation.num_classes, relation.n)


def spanning_graphing(relation: Partition) -> Graphing:
    """A one-map graphing of minimal cost generating the relation.

    Each class contributes the path through its points in increasing order.
    """
    pairs = []
    for cls_pts in relation.classes():
        pairs.extend(zip(cls_pts, cls_pts[1:]))
    return Graphing(relation.n, (PartialInjection(relation.n, tuple(pairs)),))


def join(relations: Sequence[Partition]) -> Partition:
    """Smallest common coarsening of the given partitions."""
    if not relations:
        raise ValueError("join requires at least one relation")
    for rel in relations[1:]:
        check_same_space(rel, relations[0])
    pairs = []
    for rel in relations:
        for cls_pts in rel.classes():
            pairs.extend(zip(cls_pts, cls_pts[1:]))
    return Partition.from_pairs(relations[0].n, pairs)


def is_ergodic(relation: Partition) -> bool:
    """True when the relation has a single class.

    On a finite uniform space every non-null invariant set is a union of
    classes, so ergodicity is exactly transitivity.
    """
    return relation.num_classes == 1


def isopar_witness(
    relation: Partition, a: Iterable[int], b: Iterable[int]
) -> PartialInjection:
    """A partial injection ``a -> b`` moving each point within its class.

    Exists iff ``a`` and ``b`` meet every class in sets of equal size;
    the witness matches the points of ``a`` and ``b`` inside each class
    in increasing order, so the result is deterministic.
    """
    set_a = frozenset(a)
    set_b = frozenset(b)
    for name, pts in (("first", set_a), ("second", set_b)):
        bad = [x for x in pts if not 0 <= x < relation.n]
        if bad:
            raise ValueError(f"{name} set has points outside the space: {sorted(bad)}")
    by_class_a: dict[int, list[int]] = {}
    by_class_b: dict[int, list[int]] = {}
    for x in sorted(set_a):
        by_class_a.setdefault(relation.class_id[x], []).append(x)
    for x in sorted(set_b):
        by_class_b.setdefault(relation.class_id[x], []).append(x)
    errors = []
    for root in sorted(set(by_class_a) | set(by_class_b)):
        ca = len(by_class_a.get(root, ()))
        cb = len(by_class_b.get(root, ()))
        if ca != cb:
            errors.append(f"class of {root}: {ca} vs {cb} points")
    if errors:
        raise ValueError(
            "sets meet some classes in different sizes: " + "; ".join(errors)
        )
    pairs = []
    for root, pts_a in by_class_a.items():
        pairs.extend(zip(pts_a, by_class_b[root]))
    return PartialInjection(relation.n, tuple(pairs))


def in_full_group(perm: Permutation, relation: Partition) -> bool:
    """True when the permutation maps every point within its class."""
    check_same_space(perm, relation)
    ids = relation.class_id
    return all(ids[x] == ids[y] for x, y in enumerate(perm.images))


def full_group_order(relation: Partition) -> int:
    """Order of the full group: the product of the factorials of class sizes."""
    return math.prod(map(math.factorial, Counter(relation.class_id).values()))


def full_group_generators(relation: Partition) -> tuple[Permutation, ...]:
    """A standard generating set of the full group.

    Each class of size >= 2 contributes its full cycle (through its points
    in increasing order) and, when the size is >= 3, also the transposition
    of its two least points.  Classes are visited in order of least element.
    """
    gens = []
    n = relation.n
    for cls_pts in relation.classes():
        if len(cls_pts) < 2:
            continue
        gens.append(Permutation.from_cycles(n, [cls_pts]))
        if len(cls_pts) >= 3:
            gens.append(Permutation.from_cycles(n, [cls_pts[:2]]))
    return tuple(gens)
