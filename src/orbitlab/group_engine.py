"""Exact permutation-group computations and full-group certificates.

``generates_full_group`` is the one entry point.  Its exact order comes
from ``_generated_order``, given generators and a partition they all
preserve: the relation being certified, or the generators' orbits.

* **Transposition closure.**  Transpositions of the generated group H are
  taken from the generators one at a time: a generator that is a
  transposition, or whose cycles are one 2-cycle plus odd cycles (a power
  of it is that 2-cycle), seeds its 2-cycle.  Conjugates and products of
  overlapping transpositions give more, so closing each seed under the
  generators (Atkinson's minimal-block algorithm, on a label per point)
  only ever joins points whose transposition lies in H.  As soon as the
  sets fill every class, H is the full group of the partition.  No
  stabilizer chain is built.
* **Sims table.**  Otherwise a stabilizer chain, built as Knuth's Sims
  table ("Efficient representation of perm groups", Combinatorica 11,
  1991), gives the exact order.

The chain is deterministic and seedless: each new level's base point is
the least point moved by the first element to reach it, and one
last-in-first-out work stack fixes the order in which pairs are examined,
so identical generator lists (in identical order) yield identical chains,
orders, and certificates.

Internally permutations are raw image tuples; the dataclass wrapper from
:mod:`.core` appears only at the API boundary.
"""

from __future__ import annotations

import decimal
import math
from typing import Sequence

from .core import Permutation
from .relations import (
    Partition,
    full_group_generators,
    full_group_order,
    in_full_group,
    join,
)


def _mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Raw composition: apply q first, then p."""
    return tuple(map(p.__getitem__, q))


def _inv(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


class _Chain:
    """Knuth's Sims table, closed with one work stack instead of recursion.

    Level ``j`` has a base point, its own generator list, and a transversal
    (with inverses) sending ``base[j]`` to each point of its orbit under
    those generators.  An element offered to a level joins that level only,
    and only if it does not already sift to the identity from there.  Each
    (generator, representative) pair of a level is examined once: its
    product either reaches a new orbit point and becomes its
    representative, or gives a Schreier element, offered to the next level.
    Pairs wait on a last-in-first-out stack, so every level deeper than the
    one being closed is complete whenever an element is offered to it, and
    the sift that decides whether the element joins is exact.
    """

    def __init__(self, n: int):
        self.identity = tuple(range(n))
        self.base: list[int] = []
        self.gens: list[list[tuple[int, ...]]] = []
        self.transversals: list[dict[int, tuple[int, ...]]] = []
        self.trans_inv: list[dict[int, tuple[int, ...]]] = []
        self._pairs: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []

    def order(self) -> int:
        return math.prod(len(t) for t in self.transversals)

    def strip(self, p: tuple[int, ...], start: int = 0) -> tuple[int, ...]:
        """Sift through levels ``start..``; return the residue."""
        for j in range(start, len(self.base)):
            u_inv = self.trans_inv[j].get(p[self.base[j]])
            if u_inv is None:
                return p
            p = _mul(u_inv, p)
        return p

    def add(self, p: tuple[int, ...]) -> None:
        self._offer(0, p)
        pairs = self._pairs
        while pairs:
            j, g, u = pairs.pop()
            tinv = self.trans_inv[j]
            pt = g[u[self.base[j]]]
            if pt in tinv:
                self._offer(j + 1, _mul(tinv[pt], _mul(g, u)))
            else:
                rep = _mul(g, u)
                self.transversals[j][pt] = rep
                tinv[pt] = _inv(rep)
                pairs.extend((j, h, rep) for h in self.gens[j])

    def _offer(self, j: int, g: tuple[int, ...]) -> None:
        if self.strip(g, j) == self.identity:
            return
        if j == len(self.base):
            b = min(x for x, y in enumerate(g) if x != y)
            self.base.append(b)
            self.gens.append([])
            self.transversals.append({b: self.identity})
            self.trans_inv.append({b: self.identity})
        self.gens[j].append(g)
        self._pairs.extend((j, g, u) for u in reversed(self.transversals[j].values()))


def _generated_order(gens: Sequence[tuple[int, ...]], blocks: Partition) -> int:
    """The order of the group generated by the raw generators.

    Every generator must preserve the classes of ``blocks``.  When their
    transposition closure fills every class, the group is the full group
    of ``blocks``; otherwise a Sims table gives the order.
    """
    if _transposition_closure_is_full(gens, blocks):
        return full_group_order(blocks)
    chain = _Chain(blocks.n)
    for g in gens:
        chain.add(g)
    return chain.order()


def _orbits(gens: Sequence[tuple[int, ...]], n: int) -> Partition:
    """The orbits of the group generated by the raw generators."""
    pairs = ((x, y) for g in gens for x, y in enumerate(g) if x != y)
    return Partition.from_pairs(n, pairs)


def _transposition_seed(p: tuple[int, ...]) -> tuple[int, int] | None:
    """The 2-cycle of ``p`` when some power of ``p`` is that transposition.

    That holds exactly when ``p`` has one 2-cycle and every other cycle
    has odd length: the power by the lcm of the odd lengths removes them.
    """
    seen = bytearray(len(p))
    pair = None
    for x in range(len(p)):
        if seen[x]:
            continue
        length = 0
        y = x
        while not seen[y]:
            seen[y] = 1
            y = p[y]
            length += 1
        if length % 2 == 0:
            if length != 2 or pair is not None:
                return None
            pair = (x, p[x])
    return pair


def _transposition_closure_is_full(
    gens: Sequence[tuple[int, ...]], blocks: Partition
) -> bool:
    """True when the transpositions found in <gens> join up every class.

    Requires every generator to preserve the classes of ``blocks``;
    ``_generated_order`` runs it before it would build any chain.
    Invariant: two points share a set only if their transposition lies in
    the generated group H.  Seeds keep it; so does joining g(a) with g(b)
    for a joined pair (a, b), as g (a b) g^-1 = (g(a) g(b)); and so does
    every join, as (x y) = (x a)(a y)(x a).  Each join queues the pair it
    joined and every queued pair is closed under every generator, so after
    each seed the sets form the least block system holding the seeds so
    far.  When they are the classes, H contains the full group, which in
    turn contains H.  Each point carries the label of its set, and a join
    relabels the smaller set, so the joins cost O(n log n) in all and each
    closing step O(|gens|).
    """
    label = list(range(blocks.n))
    members = [[x] for x in label]
    joined: list[tuple[int, int]] = []

    def union(a: int, b: int) -> None:
        keep, gone = label[a], label[b]
        if len(members[keep]) < len(members[gone]):
            keep, gone = gone, keep
        for x in members[gone]:
            label[x] = keep
        members[keep] += members[gone]
        joined.append((a, b))

    # The sets refine the classes, so they equal them after n - #classes joins.
    needed = blocks.n - blocks.num_classes
    done = 0
    for seed in gens:
        if len(joined) == needed:
            break
        pair = _transposition_seed(seed)
        if pair is None or label[pair[0]] == label[pair[1]]:
            continue
        union(*pair)
        while done < len(joined) < needed:
            a, b = joined[done]
            done += 1
            for g in gens:
                if label[g[a]] != label[g[b]]:
                    union(g[a], g[b])
    return len(joined) == needed


def generates_full_group(
    gens: Sequence[Permutation], relation: Partition
) -> tuple[bool, dict]:
    """Decide whether the permutations generate the full group of the relation.

    True iff every generator moves points only within their classes and the
    generated order equals the full-group order.  The certificate records
    both orders as decimal strings.  The exact generated order comes from
    ``_generated_order``, over the relation when every generator preserves
    it and over the generators' orbits otherwise.
    """
    gen_list = list(gens)
    # A list, so that in_full_group checks the space of every generator.
    in_fg = all([in_full_group(g, relation) for g in gen_list])
    images = [g.images for g in gen_list]
    order = _generated_order(images, relation if in_fg else _orbits(images, relation.n))
    target = full_group_order(relation)
    ok = in_fg and order == target
    # Decimal prints every digit: str(int) refuses more than 4 300 of them.
    # The conversion is about quadratic in the digits, so equal orders share it.
    target_text = str(decimal.Decimal(target))
    return ok, {
        "in_full_group": in_fg,
        "generated_order": target_text if order == target else str(decimal.Decimal(order)),
        "full_group_order": target_text,
        "generates": ok,
    }


def check_join_generation(relations: Sequence[Partition]) -> tuple[bool, dict]:
    """Check that the standard generators of each relation's full group,
    taken together, generate the full group of the join.
    """
    joined = join(relations)
    gens = [g for rel in relations for g in full_group_generators(rel)]
    return generates_full_group(gens, joined)
