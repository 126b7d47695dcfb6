"""Exact arithmetic on finite uniform probability spaces.

The ambient space is always ``{0, ..., n-1}`` with the uniform measure, so
every measure is a rational with denominator ``n`` and every injection is
automatically measure-preserving.  The building blocks are

* :class:`Permutation` -- a bijection of the whole space,
* :class:`PartialInjection` -- a bijection between two subsets.

All values are immutable and hashable, all operations are pure, and no
floating point appears anywhere: measures and distances are
:class:`fractions.Fraction`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping


# The largest space an input may name.  Every check of a wire ``n`` (and
# of ``--N``) refuses more, before anything of that size is allocated.  At
# the cap, ``pipeline --n 1 --p 3 --m 1 --mode a`` takes 0.4-0.6 s and
# prints a 1.7 MB report (0.13 s at N = 10 000).
MAX_POINTS = 20_000


class SpaceMismatchError(ValueError):
    """Raised when two operands live on spaces of different sizes."""


def check_space(n, what: str = "space size") -> None:
    """Refuse a space size ``n`` that is not an integer from 1 to ``MAX_POINTS``.

    ``what`` names the value in the first two messages.
    """
    if type(n) is not int:
        raise ValueError(f"{what} must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"{what} must be positive, got {n}")
    if n > MAX_POINTS:
        raise ValueError(f"space size {n} exceeds the cap of {MAX_POINTS} points")


def check_same_space(a, b) -> None:
    """Refuse two operands whose spaces differ in size."""
    if a.n != b.n:
        raise SpaceMismatchError(f"space sizes differ: {a.n} != {b.n}")


@dataclass(frozen=True)
class Permutation:
    """A bijection of ``{0, ..., n-1}``, stored as its image array.

    ``images[x]`` is the image of ``x``.  Composition is written
    multiplicatively: ``(T * U)(x) == T(U(x))``.
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        n = len(images)
        seen = bytearray(n)
        for x in images:
            if type(x) is not int or not 0 <= x < n or seen[x]:
                raise ValueError("images do not describe a bijection")
            seen[x] = 1

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap an image tuple known to be a bijection, skipping the check.

        For products, powers and inverses of valid permutations only; wire
        input goes through the validating constructor.
        """
        perm = object.__new__(cls)
        object.__setattr__(perm, "images", images)
        return perm

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._trusted(tuple(range(n)))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        """Build a permutation from disjoint cycles, e.g. ``[(0, 1, 2), (4, 5)]``."""
        images = list(range(n))
        moved = set()
        for cycle in cycles:
            cyc = list(cycle)
            for x in cyc:
                if type(x) is not int or not 0 <= x < n:
                    raise ValueError(f"point {x!r} outside the space of size {n}")
                if x in moved:
                    raise ValueError(f"cycles are not disjoint at point {x}")
                moved.add(x)
            for a, b in zip(cyc, cyc[1:]):
                images[a] = b
            if cyc:
                images[cyc[-1]] = cyc[0]
        # Disjoint cycles of in-range points describe a bijection.
        return cls._trusted(tuple(images))

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: apply ``other`` first, then ``self``."""
        if not isinstance(other, Permutation):
            return NotImplemented
        check_same_space(self, other)
        return Permutation._trusted(tuple(map(self.images.__getitem__, other.images)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for x, y in enumerate(self.images):
            inv[y] = x
        return Permutation._trusted(tuple(inv))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(self.n)
        square = self
        while k:
            if k & 1:
                result = result * square
            square = square * square
            k >>= 1
        return result

    def support(self) -> frozenset[int]:
        """The set of points actually moved."""
        return frozenset(x for x, y in enumerate(self.images) if x != y)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its least point, sorted by that point."""
        seen = bytearray(self.n)
        out = []
        for x in range(self.n):
            if seen[x] or self.images[x] == x:
                continue
            cycle = [x]
            y = self.images[x]
            while y != x:
                seen[y] = 1
                cycle.append(y)
                y = self.images[y]
            out.append(tuple(cycle))
        return tuple(out)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "images": list(self.images)}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Permutation":
        try:
            n = data["n"]
            images = data["images"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"permutation JSON needs 'n' and 'images': {exc}") from exc
        check_space(n, "permutation 'n'")
        if not isinstance(images, list) or len(images) != n:
            raise ValueError("permutation 'images' must be a list of length n")
        return cls(tuple(images))


@dataclass(frozen=True)
class PartialInjection:
    """A bijection between two subsets of ``{0, ..., n-1}``.

    Stored as the sorted tuple of (source, target) pairs, so structural
    equality coincides with mathematical equality.  The domain measure is
    ``len(pairs) / n``; the range automatically has the same measure.
    ``dom`` and ``rng``, the frozensets of sources and of targets, are
    built once, by the validation.
    """

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pairs = tuple(sorted((s, t) for s, t in self.pairs))
        object.__setattr__(self, "pairs", pairs)
        check_space(self.n)
        sources = set()
        targets = set()
        for s, t in pairs:
            if type(s) is not int or type(t) is not int:
                raise ValueError(f"pair ({s!r}, {t!r}) must hold two integers")
            if not (0 <= s < self.n and 0 <= t < self.n):
                raise ValueError(f"pair ({s}, {t}) outside the space of size {self.n}")
            if s in sources:
                raise ValueError(f"duplicate source {s}")
            if t in targets:
                raise ValueError(f"duplicate target {t}")
            sources.add(s)
            targets.add(t)
        object.__setattr__(self, "dom", frozenset(sources))
        object.__setattr__(self, "rng", frozenset(targets))
        object.__setattr__(self, "_forward", dict(pairs))

    @property
    def domain_measure(self) -> Fraction:
        return Fraction(len(self.pairs), self.n)

    def apply(self, x: int) -> int:
        try:
            return self._forward[x]
        except KeyError:
            raise ValueError(f"point {x} is not in the domain") from None

    def get(self, x: int) -> int | None:
        return self._forward.get(x)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "pairs": [[s, t] for s, t in self.pairs]}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PartialInjection":
        try:
            n = data["n"]
            pairs = data["pairs"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"partial injection JSON needs 'n' and 'pairs': {exc}") from exc
        return cls(n, tuple((s, t) for s, t in pairs))


def compose(outer: PartialInjection, inner: PartialInjection) -> PartialInjection:
    """Compose two partial injections: ``x -> outer(inner(x))``.

    The result is defined exactly where the chain is: on
    ``inner^{-1}(dom outer & rng inner)``.
    """
    check_same_space(outer, inner)
    pairs = []
    for s, mid in inner.pairs:
        t = outer.get(mid)
        if t is not None:
            pairs.append((s, t))
    return PartialInjection(outer.n, tuple(pairs))


def uniform_distance(t: Permutation, u: Permutation) -> Fraction:
    """The normalized count of points where the two permutations disagree.

    This is a bi-invariant metric on the permutations of the space.
    """
    check_same_space(t, u)
    diff = sum(1 for a, b in zip(t.images, u.images) if a != b)
    return Fraction(diff, t.n)


def support_measure(t: Permutation) -> Fraction:
    return Fraction(len(t.support()), t.n)


def frac_str(x: Fraction) -> str:
    """The wire form of a rational: ``"numerator/denominator"``."""
    return f"{x.numerator}/{x.denominator}"
