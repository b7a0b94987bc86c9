"""Finite topological spaces over points {0..n-1}, stored as bitmask families.

A point set is an int whose bit i is set iff point i belongs to the set.
A space is the full family of its open sets. Everything else is derived
from its definition: the minimal open neighbourhood U_x and the
quasi-component Q[x] are the intersections of the opens, and of the
clopen sets, that hold x.

A finite topology is the same thing as a preorder (Alexandroff 1937): it is
fixed by its U_x, and its opens are the unions of the U_x. The enumerator
builds topologies that way, one U_x per point. In a finite space the
components are the quasi-components.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import (
    CapExceeded,
    EmptySpace,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    PointOutOfRange,
)

ENUMERATION_CAP = 4  # labeled-topology counts explode past n=4


def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_of(points: Iterable[int], n: int) -> int:
    m = 0
    for p in points:
        if not 0 <= p < n:
            raise PointOutOfRange(f"point {p} outside 0..{n - 1}")
        m |= 1 << p
    return m


def points_of(mask: int) -> list[int]:
    out = []
    p = 0
    while mask:
        if mask & 1:
            out.append(p)
        mask >>= 1
        p += 1
    return out


@dataclass(frozen=True)
class FiniteSpace:
    """A topology on {0..n-1}: the family of all open sets, as bitmasks."""

    n: int
    opens: tuple[int, ...]
    # set once per space, and no part of equality or repr: the mask of all
    # points, which the builders give each menu family, and the hash of
    # (n, opens), which every per-space cache lookup reads
    full: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "full", full_mask(self.n))
        object.__setattr__(self, "_hash", hash((self.n, self.opens)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class ClopenAlgebra:
    """The Boolean algebra of clopen sets of a space."""

    sets: tuple[int, ...]


@dataclass(frozen=True)
class Partition:
    """Pairwise-disjoint nonempty blocks covering {0..n-1}."""

    blocks: tuple[int, ...]

    def index_of(self, x: int) -> int:
        bit = 1 << x
        for i, b in enumerate(self.blocks):
            if b & bit:
                return i
        raise PointOutOfRange(f"point {x} not in any block")


def validate_topology(candidate: Iterable[int], n: int) -> FiniteSpace:
    """Check the topology axioms and return the space; reject, never repair."""
    members = sorted(set(candidate))
    full = full_mask(n)
    for m in members:
        if m & ~full:
            raise PointOutOfRange(f"member {m:#x} has bits outside 0..{n - 1}")
    have = set(members)
    if 0 not in have or full not in have:
        raise MissingEmptyOrFull("topology must contain the empty set and the full set")
    for a, b in itertools.combinations(members, 2):
        if a | b not in have:
            raise NotClosedUnderUnion(a, b)
        if a & b not in have:
            raise NotClosedUnderIntersection(a, b)
    return FiniteSpace(n=n, opens=tuple(members))


def _holder_meets(space: FiniteSpace, family: Iterable[int]) -> list[int]:
    """For each point x, the intersection of the members of `family` that hold x."""
    meets = []
    for x in range(space.n):
        acc = space.full
        for u in family:
            if u >> x & 1:
                acc &= u
        meets.append(acc)
    return meets


def minimal_open_nbhd(space: FiniteSpace, x: int) -> int:
    """U_x: the intersection of all open sets containing x (itself open)."""
    if not 0 <= x < space.n:
        raise PointOutOfRange(f"point {x} outside 0..{space.n - 1}")
    return _holder_meets(space, space.opens)[x]


@lru_cache(maxsize=None)
def clopen_algebra(space: FiniteSpace) -> ClopenAlgebra:
    """All open sets whose complement is also open."""
    opens = set(space.opens)
    return ClopenAlgebra(sets=tuple(u for u in space.opens if space.full ^ u in opens))


@lru_cache(maxsize=None)
def quasi_components(space: FiniteSpace) -> Partition:
    """Blocks Q[x] = the intersection of all clopen sets containing x,
    ordered by least point."""
    if space.n == 0:
        raise EmptySpace("no quasi-components on the empty space")
    blocks = set(_holder_meets(space, clopen_algebra(space).sets))
    return Partition(blocks=tuple(sorted(blocks, key=lambda b: b & -b)))


@lru_cache(maxsize=None)
def components(space: FiniteSpace) -> Partition:
    """Maximal connected subsets, which in a finite space are the quasi-components.

    A quasi-component Q is the intersection of the finitely many clopen
    sets containing any one of its points, so Q is clopen. Split Q into two
    nonempty relatively open parts: each part is then clopen in the space,
    so Q lies inside either part, which is absurd. Hence Q is connected. A
    connected set lies inside every clopen set it meets, hence inside one
    quasi-component, so the two partitions agree.
    """
    return quasi_components(space)


@lru_cache(maxsize=None)
def is_zero_dimensional(space: FiniteSpace) -> bool:
    """True iff the clopen sets form a base.

    In a finite space that holds iff every open set is clopen: an open set
    is then a finite union of clopen sets, and so is itself clopen; the
    converse is plain.
    """
    return len(clopen_algebra(space).sets) == len(space.opens)


def enumerate_topologies(n: int) -> Iterator[FiniteSpace]:
    """Yield every labeled topology on {0..n-1}, deterministically ordered.

    Backtracking picks the minimal open neighbourhood U_x of x = 0..n-1 in
    turn: U_x contains x, and y in U_x forces U_y within U_x, checked both
    ways against the points already placed. Each valid choice is one
    preorder, hence one topology, whose opens are the unions of the U_x.
    Order is lexicographic on the sorted bitmask family. Capped at n=4
    (355 topologies).
    """
    if not 0 <= n <= ENUMERATION_CAP:
        raise CapExceeded(f"topology enumeration capped at n={ENUMERATION_CAP}, got {n}")
    full = full_mask(n)
    nbhds: list[int] = []
    found: list[tuple[int, ...]] = []

    def place(x: int) -> None:
        if x == n:
            opens = {0}
            for u in nbhds:
                opens |= {o | u for o in opens}
            found.append(tuple(sorted(opens)))
            return
        bit = 1 << x
        for u in range(bit, full + 1):
            if u & bit and all(
                (not u >> y & 1 or not v & ~u) and (not v & bit or not u & ~v)
                for y, v in enumerate(nbhds)
            ):
                nbhds.append(u)
                place(x + 1)
                nbhds.pop()

    place(0)
    for fam in sorted(found):
        yield FiniteSpace(n=n, opens=fam)

