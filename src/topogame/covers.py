"""Cover enumeration and the menu families the games are played on.

Covers are tuples of bitmasks sorted ascending; a cover family is compared
elementwise as frozensets of masks.

An irredundant cover is a minimal hitting set of the sets {members holding
x}, x a point. `_minimal_transversals` enumerates them over any pool and
ground mask by MMCS (Murakami & Uno, Discrete Appl. Math. 2014): branch
on the holders of the uncovered point with the fewest candidate holders,
drop each holder from the candidates once its branch is done (so each
cover is found once), and prune as soon as a chosen member has no private
point left. Covers and menu families, both immutable, are cached per space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import CapExceeded, EmptySpace
from .topology import FiniteSpace, clopen_algebra, points_of, quasi_components

DEFAULT_CAP = 10**6

Menu = tuple[int, ...]  # nonempty family of distinct point sets, sorted ascending


@dataclass(frozen=True)
class Cover:
    """A deduplicated open (or clopen) cover, as a sorted tuple of masks."""

    members: tuple[int, ...]


@dataclass(frozen=True)
class MenuFamily:
    """Alice's legal moves: each round she picks any one menu of the family."""

    menus: tuple[Menu, ...]
    # the union of every member, set once per family: a game checks it
    # against its ground mask. It takes no part in equality, hashing or repr.
    union: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(self.menus):
            raise ValueError("every menu must be nonempty")
        union = 0
        for menu in self.menus:
            if len(set(menu)) < len(menu):
                raise ValueError("no menu may list a member twice")
            for b in menu:
                union |= b
        object.__setattr__(self, "union", union)


def _kind_sets(space: FiniteSpace, kind: str) -> list[int]:
    if kind == "open":
        pool = space.opens
    elif kind == "clopen":
        pool = clopen_algebra(space).sets
    else:
        raise ValueError(f"unknown cover kind {kind!r}")
    return [m for m in pool if m != 0]


def _minimal_transversals(pool: list, full: int) -> list[tuple[int, ...]]:
    """Each minimal subfamily of `pool` (distinct nonzero masks) whose
    union is `full`, as its sorted member tuple, by MMCS; CapExceeded past
    DEFAULT_CAP of them."""
    points = points_of(full)
    holders = [0] * full.bit_length()  # holders[x]: bitset of the pool indices whose member holds x
    for i, m in enumerate(pool):
        for x in points:
            if m >> x & 1:
                holders[x] |= 1 << i
    found: list[tuple[int, ...]] = []
    cap = DEFAULT_CAP

    def grow(chosen: list, private: list, covered: int, cand: int) -> None:
        # private[j]: the points chosen[j] alone covers; cand: pool indices
        # still allowed below this node
        if covered == full:
            found.append(tuple(sorted(chosen)))
            if len(found) > cap:
                raise CapExceeded(f"more than {cap} irredundant covers")
            return
        branch = None
        for x in points:
            if not covered >> x & 1:
                here = holders[x] & cand
                if branch is None or here.bit_count() < branch.bit_count():
                    branch = here
        while branch:
            low = branch & -branch
            branch ^= low
            # every cover below this branch uses this member, so the later
            # branches must not: each cover is generated exactly once
            cand ^= low
            m = pool[low.bit_length() - 1]
            left = [p & ~m for p in private]
            if all(left):
                grow(chosen + [m], left + [m & ~covered], covered | m, cand)

    grow([], [], 0, (1 << len(pool)) - 1)
    return found


@lru_cache(maxsize=None)
def _reduced_covers_cached(space: FiniteSpace, kind: str) -> tuple[Cover, ...]:
    found = _minimal_transversals(sorted(_kind_sets(space, kind)), space.full)
    found.sort()
    found.sort(key=len)  # stable: by size, then lexicographically
    return tuple(map(Cover, found))


def reduced_covers(space: FiniteSpace, kind: str) -> list[Cover]:
    """All irredundant covers of the given kind, deterministically ordered;
    CapExceeded past DEFAULT_CAP of them."""
    return list(_reduced_covers_cached(space, kind))


@lru_cache(maxsize=None)
def cover_menu_family(space: FiniteSpace, kind: str) -> MenuFamily:
    """Irredundant covers packaged as menus; the empty-space cover is dropped
    (Alice then has no move and the game ends immediately)."""
    menus = tuple(c.members for c in reduced_covers(space, kind) if c.members)
    return MenuFamily(menus=menus)


@lru_cache(maxsize=None)
def point_base_family(space: FiniteSpace, kind: str) -> MenuFamily:
    """One menu per point: all nonempty opens (or clopens) containing it."""
    if space.n == 0:
        raise EmptySpace("no point bases on the empty space")
    pool = sorted(_kind_sets(space, kind))
    menus = []
    for x in range(space.n):
        bit = 1 << x
        menus.append(tuple(m for m in pool if m & bit))
    return MenuFamily(menus=tuple(menus))


@lru_cache(maxsize=None)
def quasi_component_family(space: FiniteSpace) -> MenuFamily:
    """One menu per quasi-component block: all clopen supersets of it, that
    is, the clopen sets holding its least point."""
    blocks = quasi_components(space).blocks
    bases = point_base_family(space, "clopen").menus
    return MenuFamily(menus=tuple(bases[(block & -block).bit_length() - 1] for block in blocks))

