"""Cover enumeration and the menu families the games are played on.

Covers are tuples of bitmasks sorted ascending; a cover family is compared
elementwise as frozensets of masks.

An irredundant cover is a minimal hitting set of the sets {members holding
x}, x a point. `_minimal_transversals` enumerates them over any pool and
ground mask by MMCS (Murakami & Uno, Discrete Appl. Math. 2014): branch
on the holders of the uncovered point with the fewest candidate holders,
drop each holder from the candidates once its branch is done (so each
cover is found once), prune as soon as a chosen member has no private
point left, and record a cover at the member that completes it.

Covers and point bases are those of a space's opens; a clopen game takes
them on the clopen topology (`topology.clopen_topology`). The opens of a
zero-dimensional space are the unions of its quasi-component blocks, so
its covers with b blocks are those of the discrete b-point space,
searched once per b (`_block_covers`), each member mapped to its union
of blocks; any other space's covers are searched over its opens.

A menu family carries its ground mask and checks, once, that each menu is
nonempty and inside it. Covers and families are cached per space and never
change once built, apart from a family's dominant cut per target, which
every solve fills in (`games._cut_solver`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import CapExceeded, EmptySpace
from .topology import FiniteSpace, clopen_topology, is_zero_dimensional, quasi_components

DEFAULT_CAP = 10**6

Menu = tuple[int, ...]  # nonempty family of point sets


@dataclass(frozen=True)
class Cover:
    """A deduplicated open cover, as a sorted tuple of masks."""

    members: tuple[int, ...]


@dataclass(frozen=True)
class MenuFamily:
    """Alice's legal moves: each round she picks any one menu, a nonempty
    family of subsets of the ground mask `full`."""

    menus: tuple[Menu, ...]
    full: int
    # set once per family, and no part of equality, hashing or repr: the
    # family's dominant cut per target (negated or not), which the solves
    # fill in and read (`games._cut_solver`)
    cuts: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(self.menus):
            raise ValueError("every menu must be nonempty")
        for menu in self.menus:
            for b in menu:
                if b & ~self.full:
                    raise ValueError("every menu member must lie inside the ground mask")
        object.__setattr__(self, "cuts", {})


def _minimal_transversals(pool: list, full: int) -> list[tuple[int, ...]]:
    """Each minimal subfamily of `pool` (distinct nonzero masks) whose
    union is `full`, as its sorted member tuple, by MMCS; CapExceeded past
    DEFAULT_CAP of them."""
    if not full:
        return [()]
    holders = [0] * full.bit_length()  # holders[x]: bitset of the pool indices whose member holds x
    for i, m in enumerate(pool):
        rest = m & full
        while rest:
            low = rest & -rest
            rest ^= low
            holders[low.bit_length() - 1] |= 1 << i
    found: list[tuple[int, ...]] = []
    cap = DEFAULT_CAP

    def grow(chosen: list, private: list, covered: int, cand: int) -> None:
        # private[j]: the points chosen[j] alone covers; cand: pool indices
        # still allowed below this node. Branch on the uncovered point with
        # the fewest candidate holders, the least such point on a tie.
        rest = full & ~covered
        branch, least = 0, len(pool) + 1
        while rest:
            low = rest & -rest
            rest ^= low
            here = holders[low.bit_length() - 1] & cand
            if not here:
                return  # a point no candidate can cover
            count = here.bit_count()
            if count < least:
                branch, least = here, count
        while branch:
            low = branch & -branch
            branch ^= low
            # every cover below this branch uses this member, so the later
            # branches must not: each cover is generated exactly once
            cand ^= low
            m = pool[low.bit_length() - 1]
            for p in private:
                if not p & ~m:
                    break  # m would take the last private point of p's member
            else:
                if covered | m == full:
                    found.append(tuple(sorted(chosen + [m])))
                    if len(found) > cap:
                        raise CapExceeded(f"more than {cap} irredundant covers")
                else:
                    grow(chosen + [m], [p & ~m for p in private] + [m & ~covered], covered | m, cand)

    grow([], [], 0, (1 << len(pool)) - 1)
    return found


@lru_cache(maxsize=None)
def _reduced_covers_cached(space: FiniteSpace) -> tuple[Cover, ...]:
    if space.n and is_zero_dimensional(space):
        # the opens are the unions of the quasi-component blocks, so the
        # covers are those of the discrete space on the blocks
        blocks = quasi_components(space).blocks
        unions = [0]
        for block in blocks:
            unions += [u | block for u in unions]  # unions[s]: the blocks in bitset s
        found = [tuple(sorted(map(unions.__getitem__, c))) for c in _block_covers(len(blocks))]
    else:
        found = _minimal_transversals([m for m in space.opens if m], space.full)
    found.sort()
    found.sort(key=len)  # stable: by size, then lexicographically
    return tuple(map(Cover, found))


@lru_cache(maxsize=None)
def _block_covers(b: int) -> tuple[tuple[int, ...], ...]:
    """The irredundant covers of the discrete space on b points."""
    return tuple(_minimal_transversals(list(range(1, 1 << b)), (1 << b) - 1))


def reduced_covers(space: FiniteSpace, kind: str) -> list[Cover]:
    """All irredundant open ("open") or clopen ("clopen") covers, the
    latter being the open covers of the clopen topology, deterministically
    ordered; CapExceeded past DEFAULT_CAP of them."""
    if kind == "clopen":
        space = clopen_topology(space)
    elif kind != "open":
        raise ValueError(f"unknown cover kind {kind!r}")
    return list(_reduced_covers_cached(space))


@lru_cache(maxsize=None)
def cover_menu_family(space: FiniteSpace) -> MenuFamily:
    """The irredundant open covers packaged as menus; the empty-space cover
    is dropped (Alice then has no move and the game ends immediately)."""
    menus = tuple(c.members for c in reduced_covers(space, "open") if c.members)
    return MenuFamily(menus, space.full)


@lru_cache(maxsize=None)
def point_base_family(space: FiniteSpace) -> MenuFamily:
    """One menu per point: all opens containing it, in ascending order."""
    if space.n == 0:
        raise EmptySpace("no point bases on the empty space")
    pool = sorted(space.opens)
    menus = []
    for x in range(space.n):
        bit = 1 << x
        menus.append(tuple(m for m in pool if m & bit))
    return MenuFamily(tuple(menus), space.full)


@lru_cache(maxsize=None)
def quasi_component_family(space: FiniteSpace) -> MenuFamily:
    """One menu per quasi-component block: all clopen supersets of it, that
    is, the clopen sets holding its least point."""
    blocks = quasi_components(space).blocks
    bases = point_base_family(clopen_topology(space)).menus
    return MenuFamily(tuple(bases[(block & -block).bit_length() - 1] for block in blocks), space.full)
