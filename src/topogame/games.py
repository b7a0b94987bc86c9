"""Bounded-horizon selection games and their exact solvers.

A game is a menu family (menus of subsets of its ground mask `full`, points
0..n-1), a target and a horizon. A round: Alice picks a menu (her move is
its index), Bob a member of it (his move is its bitmask). After `horizon`
rounds Bob wins iff his selections cover `full` (fail to, when `negated`).
Each clopen game is the open game of the space's clopen topology, so the
spaces of one quasi-component partition share each clopen family and its
cuts, and a zero-dimensional space's open and clopen games share one.

The state of a play is the mask of points Bob's selections have covered.
The solver does backward induction on (covered mask, rounds left). A
position's value does not depend on the horizon, so one solver answers
every horizon of a game (`winners`).

Every solve (`solve`, `winners`, and `play`'s moves) reads one solver
per dominant menus, full mask and target (`_dominant_menus`,
`_cut_solver`, which keeps each target's cut on the menu family), so
every horizon, caller and space with the same cut family reads one memo;
the point-clopen and quasi-component games of a finite space cut to the
same menus. The memo holds whether Bob wins each position it finished.
Bob's goal is monotone in the covered mask (antitone when negated), and
so, by induction on the rounds left, is the value of every position. A
member inside another member of its menu (containing it, when negated)
is therefore never a better reply for Bob at any position, and a menu
whose members each lie inside (contain) a member of another menu is
never a worse move for Alice. Cutting both leaves the value of every
position unchanged. This is the finite form of refinement: on a finite
space O cuts to the cover by the maximal minimal neighbourhoods, C_O to
the quasi-component partition, and each point menu to its least member.

Moves are named in the full family, by one least-move rule
(`_least_move`) over the shared solver's child values: Alice's first
menu all of whose children she wins, else 0; Bob's first member of each
menu whose child he wins, else the menu's first member. A witness is
positional: that move at each (covered mask, rounds left) the winner's
play can reach against every line of the loser. An n-point game of
horizon k has at most 2^n * k such positions, so no witness is ever
skipped. The shared solver keeps each witness it builds, per full-family
menus and horizon, so a game's table is walked once and then shared by
every solve of it. `play` asks the same rule for one move.

Every strategy is such a positional table, keyed on (covered mask,
rounds left), so no table grows with the number of lines of play. A
reader (translation, tree extraction) asks a strategy for its whole move
at a node, Alice's menu index or Bob's pick tuple, through
`Strategy.move_at(covered, left)`; verification reads each node's entry
once, and a missing or illegal one loses. `walk_positions` builds a
table round by round from a `choose(covered, left)` callback that gives
each node's move, with one node per covered mask: the witnesses, the
translation of a strategy, and the table of a strategy whose move
depends on the round alone.

The restricted searches decide two classes that move on the round
alone. Each returns the winning move of every round (Alice's menu index,
or Bob's pick from each menu), or None when the class has no win:
  Predetermined Alice: a knowledge-set search. She commits to a menu per
    round, so the masks Bob can reach are tracked as a set: an int bitset
    over covered masks, cut to the antichain of the masks best for Bob.
  Markov Bob, cover target: closed form, found once per family. He wins
    at horizon k iff the points split into at most k groups, each inside a
    member of every menu.
  Markov Bob, negated target: the same knowledge-set search over choice
    vectors (one member per menu).
There is one knowledge-set search per menu family, target and player
(`_committed_search`, cached). It is memoized on (knowledge set, rounds
left), so it answers every horizon, and every check that asks about the
same family shares it. Before it runs, one `_menu_tops` pass cuts each
menu to the members no other member of it beats for Bob: his choice
vectors, capped at DEFAULT_CAP per round before anything is cached, are
drawn from those. Alice's menus also lose each menu that an earlier menu
beats or equals for her. That keeps her first winning move: the earlier
menu is tried first at every knowledge set, so where it wins the later
one is never reached, and where it loses the later one loses too. Her
witnesses are therefore those of the full family. The dominant-menu cut
would not keep them, since it can drop an earlier menu for a later.
Each search caches its answer per horizon.
Verification is one round-by-round frontier walk that keeps one node
per covered mask.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Optional

from .covers import (
    DEFAULT_CAP,
    MenuFamily,
    cover_menu_family,
    point_base_family,
    quasi_component_family,
)
from .errors import CapExceeded, IllegalMove
from .topology import FiniteSpace, clopen_topology, points_of

ALICE = "alice"
BOB = "bob"

STATE_CAP = 10**7
SUBSET_WIDTH_CAP = 13  # the most points a subset table spans; it holds about 4**width / 2 bits


@dataclass(frozen=True)
class GameSpec:
    """A selection game; only the builders (`make_*`) read a finite space."""

    menus: MenuFamily
    negated: bool
    horizon: int

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")

    def bob_wins(self, covered: int) -> bool:
        """Outcome of a finished play whose selections cover `covered`."""
        return (covered == self.menus.full) != self.negated


@dataclass(frozen=True)
class Strategy:
    """A positional decision table, keyed on (covered mask, rounds left),
    this round included. Moves: Alice -> menu index, Bob -> a tuple with his
    member mask for each menu, in menu order. Readers ask for the whole move
    at a game-tree node with `move_at`. A witness table is shared by every
    solve of its game (`solve`): read it, never mutate it.
    """

    player: str
    table: dict = field(hash=False)

    def move_at(self, covered: int, left: int):
        """The stored move with `covered` covered and `left` rounds left:
        Alice's menu index, or Bob's pick from each menu, in menu order.
        Raises IllegalMove, naming the context as a strategy file writes it,
        where the table has no move; whether a move is legal is for the
        caller to check."""
        move = self.table.get((covered, left))
        if move is None:
            raise IllegalMove([points_of(covered), left])
        return move


@dataclass(frozen=True)
class Verdict:
    winner: str
    witness: Optional[Strategy]  # positional; None only from solve(..., want_witness=False)
    horizon: int
    # the positions this call added to the shared solver's memo (0 when the
    # memo already held all it read)
    stats: int


@dataclass(frozen=True)
class Transcript:
    rounds: tuple[tuple[int, int], ...]  # (alice menu index, bob mask)
    outcome: str


# ---------------------------------------------------------------------------
# game constructors


def make_rothberger(space: FiniteSpace, horizon: int) -> GameSpec:
    """Alice plays open covers, Bob selects members, Bob wins iff they cover."""
    return GameSpec(cover_menu_family(space), False, horizon)


def make_mildly_rothberger(space: FiniteSpace, horizon: int) -> GameSpec:
    """Clopen-cover variant: the Rothberger game of the clopen topology."""
    return make_rothberger(clopen_topology(space), horizon)


def make_point_open(space: FiniteSpace, horizon: int) -> GameSpec:
    """Alice names points, Bob answers open neighborhoods; Alice wins iff
    the answers cover."""
    return GameSpec(point_base_family(space), True, horizon)


def make_point_clopen(space: FiniteSpace, horizon: int) -> GameSpec:
    """Alice names points, Bob answers clopen neighborhoods; Alice wins iff
    the answers cover: the point-open game of the clopen topology."""
    return make_point_open(clopen_topology(space), horizon)


def make_quasi_component_clopen(space: FiniteSpace, horizon: int) -> GameSpec:
    """Alice names quasi-components, Bob answers clopen supersets; Alice
    wins iff the answers cover."""
    return GameSpec(quasi_component_family(clopen_topology(space)), True, horizon)


GAME_BUILDERS: dict[str, Callable[[FiniteSpace, int], GameSpec]] = {
    "rothberger": make_rothberger,
    "mildly-rothberger": make_mildly_rothberger,
    "point-open": make_point_open,
    "point-clopen": make_point_clopen,
    "quasi-component-clopen": make_quasi_component_clopen,
}


# ---------------------------------------------------------------------------
# abstract-state solver


class Solver:
    """Memoized game value of (covered mask, rounds left) under optimal play.

    The value does not depend on the game's horizon, only on its menus, its
    full mask and its target, so one solver answers every horizon. The memo
    holds whether Bob wins at each finished position, never more than
    STATE_CAP of them, so a CapExceeded leaves the solver correct.
    `witnesses` holds each finished witness walk of a game that cuts to it.
    """

    def __init__(self, menus: tuple, full: int, negated: bool):
        self.memo: dict = {}
        self.witnesses: dict = {}  # (full-family menus, horizon) -> Strategy
        self.menus = menus
        self.full = full
        # the winner of a play whose covered mask is full, and of a
        # finished play whose mask is not (GameSpec.bob_wins, inlined)
        self.full_winner, self.short_winner = (ALICE, BOB) if negated else (BOB, ALICE)

    def value(self, covered: int, left: int) -> str:
        full = self.full
        # the covered mask can only grow, so a full one decides the play
        if covered == full:
            return self.full_winner
        if left <= 0 or not self.menus:
            return self.short_winner
        memo = self.memo
        key = (covered, left)
        bob = memo.get(key)
        if bob is None:
            value = self.value
            left -= 1
            # children that are finished plays are decided here, without a call
            full_bob = self.full_winner == BOB
            last_bob = not full_bob if left <= 0 else None
            bob = True  # until Alice has a menu all of whose children she wins
            for menu in self.menus:
                for b in menu:
                    child = covered | b
                    if child == full:
                        won = full_bob
                    elif last_bob is not None:
                        won = last_bob
                    else:
                        hit = memo.get((child, left))
                        won = value(child, left) == BOB if hit is None else hit
                    if won:
                        break
                else:
                    bob = False
                    break
            if len(memo) >= STATE_CAP:
                raise CapExceeded(f"solver state cap {STATE_CAP} exceeded")
            memo[key] = bob
        return BOB if bob else ALICE


def solve(game: GameSpec, want_witness: bool = True) -> Verdict:
    """Exact game value under optimal play, with the winner's positional
    witness strategy: the least move of `_least_move` at every node the
    winner's play reaches. The shared solver of the dominant menus
    (`_cut_solver`) gives the winner and every child value, and keeps the
    witness once its walk finishes; a later solve of the game returns
    that same table, and adds nothing to the memo."""
    solver = _cut_solver(game)
    before = len(solver.memo)
    winner = solver.value(0, game.horizon)
    witness = None
    if want_witness:
        key = (game.menus.menus, game.horizon)
        witness = solver.witnesses.get(key)
        if witness is None:
            choose = partial(_least_move, solver.value, game.menus.menus, winner == ALICE)
            witness = solver.witnesses[key] = walk_positions(game, winner, choose)
    return Verdict(winner, witness, game.horizon, len(solver.memo) - before)


def _least_move(value: Callable, menus: tuple, alice: bool, covered: int, left: int):
    """The least winning move with `covered` covered and `left` rounds left,
    this one included, where value(covered, left) names each child's winner:
    Alice's first menu all of whose children she wins, else 0; or Bob's
    first member of each menu whose child he wins, else the menu's first
    member, in menu order. At a full mask that is the first move."""
    left -= 1
    picks = []
    for mi, menu in enumerate(menus):
        for b in menu:
            if value(covered | b, left) == BOB:
                picks.append(b)
                break
        else:
            # no child of this menu is Bob's: it is Alice's winning move
            if alice:
                return mi
            picks.append(menu[0])
    return 0 if alice else tuple(picks)


def winners(game: GameSpec) -> list[str]:
    """The winner at each horizon 0..game.horizon, from the shared solver
    of the dominant menus."""
    solver = _cut_solver(game)
    return [solver.value(0, k) for k in range(game.horizon + 1)]


def _cut_solver(game: GameSpec) -> Solver:
    """The solver that every solve of the game's dominant menus, full mask
    and target shares, whatever its horizon or caller.

    The cut is kept on the menu family, one per target, so a family's menus
    are cut, and hashed for the `_dominant_menus` cache, only once. Only
    the cut is kept there, so `_winner_solver.cache_clear()` still gives a
    cold solver."""
    negated = game.negated
    cuts = game.menus.cuts
    cut = cuts.get(negated)
    if cut is None:
        cut = cuts[negated] = _dominant_menus(game.menus.menus, negated)
    return _winner_solver(cut, game.menus.full, negated)


@lru_cache(maxsize=None)
def _winner_solver(menus: tuple, full: int, negated: bool) -> Solver:
    return Solver(menus, full, negated)


@lru_cache(maxsize=None)
def _subsets(width: int) -> tuple:
    """Bit g of _subsets(width)[b] is set iff g is a subset of b, for every
    mask b of `width` bits; CapExceeded, before anything is built, past
    SUBSET_WIDTH_CAP bits."""
    if width > SUBSET_WIDTH_CAP:
        raise CapExceeded(f"subset table width {width} exceeds the cap of {SUBSET_WIDTH_CAP} points")
    below = [1]
    for b in range(1, 1 << width):
        low = b & -b
        # a subset of b omits its lowest point, or is such a subset plus it
        below.append(below[b ^ low] | below[b ^ low] << low)
    return tuple(below)


@lru_cache(maxsize=None)
def _dominant_menus(menus: tuple, negated: bool) -> tuple:
    """The menus a solve's values need, in menu order.

    A menu is dropped when another beats it strictly for Alice: when the
    down-closure of its members (of their complements, when negated)
    strictly contains the other's. Of menus with equal down-closures the
    first is kept. A kept menu keeps the members no other member beats for
    Bob: the maximal ones, or the minimal ones when negated.

    One scan runs from the last menu to the first, since in cover order
    the finer covers, which beat the rest, come last. It tests each menu's
    down-closure (one `_subsets` lookup per member) against the menus kept
    so far, and an earlier menu equal to a kept one replaces it. Only the
    menus kept at the end have their top members found.
    """
    width = max(map(max, menus), default=0).bit_length()
    # complements reverse inclusion, so a negated target is a cover target
    # on the complemented members
    flip = (1 << width) - 1 if negated else 0
    below = _subsets(width)
    kept: list = []  # (down-closure, menu), latest menu first
    for menu in reversed(menus):
        reach = 0
        for b in menu:
            reach |= below[b ^ flip]
        for k, _ in kept:
            if not k & ~reach and k != reach:
                break  # a kept menu strictly beats this one for Alice
        else:
            # drop the kept menus this one beats or equals
            kept = [(k, m) for k, m in kept if reach & ~k]
            kept.append((reach, menu))
    return tuple(top for top, _, _ in _menu_tops([menu for _, menu in reversed(kept)], flip, below))


def _menu_tops(menus: tuple, flip: int, below: tuple) -> list:
    """For each menu: the members whose XOR with `flip` no other member's
    strictly contains, in menu order; the bitset of those flipped members;
    and its down-closure. Menu A is at least as good for Alice as menu B
    when A's bitset lies inside B's down-closure."""
    out = []
    for menu in menus:
        strict = 0  # bitset of the flipped masks strictly inside some member
        for b in menu:
            f = b ^ flip
            strict |= below[f] ^ (1 << f)
        top = tuple(b for b in menu if not strict >> (b ^ flip) & 1)
        bits = 0
        for b in top:
            bits |= 1 << (b ^ flip)
        out.append((top, bits, strict | bits))
    return out


def walk_positions(game: GameSpec, player: str, choose: Callable) -> Strategy:
    """The positional table of `player`, built round by round over the
    covered masks the opponent can reach, one node per mask.

    choose(covered, left) is called once per node, with `left` rounds left,
    this round included. For Alice it returns a menu index; for Bob it
    returns his pick from each menu, in menu order. Each round visits its
    masks in the order in which the nodes of the round before first reach
    them, so the first missing entry that a translation's `choose` meets
    does not vary from run to run.
    """
    menus = game.menus.menus
    alice = player == ALICE
    table: dict = {}
    masks = [0]  # the covered masks of the current round, in first-met order
    for left in range(game.horizon if menus else 0, 0, -1):
        nxt: dict = {}
        for covered in masks:
            move = table[(covered, left)] = choose(covered, left)
            if left > 1:
                for b in menus[move] if alice else move:
                    nxt[covered | b] = None
        masks = nxt
    return Strategy(player, table)


# ---------------------------------------------------------------------------
# restricted strategy classes


@lru_cache(maxsize=None)
def _committed_search(
    menus: tuple, full: int, negated: bool, player: str
) -> Callable[[int], Optional[list]]:
    """The knowledge-set search of `player` committing to one move per
    round, blind to the opponent's replies, against an opponent with full
    information. Returns a function from a horizon to the winning move of
    each round, or to None when there is no winning commitment.

    Alice's moves are menu indices; Bob's are choice vectors, one best
    member of every menu; more than DEFAULT_CAP of them raise CapExceeded
    before a memo exists. A knowledge set is the bitset of the covered
    masks the opponent can reach, and the player wins when every final
    mask is a win for them. `wins` is memoized on (knowledge set, rounds
    left), so one search answers every horizon, and every caller that asks
    about the same menu family shares it. `commit` is cached per horizon,
    so it returns one list per horizon, and a raised cap caches nothing.
    """
    alice = player == ALICE
    goal = not alice  # the committing player wins when bob_wins(final) == goal
    n = full.bit_length()
    # the opponent's goal is monotone in the covered mask (antitone when
    # negated), so only the reachable masks best for them matter: the
    # maximal ones, or the minimal ones, which are maximal once complemented.
    # A knowledge set holds each mask XOR flip.
    flip = 0 if goal == negated else full
    below = _subsets(n)
    # bit[x]: the bitset holding x ^ flip; under[x]: those strictly inside x ^ flip
    bit = [1 << (x ^ flip) for x in range(1 << n)]
    under = [below[x ^ flip] ^ bit[x] for x in range(1 << n)]
    bad = 0  # the final masks the committing player loses
    for x in range(full + 1):
        if ((x == full) != negated) != goal:
            bad |= bit[x]
    # each menu's members that no other member of it beats for Bob: the
    # maximal ones, or the minimal ones when negated
    tops = _menu_tops(menus, full if negated else 0, below)
    if alice:
        # drop each menu an earlier menu beats or equals for Alice; her first
        # winning move stays that of the full family
        kept: list = []  # (menu index, members kept, their bitset)
        for mi, (top, bits, reach) in enumerate(tops):
            if all(k_bits & ~reach for _, _, k_bits in kept):
                kept.append((mi, top, bits))
        moves = tuple((mi, top) for mi, top, _ in kept)
    else:
        best = [top for top, _, _ in tops]
        if math.prod(map(len, best)) > DEFAULT_CAP:
            raise CapExceeded(f"more than {DEFAULT_CAP} Markov choice vectors per round")
    name = "predetermined-Alice" if alice else "Markov-Bob"
    memo: dict = {}

    def wins(states: int, left: int):
        # (winning move, next knowledge set) with `left` rounds to play, or None
        key = (states, left)
        if key in memo:
            return memo[key]
        masks = []
        rest = states
        while rest:
            low = rest & -rest
            masks.append((low.bit_length() - 1) ^ flip)
            rest ^= low
        result = None
        for move, members in moves if alice else ((v, v) for v in itertools.product(*best)):
            reach = strict = 0
            for s in masks:
                for b in members:
                    x = s | b
                    reach |= bit[x]
                    strict |= under[x]
            nxt = reach & ~strict
            if not nxt & bad if left == 1 else wins(nxt, left - 1) is not None:
                result = (move, nxt)
                break
        if len(memo) >= STATE_CAP:
            raise CapExceeded(f"{name} knowledge-set search state cap {STATE_CAP} exceeded")
        memo[key] = result
        return result

    @lru_cache(maxsize=None)
    def commit(horizon: int) -> Optional[list]:
        if horizon == 0 or not menus:
            return None if bad & bit[0] else []
        # unroll the recorded choices into the move list
        seq = []
        states = bit[0]
        for left in range(horizon, 0, -1):
            found = wins(states, left)
            if found is None:
                return None
            move, states = found
            seq.append(move)
        return seq

    return commit


def predetermined_alice_search(game: GameSpec) -> Optional[list]:
    """Alice's winning menu index for each round, committed to in advance,
    or None when she has none. Bob plays with full information against the
    fixed menu list."""
    return _committed_search(game.menus.menus, game.menus.full, game.negated, ALICE)(game.horizon)


def markov_bob_search(game: GameSpec) -> Optional[list]:
    """Bob's winning pick from each menu, in menu order, for each round, or
    None when he has none: his move looks only at Alice's current menu and
    the round. Alice plays with full information against the committed
    picks. A cover target is decided in closed form (`_good_split`)."""
    menus = game.menus.menus
    if game.horizon == 0 or not menus:
        return [] if game.bob_wins(0) else None
    if game.negated:
        return _committed_search(menus, game.menus.full, True, BOB)(game.horizon)
    groups = _good_split(menus, game.menus.full)
    if groups is None or len(groups) > game.horizon:
        return None
    # round i picks, from each menu, its first member containing G_i
    groups += (0,) * (game.horizon - len(groups))
    return [tuple(next(b for b in menu if b & g == g) for menu in menus) for g in groups]


@lru_cache(maxsize=None)
def _good_split(menus: tuple, full: int) -> Optional[tuple]:
    """The fewest good groups G_i that partition `full`, or None.

    Against a table b, Alice keeps a point x uncovered iff in every round
    some menu's pick misses x. So Bob wins iff the groups G_i = the
    intersection over menus m of b(m, i) cover the space. Each G_i is good:
    every menu has a member containing it. Conversely, good groups that
    cover the space give a table. Good sets are closed under subsets, so
    Bob wins at horizon k iff the points split into at most k good groups.
    """
    # bitsets over masks: bit g of below[b] is set iff g is a subset of b,
    # and bit g of good iff every menu has a member containing g
    below = _subsets(full.bit_length())
    good = -1
    for menu in menus:
        reach = 0
        for b in menu:
            reach |= below[b]
        good &= reach
    memo: dict = {0: ()}

    def split(mask: int) -> Optional[tuple]:
        # fewest good groups that partition mask, the group holding its
        # lowest point first; None when no partition exists
        if mask not in memo:
            best = None
            if good >> mask & 1:
                best = (mask,)
            else:
                low = mask & -mask
                rest = sub = mask ^ low
                while sub:
                    sub = (sub - 1) & rest
                    g = sub | low  # a proper subset of mask holding its lowest point
                    if good >> g & 1:
                        tail = split(mask ^ g)
                        if tail is not None and (best is None or len(tail) + 1 < len(best)):
                            best = (g,) + tail
            memo[mask] = best
        return memo[mask]

    return split(full)


# ---------------------------------------------------------------------------
# verification


def verify_winning(game: GameSpec, s: Strategy) -> bool:
    """Play s against every legal opponent line, round by round.

    A strategy moves on the covered mask and the rounds left alone, so the
    frontier holds the distinct covered masks of the current round that
    are not full; a full mask decides the play, so no move is read there.
    Each node's entry is read once. A missing entry, an out-of-range menu,
    a Bob tuple shorter than the menus or a pick off its menu loses; picks
    past the last menu are ignored. Raises CapExceeded once more than
    STATE_CAP nodes are visited.
    """
    menus = game.menus.menus
    full = game.menus.full
    table = s.table
    alice = s.player == ALICE
    # s wins a play that reaches a full mask iff this holds, and a finished
    # play short of one iff it does not
    wins_full = (not alice) != game.negated
    if not full:  # the empty space: the empty play covers it
        return wins_full
    masks = [0]  # the covered masks of the current round, in first-met order
    visited = 0
    for left in range(game.horizon if menus else 0, 0, -1):
        visited += len(masks)
        if visited > STATE_CAP:
            raise CapExceeded(
                f"verification of {s.player}'s positional strategy: state cap {STATE_CAP} exceeded"
            )
        nxt: dict = {}
        for covered in masks:
            move = table.get((covered, left))
            if move is None:
                return False
            if alice:
                if not 0 <= move < len(menus):
                    return False
                picks = menus[move]
            else:
                picks = move[: len(menus)]
                if len(picks) < len(menus) or any(b not in menu for b, menu in zip(picks, menus)):
                    return False
            for b in picks:
                child = covered | b
                if child == full:
                    if not wins_full:
                        return False
                else:
                    nxt[child] = None
        masks = nxt
    # the plays left are finished short of a full mask
    return not masks or not wins_full


def optimal_move(game: GameSpec, covered: int, left: int, menu_index: Optional[int] = None):
    """Alice's least winning menu index, or with menu_index set Bob's least
    winning member of that menu, in the full family; the least legal move
    when none wins. The rule and the child values are those of a witness
    (`_least_move` over the shared solver, `_cut_solver`)."""
    value = _cut_solver(game).value
    if menu_index is None:
        return _least_move(value, game.menus.menus, True, covered, left)
    return _least_move(value, (game.menus.menus[menu_index],), False, covered, left)[0]
