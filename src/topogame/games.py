"""Bounded-horizon selection games and their exact solvers.

A game is a ground mask `full` (points 0..n-1), any family of its subsets
as menus, a target and a horizon. A round: Alice picks a menu (her move is
its index), Bob a member of it (his move is its bitmask). After `horizon`
rounds Bob wins iff his selections cover `full` (fail to, when `negated`).

The state of a play is the mask of points Bob's selections have covered.
The main solver does backward induction on (covered mask, rounds left). A
position's value does not depend on the horizon, so one solver answers
every horizon of a game (`winners`).

A solve that reports only the winner (`winners`, and `solve` without a
witness) searches the dominant menus (`_dominant_menus`). Bob's goal is
monotone in the covered mask (antitone when negated), and so, by induction
on the rounds left, is the value of every position. A member inside
another member of its menu (containing it, when negated) is therefore
never a better reply for Bob at any position, and a menu whose members
each lie inside (contain) a member of another menu is never a worse move
for Alice. Cutting both leaves the value of every position unchanged.
This is the finite form of refinement: on a finite space O cuts to the
cover by the maximal minimal neighbourhoods, C_O to the quasi-component
partition, and each point menu to its least member. Witnesses, `play`,
the restricted searches and `verify_winning` move in the full family, so
move indices and witness tables are those of the full family. The
winner-only solves and `play`'s child values share one solver per
dominant menus, full mask and target (`_cut_solver`), so every horizon,
caller and space with the same cut family reads one memo; the
point-clopen and quasi-component games of a finite space cut to the same
menus.

A witness is positional: the winner's least optimal move at each
(covered mask, rounds left) the winner's play can reach against every
line of the loser. Alice's move there is a menu index; Bob's is his pick
from each menu, in menu order. An n-point game of horizon k has at most
2^n * k such positions, so no witness is ever skipped. The value search
stores that move at every position it finishes, and extraction reads it
from the memo, so extraction adds no memo entry and `stats` counts the
positions the value search explored.

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
  Markov Bob, cover target: closed form. He wins at horizon k iff the
    points split into at most k groups, each inside a member of every menu.
  Markov Bob, negated target: the same knowledge-set search over choice
    vectors (one member per menu), with each menu first cut to its
    subset-minimal members.
There is one knowledge-set search per menu family, target and player
(`_committed_search`, cached). It is memoized on (knowledge set, rounds
left), so it answers every horizon, and every check that asks about the
same family shares it. Before it runs, Alice's menus lose each menu that
an earlier menu beats or equals for her, and each member that another
member of its menu beats for Bob. That keeps her first winning move: the
earlier menu is tried first at every knowledge set, so where it wins the
later one is never reached, and where it loses the later one loses too.
Her witnesses are therefore those of the full family. The dominant-menu
cut would not keep them, since it can drop an earlier menu for a later.
Verification is one round-by-round frontier walk that keeps one node
per covered mask.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

from .covers import (
    DEFAULT_CAP,
    MenuFamily,
    cover_menu_family,
    point_base_family,
    quasi_component_family,
)
from .errors import CapExceeded, IllegalMove
from .topology import FiniteSpace, points_of

ALICE = "alice"
BOB = "bob"

STATE_CAP = 10**7


@dataclass(frozen=True)
class GameSpec:
    """A selection game; only the builders (`make_*`) read a finite space."""

    full: int
    menus: MenuFamily
    negated: bool
    horizon: int

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.menus.union & ~self.full:
            raise ValueError("every menu member must lie inside the ground mask")

    def bob_wins(self, covered: int) -> bool:
        """Outcome of a finished play whose selections cover `covered`."""
        return (covered == self.full) != self.negated


@dataclass(frozen=True)
class Strategy:
    """A positional decision table, keyed on (covered mask, rounds left),
    this round included. Moves: Alice -> menu index, Bob -> a tuple with his
    member mask for each menu, in menu order. Readers ask for the whole move
    at a game-tree node with `move_at`.
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
    # the positions this call added to its solver's memo: all those a witness
    # solve explored; for a solve without one, those the shared solver of
    # the dominant menus did not hold yet (0 when its memo answers)
    stats: int


@dataclass(frozen=True)
class Transcript:
    rounds: tuple[tuple[int, int], ...]  # (alice menu index, bob mask)
    outcome: str


# ---------------------------------------------------------------------------
# game constructors


def make_rothberger(space: FiniteSpace, horizon: int) -> GameSpec:
    """Alice plays open covers, Bob selects members, Bob wins iff they cover."""
    return GameSpec(
        full=space.full,
        menus=cover_menu_family(space, "open"),
        negated=False,
        horizon=horizon,
    )


def make_mildly_rothberger(space: FiniteSpace, horizon: int) -> GameSpec:
    """Clopen-cover variant of the Rothberger game."""
    return GameSpec(
        full=space.full,
        menus=cover_menu_family(space, "clopen"),
        negated=False,
        horizon=horizon,
    )


def make_point_open(space: FiniteSpace, horizon: int) -> GameSpec:
    """Alice names points, Bob answers open neighborhoods; Alice wins iff
    the answers cover."""
    return GameSpec(
        full=space.full,
        menus=point_base_family(space, "open"),
        negated=True,
        horizon=horizon,
    )


def make_point_clopen(space: FiniteSpace, horizon: int) -> GameSpec:
    """Alice names points, Bob answers clopen neighborhoods; Alice wins iff
    the answers cover."""
    return GameSpec(
        full=space.full,
        menus=point_base_family(space, "clopen"),
        negated=True,
        horizon=horizon,
    )


def make_quasi_component_clopen(space: FiniteSpace, horizon: int) -> GameSpec:
    """Alice names quasi-components, Bob answers clopen supersets; Alice
    wins iff the answers cover."""
    return GameSpec(
        full=space.full,
        menus=quasi_component_family(space),
        negated=True,
        horizon=horizon,
    )


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
    holds the winner's least winning move at each finished position, never
    more than STATE_CAP of them, so a CapExceeded leaves the solver correct:
    Alice's first menu all of whose children she wins (an int), or Bob's
    first winning pick from each menu, in menu order (a tuple).
    """

    def __init__(self, menus: tuple, full: int, negated: bool):
        self.memo: dict = {}
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
        move = memo.get(key)
        if move is None:
            value = self.value
            left -= 1
            # children that are finished plays are decided here, without a call
            full_bob = self.full_winner == BOB
            last_bob = not full_bob if left <= 0 else None
            picks = []
            for mi, menu in enumerate(self.menus):
                for b in menu:
                    child = covered | b
                    if child == full:
                        bob = full_bob
                    elif last_bob is not None:
                        bob = last_bob
                    else:
                        hit = memo.get((child, left))
                        bob = value(child, left) == BOB if hit is None else type(hit) is tuple
                    if bob:
                        picks.append(b)
                        break
                else:
                    move = mi
                    break
            else:
                move = tuple(picks)
            if len(memo) >= STATE_CAP:
                raise CapExceeded(f"solver state cap {STATE_CAP} exceeded")
            memo[key] = move
        return BOB if type(move) is tuple else ALICE


def solve(game: GameSpec, want_witness: bool = True) -> Verdict:
    """Exact game value under optimal play, with the winner's positional
    witness strategy. Without a witness the shared solver of the dominant
    menus answers (`_cut_solver`)."""
    solver = Solver(game.menus.menus, game.full, game.negated) if want_witness else _cut_solver(game)
    before = len(solver.memo)
    winner = solver.value(0, game.horizon)
    witness = _extract_witness(game, solver, winner) if want_witness else None
    return Verdict(winner=winner, witness=witness, horizon=game.horizon, stats=len(solver.memo) - before)


def winners(game: GameSpec) -> list[str]:
    """The winner at each horizon 0..game.horizon, from the shared solver
    of the dominant menus."""
    solver = _cut_solver(game)
    return [solver.value(0, k) for k in range(game.horizon + 1)]


def _cut_solver(game: GameSpec) -> Solver:
    """The solver that every winner-only solve of the game's dominant menus,
    full mask and target shares, whatever its horizon or caller."""
    return _winner_solver(_dominant_menus(game.menus.menus, game.negated), game.full, game.negated)


@lru_cache(maxsize=None)
def _winner_solver(menus: tuple, full: int, negated: bool) -> Solver:
    return Solver(menus, full, negated)


@lru_cache(maxsize=None)
def _subsets(width: int) -> tuple:
    """Bit g of _subsets(width)[b] is set iff g is a subset of b, for every
    mask b of `width` bits."""
    below = [1]
    for b in range(1, 1 << width):
        low = b & -b
        # a subset of b omits its lowest point, or is such a subset plus it
        below.append(below[b ^ low] | below[b ^ low] << low)
    return tuple(below)


@lru_cache(maxsize=None)
def _dominant_menus(menus: tuple, negated: bool) -> tuple:
    """The menus a winner-only solve needs, in menu order.

    Each menu keeps the members no other member beats for Bob: the maximal
    ones, or the minimal ones when negated. A menu is then dropped when a
    kept menu beats it for Alice, that is, when every member of the kept
    menu lies inside (contains, when negated) a member of this one; of
    equal menus the first is kept.
    """
    width = max(map(max, menus), default=0).bit_length()
    # complements reverse inclusion, so a negated target is a cover target
    # on the complemented members
    flip = (1 << width) - 1 if negated else 0
    kept: list = []  # (members kept, their bitset over masks, its down-closure)
    for top, bits, reach in _menu_tops(menus, flip, _subsets(width)):
        if any(not k_bits & ~reach for _, k_bits, _ in kept):
            continue  # an earlier kept menu is at least as good for Alice
        # drop the kept menus this one beats (none of them equals it)
        kept = [k for k in kept if bits & ~k[2]]
        kept.append((top, bits, reach))
    return tuple(top for top, _, _ in kept)


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


def _extract_witness(game: GameSpec, solver: Solver, winner: str) -> Strategy:
    """Positional table for the winner: the least winning move at every
    (covered mask, rounds left) reached round by round over every legal
    line of the loser, as the value search stored it; at a full mask, which
    decides the play and is never stored, the first move."""
    memo, full = solver.memo, solver.full
    first = 0 if winner == ALICE else tuple(menu[0] for menu in game.menus.menus)
    return walk_positions(game, winner, lambda covered, left: first if covered == full else memo[(covered, left)])


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
    return Strategy(player=player, table=table)


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

    Alice's moves are menu indices; Bob's are choice vectors, one minimal
    member of every menu (`_minimal_members`). A knowledge set is the bitset
    of the covered masks the opponent can reach, and the player wins when
    every final mask is a win for them. `wins` is memoized on (knowledge
    set, rounds left), so one search answers every horizon, and every
    caller that asks about the same menu family shares it.
    """
    alice = player == ALICE
    goal = not alice  # the committing player wins when bob_wins(final) == goal
    n = full.bit_length()
    # the opponent's goal is monotone in the covered mask (antitone when
    # negated), so only the reachable masks best for them matter: the
    # maximal ones, or the minimal ones, which are maximal once complemented.
    # A knowledge set holds each mask XOR flip.
    flip = 0 if goal == negated else full
    bit, under = _flipped(n, flip)
    bad = 0  # the final masks the committing player loses
    for x in range(full + 1):
        if ((x == full) != negated) != goal:
            bad |= bit[x]
    if alice:
        # Drop each menu an earlier menu beats or equals for Alice, and each
        # member another member of its menu beats for Bob. The earlier menu
        # is tried first at every knowledge set: where it wins the later one
        # is never reached, and where it loses the later one loses too. So
        # the first winning move is that of the full family.
        kept: list = []  # (menu index, members kept, their bitset)
        for mi, (top, bits, reach) in enumerate(_menu_tops(menus, flip, _subsets(n))):
            if all(k_bits & ~reach for _, _, k_bits in kept):
                kept.append((mi, top, bits))
        moves = tuple((mi, top) for mi, top, _ in kept)
    else:
        minimal = _minimal_members(menus)
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
        for move, members in moves if alice else ((v, v) for v in itertools.product(*minimal)):
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


@lru_cache(maxsize=None)
def _flipped(n: int, flip: int) -> tuple:
    """For each n-bit mask x: the bitset holding x ^ flip, and the bitset of
    the masks strictly inside x ^ flip."""
    below = _subsets(n)
    bit = tuple(1 << (x ^ flip) for x in range(1 << n))
    return bit, tuple(below[x ^ flip] ^ bit[x] for x in range(1 << n))


def predetermined_alice_search(game: GameSpec) -> Optional[list]:
    """Alice's winning menu index for each round, committed to in advance,
    or None when she has none. Bob plays with full information against the
    fixed menu list."""
    return _committed_search(game.menus.menus, game.full, game.negated, ALICE)(game.horizon)


def markov_bob_search(game: GameSpec) -> Optional[list]:
    """Bob's winning pick from each menu, in menu order, for each round, or
    None when he has none: his move looks only at Alice's current menu and
    the round. Alice plays with full information against the committed
    picks."""
    if game.horizon == 0 or not game.menus.menus:
        return [] if game.bob_wins(0) else None
    if not game.negated:
        return _markov_bob_cover(game)
    vectors = math.prod(len(menu) for menu in _minimal_members(game.menus.menus))
    if vectors > DEFAULT_CAP:
        raise CapExceeded(f"more than {DEFAULT_CAP} Markov choice vectors per round")
    # a round's move is a choice vector: one member of every menu
    return _committed_search(game.menus.menus, game.full, True, BOB)(game.horizon)


@lru_cache(maxsize=None)
def _minimal_members(menus: tuple) -> tuple:
    """Each menu cut to its subset-minimal members, in menu order. Bob wants
    to avoid covering, and a smaller selection never helps Alice, so only
    these are worth committing to."""
    width = max(map(max, menus), default=0).bit_length()
    return tuple(top for top, _, _ in _menu_tops(menus, (1 << width) - 1, _subsets(width)))


def _markov_bob_cover(game: GameSpec) -> Optional[list]:
    """Markov Bob for a cover target, in closed form.

    Against a table b, Alice keeps a point x uncovered iff in every round
    some menu's pick misses x. So Bob wins iff the groups G_i = the
    intersection over menus m of b(m, i) cover the space. Each G_i is good:
    every menu has a member containing it. Conversely, good groups that
    cover the space give a table. Good sets are closed under subsets, so
    Bob wins at horizon k iff the points split into at most k good groups.
    """
    menus = game.menus.menus
    full = game.full
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

    groups = split(full)
    if groups is None or len(groups) > game.horizon:
        return None
    # round i picks, from each menu, its first member containing G_i
    groups += (0,) * (game.horizon - len(groups))
    return [tuple(next(b for b in menu if b & g == g) for menu in menus) for g in groups]


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
    full = game.full
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
    when none wins. Child values come from the shared solver (`_cut_solver`):
    the dominant menus give every position the full family's value."""
    value = _cut_solver(game).value
    menus = game.menus.menus
    left -= 1
    if menu_index is None:
        wins = (mi for mi, menu in enumerate(menus) if all(value(covered | b, left) == ALICE for b in menu))
        return next(wins, 0)
    menu = menus[menu_index]
    return next((b for b in menu if value(covered | b, left) == BOB), menu[0])
