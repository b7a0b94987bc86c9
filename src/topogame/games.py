"""Bounded-horizon selection games and their exact solvers.

A game round: Alice picks one menu from the menu family (her move is the
menu's index), Bob picks one member of that menu (his move is the member's
bitmask). After `horizon` rounds Bob wins when his selections cover the
space; with `negated` set, Bob wins exactly when they fail to cover it.

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
the restricted searches and `verify_winning` use the full family, so move
indices and witness tables are those of the full family.

A witness is positional (class POS): the winner's least optimal move at
each (covered mask, rounds left) the winner's play can reach against every
line of the loser. Alice's move there is a menu index; Bob's is his pick
from each menu, in menu order. An n-point game of horizon k has at most
2^n * k such positions, so no witness is ever skipped. Extraction reads
each child's value from the solver's memo and never asks the solver
again. At a position the winner's play reaches, the solver's own loop has
already looked at exactly the children the least-optimal-move scan reads,
in the same order and with the same short-circuit: Alice's menus up to
the first whose members all lead to positions she wins, or, at a position
Bob wins, every menu up to its first member leading to a position he
wins. So each such child is memoized, or decided without the memo by a
full mask or by no rounds left. Extraction adds no memo entry, so
`stats` counts the positions the value search explored.

There are three strategy classes: positional, predetermined Alice and
Markov Bob. Each moves on the covered mask, the round and Alice's current
menu alone, and no reader keeps a history of moves. Every reader
(verification, translation, tree extraction) asks a strategy of any class
for its move at a node through `Strategy.move_at`. `walk_positions`
builds a positional table round by round from a `choose` callback that
gives each node's move, with one node per covered mask: the witnesses,
and the translation of a positional strategy. No class is keyed on a
history, so no table grows with the number of lines of play.

Restricted strategy classes (each search returns its PRE or MARKOV
witness, or None when the class has no win):
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

MARKOV = "markov"
PRE = "pre"
POS = "positional"

STATE_CAP = 10**7


@dataclass(frozen=True)
class GameSpec:
    space: FiniteSpace
    menus: MenuFamily
    negated: bool
    horizon: int

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")

    def bob_wins(self, covered: int) -> bool:
        """Outcome of a finished play whose selections cover `covered`."""
        return (covered == self.space.full) != self.negated


@dataclass(frozen=True)
class Strategy:
    """A finite decision table.

    Context keys by class:
      Alice pre:   round number
      Bob markov:  (Alice's current move, round number)
      positional:  (covered mask, rounds left), this round included
    Moves: Alice -> menu index, Bob -> member mask; a positional Bob's move
    is a tuple with his member mask for each menu, in menu order. Readers
    ask for a move at a game-tree node with `move_at`, whatever the class.
    """

    player: str
    klass: str
    table: dict = field(hash=False)

    def move_at(self, covered: int, rnd: int, horizon: int, menu: int = 0):
        """Alice's menu index, or Bob's member of Alice's menu `menu`, in
        round `rnd` of the game of this horizon, with `covered` covered so
        far. Alice's lookups ignore `menu`. Raises IllegalMove where the
        table has no move; whether a move is legal is for the caller to
        check."""
        klass = self.klass
        if klass == POS:
            key = (covered, horizon - rnd)
            move = self.table.get(key)
            if move is not None and self.player == BOB:
                move = move[menu] if menu < len(move) else None
        else:
            key = rnd if klass == PRE else (menu, rnd)
            move = self.table.get(key)
        if move is None:
            raise IllegalMove(self._file_context(key))
        return move

    def _file_context(self, key):
        """A table key as a strategy file writes its context."""
        if self.klass == POS:
            return [points_of(key[0]), key[1]]
        return key if self.klass == PRE else list(key)


@dataclass(frozen=True)
class Verdict:
    winner: str
    witness: Optional[Strategy]  # positional; None only from solve(..., want_witness=False)
    horizon: int
    # explored abstract states; a solve without a witness counts the states
    # of the game cut to its dominant menus
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
        space=space,
        menus=cover_menu_family(space, "open"),
        negated=False,
        horizon=horizon,
    )


def make_mildly_rothberger(space: FiniteSpace, horizon: int) -> GameSpec:
    """Clopen-cover variant of the Rothberger game."""
    return GameSpec(
        space=space,
        menus=cover_menu_family(space, "clopen"),
        negated=False,
        horizon=horizon,
    )


def make_point_open(space: FiniteSpace, horizon: int) -> GameSpec:
    """Alice names points, Bob answers open neighborhoods; Alice wins iff
    the answers cover."""
    return GameSpec(
        space=space,
        menus=point_base_family(space, "open"),
        negated=True,
        horizon=horizon,
    )


def make_point_clopen(space: FiniteSpace, horizon: int) -> GameSpec:
    """Alice names points, Bob answers clopen neighborhoods; Alice wins iff
    the answers cover."""
    return GameSpec(
        space=space,
        menus=point_base_family(space, "clopen"),
        negated=True,
        horizon=horizon,
    )


def make_quasi_component_clopen(space: FiniteSpace, horizon: int) -> GameSpec:
    """Alice names quasi-components, Bob answers clopen supersets; Alice
    wins iff the answers cover."""
    return GameSpec(
        space=space,
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


def saturating_horizon(space: FiniteSpace) -> int:
    """Horizon beyond which the winner of a cover game cannot change: a
    cover of an n-point space never needs more than n sets."""
    return space.n


# ---------------------------------------------------------------------------
# abstract-state solver


class Solver:
    """Memoized game value of (covered mask, rounds left) under optimal play.

    The value does not depend on the game's horizon, only on its menus and
    its target, so one solver answers every horizon.
    """

    def __init__(self, game: GameSpec, menus: tuple):
        self.memo: dict = {}
        self.menus = menus
        self.full = game.space.full
        # the winner of a play whose covered mask is full, and of a
        # finished play whose mask is not (GameSpec.bob_wins, inlined)
        self.full_winner, self.short_winner = (ALICE, BOB) if game.negated else (BOB, ALICE)

    def value(self, covered: int, left: int) -> str:
        full = self.full
        # the covered mask can only grow, so a full one decides the play
        if covered == full:
            return self.full_winner
        if left <= 0 or not self.menus:
            return self.short_winner
        memo = self.memo
        key = (covered, left)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if len(memo) > STATE_CAP:
            raise CapExceeded(f"solver state cap {STATE_CAP} exceeded")
        value = self.value
        full_winner = self.full_winner
        left -= 1
        # children that are finished plays are decided here, without a call
        last_winner = self.short_winner if left <= 0 else None
        result = BOB
        for menu in self.menus:
            for b in menu:
                child = covered | b
                if child == full:
                    v = full_winner
                else:
                    v = last_winner or memo.get((child, left)) or value(child, left)
                if v == BOB:
                    break
            else:
                result = ALICE
                break
        memo[key] = result
        return result


def solve(game: GameSpec, want_witness: bool = True) -> Verdict:
    """Exact game value under optimal play, with the winner's positional
    witness strategy. Without a witness only the dominant menus are
    searched."""
    menus = game.menus.menus
    if not want_witness:
        menus = _dominant_menus(menus, game.negated)
    solver = Solver(game, menus)
    winner = solver.value(0, game.horizon)
    witness = _extract_witness(game, solver, winner) if want_witness else None
    return Verdict(winner=winner, witness=witness, horizon=game.horizon, stats=len(solver.memo))


def winners(game: GameSpec) -> list[str]:
    """The winner at each horizon 0..game.horizon, from one solver over the
    dominant menus."""
    solver = Solver(game, _dominant_menus(game.menus.menus, game.negated))
    return [solver.value(0, k) for k in range(game.horizon + 1)]


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
    width = max((b.bit_length() for menu in menus for b in menu), default=0)
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
    """Positional table for the winner: the least optimal move at every
    (covered mask, rounds left) reached round by round over every legal
    line of the loser.

    Each child's value is read from `solver.memo`; a full child goes to
    `full_winner` and a child with no rounds left to `short_winner`, as in
    `Solver.value`. The solver's loop at a reached position read exactly
    the children read here, in this order and with this short-circuit, so
    every one of them is memoized (see the module docstring)."""
    menus = game.menus.menus
    horizon = game.horizon
    memo = solver.memo
    full, full_winner, short_winner = solver.full, solver.full_winner, solver.short_winner

    def bob_takes(covered: int, menu: tuple, left: int):
        # the first member of menu whose child Bob wins, else None
        for b in menu:
            child = covered | b
            if child == full:
                if full_winner == BOB:
                    return b
            elif (short_winner if left <= 0 else memo[(child, left)]) == BOB:
                return b
        return None

    if winner == ALICE:

        def choose(covered: int, rnd: int) -> int:
            left = horizon - rnd - 1  # rounds left after this one
            for mi, menu in enumerate(menus):
                if bob_takes(covered, menu, left) is None:
                    return mi
    else:

        def choose(covered: int, rnd: int) -> tuple:
            left = horizon - rnd - 1
            return tuple(bob_takes(covered, menu, left) for menu in menus)

    return walk_positions(game, winner, choose)


def walk_positions(game: GameSpec, player: str, choose: Callable) -> Strategy:
    """The positional table of `player`, built round by round over the
    covered masks the opponent can reach, one node per mask.

    choose(covered, rnd) is called once per node. For Alice it returns a
    menu index; for Bob it returns his pick from each menu, in menu order.
    Each round visits its masks in the order in which the nodes of the
    round before first reach them, so the first missing entry that a
    translation's `choose` meets does not vary from run to run.
    """
    menus = game.menus.menus
    alice = player == ALICE
    horizon = game.horizon
    table: dict = {}
    masks = [0]  # the covered masks of the current round, in first-met order
    for rnd in range(horizon if menus else 0):
        left = horizon - rnd
        nxt: dict = {}
        for covered in masks:
            move = table[(covered, left)] = choose(covered, rnd)
            if left > 1:
                for b in menus[move] if alice else move:
                    nxt[covered | b] = None
        masks = nxt
    return Strategy(player=player, klass=POS, table=table)


# ---------------------------------------------------------------------------
# restricted strategy classes


@lru_cache(maxsize=None)
def _committed_search(
    menus: tuple, n: int, negated: bool, player: str
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
    full = (1 << n) - 1
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
        if len(memo) > STATE_CAP:
            raise CapExceeded(f"{name} knowledge-set search state cap {STATE_CAP} exceeded")
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


def predetermined_alice_search(game: GameSpec) -> Optional[Strategy]:
    """Alice's winning strategy that only looks at the round number, or
    None when she has none. Bob plays with full information against the
    fixed menu list."""
    seq = _committed_search(game.menus.menus, game.space.n, game.negated, ALICE)(game.horizon)
    return None if seq is None else Strategy(player=ALICE, klass=PRE, table=dict(enumerate(seq)))


def markov_bob_search(game: GameSpec) -> Optional[Strategy]:
    """Bob's winning strategy that only looks at Alice's current move and
    the round number, or None when he has none. Alice plays with full
    information against the committed table, which maps (menu index,
    round) to a member."""
    if game.horizon == 0 or not game.menus.menus:
        return Strategy(player=BOB, klass=MARKOV, table={}) if game.bob_wins(0) else None
    if not game.negated:
        return _markov_bob_cover(game)
    vectors = math.prod(len(menu) for menu in _minimal_members(game.menus.menus))
    if vectors > DEFAULT_CAP:
        raise CapExceeded(f"more than {DEFAULT_CAP} Markov choice vectors per round")
    # a round's move is a choice vector: one member of every menu
    seq = _committed_search(game.menus.menus, game.space.n, True, BOB)(game.horizon)
    if seq is None:
        return None
    table = {(mi, rnd): b for rnd, vector in enumerate(seq) for mi, b in enumerate(vector)}
    return Strategy(player=BOB, klass=MARKOV, table=table)


@lru_cache(maxsize=None)
def _minimal_members(menus: tuple) -> tuple:
    """Each menu cut to its subset-minimal members, in menu order. Bob wants
    to avoid covering, and a smaller selection never helps Alice, so only
    these are worth committing to."""
    width = max((b.bit_length() for menu in menus for b in menu), default=0)
    return tuple(top for top, _, _ in _menu_tops(menus, (1 << width) - 1, _subsets(width)))


def _markov_bob_cover(game: GameSpec) -> Optional[Strategy]:
    """Markov Bob for a cover target, in closed form.

    Against a table b, Alice keeps a point x uncovered iff in every round
    some menu's pick misses x. So Bob wins iff the groups G_i = the
    intersection over menus m of b(m, i) cover the space. Each G_i is good:
    every menu has a member containing it. Conversely, good groups that
    cover the space give a table. Good sets are closed under subsets, so
    Bob wins at horizon k iff the points split into at most k good groups.
    """
    menus = game.menus.menus
    full = game.space.full
    # bitsets over masks: bit g of below[b] is set iff g is a subset of b,
    # and bit g of good iff every menu has a member containing g
    below = _subsets(game.space.n)
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
    table = {}
    for rnd in range(game.horizon):
        g = groups[rnd] if rnd < len(groups) else 0
        for mi, menu in enumerate(menus):
            table[(mi, rnd)] = next(b for b in menu if b & g == g)
    return Strategy(player=BOB, klass=MARKOV, table=table)


# ---------------------------------------------------------------------------
# verification


def verify_winning(game: GameSpec, s: Strategy) -> bool:
    """Play s against every legal opponent line, round by round.

    Every class moves on the covered mask, the round and Alice's current
    menu alone, so the frontier holds the distinct covered masks of the
    current round that are not full; a full mask decides the play, so no
    move is asked for there. A missing entry, an out-of-range menu or a
    pick off its menu loses. Raises CapExceeded once more than STATE_CAP
    nodes are visited.
    """
    menus = game.menus.menus
    full = game.space.full
    horizon = game.horizon
    move_at = s.move_at
    alice = s.player == ALICE
    # s wins a play that reaches a full mask iff this holds, and a finished
    # play short of one iff it does not
    wins_full = (not alice) != game.negated
    if not full:  # the empty space: the empty play covers it
        return wins_full
    masks = [0]  # the covered masks of the current round, in first-met order
    visited = 0
    try:
        for rnd in range(horizon if menus else 0):
            visited += len(masks)
            if visited > STATE_CAP:
                raise CapExceeded(
                    f"verification of {s.player}'s {s.klass} strategy: state cap {STATE_CAP} exceeded"
                )
            nxt: dict = {}
            for covered in masks:
                if alice:
                    mi = move_at(covered, rnd, horizon)
                    if not 0 <= mi < len(menus):
                        return False
                    picks = menus[mi]
                else:
                    picks = []
                    for mi, menu in enumerate(menus):
                        b = move_at(covered, rnd, horizon, mi)
                        if b not in menu:
                            return False
                        picks.append(b)
                for b in picks:
                    child = covered | b
                    if child == full:
                        if not wins_full:
                            return False
                    else:
                        nxt[child] = None
            masks = nxt
    except IllegalMove:  # the move asked for is missing, and s loses there
        return False
    # the plays left are finished short of a full mask
    return not masks or not wins_full


def optimal_move(solver: Solver, covered: int, left: int, menu_index: Optional[int] = None):
    """Best move for the player to act with `covered` covered and `left`
    rounds left, this one included.

    With menu_index None it is Alice's turn (returns a menu index);
    otherwise Bob answers from that menu (returns a mask). Prefers a
    winning move, least in move order; falls back to the least legal move.
    """
    menus = solver.menus
    if menu_index is None:
        for mi, menu in enumerate(menus):
            if all(solver.value(covered | b, left - 1) == ALICE for b in menu):
                return mi
        return 0
    menu = menus[menu_index]
    for b in menu:
        if solver.value(covered | b, left - 1) == BOB:
            return b
    return menu[0]

