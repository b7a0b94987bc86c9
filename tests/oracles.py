"""Independent brute-force oracles the implementation is checked against.

Each oracle deliberately takes a different computational route than the
production code. Production builds a topology from one minimal open
neighbourhood per point, pruned as it goes; the oracle brute-forces every
reflexive transitive relation and reads off its up-sets. Components come
from definitional split search rather than from quasi-components, and the
game value from an unabstracted history tree, and `playout` replays two
positional tables by its own keying (`reference_move`), not by
`Strategy.move_at`. `reference_committed_search` is the restricted
searches' knowledge-set search over frozensets, with no move cut.
`reference_verify` is verification as a depth-first recursion over the
game tree, memoized on (covered mask, round), where `verify_winning`
walks a frontier round by round. `reference_least_move` finds the
winner's least winning move at a position by its own recursion over the
children, to check the moves the solver stores.
Every strategy of the package is a positional table; the tests keep a
full-history table (`HistoryTable`) as the old form of every witness.
`unfold` builds one over every line of play, up to HISTORY_CAP entries,
and `history_view` unfolds a positional strategy into it.
`history_to_json` writes it as the package once wrote full-history
files, so the hashes pinned on those files still hold, and
`reference_extract` reads it to build the indexed tree that
`lab.extract_qs_tree` builds from positions. The restricted searches
return per-round moves: `per_round_table` walks them into a positional
table (as it walks `block_picks`, the block strategy's moves at any
horizon), and `restricted_to_json` writes them as the package once wrote
predetermined-Alice and Markov-Bob files, so the hash pinned on the
restricted witnesses still holds; the package reads and writes
positional files only.
`closed_form_verdict` gives every game's verdict on a finite space, in all
three strategy classes, from two counts read off the open sets, with no
search at all.
`random_alexandrov` samples spaces past the enumerated sizes;
`discrete_space`, `sierpinski_space` and `dump_space` build and write the
fixed spaces the tests use.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
from typing import Callable, Iterable, Optional

from topogame.covers import DEFAULT_CAP, Cover, MenuFamily
from topogame.errors import CapExceeded, IllegalMove
from topogame.games import GameSpec, Strategy, Transcript, walk_positions
from topogame.lab import ExtractionResult
from topogame.serialize import space_to_json
from topogame.topology import (
    FiniteSpace,
    clopen_algebra,
    full_mask,
    points_of,
    quasi_components,
    validate_topology,
)

HISTORY_CAP = 200_000  # max entries of a history table; unfold raises past it


def discrete_space(n: int) -> FiniteSpace:
    """All subsets open."""
    return FiniteSpace(n=n, opens=tuple(range(full_mask(n) + 1)))


def sierpinski_space() -> FiniteSpace:
    return FiniteSpace(n=2, opens=(0, 1, 3))


def dump_space(space: FiniteSpace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(space_to_json(space), fh)
        fh.write("\n")


def topologies_via_preorders(n: int) -> set[tuple[int, ...]]:
    """Labeled topologies as up-set families of reflexive transitive
    relations (the finite-space/preorder correspondence)."""
    if n == 0:
        return {(0,)}
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out: set[tuple[int, ...]] = set()
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        rel = {(i, i) for i in range(n)}
        rel |= {p for p, b in zip(pairs, bits) if b}
        if not _transitive(rel, n):
            continue
        opens = []
        for mask in range(full_mask(n) + 1):
            if _is_up_set(mask, rel, n):
                opens.append(mask)
        out.add(tuple(sorted(opens)))
    return out


def _transitive(rel: set, n: int) -> bool:
    return all(
        (i, k) in rel
        for i, j in rel
        for j2, k in rel
        if j == j2
    )


def _is_up_set(mask: int, rel: set, n: int) -> bool:
    for i in range(n):
        if mask & (1 << i):
            for j in range(n):
                if (i, j) in rel and not mask & (1 << j):
                    return False
    return True


def random_alexandrov(rng: random.Random, n: int) -> FiniteSpace:
    """Up-sets of a random preorder on n points; the density is drawn per
    space, so both sparse (many opens) and dense preorders occur."""
    p = rng.random() / 2
    up = [1 << x for x in range(n)]  # up[x]: the points above x
    for x in range(n):
        for y in range(n):
            if x != y and rng.random() < p:
                up[x] |= 1 << y
    for k in range(n):  # transitive closure (Warshall)
        for x in range(n):
            if up[x] >> k & 1:
                up[x] |= up[k]
    opens = [m for m in range(1 << n) if all(up[x] | m == m for x in range(n) if m >> x & 1)]
    return validate_topology(opens, n)


def is_connected_subset(space: FiniteSpace, s: int) -> bool:
    """No split of s into two nonempty disjoint relatively-open parts."""
    if s == 0:
        return True
    for u in space.opens:
        for v in space.opens:
            a, b = s & u, s & v
            if a and b and not a & b and (a | b) == s:
                return False
    return True


def components_by_split_search(space: FiniteSpace) -> list[int]:
    """Maximal connected subsets, straight from the definition."""
    conn = [s for s in range(1, space.full + 1) if is_connected_subset(space, s)]
    blocks = []
    for x in range(space.n):
        bit = 1 << x
        best = max((s for s in conn if s & bit), key=lambda s: bin(s).count("1"))
        if best not in blocks:
            blocks.append(best)
    return sorted(blocks, key=lambda b: b & -b)


def clopen_atoms(space: FiniteSpace) -> list[int]:
    """Minimal nonzero elements of the clopen algebra."""
    sets = [c for c in clopen_algebra(space).sets if c]
    atoms = [c for c in sets if not any(o and o != c and o & c == o for o in sets)]
    return sorted(atoms, key=lambda b: b & -b)


def zero_dimensional_by_definition(space: FiniteSpace) -> bool:
    """Every open set is a union of clopen sets."""
    clopens = clopen_algebra(space).sets
    for u in space.opens:
        acc = 0
        for c in clopens:
            if c & u == c:
                acc |= c
        if acc != u:
            return False
    return True


def _cover_pool(space: FiniteSpace, kind: str) -> list[int]:
    sets = space.opens if kind == "open" else clopen_algebra(space).sets
    return sorted(m for m in sets if m)


def all_covers(space: FiniteSpace, kind: str, cap: int = DEFAULT_CAP) -> list[Cover]:
    """All deduplicated covers of the given kind (exponential; keep n small)."""
    pool = _cover_pool(space, kind)
    if space.n == 0:
        return [Cover(members=())]
    found = []
    for r in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, r):
            if _union(combo) == space.full:
                found.append(combo)
                if len(found) > cap:
                    raise CapExceeded(f"more than {cap} covers")
    found.sort(key=lambda c: (len(c), c))
    return [Cover(members=c) for c in found]


def irredundant_covers_by_scan(space: FiniteSpace, kind: str) -> list[tuple[int, ...]]:
    """Irredundant covers by scanning every family of at most n members
    (each member of an irredundant cover owns a private point)."""
    if space.n == 0:
        return [()]
    pool = _cover_pool(space, kind)
    found = []
    for r in range(1, space.n + 1):
        for combo in itertools.combinations(pool, r):
            if _union(combo) == space.full and all(
                m & ~_union(combo[:i] + combo[i + 1 :]) for i, m in enumerate(combo)
            ):
                found.append(combo)
    return sorted(found, key=lambda c: (len(c), c))


def irredundant_covers_by_subset_test(space: FiniteSpace, kind: str) -> list[tuple[int, ...]]:
    """Irredundant covers filtered from all covers by the removability test."""
    covers = [c.members for c in all_covers(space, kind)]
    out = []
    for members in covers:
        if all(
            _union(m for j, m in enumerate(members) if j != i) != space.full
            for i in range(len(members))
        ):
            out.append(members)
    return sorted(out, key=lambda c: (len(c), c))


def choice_ranges(family: MenuFamily, cap: int = DEFAULT_CAP) -> set[frozenset[int]]:
    """Ranges of all choice functions: one selected member per menu."""
    size = 1
    for menu in family.menus:
        size *= len(menu)
        if size > cap:
            raise CapExceeded(f"more than {cap} choice functions")
    return {frozenset(pick) for pick in itertools.product(*family.menus)}


def _as_sets(family: Iterable) -> set[frozenset[int]]:
    return {frozenset(c.members if isinstance(c, Cover) else c) for c in family}


def is_selection_basis(candidate: Iterable, target: Iterable) -> bool:
    """Coinitial-under-subset check: candidate within target, and every
    target cover has a subset-cover in candidate."""
    cand = _as_sets(candidate)
    targ = _as_sets(target)
    return cand <= targ and all(any(x <= y for x in cand) for y in targ)


def is_reflection(family: MenuFamily, target: Iterable) -> bool:
    """True iff the choice-function ranges of the family form a selection
    basis for the target cover family."""
    return is_selection_basis(choice_ranges(family), target)


def _union(masks) -> int:
    acc = 0
    for m in masks:
        acc |= m
    return acc


def reversed_game(game: GameSpec) -> GameSpec:
    """The same game with the menus, and the members of each menu, in
    reverse order, so a solver tries every move in the opposite order."""
    menus = tuple(menu[::-1] for menu in game.menus.menus[::-1])
    return dataclasses.replace(game, menus=MenuFamily(menus=menus))


def reference_move(s: Strategy, alice_moves: tuple, covered: int, rnd: int, horizon: int):
    """The table entry `playout` reads for the positional strategy s:
    Alice's menu index, or Bob's member for the last of `alice_moves`, at
    the covered mask and the rounds left. Raises IllegalMove on a missing
    entry."""
    key = (covered, horizon - rnd)
    if key not in s.table:
        raise IllegalMove(key)
    move = s.table[key]
    return move[alice_moves[-1]] if s.player == "bob" else move


class OffMenuMove(ValueError):
    """`playout` met a menu index out of range, or a pick off its menu."""


def playout(game: GameSpec, alice: Strategy, bob: Strategy) -> Transcript:
    """Reference replay of two positional tables, one round at a time, each
    read through `reference_move`. Raises OffMenuMove on an illegal move."""
    menus = game.menus.menus
    rounds = []
    alice_moves: tuple = ()
    bob_moves: tuple = ()
    covered = 0
    for rnd in range(game.horizon if menus else 0):
        mi = reference_move(alice, alice_moves, covered, rnd, game.horizon)
        if not 0 <= mi < len(menus):
            raise OffMenuMove(f"menu {mi} out of range after {bob_moves}")
        alice_moves += (mi,)
        b = reference_move(bob, alice_moves, covered, rnd, game.horizon)
        if b not in menus[mi]:
            raise OffMenuMove(f"pick {b} off menu {mi} after {alice_moves}")
        bob_moves += (b,)
        covered |= b
        rounds.append((mi, b))
    return Transcript(rounds=tuple(rounds), outcome="bob" if game.bob_wins(covered) else "alice")


@dataclasses.dataclass(frozen=True)
class HistoryTable:
    """A full-history table: Alice's moves keyed by Bob's replies so far,
    Bob's by Alice's menus up to this round's."""

    player: str
    table: dict


def per_round_table(game: GameSpec, player: str, moves) -> Strategy:
    """The positional table of a strategy whose move depends on the round
    alone: moves[rnd] is Alice's menu index, or Bob's pick from each menu,
    in menu order."""
    return walk_positions(game, player, lambda covered, left: moves[game.horizon - left])


def block_picks(space: FiniteSpace, game: GameSpec) -> list:
    """The block strategy's per-round moves in the clopen cover game of
    `space`, at any horizon: in round i Bob takes, from each menu, its first
    member meeting quasi-component block i, or the last block once the
    blocks run out."""
    blocks = quasi_components(space).blocks
    return [
        tuple(next(b for b in menu if b & blocks[min(rnd, len(blocks) - 1)]) for menu in game.menus.menus)
        for rnd in range(game.horizon)
    ]


def unfold(game: GameSpec, player: str, choose: Callable) -> HistoryTable:
    """The full-history table of `player`, built round by round over every
    line of play to the horizon.

    choose(history, covered, rnd) is called once per node. For Alice it
    returns a menu index; for Bob it returns his pick from each menu, in
    menu order. Alice's table is keyed by Bob's replies so far, Bob's by
    Alice's menus up to this round's. Raises CapExceeded once the table
    passes HISTORY_CAP entries.
    """
    menus = game.menus.menus
    alice = player == "alice"
    table: dict = {}
    histories, masks = [()], [0]  # the nodes of the current round
    for rnd in range(game.horizon if menus else 0):
        next_histories, next_masks = [], []
        more = rnd + 1 < game.horizon  # whether the moves made now lead to further nodes
        for history, covered in zip(histories, masks):
            move = choose(history, covered, rnd)
            if alice:
                table[history] = move
                if more:
                    for b in menus[move]:
                        next_histories.append(history + (b,))
                        next_masks.append(covered | b)
            else:
                for mi, b in enumerate(move):
                    ctx = history + (mi,)
                    table[ctx] = b
                    if more:
                        next_histories.append(ctx)
                        next_masks.append(covered | b)
            if len(table) > HISTORY_CAP:
                raise CapExceeded(f"strategy table passed {HISTORY_CAP} entries")
        histories, masks = next_histories, next_masks
    return HistoryTable(player=player, table=table)


def history_view(game: GameSpec, s: Strategy) -> HistoryTable:
    """The full-history table that plays as the positional strategy s."""
    return unfold(game, s.player, lambda history, covered, rnd: s.table[(covered, game.horizon - rnd)])


def history_to_json(s: HistoryTable) -> dict:
    """A full-history table as a strategy file: shorter histories first,
    each length in key order; Alice's contexts list Bob's masks as point
    lists, Bob's list Alice's menu indices."""
    table = s.table
    contexts = sorted(table)
    contexts.sort(key=len)
    # one point list per distinct mask, shared between entries
    if s.player == "alice":
        pts = {m: points_of(m) for m in set().union(*table)}
        entries = [{"context": [pts[m] for m in ctx], "move": table[ctx]} for ctx in contexts]
    else:
        pts = {m: points_of(m) for m in set(table.values())}
        entries = [{"context": list(ctx), "move": pts[table[ctx]]} for ctx in contexts]
    return {"player": s.player, "class": "full", "entries": entries}


def restricted_to_json(player: str, moves: list) -> dict:
    """Per-round moves as a strategy file of the old predetermined-Alice
    ("pre") or Markov-Bob ("markov") class: Alice's contexts are rounds;
    Bob's are [menu index, round], by menu index, then round, with his pick
    as a point list."""
    if player == "alice":
        entries = [{"context": rnd, "move": mi} for rnd, mi in enumerate(moves)]
        return {"player": player, "class": "pre", "entries": entries}
    menus = range(len(moves[0]) if moves else 0)
    entries = [
        {"context": [mi, rnd], "move": points_of(picks[mi])} for mi in menus for rnd, picks in enumerate(moves)
    ]
    return {"player": player, "class": "markov", "entries": entries}


def reference_extract(space: FiniteSpace, view: HistoryTable, clopen_seqs: dict,
                      depth: int) -> ExtractionResult:
    """`lab.extract_qs_tree`, read off Alice's full-history table `view`:
    each index sequence names the block that `view` plays after the
    replies it picks from the clopen sequences, depth first. A missing
    entry is skipped on the final layer and raises IllegalMove above it."""
    blocks = quasi_components(space).blocks
    tree = {}

    def name(seq: tuple, replies: tuple) -> None:
        if replies not in view.table:
            if len(seq) == depth:
                return
            raise IllegalMove(replies)
        bi = view.table[replies]
        tree[seq] = blocks[bi]
        if len(seq) < depth:
            for k, v in enumerate(clopen_seqs[bi]):
                name(seq + (k,), replies + (v,))

    name((), ())
    missed = [x for x in range(space.n) if not any(b >> x & 1 for b in tree.values())]
    if not missed:
        return ExtractionResult(tree=tree, covers=True, counterexample=None)
    # every round, Bob takes the first set of the named block's sequence that misses y
    y = missed[0]
    replies: tuple = ()
    rounds = []
    for _ in range(depth):
        bi = view.table[replies]
        v = next(v for v in clopen_seqs[bi] if not v >> y & 1)
        rounds.append((bi, v))
        replies += (v,)
    return ExtractionResult(tree=tree, covers=False, counterexample=(y, Transcript(tuple(rounds), "bob")))


def reference_verify(game: GameSpec, s: Strategy) -> bool:
    """Exhaustively play s against every legal opponent line, depth first.

    A strategy moves on (covered mask, round) alone, so the outcome below a
    position depends only on (covered mask, round) and is memoized on it.
    Each move is read off `s.table` at the rounds left, one menu at a time
    for Bob. A missing entry or an illegal move loses.
    """
    menus = game.menus.menus
    full = game.full
    horizon = game.horizon
    alice = s.player == "alice"
    # s wins a finished play iff its mask is full, or iff it is not
    wins_full = (not alice) != game.negated
    memo: dict = {}

    def check(covered: int, rnd: int) -> bool:
        key = (covered, rnd)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = explore(covered, rnd)
        return hit

    def explore(covered: int, rnd: int) -> bool:
        if rnd >= horizon or not menus or covered == full:
            return (covered == full) == wins_full
        key = (covered, horizon - rnd)
        if key not in s.table:
            return False
        move = s.table[key]
        if alice:
            if not 0 <= move < len(menus):
                return False
            return all(check(covered | b, rnd + 1) for b in menus[move])
        for mi, menu in enumerate(menus):
            if mi >= len(move) or move[mi] not in menu or not check(covered | move[mi], rnd + 1):
                return False
        return True

    return check(0, 0)


def history_tree_winner(game: GameSpec) -> str:
    """Game value with no state abstraction: plain recursion on the full
    move history, Bob's goal (the selections cover the space, negated for
    the point games) evaluated on the selections at the leaves."""
    menus = game.menus.menus

    def value(selections: tuple, rnd: int) -> str:
        if rnd >= game.horizon or not menus:
            covers = _union(selections) == game.full
            return "bob" if covers != game.negated else "alice"
        for menu in menus:
            if all(value(selections + (b,), rnd + 1) == "alice" for b in menu):
                return "alice"
        return "bob"

    return value((), 0)


def reference_least_move(game: GameSpec, covered: int, left: int):
    """The least winning move of the winner with `covered` covered and
    `left` rounds left, this one included, by plain recursion over the
    children, memoized on (covered mask, rounds left): Alice's first menu
    all of whose children she wins, or else Bob's first winning pick from
    each menu, in menu order."""
    menus = game.menus.menus
    memo: dict = {}

    def bob_wins(c: int, rounds: int) -> bool:
        # a full mask stays full, so it decides the play at once
        if c == game.full or rounds == 0 or not menus:
            return game.bob_wins(c)
        if (c, rounds) not in memo:
            memo[c, rounds] = all(any(bob_wins(c | b, rounds - 1) for b in menu) for menu in menus)
        return memo[c, rounds]

    picks = [next((b for b in menu if bob_wins(covered | b, left - 1)), None) for menu in menus]
    return picks.index(None) if None in picks else tuple(picks)


def selection_principle(game: GameSpec) -> bool:
    """The finite selection principle, checked directly: every length-k
    sequence of menus admits a selection satisfying Bob's goal."""
    menus = game.menus.menus
    if not menus or game.horizon == 0:
        return game.bob_wins(0)
    return all(
        any(game.bob_wins(_union(picks)) for picks in itertools.product(*(menus[mi] for mi in seq)))
        for seq in itertools.product(range(len(menus)), repeat=game.horizon)
    )


def _antichain(masks, keep_max: bool) -> list:
    """The distinct masks no other mask strictly contains (keep_max) or is
    strictly contained in (otherwise), largest (smallest) first.

    A mask is kept unless a kept mask contains it (lies inside it): taken
    in this order, whatever dominates a mask comes before it, and is kept
    or lies inside (contains) a kept mask."""
    kept: list = []
    for s in sorted(set(masks), key=int.bit_count, reverse=keep_max):
        for t in kept:
            if (s | t == t) if keep_max else (t | s == s):
                break
        else:
            kept.append(s)
    return kept


def reference_committed_search(game: GameSpec, player: str) -> Callable[[int], Optional[list]]:
    """The restricted searches' moves at each horizon of the game's menu
    family and target: a function from a horizon to predetermined Alice's
    menu index per round, or Markov Bob's choice vector per round (his
    pick from each menu, in menu order); None when the class has no win.

    The committing player's moves are Alice's menus, every one tried in
    menu order, or Bob's choice vectors over the subset-minimal members of
    each menu. Knowledge sets are frozensets, and the opponent's reachable
    masks are cut to those best for them. One memo, keyed on the knowledge
    set and the rounds left, answers every horizon, and the knowledge set
    each move leads to is computed once per knowledge set.
    """
    menus = game.menus.menus
    goal = player == "bob"  # the committing player wins when bob_wins(final) == goal
    if goal:
        minimal = []  # each menu's subset-minimal members, in menu order
        for menu in menus:
            keep = _antichain(menu, keep_max=False)
            minimal.append([b for b in menu if b in keep])
        options = [(v, v) for v in itertools.product(*minimal)]
    else:
        options = list(enumerate(menus))
    keep_max = goal == game.negated
    steps: dict = {}  # knowledge set -> the next knowledge set of each move tried so far
    known: dict = {}
    memo: dict = {}

    def wins(states: frozenset, left: int):
        # (winning move, next knowledge set) with `left` rounds to play, or None
        key = (states, left)
        if key not in memo:
            memo[key] = None
            done = steps.setdefault(states, [])
            for i, (move, masks) in enumerate(options):
                if i == len(done):
                    nxt = frozenset(_antichain({s | b for s in states for b in masks}, keep_max))
                    done.append(known.setdefault(nxt, nxt))  # one object per knowledge set
                nxt = done[i]
                if left == 1:
                    good = all(game.bob_wins(s) == goal for s in nxt)
                else:
                    good = wins(nxt, left - 1) is not None
                if good:
                    memo[key] = (move, nxt)
                    break
        return memo[key]

    def moves(horizon: int) -> Optional[list]:
        if horizon == 0 or not menus:
            return [] if game.bob_wins(0) == goal else None
        seq = []
        states = frozenset([0])
        for left in range(horizon, 0, -1):
            found = wins(states, left)
            if found is None:
                return None
            move, states = found
            seq.append(move)
        return seq

    return moves


def markov_bob_oracle(game: GameSpec):
    """Markov Bob by knowledge-set search over every choice vector.

    In each round Bob commits to a choice vector (one member of every
    menu, none pruned), and the search tracks the set of covered masks
    Alice can steer the play into. Returns (won, the choice vector of each
    round), with None in place of lost moves.
    """
    menus = game.menus.menus
    full = game.full

    def bob_wins(covered: int) -> bool:
        return (covered == full) != game.negated

    if game.horizon == 0 or not menus:
        return (True, []) if bob_wins(0) else (False, None)
    vectors = list(itertools.product(*menus))
    memo: dict = {}

    def plan(states: frozenset, rnd: int):
        # winning vectors for rounds rnd.. from this knowledge set, or None
        key = (states, rnd)
        if key not in memo:
            memo[key] = None
            for vector in vectors:
                nxt = frozenset(s | b for s in states for b in vector)
                if rnd + 1 == game.horizon:
                    rest = () if all(bob_wins(s) for s in nxt) else None
                else:
                    rest = plan(nxt, rnd + 1)
                if rest is not None:
                    memo[key] = (vector,) + rest
                    break
        return memo[key]

    seq = plan(frozenset([0]), 0)
    return (False, None) if seq is None else (True, list(seq))


def closed_form_verdict(space: FiniteSpace, game: str, k: int) -> tuple[str, bool, bool]:
    """(full winner, predetermined Alice wins, Markov Bob wins) of the named
    game on a finite space at horizon k, from two counts alone.

    m counts the distinct maximal minimal neighbourhoods U_x, and q the
    quasi-components. Bob wins the open-cover game, and Alice the
    point-open game, iff k >= m; Bob wins the clopen-cover game, and Alice
    the point-clopen and quasi-component-clopen games, iff k >= q. On a
    finite space a predetermined Alice wins iff Alice wins, and a Markov
    Bob iff Bob wins. Everything is read off the open sets directly.
    """
    opens = space.opens
    full = (1 << space.n) - 1
    nbhds = set()
    for x in range(space.n):
        u = full
        for o in opens:
            if o >> x & 1:
                u &= o
        nbhds.add(u)
    m = sum(1 for u in nbhds if not any(v != u and v & u == u for v in nbhds))
    open_set = set(opens)
    clopens = [o for o in opens if full & ~o in open_set]
    quasi = set()
    for x in range(space.n):
        block = full
        for c in clopens:
            if c >> x & 1:
                block &= c
        quasi.add(block)
    q = len(quasi)
    count, bob_goal = {
        "rothberger": (m, True),
        "point-open": (m, False),
        "mildly-rothberger": (q, True),
        "point-clopen": (q, False),
        "quasi-component-clopen": (q, False),
    }[game]
    # the player whose goal is to cover wins iff there are rounds enough
    coverer_wins = k >= count
    winner = "bob" if coverer_wins == bob_goal else "alice"
    return winner, winner == "alice", winner == "bob"
