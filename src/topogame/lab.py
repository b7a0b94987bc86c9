"""Strategy translations between the point-clopen and quasi-component-clopen
games, the quasi-component Markov strategy for the clopen cover game, the
indexed-tree extraction from a winning Alice strategy, and the empirical
theorem checks run over the enumerated corpus. Every strategy is a
positional table; the checks only ask the restricted searches whether a
class wins, and the strategies made here from per-round moves are walked
into tables (`walk_positions`)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DepthCapExceeded, IllegalSourceStrategy
from .games import (
    ALICE,
    BOB,
    GameSpec,
    Strategy,
    Transcript,
    make_mildly_rothberger,
    make_point_clopen,
    make_point_open,
    make_quasi_component_clopen,
    make_rothberger,
    markov_bob_search,
    predetermined_alice_search,
    solve,
    verify_winning,
    walk_positions,
    winners,
)
from .topology import (
    FiniteSpace,
    Partition,
    is_zero_dimensional,
    points_of,
    quasi_components,
)

DIRECTIONS = ("alice-pc-to-qc", "alice-qc-to-pc", "bob-pc-to-qc", "bob-qc-to-pc")

EXTRACTION_NODE_CAP = 10**6


@dataclass(frozen=True)
class TranslationReport:
    direction: str
    output: Strategy
    input_winning: bool
    output_winning: bool
    preserved: bool


@dataclass(frozen=True)
class ExtractionResult:
    tree: dict  # index sequence -> quasi-component mask
    covers: bool
    counterexample: Optional[tuple[int, Transcript]]


# ---------------------------------------------------------------------------
# strategy translations between PC and QC


def _check_source_entries(s: Strategy, game: GameSpec) -> None:
    menus = game.menus.menus
    for (covered, left), move in s.table.items():
        if s.player == ALICE:
            if not 0 <= move < len(menus):
                raise IllegalSourceStrategy(f"menu index {move} out of range at {[points_of(covered), left]}")
        else:
            if len(move) != len(menus):
                raise IllegalSourceStrategy(
                    f"{len(move)} picks for {len(menus)} menus at {[points_of(covered), left]}"
                )
            for mi, b in enumerate(move):
                if b not in menus[mi]:
                    raise IllegalSourceStrategy(f"move {b:#x} not in menu {mi} at {[points_of(covered), left]}")


def translate_b1(
    direction: str, s: Strategy, space: FiniteSpace, horizon: int
) -> TranslationReport:
    """Carry a winning strategy between the point-clopen and
    quasi-component-clopen games. The output is a positional table, built
    over the target game's reachable (covered mask, rounds left) positions
    (`walk_positions`).

    Alice's point strategies map through Q[.] (a clopen neighborhood of a
    point is exactly a clopen superset of its quasi-component); Bob's
    strategies map through least-index representatives of the blocks.
    Both games offer Bob the same members for corresponding moves, so a
    line of play covers the same mask in both, and the source is read at
    the same (covered mask, rounds left). A missing source entry raises
    IllegalMove.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    pc = make_point_clopen(space, horizon)
    qc = make_quasi_component_clopen(space, horizon)
    return _translate(direction, s, pc, qc, quasi_components(space))


def _translate(direction: str, s: Strategy, pc: GameSpec, qc: GameSpec, part: Partition) -> TranslationReport:
    """translate_b1 between the two games of one horizon, given the
    quasi-component partition of their space.

    Each game has one move map, which carries an Alice move of the other
    game into it: a point to its block index into the block game, and a
    block to its least point into the point game. The source move is read
    once per node. Alice's goes through the target game's map; Bob's pick
    from a target menu is his pick from the source menu that the source
    game's map names.
    """
    into_qc = part.index_of
    into_pc = [points_of(block)[0] for block in part.blocks].__getitem__
    if direction.endswith("pc-to-qc"):
        src_game, into_src, tgt_game, into_tgt = pc, into_pc, qc, into_qc
    else:
        src_game, into_src, tgt_game, into_tgt = qc, into_qc, pc, into_pc
    _check_source_entries(s, src_game)
    player = ALICE if direction.startswith("alice") else BOB
    if s.player != player:
        raise IllegalSourceStrategy(f"direction names {player.title()} but strategy is {s.player.title()}'s")
    move_at = s.move_at
    if player == ALICE:
        def choose(covered: int, left: int) -> int:
            return into_tgt(move_at(covered, left))
    else:
        # the source menu each target menu corresponds to
        src_menus = [into_src(mi) for mi in range(len(tgt_game.menus.menus))]

        def choose(covered: int, left: int) -> tuple:
            return tuple(map(move_at(covered, left).__getitem__, src_menus))

    out = walk_positions(tgt_game, player, choose)
    input_winning = verify_winning(src_game, s)
    output_winning = verify_winning(tgt_game, out)
    return TranslationReport(
        direction=direction,
        output=out,
        input_winning=input_winning,
        output_winning=output_winning,
        preserved=output_winning if input_winning else True,
    )


# ---------------------------------------------------------------------------
# the quasi-component Markov strategy for the clopen cover game


def b3_markov_strategy(space: FiniteSpace) -> Strategy:
    """Bob's Markov strategy for the clopen-cover selection game: in round i
    take the first member of Alice's cover meeting the i-th quasi-component
    block. A clopen set meeting a block contains it, so the selections
    swallow one block per round and cover within #blocks rounds. The
    strategy is the positional table of those picks, at horizon #blocks,
    over the positions Alice can reach."""
    blocks = quasi_components(space).blocks
    game = make_mildly_rothberger(space, len(blocks))
    picks = [tuple(next(b for b in menu if b & block) for menu in game.menus.menus) for block in blocks]
    # round i, with #blocks - i rounds left, takes block i
    return walk_positions(game, BOB, lambda covered, left: picks[-left])


# ---------------------------------------------------------------------------
# indexed-tree extraction from a winning Alice QC strategy


def extract_qs_tree(
    space: FiniteSpace,
    phi: Strategy,
    clopen_seqs: dict[int, list[int]],
    depth: int,
) -> ExtractionResult:
    """Unfold an Alice strategy for the quasi-component-clopen game into
    the indexed family of blocks it can name when Bob answers only from
    the given clopen sequences.

    phi is read as playing the game of horizon `depth`. clopen_seqs maps
    each block index to clopen supersets of the block whose intersection
    equals it (the singleton [block] always qualifies). A Bob strategy, a
    block index out of range, in phi or in clopen_seqs, or a block with no
    sequence, raises ValueError. If the blocks it names fail to cover, the
    uncovered point yields a legal play following phi that Alice loses.
    """
    if phi.player != ALICE:
        raise ValueError(f"extract_qs_tree reads an Alice strategy, not {phi.player}'s")
    blocks = quasi_components(space).blocks
    for bi in clopen_seqs:
        if not 0 <= bi < len(blocks):
            raise ValueError(f"clopen_seqs names block index {bi} of {len(blocks)} blocks")
    for bi, block in enumerate(blocks):
        if bi not in clopen_seqs:
            raise ValueError(f"clopen_seqs has no sequence for block {bi} of {len(blocks)} blocks")
        acc = space.full
        for v in clopen_seqs[bi]:
            if not space.is_clopen(v) or v & block != block:
                raise ValueError(f"sequence entry {v:#x} is not a clopen superset of block {bi}")
            acc &= v
        if acc != block:
            raise ValueError(f"sequence for block {bi} does not intersect down to the block")

    tree: dict[tuple, int] = {}
    count = 0
    # (index sequence, the mask Bob's moves cover)
    frontier: list[tuple[tuple, int]] = [((), 0)]
    while frontier:
        nxt = []
        for s, covered in frontier:
            # a strategy for horizon d moves only up to depth d-1; the final
            # layer, with no rounds left, may fall outside its domain
            if len(s) == depth and (covered, 0) not in phi.table:
                continue
            bi = phi.move_at(covered, depth - len(s))
            if not 0 <= bi < len(blocks):
                raise ValueError(f"phi names block index {bi} of {len(blocks)} blocks at node {s}")
            tree[s] = blocks[bi]
            count += 1
            if count > EXTRACTION_NODE_CAP:
                raise DepthCapExceeded(f"extraction node cap {EXTRACTION_NODE_CAP} exceeded")
            if len(s) < depth:
                for k, v in enumerate(clopen_seqs[bi]):
                    nxt.append((s + (k,), covered | v))
        frontier = nxt

    union = 0
    for b in tree.values():
        union |= b
    if union == space.full:
        return ExtractionResult(tree=tree, covers=True, counterexample=None)

    y = points_of(space.full & ~union)[0]
    ybit = 1 << y
    rounds = []
    covered = 0
    for left in range(depth, 0, -1):
        bi = phi.move_at(covered, left)
        v = next(v for v in clopen_seqs[bi] if not v & ybit)
        rounds.append((bi, v))
        covered |= v
    transcript = Transcript(rounds=tuple(rounds), outcome=BOB)
    return ExtractionResult(tree=tree, covers=False, counterexample=(y, transcript))


# ---------------------------------------------------------------------------
# corpus checks


def saturating_horizon(space: FiniteSpace) -> int:
    """Horizon beyond which the winner of a cover game cannot change: a
    cover of an n-point space never needs more than n sets."""
    return space.n


def check_duality(space: FiniteSpace) -> dict:
    """Mechanized dual-game check at the saturating horizon: the clopen
    cover game against the point-clopen game, in both the full-strategy
    and the predetermined/Markov forms."""
    k = saturating_horizon(space)
    g1 = make_mildly_rothberger(space, k)
    g2 = make_point_clopen(space, k)
    alice_g1 = solve(g1, want_witness=False).winner == ALICE
    bob_g1 = not alice_g1
    alice_g2 = solve(g2, want_witness=False).winner == ALICE
    bob_g2 = not alice_g2
    facts = {
        "alice_g1": alice_g1,
        "bob_g1": bob_g1,
        "alice_g2": alice_g2,
        "bob_g2": bob_g2,
        "alice_pre_g1": predetermined_alice_search(g1) is not None,
        "bob_mark_g2": markov_bob_search(g2) is not None,
        "alice_pre_g2": predetermined_alice_search(g2) is not None,
        "bob_mark_g1": markov_bob_search(g1) is not None,
    }
    strategic = (facts["alice_g1"] == facts["bob_g2"]) and (facts["bob_g1"] == facts["alice_g2"])
    markov = (facts["alice_pre_g1"] == facts["bob_mark_g2"]) and (
        facts["alice_pre_g2"] == facts["bob_mark_g1"]
    )
    facts["strategic_dual"] = strategic
    facts["markov_dual"] = markov
    return {"check": "duality", "horizon": k, "facts": facts, "pass": strategic and markov}


def check_zero_dim_equivalence(space: FiniteSpace) -> dict:
    """Winner equality of the open and clopen game variants, asserted only
    on zero-dimensional spaces; elsewhere winners are recorded as data."""
    kstar = saturating_horizon(space)
    zd = is_zero_dimensional(space)
    open_game = make_rothberger(space, kstar)
    clopen_game = make_mildly_rothberger(space, kstar)
    ro = winners(open_game)
    mr = winners(clopen_game)
    po = winners(make_point_open(space, kstar))
    pc = winners(make_point_clopen(space, kstar))
    per_horizon = [
        {
            "horizon": k,
            "rothberger": ro[k],
            "mildly_rothberger": mr[k],
            "point_open": po[k],
            "point_clopen": pc[k],
        }
        for k in range(kstar + 1)
    ]
    diverged = ro != mr or po != pc
    pre_open = predetermined_alice_search(open_game) is not None
    pre_clopen = predetermined_alice_search(clopen_game) is not None
    facts = {
        "zero_dimensional": zd,
        "per_horizon": per_horizon,
        "alice_pre_open": pre_open,
        "alice_pre_clopen": pre_clopen,
        "diverged": diverged,
    }
    ok = True
    if zd:
        ok = not diverged and pre_open == pre_clopen
    return {"check": "zerodim", "horizon": kstar, "facts": facts, "pass": ok}


def check_th314(space: FiniteSpace) -> dict:
    """Selection principle iff Alice has no full winning strategy, for the
    clopen cover game at the saturating horizon; sub-saturating horizons
    are recorded as data."""
    kstar = saturating_horizon(space)
    game = make_mildly_rothberger(space, kstar)
    s1 = predetermined_alice_search(game) is None
    full = winners(game)
    no_full = full[kstar] != ALICE
    data = [
        {
            "horizon": k,
            "s1": predetermined_alice_search(make_mildly_rothberger(space, k)) is None,
            "alice_no_full_win": full[k] != ALICE,
        }
        for k in range(kstar)
    ]
    facts = {"s1": s1, "alice_no_full_win": no_full, "sub_saturating": data}
    return {"check": "th314", "horizon": kstar, "facts": facts, "pass": s1 == no_full}


def check_min_horizon_law(space: FiniteSpace) -> dict:
    """Bob first wins the clopen cover game, and Alice first wins both
    point-style clopen games, exactly at the number of quasi-components."""
    nblocks = len(quasi_components(space).blocks)
    k = saturating_horizon(space)

    def first_win(game: GameSpec, player: str) -> Optional[int]:
        w = winners(game)
        return w.index(player) if player in w else None

    mr = first_win(make_mildly_rothberger(space, k), BOB)
    pc = first_win(make_point_clopen(space, k), ALICE)
    qc = first_win(make_quasi_component_clopen(space, k), ALICE)
    facts = {"quasi_components": nblocks, "mildly_rothberger_bob": mr, "point_clopen_alice": pc, "qc_alice": qc}
    ok = mr == pc == qc == nblocks
    return {"check": "minhorizon", "horizon": k, "facts": facts, "pass": ok}


def check_pc_qc_equivalence(space: FiniteSpace) -> dict:
    """Identical winners of the point-clopen and quasi-component-clopen
    games at every horizon, in all three strategy classes."""
    kstar = saturating_horizon(space)
    pc_winners = winners(make_point_clopen(space, kstar))
    qc_winners = winners(make_quasi_component_clopen(space, kstar))
    rows = []
    ok = True
    for k in range(kstar + 1):
        pc = make_point_clopen(space, k)
        qc = make_quasi_component_clopen(space, k)
        row = {
            "horizon": k,
            "pc_winner": pc_winners[k],
            "qc_winner": qc_winners[k],
            "pc_bob_mark": markov_bob_search(pc) is not None,
            "qc_bob_mark": markov_bob_search(qc) is not None,
            "pc_alice_pre": predetermined_alice_search(pc) is not None,
            "qc_alice_pre": predetermined_alice_search(qc) is not None,
        }
        row_ok = (
            row["pc_winner"] == row["qc_winner"]
            and row["pc_bob_mark"] == row["qc_bob_mark"]
            and row["pc_alice_pre"] == row["qc_alice_pre"]
        )
        ok = ok and row_ok
        rows.append(row)
    return {
        "check": "pc-qc",
        "horizon": kstar,
        "facts": {"per_horizon": rows},
        "pass": ok,
    }


def check_b1_translations(space: FiniteSpace) -> dict:
    """Translate every solver-found winning strategy on the point/block
    clopen games and verify the result wins the other game."""
    results = []
    ok = True
    part = quasi_components(space)
    for k in range(saturating_horizon(space) + 1):
        pc = make_point_clopen(space, k)
        qc = make_quasi_component_clopen(space, k)
        for name, game, directions in (
            ("pc", pc, {"alice": "alice-pc-to-qc", "bob": "bob-pc-to-qc"}),
            ("qc", qc, {"alice": "alice-qc-to-pc", "bob": "bob-qc-to-pc"}),
        ):
            verdict = solve(game)
            direction = directions[verdict.winner]
            report = _translate(direction, verdict.witness, pc, qc, part)
            results.append(
                {
                    "game": name,
                    "horizon": k,
                    "direction": direction,
                    "input_winning": report.input_winning,
                    "preserved": report.preserved,
                }
            )
            ok = ok and report.input_winning and report.preserved
    return {
        "check": "b1",
        "horizon": saturating_horizon(space),
        "facts": {"translations": results},
        "pass": ok,
    }


def check_b3(space: FiniteSpace) -> dict:
    """The quasi-component Markov strategy wins the clopen cover game at
    horizon = number of quasi-components."""
    nblocks = len(quasi_components(space).blocks)
    s = b3_markov_strategy(space)
    game = make_mildly_rothberger(space, nblocks)
    won = verify_winning(game, s)
    # a Markov strategy: every position of a round holds the same picks
    picks: dict = {}
    markov = all(picks.setdefault(left, move) == move for (_, left), move in s.table.items())
    facts = {"blocks": nblocks, "markov_class": markov, "winning": won}
    return {"check": "b3", "horizon": nblocks, "facts": facts, "pass": won and markov}


def check_extraction(space: FiniteSpace) -> dict:
    """Unfold the solver's winning Alice strategy for the block game with
    singleton clopen sequences; also exercise the failure branch with the
    planted strategy that names the first block every round, whatever
    Bob picks."""
    blocks = quasi_components(space).blocks
    nblocks = len(blocks)
    kstar = saturating_horizon(space)
    game = make_quasi_component_clopen(space, kstar)
    verdict = solve(game)
    facts: dict = {"blocks": nblocks}
    ok = True
    seqs = {bi: [blocks[bi]] for bi in range(nblocks)}
    if verdict.winner == ALICE:
        result = extract_qs_tree(space, verdict.witness, seqs, kstar)
        facts["covers"] = result.covers
        ok = ok and result.covers
    if nblocks >= 2:
        planted = walk_positions(game, ALICE, lambda covered, left: 0)
        result = extract_qs_tree(space, planted, seqs, kstar)
        facts["planted_covers"] = result.covers
        ok = ok and not result.covers and result.counterexample is not None
        if result.counterexample is not None:
            y, transcript = result.counterexample
            replay_ok = _replay_is_losing(game, planted, transcript, y)
            facts["planted_counterexample_valid"] = replay_ok
            ok = ok and replay_ok
    return {"check": "extraction", "horizon": kstar, "facts": facts, "pass": ok}


def _replay_is_losing(game: GameSpec, phi: Strategy, transcript: Transcript, y: int) -> bool:
    """The counterexample transcript must follow phi, stay legal, and miss y."""
    union = 0
    for left, (mi, v) in zip(range(game.horizon, 0, -1), transcript.rounds):
        if phi.move_at(union, left) != mi or v not in game.menus.menus[mi]:
            return False
        union |= v
    return not union & (1 << y) and transcript.outcome == BOB
