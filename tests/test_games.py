import dataclasses
import hashlib
import random
import time
from collections import Counter

import pytest

from oracles import (
    HISTORY_CAP,
    all_covers,
    block_picks,
    closed_form_verdict,
    discrete_space,
    history_to_json,
    history_tree_winner,
    history_view,
    is_selection_basis,
    markov_bob_oracle,
    OffMenuMove,
    per_round_table,
    playout,
    random_alexandrov,
    reference_committed_search,
    reference_least_move,
    reference_move,
    reference_verify,
    restricted_to_json,
    reversed_game,
    selection_principle,
)
from topogame.covers import DEFAULT_CAP, MenuFamily, reduced_covers
from topogame.errors import CapExceeded, EmptySpace
from topogame.games import (
    ALICE,
    BOB,
    GAME_BUILDERS,
    GameSpec,
    Solver,
    Strategy,
    _committed_search,
    _cut_solver,
    _dominant_menus,
    _winner_solver,
    make_mildly_rothberger,
    make_point_clopen,
    make_point_open,
    make_quasi_component_clopen,
    make_rothberger,
    markov_bob_search,
    predetermined_alice_search,
    solve,
    verify_winning,
    winners,
)
from topogame.lab import saturating_horizon
from topogame.serialize import dumps_stable, strategy_from_json, strategy_to_json, verdict_to_json
from topogame.topology import (
    enumerate_topologies,
    minimal_open_nbhd,
    quasi_components,
    validate_topology,
)

ALL_GAMES = [
    make_rothberger,
    make_mildly_rothberger,
    make_point_open,
    make_point_clopen,
    make_quasi_component_clopen,
]


class TestConstructors:
    def test_rothberger_examples(self, sierpinski):
        assert solve(make_rothberger(sierpinski, 1)).winner == BOB
        d2 = discrete_space(2)
        assert solve(make_rothberger(d2, 1)).winner == ALICE
        assert solve(make_rothberger(d2, 2)).winner == BOB

    def test_mildly_rothberger_examples(self, sierpinski, two_block3):
        assert solve(make_mildly_rothberger(sierpinski, 1)).winner == BOB
        assert solve(make_mildly_rothberger(two_block3, 1)).winner == ALICE
        assert solve(make_mildly_rothberger(two_block3, 2)).winner == BOB

    def test_point_clopen_examples(self, sierpinski, two_block3):
        assert solve(make_point_clopen(sierpinski, 1)).winner == ALICE
        assert solve(make_point_clopen(two_block3, 1)).winner == BOB
        assert solve(make_point_clopen(two_block3, 2)).winner == ALICE

    def test_point_open_examples(self, sierpinski, two_block3):
        assert solve(make_point_open(sierpinski, 1)).winner == ALICE
        assert solve(make_point_open(two_block3, 1)).winner == BOB
        assert solve(make_point_open(two_block3, 2)).winner == ALICE

    def test_quasi_component_examples(self, sierpinski, two_block3):
        assert solve(make_quasi_component_clopen(sierpinski, 1)).winner == ALICE
        assert solve(make_quasi_component_clopen(two_block3, 1)).winner == BOB
        assert solve(make_quasi_component_clopen(two_block3, 2)).winner == ALICE
        assert solve(make_quasi_component_clopen(discrete_space(3), 3)).winner == ALICE


class TestSolveConventions:
    def test_empty_space_cover_game(self):
        empty = validate_topology([0], 0)
        assert solve(make_rothberger(empty, 0)).winner == BOB
        assert solve(make_mildly_rothberger(empty, 3)).winner == BOB

    def test_zero_horizon_nonempty(self, sierpinski):
        # empty selection covers nothing, so Bob loses the cover game and
        # wins the negated point game
        assert solve(make_mildly_rothberger(sierpinski, 0)).winner == ALICE
        assert solve(make_point_clopen(sierpinski, 0)).winner == BOB

    def test_menu_members_lie_inside_the_ground_mask(self):
        # Bob's only pick holds every point, and a point outside the ground
        # mask: the solver would name Alice the winner
        with pytest.raises(ValueError, match="^every menu member must lie inside the ground mask$"):
            GameSpec(0b111, MenuFamily(((0b1111,),)), False, 1)
        assert solve(GameSpec(0b111, MenuFamily(((0b111,),)), False, 1)).winner == BOB

    def test_witness_for_two_block(self, two_block3):
        v = solve(make_mildly_rothberger(two_block3, 2))
        assert v.winner == BOB
        assert v.witness is not None and v.witness.player == BOB
        assert v.stats > 0


class TestDeterminacyAndMonotonicity:
    def test_reverse_search_same_winner(self, corpus3):
        for _, sp in corpus3:
            for make in ALL_GAMES:
                for k in range(sp.n + 1):
                    game = make(sp, k)
                    assert (
                        solve(game, want_witness=False).winner
                        == solve(reversed_game(game), want_witness=False).winner
                    )

    def test_horizon_monotonicity(self, corpus3):
        for _, sp in corpus3:
            for k in range(sp.n + 1):
                if solve(make_mildly_rothberger(sp, k), want_witness=False).winner == BOB:
                    assert solve(make_mildly_rothberger(sp, k + 1), want_witness=False).winner == BOB
                if solve(make_point_clopen(sp, k), want_witness=False).winner == ALICE:
                    assert solve(make_point_clopen(sp, k + 1), want_witness=False).winner == ALICE


class TestRestrictedClasses:
    def test_bob_markov_two_block(self, two_block3):
        game = make_mildly_rothberger(two_block3, 2)
        moves = markov_bob_search(game)
        # Bob's pick from each menu, per round
        assert moves is not None and [len(picks) for picks in moves] == [len(game.menus.menus)] * 2
        assert verify_winning(game, per_round_table(game, BOB, moves))

    def test_alice_pre_discrete2(self):
        game = make_rothberger(discrete_space(2), 1)
        moves = predetermined_alice_search(game)
        # Alice's menu index, per round
        assert moves is not None and len(moves) == 1 and 0 <= moves[0] < len(game.menus.menus)
        assert verify_winning(game, per_round_table(game, ALICE, moves))

    def test_class_chain(self, corpus3):
        for _, sp in corpus3:
            for make in (make_mildly_rothberger, make_point_clopen):
                for k in range(sp.n + 1):
                    game = make(sp, k)
                    winner = solve(game, want_witness=False).winner
                    if markov_bob_search(game) is not None:
                        assert winner == BOB
                    if predetermined_alice_search(game) is not None:
                        assert winner == ALICE

    def test_markov_bob_matches_oracle(self, corpus3):
        for _, sp in corpus3:
            for make in ALL_GAMES:
                for k in range(sp.n + 1):
                    game = make(sp, k)
                    moves = markov_bob_search(game)
                    assert (moves is not None) == markov_bob_oracle(game)[0], (sp, make.__name__, k)
                    if moves is not None:
                        assert verify_winning(game, per_round_table(game, BOB, moves)), (sp, make.__name__, k)

    @pytest.mark.parametrize("k, bob_wins", [(3, False), (4, True)])
    def test_markov_bob_discrete4(self, k, bob_wins):
        # 49 clopen covers: an unpruned search would face 4.2e18 choice vectors
        game = make_mildly_rothberger(discrete_space(4), k)
        start = time.monotonic()
        moves = markov_bob_search(game)
        assert time.monotonic() - start < 1.0
        assert (moves is not None) == bob_wins
        if moves is not None:
            assert verify_winning(game, per_round_table(game, BOB, moves))

    def test_markov_bob_choice_vector_cap(self):
        # every two-point set is minimal, so pruning keeps all 6 per menu
        d4 = discrete_space(4)
        pairs = tuple(m for m in range(16) if bin(m).count("1") == 2)
        menus = MenuFamily(menus=(pairs,) * 8)
        assert len(pairs) ** 8 > DEFAULT_CAP
        # the guard runs before the cached search, so on every call
        for _ in range(2):
            with pytest.raises(CapExceeded):
                markov_bob_search(GameSpec(d4.full, menus, True, 1))


class TestClassGaps:
    """The two smallest instances where the full game and the restricted
    classes part: games on a bare 3-point ground mask, with menu families
    that come from no topology. At horizon 2 the full winner wins, but
    neither predetermined Alice nor Markov Bob does."""

    @pytest.mark.parametrize(
        "menus, negated, full_winners, alice_moves, bob_moves",
        [
            # two partitions, {{0}, {1, 2}} and {{1}, {0, 2}}, under the cover target
            (
                ((0b001, 0b110), (0b010, 0b101)),
                False,
                [ALICE, ALICE, BOB, BOB],
                [[], [0], None, None],
                [None, None, None, [(1, 5), (6, 2), (6, 5)]],
            ),
            # the three 2-subset covers of {0, 1, 2}, under the negated target
            (
                ((0b011, 0b101), (0b011, 0b110), (0b101, 0b110)),
                True,
                [BOB, BOB, ALICE, ALICE],
                [None, None, None, [0, 1, 2]],
                [[], [(3, 3, 5)], None, None],
            ),
        ],
        ids=["cover", "negated"],
    )
    def test_pinned(self, menus, negated, full_winners, alice_moves, bob_moves):
        for k in range(4):
            game = GameSpec(0b111, MenuFamily(menus), negated, k)
            verdict = solve(game)
            assert verdict.winner == full_winners[k] == history_tree_winner(game), k
            assert verify_winning(game, verdict.witness) and reference_verify(game, verdict.witness), k
            assert predetermined_alice_search(game) == alice_moves[k], k
            assert reference_committed_search(game, ALICE)(k) == alice_moves[k], k
            assert markov_bob_search(game) == bob_moves[k], k
            assert reference_committed_search(game, BOB)(k) == bob_moves[k], k
            assert (bob_moves[k] is not None) == markov_bob_oracle(game)[0], k


def _search_moves(game) -> tuple:
    """Predetermined Alice's per-round moves, then, in a point or block game
    (where Markov Bob runs the knowledge-set search), Markov Bob's; None for
    a class with no win."""
    found = [predetermined_alice_search(game)]
    if game.negated:
        found.append(markov_bob_search(game))
    return tuple(found)


def _reference_searches(game) -> tuple:
    """The reference search of each class `_search_moves` reads, as a
    function from a horizon to its per-round moves."""
    players = (ALICE, BOB) if game.negated else (ALICE,)
    return tuple(reference_committed_search(game, player) for player in players)


def _reference_moves(game) -> tuple:
    return tuple(moves(game.horizon) for moves in _reference_searches(game))


class TestKnowledgeSearch:
    """One memoized knowledge-set search per menu family answers every
    horizon, and returns the tables of the reference frozenset search."""

    def test_matches_the_per_call_search_n4(self, corpus3, corpus4):
        spaces = [validate_topology([0], 0)] + [sp for _, sp in corpus3 + corpus4]
        checked = 0
        for sp in spaces:
            for name in sorted(GAME_BUILDERS):
                for k in range(sp.n + 2):
                    try:
                        game = GAME_BUILDERS[name](sp, k)
                    except EmptySpace:
                        continue
                    assert _search_moves(game) == _reference_moves(game), (sp, name, k)
                    checked += 1
        assert checked == 11474

    def test_matches_the_per_call_search_random5(self):
        # each (menu family, target) once, at horizons 0..5 from one
        # reference search: the large cover families of near-discrete
        # spaces make a fresh reference search per horizon take seconds
        families = set()
        for sp in _distinct_random5(300):
            for name in sorted(GAME_BUILDERS):
                game = GAME_BUILDERS[name](sp, 0)
                key = (game.menus.menus, game.negated)
                if key in families:
                    continue
                families.add(key)
                references = _reference_searches(game)
                for k in range(6):
                    expected = tuple(moves(k) for moves in references)
                    assert _search_moves(GAME_BUILDERS[name](sp, k)) == expected, (sp, name, k)
        assert 6 * len(families) == 3678

    def test_horizons_in_any_order(self, corpus3, corpus4, fresh_caches):
        spaces = [sp for _, sp in corpus3 + corpus4]

        def tables(order) -> dict:
            _committed_search.cache_clear()
            return {
                (i, name, k): _search_moves(GAME_BUILDERS[name](sp, k))
                for i, sp in enumerate(spaces)
                for name in sorted(GAME_BUILDERS)
                for k in order(sp.n + 1)
            }

        ascending = tables(lambda top: range(top + 1))
        assert tables(lambda top: range(top, -1, -1)) == ascending

    def test_a_later_better_menu_does_not_replace_a_winning_one(self):
        # menu 1 beats menu 0 for Alice: its one member lies inside a member
        # of menu 0, which has another member. At horizon 1 both win and
        # menu 0 is returned; at horizon 2 only menu 1 wins.
        d2 = discrete_space(2)
        menus = MenuFamily(menus=((0b01, 0b10), (0b01,)))
        assert _dominant_menus(menus.menus, False) == ((0b01,),)
        for k, moves in ((1, [0]), (2, [1, 1])):
            game = GameSpec(d2.full, menus, False, k)
            assert predetermined_alice_search(game) == moves
            assert reference_committed_search(game, ALICE)(k) == moves

    def test_state_cap_names_the_search(self, monkeypatch, fresh_caches):
        monkeypatch.setattr("topogame.games.STATE_CAP", 2)
        message = "^{} knowledge-set search state cap 2 exceeded$"
        with pytest.raises(CapExceeded, match=message.format("predetermined-Alice")):
            predetermined_alice_search(make_mildly_rothberger(discrete_space(3), 3))
        # Bob commits a 2-set per menu, and Alice covers with two of them
        menus = MenuFamily(menus=((0b011, 0b110), (0b110, 0b101), (0b101, 0b011)))
        with pytest.raises(CapExceeded, match=message.format("Markov-Bob")):
            markov_bob_search(GameSpec(discrete_space(3).full, menus, True, 2))


class TestMenuBasisInvariance:
    def test_all_covers_vs_irredundant(self, corpus3):
        for _, sp in corpus3:
            if sp.n > 2:
                continue
            for kind in ("open", "clopen"):
                full_fam = MenuFamily(menus=tuple(c.members for c in all_covers(sp, kind)))
                red_fam = MenuFamily(menus=tuple(c.members for c in reduced_covers(sp, kind)))
                assert is_selection_basis(
                    [frozenset(m) for m in red_fam.menus],
                    [frozenset(m) for m in full_fam.menus],
                )
                for k in range(sp.n + 1):
                    g_full = GameSpec(sp.full, full_fam, False, k)
                    g_red = GameSpec(sp.full, red_fam, False, k)
                    assert (
                        solve(g_full, want_witness=False).winner
                        == solve(g_red, want_witness=False).winner
                    )


class TestS1Bridge:
    def test_pre_failure_equals_selection_principle(self, corpus3):
        # Alice's committed menu sequence loses iff every sequence of menus
        # admits a selection meeting Bob's goal, in every game
        for name, sp in corpus3:
            for make in ALL_GAMES:
                for k in range(sp.n + 1):
                    game = make(sp, k)
                    moves = predetermined_alice_search(game)
                    assert (moves is None) == selection_principle(game), (name, make.__name__, k)
                    if moves is not None:
                        s = per_round_table(game, ALICE, moves)
                        assert verify_winning(game, s), (name, make.__name__, k)


class TestWinners:
    def test_matches_one_solve_per_horizon(self, corpus3, corpus4):
        # n + 2 runs past the saturating horizon
        for _, sp in corpus3 + corpus4:
            for make in ALL_GAMES:
                # a fresh full-family solver per horizon
                expected = []
                for k in range(sp.n + 3):
                    game = make(sp, k)
                    expected.append(Solver(game.menus.menus, game.full, game.negated).value(0, k))
                assert winners(make(sp, sp.n + 2)) == expected, (sp, make.__name__)

    def test_empty_space(self):
        empty = validate_topology([0], 0)
        assert winners(make_rothberger(empty, 2)) == [BOB, BOB, BOB]


def _distinct_random5(count: int) -> list:
    """The first `count` distinct 5-point spaces drawn from seeds 0, 1, ..."""
    seen: dict = {}
    seed = 0
    while len(seen) < count:
        sp = random_alexandrov(random.Random(seed), 5)
        seen.setdefault(sp.opens, sp)
        seed += 1
    return list(seen.values())


class TestDominantMenus:
    """The winner-only solves search the dominant menus; every other path
    searches the full family."""

    @staticmethod
    def _cross_check(spaces) -> int:
        checked = 0
        for sp in spaces:
            for make in ALL_GAMES:
                game = make(sp, sp.n + 1)
                full = Solver(game.menus.menus, game.full, game.negated)
                expected = [full.value(0, k) for k in range(sp.n + 2)]
                assert winners(game) == expected, (sp, make.__name__)
                cut = [solve(make(sp, k), want_witness=False).winner for k in range(sp.n + 2)]
                assert cut == expected, (sp, make.__name__)
                checked += len(expected)
        return checked

    def test_matches_full_family_n4(self, corpus3, corpus4):
        spaces = [sp for _, sp in corpus3 + corpus4]
        assert len(spaces) == 389
        assert self._cross_check(spaces) == 11470

    def test_matches_full_family_random5(self):
        spaces = _distinct_random5(300)
        assert self._cross_check(spaces) == 300 * 5 * 7

    def test_finite_space_collapse_n4(self, corpus3, corpus4):
        for name, sp in corpus3 + corpus4:
            nbhds = [minimal_open_nbhd(sp, x) for x in range(sp.n)]
            blocks = quasi_components(sp).blocks
            block_of = [next(b for b in blocks if b >> x & 1) for x in range(sp.n)]
            # O cuts to the maximal minimal neighbourhoods, C_O to the
            # quasi-component partition
            top = {u for u in nbhds if not any(u != v and u | v == v for v in nbhds)}
            assert _dominant_menus(make_rothberger(sp, 1).menus.menus, False) == (
                tuple(sorted(top)),
            ), name
            assert _dominant_menus(make_mildly_rothberger(sp, 1).menus.menus, False) == (
                tuple(sorted(blocks)),
            ), name
            # each point-game menu cuts to one member
            for make, least in (
                (make_point_open, nbhds),
                (make_point_clopen, block_of),
                (make_quasi_component_clopen, blocks),
            ):
                menus = make(sp, 1).menus.menus
                for menu, u in zip(menus, least):
                    assert _dominant_menus((menu,), True) == ((u,),), (name, make.__name__)
            # of the point menus, those of the maximal neighbourhoods stay,
            # each once; every quasi-component keeps one menu
            assert _dominant_menus(make_point_open(sp, 1).menus.menus, True) == tuple(
                (u,) for u in dict.fromkeys(nbhds) if u in top
            ), name
            assert _dominant_menus(make_point_clopen(sp, 1).menus.menus, True) == tuple(
                (b,) for b in dict.fromkeys(block_of)
            ), name
            assert _dominant_menus(make_quasi_component_clopen(sp, 1).menus.menus, True) == tuple(
                (b,) for b in blocks
            ), name

    def test_keeps_first_of_equal_menus(self):
        menus = ((0b011, 0b100), (0b001, 0b110), (0b011, 0b100))
        assert _dominant_menus(menus, False) == ((0b011, 0b100), (0b001, 0b110))
        assert _dominant_menus(menus + ((0b001, 0b010, 0b100),), False) == (
            (0b001, 0b010, 0b100),
        )


class TestWinnerSolver:
    """Every winner-only solve reads the one shared solver of its dominant
    menus, whatever the order of horizons, games and callers."""

    def test_any_horizon_order_n4(self, corpus3, corpus4, fresh_caches):
        spaces = [sp for _, sp in corpus3 + corpus4]
        names = sorted(GAME_BUILDERS)
        # a fresh full-family solver per horizon, which the closed form
        # agrees with
        expected = {}
        for i, sp in enumerate(spaces):
            for name in names:
                for k in range(sp.n + 2):
                    game = GAME_BUILDERS[name](sp, k)
                    winner = Solver(game.menus.menus, game.full, game.negated).value(0, k)
                    assert winner == closed_form_verdict(sp, name, k)[0], (sp, name, k)
                    expected[i, name, k] = winner
        assert len(expected) == 11470
        rng = random.Random(5)

        def shuffled(sp) -> list:
            # the five games of the space interleaved
            items = [(name, k) for name in names for k in range(sp.n + 2)]
            rng.shuffle(items)
            return items

        orders = (
            lambda sp: [(name, k) for name in names for k in range(sp.n + 2)],
            lambda sp: [(name, k) for name in names for k in range(sp.n + 1, -1, -1)],
            shuffled,
        )
        for order in orders:
            plan = [(i, sp, order(sp)) for i, sp in enumerate(spaces)]
            _winner_solver.cache_clear()
            added = Counter()  # the no-witness stats reported, per shared solver
            for i, sp, items in plan:
                for name, k in items:
                    game = GAME_BUILDERS[name](sp, k)
                    verdict = solve(game, want_witness=False)
                    assert verdict.winner == expected[i, name, k], (sp, name, k)
                    assert solve(game, want_witness=False).stats == 0
                    added[_cut_solver(game)] += verdict.stats
            assert all(len(solver.memo) == count for solver, count in added.items())
            _winner_solver.cache_clear()
            for i, sp, items in plan:
                for name, k in items:
                    found = winners(GAME_BUILDERS[name](sp, k))
                    assert found == [expected[i, name, j] for j in range(k + 1)], (sp, name, k)

    def test_point_and_block_games_share_a_solver_n4(self, corpus3, corpus4):
        # their dominant menus are equal, and the horizon is not in the key
        for name, sp in corpus3 + corpus4:
            shared = _cut_solver(make_point_clopen(sp, 1))
            assert _cut_solver(make_quasi_component_clopen(sp, 2)) is shared, name

    def test_the_cap_bounds_the_positions_stored(self, monkeypatch, fresh_caches):
        # a cold search stores nothing until its first descent bottoms out,
        # so a cap checked before the descent would let this one store 12
        game = make_mildly_rothberger(discrete_space(3), 11)
        monkeypatch.setattr("topogame.games.STATE_CAP", 2)
        with pytest.raises(CapExceeded, match="^solver state cap 2 exceeded$"):
            solve(game, want_witness=False)
        assert len(_cut_solver(game).memo) == 2

    def test_a_cap_hit_leaves_the_shared_solver_correct(self, monkeypatch, fresh_caches):
        # the clopen covers of discrete-4 cut to the one partition into
        # points, and the search stops at its third finished position
        game = make_mildly_rothberger(discrete_space(4), 4)
        solver = _cut_solver(game)
        monkeypatch.setattr("topogame.games.STATE_CAP", 2)
        with pytest.raises(CapExceeded, match="^solver state cap 2 exceeded$"):
            solve(game, want_witness=False)
        monkeypatch.undo()
        assert _cut_solver(game) is solver and len(solver.memo) == 2
        # each stored move is the one a fresh solver stores at that key
        fresh = Solver(solver.menus, solver.full, False)
        for key, move in solver.memo.items():
            fresh.value(*key)
            assert fresh.memo[key] == move, key
        for k in range(5):
            game = make_mildly_rothberger(discrete_space(4), k)
            expected = Solver(game.menus.menus, game.full, False).value(0, k)
            assert solve(game, want_witness=False).winner == expected
        assert winners(game) == [ALICE] * 4 + [BOB]


class TestStoredMoves:
    """The value search stores the winner's least winning move at every
    position it finishes, which is what witnesses are read from."""

    def test_every_stored_move_is_the_least_winning_move_n3(self, corpus3, fresh_caches):
        witness_entries = cut_entries = 0
        for name, sp in corpus3:
            for make in ALL_GAMES:
                # the solver of each witness solve
                for k in range(sp.n + 2):
                    game = make(sp, k)
                    solver = Solver(game.menus.menus, game.full, game.negated)
                    solver.value(0, k)
                    for key, move in solver.memo.items():
                        assert move == reference_least_move(game, *key), (name, make.__name__, k, key)
                    witness_entries += len(solver.memo)
                # the shared solver of the dominant menus, read against them
                game = make(sp, sp.n + 1)
                winners(game)
                solver = _cut_solver(game)
                cut = dataclasses.replace(game, menus=MenuFamily(solver.menus))
                for key, move in solver.memo.items():
                    assert move == reference_least_move(cut, *key), (name, make.__name__, key)
                cut_entries += len(solver.memo)
        assert (witness_entries, cut_entries) == (1228, 843)


class TestMinWinHorizon:
    def test_discrete3(self):
        d3 = discrete_space(3)
        assert winners(make_mildly_rothberger(d3, 3)).index(BOB) == 3
        assert winners(make_point_clopen(d3, 3)).index(ALICE) == 3

    def test_connected_space(self, sierpinski):
        assert winners(make_mildly_rothberger(sierpinski, 2)).index(BOB) == 1

    def test_none_when_cap_too_small(self):
        d3 = discrete_space(3)
        assert BOB not in winners(make_mildly_rothberger(d3, 2))


class TestPlayoutAndVerify:
    def test_witness_beats_fixed_alice(self, two_block3):
        game = make_mildly_rothberger(two_block3, 2)
        v = solve(game)
        # Alice always replays the two-block cover (menu 1)
        alice = per_round_table(game, ALICE, [1, 1])
        t = playout(game, alice, v.witness)
        assert t.outcome == BOB
        assert all(b in game.menus.menus[mi] for mi, b in t.rounds)

    def test_repeat_first_member_fails(self):
        d2 = discrete_space(2)
        game = make_mildly_rothberger(d2, 2)
        bob = per_round_table(game, BOB, [tuple(menu[0] for menu in game.menus.menus)] * 2)
        assert not verify_winning(game, bob)

    def test_out_of_menu_move_raises(self, two_block3):
        game = make_mildly_rothberger(two_block3, 1)
        assert game.menus.menus == ((0b111,), (0b001, 0b110))
        alice = per_round_table(game, ALICE, [1])
        bob = per_round_table(game, BOB, [(0b111, 0b010)])  # {1} is not in the cover
        with pytest.raises(OffMenuMove, match="pick 2 off menu 1"):
            playout(game, alice, bob)
        far = per_round_table(game, ALICE, [len(game.menus.menus)])
        with pytest.raises(OffMenuMove, match="out of range"):
            playout(game, far, bob)

    def test_zero_horizon_empty_space_bob_wins(self):
        empty = validate_topology([0], 0)
        game = make_rothberger(empty, 0)
        bob = Strategy(player=BOB, table={})
        assert verify_winning(game, bob)

    def test_solver_witnesses_verify(self, corpus3):
        for _, sp in corpus3:
            for make in ALL_GAMES:
                for k in range(sp.n + 1):
                    game = make(sp, k)
                    v = solve(game)
                    assert v.witness is not None
                    assert verify_winning(game, v.witness), (sp, make.__name__, k)


class TestHistoryTreeOracle:
    def test_abstract_solver_matches_history_tree(self, corpus3):
        spaces = [sp for _, sp in corpus3 if sp.n <= 2] + [validate_topology([0], 0)]
        for sp in spaces:
            for make in ALL_GAMES:
                if sp.n == 0 and make in (make_point_open, make_point_clopen, make_quasi_component_clopen):
                    continue
                for k in range(4):
                    game = make(sp, k)
                    assert solve(game, want_witness=False).winner == history_tree_winner(game)


class TestSaturation:
    def test_winner_stable_beyond_saturating_horizon(self, corpus3):
        for _, sp in corpus3:
            kstar = saturating_horizon(sp)
            for make in ALL_GAMES:
                w = solve(make(sp, kstar), want_witness=False).winner
                assert solve(make(sp, kstar + 1), want_witness=False).winner == w
                assert solve(make(sp, kstar + 2), want_witness=False).winner == w


def _verdict_lines(space, horizons) -> tuple[list[str], list[str]]:
    """The JSON line of each witness solve, once with the witness as its
    history view (null when the view passes HISTORY_CAP entries) and once
    as it is, positional."""
    views, positional = [], []
    for name in sorted(GAME_BUILDERS):
        for k in horizons:
            try:
                game = GAME_BUILDERS[name](space, k)
            except EmptySpace:
                continue
            v = solve(game)
            positional.append(dumps_stable(verdict_to_json(v)) + "\n")
            obj = verdict_to_json(dataclasses.replace(v, witness=None))
            try:
                obj["witness"] = history_to_json(history_view(game, v.witness))
            except CapExceeded:
                pass
            views.append(dumps_stable(obj) + "\n")
    return views, positional


def _sha256(lines: list[str]) -> str:
    return hashlib.sha256("".join(lines).encode()).hexdigest()


class TestPinnedVerdicts:
    """Winners, state counts and witness tables, byte for byte: any change
    to the solver's traversal or to witness extraction shows here. The
    history-view hashes are those of the full-history witnesses solve
    returned before its witnesses were positional, as the package wrote
    full-history files, so the two forms agree."""

    def test_every_game_and_horizon_n3(self):
        views, positional = [], []
        for n in range(4):
            for sp in enumerate_topologies(n):
                v, p = _verdict_lines(sp, range(n + 1))
                views += v
                positional += p
        assert len(views) == len(positional) == 652
        assert _sha256(views) == "220ca824e982aa0fea28b53672fddd42afcfe9d1a99f103717ec9028838a5d6d"
        assert _sha256(positional) == "65b87df76d77e63284f831e02b23fade92a4c797b822d133d3567ece7ca797cc"

    def test_first_two_n4_spaces_at_horizon_4(self, corpus4):
        views, positional = _verdict_lines(corpus4[0][1], [4])
        more = _verdict_lines(corpus4[1][1], [4])
        views += more[0]
        positional += more[1]
        assert len(views) == len(positional) == 10
        assert _sha256(views) == "9b99a9ef56a81686e3843c507fa4ca10d658567c75899fa276892363c819a4d8"
        assert _sha256(positional) == "8d784ae8cd75f660c350b55f20fe6aa713839b38bce8215b8547c473e7f51f8f"

    def test_every_n4_space_at_horizon_4(self):
        # about 54 MB of history-view JSON, hashed line by line; under 1 MB
        # of positional JSON
        views, positional = hashlib.sha256(), hashlib.sha256()
        count = 0
        for sp in enumerate_topologies(4):
            v, p = _verdict_lines(sp, [4])
            for line in v:
                views.update(line.encode())
            for line in p:
                positional.update(line.encode())
            count += len(p)
        assert count == 1775
        assert views.hexdigest() == "c74b3ae0772acad3142a51f0c72b4c79ef73c5f2c32a863afe650d74b9020908"
        assert positional.hexdigest() == "f1c3ab3f5b8792f5a7c43794dcd2e336e0aeed32fda451def93190d5a828511d"

    def test_restricted_witnesses_n4(self, corpus3, corpus4):
        # the predetermined-Alice, then the Markov-Bob witness of each game
        # and horizon; null when the class has no win
        lines = []
        for _, sp in corpus3 + corpus4:
            for name in sorted(GAME_BUILDERS):
                for k in range(sp.n + 1):
                    game = GAME_BUILDERS[name](sp, k)
                    for player, search in ((ALICE, predetermined_alice_search), (BOB, markov_bob_search)):
                        moves = search(game)
                        obj = None if moves is None else restricted_to_json(player, moves)
                        lines.append(dumps_stable(obj) + "\n")
        assert len(lines) == 19050
        assert _sha256(lines) == "4051950e2681fbff04f8698d5c6000917ca87c54f69576921fc34176f9fc3673"

    @pytest.mark.parametrize("make", [make_rothberger, make_mildly_rothberger])
    def test_discrete4_cover_witness_at_horizon_4(self, make):
        # the history view of this witness passes HISTORY_CAP entries; the
        # positional witness is small and wins
        game = make(discrete_space(4), 4)
        v = solve(game)
        assert v.winner == BOB
        assert len(v.witness.table) <= 2**4 * 4
        assert verify_winning(game, v.witness)
        with pytest.raises(CapExceeded):
            history_view(game, v.witness)


def _view_size(game, s) -> int:
    """Entries of the history view of the positional strategy s, counted
    on positions without building it."""
    menus = game.menus.menus
    memo: dict = {}

    def size(covered: int, left: int) -> int:
        if left <= 0 or not menus:
            return 0
        key = (covered, left)
        if key not in memo:
            move = s.table[key]
            if s.player == ALICE:
                memo[key] = 1 + sum(size(covered | b, left - 1) for b in menus[move])
            else:
                memo[key] = sum(1 + size(covered | b, left - 1) for b in move)
        return memo[key]

    return size(0, game.horizon)


class TestPositionalWitnesses:
    def test_every_witness_n4(self, corpus3, corpus4):
        # every game at horizons 0..n+1: the positional witness wins and
        # reads back from its file; its history view, counted without being
        # built, fits under HISTORY_CAP on all but 16
        spaces = [validate_topology([0], 0)] + [sp for _, sp in corpus3 + corpus4]
        views = over_cap = 0
        for sp in spaces:
            for name in sorted(GAME_BUILDERS):
                for k in range(sp.n + 2):
                    try:
                        game = GAME_BUILDERS[name](sp, k)
                    except EmptySpace:
                        continue
                    v = solve(game)
                    s = v.witness
                    assert s.player == v.winner
                    assert len(s.table) <= 2**sp.n * k
                    assert verify_winning(game, s), (sp, name, k)
                    assert strategy_from_json(strategy_to_json(s), sp.n) == s
                    if _view_size(game, s) > HISTORY_CAP:
                        over_cap += 1
                    else:
                        views += 1
        assert (views, over_cap) == (11458, 16)

    def test_largest_witness_n4(self):
        # 41 positions, well within 2^4 * 5
        v = solve(make_rothberger(discrete_space(4), 5))
        assert len(v.witness.table) == 41

    def test_positions_follow_the_winners_play(self, two_block3):
        # Bob's pick from each menu at each position his picks can reach
        game = make_mildly_rothberger(two_block3, 2)
        assert game.menus.menus == ((0b111,), (0b001, 0b110))
        s = solve(game).witness
        assert s.table == {(0, 2): (0b111, 0b001), (0b001, 1): (0b111, 0b110), (0b111, 1): (0b111, 0b001)}

    def test_verify_rejects_a_missing_or_short_entry(self, two_block3):
        game = make_mildly_rothberger(two_block3, 2)
        table = dict(solve(game).witness.table)
        del table[(0b001, 1)]
        assert not verify_winning(game, Strategy(player=BOB, table=table))
        table[(0b001, 1)] = (0b111,)  # one pick for two menus
        assert not verify_winning(game, Strategy(player=BOB, table=table))

    def test_verify_stops_at_a_full_mask(self, two_block3):
        # a full covered mask decides the play, so no move is asked for there
        game = make_mildly_rothberger(two_block3, 2)
        table = dict(solve(game).witness.table)
        del table[(0b111, 1)]
        assert verify_winning(game, Strategy(player=BOB, table=table))


def _off_menu(menu: tuple) -> int:
    """The least mask that is not a member of menu."""
    m = 0
    while m in menu:
        m += 1
    return m


def _corruptions(game, s, rng) -> list:
    """Copies of s with one fault each, at entries drawn by rng: an entry
    deleted; then Alice's menu index out of range, or Bob's pick off its
    menu and, in another copy, his pick tuple one short."""
    if not s.table:
        return []
    menus = game.menus.menus

    def replaced(key, move):
        table = dict(s.table)
        if move is None:
            del table[key]
        else:
            table[key] = move
        return dataclasses.replace(s, table=table)

    keys = list(s.table)
    out = [replaced(rng.choice(keys), None)]
    key = rng.choice(keys)
    move = s.table[key]
    if s.player == ALICE:
        out.append(replaced(key, len(menus)))
    else:
        mi = rng.randrange(len(move))
        out.append(replaced(key, move[:mi] + (_off_menu(menus[mi]),) + move[mi + 1:]))
        out.append(replaced(key, move[:-1]))
    return out


def _strategies(game, sp, name) -> list:
    """(origin, strategy, per-round moves) of each strategy the package
    gives for the game: the solver's witness; the predetermined-Alice and
    Markov-Bob moves, where the class wins, walked into tables; and in the
    clopen cover game the block strategy's moves (`oracles.block_picks`),
    walked into a table. The moves are None where the strategy is not
    walked from per-round moves."""
    found = [("solver", solve(game).witness, None)]
    for origin, player, search in (
        ("predetermined", ALICE, predetermined_alice_search),
        ("markov", BOB, markov_bob_search),
    ):
        moves = search(game)
        if moves is not None:
            found.append((origin, per_round_table(game, player, moves), moves))
    if name == "mildly-rothberger" and sp.n:
        picks = block_picks(sp, game)
        found.append(("b3", per_round_table(game, BOB, picks), picks))
    return found


class TestVerifyWalk:
    """`verify_winning`'s round-by-round walk against the recursive
    reference verifier."""

    def test_agrees_with_the_recursive_verifier_n3(self):
        # every space with n <= 3, five games, horizons 0..n+1: the solver
        # witness, the restricted witnesses, the block strategy in the
        # clopen cover game, and corrupted copies of each
        rng = random.Random(0)
        verdicts = Counter()
        for n in range(4):
            for sp in enumerate_topologies(n):
                for name in sorted(GAME_BUILDERS):
                    for k in range(n + 2):
                        try:
                            game = GAME_BUILDERS[name](sp, k)
                        except EmptySpace:
                            continue
                        for origin, s, _ in _strategies(game, sp, name):
                            for t in [s] + _corruptions(game, s, rng):
                                won = verify_winning(game, t)
                                assert won == reference_verify(game, t), (sp, name, k, origin, t)
                                verdicts[won, origin] += 1
        # every origin both wins and loses
        origins = {"solver", "predetermined", "markov", "b3"}
        assert {origin for won, origin in verdicts if won} == origins
        assert {origin for won, origin in verdicts if not won} == origins

    def test_state_cap_names_the_strategy(self, monkeypatch):
        game = make_rothberger(discrete_space(3), 3)
        witness = solve(game).witness
        monkeypatch.setattr("topogame.games.STATE_CAP", 2)
        with pytest.raises(CapExceeded, match="^verification of bob's positional strategy: state cap 2 exceeded$"):
            verify_winning(game, witness)


def _reference_nodes(game, s, moves) -> list:
    """Every node the opponent can reach against s, as (covered, round,
    Alice's current menu, move): the node, Alice's menu for Bob's pick
    from the whole move `Strategy.move_at` returns there, and the move s
    was made from. That is moves[round] (Alice's menu, or
    Bob's pick from the current menu) where s was walked from per-round
    moves, and otherwise the entry `oracles.playout` reads."""
    menus = game.menus.menus
    k = game.horizon

    def lookup(alice_moves: tuple, covered: int, rnd: int):
        if moves is None:
            return reference_move(s, alice_moves, covered, rnd, k)
        return moves[rnd] if s.player == ALICE else moves[rnd][alice_moves[-1]]

    nodes = []
    frontier = [((), 0)]  # (Alice's menus, covered mask)
    for rnd in range(k if menus else 0):
        nxt = []
        for alice_moves, covered in frontier:
            if s.player == ALICE:
                mi = lookup(alice_moves, covered, rnd)
                nodes.append((covered, rnd, 0, mi))
                replies = [(mi, b) for b in menus[mi]]
            else:
                replies = []
                for mi in range(len(menus)):
                    b = lookup(alice_moves + (mi,), covered, rnd)
                    nodes.append((covered, rnd, mi, b))
                    replies.append((mi, b))
            nxt += [(alice_moves + (mi,), covered | b) for mi, b in replies]
        frontier = nxt
    return nodes


class TestMoveAt:
    def test_matches_the_reference_lookup_n3(self, corpus3):
        # every strategy, at every node the opponent can reach, horizons 0..n
        spaces = [validate_topology([0], 0)] + [sp for _, sp in corpus3]
        origins, nodes = Counter(), 0
        for sp in spaces:
            for name in sorted(GAME_BUILDERS):
                for k in range(sp.n + 1):
                    try:
                        game = GAME_BUILDERS[name](sp, k)
                    except EmptySpace:
                        continue
                    for origin, s, moves in _strategies(game, sp, name):
                        origins[s.player, origin] += 1
                        for covered, rnd, menu, move in _reference_nodes(game, s, moves):
                            found = s.move_at(covered, k - rnd)
                            assert (found[menu] if s.player == BOB else found) == move, (sp, name, k, origin)
                            nodes += 1
        # 438 Markov strategies: 308 from the search and 130 block strategies
        assert origins == {
            (ALICE, "solver"): 344, (ALICE, "predetermined"): 344,
            (BOB, "markov"): 308, (BOB, "b3"): 130, (BOB, "solver"): 308,
        }
        assert nodes == 7045


class TestClosedForm:
    def test_every_space_n4(self, corpus3, corpus4):
        # full winners, predetermined Alice and Markov Bob at horizons
        # 0..n+1 against the counts of maximal U_x and of quasi-components
        spaces = [validate_topology([0], 0)] + [sp for _, sp in corpus3 + corpus4]
        checked = 0
        for sp in spaces:
            for name in sorted(GAME_BUILDERS):
                try:
                    full = winners(GAME_BUILDERS[name](sp, sp.n + 1))
                except EmptySpace:
                    continue
                for k in range(sp.n + 2):
                    game = GAME_BUILDERS[name](sp, k)
                    found = (
                        full[k],
                        predetermined_alice_search(game) is not None,
                        markov_bob_search(game) is not None,
                    )
                    assert found == closed_form_verdict(sp, name, k), (sp, name, k)
                    checked += 1
        assert checked == 11474
