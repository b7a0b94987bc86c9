import hashlib

import pytest

from oracles import (
    block_picks,
    discrete_space,
    history_to_json,
    history_view,
    per_round_table,
    reference_extract,
    unfold,
)
from topogame.errors import EmptySpace, IllegalMove, IllegalSourceStrategy
from topogame.games import (
    ALICE,
    BOB,
    Strategy,
    make_mildly_rothberger,
    make_point_clopen,
    make_quasi_component_clopen,
    solve,
    verify_winning,
    walk_positions,
)
from topogame.lab import (
    b3_markov_strategy,
    check_b1_translations,
    check_b3,
    check_duality,
    check_extraction,
    check_min_horizon_law,
    check_pc_qc_equivalence,
    check_th314,
    check_zero_dim_equivalence,
    extract_qs_tree,
    translate_b1,
)
from topogame.topology import (
    clopen_algebra,
    points_of,
    quasi_components,
    validate_topology,
)
from topogame.serialize import dumps_stable, strategy_to_json


class TestTranslations:
    def test_alice_pc_to_qc_sierpinski(self, sierpinski):
        v = solve(make_point_clopen(sierpinski, 1))
        assert v.winner == ALICE
        report = translate_b1("alice-pc-to-qc", v.witness, sierpinski, 1)
        assert report.input_winning and report.output_winning and report.preserved
        # single quasi-component: the translated strategy names block 0
        assert set(report.output.table.values()) == {0}

    def test_bob_qc_to_pc_two_block(self, two_block3):
        v = solve(make_quasi_component_clopen(two_block3, 1))
        assert v.winner == BOB
        report = translate_b1("bob-qc-to-pc", v.witness, two_block3, 1)
        assert report.input_winning and report.preserved

    def test_alice_qc_to_pc_discrete3(self):
        d3 = discrete_space(3)
        v = solve(make_quasi_component_clopen(d3, 3))
        assert v.winner == ALICE
        report = translate_b1("alice-qc-to-pc", v.witness, d3, 3)
        assert report.input_winning and report.preserved

    def test_all_directions_preserve_on_corpus(self, corpus3):
        for _, sp in corpus3:
            if sp.n > 2:
                continue
            for k in range(sp.n + 1):
                for make, directions in (
                    (make_point_clopen, {"alice": "alice-pc-to-qc", "bob": "bob-pc-to-qc"}),
                    (make_quasi_component_clopen, {"alice": "alice-qc-to-pc", "bob": "bob-qc-to-pc"}),
                ):
                    v = solve(make(sp, k))
                    report = translate_b1(directions[v.winner], v.witness, sp, k)
                    assert report.input_winning and report.preserved

    def test_rejects_out_of_menu_strategy(self, two_block3):
        bad = Strategy(player=ALICE, table={(0, 1): 99})
        with pytest.raises(IllegalSourceStrategy):
            translate_b1("alice-pc-to-qc", bad, two_block3, 1)

    def test_positional_input_reads_as_its_history_view(self, corpus3):
        # a positional source is read at (covered mask, rounds left) of the
        # target node and gives a positional table. Its history view is the
        # source's history view carried line by line: Bob's masks are the
        # same in both games, Alice's point maps to its block, and her
        # block to its least point
        for _, sp in corpus3:
            part = quasi_components(sp)
            reps = [points_of(block)[0] for block in part.blocks]
            for k in range(sp.n + 1):
                for make, target, directions, to_block in (
                    (make_point_clopen, make_quasi_component_clopen,
                     {ALICE: "alice-pc-to-qc", BOB: "bob-pc-to-qc"}, True),
                    (make_quasi_component_clopen, make_point_clopen,
                     {ALICE: "alice-qc-to-pc", BOB: "bob-qc-to-pc"}, False),
                ):
                    game = make(sp, k)
                    v = solve(game)
                    report = translate_b1(directions[v.winner], v.witness, sp, k)
                    assert report.input_winning and report.output_winning and report.preserved
                    source = history_view(game, v.witness).table
                    carried = history_view(target(sp, k), report.output).table
                    if v.winner == ALICE:
                        to_target = part.index_of if to_block else reps.__getitem__
                        assert carried == {ctx: to_target(mi) for ctx, mi in source.items()}
                    else:
                        # Alice's target menus, as menus of the source game
                        to_source = reps.__getitem__ if to_block else part.index_of
                        assert carried == {ctx: source[tuple(map(to_source, ctx))] for ctx in carried}

    @pytest.mark.parametrize(
        "table",
        [
            {(0, 1): (0b111,)},  # one pick for two menus
            {(0, 1): (0b111, 0b010)},  # {1} is not clopen
        ],
    )
    def test_rejects_out_of_menu_positional(self, two_block3, table):
        bad = Strategy(player=BOB, table=table)
        with pytest.raises(IllegalSourceStrategy):
            translate_b1("bob-qc-to-pc", bad, two_block3, 1)

    def test_rejects_wrong_player(self, two_block3):
        v = solve(make_quasi_component_clopen(two_block3, 1))  # Bob wins
        with pytest.raises(IllegalSourceStrategy):
            translate_b1("alice-qc-to-pc", v.witness, two_block3, 1)


class TestB3Markov:
    def test_connected_space_wins_round_one(self, sierpinski):
        s = b3_markov_strategy(sierpinski)
        # one menu, the whole space, and one position
        assert (s.player, s.table) == (BOB, {(0, 1): (0b11,)})
        assert verify_winning(make_mildly_rothberger(sierpinski, 1), s)

    def test_two_block_wins_at_two(self, two_block3):
        s = b3_markov_strategy(two_block3)
        assert verify_winning(make_mildly_rothberger(two_block3, 2), s)

    def test_markov_class_is_read_off_the_table(self, monkeypatch, two_block3):
        # picks that differ between two positions of one round are not
        # Markov, though this strategy still wins: the full mask after
        # round 0 decides the play
        s = b3_markov_strategy(two_block3)
        assert s.table[(0b001, 1)] == s.table[(0b111, 1)] == (0b111, 0b110)
        table = {**s.table, (0b111, 1): (0b111, 0b001)}
        monkeypatch.setattr("topogame.lab.b3_markov_strategy", lambda space: Strategy(player=BOB, table=table))
        report = check_b3(two_block3)
        assert report["facts"] == {"blocks": 2, "markov_class": False, "winning": True}
        assert report["pass"] is False

    def test_discrete4_needs_exactly_four(self):
        d4 = discrete_space(4)
        short = make_mildly_rothberger(d4, 3)
        assert not verify_winning(short, per_round_table(short, BOB, block_picks(d4, short)))
        assert verify_winning(make_mildly_rothberger(d4, 4), b3_markov_strategy(d4))

    def test_is_the_block_picks_walked(self, corpus3, corpus4):
        # the tests build the block strategy at any horizon from
        # `oracles.block_picks`; at #blocks it is the package's
        for _, sp in corpus3 + corpus4:
            game = make_mildly_rothberger(sp, len(quasi_components(sp).blocks))
            assert b3_markov_strategy(sp) == per_round_table(game, BOB, block_picks(sp, game))

    def test_empty_space(self):
        with pytest.raises(EmptySpace):
            b3_markov_strategy(validate_topology([0], 0))

    def test_clopen_absorption(self, corpus3, corpus4):
        # the engine of the block strategy: a clopen set containing a point
        # contains its whole quasi-component
        for _, sp in corpus3 + corpus4:
            part = quasi_components(sp)
            for c in clopen_algebra(sp).sets:
                for x in range(sp.n):
                    if c & (1 << x):
                        block = part.blocks[part.index_of(x)]
                        assert c & block == block


class TestExtraction:
    def test_winning_strategy_covers_discrete2(self):
        d2 = discrete_space(2)
        game = make_quasi_component_clopen(d2, 2)
        v = solve(game)
        assert v.winner == ALICE
        blocks = quasi_components(d2).blocks
        seqs = {i: [b] for i, b in enumerate(blocks)}
        result = extract_qs_tree(d2, v.witness, seqs, 2)
        assert result.covers and result.counterexample is None
        assert set(result.tree.values()) == {0b01, 0b10}

    def test_planted_strategy_yields_counterexample(self):
        d2 = discrete_space(2)
        blocks = quasi_components(d2).blocks
        seqs = {i: [b] for i, b in enumerate(blocks)}
        # always name block 0, ignoring Bob entirely
        phi = per_round_table(make_quasi_component_clopen(d2, 2), ALICE, [0, 0])
        result = extract_qs_tree(d2, phi, seqs, 2)
        assert not result.covers
        y, transcript = result.counterexample
        assert y == 1
        assert transcript.outcome == BOB
        assert all(mi == 0 and v == 0b01 for mi, v in transcript.rounds)

    def test_single_block_depth_zero(self, sierpinski):
        # the root is read at no rounds left, on the final layer
        phi = Strategy(player=ALICE, table={(0, 0): 0})
        result = extract_qs_tree(sierpinski, phi, {0: [0b11]}, 0)
        assert result.covers
        assert result.tree == {(): 0b11}

    def test_nontrivial_clopen_sequences(self):
        # descending chain of clopen supersets instead of the singleton
        d3 = discrete_space(3)
        game = make_quasi_component_clopen(d3, 3)
        phi = solve(game).witness
        blocks = quasi_components(d3).blocks
        seqs = {
            0: [0b111, 0b011, 0b001],
            1: [0b011, 0b010],
            2: [0b110, 0b100],
        }
        result = extract_qs_tree(d3, phi, seqs, 3)
        assert result.covers

    def test_rejects_a_bob_strategy(self):
        # Bob's picks are member masks, not block indices: read as Alice's,
        # his first pick from menu 0 would name a block
        d2 = discrete_space(2)
        game = make_quasi_component_clopen(d2, 2)
        first = tuple(menu[0] for menu in game.menus.menus)
        phi = walk_positions(game, BOB, lambda covered, left: first)
        seqs = {i: [b] for i, b in enumerate(quasi_components(d2).blocks)}
        with pytest.raises(ValueError, match=r"^extract_qs_tree reads an Alice strategy, not bob's$"):
            extract_qs_tree(d2, phi, seqs, 2)

    def test_rejects_bad_sequence(self, two_block3):
        phi = Strategy(player=ALICE, table={(0, 1): 0})
        with pytest.raises(ValueError):
            extract_qs_tree(two_block3, phi, {0: [0b110], 1: [0b110]}, 1)

    @pytest.mark.parametrize("bi", [-1, 2])
    def test_rejects_block_index_out_of_range(self, two_block3, bi):
        # two blocks: -1 must not read as the last one, nor 2 fail bare
        seqs = {0: [0b001], 1: [0b110]}
        phi = Strategy(player=ALICE, table={(0, 2): 1, (0b110, 1): bi})
        with pytest.raises(ValueError, match=rf"^phi names block index {bi} of 2 blocks at node \(0,\)$"):
            extract_qs_tree(two_block3, phi, seqs, 2)
        phi = Strategy(player=ALICE, table={(0, 1): 0})
        with pytest.raises(ValueError, match=rf"^clopen_seqs names block index {bi} of 2 blocks$"):
            extract_qs_tree(two_block3, phi, {**seqs, bi: [0b110]}, 1)

    @pytest.mark.parametrize("depth", [1, 2])
    def test_rejects_a_block_without_a_sequence(self, two_block3, depth):
        # phi names block 1, which clopen_seqs has no sequence for
        phi = Strategy(player=ALICE, table={(0, 2): 1, (0b110, 1): 1, (0, 1): 1})
        with pytest.raises(ValueError, match=r"^clopen_seqs has no sequence for block 1 of 2 blocks$"):
            extract_qs_tree(two_block3, phi, {0: [0b001]}, depth)

    def test_missing_entry_above_the_final_layer_raises(self):
        d2 = discrete_space(2)
        seqs = {0: [0b11, 0b01], 1: [0b10]}
        # Bob's reply {0} in round 0 has no entry
        table = {(0, 2): 0, (0b11, 1): 1}
        phi = Strategy(player=ALICE, table=table)
        with pytest.raises(IllegalMove, match=r"context \[\[0\], 1\]$"):
            extract_qs_tree(d2, phi, seqs, 2)
        # with that entry, only the final layer, with no rounds left, is
        # missing, and it is skipped
        phi = Strategy(player=ALICE, table={**table, (0b01, 1): 1})
        assert extract_qs_tree(d2, phi, seqs, 2).tree == {(): 0b01, (0,): 0b10, (1,): 0b10}

    def test_any_class_reads_as_its_history_view_n4(self, corpus3, corpus4):
        # the witness and the planted strategy of the extraction check,
        # which names block 0 every round, give the tree and counterexample
        # that the reference extraction reads off their full-history tables
        counterexamples = 0
        for _, sp in corpus3 + corpus4:
            blocks = quasi_components(sp).blocks
            k = max(sp.n, len(blocks))
            game = make_quasi_component_clopen(sp, k)
            seqs = {bi: [b] for bi, b in enumerate(blocks)}
            witness = solve(game).witness
            assert witness.player == ALICE
            planted = per_round_table(game, ALICE, [0] * k)
            for phi, view in (
                (witness, history_view(game, witness)),
                (planted, unfold(game, ALICE, lambda *node: 0)),
            ):
                result = extract_qs_tree(sp, phi, seqs, k)
                assert result == reference_extract(sp, view, seqs, k)
                counterexamples += result.counterexample is not None
        assert counterexamples == 133  # the planted strategy, on each space of two or more blocks


class TestChecks:
    def test_duality_holds_on_corpus(self, corpus3):
        for _, sp in corpus3:
            assert check_duality(sp)["pass"]

    def test_duality_connected_space(self, sierpinski):
        facts = check_duality(sierpinski)["facts"]
        assert facts["bob_g1"] and facts["alice_g2"]

    def test_duality_two_block(self, two_block3):
        facts = check_duality(two_block3)["facts"]
        assert not facts["alice_g1"] and not facts["bob_g2"]

    def test_zero_dim_pseudocircle_witness(self, pseudocircle):
        report = check_zero_dim_equivalence(pseudocircle)
        assert report["pass"]  # recorded only, not asserted
        assert not report["facts"]["zero_dimensional"]
        row = report["facts"]["per_horizon"][1]
        assert row["rothberger"] == ALICE and row["mildly_rothberger"] == BOB

    def test_zero_dim_discrete_trivially_equal(self):
        report = check_zero_dim_equivalence(discrete_space(3))
        assert report["pass"] and report["facts"]["zero_dimensional"]
        assert not report["facts"]["diverged"]

    def test_th314_corpus(self, corpus3):
        for _, sp in corpus3:
            assert check_th314(sp)["pass"]

    def test_min_horizon_law(self, corpus3):
        for _, sp in corpus3:
            assert check_min_horizon_law(sp)["pass"]

    def test_pc_qc_equivalence(self, corpus3):
        for _, sp in corpus3:
            assert check_pc_qc_equivalence(sp)["pass"]

    @pytest.mark.parametrize(
        "check",
        [
            check_duality,
            check_zero_dim_equivalence,
            check_b1_translations,
            check_b3,
            check_extraction,
            check_min_horizon_law,
            check_pc_qc_equivalence,
        ],
    )
    def test_empty_space_raises(self, check):
        # `check` starts at n = 1: the empty space has no points and no quasi-components
        with pytest.raises(EmptySpace):
            check(validate_topology([0], 0))

    def test_pc_qc_rows_are_pinned(self, corpus3, corpus4):
        # `check pc-qc --nmax 4` prints these rows, each with its space_id
        lines = [dumps_stable(check_pc_qc_equivalence(sp)) + "\n" for _, sp in corpus3 + corpus4]
        assert len(lines) == 389
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
            "624a939474cb6e40c1946e757164031a41bf9299647b5a12ca569effec1b1dbe"
        )


class TestPinnedTranslations:
    def test_translated_witnesses_n4(self, corpus3, corpus4):
        # the translation of each solver witness of the point-clopen, then
        # the block game: as it is, positional, and as its history view,
        # which is the full-history table translations wrote before their
        # output followed the class of their input
        views, positional = [], []
        for _, sp in corpus3 + corpus4:
            for k in range(sp.n + 1):
                for make, target, directions in (
                    (make_point_clopen, make_quasi_component_clopen,
                     {ALICE: "alice-pc-to-qc", BOB: "bob-pc-to-qc"}),
                    (make_quasi_component_clopen, make_point_clopen,
                     {ALICE: "alice-qc-to-pc", BOB: "bob-qc-to-pc"}),
                ):
                    v = solve(make(sp, k))
                    out = translate_b1(directions[v.winner], v.witness, sp, k).output
                    positional.append(dumps_stable(strategy_to_json(out)) + "\n")
                    view = history_view(target(sp, k), out)
                    views.append(dumps_stable(history_to_json(view)) + "\n")
        assert len(views) == len(positional) == 3810
        assert hashlib.sha256("".join(views).encode()).hexdigest() == (
            "8644a2387951be81def8f28877d5c94c959396245e628d371ef29078911cc24c"
        )
        assert hashlib.sha256("".join(positional).encode()).hexdigest() == (
            "4ef63f61ec2ba61e6eeada6ed521c09c95bbefc279bf210ccbe9daaa491a04bf"
        )
