import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import per_round_table, playout
from topogame.errors import FormatError, MissingEmptyOrFull, PointOutOfRange
from topogame.games import (
    ALICE,
    BOB,
    GAME_BUILDERS,
    make_mildly_rothberger,
    solve,
)
from topogame.serialize import (
    dumps_stable,
    space_from_json,
    space_to_json,
    strategy_from_json,
    strategy_to_json,
    transcript_to_json,
    verdict_to_json,
)
from topogame.topology import enumerate_topologies


class TestSpaceFormat:
    def test_roundtrip(self, two_block3):
        assert space_from_json(space_to_json(two_block3)) == two_block3

    def test_roundtrip_corpus(self):
        for sp in enumerate_topologies(3):
            assert space_from_json(space_to_json(sp)) == sp

    def test_rejects_invalid_topology(self):
        with pytest.raises(MissingEmptyOrFull):
            space_from_json({"n": 2, "opens": [[], [0], [1]]})

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": 2},
            {"opens": []},
            {"n": -1, "opens": []},
            {"n": 2, "opens": [[0], "x"]},
            {"n": 2, "opens": [[0, "a"]]},
            {"n": True, "opens": [[], [0]]},
            {"n": 2, "opens": [[], [True], [0, 1]]},
            [],
        ],
    )
    def test_rejects_malformed(self, obj):
        with pytest.raises(FormatError):
            space_from_json(obj)


class TestStrategyFormat:
    def test_roundtrip_every_witness_n3(self, corpus3):
        # the solver witness of every game and horizon; the dict form must
        # be readable as it is and encode to the same data, point lists
        # shared between entries included
        count = Counter()
        for _, sp in corpus3:
            for name in sorted(GAME_BUILDERS):
                for k in range(sp.n + 1):
                    s = solve(GAME_BUILDERS[name](sp, k)).witness
                    obj = strategy_to_json(s)
                    assert strategy_from_json(obj, sp.n) == s
                    assert json.loads(dumps_stable(obj)) == obj
                    count[s.player] += 1
        assert count == {ALICE: 344, BOB: 306}

    def test_positional_form(self, two_block3):
        # most rounds left first, then covered-mask order; Bob's move lists
        # his pick from each menu, in menu order
        s = solve(make_mildly_rothberger(two_block3, 2)).witness
        obj = strategy_to_json(s)
        assert obj == {
            "player": "bob",
            "class": "positional",
            "entries": [
                {"context": [[], 2], "move": [[0, 1, 2], [0]]},
                {"context": [[0], 1], "move": [[0, 1, 2], [1, 2]]},
                {"context": [[0, 1, 2], 1], "move": [[0, 1, 2], [0]]},
            ],
        }
        assert strategy_from_json(json.loads(dumps_stable(obj)), 3) == s
        alice = solve(make_mildly_rothberger(two_block3, 1)).witness
        assert strategy_to_json(alice)["entries"] == [{"context": [[], 1], "move": 1}]

    @pytest.mark.parametrize(
        "player, entry",
        [
            ("alice", {"context": [[], 0], "move": 0}),  # no rounds left
            ("alice", {"context": [[], True], "move": 0}),
            ("alice", {"context": [[], 1, 2], "move": 0}),
            ("alice", {"context": [[0]], "move": 0}),
            ("alice", {"context": 1, "move": 0}),
            ("alice", {"context": [0, 1], "move": 0}),
            ("alice", {"context": [[], 1], "move": [0]}),
            ("bob", {"context": [[], 1], "move": [0]}),  # a pick, not a list of picks
            ("bob", {"context": [[], 1], "move": 0}),
            ("bob", {"context": [[], 1], "move": [[0], [True]]}),
        ],
    )
    def test_rejects_malformed_positional(self, player, entry):
        with pytest.raises(FormatError):
            strategy_from_json({"player": player, "class": "positional", "entries": [entry]}, 2)

    @pytest.mark.parametrize(
        "player, entry",
        [
            ("alice", {"context": [[2], 1], "move": 0}),
            ("bob", {"context": [[], 1], "move": [[0], [2]]}),
        ],
    )
    def test_rejects_positional_point_outside_space(self, player, entry):
        with pytest.raises(PointOutOfRange):
            strategy_from_json({"player": player, "class": "positional", "entries": [entry]}, 2)

    def test_rejects_repeated_position(self):
        # [0, 1] and [1, 0] are one covered mask
        entries = [{"context": [[0, 1], 1], "move": 0}, {"context": [[1, 0], 1], "move": 0}]
        with pytest.raises(FormatError):
            strategy_from_json({"player": "alice", "class": "positional", "entries": entries}, 2)

    @pytest.mark.parametrize(
        "player, entry",
        [
            # a point is checked before it becomes a mask
            ("alice", {"context": [[0, 200_000_000], 1], "move": 0}),
            ("bob", {"context": [[], 1], "move": [[0, 2], [1]]}),
        ],
    )
    def test_rejects_point_outside_space(self, player, entry):
        obj = {"player": player, "class": "positional", "entries": [entry]}
        with pytest.raises(PointOutOfRange):
            strategy_from_json(obj, 2)

    def test_rejects_bad_class(self):
        with pytest.raises(FormatError):
            strategy_from_json({"player": "alice", "class": "psychic", "entries": []}, 2)

    @pytest.mark.parametrize("player, klass", [("alice", "markov"), ("bob", "pre")])
    def test_rejects_class_of_the_other_player(self, player, klass):
        # only positional files are read, so the old classes are refused
        # for either player
        with pytest.raises(FormatError):
            strategy_from_json({"player": player, "class": klass, "entries": []}, 2)

    @pytest.mark.parametrize("player, klass", [("alice", "pre"), ("bob", "markov")])
    def test_rejects_restricted_classes(self, player, klass):
        # refused at the class, before the entries are read
        obj = {"player": player, "class": klass, "entries": "not a list"}
        with pytest.raises(FormatError, match=f"^bad player/class pair '{player}'/'{klass}'$"):
            strategy_from_json(obj, 2)

    @pytest.mark.parametrize("klass", ["positional"])
    def test_rejects_non_integer_bob_context(self, klass):
        obj = {
            "player": "bob",
            "class": klass,
            "entries": [{"context": [[0], [1]], "move": [0]}],
        }
        with pytest.raises(FormatError):
            strategy_from_json(obj, 2)

    @pytest.mark.parametrize(
        "player, klass, entry",
        [
            ("alice", "positional", {"context": [[True], 1], "move": 0}),
            ("bob", "positional", {"context": [[], True], "move": [[0], [0]]}),
            ("bob", "positional", {"context": [[], 1], "move": [[True], [0]]}),
        ],
        # fixed ids, so each case keeps its name as cases come and go
        ids=["alice-positional-entry2", "bob-positional-entry4", "bob-positional-entry5"],
    )
    def test_rejects_booleans(self, player, klass, entry):
        # JSON true/false must not pass for rounds, menu indices or points
        with pytest.raises(FormatError):
            strategy_from_json({"player": player, "class": klass, "entries": [entry]}, 2)


class TestStableOutput:
    def test_verdict_byte_identical(self, two_block3):
        game = make_mildly_rothberger(two_block3, 2)
        a = dumps_stable(verdict_to_json(solve(game)))
        b = dumps_stable(verdict_to_json(solve(game)))
        assert a == b

    def test_transcript_shape(self, two_block3):
        game = make_mildly_rothberger(two_block3, 2)
        v = solve(game)
        alice = per_round_table(game, ALICE, [1, 1])
        t = playout(game, alice, v.witness)
        obj = transcript_to_json(t)
        assert obj["outcome"] == BOB
        assert all(set(r) == {"alice", "bob"} for r in obj["rounds"])

    @given(st.integers(min_value=0, max_value=28))
    @settings(max_examples=20, deadline=None)
    def test_space_json_deterministic(self, idx):
        sp = list(enumerate_topologies(3))[idx]
        assert dumps_stable(space_to_json(sp)) == dumps_stable(space_to_json(sp))
