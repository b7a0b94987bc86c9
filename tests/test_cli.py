import hashlib
import io
import itertools
import json

import pytest

from oracles import discrete_space, dump_space, restricted_to_json
from topogame import lab
from topogame.cli import main
from topogame.errors import CapExceeded
from topogame.lab import check_b3, check_pc_qc_equivalence
from topogame.serialize import (
    space_to_json,
    strategy_to_json,
)
from topogame.games import (
    ALICE,
    BOB,
    GAME_BUILDERS,
    STATE_CAP,
    SUBSET_WIDTH_CAP,
    Solver,
    _subsets,
    make_point_clopen,
    markov_bob_search,
    predetermined_alice_search,
    solve,
)
from topogame.topology import mask_of, validate_topology


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def space_file(tmp_path, two_block3):
    path = tmp_path / "space.json"
    dump_space(two_block3, str(path))
    return str(path)


class TestAnalyze:
    def test_file_source(self, capsys, space_file):
        code, out, _ = run(capsys, "analyze", space_file)
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 3
        assert report["quasi_components"] == 2
        assert report["zero_dimensional"] is True

    def test_enum_source(self, capsys):
        code, out, _ = run(capsys, "analyze", "enum:n=2:i=0")
        assert code == 0
        assert json.loads(out)["n"] == 2

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent/space.json")
        assert code == 2
        assert "error:" in err

    def test_directory_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "analyze", str(tmp_path))
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_non_utf8_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "space.json"
        path.write_bytes(b'\xff\xfe{"n": 1}')
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert err.startswith("error: ")

    def test_point_out_of_range_file(self, capsys, tmp_path):
        path = tmp_path / "space.json"
        path.write_text('{"n": 2, "opens": [[], [5], [0, 1]]}')
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert err.startswith("error: ")

    def test_boolean_n_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "space.json"
        path.write_text('{"n": true, "opens": [[], [0]]}')
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_negative_enum_n(self, capsys):
        code, _, err = run(capsys, "analyze", "enum:n=-1:i=0")
        assert code == 2
        assert err.startswith("error: ")

    # an unknown key, a part without "=", a repeated key, and values that
    # int() reads but that are not ASCII digits alone
    @pytest.mark.parametrize("spec", [
        "enum:k=3", "enum:n=3:i=2:k=9", "enum:n=3:i=2:junk", "enum:n=3:i=2:i=5",
        "enum:n=3:i=1_0", "enum:n=3:i= 2", "enum:n=+3:i=0", "enum:n=3:i=\u0663",
    ])
    def test_bad_enum_spec(self, capsys, spec):
        code, out, err = run(capsys, "analyze", spec)
        assert code == 2
        assert out == "" and err.startswith(f"error: bad enumerator spec {spec!r}")

    def test_enum_keys_in_either_order(self, capsys):
        code, out, _ = run(capsys, "analyze", "enum:i=2:n=3")
        assert code == 0
        assert json.loads(out)["space"] == json.loads(run(capsys, "analyze", "enum:n=3:i=2")[1])["space"]

    def test_non_integer_enum_index(self, capsys):
        code, _, err = run(capsys, "analyze", "enum:n=3:i=x")
        assert code == 2
        assert "error:" in err

    def test_enum_index_out_of_range(self, capsys):
        code, _, err = run(capsys, "analyze", "enum:n=2:i=99")
        assert code == 2

    def test_whole_corpus_rejected_for_single_space_command(self, capsys):
        code, _, err = run(capsys, "analyze", "enum:n=2")
        assert code == 2

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_spec_without_index_rejected_for_every_n(self, capsys, n):
        # a corpus of one space is still a corpus: a spec names one space by its index
        code, out, err = run(capsys, "analyze", f"enum:n={n}")
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_invalid_topology_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "opens": [[], [0], [1]]}')
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2

    def test_enumeration_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "analyze", "enum:n=5:i=0")
        assert code == 3
        assert "error:" in err


class TestSolve:
    def test_two_block_mildly_rothberger(self, capsys, space_file):
        code, out, _ = run(
            capsys, "solve", space_file, "--game", "mildly-rothberger", "--horizon", "2"
        )
        assert code == 0
        verdict = json.loads(out)
        assert verdict["winner"] == "bob"
        assert verdict["witness"]["player"] == "bob"

    def test_horizon_one_alice(self, capsys, space_file):
        code, out, _ = run(
            capsys, "solve", space_file, "--game", "mildly-rothberger", "--horizon", "1"
        )
        assert code == 0
        assert json.loads(out)["winner"] == "alice"

    def test_unknown_game_is_usage_error(self, capsys, space_file):
        with pytest.raises(SystemExit) as exc:
            main(["solve", space_file, "--game", "tag", "--horizon", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["solve", "play"])
    @pytest.mark.parametrize("game", ["point-open", "quasi-component-clopen"])
    def test_point_game_on_empty_space(self, capsys, command, game):
        # the empty space has no points, so no point or block menus
        argv = [command, "enum:n=0:i=0", "--game", game, "--horizon", "1"]
        if command == "play":
            argv += ["--role", "alice"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_horizon_out_of_bounds(self, capsys, space_file):
        with pytest.raises(SystemExit) as exc:
            main(["solve", space_file, "--game", "rothberger", "--horizon", "-1"])
        assert exc.value.code == 2

    def test_a_subset_table_past_its_cap_is_refused(self, capsys, tmp_path):
        # one cover with one member, yet the cut's subset table would hold
        # about 4**18 / 2 bits: it is refused before anything is built
        path = tmp_path / "indiscrete.json"
        path.write_text(json.dumps({"n": 18, "opens": [[], list(range(18))]}))
        cached = _subsets.cache_info().currsize
        code, out, err = run(capsys, "solve", str(path), "--game", "rothberger", "--horizon", "1")
        assert (code, out) == (3, "")
        assert err == f"error: subset table width 18 exceeds the cap of {SUBSET_WIDTH_CAP} points\n"
        assert _subsets.cache_info().currsize == cached
        path.write_text(json.dumps({"n": 12, "opens": [[], list(range(12))]}))
        code, out, _ = run(capsys, "solve", str(path), "--game", "rothberger", "--horizon", "1")
        assert code == 0 and json.loads(out)["winner"] == BOB

    def test_output_deterministic(self, capsys, space_file):
        argv = ["solve", space_file, "--game", "point-clopen", "--horizon", "2"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestCheck:
    def test_duality_n2_passes(self, capsys):
        code, out, _ = run(capsys, "check", "duality", "--nmax", "2")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 5  # 1 space at n=1 plus 4 at n=2
        assert all(r["pass"] for r in lines)
        assert all(
            set(r) == {"space_id", "check", "horizon", "facts", "pass"} for r in lines
        )

    def test_duality_n4_passes(self, capsys):
        code, out, _ = run(capsys, "check", "duality", "--nmax", "4")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 389
        assert all(r["pass"] for r in rows)

    def test_all_suites_n2(self, capsys):
        code, out, _ = run(capsys, "check", "all", "--nmax", "2")
        rows = [json.loads(line) for line in out.splitlines()]
        assert len({r["check"] for r in rows}) == 9  # eight suites plus the witness summary
        failing = [r for r in rows if not r["pass"]]
        # the only failure is the witness summary: two-point spaces are all
        # zero dimensional, so no divergence witness can exist yet
        assert code == 1
        assert [r["check"] for r in failing] == ["zerodim-witness"]

    def test_zerodim_witness_line_at_n4(self, capsys):
        code, out, _ = run(capsys, "check", "zerodim", "--nmax", "4")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        summary = [r for r in rows if r["check"] == "zerodim-witness"]
        assert len(summary) == 1
        assert summary[0]["facts"]["divergence_witness_found"] is True

    def test_zerodim_no_witness_at_n2_fails(self, capsys):
        # every space on two points with a clopen divergence would need a
        # non-zero-dimensional witness; none exists below four points
        code, out, _ = run(capsys, "check", "zerodim", "--nmax", "2")
        assert code == 1

    def test_out_file_and_repeatability(self, capsys, tmp_path):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        assert run(capsys, "check", "minhorizon", "--nmax", "3", "--out", str(out_a))[0] == 0
        assert run(capsys, "check", "minhorizon", "--nmax", "3", "--out", str(out_b))[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_all_n3_output_is_pinned(self, capsys, tmp_path):
        # the byte-identity contract: any change to a verdict, a fact, the
        # row order or the JSON layout of `check all --nmax 3` shows here
        out = tmp_path / "all3.jsonl"
        assert run(capsys, "check", "all", "--nmax", "3", "--out", str(out))[0] == 0
        lines = out.read_bytes().splitlines(keepends=True)
        assert len(lines) == 273
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "3f766bca0875049f4f01754f67584fa298d59bbbafca289a1ac8c2d2cfd67267"
        )
        # the suites before pc-qc, as they were pinned before it was added
        assert hashlib.sha256(b"".join(lines[:239])).hexdigest() == (
            "3d3b611087855687efac2b35c10d394ffbd21b6cf2bb75d8d558aa8878596ddd"
        )

    def test_all_n4_output_is_pinned(self, capsys, tmp_path):
        # the same contract over the whole n <= 4 corpus, divergence witness included
        out = tmp_path / "all4.jsonl"
        assert run(capsys, "check", "all", "--nmax", "4", "--out", str(out))[0] == 0
        lines = out.read_bytes().splitlines(keepends=True)
        assert len(lines) == 3113
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "7aaa94008aa5ffe981fc962d8b8b5dc75168e6fe79ca15c848a3bd1169c742f5"
        )
        assert hashlib.sha256(b"".join(lines[:2724])).hexdigest() == (
            "03a8fe8e1f1c78514665955e55fdd09fae610717871ba021824c5ae3823ba30c"
        )

    def test_pc_qc_rows_are_the_lab_check(self, capsys, corpus3, corpus4):
        code, out, _ = run(capsys, "check", "pc-qc", "--nmax", "4")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 389
        for row, (space_id, sp) in zip(rows, corpus3 + corpus4, strict=True):
            assert row.pop("space_id") == space_id
            assert row == check_pc_qc_equivalence(sp)

    @pytest.mark.parametrize("nmax", ["0", "-2"])
    def test_empty_corpus_is_usage_error(self, capsys, nmax):
        # a corpus with no space would pass every check vacuously
        with pytest.raises(SystemExit) as exc:
            main(["check", "b3", "--nmax", nmax])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_nmax_over_cap(self, capsys):
        code, out, err = run(capsys, "check", "b3", "--nmax", "5")
        assert code == 3
        assert out == "" and err.startswith("error: ")

    def test_cap_hit_names_suite_and_space(self, capsys, monkeypatch):
        calls = []

        def capped(space):
            calls.append(space)
            if len(calls) == 2:
                raise CapExceeded(f"verification cap {STATE_CAP} exceeded")
            return check_b3(space)

        monkeypatch.setitem(lab.SUITES, "b3", capped)
        code, out, err = run(capsys, "check", "b3", "--nmax", "2")
        assert code == 3
        # the row of the first space is already out
        assert [json.loads(line)["space_id"] for line in out.splitlines()] == ["n1#0"]
        assert err == f"error: check b3 on n2#0: verification cap {STATE_CAP} exceeded\n"

    def test_knowledge_search_cap_names_suite_and_space(self, capsys, monkeypatch, fresh_caches):
        monkeypatch.setattr("topogame.games.STATE_CAP", 2)
        code, out, err = run(capsys, "check", "th314", "--nmax", "3")
        assert code == 3
        assert [json.loads(line)["space_id"] for line in out.splitlines()] == ["n1#0"]
        assert err == "error: check th314 on n2#0: predetermined-Alice knowledge-set search state cap 2 exceeded\n"

    def test_unknown_suite(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "nonsense"])
        assert exc.value.code == 2


class TestTranslate:
    def test_roundtrip_through_files(self, capsys, tmp_path, two_block3):
        space_path = tmp_path / "space.json"
        dump_space(two_block3, str(space_path))
        v = solve(make_point_clopen(two_block3, 2))
        assert v.winner == "alice"
        strat_path = tmp_path / "strategy.json"
        strat_path.write_text(json.dumps(strategy_to_json(v.witness)))
        code, out, _ = run(
            capsys,
            "translate",
            str(strat_path),
            "--direction",
            "alice-pc-to-qc",
            "--space",
            str(space_path),
            "--horizon",
            "2",
        )
        assert code == 0
        report = json.loads(out)
        assert report["input_winning"] and report["preserved"]
        assert report["output"]["player"] == "alice"

    def test_malformed_strategy_file(self, capsys, tmp_path, space_file):
        strat_path = tmp_path / "strategy.json"
        strat_path.write_text("{not json")
        code, _, err = run(
            capsys,
            "translate",
            str(strat_path),
            "--direction",
            "alice-pc-to-qc",
            "--space",
            space_file,
            "--horizon",
            "1",
        )
        assert code == 2

    def test_non_utf8_strategy_file(self, capsys, tmp_path, space_file):
        strat_path = tmp_path / "strategy.json"
        strat_path.write_bytes(b"\xff\xfe{}")
        code, _, err = run(
            capsys,
            "translate",
            str(strat_path),
            "--direction",
            "alice-pc-to-qc",
            "--space",
            space_file,
            "--horizon",
            "1",
        )
        assert code == 2
        assert err.startswith("error: ")

    def test_strategy_of_the_wrong_player(self, capsys, tmp_path, space_file, two_block3):
        # an Alice strategy handed to a Bob direction is a usage error
        v = solve(make_point_clopen(two_block3, 2))
        assert v.winner == "alice"
        strat_path = tmp_path / "strategy.json"
        strat_path.write_text(json.dumps(strategy_to_json(v.witness)))
        code, _, err = run(
            capsys,
            "translate",
            str(strat_path),
            "--direction",
            "bob-pc-to-qc",
            "--space",
            space_file,
            "--horizon",
            "2",
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("entries", [[{}], "x"])
    def test_malformed_strategy_entries(self, capsys, tmp_path, space_file, entries):
        strat_path = tmp_path / "strategy.json"
        strat_path.write_text(
            json.dumps({"player": "alice", "class": "positional", "entries": entries})
        )
        code, _, err = run(
            capsys,
            "translate",
            str(strat_path),
            "--direction",
            "alice-pc-to-qc",
            "--space",
            space_file,
            "--horizon",
            "1",
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("point", [5, 200_000_000])
    def test_strategy_point_outside_space(self, capsys, tmp_path, point):
        # a point is checked against the space before it becomes a mask,
        # so a huge one is refused without building a huge int
        entries = [{"context": [[], 1], "move": 0}, {"context": [[point], 1], "move": 0}]
        strat_path = tmp_path / "strategy.json"
        strat_path.write_text(json.dumps({"player": "alice", "class": "positional", "entries": entries}))
        code, _, err = run(
            capsys,
            "translate",
            str(strat_path),
            "--direction",
            "alice-pc-to-qc",
            "--space",
            "enum:n=2:i=0",
            "--horizon",
            "1",
        )
        assert code == 2
        assert "error:" in err

    # the connected 3-point space: one quasi-component, one menu per point
    CONNECTED3 = {"n": 3, "opens": [[], [0], [0, 1, 2]]}

    def translate_file(self, capsys, tmp_path, strategy, direction, horizon):
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps(self.CONNECTED3))
        strat_path = tmp_path / "strategy.json"
        strat_path.write_text(json.dumps(strategy))
        return run(capsys, "translate", str(strat_path), "--direction", direction,
                   "--space", str(space_path), "--horizon", str(horizon))

    @pytest.mark.parametrize(
        "player, direction, contexts, move, horizon",
        [
            ("bob", "bob-pc-to-qc", [[[], 1], [[], 1]], [[0, 1, 2]] * 3, 1),
            # [0, 1, 2] and [2, 1, 0] are one point set, so one context
            ("alice", "alice-pc-to-qc", [[[], 2], [[0, 1, 2], 1], [[2, 1, 0], 1]], 0, 2),
        ],
    )
    def test_repeated_context(self, capsys, tmp_path, player, direction, contexts, move, horizon):
        # read last-wins, each file would translate without an error
        entries = [{"context": ctx, "move": move} for ctx in contexts]
        strategy = {"player": player, "class": "positional", "entries": entries}
        code, out, err = self.translate_file(capsys, tmp_path, strategy, direction, horizon)
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_missing_entry_is_named(self, capsys, tmp_path):
        # Alice names point 0 and Bob's first reply is {0}, where the file
        # has no move
        strategy = {"player": "alice", "class": "positional", "entries": [{"context": [[], 2], "move": 0}]}
        strat_path = tmp_path / "strategy.json"
        strat_path.write_text(json.dumps(strategy))
        code, out, err = run(capsys, "translate", str(strat_path), "--direction", "alice-pc-to-qc",
                             "--space", "enum:n=3:i=0", "--horizon", "2")
        assert code == 2
        assert out == ""
        assert err == "error: strategy has no entry at context [[0], 1]\n"

    def test_missing_positional_entry_is_named(self, capsys, tmp_path):
        # after the first round every point is covered, with one round left
        entries = [{"context": [[], 2], "move": [[0, 1, 2]] * 3}]
        strategy = {"player": "bob", "class": "positional", "entries": entries}
        strat_path = tmp_path / "strategy.json"
        strat_path.write_text(json.dumps(strategy))
        code, out, err = run(capsys, "translate", str(strat_path), "--direction", "bob-qc-to-pc",
                             "--space", "enum:n=3:i=0", "--horizon", "2")
        assert code == 2
        assert out == ""
        assert err == "error: strategy has no entry at context [[0, 1, 2], 1]\n"

    @pytest.mark.parametrize("witness_only", [False, True])
    def test_translates_what_solve_wrote(self, capsys, tmp_path, space_file, witness_only):
        # the verdict `solve` prints, or the positional witness cut from it
        code, out, _ = run(capsys, "solve", space_file, "--game", "point-clopen", "--horizon", "2")
        assert code == 0
        verdict = json.loads(out)
        assert verdict["witness"]["class"] == "positional"
        strat_path = tmp_path / "strategy.json"
        strat_path.write_text(json.dumps(verdict["witness"]) if witness_only else out)
        code, out, _ = run(capsys, "translate", str(strat_path), "--direction", "alice-pc-to-qc",
                           "--space", space_file, "--horizon", "2")
        assert code == 0
        report = json.loads(out)
        assert report["input_winning"] and report["output_winning"] and report["preserved"]
        assert (report["output"]["player"], report["output"]["class"]) == ("alice", "positional")

    def test_malformed_positional_file(self, capsys, tmp_path):
        strategy = {"player": "bob", "class": "positional", "entries": [{"context": [[], 0], "move": [[0]]}]}
        code, out, err = self.translate_file(capsys, tmp_path, strategy, "bob-pc-to-qc", 1)
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_full_history_file_is_refused(self, capsys, tmp_path):
        # full-history strategy files are no longer read
        strategy = {"player": "alice", "class": "full", "entries": [{"context": [], "move": 0}]}
        code, out, err = self.translate_file(capsys, tmp_path, strategy, "alice-pc-to-qc", 1)
        assert code == 2
        assert out == ""
        assert err == "error: bad player/class pair 'alice'/'full'\n"

    @pytest.mark.parametrize(
        "search, k, direction",
        [(markov_bob_search, 1, "bob-pc-to-qc"), (predetermined_alice_search, 2, "alice-pc-to-qc")],
    )
    def test_restricted_class_file_is_refused(self, capsys, tmp_path, space_file, two_block3,
                                              search, k, direction):
        # Markov-Bob and predetermined-Alice files are refused at their class
        player = direction.split("-")[0]
        klass = {"alice": "pre", "bob": "markov"}[player]
        moves = search(make_point_clopen(two_block3, k))
        strat_path = tmp_path / "strategy.json"
        strat_path.write_text(json.dumps(restricted_to_json(player, moves)))
        code, out, err = run(capsys, "translate", str(strat_path), "--direction", direction,
                             "--space", space_file, "--horizon", str(k))
        assert code == 2
        assert out == ""
        assert err == f"error: bad player/class pair '{player}'/'{klass}'\n"

    @pytest.mark.parametrize(
        "player, context, move, message",
        [
            ("alice", [[0, 1, 2], 1], 9, "menu index 9 out of range at [[0, 1, 2], 1]"),
            ("bob", [[1, 2], 1], [[0, 1, 2]], "1 picks for 3 menus at [[1, 2], 1]"),
            ("bob", [[1, 2], 1], [[0], [0, 1, 2], [0, 1, 2]], "move 0x1 not in menu 0 at [[1, 2], 1]"),
        ],
        ids=["menu-index", "pick-count", "off-menu-pick"],
    )
    def test_bad_source_entry_names_the_file_context(self, capsys, tmp_path, player, context, move, message):
        # an entry the source game cannot play is named by its context as
        # the file writes it, not by the covered mask
        strategy = {"player": player, "class": "positional", "entries": [{"context": context, "move": move}]}
        code, out, err = self.translate_file(capsys, tmp_path, strategy, f"{player}-pc-to-qc", 1)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestPlay:
    def test_human_alice_loses_to_solver(self, capsys, monkeypatch, space_file, tmp_path):
        # Alice replays the split cover every round; the solver's Bob finishes it
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n1\n"))
        save = tmp_path / "t.json"
        code, out, _ = run(
            capsys,
            "play",
            space_file,
            "--game",
            "mildly-rothberger",
            "--role",
            "alice",
            "--horizon",
            "2",
            "--save",
            str(save),
        )
        assert code == 0
        assert "winner: bob" in out
        transcript = json.loads(save.read_text())
        assert transcript["outcome"] == "bob"
        assert len(transcript["rounds"]) == 2

    def test_human_bob_wins_when_possible(self, capsys, monkeypatch, space_file):
        # at horizon 2 Bob can always finish, whatever members he is shown;
        # feed enough replies for every prompt and check the verdict
        monkeypatch.setattr("sys.stdin", io.StringIO("0\n1\n0\n1\n"))
        code, out, _ = run(
            capsys,
            "play",
            space_file,
            "--game",
            "mildly-rothberger",
            "--role",
            "bob",
            "--horizon",
            "2",
        )
        assert code == 0
        assert "winner:" in out

    @staticmethod
    def human_lines(capsys, monkeypatch, tmp_path, space_file, game, role, k, width):
        """The rounds of every play in which the human `role` answers each
        prompt with a listed index below `width`, as (menu index, Bob's
        mask) pairs."""
        save = tmp_path / "t.json"
        for line in itertools.product(range(width), repeat=k):
            monkeypatch.setattr("sys.stdin", io.StringIO("".join(f"{j}\n" for j in line)))
            try:
                code = main(["play", space_file, "--game", game, "--role", role,
                             "--horizon", str(k), "--save", str(save)])
            except SystemExit:  # an index off the list: the reprompt ran out of input
                continue
            finally:
                capsys.readouterr()
            assert code == 0
            rounds = json.loads(save.read_text())["rounds"]
            yield [(r["alice"], mask_of(r["bob"], 3)) for r in rounds]

    @pytest.mark.parametrize("game", sorted(GAME_BUILDERS))
    def test_the_winning_solver_plays_the_witness(self, capsys, monkeypatch, tmp_path, space_file,
                                                  two_block3, game):
        # against every human line, each solver move is the entry `solve`
        # writes at that (covered mask, rounds left)
        k = 2
        spec = GAME_BUILDERS[game](two_block3, k)
        witness = solve(spec).witness
        menus = spec.menus.menus
        human = BOB if witness.player == ALICE else ALICE
        width = max(len(menus), *map(len, menus))
        lines = 0
        for rounds in self.human_lines(capsys, monkeypatch, tmp_path, space_file, game, human, k, width):
            covered = 0
            for rnd, (mi, b) in enumerate(rounds):
                entry = witness.table[(covered, k - rnd)]
                assert (mi if human == BOB else b) == (entry if human == BOB else entry[mi])
                covered |= b
            lines += 1
        assert lines == 4  # two options at each of the two prompts

    @pytest.mark.parametrize("game", sorted(GAME_BUILDERS))
    def test_the_losing_solver_plays_the_first_move(self, capsys, monkeypatch, tmp_path, space_file,
                                                    two_block3, game):
        # the human plays the winner's side; wherever the solver has no
        # winning move it plays menu 0, or the first member of the menu
        checked = 0
        for k in (1, 2):
            spec = GAME_BUILDERS[game](two_block3, k)
            menus = spec.menus.menus
            solver = Solver(menus, spec.menus.full, spec.negated)
            human = solver.value(0, k)
            width = max(len(menus), *map(len, menus))
            for rounds in self.human_lines(capsys, monkeypatch, tmp_path, space_file, game, human, k, width):
                covered = 0
                for rnd, (mi, b) in enumerate(rounds):
                    left = k - rnd - 1
                    if human == BOB and solver.value(covered, left + 1) == BOB:
                        assert mi == 0
                        checked += 1
                    if human == ALICE and all(solver.value(covered | c, left) == ALICE for c in menus[mi]):
                        assert b == menus[mi][0]
                        checked += 1
                    covered |= b
        assert checked

    def test_the_solver_answers_a_human_error(self, capsys, monkeypatch, tmp_path):
        # on the discrete 3-point space a human Alice can leave the solver's
        # Bob a position he wins; in every round he picks the least member
        # of the menu she played whose child he wins, or its first member
        # where none wins
        path = tmp_path / "d3.json"
        d3 = discrete_space(3)
        dump_space(d3, str(path))
        k = 2
        spec = GAME_BUILDERS["mildly-rothberger"](d3, k)
        menus = spec.menus.menus
        assert len(menus) == 8
        solver = Solver(menus, spec.menus.full, spec.negated)
        lines = won = 0
        for rounds in self.human_lines(capsys, monkeypatch, tmp_path, str(path), "mildly-rothberger",
                                       ALICE, k, len(menus)):
            covered = 0
            for rnd, (mi, b) in enumerate(rounds):
                menu = menus[mi]
                wins = [c for c in menu if solver.value(covered | c, k - rnd - 1) == BOB]
                assert b == (wins[0] if wins else menu[0]), (rounds, rnd)
                won += bool(wins)
                covered |= b
            lines += 1
        assert solver.value(0, k) == ALICE
        assert (lines, won) == (64, 116)  # 116 rounds give Bob a winning member

    def test_bad_input_reprompts(self, capsys, monkeypatch, space_file):
        monkeypatch.setattr("sys.stdin", io.StringIO("zebra\n99\n1\n1\n"))
        code, out, _ = run(
            capsys,
            "play",
            space_file,
            "--game",
            "mildly-rothberger",
            "--role",
            "alice",
            "--horizon",
            "2",
        )
        assert code == 0
        assert out.count("enter one of") == 2

    def test_eof_exits_130(self, capsys, monkeypatch, space_file):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "play",
                    space_file,
                    "--game",
                    "mildly-rothberger",
                    "--role",
                    "alice",
                    "--horizon",
                    "1",
                ]
            )
        assert exc.value.code == 130


class TestSpaceSources:
    def test_enum_single_matches_serialized_corpus(self, capsys):
        from topogame.topology import enumerate_topologies

        expected = list(enumerate_topologies(3))[7]
        code, out, _ = run(capsys, "analyze", "enum:n=3:i=7")
        assert code == 0
        assert json.loads(out)["space"] == space_to_json(expected)

    def test_empty_space_file(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        dump_space(validate_topology([0], 0), str(path))
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 0 and report["components"] == 0
