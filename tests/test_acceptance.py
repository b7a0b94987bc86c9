"""Acceptance gate: ten exact, discrete criteria over the finite corpus.

Each test prints one pass/fail line (run with -s to see them as they go;
under capture they still appear in the test report output).
"""

import sys
import time

from oracles import history_tree_winner, reversed_game, topologies_via_preorders
from topogame.games import (
    ALICE,
    BOB,
    make_mildly_rothberger,
    make_point_clopen,
    make_point_open,
    make_quasi_component_clopen,
    make_rothberger,
    markov_bob_search,
    predetermined_alice_search,
    solve,
)
from topogame.lab import (
    check_b1_translations,
    check_b3,
    check_duality,
    check_extraction,
    check_min_horizon_law,
    check_pc_qc_equivalence,
    check_zero_dim_equivalence,
)
from topogame.topology import (
    enumerate_topologies,
    is_zero_dimensional,
    validate_topology,
)

ALL_GAMES = (
    make_rothberger,
    make_mildly_rothberger,
    make_point_open,
    make_point_clopen,
    make_quasi_component_clopen,
)


def _report(num: int, name: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {verdict}", file=sys.stderr)
    assert ok, f"criterion {num} ({name}) failed"


class TestAcceptance:
    def test_01_enumerator_fidelity(self):
        start = time.monotonic()
        counts = {n: sum(1 for _ in enumerate_topologies(n)) for n in range(1, 5)}
        ok = counts == {1: 1, 2: 4, 3: 29, 4: 355}
        for n in range(1, 5):
            ours = {sp.opens for sp in enumerate_topologies(n)}
            ok = ok and ours == topologies_via_preorders(n)
        elapsed = time.monotonic() - start
        _report(1, "enumerator fidelity", ok and elapsed < 60)

    def test_02_min_horizon_law(self, corpus3, corpus4):
        start = time.monotonic()
        ok = all(check_min_horizon_law(sp)["pass"] for _, sp in corpus3 + corpus4)
        elapsed = time.monotonic() - start
        _report(2, "minimal-horizon law (389 spaces)", ok and elapsed < 600)

    def test_03_duality(self, corpus3, corpus4):
        ok = all(check_duality(sp)["pass"] for _, sp in corpus3 + corpus4)
        _report(3, "clopen-cover vs point-clopen duality (389 spaces)", ok)

    def test_04_pc_qc_winner_equality(self, corpus3, corpus4):
        ok = all(check_pc_qc_equivalence(sp)["pass"] for _, sp in corpus3 + corpus4)
        _report(4, "point game equals block game in all classes (389 spaces)", ok)

    def test_05_translation_preservation(self, corpus3, corpus4):
        total = 0
        preserved = 0
        for _, sp in corpus3 + corpus4:
            for row in check_b1_translations(sp)["facts"]["translations"]:
                total += 1
                preserved += row["input_winning"] and row["preserved"]
        _report(5, f"strategy translation ({preserved}/{total} preserved)",
                total > 0 and preserved == total)

    def test_06_zero_dimensional_equivalence(self, corpus3, corpus4, pseudocircle):
        ok = True
        checked = 0
        for _, sp in corpus3 + corpus4:
            if not is_zero_dimensional(sp):
                continue
            checked += 1
            ok = ok and check_zero_dim_equivalence(sp)["pass"]
        witness = check_zero_dim_equivalence(pseudocircle)["facts"]
        row = witness["per_horizon"][1]
        ok = ok and not witness["zero_dimensional"]
        ok = ok and row["rothberger"] == ALICE and row["mildly_rothberger"] == BOB
        _report(6, f"zero-dimensional equivalence ({checked} spaces) with witness", ok)

    def test_07_markov_block_strategy(self, corpus3, corpus4):
        ok = all(check_b3(sp)["pass"] for _, sp in corpus3 + corpus4)
        _report(7, "quasi-component Markov strategy wins at #blocks (389 spaces)", ok)

    def test_08_tree_extraction(self, corpus3, corpus4):
        ok = True
        for _, sp in corpus3 + corpus4:
            report = check_extraction(sp)
            ok = ok and report["pass"]
            if len(report["facts"]) > 1 and "planted_covers" in report["facts"]:
                ok = ok and report["facts"]["planted_counterexample_valid"]
        _report(8, "clopen tree extraction with counterexample branch (389 spaces)", ok)

    def test_09_determinacy_and_class_chain(self, corpus3, corpus4):
        ok = True
        for _, sp in corpus3 + corpus4:
            for make in ALL_GAMES:
                for k in range(sp.n + 1):
                    game = make(sp, k)
                    winner = solve(game, want_witness=False).winner
                    ok = ok and winner in (ALICE, BOB)
                    ok = ok and solve(reversed_game(game), want_witness=False).winner == winner
                    if markov_bob_search(game) is not None:
                        ok = ok and winner == BOB
                    if predetermined_alice_search(game) is not None:
                        ok = ok and winner == ALICE
        _report(9, "determinacy and strategy-class chain (389 spaces)", ok)

    def test_10_solver_oracle_equivalence(self):
        spaces = [validate_topology([0], 0)]
        for n in (1, 2):
            spaces.extend(enumerate_topologies(n))
        ok = True
        for sp in spaces:
            for make in ALL_GAMES:
                if sp.n == 0 and make not in (make_rothberger, make_mildly_rothberger):
                    continue
                for k in range(4):
                    game = make(sp, k)
                    ok = ok and solve(game, want_witness=False).winner == history_tree_winner(game)
        _report(10, "abstract solver matches history-tree oracle", ok)
