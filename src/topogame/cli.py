"""Command-line front end.

Subcommands: analyze, solve, check, play, translate. Space arguments take
either a JSON file path or an enumerator spec "enum:n=3:i=7" (the space of
index 7 among the labeled topologies on 3 points), n and i once each.
`check` writes the rows of a `lab.SUITES` suite (`lab.suite_rows`), or of
all in turn, over every space with 1 <= n <= --nmax: one JSON line each,
flushed as its space finishes.

Exit codes: 0 success / all checks pass, 1 check failures, 2 usage or
format errors, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, Optional

from . import lab
from .errors import (
    CapExceeded,
    EmptySpace,
    FormatError,
    IllegalMove,
    IllegalSourceStrategy,
    PointOutOfRange,
    TopologyError,
)
from .games import (
    ALICE,
    BOB,
    GAME_BUILDERS,
    Transcript,
    optimal_move,
    solve,
)
from .serialize import (
    dumps_stable,
    load_space,
    load_strategy,
    points_of,
    space_to_json,
    strategy_to_json,
    transcript_to_json,
    verdict_to_json,
)
from .topology import (
    FiniteSpace,
    clopen_algebra,
    components,
    enumerate_topologies,
    is_zero_dimensional,
    quasi_components,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_EOF = 130

SUITES = (*lab.SUITES, "all")


def _single_space(source: str) -> FiniteSpace:
    """The space in a JSON file, or the one an enumerator spec enum:n=..:i=.. names."""
    if not source.startswith("enum:"):
        return load_space(source)
    parts = [part.partition("=") for part in source[len("enum:") :].split(":")]
    spec = {key: value for key, eq, value in parts if eq}
    # refuse a part without "=", a repeated key, a key other than n and i,
    # and a value other than ASCII digits (no sign, space or underscore)
    digits = all(value.isascii() and value.isdigit() for value in spec.values())
    if len(spec) != len(parts) or sorted(spec) != ["i", "n"] or not digits:
        raise FormatError(f"bad enumerator spec {source!r}; expected enum:n=..:i=..")
    n, i = int(spec["n"]), int(spec["i"])
    spaces = list(enumerate_topologies(n))
    if not 0 <= i < len(spaces):
        raise FormatError(f"index {i} out of range for n={n}")
    return spaces[i]


def cmd_analyze(args) -> int:
    space = _single_space(args.space)
    report = {
        "n": space.n,
        "opens": len(space.opens),
        "clopens": len(clopen_algebra(space).sets),
        "components": len(components(space).blocks) if space.n else 0,
        "quasi_components": len(quasi_components(space).blocks) if space.n else 0,
        "zero_dimensional": is_zero_dimensional(space),
        "space": space_to_json(space),
    }
    print(dumps_stable(report))
    return EXIT_OK


def cmd_solve(args) -> int:
    space = _single_space(args.space)
    builder = GAME_BUILDERS[args.game]
    game = builder(space, args.horizon)
    verdict = solve(game)
    print(dumps_stable(verdict_to_json(verdict)))
    return EXIT_OK


def _corpus(n_max: int) -> Iterable[tuple[str, FiniteSpace]]:
    for n in range(1, n_max + 1):
        for i, sp in enumerate(enumerate_topologies(n)):
            yield f"n{n}#{i}", sp


def cmd_check(args) -> int:
    suites = list(lab.SUITES) if args.suite == "all" else [args.suite]
    spaces = list(_corpus(args.nmax))
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    all_pass = True
    try:
        for suite in suites:
            for row in lab.suite_rows(suite, spaces):
                all_pass = all_pass and row["pass"]
                out.write(dumps_stable(row) + "\n")
                out.flush()
    finally:
        if args.out:
            out.close()
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def cmd_translate(args) -> int:
    space = _single_space(args.space)
    s = load_strategy(args.strategy, space.n)
    report = lab.translate_b1(args.direction, s, space, args.horizon)
    obj = {
        "direction": report.direction,
        "input_winning": report.input_winning,
        "output_winning": report.output_winning,
        "preserved": report.preserved,
        "output": strategy_to_json(report.output),
    }
    print(dumps_stable(obj))
    return EXIT_OK


def _prompt_move(prompt: str, legal: list[int]) -> int:
    while True:
        try:
            raw = input(prompt)
        except EOFError:
            raise SystemExit(EXIT_EOF) from None
        try:
            value = int(raw.strip())
        except ValueError:
            print(f"enter one of {legal}")
            continue
        if value in legal:
            return value
        print(f"enter one of {legal}")


def cmd_play(args) -> int:
    space = _single_space(args.space)
    game = GAME_BUILDERS[args.game](space, args.horizon)
    menus = game.menus.menus
    human = args.role
    covered = 0
    rounds = []
    for rnd in range(game.horizon if menus else 0):
        if human == ALICE:
            print(f"round {rnd}: menus:")
            for mi, menu in enumerate(menus):
                print(f"  [{mi}] {[points_of(m) for m in menu]}")
            mi = _prompt_move("your menu index> ", list(range(len(menus))))
        else:
            mi = optimal_move(game, covered, game.horizon - rnd)
            print(f"round {rnd}: solver (alice) plays menu {mi}: "
                  f"{[points_of(m) for m in menus[mi]]}")
        menu = menus[mi]
        if human == BOB:
            print(f"round {rnd}: pick a member of menu {mi}:")
            for j, m in enumerate(menu):
                print(f"  [{j}] {points_of(m)}")
            j = _prompt_move("your member index> ", list(range(len(menu))))
            b = menu[j]
        else:
            b = optimal_move(game, covered, game.horizon - rnd, menu_index=mi)
            print(f"round {rnd}: solver (bob) selects {points_of(b)}")
        covered |= b
        rounds.append((mi, b))
    outcome = BOB if game.bob_wins(covered) else ALICE
    transcript = Transcript(rounds=tuple(rounds), outcome=outcome)
    print(f"winner: {outcome}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            fh.write(dumps_stable(transcript_to_json(transcript)) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="topogame")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="report the clopen structure of a space")
    p.add_argument("space")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("solve", help="solve a bounded-horizon game")
    p.add_argument("space")
    p.add_argument("--game", required=True, choices=sorted(GAME_BUILDERS))
    p.add_argument("--horizon", type=int, required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="run a theorem-check suite over the corpus")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("translate", help="translate a strategy between the point and block games")
    p.add_argument("strategy")
    p.add_argument("--direction", required=True, choices=lab.DIRECTIONS)
    p.add_argument("--space", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("play", help="play one side against the solver")
    p.add_argument("space")
    p.add_argument("--game", required=True, choices=sorted(GAME_BUILDERS))
    p.add_argument("--role", required=True, choices=(ALICE, BOB))
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--save", default=None, help="write the transcript JSON here")
    p.set_defaults(func=cmd_play)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "horizon") and (args.horizon < 0 or args.horizon > 64):
            parser.error("horizon must be between 0 and 64")
        if hasattr(args, "nmax") and args.nmax < 1:
            parser.error("--nmax must be at least 1")
        return args.func(args)
    except (
        EmptySpace,
        FormatError,
        TopologyError,
        PointOutOfRange,
        OSError,
        IllegalMove,
        IllegalSourceStrategy,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
