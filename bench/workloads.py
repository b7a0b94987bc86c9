"""The benchmark's workloads: inputs made from a seed, the ops, and their output checks.

An op is one call a user of topogame would make and wait for. Its `run`
returns the program's output; its `check` raises `WrongOutput` unless the
output is right. Checks test laws and self-consistency (verify the
witness, re-read the JSON, the paper's theorems), never a stored copy of
today's output, so a later change may alter outputs that stay correct.

Workloads:
  corpus4-checks  every lab check and every `solve` on all 389 labeled
                  spaces with 1 <= n <= 4, space by space in seed-shuffled order
  random5-solve   a seeded sample of distinct 5-point spaces; per space its
                  clopen structure, its covers and 30 no-witness solves
  cli-check-n4    the seven `topogame check <suite> --nmax 4` commands as
                  subprocesses, in seed-shuffled order
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

# The in-process deadline is in seconds at reference speed (hostspeed.py):
# the worker scales it to the host's speed before each op. It is far above
# every op that finishes at the seed (slowest: about 0.9 s, a witness solve) and
# below the slow ops on the discrete 4-point space (b3 2.6 s, pc-qc 7.2 s,
# duality never), so the failure count repeats exactly.
DEADLINE_S = 1.5
# In host seconds: a probe in the worker does not track a child's speed, so
# this deadline is not scaled. Suites take 0.2-4.3 s at the seed, and up to
# 1.8 times that while the host is slow, which a lower deadline would bring
# b3 close to. Duality never finishes, so it adds the whole deadline to
# every pass, whatever the deadline is.
CLI_DEADLINE_S = 8.0

CHECKS = {
    "duality": "check_duality",
    "zerodim": "check_zero_dim_equivalence",
    "th314": "check_th314",
    "minhorizon": "check_min_horizon_law",
    "b1": "check_b1_translations",
    "b3": "check_b3",
    "extraction": "check_extraction",
    "pc-qc": "check_pc_qc_equivalence",
}
GAMES = ("rothberger", "mildly-rothberger", "point-open", "point-clopen", "quasi-component-clopen")
COVER_GAMES = ("rothberger", "mildly-rothberger")  # Bob wins iff his picks cover
SUITES = ("duality", "zerodim", "b1", "b3", "extraction", "th314", "minhorizon")

# random5-solve draws RANDOM5_SPACES distinct spaces. Their cost grows
# steeply with the number of open sets, and letting that mix vary with the
# seed moved the work of a pass by about 5% (quartile spread over seeds).
# So every seed keeps the same mix: the counts of open sets of the first
# RANDOM5_SPACES distinct spaces that the sampler draws from MIX_SEED (see
# open_set_mix). Only the spaces with those counts change with the seed.
RANDOM5_SPACES = 300
MIX_SEED = 0


class DeadlineExceeded(BaseException):
    """Raised into an op that ran past its deadline (a BaseException, so
    that no handler inside the program can swallow it)."""


class WrongOutput(Exception):
    def __init__(self, message: str, spaces=()):
        super().__init__(message)
        self.spaces = list(spaces)


@dataclass
class Op:
    op_id: str
    key: str  # what known_failures.json is keyed on, such as "check:b3"
    space_id: str  # the space a failure is charged to
    run: Callable[[], object]
    check: Callable[[object], None]


def corpus(topology, n_max: int = 4):
    """(space id, space) for every labeled space with 1 <= n <= n_max, named
    as `topogame check` names them."""
    return [
        (f"n{n}#{i}", sp)
        for n in range(1, n_max + 1)
        for i, sp in enumerate(topology.enumerate_topologies(n))
    ]


# ---------------------------------------------------------------------------
# corpus4-checks


class Corpus4Checks:
    name = "corpus4-checks"
    in_process = True
    deadline_s = DEADLINE_S

    def __init__(self, seed: int):
        from topogame import games, lab, serialize, topology

        self.games, self.lab, self.serialize, self.topology = games, lab, serialize, topology
        self.spaces = dict(corpus(topology))
        self.winners: dict[tuple[str, str], str] = {}  # (space id, game) -> winner at k = n
        # Spaces in shuffled order, the 13 ops of each in a fixed order, so
        # which op pays for a space's cold caches does not change with the
        # seed. (With all 5057 ops mixed, peak memory swung by 30% from seed
        # to seed.)
        order = list(self.spaces)
        random.Random(seed).shuffle(order)
        self.ops = [
            self._op(sid, kind, what)
            for sid in order
            for kind, what in [("check", c) for c in CHECKS] + [("solve", g) for g in GAMES]
        ]

    def _op(self, sid: str, kind: str, what: str) -> Op:
        space = self.spaces[sid]
        if kind == "check":
            return Op(f"{sid}/check:{what}", f"check:{what}", sid,
                      lambda: getattr(self.lab, CHECKS[what])(space),
                      lambda row: self._check_row(row, what, sid))

        def solve():
            # what `topogame solve <space> --game <what> --horizon n` does
            verdict = self.games.solve(self.games.GAME_BUILDERS[what](space, space.n))
            return verdict, self.serialize.dumps_stable(self.serialize.verdict_to_json(verdict))

        return Op(f"{sid}/solve:{what}", f"solve:{what}", sid, solve,
                  lambda out: self._check_solve(out, what, sid))

    @staticmethod
    def _check_row(row, what: str, sid: str) -> None:
        if not isinstance(row, dict) or row.get("check") != what:
            raise WrongOutput(f"{sid}: not a {what} row", [sid])
        if row.get("pass") is not True:
            raise WrongOutput(f"{sid}: {what} row has pass={row.get('pass')!r}", [sid])

    def _check_solve(self, out, game: str, sid: str) -> None:
        verdict, text = out
        space = self.spaces[sid]
        obj = json.loads(text)
        if obj.get("winner") not in ("alice", "bob") or obj["winner"] != verdict.winner:
            raise WrongOutput(f"{sid}: {game} JSON winner {obj.get('winner')!r}", [sid])
        if obj.get("horizon") != space.n:
            raise WrongOutput(f"{sid}: {game} JSON horizon {obj.get('horizon')!r}", [sid])
        witness = verdict.witness
        if witness is not None:
            if witness.player != verdict.winner or obj["witness"]["player"] != verdict.winner:
                raise WrongOutput(f"{sid}: {game} witness is for the other player", [sid])
            spec = self.games.GAME_BUILDERS[game](space, space.n)
            if self.games.verify_winning(spec, witness) is not True:
                raise WrongOutput(f"{sid}: {game} witness does not win", [sid])
        elif obj.get("witness") is not None:
            raise WrongOutput(f"{sid}: {game} JSON has a witness the verdict lacks", [sid])
        self.winners[(sid, game)] = verdict.winner

    def finish(self) -> list[tuple[str, str, WrongOutput]]:
        """Laws across the solve ops of one space: (op id, key, failure)."""
        bad = []
        for sid, space in self.spaces.items():
            w = {g: self.winners.get((sid, g)) for g in GAMES}
            problems = []
            if None not in (w["mildly-rothberger"], w["point-clopen"]) and (
                (w["mildly-rothberger"] == "alice") != (w["point-clopen"] == "bob")
            ):
                problems.append(("mildly-rothberger", "mildly-Rothberger / point-clopen duality"))
            if None not in (w["point-clopen"], w["quasi-component-clopen"]) and (
                w["point-clopen"] != w["quasi-component-clopen"]
            ):
                problems.append(("quasi-component-clopen", "point-clopen / quasi-component winners"))
            if self.topology.is_zero_dimensional(space):
                for open_game, clopen_game in (("rothberger", "mildly-rothberger"),
                                               ("point-open", "point-clopen")):
                    if None not in (w[open_game], w[clopen_game]) and w[open_game] != w[clopen_game]:
                        problems.append((open_game, "open = clopen on a zero-dimensional space"))
            for game, law in problems:
                bad.append((f"{sid}/solve:{game}", f"solve:{game}", WrongOutput(f"{sid}: {law}", [sid])))
        return bad


# ---------------------------------------------------------------------------
# random5-solve


def preorder_opens(rng: random.Random, n: int) -> tuple[int, ...]:
    """Open sets of the Alexandrov topology of a random preorder on n
    points whose density is drawn for this space: each ordered pair is
    related with probability p, then the relation is closed transitively.
    Density 0 gives the discrete space; at 1/2 and above, most draws give
    the indiscrete one, so p is drawn from [0, 1/2)."""
    p = rng.random() / 2
    up = [1 << x for x in range(n)]  # up[x] = points above x = minimal open nbhd of x
    for x in range(n):
        for y in range(n):
            if x != y and rng.random() < p:
                up[x] |= 1 << y
    changed = True
    while changed:
        changed = False
        for x in range(n):
            acc = up[x]
            for y in range(n):
                if acc >> y & 1:
                    acc |= up[y]
            if acc != up[x]:
                up[x], changed = acc, True
    # a set is open iff it holds everything above its points
    above = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        above[m] = above[m ^ low] | up[low.bit_length() - 1]
    return tuple(m for m in range(1 << n) if above[m] == m)


def distinct_spaces(rng: random.Random, want: dict[int, int] | None = None):
    """Distinct 5-point spaces from preorder_opens, in the order drawn: the
    first RANDOM5_SPACES of them, or, given `want`, as many of each count of
    open sets as it asks for."""
    seen: set[tuple[int, ...]] = set()
    left = dict(want) if want else None
    picked = []
    while len(picked) < (sum(want.values()) if want else RANDOM5_SPACES):
        opens = preorder_opens(rng, 5)
        if opens in seen or (left is not None and not left.get(len(opens))):
            continue
        seen.add(opens)
        if left is not None:
            left[len(opens)] -= 1
        picked.append(opens)
    return picked


def open_set_mix() -> dict[int, int]:
    """How many random5-solve spaces have each count of open sets: as many
    as among the first RANDOM5_SPACES distinct spaces drawn from MIX_SEED."""
    mix: dict[int, int] = {}
    for opens in distinct_spaces(random.Random(MIX_SEED)):
        mix[len(opens)] = mix.get(len(opens), 0) + 1
    return mix


def random5_spaces(topology, seed: int):
    rng = random.Random(seed)
    picked = distinct_spaces(rng, open_set_mix())
    rng.shuffle(picked)
    return [topology.validate_topology(opens, 5) for opens in picked]


class Random5Solve:
    name = "random5-solve"
    in_process = True
    deadline_s = DEADLINE_S

    def __init__(self, seed: int):
        from topogame import topology

        self.ops = [
            Op(f"r5#{i}", "solve5", f"r5#{i}", (lambda sp=sp: solve_space(sp)),
               (lambda out, sid=f"r5#{i}": check_laws(out, sid)))
            for i, sp in enumerate(random5_spaces(topology, seed))
        ]

    def finish(self):
        return []


def solve_space(space) -> dict:
    """One random5-solve op: clopen structure, irredundant open and clopen
    covers, and the no-witness winner of every game at horizons 0..n."""
    from topogame import covers, games, topology

    return {
        "n": space.n,
        "clopens": len(topology.clopen_algebra(space).sets),
        "blocks": len(topology.quasi_components(space).blocks),
        "components": len(topology.components(space).blocks),
        "zero_dim": topology.is_zero_dimensional(space),
        "open_covers": [cv.members for cv in covers.reduced_covers(space, "open")],
        "clopen_covers": [cv.members for cv in covers.reduced_covers(space, "clopen")],
        "winners": {
            game: [games.solve(games.GAME_BUILDERS[game](space, k), want_witness=False).winner
                   for k in range(space.n + 1)]
            for game in GAMES
        },
    }


def check_laws(out: dict, sid: str) -> None:
    """The paper's laws on one space's solve table."""
    w, n, blocks = out["winners"], out["n"], out["blocks"]

    def fail(law: str):
        raise WrongOutput(f"{sid}: {law}", [sid])

    if not set(map(tuple, out["clopen_covers"])) <= set(map(tuple, out["open_covers"])):
        fail("an irredundant clopen cover is missing from the open covers")
    if not 1 <= out["components"] <= blocks <= n:
        fail("components / quasi-components count out of order")
    for game in GAMES:
        seq = w[game]
        cover_side = "bob" if game in COVER_GAMES else "alice"
        other = "alice" if cover_side == "bob" else "bob"
        if seq[0] != other or seq[n] != cover_side:
            fail(f"{game}: covering must fail at horizon 0 and succeed at horizon n")
        if sum(a != b for a, b in zip(seq, seq[1:])) > 1:
            fail(f"{game}: the winner switches more than once across horizons")
    first = {g: w[g].index("bob" if g in COVER_GAMES else "alice") for g in GAMES}
    if not first["mildly-rothberger"] == first["point-clopen"] == first["quasi-component-clopen"] == blocks:
        fail("min-horizon law: first wins are not at the number of quasi-components")
    for k in range(len(w["point-clopen"])):
        if (w["mildly-rothberger"][k] == "alice") != (w["point-clopen"][k] == "bob"):
            fail(f"mildly-Rothberger / point-clopen duality fails at k={k}")
        if w["point-clopen"][k] != w["quasi-component-clopen"][k]:
            fail(f"point-clopen and quasi-component winners differ at k={k}")
        if out["zero_dim"] and (w["rothberger"][k] != w["mildly-rothberger"][k]
                                or w["point-open"][k] != w["point-clopen"][k]):
            fail(f"open and clopen winners differ on a zero-dimensional space at k={k}")


# ---------------------------------------------------------------------------
# cli-check-n4


class CliCheckN4:
    name = "cli-check-n4"
    in_process = False
    deadline_s = CLI_DEADLINE_S

    def __init__(self, seed: int, workdir: str, trace_dir: str | None = None):
        from topogame import topology

        self.space_ids = [sid for sid, _ in corpus(topology)]
        self.workdir = workdir
        self.trace_dir = trace_dir
        self.spawned: list[tuple[str, float]] = []  # (span file, spawn time) per traced child
        suites = list(SUITES)
        random.Random(seed).shuffle(suites)
        self.ops = [
            # "*" stands for the whole suite: a failure not tied to rows
            Op(f"check:{s}", f"check:{s}", "*", (lambda s=s: self.run_suite(s)),
               (lambda out, s=s: self.check_suite(out, s)))
            for s in suites
        ]

    def run_suite(self, suite: str):
        import time

        out = os.path.join(self.workdir, f"{suite}.jsonl")
        args = ["check", suite, "--nmax", "4", "--out", out]
        env = dict(os.environ, PYTHONPATH="src", TOPOGAME_THREADS=str(len(os.sched_getaffinity(0))))
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "topogame.cli", *args]
        else:
            spans = os.path.join(self.trace_dir, f"cli-{len(self.spawned)}.jsonl")
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_launcher.py")
            cmd = [sys.executable, launcher, spans, *args]
            self.spawned.append((spans, time.monotonic()))
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=CLI_DEADLINE_S)
        except subprocess.TimeoutExpired:
            proc.terminate()  # a traced child writes its spans on SIGTERM
            try:
                proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
            raise DeadlineExceeded() from None
        return proc.returncode, out, err.decode(errors="replace")

    def check_suite(self, result, suite: str) -> None:
        code, path, err = result
        rows = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rows.append(json.loads(line))
        by_space: dict[str, list[dict]] = {}
        for row in rows:
            by_space.setdefault(row.get("space_id"), []).append(row)
        extra = set(by_space) - set(self.space_ids) - ({"corpus"} if suite == "zerodim" else set())
        if extra:
            raise WrongOutput(f"{suite}: rows for unknown spaces {sorted(extra)[:3]}")
        if suite == "zerodim" and [r.get("pass") for r in by_space.get("corpus", [])] != [True]:
            raise WrongOutput("zerodim: no passing divergence-witness row")
        failing = []
        for sid in self.space_ids:
            got = by_space.get(sid, [])
            if len(got) != 1 or got[0].get("check") != suite:
                raise WrongOutput(f"{suite}: {len(got)} rows for {sid}")
            if got[0].get("pass") is not True:
                failing.append(sid)
        if failing or code != 0:
            if code != 1 or not failing:
                raise WrongOutput(f"{suite}: exit {code}, {len(failing)} failing rows: {err[-200:]}")
            raise WrongOutput(f"{suite}: exit 1, {len(failing)} failing rows", failing)

    def finish(self):
        return []


WORKLOADS = {
    "corpus4-checks": Corpus4Checks,
    "random5-solve": Random5Solve,
    "cli-check-n4": CliCheckN4,
}


def run_op(op: Op, in_process: bool, deadline: float = DEADLINE_S) -> tuple[float, object, str | None, str]:
    """Issue one op under its deadline: (seconds, output, failure kind or None, detail).

    In-process ops get a SIGALRM timer (arm_deadline() installs the handler);
    subprocess ops enforce their own deadline."""
    import time

    from topogame.errors import CapExceeded

    start = time.perf_counter()
    try:
        if in_process:
            signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            out = op.run()
        finally:
            if in_process:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return time.perf_counter() - start, None, "timeout", ""
    except CapExceeded as exc:
        return time.perf_counter() - start, None, "cap", str(exc)
    except Exception as exc:  # any other failure of the program counts against it
        return time.perf_counter() - start, None, "error", f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, out, None, ""


def _alarm(signum, frame):
    raise DeadlineExceeded()


def arm_deadline() -> None:
    signal.signal(signal.SIGALRM, _alarm)


def check_op(op: Op, out) -> tuple[str | None, str, list[str]]:
    """Run the op's output check: (failure kind or None, detail, failing spaces)."""
    try:
        op.check(out)
    except WrongOutput as exc:
        return "wrong", str(exc), exc.spaces or [op.space_id]
    except Exception as exc:  # a check that cannot read the output rejects it
        return "wrong", f"unreadable output: {type(exc).__name__}: {exc}", [op.space_id]
    return None, "", []


def unexpected(workload: str, failures: list[dict], known: dict) -> list[dict]:
    """Failures that known_failures.json does not list for this workload.

    A known failure is keyed by op key and kind; its failing spaces must be
    among the listed ones. Known failures that no longer happen are fine.
    """
    allowed = known.get(workload, {})
    out = []
    for f in failures:
        entry = allowed.get(f["key"])
        if entry is None or entry["kind"] != f["kind"] or not set(f["spaces"]) <= set(entry["spaces"]):
            out.append(f)
    return out
