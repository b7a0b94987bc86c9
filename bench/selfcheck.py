"""Planted faults that the benchmark's output checks must reject.

Every run calls `accepted_faults()` first and reports `correct: false` if
any planted fault gets through, so a check that was broken into passing
everything cannot produce a clean run. Run alone from the root of a
checkout:
    python3 bench/selfcheck.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile

from workloads import (
    CliCheckN4,
    Corpus4Checks,
    Op,
    check_laws,
    check_op,
    run_op,
    solve_space,
    unexpected,
)

HERE = os.path.dirname(os.path.abspath(__file__))


def _rejected(workload: str, op: Op, out, known: dict) -> bool:
    kind, detail, spaces = check_op(op, out)
    if kind is None:
        return False
    failure = {"op": op.op_id, "key": op.key, "kind": kind, "detail": detail, "spaces": spaces}
    return bool(unexpected(workload, [failure], known))


def _spin():
    while True:
        pass


def accepted_faults(known: dict) -> list[str]:
    """Names of the planted faults that the checks failed to reject."""
    from topogame import serialize, topology

    bad = []
    c4 = Corpus4Checks(seed=0)
    by_id = {op.op_id: op for op in c4.ops}

    # a check row reporting pass: false, on a space where no failure is known
    for op_id in ("n3#5/check:b3", "n4#1/check:extraction"):
        op = by_id[op_id]
        if not _rejected(c4.name, op, {"check": op.key[6:], "pass": False}, known):
            bad.append(f"{op_id} with pass: false")

    # a solve whose winner was flipped after solving
    op = by_id["n3#5/solve:mildly-rothberger"]
    verdict, _ = op.run()
    flipped = dataclasses.replace(verdict, winner="alice" if verdict.winner == "bob" else "bob")
    text = serialize.dumps_stable(serialize.verdict_to_json(flipped))
    if not _rejected(c4.name, op, (flipped, text), known):
        bad.append(f"{op.op_id} with a flipped winner")

    # winners of two solve ops of one space that break duality
    c4.winners[("n2#0", "mildly-rothberger")] = "alice"
    c4.winners[("n2#0", "point-clopen")] = "alice"
    if not any(op_id == "n2#0/solve:mildly-rothberger" for op_id, _, _ in c4.finish()):
        bad.append("n2#0 solve winners that break duality")

    # a random5 table with one flipped winner
    table = solve_space(topology.validate_topology((0, 1, 3, 7, 15, 31), 5))
    table["winners"]["quasi-component-clopen"][2] = (
        "alice" if table["winners"]["quasi-component-clopen"][2] == "bob" else "bob"
    )
    try:
        check_laws(table, "planted")
        bad.append("random5 table with a flipped winner")
    except Exception:
        pass

    # a `check` suite output with a failing row, and one with a missing row
    with tempfile.TemporaryDirectory(dir=os.path.join(os.getcwd(), ".bench_run")) as tmp:
        cli = CliCheckN4(seed=0, workdir=tmp)
        op = next(o for o in cli.ops if o.key == "check:extraction")
        rows = [{"space_id": sid, "check": "extraction", "pass": True} for sid in cli.space_ids]
        failing = [dict(r, **{"pass": r["space_id"] != "n4#1"}) for r in rows]
        path = os.path.join(tmp, "planted.jsonl")
        for label, subset, code in (("a failing row", failing, 1), ("a missing row", rows[1:], 0)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps(r) + "\n" for r in subset)
            if not _rejected(cli.name, op, (code, path, ""), known):
                bad.append(f"check extraction output with {label}")

    # an op that runs past its deadline
    op = Op("planted/spin", "check:zerodim", "n1#0", _spin, lambda out: None)
    _, _, kind, _ = run_op(op, in_process=True, deadline=0.05)
    failure = {"op": op.op_id, "key": op.key, "kind": kind, "detail": "", "spaces": ["n1#0"]}
    if kind != "timeout" or not unexpected(c4.name, [failure], known):
        bad.append("an op past its deadline")
    return bad


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    from workloads import arm_deadline

    os.makedirs(".bench_run", exist_ok=True)
    arm_deadline()
    with open(os.path.join(HERE, "known_failures.json"), encoding="utf-8") as fh:
        known = json.load(fh)
    bad = accepted_faults(known)
    for name in bad:
        print(f"NOT REJECTED: {name}")
    print("all planted faults rejected" if not bad else f"{len(bad)} planted faults accepted")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
