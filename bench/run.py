"""topogame benchmark: one workload, measured end to end or layer by layer.

Usage, from the root of a checkout:
    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: corpus4-checks, random5-solve, cli-check-n4 (see workloads.py).
A run starts one fresh worker process per pass (cold caches, as a
`topogame` invocation has) and keeps starting passes while the next one
fits in --seconds; every pass issues the same seeded ops. With --trace 1
the passes alternate untraced and traced, and the run reports per-layer
metrics and the tracing overhead instead of the end-to-end metrics.

Times are reported at reference speed: the measured time, scaled by how
long a fixed reference computation took in the same process just before
it (see hostspeed.py). The host's CPU speed drifts by up to 2x within a
minute; the scaled times move several times less. The one exception is
the time of a `topogame check` subprocess, which is reported as measured
(worker.py says why).

Every line but the last is for people; the last line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from hostspeed import REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_S = 170  # a run must end within 180 s
SETUP_PROBES = 4  # extra workers that only set up, so setup_s is a median of several

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_pass(workload: str, seed: int, mode: str, workdir: str, limit: float) -> dict:
    """Start one worker (mode "run", "trace" or "setup") and read its result."""
    spawned = time.monotonic()
    # its own process group, so a stuck pass is stopped with the commands it started
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode, workdir],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=limit)
    except BaseException as exc:  # a timeout, or this run being stopped
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError(f"a {workload} pass did not end within {limit:.0f} s") from None
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["raw_setup_s"] = result["t_setup"] - spawned
    result["setup_s"] = result["raw_setup_s"] * REF_S / result["setup_ref_s"]
    result["pass_s"] = time.monotonic() - spawned
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "topogame", "__init__.py")):
        print("error: run from the root of a topogame checkout (src/topogame is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    from selfcheck import accepted_faults
    from tracer import PER_LAYER
    from workloads import WORKLOADS, arm_deadline, unexpected

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "known_failures.json"), encoding="utf-8") as fh:
        known = json.load(fh)

    # stopping the run stops its worker too (the worker has a process group of its own)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    os.makedirs(".bench_run", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=".bench_run")
    try:
        arm_deadline()
        planted = accepted_faults(known)
        setups = [run_pass(args.workload, args.seed, "setup", workdir, RUN_LIMIT_S)
                  for _ in range(SETUP_PROBES)]
        passes: list[tuple[bool, dict]] = []
        last_s = {False: 0.0, True: 0.0}  # longest pass so far, untraced and traced
        traced = False
        while True:
            need = {False} | ({True} if args.trace else set())
            done = {t for t, _ in passes}
            elapsed = time.monotonic() - started
            if need <= done and elapsed + last_s[traced] > args.seconds:
                break
            limit = RUN_LIMIT_S - elapsed
            if limit <= 0:
                raise RuntimeError("the first passes took longer than a run may")
            pass_dir = os.path.join(workdir, f"pass{len(passes)}")
            os.mkdir(pass_dir)
            result = run_pass(args.workload, args.seed, "trace" if traced else "run",
                              pass_dir, limit)
            passes.append((traced, result))
            last_s[traced] = max(last_s[traced], result["pass_s"])
            if args.trace:
                traced = not traced
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [r for t, r in passes if not t]
    results = [r for _, r in passes]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(len({f["op"] for f in r["failures"]}) for r in results)
    surprises = [f for r in results for f in unexpected(args.workload, r["failures"], known)]
    correct = not planted and not surprises

    w = args.workload
    ops = results[0]["attempted"]
    print(f"{w}: seed {args.seed}, {ops} ops per pass, {len(untraced)} untraced "
          f"and {len(results) - len(untraced)} traced passes, {len(setups)} set-up probes, "
          f"in {time.monotonic() - started:.1f} s")
    kinds: dict[str, int] = {}
    for f in results[0]["failures"]:
        kinds[f["kind"]] = kinds.get(f["kind"], 0) + 1
    print(f"{w} failed_frac = {failed / attempted:.6f} (failed {failed} of {attempted} ops; "
          f"first pass by kind: {json.dumps(kinds, sort_keys=True)})")
    slowest = max((r["slowest_finished"] for r in untraced if r["slowest_finished"]),
                  default=(0.0, "none"))
    timeouts = [f["op"] for r in untraced for f in r["failures"] if f["kind"] == "timeout"]
    print(f"{w} deadline {WORKLOADS[w].deadline_s} s: slowest op that finished took "
          f"{slowest[0]:.1f} ms ({slowest[1]}); timed out: {sorted(set(timeouts))}")
    by_key: dict[str, list[float]] = {}
    for r in untraced:
        for key, ms in zip(r["keys"], r["latencies_ms"]):
            by_key.setdefault(key, []).append(ms)
    print(f"{w} median ms by op: " + ", ".join(
        f"{k} {statistics.median(v):.4g}" for k, v in sorted(by_key.items())))
    for name in planted:
        print(f"{w} SELF-CHECK: planted fault not rejected: {name}")
    for f in surprises[:20]:
        print(f"{w} UNEXPECTED {f['kind']}: {f['op']}: {f['detail'][:200]}")

    latencies = [x for r in untraced for x in r["latencies_ms"]]
    e2e = {
        "setup_s": statistics.median(r["setup_s"] for r in setups + results),
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p95": percentile(latencies, 0.95),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    raw_setup = statistics.median(r["raw_setup_s"] for r in setups + results)
    raw_wall = statistics.median(r["raw_wall_s"] for r in untraced)
    scaled = "all times" if WORKLOADS[w].in_process else "setup_s (op times as measured)"
    print(f"{w} at host speed: setup_s = {raw_setup:.6g} s, wall_s = {raw_wall:.6g} s; "
          f"below, {scaled} at reference speed (bench/hostspeed.py)")
    finished_wall = statistics.median(r["finished_wall_s"] for r in untraced)
    for name, unit in END_TO_END:
        note = ""
        if name == "wall_s":
            note = (f"  (ops that finished: {finished_wall:.6g} s; the rest is the deadline "
                    f"of each of the {len(timeouts) // len(untraced)} ops that timed out)")
        if name.startswith("op_ms"):
            note = f"  (n={len(latencies)} ops" + (", fewer than 200" if len(latencies) < 200 else "") + ")"
        print(f"{w} {name} = {e2e[name]:.6g} {unit}{note}")

    if args.trace:
        traced_runs = [r for t, r in passes if t]
        layers = {name: statistics.median(r["layers"][name] for r in traced_runs)
                  for name, _ in PER_LAYER}
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced_runs)
                                      - e2e["wall_s"])
        units = dict(PER_LAYER, **{"trace.overhead_s": "s"})
        print(f"{w} traced: {traced_runs[0]['spans']} spans per pass; tracing overhead "
              f"{layers['trace.overhead_s']:.3f} s on wall_s {e2e['wall_s']:.3f} s")
        for name, value in layers.items():
            print(f"{w} {name} = {value:.6g} {units[name]}")
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
