"""One pass of a workload in a fresh interpreter, so every lru_cache starts cold.

Usage (from the root of a checkout; run.py starts it):
    python3 bench/worker.py <workload> <seed> <mode> <scratch dir>

It builds the inputs from the seed, issues the ops one at a time in a
closed loop, each under its deadline, checks every output outside the
timed span and prints one JSON line with the timings, the failures and,
in mode "trace", the per-layer metrics. Mode "run" traces nothing; mode
"setup" stops before the first op, to time set-up alone.

Between in-process ops it times hostspeed.reference() at least every
PROBE_EVERY_S and reports their times at reference speed (see
hostspeed.py); the raw wall time is reported too. Set-up time is scaled
by the probe taken right after it, in every workload.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


PROBE_EVERY_S = 0.5  # time the reference again once this much has passed since the last time


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """The high-water mark of resident memory (of this process, or of its
    largest waited-for child)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    workload, seed, mode, workdir = argv[0], int(argv[1]), argv[2], argv[3]
    trace = mode == "trace"
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import topogame

    if not os.path.abspath(topogame.__file__).startswith(src + os.sep):
        print(f"error: imported topogame from {topogame.__file__}, not {src}", file=sys.stderr)
        return 2

    import hostspeed
    from tracer import Tracer, layer_metrics, load_spans
    from workloads import WORKLOADS, arm_deadline, check_op, run_op

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    cls = WORKLOADS[workload]
    if cls.in_process:
        wl = cls(seed)
    else:
        wl = cls(seed, workdir, workdir if trace else None)
    arm_deadline()

    t_setup = time.monotonic()
    probes = [hostspeed.probe()]  # reference times; probe j runs before block j of ops
    if mode == "setup":
        print(json.dumps({"t_setup": t_setup, "setup_ref_s": probes[0]}))
        return 0

    latencies = []
    blocks = []  # the probe block each op ran in
    failures = []
    peak_rss = 0.0
    last_probe = time.monotonic()
    for op in wl.ops:
        if wl.in_process and time.monotonic() - last_probe >= PROBE_EVERY_S:
            probes.append(hostspeed.probe())
            last_probe = time.monotonic()
        # an in-process deadline is scaled to the host speed the last probe saw
        deadline = wl.deadline_s * probes[-1] / hostspeed.REF_S
        secs, out, kind, detail = run_op(op, wl.in_process, deadline)
        latencies.append(secs * 1000.0)
        blocks.append(len(probes) - 1)
        # Read before the check, so the last check's memory is left out.
        # Earlier checks (verify_winning on corpus4-checks) may raise it.
        peak_rss = peak_rss_mb()
        spaces = [op.space_id]
        if kind is None:
            if tracer:
                tracer.pause()
            kind, detail, spaces = check_op(op, out)
            if tracer:
                tracer.resume()
        if kind is not None:
            failures.append({"op": op.op_id, "key": op.key, "kind": kind,
                             "detail": detail, "spaces": spaces})
    if tracer:
        tracer.pause()
    if wl.in_process:
        # an op's time at reference speed, from the probe that also set its
        # deadline, so a timed-out op reads its deadline
        adjusted = [ms * hostspeed.REF_S / probes[b] for ms, b in zip(latencies, blocks)]
    else:
        # A probe here does not track the speed of a `topogame` child (which
        # may run on the other CPU): scaled suite times varied more than raw.
        adjusted = latencies
    timed_out = {f["op"] for f in failures if f["kind"] == "timeout"}
    finished = [(ms, op.op_id) for ms, op in zip(adjusted, wl.ops) if op.op_id not in timed_out]
    for op_id, key, exc in wl.finish():
        failures.append({"op": op_id, "key": key, "kind": "wrong", "detail": str(exc),
                         "spaces": exc.spaces})

    if not wl.in_process:
        # the program ran in the child processes; they have all been waited for
        peak_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    result = {
        "t_setup": t_setup,
        "setup_ref_s": probes[0],
        "wall_s": sum(adjusted) / 1000.0,
        "raw_wall_s": sum(latencies) / 1000.0,
        "finished_wall_s": sum(ms for ms, _ in finished) / 1000.0,
        "latencies_ms": adjusted,
        "keys": [op.key for op in wl.ops],
        "slowest_finished": max(finished, default=None),
        "attempted": len(wl.ops),
        "failures": failures,
        "peak_rss_mb": peak_rss,
    }
    if tracer:
        own = os.path.join(workdir, "worker-spans.jsonl")
        tracer.dump(own, {"workload": workload, "seed": seed})
        spans = list(tracer.spans)
        cache = tracer.cache_counts()
        startup = 0.0
        for i, (path, spawned) in enumerate(getattr(wl, "spawned", []), start=1):
            # a child's span ids restart at 1; keep them apart from the worker's
            extra, child_cache, child_spans = load_spans(path)
            base = i * 10**9
            spans += [(base + s[0], base + s[1] if s[1] else 0, *s[2:]) for s in child_spans]
            for key in cache:
                cache[key] += child_cache[key]
            startup += extra["t_main"] - spawned
        result["layers"] = layer_metrics(spans, cache, startup,
                                         result["wall_s"] / result["raw_wall_s"])
        result["spans"] = len(spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
