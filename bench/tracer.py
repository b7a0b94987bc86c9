"""Span tracing of topogame's public functions, installed from outside the package.

`Tracer.install()` wraps every public function of the six layer modules,
both in its defining module and in every topogame module (and module-level
dict, such as `GAME_BUILDERS`) that holds it by name. Each call becomes a
span (name, parent, start, end, error, counts). Spans stay in memory until
`dump()`; `layer_metrics()` derives self time and counts per layer group.

A span whose thread has no open span takes the main thread's innermost
open span as its parent, so work that `cli check` hands to its thread pool
is charged to the `cmd_check` span that is waiting for it.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time

LAYER_MODULES = ("topology", "covers", "games", "lab", "serialize", "cli")

# Bit helpers called in the innermost loops; a span costs more than they do.
UNTRACED = {"full_mask", "mask_of", "points_of"}

# Public functions whose spans form a named group; others fall into "<module>.other".
GROUPS = {
    "topology.enumerate_topologies": "topology.enumerate",
    "topology.validate_topology": "topology.enumerate",
    "topology.minimal_open_nbhd": "topology.structure",
    "topology.clopen_algebra": "topology.structure",
    "topology.quasi_components": "topology.structure",
    "topology.components": "topology.structure",
    "topology.is_connected": "topology.structure",
    "topology.is_zero_dimensional": "topology.structure",
    "covers.reduced_covers": "covers.menus",
    "covers.cover_menu_family": "covers.menus",
    "covers.point_base_family": "covers.menus",
    "covers.quasi_component_family": "covers.menus",
    "games.verify_winning": "games.verify",
    "games.predetermined_alice_search": "games.pre_alice",
    "games.alice_pre_wins": "games.pre_alice",
    "games.markov_bob_search": "games.markov_bob",
    "games.bob_markov_wins": "games.markov_bob",
    "lab.translate_b1": "lab.translate",
    "lab.extract_qs_tree": "lab.extract",
    "lab.b3_markov_strategy": "lab.b3_strategy",
    "cli.cmd_check": "cli.check",
}

# Cached public functions whose cache_info() gives topology.structure.hit_ratio.
STRUCTURE_CACHES = ("clopen_algebra", "quasi_components", "components", "is_zero_dimensional")

TIMEOUT_ERRORS = ("DeadlineExceeded", "Killed")

PER_LAYER = (
    ("topology.enumerate.self_s", "s"),
    ("topology.structure.self_s", "s"),
    ("topology.structure.hit_ratio", "ratio"),
    ("covers.menus.self_s", "s"),
    ("covers.menus.calls", "count"),
    ("covers.menus.members", "count"),
    ("covers.menus.reuse_ratio", "ratio"),
    ("games.solve_nowitness.self_s", "s"),
    ("games.solve_nowitness.calls", "count"),
    ("games.solve_nowitness.states", "count"),
    ("games.solve_witness.self_s", "s"),
    ("games.solve_witness.states", "count"),
    ("games.witness.built_ratio", "ratio"),
    ("games.verify.self_s", "s"),
    ("games.verify.calls", "count"),
    ("games.pre_alice.self_s", "s"),
    ("games.markov_bob.self_s", "s"),
    ("games.markov_bob.timeouts", "count"),
    ("lab.translate.self_s", "s"),
    ("lab.extract.self_s", "s"),
    ("lab.b3_strategy.self_s", "s"),
    ("lab.checks.self_s", "s"),
    ("serialize.self_s", "s"),
    ("serialize.bytes", "bytes"),
    ("cli.startup_s", "s"),
    ("cli.check.self_s", "s"),
)


def _group(qualname: str, args: tuple, kwargs: dict) -> str:
    if qualname == "games.solve":
        want = args[1] if len(args) > 1 else kwargs.get("want_witness", True)
        return "games.solve_witness" if want else "games.solve_nowitness"
    if qualname.startswith("lab.check_"):
        return "lab.checks"
    if qualname.startswith("serialize."):
        return "serialize"
    return GROUPS.get(qualname, qualname.split(".", 1)[0] + ".other")


def _counts(qualname: str, result) -> dict:
    """Work done by one call, read from its result."""
    if qualname == "games.solve":
        return {"states": result.stats, "built": int(result.witness is not None)}
    if qualname == "covers.reduced_covers":
        return {"members": sum(len(c.members) for c in result)}
    if qualname in ("covers.cover_menu_family", "covers.point_base_family",
                    "covers.quasi_component_family"):
        return {"members": sum(len(menu) for menu in result.menus)}
    if qualname == "serialize.dumps_stable":
        return {"bytes": len(result)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, group, start, end, error, counts)
        self.enabled = True
        self._ids = itertools.count(1)
        self._open: dict[int, tuple] = {}  # id -> (parent, name, group, start)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._caches: dict[str, object] = {}
        self._paused_cache = {"hits": 0, "misses": 0, "reuse": 0}
        self._pause_mark: dict | None = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import importlib

        pkg = importlib.import_module("topogame")
        modules = [importlib.import_module(f"topogame.{m}") for m in LAYER_MODULES]
        swaps: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or name in UNTRACED or isinstance(obj, type)
                        or not callable(obj) or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if short == "topology" and name in STRUCTURE_CACHES:
                    self._caches[name] = obj
                swaps[id(obj)] = self._wrap(obj, f"{short}.{name}")
        covers = importlib.import_module("topogame.covers")
        self._caches["_reduced_covers_cached"] = covers._reduced_covers_cached
        for mod in [pkg, *modules]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in swaps:
                    setattr(mod, name, swaps[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in swaps:
                            obj[key] = swaps[id(value)]

    def _wrap(self, fn, qualname: str):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # one span per resumption, so the consumer's work between
                # items is not charged to the generator
                it = fn(*args, **kwargs)
                if not tracer.enabled:
                    yield from it
                    return
                while True:
                    sid = tracer._enter(qualname, _group(qualname, args, kwargs))
                    error = None
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    except BaseException as exc:
                        error = type(exc).__name__
                        raise
                    finally:
                        tracer._exit(sid, error, {})
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = tracer._enter(qualname, _group(qualname, args, kwargs))
            error = None
            counts: dict = {}
            try:
                result = fn(*args, **kwargs)
                counts = _counts(qualname, result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                tracer._exit(sid, error, counts)

        return wrapper

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str, group: str) -> int:
        sid = next(self._ids)
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main and tid != self._main else 0
        stack.append(sid)
        self._open[sid] = (parent, name, group, time.perf_counter())
        return sid

    def _exit(self, sid: int, error, counts: dict) -> None:
        end = time.perf_counter()
        self._stacks[threading.get_ident()].pop()
        parent, name, group, start = self._open.pop(sid)
        self.spans.append((sid, parent, name, group, start, end, error, counts))

    def close_open_spans(self, error: str) -> None:
        """End every span still open (the process is being stopped)."""
        end = time.perf_counter()
        for sid, (parent, name, group, start) in list(self._open.items()):
            self.spans.append((sid, parent, name, group, start, end, error, {}))
        self._open.clear()

    # -- cache statistics ---------------------------------------------------

    def _cache_totals(self) -> dict:
        hits = misses = 0
        for name in STRUCTURE_CACHES:
            info = self._caches[name].cache_info()
            hits += info.hits
            misses += info.misses
        return {"hits": hits, "misses": misses,
                "reuse": self._caches["_reduced_covers_cached"].cache_info().hits}

    def pause(self) -> None:
        """Stop recording (the benchmark's own output checks run next)."""
        self.enabled = False
        self._pause_mark = self._cache_totals()

    def resume(self) -> None:
        now = self._cache_totals()
        for key, value in now.items():
            self._paused_cache[key] += value - self._pause_mark[key]
        self.enabled = True

    def cache_counts(self) -> dict:
        """Cache hits and misses made while recording."""
        now = self._cache_totals() if self.enabled else self._pause_mark
        return {k: v - self._paused_cache[k] for k, v in now.items()}

    # -- output -------------------------------------------------------------

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"extra": extra, "cache": self.cache_counts()}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(path: str) -> tuple[dict, dict, list[tuple]]:
    with open(path, encoding="utf-8") as fh:
        head = json.loads(fh.readline())
        spans = [tuple(json.loads(line)) for line in fh]
    return head["extra"], head["cache"], spans


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _n, _g, start, end, _e, _c in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _p, _n, _g, start, end, _e, _c in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


def layer_metrics(spans: list[tuple], cache: dict, cli_startup_s: float,
                  speed: float = 1.0) -> dict[str, float]:
    """The per-layer metrics of one traced pass (every name in PER_LAYER).

    Times are multiplied by `speed`, the pass's reference-speed factor."""
    selfs = self_times(spans)
    group_of = {s[0]: s[3] for s in spans}
    self_s: dict[str, float] = {}
    entries: dict[str, list[tuple]] = {}  # spans entering a group from outside it
    for span in spans:
        sid, parent, _n, group = span[:4]
        self_s[group] = self_s.get(group, 0.0) + selfs[sid]
        if group_of.get(parent) != group:
            entries.setdefault(group, []).append(span)

    def total(group: str, key: str) -> int:
        return sum(s[7].get(key, 0) for s in entries.get(group, ()))

    menu_calls = len(entries.get("covers.menus", ()))
    witness_calls = len(entries.get("games.solve_witness", ()))
    lookups = cache["hits"] + cache["misses"]
    m = {
        "topology.enumerate.self_s": self_s.get("topology.enumerate", 0.0),
        "topology.structure.self_s": self_s.get("topology.structure", 0.0),
        "topology.structure.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "covers.menus.self_s": self_s.get("covers.menus", 0.0),
        "covers.menus.calls": menu_calls,
        "covers.menus.members": total("covers.menus", "members"),
        "covers.menus.reuse_ratio": cache["reuse"] / menu_calls if menu_calls else 0.0,
        "games.solve_nowitness.self_s": self_s.get("games.solve_nowitness", 0.0),
        "games.solve_nowitness.calls": len(entries.get("games.solve_nowitness", ())),
        "games.solve_nowitness.states": total("games.solve_nowitness", "states"),
        "games.solve_witness.self_s": self_s.get("games.solve_witness", 0.0),
        "games.solve_witness.states": total("games.solve_witness", "states"),
        "games.witness.built_ratio": (
            total("games.solve_witness", "built") / witness_calls if witness_calls else 0.0
        ),
        "games.verify.self_s": self_s.get("games.verify", 0.0),
        "games.verify.calls": len(entries.get("games.verify", ())),
        "games.pre_alice.self_s": self_s.get("games.pre_alice", 0.0),
        "games.markov_bob.self_s": self_s.get("games.markov_bob", 0.0),
        "games.markov_bob.timeouts": sum(
            1 for s in entries.get("games.markov_bob", ()) if s[6] in TIMEOUT_ERRORS
        ),
        "lab.translate.self_s": self_s.get("lab.translate", 0.0),
        "lab.extract.self_s": self_s.get("lab.extract", 0.0),
        "lab.b3_strategy.self_s": self_s.get("lab.b3_strategy", 0.0),
        "lab.checks.self_s": self_s.get("lab.checks", 0.0),
        "serialize.self_s": self_s.get("serialize", 0.0),
        "serialize.bytes": total("serialize", "bytes"),
        "cli.startup_s": cli_startup_s,
        "cli.check.self_s": self_s.get("cli.check", 0.0),
    }
    return {k: v * speed if k.endswith("_s") else v for k, v in m.items()}
