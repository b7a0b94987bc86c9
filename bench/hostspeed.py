"""Host speed, measured by a fixed reference computation in the process being timed.

The CPU speed this benchmark gets from its host drifts by up to 2x within
a minute, with no steal time visible inside the guest: on a 2-vCPU VM, 100
random5-solve ops timed in 5 s windows took 0.33-0.64 s over 150 s. Their
ratio to a reference computation timed next to them moved about 6 times
less (quartile distance over median: 0.053 against 0.295). So a worker
times `reference()` between its ops and scales every measured time by
`REF_S / <reference time just before it>`: the result is the time the
work would take on a host where the reference takes exactly REF_S seconds.

`reference()` is the benchmark's own code, never topogame's, so a change
to topogame cannot move it. It does what topogame's inner loops do: walks
combinations of bitmasks, memoises a recursion in a dict keyed by
(frozenset, round), and builds frozensets from generator expressions.
"""

from __future__ import annotations

import itertools
import statistics
import time

# The reference takes about this long on the machine the baseline was taken on.
REF_S = 0.015

_MASKS = (3, 5, 6, 9, 12, 17, 24, 31, 34, 48, 63, 65, 96, 127)
_FULL = 127


def _covers(pool: tuple[int, ...]) -> list[tuple[int, ...]]:
    found = []
    for r in range(1, 4):
        for combo in itertools.combinations(pool, r):
            acc = 0
            for m in combo:
                acc |= m
            if acc == _FULL:
                found.append(combo)
    return found


def _game(menus: list[tuple[int, ...]], horizon: int) -> int:
    memo: dict = {}

    def value(state: frozenset, rnd: int) -> bool:
        key = (state, rnd)
        if key in memo:
            return memo[key]
        if rnd == horizon:
            out = len(state) % 3 == 0
        else:
            out = any(all(value(frozenset(s | b for s in state) | {b}, rnd + 1) for b in menu)
                      for menu in menus)
        memo[key] = out
        return out

    value(frozenset(), 0)
    return len(memo)


def reference() -> int:
    """A fixed amount of pure-Python work (about REF_S on the baseline machine)."""
    covers = [_covers(_MASKS) for _ in range(20)]
    return _game(covers[0][:8], 5) + sum(map(len, covers))


def probe(repeats: int = 3) -> float:
    """Median seconds of `repeats` reference runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
