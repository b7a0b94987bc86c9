"""JSON readers and writers for the documented file formats.

Spaces:      {"n": int, "opens": [[points ascending], ...]}
Strategies:  {"player": "alice"|"bob",
              "class": "pre"|"markov"|"positional",
              "entries": [{"context": ..., "move": ...}]}
             (Alice plays "pre" or "positional", Bob "markov" or
             "positional"); a strategy is read against the space it is
             for, and its points must lie in 0..n-1, as a space's do; no
             context is listed twice.
               Alice pre    {"context": round, "move": index}
               Bob markov   {"context": [menu index, round],
                             "move": [points of his pick]}
             `solve` writes its witness as "positional":
               Alice {"context": [covered points, left], "move": index}
               Bob   {"context": [covered points, left],
                      "move": [[points of his pick], ... one per menu]}
             where left >= 1 counts the rounds left, this one included;
             entries come with the most rounds left first, and for equal
             rounds left in covered-mask order. `translate` also reads a
             `solve` verdict, as the strategy in its "witness" field
All output uses stable key order; batch reports are JSON lines.
`strategy_to_json` builds one point list per distinct mask and shares it
between entries, so its dict is to be read or encoded, not mutated;
`dumps_stable` skips the encoder's cycle check and expects acyclic input.
JSON true/false load as bool, a subclass of int, so every integer field is
tested with `type(x) is int`.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import FormatError
from .games import ALICE, BOB, MARKOV, POS, PRE, Strategy, Transcript, Verdict
from .topology import FiniteSpace, mask_of, points_of, validate_topology


def space_to_json(space: FiniteSpace) -> dict:
    return {"n": space.n, "opens": [points_of(m) for m in space.opens]}


def space_from_json(obj: Any) -> FiniteSpace:
    if not isinstance(obj, dict) or "n" not in obj or "opens" not in obj:
        raise FormatError("space object needs integer 'n' and list 'opens'")
    n = obj["n"]
    opens = obj["opens"]
    if type(n) is not int or n < 0 or not isinstance(opens, list):
        raise FormatError("space object needs integer 'n' and list 'opens'")
    return validate_topology([mask_of(_points(entry), n) for entry in opens], n)


def _points(raw) -> list[int]:
    if not isinstance(raw, list) or not all(type(p) is int for p in raw):
        raise FormatError(f"point set {raw!r} must be a list of points")
    return raw


def _load_json(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
            raise FormatError(f"invalid JSON in {path}: {exc}") from exc


def load_space(path: str) -> FiniteSpace:
    return space_from_json(_load_json(path))


def strategy_to_json(s: Strategy) -> dict:
    if s.klass == POS:
        return {"player": s.player, "class": POS, "entries": _positional_entries(s)}
    table = s.table
    contexts = sorted(table)
    if s.player == BOB:
        pts = {m: points_of(m) for m in set(table.values())}
        entries = [{"context": list(ctx), "move": pts[table[ctx]]} for ctx in contexts]
    else:
        entries = [{"context": ctx, "move": table[ctx]} for ctx in contexts]
    return {"player": s.player, "class": s.klass, "entries": entries}


def _positional_entries(s: Strategy) -> list:
    table = s.table
    contexts = sorted(table, key=lambda ctx: (-ctx[1], ctx[0]))
    masks = {covered for covered, _ in contexts}
    if s.player == BOB:
        masks.update(*table.values())
    pts = {m: points_of(m) for m in masks}
    if s.player == BOB:
        return [
            {"context": [pts[ctx[0]], ctx[1]], "move": [pts[b] for b in table[ctx]]}
            for ctx in contexts
        ]
    return [{"context": [pts[ctx[0]], ctx[1]], "move": table[ctx]} for ctx in contexts]


def strategy_from_json(obj: Any, n: int) -> Strategy:
    try:
        player = obj["player"]
        klass = obj["class"]
        entries = obj["entries"]
    except (TypeError, KeyError) as exc:
        raise FormatError("strategy needs 'player', 'class' and 'entries'") from exc
    if (player, klass) not in ((ALICE, PRE), (ALICE, POS), (BOB, MARKOV), (BOB, POS)):
        raise FormatError(f"bad player/class pair {player!r}/{klass!r}")
    if not isinstance(entries, list):
        raise FormatError("strategy 'entries' must be a list")
    table = {}
    for entry in entries:
        if not isinstance(entry, dict) or "context" not in entry or "move" not in entry:
            raise FormatError(f"strategy entry {entry!r} needs 'context' and 'move'")
        ctx = _context_from_json(klass, entry["context"], n)
        if ctx in table:
            raise FormatError(f"strategy lists context {entry['context']!r} twice")
        table[ctx] = _move_from_json(player, klass, entry["move"], n)
    return Strategy(player=player, klass=klass, table=table)


def _context_from_json(klass: str, raw, n: int):
    if klass == PRE:
        if type(raw) is not int:
            raise FormatError("predetermined context must be a round number")
        return raw
    if klass == POS:
        if not isinstance(raw, list) or len(raw) != 2 or type(raw[1]) is not int or raw[1] < 1:
            raise FormatError("positional context must be [covered points, rounds left >= 1]")
        return mask_of(_points(raw[0]), n), raw[1]
    if not isinstance(raw, list) or len(raw) != 2 or not all(type(x) is int for x in raw):
        raise FormatError("markov context must be [menu index, round]")
    return tuple(raw)


def _move_from_json(player: str, klass: str, raw, n: int):
    if player == ALICE:
        if type(raw) is not int:
            raise FormatError("alice move must be a menu index")
        return raw
    if klass == POS:
        if not isinstance(raw, list):
            raise FormatError("positional bob move must be a list of picks, one per menu")
        return tuple(mask_of(_points(pick), n) for pick in raw)
    return mask_of(_points(raw), n)


def load_strategy(path: str, n: int) -> Strategy:
    """The strategy in a strategy file, or the witness of a `solve` verdict."""
    obj = _load_json(path)
    if isinstance(obj, dict) and "witness" in obj and "entries" not in obj:
        obj = obj["witness"]
    return strategy_from_json(obj, n)


def verdict_to_json(v: Verdict) -> dict:
    out = {"winner": v.winner, "horizon": v.horizon, "stats": v.stats}
    out["witness"] = strategy_to_json(v.witness) if v.witness is not None else None
    return out


def transcript_to_json(t: Transcript) -> dict:
    return {
        "rounds": [{"alice": mi, "bob": points_of(b)} for mi, b in t.rounds],
        "outcome": t.outcome,
    }


_ENCODER = json.JSONEncoder(check_circular=False)  # default separators: ", " and ": "


def dumps_stable(obj: Any) -> str:
    return _ENCODER.encode(obj)
