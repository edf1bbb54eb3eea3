#!/usr/bin/env python3
"""What moved, case by case, between two golden trace files.

    python3 scripts/golden_diff.py OLD.json NEW.json

Both files have the layout of tests/data/golden_runs.json: {"runs": {case:
outcome}, "sweeps": {case: CSV rows}}.  Prints one markdown table row per
case that moved: how many floats moved, the largest relative change among
them, how many other values moved (statuses, counts stored as JSON
integers, None, list lengths), and the fields that moved, with list indices
folded to [] and a sweep's fields named rows[].<CSV column>.  A case in
only one file is reported as added or removed.  Exits 0 when nothing moved
and 1 otherwise, as diff does.

A float is a float.hex string ("0x1.8p+1", "-inf"), as the run outcomes
store them, or a sweep cell that float() reads.
"""

from __future__ import annotations

import json
import math
import sys


class Moves:
    """One case's moved floats, their largest relative change, its other
    moved values and the fields they are in."""

    def __init__(self):
        self.floats, self.others, self.max_rel = 0, 0, 0.0
        self.fields: set[str] = set()

    def __bool__(self) -> bool:
        return bool(self.floats or self.others)


def _float(value, sweep: bool) -> float | None:
    if not isinstance(value, str):
        return None
    try:
        if sweep:
            return float(value)
        if value.lstrip("-").startswith("0x") or value.lstrip("-") in ("inf", "nan"):
            return float.fromhex(value)
    except ValueError:
        pass
    return None


def _rel(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if old == 0.0 or not math.isfinite(old) or not math.isfinite(new):
        return math.inf
    return abs(new - old) / abs(old)


def _walk(old, new, path: str, moves: Moves, sweep: bool) -> None:
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            sub = f"{path}.{key}" if path else key
            if key in old and key in new:
                _walk(old[key], new[key], sub, moves, sweep)
            else:
                moves.others += 1
                moves.fields.add(sub)
        return
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            moves.others += 1
            moves.fields.add(f"{path} (length)")
        for a, b in zip(old, new):
            _walk(a, b, f"{path}[]", moves, sweep)
        return
    a, b = _float(old, sweep), _float(new, sweep)
    if a is not None and b is not None:
        rel = _rel(a, b)
        if rel:
            moves.floats += 1
            moves.max_rel = max(moves.max_rel, rel)
            moves.fields.add(path)
    elif old != new:
        moves.others += 1
        moves.fields.add(path)


def _sweep_rows(rows: list[list[str]]) -> list[dict[str, str]]:
    """A sweep's CSV rows as {column: cell} dicts, so that its fields are
    named by column."""
    header, *body = rows
    return [dict(zip(header, row)) for row in body]


def diff(old: dict, new: dict) -> dict[str, Moves | str]:
    """Each case's moves, or "added" / "removed", keyed "runs/<case>" or
    "sweeps/<case>"; unmoved cases are left out."""
    out: dict[str, Moves | str] = {}
    for part in ("runs", "sweeps"):
        a, b = old.get(part, {}), new.get(part, {})
        for case in sorted(set(a) | set(b)):
            name = f"{part}/{case}"
            if case not in b:
                out[name] = "removed"
            elif case not in a:
                out[name] = "added"
            else:
                moves = Moves()
                if part == "sweeps":
                    _walk(_sweep_rows(a[case]), _sweep_rows(b[case]), "rows", moves, True)
                else:
                    _walk(a[case], b[case], "", moves, False)
                if moves:
                    out[name] = moves
    return out


def render(moves: dict[str, Moves | str], cases: int) -> str:
    lines = ["| case | floats moved | largest relative change | other values moved | fields |",
             "|---|---|---|---|---|"]
    for name, m in moves.items():
        if isinstance(m, str):
            lines.append(f"| {name} | {m} | | | |")
        else:
            lines.append(f"| {name} | {m.floats} | {m.max_rel:.3g} | {m.others} | "
                         f"{', '.join(sorted(m.fields))} |")
    lines.append(f"\n{len(moves)} of {cases} cases moved")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: golden_diff.py OLD.json NEW.json", file=sys.stderr)
        return 2
    old, new = (json.loads(open(path).read()) for path in args)
    moves = diff(old, new)
    cases = len({(p, c) for f in (old, new) for p in ("runs", "sweeps") for c in f.get(p, {})})
    print(render(moves, cases))
    return 1 if moves else 0


if __name__ == "__main__":
    raise SystemExit(main())
