#!/usr/bin/env python3
"""Validate a Perfetto/Chrome trace_event JSON emitted by splice_trace.

Schema checks (stdlib only, no perfetto dependency):

  * top level is an object with a "traceEvents" list;
  * every event carries "ph", "ts", "pid" and a "ph" from the emitted set
    (X = slice, M = metadata, s/f = flow start/finish, C = counter);
  * slices carry name/tid/dur, counters carry an "args" value object;
  * flow events pair up: every flow id opened by "s" is closed by exactly
    one "f" (and vice versa), binding_point "e" on the finish side;
  * timestamps are non-negative and every referenced tid has a thread_name
    metadata record;
  * causal edges do not dangle: every slice's args.cause names the args.id
    of a slice in the same file;
  * time runs forward: in args.id order no slice's ts drops below the one
    before it, and no cause's slice starts after its effect's.

Exit 0 and print a one-line summary on success; exit 1 with the first
violations otherwise.

    python3 scripts/check_trace_json.py trace.json
"""

from __future__ import annotations

import json
import sys

KNOWN_PH = {"X", "M", "s", "f", "C"}


def _later(a: object, b: object) -> bool:
    """True when timestamp a is strictly after b (non-numbers never are)."""
    numeric = (int, float)
    return isinstance(a, numeric) and isinstance(b, numeric) and a > b


def check(path: str) -> int:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    errors: list[str] = []

    def err(msg: str) -> None:
        if len(errors) < 20:
            errors.append(msg)

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        sys.exit(f"{path}: top level must be an object with 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        sys.exit(f"{path}: 'traceEvents' must be a non-empty list")

    counts = {ph: 0 for ph in KNOWN_PH}
    flow_open: dict[object, int] = {}
    flow_close: dict[object, int] = {}
    named_tids: set[object] = set()
    used_tids: set[object] = set()
    slice_ts: dict[object, object] = {}  # args.id -> ts
    causes: list[tuple[str, object, object]] = []  # (where, cause, ts)

    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            err(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in KNOWN_PH:
            err(f"{where}: unknown ph {ph!r}")
            continue
        counts[ph] += 1
        # Metadata records are timeless; everything else sits on the axis.
        required = ("pid",) if ph == "M" else ("ts", "pid")
        for key in required:
            if key not in ev:
                err(f"{where}: ph={ph} missing {key!r}")
        if isinstance(ev.get("ts"), (int, float)) and ev["ts"] < 0:
            err(f"{where}: negative ts {ev['ts']}")
        if ph == "X":
            for key in ("name", "tid", "dur"):
                if key not in ev:
                    err(f"{where}: slice missing {key!r}")
            used_tids.add(ev.get("tid"))
            args = ev.get("args")
            if isinstance(args, dict):
                if "id" in args:
                    slice_ts[args["id"]] = ev.get("ts")
                if "cause" in args:
                    causes.append((where, args["cause"], ev.get("ts")))
        elif ph == "M":
            if ev.get("name") == "thread_name":
                named_tids.add(ev.get("tid"))
        elif ph in ("s", "f"):
            fid = ev.get("id")
            if fid is None:
                err(f"{where}: flow event missing 'id'")
                continue
            if ph == "s":
                flow_open[fid] = flow_open.get(fid, 0) + 1
            else:
                flow_close[fid] = flow_close.get(fid, 0) + 1
                if ev.get("bp") != "e":
                    err(f"{where}: flow finish id={fid} missing bp:'e'")
        elif ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not args:
                err(f"{where}: counter missing 'args' values")
            elif not all(isinstance(v, (int, float)) for v in args.values()):
                err(f"{where}: counter args must be numeric: {args}")

    for fid, n in flow_open.items():
        closes = flow_close.get(fid, 0)
        if closes != n:
            err(f"flow id={fid}: {n} start(s) but {closes} finish(es)")
    for fid in flow_close:
        if fid not in flow_open:
            err(f"flow id={fid}: finish without start")
    for tid in used_tids:
        if tid not in named_tids:
            err(f"tid={tid}: slices present but no thread_name metadata")
    for where, cause, ts in causes:
        if cause not in slice_ts:
            err(f"{where}: cause={cause} names no slice id in this file")
        elif _later(slice_ts[cause], ts):
            err(f"{where}: cause={cause} starts at ts={slice_ts[cause]}, "
                f"after its effect at ts={ts}")
    ordered = sorted(i for i in slice_ts if isinstance(i, int))
    for prev, cur in zip(ordered, ordered[1:]):
        if _later(slice_ts[prev], slice_ts[cur]):
            err(f"slice id={cur} at ts={slice_ts[cur]} runs backwards from "
                f"id={prev} at ts={slice_ts[prev]}")

    if counts["X"] == 0:
        err("no slice ('X') events at all — empty trace?")

    if errors:
        print(f"{path}: INVALID trace_event JSON")
        for msg in errors:
            print(f"  {msg}")
        return 1
    print(f"{path}: ok — {counts['X']} slices, {counts['s']} flows, "
          f"{len(causes)} causes, {counts['C']} counter samples, "
          f"{counts['M']} metadata records across {len(named_tids)} tracks")
    return 0


def main() -> int:
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    rc = 0
    for path in sys.argv[1:]:
        rc |= check(path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
