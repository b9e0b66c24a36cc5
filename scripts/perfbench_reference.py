#!/usr/bin/env python3
"""Pinned perfbench reference: every simulated metric must repeat exactly.

perfbench's simulated metrics are a pure function of the workload seed, so
a guard on them needs no statistics. For `one-crash`, `warm-rejoin` and
`partition-heal` at seeds 71 and 1986 this script runs

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0|1

and compares, exactly, `makespan_ticks_mean`, `slowdown_mean` and
`msgs_per_call` from `--trace 0` and every per-layer metric from `--trace 1`
that repeats exactly, against scripts/perfbench_reference.json. Left out,
because they measure the host or move with the timed loop's length: every
`*_s` metric, `sim.events_per_s`, `util.allocs_per_event`,
`sim.eventfn_spills`, `peak_heap_mb_p50`, `span.*` and `trace.*`.

The rule: a change that alters the modelled protocol (a message, a
recovery decision, a schedule) moves some of these numbers. Such a change
re-pins the file with `--update` and lists each changed metric, with its
old and new value, in CHANGES.md. A change meant only for speed or memory
leaves the file as it is.

Exit codes: 0 every metric matches; 1 a metric differs, is missing or
new, or a perfbench run failed (a wrong answer, an oracle violation, or a
simulated count that drifted between repeats of one seed); 2 usage errors.

Usage, from anywhere in a checkout:
  scripts/perfbench_reference.py [--seconds N] [--update]

`--seconds N` (default 1) is each run's timed loop; a longer loop repeats
each seed more often, so a drifting count has more chances to show.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
REFERENCE = REPO / "scripts" / "perfbench_reference.json"
WORKLOADS = ("one-crash", "warm-rejoin", "partition-heal")
SEEDS = (71, 1986)
END_TO_END = ("makespan_ticks_mean", "slowdown_mean", "msgs_per_call")
HOST_ONLY = frozenset(("sim.events_per_s", "util.allocs_per_event",
                       "sim.eventfn_spills", "peak_heap_mb_p50"))


def pinned(name: str) -> bool:
    """Is a --trace 1 metric simulated, so that it repeats exactly?"""
    return not (name.endswith("_s") or name in HOST_ONLY
                or name.startswith(("span.", "trace.")))


def run(workload: str, seed: int, trace: int,
        seconds: float) -> dict[str, float]:
    cmd = [sys.executable, str(REPO / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd[1:])}: exit {done.returncode}")
    return {name: metric["value"]
            for name, metric in json.loads(lines[-1])["metrics"].items()}


def measure(seconds: float) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            row = {k: v for k, v in run(workload, seed, 0, seconds).items()
                   if k in END_TO_END}
            row.update((k, v)
                       for k, v in run(workload, seed, 1, seconds).items()
                       if pinned(k))
            out[f"{workload}@{seed}"] = row
    return out


def differences(want: dict, got: dict) -> list[str]:
    out = []
    for case in sorted(want.keys() | got.keys()):
        w, g = want.get(case, {}), got.get(case, {})
        for name in sorted(w.keys() | g.keys()):
            if w.get(name) != g.get(name):
                out.append(f"{case} {name}: pinned {w.get(name)!r}, "
                           f"measured {g.get(name)!r}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="re-pin the reference from this checkout")
    parser.add_argument("--seconds", type=float, default=1,
                        help="timed loop of each perfbench run")
    args = parser.parse_args()
    try:
        got = measure(args.seconds)
    except RuntimeError as err:
        print(f"perfbench_reference: {err}", file=sys.stderr)
        return 1
    if args.update:
        REFERENCE.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"pinned {sum(map(len, got.values()))} metrics to {REFERENCE}")
        return 0
    diff = differences(json.loads(REFERENCE.read_text()), got)
    for line in diff:
        print(line)
    print(f"{len(diff)} difference(s) from {REFERENCE.name}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
