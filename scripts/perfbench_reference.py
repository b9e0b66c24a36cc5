#!/usr/bin/env python3
"""perfbench's regression gate: pinned simulated metrics, and host metrics
against one pinned reference commit.

1. Pins. perfbench's simulated metrics are a pure function of the workload
   seed, so a guard on them needs no statistics. For every workload in
   WORKLOADS at seeds 71 and 1986 this script runs

       python3 perfbench/run.py --workload W --seed S --seconds N --trace 0|1

   and compares, exactly, `makespan_ticks_mean`, `slowdown_mean` and
   `msgs_per_call` from `--trace 0` and every per-layer metric from
   `--trace 1` that repeats exactly, against scripts/perfbench_reference.json.
   Left out, because they measure the host or move with the timed loop's
   length: every `*_s` metric, `sim.events_per_s`, `util.allocs_per_event`,
   `sim.eventfn_spills`, `peak_heap_mb_p50`, `span.*` and `trace.*`.

   A change that alters the modelled protocol (a message, a recovery
   decision, a schedule) moves some of these numbers. Such a change re-pins
   the file with `--update` and lists each changed metric, with its old and
   new value, in CHANGES.md. A change meant only for speed or memory leaves
   the pins as they are.

2. Host metrics. The file's `reference_commit` is exported with
   `git archive` into .bench_build/reference-<sha>/, and that commit and
   this checkout run PAIRS alternating pairs of `--trace 0` invocations at
   seed 71 on every workload, the reference first in odd pairs. For each
   workload and metric the script prints both sides' median and MAD (median
   absolute deviation) over the pairs and, for an `end_to_end` metric of
   BENCHMARK.json, how many pairs the head won (a tie counts for neither
   side). A claimed gain must win at least 9 of the 10 pairs; the count is
   printed, not gated. The script fails when the head's median of an
   `end_to_end` metric is worse than the reference's by more than that
   metric's bound. The reference commit
   moves only by an edit of the file that CHANGES.md records; `--update`
   keeps it.

Exit codes: 0 every pin matches and no bound is exceeded; 1 a pin differs,
is missing or new, a bound is exceeded, or a perfbench run failed (a wrong
answer, an oracle violation, or a simulated count that drifted between
repeats of one seed); 2 usage errors, or a reference commit this clone
does not have (a CI checkout needs `fetch-depth: 0`).

Usage, from anywhere in a checkout:
  scripts/perfbench_reference.py [--seconds N] [--update]

`--seconds N` (default 1) is each run's timed loop; a longer loop repeats
each seed more often, so a drifting count has more chances to show, and
gives each host median more runs. `--update` re-pins and skips the pairs.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
REFERENCE = REPO / "scripts" / "perfbench_reference.json"
COMMIT_KEY = "reference_commit"
WORKLOADS = ("one-crash", "warm-rejoin", "partition-heal",
             "one-crash-sharded")
SEEDS = (71, 1986)
PAIRS = 10
PAIR_SEED = 71
END_TO_END = ("makespan_ticks_mean", "slowdown_mean", "msgs_per_call")
HOST_ONLY = frozenset(("sim.events_per_s", "util.allocs_per_event",
                       "sim.eventfn_spills", "peak_heap_mb_p50"))


def pinned(name: str) -> bool:
    """Is a --trace 1 metric simulated, so that it repeats exactly?"""
    return not (name.endswith("_s") or name in HOST_ONLY
                or name.startswith(("span.", "trace.")))


def run(root: pathlib.Path, workload: str, seed: int, trace: int,
        seconds: float) -> dict[str, float]:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{done.stderr}{' '.join(cmd[1:])}: "
                           f"exit {done.returncode}")
    return {name: metric["value"]
            for name, metric in json.loads(lines[-1])["metrics"].items()}


def measure(seconds: float) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            row = {k: v for k, v in run(REPO, workload, seed, 0,
                                        seconds).items()
                   if k in END_TO_END}
            row.update((k, v)
                       for k, v in run(REPO, workload, seed, 1,
                                       seconds).items()
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


def export(commit: str) -> pathlib.Path:
    """The reference commit's tree under .bench_build/, exported once."""
    git = ["git", "-C", str(REPO)]
    sha = subprocess.run(git + ["rev-parse", "--verify", "--quiet",
                                f"{commit}^{{commit}}"],
                         stdout=subprocess.PIPE, text=True,
                         check=False).stdout.strip()
    if not sha:
        raise LookupError(f"reference commit {commit} is not in this clone")
    tree = REPO / ".bench_build" / f"reference-{sha}"
    if not (tree / "perfbench" / "run.py").exists():
        part = tree.with_name(tree.name + ".part")
        shutil.rmtree(part, ignore_errors=True)
        part.mkdir(parents=True)
        archive = subprocess.run(git + ["archive", sha],
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(part)], input=archive,
                       check=True)
        part.rename(tree)
    return tree


def mad(values: list[float]) -> float:
    mid = statistics.median(values)
    return statistics.median(abs(v - mid) for v in values)


def pairs_won(ref: list[float], head: list[float], better: str) -> int:
    """Pairs in which the head is strictly better; ties count for neither."""
    sign = 1 if better == "lower" else -1
    return sum(1 for r, h in zip(ref, head) if sign * (r - h) > 0)


def compare_host(commit: str, seconds: float) -> list[str]:
    """Run the pairs; print the medians; return each exceeded bound."""
    sides = {"reference": export(commit), "head": REPO}
    samples: dict = {w: {side: [] for side in sides} for w in WORKLOADS}
    for pair in range(1, PAIRS + 1):
        order = ("reference", "head") if pair % 2 else ("head", "reference")
        for workload in WORKLOADS:
            for side in order:
                samples[workload][side].append(
                    run(sides[side], workload, PAIR_SEED, 0, seconds))
        print(f"pair {pair}/{PAIRS} done", flush=True)

    bounds = {m["name"]: m for m in json.loads(
        (REPO / "BENCHMARK.json").read_text())["end_to_end"]}
    print(f"\nhost metrics at seed {PAIR_SEED}, median ± MAD over {PAIRS} "
          f"alternating pairs, reference {commit[:12]} vs head:")
    print(f"{'workload':<18} {'metric':<20} {'reference':>20} "
          f"{'head':>20} {'change':>8} {'bound':>6} {'won':>6}")
    failures = []
    for workload in WORKLOADS:
        ref, head = samples[workload]["reference"], samples[workload]["head"]
        for name in ref[0]:
            r = [run_[name] for run_ in ref]
            h = [run_[name] for run_ in head]
            r_mid, h_mid = statistics.median(r), statistics.median(h)
            change = (h_mid - r_mid) / r_mid if r_mid else 0.0
            bound = bounds.get(name)
            won = (f"{pairs_won(r, h, bound['better'])}/{len(r)}"
                   if bound else "-")
            print(f"{workload:<18} {name:<20} "
                  f"{f'{r_mid:.5g} ± {mad(r):.2g}':>20} "
                  f"{f'{h_mid:.5g} ± {mad(h):.2g}':>20} {change:>+8.1%} "
                  f"{format(bound['bound'], '.0%') if bound else '-':>6} "
                  f"{won:>6}")
            if bound is None:
                continue
            worse = change if bound["better"] == "lower" else -change
            if worse > bound["bound"]:
                failures.append(
                    f"{workload} {name}: head median {h_mid:.4g} "
                    f"{bound['unit']} is {worse:.1%} worse than the "
                    f"reference's {r_mid:.4g} (bound {bound['bound']:.0%})")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="re-pin the simulated metrics from this "
                             "checkout; skips the host pairs")
    parser.add_argument("--seconds", type=float, default=1,
                        help="timed loop of each perfbench run")
    args = parser.parse_args()
    stored = json.loads(REFERENCE.read_text())
    commit = stored.pop(COMMIT_KEY)
    try:
        got = measure(args.seconds)
        if args.update:
            print(f"pinned {sum(map(len, got.values()))} metrics to "
                  f"{REFERENCE}")
            got[COMMIT_KEY] = commit
            REFERENCE.write_text(json.dumps(got, indent=1, sort_keys=True)
                                 + "\n")
            return 0
        diff = differences(stored, got)
        for line in diff:
            print(line)
        print(f"{len(diff)} difference(s) from {REFERENCE.name}", flush=True)
        failures = compare_host(commit, args.seconds)
    except RuntimeError as err:
        print(f"perfbench_reference: {err}", file=sys.stderr)
        return 1
    except LookupError as err:
        print(f"perfbench_reference: {err}", file=sys.stderr)
        return 2
    for line in failures:
        print(f"FAIL {line}")
    print(f"{len(failures)} host metric(s) beyond their bound")
    return 1 if diff or failures else 0


if __name__ == "__main__":
    sys.exit(main())
