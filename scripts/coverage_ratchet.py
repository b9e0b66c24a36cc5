#!/usr/bin/env python3
"""Coverage ratchet: every src/ function that tier-1 never runs is listed.

Reads the .gcda files that a gcc `--coverage` build leaves after ctest has
run, through `gcov --json-format`, and reports:

  * line coverage of src/ (a line counts as run when any object that
    compiled it ran it);
  * every src/ function site that never ran. A site is a (file, start
    line) pair; it counts as run when any of its instantiations ran, in any
    object (templates, inline functions in headers, C1/C2 constructors);
  * the src/ objects that have no .gcda at all: no program ctest ran links
    them (src/net/tcp_transport.cpp today), so gcov has no counts for
    their functions and they are named but not judged.

A never-run site must be listed in scripts/coverage_allowlist.txt with the
reason tier-1 cannot reach it. The run fails on an unlisted never-run site
(test it or delete it) and on a stale entry, one that names no never-run
site any more (the function is now tested, renamed or gone: drop the
line), so the list only shrinks unless a change says why it grows.

Allowlist lines read `FILE | FUNCTION | REASON`. FUNCTION is gcov's
demangled name with `splice::` dropped, `std::string` for the spelled-out
basic_string and no `[abi:cxx11]` tag, exactly as this script prints it.
Blank lines and lines starting with `#` are ignored.

Exit codes: 0 clean, 1 unlisted sites or allowlist errors, 2 usage or
environment errors.

Usage:
  scripts/coverage_ratchet.py --build-dir BUILD [--source-root DIR]
                              [--report FILE]
"""

from __future__ import annotations

import argparse
import collections
import json
import pathlib
import re
import shutil
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
ALLOWLIST = REPO / "scripts" / "coverage_allowlist.txt"

_STRING = ("std::__cxx11::basic_string<char, std::char_traits<char>, "
           "std::allocator<char> >")


def short_name(demangled: str) -> str:
    name = demangled.replace(_STRING, "std::string")
    name = name.replace("[abi:cxx11]", "")
    return re.sub(r"\bsplice::", "", name)


def gcov_documents(gcov: str, build_dir: pathlib.Path):
    """Yield one gcov JSON document per .gcda under build_dir."""
    by_dir = collections.defaultdict(list)
    for gcda in sorted(build_dir.rglob("*.gcda")):
        by_dir[gcda.parent].append(gcda.name)
    if not by_dir:
        raise SystemExit(f"error: no .gcda files under {build_dir}; build "
                         "with --coverage and run ctest first")
    for directory, names in by_dir.items():
        proc = subprocess.run(
            [gcov, "--json-format", "--stdout", "--object-directory",
             str(directory), *names],
            cwd=directory, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"error: gcov failed in {directory}")
        for line in proc.stdout.splitlines():
            if line.strip():
                yield json.loads(line)


def collect(gcov: str, build_dir: pathlib.Path, source_root: pathlib.Path):
    """Return (sites, lines) for the files under source_root/src.

    sites: {(file, start_line): {"count": int, "names": set}}
    lines: {(file, line): bool executed}
    """
    src = (source_root / "src").resolve()
    sites: dict = {}
    lines: dict = {}
    for doc in gcov_documents(gcov, build_dir):
        cwd = pathlib.Path(doc.get("current_working_directory", "."))
        for entry in doc["files"]:
            path = (cwd / entry["file"]).resolve()
            if src not in path.parents:
                continue
            rel = path.relative_to(source_root.resolve()).as_posix()
            for fn in entry["functions"]:
                site = sites.setdefault((rel, fn["start_line"]),
                                        {"count": 0, "names": set()})
                site["count"] += fn["execution_count"]
                site["names"].add(short_name(fn["demangled_name"]))
            for ln in entry["lines"]:
                key = (rel, ln["line_number"])
                lines[key] = lines.get(key, False) or ln["count"] > 0
    return sites, lines


def read_allowlist(path: pathlib.Path):
    """Return ({(file, function): reason}, [errors])."""
    entries: dict = {}
    errors: list[str] = []
    for number, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(" | ")]
        if len(fields) != 3 or not all(fields):
            errors.append(f"{path.name}:{number}: expected "
                          "`FILE | FUNCTION | REASON`")
            continue
        file, function, reason = fields
        if (file, function) in entries:
            errors.append(f"{path.name}:{number}: duplicate entry")
        entries[(file, function)] = reason
    return entries, errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", required=True, type=pathlib.Path,
                        help="coverage build tree, after ctest has run")
    parser.add_argument("--source-root", type=pathlib.Path, default=REPO,
                        help="checkout the build compiled (default: this one)")
    parser.add_argument("--report", type=pathlib.Path,
                        help="also write the full report to this file")
    args = parser.parse_args()

    gcov = shutil.which("gcov")
    if gcov is None:
        print("error: gcov not found", file=sys.stderr)
        return 2
    if not args.build_dir.is_dir():
        print(f"error: no build tree at {args.build_dir}", file=sys.stderr)
        return 2
    build_dir = args.build_dir.resolve()
    sites, lines = collect(gcov, build_dir, args.source_root)
    allowed, errors = read_allowlist(ALLOWLIST)

    report: list[str] = []
    run = sum(1 for executed in lines.values() if executed)
    share = 100.0 * run / max(len(lines), 1)
    report.append(f"src/ lines executed: {share:.1f}% ({run}/{len(lines)})")
    per_file = collections.defaultdict(lambda: [0, 0])
    for (file, _), executed in lines.items():
        per_file[file][0] += executed
        per_file[file][1] += 1

    never = sorted(key for key, site in sites.items() if site["count"] == 0)
    report.append(f"src/ function sites: {len(sites)}, never run: "
                  f"{len(never)}")
    for gcno in sorted((build_dir / "src").rglob("*.gcno")):
        if not gcno.with_suffix(".gcda").exists():
            report.append(f"  no data   {gcno.relative_to(build_dir)} "
                          "(linked into nothing ctest ran)")
    used = set()
    unlisted = []
    for file, line in never:
        names = sorted(sites[(file, line)]["names"])
        listed = [(file, n) for n in names if (file, n) in allowed]
        used.update(listed)
        if listed:
            report.append(f"  listed    {file}:{line}  {listed[0][1]}\n"
                          f"            why: {allowed[listed[0]]}")
        else:
            unlisted.append((file, line, names))
    for file, line, names in unlisted:
        report.append(f"  UNLISTED  {file}:{line}  {names[0]}")
        for other in names[1:]:
            report.append(f"            also {other}")
    for key in sorted(set(allowed) - used):
        errors.append(f"stale allowlist entry (ran, renamed or gone): "
                      f"{key[0]} | {key[1]}")

    report.append("line coverage by file, lowest first:")
    for file, (ran, total) in sorted(per_file.items(),
                                     key=lambda kv: (kv[1][0] / kv[1][1],
                                                     kv[0])):
        report.append(f"  {100.0 * ran / total:5.1f}%  {ran:5d}/{total:<5d} "
                      f"{file}")

    if unlisted:
        errors.append(f"{len(unlisted)} never-run src/ function site(s) are "
                      f"not in {ALLOWLIST.name}: test them, delete them, or "
                      "list them with the reason tier-1 cannot reach them")
    report.extend(f"error: {error}" for error in errors)
    text = "\n".join(report) + "\n"
    if args.report:
        args.report.write_text(text)
    print(text, end="")
    return 1 if unlisted or errors else 0


if __name__ == "__main__":
    sys.exit(main())
