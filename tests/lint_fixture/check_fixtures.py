#!/usr/bin/env python3
"""Fixture harness for tools/splice_lint.py.

Each tests/lint_fixture/spl*.cpp carries `// expect-lint: SPLxxx` markers.
For every fixture this script runs the linter in --fixture mode and asserts
that the set of (rule, line) findings equals the set of markers exactly —
a missing finding means the rule regressed, an extra finding means the rule
over-triggers. A fixture with zero markers is itself an error.

A directory tests/lint_fixture/spl*/ is one fixture whose files are linted
together in tree mode, as `lint_tree` lints the source tree, so a rule that
reads several files (SPL005's scope) is checked across them; its markers
are matched per (file, rule, line).

Exit 0 when every fixture matches; 1 otherwise.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent
LINT = REPO / "tools" / "splice_lint.py"
MARKER = re.compile(r"//\s*expect-lint:\s*(SPL\d{3})")


def expected_of(path: pathlib.Path) -> set[tuple[str, str, int]]:
    out = set()
    rel = path.relative_to(REPO).as_posix()
    for ln, line in enumerate(path.read_text().splitlines(), start=1):
        for m in MARKER.finditer(line):
            out.add((rel, m.group(1), ln))
    return out


def findings_of(fixture: pathlib.Path,
                files: list[pathlib.Path]) -> set[tuple[str, str, int]]:
    mode = [] if fixture.is_dir() else ["--fixture"]
    proc = subprocess.run(
        [sys.executable, str(LINT), "--root", str(REPO), *mode, "--json",
         *map(str, files)],
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode not in (0, 1):
        print(proc.stderr, file=sys.stderr)
        raise RuntimeError(
            f"splice_lint exited {proc.returncode} on {fixture.name}")
    payload = json.loads(proc.stdout)
    return {(f["path"], f["rule"], f["line"]) for f in payload["findings"]}


def main() -> int:
    fixtures = sorted(HERE.glob("spl*.cpp")) + sorted(
        p for p in HERE.glob("spl*") if p.is_dir())
    if not fixtures:
        print("error: no fixtures found", file=sys.stderr)
        return 1
    failures = 0
    for fx in fixtures:
        files = sorted(fx.iterdir()) if fx.is_dir() else [fx]
        expected = set().union(*map(expected_of, files))
        if not expected:
            print(f"FAIL {fx.name}: no expect-lint markers")
            failures += 1
            continue
        actual = findings_of(fx, files)
        if actual == expected:
            print(f"ok   {fx.name}: {len(expected)} finding(s) as expected")
            continue
        failures += 1
        print(f"FAIL {fx.name}:")
        for path, rule, line in sorted(expected - actual):
            print(f"  missing: {rule} at {path}:{line} (rule regressed?)")
        for path, rule, line in sorted(actual - expected):
            print(f"  extra:   {rule} at {path}:{line} (over-trigger?)")
    print(f"{len(fixtures) - failures}/{len(fixtures)} fixtures pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
