#!/usr/bin/env python3
"""splice_lint: project-invariant static analysis for the splice tree.

The repo's hardest correctness properties are invariants no off-the-shelf
tool knows about: seeded runs must be bit-identical (no nondeterminism
sources), the wire payload is a *closed* 15-kind variant (every kind-indexed
switch and table must stay exhaustive), envelopes are consumed exactly once
(use-after-move in handler-reachable code is a latent ASan report), and the
PDES window protocol confines shard state behind barrier-ordered entry
points. Each rule below rejects one of those bug classes at lint time.

Engine: rules run on a token stream produced by a small C++ lexer (comments
and string literals handled, brace/paren structure tracked) — an "AST-lite"
engine. When a Python libclang binding is importable the driver reports it
and the engine choice is recorded in the output header; the rules themselves
are written against the token API so they behave identically either way
(this container ships no libclang, so the token engine is the one CI vets).

Rules (each has a fixture in tests/lint_fixture/ that must fail):

  SPL001  nondeterminism sources (std::random_device, rand()/srand(),
          time(), std::chrono::system_clock, default-seeded std::mt19937)
          outside the wall-clock allowlist (net/tcp_transport.cpp, tools/,
          scripts/).
  SPL002  banned includes: <fcntl.h> (glibc declares the splice(2) syscall
          and the declaration collides with `namespace splice` in any TU
          that is ADL-reachable), <stdlib.h> (use <cstdlib>), plus the
          C rand family (drand48 & friends) from any header.
  SPL003  MsgKind/EventKind exhaustiveness: every switch over these enums
          must name every enumerator (a `default:` does not count — adding
          a 16th MsgKind must fail lint at every site that needs updating),
          and every block marked `// splice-lint: exhaustive(Enum)` must
          mention every enumerator by name.
  SPL004  Envelope use-after-move: an Envelope (or its payload) consumed by
          std::move must not be touched again on the same straight-line
          path. Scoped to src/ — the Processor::handle-reachable code where
          the consume-at-argument-evaluation contract lives.
  SPL005  PDES shard confinement: members annotated SPLICE_SHARD_CONFINED
          (util/annotations.h) may only be accessed inside functions marked
          SPLICE_SHARD_ENTRY — the vetted barrier-ordered entry points.
          Scoped to the annotating file and its same-stem source: the
          members are private, so no other file can reach them.

Suppression: `// splice-lint: allow(SPL00N): reason` on the finding's line
or the line above. A suppression without a reason is itself a finding
(SPL000), so every escape hatch is justified in-source.

Exit status: 0 clean, 1 findings, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# Directories scanned in tree mode, relative to --root.
SCAN_DIRS = ["src", "tools", "tests", "bench", "examples"]
# Lint fixtures are *supposed* to fail; never scan them in tree mode.
EXCLUDE_PREFIXES = ["tests/lint_fixture"]

CXX_EXTENSIONS = {".cpp", ".cc", ".cxx", ".h", ".hpp"}

# SPL001: files/dirs where wall-clock and OS entropy are the point.
SPL001_ALLOW = ["src/net/tcp_transport.cpp", "tools/", "scripts/"]

# SPL003: the closed enums and the headers that define them.
SPL003_ENUMS = {
    "MsgKind": "src/net/message.h",
    "EventKind": "src/obs/journal.h",
}
# Sentinel enumerators: never required in switches or marked tables.
SPL003_SENTINELS = {"kCount"}

# SPL004 runs only on library code (handler-reachable paths); tests build
# throwaway envelopes in patterns that are fine for a test's lifetime.
SPL004_PREFIXES = ["src/"]

RULE_HINTS = {
    "SPL000": "add a reason: // splice-lint: allow(SPLxxx): <why this is safe>",
    "SPL001": "route randomness through util::Rng seeded from SystemConfig::seed; "
    "sim time comes from Simulator::now()",
    "SPL002": "<fcntl.h> collides with namespace splice (glibc splice(2)); use "
    "ioctl(FIONBIO) for nonblocking mode and <cstdlib> for the C library",
    "SPL003": "name every enumerator explicitly (default: does not count); a new "
    "kind must fail lint at every site that needs updating",
    "SPL004": "an Envelope is consumed at argument evaluation; re-reads after "
    "std::move are use-after-move (hoist fields you need first)",
    "SPL005": "access confined shard state only from a SPLICE_SHARD_ENTRY "
    "function whose barrier ordering has been argued (util/annotations.h)",
}


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

@dataclass
class Tok:
    kind: str  # 'id' | 'num' | 'str' | 'char' | 'punct'
    text: str
    line: int


_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUM_RE = re.compile(r"\.?[0-9](?:[0-9a-fA-F'.xXbBpP]|[eE][+-]|[pP][+-])*")
# Longest-match punctuators that matter for structure/meaning.
_PUNCTS = [
    "<<=", ">>=", "...", "->*", "::", "->", "<<", ">>", "<=", ">=", "==",
    "!=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
    "^=",
]


@dataclass
class SourceFile:
    path: str  # repo-relative, forward slashes
    text: str
    toks: list = field(default_factory=list)
    # line -> concatenated comment text ending on that line
    comments: dict = field(default_factory=dict)
    # (line, header, is_angle) per #include
    includes: list = field(default_factory=list)
    # line -> 1-based char offset of line start (for block text extraction)
    line_starts: list = field(default_factory=list)


def lex(path: str, text: str) -> SourceFile:
    f = SourceFile(path=path, text=text)
    i, n, line = 0, len(text), 1
    f.line_starts = [0]
    for m in re.finditer(r"\n", text):
        f.line_starts.append(m.end())

    def add_comment(ln: int, body: str) -> None:
        f.comments[ln] = f.comments.get(ln, "") + " " + body

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            add_comment(line, text[i + 2 : j])
            i = j
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            body = text[i + 2 : j]
            add_comment(line, body)
            line += body.count("\n")
            i = j + 2
            continue
        if c == "#":
            # Preprocessor line (with continuations). Record includes; the
            # token stream skips the directive so rules see pure C++.
            j = i
            while j < n:
                k = text.find("\n", j)
                k = n if k < 0 else k
                if text[k - 1 : k] == "\\":
                    j = k + 1
                else:
                    break
            directive = text[i:k]
            m = re.match(r"#\s*include\s*([<\"])([^>\"]+)[>\"]", directive)
            if m:
                f.includes.append((line, m.group(2), m.group(1) == "<"))
            line += directive.count("\n")
            i = k
            continue
        if text.startswith('R"', i):
            m = re.match(r'R"([^()\\ ]*)\(', text[i:])
            if m:
                close = ")" + m.group(1) + '"'
                j = text.find(close, i + m.end())
                j = n - len(close) if j < 0 else j
                body = text[i : j + len(close)]
                f.toks.append(Tok("str", body, line))
                line += body.count("\n")
                i = j + len(close)
                continue
        if c == '"' or (c == "'" and not _NUM_RE.match(text, i)):
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            f.toks.append(
                Tok("str" if quote == '"' else "char", text[i : j + 1], line))
            i = j + 1
            continue
        m = _ID_RE.match(text, i)
        if m:
            f.toks.append(Tok("id", m.group(0), line))
            i = m.end()
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            m = _NUM_RE.match(text, i)
            f.toks.append(Tok("num", m.group(0), line))
            i = m.end()
            continue
        for p in _PUNCTS:
            if text.startswith(p, i):
                f.toks.append(Tok("punct", p, line))
                i += len(p)
                break
        else:
            f.toks.append(Tok("punct", c, line))
            i += 1
    return f


# ---------------------------------------------------------------------------
# Shared token helpers
# ---------------------------------------------------------------------------

def match_brace(toks: list, open_idx: int) -> int:
    """Index of the '}' matching toks[open_idx] == '{' (len(toks) if none)."""
    depth = 0
    for i in range(open_idx, len(toks)):
        t = toks[i].text
        if t == "{":
            depth += 1
        elif t == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(toks)


def next_of(toks: list, i: int, text: str) -> int:
    while i < len(toks) and toks[i].text != text:
        i += 1
    return i


def path_matches(path: str, prefixes: list) -> bool:
    return any(
        path == p or (p.endswith("/") and path.startswith(p)) or
        path.startswith(p.rstrip("/") + "/")
        for p in prefixes)


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------

_ALLOW_RE = re.compile(r"splice-lint:\s*allow\((SPL\d{3})\)\s*:?\s*(\S?.*)")


class Suppressions:
    def __init__(self, f: SourceFile, findings: list):
        self.by_rule_line = set()
        for ln, body in f.comments.items():
            for m in _ALLOW_RE.finditer(body):
                rule, reason = m.group(1), m.group(2).strip()
                if not reason:
                    findings.append(
                        Finding("SPL000", f.path, ln,
                                f"suppression of {rule} carries no reason"))
                # A comment suppresses its own line and the line below
                # (the common "comment above the statement" shape).
                self.by_rule_line.add((rule, ln))
                self.by_rule_line.add((rule, ln + 1))

    def active(self, rule: str, line: int) -> bool:
        return (rule, line) in self.by_rule_line


# ---------------------------------------------------------------------------
# SPL001 — nondeterminism sources
# ---------------------------------------------------------------------------

def check_spl001(f: SourceFile, out: list) -> None:
    if path_matches(f.path, SPL001_ALLOW):
        return
    toks = f.toks
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        nxt = toks[i + 1].text if i + 1 < len(toks) else ""
        prev = toks[i - 1].text if i > 0 else ""
        if t.text == "random_device":
            out.append(Finding(
                "SPL001", f.path, t.line,
                "std::random_device is OS entropy; seeded runs must replay"))
        elif t.text in ("rand", "srand") and nxt == "(" and prev != ".":
            out.append(Finding(
                "SPL001", f.path, t.line,
                f"C {t.text}() draws from hidden global state"))
        elif t.text == "system_clock":
            out.append(Finding(
                "SPL001", f.path, t.line,
                "std::chrono::system_clock reads the wall clock"))
        elif (t.text == "time" and nxt == "(" and
              prev in ("::", ";", "{", "}", "(", ",", "=", "return")):
            # `::time(...)` / bare `time(nullptr)` call positions only;
            # member calls (`sim.time()`) and declarations don't match.
            if prev == "::" and i >= 2 and toks[i - 2].kind == "id" and \
                    toks[i - 2].text not in ("std",):
                continue  # some_ns::time(...) — qualified user function
            out.append(Finding(
                "SPL001", f.path, t.line,
                "time() reads the wall clock"))
        elif t.text in ("mt19937", "mt19937_64"):
            # Default-constructed engine ⇒ fixed seed nobody chose; flag
            # `std::mt19937 g;` / `g{}` / `g()`. A seeded constructor or a
            # type-alias position is fine.
            j = i + 1
            if j < len(toks) and toks[j].kind == "id":
                decl = toks[j]
                k = j + 1
                after = toks[k].text if k < len(toks) else ""
                unseeded = after == ";" or (
                    after in ("{", "(") and k + 1 < len(toks) and
                    toks[k + 1].text in ("}", ")"))
                if unseeded:
                    out.append(Finding(
                        "SPL001", f.path, decl.line,
                        f"std::{t.text} {decl.text} is default-seeded; "
                        "seed it from SystemConfig::seed"))


# ---------------------------------------------------------------------------
# SPL002 — banned includes + C rand family
# ---------------------------------------------------------------------------

_SPL002_RAND_FAMILY = {
    "drand48", "erand48", "lrand48", "nrand48", "mrand48", "jrand48",
    "rand_r", "srand48",
}


def check_spl002(f: SourceFile, out: list) -> None:
    for line, header, is_angle in f.includes:
        if not is_angle:
            continue
        if header == "fcntl.h":
            out.append(Finding(
                "SPL002", f.path, line,
                "#include <fcntl.h> is banned: glibc declares splice(2) and "
                "the declaration collides with namespace splice"))
        elif header == "stdlib.h":
            out.append(Finding(
                "SPL002", f.path, line,
                "#include <stdlib.h> is banned: use <cstdlib> (and nothing "
                "from its rand family)"))
    for t in f.toks:
        if t.kind == "id" and t.text in _SPL002_RAND_FAMILY:
            out.append(Finding(
                "SPL002", f.path, t.line,
                f"C rand-family function {t.text}() is banned "
                "(hidden global state; not seedable per-run)"))


# ---------------------------------------------------------------------------
# SPL003 — closed-enum exhaustiveness
# ---------------------------------------------------------------------------

def parse_enumerators(root: str, enum: str, header_rel: str) -> list:
    path = os.path.join(root, header_rel)
    with open(path, encoding="utf-8") as fh:
        f = lex(header_rel, fh.read())
    toks = f.toks
    for i in range(len(toks) - 2):
        if (toks[i].text == "enum" and toks[i + 1].text == "class" and
                toks[i + 2].text == enum):
            open_idx = next_of(toks, i + 3, "{")
            close_idx = match_brace(toks, open_idx)
            names, expect_name = [], True
            depth = 0
            for t in toks[open_idx + 1 : close_idx]:
                if t.text in ("(", "{", "["):
                    depth += 1
                elif t.text in (")", "}", "]"):
                    depth -= 1
                elif depth == 0 and t.text == ",":
                    expect_name = True
                elif depth == 0 and expect_name and t.kind == "id":
                    names.append(t.text)
                    expect_name = False
            return names
    raise SystemExit(f"splice_lint: enum {enum} not found in {header_rel}")


_EXHAUSTIVE_RE = re.compile(r"splice-lint:\s*exhaustive\((\w+)\)")


def check_spl003(f: SourceFile, enums: dict, out: list) -> None:
    toks = f.toks
    # -- switches ----------------------------------------------------------
    for i, t in enumerate(toks):
        if t.text != "switch" or t.kind != "id":
            continue
        body_open = next_of(toks, i, "{")
        body_close = match_brace(toks, body_open)
        # Which closed enum (if any) do the case labels name?
        for enum, enumerators in enums.items():
            present = set()
            j = body_open
            while j < body_close:
                if (toks[j].text == "case" and j + 3 < len(toks) and
                        toks[j + 1].text == enum and
                        toks[j + 2].text == "::"):
                    present.add(toks[j + 3].text)
                j += 1
            if not present:
                continue
            required = [e for e in enumerators if e not in SPL003_SENTINELS]
            missing = [e for e in required if e not in present]
            if missing:
                out.append(Finding(
                    "SPL003", f.path, t.line,
                    f"switch over {enum} misses "
                    f"{', '.join(enum + '::' + m for m in missing)}"))
    # -- marked tables -----------------------------------------------------
    for ln, body in f.comments.items():
        for m in _EXHAUSTIVE_RE.finditer(body):
            enum = m.group(1)
            if enum not in enums:
                out.append(Finding(
                    "SPL003", f.path, ln,
                    f"exhaustive({enum}) marker names an unknown enum"))
                continue
            # The marked block: first '{' at/after the marker line to its
            # matching '}'. Enumerator names may appear as tokens or in
            # comments (name tables document entries per-line).
            start = None
            for i, t in enumerate(toks):
                if t.line >= ln and t.text == "{":
                    start = i
                    break
            if start is None:
                out.append(Finding(
                    "SPL003", f.path, ln,
                    f"exhaustive({enum}) marker is not followed by a block"))
                continue
            end = match_brace(toks, start)
            lo = f.line_starts[toks[start].line - 1]
            hi_line = toks[end].line if end < len(toks) else toks[-1].line
            hi = (f.line_starts[hi_line] if hi_line < len(f.line_starts)
                  else len(f.text))
            block_text = f.text[lo:hi]
            words = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", block_text))
            required = [e for e in enums[enum]
                        if e not in SPL003_SENTINELS]
            missing = [e for e in required if e not in words]
            if missing:
                out.append(Finding(
                    "SPL003", f.path, ln,
                    f"exhaustive({enum}) block misses {', '.join(missing)}"))


# ---------------------------------------------------------------------------
# SPL004 — Envelope use-after-move
# ---------------------------------------------------------------------------

_CONTROL_EXITS = {"break", "return", "continue", "throw", "goto"}


def check_spl004(f: SourceFile, out: list) -> None:
    if not path_matches(f.path, SPL004_PREFIXES):
        return
    toks = f.toks
    n = len(toks)
    # Envelope-typed names currently in scope: name -> declaration depth.
    tracked: dict = {}
    # Poisoned names: name -> (depth of the move, token index, member|None).
    poisoned: dict = {}
    # Depths at which a name was shadowed by a lambda init-capture; while
    # inside that lambda body the name refers to the capture, not the moved
    # outer variable.
    shadowed: dict = {}
    # Depth of a control-exit keyword whose statement is still open; its
    # poison clearing happens at the terminating ';' (see below).
    pending_exit = None
    depth = 0
    i = 0
    while i < n:
        t = toks[i]
        txt = t.text
        if txt == "{":
            depth += 1
            i += 1
            continue
        if txt == "}":
            # Leaving a block ends every poison and shadow opened inside it.
            for name in [k for k, v in poisoned.items() if v[0] >= depth]:
                del poisoned[name]
            for name in [k for k, v in shadowed.items() if v >= depth]:
                del shadowed[name]
            for name in [k for k, v in tracked.items() if v >= depth]:
                del tracked[name]
            depth -= 1
            pending_exit = None
            i += 1
            continue
        if t.kind == "id" and txt in _CONTROL_EXITS:
            # Control leaves this statement sequence: a move made at this
            # depth or deeper cannot flow past (break ends the case branch,
            # return ends the function). Shallower moves stay poisoned —
            # a conditional early-out does not clean them. The clearing is
            # deferred to the statement's ';' because the exit's own
            # expression still reads: `return envelope.to;` after a move
            # is a live use-after-move.
            pending_exit = depth
            i += 1
            continue
        if txt == ";" and pending_exit is not None:
            for name in [k for k, v in poisoned.items()
                         if v[0] >= pending_exit]:
                del poisoned[name]
            pending_exit = None
            i += 1
            continue
        if t.kind == "id" and txt in ("case", "default"):
            # A new switch branch: moves made in earlier branches at this
            # depth (or deeper) are not live here.
            for name in [k for k, v in poisoned.items() if v[0] >= depth]:
                del poisoned[name]
            i += 1
            continue
        # Declarations: [const] [net::]Envelope [&&|&] name
        if t.kind == "id" and txt == "Envelope":
            j = i + 1
            while j < n and toks[j].text in ("&&", "&", "const"):
                j += 1
            if j < n and toks[j].kind == "id":
                name = toks[j].text
                tracked[name] = depth
                poisoned.pop(name, None)
                i = j + 1
                continue
        # Lambda init-capture shadowing: [..., name = std::move(name), ...]
        if txt == "[":
            close = i
            d = 0
            while close < n:
                if toks[close].text == "[":
                    d += 1
                elif toks[close].text == "]":
                    d -= 1
                    if d == 0:
                        break
                close += 1
            j = i + 1
            while j < close:
                if (toks[j].kind == "id" and toks[j].text in tracked and
                        j + 1 < close and toks[j + 1].text == "=" ):
                    # The capture's initializer may itself move the outer
                    # variable — handled by the std::move scan below. The
                    # *name* is shadowed from the lambda body on.
                    shadowed[toks[j].text] = depth + 1
                j += 1
        # std::move(name[.member])
        if (t.kind == "id" and txt == "move" and i >= 2 and
                toks[i - 1].text == "::" and toks[i - 2].text == "std" and
                i + 1 < n and toks[i + 1].text == "("):
            j = i + 2
            if j < n and toks[j].kind == "id" and toks[j].text in tracked:
                name = toks[j].text
                member = None
                if j + 2 < n and toks[j + 1].text == "." and \
                        toks[j + 2].kind == "id":
                    member = toks[j + 2].text
                    close_paren = j + 3
                else:
                    close_paren = j + 1
                if close_paren < n and toks[close_paren].text == ")":
                    if name in poisoned and poisoned[name][2] is None and \
                            name not in shadowed:
                        out.append(Finding(
                            "SPL004", f.path, toks[j].line,
                            f"{name} moved again after std::move "
                            f"(first at line {toks[poisoned[name][1]].line})"))
                    poisoned[name] = (depth, j, member)
                    i = close_paren + 1
                    continue
        # Uses of a poisoned name. `x.envelope` / `ns::envelope` is a
        # member or qualified name that merely shares the identifier.
        if t.kind == "id" and txt in poisoned and txt not in shadowed and \
                (i == 0 or toks[i - 1].text not in (".", "->", "::")):
            move_depth, move_idx, member = poisoned[txt]
            # Reassignment heals: `name = ...` in statement position.
            prev = toks[i - 1].text if i > 0 else ";"
            nxt = toks[i + 1].text if i + 1 < n else ""
            if nxt == "=" and prev in (";", "{", "}", "(", ")"):
                del poisoned[txt]
                i += 1
                continue
            if member is not None:
                # Only the moved member is dead; flag name.member reads.
                if (i + 2 < n and toks[i + 1].text == "." and
                        toks[i + 2].text == member):
                    out.append(Finding(
                        "SPL004", f.path, t.line,
                        f"{txt}.{member} read after std::move "
                        f"(moved at line {toks[move_idx].line})"))
            else:
                out.append(Finding(
                    "SPL004", f.path, t.line,
                    f"{txt} used after std::move "
                    f"(moved at line {toks[move_idx].line})"))
        i += 1


# ---------------------------------------------------------------------------
# SPL005 — PDES shard confinement
# ---------------------------------------------------------------------------

def collect_confined(files: dict) -> tuple:
    """Return ({member names}, {paths where the annotations live})."""
    members, owner_paths = set(), set()
    for f in files.values():
        toks = f.toks
        for i, t in enumerate(toks):
            if t.text != "SPLICE_SHARD_CONFINED":
                continue
            owner_paths.add(f.path)
            # Member name: last identifier before the declaration's end.
            j = i + 1
            name = None
            while j < len(toks) and toks[j].text not in (";", "=", "{"):
                if toks[j].kind == "id":
                    name = toks[j].text
                j += 1
            if name:
                members.add(name)
    return members, owner_paths


def entry_spans(f: SourceFile) -> list:
    """Token-index ranges covered by SPLICE_SHARD_ENTRY functions."""
    spans = []
    toks = f.toks
    for i, t in enumerate(toks):
        if t.text != "SPLICE_SHARD_ENTRY":
            continue
        # The function body is the first '{' at paren depth zero after the
        # macro (member-init lists and parameter defaults live in parens).
        open_idx, pd = i, 0
        for j in range(i, len(toks)):
            if toks[j].text == "(":
                pd += 1
            elif toks[j].text == ")":
                pd -= 1
            elif toks[j].text == "{" and pd == 0:
                open_idx = j
                break
        spans.append((i, match_brace(toks, open_idx)))
    return spans


def check_spl005(f: SourceFile, members: set, owner_paths: set,
                 out: list) -> None:
    if not members:
        return
    # Scope: the annotating files and their same-stem sources
    # (pdes_engine.h -> pdes_engine.cpp). Confined members are private, so
    # access control keeps every other file out; a `.recorder` in a file
    # that merely includes the header names some other object.
    stems = {os.path.splitext(op)[0] for op in owner_paths}
    if os.path.splitext(f.path)[0] not in stems:
        return
    spans = entry_spans(f)
    toks = f.toks

    def inside_entry(idx: int) -> bool:
        return any(lo <= idx <= hi for lo, hi in spans)

    # Annotation sites (the member declarations) are not accesses.
    decl_lines = {t.line for t in toks if t.text == "SPLICE_SHARD_CONFINED"}
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in members:
            continue
        if t.line in decl_lines or t.line - 1 in decl_lines:
            continue
        nxt = toks[i + 1].text if i + 1 < len(toks) else ""
        prev = toks[i - 1].text if i > 0 else ""
        is_member_access = prev in (".", "->") and nxt != "("
        is_bare_field = t.text.endswith("_") and prev not in (".", "->", "::")
        if not (is_member_access or is_bare_field):
            continue
        if not inside_entry(i):
            out.append(Finding(
                "SPL005", f.path, t.line,
                f"confined shard member '{t.text}' accessed outside a "
                "SPLICE_SHARD_ENTRY function"))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def gather_files(root: str, explicit: list) -> dict:
    files = {}

    def add(rel: str) -> None:
        rel = rel.replace(os.sep, "/")
        full = os.path.join(root, rel)
        if os.path.splitext(rel)[1] not in CXX_EXTENSIONS:
            return
        with open(full, encoding="utf-8", errors="replace") as fh:
            files[rel] = lex(rel, fh.read())

    if explicit:
        for p in explicit:
            rel = os.path.relpath(os.path.abspath(p), root)
            add(rel)
        return files
    for d in SCAN_DIRS:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for fn in sorted(filenames):
                rel = os.path.relpath(os.path.join(dirpath, fn), root)
                rel = rel.replace(os.sep, "/")
                if any(rel.startswith(e) for e in EXCLUDE_PREFIXES):
                    continue
                add(rel)
    return files


def engine_name() -> str:
    try:
        import clang.cindex  # noqa: F401
        return "libclang"
    except ImportError:
        return "tokens"


def run_lint(root: str, explicit: list, fixture_mode: bool) -> list:
    files = gather_files(root, explicit)
    enums = {}
    for enum, header in SPL003_ENUMS.items():
        try:
            enums[enum] = parse_enumerators(root, enum, header)
        except (OSError, SystemExit):
            if not fixture_mode:
                raise
    members, owner_paths = collect_confined(files)
    findings: list = []
    for f in files.values():
        raw: list = []
        sup = Suppressions(f, findings)
        if fixture_mode:
            # Fixtures opt every rule in regardless of path allowlists.
            saved001, saved004 = SPL001_ALLOW[:], SPL004_PREFIXES[:]
            SPL001_ALLOW.clear()
            SPL004_PREFIXES.clear()
            SPL004_PREFIXES.append(f.path)
            try:
                check_spl001(f, raw)
                check_spl004(f, raw)
            finally:
                SPL001_ALLOW.extend(saved001)
                SPL004_PREFIXES.clear()
                SPL004_PREFIXES.extend(saved004)
        else:
            check_spl001(f, raw)
            check_spl004(f, raw)
        check_spl002(f, raw)
        check_spl003(f, enums, raw)
        fm, fo = (members, owner_paths) if not fixture_mode else \
            collect_confined({f.path: f})
        check_spl005(f, fm, fo if not fixture_mode else {f.path}, raw)
        findings.extend(
            fi for fi in raw if not sup.active(fi.rule, fi.line))
    findings.sort(key=lambda fi: (fi.path, fi.line, fi.rule))
    return findings


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repo root (default: parent of tools/)")
    ap.add_argument("--json", action="store_true",
                    help="emit findings as JSON on stdout")
    ap.add_argument("--fixture", action="store_true",
                    help="fixture mode: scan only the given files, ignore "
                    "path allowlists (tests/lint_fixture)")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("files", nargs="*", help="explicit files (default: tree)")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule, hint in sorted(RULE_HINTS.items()):
            print(f"{rule}: {hint}")
        return 0
    if args.fixture and not args.files:
        print("splice_lint: --fixture requires explicit files",
              file=sys.stderr)
        return 2

    findings = run_lint(args.root, args.files, args.fixture)
    if args.json:
        print(json.dumps({
            "engine": engine_name(),
            "findings": [vars(fi) for fi in findings],
        }, indent=2))
    else:
        for fi in findings:
            print(fi.render())
            print(f"    fix: {RULE_HINTS[fi.rule]}")
        if findings:
            print(f"splice_lint: {len(findings)} finding(s) "
                  f"[engine: {engine_name()}]", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
