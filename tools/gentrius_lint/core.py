"""Shared infrastructure for gentrius-analyze rules.

Everything here is language-tolerant rather than a real C++ parser: rules
work on comment/string-stripped source lines plus a heuristic function
extractor good enough for this codebase's style (clang-formatted, one
statement per line, no function-try-blocks). Each helper is exercised by
the rule self-tests against seeded violations, so a drift between these
heuristics and the real sources fails ctest instead of silently muting a
rule.
"""

from __future__ import annotations

import bisect
import dataclasses
import pathlib
import re
from typing import Iterable

SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")


class LintUsageError(SystemExit):
    """Raised for configuration mistakes (unknown rule in an allow, missing
    scan root). Exits with status 2, distinct from findings (1)."""

    def __init__(self, message: str):
        super().__init__(2)
        self.message = message


@dataclasses.dataclass(frozen=True)
class Finding:
    path: str
    line: int  # 1-based
    code: str  # allow-code, e.g. "wall-clock", "atomic-order"
    message: str
    snippet: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.code}] {self.message}\n    {self.snippet}"


def strip_code(text: str) -> list[str]:
    """Per-line code with comments and string/char literals blanked.

    Keeps line structure (finding line numbers stay exact) and replaces
    stripped characters with spaces (column-free regexes behave).
    """
    out: list[str] = []
    in_block = False
    for line in text.splitlines():
        res: list[str] = []
        i = 0
        n = len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            ch = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if ch == "/" and nxt == "/":
                break  # rest of line is a comment
            if ch == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if ch in "\"'":
                quote = ch
                res.append(" ")
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        i += 1
                        break
                    i += 1
                continue
            res.append(ch)
            i += 1
        out.append("".join(res))
    return out


def collect_allows(text: str, known_codes: Iterable[str]) -> dict[int, set[str]]:
    """Maps 1-based line numbers to the allow-codes suppressed on that line.

    A ``// lint:allow(code)`` suppresses findings on its own line; when the
    line holds nothing but the comment, it suppresses the following line
    instead (so justifications can sit above long statements). Unknown
    codes are a usage error: a typo must not silently disable nothing.
    """
    known = set(known_codes)
    allows: dict[int, set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        codes = {c.strip() for c in m.group(1).split(",")}
        unknown = codes - known
        if unknown:
            raise LintUsageError(
                f"unknown allow code(s) {sorted(unknown)} on line {lineno} "
                f"(known: {sorted(known)})"
            )
        target = lineno
        if line.split("//", 1)[0].strip() == "":  # comment-only line
            target = lineno + 1
        allows.setdefault(target, set()).update(codes)
    return allows


class SourceFile:
    """One scanned file: raw text plus derived views, computed once and
    shared by every rule that looks at the file."""

    def __init__(self, path: str, text: str, known_codes: Iterable[str]):
        self.path = path
        self.text = text
        self.raw_lines = text.splitlines()
        self.code_lines = strip_code(text)
        self.allows = collect_allows(text, known_codes)

    def allowed(self, lineno: int, code: str) -> bool:
        return code in self.allows.get(lineno, set())


def iter_sources(root: pathlib.Path, rel_dirs: Iterable[str],
                 known_codes: Iterable[str]) -> list[SourceFile]:
    """Loads every C++ source under ``root/<rel_dir>`` for the given dirs."""
    files: list[SourceFile] = []
    codes = list(known_codes)
    for rel in rel_dirs:
        base = root / rel
        if not base.is_dir():
            raise LintUsageError(f"missing scan directory {base}")
        for path in sorted(base.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES:
                continue
            files.append(
                SourceFile(str(path.relative_to(root)),
                           path.read_text(encoding="utf-8"), codes))
    return files


# --- heuristic function extraction ------------------------------------------

_KEYWORDS = {
    "if", "for", "while", "switch", "return", "catch", "sizeof", "alignof",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast", "throw",
    "new", "delete", "assert", "decltype", "defined", "alignas", "noexcept",
}

_NAME_CALL_RE = re.compile(r"([A-Za-z_]\w*)\s*\(")


@dataclasses.dataclass
class FunctionDef:
    name: str
    header_line: int  # 1-based line of the name token
    body_start: int   # offset of '{' in the flattened text
    body_end: int     # offset just past the matching '}'
    name_offset: int  # offset of the name token (for return-type lookback)


class FlatText:
    """Stripped source flattened to one string with an offset->line map."""

    def __init__(self, code_lines: list[str]):
        # Preprocessor lines are blanked: a #define's replacement tokens are
        # not code at this site and confuse the extractor.
        cooked = [("" if line.lstrip().startswith("#") else line)
                  for line in code_lines]
        self.text = "\n".join(cooked)
        self.line_starts = [0]
        for line in cooked:
            self.line_starts.append(self.line_starts[-1] + len(line) + 1)

    def line_of(self, offset: int) -> int:
        return bisect.bisect_right(self.line_starts, offset)


def _skip_ws(text: str, i: int) -> int:
    n = len(text)
    while i < n and text[i].isspace():
        i += 1
    return i


def _skip_balanced(text: str, i: int) -> int:
    """``text[i]`` is an opener; returns the offset just past its match."""
    openers = {"(": ")", "{": "}", "[": "]"}
    close = openers[text[i]]
    opener = text[i]
    depth = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == opener:
            depth += 1
        elif ch == close:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


_PRECEDING_TOKEN_RE = re.compile(r"(\w+)\s*$")


def extract_functions(flat: FlatText) -> list[FunctionDef]:
    """Finds function *definitions* (a body in this file) heuristically.

    Handles ordinary functions, member functions, and constructors with
    initializer lists; skips declarations, control statements, macro
    invocations used as declaration attributes, and anything inside an
    already-recorded body. Operator overloads are not matched (none of the
    analyzed protocols live in operators).
    """
    text = flat.text
    n = len(text)
    defs: list[FunctionDef] = []
    recorded_end = 0  # bodies are found outside-in; skip interior matches
    for m in _NAME_CALL_RE.finditer(text):
        if m.start() < recorded_end:
            continue
        name = m.group(1)
        if name in _KEYWORDS:
            continue
        prev = _PRECEDING_TOKEN_RE.search(text, 0, m.start())
        if prev and prev.group(1) in {"class", "struct", "enum", "using",
                                      "namespace", "new", "delete", "return",
                                      "case", "goto", "throw"}:
            continue
        open_paren = text.index("(", m.end() - 1)
        i = _skip_balanced(text, open_paren)
        body = _find_body(text, i)
        if body is None:
            continue
        body_end = _skip_balanced(text, body)
        defs.append(FunctionDef(name, flat.line_of(m.start()), body, body_end,
                                m.start()))
        recorded_end = body_end
    return defs


def _find_body(text: str, i: int) -> int | None:
    """After a parameter list: offset of the body's '{', or None if this is
    a declaration/call. Tolerates cv-qualifiers, annotation macros,
    trailing return types and constructor initializer lists."""
    n = len(text)
    guard = 0
    while guard < 64:
        guard += 1
        i = _skip_ws(text, i)
        if i >= n:
            return None
        ch = text[i]
        if ch == "{":
            return i
        if ch in ";,=)]":
            return None
        if ch == ":":
            return _find_body_after_init_list(text, i + 1)
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            i += 2  # trailing return type: skip its tokens below
            continue
        if ch == "(":
            i = _skip_balanced(text, i)  # noexcept(...), macro(...)
            continue
        wm = re.match(r"[\w:&*<>\[\]]+", text[i:])
        if not wm:
            return None
        i += wm.end()
    return None


def _find_body_after_init_list(text: str, i: int) -> int | None:
    n = len(text)
    guard = 0
    while guard < 128:
        guard += 1
        i = _skip_ws(text, i)
        if i >= n:
            return None
        wm = re.match(r"[\w:]+", text[i:])
        if not wm:
            return None
        i = _skip_ws(text, i + wm.end())
        if i < n and text[i] == "<":
            i = _skip_ws(text, _skip_balanced(text, i))
        if i >= n or text[i] not in "({":
            return None
        i = _skip_ws(text, _skip_balanced(text, i))
        if i < n and text[i] == ",":
            i += 1
            continue
        if i < n and text[i] == "{":
            return i
        return None
    return None
