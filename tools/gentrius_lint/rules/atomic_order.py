"""Atomic-ordering audit.

``atomic-order`` — every *explicit non-seq_cst* ``std::memory_order_*``
argument in ``src/`` must carry an adjacent ``// order:`` justification: on
the same line, or in the comment block attached directly above the
statement (the walk upward passes through continuation lines of a
multi-line statement and stops at the previous statement boundary or a
blank line). seq_cst is the safe default and needs no justification;
anything weaker is a claim about the program's happens-before structure
and must say why it holds.
"""

from __future__ import annotations

import pathlib
import re

from gentrius_lint import core

_WEAK_ORDER_RE = re.compile(
    r"\bmemory_order_(relaxed|acquire|release|acq_rel|consume)\b")
_ORDER_COMMENT_RE = re.compile(r"(?://|/\*|\*).*\border:")
_STMT_BOUNDARY_RE = re.compile(r"[;{}:]\s*$")


def _has_order_justification(sf: core.SourceFile, lineno: int) -> bool:
    """Same-line ``order:`` comment, or one in the attached comment block
    above the statement containing ``lineno``."""
    if _ORDER_COMMENT_RE.search(sf.raw_lines[lineno - 1]):
        return True
    i = lineno - 1
    steps = 0
    while i >= 1 and steps < 16:
        steps += 1
        raw = sf.raw_lines[i - 1]
        code = sf.code_lines[i - 1]
        if code.strip() == "":
            if raw.strip() == "":
                return False  # blank line: comment above is detached
            if "order:" in raw:
                return True
            i -= 1  # comment line: keep climbing the block
            continue
        if _STMT_BOUNDARY_RE.search(code.rstrip()):
            return False  # previous statement ends here
        i -= 1  # continuation line of the same statement
    return False


def _check_order_comments(sf: core.SourceFile) -> list[core.Finding]:
    findings: list[core.Finding] = []
    for lineno, code in enumerate(sf.code_lines, start=1):
        if not _WEAK_ORDER_RE.search(code):
            continue
        if sf.allowed(lineno, "atomic-order"):
            continue
        if _has_order_justification(sf, lineno):
            continue
        findings.append(
            core.Finding(
                sf.path, lineno, "atomic-order",
                "non-seq_cst memory order without an adjacent '// order:' "
                "justification (state the happens-before edge that makes "
                "the weaker order sound)",
                sf.raw_lines[lineno - 1].strip()))
    return findings


class AtomicOrderRule:
    name = "atomic-order"
    codes = frozenset({"atomic-order"})
    dirs = ("src",)

    @staticmethod
    def describe() -> str:
        return "non-seq_cst memory orders need '// order:' justifications"

    @staticmethod
    def check(files: list[core.SourceFile],
              root: pathlib.Path) -> list[core.Finding]:
        del root
        findings: list[core.Finding] = []
        for sf in files:
            findings.extend(_check_order_comments(sf))
        return findings

    @staticmethod
    def self_test() -> list[tuple[str, bool]]:
        return _self_test()


def _lint(text: str) -> list[core.Finding]:
    sf = core.SourceFile("<seeded>", text, AtomicOrderRule.codes)
    return _check_order_comments(sf)


def _self_test() -> list[tuple[str, bool]]:
    checks: list[tuple[str, bool]] = []

    def fires(text: str, code: str) -> bool:
        return any(f.code == code for f in _lint(text))

    seeded = "x_.store(1, std::memory_order_release);"
    checks.append(("atomic-order: fires on unjustified release",
                   fires(seeded, "atomic-order")))
    checks.append(("atomic-order: quiet with same-line order: comment",
                   not fires(seeded + "  // order: pairs with reader acquire",
                             "atomic-order")))
    checks.append(("atomic-order: quiet with order: comment above",
                   not fires("// order: pairs with reader acquire\n" + seeded,
                             "atomic-order")))
    checks.append(("atomic-order: comment detached by blank line stays a "
                   "finding",
                   fires("// order: pairs with reader acquire\n\n" + seeded,
                         "atomic-order")))
    multi = ("// order: publication store, reader pairs with acquire\n"
             "x_.store(\n    v, std::memory_order_release);")
    checks.append(("atomic-order: comment above a multi-line statement "
                   "covers its continuation lines",
                   not fires(multi, "atomic-order")))
    checks.append(("atomic-order: previous statement boundary blocks the "
                   "walk-up",
                   fires("// order: justification\nint y = 0;\n" + seeded,
                         "atomic-order")))
    checks.append(("atomic-order: explicit seq_cst needs no justification",
                   not fires("x_.store(1, std::memory_order_seq_cst);",
                             "atomic-order")))
    checks.append(("atomic-order: silenced by lint:allow(atomic-order)",
                   not fires(seeded + "  // lint:allow(atomic-order)",
                             "atomic-order")))

    seeded_decompose = core.SourceFile("src/decompose/sharded.cpp",
                                       seeded + "\n",
                                       AtomicOrderRule.codes)
    checks.append(("atomic-order: fires on seeded violation in "
                   "src/decompose/sharded.cpp",
                   any(f.code == "atomic-order"
                       for f in _check_order_comments(seeded_decompose))))
    return checks


RULE = AtomicOrderRule()
