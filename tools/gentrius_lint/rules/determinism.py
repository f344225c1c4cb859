"""Determinism rule: rejects constructs that break bit-identical replay.

The virtual-time simulator (src/vthread) promises bit-identical replay, and
the enumeration engine (src/gentrius) promises serial == parallel totals.
Both guarantees are semantic — no test can prove their absence for every
input — so this rule rejects the *constructs* that historically break them:

  wall-clock       reading real time inside the engine (schedules would
                   depend on host speed; the virtual clock is the only
                   notion of time allowed)
  rand             ambient randomness (rand, std::random_device, mt19937 —
                   only support::Rng, seeded and cross-platform stable, is
                   deterministic)
  sleep            real-time blocking (sleep_for/usleep: schedule depends on
                   the host scheduler)
  unordered-iter   iterating an unordered container (iteration order is
                   implementation-defined; anything it feeds — output,
                   counters, task order — diverges across platforms)
  raw-new          raw new/delete (ownership bugs surface as
                   schedule-dependent crashes; use containers or
                   make_unique, which also keeps ASan reports readable)

Escape hatch: ``// lint:allow(<code>)`` on the offending line or alone on
the line above. `counters.hpp` (stopping rule 3 is wall-clock by
definition) is the canonical justified allow.
"""

from __future__ import annotations

import pathlib
import re

from gentrius_lint import core

# code -> (regex on comment/string-stripped code, human explanation)
PATTERNS: dict[str, tuple[re.Pattern[str], str]] = {
    "wall-clock": (
        re.compile(
            r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"
            r"|\bclock_gettime\b|\bgettimeofday\b|\bStopwatch\b"
            r"|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
        ),
        "real time read inside the deterministic core; use the virtual "
        "clock (CostModel) instead",
    ),
    "rand": (
        re.compile(
            r"\brand\s*\(|\bsrand\s*\(|\brandom_device\b|\bmt19937"
            r"|\brandom_shuffle\b"
        ),
        "ambient randomness; draw from support::Rng with an explicit seed",
    ),
    "sleep": (
        re.compile(r"\bsleep_for\b|\bsleep_until\b|\busleep\s*\(|\bnanosleep\b"),
        "real-time blocking makes the schedule host-dependent",
    ),
    "unordered-iter": (
        re.compile(
            # range-for directly over an unordered container expression, or
            # begin()/iterator walks detected via declared variable names
            # (second pass below).
            r"for\s*\(.*:\s*[^)]*\bunordered_(?:map|set|multimap|multiset)\b"
        ),
        "unordered-container iteration order is implementation-defined; "
        "sort the keys (or use a vector/map) before anything order-sensitive",
    ),
    "raw-new": (
        re.compile(
            r"\bnew\s+[A-Za-z_:(<]"  # new-expressions (incl. placement/array)
            r"|\bdelete\s*\[\]"      # delete[] p
            r"|\bdelete\s+[A-Za-z_*(]"  # delete p   (but not `= delete;`)
        ),
        "raw new/delete; use containers or std::make_unique",
    ),
}

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s+(\w+)\s*[;={(]"
)


def _lint_file(sf: core.SourceFile) -> list[core.Finding]:
    findings: list[core.Finding] = []

    # Names of unordered containers declared in this file, for iteration
    # detection beyond literal range-for-over-type expressions.
    unordered_vars = set()
    for code in sf.code_lines:
        unordered_vars.update(UNORDERED_DECL_RE.findall(code))
    iter_res = [
        re.compile(r"for\s*\(.*:\s*(?:\w+\.)*" + re.escape(v) + r"\s*\)")
        for v in unordered_vars
    ] + [
        re.compile(r"\b" + re.escape(v) + r"\s*\.\s*c?begin\s*\(")
        for v in unordered_vars
    ]

    for lineno, code in enumerate(sf.code_lines, start=1):
        if not code.strip():
            continue
        for rule_code, (pattern, why) in PATTERNS.items():
            if sf.allowed(lineno, rule_code):
                continue
            hit = pattern.search(code)
            if not hit and rule_code == "unordered-iter":
                hit = next((r.search(code) for r in iter_res if r.search(code)),
                           None)
            if hit:
                findings.append(
                    core.Finding(sf.path, lineno, rule_code, why,
                                 sf.raw_lines[lineno - 1].strip()))
    return findings


SEEDED_VIOLATIONS = {
    "wall-clock": "auto t0 = std::chrono::system_clock::now();",
    "rand": "int x = rand() % 7;",
    "sleep": "std::this_thread::sleep_for(std::chrono::milliseconds(5));",
    "unordered-iter":
        "for (const auto& kv : std::unordered_map<int, int>(pairs)) { use(kv); }",
    "raw-new": "auto* p = new Frame();",
}

EXTRA_CASES = [
    # (snippet, code, should_fire)
    ("std::unordered_map<int, int> m; for (auto& kv : m) {}",
     "unordered-iter", True),
    ("std::unordered_set<K> seen; seen.insert(k);", "unordered-iter", False),
    ("Widget() = delete;", "raw-new", False),
    ("void operator delete(void*) noexcept;", "raw-new", False),
    ("delete node;", "raw-new", True),
    ("delete[] buf;", "raw-new", True),
    ("double runtime_seconds(); // wraps steady_clock", "wall-clock", False),
    ('const char* s = "call rand() here";', "rand", False),
    ("support::Rng rng(seed); rng.shuffle(v);", "rand", False),
]


class DeterminismRule:
    name = "determinism"
    codes = frozenset(PATTERNS)
    # src/decompose joined in PR 8: the sharded driver feeds golden traces
    # and product-law differentials, so it carries the same bit-identical
    # replay promise as the engine and the simulator.
    # src/parallel: its seeded VictimSelector (steal_deque.hpp) also picks
    # the simulator's steal victims, so the virtual-time schedule — and the
    # makespans the golden trace pins — depend on it. Ambient time or
    # randomness there would make simulated runs host-dependent.
    # src/incremental joined with the edit session: its re-enumerations
    # must replay bit-identically against the from-scratch driver. The
    # result cache it runs through lives in src/decompose (cache.cpp):
    # canonical fingerprints and cached rank-space stands must replay
    # bit-identically too, and the cache's eviction and lookup order feed
    # directly into which components are re-enumerated — unordered
    # iteration or ambient randomness there would make cache behavior (and
    # therefore the reported per-edit cost) host-dependent.
    dirs = ("src/vthread", "src/gentrius", "src/decompose", "src/parallel",
            "src/incremental")

    @staticmethod
    def describe() -> str:
        return ("rejects wall-clock, randomness, sleeps, unordered iteration "
                "and raw new/delete in the deterministic core")

    @staticmethod
    def check(files: list[core.SourceFile],
              root: pathlib.Path) -> list[core.Finding]:
        del root
        findings: list[core.Finding] = []
        for sf in files:
            findings.extend(_lint_file(sf))
        return findings

    @staticmethod
    def self_test() -> list[tuple[str, bool]]:
        def lint_snippet(snippet: str) -> list[core.Finding]:
            sf = core.SourceFile("<seeded>", snippet + "\n", PATTERNS.keys())
            return _lint_file(sf)

        checks: list[tuple[str, bool]] = []
        for rule_code, snippet in SEEDED_VIOLATIONS.items():
            found = lint_snippet(snippet)
            checks.append((f"{rule_code}: fires on `{snippet}`",
                           any(f.code == rule_code for f in found)))
            allowed = lint_snippet(snippet + "  // lint:allow(" + rule_code + ")")
            checks.append((f"{rule_code}: silenced by same-line lint:allow",
                           not any(f.code == rule_code for f in allowed)))
            above = "// lint:allow(" + rule_code + ")\n" + snippet
            checks.append((f"{rule_code}: silenced by lint:allow above",
                           not any(f.code == rule_code
                                   for f in lint_snippet(above))))
        for snippet, rule_code, should_fire in EXTRA_CASES:
            found = any(f.code == rule_code for f in lint_snippet(snippet))
            verb = "fires" if should_fire else "stays quiet"
            checks.append((f"{rule_code}: {verb} on `{snippet}`",
                           found == should_fire))
        checks.append(("violation inside /* block comment */ ignored",
                       not lint_snippet("/* rand() */\nint x;")))
        checks.append(("violation after // comment ignored",
                       not lint_snippet("int x;  // old code used rand()")))
        # Seeded violation in the newly scanned src/decompose directory:
        # a wall-clock read planted in the sharded driver must fire exactly
        # as it would in the engine.
        seeded_decompose = core.SourceFile(
            "src/decompose/sharded.cpp",
            "auto t0 = std::chrono::steady_clock::now();\n",
            PATTERNS.keys())
        checks.append(("wall-clock: fires on seeded violation in "
                       "src/decompose/sharded.cpp",
                       any(f.code == "wall-clock"
                           for f in _lint_file(seeded_decompose))))
        # Seeded violation in src/parallel: ambient randomness planted in
        # the victim selector, whose seeded draws order the simulator's
        # steals, must fire.
        seeded_parallel = core.SourceFile(
            "src/parallel/steal_deque.hpp",
            "std::mt19937 gen; return gen() % n_workers_;\n",
            PATTERNS.keys())
        checks.append(("rand: fires on seeded violation in "
                       "src/parallel/steal_deque.hpp",
                       any(f.code == "rand"
                           for f in _lint_file(seeded_parallel))))
        # Seeded violation in the result cache (src/decompose/cache.cpp):
        # iterating its unordered index would make eviction order — and so
        # the set of re-enumerated components — host-dependent; the planted
        # walk must fire.
        seeded_cache = core.SourceFile(
            "src/decompose/cache.cpp",
            "std::unordered_map<Key, Entry> index_;\n"
            "for (const auto& kv : index_) evict(kv.first);\n",
            PATTERNS.keys())
        checks.append(("unordered-iter: fires on seeded violation in "
                       "src/decompose/cache.cpp",
                       any(f.code == "unordered-iter"
                           for f in _lint_file(seeded_cache))))
        return checks


RULE = DeterminismRule()
