"""Rule registry for gentrius-analyze.

A rule is an object with:
  name        CLI/ctest identifier (kebab-case)
  codes       allow-codes it can emit (``lint:allow(<code>)`` targets)
  dirs        repo-relative directories it scans
  describe()  one-line summary for --list-rules
  check(files, root) -> list[Finding]   (files: SourceFiles of its dirs)
  self_test() -> list[(description, ok)]

Adding a rule = dropping a module here and listing it in ALL_RULES.
"""

from __future__ import annotations

from gentrius_lint.rules import atomic_order, determinism, lock_rank

ALL_RULES = [
    determinism.RULE,
    atomic_order.RULE,
    lock_rank.RULE,
]

RULES_BY_NAME = {rule.name: rule for rule in ALL_RULES}

ALL_CODES = sorted(set().union(*(rule.codes for rule in ALL_RULES)))
