"""Lock-hierarchy analysis.

Every ``support::Mutex`` in the project carries a compile-time rank
(``Mutex mu_{support::Rank::kPool}``); the discipline is that a thread
only acquires mutexes in *strictly increasing* rank order. This rule
proves the discipline statically:

``mutex-rank``  — a ``Mutex`` member/variable declared without a
``Rank::k*`` argument, or with a rank name that is not in the ``Rank``
enum (parsed from ``support/sync.hpp``).

``lock-order``  — the static acquisition graph. For every function the
rule extracts its ``MutexLock`` sites, computes the scope of each guard
(to the end of its enclosing block), and records an edge
``rank(held) -> rank(acquired)`` for every acquisition — direct or via a
call — made while the guard is live. Callee acquisitions are propagated
through a call-graph fixpoint, and functions whose acquisitions the
extractor cannot see (callbacks, type-erased paths) can declare them with
``// lint:acquires(kRankA, kRankB)`` above their definition. Any edge
that is not strictly increasing is a finding at the inner acquisition
site.

``lock-cycle``  — a cycle in the rank graph built from the surviving
edges (reported even if each individual edge was ``lint:allow``ed away,
because a cycle means the allows jointly re-introduced a deadlock).

The companion runtime validator (``support/sync.hpp``) enforces the same
invariant dynamically in debug/sanitizer builds via a thread-local stack
of held ranks.
"""

from __future__ import annotations

import pathlib
import re

from gentrius_lint import core

_RANK_ENUM_RE = re.compile(r"\benum\s+class\s+Rank\b")
_RANK_ENTRY_RE = re.compile(r"(k\w+)(?:\s*=\s*(-?\d+))?")
_MUTEX_DECL_RE = re.compile(r"\bMutex\b\s+(\w+)\s*(\{[^}]*\}|\([^)]*\))?\s*;")
_RANK_ARG_RE = re.compile(r"\bRank::(k\w+)")
_LOCK_SITE_RE = re.compile(r"\bMutexLock\b\s+\w+\s*[({]([^)}]*)[)}]")
_ACQUIRES_RE = re.compile(r"//\s*lint:acquires\(\s*(k\w+(?:\s*,\s*k\w+)*)\s*\)")
_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
_CLASS_KEY_RE = re.compile(r"\b(?:class|struct)\b")
_QUALIFIED_NAME_RE = re.compile(r"[A-Za-z_]\w*(?:\s*::\s*[A-Za-z_]\w*)*")
_QUALIFIER_RE = re.compile(r"\b([A-Za-z_]\w*)\s*::\s*~?\s*$")


def parse_rank_enum(files: list[core.SourceFile]) -> dict[str, int]:
    """Rank name -> numeric value, parsed from the enum definition."""
    for sf in files:
        flat_text = "\n".join(sf.code_lines)
        m = _RANK_ENUM_RE.search(flat_text)
        if not m:
            continue
        brace = flat_text.find("{", m.end())
        if brace < 0:
            continue
        end = core._skip_balanced(flat_text, brace)
        ranks: dict[str, int] = {}
        next_value = 0
        for entry in _RANK_ENTRY_RE.finditer(flat_text, brace, end - 1):
            value = int(entry.group(2)) if entry.group(2) else next_value
            ranks[entry.group(1)] = value
            next_value = value + 1
        if ranks:
            return ranks
    raise core.LintUsageError(
        "no 'enum class Rank' definition found in the scanned sources "
        "(expected in src/support/sync.hpp)")


def _class_bodies(flat: core.FlatText) -> list[tuple[str, int, int]]:
    """(class name, body '{' offset, offset past the '}') of every class or
    struct defined in the file. Attribute macros and ``alignas(...)`` before
    the name, ``final`` and a base clause after it are skipped; forward
    declarations, ``enum class`` and template parameters have no body."""
    text = flat.text
    bodies: list[tuple[str, int, int]] = []
    for m in _CLASS_KEY_RE.finditer(text):
        prev = core._PRECEDING_TOKEN_RE.search(text, 0, m.start())
        if prev and prev.group(1) in {"enum", "friend"}:
            continue
        name = None
        i = m.end()
        while True:
            i = core._skip_ws(text, i)
            if i >= len(text):
                break
            ch = text[i]
            if ch == "(":
                i = core._skip_balanced(text, i)
                continue
            if ch == ":" and text[i + 1:i + 2] != ":":  # base clause
                brace, semi = text.find("{", i), text.find(";", i)
                i = brace if brace >= 0 and not 0 <= semi < brace else -1
                break
            word = _QUALIFIED_NAME_RE.match(text, i)
            if not word:
                break
            if word.group(0) != "final":
                name = word.group(0).split("::")[-1]
            i = word.end()
        if name is None or not 0 <= i < len(text) or text[i] != "{":
            continue
        bodies.append((name, i, core._skip_balanced(text, i)))
    return bodies


def _class_at(bodies: list[tuple[str, int, int]], offset: int) -> str | None:
    """The innermost class whose body holds ``offset``."""
    best = None
    for name, start, end in bodies:
        if start < offset < end and (best is None or start > best[1]):
            best = (name, start)
    return best[0] if best else None


class _MutexTable:
    """Where each Mutex is declared. A ``MutexLock`` site resolves its name
    against the members of the class of the function that holds it: as
    declared in the site's own file, else in any file (a class's header
    declares what its source file locks). Failing that, it falls back to
    every declaration in the site's file (foreign objects, locals)."""

    def __init__(self) -> None:
        # (path, class, name) -> rank, and the same without the path
        self.in_file: dict[tuple[str, str, str], str] = {}
        self.anywhere: dict[tuple[str, str], str] = {}
        self.file_scope: dict[str, dict[str, str]] = {}  # path -> name -> rank

    def add(self, path: str, cls: str | None, var: str, rank: str) -> None:
        self.file_scope.setdefault(path, {})[var] = rank
        if cls is not None:
            self.in_file[(path, cls, var)] = rank
            self.anywhere[(cls, var)] = rank

    def resolve(self, path: str, cls: str | None, var: str) -> str | None:
        if cls is not None:
            rank = self.in_file.get((path, cls, var),
                                    self.anywhere.get((cls, var)))
            if rank is not None:
                return rank
        return self.file_scope.get(path, {}).get(var)


def _find_mutexes(sf: core.SourceFile, ranks: dict[str, int],
                  table: _MutexTable, findings: list[core.Finding]) -> None:
    """Records this file's ranked Mutex declarations in ``table``; emits
    mutex-rank findings for unranked declarations."""
    flat = core.FlatText(sf.code_lines)
    bodies = _class_bodies(flat)
    for lineno, code in enumerate(sf.code_lines, start=1):
        for m in _MUTEX_DECL_RE.finditer(code):
            var, init = m.group(1), m.group(2) or ""
            rank = _RANK_ARG_RE.search(init)
            if not rank:
                if not sf.allowed(lineno, "mutex-rank"):
                    findings.append(core.Finding(
                        sf.path, lineno, "mutex-rank",
                        f"Mutex '{var}' declared without a rank; give it "
                        "one from support::Rank so the lock hierarchy "
                        "covers it", sf.raw_lines[lineno - 1].strip()))
                continue
            name = rank.group(1)
            if name not in ranks:
                if not sf.allowed(lineno, "mutex-rank"):
                    findings.append(core.Finding(
                        sf.path, lineno, "mutex-rank",
                        f"Mutex '{var}' uses unknown rank '{name}' "
                        f"(known: {sorted(ranks)})",
                        sf.raw_lines[lineno - 1].strip()))
                continue
            table.add(sf.path,
                      _class_at(bodies, flat.line_starts[lineno - 1] + m.start()),
                      var, name)


def _function_class(fndef: core.FunctionDef, flat: core.FlatText,
                    bodies: list[tuple[str, int, int]]) -> str | None:
    """The class a function belongs to: ``C`` for a ``C::f`` (or ``C::~C``)
    definition, else the class whose body defines it."""
    qualifier = _QUALIFIER_RE.search(flat.text, 0, fndef.name_offset)
    if qualifier:
        return qualifier.group(1)
    return _class_at(bodies, fndef.name_offset)


def _declared_acquires(sf: core.SourceFile, header_line: int) -> set[str]:
    """Ranks declared via ``// lint:acquires(...)`` on or just above the
    function header."""
    out: set[str] = set()
    for lineno in range(max(1, header_line - 3), header_line + 1):
        m = _ACQUIRES_RE.search(sf.raw_lines[lineno - 1])
        if m:
            out.update(r.strip() for r in m.group(1).split(","))
    return out


def _scope_end(text: str, pos: int, body_end: int) -> int:
    """Offset where the block enclosing ``pos`` closes (a ``MutexLock``
    guard lives until then)."""
    depth = 0
    i = pos
    while i < body_end:
        ch = text[i]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                return i
        i += 1
    return body_end


class _Site:
    """One MutexLock acquisition: its rank, line, and guard scope."""

    def __init__(self, rank: str, line: int, pos: int, end: int):
        self.rank = rank
        self.line = line
        self.pos = pos
        self.end = end


class _Function:
    def __init__(self, sf: core.SourceFile, fndef: core.FunctionDef,
                 flat: core.FlatText):
        self.sf = sf
        self.fndef = fndef
        self.flat = flat
        self.sites: list[_Site] = []
        self.declared = _declared_acquires(sf, fndef.header_line)
        # transitive set of ranks this function may acquire (fixpoint)
        self.acquires: set[str] = set(self.declared)


class _DeclaredStub:
    """A body-less declaration carrying ``// lint:acquires(...)``: it
    participates in the call graph with exactly its declared ranks."""

    def __init__(self, ranks: set[str]):
        self.acquires = set(ranks)


def _collect_functions(files: list[core.SourceFile], mutexes: _MutexTable,
                       ) -> dict[str, list[_Function]]:
    by_name: dict[str, list[_Function]] = {}
    for sf in files:
        flat = core.FlatText(sf.code_lines)
        bodies = _class_bodies(flat)
        for fndef in core.extract_functions(flat):
            fn = _Function(sf, fndef, flat)
            cls = _function_class(fndef, flat, bodies)
            for m in _LOCK_SITE_RE.finditer(flat.text, fndef.body_start,
                                            fndef.body_end):
                arg = m.group(1)
                var_m = re.search(r"(\w+)\s*$", arg)
                if not var_m:
                    continue
                rank = mutexes.resolve(sf.path, cls, var_m.group(1))
                if rank is None:
                    continue  # unresolvable (parameter, foreign object)
                fn.sites.append(_Site(
                    rank, flat.line_of(m.start()), m.start(),
                    _scope_end(flat.text, m.end(), fndef.body_end)))
            fn.acquires.update(site.rank for site in fn.sites)
            by_name.setdefault(fndef.name, []).append(fn)
    # lint:acquires above a body-less declaration: attach to the first
    # callable name on the following code line.
    for sf in files:
        for lineno, raw in enumerate(sf.raw_lines, start=1):
            m = _ACQUIRES_RE.search(raw)
            if not m:
                continue
            ranks = {r.strip() for r in m.group(1).split(",")}
            for target_line in range(lineno + 1,
                                     min(lineno + 3, len(sf.code_lines) + 1)):
                name_m = _CALL_RE.search(sf.code_lines[target_line - 1])
                if name_m:
                    by_name.setdefault(name_m.group(1), []).append(
                        _DeclaredStub(ranks))
                    break
    return by_name


def _close_acquires(by_name: dict[str, list[_Function]]) -> None:
    """Propagate acquisitions through the call graph to a fixpoint."""
    changed = True
    guard = 0
    while changed and guard < 64:
        changed = False
        guard += 1
        for fns in by_name.values():
            for fn in fns:
                if isinstance(fn, _DeclaredStub):
                    continue
                for m in _CALL_RE.finditer(fn.flat.text, fn.fndef.body_start,
                                           fn.fndef.body_end):
                    callee = m.group(1)
                    if callee == fn.fndef.name or callee not in by_name:
                        continue
                    for target in by_name[callee]:
                        extra = target.acquires - fn.acquires
                        if extra:
                            fn.acquires.update(extra)
                            changed = True


def _edges_for(fn: _Function, by_name: dict[str, list[_Function]],
               ) -> list[tuple[str, str, int]]:
    """(held_rank, acquired_rank, line) edges created inside ``fn``."""
    edges: list[tuple[str, str, int]] = []
    for site in fn.sites:
        # Later direct acquisitions inside this guard's scope.
        for other in fn.sites:
            if site.pos < other.pos < site.end:
                edges.append((site.rank, other.rank, other.line))
        # Calls made while the guard is held.
        for m in _CALL_RE.finditer(fn.flat.text, site.pos, site.end):
            callee = m.group(1)
            if callee == fn.fndef.name or callee not in by_name:
                continue
            line = fn.flat.line_of(m.start())
            for target in by_name[callee]:
                for rank in sorted(target.acquires):
                    edges.append((site.rank, rank, line))
    return edges


def _find_rank_cycle(edges: set[tuple[str, str]]) -> list[str] | None:
    graph: dict[str, set[str]] = {}
    for a, b in edges:
        graph.setdefault(a, set()).add(b)
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in
             set(graph) | {b for bs in graph.values() for b in bs}}
    stack: list[str] = []

    def dfs(node: str) -> list[str] | None:
        color[node] = GREY
        stack.append(node)
        for nxt in sorted(graph.get(node, ())):
            if color[nxt] == GREY:
                return stack[stack.index(nxt):] + [nxt]
            if color[nxt] == WHITE:
                cycle = dfs(nxt)
                if cycle:
                    return cycle
        stack.pop()
        color[node] = BLACK
        return None

    for node in sorted(color):
        if color[node] == WHITE:
            cycle = dfs(node)
            if cycle:
                return cycle
    return None


def run_check(files: list[core.SourceFile]) -> list[core.Finding]:
    findings: list[core.Finding] = []
    ranks = parse_rank_enum(files)
    mutexes = _MutexTable()
    for sf in files:
        _find_mutexes(sf, ranks, mutexes, findings)
    by_name = _collect_functions(files, mutexes)
    _close_acquires(by_name)

    graph_edges: set[tuple[str, str]] = set()
    first_site: dict[tuple[str, str], tuple[str, int]] = {}
    for fns in by_name.values():
        for fn in fns:
            if isinstance(fn, _DeclaredStub):
                continue
            for held, acquired, line in _edges_for(fn, by_name):
                if held not in ranks or acquired not in ranks:
                    continue
                graph_edges.add((held, acquired))
                first_site.setdefault((held, acquired), (fn.sf.path, line))
                if ranks[acquired] <= ranks[held]:
                    if fn.sf.allowed(line, "lock-order"):
                        continue
                    findings.append(core.Finding(
                        fn.sf.path, line, "lock-order",
                        f"acquires {acquired} (rank {ranks[acquired]}) while "
                        f"holding {held} (rank {ranks[held]}); the hierarchy "
                        "requires strictly increasing ranks",
                        fn.sf.raw_lines[line - 1].strip()))

    cycle = _find_rank_cycle(graph_edges)
    if cycle:
        path, line = first_site[(cycle[0], cycle[1])]
        findings.append(core.Finding(
            path, line, "lock-cycle",
            "static acquisition graph has a cycle: " + " -> ".join(cycle),
            " -> ".join(cycle)))
    return findings


class LockRankRule:
    name = "lock-rank"
    codes = frozenset({"mutex-rank", "lock-order", "lock-cycle"})
    dirs = ("src",)

    @staticmethod
    def describe() -> str:
        return ("every Mutex carries a Rank; static acquisition graph must "
                "be strictly increasing and cycle-free")

    @staticmethod
    def check(files: list[core.SourceFile],
              root: pathlib.Path) -> list[core.Finding]:
        del root
        return run_check(files)

    @staticmethod
    def self_test() -> list[tuple[str, bool]]:
        return _self_test()


_ENUM_SRC = """\
namespace support {
enum class Rank : int {
  kTaskQueue = 10,
  kSchedulerSignal = 20,
  kCounterSink = 30,
  kTest = 100,
};
}
"""

_OK_SRC = """\
class Pipeline {
 public:
  void submit() {
    support::MutexLock lock(queue_mu_);
    signal();
  }
  void signal() {
    support::MutexLock lock(signal_mu_);
  }

 private:
  support::Mutex queue_mu_{support::Rank::kTaskQueue};
  support::Mutex signal_mu_{support::Rank::kSchedulerSignal};
};
"""


def _lint(*sources: str) -> list[core.Finding]:
    codes = LockRankRule.codes
    files = [core.SourceFile("src/support/sync.hpp", _ENUM_SRC, codes)]
    files += [core.SourceFile(f"<seeded-{i}>", text, codes)
              for i, text in enumerate(sources)]
    return run_check(files)


def _self_test() -> list[tuple[str, bool]]:
    checks: list[tuple[str, bool]] = []

    def fires(code: str, *sources: str) -> bool:
        return any(f.code == code for f in _lint(*sources))

    checks.append(("lock-rank: increasing acquisition through a call is "
                   "quiet", not any(_lint(_OK_SRC))))

    inverted = _OK_SRC.replace("Rank::kTaskQueue", "Rank::kTEMP").replace(
        "Rank::kSchedulerSignal", "Rank::kTaskQueue").replace(
        "Rank::kTEMP", "Rank::kSchedulerSignal")
    checks.append(("lock-order: fires on rank inversion through a call",
                   fires("lock-order", inverted)))
    checks.append(("lock-cycle: inversion also reports the rank-graph cycle "
                   "when paired with the forward edge",
                   fires("lock-cycle", inverted, _OK_SRC)))

    nested = """\
class Nested {
  void both() {
    support::MutexLock outer(signal_mu_);
    support::MutexLock inner(queue_mu_);
  }
  support::Mutex queue_mu_{support::Rank::kTaskQueue};
  support::Mutex signal_mu_{support::Rank::kSchedulerSignal};
};
"""
    checks.append(("lock-order: fires on directly nested inverted guards",
                   fires("lock-order", nested)))
    allowed = nested.replace(
        "    support::MutexLock inner(queue_mu_);",
        "    // lint:allow(lock-order)\n"
        "    support::MutexLock inner(queue_mu_);")
    checks.append(("lock-order: silenced by lint:allow at the inner site",
                   not fires("lock-order", allowed)))

    scoped = """\
class Scoped {
  void sequential() {
    { support::MutexLock a(signal_mu_); }
    { support::MutexLock b(queue_mu_); }
  }
  support::Mutex queue_mu_{support::Rank::kTaskQueue};
  support::Mutex signal_mu_{support::Rank::kSchedulerSignal};
};
"""
    checks.append(("lock-order: sequential non-overlapping guards are quiet",
                   not any(_lint(scoped))))

    unranked = "class U { support::Mutex mu_; };"
    checks.append(("mutex-rank: fires on an unranked Mutex",
                   fires("mutex-rank", unranked)))
    checks.append(("mutex-rank: silenced by lint:allow",
                   not fires("mutex-rank",
                             "class U { support::Mutex mu_; "
                             "};  // lint:allow(mutex-rank)")))
    checks.append(("mutex-rank: fires on an unknown rank name",
                   fires("mutex-rank",
                         "class U { support::Mutex mu_{support::Rank::"
                         "kBogus}; };")))

    annotated = """\
class Ann {
  void run() {
    support::MutexLock lock(signal_mu_);
    callback();
  }
  // lint:acquires(kTaskQueue)
  void callback();
  support::Mutex signal_mu_{support::Rank::kSchedulerSignal};
};
"""
    checks.append(("lock-order: lint:acquires declarations feed the edge "
                   "check", fires("lock-order", annotated)))

    same_rank = """\
class Same {
  void a() {
    support::MutexLock l1(mu1_);
    support::MutexLock l2(mu2_);
  }
  support::Mutex mu1_{support::Rank::kTaskQueue};
  support::Mutex mu2_{support::Rank::kTaskQueue};
};
"""
    checks.append(("lock-order: equal ranks are not 'strictly increasing'",
                   fires("lock-order", same_rank)))
    # One member name in two classes of one file: each MutexLock site takes
    # the rank of its own class's mutex_, for a member function defined in
    # the class body (Signal::notify) and for a Queue::push definition.
    two_classes = """\
class Signal {
 public:
  void notify() {
    support::MutexLock lock(mutex_);
  }

 private:
  support::Mutex mutex_{support::Rank::kSchedulerSignal};
};

class Queue {
 public:
  void push(Signal& signal);

 private:
  support::Mutex mutex_{support::Rank::kTaskQueue};
};

void Queue::push(Signal& signal) {
  support::MutexLock lock(mutex_);
  signal.notify();
}
"""
    checks.append(("lock-order: a mutex name shared by two classes resolves "
                   "per class", not any(_lint(two_classes))))
    swapped = two_classes.replace("Rank::kTaskQueue", "Rank::kTEMP").replace(
        "Rank::kSchedulerSignal", "Rank::kTaskQueue").replace(
        "Rank::kTEMP", "Rank::kSchedulerSignal")
    checks.append(("lock-order: fires on an inversion between two classes "
                   "that share a mutex name", fires("lock-order", swapped)))

    seeded_decompose = [
        core.SourceFile("src/support/sync.hpp", _ENUM_SRC,
                        LockRankRule.codes),
        core.SourceFile("src/decompose/sharded.cpp", nested,
                        LockRankRule.codes),
    ]
    checks.append(("lock-order: fires on seeded violation in "
                   "src/decompose/sharded.cpp",
                   any(f.code == "lock-order"
                       for f in run_check(seeded_decompose))))
    return checks


RULE = LockRankRule()
