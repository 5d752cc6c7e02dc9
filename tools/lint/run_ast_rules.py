#!/usr/bin/env python3
"""AST rule pack: structural bug classes the compiler accepts silently.

Four rules, each born from a real failure mode of this codebase (see
DESIGN.md, "Static analysis layer"):

  awaiter-trivial-dtor
      Every coroutine awaiter (a type defining await_ready) must either be
      pinned trivially destructible by a same-file
      static_assert(std::is_trivially_destructible_v<...>) or carry a
      justified lint:allow.  GCC 12 double-destroys awaiter temporaries in
      some suspension paths; trivially destructible awaiters make that
      miscompile harmless, and the static_assert keeps them that way when
      someone adds a std::function member two years from now.
  uninit-aggregate
      Aggregate structs in the event/message plumbing (all of src/sim and
      src/pvm headers) must initialize every scalar member.  A skipped
      field reads as stack garbage inside virtual-time ordering — the
      bug reproduces on one machine in ten.
  no-priority-queue
      std::priority_queue anywhere in src/ outside the EventQueue
      implementation.  The engine's (t, seq) total order is a contract
      owned by sim/event_queue.{hpp,cpp}; a second heap beside it can
      order ties differently and silently break bit-identical replay.
  no-mutable-statics
      Mutable static/namespace-scope state in src/sim and src/opal must be
      one of: const/constexpr, std::atomic, util::Mutex/CondVar-guarded
      (GUARDED_BY annotation), or thread_local.  Anything else is shared
      mutable state invisible to both the thread-safety analysis and the
      run-isolation audit.

Backend: these checks are implemented textually (comment/string-stripped
scanning with brace tracking) so they run on any Python with no clang
tooling installed.

Suppression: // lint:allow(<rule>): <justification> on the offending line
or the line above (same syntax as the other lints; the justification is
mandatory and enforced by check_determinism.py, which scans these files
too).

Self test: every rule runs against a deliberate-violation fixture and a
clean fixture under tools/lint/ast_rules/fixtures/<rule>/ — the bad one
must fire, the good one must not, so a broken regex or a disabled rule
fails ctest instead of silently passing everything.

Exit status: 0 clean, 1 findings, 2 usage error.  Emits one
LINT-SUMMARY ast:<rule> files=<n> findings=<n>  line per rule.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from check_determinism import (  # noqa: E402
    allowed_rules, check_uninit_members, strip_code)

SUFFIXES = (".hpp", ".cpp", ".h", ".cc")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def _offset_to_line(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


# ---------------------------------------------------------------------------
# awaiter-trivial-dtor

STRUCT_HEAD = re.compile(r"\b(?:struct|class)\s+([A-Za-z_]\w*)[^;{()]*\{")
AWAIT_READY = re.compile(r"\bawait_ready\s*\(")


def _struct_spans(stripped: str) -> list[tuple[str, int, int, int]]:
    """(name, head_offset, body_start, body_end) for each named struct."""
    spans = []
    for m in STRUCT_HEAD.finditer(stripped):
        depth = 0
        i = m.end() - 1
        n = len(stripped)
        while i < n:
            if stripped[i] == "{":
                depth += 1
            elif stripped[i] == "}":
                depth -= 1
                if depth == 0:
                    spans.append((m.group(1), m.start(), m.end() - 1, i + 1))
                    break
            i += 1
    return spans


def check_awaiter_trivial_dtor(stripped: str, raw: list[str], rel: str,
                               findings: list[Finding]) -> None:
    spans = _struct_spans(stripped)
    for name, head, body_start, body_end in spans:
        # Only the immediate body: cut out nested named structs, so an
        # outer class containing an awaiter is not itself reported.
        body = stripped[body_start:body_end]
        for n2, h2, s2, e2 in spans:
            if h2 > head and e2 <= body_end:
                body = (body[:h2 - body_start] +
                        " " * (e2 - h2) + body[e2 - body_start:])
        if not AWAIT_READY.search(body):
            continue
        pin = re.compile(
            r"static_assert\s*\(\s*std::is_trivially_destructible_v<"
            r"[^>]*\b" + re.escape(name) + r"\b")
        if pin.search(stripped):
            continue
        lineno = _offset_to_line(stripped, head)
        if "awaiter-trivial-dtor" in allowed_rules(raw, lineno - 1):
            continue
        findings.append(Finding(
            rel, lineno, "awaiter-trivial-dtor",
            f"awaiter '{name}' has no "
            f"static_assert(std::is_trivially_destructible_v<...{name}>) "
            "in this file; GCC 12 double-destroys awaiter temporaries on "
            "some suspension paths — pin triviality or justify with "
            "lint:allow"))


# ---------------------------------------------------------------------------
# no-priority-queue

PRIORITY_QUEUE = re.compile(r"std::priority_queue")
PQ_ALLOWED_FILES = {"src/sim/event_queue.hpp", "src/sim/event_queue.cpp"}


def check_no_priority_queue(stripped: str, raw: list[str], rel: str,
                            findings: list[Finding]) -> None:
    if rel in PQ_ALLOWED_FILES:
        return
    for idx, line in enumerate(stripped.split("\n")):
        if PRIORITY_QUEUE.search(line) and \
                "no-priority-queue" not in allowed_rules(raw, idx):
            findings.append(Finding(
                rel, idx + 1, "no-priority-queue",
                "std::priority_queue outside sim/event_queue.{hpp,cpp}; "
                "the (t, seq) event order is a contract owned by "
                "EventQueue — a second heap can order ties differently"))


# ---------------------------------------------------------------------------
# no-mutable-statics

STATIC_DECL = re.compile(r"^\s*static\s+(?!assert\b|cast\b)(.*)$")
GLOBAL_DECL = re.compile(
    r"^[A-Za-z_][\w:<>,\s&*]*?[\s&*]g_\w+\s*(?:=|\{|;|GUARDED_BY)")
SAFE_CATEGORY = re.compile(
    r"\bconst\b|\bconstexpr\b|\batomic\b|\bMutex\b|\bCondVar\b|"
    r"\bonce_flag\b|\bthread_local\b|\bGUARDED_BY\b")


def _is_variable_decl(tail: str) -> bool:
    """True when a `static <tail>` line declares a variable rather than a
    member/free function: an initializer (= or {) before any '(' means
    variable; a '(' first means a function declaration."""
    for ch in tail:
        if ch in "={":
            return True
        if ch == "(":
            return False
        if ch == ";":
            return True  # `static T x;` — no parens at all
    return False


def check_no_mutable_statics(stripped: str, raw: list[str], rel: str,
                             findings: list[Finding]) -> None:
    for idx, line in enumerate(stripped.split("\n")):
        hit = None
        m = STATIC_DECL.match(line)
        if m and _is_variable_decl(m.group(1)):
            hit = "static variable"
        elif GLOBAL_DECL.match(line):
            hit = "namespace-scope global"
        if hit is None:
            continue
        ctx = line
        if idx + 1 < len(raw):  # GUARDED_BY may wrap to the next line
            ctx += " " + raw[idx + 1] if "GUARDED_BY" in raw[idx + 1] else ""
        if SAFE_CATEGORY.search(ctx):
            continue
        if "no-mutable-statics" in allowed_rules(raw, idx):
            continue
        findings.append(Finding(
            rel, idx + 1, "no-mutable-statics",
            f"mutable {hit} in engine/application code; make it const, "
            "std::atomic, thread_local, or GUARDED_BY an annotated mutex "
            "so the thread-safety analysis and run-isolation audit can "
            "see it"))


# ---------------------------------------------------------------------------
# uninit-aggregate (delegates to check_determinism's brace tracker, but
# over every header in the event/message plumbing trees rather than the
# curated file list)

def check_uninit_aggregate(stripped: str, raw: list[str], rel: str,
                           findings: list[Finding]) -> None:
    before = len(findings)
    tmp: list = []
    check_uninit_members(stripped.split("\n"), raw, rel, tmp)
    for f in tmp:
        findings.append(Finding(rel, f.line, "uninit-aggregate", f.message))
    del before


# ---------------------------------------------------------------------------
# Rule registry: name -> (scope predicate over repo-relative path, checker)

RULES = {
    "awaiter-trivial-dtor": (
        lambda rel: rel.startswith("src/"),
        check_awaiter_trivial_dtor),
    "uninit-aggregate": (
        lambda rel: (rel.startswith(("src/sim/", "src/pvm/"))
                     and rel.endswith((".hpp", ".h"))),
        check_uninit_aggregate),
    "no-priority-queue": (
        lambda rel: rel.startswith("src/"),
        check_no_priority_queue),
    "no-mutable-statics": (
        lambda rel: rel.startswith(("src/sim/", "src/opal/")),
        check_no_mutable_statics),
}


def run_rules(root: pathlib.Path, rules: dict) -> tuple[
        list[Finding], dict[str, int]]:
    findings: list[Finding] = []
    files_checked = {name: 0 for name in rules}
    src = root / "src"
    if not src.is_dir():
        print(f"error: no src/ under {root}", file=sys.stderr)
        sys.exit(2)
    for path in sorted(src.rglob("*")):
        if path.suffix not in SUFFIXES:
            continue
        rel = path.relative_to(root).as_posix()
        applicable = [(n, fn) for n, (scope, fn) in rules.items()
                      if scope(rel)]
        if not applicable:
            continue
        try:
            raw = path.read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(Finding(rel, 0, "io", f"unreadable: {exc}"))
            continue
        stripped = "\n".join(strip_code(raw))
        for name, fn in applicable:
            files_checked[name] += 1
            fn(stripped, raw, rel, findings)
    return findings, files_checked


# ---------------------------------------------------------------------------
# Self test: each rule against its fixtures.  fixtures/<rule>/bad.cpp must
# produce >= 1 finding of that rule; fixtures/<rule>/good.cpp must produce
# none.  A disabled or broken rule therefore fails here, loudly.

def self_test() -> int:
    fixtures = pathlib.Path(__file__).resolve().parent / "ast_rules" / \
        "fixtures"
    failures = 0
    for name, (scope, fn) in RULES.items():
        for kind, should_fire in (("bad", True), ("good", False)):
            path = fixtures / name / f"{kind}.cpp"
            if not path.is_file():
                print(f"self-test FAIL: missing fixture {path}",
                      file=sys.stderr)
                failures += 1
                continue
            raw = path.read_text(encoding="utf-8").splitlines()
            stripped = "\n".join(strip_code(raw))
            findings: list[Finding] = []
            # Fixtures are checked under a path the rule's scope accepts.
            rel = {"uninit-aggregate": "src/sim/fixture.hpp",
                   "no-mutable-statics": "src/sim/fixture.cpp",
                   }.get(name, "src/sim/fixture.cpp")
            fn(stripped, raw, rel, findings)
            fired = any(f.rule == name for f in findings)
            if fired != should_fire:
                verb = "missed" if should_fire else "false-positive on"
                print(f"self-test FAIL: {name} {verb} {path.name}:\n" +
                      "\n".join(str(f) for f in findings), file=sys.stderr)
                failures += 1
    if failures:
        return 1
    print(f"self-test OK: {len(RULES)} rules x bad/good fixtures")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None)
    parser.add_argument("--rule", action="append", choices=sorted(RULES),
                        help="run only the named rule(s)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = pathlib.Path(args.root) if args.root else \
        pathlib.Path(__file__).resolve().parents[2]
    rules = {n: RULES[n] for n in (args.rule or RULES)}
    findings, files_checked = run_rules(root, rules)
    for f in findings:
        print(f)
    if findings:
        print(f"\nrun_ast_rules: {len(findings)} finding(s). Fix, or "
              "suppress a justified case with // lint:allow(<rule>): "
              "<reason>.", file=sys.stderr)
    else:
        print("run_ast_rules: clean")
    for name in sorted(rules):
        n = sum(1 for f in findings if f.rule == name)
        print(f"LINT-SUMMARY ast:{name} files={files_checked[name]} "
              f"findings={n}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
