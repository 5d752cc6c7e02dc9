#!/usr/bin/env python3
"""Determinism lint for the OpalSim tree.

The DES engine promises bit-for-bit reproducible runs; every calibrated
coefficient (a1..b5) and predicted speedup curve in the study is computed
from its virtual-time accounting.  This checker mechanically forbids the
ways host-level nondeterminism leaks into virtual time or model code:

  rng               direct rand()/srand()/std::random_device/std::mt19937/
                    std::default_random_engine use.  All randomness must
                    flow through util/rng.hpp (seeded SplitMix64/Xoshiro256)
                    so a fixed seed replays a run exactly.
  wall-clock        std::chrono::{system,steady,high_resolution}_clock,
                    time(), gettimeofday(), clock_gettime().  Host clocks
                    may only be read through util/host_timer.hpp (and bench
                    code, which lives outside src/); virtual time comes from
                    sim::Engine alone.
  unordered-container
                    std::unordered_map / std::unordered_set anywhere in
                    src/.  Their iteration order is libstdc++-version- and
                    hash-seed-dependent; an innocent range-for feeding
                    accounting or output silently breaks reproducibility.
                    Use std::map/std::set/sorted vectors.
  uninit-member     scalar data members without an initializer in the
                    aggregate structs of the event/message plumbing
                    (sim::Event waiters, engine scheduling records,
                    pvm::Message, fault records).  An uninitialized field
                    read before assignment injects stack garbage straight
                    into virtual-time ordering.
  float-narrowing   `float` in model/accounting code.  The model calibrates
                    and predicts in double; accumulating into float loses
                    bits run-order-dependently once any parallel reduction
                    is introduced.
  priority-queue    direct std::priority_queue in src/sim outside the
                    EventQueue implementation (sim/event_queue.{hpp,cpp}).
                    The engine's event ordering is a (t, seq) total-order
                    contract behind the EventQueue interface; an ad-hoc heap
                    beside it can silently break tie ordering — and with it
                    bit-identical replay.

Scope: src/, tests/ and bench/ are scanned (rules with directory filters,
like float-narrowing, stay confined to their listed src/ subtrees).

Escape hatch: a finding is suppressed when the offending line, or the line
directly above it, carries  // lint:allow(<rule>): <justification>.  The
justification is mandatory — a bare lint:allow is itself a finding
(allow-justification), so every suppression records *why* in the diff.  A
file whose whole purpose trips a rule (bench timing harnesses and host
clocks, say) can carry  // lint:allow-file(<rule>): <justification>  in its
first 30 lines to suppress the rule file-wide.

Exit status: 0 when clean, 1 when any finding remains, 2 on usage errors.
Diagnostics are file:line: rule: message, one per line.  The last stdout
line is always  LINT-SUMMARY determinism files=<n> findings=<n>  so
tools/lint/run_all.sh can tabulate results without parsing diagnostics.

Run locally:   python3 tools/lint/check_determinism.py
Self-check:    python3 tools/lint/check_determinism.py --self-test
(ctest runs both: lint_determinism, lint_determinism_selftest)
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# ---------------------------------------------------------------------------
# Rule definitions

RNG_PATTERN = re.compile(
    r"(?<![\w:])(?:std::)?(?:rand|srand)\s*\(|"
    r"std::random_device|std::mt19937|std::default_random_engine"
)
WALL_CLOCK_PATTERN = re.compile(
    r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)|"
    r"(?<![\w:])(?:gettimeofday|clock_gettime)\s*\(|"
    r"(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
)
UNORDERED_PATTERN = re.compile(r"std::unordered_(?:map|set|multimap|multiset)")
FLOAT_PATTERN = re.compile(r"(?<![\w:])float(?![\w])")
PRIORITY_QUEUE_PATTERN = re.compile(r"std::priority_queue")

# Files whose whole purpose is the thing a rule forbids.
RNG_ALLOWED_FILES = {"src/util/rng.hpp"}
WALL_CLOCK_ALLOWED_FILES = {"src/util/host_timer.hpp"}

# std::priority_queue is banned in the engine tree except inside the
# EventQueue implementation itself (the engine's heap lives there).
PRIORITY_QUEUE_CHECKED_DIRS = ("src/sim",)
PRIORITY_QUEUE_ALLOWED_FILES = {
    "src/sim/event_queue.hpp",
    "src/sim/event_queue.cpp",
}

# float is forbidden where model/accounting arithmetic lives; util string/
# table helpers and mach descriptor structs are out of scope.
FLOAT_CHECKED_DIRS = ("src/model", "src/hpm", "src/sim", "src/opal",
                      "src/doe")

# The event/message plumbing checked for uninitialized scalar members:
# aggregate structs here are built all over the tree, and a skipped field
# becomes stack garbage inside virtual-time ordering.
UNINIT_CHECKED_FILES = {
    "src/sim/event.hpp",
    "src/sim/engine.hpp",
    "src/sim/event_queue.hpp",
    "src/sim/pool.hpp",
    "src/sim/fault.hpp",
    "src/sim/mailbox.hpp",
    "src/sim/resource.hpp",
    "src/pvm/message.hpp",
}

SCALAR_MEMBER_PATTERN = re.compile(
    r"^\s*(?:const\s+)?"
    r"(?P<type>bool|char|short|int|long(?:\s+long)?|unsigned(?:\s+\w+)?|"
    r"float|double|std::u?int(?:8|16|32|64)_t|std::size_t|std::ptrdiff_t|"
    r"SimTime)\s+"
    r"(?P<name>\w+)\s*;\s*$"
)

ALLOW_PATTERN = re.compile(
    r"//\s*lint:allow\(([\w,\s-]+)\)(:\s*\S.*)?")
FILE_ALLOW_PATTERN = re.compile(
    r"//\s*lint:allow-file\(([\w,\s-]+)\)(:\s*\S.*)?")
# lint:allow-file must sit near the top of the file, with the header
# comment that explains what the file is.
FILE_ALLOW_SCAN_LINES = 30

RULES = ("rng", "wall-clock", "unordered-container", "uninit-member",
         "float-narrowing", "priority-queue", "allow-justification")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


# ---------------------------------------------------------------------------
# Comment/string stripping (so prose about rand() or clocks never trips a
# rule).  Line-oriented scanner tracking block-comment and raw-string state
# is overkill; C++ sources here use no raw strings with quotes, so handling
# //, /* */ and plain "..."/'...' literals is sufficient.

def strip_code(lines: list[str]) -> list[str]:
    out = []
    in_block = False
    for raw in lines:
        result = []
        i, n = 0, len(raw)
        while i < n:
            if in_block:
                end = raw.find("*/", i)
                if end < 0:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            ch = raw[i]
            nxt = raw[i + 1] if i + 1 < n else ""
            if ch == "/" and nxt == "/":
                break
            if ch == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if ch in "\"'":
                quote = ch
                result.append(ch)
                i += 1
                while i < n:
                    if raw[i] == "\\":
                        i += 2
                        continue
                    if raw[i] == quote:
                        break
                    i += 1
                result.append(quote)
                i += 1
                continue
            result.append(ch)
            i += 1
        out.append("".join(result))
    return out


def allowed_rules(raw_lines: list[str], idx: int) -> set[str]:
    """Suppressions applying to line idx (same line or the line above).

    An allow without a justification still suppresses (the justification
    gap is reported separately as its own finding, which keeps the two
    diagnostics from stacking on one line)."""
    rules: set[str] = set()
    for j in (idx, idx - 1):
        if 0 <= j < len(raw_lines):
            m = ALLOW_PATTERN.search(raw_lines[j])
            if m:
                rules.update(r.strip() for r in m.group(1).split(","))
    return rules


def file_allowed_rules(raw_lines: list[str]) -> set[str]:
    """Rules suppressed file-wide by a lint:allow-file header."""
    rules: set[str] = set()
    for line in raw_lines[:FILE_ALLOW_SCAN_LINES]:
        m = FILE_ALLOW_PATTERN.search(line)
        if m:
            rules.update(r.strip() for r in m.group(1).split(","))
    return rules


def check_allow_justifications(raw_lines: list[str], rel: str,
                               findings: list[Finding]) -> None:
    """Every lint:allow / lint:allow-file must say why.

    The suppression syntax is  // lint:allow(rule): <reason>  — an allow
    with no reason is an unreviewable mystery in six months, so the lint
    flags it rather than trusting commit archaeology."""
    for idx, line in enumerate(raw_lines):
        for pattern, kind in ((FILE_ALLOW_PATTERN, "lint:allow-file"),
                              (ALLOW_PATTERN, "lint:allow")):
            m = pattern.search(line)
            if m:
                if not m.group(2):
                    findings.append(Finding(
                        rel, idx + 1, "allow-justification",
                        f"{kind}({m.group(1)}) has no justification; write "
                        f"'// {kind}({m.group(1)}): <why this is safe>'"))
                break  # allow-file also matches ALLOW; report once


# ---------------------------------------------------------------------------
# uninit-member: a tiny brace tracker that applies the scalar-member pattern
# only inside `struct` bodies (classes initialize members in constructors,
# which a line scanner cannot see; the aggregate structs are the hazard).

STRUCT_OPEN = re.compile(r"(?<![\w])(struct|class)\s+\w[\w<>:,\s]*\{")
ANON_STRUCT_OPEN = re.compile(r"(?<![\w])(struct|class)\s*\{")


def check_uninit_members(code_lines: list[str], raw_lines: list[str],
                         rel: str, findings: list[Finding]) -> None:
    stack: list[str] = []  # "struct" | "class" | "brace"
    for idx, line in enumerate(code_lines):
        i = 0
        while i < len(line):
            m = STRUCT_OPEN.search(line, i) or ANON_STRUCT_OPEN.search(line, i)
            if m and m.start() >= i:
                # Count braces before the struct head as plain braces.
                for ch in line[i:m.start()]:
                    if ch == "{":
                        stack.append("brace")
                    elif ch == "}" and stack:
                        stack.pop()
                stack.append(m.group(1))
                i = m.end()
                continue
            ch = line[i]
            if ch == "{":
                stack.append("brace")
            elif ch == "}" and stack:
                stack.pop()
            i += 1
        if stack and stack[-1] == "struct":
            sm = SCALAR_MEMBER_PATTERN.match(line)
            if sm and "uninit-member" not in allowed_rules(raw_lines, idx):
                findings.append(Finding(
                    rel, idx + 1, "uninit-member",
                    f"scalar member '{sm.group('name')}' of type "
                    f"'{sm.group('type')}' has no initializer (stack garbage "
                    "feeds event/message state; add '= 0' or '{}')"))


# ---------------------------------------------------------------------------

def check_file(path: pathlib.Path, root: pathlib.Path,
               findings: list[Finding]) -> None:
    rel = path.relative_to(root).as_posix()
    try:
        raw_lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        findings.append(Finding(rel, 0, "io", f"unreadable: {exc}"))
        return
    code_lines = strip_code(raw_lines)
    check_allow_justifications(raw_lines, rel, findings)
    file_allowed = file_allowed_rules(raw_lines)

    for idx, line in enumerate(code_lines):
        lineno = idx + 1
        allowed = None  # computed lazily

        def allow(rule: str) -> bool:
            nonlocal allowed
            if rule in file_allowed:
                return True
            if allowed is None:
                allowed = allowed_rules(raw_lines, idx)
            return rule in allowed

        if rel not in RNG_ALLOWED_FILES:
            m = RNG_PATTERN.search(line)
            if m and not allow("rng"):
                findings.append(Finding(
                    rel, lineno, "rng",
                    f"'{m.group(0).strip()}' bypasses the seeded generators "
                    "in util/rng.hpp; a fixed seed can no longer replay the "
                    "run"))

        if rel not in WALL_CLOCK_ALLOWED_FILES:
            m = WALL_CLOCK_PATTERN.search(line)
            if m and not allow("wall-clock"):
                findings.append(Finding(
                    rel, lineno, "wall-clock",
                    f"'{m.group(0).strip()}' reads the host clock; virtual "
                    "time must come from sim::Engine (host timing only via "
                    "util/host_timer.hpp)"))

        m = UNORDERED_PATTERN.search(line)
        if m and not allow("unordered-container"):
            findings.append(Finding(
                rel, lineno, "unordered-container",
                f"'{m.group(0)}' has hash-order iteration; use std::map/"
                "std::set or a sorted vector so accounting and output "
                "order are reproducible"))

        if rel.startswith(FLOAT_CHECKED_DIRS):
            m = FLOAT_PATTERN.search(line)
            if m and not allow("float-narrowing"):
                findings.append(Finding(
                    rel, lineno, "float-narrowing",
                    "'float' in model/accounting code; the model calibrates "
                    "in double — float accumulation drops bits "
                    "run-order-dependently"))

        if rel.startswith(PRIORITY_QUEUE_CHECKED_DIRS) and \
                rel not in PRIORITY_QUEUE_ALLOWED_FILES:
            m = PRIORITY_QUEUE_PATTERN.search(line)
            if m and not allow("priority-queue"):
                findings.append(Finding(
                    rel, lineno, "priority-queue",
                    "'std::priority_queue' beside the EventQueue; "
                    "event ordering must go through sim/event_queue.hpp so "
                    "the (t, seq) total order stays in one place"))

    if rel in UNINIT_CHECKED_FILES and "uninit-member" not in file_allowed:
        check_uninit_members(code_lines, raw_lines, rel, findings)


SCAN_DIRS = ("src", "tests", "bench")


def run(root: pathlib.Path) -> tuple[list[Finding], int]:
    findings: list[Finding] = []
    nfiles = 0
    if not (root / "src").is_dir():
        print(f"error: no src/ under {root}", file=sys.stderr)
        sys.exit(2)
    for top in SCAN_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in (".hpp", ".cpp", ".h", ".cc"):
                nfiles += 1
                check_file(path, root, findings)
    return findings, nfiles


# ---------------------------------------------------------------------------
# Self test: every rule must fire on a known-bad snippet and stay silent on
# the matching clean/suppressed snippet.  Run as its own ctest so a broken
# regex cannot silently turn the lint into a no-op.

SELF_TEST_CASES = [
    ("rng", True, "int x = rand();"),
    ("rng", True, "std::random_device rd;"),
    ("rng", True, "std::mt19937 gen(42);"),
    ("rng", False, "util::Xoshiro256 gen(42);"),
    ("rng", False, "// old code used rand() here"),
    ("rng", False, "int x = rand();  // lint:allow(rng): seeds a decoy"),
    ("rng", False, "int strand(int);"),
    ("wall-clock", True, "auto t = std::chrono::system_clock::now();"),
    ("wall-clock", True, "auto t = std::chrono::steady_clock::now();"),
    ("wall-clock", True, "time_t t = time(nullptr);"),
    ("wall-clock", False, "double t = engine.now();"),
    ("wall-clock", False, "double runtime(int);"),
    ("unordered-container", True, "std::unordered_map<int, double> acc;"),
    ("unordered-container", False, "std::map<int, double> acc;"),
    ("unordered-container", False,
     "std::unordered_set<int> s;  "
     "// lint:allow(unordered-container): never iterated"),
    ("float-narrowing", True, "float energy = 0;"),
    ("float-narrowing", False, "double energy = 0;"),
    ("float-narrowing", False, "int floaty = 0;"),
]


def self_test() -> int:
    failures = 0
    for rule, should_fire, snippet in SELF_TEST_CASES:
        findings: list[Finding] = []
        raw = [snippet]
        code = strip_code(raw)
        # Reuse check_file's per-line logic by faking a file in a checked dir.
        rel = "src/model/snippet.cpp"
        for idx, line in enumerate(code):
            if RNG_PATTERN.search(line) and \
                    "rng" not in allowed_rules(raw, idx):
                findings.append(Finding(rel, idx + 1, "rng", ""))
            if WALL_CLOCK_PATTERN.search(line) and \
                    "wall-clock" not in allowed_rules(raw, idx):
                findings.append(Finding(rel, idx + 1, "wall-clock", ""))
            if UNORDERED_PATTERN.search(line) and \
                    "unordered-container" not in allowed_rules(raw, idx):
                findings.append(
                    Finding(rel, idx + 1, "unordered-container", ""))
            if FLOAT_PATTERN.search(line) and \
                    "float-narrowing" not in allowed_rules(raw, idx):
                findings.append(Finding(rel, idx + 1, "float-narrowing", ""))
        fired = any(f.rule == rule for f in findings)
        if fired != should_fire:
            print(f"self-test FAIL: rule {rule} "
                  f"{'missed' if should_fire else 'false-positive on'}: "
                  f"{snippet!r}", file=sys.stderr)
            failures += 1

    # priority-queue: fires in src/sim generally, silent inside the
    # EventQueue implementation files, outside src/sim, and when suppressed.
    pq_cases = [
        (True, "src/sim/engine.hpp",
         "std::priority_queue<Ev> q;"),
        (False, "src/sim/event_queue.cpp",
         "std::priority_queue<Ev> q;"),
        (False, "src/pvm/pvm_system.cpp",
         "std::priority_queue<Ev> q;"),
        (False, "src/sim/engine.hpp",
         "std::priority_queue<Ev> q;  "
         "// lint:allow(priority-queue): measured against EventQueue"),
        (False, "src/sim/engine.hpp", "queue_->push(ev);"),
    ]
    for should_fire, rel, snippet in pq_cases:
        raw = [snippet]
        code = strip_code(raw)
        fired = bool(
            rel.startswith(PRIORITY_QUEUE_CHECKED_DIRS) and
            rel not in PRIORITY_QUEUE_ALLOWED_FILES and
            PRIORITY_QUEUE_PATTERN.search(code[0]) and
            "priority-queue" not in allowed_rules(raw, 0))
        if fired != should_fire:
            print(f"self-test FAIL: priority-queue on {rel!r}: {snippet!r}",
                  file=sys.stderr)
            failures += 1

    # uninit-member: struct member without initializer fires; class member
    # and initialized member do not.
    uninit_cases = [
        (True, ["struct Ev {", "  double t;", "};"]),
        (False, ["struct Ev {", "  double t = 0.0;", "};"]),
        (False, ["class Ev {", "  double t_;", "};"]),
        (False, ["struct Ev {",
                 "  double t;  // lint:allow(uninit-member): set by ctor",
                 "};"]),
    ]
    for should_fire, lines in uninit_cases:
        findings = []
        check_uninit_members(strip_code(lines), lines, "src/sim/event.hpp",
                             findings)
        if bool(findings) != should_fire:
            print(f"self-test FAIL: uninit-member on {lines!r}",
                  file=sys.stderr)
            failures += 1

    # allow-justification: a bare allow is flagged, a justified one is not;
    # lint:allow-file with a reason suppresses file-wide, and a bare
    # allow-file is flagged too.
    just_cases = [
        (True, "int x = rand();  // lint:allow(rng)"),
        (False, "int x = rand();  // lint:allow(rng): decoy stream"),
        (True, "// lint:allow-file(wall-clock)"),
        (False, "// lint:allow-file(wall-clock): bench timing harness"),
    ]
    for should_fire, snippet in just_cases:
        f2: list[Finding] = []
        check_allow_justifications([snippet], "src/x.cpp", f2)
        if bool(f2) != should_fire:
            print(f"self-test FAIL: allow-justification on {snippet!r}",
                  file=sys.stderr)
            failures += 1
    fa = file_allowed_rules(
        ["// lint:allow-file(wall-clock): bench timing harness"])
    if fa != {"wall-clock"}:
        print("self-test FAIL: file_allowed_rules did not pick up "
              "lint:allow-file", file=sys.stderr)
        failures += 1

    if failures:
        return 1
    print(f"self-test OK: "
          f"{len(SELF_TEST_CASES) + len(pq_cases) + len(uninit_cases) + len(just_cases) + 1} cases")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels up from "
                             "this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on known-bad snippets")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = pathlib.Path(args.root) if args.root else \
        pathlib.Path(__file__).resolve().parents[2]
    findings, nfiles = run(root)
    for f in findings:
        print(f)
    if findings:
        print(f"\ncheck_determinism: {len(findings)} finding(s). "
              "Fix, or suppress a justified case with "
              "// lint:allow(<rule>): <reason>.", file=sys.stderr)
    else:
        print("check_determinism: clean")
    print(f"LINT-SUMMARY determinism files={nfiles} "
          f"findings={len(findings)}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
