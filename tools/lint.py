#!/usr/bin/env python3
"""Concurrency-correctness lint for the RNA tree.

Registered as the `lint` ctest test (with `lint_selftest` as its regression
test). Enforces the repo's threading discipline, which Clang's
-Wthread-safety cannot check by itself:

  raw-random        rand()/srand() and std:: engines are banned everywhere
                    except rna/common/rng.hpp: experiments must be seedable
                    and reproducible across standard libraries.
  thread-detach     detached threads outlive the state they capture; every
                    thread in the project is joined.
  volatile-sync     volatile is not a synchronization primitive; use
                    std::atomic or a Mutex.
  raw-sleep         sleeping in library code hides latent races and makes
                    shutdown unresponsive; wait on a CondVar. The single
                    sanctioned sleep is common::SleepFor (clock.hpp), used
                    to model real time (straggler injection). Tests and
                    benches may sleep.
  raw-mutex         std::mutex and friends are invisible to Clang's
                    capability analysis; library code must use
                    rna::common::Mutex / MutexLock / CondVar (mutex.hpp).
  unguarded-mutex   every Mutex member must have at least one member
                    annotated RNA_GUARDED_BY / RNA_PT_GUARDED_BY on it, so
                    the capability analysis actually covers the class.
  raw-stopwatch     protocol runners must time themselves through rna::obs
                    (ScopedTimer feeds both WorkerTimeBreakdown and the
                    trace, so figures and breakdowns cannot diverge);
                    ad-hoc common::Stopwatch in runner code reintroduces a
                    second, unexported timing source. Applies to src/core,
                    src/train, src/baselines, src/ps; the obs module,
                    clock.hpp, tests and benches are exempt.
  run-scaffold      one run scaffold (train::Run, src/train/run.{hpp,cpp})
                    owns each run's fabric, evaluation monitor and
                    `train_total` clock, so every runner gets the same fault
                    plan, monitor and span boundaries. Constructing a
                    net::Fabric or an EvalMonitor, or naming the
                    "train_total" timer, anywhere else in src/core,
                    src/train or src/baselines is a finding.

Two former regex rules are RETIRED: the whole-program analyzer
(tools/analyze) subsumes them with call-graph checks that see through
wrapper functions, something a per-line regex never could:

  untimed-recv      -> tools/analyze check `timed-recv`
  nn-raw-alloc      -> tools/analyze check `no-heap-reachable`

The lint still knows their names: a stale `lint:allow(<retired rule>)`
comment is itself a finding that names the owning checker (migrate the
comment to `analyze:allow(...)` at the real site, or delete it).

Suppress a finding with `// lint:allow(<rule>)` on the offending line.
"""

import argparse
import re
import sys
from pathlib import Path

CPP_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".h"}
SCAN_DIRS = ("src", "tests", "bench", "examples")

RNG_HEADER = "src/common/include/rna/common/rng.hpp"
CLOCK_HEADER = "src/common/include/rna/common/clock.hpp"
MUTEX_HEADER = "src/common/include/rna/common/mutex.hpp"
RUN_SCAFFOLD = ("src/train/run.cpp", "src/train/include/rna/train/run.hpp")

ALLOW_RE = re.compile(r"lint:allow\((?P<rules>[\w,\s-]+)\)")


def strip_comments_and_strings(text, keep_strings=False):
    """Blanks out comments, string literals, and char literals, preserving
    line structure so reported line numbers stay accurate. With
    `keep_strings`, string and char literals stay as written."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(c if keep_strings else " ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(c if keep_strings else " ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append(text[i:i + 2] if keep_strings else "  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(c if keep_strings or c == "\n" else " ")
        i += 1
    return "".join(out)


def line_allows(raw_line, rule):
    m = ALLOW_RE.search(raw_line)
    if not m:
        return False
    allowed = {r.strip() for r in m.group("rules").split(",")}
    return rule in allowed


class Rule:
    def __init__(self, name, pattern, message, applies, keep_strings=False):
        self.name = name
        self.pattern = re.compile(pattern)
        self.message = message
        self.applies = applies  # relpath (posix str) -> bool
        self.keep_strings = keep_strings  # match inside string literals too


def in_library(relpath):
    return relpath.startswith("src/")


RULES = [
    Rule(
        "raw-random",
        r"\b(?:std::)?s?rand\s*\(|std::random_device|std::mt19937"
        r"|std::minstd_rand|std::default_random_engine|std::ranlux",
        "unseeded/non-reproducible randomness; use rna::common::Rng "
        "(rna/common/rng.hpp)",
        lambda p: p != RNG_HEADER,
    ),
    Rule(
        "thread-detach",
        r"\.detach\s*\(\s*\)",
        "detached threads are banned; join every thread",
        lambda p: True,
    ),
    Rule(
        "volatile-sync",
        r"\bvolatile\b",
        "volatile is not a synchronization primitive; use std::atomic or "
        "a guarded member",
        lambda p: True,
    ),
    Rule(
        "raw-sleep",
        r"this_thread::sleep_for|this_thread::sleep_until|\busleep\s*\(",
        "no sleeping in library code; wait on rna::common::CondVar, or use "
        "common::SleepFor for modelled delays",
        lambda p: in_library(p) and p != CLOCK_HEADER,
    ),
    Rule(
        "raw-mutex",
        r"std::(?:recursive_|timed_|recursive_timed_|shared_)?mutex\b"
        r"|std::condition_variable\b|std::condition_variable_any\b"
        r"|std::scoped_lock\b|std::lock_guard\b|std::unique_lock\b"
        r"|std::shared_lock\b",
        "raw std synchronization types escape -Wthread-safety; use "
        "rna::common::Mutex / MutexLock / CondVar (rna/common/mutex.hpp)",
        lambda p: in_library(p) and p != MUTEX_HEADER,
    ),
    Rule(
        "raw-stopwatch",
        r"\bStopwatch\b",
        "runner code must time through rna::obs::ScopedTimer (rna/obs/"
        "trace.hpp) so every measurement lands in the trace; "
        "common::Stopwatch is a second, unexported timing source",
        lambda p: p.startswith(("src/core/", "src/train/", "src/baselines/",
                                "src/ps/")),
    ),
    Rule(
        "run-scaffold",
        # A variable or member of either type, a make_unique/make_shared/
        # optional of it, a new-expression, or the clock's span name.
        r"(?<![\w:])(?:\w+::)*(?:Fabric|EvalMonitor)\s+\w+\s*[({;]"
        r"|\b(?:make_unique|make_shared|optional)<\s*(?:\w+::)*"
        r"(?:Fabric|EvalMonitor)\s*>"
        r"|\bnew\s+(?:\w+::)*(?:Fabric|EvalMonitor)\b"
        r'|"train_total"',
        "runs get their fabric, monitor and train_total clock from "
        "train::Run (rna/train/run.hpp); build a Run instead",
        lambda p: (p.startswith(("src/core/", "src/train/", "src/baselines/"))
                   and p not in RUN_SCAFFOLD),
        keep_strings=True,
    ),
]

# Rules the call-graph analyzer took over. Keys are the old lint names;
# values name the owning tools/analyze check. A surviving
# `lint:allow(<retired>)` comment is dead weight — the regex it silenced is
# gone — so the lint flags it and points at the new owner.
RETIRED_RULES = {
    "untimed-recv": "tools/analyze check 'timed-recv'",
    "nn-raw-alloc": "tools/analyze check 'no-heap-reachable'",
}


def check_retired_suppressions(relpath, raw_lines, findings):
    for i, raw in enumerate(raw_lines):
        m = ALLOW_RE.search(raw)
        if not m:
            continue
        named = {r.strip() for r in m.group("rules").split(",")}
        for rule in sorted(named & RETIRED_RULES.keys()):
            findings.append(
                (relpath, i + 1, "retired-rule",
                 f"lint rule '{rule}' was retired; it is now enforced by "
                 f"{RETIRED_RULES[rule]} — move the justification to an "
                 "analyze:allow(...) comment or delete this suppression"))


MUTEX_MEMBER_RE = re.compile(
    r"\b(?:common::)?Mutex\s+(?P<name>\w+_)\s*;")


def check_unguarded_mutexes(relpath, code, raw_lines, findings):
    """Rule unguarded-mutex: a Mutex member with no RNA_GUARDED_BY coverage
    in the same file means the capability analysis protects nothing."""
    if not in_library(relpath) or relpath == MUTEX_HEADER:
        return
    for m in MUTEX_MEMBER_RE.finditer(code):
        name = m.group("name")
        guard_re = re.compile(
            r"RNA_(?:PT_)?GUARDED_BY\(\s*" + re.escape(name) + r"\s*\)")
        if guard_re.search(code):
            continue
        line_no = code.count("\n", 0, m.start()) + 1
        if line_allows(raw_lines[line_no - 1], "unguarded-mutex"):
            continue
        findings.append(
            (relpath, line_no, "unguarded-mutex",
             f"Mutex member '{name}' has no RNA_GUARDED_BY(...) coverage "
             "in this file; annotate the state it protects"))


def lint_text(relpath, text):
    findings = []
    code = strip_comments_and_strings(text)
    raw_lines = text.split("\n")
    code_lines = {False: code.split("\n"),
                  True: strip_comments_and_strings(text, True).split("\n")}
    for rule in RULES:
        if not rule.applies(relpath):
            continue
        for i, line in enumerate(code_lines[rule.keep_strings]):
            if rule.pattern.search(line):
                if i < len(raw_lines) and line_allows(raw_lines[i], rule.name):
                    continue
                findings.append((relpath, i + 1, rule.name, rule.message))
    check_unguarded_mutexes(relpath, code, raw_lines, findings)
    check_retired_suppressions(relpath, raw_lines, findings)
    return findings


def lint_tree(root):
    findings = []
    scanned = 0
    for top in SCAN_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in CPP_SUFFIXES or not path.is_file():
                continue
            relpath = path.relative_to(root).as_posix()
            scanned += 1
            findings.extend(lint_text(relpath, path.read_text(errors="replace")))
    return findings, scanned


# ---------------------------------------------------------------------------
# Self-test: regression coverage proving each rule still fires on a minimal
# banned snippet and stays quiet on idiomatic code.

SELFTEST_CASES = [
    ("raw-random", "src/x.cpp", "int r = rand();\n"),
    ("raw-random", "src/x.cpp", "std::mt19937 gen;\n"),
    ("thread-detach", "src/x.cpp", "worker.detach();\n"),
    ("thread-detach", "tests/t.cpp", "std::thread(f).detach();\n"),
    ("volatile-sync", "src/x.cpp", "volatile bool done = false;\n"),
    ("raw-sleep", "src/x.cpp",
     "std::this_thread::sleep_for(std::chrono::seconds(1));\n"),
    ("raw-mutex", "src/x.cpp", "std::mutex mu_;\n"),
    ("raw-mutex", "src/x.cpp", "std::scoped_lock lock(mu_);\n"),
    ("unguarded-mutex", "src/x.hpp",
     "class C { mutable common::Mutex mu_; int x; };\n"),
    ("raw-stopwatch", "src/train/engine.cpp",
     "const common::Stopwatch watch;\n"),
    ("raw-stopwatch", "src/baselines/b.cpp", "Stopwatch w; use(w);\n"),
    ("run-scaffold", "src/baselines/horovod.cpp",
     "net::Fabric fabric(world);\n"),
    ("run-scaffold", "src/train/engine.cpp",
     "auto fabric = std::make_unique<rna::net::Fabric>(n);\n"),
    ("run-scaffold", "src/core/runner.cpp",
     "EvalMonitor monitor(config, factory, val_data);\n"),
    ("run-scaffold", "src/train/engine.hpp",
     "  train::EvalMonitor monitor_;\n"),
    ("run-scaffold", "src/baselines/adpsgd.cpp",
     'obs::ScopedTimer wall(main, obs::Category::kOther, "train_total");\n'),
    # Suppressions referencing retired rules are themselves findings that
    # point at the tools/analyze check which now owns the invariant.
    ("retired-rule", "src/core/engine.cpp",
     "go = fabric.Recv(w, kGo);  // lint:allow(untimed-recv)\n"),
    ("retired-rule", "src/nn/norm.cpp",
     "inv_std_.resize(rows);  // lint:allow(nn-raw-alloc)\n"),
]

SELFTEST_CLEAN = [
    # Banned tokens inside comments and strings are not code.
    ("src/x.cpp", '// rand() in a comment\nconst char* s = "rand()";\n'),
    # Tests may sleep.
    ("tests/t.cpp", "std::this_thread::sleep_for(1ms);\n"),
    # The annotated-mutex idiom.
    ("src/x.hpp",
     "class C {\n mutable common::Mutex mu_;\n"
     " int x_ RNA_GUARDED_BY(mu_);\n};\n"),
    # Explicit suppression.
    ("src/x.cpp", "std::mutex legacy_mu;  // lint:allow(raw-mutex)\n"),
    # The sanctioned sleep location.
    (CLOCK_HEADER, "std::this_thread::sleep_for(FromSeconds(s));\n"),
    # The Rng header may reference std engines (e.g. in docs comparisons).
    (RNG_HEADER, "// unlike std::mt19937 ...\nstd::mt19937 compat;\n"),
    # Stopwatch stays legal outside runner code: benches, tests, and the
    # obs/common layers (ScopedTimer is built on the same clock).
    ("bench/bench_x.cpp", "const common::Stopwatch watch;\n"),
    ("tests/t.cpp", "common::Stopwatch watch;\n"),
    ("src/common/include/rna/common/clock.hpp", "class Stopwatch {};\n"),
    ("src/obs/trace.cpp", "// replaces the Stopwatch pattern\n"),
    # Receive-deadline and hot-path allocation discipline moved to
    # tools/analyze; the lint no longer fires on any of these, and the
    # analyzer's own fixtures (tests/analyze_fixtures/) cover them.
    ("src/core/engine.cpp", "auto m = fabric.Recv(w, 5);\n"),
    ("src/nn/lstm.cpp", "float* z = new float[4 * h];\n"),
    # A suppression that migrated to the analyzer's comment form is not a
    # stale lint suppression.
    ("src/core/engine.cpp",
     "go = fabric.Recv(w, kGo);  // analyze:allow(timed-recv)\n"),
    # Live-rule suppressions are still honoured, not flagged as retired.
    ("src/x.cpp", "std::mutex legacy2;  // lint:allow(raw-mutex)\n"),
    ("src/data/sampler.cpp", "indices.resize(batch_size);\n"),
    # The run scaffold itself, references to its fabric, the monitor's own
    # declarations, comments, and code outside the runner directories.
    ("src/train/run.cpp",
     'fabric_ = std::make_unique<net::Fabric>(endpoints);\n'
     'clock_.emplace(track, obs::Category::kOther, "train_total");\n'),
    ("src/train/include/rna/train/run.hpp", "  EvalMonitor monitor_;\n"),
    ("src/train/group_engine.cpp",
     "net::Fabric& fabric = run.OpenFabric(world);\n"
     "PsLayer(const Run& run, net::Fabric& fabric, net::Rank rank);\n"),
    ("src/train/include/rna/train/monitor.hpp",
     "class EvalMonitor {\n EvalMonitor(const EvalMonitor&) = delete;\n"),
    ("src/train/monitor.cpp",
     "EvalMonitor::EvalMonitor(const TrainerConfig& config,\n"),
    ("src/train/x.cpp", '// spans after "train_total" ends\n'),
    ("tests/t.cpp", "net::Fabric fabric(4);\n"),
    ("src/ps/server.cpp", "net::Fabric fabric(2);\n"),
]


def self_test():
    failures = []
    for rule, path, snippet in SELFTEST_CASES:
        hits = [f for f in lint_text(path, snippet) if f[2] == rule]
        if not hits:
            failures.append(f"rule '{rule}' did not fire on {path!r}: "
                            f"{snippet.strip()!r}")
    for path, snippet in SELFTEST_CLEAN:
        hits = lint_text(path, snippet)
        if hits:
            failures.append(f"clean snippet {snippet.strip()!r} flagged: {hits}")
    if failures:
        print("lint self-test FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"lint self-test OK ({len(SELFTEST_CASES)} firing cases, "
          f"{len(SELFTEST_CLEAN)} clean cases)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root to scan")
    parser.add_argument("--self-test", action="store_true",
                        help="run the lint's own regression tests")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = args.root.resolve()
    if not root.is_dir():
        print(f"lint: error: root {root} is not a directory", file=sys.stderr)
        return 2
    for rule, owner in sorted(RETIRED_RULES.items()):
        print(f"lint: note: rule '{rule}' is retired — now enforced by "
              f"{owner}")
    findings, scanned = lint_tree(root)
    if scanned == 0:
        print(f"lint: error: no C++ sources found under {root} "
              "(wrong --root?)", file=sys.stderr)
        return 2
    for relpath, line, rule, message in findings:
        print(f"{relpath}:{line}: [{rule}] {message}")
    if findings:
        print(f"\nlint: {len(findings)} finding(s) in {scanned} files")
        return 1
    print(f"lint: OK ({scanned} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
