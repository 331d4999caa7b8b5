#!/usr/bin/env python3
"""Repo-specific concurrency and header-hygiene lints.

Checks (docs/static_analysis.md has the conventions these enforce):

  raw-sync    std::mutex / std::shared_mutex / std::lock_guard /
              std::unique_lock / std::shared_lock / std::scoped_lock /
              std::condition_variable (and their headers) are forbidden
              in src/ outside src/util/ — all locking goes through the
              annotated util::Mutex wrappers so Clang's thread-safety
              analysis and the lock-rank checker see every acquisition.

  unguarded   In any class that owns a util::Mutex / util::SharedMutex,
              data members declared *after* the mutex (the repo
              convention groups a mutex's guarded fields directly below
              it) must carry GUARDED_BY/PT_GUARDED_BY. Exempt: atomics,
              const members, the synchronization members themselves.

  guard-name  A header's include guard must be derived from its path:
              src/storage/profile_store.h -> CTXPREF_STORAGE_PROFILE_STORE_H_.

  annot-incl  A file that uses the annotation macros must include
              util/mutex.h or util/annotations.h directly (not rely on
              transitive includes).

  lock-rank   Every `LockRank::k...` mentioned anywhere must name a
              rank declared in the `util::LockRank` enum
              (src/util/mutex.h), and every declared rank except
              kUnranked must appear in the lock table in
              docs/static_analysis.md — the enum is the single source
              of truth and the doc must not drift from it.

  lock-name-doc  Every name passed to a util::Mutex / util::SharedMutex
              constructor under src/ (the string after its LockRank)
              must be listed in docs/static_analysis.md's lock table,
              and every mutex the table lists must be constructed under
              that name in src/ — a renamed or deleted lock cannot
              leave the table stale.

  metric-doc  Every "ctxpref_*" string literal under src/ (a metric
              registered with the MetricsRegistry) must have a row in a
              docs/*.md table whose first cell names it in backticks,
              and every backticked ctxpref_* name in the first cell of
              such a row must be a literal under src/ — a renamed or
              deleted metric cannot leave its row behind.

  ablation-doc  The rows of docs/scenarios.md's ablation table must
              name exactly the flags declared in the
              CTXPREF_ABLATION_FLAGS X-macro
              (src/harness/scenario_config.h): a declared flag without
              a row, or a row for a flag that is not declared (say, a
              deleted one), is a finding — same single-source-of-truth
              contract as lock-rank.

  ablation-tested  Every flag in CTXPREF_ABLATION_FLAGS must be set
              off (`ablation.<flag> = false`, outside a comment) by at
              least one test in tests/workload_runner_test.cc: an
              ablation arm that no test runs is a switch nobody turns
              on, and cannot come back unnoticed.

  scenario-key-doc  The backticked keys in docs/scenarios.md's knob
              table must equal the keys ParseScenarioConfig accepts
              (src/harness/scenario_config.cc), in both directions.

  bench-doc   Every `bench_<name>` token in README.md, EXPERIMENTS.md,
              docs/*.md, scripts/*.sh, the CI workflow and the verify
              skill must name a target declared in bench/CMakeLists.txt
              (a `bench_<prefix>*` glob must match one). Exempt:
              bench_metrics (a header), output files (`bench_x.json`),
              flags (`--bench_json`) and shell variables. It reads
              files where a C++ comment cannot sit, so it takes no
              lint:allow; CHANGES.md and ROADMAP.md (history) are not
              read.

  file-doc    Every `name.h` / `name.cc` / `name.cpp` token in README.md,
              DESIGN.md, EXPERIMENTS.md, docs/*.md and perfbench/README.md
              must name a file tracked in the repo: a bare or partial path
              resolves when some tracked path ends with it, a `./` or
              `../` path relative to the document. Exempt: placeholder
              forms (`*_test.cc`, `tests/<module>_test.cc`). Like
              bench-doc it takes no lint:allow.

  test-doc    Every backticked gtest name (`Suite.Test`, the suite name
              ending in Test, optionally `Prefix/`- or `/param`-
              decorated) in README.md, DESIGN.md, EXPERIMENTS.md and
              docs/*.md must be declared by a TEST / TEST_F / TEST_P
              under tests/: a renamed or deleted test cannot stay cited.
              It takes no lint:allow.

  perfbench-spans  Every span name perfbench/serve_bench.cc compares
              against (`name == "..."`), apart from its own `bench.*`
              and `shadow.*` spans, must appear as a string literal in
              the arguments of a `TraceSpan` constructed under src/ — a
              renamed or deleted span would otherwise silently empty
              perfbench's per-layer metrics. It only reads perfbench.

  pointer-tree  Under src/storage/ and src/harness/, `ProfileTree::Build`,
              `TreeResolver` and a tree-built
              `FlatProfileTree::Build(*...)` are findings: publishing
              builds the flat arena straight from the Profile and
              serving reads only that, so the pointer tree stays a
              baseline and an oracle. The one exception is
              ProfileSnapshot::tree(), the oracle built on demand, whose
              line carries lint:allow(pointer-tree).

Suppress a single C++ line with  // lint:allow(<check>)  and a short
reason.
Exit status: 0 clean, 1 findings, 2 usage error.
"""

import argparse
import glob
import os
import re
import subprocess
import sys

RAW_SYNC_TOKENS = re.compile(
    r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"lock_guard|unique_lock|shared_lock|scoped_lock|"
    r"condition_variable(?:_any)?)\b")
RAW_SYNC_INCLUDES = re.compile(
    r'#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>')

ANNOTATION_MACROS = re.compile(
    r"\b(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|REQUIRES_SHARED|ACQUIRE|"
    r"ACQUIRE_SHARED|RELEASE|RELEASE_SHARED|EXCLUDES|CAPABILITY|"
    r"SCOPED_CAPABILITY|TRY_ACQUIRE|ASSERT_CAPABILITY|"
    r"NO_THREAD_SAFETY_ANALYSIS)\b")
ANNOTATION_INCLUDES = re.compile(
    r'#\s*include\s*"util/(?:mutex|annotations)\.h"')

MUTEX_MEMBER = re.compile(
    r"^\s*(?:mutable\s+)?util::(?:Mutex|SharedMutex)\s+(\w+)\s*[{;(=]")
# A plain non-static data-member declaration: optional qualifiers, a
# type, one identifier, then an optional annotation/initializer and `;`.
DATA_MEMBER = re.compile(
    r"^\s*(?:mutable\s+)?(?P<type>[\w:]+(?:<[^;]*>)?(?:\s*[*&])?)\s+"
    r"(?P<name>\w+)\s*(?P<rest>(?:GUARDED_BY|PT_GUARDED_BY)\([^)]*\))?"
    r"\s*(?:=[^;]*|\{[^;]*\})?;")
MEMBER_EXEMPT_TYPES = re.compile(
    r"^(?:util::(?:Mutex|SharedMutex|CondVar)|std::atomic\b|"
    r"std::condition_variable)")

ALLOW = re.compile(r"//\s*lint:allow\((?P<check>[\w-]+)\)")

POINTER_TREE_DIRS = ("src/storage/", "src/harness/")
POINTER_TREE_USE = re.compile(
    r"\bProfileTree::Build\b|\bTreeResolver\b|"
    r"\bFlatProfileTree::Build\(\s*\*")

LOCK_RANK_ENUM = "src/util/mutex.h"
LOCK_RANK_DOC = "docs/static_analysis.md"
LOCK_RANK_USE = re.compile(r"\bLockRank::(k\w+)")
# A ranked mutex's constructor arguments: `{util::LockRank::kX, "Name"}`
# (or the parenthesized form), possibly split across lines.
MUTEX_NAME_ARG = re.compile(r"\bLockRank::k\w+\s*,\s*\"([^\"]+)\"")

METRIC_LITERAL = re.compile(r'"(ctxpref_\w+)"')
METRIC_DOC_FILES = "docs/*.md"
METRIC_DOC_NAME = re.compile(r"`(ctxpref_\w+)")

ABLATION_HEADER = "src/harness/scenario_config.h"
ABLATION_DOC = "docs/scenarios.md"
ABLATION_TESTS = "tests/workload_runner_test.cc"
ABLATION_OFF = re.compile(r"\bablation\.(\w+)\s*=\s*false\b")
SCENARIO_PARSER = "src/harness/scenario_config.cc"

BENCH_CMAKE = "bench/CMakeLists.txt"
BENCH_DOC_FILES = ["README.md", "EXPERIMENTS.md", "docs/*.md", "scripts/*.sh",
                   ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"]
# A bench_ token with an optional glob star or file extension. Not
# matched: flags (--bench_json), hidden paths (.bench_build/), shell
# variables (${bench_x}, bench_x=...).
BENCH_TOKEN = re.compile(r"(?<![\w.{$-])(bench_\w+)\b(?!=)(\*|\.\w+)?")
BENCH_TOKEN_EXEMPT = {"bench_metrics"}

FILE_DOC_FILES = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md",
                  "perfbench/README.md"]
# A source file name, optionally with a path; `*` and `<...>` mark a
# placeholder rather than a file.
FILE_TOKEN = re.compile(
    r"(?<![\w./*<>-])([\w./*<>-]*\w\.(?:h|cc|cpp))\b(?![\w-])")

TEST_DOC_FILES = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md"]
TEST_DOC_NAME = re.compile(r"`(?:\w+/)?(\w+Test)\.(\w+)(?:/\w+)?`")
TEST_DECL = re.compile(r"\bTEST(?:_F|_P)?\(\s*(\w+)\s*,\s*(\w+)\s*\)")

PERFBENCH_SOURCE = "perfbench/serve_bench.cc"
# A span name perfbench's trace fold compares against.
PERFBENCH_SPAN_USE = re.compile(r'\bname\s*==\s*"([^"]+)"')
PERFBENCH_OWN_SPANS = ("bench.", "shadow.")
# A TraceSpan variable's constructor arguments (possibly split across
# lines, possibly a conditional between two names).
TRACE_SPAN_CTOR = re.compile(r"\bTraceSpan\s+\w+\s*\(([^;]*)\)\s*;")
STRING_LITERAL = re.compile(r'"([^"\\]*)"')


def declared_ablation_flags():
    """Flag names from the CTXPREF_ABLATION_FLAGS X-macro, or None."""
    try:
        with open(ABLATION_HEADER, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError:
        return None
    body, in_macro = [], False
    for line in lines:
        if re.match(r"#\s*define\s+CTXPREF_ABLATION_FLAGS\(X\)", line):
            in_macro = True
        if in_macro:
            body.append(line)
            if not line.rstrip().endswith("\\"):
                break
    if not body:
        return None
    return set(re.findall(r"\bX\((\w+)\)", "\n".join(body)))


def declared_lock_ranks():
    """Names declared in the util::LockRank enum, or None if unreadable."""
    try:
        with open(LOCK_RANK_ENUM, encoding="utf-8") as f:
            text = f.read()
    except OSError:
        return None
    m = re.search(r"enum class LockRank[^{]*\{(?P<body>.*?)\}", text,
                  re.DOTALL)
    if not m:
        return None
    return set(re.findall(r"^\s*(k\w+)\s*=", m.group("body"), re.MULTILINE))


def allowed(line, check):
    m = ALLOW.search(line)
    return m is not None and m.group("check") == check


def strip_comments(line):
    return line.split("//", 1)[0]


class Findings:
    def __init__(self):
        self.items = []

    def add(self, path, lineno, check, message):
        self.items.append((path, lineno, check, message))


def check_raw_sync(path, lines, findings):
    if path.startswith("src/util/"):
        return
    for i, line in enumerate(lines, 1):
        code = strip_comments(line)
        if allowed(line, "raw-sync"):
            continue
        if RAW_SYNC_TOKENS.search(code) or RAW_SYNC_INCLUDES.search(code):
            findings.add(path, i, "raw-sync",
                         "raw std synchronization primitive; use the "
                         "annotated util::Mutex wrappers (util/mutex.h)")


def check_pointer_tree(path, lines, findings):
    if not path.startswith(POINTER_TREE_DIRS):
        return
    for i, line in enumerate(lines, 1):
        if allowed(line, "pointer-tree"):
            continue
        if POINTER_TREE_USE.search(strip_comments(line)):
            findings.add(path, i, "pointer-tree",
                         "the serving and write paths use only the flat "
                         "arena (FlatProfileTree::Build(profile)); the "
                         "pointer tree is built on demand by "
                         "ProfileSnapshot::tree()")


def check_unguarded(path, lines, findings):
    """Flags unannotated data members declared below a mutex member.

    Tracks brace depth from each class/struct head; a mutex member arms
    the check for the rest of that class body at the same depth.
    """
    depth = 0
    # Stack of class-body depths; each entry is [depth, mutex_seen].
    classes = []
    class_head = re.compile(r"\b(?:class|struct)\s+\w+[^;]*$")
    for i, line in enumerate(lines, 1):
        code = strip_comments(line)
        opens, closes = code.count("{"), code.count("}")
        if class_head.search(code) and opens:
            classes.append([depth + 1, False])
        # Classify the line by the depth it *starts* at, so a member
        # whose brace-initializer spans lines (e.g. a ranked mutex)
        # still counts as a class-body declaration.
        depth_at_start = depth
        depth += opens - closes
        while classes and depth < classes[-1][0]:
            classes.pop()
        if not classes or depth_at_start != classes[-1][0]:
            continue  # Not directly inside a class body (or in a method).
        if MUTEX_MEMBER.match(code):
            classes[-1][1] = True
            continue
        if not classes[-1][1]:
            continue  # No mutex declared above this point.
        m = DATA_MEMBER.match(code)
        if not m or m.group("rest"):
            continue
        if "static" in code or "constexpr" in code or "const " in code:
            continue
        if MEMBER_EXEMPT_TYPES.match(m.group("type")):
            continue
        if "(" in m.group("type"):  # Function pointers / declarations.
            continue
        if allowed(line, "unguarded"):
            continue
        findings.add(path, i, "unguarded",
                     f"member '{m.group('name')}' is declared below a "
                     "util::Mutex but carries no GUARDED_BY/PT_GUARDED_BY "
                     "(move it above the mutex if it is genuinely "
                     "unguarded, or annotate it)")


def check_guard_name(path, lines, findings):
    if not path.endswith(".h"):
        return
    expected = ("CTXPREF_"
                + re.sub(r"[/.]", "_", path.removeprefix("src/")).upper()
                + "_")
    for i, line in enumerate(lines, 1):
        m = re.match(r"#\s*ifndef\s+(\w+)", line)
        if m:
            if m.group(1) != expected and not allowed(line, "guard-name"):
                findings.add(path, i, "guard-name",
                             f"include guard '{m.group(1)}' should be "
                             f"'{expected}'")
            return
    findings.add(path, 1, "guard-name", "missing include guard")


def check_annotation_include(path, lines, findings):
    if path.startswith("src/util/"):
        return
    uses = any(ANNOTATION_MACROS.search(strip_comments(l)) for l in lines)
    if not uses:
        return
    if not any(ANNOTATION_INCLUDES.search(l) for l in lines):
        findings.add(path, 1, "annot-incl",
                     "uses thread-safety annotation macros without "
                     'including "util/mutex.h" or "util/annotations.h"')


def check_lock_rank_uses(path, lines, ranks, findings):
    if ranks is None or path.endswith(os.path.normpath(LOCK_RANK_ENUM)):
        return
    for i, line in enumerate(lines, 1):
        code = strip_comments(line)
        if allowed(line, "lock-rank"):
            continue
        for name in LOCK_RANK_USE.findall(code):
            if name not in ranks:
                findings.add(path, i, "lock-rank",
                             f"LockRank::{name} is not declared in the "
                             f"util::LockRank enum ({LOCK_RANK_ENUM})")


def check_lock_rank_doc(ranks, findings):
    """The docs/static_analysis.md lock table must list every rank."""
    if ranks is None:
        return
    try:
        with open(LOCK_RANK_DOC, encoding="utf-8") as f:
            doc = f.read()
    except OSError:
        findings.add(LOCK_RANK_DOC, 1, "lock-rank",
                     "cannot read the lock-hierarchy doc")
        return
    for name in sorted(ranks - {"kUnranked"}):
        if not re.search(rf"`{name}`", doc):
            findings.add(LOCK_RANK_DOC, 1, "lock-rank",
                         f"rank {name} (declared in {LOCK_RANK_ENUM}) is "
                         "missing from the lock-hierarchy table")


def constructed_mutex_names():
    """{name: (path, line)} of each ranked mutex constructed in src/."""
    names = {}
    for dirpath, _, files in os.walk("src"):
        for fname in sorted(files):
            if not fname.endswith((".h", ".cc")):
                continue
            path = os.path.join(dirpath, fname)
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
            for m in MUTEX_NAME_ARG.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                names.setdefault(m.group(1), (path, line))
    return names


def documented_mutex_names():
    """(line, name) of each mutex in the lock table's third column: the
    backticked names before the cell's parenthesized remark."""
    with open(LOCK_RANK_DOC, encoding="utf-8") as f:
        lines = f.read().splitlines()
    rows = []
    for i, line in enumerate(lines, 1):
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not re.fullmatch(r"`k\w+`", cells[0]):
            continue
        for name in re.findall(r"`([^`]+)`", cells[2].split("(", 1)[0]):
            rows.append((i, name))
    return rows


def check_lock_name_doc(findings):
    """The lock table and the src/ mutex constructors name the same
    mutexes, in both directions."""
    try:
        rows = documented_mutex_names()
    except OSError:
        findings.add(LOCK_RANK_DOC, 1, "lock-name-doc",
                     "cannot read the lock-hierarchy doc")
        return
    constructed = constructed_mutex_names()
    documented = {name for _, name in rows}
    for name, (path, line) in sorted(constructed.items()):
        if name not in documented:
            findings.add(path, line, "lock-name-doc",
                         f"mutex '{name}' is missing from the lock table "
                         f"in {LOCK_RANK_DOC}")
    for line, name in rows:
        if name not in constructed:
            findings.add(LOCK_RANK_DOC, line, "lock-name-doc",
                         f"lock table lists mutex '{name}', which no "
                         "util::Mutex / util::SharedMutex in src/ is "
                         "constructed as")


def registered_metric_names():
    """{name: (path, line)} of each "ctxpref_*" literal under src/."""
    names = {}
    for dirpath, _, files in os.walk("src"):
        for fname in sorted(files):
            if not fname.endswith((".h", ".cc")):
                continue
            path = os.path.join(dirpath, fname)
            with open(path, encoding="utf-8", errors="replace") as f:
                for i, line in enumerate(f, 1):
                    for name in METRIC_LITERAL.findall(line):
                        names.setdefault(name, (path, i))
    return names


def documented_metric_rows():
    """(path, line, name) of each backticked ctxpref_* name in the first
    cell of a table row in docs/*.md."""
    rows = []
    for path in sorted(glob.glob(METRIC_DOC_FILES)):
        with open(path, encoding="utf-8", errors="replace") as f:
            for i, line in enumerate(f, 1):
                if not line.startswith("|"):
                    continue
                first_cell = line.strip().strip("|").split("|", 1)[0]
                for name in METRIC_DOC_NAME.findall(first_cell):
                    rows.append((path, i, name))
    return rows


def check_metric_doc(findings):
    """The docs' metric tables and the src/ metric literals name the same
    metrics, in both directions."""
    registered = registered_metric_names()
    rows = documented_metric_rows()
    documented = {name for _, _, name in rows}
    for name, (path, line) in sorted(registered.items()):
        if name not in documented:
            findings.add(path, line, "metric-doc",
                         f"metric '{name}' has no row in a "
                         f"{METRIC_DOC_FILES} metric table")
    for path, line, name in rows:
        if name not in registered:
            findings.add(path, line, "metric-doc",
                         f"metric table lists '{name}', which no "
                         "\"ctxpref_*\" literal under src/ registers")


def doc_table_keys(doc_lines, heading):
    """(line number, name) of each row of the first table under the
    markdown `heading` whose first cell is one backticked name."""
    rows, in_section, in_table = [], False, False
    for i, line in enumerate(doc_lines, 1):
        if line.startswith("#"):
            if in_section:
                break
            in_section = line.strip() == heading
            continue
        if not in_section:
            continue
        if line.startswith("|"):
            in_table = True
            m = re.match(r"\|\s*`([\w.]+)`\s*\|", line)
            if m:
                rows.append((i, m.group(1)))
        elif in_table:
            break
    return rows


def accepted_scenario_keys():
    """Keys ParseScenarioConfig accepts (outside `ablation.*`), or None."""
    try:
        with open(SCENARIO_PARSER, encoding="utf-8") as f:
            text = f.read()
    except OSError:
        return None
    m = re.search(r"ParseScenarioConfig\(std::string_view text\) \{"
                  r"(?P<body>.*?)\n\}", text, re.DOTALL)
    if not m:
        return None
    body = m.group("body")
    keys = set(re.findall(r'\{"(\w+)", &cfg\.', body))
    keys |= set(re.findall(r'\bkey == "(\w+)"', body))
    return keys or None


def read_doc_lines(path, check, findings):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().splitlines()
    except OSError:
        findings.add(path, 1, check, "cannot read the scenario-harness doc")
        return None


def check_table_matches(findings, check, rows, declared, what, source):
    """Two-way: every declared name has a row, every row is declared."""
    documented = {name for _, name in rows}
    for name in sorted(declared - documented):
        findings.add(ABLATION_DOC, 1, check,
                     f"{what} '{name}' (declared in {source}) has no row "
                     "in the table")
    for lineno, name in rows:
        if name not in declared:
            findings.add(ABLATION_DOC, lineno, check,
                         f"{what} '{name}' has a row but is not declared "
                         f"in {source}")


def check_ablation_doc(findings):
    """docs/scenarios.md's ablation table lists exactly the declared flags."""
    flags = declared_ablation_flags()
    if flags is None:
        print(f"lint.py: warning: cannot parse {ABLATION_HEADER}; "
              "ablation-doc check skipped", file=sys.stderr)
        return
    doc_lines = read_doc_lines(ABLATION_DOC, "ablation-doc", findings)
    if doc_lines is None:
        return
    rows = doc_table_keys(doc_lines, "## Ablation flags")
    check_table_matches(findings, "ablation-doc", rows, flags,
                        "ablation flag", ABLATION_HEADER)


def check_ablation_tested(findings):
    """Every declared ablation flag is set off by a workload-runner test."""
    flags = declared_ablation_flags()
    if flags is None:
        return  # check_ablation_doc already warned.
    try:
        with open(ABLATION_TESTS, encoding="utf-8") as f:
            tested = set(ABLATION_OFF.findall(
                "\n".join(strip_comments(l) for l in f.read().splitlines())))
    except OSError:
        findings.add(ABLATION_TESTS, 1, "ablation-tested",
                     "cannot read the workload-runner tests")
        return
    with open(ABLATION_HEADER, encoding="utf-8") as f:
        header = f.read().splitlines()
    for flag in sorted(flags - tested):
        lineno = next((i for i, line in enumerate(header, 1)
                       if f"X({flag})" in line), 1)
        findings.add(ABLATION_HEADER, lineno, "ablation-tested",
                     f"ablation flag '{flag}' is set off "
                     f"(`ablation.{flag} = false`) by no test in "
                     f"{ABLATION_TESTS}")


def check_scenario_key_doc(findings):
    """docs/scenarios.md's knob table lists exactly the accepted keys."""
    keys = accepted_scenario_keys()
    if keys is None:
        print(f"lint.py: warning: cannot parse {SCENARIO_PARSER}; "
              "scenario-key-doc check skipped", file=sys.stderr)
        return
    doc_lines = read_doc_lines(ABLATION_DOC, "scenario-key-doc", findings)
    if doc_lines is None:
        return
    rows = doc_table_keys(doc_lines, "## Knob table")
    check_table_matches(findings, "scenario-key-doc", rows, keys,
                        "scenario key", SCENARIO_PARSER)


def declared_bench_targets():
    """Executable names declared in bench/CMakeLists.txt, or None."""
    try:
        with open(BENCH_CMAKE, encoding="utf-8") as f:
            text = f.read()
    except OSError:
        return None
    targets = set(re.findall(r"add_executable\((\w+)", text))
    for names in re.findall(r"foreach\(\w+\s+([^)]*)\)", text):
        targets.update(names.split())
    return targets


def check_bench_doc(findings):
    """Docs, scripts and CI must name only bench targets that exist."""
    targets = declared_bench_targets()
    if targets is None:
        print(f"lint.py: warning: cannot read {BENCH_CMAKE}; "
              "bench-doc check skipped", file=sys.stderr)
        return
    paths = sorted({p for pattern in BENCH_DOC_FILES
                    for p in glob.glob(pattern)})
    for path in paths:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines, 1):
            for m in BENCH_TOKEN.finditer(line):
                name, suffix = m.group(1), m.group(2) or ""
                if name in BENCH_TOKEN_EXEMPT:
                    continue
                if suffix == "*":
                    if not any(t.startswith(name) for t in targets):
                        findings.add(path, i, "bench-doc",
                                     f"{name}* matches no target in "
                                     f"{BENCH_CMAKE}")
                    continue
                if suffix and suffix != ".cc":
                    continue  # An output file such as bench_smoke.json.
                if name not in targets:
                    findings.add(path, i, "bench-doc",
                                 f"{name} is not a target in {BENCH_CMAKE}")


def tracked_files():
    """Paths git tracks in the working tree, or None without git."""
    try:
        out = subprocess.run(["git", "ls-files"], capture_output=True,
                             text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return set(out.splitlines())


def check_file_doc(findings):
    """Docs must name only source files that exist in the repo."""
    files = tracked_files()
    if files is None:
        print("lint.py: warning: cannot list tracked files; "
              "file-doc check skipped", file=sys.stderr)
        return
    paths = sorted({p for pattern in FILE_DOC_FILES
                    for p in glob.glob(pattern)})
    for path in paths:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines, 1):
            for name in FILE_TOKEN.findall(line):
                if re.search(r"[*<>]", name):
                    continue
                if name.startswith(("./", "../")):
                    found = os.path.normpath(os.path.join(
                        os.path.dirname(path), name)) in files
                else:
                    found = any(f == name or f.endswith("/" + name)
                                for f in files)
                if not found:
                    findings.add(path, i, "file-doc",
                                 f"{name} names no tracked file")


def check_test_doc(findings):
    """Docs must name only gtest cases that tests/ declares."""
    declared = set()
    for dirpath, _, names in os.walk("tests"):
        for name in names:
            if name.endswith((".h", ".cc")):
                with open(os.path.join(dirpath, name), encoding="utf-8",
                          errors="replace") as f:
                    declared.update(TEST_DECL.findall(f.read()))
    paths = sorted({p for pattern in TEST_DOC_FILES
                    for p in glob.glob(pattern)})
    for path in paths:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines, 1):
            for suite, test in TEST_DOC_NAME.findall(line):
                if (suite, test) not in declared:
                    findings.add(path, i, "test-doc",
                                 f"{suite}.{test} names no test in tests/")


def check_perfbench_spans(findings):
    """The src/ spans perfbench reads must still be opened under src/."""
    try:
        with open(PERFBENCH_SOURCE, encoding="utf-8") as f:
            bench_lines = f.read().splitlines()
    except OSError:
        print(f"lint.py: warning: cannot read {PERFBENCH_SOURCE}; "
              "perfbench-spans check skipped", file=sys.stderr)
        return
    opened = set()
    for dirpath, _, names in os.walk("src"):
        for name in names:
            if not name.endswith((".h", ".cc")):
                continue
            with open(os.path.join(dirpath, name), encoding="utf-8",
                      errors="replace") as f:
                text = f.read()
            for m in TRACE_SPAN_CTOR.finditer(text):
                opened.update(STRING_LITERAL.findall(m.group(1)))
    for i, line in enumerate(bench_lines, 1):
        for span in PERFBENCH_SPAN_USE.findall(line):
            if span.startswith(PERFBENCH_OWN_SPANS) or span in opened:
                continue
            findings.add(PERFBENCH_SOURCE, i, "perfbench-spans",
                         f'span "{span}" is opened by no TraceSpan under '
                         "src/")


def lint_file(path, ranks, findings):
    with open(path, encoding="utf-8", errors="replace") as f:
        lines = f.read().splitlines()
    check_raw_sync(path, lines, findings)
    check_pointer_tree(path, lines, findings)
    check_unguarded(path, lines, findings)
    check_guard_name(path, lines, findings)
    check_annotation_include(path, lines, findings)
    check_lock_rank_uses(path, lines, ranks, findings)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="*", default=[],
                        help="files or directories (default: src/)")
    args = parser.parse_args()

    roots = args.paths or ["src"]
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
        elif os.path.isdir(root):
            for dirpath, _, names in os.walk(root):
                for name in sorted(names):
                    if name.endswith((".h", ".cc")):
                        files.append(os.path.join(dirpath, name))
        else:
            print(f"lint.py: no such path: {root}", file=sys.stderr)
            return 2

    findings = Findings()
    ranks = declared_lock_ranks()
    if ranks is None:
        print(f"lint.py: warning: cannot parse {LOCK_RANK_ENUM}; "
              "lock-rank checks skipped", file=sys.stderr)
    for path in files:
        lint_file(os.path.normpath(path), ranks, findings)
    check_lock_rank_doc(ranks, findings)
    check_lock_name_doc(findings)
    check_metric_doc(findings)
    check_ablation_doc(findings)
    check_ablation_tested(findings)
    check_scenario_key_doc(findings)
    check_bench_doc(findings)
    check_file_doc(findings)
    check_test_doc(findings)
    check_perfbench_spans(findings)

    for path, lineno, check, message in findings.items:
        print(f"{path}:{lineno}: [{check}] {message}")
    if findings.items:
        print(f"lint.py: {len(findings.items)} finding(s) in "
              f"{len(files)} files", file=sys.stderr)
        return 1
    print(f"lint.py: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
