#!/usr/bin/env python3
"""fo2dt_lint: domain-invariant static checker for the fo2dt solver pipeline.

The decision procedure's correctness rests on invariants the C++ compiler
cannot see. This checker parses src/** (plus the bench counter contract) and
enforces them:

  no-checkpoint          unbounded loops (while / do-while / for(;;)) in hot
                         solver modules must poll the execution governor
                         (ExecCheckpoint::Tick/Fire, ExecutionContext::Check,
                         CancellationToken::IsCancelled, FirstWinsFanout::
                         Abandoned) inside the loop body, so deadlines and
                         cancellation actually fire.
  unregistered-name      governor module strings, metric keys — any
                         dotted name literal — must come from the
                         generated registry header (src/common/
                         registry_names.h); inline literals drift.
  unknown-constant       a names::k... reference that the registry does not
                         define (catches stale references after a registry
                         edit without recompiling).
  unregistered-failpoint FO2DT_FAILPOINT sites must name a failpoint
                         registered in tools/lint/registry.json, via its
                         names::kFp... constant.
  header-hygiene         headers must start include protection with
                         `#pragma once` and must not contain
                         `using namespace` (headers leak it into every
                         includer).
  bench-key-mismatch     the counter keys bench_main.h emits and the keys
                         run_bench.sh asserts on the committed BENCH_*.json
                         must both follow the registry's bench counter
                         grammar (<prefix><phase><suffix>).
  no-raw-rand            rand()/srand()/std::random_device/std::mt19937 are
                         banned; all randomness flows through the seeded,
                         thread-confined common/random.h RandomSource.
  histogram-metrics      every Histogram construction site must name a
                         registered histogram metric constant
                         (names::kMetricHist...); an ad-hoc name makes the
                         series invisible to the registry exposition and to
                         fo2dt_top.
  no-ordered-containers  std::set / std::map (and the multi variants) are
                         banned in the flat-core hot modules (registry
                         ordered_containers.hot_dirs): the solve paths run on
                         bitsets, CSR indexes, sorted vectors and arena
                         scratch, and a node-based container reintroduced
                         there silently reverts the locality win. Audited
                         exceptions live in the registry allowlist.
  bad-suppression        a fo2dt-lint suppression comment that is malformed,
                         names an unknown rule, or lacks a reason.

Deep mode (--deep) adds three AST-grade rules driven by a call-graph /
member-table frontend (libclang over compile_commands.json when available,
a built-in syntactic frontend otherwise — see tools/lint/deep_lint.py):

  checkpoint-reachability  supersedes no-checkpoint in hot modules: a loop
                           is clean if a governor poll is reachable through
                           the functions it calls, not just lexically inside
                           the body. Loops that delegate polling to a callee
                           no longer need an allow() — and a now-redundant
                           allow(no-checkpoint) is flagged as unused.
  arena-escape             a pointer derived from SolveArena (thread-local,
                           frame-rewound storage) must not be returned or
                           stored to a field; it dangles when the frame
                           unwinds and races when another thread reads it.
  lock-annotation          concurrency metadata coverage: raw std::mutex
                           members are banned (use the ranked fo2dt::Mutex),
                           and every std::atomic declaration needs an
                           adjacent `// atomic:` contract comment (or a
                           capability annotation) stating its ordering
                           protocol.

Suppressions: append `// fo2dt-lint: allow(<rule>, <reason>)` to the flagged
line or place it on the line directly above. The reason is mandatory — an
audited suppression must say *why* the invariant does not apply, e.g.
    while (!work.empty()) {  // fo2dt-lint: allow(no-checkpoint, worklist is
                             // bounded by the closed state set)

Exit status: 0 when clean, 1 when findings were reported, 2 on usage errors.

Usage:
  python3 tools/lint/fo2dt_lint.py [--root REPO] [--format text|json]
"""

import argparse
import json
import os
import re
import sys

RULES = (
    "no-checkpoint",
    "unregistered-name",
    "unknown-constant",
    "unregistered-failpoint",
    "header-hygiene",
    "bench-key-mismatch",
    "no-raw-rand",
    "histogram-metrics",
    "no-ordered-containers",
    "bad-suppression",
    # Deep (--deep) rules; implemented in tools/lint/deep_lint.py.
    "checkpoint-reachability",
    "arena-escape",
    "lock-annotation",
)

# Modules whose loops run budget-scale work (the Theorem 1 pipeline's hot
# layers), plus the solve server, whose accept/reader/worker loops must poll
# cancellation tokens or a stuck client could wedge a daemon thread.
HOT_MODULE_DIRS = (
    os.path.join("src", "solverlp"),
    os.path.join("src", "lcta"),
    os.path.join("src", "puzzle"),
    os.path.join("src", "vata"),
    os.path.join("src", "logic"),
    os.path.join("src", "server"),
)

# A lexical poll of the execution governor inside a loop body. Fire() is the
# unamortized variant used once per coarse round; IsCancelled/Abandoned are
# the raw token polls of the fan-out protocols.
CHECKPOINT_CALL_RE = re.compile(
    r"\.Tick\s*\(|\.Fire\s*\(|->Check\s*\(|\.Check\s*\(|"
    r"IsCancelled\s*\(|\.Abandoned\s*\(")

DOTTED_NAME_RE = re.compile(r"[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+\Z")
SUPPRESS_RE = re.compile(
    r"fo2dt-lint:\s*allow\(\s*([a-z-]+)\s*(?:,\s*([^)]*))?\)")
NAMES_CONST_RE = re.compile(r"\bnames::(k[A-Za-z0-9]+)\b")
RAW_RAND_RE = re.compile(
    r"\b(?:std::)?s?rand\s*\(|std::random_device|std::mt19937")
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\b")
ORDERED_CONTAINER_RE = re.compile(
    r"\bstd\s*::\s*(set|map|multiset|multimap)\b")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def sort_key(self):
        return (self.path, self.line, self.rule)

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class SourceFile:
    """A C++ source file with comments stripped but line structure kept.

    `code` has comment bodies and the *contents* of string/char literals
    blanked with spaces (the quotes remain), so structural scans can't be
    fooled by either; `strings` records every string literal with its line;
    `suppressions` maps line -> list of (rule, reason, ok) parsed from
    fo2dt-lint comments before blanking.
    """

    def __init__(self, path, text):
        self.path = path
        self.text = text
        self.lines = text.split("\n")
        self.strings = []        # (line_no, value)
        self.suppressions = {}   # line_no -> [(rule, reason_ok)]
        self.code = self._scan()

    def _record_suppression(self, comment, line_no):
        for m in SUPPRESS_RE.finditer(comment):
            rule, reason = m.group(1), (m.group(2) or "").strip()
            self.suppressions.setdefault(line_no, []).append((rule, reason))

    def _scan(self):
        out = []
        text = self.text
        i, n = 0, len(text)
        line = 1
        while i < n:
            c = text[i]
            if c == "/" and i + 1 < n and text[i + 1] == "/":
                j = text.find("\n", i)
                j = n if j == -1 else j
                self._record_suppression(text[i:j], line)
                out.append(" " * (j - i))
                i = j
            elif c == "/" and i + 1 < n and text[i + 1] == "*":
                j = text.find("*/", i + 2)
                j = n - 2 if j == -1 else j
                comment = text[i:j + 2]
                self._record_suppression(comment, line)
                for ch in comment:
                    out.append("\n" if ch == "\n" else " ")
                line += comment.count("\n")
                i = j + 2
            elif c == '"':
                j = i + 1
                buf = []
                while j < n and text[j] != '"':
                    if text[j] == "\\":
                        buf.append(text[j:j + 2])
                        j += 2
                    else:
                        buf.append(text[j])
                        j += 1
                value = "".join(buf)
                self.strings.append((line, value))
                out.append('"' + " " * (j - i - 1) + '"')
                line += text.count("\n", i, min(j + 1, n))
                i = j + 1
            elif c == "'":
                j = i + 1
                while j < n and text[j] != "'":
                    j += 2 if text[j] == "\\" else 1
                out.append("'" + " " * (j - i - 1) + "'")
                i = j + 1
            else:
                out.append(c)
                if c == "\n":
                    line += 1
                i += 1
        return "".join(out)

    def line_of_offset(self, offset):
        return self.code.count("\n", 0, offset) + 1


class Linter:
    def __init__(self, root, registry):
        self.root = root
        self.registry = registry
        self.findings = []
        self.used_suppressions = set()  # (path, line_no, rule)
        # Every registered dotted name, and the constant names the generated
        # header derives from them.
        self.registered_values = set()
        self.constants = {}  # constant name -> (category, value)
        for category, key, prefix in (
                ("module", "modules", "kMod"),
                ("failpoint", "failpoints", "kFp"),
                ("metric", "metric_keys", "kMetric"),
                ("facade", "facades", "kFacade"),
                ("log_field", "log_fields", "kLogField"),
                ("capture_mode", "capture_modes", "kCaptureMode"),
                ("bundle_file", "bundle_files", "kBundleFile")):
            for entry in registry.get(key, []):
                value = entry["name"]
                self.registered_values.add(value)
                self.constants[prefix + _camel(value)] = (category, value)
        for entry in registry.get("lock_ranks", {}).get("ranks", []):
            value = entry["name"]
            self.registered_values.add(value)
            self.constants["kLock" + _camel(value)] = ("lock_rank", value)
        self.failpoint_constants = {
            c for c, (cat, _) in self.constants.items() if cat == "failpoint"}
        oc = registry.get("ordered_containers", {})
        self.flat_core_dirs = tuple(
            d.replace("/", os.sep) for d in oc.get("hot_dirs", []))
        self.ordered_allowlist = {
            e["path"].replace("/", os.sep) for e in oc.get("allowlist", [])}

    # -- suppression protocol ------------------------------------------------

    def suppressed(self, sf, line_no, rule, aliases=()):
        accepted = (rule,) + tuple(aliases)
        for probe in (line_no, line_no - 1):
            for srule, _reason in sf.suppressions.get(probe, []):
                if srule in accepted:
                    self.used_suppressions.add((sf.path, probe, srule))
                    return True
        return False

    def report(self, sf, line_no, rule, message, aliases=()):
        """Records a finding unless suppressed. `aliases` are additional rule
        names accepted in an allow() for this finding — used by deep rules
        that supersede a shallow rule (checkpoint-reachability honors the
        existing allow(no-checkpoint, ...) comments)."""
        if not self.suppressed(sf, line_no, rule, aliases):
            self.findings.append(Finding(sf.path, line_no, rule, message))

    def check_suppression_comments(self, sf):
        for line_no, entries in sf.suppressions.items():
            for rule, reason in entries:
                if rule not in RULES:
                    self.findings.append(Finding(
                        sf.path, line_no, "bad-suppression",
                        f"suppression names unknown rule '{rule}'"))
                elif not reason:
                    self.findings.append(Finding(
                        sf.path, line_no, "bad-suppression",
                        f"allow({rule}, ...) needs a justification — state "
                        "why the invariant does not apply here"))

    # -- rule: no-checkpoint -------------------------------------------------

    def check_checkpoints(self, sf, reachability=None):
        """Shallow mode (reachability=None): the poll must be lexically inside
        the loop body. Deep mode: `reachability` is a deep_lint.Reachability
        and a loop is also clean when its body calls a function from whose
        body a governor poll is reachable; findings report as
        checkpoint-reachability (accepting allow(no-checkpoint) comments)."""
        if not sf.path.endswith(".cc"):
            return
        if not any(d + os.sep in sf.path or sf.path.startswith(d)
                   for d in HOT_MODULE_DIRS):
            return
        code = sf.code
        for m in re.finditer(r"\b(while|do|for)\b", code):
            kw = m.group(1)
            line_no = sf.line_of_offset(m.start())
            if kw == "for":
                header = _matched_parens(code, m.end())
                if header is None or re.sub(r"\s", "", header[0]) != "(;;)":
                    continue  # counted / range for: bounded by construction
                body_start = header[1]
            elif kw == "while":
                header = _matched_parens(code, m.end())
                if header is None:
                    continue
                # `} while (...)` tail of a do-loop: already handled at `do`.
                prev = code[:m.start()].rstrip()
                if prev.endswith("}"):
                    continue
                body_start = header[1]
            else:  # do
                body_start = m.end()
            body = _loop_body(code, body_start)
            if body is None:
                continue
            if CHECKPOINT_CALL_RE.search(body):
                continue
            loop_desc = {"while": "while loop", "do": "do-while loop",
                         "for": "for(;;) loop"}[kw]
            if reachability is not None:
                if reachability.body_reaches_poll(body):
                    continue
                self.report(
                    sf, line_no, "checkpoint-reachability",
                    f"unbounded {loop_desc} in hot module neither polls the "
                    "governor nor calls any function from which a poll is "
                    "reachable through the call graph; deadlines cannot "
                    "fire here",
                    aliases=("no-checkpoint",))
                continue
            self.report(
                sf, line_no, "no-checkpoint",
                f"unbounded {loop_desc} in hot module has no governor poll "
                "(ExecCheckpoint Tick/Fire, ExecutionContext::Check, or a "
                "token IsCancelled/Abandoned) in its body; deadlines cannot "
                "fire here")

    # -- rule: unregistered-name / unknown-constant --------------------------

    def check_dotted_literals(self, sf):
        if sf.path.endswith(os.path.join("common", "registry_names.h")):
            return
        for line_no, value in sf.strings:
            if not DOTTED_NAME_RE.match(value):
                continue
            if sf.lines[line_no - 1].lstrip().startswith("#include"):
                continue  # quoted include paths are not registry names
            if value in self.registered_values:
                self.report(
                    sf, line_no, "unregistered-name",
                    f'inline literal "{value}" duplicates a registered name; '
                    "use the names:: constant from common/registry_names.h")
            else:
                self.report(
                    sf, line_no, "unregistered-name",
                    f'dotted name literal "{value}" is not in tools/lint/'
                    "registry.json; register it and use its names:: constant")

    def check_constants_exist(self, sf):
        for m in NAMES_CONST_RE.finditer(sf.code):
            if m.group(1) not in self.constants and \
                    not m.group(1).startswith(("kAll", "kNum", "kPhase",
                                               "kBench")):
                line_no = sf.line_of_offset(m.start())
                self.report(
                    sf, line_no, "unknown-constant",
                    f"names::{m.group(1)} is not defined by the registry; "
                    "add it to tools/lint/registry.json and re-run "
                    "gen_registry.py")

    # -- rule: unregistered-failpoint ----------------------------------------

    def check_failpoints(self, sf):
        for m in re.finditer(r"\bFO2DT_FAILPOINT\s*\(", sf.code):
            if "#define" in sf.code[sf.code.rfind("\n", 0, m.start()) + 1:
                                    m.start()]:
                continue  # the macro's own definition in failpoint.h
            line_no = sf.line_of_offset(m.start())
            args = _matched_parens(sf.code, m.end() - 1)
            if args is None:
                continue
            first = args[0][1:-1].split(",")[0].strip()
            if first.startswith('"'):
                self.report(
                    sf, line_no, "unregistered-failpoint",
                    "FO2DT_FAILPOINT site names its failpoint with an inline "
                    "literal; use the names::kFp... constant so the site is "
                    "registered")
            else:
                cm = re.match(r"(?:names::)?(kFp[A-Za-z0-9]+)\Z", first)
                if cm is None or cm.group(1) not in self.failpoint_constants:
                    self.report(
                        sf, line_no, "unregistered-failpoint",
                        f"FO2DT_FAILPOINT site '{first}' does not reference a "
                        "registered names::kFp... failpoint constant")

    # -- rule: header-hygiene ------------------------------------------------

    def check_header_hygiene(self, sf):
        if not sf.path.endswith(".h"):
            return
        if "#pragma once" not in sf.text:
            self.report(
                sf, 1, "header-hygiene",
                "header lacks `#pragma once` (project headers use it instead "
                "of include guards)")
        for i, line in enumerate(sf.code.split("\n"), start=1):
            if USING_NAMESPACE_RE.search(line):
                self.report(
                    sf, i, "header-hygiene",
                    "`using namespace` in a header leaks the namespace into "
                    "every includer")

    # -- rule: no-raw-rand ---------------------------------------------------

    def check_raw_rand(self, sf):
        for m in RAW_RAND_RE.finditer(sf.code):
            line_no = sf.line_of_offset(m.start())
            self.report(
                sf, line_no, "no-raw-rand",
                "raw C/std randomness is banned; draw from the seeded, "
                "thread-confined RandomSource in common/random.h (use "
                "Split() for per-thread streams)")

    # -- rule: histogram-metrics ---------------------------------------------

    # A named Histogram variable/member with its initializer — paren or brace
    # form. The mandatory identifier between the type and the delimiter keeps
    # HistogramSnapshot, `Histogram&`/`Histogram*` parameters, and the class
    # definition itself out.
    HISTOGRAM_DECL_RE = re.compile(r"\bHistogram\s+\w+\s*[({]")

    def check_histogram_metrics(self, sf):
        """Every Histogram construction site must name a registered histogram
        metric constant (names::kMetricHist...), so every distribution the
        process records is scrapeable through the MetricsRegistry exposition.
        The Histogram implementation itself is exempt."""
        if sf.path.endswith(os.path.join("common", "metrics.cc")) or \
                sf.path.endswith(os.path.join("common", "metrics.h")):
            return
        for m in self.HISTOGRAM_DECL_RE.finditer(sf.code):
            line_no = sf.line_of_offset(m.start())
            args = _matched_delims(sf.code, m.end() - 1)
            if args is None:
                continue
            hist_consts = [
                c for c in NAMES_CONST_RE.findall(args)
                if self.constants.get(c, ("", ""))[0] == "metric"
                and self.constants[c][1].startswith("hist.")]
            if not hist_consts:
                self.report(
                    sf, line_no, "histogram-metrics",
                    "Histogram construction site does not name a registered "
                    "histogram metric constant (names::kMetricHist...); an "
                    "unregistered series never reaches the exposition")

    # -- rule: no-ordered-containers -----------------------------------------

    def check_ordered_containers(self, sf):
        """std::set/std::map in a flat-core hot module (registry
        ordered_containers.hot_dirs) outside the audited allowlist. Matches
        the blanked code, so mentions inside comments and strings don't
        fire."""
        if not any(sf.path.startswith(d + os.sep) or sf.path == d
                   for d in self.flat_core_dirs):
            return
        if sf.path in self.ordered_allowlist:
            return
        for m in ORDERED_CONTAINER_RE.finditer(sf.code):
            line_no = sf.line_of_offset(m.start())
            self.report(
                sf, line_no, "no-ordered-containers",
                f"std::{m.group(1)} in a flat-core hot module; solve paths "
                "here run on bitsets/CSR/sorted vectors — use those (or "
                "unordered_* for pure membership), or add this file to the "
                "registry ordered_containers allowlist with an audit reason")

    # -- rule: bench-key-mismatch --------------------------------------------

    def check_bench_contract(self, bench_main, run_bench):
        """bench_main.h must emit <prefix><phase><suffix> counters and
        run_bench.sh must assert the same prefix on the committed reports."""
        bc = self.registry["bench_counters"]
        prefix, suffixes = bc["prefix"], bc["suffixes"]
        if bench_main is not None:
            emitted = {v for _, v in bench_main.strings}
            line = next((ln for ln, v in bench_main.strings if v == prefix), 1)
            if prefix not in emitted:
                self.report(
                    bench_main, 1, "bench-key-mismatch",
                    f'bench_main.h never emits the registry counter prefix '
                    f'"{prefix}"; ReportPhaseCounters and tools/lint/'
                    "registry.json disagree")
            for suffix in suffixes:
                if suffix not in emitted:
                    self.report(
                        bench_main, line, "bench-key-mismatch",
                        f'bench_main.h never emits counter suffix "{suffix}" '
                        f"required by the registry grammar "
                        f"({prefix}<phase>{suffix})")
            if "PhaseName(" not in bench_main.code:
                self.report(
                    bench_main, line, "bench-key-mismatch",
                    "bench_main.h must interpolate the registered phase "
                    "names via PhaseName() between the counter prefix and "
                    "suffix")
        if run_bench is not None:
            # The guard in run_bench.sh greps the committed reports for the
            # counter prefix; a renamed prefix must update both sides.
            want = f'"{prefix}'
            if want not in run_bench.text:
                self.report(
                    run_bench, 1, "bench-key-mismatch",
                    f"run_bench.sh does not assert the bench counter prefix "
                    f"'{want}' on the committed BENCH_*.json files")

    # -- unused suppressions -------------------------------------------------

    def check_unused_suppressions(self, files):
        for sf in files:
            for line_no, entries in sf.suppressions.items():
                for rule, reason in entries:
                    if rule not in RULES or not reason:
                        continue  # already flagged as bad-suppression
                    if (sf.path, line_no, rule) not in self.used_suppressions:
                        self.findings.append(Finding(
                            sf.path, line_no, "bad-suppression",
                            f"unused suppression allow({rule}, ...): nothing "
                            "is flagged here — delete it so audited "
                            "suppressions stay meaningful"))


def _camel(dotted):
    return "".join(p[0].upper() + p[1:]
                   for p in dotted.replace(".", "_").split("_") if p)


def _matched_parens(code, start):
    """From code[start...] (skipping whitespace) expects '('; returns
    (paren_text_including_parens, index_after_close) or None."""
    i = start
    n = len(code)
    while i < n and code[i].isspace():
        i += 1
    if i >= n or code[i] != "(":
        return None
    depth = 0
    j = i
    while j < n:
        if code[j] == "(":
            depth += 1
        elif code[j] == ")":
            depth -= 1
            if depth == 0:
                return code[i:j + 1], j + 1
        j += 1
    return None


def _matched_delims(code, start):
    """Like _matched_parens, but accepts '(' or '{' — covers both
    initializer forms of a constructor site. Returns the delimited text
    including the delimiters, or None."""
    i = start
    n = len(code)
    while i < n and code[i].isspace():
        i += 1
    if i >= n or code[i] not in "({":
        return None
    open_ch = code[i]
    close_ch = ")" if open_ch == "(" else "}"
    depth = 0
    j = i
    while j < n:
        if code[j] == open_ch:
            depth += 1
        elif code[j] == close_ch:
            depth -= 1
            if depth == 0:
                return code[i:j + 1]
        j += 1
    return None


def _loop_body(code, start):
    """Returns the loop body text starting at `start` (after the while(...)
    header or the `do` keyword): a braced block, or a single statement up to
    the next ';'."""
    i = start
    n = len(code)
    while i < n and code[i].isspace():
        i += 1
    if i >= n:
        return None
    if code[i] == "{":
        depth = 0
        j = i
        while j < n:
            if code[j] == "{":
                depth += 1
            elif code[j] == "}":
                depth -= 1
                if depth == 0:
                    return code[i:j + 1]
            j += 1
        return None
    j = code.find(";", i)
    return None if j == -1 else code[i:j + 1]


def collect_files(root):
    exts = (".h", ".cc")
    paths = []
    for top in ("src", "bench"):
        base = os.path.join(root, top)
        for dirpath, _dirnames, filenames in os.walk(base):
            for f in sorted(filenames):
                if f.endswith(exts):
                    paths.append(os.path.relpath(
                        os.path.join(dirpath, f), root))
    return sorted(paths)


def main():
    parser = argparse.ArgumentParser(
        description="fo2dt domain-invariant static checker")
    parser.add_argument("--root", default=None,
                        help="repo root to scan (default: this script's repo)")
    parser.add_argument("--registry", default=None,
                        help="registry JSON (default: <root>/tools/lint/"
                             "registry.json)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--deep", action="store_true",
                        help="run the AST-grade rules (checkpoint-"
                             "reachability, arena-escape, lock-annotation); "
                             "checkpoint-reachability supersedes the lexical "
                             "no-checkpoint rule")
    parser.add_argument("--frontend", choices=("auto", "internal", "libclang"),
                        default="auto",
                        help="deep-mode frontend: libclang walks the real AST "
                             "via compile_commands.json; internal is the "
                             "dependency-free syntactic frontend; auto "
                             "prefers libclang and falls back (default)")
    parser.add_argument("--compile-db", default=None,
                        help="directory containing compile_commands.json for "
                             "the libclang frontend (default: "
                             "$FO2DT_COMPILE_DB, then <root>/build-lint, "
                             "then <root>/build)")
    args = parser.parse_args()

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0

    root = args.root or os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    registry_path = args.registry or os.path.join(
        root, "tools", "lint", "registry.json")
    # Fixture trees reuse the real registry unless they carry their own.
    if not os.path.exists(registry_path):
        registry_path = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "registry.json")
    with open(registry_path, "r", encoding="utf-8") as f:
        registry = json.load(f)

    linter = Linter(root, registry)
    files = []
    for rel in collect_files(root):
        with open(os.path.join(root, rel), "r", encoding="utf-8") as f:
            files.append(SourceFile(rel, f.read()))

    bench_main = next(
        (sf for sf in files
         if sf.path == os.path.join("bench", "bench_main.h")), None)
    run_bench_path = os.path.join(root, "bench", "run_bench.sh")
    run_bench = None
    if os.path.exists(run_bench_path):
        with open(run_bench_path, "r", encoding="utf-8") as f:
            run_bench = SourceFile(
                os.path.join("bench", "run_bench.sh"), f.read())

    reachability = None
    deep = None
    if args.deep:
        import deep_lint
        deep = deep_lint.DeepAnalysis(
            root, files, frontend=args.frontend, compile_db=args.compile_db,
            checkpoint_call_re=CHECKPOINT_CALL_RE)
        if deep.skipped:
            # --frontend=libclang without python libclang: the ctest maps
            # exit 125 to SKIP so the gate is honest about not running.
            print(deep.skip_reason, file=sys.stderr)
            return 125
        reachability = deep.reachability

    for sf in files:
        linter.check_suppression_comments(sf)
        linter.check_checkpoints(sf, reachability)
        linter.check_dotted_literals(sf)
        linter.check_constants_exist(sf)
        linter.check_failpoints(sf)
        linter.check_header_hygiene(sf)
        linter.check_raw_rand(sf)
        linter.check_histogram_metrics(sf)
        linter.check_ordered_containers(sf)
    linter.check_bench_contract(bench_main, run_bench)
    if deep is not None:
        deep.check_arena_escape(linter)
        deep.check_lock_annotations(linter)
    linter.check_unused_suppressions(files)

    findings = sorted(linter.findings, key=Finding.sort_key)
    if args.format == "json":
        print(json.dumps([vars(f) for f in findings], indent=2))
    else:
        for f in findings:
            print(f)
        print(f"fo2dt_lint: {len(findings)} finding(s) in {len(files)} files")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
