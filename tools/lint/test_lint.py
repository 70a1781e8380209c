#!/usr/bin/env python3
"""Self-test for the fo2dt lint toolchain (runs as the fo2dt_lint_fixtures
ctest).

1. fixtures/ is a miniature repo tree where every file violates one rule
   class; the linter's text output on it must match expected_findings.txt
   byte for byte, proving each finding class actually fires.
2. Every rule the linter advertises (--list-rules) must appear at least
   once in a golden output (shallow or deep) — a rule that cannot fire is
   dead code.
3. The real tree must scan clean under --deep: the fixtures prove the
   rules detect violations, the clean run proves the tree honors the
   invariants.
4. gen_registry.py must reject malformed registries (shadowed prefix
   order, unknown phase, non-ascending lock ranks, a section it does not
   render such as the retired `spans`), detect drift between
   the JSON and the committed header, and pass --check on the committed
   pair.
5. fixtures_deep/ exercises the three --deep rules (checkpoint-
   reachability through the call graph, arena-escape, lock-annotation)
   against expected_deep_findings.txt, including that a stale
   allow(no-checkpoint) on a loop the call graph proves safe is itself
   reported as unused.
"""

import json
import os
import subprocess
import sys
import tempfile

LINT_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(LINT_DIR))
PY = sys.executable or "python3"
LINT = os.path.join(LINT_DIR, "fo2dt_lint.py")
GEN = os.path.join(LINT_DIR, "gen_registry.py")

failures = []


def run(args):
    return subprocess.run(args, capture_output=True, text=True)


def check(cond, label, detail=""):
    print(("ok   " if cond else "FAIL ") + label)
    if not cond:
        failures.append(label)
        if detail:
            print(detail)


def main():
    # 1. Golden fixture scan.
    fixtures = os.path.join(LINT_DIR, "fixtures")
    with open(os.path.join(LINT_DIR, "expected_findings.txt"),
              encoding="utf-8") as f:
        golden = f.read()
    r = run([PY, LINT, "--root", fixtures])
    check(r.returncode == 1, "fixture scan exits 1", r.stdout + r.stderr)
    check(r.stdout == golden,
          "fixture findings match expected_findings.txt",
          "---- got ----\n" + r.stdout + "---- want ----\n" + golden)

    # 1b. Deep-fixture scan: the AST-grade rules against their golden. The
    # internal frontend is pinned so the golden is reproducible on machines
    # with and without python libclang.
    fixtures_deep = os.path.join(LINT_DIR, "fixtures_deep")
    with open(os.path.join(LINT_DIR, "expected_deep_findings.txt"),
              encoding="utf-8") as f:
        deep_golden = f.read()
    r = run([PY, LINT, "--root", fixtures_deep, "--deep",
             "--frontend=internal"])
    check(r.returncode == 1, "deep fixture scan exits 1",
          r.stdout + r.stderr)
    check(r.stdout == deep_golden,
          "deep findings match expected_deep_findings.txt",
          "---- got ----\n" + r.stdout + "---- want ----\n" + deep_golden)
    for rule in ("checkpoint-reachability", "arena-escape",
                 "lock-annotation"):
        check(f"[{rule}]" in deep_golden,
              f"deep fixtures exercise rule '{rule}'")
    check("unused suppression allow(no-checkpoint" in deep_golden,
          "a stale allow() on a call-graph-proven loop is itself a finding")

    # 1c. Forcing the libclang frontend on a machine without python libclang
    # must refuse to silently fall back: exit 125 (ctest SKIP), not a pass.
    try:
        import clang.cindex  # noqa: F401
        have_libclang = True
    except ImportError:
        have_libclang = False
    if not have_libclang:
        r = run([PY, LINT, "--root", fixtures_deep, "--deep",
                 "--frontend=libclang"])
        check(r.returncode == 125,
              "--frontend=libclang exits 125 when clang.cindex is absent",
              f"exit {r.returncode}: " + r.stdout + r.stderr)

    # 2. Every advertised rule fires somewhere in the fixtures.
    rules = run([PY, LINT, "--list-rules"]).stdout.split()
    check(len(rules) >= 8, "linter advertises its rule set")
    for rule in rules:
        check(f"[{rule}]" in golden + deep_golden,
              f"fixtures exercise rule '{rule}'")
    # Rules retire once the API makes their violation unwritable: one
    # ScopedPhase type times a phase and scopes its memory, and SolveCache
    # counts its own hits and misses.
    for rule in ("timer-memory-scope", "cache-metrics"):
        check(rule not in rules, f"retired rule '{rule}' stays retired")

    # 3. The real tree is clean under the full deep gate.
    r = run([PY, LINT, "--root", REPO, "--deep", "--frontend=auto"])
    check(r.returncode == 0, "real tree is deep-lint-clean",
          r.stdout + r.stderr)

    # 4a. Committed registry/header pair is in sync.
    r = run([PY, GEN, "--check"])
    check(r.returncode == 0, "registry_names.h matches registry.json",
          r.stdout + r.stderr)

    # 4b. The generator rejects malformed registries and detects drift.
    with open(os.path.join(LINT_DIR, "registry.json"), encoding="utf-8") as f:
        reg = json.load(f)

    def expect_check_fails(mutate, label):
        bad = json.loads(json.dumps(reg))
        mutate(bad)
        fd, path = tempfile.mkstemp(suffix=".json", text=True)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as tf:
                json.dump(bad, tf)
            r = run([PY, GEN, "--registry", path, "--check"])
            check(r.returncode != 0, label, r.stdout)
        finally:
            os.unlink(path)

    expect_check_fails(
        lambda b: b["phase_prefixes"].reverse(),
        "generator rejects a shadowed prefix ordering")
    expect_check_fails(
        lambda b: b["modules"][0].update(phase="no_such_phase"),
        "generator rejects a module with an unknown phase")
    expect_check_fails(
        lambda b: b["modules"][0].update(name="frontend.renamed"),
        "generator --check detects drift after a registry edit")
    expect_check_fails(
        lambda b: b["lock_ranks"]["ranks"][0].update(rank=999),
        "generator rejects a lock hierarchy that is not strictly ascending")
    expect_check_fails(
        lambda b: b["lock_ranks"]["ranks"][1].update(
            name=b["lock_ranks"]["ranks"][0]["name"]),
        "generator rejects duplicate lock rank names")
    expect_check_fails(
        lambda b: b["lock_ranks"]["ranks"][0].update(doc="edited"),
        "generator --check detects lock_ranks drift against the header")
    # Registry categories retire too: trace spans went with the trace ring,
    # and phases are named by ScopedPhase's Phase alone.
    check("spans" not in reg, "retired registry category 'spans' stays retired")
    # Rendered without --check, so only the rejection (not drift) can fail.
    bad = json.loads(json.dumps(reg))
    bad["spans"] = [{"name": "lcta.cut_round", "doc": "one cut round"}]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "registry.json")
        with open(path, "w", encoding="utf-8") as tf:
            json.dump(bad, tf)
        r = run([PY, GEN, "--registry", path,
                 "--output", os.path.join(tmp, "registry_names.h")])
        check(r.returncode != 0 and "unknown registry section" in r.stderr,
              "generator rejects a registry section it does not render",
              r.stdout + r.stderr)

    print(f"test_lint: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
