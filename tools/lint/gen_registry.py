#!/usr/bin/env python3
"""Generates src/common/registry_names.h from tools/lint/registry.json.

The JSON file is the single source of truth for every registered name in the
solver pipeline (governor modules, failpoints, phases, metric keys, bench
counter grammar). This script renders it as a header of
`inline constexpr` string constants plus lookup tables, deterministically,
so the header can be committed and checked for drift.

Usage:
  python3 tools/lint/gen_registry.py            # rewrite the header in place
  python3 tools/lint/gen_registry.py --check    # exit 1 if the header is stale
"""

import argparse
import difflib
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
REGISTRY_JSON = os.path.join(REPO_ROOT, "tools", "lint", "registry.json")
HEADER_PATH = os.path.join(REPO_ROOT, "src", "common", "registry_names.h")


def camel(dotted: str) -> str:
    """"solverlp.warm_start_hits" -> "SolverlpWarmStartHits"."""
    parts = []
    for piece in dotted.replace(".", "_").split("_"):
        if piece:
            parts.append(piece[0].upper() + piece[1:])
    return "".join(parts)


def const_name(category: str, dotted: str) -> str:
    prefix = {
        "module": "kMod",
        "failpoint": "kFp",
        "metric": "kMetric",
        "facade": "kFacade",
        "log_field": "kLogField",
        "capture_mode": "kCaptureMode",
        "bundle_file": "kBundleFile",
        "lock_rank": "kLock",
    }[category]
    return prefix + camel(dotted)


# Every top-level section the registry may hold. All but ordered_containers
# (read only by fo2dt_lint.py) are rendered below; an unlisted section, such
# as a retired category left behind, is an error rather than silently ignored.
SECTIONS = {
    "_comment", "modules", "failpoints", "phases", "phase_prefixes",
    "metric_keys", "facades", "log_fields", "capture_modes", "bundle_files",
    "lock_ranks", "bench_counters", "ordered_containers",
}


def load_registry(path: str = REGISTRY_JSON) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        reg = json.load(f)
    unknown = sorted(set(reg) - SECTIONS)
    if unknown:
        raise ValueError(f"unknown registry section(s): {unknown}")
    phases = reg["phases"]
    # Internal consistency: every phase referenced must be declared, and the
    # prefix table must stay longest-prefix-first so PhaseForModule's walk is
    # unambiguous ("puzzle.bounded" must precede "puzzle.").
    for m in reg["modules"]:
        if m["phase"] not in phases:
            raise ValueError(f"module {m['name']}: unknown phase {m['phase']}")
    for p in reg["phase_prefixes"]:
        if p["phase"] not in phases:
            raise ValueError(f"prefix {p['prefix']}: unknown phase {p['phase']}")
    prefixes = [p["prefix"] for p in reg["phase_prefixes"]]
    for i, earlier in enumerate(prefixes):
        for later in prefixes[i + 1:]:
            if later.startswith(earlier):
                raise ValueError(
                    f"phase_prefixes: '{earlier}' shadows the later, more"
                    f" specific '{later}' — order longest-prefix-first")
    names = ([m["name"] for m in reg["modules"]]
             + [f["name"] for f in reg.get("facades", [])])
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise ValueError(
            f"name registered under more than one category: {sorted(dupes)}")
    # Lock hierarchy: names unique, ranks positive and strictly increasing in
    # file order — the listed order IS the global acquisition order, and the
    # runtime checker (common/mutex.h) compares raw rank integers.
    ranks = reg.get("lock_ranks", {}).get("ranks", [])
    seen_rank_names = set()
    prev_rank = 0
    for entry in ranks:
        if entry["name"] in seen_rank_names:
            raise ValueError(f"lock_ranks: duplicate name {entry['name']}")
        seen_rank_names.add(entry["name"])
        if not isinstance(entry["rank"], int) or entry["rank"] <= prev_rank:
            raise ValueError(
                f"lock_ranks: rank for {entry['name']} must be an integer"
                f" strictly greater than the previous entry's ({prev_rank})")
        prev_rank = entry["rank"]
    return reg


def render(reg: dict) -> str:
    out = []
    w = out.append
    w("/// \\file registry_names.h")
    w("/// \\brief GENERATED registry of every name the pipeline registers.")
    w("///")
    w("/// Generated by tools/lint/gen_registry.py from tools/lint/registry.json")
    w("/// — DO NOT EDIT BY HAND. Edit the JSON and re-run the generator; the")
    w("/// registry_names_up_to_date ctest fails when this file drifts.")
    w("///")
    w("/// fo2dt_lint enforces that governor module strings and failpoint sites")
    w("/// in src/** reference these constants instead of inline string")
    w("/// literals, so a renamed phase or module cannot silently break")
    w("/// StopReason attribution or the bench counter contract.")
    w("")
    w("#pragma once")
    w("")
    w("#include <cstddef>")
    w("")
    w("namespace fo2dt {")
    w("namespace names {")
    w("")
    w("// ---- Governor module strings (StopReason::module, ExecCheckpoint) ----")
    for m in reg["modules"]:
        w(f"/// {m['doc']} (phase: {m['phase']})")
        w(f"inline constexpr char {const_name('module', m['name'])}[] = \"{m['name']}\";")
    w("")
    w("inline constexpr const char* kAllModules[] = {")
    for m in reg["modules"]:
        w(f"    {const_name('module', m['name'])},")
    w("};")
    w("inline constexpr std::size_t kNumModules =")
    w("    sizeof(kAllModules) / sizeof(kAllModules[0]);")
    w("")
    w("// ---- Failpoint sites (FO2DT_FAILPOINT; keep in sync with DESIGN.md) ----")
    for fp in reg["failpoints"]:
        w(f"/// arg: {fp['arg']} — {fp['doc']}")
        w(f"inline constexpr char {const_name('failpoint', fp['name'])}[] = \"{fp['name']}\";")
    w("")
    w("inline constexpr const char* kAllFailpoints[] = {")
    for fp in reg["failpoints"]:
        w(f"    {const_name('failpoint', fp['name'])},")
    w("};")
    w("inline constexpr std::size_t kNumFailpoints =")
    w("    sizeof(kAllFailpoints) / sizeof(kAllFailpoints[0]);")
    w("")
    w("// ---- Pipeline phase names, indexed by the Phase enum's value ----")
    w("inline constexpr const char* kPhaseNames[] = {")
    for p in reg["phases"]:
        w(f"    \"{p}\",")
    w("};")
    w("inline constexpr std::size_t kNumPhases =")
    w("    sizeof(kPhaseNames) / sizeof(kPhaseNames[0]);")
    w("")
    w("// ---- Module-string prefix -> phase table (longest prefix first). ----")
    w("// PhaseForModule walks this in order; the int is the Phase enum value.")
    w("struct ModulePhasePrefix {")
    w("  const char* prefix;")
    w("  int phase;")
    w("};")
    w("inline constexpr ModulePhasePrefix kPhasePrefixes[] = {")
    for p in reg["phase_prefixes"]:
        idx = reg["phases"].index(p["phase"])
        w(f"    {{\"{p['prefix']}\", {idx}}},  // {p['phase']}")
    w("};")
    w("inline constexpr std::size_t kNumPhasePrefixes =")
    w("    sizeof(kPhasePrefixes) / sizeof(kPhasePrefixes[0]);")
    w("")
    w("// ---- MetricsRegistry snapshot keys ----")
    for k in reg["metric_keys"]:
        w(f"/// {k['doc']}")
        w(f"inline constexpr char {const_name('metric', k['name'])}[] = \"{k['name']}\";")
    w("")
    w("// ---- Solver facade names (flight recorder / replay `kind` strings) ----")
    for f in reg.get("facades", []):
        w(f"/// {f['doc']}")
        w(f"inline constexpr char {const_name('facade', f['name'])}[] = \"{f['name']}\";")
    w("")
    w("inline constexpr const char* kAllFacades[] = {")
    for f in reg.get("facades", []):
        w(f"    {const_name('facade', f['name'])},")
    w("};")
    w("inline constexpr std::size_t kNumFacades =")
    w("    sizeof(kAllFacades) / sizeof(kAllFacades[0]);")
    w("")
    w("// ---- Query-log JSONL record fields (flight recorder schema) ----")
    for lf in reg.get("log_fields", []):
        w(f"/// {lf['doc']}")
        w(f"inline constexpr char {const_name('log_field', lf['name'])}[] = \"{lf['name']}\";")
    w("")
    w("inline constexpr const char* kAllLogFields[] = {")
    for lf in reg.get("log_fields", []):
        w(f"    {const_name('log_field', lf['name'])},")
    w("};")
    w("inline constexpr std::size_t kNumLogFields =")
    w("    sizeof(kAllLogFields) / sizeof(kAllLogFields[0]);")
    w("")
    w("// ---- Post-mortem capture modes (FO2DT_CAPTURE values) ----")
    for cm in reg.get("capture_modes", []):
        w(f"/// {cm['doc']}")
        w(f"inline constexpr char {const_name('capture_mode', cm['name'])}[] = \"{cm['name']}\";")
    w("")
    w("inline constexpr const char* kAllCaptureModes[] = {")
    for cm in reg.get("capture_modes", []):
        w(f"    {const_name('capture_mode', cm['name'])},")
    w("};")
    w("inline constexpr std::size_t kNumCaptureModes =")
    w("    sizeof(kAllCaptureModes) / sizeof(kAllCaptureModes[0]);")
    w("")
    w("// ---- Post-mortem bundle layout (file names inside a capture dir) ----")
    for bf in reg.get("bundle_files", []):
        w(f"/// {bf['doc']}")
        w(f"inline constexpr char {const_name('bundle_file', bf['name'])}[] = \"{bf['name']}\";")
    w("")
    w("inline constexpr const char* kAllBundleFiles[] = {")
    for bf in reg.get("bundle_files", []):
        w(f"    {const_name('bundle_file', bf['name'])},")
    w("};")
    w("inline constexpr std::size_t kNumBundleFiles =")
    w("    sizeof(kAllBundleFiles) / sizeof(kAllBundleFiles[0]);")
    w("")
    w("// ---- Lock hierarchy (acquire strictly ascending; common/mutex.h) ----")
    w("struct LockRankEntry {")
    w("  const char* name;")
    w("  int rank;")
    w("};")
    ranks = reg.get("lock_ranks", {}).get("ranks", [])
    for lr in ranks:
        w(f"/// {lr['doc']}")
        w(f"inline constexpr LockRankEntry {const_name('lock_rank', lr['name'])}"
          f"{{\"{lr['name']}\", {lr['rank']}}};")
    w("")
    w("inline constexpr LockRankEntry kAllLockRanks[] = {")
    for lr in ranks:
        w(f"    {const_name('lock_rank', lr['name'])},")
    w("};")
    w("inline constexpr std::size_t kNumLockRanks =")
    w("    sizeof(kAllLockRanks) / sizeof(kAllLockRanks[0]);")
    w("")
    w("// ---- Bench counter grammar: <prefix><phase><suffix> + extras ----")
    bc = reg["bench_counters"]
    w(f"inline constexpr char kBenchPhasePrefix[] = \"{bc['prefix']}\";")
    for i, suffix in enumerate(bc["suffixes"]):
        w(f"inline constexpr char kBenchPhaseSuffix{i}[] = \"{suffix}\";")
    extras = bc.get("extras", [])
    if extras:
        w("")
        w("// Standalone bench counters outside the phase grammar (cache hit")
        w("// rates per grid point); run_bench.sh asserts each on the committed")
        w("// BENCH_*.json files.")
        for extra in extras:
            w(f"inline constexpr char kBenchExtra{camel(extra)}[] = \"{extra}\";")
        w("inline constexpr const char* kAllBenchExtras[] = {")
        for extra in extras:
            w(f"    kBenchExtra{camel(extra)},")
        w("};")
        w("inline constexpr std::size_t kNumBenchExtras =")
        w("    sizeof(kAllBenchExtras) / sizeof(kAllBenchExtras[0]);")
    w("")
    w("}  // namespace names")
    w("}  // namespace fo2dt")
    w("")
    return "\n".join(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="verify the committed header matches; do not write")
    parser.add_argument("--registry", default=REGISTRY_JSON)
    parser.add_argument("--output", default=HEADER_PATH)
    args = parser.parse_args()

    rendered = render(load_registry(args.registry))
    if args.check:
        try:
            with open(args.output, "r", encoding="utf-8") as f:
                on_disk = f.read()
        except FileNotFoundError:
            print(f"error: {args.output} missing; run gen_registry.py", file=sys.stderr)
            return 1
        if on_disk != rendered:
            sys.stderr.write(
                f"error: {args.output} is stale w.r.t. {args.registry};"
                " run: python3 tools/lint/gen_registry.py\n")
            sys.stderr.writelines(difflib.unified_diff(
                on_disk.splitlines(keepends=True), rendered.splitlines(keepends=True),
                fromfile="committed", tofile="regenerated"))
            return 1
        print("registry_names.h is up to date")
        return 0
    with open(args.output, "w", encoding="utf-8") as f:
        f.write(rendered)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
