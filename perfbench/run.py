#!/usr/bin/env python3
"""End-to-end benchmark of the fo2dtd solve daemon.

Usage, from the root of the repository:

  python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 20 --trace 0

Builds fo2dtd and the benchmark's own executable (fo2dt_perf) from the
sources next to it, spawns fo2dtd with its default options (solve cache on,
query log to a temporary file), drives one seeded workload into it from a
single client process and checks every answer against the outcome the
generator derived from how it built the instance.

--trace 0 prints the end-to-end metrics. --trace 1 runs the workload the
same way, then replays its first request lines in-process (fo2dt_perf
replay) for the per-layer metrics and writes the replay's spans to
.bench_run/spans-<workload>-<seed>.jsonl. Either way the last line of
standard output is one JSON object {"correct", "attempted", "failed",
"metrics"}; the table before it names every metric with its unit and
sample count. perfbench/README.md explains the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def percentile(values, pct):
    """Nearest-rank percentile; None for an empty list."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, min(len(ordered), -(-len(ordered) * pct // 100)))
    return ordered[int(rank) - 1]


# ---------------------------------------------------------------------------
# Build

def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no fo2dt sources next to perfbench/ (expected %s)"
                         % os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "fo2dtd", "fo2dt_perf"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    build_type = ""
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    return (os.path.join(build_dir, "fo2dtd", "fo2dtd"),
            os.path.join(build_dir, "fo2dt_perf"), build_type)


# ---------------------------------------------------------------------------
# Daemon

def read_proc(pid, name):
    with open("/proc/%d/%s" % (pid, name)) as f:
        return f.read()


def daemon_cpu_ms(pid):
    fields = read_proc(pid, "stat").rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # utime + stime
    return ticks * 1000.0 / os.sysconf("SC_CLK_TCK")


def daemon_hwm_mb(pid):
    for line in read_proc(pid, "status").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


class Daemon:
    """A spawned fo2dtd; `setup_s` is spawn until the first ping answers."""

    def __init__(self, binary, sock, env):
        self.sock = sock
        start = time.perf_counter()
        self.proc = subprocess.Popen([binary, "--socket", sock], env=env,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL, cwd=ROOT)
        while True:
            if self.proc.poll() is not None:
                raise BenchError("fo2dtd exited during start-up (%d)"
                                 % self.proc.returncode)
            try:
                reply = self.op({"op": "ping"})
                break
            except OSError:
                if time.perf_counter() > start + 30:
                    self.stop()
                    raise BenchError("fo2dtd did not answer ping")
                time.sleep(0)
        self.setup_s = time.perf_counter() - start
        if reply.get("detail") != "pong":
            raise BenchError("unexpected ping reply %r" % reply)

    def op(self, request):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(30)
            s.connect(self.sock)
            s.sendall((json.dumps(request) + "\n").encode())
            data = b""
            while not data.endswith(b"\n"):
                chunk = s.recv(1 << 16)
                if not chunk:
                    raise OSError("connection closed")
                data += chunk
        return json.loads(data)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


# ---------------------------------------------------------------------------
# One drive step

def classify(record, expect):
    """'ok', 'failed' (no answer, OVERLOADED/ERROR, stopped by a budget) or
    'mismatch' (a verdict other than the known answer)."""
    if record["recv_ns"] < 0:
        return "failed"
    resp = record["response"]
    if resp.get("status") != "OK" or resp.get("stop_kind"):
        return "failed"
    verdict = resp.get("verdict", "")
    if verdict.startswith("ERROR"):
        return "failed"
    return "ok" if verdict == expect[record["index"]][0] else "mismatch"


def drive(ctx, lines, seconds, rate, seed, name):
    """Runs fo2dt_perf drive over `lines` and analyses what it recorded."""
    requests = os.path.join(ctx["run_dir"], name + ".tsv")
    out = os.path.join(ctx["run_dir"], name + ".out")
    with open(requests, "w") as f:
        f.writelines(lines)
    cmd = [ctx["perf"], "drive", "--socket", ctx["sock"], "--requests",
           os.path.relpath(requests, ROOT), "--out", out,
           "--conns", str(ctx["wl"]["conns"]), "--seconds", str(seconds)]
    if rate is not None:
        cmd += ["--open", "--rate", str(rate), "--seed", str(seed)]
    cpu0 = daemon_cpu_ms(ctx["pid"])
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=seconds + 60)
    cpu_ms = daemon_cpu_ms(ctx["pid"]) - cpu0
    if proc.returncode != 0:
        raise BenchError("fo2dt_perf drive failed (%d)" % proc.returncode)
    records = []
    with open(out) as f:
        for line in f:
            idx, conn, due, send, recv, resp = line.rstrip("\n").split(" ", 5)
            records.append({"index": int(idx), "conn": int(conn),
                            "due_ns": int(due), "send_ns": int(send),
                            "recv_ns": int(recv),
                            "response": {} if resp == "-" else json.loads(resp)})
    return analyse(records, ctx["expect"], rate is not None,
                   seconds if rate is not None else None, cpu_ms)


def analyse(records, expect, open_loop, duration_s, cpu_ms):
    """Latency, failures, generator lag and backlog trend of one step."""
    outcome = [classify(r, expect) for r in records]
    for r in records:
        # Open loop: from the scheduled send. Closed loop: from the write.
        start = r["due_ns"] if open_loop else r["send_ns"]
        r["latency_ms"] = (r["recv_ns"] - start) / 1e6
    answered = [r for r in records if r["recv_ns"] >= 0]
    if duration_s is None:
        duration_s = max([r["recv_ns"] for r in answered] or [1]) / 1e9
    # Backlog: requests sent and not yet answered, sampled over the step.
    events = sorted([(r["send_ns"], 1) for r in records] +
                    [(r["recv_ns"], -1) for r in answered])
    samples, level, k = [], 0, 0
    for i in range(200):
        t = duration_s * 1e9 * (i + 0.5) / 200
        while k < len(events) and events[k][0] <= t:
            level += events[k][1]
            k += 1
        samples.append(level)
    first, last = statistics.mean(samples[:50]), statistics.mean(samples[-50:])
    ok = [r for r, o in zip(records, outcome) if o != "failed"]
    return {
        "records": records,
        "ok_records": ok,
        "mismatches": [(r["index"], expect[r["index"]], r["response"])
                       for r, o in zip(records, outcome) if o == "mismatch"],
        "sent": len(records),
        "failed": outcome.count("failed"),
        "ok": outcome.count("ok"),
        "completed": len(answered),
        "p50": percentile([r["latency_ms"] for r in ok], 50),
        # Closed loop: a request is due when the previous answer arrives.
        "lag_ms": [(r["send_ns"] - r["due_ns"]) / 1e6 for r in records
                   if open_loop or r["due_ns"] > 0],
        "duration_s": duration_s,
        "throughput": outcome.count("ok") / duration_s,
        "cpu_ms_per_req": cpu_ms / max(1, len(answered)),
        "backlog": (first, last),
        "backlog_grows": last > 2 * first + 4,
    }


def pool(steps, tail_pct, lag_limit_ms, latency_limit_ms):
    """One measurement made of several blocks: timing metrics are medians
    over the blocks (a slow spell of the host spoils one block, not the
    result); tails and failures are pooled over every request."""
    ok = [r for s in steps for r in s["ok_records"]]
    lag = [x for s in steps for x in s["lag_ms"]]
    p50s = [s["p50"] for s in steps if s["p50"] is not None]
    out = {
        "ok_records": ok,
        "mismatches": [m for s in steps for m in s["mismatches"]],
        "sent": sum(s["sent"] for s in steps),
        "failed": sum(s["failed"] for s in steps),
        "ok": sum(s["ok"] for s in steps),
        "completed": sum(s["completed"] for s in steps),
        "blocks": len(steps),
        "block_p50": p50s,
        "block_throughput": [s["throughput"] for s in steps],
        "p50": statistics.median(p50s) if p50s else None,
        "tail": percentile([r["latency_ms"] for r in ok], tail_pct),
        "throughput": statistics.median(s["throughput"] for s in steps),
        "cpu_ms_per_req": statistics.median(s["cpu_ms_per_req"] for s in steps),
        "lag_p50": percentile(lag, 50),
        "lag_p99": percentile(lag, 99),
        "lag_n": len(lag),
        "backlog": (steps[0]["backlog"][0], steps[-1]["backlog"][1]),
        "backlog_grows": any(s["backlog_grows"] for s in steps),
    }
    # The generator fell behind when a typical send is late; scheduling
    # hiccups of the host show in the p99 alone.
    out["valid"] = out["lag_p50"] is None or out["lag_p50"] <= lag_limit_ms
    out["passes"] = (out["valid"] and out["failed"] == 0 and
                     not out["mismatches"] and out["tail"] is not None and
                     out["tail"] <= latency_limit_ms and
                     not out["backlog_grows"])
    return out


# ---------------------------------------------------------------------------
# Reporting

class Report:
    """Metric rows for the table; exported ones use BENCHMARK.json's unit."""

    def __init__(self, units):
        self.units = units
        self.rows = []
        self.metrics = {}

    def add(self, name, value, n, note="", unit=None, export=True):
        unit = unit or self.units[name]
        value = float(value)
        self.rows.append((name, value, unit, n, note))
        if export:
            self.metrics[name] = {"value": value, "unit": unit}

    def print_table(self, title):
        print(title)
        print("  %-42s %14s  %-7s %7s  %s" % ("metric", "value", "unit", "n", ""))
        for name, value, unit, n, note in self.rows:
            print("  %-42s %14.6g  %-7s %7s  %s" % (name, value, unit, n, note))


def query_log_threads(path):
    """facade -> sorted thread counts the query log recorded for it."""
    threads = {}
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                try:
                    rec = json.loads(line)
                except ValueError:
                    continue
                threads.setdefault(rec.get("facade", "?"), set()).add(rec.get("threads"))
    return {k: sorted(v) for k, v in sorted(threads.items())}


def exposition_value(text, name):
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == name:
            return float(parts[1])
    return None


# ---------------------------------------------------------------------------
# Main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    if args.workload not in config["workloads"]:
        raise BenchError("unknown workload %r" % args.workload)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    fo2dtd, perf, build_type = build(build_dir)

    run_root = os.path.join(ROOT, ".bench_run")
    run_dir = os.path.join(run_root, str(os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    ctx = {
        "args": args, "config": config, "contract": contract,
        "wl": config["workloads"][args.workload], "fo2dtd": fo2dtd,
        "perf": perf, "build_type": build_type, "run_root": run_root,
        "run_dir": run_dir,
        # Relative to ROOT: AF_UNIX paths are short, checkouts may be deep.
        "rel": os.path.relpath(run_dir, ROOT),
        "daemons": [],
    }
    try:
        return run(ctx)
    finally:
        for d in ctx["daemons"]:
            d.stop()
        shutil.rmtree(run_dir, ignore_errors=True)


def run(ctx):
    args, wl, config = ctx["args"], ctx["wl"], ctx["config"]
    open_loop = wl["loop"] == "open"
    tail_pct = wl["tail_pct"]
    blocks = wl.get("blocks", 1)

    # The measurement is a series of blocks against one daemon: `blocks`
    # equal slices of the time, or slices of `block_requests` requests. The
    # open loop spends main_share of the time at its offered rate and, when
    # untraced, climbs the rate ladder with the rest.
    main_s = args.seconds * (wl["main_share"] if open_loop else 1.0)
    block_s = main_s / blocks
    ladder = wl["ladder"] if open_loop and not args.trace else []
    rung_s = (args.seconds - main_s) / max(1, len(ladder))
    if open_loop:
        count = int(1.3 * (wl["rate"] * main_s + sum(r * rung_s for r in ladder)))
        count += 50 * (blocks + len(ladder))
    else:
        count = int(wl["max_rps"] * args.seconds)
    count = max(count, wl["replay_count"])

    requests = os.path.join(ctx["run_dir"], "requests.tsv")
    with open(requests, "w") as f:
        subprocess.run([ctx["perf"], "gen", "--workload", args.workload,
                        "--seed", str(args.seed), "--count", str(count)],
                       check=True, stdout=f, cwd=ROOT)
    with open(requests) as f:
        lines = f.readlines()
    ctx["expect"] = {}
    for line in lines:
        idx, _conn, want, family, _ = line.split("\t", 4)
        ctx["expect"][int(idx)] = (want, family)

    env = dict(os.environ)
    env["FO2DT_CACHE"] = "1"
    env["FO2DT_QUERY_LOG"] = os.path.join(ctx["rel"], "query.jsonl")
    for key in ("FO2DT_CACHE_FILE", "FO2DT_CAPTURE", "FO2DT_CAPTURE_DIR",
                "FO2DT_TRACE"):
        env.pop(key, None)
    ctx["sock"] = os.path.join(ctx["rel"], "d.sock")

    # Set-up time: spawn until the first ping answers, several times; the
    # last daemon serves the run.
    setup = []
    for i in range(1 if args.trace else config["setup_spawns"]):
        if ctx["daemons"]:
            ctx["daemons"].pop().stop()
        d = Daemon(ctx["fo2dtd"], ctx["sock"], env)
        ctx["daemons"].append(d)
        setup.append(d.setup_s)
    daemon = ctx["daemons"][-1]
    ctx["pid"] = daemon.proc.pid
    time.sleep(0.05)  # the ping connection's reader thread exits
    idle_threads = len(os.listdir("/proc/%d/task" % ctx["pid"]))

    lag_limit = wl.get("max_lag_p50_ms", float("inf"))
    steps = []
    used = 0
    if open_loop:
        # Each block continues the stream where the previous one stopped.
        for b in range(blocks):
            n = int(wl["rate"] * block_s * 1.3) + 50
            steps.append(drive(ctx, lines[used:used + n], block_s, wl["rate"],
                               args.seed * 100 + b, "main%d" % b))
            used += steps[-1]["sent"]
    elif wl.get("block_requests"):
        # Fixed work per block: whole rounds of the generator's classes, so
        # every block has the same mix; blocks start until the time is up.
        size = wl["block_requests"]
        start = time.perf_counter()
        while time.perf_counter() - start < main_s and used + size <= len(lines):
            steps.append(drive(ctx, lines[used:used + size], 120, None, 0,
                               "main%d" % len(steps)))
            used += size
    else:
        sent = set()
        for b in range(blocks):
            todo = [l for l in lines if int(l.split("\t", 1)[0]) not in sent]
            steps.append(drive(ctx, todo, block_s, None, 0, "main%d" % b))
            sent.update(r["index"] for r in steps[-1]["records"])
    main = pool(steps, tail_pct, lag_limit, wl["latency_limit_ms"])
    main["rate"] = wl.get("rate")
    if not main["ok_records"]:
        raise BenchError("no request of the run was answered")

    rungs = []
    for k, rate in enumerate(ladder):
        n = int(rate * rung_s * 1.3) + 50
        rung = pool([drive(ctx, lines[used:used + n], rung_s, rate,
                           args.seed * 100 + blocks + k, "rung%d" % k)],
                    tail_pct, lag_limit, wl["latency_limit_ms"])
        used += rung["sent"]
        rung["rate"] = rate
        rungs.append(rung)
        if not rung["passes"]:
            break  # the ladder climbs until the first rate that fails

    stats = daemon.op({"op": "stats"}).get("metrics", {})
    expo = daemon.op({"op": "metrics"}).get("exposition", "")
    rss_mb = daemon_hwm_mb(ctx["pid"])
    daemon.stop()
    ctx["daemons"].remove(daemon)
    if not main["valid"]:
        log("invalid run: the generator fell behind its schedule (median "
            "send lag %.3f ms > %.3f ms); not scored"
            % (main["lag_p50"], lag_limit))
        return 1

    host = {
        "nproc": os.cpu_count(),
        "daemon_workers": idle_threads - 3,  # minus main, accept, watchdog
        "facade_threads": query_log_threads(
            os.path.join(ctx["run_dir"], "query.jsonl")),
        "build_type": ctx["build_type"],
        "seed": args.seed,
        "offered_rate": main["rate"],
        "loop": "%s, %d connection(s), %d blocks"
                % (wl["loop"], wl["conns"], main["blocks"]),
    }
    contract = ctx["contract"]
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}
    correct = not main["mismatches"] and not any(r["mismatches"] for r in rungs)
    if args.trace == 0:
        report = end_to_end(main, rungs, setup, rss_mb, wl, open_loop, units)
        wanted = [m["name"] for m in contract["end_to_end"]]
    else:
        report, replay_ok = per_layer(ctx, requests, main, stats, expo, units)
        correct = correct and replay_ok
        wanted = [m["name"] for m in contract["per_layer"]]

    report.print_table("fo2dtd benchmark: workload=%s seed=%d seconds=%g trace=%d"
                       % (args.workload, args.seed, args.seconds, args.trace))
    if open_loop:
        print("  rate steps (pass: p%d <= %g ms, no failures, no backlog growth, "
              "generator on time):" % (tail_pct, wl["latency_limit_ms"]))
        for s in [main] + rungs:
            print("    rate %5d/s  sent %6d  failed %4d  p%d %8.3f ms  "
                  "sched_lag_p99 %6.3f ms  backlog %5.1f -> %5.1f  %s"
                  % (s["rate"], s["sent"], s["failed"], tail_pct,
                     s["tail"] if s["tail"] is not None else float("nan"),
                     s["lag_p99"], s["backlog"][0], s["backlog"][1],
                     "pass" if s["passes"] else
                     "fail" if s["valid"] else "invalid (generator behind)"))
    print("  blocks: p50 ms %s; throughput 1/s %s" % (
        " ".join("%.3g" % x for x in main["block_p50"]),
        " ".join("%.4g" % x for x in main["block_throughput"])))
    print("  daemon stats: rejected=%s degraded=%s queue_depth_peak=%s" % (
        stats.get("server.rejected_overload"), stats.get("server.degraded"),
        stats.get("server.queue_depth_peak")))
    print("  host: " + json.dumps(host, sort_keys=True))
    for idx, (want, family), resp in (main["mismatches"] +
                                      [m for r in rungs for m in r["mismatches"]])[:10]:
        print("  VERDICT MISMATCH request %d (%s): expected %s, got %s"
              % (idx, family, want, json.dumps(resp)))

    missing = [m for m in wanted if m not in report.metrics]
    if missing:
        raise BenchError("metrics missing from the result: %s" % missing)
    print(json.dumps({
        "correct": correct,
        "attempted": main["sent"],
        "failed": main["failed"],
        "metrics": {k: report.metrics[k] for k in wanted},
    }))
    return 0


def end_to_end(main, rungs, setup, rss_mb, wl, open_loop, units):
    report = Report(units)
    n = len(main["ok_records"])
    blocks = "median of %d blocks" % main["blocks"]
    # Printed, not exported: on a shared host their run-to-run spread
    # exceeds the largest bound the benchmark contract allows (README.md).
    report.add("latency_ms_p50", main["p50"], n, blocks + (
        ", from scheduled send" if open_loop else ", from write"),
        unit="ms", export=False)
    report.add("latency_ms_tail", main["tail"], n,
               "p%d, pooled" % wl["tail_pct"], unit="ms", export=False)
    report.add("throughput_rps", main["throughput"], main["ok"], blocks)
    if open_loop:
        # Printed, not exported: whether a rung sheds a single request
        # depends on the host's scheduling noise (README.md).
        capacity = 0.0
        for s in [main] + rungs:
            if not s["passes"]:
                break
            capacity = float(s["rate"])
        report.add("capacity_rps", capacity, 1 + len(rungs),
                   "highest passing rate of %s" % ([wl["rate"]] + wl["ladder"]),
                   unit="1/s", export=False)
    report.add("failed_share", main["failed"] / max(1, main["sent"]),
               main["sent"], "= failed / attempted", unit="share", export=False)
    report.add("cpu_ms_per_req", main["cpu_ms_per_req"], main["completed"], blocks)
    report.add("daemon_rss_mb", rss_mb, 1, "VmHWM at the end")
    report.add("setup_s", statistics.median(setup), len(setup),
               "median, spawn to first pong")
    report.add("sched_lag_ms_p99", main["lag_p99"], main["lag_n"],
               "generator validity", unit="ms", export=False)
    return report


def per_layer(ctx, requests, main, stats, expo, units):
    """The in-process replay plus the daemon's own counters."""
    args, wl = ctx["args"], ctx["wl"]
    spans = os.path.join(ctx["run_root"], "spans-%s-%d.jsonl"
                         % (args.workload, args.seed))
    inproc = os.path.join(ctx["rel"], "inproc.txt")
    env = dict(os.environ)
    env["FO2DT_QUERY_LOG"] = os.path.join(ctx["rel"], "replay.jsonl")
    for key in ("FO2DT_CACHE_FILE", "FO2DT_CAPTURE", "FO2DT_CAPTURE_DIR"):
        env.pop(key, None)
    proc = subprocess.run([ctx["perf"], "replay", "--requests",
                           os.path.relpath(requests, ROOT), "--count",
                           str(wl["replay_count"]), "--spans",
                           os.path.relpath(spans, ROOT), "--inproc", inproc],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise BenchError("replay failed: %s" % proc.stderr.strip())
    replay = json.loads(proc.stdout.strip().splitlines()[-1])

    report = Report(units)
    for name, m in replay["metrics"].items():
        report.add(name, m["value"], m["n"])

    # Wait: the daemon's latency for a request minus the in-process parse +
    # exec + respond time of the same request.
    inproc_us = {}
    with open(os.path.join(ROOT, inproc)) as f:
        for line in f:
            idx, us = line.split()
            inproc_us[int(idx)] = float(us)
    waits = [r["latency_ms"] * 1e3 - inproc_us[r["index"]]
             for r in main["ok_records"] if r["index"] in inproc_us]
    report.add("server.wait_us_p50", percentile(waits, 50) or 0.0, len(waits))
    report.add("server.wait_us_tail", percentile(waits, wl["tail_pct"]) or 0.0,
               len(waits), "p%d" % wl["tail_pct"])
    report.add("server.rejected", stats.get("server.rejected_overload", 0), 1,
               "stats op")
    report.add("server.degraded", stats.get("server.degraded", 0), 1, "stats op")
    report.add("server.queue_depth_peak", stats.get("server.queue_depth_peak", 0),
               1, "stats op")
    hist = exposition_value(expo, "fo2dt_hist_wire_ms_p50")
    report.add("server.hist_wire_ms_p50", -1.0 if hist is None else hist,
               main["completed"], "metrics op (daemon histogram)")
    report.add("server.client_wire_ms_p50", main["p50"] or 0.0,
               len(main["ok_records"]), "client side, for comparison")

    ok = True
    print("  determinism [pass 1, pass 2]: " + json.dumps(replay["determinism"]))
    if replay["determinism_diffs"]:
        ok = False
        print("  DETERMINISM FAILURE: counts differ between the traced replays: %s"
              % ", ".join(replay["determinism_diffs"]))
    if replay["mismatch_count"]:
        ok = False
        for m in replay["mismatches"]:
            print("  REPLAY VERDICT MISMATCH %s" % m)
    print("  replay: %d requests; wall s (traced, untraced, traced) %s; spans: %s"
          % (replay["requests"], replay["wall_s"], os.path.relpath(spans, ROOT)))
    return report, ok


if __name__ == "__main__":
    # A terminated run still stops its daemon (main's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError, OSError,
            subprocess.TimeoutExpired, ValueError, KeyError) as e:
        log("benchmark error: %s" % e)
        sys.exit(2)
