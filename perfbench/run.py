#!/usr/bin/env python3
"""Builds and runs the Bullion benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --out runs/mine

Run from the root of a checkout. Builds perfbench/ (and the library it
links) into .bench_build/perfbench with CMake, runs the workload in a
fresh directory under .bench_runs/, and prints the binary's report: one
`# key value` line per provenance item, one `name value unit` line per
metric, and as the last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`. The JSON keeps the metrics
BENCHMARK.json lists for the mode: `end_to_end` with --trace 0,
`per_layer` with --trace 1. The traced run's spans are kept in
.bench_runs/trace-<workload>-<seed>.json (Chrome trace format).

A shared machine sometimes hands much of its CPU to other guests. When
more than 1% of the machine's CPU time was stolen (/proc/stat) during
a run, run.py runs it again, up to three times while the 170 s budget
lasts, and reports the least contended attempt; every attempt's steal
share is printed. A failed attempt is never retried away.

Exits 0 only when every operation and output check passed and every
listed metric was reported. Dependency-free: Python 3 standard library.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNS_DIR = ROOT / ".bench_runs"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ["ingest", "train_scan", "serve_lookup", "comply_delete"]
# A run must end within 180 s; leave room for the runner itself.
RUN_DEADLINE_S = 170
# An attempt during which other guests took more than this share of
# the machine's CPU time (steal, /proc/stat) measured its neighbours,
# not the code. run.py repeats such an attempt while attempts and time
# remain, and keeps the one with the least steal.
STEAL_LIMIT = 0.01
MAX_ATTEMPTS = 3
BUILD_TIMEOUT_S = 840
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the perfbench target; returns ok."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("no Bullion sources next to perfbench/ (expected CMakeLists.txt "
            "and src/ at %s)" % ROOT)
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("build timed out: " + " ".join(cmd))
            return False
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace"))
            log("build failed: " + " ".join(cmd))
            return False
    return BINARY.is_file()


def provenance():
    """Commit and dirty flag when the checkout is a git repository, and
    a hash of the sources either way."""
    commit, dirty = "none", "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
            status = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain",
                 "--untracked-files=no"],
                capture_output=True, text=True, timeout=30).stdout
            dirty = "1" if status.strip() else "0"
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        p = ROOT / top
        files = [p] if p.is_file() else sorted(
            x for x in p.rglob("*")
            if x.is_file() and "__pycache__" not in x.parts)
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return commit or "none", dirty, h.hexdigest()[:16]


def cpu_times():
    """(steal, total) jiffies of the whole machine, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def attempt(cmd, run_dir, timeout):
    """Runs the binary once; returns (exit_code, stdout, steal_frac)."""
    before = cpu_times()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout)
        out, code = proc.stdout.decode(errors="replace"), proc.returncode
    except subprocess.TimeoutExpired as e:
        out, code = (e.stdout or b"").decode(errors="replace"), 124
        log("timed out after %d s" % timeout)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    after = cpu_times()
    steal = 0.0
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
    return code, out, steal


def run_one(args, workload, bench, prov):
    """Runs one workload; prints its report; returns (exit_code, stdout)."""
    commit, dirty, source_hash = prov
    RUNS_DIR.mkdir(exist_ok=True)
    run_dir = RUNS_DIR / ("%s-%d-%d" % (workload, args.seed, os.getpid()))
    trace_file = RUNS_DIR / ("trace-%s-%d.json" % (workload, args.seed))
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", str(run_dir), "--trace-file", str(trace_file),
           "--commit", commit, "--dirty", dirty]
    if args.tiny:
        cmd.append("--tiny")
    if args.closed_loop:
        cmd.append("--closed-loop")
    started = time.monotonic()
    tries = []
    while True:
        t0 = time.monotonic()
        remaining = RUN_DEADLINE_S - (t0 - started)
        tries.append(attempt(cmd, run_dir, max(1, remaining)))
        took = time.monotonic() - t0
        code, out, steal = tries[-1]
        if (code != 0 or steal <= STEAL_LIMIT or len(tries) >= MAX_ATTEMPTS
                or time.monotonic() - started + took > RUN_DEADLINE_S):
            break
        log("%s: %.1f%% of CPU time stolen by other guests; measuring again"
            % (workload, 100 * steal))
    # A failed attempt ends the loop and is what gets reported; among
    # successful ones the least contended wins.
    code, out, steal = (tries[-1] if tries[-1][0] != 0
                        else min(tries, key=lambda t: t[2]))
    lines = out.rstrip("\n").split("\n") if out.strip() else []
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            result = None
    header = ["# source_sha256 " + source_hash,
              "# wall_s %.3f" % (time.monotonic() - started),
              "# attempts %d" % len(tries),
              "# attempt_steal_fracs " + ",".join("%.4f" % t[2] for t in tries),
              "# host_steal_frac %.4f" % steal]
    if steal > STEAL_LIMIT:
        header.append("# warning other guests took %.1f%% of the CPU time"
                      % (100 * steal))
    body = "\n".join(header + lines)
    print(body, flush=True)
    if result is None:
        log("%s printed no result (exit %d)" % (workload, code))
        return (code or 1), body
    if bench is not None:
        key = "per_layer" if args.trace else "end_to_end"
        wanted = [m["name"] for m in bench[key]]
        missing = [n for n in wanted if n not in result["metrics"]]
        result["metrics"] = {n: result["metrics"][n] for n in wanted
                             if n in result["metrics"]}
        if missing:
            log("%s did not report %s" % (workload, ", ".join(missing)))
            result["correct"] = False
            code = code or 1
    bad = [n for n in result["metrics"] if not NAME_RE.match(n)]
    if bad:
        log("illegal metric names: " + ", ".join(bad))
        result["correct"] = False
        code = code or 1
    last = json.dumps(result)
    print(last, flush=True)
    return code, body + "\n" + last


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   help="one of %s, or all" % ", ".join(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny corpora: every path once, in seconds")
    p.add_argument("--closed-loop", action="store_true",
                   help="serve_lookup: back-to-back requests (capacity)")
    p.add_argument("--out", help="also save each run's output to "
                   "OUT/<workload>-<seed>.txt (input for compare.py)")
    args = p.parse_args()

    names = WORKLOADS if args.workload == "all" else [args.workload]
    if any(w not in WORKLOADS for w in names):
        log("unknown workload " + args.workload)
        return 2
    if not build():
        return 2
    bench = load_benchmark()
    prov = provenance()
    worst = 0
    for w in names:
        code, text = run_one(args, w, bench, prov)
        worst = worst or code
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            suffix = "-trace" if args.trace else ""
            (out / ("%s-%d%s.txt" % (w, args.seed, suffix))).write_text(
                text + "\n")
    return worst


if __name__ == "__main__":
    sys.exit(main())
