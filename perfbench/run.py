#!/usr/bin/env python3
"""Runs one workload of the kdsel benchmark and prints its result.

    python3 perfbench/run.py --workload train_pa --seed 1 --seconds 25 --trace 0

Run from the repository root. The first run builds the program (src/,
tools/kdsel) and the harness (perfbench/harness) in Release mode under
.bench_build/; later runs only re-check the build. Every run writes its
record (metrics, provenance, per-step detail) under
.perfbench_out/results/<workload>/, which perfbench/compare.py reads, and
a traced run (--trace 1) also writes the span file spans.json beside it.

The last line on stdout is the JSON result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1). Any failure to build or run exits non-zero without it.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("train_pa", "serve_hot", "serve_unique")
# A run must end within 180 s; leave room for teardown.
RUN_DEADLINE_S = 170.0
BUILD_DEADLINE_S = 850.0


def log(msg):
    print("[run.py] " + msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures once, then lets CMake decide what is out of date."""
    # Keep the compiler's temporary files inside the checkout too.
    os.makedirs(TMP_DIR, exist_ok=True)
    os.environ["TMPDIR"] = TMP_DIR
    jobs = str(max(1, min(nproc(), 8)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_DEADLINE_S)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                    "--target", "kdsel", "kdsel_perfbench"],
                   check=True, stdout=sys.stderr, timeout=BUILD_DEADLINE_S)
    return (os.path.join(BUILD_DIR, "kdsel_perfbench"),
            os.path.join(BUILD_DIR, "kdsel_tools", "kdsel"))


def source_digest():
    """sha256 over the program and benchmark sources (the checkout the
    benchmark runs in is not a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        harness, kdsel = build()
    except (subprocess.SubprocessError, OSError) as e:
        log("build failed: %s" % e)
        return 1
    started = time.monotonic()

    run_dir = os.path.join(OUT_DIR, "runs", "%s-seed%d-trace%d-%d" % (
        args.workload, args.seed, args.trace, time.time_ns()))
    os.makedirs(run_dir)
    env = dict(os.environ)
    # The harness's own pool: train_pa's label phase runs at nproc threads;
    # the kdsel serve child is started with KDSEL_THREADS=1 by the harness.
    env["KDSEL_THREADS"] = str(nproc())
    env.pop("KDSEL_TRACE", None)
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", run_dir, "--kdsel", kdsel]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True, text=True)
    remaining = max(1.0, RUN_DEADLINE_S - (time.monotonic() - started))
    try:
        stdout, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        log("harness exceeded the run deadline; stopping it")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1
    finally:
        # The harness stops its server; make sure nothing it started lives on.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        log("harness exited with %d" % proc.returncode)
        return 1

    lines = [l for l in stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
        with open(os.path.join(run_dir, "record.json")) as f:
            record = json.load(f)
    except (IndexError, ValueError, OSError) as e:
        log("harness printed no result: %s" % e)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1
    # The result line carries exactly the metrics BENCHMARK.json declares;
    # the record keeps the informational ones too (select_p99_ms,
    # failed_share).
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        log("harness did not report: %s" % ", ".join(missing))
        return 1
    result["metrics"] = {name: result["metrics"][name] for name in wanted}

    record["provenance"]["source_sha256"] = source_digest()
    record["provenance"]["git_sha"] = git_sha()
    record["provenance"]["run_dir"] = os.path.relpath(run_dir, ROOT)
    results = os.path.join(OUT_DIR, "results", args.workload)
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, os.path.basename(run_dir) + ".json"),
              "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    with open(os.path.join(run_dir, "record.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
