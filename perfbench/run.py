#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the benchmark package
(perfbench/Cargo.toml, its own workspace) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs two processes: the
correctness gate, and either the untraced timed phase (--trace 0,
end-to-end metrics) or the traced phase (--trace 1, per-layer metrics).
Scratch files and span dumps go under .bench_build/perfbench/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_dynamic", "stream_cube16", "static_routes", "serve_mix")
BUILD_TIMEOUT_S = 840
# Seconds a phase may run beyond its --seconds budget (set-up, checks,
# and the last job started inside the budget).
PHASE_SLACK_S = 60


def steal_s():
    """Host-wide steal time so far, from the first line of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    binary = Path(env["CARGO_TARGET_DIR"]) / "release" / "mcast-perfbench"
    return binary if binary.is_absolute() else Path.cwd() / binary


def phase(binary, name, args, work_dir):
    # Specs carry the seed as a JSON number, exact only below 2^53.
    seed = args.seed % (1 << 53)
    cmd = [str(binary), name, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--work-dir", str(work_dir)]
    # A fixed mmap threshold stops glibc from moving it as large blocks
    # are freed, which made the peak RSS of one workload differ by 25%
    # from seed to seed with the same live memory.
    env = dict(os.environ)
    env["GLIBC_TUNABLES"] = ":".join(
        filter(None, [env.get("GLIBC_TUNABLES"), "glibc.malloc.mmap_threshold=131072"]))
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              env=env, timeout=args.seconds + PHASE_SLACK_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {name} phase timed out")
    if done.returncode != 0:
        sys.exit(f"perfbench: {name} phase exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    binary = build()
    out_dir = ROOT / ".bench_build" / "perfbench"
    work_dir = out_dir / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    steal0, t0 = steal_s(), time.monotonic()
    try:
        gate = phase(binary, "gate", args, work_dir)
        timed = phase(binary, "trace" if args.trace else "measure", args, work_dir)
        spans = work_dir / "spans.csv"
        if spans.exists():
            shutil.move(str(spans), out_dir / f"spans-{args.workload}-seed{args.seed}.csv")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if list(timed["metrics"]) != wanted:
        sys.exit("perfbench: metric names differ from BENCHMARK.json")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host_cpus": os.cpu_count(),
        "wall_s": round(time.monotonic() - t0, 3),
        "host_steal_s": round(steal_s() - steal0, 3),
        "gate_runqueue_wait_s": gate["info"]["runqueue_wait_s"],
        "runqueue_wait_s": timed["info"]["runqueue_wait_s"],
        "problems": gate["problems"] + timed["problems"],
    }
    with open(out_dir / "runs.jsonl", "a") as log:
        log.write(json.dumps({**info, "metrics": timed["metrics"]}) + "\n")
    print("run: " + json.dumps(info))
    attempted = gate["attempted"] + timed["attempted"]
    failed = gate["failed"] + timed["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": timed["metrics"],
    }))


if __name__ == "__main__":
    main()
