#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run its workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

NAME is one of thm11_forest, cut_traffic, async_faulty (the workloads
BENCHMARK.json gates; it says why each was chosen), thm11_sharded, or `all`
to run the four one after another, each in its own process, and print one
table with fail_frac and every metric.

thm11_sharded (the sharded engine at W = 2, as the nightly sweep runs it) is
not gated: on a shared 4-vCPU VM its wall and CPU time spread 24% and 17%
(quartile distance over median, five seeds), because each of its 3095 rounds
waits twice for a worker thread to wake. Its congest.shard.* layers are
measured by a W = 2 replay in thm11_forest's traced run. A fuzz campaign is
not a workload: the same 600-case campaign took 35.2 s and then 47.4 s, and
check_case fans out at jobs 4 and at hardware concurrency.

Run from the repository root. The first call configures and builds the
library and the perfbench binary (CMake, Release) into .bench_build/perfbench;
later calls only rebuild what changed. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of a traced pass; spans go to
.bench_build/spans/. The last stdout line is the result JSON. Extra flags
(--size tiny, --pins FILE, --dump-outputs) are passed to the binary.
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
PINS = HERE / "pinned.txt"
WORKLOADS = ["thm11_forest", "thm11_sharded", "cut_traffic", "async_faulty"]
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def git_sha():
    """HEAD's commit read from .git in the checkout, or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no library sources at", ROOT / "src")
        sys.exit(2)
    # The library's CMake files ask git for the commit; keep git inside the
    # checkout, and the compiler's temporary files too.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent),
               TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)


def run_one(args, extra, capture):
    spans = ROOT / ".bench_build" / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pins", str(PINS), "--git-sha", git_sha(),
           "--spans-out", str(spans / f"{args.workload}-seed{args.seed}"
                                      f"-trace{args.trace}.jsonl")] + extra
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
        sys.exit(1)


def run_all(args, extra):
    """Every workload in its own process, then one table and one result."""
    results = {}
    for name in WORKLOADS:
        one = argparse.Namespace(**vars(args))
        one.workload = name
        proc = run_one(one, extra, capture=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            log(f"perfbench: {name} exited {proc.returncode} without a result")
            return 1
        results[name] = json.loads(lines[-1])
    print("\nworkload        metric                               value  unit")
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, res in results.items():
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        print(f"{name:15} {'fail_frac':30} "
              f"{res['failed'] / res['attempted']:>12.6g}  ratio")
        for metric, m in res["metrics"].items():
            print(f"{name:15} {metric:30} {m['value']:>12.6g}  {m['unit']}")
            total["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()
    build()
    if args.workload == "all":
        return run_all(args, extra)
    return run_one(args, extra, capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())
