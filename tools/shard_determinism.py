#!/usr/bin/env python3
"""Determinism-matrix gate for the sync round kernel's worker count.

Usage:
    tools/shard_determinism.py --csd build/tools/csd [--workdir DIR]
        [--workers 1,2,8] [--jobs 1,4] [--reps 32] [--telemetry]

Runs every (workers, jobs) cell of the matrix on two smoke instances —
the THM11 even-cycle detector (C_4 on a random forest) and the triangle
detector (on a sparse G(n,p) host) — through the `csd detect` CLI, each
cell writing a csd-bench-v1 JSON report and a csd-trace-v2 JSONL trace.
The inline run (workers = 0, jobs = 1) is the reference cell; every
other cell must reproduce it bit-for-bit:

  * the JSON report is canonicalized by dropping the `env` object
    (wall_clock_ms, jobs, workers, git_sha — the only keys that may
    legitimately differ across cells) and its SHA-256 must match;
  * the JSONL trace is hashed raw — no canonicalization; the trace
    determinism contract is byte-level.

Both policies are exercised: range on the even-cycle instance, hash on
the triangle instance (and vice versa on a second pass of each), so a
policy-dependent merge bug cannot hide behind a lucky partition.

The reference cell also runs with `--supervised` alone: `csd detect`
runs every sync run through the run supervisor, so naming it changes
nothing and its digests must equal the reference's too.

--telemetry attaches the csd-metrics-v2 plane (--metrics-out sampler +
--blackbox flight recorder, DESIGN.md §14) to every matrix cell while
the inline reference stays uninstrumented — matching digests then also
prove the telemetry plane leaves verdicts, reports and traces untouched.

Exit status: 0 = every cell bit-identical, 1 = divergence (the offending
cell and digests are printed), 2 = usage/IO error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def run(cmd: list[str]) -> None:
    result = subprocess.run(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        print(f"error: command failed ({result.returncode}): "
              f"{' '.join(cmd)}\n{result.stdout}", file=sys.stderr)
        sys.exit(2)


def canonical_json_digest(path: Path) -> str:
    doc = json.loads(path.read_text())
    doc.pop("env", None)  # wall clock, jobs, workers: legitimately variable
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def raw_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def detect_cell(csd: str, instance: dict, workdir: Path, workers: int,
                jobs: int, policy: str, tag: str,
                telemetry: bool = False,
                supervised: bool = False) -> tuple[str, str]:
    """Run one matrix cell; return (json digest, trace digest)."""
    json_path = workdir / f"{tag}.json"
    trace_path = workdir / f"{tag}.jsonl"
    cmd = [csd, "detect", *instance["pattern"], str(instance["graph"]),
           "--reps", str(instance["reps"]), "--seed", "11",
           "--jobs", str(jobs),
           "--json", str(json_path), "--trace", str(trace_path)]
    if workers != 0:
        cmd += ["--workers", str(workers), "--shard-policy", policy]
    if supervised:
        cmd.append("--supervised")
    if telemetry:
        cmd += ["--metrics-out", str(workdir / f"{tag}.metrics.jsonl"),
                "--metrics-period", "50",
                "--blackbox", str(workdir / f"{tag}.blackbox.json")]
    run(cmd)
    return canonical_json_digest(json_path), raw_digest(trace_path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csd", required=True,
                        help="path to the csd binary")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where instances and reports go "
                             "(default: a temp dir)")
    parser.add_argument("--workers", default="1,2,8",
                        help="comma list of worker counts (0 = inline "
                             "reference, always added)")
    parser.add_argument("--jobs", default="1,4",
                        help="comma list of --jobs fan-outs")
    parser.add_argument("--reps", type=int, default=32,
                        help="amplification repetitions per instance")
    parser.add_argument("--telemetry", action="store_true",
                        help="attach --metrics-out/--blackbox to every "
                             "matrix cell (reference stays plain)")
    args = parser.parse_args()

    workers = [int(w) for w in args.workers.split(",") if w]
    jobs = [int(j) for j in args.jobs.split(",") if j]
    if args.workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="csd-shard-")
        workdir = Path(tmp.name)
    else:
        workdir = args.workdir
        workdir.mkdir(parents=True, exist_ok=True)

    # Smoke instances: small enough for PR CI, rich enough to exercise
    # cross-worker channels, amplification, and per-round traces.
    forest = workdir / "forest256.txt"
    sparse = workdir / "gnp96.txt"
    run([args.csd, "generate", "tree", "256", "5", "--out", str(forest)])
    run([args.csd, "generate", "gnp", "96", "8", "3", "--out", str(sparse)])
    instances = [
        {"name": "thm11_even_cycle", "pattern": ["cycle", "4"],
         "graph": forest, "reps": args.reps},
        {"name": "triangle", "pattern": ["triangle"],
         "graph": sparse, "reps": 1},
    ]

    failures = 0
    for instance in instances:
        ref = detect_cell(args.csd, instance, workdir, 0, 1, "range",
                          f"{instance['name']}-ref")
        print(f"{instance['name']}: reference (inline run) "
              f"json={ref[0][:12]} trace={ref[1][:12]}")
        sup = detect_cell(args.csd, instance, workdir, 0, 1, "range",
                          f"{instance['name']}-ref-supervised",
                          supervised=True)
        status = "ok" if sup == ref else "MISMATCH"
        print(f"  reference with --supervised: {status}")
        if sup != ref:
            failures += 1
            print(f"    json:  {ref[0]} -> {sup[0]}\n"
                  f"    trace: {ref[1]} -> {sup[1]}", file=sys.stderr)
        for w in workers:
            for j in jobs:
                for policy in ("range", "hash"):
                    tag = f"{instance['name']}-w{w}-j{j}-{policy}"
                    cell = detect_cell(args.csd, instance, workdir, w, j,
                                       policy, tag,
                                       telemetry=args.telemetry)
                    ok = cell == ref
                    status = "ok" if ok else "MISMATCH"
                    print(f"  workers={w} jobs={j} policy={policy}: {status}")
                    if not ok:
                        failures += 1
                        if cell[0] != ref[0]:
                            print(f"    json:  {ref[0]} -> {cell[0]}",
                                  file=sys.stderr)
                        if cell[1] != ref[1]:
                            print(f"    trace: {ref[1]} -> {cell[1]}",
                                  file=sys.stderr)

    if failures:
        print(f"FAIL: {failures} cell(s) diverged from the inline run — "
              f"the round kernel or the sync engine broke bit-identity",
              file=sys.stderr)
        return 1
    cells = len(instances) * len(workers) * len(jobs) * 2
    suffix = " (telemetry attached)" if args.telemetry else ""
    print(f"OK: {cells} matrix cell(s) and the --supervised reference "
          f"bit-identical to the inline run{suffix}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
