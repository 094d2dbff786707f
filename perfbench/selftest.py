#!/usr/bin/env python3
"""Self-test of the benchmark itself (a few minutes on two cores).

    python3 perfbench/selftest.py [--workloads omp_b8 ...] [--seed 7]

For each workload it runs ``run.py`` untraced and then traced on one seed,
with ``--seconds 1`` (so each run does its workload's minimum of rounds),
and checks that:

- each run exits 0 and its last line has exactly the keys ``correct``,
  ``attempted``, ``failed`` and ``metrics``, with ``correct`` true;
- the metric names and units are exactly those BENCHMARK.json declares
  (``end_to_end`` untraced, ``per_layer`` traced);
- the traced run gives the same atom counts and container hashes as the
  untraced run;
- on ``omp_b16``, the per-block run_omp pass accounts for the traced encode
  time within the benchmark's stated tolerance. ``pursuit.self_s`` plus the
  dictionary spans make up that pass exactly, so the check bounds encode's
  work outside the pursuit, plus the host's drift between the two passes.

Last, it copies BENCHMARK.json and the benchmark's files into an otherwise
empty directory and checks that the benchmark fails there without printing
a result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["omp_b16", "omp_b8", "decode_baselines"])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        trace: {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        for trace in (0, 1)
    }
    problems = []

    for workload in args.workloads:
        records = {}
        for trace in (0, 1):
            proc = run(ROOT, workload, args.seed, trace)
            result = last_json(proc.stdout)
            tag = f"{workload} trace {trace}"
            if proc.returncode != 0 or result is None:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            if set(result) != KEYS or not result["correct"]:
                problems.append(f"{tag}: bad result line {sorted(result)} correct={result.get('correct')}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != declared[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(declared[trace]))}")
            records[trace] = json.loads((RESULTS / f"{workload}-seed{args.seed}-trace{trace}.json").read_text())
            print(f"{tag}: exit {proc.returncode}, {result['attempted']} attempted, {result['failed']} failed")
        if len(records) < 2:
            continue

        for key, out in records[0]["outputs"].items():
            traced = records[1]["outputs"].get(key, {})
            for field in ("atoms", "sha256"):
                if field in out and traced.get(field) != out[field]:
                    problems.append(f"{workload} {key}: traced {field} {traced.get(field)} != untraced {out[field]}")
        accounting = records[1]["accounting"]
        print(f"{workload}: {100 * accounting['unaccounted_share']:+.1f}% of traced encode time unaccounted")
        if workload == "omp_b16" and not accounting["within_tolerance"]:
            problems.append(f"omp_b16: pursuit spans leave {accounting['unaccounted_share']:.1%} of encode unaccounted")

    bare = RESULTS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, args.workloads[0], args.seed, 0)
        if proc.returncode == 0 or last_json(proc.stdout) is not None:
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
        print(f"bare directory: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"PROBLEM {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
