#!/usr/bin/env python3
"""sparseimg benchmark: one workload, one run, one JSON result line.

Run from the root of a source checkout (the package is imported from its
``src`` directory, never from an installed copy):

    python3 perfbench/run.py --workload omp_b16 --seed 1 --seconds 20 --trace 0

``--seconds`` is how long the run goes on: a full pass that encodes the
workload's images once, with timed rounds in between, then more rounds
(see ``workloads.py``). ``--trace 0``
measures and prints the end-to-end metrics; ``--trace 1`` runs the same
work with spans around the layer calls, plus a per-block run_omp pass, and
prints the per-layer metrics instead. Each run writes its full record (environment, per-image
outputs, paper comparison, spans) under ``perfbench/results/``. The last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the exit code is 1 when an output check failed and 2 when the run could not
be set up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# setup_s: a fresh interpreter imports the package and assembles the
# workload's dictionaries. Timed inside the child, so interpreter start-up,
# which no change to this repository can move, is left out.
SETUP_SCRIPT = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sparseimg
for spec in sys.argv[2:]:
    kind, block = spec.split(":")
    sparseimg.Dictionary2D(sparseimg.assemble_dictionary(sparseimg.DictionaryKind(kind), int(block)))
print(time.perf_counter() - t0)
"""


def fail_setup(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def limit_blas_threads(nproc: int) -> dict[str, str | None]:
    """At most ``nproc`` BLAS threads; returns each variable as it was set."""
    as_set = {var: os.environ.get(var) for var in THREAD_VARS}
    for var, value in as_set.items():
        try:
            threads = min(int(value), nproc) if value else nproc
        except ValueError:
            threads = nproc
        os.environ[var] = str(max(threads, 1))
    return as_set


def setup_sampler(specs: list[str]):
    """A function giving ``count`` set-up times, each from a fresh interpreter."""
    cmd = [sys.executable, "-I", "-c", SETUP_SCRIPT, str(SRC), *specs]

    def sample(count: int) -> list[float]:
        runs = [subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
                for _ in range(count)]
        return [float(out.stdout.strip()) for out in runs]

    sample(1)  # the first child compiles the bytecode cache; users pay that once
    return sample


def environment(nproc: int, threads_as_set: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads_as_set": threads_as_set,
        "threads_used": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": commit,
    }


def expected_metrics(trace: bool) -> dict[str, str] | None:
    """Metric names and units BENCHMARK.json declares for this mode."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def print_summary(record: dict, paper_gain: float) -> None:
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: {record['why']}")
    for name, m in record["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    print(f"  {record['rounds']} rounds; error rate {record['failed']}/{record['attempted']} (failed/attempted)")
    if "accounting" in record:
        a = record["accounting"]
        print(
            f"  accounting: pursuit.self_s + dictionary spans = {a['pursuit_self_s'] + a['dictionary_s']:.3f} s "
            f"of {a['encode_s']:.3f} s traced encode, {100 * a['unaccounted_share']:+.1f}% unaccounted "
            f"(tolerance {100 * a['tolerance']:.0f}%)"
        )
    print("  per image: method atoms CR PSNR PSNR-8bit atoms/block(min p50 max)")
    for key, out in record["outputs"].items():
        hist = {int(k): v for k, v in out.get("atoms_per_block", {}).items()}
        spread = ""
        if hist:
            ks = sorted(k for k, v in hist.items() for _ in range(v))
            spread = f"  {ks[0]} {ks[len(ks) // 2]} {ks[-1]}"
        u8 = f"{out['psnr_u8']:.3f}" if "psnr_u8" in out else "-"
        print(f"    {key:22s} {out['atoms']:8d} {out['cr']:9.3f} {out.get('psnr', float('nan')):8.3f} {u8:>8s}{spread}")
    for image, row in record["paper_comparison"].items():
        cells = ", ".join(f"{k} {v['ratio']:.2f}" for k, v in row.items())
        print(f"  paper comparison {image}: {cells} (bar {paper_gain}x, not gated)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="omp_b16, omp_b8 or decode_baselines")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sparseimg" / "__init__.py").is_file():
        return fail_setup(f"no package source at {SRC / 'sparseimg'}; run from a source checkout")
    nproc = len(os.sched_getaffinity(0))
    threads_as_set = limit_blas_threads(nproc)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    import sparseimg

    if Path(sparseimg.__file__).resolve().parent != (SRC / "sparseimg").resolve():
        return fail_setup(f"imported sparseimg from {sparseimg.__file__}, not from {SRC}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, choose from {', '.join(workloads.WORKLOADS)}")
    trace = bool(args.trace)
    units = workloads.PER_LAYER if trace else workloads.END_TO_END
    declared = expected_metrics(trace)
    if declared is not None and declared != units:
        return fail_setup("metric names or units differ from BENCHMARK.json")

    spec = workloads.WORKLOADS[args.workload]
    sample = None
    if not trace:
        try:
            sample = setup_sampler([f"{workloads.KINDS[m].value}:{spec.block}" for m in spec.methods])
        except (OSError, ValueError, subprocess.SubprocessError) as exc:
            return fail_setup(f"set-up measurement failed: {exc}")

    RESULTS.mkdir(exist_ok=True)
    record = workloads.run_workload(args.workload, args.seed, args.seconds, trace, sample, RESULTS)
    record["environment"] = environment(nproc, threads_as_set)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print_summary(record, workloads.PAPER_GAIN)
    correct = record["failed"] == 0
    result = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
