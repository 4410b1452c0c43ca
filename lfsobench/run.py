"""Benchmark for lfso: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 lfsobench/run.py --workload figures|regression|verify \
        --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory, and outputs go to ``.lfsobench_out/<workload>/`` there.  The run
repeats whole rounds of the workload until ``--seconds`` have passed, checks
the last round's outputs against references computed here, and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones (see README.md).  Exits 0 when the run is correct, 1 when
a check failed other than the known faults, 2 when it cannot run at all.
"""

import os

# One BLAS thread, fixed before numpy loads, here and in every process this
# starts: the load is generated from one process on a 2-core machine.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".lfsobench_out")
IMPORT_PROBES = 11
IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "t0 = time.perf_counter(); import lfso.cli; "
               "print(time.perf_counter() - t0)")


def import_seconds() -> float:
    """Median time to import the package and its CLI in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-c", IMPORT_CODE, SRC],
                              capture_output=True, text=True, check=True,
                              timeout=60)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    import layers
    import workloads

    out_dir = os.path.join(OUT, workload_name)
    os.makedirs(out_dir, exist_ok=True)
    import_s = import_seconds()
    workload = workloads.WORKLOADS[workload_name](seed, out_dir)
    patcher = layers.Patcher()
    phases = layers.Phases()
    phases.install(patcher)
    tracer = None
    walls, splits, fingerprints, traced = [], [], [], []
    start = perf_counter()
    while True:
        wall, fingerprint = workload.round()
        walls.append(wall)
        splits.append(phases.take())
        fingerprints.append(fingerprint)
        if tracer is not None:
            traced.append(tracer.take())
        elif trace:
            # A traced run starts with two untraced rounds: the first warms
            # up, the second is the reference for the tracing overhead.
            if len(walls) == 2:
                tracer = layers.Tracer()
                tracer.install(patcher)
            continue
        if perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    patcher.restore()

    operations, failed, problems = workload.check()
    if len(set(fingerprints)) != 1:
        problems.append("outputs differ between rounds")
    if traced and any(counts != traced[0][1] for _, counts, _ in traced):
        problems.append("call counts differ between traced rounds")
    known = workloads.KNOWN_FAULTS[workload_name]
    for name, reasons in failed:
        tag = "known fault" if name in known else "FAILED"
        print(f"{workload_name} {name}: {tag}: {'; '.join(reasons[:3])}", file=sys.stderr)
    for problem in problems:
        print(f"{workload_name}: {problem}", file=sys.stderr)
    correct = not problems and all(name in known for name, _ in failed)

    if trace:
        overhead = statistics.median(walls[2:]) - walls[1]
        metrics = layers.layer_metrics(traced, overhead)
    else:
        def median(key):
            return statistics.median(split[key] for split in splits)
        metrics = {
            "wall_s": metric(import_s + statistics.median(walls), "s"),
            "setup_s": metric(import_s + median("setup"), "s"),
            "solve_s": metric(median("solve"), "s"),
            "iters_per_s": metric(statistics.median(
                split["steps"] / split["solve"] for split in splits), "1/s"),
            "verify_s": metric(median("verify"), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    rounds = len(walls)
    return {"correct": correct, "attempted": operations * rounds,
            "failed": len(failed) * rounds, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "regression", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lfso", "__init__.py")):
        print(f"error: no lfso package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import lfso
    if not os.path.abspath(lfso.__file__).startswith(SRC + os.sep):
        print(f"error: lfso imported from {lfso.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
