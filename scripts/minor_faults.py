#!/usr/bin/env python3
"""Count the minor page faults and the wall time of a bench workload.

Example:
    python3 scripts/minor_faults.py timing-sweep 20

Runs WARMUP simulations of the workload from bench/workloads.py, then SIMS
more, each through `workloads.simulate` in this process, writing reports
under a temporary directory. Prints the minor page faults (ru_minflt) per
timed simulation and the best and median wall milliseconds of one. A
simulation that first-touches fresh heap pages (a large buffer that glibc
serves from a new mmap or a trimmed heap) shows here as faults, and in
the bench as host time. The bench's own files are only read.
"""

import argparse
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import workloads

WARMUP = 3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("sims", type=int, help="timed simulations (>= 1)")
    args = parser.parse_args(argv)
    if args.sims < 1:
        parser.error("sims must be at least 1")

    cli = workloads.import_pimsim()
    wl = workloads.workload(args.workload)
    walls = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for seed in range(WARMUP):
            workloads.simulate(cli, wl, seed, out)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for seed in range(WARMUP, WARMUP + args.sims):
            t0 = time.perf_counter()
            statuses, _ = workloads.simulate(cli, wl, seed, out)
            walls.append(time.perf_counter() - t0)
            if any(statuses):
                raise SystemExit(f"error: seed {seed} exited {statuses}")
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    print(f"{args.workload}: {faults / args.sims:.1f} minor faults per "
          f"simulation; wall best {min(walls) * 1e3:.2f} ms, median "
          f"{statistics.median(walls) * 1e3:.2f} ms over {args.sims} "
          f"simulations")


if __name__ == "__main__":
    main()
