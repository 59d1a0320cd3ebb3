"""Record the golden modeled results the benchmark gates on.

    python3 bench/record_golden.py

Runs one simulation of every workload with seed 0 on the current sources and
writes the fingerprint of each evaluation's seed-independent report to
bench/golden.json. Re-record only when the modeled results are meant to
change, and say so in the change that does it.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads


def main() -> int:
    cli = workloads.import_pimsim()
    doc = {
        "about": "Fingerprints of report.json without 'seed' and "
                 "'functional', per workload and evaluation; written by "
                 "bench/record_golden.py.",
        "workloads": {},
    }
    (workloads.ROOT / ".bench_out").mkdir(exist_ok=True)
    for name in workloads.WORKLOAD_NAMES:
        wl = workloads.workload(name)
        outdir = Path(
            tempfile.mkdtemp(prefix="golden-", dir=workloads.ROOT / ".bench_out"))
        try:
            statuses, _ = workloads.simulate(cli, wl, 0, outdir)
            if any(statuses):
                print(f"{name}: exit statuses {statuses}; not recording",
                      file=sys.stderr)
                return 1
            doc["workloads"][name] = {
                ev.key: workloads.fingerprint(json.loads(
                    (outdir / ev.key / "report.json").read_text()))
                for ev in wl.evaluations
            }
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
    workloads.GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {workloads.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
