"""Workloads, set-up probe and modeled-result gate of the host-time benchmark.

The benchmark drives pimsim only through its public entry points: networks
come from `NetworkDescription` (with `conv_layer`/`linear_layer`) or
`pimsim.presets.preset`, and every evaluation is one `pimsim.cli.run` call
that writes its reports. Nothing here imports pimsim at module level, so the
set-up probe can time the import itself in a fresh process.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"

# Every preset with each of its parallelism vectors, fixed here so that a
# preset added later does not silently change the workload.
SWEEP_PRESETS = (
    ("alexnet", ("P1", "P2", "P3")),
    ("vgg16", ("P1", "P2", "P3", "P4", "P5")),
    ("resnet18", ("P1",)),
)
SWEEP_PRECISIONS = (1, 2, 4, 8)
SWEEP_CONFIG = {"rows": 4096, "cols": 32768, "column_size": 32768,
                "mode": "timing", "images": 8}


@dataclass(frozen=True)
class Evaluation:
    """One network at one configuration, run through `cli.run`."""

    key: str
    build: Callable[[], object]   # () -> NetworkDescription
    config: dict                  # RunConfig fields other than seed


@dataclass(frozen=True)
class Workload:
    name: str
    evaluations: tuple[Evaluation, ...]
    functional: bool


def import_pimsim():
    """Import pimsim from this checkout's src/ and nowhere else.

    Exits with status 1 and no result when the sources are not there.
    """
    if not (SRC / "pimsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no pimsim sources under {SRC}; run the "
                         "benchmark from the root of a pimsim checkout")
    sys.path.insert(0, str(SRC))
    import pimsim.cli

    if Path(pimsim.__file__).resolve().parent != SRC / "pimsim":
        raise SystemExit(f"error: imported pimsim from {pimsim.__file__}, "
                         f"not from {SRC}")
    return pimsim.cli


def workload(name: str) -> Workload:
    """Build the named workload; pimsim must already be importable."""
    from pimsim import presets
    from pimsim.mapper import NetworkDescription, conv_layer, linear_layer

    if name == "cnn-wide":
        def build():
            return NetworkDescription("cnn-wide", 4, [
                conv_layer(H=16, W=16, I=8, O=16, K=3, p=1, pool=2),
                conv_layer(H=8, W=8, I=16, O=16, K=3, p=1, pool=2),
                linear_layer(w1=256, w2=32),
            ], [1, 1, 1])
        config = {"rows": 256, "cols": 4096, "column_size": 4096,
                  "mode": "both"}
        return Workload(name, (Evaluation(name, build, config),), True)
    if name == "mlp-n8":
        def build():
            return NetworkDescription("mlp-n8", 8, [
                linear_layer(w1=512, w2=64),
                linear_layer(w1=64, w2=64),
                linear_layer(w1=64, w2=16),
            ], [2, 2, 1])
        config = {"rows": 256, "cols": 512, "column_size": 512,
                  "mode": "both"}
        return Workload(name, (Evaluation(name, build, config),), True)
    if name == "timing-sweep":
        evaluations = []
        for preset_name, vectors in SWEEP_PRESETS:
            for vector in vectors:
                for n in SWEEP_PRECISIONS:
                    # presets.preset is looked up at call time so that the
                    # traced run sees it.
                    def build(preset_name=preset_name, vector=vector, n=n):
                        return presets.preset(preset_name, vector, precision=n)
                    evaluations.append(Evaluation(
                        f"{preset_name}-{vector}-n{n}", build, SWEEP_CONFIG))
        return Workload(name, tuple(evaluations), False)
    raise ValueError(f"unknown workload {name!r}")


WORKLOAD_NAMES = ("cnn-wide", "mlp-n8", "timing-sweep")


def simulate(cli, wl: Workload, seed: int, outdir: Path
             ) -> tuple[list[int], list[float]]:
    """Run every evaluation of one simulation; returns their exit statuses
    and host seconds.

    Each evaluation writes its reports to its own subdirectory of outdir, so
    the gate can read them all after the timed region.
    """
    statuses, seconds = [], []
    for ev in wl.evaluations:
        t0 = time.perf_counter()
        net = ev.build()
        status, _ = cli.run(net, cli.RunConfig(seed=seed, **ev.config),
                            outdir / ev.key)
        seconds.append(time.perf_counter() - t0)
        statuses.append(status)
    return statuses, seconds


# --------------------------------------------------------------------------
# Modeled-result gate
# --------------------------------------------------------------------------

def fingerprint(report: dict) -> dict:
    """Golden form of the seed-independent part of a report.

    That part is everything except `seed` and `functional`. The digest covers
    all of it; the headline values make a mismatch readable.
    """
    modeled = {k: v for k, v in report.items()
               if k not in ("seed", "functional")}
    text = json.dumps(modeled, sort_keys=True, separators=(",", ":"))
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "aap_total": modeled["aap_total"],
        "footprint_bits_total": modeled["footprint_bits_total"],
        "pipeline_total_ns": modeled["pipeline"]["total_ns"],
    }


def load_golden(name: str) -> dict:
    return json.loads(GOLDEN.read_text())["workloads"][name]


def check(wl: Workload, statuses: list[int], outdir: Path, golden: dict
          ) -> tuple[list[str], int, int]:
    """Gate one simulation on its written reports.

    A simulation passes when every evaluation exited 0, the oracle verdict is
    PASS, the executed AAPs equal the model's count, and the seed-independent
    part of report.json equals the golden values. Returns the problems found,
    the multiplications covered and the product bits a functional run reduced
    (multiplications x 2n).
    """
    problems = []
    mults = bits = 0
    for ev, status in zip(wl.evaluations, statuses, strict=True):
        report = json.loads((outdir / ev.key / "report.json").read_text())
        if status != 0:
            problems.append(f"{ev.key}: cli.run returned exit status {status}")
        layer_mults = sum(e["macs_total"] * e["mac_size"]
                          for e in report["per_layer"])
        mults += layer_mults
        if wl.functional:
            verdict = report.get("functional")
            if verdict is None or not verdict["passed"]:
                problems.append(f"{ev.key}: oracle verdict is not PASS: "
                                f"{verdict and verdict['mismatch']}")
            else:
                model = sum(e["subarrays_used"] * e["aap_count"]
                            for e in report["per_layer"])
                if verdict["trace_aap_total"] != model:
                    problems.append(
                        f"{ev.key}: executed {verdict['trace_aap_total']} "
                        f"AAPs, model counts {model}")
            bits += layer_mults * 2 * report["precision"]
        got, want = fingerprint(report), golden.get(ev.key)
        if got != want:
            if want is None:
                problems.append(f"{ev.key}: no golden values recorded")
            else:
                diff = ", ".join(f"{k} {got[k]!r} != golden {want.get(k)!r}"
                                 for k in got if got[k] != want.get(k))
                problems.append(f"{ev.key}: modeled results differ: {diff}")
    return problems, mults, bits


# --------------------------------------------------------------------------
# Set-up time
# --------------------------------------------------------------------------

def probe_setup(name: str) -> None:
    """Time the import, the network/preset build and the first map_network
    call, in this (fresh) process; prints seconds."""
    t0 = time.perf_counter()
    import_pimsim()
    from pimsim.mapper import map_network

    wl = workload(name)
    nets = [ev.build() for ev in wl.evaluations]
    map_network(nets[0], wl.evaluations[0].config["column_size"])
    print(repr(time.perf_counter() - t0))


def measure_setup(name: str) -> float:
    """Set-up seconds of one fresh interpreter process (see probe_setup)."""
    code = (f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); "
            f"import workloads; workloads.probe_setup({name!r})")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.split()[-1])
