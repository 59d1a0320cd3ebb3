"""Host-time benchmark for pimsim.

    python3 bench/run.py --workload cnn-wide --seed 1 --seconds 30 --trace 0

Run from the root of a pimsim checkout. Each workload is a closed loop with
one caller: whole simulations run back to back for --seconds, simulation i
with seed `--seed + i`, and every simulation is gated on its modeled results
(see workloads.check). Host time is the simulator's wall-clock time; modeled
ns and AAP counts are outputs checked for equality, never metrics.

--trace 0 reports the end-to-end metrics with nothing patched. --trace 1
first runs untraced for half of --seconds, then installs the span wrappers
(tracing.py) for the rest, reports per-layer self times and exact work
counters, and writes the spans as a Chrome trace to .bench_out/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The exit status is 0 only when every simulation passed the gate.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

SETUP_PROBES = 7
# Fastest time of calibration_loop on the machine the baselines were taken
# on; times are scaled to it (see calibration_loop).
CALIBRATION_NOMINAL_S = 0.0025
UNTRACED_SHARE = 1 / 2
OUT_DIR = workloads.ROOT / ".bench_out"
COUNTERS = {"engine.alloc_bytes": "bytes", "subarray.multiply_calls": "count",
            "subarray.aap_executed": "count", "datapath.plane_reads": "count",
            "sim.mults": "count"}


def calibration_loop() -> float:
    """Host seconds of a fixed pure-Python loop that shares no code with
    pimsim, so only the machine's speed can move it.

    Neighbours on a shared machine slow everything by up to 2x for minutes at
    a time, which no statistic taken within one run can remove. The loop runs
    between simulations, and the benchmark scales its times by
    CALIBRATION_NOMINAL_S over the loop's fastest time in the same run. Its
    work is shaped like pimsim's interpretive code: tuple keys, set
    membership, divmod and f-strings.
    """
    t0 = time.perf_counter()
    seen, lines = set(), []
    for i in range(6000):
        a, b = divmod(i * 7919, 97)
        key = (a, b, i & 3)
        if key not in seen:
            seen.add(key)
        if i % 4 == 0:
            lines.append(f"mac_id={i} sub_no={a} col_no={b} depth={i & 3}")
    "\n".join(lines)
    return time.perf_counter() - t0


@dataclass
class Sample:
    seed: int
    eval_seconds: list[float]
    mults: int
    bits: int

    @property
    def seconds(self) -> float:
        return sum(self.eval_seconds)


class Runner:
    """Runs gated simulations with consecutive seeds."""

    def __init__(self, cli, wl, golden, outdir: Path, base_seed: int):
        self.cli, self.wl, self.golden, self.outdir = cli, wl, golden, outdir
        self.next_seed = base_seed
        self.attempted = 0
        self.failed = 0
        self.calibration: list[float] = []

    def calibrate(self) -> None:
        self.calibration.append(min(calibration_loop() for _ in range(3)))

    @property
    def speed_scale(self) -> float:
        """Factor that scales this run's host times to the nominal machine."""
        return CALIBRATION_NOMINAL_S / min(self.calibration)

    def one(self, tracer: tracing.Tracer | None = None) -> Sample | None:
        """One whole simulation; None when it failed the gate or raised."""
        self.calibrate()
        seed = self.next_seed
        self.next_seed += 1
        self.attempted += 1
        try:
            if tracer is not None:
                tracer.begin_sim(seed)
            try:
                statuses, seconds = workloads.simulate(
                    self.cli, self.wl, seed, self.outdir)
            finally:
                if tracer is not None:
                    tracer.end_sim()
            problems, mults, bits = workloads.check(
                self.wl, statuses, self.outdir, self.golden)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            print(f"seed {seed} FAILED:\n  " + "\n  ".join(problems),
                  file=sys.stderr)
            return None
        return Sample(seed, seconds, mults, bits)

    def loop(self, seconds: float, min_sims: int,
             tracer: tracing.Tracer | None = None,
             between=None) -> list[Sample] | None:
        """Simulate back to back for `seconds` (at least `min_sims` times);
        None at the first failure. `between(elapsed)` runs before each
        simulation."""
        samples: list[Sample] = []
        start = time.perf_counter()
        while len(samples) < min_sims or time.perf_counter() - start < seconds:
            if between is not None:
                between(time.perf_counter() - start)
            sample = self.one(tracer)
            if sample is None:
                return None
            samples.append(sample)
        return samples


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _print_table(title: str, metrics: dict, notes: dict | None = None) -> None:
    print(title)
    for name, m in metrics.items():
        note = f"  {notes[name]}" if notes and name in notes else ""
        print(f"  {name:<26} {m['value']:>16.6g} {m['unit']:<7}{note}")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def untraced(runner: Runner, seconds: float) -> dict | None:
    if runner.one() is None:            # warm-up, gated like every other
        return None
    # Peak RSS is taken after the first simulation. Later ones can raise it
    # further, but by how much varies from run to run with what the C
    # allocator keeps of freed cell arrays, so only this point is steady.
    rss_mb = _rss_mb()

    # Set-up probes are spread over the run like the simulations, so that a
    # slow stretch of the machine does not catch all of them.
    setups: list[float] = []

    def probe_when_due(elapsed: float) -> None:
        if (len(setups) < SETUP_PROBES
                and elapsed >= len(setups) * seconds / SETUP_PROBES):
            setups.append(workloads.measure_setup(runner.wl.name))

    samples = runner.loop(seconds, 1, between=probe_when_due)
    if samples is None:
        return None
    # Each evaluation at its fastest over the run, summed; not the median.
    # Neighbours on a shared machine slow whole stretches of a run by up to
    # 2x, which moves the median of a run but rarely the minimum, and a
    # 15 ms evaluation finds a quiet moment more often than a whole sweep.
    times = [s.seconds for s in samples]
    raw_sim_s = sum(min(t) for t in zip(*(s.eval_seconds for s in samples)))
    raw_setup_s = min(setups)
    scale = runner.speed_scale
    sim_s, setup_s = raw_sim_s * scale, raw_setup_s * scale
    evals = len(runner.wl.evaluations)
    metrics = {
        "mults_per_s": _metric(samples[0].mults / sim_s, "mult/s"),
        "evals_per_s": _metric(evals / sim_s, "eval/s"),
        "sim_s": _metric(sim_s, "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "setup_s": _metric(setup_s, "s"),
    }
    q1, median, q3 = (statistics.quantiles(times, n=4) if len(times) > 1
                      else (sim_s, sim_s, sim_s))
    _print_table(
        f"{runner.wl.name}: {len(samples)} timed simulations, seeds "
        f"{samples[0].seed}..{samples[-1].seed}", metrics,
        {"sim_s": f"fastest whole {min(times):.4g}, median {median:.4g}, "
                  f"quartiles {q1:.4g}..{q3:.4g}",
         "mults_per_s": ("executed bit-serially and checked"
                         if runner.wl.functional else "costed analytically"),
         "peak_rss_mb": f"after one simulation; {_rss_mb():.4g} at the end",
         "setup_s": f"fastest of {len(setups)} fresh processes, median "
                    f"{statistics.median(setups):.4g} unscaled"})
    print(f"  times above are scaled by {scale:.4f} to the nominal machine "
          f"(calibration loop fastest {min(runner.calibration) * 1e3:.4g} ms, "
          f"nominal {CALIBRATION_NOMINAL_S * 1e3:.4g} ms); unscaled sim_s "
          f"{raw_sim_s:.6g} s, setup_s {raw_setup_s:.6g} s")
    return metrics


def traced(runner: Runner, seconds: float, trace_path: Path) -> dict | None:
    if runner.one() is None:
        return None
    plain = runner.loop(seconds * UNTRACED_SHARE, 1)
    if plain is None:
        return None
    tracer = tracing.Tracer()
    tracer.install()
    try:
        samples = runner.loop(seconds * (1 - UNTRACED_SHARE), 2, tracer)
    finally:
        tracer.uninstall()
    tracer.write_chrome_trace(trace_path)
    if samples is None:
        return None

    # The command sequence depends only on n, never on data: every work
    # counter must repeat exactly from seed to seed.
    counts = {s.seed: tracer.counts[s.seed] + Counter(
                  {"sim.mults": s.mults, "product_bits": s.bits})
              for s in samples}
    first = counts[samples[0].seed]
    for seed, c in counts.items():
        if c != first:
            runner.failed += 1
            print(f"seed {seed} FAILED: counters {c} differ from seed "
                  f"{samples[0].seed}'s {first}", file=sys.stderr)
    if runner.failed:
        return None

    # Break down the fastest traced simulation, the traced counterpart of
    # sim_s; its layer self times plus unattributed_s add up to its length.
    fastest = min(tracer.breakdown().values(), key=lambda b: b[tracing.SIM_SPAN])
    sim_s = fastest[tracing.SIM_SPAN]
    layers = {name: fastest[name] for name in tracing.LAYER_METRICS}
    unattributed = sim_s - sum(layers.values())

    metrics = {name: _metric(v, "s") for name, v in layers.items()}
    metrics["unattributed_s"] = _metric(unattributed, "s")
    metrics.update({c: _metric(first[c], unit) for c, unit in COUNTERS.items()})
    aaps = first["subarray.aap_executed"]
    metrics["subarray.us_per_aap"] = _metric(
        layers["subarray.multiply_s"] / aaps * 1e6 if aaps else 0.0, "us")
    metrics["datapath.tree_fill"] = _metric(
        first["product_bits"] / first["tree_slots"]
        if first["tree_slots"] else 0.0, "ratio")
    metrics["trace.sim_s"] = _metric(sim_s, "s")
    metrics["trace.overhead_s"] = _metric(
        sim_s - min(s.seconds for s in plain), "s")

    shares = {name: f"{100 * v / sim_s:5.1f}% of traced sim_s"
              for name, v in [*layers.items(), ("unattributed_s", unattributed)]}
    _print_table(
        f"{runner.wl.name}: fastest of {len(samples)} traced simulations "
        f"(seeds {samples[0].seed}..{samples[-1].seed}), after "
        f"{len(plain)} untraced", metrics, shares)
    by_layer: dict[str, float] = {}
    for name, v in [*layers.items(), ("unattributed", unattributed)]:
        by_layer[name.split(".")[0]] = by_layer.get(name.split(".")[0], 0) + v
    top = max(by_layer, key=by_layer.get)
    print(f"  dominant layer: {top} ({100 * by_layer[top] / sim_s:.1f}%); "
          f"counters repeat exactly over {len(samples)} seeds; "
          f"trace: {trace_path}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = workloads.import_pimsim()
    wl = workloads.workload(args.workload)
    golden = workloads.load_golden(args.workload)
    OUT_DIR.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    runner = Runner(cli, wl, golden, outdir, args.seed)
    try:
        if args.trace:
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            metrics = traced(runner, args.seconds, trace_path)
        else:
            metrics = untraced(runner, args.seconds)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    correct = metrics is not None and runner.failed == 0
    print(f"fail_ratio {runner.failed / runner.attempted:.6g} "
          f"({runner.failed}/{runner.attempted} simulations)")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics or {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
