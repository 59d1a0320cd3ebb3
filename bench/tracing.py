"""Span tracing for the benchmark's traced run.

Each wrapped function is patched under the name its caller resolves it by:
a `from .subarray import multiply` binding is patched in the importing module
(`pimsim.datapath.multiply`), a call through a module attribute
(`oracle.network_ref`) in the defining module. Every call records a span
(name, start, end, parent, simulation id) and counts its work at the same
boundary. Nothing is patched until `install`, and `uninstall` restores every
original, so an untraced run executes pimsim unmodified.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from pathlib import Path


def _count_alloc(counts, args, result):
    counts["engine.alloc_bytes"] += sum(s.rows * s.cols for s in result)


def _count_multiply(counts, args, result):
    counts["subarray.multiply_calls"] += 1
    counts["subarray.aap_executed"] += len(result)


def _count_bank(counts, args, result):
    counts["datapath.plane_reads"] += result[1].plane_reads


def _count_tree(counts, args, result):
    counts["tree_slots"] += args[0].num_inputs


# (module the caller resolves the name in, attribute, layer metric that the
# span's self time counts toward, work counter). A span without a layer
# metric groups its children; its own self time is unattributed.
WRAPPED = (
    ("pimsim.cli", "run", None, None),
    ("pimsim.presets", "preset", "presets.build_s", None),
    ("pimsim.cli", "map_network", "mapper.map_s", None),
    ("pimsim.cli", "plan_residual", "mapper.map_s", None),
    ("pimsim.cli", "validate_plan", "mapper.validate_s", None),
    ("pimsim.cli", "plan_to_text", "mapper.plan_text_s", None),
    ("pimsim.timing", "network_latencies", "timing.model_s", None),
    ("pimsim.timing", "pipeline_schedule", "timing.model_s", None),
    ("pimsim.timing", "residual_overhead", "timing.model_s", None),
    ("pimsim.cli", "_build_report", "cli.report_s", None),
    ("pimsim.cli", "emit_report", "cli.report_s", None),
    ("pimsim.oracle", "network_ref", "oracle.ref_s", None),
    ("pimsim.engine", "build_bank", "engine.alloc_s", _count_alloc),
    ("pimsim.engine", "place_operands", "engine.place_s", None),
    ("pimsim.engine", "bank_execute", "datapath.reduce_s", _count_bank),
    ("pimsim.datapath", "multiply", "subarray.multiply_s", _count_multiply),
    ("pimsim.datapath", "build_adder_tree", "datapath.build_tree_s", None),
    ("pimsim.datapath", "tree_reduce", "datapath.tree_reduce_s", _count_tree),
)

SIM_SPAN = "sim"
LAYER_OF = {f"{module.split('.')[-1]}.{attr}": layer
            for module, attr, layer, _ in WRAPPED}
LAYER_METRICS = tuple(dict.fromkeys(layer for layer in LAYER_OF.values()
                                    if layer))


class Tracer:
    """In-memory span recorder with per-simulation work counters."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, sim id]
        self.counts: dict[int, Counter] = {}
        self._stack: list[int] = []
        self._sim = -1
        self._originals: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._sim])
        self._stack.append(len(self.spans) - 1)

    def _close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def begin_sim(self, sim_id: int) -> None:
        self._sim = sim_id
        self.counts[sim_id] = Counter()
        self._open(SIM_SPAN)

    def end_sim(self) -> None:
        """Close the simulation's root span and any left open by an error."""
        while self._stack:
            self._close()

    def _wrap(self, original, name, counter):
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close()
            if counter is not None:
                counter(self.counts[self._sim], args, result)
            return result
        return traced

    def install(self) -> None:
        for module_name, attr, _, counter in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            name = f"{module_name.split('.')[-1]}.{attr}"
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def breakdown(self) -> dict[int, dict[str, float]]:
        """Per simulation: its root span's seconds (`sim`) and each layer
        metric's self seconds.

        A span's self time is its duration minus its direct children's
        durations; spans nest on one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = {}
        for (name, start, end, _, sim), inner in zip(self.spans, child):
            per = out.setdefault(sim, dict.fromkeys(LAYER_METRICS, 0.0))
            if name == SIM_SPAN:
                per[SIM_SPAN] = end - start
            elif LAYER_OF[name]:
                per[LAYER_OF[name]] += end - start - inner
        return out

    def write_chrome_trace(self, path: Path) -> None:
        """Write the spans as Chrome Trace Event JSON (opens in Perfetto)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name,
                "cat": LAYER_OF.get(name) or "bench",
                "ph": "X",
                "ts": (start - t0) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"span": idx, "parent": parent, "sim": sim},
            }
            for idx, (name, start, end, parent, sim) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))
