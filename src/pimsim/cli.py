"""Command line front end.

Loads a network from a JSON file or a built-in preset, maps it, then runs the
functional bit-level simulation, the timing model, or both. Reports land as a
human-readable table plus a JSON document with stable field order; a short
summary prints to stdout. Exit status: 0 on success, 1 when the functional
run diverges from the oracle or its executed AAPs from the timing model, 2 on
mapping or configuration failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path
from typing import BinaryIO

from . import timing
from .layout import ConfigurationError
from .mapper import (
    MappingError,
    MappingPlan,
    NetworkDescription,
    footprint_bits,
    map_network,
    network_from_json,
    plan_residual,
    plan_to_text,
    validate_plan,
)
from .presets import PRESET_NAMES, preset
from .timing import TimingParams


# what run writes under its output directory
REPORT_NAMES = ("report.json", "report.txt", "plan.txt")


class RunConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    rows: int = 256
    cols: int = 256
    column_size: int | None = None       # defaults to cols
    subarrays_per_bank: int | None = None
    banks: int | None = None             # defaults to layers + reserved
    mode: str = "both"                   # functional | timing | both
    seed: int = 0
    images: int = 4
    timing: TimingParams = field(default_factory=TimingParams)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise RunConfigError("subarray dimensions must be positive")
        if self.column_size is None:
            self.column_size = self.cols
        if self.column_size > self.cols:
            raise RunConfigError("column_size cannot exceed the subarray width")
        for name in ("column_size", "subarrays_per_bank", "banks"):
            if (value := getattr(self, name)) is not None and value < 1:
                raise RunConfigError(f"{name} must be at least 1")
        if self.seed < 0:
            raise RunConfigError(f"seed {self.seed} must not be negative")
        if self.mode not in ("functional", "timing", "both"):
            raise RunConfigError(f"unknown mode {self.mode!r}")
        if self.images < 1:
            raise RunConfigError("need at least one image")


def _read_text(path: Path, what: str, error: type[Exception]) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8: {exc.reason}") from None


def load_network(path: str | Path) -> NetworkDescription:
    p = Path(path)
    if not p.exists():
        raise MappingError(f"network file {p} does not exist")
    try:
        return network_from_json(_read_text(p, "network file", MappingError))
    except RecursionError:
        raise MappingError(f"network file {p} nests too deeply") from None


def _write(file: BinaryIO, blocks: Iterable[bytes]) -> None:
    """Make a binary file open for writing at its start (see _open_reports)
    hold exactly the concatenated byte blocks.

    An existing file is overwritten in place and then cut at the end of the
    new bytes, not truncated to zero first: ext4 (auto_da_alloc) flushes a
    file truncated to zero and rewritten when it closes, which costs several
    times the write itself.
    """
    file.writelines(blocks)
    file.truncate()


def _open_reports(paths: list[Path]) -> list[BinaryIO]:
    """Open every path for writing before any of them is written. A new
    file gets the mode Path.write_bytes would give it.

    When one cannot be opened (it is a directory, say), the files already
    open are closed, the ones this call created are removed, and the error
    propagates with nothing written.
    """
    files, created = [], []
    try:
        for path in paths:
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                             0o666)
                created.append(path)
            except FileExistsError:
                fd = os.open(path, os.O_WRONLY)
            files.append(open(fd, "wb"))
    except OSError:
        for f in files:
            f.close()
        for path in created:
            os.unlink(path)
        raise
    return files


# --------------------------------------------------------------------------
# Report assembly
# --------------------------------------------------------------------------

def _build_report(
    net: NetworkDescription,
    config: RunConfig,
    plan: MappingPlan,
    latencies,
    pipeline,
    residual_ns: float,
    functional,
) -> dict:
    per_layer = []
    for place, lat in zip(plan.layers, latencies):
        per_layer.append(
            {
                "layer": place.layer_index,
                "kind": place.kind,
                "mac_size": place.mac_size,
                "macs_total": place.macs_total,
                "passes": place.passes,
                "subarrays_used": place.subarrays_used,
                "multiply_ns": lat.multiply_ns,
                "reduce_ns": lat.reduce_ns,
                "sfu_ns": lat.sfu_ns,
                "transpose_ns": lat.transpose_ns,
                "transfer_ns": lat.transfer_ns,
                "total_ns": lat.total_ns,
                "aap_count": lat.aap_count,
                "footprint_bits": footprint_bits(place.layer, net.precision),
                "placed_bits": place.placed_bits(),
                "padding_bits": place.padding_bits(),
            }
        )
    report = {
        "network": net.name,
        "precision": net.precision,
        "parallelism": list(net.parallelism),
        "mode": config.mode,
        "seed": config.seed,
        "geometry": {
            "rows": config.rows,
            "cols": config.cols,
            "column_size": config.column_size,
            "subarrays_per_bank": config.subarrays_per_bank,
            "banks": config.banks,
        },
        "per_layer": per_layer,
        "aap_total": sum(e["aap_count"] for e in per_layer),
        "footprint_bits_total": sum(e["footprint_bits"] for e in per_layer),
        "pipeline": {
            "images": pipeline.images,
            "fill_ns": pipeline.fill_ns,
            "steady_state_per_image_ns": pipeline.steady_state_ns,
            "total_ns": pipeline.total_ns,
            "residual_overhead_ns": residual_ns,
        },
        "area_power": timing.area_power_report(),
        "energy_nj_derived_from_table": timing.energy_estimate_nj(
            pipeline.total_ns
        ),
    }
    if functional is not None:
        report["functional"] = {
            "passed": functional.passed,
            "mismatch": functional.mismatch,
            "trace_aap_total": functional.total_aap(),
        }
    return report


def _format_table(report: dict) -> str:
    lines = [
        f"network {report['network']}  precision {report['precision']} bits  "
        f"mode {report['mode']}  seed {report['seed']}",
        "",
        f"{'layer':>5} {'kind':>6} {'macs':>10} {'passes':>6} "
        f"{'multiply_ns':>14} {'reduce_ns':>14} {'sfu_ns':>12} "
        f"{'transfer_ns':>12} {'total_ns':>14}",
    ]
    for e in report["per_layer"]:
        lines.append(
            f"{e['layer']:>5} {e['kind']:>6} {e['macs_total']:>10} "
            f"{e['passes']:>6} {e['multiply_ns']:>14.2f} {e['reduce_ns']:>14.2f} "
            f"{e['sfu_ns']:>12.2f} {e['transfer_ns']:>12.2f} {e['total_ns']:>14.2f}"
        )
    pipe = report["pipeline"]
    lines += [
        "",
        f"pipeline: fill {pipe['fill_ns']:.2f} ns, steady "
        f"{pipe['steady_state_per_image_ns']:.2f} ns/image, "
        f"total({pipe['images']}) {pipe['total_ns']:.2f} ns",
        f"footprint {report['footprint_bits_total']} bits, "
        f"multiply AAPs {report['aap_total']}",
        "",
        "component        area_um2      pct      power_nw      pct",
    ]
    ap = report["area_power"]
    for name in ap["area_um2"]:
        lines.append(
            f"{name:<14} {ap['area_um2'][name]:>10} {ap['area_pct'][name]:>8.4f} "
            f"{ap['power_nw'][name]:>13.3f} {ap['power_pct'][name]:>8.4f}"
        )
    if "functional" in report:
        f = report["functional"]
        verdict = "PASS" if f["passed"] else f"FAIL: {f['mismatch']}"
        lines += ["", f"functional check: {verdict}"]
    return "\n".join(lines) + "\n"


# containers whose items json.dumps puts on lines of their own
_CONTAINERS = (dict, list, tuple)


@functools.cache
def _flat_encoder(depth: int):
    """The C encoder for a container at depth whose values are all scalars.

    Its item separator starts each item on a line at depth + 1, so only the
    container's brackets still need padding.
    """
    return json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
        None, ": ", ",\n" + "  " * (depth + 1), False, False, True)


def _indented_json(value, depth: int = 0) -> str:
    """json.dumps(value, indent=2) for a value with str keys, at C speed.

    json.dumps runs its pure-Python encoder whenever indent is set. Here
    each non-empty container of scalars goes through the C encoder, and
    Python joins only the containers that hold containers.
    """
    encode = _flat_encoder(depth)
    if not isinstance(value, _CONTAINERS):
        return "".join(encode(value, 0))
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    items = value.values() if isinstance(value, dict) else value
    pad = "\n" + "  " * depth
    if not any(map(isinstance, items, repeat(_CONTAINERS))):
        text = "".join(encode(value, 0))
        return f"{text[0]}{pad}  {text[1:-1]}{pad}{text[-1]}"
    if isinstance(value, dict):
        parts = [f"{json.encoder.encode_basestring_ascii(key)}: "
                 f"{_indented_json(item, depth + 1)}"
                 for key, item in value.items()]
        brackets = "{}"
    else:
        parts = [_indented_json(item, depth + 1) for item in value]
        brackets = "[]"
    return f"{brackets[0]}{pad}  {f',{pad}  '.join(parts)}{pad}{brackets[1]}"


def emit_report(report: dict, fmt: str, file: BinaryIO) -> None:
    """Write the report as a table or JSON document to a binary file open
    for writing (see _write); JSON re-parses losslessly."""
    if fmt == "table":
        text = _format_table(report)
    elif fmt == "json":
        text = _indented_json(report) + "\n"
    else:
        raise RunConfigError(f"unknown report format {fmt!r}")
    _write(file, [text.encode()])


# --------------------------------------------------------------------------
# Run driver
# --------------------------------------------------------------------------

def run(net: NetworkDescription, config: RunConfig,
        output_dir: str | Path | None = None) -> tuple[int, dict]:
    """Map, simulate and report. Returns (exit_status, report)."""
    column_size = config.column_size
    plan = map_network(net, column_size, config.subarrays_per_bank,
                       config.rows)
    violations = validate_plan(plan, net)
    if violations:
        raise MappingError("; ".join(violations))
    for idx in range(1, len(net.layers)):
        made = net.layers[idx - 1].output_elements()
        taken = net.layers[idx].input_elements()
        if made != taken:
            raise MappingError(
                f"layer {idx} takes {taken} input elements, but layer "
                f"{idx - 1} produces {made}"
            )

    banks = config.banks
    if banks is None:
        banks = len(net.layers) + len(net.residual_edges)
    residual = plan_residual(net, banks)
    plan.reserved_banks = residual

    try:
        latencies = timing.network_latencies(plan, config.timing)
        pipeline = timing.pipeline_schedule(latencies, config.images)
        residual_ns = timing.residual_overhead(
            residual, net.precision, config.timing, column_size
        )
        modeled = [pipeline.total_ns, residual_ns,
                   *(lat.total_ns for lat in latencies),
                   *timing.energy_estimate_nj(pipeline.total_ns).values()]
    except OverflowError:
        modeled = [math.inf]
    if not all(map(math.isfinite, modeled)):
        raise MappingError("a modeled latency or energy is not a finite float")

    functional = None
    status = 0
    if config.mode in ("functional", "both"):
        # imported here, so that a timing-mode run never loads numpy
        from . import engine

        functional = engine.run_functional(net, plan, config.seed)
        if not functional.passed:
            status = 1
        else:
            # Whenever the engine runs, cross-check the executed traces
            # against the analytic counts. Each bank replays one multiply
            # trace per pass across all of its subarrays' columns and charges
            # it to every subarray, so this is the model's count exactly.
            expected_events = sum(
                place.subarrays_used * lat.aap_count
                for place, lat in zip(plan.layers, latencies)
            )
            if functional.total_aap() != expected_events:
                status = 1
                functional.mismatch = (
                    f"traces logged {functional.total_aap()} AAPs, "
                    f"timing model expected {expected_events}"
                )

    report = _build_report(
        net, config, plan, latencies, pipeline, residual_ns, functional
    )
    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        json_file, table_file, plan_file = _open_reports(
            [out / name for name in REPORT_NAMES])
        with json_file, table_file, plan_file:
            emit_report(report, "json", json_file)
            emit_report(report, "table", table_file)
            _write(plan_file, plan_to_text(plan))
    return status, report


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------

def _parse_parallelism(value: str) -> list[int] | str:
    if value.upper() in ("P1", "P2", "P3", "P4", "P5"):
        return value.upper()
    try:
        return [int(v) for v in value.split(",")]
    except ValueError:
        raise RunConfigError(
            f"parallelism must be P1..P5 or a comma list, got {value!r}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pimsim",
        description="Functional and timing simulator for bit-serial in-DRAM "
                    "DNN inference.",
    )
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", help="network description JSON file")
    src.add_argument("--preset", choices=PRESET_NAMES, help="built-in workload")
    parser.add_argument("--precision", type=int, default=None,
                        help="operand bit width n of a preset (default 4); "
                             "a network file sets its own")
    parser.add_argument("--parallelism", default="P1",
                        help="parallelism preset (P1..P5) or comma list")
    parser.add_argument("--timing-config", help="key = value timing file")
    parser.add_argument("--rows", type=int, default=None,
                        help="subarray rows (default 256, timing mode 4096)")
    parser.add_argument("--cols", type=int, default=None,
                        help="subarray columns (default 256, timing mode 4096)")
    parser.add_argument("--column-size", type=int, default=None,
                        help="mappable columns per subarray (default: cols)")
    parser.add_argument("--subarrays-per-bank", type=int, default=None)
    parser.add_argument("--banks", type=int, default=None)
    parser.add_argument("--mode", choices=("functional", "timing", "both"),
                        default="both")
    parser.add_argument("--images", type=int, default=4,
                        help="batch size for the pipeline schedule")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="out",
                        help="directory for report files")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        par = _parse_parallelism(args.parallelism)
        if args.model:
            if args.precision is not None:
                raise RunConfigError(
                    "--precision applies to presets; a network file sets "
                    "its own precision"
                )
            if isinstance(par, str) and par != "P1":
                raise RunConfigError(
                    "P-vectors only apply to presets; give a comma list"
                )
            net = load_network(args.model)
        else:
            net = preset(args.preset, par if isinstance(par, str) else "P1",
                         precision=4 if args.precision is None
                         else args.precision)
        if not isinstance(par, str):
            net = replace(net, parallelism=par)
            if args.preset:
                net.name = f"{args.preset}-{','.join(map(str, par))}"

        params = TimingParams()
        if args.timing_config:
            params = TimingParams.from_text(_read_text(
                Path(args.timing_config), "timing config",
                timing.TimingConfigError))

        # Timing-only runs default to the full-size array; functional runs
        # default to a desk-scale subarray that finishes in seconds.
        default_dim = 4096 if args.mode == "timing" else 256
        config = RunConfig(
            rows=default_dim if args.rows is None else args.rows,
            cols=default_dim if args.cols is None else args.cols,
            column_size=args.column_size,
            subarrays_per_bank=args.subarrays_per_bank,
            banks=args.banks,
            mode=args.mode,
            seed=args.seed,
            images=args.images,
            timing=params,
        )
        status, report = run(net, config, args.output)
    except (MappingError, RunConfigError, ConfigurationError,
            timing.TimingConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    pipe = report["pipeline"]
    print(
        f"{report['network']}: mode {report['mode']}, "
        f"{len(report['per_layer'])} layers, "
        f"pipeline total {pipe['total_ns']:.2f} ns for {pipe['images']} images"
    )
    if "functional" in report:
        f = report["functional"]
        print("functional: PASS" if f["passed"]
              else f"functional: FAIL ({f['mismatch']})")
    print(f"reports written to {args.output}/")
    return status


if __name__ == "__main__":
    sys.exit(main())
