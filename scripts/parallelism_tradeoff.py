#!/usr/bin/env python3
"""Compare the listed parallelism vectors of a preset: latency vs footprint.

Higher k stacks more operand pairs per column (sequential passes), trading
throughput for a smaller column footprint.

Example:
    python3 scripts/parallelism_tradeoff.py --preset vgg16 --images 8
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pimsim.mapper import MappingError, map_network
from pimsim.presets import PARALLELISM, preset
from pimsim.timing import (
    TimingConfigError,
    TimingParams,
    network_latencies,
    pipeline_schedule,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="vgg16")
    parser.add_argument("--images", type=int, default=8)
    parser.add_argument("--column-size", type=int, default=32768)
    args = parser.parse_args()

    params = TimingParams()
    lines = []
    try:
        preset(args.preset)     # MappingError on an unknown preset name
        for tag in sorted(PARALLELISM[args.preset.lower()]):
            net = preset(args.preset, tag)
            plan = map_network(net, args.column_size)
            lats = network_latencies(plan, params)
            rep = pipeline_schedule(lats, args.images)
            occupied = sum(p.occupied_bits() for p in plan.layers)
            depth = max(p.passes for p in plan.layers)
            lines.append(f"{tag:>7} {depth:>9} {occupied:>15} "
                         f"{rep.steady_state_ns:>14.2f} {rep.total_ns:>16.2f}")
    except (MappingError, TimingConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.preset}, batch of {args.images} images")
    print(f"{'vector':>7} {'max depth':>9} {'occupied_bits':>15} "
          f"{'steady_ns':>14} {'total_ns':>16}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
