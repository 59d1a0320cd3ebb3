#!/usr/bin/env python3
"""Sweep operand precision for a preset and report full-pipeline latency.

Example:
    python3 scripts/precision_scaling.py --preset alexnet --n 1 2 4 8
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pimsim.mapper import MappingError
from pimsim.presets import preset
from pimsim.timing import TimingConfigError, TimingParams, precision_sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="alexnet")
    parser.add_argument("--parallelism", default="P1")
    parser.add_argument("--n", type=int, nargs="+", default=[1, 2, 3, 4, 6, 8])
    parser.add_argument("--column-size", type=int, default=32768)
    args = parser.parse_args()

    try:
        net = preset(args.preset, args.parallelism)
        series = precision_sweep(
            net, args.n, args.column_size, TimingParams()
        )
    except (MappingError, TimingConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.preset} {args.parallelism}: latency vs operand width")
    print(f"{'n':>3} {'multiply_ns':>16} {'pipeline_ns':>18} {'vs n=min':>9}")
    base = series[0]["total_ns"]
    for point in series:
        print(
            f"{point['n']:>3} {point['multiply_ns']:>16.2f} "
            f"{point['total_ns']:>18.2f} {point['total_ns'] / base:>8.2f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
