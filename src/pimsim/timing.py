"""Latency, area and power model.

Every in-subarray command costs one AAP window (t_aap). Within a bank the
phases of a layer run in fixed order: multiply across all subarrays in
parallel (stacked operand pairs serialize), bit-plane reduction through the
shared adder tree (one subarray batch at a time), the SFU chain, the
transpose unit, then the inter-bank RowClone transfer. Banks pipeline across
images: all banks compute in parallel, then transfers run sequentially in
reverse layer order, so the steady-state window is the slowest bank plus the
whole transfer window.

Synthesized-logic delays carry a 1.215x penalty for implementation in a DRAM
process; it applies exactly once, to logic cycles only, never to DRAM row
timing. Defaults follow DDR3-1600 (t_aap = tRAS 35 ns + tRP 13.75 ns); all
values are overridable configuration, not measured ground truth. The counts
it costs (mul_aap_count, TREE_WIDTH, tree_loads_per_pass) live in layout,
which the functional run reads too, so this module loads no numpy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from itertools import accumulate

from .layout import TREE_WIDTH, mul_aap_count, tree_loads_per_pass
from .mapper import LayerPlacement, MappingPlan, NetworkDescription
from .mapper import ResidualAssignment, map_network

SFU_UNITS = ("relu", "batchnorm", "quantize", "pool", "transpose")
# Pipeline depth of the one TREE_WIDTH-input adder tree.
TREE_LEVELS = TREE_WIDTH.bit_length() - 1


class TimingConfigError(ValueError):
    """Non-positive or malformed timing parameter."""


def _parse_value(name: str, text: str, kind: type):
    try:
        return kind(text)
    except ValueError:
        raise TimingConfigError(
            f"{name} = {text!r} is not a valid {kind.__name__}"
        ) from None


# The time fields of TimingParams, in to_text order; each is a positive float.
TIME_FIELDS = ("t_aap", "t_row_read", "logic_clock", "t_rowclone_interbank",
               "dram_logic_penalty")


@dataclass
class TimingParams:
    t_aap: float = 48.75                  # ns per ACTIVATE-ACTIVATE-PRECHARGE
    t_row_read: float = 35.0              # ns per bit-plane row read
    logic_clock: float = 1.0              # ns per datapath cycle, pre-penalty
    sfu_cycles: dict = field(
        default_factory=lambda: {u: 1 for u in SFU_UNITS}
    )
    t_rowclone_interbank: float = 97.5    # ns per row moved between banks
    dram_logic_penalty: float = 1.215     # DRAM-process delay on logic blocks

    def __post_init__(self):
        # the rules from_text applies; values are compared, not converted,
        # since math.isfinite overflows on a huge int
        checks = [(name, getattr(self, name), True) for name in TIME_FIELDS]
        checks += [(f"sfu_cycles.{unit}", self.sfu_cycles[unit], False)
                   for unit in SFU_UNITS if unit in self.sfu_cycles]
        for name, value, positive in checks:
            number = (isinstance(value, (int, float))
                      and not isinstance(value, bool))
            if number and (not 0 <= value <= sys.float_info.max
                           or positive and not value):
                rule = "positive and finite" if positive else "finite and >= 0"
                huge = isinstance(value, int) and value > 0
                raise TimingConfigError(
                    f"{name} must be {rule}, got "
                    + ("an int beyond float range" if huge else f"{value}"))
            if not number or not positive and isinstance(value, float):
                kind = "a number" if positive else "an integer"
                raise TimingConfigError(
                    f"{name} must be {kind}, got {value!r}")
        if set(self.sfu_cycles) != set(SFU_UNITS):
            raise TimingConfigError(
                f"sfu_cycles must give one count per unit of {SFU_UNITS}, "
                f"got {sorted(self.sfu_cycles)}")

    @property
    def logic_ns(self) -> float:
        return self.logic_clock * self.dram_logic_penalty

    def to_text(self) -> str:
        lines = [f"{name} = {getattr(self, name)}" for name in TIME_FIELDS]
        lines += [f"sfu_cycles.{u} = {self.sfu_cycles[u]}" for u in SFU_UNITS]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TimingParams":
        params = cls()
        cycles = dict(params.sfu_cycles)
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise TimingConfigError(f"expected 'name = value': {raw!r}")
            name, value = (part.strip() for part in line.split("=", 1))
            if name.startswith("sfu_cycles."):
                unit = name.split(".", 1)[1]
                if unit not in SFU_UNITS:
                    raise TimingConfigError(f"unknown SFU unit {unit!r}")
                cycles[unit] = _parse_value(name, value, int)
            elif name in TIME_FIELDS:
                params = replace(params,
                                 **{name: _parse_value(name, value, float)})
            else:
                raise TimingConfigError(f"unknown timing field {name!r}")
        return replace(params, sfu_cycles=cycles)


@dataclass
class LayerLatency:
    layer_index: int
    multiply_ns: float
    reduce_ns: float
    sfu_ns: float
    transpose_ns: float
    transfer_ns: float
    aap_count: int

    @property
    def total_ns(self) -> float:
        return (self.multiply_ns + self.reduce_ns + self.sfu_ns
                + self.transpose_ns + self.transfer_ns)

    @property
    def busy_ns(self) -> float:
        """In-bank time, the pipeline stage cost without the transfer."""
        return self.total_ns - self.transfer_ns


def layer_aaps(place: LayerPlacement) -> int:
    """AAPs each subarray of the layer executes: one multiply per stacked
    pair. The functional run checks every layer's traces against it."""
    return mul_aap_count(place.precision) * place.passes


def layer_latency(place: LayerPlacement, params: TimingParams) -> LayerLatency:
    """Phase breakdown for one layer on its bank, at the placement's
    precision n.

    multiply: mul_aap_count(n) * t_aap per stacked pair (passes serialize).
    reduce: per load of the TREE_WIDTH-input tree, a TREE_LEVELS-deep
    pipeline fill at logic rate plus 2n bit-plane row reads at DRAM row
    rate. sfu/transpose: one element per unit cycle at the penalized logic
    rate. transfer: RowClone rows to move the layer output, at row
    granularity of the column width.
    """
    n, passes = place.precision, place.passes
    mul_aaps = layer_aaps(place)
    multiply_ns = mul_aaps * params.t_aap

    loads = tree_loads_per_pass(place, TREE_WIDTH) * passes
    reduce_ns = loads * (
        TREE_LEVELS * params.logic_ns + 2 * n * params.t_row_read
    )

    chain_cycles = sum(
        params.sfu_cycles[u] for u in ("relu", "batchnorm", "quantize", "pool")
    )
    sfu_ns = place.macs_total * chain_cycles * params.logic_ns

    outputs = place.layer.output_elements()
    transpose_ns = outputs * params.sfu_cycles["transpose"] * params.logic_ns

    rows = -(-outputs * n // place.column_size)
    transfer_ns = rows * params.t_rowclone_interbank
    return LayerLatency(
        layer_index=place.layer_index,
        multiply_ns=multiply_ns,
        reduce_ns=reduce_ns,
        sfu_ns=sfu_ns,
        transpose_ns=transpose_ns,
        transfer_ns=transfer_ns,
        aap_count=mul_aaps,
    )


@dataclass
class Occupancy:
    image: int
    bank: int
    start_ns: float
    end_ns: float


@dataclass
class PipelineReport:
    images: int
    fill_ns: float
    steady_state_ns: float
    total_ns: float
    start_ns: tuple[float, ...] = ()   # per bank, offset within an image
    busy_ns: tuple[float, ...] = ()    # per bank

    @property
    def occupancy(self) -> list[Occupancy]:
        """Every (image, bank) busy interval, built on demand: bank b works
        on image i from i * steady + start_ns[b] for busy_ns[b]."""
        steady = self.steady_state_ns
        return [
            Occupancy(image, b, image * steady + start,
                      image * steady + start + busy)
            for image in range(self.images)
            for b, (start, busy) in enumerate(zip(self.start_ns,
                                                  self.busy_ns))
        ]


def pipeline_schedule(
    latencies: list[LayerLatency], num_images: int
) -> PipelineReport:
    """Multi-bank pipeline over a batch of images.

    Banks compute in parallel; the inter-bank transfers (all banks except the
    last) serialize into one window per image slot. An image therefore flows
    with per-bank start offsets of the upstream busy plus transfer times, and
    consecutive images are spaced by the steady-state window:

        steady = max(bank busy) + sum(inter-bank transfers)
        fill   = sum(bank busy) + sum(inter-bank transfers)
        total(B) = fill + (B - 1) * steady
    """
    if num_images < 1:
        raise TimingConfigError("need at least one image")
    if not latencies:
        return PipelineReport(num_images, 0.0, 0.0, 0.0)
    busy = [lat.busy_ns for lat in latencies]
    transfers = [lat.transfer_ns for lat in latencies[:-1]]
    window = sum(transfers)
    steady = max(busy) + window
    fill = sum(busy) + window
    total = fill + (num_images - 1) * steady

    starts = (0.0, *accumulate(b + t for b, t in zip(busy, transfers)))
    return PipelineReport(num_images, fill, steady, total, starts, tuple(busy))


def residual_overhead(
    assignments: list[ResidualAssignment],
    n: int,
    params: TimingParams,
    row_width: int,
) -> float:
    """Extra nanoseconds for skip connections through reserved banks.

    Per skip: two inbound RowClone windows (shortcut and branch output), one
    in-DRAM addition of 4n+1 AAPs, and one outbound transfer window.
    """
    total = 0.0
    for res in assignments:
        rows = -(-res.transfer_bits // row_width)
        window = rows * params.t_rowclone_interbank
        total += 3 * window + (4 * n + 1) * params.t_aap
    return total


# --------------------------------------------------------------------------
# Area and power reference tables
# --------------------------------------------------------------------------

AREA_UM2 = {
    "4096 Adder": 514877,
    "Accumulator": 804,
    "Relu": 431,
    "Maxpool": 983,
    "Batchnorm": 506,
    "Quantize": 91,
}

AREA_PCT = {
    "4096 Adder": 99.47373,
    "Accumulator": 0.15532,
    "Relu": 0.083269,
    "Maxpool": 0.189915,
    "Batchnorm": 0.097759,
    "Quantize": 0.017581,
}

POWER_NW = {
    "4096 Adder": 13200190.9,
    "Accumulator": 177765.864,
    "Relu": 109913.671,
    "Maxpool": 127562.373,
    "Batchnorm": 120541.29,
    "Quantize": 28366.738,
}

POWER_PCT = {
    "4096 Adder": 95.9014,
    "Accumulator": 1.2915,
    "Relu": 0.7985,
    "Maxpool": 0.9268,
    "Batchnorm": 0.8758,
    "Quantize": 0.2061,
}

# 256x8 dual-port SRAM used by the transpose unit, reported separately from
# the component table above.
TRANSPOSE_SRAM_AREA_UM2 = 30534.894


def area_power_report() -> dict:
    return {
        "area_um2": dict(AREA_UM2),
        "area_pct": dict(AREA_PCT),
        "power_nw": dict(POWER_NW),
        "power_pct": dict(POWER_PCT),
        "area_total_um2": sum(AREA_UM2.values()),
        "power_total_nw": round(sum(POWER_NW.values()), 6),
        "transpose_sram_area_um2": TRANSPOSE_SRAM_AREA_UM2,
    }


def energy_estimate_nj(active_ns: float) -> dict:
    """Coarse energy: table power times active time. Derived from the
    component table, not a measured result."""
    return {name: p * active_ns * 1e-9 for name, p in POWER_NW.items()}


# --------------------------------------------------------------------------
# Sweeps
# --------------------------------------------------------------------------

def network_latencies(plan: MappingPlan,
                      params: TimingParams) -> list[LayerLatency]:
    return [layer_latency(place, params) for place in plan.layers]


def precision_sweep(
    net: NetworkDescription,
    n_values: list[int],
    column_size: int,
    params: TimingParams,
) -> list[dict]:
    """Full-pipeline latency at each precision; asserts strict growth in n."""
    series = []
    for n in sorted(n_values):
        if n < 1:
            raise TimingConfigError(f"precision {n} is invalid")
        plan = map_network(replace(net, precision=n), column_size)
        lats = network_latencies(plan, params)
        report = pipeline_schedule(lats, 1)
        series.append(
            {
                "n": n,
                "total_ns": report.total_ns,
                "multiply_ns": math.fsum(l.multiply_ns for l in lats),
            }
        )
    for prev, cur in zip(series, series[1:]):
        if not cur["total_ns"] > prev["total_ns"]:
            raise TimingConfigError(
                f"latency not strictly increasing from n={prev['n']} "
                f"to n={cur['n']}"
            )
    return series
