"""Per-bank digital datapath behind the sense amplifiers.

A reconfigurable binary adder tree reduces one product bit-plane (one row
read) per step into per-MAC partial sums; shift-add accumulators rebuild the
full dot product across the 2n planes; the result then walks the SFU chain in
fixed order: ReLU, BatchNorm, Quantize, Pooling, Transpose.

Tree nodes either add their two inputs or forward the left one. The first
tree level has reconfigurable input routing, which is what lets contiguously
mapped MAC columns be presented as power-of-two aligned groups; slots outside
any group read zero. Bit widths grow by one per level (tracked implicitly,
Python integers never overflow).

bank_execute runs a layer on packed bank states (see subarray): one multiply
replay per stacked pass drives every subarray of the state at once, and the
per-MAC sums come from the unpacked product bit-planes, summed per MAC and
shift-added. That is the arithmetic the tree and accumulators perform;
build_adder_tree, tree_reduce and accumulate_bitplane are the hardware
reference it is tested against. The row reads the tree would need are
counted by tree_loads_per_pass, the same arithmetic the timing model uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .subarray import SubarrayState, multiply, unpack_columns

BN_FRAC_BITS = 16
BN_SAT_MIN = -(1 << 31)
BN_SAT_MAX = (1 << 31) - 1


class TreeConfigError(ValueError):
    """Group layout cannot be isolated on the tree; mapper must pad."""


class ShapeError(ValueError):
    """Bit-plane length does not match the tree width."""


class SequencingError(RuntimeError):
    """Bit-planes presented to an accumulator out of order."""


class CapacityError(ValueError):
    """Transpose buffer overflow or underflow."""


def pow2ceil(x: int) -> int:
    return 1 << max(0, (x - 1).bit_length())


def tree_loads_per_pass(place, tree_width: int) -> int:
    """Row-buffer loads needed to reduce one pass of a LayerPlacement through
    the shared tree.

    A MAC wider than the tree folds through it in tree-wide pieces, one load
    each. Narrower MACs are padded to a power of two and packed into aligned
    slots, tree_width // pow2ceil(mac_size) per load; a load never spans two
    subarrays.
    """
    if place.macs_per_pass == 0:
        return 0
    ms = place.mac_size
    if ms > tree_width:
        return place.macs_per_pass * -(-ms // tree_width)
    per_load = tree_width // pow2ceil(ms)
    full, rem = divmod(place.macs_per_pass, place.macs_per_subarray)
    loads = full * -(-place.macs_per_subarray // per_load)
    if rem:
        loads += -(-rem // per_load)
    return loads


@dataclass
class TreeGroup:
    index: int
    size: int
    padded: int
    start: int          # aligned slot of the first input
    tap_level: int      # 0 = leaf, levels from the inputs
    tap_node: int


@dataclass
class AdderTreeConfig:
    num_inputs: int
    levels: int
    node_modes: list[np.ndarray]    # per level (1-based), True = add
    groups: list[TreeGroup]
    group_boundaries: list[tuple[int, int]]
    tap_points: list[tuple[int, int]]


def build_adder_tree(num_inputs: int, mac_sizes: list[int]) -> AdderTreeConfig:
    """Configure node modes so each MAC group reduces independently.

    Groups are padded to the next power of two and placed at aligned slots, so
    no two groups ever share an add node; everything above a group's tap stays
    in forward mode.
    """
    if num_inputs < 1 or num_inputs & (num_inputs - 1):
        raise TreeConfigError(f"tree width {num_inputs} is not a power of two")
    levels = num_inputs.bit_length() - 1
    modes = [np.zeros(num_inputs >> lvl, dtype=bool) for lvl in range(1, levels + 1)]
    groups: list[TreeGroup] = []
    cursor = 0
    for idx, size in enumerate(mac_sizes):
        if size < 1:
            raise TreeConfigError(f"group {idx} has size {size}")
        if size > num_inputs:
            raise TreeConfigError(
                f"group {idx} of {size} exceeds the {num_inputs}-input tree"
            )
        padded = pow2ceil(size)
        start = -(-cursor // padded) * padded
        if start + padded > num_inputs:
            raise TreeConfigError(
                f"group {idx} cannot be isolated by forwarding; mapper must pad "
                f"({start + padded} > {num_inputs})"
            )
        tap_level = padded.bit_length() - 1
        for lvl in range(1, tap_level + 1):
            lo = start >> lvl
            hi = (start + padded) >> lvl
            modes[lvl - 1][lo:hi] = True
        groups.append(
            TreeGroup(idx, size, padded, start, tap_level, start >> tap_level)
        )
        cursor = start + padded
    return AdderTreeConfig(
        num_inputs=num_inputs,
        levels=levels,
        node_modes=modes,
        groups=groups,
        group_boundaries=[(g.start, g.start + g.size) for g in groups],
        tap_points=[(g.tap_level, g.tap_node) for g in groups],
    )


def tree_reduce(config: AdderTreeConfig, bitplane) -> np.ndarray:
    """Feed one bit-plane through the tree; return each group's tap value.

    For a bit-plane this is the popcount of every group's member bits.
    """
    plane = np.asarray(bitplane, dtype=np.int64)
    if plane.shape != (config.num_inputs,):
        raise ShapeError(
            f"bit-plane of {plane.shape} does not match {config.num_inputs} inputs"
        )
    level_values = [plane]
    vals = plane
    for lvl in range(1, config.levels + 1):
        left = vals[0::2]
        right = vals[1::2]
        vals = np.where(config.node_modes[lvl - 1], left + right, left)
        level_values.append(vals)
    return np.array(
        [level_values[g.tap_level][g.tap_node] for g in config.groups],
        dtype=np.int64,
    )


@dataclass
class AccumulatorState:
    value: int = 0
    bit_counter: int = 0


def accumulate_bitplane(
    acc: AccumulatorState, group_sum: int, bit_idx: int
) -> AccumulatorState:
    """Shift-add one plane sum: value += sum << bit_idx, planes in order."""
    if bit_idx != acc.bit_counter:
        raise SequencingError(
            f"plane {bit_idx} arrived while expecting {acc.bit_counter}"
        )
    acc.value += int(group_sum) << bit_idx
    acc.bit_counter += 1
    return acc


# --------------------------------------------------------------------------
# Special function units
# --------------------------------------------------------------------------

def relu(x: int) -> int:
    return x if x > 0 else 0


def rne_shift(value: int, shift: int) -> int:
    """Round value / 2**shift to nearest, ties to even. Exact for ints."""
    if shift <= 0:
        return value
    q, r = divmod(value, 1 << shift)
    half = 1 << (shift - 1)
    if r > half or (r == half and q & 1):
        q += 1
    return q


@dataclass
class BatchNormParams:
    mu: int = 0
    scale: float = 1.0
    beta: int = 0

    @property
    def scale_fp(self) -> int:
        return int(round(self.scale * (1 << BN_FRAC_BITS)))


def batchnorm(x: int, params: BatchNormParams) -> int:
    """(x - mu) * scale + beta in Q16 fixed point, RNE, saturating."""
    scaled = rne_shift((x - params.mu) * params.scale_fp, BN_FRAC_BITS)
    out = scaled + params.beta
    return min(max(out, BN_SAT_MIN), BN_SAT_MAX)


def quantize(x: int, n: int, shift: int = 0) -> int:
    """Right-shift with round-to-nearest-even, clamp into n unsigned bits."""
    q = rne_shift(x, shift)
    return min(max(q, 0), (1 << n) - 1)


@dataclass
class PoolState:
    window: int | None = None   # None = pass-through
    count: int = 0
    best: int = 0


def maxpool_step(pool_state: PoolState, x: int) -> int | None:
    """Feed one element; emit the running maximum once the window fills."""
    if pool_state.window is None or pool_state.window == 1:
        return x
    if pool_state.count == 0 or x > pool_state.best:
        pool_state.best = x
    pool_state.count += 1
    if pool_state.count == pool_state.window:
        out = pool_state.best
        pool_state.count = 0
        pool_state.best = 0
        return out
    return None


@dataclass
class SfuParams:
    """Per-layer SFU configuration; None members act as pass-through."""

    batchnorm: list[BatchNormParams] | None = None   # one entry per channel
    quantize_width: int | None = None
    quantize_shift: int = 0
    pool_window: int | None = None

    def bn_for(self, channel: int) -> BatchNormParams | None:
        if self.batchnorm is None:
            return None
        return self.batchnorm[channel % len(self.batchnorm)]


@dataclass
class TransposeBuffer:
    """SRAM grid written word-per-row, read word-per-column.

    Element (i, j) of write word i lands at grid[i][j] and is read back as
    bit i of read word j, so a full write/read cycle is a bit transpose.
    """

    rows: int = 256
    width: int = 8
    grid: np.ndarray = field(default=None)
    write_cursor: int = 0
    read_cursor: int = 0

    def __post_init__(self):
        if self.grid is None:
            self.grid = np.zeros((self.rows, self.width), dtype=np.uint8)


def transpose_write(buf: TransposeBuffer, word: int) -> None:
    if buf.write_cursor >= buf.rows:
        raise CapacityError(f"buffer full after {buf.rows} words")
    if word < 0 or word >> buf.width:
        raise CapacityError(f"word {word} wider than {buf.width} bits")
    for k in range(buf.width):
        buf.grid[buf.write_cursor, k] = (word >> k) & 1
    buf.write_cursor += 1


def transpose_read(buf: TransposeBuffer) -> int:
    if buf.read_cursor >= buf.width:
        raise CapacityError(f"all {buf.width} columns already read")
    col = buf.read_cursor
    buf.read_cursor = col + 1
    word = 0
    for i in range(buf.rows):
        word |= int(buf.grid[i, col]) << i
    return word


# --------------------------------------------------------------------------
# Whole-bank execution
# --------------------------------------------------------------------------

@dataclass
class BankAccounting:
    aap_total: int = 0
    multiplies: int = 0
    plane_reads: int = 0


def _sfu_chain(
    mac_values: list[int], channels: list[int], sfu: SfuParams
) -> list[int]:
    out = []
    for value, ch in zip(mac_values, channels):
        v = relu(value)
        bn = sfu.bn_for(ch)
        if bn is not None:
            v = batchnorm(v, bn)
        if sfu.quantize_width is not None:
            v = quantize(v, sfu.quantize_width, sfu.quantize_shift)
        out.append(v)
    return out


def mac_plane_sums(planes: np.ndarray) -> np.ndarray:
    """Dot products from product bit-planes grouped (2n, macs, mac_size).

    Each plane is summed per MAC (the tree's popcount per group), then the
    2n plane sums are shift-added (the accumulator).
    """
    sums = planes.sum(axis=2, dtype=np.int64)
    shifts = np.arange(planes.shape[0], dtype=np.int64)[:, None]
    return (sums << shifts).sum(axis=0)


def bank_execute(
    subarrays: Iterable[SubarrayState],
    plan_slice,
    layer,
    sfu_params: SfuParams,
    tree_width: int | None = None,
) -> tuple[list[int], BankAccounting]:
    """Run one layer on one bank: multiply, reduce, accumulate, SFU chain.

    subarrays are packed bank states (see subarray.SubarrayState) covering
    consecutive whole subarrays of the layer in order, with operands already
    placed per plan_slice (a LayerPlacement); an iterable lets the caller
    build them one at a time. Stacked operand pairs execute as sequential
    passes, one multiply replay per pass and state, charged to every subarray
    it covers. Returns the post-SFU outputs in (channel, pooled position)
    order plus the phase accounting. The tree defaults to pow2ceil of one
    subarray's width.
    """
    acct = BankAccounting()
    ms = plan_slice.mac_size
    mps = plan_slice.macs_per_subarray
    mpp = plan_slice.macs_per_pass
    mac_sums = np.zeros(plan_slice.macs_total, dtype=np.int64)
    sub_cols = n = None
    for state in subarrays:
        n = state.n
        subs = len(state.subarrays)
        sub_cols = state.cols // subs
        held = plan_slice.pass_macs(state.subarrays)
        for p in range(plan_slice.passes):
            events = multiply(state, pair=p)
            acct.aap_total += len(events) * subs
            acct.multiplies += subs
            planes = unpack_columns(
                state.cells[list(state.product_rows)], state.cols
            ).reshape(2 * n, subs, sub_cols)[:, :, : mps * ms]
            grouped = planes.reshape(2 * n, subs * mps, ms)[:, : len(held)]
            base = p * mpp
            mac_sums[base + held.start : base + held.stop] = mac_plane_sums(
                grouped
            )
    if n is None:
        return [], acct
    width = tree_width or pow2ceil(sub_cols)
    acct.plane_reads = (
        2 * n * plan_slice.passes * tree_loads_per_pass(plan_slice, width)
    )

    ordered_ids = range(plan_slice.macs_total)
    values = mac_sums.tolist()
    channels = [plan_slice.mac_channel(i) for i in ordered_ids]
    post_sfu = _sfu_chain(values, channels, sfu_params)

    if sfu_params.pool_window and sfu_params.pool_window > 1:
        outputs = _pool_outputs(post_sfu, ordered_ids, plan_slice, layer, sfu_params)
    else:
        outputs = post_sfu
    return outputs, acct


def _pool_outputs(values, mac_ids, plan_slice, layer, sfu):
    """Max-pool conv outputs per channel over w x w windows, stride w.

    Positions are regrouped so each window's elements reach the pooling unit
    consecutively; trailing rows or columns that do not fill a window drop.
    """
    w = sfu.pool_window
    oh, ow = layer.output_hw()
    by_mac = dict(zip(mac_ids, values))
    pooled = []
    positions = oh * ow
    for ch in range(layer.O):
        base = ch * positions
        for py in range(oh // w):
            for px in range(ow // w):
                pool = PoolState(window=w * w)
                out = None
                for dy in range(w):
                    for dx in range(w):
                        q = (py * w + dy) * ow + (px * w + dx)
                        out = maxpool_step(pool, by_mac[base + q])
                pooled.append(out)
    return pooled
