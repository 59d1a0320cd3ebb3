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

bank_execute runs a layer on packed bank states (see subarray), one chunk
of whole subarrays after another: one multiply per stacked pass drives
every MAC column of the chunk's state at once, and the 2n packed product
rows, MACs in order, are reduced straight from their uint64 words
(packed_mac_sums): the per-word popcounts of the planes are first
folded by the planes' weights 2**p, the shift-add, and one prefix of that
weighted count is then differenced at the MAC boundary columns, whose
words are cut by a table of low-bit masks (_LOW_BITS). The fold runs in
float32 up to FLOAT32_PLANES planes, 18: the significand's 24 bits less
log2 of a word's 64 bits, so every weighted word count is exact; it is
then a BLAS matrix-vector product over blocks of FOLD_BLOCK popcounts.
Above 18 planes it runs in int64, and only there does the prefix wrap mod
2**64. That is the arithmetic the tree and accumulators perform, summed in
the other order; it is tested against build_adder_tree, tree_reduce and,
in tests/reference.py, the shift-add accumulator and mac_plane_sums over
unpacked planes. The row reads the TREE_WIDTH-input tree would need are
counted by layout.tree_loads_per_pass, the same arithmetic and the same
width the timing model uses, from the mapper's physical layout.

The layer's MAC sums stay one int64 array from there on: sfu_stage applies
ReLU, per-channel BatchNorm and Quantize to the whole (C, H, W) or (C,)
tensor, then max-pools it, and bank_execute returns the result in the shape
the next layer reads. The transpose unit has no functional counterpart: the
engine writes the next layer's operands in transposed layout directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .layout import TREE_WIDTH, pow2ceil, tree_loads_per_pass
from .subarray import WORD_BITS, BankState, multiply

BN_FRAC_BITS = 16
BN_SAT_MIN = -(1 << 31)
BN_SAT_MAX = (1 << 31) - 1
# packed_mac_sums folds up to this many planes in float32: a word's weighted
# count, below WORD_BITS * 2**planes, then fits the 24-bit significand
FLOAT32_PLANES = (np.finfo(np.float32).nmant + 1
                  - (WORD_BITS.bit_length() - 1))
# Popcounts one float32 fold block reads, 8,192 words of 8 planes; of 2**14
# to 2**17 the fastest on VGG16's reductions, and a 256 KB float32 copy
FOLD_BLOCK = 1 << 16
# _LOW_BITS[b] keeps the low b bits of a word
_LOW_BITS = ((np.uint64(1) << np.arange(WORD_BITS, dtype=np.uint64))
             - np.uint64(1))


class TreeConfigError(ValueError):
    """Group layout cannot be isolated on the tree; mapper must pad."""


class ShapeError(ValueError):
    """Bit-plane length does not match the tree width."""


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


# --------------------------------------------------------------------------
# Special function units
# --------------------------------------------------------------------------
# Each unit takes an int64 array (or a scalar) and applies element-wise, the
# same arithmetic for every element the hardware unit would see in turn.

def relu(x):
    return np.maximum(x, 0)


def rne_shift(value, shift: int):
    """Round value / 2**shift to nearest, ties to even; exact on int64 for
    0 <= shift < 63."""
    value = np.asarray(value, dtype=np.int64)
    if shift <= 0:
        return value
    q = value >> shift
    r = value & ((1 << shift) - 1)
    half = 1 << (shift - 1)
    return q + ((r > half) | ((r == half) & ((q & 1) == 1)))


@dataclass
class BatchNormParams:
    mu: int = 0
    scale: float = 1.0
    beta: int = 0

    @property
    def scale_fp(self) -> int:
        return int(round(self.scale * (1 << BN_FRAC_BITS)))


def batchnorm(x, params: BatchNormParams):
    """(x - mu) * scale + beta in Q16 fixed point, RNE, saturating.

    Raises OverflowError rather than wrap when an intermediate could leave
    int64.
    """
    x = np.asarray(x, dtype=np.int64)
    scale = params.scale_fp
    if x.size:
        lo, hi = int(x.min()), int(x.max())
        prod = max(abs(lo - params.mu), abs(hi - params.mu)) * abs(scale)
        if prod >> 63 or ((prod >> BN_FRAC_BITS) + 1 + abs(params.beta)) >> 63:
            raise OverflowError(
                f"batchnorm of [{lo}, {hi}] with mu={params.mu}, "
                f"scale_fp={scale}, beta={params.beta} leaves int64"
            )
    scaled = rne_shift((x - params.mu) * scale, BN_FRAC_BITS)
    return np.minimum(np.maximum(scaled + params.beta, BN_SAT_MIN), BN_SAT_MAX)


def quantize(x, n: int, shift: int = 0):
    """Right-shift with round-to-nearest-even, clamp into n unsigned bits;
    x itself is never written, though rne_shift returns it at shift 0."""
    return np.minimum(np.maximum(rne_shift(x, shift), 0), (1 << n) - 1)


def maxpool(x: np.ndarray, window: int) -> np.ndarray:
    """Max over non-overlapping window x window tiles of a (C, H, W) array,
    stride window; trailing rows and columns that do not fill a tile drop.
    Taken as the running maximum of the window**2 strided slices, one per
    offset within a tile."""
    _, h, w = x.shape
    h, w = h // window * window, w // window * window
    out = x[:, :h:window, :w:window].copy()
    for dy in range(window):
        for dx in range(window):
            np.maximum(out, x[:, dy:h:window, dx:w:window], out=out)
    return out


@dataclass
class SfuParams:
    """Per-layer SFU configuration; None members act as pass-through."""

    batchnorm: list[BatchNormParams] | None = None   # channel c: [c % len]
    quantize_width: int | None = None
    quantize_shift: int = 0
    pool_window: int | None = None


def sfu_stage(sums: np.ndarray, sfu: SfuParams) -> np.ndarray:
    """The SFU chain in fixed order on a layer's MAC sums, (C, H, W) for conv
    or (C,) for linear: ReLU, per-channel BatchNorm, Quantize, then max
    pooling (conv only)."""
    v = relu(sums)
    if sfu.batchnorm is not None:
        bns = sfu.batchnorm
        rows = v.reshape(len(v), -1)
        v = np.stack([batchnorm(row, bns[c % len(bns)])
                      for c, row in enumerate(rows)]).reshape(v.shape)
    if sfu.quantize_width is not None:
        v = quantize(v, sfu.quantize_width, sfu.quantize_shift)
    if sfu.pool_window:
        v = maxpool(v, sfu.pool_window)
    return v


# --------------------------------------------------------------------------
# Whole-bank execution
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BankAccounting:
    aap_total: int
    plane_reads: int


def packed_mac_sums(rows: np.ndarray, macs: int, mac_size: int) -> np.ndarray:
    """Dot products from packed product rows, (2n, words) uint64, whose
    first macs * mac_size columns hold the MACs in order; the reference on
    unpacked planes is mac_plane_sums in tests/reference.py.

    The planes are folded by their weights 2**p before any prefix is taken:
    the uint8 popcounts of every word, weighted and summed over the planes,
    give one prefix of the row's shift-added count at each word boundary.
    A MAC's sum is the difference of that prefix at its two boundary
    columns, each the whole words before column c plus the low c % 64 bits
    of its word (_LOW_BITS[c % 64]), folded by the same weights. Bits past
    the last MAC are never counted. A boundary on the row's end has
    c % 64 == 0, so it reads the last word under an all-zero mask.

    A word's weighted count is an integer below 64 * 2**planes. Up to
    FLOAT32_PLANES planes that fits float32's significand, so the fold runs
    on float32 weights, exact in any summation order, a block of words at
    a time (_fold), and the prefix is taken in int64. Above that the fold
    stays in int64: its prefix wraps mod 2**64 once the row's running
    total passes int64, and the differences stay exact whenever each MAC
    sum fits in int64.
    """
    weights = np.left_shift(1, np.arange(len(rows), dtype=np.int64))
    if len(rows) <= FLOAT32_PLANES:
        weights = weights.astype(np.float32)
    prefix = np.zeros(rows.shape[1] + 1, dtype=np.int64)
    np.cumsum(_fold(np.bitwise_count(rows), weights), dtype=np.int64,
              out=prefix[1:])
    bounds = np.arange(macs + 1) * mac_size
    # WORD_BITS is a power of two; np.divmod by it runs 2-4x slower
    word, bit = bounds >> (WORD_BITS.bit_length() - 1), bounds & (WORD_BITS - 1)
    tail = np.take(rows, np.minimum(word, rows.shape[1] - 1), axis=1)
    tail &= _LOW_BITS[bit]
    tail = np.bitwise_count(tail)
    ends = prefix[word]
    ends += _fold(tail, weights).astype(np.int64, copy=False)
    return ends[1:] - ends[:-1]


def _fold(counts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """weights @ counts for uint8 popcounts, (planes, words): int64 weights
    by numpy's einsum, float32 ones by BLAS over blocks of about FOLD_BLOCK
    counts, so the float32 copy the product reads is one block, never the
    whole row."""
    if weights.dtype == np.int64:
        return np.einsum("pw,p->w", counts, weights)
    out = np.empty(counts.shape[1], dtype=np.float32)
    step = max(1, FOLD_BLOCK // len(counts))
    for lo in range(0, counts.shape[1], step):
        np.matmul(weights, counts[:, lo : lo + step], out=out[lo : lo + step])
    return out


def _layer_sums(chunks: Iterable[tuple[BankState, range]],
                place) -> tuple[np.ndarray, int]:
    """MAC sums, pass-major, and AAPs charged; no state outlives the call."""
    mac_sums = np.zeros(place.macs_total, dtype=np.int64)
    aaps = 0
    for state, subarrays in chunks:
        held = place.pass_macs(subarrays)
        for p in range(place.passes):
            events = multiply(state, pair=p)
            aaps += len(events) * len(subarrays)
            product = state.product_rows
            base = p * place.macs_per_pass
            mac_sums[base + held.start : base + held.stop] = packed_mac_sums(
                state.cells[product.start : product.stop], len(held),
                place.mac_size)
    return mac_sums, aaps


def bank_execute(
    chunks: Iterable[tuple[BankState, range]],
    place,
    sfu_params: SfuParams,
) -> tuple[np.ndarray, BankAccounting]:
    """Run place's layer on its bank: multiply, reduce, accumulate, SFU chain.

    chunks are (state, subarrays) pairs covering consecutive whole
    subarrays of the layer in order, each state (see subarray.BankState)
    holding the operands of those subarrays' MACs from column 0, placed in
    MAC order as the LayerPlacement lays them out; an iterable lets the
    caller place each chunk into one reused state after the last has run.
    Stacked operand pairs execute as sequential passes, one multiply per
    pass and chunk, charged to every subarray of the chunk. Returns the
    post-SFU output tensor, (O, oh', ow') for conv and (w2,) for linear,
    plus the phase accounting; plane reads are those of the
    TREE_WIDTH-input tree.
    """
    mac_sums, aaps = _layer_sums(chunks, place)
    layer = place.layer
    if layer.kind == "conv":
        mac_sums = mac_sums.reshape(layer.O, *layer.output_hw())
    return sfu_stage(mac_sums, sfu_params), BankAccounting(
        aaps, 2 * place.precision * place.passes
        * tree_loads_per_pass(place, TREE_WIDTH))
