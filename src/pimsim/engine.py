"""End-to-end functional execution: place operands, run every bank, compare
against the reference oracle, one layer at a time.

Synthetic workloads draw seeded uniform n-bit integers, the input image first
and then each layer's weights as its turn comes, in the smallest unsigned type
that holds n bits. Each layer runs on one packed bank state (see subarray):
the rows the layer touches, and mac_size columns per MAC of its subarrays in
MAC order, bit-packed. The subarray and column a MAC occupies only matter for
cost, which the mapper and the accounting compute. Each cell row of the
transposed layout is built from packed uint64 words: the activations are
gathered im2col-style and packed into n bit-planes once per layer, and a
chunk's activation rows are a cyclic window of them; its weight rows, one
block per stacked pair, tile and join the bit patterns of the filters it
touches (place_operands). bank_execute runs one multiply per pass, reduces the
packed product rows by popcount, accumulates and runs the SFU chain. A layer
wider than BANK_CHUNK_COLUMNS runs in chunks of whole subarrays, placed in
turn into the layer's one state, sized for the first and widest chunk: the
multiply reads only the operand rows that placement rewrites. Each layer's
output, fed by the engine's previous one, is compared with the oracle's, and
its AAPs with the timing model's, as it finishes: that is the run's verdict.
So a run holds one layer's weights and one activation chain. The layer and
every geometry parameter (rows, column size, precision, passes) are read
from the layer's placement; the mapper owns their checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle
from .datapath import BankAccounting, SfuParams, bank_execute
from .layout import ConfigurationError, rows_needed
from .mapper import (
    LayerPlacement,
    LayerSpec,
    MappingPlan,
    NetworkDescription,
    mac_size,
)
from .subarray import (
    WORD,
    WORD_BITS,
    BankState,
    OperandRangeError,
    new_bank,
    word_count,
)
from .timing import layer_aaps

# Subarray columns one packed bank state may cover. A layer with more runs in
# chunks of whole subarrays, which bounds the cell and placement memory.
BANK_CHUNK_COLUMNS = 1 << 21
# Positions of a row _pack_planes masks at a time; a multiple of 8, so each
# block packs to whole bytes.
PACK_BLOCK = 1 << 20


@dataclass(frozen=True)
class FunctionalResult:
    """The accounting of each layer run, in order, and the first mismatch of
    a layer's values or AAPs. A layer's output tensor is not kept: it lives
    until the next layer has read it."""

    accounting: list[BankAccounting]
    mismatch: str | None = None

    @property
    def passed(self) -> bool:
        return self.mismatch is None

    def total_aap(self) -> int:
        return sum(acct.aap_total for acct in self.accounting)


def default_quant_shift(layer: LayerSpec, n: int) -> int:
    """Deterministic requantization shift: scale the worst-case MAC sum back
    into n bits."""
    worst = mac_size(layer) * ((1 << n) - 1) ** 2
    return max(0, worst.bit_length() - n)


def _draw(rng: np.random.Generator, n: int, shape: tuple) -> np.ndarray:
    """Uniform n-bit values in the smallest unsigned type that holds them."""
    return rng.integers(0, 1 << n, size=shape,
                        dtype=np.min_scalar_type((1 << n) - 1))


def synth_weights(rng: np.random.Generator, layer: LayerSpec, n: int) -> np.ndarray:
    if layer.kind == "conv":
        return _draw(rng, n, (layer.O, layer.I, layer.K, layer.L))
    return _draw(rng, n, (layer.w2, layer.w1))


def synth_input(rng: np.random.Generator, layer: LayerSpec, n: int) -> np.ndarray:
    if layer.kind == "conv":
        return _draw(rng, n, (layer.I, layer.H, layer.W))
    return _draw(rng, n, (layer.w1,))


def build_bank(place: LayerPlacement,
               subarrays: range) -> list[BankState]:
    """An all-zero packed state for the given subarrays of the layer, or
    any chunk of no more MACs: only the rows the layer touches and mac_size
    columns per MAC; returned as a one-element list because the benchmark's
    traced run (`_count_alloc` in bench/tracing.py) iterates over what this
    returns. Rows, width and precision come from the placement, whose row
    budget the mapper has checked.
    """
    held = place.pass_macs(subarrays)
    return [new_bank(rows_needed(place.precision, place.passes),
                     len(held) * place.mac_size, place.precision)]


def _operand_bytes(values, n: int) -> np.ndarray:
    """Operands in the smallest unsigned type that holds n bits (uint8 for
    n <= 8)."""
    values = np.asarray(values)
    if values.size and (values.min() < 0 or values.max() >= 1 << n):
        raise OperandRangeError(f"operands must fit {n} unsigned bits")
    return values.astype(np.min_scalar_type((1 << n) - 1), copy=False)


def _im2col(layer: LayerSpec, x: np.ndarray) -> np.ndarray:
    """Activations of every output position, (positions, mac_size), in the
    column order of a MAC: input channel, kernel row, kernel column; copied
    one kernel offset at a time, so nothing larger than the result is built."""
    if layer.kind == "linear":
        return x.reshape(1, -1)
    oh, ow = layer.output_hw()
    p, s = layer.p, layer.s
    xp = np.zeros((layer.I, layer.H + 2 * p, layer.W + 2 * p), dtype=x.dtype)
    xp[:, p : p + layer.H, p : p + layer.W] = x.reshape(layer.I, layer.H,
                                                        layer.W)
    cols = np.empty((oh, ow, layer.I, layer.K, layer.L), dtype=x.dtype)
    for ky in range(layer.K):
        for kx in range(layer.L):
            cols[..., ky, kx] = xp[:, ky : ky + s * oh : s,
                                   kx : kx + s * ow : s].transpose(1, 2, 0)
    return cols.reshape(oh * ow, -1)


def _pack_planes(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the bit-planes of n-bit values along their last axis into out,
    (n, ..., words), LSB plane first, and return it; the bytes past the
    values' own are left as they were. Each plane of a block of
    PACK_BLOCK positions is masked out into one reused buffer and packed,
    a nonzero value packing as a set bit, so the buffer never holds more
    than a block of every row."""
    raw = out.view(np.uint8)
    buf = np.empty_like(values[..., :PACK_BLOCK])
    for lo in range(0, values.shape[-1], PACK_BLOCK):
        block = values[..., lo : lo + PACK_BLOCK]
        mask = buf[..., : block.shape[-1]]
        packed = raw[..., lo // 8 : lo // 8 + -(-block.shape[-1] // 8)]
        for bit in range(len(out)):
            np.bitwise_and(block, 1 << bit, out=mask)
            packed[bit] = np.packbits(mask, axis=-1, bitorder="little")
    return out


def _mask(words: np.ndarray, bits: int) -> None:
    """Clear every bit of each row from bit `bits` on."""
    q, r = divmod(bits, WORD_BITS)
    if r:
        words[..., q] &= np.uint64((1 << r) - 1)
        q += 1
    words[..., q:] = 0


def _funnel(src: np.ndarray, s: int, out: np.ndarray) -> None:
    """out = each row of src from bit s (below 64) on, a word at a time:
    (w[i] >> s) | (w[i + 1] << (64 - s)), w[i + 1] taken as 0 past the end
    of src."""
    w = out.shape[-1]
    if not s:
        out[...] = src[..., :w]
        return
    np.right_shift(src[..., :w], s, out=out)
    high = src[..., 1 : w + 1]
    out[..., : high.shape[-1]] |= high << (WORD_BITS - s)


def _or_at(dst: np.ndarray, src: np.ndarray, bit: int) -> None:
    """OR each row of src into dst from bit offset `bit`, clipped to dst's
    words."""
    q, r = divmod(bit, WORD_BITS)
    m = min(src.shape[-1], dst.shape[-1] - q)
    if not r:
        dst[..., q : q + m] |= src[..., :m]
        return
    dst[..., q : q + m] |= src[..., :m] << r
    m = min(src.shape[-1], dst.shape[-1] - q - 1)
    dst[..., q + 1 : q + 1 + m] |= src[..., :m] >> (WORD_BITS - r)


def _cyclic_window(pattern: np.ndarray, period: int, start: int,
                   out: np.ndarray, bits: int) -> None:
    """out = bits [start, start + bits) of each row's `period`-bit pattern
    repeated without end, the rest of out cleared (start < period; the
    pattern's bits past period are zero).

    The window's first period is the pattern turned by start bits: one
    funnel shift from bit start, and the pattern ORed on where it wraps.
    The window then doubles in place: what is built is ORed on at its end
    by a funnel shift until that end falls on a word boundary, and copied
    on word for word from then on. No temporary is larger than the
    pattern or half the window.
    """
    head = word_count(min(period - start, bits))
    _funnel(pattern[..., start // WORD_BITS :], start % WORD_BITS,
            out[..., :head])
    out[..., head:] = 0
    if start and period - start < bits:
        _or_at(out, pattern, period - start)
    built = period
    while built < bits:
        src = out[..., : word_count(min(built, bits - built))]
        if built % WORD_BITS:
            _or_at(out, src, built)
        else:
            q = built // WORD_BITS
            out[..., q : q + src.shape[-1]] = src
        built *= 2
    _mask(out, bits)


def _join(dst: np.ndarray, blocks: np.ndarray, first: int,
          period: int) -> None:
    """OR block i of blocks, (..., count, words) of `period` bits each,
    into dst from bit first + i * period; every block must end inside dst.
    Blocks of whole words lie back to back and are joined as one run (numpy
    would copy a 3-D strided view that it writes in place); others one at a
    time."""
    if not period % WORD_BITS:
        _or_at(dst, blocks.reshape(*blocks.shape[:-2], -1), first)
        return
    for i in range(blocks.shape[-2]):
        _or_at(dst, blocks[..., i, :], first + i * period)


def prepare_operands(place: LayerPlacement, x: np.ndarray,
                     w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A layer's operands as place_operands takes them: the n bit-planes of
    its im2col activations, (n, word_count(channel_positions * mac_size))
    words holding every output position's MAC operands in MAC column order,
    and the weights in the smallest unsigned type of n bits, (output
    channels, mac_size)."""
    n = place.precision
    acts = _im2col(place.layer, _operand_bytes(x, n)).reshape(-1)
    planes = np.zeros((n, word_count(acts.size)), dtype=WORD)
    return (_pack_planes(acts, planes),
            _operand_bytes(w, n).reshape(-1, place.mac_size))


def _cell_rows(state: BankState, rows: tuple[int, ...]) -> np.ndarray:
    return state.cells[rows[0] : rows[-1] + 1]


def place_operands(
    state: BankState,
    place: LayerPlacement,
    subarrays: range,
    acts: np.ndarray,
    weights: np.ndarray,
) -> None:
    """Write every operand of the MACs the given subarrays hold into state,
    n-bit values one per column in MAC order, LSB in the first row of each
    block; the rest of every operand row is cleared, so a state that held
    another chunk takes this one as a fresh state would.

    acts and weights are the layer's operands from prepare_operands. Every
    pass has the same layout (LayerPlacement.pass_macs) and, since passes
    split the output channels, the same activations: in channel-major MAC
    order a chunk's activation rows are a cyclic window of the packed
    im2col planes, whose period is channel_positions * mac_size bits. A
    weight row runs through filters, each filter's mac_size-bit pattern
    repeated channel_positions times: the filters a chunk touches are
    packed and tiled, those whose whole stretch the row holds joined end to
    end, and one cut by the row's start or end tiled to its part alone; a
    linear layer's filters hold one pattern each. The packing buffers are
    allocated once per chunk and reused by every pass.
    """
    n, size, positions = place.precision, place.mac_size, place.channel_positions
    period = positions * size
    held = place.pass_macs(subarrays)
    bits = len(held) * size
    _cyclic_window(acts, period, held.start % positions * size,
                   _cell_rows(state, state.activation_rows()), bits)
    # passes split the output channels, so every pass's row opens at the
    # same phase of a filter and runs through as many filters; filter f0's
    # stretch opens `start` bits into it, at phase 0 of its pattern since
    # the row starts on a MAC boundary; the filters in `full` have their
    # whole stretch in the row, and the last one, if the row cuts it, is
    # tiled into `tail` and ORed on from bit `at`
    f0, phase = divmod(held.start, positions)
    count = -(-(held.start + len(held)) // positions) - f0
    start = phase * size
    full = range(1 if phase else 0, (start + bits) // period)
    last = count - 1
    at = last * period - start if last and last not in full else bits
    patterns = np.zeros((n, count, word_count(size)), dtype=WORD)
    blocks = np.empty((n, len(full), word_count(period)), dtype=WORD)
    tail = np.empty((n, word_count(bits - at)), dtype=WORD)
    for p in range(place.passes):
        f = (p * place.macs_per_pass + held.start) // positions
        rows = _cell_rows(state, state.weight_rows(p))
        _pack_planes(weights[f : f + count], patterns)
        if 0 in full:
            rows[...] = 0
        else:
            _cyclic_window(patterns[:, 0], size, 0, rows,
                           min(period - start, bits))
        if full:
            _cyclic_window(patterns[:, full.start : full.stop], size, 0,
                           blocks, period)
            _join(rows, blocks, full.start * period - start, period)
        if at < bits:
            _cyclic_window(patterns[:, last], size, 0, tail, bits - at)
            _or_at(rows, tail, at)


def run_layer(place: LayerPlacement, x: np.ndarray, w: np.ndarray,
              sfu: SfuParams) -> tuple[np.ndarray, BankAccounting]:
    step = max(1, BANK_CHUNK_COLUMNS // place.column_size)
    acts, weights = prepare_operands(place, x, w)

    def placed():
        (state,) = build_bank(place, range(min(step, place.subarrays_used)))
        for first in range(0, place.subarrays_used, step):
            subarrays = range(first, min(first + step, place.subarrays_used))
            place_operands(state, place, subarrays, acts, weights)
            yield state, subarrays

    return bank_execute(placed(), place, sfu)


def run_functional(
    net: NetworkDescription,
    plan: MappingPlan,
    seed: int,
) -> FunctionalResult:
    """Simulate the network one layer at a time and cross-check each layer
    against the oracle and the timing model.

    The plan, map_network's for this network, carries all the geometry.
    For each layer in turn: draw its weights, run oracle.layer_ref and
    run_layer on the engine's previous output, compare the two, then the
    executed AAPs with subarrays_used * timing.layer_aaps. Returns the
    accounting of the layers run; the first layer that differs ends the run
    before the next is drawn, mismatch naming it and its first divergent
    element or two counts. The layers must chain (cli.run checks it). Raises
    ConfigurationError, before any layer runs, if a layer's dot products
    could leave int64, the width of the MAC sums here and in the oracle.
    """
    n = net.precision
    for idx, place in enumerate(plan.layers):
        terms = place.mac_size
        if 2 * n + terms.bit_length() > 63:
            raise ConfigurationError(
                f"layer {idx}: {terms}-term dot products at precision {n} "
                f"can overflow the 64-bit MAC sums (needs 2 * precision + "
                f"bit length of {terms} <= 63)"
            )
    rng = np.random.default_rng(seed)
    if not net.layers:
        return FunctionalResult([])
    x = synth_input(rng, net.layers[0], n)
    accounting: list[BankAccounting] = []
    for idx, place in enumerate(plan.layers):
        layer = place.layer
        w = synth_weights(rng, layer, n)
        shift = default_quant_shift(layer, n)
        ref = oracle.layer_ref(layer, x, w, None, (n, shift))
        x, acct = run_layer(place, x, w, SfuParams(
            quantize_width=n, quantize_shift=shift, pool_window=layer.pool))
        accounting.append(acct)
        # one multiply trace per pass runs across every subarray's columns
        # and is charged to each: the model's count, exactly
        model = place.subarrays_used * layer_aaps(place)
        if x.shape != ref.shape:
            mismatch = f"layer {idx}: shape {x.shape} != oracle {ref.shape}"
        elif not np.array_equal(x, ref):
            got, want = x.reshape(-1), ref.reshape(-1)
            at = int(np.nonzero(got != want)[0][0])
            mismatch = (f"layer {idx}: element {at} is {int(got[at])}, "
                        f"oracle says {int(want[at])}")
        elif acct.aap_total != model:
            mismatch = (f"traces logged {acct.aap_total} AAPs, timing model "
                        f"expected {model}, in layer {idx}")
        else:
            del ref    # x, equal to it, is all the next layer reads
            continue
        return FunctionalResult(accounting, mismatch)
    return FunctionalResult(accounting)
