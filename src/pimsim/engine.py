"""End-to-end functional execution: place operands, run every bank, compare
against the reference oracle.

Synthetic workloads draw seeded uniform n-bit integers for the input image
and all weights, in the smallest unsigned type that holds n bits. Each layer
runs on one packed bank state (see subarray): the rows the layer touches, and
mac_size columns per MAC of its subarrays in MAC order, bit-packed. The
subarray and column a MAC occupies only matter for cost, which the mapper and
the accounting compute. Operands are gathered im2col-style once per layer;
each operand bit-plane is then shifted out and packed straight into its cell
row (the transposed layout), activations once, weights once per stacked
pair. bank_execute runs one multiply per pass, reduces the packed product
rows by popcount, accumulates and runs the SFU chain. A
layer wider than BANK_CHUNK_COLUMNS runs in chunks of whole subarrays, built
one at a time. Each layer's output tensor is compared with the oracle's as it
is and feeds the next layer unchanged. The layer and every geometry
parameter (rows, column size, precision, passes) are read from the layer's
placement; the mapper owns their checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle
from .datapath import BankAccounting, SfuParams, bank_execute
from .mapper import (
    LayerPlacement,
    LayerSpec,
    MappingPlan,
    NetworkDescription,
    mac_size,
)
from .subarray import (
    ConfigurationError,
    OperandRangeError,
    SubarrayState,
    new_subarray,
    rows_needed,
)

# Subarray columns one packed bank state may cover. A layer with more runs in
# chunks of whole subarrays, which bounds the cell and placement memory.
BANK_CHUNK_COLUMNS = 1 << 21


@dataclass
class FunctionalResult:
    """The accounting of each layer run, in order, and the first mismatch.
    A layer's output tensor is not kept: it lives until the next layer has
    read it."""

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
               subarrays: range | None = None) -> list[SubarrayState]:
    """One packed state for the given subarrays of the layer (default: all),
    holding only the rows the layer touches and mac_size columns for each
    MAC those subarrays hold, in MAC order; returned as a one-element list
    because the benchmark's traced run (`_count_alloc` in bench/tracing.py)
    iterates over what this returns. Rows, width and precision come from
    the placement, whose row budget the mapper has checked.
    """
    if subarrays is None:
        subarrays = range(place.subarrays_used)
    held = place.pass_macs(subarrays)
    state = new_subarray(rows_needed(place.precision, place.passes),
                         len(held) * place.mac_size, place.precision)
    state.subarrays = subarrays
    return [state]


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
    xp = np.pad(x.reshape(layer.I, layer.H, layer.W), ((0, 0), (p, p), (p, p)))
    cols = np.empty((oh, ow, layer.I, layer.K, layer.L), dtype=x.dtype)
    for ky, kx in np.ndindex(layer.K, layer.L):
        cols[..., ky, kx] = xp[:, ky : ky + s * oh : s,
                               kx : kx + s * ow : s].transpose(1, 2, 0)
    return cols.reshape(oh * ow, -1)


def prepare_operands(place: LayerPlacement, x: np.ndarray,
                     w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A layer's operands as place_operands takes them, in the smallest
    unsigned type of n bits: the im2col activations, (channel_positions,
    mac_size), and the weights, (output channels, mac_size)."""
    n = place.precision
    return (_im2col(place.layer, _operand_bytes(x, n)),
            _operand_bytes(w, n).reshape(-1, place.mac_size))


def _write_operands(state: SubarrayState, rows: tuple[int, ...],
                    values: np.ndarray) -> None:
    """Write the (macs, mac_size) operands of the state's MACs, one n-bit
    value per column in MAC order, LSB in rows[0]: each bit-plane is shifted
    out into one reused buffer and packed straight into its cell row."""
    flat = values.reshape(-1)
    plane = np.empty_like(flat)
    cells = state.cells.view(np.uint8)[:, : -(-flat.size // 8)]
    for bit, row in enumerate(rows):
        np.right_shift(flat, bit, out=plane)
        np.bitwise_and(plane, 1, out=plane)
        cells[row] = np.packbits(plane, bitorder="little")


def place_operands(
    bank: list[SubarrayState],
    place: LayerPlacement,
    acts: np.ndarray,
    weights: np.ndarray,
) -> None:
    """Write every operand of the MACs the given bank states hold.

    acts and weights are the layer's operands from prepare_operands. Every
    pass has the same layout (LayerPlacement.pass_macs) and, since passes
    split the output channels, the same activations.
    """
    positions = place.channel_positions
    for state in bank:
        held = place.pass_macs(state.subarrays)
        macs = np.arange(held.start, held.stop)
        _write_operands(state, state.activation_rows(), acts[macs % positions])
        for p in range(place.passes):
            ids = p * place.macs_per_pass + macs
            _write_operands(state, state.weight_rows(p),
                            weights[ids // positions])


def run_layer(place: LayerPlacement, x: np.ndarray, w: np.ndarray,
              sfu: SfuParams) -> tuple[np.ndarray, BankAccounting]:
    step = max(1, BANK_CHUNK_COLUMNS // place.column_size)
    acts, weights = prepare_operands(place, x, w)

    def banks():
        for first in range(0, place.subarrays_used, step):
            bank = build_bank(place, range(
                first, min(first + step, place.subarrays_used)))
            place_operands(bank, place, acts, weights)
            yield from bank

    return bank_execute(banks(), place, sfu)


def run_functional(
    net: NetworkDescription,
    plan: MappingPlan,
    seed: int,
) -> FunctionalResult:
    """Simulate the whole network and cross-check against the oracle.

    The plan, map_network's for this network, carries all the geometry.
    Returns the per-layer accounting; mismatch carries the first divergent
    element if the datapath ever disagrees. The layers must chain (cli.run
    checks it). Raises ConfigurationError if a layer's dot products could
    leave int64, the width of the MAC sums here and in the oracle.
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
    x0 = synth_input(rng, net.layers[0], n)
    weights = [synth_weights(rng, layer, n) for layer in net.layers]

    sfus = [
        SfuParams(quantize_width=n, quantize_shift=default_quant_shift(layer, n),
                  pool_window=layer.pool)
        for layer in net.layers
    ]
    ref_outputs = oracle.network_ref(
        net, x0, weights,
        [(None, (sfu.quantize_width, sfu.quantize_shift)) for sfu in sfus])

    accounting: list[BankAccounting] = []
    mismatch = None
    x = x0
    for idx, place in enumerate(plan.layers):
        got, acct = run_layer(place, x, weights[idx], sfus[idx])
        accounting.append(acct)
        want = ref_outputs[idx]
        if got.shape != want.shape:
            mismatch = (
                f"layer {idx}: shape {got.shape} != oracle {want.shape}"
            )
            break
        if not np.array_equal(got, want):
            flat_got = got.reshape(-1)
            flat_want = want.reshape(-1)
            at = int(np.nonzero(flat_got != flat_want)[0][0])
            mismatch = (
                f"layer {idx}: element {at} is {int(flat_got[at])}, "
                f"oracle says {int(flat_want[at])}"
            )
            break
        x = got
    return FunctionalResult(accounting, mismatch)
