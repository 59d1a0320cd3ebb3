"""Reference models that no run executes, kept for the tests to check
pimsim against.

apply_event executes one AAP event on packed cell rows; the multiply's
compiled program, and any other event sequence _compile accepts, must leave
the cells as running the events through it one by one does. to_text dumps a
trace for the frozen command-stream digests. The shift-add accumulator and
mac_plane_sums over unpacked bit-planes are the references the datapath's
packed reduction (packed_mac_sums) is tested against. place_operands is
the byte-level operand writer that engine.place_operands, which builds each
cell row from packed words, must equal bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from pimsim.engine import _im2col, _operand_bytes
from pimsim.subarray import AND_STAGE, COPY, QUINTUPLE, TRIPLE, WRITE_ROW0


def apply_event(cells, event):
    """Execute one AAP on packed cell rows, every column at once, with the
    meaning pimsim.subarray.AapEvent gives its kind. A QUINTUPLE's negated
    row is a dual-contact cell read through its negated port: it counts
    twice, as its complement, and restores to the complement of the sensed
    value."""
    kind, rows = event.kind, event.rows
    if kind == COPY:
        src = cells[rows[0]]
        for d in rows[1:]:
            cells[d] = src
    elif kind == TRIPLE:
        a, b, c = cells[rows[0]], cells[rows[1]], cells[rows[2]]
        value = (a & b) | (b & c) | (a & c)
        for d in rows:
            cells[d] = value
    elif kind == QUINTUPLE:
        a, b, c, neg = (cells[r] for r in rows[:4])
        value = (~neg & (a | b | c)) | (a & b & c)
        for d in rows:
            cells[d] = value
        cells[rows[3]] = ~value
    elif kind == AND_STAGE:
        value = cells[rows[0]] & cells[rows[1]]
        for d in rows:
            cells[d] = value
    elif kind == WRITE_ROW0:
        for d in rows:
            cells[d] = 0
    else:
        raise ValueError(f"unknown AAP event kind {kind!r}")


def run_events(cells, events):
    """apply_event for each event in order."""
    for event in events:
        apply_event(cells, event)


def to_text(trace):
    """Line-oriented dump of an AapTrace: one event per line, then a
    summary record."""
    lines = [f"{e.kind} {','.join(map(str, e.rows))}" for e in trace.events]
    lines.append(
        f"summary total_aap={len(trace.events)} "
        f"and_ops={len(trace.and_spans)} add_ops={len(trace.add_spans)}"
    )
    return "\n".join(lines) + "\n"


class SequencingError(RuntimeError):
    """Bit-planes presented to an accumulator out of order."""


@dataclass
class AccumulatorState:
    value: int = 0
    bit_counter: int = 0


def accumulate_bitplane(acc, group_sum, bit_idx):
    """Shift-add one plane sum: value += sum << bit_idx, planes in order."""
    if bit_idx != acc.bit_counter:
        raise SequencingError(
            f"plane {bit_idx} arrived while expecting {acc.bit_counter}"
        )
    acc.value += int(group_sum) << bit_idx
    acc.bit_counter += 1
    return acc


def mac_plane_sums(planes):
    """Dot products from product bit-planes grouped (2n, macs, mac_size).

    Each plane is summed per MAC (the tree's popcount per group), then the
    2n plane sums are shift-added (the accumulator).
    """
    sums = planes.sum(axis=2, dtype=np.int64)
    shifts = np.arange(planes.shape[0], dtype=np.int64)[:, None]
    return (sums << shifts).sum(axis=0)


def write_operands(state, rows, values):
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


def place_operands(state, place, subarrays, x, w):
    """Write every operand of the MACs the given subarrays hold into state
    from the layer's input x and weights w: gather each MAC's im2col
    activations and its filter's weights, (macs, mac_size) bytes, and write
    them with write_operands."""
    n, positions = place.precision, place.channel_positions
    acts = _im2col(place.layer, _operand_bytes(x, n))
    weights = _operand_bytes(w, n).reshape(-1, place.mac_size)
    held = place.pass_macs(subarrays)
    macs = np.arange(held.start, held.stop)
    write_operands(state, state.activation_rows(), acts[macs % positions])
    for p in range(place.passes):
        ids = p * place.macs_per_pass + macs
        write_operands(state, state.weight_rows(p), weights[ids // positions])
