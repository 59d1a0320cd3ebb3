"""Test fixtures over packed cell rows.

A state keeps its cells bit-packed, column c in bit c % 64 of word c // 64,
and pimsim touches them only as whole rows. These helpers put n-bit values
into rows one value per column, LSB in the first row, and read them back, so
tests can set up and check any column without a per-column API in pimsim.
"""

import numpy as np

from pimsim.subarray import WORD, WORD_BITS


def pack_columns(bits, words):
    """Pack a (rows, cols) array of 0/1 cells into (rows, words) uint64."""
    bits = np.asarray(bits, dtype=np.uint8)
    packed = np.packbits(bits, axis=1, bitorder="little")
    out = np.zeros((bits.shape[0], words * (WORD_BITS // 8)), dtype=np.uint8)
    out[:, : packed.shape[1]] = packed
    return out.view(WORD)


def unpack_columns(words, cols):
    """Inverse of pack_columns: (rows, words) uint64 to (rows, cols) uint8."""
    raw = np.ascontiguousarray(words, dtype=WORD).view(np.uint8)
    return np.unpackbits(raw, axis=1, count=cols, bitorder="little")


def write_values(state, rows, values):
    """Overwrite `rows` so that column c holds values[c], LSB in rows[0];
    the columns past len(values) read 0. Every value must fit len(rows)
    bits."""
    rows = list(rows)
    values = np.asarray(values, dtype=np.int64).reshape(-1)
    assert len(values) <= state.cols
    assert values.min(initial=0) >= 0
    assert values.max(initial=0) < 1 << len(rows)
    bits = np.zeros((len(rows), state.cols), dtype=np.uint8)
    shifts = np.arange(len(rows), dtype=np.int64)[:, None]
    bits[:, : len(values)] = (values[None, :] >> shifts) & 1
    state.cells[rows] = pack_columns(bits, state.cells.shape[1])


def read_values(state, rows):
    """The value of every column over `rows`, LSB in rows[0], as int64."""
    bits = unpack_columns(state.cells[list(rows)], state.cols)
    shifts = np.arange(len(bits), dtype=np.int64)[:, None]
    return (bits.astype(np.int64) << shifts).sum(axis=0)


def write_operands(state, acts, weights, pair=0):
    """One multiply per column: activation acts[c] and weight weights[c] of
    stacked pair `pair`."""
    write_values(state, state.activation_rows(), acts)
    write_values(state, state.weight_rows(pair), weights)


def read_products(state):
    """The 2n-bit product row value of every column."""
    return read_values(state, state.product_rows)
