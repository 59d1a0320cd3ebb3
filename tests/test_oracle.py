"""Reference oracle tests: the vectorized convolution and pooling against
direct loops, and the oracle's independence from the hardware model."""

import ast
import inspect

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pimsim import oracle


def conv_loops(x, w, p, s):
    """Direct convolution, one output element at a time."""
    I, H, W = x.shape
    O, _, K, L = w.shape
    xp = np.zeros((I, H + 2 * p, W + 2 * p), dtype=np.int64)
    xp[:, p : p + H, p : p + W] = x
    oh = (H - K + 2 * p) // s + 1
    ow = (W - L + 2 * p) // s + 1
    out = np.zeros((O, oh, ow), dtype=np.int64)
    for f in range(O):
        for oy in range(oh):
            for ox in range(ow):
                patch = xp[:, oy * s : oy * s + K, ox * s : ox * s + L]
                out[f, oy, ox] = int(np.sum(patch * w[f]))
    return out


def maxpool_loops(x, w):
    O, H, W = x.shape
    out = np.zeros((O, H // w, W // w), dtype=np.int64)
    for f in range(O):
        for y in range(H // w):
            for xx in range(W // w):
                out[f, y, xx] = x[f, y * w : (y + 1) * w,
                                  xx * w : (xx + 1) * w].max()
    return out


class TestConvRef:
    @settings(max_examples=60, deadline=None)
    @given(
        I=st.integers(1, 3), O=st.integers(1, 3),
        H=st.integers(1, 9), W=st.integers(1, 9),
        K=st.integers(1, 4), L=st.integers(1, 4),
        p=st.integers(0, 2), s=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_matches_loops(self, I, O, H, W, K, L, p, s, seed):
        assume(K <= H + 2 * p and L <= W + 2 * p)
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 256, size=(I, H, W))
        w = rng.integers(0, 256, size=(O, I, K, L))
        got = oracle.conv_ref(x, w, p, s)
        assert got.dtype == np.int64
        assert np.array_equal(got, conv_loops(x, w, p, s))

    def test_stride_two_with_padding(self):
        # 7x7 input, 3x3 kernel, p=1, s=2: output rows 0, 2, 4, 6 of the
        # stride-1 result
        rng = np.random.default_rng(5)
        x = rng.integers(0, 16, size=(2, 7, 7))
        w = rng.integers(0, 16, size=(3, 2, 3, 3))
        got = oracle.conv_ref(x, w, 1, 2)
        assert got.shape == (3, 4, 4)
        assert np.array_equal(got, conv_loops(x, w, 1, 2))
        assert np.array_equal(got, oracle.conv_ref(x, w, 1, 1)[:, ::2, ::2])


    @pytest.mark.parametrize("block", [1, 300, 1 << 20])
    def test_blocks_of_output_rows_match_loops(self, monkeypatch, block):
        # one output row per block, two per block with a short last block,
        # and all nine in one; uint8 operands are promoted block by block
        rng = np.random.default_rng(block)
        x = rng.integers(0, 256, size=(2, 9, 7), dtype=np.uint8)
        w = rng.integers(0, 256, size=(3, 2, 3, 3), dtype=np.uint8)
        monkeypatch.setattr(oracle, "_BLOCK_ELEMENTS", block)
        got = oracle.conv_ref(x, w, 1, 1)
        assert got.dtype == np.int64
        assert np.array_equal(got, conv_loops(x, w, 1, 1))


class TestMaxpoolRef:
    @settings(max_examples=40, deadline=None)
    @given(
        O=st.integers(1, 3), H=st.integers(1, 9), W=st.integers(1, 9),
        w=st.integers(1, 4), seed=st.integers(0, 2**16),
    )
    def test_matches_loops(self, O, H, W, w, seed):
        x = np.random.default_rng(seed).integers(0, 1000, size=(O, H, W))
        got = oracle.maxpool_ref(x, w)
        assert got.dtype == np.int64
        assert np.array_equal(got, maxpool_loops(x, w))


def test_oracle_is_independent_of_the_hardware_model():
    tree = ast.parse(inspect.getsource(oracle))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
        elif isinstance(node, ast.Import):
            imported.update(a.name.split(".")[-1] for a in node.names)
    assert not imported & {"engine", "datapath", "subarray"}
