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
        # and all nine in one; uint8 operands are promoted block by block,
        # to float64
        rng = np.random.default_rng(block)
        x = rng.integers(0, 256, size=(2, 9, 7), dtype=np.uint8)
        w = rng.integers(0, 256, size=(3, 2, 3, 3), dtype=np.uint8)
        assert oracle._product_dtype(x, w, 18) is np.float64
        monkeypatch.setattr(oracle, "_BLOCK_ELEMENTS", block)
        got = oracle.conv_ref(x, w, 1, 1)
        assert got.dtype == np.int64
        assert np.array_equal(got, conv_loops(x, w, 1, 1))

    @pytest.mark.parametrize("block", [1, 300, 1 << 20])
    def test_blocks_of_output_rows_match_loops_in_int64(self, monkeypatch,
                                                        block):
        # operands near 2**27: max|x| * max|w| * 18 is past 2**53, so the
        # blocks are promoted to int64, not float64
        rng = np.random.default_rng(block)
        x = rng.integers(1 << 26, 1 << 27, size=(2, 9, 7))
        w = rng.integers(1 << 26, 1 << 27, size=(3, 2, 3, 3))
        assert oracle._product_dtype(x, w, 18) is np.int64
        monkeypatch.setattr(oracle, "_BLOCK_ELEMENTS", block)
        got = oracle.conv_ref(x, w, 1, 1)
        assert got.dtype == np.int64
        assert np.array_equal(got, conv_loops(x, w, 1, 1))


def _operands(rng, bits, signed, size):
    """Integers of at most `bits` bits, negative too when signed."""
    high = 1 << bits
    return rng.integers(-high + 1 if signed else 0, high, size=size)


class TestExactProducts:
    """conv_ref and linear_ref sum in float64 only when every partial sum
    is an integer below 2**53; otherwise they stay in int64."""

    @settings(max_examples=60, deadline=None)
    @given(
        I=st.integers(1, 3), O=st.integers(1, 3), K=st.integers(1, 4),
        bits=st.integers(1, 28), signed=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_conv_on_both_sides_of_the_bound(self, I, O, K, bits, signed,
                                             seed):
        rng = np.random.default_rng(seed)
        x = _operands(rng, bits, signed, (I, K + 2, K + 1))
        w = _operands(rng, bits, signed, (O, I, K, K))
        got = oracle.conv_ref(x, w, 1, 1)
        assert got.dtype == np.int64
        assert np.array_equal(got, conv_loops(x, w, 1, 1))

    @settings(max_examples=60, deadline=None)
    @given(
        w1=st.integers(1, 300), w2=st.integers(1, 4),
        bits=st.integers(1, 28), signed=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_linear_on_both_sides_of_the_bound(self, w1, w2, bits, signed,
                                               seed):
        rng = np.random.default_rng(seed)
        x = _operands(rng, bits, signed, w1)
        w = _operands(rng, bits, signed, (w2, w1))
        got = oracle.linear_ref(x, w)
        assert got.dtype == np.int64
        want = [sum(int(a) * int(b) for a, b in zip(row, x)) for row in w]
        assert got.tolist() == want

    @pytest.mark.parametrize("bits", [8, 28])
    @pytest.mark.parametrize("block", [1, 12, 1 << 20])
    def test_blocks_of_weight_rows_match_the_sums(self, monkeypatch, bits,
                                                  block):
        # 11 rows of 5 weights: blocks of one row, of two with a short last
        # block, and all in one; in float64 at 8 bits, in int64 at 28
        rng = np.random.default_rng(block + bits)
        x = _operands(rng, bits, False, 5)
        w = _operands(rng, bits, False, (11, 5))
        monkeypatch.setattr(oracle, "_BLOCK_ELEMENTS", block)
        got = oracle.linear_ref(x, w)
        assert got.dtype == np.int64
        assert got.tolist() == [sum(int(a) * int(b) for a, b in zip(row, x))
                                for row in w]

    @pytest.mark.parametrize("bits, terms, dtype", [
        (8, 25088, np.float64),    # VGG16's widest MAC at n = 8
        (16, 1 << 20, np.float64),
        (26, 2, np.float64),       # (2**26 - 1)**2 * 2 < 2**53
        (26, 3, np.int64),
        (27, 1, np.int64),
    ])
    def test_the_bound_picks_the_type(self, bits, terms, dtype):
        top = np.array([(1 << bits) - 1])
        assert oracle._product_dtype(top, top, terms) is dtype
        assert oracle._product_dtype(-top, top, terms) is dtype

    @pytest.mark.parametrize("sign", [1, -1])
    def test_sums_that_float64_would_round_are_exact(self, sign):
        # odd operands just below 2**27 in magnitude: each sum of an odd
        # number of odd products is odd and near 2**57, where float64 holds
        # only even integers, so no float64 product could return it; with
        # sign -1 the activations' magnitude comes from their minimum
        rng = np.random.default_rng(3)
        x = sign * (rng.integers((1 << 27) - 99, 1 << 27, size=(1, 5, 5)) | 1)
        w = rng.integers((1 << 27) - 99, 1 << 27, size=(2, 1, 3, 3)) | 1
        conv = oracle.conv_ref(x, w, 0, 1)
        assert np.array_equal(conv, conv_loops(x, w, 0, 1))
        flat, rows = x.reshape(-1), w.reshape(2, -1).repeat(3, axis=1)[:, :25]
        linear = oracle.linear_ref(flat, rows)
        assert linear.tolist() == [
            sum(int(a) * int(b) for a, b in zip(row, flat)) for row in rows]
        for got in (conv.ravel().tolist(), linear.tolist()):
            assert all(int(float(v)) != v for v in got)


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
