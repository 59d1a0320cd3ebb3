"""Reference fixed-point inference, independent of the hardware model.

Plain integer arithmetic over whole numpy arrays: convolution as im2col plus
a matrix product, matrix-vector products, then the same SFU definitions
(ReLU before BatchNorm, Q16 round-to-nearest-even BatchNorm broadcast per
channel, shift-RNE-clamp quantization, window max pooling) written out from
scratch. BatchNorm runs on Python integers (object arrays), so it is exact
for any parameters. Used as the ground truth the simulated datapath must
match element for element.

The matrix products run in float64, through BLAS, when that is provably
exact, and in int64 otherwise. Every partial sum of a dot product of
`terms` terms is an integer of magnitude at most max|x| * max|w| * terms.
When that bound, taken from the operands themselves, is below 2**53, every
partial sum is a float64 integer in any summation order; otherwise the
product stays in int64 (numpy's own loop, no BLAS). Either way the operands
are promoted a block at a time into a preallocated int64 output: conv_ref
reads its patches from one read-only strided view of the padded input, and
linear_ref slices w into blocks of whole rows.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .mapper import LayerSpec

_BN_FRAC = 16
_SAT_MIN = -(1 << 31)
_SAT_MAX = (1 << 31) - 1
# linear_ref promotes w, and conv_ref the patches, to float64 or int64 in
# blocks of about this many elements.
_BLOCK_ELEMENTS = 1 << 20
# Integers of magnitude below this are exact in float64.
_FLOAT_EXACT = 1 << 53


def _round_half_even(num: np.ndarray, denom_log2: int) -> np.ndarray:
    """num / 2**denom_log2 rounded to nearest, ties to even, element-wise,
    for denom_log2 >= 0."""
    d = 1 << denom_log2
    q = num // d
    twice = 2 * (num - q * d)
    return q + ((twice > d) | ((twice == d) & (q % 2 == 1)))


def _product_dtype(x: np.ndarray, w: np.ndarray, terms: int) -> type:
    """float64 when every partial sum of a dot product of `terms` elements
    of x by elements of w is an integer below 2**53, so BLAS may sum in any
    order exactly; int64 otherwise. The bound is in Python ints."""
    bound = terms
    for a in (x, w):
        bound *= max(int(a.max(initial=0)), -int(a.min(initial=0)))
    return np.float64 if bound < _FLOAT_EXACT else np.int64


def conv_ref(x: np.ndarray, w: np.ndarray, p: int, s: int) -> np.ndarray:
    """Convolution as im2col plus a matrix product; x is (I, H, W), w is
    (O, I, K, L); integer exact, returned in int64. The product runs in
    float64 when max|x| * max|w| * I*K*L is below 2**53, so that every
    partial sum is exact in any order, and in int64 otherwise. The windows
    are one read-only as_strided view of the padded input, indexed (output
    row, output column, channel, kernel row, kernel column); the patches
    are copied out of it and promoted to that type a block of output rows
    at a time, about _BLOCK_ELEMENTS elements but at least one row, so one
    block is all that is ever held at eight bytes per element."""
    I, H, W = x.shape
    O, Iw, K, L = w.shape
    if I != Iw:
        raise ValueError(f"input has {I} channels, weights expect {Iw}")
    dtype = _product_dtype(x, w, I * K * L)
    xp = x
    if p:
        xp = np.zeros((I, H + 2 * p, W + 2 * p), dtype=x.dtype)
        xp[:, p : p + H, p : p + W] = x
    oh = (H - K + 2 * p) // s + 1
    ow = (W - L + 2 * p) // s + 1
    # windows[y, x, i, ky, kx] = xp[i, y * s + ky, x * s + kx]
    si, sy, sx = xp.strides
    windows = as_strided(xp, (oh, ow, I, K, L), (s * sy, s * sx, si, sy, sx),
                         writeable=False)
    w = w.reshape(O, I * K * L).astype(dtype)
    out = np.empty((O, oh, ow), dtype=np.int64)
    rows = max(1, _BLOCK_ELEMENTS // (ow * I * K * L))
    for r in range(0, oh, rows):
        patches = windows[r : r + rows].reshape(-1, I * K * L)
        block = w @ patches.astype(dtype, copy=False).T
        out[:, r : r + rows] = block.reshape(O, -1, ow)
    return out


def linear_ref(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w is (w2, w1), x is (w1,); returned in int64. Computed in float64 or
    int64 by conv_ref's rule, with w promoted a block of
    _BLOCK_ELEMENTS // w1 rows (at least one) at a time, each block's
    products written into the int64 output, so a narrow w is never held at
    eight bytes per weight."""
    dtype = _product_dtype(x, w, x.size)
    x = x.astype(dtype)
    out = np.empty(len(w), dtype=np.int64)
    rows = max(1, _BLOCK_ELEMENTS // x.size)
    for r in range(0, len(w), rows):
        out[r : r + rows] = w[r : r + rows].astype(dtype) @ x
    return out


def sfu_ref(
    sums: np.ndarray,
    bn: list[tuple[int, int, int]] | None,
    quant: tuple[int, int] | None,
) -> np.ndarray:
    """ReLU, then BatchNorm (mu, scale_fp Q16, beta; channel c uses
    bn[c % len(bn)]), then quantize (width, shift). sums is (channels, ...);
    a flat array has one element per channel."""
    out = np.maximum(sums, 0).astype(np.int64)
    if bn is not None:
        per_channel = np.array(bn, dtype=object)[np.arange(len(out)) % len(bn)]
        mu, scale_fp, beta = per_channel.T.reshape(3, -1, *[1] * (out.ndim - 1))
        t = (out.astype(object) - mu) * scale_fp
        out = np.minimum(np.maximum(_round_half_even(t, _BN_FRAC) + beta,
                                    _SAT_MIN), _SAT_MAX).astype(np.int64)
    if quant is not None:
        width, shift = quant
        out = np.minimum(np.maximum(_round_half_even(out, shift), 0),
                         (1 << width) - 1)
    return out


def maxpool_ref(x: np.ndarray, w: int) -> np.ndarray:
    """Non-overlapping w x w max pool on (O, H, W); trailing remainder drops."""
    _, H, W = x.shape
    h, wd = H // w * w, W // w * w
    out = x[:, :h:w, :wd:w].astype(np.int64)
    for dy in range(w):
        for dx in range(w):
            np.maximum(out, x[:, dy:h:w, dx:wd:w], out=out)
    return out


def layer_ref(
    layer: LayerSpec,
    x: np.ndarray,
    w: np.ndarray,
    bn: list[tuple[int, int, int]] | None,
    quant: tuple[int, int] | None,
) -> np.ndarray:
    """One full layer: MACs, SFU chain, pooling. Returns the output tensor
    ((O, oh, ow) for conv, (w2,) for linear)."""
    if layer.kind == "conv":
        sums = conv_ref(x.reshape(layer.I, layer.H, layer.W), w, layer.p, layer.s)
        post = sfu_ref(sums, bn, quant)
        if layer.pool:
            post = maxpool_ref(post, layer.pool)
        return post
    sums = linear_ref(x.reshape(-1), w)
    return sfu_ref(sums, bn, quant)


def network_ref(net, x0: np.ndarray, weights: list[np.ndarray],
                sfu_configs: list[tuple]) -> list[np.ndarray]:
    """Run every layer and return every output; sfu_configs carries (bn,
    quant) per layer. The engine checks one layer_ref at a time; this
    whole-network chain is the tests' reference for it
    (test_draws_and_oracle_chain_are_unchanged), and bench/tracing.py's
    WRAPPED table names it."""
    outputs = []
    x = x0
    for layer, w, (bn, quant) in zip(net.layers, weights, sfu_configs):
        x = layer_ref(layer, x, w, bn, quant)
        outputs.append(x)
    return outputs
