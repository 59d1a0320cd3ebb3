"""Reference fixed-point inference, independent of the hardware model.

Plain integer arithmetic over numpy arrays: convolution as im2col plus a
matrix product, matrix-vector products, then the same SFU definitions (ReLU
before BatchNorm, Q16 round-to-nearest-even BatchNorm, shift-RNE-clamp
quantization, window max pooling) written out from scratch. Used as the ground truth the simulated
datapath must match element for element.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .mapper import LayerSpec

_BN_FRAC = 16
_SAT_MIN = -(1 << 31)
_SAT_MAX = (1 << 31) - 1


def _round_half_even(num: int, denom_log2: int) -> int:
    if denom_log2 <= 0:
        return num
    d = 1 << denom_log2
    q = num // d
    r = num - q * d
    twice = 2 * r
    if twice > d or (twice == d and q % 2 == 1):
        q += 1
    return q


def conv_ref(x: np.ndarray, w: np.ndarray, p: int, s: int) -> np.ndarray:
    """Convolution as im2col plus an int64 matrix product; x is (I, H, W),
    w is (O, I, K, L); integer exact."""
    I, H, W = x.shape
    O, Iw, K, L = w.shape
    if I != Iw:
        raise ValueError(f"input has {I} channels, weights expect {Iw}")
    xp = np.pad(x.astype(np.int64), ((0, 0), (p, p), (p, p)))
    oh = (H - K + 2 * p) // s + 1
    ow = (W - L + 2 * p) // s + 1
    windows = sliding_window_view(xp, (K, L), axis=(1, 2))
    windows = windows[:, : (oh - 1) * s + 1 : s, : (ow - 1) * s + 1 : s]
    patches = windows.transpose(1, 2, 0, 3, 4).reshape(oh * ow, I * K * L)
    out = w.reshape(O, I * K * L).astype(np.int64) @ patches.T
    return out.reshape(O, oh, ow)


def linear_ref(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w is (w2, w1), x is (w1,)."""
    return (w.astype(np.int64) @ x.astype(np.int64)).astype(np.int64)


def sfu_ref(
    sums: np.ndarray,
    bn: list[tuple[int, int, int]] | None,
    quant: tuple[int, int] | None,
) -> np.ndarray:
    """ReLU, then BatchNorm (mu, scale_fp Q16, beta per channel), then
    quantize (width, shift). sums is (channels, ...) or flat per channel."""
    out = np.maximum(sums, 0)
    flatshape = out.shape
    if bn is not None:
        res = np.empty(flatshape, dtype=np.int64)
        it = np.nditer(out, flags=["multi_index"])
        for v in it:
            ch = it.multi_index[0] if out.ndim > 1 else it.multi_index[0]
            mu, scale_fp, beta = bn[ch % len(bn)]
            t = (int(v) - mu) * scale_fp
            r = _round_half_even(t, _BN_FRAC) + beta
            res[it.multi_index] = min(max(r, _SAT_MIN), _SAT_MAX)
        out = res
    if quant is not None:
        width, shift = quant
        res = np.empty(flatshape, dtype=np.int64)
        it = np.nditer(out, flags=["multi_index"])
        hi = (1 << width) - 1
        for v in it:
            q = _round_half_even(int(v), shift)
            res[it.multi_index] = min(max(q, 0), hi)
        out = res
    return out


def maxpool_ref(x: np.ndarray, w: int) -> np.ndarray:
    """Non-overlapping w x w max pool on (O, H, W); trailing remainder drops."""
    O, H, W = x.shape
    oh, ow = H // w, W // w
    blocks = x[:, : oh * w, : ow * w].reshape(O, oh, w, ow, w)
    return blocks.max(axis=(2, 4)).astype(np.int64)


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
        if layer.pool and layer.pool > 1:
            post = maxpool_ref(post, layer.pool)
        return post
    sums = linear_ref(x.reshape(-1), w)
    return sfu_ref(sums, bn, quant)


def network_ref(net, x0: np.ndarray, weights: list[np.ndarray],
                sfu_configs: list[tuple]) -> list[np.ndarray]:
    """Run every layer; sfu_configs carries (bn, quant) per layer."""
    outputs = []
    x = x0
    for layer, w, (bn, quant) in zip(net.layers, weights, sfu_configs):
        x = layer_ref(layer, x, w, bn, quant)
        outputs.append(x)
    return outputs
