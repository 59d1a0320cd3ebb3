"""Adder tree, accumulator, SFU and whole-bank execution tests."""

import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cells import pack_columns, unpack_columns
from pimsim.datapath import (
    BatchNormParams,
    SfuParams,
    ShapeError,
    TreeConfigError,
    bank_execute,
    batchnorm,
    build_adder_tree,
    maxpool,
    packed_mac_sums,
    quantize,
    relu,
    sfu_stage,
    tree_reduce,
)
from pimsim import datapath, engine, oracle
import reference
from reference import (
    AccumulatorState,
    SequencingError,
    accumulate_bitplane,
    mac_plane_sums,
)
from pimsim.mapper import (
    NetworkDescription,
    conv_layer,
    linear_layer,
    mac_size,
    map_network,
)
from pimsim.engine import (
    build_bank,
    place_operands,
    prepare_operands,
    run_functional,
)
from pimsim.layout import (
    TREE_WIDTH,
    mul_aap_count,
    rows_needed,
    tree_loads_per_pass,
)
from pimsim.subarray import new_bank, word_count
from pimsim.timing import layer_aaps


# --------------------------------------------------------------------------
# Adder tree
# --------------------------------------------------------------------------

class TestBuildAdderTree:
    def test_sixteen_input_levels(self):
        cfg = build_adder_tree(16, [16])
        assert [len(m) for m in cfg.node_modes] == [8, 4, 2, 1]
        assert cfg.levels == 4
        # one full group: every node adds, tap at the root
        assert all(m.all() for m in cfg.node_modes)
        assert cfg.tap_points == [(4, 0)]

    def test_two_groups_of_eight(self):
        cfg = build_adder_tree(16, [8, 8])
        assert cfg.tap_points == [(3, 0), (3, 1)]
        assert not cfg.node_modes[3][0]          # root forwards

    def test_group_sums_by_direct_summation(self):
        cfg = build_adder_tree(16, [8, 8])
        plane = np.arange(16)
        sums = tree_reduce(cfg, plane)
        assert list(sums) == [sum(range(8)), sum(range(8, 16))]

    def test_non_power_of_two_group_padded(self):
        cfg = build_adder_tree(16, [3, 3])
        g0, g1 = cfg.groups
        assert (g0.padded, g1.padded) == (4, 4)
        assert (g0.start, g1.start) == (0, 4)
        plane = np.zeros(16, dtype=int)
        plane[0:3] = 1
        plane[4:7] = (2, 2, 2)
        assert list(tree_reduce(cfg, plane)) == [3, 6]

    def test_overflowing_layout_rejected(self):
        with pytest.raises(TreeConfigError, match="mapper must pad"):
            build_adder_tree(16, [9, 9])
        with pytest.raises(TreeConfigError):
            build_adder_tree(16, [32])
        with pytest.raises(TreeConfigError):
            build_adder_tree(12, [4])


class TestTreeReduce:
    def test_all_zero_plane(self):
        cfg = build_adder_tree(16, [5, 7])
        assert list(tree_reduce(cfg, np.zeros(16, dtype=int))) == [0, 0]

    def test_popcount_matches_oracle(self):
        cfg = build_adder_tree(8, [8])
        plane = np.array([1, 0, 1, 1, 0, 1, 1, 0])
        assert tree_reduce(cfg, plane)[0] == int(plane.sum())

    def test_two_group_example(self):
        cfg = build_adder_tree(8, [4, 4])
        assert list(tree_reduce(cfg, [1, 1, 1, 1, 0, 0, 1, 1])) == [4, 2]

    def test_shape_error(self):
        cfg = build_adder_tree(8, [8])
        with pytest.raises(ShapeError):
            tree_reduce(cfg, np.zeros(4, dtype=int))

    def test_forward_mode_neutrality(self):
        cfg = build_adder_tree(16, [4, 4])
        plane = np.zeros(16, dtype=int)
        plane[:8] = 1
        base = list(tree_reduce(cfg, plane))
        # flip nodes above the taps between forward and add
        cfg.node_modes[2][:] = True
        cfg.node_modes[3][:] = True
        assert list(tree_reduce(cfg, plane)) == base

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_groups_equal_popcount(self, data):
        sizes = data.draw(
            st.lists(st.integers(1, 8), min_size=1, max_size=4)
        )
        cfg = build_adder_tree(64, sizes)
        plane = np.zeros(64, dtype=int)
        bits = {}
        for g in cfg.groups:
            vals = data.draw(
                st.lists(st.integers(0, 1), min_size=g.size, max_size=g.size)
            )
            plane[g.start : g.start + g.size] = vals
            bits[g.index] = sum(vals)
        sums = tree_reduce(cfg, plane)
        for g in cfg.groups:
            assert sums[g.index] == bits[g.index]


# --------------------------------------------------------------------------
# Accumulator
# --------------------------------------------------------------------------

class TestAccumulator:
    def test_shift_add_sequence(self):
        acc = AccumulatorState()
        for idx, s in enumerate((5, 3, 1)):
            accumulate_bitplane(acc, s, idx)
        assert acc.value == 5 + 6 + 4
        assert acc.bit_counter == 3

    def test_all_zero_planes(self):
        acc = AccumulatorState()
        for idx in range(6):
            accumulate_bitplane(acc, 0, idx)
        assert acc.value == 0

    def test_mac_bitplane_identity(self):
        # columns hold products {3*2, 1*1} = {6, 1}; planes rebuild 7
        products = [6, 1]
        acc = AccumulatorState()
        for idx in range(4):
            plane_sum = sum((p >> idx) & 1 for p in products)
            accumulate_bitplane(acc, plane_sum, idx)
        assert acc.value == 7

    def test_out_of_order_plane_rejected(self):
        acc = AccumulatorState()
        accumulate_bitplane(acc, 1, 0)
        with pytest.raises(SequencingError):
            accumulate_bitplane(acc, 1, 2)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 4096), min_size=1, max_size=16))
    def test_matches_shift_add_oracle(self, sums):
        acc = AccumulatorState()
        for idx, s in enumerate(sums):
            accumulate_bitplane(acc, s, idx)
        assert acc.value == sum(s << i for i, s in enumerate(sums))


# --------------------------------------------------------------------------
# SFU blocks
# --------------------------------------------------------------------------

class TestSfu:
    def test_relu(self):
        assert relu(-7) == 0
        assert relu(7) == 7
        assert relu(0) == 0

    def test_batchnorm_identity(self):
        p = BatchNormParams()
        assert batchnorm(123, p) == 123

    def test_batchnorm_shift(self):
        assert batchnorm(10, BatchNormParams(mu=4)) == 6

    def test_batchnorm_fixed_point_half_scale(self):
        p = BatchNormParams(mu=2, scale=0.5, beta=1)
        assert batchnorm(10, p) == 5           # (10-2)*0.5 + 1

    def test_quantize_clamps_and_rounds(self):
        assert quantize(300, 4) == 15
        assert quantize(7, 4) == 7
        assert quantize(37, 4, shift=3) == 5   # round(37/8) = round(4.625)
        assert quantize(-3, 4) == 0

    def test_quantize_round_half_even(self):
        assert quantize(4, 4, shift=3) == 0    # 0.5 rounds to even 0
        assert quantize(12, 4, shift=3) == 2   # 1.5 rounds to even 2

    def test_maxpool_window(self):
        x = np.array([[[1, 9], [3, 4]]])
        assert maxpool(x, 2).tolist() == [[[9]]]

    def test_maxpool_window_one_is_identity(self):
        x = np.array([[[5, 2]]])
        assert maxpool(x, 1).tolist() == [[[5, 2]]]

    def test_maxpool_two_windows(self):
        x = np.array([[[2, 8, 5, 1], [2, 8, 5, 1]]])
        assert maxpool(x, 2).tolist() == [[[8, 5]]]

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.integers(1, 3), h=st.integers(1, 9), w=st.integers(1, 9),
        window=st.integers(1, 4),
        dtype=st.sampled_from([np.uint8, np.int64]),
        seed=st.integers(0, 2**16),
    )
    @example(c=2, h=7, w=9, window=3, dtype=np.int64, seed=0)
    @example(c=1, h=3, w=2, window=4, dtype=np.uint8, seed=0)
    def test_maxpool_matches_loops(self, c, h, w, window, dtype, seed):
        # windows that leave trailing rows and columns, or fill no tile
        x = np.random.default_rng(seed).integers(0, 200, size=(c, h, w),
                                                 dtype=dtype)
        got = maxpool(x, window)
        want = [[[max(x[f, y * window + dy, xx * window + dx]
                      for dy in range(window) for dx in range(window))
                  for xx in range(w // window)]
                 for y in range(h // window)]
                for f in range(c)]
        assert got.dtype == dtype
        assert got.shape == (c, h // window, w // window)
        assert got.tolist() == want

    def test_passthrough_pooling(self):
        stream = [3, 1, 4, 1, 5]
        assert sfu_stage(np.array(stream), SfuParams()).tolist() == stream

    def test_units_take_arrays(self):
        x = np.array([-7, 0, 7, 300])
        assert relu(x).tolist() == [0, 0, 7, 300]
        assert quantize(x, 4).tolist() == [0, 0, 7, 15]
        assert quantize(np.array([4, 12, 37]), 4, shift=3).tolist() == [0, 2, 5]
        p = BatchNormParams(mu=2, scale=0.5, beta=1)
        assert batchnorm(np.array([10, 2, 3]), p).tolist() == [5, 1, 1]

    def test_clamps_leave_the_input_unwritten(self):
        # rne_shift returns its own input at shift 0, so a clamp run in
        # place would write into the caller's array
        x = np.array([-9, 0, 7, 15, 16, 300], dtype=np.int64)
        before = x.copy()
        assert quantize(x, 4, 0).tolist() == [0, 0, 7, 15, 15, 15]
        assert sfu_stage(x, SfuParams(quantize_width=4)).tolist() == [
            0, 0, 7, 15, 15, 15]
        assert oracle.sfu_ref(x, None, (4, 0)).tolist() == [
            0, 0, 7, 15, 15, 15]
        assert np.array_equal(x, before)

    def test_batchnorm_raises_instead_of_wrapping(self):
        # scale_fp = 2**56: 2**6 * 2**56 still fits and saturates, 2**7 not
        big = BatchNormParams(scale=float(1 << 40))
        assert batchnorm(1 << 6, big) == (1 << 31) - 1
        with pytest.raises(OverflowError):
            batchnorm(np.array([0, 1 << 7]), big)
        with pytest.raises(OverflowError):
            batchnorm(0, BatchNormParams(beta=(1 << 63) - 1))


class TestSfuStageMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_sfu_ref_and_maxpool_ref(self, data):
        channels = data.draw(st.integers(1, 4))
        conv = data.draw(st.booleans())
        shape = ((channels, data.draw(st.integers(1, 7)),
                  data.draw(st.integers(1, 7))) if conv else (channels,))
        seed = data.draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        sums = rng.integers(-(1 << 20), 1 << 20, size=shape)
        shift = data.draw(st.integers(0, 6))
        if shift:
            # exact halves q + 1/2 after the shift, with q odd and even
            ties = rng.integers(-64, 64, size=shape) * (1 << shift) + (
                1 << (shift - 1))
            sums = np.where(rng.random(shape) < 0.3, ties, sums)
        bns = data.draw(st.none() | st.lists(
            st.builds(BatchNormParams,
                      mu=st.integers(-(1 << 20), 1 << 20),
                      scale=st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 3.0]),
                      beta=st.integers(-1000, 1000)),
            min_size=1, max_size=channels))
        width = data.draw(st.none() | st.integers(1, 8))
        window = data.draw(st.integers(1, 3)) if conv else None
        sfu = SfuParams(batchnorm=bns, quantize_width=width,
                        quantize_shift=shift, pool_window=window)
        got = sfu_stage(sums, sfu)
        want = oracle.sfu_ref(
            sums,
            None if bns is None else [(b.mu, b.scale_fp, b.beta) for b in bns],
            None if width is None else (width, shift),
        )
        if window:
            want = oracle.maxpool_ref(want, window)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


# --------------------------------------------------------------------------
# Whole-bank execution
# --------------------------------------------------------------------------

def _one_bank(place, x, w, sfu):
    """Run a layer as one chunk, on one state that holds all its MACs."""
    whole = range(place.subarrays_used)
    (state,) = build_bank(place, whole)
    place_operands(state, place, whole, *prepare_operands(place, x, w))
    return bank_execute([(state, whole)], place, sfu)


def _run_single_layer(layer, x, w, n, sfu, cols=64):
    net = NetworkDescription("t", n, [layer])
    plan = map_network(net, column_size=cols)
    return _one_bank(plan.layers[0], x, w, sfu)


class TestBankExecute:
    def test_single_mac_dot_product(self):
        # MAC of size 2 at n=2: (3, 2) . (1, 1) = 5 with identity SFUs
        layer = linear_layer(w1=2, w2=1)
        x = np.array([3, 2])
        w = np.array([[1, 1]])
        outputs, acct = _run_single_layer(layer, x, w, 2, SfuParams())
        assert outputs.tolist() == [5]
        assert acct.aap_total == mul_aap_count(2)   # one multiply

    def test_all_zero_weights(self):
        layer = linear_layer(w1=3, w2=4)
        x = np.array([1, 2, 3])
        w = np.zeros((4, 3), dtype=np.int64)
        outputs, _ = _run_single_layer(layer, x, w, 3, SfuParams())
        assert outputs.tolist() == [0, 0, 0, 0]

    def test_linear_3_to_4_matches_mvm(self):
        rng = np.random.default_rng(11)
        layer = linear_layer(w1=3, w2=4)
        x = rng.integers(0, 16, size=3)
        w = rng.integers(0, 16, size=(4, 3))
        outputs, acct = _run_single_layer(layer, x, w, 4, SfuParams())
        assert outputs.tolist() == list(w @ x)
        assert acct.aap_total == 168   # one multiply on one subarray

    def test_oversized_mac_folds_through_tree(self):
        # MAC wider than the tree: chunks share one accumulator
        rng = np.random.default_rng(5)
        layer = linear_layer(w1=40, w2=1)
        x = rng.integers(0, 4, size=40)
        w = rng.integers(0, 4, size=(1, 40))
        outputs, _ = _run_single_layer(layer, x, w, 2, SfuParams(), cols=64)
        assert outputs.tolist() == [int(x @ w[0])]

    def test_sfu_chain_applies_relu_before_batchnorm(self):
        # x = 3 with mu = 5: relu first leaves -2 after the shift; the
        # reversed order would clamp at the relu instead
        layer = linear_layer(w1=1, w2=1)
        x = np.array([3])
        w = np.array([[1]])
        sfu = SfuParams(batchnorm=[BatchNormParams(mu=5)])
        outputs, _ = _run_single_layer(layer, x, w, 3, sfu)
        assert outputs.tolist() == [-2]

    def test_sfu_chain_quantize_after_batchnorm(self):
        layer = linear_layer(w1=1, w2=1)
        x = np.array([3])
        w = np.array([[2]])
        sfu = SfuParams(batchnorm=[BatchNormParams(beta=10)],
                        quantize_width=3)
        outputs, _ = _run_single_layer(layer, x, w, 3, sfu)
        assert outputs.tolist() == [7]  # 6 + 10 clamps into 3 bits

    def test_sequential_passes_for_stacked_pairs(self):
        layer = linear_layer(w1=2, w2=2)
        x = np.array([1, 2])
        w = np.array([[3, 1], [2, 2]])
        net = NetworkDescription("t", 3, [layer], parallelism=[2])
        plan = map_network(net, column_size=8)
        place = plan.layers[0]
        assert place.passes == 2
        outputs, acct = _one_bank(place, x, w, SfuParams())
        assert outputs.tolist() == [5, 6]
        assert acct.aap_total == 2 * mul_aap_count(3)   # one per pass

    def test_full_sfu_chain_matches_oracle(self):
        rng = np.random.default_rng(21)
        layer = conv_layer(H=6, W=6, I=2, O=2, K=3, p=1, s=1, pool=2)
        x = rng.integers(0, 8, size=(2, 6, 6))
        w = rng.integers(0, 8, size=(2, 2, 3, 3))
        bns = [BatchNormParams(mu=30, scale=0.75, beta=1),
               BatchNormParams(mu=10, scale=1.25, beta=0)]
        sfu = SfuParams(batchnorm=bns, quantize_width=3, quantize_shift=2,
                        pool_window=2)
        outputs, _ = _run_single_layer(layer, x, w, 3, sfu, cols=128)
        ref = oracle.layer_ref(
            layer, x, w,
            bn=[(b.mu, b.scale_fp, b.beta) for b in bns],
            quant=(3, 2),
        )
        assert np.array_equal(outputs, ref)


def _seed_tree_reduction(place, n, width, product):
    """The bank reduction as the hardware performs it, kept as the reference
    for bank_execute: each subarray's MACs are cut into tree-wide pieces,
    packed into power-of-two aligned groups per tree load, reduced plane by
    plane through the configured tree and shift-added per MAC.

    product(mac_id, j) is the product in column j of the MAC. Returns the
    per-MAC sums and the number of plane reads.
    """
    sums, reads = {}, 0
    for p in range(place.passes):
        for sub in range(place.subarrays_used):
            held = place.pass_macs(range(sub, sub + 1))
            pieces = []   # (mac_id, offset within the MAC, size)
            for mac_id in range(p * place.macs_per_pass + held.start,
                                p * place.macs_per_pass + held.stop):
                for off in range(0, place.mac_size, width):
                    pieces.append(
                        (mac_id, off, min(width, place.mac_size - off)))
            batches, batch, used = [], [], 0
            for piece in pieces:
                padded = 1 << max(0, (piece[2] - 1).bit_length())
                slot = -(-used // padded) * padded
                if slot + padded > width:
                    batches.append(batch)
                    batch, slot = [], 0
                batch.append(piece)
                used = slot + padded
            if batch:
                batches.append(batch)
            for batch in batches:
                config = build_adder_tree(width, [size for _, _, size in batch])
                accs = {mac_id: AccumulatorState() for mac_id, _, _ in batch}
                for plane in range(2 * n):
                    routed = np.zeros(width, dtype=np.int64)
                    for group, (mac_id, off, size) in zip(config.groups, batch):
                        routed[group.start : group.start + size] = [
                            (product(mac_id, off + i) >> plane) & 1
                            for i in range(size)
                        ]
                    reads += 1
                    per_mac = {}
                    for (mac_id, _, _), v in zip(batch, tree_reduce(config, routed)):
                        per_mac[mac_id] = per_mac.get(mac_id, 0) + int(v)
                    for mac_id, v in per_mac.items():
                        accumulate_bitplane(accs[mac_id], v, plane)
                for mac_id, acc in accs.items():
                    sums[mac_id] = sums.get(mac_id, 0) + acc.value
    return sums, reads


class TestVectorizedReduction:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 8),
        size=st.integers(1, 40),
        macs=st.integers(1, 12),
        k=st.sampled_from([1, 2]),
        spare_cols=st.integers(0, 24),
        width_log2=st.integers(0, 6),
        seed=st.integers(0, 2**16),
    )
    # 12 MACs of 5 columns, 3 to a 16-column subarray: every subarray is
    # full, so the pass leaves no remainder, at 1 and 8 MACs a load
    @example(n=3, size=5, macs=12, k=1, spare_cols=11, width_log2=3, seed=1)
    @example(n=3, size=5, macs=12, k=1, spare_cols=11, width_log2=6, seed=2)
    def test_matches_tree_reference(self, n, size, macs, k, spare_cols,
                                    width_log2, seed):
        # widths from 1 to 64 against MACs of up to 40: some fold
        # through the tree in pieces
        rng = np.random.default_rng(seed)
        layer = linear_layer(w1=size, w2=macs * k)
        cols = size + spare_cols
        net = NetworkDescription("prop", n, [layer], parallelism=[k])
        place = map_network(net, column_size=cols).layers[0]
        x = rng.integers(0, 1 << n, size=size)
        w = rng.integers(0, 1 << n, size=(macs * k, size))
        width = 1 << width_log2
        outputs, acct = _one_bank(place, x, w, SfuParams())
        sums, reads = _seed_tree_reduction(
            place, n, width, lambda mac, j: int(x[j]) * int(w[mac, j]))
        assert outputs.tolist() == [sums[i] for i in range(place.macs_total)]
        assert outputs.tolist() == list(w @ x)
        # the tree-load arithmetic counts the reference's reads at any width;
        # the bank counts them on the one TREE_WIDTH-input tree
        loads = 2 * n * place.passes
        assert reads == loads * tree_loads_per_pass(place, width)
        assert acct.plane_reads == loads * tree_loads_per_pass(place,
                                                               TREE_WIDTH)


# chunked networks: (network, column size, subarrays per chunk, seed);
# every layer's last chunk is narrower than the others
CHUNKED = [
    # 36 and 6 subarrays in chunks of 5
    (NetworkDescription("chunks", 3, [
        conv_layer(H=6, W=6, I=2, O=4, K=3, p=1, pool=2),
        linear_layer(w1=36, w2=6),
    ], parallelism=[2, 1]), 40, 5, 3),
    # 9 positions of 27-column MACs, a 243-bit period: 9 subarrays in
    # chunks of 2 MACs that start mid-filter and mid-word, then 5 in 2s
    (NetworkDescription("odd", 3, [
        conv_layer(H=5, W=5, I=3, O=4, K=3),
        linear_layer(w1=36, w2=5),
    ], parallelism=[2, 1]), 60, 2, 5),
]


class TestBankChunks:
    def test_chunked_layer_equals_one_bank(self, monkeypatch):
        net = NetworkDescription("chunks", 3, [
            conv_layer(H=6, W=6, I=2, O=4, K=3, p=1, pool=2),
            linear_layer(w1=36, w2=6),
        ], parallelism=[2, 1])
        plan = map_network(net, column_size=40)
        assert plan.layers[0].subarrays_used == 36
        whole = run_functional(net, plan, seed=3)
        # chunks of 5 subarrays of column_size 40 columns
        monkeypatch.setattr(engine, "BANK_CHUNK_COLUMNS", 5 * 40)
        calls = []
        im2col = engine._im2col
        monkeypatch.setattr(engine, "_im2col",
                            lambda *a: calls.append(a) or im2col(*a))
        chunked = run_functional(net, plan, seed=3)
        # both pass against the same seeded oracle, so their outputs agree
        assert whole.passed and chunked.passed
        assert whole.accounting == chunked.accounting
        assert chunked.accounting[0].aap_total == 36 * 2 * mul_aap_count(3)
        # operands are prepared once per layer, not once per chunk
        assert len(calls) == len(net.layers)

    def test_chunks_of_an_odd_period_equal_one_bank(self, monkeypatch):
        # 9 positions of 27-column MACs: a 243-bit period, so chunks of 2
        # subarrays (2 MACs each) start mid-filter and mid-word; k = 2
        net = NetworkDescription("odd", 3, [
            conv_layer(H=5, W=5, I=3, O=4, K=3),
            linear_layer(w1=36, w2=5),
        ], parallelism=[2, 1])
        plan = map_network(net, column_size=60)
        place = plan.layers[0]
        assert place.channel_positions * place.mac_size == 243
        assert place.subarrays_used == 9
        whole = run_functional(net, plan, seed=5)
        monkeypatch.setattr(engine, "BANK_CHUNK_COLUMNS", 2 * 60)
        calls = []
        im2col = engine._im2col
        monkeypatch.setattr(engine, "_im2col",
                            lambda *a: calls.append(a) or im2col(*a))
        chunked = run_functional(net, plan, seed=5)
        assert whole.passed and chunked.passed
        assert whole.accounting == chunked.accounting
        assert len(calls) == len(net.layers)

    def test_one_chunk_state_is_live_at_a_time(self, monkeypatch):
        # build_bank runs once per layer, every chunk is multiplied in the
        # layer's one state, and that state is gone before the SFU chain
        # runs, so none outlives run_layer
        net = NetworkDescription("live", 3, [
            conv_layer(H=6, W=6, I=2, O=4, K=3, p=1, pool=2),
            linear_layer(w1=36, w2=6),
        ], parallelism=[2, 1])
        plan = map_network(net, column_size=40)
        monkeypatch.setattr(engine, "BANK_CHUNK_COLUMNS", 5 * 40)
        built, in_built, live = [], [], []
        build = engine.build_bank
        run = datapath.multiply
        stage = datapath.sfu_stage

        def tracked_build(*args):
            bank = build(*args)
            built.extend(weakref.ref(state) for state in bank)
            return bank

        def tracked_multiply(state, pair=0):
            in_built.append(state is built[-1]())
            return run(state, pair=pair)

        def tracked_stage(*args):
            live.append(sum(ref() is not None for ref in built))
            return stage(*args)

        monkeypatch.setattr(engine, "build_bank", tracked_build)
        monkeypatch.setattr(datapath, "multiply", tracked_multiply)
        monkeypatch.setattr(datapath, "sfu_stage", tracked_stage)
        assert run_functional(net, plan, seed=3).passed
        # 36 subarrays in 8 chunks of 2 passes, then 6 in 2 chunks of 1
        assert [place.subarrays_used for place in plan.layers] == [36, 6]
        assert len(built) == 2
        assert in_built == [True] * (8 * 2 + 2)
        assert live == [0, 0]

    @pytest.mark.parametrize("net, cols, chunk, seed", CHUNKED,
                             ids=[net.name for net, *_ in CHUNKED])
    def test_chunked_mac_sums_equal_one_bank(self, monkeypatch, net, cols,
                                             chunk, seed):
        # quantization drops a MAC sum's low bits, so a PASS alone can hide
        # an error there: every layer's sums as the SFU chain receives
        # them, chunked with a narrower last chunk, equal the one-bank
        # run's, and the first layer's equal the oracle's
        plan = map_network(net, column_size=cols)
        assert all(place.subarrays_used % chunk for place in plan.layers)
        sums = []
        stage = datapath.sfu_stage
        monkeypatch.setattr(datapath, "sfu_stage",
                            lambda v, sfu: sums.append(v.copy())
                            or stage(v, sfu))
        whole = run_functional(net, plan, seed)
        whole_sums = sums[:]
        sums.clear()
        monkeypatch.setattr(engine, "BANK_CHUNK_COLUMNS", chunk * cols)
        chunked = run_functional(net, plan, seed)
        assert whole.passed and chunked.passed
        assert whole.accounting == chunked.accounting
        assert len(sums) == len(whole_sums) == len(net.layers)
        for got, want in zip(sums, whole_sums):
            assert np.array_equal(got, want)
        rng = np.random.default_rng(seed)
        layer = net.layers[0]
        x = engine.synth_input(rng, layer, net.precision)
        w = engine.synth_weights(rng, layer, net.precision)
        assert np.array_equal(sums[0], oracle.conv_ref(x, w, layer.p,
                                                       layer.s))

    def test_state_holds_only_the_mac_columns(self):
        # 7 MACs of 5 columns, 2 per 12-column subarray: each subarray
        # leaves 2 padding columns and the last one a whole MAC slot
        net = NetworkDescription("pad", 2, [linear_layer(w1=5, w2=7)])
        place = map_network(net, column_size=12).layers[0]
        assert place.subarrays_used == 4
        (whole,) = build_bank(place, range(place.subarrays_used))
        assert whole.cols == 7 * 5
        (tail,) = build_bank(place, range(1, 4))
        assert tail.cols == len(place.pass_macs(range(1, 4))) * 5 == 25


class TestLayerLoop:
    """run_functional draws, checks and runs one layer at a time."""

    def test_draws_and_oracle_chain_are_unchanged(self, monkeypatch):
        # the input and every layer's weights come from the run's generator
        # in layer order, as if all were drawn up front, and each layer
        # reads the output of the whole-network oracle chain
        n, seed = 4, 11
        net = NetworkDescription("chain", n, [
            conv_layer(H=6, W=6, I=2, O=4, K=3, p=1, pool=2),
            conv_layer(H=3, W=3, I=4, O=3, K=3, p=1),
            linear_layer(w1=27, w2=5),
        ])
        plan = map_network(net, column_size=64)
        seen = []
        run = engine.run_layer
        monkeypatch.setattr(engine, "run_layer",
                            lambda place, x, w, sfu: seen.append((x, w))
                            or run(place, x, w, sfu))
        assert run_functional(net, plan, seed).passed
        rng = np.random.default_rng(seed)
        x0 = engine.synth_input(rng, net.layers[0], n)
        weights = [engine.synth_weights(rng, layer, n)
                   for layer in net.layers]
        refs = oracle.network_ref(net, x0, weights, [
            (None, (n, engine.default_quant_shift(layer, n)))
            for layer in net.layers])
        assert len(seen) == len(net.layers)
        assert np.array_equal(seen[0][0], x0)
        for (_, got), want in zip(seen, weights):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        for (x, _), ref in zip(seen[1:], refs):
            assert np.array_equal(x, ref)

    def test_run_holds_one_layers_weights_at_a_time(self, monkeypatch):
        # eight 512 x 512 linear layers, 256 KiB of uint8 weights each;
        # the bank state is capped by BANK_CHUNK_COLUMNS and the oracle's
        # float64 copy of the weights by its block size, so one layer's
        # working set is well under the 2 MiB all the weights take
        net = NetworkDescription("deep", 2, [linear_layer(w1=512, w2=512)
                                             for _ in range(8)])
        plan = map_network(net, column_size=4096)
        monkeypatch.setattr(engine, "BANK_CHUNK_COLUMNS", 1 << 15)
        monkeypatch.setattr(oracle, "_BLOCK_ELEMENTS", 1 << 12)
        # a first run fills the per-process caches (compiled multiply)
        assert run_functional(net, plan, seed=1).passed
        tracemalloc.start()
        try:
            assert run_functional(net, plan, seed=1).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 512 * 512 < len(net.layers) * 512 * 512

    def test_run_stops_at_the_first_divergent_layer(self, monkeypatch):
        # layer 0's output is off by one, or its AAPs by +7 while layer 1's
        # are off by -7, so the network's total still matches the model: in
        # each case the run names layer 0, and no later layer is drawn or run
        n = 3
        net = NetworkDescription("stop", n, [
            conv_layer(H=6, W=6, I=2, O=4, K=3, p=1, pool=2),
            linear_layer(w1=36, w2=6),
            linear_layer(w1=6, w2=4),
        ])
        plan = map_network(net, column_size=64)
        model = plan.layers[0].subarrays_used * layer_aaps(plan.layers[0])
        execute = engine.bank_execute
        synth = engine.synth_weights

        def flip(idx, outputs, acct):
            if idx == 0:
                outputs.reshape(-1)[0] ^= 1
            return outputs, acct

        def shift_aaps(idx, outputs, acct):
            moved = {0: 7, 1: -7}.get(idx, 0)
            return outputs, replace(acct, aap_total=acct.aap_total + moved)

        for tamper, message in [
            (flip, "layer 0: element 0 is "),
            (shift_aaps, f"traces logged {model + 7} AAPs, timing model "
                         f"expected {model}, in layer 0"),
        ]:
            def tampered(banks, place, sfu, tamper=tamper):
                return tamper(place.layer_index, *execute(banks, place, sfu))

            draws = []
            monkeypatch.setattr(engine, "bank_execute", tampered)
            monkeypatch.setattr(engine, "synth_weights",
                                lambda *a: draws.append(a) or synth(*a))
            result = run_functional(net, plan, seed=4)
            assert result.mismatch.startswith(message), result.mismatch
            assert len(result.accounting) == 1
            assert len(draws) == 1

    def test_oracle_reads_the_engines_output(self, monkeypatch):
        # one activation chain: the tensor the oracle reads for layer i + 1
        # is the very output run_layer returned for layer i
        n = 4
        net = NetworkDescription("one-chain", n, [
            conv_layer(H=6, W=6, I=2, O=4, K=3, p=1, pool=2),
            conv_layer(H=3, W=3, I=4, O=3, K=3, p=1),
            linear_layer(w1=27, w2=5),
        ])
        plan = map_network(net, column_size=64)
        outputs, inputs = [], []
        run, layer_ref = engine.run_layer, oracle.layer_ref

        def traced_run(*args):
            out = run(*args)
            outputs.append(out[0])
            return out

        monkeypatch.setattr(engine, "run_layer", traced_run)
        monkeypatch.setattr(oracle, "layer_ref", lambda layer, x, *rest:
                            inputs.append(x) or layer_ref(layer, x, *rest))
        assert run_functional(net, plan, seed=5).passed
        assert len(inputs) == len(outputs) == len(net.layers)
        for x, out in zip(inputs[1:], outputs):
            assert x is out


class TestPackedReduction:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 16),
        mac_size=st.integers(1, 200),
        macs=st.integers(1, 40),
        spare_cols=st.integers(0, 130),
        seed=st.integers(0, 2**16),
    )
    # MACs that end exactly on the last word of the row
    @example(n=4, mac_size=64, macs=3, spare_cols=0, seed=1)
    @example(n=2, mac_size=96, macs=2, spare_cols=0, seed=2)
    @example(n=1, mac_size=1, macs=1, spare_cols=63, seed=3)
    def test_equals_sums_of_unpacked_planes(self, n, mac_size, macs,
                                            spare_cols, seed):
        # every bit is random, the don't-care bits past the MACs and past
        # the row width included
        rng = np.random.default_rng(seed)
        used = macs * mac_size
        cols = used + spare_cols
        rows = rng.integers(0, 2**64, size=(2 * n, word_count(cols)),
                            dtype=np.uint64)
        planes = unpack_columns(rows, cols)[:, :used]
        want = mac_plane_sums(planes.reshape(2 * n, macs, mac_size))
        assert np.array_equal(packed_mac_sums(rows, macs, mac_size), want)

    def test_bits_past_the_last_mac_are_ignored(self):
        rows = np.full((2, 3), np.uint64(2**64 - 1))
        # 5 MACs of 25 columns end at column 125, inside word 1
        assert packed_mac_sums(rows, 5, 25).tolist() == [25 * 3] * 5
        assert packed_mac_sums(rows, 3, 64).tolist() == [64 * 3] * 3

    @pytest.mark.parametrize("planes, mac_size", [(62, 1), (61, 2), (60, 3)])
    def test_running_total_past_int64(self, planes, mac_size):
        # every bit set: each MAC sum fits in int64, but the row's running
        # total passes 2**63 within a few MACs, so the folded prefix wraps
        macs = 150
        rows = np.full((planes, word_count(macs * mac_size)),
                       np.uint64(2**64 - 1))
        want = mac_plane_sums(np.ones((planes, macs, mac_size), np.uint8))
        assert want.tolist() == [mac_size * (2**planes - 1)] * macs
        assert np.array_equal(packed_mac_sums(rows, macs, mac_size), want)

    def test_top_plane_weight_wraps(self):
        # 64 planes: plane 63 weighs 2**63, which int64 wraps; with the top
        # two planes clear every MAC sum still fits
        rng = np.random.default_rng(4)
        macs, cols = 90, 130
        rows = rng.integers(0, 2**64, size=(64, word_count(cols)),
                            dtype=np.uint64)
        rows[62:] = 0
        planes = unpack_columns(rows, cols)[:, :macs]
        want = mac_plane_sums(planes.reshape(64, macs, 1))
        assert np.array_equal(packed_mac_sums(rows, macs, 1), want)

    @pytest.mark.parametrize("mac_size", [1, 63, 64, 65, 200])
    @pytest.mark.parametrize("planes", [17, 18, 19, 20])
    def test_all_ones_at_the_float_fold_limit(self, planes, mac_size):
        # 18 planes is the last the float32 fold takes: every word's
        # weighted count, up to 64 * (2**18 - 1), is below 2**24
        assert datapath.FLOAT32_PLANES == 18
        macs = 70
        rows = np.full((planes, word_count(macs * mac_size)),
                       np.uint64(2**64 - 1))
        assert packed_mac_sums(rows, macs, mac_size).tolist() == [
            mac_size * (2**planes - 1)] * macs

    @pytest.mark.parametrize("planes", [18, 19])
    def test_every_low_bit_mask_is_read(self, planes):
        # MAC boundaries at 65 * i fall on bit i of their word, i = 0..63;
        # at 19 planes random words' weighted counts pass 2**24, where
        # float32 would round them
        rng = np.random.default_rng(6)
        macs, size = 64, 65
        rows = rng.integers(0, 2**64, size=(planes, word_count(macs * size)),
                            dtype=np.uint64)
        want = mac_plane_sums(unpack_columns(rows, macs * size)
                              .reshape(planes, macs, size))
        assert np.array_equal(packed_mac_sums(rows, macs, size), want)

    @pytest.mark.parametrize("block", [1, 24, 1000])
    @pytest.mark.parametrize("n", [2, 9])
    def test_fold_blocks_equal_the_plane_sums(self, monkeypatch, n, block):
        # the row's 40 words and its 101 boundary words folded a word at a
        # time, in blocks of 6 words (4 planes) or 1 (18), and at 4 planes
        # in one block
        rng = np.random.default_rng(block + n)
        macs, size = 100, 25
        rows = rng.integers(0, 2**64, size=(2 * n, 40), dtype=np.uint64)
        want = mac_plane_sums(unpack_columns(rows, macs * size)
                              .reshape(2 * n, macs, size))
        monkeypatch.setattr(datapath, "FOLD_BLOCK", block)
        assert np.array_equal(packed_mac_sums(rows, macs, size), want)

    def test_temporaries_stay_within_twice_the_rows(self):
        # AlexNet-conv1-shaped call: 8 planes of 4,608 words, 4,096 MACs of
        # 72 columns. Per-plane int64 prefix arrays would peak near 4x the
        # rows' own bytes.
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 2**64, size=(8, 4608), dtype=np.uint64)
        packed_mac_sums(rows, 4096, 72)
        tracemalloc.start()
        try:
            packed_mac_sums(rows, 4096, 72)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * rows.nbytes


class TestOperandPlacement:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_rows_equal_packed_shift_grid(self, n):
        # the byte-level reference writer that place_operands is checked
        # against
        rng = np.random.default_rng(n)
        dtype = np.min_scalar_type((1 << n) - 1)
        assert dtype == (np.uint8 if n <= 8 else np.uint16)
        for macs, mac_size in [(1, 1), (3, 21), (2, 64), (7, 45), (5, 130)]:
            values = rng.integers(0, 1 << n, size=(macs, mac_size),
                                  dtype=dtype)
            state = new_bank(rows_needed(n, 1), macs * mac_size, n)
            rows = state.weight_rows(0)
            reference.write_operands(state, rows, values)
            shifts = np.arange(n, dtype=dtype)[:, None]
            grid = (values.reshape(1, -1) >> shifts) & 1
            want = pack_columns(grid, state.cells.shape[1])
            assert np.array_equal(state.cells[list(rows)], want), (n, macs)
            others = np.ones(state.rows, dtype=bool)
            others[list(rows)] = False
            assert not state.cells[others].any()

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 16),
        conv=st.booleans(),
        channels=st.integers(1, 200),
        kernel=st.sampled_from([(1, 1), (1, 2), (2, 2), (3, 1), (3, 3)]),
        side=st.integers(1, 7),
        per_pass=st.integers(1, 4),
        k=st.integers(1, 3),
        spare_cols=st.integers(0, 150),
        chunk=st.tuples(st.integers(0, 2**16), st.integers(1, 2**16)),
        seed=st.integers(0, 2**16),
    )
    # whole-word periods, several MACs to a word, 1-bit MACs, and 16-bit
    # operands at an odd period
    @example(n=4, conv=True, channels=64, kernel=(1, 1), side=4, per_pass=2,
             k=2, spare_cols=0, chunk=(1, 3), seed=1)
    @example(n=8, conv=True, channels=32, kernel=(2, 2), side=3, per_pass=3,
             k=1, spare_cols=10, chunk=(2, 5), seed=2)
    @example(n=3, conv=False, channels=7, kernel=(1, 1), side=1, per_pass=4,
             k=3, spare_cols=20, chunk=(1, 2), seed=3)
    @example(n=1, conv=True, channels=1, kernel=(1, 1), side=1, per_pass=4,
             k=2, spare_cols=0, chunk=(1, 2), seed=4)
    @example(n=16, conv=True, channels=13, kernel=(3, 3), side=7, per_pass=1,
             k=1, spare_cols=3, chunk=(5, 17), seed=5)
    def test_rows_equal_reference_writer(self, n, conv, channels, kernel,
                                         side, per_pass, k, spare_cols,
                                         chunk, seed):
        # every row of a chunk's state, padding bits included; mac_size is
        # channels * K * L for conv (up to 198), channels for linear, and the
        # chunk's subarrays may start mid-filter and mid-period
        K, L = kernel
        if conv:
            layer = conv_layer(H=side + K - 1, W=side + L - 1, I=channels,
                               O=per_pass * k, K=K, L=L, p=side % 2)
            x_shape = (layer.I, layer.H, layer.W)
        else:
            layer = linear_layer(w1=channels, w2=per_pass * k)
            x_shape = (layer.w1,)
        net = NetworkDescription("place", n, [layer], parallelism=[k])
        plan = map_network(net, column_size=mac_size(layer) + spare_cols)
        place = plan.layers[0]
        first = chunk[0] % place.subarrays_used
        stop = min(first + chunk[1], place.subarrays_used)
        rng = np.random.default_rng(seed)
        x = engine._draw(rng, n, x_shape)
        w = engine.synth_weights(rng, layer, n)
        chunk = range(first, stop)
        (got,) = build_bank(place, chunk)
        place_operands(got, place, chunk, *prepare_operands(place, x, w))
        (want,) = build_bank(place, chunk)
        reference.place_operands(want, place, chunk, x, w)
        assert np.array_equal(got.cells, want.cells)

    @pytest.mark.parametrize("net, cols, chunk", [
        (net, cols, chunk) for net, cols, chunk, _ in CHUNKED] + [
        # 2 MACs of 5 bits to a subarray, the last subarray holding one
        (NetworkDescription("lin", 5, [linear_layer(w1=5, w2=7)]), 12, 3),
        # 16-bit operands, 25 subarrays of 3 MACs, at a 700-bit period
        (NetworkDescription("wide", 16, [
            conv_layer(H=4, W=4, I=7, O=6, K=2, p=1)], parallelism=[2]),
         86, 4),
    ], ids=[net.name for net, *_ in CHUNKED] + ["lin", "wide"])
    def test_reused_state_takes_each_chunk_as_a_fresh_one(self, net, cols,
                                                          chunk):
        # one state, sized for the first chunk and filled with random bits,
        # takes every chunk of the layer in turn, the narrower last one
        # included: its operand rows then equal a fresh state's for that
        # chunk, every word past the chunk's MACs cleared
        place = map_network(net, column_size=cols).layers[0]
        used = place.subarrays_used
        chunks = [range(first, min(first + chunk, used))
                  for first in range(0, used, chunk)]
        assert len(chunks[-1]) < chunk
        rng = np.random.default_rng(used)
        n, layer = net.precision, net.layers[0]
        operands = prepare_operands(place, engine.synth_input(rng, layer, n),
                                    engine.synth_weights(rng, layer, n))
        (state,) = build_bank(place, chunks[0])
        state.cells[:] = rng.integers(0, 2**64, size=state.cells.shape,
                                      dtype=np.uint64)
        rows = [*state.activation_rows(),
                *(r for p in range(place.passes) for r in state.weight_rows(p))]
        for subarrays in chunks:
            place_operands(state, place, subarrays, *operands)
            (fresh,) = build_bank(place, subarrays)
            place_operands(fresh, place, subarrays, *operands)
            want = np.zeros_like(state.cells[rows])
            want[:, : fresh.cells.shape[1]] = fresh.cells[rows]
            assert np.array_equal(state.cells[rows], want)

    @pytest.mark.parametrize("layer", [
        # 784 positions of 72 columns: whole-word periods
        conv_layer(H=30, W=30, I=8, O=16, K=3),
        # AlexNet conv1's kernel and stride: a 61,347-bit period
        conv_layer(H=59, W=59, I=3, O=8, K=11, s=4),
    ])
    def test_chunk_placement_in_bounded_memory(self, layer):
        # a mid-layer chunk of 55 subarrays, placed from packed words; the
        # byte-level writer peaked at 2.2-2.4 bytes per column here, its
        # (macs, mac_size) uint8 gathers alone taking one each
        net = NetworkDescription("mem", 4, [layer])
        place = map_network(net, column_size=4096).layers[0]
        rng = np.random.default_rng(6)
        x = engine.synth_input(rng, layer, 4)
        operands = prepare_operands(place, x,
                                    engine.synth_weights(rng, layer, 4))
        chunk = range(5, 60)
        (state,) = build_bank(place, chunk)
        place_operands(state, place, chunk, *operands)
        tracemalloc.start()
        try:
            place_operands(state, place, chunk, *operands)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * state.cols

    @pytest.mark.parametrize("block", [8, 64, 1 << 20])
    def test_packed_planes_blocks_equal_one_block(self, monkeypatch, block):
        # a 3,000-position row and (5, 27) filters, in blocks of 8 and 64
        # positions and in one block; unused bytes keep what they held
        rng = np.random.default_rng(block)
        for shape in [(3000,), (5, 27)]:
            values = rng.integers(0, 16, size=shape, dtype=np.uint8)
            words = word_count(shape[-1])
            want = np.full((4, *shape[:-1], words), np.uint64(2**64 - 1))
            raw = want.view(np.uint8)[..., : -(-shape[-1] // 8)]
            for bit in range(4):
                raw[bit] = np.packbits((values >> bit) & 1, axis=-1,
                                       bitorder="little")
            monkeypatch.setattr(engine, "PACK_BLOCK", block)
            got = engine._pack_planes(values, np.full_like(want, 2**64 - 1))
            assert np.array_equal(got, want)

    def test_packed_planes_mask_a_block_at_a_time(self, monkeypatch):
        # 2**20 positions in blocks of 2**14: the masking buffer holds one
        # block, not a second copy of the values
        monkeypatch.setattr(engine, "PACK_BLOCK", 1 << 14)
        values = np.random.default_rng(7).integers(0, 16, size=1 << 20,
                                                   dtype=np.uint8)
        out = np.zeros((4, word_count(values.size)), dtype=np.uint64)
        tracemalloc.start()
        try:
            engine._pack_planes(values, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * engine.PACK_BLOCK
