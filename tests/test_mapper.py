"""Mapping algorithm tests: counts, placement rules, footprints, residuals."""

import re
from dataclasses import FrozenInstanceError, asdict, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pimsim.mapper import (
    BLOCK_BYTES,
    LISTED_MACS,
    LayerPlacement,
    MappingError,
    NetworkDescription,
    conv_layer,
    footprint_bits,
    linear_layer,
    mac_size,
    map_network,
    network_from_json,
    network_to_json,
    num_macs,
    plan_residual,
    plan_to_text,
    total_macs,
    total_multiplications,
    validate_plan,
)
from pimsim.presets import preset


class TestNumMacs:
    def test_square_conv(self):
        layer = conv_layer(H=32, W=32, I=3, O=8, K=3, p=1, s=1)
        assert num_macs(layer) == 1024

    def test_kernel_covers_input(self):
        layer = conv_layer(H=5, W=7, I=2, O=1, K=5, L=7, p=0, s=1)
        assert num_macs(layer) == 1

    def test_legacy_alexnet_geometry_floors(self):
        layer = conv_layer(H=224, W=224, I=3, O=96, K=11, p=2, s=4)
        assert num_macs(layer) == 55 * 55


class TestMacSize:
    def test_conv(self):
        assert mac_size(conv_layer(H=8, W=8, I=64, O=4, K=3)) == 576

    def test_pointwise(self):
        assert mac_size(conv_layer(H=8, W=8, I=1, O=4, K=1)) == 1

    def test_linear(self):
        assert mac_size(linear_layer(w1=3, w2=4)) == 3


class TestFootprint:
    def test_conv_worst_case(self):
        layer = conv_layer(H=32, W=32, I=3, O=64, K=3, p=1, s=1)
        assert footprint_bits(layer, 4) == 64 * 1024 * 27 * 8 == 14_155_776

    def test_linear(self):
        assert footprint_bits(linear_layer(w1=3, w2=4), 4) == 96

    def test_linear_in_n(self):
        layer = linear_layer(w1=7, w2=9)
        assert footprint_bits(layer, 1) * 2 == footprint_bits(layer, 2)
        with pytest.raises(MappingError):
            footprint_bits(layer, 0)


class TestMapNetwork:
    def test_linear_3_to_4_hand_trace(self):
        net = NetworkDescription("toy", 4, [linear_layer(w1=3, w2=4)])
        plan = map_network(net, column_size=64)
        place = plan.layers[0]
        assert place.macs_total == 4 and place.mac_size == 3
        locs = [place.mac_location(m) for m in range(4)]
        assert [l[1] for l in locs] == [1, 1, 1, 1]          # all subarray 1
        assert [l[2] for l in locs] == [1, 4, 7, 10]         # columns 1..12
        assert all(l[3] == 0 for l in locs)

    def test_straddle_rule(self):
        layer = conv_layer(H=26, W=26, I=64, O=2, K=3, p=0, s=1)
        assert mac_size(layer) == 576
        net = NetworkDescription("s", 4, [layer])
        plan = map_network(net, column_size=4096)
        place = plan.layers[0]
        assert place.macs_per_subarray == 7                  # 7*576 <= 4096
        _, sub, col, _ = place.mac_location(7)               # the 8th MAC
        assert (sub, col) == (2, 1)

    def test_parallelism_halves_columns(self):
        layer_k1 = conv_layer(H=10, W=10, I=2, O=4, K=3, p=1, s=1)
        layer_k2 = conv_layer(H=10, W=10, I=2, O=4, K=3, p=1, s=1)
        net1 = NetworkDescription("a", 4, [layer_k1], parallelism=[1])
        net2 = NetworkDescription("b", 4, [layer_k2], parallelism=[2])
        p1 = map_network(net1, 4096).layers[0]
        p2 = map_network(net2, 4096).layers[0]
        assert p2.passes == 2
        assert max(p2.mac_location(m)[3] for m in range(p2.macs_total)) == 1
        assert p2.macs_per_pass * 2 == p1.macs_per_pass * p1.passes
        cols1 = p1.macs_per_pass * p1.mac_size
        cols2 = p2.macs_per_pass * p2.mac_size
        assert cols2 * 2 == cols1

    def test_mac_wider_than_subarray_rejected(self):
        net = NetworkDescription("w", 4, [linear_layer(w1=100, w2=2)])
        with pytest.raises(MappingError, match="cannot span"):
            map_network(net, column_size=64)
        # no placement of such a MAC can be built
        with pytest.raises(MappingError, match=re.escape(
                "layer 0: MAC of 100 multiplications exceeds column_size 64")):
            LayerPlacement(0, net.layers[0], 1, 64, 4)

    def test_placement_is_frozen(self):
        net = NetworkDescription("f", 4, [linear_layer(w1=4, w2=6)])
        place = map_network(net, column_size=64).layers[0]
        for name in ("passes", "layer", "macs_total", "subarrays_used"):
            with pytest.raises(FrozenInstanceError):
                setattr(place, name, getattr(place, name))

    def test_capacity_error_names_deficit(self):
        net = NetworkDescription(
            "c", 4, [conv_layer(H=16, W=16, I=4, O=8, K=3, p=1, s=1)]
        )
        with pytest.raises(MappingError, match="short by"):
            map_network(net, column_size=64, subarrays_per_bank=2)

    def test_row_budget_names_the_stacking_depth(self):
        # 2 pairs at n=4 need 9 compute + 3 intermediate + 8 product rows
        # plus 3 * 4 operand rows = 32; the 1-pass layer 0 needs 28
        net = NetworkDescription(
            "r", 4, [linear_layer(w1=4, w2=6), linear_layer(w1=6, w2=4)],
            parallelism=[1, 2],
        )
        assert map_network(net, 64, rows=32).layers[1].passes == 2
        with pytest.raises(MappingError, match=re.escape(
                "layer 1: 31 rows cannot stack 2 pairs at n=4 (need 32)")):
            map_network(net, 64, rows=31)

    def test_no_row_budget_maps_any_depth(self):
        # 8 pairs at n=64 would need 776 rows
        net = NetworkDescription("r", 64, [linear_layer(w1=4, w2=8)],
                                 parallelism=[8])
        assert map_network(net, 64).layers[0].passes == 8
        assert map_network(net, 64, rows=None).layers[0].passes == 8

    def test_k_must_divide_outputs(self):
        with pytest.raises(MappingError, match="does not divide"):
            net = NetworkDescription(
                "k", 4, [linear_layer(w1=4, w2=6)], parallelism=[4]
            )
            map_network(net, 64)

    def test_parallelism_leaves_the_layers_unchanged(self):
        # k lives only in the vector: the layers given are not modified
        layers = [conv_layer(H=6, W=6, I=2, O=4, K=3, p=1),
                  linear_layer(w1=4, w2=6)]
        before = [asdict(layer) for layer in layers]
        net = NetworkDescription("k", 4, layers, parallelism=[2, 3])
        assert [asdict(layer) for layer in net.layers] == before
        assert [pl.passes for pl in map_network(net, 64).layers] == [2, 3]
        assert [asdict(layer) for layer in layers] == before

    def test_determinism(self):
        net = NetworkDescription(
            "d", 4,
            [conv_layer(H=8, W=8, I=3, O=4, K=3, p=1, s=1),
             linear_layer(w1=16, w2=8)],
            parallelism=[2, 2],
        )
        a = b"".join(plan_to_text(map_network(net, 256)))
        b = b"".join(plan_to_text(map_network(net, 256)))
        assert a == b


class TestCompleteness:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_placed_count_matches_analytic(self, data):
        kind = data.draw(st.sampled_from(["conv", "linear"]))
        if kind == "conv":
            k_choices = [1, 2, 4]
            o = data.draw(st.sampled_from([4, 8, 12]))
            layer = conv_layer(
                H=data.draw(st.integers(4, 10)),
                W=data.draw(st.integers(4, 10)),
                I=data.draw(st.integers(1, 3)),
                O=o, K=3, p=1, s=1,
            )
            k = data.draw(st.sampled_from([k for k in k_choices if o % k == 0]))
        else:
            w2 = data.draw(st.sampled_from([4, 8, 10]))
            layer = linear_layer(w1=data.draw(st.integers(1, 30)), w2=w2)
            k = data.draw(st.sampled_from([1, 2]))
        net = NetworkDescription("p", 4, [layer], parallelism=[k])
        column_size = max(64, mac_size(layer))
        plan = map_network(net, column_size=column_size)
        place = plan.layers[0]
        assert place.macs_total * place.mac_size == total_multiplications(layer)
        assert validate_plan(plan, net) == []
        # every count the placement derives, against the closed forms
        assert (place.mac_size, place.macs_total) == (mac_size(layer),
                                                      total_macs(layer))
        assert place.channel_positions == (
            num_macs(layer) if kind == "conv" else 1)
        assert place.macs_per_pass * k == place.macs_total
        assert place.macs_per_subarray == column_size // mac_size(layer)
        assert place.subarrays_used == -(-place.macs_per_pass
                                         // place.macs_per_subarray)
        assert (place.kind, place.bank) == (kind, 0)

    def test_monotone_parallelism(self):
        depths, cols = [], []
        for k in (1, 2, 4):
            layer = conv_layer(H=6, W=6, I=2, O=8, K=3, p=1, s=1)
            net = NetworkDescription("m", 4, [layer], parallelism=[k])
            place = map_network(net, 4096).layers[0]
            depths.append(place.passes - 1)
            cols.append(place.macs_per_pass * place.mac_size)
        assert depths == sorted(depths)
        assert cols == sorted(cols, reverse=True)

    def test_occupied_bits_vs_footprint(self):
        # no straddle padding: MAC size divides column_size evenly
        layer = linear_layer(w1=16, w2=8)
        net = NetworkDescription("f", 4, [layer])
        place = map_network(net, column_size=64).layers[0]
        assert place.padding_bits() == 0
        assert place.occupied_bits() == footprint_bits(layer, 4)
        # with straddle padding the occupied bits stay bounded
        layer2 = linear_layer(w1=24, w2=8)
        net2 = NetworkDescription("g", 4, [layer2])
        place2 = map_network(net2, column_size=64).layers[0]
        assert place2.padding_bits() > 0
        assert (
            place2.occupied_bits()
            <= footprint_bits(layer2, 4) + place2.padding_bits()
        )


class TestValidatePlan:
    def _plan(self):
        net = NetworkDescription(
            "v", 4, [linear_layer(w1=8, w2=4)], parallelism=[2]
        )
        return net, map_network(net, column_size=32)

    def test_valid_plan_is_clean(self):
        net, plan = self._plan()
        assert validate_plan(plan, net) == []

    def test_placement_of_another_layer(self):
        net, plan = self._plan()
        plan.layers[0] = replace(plan.layers[0],
                                 layer=linear_layer(w1=8, w2=6))
        assert validate_plan(plan, net) == [
            "layer 0: placement is not this layer's at k=2"]

    def test_injected_capacity_violation(self):
        net, plan = self._plan()
        plan.subarrays_per_bank = 1
        plan.layers[0] = replace(plan.layers[0], column_size=8)
        issues = validate_plan(plan, net)
        assert issues == ["layer 0: uses 2 subarrays, bank has 1"]


def _reference_faults(plan, net):
    """Brute-force placement check: walk every MAC of every layer through
    mac_location and report MACs that are not placed, overrun their columns,
    subarrays or pair depths, or share a column at the same depth."""
    faults = []
    for place, layer in zip(plan.layers, net.layers):
        if place.macs_per_pass < 1 or place.macs_per_subarray < 1:
            faults.append(f"layer {place.layer_index}: MACs cannot be located")
            continue
        width = mac_size(layer)
        taken = set()
        for mac in range(total_macs(layer)):
            try:
                _, sub, col, depth = place.mac_location(mac)
            except MappingError:
                faults.append(f"mac {mac} is not placed")
                break
            if col < 1 or col + width - 1 > place.column_size:
                faults.append(f"mac {mac} columns {col}..{col + width - 1}")
            if not 1 <= sub <= place.subarrays_used:
                faults.append(f"mac {mac} in subarray {sub}")
            if (plan.subarrays_per_bank is not None
                    and sub > plan.subarrays_per_bank):
                faults.append(f"mac {mac} beyond the bank")
            if not 0 <= depth < place.passes:
                faults.append(f"mac {mac} at depth {depth}")
            slots = {(sub, c, depth) for c in range(col, col + width)}
            if taken & slots:
                faults.append(f"mac {mac} shares a slot")
            taken |= slots
    return faults


# The fields a placement is built from; it derives every other one.
TAMPERED_FIELDS = ("layer", "passes", "column_size")


def _draw_layer(data):
    """A small conv or linear layer and a k that divides its outputs."""
    if data.draw(st.booleans()):
        outputs = data.draw(st.sampled_from([2, 4, 6]))
        layer = conv_layer(
            H=data.draw(st.integers(2, 5)), W=data.draw(st.integers(2, 5)),
            I=data.draw(st.integers(1, 2)), O=outputs, K=2, p=0, s=1,
        )
    else:
        outputs = data.draw(st.sampled_from([4, 6, 9]))
        layer = linear_layer(w1=data.draw(st.integers(1, 8)), w2=outputs)
    k = data.draw(st.sampled_from([k for k in (1, 2, 3) if outputs % k == 0]))
    return layer, k


class TestValidatePlanClosedForm:
    def test_bank_one_subarray_short(self):
        # linear 8 -> 16 at column_size 32: 4 MACs per subarray, 4 subarrays
        net = NetworkDescription("u", 4, [linear_layer(w1=8, w2=16)])
        plan = map_network(net, column_size=32)
        assert plan.layers[0].subarrays_used == 4
        plan.subarrays_per_bank = 3
        assert plan.layers[0].mac_location(15)[1] == 4
        assert _reference_faults(plan, net)
        assert validate_plan(plan, net) == [
            "layer 0: uses 4 subarrays, bank has 3"]

    def test_another_layer_of_as_many_multiplications(self):
        # 6 MACs of 4 placed as 12 MACs of 2: the multiplication count
        # agrees, but the real MACs overlap
        net = NetworkDescription("m", 4, [linear_layer(w1=4, w2=6)])
        plan = map_network(net, column_size=32)
        plan.layers[0] = replace(plan.layers[0],
                                 layer=linear_layer(w1=2, w2=12))
        assert _reference_faults(plan, net)
        assert validate_plan(plan, net) == [
            "layer 0: placement is not this layer's at k=1"]

    def test_placement_at_a_k_that_does_not_divide(self):
        # 6 MACs in 4 passes of one would leave MACs 4 and 5 unplaced, so no
        # such placement can be built
        with pytest.raises(MappingError, match=re.escape(
                "layer 0: k=4 does not split its 6 MACs into equal passes")):
            LayerPlacement(0, linear_layer(w1=4, w2=6), 4, 32, 4)

    def test_conv_placement_whose_passes_split_a_filter(self):
        # 3 filters of 4 positions in 2 passes of 6 MACs: pass 1 would start
        # inside filter 1, where the engine takes every pass to start on a
        # filter boundary
        layer = conv_layer(H=2, W=2, I=1, O=3, K=1)
        with pytest.raises(MappingError, match=re.escape(
                "layer 0: k=2 does not divide O=3; a pass must hold whole "
                "filters")):
            LayerPlacement(0, layer, 2, 32, 4)

    def test_placement_at_k_zero(self):
        with pytest.raises(MappingError, match=re.escape(
                "layer 0: k=0 does not split its 6 MACs into equal passes")):
            LayerPlacement(0, linear_layer(w1=4, w2=6), 0, 32, 4)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_no_fault_the_brute_force_walk_finds_is_missed(self, data):
        layer, k = _draw_layer(data)
        net = NetworkDescription("t", 2, [layer], parallelism=[k])
        column_size = data.draw(st.integers(mac_size(layer), 3 * mac_size(layer)))
        plan = map_network(net, column_size)
        place = plan.layers[0]
        assert validate_plan(plan, net) == [] == _reference_faults(plan, net)
        plan.subarrays_per_bank = data.draw(st.one_of(
            st.none(), st.integers(place.subarrays_used - 1,
                                   place.subarrays_used + 1)))
        changes = {}
        for name in data.draw(st.lists(st.sampled_from(TAMPERED_FIELDS),
                                       min_size=1, unique=True)):
            if name == "layer":
                changes[name] = _draw_layer(data)[0]
            else:
                high = 4 if name == "passes" else 3 * column_size
                changes[name] = data.draw(st.integers(1, high))
        try:
            plan.layers[0] = replace(place, **changes)
        except MappingError:
            # a MAC wider than its columns, or a k that does not split the
            # MACs into equal passes of whole filters, has no placement at all
            drawn = changes.get("layer", layer)
            passes = changes.get("passes", k)
            assert (mac_size(drawn) > changes.get("column_size", column_size)
                    or total_macs(drawn) % passes
                    or drawn.kind == "conv" and drawn.O % passes)
            return
        if _reference_faults(plan, net):
            assert validate_plan(plan, net) != []


class TestResidual:
    def test_no_residuals_empty(self):
        net = NetworkDescription("r", 4, [linear_layer(w1=4, w2=4)])
        assert plan_residual(net, total_banks=4) == []

    def test_two_skips_two_banks(self):
        net = NetworkDescription(
            "r2", 4,
            [conv_layer(H=6, W=6, I=2, O=2, K=3, p=1, s=1) for _ in range(5)],
            residual_edges=[(0, 2), (2, 4)],
        )
        res = plan_residual(net, total_banks=8)
        banks = [r.reserved_bank for r in res]
        assert len(set(banks)) == 2
        assert banks == [7, 6]
        for r in res:
            assert r.transfer_bits == 2 * 6 * 6 * 4

    def test_resnet18_reserves_per_skip(self):
        net = preset("resnet18", "P1")
        res = plan_residual(net, total_banks=18 + len(net.residual_edges))
        assert len(res) == len(net.residual_edges) == 8
        assert len({r.reserved_bank for r in res}) == 8

    def test_no_free_bank_is_infeasible(self):
        net = preset("resnet18", "P1")
        with pytest.raises(MappingError, match="reserved"):
            plan_residual(net, total_banks=18)


class TestNetworkJson:
    def test_round_trip(self):
        net = NetworkDescription(
            "rt", 4,
            [conv_layer(H=4, W=4, I=1, O=2, K=2), linear_layer(w1=18, w2=4)],
            parallelism=[1, 2],
            residual_edges=[],
        )
        text = network_to_json(net)
        again = network_from_json(text)
        assert network_to_json(again) == text
        assert again.parallelism == [1, 2]

    def test_bad_parallelism_length_rejected(self):
        text = network_to_json(
            NetworkDescription("x", 4, [linear_layer(w1=2, w2=2)])
        ).replace('"parallelism": [\n    1\n  ]', '"parallelism": [1, 1]')
        with pytest.raises(MappingError, match="parallelism"):
            network_from_json(text)

    def test_field_level_messages(self):
        with pytest.raises(MappingError, match="missing the 'precision'"):
            network_from_json('{"name": "x", "layers": []}')
        with pytest.raises(MappingError, match="unknown fields"):
            network_from_json(
                '{"name": "x", "precision": 2, '
                '"layers": [{"kind": "linear", "w1": 2, "w2": 2, "bogus": 1}]}'
            )


def _reference_listing(place):
    """The per-MAC listing of plan.txt, one mac_location call per MAC."""
    lines = []
    for mac in range(place.macs_total):
        _, sub, col, depth = place.mac_location(mac)
        lines.append(f"  mac_id={mac} sub_no={sub} col_no={col} "
                     f"pair_depth={depth}")
    return lines


class TestPlanText:
    def _plan(self):
        # conv: 2 passes of 50 MACs of 18 columns, 3 per 64-column subarray,
        # so the 17th subarray of each pass holds 2; linear: 2 passes of 2
        net = NetworkDescription(
            "l", 4,
            [conv_layer(H=5, W=5, I=2, O=4, K=3, p=1, s=1),
             linear_layer(w1=6, w2=4)],
            parallelism=[2, 2],
        )
        return map_network(net, column_size=64)

    def test_listing_walks_mac_location(self):
        plan = self._plan()
        conv = plan.layers[0]
        assert conv.passes == 2 and conv.subarrays_used == 17
        assert conv.macs_per_pass % conv.macs_per_subarray == 2
        text = b"".join(plan_to_text(plan)).decode()
        listed = [line for line in text.splitlines()
                  if line.startswith("  mac_id=")]
        assert listed == [line for place in plan.layers
                          for line in _reference_listing(place)]

    def test_listing_follows_its_layer_header(self):
        net = NetworkDescription("l", 4, [
            linear_layer(w1=1, w2=LISTED_MACS + 1), linear_layer(w1=6, w2=4),
        ])
        plan = map_network(net, column_size=64)
        lines = b"".join(plan_to_text(plan)).decode().splitlines()
        header = [i for i, line in enumerate(lines)
                  if line.startswith("layer ")]
        # the first layer is over the limit, the 4-MAC linear is listed
        assert header[1] == header[0] + 1
        assert lines[header[1] + 1:] == _reference_listing(plan.layers[1])

    @settings(max_examples=60, deadline=None)
    @given(passes=st.integers(1, 4), per_pass=st.integers(1, LISTED_MACS),
           size=st.integers(1, 9) | st.integers(1, 2**62),
           per_sub=st.integers(1, 12) | st.integers(1, LISTED_MACS + 1),
           spare=st.integers(0, 2**62))
    # one MAC per subarray: sub_no runs 1..10000 over LISTED_MACS MACs
    @example(passes=1, per_pass=LISTED_MACS, size=1, per_sub=1, spare=0)
    # 4 passes of 357 full subarrays of 7 MACs and a last one of 1
    @example(passes=4, per_pass=2500, size=3, per_sub=7, spare=2)
    # a pass fits one partial subarray
    @example(passes=2, per_pass=30, size=5, per_sub=100, spare=0)
    # column_size 2**63 - 2: col_no up to 2 * (2**63 // 3) + 1
    @example(passes=3, per_pass=5, size=2**63 // 3, per_sub=3, spare=0)
    # column_size 2**63 - 1
    @example(passes=2, per_pass=7, size=2**61, per_sub=3, spare=2**61 - 1)
    # one subarray's 5,000 lines are more than a block: runs of its slots
    @example(passes=2, per_pass=5000, size=3, per_sub=6000, spare=0)
    def test_listing_matches_mac_location_on_drawn_placements(
            self, passes, per_pass, size, per_sub, spare):
        per_pass = min(per_pass, LISTED_MACS // passes)
        # fewer spare columns than one MAC, so a subarray holds per_sub MACs
        # unless column_size hits its 2**63 - 1 limit
        column_size = min(size * per_sub + spare % size, 2**63 - 1)
        net = NetworkDescription("h", 2, [linear_layer(w1=size,
                                                       w2=passes * per_pass)],
                                 parallelism=[passes])
        plan = map_network(net, column_size)
        blocks = list(plan_to_text(plan))
        assert max(map(len, blocks)) <= BLOCK_BYTES
        lines = b"".join(blocks).decode().split("\n")
        assert lines[2:] == _reference_listing(plan.layers[0]) + [""]

    def test_text_of_a_two_layer_plan_with_a_reserved_bank(self):
        # plan.txt is output only; its exact bytes, header included
        net = NetworkDescription(
            "p", 2,
            [conv_layer(H=3, W=3, I=1, O=2, K=2), linear_layer(w1=8, w2=2)],
            parallelism=[2, 1], residual_edges=[(0, 1)],
        )
        plan = map_network(net, 16, subarrays_per_bank=8)
        plan.reserved_banks = plan_residual(net, 4)
        assert b"".join(plan_to_text(plan)) == (
            b"plan column_size=16 subarrays_per_bank=8 precision=2\n"
            b"layer index=0 bank=0 kind=conv mac_size=4 macs_total=8 "
            b"passes=2 macs_per_pass=4 macs_per_subarray=4 subarrays_used=1 "
            b"channel_positions=4\n"
            b"  mac_id=0 sub_no=1 col_no=1 pair_depth=0\n"
            b"  mac_id=1 sub_no=1 col_no=5 pair_depth=0\n"
            b"  mac_id=2 sub_no=1 col_no=9 pair_depth=0\n"
            b"  mac_id=3 sub_no=1 col_no=13 pair_depth=0\n"
            b"  mac_id=4 sub_no=1 col_no=1 pair_depth=1\n"
            b"  mac_id=5 sub_no=1 col_no=5 pair_depth=1\n"
            b"  mac_id=6 sub_no=1 col_no=9 pair_depth=1\n"
            b"  mac_id=7 sub_no=1 col_no=13 pair_depth=1\n"
            b"layer index=1 bank=1 kind=linear mac_size=8 macs_total=2 "
            b"passes=1 macs_per_pass=2 macs_per_subarray=2 subarrays_used=1 "
            b"channel_positions=1\n"
            b"  mac_id=0 sub_no=1 col_no=1 pair_depth=0\n"
            b"  mac_id=1 sub_no=1 col_no=9 pair_depth=0\n"
            b"reserved bank=3 src=0 dst=1 bits=16\n"
        )
        # an unbounded bank writes 0 subarrays per bank
        assert b"".join(plan_to_text(map_network(net, 16))).startswith(
            b"plan column_size=16 subarrays_per_bank=0 precision=2\n")
