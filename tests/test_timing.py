"""Latency model, pipeline schedule and area/power table tests."""


import pytest

from pimsim.mapper import (
    NetworkDescription,
    ResidualAssignment,
    conv_layer,
    linear_layer,
    map_network,
)
from pimsim.timing import (
    AREA_PCT,
    AREA_UM2,
    POWER_NW,
    POWER_PCT,
    TIME_FIELDS,
    TREE_LEVELS,
    LayerLatency,
    TimingConfigError,
    TimingParams,
    area_power_report,
    layer_latency,
    network_latencies,
    pipeline_schedule,
    precision_sweep,
    residual_overhead,
)
from pimsim.engine import run_functional
from pimsim.subarray import mul_aap_count


def _stage(idx, busy, transfer=0.0):
    return LayerLatency(idx, busy, 0.0, 0.0, 0.0, transfer, 0)


def _toy_net(n=2, k=1):
    return NetworkDescription(
        "toy", n,
        [linear_layer(w1=4, w2=4), linear_layer(w1=4, w2=2)],
        parallelism=[k, 1],
    )


class TestLayerLatency:
    def test_multiply_phase_example(self):
        net = _toy_net(n=2)
        plan = map_network(net, 64)
        lat = layer_latency(plan.layers[0], TimingParams())
        assert lat.multiply_ns == pytest.approx(19 * 48.75)

    def test_stacked_pairs_double_multiply(self):
        single = _toy_net(n=2, k=1)
        double = _toy_net(n=2, k=2)
        p1 = map_network(single, 64)
        p2 = map_network(double, 64)
        l1 = layer_latency(p1.layers[0], TimingParams())
        l2 = layer_latency(p2.layers[0], TimingParams())
        assert l2.multiply_ns == pytest.approx(2 * l1.multiply_ns)

    def test_phase_additivity(self):
        net = _toy_net(n=4)
        plan = map_network(net, 64)
        for place in plan.layers:
            lat = layer_latency(place, TimingParams())
            assert lat.total_ns == pytest.approx(
                lat.multiply_ns + lat.reduce_ns + lat.sfu_ns
                + lat.transpose_ns + lat.transfer_ns
            )

    def test_penalty_scales_logic_terms_only(self):
        net = _toy_net(n=2)
        plan = map_network(net, 64)
        base = TimingParams(dram_logic_penalty=1.215)
        off = TimingParams(dram_logic_penalty=1.0)

        def phases(params):
            lat = layer_latency(plan.layers[0], params)
            return lat

        with_p, without = phases(base), phases(off)
        assert with_p.multiply_ns == without.multiply_ns
        assert with_p.transfer_ns == without.transfer_ns
        assert with_p.sfu_ns == pytest.approx(without.sfu_ns * 1.215)
        assert with_p.transpose_ns == pytest.approx(without.transpose_ns * 1.215)
        # reduce mixes row reads (DRAM rate) with the tree fill (logic rate);
        # only the fill term scales with the penalty
        n, levels = 2, TREE_LEVELS
        loads = (with_p.reduce_ns - without.reduce_ns) / (levels * 0.215)
        assert loads == pytest.approx(round(loads))
        assert without.reduce_ns == pytest.approx(
            loads * (levels * 1.0 + 2 * n * base.t_row_read)
        )

    def test_reduce_costs_the_loads_the_functional_run_reads(self):
        # 14 MACs of 9 in one 128-column subarray: one load of the
        # 4096-input tree, two of a 128-input one, four of a 64-input one
        net = NetworkDescription("tree", 2, [linear_layer(w1=9, w2=14)])
        plan = map_network(net, 128)
        params = TimingParams()
        lat = layer_latency(plan.layers[0], params)
        result = run_functional(net, plan, seed=0)
        loads = result.accounting[0].plane_reads // (2 * 2)
        assert loads == 1
        assert lat.reduce_ns == pytest.approx(loads * (
            TREE_LEVELS * params.logic_ns + 2 * 2 * params.t_row_read))


def _simulate_epochs(busy, transfers, images):
    """Discrete-event oracle: walk the occupancy table the scheduler claims
    and measure completion directly."""
    window = sum(transfers)
    steady = max(busy) + window
    prefix = []
    t = 0.0
    for b, dur in enumerate(busy):
        prefix.append(t)
        t += dur + (transfers[b] if b < len(transfers) else 0.0)
    finish = 0.0
    for image in range(images):
        finish = image * steady + prefix[-1] + busy[-1]
    return finish


class TestPipeline:
    def test_three_equal_banks(self):
        T = 100.0
        lats = [_stage(i, T) for i in range(3)]
        for B in (1, 2, 5):
            rep = pipeline_schedule(lats, B)
            assert rep.total_ns == pytest.approx((B + 2) * T)

    def test_single_image_is_sum_of_stages(self):
        lats = [_stage(0, 10.0, 2.0), _stage(1, 20.0, 3.0), _stage(2, 10.0, 9.0)]
        rep = pipeline_schedule(lats, 1)
        # transfers between banks only; the last bank's output stays put
        assert rep.total_ns == pytest.approx(10 + 20 + 10 + 2 + 3)

    def test_unequal_stages_steady_state(self):
        lats = [_stage(0, 10.0, 1.0), _stage(1, 20.0, 2.0), _stage(2, 10.0)]
        rep = pipeline_schedule(lats, 4)
        assert rep.steady_state_ns == pytest.approx(20.0 + 3.0)
        oracle = _simulate_epochs([10.0, 20.0, 10.0], [1.0, 2.0], 4)
        assert rep.total_ns == pytest.approx(oracle)

    def test_increment_equals_steady_state(self):
        lats = [_stage(0, 13.0, 1.5), _stage(1, 29.0, 0.5), _stage(2, 7.0)]
        prev = pipeline_schedule(lats, 1).total_ns
        for B in range(2, 11):
            cur = pipeline_schedule(lats, B).total_ns
            assert cur - prev == pytest.approx(
                pipeline_schedule(lats, B).steady_state_ns
            )
            prev = cur

    def test_occupancy_staggers_images(self):
        T = 50.0
        lats = [_stage(i, T) for i in range(3)]
        rep = pipeline_schedule(lats, 3)
        spans = {(o.image, o.bank): (o.start_ns, o.end_ns) for o in rep.occupancy}
        # bank b on image i overlaps bank b-1 on image i+1
        for image in range(2):
            for bank in (1, 2):
                s0, e0 = spans[(image, bank)]
                s1, e1 = spans[(image + 1, bank - 1)]
                assert max(s0, s1) < min(e0, e1)
        # no bank runs two images at once
        for bank in range(3):
            windows = sorted(
                (o.start_ns, o.end_ns) for o in rep.occupancy if o.bank == bank
            )
            for (s0, e0), (s1, e1) in zip(windows, windows[1:]):
                assert e0 <= s1 + 1e-9
        # every image visits every bank exactly once, in order
        for image in range(3):
            visits = [o for o in rep.occupancy if o.image == image]
            assert sorted(o.bank for o in visits) == [0, 1, 2]
            starts = [o.start_ns for o in sorted(visits, key=lambda o: o.bank)]
            assert starts == sorted(starts)

    def test_batch_must_be_positive(self):
        with pytest.raises(TimingConfigError):
            pipeline_schedule([_stage(0, 1.0)], 0)


class TestResidualOverhead:
    def test_no_residuals(self):
        assert residual_overhead([], 4, TimingParams(), 4096) == 0.0

    def test_one_skip_includes_add_term(self):
        res = [ResidualAssignment(edge=(0, 2), reserved_bank=7,
                                  transfer_bits=4096)]
        params = TimingParams()
        got = residual_overhead(res, 4, params, 4096)
        assert got == pytest.approx(3 * params.t_rowclone_interbank
                                    + 17 * params.t_aap)

    def test_two_matching_skips_double(self):
        one = [ResidualAssignment((0, 2), 7, 8192)]
        two = one + [ResidualAssignment((2, 4), 6, 8192)]
        params = TimingParams()
        assert residual_overhead(two, 3, params, 4096) == pytest.approx(
            2 * residual_overhead(one, 3, params, 4096)
        )


class TestAreaPower:
    def test_table_one_verbatim(self):
        report = area_power_report()
        assert report["area_um2"]["4096 Adder"] == 514877
        assert report["area_pct"]["4096 Adder"] == 99.47373
        assert report["area_um2"]["Quantize"] == 91
        assert report["area_um2"]["Accumulator"] == 804
        assert report["area_um2"]["Relu"] == 431
        assert report["area_um2"]["Maxpool"] == 983
        assert report["area_um2"]["Batchnorm"] == 506

    def test_table_two_verbatim(self):
        report = area_power_report()
        assert report["power_nw"]["4096 Adder"] == 13200190.9
        assert report["power_pct"]["4096 Adder"] == 95.9014
        assert report["power_nw"]["Quantize"] == 28366.738
        assert report["power_nw"]["Batchnorm"] == 120541.29

    def test_totals(self):
        report = area_power_report()
        assert report["area_total_um2"] == sum(AREA_UM2.values())
        assert report["power_total_nw"] == pytest.approx(sum(POWER_NW.values()))
        assert set(AREA_PCT) == set(POWER_PCT) == set(AREA_UM2)


class TestPrecisionSweep:
    def test_strictly_increasing_and_ratios(self):
        net = _toy_net()
        series = precision_sweep(net, [2, 4, 8], column_size=64,
                                 params=TimingParams())
        totals = [s["total_ns"] for s in series]
        assert totals == sorted(totals) and len(set(totals)) == 3
        mults = [s["multiply_ns"] for s in series]
        base = mults[0] / 19
        assert mults[1] / base == pytest.approx(168)
        assert mults[2] / base == pytest.approx(1592)

    def test_doubling_t_aap_doubles_multiply(self):
        net = _toy_net()
        p1 = TimingParams()
        p2 = TimingParams(t_aap=2 * p1.t_aap)
        s1 = precision_sweep(net, [2], 64, p1)[0]
        s2 = precision_sweep(net, [2], 64, p2)[0]
        assert s2["multiply_ns"] == pytest.approx(2 * s1["multiply_ns"])

    def test_n1_faster_than_n2(self):
        net = _toy_net()
        series = precision_sweep(net, [1, 2], 64, TimingParams())
        assert series[0]["total_ns"] < series[1]["total_ns"]

    def test_cubic_term_dominates_for_wide_n(self):
        for n in range(4, 12):
            cubic = 4 * (n - 1) ** 3
            assert mul_aap_count(n) - 3 * n * n - 4 * (n - 1) == cubic
            assert cubic > mul_aap_count(n) / 2


class TestTimingConfig:
    def test_text_round_trip(self):
        params = TimingParams(t_aap=50.0, logic_clock=0.5)
        params.sfu_cycles["pool"] = 2
        text = params.to_text()
        again = TimingParams.from_text(text)
        assert again == params

    def test_tree_depth_is_not_configurable(self):
        # one TREE_WIDTH-input tree: its depth is a constant, not a knob
        assert TREE_LEVELS == 12
        with pytest.raises(TimingConfigError, match="unknown timing field"):
            TimingParams.from_text("tree_levels = 12\n")

    def test_defaults_documented(self):
        params = TimingParams()
        assert params.t_aap == 48.75           # tRAS 35 + tRP 13.75
        assert params.dram_logic_penalty == 1.215

    def test_bad_values_rejected(self):
        with pytest.raises(TimingConfigError):
            TimingParams(t_aap=0)
        with pytest.raises(TimingConfigError):
            TimingParams.from_text("nonsense = 4\n")
        with pytest.raises(TimingConfigError):
            TimingParams.from_text("t_aap : 4\n")

    @pytest.mark.parametrize("line", [
        "t_aap = fast", "t_row_read = 35ns", "sfu_cycles.relu = 1.5",
        "logic_clock =",
    ])
    def test_unparsable_values_rejected(self, line):
        with pytest.raises(TimingConfigError, match="is not a valid"):
            TimingParams.from_text(line + "\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, value):
        with pytest.raises(TimingConfigError, match="finite"):
            TimingParams.from_text(f"t_aap = {value}\n")
        with pytest.raises(TimingConfigError, match="finite"):
            TimingParams(t_row_read=float(value))
        with pytest.raises(TimingConfigError, match="finite"):
            TimingParams(sfu_cycles={"pool": float(value)})

    def test_cycles_beyond_float_range_rejected(self):
        # math.isfinite raised OverflowError on an int this large
        with pytest.raises(TimingConfigError, match="beyond float range"):
            TimingParams(sfu_cycles={"pool": 10**400})

    @pytest.mark.parametrize("name", TIME_FIELDS)
    def test_time_field_beyond_float_range_rejected(self, name):
        # math.isfinite raised OverflowError on an int this large
        with pytest.raises(TimingConfigError, match=f"^{name} must be "
                           "positive and finite, got an int beyond float"):
            TimingParams(**{name: 10**400})

    @pytest.mark.parametrize("kwargs, message", [
        # to_text printed this as `t_aap = True`
        ({"t_aap": True}, "t_aap must be a number, got True"),
        ({"logic_clock": "1"}, "logic_clock must be a number, got '1'"),
        # to_text and the latency model failed with KeyError: 'batchnorm'
        ({"sfu_cycles": {"relu": 2}},
         r"sfu_cycles must give one count per unit of .*, got \['relu'\]"),
        ({"sfu_cycles": {**TimingParams().sfu_cycles, "gelu": 1}},
         r"sfu_cycles must give one count per unit of .*'gelu'"),
        ({"sfu_cycles": {**TimingParams().sfu_cycles, "pool": 1.5}},
         "sfu_cycles.pool must be an integer, got 1.5"),
        ({"sfu_cycles": {**TimingParams().sfu_cycles, "pool": True}},
         "sfu_cycles.pool must be an integer, got True"),
    ], ids=["bool-time", "str-time", "missing-unit", "unknown-unit",
            "float-cycles", "bool-cycles"])
    def test_fields_checked_as_from_text_reads_them(self, kwargs, message):
        with pytest.raises(TimingConfigError, match=f"^{message}"):
            TimingParams(**kwargs)
