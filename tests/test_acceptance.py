"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with: pytest tests/test_acceptance.py -v -s
All checks are exact (zero tolerance) unless a runtime bound is stated.
"""

import sys
import time

import numpy as np
import pytest

from cells import read_products, unpack_columns, write_operands
from reference import AccumulatorState, accumulate_bitplane
from pimsim import subarray
from pimsim.cli import RunConfig, run
from pimsim.datapath import build_adder_tree, tree_reduce
from pimsim.engine import BANK_CHUNK_COLUMNS, run_functional
from pimsim.mapper import (
    NetworkDescription,
    conv_layer,
    footprint_bits,
    linear_layer,
    map_network,
    total_multiplications,
    validate_plan,
)
from pimsim.presets import PARALLELISM, preset
from pimsim.subarray import (
    AapTrace,
    add_bitserial,
    add_count,
    and_count,
    mul_aap_count,
    multiply,
    new_bank,
)
from pimsim.timing import (
    LayerLatency,
    TimingParams,
    area_power_report,
    pipeline_schedule,
    precision_sweep,
)


def _verdict(num: int, ok: bool, text: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}",
          file=sys.stdout, flush=True)
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_multiplication_correctness():
    t0 = time.monotonic()
    checked = 0
    for n in range(1, 10):
        # every operand pair, one per column, at three stacked pairs
        cols = np.arange(1 << 2 * n)
        acts, weights = cols & ((1 << n) - 1), cols >> n
        st = new_bank(subarray.rows_needed(n, 3), len(cols), n)
        for pair in range(3):
            write_operands(st, acts, weights, pair=pair)
            multiply(st, pair=pair)
            assert np.array_equal(read_products(st), acts * weights), (n, pair)
            checked += len(cols)

    rng = np.random.default_rng(1234)
    n = 8
    acts, weights = rng.integers(0, 256, 10000), rng.integers(0, 256, 10000)
    st = new_bank(64, len(acts), n)
    write_operands(st, acts, weights)
    multiply(st)
    assert np.array_equal(read_products(st), acts * weights)
    checked += len(acts)

    elapsed = time.monotonic() - t0
    _verdict(
        1, elapsed < 120,
        f"{checked} products exact (exhaustive n=1..9 at pairs 0-2, "
        f"10000 random n=8) "
        f"in {elapsed:.1f}s",
    )


def test_criterion_2_aap_cost_exactness():
    for n in range(1, 9):
        st = new_bank(9 + (n - 1) + 4 * n + 4, 2, n)
        write_operands(st, [(1 << n) - 1], [1])
        events = multiply(st)
        schedule = subarray._schedule(n, 0)
        tr = AapTrace(st.rows, list(events), list(schedule.and_spans),
                      list(schedule.add_spans))
        assert tr.total_aap == mul_aap_count(n), n
        assert tr.and_ops == and_count(n) == n * n, n
        assert tr.add_ops == add_count(n), n
        if n > 2:
            assert all(hi - lo == 4 * (n - 1) for lo, hi in tr.add_spans), n

        st2 = new_bank(9 + (n - 1) + 4 * n + 3 * n + 2, 1, n)
        base = st2.data_base
        a_rows = list(range(base, base + n))
        b_rows = list(range(base + n, base + 2 * n))
        out_rows = list(range(base + 2 * n, base + 3 * n + 1))
        tr2 = AapTrace(st2.rows)
        before = tr2.total_aap
        add_bitserial(tr2, a_rows, b_rows, out_rows)
        assert tr2.total_aap - before == 4 * n + 1, n
    assert mul_aap_count(2) == 19 and mul_aap_count(4) == 168
    _verdict(
        2, True,
        "trace totals equal the closed forms for n=1..8 "
        "(19 at n=2, 168 at n=4), AND events = n^2, ADD primitive = 4n+1",
    )


def test_criterion_3_mac_pipeline_identity():
    rng = np.random.default_rng(77)
    runs = 0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        size = int(rng.integers(1, 65))
        a = rng.integers(0, 1 << n, size)
        b = rng.integers(0, 1 << n, size)
        st = new_bank(9 + (n - 1) + 4 * n + 4, 64, n)
        write_operands(st, a, b)
        multiply(st)
        cfg = build_adder_tree(64, [size])
        acc = AccumulatorState()
        planes = unpack_columns(st.cells[list(st.product_rows)], 64)
        for plane_idx in range(2 * n):
            plane = np.zeros(64, dtype=np.int64)
            plane[:size] = planes[plane_idx, :size]
            accumulate_bitplane(acc, int(tree_reduce(cfg, plane)[0]), plane_idx)
        expected = int(np.dot(a.astype(np.int64), b.astype(np.int64)))
        assert acc.value == expected, (n, size)
        runs += 1
    _verdict(3, runs >= 100,
             f"{runs} random MACs (sizes 1..64, n<=4) rebuilt exactly "
             "through tree reduce and shift-add accumulate")


def test_criterion_4_mapping_invariants():
    column_size = 32768        # large enough for the widest preset MAC
    combos = 0
    for name, vectors in PARALLELISM.items():
        for tag in vectors:
            net = preset(name, tag)
            plan = map_network(net, column_size)
            violations = validate_plan(plan, net)
            assert violations == [], (name, tag, violations)
            for place, layer in zip(plan.layers, net.layers):
                assert (place.macs_total * place.mac_size
                        == total_multiplications(layer)), (name, tag)
                if place.passes == 1:
                    fp = footprint_bits(layer, net.precision)
                    assert place.placed_bits() == fp
                    assert (place.occupied_bits()
                            == fp + place.padding_bits())
            combos += 1
    _verdict(4, combos >= 9,
             f"{combos} preset x parallelism mappings clean; placement "
             "counts analytic; k=1 occupancy = footprint + reported padding")


def test_criterion_5_pipeline_schedule():
    def stage(i, busy, xfer=0.0):
        return LayerLatency(i, busy, 0.0, 0.0, 0.0, xfer, 0)

    lats = [stage(0, 11.0, 1.0), stage(1, 23.0, 2.5), stage(2, 17.0)]
    steady = pipeline_schedule(lats, 2).steady_state_ns
    prev = pipeline_schedule(lats, 1).total_ns
    for B in range(2, 11):
        cur = pipeline_schedule(lats, B).total_ns
        assert cur - prev == pytest.approx(steady, abs=1e-9), B
        prev = cur

    # the three-layer example: bank b on image i while bank b-1 on image i+1
    eq = [stage(i, 10.0) for i in range(3)]
    rep = pipeline_schedule(eq, 3)
    spans = {(o.image, o.bank): (o.start_ns, o.end_ns) for o in rep.occupancy}
    for image in range(2):
        for bank in (1, 2):
            s0, e0 = spans[(image, bank)]
            s1, e1 = spans[(image + 1, bank - 1)]
            assert max(s0, s1) < min(e0, e1), (image, bank)
    _verdict(5, True,
             "total(B) - total(B-1) = steady state for B=2..10; bank b "
             "overlaps bank b-1 on the next image")


def test_criterion_6_precision_scaling():
    net = NetworkDescription(
        "sweep", 4,
        [conv_layer(H=6, W=6, I=2, O=4, K=3, p=1, s=1),
         linear_layer(w1=16, w2=4)],
    )
    increasing = precision_sweep(net, [1, 2, 3, 4, 8], column_size=64,
                                 params=TimingParams())
    totals = [s["total_ns"] for s in increasing]
    assert all(b > a for a, b in zip(totals, totals[1:]))

    series = {s["n"]: s["multiply_ns"]
              for s in precision_sweep(net, [2, 4, 8], 64, TimingParams())}
    # exact 19 : 168 : 1592 by cross-multiplication
    assert series[2] * 168 == series[4] * 19
    assert series[2] * 1592 == series[8] * 19
    _verdict(6, True,
             "pipeline latency strictly increasing in n; multiply phases "
             "at n=2,4,8 in exact ratio 19 : 168 : 1592")


def test_criterion_7_area_power_fidelity():
    report = area_power_report()
    area = {
        "4096 Adder": (514877, 99.47373),
        "Accumulator": (804, 0.15532),
        "Relu": (431, 0.083269),
        "Maxpool": (983, 0.189915),
        "Batchnorm": (506, 0.097759),
        "Quantize": (91, 0.017581),
    }
    power = {
        "4096 Adder": (13200190.9, 95.9014),
        "Accumulator": (177765.864, 1.2915),
        "Relu": (109913.671, 0.7985),
        "Maxpool": (127562.373, 0.9268),
        "Batchnorm": (120541.29, 0.8758),
        "Quantize": (28366.738, 0.2061),
    }
    for name, (um2, pct) in area.items():
        assert report["area_um2"][name] == um2, name
        assert report["area_pct"][name] == pct, name
    for name, (nw, pct) in power.items():
        assert report["power_nw"][name] == nw, name
        assert report["power_pct"][name] == pct, name
    _verdict(7, True, "area and power tables reproduced verbatim "
                      "(4096 Adder = 514877 um^2, 13200190.9 nW)")


def test_criterion_8_end_to_end_toy_inference():
    t0 = time.monotonic()
    net = NetworkDescription(
        "toy2", 4,
        [conv_layer(H=4, W=4, I=1, O=2, K=2), linear_layer(w1=18, w2=4)],
    )
    plan = map_network(net, column_size=256)
    result = run_functional(net, plan, seed=2024)
    elapsed = time.monotonic() - t0
    assert result.passed, result.mismatch
    _verdict(8, elapsed < 10,
             f"2-layer functional run matches the fixed-point oracle "
             f"element-exact at 256x256 scale in {elapsed:.2f}s")


def test_criterion_9_full_size_layer():
    # AlexNet conv1 at the paper's 4096 x 32768 subarrays, n = 4, P1: the
    # bank runs in many BANK_CHUNK_COLUMNS chunks
    t0 = time.monotonic()
    alexnet = preset("alexnet", "P1")
    net = NetworkDescription("alexnet-conv1", alexnet.precision,
                             alexnet.layers[:1], alexnet.parallelism[:1])
    config = RunConfig(mode="functional", rows=4096, cols=32768)
    place = map_network(net, 32768, None, 4096).layers[0]
    chunks = -(-place.subarrays_used // (BANK_CHUNK_COLUMNS // 32768))
    mults = total_multiplications(net.layers[0])
    status, report = run(net, config)
    elapsed = time.monotonic() - t0
    model = place.subarrays_used * report["per_layer"][0]["aap_count"]
    assert report["functional"]["passed"], report["functional"]["mismatch"]
    assert report["functional"]["trace_aap_total"] == model
    assert status == 0 and chunks > 1 and mults > 10**8
    _verdict(9, elapsed < 60,
             f"full-size AlexNet conv1 ({mults} multiplications, {chunks} "
             f"bank chunks) matches the oracle with {model} AAPs as modeled "
             f"in {elapsed:.2f}s")
