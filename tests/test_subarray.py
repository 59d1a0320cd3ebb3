"""Subarray primitive tests: AAP events, AND, ADD, multiply."""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cells import (
    pack_columns,
    read_products,
    read_values,
    unpack_columns,
    write_operands,
    write_values,
)
from reference import apply_event, run_events, to_text
from pimsim import engine, subarray
from pimsim.layout import (
    ConfigurationError,
    add_count,
    and_count,
    mul_aap_count,
    rows_needed,
)
from pimsim.subarray import (
    A,
    A1,
    B,
    B1,
    CIN,
    CIN1,
    COPY,
    COUT,
    COUT1,
    QUINTUPLE,
    ROW0,
    TRIPLE,
    AapEvent,
    AapTrace,
    AliasingError,
    OperandRangeError,
    RowBoundsError,
    add_bitserial,
    and_op,
    multiply,
    new_bank,
)

COMPUTE = (ROW0, A, A1, B, B1, CIN, CIN1, COUT, COUT1)


def make_state(n, cols=8, extra_rows=16):
    rows = 9 + (n - 1) + 4 * n + extra_rows
    return new_bank(rows, cols, n)


def multiply_trace(st_, pair=0):
    """Run multiply and return its events as an AapTrace, with the AND and
    ADD spans that the cached schedule recorded."""
    events = multiply(st_, pair=pair)
    schedule = subarray._schedule(st_.n, pair)
    return AapTrace(st_.rows, list(events), list(schedule.and_spans),
                    list(schedule.add_spans))


def emit(st_, primitive, *args, **kwargs):
    """Emit one primitive's events into a new trace over st_'s rows, run
    them on st_'s cells and return the trace."""
    trace = AapTrace(st_.rows)
    primitive(trace, *args, **kwargs)
    run_events(st_.cells, trace.events)
    return trace


# --------------------------------------------------------------------------
# Allocation
# --------------------------------------------------------------------------

class TestNewSubarray:
    def test_default_geometry_reserves_rows(self):
        st_ = new_bank(4096, 4096, 4)
        assert st_.intermediate_rows.start == len(set(COMPUTE)) == 9
        assert len(st_.intermediate_rows) == 3
        assert len(st_.product_rows) == 8
        assert not st_.cells.any()

    def test_minimal_state(self):
        # 9 compute + 1 intermediate + 4 product + 4 operand rows = 18
        st_ = new_bank(32, 8, 2)
        assert st_.data_base == 14
        assert st_.pair_capacity >= 1

    def test_insufficient_rows_rejected(self):
        with pytest.raises(ConfigurationError, match="need 28"):
            new_bank(16, 8, 4)

    def test_reserved_rows_disjoint(self):
        st_ = make_state(4)
        all_rows = [*COMPUTE, *st_.intermediate_rows, *st_.product_rows]
        assert len(set(all_rows)) == len(all_rows)
        assert max(all_rows) < st_.data_base


# --------------------------------------------------------------------------
# AAP events: RowClone copies and multi-row activations
# --------------------------------------------------------------------------

class TestApplyEvent:
    def test_copy_writes_every_destination(self):
        st_ = make_state(2)
        st_.cells[20] = 2**64 - 1
        st_.cells[21:23] = 0x5A
        apply_event(st_.cells, AapEvent(COPY, (20, 21, 22)))
        assert (st_.cells[20:23] == 2**64 - 1).all()
        assert not np.delete(st_.cells, [20, 21, 22], axis=0).any()

    def test_copy_from_row0_gives_zeros(self):
        st_ = make_state(2)
        write_values(st_, [21], [1] * st_.cols)
        apply_event(st_.cells, AapEvent(COPY, (ROW0, 21)))
        assert not read_values(st_, [21]).any()

    def test_triple_majority_exhaustive(self):
        # columns 0..7 hold every (a, b, c); the sensed majority restores
        # into all three activated rows and the two destinations
        combos = np.array(list(itertools.product((0, 1), repeat=3)))
        st_ = make_state(2, cols=8)
        rows = (A, B, CIN)
        for r, column in zip(rows, combos.T):
            write_values(st_, [r], column)
        before = st_.cells.copy()
        apply_event(st_.cells, AapEvent(TRIPLE, (*rows, COUT, COUT1)))
        want = (combos.sum(axis=1) >= 2).astype(np.int64)
        for r in (*rows, COUT, COUT1):
            assert read_values(st_, [r]).tolist() == want.tolist(), r
        others = [r for r in range(st_.rows) if r not in (*rows, COUT, COUT1)]
        assert np.array_equal(st_.cells[others], before[others])

    def test_quintuple_with_negated_row_exhaustive(self):
        # columns 0..15 hold every (a, b, c, neg); the sense amplifier sees
        # maj(a, b, c, ~neg, ~neg), restores it into the three plain rows and
        # the destination, and its complement into the negated row
        combos = np.array(list(itertools.product((0, 1), repeat=4)))
        st_ = make_state(2, cols=16)
        rows = (A1, B1, CIN1, COUT)
        for r, column in zip(rows, combos.T):
            write_values(st_, [r], column)
        before = st_.cells.copy()
        dst = st_.product_rows[1]
        apply_event(st_.cells, AapEvent(QUINTUPLE, (*rows, dst)))
        a, b, c, neg = combos.T
        want = (a + b + c + 2 * (1 - neg) >= 3).astype(np.int64)
        for r in (A1, B1, CIN1, dst):
            assert read_values(st_, [r]).tolist() == want.tolist(), r
        assert read_values(st_, [COUT]).tolist() == (1 - want).tolist()
        others = [r for r in range(st_.rows) if r not in (*rows, dst)]
        assert np.array_equal(st_.cells[others], before[others])


# --------------------------------------------------------------------------
# AND
# --------------------------------------------------------------------------

class TestAndOp:
    def test_truth_table_and_cost(self):
        st_ = make_state(2, cols=4)
        base = st_.data_base
        write_values(st_, [base], [0, 0, 1, 1])
        write_values(st_, [base + 1], [0, 1, 0, 1])
        dst = st_.product_rows[0]
        trace = emit(st_, and_op, base, base + 1, (dst,))
        assert read_values(st_, [dst]).tolist() == [0, 0, 0, 1]
        assert len(trace.events) == 3
        assert len(trace.and_spans) == 1

    def test_two_destinations_hold_result(self):
        st_ = make_state(2, cols=2)
        base = st_.data_base
        write_values(st_, [base], [1, 1])
        write_values(st_, [base + 1], [1, 1])
        emit(st_, and_op, base, base + 1, (B, B1), pair="b")
        assert read_values(st_, [B]).all() and read_values(st_, [B1]).all()

    def test_dst_alias_rejected(self):
        st_ = make_state(2)
        base = st_.data_base
        with pytest.raises(AliasingError):
            and_op(AapTrace(st_.rows), base, base + 1, (base,))

    @pytest.mark.parametrize("pair", ["c", "B", "", None])
    def test_unknown_pair_rejected(self, pair):
        # only "a" (A/A-1) and "b" (B/B-1) name an AND pair
        st_ = make_state(2)
        base = st_.data_base
        trace = AapTrace(st_.rows)
        with pytest.raises(AliasingError, match="pair"):
            and_op(trace, base, base + 1, (base + 2,), pair=pair)
        assert trace == AapTrace(st_.rows)

    @pytest.mark.parametrize("pair, src_a, src_b", [
        ("a", 20, A),  # ANDed row 20 with itself: copy 20,1 then copy 1,2
        ("a", A, 20), ("a", A1, 20), ("a", 20, A1),
        ("b", B, 20), ("b", 20, B), ("b", B1, 20), ("b", 20, B1),
    ])
    def test_source_in_the_and_pair_rejected(self, pair, src_a, src_b):
        # the staging copies write the pair rows, so a source there can be
        # overwritten before it is read
        trace = AapTrace(32)
        with pytest.raises(AliasingError, match="pair"):
            and_op(trace, src_a, src_b, (22,), pair=pair)
        assert trace == AapTrace(32)


# --------------------------------------------------------------------------
# Bit-serial ADD
# --------------------------------------------------------------------------

def _place_add_operands(st_, n, pairs):
    base = st_.data_base
    a_rows = list(range(base, base + n))
    b_rows = list(range(base + n, base + 2 * n))
    out_rows = list(range(base + 2 * n, base + 3 * n + 1))
    write_values(st_, a_rows, [a for a, _ in pairs])
    write_values(st_, b_rows, [b for _, b in pairs])
    return a_rows, b_rows, out_rows


class TestAddBitserial:
    @pytest.mark.parametrize("n", [2, 4])
    def test_exhaustive_against_integer_sum(self, n):
        pairs = list(itertools.product(range(1 << n), repeat=2))
        st_ = new_bank(9 + (n - 1) + 4 * n + 3 * n + 2, len(pairs), n)
        a_rows, b_rows, out_rows = _place_add_operands(st_, n, pairs)
        trace = emit(st_, add_bitserial, a_rows, b_rows, out_rows)
        assert len(trace.events) == 4 * n + 1
        assert read_values(st_, out_rows).tolist() == [a + b for a, b in pairs]

    def test_specific_sums(self):
        # 0b1111 + 0b0001 = 0b10000 at 17 AAPs; identity with zero; 3+3=6
        st_ = make_state(4, cols=4, extra_rows=32)
        a_rows, b_rows, out_rows = _place_add_operands(
            st_, 4, [(0b1111, 0b0001), (0, 11), (3, 3)]
        )
        delta = add_bitserial(AapTrace(st_.rows), a_rows, b_rows, out_rows)
        run_events(st_.cells, delta)
        assert len(delta) == 17
        assert read_values(st_, out_rows)[:3].tolist() == [0b10000, 11, 6]

    def test_overlapping_groups_rejected(self):
        st_ = make_state(2, extra_rows=16)
        base = st_.data_base
        with pytest.raises(AliasingError):
            add_bitserial(AapTrace(st_.rows), [base, base + 1],
                          [base + 1, base + 2], [base + 3, base + 4, base + 5])

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), data=st.data())
    def test_random_sums(self, n, data):
        a = data.draw(st.integers(0, (1 << n) - 1))
        b = data.draw(st.integers(0, (1 << n) - 1))
        st_ = new_bank(9 + (n - 1) + 4 * n + 3 * n + 2, 2, n)
        a_rows, b_rows, out_rows = _place_add_operands(st_, n, [(a, b)])
        trace = emit(st_, add_bitserial, a_rows, b_rows, out_rows)
        assert read_values(st_, out_rows)[0] == a + b
        assert len(trace.events) == 4 * n + 1


@pytest.mark.parametrize("group", range(3))
@pytest.mark.parametrize("bad", [-1, "rows"])
@pytest.mark.parametrize("primitive", [and_op, add_bitserial])
def test_row_outside_the_trace_rejected(primitive, bad, group):
    # a row below 0 or at trace.rows in each operand group in turn (AND:
    # source a, source b, destination; ADD: a, b, out) is refused before
    # any event is logged
    trace = AapTrace(40)
    bad = trace.rows if bad == "rows" else bad
    if primitive is and_op:
        args = [20, 21, (22,)]
        args[group] = bad if group < 2 else (bad,)
    else:
        args = [[20, 21], [22, 23], [24, 25, 26]]
        args[group][-1] = bad
    with pytest.raises(RowBoundsError, match=f"row {bad} outside 0..39"):
        primitive(trace, *args)
    assert trace == AapTrace(40)


# --------------------------------------------------------------------------
# Count formulas
# --------------------------------------------------------------------------

class TestCountFormulas:
    @pytest.mark.parametrize("n,expect", [(1, 1), (2, 4), (4, 16), (8, 64)])
    def test_and_count(self, n, expect):
        assert and_count(n) == expect

    @pytest.mark.parametrize("n,expect", [(1, 0), (2, 2), (4, 10), (8, 50)])
    def test_add_count(self, n, expect):
        assert add_count(n) == expect

    @pytest.mark.parametrize(
        "n,expect", [(1, 7), (2, 19), (3, 67), (4, 168), (8, 1592)]
    )
    def test_mul_aap_count(self, n, expect):
        assert mul_aap_count(n) == expect

    def test_invalid_n(self):
        for fn in (and_count, add_count, mul_aap_count):
            with pytest.raises(ValueError):
                fn(0)


# --------------------------------------------------------------------------
# Multiply
# --------------------------------------------------------------------------

class TestMultiply:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_exhaustive_products(self, n):
        # every operand pair, one per column, at each of three stacked
        # pairs: every n whose program folds proved constants
        cols = np.arange(1 << 2 * n)
        acts, weights = cols & ((1 << n) - 1), cols >> n
        st_ = new_bank(rows_needed(n, 3), len(cols), n)
        for pair in range(3):
            write_operands(st_, acts, weights, pair=pair)
            multiply(st_, pair=pair)
            assert np.array_equal(read_products(st_), acts * weights), pair

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
    def test_cost_exactness(self, n):
        st_ = make_state(n, cols=4)
        write_operands(st_, [(1 << n) - 1], [(1 << n) - 1])
        tr = multiply_trace(st_)
        assert len(tr.events) == mul_aap_count(n)
        assert len(tr.and_spans) == and_count(n)
        assert len(tr.add_spans) == add_count(n)
        for lo, hi in tr.and_spans:
            assert hi - lo == 3
        if n > 2:
            for lo, hi in tr.add_spans:
                assert hi - lo == 4 * (n - 1)

    def test_example_values(self):
        st_ = make_state(2, cols=1)
        write_operands(st_, [0b11], [0b10])
        delta = multiply(st_)
        assert read_products(st_)[0] == 6
        assert len(delta) == 19

        st4 = make_state(4, cols=1)
        write_operands(st4, [15], [15])
        delta = multiply(st4)
        assert read_products(st4)[0] == 225
        assert len(delta) == 168

    def test_trace_is_data_independent(self):
        traces = []
        for a, b in [(0, 0), (13, 7), (15, 15)]:
            st_ = make_state(4, cols=2)
            write_operands(st_, [a], [b])
            traces.append(multiply(st_))
        assert traces[0] == traces[1] == traces[2]

    def test_simd_many_columns_same_trace(self):
        one = make_state(3, cols=1)
        write_operands(one, [5], [6])
        many = make_state(3, cols=64)
        acts, weights = np.arange(64) % 8, (np.arange(64) * 3) % 8
        write_operands(many, acts, weights)
        assert multiply(one) == multiply(many)
        assert np.array_equal(read_products(many), acts * weights)

    def test_operand_rows_preserved(self):
        st_ = make_state(4, cols=16)
        write_operands(st_, np.arange(16), 15 - np.arange(16))
        before = st_.cells[st_.data_base:].copy()
        multiply(st_)
        assert np.array_equal(st_.cells[st_.data_base:], before)

    def test_stacked_pair_multiplies(self):
        st_ = new_bank(64, 4, 3)
        write_operands(st_, [5], [3], pair=0)
        write_operands(st_, [5], [7], pair=1)
        multiply(st_, pair=0)
        assert read_products(st_)[0] == 15
        multiply(st_, pair=1)
        assert read_products(st_)[0] == 35

    def test_pair_beyond_capacity_rejected(self):
        st_ = new_bank(32, 4, 2)   # capacity: (32-14)//2 - 1 = 8 pairs
        with pytest.raises(ConfigurationError):
            multiply(st_, pair=20)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 7), data=st.data())
    def test_random_products(self, n, data):
        a = data.draw(st.integers(0, (1 << n) - 1))
        b = data.draw(st.integers(0, (1 << n) - 1))
        st_ = new_bank(9 + (n - 1) + 4 * n + 4, 2, n)
        write_operands(st_, [a], [b])
        assert len(multiply(st_)) == mul_aap_count(n)
        assert read_products(st_)[0] == a * b

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("pair", range(3))
    def test_multiply_logs_nothing_and_returns_the_schedule(self, n, pair):
        st_ = new_bank(rows_needed(n, 3), 2, n)
        events = multiply(st_, pair=pair)
        assert events is subarray._schedule(n, pair).events
        assert len(events) == mul_aap_count(n)


# --------------------------------------------------------------------------
# Operand round trips
# --------------------------------------------------------------------------

class TestOperandColumns:
    def test_zero_operand(self):
        st_ = make_state(4, cols=2)
        write_operands(st_, [5], [0])
        multiply(st_)
        assert read_products(st_)[0] == 0

    def test_small_product(self):
        st_ = make_state(4, cols=2)
        write_operands(st_, [0, 2], [0, 3])
        multiply(st_)
        assert read_products(st_)[1] == 6

    def test_overflow_rejected(self):
        # operands reach the cells through the engine, which checks the width
        with pytest.raises(OperandRangeError):
            engine._operand_bytes([3, 4], 2)
        with pytest.raises(OperandRangeError):
            engine._operand_bytes([-1], 2)
        assert engine._operand_bytes([0, 3], 2).tolist() == [0, 3]

    def test_n6_random_grid(self):
        # every (a, b) pair once, read back the full grid of products
        n = 6
        pairs = [(a, b) for a in range(0, 64, 5) for b in range(0, 64, 3)]
        st_ = new_bank(64, len(pairs), n)
        write_operands(st_, *zip(*pairs))
        multiply(st_)
        assert read_products(st_).tolist() == [a * b for a, b in pairs]


# --------------------------------------------------------------------------
# Trace bookkeeping and serialization
# --------------------------------------------------------------------------

class TestTrace:
    def test_total_equals_event_count_and_monotone(self):
        st_ = make_state(2, cols=2)
        write_operands(st_, [1], [1])
        trace = AapTrace(st_.rows)
        counts = [len(trace.events)]
        base = st_.data_base
        and_op(trace, base, base + 2, (base + 5,))
        counts.append(len(trace.events))
        add_bitserial(trace, (base, base + 1), (base + 2, base + 3),
                      (base + 4, base + 5, base + 6))
        counts.append(len(trace.events))
        assert counts == sorted(counts) == [0, 3, 3 + 9]
        recorded = multiply_trace(st_)
        assert len(recorded.events) == mul_aap_count(2)

    def test_golden_kind_sequence_n2(self):
        st_ = make_state(2, cols=1)
        write_operands(st_, [3], [3])
        kinds = [e.kind for e in multiply(st_)]
        assert kinds == [
            "write_row0",
            "copy", "copy", "and_stage",
            "copy", "copy", "and_stage",
            "copy", "copy", "and_stage",
            "triple_activate", "quintuple_activate", "copy",
            "copy", "copy", "and_stage",
            "copy", "triple_activate", "quintuple_activate",
        ]

    def test_golden_trace_n2(self):
        # Frozen full command stream for a 2-bit multiply on the fixed row
        # layout (row0=0, A=1, A-1=2, B=3, B-1=4, Cin=5, Cin-1=6, Cout=7,
        # products 10..13, operands from 14).
        golden = (
            "write_row0 0,5,6\n"
            "copy 14,1\ncopy 16,2\nand_stage 1,2,10\n"
            "copy 15,1\ncopy 16,2\nand_stage 1,2,1,2\n"
            "copy 14,3\ncopy 17,4\nand_stage 3,4,3,4\n"
            "triple_activate 1,3,5,7\n"
            "quintuple_activate 2,4,6,7,11\n"
            "copy 5,6\n"
            "copy 15,1\ncopy 17,2\nand_stage 1,2,1,2\n"
            "copy 0,3,4\n"
            "triple_activate 1,3,5,13,7\n"
            "quintuple_activate 2,4,6,7,12\n"
            "summary total_aap=19 and_ops=4 add_ops=2\n"
        )
        st_ = new_bank(32, 1, 2)
        write_operands(st_, [3], [3])
        assert to_text(multiply_trace(st_)) == golden


# sha256 of reference.to_text(trace) per precision n: the recorded multiply at
# pairs 0, 1 and 2, then add_bitserial. Frozen, so any change to the order
# or the rows of an AAP above n=2 shows here, not only in the products and
# the counts.
STREAM_SHA256 = {
    1: (
        "8144ff445a9f9e45159d5cb83cac5cca45be80d313126a0c8cd21f92ad1c0fb2",
        "f8fdd0cd9a220f275079c8ddfdd33183d32f7cd72c6c52b8f1701dd4decd68e5",
        "1a08edea0b2555a762a9ddfbcff6f4c6a90c4b6ebf13502fd0c6f9a6e2485082",
        "e326624f97d7f9d84620abc09dcb7824b0c0cf779dac008cae563d3c336b1f81",
    ),
    2: (
        "394bdd5ffa596895e96f4a845c449ed9249c622f3cb459d17554b48b6aa85e56",
        "e00f77425dae13b40a4a3abbafc5ccfefdc5875247d55792f41524a094d5e833",
        "d3a8f5d928f1cddfccd644ed02a07fcb4b08dcff0f8b655b795ad4fc7d181852",
        "161b0913d7b2270149292a749886ebe848aa41c8f1a4a9c12b560f53be8864bf",
    ),
    3: (
        "af6facc92c36cd8d3e3164f03fb67a0d250109f46cf4f6b87e178caa166eeffa",
        "af3d4c5d51242d76e3ea6040f03af860093fd64598cca12dca68a7e6a5adeda0",
        "d8b38996086d81ef0567aec2a43fb3e30e5b049cca6a83f31538c2155819078a",
        "4904185e25c3ca6ea880e2c4e6831a0a38150e20538556a200a2c9be27d6d823",
    ),
    4: (
        "cb9af9b8ffd135eaf7486e6dafbff7b67f5c09b4866eaf15f7a2fa60995e19bc",
        "002e175809f1bdf1baafc3744091e2608e23bf5b49e1a4c1f47dd091fa44b9a7",
        "f630f830c010a37a867802c5cd48942eb84e8159182e4d9971631f30686f8a8c",
        "ee00748f1eeacd4b38d450bf3524d0893fff1d70892e992a1a0dd537fd0c29d3",
    ),
    5: (
        "b9a0737a9606724c7f9471236f6c67fca89e7bfcdaac6d979f676cbbeaa9cef3",
        "369ac36b3434fedd74b85fb2e92e8b2843714dfc0008edc59911ab93e421c85e",
        "1a51ffdc1682fcbdf70e2ea9a332545e856faf1a70efc6c01d6e9400491ac57a",
        "3660d220260a26b8b76a5ef4cd7585a266761d6150563db00991aa2afc16bdb9",
    ),
    6: (
        "c7d5a3ffda5fd865842aa9e1cc2d70ba782e53bb8a55d3bdc219ebfc1258c483",
        "6b3cad6b1cf5bdd7b62c9d2f9b216e351cec81e47bf3c96ca54c4cf5b9d7309e",
        "fd51f37aa01b118282ebaae279f200932028760e1dc5a8fbbbc7fdbfecb1b2c7",
        "00ebba1ea40bdb9c7adf46aab3241d3445e0ddecf0bb1415ba1b7bcb3b707089",
    ),
    7: (
        "f0802fe857ffd53f622e5a45210520f7f6fb70b8d8dcb19b302bd6281885381b",
        "ab56332f83f10f8426f0dd4192ea228654af29b80d5c441d8b14cf2e2e46319e",
        "3ea0e3ab34b2e201050f36e7358831bcdfa86ee836f620f9b7b82d572ef6befd",
        "61892eda967177bab1a8a9fc3ad515395efa86a7a3c3ffd515bcfaeeb3e1f68c",
    ),
    8: (
        "12bd5844279dab8d9d46cf131fe0038d07ac1998d6ac1971f6d071af7b84a665",
        "81f72eb66df4f8468d3d45e45bfd240e9dcf7c25d51a9a92baaa2682482f19e6",
        "8343e318997cf3a2da1ea51c333e16c03eec8f07dc157ead8e1055b6f75e5880",
        "b5293e67bac64924d12ea1b958473200fb4ae5236b4d4f0f22555b320993b361",
    ),
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n", range(1, 9))
def test_command_streams_are_frozen(n):
    *mul, add = STREAM_SHA256[n]
    for pair, digest in enumerate(mul):
        st_ = new_bank(rows_needed(n, 3), 1, n)
        text = to_text(multiply_trace(st_, pair))
        assert _sha256(text) == digest, (n, pair)
    base = rows_needed(n, 1)
    trace = AapTrace(base + 3 * n + 1)
    add_bitserial(trace, range(base, base + n), range(base + n, base + 2 * n),
                  range(base + 2 * n, base + 3 * n + 1))
    assert _sha256(to_text(trace)) == add, n


# --------------------------------------------------------------------------
# Packed cells and the cached multiply program
# --------------------------------------------------------------------------

def _ragged_state(n, pairs):
    """State whose last word is ragged, 5 columns past the last full word,
    with the operands in its last len(pairs) columns: the leading columns
    hold zeros and the ragged word holds the last five pairs."""
    cols = 64 * -(-len(pairs) // 64) + 5
    st_ = new_bank(9 + (n - 1) + 4 * n + 4, cols, n)
    lead = [0] * (cols - len(pairs))
    write_operands(st_, *(lead + list(values) for values in zip(*pairs)))
    return st_


class TestPackedCells:
    def test_pack_round_trip_ragged(self):
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, size=(3, 3 * 64 + 5), dtype=np.uint8)
        packed = pack_columns(bits, 4)
        assert packed.shape == (3, 4)
        assert np.array_equal(unpack_columns(packed, 3 * 64 + 5), bits)

    def test_column_to_bit_mapping(self):
        st_ = new_bank(32, 130, 2)
        ones = np.zeros(130, dtype=np.int64)
        ones[[64, 129]] = 1
        write_values(st_, [20], ones)
        assert st_.cells[20].tolist() == [0, 1, 1 << 1]
        assert list(np.nonzero(read_values(st_, [20]))[0]) == [64, 129]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_products_ragged_last_word(self, n):
        pairs = list(itertools.product(range(1 << n), repeat=2))
        st_ = _ragged_state(n, pairs)
        multiply(st_)
        products = read_products(st_).tolist()
        assert products[-len(pairs):] == [a * b for a, b in pairs], n
        assert products[: -len(pairs)] == [0] * (st_.cols - len(pairs))

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_random_products_ragged_last_word(self, n):
        rng = np.random.default_rng(n)
        pairs = [tuple(int(v) for v in rng.integers(0, 1 << n, 2))
                 for _ in range(3 * 64 + 5)]
        st_ = _ragged_state(n, pairs)
        multiply(st_)
        products = read_products(st_).tolist()
        assert products[-len(pairs):] == [a * b for a, b in pairs], n

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("pair", [0, 1])
    def test_cached_replay_equals_fresh_schedule(self, n, pair):
        layout = new_bank(64, 3, n)
        if n <= 2:
            fresh = subarray._multiply_small(layout, pair)
        else:
            fresh = subarray._multiply_wide(layout, pair)
        assert not layout.cells.any()
        st_ = new_bank(64, 3, n)
        first = multiply_trace(st_, pair)
        assert first == fresh
        assert multiply_trace(st_, pair) == first

    @pytest.mark.parametrize("n", [2, 5])
    def test_replay_of_parsed_trace_gives_same_products(self, n):
        rng = np.random.default_rng(40 + n)
        pairs = [tuple(int(v) for v in rng.integers(0, 1 << n, 2))
                 for _ in range(70)]
        st_ = _ragged_state(n, pairs)
        events = multiply(st_)
        again = _ragged_state(n, pairs)
        run_events(again.cells, events)
        assert np.array_equal(again.cells, st_.cells)
        products = read_products(again).tolist()
        assert products[-len(pairs):] == [a * b for a, b in pairs]


# each executor on its own, and the dispatch that picks one by width
EXECUTORS = (subarray._run_ints, subarray._run_rows, subarray._run_program)
CUTOFF = subarray.INT_ROW_WORDS


class TestCompiledMultiply:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("pair", range(3))
    @settings(max_examples=6, deadline=None)
    @given(
        cols=st.one_of(st.integers(1, 200),
                       st.integers(0, 4).map(lambda k: 64 * k + 5)),
        above=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    # one state as wide as the cutoff and one a word wider, both ragged
    @example(cols=64 * CUTOFF - 3, above=0, seed=1)
    @example(cols=64 * CUTOFF + 5, above=1, seed=2)
    def test_program_leaves_the_cells_the_events_do(self, n, pair, cols,
                                                    above, seed):
        self._leaves_the_cells_the_events_do(n, pair, cols, above, seed)

    @pytest.mark.parametrize("n", [10, 16, 20])
    @pytest.mark.parametrize("pair", [0, 1])
    def test_wide_program_leaves_the_cells_the_events_do(self, n, pair):
        # precisions whose moves need an order, n = 20 also a scratch row
        # to save a cycle (two intermediate rows that end zero for any
        # operands, so the save itself is checked by the hand-written
        # cycles below): a state as wide as the cutoff and one a word
        # wider, both ragged
        for cols in (64 * CUTOFF - 3, 64 * CUTOFF + 5):
            self._leaves_the_cells_the_events_do(n, pair, cols, 1, cols)

    @staticmethod
    def _leaves_the_cells_the_events_do(n, pair, cols, above, seed):
        # random cells everywhere but the reserved zero row 0, padding bits
        # and rows past the schedule included: multiply and each executor
        # run directly must match the per-event interpreter
        rows = rows_needed(n, pair + 1) + above
        st_ = new_bank(rows, cols, n)
        rng = np.random.default_rng(seed)
        st_.cells[:] = rng.integers(0, 1 << 64, size=st_.cells.shape,
                                    dtype=np.uint64)
        st_.cells[ROW0] = 0
        start = st_.cells.copy()
        want = st_.cells.copy()
        run_events(want, multiply(st_, pair=pair))
        assert np.array_equal(st_.cells, want)
        program = subarray._schedule(n, pair).program
        for run in EXECUTORS:
            cells = start.copy()
            run(program, cells)
            assert np.array_equal(cells, want), run.__name__

    @pytest.mark.parametrize("n", range(1, 17))
    @pytest.mark.parametrize("cols", [100, 64 * CUTOFF + 5])
    def test_multiply_reads_only_its_operand_rows(self, n, cols):
        # what lets one bank state take chunk after chunk: the program
        # loads the activation rows and the pair's weight rows alone and
        # never stores row 0, so random bits in every other row (another
        # chunk's products and intermediates, other pairs' weights) leave
        # the product rows a zeroed state ends with
        rng = np.random.default_rng(n)
        clean = new_bank(rows_needed(n, 3), cols, n)
        for pair in range(clean.pair_capacity):
            program = subarray._schedule(n, pair).program
            operands = [*clean.activation_rows(), *clean.weight_rows(pair)]
            assert sorted(program.loads) == operands
            assert ROW0 not in {r for _, rows in program.stores for r in rows}
            clean.cells[:] = 0
            clean.cells[operands] = rng.integers(
                0, 2**64, size=(len(operands), clean.cells.shape[1]),
                dtype=np.uint64)
            dirty = new_bank(clean.rows, cols, n)
            dirty.cells[:] = rng.integers(0, 2**64, size=dirty.cells.shape,
                                          dtype=np.uint64)
            dirty.cells[ROW0] = 0
            dirty.cells[operands] = clean.cells[operands]
            multiply(clean, pair)
            multiply(dirty, pair)
            product = clean.product_rows
            assert np.array_equal(dirty.cells[product.start : product.stop],
                                  clean.cells[product.start : product.stop])

    # a set bit in a column, and one in the padding past the last column
    @pytest.mark.parametrize("n", [1, 4, 8])
    @pytest.mark.parametrize("word, bit", [(1, 5), (3, 63)])
    def test_multiply_rejects_a_nonzero_row0(self, n, word, bit):
        # the program reads row 0 as the reserved zero row, so a state with
        # any bit set there is refused before a cell changes
        st_ = make_state(n, cols=200)
        rng = np.random.default_rng(n)
        st_.cells[:] = rng.integers(0, 1 << 64, size=st_.cells.shape,
                                    dtype=np.uint64)
        st_.cells[ROW0] = 0
        st_.cells[ROW0, word] = 1 << bit
        start = st_.cells.copy()
        with pytest.raises(ConfigurationError, match="row 0"):
            multiply(st_)
        assert np.array_equal(st_.cells, start)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_any_event_sequence_compiles_exactly(self, data):
        # arbitrary events over a few rows: repeated rows, values never read,
        # and full adders' sum bits: a quintuple whose negated row holds the
        # majority of copies of its three inputs. Row 0 starts zero, as
        # _compile assumes; the events may read and write it like any row.
        touched = data.draw(st.integers(1, 8))
        row = st.integers(0, touched - 1)
        least = {subarray.COPY: 1, subarray.WRITE_ROW0: 1,
                 subarray.AND_STAGE: 2, subarray.TRIPLE: 3, "sum": 4}
        events = []
        for _ in range(data.draw(st.integers(0, 30))):
            kind = data.draw(st.sampled_from(sorted(least)))
            rows = data.draw(st.lists(row, min_size=least[kind],
                                      max_size=least[kind] + 3))
            others = [r for r in range(touched) if r not in rows[:3]]
            if kind != "sum":
                events.append(subarray.AapEvent(kind, tuple(rows)))
            elif len(others) >= 3:
                copies = data.draw(st.permutations(others))[:3]
                neg = data.draw(st.sampled_from(others))
                events += [subarray.AapEvent(subarray.COPY, (src, dst))
                           for src, dst in zip(rows, copies)]
                events.append(subarray.AapEvent(subarray.TRIPLE,
                                                (*copies, neg)))
                events.append(subarray.AapEvent(
                    subarray.QUINTUPLE, (*rows[:3], neg, *rows[4:])))
        words = data.draw(st.sampled_from([1, 3, CUTOFF, CUTOFF + 1]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        start = rng.integers(0, 1 << 64, size=(touched + 1, words),
                             dtype=np.uint64)
        start[ROW0] = 0
        want = start.copy()
        run_events(want, events)
        program = subarray._compile(events, touched)
        for run in EXECUTORS:
            cells = start.copy()
            run(program, cells)
            assert np.array_equal(cells, want), run.__name__

    # per n, for every pair: ops, steps, loaded rows, store slots, stored
    # rows, stored rows whose value sits in another slot, scratch rows. Up
    # to n = 9 the proof folds the rows that end zero for every operand
    # pair, which are then stored from the one zero slot; n = 10 reads 20
    # rows, past PROOF_ROWS, and folds only the constants the events name
    SHAPES = {1: (1, 1, 2, 2, 10, 8, 0), 2: (9, 6, 4, 5, 11, 6, 0),
              3: (31, 19, 6, 9, 16, 7, 0), 4: (66, 46, 8, 11, 19, 8, 0),
              5: (118, 93, 10, 13, 22, 9, 0), 6: (192, 166, 12, 15, 25, 10, 0),
              7: (286, 271, 14, 17, 28, 11, 0),
              8: (396, 414, 16, 19, 31, 12, 0),
              9: (526, 601, 18, 21, 34, 13, 0),
              10: (1453, 838, 20, 30, 37, 11, 0)}

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("pair", range(3))
    def test_program_shape(self, n, pair):
        program = subarray._schedule(n, pair).program
        stored = [r for _, rows in program.stores for r in rows]
        moved = [r for slot, rows in program.stores for r in rows
                 if r != slot]
        assert (sum(map(len, program.steps)), len(program.steps),
                len(program.loads), len(program.stores), len(stored),
                len(moved), program.extra) == self.SHAPES[n]
        assert len(set(stored)) == len(stored)
        # row 0 is known zero and ends zero: never loaded, never stored
        assert ROW0 not in program.loads and ROW0 not in stored
        assert sorted(program.moves) == sorted(
            (r, slot) for slot, rows in program.stores for r in rows
            if r != slot)
        # up to n = 9 no moved row is read by another move, so no two
        # stored rows exchange values and the copies need no order
        assert (n > 9) == bool({r for r, _ in program.moves} & {
            slot for _, slot in program.moves})

    @staticmethod
    def _unproven(monkeypatch, sched, n, pair):
        # the program of the constants the events name, without the proof
        monkeypatch.setattr(subarray, "PROOF_ROWS", -1)
        program = subarray._compile(sched.events,
                                    rows_needed(n, pair + 1))
        monkeypatch.undo()
        return program

    @pytest.mark.parametrize("n, proven", [(9, True), (10, False)])
    def test_proof_stops_at_its_row_bound(self, n, proven, monkeypatch):
        # n = 9 reads 18 rows, PROOF_ROWS, and its proof folds ops; n = 10
        # reads 20 and keeps the program of the named constants alone
        sched = subarray._schedule(n, 0)
        assert len(sched.program.loads) == 2 * n
        unproven = self._unproven(monkeypatch, sched, n, 0)
        assert (sched.program != unproven) == proven
        assert sum(map(len, unproven.steps)) == {9: 1030, 10: 1453}[n]

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("pair", range(3))
    def test_lowered_ops_read_only_the_operand_rows(self, n, pair):
        # the proof runs before any fold, on the ops _values lowers: they
        # read only the two constants, the 2n operand rows and values made
        # by earlier ops, so the proof counts the same 2n rows against
        # PROOF_ROWS that the program loads
        touched = rows_needed(n, pair + 1)
        layout = new_bank(touched, 1, n)
        readable = {subarray._ZERO, subarray._ONES, *layout.activation_rows(),
                    *layout.weight_rows(pair)}
        steps, _ = subarray._values(subarray._schedule(n, pair).events,
                                    [subarray._ZERO, *range(1, touched)])
        for f, x, y, out in (op for step in steps for op in step):
            assert {x, y} <= readable, (f.__name__, x, y, out)
            readable.add(out)

    def test_proof_frees_each_truth_table(self):
        # at n = 9 a truth table is 2**18 bits (32 KiB): all of the
        # program's would take over 30 MiB, the ones alive at once about 1
        events = subarray._schedule(9, 0).events
        tracemalloc.start()
        try:
            subarray._compile(events, rows_needed(9, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    @staticmethod
    def _compiles_exactly(events, touched):
        # every executor, on one, three and CUTOFF + 1 words of random
        # cells but the zero row 0 and one row past the touched ones,
        # leaves what the events do
        program = subarray._compile(events, touched)
        rng = np.random.default_rng(touched)
        for words in (1, 3, CUTOFF + 1):
            start = rng.integers(0, 1 << 64, size=(touched + 1, words),
                                 dtype=np.uint64)
            start[ROW0] = 0
            want = start.copy()
            run_events(want, events)
            for run in EXECUTORS:
                cells = start.copy()
                run(program, cells)
                assert np.array_equal(cells, want), (run.__name__, words)
        return program

    @staticmethod
    def _copies(*pairs):
        return [AapEvent(COPY, pair) for pair in pairs]

    def test_empty_sequence_compiles_to_nothing(self):
        # no events: no op and no store, so every executor leaves every
        # row, the int executor's write-back included, as it found it
        program = self._compiles_exactly([], 4)
        assert program.ops == () and program.stores == ()

    def test_two_triples_over_the_same_values(self):
        # rows 1-3 hold a, b, c; rows 7 and 8 each take the carry of its
        # own TRIPLE, which rows 11 and 12 keep, and a QUINTUPLE against
        # each gives the sum twice
        inputs = self._copies((1, 4), (2, 5), (3, 6))
        events = [*inputs, AapEvent(TRIPLE, (4, 5, 6, 7, 11)),
                  *inputs, AapEvent(TRIPLE, (4, 5, 6, 8, 12)),
                  *inputs, AapEvent(QUINTUPLE, (4, 5, 6, 7, 9)),
                  AapEvent(QUINTUPLE, (1, 2, 3, 8, 10))]
        program = self._compiles_exactly(events, 13)
        # each QUINTUPLE completes its own TRIPLE's full adder: carry, sum
        # and complement
        assert [len(step) for step in program.steps] == [6, 6]

    def test_repeated_quintuple_reuses_the_sum(self):
        # rows 7 and 8 both hold the carry; the second QUINTUPLE senses the
        # same sum, and its complement, as the first
        events = [*self._copies((1, 4), (2, 5), (3, 6)),
                  AapEvent(TRIPLE, (4, 5, 6, 7, 8)),
                  *self._copies((1, 4), (2, 5), (3, 6)),
                  AapEvent(QUINTUPLE, (1, 2, 3, 7, 9)),
                  AapEvent(QUINTUPLE, (4, 5, 6, 8, 10))]
        program = self._compiles_exactly(events, 11)
        # one full adder whose carry no row keeps: t, the sum and its
        # complement, each held in one slot
        assert [len(step) for step in program.steps] == [3]
        assert len(program.stores) == 2

    def test_and_feeding_only_a_dead_full_adder_costs_nothing(self):
        # the AND feeds the TRIPLE, and every row either ends with zeros or
        # keeps its own value: both steps are dropped, and nothing is loaded
        events = [*self._copies((0, 4), (1, 5)),
                  AapEvent(subarray.AND_STAGE, (4, 5, 3)),
                  AapEvent(TRIPLE, (3, 2, 6)),
                  AapEvent(subarray.WRITE_ROW0, (2, 3, 4, 5, 6))]
        program = self._compiles_exactly(events, 7)
        assert program.steps == ((), ())
        assert program.loads == ()
        assert program.pins == ((2, 0),)

    def test_rows_that_exchange_values_go_through_a_scratch_row(self):
        # rows 1 and 2 swap through row 3, and row 4 takes row 2's old
        # value: rows 4 and 3 are copied first, then row 1 is saved to the
        # one scratch row that the cycle needs
        events = self._copies((1, 3), (2, 1), (3, 2), (1, 4))
        program = self._compiles_exactly(events, 5)
        assert program.steps == ()
        assert program.extra == 1
        assert program.moves == ((4, 2), (3, 1), (5, 1), (1, 2), (2, 5))

    def test_three_row_cycle_needs_one_scratch_row(self):
        # rows 1, 2 and 3 rotate their values through row 4
        events = self._copies((1, 4), (2, 1), (3, 2), (4, 3))
        program = self._compiles_exactly(events, 5)
        assert program.extra == 1
        assert [row for row, _ in program.moves].count(5) == 1

    def test_quintuple_off_the_sum_bit_is_rejected(self):
        # the negated row holds no majority of the inputs, so the activation
        # is not a full adder's sum bit and has no compiled step
        events = [subarray.AapEvent(subarray.QUINTUPLE, (0, 1, 2, 3))]
        with pytest.raises(ValueError, match="sum bit"):
            subarray._compile(events, 4)

    # ops per n after the proof; the ops parameter below counts them
    # without it, with only the constants the events name folded
    PROVEN_OPS = {1: 1, 2: 9, 3: 31, 4: 66, 5: 118, 6: 192, 7: 286, 8: 396}

    @pytest.mark.parametrize("n, ops", [(1, 1), (2, 9), (3, 32), (4, 75),
                                        (5, 152), (6, 273), (7, 452),
                                        (8, 701)])
    @pytest.mark.parametrize("pair", [0, 2])
    def test_one_step_per_and_and_full_adder(self, n, ops, pair,
                                             monkeypatch):
        # every TRIPLE has its QUINTUPLE, and the two are one step
        sched = subarray._schedule(n, pair)
        kinds = [e.kind for e in sched.events]
        adders = kinds.count(subarray.TRIPLE)
        assert kinds.count(subarray.QUINTUPLE) == adders
        unproven = self._unproven(monkeypatch, sched, n, pair)
        ands = kinds.count(subarray.AND_STAGE)
        for program in (unproven, sched.program):
            assert len(program.steps) == ands + adders
        # without the proof an AND is 1 op; a full adder 5, a half adder
        # (one input from the zero row) 2, or 1 when nothing reads its
        # carry, and one with two zero inputs none; the one sum complement
        # that Cout keeps at the end costs 1 more, on a half adder
        steps = unproven.steps
        assert sorted({len(step) for step in steps}) == (
            [1] if n == 1 else [1, 2, 3] if n == 2 else [0, 1, 2, 3, 5])
        assert sum(len(step) == 3 for step in steps) == (n > 1)
        assert sum(map(len, steps)) == ops
        # from n = 3 on the proof folds that last half adder and its
        # complement, which are constant, and so no step is 3 ops
        steps = sched.program.steps
        assert sorted({len(step) for step in steps}) == (
            [1] if n == 1 else [1, 2, 3] if n == 2 else [0, 1, 2, 5])
        assert sum(map(len, steps)) == self.PROVEN_OPS[n]

    def test_eight_bit_program(self):
        sched = subarray._schedule(8, 0)
        assert len(sched.events) == mul_aap_count(8) == 1592
        # 64 ANDs and 350 full adders. The running sums zero-extend from
        # row 0, so only bit 0 of the 12 seeded ADDs over the intermediate
        # rows adds three unknown values. Of the 338 others the proof
        # leaves 118 half adders of 2 ops, and 36 whose carry it proves
        # zero, which keep only the sum. The other 184 cost nothing: 35
        # add two zeros from row 0, and the proof shows every output of
        # the rest constant, the running sums' high bits among them
        steps = sched.program.steps
        assert len(steps) == 414
        assert [sum(len(step) == k for step in steps)
                for k in range(6)] == [184, 64 + 36, 118, 0, 0, 12]
        assert sum(map(len, steps)) == 64 + 5 * 12 + 2 * 118 + 36 == 396
        assert len(sched.program.loads) == 16
        # copies are renames, and the full adders' temporaries and the
        # all-ones row of the complement live in rows the copies rename
        assert sched.program.extra == 0
