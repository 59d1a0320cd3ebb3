"""Bit-exact model of a compute-capable DRAM subarray.

A subarray is a rows x cols grid of single-bit cells. Nine reserved compute
rows (row0, A, A-1, B, B-1, Cin, Cin-1, Cout, Cout-1) plus, for n > 2, a
block of intermediate rows implement bitwise AND, bit-serial ADD and n x n
multiplication as AAPs (ACTIVATE-ACTIVATE-PRECHARGE): RowClone copies and
multi-row activations. and_op and add_bitserial append one AapEvent per
AAP to an AapTrace, from row indices alone: they execute nothing. The
multiply's command stream is emitted the same way once per (n, pair), into
its cached schedule. So command counts can be audited exactly:

    and_count(n)     = n*n                AND operations per multiply
    add_count(n)     = (n-2)(n-1)+n       intermediate ADDs (0 when n == 1)
    mul_aap_count(n) = 3n^2 + 3(n-1)^2 + 4            for n <= 2
                       3n^2 + 4(n-1)^3 + 4(n-1)       for n  > 2

Operands live in transposed layout: one multiplication per column, LSB in the
lowest-indexed data row. Cells are stored bit-packed, 64 columns per uint64
word (column c is bit c % 64 of word c // 64), so every AAP is a handful of
bitwise operations on whole rows. Each event is self-describing: its kind
(see AapEvent) and every row it touches. The multiply command sequence
depends only on n and the stacked pair, never on operand values: it is
emitted once per (n, pair) and compiled once (_compile) into a program over
row slots, in which copies are renames, each AND and each full adder (a
TRIPLE and the QUINTUPLE that senses the parity of the same three values)
is one step, and the constants of the reserved all-zero row 0, which
multiply checks, fold away. Up to n = 9 (PROOF_ROWS) the compiler then
runs the ops once over every value of the operand rows, one column each,
and folds every op that ends all zeros or all ones in every column: a
proof, not a sample. At n = 8 that leaves 396 of 701 ops. The events and
their AAP counts never change; only the program the simulator runs does.
Every call runs that program, the one executor of events here, on Python
ints or numpy rows by width (_run_program); each op carries its
operator.and_, or_ or xor, so the int executor calls it with no branch.
One run drives every column at once (SIMD across bitlines) and leaves
every cell, padding bits included, as running the events one by one
would; the tests keep that per-event reference executor
(tests/reference.py).
A state may also stand for a packed bank: the MAC columns of several
subarrays side by side, sharing one row layout and one command stream.
Which subarray and column a MAC sits in never changes a bit, so such a
state holds cells only, the columns its MACs use in MAC order; the caller
tracks which subarrays they belong to and charges each the command stream.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

COPY = "copy"
AND_STAGE = "and_stage"
TRIPLE = "triple_activate"
QUINTUPLE = "quintuple_activate"
WRITE_ROW0 = "write_row0"


class ConfigurationError(ValueError):
    """Subarray geometry cannot support the requested precision."""


class RowBoundsError(IndexError):
    """Row index outside the subarray."""


class AliasingError(ValueError):
    """Source and destination row groups overlap or touch reserved rows."""


class OperandRangeError(ValueError):
    """Operand value does not fit the configured bit width."""


@dataclass(frozen=True)
class AapEvent:
    """One AAP, every column at once. COPY (src, *dst): the destinations
    take the source row. WRITE_ROW0 (rows): the rows take zeros.
    AND_STAGE (p0, p1, *dst): every row takes p0 AND p1. TRIPLE
    (r1, r2, r3, *dst): every row takes the majority of the first three.
    QUINTUPLE (r1, r2, r3, neg, *dst): neg is read through its negated
    port, so the sensed value is maj(r1, r2, r3, ~neg, ~neg); neg takes its
    complement and every other row the value itself."""

    kind: str
    rows: tuple[int, ...]


@dataclass
class AapTrace:
    """Ordered log of DRAM commands, one entry per AAP, over a subarray of
    `rows` rows.

    The spans record which event slice each AND or ADD operation occupies, so
    per-operation AAP costs can be audited; and_ops / add_ops count them.
    """

    rows: int
    events: list[AapEvent] = field(default_factory=list)
    and_spans: list[tuple[int, int]] = field(default_factory=list)
    add_spans: list[tuple[int, int]] = field(default_factory=list)

    @property
    def total_aap(self) -> int:
        return len(self.events)

    @property
    def and_ops(self) -> int:
        return len(self.and_spans)

    @property
    def add_ops(self) -> int:
        return len(self.add_spans)

    def log(self, kind: str, rows: Iterable[int]) -> AapEvent:
        event = AapEvent(kind, tuple(int(r) for r in rows))
        self.events.append(event)
        return event

    def check(self, rows: Iterable[int]) -> None:
        """Raise RowBoundsError for a row outside 0..rows-1."""
        for r in rows:
            if not 0 <= r < self.rows:
                raise RowBoundsError(f"row {r} outside 0..{self.rows - 1}")


# The nine compute rows sit at the same indices in every subarray.
ROW0, A, A1, B, B1, CIN, CIN1, COUT, COUT1 = range(9)
COMPUTE_ROW_COUNT = 9
WORD_BITS = 64
WORD = np.dtype("<u8")


def word_count(cols: int) -> int:
    """uint64 words that hold one row of cols cells."""
    return -(-cols // WORD_BITS)


@dataclass
class BankState:
    """One subarray, or a packed bank of equal-width subarrays side by side:
    its bit-packed cell rows only. The multiply's command stream lives once
    per (n, pair) in the cached schedule (_schedule), not in the state.

    Row layout (fixed, derived from n alone): the compute rows ROW0..COUT1 at
    0..8, then n-1 intermediate rows, then 2n product rows, then operand data
    rows from `data_base`.
    A data column holds one n-bit activation followed by one n-bit weight per
    stacked pair, all LSB first. cells is (rows, word_count(cols)) uint64;
    bits past the last column are don't-care.
    """

    rows: int
    cols: int
    n: int
    cells: np.ndarray

    @property
    def intermediate_rows(self) -> range:
        return range(COMPUTE_ROW_COUNT, COMPUTE_ROW_COUNT + self.n - 1)

    @property
    def product_rows(self) -> range:
        return range(self.data_base - 2 * self.n, self.data_base)

    @property
    def data_base(self) -> int:
        return COMPUTE_ROW_COUNT + 3 * self.n - 1

    def activation_rows(self) -> tuple[int, ...]:
        return tuple(range(self.data_base, self.data_base + self.n))

    def weight_rows(self, pair: int = 0) -> tuple[int, ...]:
        base = self.data_base + self.n * (pair + 1)
        if base + self.n > self.rows:
            raise ConfigurationError(
                f"pair {pair} needs rows up to {base + self.n}, have {self.rows}"
            )
        return tuple(range(base, base + self.n))

    @property
    def pair_capacity(self) -> int:
        return (self.rows - self.data_base) // self.n - 1


def rows_needed(n: int, pairs: int) -> int:
    """Rows of a state at precision n with `pairs` stacked weight blocks:
    compute rows, n-1 intermediate, 2n product, then the activation and one
    weight per pair."""
    return COMPUTE_ROW_COUNT + (n - 1) + 2 * n + (pairs + 1) * n


def new_bank(rows: int, cols: int, n: int) -> BankState:
    """Allocate an all-zero bank state with reserved rows for precision n."""
    if n < 1:
        raise ConfigurationError("precision must be at least 1 bit")
    if cols < 1:
        raise ConfigurationError("need at least one column")
    needed = rows_needed(n, 1)
    if rows < needed:
        raise ConfigurationError(
            f"{rows} rows cannot hold precision {n}: need {needed} "
            f"(9 compute + {n - 1} intermediate + {2 * n} product + {2 * n} operand)"
        )
    return BankState(rows, cols, n,
                     np.zeros((rows, word_count(cols)), dtype=WORD))


# --------------------------------------------------------------------------
# Public primitives: each appends its AAPs to a trace and executes nothing
# --------------------------------------------------------------------------

def and_op(
    trace: AapTrace,
    src_a_row: int,
    src_b_row: int,
    dst_rows: Sequence[int],
    pair: str = "a",
) -> list[AapEvent]:
    """dst = src_a AND src_b per column. Exactly 3 AAPs.

    Stage 1 copies the first operand onto the selector cell of the AND pair
    ("a": A/A-1, "b": B/B-1), stage 2 copies the second onto its partner,
    stage 3 activates the AND wordline and stores the sensed result in the
    destination rows (one or two). The pair cells also end up holding the
    result. No source may be a row of the chosen pair, which the staging
    copies overwrite: stage 1 would clobber a second operand held in the
    selector cell.
    """
    dsts = tuple(int(d) for d in dst_rows)
    if not 1 <= len(dsts) <= 2:
        raise AliasingError("AND takes one or two destination rows")
    trace.check((src_a_row, src_b_row, *dsts))
    if src_a_row in dsts or src_b_row in dsts:
        raise AliasingError("AND destination overlaps a source row")
    if pair not in ("a", "b"):
        raise AliasingError(f"AND pair must be 'a' or 'b', got {pair!r}")
    p = (A, A1) if pair == "a" else (B, B1)
    if src_a_row in p or src_b_row in p:
        raise AliasingError("AND source overlaps its AND pair")
    start = len(trace.events)
    trace.log(COPY, (src_a_row, p[0]))
    trace.log(COPY, (src_b_row, p[1]))
    trace.log(AND_STAGE, (*p, *dsts))
    trace.and_spans.append((start, len(trace.events)))
    return trace.events[start:]


def _add_bit(trace: AapTrace, k: int, b_row: int, sum_row: int,
             carry_row: int | None) -> None:
    """Bit k of a ripple-carry ADD whose operand-1 bit already sits in
    A/A-1: copy b_row into B/B-1, then the TRIPLE writes the carry into Cout
    and the free carry copy (and carry_row, when given), and the QUINTUPLE
    writes the sum bit into sum_row. Cout-1 and Cin-1 take turns as the free
    copy and the cold one the QUINTUPLE reads, by the parity of k. 3 AAPs.
    """
    trace.log(COPY, (b_row, B, B1))
    free, cold = (COUT1, CIN1) if k % 2 == 0 else (CIN1, COUT1)
    carry = () if carry_row is None else (carry_row,)
    trace.log(TRIPLE, (A, B, CIN, COUT, free, *carry))
    trace.log(QUINTUPLE, (A1, B1, cold, COUT, sum_row))


def add_bitserial(
    trace: AapTrace,
    a_rows: Sequence[int],
    b_rows: Sequence[int],
    out_rows: Sequence[int],
) -> list[AapEvent]:
    """out = a + b per column, LSB first. Exactly 4n+1 AAPs for n-bit operands.

    One AAP seeds the carry pair with zeros from row0, then each bit takes
    four: copy a_k, copy b_k, triple activation for the carry (written to the
    Cout cell and to the row that will serve as next bit's carry copy), and
    the quintuple activation for the sum bit. The final carry rides out on the
    last triple activation's destination list, so out needs n+1 rows.
    """
    n = len(a_rows)
    if n < 1 or len(b_rows) != n or len(out_rows) != n + 1:
        raise AliasingError("need n a-rows, n b-rows and n+1 out-rows")
    groups = (*a_rows, *b_rows, *out_rows)
    trace.check(groups)
    if len(set(groups)) != len(groups):
        raise AliasingError("a, b and out row groups must be disjoint")
    if min(groups) < COMPUTE_ROW_COUNT:
        raise AliasingError("operand rows may not alias the compute rows")

    start = len(trace.events)
    trace.log(COPY, (ROW0, CIN, CIN1))
    for k in range(n):
        trace.log(COPY, (a_rows[k], A, A1))
        _add_bit(trace, k, b_rows[k], out_rows[k],
                 out_rows[n] if k == n - 1 else None)
    trace.add_spans.append((start, len(trace.events)))
    return trace.events[start:]


# --------------------------------------------------------------------------
# Multiplication
# --------------------------------------------------------------------------

def and_count(n: int) -> int:
    """AND operations in an n-bit multiply: (1+..+(n-1))*2 + n = n^2."""
    if n < 1:
        raise ValueError("n must be positive")
    return n * n


def add_count(n: int) -> int:
    """Intermediate ADD operations in an n-bit multiply.

    (1+..+(n-2))*2 + (n-1) + 1 = (n-2)(n-1) + n for n >= 2; a 1-bit product
    needs no additions at all.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return 0
    return (n - 2) * (n - 1) + n


def mul_aap_count(n: int) -> int:
    """Total AAPs for one n-bit multiply (same for every column)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n <= 2:
        return 3 * n * n + 3 * (n - 1) ** 2 + 4
    return 3 * n * n + 4 * (n - 1) ** 3 + 4 * (n - 1)


def _fused_add(
    trace: AapTrace,
    op2_rows: Sequence[int] | None,
    dest: Sequence[int],
    carry_dst: int | None,
    seeded: bool,
) -> None:
    """len(dest)-bit running-sum ADD inside a multiply: 4 AAPs per bit.

    Operand 1 is the AND result already sitting in A/A-1, zero-extended from
    row0 above bit 0. Operand 2 is the intermediate value (row0 zeros when
    op2_rows is None). When seeded, the bit-0 carry-in is the second AND term
    previously parked in Cin, so one ADD folds two partial products. dest maps
    sum bit j to its row; carry_dst, when given, receives the final carry via
    the last triple activation.
    """
    m = len(dest)
    start = len(trace.events)
    for j in range(m):
        if j == 0:
            trace.log(COPY, (CIN, CIN1) if seeded else (ROW0, CIN, CIN1))
        else:
            trace.log(COPY, (ROW0, A, A1))
        _add_bit(trace, j, ROW0 if op2_rows is None else op2_rows[j], dest[j],
                 carry_dst if j == m - 1 else None)
    trace.add_spans.append((start, len(trace.events)))


def _multiply_small(state: BankState, pair: int) -> AapTrace:
    """n <= 2 schedule on state's rows, per the worked two-bit sequence."""
    n = state.n
    P = state.product_rows
    a = state.activation_rows()
    b = state.weight_rows(pair)
    trace = AapTrace(state.rows)

    trace.log(WRITE_ROW0, (ROW0, CIN, CIN1))
    if n == 1:
        # Degenerate path: a single AND plus the fixed zero-fill preamble.
        trace.log(COPY, (ROW0, B, B1))
        trace.log(COPY, (ROW0, COUT, COUT1))
        and_op(trace, a[0], b[0], (P[0],), pair="a")
        trace.log(COPY, (ROW0, P[1]))
        return trace

    and_op(trace, a[0], b[0], (P[0],), pair="a")
    and_op(trace, a[1], b[0], (A, A1), pair="a")
    and_op(trace, a[0], b[1], (B, B1), pair="b")
    # Middle column: carry to Cout, sum to P1, then re-duplicate the carry.
    start = len(trace.events)
    trace.log(TRIPLE, (A, B, CIN, COUT))
    trace.log(QUINTUPLE, (A1, B1, CIN1, COUT, P[1]))
    trace.log(COPY, (CIN, CIN1))
    trace.add_spans.append((start, len(trace.events)))
    and_op(trace, a[1], b[1], (A, A1), pair="a")
    # Final column adds the carry to the last partial product against zeros.
    start = len(trace.events)
    trace.log(COPY, (ROW0, B, B1))
    trace.log(TRIPLE, (A, B, CIN, P[3], COUT))
    trace.log(QUINTUPLE, (A1, B1, CIN1, COUT, P[2]))
    trace.add_spans.append((start, len(trace.events)))
    return trace


def _multiply_wide(state: BankState, pair: int) -> AapTrace:
    """n > 2 schedule on state's rows: per product column, AND the partial
    products and fold them into the intermediate rows with running-sum ADDs.

    The first two AND terms of a column share one ADD (the second term enters
    as the bit-0 carry seed), so a column with c terms costs c-1 ADDs; the
    single-term last column costs one. The final ADD of each column routes sum
    bit 0 to the product row and the remaining bits shifted down into the
    intermediate rows, which is how the carry moves to the next column.
    """
    n = state.n
    m = n - 1
    I = state.intermediate_rows
    P = state.product_rows
    a = state.activation_rows()
    b = state.weight_rows(pair)
    trace = AapTrace(state.rows)

    and_op(trace, a[0], b[0], (P[0],), pair="a")
    for t in range(1, 2 * n - 1):
        hi = min(t, n - 1)
        lo = max(0, t - n + 1)
        terms = [(i, t - i) for i in range(hi, lo - 1, -1)]
        c = len(terms)
        last_col = t == 2 * n - 2
        op2 = None if t == 1 else I

        def dest_for(final: bool) -> tuple[list[int], int | None]:
            if not final:
                return list(I), None
            if last_col:
                return [P[t], P[t + 1], *I[1 : m - 1]], I[m - 1]
            return [P[t], *I[: m - 1]], I[m - 1]

        if c == 1:
            i, j = terms[0]
            and_op(trace, a[i], b[j], (A, A1), pair="a")
            dest, carry = dest_for(final=True)
            _fused_add(trace, op2, dest, carry, seeded=False)
            continue
        and_op(trace, a[terms[0][0]], b[terms[0][1]], (A, A1), pair="a")
        and_op(trace, a[terms[1][0]], b[terms[1][1]], (CIN,), pair="b")
        dest, carry = dest_for(final=c == 2)
        _fused_add(trace, op2, dest, carry, seeded=True)
        for idx, (i, j) in enumerate(terms[2:], start=2):
            and_op(trace, a[i], b[j], (A, A1), pair="a")
            dest, carry = dest_for(final=idx == c - 1)
            _fused_add(trace, I, dest, carry, seeded=False)
    return trace


# (f, x, y, out): out = f(x, y), f one of operator.and_, or_ and xor, over
# value ids inside _compile and over slot rows in a Program
Op = tuple[Callable[[int, int], int], int, int, int]


@dataclass(frozen=True)
class Program:
    """A multiply schedule compiled to logic over slot rows.

    Slots 0..touched-1 are the state's own cell rows, slots from touched on
    are rows of a scratch buffer of `extra` rows. The multiply's temporaries
    fit in rows the copies rename; up to n = 30 it needs one scratch row,
    to save a cycle of moves, only at n = 20, 22 and 24-30. ops holds the
    slot operations (f, x, y, out) in the order they run (Op), f one of
    operator.and_, or_ and xor, and sizes cuts them into steps (steps),
    each one AND or one full adder. A full adder is a TRIPLE together with
    the QUINTUPLE that senses the parity of the same three values: 5 ops
    write its carry and sum bit, and one more the sum's complement when
    something reads it. Ops whose value constants fix are folded away
    (_compile), so a full adder with an input from the all-zero row 0 is a
    half adder of 2 ops, and a step may hold none. Up to n = 9 that
    includes every value an exhaustive proof shows to be the same for all
    operands, such as the running sums' high bits. Copies and zero writes
    are row renames and cost nothing. pins sets every bit of a slot to 0
    or 1 before the steps, as (slot, bit). loads lists the touched rows
    whose starting value the program uses; row 0 is never loaded, and is
    never stored when it ends zero. stores gives each slot whose value
    some rows end with in place of their own, and those rows, as (slot,
    rows). moves gives the same stores as one copy per row whose value
    sits in another slot, (row, slot), ordered so that every slot is read
    before a copy overwrites it, which the multiply's moves need from
    n = 10 on; where stored rows exchange values, the cycle first saves
    one of them to a scratch row of its own.

    _run_program runs it on Python ints when the state is at most
    INT_ROW_WORDS words wide and on numpy rows when it is wider; either
    leaves every cell, padding included, as the events would.
    """

    touched: int
    extra: int
    pins: tuple[tuple[int, int], ...]
    ops: tuple[Op, ...]
    sizes: tuple[int, ...]
    loads: tuple[int, ...]
    stores: tuple[tuple[int, tuple[int, ...]], ...]
    moves: tuple[tuple[int, int], ...]

    @property
    def steps(self) -> tuple[tuple[Op, ...], ...]:
        """The ops grouped into their steps."""
        at = iter(self.ops)
        return tuple(tuple(itertools.islice(at, k)) for k in self.sizes)


_ZERO, _ONES = -1, -2     # value ids of the all-zero and all-one rows
# numpy's in-place form of each op's function, for the numpy-row executor
_UFUNCS = {operator.and_: np.bitwise_and, operator.or_: np.bitwise_or,
           operator.xor: np.bitwise_xor}
# _compile proves constants when its ops read at most this many rows: the
# multiply's 2n operand rows up to n = 9, where a truth table is 2**18
# bits (32 KiB) and the compile takes about 30 ms and a 1.7 MiB peak. At
# n = 10 a table is four times as wide: about 0.16 s and 4.4 MiB.
PROOF_ROWS = 18
# A state at most this many words wide runs its program on Python ints, a
# wider one on numpy rows. A numpy op pays about a microsecond of call
# overhead at any width; an int op pays little overhead but more per word,
# and each row it loads or stores costs a conversion. Measured on a
# shared 2-core VM on the proved programs (table in CHANGES.md), numpy rows
# are as fast at 2 words at n = 2 and faster from 64; the two cross
# between 96 and 128 words at n = 4 and between 384 and 512 at n = 8. At
# 256 words ints lose about 35-45 us per multiply at n = 2 and 35-50 us at
# n = 4, and save about 25-50 us at n = 8.
INT_ROW_WORDS = 256


def _values(events: Sequence[AapEvent], start: Sequence[int]):
    """Symbolic run of the events over value ids: row r starts as start[r],
    its own id r or _ZERO, every logic event makes new ids past
    len(start), copies only rename.

    Returns the steps as (input ids, output ids) and the final id of every
    row. An AND_STAGE is a step with one output. A TRIPLE opens a full
    adder over its three inputs, whose outputs are its carry (the
    majority), its sum bit (the parity) and the sum's complement. The
    multiply only ever activates a QUINTUPLE whose negated row holds the
    carry of a full adder over the same three values, so it senses their
    parity (Ambit's sum bit): its rows take that adder's sum and the
    negated row the complement. Any other QUINTUPLE raises ValueError: it
    has no step here.
    """
    row_val = list(start)
    adders: dict[int, tuple[list[int], tuple[int, ...]]] = {}   # by carry
    steps = []
    fresh = len(start)
    for event in events:
        kind, rows = event.kind, event.rows
        if kind == COPY:
            for d in rows[1:]:
                row_val[d] = row_val[rows[0]]
            continue
        if kind == WRITE_ROW0:
            for d in rows:
                row_val[d] = _ZERO
            continue
        if kind == QUINTUPLE:
            inputs, outs = adders.get(row_val[rows[3]], (None, ()))
            if inputs != sorted(row_val[r] for r in rows[:3]):
                raise ValueError(
                    f"quintuple activation {rows} is not a full adder's sum "
                    f"bit: its negated row holds no carry of its inputs")
            for d in rows:
                row_val[d] = outs[1]
            row_val[rows[3]] = outs[2]
            continue
        if kind == AND_STAGE:
            ins, width = rows[:2], 1
        elif kind == TRIPLE:
            ins, width = rows[:3], 3
        else:
            raise ValueError(f"unknown AAP event kind {kind!r}")
        ins = tuple(row_val[r] for r in ins)
        outs = tuple(range(fresh, fresh + width))
        fresh += width
        for d in rows:
            row_val[d] = outs[0]
        if kind == TRIPLE:
            adders[outs[0]] = (sorted(ins), outs)
        steps.append((ins, outs))
    return steps, row_val


def _fold(f: Callable[[int, int], int], x: int, y: int) -> int | None:
    """The value id that op f over ids x and y equals when a constant or a
    repeated input fixes it, else None: x&0 = 0, x&1 = x&x = x, x|1 = 1,
    x|0 = x|x = x, x^0 = x and x^x = 0."""
    if x == y:
        return _ZERO if f is operator.xor else x
    for a, b in ((x, y), (y, x)):
        if b == _ZERO:
            return _ZERO if f is operator.and_ else a
        if b == _ONES and f is not operator.xor:
            return a if f is operator.and_ else _ONES
    return None


def _simplify(steps: list[list[Op]], same: dict[int, int],
              proven: dict[int, int]) -> None:
    """Rewrite each op's inputs to the values they equal, in same, and drop
    every op whose output proven or _fold fixes to a value, which same then
    records for its output."""
    for step in steps:
        kept = []
        for f, x, y, out in step:
            x, y = same.get(x, x), same.get(y, y)
            value = proven.get(out)
            if value is None:
                value = _fold(f, x, y)
            if value is None:
                kept.append((f, x, y, out))
            else:
                same[out] = value
        step[:] = kept


def _prune(steps: list[list[Op]], kept: set[int]) -> None:
    """Drop every op whose output no later op needs and kept lacks, in one
    backward pass."""
    needed = set(kept)
    for step in reversed(steps):
        used = []
        for op in reversed(step):
            if op[3] in needed:
                needed.update(op[1:3])
                used.append(op)
        step[:] = used[::-1]


def _column_bits(var: int, width: int) -> int:
    """The truth table of input var over 2**width columns: column c holds
    bit var of c."""
    period, table = 2 << var, ((1 << (1 << var)) - 1) << (1 << var)
    while period < 1 << width:
        table |= table << period
        period *= 2
    return table


def _prove(ops: list[Op]) -> dict[int, int]:
    """The outputs of ops that are _ZERO or _ONES for every value of the
    rows they read, by id, when those are at most PROOF_ROWS rows, else {}.

    Each value is a truth table over every assignment of the rows read, one
    column per assignment (a Python int of 2**rows bits), so a constant is
    proved, not sampled. A table is dropped after its last read: the ones
    alive at once, not all of them, set the memory the proof takes.
    """
    outs = {op[3] for op in ops}
    rows = sorted({v for op in ops for v in op[1:3]} - outs - {_ZERO, _ONES})
    if len(rows) > PROOF_ROWS:
        return {}
    ones = (1 << (1 << len(rows))) - 1
    tables = {_ZERO: 0, _ONES: ones}
    tables.update((r, _column_bits(i, len(rows))) for i, r in enumerate(rows))
    last_read = {v: i for i, op in enumerate(ops) for v in op[1:3] if v >= 0}
    proven = {}
    for i, (f, x, y, out) in enumerate(ops):
        table = f(tables[x], tables[y])
        for v in (x, y):
            if last_read.get(v) == i:
                tables.pop(v, None)
        if table == 0 or table == ones:
            proven[out] = _ZERO if table == 0 else _ONES
            table = tables[proven[out]]     # one copy of each constant
        if out in last_read:
            tables[out] = table
    return proven


def _compile(events: Sequence[AapEvent], touched: int) -> Program:
    """Compile the steps of _values to a slot program. Row 0 starts as
    _ZERO, the reserved all-zero row: the caller must make that hold
    (multiply checks it).

    1. Lower each step to (f, x, y, out) ops over value ids, f one of
       operator.and_, or_ and xor: an AND to one op, a full adder to
       t=a^b, o=a&b, sum=t^c, t2=t&c, carry=o|t2 and comp=sum^ONES. An op
       that _fold fixes to a value is no op: its output is that value. So
       a full adder with a zero input is a half adder of 2 ops, and one
       with two is none.
    2. Drop every op whose output no kept op reads and no row ends with, in
       one backward pass.
    3. Prove the ops' constants (_prove) when they read at most PROOF_ROWS
       rows, and fold them as in 1, then drop what that leaves dead. The
       multiply reads its 2n operand rows, so up to n = 9 this folds every
       bit that ends zero or one for all operands, such as the running
       sums' high bits: n = 8 falls from 701 ops to 396.
    4. Give each value a slot in one forward scan. A row's own value starts
       in that row, and _ZERO and _ONES are pinned before the first op. A
       value's slot is freed after its last read unless some row ends with
       it, so an op may overwrite an input it reads last. Row 0, when it
       ends zero, is never read or written. A value takes the home row of
       a row that ends with it when that row is free, so most rows get
       their value in place, and otherwise the lowest free row.
    5. Order the copies of the rows whose value ends in another slot
       (_order_moves).
    """
    start = [_ZERO, *range(1, touched)]
    steps, final = _values(events, start)
    # t, o and t2 take ids past every id of _values
    fresh = itertools.count(touched + sum(len(outs) for _, outs in steps))
    xor, and_, or_ = operator.xor, operator.and_, operator.or_
    lowered = []
    for ins, outs in steps:
        if len(ins) == 2:
            lowered.append([(and_, *ins, *outs)])
            continue
        (a, b, c), (carry, total, comp) = ins, outs
        t, o, t2 = next(fresh), next(fresh), next(fresh)
        lowered.append([(xor, a, b, t), (and_, a, b, o),
                        (xor, t, c, total), (and_, t, c, t2),
                        (or_, o, t2, carry), (xor, total, _ONES, comp)])
    same: dict[int, int] = {}     # the value each folded op's output equals
    _simplify(lowered, same, {})
    final = [same.get(v, v) for v in final]
    # row 0 holds no value of the program when it ends zero
    kept = {v for v, s in zip(final, start) if not v == s == _ZERO}
    _prune(lowered, kept)
    proven = _prove([op for step in lowered for op in step])
    if proven:
        _simplify(lowered, same, proven)
        final = [same.get(v, v) for v in final]
        kept = {v for v, s in zip(final, start) if not v == s == _ZERO}
        _prune(lowered, kept)

    ops = [op for step in lowered for op in step]
    last_read = {v: i for i, op in enumerate(ops) for v in op[1:3]}
    ends: dict[int, list[int]] = {}
    for r, v in enumerate(final):
        if v != start[r]:
            ends.setdefault(v, []).append(r)
    live = kept | last_read.keys()
    slot_of = {r: r for r in range(touched) if r in live}
    # a row is free when it ends with another value and its own is dead
    free = {r for r in range(touched) if final[r] != start[r]} - live
    extra = 0

    def alloc(value: int) -> int:
        nonlocal extra
        homes = [r for r in ends.get(value, ()) if r in free]
        if not homes and not free:
            free.add(touched + extra)
            extra += 1
        slot = homes[0] if homes else min(free)
        free.remove(slot)
        slot_of[value] = slot
        return slot

    pins = tuple((alloc(v), bit) for v, bit in ((_ZERO, 0), (_ONES, 1))
                 if v in live)
    slotted = []
    for i, (f, x, y, out) in enumerate(ops):
        sx, sy = slot_of[x], slot_of[y]
        for v in {x, y} - kept:
            if last_read[v] == i:
                free.add(slot_of.pop(v))
        slotted.append((f, sx, sy, alloc(out)))
    loads = tuple(r for r in range(touched) if r in last_read or r in ends)
    stores = tuple((slot_of[v], tuple(rows)) for v, rows in ends.items())
    moves = _order_moves(stores, touched + extra)
    extra += any(row == touched + extra for row, _ in moves)
    return Program(touched, extra, pins, tuple(slotted),
                   tuple(map(len, lowered)), loads, stores, moves)


def _order_moves(stores: tuple[tuple[int, tuple[int, ...]], ...],
                 scratch: int) -> tuple[tuple[int, int], ...]:
    """The stores as (row, slot) copies of the rows whose value sits in
    another slot, each row written only once no copy still to come reads
    it. When every row left is still read, the rows left form cycles: one
    of them is saved to slot scratch first and its readers read it there."""
    source = {r: s for s, rows in stores for r in rows if r != s}
    readers = collections.Counter(source.values())
    moves = []
    while source:
        row = next((r for r in source if not readers[r]), None)
        if row is None:
            row = min(source)
            moves.append((scratch, row))
            source = {r: scratch if s == row else s for r, s in source.items()}
            readers[row] = 0
        slot = source.pop(row)
        readers[slot] -= 1
        moves.append((row, slot))
    return tuple(moves)


def _run_rows(program: Program, cells: np.ndarray) -> None:
    """Execute a compiled schedule on numpy cell rows: the op runs in place
    on views of the touched rows and on a scratch buffer, then the rows
    whose final value sits in another slot take it from there, one copy
    each in the program's order of moves."""
    extra = np.empty((program.extra, cells.shape[1]), dtype=WORD)
    slots = [*cells[: program.touched], *extra]
    for slot, bit in program.pins:
        slots[slot].fill(bit * ((1 << WORD_BITS) - 1))
    for f, x, y, out in program.ops:
        _UFUNCS[f](slots[x], slots[y], slots[out])
    for row, slot in program.moves:
        np.copyto(slots[row], slots[slot])


def _run_ints(program: Program, cells: np.ndarray) -> None:
    """Execute a compiled schedule on one Python int per slot row: the rows
    it loads are read in with int.from_bytes, the rows it stores written
    back with to_bytes. Converting a row costs about as much as 15 ops on
    it, so rows the program leaves alone are never converted."""
    words = cells.shape[1]
    size = words * WORD.itemsize
    slots = [0] * (program.touched + program.extra)
    raw = memoryview(cells[list(program.loads)].tobytes())
    for at, r in enumerate(program.loads):
        slots[r] = int.from_bytes(raw[at * size : (at + 1) * size], "little")
    for slot, bit in program.pins:
        slots[slot] = bit * ((1 << words * WORD_BITS) - 1)
    for f, x, y, out in program.ops:
        slots[out] = f(slots[x], slots[y])
    if program.stores:
        done = b"".join([slots[s].to_bytes(size, "little")
                         for s, _ in program.stores])
        ends = np.frombuffer(done, dtype=WORD).reshape(-1, words)
        cells[[r for _, rows in program.stores for r in rows]] = ends.repeat(
            [len(rows) for _, rows in program.stores], axis=0)


def _run_program(program: Program, cells: np.ndarray) -> None:
    """Execute a compiled schedule on packed cell rows, every column at once,
    on Python ints up to INT_ROW_WORDS words per row and numpy rows above.

    Leaves cells exactly as applying the schedule's events one by one would,
    on every row and bit, padding included.
    """
    if cells.shape[1] <= INT_ROW_WORDS:
        _run_ints(program, cells)
    else:
        _run_rows(program, cells)


class Schedule(NamedTuple):
    """A recorded multiply: its events, AND and ADD spans, and program."""

    events: tuple[AapEvent, ...]
    and_spans: tuple[tuple[int, int], ...]
    add_spans: tuple[tuple[int, int], ...]
    program: Program


@functools.lru_cache(maxsize=None)
def _schedule(n: int, pair: int) -> Schedule:
    """The multiply command sequence for precision n and stacked pair, with
    its AND and ADD spans and its compiled program.

    The sequence depends on nothing else, so it is emitted once from the
    row layout of a one-column state, whose cells nothing reads or writes,
    and compiled once.
    """
    touched = rows_needed(n, pair + 1)
    layout = new_bank(touched, 1, n)
    tr = (_multiply_small if n <= 2 else _multiply_wide)(layout, pair)
    return Schedule(tuple(tr.events), tuple(tr.and_spans),
                    tuple(tr.add_spans), _compile(tr.events, touched))


def multiply(state: BankState, pair: int = 0) -> tuple[AapEvent, ...]:
    """Multiply the operands of every column, product into P0..P(2n-1).

    pair selects the stacked weight block the shared activation bits are
    multiplied with. Runs the compiled program of the sequence recorded once
    for (n, pair) and returns that sequence's events, the cached schedule's
    own tuple: mul_aap_count(n) AAPs regardless of operand values or column
    count. Row 0 must hold all zeros, the
    reserved zero row the program is compiled for: otherwise
    ConfigurationError is raised and no cell changes.
    """
    if not 0 <= pair < state.pair_capacity:
        raise ConfigurationError(
            f"pair {pair} exceeds stacking capacity {state.pair_capacity}"
        )
    if np.count_nonzero(state.cells[ROW0]):
        raise ConfigurationError(
            "row 0 must hold all zeros: the multiply reads it as the "
            "reserved zero row")
    schedule = _schedule(state.n, pair)
    _run_program(schedule.program, state.cells)
    return schedule.events

