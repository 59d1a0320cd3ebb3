"""Layer-to-bank mapping: every multiplication of every MAC gets a
(bank, subarray, column, pair-depth) home.

One layer per bank. Within a bank, MACs are packed left to right, one
multiplication per column; a MAC never splits across subarrays, so a MAC that
would straddle restarts at column 1 of the next subarray and the leftover
columns stay empty (tracked as straddle padding). The parallelism divisor k
splits the output filters (or neurons) into k groups; each group is mapped
from subarray 1 column 1 again, stacking its operand pairs deeper in the same
columns, to be executed as sequential passes. Activations are shared by the
stacked pairs of a column; weights are per pass.

All placements of a layer share one geometry, so the plan stores arithmetic
descriptors rather than one record per multiplication (large conv layers
reach billions of multiplications). Per-MAC coordinates are derived on
demand.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Iterator
from dataclasses import dataclass, field, asdict

from .subarray import rows_needed


class MappingError(ValueError):
    """The network cannot be placed under the given geometry."""


# --------------------------------------------------------------------------
# Network description
# --------------------------------------------------------------------------

# LayerSpec fields that must hold an int; pool must hold an int or None.
_INT_FIELDS = ("H", "W", "I", "O", "K", "L", "p", "s", "w1", "w2")


def _is_int(value) -> bool:
    """True for an int; bool is excluded although it subclasses int."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class LayerSpec:
    """Geometry of one conv or linear layer.

    Conv fields: input H x W x I, O output filters, K x L kernel, padding p,
    stride s, optional pool window (max pool, stride = window). Linear fields:
    w1 input neurons, w2 output neurons. A layer carries no parallelism
    divisor: its k is its entry of NetworkDescription.parallelism.
    """

    kind: str
    H: int = 0
    W: int = 0
    I: int = 0
    O: int = 0
    K: int = 0
    L: int = 0
    p: int = 0
    s: int = 1
    pool: int | None = None
    w1: int = 0
    w2: int = 0

    def output_hw(self) -> tuple[int, int]:
        if self.kind != "conv":
            raise MappingError("output_hw is defined for conv layers")
        oh = (self.H - self.K + 2 * self.p) // self.s + 1
        ow = (self.W - self.L + 2 * self.p) // self.s + 1
        return oh, ow

    def output_elements(self) -> int:
        """Elements leaving the layer, after any pooling."""
        if self.kind == "linear":
            return self.w2
        oh, ow = self.output_hw()
        if self.pool and self.pool > 1:
            oh, ow = oh // self.pool, ow // self.pool
        return self.O * oh * ow

    def input_elements(self) -> int:
        """Elements the layer reads: H*W*I for conv, w1 for linear."""
        if self.kind == "linear":
            return self.w1
        return self.H * self.W * self.I

    def validate(self, k: int) -> list[str]:
        """Problems of this layer run at parallelism divisor k."""
        ints = [(name, getattr(self, name)) for name in _INT_FIELDS]
        issues = [
            f"{name} must be an integer, got {value!r}"
            for name, value in [*ints, ("k", k)] if not _is_int(value)
        ]
        if self.pool is not None and not _is_int(self.pool):
            issues.append(f"pool must be an integer or null, got {self.pool!r}")
        if issues:
            return issues
        if k < 1:
            issues.append(f"k={k} must be at least 1")
        if self.kind == "conv":
            if min(self.H, self.W, self.I, self.O, self.K, self.L) < 1:
                issues.append("conv dimensions must be positive")
            if self.p < 0:
                issues.append(f"padding {self.p} must not be negative")
            if self.s < 1:
                issues.append("stride must be positive")
            elif min(self.output_hw()) < 1:
                issues.append(
                    f"{self.K}x{self.L} kernel does not fit the "
                    f"{self.H}x{self.W} input with padding {self.p}"
                )
            elif self.pool is not None and not (
                1 <= self.pool <= min(self.output_hw())
            ):
                oh, ow = self.output_hw()
                issues.append(
                    f"pool window {self.pool} must be 1 to {min(oh, ow)} "
                    f"for the {oh}x{ow} output"
                )
            if k >= 1 and self.O % k:
                issues.append(f"k={k} does not divide O={self.O}")
        elif self.kind == "linear":
            if min(self.w1, self.w2) < 1:
                issues.append("linear dimensions must be positive")
            if self.pool is not None:
                issues.append("pool applies to conv layers only")
            if k >= 1 and self.w2 % k:
                issues.append(f"k={k} does not divide w2={self.w2}")
        else:
            issues.append(f"unknown layer kind {self.kind!r}")
        return issues


def conv_layer(H, W, I, O, K, L=None, p=0, s=1, pool=None) -> LayerSpec:
    """A conv layer (L defaults to K); k comes from the P-vector."""
    return LayerSpec(
        kind="conv", H=H, W=W, I=I, O=O, K=K, L=K if L is None else L,
        p=p, s=s, pool=pool,
    )


def linear_layer(w1, w2) -> LayerSpec:
    """A linear layer; k comes from the P-vector."""
    return LayerSpec(kind="linear", w1=w1, w2=w2)


@dataclass
class NetworkDescription:
    """Layers and their P-vector: layer i runs at k = parallelism[i]."""

    name: str
    precision: int
    layers: list[LayerSpec]
    parallelism: list[int] = field(default_factory=list)
    residual_edges: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        if not self.parallelism:
            self.parallelism = [1] * len(self.layers)
        if len(self.parallelism) != len(self.layers):
            raise MappingError(
                f"parallelism vector of {len(self.parallelism)} entries "
                f"for {len(self.layers)} layers"
            )

    def validate(self) -> list[str]:
        issues = []
        if not isinstance(self.name, str):
            issues.append(f"name must be a string, got {self.name!r}")
        else:
            # the reports carry the name as UTF-8; a lone surrogate has none
            try:
                self.name.encode()
            except UnicodeEncodeError:
                issues.append(f"name must encode to UTF-8, got {self.name!r}")
        if not _is_int(self.precision):
            issues.append(f"precision must be an integer, got {self.precision!r}")
        elif self.precision < 1:
            issues.append("precision must be at least 1 bit")
        for idx, (layer, k) in enumerate(zip(self.layers, self.parallelism)):
            issues.extend(f"layer {idx}: {msg}" for msg in layer.validate(k))
        for src, dst in self.residual_edges:
            if not (_is_int(src) and _is_int(dst)
                    and 0 <= src < dst < len(self.layers)):
                issues.append(f"residual edge ({src!r}, {dst!r}) out of order "
                              f"or range")
        return issues


# --------------------------------------------------------------------------
# Counting
# --------------------------------------------------------------------------

def num_macs(layer: LayerSpec) -> int:
    """Dot products per output filter of a conv layer.

    ((H-K+2p)/s + 1) * ((W-L+2p)/s + 1), with floor division so legacy
    geometries that are not stride-aligned still evaluate.
    """
    oh, ow = layer.output_hw()
    return oh * ow


def mac_size(layer: LayerSpec) -> int:
    """Multiplications in one dot product: K*L*I for conv, w1 for linear."""
    if layer.kind == "conv":
        return layer.K * layer.L * layer.I
    return layer.w1


def total_macs(layer: LayerSpec) -> int:
    if layer.kind == "conv":
        return num_macs(layer) * layer.O
    return layer.w2


def total_multiplications(layer: LayerSpec) -> int:
    return total_macs(layer) * mac_size(layer)


def footprint_bits(layer: LayerSpec, n: int) -> int:
    """Worst-case (k = 1) operand footprint in bits.

    Conv: O * ((H-K+2p)/s+1) * ((W-L+2p)/s+1) * (I*L*K) * 2n.
    Linear: w1 * w2 * 2n.
    """
    if n < 1:
        raise MappingError("precision must be at least 1 bit")
    return total_multiplications(layer) * 2 * n


# --------------------------------------------------------------------------
# Placement
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerPlacement:
    """Closed-form placement of one layer inside its bank (bank layer_index).

    It holds the layer, its k (passes), the column size and the precision,
    and derives every count from them once; a MAC wider than column_size,
    or a k that does not split the MACs into equal passes of whole filters,
    raises MappingError. MAC ids are global and consecutive: conv MAC
    f*num_macs+q is output position q of filter f; linear MAC j is neuron
    j. Pass p holds MACs [p*macs_per_pass, (p+1)*macs_per_pass), laid out
    identically, stacked at pair depth p.
    """

    layer_index: int
    layer: LayerSpec
    passes: int
    column_size: int
    precision: int
    kind: str = field(init=False)
    mac_size: int = field(init=False)
    macs_total: int = field(init=False)
    macs_per_pass: int = field(init=False)
    macs_per_subarray: int = field(init=False)
    subarrays_used: int = field(init=False)
    channel_positions: int = field(init=False)  # MACs per output channel

    def __post_init__(self):
        layer, ms = self.layer, mac_size(self.layer)
        if ms > self.column_size:
            raise MappingError(
                f"layer {self.layer_index}: MAC of {ms} multiplications "
                f"exceeds column_size {self.column_size}; a MAC cannot span "
                f"subarrays"
            )
        total = total_macs(layer)
        if self.passes < 1 or total % self.passes:
            raise MappingError(
                f"layer {self.layer_index}: k={self.passes} does not split "
                f"its {total} MACs into equal passes"
            )
        per_pass, per_sub = total // self.passes, self.column_size // ms
        positions = num_macs(layer) if layer.kind == "conv" else 1
        if per_pass % positions:
            raise MappingError(
                f"layer {self.layer_index}: k={self.passes} does not divide "
                f"O={layer.O}; a pass must hold whole filters"
            )
        # frozen: the derived fields are set past the blocked __setattr__
        self.__dict__.update(
            kind=layer.kind, mac_size=ms, macs_total=total,
            macs_per_pass=per_pass, macs_per_subarray=per_sub,
            subarrays_used=-(-per_pass // per_sub),
            channel_positions=positions,
        )

    @property
    def bank(self) -> int:
        return self.layer_index

    def mac_location(self, mac_id: int) -> tuple[int, int, int, int]:
        """(pass, sub_no, col_no, pair_depth) for a MAC; 1-based sub/col."""
        if not 0 <= mac_id < self.macs_total:
            raise MappingError(f"mac {mac_id} outside 0..{self.macs_total - 1}")
        p, m = divmod(mac_id, self.macs_per_pass)
        sub, slot = divmod(m, self.macs_per_subarray)
        return p, sub + 1, slot * self.mac_size + 1, p

    def pass_macs(self, subarrays: range) -> range:
        """Pass-local indices of the MACs held by the given subarrays; MAC m
        of every pass sits in subarray m // macs_per_subarray from column
        (m % macs_per_subarray) * mac_size."""
        return range(
            subarrays.start * self.macs_per_subarray,
            min(subarrays.stop * self.macs_per_subarray, self.macs_per_pass),
        )

    def placed_bits(self) -> int:
        """Operand bits actually stored: shared activations plus one weight
        set per stacked pair."""
        cols = self.macs_per_pass * self.mac_size
        return cols * self.precision * (self.passes + 1)

    def occupied_bits(self) -> int:
        """Bits of column capacity consumed, straddle padding included."""
        full, rem = divmod(self.macs_per_pass, self.macs_per_subarray)
        cols = full * self.column_size + rem * self.mac_size
        return cols * self.precision * (self.passes + 1)

    def padding_bits(self) -> int:
        return self.occupied_bits() - self.placed_bits()


@dataclass
class ResidualAssignment:
    edge: tuple[int, int]
    reserved_bank: int
    transfer_bits: int


@dataclass
class MappingPlan:
    column_size: int
    subarrays_per_bank: int | None
    precision: int
    layers: list[LayerPlacement]
    reserved_banks: list[ResidualAssignment] = field(default_factory=list)


def _place_layer(
    idx: int, layer: LayerSpec, k: int, n: int, column_size: int,
    subarrays_per_bank: int | None, rows: int | None,
) -> LayerPlacement:
    place = LayerPlacement(idx, layer, k, column_size, n)
    subs = place.subarrays_used
    if subarrays_per_bank is not None and subs > subarrays_per_bank:
        raise MappingError(
            f"layer {idx}: needs {subs} subarrays at k={k}, bank has "
            f"{subarrays_per_bank} (short by {subs - subarrays_per_bank})"
        )
    needed = rows_needed(n, k)
    if rows is not None and rows < needed:
        raise MappingError(
            f"layer {idx}: {rows} rows cannot stack {k} pairs at n={n} "
            f"(need {needed})"
        )
    return place


def map_network(
    net: NetworkDescription,
    column_size: int,
    subarrays_per_bank: int | None = None,
    rows: int | None = None,
) -> MappingPlan:
    """Assign every layer to a bank and every MAC to subarray columns.

    A layer must fit the geometry: each MAC within column_size, at most
    subarrays_per_bank subarrays, and its stacked pairs within `rows`
    (subarray.rows_needed). None leaves a bound unchecked. column_size must
    be below 2**63: the engine computes MAC column bounds in int64
    (datapath.packed_mac_sums).
    """
    issues = net.validate()
    if issues:
        raise MappingError("; ".join(issues))
    if column_size >= 1 << 63:
        raise MappingError(f"column_size {column_size} must be below 2**63")
    placements = [
        _place_layer(i, layer, k, net.precision, column_size,
                     subarrays_per_bank, rows)
        for i, (layer, k) in enumerate(zip(net.layers, net.parallelism))
    ]
    return MappingPlan(
        column_size=column_size,
        subarrays_per_bank=subarrays_per_bank,
        precision=net.precision,
        layers=placements,
    )


def plan_residual(
    net: NetworkDescription, total_banks: int
) -> list[ResidualAssignment]:
    """Reserve one bank per skip connection, from the top bank downward,
    after checking that the layers and the reserved banks fit.

    Each assignment schedules both inbound copies, the in-DRAM addition and
    the outbound transfer to the destination bank.
    """
    if total_banks < len(net.layers) + len(net.residual_edges):
        raise MappingError(
            f"{total_banks} banks cannot host {len(net.layers)} layers plus "
            f"{len(net.residual_edges)} reserved banks"
        )
    assignments = []
    for e_idx, (src, dst) in enumerate(net.residual_edges):
        bits = net.layers[src].output_elements() * net.precision
        assignments.append(
            ResidualAssignment(
                edge=(src, dst),
                reserved_bank=total_banks - 1 - e_idx,
                transfer_bits=bits,
            )
        )
    return assignments


# --------------------------------------------------------------------------
# Validation and serialization
# --------------------------------------------------------------------------

def validate_plan(plan: MappingPlan, net: NetworkDescription) -> list[str]:
    """Check the plan against the network; returns a list of violations
    (empty = clean): each placement must be its layer's, at the layer's k,
    and fit the bank. A placement derives every count from its layer and k,
    splits its MACs into equal passes and holds no MAC wider than its
    columns, so `mac_location` is then one-to-one onto in-range (subarray,
    column, pair) slots.
    """
    issues: list[str] = []
    if len(plan.layers) != len(net.layers):
        return [f"plan has {len(plan.layers)} layers, network {len(net.layers)}"]
    for idx, (place, layer, k) in enumerate(
        zip(plan.layers, net.layers, net.parallelism)
    ):
        if (place.layer_index, place.layer, place.passes) != (idx, layer, k):
            issues.append(f"layer {idx}: placement is not this layer's at k={k}")
        if (
            plan.subarrays_per_bank is not None
            and place.subarrays_used > plan.subarrays_per_bank
        ):
            issues.append(
                f"layer {idx}: uses {place.subarrays_used} subarrays, bank "
                f"has {plan.subarrays_per_bank}"
            )
    return issues


# Layers with at most this many MACs get a per-MAC listing in plan.txt.
LISTED_MACS = 10000
# plan_to_text yields plan.txt in blocks of at most this many bytes.
BLOCK_BYTES = 1 << 16


@functools.cache
def _decimals() -> tuple[bytes, ...]:
    """The ASCII decimals of 0..LISTED_MACS, every mac_id and sub_no a
    listing prints; built on the first listing, not at import."""
    return tuple(b"%d" % i for i in range(LISTED_MACS + 1))


def _mac_listing(pl: LayerPlacement) -> Iterator[bytes]:
    """One line per MAC of the layer with its mac_location, in blocks of at
    most BLOCK_BYTES.

    A pass repeats one subarray's col_no run at one pair_depth, so a block
    of `group` whole subarrays is one `%` over a byte template made once per
    pass. mac_id and sub_no fill its `%s` holes from the decimal table; no
    int is formatted per line. A subarray whose lines exceed a block is
    split into runs of slots instead, one block each.
    """
    # a subarray can hold up to 2**63 - 1 one-column MACs; a pass fills at
    # most macs_per_pass of them
    per_sub = min(pl.macs_per_subarray, pl.macs_per_pass)
    cols = [b"%d" % (slot * pl.mac_size + 1) for slot in range(per_sub)]
    decimals = _decimals()
    for depth in range(pl.passes):
        lines = [b"  mac_id=%%s sub_no=%%s col_no=%s pair_depth=%d\n"
                 % (col, depth) for col in cols]
        # filled, a line is at most 6 bytes longer: each hole takes a
        # decimal of at most 5 digits
        sub_bytes = sum(map(len, lines)) + 6 * per_sub
        if sub_bytes <= BLOCK_BYTES:
            group, step = BLOCK_BYTES // sub_bytes, per_sub
        else:
            # the last line has the widest col_no
            group, step = 1, BLOCK_BYTES // (len(lines[-1]) + 6)
        base, end = depth * pl.macs_per_pass, (depth + 1) * pl.macs_per_pass
        shape = template = None
        for sub in range(0, pl.subarrays_used, group):
            for start in range(0, per_sub, step):
                lo = base + sub * per_sub + start
                if lo >= end:
                    break
                width = min(step, per_sub - start)
                hi = min(lo + (group - 1) * per_sub + width, end)
                count = hi - lo
                whole, part = divmod(count, width)
                if shape != (start, count):
                    # every full block of the pass shares one template; the
                    # last one's is dropped before the next is built
                    shape, template = (start, count), None
                    template = (b"".join(lines[start:start + width]) * whole
                                + b"".join(lines[start:start + part]))
                values = [b""] * (2 * count)
                values[::2] = decimals[lo:hi]
                if group == 1:
                    values[1::2] = [decimals[sub + 1]] * count
                else:
                    # this slot of every subarray in the block, and of the
                    # last if the pass ends inside it and it holds the slot
                    for slot in range(per_sub):
                        values[2 * slot + 1::2 * per_sub] = decimals[
                            sub + 1:sub + 1 + whole + (slot < part)]
                # the list is freed before the block is allocated
                values = tuple(values)
                yield template % values


def plan_to_text(plan: MappingPlan) -> Iterator[bytes]:
    """The ASCII bytes of plan.txt, in blocks of at most BLOCK_BYTES: the
    header, one line per layer and per reserved bank, and the per-MAC lines
    of each layer of at most LISTED_MACS MACs."""
    yield (f"plan column_size={plan.column_size} "
           f"subarrays_per_bank={plan.subarrays_per_bank or 0} "
           f"precision={plan.precision}\n".encode())
    for pl in plan.layers:
        yield (f"layer index={pl.layer_index} bank={pl.bank} kind={pl.kind} "
               f"mac_size={pl.mac_size} macs_total={pl.macs_total} "
               f"passes={pl.passes} macs_per_pass={pl.macs_per_pass} "
               f"macs_per_subarray={pl.macs_per_subarray} "
               f"subarrays_used={pl.subarrays_used} "
               f"channel_positions={pl.channel_positions}\n".encode())
        if pl.macs_total <= LISTED_MACS:
            yield from _mac_listing(pl)
    for res in plan.reserved_banks:
        yield (f"reserved bank={res.reserved_bank} src={res.edge[0]} "
               f"dst={res.edge[1]} bits={res.transfer_bits}\n".encode())


# --------------------------------------------------------------------------
# Network file I/O
# --------------------------------------------------------------------------

def network_to_json(net: NetworkDescription) -> str:
    doc = {
        "name": net.name,
        "precision": net.precision,
        "parallelism": list(net.parallelism),
        "layers": [asdict(layer) for layer in net.layers],
        "residual_edges": [list(e) for e in net.residual_edges],
    }
    return json.dumps(doc, indent=2) + "\n"


def network_from_json(text: str) -> NetworkDescription:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MappingError(f"network file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MappingError("network file must hold a JSON object")
    for key in ("name", "precision", "layers"):
        if key not in doc:
            raise MappingError(f"network file is missing the {key!r} field")
    for key in ("layers", "parallelism", "residual_edges"):
        if not isinstance(doc.get(key, []), list):
            raise MappingError(f"{key!r} must be a list")
    edges = doc.get("residual_edges", [])
    if not all(isinstance(e, list) and len(e) == 2 for e in edges):
        raise MappingError("each residual edge must be a [src, dst] pair")
    layers = []
    for idx, entry in enumerate(doc["layers"]):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise MappingError(f"layer {idx}: missing 'kind'")
        known = {f for f in LayerSpec.__dataclass_fields__}
        bad = set(entry) - known
        if bad:
            raise MappingError(f"layer {idx}: unknown fields {sorted(bad)}")
        layers.append(LayerSpec(**entry))
    net = NetworkDescription(
        name=doc["name"],
        precision=doc["precision"],
        layers=layers,
        parallelism=doc.get("parallelism", []),
        residual_edges=[tuple(e) for e in edges],
    )
    issues = net.validate()
    if issues:
        raise MappingError("; ".join(issues))
    return net
