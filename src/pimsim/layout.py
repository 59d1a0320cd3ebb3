"""Integer cost model shared by the functional path and the timing path.

The row budget, the multiply's command counts and the adder tree's width
and loads are defined once here, and read by both the simulator (subarray,
datapath, engine) and the model (mapper, timing). The module imports
nothing, so a timing-mode run loads no numpy:

    rows_needed(n, pairs)  rows of a state at precision n with stacked pairs
    and_count(n)     = n*n                AND operations per multiply
    add_count(n)     = (n-2)(n-1)+n       intermediate ADDs (0 when n == 1)
    mul_aap_count(n) = 3n^2 + 3(n-1)^2 + 4            for n <= 2
                       3 and_count(n) + 4(n-1) add_count(n)  for n > 2:
                       3 AAPs per AND, 4 per bit of an (n-1)-bit ADD
    tree_loads_per_pass(place, width)  row-buffer loads of the adder tree
"""

from __future__ import annotations


class ConfigurationError(ValueError):
    """Subarray geometry cannot support the requested precision."""


# The compute rows below every subarray's data (subarray.ROW0..COUT1).
COMPUTE_ROW_COUNT = 9

# Inputs of the shared adder tree behind the sense amplifiers (the paper's
# 4096-input adder); the functional run and the timing model both reduce on it.
TREE_WIDTH = 4096


def rows_needed(n: int, pairs: int) -> int:
    """Rows of a state at precision n with `pairs` stacked weight blocks:
    compute rows, n-1 intermediate, 2n product, then the activation and one
    weight per pair."""
    return COMPUTE_ROW_COUNT + (n - 1) + 2 * n + (pairs + 1) * n


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
    return 3 * and_count(n) + 4 * (n - 1) * add_count(n)


def pow2ceil(x: int) -> int:
    return 1 << max(0, (x - 1).bit_length())


def tree_loads_per_pass(place, tree_width: int) -> int:
    """Row-buffer loads needed to reduce one pass of a LayerPlacement through
    the shared tree.

    A MAC wider than the tree folds through it in tree-wide pieces, one load
    each. Narrower MACs are padded to a power of two and packed into aligned
    slots, tree_width // pow2ceil(mac_size) per load; a load never spans two
    subarrays.
    """
    ms = place.mac_size
    if ms > tree_width:
        return place.macs_per_pass * -(-ms // tree_width)
    per_load = tree_width // pow2ceil(ms)
    full, rem = divmod(place.macs_per_pass, place.macs_per_subarray)
    return (full * -(-place.macs_per_subarray // per_load)
            + -(-rem // per_load))
