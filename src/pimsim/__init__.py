"""Functional and timing simulator for a bit-serial in-DRAM DNN accelerator."""

from .subarray import (
    AapEvent,
    AapTrace,
    SubarrayState,
    add_bitserial,
    add_count,
    and_count,
    and_op,
    mul_aap_count,
    multi_row_activate,
    multiply,
    new_subarray,
    read_product_column,
    row_clone,
    write_operand_column,
)
from .datapath import (
    AccumulatorState,
    AdderTreeConfig,
    BatchNormParams,
    SfuParams,
    accumulate_bitplane,
    bank_execute,
    batchnorm,
    build_adder_tree,
    maxpool,
    quantize,
    relu,
    tree_reduce,
)
from .mapper import (
    LayerSpec,
    MappingPlan,
    NetworkDescription,
    conv_layer,
    footprint_bits,
    linear_layer,
    mac_size,
    map_network,
    num_macs,
    plan_residual,
    validate_plan,
)
from .timing import (
    LayerLatency,
    TimingParams,
    area_power_report,
    layer_latency,
    pipeline_schedule,
    precision_sweep,
    residual_overhead,
)
from .presets import preset

__version__ = "0.1.0"
