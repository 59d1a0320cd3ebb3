"""Functional and timing simulator for a bit-serial in-DRAM DNN accelerator."""

__version__ = "0.1.0"
