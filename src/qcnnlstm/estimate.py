"""Analytic memory-footprint, MAC-count, and response-time estimators.

Two MAC variants are first-class: the "paper" count is the conventional
single-gate matrix product per window used for benchmark sizing (~220 K for
the DB-a gesture configuration); the "true" count multiplies the gate term
by four and adds CNN, FC, and output layer work, matching exactly what the
cycle simulator executes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .model import NetworkConfig

__all__ = [
    "CostModelInput",
    "cnn_weight_count",
    "lstm_weight_count",
    "memory_bits",
    "mac_count",
    "response_time",
    "estimate_table",
]

PRECISIONS = ("full32", "ternary2")

FULL_WEIGHT_BITS = 32
TERNARY_WEIGHT_BITS = 2
FIXED_WEIGHT_BITS = 12
INTERMEDIATE_BITS = 12
RATED_GOPS = 6.3  # the accelerator's rated giga-operations per second


@dataclass(frozen=True)
class CostModelInput:
    net: NetworkConfig
    precision: str = "full32"

    def __post_init__(self):
        if self.precision not in PRECISIONS:
            raise ValueError(f"unknown precision {self.precision!r}")


def cnn_weight_count(input_depth: int, width: int, filters: int) -> int:
    """Weights in one convolution layer: depth x width x filters."""
    if min(input_depth, width, filters) < 1:
        raise ValueError("arguments must be positive")
    return input_depth * width * filters


def lstm_weight_count(n_hidden: int, input_len: int) -> int:
    """Gate weights: 4 x (n_hidden + input_len) x n_hidden."""
    if min(n_hidden, input_len) < 1:
        raise ValueError("arguments must be positive")
    return 4 * (n_hidden + input_len) * n_hidden


def memory_bits(inp: CostModelInput) -> int:
    """Stored weight bits plus the 12-bit intermediate buffers."""
    net = inp.net
    if inp.precision == "full32":
        gate_bits = fc_bits = FULL_WEIGHT_BITS
    else:
        gate_bits, fc_bits = TERNARY_WEIGHT_BITS, FIXED_WEIGHT_BITS

    total = lstm_weight_count(net.n_hidden, net.input_len) * gate_bits
    largest_map = 0
    for depth, filters, width in net.conv_shapes():
        total += cnn_weight_count(depth, width, filters) * gate_bits
        # padding keeps each map at the window length
        largest_map = max(largest_map, filters * net.window_len)
    if net.use_cnn:
        total += net.fc_input_len * net.input_len * fc_bits
    total += net.n_hidden * net.n_classes * fc_bits
    total += net.n_steps * (largest_map + 2 * net.n_hidden) * INTERMEDIATE_BITS
    return total


def mac_count(net: NetworkConfig, per: str = "window",
              variant: str = "paper") -> int:
    """MAC operations per window or per full q-step sequence.

    paper: (channels*window + n_hidden) * n_hidden, single gate product.
    true:  4 gate products + CNN + FC per window, plus the output layer
           once per sequence.
    """
    if per not in ("window", "sequence"):
        raise ValueError("per must be 'window' or 'sequence'")
    if variant not in ("paper", "true"):
        raise ValueError("variant must be 'paper' or 'true'")
    if variant == "paper":
        per_window = (net.input_len + net.n_hidden) * net.n_hidden
        return per_window if per == "window" else per_window * net.n_steps

    per_window = 4 * (net.input_len + net.n_hidden) * net.n_hidden
    for depth, filters, width in net.conv_shapes():
        per_window += filters * width * net.window_len * depth
    if net.use_cnn:
        per_window += net.fc_input_len * net.input_len
    if per == "window":
        return per_window
    return per_window * net.n_steps + net.n_hidden * net.n_classes


def response_time(macs: int, gops: float) -> float:
    """Seconds to execute `macs` operations at `gops` giga-ops per second."""
    if gops <= 0:
        raise ValueError("gops must be positive")
    return macs / (gops * 1e9)


def estimate_table(net: NetworkConfig) -> str:
    """Memory Mb and true MACs M at full (FP) and ternary (T) precision: the
    network without its CNN, then, if it has one, with it."""
    rows = []
    for name, n in (("LSTM", replace(net, use_cnn=False)),
                    ("CNN-LSTM", net))[:1 + net.use_cnn]:
        for label, precision in (("FP", "full32"), ("T", "ternary2")):
            mem = memory_bits(CostModelInput(n, precision)) / 1e6
            macs = mac_count(n, "sequence", "true") / 1e6
            rows.append(f"{f'{label}-{name}':<12s} memory {mem:7.2f} Mb   "
                        f"true MACs {macs:6.2f} M")
    paper = mac_count(net, "window", "paper")
    rows.append(f"paper-variant MACs per window (LSTM): {paper:,}")
    return "\n".join(rows)
