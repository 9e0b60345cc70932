"""Cycle-counting simulator of the eight-state shared-bus inference machine.

States per window: (1) conv + ReLU once per CNN layer, (2) FC + residual add,
(3) the four gate matrix products, (4) sigmoid/tanh lookups, (5) cell-state
update, (6) tanh of the cell, (7) output-gate product, (8) output layer on
the final window (otherwise loop back). Cycles, MACs and memory traffic
depend only on the network and machine configurations, never on the data:
the simulator replays the state sequence once per configuration pair to
build that schedule, and takes the numeric result from the fixed-point
engine, `model.network_forward_fixed`, at the machine's activation format
and LUT size.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import ceil
from pathlib import Path

import numpy as np

from . import fxp
from .fxp import QFormat
from .model import NetworkConfig, network_forward_fixed
from .quant import QuantizedNetwork

__all__ = [
    "MachineConfig",
    "MemoryBanks",
    "CycleReport",
    "LatencyVerdict",
    "BankCapacityError",
    "conv_layer_cycles",
    "relu_overhead_cycles",
    "state_cycle_cost",
    "load_banks",
    "run_inference",
    "latency_report",
]


class BankCapacityError(RuntimeError):
    pass


@dataclass(frozen=True)
class MachineConfig:
    mac_lanes: int = 32
    bus_bits: int = 96
    wb_read_bits_per_cycle: int = 64
    im_bits_per_cycle: int = 48
    lut_size: int = fxp.LUT_SIZE
    clock_hz: float = 1e8
    activation_format: QFormat = fxp.ACT_FORMAT
    wb_capacity_bits: int = 16_020_000  # block-RAM budget of the target part
    im_capacity_bits: int = 1_000_000

    def __post_init__(self):
        if min(self.mac_lanes, self.bus_bits, self.wb_read_bits_per_cycle,
               self.im_bits_per_cycle, self.lut_size) < 1 or self.clock_hz <= 0:
            raise ValueError("machine parameters must be positive")
        if self.lut_size & (self.lut_size - 1):
            raise ValueError("lut_size must be a power of two")

    @property
    def lanes_per_gate(self) -> int:
        # the 32 MAC lanes are split across the four concurrent gate products
        return max(1, self.mac_lanes // 4)


@dataclass
class MemoryBanks:
    """Weight banks (2-bit codes + fixed-point FC/output) and the IMs.

    Reads and writes are issued in beats no wider than the per-cycle caps,
    and IM values are as wide as the activation format; totals and the
    widest observed beat are recorded for the bandwidth invariants. The
    totals are cumulative over every sequence run on these banks.
    """

    qnet: QuantizedNetwork | None
    mc: MachineConfig
    im: dict = field(default_factory=dict)
    wb_bits_read: int = 0
    im_bits: int = 0
    max_wb_beat: int = 0
    max_im_beat: int = 0

    def wb_read(self, n_values: int, bits_per_value: int) -> None:
        self._beats("wb", n_values * bits_per_value)

    def im_write(self, name: str, values: np.ndarray) -> None:
        self.im[name] = values
        self._beats("im", values.size * self.mc.activation_format.total_bits)

    def im_read(self, name: str) -> np.ndarray:
        values = self.im[name]
        self._beats("im", values.size * self.mc.activation_format.total_bits)
        return values

    def _beats(self, port: str, total_bits: int) -> None:
        if total_bits <= 0:
            return
        cap = self.mc.wb_read_bits_per_cycle if port == "wb" \
            else self.mc.im_bits_per_cycle
        n_full, rem = divmod(total_bits, cap)
        widest = cap if n_full else rem
        if port == "wb":
            self.wb_bits_read += total_bits
            self.max_wb_beat = max(self.max_wb_beat, widest)
        else:
            self.im_bits += total_bits
            self.max_im_beat = max(self.max_im_beat, widest)

    def add_traffic(self, other: "MemoryBanks", times: int) -> None:
        """Book `times` repeats of the traffic recorded on `other`."""
        self.wb_bits_read += times * other.wb_bits_read
        self.im_bits += times * other.im_bits
        self.max_wb_beat = max(self.max_wb_beat, other.max_wb_beat)
        self.max_im_beat = max(self.max_im_beat, other.max_im_beat)


@dataclass
class CycleReport:
    """Cycles, MACs, the state trace and `*_per_seq` traffic are per sequence;
    `wb_bits_read`, `im_bits_transferred` and the beat maxima are the banks'
    cumulative counters over every sequence run on them."""

    cycles_per_state: np.ndarray
    total_cycles: int
    latency_seconds: float
    worst_window_cycles: int
    worst_window_latency_seconds: float
    executed_macs: int
    paper_macs: int
    wb_bits_read: int
    im_bits_transferred: int
    max_wb_beat_bits: int
    max_im_beat_bits: int
    state_trace: list
    wb_bits_per_seq: int
    im_bits_per_seq: int

    def summary(self) -> str:
        lines = ["per sequence", "state  cycles"]
        lines += [f"  {s + 1}    {int(c):,}"
                  for s, c in enumerate(self.cycles_per_state)]
        lines += [
            f"total cycles        {self.total_cycles:,}",
            f"latency             {self.latency_seconds * 1e6:.1f} us",
            f"worst window        {self.worst_window_latency_seconds * 1e6:.1f} us",
            f"executed MACs       {self.executed_macs:,}",
            f"paper-variant MACs  {self.paper_macs:,} per window",
            f"WB bits read        {self.wb_bits_per_seq:,}",
            f"IM bits transferred {self.im_bits_per_seq:,}",
            "all sequences run on these banks",
            f"WB bits read        {self.wb_bits_read:,}",
            f"IM bits transferred {self.im_bits_transferred:,}",
        ]
        return "\n".join(lines)

    def csv(self) -> str:
        """One row: per-sequence cycles, MACs and bank traffic, then the
        banks' traffic over all sequences (`*_all_seqs`)."""
        head = ",".join(f"state{s+1}_cycles" for s in range(8))
        vals = ",".join(str(int(c)) for c in self.cycles_per_state)
        return (f"{head},total_cycles,latency_seconds,executed_macs,"
                f"wb_bits_per_seq,im_bits_per_seq,"
                f"wb_bits_read_all_seqs,im_bits_transferred_all_seqs\n"
                f"{vals},{self.total_cycles},{self.latency_seconds!r},"
                f"{self.executed_macs},{self.wb_bits_per_seq},"
                f"{self.im_bits_per_seq},{self.wb_bits_read},"
                f"{self.im_bits_transferred}\n")


@dataclass
class LatencyVerdict:
    latency_seconds: float
    budget_seconds: float
    passed: bool
    margin: float


def conv_layer_cycles(length: int, width: int, filters: int,
                      lanes: int, depth: int = 1) -> int:
    """(L - m + 1) * f * ceil(m*d / lanes) cycles for one convolution layer."""
    return (length - width + 1) * filters * ceil(width * depth / lanes)


def relu_overhead_cycles(length: int, width: int, filters: int,
                         lanes: int) -> int:
    return (length - width + 1) * ceil(filters / lanes)


def state_cycle_cost(state: int, net: NetworkConfig, mc: MachineConfig) -> int:
    """Cycle cost of one visit to `state` (state 8: the final-window visit)."""
    if state == 1:
        total = 0
        for depth, filters, width in net.conv_shapes():
            total += conv_layer_cycles(net.window_len, width, filters,
                                       mc.mac_lanes, depth)
            total += relu_overhead_cycles(net.window_len, width, filters,
                                          mc.mac_lanes)
        return total
    if state == 2:
        if not net.use_cnn:
            return 0
        return ceil(net.fc_input_len * net.input_len / mc.mac_lanes)
    if state == 3:
        return (net.n_hidden + net.input_len) * ceil(net.n_hidden
                                                     / mc.lanes_per_gate)
    if state in (4, 5, 6, 7):
        return net.n_hidden
    if state == 8:
        return net.n_hidden * net.n_classes
    raise ValueError(f"no state {state}")


def load_banks(qnet: QuantizedNetwork, mc: MachineConfig) -> MemoryBanks:
    bits = qnet.weight_bits()
    if bits > mc.wb_capacity_bits:
        raise BankCapacityError(f"weights need {bits} bits, "
                                f"WB capacity is {mc.wb_capacity_bits}")
    return MemoryBanks(qnet, mc)


@lru_cache(maxsize=256)
def _schedule(net: NetworkConfig, mc: MachineConfig, weight_bits: int):
    """One sequence's (report, bank traffic, trace text): data-independent."""
    banks = MemoryBanks(None, mc)  # IM values written are size-only zeros
    cycles = np.zeros(8, dtype=np.int64)
    state_trace, rows = [], ["cycle,state,unit,op"]
    macs = worst_window = cycle_now = 0

    def book(state, n_cycles, unit, op):
        nonlocal cycle_now
        cycles[state - 1] += n_cycles
        cycle_now += n_cycles
        state_trace.append(state)
        rows.append(f"{cycle_now},{state},{unit},{op}")

    gate_size = (net.n_hidden + net.input_len) * net.n_hidden
    for step in range(net.n_steps):
        window_start = cycle_now
        banks.im_write("window", np.zeros(net.input_len))
        if net.use_cnn:
            # State 1, visited once per CNN layer
            for li, (depth, filters, width) in enumerate(net.conv_shapes()):
                banks.wb_read(filters * depth * width, 2)
                banks.im_write(f"maps{li}", np.zeros(filters * net.window_len))
                macs += filters * width * net.window_len * depth
                n_cyc = conv_layer_cycles(net.window_len, width, filters,
                                          mc.mac_lanes, depth) \
                    + relu_overhead_cycles(net.window_len, width, filters,
                                           mc.mac_lanes)
                book(1, n_cyc, "MACs+NFs", f"conv{li}")

            # State 2: FC product and residual add
            fc_size = net.input_len * net.fc_input_len
            banks.wb_read(fc_size, weight_bits)
            banks.im_read(f"maps{len(net.conv_layers) - 1}")
            if net.residual:
                banks.im_read("window")
            banks.im_write("residual", np.zeros(net.input_len))
            macs += fc_size
            book(2, state_cycle_cost(2, net, mc), "MACs", "fc+residual")

        # State 3: the four gate products share the MAC array
        for _ in range(4):
            banks.wb_read(gate_size, 2)
        macs += 4 * gate_size
        book(3, state_cycle_cost(3, net, mc), "MACs", "gates")

        # State 4: LUT nonlinearities on the gate pre-activations
        for name in ("g_forget", "g_input", "g_output", "g_cell"):
            banks.im_write(name, np.zeros(net.n_hidden))
        book(4, state_cycle_cost(4, net, mc), "NFs", "sigmoid+tanh")

        # State 5: cell update with the two embedded multipliers
        for name in ("g_forget", "g_cell", "g_input"):
            banks.im_read(name)
        banks.im_write("cell", np.zeros(net.n_hidden))
        book(5, state_cycle_cost(5, net, mc), "MACs", "cell-update")

        # State 6: tanh of the new cell state
        banks.im_write("tanh_cell", np.zeros(net.n_hidden))
        book(6, state_cycle_cost(6, net, mc), "NFs", "tanh")

        # State 7: output-gate product forms the hidden state
        banks.im_read("g_output")
        banks.im_read("tanh_cell")
        banks.im_write("hidden", np.zeros(net.n_hidden))
        book(7, state_cycle_cost(7, net, mc), "MACs", "hidden")

        # State 8: classify on the final window, otherwise loop to state 1
        if step == net.n_steps - 1:
            banks.wb_read(net.n_hidden * net.n_classes, weight_bits)
            banks.im_write("logits", np.zeros(net.n_classes))
            macs += net.n_hidden * net.n_classes
            book(8, state_cycle_cost(8, net, mc), "MACs", "classify")
        else:
            book(8, 0, "MC", "loop")
        worst_window = max(worst_window, cycle_now - window_start)

    total = int(cycles.sum())
    report = CycleReport(
        cycles, total, total / mc.clock_hz, worst_window,
        worst_window / mc.clock_hz, macs,
        (net.input_len + net.n_hidden) * net.n_hidden, banks.wb_bits_read,
        banks.im_bits, banks.max_wb_beat, banks.max_im_beat, state_trace,
        banks.wb_bits_read, banks.im_bits)
    return report, banks, "\n".join(rows) + "\n"


def run_inference(windows_raw, banks: MemoryBanks, net: NetworkConfig,
                  mc: MachineConfig, trace_path=None):
    """Run raw windows, (n_steps, input_len) or (B, n_steps, input_len).

    Returns (prediction, CycleReport): the argmax of the final state-8 logits
    (ties to the lowest index), an int or a (B,) array; the logits also land
    in `banks.im["logits"]`. Cycles, MACs, the state trace (and trace file)
    and `*_per_seq` traffic are per sequence; bank totals are the banks'
    cumulative counters.
    """
    logits = network_forward_fixed(windows_raw, banks.qnet, net,
                                   mc.activation_format, mc.lut_size)[..., -1, :]
    one, traffic, trace = _schedule(net, mc,
                                    banks.qnet.weight_format.total_bits)
    banks.add_traffic(traffic, 1 if logits.ndim == 1 else len(logits))
    banks.im["logits"] = logits
    report = replace(one, cycles_per_state=one.cycles_per_state.copy(),
                     state_trace=list(one.state_trace),
                     wb_bits_read=banks.wb_bits_read,
                     im_bits_transferred=banks.im_bits,
                     max_wb_beat_bits=banks.max_wb_beat,
                     max_im_beat_bits=banks.max_im_beat)
    if trace_path is not None:
        Path(trace_path).write_text(trace)
    preds = np.argmax(logits, axis=-1)
    return (int(preds) if logits.ndim == 1 else preds), report


def latency_report(report: CycleReport, budget_seconds: float) -> LatencyVerdict:
    """Compare the worst per-window latency against the real-time budget."""
    lat = report.worst_window_latency_seconds
    if budget_seconds <= 0 or lat <= 0:
        return LatencyVerdict(lat, budget_seconds, False, 0.0)
    margin = budget_seconds / lat
    return LatencyVerdict(lat, budget_seconds, lat < budget_seconds, margin)
