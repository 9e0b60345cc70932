"""Cycle-counting simulator of the eight-state shared-bus inference machine.

States per window: (1) conv + ReLU once per CNN layer, (2) FC + residual add,
(3) the four gate matrix products, (4) sigmoid/tanh lookups, (5) cell-state
update, (6) tanh of the cell, (7) output-gate product, (8) output layer on
the final window (otherwise loop back). Cycles, MACs and memory traffic
depend only on the network and machine configurations, never on the data:
the schedule is a per-window table with one row per state visit (cycles,
MACs, WB reads, IM reads and writes in bits), built from closed forms once
per configuration pair. The report, the trace file and the bank traffic are
folds over its rows. The numeric result comes from the fixed-point engine,
`model.network_forward_fixed`, at the machine's activation format and LUT
size.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import ceil
from pathlib import Path

import numpy as np

from . import fxp, model
from .fxp import QFormat
from .model import NetworkConfig
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
    wb_read_bits_per_cycle: int = 64
    im_bits_per_cycle: int = 48
    lut_size: int = fxp.LUT_SIZE
    clock_hz: float = 1e8
    activation_format: QFormat = fxp.ACT_FORMAT
    wb_capacity_bits: int = 16_020_000  # block-RAM budget of the target part

    def __post_init__(self):
        if min(self.mac_lanes, self.wb_read_bits_per_cycle,
               self.im_bits_per_cycle, self.lut_size) < 1:
            raise ValueError("machine parameters must be positive")
        if not self.clock_hz >= 1.0:
            raise ValueError(f"clock_hz = {self.clock_hz}; the clock runs at "
                             "1 Hz or faster")
        if self.lut_size & (self.lut_size - 1):
            raise ValueError("lut_size must be a power of two")
        if self.activation_format.total_bits > fxp.DIRECT_LUT_MAX_BITS:
            raise ValueError(f"activation_format {self.activation_format} is "
                             f"wider than {fxp.DIRECT_LUT_MAX_BITS} bits, the "
                             "widest with direct-address tables")
        # checked here, before any table of that size is built
        finest = fxp.max_lut_size(self.activation_format)
        if self.lut_size > finest:
            raise ValueError(f"lut_size = {self.lut_size} cuts cells finer "
                             f"than one {self.activation_format} code; at "
                             f"most {finest}")

    @property
    def lanes_per_gate(self) -> int:
        # the 32 MAC lanes are split across the four concurrent gate products
        return max(1, self.mac_lanes // 4)


@dataclass
class MemoryBanks:
    """Weight banks (2-bit codes + fixed-point FC/output) and the IMs.

    The schedule books each transfer by its size in bits; transfers are
    issued in beats no wider than the per-cycle caps, and the totals and the
    widest beat are kept for the bandwidth invariants. The totals are
    cumulative over every sequence run on these banks. `im` holds the
    logits of the last run.
    """

    qnet: QuantizedNetwork | None
    mc: MachineConfig
    im: dict = field(default_factory=dict)
    wb_bits_read: int = 0
    im_bits: int = 0
    max_wb_beat: int = 0
    max_im_beat: int = 0

    def wb_read(self, bits: int) -> None:
        self.wb_bits_read += bits
        self.max_wb_beat = max(self.max_wb_beat,
                               min(bits, self.mc.wb_read_bits_per_cycle))

    def im_read(self, bits: int) -> None:
        self.im_bits += bits
        self.max_im_beat = max(self.max_im_beat,
                               min(bits, self.mc.im_bits_per_cycle))

    im_write = im_read  # one IM port: a write books like a read

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


def _positions(length: int, width: int) -> int:
    """L - m + 1 output positions of a width-m kernel over length L."""
    if width > length:
        raise ValueError(f"a width-{width} kernel does not fit a "
                         f"length-{length} window")
    return length - width + 1


def conv_layer_cycles(length: int, width: int, filters: int,
                      lanes: int, depth: int = 1) -> int:
    """(L - m + 1) * f * ceil(m*d / lanes) cycles for one convolution layer."""
    return _positions(length, width) * filters * ceil(width * depth / lanes)


def relu_overhead_cycles(length: int, width: int, filters: int,
                         lanes: int) -> int:
    return _positions(length, width) * ceil(filters / lanes)


def _conv_visit_cycles(net: NetworkConfig, mc: MachineConfig, depth: int,
                       filters: int, width: int) -> int:
    """One state-1 visit: a conv layer and its ReLU."""
    return (conv_layer_cycles(net.window_len, width, filters, mc.mac_lanes,
                              depth)
            + relu_overhead_cycles(net.window_len, width, filters,
                                   mc.mac_lanes))


def state_cycle_cost(state: int, net: NetworkConfig, mc: MachineConfig) -> int:
    """Cycle cost of `state` in one window (state 8: the final-window visit)."""
    if state == 1:
        return sum(_conv_visit_cycles(net, mc, *shape)
                   for shape in net.conv_shapes())
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


#: One state visit of the schedule; each WB/IM transfer is one size in bits.
_Visit = namedtuple("_Visit", "state cycles macs wb_reads im_reads im_writes "
                              "unit op")


def _window_visits(net: NetworkConfig, mc: MachineConfig, weight_bits: int,
                   final: bool) -> list:
    """The state visits of one window, in order, from closed forms."""
    act = mc.activation_format.total_bits
    x, h = net.input_len * act, net.n_hidden * act
    visits = [_Visit(1, _conv_visit_cycles(net, mc, depth, filters, width),
                     filters * width * net.window_len * depth,
                     (2 * filters * depth * width,), (),
                     (filters * net.window_len * act,), "MACs+NFs", f"conv{li}")
              for li, (depth, filters, width) in enumerate(net.conv_shapes())]
    if net.use_cnn:  # FC over the last layer's maps, then the residual add
        fc, maps = net.input_len * net.fc_input_len, net.fc_input_len * act
        visits.append(_Visit(2, state_cycle_cost(2, net, mc), fc,
                             (fc * weight_bits,),
                             (maps, x) if net.residual else (maps,), (x,),
                             "MACs", "fc+residual"))
    gate = (net.n_hidden + net.input_len) * net.n_hidden
    out = net.n_hidden * net.n_classes
    cost = {state: state_cycle_cost(state, net, mc) for state in range(3, 9)}
    visits += [_Visit(3, cost[3], 4 * gate, (2 * gate,) * 4, (), (), "MACs",
                      "gates"),
               _Visit(4, cost[4], 0, (), (), (h,) * 4, "NFs", "sigmoid+tanh"),
               _Visit(5, cost[5], 0, (), (h,) * 3, (h,), "MACs", "cell-update"),
               _Visit(6, cost[6], 0, (), (), (h,), "NFs", "tanh"),
               _Visit(7, cost[7], 0, (), (h, h), (h,), "MACs", "hidden"),
               _Visit(8, cost[8], out, (out * weight_bits,), (),
                      (net.n_classes * act,), "MACs", "classify") if final
               else _Visit(8, 0, 0, (), (), (), "MC", "loop")]
    # the window itself is written to the IM as the window opens
    visits[0] = visits[0]._replace(im_writes=(x,) + visits[0].im_writes)
    return visits


@lru_cache(maxsize=256)
def _schedule(net: NetworkConfig, mc: MachineConfig, weight_bits: int):
    """One sequence's (report, bank traffic, trace text), folded from the
    per-window table: every window but the last loops back at state 8."""
    last = _window_visits(net, mc, weight_bits, final=True)
    visits = (_window_visits(net, mc, weight_bits, final=False)
              * (net.n_steps - 1) + last)
    banks = MemoryBanks(None, mc)
    cycles = np.zeros(8, dtype=np.int64)
    rows, cycle_now = ["cycle,state,unit,op"], 0
    for v in visits:
        cycles[v.state - 1] += v.cycles
        cycle_now += v.cycles
        rows.append(f"{cycle_now},{v.state},{v.unit},{v.op}")
        for bits in v.wb_reads:
            banks.wb_read(bits)
        for bits in v.im_reads:
            banks.im_read(bits)
        for bits in v.im_writes:
            banks.im_write(bits)
    total = int(cycles.sum())
    # the final window repeats the others and adds state 8's classify cost
    worst_window = sum(v.cycles for v in last)
    report = CycleReport(
        cycles, total, total / mc.clock_hz, worst_window,
        worst_window / mc.clock_hz, sum(v.macs for v in visits),
        (net.input_len + net.n_hidden) * net.n_hidden, banks.wb_bits_read,
        banks.im_bits, banks.max_wb_beat, banks.max_im_beat,
        [v.state for v in visits], banks.wb_bits_read, banks.im_bits)
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
    logits = model.network_forward_fixed(
        windows_raw, banks.qnet, net, mc.activation_format, mc.lut_size)[..., -1, :]
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
