"""Cycle-counting simulator of the eight-state shared-bus inference machine.

States per window: (1) conv + ReLU once per CNN layer, at all L output
positions, since zero padding keeps the window length (`model.im2col`) at
any kernel width, (2) FC + residual add, (3) the four gate matrix products,
(4) sigmoid/tanh lookups, (5) cell-state update, (6) tanh of the cell, (7)
output-gate product, (8) output layer on the final window (otherwise loop
back). Cycles, MACs and memory traffic depend only on the network and
machine configurations, never on the data: the schedule is a per-window
table with one row per state visit (cycles, MACs, WB reads, IM reads and
writes in bits), built once per configuration pair. That table holds the
machine's one closed form per state; the report (its trace text,
per-sequence traffic and widest beats) and `state_cycle_cost` are folds
over its rows, and the banks only total what each run books. The MAC lanes
serve states 1-3, and state 3's four gate products share all of them.
State 8 books one cycle per output-layer MAC, n_hidden x n_classes at any
lane count. States 4-7 run on the elementwise datapath, one hidden unit
per cycle: n_hidden cycles at any lane count, so states 5 and 7 book no
MAC-lane work. The numeric result comes from the fixed-point engine,
`model.network_forward_fixed`, at the machine's activation format and LUT
size.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import estimate, fxp, model
from .fxp import QFormat
from .model import NetworkConfig
from .quant import QuantizedNetwork

__all__ = [
    "MachineConfig",
    "MemoryBanks",
    "CycleReport",
    "LatencyVerdict",
    "BankCapacityError",
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
        for key in ("mac_lanes", "wb_read_bits_per_cycle",
                    "im_bits_per_cycle", "wb_capacity_bits"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} = {getattr(self, key)}; at least 1")
        if self.lut_size < 2 or self.lut_size & (self.lut_size - 1):
            raise ValueError(f"lut_size = {self.lut_size}; a power of two, "
                             "at least 2")
        if not self.clock_hz >= 1.0:
            raise ValueError(f"clock_hz = {self.clock_hz}; the clock runs at "
                             "1 Hz or faster")
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


@dataclass
class MemoryBanks:
    """Weight banks (2-bit codes + fixed-point FC/output) and the IMs.

    The banks keep the traffic totals of every sequence run on them, in
    bits; `run_inference` books each run. The schedule's rows, not the
    banks, give the per-sequence traffic and the widest beats. `im` holds
    the logits of the last run.
    """

    qnet: QuantizedNetwork
    mc: MachineConfig
    im: dict = field(default_factory=dict)
    wb_bits_read: int = 0
    im_bits: int = 0

    def wb_read(self, bits: int) -> None:
        self.wb_bits_read += bits

    def im_read(self, bits: int) -> None:
        self.im_bits += bits

    im_write = im_read  # one IM port: a write books like a read


@dataclass
class CycleReport:
    """Cycles, MACs, the state trace, `trace_csv`, the `*_per_seq` traffic
    and the widest beats are per sequence, read off the schedule's rows; a
    beat is the largest transfer capped at its port's width. `wb_bits_read`
    and `im_bits_transferred` are the banks' totals over every sequence run
    on them. `trace_csv` is the text of `trace.csv`: one row per state
    visit, at the cycle the visit ends."""

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
    state_trace: tuple
    wb_bits_per_seq: int
    im_bits_per_seq: int
    im_bits_written_per_seq: int  # the share of `im_bits_per_seq` written
    trace_csv: str

    def summary(self) -> str:
        lines = ["per sequence", "state  cycles"]
        lines += [f"  {s + 1}    {int(c):,}"
                  for s, c in enumerate(self.cycles_per_state)]
        lines += [
            f"total cycles        {self.total_cycles:,}",
            f"latency             {_us(self.latency_seconds)} us",
            f"worst window        {_us(self.worst_window_latency_seconds)} us",
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


def _us(seconds: float) -> str:
    """Microseconds to 0.1 us, or to three significant digits where 0.1 us
    would print a nonzero time as 0.0."""
    us = seconds * 1e6
    return f"{us:.3g}" if 0 < us < 0.05 else f"{us:.1f}"


@dataclass
class LatencyVerdict:
    latency_seconds: float
    budget_seconds: float
    passed: bool
    margin: float


def _passes(products: int, lanes: int) -> int:
    """Lane-wide passes over `products`: an integer ceiling, so that any
    lane count, past float range too, still takes one pass."""
    return -(-products // lanes)


def state_cycle_cost(state: int, net: NetworkConfig, mc: MachineConfig) -> int:
    """Cycles of `state` in the final window, summed over its visits (state 8:
    the classify visit)."""
    if not 1 <= state <= 8:
        raise ValueError(f"no state {state}")
    # cycles do not depend on the weight width
    return sum(v.cycles for v in _window_visits(net, mc, 0, final=True)
               if v.state == state)


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
    """The state visits of one window, in order: each state's closed form."""
    act, lanes = mc.activation_format.total_bits, mc.mac_lanes
    n_h = net.n_hidden
    x, h = net.input_len * act, n_h * act
    # at each of the L output positions padding keeps, each filter's m*d
    # products in lane-wide passes, then the filters' ReLUs in lane-wide passes
    visits = [_Visit(1, net.window_len
                     * (filters * _passes(width * depth, lanes)
                        + _passes(filters, lanes)),
                     filters * width * net.window_len * depth,
                     (2 * filters * depth * width,), (),
                     (filters * net.window_len * act,), "MACs+NFs", f"conv{li}")
              for li, (depth, filters, width) in enumerate(net.conv_shapes())]
    if net.use_cnn:  # FC over the last layer's maps, then the residual add
        fc, maps = net.input_len * net.fc_input_len, net.fc_input_len * act
        visits.append(_Visit(2, _passes(fc, lanes), fc, (fc * weight_bits,),
                             (maps, x), (x,), "MACs", "fc+residual"))
    # the four gate products share every lane: per row of [h, x], their
    # 4*n_h columns in lane-wide passes
    gate = (n_h + net.input_len) * n_h
    out = n_h * net.n_classes
    visits += [_Visit(3, (n_h + net.input_len) * _passes(4 * n_h, lanes),
                      4 * gate, (2 * gate,) * 4, (), (), "MACs", "gates"),
               _Visit(4, n_h, 0, (), (), (h,) * 4, "NFs", "sigmoid+tanh"),
               _Visit(5, n_h, 0, (), (h,) * 3, (h,), "MACs", "cell-update"),
               _Visit(6, n_h, 0, (), (), (h,), "NFs", "tanh"),
               _Visit(7, n_h, 0, (), (h, h), (h,), "MACs", "hidden"),
               _Visit(8, out, out, (out * weight_bits,), (),
                      (net.n_classes * act,), "MACs", "classify") if final
               else _Visit(8, 0, 0, (), (), (), "MC", "loop")]
    # the window itself is written to the IM as the window opens
    visits[0] = visits[0]._replace(im_writes=(x,) + visits[0].im_writes)
    return visits


@lru_cache(maxsize=256)
def _schedule(net: NetworkConfig, mc: MachineConfig, weight_bits: int):
    """One sequence's report, folded from the per-window table: every window
    but the last loops back at state 8. The bank totals are 0 and the arrays
    read-only, so that every run can share the report."""
    last = _window_visits(net, mc, weight_bits, final=True)
    visits = (_window_visits(net, mc, weight_bits, final=False)
              * (net.n_steps - 1) + last)
    cycles = np.zeros(8, dtype=np.int64)
    rows, cycle_now = ["cycle,state,unit,op"], 0
    for v in visits:
        cycles[v.state - 1] += v.cycles
        cycle_now += v.cycles
        rows.append(f"{cycle_now},{v.state},{v.unit},{v.op}")
    cycles.flags.writeable = False
    total = int(cycles.sum())
    # the final window repeats the others and adds state 8's classify cost,
    # so its rows hold every transfer size of the sequence
    worst_window = sum(v.cycles for v in last)
    wb, im_read, im_written = (
        sum(sum(getattr(v, col)) for v in visits)
        for col in ("wb_reads", "im_reads", "im_writes"))
    return CycleReport(
        cycles, total, total / mc.clock_hz, worst_window,
        worst_window / mc.clock_hz, sum(v.macs for v in visits),
        estimate.mac_count(net, "window", "paper"), 0, 0,
        min(mc.wb_read_bits_per_cycle,
            max(b for v in last for b in v.wb_reads)),
        min(mc.im_bits_per_cycle,
            max(b for v in last for b in v.im_reads + v.im_writes)),
        tuple(v.state for v in visits), wb, im_read + im_written, im_written,
        "\n".join(rows) + "\n")


def run_inference(windows_raw, banks: MemoryBanks, net: NetworkConfig,
                  mc: MachineConfig):
    """Run raw windows, (n_steps, input_len) or (B, n_steps, input_len), on
    banks `load_banks` loaded for `mc`; another machine is a `ValueError`.

    Returns (prediction, CycleReport): the argmax of the final state-8 logits
    (ties to the lowest index), an int or a (B,) array; the logits also land
    in `banks.im["logits"]`. The run books n times the per-sequence traffic
    on the banks; the report is the schedule's, per sequence, with the
    banks' totals after the run.
    """
    # identity first: a caller that keeps one machine pays no comparison
    if mc is not banks.mc and mc != banks.mc:
        raise ValueError(f"the banks were loaded for {banks.mc}, not {mc}")
    logits = model.network_forward_fixed(
        windows_raw, banks.qnet, net, mc.activation_format, mc.lut_size)[..., -1, :]
    one = _schedule(net, mc, banks.qnet.weight_format.total_bits)
    n = 1 if logits.ndim == 1 else len(logits)
    banks.wb_read(n * one.wb_bits_per_seq)
    banks.im_read(n * (one.im_bits_per_seq - one.im_bits_written_per_seq))
    banks.im_write(n * one.im_bits_written_per_seq)
    banks.im["logits"] = logits
    report = replace(one, wb_bits_read=banks.wb_bits_read,
                     im_bits_transferred=banks.im_bits)
    preds = np.argmax(logits, axis=-1)
    return (int(preds) if logits.ndim == 1 else preds), report


def latency_report(report: CycleReport, budget_seconds: float) -> LatencyVerdict:
    """Compare the worst per-window latency against the real-time budget."""
    lat = report.worst_window_latency_seconds
    if budget_seconds <= 0 or lat <= 0:
        return LatencyVerdict(lat, budget_seconds, False, 0.0)
    margin = budget_seconds / lat
    return LatencyVerdict(lat, budget_seconds, lat < budget_seconds, margin)
