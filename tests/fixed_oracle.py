"""Scalar reference for the fixed-point engine, for tests only.

It runs the quantized network one value at a time in Python ints, with its
own scalar path: the quantizer `to_fixed`/`Fixed` (round half away from
zero, then saturate), the float-based table addressing `lut_index`, and its
own tables sampled with `math`. From `qcnnlstm.fxp` it takes only the types
and constants (`QFormat`, `LutTable`, `ACT_FORMAT`, `ENTRY_FORMAT`), so it
shares no code with `model.network_forward_fixed` or the vectorized `fxp`
primitives the engine uses, and a test that compares the two is not a
self-comparison. Meant for tiny networks: it is slow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from qcnnlstm.fxp import ACT_FORMAT, ENTRY_FORMAT, LutTable, QFormat
from qcnnlstm.quant import GATE_ORDER


@dataclass(frozen=True)
class Fixed:
    """One fixed-point scalar: raw two's-complement code plus its format."""

    raw: int
    fmt: QFormat = ACT_FORMAT

    def __post_init__(self):
        if not self.fmt.raw_min <= self.raw <= self.fmt.raw_max:
            raise ValueError(f"raw {self.raw} outside {self.fmt} range")

    @property
    def value(self) -> float:
        return self.raw / self.fmt.scale


def _round_half_away(x: float) -> int:
    return int(math.floor(abs(x) + 0.5)) * (1 if x >= 0 else -1)


def to_fixed(x: float, fmt: QFormat = ACT_FORMAT) -> Fixed:
    """Quantize a real scalar: round-half-away-from-zero, saturate at the bounds."""
    raw = _round_half_away(x * fmt.scale)
    return Fixed(min(max(raw, fmt.raw_min), fmt.raw_max), fmt)


def lut_index(u: Fixed, table: LutTable) -> int:
    """floor((u - u_min) / cell_width), clamped to the table."""
    idx = math.floor((u.value - table.u_min) / table.cell_width)
    return min(max(idx, 0), table.n_entries - 1)


def lut_eval(u: Fixed, table: LutTable) -> Fixed:
    """Table lookup; returns the stored entry in the entry format."""
    return Fixed(int(table.entries_raw[lut_index(u, table)]), ENTRY_FORMAT)


_FUNCS = {"sigmoid": (lambda u: 1.0 / (1.0 + math.exp(-u)), -8.0, 8.0),
          "tanh": (math.tanh, -4.0, 4.0)}
_TABLES: dict = {}


def _table(kind: str, size: int, fmt: QFormat):
    """(LutTable, entries requantized to `fmt` as Python ints)."""
    key = (kind, size, fmt)
    if key not in _TABLES:
        f, lo, hi = _FUNCS[kind]
        width = (hi - lo) / size
        entries = [to_fixed(f(lo + (i + 0.5) * width), ENTRY_FORMAT)
                   for i in range(size)]
        table = LutTable(kind, lo, hi, [e.raw for e in entries])
        _TABLES[key] = table, [to_fixed(e.value, fmt).raw for e in entries]
    return _TABLES[key]


def _ints(a):
    """Nested lists of Python ints from an array of integer values."""
    return [_ints(x) for x in a] if a.ndim > 1 else [int(v) for v in a]


def forward(windows_raw, qnet, cfg, fmt: QFormat = ACT_FORMAT,
            lut_size: int = 64) -> list:
    """Raw logits of every step, [n_steps][n_classes] Python ints."""
    frac = fmt.frac_bits

    def sat(n: int) -> int:
        return to_fixed(n / fmt.scale, fmt).raw

    def requant(n: int) -> int:
        # n sits at scale 2**-(2 * frac): round half away, then saturate
        return to_fixed(n / (1 << (2 * frac)), fmt).raw

    def lookup(kind: str, u: int) -> int:
        table, entries = _table(kind, lut_size, fmt)
        return entries[lut_index(Fixed(u, fmt), table)]

    def dot(x, w_rows):
        return [sum(a * b for a, b in zip(x, row)) for row in w_rows]

    conv = [_ints(codes) for codes in qnet.conv_codes]
    fc = None if qnet.fc_raw is None else _ints(qnet.fc_raw)
    gates = {g: _ints(qnet.gate_codes[g].T) for g in GATE_ORDER}
    out_w = _ints(qnet.logits_raw.T)
    n_h, width = cfg.n_hidden, cfg.window_len
    h, c = [0] * n_h, [0] * n_h
    logits = []
    for window in windows_raw:
        x = _ints(window)
        v = x
        if cfg.use_cnn:
            maps = [x[ch * width:(ch + 1) * width]
                    for ch in range(cfg.n_channels)]
            for codes in conv:
                m = len(codes[0][0])
                left = (m - 1) // 2
                maps = [[sat(max(0, sum(
                    taps[a] * row[pos + a - left]
                    for taps, row in zip(filt, maps) for a in range(m)
                    if 0 <= pos + a - left < width)))
                    for pos in range(width)] for filt in codes]
            flat = [val for row in maps for val in row]
            p = [requant(acc) for acc in dot(flat, fc)]
            v = [sat(a + b) for a, b in zip(x, p)]
        pre = {g: [sat(acc) for acc in dot(h + v, rows)]
               for g, rows in gates.items()}
        g_f, g_i, g_o = ([lookup("sigmoid", u) for u in pre[g]]
                         for g in ("forget", "input", "output"))
        g_c = [lookup("tanh", u) for u in pre["cell"]]
        c = [requant(f * ci + gc * gi)
             for f, ci, gc, gi in zip(g_f, c, g_c, g_i)]
        h = [requant(o * lookup("tanh", ci)) for o, ci in zip(g_o, c)]
        logits.append([requant(acc) for acc in dot(h, out_w)])
    return logits


def predict(logits_per_step) -> int:
    """Argmax of the final step, ties to the lowest index."""
    last = logits_per_step[-1]
    return last.index(max(last))
