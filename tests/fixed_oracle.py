"""Scalar reference for the fixed-point engine, for tests only.

It runs the quantized network one value at a time in Python ints, quantizes
through the scalar `fxp.to_fixed`/`Fixed`, addresses tables with the
float-based `fxp.lut_index`, reads the per-gate code views, and samples its
own tables with `math`. It shares no code with `model.network_forward_fixed`
or the vectorized `fxp` primitives the engine uses, so a test that compares
the two is not a self-comparison. Meant for tiny networks: it is slow.
"""

from __future__ import annotations

import math

from qcnnlstm import fxp
from qcnnlstm.quant import GATE_ORDER

_FUNCS = {"sigmoid": (lambda u: 1.0 / (1.0 + math.exp(-u)), -8.0, 8.0),
          "tanh": (math.tanh, -4.0, 4.0)}
_TABLES: dict = {}


def _table(kind: str, size: int, fmt: fxp.QFormat):
    """(LutTable, entries requantized to `fmt` as Python ints)."""
    key = (kind, size, fmt)
    if key not in _TABLES:
        f, lo, hi = _FUNCS[kind]
        width = (hi - lo) / size
        entries = [fxp.to_fixed(f(lo + (i + 0.5) * width), fxp.ENTRY_FORMAT)
                   for i in range(size)]
        table = fxp.LutTable(kind, lo, hi, [e.raw for e in entries])
        _TABLES[key] = table, [fxp.to_fixed(e.value, fmt).raw for e in entries]
    return _TABLES[key]


def _ints(a):
    """Nested lists of Python ints from an array of integer values."""
    return [_ints(x) for x in a] if a.ndim > 1 else [int(v) for v in a]


def forward(windows_raw, qnet, cfg, fmt: fxp.QFormat = fxp.ACT_FORMAT,
            lut_size: int = 64) -> list:
    """Raw logits of every step, [n_steps][n_classes] Python ints."""
    frac = fmt.frac_bits

    def sat(n: int) -> int:
        return fxp.to_fixed(n / fmt.scale, fmt).raw

    def requant(n: int) -> int:
        # n sits at scale 2**-(2 * frac): round half away, then saturate
        return fxp.to_fixed(n / (1 << (2 * frac)), fmt).raw

    def lookup(kind: str, u: int) -> int:
        table, entries = _table(kind, lut_size, fmt)
        return entries[fxp.lut_index(fxp.Fixed(u, fmt), table)]

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
            v = [sat(a + b) for a, b in zip(x, p)] if cfg.residual else p
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
