"""Binary/ternary weight quantizers, straight-through gradients, 2-bit packing.

Training keeps full-precision shadow weights; forward passes read the
quantized codes. Only the LSTM gate matrices and CNN kernels are quantized:
the fully connected layers keep 12-bit fixed-point values in hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fxp
from .fxp import QFormat

__all__ = [
    "quantize_binary",
    "quantize_ternary",
    "quantize_weights",
    "ste_backward",
    "pack_codes",
    "unpack_codes",
    "QuantizedNetwork",
]

MODES = ("full", "binary", "ternary")
GATE_ORDER = ("forget", "input", "output", "cell")


def quantize_binary(r, out=None):
    """sign(r) with sign(0) = +1, written to `out` when given."""
    r = np.asarray(r, dtype=np.float64)
    q = np.greater_equal(r, 0.0, out=np.empty_like(r) if out is None else out)
    q *= 2.0
    q -= 1.0
    return q


def quantize_ternary(r, out=None):
    """round(r) with halves away from zero: thresholds at +-0.5. Written to
    `out` when given."""
    r = np.asarray(r, dtype=np.float64)
    # the steps below reuse this buffer
    q = np.abs(r, out=np.empty_like(r) if out is None else out)
    q += 0.5
    np.floor(q, out=q)
    return np.copysign(q, r, out=q)


def quantize_weights(r, mode: str, out=None):
    """The `mode` codes of `r`; binary and ternary codes go to `out` when given."""
    if mode == "full":
        return np.asarray(r, dtype=np.float64)
    if mode == "binary":
        return quantize_binary(r, out)
    if mode == "ternary":
        return quantize_ternary(r, out)
    raise ValueError(f"unknown quantization mode {mode!r}")


def ste_backward(g_q, r):
    """Straight-through estimator: pass the gradient where |r| <= 1, else 0.

    When every r is in range, which the trainer's clamp keeps after the first
    update, `g_q` itself is returned; one min and one max decide it.
    """
    g_q = np.asarray(g_q, dtype=np.float64)
    r = np.asarray(r)
    if g_q.shape == r.shape and r.size and r.min() >= -1.0 and r.max() <= 1.0:
        return g_q
    return np.where((r >= -1.0) & (r <= 1.0), g_q, 0.0)


# ---------------------------------------------------------------------------
# 2-bit packing: 4 codes per byte, little-endian within the byte,
# two's-complement 2-bit fields (-1 -> 0b11, 0 -> 0b00, +1 -> 0b01).
# ---------------------------------------------------------------------------

def pack_codes(codes) -> bytes:
    codes = np.asarray(codes, dtype=np.int64).ravel()
    if not np.isin(codes, (-1, 0, 1)).all():
        raise ValueError("codes must be in {-1, 0, +1}")
    fields = (codes & 0b11).astype(np.uint8)
    pad = (-len(fields)) % 4
    fields = np.concatenate([fields, np.zeros(pad, dtype=np.uint8)])
    fields = fields.reshape(-1, 4)
    packed = (fields[:, 0] | (fields[:, 1] << 2) | (fields[:, 2] << 4)
              | (fields[:, 3] << 6))
    return packed.astype(np.uint8).tobytes()


def unpack_codes(buf: bytes, shape) -> np.ndarray:
    n = int(np.prod(shape))
    packed = np.frombuffer(buf, dtype=np.uint8)
    fields = np.stack([(packed >> (2 * k)) & 0b11 for k in range(4)], axis=1)
    codes = fields.ravel()[:n].astype(np.int64)
    codes[codes == 0b11] = -1
    if (codes > 1).any():
        raise ValueError("invalid 2-bit code 0b10 in packed buffer")
    return codes.reshape(shape)


@dataclass
class QuantizedNetwork:
    """Hardware-ready weights: 2-bit codes for gates/CNN, fixed-point for FC.

    Integer values stored once, in the float type the engine multiplies them
    in. The codes in {-1, 0, +1} are float32, which the fixed-point engine
    multiplies in directly wherever the fan-in keeps the products exact
    there (see `fxp._exact_product`); a wider product upcasts them on the
    fly. `conv_codes` holds one (filters, depth, width) array per CNN layer;
    `gates` fuses the (n_hidden + input_len, n_hidden) gate matrices in
    `GATE_ORDER` and `gate_codes` maps each gate name to its column view.
    `fc_raw` / `logits_raw` are raw fixed-point codes in `weight_format`,
    float64: their 12x12-bit products need it. Biases are zero in quantized
    networks and are not stored.
    """

    conv_codes: list
    fc_raw: np.ndarray | None
    gates: np.ndarray
    logits_raw: np.ndarray
    weight_format: QFormat = fxp.ACT_FORMAT
    gate_codes: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.conv_codes = [np.asarray(c, dtype=np.float32) for c in self.conv_codes]
        self.gates = np.asarray(self.gates, dtype=np.float32)
        if self.fc_raw is not None:
            self.fc_raw = np.asarray(self.fc_raw, dtype=np.float64)
        self.logits_raw = np.asarray(self.logits_raw, dtype=np.float64)
        self.gate_codes = dict(zip(GATE_ORDER, np.split(self.gates, 4, axis=1)))

    @classmethod
    def from_params(cls, params, mode: str, weight_format: QFormat = fxp.ACT_FORMAT):
        """Quantize a trained float network for the fixed-point engine."""
        if mode not in ("binary", "ternary"):
            raise ValueError("hardware networks are binary or ternary")
        conv = [quantize_weights(layer.weights, mode) for layer in params.conv]
        fc = None if params.fc is None else \
            fxp.to_raw(params.fc, weight_format)
        gates = quantize_weights(params.lstm.gates, mode)
        logits = fxp.to_raw(params.lstm.w_logits, weight_format)
        return cls(conv, fc, gates, logits, weight_format)

    def weight_bits(self) -> int:
        """Total stored weight bits (2 per code, format width per FC value)."""
        bits = sum(2 * c.size for c in self.conv_codes) + 2 * self.gates.size
        w = self.weight_format.total_bits
        if self.fc_raw is not None:
            bits += w * self.fc_raw.size
        bits += w * self.logits_raw.size
        return bits
