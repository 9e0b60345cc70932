"""Binary/ternary weight quantizers, straight-through gradients, 2-bit packing.

Training keeps full-precision shadow weights; forward passes read the
quantized codes. Only the LSTM gate matrices and CNN kernels are quantized
(`is_quantized`): the fully connected layers keep 12-bit fixed-point values
in hardware, and coded networks have no biases (`is_bias`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fxp
from .fxp import QFormat

__all__ = [
    "is_quantized",
    "is_bias",
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


def is_quantized(name: str) -> bool:
    """Gates and CNN kernels take codes; FC and output layers do not."""
    return name == "lstm.gates" or \
        name.startswith("conv") and name.endswith(".weights")


def is_bias(name: str) -> bool:
    """Bias tensors and their files, the per-gate `lstm.b_<gate>` too."""
    return name.endswith("bias") or name.startswith("lstm.b_")


def _as_float(r) -> np.ndarray:
    """`r` as an array: float32 stays float32, anything else is float64."""
    r = np.asarray(r)
    return r if r.dtype == np.float32 else r.astype(np.float64, copy=False)


def quantize_binary(r, out=None):
    """sign(r) with sign(0) = +1, written to `out` when given, else in
    `r`'s type: float32 for float32 input, float64 for any other."""
    r = _as_float(r)
    q = np.greater_equal(r, 0.0, out=np.empty_like(r) if out is None else out)
    q *= 2.0
    q -= 1.0
    return q


# the smallest |r| with a nonzero code: floor(|r| + 0.5) in float64 is 1
# from the largest double below 0.5 on (its sum with 0.5 rounds to 1.0), so
# comparing with it gives the rounded codes below 1.5 and 1 beyond. A Python
# float, so a float32 comparison stays float32: there it rounds to 0.5, and
# floor(|r| + 0.5) of the largest float32 below 0.5 is 0
_TERNARY_THRESHOLD = float(np.nextafter(0.5, 0.0))


def quantize_ternary(r, out=None):
    """round(r) with halves away from zero, clamped to {-1, 0, +1}:
    thresholds at +-0.5, NaN gives 0, and every 0 code is +0.0. Written to
    `out` when given, else in `r`'s type: float32 for float32 input, float64
    for any other."""
    r = _as_float(r)
    # (r >= t) - (r <= -t): two comparisons, no sign transfer
    q = np.greater_equal(r, _TERNARY_THRESHOLD,
                         out=np.empty_like(r) if out is None else out)
    q -= r <= -_TERNARY_THRESHOLD
    return q


def quantize_weights(r, mode: str, out=None):
    """The `mode` codes of `r`, written to `out` when given, else in `r`'s
    type: float32 for float32 input, float64 for any other."""
    if mode == "binary":
        return quantize_binary(r, out)
    if mode == "ternary":
        return quantize_ternary(r, out)
    raise ValueError(f"quantization mode {mode!r}; codes are binary or "
                     "ternary")


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


# byte -> its four float32 codes, low field first; `unpack_codes` rejects
# the bytes holding a 0b10 field before decoding
_BYTE_CODES = np.array([0, 1, 0, -1], dtype=np.float32)[
    np.arange(256)[:, None] >> np.arange(0, 8, 2) & 0b11]
_BYTE_CODES.flags.writeable = False


def unpack_codes(buf: bytes, shape) -> np.ndarray:
    """The first prod(`shape`) codes of a `pack_codes` buffer as a new
    float32 array of `shape`; a 0b10 field anywhere in `buf`, padding
    included, is a `ValueError`."""
    n = int(np.prod(shape))
    packed = np.frombuffer(buf, dtype=np.uint8)
    # a field's high bit set and its low bit clear
    if (packed & ~(packed << 1) & 0xAA).any():
        raise ValueError("invalid 2-bit code 0b10 in packed buffer")
    return _BYTE_CODES.take(packed, axis=0).ravel()[:n].reshape(shape)


@dataclass
class QuantizedNetwork:
    """Hardware-ready weights: 2-bit codes for gates/CNN, fixed-point for FC.

    Integer values stored once, in the float type the engine multiplies them
    in. The codes in {-1, 0, +1} are float32, which the fixed-point engine
    multiplies in directly wherever the fan-in keeps the products exact
    there (see `fxp._exact_product`); a wider product upcasts them on the
    fly. Codes `model.load_network` read are float32 already, and
    `from_params` quantizes them without a float64 copy. `conv_codes` holds
    one (filters, depth, width) array per CNN layer; `gates` fuses the
    (n_hidden + input_len, n_hidden) gate matrices in `GATE_ORDER` and
    `gate_codes` maps each gate name to its column view.
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
    def from_params(cls, params: dict, mode: str,
                    weight_format: QFormat = fxp.ACT_FORMAT):
        """Quantize a trained float network, a `model` parameter dict, for
        the fixed-point engine: `is_quantized` tensors to codes, in order."""
        if mode not in ("binary", "ternary"):
            raise ValueError("hardware networks are binary or ternary")
        codes = {name: quantize_weights(w, mode)
                 for name, w in params.items() if is_quantized(name)}
        gates = codes.pop("lstm.gates")
        fc = fxp.to_raw(params["fc.weights"], weight_format) \
            if "fc.weights" in params else None
        logits = fxp.to_raw(params["lstm.w_logits"], weight_format)
        return cls(list(codes.values()), fc, gates, logits, weight_format)

    def weight_bits(self) -> int:
        """Total stored weight bits (2 per code, format width per FC value)."""
        bits = sum(2 * c.size for c in self.conv_codes) + 2 * self.gates.size
        w = self.weight_format.total_bits
        if self.fc_raw is not None:
            bits += w * self.fc_raw.size
        bits += w * self.logits_raw.size
        return bits
