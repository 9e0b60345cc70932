"""Saturating signed fixed-point arithmetic and lookup-table nonlinearities.

This is the numeric substrate of the bit-accurate inference path: a
configurable Q-format (12-bit Q4.8 by default), round-half-away-from-zero
quantization, saturating adds/multiply-accumulates with double-width
accumulation, and midpoint-sampled sigmoid/tanh lookup tables.

Everything here is a pure value computation on int64 numpy arrays of raw
codes, so results are exactly reproducible; there are no Python-int scalars
(the scalar reference lives with the tests). Dot products multiply through
BLAS in the narrowest float type that is exact for them, chosen from the
formats and the fan-in, which bound every partial sum: float32 up to 2**24,
float64 below 2**53, and a `ValueError` beyond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QFormat",
    "LutTable",
    "to_raw",
    "from_raw",
    "requantize",
    "sat_add",
    "mul_fixed",
    "mul_add_fixed",
    "ternary_acc",
    "dot_ternary",
    "dot_fixed",
    "build_lut",
    "max_lut_size",
    "lut_index_raw",
    "lut_entries_in",
]


@dataclass(frozen=True)
class QFormat:
    """Signed two's-complement fixed-point format: value = raw * 2**-frac_bits."""

    total_bits: int = 12
    frac_bits: int = 8

    def __post_init__(self):
        if self.total_bits < 2:
            raise ValueError("total_bits must be >= 2")
        if not 0 <= self.frac_bits < self.total_bits:
            raise ValueError("frac_bits must satisfy 0 <= frac_bits < total_bits")
        if self.total_bits > 32:
            raise ValueError("formats wider than 32 bits are not supported")

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    @property
    def raw_min(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def raw_max(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @property
    def min_value(self) -> float:
        return self.raw_min / self.scale

    @property
    def max_value(self) -> float:
        return self.raw_max / self.scale

    @property
    def step(self) -> float:
        return 1.0 / self.scale

    def __str__(self) -> str:
        # integer-bit count includes the sign, so 12/8 prints as Q4.8
        return f"Q{self.total_bits - self.frac_bits}.{self.frac_bits}"


#: Default activation/state format: 12 bits with 8 fractional bits, so the
#: integer range covers the sigmoid LUT input domain [-8, 8).
ACT_FORMAT = QFormat(12, 8)


def to_raw(x, fmt: QFormat = ACT_FORMAT) -> np.ndarray:
    """Vectorized quantizer; returns int64 raw codes (saturating, never wrapping)."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("cannot quantize non-finite values")
    raw = np.floor(np.abs(x) * fmt.scale + 0.5) * np.sign(x)
    return np.clip(raw, fmt.raw_min, fmt.raw_max).astype(np.int64)


def from_raw(raw, fmt: QFormat = ACT_FORMAT) -> np.ndarray:
    """Raw codes back to float64 values."""
    return np.asarray(raw, dtype=np.float64) / fmt.scale


def _saturate(x, fmt: QFormat) -> np.ndarray:
    """`x`, an int64 result the caller made, saturated to the format range.

    An array is clipped in place; a NumPy scalar (from 0-d operands) cannot
    be written into, so it comes back as a new scalar.
    """
    # np.minimum/np.maximum: np.clip looks the dtype limits up on every call
    if not isinstance(x, np.ndarray):
        return np.minimum(np.maximum(x, fmt.raw_min), fmt.raw_max)
    np.maximum(x, fmt.raw_min, out=x)
    return np.minimum(x, fmt.raw_max, out=x)


def requantize(acc, fmt: QFormat = ACT_FORMAT) -> np.ndarray:
    """Reduce a double-width accumulator of `fmt` products to `fmt`.

    `acc` holds integers at scale 2**-(2 * fmt.frac_bits); the rounding
    shift is done in exact integer arithmetic (half away from zero), then
    the result saturates to the format range.
    """
    acc = np.asarray(acc, dtype=np.int64)
    if fmt.frac_bits == 0:
        return _saturate(acc.copy(), fmt)
    # floor((acc + half) / 2**e) rounds half up; one less for a negative
    # accumulator makes it -floor((|acc| + half) / 2**e): half away from
    # zero. `acc + half` is the one new array; the rest writes into it.
    out = acc + (1 << (fmt.frac_bits - 1))
    out -= acc < 0
    out >>= fmt.frac_bits
    return _saturate(out, fmt)


def sat_add(a, b, fmt: QFormat = ACT_FORMAT) -> np.ndarray:
    """Saturating add of raw codes in the same format."""
    return _saturate(np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64),
                     fmt)


def mul_fixed(a, b, fmt: QFormat = ACT_FORMAT) -> np.ndarray:
    """Elementwise product of two raw tensors, requantized once: the LSTM's
    hidden update o * tanh(c)."""
    prod = np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)
    return requantize(prod, fmt)


def mul_add_fixed(a, b, c, d, fmt: QFormat = ACT_FORMAT) -> np.ndarray:
    """a*b + c*d on raw tensors, accumulated double-width, requantized once.

    This is the LSTM's cell update f * c + g * i: the two products are
    summed exactly before the single rounding shift.
    """
    acc = np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)
    acc += np.asarray(c, dtype=np.int64) * np.asarray(d, dtype=np.int64)
    return requantize(acc, fmt)


def _product_dtype(fan_in: int, magnitude_bits: int):
    """The narrowest float type exact for a `fan_in`-term integer dot product.

    Each product is at most 2**magnitude_bits, so no partial sum, in any
    order, exceeds fan_in * 2**magnitude_bits. float32 holds every integer
    up to 2**24 and float64 every integer below 2**53.
    """
    bound = fan_in << magnitude_bits
    if bound <= 1 << 24:
        return np.float32
    if bound < 1 << 53:
        return np.float64
    raise ValueError(f"a {fan_in}-term dot product of {magnitude_bits}-bit "
                     "magnitudes is not exact in float64")


def _exact_product(x_raw, w, magnitude_bits: int) -> np.ndarray:
    """x @ w for integer values whose products are at most 2**magnitude_bits.

    The product runs in float32 when the fan-in keeps every partial sum at or
    below 2**24, in float64 below 2**53, and raises `ValueError` beyond; `w`
    is cast to that type on the fly (a no-op for float32 codes in the
    float32 tier).
    """
    dtype = _product_dtype(np.shape(w)[0], magnitude_bits)
    acc = np.asarray(x_raw, dtype=dtype) @ np.asarray(w, dtype=dtype)
    return acc.astype(np.int64)


def ternary_acc(x_raw, codes, fmt: QFormat = ACT_FORMAT) -> np.ndarray:
    """x @ codes for 2-bit weight codes: the exact, unsaturated int64 sum."""
    return _exact_product(x_raw, codes, fmt.total_bits - 1)


def dot_ternary(x_raw, codes, bias_raw=None, fmt: QFormat = ACT_FORMAT) -> np.ndarray:
    """Dot product of activations with 2-bit weight codes in {-1, 0, +1}.

    The accumulator stays at the activation scale (codes are integers), so the
    only quantization effect is the final saturation. It is applied once, to
    the exact sum of the product and `bias_raw`; a bias outside the format,
    such as a `ternary_acc` partial sum of a longer product, is not clipped
    first.
    """
    acc = ternary_acc(x_raw, codes, fmt)
    if bias_raw is not None:
        acc = acc + np.asarray(bias_raw, dtype=np.int64)
    return _saturate(acc, fmt)


def dot_fixed(x_raw, w_raw, fmt: QFormat = ACT_FORMAT) -> np.ndarray:
    """Dot product of activations with fixed-point weights, both in `fmt`.

    Products sit at scale 2**-(2*frac); they are accumulated exactly and
    requantized once per output element.
    """
    acc = _exact_product(x_raw, w_raw, 2 * (fmt.total_bits - 1))
    return requantize(acc, fmt)


# ---------------------------------------------------------------------------
# Lookup-table nonlinearities
#
# `lut_index_raw` addresses a table as the hardware does: one shift of
# (raw - raw(u_min)), clamped. Every LUT input of the engine is saturated
# to the activation format first, so the engine reads a direct-address
# table built from it once per (size, format) instead: entry k holds the
# value for the code whose low total_bits bits are k (negative codes wrap
# to the top half), and one gather at raw & (2**total_bits - 1) replaces
# shift, clamp and lookup. Such a table has 2**total_bits entries, hence
# the DIRECT_LUT_MAX_BITS cap on activation formats.
# ---------------------------------------------------------------------------

#: Table size of the reference machine; `fsm.MachineConfig.lut_size` may change it.
LUT_SIZE = 64

#: Widest activation format with a direct-address table (64 Ki entries).
DIRECT_LUT_MAX_BITS = 16

#: Entries carry sign + 10 fractional bits; |f| < 1 for both supported kinds,
#: so the near-saturated sigmoid tail lands at 1023/1024 rather than 1.0.
ENTRY_FORMAT = QFormat(11, 10)

_LUT_FUNCS = {
    "sigmoid": lambda u: 1.0 / (1.0 + np.exp(-u)),
    "tanh": np.tanh,
}
_LUT_RANGES = {"sigmoid": (-8.0, 8.0), "tanh": (-4.0, 4.0)}


@dataclass(frozen=True)
class LutTable:
    """Nonlinearity table: N quantized samples of f over [u_min, u_max)."""

    kind: str
    u_min: float
    u_max: float
    entries_raw: np.ndarray
    entry_format: QFormat = ENTRY_FORMAT

    def __post_init__(self):
        if self.kind not in _LUT_FUNCS:
            raise ValueError(f"unknown LUT kind {self.kind!r}")
        n = len(self.entries_raw)
        if n < 2 or n & (n - 1):
            raise ValueError("LUT size must be a power of two")
        span = self.u_max - self.u_min
        if span <= 0 or 2 ** round(math.log2(span)) != span:
            raise ValueError("u_max - u_min must be a positive power of two")

    @property
    def n_entries(self) -> int:
        return len(self.entries_raw)

    @property
    def cell_width(self) -> float:
        return (self.u_max - self.u_min) / self.n_entries

    def entry_values(self) -> np.ndarray:
        return from_raw(self.entries_raw, self.entry_format)


def build_lut(kind: str, n_entries: int = LUT_SIZE) -> LutTable:
    """Build a table by sampling the exact function at each cell's midpoint."""
    u_min, u_max = _LUT_RANGES[kind]
    du = (u_max - u_min) / n_entries
    mids = u_min + (np.arange(n_entries) + 0.5) * du
    entries = to_raw(_LUT_FUNCS[kind](mids), ENTRY_FORMAT)
    return LutTable(kind, u_min, u_max, entries)


def max_lut_size(fmt: QFormat) -> int:
    """The most entries a table may have at `fmt`: one raw code per cell over
    the narrower table range, since `lut_index_raw` shifts by whole codes."""
    return int(min(hi - lo for lo, hi in _LUT_RANGES.values()) * fmt.scale)


def lut_index_raw(u_raw, table: LutTable, fmt: QFormat = ACT_FORMAT) -> np.ndarray:
    """Vectorized index computation as the hardware does it: one shift.

    cell_width * 2**frac_bits is a power of two for the supported tables, so
    the division reduces to an arithmetic right shift of (raw - raw(u_min)).
    """
    width = table.cell_width * fmt.scale
    shift = round(math.log2(width))
    if shift < 0 or 2 ** shift != width:
        raise ValueError("cell width must be a positive power of two "
                         "in raw units at this format")
    base = round(table.u_min * fmt.scale)
    idx = (np.asarray(u_raw, dtype=np.int64) - base) >> shift
    return np.minimum(np.maximum(idx, 0), table.n_entries - 1)


def lut_entries_in(table: LutTable, fmt: QFormat) -> np.ndarray:
    """Table entries requantized to a datapath format (the IM write boundary)."""
    return to_raw(table.entry_values(), fmt)

