"""Saturating signed fixed-point arithmetic and lookup-table nonlinearities.

This is the numeric substrate of the bit-accurate inference path: a
configurable Q-format (12-bit Q4.8 by default), round-half-away-from-zero
quantization, saturating adds/multiply-accumulates with double-width
accumulation, and midpoint-sampled sigmoid/tanh lookup tables.

Everything here is a pure value computation on numpy arrays of raw codes,
so results are exactly reproducible; there are no Python-int scalars (the
scalar reference lives with the tests). Integer codes are carried in float
types wherever those hold them exactly (Jacob et al. 2018, arXiv
1712.05877, do the same arithmetic in integers): `to_raw` is the one
operation that returns int64 codes.

* Dot products multiply through BLAS in the narrowest float type that is
  exact for them, chosen from the formats and the fan-in, which bound every
  partial sum: float32 up to 2**24, float64 below 2**53, and a `ValueError`
  beyond. A ternary dot product keeps its exact codes in that float type,
  saturated there.
* The requantizing operations (`requantize`, `dot_fixed`, `mul_fixed`,
  `mul_add_fixed`, `sat_add`) compute in, and return codes in, the
  format's code type (`code_dtype`): the narrowest float type exact for
  a*b + c*d of two products of the format's codes, at most 2**(2 *
  total_bits - 1) in magnitude. That is float32 up to 12 bits (Q4.8: 2**23),
  float64 up to 26 bits, and a `ValueError` beyond. They round the exactly
  scaled accumulator x = acc * 2**-frac_bits as trunc(x + copysign(0.5, x))
  and then saturate. The elementwise ones take `out`, a float array at
  least that wide, for the codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QFormat",
    "LutTable",
    "to_raw",
    "from_raw",
    "saturate",
    "code_dtype",
    "requantize",
    "sat_add",
    "mul_fixed",
    "mul_add_fixed",
    "ternary_acc",
    "dot_ternary",
    "dot_fixed",
    "sigmoid",
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
    """Vectorized quantizer; returns int64 raw codes (saturating, never wrapping).

    floor(|x| * scale + 0.5) with x's sign, in one float64 buffer; a
    scalar `x` gives a NumPy scalar.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("cannot quantize non-finite values")
    raw = np.abs(x, out=np.empty_like(x))
    raw *= fmt.scale
    raw += 0.5
    np.floor(raw, out=raw)
    np.copysign(raw, x, out=raw)
    return saturate(raw, fmt).astype(np.int64)[()]


def from_raw(raw, fmt: QFormat = ACT_FORMAT) -> np.ndarray:
    """Raw codes back to float64 values."""
    return np.asarray(raw, dtype=np.float64) / fmt.scale


@lru_cache(maxsize=None)
def _constants(fmt: QFormat, dtype) -> tuple:
    """raw_min, raw_max, 2**-frac_bits and 0.5 as 0-d arrays of `dtype`: a
    ufunc reads them faster than Python numbers."""
    return tuple(np.array(v, dtype)
                 for v in (fmt.raw_min, fmt.raw_max, fmt.step, 0.5))


def saturate(x, fmt: QFormat = ACT_FORMAT) -> np.ndarray:
    """`x`, an int or float array of integer codes, saturated to the format
    range in place."""
    # the method with bounds of x's type: np.clip, or bounds that need a
    # cast, cost about twice as much per call
    lo, hi, _, _ = _constants(fmt, x.dtype)
    return x.clip(lo, hi, out=x)


def code_dtype(fmt: QFormat = ACT_FORMAT):
    """The float type the requantizing operations compute and return `fmt`
    codes in: the narrowest exact for a*b + c*d over `fmt` codes."""
    return _product_dtype(2, 2 * (fmt.total_bits - 1))


def _codes_out(out, operands, fmt: QFormat) -> np.ndarray:
    """`out`, or a new array of `code_dtype(fmt)` the operands broadcast to."""
    if out is not None:
        return out
    return np.empty(np.broadcast_shapes(*map(np.shape, operands)),
                    code_dtype(fmt))


def _round_saturate(acc, fmt: QFormat, tmp=None) -> np.ndarray:
    """`acc`, a float array of exact integers at scale 2**-(2 * frac_bits),
    as `fmt` codes in place: scaled by 2**-frac_bits (exact), rounded half
    away from zero, saturated. `tmp`, scratch of `acc`'s shape, when given."""
    lo, hi, step, half = _constants(fmt, acc.dtype)
    tmp = np.copysign(half, acc, out=tmp)
    acc *= step
    acc += tmp
    np.trunc(acc, out=acc)
    return acc.clip(lo, hi, out=acc)


def requantize(acc, fmt: QFormat = ACT_FORMAT) -> np.ndarray:
    """Reduce a double-width accumulator of `fmt` products to `fmt` codes.

    `acc` holds integers at scale 2**-(2 * fmt.frac_bits), of any numeric
    type; it is cast to `code_dtype(fmt)` first. Every accumulator whose
    code does not saturate is exact there, and the cast rounds
    monotonically, so a wider one still saturates at the right end.
    """
    x = np.empty(np.shape(acc), code_dtype(fmt))
    np.copyto(x, acc, casting="unsafe")
    return _round_saturate(x, fmt)


def sat_add(a, b, fmt: QFormat = ACT_FORMAT, out=None) -> np.ndarray:
    """Saturating add of raw codes in the same format."""
    x = _codes_out(out, (a, b), fmt)
    return saturate(np.add(a, b, out=x, dtype=x.dtype, casting="unsafe"), fmt)


def mul_fixed(a, b, fmt: QFormat = ACT_FORMAT, out=None) -> np.ndarray:
    """Elementwise product of two raw tensors, requantized once: the LSTM's
    hidden update o * tanh(c)."""
    x = _codes_out(out, (a, b), fmt)
    np.multiply(a, b, out=x, dtype=x.dtype, casting="unsafe")
    return _round_saturate(x, fmt)


def mul_add_fixed(a, b, c, d, fmt: QFormat = ACT_FORMAT, out=None) -> np.ndarray:
    """a*b + c*d on raw tensors, accumulated double-width, requantized once.

    This is the LSTM's cell update f * c + g * i: the two products are
    summed exactly before the single rounding. `out` may be `b`.
    """
    x = _codes_out(out, (a, b, c, d), fmt)
    np.multiply(a, b, out=x, dtype=x.dtype, casting="unsafe")
    cd = np.multiply(c, d, dtype=x.dtype, casting="unsafe")
    x += cd
    return _round_saturate(x, fmt, cd)


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
    """x @ w for integer values whose products are at most 2**magnitude_bits,
    returned in the float type it ran in.

    The product runs in float32 when the fan-in keeps every partial sum at or
    below 2**24, in float64 below 2**53, and raises `ValueError` beyond. A
    float `x_raw` of a wider type keeps it: a caller that adds a longer
    product's partial sum picks the type from the total fan-in. The operands
    are cast on the fly (a no-op for float32 codes in the float32 tier).
    """
    dtype = _product_dtype(np.shape(w)[0], magnitude_bits)
    x = np.asarray(x_raw)
    if x.dtype.kind == "f":
        dtype = np.promote_types(dtype, x.dtype)
    return x.astype(dtype, copy=False) @ np.asarray(w, dtype=dtype)


def ternary_acc(x_raw, codes, fmt: QFormat = ACT_FORMAT) -> np.ndarray:
    """x @ codes for 2-bit weight codes: the exact, unsaturated sum, in the
    float type `_exact_product` ran it in."""
    return _exact_product(x_raw, codes, fmt.total_bits - 1)


def dot_ternary(x_raw, codes, bias_raw=None, fmt: QFormat = ACT_FORMAT) -> np.ndarray:
    """Dot product of activations with 2-bit weight codes in {-1, 0, +1}.

    The accumulator stays at the activation scale (codes are integers), so the
    only quantization effect is the final saturation. It is applied once, to
    the exact sum of the product and `bias_raw`; a bias outside the format,
    such as a `ternary_acc` partial sum of a longer product, is not clipped
    first. The result is the product's float type; a bias of another type
    is added in float64. A bias of the product's own type is added in place:
    the caller's total fan-in must keep that sum exact (see `_exact_product`).
    """
    acc = ternary_acc(x_raw, codes, fmt)
    if bias_raw is not None:
        bias = np.asarray(bias_raw)
        if bias.dtype == acc.dtype:
            acc += bias
        else:
            acc = np.add(acc, bias, dtype=np.float64)
    return saturate(acc, fmt)


def dot_fixed(x_raw, w_raw, fmt: QFormat = ACT_FORMAT) -> np.ndarray:
    """Dot product of activations with fixed-point weights, both in `fmt`.

    Products sit at scale 2**-(2*frac); they are accumulated exactly and
    requantized once per output element, to `code_dtype(fmt)` codes.
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
# value for code raw_min + k, in natural code order, and one gather at
# raw - raw_min replaces shift, clamp and lookup. Such a table has
# 2**total_bits entries, hence the DIRECT_LUT_MAX_BITS cap on activation
# formats.
# ---------------------------------------------------------------------------

#: Table size of the reference machine; `fsm.MachineConfig.lut_size` may change it.
LUT_SIZE = 64

#: Widest activation format with a direct-address table (64 Ki entries).
DIRECT_LUT_MAX_BITS = 16

#: Entries carry sign + 10 fractional bits; |f| < 1 for both supported kinds,
#: so the near-saturated sigmoid tail lands at 1023/1024 rather than 1.0.
ENTRY_FORMAT = QFormat(11, 10)


def sigmoid(u, out=None) -> np.ndarray:
    """1 / (1 + exp(-u)) by negate, exp, add 1, reciprocal, into `out` when
    given (`u` itself may be it); an exp that overflows gives 0, unwarned."""
    z = np.negative(u, out=out)
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


_LUT_FUNCS = {"sigmoid": sigmoid, "tanh": np.tanh}
_LUT_RANGES = {"sigmoid": (-8.0, 8.0), "tanh": (-4.0, 4.0)}


@dataclass(frozen=True)
class LutTable:
    """Nonlinearity table: N samples of f over [u_min, u_max), as
    `ENTRY_FORMAT` codes."""

    kind: str
    u_min: float
    u_max: float
    entries_raw: np.ndarray

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
        return from_raw(self.entries_raw, ENTRY_FORMAT)


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

