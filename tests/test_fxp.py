import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixed_oracle import Fixed, lut_eval, lut_index, to_fixed
from qcnnlstm import fxp
from qcnnlstm.fxp import QFormat

Q48 = QFormat(12, 8)


class TestQFormat:
    def test_default_is_12_bit(self):
        assert Q48.raw_min == -2048
        assert Q48.raw_max == 2047
        assert Q48.min_value == -8.0
        assert Q48.max_value == 2047 / 256

    @pytest.mark.parametrize("total,frac", [(1, 0), (8, 8), (8, 9), (33, 4)])
    def test_invalid_formats_rejected(self, total, frac):
        with pytest.raises(ValueError):
            QFormat(total, frac)


class TestToFixed:
    def test_half_exactly_representable(self):
        assert to_fixed(0.5, Q48).raw == 128

    def test_positive_saturation(self):
        f = to_fixed(10.0, Q48)
        assert f.raw == 2047
        assert f.value == pytest.approx(7.996, abs=1e-3)

    def test_negative_bound_exact(self):
        assert to_fixed(-8.0, Q48).raw == -2048

    def test_round_half_away_from_zero(self):
        # 0.5 ulp cases on both sides of zero
        assert to_fixed(1.5 / 256, Q48).raw == 2
        assert to_fixed(-1.5 / 256, Q48).raw == -2

    @given(st.floats(-100, 100))
    def test_saturation_bounds(self, x):
        f = to_fixed(x, Q48)
        assert Q48.raw_min <= f.raw <= Q48.raw_max

    @given(st.floats(-100, 100), st.floats(-100, 100))
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert to_fixed(lo, Q48).raw <= to_fixed(hi, Q48).raw

    @given(st.integers(-2048, 2047))
    def test_round_trip(self, raw):
        f = Fixed(raw, Q48)
        assert to_fixed(f.value, Q48).raw == raw


    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            fxp.to_raw([0.5, float("nan")], Q48)
        with pytest.raises(ValueError):
            fxp.to_raw(float("inf"), Q48)

    @staticmethod
    def _to_raw_formula(x, fmt):
        x = np.asarray(x, dtype=np.float64)
        raw = np.floor(np.abs(x) * fmt.scale + 0.5) * np.sign(x)
        return np.clip(raw, fmt.raw_min, fmt.raw_max).astype(np.int64)

    @pytest.mark.parametrize("fmt", [Q48, QFormat(2, 0), QFormat(16, 15),
                                     QFormat(32, 4)])
    def test_equals_the_formula_at_the_edges(self, fmt):
        # +-0, exact half codes, each side of the saturation limits, huge
        # magnitudes and subnormals
        edges = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300,
                 np.finfo(np.float64).max]
        for raw in (0, 1, 2, fmt.raw_max - 1, fmt.raw_max, -fmt.raw_min,
                    -fmt.raw_min + 1):
            for frac in (-0.5, 0.0, 0.5):
                v = (raw + frac) / fmt.scale
                edges += [v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)]
        x = np.array(edges)
        x = np.concatenate([x, -x])
        with np.errstate(over="ignore"):  # max * scale is inf, then saturates
            got = fxp.to_raw(x, fmt)
            want = self._to_raw_formula(x, fmt)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        assert fxp.to_raw(-0.0, fmt) == 0
        assert np.isscalar(fxp.to_raw(0.25, fmt))

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=8))
    def test_equals_the_formula(self, xs):
        with np.errstate(over="ignore"):
            assert np.array_equal(fxp.to_raw(xs, Q48),
                                  self._to_raw_formula(xs, Q48))

    def test_leaves_its_input_alone(self):
        x = np.array([[0.3, -7.9], [100.0, -0.0]])
        before = x.copy()
        fxp.to_raw(x, Q48)
        assert np.array_equal(x, before)
        assert np.signbit(x[1, 1])

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-9, 9, 1001)
        raws = fxp.to_raw(xs, Q48)
        for x, r in zip(xs[::37], raws[::37]):
            assert to_fixed(float(x), Q48).raw == r


class TestRequantize:
    def test_exact_shift(self):
        # 1.5 at scale 2^-16 back to 2^-8
        acc = np.array([3 << 15])
        assert fxp.requantize(acc, Q48)[0] == 384

    def test_round_half_away_negative(self):
        assert fxp.requantize(np.array([-384]), Q48)[0] == -2  # -1.5 ulp
        assert fxp.requantize(np.array([384]), Q48)[0] == 2

    def test_saturates(self):
        assert fxp.requantize(np.array([1 << 30]), Q48)[0] == 2047
        assert fxp.requantize(np.array([-(1 << 30)]), Q48)[0] == -2048

    @given(st.integers(-(1 << 24), 1 << 24))
    def test_matches_float_rounding(self, acc):
        got = fxp.requantize(np.array([acc]), Q48)[0]
        want = to_fixed(acc / 65536.0, Q48).raw
        assert got == want


def requant_int(acc: int, fmt: QFormat) -> int:
    """The scalar reference in Python ints: acc / 2**frac_bits rounded half
    away from zero, then saturated."""
    half = (1 << fmt.frac_bits) >> 1
    mag = (abs(acc) + half) >> fmt.frac_bits
    return min(max(mag if acc >= 0 else -mag, fmt.raw_min), fmt.raw_max)


def extreme_codes(fmt: QFormat) -> list:
    """Both ends of the format, the codes next to 0, and +-2**(frac_bits - 1)
    and its neighbours, whose products with 1 are exact halves."""
    half = 1 << (fmt.frac_bits - 1)
    codes = {fmt.raw_min, fmt.raw_min + 1, fmt.raw_max - 1, fmt.raw_max,
             -1, 0, 1, half - 1, half, half + 1}
    return sorted(codes | {-c for c in codes if -c <= fmt.raw_max})


class TestFloatCodedPrimitives:
    """The requantizing operations return codes in `code_dtype(fmt)`: float32
    up to 12 bits, float64 up to 26, a `ValueError` beyond. They equal the
    Python-int reference everywhere their tier is exact."""

    def test_code_dtype_tiers(self):
        assert fxp.code_dtype(Q48) is np.float32
        assert fxp.code_dtype(QFormat(13, 8)) is np.float64
        assert fxp.code_dtype(QFormat(26, 8)) is np.float64
        with pytest.raises(ValueError, match="not exact"):
            fxp.code_dtype(QFormat(27, 8))

    def test_requantize_every_float32_accumulator(self):
        # every accumulator with |acc| <= 2**23, the float32 tier's range.
        # requantize is checked to be non-decreasing over all of them and to
        # equal the reference at both ends and on each side of each of its
        # steps; the reference is non-decreasing too, so the two agree on
        # every accumulator in between
        lo, hi = -(1 << 23), 1 << 23
        chunk = 1 << 20
        prev, checked = None, [lo, hi]
        for start in range(lo, hi + 1, chunk):
            acc = np.arange(start, min(start + chunk, hi + 1))
            got = fxp.requantize(acc, Q48)
            assert got.dtype == np.float32
            if prev is not None:
                got = np.concatenate([[prev], got])
                acc = np.concatenate([[start - 1], acc])
            steps = np.flatnonzero(np.diff(got))
            assert (np.diff(got) >= 0).all()
            checked += acc[steps].tolist() + acc[steps + 1].tolist()
            prev = got[-1]
        assert len(checked) > 2 * (Q48.raw_max - Q48.raw_min)
        checked = np.array(checked)
        want = [requant_int(int(a), Q48) for a in checked]
        assert fxp.requantize(checked, Q48).tolist() == want

    @pytest.mark.parametrize("fmt,dtype", [(Q48, np.float32),
                                           (QFormat(16, 8), np.float64)],
                             ids=str)
    def test_mul_at_the_extreme_codes(self, fmt, dtype):
        codes = extreme_codes(fmt)
        a, b = (np.array(v) for v in zip(*[(x, y) for x in codes
                                            for y in codes]))
        got = fxp.mul_fixed(a, b, fmt)
        assert got.dtype == dtype
        assert got.tolist() == [requant_int(int(x) * int(y), fmt)
                                for x, y in zip(a, b)]

    @pytest.mark.parametrize("fmt,dtype", [(Q48, np.float32),
                                           (QFormat(16, 8), np.float64)],
                             ids=str)
    def test_mul_add_at_the_extreme_codes(self, fmt, dtype):
        # every quadruple of extreme codes: both products at either end, and
        # sums that cancel to exact halves
        codes = np.array(extreme_codes(fmt))
        a, b, c, d = (g.ravel() for g in np.meshgrid(codes, codes, codes,
                                                     codes, indexing="ij"))
        got = fxp.mul_add_fixed(a, b, c, d, fmt)
        assert got.dtype == dtype
        want = [requant_int(int(w) * int(x) + int(y) * int(z), fmt)
                for w, x, y, z in zip(a, b, c, d)]
        assert got.tolist() == want
        # into a caller's buffer, which may be the second operand
        out = b.astype(dtype)
        assert fxp.mul_add_fixed(a, out, c, d, fmt, out=out) is out
        assert out.tolist() == want

    def test_no_fraction_bits(self):
        # scale 1: every pair of 8-bit codes, products past both ends
        fmt = QFormat(8, 0)
        codes = np.arange(fmt.raw_min, fmt.raw_max + 1)
        a, b = (g.ravel() for g in np.meshgrid(codes, codes, indexing="ij"))
        want = [requant_int(int(x) * int(y), fmt) for x, y in zip(a, b)]
        assert fxp.mul_fixed(a, b, fmt).tolist() == want
        assert fxp.requantize(a * b, fmt).tolist() == want
        assert fxp.mul_add_fixed(a, b, a, -b, fmt).tolist() == [0] * len(a)
        assert fxp.sat_add(a, b, fmt).tolist() == \
            [min(max(int(x) + int(y), -128), 127) for x, y in zip(a, b)]

    def test_past_float64_exactness_is_rejected(self):
        wide = QFormat(27, 8)
        one = np.ones(2)
        for call in (lambda: fxp.requantize(one, wide),
                     lambda: fxp.mul_fixed(one, one, wide),
                     lambda: fxp.mul_add_fixed(one, one, one, one, wide),
                     lambda: fxp.sat_add(one, one, wide)):
            with pytest.raises(ValueError, match="not exact"):
                call()


def exact_dot(x, codes, bias, fmt=Q48):
    """Saturated x @ codes + bias in Python ints: the scalar reference."""
    return [[min(max(sum(int(a) * int(c) for a, c in zip(row, col)) + int(b),
                     fmt.raw_min), fmt.raw_max)
             for col, b in zip(codes.T, row_bias)]
            for row, row_bias in zip(x, bias)]


class TestDotProducts:
    def test_ternary_dot_is_exact_sum(self):
        x = np.array([100, -50, 7])
        codes = np.array([[1], [-1], [0]])
        assert fxp.dot_ternary(x, codes, fmt=Q48)[0] == 150

    def test_ternary_dot_saturates(self):
        x = np.full(100, 2000)
        codes = np.ones((100, 1), dtype=np.int64)
        assert fxp.dot_ternary(x, codes, fmt=Q48)[0] == 2047

    def test_fixed_dot_requantizes_once(self):
        # 0.5 * 0.5 + 0.25 * 1.0 = 0.5 exactly
        x = fxp.to_raw([0.5, 0.25], Q48)
        w = fxp.to_raw([[0.5], [1.0]], Q48)
        assert fxp.dot_fixed(x, w, fmt=Q48)[0] == 128

    def test_wide_format_breaks_float64_exactness_bound(self):
        # 2**31 * 2**31 * 4 products reach past 2**53: no exact float64 sum
        wide = QFormat(32, 16)
        x = np.full(4, wide.raw_max)
        w = np.full((4, 1), wide.raw_max)
        with pytest.raises(ValueError, match="not exact"):
            fxp.dot_fixed(x, w, fmt=wide)
        # ternary codes keep the sum within 2**31 * 4: still exact
        assert fxp.dot_ternary(x, np.ones((4, 1)), fmt=wide)[0] == wide.raw_max

    def test_float32_tier_ends_at_two_to_the_24(self):
        # 12-bit activations times codes are at most 2**11 in magnitude, so
        # fan-in 8192 bounds every partial sum by 2**24; 12x12-bit products
        # are at most 2**22: four terms fit, five need float64
        assert fxp._product_dtype(8192, 11) is np.float32
        assert fxp._product_dtype(8193, 11) is np.float64
        assert fxp._product_dtype(4, 22) is np.float32
        assert fxp._product_dtype(5, 22) is np.float64
        with pytest.raises(ValueError, match="not exact"):
            fxp._product_dtype(1 << 31, 22)

    def test_odd_sum_past_float32_range_falls_back_to_float64(self):
        # 8192 products of 2**11 and one of 1 sum to 2**24 + 1: odd and above
        # 2**24, so no float32 value equals it, whatever the summation
        # order. The bias cancels it back into range, so the saturation
        # cannot hide an error.
        x = np.array([[Q48.raw_min] * 8192 + [-1],
                      [Q48.raw_min] * 8191 + [-1, Q48.raw_min]])
        codes = -np.ones((8193, 3), dtype=np.float32)
        codes[:4096, 1] = 1  # cancels inside the product
        codes[0, 2] = 0
        bias = -(1 << 24) + np.array([[4, -3, 0], [-2, 5, 9]])
        want = exact_dot(x, codes, bias)
        assert want[0][0] == 5
        plain_f32 = (x.astype(np.float32) @ codes).astype(np.int64) + bias
        assert plain_f32[0, 0] != want[0][0]
        assert fxp.dot_ternary(x, codes, bias, Q48).tolist() == want

    def test_largest_float32_sums_are_exact(self):
        # at the bound: 2**24 and the odd 2**24 - 1 are both float32 values
        x = np.array([[Q48.raw_min] * 8192,
                      [Q48.raw_min] * 8191 + [-Q48.raw_max]])
        codes = -np.ones((8192, 1), dtype=np.float32)
        bias = np.array([[7 - (1 << 24)], [11 - (1 << 24) + 1]])
        want = exact_dot(x, codes, bias)
        assert want == [[7], [11]]
        assert fxp.dot_ternary(x, codes, bias, Q48).tolist() == want

    def test_mul_add_two_products_single_rounding(self):
        a = fxp.to_raw([0.3], Q48)
        b = fxp.to_raw([0.7], Q48)
        c = fxp.to_raw([0.4], Q48)
        d = fxp.to_raw([0.2], Q48)
        acc = int(a[0]) * int(b[0]) + int(c[0]) * int(d[0])
        want = to_fixed(acc / 65536.0, Q48).raw
        assert fxp.mul_add_fixed(a, b, c, d, Q48)[0] == want


@pytest.fixture(scope="module")
def sigmoid_lut():
    return fxp.build_lut("sigmoid", 64)


@pytest.fixture(scope="module")
def tanh_lut():
    return fxp.build_lut("tanh", 64)


class TestLutIndex:
    def test_center(self, sigmoid_lut):
        assert lut_index(to_fixed(0.0, Q48), sigmoid_lut) == 32

    def test_lower_edge(self, sigmoid_lut):
        assert lut_index(to_fixed(-8.0, Q48), sigmoid_lut) == 0

    def test_clamp_above_range(self, tanh_lut):
        assert lut_index(to_fixed(5.0, Q48), tanh_lut) == 63

    def test_shift_version_matches_float_floor(self, sigmoid_lut, tanh_lut):
        # exhaustive over the whole 12-bit input domain
        raws = np.arange(Q48.raw_min, Q48.raw_max + 1)
        for table in (sigmoid_lut, tanh_lut):
            via_shift = fxp.lut_index_raw(raws, table, Q48)
            via_float = np.array([lut_index(Fixed(int(r), Q48), table)
                                  for r in raws])
            assert np.array_equal(via_shift, via_float)


class TestLutEval:
    def test_sigmoid_center_near_half(self, sigmoid_lut):
        got = lut_eval(to_fixed(0.0, Q48), sigmoid_lut)
        assert abs(got.value - 0.5) <= sigmoid_lut.cell_width

    def test_tanh_center_near_zero(self, tanh_lut):
        got = lut_eval(to_fixed(0.0, Q48), tanh_lut)
        assert abs(got.value) <= tanh_lut.cell_width

    def test_sigmoid_top_cell(self, sigmoid_lut):
        # oracle: sigma at the cell-63 midpoint (7.875), quantized to the
        # entry grid, is 1023/1024; the entry must sit strictly inside
        # (0.999, 1.0)
        mid = -8.0 + 63.5 * sigmoid_lut.cell_width
        exact = 1.0 / (1.0 + math.exp(-mid))
        got = lut_eval(to_fixed(7.999, Q48), sigmoid_lut)
        assert got.raw == sigmoid_lut.entries_raw[63]
        assert 0.999 < got.value < 1.0
        assert abs(got.value - exact) <= fxp.ENTRY_FORMAT.step

    def test_monotone_nondecreasing(self, sigmoid_lut, tanh_lut):
        for table in (sigmoid_lut, tanh_lut):
            assert np.all(np.diff(table.entries_raw) >= 0)

    def test_tanh_odd_symmetry(self, tanh_lut):
        sums = tanh_lut.entry_values() + tanh_lut.entry_values()[::-1]
        assert np.abs(sums).max() <= fxp.ENTRY_FORMAT.step

    def test_worst_case_sigmoid_error_bound(self, sigmoid_lut):
        # dense sweep oracle: |LUT - sigma| <= max-slope * cell/2 + one step
        us = np.linspace(-8.0, 8.0, 200001)[:-1]
        idx = fxp.lut_index_raw(fxp.to_raw(us, Q48), sigmoid_lut, Q48)
        approx = sigmoid_lut.entry_values()[idx]
        exact = 1.0 / (1.0 + np.exp(-us))
        bound = 0.25 * sigmoid_lut.cell_width / 2 + Q48.step
        assert np.abs(approx - exact).max() <= bound



class TestSigmoid:
    """The one sigmoid, which the trainer's gates and the tables read."""

    def test_equals_the_textbook_expression_bit_for_bit(self):
        u = np.concatenate([np.linspace(-40.0, 40.0, 10001),
                            np.random.default_rng(0).normal(0, 5, 10000)])
        want = 1.0 / (1.0 + np.exp(-u))
        assert np.array_equal(fxp.sigmoid(u), want)
        assert fxp.sigmoid(u, out=u) is u
        assert np.array_equal(u, want)

    def test_in_place_on_a_strided_view(self):
        gates = np.random.default_rng(1).normal(0, 3, (5, 12))
        want = gates.copy()
        want[:, :9] = 1.0 / (1.0 + np.exp(-want[:, :9]))
        fxp.sigmoid(gates[:, :9], out=gates[:, :9])
        assert np.array_equal(gates, want)

    def test_overflow_gives_zero_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fxp.sigmoid(np.array([-1000.0, -745.0, 1000.0]))
        assert got[0] == 0.0 and got[2] == 1.0
