import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qcnnlstm import quant
from qcnnlstm.model import NetworkConfig
from qcnnlstm.train import init_params


class TestBinary:
    @pytest.mark.parametrize("r,want", [(0.3, 1), (-0.2, -1), (0.0, 1),
                                        (-0.0, 1), (1e-12, 1)])
    def test_sign_rule(self, r, want):
        assert quant.quantize_binary(r) == want

    @given(arrays(np.float64, 16, elements=st.floats(-2, 2)))
    def test_values_are_pm_one(self, r):
        q = quant.quantize_binary(r)
        assert set(np.unique(q)) <= {-1.0, 1.0}


class TestTernary:
    @pytest.mark.parametrize("r,want", [(0.4, 0), (0.6, 1), (-0.6, -1),
                                        (0.5, 1), (-0.5, -1), (0.0, 0),
                                        (1.0, 1), (-1.0, -1)])
    def test_round_half_away(self, r, want):
        assert quant.quantize_ternary(r) == want

    def test_large_shadows_clamp_to_unit_codes(self):
        # round half away alone would give 2, -3 and 3
        got = quant.quantize_ternary(np.array([1.5, -2.7, 3.0]))
        assert got.tolist() == [1, -1, 1]
        out = np.empty(3)
        assert quant.quantize_ternary(np.array([-1.5, 2.5, 0.49]), out) is out
        assert out.tolist() == [-1, 1, 0]

    @staticmethod
    def _round_half_away(r):
        return np.copysign(np.floor(np.abs(r) + 0.5), r)

    def test_codes_below_one_and_a_half_are_round_half_away(self):
        # the 64 doubles on each side of 0, 0.5 and 1 and below 1.5, both
        # signs: the codes equal floor(|r| + 0.5) with r's sign in float64
        r = []
        for start in (0.0, 0.5, 1.0, 1.5):
            for toward in (0.0, 2.0):
                v = start
                for _ in range(64):
                    v = np.nextafter(v, toward)
                    r.append(v)
        r = np.array(r)
        r = r[r < 1.5]
        r = np.concatenate([r, -r])
        want = self._round_half_away(r)
        got = quant.quantize_ternary(r)
        assert np.array_equal(got, want)
        # a 0 code is +0.0 whatever r's sign: the sign bit marks -1 codes
        assert np.array_equal(np.signbit(got), got < 0)

    @pytest.mark.parametrize("dtype,code_below", [(np.float64, 1),
                                                   (np.float32, 0)])
    def test_non_finite_and_the_neighbours_of_a_half(self, dtype, code_below):
        # the largest double below 0.5 rounds up (see _TERNARY_THRESHOLD),
        # the largest float32 below it does not; the next one down is 0 in both
        half = dtype(0.5)
        below, above = (np.nextafter(half, dtype(v)) for v in (0, 1))
        below2 = np.nextafter(below, dtype(0))
        big = np.finfo(dtype).max
        r = np.array([np.nan, np.inf, -np.inf, big, -big, half, -half, above,
                      -above, below, -below, below2, -below2, 0.0, -0.0],
                     dtype=dtype)
        got = quant.quantize_ternary(r)
        assert got.dtype == dtype
        assert got.tolist() == [0, 1, -1, 1, -1, 1, -1, 1, -1, code_below,
                                -code_below, 0, 0, 0, 0]
        assert not np.signbit(got[got == 0]).any()

    @given(arrays(np.float64, 16, elements=st.floats(-1.5, 1.5,
                                                     exclude_min=True,
                                                     exclude_max=True)))
    def test_round_half_away_below_one_and_a_half(self, r):
        assert np.array_equal(quant.quantize_ternary(r),
                              self._round_half_away(r))

    @given(arrays(np.float64, 16, elements=st.floats(-1e6, 1e6)))
    def test_values_are_codes(self, r):
        q = quant.quantize_ternary(r)
        assert set(np.unique(q)) <= {-1.0, 0.0, 1.0}

    @given(arrays(np.float64, 16, elements=st.floats(-1, 1)))
    def test_idempotent(self, r):
        q = quant.quantize_ternary(r)
        assert np.array_equal(quant.quantize_ternary(q), q)
        qb = quant.quantize_binary(quant.quantize_binary(r))
        assert np.array_equal(qb, quant.quantize_binary(r))


@pytest.mark.parametrize("mode", ["full", "int4"])
def test_codes_are_binary_or_ternary(mode):
    with pytest.raises(ValueError, match="codes are binary or ternary"):
        quant.quantize_weights(np.zeros(3), mode)


class TestSte:
    def test_pass_through_inside(self):
        assert quant.ste_backward(2.0, 0.5) == 2.0

    def test_cancelled_outside(self):
        assert quant.ste_backward(2.0, 1.5) == 0.0

    def test_boundary_inclusive(self):
        assert quant.ste_backward(-3.1, -1.0) == -3.1

    def test_shadows_in_range_pass_the_mask_s_gradient(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(50, 40))
        g[0, 0] = -0.0
        r = rng.uniform(-1.0, 1.0, g.shape)
        r[0, 1], r[0, 2] = -1.0, 1.0
        want = np.where((r >= -1.0) & (r <= 1.0), g, 0.0)
        got = quant.ste_backward(g, r)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @given(arrays(np.float64, 8, elements=st.floats(-10, 10)),
           arrays(np.float64, 8, elements=st.floats(-3, 3)))
    def test_zero_set_exact(self, g, r):
        out = quant.ste_backward(g, r)
        outside = np.abs(r) > 1
        assert np.all(out[outside] == 0.0)
        assert np.array_equal(out[~outside], g[~outside])


class TestCodeTypes:
    """A float32 shadow keeps float32 codes, equal to the float64 codes of
    the same values; every other input is quantized in float64."""

    QUANTIZERS = [quant.quantize_binary, quant.quantize_ternary]

    @pytest.mark.parametrize("quantize", QUANTIZERS)
    def test_float32_codes_equal_float64_codes_at_the_thresholds(self,
                                                                 quantize):
        r = []
        for start in (0.0, 0.5, 1.0, 1.5):
            for toward in (0.0, 2.0):
                v = np.float32(start)
                for _ in range(8):
                    v = np.nextafter(v, np.float32(toward))
                    r.append(v)
        r = np.array(r, dtype=np.float32)
        r = np.concatenate([r, -r, [0.0, -0.0, 0.5, -0.5, np.nan]]).astype(
            np.float32)
        got = quantize(r)
        assert got.dtype == np.float32
        want = quantize(r.astype(np.float64))
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("quantize", QUANTIZERS)
    @settings(derandomize=True)
    @given(r=arrays(np.float32, 16, elements=st.floats(-3, 3, width=32)))
    def test_float32_codes_equal_float64_codes(self, quantize, r):
        got = quantize(r)
        assert got.dtype == np.float32
        assert np.array_equal(got, quantize(r.astype(np.float64)))

    @pytest.mark.parametrize("quantize", QUANTIZERS)
    @pytest.mark.parametrize("r", [np.array([-2, 0, 1]),
                                   np.array([0.7, -0.2], dtype=np.float16),
                                   [0.7, -0.2], 0.7])
    def test_other_inputs_give_float64_codes(self, quantize, r):
        assert quantize(r).dtype == np.float64

    @pytest.mark.parametrize("quantize", QUANTIZERS)
    def test_float32_shadows_into_a_float64_buffer(self, quantize):
        r = np.array([0.7, -0.2, 0.5, -1.0], dtype=np.float32)
        out = np.empty(4)
        assert quantize(r, out) is out
        assert np.array_equal(out, quantize(r.astype(np.float64)))


class TestPacking:
    @given(arrays(np.int64, st.integers(1, 40).map(lambda n: (n,)),
                  elements=st.integers(-1, 1)))
    def test_round_trip(self, codes):
        buf = quant.pack_codes(codes)
        assert len(buf) == (codes.size + 3) // 4
        assert np.array_equal(quant.unpack_codes(buf, codes.shape), codes)

    def test_round_trip_2d(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(-1, 2, (13, 7))
        got = quant.unpack_codes(quant.pack_codes(codes), (13, 7))
        assert np.array_equal(got, codes)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            quant.pack_codes(np.array([0, 2]))

    def test_every_byte_decodes_to_what_packs_to_it(self):
        fields = (np.arange(256)[:, None] >> np.arange(0, 8, 2)) & 0b11
        for byte, row in enumerate(fields):
            buf = bytes([byte])
            if (row == 0b10).any():
                with pytest.raises(ValueError, match="0b10"):
                    quant.unpack_codes(buf, (4,))
                continue
            codes = quant.unpack_codes(buf, (4,))
            assert codes.dtype == np.float32
            assert quant.pack_codes(codes) == buf
            for n in range(1, 4):  # padding fields are dropped
                assert np.array_equal(quant.unpack_codes(buf, (n,)), codes[:n])

    def test_invalid_field_in_the_padding_is_rejected(self):
        # the fields past the last code are still part of the file
        with pytest.raises(ValueError, match="0b10"):
            quant.unpack_codes(bytes([0b10_00_00_01]), (1,))

    def test_little_endian_within_byte(self):
        buf = quant.pack_codes(np.array([1, -1, 0, 1]))
        # fields: 01, 11, 00, 01 -> LSB-first packing = 0b01_00_11_01
        assert buf == bytes([0b01001101])


class TestQuantizedNetwork:
    def test_codes_stored_once_as_float32(self):
        cfg = NetworkConfig(6, 2, 5, 3, n_channels=2)
        params = init_params(cfg, seed=3, init_scale=1.2)
        qnet = quant.QuantizedNetwork.from_params(params, "ternary")
        assert qnet.gates.dtype == np.float32
        assert [c.dtype for c in qnet.conv_codes] == [np.float32] * 2
        assert qnet.fc_raw.dtype == qnet.logits_raw.dtype == np.float64
        assert np.array_equal(qnet.gates,
                              quant.quantize_ternary(params["lstm.gates"]))
        for view in qnet.gate_codes.values():
            assert np.shares_memory(view, qnet.gates)
