import numpy as np
import pytest
from hypothesis import given
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

    @given(arrays(np.float64, 16, elements=st.floats(-1, 1)))
    def test_values_are_codes(self, r):
        q = quant.quantize_ternary(r)
        assert set(np.unique(q)) <= {-1.0, 0.0, 1.0}

    @given(arrays(np.float64, 16, elements=st.floats(-1, 1)))
    def test_idempotent(self, r):
        q = quant.quantize_ternary(r)
        assert np.array_equal(quant.quantize_ternary(q), q)
        qb = quant.quantize_binary(quant.quantize_binary(r))
        assert np.array_equal(qb, quant.quantize_binary(r))


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
                              quant.quantize_ternary(params.lstm.gates))
        for view in qnet.gate_codes.values():
            assert np.shares_memory(view, qnet.gates)
