"""Model tests. TestConv, TestFcResidual, TestLstmStep and TestNetworkForward
check the per-sequence float oracle in `float_oracle.py`; TestFloatEngine
checks the trainer's batched engine against that oracle."""

import hashlib
import json
import tempfile
import tracemalloc
from pathlib import Path

import fixed_oracle
import numpy as np
import pytest
from float_oracle import (LstmState, conv1d_relu, fc_residual, lstm_step,
                          network_forward, sequence_loss)
from hypothesis import given, settings
from hypothesis import strategies as st

from qcnnlstm import cli, datagen, fsm, fxp, model, quant
from qcnnlstm.model import (NetworkConfig, im2col, load_network,
                            network_forward_fixed, save_network, softmax)
from qcnnlstm.train import (TrainConfig, batch_loss_and_grads, forward_logits,
                            init_params, predict_probs)

ROOT = Path(__file__).resolve().parent.parent
STORED_MODEL = ROOT / "bench" / "models" / "ecg200-ternary350"


def scalar_lstm_params(n_classes=1):
    return {"lstm.gates": np.ones((2, 4)), "lstm.gate_bias": np.zeros(4),
            "lstm.w_logits": np.ones((1, n_classes)),
            "lstm.b_logits": np.zeros(n_classes)}


class TestConv:
    def test_hand_convolution_even_width(self):
        out = conv1d_relu(np.array([1.0, 2.0, 3.0]), np.array([[[1.0, 1.0]]]),
                          np.zeros(1))
        assert np.allclose(out, [[3.0, 5.0, 3.0]])

    def test_relu_clamps_negatives(self):
        out = conv1d_relu(np.array([-1.0, -2.0]), np.array([[[1.0]]]),
                          np.zeros(1))
        assert np.array_equal(out, [[0.0, 0.0]])

    def test_hand_evaluation_with_bias(self):
        # oracle: z = [0.25, -0.15, 0.3] by direct substitution, then ReLU
        out = conv1d_relu(np.array([0.2, -0.1, 0.4]),
                          np.array([[[0.5, -0.5]]]), np.array([0.1]))
        assert np.allclose(out, [[0.25, 0.0, 0.3]])

    def test_odd_width_pads_symmetrically(self):
        out = conv1d_relu(np.array([1.0, 1.0, 1.0]),
                          np.array([[[1.0, 1.0, 1.0]]]), np.zeros(1))
        assert np.allclose(out, [[2.0, 3.0, 2.0]])

    def test_multichannel_depth(self):
        w = np.zeros((1, 2, 1))
        w[0, 0, 0] = 1.0
        w[0, 1, 0] = 10.0
        out = conv1d_relu(np.array([[1.0, 2.0], [3.0, 4.0]]), w, np.zeros(1))
        assert np.allclose(out, [[31.0, 42.0]])

    def test_depth_mismatch_rejected(self):
        with pytest.raises(ValueError):
            conv1d_relu(np.array([1.0, 2.0]), np.zeros((1, 2, 1)), np.zeros(1))


class TestFcResidual:
    def test_zero_features_pure_skip(self):
        fc = np.zeros((3, 4))
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(fc_residual(np.zeros((2, 2)), fc, x), x)

    def test_hand_evaluation(self):
        # one filter, two positions, fc rows average the maps: 1 + 1.5 = 2.5
        fc = np.full((2, 2), 0.5)
        out = fc_residual(np.array([[1.0, 2.0]]), fc, np.array([1.0, 1.0]))
        assert np.allclose(out, [2.5, 2.5])

    def test_shape_mismatch_rejected(self):
        fc = np.zeros((3, 4))
        with pytest.raises(ValueError):
            fc_residual(np.zeros((2, 2)), fc, np.zeros(5))


class TestLstmStep:
    def test_all_zero_weights(self):
        p = scalar_lstm_params(n_classes=2)
        p["lstm.gates"][:] = 0.0
        p["lstm.w_logits"][:] = 0.0
        p["lstm.b_logits"][:] = [0.5, -0.5]
        state, logits = lstm_step(np.array([0.0, 1.0]),
                                  LstmState.zeros(1), p)
        assert np.allclose(state.c, 0.0)
        assert np.allclose(state.h, 0.0)
        assert np.allclose(logits, [0.5, -0.5])

    def test_zero_weights_nonzero_cell(self):
        p = scalar_lstm_params()
        p["lstm.gates"][:] = 0.0
        c0 = 0.8
        state, _ = lstm_step(np.array([0.0, 1.0]), LstmState(np.zeros(1),
                                                             np.array([c0])), p)
        assert np.allclose(state.c, 0.5 * c0)
        assert np.allclose(state.h, 0.5 * np.tanh(0.5 * c0))

    def test_scalar_hand_example(self):
        # frozen from an independent scalar script (math module only):
        # gates sigma(1)=0.7310585786300049, tanh(1)=0.7615941559557649,
        # c' = 0.5567699411459397, h' = 0.36960635293570576
        p = scalar_lstm_params()
        state, logits = lstm_step(np.array([0.0, 1.0]), LstmState.zeros(1), p)
        assert state.c[0] == pytest.approx(0.5567699411459397, abs=1e-12)
        assert state.h[0] == pytest.approx(0.36960635293570576, abs=1e-12)
        assert logits[0] == pytest.approx(0.36960635293570576, abs=1e-12)

    def test_gates_stay_in_unit_interval(self):
        rng = np.random.default_rng(7)
        nh, u = 4, 3
        gates = np.concatenate([rng.normal(size=(nh + u, nh)) for _ in range(4)],
                               axis=1)
        gate_bias = np.concatenate([rng.normal(size=nh) for _ in range(4)])
        p = {"lstm.gates": gates, "lstm.gate_bias": gate_bias,
             "lstm.w_logits": rng.normal(size=(nh, 2)),
             "lstm.b_logits": np.zeros(2)}
        state = LstmState.zeros(nh)
        for _ in range(20):
            xx = np.concatenate([state.h, rng.uniform(-1, 1, u)])
            state, _ = lstm_step(xx, state, p)
            assert np.all(np.abs(state.h) < 1.0)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_no_overflow(self):
        p = softmax([1000.0, 0.0])
        assert p[0] == pytest.approx(1.0)
        assert np.isfinite(p).all()

    def test_hand_values(self):
        # frozen from scalar evaluation of e^k / sum
        assert np.allclose(softmax([1.0, 2.0, 3.0]),
                           [0.090031, 0.244728, 0.665241], atol=1e-4)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=6))
    def test_normalized_and_shift_invariant(self, logits):
        p = softmax(logits)
        assert abs(p.sum() - 1.0) < 1e-12
        shifted = softmax(np.asarray(logits) + 13.7)
        assert np.allclose(p, shifted, atol=1e-12)


def tiny_cfg(use_cnn=True, n_steps=2):
    return NetworkConfig(window_len=4, n_steps=n_steps, n_hidden=3,
                         n_classes=2, conv_layers=((2, 2),), use_cnn=use_cnn)


class TestNetworkForward:
    def test_single_step_equals_manual_composition(self):
        cfg = tiny_cfg(use_cnn=False, n_steps=1)
        params = init_params(cfg, seed=3, init_scale=0.5)
        win = np.random.default_rng(0).uniform(-1, 1, (1, 4))
        logits = network_forward(win, params, cfg)
        xx = np.concatenate([np.zeros(3), win[0]])
        _, manual = lstm_step(xx, LstmState.zeros(3), params)
        assert np.allclose(logits[0], manual)

    def test_manual_composition_multi_step_with_cnn(self):
        cfg = tiny_cfg(use_cnn=True, n_steps=3)
        params = init_params(cfg, seed=5, init_scale=0.4)
        win = np.random.default_rng(1).uniform(-1, 1, (3, 4))
        logits = network_forward(win, params, cfg)

        state = LstmState.zeros(3)
        for t in range(3):
            maps = conv1d_relu(win[t][None, :], params["conv0.weights"],
                               params["conv0.bias"])
            v = fc_residual(maps, params["fc.weights"], win[t])
            xx = np.concatenate([state.h, v])
            state, manual = lstm_step(xx, state, params)
        assert np.allclose(logits[-1], manual)

    def test_zero_input_zero_state_constant_logits(self):
        cfg = tiny_cfg(use_cnn=False, n_steps=4)
        params = init_params(cfg, seed=11, init_scale=0.3)
        params["lstm.gates"][:3, :] = 0.0  # no recurrent coupling
        logits = network_forward(np.zeros((4, 4)), params, cfg)
        assert np.allclose(logits, logits[0])

    def test_permuting_output_columns_permutes_logits(self):
        cfg = tiny_cfg(use_cnn=False)
        params = init_params(cfg, seed=13, init_scale=0.5)
        win = np.random.default_rng(2).uniform(-1, 1, (2, 4))
        base = network_forward(win, params, cfg)
        params["lstm.w_logits"] = params["lstm.w_logits"][:, ::-1].copy()
        params["lstm.b_logits"] = params["lstm.b_logits"][::-1].copy()
        flipped = network_forward(win, params, cfg)
        assert np.allclose(base[:, ::-1], flipped)

    def test_window_count_mismatch(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=0)
        with pytest.raises(ValueError):
            network_forward(np.zeros((5, 4)), params, cfg)

    def test_one_class_is_no_classifier(self):
        with pytest.raises(ValueError, match="n_classes = 1"):
            NetworkConfig(4, 2, 3, 1)


class TestFixedForward:
    def test_matches_float_coarsely(self):
        # quantized engine should agree with the float engine to LUT accuracy
        cfg = NetworkConfig(window_len=6, n_steps=2, n_hidden=4, n_classes=3,
                            use_cnn=False)
        params = init_params(cfg, seed=21, init_scale=1.0)
        params["lstm.gates"][:] = quant.quantize_ternary(params["lstm.gates"])
        win = np.random.default_rng(3).uniform(-1, 1, (2, 6))
        qnet = quant.QuantizedNetwork.from_params(params, "ternary")
        raw = fxp.to_raw(win)
        fixed_logits = fxp.from_raw(network_forward_fixed(raw, qnet, cfg))
        float_logits = network_forward(win, params, cfg)
        assert np.abs(fixed_logits - float_logits).max() < 0.2

    @pytest.mark.parametrize("use_cnn", [False, True])
    def test_batch_rows_equal_single_calls(self, use_cnn):
        cfg = NetworkConfig(window_len=5, n_steps=3, n_hidden=6, n_classes=3,
                            n_channels=2, conv_layers=((3, 3), (2, 2)),
                            use_cnn=use_cnn)
        params = init_params(cfg, seed=22, init_scale=1.2)
        qnet = quant.QuantizedNetwork.from_params(params, "ternary")
        raws = fxp.to_raw(np.random.default_rng(5).uniform(
            -2, 2, (7, cfg.n_steps, cfg.input_len)))
        batch = network_forward_fixed(raws, qnet, cfg)
        assert batch.shape == (7, cfg.n_steps, cfg.n_classes)
        for raw, row in zip(raws, batch):
            assert np.array_equal(network_forward_fixed(raw, qnet, cfg), row)

    def test_all_zero_weights_class_zero(self):
        cfg = tiny_cfg(use_cnn=False)
        params = init_params(cfg, seed=2, init_scale=0.0)
        qnet = quant.QuantizedNetwork.from_params(params, "ternary")
        raw = fxp.to_raw(np.random.default_rng(4).uniform(-1, 1, (2, 4)))
        logits_raw = network_forward_fixed(raw, qnet, cfg)
        assert np.all(logits_raw == 0)


def recurrence_case(rec_code, windows):
    """16 hidden units, 2 inputs: every gate column has input codes +1 and
    recurrent codes `rec_code`, so each step's input partial sum is the
    window's sum and the recurrent one is rec_code * 16 * h."""
    n_h = 16
    cfg = NetworkConfig(window_len=2, n_steps=len(windows), n_hidden=n_h,
                        n_classes=2, use_cnn=False)
    gates = np.vstack([np.full((n_h, 4 * n_h), rec_code),
                       np.ones((2, 4 * n_h))])
    w_logits = np.tile([[0.5, -0.25]], (n_h, 1))
    qnet = quant.QuantizedNetwork([], None, gates, fxp.to_raw(w_logits))
    return cfg, qnet, np.array(windows)


class TestFixedEngineRanges:
    """Product tiers and the hoisted input projection against the oracle."""

    @pytest.mark.parametrize("input_len", [8192, 8193])
    def test_float32_bound_on_the_input_projection(self, input_len):
        # the input half's fan-in is input_len: float32 up to 8192 terms of
        # 12-bit activations, float64 from 8193
        cfg = NetworkConfig(window_len=input_len, n_steps=2, n_hidden=2,
                            n_classes=2, use_cnn=False)
        rng = np.random.default_rng(input_len)
        params = init_params(cfg, seed=input_len, init_scale=0.6)
        qnet = quant.QuantizedNetwork.from_params(params, "ternary")
        raws = fxp.to_raw(rng.uniform(-0.1, 0.1, (2, 2, input_len)))
        got = network_forward_fixed(raws, qnet, cfg)
        for raw, row in zip(raws, got):
            assert row.tolist() == fixed_oracle.forward(raw, qnet, cfg)

    @pytest.mark.parametrize("fused,tier", [(8192, np.float32),
                                            (8193, np.float64)])
    def test_fused_gate_sum_tiers(self, fused, tier):
        # the gate sum [h, window] @ gates has fan-in n_hidden + input_len:
        # 8192 terms of 12-bit codes keep it in float32, 8193 need float64.
        # Every input but the last is raw_min. In columns 0, 4, ... the
        # codes cancel in halves, so partial sums reach about 2**23 while
        # the total is the last input, less 2048 when the halves differ by
        # one row; the other columns pass raw_min (+1 codes), raw_max (-1
        # codes) or take random codes
        n_h = 4
        input_len = fused - n_h
        cfg = NetworkConfig(window_len=input_len, n_steps=3, n_hidden=n_h,
                            n_classes=2, use_cnn=False)
        rng = np.random.default_rng(fused)
        gates = rng.integers(-1, 2, (fused, 4 * n_h)).astype(float)
        half = (input_len - 1) // 2
        gates[n_h:n_h + half, 0::4] = -1
        gates[n_h + half:, 0::4] = 1
        gates[n_h:, 1::4] = 1
        gates[n_h:, 2::4] = -1
        qnet = quant.QuantizedNetwork(
            [], None, gates, fxp.to_raw(rng.uniform(-1, 1, (n_h, 2))))
        assert fxp._product_dtype(len(qnet.gates), 11) is tier
        fmt = fxp.ACT_FORMAT
        raws = np.full((2, cfg.n_steps, input_len), fmt.raw_min)
        raws[:, :, -1] = rng.integers(0, fmt.raw_max + 1, (2, cfg.n_steps))
        sums = raws[:, 0] @ gates[n_h:]
        assert fmt.raw_min <= sums[:, 0::4].min() <= sums[:, 0::4].max() \
            <= fmt.raw_max
        assert sums[:, 1::4].max() < -(1 << 23) and \
            sums[:, 2::4].min() > 1 << 23
        got = network_forward_fixed(raws, qnet, cfg)
        for row, raw in zip(got, raws):
            assert row.tolist() == fixed_oracle.forward(raw, qnet, cfg)

    def test_gate_sums_saturate_at_both_ends(self):
        # the input codes are +1 in even gate columns and -1 in odd ones, so
        # a window of 2000s puts every input partial at +-4000, past both
        # ends of Q4.8, and the recurrent half (at most 2 * 256) cannot
        # bring it back: every step, step 0 included, clips at both ends
        n_h = 2
        cfg = NetworkConfig(window_len=2, n_steps=3, n_hidden=n_h,
                            n_classes=2, use_cnn=False)
        rng = np.random.default_rng(7)
        gates = np.vstack([rng.integers(-1, 2, (n_h, 4 * n_h)),
                           np.tile([1, -1], (2, 2 * n_h))]).astype(float)
        qnet = quant.QuantizedNetwork([], None, gates,
                                      fxp.to_raw(rng.uniform(-1, 1, (n_h, 2))))
        windows = np.array([[[2000, 2000], [-2000, -2000], [2000, 2000]],
                            [[-2000, -2000], [2000, 1900], [-1900, -2000]]])
        for window in windows:
            sums = window @ gates[n_h:]
            assert (sums.max(axis=1) > 2047 + 512).all()
            assert (sums.min(axis=1) < -2048 - 512).all()
        batch = network_forward_fixed(windows, qnet, cfg)
        for row, window in zip(batch, windows):
            want = fixed_oracle.forward(window, qnet, cfg)
            assert row.tolist() == want
            assert network_forward_fixed(window, qnet, cfg).tolist() == want

    @pytest.mark.parametrize("batch", [1, 3])
    def test_cnn_with_live_codes_over_the_full_range(self, batch):
        # conv sums of five taps of full-range inputs pass both ends; the
        # ReLU and the saturation both act, and the FC and residual see
        # maps at raw_max
        cfg = NetworkConfig(window_len=7, n_steps=3, n_hidden=5, n_classes=3,
                            n_channels=2, conv_layers=((4, 5), (3, 2)))
        params = init_params(cfg, seed=batch, init_scale=1.0)
        qnet = quant.QuantizedNetwork.from_params(params, "ternary")
        for codes in qnet.conv_codes:
            assert np.count_nonzero(codes) > codes.size // 3
        rng = np.random.default_rng(batch)
        fmt = fxp.ACT_FORMAT
        raws = rng.integers(fmt.raw_min, fmt.raw_max + 1,
                            (batch, cfg.n_steps, cfg.input_len))
        raws[0, 0, :4] = fmt.raw_max
        got = network_forward_fixed(raws, qnet, cfg)
        assert got.dtype == np.int64
        for raw, row in zip(raws, got):
            assert row.tolist() == fixed_oracle.forward(raw, qnet, cfg)

    @pytest.mark.parametrize("rec_code,windows", [
        (-1, [[2000, 2000], [2000, 2000]]),    # input partial above raw_max
        (1, [[2000, 2000], [-2000, -2000]]),   # input partial below raw_min
        (1, [[2000, 2000], [-1000, -1000]]),   # recurrent partial above raw_max
    ])
    def test_hoisted_sum_saturates_once(self, rec_code, windows):
        # step 1 drives every h to about 0.78 (raw 201); at step 2 one
        # partial sum alone lies outside the format (4000, -4000, or
        # 16 * 201) and the other brings the total back into range; the
        # engine must saturate only that total, as the oracle does
        cfg, qnet, raw = recurrence_case(rec_code, windows)
        assert np.abs(raw[-1] @ qnet.gates[cfg.n_hidden:]).max() > 1900
        got = network_forward_fixed(raw, qnet, cfg)
        assert got.tolist() == fixed_oracle.forward(raw, qnet, cfg)

    def test_wide_gesture_like_model(self):
        # 128 channels x 5 samples: the gesture input width
        cfg = NetworkConfig(window_len=5, n_steps=3, n_hidden=64, n_classes=8,
                            n_channels=128, use_cnn=False)
        rng = np.random.default_rng(640)
        params = init_params(cfg, seed=640, init_scale=1.0)
        qnet = quant.QuantizedNetwork.from_params(params, "ternary")
        levels = rng.uniform(-0.5, 0.5, (2, 1, cfg.n_channels, 1))
        x = levels + rng.uniform(-0.5, 0.5, (2, 3, cfg.n_channels, 5))
        raws = fxp.to_raw(x.reshape(2, 3, cfg.input_len))
        got = network_forward_fixed(raws, qnet, cfg)
        for raw, row in zip(raws, got):
            assert row.tolist() == fixed_oracle.forward(raw, qnet, cfg)


class TestDirectTables:
    """The engine's direct-address tables, their format cap, and the engine
    against the oracle at formats other than Q4.8."""

    @pytest.mark.parametrize("size", [16, 32, 64, 128])
    @pytest.mark.parametrize("fmt", [fxp.QFormat(12, 8), fxp.QFormat(16, 8),
                                     fxp.QFormat(10, 6)], ids=str)
    def test_every_code_reads_its_lut_index_raw_entry(self, fmt, size):
        lut = model._lut(size, fmt)
        codes = np.arange(fmt.raw_min, fmt.raw_max + 1)
        n = 1 << fmt.total_bits
        assert len(codes) == n and len(lut) == 2 * n
        for half, kind in enumerate(("sigmoid", "tanh")):
            table = fxp.build_lut(kind, size)
            want = fxp.lut_entries_in(table, fmt)[
                fxp.lut_index_raw(codes, table, fmt)]
            assert np.array_equal(lut[codes - fmt.raw_min + half * n], want)

    @pytest.mark.parametrize("fmt", [fxp.QFormat(16, 8), fxp.QFormat(10, 6)],
                             ids=str)
    def test_engine_matches_the_oracle(self, fmt):
        # inputs uniform in +-8: the first step's gate sums alone take
        # negative codes and reach both ends of both tables
        rng = np.random.default_rng(fmt.total_bits)
        first_sums = []
        for k in range(24):
            use_cnn = k % 2 == 1
            cfg = NetworkConfig(window_len=int(rng.integers(3, 8)), n_steps=3,
                                n_hidden=int(rng.integers(2, 10)), n_classes=3,
                                conv_layers=((2, 3), (2, 2)), use_cnn=use_cnn)
            params = init_params(cfg, seed=k, init_scale=1.2)
            qnet = quant.QuantizedNetwork.from_params(params, "ternary", fmt)
            raw = fxp.to_raw(rng.uniform(-8, 8, (cfg.n_steps, cfg.input_len)),
                             fmt)
            got = network_forward_fixed(raw, qnet, cfg, fmt)
            assert got.tolist() == fixed_oracle.forward(raw, qnet, cfg, fmt)
            if not use_cnn:
                first_sums.append(fxp.dot_ternary(
                    raw[0], qnet.gates[cfg.n_hidden:], fmt=fmt))
        sums = np.concatenate(first_sums)
        assert sums.min() < 0
        for kind in ("sigmoid", "tanh"):
            table = fxp.build_lut(kind, fxp.LUT_SIZE)
            cells = set(fxp.lut_index_raw(sums, table, fmt).tolist())
            assert {0, fxp.LUT_SIZE - 1} <= cells

    def test_format_wider_than_16_bits_is_rejected(self):
        wide = fxp.QFormat(17, 8)
        with pytest.raises(ValueError, match="16"):
            fsm.MachineConfig(activation_format=wide)
        cfg = NetworkConfig(window_len=2, n_steps=1, n_hidden=2, n_classes=2,
                            use_cnn=False)
        qnet = quant.QuantizedNetwork.from_params(init_params(cfg, seed=0),
                                                  "ternary", wide)
        with pytest.raises(ValueError, match="16"):
            network_forward_fixed(np.zeros((1, 2), np.int64), qnet, cfg, wide)


def im2col_reference(maps, m):
    """Row n * length + pos, column d * m + a: map d of window n at
    pos + a - (m - 1) // 2, or 0 outside the window; one tap at a time."""
    n, depth, length = maps.shape
    left = (m - 1) // 2
    out = np.zeros((n * length, depth * m), dtype=maps.dtype)
    for i in range(n):
        for pos in range(length):
            for d in range(depth):
                for a in range(m):
                    src = pos + a - left
                    if 0 <= src < length:
                        out[i * length + pos, d * m + a] = maps[i, d, src]
    return out


class TestIm2col:
    @pytest.mark.parametrize("batch", [1, 400])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    @pytest.mark.parametrize("depth", [1, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_equals_the_per_tap_reference(self, m, depth, dtype, batch):
        rng = np.random.default_rng(m * depth * batch)
        maps = rng.uniform(-9, 9, (batch, depth, 6)).astype(dtype)
        got = im2col(maps, m)
        assert got.dtype == dtype
        assert np.array_equal(got, im2col_reference(maps, m))

    @pytest.mark.parametrize("m", [1, 2, 5, 9])
    def test_fills_every_entry_of_a_used_buffer(self, m):
        # widths past the map length leave whole taps in the padding
        maps = np.random.default_rng(m).uniform(-9, 9, (3, 2, 4))
        out = np.full((3 * 4, 2 * m), 7.0)
        assert im2col(maps, m, out=out) is out
        assert np.array_equal(out, im2col_reference(maps, m))


class TestSerialization:
    def test_float_round_trip(self, tmp_path):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=9, init_scale=0.02)
        save_network(tmp_path / "m", params, cfg, mode="full")
        loaded, cfg2, mode = load_network(tmp_path / "m")
        assert mode == "full"
        assert cfg2 == cfg
        assert np.array_equal(loaded["lstm.gates"], params["lstm.gates"])
        assert np.array_equal(loaded["conv0.weights"], params["conv0.weights"])
        assert np.array_equal(loaded["fc.weights"], params["fc.weights"])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_tensor_is_not_saved(self, tmp_path, value):
        cfg = NetworkConfig(4, 2, 3, 2, use_cnn=False)
        params = init_params(cfg, seed=0)
        params["lstm.gates"][1, 2] = value
        with pytest.raises(ValueError, match="lstm.gates"):
            save_network(tmp_path / "m", params, cfg)
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_stored_tensor_is_a_data_error(self, tmp_path, value):
        cfg = NetworkConfig(4, 2, 3, 2, use_cnn=False)
        save_network(tmp_path / "m", init_params(cfg), cfg)
        path = tmp_path / "m" / "lstm_b_logits.bin"
        values = np.fromfile(path, "<f8")
        values[1] = value
        values.tofile(path)
        with pytest.raises(datagen.DataFormatError,
                           match=f"{path}: lstm.b_logits holds a non-finite"):
            load_network(tmp_path / "m")

    def test_packed_round_trip(self, tmp_path):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=10, init_scale=1.5)
        save_network(tmp_path / "m", params, cfg, mode="ternary")
        loaded, _, mode = load_network(tmp_path / "m")
        assert mode == "ternary"
        want = quant.quantize_ternary(params["lstm.gates"])
        assert np.array_equal(loaded["lstm.gates"], want)
        # fc stays full precision even in ternary mode
        assert np.array_equal(loaded["fc.weights"], params["fc.weights"])

    def test_codes_load_as_float32_and_the_rest_as_float64(self, tmp_path):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=10, init_scale=1.5)
        for mode in ("full", "binary", "ternary"):
            save_network(tmp_path / mode, params, cfg, mode=mode)
            loaded, _, _ = load_network(tmp_path / mode)
            for name, w in loaded.items():
                coded = mode != "full" and quant.is_quantized(name)
                assert w.dtype == (np.float32 if coded else np.float64), name
                assert w.flags.writeable and w.flags.c_contiguous, name

    @pytest.mark.parametrize("mode", ["full", "binary", "ternary"])
    @pytest.mark.parametrize("use_cnn", [True, False])
    def test_the_parameter_dict_round_trips_in_order(self, tmp_path, use_cnn,
                                                     mode):
        cfg = NetworkConfig(window_len=4, n_steps=2, n_hidden=3, n_classes=2,
                            conv_layers=((2, 3), (2, 2)), use_cnn=use_cnn)
        params = init_params(cfg, seed=12, init_scale=1.5)
        cnn = ["conv0.weights", "conv0.bias", "conv1.weights", "conv1.bias",
               "fc.weights"] if use_cnn else []
        assert list(params) == cnn + ["lstm.gates", "lstm.gate_bias",
                                      "lstm.w_logits", "lstm.b_logits"]
        save_network(tmp_path / "m", params, cfg, mode=mode)
        loaded, _, _ = load_network(tmp_path / "m")
        assert list(loaded) == list(params)
        manifest = (tmp_path / "m" / "params.manifest").read_text()
        gates = [f"lstm.{kind}_{gate}" for gate in quant.GATE_ORDER
                 for kind in "wb"]
        assert [line.split("\t")[0] for line in manifest.splitlines()] == \
            cnn + gates + ["lstm.w_logits", "lstm.b_logits"]
        want = model.network_tensors(params, mode)
        for name, w in loaded.items():
            coded = mode != "full" and quant.is_quantized(name)
            assert w.dtype == (np.float32 if coded else np.float64), name
            assert np.array_equal(w, want[name]), name

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(mode=st.sampled_from(["binary", "ternary"]), use_cnn=st.booleans(),
           seed=st.integers(0, 2**31 - 1))
    def test_a_loaded_network_quantizes_as_the_saved_one(self, mode, use_cnn,
                                                         seed):
        rng = np.random.default_rng(seed)
        layers = tuple((int(rng.integers(1, 4)), int(rng.integers(1, 5)))
                       for _ in range(int(rng.integers(1, 3))))
        cfg = NetworkConfig(window_len=int(rng.integers(2, 7)),
                            n_steps=int(rng.integers(1, 4)),
                            n_hidden=int(rng.integers(1, 7)),
                            n_classes=int(rng.integers(2, 4)),
                            n_channels=int(rng.integers(1, 4)),
                            conv_layers=layers, use_cnn=use_cnn)
        params = init_params(cfg, seed=seed, init_scale=1.5)
        want = quant.QuantizedNetwork.from_params(params, mode)
        with tempfile.TemporaryDirectory() as tmp:
            save_network(tmp, params, cfg, mode=mode)
            loaded, _, loaded_mode = load_network(tmp)
        got = quant.QuantizedNetwork.from_params(loaded, loaded_mode)
        assert len(got.conv_codes) == len(want.conv_codes) == \
            len(cfg.conv_shapes())
        pairs = list(zip(got.conv_codes, want.conv_codes)) + [
            (got.gates, want.gates), (got.logits_raw, want.logits_raw)]
        if use_cnn:
            pairs.append((got.fc_raw, want.fc_raw))
        else:
            assert got.fc_raw is want.fc_raw is None
        for a, b in pairs:
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert got.weight_format == want.weight_format
        for gate, view in got.gate_codes.items():
            assert np.shares_memory(view, got.gates)
            assert np.array_equal(view, want.gate_codes[gate])

    def test_loading_the_stored_model_keeps_few_copies_of_its_codes(self):
        # the codes go from the packed files to the engine in float32: the
        # file-per-gate codes, the fused gates and the network's codes, not
        # int64 or float64 copies of them
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            params, _, mode = load_network(STORED_MODEL)
            qnet = quant.QuantizedNetwork.from_params(params, mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        assert qnet.gates.dtype == np.float32
        assert peak < 3 * qnet.gates.nbytes


class TestTensorTable:
    """`NetworkConfig.tensor_shapes` is the one statement of a network's
    tensors: `init_params` allocates from it, `load_network` checks against
    it."""

    # sha256 over every tensor's bytes, in dict order: another draw order
    # changes every model trained or built from `init_params`
    @pytest.mark.parametrize("cfg, digest", [
        (NetworkConfig(window_len=5, n_steps=3, n_hidden=4, n_classes=3,
                       n_channels=2, conv_layers=((3, 3), (2, 2))),
         "2fdb890c02873072586e90f1fb9ff512c0c26e3b767fdc4244148a291e503d6e"),
        (NetworkConfig(window_len=6, n_steps=2, n_hidden=5, n_classes=2,
                       n_channels=3, use_cnn=False),
         "10192295160dd086501b815d52c91234e4830505f529b5b4ab11d71597e1a297"),
    ], ids=["cnn", "no-cnn"])
    def test_init_params_draws_are_pinned(self, cfg, digest):
        h = hashlib.sha256()
        for w in init_params(cfg, seed=11, init_scale=0.5).values():
            h.update(w.tobytes())
        assert h.hexdigest() == digest

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           mode=st.sampled_from(["full", "binary", "ternary"]))
    def test_init_and_load_give_the_tables_names_order_and_shapes(self, seed,
                                                                 mode):
        rng = np.random.default_rng(seed)
        layers = tuple((int(rng.integers(1, 4)), int(rng.integers(1, 5)))
                       for _ in range(int(rng.integers(1, 4))))
        cfg = NetworkConfig(window_len=int(rng.integers(1, 7)),
                            n_steps=int(rng.integers(1, 4)),
                            n_hidden=int(rng.integers(1, 7)),
                            n_classes=int(rng.integers(2, 5)),
                            n_channels=int(rng.integers(1, 4)),
                            conv_layers=layers,
                            use_cnn=bool(rng.integers(0, 2)))
        want = list(cfg.tensor_shapes().items())
        params = init_params(cfg, seed=seed, init_scale=1.0)
        assert [(name, w.shape) for name, w in params.items()] == want
        with tempfile.TemporaryDirectory() as tmp:
            save_network(tmp, params, cfg, mode=mode)
            loaded, _, _ = load_network(tmp)
        assert [(name, w.shape) for name, w in loaded.items()] == want

    @pytest.mark.parametrize("wrong, first", [
        (("lstm.b_logits", "conv1.bias"), "conv1.bias"),
        (("lstm.w_logits", "fc.weights"), "fc.weights"),
        # every weight file of the fused gates comes before any bias file
        (("lstm.b_forget", "lstm.w_cell"), "lstm.w_cell"),
    ])
    def test_of_two_wrong_tensors_the_first_in_table_order_is_named(
            self, tmp_path, wrong, first):
        cfg = NetworkConfig(window_len=4, n_steps=2, n_hidden=3, n_classes=2,
                            conv_layers=((2, 3), (2, 2)))
        save_network(tmp_path, init_params(cfg), cfg)
        manifest = tmp_path / "params.manifest"
        lines = []
        for line in manifest.read_text().splitlines():
            name, dtype, shape, fname = line.split("\t")
            if name in wrong:  # the same bytes, read as a column
                shape += ",1"
            lines.append("\t".join((name, dtype, shape, fname)))
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(datagen.DataFormatError,
                           match=f"params.manifest: {first} has shape"):
            load_network(tmp_path)

    def test_per_gate_bias_files_are_biases(self):
        for gate in quant.GATE_ORDER:
            assert quant.is_bias(f"lstm.b_{gate}")
            assert not quant.is_bias(f"lstm.w_{gate}")
        assert not any(quant.is_bias(name) and quant.is_quantized(name)
                       for name in NetworkConfig(4, 2, 3, 2).tensor_shapes())


def random_engine_case(rng, mode):
    """A tiny random network, batch and labels over the engine's branches."""
    use_cnn = bool(rng.integers(0, 2))
    layers = tuple((int(rng.integers(1, 4)), int(rng.integers(1, 5)))
                   for _ in range(int(rng.integers(1, 3))))
    cfg = NetworkConfig(window_len=int(rng.integers(3, 7)),
                        n_steps=int(rng.integers(1, 5)),
                        n_hidden=int(rng.integers(1, 7)),
                        n_classes=int(rng.integers(2, 4)),
                        n_channels=int(rng.integers(1, 4)),
                        conv_layers=layers, use_cnn=use_cnn)
    params = init_params(cfg, seed=int(rng.integers(2**31)), init_scale=1.0)
    for name, w in params.items():
        if quant.is_bias(name):
            w += rng.uniform(-0.3, 0.3, w.shape)
    b = int(rng.integers(1, 6))
    windows = rng.uniform(-1, 1, (b, cfg.n_steps, cfg.input_len))
    labels = rng.integers(0, cfg.n_classes, b)
    return cfg, params, windows, labels


def coded(params, mode):
    """The parameters the forward pass of `mode` reads, for the oracle:
    binary/ternary networks compute with codes and zero biases."""
    if mode == "full":
        return params
    return {name: quant.quantize_weights(w, mode) if quant.is_quantized(name)
            else np.zeros_like(w) if quant.is_bias(name) else w
            for name, w in params.items()}


class TestFloatEngine:
    @pytest.mark.parametrize("mode", ["full", "ternary", "binary"])
    def test_logits_and_loss_match_oracle(self, mode):
        rng = np.random.default_rng({"full": 31, "ternary": 32, "binary": 33}[mode])
        seen = set()
        for _ in range(80):
            cfg, params, windows, labels = random_engine_case(rng, mode)
            ref = coded(params, mode)
            want = np.stack([network_forward(w, ref, cfg) for w in windows])
            got = forward_logits(params, windows, cfg, mode)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
            want_loss = np.mean([sequence_loss(l, y)
                                 for l, y in zip(want, labels)])
            loss, _ = batch_loss_and_grads(windows, labels, params, cfg,
                                           TrainConfig(mode=mode))
            assert loss == pytest.approx(want_loss, rel=1e-12)
            widths = {m % 2 for _, m in cfg.conv_layers}
            seen.add((cfg.use_cnn, len(windows) > 1, cfg.n_channels > 1,
                      frozenset(widths)))
        assert {c for c, *_ in seen} == {False, True}
        assert {w for *_, w in seen} >= {frozenset({0}), frozenset({1})}

    def test_batch_rows_equal_single_sequences(self):
        rng = np.random.default_rng(34)
        cfg, params, windows, _ = random_engine_case(rng, "full")
        batch = forward_logits(params, windows, cfg)
        for w, row in zip(windows, batch):
            np.testing.assert_allclose(forward_logits(params, w[None], cfg)[0],
                                       row, rtol=1e-13, atol=1e-15)

    def test_window_count_mismatch(self):
        cfg = tiny_cfg()
        with pytest.raises(ValueError):
            forward_logits(init_params(cfg), np.zeros((1, 5, 4)), cfg)


def _dir_bytes(path):
    return {f.name: f.read_bytes() for f in sorted(Path(path).iterdir())}


class TestModelDirectoryFormat:
    def test_stored_model_round_trips_byte_for_byte(self, tmp_path):
        params, cfg, mode = load_network(STORED_MODEL)
        save_network(tmp_path / "m", params, cfg, mode)
        got, want = _dir_bytes(tmp_path / "m"), _dir_bytes(STORED_MODEL)
        # the stored config.txt also records the residual add, which every
        # network has and no longer writes
        assert got.pop("config.txt") == \
            want.pop("config.txt").replace(b"residual = 1\n", b"")
        assert got == want

    def test_full_precision_round_trips_byte_for_byte(self, tmp_path):
        cfg = NetworkConfig(window_len=4, n_steps=2, n_hidden=3, n_classes=2,
                            conv_layers=((2, 3), (2, 2)))
        params = init_params(cfg, seed=15, init_scale=0.7)
        params["lstm.gate_bias"][:] = np.arange(12) / 7.0
        save_network(tmp_path / "a", params, cfg, mode="full")
        save_network(tmp_path / "b", *load_network(tmp_path / "a"))
        files = _dir_bytes(tmp_path / "a")
        assert files == _dir_bytes(tmp_path / "b")
        # one file per gate, columns k * n_hidden onwards in GATE_ORDER
        for k, gate in enumerate(quant.GATE_ORDER):
            cols = slice(3 * k, 3 * k + 3)
            assert files[f"lstm_w_{gate}.bin"] == \
                params["lstm.gates"][:, cols].astype("<f8").tobytes()
            assert files[f"lstm_b_{gate}.bin"] == \
                params["lstm.gate_bias"][cols].astype("<f8").tobytes()

    def test_stored_model_reproduces_recorded_digests(self):
        # the benchmark's record of this model: the gate blocks must load
        # into the slots both engines read them from
        expected = json.loads((ROOT / "bench" / "expected.json").read_text())
        params, cfg, mode = load_network(STORED_MODEL)
        _, test_seqs, _, _ = cli.load_split_sequences(
            ROOT / "data" / "ECG200", {"window_len": 20, "n_steps": 4})
        qnet = quant.QuantizedNetwork.from_params(params, mode)
        raws = np.stack([fxp.to_raw(s.windows) for s in test_seqs])
        logits = network_forward_fixed(raws, qnet, cfg)
        digest = hashlib.sha256(logits.astype("<i8").tobytes()).hexdigest()
        assert digest == expected["ecg200"]["fixed_logits_sha256"]
        labels = np.array([s.label for s in test_seqs])
        probs = predict_probs(params, test_seqs, cfg, mode)
        accuracy = f"{(probs.argmax(axis=1) == labels).mean():.4f}"
        assert accuracy == expected["ecg200"]["eval_accuracy"]
