import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcnnlstm import fxp, quant
from qcnnlstm.model import (ConvLayerParams, FcParams, LstmParams, LstmState,
                            NetworkConfig, conv1d_relu,
                            fc_residual, load_network, lstm_step,
                            network_forward, network_forward_fixed, predict,
                            save_network, softmax)
from qcnnlstm.train import init_params


def scalar_lstm_params(n_classes=1):
    ones = np.ones((2, 1))
    zeros1 = np.zeros(1)
    return LstmParams(w_forget=ones.copy(), w_input=ones.copy(),
                      w_output=ones.copy(), w_cell=ones.copy(),
                      b_forget=zeros1.copy(), b_input=zeros1.copy(),
                      b_output=zeros1.copy(), b_cell=zeros1.copy(),
                      w_logits=np.ones((1, n_classes)),
                      b_logits=np.zeros(n_classes))


class TestConv:
    def test_hand_convolution_even_width(self):
        layer = ConvLayerParams(np.array([[[1.0, 1.0]]]), np.zeros(1))
        out = conv1d_relu(np.array([1.0, 2.0, 3.0]), layer)
        assert np.allclose(out, [[3.0, 5.0, 3.0]])

    def test_relu_clamps_negatives(self):
        layer = ConvLayerParams(np.array([[[1.0]]]), np.zeros(1))
        out = conv1d_relu(np.array([-1.0, -2.0]), layer)
        assert np.array_equal(out, [[0.0, 0.0]])

    def test_hand_evaluation_with_bias(self):
        # oracle: z = [0.25, -0.15, 0.3] by direct substitution, then ReLU
        layer = ConvLayerParams(np.array([[[0.5, -0.5]]]), np.array([0.1]))
        out = conv1d_relu(np.array([0.2, -0.1, 0.4]), layer)
        assert np.allclose(out, [[0.25, 0.0, 0.3]])

    def test_odd_width_pads_symmetrically(self):
        layer = ConvLayerParams(np.array([[[1.0, 1.0, 1.0]]]), np.zeros(1))
        out = conv1d_relu(np.array([1.0, 1.0, 1.0]), layer)
        assert np.allclose(out, [[2.0, 3.0, 2.0]])

    def test_multichannel_depth(self):
        w = np.zeros((1, 2, 1))
        w[0, 0, 0] = 1.0
        w[0, 1, 0] = 10.0
        layer = ConvLayerParams(w, np.zeros(1))
        out = conv1d_relu(np.array([[1.0, 2.0], [3.0, 4.0]]), layer)
        assert np.allclose(out, [[31.0, 42.0]])

    def test_depth_mismatch_rejected(self):
        layer = ConvLayerParams(np.zeros((1, 2, 1)), np.zeros(1))
        with pytest.raises(ValueError):
            conv1d_relu(np.array([1.0, 2.0]), layer)


class TestFcResidual:
    def test_zero_features_pure_skip(self):
        fc = FcParams(np.zeros((3, 4)))
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(fc_residual(np.zeros((2, 2)), fc, x), x)

    def test_residual_off_returns_projection(self):
        fc = FcParams(np.eye(4))
        maps = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(fc_residual(maps, fc, None), [1, 2, 3, 4])

    def test_hand_evaluation(self):
        # one filter, two positions, fc rows average the maps: 1 + 1.5 = 2.5
        fc = FcParams(np.full((2, 2), 0.5))
        out = fc_residual(np.array([[1.0, 2.0]]), fc, np.array([1.0, 1.0]))
        assert np.allclose(out, [2.5, 2.5])

    def test_shape_mismatch_rejected(self):
        fc = FcParams(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            fc_residual(np.zeros((2, 2)), fc, np.zeros(5))


class TestLstmStep:
    def test_all_zero_weights(self):
        p = scalar_lstm_params(n_classes=2)
        for w in (p.w_forget, p.w_input, p.w_output, p.w_cell, p.w_logits):
            w[:] = 0.0
        p.b_logits[:] = [0.5, -0.5]
        state, logits = lstm_step(np.array([0.0, 1.0]),
                                  LstmState.zeros(1), p)
        assert np.allclose(state.c, 0.0)
        assert np.allclose(state.h, 0.0)
        assert np.allclose(logits, [0.5, -0.5])

    def test_zero_weights_nonzero_cell(self):
        p = scalar_lstm_params()
        for w in (p.w_forget, p.w_input, p.w_output, p.w_cell):
            w[:] = 0.0
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
        p = LstmParams(*(rng.normal(size=(nh + u, nh)) for _ in range(4)),
                       *(rng.normal(size=nh) for _ in range(4)),
                       w_logits=rng.normal(size=(nh, 2)), b_logits=np.zeros(2))
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
        _, manual = lstm_step(xx, LstmState.zeros(3), params.lstm)
        assert np.allclose(logits[0], manual)

    def test_manual_composition_multi_step_with_cnn(self):
        cfg = tiny_cfg(use_cnn=True, n_steps=3)
        params = init_params(cfg, seed=5, init_scale=0.4)
        win = np.random.default_rng(1).uniform(-1, 1, (3, 4))
        logits = network_forward(win, params, cfg)

        state = LstmState.zeros(3)
        for t in range(3):
            maps = conv1d_relu(win[t][None, :], params.conv[0])
            v = fc_residual(maps, params.fc, win[t])
            xx = np.concatenate([state.h, v])
            state, manual = lstm_step(xx, state, params.lstm)
        assert np.allclose(logits[-1], manual)

    def test_zero_input_zero_state_constant_logits(self):
        cfg = tiny_cfg(use_cnn=False, n_steps=4)
        params = init_params(cfg, seed=11, init_scale=0.3)
        for w in (params.lstm.w_forget, params.lstm.w_input,
                  params.lstm.w_output, params.lstm.w_cell):
            w[:3, :] = 0.0  # no recurrent coupling
        logits = network_forward(np.zeros((4, 4)), params, cfg)
        assert np.allclose(logits, logits[0])

    def test_permuting_output_columns_permutes_logits(self):
        cfg = tiny_cfg(use_cnn=False)
        params = init_params(cfg, seed=13, init_scale=0.5)
        win = np.random.default_rng(2).uniform(-1, 1, (2, 4))
        base = network_forward(win, params, cfg)
        params.lstm.w_logits = params.lstm.w_logits[:, ::-1].copy()
        params.lstm.b_logits = params.lstm.b_logits[::-1].copy()
        flipped = network_forward(win, params, cfg)
        assert np.allclose(base[:, ::-1], flipped)

    def test_window_count_mismatch(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=0)
        with pytest.raises(ValueError):
            network_forward(np.zeros((5, 4)), params, cfg)

    def test_predict_breaks_ties_low(self):
        assert predict(np.zeros((2, 3))) == 0


class TestFixedForward:
    def test_matches_float_coarsely(self):
        # quantized engine should agree with the float engine to LUT accuracy
        cfg = NetworkConfig(window_len=6, n_steps=2, n_hidden=4, n_classes=3,
                            use_cnn=False)
        params = init_params(cfg, seed=21, init_scale=1.0)
        for name, w in (("f", params.lstm.w_forget), ("i", params.lstm.w_input),
                        ("o", params.lstm.w_output), ("c", params.lstm.w_cell)):
            w[:] = quant.quantize_ternary(w)
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
        assert predict(logits_raw) == 0


class TestSerialization:
    def test_float_round_trip(self, tmp_path):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=9, init_scale=0.02)
        save_network(tmp_path / "m", params, cfg, mode="full")
        loaded, cfg2, mode = load_network(tmp_path / "m")
        assert mode == "full"
        assert cfg2 == cfg
        assert np.array_equal(loaded.lstm.w_forget, params.lstm.w_forget)
        assert np.array_equal(loaded.conv[0].weights, params.conv[0].weights)
        assert np.array_equal(loaded.fc.weights, params.fc.weights)

    def test_packed_round_trip(self, tmp_path):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=10, init_scale=1.5)
        save_network(tmp_path / "m", params, cfg, mode="ternary")
        loaded, _, mode = load_network(tmp_path / "m")
        assert mode == "ternary"
        want = quant.quantize_ternary(params.lstm.w_cell)
        assert np.array_equal(loaded.lstm.w_cell, want)
        # fc stays full precision even in ternary mode
        assert np.array_equal(loaded.fc.weights, params.fc.weights)
