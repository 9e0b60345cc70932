import hashlib
import math
import re
import warnings

import numpy as np
import pytest
import scipy.stats

from float_oracle import cross_entropy, loss_gradient, network_forward
from qcnnlstm import quant
from qcnnlstm import train as train_mod
from qcnnlstm.datagen import WindowedSequence, make_sine_dataset
from qcnnlstm.model import NetworkConfig, softmax
from qcnnlstm.train import (ADAGRAD_BLOCK, ADAGRAD_EPSILON, AdagradState,
                            TrainConfig, adagrad_step, auc_macro,
                            batch_loss_and_grads, confusion_matrix,
                            forward_logits, init_params, predict_probs,
                            sequence_loss_and_grads, train, write_trace)


class TestCrossEntropy:
    def test_confident_correct_is_near_zero(self):
        assert cross_entropy([100.0, 0.0], 0) < 1e-6

    def test_uniform_logits(self):
        assert cross_entropy(np.zeros(5), 2) == pytest.approx(math.log(5))

    def test_hand_value(self):
        # frozen from scalar evaluation: -ln(e^3 / (e + e^2 + e^3))
        assert cross_entropy([1.0, 2.0, 3.0], 2) == pytest.approx(
            0.4076059644443803, abs=1e-12)

    def test_no_overflow(self):
        assert np.isfinite(cross_entropy([1e4, -1e4], 1))


class TestLossGradient:
    def test_substitution(self):
        assert np.allclose(loss_gradient([0.7, 0.3], 0), [-0.3, 0.3])

    def test_perfect_prediction_zero(self):
        assert np.allclose(loss_gradient([0.0, 1.0, 0.0], 1), 0.0)

    def test_components_sum_to_zero(self):
        p = np.random.default_rng(0).dirichlet(np.ones(6))
        assert loss_gradient(p, 3).sum() == pytest.approx(0.0, abs=1e-12)


def random_instance(cfg, seed, kink_free=True):
    rng = np.random.default_rng(seed)
    params = init_params(cfg, seed=seed, init_scale=0.5)
    if kink_free:
        # nonzero conv biases keep pre-activations off the exact ReLU kink,
        # where central differences are invalid
        for i in range(len(cfg.conv_shapes())):
            bias = params[f"conv{i}.bias"]
            bias += rng.uniform(-0.3, 0.3, bias.shape)
    seq = WindowedSequence(rng.uniform(-1, 1, (cfg.n_steps, cfg.input_len)),
                           int(rng.integers(0, cfg.n_classes)))
    return params, seq


def finite_difference_check(cfg, seed, step=1e-5, tol=1e-4):
    params, seq = random_instance(cfg, seed)
    tc = TrainConfig()
    _, grads = sequence_loss_and_grads(seq, params, cfg, tc)
    worst = 0.0
    for name, g in grads.items():
        flat_t, flat_g = params[name].ravel(), g.ravel()
        for k in range(flat_t.size):
            orig = flat_t[k]
            flat_t[k] = orig + step
            lp, _ = sequence_loss_and_grads(seq, params, cfg, tc)
            flat_t[k] = orig - step
            lm, _ = sequence_loss_and_grads(seq, params, cfg, tc)
            flat_t[k] = orig
            fd = (lp - lm) / (2 * step)
            err = abs(flat_g[k] - fd) / max(abs(fd), abs(flat_g[k]), 1e-3)
            worst = max(worst, err)
    assert worst < tol, f"gradient mismatch {worst:.3e} on {cfg}"


class TestGradientsAgainstFiniteDifferences:
    def test_lstm_only(self):
        finite_difference_check(
            NetworkConfig(5, 3, 4, 3, use_cnn=False), seed=10)

    def test_cnn_residual(self):
        finite_difference_check(
            NetworkConfig(4, 2, 3, 2, conv_layers=((2, 2),)), seed=11)

    def test_two_layer_multichannel(self):
        finite_difference_check(
            NetworkConfig(4, 2, 3, 2, n_channels=2,
                          conv_layers=((2, 3), (3, 2))), seed=12)


class TestSequenceLoss:
    def test_single_step_equals_cross_entropy(self):
        cfg = NetworkConfig(4, 1, 3, 2, use_cnn=False)
        params, seq = random_instance(cfg, 3)
        loss, _ = sequence_loss_and_grads(seq, params, cfg, TrainConfig())
        logits = network_forward(seq.windows, params, cfg)
        assert loss == pytest.approx(cross_entropy(logits[0], seq.label),
                                     abs=1e-12)

    def test_loss_is_mean_of_step_losses(self):
        cfg = NetworkConfig(4, 5, 3, 2, use_cnn=False)
        params, seq = random_instance(cfg, 4)
        loss, _ = sequence_loss_and_grads(seq, params, cfg, TrainConfig())
        logits = network_forward(seq.windows, params, cfg)
        per_step = [cross_entropy(logits[t], seq.label) for t in range(5)]
        assert loss == pytest.approx(np.mean(per_step), abs=1e-12)

    def test_converged_example_has_tiny_gradients(self):
        cfg = NetworkConfig(4, 2, 3, 2, use_cnn=False)
        params, seq = random_instance(cfg, 5)
        params["lstm.b_logits"][seq.label] = 50.0  # saturate the true class
        loss, grads = sequence_loss_and_grads(seq, params, cfg, TrainConfig())
        assert loss < 1e-6
        for g in grads.values():
            assert np.abs(g).max() < 1e-6


class TestAdagrad:
    def _setup(self, lr=0.05):
        cfg = NetworkConfig(2, 1, 2, 2, use_cnn=False)
        params = init_params(cfg, seed=0, init_scale=0.01)
        return params, AdagradState(), TrainConfig(learning_rate=lr)

    def test_clipping_to_range(self):
        params, state, tc = self._setup()
        before = params["lstm.gates"].copy()
        grads = {"lstm.gates": np.full_like(before, 7.0)}
        adagrad_step(params, grads, state, tc)
        # clipped to 5 before accumulation: acc = 25, step = lr*5/(5+eps)
        assert np.allclose(state.acc["lstm.gates"], 25.0)
        assert np.allclose(before - params["lstm.gates"], 0.05, atol=1e-8)

    def test_first_step_size_is_learning_rate(self):
        params, state, tc = self._setup()
        before = params["lstm.gates"].copy()
        grads = {"lstm.gates": np.ones_like(before)}
        adagrad_step(params, grads, state, tc)
        assert np.allclose(before - params["lstm.gates"], 0.05, atol=1e-7)

    def test_zero_gradient_no_change(self):
        params, state, tc = self._setup()
        before = params["lstm.gates"].copy()
        grads = {"lstm.gates": np.zeros_like(before)}
        adagrad_step(params, grads, state, tc)
        assert np.array_equal(params["lstm.gates"], before)
        assert np.all(state.acc["lstm.gates"] == 0.0)

    def test_accumulator_non_decreasing(self):
        params, state, tc = self._setup()
        rng = np.random.default_rng(1)
        prev = np.zeros_like(params["lstm.gates"])
        for _ in range(10):
            grads = {"lstm.gates": rng.normal(size=prev.shape)}
            adagrad_step(params, grads, state, tc)
            assert np.all(state.acc["lstm.gates"] >= prev)
            prev = state.acc["lstm.gates"].copy()

    def test_two_steps_equal_the_plain_formula(self):
        # a tensor of more than one update block; gradients inside the clip
        cfg = NetworkConfig(2, 1, 100, 2, use_cnn=False)
        params = init_params(cfg, seed=3, init_scale=0.5)
        assert params["lstm.gates"].size > ADAGRAD_BLOCK
        tc = TrainConfig(learning_rate=0.07)
        rng = np.random.default_rng(4)
        state = AdagradState()
        w, acc = params["lstm.gates"].copy(), np.zeros_like(params["lstm.gates"])
        for _ in range(2):
            g = rng.uniform(-5.0, 5.0, w.shape)
            acc = acc + g * g
            w = w - tc.learning_rate * g / (np.sqrt(acc) + ADAGRAD_EPSILON)
            adagrad_step(params, {"lstm.gates": g.copy()}, state, tc)
        assert np.array_equal(state.acc["lstm.gates"], acc)
        assert np.array_equal(params["lstm.gates"], w)

    def test_shadow_clamped_in_ternary_mode(self):
        cfg = NetworkConfig(2, 1, 2, 2, use_cnn=False)
        params = init_params(cfg, seed=0, init_scale=0.9)
        tc = TrainConfig(learning_rate=2.0, mode="ternary")
        grads = {"lstm.gates": np.full_like(params["lstm.gates"], -5.0)}
        adagrad_step(params, grads, AdagradState(), tc)
        assert np.abs(params["lstm.gates"]).max() <= 1.0


class TestQuantizedTraining:
    def test_forward_uses_codes(self):
        # all shadows inside (-0.5, 0.5) ternarize to zero: logits collapse
        cfg = NetworkConfig(3, 2, 4, 3, use_cnn=False)
        params, seq = random_instance(cfg, 6)
        params["lstm.gates"] *= 0.4
        params["lstm.w_logits"][:] = 0.0
        loss, _ = sequence_loss_and_grads(seq, params, cfg,
                                          TrainConfig(mode="ternary"))
        assert loss == pytest.approx(math.log(3), abs=1e-12)

    def test_ste_cancels_outside_clamp(self):
        cfg = NetworkConfig(3, 2, 4, 2, use_cnn=False)
        params, seq = random_instance(cfg, 7)
        params["lstm.gates"][0, 3 * cfg.n_hidden] = 1.5  # cell gate
        _, grads = sequence_loss_and_grads(seq, params, cfg,
                                           TrainConfig(mode="ternary"))
        assert grads["lstm.gates"][0, 3 * cfg.n_hidden] == 0.0

    def test_biases_not_trained(self):
        cfg = NetworkConfig(3, 2, 4, 2, use_cnn=False)
        params, seq = random_instance(cfg, 8)
        _, grads = sequence_loss_and_grads(seq, params, cfg,
                                           TrainConfig(mode="binary"))
        assert set(grads) == {"lstm.gates", "lstm.w_logits"}


class TestWindowDoor:
    """Every entry of the float engine takes windows the one way: an array
    (B, q, U) or a list of (q, U) arrays, checked against the network."""

    @pytest.mark.parametrize("shape", [(2, 3, 4), (2, 2, 5), (2, 8),
                                       (2, 2, 4, 1)])
    def test_batch_loss_rejects_another_shape(self, shape):
        # a 3-step batch for a 2-step network used to run without an error
        cfg = NetworkConfig(4, 2, 3, 2, use_cnn=False)
        with pytest.raises(ValueError, match=re.escape(
                f"expected windows (B, 2, 4), got 2 of shapes {[shape[1:]]}")):
            batch_loss_and_grads(np.zeros(shape), [0, 1], init_params(cfg),
                                 cfg, TrainConfig())

    def test_windows_of_several_shapes_are_rejected(self):
        cfg = NetworkConfig(4, 2, 3, 2, use_cnn=False)
        windows = [np.zeros((2, 4)), np.zeros((3, 4))]
        for call in (lambda: forward_logits(init_params(cfg), windows, cfg),
                     lambda: batch_loss_and_grads(windows, [0, 1],
                                                  init_params(cfg), cfg,
                                                  TrainConfig())):
            with pytest.raises(ValueError, match=re.escape(
                    "got 2 of shapes [(2, 4), (3, 4)]")):
                call()

    @pytest.mark.parametrize("mode", ["full", "ternary"])
    def test_an_array_and_a_list_give_equal_results(self, mode):
        _, test_seqs = tiny_sine_task()
        net = NetworkConfig(10, 3, 5, 3, conv_layers=((2, 3),))
        params = init_params(net, seed=2, init_scale=0.5)
        listed = [s.windows for s in test_seqs]
        logits = forward_logits(params, np.stack(listed), net, mode)
        assert forward_logits(params, listed, net, mode).tobytes() == \
            logits.tobytes()
        assert predict_probs(params, test_seqs, net, mode).tobytes() == \
            softmax(logits[:, -1]).tobytes()
        labels = [s.label for s in test_seqs]
        tc = TrainConfig(mode=mode)
        loss, grads = batch_loss_and_grads(np.stack(listed), labels, params,
                                           net, tc)
        loss_l, grads_l = batch_loss_and_grads(listed, labels, params, net, tc)
        assert loss == loss_l
        assert all(grads[k].tobytes() == grads_l[k].tobytes() for k in grads)


def tiny_sine_task(beta=0.2, per_class=12, n_classes=3, seed=0):
    ds = make_sine_dataset(n_classes=n_classes, beta=beta, per_class=per_class,
                           window_len=10, n_steps=3, noise_amplitude=0.05,
                           seed=seed)
    split = per_class * 2 // 3
    train_seqs, test_seqs = [], []
    for label in range(n_classes):
        seqs = [s for s in ds.sequences if s.label == label]
        train_seqs += seqs[:split]
        test_seqs += seqs[split:]
    return train_seqs, test_seqs


class TestTrainLoop:
    def test_deterministic_per_seed(self):
        train_seqs, test_seqs = tiny_sine_task()
        cfg = NetworkConfig(10, 3, 8, 3, use_cnn=False)
        tc = TrainConfig(epochs=3, seed=7, batch_size=8)
        a = train(train_seqs, test_seqs, tc, cfg)
        b = train(train_seqs, test_seqs, tc, cfg)
        assert np.array_equal(a.loss_trace, b.loss_trace)
        assert np.array_equal(a.accuracy_trace, b.accuracy_trace,
                              equal_nan=True)
        assert np.array_equal(a.params["lstm.gates"], b.params["lstm.gates"])

    def test_no_state_carries_over_between_calls(self):
        # A (ternary, two conv layers, a short last batch), then B (full
        # precision, no CNN, other shapes), then A again
        train_seqs, test_seqs = tiny_sine_task()
        a_net = NetworkConfig(10, 3, 6, 3, conv_layers=((2, 3), (3, 2)))
        a_cfg = TrainConfig(learning_rate=0.1, epochs=3, batch_size=7,
                            init_scale=0.6, seed=2, mode="ternary")
        assert len(train_seqs) % a_cfg.batch_size
        first = train(train_seqs, test_seqs, a_cfg, a_net)
        train(train_seqs[:10], test_seqs[:5], TrainConfig(epochs=2, seed=4),
              NetworkConfig(10, 3, 9, 3, use_cnn=False))
        again = train(train_seqs, test_seqs, a_cfg, a_net)
        assert np.array_equal(first.loss_trace, again.loss_trace)
        assert np.array_equal(first.accuracy_trace, again.accuracy_trace,
                              equal_nan=True)
        for name, w in first.params.items():
            assert np.array_equal(w, again.params[name]), name

    @pytest.mark.parametrize("mode", ["full", "ternary"])
    def test_equals_a_loop_of_public_steps(self, mode, monkeypatch):
        # the codes are quantized once per update: before the first batch,
        # then after each Adagrad step, for the next batch and the final
        # evaluation alike
        train_seqs, test_seqs = tiny_sine_task()
        net = NetworkConfig(10, 3, 6, 3, conv_layers=((2, 3), (3, 2)))
        tc = TrainConfig(learning_rate=0.1, epochs=3, batch_size=7,
                         init_scale=0.6, seed=5, mode=mode)
        quantize, calls = quant.quantize_weights, []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return quantize(*args, **kwargs)

        monkeypatch.setattr(quant, "quantize_weights", counting)
        result = train(train_seqs, test_seqs, tc, net)
        monkeypatch.undo()
        n_batches = -(-len(train_seqs) // tc.batch_size)
        n_coded = 1 + len(net.conv_layers) if mode == "ternary" else 0
        assert len(calls) == n_coded * (1 + tc.epochs * n_batches)

        params, state = init_params(net, tc.seed, tc.init_scale), AdagradState()
        rng = np.random.default_rng(tc.seed)
        windows = np.stack([s.windows for s in train_seqs])
        labels = np.array([s.label for s in train_seqs])
        test_labels = np.array([s.label for s in test_seqs])
        for epoch in range(tc.epochs):
            order, total = rng.permutation(len(windows)), 0.0
            for start in range(0, len(windows), tc.batch_size):
                idx = order[start:start + tc.batch_size]
                loss, grads = batch_loss_and_grads(windows[idx], labels[idx],
                                                   params, net, tc)
                adagrad_step(params, grads, state, tc)
                total += loss * len(idx)
            assert result.loss_trace[epoch] == total / len(windows)
        preds = predict_probs(params, test_seqs, net, mode).argmax(axis=1)
        assert result.accuracy_trace[-1] == np.mean(preds == test_labels)
        assert np.isnan(result.accuracy_trace[:-1]).all()
        for name, w in params.items():
            assert np.array_equal(result.params[name], w), name

    def test_evaluates_the_test_split_once_after_the_last_update(
            self, monkeypatch):
        # training never reads the test split before its last update
        train_seqs, test_seqs = tiny_sine_task()
        net = NetworkConfig(10, 3, 6, 3, conv_layers=((2, 3),))
        tc = TrainConfig(epochs=3, batch_size=7, seed=2)
        test_x = np.stack([s.windows for s in test_seqs], axis=1)
        forward, step, events = train_mod._forward, train_mod.adagrad_step, []

        def spying_forward(x, *args):
            events.append("test" if np.array_equal(x, test_x) else "batch")
            return forward(x, *args)

        def spying_step(*args):
            events.append("update")
            return step(*args)

        monkeypatch.setattr(train_mod, "_forward", spying_forward)
        monkeypatch.setattr(train_mod, "adagrad_step", spying_step)
        train(train_seqs, test_seqs, tc, net)
        n_batches = -(-len(train_seqs) // tc.batch_size)
        assert events.count("update") == tc.epochs * n_batches
        assert events.count("test") == 1
        assert events[-2:] == ["update", "test"]

    def test_misshapen_test_split_raises_before_the_first_epoch(
            self, monkeypatch):
        train_seqs, test_seqs = tiny_sine_task()
        net = NetworkConfig(10, 3, 4, 3, use_cnn=False)
        short = [WindowedSequence(s.windows[:2], s.label) for s in test_seqs]
        calls = []
        monkeypatch.setattr(train_mod, "_forward",
                            lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="expected windows"):
            train(train_seqs, short, TrainConfig(epochs=2), net)
        assert not calls

    def test_saturated_gates_raise_no_warning(self):
        # pre-activations of -4000: exp(4000) overflows to inf, and the
        # sigmoid of the gate is exactly 0
        cfg = NetworkConfig(4, 2, 3, 2, use_cnn=False)
        params = init_params(cfg, seed=0, init_scale=1.0)
        params["lstm.gates"][:] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logits = forward_logits(params, np.full((1, 2, 4), -1000.0), cfg)
        assert np.array_equal(logits, np.zeros_like(logits))

    def test_learns_separable_task(self):
        train_seqs, test_seqs = tiny_sine_task(beta=0.3)
        cfg = NetworkConfig(10, 3, 16, 3, use_cnn=False)
        tc = TrainConfig(epochs=30, seed=1, batch_size=8)
        result = train(train_seqs, test_seqs, tc, cfg)
        assert result.accuracy_trace[-1] > 0.8
        assert result.loss_trace[-1] < result.loss_trace[0]

    def test_last_accuracy_is_the_predicted_accuracy(self):
        # the final accuracy runs on the call's workspace; it must read
        # what the public evaluation reads for the final parameters
        train_seqs, test_seqs = tiny_sine_task()
        net = NetworkConfig(10, 3, 6, 3, conv_layers=((2, 3),))
        for mode in ("full", "ternary"):
            tc = TrainConfig(learning_rate=0.1, epochs=2, batch_size=7,
                             init_scale=0.6, seed=3, mode=mode)
            result = train(train_seqs, test_seqs, tc, net)
            preds = predict_probs(result.params, test_seqs, net,
                                  mode).argmax(axis=1)
            labels = [s.label for s in test_seqs]
            assert result.accuracy_trace[-1] == np.mean(preds == labels)

    def test_windows_of_another_shape_rejected(self):
        train_seqs, test_seqs = tiny_sine_task()
        net = NetworkConfig(10, 3, 4, 3, use_cnn=False)
        short = [WindowedSequence(s.windows[:2], s.label) for s in test_seqs]
        with pytest.raises(ValueError, match="expected windows"):
            train(train_seqs, short, TrainConfig(epochs=1), net)
        with pytest.raises(ValueError, match="expected windows"):
            predict_probs(init_params(net), short, net)

    def test_rejects_empty_split(self):
        train_seqs, _ = tiny_sine_task()
        with pytest.raises(ValueError):
            train(train_seqs, [], TrainConfig(),
                  NetworkConfig(10, 3, 8, 3, use_cnn=False))

    def test_ternary_loss_converges_slower_than_full(self):
        # ternary shadows start inside the dead zone (all codes zero), so the
        # loss sits at ln(n_classes) for the first epochs; measure the epoch
        # at which each trace first halves its starting loss
        ds = make_sine_dataset(n_classes=5, beta=0.1, per_class=30,
                               window_len=20, n_steps=5, dt=0.1,
                               noise_amplitude=0.05, seed=0)
        split = 21
        train_seqs, test_seqs = [], []
        for label in range(5):
            seqs = [s for s in ds.sequences if s.label == label]
            train_seqs += seqs[:split]
            test_seqs += seqs[split:]
        net = NetworkConfig(20, 5, 64, 5, use_cnn=False)

        def crossing(mode, lr, seed):
            res = train(train_seqs, test_seqs,
                        TrainConfig(learning_rate=lr, epochs=50, seed=seed,
                                    mode=mode), net)
            below = np.nonzero(res.loss_trace < 0.5 * res.loss_trace[0])[0]
            return int(below[0]) if len(below) else len(res.loss_trace)

        pairs = [(crossing("full", 0.05, s), crossing("ternary", 0.1, s))
                 for s in (0, 1, 2)]
        assert all(f <= t for f, t in pairs)
        assert sum(f for f, _ in pairs) < sum(t for _, t in pairs)

    def test_trace_file_format(self, tmp_path):
        # an epoch that was not evaluated leaves its accuracy empty
        path = tmp_path / "trace.csv"
        write_trace(path, np.array([0.5, 0.25]), np.array([np.nan, 1.0]))
        assert path.read_text().splitlines() == [
            "epoch,loss,test_accuracy", "0,0.5,", "1,0.25,1.0"]


class TestEvaluation:
    def test_auc_hand_case(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([[0.9, 0.1], [0.6, 0.4], [0.65, 0.35], [0.2, 0.8]])
        # one-vs-rest pair counting gives 3/4 for each class
        assert auc_macro(labels, scores) == pytest.approx(0.75)

    def test_auc_perfect_separation(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.2, 0.8]])
        assert auc_macro(labels, scores) == pytest.approx(1.0)

    def test_auc_ties_give_half(self):
        labels = np.array([0, 1])
        scores = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert auc_macro(labels, scores) == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_auc_equals_the_rankdata_statistic(self, seed):
        # scores on a coarse grid, so every class column has ties
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 3, 40)
        scores = rng.integers(0, 6, (40, 3)) / 5.0
        aucs = []
        for k in range(3):
            pos = labels == k
            n_pos, n_neg = int(pos.sum()), int((~pos).sum())
            ranks = scipy.stats.rankdata(scores[:, k])
            aucs.append((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) /
                        (n_pos * n_neg))
        assert auc_macro(labels, scores) == float(np.mean(aucs))

    def test_auc_of_one_class_labels_is_an_error(self):
        scores = np.array([[0.9, 0.1], [0.6, 0.4]])
        with pytest.raises(ValueError, match="both positive and negative"):
            auc_macro(np.array([0, 0]), scores)

    def test_confusion_matrix_counts(self):
        cm = confusion_matrix([0, 0, 1, 2], [0, 1, 1, 2], 3)
        assert np.array_equal(cm, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])

    def test_predict_probs_rows_normalized(self):
        cfg = NetworkConfig(4, 2, 3, 2, use_cnn=False)
        params, seq = random_instance(cfg, 9)
        probs = predict_probs(params, [seq, seq], cfg)
        assert probs.shape == (2, 2)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_accuracy_range(self):
        cfg = NetworkConfig(4, 2, 3, 2, use_cnn=False)
        params, seq = random_instance(cfg, 10)
        acc = np.mean(predict_probs(params, [seq], cfg).argmax(axis=1)
                      == [seq.label])
        assert acc in (0.0, 1.0)


def _trained_digests(mode: str, use_cnn: bool) -> list:
    """sha256 of a short `train` run's loss trace, accuracy trace and each
    trained tensor, in `NetworkConfig.tensor_shapes` order."""
    train_seqs, test_seqs = tiny_sine_task(per_class=6)
    net = NetworkConfig(10, 3, 5, 3, conv_layers=((2, 3),), use_cnn=use_cnn)
    cfg = TrainConfig(learning_rate=0.05 if mode == "full" else 0.1,
                      epochs=3, batch_size=4, init_scale=0.6, seed=3,
                      mode=mode)
    result = train(train_seqs, test_seqs, cfg, net)
    arrays = [result.loss_trace, result.accuracy_trace,
              *(result.params[name] for name in net.tensor_shapes())]
    return [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
            for a in arrays]


class TestTrainerBitPins:
    """The trainer's bits, pinned: a change to any float sum, draw or update
    order moves a digest. The reference accuracies (criterion 9) rest on the
    exact bits, so a moved pin means the trainer changed, or the numpy or
    BLAS build under it did."""

    # recorded with numpy 2.4.6 on scipy-openblas 0.3.31 (DYNAMIC_ARCH, core
    # Haswell)
    PINS = {
        ('full', False): [
            "7d5ae724238a16a050c8c67fc031b37df64a2c4adf387cbda28d6fe6a838f416",
            "cd8a7b199b2773eaa73d6c71a6bfd4f7a4273a571b43d63f4ae13332cc7b3b47",
            "12aee2388e5bfc01d3e0d98c4ea96b3e2ce51ff6d188fc4fcbbe2ce9570e9459",
            "7633b469b9b390115eaa81fea35f464cf7d109dcc95f92f6d75b815f1aaa2681",
            "3f22ea124a2f79383c9a1c1b6fc4b5037785a2c8a0070149f1e458d63a30dae5",
            "fe80724fb4828719ec67aaae5e57a76529521a088b61970ed44a07784e146501",
        ],
        ('full', True): [
            "0fe3212eebc18e5b3a24229b96d10c3c8d622b41b979259dd1938edeaae434dc",
            "cd8a7b199b2773eaa73d6c71a6bfd4f7a4273a571b43d63f4ae13332cc7b3b47",
            "6020b2cb2396ebe4f182b0979a2b890acb3fa43e038273a0bfa2cfa3e5f120f1",
            "42549e518f585ed047799de8cb3a8d29605690c9f97bc7d6813fd246c94c6ac2",
            "7926b6ea1379453b5d5117ca67858aabee400355a50ca100a2d0fb0da57b2f12",
            "ff85fbec052311db4a6fa33e785e30b3b429b4da75246b6d8b815a4a397d7b0d",
            "269f85dd29eee1cc7ccd705f56f0078a204565107244c7c137c5df6e48382c60",
            "881d9987c32390238985312f367695c61148da83e04ac1ae0cbfcf2a7ebf3c34",
            "00b44caedfb1f156220472b48514cb05783f7366e1b0f248fd831c6e13f17839",
        ],
        ('ternary', False): [
            "af6d2a54eb87a336a3dcd18ffa0641df379a833a69ba142c06714b766a5ae1b4",
            "cd8a7b199b2773eaa73d6c71a6bfd4f7a4273a571b43d63f4ae13332cc7b3b47",
            "10e59308fd046399a28a0543ab07466a5c98a81c4feabb12d9080d84dc617711",
            "b393978842a0fa3d3e1470196f098f473f9678e72463cb65ec4ab5581856c2e4",
            "a59d6425c65e1d667f8386256f1404199f59a38e2bf4cca398e7da50847c15ea",
            "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
        ],
        ('ternary', True): [
            "a7df7fa54a55011f5ada8eddd829a35569503d2efcd603202a26619260e1b6f9",
            "fb158b2d7515f0448eb1004f38f11940518d8b28b20cce533d9015ced22aaaf2",
            "437c9212b2dcebfb8e28ae6c57aab7ad0e6de5a849c2e96d0272cc7a2c2e57ac",
            "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
            "a90a0719844c94291d7dbd24059ebe09362581d3d18c5673828822ba8cf29edd",
            "0495c5c25ed04c84c8f3d4fa9fa31ff2e3ee207321c69438dd5c6899a8baaba4",
            "b393978842a0fa3d3e1470196f098f473f9678e72463cb65ec4ab5581856c2e4",
            "53a442ea37c2bdf3223b7b810cdbdc6b2fe663da792383d21712bc3c52ab86cf",
            "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
        ],
        ('binary', False): [
            "8cc1d5adb416e7037a5cbab48c56ecb962d80c412f664b006a29fff43e9876ef",
            "fb158b2d7515f0448eb1004f38f11940518d8b28b20cce533d9015ced22aaaf2",
            "bed3bc2310d64d192b142fe46d1711a49dfe258eb26dc14c7c621817a01daa8a",
            "b393978842a0fa3d3e1470196f098f473f9678e72463cb65ec4ab5581856c2e4",
            "7b66d5326263d826bef77eb64602c8220cece46eb3e91c6ab417a98de77e6a9b",
            "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
        ],
        ('binary', True): [
            "1fb752694bb2cd629213933ec87138eeb07e00d77b0f545d1830ca0e72c35f55",
            "b9666fdbfa65e1f5adb8a32ec97a84ed372ba308783bb504d3064bce70d54d39",
            "6ebb2ef2a641a9e766479cd7edc7bb475f311f0b20003d691b68538b256d887f",
            "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
            "c18668ea2684394d033f0d8b48cba2f2c8875751fb786e65096265b97e87a4c9",
            "2009f1b7440648886a3467885ae06f78b406c1bab441ef061c8d129d470e4c26",
            "b393978842a0fa3d3e1470196f098f473f9678e72463cb65ec4ab5581856c2e4",
            "c8f751696bd129ea5577bdac4fd309fe85bd01790a97103255af82ff1cb1263d",
            "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
        ],
    }

    @pytest.mark.parametrize("mode", ["full", "ternary", "binary"])
    @pytest.mark.parametrize("use_cnn", [False, True])
    def test_digests(self, mode, use_cnn):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        names = ["loss_trace", "accuracy_trace",
                 *NetworkConfig(10, 3, 5, 3, conv_layers=((2, 3),),
                                use_cnn=use_cnn).tensor_shapes()]
        got = dict(zip(names, _trained_digests(mode, use_cnn)))
        want = dict(zip(names, self.PINS[mode, use_cnn]))
        moved = [name for name in names if got[name] != want[name]]
        assert not moved, (
            f"{moved} moved under numpy {np.__version__} with BLAS "
            f"{blas.get('name')} {blas.get('version')} "
            f"({blas.get('openblas configuration', 'no configuration')})")
