"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured margins. The stochastic criteria (7, 8, 9) use pinned
seeds and are deterministic on a fixed numpy stack.
"""

import re
import time
from pathlib import Path

import fixed_oracle
import numpy as np
import pytest

from qcnnlstm import analysis, datagen, estimate, fsm, fxp, ingest, quant
from qcnnlstm.model import NetworkConfig, network_forward_fixed
from qcnnlstm.train import (AdagradState, TrainConfig, adagrad_step,
                            init_params, sequence_loss_and_grads, train)

DATA = Path(__file__).resolve().parent.parent / "data" / "ECG200"
MC = fsm.MachineConfig()


def report(num, text):
    print(f"\n[ACCEPTANCE {num}] PASS - {text}")


def random_tiny_config(rng):
    use_cnn = bool(rng.integers(0, 2))
    layers = tuple((int(rng.integers(1, 4)), int(rng.integers(1, 4)))
                   for _ in range(int(rng.integers(1, 3))))
    return NetworkConfig(
        window_len=int(rng.integers(3, 7)),
        n_steps=int(rng.integers(1, 4)),
        n_hidden=int(rng.integers(2, 9)),
        n_classes=int(rng.integers(2, 4)),
        n_channels=int(rng.integers(1, 3)) if use_cnn else 1,
        conv_layers=layers,
        use_cnn=use_cnn)


class TestCriterion1GradientOracle:
    def test_finite_difference_battery(self):
        started = time.monotonic()
        rng = np.random.default_rng(1001)
        worst_overall = 0.0
        for _ in range(20):
            cfg = random_tiny_config(rng)
            params = init_params(cfg, seed=int(rng.integers(2**31)),
                                 init_scale=0.5)
            for i in range(len(cfg.conv_shapes())):
                # keep conv pre-activations off the exact ReLU kink, where
                # central differences are invalid
                bias = params[f"conv{i}.bias"]
                bias += rng.uniform(-0.3, 0.3, bias.shape)
            seq = datagen.WindowedSequence(
                rng.uniform(-1, 1, (cfg.n_steps, cfg.input_len)),
                int(rng.integers(0, cfg.n_classes)))
            tc = TrainConfig()
            _, grads = sequence_loss_and_grads(seq, params, cfg, tc)
            step = 1e-5
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
                    err = abs(flat_g[k] - fd) / max(abs(fd), abs(flat_g[k]),
                                                    1e-3)
                    worst_overall = max(worst_overall, err)
                    assert err < 1e-4, f"{name}[{k}] err {err:.2e} on {cfg}"
        elapsed = time.monotonic() - started
        assert elapsed < 60.0
        report(1, f"20 instances, worst relative gradient error "
                  f"{worst_overall:.2e} (< 1e-4), {elapsed:.1f}s")


class TestCriterion2GoldenEquivalence:
    def test_thousand_random_ternary_models(self):
        # the reference is the scalar Python-int oracle, which shares no
        # code with the engine the simulator takes its numerics from
        started = time.monotonic()
        rng = np.random.default_rng(2002)
        for _ in range(1000):
            cfg = random_tiny_config(rng)
            params = init_params(cfg, seed=int(rng.integers(2**31)),
                                 init_scale=1.2)
            qnet = quant.QuantizedNetwork.from_params(params, "ternary")
            raw = fxp.to_raw(rng.uniform(-2, 2, (cfg.n_steps, cfg.input_len)))
            golden = fixed_oracle.forward(raw, qnet, cfg, MC.activation_format,
                                          MC.lut_size)
            engine = network_forward_fixed(raw, qnet, cfg,
                                           MC.activation_format)
            assert engine.tolist() == golden
            banks = fsm.load_banks(qnet, MC)
            pred, _ = fsm.run_inference(raw, banks, cfg, MC)
            assert banks.im["logits"].tolist() == golden[-1]
            assert pred == fixed_oracle.predict(golden)
        elapsed = time.monotonic() - started
        assert elapsed < 60.0
        report(2, f"1000 ternary models: engine and simulator bit-identical "
                  f"to the scalar fixed-point oracle, {elapsed:.1f}s")


class TestCriterion3AccountingConsistency:
    def test_hundred_random_configurations(self):
        rng = np.random.default_rng(3003)
        for _ in range(100):
            cfg = random_tiny_config(rng)
            params = init_params(cfg, seed=int(rng.integers(2**31)),
                                 init_scale=1.0)
            qnet = quant.QuantizedNetwork.from_params(params, "ternary")
            raw = fxp.to_raw(rng.uniform(-1, 1, (cfg.n_steps, cfg.input_len)))
            _, rep = fsm.run_inference(raw, fsm.load_banks(qnet, MC), cfg, MC)
            assert rep.executed_macs == estimate.mac_count(cfg, "sequence",
                                                           "true")
        report(3, "simulator executed_macs == estimate mac_count(true), "
                  "100/100 exact")


class TestCriterion4ReferenceArithmetic:
    def test_gesture_benchmark_numbers(self):
        # the reference formula is (5x128+250)x250 per window; its exact
        # value is asserted together with the ~220 K / ~35 us roundings
        dba = NetworkConfig(5, 30, 250, 8, n_channels=128, use_cnn=False)
        dbc = NetworkConfig(10, 15, 350, 12, n_channels=128, use_cnn=False)
        macs_a = estimate.mac_count(dba, "window", "paper")
        macs_c = estimate.mac_count(dbc, "window", "paper")
        assert macs_a == (5 * 128 + 250) * 250 == 222_500
        assert round(macs_a, -4) == 220_000          # "~220 K operations"
        assert macs_c == (10 * 128 + 350) * 350 == 570_500
        assert round(macs_c, -4) == 570_000          # "~570 K operations"
        t_a = estimate.response_time(macs_a, 6.3)
        t_c = estimate.response_time(macs_c, 6.3)
        assert t_a == pytest.approx(35.3e-6, abs=0.1e-6)   # "~35 us"
        assert t_c == pytest.approx(90.6e-6, abs=0.2e-6)   # "~90 us"
        report(4, f"DB-a {macs_a:,} MACs -> {t_a * 1e6:.1f} us; "
                  f"DB-c {macs_c:,} MACs -> {t_c * 1e6:.1f} us at 6.3 GOPs")


class TestCriterion5RealTimeBudget:
    def test_dba_latency_margin(self):
        net = NetworkConfig(5, 30, 250, 8, n_channels=128, use_cnn=False)
        params = init_params(net, seed=5, init_scale=1.0)
        qnet = quant.QuantizedNetwork.from_params(params, "ternary")
        raw = fxp.to_raw(np.random.default_rng(5).uniform(-1, 1, (30, 640)))
        _, rep = fsm.run_inference(raw, fsm.load_banks(qnet, MC), net, MC)
        verdict = fsm.latency_report(rep, budget_seconds=10e-3)
        assert verdict.passed
        assert verdict.latency_seconds < 10e-3
        assert verdict.margin >= 10.0
        report(5, f"DB-a worst window {verdict.latency_seconds * 1e6:.1f} us "
                  f"vs 10 ms budget, margin {verdict.margin:.1f}x (>= 10x)")


class TestCriterion6MemoryTolerance:
    CONFIGS = {
        "ECG200": NetworkConfig(20, 4, 250, 2, use_cnn=False),
        "ECG5000": NetworkConfig(20, 7, 250, 5, use_cnn=False),
        "PhysioNet2016": NetworkConfig(50, 30, 250, 2, use_cnn=False),
        "PhysioNet2017": NetworkConfig(50, 30, 250, 4, use_cnn=False),
    }

    def test_fp_lstm_ecg200_within_15_percent(self):
        bits = estimate.memory_bits(
            estimate.CostModelInput(self.CONFIGS["ECG200"], "full32"))
        rel = abs(bits - 9.07e6) / 9.07e6
        assert rel < 0.15
        report(6, f"FP-LSTM ECG200 memory {bits / 1e6:.2f} Mb vs 9.07 Mb "
                  f"({rel * 100:.1f}% off); ternary < full on all 4 configs")

    def test_ternary_strictly_below_full_everywhere(self):
        for name, net in self.CONFIGS.items():
            full = estimate.memory_bits(estimate.CostModelInput(net, "full32"))
            tern = estimate.memory_bits(estimate.CostModelInput(net, "ternary2"))
            assert tern < full, name


def split_by_class(ds, fraction=0.7):
    train_seqs, test_seqs = [], []
    for label in range(ds.n_classes):
        seqs = [s for s in ds.sequences if s.label == label]
        k = int(round(fraction * len(seqs)))
        train_seqs += seqs[:k]
        test_seqs += seqs[k:]
    return train_seqs, test_seqs


def run_sine(beta, seed, mode="full", epochs=40, n_hidden=64):
    ds = datagen.make_sine_dataset(n_classes=5, beta=beta, per_class=30,
                                   window_len=20, n_steps=5, dt=0.1,
                                   noise_amplitude=0.05, seed=seed)
    train_seqs, test_seqs = split_by_class(ds)
    net = NetworkConfig(20, 5, n_hidden, 5, use_cnn=False)
    lr = 0.05 if mode == "full" else 0.1
    cfg = TrainConfig(learning_rate=lr, epochs=epochs, seed=seed,
                      batch_size=32, mode=mode)
    return train(train_seqs, test_seqs, cfg, net).accuracy_trace[-1]


class TestCriterion7SyntheticClassification:
    def test_beta_sweep_accuracy_and_trend(self):
        started = time.monotonic()
        betas = (0.1, 0.05, 0.02, 0.01)
        seeds = (0, 1, 2)
        means = []
        for beta in betas:
            accs = [run_sine(beta, seed) for seed in seeds]
            means.append(float(np.mean(accs)))
        assert means[0] >= 0.95
        for earlier, later in zip(means, means[1:]):
            assert later <= earlier + 1e-9  # degrades monotonically on average
        elapsed = time.monotonic() - started
        assert elapsed < 600.0
        pretty = ", ".join(f"beta={b}: {m:.3f}" for b, m in zip(betas, means))
        report(7, f"{pretty}; monotone decline, {elapsed:.0f}s")


class TestCriterion8QuantizationOrdering:
    def test_full_ternary_binary_means(self):
        started = time.monotonic()
        seeds = range(5)
        means = {}
        for mode in ("full", "ternary", "binary"):
            accs = [run_sine(0.04, seed, mode=mode, epochs=80)
                    for seed in seeds]
            means[mode] = float(np.mean(accs))
        assert means["full"] >= means["ternary"] >= means["binary"]
        assert means["full"] - means["ternary"] <= 0.05
        elapsed = time.monotonic() - started
        report(8, f"mean accuracies full={means['full']:.3f} >= "
                  f"ternary={means['ternary']:.3f} >= "
                  f"binary={means['binary']:.3f}; ternary within "
                  f"{(means['full'] - means['ternary']) * 100:.1f} points, "
                  f"{elapsed:.0f}s")


@pytest.fixture(scope="module")
def ecg200_sequences():
    train_raw = ingest.load_ucr(DATA / "ECG200_TRAIN.tsv")
    test_raw = ingest.load_ucr(DATA / "ECG200_TEST.tsv")
    train_raw, test_raw = ingest.normalize_and_split(
        train_raw, predefined_test=test_raw)
    return (ingest.dataset_to_sequences(train_raw, 20, 4),
            ingest.dataset_to_sequences(test_raw, 20, 4))


class TestCriterion9Ecg200EndToEnd:
    def test_reference_configuration(self, ecg200_sequences):
        started = time.monotonic()
        train_seqs, test_seqs = ecg200_sequences
        fp_net = NetworkConfig(window_len=20, n_steps=4, n_hidden=250,
                               n_classes=2, conv_layers=((10, 5), (30, 3)))
        fp = train(train_seqs, test_seqs,
                   TrainConfig(learning_rate=0.05, epochs=60, seed=0,
                               batch_size=32), fp_net)
        fp_acc = fp.accuracy_trace[-1]
        assert fp_acc >= 0.90

        # ternary companion run: 350 hidden units and lr 0.1, the reference
        # ternary configuration
        t_net = NetworkConfig(window_len=20, n_steps=4, n_hidden=350,
                              n_classes=2, conv_layers=((10, 5), (30, 3)))
        tern = train(train_seqs, test_seqs,
                     TrainConfig(learning_rate=0.1, epochs=100, seed=1,
                                 batch_size=32, mode="ternary"), t_net)
        t_acc = tern.accuracy_trace[-1]
        assert t_acc >= fp_acc - 0.04
        elapsed = time.monotonic() - started
        assert elapsed < 1800.0
        report(9, f"ECG200 FP-CNN-LSTM accuracy {fp_acc:.2f} (>= 0.90), "
                  f"ternary {t_acc:.2f} (within 4 points), {elapsed:.0f}s")


class TestCriterion10Embedding:
    def test_lorenz_embedding_correlation(self):
        started = time.monotonic()
        ds = datagen.make_lorenz_dataset(per_class=20, window_len=100,
                                         n_steps=10, transient=1000,
                                         noise_amplitude=0.0, seed=1)
        signals = np.stack([s.windows.ravel() for s in ds.sequences])
        labels = np.array([s.label for s in ds.sequences])
        assert signals.shape[0] == 100 and ds.n_classes == 5
        dm = analysis.fourier_distance(signals, labels=labels)
        scaled = analysis.rescale_distances(dm)
        emb = analysis.embed_2d(scaled, iters=50_000, seed=0)
        corr = analysis.embedding_correlation(dm, emb)
        assert corr >= 0.90
        elapsed = time.monotonic() - started
        assert elapsed < 300.0
        report(10, f"Lorenz embedding correlation {corr:.4f} (>= 0.90, "
                   f"reference 0.9826), {elapsed:.0f}s")


class TestCriterion11PropertySuites:
    def test_invariant_bundle(self):
        rng = np.random.default_rng(11011)

        # LUT monotonicity and tanh odd-symmetry
        sig = fxp.build_lut("sigmoid", 64)
        tanh = fxp.build_lut("tanh", 64)
        assert np.all(np.diff(sig.entries_raw) >= 0)
        assert np.all(np.diff(tanh.entries_raw) >= 0)
        sums = tanh.entry_values() + tanh.entry_values()[::-1]
        assert np.abs(sums).max() <= fxp.ENTRY_FORMAT.step

        # saturation monotonicity of the quantizer
        xs = np.sort(rng.uniform(-20, 20, 4000))
        raws = fxp.to_raw(xs)
        assert np.all(np.diff(raws) >= 0)
        assert raws.min() >= -2048 and raws.max() <= 2047

        # softmax normalization
        from qcnnlstm.model import softmax
        z = rng.normal(size=(50, 7)) * 10
        assert np.allclose(softmax(z).sum(axis=1), 1.0, atol=1e-12)

        # STE zero-set and shadow clamp
        g = rng.normal(size=256)
        r = rng.uniform(-3, 3, 256)
        masked = quant.ste_backward(g, r)
        assert np.all(masked[np.abs(r) > 1] == 0.0)
        cfg = NetworkConfig(3, 1, 4, 2, use_cnn=False)
        params = init_params(cfg, seed=0, init_scale=0.9)
        tc = TrainConfig(learning_rate=3.0, mode="ternary")
        adagrad_step(params, {"lstm.gates": np.full((7, 16), -4.0)},
                     AdagradState(), tc)
        assert np.abs(params["lstm.gates"]).max() <= 1.0

        # state-trace grammar and bandwidth caps on a random CNN model
        net = NetworkConfig(5, 3, 6, 3, conv_layers=((2, 3), (3, 2)))
        p = init_params(net, seed=2, init_scale=1.0)
        qnet = quant.QuantizedNetwork.from_params(p, "ternary")
        raw = fxp.to_raw(rng.uniform(-1, 1, (3, 5)))
        _, rep = fsm.run_inference(raw, fsm.load_banks(qnet, MC), net, MC)
        trace = "".join(map(str, rep.state_trace))
        assert re.fullmatch(r"(112345678){3}", trace)
        assert rep.max_wb_beat_bits <= MC.wb_read_bits_per_cycle
        assert rep.max_im_beat_bits <= MC.im_bits_per_cycle

        # energy-trace monotonicity
        d = np.abs(rng.normal(size=(8, 8)))
        d = 0.5 * (d + d.T)
        np.fill_diagonal(d, 0.0)
        emb = analysis.embed_2d(analysis.DistanceMatrix(d, np.zeros(8, int)),
                                iters=2000, seed=3)
        assert np.all(np.diff(emb.history) <= 0.0)

        # determinism per seed: generation and training
        a = datagen.make_sine_dataset(per_class=2, seed=9)
        b = datagen.make_sine_dataset(per_class=2, seed=9)
        assert all(np.array_equal(x.windows, y.windows)
                   for x, y in zip(a.sequences, b.sequences))
        tr, te = split_by_class(datagen.make_sine_dataset(per_class=6, seed=4))
        net2 = NetworkConfig(20, 5, 8, 5, use_cnn=False)
        r1 = train(tr, te, TrainConfig(epochs=2, seed=5), net2)
        r2 = train(tr, te, TrainConfig(epochs=2, seed=5), net2)
        assert np.array_equal(r1.loss_trace, r2.loss_trace)

        report(11, "LUT/saturation/softmax/STE/clamp/trace/bandwidth/"
                   "energy/determinism invariants all hold")
