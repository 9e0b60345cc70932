import re

import fixed_oracle
import numpy as np
import pytest

from qcnnlstm import estimate, fxp, quant
from qcnnlstm.fsm import (BankCapacityError, MachineConfig, conv_layer_cycles,
                          latency_report, load_banks, relu_overhead_cycles,
                          run_inference, state_cycle_cost)
from qcnnlstm.model import NetworkConfig, network_forward_fixed
from qcnnlstm.train import init_params

MC = MachineConfig()
GESTURE = NetworkConfig(5, 30, 250, 8, n_channels=128, use_cnn=False)
ECG200 = NetworkConfig(20, 4, 350, 2)


def random_net(rng, use_cnn=None):
    if use_cnn is None:
        use_cnn = bool(rng.integers(0, 2))
    cfg = NetworkConfig(
        window_len=int(rng.integers(3, 9)),
        n_steps=int(rng.integers(1, 4)),
        n_hidden=int(rng.integers(2, 14)),
        n_classes=int(rng.integers(2, 6)),
        n_channels=int(rng.integers(1, 3)) if use_cnn else 1,
        conv_layers=tuple((int(rng.integers(1, 4)), int(rng.integers(1, 4)))
                          for _ in range(int(rng.integers(1, 3)))),
        use_cnn=use_cnn)
    params = init_params(cfg, seed=int(rng.integers(0, 2**31)), init_scale=1.2)
    qnet = quant.QuantizedNetwork.from_params(params, "ternary")
    windows = rng.uniform(-2, 2, (cfg.n_steps, cfg.input_len))
    return cfg, qnet, fxp.to_raw(windows)


class TestCycleFormulas:
    def test_conv_layer_example(self):
        # (50-5+1) * 10 * ceil(5/32) = 460
        assert conv_layer_cycles(50, 5, 10, 32) == 460

    def test_relu_overhead(self):
        assert relu_overhead_cycles(50, 5, 10, 32) == 46

    def test_state3_dba(self):
        net = NetworkConfig(5, 30, 250, 8, n_channels=128, use_cnn=False)
        assert state_cycle_cost(3, net, MC) == (250 + 640) * 32

    def test_state4_is_hidden_count(self):
        net = NetworkConfig(5, 30, 250, 8, n_channels=128, use_cnn=False)
        for state in (4, 5, 6, 7):
            assert state_cycle_cost(state, net, MC) == 250

    def test_state8_output_layer(self):
        net = NetworkConfig(5, 30, 250, 8, n_channels=128, use_cnn=False)
        assert state_cycle_cost(8, net, MC) == 2000

    def test_state2_fc_lanes(self):
        net = NetworkConfig(20, 4, 250, 2, conv_layers=((10, 5), (30, 3)))
        assert state_cycle_cost(2, net, MC) == -(-30 * 20 * 20 // 32)

    def test_cnn_states_zero_without_cnn(self):
        net = NetworkConfig(5, 2, 8, 2, use_cnn=False)
        assert state_cycle_cost(1, net, MC) == 0
        assert state_cycle_cost(2, net, MC) == 0

    def test_unknown_state_rejected(self):
        net = NetworkConfig(5, 2, 8, 2, use_cnn=False)
        with pytest.raises(ValueError):
            state_cycle_cost(9, net, MC)

    def test_kernel_wider_than_window_rejected(self):
        # L - m + 1 positions would go negative; the float engine still pads
        # such a kernel to the window, so the config itself is accepted
        net = NetworkConfig(2, 3, 4, 2, conv_layers=((3, 5),), residual=False)
        params = init_params(net, seed=0, init_scale=1.0)
        qnet = quant.QuantizedNetwork.from_params(params, "ternary")
        raw = fxp.to_raw(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="width-5 kernel"):
            conv_layer_cycles(2, 5, 3, 32)
        with pytest.raises(ValueError, match="width-5 kernel"):
            relu_overhead_cycles(2, 5, 3, 32)
        with pytest.raises(ValueError, match="width-5 kernel"):
            state_cycle_cost(1, net, MC)
        with pytest.raises(ValueError, match="width-5 kernel"):
            run_inference(raw, load_banks(qnet, MC), net, MC)
        assert conv_layer_cycles(5, 5, 3, 32) == 3
        assert relu_overhead_cycles(5, 5, 3, 32) == 1


class TestGoldenEquivalence:
    def test_bit_exact_against_model_forward(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            cfg, qnet, raw = random_net(rng)
            golden = fixed_oracle.forward(raw, qnet, cfg, MC.activation_format)
            engine = network_forward_fixed(raw, qnet, cfg,
                                           MC.activation_format)
            assert engine.tolist() == golden
            banks = load_banks(qnet, MC)
            pred, _ = run_inference(raw, banks, cfg, MC)
            assert banks.im["logits"].tolist() == golden[-1]
            assert pred == fixed_oracle.predict(golden)

    @pytest.mark.parametrize("lut_size", [16, 128])
    def test_lut_size_comes_from_the_machine(self, lut_size):
        mc = MachineConfig(lut_size=lut_size)
        rng = np.random.default_rng(lut_size)
        for _ in range(20):
            cfg, qnet, raw = random_net(rng)
            golden = fixed_oracle.forward(raw, qnet, cfg,
                                          mc.activation_format, lut_size)
            engine = network_forward_fixed(raw, qnet, cfg,
                                           mc.activation_format, lut_size)
            assert engine.tolist() == golden
            banks = load_banks(qnet, mc)
            run_inference(raw, banks, cfg, mc)
            assert banks.im["logits"].tolist() == golden[-1]

    def test_batch_equals_single_runs(self):
        rng = np.random.default_rng(43)
        cfg, qnet, _ = random_net(rng, use_cnn=True)
        raws = fxp.to_raw(rng.uniform(-2, 2, (5, cfg.n_steps, cfg.input_len)))
        single = load_banks(qnet, MC)
        preds, logits = [], []
        for raw in raws:
            pred, last = run_inference(raw, single, cfg, MC)
            preds.append(pred)
            logits.append(single.im["logits"])
        batch = load_banks(qnet, MC)
        batch_preds, rep = run_inference(raws, batch, cfg, MC)
        assert batch_preds.tolist() == preds
        assert np.array_equal(batch.im["logits"], np.stack(logits))
        # the banks count all five sequences either way
        assert rep.wb_bits_read == last.wb_bits_read
        assert rep.im_bits_transferred == last.im_bits_transferred
        assert np.array_equal(rep.cycles_per_state, last.cycles_per_state)
        assert rep.state_trace == last.state_trace

    def test_all_zero_weights_tie_breaks_low(self):
        cfg = NetworkConfig(4, 2, 3, 4, use_cnn=False)
        params = init_params(cfg, seed=0, init_scale=0.0)
        qnet = quant.QuantizedNetwork.from_params(params, "ternary")
        raw = fxp.to_raw(np.random.default_rng(1).uniform(-1, 1, (2, 4)))
        pred, _ = run_inference(raw, load_banks(qnet, MC), cfg, MC)
        assert pred == 0

    def test_serialized_model_round_trip_preserves_bits(self, tmp_path):
        # banks loaded from a packed on-disk model must reproduce the
        # in-memory golden logits exactly
        from qcnnlstm.model import load_network, save_network
        rng = np.random.default_rng(99)
        cfg, qnet, raw = random_net(rng, use_cnn=True)
        golden = network_forward_fixed(raw, qnet, cfg, MC.activation_format)

        params = init_params(cfg, seed=int(rng.integers(2**31)))
        # rebuild the exact same codes through the serialization path
        params.lstm.gates[:] = qnet.gates
        for layer, codes in zip(params.conv, qnet.conv_codes):
            layer.weights[:] = codes
        params.fc[:] = fxp.from_raw(qnet.fc_raw, qnet.weight_format)
        params.lstm.w_logits[:] = fxp.from_raw(qnet.logits_raw,
                                               qnet.weight_format)
        params.lstm.gate_bias[:] = 0.0
        params.lstm.b_logits[:] = 0.0
        for layer in params.conv:
            layer.bias[:] = 0.0
        save_network(tmp_path / "m", params, cfg, mode="ternary")
        loaded, cfg2, mode = load_network(tmp_path / "m")
        qnet2 = quant.QuantizedNetwork.from_params(loaded, mode,
                                                   MC.activation_format)
        banks = load_banks(qnet2, MC)
        run_inference(raw, banks, cfg2, MC)
        assert np.array_equal(banks.im["logits"], golden[-1])


class TestAccounting:
    def test_executed_macs_match_estimate(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            cfg, qnet, raw = random_net(rng)
            _, rep = run_inference(raw, load_banks(qnet, MC), cfg, MC)
            assert rep.executed_macs == estimate.mac_count(cfg, "sequence",
                                                           "true")

    def test_total_is_sum_of_states(self):
        rng = np.random.default_rng(8)
        cfg, qnet, raw = random_net(rng)
        _, rep = run_inference(raw, load_banks(qnet, MC), cfg, MC)
        assert rep.total_cycles == rep.cycles_per_state.sum()
        assert rep.latency_seconds == rep.total_cycles / MC.clock_hz

    def test_paper_macs_reported(self):
        net = NetworkConfig(5, 30, 250, 8, n_channels=128, use_cnn=False)
        params = init_params(net, seed=3, init_scale=1.0)
        qnet = quant.QuantizedNetwork.from_params(params, "ternary")
        raw = fxp.to_raw(np.random.default_rng(2).uniform(-1, 1, (30, 640)))
        _, rep = run_inference(raw, load_banks(qnet, MC), net, MC)
        assert rep.paper_macs == 222_500
        assert rep.executed_macs >= rep.paper_macs


class TestStateTrace:
    def test_cnn_trace_regular_expression(self):
        rng = np.random.default_rng(9)
        cfg, qnet, raw = random_net(rng, use_cnn=True)
        _, rep = run_inference(raw, load_banks(qnet, MC), cfg, MC)
        trace = "".join(str(s) for s in rep.state_trace)
        layer_ones = "1" * len(cfg.conv_layers)
        assert re.fullmatch(f"({layer_ones}2345678){{{cfg.n_steps}}}", trace)

    def test_lstm_only_trace(self):
        rng = np.random.default_rng(10)
        cfg, qnet, raw = random_net(rng, use_cnn=False)
        _, rep = run_inference(raw, load_banks(qnet, MC), cfg, MC)
        trace = "".join(str(s) for s in rep.state_trace)
        assert re.fullmatch(f"(345678){{{cfg.n_steps}}}", trace)


class TestBandwidth:
    def test_beats_within_caps(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            cfg, qnet, raw = random_net(rng)
            _, rep = run_inference(raw, load_banks(qnet, MC), cfg, MC)
            assert rep.max_wb_beat_bits <= MC.wb_read_bits_per_cycle
            assert rep.max_im_beat_bits <= MC.im_bits_per_cycle

    def test_im_traffic_follows_activation_width(self):
        rng = np.random.default_rng(14)
        cfg, qnet, raw = random_net(rng, use_cnn=True)
        wide = MachineConfig(activation_format=fxp.QFormat(16, 8))
        _, rep12 = run_inference(raw, load_banks(qnet, MC), cfg, MC)
        _, rep16 = run_inference(raw, load_banks(qnet, wide), cfg, wide)
        assert rep16.im_bits_transferred * 12 == rep12.im_bits_transferred * 16
        assert rep16.wb_bits_read == rep12.wb_bits_read

    def test_datapath_of_another_scale_is_rejected(self):
        # the FC and output products round by the datapath's fractional
        # bits, so Q4.8 weights on a Q4.6 datapath would come out 4x too big
        rng = np.random.default_rng(14)
        cfg, qnet, raw = random_net(rng, use_cnn=True)
        narrow = MachineConfig(activation_format=fxp.QFormat(10, 6))
        message = "weights in Q4.8 and a datapath in Q4.6 differ in scale"
        with pytest.raises(ValueError, match=message):
            network_forward_fixed(raw, qnet, cfg, narrow.activation_format)
        with pytest.raises(ValueError, match=message):
            run_inference(raw, load_banks(qnet, narrow), cfg, narrow)

    def test_capacity_guard(self):
        cfg = NetworkConfig(5, 2, 64, 2, use_cnn=False)
        params = init_params(cfg, seed=1, init_scale=1.0)
        qnet = quant.QuantizedNetwork.from_params(params, "ternary")
        small = MachineConfig(wb_capacity_bits=100)
        with pytest.raises(BankCapacityError):
            load_banks(qnet, small)


def _one_sequence(net, mc, tmp_path):
    """(report, trace rows) of one simulated sequence of `net` on `mc`."""
    params = init_params(net, seed=0, init_scale=1.0)
    qnet = quant.QuantizedNetwork.from_params(params, "ternary")
    raw = fxp.to_raw(np.random.default_rng(0).uniform(
        -1, 1, (net.n_steps, net.input_len)))
    path = tmp_path / "trace.csv"
    _, rep = run_inference(raw, load_banks(qnet, mc), net, mc,
                           trace_path=path)
    return rep, path.read_text().splitlines()[1:]


class TestTrafficPins:
    """Bank traffic of the gesture-dba and ECG200 reference shapes, in bits:
    literal values, so a transfer added, dropped or merged shows."""

    @pytest.mark.parametrize("net,wb,im,rows", [
        (GESTURE, 53_424_000, 1_310_496, 180),
        (ECG200, 4_736_000, 271_704, 36)], ids=["gesture-dba", "ecg200"])
    def test_per_sequence_traffic(self, net, wb, im, rows, tmp_path):
        rep, trace = _one_sequence(net, MC, tmp_path)
        assert (rep.wb_bits_per_seq, rep.im_bits_per_seq) == (wb, im)
        assert (rep.wb_bits_read, rep.im_bits_transferred) == (wb, im)
        assert len(rep.state_trace) == len(trace) == rows
        assert rep.max_wb_beat_bits == MC.wb_read_bits_per_cycle
        assert rep.max_im_beat_bits == MC.im_bits_per_cycle

    @pytest.mark.parametrize("net,wb_beat,im_beat", [
        (GESTURE, 445_000, 7_680), (ECG200, 259_000, 7_200)],
        ids=["gesture-dba", "ecg200"])
    def test_uncapped_beats_are_the_largest_transfers(self, net, wb_beat,
                                                      im_beat, tmp_path):
        wide = MachineConfig(wb_read_bits_per_cycle=10**9,
                             im_bits_per_cycle=10**9)
        rep, _ = _one_sequence(net, wide, tmp_path)
        assert rep.max_wb_beat_bits == wb_beat
        assert rep.max_im_beat_bits == im_beat


class TestMonotonicity:
    def _cycles(self, n_hidden, window_len):
        cfg = NetworkConfig(window_len, 2, n_hidden, 2,
                            conv_layers=((2, 2),), use_cnn=True)
        params = init_params(cfg, seed=5, init_scale=1.0)
        qnet = quant.QuantizedNetwork.from_params(params, "ternary")
        raw = fxp.to_raw(
            np.random.default_rng(3).uniform(-1, 1, (2, cfg.input_len)))
        _, rep = run_inference(raw, load_banks(qnet, MC), cfg, MC)
        return rep.total_cycles

    def test_hidden_growth_never_cheaper(self):
        cycles = [self._cycles(nh, 6) for nh in (2, 4, 8, 16, 32)]
        assert all(a <= b for a, b in zip(cycles, cycles[1:]))

    def test_window_growth_never_cheaper(self):
        cycles = [self._cycles(8, w) for w in (4, 6, 8, 12)]
        assert all(a <= b for a, b in zip(cycles, cycles[1:]))


class TestLatency:
    def _dba_report(self, clock_hz=1e8):
        net = NetworkConfig(5, 30, 250, 8, n_channels=128, use_cnn=False)
        params = init_params(net, seed=4, init_scale=1.0)
        qnet = quant.QuantizedNetwork.from_params(params, "ternary")
        mc = MachineConfig(clock_hz=clock_hz)
        raw = fxp.to_raw(np.random.default_rng(4).uniform(-1, 1, (30, 640)))
        _, rep = run_inference(raw, load_banks(qnet, mc), net, mc)
        return rep

    def test_dba_well_under_budget(self):
        verdict = latency_report(self._dba_report(), 10e-3)
        assert verdict.passed
        assert verdict.margin > 10.0

    def test_zero_budget_fails(self):
        verdict = latency_report(self._dba_report(), 0.0)
        assert not verdict.passed

    def test_doubling_clock_halves_latency(self):
        a = self._dba_report(1e8)
        b = self._dba_report(2e8)
        assert b.latency_seconds == a.latency_seconds / 2
        assert b.worst_window_latency_seconds == \
            a.worst_window_latency_seconds / 2


class TestMachineChecks:
    @pytest.mark.parametrize("clock_hz", [1e-300, 0.5, 0.0, float("nan")])
    def test_clock_below_one_hertz_is_rejected(self, clock_hz):
        with pytest.raises(ValueError, match="clock_hz"):
            MachineConfig(clock_hz=clock_hz)

    def test_one_hertz_clock_is_accepted(self):
        assert MachineConfig(clock_hz=1.0).clock_hz == 1.0

    @pytest.mark.parametrize("fmt", [fxp.ACT_FORMAT, fxp.QFormat(10, 6),
                                     fxp.QFormat(16, 10)])
    def test_finest_table_has_one_code_per_cell(self, fmt):
        # tanh spans 8 units: Q4.8 cells of one code give 2048 entries
        finest = fxp.max_lut_size(fmt)
        assert finest == 8 * fmt.scale
        mc = MachineConfig(lut_size=finest, activation_format=fmt)
        table = fxp.build_lut("tanh", mc.lut_size)
        codes = np.arange(fmt.raw_min, fmt.raw_max + 1)
        assert len(set(fxp.lut_index_raw(codes, table, fmt).tolist())) == \
            finest
        with pytest.raises(ValueError, match="lut_size"):
            MachineConfig(lut_size=2 * finest, activation_format=fmt)

    def test_huge_table_is_rejected_before_it_is_built(self, monkeypatch):
        def build_lut(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(fxp, "build_lut", build_lut)
        with pytest.raises(ValueError, match="at most 2048"):
            MachineConfig(lut_size=17179869184)


class TestInterfaces:
    def test_window_shape_mismatch(self):
        cfg = NetworkConfig(4, 2, 3, 2, use_cnn=False)
        params = init_params(cfg, seed=6, init_scale=1.0)
        qnet = quant.QuantizedNetwork.from_params(params, "ternary")
        with pytest.raises(ValueError):
            run_inference(np.zeros((3, 4), dtype=np.int64),
                          load_banks(qnet, MC), cfg, MC)

    def test_trace_file(self, tmp_path):
        rng = np.random.default_rng(12)
        cfg, qnet, raw = random_net(rng, use_cnn=True)
        path = tmp_path / "trace.csv"
        run_inference(raw, load_banks(qnet, MC), cfg, MC, trace_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "cycle,state,unit,op"
        assert len(lines) > cfg.n_steps

    def test_report_csv_and_summary(self):
        rng = np.random.default_rng(13)
        cfg, qnet, raw = random_net(rng)
        _, rep = run_inference(raw, load_banks(qnet, MC), cfg, MC)
        assert "total_cycles" in rep.csv()
        assert "executed MACs" in rep.summary()

    def test_summary_scopes_bank_traffic(self):
        rng = np.random.default_rng(14)
        cfg, qnet, raw = random_net(rng)

        def traffic(raws):
            _, rep = run_inference(raws, load_banks(qnet, MC), cfg, MC)
            per_seq, _, all_seqs = rep.summary().partition(
                "all sequences run on these banks")
            pattern = r"(?:WB bits read|IM bits transferred)\s+([\d,]+)"
            return [[int(v.replace(",", "")) for v in re.findall(pattern, part)]
                    for part in (per_seq, all_seqs)]

        one_seq, one_all = traffic(raw)
        two_seq, two_all = traffic(np.stack([raw, raw]))
        assert len(one_seq) == 2 and one_all == one_seq
        assert two_seq == one_seq
        assert two_all == [2 * bits for bits in one_seq]

    def test_csv_scopes_bank_traffic(self):
        rng = np.random.default_rng(15)
        cfg, qnet, raw = random_net(rng)

        def traffic(raws):
            _, rep = run_inference(raws, load_banks(qnet, MC), cfg, MC)
            head, values = rep.csv().splitlines()
            row = dict(zip(head.split(","), map(float, values.split(","))))
            return ([row["wb_bits_per_seq"], row["im_bits_per_seq"]],
                    [row["wb_bits_read_all_seqs"],
                     row["im_bits_transferred_all_seqs"]])

        one_seq, one_all = traffic(raw)
        two_seq, two_all = traffic(np.stack([raw, raw]))
        assert min(one_seq) > 0 and one_all == one_seq
        assert two_seq == one_seq
        assert two_all == [2 * bits for bits in one_seq]
