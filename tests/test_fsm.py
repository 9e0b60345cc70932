import re

import fixed_oracle
import numpy as np
import pytest

from qcnnlstm import estimate, fsm, fxp, quant
from qcnnlstm.fsm import (BankCapacityError, MachineConfig, latency_report,
                          load_banks, run_inference, state_cycle_cost)
from qcnnlstm.model import NetworkConfig, network_forward_fixed
from qcnnlstm.train import init_params

MC = MachineConfig()
GESTURE = NetworkConfig(5, 30, 250, 8, n_channels=128, use_cnn=False)
ECG200 = NetworkConfig(20, 4, 350, 2)


def random_net(rng, use_cnn=None):
    """A random network with 1-3 input channels; its kernels may be up to
    two samples wider than the window."""
    if use_cnn is None:
        use_cnn = bool(rng.integers(0, 2))
    window_len = int(rng.integers(3, 9))
    cfg = NetworkConfig(
        window_len=window_len,
        n_steps=int(rng.integers(1, 4)),
        n_hidden=int(rng.integers(2, 14)),
        n_classes=int(rng.integers(2, 6)),
        n_channels=int(rng.integers(1, 4)),
        conv_layers=tuple((int(rng.integers(1, 4)),
                           int(rng.integers(1, window_len + 3)))
                          for _ in range(int(rng.integers(1, 3)))),
        use_cnn=use_cnn)
    params = init_params(cfg, seed=int(rng.integers(0, 2**31)), init_scale=1.2)
    qnet = quant.QuantizedNetwork.from_params(params, "ternary")
    windows = rng.uniform(-2, 2, (cfg.n_steps, cfg.input_len))
    return cfg, qnet, fxp.to_raw(windows)


class TestCycleFormulas:
    def test_conv_layer_example(self):
        # padding keeps all 50 positions: each takes 10 * ceil(5/32) = 10
        # MAC cycles and ceil(10/32) = 1 ReLU cycle, 50 * (10 + 1) = 550
        net = NetworkConfig(50, 2, 4, 2, conv_layers=((10, 5),))
        assert state_cycle_cost(1, net, MC) == 550

    def test_relu_overhead(self):
        # 40 filters take two lane-wide ReLU passes per position:
        # 50 * (40 + 2) = 2,100
        net = NetworkConfig(50, 2, 4, 2, conv_layers=((40, 5),))
        assert state_cycle_cost(1, net, MC) == 2_100

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

    def test_kernel_wider_than_window_runs(self):
        # padding keeps both positions of a 2-sample window under a width-5
        # kernel: 2 * (3 filters * ceil(5/32) + ceil(3/32)) = 2 * (3 + 1)
        net = NetworkConfig(2, 3, 4, 2, conv_layers=((3, 5),))
        assert state_cycle_cost(1, net, MC) == 8
        params = init_params(net, seed=0, init_scale=1.2)
        qnet = quant.QuantizedNetwork.from_params(params, "ternary")
        raw = fxp.to_raw(np.random.default_rng(0).uniform(-2, 2, (3, 2)))
        golden = fixed_oracle.forward(raw, qnet, net, MC.activation_format)
        banks = load_banks(qnet, MC)
        pred, rep = run_inference(raw, banks, net, MC)
        assert banks.im["logits"].tolist() == golden[-1]
        assert pred == fixed_oracle.predict(golden)
        assert rep.cycles_per_state[0] == 3 * 8


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
        params["lstm.gates"][:] = qnet.gates
        for i, codes in enumerate(qnet.conv_codes):
            params[f"conv{i}.weights"][:] = codes
        params["fc.weights"][:] = fxp.from_raw(qnet.fc_raw, qnet.weight_format)
        params["lstm.w_logits"][:] = fxp.from_raw(qnet.logits_raw,
                                                  qnet.weight_format)
        for name, w in params.items():
            if quant.is_bias(name):
                w[:] = 0.0
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


class TestSummaryLatency:
    """Latencies print to 0.1 us, and to three significant digits where
    that would print a nonzero latency as 0.0."""

    @pytest.mark.parametrize("net,clock_hz,latency,worst", [
        (ECG200, 1e8, "762.8", "195.9"),
        (GESTURE, 1e8, "8864.0", "314.8"),
        (ECG200, 1.907e12, "0.04", "0.0103"),
        (ECG200, 1e300, "7.63e-290", "1.96e-290")],
        ids=["ecg200", "gesture-dba", "0.04us", "1e300Hz"])
    def test_latency_lines(self, net, clock_hz, latency, worst):
        rep, _ = _one_sequence(net, MachineConfig(clock_hz=clock_hz))
        lines = rep.summary().splitlines()
        assert f"latency             {latency} us" in lines
        assert f"worst window        {worst} us" in lines


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

    def test_banks_of_another_machine_are_rejected(self):
        # running banks on another machine would skip load_banks' capacity
        # check and book that machine's cycles and beats
        rng = np.random.default_rng(15)
        cfg, qnet, raw = random_net(rng)
        banks = load_banks(qnet, MC)
        small = MachineConfig(wb_capacity_bits=10, wb_read_bits_per_cycle=1,
                              im_bits_per_cycle=1)
        with pytest.raises(BankCapacityError):
            load_banks(qnet, small)
        with pytest.raises(ValueError, match=r"loaded for MachineConfig\(.*"
                           r"wb_capacity_bits=16020000\), not MachineConfig"
                           r"\(.*wb_capacity_bits=10\)"):
            run_inference(raw, banks, cfg, small)
        assert banks.wb_bits_read == banks.im_bits == 0
        # an equal machine built apart is the same machine
        _, rep = run_inference(raw, banks, cfg, MachineConfig())
        assert rep.max_wb_beat_bits <= MC.wb_read_bits_per_cycle


class TestBankLedger:
    """The banks keep only totals; every run books n times the schedule's
    per-sequence sums, and the report's per-sequence figures and widest
    beats are the schedule's, shared by every run."""

    def test_mixed_batches_book_n_times_the_per_sequence_sums(self):
        rng = np.random.default_rng(16)
        cfg, qnet, _ = random_net(rng, use_cnn=True)
        raws = fxp.to_raw(rng.uniform(-2, 2, (6, cfg.n_steps, cfg.input_len)))
        banks = load_banks(qnet, MC)
        reps = [run_inference(raws[0], banks, cfg, MC)[1]]
        reps += [run_inference(raws[a:b], banks, cfg, MC)[1]
                 for a, b in ((1, 4), (4, 6))]
        one = reps[0]
        assert [(r.wb_bits_read, r.im_bits_transferred) for r in reps] == [
            (k * one.wb_bits_per_seq, k * one.im_bits_per_seq)
            for k in (1, 4, 6)]
        assert (banks.wb_bits_read, banks.im_bits) == \
            (6 * one.wb_bits_per_seq, 6 * one.im_bits_per_seq)
        assert {(r.max_wb_beat_bits, r.max_im_beat_bits) for r in reps} == \
            {(one.max_wb_beat_bits, one.max_im_beat_bits)}

    @pytest.mark.parametrize("use_cnn", [False, True])
    def test_each_stored_weight_is_read_once_per_window(self, use_cnn):
        # the WB traffic comes from the network's shape, the stored bits from
        # the banks' arrays: every weight is read in each of the n_steps
        # windows, except the output layer, read once, in the final window
        rng = np.random.default_rng(18 + use_cnn)
        for _ in range(150):
            cfg, qnet, raw = random_net(rng, use_cnn)
            _, rep = run_inference(raw, load_banks(qnet, MC), cfg, MC)
            output = cfg.n_hidden * cfg.n_classes * \
                qnet.weight_format.total_bits
            assert rep.wb_bits_per_seq == cfg.n_steps * qnet.weight_bits() - \
                (cfg.n_steps - 1) * output, cfg

    def test_a_report_a_caller_changes_leaves_the_next_run_alone(self):
        rng = np.random.default_rng(17)
        cfg, qnet, raw = random_net(rng)
        _, rep = run_inference(raw, load_banks(qnet, MC), cfg, MC)
        want = (rep.cycles_per_state.tolist(), rep.total_cycles,
                rep.state_trace, rep.wb_bits_read, rep.im_bits_transferred)
        assert isinstance(rep.state_trace, tuple)
        with pytest.raises(ValueError, match="read-only"):
            rep.cycles_per_state[0] += 1
        rep.total_cycles, rep.wb_bits_read, rep.state_trace = 0, 0, ()
        _, again = run_inference(raw, load_banks(qnet, MC), cfg, MC)
        assert (again.cycles_per_state.tolist(), again.total_cycles,
                again.state_trace, again.wb_bits_read,
                again.im_bits_transferred) == want


def _one_sequence(net, mc):
    """(report, trace rows) of one simulated sequence of `net` on `mc`."""
    params = init_params(net, seed=0, init_scale=1.0)
    qnet = quant.QuantizedNetwork.from_params(params, "ternary")
    raw = fxp.to_raw(np.random.default_rng(0).uniform(
        -1, 1, (net.n_steps, net.input_len)))
    _, rep = run_inference(raw, load_banks(qnet, mc), net, mc)
    return rep, rep.trace_csv.splitlines()[1:]


class TestTrafficPins:
    """Modelled figures of the gesture-dba and ECG200 reference shapes at the
    default machine: literal values, so a transfer added, dropped or merged,
    or a cycle formula changed, shows. The benchmark's cycle gate reads
    `state_cycle_cost`, which folds the schedule's own table; these
    literals do not."""

    @pytest.mark.parametrize("net,per_state,total,worst,macs", [
        (GESTURE, [0, 0, 854_400, 7_500, 7_500, 7_500, 7_500, 2_000],
         886_400, 31_480, 26_702_000),
        (ECG200, [3_360, 1_500, 65_120, 1_400, 1_400, 1_400, 1_400, 700],
         76_280, 19_595, 2_196_700)], ids=["gesture-dba", "ecg200"])
    def test_per_sequence_cycles(self, net, per_state, total, worst, macs):
        rep, _ = _one_sequence(net, MC)
        assert rep.cycles_per_state.tolist() == per_state
        assert (rep.total_cycles, rep.worst_window_cycles,
                rep.executed_macs) == (total, worst, macs)

    @pytest.mark.parametrize("net,wb,im,rows", [
        (GESTURE, 53_424_000, 1_310_496, 180),
        (ECG200, 4_736_000, 271_704, 36)], ids=["gesture-dba", "ecg200"])
    def test_per_sequence_traffic(self, net, wb, im, rows):
        rep, trace = _one_sequence(net, MC)
        assert (rep.wb_bits_per_seq, rep.im_bits_per_seq) == (wb, im)
        assert (rep.wb_bits_read, rep.im_bits_transferred) == (wb, im)
        assert len(rep.state_trace) == len(trace) == rows
        assert rep.max_wb_beat_bits == MC.wb_read_bits_per_cycle
        assert rep.max_im_beat_bits == MC.im_bits_per_cycle

    @pytest.mark.parametrize("net,wb_beat,im_beat", [
        (GESTURE, 445_000, 7_680), (ECG200, 259_000, 7_200)],
        ids=["gesture-dba", "ecg200"])
    def test_uncapped_beats_are_the_largest_transfers(self, net, wb_beat,
                                                      im_beat):
        wide = MachineConfig(wb_read_bits_per_cycle=10**9,
                             im_bits_per_cycle=10**9)
        rep, _ = _one_sequence(net, wide)
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


class TestLaneSharing:
    """State 3's four gate products share every MAC lane, from one lane up."""

    LANES = range(1, 65)

    def _nets(self, seed):
        rng = np.random.default_rng(seed)
        return [random_net(rng)[:2] for _ in range(12)]

    def test_multiples_of_four_keep_a_quarter_per_gate(self):
        # restated independently: each gate product on lanes // 4 lanes
        for cfg, _ in self._nets(30):
            for lanes in self.LANES[3::4]:
                mc = MachineConfig(mac_lanes=lanes)
                quarter = -(-cfg.n_hidden // (lanes // 4))
                assert state_cycle_cost(3, cfg, mc) == \
                    (cfg.n_hidden + cfg.input_len) * quarter

    def test_more_lanes_never_cost_more_cycles(self):
        for cfg, qnet in self._nets(31):
            bits = qnet.weight_format.total_bits
            per_state = [fsm._schedule(cfg, MachineConfig(mac_lanes=lanes),
                                       bits).cycles_per_state
                         for lanes in self.LANES]
            for fewer, more in zip(per_state, per_state[1:]):
                assert (more <= fewer).all() and more.sum() <= fewer.sum()

    def test_lanes_past_the_widest_product_change_nothing(self):
        # 10**400 lanes is past float range; every product still takes a
        # pass. State 1: 20 positions * ((10 + 1) + (30 + 1)) filter and
        # ReLU passes over the two layers = 840
        def per_state(lanes):
            mc = MachineConfig(mac_lanes=lanes)
            return [state_cycle_cost(s, ECG200, mc) for s in range(1, 9)]

        assert per_state(10**400) == per_state(10**6) == \
            [840, 1, 370, 350, 350, 350, 350, 700]

    def test_lane_work_fits_the_lanes(self):
        nets = self._nets(32)
        # the draw covers multi-channel inputs and kernels wider than the
        # window
        assert any(cfg.n_channels > 1 for cfg, _ in nets)
        assert any(m > cfg.window_len
                   for cfg, _ in nets for _, _, m in cfg.conv_shapes())
        for cfg, qnet in nets:
            bits = qnet.weight_format.total_bits
            for lanes in self.LANES:
                mc = MachineConfig(mac_lanes=lanes)
                for v in fsm._window_visits(cfg, mc, bits, final=True):
                    assert v.macs <= lanes * v.cycles, (cfg, lanes, v)


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

    def test_trace_file(self):
        rng = np.random.default_rng(12)
        cfg, qnet, raw = random_net(rng, use_cnn=True)
        _, rep = run_inference(raw, load_banks(qnet, MC), cfg, MC)
        lines = rep.trace_csv.splitlines()
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
