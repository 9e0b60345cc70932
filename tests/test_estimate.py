import pytest

from qcnnlstm.estimate import (CostModelInput, cnn_weight_count,
                               estimate_table, lstm_weight_count, mac_count,
                               memory_bits, response_time)
from qcnnlstm.model import NetworkConfig

# benchmark configurations
DBA = NetworkConfig(window_len=5, n_steps=30, n_hidden=250, n_classes=8,
                    n_channels=128, use_cnn=False)
DBC = NetworkConfig(window_len=10, n_steps=15, n_hidden=350, n_classes=12,
                    n_channels=128, use_cnn=False)
ECG200_LSTM = NetworkConfig(window_len=20, n_steps=4, n_hidden=250,
                            n_classes=2, use_cnn=False)
ECG200_CNN = NetworkConfig(window_len=20, n_steps=4, n_hidden=250,
                           n_classes=2, conv_layers=((10, 5), (30, 3)))


class TestWeightCounts:
    def test_first_conv_layer(self):
        assert cnn_weight_count(1, 5, 10) == 50

    def test_second_layer_consumes_maps(self):
        assert cnn_weight_count(10, 3, 30) == 900

    def test_unit_argument(self):
        assert cnn_weight_count(1, 1, 7) == 7

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cnn_weight_count(0, 5, 10)

    def test_lstm_ecg200(self):
        assert lstm_weight_count(250, 20) == 270_000

    def test_lstm_minimal(self):
        assert lstm_weight_count(1, 1) == 8

    def test_lstm_physionet_ternary(self):
        assert lstm_weight_count(350, 50) == 560_000


class TestMacCount:
    def test_dba_paper_formula(self):
        # reference count: (5 x 128 + 250) x 250 operations per window, "~220 K"
        macs = mac_count(DBA, "window", "paper")
        assert macs == (5 * 128 + 250) * 250 == 222_500
        assert round(macs / 1e3 / 10) * 10 == 220  # ~220 K

    def test_dbc_paper_formula(self):
        macs = mac_count(DBC, "window", "paper")
        assert macs == (10 * 128 + 350) * 350 == 570_500
        assert round(macs / 1e3 / 10) * 10 == 570  # ~570 K

    def test_true_counts_gates_four_times(self):
        paper = mac_count(DBA, "window", "paper")
        true = mac_count(DBA, "window", "true")
        assert true == 4 * paper

    def test_true_adds_cnn_and_fc(self):
        true = mac_count(ECG200_CNN, "window", "true")
        gates = 4 * (20 + 250) * 250
        conv1 = 10 * 5 * 20 * 1
        conv2 = 30 * 3 * 20 * 10
        fc = (30 * 20) * 20
        assert true == gates + conv1 + conv2 + fc

    def test_sequence_adds_output_layer_once(self):
        per_window = mac_count(DBA, "window", "true")
        per_seq = mac_count(DBA, "sequence", "true")
        assert per_seq == per_window * 30 + 250 * 8

    def test_true_at_least_paper(self):
        for net in (DBA, DBC, ECG200_LSTM, ECG200_CNN):
            assert mac_count(net, "window", "true") >= \
                mac_count(net, "window", "paper")

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            mac_count(DBA, "per_epoch", "paper")
        with pytest.raises(ValueError):
            mac_count(DBA, "window", "approximate")


class TestResponseTime:
    def test_dba_at_rated_gops(self):
        # (5x128+250)x250 / 6.3 GOPs = 35.3 us, the quoted "~35 us"
        t = response_time(mac_count(DBA, "window", "paper"), 6.3)
        assert t == pytest.approx(222_500 / 6.3e9)
        assert 34.5e-6 < t < 35.5e-6

    def test_dbc_at_rated_gops(self):
        t = response_time(mac_count(DBC, "window", "paper"), 6.3)
        assert t == pytest.approx(570_500 / 6.3e9)
        assert 90.0e-6 < t < 91.0e-6

    def test_zero_macs(self):
        assert response_time(0, 6.3) == 0.0

    def test_rejects_nonpositive_gops(self):
        with pytest.raises(ValueError):
            response_time(1000, 0.0)


class TestMemoryBits:
    def test_fp_lstm_ecg200_near_table(self):
        bits = memory_bits(CostModelInput(ECG200_LSTM, "full32"))
        assert bits >= 270_000 * 32
        assert abs(bits - 9.07e6) / 9.07e6 < 0.15

    def test_ternary_below_table_value(self):
        bits = memory_bits(CostModelInput(ECG200_LSTM, "ternary2"))
        assert 270_000 * 2 <= bits <= 1.03e6

    def test_ternary_strictly_below_full(self):
        for net in (DBA, DBC, ECG200_LSTM, ECG200_CNN):
            full = memory_bits(CostModelInput(net, "full32"))
            tern = memory_bits(CostModelInput(net, "ternary2"))
            assert tern < full

    def test_no_cnn_contribution_when_disabled(self):
        with_int = memory_bits(CostModelInput(ECG200_LSTM, "full32"))
        gates_w_y = 270_000 * 32 + 250 * 2 * 32
        intermediates = 4 * (2 * 250) * 12
        assert with_int == gates_w_y + intermediates

    def test_rejects_unknown_precision(self):
        with pytest.raises(ValueError):
            CostModelInput(ECG200_LSTM, "int8")


class TestEstimateTable:
    def test_a_network_without_a_cnn_has_only_lstm_rows(self):
        labels = [row.split()[0] for row in estimate_table(DBA).splitlines()]
        assert labels == ["FP-LSTM", "T-LSTM", "paper-variant"]

    def test_a_cnn_network_adds_its_rows_after_the_lstm_rows(self):
        rows = estimate_table(ECG200_CNN).splitlines()
        assert [row.split()[0] for row in rows] == [
            "FP-LSTM", "T-LSTM", "FP-CNN-LSTM", "T-CNN-LSTM", "paper-variant"]
        assert rows[:2] == estimate_table(ECG200_LSTM).splitlines()[:2]

    def test_memory_columns_line_up(self):
        rows = estimate_table(ECG200_CNN).splitlines()[:4]
        assert {row.index("memory") for row in rows} == {13}
        assert len({row.index("Mb") for row in rows}) == 1
