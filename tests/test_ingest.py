from pathlib import Path

import numpy as np
import pytest
import scipy.signal

from qcnnlstm.datagen import stratified_split, write_rows
from qcnnlstm.ingest import (DataFormatError, RawDataset, dataset_to_sequences,
                             envelope_dataset, hilbert_envelope, load_ucr,
                             normalize_and_split)

ECG_DIR = Path(__file__).resolve().parent.parent / "data" / "ECG200"


class TestLoadUcr:
    def test_labels_remapped_contiguous(self, tmp_path):
        f = tmp_path / "two.tsv"
        f.write_text("1\t0.0\t1.0\n2\t2.0\t3.0\n")
        ds = load_ucr(f)
        assert ds.labels.tolist() == [0, 1]
        assert ds.label_names == {0: 1.0, 1: 2.0}

    def test_comma_separator(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("-1,0.5,0.25\n1,0.1,0.2\n")
        ds = load_ucr(f)
        assert ds.signals.shape == (2, 1, 2)
        assert ds.labels.tolist() == [0, 1]

    def test_ecg200_train_file_shape(self):
        ds = load_ucr(ECG_DIR / "ECG200_TRAIN.tsv")
        assert ds.signals.shape == (100, 1, 96)
        assert len(ds.labels) == 100
        assert ds.n_classes == 2

    def test_ragged_rows_rejected(self, tmp_path):
        f = tmp_path / "ragged.tsv"
        f.write_text("0\t1\t2\t3\t4\t5\n0\t1\t2\t3\t4\n")
        with pytest.raises(DataFormatError):
            load_ucr(f)

    def test_non_numeric_rejected(self, tmp_path):
        f = tmp_path / "bad.tsv"
        f.write_text("0\t1.0\tpotato\n")
        with pytest.raises(DataFormatError):
            load_ucr(f)

    def test_empty_rejected(self, tmp_path):
        f = tmp_path / "empty.tsv"
        f.write_text("\n")
        with pytest.raises(DataFormatError):
            load_ucr(f)


    def test_non_finite_rejected(self, tmp_path):
        f = tmp_path / "nan.tsv"
        f.write_text("0\t1.0\tnan\n")
        with pytest.raises(DataFormatError):
            load_ucr(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_ucr(tmp_path / "nope.tsv")

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        labels = np.arange(6) % 2
        signals = rng.normal(size=(6, 1, 16))
        write_rows(tmp_path / "rt.tsv", labels, signals[:, 0])
        loaded = load_ucr(tmp_path / "rt.tsv")
        assert np.array_equal(loaded.labels, labels)
        assert np.array_equal(loaded.signals, signals)


class TestHilbertEnvelope:
    def test_sinusoid_envelope_is_amplitude(self):
        t = np.arange(2048)
        x = 1.7 * np.sin(2 * np.pi * t / 32)
        env = hilbert_envelope(x)
        interior = env[100:-100]
        assert np.abs(interior - 1.7).max() < 0.02 * 1.7

    def test_constant_signal(self):
        env = hilbert_envelope(np.full(64, -3.0))
        assert np.allclose(env, 3.0)

    def test_amplitude_modulation_tracked(self):
        t = np.arange(4000, dtype=np.float64)
        modulator = 1.0 + 0.5 * np.sin(0.01 * t)
        x = modulator * np.sin(t)
        env = hilbert_envelope(x)
        sl = slice(200, -200)
        assert np.abs(env[sl] - modulator[sl]).max() < 0.05 * modulator.max()

    def test_non_negative(self):
        x = np.random.default_rng(2).normal(size=500)
        assert hilbert_envelope(x).min() >= 0.0

    def test_matches_scipy_analytic_signal(self):
        x = np.random.default_rng(3).normal(size=777)
        ours = hilbert_envelope(x)
        theirs = np.abs(scipy.signal.hilbert(x))
        assert np.allclose(ours, theirs, atol=1e-10)

    def test_too_short_rejected(self):
        with pytest.raises(DataFormatError):
            hilbert_envelope(np.zeros(3))

    def test_envelope_dataset_applies_per_record(self):
        rng = np.random.default_rng(4)
        ds = RawDataset(np.array([0, 1]), rng.normal(size=(2, 2, 64)))
        env = envelope_dataset(ds)
        assert env.signals.shape == (2, 2, 64)
        assert env.signals.min() >= 0.0
        for sig, got in zip(ds.signals, env.signals):
            assert np.array_equal(hilbert_envelope(sig), got)


class TestNormalizeAndSplit:
    def _balanced(self, n=100, length=20):
        rng = np.random.default_rng(5)
        return RawDataset(np.arange(n) % 2,
                          rng.normal(loc=3.0, scale=2.0, size=(n, 1, length)))

    def test_stratified_70_30(self):
        train, test = normalize_and_split(self._balanced(), 0.7, seed=1)
        assert len(train.signals) == 70 and len(test.signals) == 30
        for split, count in ((train, 35), (test, 15)):
            assert np.bincount(split.labels).tolist() == [count, count]

    def test_train_stats_are_zero_mean_unit_var(self):
        train, _ = normalize_and_split(self._balanced(), 0.7, seed=2)
        stacked = train.signals
        assert abs(stacked.mean()) < 1e-10
        assert abs(stacked.var() - 1.0) < 1e-10

    def test_per_channel_stats_equal_the_concatenated_oracle(self):
        # three channels at their own level and scale; the oracle fits each
        # channel's statistics on the train recordings side by side
        rng = np.random.default_rng(8)
        signals = rng.normal(size=(20, 3, 12)) * [[2.0], [0.5], [1.0]] + \
            [[3.0], [-1.0], [0.0]]
        ds = RawDataset(np.arange(20) % 2, signals)
        train, test = normalize_and_split(ds, 0.5, seed=1)
        train_idx, test_idx = stratified_split(ds.labels, 0.5, 1)
        stacked = np.concatenate([signals[i] for i in train_idx], axis=1)
        mean = stacked.mean(axis=1, keepdims=True)
        std = stacked.std(axis=1, keepdims=True)
        for split, idx in ((train, train_idx), (test, test_idx)):
            assert np.array_equal(split.labels, ds.labels[idx])
            for got, i in zip(split.signals, idx):
                assert np.array_equal(got, (signals[i] - mean) / std)

    def test_deterministic_per_seed(self):
        a_train, _ = normalize_and_split(self._balanced(), 0.7, seed=3)
        b_train, _ = normalize_and_split(self._balanced(), 0.7, seed=3)
        assert np.array_equal(a_train.labels, b_train.labels)
        assert np.array_equal(a_train.signals, b_train.signals)

    def test_test_set_never_influences_stats(self):
        # oracle: fit mean/std on the train recordings alone, apply to test
        ds = self._balanced()
        train, test = normalize_and_split(ds, 0.7, seed=4)
        # recover the raw train rows by index bookkeeping: renormalizing the
        # normalized train split must be the identity transform
        mean, std = train.signals.mean(), train.signals.std()
        assert np.allclose(train.signals, (train.signals - mean) / std,
                           atol=1e-9)
        # and the test split is NOT unit variance under its own stats
        tstack = test.signals
        assert abs(tstack.mean()) > 1e-13 or abs(tstack.var() - 1) > 1e-13

    def test_predefined_split_used_verbatim(self):
        train_ds = load_ucr(ECG_DIR / "ECG200_TRAIN.tsv")
        test_ds = load_ucr(ECG_DIR / "ECG200_TEST.tsv")
        train, test = normalize_and_split(train_ds, predefined_test=test_ds)
        assert len(train.signals) == 100 and len(test.signals) == 100
        assert abs(train.signals.mean()) < 1e-10

    def test_class_absent_rejected(self):
        rng = np.random.default_rng(6)
        train_ds = RawDataset(np.array([0]), rng.normal(size=(1, 1, 8)))
        test_ds = RawDataset(np.array([1]), rng.normal(size=(1, 1, 8)))
        with pytest.raises(DataFormatError):
            normalize_and_split(train_ds, predefined_test=test_ds)

    def test_test_labels_follow_train_tokens(self, tmp_path):
        # tokens {2, 1} in the test file map through train's {1: 0, 2: 1}
        (tmp_path / "a.tsv").write_text("1\t0.0\t1.0\n2\t2.0\t3.0\n")
        (tmp_path / "b.tsv").write_text("2\t0.5\t0.5\n1\t1.0\t1.0\n2\t4.0\t4.0\n")
        train_ds = load_ucr(tmp_path / "a.tsv")
        _, test = normalize_and_split(train_ds,
                                      predefined_test=load_ucr(tmp_path / "b.tsv"))
        assert test.labels.tolist() == [1, 0, 1]

    def test_unknown_test_token_rejected(self, tmp_path):
        # {-1, 1} vs {1, 2}: remapped per file both read {0, 1}, but the
        # test file's 2 is no class of the train file
        (tmp_path / "a.tsv").write_text("-1\t0.0\t1.0\n1\t2.0\t3.0\n")
        (tmp_path / "b.tsv").write_text("1\t0.0\t1.0\n2\t2.0\t3.0\n")
        with pytest.raises(DataFormatError, match="2.0"):
            normalize_and_split(load_ucr(tmp_path / "a.tsv"),
                                predefined_test=load_ucr(tmp_path / "b.tsv"))

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            normalize_and_split(self._balanced(), 1.5)


class TestDatasetToSequences:
    def test_shapes_and_labels(self):
        rng = np.random.default_rng(7)
        ds = RawDataset(np.array([1]), rng.normal(size=(1, 2, 30)))
        seqs = dataset_to_sequences(ds, window_len=10, n_steps=3)
        assert seqs[0].windows.shape == (3, 20)
        assert seqs[0].label == 1
