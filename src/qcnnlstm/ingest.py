"""Dataset loading, Hilbert-envelope preprocessing, normalization, splitting.

Reads UCR-style rows (label first, tab or comma separated, one univariate
series per row) and the per-channel container for multichannel data, both
through the checked readers in `datagen`. Normalization statistics are
always fitted on the training split alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .datagen import (DataFormatError, WindowedSequence, load_channels,
                      make_windows, parse_rows, save_channels,
                      stratified_split, write_rows)

__all__ = [
    "DataFormatError",
    "RawDataset",
    "load_ucr",
    "save_ucr",
    "load_multichannel",
    "save_multichannel",
    "hilbert_envelope",
    "normalize_and_split",
    "dataset_to_sequences",
]


@dataclass
class RawDataset:
    """Labeled (channels, length) signals with contiguous labels 0..K-1."""

    records: list  # of (label, signal (M, T))
    sample_rate_hz: float = 0.0
    name: str = ""
    label_names: dict = field(default_factory=dict)  # new label -> source token

    @property
    def n_classes(self) -> int:
        return len({label for label, _ in self.records})

    @property
    def n_channels(self) -> int:
        return self.records[0][1].shape[0]


def _remap_labels(raw_labels) -> tuple[np.ndarray, dict]:
    """Labels 0..K-1 in sorted token order, and label -> source token."""
    tokens, remapped = np.unique(raw_labels, return_inverse=True)
    return remapped, dict(enumerate(tokens.tolist()))


def load_ucr(path, sample_rate_hz: float = 0.0) -> RawDataset:
    """One labeled univariate series per row; labels remapped to 0..K-1."""
    path = Path(path)
    rows = parse_rows(path)
    labels, label_names = _remap_labels(rows[:, 0].tolist())
    records = [(int(lab), row[None, 1:]) for lab, row in zip(labels, rows)]
    return RawDataset(records, sample_rate_hz, path.stem, label_names)


def save_ucr(ds: RawDataset, path) -> None:
    if ds.n_channels != 1:
        raise DataFormatError("UCR rows are univariate; use save_multichannel")
    write_rows(path, [label for label, _ in ds.records],
               [signal[0] for _, signal in ds.records])


def save_multichannel(ds: RawDataset, out_dir) -> None:
    """The per-channel container; the manifest keeps the source label tokens."""
    labels = ",".join(str(ds.label_names.get(i, i)) for i in range(ds.n_classes))
    save_channels(out_dir, [label for label, _ in ds.records],
                  [signal for _, signal in ds.records],
                  {"name": ds.name, "sample_rate_hz": repr(ds.sample_rate_hz),
                   "labels": labels})


def load_multichannel(in_dir) -> RawDataset:
    kv, tokens, signals, _ = load_channels(in_dir)
    labels, label_names = _remap_labels(tokens.tolist())
    if "labels" in kv:  # the stored labels index the source tokens
        names = [float(t) for t in kv["labels"].split(",")]
        label_names = {i: names[int(t)] for i, t in label_names.items()}
    return RawDataset(list(zip(labels.tolist(), signals)),
                      float(kv.get("sample_rate_hz", 0.0)), kv.get("name", ""),
                      label_names)


def hilbert_envelope(signal) -> np.ndarray:
    """Magnitude of the analytic signal, via the frequency-domain method.

    Negative frequencies are zeroed, positive ones doubled, DC (and the
    Nyquist bin for even lengths) kept as is.
    """
    x = np.asarray(signal, dtype=np.float64)
    n = x.shape[-1]
    if n < 4:
        raise DataFormatError("signal too short for an envelope")
    spec = np.fft.fft(x, axis=-1)
    weights = np.zeros(n)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[n // 2] = 1.0
        weights[1:n // 2] = 2.0
    else:
        weights[1:(n + 1) // 2] = 2.0
    analytic = np.fft.ifft(spec * weights, axis=-1)
    return np.abs(analytic)


def envelope_dataset(ds: RawDataset) -> RawDataset:
    records = [(label, hilbert_envelope(signal)) for label, signal in ds.records]
    return replace(ds, records=records)


def normalize_and_split(ds: RawDataset, train_fraction: float = 0.7,
                        seed: int = 0, predefined_test: RawDataset | None = None):
    """Stratified split + per-channel z-normalization with train-only stats.

    With `predefined_test` the provided splits are used verbatim and only the
    normalization is applied (statistics still come from `ds`, the train
    split). Its labels are mapped through the train split's source tokens
    (`label_names`); a token the train split lacks is a `DataFormatError`.
    """
    if predefined_test is None:
        train_idx, test_idx = stratified_split(
            [label for label, _ in ds.records], train_fraction, seed)
        train_records = [ds.records[i] for i in train_idx]
        test_records = [ds.records[i] for i in test_idx]
    else:
        train_records = list(ds.records)
        test_records = _relabel(predefined_test, ds)
        if {label for label, _ in train_records} != \
                {label for label, _ in test_records}:
            raise DataFormatError("a class is absent from the test split")

    stacked = np.concatenate([sig for _, sig in train_records], axis=1)
    mean = stacked.mean(axis=1, keepdims=True)
    std = stacked.std(axis=1, keepdims=True)
    std[std == 0.0] = 1.0

    def norm(records):
        return [(label, (sig - mean) / std) for label, sig in records]

    train = replace(ds, records=norm(train_records))
    test = replace(ds, records=norm(test_records),
                   name=(predefined_test.name if predefined_test else ds.name))
    return train, test


def _relabel(test: RawDataset, train: RawDataset) -> list:
    """Test records relabelled by source token through train's label map."""
    to_train = {train.label_names.get(label, label): label
                for label, _ in train.records}
    records = []
    for label, sig in test.records:
        token = test.label_names.get(label, label)
        if token not in to_train:
            raise DataFormatError(f"{test.name or 'test split'}: label {token!r} "
                                  "does not occur in the train split")
        records.append((to_train[token], sig))
    return records


def dataset_to_sequences(ds: RawDataset, window_len: int, n_steps: int,
                         noise_amplitude: float = 0.0,
                         seed: int = 0) -> list[WindowedSequence]:
    """Cut each record into a windowed sequence for the classifier."""
    return [make_windows(signal, label, window_len, n_steps, noise_amplitude,
                         seed + i)
            for i, (label, signal) in enumerate(ds.records)]
