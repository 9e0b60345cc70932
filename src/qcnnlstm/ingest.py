"""Dataset loading, Hilbert-envelope preprocessing, normalization, splitting.

Reads UCR-style rows (label first, tab or comma separated, one univariate
series per row) through the checked reader in `datagen`. Normalization
statistics are always fitted on the training split alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .datagen import (DataFormatError, WindowedSequence, make_windows,
                      parse_rows, stratified_split)

__all__ = [
    "DataFormatError",
    "RawDataset",
    "load_ucr",
    "hilbert_envelope",
    "normalize_and_split",
    "dataset_to_sequences",
]


@dataclass
class RawDataset:
    """Labeled (channels, length) signals with contiguous labels 0..K-1."""

    records: list  # of (label, signal (M, T))
    name: str = ""
    label_names: dict = field(default_factory=dict)  # new label -> source token

    @property
    def n_classes(self) -> int:
        return len({label for label, _ in self.records})

    @property
    def n_channels(self) -> int:
        return self.records[0][1].shape[0]


def load_ucr(path) -> RawDataset:
    """One labeled univariate series per row; labels remapped to 0..K-1 in
    sorted token order, with `label_names` mapping each to its token."""
    path = Path(path)
    rows = parse_rows(path)
    tokens, labels = np.unique(rows[:, 0].tolist(), return_inverse=True)
    records = [(int(lab), row[None, 1:]) for lab, row in zip(labels, rows)]
    return RawDataset(records, path.stem, dict(enumerate(tokens.tolist())))


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
