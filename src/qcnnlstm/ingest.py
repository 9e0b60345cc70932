"""Dataset loading, Hilbert-envelope preprocessing and normalization.

Reads UCR-style rows (label first, tab or comma separated, one univariate
series per row) through the checked reader in `datagen`. A UCR pair comes
with its split; `normalize_and_split` keeps it and fits the normalization
statistics on the training split alone. `datagen.stratified_split` is the
package's one split of pooled data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .datagen import DataFormatError, WindowedSequence, make_windows, parse_rows

__all__ = [
    "DataFormatError",
    "RawDataset",
    "load_ucr",
    "hilbert_envelope",
    "envelope_dataset",
    "normalize_and_split",
    "dataset_to_sequences",
]


@dataclass
class RawDataset:
    """Labeled (channels, length) signals with contiguous labels 0..K-1."""

    labels: np.ndarray  # (N,) ints
    signals: np.ndarray  # (N, channels, length)
    name: str = ""
    label_names: dict = field(default_factory=dict)  # new label -> source token

    @property
    def n_classes(self) -> int:
        return len(np.unique(self.labels))


def load_ucr(path, data: bytes | None = None) -> RawDataset:
    """One labeled univariate series per row; labels remapped to 0..K-1 in
    sorted token order, with `label_names` mapping each to its token.
    `data` is the file's bytes when the caller has already read them."""
    path = Path(path)
    rows = parse_rows(path, data)
    tokens, labels = np.unique(rows[:, 0].tolist(), return_inverse=True)
    return RawDataset(labels, rows[:, None, 1:], path.stem,
                      dict(enumerate(tokens.tolist())))


def hilbert_envelope(signal) -> np.ndarray:
    """Magnitude of the analytic signal, via the frequency-domain method.

    Negative frequencies are zeroed, positive ones doubled, DC (and the
    Nyquist bin for even lengths) kept as is.
    """
    x = np.asarray(signal, dtype=np.float64)
    n = x.shape[-1]
    if n < 4:
        raise DataFormatError("an envelope needs series of at least 4 "
                              "samples")
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
    return replace(ds, signals=hilbert_envelope(ds.signals))


def normalize_and_split(train: RawDataset, predefined_test: RawDataset):
    """Per-channel z-normalization of a given split, its statistics fitted
    on `train` alone. `predefined_test` is kept verbatim, its labels mapped
    through the train split's source tokens (`label_names`); a token the
    train split lacks, or a class absent from the test split, is a
    `DataFormatError`.
    """
    test = replace(train, labels=_relabel(predefined_test, train),
                   signals=predefined_test.signals, name=predefined_test.name)
    if set(train.labels.tolist()) != set(test.labels.tolist()):
        raise DataFormatError("a class is absent from the test split")
    # (channels, N*T), each channel's samples in recording order: the
    # statistics are summed in this layout, so they keep their last bits
    stacked = np.concatenate(train.signals, axis=1)
    mean = stacked.mean(axis=1, keepdims=True)
    std = stacked.std(axis=1, keepdims=True)
    std[std == 0.0] = 1.0
    return (replace(train, signals=(train.signals - mean) / std),
            replace(test, signals=(test.signals - mean) / std))


def _relabel(test: RawDataset, train: RawDataset) -> np.ndarray:
    """Test labels relabelled by source token through train's label map."""
    to_train = {train.label_names.get(label, label): label
                for label in train.labels.tolist()}
    labels = []
    for label in test.labels.tolist():
        token = test.label_names.get(label, label)
        if token not in to_train:
            raise DataFormatError(f"{test.name or 'test split'}: label {token!r} "
                                  "does not occur in the train split")
        labels.append(to_train[token])
    return np.array(labels, dtype=np.int64)


def dataset_to_sequences(ds: RawDataset, window_len: int,
                         n_steps: int) -> list[WindowedSequence]:
    """Cut every recording into a windowed sequence for the classifier."""
    windows = make_windows(ds.signals, window_len, n_steps)
    return list(map(WindowedSequence, windows, map(int, ds.labels.tolist())))
