"""Dataset loading, Hilbert-envelope preprocessing, normalization, splitting.

Reads UCR-style rows (label first, tab or comma separated, one univariate
series per row) and a one-file-per-channel container for multichannel data.
Normalization statistics are always fitted on the training split alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .datagen import WindowedSequence, make_windows

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


class DataFormatError(ValueError):
    pass


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


def _parse_rows(text: str, path) -> list:
    rows = []
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        sep = "\t" if "\t" in line else ","
        tokens = [t for t in line.strip().split(sep) if t != ""]
        try:
            row = [float(t) for t in tokens]
        except ValueError as exc:
            raise DataFormatError(f"{path}:{ln}: non-numeric token") from exc
        if not all(np.isfinite(row)):
            raise DataFormatError(f"{path}:{ln}: non-finite value")
        rows.append(row)
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    width = len(rows[0])
    for ln, row in enumerate(rows, start=1):
        if len(row) != width:
            raise DataFormatError(f"{path}:{ln}: expected {width} columns, "
                                  f"got {len(row)}")
    return rows


def _remap_labels(raw_labels) -> tuple[np.ndarray, dict]:
    uniq = sorted(set(raw_labels))
    mapping = {tok: i for i, tok in enumerate(uniq)}
    remapped = np.array([mapping[t] for t in raw_labels], dtype=np.int64)
    return remapped, {i: tok for tok, i in mapping.items()}


def load_ucr(path, sample_rate_hz: float = 0.0) -> RawDataset:
    """One labeled univariate series per row; labels remapped to 0..K-1."""
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{path}: no such file")
    rows = _parse_rows(path.read_text(), path)
    raw_labels = [row[0] for row in rows]
    labels, label_names = _remap_labels(raw_labels)
    records = [(int(lab), np.array(row[1:], dtype=np.float64)[None, :])
               for lab, row in zip(labels, rows)]
    return RawDataset(records, sample_rate_hz, path.stem, label_names)


def save_ucr(ds: RawDataset, path) -> None:
    if ds.n_channels != 1:
        raise DataFormatError("UCR rows are univariate; use save_multichannel")
    lines = []
    for label, signal in ds.records:
        vals = "\t".join(repr(float(v)) for v in signal[0])
        lines.append(f"{label}\t{vals}")
    Path(path).write_text("\n".join(lines) + "\n")


def save_multichannel(ds: RawDataset, out_dir) -> None:
    """One UCR file per channel plus a key=value manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_ch = ds.n_channels
    for ch in range(n_ch):
        lines = [f"{label}\t" + "\t".join(repr(float(v)) for v in signal[ch])
                 for label, signal in ds.records]
        (out / f"channel{ch}.tsv").write_text("\n".join(lines) + "\n")
    labels = ",".join(str(ds.label_names.get(i, i)) for i in range(ds.n_classes))
    (out / "manifest.txt").write_text(
        f"name = {ds.name}\nsample_rate_hz = {ds.sample_rate_hz!r}\n"
        f"channels = {n_ch}\nlabels = {labels}\n")


def load_multichannel(in_dir) -> RawDataset:
    src = Path(in_dir)
    kv = {}
    for line in (src / "manifest.txt").read_text().splitlines():
        k, _, v = line.partition("=")
        kv[k.strip()] = v.strip()
    n_ch = int(kv["channels"])
    per_channel = []
    for ch in range(n_ch):
        rows = _parse_rows((src / f"channel{ch}.tsv").read_text(),
                           src / f"channel{ch}.tsv")
        per_channel.append(rows)
    raw_labels = [row[0] for row in per_channel[0]]
    labels, label_names = _remap_labels(raw_labels)
    records = []
    for i, lab in enumerate(labels):
        sig = np.array([per_channel[ch][i][1:] for ch in range(n_ch)])
        records.append((int(lab), sig))
    return RawDataset(records, float(kv.get("sample_rate_hz", 0.0)),
                      kv.get("name", ""), label_names)


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
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")
        rng = np.random.default_rng(seed)
        by_class: dict[int, list] = {}
        for i, (label, _) in enumerate(ds.records):
            by_class.setdefault(label, []).append(i)
        train_idx, test_idx = [], []
        for label in sorted(by_class):
            idx = np.array(by_class[label])
            idx = idx[rng.permutation(len(idx))]
            n_train = int(round(train_fraction * len(idx)))
            train_idx.extend(idx[:n_train].tolist())
            test_idx.extend(idx[n_train:].tolist())
        train_records = [ds.records[i] for i in sorted(train_idx)]
        test_records = [ds.records[i] for i in sorted(test_idx)]
    else:
        train_records = list(ds.records)
        test_records = _relabel(predefined_test, ds)

    train_labels = {label for label, _ in train_records}
    test_labels = {label for label, _ in test_records}
    if train_labels != test_labels:
        raise DataFormatError("a class is absent from one of the splits")

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
    out = []
    for i, (label, signal) in enumerate(ds.records):
        out.append(make_windows(signal, label, window_len, n_steps,
                                noise_amplitude, seed + i))
    return out
