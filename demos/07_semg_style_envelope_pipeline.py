#!/usr/bin/env python3
"""Multichannel container + Hilbert envelope, gesture-recognition style.

Muscle-activity patterns are recognizable from signal amplitude, so the
preprocessing for sEMG runs each electrode through an envelope detector.
This demo fabricates an 8-channel stand-in (gesture classes differ by which
channels burst), round-trips it through the one-file-per-channel container,
extracts envelopes, and trains a small LSTM on the windowed result.
"""

import tempfile

import numpy as np

from qcnnlstm import datagen, ingest
from qcnnlstm.model import NetworkConfig
from qcnnlstm.train import TrainConfig, train

N_CHANNELS, LENGTH, N_CLASSES, PER_CLASS = 8, 300, 4, 12

rng = np.random.default_rng(3)
records = []
for label in range(N_CLASSES):
    active = {label * 2, label * 2 + 1}  # two bursting electrodes per gesture
    for _ in range(PER_CLASS):
        t = np.arange(LENGTH)
        burst = np.exp(-0.5 * ((t - 150 - rng.uniform(-20, 20)) / 60.0) ** 2)
        sig = np.empty((N_CHANNELS, LENGTH))
        for ch in range(N_CHANNELS):
            carrier = rng.normal(size=LENGTH)
            gain = 1.0 + 4.0 * burst if ch in active else 1.0
            sig[ch] = gain * carrier * 0.2
        records.append((label, sig))

print(f"fabricated {len(records)} recordings, {N_CHANNELS} channels "
      f"x {LENGTH} samples, {N_CLASSES} gesture classes")

with tempfile.TemporaryDirectory() as tmp:
    datagen.save_channels(tmp, [label for label, _ in records],
                          [sig for _, sig in records], {"name": "semg-demo"})
    _, labels, signals, _ = datagen.load_channels(tmp)
dataset = ingest.RawDataset(list(zip(labels.astype(int).tolist(), signals)),
                            name="semg-demo")
print("container round trip: one TSV per channel plus a key=value manifest")

enveloped = ingest.envelope_dataset(dataset)
raw_std = np.std([sig for _, sig in dataset.records])
env_mean = np.mean([sig.mean() for _, sig in enveloped.records])
print(f"envelope extraction: zero-mean carriers (std {raw_std:.2f}) become "
      f"non-negative amplitude traces (mean {env_mean:.2f})")

train_raw, test_raw = ingest.normalize_and_split(enveloped, 0.7, seed=0)
train_seqs = ingest.dataset_to_sequences(train_raw, window_len=30, n_steps=10)
test_seqs = ingest.dataset_to_sequences(test_raw, window_len=30, n_steps=10)

net = NetworkConfig(window_len=30, n_steps=10, n_hidden=32,
                    n_classes=N_CLASSES, n_channels=N_CHANNELS, use_cnn=False)
result = train(train_seqs, test_seqs,
               TrainConfig(learning_rate=0.05, epochs=25, seed=0), net)
print(f"\nLSTM on envelope windows (240-sample input per step): "
      f"test accuracy {result.accuracy_trace[-1]:.2f}")
print("amplitude patterns alone separate the gestures, which is why the")
print("envelope front end replaces the CNN for this signal family")
