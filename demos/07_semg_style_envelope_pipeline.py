#!/usr/bin/env python3
"""Multichannel container + Hilbert envelope, gesture-recognition style.

Muscle-activity patterns are recognizable from signal amplitude, so the
preprocessing for sEMG runs each electrode through an envelope detector.
This demo fabricates an 8-channel stand-in (gesture classes differ by which
channels burst), round-trips it through the dataset container (one row file,
each row a label and every channel's samples in turn), extracts envelopes,
and trains a small LSTM on the windowed result.
"""

import tempfile

import numpy as np

from qcnnlstm import datagen, ingest
from qcnnlstm.model import NetworkConfig
from qcnnlstm.train import TrainConfig, train

N_CHANNELS, LENGTH, N_CLASSES, PER_CLASS = 8, 300, 4, 12

rng = np.random.default_rng(3)
labels = np.repeat(np.arange(N_CLASSES), PER_CLASS)
signals = np.empty((len(labels), N_CHANNELS, LENGTH))
for sig, label in zip(signals, labels):
    active = {label * 2, label * 2 + 1}  # two bursting electrodes per gesture
    t = np.arange(LENGTH)
    burst = np.exp(-0.5 * ((t - 150 - rng.uniform(-20, 20)) / 60.0) ** 2)
    for ch in range(N_CHANNELS):
        carrier = rng.normal(size=LENGTH)
        gain = 1.0 + 4.0 * burst if ch in active else 1.0
        sig[ch] = gain * carrier * 0.2

print(f"fabricated {len(labels)} recordings, {N_CHANNELS} channels "
      f"x {LENGTH} samples, {N_CLASSES} gesture classes")

with tempfile.TemporaryDirectory() as tmp:
    datagen.save_channels(tmp, labels, signals, {"name": "semg-demo"})
    _, labels, signals, _ = datagen.load_channels(tmp)
dataset = ingest.RawDataset(labels.astype(int), signals, name="semg-demo")
print("container round trip: one TSV row per recording, every channel in "
      "turn, plus a key=value manifest")

enveloped = ingest.envelope_dataset(dataset)
raw_std = np.std(dataset.signals)
env_mean = enveloped.signals.mean()
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
