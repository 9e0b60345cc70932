#!/usr/bin/env python3
"""Generate chaotic class data and certify its similarity structure.

Walks the Fourier-analysis pipeline: synthesize five Lorenz classes that
differ only in the sigma parameter, compute pairwise distances between log
power spectra, embed the realizations in the plane with the accept-only-
improving random search, and report how well the planar model explains the
spectral distances.
"""

import numpy as np

from qcnnlstm import analysis, datagen

print("== 1. five Lorenz classes, 20 realizations each ==")
dataset = datagen.make_lorenz_dataset(per_class=20, window_len=100,
                                      n_steps=10, transient=1000,
                                      noise_amplitude=0.0, seed=1)
signals = np.stack([seq.windows.ravel() for seq in dataset.sequences])
labels = np.array([seq.label for seq in dataset.sequences])
print(f"   sigma values: {dataset.class_params}")
print(f"   {signals.shape[0]} series of {signals.shape[1]} samples, "
      f"all inside [{signals.min():.2f}, {signals.max():.2f}]")

print("== 2. spectral distance matrix ==")
dm = analysis.fourier_distance(signals, labels=labels)
off = dm.d[~np.eye(dm.n, dtype=bool)]
print(f"   off-diagonal distances: mean {off.mean():.2f}, max {off.max():.2f}")

print("== 3. stochastic 2-D embedding (accept only improving moves) ==")
scaled = analysis.rescale_distances(dm)
embedding = analysis.embed_2d(scaled, iters=50_000, seed=0)
print(f"   energy: {embedding.history[0]:.2f} -> {embedding.energy:.2f} "
      f"over {len(embedding.history) - 1} iterations")

corr = analysis.embedding_correlation(dm, embedding)
print(f"== 4. planar-model correlation: {corr:.4f} ==")
print("   (near 1.0 means the spectra lie close to a 2-D manifold, so the")
print("    classes are genuinely hard to tell apart in the Fourier domain)")
