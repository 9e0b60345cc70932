"""Fourier-domain similarity analysis and stochastic 2-D embedding.

Certifies that synthetic classes are hard to separate: distances between
log power spectra are fitted by squared planar distances between points in
the plane, D_hat(i,j) = (x_i - x_j)^2 + (y_i - y_j)^2, via a random-search
minimizer that only ever accepts improving moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DistanceMatrix",
    "Embedding2D",
    "fourier_distance",
    "rescale_distances",
    "embedding_energy",
    "embed_2d",
    "embedding_correlation",
    "save_embedding",
]

LOG_POWER_EPS = 1e-12
RESCALED_MEAN = 1.0 / 3.0  # the mean off-diagonal D of `rescale_distances`
EMBED_STEP = 1e-3  # the standard deviation of `embed_2d`'s moves


@dataclass
class DistanceMatrix:
    d: np.ndarray              # (N, N) symmetric, zero diagonal
    realization_class: np.ndarray  # class index per row

    @property
    def n(self) -> int:
        return self.d.shape[0]


@dataclass
class Embedding2D:
    points: np.ndarray   # (N, 2)
    energy: float
    history: np.ndarray  # accepted-energy trace, non-increasing


def fourier_distance(signals, labels=None) -> DistanceMatrix:
    """Distance matrix of log power spectra: D(i,j) = sum_k (P_i - P_j)^2 * df.

    P is the log of the one-sided power spectrum; the bin width df is 1/T
    (frequency in cycles per sample).
    """
    sig = np.asarray(signals, dtype=np.float64)
    if sig.ndim != 2:
        raise ValueError("signals must be equal-length rows")
    n, t_len = sig.shape
    if t_len < 8:
        raise ValueError("signals shorter than 8 samples")
    power = np.abs(np.fft.rfft(sig, axis=1)) ** 2
    log_p = np.log(power + LOG_POWER_EPS)
    sq_norms = (log_p ** 2).sum(axis=1)
    gram = log_p @ log_p.T
    d = (sq_norms[:, None] + sq_norms[None, :] - 2.0 * gram) * (1.0 / t_len)
    d = np.maximum(d, 0.0)
    np.fill_diagonal(d, 0.0)
    d = 0.5 * (d + d.T)
    if labels is None:
        labels = np.zeros(n, dtype=np.int64)
    return DistanceMatrix(d, np.asarray(labels, dtype=np.int64))


def rescale_distances(dm: DistanceMatrix) -> DistanceMatrix:
    """Scale D so its mean off-diagonal, `RESCALED_MEAN`, fits a unit box.

    Pearson correlation is scale-invariant, so this changes nothing about the
    embedding quality measure; it only puts the optimizer's target within
    range of points initialized on [0, 1]^2.
    """
    off = dm.d[~np.eye(dm.n, dtype=bool)]
    mean = off.mean()
    if mean <= 0:
        return dm
    return DistanceMatrix(dm.d * (RESCALED_MEAN / mean), dm.realization_class)


def _dhat(points):
    dx2 = (points[:, 0, None] - points[None, :, 0]) ** 2
    dy2 = (points[:, 1, None] - points[None, :, 1]) ** 2
    return dx2 + dy2


def embedding_energy(d, points) -> float:
    """E = sum over i != j of (D_hat(i,j) - D(i,j))^2."""
    diff = _dhat(points) - d
    np.fill_diagonal(diff, 0.0)
    return float((diff ** 2).sum())


def embed_2d(dm: DistanceMatrix, iters: int = 100_000,
             seed: int = 0) -> Embedding2D:
    """Random-perturbation search: move all points, keep only improvements.

    Points start uniform on [0, 1]^2; each iteration adds Gaussian(0,
    EMBED_STEP) to every coordinate, kept only if the energy decreases.
    """
    if iters < 0:
        raise ValueError("iters must be >= 0")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, (dm.n, 2))
    best = embedding_energy(dm.d, pts)
    history = np.empty(iters + 1)
    history[0] = best
    for it in range(iters):
        cand = pts + rng.normal(0.0, EMBED_STEP, pts.shape)
        e = embedding_energy(dm.d, cand)
        if e < best:
            best, pts = e, cand
        history[it + 1] = best
    return Embedding2D(pts, best, history)


def embedding_correlation(dm: DistanceMatrix, emb: Embedding2D) -> float:
    """Pearson correlation between off-diagonal D-hat and D entries."""
    mask = ~np.eye(dm.n, dtype=bool)
    a = _dhat(emb.points)[mask]
    b = dm.d[mask]
    sa, sb = a.std(), b.std()
    if sa == 0.0 or sb == 0.0:
        raise ValueError("correlation undefined: zero variance")
    return float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))


def save_embedding(out_dir, dm: DistanceMatrix, emb: Embedding2D) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    np.savetxt(out / "distance_matrix.csv", dm.d, delimiter=",")
    pts = np.column_stack([dm.realization_class, emb.points])
    np.savetxt(out / "embedding.csv", pts, delimiter=",",
               header="class,x,y", comments="")
    np.savetxt(out / "energy_trace.csv", emb.history, delimiter=",",
               header="energy", comments="")
