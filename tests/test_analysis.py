import numpy as np
import pytest

from qcnnlstm import analysis
from qcnnlstm.analysis import (DistanceMatrix, Embedding2D, embed_2d,
                               embedding_correlation, embedding_energy,
                               fourier_distance, rescale_distances)


def brute_force_distance(signals, bin_width):
    """Independent oracle: explicit double loop over pairs and bins."""
    sig = np.asarray(signals, dtype=np.float64)
    n = sig.shape[0]
    spectra = [np.log(np.abs(np.fft.rfft(s)) ** 2 + analysis.LOG_POWER_EPS)
               for s in sig]
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(len(spectra[i])):
                acc += (spectra[i][k] - spectra[j][k]) ** 2
            d[i, j] = acc * bin_width
    return d


class TestFourierDistance:
    def test_identical_signals_zero(self):
        s = np.random.default_rng(0).normal(size=(1, 64))
        dm = fourier_distance(np.vstack([s, s]))
        assert dm.d[0, 1] == pytest.approx(0.0, abs=1e-18)

    def test_sign_flip_invariant(self):
        s = np.random.default_rng(1).normal(size=64)
        dm = fourier_distance(np.vstack([s, -s]))
        assert dm.d[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        t = np.arange(256)
        sigs = np.vstack([np.sin(2 * np.pi * 8 * t / 256),
                          np.sin(2 * np.pi * 32 * t / 256),
                          np.random.default_rng(2).normal(size=256)])
        dm = fourier_distance(sigs)
        oracle = brute_force_distance(sigs, 1.0 / 256)
        assert dm.d[0, 1] > 0.0
        assert np.allclose(dm.d, oracle, rtol=1e-10, atol=1e-12)

    def test_matrix_invariants(self):
        sigs = np.random.default_rng(3).normal(size=(7, 32))
        dm = fourier_distance(sigs)
        assert np.allclose(dm.d, dm.d.T)
        assert np.all(np.diag(dm.d) == 0.0)
        assert np.all(dm.d >= 0.0)

    def test_rejects_short_and_ragged(self):
        with pytest.raises(ValueError):
            fourier_distance(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            fourier_distance([np.zeros(16), np.zeros(8)])


class TestEmbed2d:
    def test_zero_iters_returns_initialization(self):
        d = np.abs(np.random.default_rng(4).normal(size=(5, 5)))
        d = 0.5 * (d + d.T)
        np.fill_diagonal(d, 0.0)
        dm = DistanceMatrix(d, np.zeros(5, dtype=int))
        emb = embed_2d(dm, iters=0, seed=9)
        rng = np.random.default_rng(9)
        assert np.array_equal(emb.points, rng.uniform(0, 1, (5, 2)))
        assert emb.energy == pytest.approx(
            embedding_energy(d, emb.points))
        assert len(emb.history) == 1

    def test_history_non_increasing(self):
        d = np.abs(np.random.default_rng(5).normal(size=(6, 6)))
        d = 0.5 * (d + d.T)
        np.fill_diagonal(d, 0.0)
        dm = DistanceMatrix(d, np.zeros(6, dtype=int))
        emb = embed_2d(dm, iters=3000, seed=1)
        assert np.all(np.diff(emb.history) <= 0.0)

    def test_recovers_planar_configuration(self):
        # 4 points whose D is exactly their squared planar distances
        rng = np.random.default_rng(6)
        pts = rng.uniform(0, 1, (4, 2))
        d = analysis._dhat(pts)
        np.fill_diagonal(d, 0.0)
        dm = DistanceMatrix(d, np.zeros(4, dtype=int))
        emb = embed_2d(dm, iters=100_000, seed=2)
        assert emb.energy <= 0.5 * emb.history[0]

    def test_deterministic_per_seed(self):
        d = np.abs(np.random.default_rng(7).normal(size=(5, 5)))
        d = 0.5 * (d + d.T)
        np.fill_diagonal(d, 0.0)
        dm = DistanceMatrix(d, np.zeros(5, dtype=int))
        a = embed_2d(dm, iters=500, seed=3)
        b = embed_2d(dm, iters=500, seed=3)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.history, b.history)


class TestCorrelation:
    def _dm_from_points(self, pts):
        d = analysis._dhat(pts)
        np.fill_diagonal(d, 0.0)
        return DistanceMatrix(d, np.zeros(len(pts), dtype=int))

    def test_exact_match_gives_one(self):
        pts = np.random.default_rng(8).uniform(0, 1, (6, 2))
        dm = self._dm_from_points(pts)
        emb = Embedding2D(pts, 0.0, np.zeros(1))
        assert embedding_correlation(dm, emb) == pytest.approx(1.0)

    def test_affine_invariance(self):
        pts = np.random.default_rng(9).uniform(0, 1, (6, 2))
        dm = self._dm_from_points(pts)
        dm_scaled = DistanceMatrix(3.0 * dm.d + 2.0, dm.realization_class)
        emb = Embedding2D(pts, 0.0, np.zeros(1))
        assert embedding_correlation(dm_scaled, emb) == pytest.approx(1.0)

    def test_zero_variance_rejected(self):
        dm = DistanceMatrix(np.ones((4, 4)) - np.eye(4), np.zeros(4, dtype=int))
        emb = Embedding2D(np.zeros((4, 2)), 0.0, np.zeros(1))
        with pytest.raises(ValueError):
            embedding_correlation(dm, emb)

    def test_rescale_preserves_correlation(self):
        rng = np.random.default_rng(10)
        pts = rng.uniform(0, 1, (8, 2))
        noise = rng.normal(0, 0.01, (8, 8))
        d = analysis._dhat(pts) * 40 + np.abs(noise + noise.T)
        np.fill_diagonal(d, 0.0)
        dm = DistanceMatrix(d, np.zeros(8, dtype=int))
        emb = Embedding2D(pts, 0.0, np.zeros(1))
        a = embedding_correlation(dm, emb)
        b = embedding_correlation(rescale_distances(dm), emb)
        assert a == pytest.approx(b, abs=1e-12)


class TestSaveEmbedding:
    def test_files_written(self, tmp_path):
        pts = np.random.default_rng(11).uniform(0, 1, (4, 2))
        d = analysis._dhat(pts)
        np.fill_diagonal(d, 0.0)
        dm = DistanceMatrix(d, np.arange(4) % 2)
        emb = embed_2d(dm, iters=10, seed=0)
        analysis.save_embedding(tmp_path, dm, emb)
        assert (tmp_path / "distance_matrix.csv").exists()
        assert (tmp_path / "embedding.csv").exists()
        assert (tmp_path / "energy_trace.csv").exists()
        loaded = np.loadtxt(tmp_path / "distance_matrix.csv", delimiter=",")
        assert np.allclose(loaded, dm.d)
