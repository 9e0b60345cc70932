import hashlib

import numpy as np
import pytest

from qcnnlstm import datagen
from qcnnlstm.datagen import (LogisticParams, LorenzParams, logistic_series,
                              lorenz_series, make_windows, sine_bank_series)


class TestLogistic:
    def test_r4_half_collapses(self):
        xs = logistic_series(LogisticParams(4.0, 0.5, 4))
        assert np.allclose(xs, [1.0, 0.0, 0.0, 0.0])

    def test_fixed_point_at_r2(self):
        xs = logistic_series(LogisticParams(2.0, 0.5, 10))
        assert np.allclose(xs, 0.5)

    def test_chaotic_orbit_stays_bounded(self):
        xs = logistic_series(LogisticParams(3.9, 0.3, 1000))
        assert xs.min() >= 0.0 and xs.max() <= 1.0

    def test_transient_discarded(self):
        a = logistic_series(LogisticParams(3.9, 0.3, 5, transient=3))
        b = logistic_series(LogisticParams(3.9, 0.3, 8))
        assert np.allclose(a, b[3:])

    @pytest.mark.parametrize("x0", [0.0, 1.0, -0.1, 1.3])
    def test_rejects_bad_x0(self, x0):
        with pytest.raises(ValueError):
            LogisticParams(3.9, x0, 10)

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            LogisticParams(4.5, 0.5, 10)


class TestLorenz:
    def test_equilibrium_is_stationary(self):
        # x = y = sqrt(beta*(rho-1)), z = rho-1 zeroes every derivative
        rho, beta = 28.0, 5.0 / 3.0
        eq = (np.sqrt(beta * (rho - 1)),) * 2 + (rho - 1,)
        xs = lorenz_series(LorenzParams(8.0, rho, beta, initial=eq,
                                        n_samples=50, transient=0), scale=40.0)
        assert np.allclose(xs, eq[0] / 40.0, atol=1e-9)

    def test_chaotic_sensitivity_to_sigma(self):
        kw = dict(initial=(1.0, 1.0, 1.0), n_samples=1000, transient=500)
        a = lorenz_series(LorenzParams(8.0, **kw), scale=40.0)
        b = lorenz_series(LorenzParams(18.0, **kw), scale=40.0)
        assert np.abs(a - b).max() > 0.1

    def test_scale_40_bounds_trajectory(self):
        xs = lorenz_series(LorenzParams(8.0, n_samples=5000, transient=1000),
                           scale=40.0)
        assert np.abs(xs).max() <= 1.0

    def test_small_scale_reports_failure(self):
        with pytest.raises(ValueError, match="scale"):
            lorenz_series(LorenzParams(8.0, n_samples=2000, transient=1000),
                          scale=1.0)

    def test_rk4_order_of_accuracy(self):
        # errors against a half-step run should shrink ~16x per halving
        base = dict(sigma=8.0, initial=(1.0, 1.0, 1.0), transient=0)
        runs = {}
        for k in range(3):
            dt = 0.01 / 2 ** k
            xs = lorenz_series(LorenzParams(dt=dt, n_samples=100 * 2 ** k,
                                            **base), scale=40.0)
            runs[k] = xs[2 ** k - 1::2 ** k]  # samples on the coarse grid
        e1 = np.abs(runs[0] - runs[1]).max()
        e2 = np.abs(runs[1] - runs[2]).max()
        assert e1 < 1e-4
        assert e1 / e2 > 16 / 10
        assert e1 / e2 < 16 * 10


class TestSineBank:
    def test_zero_at_origin(self):
        assert sine_bank_series(0, 0.1, np.array([0.0]))[0] == 0.0

    def test_half_period_zero(self):
        # class 2 at beta=0.1 has frequency 3.2; sin(pi) = 0
        t = np.array([np.pi / 3.2])
        assert sine_bank_series(2, 0.1, t)[0] == pytest.approx(0.0, abs=1e-12)

    def test_high_similarity_regime(self):
        # oracle: max |sin(3t) - sin(3.04t)| on t in [0, 10) is 0.3725
        t = np.arange(1000) * 0.01
        d = np.abs(sine_bank_series(0, 0.01, t)
                   - sine_bank_series(4, 0.01, t)).max()
        assert d == pytest.approx(0.3725, abs=1e-3)
        assert d < 0.5


class TestMakeWindows:
    def test_exact_partition(self):
        sig = np.arange(6.0)
        seq = make_windows(sig, 1, window_len=3, n_steps=2)
        assert np.array_equal(seq.windows, [[0, 1, 2], [3, 4, 5]])

    def test_multichannel_window_length(self):
        sig = np.arange(30.0).reshape(3, 10)
        seq = make_windows(sig, 0, window_len=10, n_steps=1)
        assert seq.windows.shape == (1, 30)

    def test_channel_blocks_stay_contiguous(self):
        sig = np.array([[0.0, 1, 2, 3], [10, 11, 12, 13]])
        seq = make_windows(sig, 0, window_len=2, n_steps=2)
        assert np.array_equal(seq.windows, [[0, 1, 10, 11], [2, 3, 12, 13]])

    def test_deterministic_noise(self):
        sig = np.zeros(20)
        a = make_windows(sig, 0, 5, 4, noise_amplitude=0.01, rng_seed=42)
        b = make_windows(sig, 0, 5, 4, noise_amplitude=0.01, rng_seed=42)
        assert np.array_equal(a.windows, b.windows)
        c = make_windows(sig, 0, 5, 4, noise_amplitude=0.01, rng_seed=43)
        assert not np.array_equal(a.windows, c.windows)

    def test_too_short_signal_rejected(self):
        with pytest.raises(ValueError):
            make_windows(np.zeros(5), 0, window_len=3, n_steps=2)

    def test_partition_reconstructs_signal(self):
        sig = np.random.default_rng(1).uniform(-1, 1, 24)
        seq = make_windows(sig, 0, 6, 4)
        assert np.array_equal(seq.windows.ravel(), sig)


class TestDatasets:
    def test_deterministic_per_seed(self):
        a = datagen.make_sine_dataset(per_class=3, seed=5)
        b = datagen.make_sine_dataset(per_class=3, seed=5)
        for sa, sb in zip(a.sequences, b.sequences):
            assert np.array_equal(sa.windows, sb.windows)
            assert sa.label == sb.label

    def test_labels_contiguous(self):
        ds = datagen.make_logistic_dataset(per_class=2, window_len=10,
                                           n_steps=2, transient=10)
        assert sorted({s.label for s in ds.sequences}) == [0, 1, 2, 3, 4]

    def test_save_load_round_trip(self, tmp_path):
        ds = datagen.make_sine_dataset(per_class=2, seed=3)
        datagen.save_dataset(ds, tmp_path / "d")
        loaded = datagen.load_dataset(tmp_path / "d")
        assert loaded.generator == "sine"
        assert loaded.n_classes == ds.n_classes
        assert loaded.window_len == ds.window_len
        for sa, sb in zip(ds.sequences, loaded.sequences):
            assert sa.label == sb.label
            assert np.array_equal(sa.windows, sb.windows)

    def test_multichannel_round_trip_and_bad_containers(self, tmp_path):
        rng = np.random.default_rng(2)
        seqs = [datagen.WindowedSequence(rng.uniform(-1, 1, (3, 8)), k % 2)
                for k in range(4)]
        ds = datagen.SyntheticDataset(seqs, [0.0, 1.0], 0.0, "hand", 4, 3, 2)
        datagen.save_dataset(ds, tmp_path / "d")
        loaded = datagen.load_dataset(tmp_path / "d")
        assert loaded.n_channels == 2
        for sa, sb in zip(ds.sequences, loaded.sequences):
            assert sa.label == sb.label
            assert np.array_equal(sa.windows, sb.windows)
        # rows longer than the manifest's windows are not cut short
        manifest = tmp_path / "d" / "manifest.txt"
        text = manifest.read_text()
        manifest.write_text(text.replace("n_steps = 3", "n_steps = 2"))
        with pytest.raises(datagen.DataFormatError, match="12 samples"):
            datagen.load_dataset(tmp_path / "d")
        # a channel count below 1 or one that does not divide the 24
        # samples of a row
        for _ in range(2):  # from rows.npy, then from the text
            for n_channels in (0, -1, 5):
                manifest.write_text(text.replace(
                    "n_channels = 2", f"n_channels = {n_channels}"))
                with pytest.raises(datagen.DataFormatError,
                                   match=r"manifest\.txt: n_channels = "
                                         f"{n_channels} .* 24 samples"):
                    datagen.load_dataset(tmp_path / "d")
            (tmp_path / "d" / datagen.ROWS_NPY).unlink(missing_ok=True)

    def test_lorenz_dataset_bounded(self):
        ds = datagen.make_lorenz_dataset(per_class=1, window_len=10, n_steps=2,
                                         transient=200, noise_amplitude=0.0)
        for seq in ds.sequences:
            assert np.abs(seq.windows).max() <= 1.0


def _windows(ds):
    return [(seq.label, seq.windows.tobytes()) for seq in ds.sequences]


def _dba_dataset(seed=0):
    """128 channels x 5, 30 steps, values at four decimals, like a recording."""
    rng = np.random.default_rng(seed)
    seqs = [datagen.WindowedSequence(
        np.round(rng.uniform(-1, 1, (30, 128 * 5)), 4), k % 2)
        for k in range(4)]
    return datagen.SyntheticDataset(seqs, [0.0, 1.0], 0.0, "dba", 5, 30, 128,
                                    seed)


def _three_channels(seed=0):
    rng = np.random.default_rng(seed)
    seqs = [datagen.WindowedSequence(rng.uniform(-1, 1, (2, 12)), k % 2)
            for k in range(4)]
    return datagen.SyntheticDataset(seqs, [0.0, 1.0], 0.0, "hand", 4, 2, 3)


def _no_text(*args, **kwargs):
    raise AssertionError("the row files were parsed")


@pytest.fixture
def parsed(monkeypatch):
    """The paths `parse_rows` is called on, in order."""
    paths = []
    real_parse = datagen.parse_rows
    monkeypatch.setattr(datagen, "parse_rows",
                        lambda path: paths.append(path) or real_parse(path))
    return paths


class TestBinaryRows:
    """rows.npy stands in for the row files only while both digests match."""

    @pytest.mark.parametrize("make", [
        lambda: datagen.make_sine_dataset(per_class=2, seed=3),
        lambda: datagen.make_logistic_dataset(per_class=2, transient=10),
        lambda: datagen.make_lorenz_dataset(per_class=1, transient=100),
        _dba_dataset,
    ], ids=["sine", "logistic", "lorenz", "dba"])
    def test_binary_and_text_windows_are_identical(self, make, tmp_path,
                                                   monkeypatch):
        ds = make()
        datagen.save_dataset(ds, tmp_path / "d")
        assert sorted(p.name for p in (tmp_path / "d").iterdir()) == \
            ["data.tsv", "manifest.txt", datagen.ROWS_NPY]
        with monkeypatch.context() as m:
            m.setattr(datagen, "parse_rows", _no_text)
            binary = _windows(datagen.load_dataset(tmp_path / "d"))
        (tmp_path / "d" / datagen.ROWS_NPY).unlink()
        text = _windows(datagen.load_dataset(tmp_path / "d"))
        assert binary == text == _windows(ds)

    def test_edited_row_file_wins(self, tmp_path):
        ds = datagen.make_sine_dataset(per_class=2, seed=3)
        datagen.save_dataset(ds, tmp_path / "d")
        tsv = tmp_path / "d" / "data.tsv"
        lines = tsv.read_text().splitlines()
        row = lines[1].split("\t")
        row[3] = "0.125"
        lines[1] = "\t".join(row)
        tsv.write_text("\n".join(lines) + "\n")
        loaded = datagen.load_dataset(tmp_path / "d")
        assert loaded.sequences[1].windows.ravel()[2] == 0.125
        assert ds.sequences[1].windows.ravel()[2] != 0.125

    def test_stored_non_finite_value_is_reported_at_its_line(self, tmp_path):
        ds = datagen.make_sine_dataset(per_class=2, seed=3)
        ds.sequences[2].windows[0, 0] = np.nan
        datagen.save_dataset(ds, tmp_path / "d")
        with pytest.raises(datagen.DataFormatError,
                           match=r"data\.tsv:3: non-finite"):
            datagen.load_dataset(tmp_path / "d")

    def test_bad_npy_falls_back_to_the_text(self, tmp_path, parsed):
        ds = _three_channels()
        d, other = tmp_path / "d", tmp_path / "other"
        datagen.save_dataset(ds, d)
        datagen.save_dataset(_three_channels(seed=1), other)
        npy = d / datagen.ROWS_NPY
        good = npy.read_bytes()
        flipped = bytearray(good)
        flipped[-8:] = bytes(b ^ 0xFF for b in flipped[-8:])
        for bad in (bytes(flipped), good[:-8], (other / datagen.ROWS_NPY)
                    .read_bytes(), None):
            if bad is None:
                npy.unlink()
            else:
                npy.write_bytes(bad)
            parsed.clear()
            assert _windows(datagen.load_dataset(d)) == _windows(ds)
            assert parsed == [d / "data.tsv"]

    def test_earlier_single_channel_container_is_read_from_the_text(
            self, tmp_path, parsed):
        # the earlier layout stored (channels, N, 1+T) rows under the same
        # data.tsv and digests: a 3-D rows.npy that matches them
        ds = datagen.make_sine_dataset(per_class=2, seed=3)
        d = tmp_path / "d"
        datagen.save_dataset(ds, d)
        npy = d / datagen.ROWS_NPY
        np.save(npy, np.load(npy)[None], allow_pickle=False)
        manifest = d / "manifest.txt"
        kv = datagen.read_kv(manifest)
        manifest.write_text(manifest.read_text().replace(
            kv["npy_sha256"], hashlib.sha256(npy.read_bytes()).hexdigest()))
        assert _windows(datagen.load_dataset(d)) == _windows(ds)
        assert parsed == [d / "data.tsv"]

    def test_round_trip_writes_fresh_digests_and_the_same_manifest(
            self, tmp_path):
        ds = datagen.make_sine_dataset(per_class=2, seed=3)
        datagen.save_dataset(ds, tmp_path / "a")
        loaded = datagen.load_dataset(tmp_path / "a")
        assert not {"text_sha256", "npy_sha256"} & set(loaded.extra)
        datagen.save_dataset(loaded, tmp_path / "b")
        manifest = (tmp_path / "a" / "manifest.txt").read_text()
        assert "text_sha256 = " in manifest and "npy_sha256 = " in manifest
        assert (tmp_path / "b" / "manifest.txt").read_text() == manifest
        assert datagen.read_dataset(tmp_path / "b")[1] in manifest
        assert _windows(datagen.load_dataset(tmp_path / "b")) == _windows(ds)

    def test_container_without_digests_loads_from_the_text(self, tmp_path):
        ds = datagen.make_sine_dataset(per_class=2, seed=3)
        datagen.save_dataset(ds, tmp_path / "d")
        current = datagen.load_dataset(tmp_path / "d")
        # the form written before rows.npy: no .npy, no digest keys
        (tmp_path / "d" / datagen.ROWS_NPY).unlink()
        manifest = tmp_path / "d" / "manifest.txt"
        manifest.write_text("".join(
            line for line in manifest.read_text().splitlines(keepends=True)
            if "_sha256" not in line))
        old = datagen.load_dataset(tmp_path / "d")
        assert _windows(old) == _windows(current) == _windows(ds)
        assert old.extra == current.extra
        assert (old.generator, old.class_params, old.n_channels) == \
            (current.generator, current.class_params, current.n_channels)
