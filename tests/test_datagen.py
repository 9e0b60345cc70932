import hashlib
import io
import re
import tracemalloc

import numpy as np
import pytest

from qcnnlstm import cli, datagen
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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_diverging_integration_is_reported(self):
        # a dt of 0.5 overflows the orbits to nan, which passed the range
        # check and filled every window with nan
        with pytest.raises(ValueError, match="max .x./scale = nan.*lower dt"):
            datagen.make_lorenz_dataset(n_classes=2, per_class=1, dt=0.5,
                                        transient=100)

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
        windows = make_windows(sig, window_len=3, n_steps=2)
        assert np.array_equal(windows, [[0, 1, 2], [3, 4, 5]])

    def test_multichannel_window_length(self):
        sig = np.arange(30.0).reshape(3, 10)
        windows = make_windows(sig, window_len=10, n_steps=1)
        assert windows.shape == (1, 30)

    def test_channel_blocks_stay_contiguous(self):
        sig = np.array([[0.0, 1, 2, 3], [10, 11, 12, 13]])
        windows = make_windows(sig, window_len=2, n_steps=2)
        assert np.array_equal(windows, [[0, 1, 10, 11], [2, 3, 12, 13]])

    @pytest.mark.parametrize("window_len, n_steps", [(0, 2), (-3, 2), (3, 0)])
    def test_a_cut_below_one_sample_is_rejected(self, window_len, n_steps):
        with pytest.raises(ValueError, match=f"window_len = {window_len}, "
                           f"n_steps = {n_steps}; a window cut needs both"):
            make_windows(np.zeros(12), window_len, n_steps)

    def test_too_short_signal_rejected(self):
        with pytest.raises(ValueError):
            make_windows(np.zeros(5), window_len=3, n_steps=2)

    def test_partition_reconstructs_signal(self):
        sig = np.random.default_rng(1).uniform(-1, 1, 24)
        windows = make_windows(sig, 6, 4)
        assert np.array_equal(windows.ravel(), sig)

    def test_one_cut_of_a_batch_equals_each_recording_cut_alone(self):
        signals = np.random.default_rng(2).uniform(-1, 1, (5, 3, 26))
        windows = make_windows(signals, 4, 6)
        assert windows.shape == (5, 6, 12)
        for row, signal in zip(windows, signals):
            assert row.tobytes() == make_windows(signal, 4, 6).tobytes()


class TestBatchedSeries:
    """Arrays of parameters give one orbit per element, bit for bit the
    orbit a scalar call gives."""

    def test_logistic_rows_equal_scalar_orbits(self):
        r = np.array([[3.6, 3.75], [3.9, 4.0]])
        x0 = np.array([[0.2, 0.4], [0.6, 0.8]])
        got = logistic_series(LogisticParams(r, x0, 30, transient=7))
        assert got.shape == (2, 2, 30)
        for i in np.ndindex(r.shape):
            assert got[i].tobytes() == logistic_series(
                LogisticParams(float(r[i]), float(x0[i]), 30, 7)).tobytes()

    def test_lorenz_rows_equal_scalar_orbits(self):
        sigma = np.array([8.0, 13.0, 18.0])
        initial = np.array([[1.0, 1.0, 1.0], [0.6, 1.2, 1.4], [1.5, 0.5, 0.9]])
        got = lorenz_series(LorenzParams(sigma, initial=initial,
                                         n_samples=40, transient=60))
        assert got.shape == (3, 40)
        for row, s, start in zip(got, sigma, initial):
            assert row.tobytes() == lorenz_series(LorenzParams(
                float(s), initial=tuple(start), n_samples=40,
                transient=60)).tobytes()

    def test_one_bad_element_is_rejected(self):
        with pytest.raises(ValueError, match="x0"):
            LogisticParams(np.array([3.7, 3.8]), np.array([0.5, 1.0]), 10)
        with pytest.raises(ValueError, match="r must"):
            LogisticParams(np.array([3.7, 4.5]), np.array([0.5, 0.5]), 10)
        with pytest.raises(ValueError, match="increase scale"):
            lorenz_series(LorenzParams(np.array([8.0, 18.0]),
                                       initial=np.ones((2, 3))), scale=5.0)


class TestDatasets:
    def test_deterministic_per_seed(self):
        a = datagen.make_sine_dataset(per_class=3, seed=5)
        b = datagen.make_sine_dataset(per_class=3, seed=5)
        for sa, sb in zip(a.sequences, b.sequences):
            assert np.array_equal(sa.windows, sb.windows)
            assert sa.label == sb.label

    def test_deterministic_noise(self):
        def noisy(seed):
            return datagen.make_sine_dataset(
                n_classes=2, per_class=1, window_len=5, n_steps=4,
                noise_amplitude=0.01, seed=seed)

        a, b, c = noisy(42), noisy(42), noisy(43)
        assert np.array_equal(a.sequences[0].windows, b.sequences[0].windows)
        assert not np.array_equal(a.sequences[0].windows,
                                  c.sequences[0].windows)
        # each realization's noise is a fresh stream from its own seed, in
        # the windows' shape
        clean = datagen.make_sine_dataset(
            n_classes=2, per_class=1, window_len=5, n_steps=4,
            noise_amplitude=0.0, seed=42)
        root = np.random.default_rng(42)
        for seq, clean_seq in zip(a.sequences, clean.sequences):
            noise = np.random.default_rng(
                int(root.integers(0, 2**63 - 1))).uniform(-0.01, 0.01, (4, 5))
            assert (clean_seq.windows + noise).tobytes() == \
                seq.windows.tobytes()

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
        for n_channels in (0, -1, 5):
            manifest.write_text(text.replace(
                "n_channels = 2", f"n_channels = {n_channels}"))
            with pytest.raises(datagen.DataFormatError,
                               match=r"manifest\.txt: n_channels = "
                                     f"{n_channels} .* 24 samples"):
                datagen.load_dataset(tmp_path / "d")

    @pytest.mark.parametrize("make, five", [
        (datagen.make_logistic_dataset, [3.6, 3.7, 3.8, 3.9, 4.0]),
        (datagen.make_lorenz_dataset, [8.0, 10.5, 13.0, 15.5, 18.0])],
        ids=["logistic", "lorenz"])
    def test_class_parameters_are_evenly_spaced(self, make, five):
        def class_params(n_classes):
            return make(n_classes=n_classes, per_class=1, window_len=2,
                        n_steps=1, transient=10).class_params

        assert [float(p) for p in class_params(5)] == five
        assert np.array_equal(class_params(3),
                              np.linspace(five[0], five[-1], 3))

    @pytest.mark.parametrize("system", ["logistic", "lorenz", "sine"])
    def test_one_signal_call_per_dataset(self, system, monkeypatch):
        maker = {"logistic": "logistic_series", "lorenz": "lorenz_series",
                 "sine": "sine_bank_series"}[system]
        real, calls = getattr(datagen, maker), []
        monkeypatch.setattr(datagen, maker, lambda *args, **kwargs:
                            calls.append(args) or real(*args, **kwargs))
        ds = getattr(datagen, f"make_{system}_dataset")(
            n_classes=3, per_class=4, window_len=5, n_steps=2)
        assert len(calls) == 1 and len(ds.sequences) == 12

    def test_lorenz_dataset_bounded(self):
        ds = datagen.make_lorenz_dataset(per_class=1, window_len=10, n_steps=2,
                                         transient=200, noise_amplitude=0.0)
        for seq in ds.sequences:
            assert np.abs(seq.windows).max() <= 1.0


#: sha256 of each generator's windows (float64) and then its labels
#: (int64), as first recorded (numpy 2.4, x86-64), before the generators
#: computed every realization in one call
_GENERATOR_PINS = [
    ("logistic", {},
     "7bee9b7ceab2fe95ef6f51937e310f47099aaa5a15e26a5aa3eb1f79f2043d8a"),
    ("logistic", dict(n_classes=3, per_class=3, window_len=7, n_steps=4,
                      noise_amplitude=0.0, seed=9, transient=30),
     "117bf1189a85b18e67b420a4f5f3a17e55e5a7ba978ffdf9a174aed9bd1cd272"),
    ("logistic", dict(n_classes=7, per_class=2, noise_amplitude=0.2, seed=5),
     "e4fb69b3f0feb034d620e0c21a395fdda5a42d88599b449cf83829bc47dc2f02"),
    ("lorenz", {},
     "7d95d51105159784316d2802d9b47381cea2e3f388d164e6ae0136524d5367e9"),
    ("lorenz", dict(n_classes=3, per_class=2, window_len=9, n_steps=3,
                    noise_amplitude=0.2, seed=4, scale=60.0, dt=0.005,
                    transient=300),
     "a88fe4dc6bb656d9ece28aeb7c235456c953468ccc8f36fd4b1200ffec9963dc"),
    ("lorenz", dict(n_classes=4, per_class=3, window_len=6, n_steps=4,
                    seed=3, scale=50.0),
     "65a3e1a08ab62ca91d86679232b9acf57d2548c980ab427749bcb2f585e55998"),
    ("sine", {},
     "8713a8561e3339fc36c6a005ede4c0ce96358ca170cfdaa7b88bad011764b128"),
    ("sine", dict(n_classes=3, beta=0.3, per_class=4, window_len=8, n_steps=3,
                  dt=0.2, noise_amplitude=0.0, seed=2, alpha=2.0),
     "cfa68585e0f1752d526aa92e1e5b84bd663927a24725082a12ae6afbe51858a7"),
    ("sine", dict(n_classes=6, beta=0.05, alpha=1.5, noise_amplitude=0.1,
                  seed=7),
     "a9d0bf2d932cfb4dbd4a2e6e3d6f35543c0c53b610e3e62ac204a5c9c5766bb0"),
]


@pytest.mark.parametrize("system, settings, digest", _GENERATOR_PINS,
                         ids=[f"{s}-{i % 3}" for i, (s, *_) in
                              enumerate(_GENERATOR_PINS)])
def test_generated_windows_and_labels_are_pinned(system, settings, digest):
    ds = getattr(datagen, f"make_{system}_dataset")(**settings)
    windows = np.stack([seq.windows for seq in ds.sequences])
    labels = np.array([seq.label for seq in ds.sequences], dtype=np.int64)
    assert hashlib.sha256(windows.tobytes() + labels.tobytes()).hexdigest() \
        == digest


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


def _three_channels(seed=0, n=4):
    rng = np.random.default_rng(seed)
    seqs = [datagen.WindowedSequence(rng.uniform(-1, 1, (2, 12)), k % 2)
            for k in range(n)]
    return datagen.SyntheticDataset(seqs, [0.0, 1.0], 0.0, "hand", 4, 2, 3)




def _no_text(*args, **kwargs):
    raise AssertionError("the rows were parsed as text")


def _npy(array, allow_pickle=False) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=allow_pickle)
    return buf.getvalue()


def _restore(d, data: bytes) -> None:
    """`data` as rows.npy, with the manifest's rows_sha256 to match."""
    npy, manifest = d / datagen.ROWS_NPY, d / "manifest.txt"
    want = datagen.read_kv(manifest)["rows_sha256"]
    npy.write_bytes(data)
    manifest.write_text(manifest.read_text().replace(
        want, datagen.rows_digest([npy])))


def _flip_last_bytes(d, rows):
    npy = d / datagen.ROWS_NPY
    data = bytearray(npy.read_bytes())
    data[-8:] = bytes(b ^ 0xFF for b in data[-8:])
    npy.write_bytes(bytes(data))


def _earlier_manifest(d, rows):
    # the manifest written before rows.npy was the one form: a text copy's
    # digest and the .npy's, and no rows_sha256
    manifest = d / "manifest.txt"
    kv = datagen.read_kv(manifest)
    (d / "data.tsv").write_text("0\t0.5\n")
    manifest.write_text(manifest.read_text().replace(
        f"rows_sha256 = {kv['rows_sha256']}",
        f"text_sha256 = {kv['rows_sha256']}\nnpy_sha256 = 0"))


def _with_nan(d, rows):
    rows[1, 5] = np.nan
    _restore(d, _npy(rows))


def _five_channels(d, rows):
    manifest = d / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("n_channels = 3",
                                                     "n_channels = 5"))


def _manifest_key(key, value):
    """A spoiler that sets the manifest's `key` to `value`."""
    def spoil(d, rows):
        manifest = d / "manifest.txt"
        datagen.write_kv(manifest, {**datagen.read_kv(manifest), key: value})
    return spoil


#: (name, how rows.npy or the manifest goes bad, the file named, message)
_BAD_CONTAINERS = [
    ("missing", lambda d, rows: (d / datagen.ROWS_NPY).unlink(),
     datagen.ROWS_NPY, "no such file"),
    ("digest", _flip_last_bytes, datagen.ROWS_NPY, "differs from rows_sha256"),
    ("no-digest", _earlier_manifest, "manifest.txt",
     "no rows_sha256; .* regenerate it with `gen`"),
    ("truncated", lambda d, rows: _restore(d, _npy(rows)[:-8]),
     datagen.ROWS_NPY, "not a .npy array"),
    ("object", lambda d, rows: _restore(
        d, _npy(rows.astype(object), allow_pickle=True)),
     datagen.ROWS_NPY, "not a .npy array"),
    ("3-d", lambda d, rows: _restore(d, _npy(rows[None])),
     datagen.ROWS_NPY, r"shape \(1, 4, 25\)"),
    ("empty", lambda d, rows: _restore(d, _npy(rows[:0])),
     datagen.ROWS_NPY, r"shape \(0, 25\)"),
    ("nan", _with_nan, datagen.ROWS_NPY, "row 2: non-finite value"),
    ("channels", _five_channels, "manifest.txt",
     "n_channels = 5 does not split rows of 24 samples"),
    ("no-classes", _manifest_key("classes", "0"), "manifest.txt",
     "classes = 0, but class_params holds 2 values"),
    ("more-classes", _manifest_key("classes", "3"), "manifest.txt",
     "classes = 3, but class_params holds 2 values"),
    ("negative-noise", _manifest_key("noise_amplitude", "-1"),
     "manifest.txt", "noise_amplitude = -1.0; a noise amplitude is at "
     "least 0"),
]


def _train(tmp_path, data):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("window_len = 4\nn_steps = 2\nn_hidden = 4\nuse_cnn = 0\n"
                   "epochs = 1\n")
    return cli.dispatch(["train", "--data", str(data), "--config", str(cfg),
                         "--out", str(tmp_path / "m")])


class TestBinaryRows:
    """A generated dataset is manifest.txt plus rows.npy under one digest."""

    @pytest.mark.parametrize("make", [
        lambda: datagen.make_sine_dataset(per_class=2, seed=3),
        lambda: datagen.make_logistic_dataset(per_class=2, transient=10),
        lambda: datagen.make_lorenz_dataset(per_class=1, transient=100),
        _dba_dataset,
    ], ids=["sine", "logistic", "lorenz", "dba"])
    def test_loaded_windows_equal_the_generated(self, make, tmp_path,
                                                monkeypatch):
        ds = make()
        datagen.save_dataset(ds, tmp_path / "d")
        assert sorted(p.name for p in (tmp_path / "d").iterdir()) == \
            ["manifest.txt", datagen.ROWS_NPY]
        rows = np.load(tmp_path / "d" / datagen.ROWS_NPY)
        assert rows.dtype == np.float64
        assert rows.shape == (len(ds.sequences),
                              1 + ds.sequences[0].windows.size)
        assert rows[:, 0].tolist() == [seq.label for seq in ds.sequences]
        monkeypatch.setattr(datagen, "parse_rows", _no_text)
        assert _windows(datagen.load_dataset(tmp_path / "d")) == _windows(ds)

    def test_stored_non_finite_value_is_reported_at_its_line(self, tmp_path):
        ds = datagen.make_sine_dataset(per_class=2, seed=3)
        ds.sequences[2].windows[0, 0] = np.nan
        datagen.save_dataset(ds, tmp_path / "d")
        with pytest.raises(datagen.DataFormatError,
                           match=r"rows\.npy: row 3: non-finite value"):
            datagen.load_dataset(tmp_path / "d")

    def test_round_trip_writes_fresh_digests_and_the_same_manifest(
            self, tmp_path):
        ds = datagen.make_sine_dataset(per_class=2, seed=3)
        datagen.save_dataset(ds, tmp_path / "a")
        loaded = datagen.load_dataset(tmp_path / "a")
        assert "rows_sha256" not in loaded.extra
        datagen.save_dataset(loaded, tmp_path / "b")
        manifest = (tmp_path / "a" / "manifest.txt").read_text()
        assert f"rows_sha256 = {loaded.digest}\n" in manifest
        assert manifest.count("sha256") == 1
        assert (tmp_path / "b" / "manifest.txt").read_text() == manifest
        assert (tmp_path / "b" / datagen.ROWS_NPY).read_bytes() == \
            (tmp_path / "a" / datagen.ROWS_NPY).read_bytes()
        assert _windows(datagen.load_dataset(tmp_path / "b")) == _windows(ds)

    @pytest.mark.parametrize("spoil, name, message",
                             [case[1:] for case in _BAD_CONTAINERS],
                             ids=[case[0] for case in _BAD_CONTAINERS])
    def test_bad_container_exits_2_naming_the_file(self, spoil, name, message,
                                                   tmp_path, capsys):
        d = tmp_path / "d"
        datagen.save_dataset(_three_channels(), d)
        spoil(d, np.load(d / datagen.ROWS_NPY))
        where = re.escape(str(d / name))
        with pytest.raises(datagen.DataFormatError,
                           match=f"{where}: .*{message}"):
            datagen.load_dataset(d)
        assert _train(tmp_path, d) == 2
        assert f"{d / name}: " in capsys.readouterr().err

    @pytest.mark.parametrize("label, message", [
        (1.5, "row 5: label 1.5 is not a non-negative integer"),
        (-1, "row 5: label -1.0 is not a non-negative integer"),
        (7, "row 5: label 7.0 is not below the 2 classes")],
        ids=["fraction", "negative", "class-count"])
    def test_bad_label_exits_2_naming_the_file(self, label, message, tmp_path,
                                               capsys):
        # two sequences of each label, so every label survives the split
        ds = _three_channels(n=6)
        for seq in ds.sequences[4:]:
            seq.label = label
        datagen.save_dataset(ds, tmp_path / "d")
        assert _train(tmp_path, tmp_path / "d") == 2
        assert f"{tmp_path / 'd' / datagen.ROWS_NPY}: {message}" in \
            capsys.readouterr().err


def test_writer_peak_memory_is_bounded(tmp_path):
    """save_dataset holds a few copies of the rows, not a text rendering."""
    ds = _dba_dataset()
    tracemalloc.start()
    try:
        datagen.save_dataset(ds, tmp_path / "d")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows_bytes = np.load(tmp_path / "d" / datagen.ROWS_NPY).nbytes
    assert peak <= 4 * rows_bytes
