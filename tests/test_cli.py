import filecmp
import re
import shlex
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qcnnlstm import cli, datagen, fsm, fxp, model, quant
from qcnnlstm import train as train_mod
from qcnnlstm.cli import dispatch
from qcnnlstm.datagen import DataFormatError, read_kv

ROOT = Path(__file__).resolve().parent.parent
ECG_DIR = ROOT / "data" / "ECG200"
ECG_MODEL = ROOT / "bench" / "models" / "ecg200-ternary350"


def run(*argv):
    return dispatch(list(argv))


def _keys(seqs):
    return [(s.label, s.windows.tobytes()) for s in seqs]


def _last_trace_accuracy(model_dir) -> str:
    last = (model_dir / "trace.csv").read_text().splitlines()[-1]
    return f"accuracy {float(last.split(',')[2]):.4f}"


def _one_class_ucr_pair(tmp_path) -> Path:
    """ECG200's rows, every one labelled 1."""
    data = tmp_path / "one_class"
    data.mkdir()
    for part in ("TRAIN", "TEST"):
        rows = (ECG_DIR / f"ECG200_{part}.tsv").read_text().splitlines()
        (data / f"X_{part}.tsv").write_text("".join(
            f"1\t{row.split(chr(9), 1)[1]}\n" for row in rows))
    return data


class TestDispatch:
    def test_no_arguments_usage_error(self, capsys):
        assert run() == 1

    def test_unknown_subcommand(self):
        assert run("frobnicate") == 1

    def test_missing_required_flag(self):
        assert run("gen", "--system", "sine") == 1

    def test_missing_data_file_is_data_error(self, tmp_path):
        assert run("embed", "--data", str(tmp_path / "nope"),
                   "--iters", "10", "--out", str(tmp_path / "o")) == 2

    def test_negative_simulate_limit_is_usage_error(self, tmp_path):
        assert run("simulate", "--model", str(tmp_path), "--data", str(ECG_DIR),
                   "--limit", "-1") == 1

    def test_unknown_test_label_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "ucr"
        data.mkdir()
        rows = [line.split("\t", 1) for line in
                (ECG_DIR / "ECG200_TEST.tsv").read_text().splitlines()]
        (data / "X_TRAIN.tsv").write_text(
            (ECG_DIR / "ECG200_TRAIN.tsv").read_text())
        # ECG200 tokens are {-1, 1}; relabel the test file {1, 2}
        (data / "X_TEST.tsv").write_text("".join(
            f"{2 if float(tok) > 0 else 1}\t{rest}\n" for tok, rest in rows))
        cfg = tmp_path / "c.cfg"
        cfg.write_text("window_len = 20\nn_steps = 4\nn_hidden = 4\n"
                       "epochs = 1\nuse_cnn = 0\n")
        assert run("train", "--data", str(data), "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 2
        assert "does not occur in the train split" in capsys.readouterr().err

    def test_class_absent_from_the_test_file_is_data_error(self, tmp_path,
                                                           capsys):
        data = tmp_path / "ucr"
        data.mkdir()
        (data / "X_TRAIN.tsv").write_text(
            (ECG_DIR / "ECG200_TRAIN.tsv").read_text())
        # the test file keeps the class-1 rows only
        rows = (ECG_DIR / "ECG200_TEST.tsv").read_text().splitlines(True)
        (data / "X_TEST.tsv").write_text("".join(
            row for row in rows if float(row.split("\t", 1)[0]) > 0))
        assert run("eval", "--model", str(ECG_MODEL), "--data", str(data)) == 2
        assert "a class is absent from the test split" in \
            capsys.readouterr().err

    def test_one_class_data_is_data_error(self, tmp_path, capsys):
        data = _one_class_ucr_pair(tmp_path)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("window_len = 20\nn_steps = 4\nn_hidden = 4\n"
                       "epochs = 1\nuse_cnn = 0\n")
        out = tmp_path / "o"
        assert run("train", "--data", str(data), "--config", str(cfg),
                   "--out", str(out)) == 2
        assert "n_classes = 1" in capsys.readouterr().err
        assert not out.exists()

    def test_auc_of_a_one_class_model_is_data_error(self, tmp_path, capsys):
        # a model directory that records one class, as earlier versions
        # trained on one-class data
        net = model.NetworkConfig(20, 4, 4, 2, use_cnn=False)
        model_dir = tmp_path / "m"
        model.save_network(model_dir, train_mod.init_params(net), net)
        config = model_dir / "config.txt"
        config.write_text(config.read_text().replace("n_classes = 2",
                                                     "n_classes = 1"))
        assert run("eval", "--model", str(model_dir), "--data",
                   str(_one_class_ucr_pair(tmp_path)), "--report",
                   "auc") == 2
        captured = capsys.readouterr()
        assert "n_classes = 1" in captured.err and "auc" not in captured.out

    # arrays of 2**57 bytes and more, which no host allocates: the gate
    # matrix of 10**8 hidden units, the energy trace of 10**17 moves
    @pytest.mark.parametrize("command", ["train", "embed"])
    def test_unallocatable_request_is_data_error(self, command, tmp_path,
                                                 capsys):
        ds, out = tmp_path / "ds", tmp_path / "o"
        assert run("gen", "--system", "sine", "--classes", "2", "--per-class",
                   "4", "--window", "4", "--steps", "2", "--out",
                   str(ds)) == 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text("window_len = 4\nn_steps = 2\nn_hidden = 100000000\n"
                       "use_cnn = 0\nepochs = 1\n")
        argv = {"train": ["--config", str(cfg)],
                "embed": ["--iters", "100000000000000000"]}[command]
        capsys.readouterr()
        assert run(command, "--data", str(ds), *argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "data error: Unable to allocate" in err
        assert "Traceback" not in err and not out.exists()

    def test_missing_config_key_is_data_error(self, tmp_path):
        cfg = tmp_path / "partial.cfg"
        cfg.write_text("n_hidden = 4\nepochs = 1\n")  # no window_len/n_steps
        assert run("train", "--data", str(ECG_DIR), "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 2


class TestGen:
    def test_sine_dataset_written(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert run("gen", "--system", "sine", "--classes", "5",
                   "--per-class", "3", "--out", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == \
            ["manifest.txt", datagen.ROWS_NPY, "run_manifest.txt"]
        manifest = (out / "manifest.txt").read_text()
        assert "alpha = 3.0" in manifest  # default carrier frequency
        assert "generator = sine" in manifest
        assert (out / "run_manifest.txt").exists()

    def test_rerun_is_bit_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["gen", "--system", "logistic", "--classes", "3",
                "--per-class", "2", "--seed", "11"]
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert filecmp.cmp(a / datagen.ROWS_NPY, b / datagen.ROWS_NPY,
                           shallow=False)
        assert (a / "manifest.txt").read_text() == \
            (b / "manifest.txt").read_text()

    def test_lorenz_generates(self, tmp_path):
        out = tmp_path / "lz"
        assert run("gen", "--system", "lorenz", "--classes", "2",
                   "--per-class", "1", "--window", "10", "--steps", "2",
                   "--out", str(out)) == 0
        assert np.load(out / datagen.ROWS_NPY).shape == (2, 21)

    @pytest.mark.parametrize("system", ["sine", "logistic", "lorenz"])
    @pytest.mark.parametrize("flag, message", [
        ("--window", "window_len = 0"), ("--steps", "n_steps = 0"),
        ("--classes", "classes = 0"), ("--per-class", "per_class = 0")])
    def test_empty_dataset_is_data_error(self, system, flag, message,
                                         tmp_path, capsys):
        out = tmp_path / "ds"
        assert run("gen", "--system", system, flag, "0",
                   "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("system", ["sine", "logistic", "lorenz"])
    def test_one_class_dataset_is_data_error(self, system, tmp_path, capsys):
        out = tmp_path / "ds"
        assert run("gen", "--system", system, "--classes", "1",
                   "--out", str(out)) == 2
        assert "classes = 1; a dataset needs at least 2" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("system, flag", [
        ("logistic", "--beta"), ("logistic", "--scale"), ("sine", "--scale"),
        ("lorenz", "--alpha")])
    def test_a_flag_of_another_system_is_usage_error(self, system, flag,
                                                     tmp_path, capsys):
        out = tmp_path / "ds"
        assert run("gen", "--system", system, flag, "3",
                   "--out", str(out)) == 1
        assert f"{flag} does not apply to --system {system}" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("system, flag, value, message", [
        ("sine", "--noise", "-1", "noise_amplitude = -1.0"),
        ("logistic", "--noise", "inf", "noise_amplitude = inf"),
        ("sine", "--alpha", "nan", "alpha = nan"),
        ("sine", "--beta", "inf", "beta = inf"),
        ("lorenz", "--scale", "inf", "scale = inf"),
        ("lorenz", "--scale", "nan", "scale = nan")])
    def test_bad_float_flag_is_data_error(self, system, flag, value, message,
                                          tmp_path, capsys):
        out = tmp_path / "ds"
        assert run("gen", "--system", system, flag, value,
                   "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def _no_parse(path):
    raise AssertionError(f"{path} was parsed")


@pytest.fixture
def reads(monkeypatch):
    """File name -> number of `Path.read_bytes`/`read_text` calls on it."""
    counts = Counter()
    for name in ("read_bytes", "read_text"):
        def counted(self, *args, _real=getattr(Path, name), **kwargs):
            counts[self.name] += 1
            return _real(self, *args, **kwargs)
        monkeypatch.setattr(Path, name, counted)
    return counts


class TestRowFilesReadOnce:
    """The bytes a row file is parsed from are the bytes its digest hashes."""

    def test_ucr_pair(self, reads):
        cli.load_split_sequences(ECG_DIR, {"window_len": 20, "n_steps": 4})
        assert reads["ECG200_TRAIN.tsv"] == reads["ECG200_TEST.tsv"] == 1

    def test_generated_dataset(self, tmp_path, reads):
        ds = datagen.make_sine_dataset(per_class=2, seed=3)
        datagen.save_dataset(ds, tmp_path / "d")
        reads.clear()
        digest = datagen.load_dataset(tmp_path / "d").digest
        assert reads == {"manifest.txt": 1, datagen.ROWS_NPY: 1}
        assert digest == datagen.rows_digest([tmp_path / "d" /
                                              datagen.ROWS_NPY])


class TestGenBinaryRows:
    """`gen` writes rows.npy; it must give the generator's windows exactly."""

    @pytest.mark.parametrize("system", ["sine", "logistic", "lorenz"])
    def test_loaded_windows_equal_the_generated(self, system, tmp_path,
                                                monkeypatch):
        generated = []
        save = datagen.save_dataset
        monkeypatch.setattr(datagen, "save_dataset", lambda ds, out:
                            generated.append(ds) or save(ds, out))
        out = tmp_path / "ds"
        assert run("gen", "--system", system, "--classes", "3",
                   "--per-class", "2", "--window", "10", "--steps", "3",
                   "--out", str(out)) == 0
        monkeypatch.setattr(datagen, "parse_rows", _no_parse)
        assert _keys(datagen.load_dataset(out).sequences) == \
            _keys(generated[0].sequences)

    # rows_sha256 of each run below as first recorded (numpy 2.4, x86-64):
    # a change to a generator, to the window cut or to the writer shows here
    @pytest.mark.parametrize("system, digest", [
        ("sine",
         "ab7ae6d7cdf1a32b2e2ea2b164b5b8afef54d0e56e2aae131210b366c444378e"),
        ("logistic",
         "d387a4ebe0a76ca0c3ab041e43f55a41023e4ef878cd1adc926b31fb09b4a6d7"),
        ("lorenz",
         "a873c3698f05e4dbe272dff6025881e38ae9e69e523b464d5e4978814e7a82ce"),
    ])
    def test_generated_bytes_are_pinned(self, system, digest, tmp_path):
        out = tmp_path / "ds"
        assert run("gen", "--system", system, "--classes", "3",
                   "--per-class", "2", "--window", "10", "--steps", "3",
                   "--out", str(out)) == 0
        assert read_kv(out / "manifest.txt")["rows_sha256"] == digest
        assert datagen.rows_digest([out / datagen.ROWS_NPY]) == digest


class TestEmbed:
    def test_embed_writes_artifacts(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run("gen", "--system", "sine", "--classes", "3", "--per-class", "2",
            "--window", "16", "--steps", "2", "--out", str(ds))
        out = tmp_path / "emb"
        assert run("embed", "--data", str(ds), "--iters", "200",
                   "--out", str(out)) == 0
        assert (out / "distance_matrix.csv").exists()
        assert (out / "embedding.csv").exists()
        trace = np.loadtxt(out / "energy_trace.csv", skiprows=1)
        assert np.all(np.diff(trace) <= 0)

    def test_multi_channel_data_exits_2_naming_the_channels(self, tmp_path,
                                                            capsys):
        # flattened windows would interleave the channels window by window
        rng = np.random.default_rng(0)
        seqs = [datagen.WindowedSequence(rng.uniform(-1, 1, (4, 16)), k % 2)
                for k in range(4)]
        ds = tmp_path / "ds"
        datagen.save_dataset(datagen.SyntheticDataset(
            seqs, [0.0, 1.0], 0.0, "hand", 8, 4, 2), ds)
        out = tmp_path / "emb"
        assert run("embed", "--data", str(ds), "--iters", "200",
                   "--out", str(out)) == 2
        assert "has 2 channels" in capsys.readouterr().err
        assert not out.exists()

    def test_metric_flag_is_a_usage_error(self, tmp_path):
        # the embedding always fits squared planar distances
        assert run("embed", "--data", str(tmp_path), "--metric", "euclidean",
                   "--out", str(tmp_path / "emb")) == 1


class TestUcrWindowSettings:
    @pytest.mark.parametrize("kv, key", [
        ({}, "window_len"), ({"window_len": 20}, "n_steps")])
    def test_missing_key_is_a_data_error_naming_it(self, kv, key):
        with pytest.raises(DataFormatError,
                           match=f"{ECG_DIR}: .*missing key '{key}'"):
            cli.load_split_sequences(ECG_DIR, kv)

    def test_a_value_that_is_no_integer_is_a_data_error_naming_it(self):
        with pytest.raises(DataFormatError, match=f"{ECG_DIR}: window_len = "
                           "ten is not an integer"):
            cli.load_split_sequences(ECG_DIR, {"window_len": "ten",
                                               "n_steps": 4})

    @pytest.mark.parametrize("kv, named", [
        ({"window_len": 0, "n_steps": 4}, "window_len = 0"),
        ({"window_len": -3, "n_steps": 4}, "window_len = -3"),
        ({"window_len": 20, "n_steps": 0}, "n_steps = 0")])
    def test_a_cut_below_one_is_rejected(self, kv, named):
        # these returned (4, 0) and (4, 21) windows
        with pytest.raises(ValueError, match=f"{named}.*; a window cut"):
            cli.load_split_sequences(ECG_DIR, kv)

    def test_a_cut_longer_than_the_series_names_the_data_and_keys(
            self, tmp_path, capsys):
        cfg = tmp_path / "long.cfg"
        cfg.write_text("window_len = 50\nn_steps = 4\nn_hidden = 4\n"
                       "use_cnn = 0\nepochs = 1\n")
        out = tmp_path / "model"
        assert run("train", "--data", str(ECG_DIR), "--config", str(cfg),
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"data error: {ECG_DIR}: series of 96 samples, fewer than "
            "n_steps x window_len = 4 x 50\n")
        assert not out.exists()
        # one sample short of the series is refused too; the full series is cut
        with pytest.raises(DataFormatError, match="fewer than n_steps x "
                           "window_len = 1 x 97"):
            cli.load_split_sequences(ECG_DIR, {"window_len": 97,
                                               "n_steps": 1})
        train_seqs, *_ = cli.load_split_sequences(
            ECG_DIR, {"window_len": 96, "n_steps": 1})
        assert train_seqs[0].windows.shape == (1, 96)


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    """Train a tiny full-precision model on a sine dataset via the CLI."""
    root = tmp_path_factory.mktemp("cli_train")
    ds = root / "ds"
    run("gen", "--system", "sine", "--classes", "3", "--per-class", "6",
        "--window", "10", "--steps", "3", "--noise", "0.05",
        "--out", str(ds))
    cfg = root / "train.cfg"
    cfg.write_text("window_len = 10\nn_steps = 3\nn_hidden = 8\n"
                   "use_cnn = 0\nepochs = 5\nseed = 1\n")
    model_dir = root / "model"
    code = run("train", "--data", str(ds), "--config", str(cfg),
               "--precision", "full", "--out", str(model_dir))
    assert code == 0
    return root, ds, cfg, model_dir


class TestTrainEvalQuantizeSimulate:
    def test_train_artifacts(self, trained_model):
        _, _, _, model_dir = trained_model
        assert (model_dir / "params.manifest").exists()
        assert (model_dir / "config.txt").exists()
        trace = (model_dir / "trace.csv").read_text().splitlines()
        assert trace[0] == "epoch,loss,test_accuracy"
        assert len(trace) == 6
        # the test split is evaluated once, after the last epoch
        assert all(row.endswith(",") for row in trace[1:-1])
        assert not trace[-1].endswith(",")

    def test_eval_accuracy(self, trained_model, capsys):
        _, ds, _, model_dir = trained_model
        assert run("eval", "--model", str(model_dir), "--data", str(ds),
                   "--report", "accuracy") == 0
        out = capsys.readouterr().out
        assert "accuracy" in out

    def test_eval_confusion(self, trained_model, capsys):
        _, ds, _, model_dir = trained_model
        assert run("eval", "--model", str(model_dir), "--data", str(ds),
                   "--report", "confusion") == 0
        assert "confusion" in capsys.readouterr().out

    def test_quantize_then_simulate(self, trained_model, capsys, tmp_path):
        root, ds, _, model_dir = trained_model
        qdir = root / "quantized"
        assert run("quantize", "--model", str(model_dir),
                   "--out", str(qdir)) == 0
        simout = tmp_path / "sim"
        assert run("simulate", "--model", str(qdir), "--data", str(ds),
                   "--limit", "2", "--out", str(simout)) == 0
        out = capsys.readouterr().out
        assert "total cycles" in out
        assert (simout / "cycle_report.csv").exists()
        assert (simout / "trace.csv").exists()

    def test_simulate_rejects_full_precision_model(self, trained_model):
        _, ds, _, model_dir = trained_model
        assert run("simulate", "--model", str(model_dir),
                   "--data", str(ds)) == 2

    def test_ternary_training_runs(self, trained_model):
        root, ds, cfg, _ = trained_model
        out = root / "tern"
        assert run("train", "--data", str(ds), "--config", str(cfg),
                   "--precision", "ternary", "--out", str(out)) == 0
        assert "mode = ternary" in (out / "config.txt").read_text()

    def test_train_rerun_is_bit_identical(self, trained_model, tmp_path):
        _, ds, cfg, model_dir = trained_model
        again = tmp_path / "again"
        assert run("train", "--data", str(ds), "--config", str(cfg),
                   "--precision", "full", "--out", str(again)) == 0
        assert (again / "trace.csv").read_text() == \
            (model_dir / "trace.csv").read_text()
        for line in (model_dir / "params.manifest").read_text().splitlines():
            fname = line.split("\t")[3]
            assert (again / fname).read_bytes() == \
                (model_dir / fname).read_bytes()


def test_kernel_wider_than_window_simulates(tmp_path, capsys):
    # the engines pad a width-5 kernel to a 2-sample window, and the cycle
    # model charges the same two positions
    ds, model, qdir = tmp_path / "ds", tmp_path / "m", tmp_path / "q"
    assert run("gen", "--system", "sine", "--classes", "2", "--per-class", "6",
               "--window", "2", "--steps", "3", "--out", str(ds)) == 0
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("window_len = 2\nn_steps = 3\nn_hidden = 4\n"
                   "conv_layers = 3x5\nepochs = 1\n")
    assert run("train", "--data", str(ds), "--config", str(cfg),
               "--precision", "ternary", "--out", str(model)) == 0
    assert run("quantize", "--model", str(model), "--out", str(qdir)) == 0
    capsys.readouterr()
    assert run("simulate", "--model", str(qdir), "--data", str(ds)) == 0
    assert re.search(r"^simulated \d+ inferences, accuracy \d\.\d{4}$",
                     capsys.readouterr().out, re.M)


def _network_files(model_dir):
    """The bytes of `config.txt`, the manifest and every file it names."""
    manifest = (model_dir / "params.manifest").read_text()
    names = ["config.txt", "params.manifest"] + \
        [line.split("\t")[3] for line in manifest.splitlines()]
    return {name: (model_dir / name).read_bytes() for name in names}


class TestOneNetworkDefinition:
    """`eval` and `simulate` read the tensors `model.network_tensors` gives:
    codes and, in binary/ternary modes, zero biases."""

    @pytest.fixture(scope="class")
    def cnn_data(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("one_network")
        assert run("gen", "--system", "sine", "--classes", "2", "--per-class",
                   "6", "--window", "6", "--steps", "2",
                   "--out", str(root / "ds")) == 0
        cfg = root / "train.cfg"
        cfg.write_text("window_len = 6\nn_steps = 2\nn_hidden = 4\n"
                       "conv_layers = 2x3;3x2\nepochs = 3\ninit_scale = 0.6\n")
        return root, root / "ds", cfg

    def test_quantized_full_model_has_zero_biases(self, cnn_data, tmp_path):
        _, ds, cfg = cnn_data
        full, qdir = tmp_path / "full", tmp_path / "q"
        assert run("train", "--data", str(ds), "--config", str(cfg),
                   "--out", str(full)) == 0
        assert run("quantize", "--model", str(full), "--out", str(qdir)) == 0
        params, net, mode = model.load_network(full)
        biases = [name for name in params if quant.is_bias(name)]
        assert {"conv0.bias", "conv1.bias", "lstm.gate_bias",
                "lstm.b_logits"} <= set(biases)
        assert any(params[name].any() for name in biases)
        qparams, _, qmode = model.load_network(qdir)
        assert qmode == "ternary"
        for line in (qdir / "params.manifest").read_text().splitlines():
            name, dtype, _, fname = line.split("\t")
            if "bias" in name or name.startswith("lstm.b_"):
                assert dtype == "float64"
                assert not np.frombuffer((qdir / fname).read_bytes()).any()
        # the ternary pass of the full model is the full-precision pass of
        # the quantized directory: codes, zero biases
        _, test_seqs, _, _ = cli.load_split_sequences(ds, {})
        windows = np.stack([s.windows for s in test_seqs])
        np.testing.assert_array_equal(
            train_mod.forward_logits(params, windows, net, "ternary"),
            train_mod.forward_logits(qparams, windows, net, "full"))

    def test_weights_past_one_quantize_and_simulate(self, cnn_data, tmp_path):
        # full-precision weights are not clamped; round half away alone
        # would make codes of 3 and -2, which no 2-bit field holds
        _, ds, cfg = cnn_data
        full, qdir = tmp_path / "full", tmp_path / "q"
        assert run("train", "--data", str(ds), "--config", str(cfg),
                   "--out", str(full)) == 0
        params, net, _ = model.load_network(full)
        params["lstm.gates"][0, 0] = 2.7
        params["conv0.weights"][0, 0, 0] = -1.5
        model.save_network(full, params, net)
        assert run("quantize", "--model", str(full), "--out", str(qdir)) == 0
        qparams, _, _ = model.load_network(qdir)
        assert qparams["lstm.gates"][0, 0] == 1
        assert qparams["conv0.weights"][0, 0, 0] == -1
        assert run("simulate", "--model", str(qdir), "--data", str(ds)) == 0

    def test_quantize_reports_the_share_of_zero_codes(self, cnn_data,
                                                      tmp_path, capsys):
        # shadow weights this small all lie within +-0.5, so every code is 0
        _, ds, _ = cnn_data
        cfg, full = tmp_path / "small.cfg", tmp_path / "full"
        cfg.write_text("window_len = 6\nn_steps = 2\nn_hidden = 4\n"
                       "conv_layers = 2x3;3x2\nepochs = 1\ninit_scale = 0.01\n")
        assert run("train", "--data", str(ds), "--config", str(cfg),
                   "--out", str(full)) == 0
        capsys.readouterr()
        assert run("quantize", "--model", str(full),
                   "--out", str(tmp_path / "q")) == 0
        assert "100.0% of gate and CNN codes zero" in capsys.readouterr().out

    @pytest.mark.parametrize("precision", ["ternary", "binary"])
    def test_quantized_training_writes_what_quantize_writes(
            self, cnn_data, tmp_path, precision):
        _, ds, cfg = cnn_data
        trained, qdir = tmp_path / "trained", tmp_path / "q"
        assert run("train", "--data", str(ds), "--config", str(cfg),
                   "--precision", precision, "--out", str(trained)) == 0
        manifest = (trained / "params.manifest").read_text()
        assert "\tint2\t" in manifest
        assert run("quantize", "--model", str(trained), "--out", str(qdir)) == 0
        assert _network_files(qdir) == _network_files(trained)


class TestHeldOutSplit:
    """eval and simulate score the sequences train held out (seed = 1 here)."""

    def test_eval_and_simulate_score_the_held_out_split(
            self, trained_model, tmp_path, monkeypatch, capsys):
        _, ds, cfg, _ = trained_model
        seen = {}
        real_train, real_probs = train_mod.train, train_mod.predict_probs
        real_inference = fsm.run_inference

        def spy_train(train_seqs, test_seqs, *rest):
            seen["held_out"] = test_seqs
            return real_train(train_seqs, test_seqs, *rest)

        def spy_probs(params, seqs, *rest):
            seen["scored"] = seqs
            return real_probs(params, seqs, *rest)

        def spy_inference(raw, *rest, **kw):
            seen["simulated"] = raw
            return real_inference(raw, *rest, **kw)

        monkeypatch.setattr(train_mod, "train", spy_train)
        monkeypatch.setattr(train_mod, "predict_probs", spy_probs)
        monkeypatch.setattr(fsm, "run_inference", spy_inference)
        model_dir, qdir = tmp_path / "model", tmp_path / "quantized"
        assert run("train", "--data", str(ds), "--config", str(cfg),
                   "--out", str(model_dir)) == 0
        capsys.readouterr()
        assert run("eval", "--model", str(model_dir), "--data", str(ds)) == 0
        assert _keys(seen["scored"]) == _keys(seen["held_out"])
        assert capsys.readouterr().out.strip() == \
            _last_trace_accuracy(model_dir)

        assert run("quantize", "--model", str(model_dir),
                   "--out", str(qdir)) == 0
        assert run("simulate", "--model", str(qdir), "--data", str(ds)) == 0
        windows = np.stack([s.windows for s in seen["held_out"]])
        assert np.array_equal(seen["simulated"], fxp.to_raw(windows))


def _refused_by_eval_and_simulate(model_dir, ds, message, capsys):
    for command in ("eval", "simulate"):
        assert run(command, "--model", str(model_dir),
                   "--data", str(ds)) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "accuracy" not in captured.out


class TestDatasetProvenance:
    """`train` records the data digest; eval/simulate refuse other data."""

    def test_other_data_of_the_same_shape_is_data_error(
            self, trained_model, tmp_path, capsys):
        root, ds, _, model_dir = trained_model
        other = tmp_path / "other"
        assert run("gen", "--system", "sine", "--classes", "3",
                   "--per-class", "6", "--window", "10", "--steps", "3",
                   "--noise", "0.05", "--seed", "1", "--out", str(other)) == 0
        recorded = read_kv(model_dir / "hyperparams.txt")["data_sha256"]
        assert recorded == datagen.load_dataset(ds).digest != \
            datagen.load_dataset(other).digest
        qdir = tmp_path / "quantized"
        assert run("quantize", "--model", str(model_dir),
                   "--out", str(qdir)) == 0
        capsys.readouterr()
        assert run("eval", "--model", str(model_dir),
                   "--data", str(other)) == 2
        err = capsys.readouterr().err
        assert recorded in err and datagen.load_dataset(other).digest in err
        assert run("simulate", "--model", str(qdir),
                   "--data", str(other)) == 2
        assert recorded in capsys.readouterr().err
        # a model without the record evaluates any data of its shape
        record = qdir / "hyperparams.txt"
        record.write_text("".join(
            line for line in record.read_text().splitlines(keepends=True)
            if not line.startswith("data_sha256")))
        assert run("simulate", "--model", str(qdir),
                   "--data", str(other)) == 0

    def test_other_class_count_is_data_error_for_eval_and_simulate(
            self, tmp_path, capsys):
        # a 2-class ternary model with no hyperparams.txt, 3-class data
        net = model.NetworkConfig(4, 2, 3, 2, use_cnn=False)
        model_dir, ds = tmp_path / "m", tmp_path / "ds"
        model.save_network(model_dir, train_mod.init_params(net), net,
                           mode="ternary")
        assert run("gen", "--system", "sine", "--classes", "3",
                   "--per-class", "4", "--window", "4", "--steps", "2",
                   "--out", str(ds)) == 0
        capsys.readouterr()
        _refused_by_eval_and_simulate(
            model_dir, ds, f"{model_dir / 'config.txt'}: n_classes = 2, but "
            f"the data in {ds} has 3", capsys)

    def test_other_channel_count_of_the_same_width_is_data_error(
            self, tmp_path, capsys):
        # a 1-channel CNN model of 8-sample windows with no hyperparams.txt,
        # and 2-channel data of 4-sample windows: both read 8 values a step
        net = model.NetworkConfig(8, 2, 3, 2, conv_layers=((2, 3),))
        model_dir, ds = tmp_path / "m", tmp_path / "ds"
        model.save_network(model_dir, train_mod.init_params(net), net,
                           mode="ternary")
        rng = np.random.default_rng(0)
        seqs = [datagen.WindowedSequence(rng.uniform(-1, 1, (2, 8)), k % 2)
                for k in range(8)]
        datagen.save_dataset(datagen.SyntheticDataset(
            seqs, [0.0, 1.0], 0.0, "hand", 4, 2, 2), ds)
        _refused_by_eval_and_simulate(
            model_dir, ds, f"{model_dir / 'config.txt'}: n_channels = 1, but "
            f"the data in {ds} has 2", capsys)

    def test_edited_ucr_pair_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "ecg"
        data.mkdir()
        for path in ECG_DIR.glob("ECG200_T*"):
            (data / path.name).write_bytes(path.read_bytes())
        cfg = tmp_path / "ecg.cfg"
        cfg.write_text("window_len = 20\nn_steps = 4\nn_hidden = 4\n"
                       "use_cnn = 0\nepochs = 1\n")
        out = tmp_path / "model"
        assert run("train", "--data", str(data), "--config", str(cfg),
                   "--out", str(out)) == 0
        assert read_kv(out / "hyperparams.txt")["data_sha256"] == \
            datagen.rows_digest([ECG_DIR / "ECG200_TRAIN.tsv",
                                 ECG_DIR / "ECG200_TEST.tsv"])
        test_file = next(data.glob("*_TEST*"))
        test_file.write_text(
            "\n".join(test_file.read_text().splitlines()[:-1]) + "\n")
        capsys.readouterr()
        assert run("eval", "--model", str(out), "--data", str(data)) == 2
        assert "sha256" in capsys.readouterr().err


class TestGeneratedDataBoundary:
    """Bad values and degenerate splits in the training data exit 2."""

    @pytest.fixture
    def sine(self, tmp_path):
        ds = tmp_path / "ds"
        assert run("gen", "--system", "sine", "--classes", "2",
                   "--per-class", "6", "--window", "10", "--steps", "2",
                   "--out", str(ds)) == 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text("window_len = 10\nn_steps = 2\nn_hidden = 4\n"
                       "use_cnn = 0\nepochs = 1\n")
        return ds, cfg

    @pytest.mark.parametrize("bad, message", [("nan", "non-finite"),
                                              ("potato", "non-numeric"),
                                              (None, "columns")])
    def test_bad_row_is_data_error(self, tmp_path, capsys, bad, message):
        # the text input the CLI reads: a UCR _TRAIN/_TEST pair
        data = tmp_path / "ecg"
        data.mkdir()
        for path in ECG_DIR.glob("ECG200_T*"):
            (data / path.name).write_bytes(path.read_bytes())
        train_file = data / "ECG200_TRAIN.tsv"
        lines = train_file.read_text().splitlines()
        row = lines[2].split("\t")[:-1]  # None: one value short
        lines[2] = "\t".join(row if bad is None else row + [bad])
        train_file.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "ecg.cfg"
        cfg.write_text("window_len = 20\nn_steps = 4\nn_hidden = 4\n"
                       "use_cnn = 0\nepochs = 1\n")
        assert run("train", "--data", str(data), "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert f"{train_file}:3: " in err and message in err

    def test_class_missing_from_a_split_is_data_error(self, sine, tmp_path,
                                                      capsys):
        ds, cfg = sine
        # class 0 keeps 2 sequences: round(0.75 * 2) leaves none to test
        uneven = datagen.load_dataset(ds)
        uneven.sequences = uneven.sequences[4:]
        datagen.save_dataset(uneven, ds)
        cfg.write_text(cfg.read_text() + "train_fraction = 0.75\n")
        assert run("train", "--data", str(ds), "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 2
        assert "class 0 is absent" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:divide by zero:RuntimeWarning")
    def test_non_finite_training_is_data_error(self, sine, tmp_path, capsys):
        ds, cfg = sine
        cfg.write_text(cfg.read_text().replace("epochs = 1", "epochs = 3") +
                       "learning_rate = 1e300\n")
        out = tmp_path / "o"
        assert run("train", "--data", str(ds), "--config", str(cfg),
                   "--out", str(out)) == 2
        assert "epoch 1: mean loss inf is not finite" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_earlier_per_channel_container_is_data_error(self, sine,
                                                         tmp_path, capsys):
        # the earlier layout of a 2-channel dataset: data_ch0.tsv and
        # data_ch1.tsv, a manifest without digests, and no rows.npy
        ds, cfg = sine
        (ds / datagen.ROWS_NPY).unlink()
        for ch in range(2):
            (ds / f"data_ch{ch}.tsv").write_text("0\t0.5\n1\t0.25\n")
        manifest = ds / "manifest.txt"
        manifest.write_text("".join(
            line.replace("n_channels = 1", "n_channels = 2")
            for line in manifest.read_text().splitlines(keepends=True)
            if not line.startswith("rows_sha256")))
        assert run("train", "--data", str(ds), "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert f"{manifest}: no rows_sha256" in err and "`gen`" in err


class TestEstimateCommand:
    def test_dba_paper_macs_printed(self, tmp_path, capsys):
        cfg = tmp_path / "dba.cfg"
        cfg.write_text("window_len = 5\nn_steps = 30\nn_hidden = 250\n"
                       "n_classes = 8\nn_channels = 128\nuse_cnn = 0\n")
        assert run("estimate", "--config", str(cfg)) == 0
        out = capsys.readouterr().out
        assert "222,500" in out        # (5*128+250)*250 per window
        assert "35.3 us" in out        # at the rated 6.3 GOPs

    def test_sub_nanosecond_response_time_is_not_zero(self, tmp_path, capsys):
        # (2 + 1) * 1 = 3 paper MACs at 6.3 GOPs: 0.476 ns, which 0.1 us
        # would print as 0.0
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("window_len = 2\nn_steps = 1\nn_hidden = 1\n"
                       "use_cnn = 0\n")
        assert run("estimate", "--config", str(cfg)) == 0
        assert ("response time at 6.3 GOPs: 0.000476 us per window"
                in capsys.readouterr().out.splitlines())

    def test_readme_sample_is_the_output(self, tmp_path, capsys):
        # README's DB-a config and the `text` block it shows for it
        text = (ROOT / "README.md").read_text()
        config = re.search(r"^cat > runs/dba\.cfg <<'CFG'\n(.*?)^CFG$", text,
                           re.M | re.S).group(1)
        sample = re.search(r"The DB-a config above has no CNN:\n\n```text\n"
                           r"(.*?)^```", text, re.M | re.S).group(1)
        cfg = tmp_path / "dba.cfg"
        cfg.write_text(config)
        assert run("estimate", "--config", str(cfg)) == 0
        assert capsys.readouterr().out.splitlines() == sample.splitlines()

    def test_missing_config_is_data_error(self, tmp_path):
        assert run("estimate", "--config", str(tmp_path / "nope.cfg")) == 2


class TestUcrTrainingPath:
    def test_ecg200_pipeline_one_epoch(self, tmp_path, capsys):
        cfg = tmp_path / "ecg.cfg"
        cfg.write_text("window_len = 20\nn_steps = 4\nn_hidden = 16\n"
                       "use_cnn = 0\nepochs = 1\nseed = 0\n")
        out = tmp_path / "model"
        assert run("train", "--data", str(ECG_DIR), "--config", str(cfg),
                   "--precision", "full", "--out", str(out)) == 0
        assert run("eval", "--model", str(out), "--data", str(ECG_DIR),
                   "--report", "auc") == 0
        assert "auc" in capsys.readouterr().out

    def test_envelope_model_evaluates_as_trained(self, tmp_path, capsys):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("window_len = 20\nn_steps = 4\nn_hidden = 8\n"
                       "use_cnn = 0\nepochs = 10\nenvelope = 1\n")
        out = tmp_path / "model"
        assert run("train", "--data", str(ECG_DIR), "--config", str(cfg),
                   "--out", str(out)) == 0
        capsys.readouterr()
        assert run("eval", "--model", str(out), "--data", str(ECG_DIR)) == 0
        assert capsys.readouterr().out.strip() == _last_trace_accuracy(out)


class TestConfigParser:
    def test_comments_and_blanks(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("# comment\nwindow_len = 7  # trailing\n\nn_steps=2\n")
        kv = read_kv(f)
        assert kv == {"window_len": "7", "n_steps": "2"}

    def test_bad_line_rejected(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("just words\n")
        with pytest.raises(DataFormatError, match="c.cfg:1: "):
            read_kv(f)


def _grow_int2_file(mdir):
    with open(mdir / "lstm_w_input.bin", "ab") as f:
        f.write(b"\0")
    return "lstm_w_input.bin"


def _cut_float64_file(mdir):
    path = mdir / "lstm_b_forget.bin"
    path.write_bytes(path.read_bytes()[:-8])
    return "lstm_b_forget.bin"


def _drop_manifest_line(mdir):
    path = mdir / "params.manifest"
    path.write_text("".join(line for line in path.read_text().splitlines(True)
                            if not line.startswith("lstm.w_input\t")))
    return "params.manifest: no tensor lstm.w_input"


def _zero_binary_code(mdir):
    params, cfg, _ = model.load_network(mdir)
    model.save_network(mdir, params, cfg, mode="binary")
    path = mdir / "lstm_w_input.bin"
    codes = quant.unpack_codes(path.read_bytes(), (370, 350))
    codes[5, 7] = 0
    path.write_bytes(quant.pack_codes(codes))
    return "lstm_w_input.bin: lstm.w_input holds a 0 code"


def _invalid_field(mdir):
    path = mdir / "conv0_weights.bin"
    path.write_bytes(bytes([0b10]) + path.read_bytes()[1:])
    return "conv0_weights.bin: invalid 2-bit code 0b10"


def _unknown_mode(mdir):
    path = mdir / "config.txt"
    path.write_text(path.read_text().replace("mode = ternary", "mode = foo"))
    return "config.txt: mode = foo is not one of full, binary, ternary"


def _shape_not_integers(mdir):
    path = mdir / "params.manifest"
    path.write_text(path.read_text().replace("\t20,600\t", "\t20,6x0\t"))
    return "params.manifest:5: fc.weights has shape '20,6x0'"


def _manifest_line_without_four_fields(mdir):
    path = mdir / "params.manifest"
    path.write_text(path.read_text().replace("\t20,600\t", " 20,600\t"))
    return ("params.manifest:5: expected name, dtype, shape and file "
            "separated by tabs")


def _config_disagrees_with_files(mdir):
    # the files hold n_hidden = 350: the first tensor whose shape depends
    # on it is the forget gate, (20 + 350, 350) where 300 needs (320, 300)
    path = mdir / "config.txt"
    path.write_text(path.read_text().replace("n_hidden = 350",
                                             "n_hidden = 300"))
    return ("params.manifest: lstm.w_forget has shape (370, 350), but the "
            "network in")


def _file_name_empty(mdir):
    # the entry then names the directory itself, which crashed the reader
    path = mdir / "params.manifest"
    path.write_text(path.read_text().replace("\tlstm_b_input.bin\n", "\t\n"))
    return f"Is a directory: '{mdir}'"


def _config_drops_the_cnn(mdir):
    # the CNN's files would be ignored and the network scored without them
    path = mdir / "config.txt"
    path.write_text(path.read_text().replace("use_cnn = 1", "use_cnn = 0"))
    return "params.manifest: conv0.weights is no tensor of the network in"


def _config_drops_the_residual(mdir):
    # no stored shape tells the add apart: the files alone would be scored
    # as the network with it
    path = mdir / "config.txt"
    path.write_text(path.read_text().replace("residual = 1", "residual = 0"))
    return "config.txt: residual = 0"


def _narrow_gate_file(mdir):
    # one gate file a column short, its manifest line to match: the gates
    # would fuse to 1399 columns
    path = mdir / "lstm_w_cell.bin"
    codes = quant.unpack_codes(path.read_bytes(), (370, 350))
    path.write_bytes(quant.pack_codes(codes[:, :349]))
    manifest = mdir / "params.manifest"
    manifest.write_text(manifest.read_text().replace(
        "lstm.w_cell\tint2\t370,350\t", "lstm.w_cell\tint2\t370,349\t"))
    return ("params.manifest: lstm.w_cell has shape (370, 349), but the "
            "network in")


class TestModelDirectoryBoundary:
    """A model directory that does not hold what its manifest and config
    say is a data error naming the file or the tensor."""

    @pytest.mark.parametrize("command", ["simulate", "eval"])
    @pytest.mark.parametrize("damage", [_grow_int2_file, _cut_float64_file,
                                        _drop_manifest_line, _zero_binary_code,
                                        _invalid_field, _unknown_mode,
                                        _shape_not_integers,
                                        _manifest_line_without_four_fields,
                                        _config_disagrees_with_files,
                                        _narrow_gate_file, _file_name_empty,
                                        _config_drops_the_cnn,
                                        _config_drops_the_residual])
    def test_is_a_data_error_naming_the_file(self, command, damage, tmp_path,
                                             capsys):
        mdir = tmp_path / "m"
        shutil.copytree(ECG_MODEL, mdir)
        named = damage(mdir)
        assert run(command, "--model", str(mdir), "--data", str(ECG_DIR)) == 2
        assert named in capsys.readouterr().err


class TestEvalOfNonFiniteNetworks:
    """`eval` scores no network with a non-finite tensor or probability."""

    @pytest.mark.parametrize("report", ["accuracy", "auc"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_stored_non_finite_tensor_exits_2_naming_it(self, value, report,
                                                        tmp_path, capsys):
        # an all-NaN output layer used to score accuracy 0.5 and auc 0.5
        mdir = tmp_path / "m"
        shutil.copytree(ECG_MODEL, mdir)
        path = mdir / "lstm_w_logits.bin"
        np.full(len(path.read_bytes()) // 8, value).astype("<f8").tofile(path)
        assert run("eval", "--model", str(mdir), "--data", str(ECG_DIR),
                   "--report", report) == 2
        captured = capsys.readouterr()
        assert f"{path}: lstm.w_logits holds a non-finite value" in \
            captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("report", ["accuracy", "auc", "confusion"])
    def test_overflowing_weights_exit_2_naming_the_model(self, report,
                                                         tmp_path, capsys):
        # finite, but the conv and FC products overflow to inf and then NaN;
        # this used to print two RuntimeWarnings and accuracy 0.5000
        cfg = model.NetworkConfig(20, 4, 5, 2, conv_layers=((3, 5),))
        params = train_mod.init_params(cfg)
        for name in ("fc.weights", "conv0.weights"):
            params[name].flat[::2] = 1e300
            params[name].flat[1::2] = -1e300
        mdir = tmp_path / "m"
        model.save_network(mdir, params, cfg)
        assert run("eval", "--model", str(mdir), "--data", str(ECG_DIR),
                   "--report", report) == 2
        captured = capsys.readouterr()
        assert f"{mdir}: the float engine overflows" in captured.err
        assert captured.out == ""


class TestSimulateReportsLogitLimits:
    """`simulate` says how many final logits sit at the format's limits and
    how many predictions tie at the maximum; it exits 0 either way."""

    def test_stored_model(self, capsys):
        # 27 of the 100 ECG200 test sequences end at (-2048, +2047) raw
        assert run("simulate", "--model", str(ECG_MODEL),
                   "--data", str(ECG_DIR)) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "simulated 100 inferences, accuracy 0.8800"
        assert out[1:3] == ["final logits at the Q4.8 limits 54 of 200",
                            "predictions tied at the maximum 0 of 100"]
        assert any(line.startswith("total cycles") for line in out)

    def test_zero_output_layer_ties_every_prediction(self, tmp_path, capsys):
        mdir = tmp_path / "m"
        shutil.copytree(ECG_MODEL, mdir)
        path = mdir / "lstm_w_logits.bin"
        path.write_bytes(bytes(len(path.read_bytes())))
        assert run("simulate", "--model", str(mdir), "--data", str(ECG_DIR),
                   "--limit", "7") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1:3] == ["final logits at the Q4.8 limits 0 of 14",
                            "predictions tied at the maximum 7 of 7"]


def test_simulate_books_on_the_banks_with_a_warm_schedule(monkeypatch):
    """The benchmark traces `fsm.MemoryBanks`' booking methods, in a round
    that runs after the schedule is cached: a second `simulate` must still
    book its run through each of them."""
    argv = ["simulate", "--model", str(ECG_MODEL), "--data", str(ECG_DIR),
            "--limit", "3"]
    assert run(*argv) == 0
    calls = Counter()

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("wb_read", "im_read", "im_write"):
        monkeypatch.setattr(fsm.MemoryBanks, name,
                            counted(getattr(fsm.MemoryBanks, name), name))
    assert run(*argv) == 0
    assert calls == {"wb_read": 1, "im_read": 1, "im_write": 1}


def test_readme_commands_parse():
    """Every `qcnnlstm ...` line of README's bash blocks, continuations
    joined, parses: a flag the parser no longer takes fails here."""
    text = (ROOT / "README.md").read_text()
    commands = [shlex.split(line, comments=True)[1:]
                for block in re.findall(r"^```bash\n(.*?)^```", text,
                                        re.M | re.S)
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("qcnnlstm ")]
    assert {argv[0] for argv in commands} == set(cli._HANDLERS)
    for argv in commands:
        cli.build_parser().parse_args(argv)
