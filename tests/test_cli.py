import filecmp
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qcnnlstm import cli, datagen, fsm, fxp, model
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

    def test_simulate_trace_without_out_is_usage_error(self, capsys):
        assert run("simulate", "--model", str(ECG_MODEL), "--data",
                   str(ECG_DIR), "--limit", "1", "--trace") == 1
        err = capsys.readouterr().err
        assert "--trace" in err and "--out" in err

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
        assert (out / "data.tsv").exists()
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
        assert filecmp.cmp(a / "data.tsv", b / "data.tsv", shallow=False)
        assert (a / "manifest.txt").read_text() == \
            (b / "manifest.txt").read_text()

    def test_lorenz_generates(self, tmp_path):
        out = tmp_path / "lz"
        assert run("gen", "--system", "lorenz", "--classes", "2",
                   "--per-class", "1", "--window", "10", "--steps", "2",
                   "--out", str(out)) == 0
        rows = (out / "data.tsv").read_text().splitlines()
        assert len(rows) == 2

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

    def test_container_parsed_from_the_text(self, tmp_path, reads):
        ds = datagen.make_sine_dataset(per_class=2, seed=3)
        datagen.save_dataset(ds, tmp_path / "d")
        (tmp_path / "d" / datagen.ROWS_NPY).unlink()
        reads.clear()
        digest = datagen.load_dataset(tmp_path / "d").digest
        assert reads["data.tsv"] == 1
        assert digest == datagen.rows_digest([tmp_path / "d" / "data.tsv"])


class TestGenBinaryRows:
    """`gen` writes rows.npy; it must give the row files' windows exactly."""

    @pytest.mark.parametrize("system", ["sine", "logistic", "lorenz"])
    def test_binary_windows_equal_the_text_windows(self, system, tmp_path,
                                                   monkeypatch):
        out = tmp_path / "ds"
        assert run("gen", "--system", system, "--classes", "3",
                   "--per-class", "2", "--window", "10", "--steps", "3",
                   "--out", str(out)) == 0
        with monkeypatch.context() as m:
            m.setattr(datagen, "parse_rows", _no_parse)
            binary = _keys(datagen.load_dataset(out).sequences)
        (out / datagen.ROWS_NPY).unlink()
        assert binary == _keys(datagen.load_dataset(out).sequences)

    def test_value_edited_after_gen_is_loaded(self, tmp_path):
        out = tmp_path / "ds"
        assert run("gen", "--system", "sine", "--classes", "2",
                   "--per-class", "2", "--window", "10", "--steps", "2",
                   "--out", str(out)) == 0
        tsv = out / "data.tsv"
        lines = tsv.read_text().splitlines()
        row = lines[0].split("\t")
        assert float(row[1]) != -0.5
        lines[0] = "\t".join(row[:1] + ["-0.5"] + row[2:])
        tsv.write_text("\n".join(lines) + "\n")
        assert datagen.load_dataset(out).sequences[0].windows[0, 0] == -0.5


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
                   "--limit", "2", "--trace", "--out", str(simout)) == 0
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


def test_kernel_wider_than_window_is_data_error(tmp_path, capsys):
    # the float engine pads a width-5 kernel to a 2-sample window, but the
    # cycle model has no position to charge it at
    ds, model, qdir = tmp_path / "ds", tmp_path / "m", tmp_path / "q"
    assert run("gen", "--system", "sine", "--classes", "2", "--per-class", "6",
               "--window", "2", "--steps", "3", "--out", str(ds)) == 0
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("window_len = 2\nn_steps = 3\nn_hidden = 4\n"
                   "conv_layers = 3x5\nresidual = 0\nepochs = 1\n")
    assert run("train", "--data", str(ds), "--config", str(cfg),
               "--precision", "ternary", "--out", str(model)) == 0
    assert run("quantize", "--model", str(model), "--out", str(qdir)) == 0
    capsys.readouterr()
    assert run("simulate", "--model", str(qdir), "--data", str(ds)) == 2
    assert "width-5 kernel" in capsys.readouterr().err


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
        biases = [name for name in model.named_tensors(params)
                  if model.is_bias(name)]
        assert {"conv0.bias", "conv1.bias", "lstm.gate_bias",
                "lstm.b_logits"} <= set(biases)
        assert any(model.named_tensors(params)[name].any() for name in biases)
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
    """Bad values and degenerate splits in a generated dataset exit 2."""

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
    def test_bad_row_is_data_error(self, sine, tmp_path, capsys, bad,
                                   message):
        ds, cfg = sine
        lines = (ds / "data.tsv").read_text().splitlines()
        row = lines[2].split("\t")[:-1]  # None: one value short
        lines[2] = "\t".join(row if bad is None else row + [bad])
        (ds / "data.tsv").write_text("\n".join(lines) + "\n")
        assert run("train", "--data", str(ds), "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert f"{ds / 'data.tsv'}:3: " in err and message in err

    def test_class_missing_from_a_split_is_data_error(self, sine, tmp_path,
                                                      capsys):
        ds, cfg = sine
        # class 0 keeps 2 sequences: round(0.75 * 2) leaves none to test
        lines = (ds / "data.tsv").read_text().splitlines()
        (ds / "data.tsv").write_text("\n".join(lines[4:]) + "\n")
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
        # data_ch1.tsv, and no data.tsv
        ds, cfg = sine
        text = (ds / "data.tsv").read_text()
        (ds / "data.tsv").unlink()
        for ch in range(2):
            (ds / f"data_ch{ch}.tsv").write_text(text)
        manifest = ds / "manifest.txt"
        manifest.write_text(manifest.read_text().replace(
            "n_channels = 1", "n_channels = 2"))
        assert run("train", "--data", str(ds), "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 2
        assert f"{ds / 'data.tsv'}: no such file" in capsys.readouterr().err


class TestEstimateCommand:
    def test_dba_paper_macs_printed(self, tmp_path, capsys):
        cfg = tmp_path / "dba.cfg"
        cfg.write_text("window_len = 5\nn_steps = 30\nn_hidden = 250\n"
                       "n_classes = 8\nn_channels = 128\nuse_cnn = 0\n")
        assert run("estimate", "--config", str(cfg)) == 0
        out = capsys.readouterr().out
        assert "222,500" in out        # (5*128+250)*250 per window
        assert "35.3 us" in out        # at the rated 6.3 GOPs

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
