"""A seeded fuzzer for what the user hands the CLI: the key = value files
(`train` configs, `--machine` files, `estimate` configs), `gen` flags and
model directories.

Each example spoils one thing in a tiny set-up and runs the commands that
read it through `cli.dispatch` in-process. Each must exit 0, 1 (argparse
refuses a flag) or 2, with no traceback on stderr; every model `train` or
`quantize` writes must hold finite tensors, and `eval` must refuse a model
directory that holds a non-finite one. Every value stays small: the
spoiled settings are the ones below, never a size that would allocate
much.
"""

import contextlib
import io
import shutil
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcnnlstm import cli, datagen, fsm, model, train

#: what a value becomes; REPEAT writes the key's line (or flag) twice
REPEAT = "<repeat>"
VALUES = ["0", "-1", "nan", "inf", "1e300", "1e-300", "", "ten", REPEAT]

#: every key each file takes, at a value that works
TRAIN_CFG = {"window_len": "4", "n_steps": "2", "n_hidden": "3",
             "n_classes": "2", "n_channels": "1", "conv_layers": "2x3",
             "use_cnn": "1", "residual": "1", "learning_rate": "0.05",
             "epochs": "1", "batch_size": "4", "init_scale": "0.3",
             "seed": "0", "train_fraction": "0.5", "envelope": "0"}
MACHINE_CFG = {"mac_lanes": "32", "wb_read_bits_per_cycle": "64",
               "im_bits_per_cycle": "48", "lut_size": "64",
               "clock_hz": "1e8", "wb_capacity_bits": "16020000"}
ESTIMATE_CFG = {"window_len": "4", "n_steps": "2", "n_hidden": "3",
                "n_classes": "2", "n_channels": "1", "conv_layers": "2x3",
                "use_cnn": "1", "gops": "6.3"}
GEN_FLAGS = {"--system": "sine", "--classes": "2", "--per-class": "2",
             "--window": "4", "--steps": "2", "--noise": "0.01",
             "--seed": "0", "--beta": "0.1", "--alpha": "3.0",
             "--scale": "40.0"}
#: config.txt values beyond VALUES: shapes that disagree with the files
SHAPES = ["1", "2", "5", "3x3", "2x3;2x3", "full", "ternary", "binary"]
FLOATS = [np.nan, np.inf, -np.inf, 1e300, -1e300, 1e-300, 0.0]


def test_the_files_list_every_key():
    def keys(*records, fixed=()):
        return {f.name for r in records for f in fields(r)} - set(fixed)

    assert set(TRAIN_CFG) == keys(model.NetworkConfig, train.TrainConfig,
                                  cli._SplitSettings, fixed={"mode"})
    assert set(MACHINE_CFG) == keys(fsm.MachineConfig,
                                    fixed={"activation_format"})
    assert set(ESTIMATE_CFG) == keys(model.NetworkConfig, cli._Throughput,
                                     fixed={"residual"})


def _dispatch(*argv):
    """(exit code, stderr) of one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.dispatch([str(a) for a in argv])
    return code, err.getvalue()


def _kv_text(kv: dict, key: str, value: str) -> str:
    lines = [f"{k} = {v}\n" for k, v in kv.items()]
    at = list(kv).index(key)
    lines[at:at + 1] = [lines[at]] * 2 if value == REPEAT else \
        [f"{key} = {value}\n"]
    return "".join(lines)


def _assert_finite_model(model_dir: Path) -> None:
    params, _, _ = model.load_network(model_dir)
    for name, w in params.items():
        assert np.isfinite(w).all(), (model_dir, name)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Two classes of four 2 x 4 sine sequences, and a full and a ternary
    CNN model trained on them."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    assert _dispatch("gen", "--system", "sine", "--classes", "2",
                     "--per-class", "4", "--window", "4", "--steps", "2",
                     "--out", root / "ds")[0] == 0
    (root / "c.cfg").write_text(_kv_text(TRAIN_CFG, "seed", "0"))
    assert _dispatch("train", "--data", root / "ds", "--config",
                     root / "c.cfg", "--out", root / "full")[0] == 0
    assert _dispatch("quantize", "--model", root / "full", "--out",
                     root / "ternary")[0] == 0
    return root


def _spoil_file(tiny, tmp, kind, key, value):
    """Run the command that reads a user file with `key` spoiled."""
    path = tmp / "spoiled.cfg"
    if kind == "train":
        path.write_text(_kv_text(TRAIN_CFG, key, value))
        out = tmp / "m"
        code, err = _dispatch("train", "--data", tiny / "ds", "--config",
                              path, "--out", out)
        if code == 0:
            _assert_finite_model(out)
    elif kind == "machine":
        path.write_text(_kv_text(MACHINE_CFG, key, value))
        code, err = _dispatch("simulate", "--model", tiny / "ternary",
                              "--data", tiny / "ds", "--machine", path)
    else:
        path.write_text(_kv_text(ESTIMATE_CFG, key, value))
        code, err = _dispatch("estimate", "--config", path)
    return [(code, err)]


def _spoil_gen(tiny, tmp, system, flag, value):
    flags = {**GEN_FLAGS, "--system": system}
    argv = [a for f, v in flags.items() if f != flag for a in (f, v)]
    argv += [flag, flags[flag]] * 2 if value == REPEAT else [flag, value]
    code, err = _dispatch("gen", *argv, "--out", tmp / "ds")
    if code == 0:  # what gen writes, load reads
        ds = datagen.load_dataset(tmp / "ds")
        assert np.isfinite([s.windows for s in ds.sequences]).all()
    return [(code, err)]


def _spoil_model(tiny, tmp, base, how, index, where, value):
    """Spoil one thing in a copy of model `base`, then eval, simulate and
    quantize it; eval must exit 2 when a float64 value went non-finite."""
    mdir = tmp / "m"
    shutil.copytree(tiny / base, mdir)
    manifest = mdir / "params.manifest"
    entries = [line.split("\t") for line in manifest.read_text().splitlines()]
    by_dtype = {dtype: [e[3] for e in entries if e[1] == dtype]
                for dtype in ("float64", "int2")}
    if how == "manifest":  # a field replaced, or the line repeated
        lines = ["\t".join(e) + "\n" for e in entries]
        at = index % len(lines)
        if value == REPEAT:
            lines.insert(at, lines[at])
        else:
            fields_ = entries[at][:]
            fields_[where % 4] = value
            lines[at] = "\t".join(fields_) + "\n"
        manifest.write_text("".join(lines))
    elif how == "length":  # cut or grown by a few bytes
        path = mdir / entries[index % len(entries)][3]
        data = path.read_bytes()
        path.write_bytes(data[:where] if where < len(data) else
                         data + bytes(where - len(data) + 1))
    elif how == "code":  # one byte of packed codes
        names = by_dtype["int2"] or by_dtype["float64"]
        path = mdir / names[index % len(names)]
        data = bytearray(path.read_bytes())
        data[where % len(data)] = value
        path.write_bytes(bytes(data))
    elif how == "float":  # one float64 value
        path = mdir / by_dtype["float64"][index % len(by_dtype["float64"])]
        values = np.fromfile(path, "<f8")
        values[where % len(values)] = value
        values.tofile(path)
    else:  # a config.txt key
        config = mdir / "config.txt"
        kv = datagen.read_kv(config)
        key = sorted(kv)[index % len(kv)]
        config.write_text(_kv_text(kv, key, value))
    runs = [_dispatch("eval", "--model", mdir, "--data", tiny / "ds"),
            _dispatch("simulate", "--model", mdir, "--data", tiny / "ds"),
            _dispatch("quantize", "--model", mdir, "--out", tmp / "q")]
    if how == "float" and not np.isfinite(value):
        assert runs[0][0] == 2, runs[0]
    if runs[2][0] == 0:
        _assert_finite_model(tmp / "q")
    return runs


SPOILS = st.one_of(
    st.tuples(st.just(_spoil_file), st.just("train"),
              st.sampled_from(sorted(TRAIN_CFG)), st.sampled_from(VALUES)),
    st.tuples(st.just(_spoil_file), st.just("machine"),
              st.sampled_from(sorted(MACHINE_CFG)), st.sampled_from(VALUES)),
    st.tuples(st.just(_spoil_file), st.just("estimate"),
              st.sampled_from(sorted(ESTIMATE_CFG)),
              st.sampled_from(VALUES)),
    st.tuples(st.just(_spoil_gen), st.sampled_from(["sine", "logistic",
                                                    "lorenz"]),
              st.sampled_from(sorted(GEN_FLAGS)), st.sampled_from(VALUES)),
    st.tuples(st.just(_spoil_model), st.sampled_from(["full", "ternary"]),
              st.just("manifest"), st.integers(0, 20), st.integers(0, 3),
              st.sampled_from(VALUES + ["float32", "int2", "float64"])),
    st.tuples(st.just(_spoil_model), st.sampled_from(["full", "ternary"]),
              st.just("length"), st.integers(0, 20), st.integers(0, 64),
              st.none()),
    st.tuples(st.just(_spoil_model), st.just("ternary"), st.just("code"),
              st.integers(0, 20), st.integers(0, 64), st.integers(0, 255)),
    st.tuples(st.just(_spoil_model), st.sampled_from(["full", "ternary"]),
              st.just("float"), st.integers(0, 20), st.integers(0, 64),
              st.sampled_from(FLOATS)),
    st.tuples(st.just(_spoil_model), st.sampled_from(["full", "ternary"]),
              st.just("config"), st.integers(0, 20), st.none(),
              st.sampled_from(VALUES + SHAPES)),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(spoil=SPOILS)
def test_spoiled_input_exits_0_1_or_2_without_a_traceback(tiny, spoil):
    with tempfile.TemporaryDirectory() as tmp:
        runs = spoil[0](tiny, Path(tmp), *spoil[1:])
    for code, err in runs:
        assert code in (0, 1, 2), (spoil, code, err)
        assert "Traceback" not in err, (spoil, err)
