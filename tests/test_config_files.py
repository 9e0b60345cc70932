"""The key = value files: each user key reaches its record, unknown keys and
values that do not parse exit 2, and every machine key changes the run."""

import re
import shutil
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from qcnnlstm import cli, datagen, estimate, fsm, fxp, quant
from qcnnlstm.datagen import read_kv, write_kv
from qcnnlstm.model import NetworkConfig
from qcnnlstm.train import TrainConfig, init_params

ROOT = Path(__file__).resolve().parent.parent
ECG_DIR = ROOT / "data" / "ECG200"
ECG_MODEL = ROOT / "bench" / "models" / "ecg200-ternary350"

# the 14 keys a train config takes, each with a value other than its
# default that the tiny dataset below accepts
TRAIN_VALUES = {
    "window_len": 4, "n_steps": 2, "n_hidden": 3, "n_classes": 2,
    "n_channels": 1, "conv_layers": ((2, 3), (4, 2)), "use_cnn": True,
    "learning_rate": 0.2, "epochs": 2, "batch_size": 4, "init_scale": 0.02,
    "seed": 3, "train_fraction": 0.5, "envelope": True,
}
MACHINE_VALUES = {
    "mac_lanes": 16, "wb_read_bits_per_cycle": 16, "im_bits_per_cycle": 16,
    "lut_size": 16, "clock_hz": 5e7, "wb_capacity_bits": 100,
}
ESTIMATE_VALUES = {
    "window_len": 5, "n_steps": 30, "n_hidden": 250, "n_classes": 8,
    "n_channels": 128, "conv_layers": ((2, 3),), "use_cnn": False,
}


def run(*argv):
    return cli.dispatch([str(a) for a in argv])


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Two classes of six 2 x 4 sine sequences and a train config for them."""
    root = tmp_path_factory.mktemp("config_files")
    assert run("gen", "--system", "sine", "--classes", 2, "--per-class", 6,
               "--window", 4, "--steps", 2, "--out", root / "ds") == 0
    write_kv(root / "base.cfg", {"window_len": 4, "n_steps": 2,
                                 "n_hidden": 3, "use_cnn": False,
                                 "epochs": 1})
    return root, root / "ds", read_kv(root / "base.cfg")


def _write(path, kv):
    write_kv(path, kv)
    return path


@pytest.mark.parametrize("key", sorted(TRAIN_VALUES))
def test_train_key_reaches_the_recorded_settings(tiny, tmp_path, key):
    _, ds, base = tiny
    value = TRAIN_VALUES[key]
    cfg = _write(tmp_path / "train.cfg", {**base, key: value})
    # envelope applies to UCR pairs only
    data = ECG_DIR if key == "envelope" else ds
    assert run("train", "--data", data, "--config", cfg,
               "--out", tmp_path / "m") == 0
    recorded = read_kv(tmp_path / "m" / "hyperparams.txt")
    write_kv(tmp_path / "want.txt", {key: value})
    assert recorded[key] == read_kv(tmp_path / "want.txt")[key]


@pytest.mark.parametrize("key", sorted(MACHINE_VALUES))
def test_machine_key_reaches_the_machine(tmp_path, monkeypatch, key):
    seen = []
    real = fsm.load_banks
    monkeypatch.setattr(fsm, "load_banks",
                        lambda qnet, mc: seen.append(mc) or real(qnet, mc))
    value = MACHINE_VALUES[key] if key != "wb_capacity_bits" else 10**8
    machine = _write(tmp_path / "m.txt", {key: value})
    assert run("simulate", "--model", ECG_MODEL, "--data", ECG_DIR,
               "--limit", 1, "--machine", machine) == 0
    assert getattr(seen[0], key) == value
    assert seen[0] == replace(fsm.MachineConfig(), **{key: value})


@pytest.mark.parametrize("key", sorted(ESTIMATE_VALUES))
def test_estimate_key_reaches_the_estimate(tmp_path, monkeypatch, key):
    seen = {}
    real_table = estimate.estimate_table

    def table(net):
        seen["net"] = net
        return real_table(net)

    monkeypatch.setattr(estimate, "estimate_table", table)
    base = {"window_len": 20, "n_steps": 4, "n_hidden": 16}
    cfg = _write(tmp_path / "e.cfg", {**base, key: ESTIMATE_VALUES[key]})
    assert run("estimate", "--config", cfg) == 0
    assert getattr(seen["net"], key) == ESTIMATE_VALUES[key]


@pytest.mark.parametrize("command, key", [
    ("train", "epoch"), ("train", "mode"), ("train", "clip_limit"),
    ("train", "replicate_targets"), ("train", "augment_noise"),
    ("train", "train_biases"), ("train", "residual"), ("machine", "bus_bits"),
    ("machine", "im_capacity_bits"), ("machine", "mac_lane"),
    ("machine", "activation_format"), ("estimate", "n_hiden"),
    ("estimate", "residual"), ("estimate", "gops"),
])
def test_unknown_key_exits_2_naming_file_and_key(tiny, tmp_path, capsys,
                                                 command, key):
    _, ds, base = tiny
    if command == "train":
        path = _write(tmp_path / "c.cfg", {**base, key: 2})
        argv = ["train", "--data", ds, "--config", path, "--out",
                tmp_path / "m"]
    elif command == "machine":
        path = _write(tmp_path / "m.txt", {key: 96})
        argv = ["simulate", "--model", ECG_MODEL, "--data", ECG_DIR,
                "--machine", path]
    else:
        path = _write(tmp_path / "e.cfg", {"window_len": 5, "n_steps": 30,
                                           "n_hidden": 250, key: 4})
        argv = ["estimate", "--config", path]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert f"{path}: unknown key {key!r}" in err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("line, message", [
    ("epochs = ten", "epochs = ten is not an integer"),
    ("use_cnn = 2", "use_cnn = 2 is not 0 or 1"),
    ("learning_rate = fast", "learning_rate = fast is not a number"),
    ("conv_layers = 10x5x3", "conv_layers must be (filters, width) pairs"),
    ("batch_size = 0", "epochs and batch_size must be positive"),
    ("learning_rate = nan", "learning_rate = nan is not a number"),
    ("init_scale = inf", "init_scale = inf is not a number"),
    ("init_scale = -0.5", "init_scale must not be negative"),
])
def test_value_that_does_not_parse_exits_2(tiny, tmp_path, capsys, line,
                                           message):
    root, ds, _ = tiny
    cfg = tmp_path / "c.cfg"
    cfg.write_text((root / "base.cfg").read_text() + line + "\n")
    assert run("train", "--data", ds, "--config", cfg,
               "--out", tmp_path / "m") == 2
    assert f"{cfg}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("command", ["train", "estimate"])
def test_cnn_without_conv_layers_exits_2(tiny, tmp_path, capsys, command):
    _, ds, _ = tiny
    cfg = _write(tmp_path / "c.cfg", {"window_len": 4, "n_steps": 2,
                                      "n_hidden": 3, "use_cnn": True,
                                      "conv_layers": ()})
    argv = ["train", "--data", ds, "--config", cfg, "--out", tmp_path / "m"] \
        if command == "train" else ["estimate", "--config", cfg]
    assert run(*argv) == 2
    assert f"{cfg}: use_cnn = 1 needs at least one conv_layers pair" in \
        capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_missing_required_key_names_file_and_key(tmp_path, capsys):
    cfg = _write(tmp_path / "c.cfg", {"window_len": 20, "n_hidden": 4})
    assert run("train", "--data", ECG_DIR, "--config", cfg,
               "--out", tmp_path / "m") == 2
    assert f"{cfg}: missing key 'n_steps'" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, have", [("n_classes", 3, 2),
                                              ("n_channels", 4, 1),
                                              ("window_len", 2, 4),
                                              ("n_steps", 1, 2)])
def test_dimension_the_data_contradicts_exits_2(tiny, tmp_path, capsys, key,
                                                value, have):
    _, ds, base = tiny
    cfg = _write(tmp_path / "c.cfg", {**base, key: value})
    assert run("train", "--data", ds, "--config", cfg,
               "--out", tmp_path / "m") == 2
    err = capsys.readouterr().err
    assert f"{cfg}: {key} = {value}, but the data in {ds} has {have}" in err


def test_manifest_without_generator_exits_2_naming_the_key(tiny, tmp_path,
                                                          capsys):
    root, ds, _ = tiny
    data = tmp_path / "ds"
    shutil.copytree(ds, data)
    manifest = data / "manifest.txt"
    kv = read_kv(manifest)
    del kv["generator"]
    write_kv(manifest, kv)
    assert run("train", "--data", data, "--config", root / "base.cfg",
               "--out", tmp_path / "m") == 2
    err = capsys.readouterr().err
    assert f"{manifest}: missing key 'generator'" in err


@pytest.mark.parametrize("key, value, message", [
    ("n_channels", "1.5", "n_channels = 1.5 is not an integer"),
    ("window_len", "ten", "window_len = ten is not an integer"),
    ("n_steps", "2.5", "n_steps = 2.5 is not an integer"),
    ("seed", "x", "seed = x is not an integer"),
    ("noise_amplitude", "loud", "noise_amplitude = loud is not a number"),
    ("class_params", "0.0,one",
     "class_params = 0.0,one is not numbers separated by commas"),
    ("n_steps", "0", "window_len and n_steps must be positive"),
])
def test_manifest_value_that_does_not_parse_exits_2(tiny, tmp_path, capsys,
                                                    key, value, message):
    root, ds, _ = tiny
    data = tmp_path / "ds"
    shutil.copytree(ds, data)
    manifest = data / "manifest.txt"
    kv = read_kv(manifest)
    assert key in kv
    write_kv(manifest, {**kv, key: value})
    assert run("train", "--data", data, "--config", root / "base.cfg",
               "--out", tmp_path / "m") == 2
    assert f"{manifest}: {message}" in capsys.readouterr().err


def test_envelope_on_a_generated_dataset_exits_2(tiny, tmp_path, capsys):
    root, ds, base = tiny
    want = (f"{ds / 'manifest.txt'}: a generated dataset; envelope = 1 "
            "applies to UCR pairs only")
    cfg = _write(tmp_path / "c.cfg", {**base, "envelope": True})
    assert run("train", "--data", ds, "--config", cfg,
               "--out", tmp_path / "m") == 2
    assert want in capsys.readouterr().err
    assert not (tmp_path / "m").exists()
    # eval and simulate read the setting back from hyperparams.txt
    assert run("train", "--data", ds, "--config", root / "base.cfg",
               "--precision", "ternary", "--out", tmp_path / "m") == 0
    record = tmp_path / "m" / "hyperparams.txt"
    write_kv(record, {**read_kv(record), "envelope": True})
    for command in ("eval", "simulate"):
        capsys.readouterr()
        assert run(command, "--model", tmp_path / "m", "--data", ds) == 2
        assert want in capsys.readouterr().err


def test_train_fraction_on_a_ucr_pair_exits_2(tmp_path, capsys):
    # a UCR pair keeps its own split: train refuses the key, even at its
    # default, while eval reads the default that hyperparams.txt records
    base = {"window_len": 20, "n_steps": 4, "n_hidden": 3, "use_cnn": False,
            "epochs": 1}
    for value in (0.5, 0.7):
        cfg = _write(tmp_path / "c.cfg", {**base, "train_fraction": value})
        assert run("train", "--data", ECG_DIR, "--config", cfg,
                   "--out", tmp_path / "m") == 2
        assert (f"{cfg}: train_fraction applies to generated datasets only; "
                f"the UCR pair in {ECG_DIR} keeps its own split") in \
            capsys.readouterr().err
        assert not (tmp_path / "m").exists()
    assert run("train", "--data", ECG_DIR, "--config",
               _write(tmp_path / "c.cfg", base), "--out", tmp_path / "m") == 0
    assert read_kv(tmp_path / "m" / "hyperparams.txt")["train_fraction"] == \
        "0.7"
    assert run("eval", "--model", tmp_path / "m", "--data", ECG_DIR) == 0


def test_envelope_on_too_short_series_exits_2(tmp_path, capsys):
    data = tmp_path / "short"
    data.mkdir()
    for part in ("TRAIN", "TEST"):
        (data / f"X_{part}.tsv").write_text("1\t0.1\t0.5\t0.2\n"
                                           "2\t0.3\t0.1\t0.4\n")
    cfg = _write(tmp_path / "c.cfg", {"window_len": 3, "n_steps": 1,
                                      "n_hidden": 2, "use_cnn": False,
                                      "epochs": 1, "envelope": True})
    assert run("train", "--data", data, "--config", cfg,
               "--out", tmp_path / "m") == 2
    assert (f"{data}: envelope = 1 on series of 3 samples: an envelope needs "
            "series of at least 4 samples") in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_train_and_eval_hash_the_rows_once(tiny, tmp_path, monkeypatch):
    root, ds, _ = tiny
    calls = []
    real = datagen.rows_digest
    monkeypatch.setattr(datagen, "rows_digest",
                        lambda paths, blobs=None:
                        calls.append(paths) or real(paths, blobs))
    model = tmp_path / "m"
    assert run("train", "--data", ds, "--config", root / "base.cfg",
               "--out", model) == 0
    assert len(calls) == 1
    calls.clear()
    assert run("eval", "--model", model, "--data", ds) == 0
    assert len(calls) == 1


class TestMachineFile:
    """`simulate --machine`: the file's keys change what is simulated."""

    def _cycles(self, capsys, *machine):
        rc = run("simulate", "--model", ECG_MODEL, "--data", ECG_DIR,
                 "--limit", 2, *machine)
        out = capsys.readouterr()
        return rc, out.out, out.err

    def test_mac_lanes_change_the_cycles(self, tmp_path, capsys):
        rc, default, _ = self._cycles(capsys)
        assert rc == 0 and "total cycles        76,280" in default
        machine = _write(tmp_path / "m.txt", {"mac_lanes": 16})
        rc, narrow, _ = self._cycles(capsys, "--machine", machine)
        assert rc == 0 and "total cycles" in narrow
        assert "total cycles        76,280" not in narrow

    def test_small_weight_bank_exits_2(self, tmp_path, capsys):
        machine = _write(tmp_path / "m.txt", {"wb_capacity_bits": 100})
        rc, _, err = self._cycles(capsys, "--machine", machine)
        assert rc == 2 and "WB capacity is 100" in err

    def test_infinite_clock_exits_2(self, tmp_path, capsys):
        machine = _write(tmp_path / "m.txt", {"clock_hz": float("inf")})
        rc, out, err = self._cycles(capsys, "--machine", machine)
        assert rc == 2 and f"{machine}: clock_hz = inf is not a number" in err
        assert "latency" not in out

    def test_sub_hertz_clock_exits_2(self, tmp_path, capsys):
        machine = _write(tmp_path / "m.txt", {"clock_hz": 1e-300})
        rc, out, err = self._cycles(capsys, "--machine", machine)
        assert rc == 2 and f"{machine}: clock_hz = 1e-300" in err
        assert "latency" not in out

    @pytest.mark.parametrize("lanes, total", [
        (1, "2,205,500"), (3, "740,180"), (6, "373,980")], ids=["1", "3", "6"])
    def test_few_lanes_share_the_gate_products(self, tmp_path, capsys, lanes,
                                               total):
        # state 3's four gate products share every lane, so no lane idles,
        # from one lane up
        machine = _write(tmp_path / "m.txt", {"mac_lanes": lanes})
        rc, out, _ = self._cycles(capsys, "--machine", machine)
        assert rc == 0 and f"total cycles        {total}\n" in out

    @pytest.mark.parametrize("key, value", [
        ("mac_lanes", 0), ("wb_read_bits_per_cycle", 0),
        ("im_bits_per_cycle", -1), ("lut_size", 0), ("lut_size", 1),
        ("wb_capacity_bits", 0)])
    def test_value_out_of_range_exits_2_naming_the_key(self, tmp_path, capsys,
                                                       key, value):
        machine = _write(tmp_path / "m.txt", {key: value})
        rc, out, err = self._cycles(capsys, "--machine", machine)
        assert rc == 2 and f"{machine}: {key} = {value}" in err
        assert "total cycles" not in out

    def test_bus_bits_is_an_unknown_key(self, tmp_path, capsys):
        machine = _write(tmp_path / "m.txt", {"bus_bits": 96})
        rc, _, err = self._cycles(capsys, "--machine", machine)
        assert rc == 2 and f"{machine}: unknown key 'bus_bits'" in err


def test_machine_values_cover_the_file_keys():
    assert set(MACHINE_VALUES) == \
        {f.name for f in fields(fsm.MachineConfig)} - {"activation_format"}


def _readme_table(heading):
    """The (key, default) rows of the README table under the line that
    starts with `heading`, and the key count that line states."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(heading))
    count = int(re.search(r"\((\d+) keys", lines[start]).group(1))
    rows = []
    for line in lines[start + 1:]:
        if rows and not line.startswith("|"):
            break
        match = re.match(r"\| `(\w+)` \| ([^|]*) \|", line)
        if match:
            rows.append(match.groups())
    return rows, count


@pytest.mark.parametrize("heading, records, fixed", [
    ("`train --config`", (NetworkConfig, TrainConfig, cli._SplitSettings),
     {"mode"}),
    ("`simulate --machine`", (fsm.MachineConfig,), {"activation_format"}),
])
def test_readme_table_lists_the_record_fields(heading, records, fixed):
    rows, count = _readme_table(heading)
    keys = [key for key, _ in rows]
    want = {f.name for record in records for f in fields(record)} - fixed
    assert len(keys) == len(set(keys)) == count
    assert set(keys) == want


def test_readme_machine_defaults_are_the_record_defaults():
    rows, _ = _readme_table("`simulate --machine`")
    default = fsm.MachineConfig()
    assert {key: float(value) for key, value in rows} == \
        {key: float(getattr(default, key)) for key, _ in rows}


@pytest.mark.parametrize("key", sorted(MACHINE_VALUES))
def test_each_machine_field_changes_the_run(key):
    """A machine key that changes nothing would be a dead knob."""
    net = NetworkConfig(8, 3, 12, 3, n_channels=2, conv_layers=((4, 3),))
    qnet = quant.QuantizedNetwork.from_params(
        init_params(net, seed=1, init_scale=1.0), "ternary")
    rng = np.random.default_rng(2)
    raw = fxp.to_raw(rng.uniform(-2, 2, (4, net.n_steps, net.input_len)))

    def outcome(mc):
        try:
            banks = fsm.load_banks(qnet, mc)
        except fsm.BankCapacityError:
            return "over capacity"
        _, report = fsm.run_inference(raw, banks, net, mc)
        return (banks.im["logits"].tolist(), report.summary(),
                report.max_wb_beat_bits, report.max_im_beat_bits)

    base = fsm.MachineConfig()
    assert outcome(base) != outcome(replace(base, **{key: MACHINE_VALUES[key]}))
