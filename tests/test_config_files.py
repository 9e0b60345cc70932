"""The key = value files: each user key reaches its record, unknown keys and
values that do not parse exit 2, and every machine key changes the run."""

from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from qcnnlstm import cli, datagen, estimate, fsm, fxp, quant
from qcnnlstm.datagen import read_kv, write_kv
from qcnnlstm.model import NetworkConfig
from qcnnlstm.train import init_params

ROOT = Path(__file__).resolve().parent.parent
ECG_DIR = ROOT / "data" / "ECG200"
ECG_MODEL = ROOT / "bench" / "models" / "ecg200-ternary350"

# the 15 keys a train config takes, each with a value other than its
# default that the tiny dataset below accepts
TRAIN_VALUES = {
    "window_len": 4, "n_steps": 2, "n_hidden": 3, "n_classes": 2,
    "n_channels": 1, "conv_layers": ((2, 3), (4, 2)), "use_cnn": True,
    "residual": False, "learning_rate": 0.2, "epochs": 2, "batch_size": 4,
    "init_scale": 0.02, "seed": 3, "train_fraction": 0.5, "envelope": True,
}
MACHINE_VALUES = {
    "mac_lanes": 16, "wb_read_bits_per_cycle": 16, "im_bits_per_cycle": 16,
    "lut_size": 16, "clock_hz": 5e7, "wb_capacity_bits": 100,
}
ESTIMATE_VALUES = {
    "window_len": 5, "n_steps": 30, "n_hidden": 250, "n_classes": 8,
    "n_channels": 128, "conv_layers": ((2, 3),), "use_cnn": False,
    "gops": 3.5,
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
    assert run("train", "--data", ds, "--config", cfg,
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
    real_table, real_time = estimate.estimate_table, estimate.response_time

    def table(no_cnn, net):
        seen["net"] = net
        return real_table(no_cnn, net)

    def response_time(macs, gops):
        seen["gops"] = gops
        return real_time(macs, gops)

    monkeypatch.setattr(estimate, "estimate_table", table)
    monkeypatch.setattr(estimate, "response_time", response_time)
    base = {"window_len": 20, "n_steps": 4, "n_hidden": 16}
    cfg = _write(tmp_path / "e.cfg", {**base, key: ESTIMATE_VALUES[key]})
    assert run("estimate", "--config", cfg) == 0
    got = seen["gops"] if key == "gops" else getattr(seen["net"], key)
    assert got == ESTIMATE_VALUES[key]


@pytest.mark.parametrize("command, key", [
    ("train", "epoch"), ("train", "mode"), ("train", "clip_limit"),
    ("train", "replicate_targets"), ("train", "augment_noise"),
    ("train", "train_biases"), ("machine", "bus_bits"),
    ("machine", "im_capacity_bits"), ("machine", "mac_lane"),
    ("machine", "activation_format"), ("estimate", "n_hiden"),
    ("estimate", "residual"),
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


def test_recordings_container_is_data_error(tiny, tmp_path, capsys):
    root, _, _ = tiny
    rng = np.random.default_rng(0)
    records = [(k % 2, rng.uniform(-1, 1, (2, 8))) for k in range(8)]
    datagen.save_channels(tmp_path / "rec", [label for label, _ in records],
                          [signal for _, signal in records], {"name": "rec"})
    assert run("train", "--data", tmp_path / "rec", "--config",
               root / "base.cfg", "--out", tmp_path / "m") == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'rec' / 'manifest.txt'}: missing key 'generator'" \
        in err


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
        assert rc == 0 and "total cycles        75,856" in default
        machine = _write(tmp_path / "m.txt", {"mac_lanes": 16})
        rc, narrow, _ = self._cycles(capsys, "--machine", machine)
        assert rc == 0 and "total cycles" in narrow
        assert "total cycles        75,856" not in narrow

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

    def test_bus_bits_is_an_unknown_key(self, tmp_path, capsys):
        machine = _write(tmp_path / "m.txt", {"bus_bits": 96})
        rc, _, err = self._cycles(capsys, "--machine", machine)
        assert rc == 2 and f"{machine}: unknown key 'bus_bits'" in err


def test_machine_values_cover_the_file_keys():
    assert set(MACHINE_VALUES) == \
        {f.name for f in fields(fsm.MachineConfig)} - {"activation_format"}


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
