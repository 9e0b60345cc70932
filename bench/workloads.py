"""The benchmark's workloads: seeded inputs, timed calls and correctness gates.

A workload is a closed loop with one caller. A round runs each timed call
once, in a fixed order, and every call returns before the next one starts.
Both workloads train (full precision and ternary) and run inference (the
fixed-point golden path, the cycle simulator, and the `simulate` and `eval`
CLI commands), so every end-to-end metric exists on each. They differ in the
shapes and weight statistics the layers see:

* ``ecg200``: the ECG200 UCR split. The inference model is a stored run of
  the reference ternary configuration: small matrices, CNN + FC + residual
  active, ~98% zero gate codes. Per-call overhead and the inline conv weigh.
* ``gesture-dba``: seeded synthetic sEMG-like data at the NinaPro DB-a shape
  (128 channels x window 5, 30 steps, 250 hidden, 8 classes, no CNN) with
  ternary codes drawn from uniform shadows (~50% zero). The gate products
  dominate and the CLI parses 128 text files.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qcnnlstm import cli, datagen, fsm, fxp, ingest, model, quant, train
from qcnnlstm.model import NetworkConfig
from qcnnlstm.train import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
ECG200_DATA = ROOT / "data" / "ECG200"
ECG200_MODEL = BENCH / "models" / "ecg200-ternary350"
EXPECTED_PATH = BENCH / "expected.json"

NAMES = ("ecg200", "gesture-dba")

# Acceptance criterion 9's reference configurations, cut to a few epochs per
# call: enough for the ternary loss to fall once codes leave zero.
ECG200_FP_NET = NetworkConfig(20, 4, 250, 2)
ECG200_TERNARY_NET = NetworkConfig(20, 4, 350, 2)
ECG200_FP_TRAIN = TrainConfig(learning_rate=0.05, epochs=5, seed=0)
ECG200_TERNARY_TRAIN = TrainConfig(learning_rate=0.1, epochs=12, seed=1,
                                   mode="ternary")

# NinaPro DB-a shape from acceptance criterion 5.
GESTURE_NET = NetworkConfig(5, 30, 250, 8, n_channels=128, use_cnn=False)
GESTURE_PER_CLASS = 6  # the CLI's 70/30 split leaves 2 test sequences a class
GESTURE_FP_TRAIN = TrainConfig(learning_rate=0.05, epochs=3, seed=0,
                               batch_size=8)
GESTURE_TERNARY_TRAIN = TrainConfig(learning_rate=0.1, epochs=4, seed=1,
                                    batch_size=8, mode="ternary")


@dataclass
class Call:
    name: str
    run: Callable[[], object]
    units: int  # sequences per call (x epochs for training)
    check: Callable[[object], list]  # failure messages; empty when correct
    repeats: int = 1  # runs per round; more samples for a short call


def trace_targets():
    """(owner, attribute, span name) for every public cross-layer function."""
    plain = [(ingest, "load_ucr"), (ingest, "normalize_and_split"),
             (ingest, "dataset_to_sequences"), (datagen, "load_dataset"),
             (model, "load_network"), (model, "network_forward_fixed"),
             (train, "train"), (train, "adagrad_step"),
             (train, "predict_probs"), (quant, "quantize_weights"),
             (quant, "ste_backward"), (fxp, "dot_ternary"),
             (fxp, "dot_fixed"), (fxp, "sat_add"), (fxp, "lut_index_raw"),
             (fxp, "mul_add_fixed"), (fxp, "mul_fixed"),
             (fsm, "run_inference")]
    targets = [(mod, attr, f"{mod.__name__.split('.')[-1]}.{attr}")
               for mod, attr in plain]
    targets.append((quant.QuantizedNetwork, "from_params",
                    "quant.QuantizedNetwork.from_params"))
    targets += [(fsm.MemoryBanks, attr, "fsm.MemoryBanks")
                for attr in ("wb_read", "im_read", "im_write")]
    targets.append((cli, "dispatch", lambda args: f"cli.dispatch.{args[0][0]}"))
    return targets


def expected_cycles(net: NetworkConfig, mc: fsm.MachineConfig) -> np.ndarray:
    """Closed-form cycles per state for one sequence (state 8 once)."""
    per_state = [fsm.state_cycle_cost(s, net, mc) * net.n_steps
                 for s in range(1, 8)]
    return np.array(per_state + [fsm.state_cycle_cost(8, net, mc)])


def _train_call(name, net, cfg, train_seqs, test_seqs) -> Call:
    def run():
        return train.train(train_seqs, test_seqs, cfg, net)

    def check(result):
        loss = result.loss_trace
        if not np.isfinite(loss).all():
            return [f"{name}: non-finite loss"]
        if not loss[-1] < loss[0]:
            return [f"{name}: loss did not fall ({loss[0]!r} -> {loss[-1]!r})"]
        return []

    return Call(name, run, len(train_seqs) * cfg.epochs, check)


def _sha256(logits) -> str:
    return hashlib.sha256(logits.astype("<i8").tobytes()).hexdigest()


def _digits(preds) -> str:
    return "".join(str(int(p)) for p in preds)


def _captured(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.dispatch(argv)
    return rc, buf.getvalue()


class Inference:
    """Golden path, simulator and CLI calls over one model and test split.

    The test split is visited in a seed-drawn order; checks map results back
    to split order, so digests do not depend on the order.
    """

    def __init__(self, model_dir, data_dir, test_seqs, rng, expected,
                 eval_repeats):
        self.params, self.net, self.mode = model.load_network(model_dir)
        self.mc = fsm.MachineConfig()
        fmt = self.mc.activation_format
        self.qnet = quant.QuantizedNetwork.from_params(self.params, self.mode,
                                                       fmt)
        self.test_seqs = test_seqs
        self.labels = np.array([s.label for s in test_seqs])
        self.order = rng.permutation(len(test_seqs))
        self.raws = [fxp.to_raw(test_seqs[i].windows, fmt) for i in self.order]
        self.expected = expected or {}
        self.cycles = expected_cycles(self.net, self.mc)
        self.cli_args = ["--model", str(model_dir), "--data", str(data_dir)]
        self.eval_repeats = eval_repeats
        # split-order logits of the first fixed pass; every round runs
        # `fixed` before `sim`, whose check compares against them
        self.reference = None
        self.report = None
        self.sim_accuracy = None
        self.eval_accuracy = None

    @property
    def n(self) -> int:
        return len(self.raws)

    def calls(self) -> list:
        return [Call("fixed", self._fixed, self.n, self._check_fixed),
                Call("sim", self._sim, self.n, self._check_sim),
                Call("cli_simulate", lambda: _captured(["simulate"] + self.cli_args),
                     self.n, self._check_cli_simulate),
                Call("cli_eval", lambda: _captured(["eval"] + self.cli_args),
                     self.n, self._check_cli_eval,
                     repeats=self.eval_repeats)]

    def gate_zero_code_fraction(self) -> float:
        codes = list(self.qnet.gate_codes.values())
        return sum(int((c == 0).sum()) for c in codes) / sum(c.size for c in codes)

    def _in_split_order(self, per_call) -> np.ndarray:
        out = np.empty((self.n,) + np.shape(per_call[0]),
                       dtype=np.asarray(per_call[0]).dtype)
        out[self.order] = np.stack(per_call)
        return out

    def _fixed(self):
        return [model.network_forward_fixed(raw, self.qnet, self.net)
                for raw in self.raws]

    def _sim(self):
        banks = fsm.load_banks(self.qnet, self.mc)
        return [fsm.run_inference(raw, banks, self.net, self.mc)
                for raw in self.raws]

    def digests(self) -> dict:
        """What expected.json records: one untimed pass of each engine."""
        logits = self._in_split_order(self._fixed())
        preds = self._in_split_order([p for p, _ in self._sim()])
        probs = train.predict_probs(self.params, self.test_seqs, self.net,
                                    self.mode)
        return {"fixed_logits_sha256": _sha256(logits),
                "sim_predictions": _digits(preds),
                "sim_accuracy": f"{(preds == self.labels).mean():.4f}",
                "eval_accuracy": f"{(probs.argmax(axis=1) == self.labels).mean():.4f}"}

    def _check_fixed(self, out) -> list:
        logits = self._in_split_order(out)
        if self.reference is None:
            self.reference = logits
            digest = _sha256(logits)
            want = self.expected.get("fixed_logits_sha256")
            if want is not None and digest != want:
                return [f"fixed: logits digest {digest} != recorded {want}"]
            return []
        if not np.array_equal(logits, self.reference):
            return ["fixed: logits differ from the first pass"]
        return []

    def _check_sim(self, out) -> list:
        fails = []
        preds = self._in_split_order([p for p, _ in out])
        golden = self.reference[:, -1, :].argmax(axis=1)
        if not np.array_equal(preds, golden):
            fails.append(f"sim: {int((preds != golden).sum())} predictions "
                         "differ from the golden path's argmax")
        want = self.expected.get("sim_predictions")
        if want is not None and _digits(preds) != want:
            fails.append("sim: predictions differ from the recorded digest")
        for _, rep in out:
            if not np.array_equal(rep.cycles_per_state, self.cycles):
                fails.append(f"sim: cycles per state {rep.cycles_per_state.tolist()}"
                             f" != closed form {self.cycles.tolist()}")
                break
        report = out[-1][1]
        if report.wb_bits_read % self.n or report.im_bits_transferred % self.n:
            fails.append("sim: bank traffic differs between sequences")
        self.report = report
        self.sim_accuracy = float((preds == self.labels).mean())
        return fails

    def _check_cli_simulate(self, out) -> list:
        rc, text = out
        m = re.search(r"simulated (\d+) inferences, accuracy ([0-9.]+)", text)
        total = re.search(r"total cycles\s+([\d,]+)", text)
        if rc != 0 or m is None or total is None:
            return [f"cli_simulate: exit {rc}, output {text[:200]!r}"]
        fails = []
        if int(m.group(1)) != self.n:
            fails.append(f"cli_simulate: ran {m.group(1)} sequences, not {self.n}")
        if self.sim_accuracy is not None and \
                m.group(2) != f"{self.sim_accuracy:.4f}":
            fails.append(f"cli_simulate: accuracy {m.group(2)} != simulator "
                         f"{self.sim_accuracy:.4f}")
        want = self.expected.get("sim_accuracy")
        if want is not None and m.group(2) != want:
            fails.append(f"cli_simulate: accuracy {m.group(2)} != recorded {want}")
        if int(total.group(1).replace(",", "")) != int(self.cycles.sum()):
            fails.append("cli_simulate: total cycles differ from closed form")
        return fails

    def _check_cli_eval(self, out) -> list:
        rc, text = out
        m = re.search(r"^accuracy ([0-9.]+)$", text, re.M)
        if rc != 0 or m is None:
            return [f"cli_eval: exit {rc}, output {text[:200]!r}"]
        if self.eval_accuracy is None:
            probs = train.predict_probs(self.params, self.test_seqs, self.net,
                                        self.mode)
            self.eval_accuracy = f"{(probs.argmax(axis=1) == self.labels).mean():.4f}"
        fails = []
        if m.group(1) != self.eval_accuracy:
            fails.append(f"cli_eval: accuracy {m.group(1)} != direct "
                         f"{self.eval_accuracy}")
        want = self.expected.get("eval_accuracy")
        if want is not None and m.group(1) != want:
            fails.append(f"cli_eval: accuracy {m.group(1)} != recorded {want}")
        return fails


@dataclass
class Workload:
    name: str
    expected_key: str
    calls: list
    infer: Inference


def _expected(key: str):
    if not EXPECTED_PATH.exists():
        return None
    return json.loads(EXPECTED_PATH.read_text()).get(key)


def _ecg200(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    kv = {"window_len": 20, "n_steps": 4}
    train_seqs, test_seqs, _, _ = cli.load_split_sequences(ECG200_DATA, kv)
    # the seed orders the sequences; the data and the digests stay fixed
    train_seqs = [train_seqs[i] for i in rng.permutation(len(train_seqs))]
    # batched float eval takes ~0.06 s: repeat it to a share of the round
    # comparable to the other calls
    infer = Inference(ECG200_MODEL, ECG200_DATA, test_seqs, rng,
                      _expected("ecg200"), eval_repeats=10)
    calls = [_train_call("train_fp", ECG200_FP_NET, ECG200_FP_TRAIN,
                         train_seqs, test_seqs),
             _train_call("train_ternary", ECG200_TERNARY_NET,
                         ECG200_TERNARY_TRAIN, train_seqs, test_seqs)]
    return Workload("ecg200", "ecg200", calls + infer.calls(), infer)


def gesture_dataset(rng, seed: int) -> datagen.SyntheticDataset:
    """Each gesture shifts every channel by its own level; noise on top.

    Values lie in [-1, 1] and are stored at four decimals, like a recording.
    """
    net = GESTURE_NET
    levels = rng.uniform(-0.5, 0.5, (net.n_classes, net.n_channels))
    seqs = []
    for label in range(net.n_classes):
        for _ in range(GESTURE_PER_CLASS):
            x = levels[label][None, :, None] + rng.uniform(
                -0.5, 0.5, (net.n_steps, net.n_channels, net.window_len))
            seqs.append(datagen.WindowedSequence(
                np.round(x, 4).reshape(net.n_steps, net.input_len), label))
    return datagen.SyntheticDataset(
        seqs, [float(k) for k in range(net.n_classes)], 0.5, "gesture-dba",
        net.window_len, net.n_steps, net.n_channels, seed)


def _gesture(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    data_dir, model_dir = workdir / "gesture-data", workdir / "gesture-model"
    datagen.save_dataset(gesture_dataset(rng, seed), data_dir)
    # shadows uniform in [-1, 1]: about half the ternary codes are zero
    model.save_network(model_dir, train.init_params(GESTURE_NET, seed=seed,
                                                    init_scale=1.0),
                       GESTURE_NET, mode="ternary")
    train_seqs, test_seqs, _, _ = cli.load_split_sequences(data_dir, {})
    key = f"gesture-dba:{seed}"
    infer = Inference(model_dir, data_dir, test_seqs, rng, _expected(key),
                      eval_repeats=2)
    calls = [_train_call("train_fp", GESTURE_NET, GESTURE_FP_TRAIN,
                         train_seqs, test_seqs),
             _train_call("train_ternary", GESTURE_NET, GESTURE_TERNARY_TRAIN,
                         train_seqs, test_seqs)]
    return Workload("gesture-dba", key, calls + infer.calls(), infer)


def setup(name: str, seed: int, workdir: Path) -> Workload:
    """Make the workload's inputs from `seed` and load the program's state."""
    return {"ecg200": _ecg200, "gesture-dba": _gesture}[name](seed, workdir)
