"""CNN feature extractor + residual add + LSTM classifier forward passes.

`network_forward` is the float64 reference pass over one sequence, used for
training. `network_forward_fixed` is the one fixed-point engine: batched,
BLAS-backed, every intermediate in the activation Q-format; the cycle
simulator in `fsm` takes its numerics from it.

Gate matrices are stored input-major, shape (n_hidden + input_len, n_hidden),
so a step computes xx @ W + b.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import fxp, quant
from .fxp import QFormat

__all__ = [
    "ConvLayerParams",
    "FcParams",
    "LstmParams",
    "NetworkConfig",
    "LstmState",
    "NetworkParams",
    "conv1d_relu",
    "fc_residual",
    "lstm_step",
    "network_forward",
    "network_forward_fixed",
    "softmax",
    "predict",
    "save_network",
    "load_network",
]


@dataclass
class ConvLayerParams:
    """One 1-D convolution layer: weights (filters, depth, width), bias (filters,)."""

    weights: np.ndarray
    bias: np.ndarray

    @property
    def n_filters(self) -> int:
        return self.weights.shape[0]

    @property
    def width(self) -> int:
        return self.weights.shape[2]


@dataclass
class FcParams:
    """Fully connected map from flattened feature maps to the window length."""

    weights: np.ndarray  # (window_total, n_filters * map_len)


@dataclass
class LstmParams:
    """Gate matrices (n_hidden + input_len, n_hidden), biases, output layer."""

    w_forget: np.ndarray
    w_input: np.ndarray
    w_output: np.ndarray
    w_cell: np.ndarray
    b_forget: np.ndarray
    b_input: np.ndarray
    b_output: np.ndarray
    b_cell: np.ndarray
    w_logits: np.ndarray  # (n_hidden, n_classes)
    b_logits: np.ndarray

    def gate_weights(self) -> dict:
        return {"forget": self.w_forget, "input": self.w_input,
                "output": self.w_output, "cell": self.w_cell}

    def gate_biases(self) -> dict:
        return {"forget": self.b_forget, "input": self.b_input,
                "output": self.b_output, "cell": self.b_cell}


@dataclass(frozen=True)
class NetworkConfig:
    window_len: int
    n_steps: int
    n_hidden: int
    n_classes: int
    n_channels: int = 1
    conv_layers: tuple = ((10, 5), (30, 3))  # (filters, width) per layer
    use_cnn: bool = True
    residual: bool = True

    def __post_init__(self):
        if min(self.window_len, self.n_steps, self.n_hidden,
               self.n_classes, self.n_channels) < 1:
            raise ValueError("all network dimensions must be positive")

    @property
    def input_len(self) -> int:
        """Length of the flattened window fed to the LSTM."""
        return self.n_channels * self.window_len

    @property
    def fc_input_len(self) -> int:
        f_last = self.conv_layers[-1][0]
        return f_last * self.window_len


@dataclass
class LstmState:
    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, n_hidden: int):
        return cls(np.zeros(n_hidden), np.zeros(n_hidden))


@dataclass
class NetworkParams:
    conv: list = field(default_factory=list)
    fc: FcParams | None = None
    lstm: LstmParams | None = None


def _pad_window(m: int) -> tuple[int, int]:
    # symmetric zero padding, one extra on the right when the width is even
    left = (m - 1) // 2
    return left, m - 1 - left


def conv1d_relu(x, layer: ConvLayerParams) -> np.ndarray:
    """Zero-padded stride-1 1-D convolution followed by ReLU.

    `x` is (depth, length) or (length,) for single-channel input; the output
    is (filters, length): padding keeps the spatial length.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    w = layer.weights
    f, depth, m = w.shape
    if x.shape[0] != depth:
        raise ValueError(f"input depth {x.shape[0]} != filter depth {depth}")
    n = x.shape[1]
    left, right = _pad_window(m)
    xpad = np.pad(x, ((0, 0), (left, right)))
    z = np.tile(layer.bias[:, None], (1, n)).astype(np.float64)
    for a in range(m):
        z += w[:, :, a] @ xpad[:, a:a + n]
    return np.maximum(z, 0.0)


def fc_residual(feature_maps, fc: FcParams, x_window) -> np.ndarray:
    """P = W @ flatten(maps); returns x_window + P (or P with residual off)."""
    flat = np.asarray(feature_maps, dtype=np.float64).ravel()
    p = fc.weights @ flat
    if x_window is None:
        return p
    x_window = np.asarray(x_window, dtype=np.float64)
    if x_window.shape != p.shape:
        raise ValueError("residual add needs FC output length == window length")
    return x_window + p


def softmax(logits) -> np.ndarray:
    """Max-stabilized softmax."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def lstm_step(xx, state: LstmState, p: LstmParams):
    """One LSTM update from xx = [h, window]; returns (new state, logits)."""
    g_forget = _sigmoid(xx @ p.w_forget + p.b_forget)
    g_input = _sigmoid(xx @ p.w_input + p.b_input)
    g_output = _sigmoid(xx @ p.w_output + p.b_output)
    g_cell = np.tanh(xx @ p.w_cell + p.b_cell)
    c = g_forget * state.c + g_cell * g_input
    h = g_output * np.tanh(c)
    logits = h @ p.w_logits + p.b_logits
    return LstmState(h, c), logits


def _extract_features(window, params: NetworkParams, cfg: NetworkConfig):
    """CNN stack + FC + optional residual for one flattened window."""
    maps = np.asarray(window, dtype=np.float64).reshape(cfg.n_channels, cfg.window_len)
    for layer in params.conv:
        maps = conv1d_relu(maps, layer)
    skip = window if cfg.residual else None
    return fc_residual(maps, params.fc, skip)


def network_forward(windows, params: NetworkParams, cfg: NetworkConfig) -> np.ndarray:
    """Run all steps over one sequence; returns (n_steps, n_classes) logits."""
    windows = np.asarray(windows, dtype=np.float64)
    if windows.shape != (cfg.n_steps, cfg.input_len):
        raise ValueError(f"expected windows {(cfg.n_steps, cfg.input_len)}, "
                         f"got {windows.shape}")
    state = LstmState.zeros(cfg.n_hidden)
    logits = np.zeros((cfg.n_steps, cfg.n_classes))
    for t in range(cfg.n_steps):
        v = _extract_features(windows[t], params, cfg) if cfg.use_cnn else windows[t]
        xx = np.concatenate([state.h, v])
        state, logits[t] = lstm_step(xx, state, params.lstm)
    return logits


def predict(logits_per_step) -> int:
    """Classification rule: argmax of the final step's logits (ties -> lowest)."""
    return int(np.argmax(logits_per_step[-1]))


# ---------------------------------------------------------------------------
# Fixed-point engine
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _lut(kind: str, size: int, fmt: QFormat):
    """A table and its entries requantized to `fmt`, built once per key."""
    table = fxp.build_lut(kind, size)
    entries = fxp.lut_entries_in(table, fmt)
    entries.flags.writeable = False
    return table, entries


def network_forward_fixed(windows_raw, qnet: quant.QuantizedNetwork,
                          cfg: NetworkConfig,
                          fmt: QFormat = fxp.ACT_FORMAT,
                          lut_size: int = fxp.LUT_SIZE) -> np.ndarray:
    """Bit-accurate forward pass over raw activation codes.

    `windows_raw` is (n_steps, input_len) or a batch (B, n_steps, input_len);
    returns raw logit codes, (n_steps, n_classes) or (B, n_steps, n_classes).
    Every stored intermediate is saturated/requantized to `fmt`, and the
    nonlinearities read `lut_size`-entry tables.
    """
    x = np.asarray(windows_raw, dtype=np.int64)
    if x.ndim not in (2, 3) or x.shape[-2:] != (cfg.n_steps, cfg.input_len):
        raise ValueError(f"expected windows {(cfg.n_steps, cfg.input_len)} "
                         f"or a batch of them, got {x.shape}")
    # states 1-2 do not depend on the recurrent state: all windows at once
    v = x.reshape(-1, cfg.input_len)
    if cfg.use_cnn:
        maps = v.reshape(len(v), cfg.n_channels, cfg.window_len)
        for codes in qnet.conv_codes:
            maps = _conv_relu_fixed(maps, codes, fmt)
        p = fxp.dot_fixed(maps.reshape(len(v), -1), qnet.fc_raw.T, fmt=fmt)
        v = fxp.sat_add(v, p, fmt) if cfg.residual else p
    v = v.reshape(-1, cfg.n_steps, cfg.input_len)
    sig, sig_entries = _lut("sigmoid", lut_size, fmt)
    tanh, tanh_entries = _lut("tanh", lut_size, fmt)
    n_h = cfg.n_hidden
    h = c = np.zeros((len(v), n_h), dtype=np.int64)
    hs = []
    for t in range(cfg.n_steps):
        pre = fxp.dot_ternary(np.concatenate([h, v[:, t]], axis=1), qnet.gates,
                              fmt=fmt)
        g = sig_entries[fxp.lut_index_raw(pre[:, :3 * n_h], sig, fmt)]
        g_forget, g_input, g_output = np.split(g, 3, axis=1)
        g_cell = tanh_entries[fxp.lut_index_raw(pre[:, 3 * n_h:], tanh, fmt)]
        c = fxp.mul_add_fixed(g_forget, c, g_cell, g_input, fmt)
        h = fxp.mul_fixed(g_output, tanh_entries[fxp.lut_index_raw(c, tanh, fmt)],
                          fmt)
        hs.append(h)
    logits = fxp.dot_fixed(np.stack(hs, axis=1).reshape(-1, n_h),
                           qnet.logits_raw, fmt=fmt)
    return logits.reshape(x.shape[:-1] + (cfg.n_classes,))


def _conv_relu_fixed(maps_raw, codes, fmt: QFormat) -> np.ndarray:
    """Fixed-point conv + ReLU over (N, depth, length) maps, one product."""
    f, depth, m = codes.shape
    n, _, length = maps_raw.shape
    xpad = np.pad(maps_raw, ((0, 0), (0, 0), _pad_window(m)))
    # patches[n * length + position, d * m + a] = xpad[n, d, position + a]
    patches = np.lib.stride_tricks.sliding_window_view(xpad, m, axis=2)
    patches = patches.transpose(0, 2, 1, 3).reshape(n * length, -1)
    # ternary taps keep the activation scale; saturating before the ReLU
    # equals the ReLU followed by a clip at raw_max
    acc = fxp.dot_ternary(patches, codes.reshape(f, depth * m).T, fmt=fmt)
    return np.maximum(acc, 0).reshape(n, length, f).transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# Serialization: directory of flat binary arrays plus a text manifest.
# Manifest line: name<TAB>dtype<TAB>shape-csv<TAB>filename
# ---------------------------------------------------------------------------

def _param_items(params: NetworkParams):
    for i, layer in enumerate(params.conv):
        yield f"conv{i}.weights", layer.weights
        yield f"conv{i}.bias", layer.bias
    if params.fc is not None:
        yield "fc.weights", params.fc.weights
    p = params.lstm
    for name in quant.GATE_ORDER:
        yield f"lstm.w_{name}", p.gate_weights()[name]
        yield f"lstm.b_{name}", p.gate_biases()[name]
    yield "lstm.w_logits", p.w_logits
    yield "lstm.b_logits", p.b_logits


def save_network(out_dir, params: NetworkParams, cfg: NetworkConfig,
                 mode: str = "full") -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for name, arr in _param_items(params):
        fname = name.replace(".", "_") + ".bin"
        arr = np.asarray(arr, dtype=np.float64)
        if mode != "full" and _is_quantized_tensor(name):
            codes = quant.quantize_weights(arr, mode)
            (out / fname).write_bytes(quant.pack_codes(codes))
            dtype = "int2"
        else:
            (out / fname).write_bytes(arr.astype("<f8").tobytes())
            dtype = "float64"
        shape = ",".join(str(s) for s in arr.shape)
        manifest.append(f"{name}\t{dtype}\t{shape}\t{fname}")
    (out / "params.manifest").write_text("\n".join(manifest) + "\n")
    (out / "config.txt").write_text(_config_text(cfg, mode))


def _is_quantized_tensor(name: str) -> bool:
    return name.startswith("conv") and name.endswith("weights") or \
        name.startswith("lstm.w_") and name != "lstm.w_logits"


def _config_text(cfg: NetworkConfig, mode: str) -> str:
    conv = ";".join(f"{f}x{m}" for f, m in cfg.conv_layers)
    lines = [f"mode = {mode}",
             f"window_len = {cfg.window_len}",
             f"n_steps = {cfg.n_steps}",
             f"n_hidden = {cfg.n_hidden}",
             f"n_classes = {cfg.n_classes}",
             f"n_channels = {cfg.n_channels}",
             f"conv_layers = {conv}",
             f"use_cnn = {int(cfg.use_cnn)}",
             f"residual = {int(cfg.residual)}"]
    return "\n".join(lines) + "\n"


def parse_config_text(text: str) -> tuple[NetworkConfig, str]:
    kv = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            k, _, v = line.partition("=")
            kv[k.strip()] = v.strip()
    conv = tuple(tuple(int(x) for x in part.split("x"))
                 for part in kv["conv_layers"].split(";") if part)
    cfg = NetworkConfig(window_len=int(kv["window_len"]),
                        n_steps=int(kv["n_steps"]),
                        n_hidden=int(kv["n_hidden"]),
                        n_classes=int(kv["n_classes"]),
                        n_channels=int(kv.get("n_channels", 1)),
                        conv_layers=conv,
                        use_cnn=bool(int(kv.get("use_cnn", 1))),
                        residual=bool(int(kv.get("residual", 1))))
    return cfg, kv.get("mode", "full")


def load_network(model_dir) -> tuple[NetworkParams, NetworkConfig, str]:
    """Read a saved network; quantized tensors come back as float codes."""
    mdir = Path(model_dir)
    cfg, mode = parse_config_text((mdir / "config.txt").read_text())
    arrays = {}
    for line in (mdir / "params.manifest").read_text().splitlines():
        name, dtype, shape_csv, fname = line.split("\t")
        shape = tuple(int(s) for s in shape_csv.split(","))
        buf = (mdir / fname).read_bytes()
        if dtype == "int2":
            arrays[name] = quant.unpack_codes(buf, shape).astype(np.float64)
        else:
            arrays[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    conv = []
    for i in range(len(cfg.conv_layers)):
        if f"conv{i}.weights" not in arrays:
            break
        conv.append(ConvLayerParams(arrays[f"conv{i}.weights"], arrays[f"conv{i}.bias"]))
    fc = FcParams(arrays["fc.weights"]) if "fc.weights" in arrays else None
    lstm = LstmParams(
        w_forget=arrays["lstm.w_forget"], w_input=arrays["lstm.w_input"],
        w_output=arrays["lstm.w_output"], w_cell=arrays["lstm.w_cell"],
        b_forget=arrays["lstm.b_forget"], b_input=arrays["lstm.b_input"],
        b_output=arrays["lstm.b_output"], b_cell=arrays["lstm.b_cell"],
        w_logits=arrays["lstm.w_logits"], b_logits=arrays["lstm.b_logits"])
    return NetworkParams(conv, fc, lstm), cfg, mode
