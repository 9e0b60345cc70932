"""Network parameters, the fixed-point engine and model directories.

`network_forward_fixed` is the one fixed-point engine: batched, BLAS-backed,
every intermediate in the activation Q-format; the cycle simulator in `fsm`
takes its numerics from it. Its products run in float32 where the fan-in
keeps them exact there, else in float64, else raise `ValueError` (see
`fxp._exact_product`); the input half of the gate product runs once over all
windows before the recurrence. A step reads all four gates with one gather
from direct-address tables (`_lut`, one entry per raw code, so formats wider
than `fxp.DIRECT_LUT_MAX_BITS` (16) bits are a `ValueError`), tanh(c) with
one more, and updates c and h by `fxp.mul_add_fixed` and `fxp.mul_fixed`.
The float engine lives in `train`, which trains and evaluates with it.

The four LSTM gate matrices are fused into one input-major matrix of shape
(n_hidden + input_len, 4 * n_hidden), gates in `quant.GATE_ORDER`, so a step
computes [h, window] @ gates + gate_bias. `named_tensors` names every tensor
once and `network_tensors` what a `mode` network computes with, the tensors
the float engine reads and `save_network` writes; model directories keep one
file per gate, split at the file boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import datagen, fxp, quant
from .fxp import QFormat

__all__ = [
    "ConvLayerParams",
    "LstmParams",
    "NetworkConfig",
    "NetworkParams",
    "named_tensors",
    "network_tensors",
    "is_quantized",
    "is_bias",
    "im2col",
    "network_forward_fixed",
    "softmax",
    "save_network",
    "load_network",
]


@dataclass
class ConvLayerParams:
    """One 1-D convolution layer: weights (filters, depth, width), bias (filters,)."""

    weights: np.ndarray
    bias: np.ndarray


@dataclass
class LstmParams:
    """Fused gates (n_hidden + input_len, 4 n_hidden) and their bias, output layer."""

    gates: np.ndarray
    gate_bias: np.ndarray  # (4 n_hidden,)
    w_logits: np.ndarray  # (n_hidden, n_classes)
    b_logits: np.ndarray

    def gate_weights(self) -> dict:
        """Gate name -> (n_hidden + input_len, n_hidden) column view."""
        return dict(zip(quant.GATE_ORDER, np.split(self.gates, 4, axis=1)))

    def gate_biases(self) -> dict:
        return dict(zip(quant.GATE_ORDER, np.split(self.gate_bias, 4)))


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
        if self.n_classes < 2:
            raise ValueError(f"n_classes = {self.n_classes}; a classifier "
                             "needs at least 2 classes")
        if any(len(layer) != 2 or min(layer) < 1 for layer in self.conv_layers):
            raise ValueError("conv_layers must be (filters, width) pairs >= 1")
        if self.use_cnn and not self.conv_layers:
            raise ValueError("use_cnn = 1 needs at least one conv_layers pair")

    @property
    def input_len(self) -> int:
        """Length of the flattened window fed to the LSTM."""
        return self.n_channels * self.window_len

    @property
    def fc_input_len(self) -> int:
        f_last = self.conv_layers[-1][0]
        return f_last * self.window_len

    def conv_shapes(self) -> list:
        """(depth, filters, width) per conv layer; empty without a CNN."""
        if not self.use_cnn:
            return []
        depths = [self.n_channels] + [f for f, _ in self.conv_layers[:-1]]
        return [(d, f, m) for d, (f, m) in zip(depths, self.conv_layers)]


@dataclass
class NetworkParams:
    conv: list = field(default_factory=list)
    # fully connected map from the flattened feature maps to the window,
    # (input_len, n_filters * window_len); None without a CNN
    fc: np.ndarray | None = None
    lstm: LstmParams | None = None


def named_tensors(params: NetworkParams) -> dict:
    """Every tensor under one name: the trainer's keys for grads and state."""
    out = {}
    for i, layer in enumerate(params.conv):
        out[f"conv{i}.weights"] = layer.weights
        out[f"conv{i}.bias"] = layer.bias
    if params.fc is not None:
        out["fc.weights"] = params.fc
    p = params.lstm
    out.update({"lstm.gates": p.gates, "lstm.gate_bias": p.gate_bias,
                "lstm.w_logits": p.w_logits, "lstm.b_logits": p.b_logits})
    return out


def is_quantized(name: str) -> bool:
    """Gates and CNN kernels take codes; FC and output layers stay full precision."""
    return name == "lstm.gates" or \
        name.startswith("conv") and name.endswith(".weights")


def is_bias(name: str) -> bool:
    return name.endswith("bias") or name == "lstm.b_logits"


def network_tensors(params: NetworkParams, mode: str,
                    out: dict | None = None) -> dict:
    """The tensors a `mode` network computes with, keyed as `named_tensors`:
    the gates and CNN kernels as codes and, in binary/ternary modes, every
    bias zero (the accelerator has no bias stage).

    `out`, what an earlier call returned for the same `params` and `mode`,
    takes the current codes in place and is returned.
    """
    tensors = named_tensors(params)
    if mode == "full":
        return tensors
    if out is None:
        out = {name: np.empty_like(w) if is_quantized(name) else
               np.zeros_like(w) if is_bias(name) else w
               for name, w in tensors.items()}
    for name, w in tensors.items():
        if is_quantized(name):
            quant.quantize_weights(w, mode, out=out[name])
    return out


def im2col(maps, m: int, out=None) -> np.ndarray:
    """(N, depth, length) maps -> (N * length, depth * m) conv patches,
    written to `out` when given.

    Zero padding keeps the length: symmetric, one extra on the right when
    the width is even. Row n * length + position, column d * m + a holds
    padded map d of window n at position + a.
    """
    n, depth, length = maps.shape
    left = (m - 1) // 2
    padded = np.zeros((n, depth, length + m - 1), dtype=maps.dtype)
    padded[:, :, left:left + length] = maps
    if out is None:
        out = np.empty((n * length, depth * m), dtype=maps.dtype)
    taps = out.reshape(n, length, depth, m)
    for a in range(m):
        taps[..., a] = padded[:, :, a:a + length].transpose(0, 2, 1)
    return out


def softmax(logits) -> np.ndarray:
    """Max-stabilized softmax."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# The fixed-point engine
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _lut(size: int, fmt: QFormat) -> np.ndarray:
    """The direct-address sigmoid and tanh tables at `fmt`, concatenated.

    Entry k of each half holds the `size`-entry table's value, requantized
    to `fmt`, for the raw code whose low total_bits bits are k, so an input
    saturated to `fmt` reads its sigmoid at raw & mask and its tanh at
    2**total_bits + (raw & mask). Built once per key.
    """
    if fmt.total_bits > fxp.DIRECT_LUT_MAX_BITS:
        raise ValueError(f"activation format {fmt} is {fmt.total_bits} bits "
                         "wide; the direct-address tables take at most "
                         f"{fxp.DIRECT_LUT_MAX_BITS}")
    n = 1 << fmt.total_bits
    codes = np.arange(n)
    codes[n // 2:] -= n  # position k holds the two's-complement code k
    halves = []
    for kind in ("sigmoid", "tanh"):
        table = fxp.build_lut(kind, size)
        halves.append(fxp.lut_entries_in(table, fmt)[
            fxp.lut_index_raw(codes, table, fmt)])
    out = np.concatenate(halves)
    out.flags.writeable = False
    return out


def network_forward_fixed(windows_raw, qnet: quant.QuantizedNetwork,
                          cfg: NetworkConfig,
                          fmt: QFormat = fxp.ACT_FORMAT,
                          lut_size: int = fxp.LUT_SIZE) -> np.ndarray:
    """Bit-accurate forward pass over raw activation codes.

    `windows_raw` is (n_steps, input_len) or a batch (B, n_steps, input_len);
    returns raw logit codes, (n_steps, n_classes) or (B, n_steps, n_classes).
    Every stored intermediate is saturated/requantized to `fmt`, and the
    nonlinearities read `lut_size`-entry tables through their direct-address
    form (`_lut`), so `fmt` may be at most `fxp.DIRECT_LUT_MAX_BITS` wide.
    Weights at another scale (`qnet.weight_format`) are a `ValueError`.
    """
    x = np.asarray(windows_raw, dtype=np.int64)
    if x.ndim not in (2, 3) or x.shape[-2:] != (cfg.n_steps, cfg.input_len):
        raise ValueError(f"expected windows {(cfg.n_steps, cfg.input_len)} "
                         f"or a batch of them, got {x.shape}")
    if qnet.weight_format.frac_bits != fmt.frac_bits:
        raise ValueError(f"weights in {qnet.weight_format} and a datapath in "
                         f"{fmt} differ in scale")
    lut = _lut(lut_size, fmt)
    # states 1-2 do not depend on the recurrent state: all windows at once
    v = x.reshape(-1, cfg.input_len)
    if cfg.use_cnn:
        maps = v.reshape(len(v), cfg.n_channels, cfg.window_len)
        for codes in qnet.conv_codes:
            maps = _conv_relu_fixed(maps, codes, fmt)
        p = fxp.dot_fixed(maps.reshape(len(v), -1), qnet.fc_raw.T, fmt=fmt)
        v = fxp.sat_add(v, p, fmt) if cfg.residual else p
    n_h = cfg.n_hidden
    # the input half of every step's gate product, for all windows at once;
    # each step adds its row, exact and unsaturated, to the recurrent half,
    # and dot_ternary saturates the sum once
    x_part = fxp.ternary_acc(v, qnet.gates[n_h:], fmt).reshape(
        -1, cfg.n_steps, 4 * n_h)
    w_h = qnet.gates[:n_h]
    mask = (1 << fmt.total_bits) - 1
    tanh_lut = lut[mask + 1:]
    # forget, input and output read the sigmoid half, the cell gate the tanh
    offsets = np.repeat([0, mask + 1], [3 * n_h, n_h])
    h = c = np.zeros((len(x_part), n_h), dtype=np.int64)
    hs = np.empty((len(x_part), cfg.n_steps, n_h), dtype=np.int64)
    for t in range(cfg.n_steps):
        # the saturated gate sums, turned into table positions in place
        idx = fxp.dot_ternary(h, w_h, x_part[:, t], fmt)
        idx &= mask
        idx += offsets
        g = lut.take(idx)  # all four gates, in quant.GATE_ORDER
        g_forget, g_input = g[:, :n_h], g[:, n_h:2 * n_h]
        g_output, g_cell = g[:, 2 * n_h:3 * n_h], g[:, 3 * n_h:]
        c = fxp.mul_add_fixed(g_forget, c, g_cell, g_input, fmt)
        h = hs[:, t] = fxp.mul_fixed(g_output, tanh_lut.take(c & mask), fmt)
    logits = fxp.dot_fixed(hs.reshape(-1, n_h), qnet.logits_raw, fmt=fmt)
    return logits.reshape(x.shape[:-1] + (cfg.n_classes,))


def _conv_relu_fixed(maps_raw, codes, fmt: QFormat) -> np.ndarray:
    """Conv + ReLU in fixed point over (N, depth, length) maps, one product."""
    f, depth, m = codes.shape
    n, _, length = maps_raw.shape
    # ternary taps keep the activation scale; saturating before the ReLU
    # equals the ReLU followed by a clip at raw_max
    acc = fxp.dot_ternary(im2col(maps_raw, m), codes.reshape(f, depth * m).T,
                          fmt=fmt)
    np.maximum(acc, 0, out=acc)
    return acc.reshape(n, length, f).transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# Serialization: directory of flat binary arrays plus a text manifest.
# Manifest line: name<TAB>dtype<TAB>shape-csv<TAB>filename
# ---------------------------------------------------------------------------

def _file_tensors(tensors: dict):
    """(name, array, quantized) per stored file: gates and biases per gate."""
    for name, arr in tensors.items():
        if name == "lstm.gates":
            weights = np.split(arr, 4, axis=1)
            biases = np.split(tensors["lstm.gate_bias"], 4)
            for gate, w, b in zip(quant.GATE_ORDER, weights, biases):
                yield f"lstm.w_{gate}", w, True
                yield f"lstm.b_{gate}", b, False
        elif name != "lstm.gate_bias":
            yield name, arr, is_quantized(name)


def save_network(out_dir, params: NetworkParams, cfg: NetworkConfig,
                 mode: str = "full") -> None:
    """Write `network_tensors(params, mode)` to `out_dir`; a non-finite
    tensor is a `ValueError`, raised before anything is written."""
    for name, arr in named_tensors(params).items():
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} holds a non-finite value; the network "
                             "is not saved")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for name, arr, quantized in _file_tensors(network_tensors(params, mode)):
        fname = name.replace(".", "_") + ".bin"
        if mode != "full" and quantized:
            (out / fname).write_bytes(quant.pack_codes(arr))
            dtype = "int2"
        else:
            (out / fname).write_bytes(arr.astype("<f8").tobytes())
            dtype = "float64"
        shape = ",".join(str(s) for s in arr.shape)
        manifest.append(f"{name}\t{dtype}\t{shape}\t{fname}")
    (out / "params.manifest").write_text("\n".join(manifest) + "\n")
    datagen.write_kv(out / "config.txt", {"mode": mode, **vars(cfg)})


def load_network(model_dir) -> tuple[NetworkParams, NetworkConfig, str]:
    """Read a saved network; quantized tensors come back as float codes."""
    mdir = Path(model_dir)
    kv = datagen.read_kv(mdir / "config.txt")
    cfg = datagen.read_record(NetworkConfig, kv, mdir / "config.txt")
    mode = kv.get("mode", "full")
    stored = {}  # int64 codes or read-only float64 views of the file bytes
    for line in (mdir / "params.manifest").read_text().splitlines():
        name, dtype, shape_csv, fname = line.split("\t")
        shape = tuple(int(s) for s in shape_csv.split(","))
        buf = (mdir / fname).read_bytes()
        stored[name] = quant.unpack_codes(buf, shape) if dtype == "int2" else \
            np.frombuffer(buf, dtype="<f8").reshape(shape)

    def take(name):
        return np.array(stored[name], dtype=np.float64)

    conv = []
    for i in range(len(cfg.conv_layers)):
        if f"conv{i}.weights" not in stored:
            break
        conv.append(ConvLayerParams(take(f"conv{i}.weights"), take(f"conv{i}.bias")))
    fc = take("fc.weights") if "fc.weights" in stored else None
    # the gate files are copied straight into their column blocks
    w_first = stored[f"lstm.w_{quant.GATE_ORDER[0]}"]
    lstm = LstmParams(np.empty((len(w_first), 4 * w_first.shape[1])),
                      np.empty(4 * w_first.shape[1]),
                      take("lstm.w_logits"), take("lstm.b_logits"))
    weights, biases = lstm.gate_weights(), lstm.gate_biases()
    for gate in quant.GATE_ORDER:
        weights[gate][:] = stored[f"lstm.w_{gate}"]
        biases[gate][:] = stored[f"lstm.b_{gate}"]
    return NetworkParams(conv, fc, lstm), cfg, mode
