"""Network parameters, the fixed-point engine and model directories.

`network_forward_fixed` is the one fixed-point engine: batched, BLAS-backed,
every intermediate in the activation Q-format; the cycle simulator in `fsm`
takes its numerics from it. Nothing in it is int64 but the logits it
returns: exact integer codes ride in float types throughout.

* Products run in float32 where the fan-in keeps them exact there, else in
  float64, else raise `ValueError` (see `fxp._exact_product`); conv maps
  and gate sums keep their codes in the type their product ran in.
* The windows, the direct-address tables, FC, cell, hidden and logit codes
  are in `fxp.code_dtype(fmt)`, the type the requantizing primitives
  compute in: float32 for formats up to 12 bits (Q4.8 products and their
  pairwise sums stay within 2**23), float64 up to 16 (the widest format
  with a table).
* The input half of the gate product runs once over all windows before
  the recurrence, in the type the fused fan-in (n_hidden + input_len)
  picks, so each step adds its recurrent half exactly; step 0, whose h and
  c are zero, has no recurrent product and no forget term.
* A step turns its saturated gate sums into positions in direct-address
  tables (`_lut`, one entry per raw code in natural order, so formats wider
  than `fxp.DIRECT_LUT_MAX_BITS` (16) bits are a `ValueError`) with one
  add, reads all four gates with one gather and tanh(c) with one more, and
  updates c and h by `fxp.mul_add_fixed` and `fxp.mul_fixed`, all into
  buffers allocated once per call.

The float engine lives in `train`, which trains and evaluates with it.

With a CNN, states 1-2 are conv + ReLU per layer, then the FC projection
back to the window's length, to which the window itself is added (the
residual add); without one the window feeds the LSTM directly.

The four LSTM gate matrices are fused into one input-major matrix of shape
(n_hidden + input_len, 4 * n_hidden), gates in `quant.GATE_ORDER`, so a step
computes [h, window] @ gates + gate_bias. A network's parameters are one
dict, tensor name -> array, laid out by one table of names, shapes and
order, `NetworkConfig.tensor_shapes`: `train.init_params` allocates from it
and `load_network` checks a model directory against it. `network_tensors`
gives what a `mode` network computes with, the tensors the float engine
reads and `save_network` writes; model directories keep one file per gate
(`lstm.w_<gate>`, `lstm.b_<gate>`), split at the file boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import datagen, fxp, quant
from .fxp import QFormat

__all__ = [
    "NetworkConfig",
    "network_tensors",
    "im2col",
    "network_forward_fixed",
    "softmax",
    "save_network",
    "load_network",
]


@dataclass(frozen=True)
class NetworkConfig:
    window_len: int
    n_steps: int
    n_hidden: int
    n_classes: int
    n_channels: int = 1
    conv_layers: tuple = ((10, 5), (30, 3))  # (filters, width) per layer
    use_cnn: bool = True

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

    def tensor_shapes(self) -> dict:
        """Tensor name -> shape in the parameter dict's order, also the
        weights' draw order; the fused gate tensors hold one block per gate
        in `quant.GATE_ORDER` along their last axis."""
        shapes = {}
        for i, (depth, f, m) in enumerate(self.conv_shapes()):
            shapes[f"conv{i}.weights"] = (f, depth, m)
            shapes[f"conv{i}.bias"] = (f,)
        if self.use_cnn:
            shapes["fc.weights"] = (self.input_len, self.fc_input_len)
        n_h = self.n_hidden
        shapes["lstm.gates"] = (n_h + self.input_len, 4 * n_h)
        shapes["lstm.gate_bias"] = (4 * n_h,)
        shapes["lstm.w_logits"] = (n_h, self.n_classes)
        shapes["lstm.b_logits"] = (self.n_classes,)
        return shapes


def network_tensors(params: dict, mode: str, out: dict | None = None) -> dict:
    """The tensors a `mode` network computes with, keyed as `params`: in
    binary/ternary modes the gates and CNN kernels as float64 codes,
    whatever the shadows' type, and every bias zero (the accelerator has no
    bias stage); in full mode `params` itself.

    `out`, what an earlier call returned for the same `params` and `mode`,
    takes the current codes in place and is returned.
    """
    if mode == "full":
        return params
    if out is None:
        out = {name: np.empty(w.shape) if quant.is_quantized(name) else
               np.zeros_like(w) if quant.is_bias(name) else w
               for name, w in params.items()}
    for name, w in params.items():
        if quant.is_quantized(name):
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
    """The direct-address sigmoid and tanh tables at `fmt`, concatenated, in
    `fxp.code_dtype(fmt)`.

    Each half holds the `size`-entry table's values, requantized to `fmt`,
    for every code of `fmt` in natural order, so an input saturated to
    `fmt` reads its sigmoid at raw - raw_min and its tanh at
    2**total_bits + raw - raw_min. Built once per key.
    """
    if fmt.total_bits > fxp.DIRECT_LUT_MAX_BITS:
        raise ValueError(f"activation format {fmt} is {fmt.total_bits} bits "
                         "wide; the direct-address tables take at most "
                         f"{fxp.DIRECT_LUT_MAX_BITS}")
    codes = np.arange(fmt.raw_min, fmt.raw_max + 1)
    halves = []
    for kind in ("sigmoid", "tanh"):
        table = fxp.build_lut(kind, size)
        halves.append(fxp.lut_entries_in(table, fmt)[
            fxp.lut_index_raw(codes, table, fmt)])
    out = np.concatenate(halves).astype(fxp.code_dtype(fmt))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def _gate_offsets(n_hidden: int, fmt: QFormat, dtype) -> np.ndarray:
    """What turns the saturated gate sums of one step into `_lut` positions:
    forget, input and output read the sigmoid half, the cell gate the tanh
    half. In the gate sums' float type, so one add makes the positions."""
    out = np.repeat(np.array([0, 1 << fmt.total_bits], dtype=dtype) -
                    fmt.raw_min, [3 * n_hidden, n_hidden])
    out.flags.writeable = False
    return out


def network_forward_fixed(windows_raw, qnet: quant.QuantizedNetwork,
                          cfg: NetworkConfig,
                          fmt: QFormat = fxp.ACT_FORMAT,
                          lut_size: int = fxp.LUT_SIZE) -> np.ndarray:
    """Bit-accurate forward pass over raw activation codes.

    `windows_raw` is (n_steps, input_len) or a batch (B, n_steps, input_len);
    returns raw int64 logit codes, (n_steps, n_classes) or
    (B, n_steps, n_classes). Every stored intermediate is
    saturated/requantized to `fmt`, and the nonlinearities read
    `lut_size`-entry tables through their direct-address form (`_lut`), so
    `fmt` may be at most `fxp.DIRECT_LUT_MAX_BITS` wide. Weights at another
    scale (`qnet.weight_format`) are a `ValueError`.
    """
    x = np.asarray(windows_raw)
    if x.ndim not in (2, 3) or x.shape[-2:] != (cfg.n_steps, cfg.input_len):
        raise ValueError(f"expected windows {(cfg.n_steps, cfg.input_len)} "
                         f"or a batch of them, got {x.shape}")
    if qnet.weight_format.frac_bits != fmt.frac_bits:
        raise ValueError(f"weights in {qnet.weight_format} and a datapath in "
                         f"{fmt} differ in scale")
    lut = _lut(lut_size, fmt)
    # states 1-2 do not depend on the recurrent state: all windows at once
    v = x.reshape(-1, cfg.input_len).astype(lut.dtype)
    if cfg.use_cnn:
        maps = v.reshape(len(v), cfg.n_channels, cfg.window_len)
        for codes in qnet.conv_codes:
            maps = _conv_relu_fixed(maps, codes, fmt)
        p = fxp.dot_fixed(maps.reshape(len(v), -1), qnet.fc_raw.T, fmt=fmt)
        v = fxp.sat_add(v, p, fmt, out=p)
    n_h = cfg.n_hidden
    # a step's gate sum [h, window] @ gates is exact in the float type its
    # fused fan-in picks, so the input half, run once for all windows, and
    # the recurrent half of each step add up exactly there
    dtype = fxp._product_dtype(len(qnet.gates), fmt.total_bits - 1)
    x_part = fxp.ternary_acc(v.astype(dtype, copy=False), qnet.gates[n_h:],
                             fmt).reshape(-1, cfg.n_steps, 4 * n_h)
    w_h = qnet.gates[:n_h]
    offsets = _gate_offsets(n_h, fmt, dtype)
    tanh_base = (1 << fmt.total_bits) - fmt.raw_min
    # one set of buffers for the whole call; g's gate views follow
    # quant.GATE_ORDER. The positions are in range, so the gathers need no
    # bounds check ("clip" mode)
    batch = len(x_part)
    pos = np.empty((batch, 4 * n_h), dtype=np.intp)
    g = np.empty((batch, 4 * n_h), dtype=lut.dtype)
    g_forget, g_input, g_output, g_cell = (
        g[:, k * n_h:(k + 1) * n_h] for k in range(4))
    c = np.empty((batch, n_h), dtype=lut.dtype)
    c_pos = np.empty((batch, n_h), dtype=np.intp)
    tanh_c = np.empty((batch, n_h), dtype=lut.dtype)
    hs = np.empty((batch, cfg.n_steps, n_h), dtype=lut.dtype)
    for t in range(cfg.n_steps):
        # h and c start at zero: step 0 has no recurrent product and no
        # forget term, and saturates its input row in place
        s = fxp.dot_ternary(h, w_h, x_part[:, t], fmt) if t else \
            fxp.saturate(x_part[:, 0], fmt)
        np.add(s, offsets, out=pos, casting="unsafe")
        lut.take(pos, out=g, mode="clip")
        if t:
            fxp.mul_add_fixed(g_forget, c, g_cell, g_input, fmt, out=c)
        else:
            fxp.mul_fixed(g_cell, g_input, fmt, out=c)
        np.add(c, tanh_base, out=c_pos, casting="unsafe")
        lut.take(c_pos, out=tanh_c, mode="clip")
        h = fxp.mul_fixed(g_output, tanh_c, fmt, out=hs[:, t])
    logits = fxp.dot_fixed(hs.reshape(-1, n_h), qnet.logits_raw, fmt=fmt)
    return logits.astype(np.int64).reshape(x.shape[:-1] + (cfg.n_classes,))


def _conv_relu_fixed(maps_raw, codes, fmt: QFormat) -> np.ndarray:
    """Conv + ReLU in fixed point over (N, depth, length) float maps of raw
    codes, one product; the maps come back in the product's float type."""
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
    """(name, view, quantized) per stored file, in the manifest's order:
    the fused gate tensors as each gate's weights, then its bias."""
    for name, arr in tensors.items():
        if name == "lstm.gates":
            weights = np.split(arr, 4, axis=1)
            biases = np.split(tensors["lstm.gate_bias"], 4)
            for gate, w, b in zip(quant.GATE_ORDER, weights, biases):
                yield f"lstm.w_{gate}", w, True
                yield f"lstm.b_{gate}", b, False
        elif name != "lstm.gate_bias":
            yield name, arr, quant.is_quantized(name)


def save_network(out_dir, params: dict, cfg: NetworkConfig,
                 mode: str = "full") -> None:
    """Write `network_tensors(params, mode)` to `out_dir`; a non-finite
    tensor is a `ValueError`, raised before anything is written."""
    for name, arr in params.items():
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


def _read_tensor(path: Path, name: str, dtype: str, shape: tuple,
                 mode: str) -> np.ndarray:
    """One manifest entry's file as a new array: int2 files as float32
    codes, float64 files as float64. A byte length that does not fit
    `shape`, a non-finite float64 value, a 0b10 field and a 0 code in a
    binary network are `DataFormatError`s naming the file."""
    n = int(np.prod(shape))
    sizes = {"int2": (n + 3) // 4, "float64": 8 * n}
    if dtype not in sizes:
        raise datagen.DataFormatError(f"{path}: {name} has dtype {dtype!r}; "
                                      "expected int2 or float64")
    buf = path.read_bytes()
    if len(buf) != sizes[dtype]:
        raise datagen.DataFormatError(
            f"{path}: {len(buf)} bytes, but {name}, {dtype} of shape "
            f"{shape}, takes {sizes[dtype]}")
    if dtype == "float64":
        values = np.frombuffer(buf, dtype="<f8")
        if not np.isfinite(values).all():
            raise datagen.DataFormatError(f"{path}: {name} holds a non-finite "
                                          "value")
        return values.astype(np.float64).reshape(shape)
    try:
        codes = quant.unpack_codes(buf, shape)
    except ValueError as exc:
        raise datagen.DataFormatError(f"{path}: {exc}") from None
    if mode == "binary" and not codes.all():
        raise datagen.DataFormatError(f"{path}: {name} holds a 0 code; binary "
                                      "codes are -1 and +1")
    return codes


def load_network(model_dir) -> tuple[dict, NetworkConfig, str]:
    """Read a saved network, the tensors its `config.txt` asks for, as the
    parameter dict `train.init_params` builds.

    Packed (int2) tensors come back as float32 codes, and the fused gates
    are float32 when their files are packed; float64 files come back as
    float64. A `residual` key other than 1 (older directories record the
    add, which every network has), a mode outside `quant.MODES`, a manifest
    shape that is not integers, a tensor the manifest lacks or of another
    shape than `NetworkConfig.tensor_shapes` gives it (every gate file a
    quarter of the fused entry's columns), a file `_read_tensor` rejects and
    a tensor the network does not use are `DataFormatError`s naming the
    file, and the key, line or tensor; of several, the first in the table's
    order.
    """
    mdir = Path(model_dir)
    config = mdir / "config.txt"
    kv = datagen.read_kv(config)
    if kv.get("residual", "1") != "1":
        raise datagen.DataFormatError(
            f"{config}: residual = {kv['residual']}; the network always adds "
            "the window to the FC output")
    cfg = datagen.read_record(NetworkConfig, kv, config)
    mode = kv.get("mode", "full")
    if mode not in quant.MODES:
        raise datagen.DataFormatError(f"{config}: mode = {mode} is not one of "
                                      f"{', '.join(quant.MODES)}")
    manifest = mdir / "params.manifest"
    stored = {}
    for ln, line in enumerate(manifest.read_text().splitlines(), start=1):
        entry = line.split("\t")
        if len(entry) != 4:
            raise datagen.DataFormatError(
                f"{manifest}:{ln}: expected name, dtype, shape and file "
                f"separated by tabs, got {line!r}")
        name, dtype, shape_csv, fname = entry
        try:
            shape = tuple(int(s) for s in shape_csv.split(","))
        except ValueError:
            raise datagen.DataFormatError(
                f"{manifest}:{ln}: {name} has shape {shape_csv!r}; expected "
                "integers separated by commas") from None
        stored[name] = _read_tensor(mdir / fname, name, dtype, shape, mode)

    def take(name, shape):
        if name not in stored:
            raise datagen.DataFormatError(
                f"{manifest}: no tensor {name}, which the network in "
                f"{config} needs")
        if stored[name].shape != shape:
            raise datagen.DataFormatError(
                f"{manifest}: {name} has shape {stored[name].shape}, but the "
                f"network in {config} needs {shape}")
        return stored.pop(name)

    per_gate = {"lstm.gates": "lstm.w_", "lstm.gate_bias": "lstm.b_"}
    params = {}
    for name, shape in cfg.tensor_shapes().items():
        if name in per_gate:  # four files, a quarter of the columns each
            block = shape[:-1] + (shape[-1] // 4,)
            params[name] = np.concatenate([take(per_gate[name] + gate, block)
                                           for gate in quant.GATE_ORDER],
                                          axis=-1)
        else:
            params[name] = take(name, shape)
    if stored:  # say, CNN files under a config.txt with use_cnn = 0
        raise datagen.DataFormatError(f"{manifest}: {next(iter(stored))} is "
                                      f"no tensor of the network in {config}")
    return params, cfg, mode
