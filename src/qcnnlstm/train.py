"""Backprop-through-time trainer: replicated targets, Adagrad, clipping.

The same class label is applied at every step and the per-step cross-entropy
losses are averaged; test-time prediction uses only the final step. The
forward pass reads `model.network_tensors`; binary/ternary runs route the
code gradients to the full-precision shadow weights through the
straight-through estimator and leave the biases at zero, so their bias
gradients are never computed.

Every entry takes its windows, an array (B, q, U) or a list of (q, U)
arrays, through `_time_major`: one shape check, one time-major copy.

`train()` owns per-call workspaces: the codes, the forward and backward
buffers (`_Workspace`) and Adagrad's step arrays (`AdagradState`) are
allocated once per call and reused by every batch and every per-epoch
evaluation, and the test windows are stacked once. Allocated fresh for every
batch, arrays of these sizes come back as new pages from the operating
system, and those page faults took about a fifth of the training time.
Nothing outlives the call, and no float sum changes its order: the traces
and the trained tensors are bit-identical to allocating fresh arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fxp, quant
from .model import (NetworkConfig, _file_tensors, im2col, network_tensors,
                    softmax)

__all__ = [
    "TrainConfig",
    "AdagradState",
    "TrainResult",
    "forward_logits",
    "batch_loss_and_grads",
    "sequence_loss_and_grads",
    "adagrad_step",
    "init_params",
    "train",
    "predict_probs",
    "auc_macro",
    "confusion_matrix",
    "write_trace",
]


CLIP_LIMIT = 5.0  # gradients are clipped to [-CLIP_LIMIT, CLIP_LIMIT]
ADAGRAD_EPSILON = 1e-8
ADAGRAD_BLOCK = 1 << 15  # elements per Adagrad update block (256 KiB of float64)


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 50
    batch_size: int = 32
    init_scale: float = 0.01
    seed: int = 0
    mode: str = "full"  # full | ternary | binary

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if min(self.epochs, self.batch_size) < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.init_scale < 0:
            raise ValueError("init_scale must not be negative")
        if self.mode not in quant.MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class AdagradState:
    """Per tensor: the sum of squared gradients and a one-block step workspace."""

    acc: dict = field(default_factory=dict)
    step: dict = field(default_factory=dict)


@dataclass
class TrainResult:
    params: dict  # tensor name -> array, as `init_params` builds it
    loss_trace: np.ndarray
    accuracy_trace: np.ndarray


# ---------------------------------------------------------------------------
# Parameter plumbing
# ---------------------------------------------------------------------------

def init_params(cfg: NetworkConfig, seed: int = 0,
                init_scale: float = 0.01) -> dict:
    """The parameters `NetworkConfig.tensor_shapes` lists: weights uniform
    in [-init_scale, +init_scale], biases zero. Each weight is drawn per
    stored file (`model._file_tensors`), in the table's order: conv kernels,
    FC, each gate block in `quant.GATE_ORDER`, the output layer.
    """
    rng = np.random.default_rng(seed)
    params = {name: np.zeros(shape)
              for name, shape in cfg.tensor_shapes().items()}
    for name, w, _ in _file_tensors(params):
        if not quant.is_bias(name):
            w[...] = rng.uniform(-init_scale, init_scale, w.shape)
    return params


# ---------------------------------------------------------------------------
# The float engine: a batch of sequences, time-major inside. States 1-2 and
# the input half of the gate product run for all steps at once; only
# h @ gates[:n_hidden] stays in the recurrence. Backward keeps one
# dpre @ gates[:n_hidden].T per step and takes every weight gradient in one
# product over all steps.
# ---------------------------------------------------------------------------

class _Workspace:
    """Named float64 buffers that the batches of one call share.

    `take(name, shape)` returns the first prod(shape) elements of buffer
    `name` as a C-contiguous array, growing the buffer when a larger shape
    asks, so a short last batch and the evaluation batch reuse it too. Every
    caller writes what it takes before reading it.
    """

    def __init__(self):
        self._buffers = {}

    def take(self, name: str, shape) -> np.ndarray:
        size = math.prod(shape)
        if name not in self._buffers or self._buffers[name].size < size:
            self._buffers.pop(name, None)  # free the old buffer first
            self._buffers[name] = np.empty(size)
        return self._buffers[name][:size].reshape(shape)


def _forward(x, eff: dict, cfg: NetworkConfig, ws: _Workspace):
    """Time-major windows x (q, B, U) -> (logits (q, B, Ny), cache for backprop)."""
    q, b, _ = x.shape
    nh = cfg.n_hidden
    x = x.reshape(q * b, cfg.input_len)
    v, cnn = _cnn_forward(x, eff, cfg, ws) if cfg.use_cnn else (x, None)
    w = eff["lstm.gates"]
    gates = ws.take("gates", (q, b, 4 * nh))
    np.matmul(v, w[nh:], out=gates.reshape(q * b, 4 * nh))
    gates += eff["lstm.gate_bias"]
    sig, cell = gates[..., :3 * nh], gates[..., 3 * nh:]
    hs = ws.take("hs", (q + 1, b, nh))  # hs[t], cs[t]: the state step t reads
    cs = ws.take("cs", (q + 1, b, nh))
    hs[0] = cs[0] = 0.0
    gate_step = ws.take("gate_step", (b, 4 * nh))
    tanh_c = ws.take("tanh_c", (b, nh))
    for t in range(q):
        gates[t] += np.matmul(hs[t], w[:nh], out=gate_step)
        fxp.sigmoid(sig[t], out=sig[t])
        np.tanh(cell[t], out=cell[t])
        g_forget, g_input, g_output, g_cell = np.split(gates[t], 4, axis=1)
        np.multiply(g_forget, cs[t], out=cs[t + 1])
        cs[t + 1] += g_cell * g_input
        np.multiply(g_output, np.tanh(cs[t + 1], out=tanh_c), out=hs[t + 1])
    logits = hs[1:].reshape(q * b, nh) @ eff["lstm.w_logits"] + eff["lstm.b_logits"]
    return logits.reshape(q, b, -1), dict(v=v, gates=gates, hs=hs, cs=cs, cnn=cnn)


def _cnn_forward(x, eff: dict, cfg: NetworkConfig, ws: _Workspace):
    """States 1-2 for all (N, U) windows: conv + ReLU layers, FC, residual."""
    n, length = len(x), cfg.window_len
    maps = x.reshape(n, cfg.n_channels, length)
    cols, outs = [], []
    for i, (f, m) in enumerate(cfg.conv_layers):
        cols.append(im2col(maps, m, out=ws.take(
            f"cols{i}", (n * length, maps.shape[1] * m))))
        z = ws.take(f"outs{i}", (n * length, f))
        np.matmul(cols[-1], eff[f"conv{i}.weights"].reshape(f, -1).T, out=z)
        z += eff[f"conv{i}.bias"]
        outs.append(np.maximum(z, 0.0, out=z))
        maps = z.reshape(n, length, f).transpose(0, 2, 1)
    flat = ws.take("flat", (n, maps.shape[1] * length))
    np.copyto(flat.reshape(maps.shape), maps)
    p = flat @ eff["fc.weights"].T
    return (x + p if cfg.residual else p), dict(cols=cols, outs=outs, flat=flat)


def _backward(labels, eff: dict, cfg: NetworkConfig, logits, cache,
              ws: _Workspace, biases: bool):
    """Returns (mean loss over the batch, grads w.r.t. effective tensors);
    the bias gradients only when `biases`."""
    q, b, n_classes = logits.shape
    nh = cfg.n_hidden
    rows = np.arange(b)
    probs = softmax(logits)
    step_losses = -np.log(probs[:, rows, labels])  # (q, B)
    loss = float(step_losses.mean(axis=0).mean())
    weight = np.full(q, 1.0 / (q * b))  # the label is every step's target

    dlogits = probs
    dlogits[:, rows, labels] -= 1.0
    dlogits *= weight[:, None, None]
    dlogits = dlogits.reshape(q * b, n_classes)
    hs, cs, gates = cache["hs"], cache["cs"], cache["gates"]
    grads = {"lstm.w_logits": hs[1:].reshape(q * b, nh).T @ dlogits}
    if biases:
        grads["lstm.b_logits"] = dlogits.sum(axis=0)
    dh_out = ws.take("dh_out", (q, b, nh))
    np.matmul(dlogits, eff["lstm.w_logits"].T, out=dh_out.reshape(q * b, nh))

    g_forget, g_input, g_output, g_cell = np.split(gates, 4, axis=2)
    dpre = ws.take("dpre", gates.shape)
    d_forget, d_input, d_output, d_cellgate = np.split(dpre, 4, axis=2)
    # per step: the gates' derivatives (sigmoid', tanh' for the cell), as
    # the forward pass's gate_step; tanh(c) again; dh times dh/dc
    d_act = ws.take("gate_step", (b, 4 * nh))
    d_cell = d_act[:, 3 * nh:]
    tanh_c = ws.take("tanh_c", (b, nh))
    dc_step = ws.take("dc_step", (b, nh))
    w_h = eff["lstm.gates"][:nh]
    dh_carry = np.zeros((b, nh))
    dc = np.zeros((b, nh))
    for t in reversed(range(q)):
        dh = dh_out[t]
        dh += dh_carry
        np.tanh(cs[t + 1], out=tanh_c)
        np.multiply(dh, tanh_c, out=d_output[t])
        np.subtract(1.0, np.multiply(tanh_c, tanh_c, out=dc_step), out=dc_step)
        dc_step *= g_output[t]
        dc += np.multiply(dh, dc_step, out=dc_step)
        np.multiply(dc, cs[t], out=d_forget[t])
        np.multiply(dc, g_cell[t], out=d_input[t])
        np.multiply(dc, g_input[t], out=d_cellgate[t])
        dc *= g_forget[t]
        np.multiply(np.subtract(1.0, gates[t], out=d_act), gates[t], out=d_act)
        np.subtract(1.0, np.multiply(g_cell[t], g_cell[t], out=d_cell), out=d_cell)
        dpre[t] *= d_act
        if t:
            np.matmul(dpre[t], w_h.T, out=dh_carry)

    dpre = dpre.reshape(q * b, 4 * nh)
    # the recurrence above was the last reader of the gate activations
    dw = ws.take("gates", eff["lstm.gates"].shape)
    np.matmul(hs[:-1].reshape(q * b, nh).T, dpre, out=dw[:nh])
    np.matmul(cache["v"].T, dpre, out=dw[nh:])
    grads["lstm.gates"] = dw
    if biases:
        grads["lstm.gate_bias"] = dpre.sum(axis=0)
    if cfg.use_cnn:
        dv = dpre @ eff["lstm.gates"][nh:].T
        _cnn_backward(dv, cache["cnn"], eff, cfg, grads, ws, biases)
    return loss, grads


def _cnn_backward(dv, cache, eff: dict, cfg: NetworkConfig, grads: dict,
                  ws: _Workspace, biases: bool):
    n, length = len(dv), cfg.window_len
    # the residual add passes the gradient straight through to the FC output
    grads["fc.weights"] = dv.T @ cache["flat"]
    dflat = ws.take("dflat", cache["flat"].shape)
    dmaps = np.matmul(dv, eff["fc.weights"], out=dflat).reshape(n, -1, length)
    for i in reversed(range(len(cfg.conv_layers))):
        f, m = cfg.conv_layers[i]
        w = eff[f"conv{i}.weights"].reshape(f, -1)
        dz = ws.take(f"dz{i}", (n * length, f))
        np.copyto(dz.reshape(n, length, f), dmaps.transpose(0, 2, 1))
        dz *= cache["outs"][i] > 0
        grads[f"conv{i}.weights"] = (dz.T @ cache["cols"][i]).reshape(f, -1, m)
        if biases:
            grads[f"conv{i}.bias"] = dz.sum(axis=0)
        if i:
            dcols = np.matmul(dz, w, out=ws.take("dcols", (n * length, w.shape[1])))
            dmaps = _col2im(dcols, n, length, m, ws)


def _col2im(dcols, n: int, length: int, m: int, ws: _Workspace) -> np.ndarray:
    """Adjoint of `model.im2col`: (N * length, depth * m) -> (N, depth, length)."""
    dcols = dcols.reshape(n, length, -1, m)
    left = (m - 1) // 2
    dpad = ws.take("dpad", (n, dcols.shape[2], length + m - 1))
    dpad.fill(0.0)
    for a in range(m):
        dpad[:, :, a:a + length] += dcols[..., a].transpose(0, 2, 1)
    return dpad[:, :, left:left + length]


def _time_major(windows, net_cfg: NetworkConfig) -> np.ndarray:
    """The float engine's layout of a batch of (q, U) windows, an array
    (B, q, U) or a list of (q, U) arrays: a new float64 array (q, B, U).
    Raises unless every window is (q, U) as `net_cfg` has it."""
    want = (net_cfg.n_steps, net_cfg.input_len)
    shapes = {np.shape(w) for w in windows}
    if shapes != {want}:
        raise ValueError(f"expected windows (B, {want[0]}, {want[1]}), got "
                         f"{len(windows)} of shapes {sorted(shapes)}")
    return np.stack(windows, axis=1, dtype=np.float64)


def forward_logits(params: dict, windows, net_cfg: NetworkConfig,
                   mode: str = "full") -> np.ndarray:
    """Float logits (B, q, n_classes) of a batch of windows (B, q, U)."""
    logits, _ = _forward(_time_major(windows, net_cfg),
                         network_tensors(params, mode), net_cfg, _Workspace())
    return logits.transpose(1, 0, 2)


def batch_loss_and_grads(windows, labels, params: dict,
                         net_cfg: NetworkConfig, cfg: TrainConfig):
    """Mean loss and shadow-weight gradients for windows (B, q, U)."""
    return _loss_and_grads(_time_major(windows, net_cfg), np.asarray(labels),
                           params, network_tensors(params, cfg.mode), net_cfg,
                           cfg.mode, _Workspace())


def _loss_and_grads(x, labels, params: dict, eff: dict,
                    net_cfg: NetworkConfig, mode: str, ws: _Workspace):
    logits, cache = _forward(x, eff, net_cfg, ws)
    loss, grads = _backward(labels, eff, net_cfg, logits, cache, ws,
                            biases=mode == "full")
    if mode != "full":  # code gradients reach the shadows through the STE
        grads = {name: quant.ste_backward(g, params[name])
                 if quant.is_quantized(name) else g
                 for name, g in grads.items()}
    return loss, grads


def sequence_loss_and_grads(seq, params: dict, net_cfg: NetworkConfig,
                            cfg: TrainConfig | None = None):
    """Loss and shadow-weight gradients for one windowed sequence."""
    return batch_loss_and_grads([seq.windows], [seq.label], params, net_cfg,
                                cfg or TrainConfig())


def adagrad_step(params: dict, grads: dict, state: AdagradState,
                 cfg: TrainConfig) -> None:
    """Clip, accumulate squared gradients, update in place, clamp shadows.

    A tensor is updated in blocks of leading-axis rows, through a step
    workspace of one block that `state` keeps per tensor; each element goes
    through the same operations in the same order. The gradient arrays are
    clipped and scaled in place.
    """
    for name, g in grads.items():
        if name not in state.acc:
            state.acc[name] = np.zeros_like(g)
            rows = max(1, ADAGRAD_BLOCK * len(g) // g.size)
            state.step[name] = np.empty_like(g[:rows])
        w, acc, step = params[name], state.acc[name], state.step[name]
        clamp = cfg.mode != "full" and quant.is_quantized(name)
        for a in range(0, len(g), len(step)):
            rows = slice(a, a + len(step))
            g_b, w_b = g[rows], w[rows]
            step_b = step[:len(g_b)]
            np.clip(g_b, -CLIP_LIMIT, CLIP_LIMIT, out=g_b)
            acc[rows] += np.square(g_b, out=step_b)
            np.sqrt(acc[rows], out=step_b)
            step_b += ADAGRAD_EPSILON
            g_b *= cfg.learning_rate
            w_b -= np.divide(g_b, step_b, out=step_b)
            if clamp:
                np.clip(w_b, -1.0, 1.0, out=w_b)


def train(train_seqs, test_seqs, cfg: TrainConfig,
          net_cfg: NetworkConfig) -> TrainResult:
    """Epoch loop over shuffled minibatches; deterministic per seed."""
    if not train_seqs or not test_seqs:
        raise ValueError("both splits must be non-empty")
    params = init_params(net_cfg, cfg.seed, cfg.init_scale)
    state = AdagradState()
    ws = _Workspace()
    rng = np.random.default_rng(cfg.seed)
    windows = _time_major([s.windows for s in train_seqs], net_cfg)
    test_windows = _time_major([s.windows for s in test_seqs], net_cfg)
    labels, test_labels = (np.array([s.label for s in seqs])
                           for seqs in (train_seqs, test_seqs))
    q, n, width = windows.shape
    # the codes are quantized after each update, for the next batch and the
    # epoch's evaluation alike
    eff = network_tensors(params, cfg.mode)
    loss_trace = np.zeros(cfg.epochs)
    acc_trace = np.zeros(cfg.epochs)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            # a permutation's indices are in range: "wrap" skips the
            # bounds-checked copy that the default mode makes through a temporary
            x = np.take(windows, idx, axis=1, mode="wrap",
                        out=ws.take("x", (q, len(idx), width)))
            loss, grads = _loss_and_grads(x, labels[idx], params, eff,
                                          net_cfg, cfg.mode, ws)
            adagrad_step(params, grads, state, cfg)
            del grads  # views of `ws`: gone before the evaluation regrows it
            epoch_loss += loss * len(idx)
            eff = network_tensors(params, cfg.mode, out=eff)
        loss_trace[epoch] = epoch_loss / n
        if not np.isfinite(loss_trace[epoch]):
            raise ValueError(f"epoch {epoch}: mean loss {loss_trace[epoch]} "
                             "is not finite; lower learning_rate or "
                             "init_scale")
        # the softmax before the argmax: exp may round two logits to a tie
        logits, _ = _forward(test_windows, eff, net_cfg, ws)
        preds = softmax(logits[-1]).argmax(axis=1)
        acc_trace[epoch] = (preds == test_labels).mean()
    return TrainResult(params, loss_trace, acc_trace)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def predict_probs(params: dict, seqs, net_cfg: NetworkConfig,
                  mode: str = "full") -> np.ndarray:
    """Softmax probabilities of the final step for each sequence."""
    return softmax(forward_logits(params, [s.windows for s in seqs], net_cfg,
                                  mode)[:, -1])


def auc_macro(labels, scores) -> float:
    """Macro one-vs-rest AUC via the rank statistic (ties get mid-ranks).

    Classes without both positives and negatives are skipped; a `ValueError`
    when no class has both.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    aucs = []
    for k in range(scores.shape[1]):
        pos = labels == k
        n_pos, n_neg = int(pos.sum()), int((~pos).sum())
        if n_pos == 0 or n_neg == 0:
            continue
        # a tie block of c scores from sorted position i holds ranks
        # i+1..i+c; each gets their mean
        _, block, counts = np.unique(scores[:, k], return_inverse=True,
                                     return_counts=True)
        first = np.cumsum(counts) - counts
        ranks = (0.5 * (2 * first + counts - 1) + 1.0)[block]
        auc = (ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        aucs.append(auc)
    if not aucs:
        raise ValueError("AUC needs a class with both positive and negative "
                         "samples")
    return float(np.mean(aucs))


def confusion_matrix(labels, preds, n_classes: int) -> np.ndarray:
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    for y, p in zip(labels, preds):
        cm[int(y), int(p)] += 1
    return cm


def write_trace(path, loss_trace, accuracy_trace) -> None:
    lines = ["epoch,loss,test_accuracy"]
    for e, (l, a) in enumerate(zip(loss_trace, accuracy_trace)):
        lines.append(f"{e},{float(l)!r},{float(a)!r}")
    Path(path).write_text("\n".join(lines) + "\n")
