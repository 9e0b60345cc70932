"""Backprop-through-time trainer: replicated targets, Adagrad, clipping.

The same class label is applied at every step and the per-step cross-entropy
losses are averaged; test-time prediction uses only the final step. Quantized
modes run the forward pass on weight codes and route gradients to the
full-precision shadow weights through the straight-through estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import quant
from .model import (ConvLayerParams, LstmParams, NetworkConfig, NetworkParams,
                    im2col, is_bias, is_quantized, named_tensors, softmax)

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
    "evaluate_accuracy",
    "predict_probs",
    "auc_macro",
    "confusion_matrix",
    "write_trace",
]


CLIP_LIMIT = 5.0  # gradients are clipped to [-CLIP_LIMIT, CLIP_LIMIT]
ADAGRAD_EPSILON = 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 50
    batch_size: int = 32
    init_scale: float = 0.01
    seed: int = 0
    mode: str = "full"  # full | ternary | binary
    augment_noise: float = 0.0  # uniform input noise redrawn per batch
    train_biases: bool = True   # quantized modes pin biases at zero regardless

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if min(self.epochs, self.batch_size) < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.mode not in quant.MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class AdagradState:
    acc: dict = field(default_factory=dict)


@dataclass
class TrainResult:
    params: NetworkParams
    loss_trace: np.ndarray
    accuracy_trace: np.ndarray


# ---------------------------------------------------------------------------
# Parameter plumbing
# ---------------------------------------------------------------------------

def init_params(cfg: NetworkConfig, seed: int = 0,
                init_scale: float = 0.01) -> NetworkParams:
    """Weights uniform in [-init_scale, +init_scale]; biases start at zero.

    Draw order: conv kernels, FC, then each gate block in `quant.GATE_ORDER`
    and the output layer.
    """
    rng = np.random.default_rng(seed)

    def u(*shape):
        return rng.uniform(-init_scale, init_scale, shape)

    conv, fc = [], None
    if cfg.use_cnn:
        for depth, f, m in cfg.conv_shapes():
            conv.append(ConvLayerParams(u(f, depth, m), np.zeros(f)))
        fc = u(cfg.input_len, cfg.fc_input_len)
    nh = cfg.n_hidden
    gates = np.empty((nh + cfg.input_len, 4 * nh))
    for k in range(4):
        gates[:, k * nh:(k + 1) * nh] = u(nh + cfg.input_len, nh)
    lstm = LstmParams(gates, np.zeros(4 * nh), w_logits=u(nh, cfg.n_classes),
                      b_logits=np.zeros(cfg.n_classes))
    return NetworkParams(conv, fc, lstm)


def _effective(params: NetworkParams, mode: str) -> dict:
    """Tensors the forward pass actually reads (codes in quantized modes)."""
    return {name: quant.quantize_weights(w, mode)
            if mode != "full" and is_quantized(name) else w
            for name, w in named_tensors(params).items()}


# ---------------------------------------------------------------------------
# The float engine: a batch of sequences, time-major inside. States 1-2 and
# the input half of the gate product run for all steps at once; only
# h @ gates[:n_hidden] stays in the recurrence. Backward keeps one
# dpre @ gates[:n_hidden].T per step and takes every weight gradient in one
# product over all steps.
# ---------------------------------------------------------------------------

def _sigmoid_in_place(z) -> None:
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.divide(1.0, z, out=z)


def _forward(windows, eff: dict, cfg: NetworkConfig):
    """windows (B, q, U) -> (logits (q, B, Ny), cache for backprop)."""
    b, q, _ = windows.shape
    nh = cfg.n_hidden
    x = windows.transpose(1, 0, 2).reshape(q * b, cfg.input_len)
    v, cnn = _cnn_forward(x, eff, cfg) if cfg.use_cnn else (x, None)
    w = eff["lstm.gates"]
    gates = (v @ w[nh:] + eff["lstm.gate_bias"]).reshape(q, b, 4 * nh)
    sig, cell = gates[..., :3 * nh], gates[..., 3 * nh:]
    hs = np.zeros((q + 1, b, nh))  # hs[t], cs[t]: the state step t reads
    cs = np.zeros((q + 1, b, nh))
    for t in range(q):
        gates[t] += hs[t] @ w[:nh]
        _sigmoid_in_place(sig[t])
        np.tanh(cell[t], out=cell[t])
        g_forget, g_input, g_output, g_cell = np.split(gates[t], 4, axis=1)
        np.multiply(g_forget, cs[t], out=cs[t + 1])
        cs[t + 1] += g_cell * g_input
        np.multiply(g_output, np.tanh(cs[t + 1]), out=hs[t + 1])
    logits = hs[1:].reshape(q * b, nh) @ eff["lstm.w_logits"] + eff["lstm.b_logits"]
    return logits.reshape(q, b, -1), dict(v=v, gates=gates, hs=hs, cs=cs, cnn=cnn)


def _cnn_forward(x, eff: dict, cfg: NetworkConfig):
    """States 1-2 for all (N, U) windows: conv + ReLU layers, FC, residual."""
    n = len(x)
    maps = x.reshape(n, cfg.n_channels, cfg.window_len)
    cols, outs = [], []
    for i, (f, m) in enumerate(cfg.conv_layers):
        cols.append(im2col(maps, m))
        z = cols[-1] @ eff[f"conv{i}.weights"].reshape(f, -1).T + eff[f"conv{i}.bias"]
        outs.append(np.maximum(z, 0.0, out=z))  # (N * window_len, f)
        maps = z.reshape(n, cfg.window_len, f).transpose(0, 2, 1)
    flat = maps.reshape(n, -1)
    p = flat @ eff["fc.weights"].T
    return (x + p if cfg.residual else p), dict(cols=cols, outs=outs, flat=flat)


def _backward(labels, eff: dict, cfg: NetworkConfig, logits, cache):
    """Returns (mean loss over the batch, grads w.r.t. effective tensors)."""
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
    grads = {"lstm.w_logits": hs[1:].reshape(q * b, nh).T @ dlogits,
             "lstm.b_logits": dlogits.sum(axis=0)}
    dh_out = (dlogits @ eff["lstm.w_logits"].T).reshape(q, b, nh)

    g_forget, g_input, g_output, g_cell = np.split(gates, 4, axis=2)
    tcs = np.tanh(cs[1:])
    d_act = gates * (1.0 - gates)  # sigmoid' per gate; tanh' for the cell
    np.subtract(1.0, g_cell * g_cell, out=d_act[..., 3 * nh:])
    d_cell_state = g_output * (1.0 - tcs * tcs)  # dh/dc of h = o tanh(c)
    dpre = np.empty_like(gates)
    d_forget, d_input, d_output, d_cellgate = np.split(dpre, 4, axis=2)
    w_h = eff["lstm.gates"][:nh]
    dh_carry = np.zeros((b, nh))
    dc = np.zeros((b, nh))
    for t in reversed(range(q)):
        dh = dh_out[t] + dh_carry
        np.multiply(dh, tcs[t], out=d_output[t])
        dc += dh * d_cell_state[t]
        np.multiply(dc, cs[t], out=d_forget[t])
        np.multiply(dc, g_cell[t], out=d_input[t])
        np.multiply(dc, g_input[t], out=d_cellgate[t])
        dc *= g_forget[t]
        dpre[t] *= d_act[t]
        if t:
            dh_carry = dpre[t] @ w_h.T

    dpre = dpre.reshape(q * b, 4 * nh)
    dw = np.empty_like(eff["lstm.gates"])
    np.matmul(hs[:-1].reshape(q * b, nh).T, dpre, out=dw[:nh])
    np.matmul(cache["v"].T, dpre, out=dw[nh:])
    grads["lstm.gates"] = dw
    grads["lstm.gate_bias"] = dpre.sum(axis=0)
    if cfg.use_cnn:
        dv = dpre @ eff["lstm.gates"][nh:].T
        _cnn_backward(dv, cache["cnn"], eff, cfg, grads)
    return loss, grads


def _cnn_backward(dv, cache, eff: dict, cfg: NetworkConfig, grads: dict):
    n, length = len(dv), cfg.window_len
    # the residual add passes the gradient straight through to the FC output
    grads["fc.weights"] = dv.T @ cache["flat"]
    dmaps = (dv @ eff["fc.weights"]).reshape(n, -1, length)
    for i in reversed(range(len(cfg.conv_layers))):
        f, m = cfg.conv_layers[i]
        w = eff[f"conv{i}.weights"].reshape(f, -1)
        dz = dmaps.transpose(0, 2, 1).reshape(n * length, f)
        dz = dz * (cache["outs"][i] > 0)
        grads[f"conv{i}.weights"] = (dz.T @ cache["cols"][i]).reshape(f, -1, m)
        grads[f"conv{i}.bias"] = dz.sum(axis=0)
        if i:
            dmaps = _col2im(dz @ w, n, length, m)


def _col2im(dcols, n: int, length: int, m: int) -> np.ndarray:
    """Adjoint of `model.im2col`: (N * length, depth * m) -> (N, depth, length)."""
    dcols = dcols.reshape(n, length, -1, m)
    left = (m - 1) // 2
    dpad = np.zeros((n, dcols.shape[2], length + m - 1))
    for a in range(m):
        dpad[:, :, a:a + length] += dcols[..., a].transpose(0, 2, 1)
    return dpad[:, :, left:left + length]


def forward_logits(params: NetworkParams, windows, net_cfg: NetworkConfig,
                   mode: str = "full") -> np.ndarray:
    """Float logits (B, q, n_classes) of a batch of windows (B, q, U)."""
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3 or windows.shape[1:] != (net_cfg.n_steps,
                                                   net_cfg.input_len):
        raise ValueError(f"expected windows (B, {net_cfg.n_steps}, "
                         f"{net_cfg.input_len}), got {windows.shape}")
    logits, _ = _forward(windows, _effective(params, mode), net_cfg)
    return logits.transpose(1, 0, 2)


def batch_loss_and_grads(windows, labels, params: NetworkParams,
                         net_cfg: NetworkConfig, cfg: TrainConfig):
    """Mean loss and shadow-weight gradients for windows (B, q, U)."""
    loss, grads = _loss_and_grads(windows, np.asarray(labels),
                                  _effective(params, cfg.mode), net_cfg)
    return loss, _route_to_shadow(grads, params, cfg.mode, cfg.train_biases)


def _loss_and_grads(windows, labels, eff: dict, cfg: NetworkConfig):
    # the codes and the cache are freed before the gradients are routed
    logits, cache = _forward(windows, eff, cfg)
    return _backward(labels, eff, cfg, logits, cache)


def sequence_loss_and_grads(seq, params: NetworkParams, net_cfg: NetworkConfig,
                            cfg: TrainConfig | None = None):
    """Loss and shadow-weight gradients for one windowed sequence."""
    windows = np.asarray(seq.windows, dtype=np.float64)[None, :, :]
    return batch_loss_and_grads(windows, [seq.label], params, net_cfg,
                                cfg or TrainConfig())


def _route_to_shadow(grads: dict, params: NetworkParams, mode: str,
                     train_biases: bool = True) -> dict:
    """STE: gradients w.r.t. codes pass through where |shadow| <= 1."""
    if mode == "full" and train_biases:
        return grads
    shadow = named_tensors(params)
    out = {}
    for name, g in grads.items():
        if is_bias(name) and (mode != "full" or not train_biases):
            continue  # biases pinned at zero
        out[name] = quant.ste_backward(g, shadow[name]) \
            if mode != "full" and is_quantized(name) else g
    return out


def adagrad_step(params: NetworkParams, grads: dict, state: AdagradState,
                 cfg: TrainConfig) -> None:
    """Clip, accumulate squared gradients, update in place, clamp shadows.

    The gradient arrays are clipped and scaled in place.
    """
    tensors = named_tensors(params)
    for name, g in grads.items():
        np.clip(g, -CLIP_LIMIT, CLIP_LIMIT, out=g)
        if name not in state.acc:
            state.acc[name] = np.zeros_like(g)
        step = np.square(g)
        state.acc[name] += step
        np.sqrt(state.acc[name], out=step)
        step += ADAGRAD_EPSILON
        g *= cfg.learning_rate
        tensors[name] -= np.divide(g, step, out=step)
        if cfg.mode != "full" and is_quantized(name):
            np.clip(tensors[name], -1.0, 1.0, out=tensors[name])


def _stack_windows(seqs) -> tuple[np.ndarray, np.ndarray]:
    windows = np.stack([np.asarray(s.windows, dtype=np.float64) for s in seqs])
    labels = np.array([s.label for s in seqs], dtype=np.int64)
    return windows, labels


def train(train_seqs, test_seqs, cfg: TrainConfig,
          net_cfg: NetworkConfig) -> TrainResult:
    """Epoch loop over shuffled minibatches; deterministic per seed."""
    if not train_seqs or not test_seqs:
        raise ValueError("both splits must be non-empty")
    params = init_params(net_cfg, cfg.seed, cfg.init_scale)
    state = AdagradState()
    rng = np.random.default_rng(cfg.seed)
    windows, labels = _stack_windows(train_seqs)
    n = len(train_seqs)
    loss_trace = np.zeros(cfg.epochs)
    acc_trace = np.zeros(cfg.epochs)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch = windows[idx]
            if cfg.augment_noise > 0.0:
                batch = batch + rng.uniform(-cfg.augment_noise,
                                            cfg.augment_noise, batch.shape)
            loss, grads = batch_loss_and_grads(batch, labels[idx], params,
                                               net_cfg, cfg)
            adagrad_step(params, grads, state, cfg)
            epoch_loss += loss * len(idx)
        loss_trace[epoch] = epoch_loss / n
        if not np.isfinite(loss_trace[epoch]):
            raise ValueError(f"epoch {epoch}: mean loss {loss_trace[epoch]} "
                             "is not finite; lower learning_rate or "
                             "init_scale")
        acc_trace[epoch] = evaluate_accuracy(params, test_seqs, net_cfg, cfg.mode)
    return TrainResult(params, loss_trace, acc_trace)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def predict_probs(params: NetworkParams, seqs, net_cfg: NetworkConfig,
                  mode: str = "full") -> np.ndarray:
    """Softmax probabilities of the final step for each sequence."""
    windows, _ = _stack_windows(seqs)
    return softmax(forward_logits(params, windows, net_cfg, mode)[:, -1, :])


def evaluate_accuracy(params: NetworkParams, seqs, net_cfg: NetworkConfig,
                      mode: str = "full") -> float:
    probs = predict_probs(params, seqs, net_cfg, mode)
    preds = probs.argmax(axis=1)
    labels = np.array([s.label for s in seqs])
    return float((preds == labels).mean())


def auc_macro(labels, scores) -> float:
    """Macro one-vs-rest AUC via the rank statistic (ties get mid-ranks)."""
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
