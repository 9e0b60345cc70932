"""Per-sequence float64 reference of the network, for tests only.

One sequence at a time, one matrix product per gate and one product per conv
tap: the straightforward reading of the model, sharing no code with the
batched engine in `qcnnlstm.train`. The network is the parameter dict,
tensor name -> array; the fused gate parameters are read through their
per-gate views. `cross_entropy` and `loss_gradient` are the
per-step loss reference the trainer's loss is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qcnnlstm import quant
from qcnnlstm.model import NetworkConfig


@dataclass
class LstmState:
    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, n_hidden: int):
        return cls(np.zeros(n_hidden), np.zeros(n_hidden))


def _pad_window(m: int) -> tuple[int, int]:
    # symmetric zero padding, one extra on the right when the width is even
    left = (m - 1) // 2
    return left, m - 1 - left


def conv1d_relu(x, w, bias) -> np.ndarray:
    """Zero-padded stride-1 1-D convolution followed by ReLU.

    `x` is (depth, length) or (length,) for single-channel input; the output
    is (filters, length): padding keeps the spatial length. `w` is
    (filters, depth, width), `bias` (filters,).
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    f, depth, m = w.shape
    if x.shape[0] != depth:
        raise ValueError(f"input depth {x.shape[0]} != filter depth {depth}")
    n = x.shape[1]
    left, right = _pad_window(m)
    xpad = np.pad(x, ((0, 0), (left, right)))
    z = np.tile(bias[:, None], (1, n)).astype(np.float64)
    for a in range(m):
        z += w[:, :, a] @ xpad[:, a:a + n]
    return np.maximum(z, 0.0)


def fc_residual(feature_maps, fc, x_window) -> np.ndarray:
    """P = fc @ flatten(maps); returns x_window + P."""
    flat = np.asarray(feature_maps, dtype=np.float64).ravel()
    p = fc @ flat
    x_window = np.asarray(x_window, dtype=np.float64)
    if x_window.shape != p.shape:
        raise ValueError("residual add needs FC output length == window length")
    return x_window + p


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def lstm_step(xx, state: LstmState, p: dict):
    """One LSTM update from xx = [h, window] with the `lstm.*` tensors of
    `p`; returns (new state, logits)."""
    w = dict(zip(quant.GATE_ORDER, np.split(p["lstm.gates"], 4, axis=1)))
    b = dict(zip(quant.GATE_ORDER, np.split(p["lstm.gate_bias"], 4)))
    g_forget = _sigmoid(xx @ w["forget"] + b["forget"])
    g_input = _sigmoid(xx @ w["input"] + b["input"])
    g_output = _sigmoid(xx @ w["output"] + b["output"])
    g_cell = np.tanh(xx @ w["cell"] + b["cell"])
    c = g_forget * state.c + g_cell * g_input
    h = g_output * np.tanh(c)
    logits = h @ p["lstm.w_logits"] + p["lstm.b_logits"]
    return LstmState(h, c), logits


def _extract_features(window, params, cfg: NetworkConfig):
    """CNN stack + FC + residual for one flattened window."""
    maps = np.asarray(window, dtype=np.float64).reshape(cfg.n_channels, cfg.window_len)
    for i in range(len(cfg.conv_layers)):
        maps = conv1d_relu(maps, params[f"conv{i}.weights"],
                           params[f"conv{i}.bias"])
    return fc_residual(maps, params["fc.weights"], window)


def network_forward(windows, params, cfg: NetworkConfig) -> np.ndarray:
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
        state, logits[t] = lstm_step(xx, state, params)
    return logits


def sequence_loss(logits, label: int, replicate: bool = True) -> float:
    """Cross-entropy of every step (mean) or of the last step only."""
    z = logits - logits.max(axis=1, keepdims=True)
    per_step = np.log(np.exp(z).sum(axis=1)) - z[:, label]
    return float(per_step.mean() if replicate else per_step[-1])


def cross_entropy(logits, label: int) -> float:
    """-log softmax(logits)[label], computed in the stabilized form."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    return float(np.log(np.exp(z).sum()) - z[label])


def loss_gradient(p, label: int) -> np.ndarray:
    """d(cross entropy)/d(logits) = p - onehot(label)."""
    g = np.asarray(p, dtype=np.float64).copy()
    g[label] -= 1.0
    return g
