#!/usr/bin/env python3
"""Run a ternary network through the eight-state accelerator simulator.

Builds the DB-a-sized gesture configuration (128 channels, 5-sample window,
30 steps, 250 hidden units), executes one inference on the cycle-counting
simulator, compares its 12-bit result with the float pass over the same
ternary codes, and puts the latency against the 10 ms real-time budget.
"""

import numpy as np

from qcnnlstm import estimate, fsm, fxp, quant
from qcnnlstm.datagen import WindowedSequence
from qcnnlstm.model import NetworkConfig
from qcnnlstm.train import forward_logits, init_params, predict_probs

net = NetworkConfig(window_len=5, n_steps=30, n_hidden=250, n_classes=8,
                    n_channels=128, use_cnn=False)
params = init_params(net, seed=7, init_scale=1.0)
qnet = quant.QuantizedNetwork.from_params(params, "ternary")
machine = fsm.MachineConfig()

print(f"network: {net.n_channels} channels x window {net.window_len}, "
      f"{net.n_steps} steps, {net.n_hidden} hidden, {net.n_classes} classes")
print(f"weights in banks: {qnet.weight_bits():,} bits "
      f"(capacity {machine.wb_capacity_bits:,})\n")

rng = np.random.default_rng(0)
raw = fxp.to_raw(rng.uniform(-1, 1, (net.n_steps, net.input_len)))

banks = fsm.load_banks(qnet, machine)
predicted, report = fsm.run_inference(raw, banks, net, machine)
print(report.summary())

# the float pass reads the same ternary codes and the same quantized input;
# the fixed-point datapath adds 12-bit rounding, LUT nonlinearities and a
# Q-format output layer
windows = fxp.from_raw(raw, machine.activation_format)
float_pred = int(predict_probs(params, [WindowedSequence(windows, 0)], net,
                               mode="ternary").argmax())
float_logits = forward_logits(params, windows[None], net, mode="ternary")[0, -1]
fixed_logits = fxp.from_raw(banks.im["logits"], machine.activation_format)
print(f"\npredicted class: simulator {predicted}, float pass {float_pred}; "
      f"largest final-step logit difference "
      f"{np.abs(fixed_logits - float_logits).max():.4f}")

verdict = fsm.latency_report(report, budget_seconds=10e-3)
print(f"worst window {verdict.latency_seconds * 1e6:.1f} us vs "
      f"{verdict.budget_seconds * 1e3:.0f} ms budget -> "
      f"margin {verdict.margin:.1f}x ({'PASS' if verdict.passed else 'FAIL'})")

paper_macs = estimate.mac_count(net, "window", "paper")
t = estimate.response_time(paper_macs, estimate.RATED_GOPS)
print(f"\nanalytic check: {paper_macs:,} MACs per window "
      f"-> {t * 1e6:.1f} us at {estimate.RATED_GOPS} GOPs")
