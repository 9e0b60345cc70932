#!/usr/bin/env python3
"""Size the four heart-signal case studies: memory footprint and MAC counts.

Tabulates the capacity arithmetic: weight storage at 32-bit full precision
vs 2-bit ternary, and per-window operation counts with their analytic
response times.
"""

from qcnnlstm import estimate
from qcnnlstm.model import NetworkConfig

CASES = {
    "ECG200":         dict(window_len=20, n_steps=4, n_hidden=250, n_classes=2),
    "ECG5000":        dict(window_len=20, n_steps=7, n_hidden=250, n_classes=5),
    "PhysioNet 2016": dict(window_len=50, n_steps=30, n_hidden=250, n_classes=2),
    "PhysioNet 2017": dict(window_len=50, n_steps=30, n_hidden=250, n_classes=4),
}

print(f"{'dataset':<15} {'FP-LSTM':>9} {'T-LSTM':>8} {'FP-CNN':>9} {'T-CNN':>8}  Mb")
for name, kw in CASES.items():
    lstm_net = NetworkConfig(use_cnn=False, **kw)
    cnn_net = NetworkConfig(conv_layers=((10, 5), (30, 3)), use_cnn=True, **kw)
    cells = []
    for net in (lstm_net, cnn_net):
        for precision in ("full32", "ternary2"):
            bits = estimate.memory_bits(estimate.CostModelInput(net, precision))
            cells.append(bits / 1e6)
    print(f"{name:<15} {cells[0]:>9.2f} {cells[1]:>8.2f} "
          f"{cells[2]:>9.2f} {cells[3]:>8.2f}")

print("\nper-window gate-product MACs and analytic response at "
      f"{estimate.RATED_GOPS} GOPs:")
for name, (win, hidden) in (("DB-a gestures", (5, 250)),
                            ("DB-c gestures", (10, 350))):
    net = NetworkConfig(window_len=win, n_steps=30, n_hidden=hidden,
                        n_classes=8, n_channels=128, use_cnn=False)
    macs = estimate.mac_count(net, "window", "paper")
    t = estimate.response_time(macs, estimate.RATED_GOPS)
    print(f"  {name}: ({win}x128 + {hidden}) x {hidden} = {macs:,} MACs "
          f"-> {t * 1e6:.1f} us")

print("\ntrue executed work counts all four gates plus CNN/FC/output layers:")
net = NetworkConfig(window_len=20, n_steps=4, n_hidden=250, n_classes=2,
                    conv_layers=((10, 5), (30, 3)), use_cnn=True)
print(f"  ECG200 CNN-LSTM, one full inference: "
      f"{estimate.mac_count(net, 'sequence', 'true'):,} MACs")
