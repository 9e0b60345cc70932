#!/usr/bin/env python3
"""Tour of the 12-bit fixed-point substrate and the LUT nonlinearities.

Shows saturation, round-half-away quantization, the shift-based LUT
addressing, and the worst-case error of the 64-entry sigmoid table.
"""

import numpy as np

from qcnnlstm import fxp

fmt = fxp.ACT_FORMAT
print(f"activation format {fmt}: range [{fmt.min_value}, {fmt.max_value:.5f}], "
      f"step {fmt.step}")

print("\nquantization (round half away from zero, saturating):")
xs = (0.5, 0.1, -1.75, 10.0, -8.0)
raws = fxp.to_raw(xs, fmt)
for x, raw, value in zip(xs, raws, fxp.from_raw(raws, fmt)):
    print(f"  {x:8.4f} -> raw {raw:6d} -> {value:.6f}")

print("\nsigmoid LUT (64 cells over [-8, 8), entries carry 10 fractional bits):")
sig = fxp.build_lut("sigmoid", 64)
points = (-8.0, -2.0, 0.0, 2.0, 7.999)
cells = fxp.lut_index_raw(fxp.to_raw(points, fmt), sig, fmt)
for u, idx, val in zip(points, cells, sig.entry_values()[cells]):
    exact = 1.0 / (1.0 + np.exp(-u))
    print(f"  sigma({u:6.3f}) -> cell {idx:2d} -> {val:.6f} "
          f"(exact {exact:.6f})")

us = np.linspace(-8, 8, 100_001)[:-1]
approx = sig.entry_values()[fxp.lut_index_raw(fxp.to_raw(us, fmt), sig, fmt)]
exact = 1.0 / (1.0 + np.exp(-us))
print(f"\nworst-case sigmoid LUT error over the domain: "
      f"{np.abs(approx - exact).max():.5f}")
print(f"(analytic bound: max slope 1/4 x half cell + one entry step = "
      f"{0.25 * sig.cell_width / 2 + fxp.ENTRY_FORMAT.step:.5f})")

print("\ntanh table is odd-symmetric by construction:")
tanh = fxp.build_lut("tanh", 64)
sums = tanh.entry_values() + tanh.entry_values()[::-1]
print(f"  max |entry[i] + entry[N-1-i]| = {np.abs(sums).max():.6f}")
