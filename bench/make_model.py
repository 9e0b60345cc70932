#!/usr/bin/env python3
"""Regenerate the benchmark's stored ECG200 model and its recorded digests.

    python3 bench/make_model.py            # re-record expected.json only
    python3 bench/make_model.py --retrain  # also retrain the stored model

The stored model is one seeded run of acceptance criterion 9's ternary
configuration (n_hidden 350, lr 0.1, 100 epochs, seed 1) on the ECG200
train split, so training is not part of the inference workload's set-up.
expected.json holds, per workload input, the golden path's logits digest,
the simulator's predictions, and the accuracies `simulate` and `eval`
print. ECG200 inputs do not depend on the seed; gesture inputs are recorded
for the development seed 0 and the held-out seed 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from qcnnlstm import cli, model, train  # noqa: E402

import workloads  # noqa: E402

RECORDED_GESTURE_SEEDS = (0, 1)


def retrain() -> None:
    train_seqs, test_seqs, _, _ = cli.load_split_sequences(
        workloads.ECG200_DATA, {"window_len": 20, "n_steps": 4})
    cfg = train.TrainConfig(learning_rate=0.1, epochs=100, seed=1,
                            mode="ternary")
    result = train.train(train_seqs, test_seqs, cfg,
                         workloads.ECG200_TERNARY_NET)
    shutil.rmtree(workloads.ECG200_MODEL, ignore_errors=True)
    model.save_network(workloads.ECG200_MODEL, result.params,
                       workloads.ECG200_TERNARY_NET, mode="ternary")
    print(f"trained: final loss {result.loss_trace[-1]:.4f}, "
          f"test accuracy {result.accuracy_trace[-1]:.4f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--retrain", action="store_true")
    args = parser.parse_args()
    if args.retrain:
        retrain()
    workdir = BENCH.parent / ".bench_work" / f"record-{os.getpid()}"
    expected = {}
    try:
        for name, seeds in (("ecg200", (0,)),
                            ("gesture-dba", RECORDED_GESTURE_SEEDS)):
            for seed in seeds:
                wl = workloads.setup(name, seed, workdir / f"{name}-{seed}")
                expected[wl.expected_key] = wl.infer.digests()
                print(wl.expected_key, expected[wl.expected_key])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
