#!/usr/bin/env python3
"""Benchmark of qcnnlstm: training, fixed-point inference and the simulator.

Run from the repository root:

    python3 bench/run.py --workload ecg200 --seed 0 --seconds 45 --trace 0
    python3 bench/run.py --smoke

One process, one caller, closed loop: a round runs every timed call of the
workload once (see workloads.py) and rounds repeat until `--seconds` have
passed; each throughput is total work over total wall time of its timed
calls, after a warm-up round. `setup_s` is the median time from process
start to the first timed call over `--setup-repeats` child processes that
set up and exit. Host times in the end-to-end metrics are normalised to a
nominal host speed by a fixed reference kernel timed around every timed
call (see HostSpeed); the raw times are in the detail line. With `--trace 1` the run alternates
untraced and traced rounds and reports per-layer metrics instead: seconds
and calls per round inside each public layer function, and each timed
call's tracing overhead. Modelled accelerator figures (cycles, MACs, bank
bits) are exact and separate from host time.

The last stdout line is the result, {"correct", "attempted", "failed",
"metrics"}; the line before it holds the samples and the host facts. Exit
code 2 when the package or its data is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))

# Seconds the reference kernel takes at nominal host speed. It fixes the
# scale of every normalised metric, so it must never change.
REFERENCE_NOMINAL_S = 0.035

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_fp_seq_per_s": "seq/s",
    "train_ternary_seq_per_s": "seq/s",
    "fixed_seq_per_s": "seq/s",
    "sim_seq_per_s": "seq/s",
    "cli_simulate_seq_per_s": "seq/s",
    "cli_eval_seq_per_s": "seq/s",
    "sim_cycles_per_seq": "cycles",
    "sim_worst_window_cycles": "cycles",
}

# Per-layer host metrics: <span>.s (inclusive seconds), <span>.self_s
# (seconds minus traced children) or <span>.calls, each per traced round.
LAYER_SPAN_METRICS = [
    "ingest.load_ucr.s", "ingest.normalize_and_split.s",
    "ingest.dataset_to_sequences.s", "datagen.load_dataset.s",
    "model.load_network.s",
    "train.train.self_s", "train.adagrad_step.s", "train.adagrad_step.calls",
    "train.predict_probs.s", "train.predict_probs.calls",
    "quant.quantize_weights.s", "quant.quantize_weights.calls",
    "quant.ste_backward.s", "quant.QuantizedNetwork.from_params.s",
    "fxp.dot_ternary.s", "fxp.dot_ternary.calls", "fxp.dot_fixed.s",
    "fxp.sat_add.s", "fxp.lut_index_raw.s", "fxp.mul_add_fixed.s",
    "fxp.mul_fixed.s",
    "model.network_forward_fixed.self_s", "fsm.run_inference.self_s",
    "fsm.MemoryBanks.s", "fsm.MemoryBanks.calls",
    "cli.dispatch.simulate.s", "cli.dispatch.eval.s",
]
MODELLED_METRICS = ([f"fsm.state{k}.cycles_per_seq" for k in range(1, 9)]
                    + ["fsm.macs_per_seq", "fsm.wb_bits_per_seq",
                       "fsm.im_bits_per_seq"])


def per_layer_units(timed_calls) -> dict:
    units = {m: "count" if m.endswith(".calls") else "s"
             for m in LAYER_SPAN_METRICS}
    units["quant.gate_zero_code_fraction"] = "ratio"
    units.update({m: "cycles" if "cycles" in m else
                  "MACs" if "macs" in m else "bits" for m in MODELLED_METRICS})
    for call in timed_calls:
        for part in ("wall_s", "overhead_s", "unattributed_s"):
            units[f"trace.{call}.{part}"] = "s"
    return units


def limit_blas_threads() -> None:
    """At most nproc BLAS threads; must run before numpy is imported."""
    try:
        want = int(os.environ.get("OPENBLAS_NUM_THREADS", NPROC))
    except ValueError:
        want = NPROC
    os.environ["OPENBLAS_NUM_THREADS"] = str(min(max(want, 1), NPROC))


def blas_threads_in_use():
    """Ask the loaded OpenBLAS how many threads it runs; None if unknown."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return out[1] if Path(out[0]).resolve() == ROOT else None


def host_facts() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.machine())
    lines = {p.stem: len(p.read_text().splitlines())
             for p in sorted((SRC / "qcnnlstm").glob("*.py"))}
    return {"nproc": NPROC, "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads_in_use(), "git_commit": git_commit(),
            "src_lines": lines, "src_lines_total": sum(lines.values())}


class HostSpeed:
    """Times a fixed reference kernel to track how fast the host runs now.

    The machines this runs on are shared: the same code runs up to a third
    faster or slower from one minute to the next, and all of the program's
    layers speed up and slow down together. The kernel mixes what the
    program spends its time on (Python loops, float parsing, int64 matrix
    products, BLAS GEMMs) and uses nothing from the package, so no change
    to the program moves it. The kernel runs after every timed call; a
    call's wall time is scaled by REFERENCE_NOMINAL_S over the mean of the
    two kernel runs before it and the two after it.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(12345)
        self.codes = rng.integers(-1, 2, (370, 350))
        self.rows = rng.integers(-2048, 2048, (128, 370))
        self.a = rng.standard_normal((32, 370))
        self.b = rng.standard_normal((370, 1400))
        self.tokens = [repr(float(v)) for v in rng.uniform(-1, 1, 20000)]
        self.samples = []
        for _ in range(3):  # the first two runs are up to ten times slower
            self.measure()
        self.samples.clear()
        self.measure()

    def mark(self) -> int:
        """Index of the latest kernel run, taken just before a timed call."""
        return len(self.samples) - 1

    def measure(self) -> None:
        t0 = time.perf_counter()
        for row in self.rows:
            row @ self.codes
        for _ in range(16):
            self.a @ self.b
        values = [float(t) for t in self.tokens]
        acc = 0.0
        for v in values:
            acc += v * v
        self.samples.append(time.perf_counter() - t0)

    def scale(self, mark: int) -> float:
        """Nominal over measured host speed around the call after `mark`."""
        window = self.samples[max(mark - 1, 0):mark + 3]
        return REFERENCE_NOMINAL_S / statistics.mean(window)


def setup_seconds(workload: str, seed: int, repeats: int,
                  speed: HostSpeed) -> list:
    """(seconds, HostSpeed mark) from the start to 'ready' of child
    processes that only set up."""
    samples = []
    for _ in range(repeats):
        mark = speed.mark()
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, __file__, "--workload", workload,
                               "--seed", str(seed), "--setup-only"],
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            seconds = time.perf_counter() - t0
            child.stdout.read()
            rc = child.wait(timeout=120)
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child failed with exit code {rc}")
        speed.measure()
        samples.append((seconds, mark))
    return samples


def run_rounds(wl, seconds: float, speed: HostSpeed, tracer, targets) -> dict:
    """Closed loop over rounds.

    Round 0 warms caches and lazy set-up and is checked but not timed. With
    a tracer, even rounds after it are traced and odd ones are not.
    """
    walls = {c.name: [] for c in wl.calls}
    marks = {c.name: [] for c in wl.calls}  # HostSpeed mark of each wall
    traced = {c.name: [] for c in wl.calls}  # (duration, unattributed)
    totals: dict[str, list] = {}
    attempted = failed = rounds = traced_rounds = 0
    failures = []
    start = time.perf_counter()
    while True:
        warm_up = rounds == 0
        trace_round = tracer is not None and not warm_up and rounds % 2 == 0
        for call in (c for c in wl.calls for _ in range(c.repeats)):
            if trace_round:
                tracer.install(targets)
                try:
                    with tracer.span("bench." + call.name):
                        out = call.run()
                finally:
                    tracer.uninstall()
            else:
                mark = speed.mark()
                t0 = time.perf_counter()
                out = call.run()
                wall = time.perf_counter() - t0
                speed.measure()
                if not warm_up:
                    walls[call.name].append(wall)
                    marks[call.name].append(mark)
            attempted += 1
            msgs = call.check(out)
            failed += bool(msgs)
            failures += msgs
        if trace_round:
            stats, roots = tracer.drain()
            for name, (calls, dur, own) in stats.items():
                t = totals.setdefault(name, [0, 0.0, 0.0])
                t[0] += calls
                t[1] += dur
                t[2] += own
            for name, dur, own in roots:
                traced[name.removeprefix("bench.")].append((dur, own))
            traced_rounds += 1
        rounds += 1
        if time.perf_counter() - start >= seconds and \
                rounds >= (2 if tracer is None else 3):
            break
    return dict(walls=walls, marks=marks, traced=traced, totals=totals,
                rounds=rounds, traced_rounds=traced_rounds,
                attempted=attempted, failed=failed, failures=failures)


def end_to_end(wl, res, setup_samples, speed: HostSpeed) -> dict:
    """Host times scaled to nominal host speed; modelled values exact."""
    rep = wl.infer.report
    values = {
        "setup_s": statistics.median(t * speed.scale(m)
                                     for t, m in setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_cycles_per_seq": int(rep.total_cycles),
        "sim_worst_window_cycles": int(rep.worst_window_cycles),
    }
    for call in wl.calls:
        walls = [w * speed.scale(m) for w, m in
                 zip(res["walls"][call.name], res["marks"][call.name])]
        values[f"{call.name}_seq_per_s"] = call.units * len(walls) / sum(walls)
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}


def per_layer(wl, res) -> dict:
    n = res["traced_rounds"]
    values = {}
    for metric in LAYER_SPAN_METRICS:
        span, field = metric.rsplit(".", 1)
        calls, dur, own = res["totals"].get(span, (0, 0.0, 0.0))
        values[metric] = calls // n if field == "calls" else \
            (dur if field == "s" else own) / n
    rep = wl.infer.report
    values["quant.gate_zero_code_fraction"] = wl.infer.gate_zero_code_fraction()
    for k in range(8):
        values[f"fsm.state{k + 1}.cycles_per_seq"] = int(rep.cycles_per_state[k])
    values["fsm.macs_per_seq"] = int(rep.executed_macs)
    values["fsm.wb_bits_per_seq"] = int(rep.wb_bits_read) // wl.infer.n
    values["fsm.im_bits_per_seq"] = int(rep.im_bits_transferred) // wl.infer.n
    for call in wl.calls:
        wall = statistics.median(res["walls"][call.name])
        traced = res["traced"][call.name]
        values[f"trace.{call.name}.wall_s"] = wall
        values[f"trace.{call.name}.overhead_s"] = \
            statistics.median(d for d, _ in traced) - wall
        values[f"trace.{call.name}.unattributed_s"] = \
            statistics.mean(o for _, o in traced)
    units = per_layer_units(c.name for c in wl.calls)
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def smoke() -> int:
    """Every workload, untraced and traced, with the fewest rounds."""
    import workloads
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", "0",
                 "--seconds", "0", "--trace", str(trace),
                 "--setup-repeats", "1"],
                capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"smoke: {name} --trace {trace} exited "
                      f"{proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(json.dumps({"workload": name, "trace": trace, **result}))
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, v in result["metrics"].items():
                summary["metrics"][f"{name}/{metric}"] = v
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-repeats", type=int, default=3)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at minimum length")
    args = parser.parse_args(argv)

    if not (SRC / "qcnnlstm" / "__init__.py").exists() or \
            not (ROOT / "data" / "ECG200").is_dir():
        print(f"bench: no qcnnlstm package or ECG200 data under {ROOT}",
              file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    if args.smoke:
        return smoke()
    import workloads
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")

    speed = None if args.setup_only else HostSpeed()
    setup_samples = [] if args.setup_only or args.trace else \
        setup_seconds(args.workload, args.seed, max(args.setup_repeats, 1),
                      speed)
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        if args.trace:
            from tracer import Tracer
            res = run_rounds(wl, args.seconds, speed, Tracer(),
                             workloads.trace_targets())
            metrics = per_layer(wl, res)
        else:
            res = run_rounds(wl, args.seconds, speed, None, None)
            metrics = end_to_end(wl, res, setup_samples, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "rounds": res["rounds"],
              "setup_samples_s": [t for t, _ in setup_samples],
              "wall_samples_s": res["walls"],
              "reference_kernel_s": speed.samples,
              "failures": res["failures"][:20],
              "host": host_facts()}
    print(json.dumps(detail))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
