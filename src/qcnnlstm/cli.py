"""Command-line surface: gen, embed, train, quantize, eval, simulate, estimate.

Every run that produces artifacts writes a run manifest next to them. Exit
codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import analysis, datagen, estimate, fsm, fxp, ingest, model, quant, train as train_mod

USAGE_ERROR = 1
DATA_ERROR = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=5)
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def _write_manifest(args, out_dir, config_path="", seed=0) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    datagen.write_kv(out / "run_manifest.txt", {
        "command": " ".join(args), "config": config_path, "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git": _git_describe(), "out_dir": out_dir})


# ---------------------------------------------------------------------------
# The key = value files the user writes: each key is a field of a record
# below, and a key no record takes is a data error
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SplitSettings:
    """What fixes the held-out split; `train` records it in hyperparams.txt."""

    seed: int = 0  # also seeds the trainer
    train_fraction: float = 0.7
    envelope: bool = False  # UCR pairs only


@dataclass(frozen=True)
class _Cut:
    """How a UCR pair is cut into windows."""

    window_len: int
    n_steps: int


@dataclass(frozen=True)
class _Throughput:
    gops: float = 6.3  # the accelerator's rated giga-operations per second


def _read_config(path, *records, fixed=()) -> dict:
    """`read_kv` of a file the user writes, whose keys are the fields of
    `records` except the `fixed` ones."""
    kv = datagen.read_kv(path)
    keys = {f.name for record in records for f in fields(record)} - set(fixed)
    for key in kv:
        if key not in keys:
            raise ingest.DataFormatError(
                f"{path}: unknown key {key!r}; the keys are "
                f"{', '.join(sorted(keys))}")
    return kv


# ---------------------------------------------------------------------------
# Data loading shared by train/eval/simulate
# ---------------------------------------------------------------------------

def _find_ucr_pair(data_dir: Path):
    trains = sorted(data_dir.glob("*_TRAIN*"))
    tests = sorted(data_dir.glob("*_TEST*"))
    if not (trains and tests):
        raise ingest.DataFormatError(
            f"{data_dir}: neither a generated dataset nor a UCR train/test pair")
    return trains[0], tests[0]


def load_split_sequences(data_dir, kv: dict):
    """(train_seqs, test_seqs, n_classes, n_channels) by `_load_split`, with
    the `_SplitSettings` in `kv`."""
    split = datagen.read_record(_SplitSettings, kv, "split settings")
    return _load_split(data_dir, kv, split)[:4]


def _load_split(data_dir, kv: dict, split: _SplitSettings) -> tuple:
    """(train_seqs, test_seqs, n_classes, n_channels, digest).

    Generated data is split by `seed` and `train_fraction`, and `envelope`
    = 1 on it is a `DataFormatError`; a UCR pair keeps its split, enveloped
    when `envelope` is 1, and is windowed per `kv`'s `window_len` and
    `n_steps`, a missing or non-integer one a `DataFormatError`. `digest` is
    `datagen.rows_digest` of the row files read: a generated dataset's
    `rows.npy` (its `rows_sha256`) or a UCR pair's _TRAIN and _TEST files.
    """
    data_dir = Path(data_dir)
    manifest = data_dir / "manifest.txt"
    if manifest.exists():  # a generated dataset
        if split.envelope:
            raise ingest.DataFormatError(
                f"{manifest}: a generated dataset; envelope = 1 applies to "
                "UCR pairs only")
        ds = datagen.load_dataset(data_dir)
        train_idx, test_idx = datagen.stratified_split(
            [seq.label for seq in ds.sequences], split.train_fraction,
            split.seed)
        return ([ds.sequences[i] for i in train_idx],
                [ds.sequences[i] for i in test_idx],
                ds.n_classes, ds.n_channels, ds.digest)
    train_path, test_path = _find_ucr_pair(data_dir)
    cut = vars(datagen.read_record(_Cut, kv, data_dir))
    # one read per file: the bytes parsed are the bytes hashed
    blobs = [train_path.read_bytes(), test_path.read_bytes()]
    train_raw = ingest.load_ucr(train_path, blobs[0])
    test_raw = ingest.load_ucr(test_path, blobs[1])
    if split.envelope:
        train_raw = ingest.envelope_dataset(train_raw)
        test_raw = ingest.envelope_dataset(test_raw)
    train_raw, test_raw = ingest.normalize_and_split(
        train_raw, predefined_test=test_raw)
    train_seqs = ingest.dataset_to_sequences(train_raw, **cut)
    test_seqs = ingest.dataset_to_sequences(test_raw, **cut)
    return (train_seqs, test_seqs, train_raw.n_classes,
            train_raw.signals.shape[1],
            datagen.rows_digest((train_path, test_path), blobs))


def _held_out_split(model_dir, data_dir, cfg: model.NetworkConfig):
    """load_split_sequences with the split settings `train` recorded, if any.

    When `train` recorded the dataset digest, data with another digest is a
    `DataFormatError`, and so is data with another class count than `cfg`.
    """
    record = Path(model_dir) / "hyperparams.txt"
    kv = datagen.read_kv(record) if record.exists() else {}
    *split, digest = _load_split(data_dir, vars(cfg), datagen.read_record(
        _SplitSettings, kv, record))
    if "data_sha256" in kv and digest != kv["data_sha256"]:
        raise ingest.DataFormatError(
            f"{data_dir}: data sha256 {digest} differs from "
            f"{kv['data_sha256']}, the data {record} was trained on")
    if split[2] != cfg.n_classes:
        raise ingest.DataFormatError(
            f"model has {cfg.n_classes} classes, data has {split[2]}")
    return split


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args, argv) -> int:
    out = Path(args.out)
    # the settings every generator takes, then the ones its system adds
    extra = {"sine": {"beta": args.beta, "alpha": args.alpha},
             "lorenz": {"scale": args.scale}}.get(args.system, {})
    ds = getattr(datagen, f"make_{args.system}_dataset")(
        n_classes=args.classes, per_class=args.per_class,
        window_len=args.window, n_steps=args.steps,
        noise_amplitude=args.noise, seed=args.seed, **extra)
    datagen.save_dataset(ds, out)
    _write_manifest(argv, out, seed=args.seed)
    print(f"wrote {len(ds.sequences)} sequences ({ds.n_classes} classes) to {out}")
    return 0


def _cmd_embed(args, argv) -> int:
    ds = datagen.load_dataset(args.data)
    if ds.n_channels != 1:  # flattened windows would interleave channels
        raise ingest.DataFormatError(
            f"{args.data}: embed takes single-channel data, and this dataset "
            f"has {ds.n_channels} channels")
    signals = np.stack([seq.windows.ravel() for seq in ds.sequences])
    labels = np.array([seq.label for seq in ds.sequences])
    dm = analysis.fourier_distance(signals, labels=labels)
    scaled = analysis.rescale_distances(dm)
    emb = analysis.embed_2d(scaled, iters=args.iters, seed=args.seed,
                            metric=args.metric)
    corr = analysis.embedding_correlation(scaled, emb)
    out = Path(args.out)
    analysis.save_embedding(out, dm, emb)
    _write_manifest(argv, out, seed=args.seed)
    print(f"embedding energy {emb.energy:.6g}, correlation {corr:.4f}")
    return 0


def _cmd_train(args, argv) -> int:
    path = args.config
    # --precision sets the mode
    kv = _read_config(path, model.NetworkConfig, train_mod.TrainConfig,
                      _SplitSettings, fixed={"mode"})
    split = datagen.read_record(_SplitSettings, kv, path)
    # quantized training takes the larger step of the reference runs
    rate = {} if args.precision == "full" else {"learning_rate": 0.1}
    cfg = datagen.read_record(train_mod.TrainConfig, kv, path,
                              mode=args.precision, **rate)
    # n_classes and n_channels come from the data; 2 classes stand in until
    # it is read, and a value the config states must agree with it
    net_cfg = datagen.read_record(model.NetworkConfig, kv, path, n_classes=2)
    train_seqs, test_seqs, n_classes, n_channels, digest = \
        _load_split(args.data, kv, split)
    # a generated dataset fixes its windows; a UCR pair is cut per the config
    n_steps, width = train_seqs[0].windows.shape
    data = {"n_classes": n_classes, "n_channels": n_channels,
            "window_len": width // n_channels, "n_steps": n_steps}
    for key, value in data.items():
        if key in kv and getattr(net_cfg, key) != value:
            raise ingest.DataFormatError(
                f"{path}: {key} = {getattr(net_cfg, key)}, but the data in "
                f"{args.data} has {value}")
    net_cfg = replace(net_cfg, **data)
    result = train_mod.train(train_seqs, test_seqs, cfg, net_cfg)
    out = Path(args.out)
    # a binary/ternary run writes its codes, as `quantize` would
    model.save_network(out, result.params, net_cfg, mode=cfg.mode)
    datagen.write_kv(out / "hyperparams.txt", {
        **vars(cfg), **vars(split), "data_sha256": digest, **vars(net_cfg)})
    train_mod.write_trace(out / "trace.csv", result.loss_trace,
                          result.accuracy_trace)
    _write_manifest(argv, out, config_path=path, seed=split.seed)
    print(f"final loss {result.loss_trace[-1]:.4f}, "
          f"test accuracy {result.accuracy_trace[-1]:.4f}")
    return 0


def _cmd_quantize(args, argv) -> int:
    params, cfg, mode = model.load_network(args.model)
    if mode == "full":
        mode = "ternary"
    model.save_network(args.out, params, cfg, mode=mode)
    record = Path(args.model) / "hyperparams.txt"
    if record.exists():
        (Path(args.out) / "hyperparams.txt").write_text(record.read_text())
    _write_manifest(argv, args.out)
    qnet = quant.QuantizedNetwork.from_params(params, mode)
    codes = np.concatenate([c.ravel() for c in [qnet.gates, *qnet.conv_codes]])
    print(f"packed {mode} model: {qnet.weight_bits():,} weight bits, "
          f"{(codes == 0).mean():.1%} of gate and CNN codes zero -> {args.out}")
    return 0


def _cmd_eval(args, argv) -> int:
    params, cfg, mode = model.load_network(args.model)
    _, test_seqs, _, _ = _held_out_split(args.model, args.data, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        probs = train_mod.predict_probs(params, test_seqs, cfg, mode)
    if not np.isfinite(probs).all():
        raise ingest.DataFormatError(f"{args.model}: the float engine "
                                     "overflows on this network's weights")
    labels = np.array([s.label for s in test_seqs])
    if args.report == "accuracy":
        acc = float((probs.argmax(axis=1) == labels).mean())
        print(f"accuracy {acc:.4f}")
    elif args.report == "auc":
        print(f"auc {train_mod.auc_macro(labels, probs):.4f}")
    else:
        cm = train_mod.confusion_matrix(labels, probs.argmax(axis=1),
                                        cfg.n_classes)
        print("confusion matrix (rows = target, cols = predicted):")
        for row in cm:
            print(" ".join(f"{v:5d}" for v in row))
    return 0


def _cmd_simulate(args, argv) -> int:
    if args.limit < 0:
        raise _UsageError("--limit must not be negative")
    if args.trace and not args.out:
        raise _UsageError("--trace writes trace.csv under --out; give both")
    params, cfg, mode = model.load_network(args.model)
    if mode == "full":
        raise ingest.DataFormatError(
            "simulate needs a quantized model; run `quantize` first")
    _, test_seqs, _, _ = _held_out_split(args.model, args.data, cfg)
    # the activation format, a QFormat, is no key
    mc = datagen.read_record(fsm.MachineConfig, _read_config(
        args.machine, fsm.MachineConfig, fixed={"activation_format"}),
        args.machine) if args.machine else fsm.MachineConfig()
    qnet = quant.QuantizedNetwork.from_params(params, mode,
                                              mc.activation_format)
    banks = fsm.load_banks(qnet, mc)
    out = Path(args.out) if args.out else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    n = min(args.limit, len(test_seqs)) if args.limit else len(test_seqs)
    seqs = test_seqs[:n]
    raw = fxp.to_raw(np.stack([seq.windows for seq in seqs]),
                     mc.activation_format)
    trace = (out / "trace.csv") if args.trace else None
    preds, report = fsm.run_inference(raw, banks, cfg, mc, trace_path=trace)
    correct = int((preds == np.array([seq.label for seq in seqs])).sum())
    print(f"simulated {n} inferences, accuracy {correct / n:.4f}")
    # the datapath clips every logit to the format, and argmax breaks ties
    # to the lowest class: say how often either decided an output
    logits, fmt = banks.im["logits"], mc.activation_format
    at_limits = int(np.isin(logits, (fmt.raw_min, fmt.raw_max)).sum())
    tied = int(((logits == logits.max(axis=1, keepdims=True)).sum(axis=1)
                > 1).sum())
    print(f"final logits at the {fmt} limits {at_limits} of {logits.size}")
    print(f"predictions tied at the maximum {tied} of {n}")
    print(report.summary())
    if out is not None:
        (out / "cycle_report.txt").write_text(report.summary() + "\n")
        (out / "cycle_report.csv").write_text(report.csv())
        _write_manifest(argv, out)
    return 0


def _cmd_estimate(args, argv) -> int:
    # a residual add costs no MACs and no weight bits
    kv = _read_config(args.config, model.NetworkConfig, _Throughput,
                      fixed={"residual"})
    net = datagen.read_record(model.NetworkConfig, kv, args.config,
                              n_classes=2)
    no_cnn = replace(net, use_cnn=False, residual=False)
    print(estimate.estimate_table(no_cnn, net if net.use_cnn else no_cnn))
    gops = datagen.read_record(_Throughput, kv, args.config).gops
    paper = estimate.mac_count(no_cnn, "window", "paper")
    rt = estimate.response_time(paper, gops)
    print(f"response time at {gops} GOPs: {rt * 1e6:.1f} us per window")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="qcnnlstm", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--system", required=True,
                   choices=("logistic", "lorenz", "sine"))
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--per-class", type=int, default=20)
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=20)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--noise", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--alpha", type=float, default=3.0)
    p.add_argument("--scale", type=float, default=40.0)

    p = sub.add_parser("embed", help="Fourier distances + 2-D embedding")
    p.add_argument("--data", required=True)
    p.add_argument("--iters", type=int, default=100_000)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--metric", choices=analysis.METRICS, default="euclidean")

    p = sub.add_parser("train", help="train a classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--precision", choices=("full", "ternary", "binary"),
                   default="full")
    p.add_argument("--out", required=True)

    p = sub.add_parser("quantize", help="write a model as 2-bit codes")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="evaluate a model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", choices=("accuracy", "auc", "confusion"),
                   default="accuracy")

    p = sub.add_parser("simulate", help="run the cycle-accurate simulator")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--machine", default=None)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--limit", type=int, default=0)

    p = sub.add_parser("estimate", help="memory/MAC/latency estimates")
    p.add_argument("--config", required=True)
    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "embed": _cmd_embed,
    "train": _cmd_train,
    "quantize": _cmd_quantize,
    "eval": _cmd_eval,
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
}


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return USAGE_ERROR
        return _HANDLERS[args.command](args, argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    except (OSError, ValueError, fsm.BankCapacityError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
