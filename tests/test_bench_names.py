"""The benchmark under `bench/` still finds every package name it uses.

`bench/` wraps and calls package functions by name, so a name deleted from
the package breaks the benchmark only when it runs. These tests read
`bench/*.py` without running it: every `from qcnnlstm... import`, every
`<module>.<name>` chain on an imported `qcnnlstm` module and every
`trace_targets()` entry must resolve through `inspect.getattr_static`, the
lookup `bench/tracer.py` installs its wrappers with, and every keyword a
call passes to a package callable must be one of its parameters. Fields
`bench/` reads from instances, which no static lookup sees, are pinned by
name. A traced name the package no longer calls resolves but reads 0, so
one test also runs a tiny CLI pipeline and counts the calls on each.
"""

import ast
import functools
import importlib
import inspect
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from qcnnlstm import cli, datagen, fsm, model, quant, train

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _resolves(owner, attrs) -> bool:
    for attr in attrs:
        try:
            owner = inspect.getattr_static(owner, attr)
        except AttributeError:
            return False
    return True


def _imports(tree, path: Path) -> tuple[dict, list]:
    """(local name -> what a `from qcnnlstm... import` binds it to, the
    `file:line: name` of each imported name that is missing)."""
    bound, missing = {}, []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 0 and
                (node.module or "").split(".")[0] == "qcnnlstm"):
            continue
        package = importlib.import_module(node.module)
        for alias in node.names:
            name = f"{node.module}.{alias.name}"
            local = alias.asname or alias.name
            if node.module == "qcnnlstm" and \
                    importlib.util.find_spec(name) is not None:
                bound[local] = importlib.import_module(name)
            elif _resolves(package, [alias.name]):
                bound[local] = getattr(package, alias.name)
            else:
                missing.append(f"{path.name}:{node.lineno}: {name}")
    return bound, missing


def _chain(node) -> tuple:
    """(base name or None, [attr, ...]) of `base.attr.attr` expressions."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.insert(0, node.attr)
        node = node.value
    return (node.id if isinstance(node, ast.Name) else None), attrs


def _unresolved(path: Path) -> list:
    """`file:line: name` for each package name `path` uses that is missing."""
    tree = ast.parse(path.read_text(), str(path))
    bound, missing = _imports(tree, path)
    modules = {k: v for k, v in bound.items() if inspect.ismodule(v)}
    inner = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        base, attrs = _chain(node)
        if base in modules and not _resolves(modules[base], attrs):
            missing.append(f"{path.name}:{node.lineno}: "
                           f"{modules[base].__name__}.{'.'.join(attrs)}")
    return missing


def _unknown_keywords(path: Path) -> list:
    """`file:line: callee(keyword=)` for each keyword `path` passes to a
    package callable that has no parameter of that name."""
    tree = ast.parse(path.read_text(), str(path))
    bound, _ = _imports(tree, path)
    unknown = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        base, attrs = _chain(node.func)
        if base not in bound or not _resolves(bound[base], attrs):
            continue  # not the package's, or missing: `_unresolved` says so
        params = inspect.signature(
            functools.reduce(getattr, attrs, bound[base])).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        callee = ".".join([base] + attrs)
        unknown += [f"{path.name}:{node.lineno}: {callee}({kw.arg}=)"
                    for kw in node.keywords
                    if kw.arg is not None and kw.arg not in params]
    return sorted(unknown)


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_package_name_in_bench_resolves(path):
    assert _unresolved(path) == []


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_keyword_bench_passes_is_a_parameter(path):
    assert _unknown_keywords(path) == []


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    targets = importlib.import_module("workloads").trace_targets()
    assert targets
    assert [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _ in targets
            if not _resolves(owner, [attr])] == []


def test_every_trace_target_is_reached(monkeypatch, tmp_path):
    """A tiny pipeline through `cli.dispatch` calls every traced name, so
    none reads 0 in the benchmark because the package stopped calling it."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    targets = importlib.import_module("workloads").trace_targets()
    calls = Counter()

    def counted(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    names = []
    for owner, attr, _ in targets:
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        raw = inspect.getattr_static(owner, attr)
        monkeypatch.setattr(owner, attr,
                            classmethod(counted(raw.__func__, name))
                            if isinstance(raw, classmethod) else
                            counted(raw, name))
        names.append(name)
    # `model._lut` caches the table fold that `fxp.lut_index_raw` feeds, so
    # the fold would not run for a table an earlier test already built; the
    # bank bookings run on every call, cached schedule or not
    model._lut.cache_clear()

    def run(*argv):
        assert cli.dispatch([str(a) for a in argv]) == 0

    ds, net, ucr = tmp_path / "ds", tmp_path / "net", tmp_path / "ucr"
    run("gen", "--system", "sine", "--classes", 2, "--per-class", 4,
        "--window", 4, "--steps", 2, "--out", ds)
    cfg = tmp_path / "net.cfg"
    cfg.write_text("window_len = 4\nn_steps = 2\nn_hidden = 3\n"
                   "conv_layers = 2x3\nepochs = 1\n")
    run("train", "--data", ds, "--config", cfg, "--precision", "ternary",
        "--out", net)
    run("eval", "--model", net, "--data", ds)
    run("simulate", "--model", net, "--data", ds)
    ucr.mkdir()
    rng = np.random.default_rng(0)
    for split in ("TRAIN", "TEST"):
        rows = [f"{k % 2}\t" + "\t".join(map(str, rng.uniform(-1, 1, 8)))
                for k in range(6)]
        (ucr / f"X_{split}.tsv").write_text("\n".join(rows) + "\n")
    run("train", "--data", ucr, "--config", cfg, "--out", tmp_path / "ucr_net")
    run("eval", "--model", tmp_path / "ucr_net", "--data", ucr)
    assert [name for name in names if not calls[name]] == []


def test_a_deleted_name_is_reported(tmp_path):
    source = tmp_path / "uses.py"
    source.write_text("from qcnnlstm import fsm, model\n"
                      "from qcnnlstm.cli import dispatch, dataset_digest\n"
                      "fsm.MemoryBanks.wb_read, model.FcParams, fsm.nope.x\n")
    assert _unresolved(source) == [
        "uses.py:2: qcnnlstm.cli.dataset_digest",
        "uses.py:3: qcnnlstm.model.FcParams",
        "uses.py:3: qcnnlstm.fsm.nope.x"]


def test_an_unknown_keyword_is_reported(tmp_path):
    source = tmp_path / "uses.py"
    source.write_text("from qcnnlstm import model, train\n"
                      "from qcnnlstm.train import TrainConfig\n"
                      "TrainConfig(batch_size=8, augment_noise=0.1)\n"
                      "train.init_params(net, init_scale=1.0, scale=2)\n"
                      "model.save_network(d, p, c, mode='ternary', **kw)\n"
                      "len(x, y=1), model.NetworkConfig(4, 2, 3, 2)\n")
    assert _unknown_keywords(source) == [
        "uses.py:3: TrainConfig(augment_noise=)",
        "uses.py:4: train.init_params(scale=)"]


def test_instance_fields_bench_reads_exist():
    # workloads.py: `qnet.gate_codes`, `result.loss_trace`; run.py: the
    # simulator's report
    def names(cls):
        return {f.name for f in fields(cls)}

    assert "gate_codes" in names(quant.QuantizedNetwork)
    assert {"total_cycles", "worst_window_cycles", "cycles_per_state",
            "executed_macs", "wb_bits_read",
            "im_bits_transferred"} <= names(fsm.CycleReport)
    assert "loss_trace" in names(train.TrainResult)


def test_positional_fields_bench_constructs_exist():
    # workloads.py::gesture_dataset builds both dataclasses positionally
    assert [f.name for f in fields(datagen.WindowedSequence)][:2] == \
        ["windows", "label"]
    assert [f.name for f in fields(datagen.SyntheticDataset)][:8] == \
        ["sequences", "class_params", "noise_amplitude", "generator",
         "window_len", "n_steps", "n_channels", "seed"]
