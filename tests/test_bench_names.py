"""The benchmark under `bench/` still finds every package name it uses.

`bench/` wraps and calls package functions by name, so a name deleted from
the package breaks the benchmark only when it runs. These tests read
`bench/*.py` without running it: every `from qcnnlstm... import`, every
`<module>.<name>` chain on an imported `qcnnlstm` module and every
`trace_targets()` entry must resolve through `inspect.getattr_static`, the
lookup `bench/tracer.py` installs its wrappers with. Fields `bench/` reads
from instances, which no static lookup sees, are pinned by name.
"""

import ast
import importlib
import inspect
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from qcnnlstm import datagen, fsm, quant, train

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _resolves(owner, attrs) -> bool:
    for attr in attrs:
        try:
            owner = inspect.getattr_static(owner, attr)
        except AttributeError:
            return False
    return True


def _unresolved(path: Path) -> list:
    """`file:line: name` for each package name `path` uses that is missing."""
    tree = ast.parse(path.read_text(), str(path))
    modules, missing = {}, []  # local name -> imported qcnnlstm module
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 0 and
                (node.module or "").split(".")[0] == "qcnnlstm"):
            continue
        package = importlib.import_module(node.module)
        for alias in node.names:
            name = f"{node.module}.{alias.name}"
            if node.module == "qcnnlstm" and \
                    importlib.util.find_spec(name) is not None:
                modules[alias.asname or alias.name] = importlib.import_module(
                    name)
            elif not _resolves(package, [alias.name]):
                missing.append(f"{path.name}:{node.lineno}: {name}")
    inner = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        attrs, base = [], node
        while isinstance(base, ast.Attribute):
            attrs.insert(0, base.attr)
            base = base.value
        if isinstance(base, ast.Name) and base.id in modules and \
                not _resolves(modules[base.id], attrs):
            missing.append(f"{path.name}:{node.lineno}: "
                           f"{modules[base.id].__name__}.{'.'.join(attrs)}")
    return missing


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_package_name_in_bench_resolves(path):
    assert _unresolved(path) == []


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    targets = importlib.import_module("workloads").trace_targets()
    assert targets
    assert [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _ in targets
            if not _resolves(owner, [attr])] == []


def test_a_deleted_name_is_reported(tmp_path):
    source = tmp_path / "uses.py"
    source.write_text("from qcnnlstm import fsm, model\n"
                      "from qcnnlstm.cli import dispatch, dataset_digest\n"
                      "fsm.MemoryBanks.wb_read, model.FcParams, fsm.nope.x\n")
    assert _unresolved(source) == [
        "uses.py:2: qcnnlstm.cli.dataset_digest",
        "uses.py:3: qcnnlstm.model.FcParams",
        "uses.py:3: qcnnlstm.fsm.nope.x"]


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
