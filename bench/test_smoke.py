"""Smoke test of the benchmark harness, kept out of the package's test suite.

    python3 -m pytest bench/test_smoke.py -q

`run.py --smoke` runs every workload untraced and traced at minimum length
(about a minute and a half on two cores).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_smoke_prints_every_named_metric_and_passes_every_gate():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"], proc.stdout
    assert summary["failed"] == 0 and summary["attempted"] > 0

    wanted = {f"{w['name']}/{m['name']}": m
              for w in spec["workloads"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    assert set(summary["metrics"]) == set(wanted)
    for key, m in wanted.items():
        got = summary["metrics"][key]
        assert got["unit"] == m["unit"], key
        assert isinstance(got["value"], (int, float)), key
        if "bound" in m:
            assert got["value"] > 0, key


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "ecg200", "--seed", "0", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
