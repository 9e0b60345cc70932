"""A seeded fuzzer for the reader of a generated dataset.

Each example spoils one thing in a tiny `gen` dataset, manifest.txt or
rows.npy, then runs `train` and `eval` on it in-process: each must exit 0
or 2, with no traceback on stderr.
"""

import contextlib
import io
import shutil
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcnnlstm import cli, datagen

#: what a manifest value becomes; REPEAT writes the key's line twice
REPEAT = object()
VALUES = ["0", "-1", "nan", "inf", "1e300", "", "ten", REPEAT]
KEYS = ["generator", "classes", "class_params", "noise_amplitude",
        "window_len", "n_steps", "n_channels", "seed", "beta", "alpha", "dt",
        "rows_sha256"]
LABELS = [2.0, 7.0, 1e300, -1.0, 0.5]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Two classes of four 2 x 4 sine sequences and a train config."""
    root = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.dispatch(["gen", "--system", "sine", "--classes", "2",
                             "--per-class", "4", "--window", "4", "--steps",
                             "2", "--out", str(root / "ds")]) == 0
    (root / "c.cfg").write_text("window_len = 4\nn_steps = 2\nn_hidden = 3\n"
                                "use_cnn = 0\nepochs = 1\nbatch_size = 4\n")
    return root


def _redigest(d: Path) -> None:
    manifest = d / "manifest.txt"
    kv = datagen.read_kv(manifest)
    datagen.write_kv(manifest, {**kv, "rows_sha256": datagen.rows_digest(
        [d / datagen.ROWS_NPY])})


def _spoil_manifest(d: Path, key: str, value) -> None:
    manifest = d / "manifest.txt"
    lines = manifest.read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith(key + " "))
    lines[at:at + 1] = [lines[at]] * 2 if value is REPEAT else \
        [f"{key} = {value}\n"]
    manifest.write_text("".join(lines))


def _spoil_rows(d: Path, how: str, where: int, what) -> None:
    npy = d / datagen.ROWS_NPY
    data = bytearray(npy.read_bytes())
    if how == "truncate":
        del data[where % len(data):]
    elif how == "flip":
        data[where % len(data)] ^= what
    else:
        rows = np.load(io.BytesIO(bytes(data)))
        rows[where % len(rows), 0] = what
        buf = io.BytesIO()
        np.save(buf, rows)
        data = bytearray(buf.getvalue())
    npy.write_bytes(bytes(data))
    _redigest(d)


SPOILS = st.one_of(
    st.tuples(st.just(_spoil_manifest), st.sampled_from(KEYS),
              st.sampled_from(VALUES)),
    st.tuples(st.just(_spoil_rows), st.just("truncate"),
              st.integers(0, 10_000), st.none()),
    st.tuples(st.just(_spoil_rows), st.just("flip"), st.integers(0, 10_000),
              st.integers(1, 255)),
    st.tuples(st.just(_spoil_rows), st.just("label"), st.integers(0, 7),
              st.sampled_from(LABELS)),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(spoil=SPOILS)
def test_spoiled_dataset_exits_0_or_2_without_a_traceback(tiny, spoil):
    with tempfile.TemporaryDirectory() as tmp:
        data, model_dir = Path(tmp) / "ds", Path(tmp) / "m"
        shutil.copytree(tiny / "ds", data)
        spoil[0](data, *spoil[1:])
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.dispatch(["train", "--data", str(data), "--config",
                                   str(tiny / "c.cfg"), "--out",
                                   str(model_dir)]),
                     cli.dispatch(["eval", "--model", str(model_dir),
                                   "--data", str(data)])]
    assert set(codes) <= {0, 2}, (codes, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_header_shape_beyond_the_file_is_rejected_before_allocating(
        tmp_path):
    buf = io.BytesIO()
    np.save(buf, np.zeros((4, 9)))
    # the header, its length kept, claims 4 x 10^9 float64 values (32 GB)
    # over 288 bytes
    data = buf.getvalue().replace(b"(4, 9), }" + b" " * 9,
                                  b"(4, 1000000000), }", 1)
    tracemalloc.start()
    try:
        with pytest.raises(datagen.DataFormatError,
                           match=r"rows\.npy: not a \.npy array \(a header "
                                 r"for shape \(4, 1000000000\)"):
            datagen._read_rows(tmp_path / datagen.ROWS_NPY, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
