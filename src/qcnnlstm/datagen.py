"""Synthetic class datasets, the window cut, and the shared on-disk forms.

Classes are discrete parameter regimes of the logistic map, the Lorenz
system, or a sine bank with linearly spaced frequencies. Realizations of one
class differ by initial condition (chaotic systems) and additive uniform
noise; every generator takes `n_classes` first, computes all realizations
in one call of its signal maker and is deterministic per seed.
`save_dataset` and `load_dataset` are the one writer and reader of a
generated dataset.
"""

from __future__ import annotations

import hashlib
import io
import math
import tokenize
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

__all__ = [
    "WindowedSequence",
    "SyntheticDataset",
    "logistic_series",
    "lorenz_series",
    "sine_bank_series",
    "make_windows",
    "make_logistic_dataset",
    "make_lorenz_dataset",
    "make_sine_dataset",
    "DataFormatError",
    "read_kv",
    "read_record",
    "write_kv",
    "parse_rows",
    "stratified_split",
    "rows_digest",
    "save_dataset",
    "load_dataset",
]

@dataclass
class WindowedSequence:
    """q windows of length channels*window_len plus one class label."""

    windows: np.ndarray  # (n_steps, n_channels * window_len)
    label: int


@dataclass
class SyntheticDataset:
    sequences: list
    class_params: list
    noise_amplitude: float
    generator: str = ""
    window_len: int = 0
    n_steps: int = 0
    n_channels: int = 1
    seed: int = 0
    extra: dict = field(default_factory=dict)
    digest: str = ""  # `load_dataset`: the `rows_digest` of its rows.npy

    @property
    def n_classes(self) -> int:
        return len(self.class_params)


def logistic_series(r, x0, n_samples: int, transient: int = 0) -> np.ndarray:
    """Iterate x <- r*x*(1-x) per element of `r` and `x0`, scalars or arrays
    of one shape; n_samples values after the transient, on the last axis."""
    if not np.all((0.0 < x0) & (x0 < 1.0)):
        raise ValueError("x0 must lie in (0, 1)")
    if not np.all((0.0 < r) & (r <= 4.0)):
        raise ValueError("r must lie in (0, 4]")
    if n_samples < 1 or transient < 0:
        raise ValueError("bad sample counts")
    x = np.asarray(x0, dtype=np.float64)
    out = np.empty(x.shape + (n_samples,))
    for _ in range(transient):
        x = r * x * (1.0 - x)
    for i in range(n_samples):
        x = r * x * (1.0 - x)
        out[..., i] = x
    return out


def _lorenz_deriv(state, sigma, rho, beta):
    x, y, z = state
    return np.array([sigma * (y - x), x * (rho - z) - y, x * y - beta * z])


def lorenz_series(sigma, rho: float = 28.0, beta: float = 5.0 / 3.0,
                  initial=(1.0, 1.0, 1.0), dt: float = 0.01,
                  n_samples: int = 1000, transient: int = 1000,
                  scale: float = 40.0) -> np.ndarray:
    """RK4-integrate the Lorenz system, one orbit per element of `sigma`
    (shape S) and row of `initial` (*S, 3), or a single one; return
    x(t)/scale after the transient, on the last axis.

    The scaled trajectories must stay inside [-1, 1]; a scale that is too
    small or a diverging dt is reported rather than silently clipped.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if transient < 0:
        raise ValueError("transient must be >= 0")
    if n_samples < 1:
        raise ValueError("bad sample counts")
    if scale <= 0:
        raise ValueError("scale must be positive")
    state = np.moveaxis(np.asarray(initial, dtype=np.float64), -1, 0)
    xs = np.empty(state.shape[1:] + (n_samples,))
    for i in range(transient + n_samples):
        k1 = _lorenz_deriv(state, sigma, rho, beta)
        k2 = _lorenz_deriv(state + 0.5 * dt * k1, sigma, rho, beta)
        k3 = _lorenz_deriv(state + 0.5 * dt * k2, sigma, rho, beta)
        k4 = _lorenz_deriv(state + dt * k3, sigma, rho, beta)
        state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if i >= transient:
            xs[..., i - transient] = state[0]
    xs /= scale
    if not np.abs(xs).max() <= 1.0:  # nan when the integration diverged
        raise ValueError(f"scaled trajectory exits [-1, 1] (max |x|/scale = "
                         f"{np.abs(xs).max():.3f}); increase scale or lower dt")
    return xs


def sine_bank_series(class_idx: int, beta: float, t_grid,
                     alpha: float = 3.0) -> np.ndarray:
    """Channel j of the sine bank: sin(t * (alpha + j*beta)) on t_grid; a
    column of channels (N, 1) gives a row per channel."""
    t = np.asarray(t_grid, dtype=np.float64)
    return np.sin(t * (alpha + class_idx * beta))


def make_windows(signals, window_len: int, n_steps: int) -> np.ndarray:
    """Cut q consecutive non-overlapping windows from each recording.

    `signals` is (..., channels, T), or (T,) for one channel; the windows
    come back as a new array (..., n_steps, channels*window_len), each
    window channel 0's samples, then channel 1's and so on.
    """
    if min(window_len, n_steps) < 1:
        raise ValueError(f"window_len = {window_len}, n_steps = {n_steps}; "
                         "a window cut needs both at least 1")
    sig = np.atleast_2d(np.asarray(signals, dtype=np.float64))
    *lead, m, t_len = sig.shape
    needed = n_steps * window_len
    if t_len < needed:
        raise ValueError(f"signal length {t_len} < n_steps*window_len = {needed}")
    cut = sig[..., :needed].reshape(*lead, m, n_steps, window_len)
    return np.swapaxes(cut, -3, -2).copy().reshape(*lead, n_steps,
                                                   m * window_len)


def _dataset(generator, class_params, make_signal, per_class, window_len,
             n_steps, noise_amplitude, seed, extra=None):
    for name, size, least in (("classes", len(class_params), 2),
                              ("per_class", per_class, 1),
                              ("window_len", window_len, 1),
                              ("n_steps", n_steps, 1)):
        if size < least:
            raise ValueError(f"{name} = {size}; a dataset needs at least "
                             f"{least}")
    for name, value in {"noise_amplitude": noise_amplitude,
                        **(extra or {})}.items():
        if not np.isfinite(value) or (name == "noise_amplitude" and value < 0):
            raise ValueError(f"{name} = {value}; a dataset needs finite "
                             "settings and a noise amplitude of at least 0")
    root = np.random.default_rng(seed)
    labels = [k for k in range(len(class_params)) for _ in range(per_class)]
    seeds = [int(root.integers(0, 2**63 - 1)) for _ in labels]
    signals = make_signal(np.asarray(class_params)[labels],
                          [np.random.default_rng(s) for s in seeds])
    windows = make_windows(signals[:, None], window_len, n_steps)
    if noise_amplitude > 0.0:
        # uniform in [-amplitude, +amplitude], each realization's from a
        # fresh stream seeded by its seed
        for w, s in zip(windows, seeds):
            w += np.random.default_rng(s).uniform(
                -noise_amplitude, noise_amplitude, w.shape)
    return SyntheticDataset(list(map(WindowedSequence, windows, labels)),
                            list(class_params), noise_amplitude, generator,
                            window_len, n_steps, seed=seed, extra=extra or {})


def make_logistic_dataset(n_classes: int = 5, per_class: int = 20,
                          window_len: int = 20, n_steps: int = 5,
                          noise_amplitude: float = 0.01, seed: int = 0,
                          transient: int = 100) -> SyntheticDataset:
    def gen(r, rngs):
        x0 = np.array([rng.uniform(0.1, 0.9) for rng in rngs])
        return logistic_series(r, x0, window_len * n_steps, transient)

    return _dataset("logistic", np.linspace(3.6, 4.0, n_classes), gen,
                    per_class, window_len, n_steps, noise_amplitude, seed)


def make_lorenz_dataset(n_classes: int = 5, per_class: int = 20,
                        window_len: int = 20, n_steps: int = 5,
                        noise_amplitude: float = 0.01, seed: int = 0,
                        scale: float = 40.0, dt: float = 0.01,
                        transient: int = 1000) -> SyntheticDataset:
    def gen(sigma, rngs):
        initial = 1.0 + np.array([rng.uniform(-0.5, 0.5, 3) for rng in rngs])
        return lorenz_series(sigma, initial=initial, dt=dt,
                             n_samples=window_len * n_steps,
                             transient=transient, scale=scale)

    return _dataset("lorenz", np.linspace(8.0, 18.0, n_classes), gen,
                    per_class, window_len, n_steps, noise_amplitude, seed,
                    extra={"scale": scale, "dt": dt})


def make_sine_dataset(n_classes: int = 5, beta: float = 0.1,
                      per_class: int = 30, window_len: int = 20,
                      n_steps: int = 5, dt: float = 0.1,
                      noise_amplitude: float = 0.05, seed: int = 0,
                      alpha: float = 3.0) -> SyntheticDataset:
    """Sine-bank classes: same deterministic waveform per class, noisy copies."""
    t = np.arange(window_len * n_steps) * dt

    def gen(j, rngs):
        return sine_bank_series(j[:, None], beta, t, alpha)

    return _dataset("sine", list(range(n_classes)), gen, per_class, window_len,
                    n_steps, noise_amplitude, seed,
                    extra={"beta": beta, "alpha": alpha, "dt": dt})


# ---------------------------------------------------------------------------
# On-disk forms for every dataset: key = value files, checked numeric rows
# (label first), and a generated dataset (rows.npy, all channels per row).
# ---------------------------------------------------------------------------

class DataFormatError(ValueError):
    """Input data that does not parse or does not fit; reported path:line."""


def _read_text(path) -> str:
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{path}: no such file")
    return path.read_text()


def read_kv(path) -> dict:
    """Flat `key = value` lines; `#` starts a comment, blank lines are skipped."""
    kv = {}
    for ln, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DataFormatError(f"{path}:{ln}: expected key = value, "
                                  f"got {line!r}")
        kv[key.strip()] = value.strip()
    return kv


def write_kv(path, kv: dict) -> None:
    """`key = value` lines in `kv`'s order, as `read_kv` and `read_record`
    read them back: bools as 0/1, (filters, width) pairs as `FxM;FxM`."""
    def text(value) -> str:
        if isinstance(value, bool):
            return str(int(value))
        if isinstance(value, tuple):
            return ";".join(f"{f}x{m}" for f, m in value)
        return str(value)
    Path(path).write_text("".join(f"{key} = {text(value)}\n"
                                  for key, value in kv.items()))


def _finite(text: str) -> float:
    """float(text); nan and inf, which no setting takes, raise ValueError."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(text)
    return value


#: a field's declared type -> (its parser, which raises ValueError or
#: KeyError on a value that does not parse; what a value must look like)
_PARSERS = {
    "str": (str, "text"),
    "int": (int, "an integer"),
    "float": (_finite, "a number"),
    "list": (lambda text: [_finite(x) for x in text.split(",")],
             "numbers separated by commas"),
    "bool": ({"0": False, "1": True}.__getitem__, "0 or 1"),
    "tuple": (lambda text: tuple(tuple(int(x) for x in pair.split("x"))
                                 for pair in text.split(";") if pair),
              "FxM;FxM pairs"),
}


def read_record(cls, kv: dict, path, **defaults):
    """The dataclass `cls` from `read_kv`'s strings, each value parsed by
    its field's declared type; keys that name no field are ignored.

    A field `kv` lacks takes `defaults`, then the dataclass default. A
    required field found in neither, a value that does not parse and a
    value the dataclass rejects are `DataFormatError`s naming `path`.
    """
    values = dict(defaults)
    for f in fields(cls):
        if f.name in kv:
            parse, form = _PARSERS[getattr(f.type, "__name__", f.type)]
            try:
                values[f.name] = parse(kv[f.name])
            except (ValueError, KeyError):
                raise DataFormatError(f"{path}: {f.name} = {kv[f.name]} is "
                                      f"not {form}") from None
        elif f.name not in values and f.default is MISSING:
            raise DataFormatError(f"{path}: missing key {f.name!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def parse_rows(path, data: bytes | None = None) -> np.ndarray:
    """Tab- or comma-separated numeric rows of one width, as a 2-D array.

    `data` is the file's bytes when the caller has already read them (to
    hash them, say); otherwise the file is read here. Blank lines are
    skipped. A non-numeric token, a non-finite value, a row of another
    width and an empty file are `DataFormatError`s at path:line.
    """
    text = _read_text(path) if data is None else data.decode()
    rows = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        sep = "\t" if "\t" in line else ","
        try:
            row = np.array([t for t in line.split(sep) if t], dtype=np.float64)
        except ValueError as exc:
            raise DataFormatError(f"{path}:{ln}: non-numeric token") from exc
        if not np.isfinite(row).all():
            raise DataFormatError(f"{path}:{ln}: non-finite value")
        if rows and len(row) != len(rows[0]):
            raise DataFormatError(f"{path}:{ln}: expected {len(rows[0])} "
                                  f"columns, got {len(row)}")
        rows.append(row)
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    return np.array(rows)


def stratified_split(labels, train_fraction: float, seed: int):
    """Sorted (train_idx, test_idx): round(fraction * n) of each class trains.

    Classes are visited in sorted order, each shuffled by one permutation
    drawn from `seed`. A class left out of either split is a
    `DataFormatError`.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        idx = idx[rng.permutation(len(idx))]
        n_train = int(round(train_fraction * len(idx)))
        if not 0 < n_train < len(idx):
            raise DataFormatError(f"class {label} is absent from one of the "
                                  f"splits ({n_train} of {len(idx)} train)")
        train_idx.extend(idx[:n_train].tolist())
        test_idx.extend(idx[n_train:].tolist())
    return sorted(train_idx), sorted(test_idx)


ROWS_NPY = "rows.npy"
_DIGEST_KEY = "rows_sha256"


def rows_digest(paths, blobs=None) -> str:
    """sha256 over the files' names, sizes and bytes, in the order given.

    `blobs` holds the files' bytes, in the same order, when the caller has
    already read them to parse; otherwise the files are read here.
    """
    h = hashlib.sha256()
    for i, path in enumerate(map(Path, paths)):
        data = path.read_bytes() if blobs is None else blobs[i]
        h.update(f"{path.name}\t{len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def save_dataset(ds: SyntheticDataset, out_dir) -> None:
    """Write `ds` as `rows.npy`, a float64 row per sequence (the label, then
    channel 0's un-windowed samples, channel 1's and so on), and manifest.txt
    (the generator settings, then `rows_sha256`, `rows.npy`'s `rows_digest`).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n, c = len(ds.sequences), ds.n_channels
    signals = (np.stack([seq.windows for seq in ds.sequences])
               .reshape(n, ds.n_steps, c, ds.window_len)
               .transpose(0, 2, 1, 3).reshape(n, -1))
    rows = np.column_stack([np.array([seq.label for seq in ds.sequences],
                                     dtype=np.float64), signals])
    npy = out / ROWS_NPY
    np.save(npy, rows, allow_pickle=False)
    write_kv(out / "manifest.txt", {
        "generator": ds.generator,
        "classes": ds.n_classes,
        "class_params": ",".join(repr(float(p)) for p in ds.class_params),
        "noise_amplitude": repr(float(ds.noise_amplitude)),
        "window_len": ds.window_len,
        "n_steps": ds.n_steps,
        "n_channels": c,
        "seed": ds.seed,
        **ds.extra,
        _DIGEST_KEY: rows_digest([npy])})


def _check_rows(path, labels, ok, what: str) -> None:
    """A `DataFormatError` at the first row of `path` where `ok` is False;
    `what` may name that row's `{label}`."""
    if not ok.all():
        row = int(np.argmin(ok))
        raise DataFormatError(f"{path}: row {row + 1}: "
                              + what.format(label=labels[row]))


def _read_rows(npy, data: bytes) -> np.ndarray:
    """The array in `data`, the bytes of `npy`, as a read-only view of them;
    a header whose shape does not account for exactly the bytes after it is
    a `DataFormatError` raised before anything is allocated."""
    fp, fmt = io.BytesIO(data), np.lib.format
    try:
        shape, fortran, dtype = (fmt.read_array_header_1_0 if fmt.read_magic(
            fp) == (1, 0) else fmt.read_array_header_2_0)(fp)
        if math.prod(shape) * dtype.itemsize != len(data) - fp.tell():
            raise ValueError(f"a header for shape {shape} of {dtype}, then "
                             f"{len(data) - fp.tell()} bytes")
        return np.frombuffer(data, dtype, offset=fp.tell()).reshape(
            shape, order="F" if fortran else "C")
    # numpy re-reads a header that does not parse with `tokenize`
    except (ValueError, EOFError, tokenize.TokenError) as exc:
        raise DataFormatError(f"{npy}: not a .npy array ({exc})") from None


@dataclass(frozen=True)
class _Generated:
    """The manifest keys `load_dataset` reads beyond the digest."""

    generator: str
    classes: int
    class_params: list
    noise_amplitude: float
    window_len: int
    n_steps: int
    seed: int
    n_channels: int = 1

    def __post_init__(self):
        if min(self.window_len, self.n_steps) < 1:
            raise ValueError("window_len and n_steps must be positive")
        if self.classes != len(self.class_params):
            raise ValueError(f"classes = {self.classes}, but class_params "
                             f"holds {len(self.class_params)} values")
        if self.noise_amplitude < 0:
            raise ValueError(f"noise_amplitude = {self.noise_amplitude}; "
                             "a noise amplitude is at least 0")


def load_dataset(in_dir) -> SyntheticDataset:
    """The dataset `save_dataset` wrote, its `digest` the `rows_digest` of
    `rows.npy`, which must match the manifest's `rows_sha256` and hold
    non-empty, finite float64 rows: a label below the class count, then
    `n_channels` blocks of `n_steps` x `window_len` samples. The manifest's
    `classes` must count its `class_params`, and its `noise_amplitude` must
    be at least 0. Anything else, a missing key and a key that does not
    parse are `DataFormatError`s naming the file at fault."""
    src = Path(in_dir)
    manifest, npy = src / "manifest.txt", src / ROWS_NPY
    kv = read_kv(manifest)
    want = kv.pop(_DIGEST_KEY, None)
    if want is None:
        raise DataFormatError(f"{manifest}: no {_DIGEST_KEY}; the container "
                              "predates rows.npy as its one form, regenerate "
                              "it with `gen`")
    if not npy.exists():
        raise DataFormatError(f"{npy}: no such file")
    data = npy.read_bytes()
    digest = rows_digest([npy], [data])
    if digest != want:
        raise DataFormatError(f"{npy}: sha256 {digest} differs from "
                              f"{_DIGEST_KEY} = {want} in {manifest}")
    rows = _read_rows(npy, data)
    if rows.dtype != np.float64 or rows.ndim != 2 or rows.size == 0:
        raise DataFormatError(f"{npy}: holds a {rows.dtype} array of shape "
                              f"{rows.shape}, not non-empty float64 rows")
    labels = rows[:, 0]
    _check_rows(npy, labels, np.isfinite(rows).all(axis=1),
                "non-finite value")
    _check_rows(npy, labels, (labels >= 0) & (labels == np.floor(labels)),
                "label {label} is not a non-negative integer")
    gen = read_record(_Generated, kv, manifest)
    samples = rows.shape[1] - 1
    if gen.n_channels < 1 or samples % gen.n_channels:
        raise DataFormatError(f"{manifest}: n_channels = {gen.n_channels} "
                              f"does not split rows of {samples} samples")
    if samples // gen.n_channels != gen.n_steps * gen.window_len:
        raise DataFormatError(f"{in_dir}: rows hold {samples // gen.n_channels}"
                              f" samples, the manifest {gen.n_steps} x "
                              f"{gen.window_len}")
    n_classes = len(gen.class_params)
    _check_rows(npy, labels, labels < n_classes,
                f"label {{label}} is not below the {n_classes} classes")
    windows = make_windows(rows[:, 1:].reshape(len(rows), gen.n_channels, -1),
                           gen.window_len, gen.n_steps)
    known = {f.name for f in fields(_Generated)}
    return SyntheticDataset(
        list(map(WindowedSequence, windows, labels.astype(int).tolist())),
        gen.class_params, gen.noise_amplitude, gen.generator, gen.window_len,
        gen.n_steps, gen.n_channels, gen.seed,
        {k: v for k, v in kv.items() if k not in known}, digest)
