"""Synthetic class datasets, signal windowing, and the shared on-disk forms.

Classes are discrete parameter regimes of the logistic map, the Lorenz
system, or a sine bank with linearly spaced frequencies. Realizations of one
class differ by initial condition (chaotic systems) and additive uniform
noise; every generator is deterministic per seed.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

__all__ = [
    "LogisticParams",
    "LorenzParams",
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
    "write_rows",
    "stratified_split",
    "save_channels",
    "load_channels",
    "rows_digest",
    "save_dataset",
    "load_dataset",
]

LOGISTIC_CLASS_R = (3.6, 3.7, 3.8, 3.9, 4.0)
LORENZ_CLASS_SIGMA = (8.0, 10.5, 13.0, 15.5, 18.0)


@dataclass(frozen=True)
class LogisticParams:
    r: float
    x0: float
    n_samples: int
    transient: int = 0

    def __post_init__(self):
        if not 0.0 < self.x0 < 1.0:
            raise ValueError("x0 must lie in (0, 1)")
        if not 0.0 < self.r <= 4.0:
            raise ValueError("r must lie in (0, 4]")
        if self.n_samples < 1 or self.transient < 0:
            raise ValueError("bad sample counts")


@dataclass(frozen=True)
class LorenzParams:
    sigma: float
    rho: float = 28.0
    beta: float = 5.0 / 3.0
    initial: tuple = (1.0, 1.0, 1.0)
    dt: float = 0.01
    n_samples: int = 1000
    transient: int = 1000

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.transient < 0:
            raise ValueError("transient must be >= 0")


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
    digest: str = ""  # `load_dataset`: the `rows_digest` of its row file

    @property
    def n_classes(self) -> int:
        return len(self.class_params)


def logistic_series(p: LogisticParams) -> np.ndarray:
    """Iterate x <- r*x*(1-x); return n_samples values after the transient."""
    out = np.empty(p.n_samples)
    x = p.x0
    for _ in range(p.transient):
        x = p.r * x * (1.0 - x)
    for i in range(p.n_samples):
        x = p.r * x * (1.0 - x)
        out[i] = x
    return out


def _lorenz_deriv(state, sigma, rho, beta):
    x, y, z = state
    return np.array([sigma * (y - x), x * (rho - z) - y, x * y - beta * z])


def lorenz_series(p: LorenzParams, scale: float = 40.0) -> np.ndarray:
    """RK4-integrate the Lorenz system; return x(t)/scale after the transient.

    The scaled trajectory must stay inside [-1, 1]; a scale that is too small
    is reported rather than silently clipped.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    state = np.asarray(p.initial, dtype=np.float64)
    n_total = p.transient + p.n_samples
    xs = np.empty(p.n_samples)
    for i in range(n_total):
        k1 = _lorenz_deriv(state, p.sigma, p.rho, p.beta)
        k2 = _lorenz_deriv(state + 0.5 * p.dt * k1, p.sigma, p.rho, p.beta)
        k3 = _lorenz_deriv(state + 0.5 * p.dt * k2, p.sigma, p.rho, p.beta)
        k4 = _lorenz_deriv(state + p.dt * k3, p.sigma, p.rho, p.beta)
        state = state + (p.dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if i >= p.transient:
            xs[i - p.transient] = state[0]
    xs /= scale
    if np.abs(xs).max() > 1.0:
        raise ValueError(f"scaled trajectory exits [-1, 1] "
                         f"(max |x|/scale = {np.abs(xs).max():.3f}); increase scale")
    return xs


def sine_bank_series(class_idx: int, beta: float, t_grid,
                     alpha: float = 3.0) -> np.ndarray:
    """Channel j of the sine bank: sin(t * (alpha + j*beta)) on t_grid."""
    t = np.asarray(t_grid, dtype=np.float64)
    return np.sin(t * (alpha + class_idx * beta))


def make_windows(signal, label: int, window_len: int, n_steps: int,
                 noise_amplitude: float = 0.0, rng_seed: int = 0) -> WindowedSequence:
    """Cut q consecutive non-overlapping windows and add uniform noise.

    `signal` is (channels, T) or (T,); each window flattens to
    channels*window_len values. Noise is uniform in [-amplitude, +amplitude],
    drawn from a stream seeded by `rng_seed`.
    """
    sig = np.atleast_2d(np.asarray(signal, dtype=np.float64))
    m, t_len = sig.shape
    needed = n_steps * window_len
    if t_len < needed:
        raise ValueError(f"signal length {t_len} < n_steps*window_len = {needed}")
    cut = sig[:, :needed].reshape(m, n_steps, window_len)
    windows = cut.transpose(1, 0, 2).reshape(n_steps, m * window_len)
    if noise_amplitude > 0.0:
        rng = np.random.default_rng(rng_seed)
        windows = windows + rng.uniform(-noise_amplitude, noise_amplitude,
                                        windows.shape)
    return WindowedSequence(windows, int(label))


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
    sequences = []
    for label, param in enumerate(class_params):
        for k in range(per_class):
            realization_seed = int(root.integers(0, 2**63 - 1))
            signal = make_signal(param, np.random.default_rng(realization_seed))
            sequences.append(make_windows(signal, label, window_len, n_steps,
                                          noise_amplitude, realization_seed))
    return SyntheticDataset(sequences, list(class_params), noise_amplitude,
                            generator, window_len, n_steps, seed=seed,
                            extra=extra or {})


def make_logistic_dataset(r_values=LOGISTIC_CLASS_R, per_class: int = 20,
                          window_len: int = 20, n_steps: int = 5,
                          noise_amplitude: float = 0.01, seed: int = 0,
                          transient: int = 100) -> SyntheticDataset:
    n = window_len * n_steps

    def gen(r, rng):
        x0 = rng.uniform(0.1, 0.9)
        return logistic_series(LogisticParams(r, x0, n, transient))

    return _dataset("logistic", r_values, gen, per_class, window_len, n_steps,
                    noise_amplitude, seed)


def make_lorenz_dataset(sigmas=LORENZ_CLASS_SIGMA, per_class: int = 20,
                        window_len: int = 20, n_steps: int = 5,
                        noise_amplitude: float = 0.01, seed: int = 0,
                        scale: float = 40.0, dt: float = 0.01,
                        transient: int = 1000) -> SyntheticDataset:
    def gen(sigma, rng):
        initial = tuple(np.array([1.0, 1.0, 1.0]) + rng.uniform(-0.5, 0.5, 3))
        return lorenz_series(LorenzParams(sigma, initial=initial, dt=dt,
                                          n_samples=window_len * n_steps,
                                          transient=transient),
                             scale)

    return _dataset("lorenz", sigmas, gen, per_class, window_len, n_steps,
                    noise_amplitude, seed, extra={"scale": scale, "dt": dt})


def make_sine_dataset(n_classes: int = 5, beta: float = 0.1,
                      per_class: int = 30, window_len: int = 20,
                      n_steps: int = 5, dt: float = 0.1,
                      noise_amplitude: float = 0.05, seed: int = 0,
                      alpha: float = 3.0) -> SyntheticDataset:
    """Sine-bank classes: same deterministic waveform per class, noisy copies."""
    t = np.arange(window_len * n_steps) * dt

    def gen(j, rng):
        return sine_bank_series(int(j), beta, t, alpha)

    return _dataset("sine", list(range(n_classes)), gen, per_class, window_len,
                    n_steps, noise_amplitude, seed,
                    extra={"beta": beta, "alpha": alpha, "dt": dt})


# ---------------------------------------------------------------------------
# On-disk forms for every dataset: key = value files, checked numeric rows
# (label first), and the container (one row file, all channels per row).
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
    "int": (int, "an integer"),
    "float": (_finite, "a number"),
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


def write_rows(path, labels, rows) -> None:
    """One line per row: the label, then the values at full precision."""
    rows = np.asarray(rows, dtype=np.float64).tolist()
    lines = [f"{label}\t" + "\t".join(map(repr, row))
             for label, row in zip(labels, rows)]
    Path(path).write_text("\n".join(lines) + "\n")


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
_TEXT_DIGEST_KEY = "text_sha256"
_NPY_DIGEST_KEY = "npy_sha256"


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


def save_channels(out_dir, labels, signals, manifest: dict) -> None:
    """Write (N, channels, T) `signals` as one row file, `data.tsv`.

    Each row is the label, then channel 0's samples, channel 1's and so on.
    The same rows also go to `rows.npy` as one (N, 1 + channels*T) array:
    what `parse_rows` returns for `data.tsv`. `manifest` goes to
    manifest.txt in its order, with `n_channels` set and the sha256 of
    `data.tsv` (`text_sha256`) and of `rows.npy` (`npy_sha256`). Rows are
    written as `repr` values, so both forms hold the same float64 bits.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    signals = np.asarray(signals, dtype=np.float64)
    n, n_channels = signals.shape[:2]
    # the label column as parse_rows reads back what write_rows writes
    rows = np.column_stack([
        np.array([f"{label}" for label in labels], dtype=np.float64),
        signals.reshape(n, -1)])
    write_rows(out / "data.tsv", labels, rows[:, 1:])
    np.save(out / ROWS_NPY, rows, allow_pickle=False)
    kv = {**manifest, "n_channels": n_channels,
          _TEXT_DIGEST_KEY: rows_digest([out / "data.tsv"]),
          _NPY_DIGEST_KEY: hashlib.sha256(
              (out / ROWS_NPY).read_bytes()).hexdigest()}
    write_kv(out / "manifest.txt", kv)


def _stored_rows(src: Path, kv: dict):
    """The (N, 1 + channels*T) rows from `rows.npy`, or None to parse the text.

    None unless the manifest's `npy_sha256` matches the `.npy` bytes and
    the rows are a non-empty, finite 2-D array: `parse_rows` then reports
    what is wrong at path:line. The caller checks `text_sha256`.
    """
    npy = src / ROWS_NPY
    if not npy.exists():
        return None
    data = npy.read_bytes()
    if hashlib.sha256(data).hexdigest() != kv.get(_NPY_DIGEST_KEY):
        return None
    rows = np.load(io.BytesIO(data), allow_pickle=False)
    if rows.ndim != 2 or rows.size == 0 or not np.isfinite(rows).all():
        return None
    return rows


def load_channels(in_dir):
    """(manifest, labels (N,), signals (N, channels, T), the `rows_digest`
    of `data.tsv`) from `save_channels`.

    The rows come from `rows.npy` when the manifest's `text_sha256` matches
    `data.tsv` and its `npy_sha256` matches the `.npy`. Otherwise, such as
    after `data.tsv` was edited or for a container without digests, the
    text is parsed and checked by `parse_rows`: it is the source of truth.
    Each row splits into the manifest's `n_channels` equal blocks; a count
    below 1 or one that does not divide a row is a `DataFormatError`. The
    returned manifest omits the digests.
    """
    src = Path(in_dir)
    kv = read_kv(src / "manifest.txt")
    # rows.npy first: holding the text's bytes while the larger array loads
    # costs fresh pages (~7 ms a call at the gesture-dba size)
    rows = _stored_rows(src, kv)
    path = src / "data.tsv"
    # a missing data.tsv is reported by parse_rows; otherwise it is read
    # once, and the text fallback parses the bytes that were hashed
    data = path.read_bytes() if path.exists() else None
    digest = None if data is None else rows_digest([path], [data])
    if rows is None or digest is None or digest != kv.get(_TEXT_DIGEST_KEY):
        rows = parse_rows(path, data)
    n_channels, samples = int(kv.get("n_channels", 1)), rows.shape[1] - 1
    if n_channels < 1 or samples % n_channels:
        raise DataFormatError(f"{src / 'manifest.txt'}: n_channels = "
                              f"{n_channels} does not split rows of "
                              f"{samples} samples")
    for key in (_TEXT_DIGEST_KEY, _NPY_DIGEST_KEY):
        kv.pop(key, None)
    return (kv, rows[:, 0], rows[:, 1:].reshape(
        len(rows), n_channels, samples // n_channels), digest)


def save_dataset(ds: SyntheticDataset, out_dir) -> None:
    """The container, un-windowed, with the generator settings."""
    signals = [seq.windows.reshape(ds.n_steps, ds.n_channels, ds.window_len)
               .transpose(1, 0, 2).reshape(ds.n_channels, -1)
               for seq in ds.sequences]
    kv = {"generator": ds.generator,
          "classes": ds.n_classes,
          "class_params": ",".join(repr(float(p)) for p in ds.class_params),
          "noise_amplitude": repr(float(ds.noise_amplitude)),
          "window_len": ds.window_len,
          "n_steps": ds.n_steps,
          "n_channels": ds.n_channels,
          "seed": ds.seed}
    kv.update(ds.extra)
    save_channels(out_dir, [seq.label for seq in ds.sequences], signals, kv)


#: the manifest keys `load_dataset` reads beyond the container's own
_DATASET_KEYS = ("generator", "class_params", "noise_amplitude", "window_len",
                 "n_steps", "seed")


def load_dataset(in_dir) -> SyntheticDataset:
    """The dataset `save_dataset` wrote, its `digest` the `rows_digest` of
    `data.tsv`: the one reader of a generated dataset. A container without
    a generated dataset's keys is a `DataFormatError`."""
    kv, labels, signals, digest = load_channels(in_dir)
    for key in _DATASET_KEYS:
        if key not in kv:
            raise DataFormatError(f"{Path(in_dir) / 'manifest.txt'}: missing "
                                  f"key {key!r}; not a generated dataset")
    window_len, n_steps = int(kv["window_len"]), int(kv["n_steps"])
    if signals.shape[2] != n_steps * window_len:
        raise DataFormatError(f"{in_dir}: rows hold {signals.shape[2]} samples,"
                              f" the manifest {n_steps} x {window_len}")
    sequences = [make_windows(sig, int(label), window_len, n_steps)
                 for label, sig in zip(labels, signals)]
    class_params = [float(p) for p in kv["class_params"].split(",")]
    extra = {k: v for k, v in kv.items()
             if k not in _DATASET_KEYS + ("classes", "n_channels")}
    return SyntheticDataset(sequences, class_params,
                            float(kv["noise_amplitude"]), kv["generator"],
                            window_len, n_steps, signals.shape[1],
                            int(kv["seed"]), extra, digest)
