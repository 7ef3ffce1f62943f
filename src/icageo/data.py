"""Datasets, mixing models, simulation, and file interchange.

A Dataset is an immutable T x N sample matrix (rows = observations).
MixingModel couples an invertible mixing matrix with per-channel source
specs and is the ground truth against which separation quality is scored.
"""
import contextlib
import csv
import io
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (EmptyChannels, IcageoError, InvalidConfig, IoError,
                     NonFinite, SingularTransform, TooFewSamples)
from .rng import Rng
from .sources import SourceSpec

# relative determinant floor below which a matrix counts as singular
EPS_DET = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Dataset:
    """T x N sample matrix with optional channel names.

    Construction validates: EmptyChannels unless the samples form a 2-D
    matrix with N >= 1, TooFewSamples for T < 2, and NonFinite(row, col)
    naming the first non-finite entry.  The shape and entries never change
    after construction.
    """

    samples: np.ndarray
    channel_names: tuple[str, ...] | None = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "samples", _frozen(self.samples))
        arr = self.samples
        if arr.ndim != 2 or arr.size == 0 or arr.shape[1] == 0:
            raise EmptyChannels("dataset needs at least one channel")
        if arr.shape[0] < 2:
            raise TooFewSamples("dataset needs at least 2 observations")
        if not np.isfinite(arr).all():
            r, c = np.argwhere(~np.isfinite(arr))[0]
            raise NonFinite(int(r), int(c))
        if self.channel_names is not None:
            names = tuple(str(n) for n in self.channel_names)
            if len(names) != self.samples.shape[1]:
                raise EmptyChannels("channel_names length must equal N")
            object.__setattr__(self, "channel_names", names)

    @property
    def T(self) -> int:
        return self.samples.shape[0]

    @property
    def N(self) -> int:
        return self.samples.shape[1]

    def names(self) -> tuple[str, ...]:
        if self.channel_names is not None:
            return self.channel_names
        return tuple(f"y{i + 1}" for i in range(self.N))

    def column(self, i: int) -> np.ndarray:
        return self.samples[:, i]


def validate_dataset(raw, channel_names=None) -> Dataset:
    """A Dataset from a raw matrix; a 1-D array is one channel."""
    arr = np.asarray(raw, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return Dataset(arr, channel_names)


@dataclass(frozen=True)
class MixingModel:
    """Ground truth (mixing matrix A, list of unit-variance sources)."""

    mixing: np.ndarray
    sources: tuple[SourceSpec, ...]

    def __post_init__(self):
        A = _frozen(self.mixing)
        object.__setattr__(self, "mixing", A)
        object.__setattr__(self, "sources", tuple(self.sources))
        n = len(self.sources)
        if A.ndim != 2 or A.shape != (n, n):
            raise InvalidConfig("mixing matrix must be square, one row per source")
        if not np.isfinite(A).all():
            raise NonFinite(context="mixing matrix")
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[-1] <= EPS_DET * sv[0]:
            raise SingularTransform("mixing matrix is singular within tolerance")

    @property
    def N(self) -> int:
        return len(self.sources)


def simulate(model: MixingModel, T: int, rng: Rng) -> tuple[Dataset, Dataset]:
    """Draw T source rows and mix them: returns (X, S) with X = S A^T.

    Columns of S are drawn independently, one child stream per channel, so
    adding a channel never perturbs the others.
    """
    if T < 2:
        raise TooFewSamples("simulation needs T >= 2")
    n = model.N
    S = np.empty((T, n))
    for i, spec in enumerate(model.sources):
        S[:, i] = spec.sample(rng.child(i).generator(), T)
    X = S @ model.mixing.T
    src_names = tuple(f"s{i + 1}" for i in range(n))
    mix_names = tuple(f"x{i + 1}" for i in range(n))
    return Dataset(X, mix_names), Dataset(S, src_names)


def random_mixing(n: int, rng: Rng, cond: float = 5.0) -> np.ndarray:
    """Random n x n matrix with exact condition number `cond`.

    Built as U diag(s) V^T with Haar-random orthogonal factors and singular
    values geometrically spaced so max(s)/min(s) = cond and the geometric
    mean is 1.
    """
    if cond < 1.0:
        raise InvalidConfig("condition number must be >= 1")
    gen = rng.generator()
    U = np.linalg.qr(gen.standard_normal((n, n)))[0]
    V = np.linalg.qr(gen.standard_normal((n, n)))[0]
    if n == 1:
        return np.abs(U * V)
    s = np.exp(np.linspace(0.5 * math.log(cond), -0.5 * math.log(cond), n))
    return (U * s) @ V.T


@contextlib.contextmanager
def open_text(path, mode: str = "r"):
    """Open `path` as UTF-8 text, "r" or "w", line ends untranslated.  Any
    failure to open, read, write or decode it raises IoError naming `path`."""
    try:
        with open(path, mode, newline="", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        verb = "write" if mode == "w" else "read"
        raise IoError(f"cannot {verb} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IoError(f"{path}: not a UTF-8 text file") from exc


def read_json(path, error: type[IcageoError] = InvalidConfig) -> dict:
    """The JSON object in a UTF-8 file.  Malformed JSON, or a top level that
    is not an object, raises `error` naming the path."""
    with open_text(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"{path}: invalid JSON at line {exc.lineno}, "
                        f"column {exc.colno}") from exc
    if not isinstance(obj, dict):
        raise error(f"{path}: top level must be an object")
    return obj


# -- CSV interchange ------------------------------------------------------
# Header row of channel names, one observation per row, '.' decimal point,
# '\r\n' line ends (the csv module's).  %.17g round-trips float64 exactly,
# keeping reruns byte-identical.

# rows formatted by one string operation; bounds the text held in memory
CSV_BLOCK_ROWS = 8192


def write_csv(path, data: Dataset) -> None:
    row = ",".join(["%.17g"] * data.N) + "\r\n"
    with open_text(path, "w") as fh:
        csv.writer(fh).writerow(data.names())
        for start in range(0, data.T, CSV_BLOCK_ROWS):
            block = data.samples[start:start + CSV_BLOCK_ROWS]
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def read_csv(path) -> Dataset:
    """Read a CSV written by write_csv, or any file of that shape.

    The numeric body is parsed in C; a file that parse refuses is read again
    row by row, which names the offending line in its IoError.
    """
    with open_text(path) as fh:
        data = _load_numeric(fh)
        if data is None:
            fh.seek(0)
            data = _parse_csv(fh, str(path))
        return data


def _load_numeric(fh: io.TextIOBase) -> Dataset | None:
    # None for any file _parse_csv must judge: an empty header name, no
    # data rows, or a body loadtxt cannot read as a T x N matrix of floats
    # (wrong field count, quoted, empty or non-numeric field).  A quoted
    # header name spanning lines leaves its closing quote in the body.
    names = tuple(h.strip() for h in next(csv.reader([fh.readline()]), []))
    if not names or any(not n for n in names):
        return None
    with warnings.catch_warnings():
        # loadtxt warns on a body without rows
        warnings.simplefilter("ignore", UserWarning)
        try:
            body = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
    if body.shape[0] == 0 or body.shape[1] != len(names):
        return None
    return validate_dataset(body, names)


def _parse_csv(fh: io.TextIOBase, label: str) -> Dataset:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise IoError(f"{label}: empty file") from None
    names = tuple(h.strip() for h in header)
    if not names or any(not n for n in names):
        raise IoError(f"{label}: malformed header row")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(names):
            raise IoError(f"{label}: line {lineno}: expected "
                          f"{len(names)} fields, got {len(row)}")
        try:
            rows.append([float(v) for v in row])
        except ValueError:
            raise IoError(f"{label}: line {lineno}: non-numeric field") from None
    if not rows:
        raise IoError(f"{label}: no data rows")
    return validate_dataset(np.array(rows, dtype=float), names)
