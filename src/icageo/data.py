"""Datasets, mixing models, simulation, and file interchange.

A Dataset is an immutable T x N sample matrix (rows = observations).
MixingModel couples an invertible mixing matrix with per-channel source
specs and is the ground truth against which separation quality is scored.
"""
import contextlib
import csv
import functools
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
    # a sealed array (float64, C order, read-only, owning its memory) is
    # adopted as it is; anything else is copied
    if (type(a) is np.ndarray and a.dtype == np.float64
            and a.flags.c_contiguous and not a.flags.writeable
            and a.flags.owndata):
        return a
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Dataset:
    """T x N sample matrix with optional channel names.

    Construction validates: EmptyChannels unless the samples form a 2-D
    matrix with N >= 1 and the channel names, if given, are N distinct
    names, each non-empty and equal to its own strip(); TooFewSamples for
    T < 2; and NonFinite(row, col) naming the first non-finite entry.  The
    shape and entries never change after construction.

    The samples are copied into a read-only float64 array, except that a
    float64, C-contiguous array that is already read-only and owns its
    memory is adopted without a copy.  A caller that hands over such an
    array must not make it writable again, nor keep a writable view of it.
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
            # a CSV header row would lose such a name, or read it stripped
            for i, n in enumerate(names):
                if not n or n != n.strip():
                    raise EmptyChannels(f"channel {i + 1} name {n!r} is empty "
                                        "or has surrounding whitespace")
            repeated = sorted({n for n in names if names.count(n) > 1})
            if repeated:
                raise EmptyChannels("repeated channel name "
                                    + ", ".join(map(repr, repeated)))
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
    S.flags.writeable = X.flags.writeable = False
    src_names = tuple(f"s{i + 1}" for i in range(n))
    mix_names = tuple(f"x{i + 1}" for i in range(n))
    return Dataset(X, mix_names), Dataset(S, src_names)


def random_mixing(n: int, rng: Rng, cond: float = 5.0) -> np.ndarray:
    """Random n x n matrix with exact condition number `cond`.

    Built as U diag(s) V^T with Haar-random orthogonal factors and singular
    values geometrically spaced so max(s)/min(s) = cond and the geometric
    mean is 1.  cond must be finite and below 1 / EPS_DET, where
    MixingModel would call the matrix singular.  n = 1 gives [[1]],
    whatever cond is.
    """
    # written so that NaN, which fails every comparison, is refused
    if not 1.0 <= cond < 1.0 / EPS_DET:
        raise InvalidConfig(f"condition number (--cond) must lie in "
                            f"[1, {1.0 / EPS_DET:g}), got {cond:g}")
    gen = rng.generator()
    U = np.linalg.qr(gen.standard_normal((n, n)))[0]
    V = np.linalg.qr(gen.standard_normal((n, n)))[0]
    if n == 1:
        return np.abs(U * V)
    s = np.exp(np.linspace(0.5 * math.log(cond), -0.5 * math.log(cond), n))
    return (U * s) @ V.T


@contextlib.contextmanager
def open_text(path, mode: str = "r"):
    """Open `path` as UTF-8 text, "r" or "w", line ends untranslated, or
    as bytes, "rb" or "wb".  A read skips a leading byte-order mark, also
    after seek(0); a write adds none.  Any failure to open, read, write or
    decode it raises IoError naming `path`."""
    try:
        with (open(path, mode) if "b" in mode
              else open(path, mode, newline="", encoding="utf-8-sig"
                        if mode == "r" else "utf-8")) as fh:
            yield fh
    except OSError as exc:
        verb = "write" if "w" in mode else "read"
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
#
# Beside each CSV, write_csv leaves a sidecar, `<csv path>.bin`: a magic
# line, the SHA-256 of the CSV's bytes, the SHA-256 of the payload, and the
# payload, the samples as raw C-order float64 rows.  The CSV's header gives
# the column count and the sidecar's size the row count.  read_csv returns
# the stored samples only while the first digest matches the CSV it is
# about to read and the second the rows: a match proves the CSV is exactly
# the text written from them, and that text parses back to the same bits.
# Like a checked hash-based .pyc (PEP 552), a sidecar that is missing or
# stale costs only speed.

# rows formatted per array pass; bounds the text held in memory
CSV_BLOCK_ROWS = 2048

# bytes per cell while a block is laid out: sign, up to 23 text bytes
# ("%.17g" of any |x|), and the separator (',' or '\r\n')
_CELL_BYTES = 26
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for float64

_SIDECAR_MAGIC = b"icageo csv sidecar 2\n"
# the magic, then the SHA-256 digests of the CSV and of the payload
_SIDECAR_HEAD = len(_SIDECAR_MAGIC) + 64
# bytes of the CSV hashed per read while a sidecar is checked
_HASH_CHUNK = 1 << 16


def _sidecar(path) -> str:
    return f"{path}.bin"


def write_csv(path, data: Dataset) -> None:
    """Write `data` as CSV, every value in `%.17g`, blocks of CSV_BLOCK_ROWS
    rows formatted by array operations (see _format_rows), then its sidecar
    `<path>.bin` (see read_csv)."""
    import hashlib  # here, so that importing the package loads no hash library
    digest = hashlib.sha256()
    head = io.StringIO()
    csv.writer(head).writerow(data.names())
    with open_text(path, "wb") as fh:
        text = head.getvalue().encode("utf-8")
        digest.update(text)
        fh.write(text)
        for start in range(0, data.T, CSV_BLOCK_ROWS):
            text = _format_rows(data.samples[start:start + CSV_BLOCK_ROWS])
            digest.update(text)
            fh.write(text)
    samples = np.ascontiguousarray(data.samples)
    with open_text(_sidecar(path), "wb") as fh:
        fh.write(_SIDECAR_MAGIC + digest.digest()
                 + hashlib.sha256(samples).digest())
        fh.write(samples)


@functools.cache
def _csv_tables():
    # Built on first use, so importing the package builds none of them.
    # quads[c] is the 4 ASCII digits of c < 10**4 as one 4-byte word, and
    # quads[10**4 + c] the same with trailing zeros dropped (NUL bytes);
    # kept[i] counts the digits quads[i] keeps.  pow_hi + pow_lo splits
    # 10.0**k exactly (k <= 20, all exact doubles) for Dekker's product.
    c = np.arange(10 ** 4)
    digits = (c[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48)
    zeros = np.zeros(c.size, dtype=np.int8)
    for p in (10, 100, 1000, 10 ** 4):
        zeros += c % p == 0
    kept = np.concatenate([np.full(c.size, 4, dtype=np.int8), 4 - zeros])
    stripped = np.where(np.arange(4) < (4 - zeros)[:, None], digits, 0)
    quads = np.concatenate([digits, stripped]).astype(np.uint8)
    pow10 = np.array([float(10 ** k) for k in range(21)])
    t = _SPLIT * pow10
    pow_hi = t - (t - pow10)
    return quads.view(np.uint32)[:, 0], kept, pow10, pow_hi, pow10 - pow_hi


def _format_rows(block: np.ndarray) -> bytes:
    """The `%.17g` text of a block of rows as ASCII bytes, ',' between cells
    and '\\r\\n' after each row: the same text as `"%.17g" % x` cell by
    cell.

    Cells with 1e-4 <= |x| < 1e16 print in fixed notation and are laid out
    by array operations (_fixed_cells).  Every other cell takes
    `"%.17g" % x` itself, in one string operation: zeros, |x| outside that
    range, and the cells _fixed_cells cannot print with certainty.
    """
    rows, n = block.shape
    v = block.ravel()
    x = np.abs(v)
    fixed = (x >= 1e-4) & (x < 1e16)
    n_fixed = np.count_nonzero(fixed)
    # cells sorted by decimal exponent, so that each exponent's layout is
    # plain column slices; exponent notation (key 16) sorts last.  The
    # estimate itself is kept in [-4, 15]: log10 may be a few ulp off, and
    # _fixed_cells leaves an estimate one off to the fallback.
    e = np.clip(np.floor(np.log10(np.clip(x, 1e-4, 1e15))), -4, 15) \
        .astype(np.int8)
    e[~fixed] = 16
    order = np.argsort(e, kind="stable")
    cells = np.zeros((v.size, _CELL_BYTES), dtype=np.uint8)
    cells[:, 0] = np.signbit(v[order]) * ord("-")
    ok = _fixed_cells(x[order[:n_fixed]], e[order[:n_fixed]], cells[:n_fixed])
    slow = np.concatenate([np.flatnonzero(~ok), np.arange(n_fixed, v.size)])
    if slow.size:
        # left-justified to the slot width; "%.17g" never prints a space
        text = (f"%-{_CELL_BYTES - 2}.17g" * slow.size) \
            % tuple(v[order[slow]].tolist())
        padded = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        cells[slow, :-2] = np.where(padded == ord(" "), 0, padded) \
            .reshape(slow.size, -1)
    out = np.empty((rows, n, _CELL_BYTES), dtype=np.uint8)
    out.reshape(v.size, -1).view(f"V{_CELL_BYTES}")[order] = \
        cells.view(f"V{_CELL_BYTES}")
    del cells
    out[:, :-1, -2:] = (ord(","), 0)
    out[:, -1, -2:] = (ord("\r"), ord("\n"))
    out = out.ravel()
    return out[out != 0].tobytes()


def _fixed_cells(x: np.ndarray, e: np.ndarray,
                 cells: np.ndarray) -> np.ndarray:
    """Write the fixed-notation `%.17g` bytes of 1e-4 <= x < 1e16, sorted
    by their estimated decimal exponents e, into the zeroed rows `cells`
    from column 1, NUL padded.  Returns the mask of the cells printed; the
    rest are left to `"%.17g" % x`.

    The text is the 17 correctly rounded significant digits
    D = round(x * 10**(16 - e)) with trailing zeros of the fraction
    dropped.  D is exact: 10**(16 - e) is an exact double and Dekker's
    two-product gives x * 10**(16 - e) as hi + lo without rounding.  A cell
    is left out when e is off by one (D outside [1e16, 1e17)), when lo is
    within 1e-6 of a rounding tie, or when its integer part ends in zeros.
    Temporaries are dropped as soon as they are spent, which keeps a
    block's peak memory about a quarter lower.
    """
    quads, kept, pow10, pow_hi, pow_lo = _csv_tables()
    k = 16 - e.astype(np.intp)
    hi = x * pow10[k]
    t = _SPLIT * x
    xh = t - (t - x)
    xl = x - xh
    lo = ((xh * pow_hi[k] - hi) + xh * pow_lo[k] + xl * pow_hi[k]) \
        + xl * pow_lo[k]
    del k, t, xh, xl
    lo_int = np.floor(lo)
    lo -= lo_int
    D = hi.astype(np.int64) + lo_int.astype(np.int64) + (lo > 0.5)
    del hi, lo_int
    ok = (D >= 10 ** 16) & (D < 10 ** 17) & (np.abs(lo - 0.5) > 1e-6)
    D[~ok] = 10 ** 16
    # the leading digit, then four 4-digit words; a word takes the
    # zero-dropping table when every word after it is zero
    words = np.empty((x.size, 5), dtype=np.uint32)
    digits = words.view(np.uint8)[:, 3:]
    lead, D = np.divmod(D, 10 ** 16)
    digits[:, 0] = lead + ord("0")
    c12, c34 = np.divmod(D, 10 ** 8)
    c1, c2 = np.divmod(c12.astype(np.int32), 10 ** 4)
    c3, c4 = np.divmod(c34.astype(np.int32), 10 ** 4)
    z4 = c4 == 0
    z34 = z4 & (c3 == 0)
    idx = (c1 + 10 ** 4 * (z34 & (c2 == 0)), c2 + 10 ** 4 * z34,
           c3 + 10 ** 4 * z4, c4 + 10 ** 4)
    last = sum(kept[i] for i in idx)  # index of the last digit printed
    ok &= last >= e
    for j, i in enumerate(idx, start=1):
        words[:, j] = quads[i]
    point = np.where(last > e, ord("."), 0)
    start = 0
    for exp, count in enumerate(np.bincount(e + 4).tolist(), start=-4):
        s = slice(start, start + count)
        if exp >= 0:
            cells[s, 1:exp + 2] = digits[s, :exp + 1]
            cells[s, exp + 2] = point[s]
            cells[s, exp + 3:19] = digits[s, exp + 1:]
        else:
            cells[s, 1:2 - exp] = np.frombuffer(
                b"0." + b"0" * (-1 - exp), dtype=np.uint8)
            cells[s, 2 - exp:19 - exp] = digits[s]
        start += count
    return ok


def read_csv(path) -> Dataset:
    """Read a CSV written by write_csv, or any file of that shape.

    While the sidecar write_csv left beside the CSV matches its bytes, the
    stored samples are returned and no text is parsed (_read_sidecar).
    Otherwise the numeric body is parsed in C; a file that parse refuses is
    read again row by row, which names the offending line in its IoError.
    """
    data = _read_sidecar(path)
    if data is not None:
        return data
    with open_text(path) as fh:
        data = _load_numeric(fh)
        if data is None:
            fh.seek(0)
            data = _parse_csv(fh, str(path))
        return data


def _read_sidecar(path) -> Dataset | None:
    # The samples stored in the sidecar of `path`, named by the CSV's header
    # as _load_numeric names them: as many columns as names, and as many
    # rows as the payload holds.  None, so that the text is read, when the
    # sidecar is missing, foreign or not a whole number of rows, when either
    # digest does not match, and when the header is not one line of
    # non-empty names.
    import hashlib
    digest = hashlib.sha256()
    try:
        with (open_text(_sidecar(path), "rb") as side,
              open_text(path, "rb") as fh):
            head = side.read(_SIDECAR_HEAD)
            line = fh.readline()
            # strict: a quoted name that runs past the line is an error
            names = _header_names(line.decode("utf-8"), strict=True)
            if not head.startswith(_SIDECAR_MAGIC) or names is None:
                return None
            T, extra = divmod(side.seek(0, io.SEEK_END) - _SIDECAR_HEAD,
                              8 * len(names))
            if T < 1 or extra:
                return None
            digest.update(line)
            buf = bytearray(_HASH_CHUNK)
            while n := fh.readinto(buf):
                digest.update(memoryview(buf)[:n])
            if digest.digest() != head[-64:-32]:
                return None
            side.seek(_SIDECAR_HEAD)
            samples = np.empty((T, len(names)))
            if side.readinto(samples) != samples.nbytes:
                return None
    except (IoError, ValueError, csv.Error):
        return None
    if hashlib.sha256(samples).digest() != head[-32:]:
        return None
    samples.flags.writeable = False
    return Dataset(samples, names)


def _header_names(line: str, strict: bool = False) -> tuple[str, ...] | None:
    # the stripped names of a one-line header row; None when one is empty,
    # which _parse_csv judges
    names = tuple(h.strip() for h in next(csv.reader([line], strict=strict),
                                          []))
    return names if names and all(names) else None


def _load_numeric(fh: io.TextIOBase) -> Dataset | None:
    # None for any file _parse_csv must judge: an empty header name, no
    # data rows, or a body loadtxt cannot read as a T x N matrix of floats
    # (wrong field count, quoted, empty or non-numeric field).  A quoted
    # header name spanning lines leaves its closing quote in the body.
    names = _header_names(fh.readline())
    if names is None:
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
    body.flags.writeable = False
    return Dataset(body, names)


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
    body = np.array(rows, dtype=float)
    body.flags.writeable = False
    return Dataset(body, names)
