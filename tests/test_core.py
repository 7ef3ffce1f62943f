"""Tests for errors, seeding, source families, and dataset handling."""
import argparse
import csv
import hashlib
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from icageo import (Dataset, EmptyChannels, IcageoError, InvalidConfig,
                    InvalidDistribution, IoError, MixingModel, NonFinite, Rng,
                    SingularTransform, SourceSpec, TooFewSamples,
                    exit_code_for, parse_source, random_mixing, read_csv,
                    simulate, write_csv)
from icageo import cli, data
from icageo.algorithms import SolverConfig, orthogonal_ica, relative_gradient_ica
from icageo.data import CSV_BLOCK_ROWS
from icageo.sources import FAMILIES, GAUSSIAN_ENTROPY

# closed-form differential entropies for the unit-variance families,
# cross-checked against direct numeric integration of -int p ln p
ENTROPY_NATS = {
    "gaussian": 1.4189385332046727,
    "uniform": 1.2424533248940002,
    "laplace": 1.3465735902799727,
    "cosh-reciprocal": 1.3862943611198906,
}
GG3_ENTROPY = 1.4059991956168196


# -- errors -------------------------------------------------------------------

def test_exit_codes_split_input_from_algorithmic():
    assert exit_code_for(NonFinite(context="input")) == 2
    assert exit_code_for(TooFewSamples("n")) == 2
    assert exit_code_for(IoError("x")) == 2
    from icageo import Diverged, EstimatorFailure
    assert exit_code_for(Diverged("blew up")) == 1
    assert exit_code_for(EstimatorFailure("gate")) == 1
    assert exit_code_for(IcageoError("generic")) == 1


def test_nonfinite_carries_location():
    err = NonFinite(3, 1, context="input data")
    assert err.row == 3 and err.col == 1
    assert "row 3" in str(err) and "col 1" in str(err)
    assert isinstance(err, IcageoError)


# -- rng ----------------------------------------------------------------------

def test_rng_same_seed_same_stream():
    a = Rng(123).generator().standard_normal(8)
    b = Rng(123).generator().standard_normal(8)
    assert_array_equal(a, b)


def test_rng_children_differ_from_parent_and_each_other():
    base = Rng(5)
    draws = [base.child(i).generator().standard_normal(6) for i in range(4)]
    draws.append(base.generator().standard_normal(6))
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert np.max(np.abs(draws[i] - draws[j])) > 1e-6


def test_rng_uses_counter_based_philox():
    gen = Rng(0).generator()
    assert type(gen.bit_generator).__name__ == "Philox"


def test_rng_rejects_out_of_range_seed():
    with pytest.raises(IcageoError):
        Rng(-1)
    with pytest.raises(IcageoError):
        Rng(2 ** 64)


@pytest.mark.parametrize("seed", [1.7, 1.0, "5", True, False, None])
def test_rng_refuses_a_seed_that_is_not_an_integer(seed):
    # refused when built: a float or a string fails only later, in
    # generator(), and a bool is an int
    with pytest.raises(InvalidConfig):
        Rng(seed)


def test_rng_accepts_numpy_integers():
    want = Rng(5).generator().standard_normal(4)
    for seed in (np.uint64(5), np.int32(5)):
        assert_array_equal(Rng(seed).generator().standard_normal(4), want)


# -- sources ------------------------------------------------------------------

def test_family_entropies_match_closed_forms():
    for family, expected in ENTROPY_NATS.items():
        spec = SourceSpec(family)
        assert_allclose(spec.entropy_nats(), expected, rtol=0, atol=1e-12)
    spec = SourceSpec("generalized-gaussian", beta=3.0)
    assert_allclose(spec.entropy_nats(), GG3_ENTROPY, rtol=0, atol=1e-12)


def test_negentropy_is_gap_to_gaussian():
    for family in ("uniform", "laplace", "cosh-reciprocal"):
        spec = SourceSpec(family)
        assert_allclose(spec.negentropy_nats(),
                        GAUSSIAN_ENTROPY - spec.entropy_nats(),
                        rtol=0, atol=1e-15)
        assert spec.negentropy_nats() > 0
    assert SourceSpec("gaussian").negentropy_nats() == 0.0


def test_generalized_gaussian_interpolates_known_cases():
    # beta=2 is the Gaussian, beta=1 the Laplace
    assert_allclose(SourceSpec("generalized-gaussian", beta=2.0).entropy_nats(),
                    ENTROPY_NATS["gaussian"], atol=1e-12)
    assert_allclose(SourceSpec("generalized-gaussian", beta=1.0).entropy_nats(),
                    ENTROPY_NATS["laplace"], atol=1e-12)


def test_sample_moments_are_standardized():
    gen = np.random.default_rng(42)
    specs = [SourceSpec(f) for f in FAMILIES if f != "generalized-gaussian"]
    specs += [SourceSpec("generalized-gaussian", beta=b) for b in (0.7, 3.0)]
    for spec in specs:
        x = spec.sample(gen, 200000)
        assert abs(x.mean()) < 0.02, spec.label()
        assert abs(x.var() - 1.0) < 0.03, spec.label()


def test_pdf_integrates_to_one_with_unit_variance():
    grid = np.linspace(-30, 30, 400001)
    for spec in (SourceSpec("gaussian"), SourceSpec("laplace"),
                 SourceSpec("cosh-reciprocal"),
                 SourceSpec("generalized-gaussian", beta=4.0)):
        p = spec.pdf(grid)
        mass = np.trapezoid(p, grid)
        var = np.trapezoid(grid * grid * p, grid)
        assert_allclose(mass, 1.0, atol=1e-6)
        assert_allclose(var, 1.0, atol=1e-4)


def test_uniform_support_is_sqrt3():
    lo, hi = SourceSpec("uniform").support()
    assert_allclose([lo, hi], [-math.sqrt(3), math.sqrt(3)])
    assert SourceSpec("laplace").support() is None


def test_sample_entropy_matches_closed_form():
    # sanity on the samplers: plug-in entropy of a fine histogram should
    # land near the analytic value for each family
    gen = np.random.default_rng(7)
    for family, expected in ENTROPY_NATS.items():
        x = SourceSpec(family).sample(gen, 400000)
        hist, edges = np.histogram(x, bins=400, density=True)
        w = edges[1] - edges[0]
        mask = hist > 0
        h = -np.sum(hist[mask] * np.log(hist[mask])) * w
        assert abs(h - expected) < 0.02, family


def test_parse_source_round_trip():
    for text in ("gaussian", "uniform", "laplace", "cosh-reciprocal",
                 "generalized-gaussian(4)", "generalized-gaussian(0.9)"):
        spec = parse_source(text)
        assert parse_source(spec.label()) == spec


def test_parse_source_rejects_unknown_and_bad_beta():
    with pytest.raises(InvalidDistribution):
        parse_source("cauchy")
    with pytest.raises(InvalidDistribution):
        parse_source("generalized-gaussian(0.1)")  # variance blows up
    for unbounded in ("generalized-gaussian(inf)", "generalized-gaussian(nan)"):
        with pytest.raises(InvalidDistribution, match="finite shape"):
            parse_source(unbounded)
    for malformed in ("laplace(", "generalized-gaussian(x)"):
        with pytest.raises(InvalidDistribution):
            parse_source(malformed)
    with pytest.raises(InvalidDistribution):
        SourceSpec("uniform", beta=2.0)
    with pytest.raises(InvalidDistribution):
        SourceSpec("generalized-gaussian")  # beta required
    for not_text in (1, None, ["laplace"]):
        with pytest.raises(InvalidDistribution, match="must be a name"):
            parse_source(not_text)


# -- datasets -----------------------------------------------------------------

def test_dataset_shape_and_accessors():
    x = np.arange(12, dtype=float).reshape(6, 2)
    d = Dataset(x)
    assert d.T == 6 and d.N == 2
    assert d.names() == ("y1", "y2")
    assert_array_equal(d.column(1), x[:, 1])


def test_dataset_rejects_bad_shapes():
    with pytest.raises(IcageoError):
        Dataset(np.zeros(5))                 # 1-D
    with pytest.raises(TooFewSamples):
        Dataset(np.zeros((1, 3)))            # T < 2
    with pytest.raises(EmptyChannels):
        Dataset(np.zeros((5, 0)))
    with pytest.raises(EmptyChannels):
        Dataset(np.zeros((3, 2)), ("a",))  # one name for two channels
    with pytest.raises(EmptyChannels, match="repeated channel name 'a'$"):
        Dataset(np.zeros((3, 3)), ("a", "b", "a"))
    # names that a CSV header row would lose or read back stripped
    for name in ["", " a", "a ", "\ta", "a\r\n", "\xa0"]:
        with pytest.raises(EmptyChannels,
                           match=f"^channel 2 name {re.escape(repr(name))} "):
            Dataset(np.zeros((3, 2)), ("a", name))
    with pytest.raises(NonFinite):
        bad = np.zeros((4, 2))
        bad[2, 1] = np.nan
        Dataset(bad)


def owning(rows=6, dtype=float):
    """A rows x 2 array that owns its memory."""
    return np.arange(2 * rows, dtype=dtype).reshape(rows, 2).copy()


def sealed(a):
    a.flags.writeable = False
    return a


def test_dataset_adopts_a_sealed_owning_float64_array():
    x = sealed(owning())
    d = Dataset(x)
    assert np.shares_memory(d.samples, x)
    assert_array_equal(d.samples, owning())


@pytest.mark.parametrize("make", [
    lambda: owning(),
    lambda: sealed(owning()[:]),
    lambda: sealed(owning(12)[::2]),
    lambda: sealed(owning(dtype=np.float32)),
    lambda: sealed(np.asfortranarray(owning())),
], ids=["writable", "read-only-view", "strided-view", "float32", "fortran"])
def test_dataset_copies_every_other_array(make):
    x = make()
    d = Dataset(x)
    owner = x if x.base is None else x.base
    assert not np.shares_memory(d.samples, owner)
    assert not d.samples.flags.writeable
    assert d.samples.dtype == np.float64
    assert_array_equal(d.samples, x)
    owner.flags.writeable = True
    owner[...] = -1.0  # changing the caller's array leaves the dataset alone
    assert_array_equal(d.samples, make())


@pytest.fixture
def adopted(monkeypatch):
    """Every array a Dataset adopted without a copy, from now on."""
    arrays = []

    def recording(a):
        out = frozen(a)
        if out is a:
            arrays.append(a)
        return out

    frozen = data._frozen
    monkeypatch.setattr(data, "_frozen", recording)
    return arrays


def two_channel_csv(path, quoted=False):
    rows = np.random.default_rng(4).laplace(size=(2000, 2)) \
        @ np.array([[1.0, 0.4], [0.3, 1.0]])
    cell = '"%.17g"' if quoted else "%.17g"
    path.write_text("a,b\n" + "".join(f"{cell},{cell}\n" % tuple(r)
                                      for r in rows))
    return path


@pytest.mark.parametrize("site", ["read_csv", "read_csv-row-by-row",
                                  "read_csv-sidecar", "simulate",
                                  "relative_gradient", "orthogonal", "center"])
def test_package_sites_hand_their_arrays_over(tmp_path, adopted, site):
    # each site seals the array it built, so the Dataset adopts it, and no
    # writable array aliases the samples it returns
    path = two_channel_csv(tmp_path / "x.csv",
                           quoted=site == "read_csv-row-by-row")
    config = SolverConfig(score="tanh")
    if site == "simulate":
        model = MixingModel(np.array([[1.0, 0.5], [0.2, 1.0]]),
                            (SourceSpec("laplace"), SourceSpec("uniform")))
        built = simulate(model, 500, Rng(11))
    elif site == "relative_gradient":
        built = [relative_gradient_ica(read_csv(path), config).recovered]
    elif site == "orthogonal":
        built = [orthogonal_ica(read_csv(path), config).recovered]
    elif site == "center":
        built = [cli._read_input(argparse.Namespace(input=path,
                                                     center=True))]
    elif site == "read_csv-sidecar":
        write_csv(tmp_path / "y.csv", read_csv(path))
        built = [read_csv(tmp_path / "y.csv")]
    else:
        built = [read_csv(path)]
    for d in built:
        assert any(d.samples is a for a in adopted)
        assert not d.samples.flags.writeable and d.samples.flags.owndata


def test_validate_dataset_reports_offending_cell():
    raw = np.ones((5, 3))
    raw[4, 2] = np.inf
    with pytest.raises(NonFinite) as exc:
        Dataset(raw)
    assert exc.value.row == 4 and exc.value.col == 2


def test_simulate_reproducible_and_consistent():
    model = MixingModel(np.array([[1.0, 0.5], [0.2, 1.0]]),
                        (SourceSpec("laplace"), SourceSpec("uniform")))
    X1, S1 = simulate(model, 500, Rng(11))
    X2, S2 = simulate(model, 500, Rng(11))
    assert_array_equal(X1.samples, X2.samples)
    assert_array_equal(S1.samples, S2.samples)
    # observations are exactly the mixed sources
    assert_allclose(X1.samples, S1.samples @ model.mixing.T, rtol=0, atol=0)
    assert X1.names() == ("x1", "x2") and S1.names() == ("s1", "s2")


def test_simulate_needs_two_rows():
    model = MixingModel(np.eye(2), (SourceSpec("laplace"),) * 2)
    with pytest.raises(TooFewSamples):
        simulate(model, 1, Rng(0))


def test_simulate_channels_use_independent_streams():
    # adding a channel must not disturb the draws of existing ones
    a2 = np.eye(2)
    a3 = np.eye(3)
    lap = SourceSpec("laplace")
    _, S2 = simulate(MixingModel(a2, (lap, lap)), 300, Rng(9))
    _, S3 = simulate(MixingModel(a3, (lap, lap, lap)), 300, Rng(9))
    assert_array_equal(S2.samples, S3.samples[:, :2])


def test_mixing_model_rejects_singular_matrix():
    with pytest.raises(SingularTransform):
        MixingModel(np.array([[1.0, 2.0], [2.0, 4.0]]),
                    (SourceSpec("laplace"), SourceSpec("laplace")))


def test_mixing_model_rejects_non_finite_entries():
    with pytest.raises(NonFinite):
        MixingModel(np.array([[1.0, np.nan], [0.0, 1.0]]),
                    (SourceSpec("laplace"), SourceSpec("laplace")))


def test_random_mixing_refuses_cond_below_one_and_has_one_by_one():
    # below 1, not finite, or where MixingModel would call the draw
    # singular (cond >= 1 / EPS_DET)
    for cond in (0.5, math.nan, math.inf, 1e300, 1e12):
        with pytest.raises(InvalidConfig, match="--cond"):
            random_mixing(2, Rng(0), cond)
    assert_array_equal(random_mixing(1, Rng(0)), [[1.0]])


def test_random_mixing_hits_requested_condition_number():
    for seed in range(5):
        A = random_mixing(4, Rng(seed).child(0), cond=7.0)
        sv = np.linalg.svd(A, compute_uv=False)
        assert_allclose(sv[0] / sv[-1], 7.0, rtol=1e-10)


def test_csv_round_trip_is_exact(tmp_path):
    gen = np.random.default_rng(3)
    data = Dataset(gen.standard_normal((50, 3)) * 1e-3,
                   ("alpha", "beta", "gamma"))
    path = tmp_path / "d.csv"
    write_csv(path, data)
    back = read_csv(path)
    assert back.names() == data.names()
    assert_array_equal(back.samples, data.samples)  # %.17g is lossless
    # writing the same dataset twice gives identical bytes
    path2 = tmp_path / "d2.csv"
    write_csv(path2, data)
    assert path.read_bytes() == path2.read_bytes()


def test_read_csv_diagnoses_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,2.0\n3.0\n")
    with pytest.raises(IoError) as exc:
        read_csv(path)
    assert "3" in str(exc.value)  # line number in the message
    with pytest.raises(IoError):
        read_csv(tmp_path / "missing.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(IoError):
        read_csv(empty)


def test_read_csv_rejects_non_utf8(tmp_path):
    # in the header, and in the body past what the fast parser reads first
    for name, text in (("head.csv", b"a,\xffb\n1,2\n"),
                       ("body.csv", b"a,b\n1,2\n3,\xff\n")):
        path = tmp_path / name
        path.write_bytes(text)
        with pytest.raises(IoError, match=f"{name}: not a UTF-8 text file"):
            read_csv(path)


def test_read_csv_flags_nan_cells(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("a,b\n1.0,2.0\nnan,4.0\n")
    with pytest.raises(NonFinite):
        read_csv(path)


# -- CSV against the row-by-row references ------------------------------------

def reference_write_csv(path, data):
    """One csv.writer row per observation: the format write_csv keeps."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(data.names())
        for row in np.asarray(data.samples):
            w.writerow([f"{v:.17g}" for v in row])


def reference_read_csv(path):
    """float() on every field of every csv.reader row: the values and the
    errors read_csv keeps."""
    label = str(path)
    with open(path, "r", newline="", encoding="utf-8") as fh:
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
        return Dataset(np.array(rows, dtype=float), names)


def outcome(read, path):
    """(names, sample bits) on success, (error type, message) on failure,
    and the warnings the call emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            data = read(path)
            result = (data.names(), data.samples.tobytes())
        except IcageoError as exc:
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught]


# zeros of both signs, the smallest subnormal, the smallest normal, and
# magnitudes near the float64 range ends
SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  -1e-308, 1e308, -1e308, 1.7976931348623157e308,
                  -1.7976931348623157e308, 1e-5, 0.1, 1.0 / 3.0]
FINITE = st.floats(allow_nan=False, allow_infinity=False)
ROWS = st.sampled_from([2, 3, 17, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                        CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 5])
CSV_SETTINGS = settings(max_examples=40,
                        suppress_health_check=[HealthCheck.function_scoped_fixture])


@CSV_SETTINGS
@given(values=st.lists(FINITE, min_size=1, max_size=30), T=ROWS,
       N=st.integers(1, 4))
def test_write_csv_bytes_equal_row_by_row_writer(tmp_path, values, T, N):
    gen = np.random.default_rng(len(values))
    pool = np.array(values + SPECIAL_VALUES)
    data = Dataset(pool[gen.integers(0, pool.size, (T, N))])
    write_csv(tmp_path / "fast.csv", data)
    reference_write_csv(tmp_path / "ref.csv", data)
    assert (tmp_path / "fast.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()
    back = read_csv(tmp_path / "fast.csv")
    assert back.samples.tobytes() == data.samples.tobytes()


def assert_cells_are_percent_17g(path, values, N):
    """write_csv of `values` as a T x N dataset writes the header row, then
    `"%.17g" % v` for every cell, ',' between cells and '\\r\\n' after each
    row."""
    values = np.asarray(values, dtype=float)
    data = Dataset(np.resize(values, (-(-values.size // N), N)))
    write_csv(path, data)
    lines = path.read_bytes().decode("ascii").split("\r\n")
    assert lines[0] == ",".join(data.names()) and lines[-1] == ""
    got = [line.split(",") for line in lines[1:-1]]
    want = [["%.17g" % v for v in row] for row in data.samples.tolist()]
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"row {i}: {g} != {w}"


def powers_of_ten_and_neighbours():
    # every power of ten from 1e-5 to 1e17 and the four doubles on each side
    # of it: the edges of fixed notation (1e-4, 1e16), and of each decimal
    # exponent the writer estimates
    out = []
    for k in range(-5, 18):
        p = float(f"1e{k}")
        below = above = p
        for _ in range(4):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            out += [below, above]
        out.append(p)
    return np.array(out)


@pytest.mark.parametrize("N", [1, 4])
def test_write_csv_edge_cases_equal_percent_17g(tmp_path, N):
    edges = powers_of_ten_and_neighbours()
    # exact 17-digit ties: a / 2**18 for odd a has 18 decimals ending in 5
    ties = np.arange(26215, 262144, 2) / 2.0 ** 18
    special = [10.0, 1200.0, 1e15, 0.0, -0.0, 5e-324, -5e-324,
               2.2250738585072014e-308, 1e-310, 123456789012345.6,
               1.0000000000000002, 0.99999999999999989, 9999999999999998.0]
    values = np.concatenate([edges, -edges, ties, -ties[::7], special])
    assert_cells_are_percent_17g(tmp_path / "edge.csv", values, N)


@pytest.mark.parametrize("scale", [1e-7, 1e25])
def test_write_csv_blocks_mostly_outside_fixed_notation_equal_percent_17g(
        tmp_path, scale):
    # blocks of exponent-notation cells and zeros with a fixed-notation
    # share of 0, 0.2 and 0.5: most cells take the fallback
    gen = np.random.default_rng(17)
    values = gen.laplace(size=(3 * CSV_BLOCK_ROWS, 2)) * scale
    values[::97] = 0.0
    for block, share in ((1, 0.2), (2, 0.5)):
        rows = slice(block * CSV_BLOCK_ROWS, (block + 1) * CSV_BLOCK_ROWS)
        mask = gen.random(size=(CSV_BLOCK_ROWS, 2)) < share
        values[rows][mask] = gen.laplace(size=mask.sum())
    assert_cells_are_percent_17g(tmp_path / "exp.csv", values.ravel(), 2)


@pytest.mark.parametrize("T", [2, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                               CSV_BLOCK_ROWS + 1])
def test_write_csv_block_edges_equal_percent_17g(tmp_path, T):
    gen = np.random.default_rng(T)
    values = gen.laplace(size=T * 3) * 10.0 ** gen.integers(-6, 18, T * 3)
    assert_cells_are_percent_17g(tmp_path / "block.csv", values, 3)


def test_write_csv_random_bits_and_data_scale_equal_percent_17g(tmp_path):
    gen = np.random.default_rng(20240613)
    bits = gen.integers(-2 ** 63, 2 ** 63, size=120_000, dtype=np.int64)
    bits = bits.view(np.float64)
    bits = bits[np.isfinite(bits)]
    # the same signs and significand bits with binary exponents -13..54,
    # which span fixed notation, [1e-4, 1e16), with a margin on each side
    mantissa = np.frexp(bits)[0]
    moved = np.ldexp(mantissa, gen.integers(-13, 55, size=mantissa.size))
    mixed = gen.laplace(size=(30_000, 4)) @ gen.normal(size=(4, 4))
    rounded = np.round(gen.normal(size=20_000) * 1e4) / 100
    values = np.concatenate([bits, moved, mixed.ravel(), rounded])
    assert_cells_are_percent_17g(tmp_path / "sweep.csv", values, 4)


def test_fixed_cells_leave_off_by_one_exponents_to_the_fallback():
    # An exponent estimate one too small puts D at 10**17 or above, one too
    # large below 10**16: _fixed_cells must leave such cells unprinted.
    from icageo.data import _fixed_cells
    x = np.array([1e-4, 1.0, 9.5, 1234.5, 1e15 + 3, 9.999999999999998e15])
    e = np.array([int(("%.16e" % v)[-3:]) for v in x], dtype=np.int8)
    for shift in (-1, 1):
        est = np.clip(e + shift, -4, 15).astype(np.int8)
        keep = est != e
        order = np.argsort(est[keep], kind="stable")
        cells = np.zeros((order.size, 26), dtype=np.uint8)
        assert not _fixed_cells(x[keep][order], est[keep][order], cells).any()
    assert _fixed_cells(x, e, np.zeros((x.size, 26), dtype=np.uint8)).all()


@pytest.mark.parametrize("error", [-1e-9, 1e-9])
def test_write_csv_survives_an_inexact_log10(tmp_path, monkeypatch, error):
    # numpy's log10 is only accurate to a few ulp; an exponent estimate
    # pushed across a power of ten, or below 1e-4, must still print the
    # same bytes
    exact = np.log10
    monkeypatch.setattr(np, "log10", lambda a: exact(a) + error)
    edges = powers_of_ten_and_neighbours()
    values = np.concatenate([edges, -edges, np.random.default_rng(3)
                             .laplace(size=4000)])
    assert_cells_are_percent_17g(tmp_path / "log.csv", values, 4)


def test_write_csv_memory_stays_below_the_row_formatting_writer(tmp_path):
    # The writer that %-formatted 8192-row blocks peaked at 2,041,553 bytes
    # of traced allocations on this dataset; array blocks must not need more.
    data = Dataset(np.random.default_rng(5).laplace(size=(100_000, 4)))
    write_csv(tmp_path / "warm.csv", data)
    tracemalloc.start()
    try:
        write_csv(tmp_path / "m.csv", data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_041_553


NAME = st.text("abcxyz_019 ", min_size=1, max_size=6).filter(str.strip)
# renderings float() reads back exactly, and two that round (%.3e can
# round past the largest float64 to inf)
EXACT_FORMATS = ["%.17g", "%r", "%.25g"]
FORMATS = EXACT_FORMATS + ["%.3e", "%.6f"]


@CSV_SETTINGS
@given(values=st.lists(FINITE, min_size=1, max_size=40),
       names=st.lists(NAME, min_size=1, max_size=4, unique_by=str.strip),
       fmt=st.sampled_from(FORMATS), eol=st.sampled_from(["\r\n", "\n"]),
       final_eol=st.booleans())
def test_read_csv_equals_row_by_row_reader(tmp_path, values, names, fmt, eol,
                                           final_eol):
    N = len(names)
    values = values * N * 2
    rows = [values[k:k + N] for k in range(0, len(values) - N + 1, N)]
    text = eol.join([",".join(names)]
                    + [",".join(fmt % v for v in row) for row in rows])
    path = tmp_path / "in.csv"
    path.write_bytes((text + (eol if final_eol else "")).encode())
    got, caught = outcome(read_csv, path)
    assert caught == []
    assert got == outcome(reference_read_csv, path)[0]
    if fmt in EXACT_FORMATS:
        assert got == (tuple(n.strip() for n in names),
                       np.array(rows).tobytes())


FIELDS = st.sampled_from(["1", "-0", "2.5e-3", "1e308", "", " ", " 3 ", "\t4",
                          "nan", "-inf", "#", "#1", '"1"', '"1,2"', '"',
                          "1_0", "x", "5e", "0x10", "\x0c", "\u0663"])
LINE = st.one_of(st.lists(FIELDS, max_size=4).map(",".join),
                 st.sampled_from(["", " ", "# comment", ",", "1,2,"]))
HEADER = st.sampled_from(["a,b", "a", "a,b,c", '"a",b', '"a,b"', "", " ",
                          "a,,b", " a , b ", "#a,b"])


@settings(CSV_SETTINGS, max_examples=300)
@given(header=HEADER, lines=st.lists(LINE, max_size=6),
       eol=st.sampled_from(["\r\n", "\n", "\r"]), final_eol=st.booleans())
@example(header="a,b", lines=["1,2,3", "4,5,6"], eol="\n", final_eol=True)
@example(header="a", lines=["# comment", "1", "2"], eol="\n", final_eol=True)
@example(header="a", lines=["1", "", "2"], eol="\r\n", final_eol=False)
@example(header="", lines=[], eol="\n", final_eol=False)  # empty file
@example(header="a", lines=[], eol="\n", final_eol=True)  # header only
@example(header="a,b", lines=["", ""], eol="\r\n", final_eol=True)
def test_read_csv_malformed_input_matches_row_by_row_reader(
        tmp_path, header, lines, eol, final_eol):
    text = eol.join([header] + lines) + (eol if final_eol else "")
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    got, caught = outcome(read_csv, path)
    assert caught == []
    assert got == outcome(reference_read_csv, path)[0]


# -- the sidecar beside each CSV ----------------------------------------------

def sidecar(path):
    return path.with_name(path.name + ".bin")


# cells in exponent notation (|x| < 1e-4, |x| >= 1e16), signed zeros and
# subnormals among drawn floats
SIDECAR_VALUE = st.one_of(FINITE, st.sampled_from(
    SPECIAL_VALUES + [9.99e-5, -3e-9, 1e16, -2.5e17, 5e-320]))
# a comma, a quote, surrounding spaces, line ends inside the quotes, an
# empty name, and names equal once stripped
SIDECAR_NAME = st.one_of(NAME, st.sampled_from(
    ["a,b", 'c "q"', " s ", "x\ny", "r\rs", "", "t", " t"]))


@settings(CSV_SETTINGS, max_examples=30)
@given(values=st.lists(SIDECAR_VALUE, min_size=1, max_size=20),
       T=st.sampled_from([2, 3, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS + 1]),
       names=st.lists(SIDECAR_NAME, min_size=1, max_size=3, unique=True))
def test_read_csv_gives_the_same_outcome_with_and_without_its_sidecar(
        tmp_path, values, T, names):
    pool = np.array(values)
    samples = pool[np.random.default_rng(T).integers(
        0, pool.size, (T, len(names)))]
    if not all(n and n == n.strip() for n in names):
        # a name that a header row would lose or strip is refused
        with pytest.raises(EmptyChannels):
            Dataset(samples, names)
        return
    written = Dataset(samples, names)
    path = tmp_path / "d.csv"
    write_csv(path, written)
    # the sidecar is read whenever the header is one line
    hit = data._read_sidecar(path) is not None
    assert hit == (not any("\n" in n for n in names))
    got = outcome(read_csv, path)
    sidecar(path).unlink()
    assert got == outcome(read_csv, path)
    if not isinstance(got[0][0], type):
        assert got[0][1] == written.samples.tobytes()


def change_a_digit(path):
    text = bytearray(path.read_bytes())
    # the last byte of the first data row's first cell is a digit
    i = text.index(b",", text.index(b"\n")) - 1
    text[i] = ord("1") if text[i] != ord("1") else ord("2")
    path.write_bytes(bytes(text))


def append(line):
    return lambda path: path.write_bytes(path.read_bytes() + line)


def resize_sidecar(path):
    side = sidecar(path)
    side.write_bytes(side.read_bytes()[:-8])


def flip_a_payload_byte(path):
    # the same size and CSV digest, so only the payload's digest tells
    side = bytearray(sidecar(path).read_bytes())
    side[-1] ^= 1
    sidecar(path).write_bytes(bytes(side))


def older_magic(path):
    # a sidecar of another version is not read, whatever follows its magic
    side = sidecar(path)
    side.write_bytes(side.read_bytes().replace(b"sidecar 2\n", b"sidecar 1\n",
                                               1))


def foreign_sidecar(path):
    other = path.with_name("other.csv")
    write_csv(other, Dataset(np.ones((40, 2)), ("a", "b")))
    sidecar(path).write_bytes(sidecar(other).read_bytes())


def garbage_sidecar(path):
    side = sidecar(path)
    side.write_bytes(np.random.default_rng(2).bytes(side.stat().st_size))


@pytest.mark.parametrize("change", [
    change_a_digit, append(b"1,2\r\n"), append(b"1,2,3\r\n"),
    resize_sidecar, flip_a_payload_byte, older_magic, foreign_sidecar,
    garbage_sidecar, lambda path: sidecar(path).unlink()],
    ids=["digit", "row", "bad-row", "truncated", "payload", "version",
         "foreign", "garbage", "missing"])
def test_read_csv_reads_the_text_when_the_sidecar_does_not_match(tmp_path,
                                                                 change):
    path = tmp_path / "d.csv"
    write_csv(path, Dataset(np.random.default_rng(9).laplace(size=(40, 2)),
                            ("a", "b")))
    change(path)
    assert data._read_sidecar(path) is None
    got, caught = outcome(read_csv, path)
    assert caught == []
    assert got == outcome(reference_read_csv, path)[0]


@pytest.mark.parametrize("T,N", [(2, 1), (40, 3)])
def test_sidecar_is_the_magic_two_digests_and_the_rows(tmp_path, T, N):
    samples = np.random.default_rng(T).laplace(size=(T, N))
    path = tmp_path / "d.csv"
    write_csv(path, Dataset(samples))
    side = sidecar(path).read_bytes()
    assert len(side) == 85 + 8 * T * N
    assert side[:21] == b"icageo csv sidecar 2\n"
    assert side[21:53] == hashlib.sha256(path.read_bytes()).digest()
    assert side[53:85] == hashlib.sha256(side[85:]).digest()
    assert side[85:] == samples.tobytes()
