"""Tests for errors, seeding, source families, and dataset handling."""
import csv
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from icageo import (Dataset, EmptyChannels, IcageoError, InvalidDistribution,
                    IoError, MixingModel, NonFinite, Rng, SingularTransform,
                    SourceSpec, TooFewSamples, exit_code_for, parse_source,
                    random_mixing, read_csv, simulate, validate_dataset,
                    write_csv)
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
    with pytest.raises(InvalidDistribution):
        SourceSpec("uniform", beta=2.0)
    with pytest.raises(InvalidDistribution):
        SourceSpec("generalized-gaussian")  # beta required


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
    with pytest.raises(NonFinite):
        bad = np.zeros((4, 2))
        bad[2, 1] = np.nan
        Dataset(bad)


def test_validate_dataset_reports_offending_cell():
    raw = np.ones((5, 3))
    raw[4, 2] = np.inf
    with pytest.raises(NonFinite) as exc:
        validate_dataset(raw)
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
        return validate_dataset(np.array(rows, dtype=float), names)


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


NAME = st.text("abcxyz_019 ", min_size=1, max_size=6).filter(str.strip)
# renderings float() reads back exactly, and two that round (%.3e can
# round past the largest float64 to inf)
EXACT_FORMATS = ["%.17g", "%r", "%.25g"]
FORMATS = EXACT_FORMATS + ["%.3e", "%.6f"]


@CSV_SETTINGS
@given(values=st.lists(FINITE, min_size=1, max_size=40),
       names=st.lists(NAME, min_size=1, max_size=4),
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

