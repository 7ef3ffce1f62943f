"""End-to-end tests of the command-line interface (in-process)."""
import argparse
import ast
import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from icageo import (Dataset, NonFinite, make_score, read_csv,
                    stationarity_matrix, write_csv)
from icageo.algorithms import COARSE_ROWS, SCORE_NAMES
from icageo.cli import build_parser, main

TABLE_MI = 0.19274475702175753  # exact MI of [[0.4,0.1],[0.1,0.4]]


def run(args):
    return main([str(a) for a in args])


def simulate_into(path, sources="laplace,uniform", samples=20000, seed=7,
                  extra=()):
    code = run(["simulate", "--sources", sources, "--samples", samples,
                "--seed", seed, "--output-dir", path, *extra])
    assert code == 0
    return path


# -- simulate -------------------------------------------------------------------

def test_simulate_writes_three_files(tmp_path):
    out = simulate_into(tmp_path / "sim")
    for name in ("X.csv", "S.csv", "model.json"):
        assert (out / name).exists()
    model = json.loads((out / "model.json").read_text())
    assert model["sources"] == ["laplace", "uniform"]
    assert np.asarray(model["mixing"]).shape == (2, 2)
    header = (out / "X.csv").read_text().splitlines()[0]
    assert header == "x1,x2"


def test_simulate_rerun_is_byte_identical(tmp_path):
    a = simulate_into(tmp_path / "a")
    b = simulate_into(tmp_path / "b")
    for name in ("X.csv", "S.csv", "model.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    c = simulate_into(tmp_path / "c", seed=8)
    assert (a / "X.csv").read_bytes() != (c / "X.csv").read_bytes()


def test_simulate_gaussian_only_warns(tmp_path, capsys):
    code = run(["simulate", "--sources", "gaussian,gaussian",
                "--samples", 2000, "--output-dir", tmp_path / "g"])
    assert code == 0
    err = capsys.readouterr().err
    assert "Gaussian-only mixture is not blindly separable" in err
    assert (tmp_path / "g" / "X.csv").exists()  # files still written


def test_simulate_without_sources_fails_with_usage(tmp_path, capsys):
    code = run(["simulate", "--output-dir", tmp_path])
    assert code == 2
    assert "--sources" in capsys.readouterr().err


def test_simulate_with_explicit_mixing(tmp_path):
    mix = tmp_path / "mix.json"
    mix.write_text(json.dumps({"mixing": [[1.0, 0.5], [0.0, 1.0]]}))
    out = tmp_path / "sim"
    code = run(["simulate", "--sources", "laplace,laplace", "--samples", 2000,
                "--mixing", mix, "--output-dir", out])
    assert code == 0
    model = json.loads((out / "model.json").read_text())
    assert model["mixing"] == [[1.0, 0.5], [0.0, 1.0]]


@pytest.mark.parametrize("where", ["flag", "config"])
def test_simulate_cond_with_mixing_is_input_error(tmp_path, capsys, where):
    mix = tmp_path / "mix.json"
    mix.write_text(json.dumps({"mixing": [[1.0, 0.5], [0.0, 1.0]]}))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cond = 50\n")
    cond = ["--cond", 50] if where == "flag" else ["--config", cfg]
    out = tmp_path / "sim"
    assert run(["simulate", "--sources", "laplace,laplace", "--samples", 2000,
                "--mixing", mix, *cond, "--output-dir", out]) == 2
    assert f"--cond applies to the random mixing matrix only; {mix}" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_seed_env_var_is_the_default(tmp_path, monkeypatch):
    monkeypatch.setenv("ICAGEO_SEED", "7")
    env_dir = tmp_path / "env"
    code = run(["simulate", "--sources", "laplace,uniform",
                "--samples", 20000, "--output-dir", env_dir])
    assert code == 0
    flag_dir = simulate_into(tmp_path / "flag")  # explicit --seed 7
    assert (env_dir / "X.csv").read_bytes() == (flag_dir / "X.csv").read_bytes()
    # an explicit flag beats the environment
    monkeypatch.setenv("ICAGEO_SEED", "99")
    over_dir = simulate_into(tmp_path / "over")
    assert (over_dir / "X.csv").read_bytes() == (flag_dir / "X.csv").read_bytes()


def test_config_file_supplies_defaults_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# simulation defaults\nsources = laplace,uniform\n"
                   "samples = 20000\nseed = 7\n")
    cfg_dir = tmp_path / "cfg"
    code = run(["simulate", "--config", cfg, "--output-dir", cfg_dir])
    assert code == 0
    base = simulate_into(tmp_path / "base")
    assert (cfg_dir / "X.csv").read_bytes() == (base / "X.csv").read_bytes()
    # flag overrides the config value
    override = tmp_path / "ovr"
    code = run(["simulate", "--config", cfg, "--seed", 8,
                "--output-dir", override])
    assert code == 0
    assert (override / "X.csv").read_bytes() != (base / "X.csv").read_bytes()


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    for line in ("seed 7", "= 7", " ="):  # no "=", or no key
        bad.write_text(f"# defaults\n{line}\n")
        assert run(["simulate", "--sources", "laplace,uniform",
                    "--config", bad, "--output-dir", tmp_path]) == 2
        assert capsys.readouterr().err == (f"icageo simulate: error: {bad}: "
                                           "line 2: expected key=value\n")
    assert run(["simulate", "--sources", "laplace,uniform",
                "--config", tmp_path / "missing.cfg",
                "--output-dir", tmp_path]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command,lines,keys", [
    (["simulate", "--sources", "laplace,uniform"], "max-iters = 5\nseeds = 3\n",
     "max-iters, seeds"),
    (["separate", "{csv}"], "command = verify\n", "command"),
    (["separate", "{csv}"], "config = other.cfg\n", "config"),
    (["diagnose", "{csv}"], "input = other.csv\n", "input"),
    (["verify"], "max-iter = 5\n", "max-iter"),
    # the suite draws from its own fixed seed
    (["verify"], "seed = 1\n", "seed"),
    # argparse would expand the flag --max to --max-iter; a key may not
    (["separate", "{csv}"], "max = 5\n", "max"),
], ids=["simulate-typos", "command", "config", "input", "verify-max-iter",
        "verify-seed", "prefix"])
def test_config_key_naming_no_option_is_input_error(tmp_path, capsys, command,
                                                    lines, keys):
    csv = tmp_path / "x.csv"
    write_csv(csv, Dataset(np.random.default_rng(3).laplace(size=(2000, 2))))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines)
    out = tmp_path / "out"
    args = [csv if a == "{csv}" else a for a in command]
    assert run([*args, "--config", cfg, "--output-dir", out]) == 2
    err = capsys.readouterr().err
    assert f"error: {cfg}: {keys}: no such option of {command[0]}" in err
    assert not out.exists()


def test_unknown_source_family_is_input_error(tmp_path, capsys):
    assert run(["simulate", "--sources", "cauchy,uniform",
                "--output-dir", tmp_path]) == 2
    capsys.readouterr()


def test_infinite_generalized_gaussian_shape_is_input_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["simulate", "--sources", "generalized-gaussian(inf),uniform",
                "--output-dir", out]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == ("icageo simulate: error: generalized-gaussian needs a "
                    "finite shape beta > 0.25")
    assert not out.exists()


@pytest.mark.parametrize("cond", ["nan", "inf", "1e300"])
def test_simulate_cond_the_matrix_cannot_honour_is_input_error(tmp_path,
                                                               capsys, cond):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy sees it
        assert run(["simulate", "--sources", "laplace,uniform", "--cond", cond,
                    "--output-dir", out]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("icageo simulate: error: condition number (--cond) "
                           "must lie in [1, 1e+12)")
    assert not out.exists()


# -- separate --------------------------------------------------------------------

def test_separate_adaptive_end_to_end(tmp_path):
    sim = simulate_into(tmp_path / "sim")
    out = tmp_path / "sep"
    code = run(["separate", sim / "X.csv", "--model", sim / "model.json",
                "--seed", 7, "--output-dir", out])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["algorithm"] == "relative_gradient"
    assert report["converged"] is True
    assert report["amari_index"] < 0.05
    assert report["stationarity_norm"] < 1e-4
    assert (out / "B.json").exists() and (out / "Y.csv").exists()
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,value"
    assert len(trace) == report["iterations"] + 1
    B = np.asarray(json.loads((out / "B.json").read_text())["demixing"])
    assert B.shape == (2, 2)


def test_separate_orthogonal_records_decorrelation(tmp_path, capsys):
    sim = simulate_into(tmp_path / "sim")
    out = tmp_path / "orth"
    code = run(["separate", sim / "X.csv", "--algorithm", "orthogonal",
                "--model", sim / "model.json", "--output-dir", out])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["algorithm"] == "orthogonal"
    assert report["amari_index"] < 0.05
    assert report["correlation_C"] < 1e-10
    assert report["no_improvement"] is False
    # the solver uses no score, and its trajectory holds sweep gains
    assert report["score"] is None
    assert "stationarity_norm" not in report
    trace = (out / "trace.csv").read_text().splitlines()
    assert report["last_sweep_gain"] == float(trace[-1].split(",")[1])
    assert report["last_sweep_gain"] <= 1e-4  # the default tol
    assert "last_sweep_gain=" in capsys.readouterr().out


def test_separate_orthogonal_max_iter_caps_the_sweeps(tmp_path, capsys):
    sim = simulate_into(tmp_path / "sim", "laplace,uniform,laplace", 5000, 3)
    out = tmp_path / "orth"
    assert run(["separate", sim / "X.csv", "--algorithm", "orthogonal",
                "--max-iter", 1, "--output-dir", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["iterations"] == 1
    assert report["converged"] is False
    assert len((out / "trace.csv").read_text().splitlines()) == 2
    capsys.readouterr()


def test_separate_capped_run_reports_the_returned_demixing(tmp_path, capsys):
    sim = simulate_into(tmp_path / "sim", samples=5000)
    out = tmp_path / "cap"
    assert run(["separate", sim / "X.csv", "--score", "tanh", "--max-iter", 3,
                "--output-dir", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False and report["iterations"] == 3
    # the norm at the returned B, whose outputs Y.csv holds bit-exactly
    Y = read_csv(out / "Y.csv")
    F = stationarity_matrix(Y, [make_score("tanh")] * Y.N)
    norm = float(np.linalg.norm(F - np.diag(np.diag(F))))
    assert report["stationarity_norm"] == pytest.approx(norm, rel=1e-12)
    trace = (out / "trace.csv").read_text().splitlines()
    assert len(trace) == 1 + 3 + 1  # header, three iterates, the returned B
    assert float(trace[-1].split(",")[1]) == report["stationarity_norm"]
    capsys.readouterr()


@pytest.mark.parametrize("key,value", [("score", "tanh"), ("step", 0.5)])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_separate_orthogonal_score_or_step_is_input_error(tmp_path, capsys,
                                                          where, key, value):
    sim = simulate_into(tmp_path / "sim", samples=2000)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    option = [f"--{key}", value] if where == "flag" else ["--config", cfg]
    out = tmp_path / "orth"
    assert run(["separate", sim / "X.csv", "--algorithm", "orthogonal",
                *option, "--output-dir", out]) == 2
    assert (f"--{key}: the orthogonal rotation search uses no score and no "
            "step") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("algorithm", ["relative_gradient", "orthogonal"])
def test_separate_infinite_tol_is_input_error(tmp_path, capsys, algorithm):
    # an infinite tol stopped either solver after one step and wrote
    # "converged": true
    sim = simulate_into(tmp_path / "sim", samples=3000, seed=1)
    out = tmp_path / "out"
    assert run(["separate", sim / "X.csv", "--algorithm", algorithm,
                "--tol", "inf", "--output-dir", out]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "icageo separate: error: tol must be finite and positive"]
    assert not out.exists()


@pytest.mark.parametrize("algorithm", ["relative_gradient", "orthogonal"])
def test_separate_model_on_one_channel_is_input_error(tmp_path, capsys,
                                                      algorithm):
    # the Amari index of a 1 x 1 gain is undefined: refused before the
    # solve, not after B.json, Y.csv and trace.csv were written
    sim = simulate_into(tmp_path / "sim", sources="laplace", samples=2000)
    out = tmp_path / "out"
    assert run(["separate", sim / "X.csv", "--algorithm", algorithm,
                "--model", sim / "model.json", "--output-dir", out]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "icageo separate: error: --model: the Amari index needs at least 2 "
        "channels; the input has 1"]
    assert not out.exists() or not any(out.iterdir())


def test_separate_is_byte_identical_across_runs(tmp_path):
    sim = simulate_into(tmp_path / "sim")
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run(["separate", sim / "X.csv", "--seed", 3,
                    "--output-dir", out]) == 0
        outs.append(out)
    for fname in ("B.json", "Y.csv", "trace.csv", "report.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


@settings(max_examples=8,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sources=st.lists(st.sampled_from(["laplace", "uniform", "gaussian",
                                         "generalized-gaussian(4)"]),
                        min_size=2, max_size=3),
       samples=st.sampled_from([2000, COARSE_ROWS + 1, 12000]),
       seed=st.integers(0, 2 ** 32))
def test_separate_orthogonal_reruns_are_byte_identical(tmp_path, sources,
                                                       samples, seed):
    # drawn inputs on both sides of COARSE_ROWS, where the coarse scan
    # reads a subsample; every run of one example gets its own directory
    base = tmp_path / f"{'-'.join(sources)}-{samples}-{seed}"
    sim = simulate_into(base / "sim", ",".join(sources), samples, seed)
    outs = []
    for name in ("r1", "r2"):
        out = base / name
        assert run(["separate", sim / "X.csv", "--algorithm", "orthogonal",
                    "--output-dir", out]) == 0
        outs.append(out)
    for fname in ("B.json", "Y.csv", "trace.csv", "report.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_separate_reports_stability_margins(tmp_path):
    sim = simulate_into(tmp_path / "sim", samples=5000)
    common = {"algorithm", "converged", "correlation_C", "iterations",
              "no_improvement", "score"}
    keys = {"relative_gradient": common | {"stability_margins", "stable",
                                           "stationarity_norm"},
            "orthogonal": common | {"last_sweep_gain"}}
    for algorithm in ("relative_gradient", "orthogonal"):
        out = tmp_path / algorithm
        assert run(["separate", sim / "X.csv", "--algorithm", algorithm,
                    "--output-dir", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report) == keys[algorithm]
        if algorithm == "orthogonal":
            # no score, no likelihood Hessian: no margins to report
            assert "stability_margins" not in report
            assert "stable" not in report
        else:
            assert len(report["stability_margins"]) == 2
            assert report["stable"] is True
            assert report["stable"] == (min(report["stability_margins"]) > 0)


def test_separate_summary_line_shows_the_verdict(tmp_path, capsys):
    # tanh on uniform sources meets the stopping rule at a point with a
    # negative margin; the orthogonal search has no margins to judge by
    sim = simulate_into(tmp_path / "sim", "uniform,uniform", 5000)
    capsys.readouterr()
    assert run(["separate", sim / "X.csv", "--score", "tanh",
                "--output-dir", tmp_path / "rg"]) == 0
    assert capsys.readouterr().out.startswith(
        "converged=True stable=False iterations=")
    assert run(["separate", sim / "X.csv", "--algorithm", "orthogonal",
                "--output-dir", tmp_path / "orth"]) == 0
    assert "stable=" not in capsys.readouterr().out


def test_separate_default_step_is_the_full_newton_step(tmp_path):
    sim = simulate_into(tmp_path / "sim", samples=5000)
    for name, extra in (("default", []), ("one", ["--step", "1"])):
        assert run(["separate", sim / "X.csv", "--output-dir",
                    tmp_path / name, *extra]) == 0
    for fname in ("B.json", "Y.csv", "trace.csv", "report.json"):
        assert ((tmp_path / "default" / fname).read_bytes()
                == (tmp_path / "one" / fname).read_bytes())
    # a smaller step scales the Newton direction and takes longer
    assert run(["separate", sim / "X.csv", "--step", "0.5", "--output-dir",
                tmp_path / "half"]) == 0
    full = json.loads((tmp_path / "one" / "report.json").read_text())
    half = json.loads((tmp_path / "half" / "report.json").read_text())
    assert half["converged"] and half["iterations"] > full["iterations"]


@pytest.mark.parametrize("center", [False, True], ids=["plain", "centered"])
@pytest.mark.parametrize("command", [
    ["separate"], ["separate", "--algorithm", "orthogonal"], ["diagnose"]],
    ids=["relative-gradient", "orthogonal", "diagnose"])
def test_constant_column_is_input_error(tmp_path, capsys, command, center):
    x = np.random.default_rng(8).laplace(size=(3000, 3))
    x[:, 1] = 1.0
    write_csv(tmp_path / "const.csv", Dataset(x, ("a", "b", "c")))
    out = tmp_path / "out"
    code = run([*command, tmp_path / "const.csv", "--output-dir", out,
                *(["--center"] if center else [])])
    assert code == 2
    err = capsys.readouterr().err
    assert "constant column 'b'" in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@settings(max_examples=80,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(T=st.integers(2, 30), N=st.integers(1, 4),
       bad=st.sampled_from(["nan", "inf", "-inf", "constant"]),
       command=st.sampled_from(["separate", "diagnose"]),
       center=st.booleans(), data=st.data())
def test_bad_cell_or_constant_column_is_named_input_error(
        tmp_path, capsys, T, N, bad, command, center, data):
    row = data.draw(st.integers(0, T - 1))
    col = data.draw(st.integers(0, N - 1))
    names = tuple(f"c{j}" for j in range(N))
    x = np.random.default_rng(4 * T + N).standard_normal((T, N))
    if bad == "constant":
        x[:, col] = x[row, col]
    else:
        x[row, col] = float(bad)
    path = tmp_path / "in.csv"
    path.write_text(",".join(names) + "\n" + "".join(
        ",".join(f"{v:.17g}" for v in r) + "\n" for r in x))
    if bad == "constant":
        # valid data: only the commands reject a constant column
        assert Dataset(x).samples.tobytes() == x.tobytes()
        assert read_csv(path).samples.tobytes() == x.tobytes()
        expected = f"constant column '{names[col]}': all its values are equal"
    else:
        for load in (lambda: Dataset(x), lambda: read_csv(path)):
            with pytest.raises(NonFinite) as exc:
                load()
            assert (exc.value.row, exc.value.col) == (row, col)
        expected = str(NonFinite(row, col))
    out = tmp_path / "out"
    capsys.readouterr()
    code = run([command, path, "--output-dir", out,
                *(["--center"] if center else [])])
    assert code == 2
    assert capsys.readouterr().err == f"icageo {command}: error: {expected}\n"
    assert not out.exists()


def test_separate_rejects_identity_score_on_cli(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["separate", "x.csv", "--score", "identity"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_separate_score_choices_are_the_library_scores():
    # identity, the Gaussian negative control, is library-only
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    (score,) = [a for a in sub.choices["separate"]._actions
                if a.dest == "score"]
    assert set(score.choices) == set(SCORE_NAMES) - {"identity"}


def test_separate_input_errors(tmp_path, capsys):
    assert run(["separate", tmp_path / "missing.csv"]) == 2
    nan_csv = tmp_path / "nan.csv"
    nan_csv.write_text("a,b\n1.0,2.0\nnan,0.5\n" + "1.0,2.0\n" * 50)
    assert run(["separate", nan_csv]) == 2
    err = capsys.readouterr().err
    assert "row" in err  # NonFinite location diagnostics survive to stderr


def test_separate_adaptive_on_short_input_is_input_error(tmp_path, capsys):
    x = np.random.default_rng(5).laplace(size=(500, 2))
    src = tmp_path / "short.csv"
    src.write_text("a,b\n" + "\n".join(f"{r[0]:.17g},{r[1]:.17g}"
                                       for r in x) + "\n")
    code = run(["separate", src, "--score", "adaptive",
                "--output-dir", tmp_path / "out"])
    assert code == 2
    err = capsys.readouterr().err
    assert "adaptive score needs T >= 1000" in err
    assert "Traceback" not in err


def test_separate_adaptive_on_short_collinear_input_is_input_error(tmp_path,
                                                                 capsys):
    # the sample-size checks come before whitening, which would fail first
    # on a singular covariance
    x = np.random.default_rng(6).laplace(size=500)
    src = tmp_path / "collinear.csv"
    src.write_text("a,b\n" + "\n".join(f"{v:.17g},{2.0 * v:.17g}"
                                       for v in x) + "\n")
    code = run(["separate", src, "--score", "adaptive",
                "--output-dir", tmp_path / "out"])
    assert code == 2
    assert "adaptive score needs T >= 1000" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["separate"], ["separate", "--algorithm", "orthogonal"], ["diagnose"]],
    ids=["relative-gradient", "orthogonal", "diagnose"])
def test_center_flag_equals_centering_the_csv_first(tmp_path, capsys,
                                                     command):
    sim = simulate_into(tmp_path / "sim", samples=5000)
    shifted = read_csv(sim / "X.csv").samples + np.array([3.0, -2.0])
    write_csv(tmp_path / "shifted.csv", Dataset(shifted))
    write_csv(tmp_path / "centered.csv",
              Dataset(shifted - shifted.mean(axis=0)))
    assert run([*command, tmp_path / "shifted.csv", "--center",
                "--output-dir", tmp_path / "flag"]) == 0
    assert run([*command, tmp_path / "centered.csv",
                "--output-dir", tmp_path / "pre"]) == 0
    names = sorted(p.name for p in (tmp_path / "flag").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "pre").iterdir())
    assert len(names) >= 2
    for name in names:
        assert ((tmp_path / "flag" / name).read_bytes()
                == (tmp_path / "pre" / name).read_bytes())
    capsys.readouterr()


# -- diagnose ---------------------------------------------------------------------

def test_diagnose_correlated_gaussian(tmp_path):
    gen = np.random.default_rng(4)
    cov = [[1.0, 0.5], [0.5, 1.0]]
    x = gen.multivariate_normal([0.0, 0.0], cov, size=50000)
    src = tmp_path / "x.csv"
    src.write_text("a,b\n" + "\n".join(f"{r[0]:.17g},{r[1]:.17g}"
                                       for r in x) + "\n")
    out = tmp_path / "diag"
    assert run(["diagnose", src, "--output-dir", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert abs(report["mi"] - report["correlation"]) < 0.02
    plot = (out / "plotdata.csv").read_text().splitlines()
    assert plot[0] == "channel,position,density,score"
    channels = {line.split(",")[0] for line in plot[1:]}
    assert channels == {"a", "b"}


def test_diagnose_plotdata_quotes_names_with_a_comma_or_a_quote(tmp_path):
    x = np.random.default_rng(5).laplace(size=(2000, 2))
    src = tmp_path / "x.csv"
    src.write_text('"a,b","c ""q"""\n' + "".join(f"{r[0]:.17g},{r[1]:.17g}\n"
                                                for r in x))
    out = tmp_path / "diag"
    assert run(["diagnose", src, "--output-dir", out]) == 0
    with open(out / "plotdata.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert {len(row) for row in rows} == {4}
    assert {row[0] for row in rows[1:]} == {"a,b", 'c "q"'}


def test_diagnose_plotdata_quotes_a_name_holding_a_carriage_return(tmp_path):
    x = np.random.default_rng(5).laplace(size=(1500, 2))
    src = tmp_path / "x.csv"
    src.write_bytes(b'"a\rb",c\n' + "".join(
        f"{r[0]:.17g},{r[1]:.17g}\n" for r in x).encode())
    out = tmp_path / "diag"
    assert run(["diagnose", src, "--output-dir", out]) == 0
    with open(out / "plotdata.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 513 and {len(row) for row in rows} == {4}
    assert [row[0] for row in rows[1:]] == ["a\rb"] * 256 + ["c"] * 256
    # the plain name keeps its unquoted bytes
    text = (out / "plotdata.csv").read_bytes()
    assert text.count(b"\nc,") == 256 and text.count(b'"a\rb","') == 256


def test_diagnose_five_channels_omits_mi(tmp_path):
    gen = np.random.default_rng(11)
    x = gen.standard_normal((3000, 5))
    src = tmp_path / "x5.csv"
    src.write_text("c1,c2,c3,c4,c5\n"
                   + "\n".join(",".join(f"{v:.17g}" for v in row)
                               for row in x) + "\n")
    out = tmp_path / "d5"
    assert run(["diagnose", src, "--output-dir", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert "mi" not in report
    assert len(report["marginal_negentropies"]) == 5
    assert "correlation" in report and "objective_proxy" in report


@pytest.mark.parametrize("T,N", [(3000, 1), (500, 2)],
                         ids=["one-channel", "500-rows"])
def test_diagnose_small_input_omits_mi(tmp_path, capsys, T, N):
    src = tmp_path / "x.csv"
    write_csv(src, Dataset(np.random.default_rng(12).laplace(size=(T, N))))
    out = tmp_path / "diag"
    assert run(["diagnose", src, "--output-dir", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert "mi" not in report
    assert len(report["marginal_negentropies"]) == N
    plot = (out / "plotdata.csv").read_text().splitlines()
    assert plot[0] == "channel,position,density,score"
    assert (len(plot) == 1) == (T < 1000)  # no score table below 1000 rows
    capsys.readouterr()


def test_separate_non_utf8_csv_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"a,b\n1,2\n3,\xff\n")
    assert run(["separate", bad, "--output-dir", tmp_path / "out"]) == 2
    assert "bad.csv: not a UTF-8 text file" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["diagnose", "separate"])
def test_repeated_channel_name_is_input_error(tmp_path, capsys, command):
    # diagnose used to write plotdata.csv rows that all named channel x
    csv = tmp_path / "twice.csv"
    write_csv(csv, Dataset(np.random.default_rng(8).laplace(size=(2000, 2)),
                           ("x", "y")))
    text = csv.read_text()
    csv.write_text("x, x" + text[text.index("\n"):])
    out = tmp_path / "out"
    assert run([command, csv, "--output-dir", out]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"icageo {command}: error: repeated channel name 'x'"]
    assert not out.exists()


def test_diagnose_no_more_rows_than_channels_is_input_error(tmp_path, capsys):
    # a singular sample covariance used to exit 1 (SingularCovariance)
    src = tmp_path / "x.csv"
    write_csv(src, Dataset(np.random.default_rng(9).laplace(size=(2, 2))))
    out = tmp_path / "diag"
    assert run(["diagnose", src, "--output-dir", out]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "icageo diagnose: error: need more observations than channels, got "
        "2 rows of 2 channels"]
    assert not out.exists() or not any(out.iterdir())


def test_diagnose_empty_file_is_io_error(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run(["diagnose", empty]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["diagnose", "separate"])
def test_covariance_overflow_fails_without_a_numpy_warning(tmp_path, capsys,
                                                           command):
    # every value is finite, but their squares overflow
    csv = tmp_path / "huge.csv"
    gen = np.random.default_rng(5)
    write_csv(csv, Dataset(1e200 * gen.laplace(size=(3000, 2))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, csv, "--output-dir", tmp_path / "out"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"icageo {command}: error: covariance is zero or non-finite"]


# -- verify ------------------------------------------------------------------------

def test_verify_builtin_suite_passes(tmp_path, capsys):
    out = tmp_path / "ver"
    code = run(["verify", "--step", 0.02, "--output-dir", out])
    assert code == 0
    doc = json.loads((out / "identities.json").read_text())
    assert doc["all_passed"] is True
    assert len(doc["checks"]) >= 12
    for check in doc["checks"]:
        assert {"name", "lhs", "rhs", "residual", "threshold",
                "passed", "terms"} <= set(check)
    stdout = capsys.readouterr().out
    assert stdout.count("PASS") == len(doc["checks"])


def test_verify_user_joint_reports_exact_mi(tmp_path, capsys):
    spec = tmp_path / "user.json"
    spec.write_text(json.dumps({"joint": [[0.4, 0.1], [0.1, 0.4]]}))
    out = tmp_path / "ver"
    assert run(["verify", "--spec", spec, "--output-dir", out]) == 0
    doc = json.loads((out / "identities.json").read_text())
    (check,) = doc["checks"]
    assert check["terms"]["mutual_information"] == pytest.approx(
        TABLE_MI, abs=1e-15)
    capsys.readouterr()


@pytest.mark.parametrize("where", ["flag", "config"])
def test_verify_step_with_spec_is_input_error(tmp_path, capsys, where):
    spec = tmp_path / "user.json"
    spec.write_text(json.dumps({"joint": [[0.4, 0.1], [0.1, 0.4]]}))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("step = 1e-9\n")
    step = ["--step", 1e-9] if where == "flag" else ["--config", cfg]
    out = tmp_path / "ver"
    assert run(["verify", "--spec", spec, *step, "--output-dir", out]) == 2
    err = capsys.readouterr().err
    assert f'the spec {spec} sets its own "step"' in err
    assert not out.exists()


def test_verify_takes_no_seed(tmp_path, capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--seed", 1, "--output-dir", tmp_path / "flag"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not (tmp_path / "flag").exists()
    # nor does the seed variable concern it
    monkeypatch.setenv("ICAGEO_SEED", "abc")
    spec = tmp_path / "user.json"
    spec.write_text(json.dumps({"joint": [[0.4, 0.1], [0.1, 0.4]]}))
    assert run(["verify", "--spec", spec, "--output-dir", tmp_path / "env"]) == 0
    capsys.readouterr()


def test_verify_malformed_spec_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run(["verify", "--spec", bad, "--output-dir", tmp_path]) == 2
    assert "line" in capsys.readouterr().err


GAUSS_EYE = {"form": "gaussian", "cov": [[1, 0], [0, 1]]}


@pytest.mark.parametrize("spec", [
    {"density": GAUSS_EYE, "step": "abc"},
    {"density": GAUSS_EYE, "step": None},
    {"density": GAUSS_EYE, "step": True},  # a bool is an int: step 1
    {"density": {"form": "rotated_product", "sources": ["laplace", "laplace"],
                 "angle_deg": "abc"}},
    {"density": {"form": "gaussian", "cov": [[1, 2], [2, 1]]}},  # not PD
    {"density": {"form": "gaussian_mixture", "weights": [0.5, 0.5],
                 "means": [[1, 0], [-1, 0]],
                 "covs": [[[1, 0], [0, 1]], [[1, 1], [1, 1]]]}},  # singular
    {"density": {"form": "gaussian", "cov": [[1, 0], [0]]}},  # ragged
    {"density": {"form": "gaussian", "cov": np.eye(3).tolist()}},
    {"density": {"form": "product_of_1d", "sources": ["laplace"]}},
    {"density": {"form": "product_of_1d", "sources": "ab"}},
    {"density": GAUSS_EYE, "step": 1e-5},  # too many cells
    {"joint": [[0.4, 0.1], [0.1, 0.4]], "targets": [[1.0]]},
    {"density": {"form": "product_of_1d",
                 "sources": ["generalized-gaussian(inf)", "laplace"]}},
    {"density": GAUSS_EYE, "stpe": 0.5},  # misspelt: would run at 0.01
    {"joint": [[0.4, 0.1], [0.1, 0.4]], "step": 0.5},  # no grid to step
    {"density": {**GAUSS_EYE, "angle_deg": 30}},  # gaussian reads no angle
    {"joint": [[0.4, 0.1], [0.1, 0.4]],
     "targets": [[0.5, 0.5], [0.5, math.nan]]},
], ids=["step-text", "step-null", "step-true", "angle-text", "cov-not-pd",
        "mixture-singular-cov", "cov-ragged", "cov-3x3", "one-source",
        "sources-text", "step-too-fine", "one-target", "infinite-shape",
        "misspelt-step", "step-beside-joint", "unread-density-field",
        "nan-target"])
def test_verify_malformed_density_spec_is_input_error(tmp_path, capsys, spec):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    assert run(["verify", "--spec", bad, "--output-dir", tmp_path / "v"]) == 2
    # one error line, and it names the spec file
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"icageo verify: error: {bad}: ")
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("spec,message", [
    ({"density": {**GAUSS_EYE, "means": [0, 0]}, "stpe": 0.5, "seed": 1},
     "unread field 'seed', 'stpe': a 'joint' spec reads 'joint' and "
     "'targets', a 'density' spec 'density' and 'step'"),
    ({"density": {**GAUSS_EYE, "means": [0, 0], "angle_deg": 30}},
     "unread field 'angle_deg', 'means': density form 'gaussian' reads "
     "'form', 'cov'"),
], ids=["spec", "density"])
def test_verify_spec_field_no_check_reads_is_named(tmp_path, capsys, spec,
                                                   message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    assert run(["verify", "--spec", bad, "--output-dir", tmp_path / "v"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"icageo verify: error: {bad}: {message}"]


@pytest.mark.parametrize("density,number", [
    ({"form": "product_of_1d", "sources": [1, "laplace"]}, 1),
    ({"form": "rotated_product", "sources": ["laplace", 2.5],
      "angle_deg": 30}, 2.5),
], ids=["product", "rotated"])
def test_verify_spec_source_that_is_not_a_name_is_input_error(tmp_path, capsys,
                                                              density, number):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"density": density}))
    assert run(["verify", "--spec", bad, "--output-dir", tmp_path / "v"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"icageo verify: error: {bad}: source spec must be a name, got {number}"]
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("args", [
    ["--spec", {"density": GAUSS_EYE, "step": 1e-5}],
    ["--spec", {"density": GAUSS_EYE, "step": math.inf}],
    ["--step", "inf"],
], ids=["spec-step-too-fine", "spec-step-infinite", "flag-step-infinite"])
def test_verify_unusable_grid_step_is_input_error(tmp_path, capsys, args):
    if args[0] == "--spec":
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(args[1]))  # math.inf as JSON Infinity
        args = ["--spec", spec]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning either
        assert run(["verify", *args, "--output-dir", tmp_path / "v"]) == 2
    err = capsys.readouterr().err
    assert "step" in err and "Traceback" not in err


def test_verify_coverage_error_names_the_step(tmp_path, capsys):
    # at a coarse step the midpoint rule misses mass at the cusps of the
    # rotated Laplace pair, which cut the cells obliquely
    assert run(["verify", "--step", 0.2, "--output-dir", tmp_path]) == 1
    assert ("at step 0.2: the step is too coarse for the density, or the "
            "density reaches beyond the grid's +-15.3"
            in capsys.readouterr().err)


def test_verify_reruns_are_byte_identical(tmp_path, capsys):
    # the README's spec example, and a built-in suite coarse enough to be
    # quick
    spec = tmp_path / "rotated.json"
    spec.write_text(json.dumps({
        "density": {"form": "rotated_product",
                    "sources": ["laplace", "laplace"], "angle_deg": 30},
        "step": 0.01}))
    for args in (["--step", 0.03], ["--spec", spec]):
        docs = []
        for k in range(2):
            out = tmp_path / f"ver{k}"
            assert run(["verify", *args, "--output-dir", out]) == 0
            docs.append((out / "identities.json").read_bytes())
        assert docs[0] == docs[1]
    capsys.readouterr()


def test_verify_failing_check_exits_one(tmp_path, capsys, monkeypatch):
    import icageo.cli as cli_mod
    fake = [{"name": "synthetic", "lhs": 1.0, "rhs": 0.0, "residual": 1.0,
             "threshold": 1e-3, "passed": False, "terms": {}}]
    monkeypatch.setattr(cli_mod, "builtin_suite", lambda step: fake)
    assert run(["verify", "--output-dir", tmp_path]) == 1
    assert "FAIL synthetic" in capsys.readouterr().out


# -- the whole chain -------------------------------------------------------------

# every solver `separate` has: the relative gradient under each score, and
# the orthogonal rotation search
CHAIN_SOLVERS = {"adaptive": ["--score", "adaptive"], "tanh": ["--score", "tanh"],
                 "cube": ["--score", "cube"],
                 "orthogonal": ["--algorithm", "orthogonal"]}


def chain_files(root, sources, samples, seed):
    """{path under root: bytes} of every file that simulate, then separate
    with each solver, then diagnose of each separated output write."""
    assert run(["simulate", "--sources", ",".join(sources), "--samples", samples,
                "--seed", seed, "--output-dir", root / "sim"]) == 0
    for name, flags in CHAIN_SOLVERS.items():
        assert run(["separate", root / "sim" / "X.csv", *flags,
                    "--model", root / "sim" / "model.json",
                    "--output-dir", root / name]) == 0
        assert run(["diagnose", root / name / "Y.csv", "--seed", seed,
                    "--output-dir", root / name / "diagnose"]) == 0
    return {str(f.relative_to(root)): f.read_bytes()
            for f in sorted(root.rglob("*")) if f.is_file()}


@settings(max_examples=5,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sources=st.lists(st.sampled_from(["laplace", "uniform",
                                         "generalized-gaussian(4)",
                                         "cosh-reciprocal"]),
                        min_size=2, max_size=3),
       samples=st.integers(2000, 5000), seed=st.integers(0, 2 ** 32))
def test_chain_reruns_in_one_process_are_byte_identical(tmp_path, capsys,
                                                        sources, samples,
                                                        seed):
    base = tmp_path / f"{'-'.join(sources)}-{samples}-{seed}"
    first = chain_files(base / "r1", sources, samples, seed)
    assert len(first) == 5 + 7 * len(CHAIN_SOLVERS)
    assert chain_files(base / "r2", sources, samples, seed) == first
    capsys.readouterr()


# -- input files and options -------------------------------------------------------

SIMULATE = ["simulate", "--sources", "laplace,uniform", "--samples", 2000]
MODEL = {"mixing": [[1.0, 0.0], [0.0, 1.0]], "sources": ["laplace", "uniform"]}


def as_json(obj) -> bytes:
    return json.dumps(obj).encode()


@pytest.mark.parametrize("command,key,value", [
    (SIMULATE[:3], "samples", "many"),
    (["separate", "{csv}"], "score", "sigmoid"),
    (["separate", "{csv}"], "algorithm", "pca"),
], ids=["samples", "score", "algorithm"])
def test_bad_config_value_fails_like_the_bad_flag(tmp_path, capsys, command,
                                                  key, value):
    csv = tmp_path / "x.csv"
    write_csv(csv, Dataset(np.random.default_rng(3).laplace(size=(2000, 2))))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    out = tmp_path / "out"
    args = [csv if a == "{csv}" else a for a in command]
    errors = []
    for option in ([f"--{key}", value], ["--config", cfg]):
        with pytest.raises(SystemExit) as exc:
            run([*args, *option, "--output-dir", out])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err.splitlines()[-1])
    assert errors[0] == errors[1]
    assert f"argument --{key}: invalid" in errors[0]
    assert not out.exists()


def test_bad_config_value_is_an_error_under_an_overriding_flag(tmp_path,
                                                               capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = many\n")
    with pytest.raises(SystemExit) as exc:  # SIMULATE sets --samples 2000
        run([*SIMULATE, "--config", cfg, "--output-dir", tmp_path / "out"])
    assert exc.value.code == 2
    assert "argument --samples: invalid int value: 'many'" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_non_integer_seed_env_var_is_input_error(tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.setenv("ICAGEO_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        run([*SIMULATE, "--output-dir", tmp_path / "out"])
    assert exc.value.code == 2
    assert "argument --seed: invalid int value: 'abc'" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_config_max_iter_caps_the_solver(tmp_path, capsys):
    csv = tmp_path / "x.csv"
    write_csv(csv, Dataset(np.random.default_rng(3).laplace(size=(2000, 2))))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max-iter = 1\n")
    out = tmp_path / "out"
    assert run(["separate", csv, "--score", "tanh", "--config", cfg,
                "--output-dir", out]) == 0
    assert json.loads((out / "report.json").read_text())["iterations"] == 1
    capsys.readouterr()


@pytest.mark.parametrize("command,lines,message", [
    (SIMULATE, "seed = 1\n# again\nseed = 2\n", "lines 1 and 3 both set seed"),
    (["separate", "{csv}"], "max-iter = 5\nmax_iter = 6\n",
     "lines 1 and 2 both set max-iter"),
], ids=["seed", "max-iter-spellings"])
def test_config_key_given_twice_is_input_error(tmp_path, capsys, command,
                                               lines, message):
    csv = tmp_path / "x.csv"
    write_csv(csv, Dataset(np.random.default_rng(3).laplace(size=(2000, 2))))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines)
    out = tmp_path / "out"
    args = [csv if a == "{csv}" else a for a in command]
    assert run([*args, "--config", cfg, "--output-dir", out]) == 2
    assert f"error: {cfg}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,content,message", [
    (["verify", "--spec"], b'{"joint": "\xff"}', "not a UTF-8 text file"),
    (["verify", "--spec"], as_json({"joint": "abc"}), "'joint'"),
    (["verify", "--spec"], as_json({"joint": [[0.4, 0.1], [0.1, 0.4]],
                                    "targets": [[0.5, 0.5], "ab"]}), "'targets'"),
    ([*SIMULATE, "--mixing"], b'{"mixing": "\xff"}', "not a UTF-8 text file"),
    (["separate", "{csv}", "--model"], b'{"mixing": "\xff"}',
     "not a UTF-8 text file"),
    ([*SIMULATE, "--config"], b"seed = \xff\n", "not a UTF-8 text file"),
    ([*SIMULATE, "--mixing"], as_json(MODEL["mixing"]),
     "top level must be an object"),
    ([*SIMULATE, "--mixing"], as_json({"mixing": "abc"}), "'mixing'"),
    ([*SIMULATE, "--mixing"], as_json({"mixing": [[1.0, 0.0], [0.0]]}),
     "'mixing'"),
    (["separate", "{csv}", "--model"], as_json({**MODEL, "mixing": "abc"}),
     "'mixing'"),
    (["separate", "{csv}", "--model"], as_json({**MODEL, "sources": "laplace"}),
     "'sources'"),
    (["separate", "{csv}", "--model"], as_json(MODEL),
     "has 2 sources but the input has 3 channels"),
], ids=["spec-not-utf8", "spec-joint-text", "spec-targets-text",
        "mixing-not-utf8", "model-not-utf8", "config-not-utf8",
        "mixing-top-level-list", "mixing-text", "mixing-ragged",
        "model-mixing-text", "model-sources-text", "model-channel-count"])
def test_bad_input_file_is_input_error_naming_it(tmp_path, capsys, command,
                                                 content, message):
    csv = tmp_path / "x.csv"  # three channels
    write_csv(csv, Dataset(np.random.default_rng(3).laplace(size=(2000, 3))))
    bad = tmp_path / "input.bad"
    bad.write_bytes(content)
    out = tmp_path / "out"
    args = [csv if a == "{csv}" else a for a in command]
    assert run([*args, bad, "--output-dir", out]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and message in err and "Traceback" not in err
    assert not out.exists()  # rejected before any output is written


@pytest.mark.parametrize("command", [
    [*SIMULATE, "--mixing"], ["separate", "{csv}", "--model"]],
    ids=["simulate-mixing", "separate-model"])
@pytest.mark.parametrize("content,message", [
    ({**MODEL, "mixing": [[1.0, 2.0], [0.5, 1.0]]}, "singular"),
    ({**MODEL, "mixing": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}, "square"),
    ({**MODEL, "sources": ["laplace", "cauchy"]},
     "unknown source family 'cauchy'"),
    ({**MODEL, "sources": [1, "uniform"]}, "source spec must be a name"),
    ({**MODEL, "sources": ["generalized-gaussian(inf)", "uniform"]},
     "finite shape beta > 0.25"),
], ids=["singular", "non-square", "unknown-family", "number-as-source",
        "infinite-shape"])
def test_model_file_semantic_error_is_input_error_naming_it(
        tmp_path, capsys, command, content, message):
    csv = tmp_path / "x.csv"  # two channels, as many as the file's sources
    write_csv(csv, Dataset(np.random.default_rng(3).laplace(size=(2000, 2))))
    bad = tmp_path / "model.json"
    bad.write_bytes(as_json(content))
    out = tmp_path / "out"
    args = [csv if a == "{csv}" else a for a in command]
    assert run([*args, bad, "--output-dir", out]) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: " in err and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command,name", [
    (["separate", "{csv}", "--max-iter", 5], "trace.csv"),
    (["diagnose", "{csv}"], "plotdata.csv"),
    (["simulate", "--sources", "laplace,uniform", "--samples", 500],
     "X.csv.bin"),
    (["separate", "{csv}", "--max-iter", 5], "Y.csv.bin")],
    ids=["separate-trace", "diagnose-plotdata", "simulate-sidecar",
         "separate-sidecar"])
def test_unwritable_output_is_io_error_naming_its_path(tmp_path, capsys,
                                                       command, name):
    csv = tmp_path / "x.csv"
    write_csv(csv, Dataset(np.random.default_rng(3).laplace(size=(2000, 2))))
    blocked = tmp_path / "out" / name
    blocked.mkdir(parents=True)  # a directory where the file should go
    args = [csv if a == "{csv}" else a for a in command]
    assert run([*args, "--output-dir", tmp_path / "out"]) == 2
    assert f"cannot write {blocked}" in capsys.readouterr().err


def test_output_dir_naming_a_file_is_io_error(tmp_path, capsys):
    csv = tmp_path / "x.csv"
    write_csv(csv, Dataset(np.random.default_rng(3).laplace(size=(2000, 2))))
    taken = tmp_path / "out"
    taken.write_text("not a directory\n")
    assert run(["separate", csv, "--max-iter", 5, "--output-dir", taken]) == 2
    assert (f"cannot create output directory {taken}"
            in capsys.readouterr().err)
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", [
    ["separate"], ["separate", "--algorithm", "orthogonal"], ["diagnose"]],
    ids=["relative-gradient", "orthogonal", "diagnose"])
def test_config_center_equals_the_flag(tmp_path, capsys, command):
    sim = simulate_into(tmp_path / "sim", samples=5000)
    shifted = tmp_path / "shifted.csv"
    write_csv(shifted, Dataset(read_csv(sim / "X.csv").samples + 5.0))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("center = true\n")
    assert run([*command, shifted, "--center",
                "--output-dir", tmp_path / "flag"]) == 0
    assert run([*command, shifted, "--config", cfg,
                "--output-dir", tmp_path / "cfg"]) == 0
    names = sorted(p.name for p in (tmp_path / "flag").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "cfg").iterdir())
    for name in names:
        assert ((tmp_path / "flag" / name).read_bytes()
                == (tmp_path / "cfg" / name).read_bytes())
    cfg.write_text("center = maybe\n")
    assert run([*command, shifted, "--config", cfg,
                "--output-dir", tmp_path / "bad"]) == 2
    assert "center must be true or false" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [0, 2**64 - 1], ids=["zero", "max"])
def test_simulate_seed_extremes_rerun_byte_identically(tmp_path, seed):
    a = simulate_into(tmp_path / "a", samples=2000, seed=seed)
    b = simulate_into(tmp_path / "b", samples=2000, seed=seed)
    for name in ("X.csv", "S.csv", "model.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert json.loads((a / "model.json").read_text())["seed"] == seed


@pytest.mark.parametrize("seed", [2**64, -1], ids=["max-plus-one", "negative"])
def test_simulate_seed_out_of_range_is_input_error(tmp_path, capsys, seed):
    assert run([*SIMULATE, "--seed", seed, "--output-dir", tmp_path / "o"]) == 2
    assert "unsigned 64-bit" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("where", ["flag", "env"])
@pytest.mark.parametrize("seed", [2**64, -1], ids=["max-plus-one", "negative"])
def test_diagnose_seed_out_of_range_is_input_error(tmp_path, capsys,
                                                   monkeypatch, seed, where):
    # repeated values make the kNN mutual information draw its jitter
    csv = tmp_path / "x.csv"
    X = np.round(np.random.default_rng(1).laplace(size=(2000, 2)), 2)
    write_csv(csv, Dataset(X))
    option = ["--seed", seed]
    if where == "env":
        monkeypatch.setenv("ICAGEO_SEED", str(seed))
        option = []
    out = tmp_path / "o"
    assert run(["diagnose", csv, *option, "--output-dir", out]) == 2
    assert "unsigned 64-bit" in capsys.readouterr().err
    assert not out.exists()


# -- the input contract over drawn config and spec files ------------------------

@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    """A two-channel input, a model and a joint-table spec for the drawn
    config files to name, and a directory for everything the runs write."""
    root = tmp_path_factory.mktemp("contract")
    files = {"csv": root / "x.csv", "model": root / "model.json",
             "joint": root / "joint.json", "missing": root / "missing.json",
             "out": root / "out", "root": root}
    write_csv(files["csv"],
              Dataset(np.random.default_rng(3).laplace(size=(2000, 2))))
    files["model"].write_bytes(as_json(MODEL))
    files["joint"].write_bytes(as_json({"joint": [[0.4, 0.1], [0.1, 0.4]]}))
    return files


def run_captured(argv):
    """(exit code, stdout, stderr) of main; argparse's SystemExit(2)
    counts as exit code 2, and any other exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            assert exc.code == 2
            code = 2
    return code, out.getvalue(), err.getvalue()


def assert_input_contract(command, code, out, err):
    """Exit 0, 1 or 2; a non-zero exit ends stderr with one error line of
    the command, except a verify whose checks ran and failed, which says so
    on stdout."""
    assert code in (0, 1, 2)
    if code == 0:
        return
    lines = err.splitlines()
    if command == "verify" and code == 1 and not lines:
        assert "FAIL " in out
        return
    assert lines and lines[-1].startswith(f"icageo {command}: error:"), err


SEEDS = ["0", "7", "-1", "18446744073709551616", "abc"]
JUNK = ["", "abc", "nan", "1e999", "true", "-1", "1,2", "{missing}"]
# the options of each command a config line may name, with valid values and
# values of the wrong kind or out of range; "{name}" is a contract file
CONFIG_VALUES = {
    "simulate": {
        "sources": ["laplace,uniform", "laplace", "gaussian,gaussian",
                    "cauchy", ",,", "generalized-gaussian(abc),uniform"],
        "samples": ["2000", "1000", "1", "0", "-5", "1e3"],
        "cond": ["2", "5", "1", "0.5", "0", "-1", "inf"],
        "mixing": ["{model}", "{joint}"],
        "seed": SEEDS, "output-dir": ["{out}"],
    },
    "separate": {
        "algorithm": ["relative_gradient", "orthogonal", "pca"],
        "score": ["tanh", "cube", "adaptive", "identity", "sigmoid"],
        "step": ["1", "0.5", "0", "2", "inf"],
        "tol": ["1e-4", "1e-3", "0", "inf"],
        "max-iter": ["1", "5", "0", "2.5"],
        "center": ["true", "false", "yes"],
        "model": ["{model}", "{joint}"],
        "seed": SEEDS, "output-dir": ["{out}"],
    },
    "diagnose": {"center": ["true", "false", "1"], "seed": SEEDS,
                 "output-dir": ["{out}"]},
    "verify": {"spec": ["{joint}"], "step": ["0.2", "0.1", "0", "inf"],
               "output-dir": ["{out}"]},
}
# keys no command has, or that name a command's positional or --config
UNKNOWN_KEYS = ["foo", "max", "max_iters", "command", "input", "config",
                "seeds", ""]
# the command line around the config: every command line option is valid
CONTRACT_ARGV = {"simulate": [[]], "separate": [["{csv}"]],
                 "diagnose": [["{csv}"]],
                 "verify": [["--step", "0.2"], ["--spec", "{joint}"]]}


@st.composite
def config_lines(draw, values):
    """One line of a config file: mostly an option of the command with a
    valid value, so that runs get past the file; else an unknown key, a
    junk value, or a line without '='."""
    kind = draw(st.sampled_from(["valid"] * 4 + ["unknown", "junk", "bare"]))
    if kind == "bare":
        return draw(st.sampled_from(["seed 7", "junk", "# a comment", ""]))
    if kind == "unknown":
        key = draw(st.sampled_from(UNKNOWN_KEYS))
    else:
        key = draw(st.sampled_from(sorted(values)))
    value = draw(st.sampled_from(values[key] if kind == "valid" else JUNK))
    return draw(st.sampled_from([f"{key} = {value}", f"{key}={value}"]))


@st.composite
def config_runs(draw):
    """(command, its command line, the lines of a --config file)."""
    command = draw(st.sampled_from(sorted(CONFIG_VALUES)))
    # a key repeats only where drawn so: hypothesis favours repeats
    lines = draw(st.lists(config_lines(CONFIG_VALUES[command]), max_size=3,
                          unique_by=lambda line: line.partition("=")[0].strip()))
    if lines and draw(st.sampled_from([False] * 4 + [True])):
        lines.append(lines[0])
    argv = draw(st.sampled_from(CONTRACT_ARGV[command]))
    return command, argv, lines


@settings(max_examples=60)
@given(case=config_runs())
def test_drawn_config_files_keep_the_input_contract(contract_files, case):
    command, argv, lines = case
    files = {k: str(v) for k, v in contract_files.items()}
    cfg = contract_files["root"] / "run.cfg"
    cfg.write_text("".join(line.format(**files) + "\n" for line in lines))
    code, out, err = run_captured(
        [command, *(a.format(**files) for a in argv), "--config", cfg,
         "--output-dir", contract_files["out"]])
    assert_input_contract(command, code, out, err)


GOOD_COVS = [[[1, 0.3], [0.3, 1]], [[2, 0], [0, 0.5]]]
BAD_COVS = [[[1, 2], [2, 1]], [[1, 0], [0, 0]], [[1, 0], [0]],
            [[1, 0], [0, 1], [0, 0]], [[1, 0], [0, math.inf]],
            [["a", 0], [0, 1]], [], "abc", 1, None]
# each field of each density form: (valid values, invalid values), where
# an invalid value is of the wrong type, shape or range
DENSITY_FIELDS = {
    "gaussian": {"cov": (GOOD_COVS, BAD_COVS)},
    "gaussian_mixture": {
        "weights": ([[0.5, 0.5]],  # any other weights move the mean off 0
                    [[0.2, 0.8], [1.0], [-1.0, 2.0], [0, 0], "abc",
                     [0.5, None]]),
        "means": ([[[1, 0], [-1, 0]]], [[[0, 0]], [[1], [0]], "abc"]),
        "covs": ([GOOD_COVS], [[GOOD_COVS[0], BAD_COVS[0]], GOOD_COVS[:1],
                               "abc", None])},
    "product_of_1d": {"sources": (
        [["laplace", "uniform"], ["generalized-gaussian(4)", "laplace"]],
        [[1, 2], ["laplace", 2.5], [None, "uniform"], [True, "laplace"],
         [["laplace"], {}], ["cauchy", "laplace"],
         ["generalized-gaussian(abc)", "uniform"],
         ["generalized-gaussian(inf)", "uniform"], ["laplace"],
         ["laplace", "uniform", "laplace"], "ab", 3, None])},
}
DENSITY_FIELDS["rotated_product"] = {
    **DENSITY_FIELDS["product_of_1d"],
    "angle_deg": ([30, 0, -45.5], [1e308, "abc", None, True])}


@st.composite
def verify_specs(draw):
    """A --spec object: mostly a density form whose fields are each present
    in seven draws of eight and valid in three of four, else an unknown
    form, no form, or a density that is not an object."""
    form = draw(st.sampled_from(sorted(DENSITY_FIELDS) * 2 + ["cauchy", None]))
    density = {} if form is None else {"form": form}
    for key, (valid, invalid) in DENSITY_FIELDS.get(form, {}).items():
        if draw(st.sampled_from([True] * 7 + [False])):
            density[key] = draw(st.sampled_from(
                valid if draw(st.sampled_from([True, True, True, False]))
                else invalid))
    if draw(st.sampled_from([False] * 5 + [True])):
        density = draw(st.sampled_from(["gaussian", 1, []]))
    spec = {"density": density}
    # an absent step is the default fine grid, the slowest run
    step = draw(st.sampled_from([0.05, 0.1, 0.2] * 2 + [
        "absent", None, -1, 0, math.inf, "abc", True]))
    if step != "absent":
        spec["step"] = step
    return spec


@settings(max_examples=60)
@given(spec=verify_specs())
def test_drawn_verify_specs_keep_the_input_contract(contract_files, spec):
    path = contract_files["root"] / "spec.json"
    path.write_bytes(as_json(spec))  # math.inf as JSON Infinity
    code, out, err = run_captured(["verify", "--spec", path,
                                   "--output-dir", contract_files["out"]])
    assert_input_contract("verify", code, out, err)
    if code == 2:  # the file parsed as JSON, so its errors name it
        assert str(path) in err.splitlines()[-1], err


# -- process-level sanity --------------------------------------------------------------

def test_console_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "icageo", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "icageo" in proc.stdout


def after_cli_import(expression):
    """The printed value of `expression` in a fresh interpreter that has
    imported icageo.cli and sys."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import icageo.cli, sys; print({expression})"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def loaded_by_cli_import(module):
    return after_cli_import(f"{module!r} in sys.modules") == "True"


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal roughly doubles the start-up import time of the CLI
    assert not loaded_by_cli_import("scipy.signal")


def test_cli_import_leaves_scipy_spatial_unloaded():
    # only the kNN mutual information needs scipy.spatial, which loads
    # scipy's base with it (numpy.f2py, numpy.testing, scipy.sparse,
    # .linalg, .special): more import time than the whole CLI start-up,
    # and about twice the process's resident memory
    assert not loaded_by_cli_import("scipy.spatial")


def scipy_loaded_after(*argvs):
    """The scipy modules loaded in a fresh interpreter once icageo.cli.main
    has run each argument list in turn, each exiting 0."""
    script = ("import sys, icageo.cli\n"
              f"for argv in {[list(map(str, a)) for a in argvs]!r}:\n"
              "    assert icageo.cli.main(argv) == 0, argv\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == "
              "'scipy'))")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_only_the_mutual_information_loads_scipy(tmp_path):
    sim, sep = tmp_path / "sim", tmp_path / "sep"
    assert scipy_loaded_after(
        ["verify", "--output-dir", tmp_path / "verify"],
        ["simulate", "--sources", "laplace,uniform,laplace,uniform",
         "--samples", 5000, "--output-dir", sim],
        ["separate", sim / "X.csv", "--score", "adaptive", "--output-dir",
         sep],
        ["separate", sim / "X.csv", "--algorithm", "orthogonal",
         "--output-dir", tmp_path / "orth"],
        # four channels: the report has no mutual information
        ["diagnose", sep / "Y.csv", "--output-dir", tmp_path / "diag4"],
    ) == []
    three = tmp_path / "three"
    assert "scipy.spatial" in scipy_loaded_after(
        ["simulate", "--sources", "laplace,uniform,laplace", "--samples",
         2000, "--output-dir", three],
        ["diagnose", three / "X.csv", "--output-dir", tmp_path / "diag3"])


def test_cli_import_leaves_scipy_special_unloaded():
    # scipy.special took about half of the start-up import time of the
    # CLI; the estimators and sources evaluate digamma and lgamma at
    # integers and scalars without it
    assert not loaded_by_cli_import("scipy.special")


def test_cli_import_leaves_numpy_random_unloaded():
    # only the commands that draw (simulate, and diagnose to break ties)
    # need numpy.random; no annotation evaluated at import loads it
    assert not loaded_by_cli_import("numpy.random")


def test_cli_import_leaves_hashlib_unloaded():
    # only writing a CSV and checking a sidecar take a digest
    assert not loaded_by_cli_import("hashlib")


def test_cli_import_builds_no_csv_formatting_tables():
    assert after_cli_import(
        "icageo.data._csv_tables.cache_info().currsize") == "0"
