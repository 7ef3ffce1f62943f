"""Command-line front end.

Four subcommands: simulate (draw a mixture with ground truth), separate
(run a separation algorithm), diagnose (estimate the decomposition terms),
verify (run the identity suite).  Outputs are CSV for data, each with the
binary sidecar `<csv>.bin` that read_csv takes in place of the text while
the CSV is unchanged, and JSON for reports; every run with a fixed seed
writes byte-identical files.  Exit codes: 0 success, 1 algorithmic
failure, 2 bad input.
"""
import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .algorithms import (SolverConfig, orthogonal_ica, relative_gradient_ica)
from .data import (Dataset, MixingModel, open_text, random_mixing, read_csv,
                   read_json, simulate, write_csv)
from .errors import (DegenerateSample, DimensionMismatch, IcageoError,
                     InvalidConfig, InvalidDistribution, IoError, NonFinite,
                     SingularTransform, exit_code_for)
from .estimators import SCORE_TABLE_MIN_SAMPLES, score_table
from .evaluation import amari_index, diagnose
from .gaussian import correlation_C, sample_covariance
from .oracle import GridSpec, builtin_suite, load_verify_spec
from .rng import Rng
from .sources import parse_source

def _json_dump(path: Path, obj) -> None:
    with open_text(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=np.ndarray.tolist)
        fh.write("\n")


def _load_config_file(path) -> dict:
    """Flat key=value file; '#' starts a comment, blank lines ignored.  A
    key names an option by its long name (max-iter or max_iter); a key set
    on two lines is an error naming both."""
    out, first_line = {}, {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            key, sep, value = text.partition("=")
            key = key.strip().replace("-", "_")
            if not (sep and key):
                raise InvalidConfig(f"{path}: line {lineno}: expected key=value")
            if key in first_line:
                raise InvalidConfig(f"{path}: lines {first_line[key]} and "
                                    f"{lineno} both set "
                                    f"{key.replace('_', '-')}")
            first_line[key] = lineno
            out[key] = value.strip()
    return out


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The lines of the --config file as flags of args.command:
    `--key=value`, or `--center` for `center = true` (`false` adds none).
    Keys are checked against the command's options first, so every flag is
    a full option name and argparse never expands a prefix."""
    entries = _load_config_file(args.config)
    # the command's namespace holds exactly the dests of its options
    options = set(vars(args)) - {"command", "config", "input"}
    unknown = ", ".join(sorted(set(entries) - options)).replace("_", "-")
    if unknown:
        raise InvalidConfig(f"{args.config}: {unknown}: no such option of "
                            f"{args.command}")
    flags = []
    for key, value in entries.items():
        flag = "--" + key.replace("_", "-")
        if key != "center":
            flags.append(f"{flag}={value}")
        elif value == "true":
            flags.append(flag)
        elif value != "false":
            raise InvalidConfig(f"center must be true or false, got {value!r}")
    return flags


def _outdir(args: argparse.Namespace) -> Path:
    out = Path(args.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _read_input(args: argparse.Namespace) -> Dataset:
    """The input CSV, centered under --center.  A constant column carries
    no information about any source, so it is rejected by name."""
    data = read_csv(args.input)
    X = data.samples
    # column by column: an axis-0 min and max over all rows of a few
    # columns took about 7 times as long
    constant = [j for j, col in enumerate(X.T) if col.min() == col.max()]
    if constant:
        names = ", ".join(repr(data.names()[i]) for i in constant)
        raise DegenerateSample(f"constant column {names}: all its values "
                               "are equal")
    if not args.center:
        return data
    centred = X - X.mean(axis=0)
    centred.flags.writeable = False
    return Dataset(centred, data.channel_names)


# -- simulate --------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    if not args.sources:
        raise InvalidConfig(
            "simulate needs --sources, e.g. "
            "`icageo simulate --sources laplace,uniform --samples 20000`")
    specs = [parse_source(tok) for tok in args.sources.split(",") if tok]
    if not specs:
        raise InvalidConfig("--sources lists no source families")
    rng = Rng(args.seed)
    if args.mixing:
        if args.cond is not None:
            raise InvalidConfig("--cond applies to the random mixing matrix "
                                f"only; {args.mixing} gives the matrix")
        model = _load_model(args.mixing, specs)
    else:
        cond = [] if args.cond is None else [args.cond]
        model = MixingModel(random_mixing(len(specs), rng.child(1000), *cond),
                            specs)
    X, S = simulate(model, args.samples, rng)
    if all(s.family == "gaussian" for s in specs):
        print("warning: Gaussian-only mixture is not blindly separable; "
              "second-order statistics fix it only up to rotation",
              file=sys.stderr)
    out = _outdir(args)
    write_csv(out / "X.csv", X)
    write_csv(out / "S.csv", S)
    _json_dump(out / "model.json", {
        "mixing": model.mixing,
        "sources": [s.label() for s in specs],
        "samples": args.samples,
        "seed": args.seed,
        "version": __version__,
    })
    print(f"wrote {out / 'X.csv'}, {out / 'S.csv'}, {out / 'model.json'}")
    return 0


# -- separate ---------------------------------------------------------------

def _load_model(path, specs=None) -> MixingModel:
    """The 'mixing' matrix of a `simulate --mixing` or `separate --model`
    JSON file as a MixingModel of specs, or, when specs is None, of the
    file's 'sources' list, which is otherwise only checked.  Errors name
    the file."""
    obj = read_json(path)
    try:
        A = np.asarray(obj["mixing"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfig(f"{path}: needs a numeric 'mixing' matrix") from exc
    sources = obj.get("sources")
    try:
        if sources is not None or specs is None:
            if not isinstance(sources, list):
                raise InvalidConfig("needs a 'sources' list of names")
            listed = [parse_source(s) for s in sources]
            specs = listed if specs is None else specs
        return MixingModel(A, specs)
    except (InvalidConfig, InvalidDistribution, NonFinite,
            SingularTransform) as exc:
        raise InvalidConfig(f"{path}: {exc}") from exc


def cmd_separate(args: argparse.Namespace) -> int:
    data = _read_input(args)
    # the settings left unset take SolverConfig's defaults
    settings = {key: getattr(args, key) for key in ("score", "step",
                                                    "max_iter", "tol")
                if getattr(args, key) is not None}
    solve = relative_gradient_ica
    if args.algorithm == "orthogonal":
        solve = orthogonal_ica
        for key in ("score", "step"):
            if key in settings:
                raise InvalidConfig(f"--{key}: the orthogonal rotation search "
                                    "uses no score and no step")
    config = SolverConfig(**settings)
    model = _load_model(args.model) if args.model else None
    if model is not None and model.N != data.N:
        raise DimensionMismatch(f"{args.model} has {model.N} sources but the "
                                f"input has {data.N} channels")
    if model is not None and data.N < 2:
        raise InvalidConfig("--model: the Amari index needs at least 2 "
                            "channels; the input has 1")
    result = solve(data, config)
    out = _outdir(args)
    _json_dump(out / "B.json", {"demixing": result.demixing})
    write_csv(out / "Y.csv", result.recovered)
    with open_text(out / "trace.csv", "w") as fh:
        fh.write("iteration,value\n")
        for k, v in enumerate(result.trajectory):
            fh.write(f"{k},{v:.17g}\n")
    final = float(result.trajectory[-1])
    report = {
        "algorithm": args.algorithm,
        "converged": result.converged,
        "iterations": result.iterations,
        result.measure: final,
        "correlation_C": correlation_C(sample_covariance(result.recovered)),
        **result.report,
    }
    if model is not None:
        report["amari_index"] = amari_index(result.demixing @ model.mixing)
    _json_dump(out / "report.json", report)
    print(f"converged={result.converged} "
          + (f"stable={report['stable']} " if "stable" in report else "")
          + f"iterations={result.iterations} {result.measure}={final:.3e}"
          + (f" amari_index={report['amari_index']:.4f}"
             if "amari_index" in report else ""))
    return 0


# -- diagnose ----------------------------------------------------------------

def cmd_diagnose(args: argparse.Namespace) -> int:
    data = _read_input(args)
    report = diagnose(data, seed=args.seed)
    out = _outdir(args)
    _json_dump(out / "report.json", report.to_json())
    with open_text(out / "plotdata.csv", "w") as fh:
        # the csv module quotes a name holding a comma or a quote, but not
        # one holding a bare '\r': that name's rows are quoted whole
        rows = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        rows.writerow(("channel", "position", "density", "score"))
        if data.T >= SCORE_TABLE_MIN_SAMPLES:
            for i, name in enumerate(data.names()):
                table = score_table(data.column(i))
                (quoted if "\r" in name else rows).writerows(
                    (name, f"{g:.17g}", f"{d:.17g}", f"{p:.17g}")
                    for g, d, p in zip(table.grid, table.density, table.psi))
    parts = [f"correlation={report.correlation:.4f}",
             f"sum_negentropy={sum(report.marginal_negentropies):.4f}"]
    if report.mi is not None:
        parts.insert(0, f"mi={report.mi.value:.4f}")
    print(" ".join(parts))
    return 0


# -- verify -------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    if args.spec:
        if args.step is not None:
            raise InvalidConfig("--step applies to the built-in suite only; "
                                f"the spec {args.spec} sets its own \"step\"")
        checks = load_verify_spec(args.spec)
    else:
        checks = builtin_suite(step=GridSpec.step if args.step is None
                               else args.step)
    out = _outdir(args)
    all_passed = all(c["passed"] for c in checks)
    _json_dump(out / "identities.json",
               {"checks": checks, "all_passed": all_passed})
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{status} {c['name']}: residual {c['residual']:.3e} "
              f"(threshold {c['threshold']:.0e})")
    print(f"{sum(c['passed'] for c in checks)}/{len(checks)} identities passed")
    return 0 if all_passed else 1


# -- argument parsing ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icageo",
        description="ICA with an information-geometric audit trail: simulate "
                    "mixtures, separate them, and verify the divergence "
                    "identities that justify the objective.")
    parser.add_argument("--version", action="version",
                        version=f"icageo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", help="flat key=value config file; "
                       "command-line flags override it")
        if seed:
            p.add_argument("--seed", type=int,
                           default=os.environ.get("ICAGEO_SEED", "0"),
                           help="64-bit seed (default: $ICAGEO_SEED or 0)")
        p.add_argument("--output-dir", default=".",
                       help="directory for output files (default: .)")

    p = sub.add_parser("simulate", help="draw a source mixture with ground truth")
    common(p)
    p.add_argument("--sources", help="comma list, e.g. laplace,uniform,"
                                     "generalized-gaussian(4)")
    p.add_argument("--samples", type=int, default=20000,
                   help="observation count (default: 20000)")
    p.add_argument("--cond", type=float,
                   help="condition number of the random mixing matrix")
    p.add_argument("--mixing",
                   help="JSON file with an explicit 'mixing' matrix")

    p = sub.add_parser("separate", help="estimate a demixing matrix")
    common(p)
    p.add_argument("input", help="CSV of observations (header + rows)")
    p.add_argument("--algorithm", choices=("relative_gradient", "orthogonal"),
                   default="relative_gradient")
    p.add_argument("--score", choices=("tanh", "cube", "adaptive"))
    p.add_argument("--step", type=float,
                   help="relative-gradient step in (0, 1], scaling the "
                        "quasi-Newton direction (default: 1, the full "
                        "Newton step)")
    p.add_argument("--tol", type=float,
                   help="stationarity/improvement stopping tolerance")
    p.add_argument("--max-iter", type=int)
    p.add_argument("--center", action="store_true",
                   help="subtract channel means first")
    p.add_argument("--model",
                   help="model.json with ground truth, enables the Amari index")

    p = sub.add_parser("diagnose",
                       help="estimate mutual information, correlation, "
                            "and negentropies")
    common(p)
    p.add_argument("input", help="CSV of observations")
    p.add_argument("--center", action="store_true",
                   help="subtract channel means first")

    # the suite draws from its own fixed seed
    p = sub.add_parser("verify", help="run the divergence-identity suite")
    common(p, seed=False)
    p.add_argument("--spec",
                   help="JSON file with a user 'joint' table or 'density'")
    p.add_argument("--step", type=float,
                   help="quadrature step for the analytic checks: the width "
                        "of each grid's central cells, which widen towards "
                        "unbounded tails (default 0.01)")
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "separate": cmd_separate,
    "diagnose": cmd_diagnose,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the config lines go before the command line's own flags, which
            # therefore win; argparse checks both alike
            args = parser.parse_args([args.command, *_config_flags(args),
                                      *argv[1:]])
        if "seed" in args:
            Rng(args.seed)  # the range check, before any command runs
        return _COMMANDS[args.command](args)
    except IcageoError as err:
        print(f"icageo {args.command}: error: {err}", file=sys.stderr)
        return exit_code_for(err)


def entrypoint() -> None:
    sys.exit(main())
