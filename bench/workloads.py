"""The three benchmark workloads and the checks on every command's output.

A workload is a fixed script of CLI commands, run in order by one process
(a closed loop with one client).  Every `--seed` a command gets is derived
from the workload seed, so the same workload seed gives the same inputs.
NOTES.md says why each workload was chosen and what it stresses.
"""
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Mixing matrix that `icageo simulate --seed 1` draws for four sources
# (condition number 5).  The four-source workloads pass it with --mixing, so
# a workload seed varies the source samples but not the mixing geometry.
# With the mixing drawn per seed, an adaptive solve took 196 to 376
# iterations; with this matrix fixed it took 207 to 225.
MIXING_4 = [
    [1.0991540090327434, -0.3499614256195433, 1.5051000313415315,
     0.32451079023799345],
    [-0.4650817747469242, 0.875117771521695, 0.4069976962521078,
     -0.23081317457406178],
    [-0.17615413091485047, 0.16662492311128052, 1.054811998564043,
     0.46279586975504716],
    [0.5965857859214981, 0.6541650047308593, 0.4744940126452421,
     0.4448438499314925],
]

# separation counts as failed at or above this Amari index
AMARI_LIMIT = 0.05
# the orthogonal solver guarantees output correlation below this
ORTHOGONAL_C_LIMIT = 1e-10
# number of checks in `icageo verify` without --spec
BUILTIN_CHECKS = 16
# rows of plotdata.csv per channel (score_table's default grid)
PLOT_BINS = 256


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is the benchmark, TINY the self-test."""

    T: int
    T_orthogonal: int
    T_mi: int
    verify_step: str | None  # None: the command's default step


FULL = Sizes(T=20_000, T_orthogonal=50_000, T_mi=100_000, verify_step=None)
TINY = Sizes(T=2_000, T_orthogonal=4_000, T_mi=2_000, verify_step="0.03")


@dataclass
class Command:
    """One CLI call: its argv, the directory it writes, and what to check."""

    argv: list[str]
    outdir: Path
    check: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass
class Script:
    commands: list[Command]
    # index of the command rerun with the same seed to check determinism
    rerun: int


def derive_seeds(seed: int, count: int) -> list[int]:
    """`count` command seeds that depend only on the workload seed."""
    state = np.random.SeedSequence(seed).generate_state(count, np.uint32)
    return [int(s) for s in state]


def _simulate(work: Path, tag: str, sources: str, T: int, seed: int,
              mixing: Path | None) -> Command:
    out = work / tag / "sim"
    argv = ["simulate", "--sources", sources, "--samples", str(T),
            "--seed", str(seed), "--output-dir", str(out)]
    if mixing is not None:
        argv += ["--mixing", str(mixing)]
    return Command(argv, out, {"rows": T})


def _separate(work: Path, tag: str, algorithm: str, score: str | None, T: int,
              seed: int) -> Command:
    sim = work / tag / "sim"
    out = work / tag / "sep"
    argv = ["separate", str(sim / "X.csv"), "--algorithm", algorithm,
            "--seed", str(seed), "--model", str(sim / "model.json"),
            "--output-dir", str(out)]
    if score is not None:
        argv += ["--score", score]
    return Command(argv, out, {"rows": T, "orthogonal": algorithm == "orthogonal"})


def _diagnose(work: Path, tag: str, source: str, T: int, N: int,
              seed: int) -> Command:
    out = work / tag / "diag"
    argv = ["diagnose", str(work / tag / source), "--seed", str(seed),
            "--output-dir", str(out)]
    return Command(argv, out, {"rows": T, "channels": N})


def build(workload: str, seed: int, work: Path, sizes: Sizes = FULL) -> Script:
    """The command script of `workload` for workload seed `seed`.

    Writes the fixed mixing matrix into `work`; every output lands below it.
    """
    work.mkdir(parents=True, exist_ok=True)
    mixing = work / "mixing.json"
    mixing.write_text(json.dumps({"mixing": MIXING_4}))
    four = "laplace,laplace,uniform,uniform"
    cmds: list[Command] = []
    if workload == "adaptive-20k":
        for k, s in enumerate(derive_seeds(seed, 3)):
            tag = f"run{k}"
            cmds += [_simulate(work, tag, four, sizes.T, s, mixing),
                     _separate(work, tag, "relative_gradient", "adaptive",
                               sizes.T, s),
                     _diagnose(work, tag, "sep/Y.csv", sizes.T, 4, s)]
        return Script(cmds, rerun=2)
    if workload == "orthogonal-4x50k":
        # Four solves rather than one at 2e5 rows: the number of Jacobi
        # sweeps depends on the sample (3 to 6 at 5e4 rows, 4 or 5 at 2e5),
        # and a sum over four solves varies less than one solve does.
        for k, s in enumerate(derive_seeds(seed, 4)):
            tag = f"run{k}"
            cmds += [_simulate(work, tag, four, sizes.T_orthogonal, s, mixing),
                     _separate(work, tag, "orthogonal", None,
                               sizes.T_orthogonal, s)]
        return Script(cmds, rerun=0)
    if workload == "fixed-score-audit":
        seeds = derive_seeds(seed, 7)
        for k, s in enumerate(seeds[:3]):
            for family, score in (("laplace", "tanh"), ("uniform", "cube")):
                tag = f"{score}{k}"
                cmds += [_simulate(work, tag, ",".join([family] * 4), sizes.T,
                                   s, mixing),
                         _separate(work, tag, "relative_gradient", score,
                                   sizes.T, s)]
        cmds += [_simulate(work, "mi", "laplace,uniform,laplace", sizes.T_mi,
                           seeds[6], None),
                 _diagnose(work, "mi", "sim/X.csv", sizes.T_mi, 3, seeds[6])]
        verify = ["verify", "--output-dir", str(work / "verify")]
        if sizes.verify_step is not None:
            verify += ["--step", sizes.verify_step]
        cmds.append(Command(verify, work / "verify"))
        return Script(cmds, rerun=3)  # separate --score cube on the first seed
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("adaptive-20k", "orthogonal-4x50k", "fixed-score-audit")


def redirected(cmd: Command, outdir: Path) -> Command:
    """The same command writing into `outdir`, for the determinism rerun."""
    argv = list(cmd.argv)
    argv[argv.index("--output-dir") + 1] = str(outdir)
    return Command(argv, outdir, cmd.check)


# -- output checks -----------------------------------------------------------
# Each returns (problems, values): a list of what is wrong (empty when the
# outputs are correct) and the measured quantities the metrics use.
#
# Two known defects of `separate --algorithm orthogonal` are not checked and
# not used: its report.json writes the last sweep gain as
# `stationarity_norm`, and `"score": "adaptive"` although the solver uses no
# score.  See NOTES.md.

def _data_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(
            lambda: fh.read(1 << 20), b""))
    return lines - 1  # header row


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check(cmd: Command, code: int) -> tuple[list[str], dict]:
    if code != 0:
        return [f"exit code {code}"], {}
    try:
        return _CHECKS[cmd.name](cmd)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"], {}


def _check_simulate(cmd: Command):
    problems = [f"{name}: {rows} rows, want {cmd.check['rows']}"
                for name in ("X.csv", "S.csv")
                if (rows := _data_rows(cmd.outdir / name)) != cmd.check["rows"]]
    _load(cmd.outdir / "model.json")
    return problems, {}


def _check_separate(cmd: Command):
    report = _load(cmd.outdir / "report.json")
    problems = []
    if report["converged"] is not True:
        problems.append("converged is not true")
    amari = report["amari_index"]
    if not amari < AMARI_LIMIT:
        problems.append(f"amari_index {amari} >= {AMARI_LIMIT}")
    if cmd.check["orthogonal"] and not report["correlation_C"] < ORTHOGONAL_C_LIMIT:
        problems.append(f"correlation_C {report['correlation_C']} >= "
                        f"{ORTHOGONAL_C_LIMIT}")
    rows = _data_rows(cmd.outdir / "Y.csv")
    if rows != cmd.check["rows"]:
        problems.append(f"Y.csv: {rows} rows, want {cmd.check['rows']}")
    return problems, {"amari_index": amari, "iterations": report["iterations"]}


def _check_diagnose(cmd: Command):
    report = _load(cmd.outdir / "report.json")
    n = cmd.check["channels"]
    problems = []
    if len(report["marginal_negentropies"]) != n:
        problems.append("wrong number of marginal negentropies")
    if not all(np.isfinite([report["correlation"], report["objective_proxy"]])):
        problems.append("non-finite correlation or objective_proxy")
    if (n <= 3) != ("mi" in report):
        problems.append("mutual information present iff N <= 3 violated")
    want = n * PLOT_BINS if cmd.check["rows"] >= 1000 else 0
    rows = _data_rows(cmd.outdir / "plotdata.csv")
    if rows != want:
        problems.append(f"plotdata.csv: {rows} rows, want {want}")
    return problems, {}


def _check_verify(cmd: Command):
    report = _load(cmd.outdir / "identities.json")
    checks = report["checks"]
    problems = []
    if report["all_passed"] is not True:
        problems.append("all_passed is not true")
    if len(checks) != BUILTIN_CHECKS:
        problems.append(f"{len(checks)} checks, want {BUILTIN_CHECKS}")
    worst = max(c["residual"] / c["threshold"] for c in checks)
    return problems, {"worst_ratio": worst}


_CHECKS = {"simulate": _check_simulate, "separate": _check_separate,
           "diagnose": _check_diagnose, "verify": _check_verify}


def file_hashes(outdir: Path) -> dict[str, str]:
    """sha256 of every file directly in `outdir`, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.is_file()}
