"""End-to-end and per-layer benchmark of the icageo CLI.

    python3 bench/run.py --workload adaptive-20k --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (the directory holding `src/` and
`BENCHMARK.json`).  The workload's CLI commands run in this one process
through `icageo.cli.main(argv)`; their outputs land in `.bench_work/` and are
checked.  The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 runs the workload once untraced and once traced and reports the
per-layer metrics from the traced pass's spans (see tracing.py).
"""
import argparse
import os
import sys

# Cap BLAS threads at the CPUs this process may use, before numpy loads.
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, str(NPROC))

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# fresh-interpreter imports timed per run for setup_s
SETUP_IMPORTS = 5
COMMANDS = ("simulate", "separate", "diagnose", "verify")
# the metric lists the result reports, by name and unit
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = ("data", "gaussian", "estimators", "algorithms", "evaluation",
          "oracle", "cli")


# -- running one pass ----------------------------------------------------------

def run_command(cmd: wl.Command, tracer=None) -> tuple[int, float]:
    """Run one CLI command in-process; returns (exit code, seconds)."""
    from icageo.cli import main
    span = (tracer.span(f"cli.{cmd.name}") if tracer is not None
            else contextlib.nullcontext())
    start = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(io.StringIO()):
            code = main(cmd.argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an uncaught error is a failed command, not a crash
        traceback.print_exc()
        code = -1
    return code, time.perf_counter() - start


def run_pass(script: wl.Script, tracer=None, between=None) -> dict:
    """Run every command of the script once, then check the outputs.

    `between(seconds)` is called after each command with its time, outside
    the timed commands.
    """
    times = {name: 0.0 for name in COMMANDS}
    codes = []
    wall = 0.0
    for cmd in script.commands:
        code, seconds = run_command(cmd, tracer)
        codes.append(code)
        times[cmd.name] += seconds
        wall += seconds
        if between is not None:
            between(seconds)
    failures, amari, worst = [], [], []
    iterations = 0
    failed = 0
    for cmd, code in zip(script.commands, codes):
        problems, values = wl.check(cmd, code)
        failed += bool(problems)
        failures += [f"{' '.join(cmd.argv[:2])}: {p}" for p in problems]
        if "amari_index" in values:
            amari.append(values["amari_index"])
        iterations += values.get("iterations", 0)
        if "worst_ratio" in values:
            worst.append(values["worst_ratio"])
    return {"wall_s": wall, "times": times, "failures": failures,
            "attempted": len(script.commands), "failed": failed,
            "iterations": iterations,
            "amari_max": max(amari) if amari else None,
            "verify_worst_ratio": max(worst) if worst else None}


def determinism_check(script: wl.Script, work: Path) -> list[str]:
    """Rerun one command with its seed and compare every output file."""
    first = script.commands[script.rerun]
    again = wl.redirected(first, work / "rerun")
    code, _ = run_command(again)
    if code != 0:
        return [f"rerun of {first.name}: exit code {code}"]
    a, b = wl.file_hashes(first.outdir), wl.file_hashes(again.outdir)
    if a != b:
        differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        return [f"rerun of {first.name}: bytes differ in {', '.join(differ)}"]
    return []


# -- set-up ---------------------------------------------------------------------

def import_seconds() -> float:
    """Wall time from starting a fresh interpreter to `import icageo.cli`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import icageo.cli"], env=env,
                   check=True, cwd=ROOT, timeout=60)
    return time.perf_counter() - start


class SetupProbe:
    """Times SETUP_IMPORTS fresh-interpreter imports, one per call, so that
    the samples spread over the run instead of sharing one slow or fast
    moment of the host."""

    def __init__(self):
        import_seconds()  # fills the bytecode cache; untimed
        self.samples: list[float] = []

    def __call__(self) -> None:
        if len(self.samples) < SETUP_IMPORTS:
            self.samples.append(import_seconds())

    def median(self) -> float:
        while len(self.samples) < SETUP_IMPORTS:
            self()
        return statistics.median(self.samples)


# -- per-layer metrics from spans -------------------------------------------------

def layer_metrics(spans: list[tracing.Span], wall: float,
                  untraced_wall: float) -> dict:
    """The per-layer metrics listed in BENCHMARK.json, from one traced pass."""
    selfs = tracing.self_times(spans)
    calls, busy, own, work = {}, {}, {}, {}
    for s, self_s in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        busy[s.name] = busy.get(s.name, 0.0) + s.seconds
        own[s.name] = own.get(s.name, 0.0) + self_s
        for key, value in s.work.items():
            work[(s.name, key)] = work.get((s.name, key), 0) + value

    def count(name):
        return calls.get(name, 0)

    def seconds(name):
        return busy.get(name, 0.0)

    def total(name, key):
        return work.get((name, key), 0)

    def nested(child, parent):
        return sum(1 for i, s in enumerate(spans)
                   if s.name == child and tracing.has_ancestor(spans, i, parent))

    m = {}
    for name in ("estimators.score_table", "estimators.score_eval",
                 "estimators.negentropy_raw", "estimators.negentropy_scalar",
                 "estimators.mutual_information", "data.write_csv",
                 "data.read_csv", "data.simulate",
                 "algorithms.relative_gradient_ica", "algorithms.orthogonal_ica",
                 "oracle.builtin_suite", "oracle.quad_kld_2d",
                 "oracle.verify_four_point_identity",
                 "oracle.gaussianity_invariance_check",
                 "evaluation.diagnose", "evaluation.amari_index"):
        m[f"{name}.calls"] = (count(name), "count")
        m[f"{name}.s"] = (seconds(name), "s")
    for name in ("algorithms.relative_gradient_ica", "algorithms.orthogonal_ica"):
        m[f"{name}.self_s"] = (own.get(name, 0.0), "s")
    m["estimators.score_table.kernel_evals"] = (
        total("estimators.score_table", "kernel_evals"), "count")
    m["estimators.negentropy_raw.samples_sorted"] = (
        total("estimators.negentropy_raw", "samples_sorted"), "count")
    m["estimators.mutual_information.knn_queries"] = (
        total("estimators.mutual_information", "knn_queries"), "count")
    m["data.write_csv.bytes"] = (total("data.write_csv", "bytes"), "B")
    m["data.read_csv.rows"] = (total("data.read_csv", "rows"), "count")
    m["algorithms.relative_gradient_ica.iterations"] = (
        total("algorithms.relative_gradient_ica", "iterations"), "count")
    m["algorithms.orthogonal_ica.sweeps"] = (
        total("algorithms.orthogonal_ica", "sweeps"), "count")
    solves = count("algorithms.relative_gradient_ica")
    m["algorithms.score_refreshes"] = (
        nested("estimators.score_table", "algorithms.relative_gradient_ica")
        / solves if solves else 0.0, "1")
    pairs = total("algorithms.orthogonal_ica", "pair_searches")
    m["algorithms.orthogonal_ica.negentropy_evals_per_pair"] = (
        nested("estimators.negentropy_raw", "algorithms.orthogonal_ica")
        / pairs if pairs else 0.0, "1")
    gaussian = [s for s in spans if s.layer() == "gaussian"]
    m["gaussian.calls"] = (len(gaussian), "count")
    # busy time of the layer: its outermost spans only
    m["gaussian.s"] = (sum(s.seconds for s in gaussian
                           if s.parent < 0
                           or spans[s.parent].layer() != "gaussian"), "s")
    for command in COMMANDS:
        m[f"cli.{command}.self_s"] = (own.get(f"cli.{command}", 0.0), "s")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s, self_s in zip(spans, selfs):
        layer_self[s.layer()] += self_s
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (layer_self[layer], "s")
        m[f"layer.{layer}.share"] = (layer_self[layer] / wall, "1")
    m["trace.wall_s"] = (wall, "s")
    m["trace.overhead_s"] = (wall - untraced_wall, "s")
    return m


# -- the run ------------------------------------------------------------------------

def environment(workload: str, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "nproc": NPROC,
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS}}


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work: Path, sizes: wl.Sizes = wl.FULL) -> dict:
    """One benchmark run; returns the result record (see main)."""
    record = {"environment": environment(workload, seed)}
    failures = []
    attempted = failed = 0

    def tally(res):
        nonlocal attempted, failed
        attempted += res["attempted"]
        failed += res["failed"]
        failures.extend(res["failures"])

    if not trace:
        probe = SetupProbe()
        ref = reference.Reference(workload)

        def gap(seconds):
            ref.after(seconds)  # before the import, which disturbs the caches
            probe()

        passes = []
        start = time.perf_counter()
        # Repeat the script while one more pass should end by `seconds`
        # plus half a pass; every run makes at least one pass.
        while not passes or (elapsed := time.perf_counter() - start) \
                + 0.5 * elapsed / len(passes) < seconds:
            script = wl.build(workload, seed, fresh(work / "run"), sizes)
            res = run_pass(script, between=gap)
            tally(res)
            passes.append(res)
        problems = determinism_check(script, work / "run")
        attempted += 1
        failed += bool(problems)
        failures += problems

        def med(f):
            return statistics.median(f(p) for p in passes)

        # Imports drift with the host like the commands do (NOTES.md, "Host
        # noise"), so setup_s is the median import time scaled to the host
        # speed at which a reference block takes reference.BLOCK_S.
        measured = {
            "setup_s": (probe.median() * reference.BLOCK_S / ref.mean(), "s"),
            "setup_raw_s": (probe.median(), "s"),
            "wall_s": (med(lambda p: p["wall_s"]), "s"),
            "wall_rel": (med(lambda p: p["wall_s"]) / ref.mean(), "1"),
            "reference_s": (ref.mean(), "s"),
            "reference_blocks": (len(ref.samples), "count"),
            **{f"{c}_s": (med(lambda p, c=c: p["times"][c]), "s")
               for c in COMMANDS},
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            # a pass without any Amari index scores the worst value, 1
            "amari_max": (max(p["amari_max"] or 1.0 for p in passes), "1"),
            "error_rate": (failed / attempted, "1"),
            "passes": (len(passes), "count"),
            # solver iterations per pass (Jacobi sweeps for orthogonal),
            # median over passes: the seed moves the work through this count
            "iterations": (med(lambda p: p["iterations"]), "count"),
        }
        if passes[0]["verify_worst_ratio"] is not None:
            measured["verify_worst_ratio"] = (passes[0]["verify_worst_ratio"],
                                              "1")
        record["timeline"] = ref.timeline
        gated = [m["name"] for m in SPEC["end_to_end"]]
    else:
        untraced = run_pass(wl.build(workload, seed, fresh(work / "run"),
                                     sizes))
        tally(untraced)
        tracer = tracing.Tracer()
        script = wl.build(workload, seed, fresh(work / "run"), sizes)
        with tracer.installed():
            traced = run_pass(script, tracer)
        tally(traced)
        measured = layer_metrics(tracer.spans, traced["wall_s"],
                                 untraced["wall_s"])
        measured["error_rate"] = (failed / attempted, "1")
        record["spans"] = [[s.name, s.start, s.end, s.parent, s.work]
                           for s in tracer.spans]
        gated = [m["name"] for m in SPEC["per_layer"]]
    as_json = {k: {"value": v, "unit": u} for k, (v, u) in measured.items()}
    record.update(
        failures=failures,
        extra={k: v for k, v in as_json.items() if k not in gated},
        result={"correct": failed == 0, "attempted": attempted,
                "failed": failed,
                "metrics": {k: as_json[k] for k in gated}})
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "icageo" / "cli.py").is_file():
        print(f"bench: no icageo sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work"
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     work)
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(work / "run", ignore_errors=True)
    for line in record["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"],
                      "extra": record["extra"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
