"""Self-test of the benchmark at a tiny input size.

    python3 -m pytest bench/test_selftest.py -q

Runs each workload with `workloads.TINY` sizes, traced and untraced, and
checks the benchmark itself rather than icageo: metric names, span
invariants, repeatable counts, and that tracing leaves no wrapper behind.
"""
import json
import re
import sys

import numpy as np
import pytest

import run
import tracing
import workloads as wl

sys.path.insert(0, str(run.SRC))

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("estimators.score_table.calls", "estimators.negentropy_raw.calls",
                "algorithms.relative_gradient_ica.iterations",
                "algorithms.orthogonal_ica.sweeps")


def traced(workload, tmp_path, name):
    return run.measure(workload, 3, 0, True, tmp_path / name, wl.TINY)


def wrapped_targets():
    """Every (owner, attribute, original) the tracer replaces."""
    tracer = tracing.Tracer()
    with tracer.installed():
        return list(tracer.patches)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_run(workload, tmp_path):
    first = traced(workload, tmp_path, "a")
    assert first["result"]["correct"], first["failures"]
    metrics = first["result"]["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert all(NAME.fullmatch(name) for name in metrics)
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]

    spans = [tracing.Span(name, start, end, parent, work)
             for name, start, end, parent, work in first["spans"]]
    assert spans, "the traced pass recorded no spans"
    for span, own in zip(spans, tracing.self_times(spans)):
        assert 0.0 <= own <= span.seconds
    assert {s.name for s in spans if s.parent < 0} <= {
        f"cli.{c}" for c in run.COMMANDS}

    second = traced(workload, tmp_path, "b")["result"]["metrics"]
    for name in EXACT_COUNTS:
        assert metrics[name]["value"] == second[name]["value"], name


def test_untraced_run_reports_end_to_end_metrics(tmp_path):
    record = run.measure("orthogonal-4x50k", 3, 0, False, tmp_path, wl.TINY)
    result = record["result"]
    assert result["correct"], record["failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert sorted(result["metrics"]) == sorted(
        m["name"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and value["value"] > 0
    assert result["attempted"] >= 1
    assert record["environment"]["seed"] == 3


def test_tracing_restores_every_name():
    targets = wrapped_targets()
    assert len(targets) >= len(tracing.TRACED)
    for owner, attr, original in targets:
        assert vars(owner)[attr] is original


def test_tracing_restores_names_when_a_call_raises():
    import icageo.algorithms
    from icageo.errors import TooFewSamples

    original = icageo.algorithms.score_table
    tracer = tracing.Tracer()
    with pytest.raises(TooFewSamples):
        with tracer.installed():
            assert icageo.algorithms.score_table is not original
            icageo.algorithms.score_table(np.arange(5.0))
    assert icageo.algorithms.score_table is original
    assert tracer.spans[-1].name == "estimators.score_table"
    assert tracer.spans[-1].end >= tracer.spans[-1].start
    for owner, attr, value in wrapped_targets():
        assert vars(owner)[attr] is value


def test_command_seeds_follow_the_workload_seed(tmp_path):
    a = wl.build("adaptive-20k", 5, tmp_path / "a")
    b = wl.build("adaptive-20k", 5, tmp_path / "b")
    c = wl.build("adaptive-20k", 6, tmp_path / "c")

    def seeds(script):
        return [cmd.argv[cmd.argv.index("--seed") + 1] for cmd in script.commands]

    assert seeds(a) == seeds(b) != seeds(c)
