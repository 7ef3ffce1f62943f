"""Spans around the calls into each icageo layer, recorded from outside.

`Tracer.installed()` replaces every module-level reference to a traced
function in the loaded icageo modules, i.e. the names callers look up
(`icageo.cli.read_csv`, `icageo.algorithms.score_table`,
`icageo.algorithms._negentropy_raw`, ...), with a wrapper that records a
span.  `ScoreTable.__call__` is wrapped on the class.  Leaving the block
puts every original object back, also when a traced call raised.

A span holds its name, start, end, the index of the enclosing span and the
work counts computed from the call's arguments and result.  Spans stay in
memory; the caller writes them out once, when the run ends.  Nothing under
src/ is changed.
"""
import contextlib
import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span; -1 at top level
    work: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _n_samples(x) -> int:
    return int(getattr(x, "size", None) or len(x))


def _score_table_work(out, args, kwargs):
    bins = kwargs.get("bins", args[1] if len(args) > 1 else 256)
    return {"kernel_evals": _n_samples(args[0]) * int(bins)}


def _orthogonal_work(out, args, kwargs):
    n = args[0].N
    return {"sweeps": out.iterations,
            "pair_searches": out.iterations * n * (n - 1) // 2}


# (span name, module, attribute path, work counter).  Span names are
# "<layer>.<function>", the layer being the icageo module the function
# lives in.  A counter maps (result, args, kwargs) to counts derived from
# input and output sizes; it runs after the span has closed.
TRACED = (
    ("data.simulate", "icageo.data", "simulate", None),
    ("data.random_mixing", "icageo.data", "random_mixing", None),
    ("data.read_csv", "icageo.data", "read_csv",
     lambda out, a, k: {"rows": out.T}),
    ("data.write_csv", "icageo.data", "write_csv",
     lambda out, a, k: {"bytes": os.path.getsize(a[0])}),
    ("gaussian.sample_covariance", "icageo.gaussian", "sample_covariance", None),
    ("gaussian.whitener", "icageo.gaussian", "whitener", None),
    ("gaussian.correlation_C", "icageo.gaussian", "correlation_C", None),
    ("gaussian.gaussian_kld", "icageo.gaussian", "gaussian_kld", None),
    ("estimators.score_table", "icageo.estimators", "score_table",
     _score_table_work),
    ("estimators.score_eval", "icageo.estimators", "ScoreTable.__call__", None),
    ("estimators.negentropy_raw", "icageo.estimators", "_negentropy_raw",
     lambda out, a, k: {"samples_sorted": _n_samples(a[0])}),
    ("estimators.negentropy_scalar", "icageo.estimators", "negentropy_scalar",
     None),
    ("estimators.entropy_scalar", "icageo.estimators", "entropy_scalar", None),
    ("estimators.mutual_information", "icageo.estimators",
     "mutual_information",
     lambda out, a, k: {"knn_queries": out.n if out.method == "knn_kl" else 0}),
    ("algorithms.relative_gradient_ica", "icageo.algorithms",
     "relative_gradient_ica", lambda out, a, k: {"iterations": out.iterations}),
    ("algorithms.orthogonal_ica", "icageo.algorithms", "orthogonal_ica",
     _orthogonal_work),
    ("evaluation.amari_index", "icageo.evaluation", "amari_index", None),
    ("evaluation.diagnose", "icageo.evaluation", "diagnose", None),
    ("oracle.builtin_suite", "icageo.oracle", "builtin_suite", None),
    ("oracle.load_verify_spec", "icageo.oracle", "load_verify_spec", None),
    ("oracle.quad_kld_2d", "icageo.oracle", "quad_kld_2d", None),
    ("oracle.verify_four_point_identity", "icageo.oracle",
     "verify_four_point_identity", None),
    ("oracle.gaussianity_invariance_check", "icageo.oracle",
     "gaussianity_invariance_check", None),
    ("oracle.verify_product_pythagoras", "icageo.oracle",
     "verify_product_pythagoras", None),
    ("oracle.discrete_mi", "icageo.oracle", "discrete_mi", None),
)


class Tracer:
    """In-memory span recorder; `span()` also serves the benchmark's own
    spans around each CLI command."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name: str) -> Span:
        rec = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec.start = time.perf_counter()
        return rec

    def _close(self, rec: Span) -> None:
        rec.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counter is not None:
                rec.work = counter(out, args, kwargs)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        try:
            for name, module, path, counter in TRACED:
                self._install(name, importlib.import_module(module), path,
                              counter)
            yield self
        finally:
            self.restore()

    def _install(self, name, module, path, counter):
        owner_path, _, attr = path.rpartition(".")
        if owner_path:
            # a method: callers find it through the class
            owner = functools.reduce(getattr, owner_path.split("."), module)
            original = owner.__dict__[attr]
            self._patch(owner, attr, original, self._wrap(name, original,
                                                          counter))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, counter)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "icageo"
                                   or mod_name.startswith("icageo.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self.patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls run on one thread, so children of a span never overlap and their
    durations add up.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    return [max(0.0, s.seconds - c) for s, c in zip(spans, child)]


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    p = spans[index].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
