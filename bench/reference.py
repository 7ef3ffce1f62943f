"""Reference work timed between the commands of a run, for `wall_rel` and
`setup_s`.

The host's speed drifts by 10 to 30% over seconds to minutes (NOTES.md,
"Host noise"), and not by the same factor for every kind of work: numpy
loops over large arrays slow less than Python-level loops do.  A reference
cancels the drift only if it is made of the same kinds of work as the
workload it divides, in about the same proportions, and is timed at the
same moments.  So each workload gets its own mix of three pieces, each a
stand-in for one family of icageo hot spots:

- `kernel`: Gaussian-kernel sums over a sample-by-grid array, as in a
  kernel density or score estimate (numpy elementwise math and reductions);
- `sort`: sorting 5·10⁴ values and averaging the log of their m-spacings,
  as in the m-spacing entropy estimate;
- `text`: formatting rows of floats with `%.17g` through `csv.writer` and
  parsing them back with `csv.reader` and `float` (Python-level loops).

The pieces are independent of icageo and never change between commits, so
a change to icageo moves `wall_rel` by the same factor as `wall_s`.
"""
import csv
import io
import statistics
import time

import numpy as np

# repeats of each piece in one block, per workload.  The proportions follow
# the baseline layer shares in NOTES.md: adaptive-20k is ~90% kernel score
# estimation; orthogonal-4x50k about half m-spacing sorts and half CSV text;
# fixed-score-audit about 40% CSV text, the rest numpy elementwise math in
# the solvers and the quadrature grids.  A block takes about 0.25 s.
MIXES = {
    "adaptive-20k": {"kernel": 5, "text": 2},
    "orthogonal-4x50k": {"sort": 180, "text": 9},
    "fixed-score-audit": {"kernel": 4, "text": 8},
}
# share of the measured command time spent on reference blocks
SHARE = 0.25
# the block time the mixes were sized to; setup_s is reported at the host
# speed at which a block takes this long
BLOCK_S = 0.25


class Pieces:
    """The fixed inputs of the three pieces."""

    def __init__(self):
        rng = np.random.default_rng(0)
        # one chunk of score_table's kernel sums at 256 bins
        self.kernel_x = rng.standard_normal(2_000_000 // 256)
        self.kernel_grid = np.linspace(-4.0, 4.0, 256)
        self.sort_x = rng.standard_normal(50_000)
        self.text_rows = rng.standard_normal((1000, 4)).tolist()

    def kernel(self) -> None:
        u = (self.kernel_grid[None, :] - self.kernel_x[:, None]) / 0.3
        k = np.exp(-0.5 * u * u)
        k.sum(axis=0)
        (-u * k).sum(axis=0)

    def sort(self) -> None:
        x = self.sort_x
        m = 223  # floor(sqrt(5e4))
        np.var(x)
        xs = np.sort(x)
        padded = np.concatenate([np.full(m, xs[0]), xs, np.full(m, xs[-1])])
        np.mean(np.log(np.maximum(padded[2 * m:] - padded[:x.size], 1e-300)))

    def text(self) -> None:
        buf = io.StringIO()
        w = csv.writer(buf)
        for row in self.text_rows:
            w.writerow([f"{v:.17g}" for v in row])
        buf.seek(0)
        [[float(v) for v in row] for row in csv.reader(buf)]


class Reference:
    """Times blocks of one workload's mix between the commands of a run."""

    def __init__(self, workload: str):
        pieces = Pieces()
        self._calls = [getattr(pieces, name)
                       for name, repeats in MIXES[workload].items()
                       for _ in range(repeats)]
        for call in self._calls:  # warm-up, untimed
            call()
        self.samples: list[float] = []
        # ("command" | "block", seconds) in the order they ran
        self.timeline: list[tuple[str, float]] = []

    def block(self) -> float:
        start = time.perf_counter()
        for call in self._calls:
            call()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        self.timeline.append(("block", seconds))
        return seconds

    def after(self, command_seconds: float) -> None:
        """Time blocks until they add up to SHARE of the command's time
        (at least one), so the samples spread over the run like the work."""
        self.timeline.append(("command", command_seconds))
        spent = self.block()
        while spent < SHARE * command_seconds:
            spent += self.block()

    def mean(self) -> float:
        """Mean block time.  The blocks spread over the run in proportion to
        the command time, so this weights the host's speed by the work."""
        return statistics.fmean(self.samples)
