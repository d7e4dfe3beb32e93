"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark host is shared: the same work can take twice as long for
seconds at a time while other tenants load the cores.  Every timing the
benchmark reports is therefore scaled by ``NOMINAL_S / median(reference
samples)``, with the samples taken just before and just after the timed
batch: a slow phase stretches the reference and the batch alike, and the
ratio cancels most of it.  The kernel repeats the numpy and scipy calls of
one solver step (trig maps, cumulative products, a sparse product, logs,
argmax, uniform draws) on random arrays of the workload's own shape, so
that it leans on the cache and on call overhead as the solver does, and it
imports nothing from quditcolor, so no change to the program can move it.  A batch
that runs on several worker processes is scaled by the reference run on as
many processes at once, since contention can hit one core and not another.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import scipy.sparse as sp

# Reference-unit time that reported timings are normalised to.  The step
# count of a unit is set from the shape so that a unit takes about this long
# on an idle core of a 2-core Xeon VM.
NOMINAL_S = 0.020


class Reference:
    """The reference kernel for a graph of ``num_nodes`` nodes and
    ``num_edges`` edges colored with ``num_colors`` colors."""

    def __init__(self, num_nodes: int, num_colors: int, num_edges: int):
        rng = np.random.default_rng(20240601)
        self.rng = rng
        self.phi = rng.uniform(0.0, np.pi, (num_nodes, num_colors - 1))
        self.adj = sp.random(num_nodes, num_nodes, format="csr", random_state=rng,
                             density=min(1.0, 2.0 * num_edges / num_nodes ** 2))
        work = self.phi.size + self.adj.nnz
        self.steps = max(1, round(NOMINAL_S / (20e-6 + 11e-9 * work)))

    def _step(self) -> float:
        s, u = np.sin(self.phi), np.cos(self.phi)
        psi = np.cumprod(s, axis=1) * u
        p = psi * psi
        acc = self.adj @ p
        logp = np.log(np.maximum(p, 1e-12))
        np.argmax(p, axis=1)
        self.rng.uniform(0.0, 3.0, size=self.adj.nnz)
        return float(np.einsum("ij,ij->", p, acc + logp))

    def unit(self) -> None:
        for _ in range(self.steps):
            self._step()

    def sample(self, units: int, processes: int = 1) -> list[float]:
        """Wall times of ``units`` reference units in each of ``processes``
        processes running at the same time."""
        if processes == 1:
            times = []
            for _ in range(units):
                a = time.perf_counter()
                self.unit()
                times.append(time.perf_counter() - a)
            return times
        # fork is safe here: BLAS is pinned to one thread and the caller
        # holds no other threads between batches
        with ProcessPoolExecutor(processes, mp_context=get_context("fork")) as pool:
            parts = list(pool.map(self.sample, [units] * processes))
        return [t for part in parts for t in part]


def scale(times: list[float]) -> float:
    """Factor from measured seconds to seconds at nominal speed."""
    return NOMINAL_S / statistics.median(times)
