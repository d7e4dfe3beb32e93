"""Multi-run orchestration: batch statistics, chromatic-bound sweeps, and
machine-readable output (a JSON-ready stats dict and CSV trajectories)."""

from __future__ import annotations

import csv
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .graph import Graph
# not called here; bound because the benchmark's tracer patches both names here
from .graph import select_fixed_node  # noqa: F401
from .qudits import build_ops  # noqa: F401
from .solver import SETTINGS, Hyperparameters, RunRecord, _schedule, run_one


@dataclass
class BatchStats:
    """Aggregates over the runs of one batch that did not diverge.

    ``p_min`` is the fraction of all runs that reached the batch's best
    energy, so a diverged run counts as a miss; ``normalized_error`` is
    that best divided by the edge count.  The standard deviation is the
    population one (divide by the number of runs that did not diverge).
    """

    records: list[RunRecord]
    best_overall: int
    n_min: int
    p_min: float
    mean_best: float
    std_best: float
    histogram: dict[int, int]
    normalized_error: float


class WorkerError(RuntimeError):
    """A pool worker process died or raised before it returned its runs."""


class DivergedError(RuntimeError):
    """Every run of a batch diverged, so the batch has no result."""


# The worker processes of the last pooled batch and their count, kept for
# the next batch: starting a pool costs more than a small batch's runs.
_pool: ProcessPoolExecutor | None = None
_pool_size = 0


def _close_pool() -> None:
    """Shut the kept pool down, waiting for its processes, and forget it."""
    global _pool, _pool_size
    pool, _pool, _pool_size = _pool, None, 0
    if pool is not None:
        pool.shutdown(wait=True)


def run_batch(graph: Graph, hp: Hyperparameters, *,
              record_trajectories: bool = False, workers: int = 1) -> BatchStats:
    """Execute hp.n_runs independent runs and aggregate.

    Each run's stream is derived from (master_seed, run index), so results
    do not depend on the worker count, the grouping or scheduling order.
    The batch takes min(workers, hp.n_runs) processes; with more than one,
    the runs go to a process pool that is kept
    for later batches with the same number of processes; it is replaced
    when that number changes or when a worker dies.  A worker of a new pool
    that dies, or a run in one that raises, ends in ``WorkerError``.  A
    batch in which every run diverged raises ``DivergedError``.
    """
    indices = list(range(hp.n_runs))
    workers = min(workers, hp.n_runs)
    if workers <= 1:
        records = run_one(graph, hp, indices, record_trajectory=record_trajectories)
    else:
        chunks = [indices[w::workers] for w in range(workers)]
        task = partial(run_one, graph, hp, record_trajectory=record_trajectories)
        try:
            parts = _map_in_pool(workers, task, chunks)
        except BrokenProcessPool as exc:
            raise WorkerError(f"worker process failed: {exc}") from None
        except Exception as exc:
            raise WorkerError(
                f"worker process raised {type(exc).__name__}: {exc}") from exc
        records = sorted((r for part in parts for r in part),
                         key=lambda r: r.run_index)
    return collect_stats(graph, records)


def _map_in_pool(workers: int, task, chunks) -> list:
    """``task`` over ``chunks`` in the kept pool, replaced first by a new
    one of ``workers`` processes when its count differs; a broken pool is
    closed.  A pool kept from an earlier batch may have lost a worker while
    it sat idle, so the chunks then run once more on a new pool.  A new
    pool that breaks raises ``BrokenProcessPool``."""
    global _pool, _pool_size
    kept = _pool is not None and _pool_size == workers
    if not kept:
        # no fork while the old pool's threads run
        _close_pool()
        _pool, _pool_size = ProcessPoolExecutor(max_workers=workers), workers
    try:
        return list(_pool.map(task, chunks))
    except BrokenProcessPool:
        _close_pool()
        if not kept:
            raise
    return _map_in_pool(workers, task, chunks)


def collect_stats(graph: Graph, records: list[RunRecord]) -> BatchStats:
    bests = np.array([r.best_energy for r in records if not r.diverged])
    if not bests.size:
        raise DivergedError(
            f"all {len(records)} runs diverged (non-finite cost)")
    best = int(bests.min())
    n_min = int((bests == best).sum())
    histogram = dict(sorted(Counter(int(b) for b in bests).items()))
    return BatchStats(records=records, best_overall=best, n_min=n_min,
                      p_min=n_min / len(records),
                      mean_best=float(bests.mean()),
                      std_best=float(bests.std()),
                      histogram=histogram,
                      normalized_error=best / graph.num_edges)


@dataclass
class SweepResult:
    """Batches per color count and the resulting chromatic upper bound."""

    batches: dict[int, BatchStats]
    chi_upper: int | None


def sweep_colors(graph: Graph, hp: Hyperparameters, c_range, *,
                 force_full: bool = False, workers: int = 1) -> SweepResult:
    """Batch per color count; the smallest c reaching 0 conflicts is the
    chromatic upper bound.  Stops at the first zero unless forced on."""
    c_values = list(c_range)
    if any(b <= a for a, b in zip(c_values, c_values[1:])):
        raise ValueError("color range must be strictly ascending")
    batches: dict[int, BatchStats] = {}
    chi_upper = None
    for c in c_values:
        stats = run_batch(graph, replace(hp, num_colors=c), workers=workers)
        batches[c] = stats
        if stats.best_overall == 0 and chi_upper is None:
            chi_upper = c
            if not force_full:
                break
    return SweepResult(batches=batches, chi_upper=chi_upper)


def trajectory_stats(records: list[RunRecord], hp: Hyperparameters):
    """Per-stage t, sample mean and population std of the conflict count,
    and the number of runs these are taken over.

    Row i of a trajectory is stage i, so stage i aggregates the runs whose
    trajectory has more than i rows; runs that stopped early drop out.
    Its t is the one that the batch's settings ``hp`` run it at.
    """
    trajs = [r.trajectory for r in records]
    if any(tr is None for tr in trajs):
        raise ValueError("records lack trajectories; rerun with recording on")
    values = np.full((len(trajs), max(map(len, trajs), default=0)), np.nan)
    for row, tr in zip(values, trajs):
        row[:len(tr)] = tr
    stage = _schedule(hp).stage
    t = np.array([stage(n)[0] for n in range(values.shape[1])])
    active = (~np.isnan(values)).sum(axis=0)
    return t, np.nanmean(values, axis=0), np.nanstd(values, axis=0), active


def stats_to_dict(stats: BatchStats, graph: Graph, hp: Hyperparameters,
                  config: dict | None = None) -> dict:
    """JSON-ready view of a batch, embedding the resolved configuration."""
    return {
        "config": config if config is not None else hp_to_dict(hp),
        "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges},
        "best_energy": stats.best_overall,
        "n_min": stats.n_min,
        "p_min": stats.p_min,
        "mean_best": stats.mean_best,
        "std_best": stats.std_best,
        "histogram": {str(k): v for k, v in stats.histogram.items()},
        "normalized_error": stats.normalized_error,
        "per_run": [
            {"seed": [hp.master_seed, r.run_index], "best": r.best_energy,
             "steps": r.steps_executed, "wall_ms": r.wall_time * 1e3,
             "diverged": r.diverged}
            for r in stats.records
        ],
    }


def setting_value(value):
    """A setting's value in the form that a config file reads back."""
    return "none" if value is None else getattr(value, "spec", value)


def hp_to_dict(hp: Hyperparameters) -> dict:
    """The settings of ``hp`` by setting name, in values that a config file
    reads back to ``hp``."""
    return {name: setting_value(getattr(hp, f.name)) for name, f in SETTINGS.items()}


def write_trajectory_csv(path, records: list[RunRecord], hp: Hyperparameters) -> None:
    """One row per stage, as ``trajectory_stats`` gives it; the step
    column is the stage index."""
    t, mean, std, active = trajectory_stats(records, hp)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "t", "mean", "std", "active"])
        for step, row in enumerate(zip(t, mean, std, active)):
            writer.writerow([step, f"{row[0]:.10g}", f"{row[1]:.10g}",
                             f"{row[2]:.10g}", int(row[3])])
