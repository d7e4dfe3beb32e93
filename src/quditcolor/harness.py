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
from .solver import SETTING_NAMES, Hyperparameters, RunRecord, run_one


@dataclass
class BatchStats:
    """Aggregates over the runs of one batch.

    ``p_min`` is the fraction of runs that reached the batch's best energy;
    ``normalized_error`` is that best divided by the edge count.  The
    standard deviation is the population one (divide by N).
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


def run_batch(graph: Graph, hp: Hyperparameters, *,
              record_trajectories: bool = False, workers: int = 1) -> BatchStats:
    """Execute hp.n_runs independent runs and aggregate.

    Each run's stream is derived from (master_seed, run index), so results
    do not depend on the worker count, the grouping or scheduling order.
    A pool worker that dies, or a run in one that raises, ends in
    ``WorkerError``.
    """
    indices = list(range(hp.n_runs))
    if workers <= 1 or hp.n_runs == 1:
        records = run_one(graph, hp, indices, record_trajectory=record_trajectories)
    else:
        workers = min(workers, hp.n_runs)
        chunks = [indices[w::workers] for w in range(workers)]
        task = partial(run_one, graph, hp, record_trajectory=record_trajectories)
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(task, chunks))
        except BrokenProcessPool as exc:
            raise WorkerError(f"worker process failed: {exc}") from None
        except Exception as exc:
            raise WorkerError(
                f"worker process raised {type(exc).__name__}: {exc}") from exc
        records = sorted((r for part in parts for r in part),
                         key=lambda r: r.run_index)
    return collect_stats(graph, records)


def collect_stats(graph: Graph, records: list[RunRecord]) -> BatchStats:
    bests = np.array([r.best_energy for r in records])
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
                 force_full: bool = False, workers: int = 1,
                 record_trajectories: bool = False) -> SweepResult:
    """Batch per color count; the smallest c reaching 0 conflicts is the
    chromatic upper bound.  Stops at the first zero unless forced on."""
    c_values = list(c_range)
    if any(b <= a for a, b in zip(c_values, c_values[1:])):
        raise ValueError("color range must be strictly ascending")
    batches: dict[int, BatchStats] = {}
    chi_upper = None
    for c in c_values:
        stats = run_batch(graph, replace(hp, num_colors=c), workers=workers,
                          record_trajectories=record_trajectories)
        batches[c] = stats
        if stats.best_overall == 0 and chi_upper is None:
            chi_upper = c
            if not force_full:
                break
    return SweepResult(batches=batches, chi_upper=chi_upper)


def trajectory_stats(records: list[RunRecord], quantity: str):
    """Per-step sample mean and population std across run trajectories.

    ``quantity`` is "e_total" or "e_potts".  All trajectories must share
    the same step grid (no early-stopped stragglers).
    """
    if quantity not in ("e_total", "e_potts"):
        raise ValueError(f"unknown quantity {quantity!r}")
    trajs = [r.trajectory for r in records]
    if any(tr is None for tr in trajs):
        raise ValueError("records lack trajectories; rerun with recording on")
    grid = trajs[0].step
    for tr in trajs[1:]:
        if not np.array_equal(tr.step, grid):
            raise ValueError("trajectories have mismatched step grids")
    values = np.stack([getattr(tr, quantity) for tr in trajs]).astype(float)
    return grid.copy(), trajs[0].t.copy(), values.mean(axis=0), values.std(axis=0)


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


def hp_to_dict(hp: Hyperparameters) -> dict:
    """The settings of ``hp`` by setting name, in values that a config file
    reads back to ``hp``."""
    out = {}
    for field_name, name in SETTING_NAMES.items():
        value = getattr(hp, field_name)
        out[name] = "none" if value is None else getattr(value, "spec", value)
    return out


def write_trajectory_csv(path, records: list[RunRecord], quantity: str) -> None:
    step, t, mean, std = trajectory_stats(records, quantity)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "t", "mean", "std"])
        for row in zip(step, t, mean, std):
            writer.writerow([int(row[0]), f"{row[1]:.10g}",
                             f"{row[2]:.10g}", f"{row[3]:.10g}"])

