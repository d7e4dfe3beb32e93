"""The two solution drivers: annealed optimization over an interpolated cost
(qdlqa) and direct gradient descent on the end cost (qdgd).

Both run one optimizer loop over a stream of stages, each a cost (its
annealing time t) and a number of Adam steps to take on it.  qdlqa steps t
through n / n_steps with alpha(t) steps per stage; qdgd is the same loop
held at t = 1 with one step per stage and a patience stop.
"""

from __future__ import annotations

import math
import operator
import time
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from .energy import CostParams, draw_couplings, potts_energy
from .gradient import CostWorkspace, Forward
from .graph import Graph, select_fixed_node
from .optimizer import Adam
from .qudits import build_ops, init_qdgd_state, init_qdlqa_state


@dataclass(frozen=True)
class ConstantAlpha:
    """The same number of optimizer steps at every annealing time."""

    steps: int = 1

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("alpha must be >= 1")

    @property
    def spec(self) -> int:
        """The alpha setting that ``parse_alpha`` reads back to this schedule."""
        return self.steps


@dataclass(frozen=True)
class ExponentialAlpha:
    """round(exp(rate * t)) optimizer steps per annealing time, capped."""

    rate: float = 2.0
    cap: int = 7

    def __post_init__(self):
        if not math.isfinite(self.rate):
            raise ValueError(f"alpha rate must be finite, got {self.rate!r}")
        if self.cap < 1:
            raise ValueError("alpha cap must be >= 1")

    @property
    def spec(self) -> str:
        """The alpha setting that ``parse_alpha`` reads back to this schedule:
        the rate in short form where that is exact, else in full."""
        rate = f"{self.rate:g}"
        if float(rate) != self.rate:
            rate = repr(self.rate)
        return f"exp:{rate}:{self.cap}"


def parse_alpha(text) -> ConstantAlpha | ExponentialAlpha:
    """"N" -> constant schedule; "exp:RATE:CAP" -> exponential schedule."""
    text = str(text).strip()
    if text.startswith("exp:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"alpha schedule {text!r} must be exp:RATE:CAP")
        try:
            return ExponentialAlpha(rate=float(parts[1]), cap=int(parts[2]))
        except ValueError as exc:
            raise ValueError(f"bad alpha schedule {text!r}: {exc}") from None
    try:
        steps = int(text)
    except ValueError:
        raise ValueError(f"alpha must be an integer or exp:RATE:CAP, got {text!r}") from None
    return ConstantAlpha(steps)


def alpha_at(schedule, t: float) -> int:
    """Number of optimizer steps to take at annealing time t."""
    if isinstance(schedule, ConstantAlpha):
        return schedule.steps
    if isinstance(schedule, ExponentialAlpha):
        # past log(cap) + 1 the steps are capped anyway; clamping there keeps
        # math.exp from overflowing
        exponent = min(schedule.rate * t, math.log(schedule.cap) + 1.0)
        return max(1, min(int(round(math.exp(exponent))), schedule.cap))
    raise TypeError(f"unknown alpha schedule {schedule!r}")


@dataclass(frozen=True)
class Hyperparameters:
    """Everything a batch needs; defaults are the values that work well on
    most mid-size instances.  Invalid values raise ``ValueError``."""

    method: str  # "qdlqa" | "qdgd"
    num_colors: int
    n_steps: int = 1000
    gamma: float = 1.0
    alpha: ConstantAlpha | ExponentialAlpha = ConstantAlpha(1)
    eta: float = 0.5
    f: float = 0.0
    f_tilde: float = 1.0
    h: float = 3.0
    n_runs: int = 100
    patience: int = 100
    fix_strategy: object = "max_degree"
    master_seed: int = 0
    include_t_end: bool = False

    def __post_init__(self):
        if self.method not in ("qdlqa", "qdgd"):
            raise ValueError(f"method must be qdlqa or qdgd, got {self.method!r}")
        for name in ("gamma", "eta", "f", "f_tilde", "h"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.num_colors < 2:
            raise ValueError("colors must be >= 2")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        if self.gamma < 0 or self.h < 0 or self.f < 0:
            raise ValueError("gamma, h, and f must be >= 0")
        if self.eta <= 0:
            raise ValueError("eta must be > 0")
        if self.f_tilde <= 0:
            raise ValueError("f_tilde must be > 0")
        if self.method == "qdgd" and self.patience < 1:
            raise ValueError("patience must be >= 1 for qdgd")
        if self.master_seed < 0:
            raise ValueError("seed must be >= 0")


# Each Hyperparameters field by its name as a setting (config-file key, flag
# and stats JSON key), in field order; most fields go by their own name.
SETTING_NAMES = {f.name: {"num_colors": "colors", "n_steps": "steps",
                          "n_runs": "runs", "fix_strategy": "fix",
                          "master_seed": "seed"}.get(f.name, f.name)
                 for f in fields(Hyperparameters)}


@dataclass
class Trajectory:
    """Per-outer-step record of a single run."""

    step: np.ndarray
    t: np.ndarray
    e_total: np.ndarray
    e_potts: np.ndarray


@dataclass(slots=True)
class RunRecord:
    """Result of one run: the best conflict count seen and its coloring.

    A batch keeps one record per run, so a record is kept small: slots, and
    the coloring in the smallest signed integer type that holds the color
    count (int8 up to 128 colors).
    A run whose cost goes non-finite stops there and is marked ``diverged``;
    it keeps the best coloring read out up to that point.  ``wall_time`` is
    the run's attributed share of its group's time: each interval between
    two runs leaving the group is split evenly among the runs active in
    it, so the shares of a group add up to the group's wall time.
    """

    run_index: int
    best_energy: int
    best_coloring: np.ndarray
    steps_executed: int
    wall_time: float
    trajectory: Trajectory | None = None
    diverged: bool = False


def run_rng(master_seed: int, run_index: int) -> np.random.Generator:
    """The run's private stream, fully determined by (seed, index)."""
    return np.random.default_rng([master_seed, run_index])


def run_qdlqa(graph: Graph, hp: Hyperparameters, run_indices: Sequence[int],
              *, record_trajectory: bool = False) -> list[RunRecord]:
    """Annealing driver: sweep t from 0 toward 1, take alpha(t) optimizer
    steps at each t, track each run's best conflict count, stop a run early
    at 0.  Returns one record per run index, in the order given.

    By default t stops one increment short of 1 (loop guard t < 1);
    ``hp.include_t_end`` adds the final t = 1 stage.
    """
    n_outer = hp.n_steps + 1 if hp.include_t_end else hp.n_steps

    def stages():
        times = (n / hp.n_steps for n in range(n_outer))
        return ((CostParams(gamma=hp.gamma, h=hp.h, t=t), alpha_at(hp.alpha, t))
                for t in times)

    return _run(graph, hp, run_indices, init_qdlqa_state, hp.f, stages,
                math.inf, record_trajectory)


def run_qdgd(graph: Graph, hp: Hyperparameters, run_indices: Sequence[int],
             *, record_trajectory: bool = False) -> list[RunRecord]:
    """Direct driver: plain optimizer steps on the end cost (t = 1),
    stopping a run at 0 conflicts or after ``patience`` steps without
    improving its best conflict count.  Returns one record per run index,
    in the order given."""
    stage = (CostParams(gamma=hp.gamma, h=hp.h, t=1.0), 1)
    return _run(graph, hp, run_indices, init_qdgd_state, hp.f_tilde,
                lambda: repeat(stage, hp.n_steps), hp.patience,
                record_trajectory)


def _keep_blocks(a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The row blocks of ``a`` marked in ``keep``; ``a`` splits into
    ``keep.size`` equal blocks, one per run of a group."""
    return a.reshape(keep.size, -1, *a.shape[1:])[keep].reshape(-1, *a.shape[1:])


class _Group:
    """The runs a group still steps together, in group order.

    Run j owns block j of every stacked array: its angle rows, Adam
    moments, ``Forward`` rows and coupling slice.  A finished run is
    recorded and compacted out of all of them.  The per-run bookkeeping is
    kept in Python lists: a stage touches each entry once, which costs less
    than a numpy call when a group holds few runs.
    """

    def __init__(self, run_indices, rngs, angles, num_colors, num_edges, eta,
                 patience, record_trajectory, start):
        k = len(run_indices)
        self.size = k
        self.run_indices = list(run_indices)
        # each run's position in run_indices, and its generator
        self.slots, self.rngs = list(range(k)), rngs
        self.angles, self.flat = angles, angles.ravel()
        self.adam = Adam(angles.size, eta)
        self.fwd = None
        # the couplings of the runs in the group, one (E,) slice per run
        self.num_edges = num_edges
        self._hvals = self.hvals = np.empty(k * num_edges)
        self.slices = [self.hvals[j * num_edges:(j + 1) * num_edges]
                       for j in range(k)]
        self.best = [np.iinfo(np.int64).max] * k
        self.best_colors: list[np.ndarray | None] = [None] * k
        self.color_type = np.min_scalar_type(-num_colors)
        self.improved_at = [0] * k  # stage of each run's last improvement
        self.patience = patience
        self.record_trajectory = record_trajectory
        self.trajs = [[] for _ in range(k)]
        self.records: list[RunRecord | None] = [None] * k
        # wall time attributed to every run still in the group, and when
        # that total was last brought up to date
        self.share, self.mark = 0.0, start

    def read_out(self, graph, workspace, n, t, values, runs=None) -> list[int]:
        """Read out the colorings at stage n and track the best of each run
        (of the runs at the positions ``runs`` only, if given); returns the
        positions of the runs that are done, at 0 conflicts or out of
        patience."""
        colors = workspace.coloring(self.fwd).reshape(self.size, -1)
        counts = potts_energy(graph, colors)
        runs = range(self.size) if runs is None else runs
        best, improved_at = self.best, self.improved_at
        for j in runs:
            if counts[j] < best[j]:
                best[j], improved_at[j] = counts[j], n
                self.best_colors[j] = colors[j].astype(self.color_type)
        if self.record_trajectory:
            for j in runs:
                self.trajs[self.slots[j]].append((n, t, values[j], counts[j]))
        return [j for j in runs
                if best[j] == 0 or n - improved_at[j] >= self.patience]

    def retire(self, done: list[int], diverged: bool = False) -> np.ndarray:
        """Record the runs at the positions ``done`` and compact them out;
        returns the mask of the runs kept."""
        now = time.perf_counter()
        self.share += (now - self.mark) / self.size
        self.mark = now
        for j in done:
            slot = self.slots[j]
            trajectory = None
            if self.record_trajectory:
                cols = list(zip(*self.trajs[slot]))
                trajectory = Trajectory(step=np.array(cols[0], dtype=np.int64),
                                        t=np.array(cols[1]),
                                        e_total=np.array(cols[2]),
                                        e_potts=np.array(cols[3], dtype=np.int64))
            self.records[slot] = RunRecord(
                run_index=self.run_indices[slot], best_energy=int(self.best[j]),
                best_coloring=self.best_colors[j],
                steps_executed=self.adam.step_count, wall_time=self.share,
                trajectory=trajectory, diverged=diverged)
        keep = np.ones(self.size, dtype=bool)
        keep[done] = False
        kept = np.flatnonzero(keep).tolist()
        self.size = len(kept)
        for name in ("slots", "rngs", "best", "best_colors", "improved_at"):
            setattr(self, name, [getattr(self, name)[j] for j in kept])
        self.angles = _keep_blocks(self.angles, keep)
        self.flat = self.angles.ravel()
        self.hvals = self._hvals[:self.size * self.num_edges]
        adam = self.adam
        adam.first_moment = _keep_blocks(adam.first_moment, keep)
        adam.second_moment = _keep_blocks(adam.second_moment, keep)
        self.fwd = Forward._make(_keep_blocks(a, keep) for a in self.fwd)
        return keep


# Angles one lockstep group holds at most.  Below this a step is bound by
# numpy's per-call overhead, which a group shares among its runs; above it
# by the per-angle arithmetic, which grouping does not reduce.
GROUP_ANGLES = 10_000


def group_size(n_free: int, num_colors: int) -> int:
    """Most runs to step together on n_free free nodes with c colors."""
    return max(1, GROUP_ANGLES // (n_free * (num_colors - 1)))


def _run(graph: Graph, hp: Hyperparameters, run_indices: Sequence[int],
         init_state, init_scale: float, stages, patience: float,
         record_trajectory: bool) -> list[RunRecord]:
    """The set-up both drivers share: resolve the operators and the pinned
    node once, split the runs into near-equal lockstep groups of at most
    ``group_size`` runs, and step each group in turn through one
    workspace.  ``stages`` returns a fresh stage stream for each group."""
    # any sequence of integers: a list, a range, an integer array
    run_indices = [operator.index(i) for i in run_indices]
    if not run_indices:
        return []
    ops = build_ops(hp.num_colors)
    fixed = select_fixed_node(graph, hp.fix_strategy)
    n_free = graph.num_nodes - (fixed is not None)
    n_groups = -(-len(run_indices) // group_size(n_free, hp.num_colors))
    groups = [g.tolist() for g in np.array_split(run_indices, n_groups)]
    workspace = CostWorkspace(graph, ops, fixed, copies=len(groups[0]))
    return [record for group in groups
            for record in _run_group(workspace, hp, group, init_state,
                                     init_scale, stages(), patience,
                                     record_trajectory)]


def _run_group(workspace: CostWorkspace, hp: Hyperparameters,
               run_indices: list[int], init_state, init_scale: float, stages,
               patience: float, record_trajectory: bool) -> list[RunRecord]:
    """Step one group of runs in lockstep (a group of one is the same loop).

    Each stage is a ``(CostParams, inner_steps)`` pair: take that many Adam
    steps on the stage's cost, then read out the colorings and track each
    run's best conflict count.  A run stops at 0 conflicts, after
    ``patience`` stages in a row without improving its best, when the
    stages run out, or, marked as diverged, at a non-finite cost (read out
    on the angles reached and removed before the others step).  Each run
    draws its couplings from its own generator and keeps its own rows, so
    its numbers do not depend on the group it is in.  The angles are mapped
    to amplitudes once per step: the forward map taken after an Adam step
    serves both the stage's readout and the next step's cost, and a
    finished run is sliced out of it.  The trajectory's t column is
    n / n_steps for stage n.
    """
    start = time.perf_counter()
    graph, n_free = workspace.graph, workspace.free.size
    rngs = [run_rng(hp.master_seed, i) for i in run_indices]
    angles = np.concatenate([init_state(n_free, hp.num_colors, init_scale, rng)
                             for rng in rngs])
    group = _Group(run_indices, rngs, angles, hp.num_colors, graph.num_edges,
                   hp.eta, patience, record_trajectory, start)
    # a diverging run overflows in Adam and maps NaN angles before its cost
    # goes non-finite; it is reported by the diverged flag, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        group.fwd = workspace.forward(group.angles)
        for n, (params, inner) in enumerate(stages):
            t = n / hp.n_steps
            for _ in range(inner):
                for rng, out in zip(group.rngs, group.slices):
                    draw_couplings(graph, hp.h, rng, out=out)
                values, gphi = workspace.value_and_grad(group.fwd, params,
                                                        group.hvals)
                diverged = [j for j, v in enumerate(values) if not math.isfinite(v)]
                if diverged:
                    group.read_out(graph, workspace, n, t, values, diverged)
                    keep = group.retire(diverged, diverged=True)
                    if not group.size:
                        break
                    values = [v for v, kept in zip(values, keep) if kept]
                    gphi = _keep_blocks(gphi, keep)
                group.adam.step(group.flat, gphi.ravel())
                group.fwd = workspace.forward(group.angles)
            if not group.size:
                break
            done = group.read_out(graph, workspace, n, t, values)
            if done:
                group.retire(done)
                if not group.size:
                    break
        if group.size:
            group.retire(list(range(group.size)))
    return group.records


def run_one(graph: Graph, hp: Hyperparameters, run_indices: Sequence[int], *,
            record_trajectory: bool = False) -> list[RunRecord]:
    """Dispatch runs by method."""
    runner = run_qdlqa if hp.method == "qdlqa" else run_qdgd
    return runner(graph, hp, run_indices, record_trajectory=record_trajectory)
