"""The two solution drivers: annealed optimization over an interpolated cost
(qdlqa) and direct gradient descent on the end cost (qdgd).

Both run one optimizer loop over a numbered sequence of stages, each a
cost (its annealing time t) and a number of Adam steps to take on it.  qdlqa steps t
through n / n_steps with alpha(t) steps per stage; qdgd is the same loop
held at t = 1 with one step per stage and a patience stop.
"""

from __future__ import annotations

import math
import operator
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .energy import CostParams, draw_couplings, potts_energy
from .gradient import CostWorkspace
from .graph import Graph, check_fix, select_fixed_node
from .optimizer import Adam
from .qudits import (Forward, build_ops, forward, init_qdgd_state,
                     init_qdlqa_state)


@dataclass(frozen=True)
class ConstantAlpha:
    """The same number of optimizer steps at every annealing time."""

    steps: int = 1

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("alpha must be >= 1")

    def steps_at(self, t: float) -> int:
        """Number of optimizer steps to take at annealing time t."""
        return self.steps

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

    def steps_at(self, t: float) -> int:
        """Number of optimizer steps to take at annealing time t."""
        # past log(cap) + 1 the steps are capped anyway; clamping there keeps
        # math.exp from overflowing
        exponent = min(self.rate * t, math.log(self.cap) + 1.0)
        return max(1, min(int(round(math.exp(exponent))), self.cap))

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
    fix_strategy: str | int | None = "max_degree"
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
        if not isinstance(self.alpha, (ConstantAlpha, ExponentialAlpha)):
            raise ValueError("alpha must be a ConstantAlpha or ExponentialAlpha "
                             f"schedule, got {self.alpha!r}")
        object.__setattr__(self, "fix_strategy", check_fix(self.fix_strategy))


# Each Hyperparameters field by its name as a setting (config-file key, flag
# and stats JSON key), in field order; most fields go by their own name.
SETTING_NAMES = {f.name: {"num_colors": "colors", "n_steps": "steps",
                          "n_runs": "runs", "fix_strategy": "fix",
                          "master_seed": "seed"}.get(f.name, f.name)
                 for f in fields(Hyperparameters)}


@dataclass
class Trajectory:
    """Per-outer-step record of a single run: one row per stage.

    ``e_potts`` is the conflict count read out after the stage's last Adam
    step; ``e_total`` is the cost that step descended, at the angles before
    it, so the two are one step apart.
    """

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
    A run whose angles go non-finite is marked ``diverged`` and stops at the
    end of that stage (for qdgd, one step); that stage's readout is not
    counted.  It keeps the best of its earlier readouts, or ``None`` as
    best and coloring if it had none.  ``wall_time`` is the run's
    attributed share of its group's time: each interval between two runs
    leaving the group is split evenly among the runs active in it, so the
    shares of a group add up to the group's wall time.
    """

    run_index: int
    best_energy: int | None
    best_coloring: np.ndarray | None
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
    if hp.method != "qdlqa":
        raise ValueError(f"run_qdlqa needs method 'qdlqa', got {hp.method!r}")
    n_stages = hp.n_steps + 1 if hp.include_t_end else hp.n_steps
    def stage(n: int) -> tuple[CostParams, int]:
        t = n / hp.n_steps
        return CostParams(gamma=hp.gamma, t=t), hp.alpha.steps_at(t)
    total = (hp.alpha.steps * n_stages if isinstance(hp.alpha, ConstantAlpha)
             else sum(hp.alpha.steps_at(n / hp.n_steps) for n in range(n_stages)))
    return _run(graph, hp, run_indices, init_qdlqa_state, hp.f,
                _Stages(n_stages, total, stage), math.inf, record_trajectory)


def run_qdgd(graph: Graph, hp: Hyperparameters, run_indices: Sequence[int],
             *, record_trajectory: bool = False) -> list[RunRecord]:
    """Direct driver: plain optimizer steps on the end cost (t = 1),
    stopping a run at 0 conflicts or after ``patience`` steps without
    improving its best conflict count.  Returns one record per run index,
    in the order given."""
    if hp.method != "qdgd":
        raise ValueError(f"run_qdgd needs method 'qdgd', got {hp.method!r}")
    shared = (CostParams(gamma=hp.gamma, t=1.0), 1)
    return _run(graph, hp, run_indices, init_qdgd_state, hp.f_tilde,
                _Stages(hp.n_steps, hp.n_steps, lambda n: shared), hp.patience,
                record_trajectory)


@dataclass(frozen=True)
class _Stages:
    """Stage n < ``count`` is ``stage(n)``, built when reached; ``total_steps`` in all."""

    count: int
    total_steps: int
    stage: Callable[[int], tuple[CostParams, int]]


@dataclass(slots=True)
class _Run:
    """One run of a lockstep group: its generator, its best conflict count
    and coloring so far, the stage of its last improvement, its trajectory
    rows (stage, t, cost, conflicts) and, once it has left, its record.
    Plain Python values: a stage touches each once, which costs less than
    a numpy call when a group holds few runs."""

    index: int
    rng: np.random.Generator
    best: int | None = None
    coloring: np.ndarray | None = None
    improved_at: int = 0
    rows: list = field(default_factory=list)
    record: RunRecord | None = None


def _trajectory(rows: list) -> Trajectory:
    step, t, e_total, e_potts = zip(*rows) if rows else ((),) * 4
    return Trajectory(step=np.array(step, dtype=np.int64),
                      t=np.array(t, dtype=float),
                      e_total=np.array(e_total, dtype=float),
                      e_potts=np.array(e_potts, dtype=np.int64))


# Angles one lockstep group holds at most.  Below this a step is bound by
# numpy's per-call overhead, which a group shares among its runs; above it
# by the per-angle arithmetic, which grouping does not reduce.
GROUP_ANGLES = 10_000


def group_size(num_nodes: int, num_colors: int) -> int:
    """Most runs to step together on V nodes with c colors: a run holds
    V*(c-1) angles, the pinned node's included."""
    return max(1, GROUP_ANGLES // (num_nodes * (num_colors - 1)))


# Coupling values a group draws ahead at most (256 KiB of float64).  Each
# run fills its couplings for a block of DRAW_BUDGET // (k*E) steps, at
# least one and at most the steps the group can still take, in one
# generator call, which shares the call's overhead among the steps of the
# block.  A larger budget gained no more in measurement and added its size
# to the peak memory.
DRAW_BUDGET = 32_768


def _run(graph: Graph, hp: Hyperparameters, run_indices: Sequence[int],
         init_state, init_scale: float, stages: _Stages, patience: float,
         record_trajectory: bool) -> list[RunRecord]:
    """The set-up both drivers share: resolve the operators and the pinned
    node once, split the runs into near-equal lockstep groups of at most
    ``group_size`` runs, and step each group in turn through one
    workspace."""
    # any sequence of integers: a list, a range, an integer array
    run_indices = [operator.index(i) for i in run_indices]
    if not run_indices:
        return []
    lx_offdiag = build_ops(hp.num_colors)
    fixed = select_fixed_node(graph, hp.fix_strategy)
    n_groups = -(-len(run_indices) // group_size(graph.num_nodes, hp.num_colors))
    groups = [g.tolist() for g in np.array_split(run_indices, n_groups)]
    workspace = CostWorkspace(graph, lx_offdiag, fixed, copies=len(groups[0]))
    return [record for group in groups
            for record in _run_group(workspace, hp, group, init_state,
                                     init_scale, stages, patience,
                                     record_trajectory)]


def _run_group(workspace: CostWorkspace, hp: Hyperparameters,
               run_indices: list[int], init_state, init_scale: float,
               stages: _Stages, patience: float,
               record_trajectory: bool) -> list[RunRecord]:
    """Step one group of runs in lockstep (a group of one is the same loop).

    Stage n, built as the loop reaches it, is a ``CostParams`` and a step
    count: take that many Adam steps on the stage's cost, then read out
    the colorings and track each run's best conflict count.  The readout
    is the one place where a run leaves the group: at 0 conflicts, after
    ``patience`` stages in a row without improving its best, after the
    last stage, or, marked as diverged, when any of its angles is
    non-finite, in which case that readout is not counted for it.  Until
    then a diverged run steps on with the others; each run draws its
    couplings from its own generator and keeps its own angles, couplings
    and Adam moments, and every value is reduced over its own run, so no
    run's numbers depend on the group it is in.

    Every per-run array is a stack with the run as its first axis: the
    angles (k, V, c-1), Adam's two moments, the four ``Forward`` arrays
    and the couplings drawn ahead (k, block, E), and a run that leaves is
    dropped from each of them with the same mask.  The angles are mapped
    to amplitudes once per step: the forward map taken after an Adam step
    serves both the stage's readout and the next step's cost.  Each run
    draws its couplings a block of steps ahead in one call, which takes
    its generator through the same stream as one draw per step, and the
    steps consume the block from its front; a block never holds more
    steps than the stages have left.  The angles hold a row for every
    node; the pinned node's row is inserted as zeros into each run's start
    angles and stays there, since its gradient is 0.  The trajectory's t
    column is the stage's annealing time and its cost the one taken at the
    stage's last step, computed only when a trajectory is recorded.
    """
    mark = time.perf_counter()
    share = 0.0  # wall time attributed to every run still in the group
    graph, fixed = workspace.graph, workspace.fixed_node
    num_edges = graph.num_edges
    members = [_Run(i, run_rng(hp.master_seed, i)) for i in run_indices]
    runs = members
    n_free = graph.num_nodes - (fixed is not None)
    angles = init_state(n_free, hp.num_colors, init_scale, [run.rng for run in runs])
    if fixed is not None:
        angles = np.insert(angles, fixed, 0.0, axis=1)
    adam = Adam(angles.shape, hp.eta)
    drawn = np.empty((len(runs), 0, num_edges))  # the steps' couplings ahead
    color_type = np.min_scalar_type(-hp.num_colors)
    # a diverging run overflows in Adam and then maps NaN angles; it is
    # reported by the diverged flag, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        fwd = forward(angles)
        for n, (params, inner) in enumerate(map(stages.stage, range(stages.count))):
            for _ in range(inner):
                if not drawn.shape[1]:
                    block = min(max(1, DRAW_BUDGET // max(1, len(runs) * num_edges)),
                                stages.total_steps - adam.step_count)
                    drawn = np.empty((len(runs), block, num_edges))
                    for run, out in zip(runs, drawn):
                        draw_couplings(graph, hp.h, run.rng, out=out)
                values, gphi = workspace.value_and_grad(fwd, params, drawn[:, 0])
                drawn = drawn[:, 1:]
                adam.step(angles, gphi)
                fwd = forward(angles)
            finite = np.isfinite(angles).all(axis=(1, 2)).tolist()
            colors = workspace.coloring(fwd)
            counts = potts_energy(graph, colors)
            last = n == stages.count - 1
            costs = values() if record_trajectory else None
            stays = []
            for j, run in enumerate(runs):
                if finite[j]:
                    if run.best is None or counts[j] < run.best:
                        run.best, run.improved_at = counts[j], n
                        run.coloring = colors[j].astype(color_type)
                    if record_trajectory:
                        run.rows.append((n, params.t, costs[j], counts[j]))
                stays.append(finite[j] and run.best > 0 and not last
                             and n - run.improved_at < patience)
            if all(stays):
                continue
            now = time.perf_counter()
            share += (now - mark) / len(runs)
            mark = now
            for run, ok, stay in zip(runs, finite, stays):
                if not stay:
                    run.record = RunRecord(
                        run_index=run.index, best_energy=run.best,
                        best_coloring=run.coloring,
                        steps_executed=adam.step_count, wall_time=share,
                        trajectory=_trajectory(run.rows) if record_trajectory else None,
                        diverged=not ok)
            runs = [run for run, stay in zip(runs, stays) if stay]
            if not runs:
                break
            keep = np.array(stays)
            angles, drawn = angles[keep], drawn[keep]
            adam.first_moment = adam.first_moment[keep]
            adam.second_moment = adam.second_moment[keep]
            fwd = Forward._make(a[keep] for a in fwd)
    return [run.record for run in members]


def run_one(graph: Graph, hp: Hyperparameters, run_indices: Sequence[int], *,
            record_trajectory: bool = False) -> list[RunRecord]:
    """Dispatch runs by method."""
    runner = run_qdlqa if hp.method == "qdlqa" else run_qdgd
    return runner(graph, hp, run_indices, record_trajectory=record_trajectory)
