"""The two solution drivers: annealed optimization over an interpolated cost
(qdlqa) and direct gradient descent on the end cost (qdgd).

Both run one optimizer loop over a stream of stages, each a cost (its
annealing time t) and a number of Adam steps to take on it.  qdlqa steps t
through n / n_steps with alpha(t) steps per stage; qdgd is the same loop
held at t = 1 with one step per stage and a patience stop.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from .energy import CostParams, draw_couplings, potts_energy
from .gradient import CostWorkspace
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


@dataclass
class RunRecord:
    """Result of one run: the best conflict count seen and its coloring.

    A run whose cost goes non-finite stops there and is marked ``diverged``;
    it keeps the best coloring read out up to that point.
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


def run_qdlqa(graph: Graph, hp: Hyperparameters, run_index: int, *,
              record_trajectory: bool = False,
              workspace: CostWorkspace | None = None) -> RunRecord:
    """Annealing driver: sweep t from 0 toward 1, take alpha(t) optimizer
    steps at each t, track the best conflict count, stop early at 0.

    By default t stops one increment short of 1 (loop guard t < 1);
    ``hp.include_t_end`` adds the final t = 1 stage.
    """
    n_outer = hp.n_steps + 1 if hp.include_t_end else hp.n_steps
    times = (n / hp.n_steps for n in range(n_outer))
    stages = ((CostParams(gamma=hp.gamma, h=hp.h, t=t), alpha_at(hp.alpha, t))
              for t in times)
    return _run(graph, hp, run_index, init_qdlqa_state, hp.f, stages,
                math.inf, record_trajectory, workspace)


def run_qdgd(graph: Graph, hp: Hyperparameters, run_index: int, *,
             record_trajectory: bool = False,
             workspace: CostWorkspace | None = None) -> RunRecord:
    """Direct driver: plain optimizer steps on the end cost (t = 1),
    stopping at 0 conflicts or after ``patience`` steps without improving
    the best conflict count."""
    stages = repeat((CostParams(gamma=hp.gamma, h=hp.h, t=1.0), 1), hp.n_steps)
    return _run(graph, hp, run_index, init_qdgd_state, hp.f_tilde, stages,
                hp.patience, record_trajectory, workspace)


def _run(graph: Graph, hp: Hyperparameters, run_index: int, init_state,
         init_scale: float, stages, patience: float, record_trajectory: bool,
         workspace: CostWorkspace | None) -> RunRecord:
    """The optimizer loop shared by both drivers.

    Each stage is a ``(CostParams, inner_steps)`` pair: take that many Adam
    steps on the stage's cost, then read out the coloring and track the best
    conflict count.  Stops at 0 conflicts, after ``patience`` stages in a
    row without improving the best, when the stages run out, or, marked as
    diverged, at a non-finite cost (after reading out the angles reached).
    The angles are mapped to amplitudes once per step: the forward map
    taken after an Adam step serves both the stage's readout and the next
    step's cost.  The trajectory's t column is n / n_steps for stage n.
    """
    start = time.perf_counter()
    rng = run_rng(hp.master_seed, run_index)
    ops = build_ops(hp.num_colors)
    fixed = select_fixed_node(graph, hp.fix_strategy)
    n_free = graph.num_nodes - (fixed is not None)
    angles = init_state(n_free, hp.num_colors, init_scale, rng)
    if workspace is None or workspace.fixed_node != fixed:
        workspace = CostWorkspace(graph, ops, fixed)
    adam = Adam(angles.size, hp.eta)
    flat = angles.ravel()

    best, best_coloring = np.iinfo(np.int64).max, None
    traj: list[tuple[int, float, float, int]] = []
    stalled = 0
    diverged = False
    hvals = np.empty(graph.num_edges)
    # a diverging run overflows in Adam and maps NaN angles before its cost
    # goes non-finite; it is reported by the diverged flag, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        fwd = workspace.forward(angles)
        for n, (params, inner) in enumerate(stages):
            for _ in range(inner):
                draw_couplings(graph, hp.h, rng, out=hvals)
                value, gphi = workspace.value_and_grad(fwd, params, hvals)
                if not math.isfinite(value):
                    diverged = True
                    break
                adam.step(flat, gphi.ravel())
                fwd = workspace.forward(angles)
            colors = workspace.coloring(fwd)
            e_potts = potts_energy(graph, colors)
            if e_potts < best:
                best, best_coloring, stalled = e_potts, colors.copy(), 0
            else:
                stalled += 1
            if record_trajectory:
                traj.append((n, n / hp.n_steps, value, e_potts))
            if diverged or best == 0 or stalled >= patience:
                break

    trajectory = None
    if record_trajectory:
        cols = list(zip(*traj))
        trajectory = Trajectory(step=np.array(cols[0], dtype=np.int64),
                                t=np.array(cols[1]),
                                e_total=np.array(cols[2]),
                                e_potts=np.array(cols[3], dtype=np.int64))
    return RunRecord(run_index=run_index, best_energy=int(best),
                     best_coloring=best_coloring,
                     steps_executed=adam.step_count,
                     wall_time=time.perf_counter() - start,
                     trajectory=trajectory, diverged=diverged)


def run_one(graph: Graph, hp: Hyperparameters, run_index: int, *,
            record_trajectory: bool = False,
            workspace: CostWorkspace | None = None) -> RunRecord:
    """Dispatch a single run by method."""
    runner = run_qdlqa if hp.method == "qdlqa" else run_qdgd
    return runner(graph, hp, run_index, record_trajectory=record_trajectory,
                  workspace=workspace)
