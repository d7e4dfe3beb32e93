"""The two solution drivers: annealed optimization over an interpolated cost
(qdlqa) and direct gradient descent on the end cost (qdgd).

Both run one optimizer loop over a numbered sequence of stages, each a
cost (its annealing time t) and a number of Adam steps to take on it.  qdlqa steps t
through n / n_steps with alpha(t) steps per stage; qdgd is the same loop
held at t = 1 with one step per stage and a patience stop.
"""

from __future__ import annotations

import math
import numbers
import operator
import time
from collections.abc import Callable, Sequence
from dataclasses import MISSING, dataclass, field, fields
from typing import get_type_hints

import numpy as np

from .energy import draw_couplings, potts_energy
from .gradient import CostWorkspace
from .graph import Graph, check_fix, parse_fix, select_fixed_node
from .optimizer import Adam
from .qudits import (Forward, build_ops, forward, init_qdgd_state,
                     init_qdlqa_state)

# A declared type -> the values that it accepts (a bool is neither an int
# nor a real here) and what an error calls them
_ACCEPTS = {int: ((int, np.integer), "an integer"),
            float: (numbers.Real, "a real number"),
            bool: ((bool, np.bool_), "True or False")}


def _typed(name: str, kind: type, value):
    """``value`` as ``kind`` (int, float or bool), a numpy scalar too;
    ``ValueError`` naming ``name`` if ``_ACCEPTS`` does not list it."""
    accepted, noun = _ACCEPTS[kind]
    if not isinstance(value, accepted) or (kind is not bool and isinstance(value, bool)):
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class ConstantAlpha:
    """The same number of optimizer steps at every annealing time."""

    steps: int = 1

    def __post_init__(self):
        object.__setattr__(self, "steps", _typed("alpha", int, self.steps))
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
        object.__setattr__(self, "rate", _typed("alpha rate", float, self.rate))
        object.__setattr__(self, "cap", _typed("alpha cap", int, self.cap))
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


def _read_number(name: str, kind: type, noun: str, text: str):
    """``text`` read as ``kind``; ``ValueError`` naming ``name`` if it is not."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{name} must be {noun}, got {text!r}") from None


def parse_alpha(text) -> ConstantAlpha | ExponentialAlpha:
    """"N" -> constant schedule; "exp:RATE:CAP" -> exponential schedule."""
    text = str(text).strip()
    if text.startswith("exp:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"alpha schedule {text!r} must be exp:RATE:CAP")
        try:
            return ExponentialAlpha(
                rate=_read_number("alpha rate", float, "a number", parts[1]),
                cap=_read_number("alpha cap", int, "an integer", parts[2]))
        except ValueError as exc:
            raise ValueError(f"bad alpha schedule {text!r}: {exc}") from None
    return ConstantAlpha(_read_number("alpha", int, "an integer or exp:RATE:CAP", text))


def _setting(default=MISSING, *, help: str, name: str | None = None,
             parse: Callable | None = None, ignored_by: str | None = None,
             flag: dict | None = None):
    """A ``Hyperparameters`` field that declares a setting: its ``name``
    (config-file key, flag and stats JSON key) where it is not the field's,
    its flag's ``help``, the ``parse`` of its text (else the text is read
    as the declared type), the method that it is ``ignored_by`` and the
    extra ``add_argument`` keywords of its solve and sweep ``flag``."""
    return field(default=default, metadata={
        "name": name, "help": help, "parse": parse, "ignored_by": ignored_by,
        "flag": flag or {}})


@dataclass(frozen=True)
class Hyperparameters:
    """Everything a batch needs; defaults are the values that work well on
    most mid-size instances.  Invalid values raise ``ValueError``."""

    method: str = _setting(help="qdlqa (annealing, the default) or qdgd",
                           flag={"choices": ["qdlqa", "qdgd"]})
    # read as text by the CLI, where sweep takes a range LO:HI
    num_colors: int = _setting(name="colors", help="number of colors (sweep: LO:HI)",
                               flag={"type": str})
    n_steps: int = _setting(1000, name="steps", help="outer steps / step budget")
    gamma: float = _setting(1.0, help="regularizer weight")
    alpha: ConstantAlpha | ExponentialAlpha = _setting(
        ConstantAlpha(1), help="inner steps per time: N or exp:RATE:CAP",
        parse=parse_alpha, ignored_by="qdgd")
    eta: float = _setting(0.5, help="learning rate")
    f: float = _setting(0.0, help="annealing init angle noise", ignored_by="qdgd")
    h: float = _setting(3.0, help="coupling noise cap")
    n_runs: int = _setting(100, name="runs", help="independent runs per batch")
    patience: int = _setting(100, help="qdgd early stop: steps without improvement",
                             ignored_by="qdlqa")
    fix_strategy: str | int | None = _setting(
        "max_degree", name="fix", help="fixed node: max_degree|degree_one|none|INDEX",
        parse=parse_fix)
    master_seed: int = _setting(0, name="seed", help="master seed")
    include_t_end: bool = _setting(False, ignored_by="qdgd",
                                   help="also optimize at t = 1 (annealing endpoint)")

    def __post_init__(self):
        if self.method not in ("qdlqa", "qdgd"):
            raise ValueError(f"method must be qdlqa or qdgd, got {self.method!r}")
        # an int, float or bool setting is stored as its declared type, so
        # the stats JSON holds it as given
        for name, kind in SETTING_TYPES.items():
            if kind in _ACCEPTS:
                value = _typed(name, kind, getattr(self, name))
                if kind is float and not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value!r}")
                object.__setattr__(self, name, value)
        if self.num_colors < 2:
            raise ValueError("colors must be >= 2")
        if self.n_steps < 1:
            raise ValueError("steps must be >= 1")
        if self.n_runs < 1:
            raise ValueError("runs must be >= 1")
        for name in ("gamma", "h", "f"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.eta <= 0:
            raise ValueError("eta must be > 0")
        if self.method == "qdgd" and self.patience < 1:
            raise ValueError("patience must be >= 1 for qdgd")
        if self.master_seed < 0:
            raise ValueError("seed must be >= 0")
        if not isinstance(self.alpha, (ConstantAlpha, ExponentialAlpha)):
            raise ValueError("alpha must be a ConstantAlpha or ExponentialAlpha "
                             f"schedule, got {self.alpha!r}")
        object.__setattr__(self, "fix_strategy", check_fix(self.fix_strategy))


# Setting name (config-file key, flag and stats JSON key) -> its
# Hyperparameters field, in field order; and field name -> declared type.
SETTINGS = {f.metadata["name"] or f.name: f for f in fields(Hyperparameters)}
SETTING_TYPES = get_type_hints(Hyperparameters)


@dataclass(slots=True)
class RunRecord:
    """Result of one run: the best conflict count seen and its coloring.

    A batch keeps one record per run, so a record is kept small: slots, and
    the coloring in the smallest signed integer type that holds the color
    count (int8 up to 128 colors).
    A run whose angles go non-finite is marked ``diverged`` and stops at the
    end of that stage (for qdgd, one step); that stage's readout is not
    counted.  It keeps the best of its earlier readouts, or ``None`` as
    best and coloring if it had none.  ``wall_time`` is the run's share of
    its group's time: each stage's time is split evenly among the runs in
    the group at that stage, so the shares add up to the group's time.
    A recorded ``trajectory`` holds the run's int64 conflict count at each
    counted readout, row i for stage i, whose t the settings alone give.
    """

    run_index: int
    best_energy: int | None
    best_coloring: np.ndarray | None
    steps_executed: int
    wall_time: float
    trajectory: np.ndarray | None = None
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
    return _run(graph, hp, run_indices, record_trajectory)


def run_qdgd(graph: Graph, hp: Hyperparameters, run_indices: Sequence[int],
             *, record_trajectory: bool = False) -> list[RunRecord]:
    """Direct driver: plain optimizer steps on the end cost (t = 1),
    stopping a run at 0 conflicts or after ``patience`` steps without
    improving its best conflict count.  Returns one record per run index,
    in the order given."""
    if hp.method != "qdgd":
        raise ValueError(f"run_qdgd needs method 'qdgd', got {hp.method!r}")
    return _run(graph, hp, run_indices, record_trajectory)


@dataclass(frozen=True)
class _Schedule:
    """All that the two methods differ in, built by ``_schedule(hp)``: runs
    start at ``init(n_free, c, rngs)``; stage n < ``count`` is
    ``stage(n) -> (t, inner)``, ``inner`` >= 1 Adam steps at time t; a run
    stops after ``patience`` stages without a better best."""

    init: Callable
    count: int
    stage: Callable[[int], tuple[float, int]]
    patience: float


def _schedule(hp: Hyperparameters) -> _Schedule:
    if hp.method == "qdgd":
        return _Schedule(init_qdgd_state, hp.n_steps, lambda n: (1.0, 1),
                         hp.patience)
    count = hp.n_steps + 1 if hp.include_t_end else hp.n_steps

    def stage(n: int) -> tuple[float, int]:
        t = n / hp.n_steps
        return t, hp.alpha.steps_at(t)

    # looked up here when called, so that a patch of the module's name holds
    def init(n_free, c, rngs):
        return init_qdlqa_state(n_free, c, hp.f, rngs)
    return _Schedule(init, count, stage, math.inf)


@dataclass(slots=True)
class _Run:
    """One run of a lockstep group: its generator, its best conflict count
    and coloring so far, the stage of its last improvement, its count at
    each counted readout if its trajectory is recorded, and, once it has
    left, its record.
    Plain Python values: a stage touches each once, which costs less than
    a numpy call when a group holds few runs."""

    index: int
    rng: np.random.Generator
    best: int | None = None
    coloring: np.ndarray | None = None
    improved_at: int = 0
    counts: list = field(default_factory=list)
    record: RunRecord | None = None


# Angles one lockstep group holds at most.  Below this a step is bound by
# numpy's per-call overhead, which a group shares among its runs; above it
# by the per-angle arithmetic, which grouping does not reduce.
GROUP_ANGLES = 10_000


def group_size(num_nodes: int, num_colors: int) -> int:
    """Most runs to step together on V nodes with c colors: a run holds
    V*(c-1) angles, the pinned node's included, and a zero pad per node,
    which this count leaves out."""
    return max(1, GROUP_ANGLES // (num_nodes * (num_colors - 1)))


# Coupling values a group draws ahead at most (1 MiB of float64), and
# that a run draws ahead at most in one call.  At each refill every run of
# a group of k fills its rows for a block of
# max(1, min(ceil(DRAW_PER_RUN / E), DRAW_BUDGET // (k*E))) steps in one
# generator call, which shares the call's overhead among the steps of the
# block: 8 steps for 100 runs on queen5-5, 26 once 31 or fewer are left.
# DRAW_PER_RUN keeps a small group's block small: a lone run on a 3-edge
# graph draws about 4k values, not 1 MiB.  DRAW_BUDGET bounds the buffer a
# group allocates once.
DRAW_BUDGET = 131_072
DRAW_PER_RUN = 4_096


def _block_rows(k: int, num_edges: int) -> int:
    """Steps of couplings each of k runs draws at a refill."""
    per_step = max(1, num_edges)
    return max(1, min(-(-DRAW_PER_RUN // per_step), DRAW_BUDGET // (k * per_step)))


def _run(graph: Graph, hp: Hyperparameters, run_indices: Sequence[int],
         record_trajectory: bool) -> list[RunRecord]:
    """The set-up both drivers share: build the schedule of ``hp``'s
    method, resolve the operators and the pinned node once, split the runs
    into near-equal lockstep groups of at most ``group_size`` runs, and
    step each group in turn through one workspace."""
    # any sequence of integers: a list, a range, an integer array
    run_indices = [operator.index(i) for i in run_indices]
    if not run_indices:
        return []
    schedule = _schedule(hp)
    lx_offdiag = build_ops(hp.num_colors)
    fixed = select_fixed_node(graph, hp.fix_strategy)
    n_groups = -(-len(run_indices) // group_size(graph.num_nodes, hp.num_colors))
    groups = [g.tolist() for g in np.array_split(run_indices, n_groups)]
    workspace = CostWorkspace(graph, lx_offdiag, fixed, copies=len(groups[0]))
    return [record for group in groups
            for record in _run_group(workspace, hp, group, schedule,
                                     record_trajectory)]


def _run_group(workspace: CostWorkspace, hp: Hyperparameters,
               run_indices: list[int], schedule: _Schedule,
               record_trajectory: bool) -> list[RunRecord]:
    """Step one group of runs in lockstep (a group of one is the same loop)
    through the stages of ``schedule``, each built as the loop reaches it:
    its Adam steps, then a readout of the colorings that tracks each run's
    best conflict count.  The readout is the one place where a run leaves
    the group: at 0 conflicts, at the patience stop, after the last stage,
    or, marked as diverged, when any of its angles is non-finite, in which
    case that readout is not counted for it.  Until then a diverged run
    steps on with the others; each run draws its couplings from its own
    generator and keeps its own angles, couplings and Adam moments, and
    every value is reduced over its own run, so no run's numbers depend on
    the group it is in.

    Every per-run array is a stack with the run as its first axis: the
    padded angles (k, V, c), Adam's two moments and the four ``Forward``
    arrays; one ``keep`` selects the staying runs of each, of ``slots`` and the
    run list.  The angles are mapped to amplitudes once per step: the
    forward map taken after an Adam step serves both the stage's readout
    and the next step's cost.  The couplings are drawn a block of steps
    ahead into one buffer that the group allocates once.  At each refill
    the runs still in the group are packed into its first k slots, a
    (k, rows, E) block, and each run fills its rows from its own generator
    in one call, which takes the generator through the same stream as one
    draw per step.  A run's last block may run past its last step; its
    unused rows are never read, and its generator is dropped when it
    leaves.  The runs step in lockstep, so one cursor serves them all: a
    step takes the view ``block[:, cursor]``, or, after a run has left in
    mid-block, the survivors' rows ``block[slots, cursor]``, so that a
    leave copies no couplings.  The angles hold a row for every node; the
    pinned node's row is inserted as zeros into each run's start angles and
    stays there, since its gradient is 0.  A recorded trajectory is a
    run's count at each counted readout.
    """
    mark = time.perf_counter()
    share = 0.0  # wall time attributed to every run still in the group
    graph, fixed = workspace.graph, workspace.fixed_node
    num_edges = graph.num_edges
    runs = members = [_Run(i, run_rng(hp.master_seed, i)) for i in run_indices]
    n_free = graph.num_nodes - (fixed is not None)
    angles = schedule.init(n_free, hp.num_colors, [run.rng for run in runs])
    if fixed is not None:
        angles = np.insert(angles, fixed, 0.0, axis=1)
    adam = Adam(angles.shape, hp.eta)
    # the couplings ahead, with room for the largest block of any refill:
    # one step of every run, or at most DRAW_BUDGET values and at most a
    # lone run's rows per run
    step = len(runs) * num_edges
    buffer = np.empty(max(step, min(step * _block_rows(1, num_edges), DRAW_BUDGET)))
    slots, cursor, rows = None, 0, 0
    color_type = np.min_scalar_type(-hp.num_colors)
    # a diverging run overflows in Adam and then maps NaN angles; it is
    # reported by the diverged flag, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        fwd = forward(angles)
        for n, (t, inner) in enumerate(map(schedule.stage, range(schedule.count))):
            for _ in range(inner):
                if cursor == rows:  # the block is used up: draw the next
                    k = len(runs)
                    rows = _block_rows(k, num_edges)
                    block = buffer[:k * rows * num_edges].reshape(k, rows, num_edges)
                    draw_couplings(graph, hp.h, [run.rng for run in runs], block)
                    slots, cursor = None, 0
                couplings = block[:, cursor] if slots is None else block[slots, cursor]
                cursor += 1
                gphi = workspace.value_and_grad(fwd, t, hp.gamma, couplings)
                adam.step(angles, gphi)
                fwd = forward(angles)
            finite = np.isfinite(angles).all(axis=(1, 2)).tolist()
            colors = workspace.coloring(fwd)
            counts = potts_energy(graph, colors)
            start, mark = mark, time.perf_counter()
            share += (mark - start) / len(runs)
            keep = []
            for j, run in enumerate(runs):
                if finite[j]:
                    if run.best is None or counts[j] < run.best:
                        run.best, run.improved_at = counts[j], n
                        run.coloring = colors[j].astype(color_type)
                    if record_trajectory:
                        run.counts.append(counts[j])
                    if (run.best > 0 and n + 1 < schedule.count
                            and n - run.improved_at < schedule.patience):
                        keep.append(j)
                        continue
                run.record = RunRecord(
                    run_index=run.index, best_energy=run.best, best_coloring=run.coloring,
                    steps_executed=adam.step_count, wall_time=share, diverged=not finite[j],
                    trajectory=np.array(run.counts, dtype=np.int64)
                    if record_trajectory else None)
            if len(keep) == len(runs):
                continue
            if not keep:
                break
            runs, keep = [runs[j] for j in keep], np.array(keep)
            slots = keep if slots is None else slots[keep]
            angles, adam.first_moment, adam.second_moment = (
                a[keep] for a in (angles, adam.first_moment, adam.second_moment))
            fwd = Forward._make(a[keep] for a in fwd)
    return [run.record for run in members]


def run_one(graph: Graph, hp: Hyperparameters, run_indices: Sequence[int], *,
            record_trajectory: bool = False) -> list[RunRecord]:
    """Dispatch runs by method."""
    runner = run_qdlqa if hp.method == "qdlqa" else run_qdgd
    return runner(graph, hp, run_indices, record_trajectory=record_trajectory)
