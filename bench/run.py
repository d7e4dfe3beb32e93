"""quditcolor benchmark: seeded solve workloads through the public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-golden

Each invocation generates the workload's instance from ``--seed``, then
repeats ``harness.run_batch`` + ``harness.stats_to_dict`` on the same batch
for about ``--seconds``, timing set-up (``graph.load_graph`` plus one
workspace build) and a reference kernel between the batches.  Timings are
medians over the repeats, scaled to nominal machine speed by the reference
kernel (see reference.py).  Every run's output is checked, repeats must
agree exactly, and at the default seed the per-run results must match
``golden.json``.  With ``--trace 1`` half the time goes to an untraced pass
and half to a traced one, and the per-layer metrics are reported instead of
the end-to-end ones.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads: pool workers inherit this, so no
# more threads run than the workers themselves.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
import reference  # noqa: E402
from tracer import Tracer, patch_points  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUPS_PER_BATCH = 3
REFERENCE_UNITS = 2

END_TO_END_UNITS = {
    "steps_per_s": "1/s", "runs_per_s": "1/s", "run_ms_p50": "ms",
    "run_ms_p90": "ms", "tts99_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "gradient.value_and_grad_us": "us",
    "gradient.value_and_grad_ns_per_angle": "ns",
    "gradient.value_and_grad_calls": "count",
    "gradient.coloring_us": "us",
    "gradient.workspace_build_ms": "ms",
    "energy.draw_couplings_us": "us",
    "energy.potts_energy_us": "us",
    "optimizer.adam_step_us": "us",
    "qudits.init_state_us": "us",
    "qudits.build_ops_us": "us",
    "graph.load_graph_ms": "ms",
    "solver.self_us_per_step": "us",
    "solver.run_setup_us": "us",
    "solver.steps_per_run": "count",
    "solver.p_min": "ratio",
    "solver.mean_best": "count",
    "harness.pool_overhead_ms": "ms",
    "harness.worker_imbalance": "ratio",
    "harness.serial_overhead_ms": "ms",
    "harness.stats_to_dict_ms": "ms",
    "trace.overhead_pct": "%",
}


def import_program():
    """Import quditcolor from this checkout's sources, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "quditcolor" / "__init__.py").is_file():
        sys.exit(f"error: quditcolor sources not found under {src}")
    sys.path.insert(0, str(src))
    import quditcolor
    import quditcolor.harness  # noqa: F401  (submodules the tracer patches)
    if Path(quditcolor.__file__).resolve().parent != src / "quditcolor":
        sys.exit(f"error: imported quditcolor from {quditcolor.__file__}, not {src}")
    return quditcolor


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, master_seeds: list[int], workers: int) -> dict:
    import scipy
    return {
        "cpu": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": git_commit(), "seed": seed, "master_seeds": master_seeds,
        "workers": workers,
    }


@dataclass
class Rep:
    """One timed run_batch call, with the reference units timed just before
    and just after it and the set-ups timed just before it."""

    stats: object
    batch_s: float
    dict_s: float
    ref_s: list[float]
    setup_s: list[float]

    @property
    def scale(self) -> float:
        return reference.scale(self.ref_s)

    @property
    def steps(self) -> int:
        return sum(r.steps_executed for r in self.stats.records)

    def worker_loads(self, workers: int) -> list[float]:
        """Summed run wall time per worker; run i goes to worker i mod workers."""
        loads = [0.0] * workers
        for r in self.stats.records:
            loads[r.run_index % workers] += r.wall_time
        return loads


@dataclass
class Pass:
    """Rounds over the workload's batches, each batch timed with its own
    reference samples."""

    workers: int
    rounds: list[list[Rep]] = field(default_factory=list)

    @property
    def reps(self) -> list[Rep]:
        return [rep for rnd in self.rounds for rep in rnd]

    @property
    def scale(self) -> float:
        return statistics.median(rep.scale for rep in self.reps)

    @property
    def steps(self) -> int:
        return sum(rep.steps for rep in self.rounds[0])

    @property
    def runs(self) -> int:
        return sum(len(rep.stats.records) for rep in self.rounds[0])

    def _by_batch(self):
        return zip(*self.rounds)

    def round_s(self) -> float:
        """Summed run_batch wall time of one round, each batch at its median
        over the rounds and at nominal speed."""
        return sum(statistics.median(rep.batch_s * rep.scale for rep in reps)
                   for reps in self._by_batch())

    def run_walls(self) -> np.ndarray:
        """Each run's median wall time over the rounds, at nominal speed."""
        return np.concatenate([
            np.median([[r.wall_time * rep.scale for r in rep.stats.records]
                       for rep in reps], axis=0)
            for reps in self._by_batch()])

    def setup_s(self) -> list[float]:
        """Set-up times at nominal speed, each scaled like its batch."""
        return [t * rep.scale for rep in self.reps for t in rep.setup_s]

    def bests(self) -> list[int]:
        return [r.best_energy for rep in self.rounds[0] for r in rep.stats.records]


class Checker:
    """Checks every run's output; counts attempted and failed runs."""

    def __init__(self, graph, fixed_node):
        self.edges = [tuple(e) for e in graph.edges.tolist()]
        self.fixed_node = fixed_node
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.results: dict[int, list] = {}

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def batch(self, hp, stats, index: int | None = None, results=None) -> None:
        """Check each run; every call for the same batch ``index`` must
        give the same per-run results."""
        budget = checks.step_budget(hp)
        for record in stats.records:
            self.attempted += 1
            why = checks.check_record(record, self.edges, hp.num_colors,
                                      self.fixed_node, budget)
            if why is not None:
                self.failed += 1
                self.problem(f"run {record.run_index}: {why}")
        if index is not None:
            first = self.results.setdefault(index, results)
            if results != first:
                self.problem(f"batch {index}: per-run (best, steps) differ between calls")

    def crashed(self, n_runs: int, exc: BaseException) -> None:
        self.attempted += n_runs
        self.failed += n_runs
        self.problem(f"batch raised {exc!r}")


def setup_sampler(qc, path, hp):
    """A function timing ``k`` rounds of load_graph plus one workspace build."""
    def setup():
        graph, _ = qc.graph.load_graph(path)
        ops = qc.qudits.build_ops(hp.num_colors)
        fixed = qc.graph.select_fixed_node(graph, hp.fix_strategy)
        qc.gradient.CostWorkspace(graph, ops, fixed)

    def sample(k: int) -> list[float]:
        times = []
        for _ in range(k):
            a = time.perf_counter()
            setup()
            times.append(time.perf_counter() - a)
        return times

    return sample


def timed_pass(qc, graph, hps, workers: int, budget_s: float, checker: Checker,
               ref: reference.Reference, setup=None) -> Pass:
    """Run rounds over the batches ``hps`` while another round still fits
    in ``budget_s`` (at least one).

    Reference units, and set-ups when ``setup`` is given, are timed before
    every batch and the reference once more at the end; each batch and its
    set-ups are scaled by the reference units on both sides of the batch.
    """
    timed = Pass(workers)
    t0 = time.perf_counter()
    before = ref.sample(REFERENCE_UNITS, workers)
    while True:
        start = time.perf_counter()
        rnd: list[Rep] = []
        for index, hp in enumerate(hps):
            setup_s = setup(SETUPS_PER_BATCH) if setup is not None else []
            a = time.perf_counter()
            try:
                stats = qc.harness.run_batch(graph, hp, workers=workers)
            except Exception as exc:  # a crashing batch is a failed result
                checker.crashed(hp.n_runs, exc)
                return timed
            b = time.perf_counter()
            payload = qc.harness.stats_to_dict(stats, graph, hp)
            c = time.perf_counter()
            checker.batch(hp, stats, index, checks.run_results(payload))
            after = ref.sample(REFERENCE_UNITS, workers)
            rnd.append(Rep(stats, b - a, c - b, before + after, setup_s))
            before = after
        timed.rounds.append(rnd)
        now = time.perf_counter()
        if now - t0 + (now - start) > budget_s:
            return timed


def tts99(bests, walls, target: int) -> float:
    """Mean run wall time times the repeats needed for 99% success."""
    p0 = sum(b <= target for b in bests) / len(bests)
    if p0 == 0:
        print(f"warning: no run reached {target} conflicts; tts99_s assumes "
              f"1 success in {len(bests)}")
        p0 = 1.0 / len(bests)
    repeats = 1.0 if p0 >= 1 else max(1.0, math.log(0.01) / math.log(1 - p0))
    return float(np.mean(walls)) * repeats


def end_to_end(timed: Pass, workload) -> tuple[dict, dict]:
    walls = timed.run_walls()
    round_s = timed.round_s()
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    values = {
        "steps_per_s": timed.steps / round_s,
        "runs_per_s": timed.runs / round_s,
        "run_ms_p50": float(np.percentile(walls, 50)) * 1e3,
        "run_ms_p90": float(np.percentile(walls, 90)) * 1e3,
        "tts99_s": tts99(timed.bests(), walls, workload.target),
        "setup_s": statistics.median(timed.setup_s()),
        "peak_rss_mb": usage / 1024.0,
    }
    samples = {"rounds": len(timed.rounds), "batches_per_round": len(timed.rounds[0]),
               "runs_per_round": timed.runs, "setups": len(timed.setup_s()),
               "scale": timed.scale}
    return values, samples


def per_layer(qc, tracer, inner_since, untraced: Pass, traced: Pass, inner: Pass,
              graph, hp) -> tuple[dict, dict]:
    """Per-layer numbers from the traced pass; harness numbers from the
    untraced batches, which the parent process times itself."""
    scale = inner.scale

    def us(name, since=inner_since):
        return float(np.median(tracer.select(name, since)["self"])) / 1e3 * scale

    fixed = qc.graph.select_fixed_node(graph, hp.fix_strategy)
    n_angles = (graph.num_nodes - (fixed is not None)) * (hp.num_colors - 1)
    vg = tracer.select("gradient.value_and_grad", inner_since)
    runs = tracer.select("solver.run", inner_since)
    first_vg = np.searchsorted(vg["start"], runs["start"])
    serial = untraced if untraced.workers == 1 else inner
    reps = untraced.reps
    bests = untraced.bests()
    loads = [rep.worker_loads(untraced.workers) for rep in reps]
    values = {
        "gradient.value_and_grad_us": us("gradient.value_and_grad"),
        "gradient.value_and_grad_ns_per_angle": us("gradient.value_and_grad") * 1e3 / n_angles,
        "gradient.value_and_grad_calls": len(vg["self"]) // len(inner.rounds),
        "gradient.coloring_us": us("gradient.coloring"),
        "gradient.workspace_build_ms": us("gradient.workspace_build", 0) / 1e3,
        "energy.draw_couplings_us": us("energy.draw_couplings"),
        "energy.potts_energy_us": us("energy.potts_energy"),
        "optimizer.adam_step_us": us("optimizer.adam_step"),
        "qudits.init_state_us": us("qudits.init_state"),
        "qudits.build_ops_us": us("qudits.build_ops"),
        "graph.load_graph_ms": us("graph.load_graph", 0) / 1e3,
        "solver.self_us_per_step": float(runs["self"].sum()) / 1e3 * scale
        / (inner.steps * len(inner.rounds)),
        "solver.run_setup_us": float(np.median(vg["start"][first_vg] - runs["start"]))
        / 1e3 * scale,
        "solver.steps_per_run": untraced.steps / untraced.runs,
        "solver.p_min": bests.count(min(bests)) / len(bests),
        "solver.mean_best": statistics.fmean(bests),
        "harness.pool_overhead_ms": statistics.median(
            (rep.batch_s - max(ld)) * rep.scale for rep, ld in zip(reps, loads)) * 1e3,
        "harness.worker_imbalance": statistics.median(
            max(ld) / statistics.fmean(ld) for ld in loads),
        "harness.serial_overhead_ms": statistics.median(
            (rep.batch_s - sum(r.wall_time for r in rep.stats.records)) * rep.scale
            for rep in serial.reps) * 1e3,
        "harness.stats_to_dict_ms": statistics.median(
            rep.dict_s * rep.scale for rep in reps) * 1e3,
        "trace.overhead_pct": (traced.round_s() / untraced.round_s() - 1.0) * 100.0,
    }
    samples = {"untraced_rounds": len(untraced.rounds), "traced_rounds": len(traced.rounds),
               "inner_rounds": len(inner.rounds), "inner_workers": inner.workers,
               "value_and_grad_spans": len(vg["self"]), "scale": scale}
    return values, samples


def traced_pass(qc, graph, hps, workers, budget, checker, ref, setup):
    """Run the traced rounds; returns (tracer, traced pass, inner pass,
    index of the first inner-layer span)."""
    with Tracer(patch_points(qc)) as tracer:
        setup(2 * SETUPS_PER_BATCH)
        since = len(tracer.span_name)
        traced = timed_pass(qc, graph, hps, workers,
                            budget if workers == 1 else budget / 2, checker, ref)
        inner = traced
        if workers > 1:
            # spans recorded in forked workers are lost: take the inner
            # layers from a workers=1 round over the first quarter of the
            # batches, which also checks them against the pooled results
            since = len(tracer.span_name)
            inner_hps = hps[:max(1, len(hps) // 4)]
            inner = timed_pass(qc, graph, inner_hps, 1, 0.0, checker, ref)
            print(f"trace: inner-layer metrics come from a workers=1 traced round over "
                  f"{len(inner_hps)} of {len(hps)} batches; harness metrics from the "
                  f"untraced workers={workers} batches")
    try:
        runs_checked = tracer.check_run_additivity(since)
        print(f"trace: self times add up to the run span for {runs_checked} runs; "
              f"{len(tracer.points)} patched attributes restored")
    except AssertionError as exc:
        checker.problem(f"trace: {exc}")
    return tracer, traced, inner, since


def run_workload(args, qc) -> int:
    workload = workloads.WORKLOADS[args.workload]
    if args.toy:
        workload = workloads.toy(workload)
    path = workload.write_instance(args.seed, OUT_DIR / "instances")
    hps = [qc.solver.Hyperparameters(**workload.hp, master_seed=seed)
           for seed in workload.master_seeds(args.seed)]
    hp = hps[0]
    workers = min(workload.workers, len(os.sched_getaffinity(0)))
    env = environment(args.seed, [h.master_seed for h in hps], workers)
    print("env: " + json.dumps(env))

    setup = setup_sampler(qc, path, hp)
    setup(1)  # first-call costs are not part of set-up
    graph, _ = qc.graph.load_graph(path)
    checker = Checker(graph, qc.graph.select_fixed_node(graph, hp.fix_strategy))
    print(f"workload {workload.name}: {graph.num_nodes} nodes, {graph.num_edges} edges, "
          f"{hp.method} c={hp.num_colors}, {len(hps)} batches of {hp.n_runs} runs, "
          f"workers={workers}")

    # warm-up: one short run primes lazy imports and first-call costs
    warm_hp = replace(hp, n_runs=1, n_steps=min(hp.n_steps, 20))
    checker.batch(warm_hp, qc.harness.run_batch(graph, warm_hp, workers=1))
    ref = reference.Reference(graph.num_nodes, hp.num_colors, graph.num_edges)
    ref.sample(REFERENCE_UNITS, workers)

    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = timed_pass(qc, graph, hps, workers, budget, checker, ref,
                          setup=None if args.trace else setup)
    if not untraced.rounds:
        print("error: " + "; ".join(checker.problems), file=sys.stderr)
        return 1

    if args.trace:
        tracer, traced, inner, since = traced_pass(qc, graph, hps, workers, budget,
                                                   checker, ref, setup)
        tracer.save(OUT_DIR / f"trace-{workload.name}.npz")
        values, samples = per_layer(qc, tracer, since, untraced, traced, inner, graph, hp)
        units = PER_LAYER_UNITS
    else:
        values, samples = end_to_end(untraced, workload)
        units = END_TO_END_UNITS

    golden = golden_status(args, workload, checker)
    print(f"golden {workload.name}: {golden}")
    print(f"samples: {json.dumps(samples)}")
    print(f"timings are at nominal speed (median scale {samples['scale']:.4f} "
          "from measured time)")
    for name, value in values.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"runs attempted {checker.attempted}, failed {checker.failed} "
          f"(fail_rate {checker.failed / checker.attempted:.4g})")
    for problem in checker.problems:
        print(f"problem: {problem}")

    correct = checker.failed == 0 and not checker.problems
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    result = {"correct": correct, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    record = {**result, "workload": workload.name, "trace": args.trace, "env": env,
              "samples": samples, "golden": golden, "problems": checker.problems}
    (OUT_DIR / f"result-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def golden_status(args, workload, checker) -> str:
    """Compare this run's per-run results with the golden record."""
    if args.toy or args.seed != workloads.DEFAULT_SEED:
        return f"not checked (seed {args.seed}{', toy' if args.toy else ''})"
    got = [checker.results.get(b) for b in range(workload.batches)]
    if got != checks.load_golden().get(workload.name):
        checker.problem("per-run (best, steps) differ from golden.json")
        return "mismatch"
    return "match"


def write_golden(qc) -> int:
    """Record per-run (run_index, best, steps) of every batch of every
    workload at the default seed, always with one worker."""
    results = {}
    for workload in workloads.WORKLOADS.values():
        path = workload.write_instance(workloads.DEFAULT_SEED, OUT_DIR / "instances")
        graph, _ = qc.graph.load_graph(path)
        results[workload.name] = []
        for seed in workload.master_seeds(workloads.DEFAULT_SEED):
            hp = qc.solver.Hyperparameters(**workload.hp, master_seed=seed)
            stats = qc.harness.run_batch(graph, hp, workers=1)
            results[workload.name].append(
                checks.run_results(qc.harness.stats_to_dict(stats, graph, hp)))
        print(f"{workload.name}: {workload.batches} batches recorded")
    checks.write_golden(results)
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny batches for the smoke test")
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate golden.json at the default seed")
    args = parser.parse_args(argv)
    if not args.write_golden and args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    qc = import_program()
    return write_golden(qc) if args.write_golden else run_workload(args, qc)


if __name__ == "__main__":
    sys.exit(main())
