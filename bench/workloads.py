"""Seeded instance generators and the workload table of the benchmark.

Every workload is a closed loop: one batch at a time from one process.
The instance file and the master seed both derive from the ``--seed``
argument; the program under test sees only the file and the
``Hyperparameters``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0


def queen_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    """Squares sharing a row, column or diagonal, as 0-based pairs."""
    edges = []
    for a in range(rows * cols):
        ra, ca = divmod(a, cols)
        for b in range(a + 1, rows * cols):
            rb, cb = divmod(b, cols)
            if ra == rb or ca == cb or abs(ra - rb) == abs(ca - cb):
                edges.append((a, b))
    return edges


def erdos_renyi_edges(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """G(n, p) with every isolated node chained to its successor."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < p
    edges = list(zip(iu[keep].tolist(), ju[keep].tolist()))
    degree = np.bincount(np.concatenate([iu[keep], ju[keep]]), minlength=n)
    for i in np.flatnonzero(degree == 0).tolist():
        j = (i + 1) % n
        edges.append((min(i, j), max(i, j)))
    return edges


def dimacs_text(num_nodes: int, edges, name: str) -> str:
    lines = [f"c {name}", f"p edge {num_nodes} {len(edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


def snap_text(num_nodes: int, edges, name: str) -> str:
    lines = [f"# {name}", f"# Nodes: {num_nodes} Edges: {len(edges)}",
             "# FromNodeId\tToNodeId"]
    lines += [f"{u}\t{v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def derived_seed(seed: int, *key: int) -> int:
    """A 32-bit seed determined by the workload seed and a fixed key."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


@dataclass(frozen=True)
class Workload:
    """One named benchmark input: an instance recipe plus solver settings.

    One round of the workload is ``batches`` calls of ``run_batch``, one
    after the other, each with its own master seed derived from the
    workload seed; ``hp`` holds everything but that master seed.
    ``target`` is the conflict count a run must reach to count as solved
    in ``tts99_s``.
    """

    name: str
    key: int
    instance: str  # "queen:R:C" or "er:N:P"
    hp: dict
    batches: int
    workers: int
    target: int
    why: str

    def instance_text(self, seed: int) -> tuple[str, str]:
        """(file suffix, file text) of this workload's instance at ``seed``."""
        kind, *args = self.instance.split(":")
        if kind == "queen":
            rows, cols = int(args[0]), int(args[1])
            return ".col", dimacs_text(rows * cols, queen_edges(rows, cols),
                                       f"queen{rows}-{cols}")
        if kind == "er":
            n, p = int(args[0]), float(args[1])
            edges = erdos_renyi_edges(n, p, derived_seed(seed, self.key, 1))
            return ".txt", snap_text(n, edges, f"G({n}, {p}) seed {seed}")
        raise ValueError(f"unknown instance recipe {self.instance!r}")

    def write_instance(self, seed: int, directory: Path) -> Path:
        suffix, text = self.instance_text(seed)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.name}{suffix}"
        path.write_text(text)
        return path

    def master_seeds(self, seed: int) -> list[int]:
        return [derived_seed(seed, self.key, 2, b) for b in range(self.batches)]


WORKLOADS = {w.name: w for w in [
    Workload(
        "anneal-queen11", 1, "queen:11:11",
        dict(method="qdlqa", num_colors=11, n_steps=1000, f=0.1, n_runs=2),
        batches=3, workers=1, target=22,
        why="wide c=11 qdlqa, no run reaches 0 so every run takes all 1000 "
            "steps: pure per-step cost of the fused kernel and readout"),
    Workload(
        "anneal-queen5", 2, "queen:5:5",
        dict(method="qdlqa", num_colors=5, n_runs=10),
        batches=6, workers=1, target=0,
        why="tiny 24x4 angle arrays, every run solves in ~400 steps: "
            "per-call overhead of driver, Adam, draw and Potts count"),
    Workload(
        "descent-sparse", 3, "er:1000:0.032",
        dict(method="qdgd", num_colors=8, n_steps=500, eta=0.1, gamma=0.5,
             patience=500, n_runs=1),
        batches=6, workers=1, target=260,
        why="email-Eu-core-sized random graph (1000 nodes, ~16k edges): "
            "volume-bound per-edge and per-angle work, non-trivial parse"),
    Workload(
        "descent-queen5-2w", 4, "queen:5:5",
        dict(method="qdgd", num_colors=5, n_runs=200),
        batches=16, workers=2, target=0,
        why="short uneven qdgd runs on 2 workers: per-run set-up and the "
            "harness process pool carry real weight only here"),
]}

# Toy sizes for the smoke test: same code paths, seconds not minutes.
TOY = {
    "anneal-queen11": dict(n_steps=20),
    "anneal-queen5": dict(n_steps=60, n_runs=4),
    "descent-sparse": dict(n_steps=40, patience=10),
    "descent-queen5-2w": dict(n_steps=60, n_runs=8),
}
TOY_INSTANCE = {"descent-sparse": "er:80:0.1"}


def toy(workload: Workload) -> Workload:
    return replace(workload,
                   instance=TOY_INSTANCE.get(workload.name, workload.instance),
                   hp={**workload.hp, **TOY[workload.name]}, batches=2)
