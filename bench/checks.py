"""Output checks that do not rely on the program's own energy code, and the
golden record of per-run results at the default seed."""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def step_budget(hp) -> int:
    """Most optimizer steps a run may take under ``hp``."""
    if hp.method == "qdgd":
        return hp.n_steps
    outer = hp.n_steps + 1 if hp.include_t_end else hp.n_steps
    return outer * hp.alpha.steps


def check_record(record, edges: list[tuple[int, int]], num_colors: int,
                 fixed_node: int | None, budget: int) -> str | None:
    """Why a run's output is wrong, or None when it passes.

    The conflict count is recounted here from the edge list rather than
    taken from ``potts_energy``.
    """
    colors = record.best_coloring
    if colors is None:
        return "no coloring recorded"
    colors = colors.tolist()
    if any(not 0 <= col < num_colors for col in colors):
        return f"color outside [0, {num_colors})"
    if fixed_node is not None and colors[fixed_node] != 0:
        return f"pinned node {fixed_node} has color {colors[fixed_node]}"
    conflicts = sum(1 for u, v in edges if colors[u] == colors[v])
    if conflicts != record.best_energy:
        return f"best_energy {record.best_energy} but {conflicts} conflicts"
    if not 1 <= record.steps_executed <= budget:
        return f"{record.steps_executed} steps outside [1, {budget}]"
    return None


def run_results(stats_dict: dict) -> list[list[int]]:
    """[run_index, best, steps] per run, as ``stats_to_dict`` reports them."""
    return [[seed[1], run["best"], run["steps"]]
            for run in stats_dict["per_run"] for seed in [run["seed"]]]


def load_golden() -> dict:
    if not GOLDEN_PATH.is_file():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


def write_golden(results: dict[str, list[list[list[int]]]]) -> None:
    """One line per workload: per batch, [run_index, best, steps] per run."""
    lines = ",\n".join(f'  "{name}": {json.dumps(rows, separators=(",", ":"))}'
                       for name, rows in results.items())
    GOLDEN_PATH.write_text("{\n" + lines + "\n}\n")
