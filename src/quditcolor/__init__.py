"""Graph coloring with qudit product states.

Nodes become c-dimensional unit vectors parameterized by spherical angles;
two drivers minimize the conflict-based cost: an annealed interpolation
from a trivially minimized start cost (qdlqa) and direct gradient descent
(qdgd).
"""

from .energy import (CostParams, energy_final, energy_initial, energy_total,
                     energy_weight, extract_coloring, potts_energy)
from .gradient import CostWorkspace, check_gradient
from .graph import (Graph, GraphParseError, GraphWarning, load_graph,
                    parse_dimacs, parse_edge_list, select_fixed_node, to_dimacs)
from .harness import (BatchStats, SweepResult, WorkerError, run_batch,
                      sweep_colors, trajectory_stats)
from .optimizer import Adam
from .qudits import (AngularMomentumOps, amplitudes_to_angles, build_ops,
                     init_qdgd_state, init_qdlqa_state, lx_ground_state)
from .solver import (ConstantAlpha, ExponentialAlpha, Hyperparameters,
                     RunRecord, alpha_at, run_qdgd, run_qdlqa)

__version__ = "0.1.0"

__all__ = [
    "Adam", "AngularMomentumOps", "BatchStats", "ConstantAlpha", "CostParams",
    "CostWorkspace", "ExponentialAlpha", "Graph", "GraphParseError",
    "GraphWarning", "Hyperparameters", "RunRecord", "SweepResult", "alpha_at",
    "amplitudes_to_angles", "build_ops", "check_gradient", "energy_final",
    "energy_initial", "energy_total", "energy_weight", "extract_coloring",
    "init_qdgd_state", "init_qdlqa_state", "load_graph", "lx_ground_state",
    "parse_dimacs", "parse_edge_list", "potts_energy", "run_batch", "run_qdgd",
    "run_qdlqa", "select_fixed_node", "sweep_colors", "to_dimacs",
    "trajectory_stats", "WorkerError",
]
