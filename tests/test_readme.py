"""The README's Python examples run as written."""

import re
from pathlib import Path

import numpy as np

from quditcolor.energy import draw_couplings
from quditcolor.gradient import CostWorkspace
from quditcolor.graph import select_fixed_node
from quditcolor.qudits import build_ops, init_qdlqa_state

from instances import queen_col_text, queen_graph

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    """The API example and the kernel example, in that order."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 2
    return blocks


def test_api_example_runs_a_batch(tmp_path, monkeypatch):
    (tmp_path / "queen5-5.col").write_text(queen_col_text(5, 5))
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(python_blocks()[0], scope)
    assert scope["stats"].best_overall == 0
    assert len(scope["stats"].records) == 10


def test_kernel_example_takes_one_step():
    # two runs of queen5-5 at c = 5 with the max-degree node pinned
    graph, c = queen_graph(5, 5), 5
    fixed = select_fixed_node(graph, "max_degree")
    rngs = [np.random.default_rng(i) for i in range(2)]
    angles = np.insert(init_qdlqa_state(graph.num_nodes - 1, c, 0.1, rngs),
                       fixed, 0.0, axis=1)
    scope = dict(angles=angles,
                 workspace=CostWorkspace(graph, build_ops(c), fixed, copies=2),
                 t=0.4, gamma=1.0,
                 hvals=np.stack([draw_couplings(graph, 3.0, rng) for rng in rngs]))
    exec(python_blocks()[1], scope)
    assert isinstance(scope["grad"], np.ndarray)
    assert scope["grad"].shape == angles.shape
    assert (scope["grad"][:, fixed] == 0.0).all()
    assert scope["colors"].shape == (2, graph.num_nodes)
