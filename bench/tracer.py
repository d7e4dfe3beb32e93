"""Outside-in span tracing of the quditcolor layers.

The tracer replaces public functions and methods with wrappers that record
one span per call, under the name the caller looks them up by, and puts
the originals back on exit.  Spans live in memory as flat integer arrays
(name id, start, end, self time in ns); a layer's self time is its span's
duration minus the durations of the spans it directly encloses.  Spans
recorded in forked pool workers stay in those workers and are lost.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


def patch_points(qc) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every call boundary to trace."""
    g, s, h = qc.graph, qc.solver, qc.harness
    return [
        (g, "load_graph", "graph.load_graph"),
        (s, "select_fixed_node", "graph.select_fixed_node"),
        (h, "select_fixed_node", "graph.select_fixed_node"),
        (s, "build_ops", "qudits.build_ops"),
        (h, "build_ops", "qudits.build_ops"),
        (s, "init_qdlqa_state", "qudits.init_state"),
        (s, "init_qdgd_state", "qudits.init_state"),
        (s, "draw_couplings", "energy.draw_couplings"),
        (s, "potts_energy", "energy.potts_energy"),
        (qc.gradient.CostWorkspace, "__init__", "gradient.workspace_build"),
        (qc.gradient.CostWorkspace, "value_and_grad", "gradient.value_and_grad"),
        (qc.gradient.CostWorkspace, "coloring", "gradient.coloring"),
        (qc.optimizer.Adam, "__init__", "optimizer.adam_init"),
        (qc.optimizer.Adam, "step", "optimizer.adam_step"),
        (s, "run_qdlqa", "solver.run"),
        (s, "run_qdgd", "solver.run"),
        (h, "run_batch", "harness.run_batch"),
        (h, "stats_to_dict", "harness.stats_to_dict"),
    ]


class Tracer:
    """Context manager that records spans while the patches are in place."""

    def __init__(self, points):
        self.points = points
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_self = array("q")
        self._stack: list[list[int]] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, original, name: str):
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        clock = time.perf_counter_ns
        add_name, add_start = self.span_name.append, self.span_start.append
        add_end, add_self = self.span_end.append, self.span_self.append

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = [clock(), 0]
            stack.append(frame)
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                add_name(nid)
                add_start(frame[0])
                add_end(end)
                add_self(duration - frame[1])

        return traced

    def __enter__(self):
        for owner, attr, name in self.points:
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self.assert_restored()
        return False

    def assert_restored(self) -> None:
        """Every patched attribute must be the original object again."""
        for owner, attr, original in self._originals:
            if vars(owner)[attr] is not original:
                raise AssertionError(f"{owner!r}.{attr} was not restored")

    def spans(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.span_name, dtype=np.int64),
                "start": np.frombuffer(self.span_start, dtype=np.int64),
                "end": np.frombuffer(self.span_end, dtype=np.int64),
                "self": np.frombuffer(self.span_self, dtype=np.int64)}

    def select(self, name: str, since: int = 0) -> dict[str, np.ndarray]:
        """Spans of one name recorded at or after span index ``since``."""
        sp = self.spans()
        nid = self.name_ids.get(name, -1)
        mask = sp["name"][since:] == nid
        return {k: v[since:][mask] for k, v in sp.items()}

    def check_run_additivity(self, since: int = 0) -> int:
        """Check that, for every run span, the self times of the spans inside
        it add up to its duration; returns the number of runs checked."""
        sp = {k: v[since:] for k, v in self.spans().items()}
        order = np.argsort(sp["start"], kind="stable")
        start, end, own = sp["start"][order], sp["end"][order], sp["self"][order]
        cum = np.concatenate([[0], np.cumsum(own)])
        runs = self.select("solver.run", since)
        for rs, re in zip(runs["start"].tolist(), runs["end"].tolist()):
            lo = int(np.searchsorted(start, rs, side="left"))
            hi = int(np.searchsorted(start, re, side="right"))
            if np.any(end[lo:hi] > re):
                raise AssertionError("span crosses the end of its run span")
            if int(cum[hi] - cum[lo]) != re - rs:
                raise AssertionError("layer self times do not add up to the run span")
        return len(runs["start"])

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())
