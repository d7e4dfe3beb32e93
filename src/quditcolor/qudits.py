"""Per-node qudit states: hyperspherical angles and their spherical map to
amplitudes, the angular-momentum operator Lx, and the initial-state
constructions for both solution strategies.

Each node carries a real unit vector of length c (one component per color),
parameterized by c-1 unconstrained angles.  Basis ordering is by ascending
eigenvalue m of the z angular-momentum matrix; color index = m + (c-1)/2.

Every angle array has c columns per node: the c-1 angles and a pad held at
exactly 0.  Its sine is 0 and its cosine 1, so color j's amplitude is
psi_j = cos(phi_j) * prod_{i<j} sin(phi_i) for every j, the last included,
and each per-step array operation covers a whole contiguous array.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# A vanishing prefix sine product makes the remaining angles unidentifiable;
# below this threshold they are set to 0 in the inverse transform.
_DEGENERATE_TAIL = 1e-14


def build_ops(c: int) -> np.ndarray:
    """Lx of a c-dimensional qudit (l = (c-1)/2), symmetric tridiagonal in
    the Lz basis m = -l..l, as its (c-1,) superdiagonal."""
    if c < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {c}")
    l = (c - 1) / 2.0
    m = np.arange(c) - l
    # <m+1| Lx |m> = sqrt((l - m)(l + m + 1)) / 2
    return 0.5 * np.sqrt((l - m[:-1]) * (l + m[:-1] + 1.0))


def lx_ground_state(c: int) -> np.ndarray:
    """Unit eigenvector of -Lx with lowest eigenvalue (-l), all components >= 0.

    Closed form in the Lz basis: component k is sqrt(C(c-1, k)) / 2^((c-1)/2),
    a binomial-shaped profile peaked at the central colors.
    """
    if c < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {c}")
    v = np.array([math.sqrt(math.comb(c - 1, k)) for k in range(c)])
    return v / np.linalg.norm(v)


class Forward(NamedTuple):
    """The spherical map of a stack of k runs' padded angles, as every
    consumer reads it (k = 1 for a single run), V rows each."""

    psi: np.ndarray       # (k, V, c) amplitudes, one row per node
    sin: np.ndarray       # (k, V, c) sines of the angles, 0 in the pad
    cos: np.ndarray       # (k, V, c) cosines of the angles, 1 in the pad
    prefix: np.ndarray    # (k, V, c) prefix sine products


def forward(phi: np.ndarray) -> Forward:
    """Spherical map over the last axis of the padded (..., c) angles
    ``phi``, whose last column must be 0 (not checked: this is the step
    path).  Every array is new."""
    s = np.sin(phi)
    u = np.cos(phi)
    # the products of np.cumprod, in its order, one ufunc call per angle
    # column, each over that column of every node row of every run: a
    # (c, k*V) column view indexes a column with one integer, as a 1-D
    # strided array.  r is allocated C-ordered, so ``cols`` is a view of it
    # whatever the layout of phi (``sines`` may be a copy).
    c = s.shape[-1]
    r = np.empty(s.shape)
    cols, sines = r.reshape(-1, c).T, s.reshape(-1, c).T
    cols[0] = 1.0
    cols[1] = sines[0]
    for a in range(1, c - 1):
        np.multiply(cols[a], sines[a], cols[a + 1])
    return Forward(r * u, s, u, r)


def amplitudes_to_angles(psi: np.ndarray) -> np.ndarray:
    """Invert the spherical map for a unit vector (c,), a batch of them
    (n, c), or k batches stacked as (k, n, c); the angles keep the leading
    shape, c-1 per vector and the zero pad, so ``forward`` reads them.

    Uses phi_k = atan2(||tail||, psi_k) so all but the final angle land in
    [0, pi]; once the remaining tail norm drops below 1e-14 the rest of the
    angles are set to 0.  Each batch of a stack gets the bits of a call on
    that batch alone: numpy's arctan2 rounds strided operands by their
    shape, so it is taken batch by batch.
    """
    psi = np.asarray(psi, dtype=np.float64)
    c = psi.shape[-1]
    batches = psi.reshape((1,) * (3 - psi.ndim) + psi.shape)
    rows = batches.reshape(-1, c)
    norms = np.linalg.norm(rows, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise ValueError("amplitude vector is not unit-norm")
    # tail[:, k] = norm of components k..c-1; tail[:, k] is also the prefix
    # sine product multiplying component k in the forward map.
    tail = np.sqrt(np.cumsum(rows[:, ::-1] ** 2, axis=1))[:, ::-1]
    phi = np.empty((rows.shape[0], c - 1))
    for batch, batch_tail, out in zip(batches, tail.reshape(batches.shape),
                                      phi.reshape(*batches.shape[:2], c - 1)):
        out[:] = np.arctan2(batch_tail[:, 1:], batch[:, :-1])
        out[:, -1] = np.arctan2(batch[:, -1], batch[:, -2])
    degenerate = tail[:, :-1] < _DEGENERATE_TAIL
    phi[degenerate] = 0.0
    # the pad is added once to the whole array, not per batch
    angles = np.zeros((rows.shape[0], c))
    angles[:, :-1] = phi
    return angles.reshape(psi.shape)


@lru_cache(maxsize=None)
def _ground_state_angles(c: int) -> np.ndarray:
    """Padded angles of the -Lx ground state, computed once per c
    (read-only)."""
    base = amplitudes_to_angles(lx_ground_state(c))
    base.flags.writeable = False
    return base


def init_qdlqa_state(n_free: int, c: int, f: float,
                     rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Annealing start: (k, n_free, c) padded angles near the -Lx ground
    state, one block per generator in ``rngs``, in order.

    Each angle is the ground-state angle plus i.i.d. uniform noise in
    [-f, f), drawn from its block's generator as one (n_free, c-1) array;
    the pad stays 0.  The pinned node, if any, owns no row here; the solver
    inserts its row of zeros.
    """
    if f < 0:
        raise ValueError("perturbation f must be >= 0")
    angles = np.tile(_ground_state_angles(c), (len(rngs), n_free, 1))
    if f > 0:
        angles[..., :-1] += np.stack([rng.uniform(-f, f, size=(n_free, c - 1))
                                      for rng in rngs])
    return angles


def init_qdgd_state(n_free: int, c: int,
                    rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Gradient-descent start: (k, n_free, c) padded angles of random
    amplitudes, one (n_free, c) block per generator in ``rngs``, in order.

    Per row, c entries are drawn uniformly from [0, 1) and the vector is
    normalized; each block's all-zero draws are redrawn from its own
    generator.
    """
    draws = np.stack([rng.random((n_free, c)) for rng in rngs])
    norms = np.linalg.norm(draws, axis=-1)
    while not norms.all():
        for rows, zero, rng in zip(draws, norms == 0.0, rngs):
            if zero.any():
                rows[zero] = rng.random((int(zero.sum()), c))
        norms = np.linalg.norm(draws, axis=-1)
    return amplitudes_to_angles(draws / norms[..., None])
