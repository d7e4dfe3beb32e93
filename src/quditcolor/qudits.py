"""Per-node qudit states: hyperspherical angles, the angular-momentum
operator Lx, and the initial-state constructions for both solution strategies.

Each node carries a real unit vector of length c (one component per color),
parameterized by c-1 unconstrained angles.  Basis ordering is by ascending
eigenvalue m of the z angular-momentum matrix; color index = m + (c-1)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# A vanishing prefix sine product makes the remaining angles unidentifiable;
# below this threshold they are set to 0 in the inverse transform.
_DEGENERATE_TAIL = 1e-14


@dataclass(frozen=True)
class AngularMomentumOps:
    """Angular-momentum operator of a c-dimensional qudit (l = (c-1)/2):
    Lx, symmetric tridiagonal in the Lz basis, held as its superdiagonal."""

    dim: int
    lx_offdiag: np.ndarray  # superdiagonal of Lx, length c-1


def build_ops(c: int) -> AngularMomentumOps:
    """Build the superdiagonal of Lx in the Lz basis m = -l..l."""
    if c < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {c}")
    l = (c - 1) / 2.0
    m = np.arange(c) - l
    # <m+1| Lx |m> = sqrt((l - m)(l + m + 1)) / 2
    off = 0.5 * np.sqrt((l - m[:-1]) * (l + m[:-1] + 1.0))
    return AngularMomentumOps(dim=c, lx_offdiag=off)


def lx_ground_state(c: int) -> np.ndarray:
    """Unit eigenvector of -Lx with lowest eigenvalue (-l), all components >= 0.

    Closed form in the Lz basis: component k is sqrt(C(c-1, k)) / 2^((c-1)/2),
    a binomial-shaped profile peaked at the central colors.
    """
    if c < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {c}")
    v = np.array([math.sqrt(math.comb(c - 1, k)) for k in range(c)])
    return v / np.linalg.norm(v)


def _forward(phi: np.ndarray):
    """Batched spherical map; returns (psi, sin, cos, prefix sine products)."""
    n, _ = phi.shape
    s = np.sin(phi)
    u = np.cos(phi)
    r = np.empty((n, phi.shape[1] + 1))
    r[:, 0] = 1.0
    np.cumprod(s, axis=1, out=r[:, 1:])
    psi = np.empty_like(r)
    np.multiply(r[:, :-1], u, out=psi[:, :-1])
    psi[:, -1] = r[:, -1]
    return psi, s, u, r


def amplitudes_to_angles(psi: np.ndarray) -> np.ndarray:
    """Invert the spherical map for a unit vector (or a batch of them).

    Uses phi_k = atan2(||tail||, psi_k) so all but the final angle land in
    [0, pi]; once the remaining tail norm drops below 1e-14 the rest of the
    angles are set to 0.
    """
    psi = np.asarray(psi, dtype=np.float64)
    single = psi.ndim == 1
    rows = psi[None, :] if single else psi
    norms = np.linalg.norm(rows, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise ValueError("amplitude vector is not unit-norm")
    # tail[:, k] = norm of components k..c-1; tail[:, k] is also the prefix
    # sine product multiplying component k in the forward map.
    tail = np.sqrt(np.cumsum(rows[:, ::-1] ** 2, axis=1))[:, ::-1]
    phi = np.arctan2(tail[:, 1:], rows[:, :-1])
    phi[:, -1] = np.arctan2(rows[:, -1], rows[:, -2])
    degenerate = tail[:, :-1] < _DEGENERATE_TAIL
    phi[degenerate] = 0.0
    return phi[0] if single else phi


@lru_cache(maxsize=None)
def _ground_state_angles(c: int) -> np.ndarray:
    """Angles of the -Lx ground state, computed once per c (read-only)."""
    base = amplitudes_to_angles(lx_ground_state(c))
    base.flags.writeable = False
    return base


def init_qdlqa_state(n_free: int, c: int, f: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Annealing start: (n_free, c-1) angles near the -Lx ground state.

    Each angle is the ground-state angle plus i.i.d. uniform noise in
    [-f, f).  The pinned node, if any, owns no row.
    """
    if f < 0:
        raise ValueError("perturbation f must be >= 0")
    angles = np.tile(_ground_state_angles(c), (n_free, 1))
    if f > 0:
        angles += rng.uniform(-f, f, size=angles.shape)
    return angles


def init_qdgd_state(n_free: int, c: int, f_tilde: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Gradient-descent start: (n_free, c-1) angles of random amplitudes.

    Per row, c entries are drawn uniformly from [0, f_tilde) and the vector
    is normalized (all-zero draws are redrawn).
    """
    if f_tilde <= 0:
        raise ValueError("init scale f_tilde must be > 0")
    draws = rng.uniform(0.0, f_tilde, size=(n_free, c))
    norms = np.linalg.norm(draws, axis=1)
    while np.any(norms == 0.0):
        zero = norms == 0.0
        draws[zero] = rng.uniform(0.0, f_tilde, size=(int(zero.sum()), c))
        norms = np.linalg.norm(draws, axis=1)
    return amplitudes_to_angles(draws / norms[:, None])
