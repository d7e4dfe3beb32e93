"""Self-contained Adam optimizer over an array of angle parameters."""

from __future__ import annotations

import numpy as np

# The standard Adam decay rates of the two moments, and the denominator guard.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Standard bias-corrected Adam.

    Moments are zero-initialized, of the parameters' shape, and persist for
    the lifetime of the instance; every run must create a fresh one.
    """

    def __init__(self, shape: int | tuple[int, ...], eta: float):
        self.eta = eta
        self.step_count = 0
        self.first_moment = np.zeros(shape)
        self.second_moment = np.zeros(shape)

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Update ``params`` in place from ``grad``; returns ``params``."""
        if params.shape != self.first_moment.shape or grad.shape != params.shape:
            raise ValueError(
                f"layout mismatch: params {params.shape}, grad {grad.shape}, "
                f"moments {self.first_moment.shape}")
        self.step_count += 1
        m, v = self.first_moment, self.second_moment
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        v += (1.0 - BETA2) * grad ** 2
        m_hat = m / (1.0 - BETA1 ** self.step_count)
        v_hat = v / (1.0 - BETA2 ** self.step_count)
        params -= self.eta * m_hat / (np.sqrt(v_hat) + EPS)
        return params
