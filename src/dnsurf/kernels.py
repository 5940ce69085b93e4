"""Numeric kernels in plain numpy.

``cumulative_simpson`` feeds the canonical-chart quadrature in ``canon``;
``hyperbolic_laplacian`` feeds the finite-difference curvature route in
``geom``.  ``BACKEND`` names the implementation for reports.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral of uniformly sampled y with step h.

    Per-interval composite Simpson: the increment over [x_{i-1}, x_i] is
    h/12 * (5 y_{i-1} + 8 y_i - y_{i+1}), using the forward neighbor; the
    last interval uses the backward mirror h/12 * (-y_{i-2} + 8 y_{i-1} +
    5 y_i).  Third-order accurate at every node, exact on quadratics.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    out = np.zeros(n)
    if n < 3:
        if n == 2:
            out[1] = 0.5 * h * (y[0] + y[1])
        return out
    inc = (h / 12.0) * (5.0 * y[:-2] + 8.0 * y[1:-1] - y[2:])
    out[1:-1] = np.cumsum(inc)
    last = (h / 12.0) * (-y[-3] + 8.0 * y[-2] + 5.0 * y[-1])
    out[-1] = out[-2] + last
    return out


def hyperbolic_laplacian(F: np.ndarray, du: float, dv: float) -> np.ndarray:
    """Interior central-difference F_uu - F_vv; axis 0 = v, axis 1 = u."""
    F = np.asarray(F, dtype=float)
    Fuu = (F[1:-1, 2:] - 2.0 * F[1:-1, 1:-1] + F[1:-1, :-2]) / (du * du)
    Fvv = (F[2:, 1:-1] - 2.0 * F[1:-1, 1:-1] + F[:-2, 1:-1]) / (dv * dv)
    return Fuu - Fvv
