"""Hot numeric kernels with a numba backend and a pure-numpy fallback.

The backend is chosen once at import time: numpy when the environment
variable DNSURF_NO_NUMBA is set to a non-empty value, or when numba is not
importable; numba (njit, cached) otherwise.  Both backends compute
identical results to floating-point roundoff.  numba is an optional extra
(``pip install -e ".[numba]"``).
"""

from __future__ import annotations

import os

import numpy as np

_want_numba = not os.environ.get("DNSURF_NO_NUMBA")

if _want_numba:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover - depends on environment
        _want_numba = False

BACKEND = "numba" if _want_numba else "numpy"


# -- pure-numpy reference implementations --------------------------------

def _cumulative_simpson_np(y: np.ndarray, h: float) -> np.ndarray:
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


def _hyperbolic_laplacian_np(F: np.ndarray, du: float, dv: float) -> np.ndarray:
    """Interior central-difference F_uu - F_vv; axis 0 = v, axis 1 = u."""
    F = np.asarray(F, dtype=float)
    Fuu = (F[1:-1, 2:] - 2.0 * F[1:-1, 1:-1] + F[1:-1, :-2]) / (du * du)
    Fvv = (F[2:, 1:-1] - 2.0 * F[1:-1, 1:-1] + F[:-2, 1:-1]) / (dv * dv)
    return Fuu - Fvv


def _dnum_mul_np(re1, im1, re2, im2):
    """Componentwise double-number product arrays (re, im)."""
    return re1 * re2 + im1 * im2, re1 * im2 + im1 * re2


# -- numba twins ---------------------------------------------------------

if _want_numba:

    @njit(cache=True)
    def _cumulative_simpson_nb(y, h):  # pragma: no cover - jitted
        n = y.size
        out = np.zeros(n)
        if n < 3:
            if n == 2:
                out[1] = 0.5 * h * (y[0] + y[1])
            return out
        acc = 0.0
        for i in range(1, n - 1):
            acc += (h / 12.0) * (5.0 * y[i - 1] + 8.0 * y[i] - y[i + 1])
            out[i] = acc
        acc += (h / 12.0) * (-y[n - 3] + 8.0 * y[n - 2] + 5.0 * y[n - 1])
        out[n - 1] = acc
        return out

    @njit(cache=True)
    def _hyperbolic_laplacian_nb(F, du, dv):  # pragma: no cover - jitted
        nv, nu = F.shape
        out = np.empty((nv - 2, nu - 2))
        for i in range(1, nv - 1):
            for k in range(1, nu - 1):
                fuu = (F[i, k + 1] - 2.0 * F[i, k] + F[i, k - 1]) / (du * du)
                fvv = (F[i + 1, k] - 2.0 * F[i, k] + F[i - 1, k]) / (dv * dv)
                out[i - 1, k - 1] = fuu - fvv
        return out

    @njit(cache=True)
    def _dnum_mul_nb(re1, im1, re2, im2):  # pragma: no cover - jitted
        return re1 * re2 + im1 * im2, re1 * im2 + im1 * re2

    def cumulative_simpson(y, h):
        return _cumulative_simpson_nb(np.ascontiguousarray(y, dtype=np.float64), float(h))

    def hyperbolic_laplacian(F, du, dv):
        return _hyperbolic_laplacian_nb(
            np.ascontiguousarray(F, dtype=np.float64), float(du), float(dv)
        )

    def dnum_mul(re1, im1, re2, im2):
        return _dnum_mul_nb(re1, im1, re2, im2)

else:
    cumulative_simpson = _cumulative_simpson_np
    hyperbolic_laplacian = _hyperbolic_laplacian_np
    dnum_mul = _dnum_mul_np
