"""Numeric kernels: exactness and accuracy on known integrals and stencils."""

import numpy as np

from dnsurf import kernels


def test_backend_selected():
    assert kernels.BACKEND == "numpy"


def test_cumulative_simpson_exact_on_quadratics():
    x = np.linspace(0, 2, 201)
    y = 3 * x * x - 2 * x + 1
    F = kernels.cumulative_simpson(y, x[1] - x[0])
    want = x**3 - x**2 + x
    np.testing.assert_allclose(F, want, atol=1e-12)


def test_cumulative_simpson_smooth_accuracy():
    x = np.linspace(0, np.pi, 2001)
    F = kernels.cumulative_simpson(np.sin(x), x[1] - x[0])
    np.testing.assert_allclose(F, 1.0 - np.cos(x), atol=1e-10)


def test_cumulative_simpson_short_arrays():
    np.testing.assert_allclose(kernels.cumulative_simpson(np.array([1.0]), 0.5), [0.0])
    np.testing.assert_allclose(
        kernels.cumulative_simpson(np.array([1.0, 3.0]), 0.5), [0.0, 1.0]
    )


def test_hyperbolic_laplacian_quadratic():
    """lap of u^2 + v^2 is exactly 2 - 2 = 0; of u^2 alone it is 2."""
    u = np.linspace(0, 1, 21)
    v = np.linspace(0, 1, 21)
    U, V = np.meshgrid(u, v)
    du, dv = u[1] - u[0], v[1] - v[0]
    np.testing.assert_allclose(
        kernels.hyperbolic_laplacian(U * U + V * V, du, dv), 0.0, atol=1e-10
    )
    np.testing.assert_allclose(
        kernels.hyperbolic_laplacian(U * U, du, dv), 2.0, atol=1e-10
    )
