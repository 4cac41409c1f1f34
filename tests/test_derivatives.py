"""Unit tests for the finite-difference helpers."""
import math

import numpy as np

import pytest

from oscavg import CallablePotential, fd_gradient, fd_hessian
from oscavg.fields import GRAD_STEP, _fd_step

X0 = np.array([0.4, -0.7])


def f_scalar(x):
    return math.sin(x[0]) * math.cos(2.0 * x[1]) + x[0] ** 3 * x[1]


def grad_true(x):
    return np.array([math.cos(x[0]) * math.cos(2.0 * x[1]) + 3.0 * x[0] ** 2 * x[1],
                     -2.0 * math.sin(x[0]) * math.sin(2.0 * x[1]) + x[0] ** 3])


def hess_true(x):
    mixed = -2.0 * math.cos(x[0]) * math.sin(2.0 * x[1]) + 3.0 * x[0] ** 2
    return np.array([
        [-math.sin(x[0]) * math.cos(2.0 * x[1]) + 6.0 * x[0] * x[1], mixed],
        [mixed, -4.0 * math.sin(x[0]) * math.cos(2.0 * x[1])],
    ])


def test_gradient_matches_analytic():
    err = np.max(np.abs(fd_gradient(f_scalar, X0) - grad_true(X0)))
    # default step is tuned for ~10 digits on smooth O(1) functions
    assert err < 1e-9, f"fd_gradient error {err:.2e}"


def test_jacobian_matches_analytic():
    def f_vec(x):
        return np.array([x[0] ** 2 * x[1], math.sin(x[1]), x[0] + 2.0 * x[1]])

    def jac_true(x):
        return np.array([[2.0 * x[0] * x[1], x[0] ** 2],
                         [0.0, math.cos(x[1])],
                         [1.0, 2.0]])

    err = np.max(np.abs(fd_gradient(f_vec, X0) - jac_true(X0)))
    assert err < 1e-9, f"fd_gradient Jacobian error {err:.2e}"


def test_hessian_matches_analytic_and_is_symmetric():
    H = fd_hessian(f_scalar, X0)
    err = np.max(np.abs(H - hess_true(X0)))
    assert err < 1e-6, f"fd_hessian error {err:.2e}"
    skew = np.max(np.abs(H - H.T))
    assert skew == 0.0, f"fd_hessian not exactly symmetric, skew {skew:.2e}"


def test_gradient_is_second_order():
    h1, h2 = 1e-2, 5e-3
    e1 = np.max(np.abs(fd_gradient(f_scalar, X0, h=h1) - grad_true(X0)))
    e2 = np.max(np.abs(fd_gradient(f_scalar, X0, h=h2) - grad_true(X0)))
    order = math.log(e1 / e2) / math.log(h1 / h2)
    assert order >= 1.9, f"gradient empirical order {order:.3f} < 1.9"


def test_hessian_is_second_order():
    h1, h2 = 1e-2, 5e-3
    e1 = np.max(np.abs(fd_hessian(f_scalar, X0, h=h1) - hess_true(X0)))
    e2 = np.max(np.abs(fd_hessian(f_scalar, X0, h=h2) - hess_true(X0)))
    order = math.log(e1 / e2) / math.log(h1 / h2)
    assert order >= 1.9, f"hessian empirical order {order:.3f} < 1.9"


def test_jacobian_of_linear_map_is_exact():
    A = np.array([[1.0, 2.0], [-0.5, 3.0]])
    J = fd_gradient(lambda x: A @ x, X0)
    err = np.max(np.abs(J - A))
    # central differences are exact on affine maps up to rounding
    assert err < 1e-10, f"linear map Jacobian error {err:.2e}"


# ---- the finite-difference fallback of TimePeriodicPotential.grad ----

def _value(x, tau):
    c = np.cos(2.0 * math.pi * np.asarray(tau, dtype=float))
    return c * (x[0] ** 2 + math.sin(x[0] * x[1])) + x[-1] ** 3


def _value_of_x0(x, tau):
    """Ignores x[1]: a NaN there reaches the gradient only through the step."""
    return np.cos(2.0 * math.pi * np.asarray(tau, dtype=float)) * x[0] ** 2


def _stacked_fd_grad(pot, x, tau):
    """The fallback as the np.max step and np.stack formula wrote it."""
    x = np.asarray(x, dtype=float)
    h = GRAD_STEP * (1.0 + float(np.max(np.abs(x))))
    parts = []
    for i in range(pot.dim):
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        parts.append((np.asarray(pot.value(xp, tau)) - np.asarray(pot.value(xm, tau))) / (2.0 * h))
    return np.stack(parts, axis=-1)


@pytest.mark.parametrize("dim", [2, 3])
def test_fallback_gradient_equals_the_stacked_formula(dim):
    pot = CallablePotential(_value, dim)
    rng = np.random.default_rng(41)
    taus = np.arange(16) / 16
    for _ in range(1000):
        x = rng.uniform(-1.0, 1.0, dim) * 10.0 ** rng.integers(-3, 3)
        tau = float(rng.uniform(0.0, 1.0))
        for t in (tau, taus):
            got, want = pot.grad(x, t), _stacked_fd_grad(pot, x, t)
            assert got.shape == want.shape
            assert np.array_equal(got, want)


def test_fd_step_keeps_np_max_semantics():
    rng = np.random.default_rng(42)
    for _ in range(500):
        x = rng.normal(size=3) * 10.0 ** rng.integers(-8, 8)
        assert _fd_step(x, GRAD_STEP) == GRAD_STEP * (1.0 + float(np.max(np.abs(x))))
    assert _fd_step(np.array([1.0, -np.inf]), GRAD_STEP) == np.inf
    for x in ([np.nan, 0.3], [0.3, np.nan]):
        assert math.isnan(_fd_step(np.array(x), GRAD_STEP))


def test_fallback_gradient_is_nan_at_a_nan_coordinate():
    """Python's max drops a NaN after the first element; the step must not."""
    pot = CallablePotential(_value_of_x0, 2)
    for x in ([0.3, np.nan], [np.nan, 0.3]):
        for t in (0.2, np.arange(16) / 16):
            assert np.isnan(pot.grad(np.array(x), t)).all()
