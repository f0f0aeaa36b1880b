import numpy as np
import pytest
import scipy.optimize

from rmodesim.errors import NnlsConvergenceError
from rmodesim.nnls import nnls


def test_matches_scipy_on_random_problems():
    rng = np.random.default_rng(0)
    for _ in range(300):
        m = int(rng.integers(3, 40))
        n = int(rng.integers(1, 8))
        a = rng.normal(size=(m, n)) * rng.lognormal(0.0, 1.0)
        b = rng.normal(size=m) * rng.lognormal(0.0, 1.0)
        x, rnorm = nnls(a, b)
        x_ref, rnorm_ref = scipy.optimize.nnls(a, b)
        assert np.all(x >= 0.0)
        scale = max(1.0, float(np.abs(x_ref).max()))
        assert np.max(np.abs(x - x_ref)) < 1e-8 * scale
        assert rnorm == pytest.approx(rnorm_ref, rel=1e-9, abs=1e-9)


def test_unconstrained_interior_solution():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(30, 3))
    x_true = np.array([2.0, 0.5, 3.0])
    b = a @ x_true
    x, rnorm = nnls(a, b)
    assert np.allclose(x, x_true, atol=1e-10)
    assert rnorm < 1e-10


def test_active_bound_is_exact_zero():
    x_grid = np.linspace(0.1, 1.0, 20)
    a = np.column_stack([np.ones(20), x_grid])
    b = 100.0 * x_grid * 0.9  # pulls the intercept negative
    x, _ = nnls(a, b)
    assert x[0] == 0.0
    assert x[1] == pytest.approx(90.0, rel=1e-12)


def test_kkt_conditions_hold():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = rng.normal(size=(25, 5))
        b = rng.normal(size=25)
        x, _ = nnls(a, b)
        grad = a.T @ (b - a @ x)  # positive gradient means decreasing RSS
        scale = float(np.abs(a.T @ b).max())
        free = x > 0.0
        assert np.all(np.abs(grad[free]) <= 1e-8 * scale)
        assert np.all(grad[~free] <= 1e-8 * scale)


def test_zero_rhs_gives_zero_solution():
    a = np.eye(4)
    x, rnorm = nnls(a, np.zeros(4))
    assert np.array_equal(x, np.zeros(4))
    assert rnorm == 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        nnls(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        nnls(np.zeros((3, 2)), np.zeros(4))


def test_iteration_cap_raises_named_error():
    # freeing the second column drives the first negative, so the solve
    # needs one inner iteration, more than a cap of zero allows
    a = np.array([[3.0, 3.0, 0.0], [3.0, 3.0, 1.0], [1.0, 2.0, 2.0]])
    b = np.array([1.0, -1.0, 4.0])
    x, _ = nnls(a, b)
    assert np.allclose(x, [0.0, 0.0, 1.4])
    with pytest.raises(NnlsConvergenceError, match="converge"):
        nnls(a, b, max_iter=0)


def test_deterministic():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(40, 6))
    b = rng.normal(size=40)
    x1, r1 = nnls(a, b)
    x2, r2 = nnls(a.copy(), b.copy())
    assert np.array_equal(x1, x2) and r1 == r2
