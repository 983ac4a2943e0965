import numpy as np
import pytest

from lqdisc import NormOverflowError, SingularMatrixError, ValidationError
from lqdisc.linalg import expm, is_psd, pade_squarings, solve_linear, symmetrize


def test_expm_zero_is_identity():
    assert np.array_equal(expm(np.zeros((2, 2))), np.eye(2))


def test_expm_diagonal():
    out = expm(np.diag([1.0, -1.0]))
    want = np.diag([np.e, 1.0 / np.e])
    assert np.allclose(out, want, rtol=1e-14, atol=0.0)


def test_expm_benchmark_drift():
    # eigenvalues -1 and -17; the exponential has a short closed form
    a = np.array([[-49.0, 24.0], [-64.0, 31.0]])
    out = expm(a)
    want = np.array([[-0.735759, 0.551819], [-1.471518, 1.103638]])
    assert np.max(np.abs(out - want)) < 5e-7
    # eigenvalue check: exp of the spectrum
    assert np.allclose(sorted(np.linalg.eigvals(out)),
                       sorted([np.exp(-1.0), np.exp(-17.0)]), atol=1e-12)


def test_expm_semigroup_property():
    rng = np.random.default_rng(101)
    for _ in range(50):
        n = rng.integers(2, 9)
        a = rng.normal(size=(n, n))
        rho = max(abs(np.linalg.eigvals(a)))
        if rho > 5.0:
            a *= 5.0 / rho
        e1 = expm(a)
        e2 = expm(2.0 * a)
        err = np.max(np.abs(e1 @ e1 - e2))
        assert err <= 1e-10 * np.max(np.abs(e2))


def test_expm_inverse_property():
    rng = np.random.default_rng(202)
    for _ in range(50):
        n = rng.integers(2, 9)
        a = rng.normal(size=(n, n))
        rho = max(abs(np.linalg.eigvals(a)))
        if rho > 5.0:
            a *= 5.0 / rho
        assert np.max(np.abs(expm(a) @ expm(-a) - np.eye(n))) < 1e-9


def test_pade_squarings_reach_the_threshold():
    theta = 5.371920351148152
    assert pade_squarings(0.0) == 0
    assert pade_squarings(theta) == 0
    assert pade_squarings(theta * 1.001) == 1
    assert pade_squarings(2 * theta) == 1
    # benchmark drift: ||a_c||_1 = 113, and 113 / 2**5 is the first below theta
    assert pade_squarings(113.0) == 5
    # finite entries whose column sum overflows: a named library error
    with pytest.raises(NormOverflowError, match="1-norm of expm argument"):
        expm(np.full((2, 2), 1e308))


def test_expm_rejects_bad_input():
    with pytest.raises(ValidationError):
        expm(np.ones((2, 3)))
    with pytest.raises(ValidationError):
        expm(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_solve_identity():
    b = np.array([[3.0], [4.0]])
    assert np.array_equal(solve_linear(np.eye(2), b), b)


def test_solve_diagonal():
    x = solve_linear(np.diag([2.0, 4.0]), np.array([[2.0], [8.0]]))
    assert np.allclose(x, [[1.0], [2.0]], rtol=0, atol=1e-15)


def test_solve_residual_benchmark_stage_matrix():
    a_c = np.array([[-49.0, 24.0], [-64.0, 31.0]])
    lhs = np.eye(2) - (1.0 / 256.0) * a_c
    x = solve_linear(lhs, np.eye(2))
    assert np.max(np.abs(lhs @ x - np.eye(2))) < 1e-12


def test_solve_random_residuals():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = rng.integers(1, 8)
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        rhs = rng.normal(size=(n, max(1, n - 1)))
        x = solve_linear(a, rhs)
        assert np.max(np.abs(a @ x - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_solve_singular_reports_pivot():
    with pytest.raises(SingularMatrixError) as err:
        solve_linear(np.array([[1.0, 2.0], [2.0, 4.0]]), np.eye(2))
    assert "pivot" in str(err.value)


def test_symmetrize():
    out = symmetrize([[1.0, 2.0], [0.0, 1.0]])
    assert np.array_equal(out, [[1.0, 1.0], [1.0, 1.0]])


def test_is_psd():
    assert is_psd(np.eye(3))
    assert not is_psd([[0.0, 0.0], [0.0, -1e-3]], tol=1e-10)
