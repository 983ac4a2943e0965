import numpy as np
import pytest

from lqdisc import ContinuousLqModel, NormOverflowError, SingularMatrixError, ValidationError
from lqdisc.butcher import precompute
from lqdisc.linalg import expm, pade_squarings, psd_shortfall, symmetrize


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


# The library's only linear solves besides the Pade quotient are the
# implicit Runge-Kutta stages of butcher.precompute.

def _model(a_c, t_s=1.0):
    a_c = np.asarray(a_c, dtype=float)
    n = a_c.shape[0]
    return ContinuousLqModel(
        a_c=a_c, b_c=np.ones((n, 1)), g_c=np.zeros((n, 1)), c_c=np.eye(n),
        d_c=np.zeros((n, 1)), q_c=np.eye(n), t_s=t_s, inputs=[[0.0]],
        targets=[np.zeros(n)], x0_mean=np.zeros(n), x0_cov=np.zeros((n, n)),
    )


def _stage_residual(model, scheme, n_steps):
    """Largest ``|(I - h a_ii A_c) lam_i - rhs_i|`` over the implicit stages,
    relative to ``max(1, |rhs_i|)``, with ``rhs_i`` rebuilt from the
    tableau and the earlier stages."""
    co = precompute(model, scheme, n_steps)
    tab, a_c, h = co.scheme, model.a_c, co.h
    ident = np.eye(model.n_x)
    worst = 0.0
    for i in range(tab.stages):
        if tab.a[i, i] == 0.0:
            continue
        rhs = ident + h * sum(
            (tab.a[i, j] * (a_c @ co.lam_stages[j]) for j in range(i)),
            np.zeros_like(ident),
        )
        res = (ident - h * tab.a[i, i] * a_c) @ co.lam_stages[i] - rhs
        worst = max(worst, np.max(np.abs(res)) / max(1.0, np.max(np.abs(rhs))))
    return worst


def test_solve_identity():
    # zero drift: every stage matrix is I and the solve returns rhs exactly
    co = precompute(_model(np.zeros((2, 2))), "esdirk34", 4)
    for lam_i in co.lam_stages:
        assert np.array_equal(lam_i, np.eye(2))


def test_solve_diagonal():
    # h = 1, a_11 = 1: the stage matrix is diag(2, 4)
    co = precompute(_model(np.diag([-1.0, -3.0])), "implicit_euler", 1)
    assert np.allclose(co.lam_stages[0], np.diag([0.5, 0.25]), rtol=0, atol=1e-15)


def test_solve_residual_benchmark_stage_matrix(benchmark_model):
    # I - A_c / 256, the implicit Euler stage at 256 steps
    assert _stage_residual(benchmark_model, "implicit_euler", 256) < 1e-12


def test_solve_random_residuals():
    rng = np.random.default_rng(7)
    implicit = ("implicit_euler", "implicit_trapezoidal", "esdirk34")
    for k in range(25):
        n = int(rng.integers(1, 8))
        model = _model(rng.normal(size=(n, n)) - n * np.eye(n), float(rng.uniform(0.3, 3.0)))
        scheme = implicit[k % 3]
        assert _stage_residual(model, scheme, int(rng.integers(1, 9))) <= 1e-10, (k, scheme)


@pytest.mark.parametrize("a_c", [
    # stage matrix [[1, 1], [1, 1]]
    [[0.0, -1.0], [-1.0, 0.0]],
    # stage matrix [[1, 1], [1, 1 + 2**-52]]: determinant 2**-52, condition ~1.8e16
    [[0.0, -1.0], [-1.0, -2.0 ** -52]],
], ids=["exactly_singular", "condition_1e16"])
def test_solve_singular_stage_names_scheme_and_stage(a_c):
    # h = 1 and a_11 = 1 make the stage matrix I - A_c
    with pytest.raises(SingularMatrixError) as err:
        precompute(_model(a_c), "implicit_euler", 1)
    message = str(err.value)
    assert "'implicit_euler'" in message and "stage 1" in message
    assert "step size 1" in message


def test_symmetrize():
    out = symmetrize([[1.0, 2.0], [0.0, 1.0]])
    assert np.array_equal(out, [[1.0, 1.0], [1.0, 1.0]])


def test_psd_shortfall():
    assert psd_shortfall(np.eye(3)) is None
    assert psd_shortfall([[0.0, 0.0], [0.0, -1e-3]], tol=1e-10) == pytest.approx(-1e-3)
