"""Linear solvers: direct elimination, damped normal equations, conditioning."""

import math
import re

import numpy as np
import pytest

from stefanflux import (
    DomainError,
    HeatPolynomialBasis,
    NoiseSpec,
    NumericalError,
    SingularMatrixError,
    assemble,
    benchmark_problem,
    condition_number,
    delta_p,
    example1,
    penalty_weights,
    preset_scheme,
    run_case,
    solve,
    solve_direct,
    solve_tikhonov,
)
from stefanflux import experiments
from stefanflux.assembly import LinearSystem
from stefanflux.solver import Factorization


def _system(matrix, rhs):
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    return LinearSystem(matrix=matrix, rhs=rhs)


def _example1_system(order):
    prob = example1()
    basis = HeatPolynomialBasis(1.0, order)
    return prob, basis, assemble(prob, basis, preset_scheme(order))


def test_trivial_systems():
    sys1 = _system(np.eye(3), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(solve_direct(sys1), [1.0, 2.0, 3.0])
    sys2 = _system(np.diag([2.0, 4.0]), [2.0, 8.0])
    np.testing.assert_allclose(solve_direct(sys2), [1.0, 2.0], rtol=1e-15)
    np.testing.assert_allclose(solve_tikhonov(sys2, 0.0), [1.0, 2.0], rtol=1e-12)


def test_tikhonov_at_zero_beta_matches_direct():
    rng = np.random.default_rng(23)
    matrix = 3.0 * np.eye(3) + 0.1 * rng.standard_normal((3, 3))
    rhs = rng.standard_normal(3)
    system = _system(matrix, rhs)
    direct = solve_direct(system)
    damped = solve_tikhonov(system, 0.0)
    assert np.linalg.norm(damped - direct) <= 1e-8 * np.linalg.norm(direct)

    _, _, system = _example1_system(12)
    direct = solve_direct(system)
    damped = solve_tikhonov(system, 0.0)
    assert np.linalg.norm(damped - direct) <= 1e-6 * np.linalg.norm(direct)


def test_penalized_norm_non_increasing_in_beta():
    # Damping shrinks the coefficients of the unit-normalized family, so the
    # factorially weighted norm ||n! c_n|| cannot grow with beta.
    _, _, system = _example1_system(12)
    scale = np.array([math.factorial(n) for n in range(13)], dtype=float)
    norms = []
    for beta in (0.0, 1e-8, 1e-6, 1e-4, 1e-2):
        coeffs = solve_tikhonov(system, beta)
        norms.append(np.linalg.norm(scale * coeffs))
    for lo, hi in zip(norms[1:], norms[:-1]):
        assert lo <= hi * (1.0 + 1e-12)


def test_heavy_damping_bound():
    _, _, system = _example1_system(12)
    gram_norm = np.linalg.norm(system.matrix.T @ system.matrix, 2)
    beta = 1e12 * gram_norm
    coeffs = solve_tikhonov(system, beta)
    bound = 10.0 * np.linalg.norm(system.matrix.T @ system.rhs) / beta
    assert np.linalg.norm(coeffs) <= bound


def test_singular_matrix_names_pivot():
    system = _system([[1.0, 1.0], [1.0, 1.0]], [1.0, 0.0])
    with pytest.raises(SingularMatrixError, match="pivot 1") as info:
        solve_direct(system)
    assert info.value.pivot_index == 1
    with pytest.raises(SingularMatrixError, match="normal equations"):
        solve_tikhonov(system, 0.0)

    # A genuine rank loss raises with the numerical rank; a column that is only
    # small is not singular once the columns are scaled to unit norm.
    dependent = _system([[1.0, 2.0, 3.0], [4.0, 5.0, 9.0], [7.0, 8.0, 15.0]], [1.0, 2.0, 3.0])
    with pytest.raises(SingularMatrixError, match="pivot 2") as info:
        solve_direct(dependent)
    assert info.value.pivot_index == 2

    tiny = _system(np.diag([1.0, 1e-20]), [1.0, 1.0])
    np.testing.assert_allclose(solve_direct(tiny), [1.0, 1e20], rtol=1e-15)

    # A zero column is left unscaled, so it fails the rank test.
    for matrix, rank in (([[1.0, 0.0], [2.0, 0.0]], 1), (np.zeros((2, 2)), 0)):
        with pytest.raises(SingularMatrixError) as info:
            solve_direct(_system(matrix, [1.0, 2.0]))
        assert info.value.pivot_index == rank


def test_tikhonov_matches_explicit_normal_equations():
    # On a well-conditioned system the filter-factor solve and an explicit
    # solve of (B^T B + beta I) y = B^T b agree to rounding.
    rng = np.random.default_rng(41)
    matrix = np.eye(8) + 0.1 * rng.standard_normal((8, 8))
    rhs = rng.standard_normal(8)
    system = _system(matrix, rhs)
    beta = 1e-3
    scaled = matrix * penalty_weights(8)
    gram = scaled.T @ scaled + beta * np.eye(8)
    expected = np.linalg.solve(gram, scaled.T @ rhs) * penalty_weights(8)
    coeffs = solve_tikhonov(system, beta)
    assert np.linalg.norm(coeffs - expected) <= 1e-10 * np.linalg.norm(expected)
    assert condition_number(system, beta) == pytest.approx(np.linalg.cond(gram), rel=1e-8)


@pytest.mark.parametrize("horizon", [1.2, 1.5])
def test_long_horizon_order_20_solves(horizon):
    # cond(A) exceeds 1/eps here, but only because the columns differ in scale
    # by up to 20!; with unit-norm columns the system has full rank.
    prob = example1(horizon)
    basis = HeatPolynomialBasis(1.0, 20)
    coeffs = solve_direct(assemble(prob, basis, preset_scheme(20)))
    assert delta_p(coeffs, prob, basis) <= 1e-10


def test_random_backward_stability():
    rng = np.random.default_rng(31)
    matrix = np.eye(20) + 0.1 * rng.standard_normal((20, 20))
    rhs = rng.standard_normal(20)
    system = _system(matrix, rhs)
    coeffs = solve_direct(system)
    res = np.linalg.norm(matrix @ coeffs - rhs)
    assert res <= 1e-10 * (np.linalg.norm(matrix, 2) * np.linalg.norm(coeffs)
                           + np.linalg.norm(rhs))


def test_condition_number():
    assert condition_number(_system(np.eye(4), np.zeros(4))) == pytest.approx(1.0)
    assert condition_number(_system(np.diag([1.0, 10.0]), np.zeros(2))) == pytest.approx(10.0)
    # With damping the reported number describes the shifted normal equations;
    # for the identity they stay perfectly conditioned.
    assert condition_number(_system(np.eye(2), np.zeros(2)), beta=1.0) == pytest.approx(1.0)

    _, _, system = _example1_system(4)
    kappa = condition_number(system)
    assert 2.7e1 <= kappa <= 2.7e3  # within one order of the reference 2.7e2
    _, _, system12 = _example1_system(12)
    assert condition_number(system12, beta=1e-3) < condition_number(system12)


def test_exactly_singular_condition_number():
    system = _system([[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0])
    assert condition_number(system) > 1e15 or math.isinf(condition_number(system))


def test_penalty_weights_are_inverse_factorials():
    weights = penalty_weights(31)
    for n in range(31):
        assert weights[n] == pytest.approx(1.0 / math.factorial(n), rel=1e-13)


def test_solve_dispatch_and_validation():
    _, _, system = _example1_system(8)
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            solve(system, bad)

    np.testing.assert_array_equal(solve(system), solve_direct(system))
    np.testing.assert_array_equal(solve(system, 0.0), solve_direct(system))
    np.testing.assert_array_equal(solve(system, 1e-4), solve_tikhonov(system, 1e-4))


def test_beta_validation():
    _, _, system = _example1_system(4)
    # float(10**400) overflows: it raised a bare OverflowError.
    for bad in (-1e-3, float("nan"), float("inf"), 10 ** 400):
        with pytest.raises(ValueError):
            solve_tikhonov(system, bad)
        with pytest.raises(ValueError):
            condition_number(system, beta=bad)
        with pytest.raises(DomainError, match="beta"):
            run_case(example1(), 4, beta=bad)


def test_non_square_matrix_rejected_at_construction():
    # A 20 x 8 matrix used to fail only in solve_rows, with numpy's bare
    # "operands could not be broadcast" ValueError.
    rng = np.random.default_rng(0)
    for shape in ((20, 8), (8, 20), (8,), (2, 2, 2)):
        with pytest.raises(DomainError,
                           match=f"^{re.escape(f'matrix must be square, got shape {shape}')}$"):
            Factorization(rng.standard_normal(shape))
    with pytest.raises(DomainError, match="square"):
        Factorization(rng.standard_normal((20, 8))).solve(np.ones(20), 1e-3)


def test_nonfinite_matrix_rejected():
    matrix = np.eye(2)
    matrix[0, 1] = np.inf
    system = LinearSystem(matrix=matrix, rhs=np.zeros(2))
    with pytest.raises(NumericalError):
        solve_direct(system)
    with pytest.raises(NumericalError):
        condition_number(system)


def test_damped_flux_error_published_window():
    # Order 20 with beta = 1e-3 lands near the reference relative error 0.146.
    prob = example1()
    basis = HeatPolynomialBasis(1.0, 20)
    system = assemble(prob, basis, preset_scheme(20))
    coeffs = solve_tikhonov(system, 1e-3)
    err = delta_p(coeffs, prob, basis)
    assert 0.146 / 3 <= err <= 0.146 * 3


def test_non_finite_inputs_are_named():
    # A non-finite right-hand side used to be reported as the matrix.
    factors = Factorization(np.eye(2))
    for beta in (0.0, 1e-7):
        with pytest.raises(NumericalError, match="^right-hand side contains non-finite entries$"):
            factors.solve(np.array([1.0, np.nan]), beta)
        with pytest.raises(NumericalError, match="^right-hand side contains non-finite entries$"):
            solve(_system(np.eye(2), [np.inf, 0.0]), beta)
    with pytest.raises(NumericalError, match="^matrix contains non-finite entries$"):
        Factorization(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(NumericalError, match="^matrix contains non-finite entries$"):
        solve(_system([[1.0, np.inf], [0.0, 1.0]], [1.0, 0.0]), 1e-7)


def test_overflowing_solution_raises_numerical_error():
    # Finite data so large that the solution overflows raise a typed error, at
    # either beta, and no RuntimeWarning escapes (warnings are errors here).
    factors = Factorization(np.diag([1.0, 1e-5]))
    for beta in (0.0, 1e-12):
        with pytest.raises(NumericalError, match="^solution contains non-finite entries$"):
            factors.solve(np.full(2, 1e308), beta)
        assert np.isfinite(factors.solve(np.full(2, 1e300), beta)).all()
    with pytest.raises(NumericalError, match="^solution contains non-finite entries$"):
        solve_tikhonov(_system(np.diag([1.0, 1e-5]), [1e308, 1e308]), 0.0)


@pytest.mark.parametrize("order", [4, 12, 20])
@pytest.mark.parametrize("name", ["example1", "example2"])
def test_block_solve_equals_rows_alone(name, order):
    # A block of right sides solves as one stacked product per kind of beta, a
    # gemv per row, so each row equals its own solve and the one-row formulas
    # bit for bit, at any height and any mix of betas; so do a sweep group's
    # stacked residual norms and np.linalg.norm, and its coefficients and
    # deltas equal run_case's.
    prob = benchmark_problem(name)
    system = assemble(prob, HeatPolynomialBasis(prob.diffusivity, order), preset_scheme(order))
    factors = Factorization(system.matrix)
    noise = np.random.default_rng(order).standard_normal((9, system.size))
    rhs = system.rhs * (1.0 + 1e-2 * noise)
    u, sigma, vt, norms, _ = factors._equilibrated
    nu, nsigma, nvt, weights = factors._normalized
    assert factors.solve_rows(rhs[:0], []).shape == (0, system.size)
    for h in (1, 2, 7, 8, 9):
        mixed = [(0.0, 1e-9, 1e-7)[k % 3] for k in range(h)]
        for betas in ([0.0] * h, [1e-9] * h, [1e-7] * h, mixed):
            block = factors.solve_rows(rhs[:h], betas)
            assert block.shape == (h, system.size)
            for row, b, beta in zip(block, rhs, betas):
                assert (row == factors.solve(b, beta)).all()
                alone = (vt.T @ ((u.T @ b) / sigma) / norms if not beta else
                         nvt.T @ ((nu.T @ b) * (nsigma / (nsigma * nsigma + beta))) * weights)
                assert (row == alone).all()
    group = experiments._Group(experiments._Horizon(prob, (order,)), order, seeds=tuple(range(9)))
    cells = [(beta, 0.01, seed) for seed in range(9) for beta in (0.0, 1e-7)]
    outcomes = group.run(cells)
    assert len(outcomes) == len(cells)
    for (beta, level, seed), (coeffs, cond, res_norm, b, dp, du) in zip(cells, outcomes):
        assert (coeffs == factors.solve(b, beta)).all()
        assert res_norm == float(np.linalg.norm(system.matrix @ coeffs - b))
        assert cond == factors.condition_number(beta)
        report = run_case(prob, order, beta, noise=NoiseSpec(level, seed))
        assert (tuple(coeffs.tolist()), dp, du) == (report.coefficients, report.delta_p,
                                                    report.delta_u)
    for bad_rhs, bad_betas in ((rhs[0], [0.0]), (rhs[:2], [0.0]), (rhs[:2, :-1], [0.0, 0.0]),
                               (rhs[:2], [[0.0, 0.0]]), (rhs[:1], 0.0), (rhs[None, :2], [0.0])):
        with pytest.raises(DomainError, match="block"):
            factors.solve_rows(bad_rhs, bad_betas)
    for bad in (-1e-3, math.nan, math.inf):
        with pytest.raises(DomainError, match="betas"):
            factors.solve_rows(rhs[:2], [0.0, bad])
    nonfinite = rhs[:3].copy()
    nonfinite[1, 0] = np.nan
    for betas in ([0.0] * 3, [1e-7] * 3):
        with pytest.raises(NumericalError, match="^right-hand side contains non-finite entries$"):
            factors.solve_rows(nonfinite, betas)
