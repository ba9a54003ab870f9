"""Heat polynomial basis against independent brute-force oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from stefanflux import HeatPolynomialBasis
from stefanflux.errors import DomainError


def brute_force_coefficients(n, a2):
    """Exact-rational monomial coefficients of v_n, computed from factorials.

    Returns [K_0, .., K_floor(n/2)] with K_m = a^(2m) n! / (m! (n-2m)!),
    using Fraction arithmetic throughout so no rounding can enter.
    """
    a2 = Fraction(a2)
    out = []
    for m in range(n // 2 + 1):
        out.append(a2 ** m * Fraction(math.factorial(n),
                                      math.factorial(m) * math.factorial(n - 2 * m)))
    return out


def brute_force_eval(n, a2, x, t):
    """Evaluate v_n by direct monomial summation with Fraction coefficients."""
    ks = brute_force_coefficients(n, a2)
    return sum(float(k) * x ** (n - 2 * m) * t ** m for m, k in enumerate(ks))


def brute_force_eval_dx(n, a2, x, t):
    """Term-by-term x-derivative of the monomial expansion (independent of the ladder)."""
    ks = brute_force_coefficients(n, a2)
    total = 0.0
    for m, k in enumerate(ks):
        p = n - 2 * m
        if p > 0:
            total += float(k) * p * x ** (p - 1) * t ** m
    return total


@pytest.mark.parametrize("a, a2", [(1.0, 1), (2.0, 4)])
def test_coefficients_match_exact_rational(a, a2):
    basis = HeatPolynomialBasis(a, 12)
    for n in range(13):
        exact = brute_force_coefficients(n, a2)
        got = basis.coefficients(n)
        assert len(got) == len(exact)
        for k_got, k_exact in zip(got, exact):
            # Coefficients are moderate integers; float64 represents them exactly.
            assert k_got == float(k_exact)


def test_eval_matches_brute_force_expansion():
    basis = HeatPolynomialBasis(1.0, 12)
    rng = np.random.default_rng(42)
    for n in range(13):
        for _ in range(10):
            x = float(rng.uniform(-2, 2))
            t = float(rng.uniform(0, 2))
            ref = brute_force_eval(n, 1, x, t)
            assert basis.eval(n, x, t) == pytest.approx(ref, rel=1e-12, abs=1e-12)
            assert basis.design(x, t)[n] == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_derivative_ladder_four_ulps():
    basis = HeatPolynomialBasis(1.0, 20)
    rng = np.random.default_rng(7)
    xs = rng.uniform(-2, 2, 100)
    ts = rng.uniform(0, 2, 100)
    for n in range(1, 21):
        lhs = basis.eval_dx(n, xs, ts)
        rhs = n * basis.eval(n - 1, xs, ts)
        tol = 4 * np.spacing(np.abs(rhs) + 1e-300)
        assert np.all(np.abs(lhs - rhs) <= tol)


def test_eval_dx_matches_termwise_differentiation():
    basis = HeatPolynomialBasis(1.0, 12)
    rng = np.random.default_rng(3)
    for n in range(13):
        for _ in range(5):
            x = float(rng.uniform(-2, 2))
            t = float(rng.uniform(0, 2))
            ref = brute_force_eval_dx(n, 1, x, t)
            assert basis.eval_dx(n, x, t) == pytest.approx(ref, rel=1e-11, abs=1e-11)
            assert basis.design(x, t, "dx")[n] == pytest.approx(ref, rel=1e-11, abs=1e-11)


def test_time_derivative_against_finite_differences():
    basis = HeatPolynomialBasis(1.0, 20)
    rng = np.random.default_rng(11)
    h = 1e-5
    for n in range(21):
        x = float(rng.uniform(-2, 2))
        t = float(rng.uniform(0.1, 2))
        fd = (basis.eval(n, x, t + h) - basis.eval(n, x, t - h)) / (2 * h)
        exact = basis.design(x, t, "dt")[n]
        assert exact == pytest.approx(fd, rel=1e-4, abs=1e-4)


def test_caloric_identity_in_floating_point():
    # d/dt v_n and a^2 d2/dx2 v_n reduce to the same combination; evaluating
    # them through different accumulation paths must agree to rounding.
    for a in (1.0, 1.3):
        basis = HeatPolynomialBasis(a, 20)
        rng = np.random.default_rng(5)
        xs = rng.uniform(-2, 2, 100)
        ts = rng.uniform(0, 2, 100)
        for n in range(21):
            ut = basis.design(xs, ts, "dt")[n]
            uxx = (n * (n - 1) * basis.eval(n - 2, xs, ts)) if n >= 2 else np.zeros(100)
            vn = basis.eval(n, xs, ts)
            assert np.all(np.abs(ut - a * a * uxx) <= 1e-9 * (1 + np.abs(vn)))


def test_restriction_to_time_zero():
    basis = HeatPolynomialBasis(1.0, 20)
    # Integer abscissas are exact for every power up to 2^20 < 2^53.
    for x in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for n in range(21):
            assert basis.eval(n, x, 0.0) == x ** n
    rng = np.random.default_rng(9)
    xs = rng.uniform(-2, 2, 100)
    for n in range(21):
        got = basis.eval(n, xs, 0.0)
        ref = xs ** n
        # At t = 0 the recurrence forms x^n as n - 1 successive products,
        # each rounding by at most half an ulp; the roundings partly cancel,
        # and the drift stays within about one ulp per two multiplies.
        tol = (n // 2 + 2) * np.spacing(np.abs(ref) + 1e-300)
        assert np.all(np.abs(got - ref) <= tol)


def test_pinned_point_values():
    basis = HeatPolynomialBasis(1.0, 6)
    assert basis.eval(0, 17.0, -3.0) == 1.0
    assert basis.eval(1, 3.5, -2.0) == 3.5
    assert basis.eval(4, 1.0, 1.0) == 25.0
    assert basis.eval(3, 2.0, 1.0) == 20.0
    assert basis.eval_dx(0, 1.0, 1.0) == 0.0
    assert basis.eval_dx(2, 1.5, 0.7) == 3.0
    assert basis.eval_dx(4, 1.0, 1.0) == 28.0
    assert basis.design(0.3, 0.4, "dt")[1] == 0.0
    assert basis.design(0.3, 0.4, "dt")[2] == 2.0
    assert basis.design(1.0, 1.0, "dt")[4] == 36.0
    # v_2 = x^2 + 2t vanishes at (1, -1/2); negative time is allowed.
    assert basis.eval(2, 1.0, -0.5) == 0.0


def test_combination_values_and_derivatives():
    basis = HeatPolynomialBasis(1.0, 2)
    e0 = np.array([1.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0])
    ones = np.array([1.0, 1.0, 1.0])
    assert basis.eval_combination(e0, 0.3, 0.9) == 1.0
    assert basis.eval_combination(e1, 2.0, 5.0) == 2.0
    assert basis.eval_combination(ones, 1.0, 1.0) == 5.0
    assert basis.eval_combination(ones, 1.0, 1.0, deriv="dx") == 0.0 + 1.0 + 2.0
    assert basis.eval_combination(ones, 1.0, 1.0, deriv="dt") == 2.0


def test_combination_broadcasts_like_pointwise_loop():
    basis = HeatPolynomialBasis(1.0, 5)
    rng = np.random.default_rng(21)
    coeffs = rng.standard_normal(6)
    xs = rng.uniform(-1, 1, (3, 4))
    ts = rng.uniform(0, 1, (3, 4))
    grid = basis.eval_combination(coeffs, xs, ts)
    assert grid.shape == (3, 4)
    assert basis.design(0.5, 0.5).shape == (6,)
    assert basis.design(xs, ts).shape == (6, 3, 4)
    for i in range(3):
        for j in range(4):
            point = basis.eval_combination(coeffs, float(xs[i, j]), float(ts[i, j]))
            assert grid[i, j] == pytest.approx(point, rel=1e-14, abs=1e-14)


def test_validation_errors():
    with pytest.raises(ValueError):
        HeatPolynomialBasis(0.0, 4)
    with pytest.raises(ValueError):
        HeatPolynomialBasis(1.0, -1)
    basis = HeatPolynomialBasis(1.0, 4)
    with pytest.raises(ValueError):
        basis.eval(5, 0.0, 0.0)
    with pytest.raises(ValueError):
        basis.eval(-1, 0.0, 0.0)
    with pytest.raises(ValueError):
        basis.eval_combination(np.ones(4), 0.0, 0.0)
    with pytest.raises(ValueError):
        basis.eval_combination(np.array([1.0, np.inf, 0, 0, 0]), 0.0, 0.0)
    with pytest.raises(ValueError):
        basis.eval_combination(np.ones(5), 0.0, 0.0, deriv="dy")
    with pytest.raises(ValueError):
        basis.design(0.0, 0.0, deriv="dy")
    assert basis.size == 5


def test_rows_do_not_depend_on_max_order():
    rng = np.random.default_rng(17)
    xs = rng.uniform(-2, 2, 50)
    ts = rng.uniform(-1, 2, 50)
    for a in (1.0, 1.3):
        small, large = HeatPolynomialBasis(a, 12), HeatPolynomialBasis(a, 24)
        for deriv in ("value", "dx", "dt"):
            assert np.array_equal(small.design(xs, ts, deriv), large.design(xs, ts, deriv)[:13])


def test_row_table_fills_on_demand_bit_for_bit():
    # Several node sets on one point axis, asked for at any orders and in any
    # order of requests, give each set's design rows bit for bit; the rows a
    # table gave out earlier stay valid.
    from stefanflux.basis import RowTable

    rng = np.random.default_rng(5)
    sets = [(rng.uniform(0, 2, 40), rng.uniform(0, 1, 40), "value"),
            (0.0, rng.uniform(0, 1, 33), "dx"), (rng.uniform(0, 2, (3, 4)), 0.5, "dt"),
            (rng.uniform(0, 2, 7), rng.uniform(0, 1, 7), "dx")]
    basis = HeatPolynomialBasis(1.3, 20)
    designs = [basis.design(x, t, deriv).reshape(21, -1) for x, t, deriv in sets]
    table = RowTable(*sets)
    early = basis.rows(table, 5, 3)[0]
    for order, which in ((9, (1, 2)), (7, (0,)), (16, (3,)), (20, (0, 1, 2, 3)), (3, (2,))):
        got = basis.rows(table, order, *which)
        for i, rows in zip(which, got):
            assert np.array_equal(rows, designs[i][:order + 1])
    assert np.array_equal(early, designs[3][:6])
    with pytest.raises(DomainError, match="filled by the basis"):
        HeatPolynomialBasis(1.3, 20).rows(table, 3, 0)
    with pytest.raises(DomainError, match="order"):
        basis.rows(RowTable(*sets), 21, 0)


def test_row_table_checks_its_sets_when_built():
    # An unknown tag or an empty table is refused by the constructor, so no
    # table, and no buffer, exists; a bad tag is not left for its first read.
    from stefanflux.basis import RowTable

    with pytest.raises(DomainError, match="deriv must be 'value', 'dx' or 'dt', got 'bogus'"):
        RowTable((np.ones(3), 0.5, "value"), (0.0, np.ones(4), "bogus"))
    with pytest.raises(DomainError, match="at least one node set"):
        RowTable()


@pytest.mark.parametrize("a", [1.0, 1.3])
def test_design_against_exact_rational_sums(a):
    # Reference: the monomial sum in exact rationals at the float inputs, with
    # a^2 taken exactly from the float a.  The recurrence must stay within
    # 8 eps of the sum of the terms' magnitudes, negative times included.
    basis = HeatPolynomialBasis(a, 24)
    a2 = Fraction(a) ** 2
    rng = np.random.default_rng(29)
    xs = rng.uniform(-2, 2, 40)
    ts = rng.uniform(-1, 2, 40)
    rows = basis.design(xs, ts)
    eps = Fraction(np.finfo(float).eps)
    for n in range(25):
        ks = brute_force_coefficients(n, a2)
        for j in range(40):
            x, t = Fraction(xs[j]), Fraction(ts[j])
            terms = [k * x ** (n - 2 * m) * t ** m for m, k in enumerate(ks)]
            err = abs(Fraction(rows[n, j]) - sum(terms))
            assert err <= 8 * eps * sum(abs(term) for term in terms)


def test_combine_against_exact_sum():
    basis = HeatPolynomialBasis(1.3, 20)
    rng = np.random.default_rng(31)
    rows = basis.design(rng.uniform(-2, 2, (5, 8)), rng.uniform(-1, 2, (5, 8)))
    coeffs = rng.standard_normal(21) * 10.0 ** rng.integers(-6, 3, 21)
    got = basis.combine(coeffs, rows)
    assert got.shape == (5, 8)
    eps = Fraction(np.finfo(float).eps)
    for i in range(5):
        for j in range(8):
            products = [Fraction(c) * Fraction(r) for c, r in zip(coeffs, rows[:, i, j])]
            err = abs(Fraction(got[i, j]) - sum(products))
            assert err <= 4 * eps * sum(abs(p) for p in products)


def test_combine_validation_and_scalar_return():
    basis = HeatPolynomialBasis(1.0, 4)
    rows = basis.design(np.linspace(0, 1, 7), 0.5)
    for bad in (np.ones(4), np.ones(6), np.ones((1, 5)), np.array([1.0, np.nan, 0, 0, 0]),
                np.array([0, 0, 0, 0, -np.inf])):
        with pytest.raises(DomainError):
            basis.combine(bad, rows)
    value = basis.combine(np.ones(5), basis.design(1.0, 1.0))
    assert type(value) is float
    assert value == 1.0 + 1.0 + 3.0 + 7.0 + 25.0
    # combine_rows takes an (h, N + 1) block and gives each row's flat sums.
    block = np.arange(15.0).reshape(3, 5) / 7.0
    assert np.array_equal(basis.combine_rows(block, rows),
                          [basis.combine(row, rows) for row in block])
    for bad in (np.ones(5), np.ones((2, 4)), np.ones((1, 1, 5)), np.array([[1.0, 0, 0, 0, np.nan]])):
        with pytest.raises(DomainError):
            basis.combine_rows(bad, rows)


@pytest.mark.parametrize("order", [0, 1])
def test_lowest_orders_skip_the_recurrence(order):
    basis = HeatPolynomialBasis(1.3, order)
    xs = np.array([-1.5, 0.0, 2.0])
    ts = np.array([0.5, -1.0, 2.0])
    assert np.array_equal(basis.design(xs, ts), [np.ones(3), xs][:order + 1])
    assert np.array_equal(basis.design(xs, ts, "dx"), [np.zeros(3), np.ones(3)][:order + 1])
    assert np.array_equal(basis.design(xs, ts, "dt"), np.zeros((order + 1, 3)))
    assert basis.design(0.5, 0.5).shape == (order + 1,)
    assert basis.eval_combination(np.full(order + 1, 2.0), 0.5, 0.5) == 2.0 + order
