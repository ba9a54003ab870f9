"""Benchmark problem definitions: pinned values and PDE residual invariants."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from stefanflux import (
    BenchmarkId,
    DomainError,
    StefanProblem,
    benchmark_problem,
    example1,
    example2,
    linear_boundary_problem,
    neumann_consistency,
    sqrt_boundary_problem,
)
from stefanflux.problem import EXAMPLE2_ALPHA, EXAMPLE2_T0, _erf


def test_example1_pinned_values():
    prob = example1()
    s0 = math.sqrt(2.0) - 1.0
    assert prob.boundary(0.0) == pytest.approx(s0, rel=1e-14)
    assert prob.boundary(1.0) == pytest.approx(s0 + 1.0 / math.sqrt(2.0), rel=1e-14)
    # Flux at the origin at t = 0: -(1/sqrt(2)) exp(1 - 1/sqrt(2)).
    ref = -(1.0 / math.sqrt(2.0)) * math.exp(1.0 - 1.0 / math.sqrt(2.0))
    assert prob.exact_flux_gradient(0.0) == pytest.approx(ref, rel=1e-13)
    assert prob.exact_flux_gradient(0.0) == pytest.approx(-0.9477, abs=1e-4)
    assert prob.melt_temperature == 0.0


def test_example2_pinned_values():
    prob = example2()
    assert prob.boundary(0.0) == pytest.approx(0.5, abs=2e-5)
    assert prob.boundary(0.0) == pytest.approx(
        2.0 * EXAMPLE2_ALPHA * math.sqrt(EXAMPLE2_T0), rel=1e-14)
    assert prob.exact_flux_gradient(0.0) == pytest.approx(-2.259, abs=2e-3)
    # Independent closed form: u_x(0,0) = -alpha exp(alpha^2) / sqrt(t0).
    ref = -EXAMPLE2_ALPHA * math.exp(EXAMPLE2_ALPHA ** 2) / math.sqrt(EXAMPLE2_T0)
    assert prob.exact_flux_gradient(0.0) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("prob", [example1(), example2()], ids=["example1", "example2"])
def test_stefan_condition_residual(prob):
    ts = np.linspace(0.0, prob.horizon, 101)
    for t in ts:
        s = prob.boundary(t)
        h = 1e-6 * s
        ux = (prob.exact_solution(s + h, t) - prob.exact_solution(s - h, t)) / (2 * h)
        lhs = -prob.conductivity * ux
        rhs = prob.latent_heat * prob.density * prob.boundary_rate(t)
        assert abs(lhs - rhs) <= 1e-8


@pytest.mark.parametrize("prob", [example1(), example2()], ids=["example1", "example2"])
def test_heat_equation_residual(prob):
    rng = np.random.default_rng(17)
    a2 = prob.diffusivity ** 2
    h = 1e-4
    for _ in range(100):
        t = float(rng.uniform(0.05, prob.horizon))
        x = float(rng.uniform(0.0, prob.boundary(t)))
        u = prob.exact_solution
        ut = (u(x, t + h) - u(x, t - h)) / (2 * h)
        uxx = (u(x + h, t) - 2 * u(x, t) + u(x - h, t)) / (h * h)
        assert abs(ut - a2 * uxx) <= 1e-4


@pytest.mark.parametrize("prob", [example1(), example2()], ids=["example1", "example2"])
def test_boundary_data_consistency(prob):
    # Initial profile is the exact solution at t = 0; the temperature on the
    # moving boundary equals the melt value.
    xs = np.linspace(0.0, prob.boundary(0.0), 50)
    for x in xs:
        assert prob.initial_profile(float(x)) == pytest.approx(
            prob.exact_solution(float(x), 0.0), rel=1e-12, abs=1e-12)
    ts = np.linspace(0.0, prob.horizon, 50)
    for t in ts:
        assert prob.exact_solution(prob.boundary(float(t)), float(t)) == pytest.approx(
            prob.melt_temperature, abs=1e-10)


def test_flux_gradient_matches_numerical_derivative():
    # The closed-form gradient at x = 0 against a central difference of the
    # exact temperature field.
    h = 1e-5
    for prob in (example1(), example2()):
        for t in (0.0, 0.4, 1.0):
            ref = (prob.exact_solution(h, t) - prob.exact_solution(-h, t)) / (2 * h)
            assert prob.exact_flux_gradient(t) == pytest.approx(ref, rel=1e-8)


def test_erf_accuracy_against_mpmath():
    for z in np.linspace(0.0, 4.0, 21):
        assert abs(_erf(z) - float(mpmath.erf(z))) <= 4e-16


def test_erf_within_4_ulp_of_math_erf():
    # Both branches of the rational approximation, their seam at 0.5 and the
    # clip at 6 lie inside the grid.
    x = np.linspace(-6.5, 6.5, 200_001)
    ref = np.array([math.erf(v) for v in x])
    ulps = np.abs(_erf(x) - ref) / np.spacing(np.abs(ref))
    assert ulps.max() <= 4.0


def test_erf_special_values_and_shape():
    x = np.linspace(0.0, 7.0, 701)
    np.testing.assert_array_equal(_erf(-x), -_erf(x))
    zeros = _erf(np.array([0.0, -0.0]))
    np.testing.assert_array_equal(zeros, [0.0, 0.0])
    np.testing.assert_array_equal(np.signbit(zeros), [False, True])
    np.testing.assert_array_equal(_erf(np.array([np.inf, -np.inf])), [1.0, -1.0])
    assert np.isnan(_erf(np.nan))
    assert _erf(np.ones((3, 4))).shape == (3, 4)
    assert np.shape(_erf(0.5)) == ()


def test_erf_branches_on_their_own_elements_equal_the_where_form():
    # _erf evaluates each branch of Cody's approximation only where it is
    # taken; the bits and signs must be those of evaluating both everywhere
    # and picking with np.where.
    from stefanflux.problem import _ERF_FAR, _ERF_NEAR, _rational

    def where_form(x):
        y = np.minimum(np.abs(x), 6.0)
        z = y * y
        near = y * _rational(z, *_ERF_NEAR)
        far = 1.0 - np.exp(-z) * _rational(y, *_ERF_FAR)
        return np.copysign(np.where(y <= 0.5, near, far), x)

    x = np.concatenate([np.linspace(-7.0, 7.0, 14_001), np.nextafter(0.5, [0.0, 1.0]),
                        [0.0, -0.0, 0.5, -0.5, 6.0, -6.0, np.inf, -np.inf, np.nan, 5e-324]])
    for value in (x, x.reshape(-1, 1)[:14_000].reshape(140, 100), np.float64(-0.25),
                  np.array(0.75), np.array(-0.0), np.array(np.nan)):
        got, want = _erf(value), where_form(value)
        assert np.shape(got) == np.shape(want)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_neumann_consistency_values():
    val = neumann_consistency(EXAMPLE2_ALPHA)
    assert val == pytest.approx(1.0, abs=1e-4)
    ref = float(EXAMPLE2_ALPHA * mpmath.sqrt(mpmath.pi)
                * mpmath.exp(EXAMPLE2_ALPHA ** 2) * mpmath.erf(EXAMPLE2_ALPHA))
    assert val == pytest.approx(ref, rel=1e-12)
    assert neumann_consistency(0.0) == 0.0
    assert neumann_consistency(1.0) == pytest.approx(4.0601, abs=1e-3)
    assert neumann_consistency(1.0) > 1.0


def test_interface_flux():
    prob = example1()
    p1 = 1.0 / math.sqrt(2.0)
    assert prob.interface_flux(0.3) == pytest.approx(p1, rel=1e-14)
    ts = np.array([0.0, 0.5, 1.0])
    np.testing.assert_allclose(prob.interface_flux(ts), np.full(3, p1), rtol=1e-14)
    prob2 = example2()
    t = 0.25
    ref = EXAMPLE2_ALPHA / math.sqrt(t + EXAMPLE2_T0)
    assert prob2.interface_flux(t) == pytest.approx(ref, rel=1e-12)


def test_benchmark_factory():
    for ident in ("example1", BenchmarkId.EXAMPLE1):
        prob = benchmark_problem(ident, horizon=2.0)
        assert prob.horizon == 2.0
        assert prob.label == "example1"
    prob = benchmark_problem("example2")
    assert prob.label == "example2"
    with pytest.raises(ValueError):
        benchmark_problem("example3")
    # A preset called with a horizon builds the problem benchmark_problem does.
    ts = np.linspace(0.0, 2.0, 5)
    for ident in BenchmarkId:
        mine, theirs = ident(2.0), benchmark_problem(ident.value, 2.0)
        assert (mine.label, mine.horizon) == (theirs.label, theirs.horizon) == (ident.value, 2.0)
        assert mine.boundary(ts).tolist() == theirs.boundary(ts).tolist()
    assert BenchmarkId.EXAMPLE2().horizon == 1.0


def test_factory_validation():
    with pytest.raises(DomainError):
        linear_boundary_problem(0.0, 1.0)
    with pytest.raises(DomainError):
        linear_boundary_problem(0.1, -0.2)  # boundary crosses zero before T
    with pytest.raises(DomainError):
        sqrt_boundary_problem(-1.0, 0.1)
    with pytest.raises(DomainError):
        sqrt_boundary_problem(0.5, 0.0)
    with pytest.raises(DomainError):
        example1(horizon=0.0)
    # The factories divide by these; zero used to raise ZeroDivisionError or warn.
    for name in ("diffusivity", "conductivity", "latent_heat", "density"):
        for value in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match=name):
                linear_boundary_problem(0.4, 0.7, **{name: value})
            with pytest.raises(DomainError, match=name):
                sqrt_boundary_problem(0.6, 0.16, **{name: value})
    with pytest.raises(DomainError):
        StefanProblem(
            diffusivity=1.0, conductivity=-1.0, latent_heat=1.0, density=1.0,
            melt_temperature=0.0, horizon=1.0, boundary=lambda t: 1.0 + t,
            boundary_rate=lambda t: 1.0, initial_profile=lambda x: 0.0)


_BOUNDARY = "boundary s(t) must stay positive and finite on [0, horizon]"
_FALLING = "boundary must stay positive over the horizon"
_P0 = "p0 must be positive so the initial domain is non-empty, got "


def _horizon(value):
    return f"horizon must be positive and finite, got {value}"


def _user(horizon):  # a problem of user callables
    return StefanProblem(diffusivity=1.0, conductivity=1.0, latent_heat=1.0, density=1.0,
                         melt_temperature=0.0, horizon=horizon, boundary=lambda t: 1.0 + t,
                         boundary_rate=lambda t: 1.0, initial_profile=lambda x: 0.0)


# Bad family inputs and the DomainError message each raises.  A family boundary is monotone, and
# so are its rounded values, so its two ends must decide its check as a probe at 101 times would.
_BAD_FAMILY_INPUTS = [
    *[(linear_boundary_problem, (v, 0.7), {}, message) for v, message in (
        (math.nan, _BOUNDARY), (math.inf, _BOUNDARY), (-math.inf, _P0 + "-inf"),
        (0.0, _P0 + "0.0"), (-1.0, _P0 + "-1.0"))],
    *[(linear_boundary_problem, (0.4, v), {}, message) for v, message in (
        (math.nan, _BOUNDARY), (math.inf, _BOUNDARY), (-math.inf, _FALLING), (-1.0, _FALLING))],
    *[(sqrt_boundary_problem, (v, 0.16), {}, message) for v, message in (
        (math.nan, _BOUNDARY), (math.inf, _BOUNDARY), (-math.inf, "alpha must be positive, got -inf"),
        (0.0, "alpha must be positive, got 0.0"), (-1.0, "alpha must be positive, got -1.0"))],
    *[(sqrt_boundary_problem, (0.6, v), {}, message) for v, message in (
        (math.nan, _BOUNDARY), (math.inf, _BOUNDARY), (-math.inf, "t0 must be positive, got -inf"),
        (0.0, "t0 must be positive, got 0.0"), (-1.0, "t0 must be positive, got -1.0"))],
    # A bad horizon gets StefanProblem's message: the linear family checks it before s(horizon).
    *[(linear_boundary_problem, (0.4, 0.7), {"horizon": v}, _horizon(v))
      for v in (math.nan, math.inf, -math.inf, 0.0, -1.0)],
    *[(sqrt_boundary_problem, (0.6, 0.16), {"horizon": v}, _horizon(v))
      for v in (math.nan, math.inf, -math.inf, 0.0, -1.0)],
    # p1 * horizon overflows to inf, s(0) is finite and s(horizon) is not.
    (linear_boundary_problem, (0.4, 1e300), {"horizon": 1e10}, _BOUNDARY),
    (linear_boundary_problem, (0.4, -1e300), {"horizon": 1e10}, _FALLING),
    (sqrt_boundary_problem, (1e308,), {"t0": 0.16}, _BOUNDARY),
    # s(0) underflows to 0 while s(horizon) is positive.
    (sqrt_boundary_problem, (5e-324, 1e-300), {}, _BOUNDARY),
    # An integer horizon beyond the float range, which float() cannot convert.
    *[pytest.param(build, (10 ** 400,), {}, _horizon(10 ** 400), id=f"huge_horizon-{build.__name__}")
      for build in (example1, example2, _user)],
]


@pytest.mark.parametrize("family, args, kwargs, message", _BAD_FAMILY_INPUTS)
def test_bad_family_inputs_keep_their_errors(family, args, kwargs, message):
    with pytest.raises(DomainError) as caught:
        family(*args, **kwargs)
    assert type(caught.value) is DomainError and str(caught.value) == message


def test_family_boundary_checks_cover_rebuilt_problems():
    # A constant boundary builds; a falling one built at a short horizon fails when it is rebuilt
    # at a longer one, where s(horizon) < 0, and a bad horizon keeps StefanProblem's message.
    assert linear_boundary_problem(0.4, 0.0).boundary(1.0) == 0.4
    short = linear_boundary_problem(0.4, -0.7, horizon=0.5)
    with pytest.raises(DomainError) as caught:
        dataclasses.replace(short, horizon=1.0)
    assert str(caught.value) == _BOUNDARY
    # A numpy-scalar horizon whose boundary overflows there: the typed error and no warning.
    with pytest.raises(DomainError) as caught:
        dataclasses.replace(linear_boundary_problem(0.4, 1e300), horizon=np.float64(1e10))
    assert str(caught.value) == _BOUNDARY
    for value in (math.nan, -1.0, 10 ** 400):
        with pytest.raises(DomainError) as caught:
            dataclasses.replace(example2(), horizon=value)
        assert str(caught.value) == _horizon(value)
    # A family boundary beside other callables is checked over the problem's horizon too.
    with pytest.raises(DomainError) as caught:
        dataclasses.replace(example2(), boundary=short.boundary)
    assert str(caught.value) == _BOUNDARY


def test_scalar_only_callables_are_sampled_pointwise():
    # math-based callables reject arrays and a constant rate returns a
    # scalar; the problem wraps each of them once, so arrays work everywhere.
    s = lambda t: math.exp(t)
    u = lambda x, t: math.sin(x) + t
    prob = StefanProblem(
        diffusivity=1.0, conductivity=1.0, latent_heat=1.0, density=1.0,
        melt_temperature=0.0, horizon=1.0, boundary=s, boundary_rate=lambda t: 1.0,
        initial_profile=lambda x: math.sin(x), exact_solution=u)
    out = prob.boundary(np.array([0.0, 1.0]))
    np.testing.assert_allclose(out, [1.0, math.e], rtol=1e-15)
    np.testing.assert_array_equal(prob.boundary_rate(np.array([0.0, 0.5, 1.0])), np.ones(3))
    out = prob.exact_solution(np.array([0.0, 0.5]), np.array([1.0, 2.0]))
    np.testing.assert_allclose(out, [1.0, math.sin(0.5) + 2.0], rtol=1e-15)


def test_family_callables_are_not_probed_but_a_users_are(monkeypatch):
    # The two families' closures take arrays, so a build evaluates only their
    # boundary, for its sign: example2's erf-based oracles are not called.
    import stefanflux.problem as problem_module

    calls = []
    erf = problem_module._erf
    monkeypatch.setattr(problem_module, "_erf", lambda x: calls.append(1) or erf(x))
    prob = example2()
    assert calls == []
    assert not isinstance(prob.exact_solution, np.vectorize)
    prob.initial_profile(np.array([0.1, 0.2]))
    assert calls == [1]
    # A user's callable beside them is still probed, and wrapped if scalar-only,
    # and a user's boundary still has its sign checked.
    custom = dataclasses.replace(prob, initial_profile=lambda x: math.cos(x))
    assert isinstance(custom.initial_profile, np.vectorize)
    assert custom.exact_solution is prob.exact_solution
    with pytest.raises(DomainError, match="boundary"):
        dataclasses.replace(prob, boundary=lambda t: 0.5 - t)


def test_material_parameters_propagate():
    prob = linear_boundary_problem(0.4, 0.7, conductivity=2.0, latent_heat=3.0,
                                   density=0.5, diffusivity=1.1)
    assert prob.conductivity == 2.0
    # Interface flux scales with L * gamma.
    assert prob.interface_flux(0.0) == pytest.approx(3.0 * 0.5 * 0.7, rel=1e-14)
    # The manufactured solution still satisfies the Stefan condition.
    t, s = 0.5, prob.boundary(0.5)
    h = 1e-6 * s
    ux = (prob.exact_solution(s + h, t) - prob.exact_solution(s - h, t)) / (2 * h)
    assert -prob.conductivity * ux == pytest.approx(
        prob.latent_heat * prob.density * prob.boundary_rate(t), abs=1e-8)
