"""Collocation assembly: pinned entries, quadrature stability, invariances."""

import math
import re

import numpy as np
import pytest

from stefanflux import (
    CollocationScheme,
    DomainError,
    HeatPolynomialBasis,
    NoiseSpec,
    NumericalError,
    StefanProblem,
    assemble,
    example1,
    example2,
    preset_scheme,
    run_case,
    solve_direct,
)
from stefanflux import experiments
from stefanflux.assembly import (LinearSystem, _require_finite, interface_nodes, panel_sums,
                                 stefan_nodes)
from stefanflux.quadrature import subdivided_nodes, uniform


def test_preset_scheme_rule():
    expected = {4: (3, 1, 1), 6: (4, 2, 1), 8: (5, 3, 1),
                10: (6, 4, 1), 12: (6, 5, 2), 14: (7, 6, 2)}
    for order, counts in expected.items():
        scheme = preset_scheme(order)
        assert (scheme.n_dirichlet, scheme.n_stefan, scheme.n_initial) == counts
        assert scheme.size == order + 1
    for order in range(3, 31):
        scheme = preset_scheme(order)
        assert scheme.size == order + 1
        assert scheme.n_dirichlet >= scheme.n_stefan
    with pytest.raises(ValueError):
        preset_scheme(2)
    assert preset_scheme(8, quadrature_order=32).quadrature_order == 32


def test_scheme_validation():
    with pytest.raises(ValueError):
        CollocationScheme(0, 1, 1)
    with pytest.raises(ValueError):
        CollocationScheme(3, -1, 1)
    with pytest.raises(ValueError):
        CollocationScheme(2, 3, 1)  # temperature rows must dominate
    for quad in (4, 16.5, math.nan, 10 ** 400):
        with pytest.raises(DomainError, match="quadrature_order"):
            CollocationScheme(3, 1, 1, quadrature_order=quad)
    # 16.0 passed the check but reached the Gauss rule as a float, which numpy refuses.
    assert type(preset_scheme(8, quadrature_order=16.0).quadrature_order) is int
    assert CollocationScheme(6, 5, 2).size == 13


@pytest.mark.parametrize("bad", [math.nan, math.inf, pytest.param(10 ** 400, id="huge")])
@pytest.mark.parametrize("build", [
    lambda bad: CollocationScheme(bad, 1, 1),
    lambda bad: preset_scheme(bad),
    lambda bad: HeatPolynomialBasis(1.0, bad),
    lambda bad: HeatPolynomialBasis(1.0, 4).coefficients(bad),
], ids=["scheme", "preset_scheme", "basis", "basis_order"])
def test_non_finite_counts_raise_domain_error(build, bad):
    # int(nan) raised a bare ValueError, and int(inf) and float(10**400) an OverflowError.
    with pytest.raises(DomainError, match="integer|order"):
        build(bad)


def test_linear_system_validation():
    with pytest.raises(ValueError):
        LinearSystem(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        LinearSystem(np.eye(2), np.ones(3))


def test_pinned_entries_example1():
    prob = example1()
    s0 = math.sqrt(2.0) - 1.0

    # First temperature row over [0, 1/2]: the n = 0 column integrates 1.
    basis4 = HeatPolynomialBasis(1.0, 4)
    system = assemble(prob, basis4, CollocationScheme(2, 1, 2))
    assert system.matrix[0, 0] == pytest.approx(0.5, abs=1e-14)
    assert system.rhs[0] == 0.0  # melt temperature is zero

    # Preset order 12 puts five energy-balance rows on steps of 0.2: the
    # n = 1 column integrates -conductivity * 1, the data side integrates
    # L * gamma * s'.
    basis12 = HeatPolynomialBasis(1.0, 12)
    system = assemble(prob, basis12, preset_scheme(12))
    stefan_row = 6
    assert system.matrix[stefan_row, 1] == pytest.approx(-0.2, abs=1e-14)
    assert system.rhs[stefan_row] == pytest.approx(0.2 / math.sqrt(2.0), rel=1e-12)

    # Preset order 10 has a single initial row over [0, s0]: the n = 2 column
    # holds s0^3 / 3.
    basis10 = HeatPolynomialBasis(1.0, 10)
    system = assemble(prob, basis10, preset_scheme(10))
    assert system.matrix[10, 2] == pytest.approx(s0 ** 3 / 3.0, rel=1e-13)
    assert system.matrix[10, 2] == pytest.approx(0.023689270, rel=1e-7)


@pytest.mark.parametrize("prob", [example1(), example2()], ids=["example1", "example2"])
@pytest.mark.parametrize("order", [8, 20])
def test_quadrature_order_doubling(prob, order):
    basis = HeatPolynomialBasis(1.0, order)
    coarse = assemble(prob, basis, preset_scheme(order, quadrature_order=16))
    fine = assemble(prob, basis, preset_scheme(order, quadrature_order=32))
    scale = np.abs(fine.matrix).max()
    np.testing.assert_allclose(coarse.matrix, fine.matrix,
                               rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(coarse.rhs, fine.rhs,
                               rtol=1e-12, atol=1e-12 * np.abs(fine.rhs).max())


@pytest.mark.parametrize("prob", [example1(), example2()], ids=["example1", "example2"])
def test_initial_rows_match_quadrature(prob):
    # Closed-form moment entries against a Gauss rule computed here.
    basis = HeatPolynomialBasis(1.0, 12)
    scheme = preset_scheme(12)
    system = assemble(prob, basis, scheme)
    s0 = prob.boundary(0.0)
    nodes, weights = subdivided_nodes(0.0, s0, scheme.n_initial, 24)
    start = scheme.n_dirichlet + scheme.n_stefan
    for n in range(13):
        vals = (weights * nodes ** n).reshape(scheme.n_initial, 24).sum(axis=1)
        for j in range(scheme.n_initial):
            assert system.matrix[start + j, n] == pytest.approx(
                vals[j], rel=1e-13, abs=1e-16)


def test_uniform_grids_are_linspace_bit_for_bit():
    # Every uniform grid of the package (edges, flux samples, the problem's probe) comes from
    # quadrature.uniform, which must equal np.linspace bit for bit, also where its step
    # underflows to zero, overflows, or is negative.
    rng = np.random.default_rng(3)
    stops = [1.0, 1 / 3, 1.5, 7.0, 1e-300, 5e-324, 1e-322, 1.7e308, math.inf, math.nan]
    stops += (10.0 ** rng.uniform(-8, 8, 40)).tolist()
    for lo in (0.0, -0.0, 0.25, -2.0):
        for hi in stops + [-stop for stop in stops] + [lo]:
            for num in (2, 3, 6, 17, 101):
                with np.errstate(over="ignore", invalid="ignore"):
                    grid, expected = uniform(lo, hi, num), np.linspace(lo, hi, num)
                assert grid.dtype == np.float64 and grid.shape == (num,)
                np.testing.assert_array_equal(grid.view(np.uint64), expected.view(np.uint64))


def test_dirichlet_reproduction_after_solve():
    # The reconstructed temperature tracks the melt value along the interface.
    prob = example1()
    basis = HeatPolynomialBasis(1.0, 12)
    system = assemble(prob, basis, preset_scheme(12))
    coeffs = solve_direct(system)
    ts = np.linspace(0.0, prob.horizon, 101)
    ss = np.array([prob.boundary(float(t)) for t in ts])
    vals = basis.eval_combination(coeffs, ss, ts)
    assert np.max(np.abs(vals - prob.melt_temperature)) <= 1e-4


def test_row_scaling_invariance():
    # Doubling conductivity and latent heat scales the energy-balance rows and
    # their data by 2 while leaving the exact solution, the other rows, and
    # the solved coefficients unchanged.
    p0, p1 = math.sqrt(2.0) - 1.0, 1.0 / math.sqrt(2.0)
    from stefanflux import linear_boundary_problem

    base = linear_boundary_problem(p0, p1)
    scaled = linear_boundary_problem(p0, p1, conductivity=2.0, latent_heat=2.0)
    basis = HeatPolynomialBasis(1.0, 8)
    scheme = preset_scheme(8)
    sys_base = assemble(base, basis, scheme)
    sys_scaled = assemble(scaled, basis, scheme)
    lo = scheme.n_dirichlet
    hi = lo + scheme.n_stefan
    np.testing.assert_allclose(sys_scaled.matrix[lo:hi], 2.0 * sys_base.matrix[lo:hi],
                               rtol=1e-12)
    np.testing.assert_allclose(sys_scaled.rhs[lo:hi], 2.0 * sys_base.rhs[lo:hi],
                               rtol=1e-12)
    np.testing.assert_array_equal(sys_scaled.matrix[:lo], sys_base.matrix[:lo])
    np.testing.assert_array_equal(sys_scaled.matrix[hi:], sys_base.matrix[hi:])
    np.testing.assert_allclose(solve_direct(sys_scaled), solve_direct(sys_base),
                               rtol=1e-10, atol=1e-14)


def test_residual_small_after_direct_solve():
    prob = example1()
    basis = HeatPolynomialBasis(1.0, 12)
    system = assemble(prob, basis, preset_scheme(12))
    coeffs = solve_direct(system)
    assert system.size == 13
    res = system.matrix @ coeffs - system.rhs
    assert np.max(np.abs(res)) <= 1e-8 * np.max(np.abs(system.rhs))


def test_size_mismatch_rejected():
    prob = example1()
    basis = HeatPolynomialBasis(1.0, 8)
    with pytest.raises(ValueError, match="sum to max_order"):
        assemble(prob, basis, preset_scheme(12))
    # A tuple raised a bare AttributeError; run_case took an empty one for no scheme.
    for bad in ((5, 3, 1), ()):
        message = rf"^scheme must be a CollocationScheme, got {re.escape(repr(bad))}$"
        with pytest.raises(DomainError, match=message):
            assemble(prob, basis, bad)
        with pytest.raises(DomainError, match=message):
            run_case(prob, 8, scheme=bad)


def _flat_interface_problem(initial_profile):
    return StefanProblem(
        diffusivity=1.0, conductivity=1.0, latent_heat=1.0, density=1.0,
        melt_temperature=0.0, horizon=1.0,
        boundary=lambda t: 1.0 + 0.5 * t,
        boundary_rate=lambda t: 0.5,
        initial_profile=initial_profile)


def test_nonfinite_values_name_the_offending_row(monkeypatch):
    basis = HeatPolynomialBasis(1.0, 4)
    scheme = preset_scheme(4)
    bad_initial = _flat_interface_problem(lambda x: float("inf"))
    with pytest.raises(NumericalError, match="initial row 1"):
        assemble(bad_initial, basis, scheme)
    # Noisy data enter through the panel sums of a sweep group, run_case's path.
    ok = _flat_interface_problem(lambda x: 0.0)
    monkeypatch.setattr(experiments, "scale_draws",
                        lambda spec, clean, draws, conductivity: np.full_like(draws, np.inf))
    with pytest.raises(NumericalError, match="stefan row 1"):
        run_case(ok, 4, noise=NoiseSpec(0.01))


def test_each_family_names_its_first_non_finite_row():
    # The finite check is one sum per family, and only a non-finite sum looks for the row.
    # Order 12 has 6 temperature, 5 energy-balance and 2 initial rows of 16 nodes each.
    basis, scheme = HeatPolynomialBasis(1.0, 12), preset_scheme(12)

    def problem(boundary=lambda t: 1.0 + 0.5 * t, profile=lambda x: 0.0 * x, **constants):
        return StefanProblem(**{"diffusivity": 1.0, "conductivity": 1.0, "latent_heat": 1.0,
                                "density": 1.0, "melt_temperature": 0.0, "horizon": 1.0,
                                **constants}, boundary=boundary, boundary_rate=lambda t: 0.5,
                             initial_profile=profile)

    def poisoned(family, node):  # design rows with one nan node in the family's rows
        nodes = interface_nodes(problem(), scheme)
        rows = [basis.design(s, t, deriv) for (t, _, s), deriv in zip(nodes, ("value", "dx"))]
        rows[family][5, node] = np.nan
        return nodes, rows

    cases = [  # (problem, nodes and rows or None, message): matrix-only, then rhs-only
        (problem(), poisoned(0, 16 + 3), "dirichlet row 2"),
        (problem(melt_temperature=1.7e308, horizon=7.0), None, "dirichlet row 1"),
        (problem(), poisoned(1, 2 * 16 + 5), "stefan row 3"),
        (problem(boundary=lambda t: 1.0 + 1e10 * (t > 0.3), latent_heat=1e300), None,
         "stefan row 2"),
        (problem(boundary=lambda t: 1e24 + 0.0 * t), None, "initial row 2"),  # s0**13 = inf
        (problem(profile=lambda x: np.where(x > 0.6, np.inf, 0.0)), None, "initial row 2")]
    for prob, hooks, message in cases:
        with pytest.raises(NumericalError, match=f"^non-finite value while assembling {message}$"):
            assemble(prob, basis, scheme, *(hooks or ()))
    # Finite rows whose sum overflows pass.
    with np.errstate(over="ignore", invalid="ignore"):
        _require_finite(np.full((2, 3), 1e308), np.array([1e308, -1e308]), "stefan")


def test_zero_level_noise_reproduces_clean_system():
    from stefanflux.noise import scale_draws, standard_draws

    prob = example1()
    basis = HeatPolynomialBasis(1.0, 8)
    scheme = preset_scheme(8)
    clean = assemble(prob, basis, scheme)
    t_nodes, t_weights = stefan_nodes(prob, scheme)
    data = scale_draws(NoiseSpec(0.0), prob.interface_flux(t_nodes),
                       standard_draws(0, t_nodes), prob.conductivity)
    rhs = clean.rhs.copy()
    rhs[scheme.n_dirichlet:scheme.n_dirichlet + scheme.n_stefan] = panel_sums(
        t_weights * data, scheme.quadrature_order)
    noisy = LinearSystem(clean.matrix, rhs)
    np.testing.assert_array_equal(noisy.matrix, clean.matrix)
    # Clean data integrates through the closed form, the zero-level path
    # through quadrature; they agree to quadrature accuracy.
    np.testing.assert_allclose(noisy.rhs, clean.rhs, rtol=1e-13, atol=1e-15)
