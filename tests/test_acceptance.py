"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion is exercised at its stated tolerance and runtime budget; the
summary line is written past the capture plugin so it always shows up in the
test log.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from stefanflux import (
    CollocationScheme,
    HeatPolynomialBasis,
    SweepGrid,
    assemble,
    benchmark_problem,
    condition_number,
    delta_p,
    delta_u,
    example1,
    example2,
    neumann_consistency,
    preset_scheme,
    run_case,
    run_sweep,
    solve_direct,
    solve_tikhonov,
)
from stefanflux.cli import main as cli_main
from stefanflux.problem import EXAMPLE2_ALPHA


@pytest.fixture
def report(request):
    """Emit one pass/fail line per criterion past the capture plugin."""
    manager = request.config.pluginmanager.getplugin("capturemanager")

    def _emit(number, ok, elapsed, limit, detail):
        line = (f"criterion {number:2d} {'PASS' if ok else 'FAIL'} "
                f"({elapsed:.2f}s/{limit:.0f}s): {detail}")
        if manager is not None:
            with manager.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)
        assert ok and elapsed < limit, line

    return _emit


def _clean_delta_p(prob, order, beta=0.0, scheme=None):
    report = run_case(prob, order, beta=beta, scheme=scheme)
    return report.delta_p


def test_criterion_01_basis_exactness(report):
    start = time.perf_counter()
    ok = True
    basis = HeatPolynomialBasis(1.0, 20)
    for n in range(13):
        exact = [Fraction(math.factorial(n),
                          math.factorial(m) * math.factorial(n - 2 * m))
                 for m in range(n // 2 + 1)]
        got = basis.coefficients(n)
        ok = ok and len(got) == len(exact)
        ok = ok and all(g == float(e) for g, e in zip(got, exact))
    rng = np.random.default_rng(101)
    xs = rng.uniform(-2.0, 2.0, 100)
    ts = rng.uniform(0.0, 2.0, 100)
    max_ulps = 0.0
    for n in range(1, 21):
        lhs = basis.eval_dx(n, xs, ts)
        rhs = n * basis.eval(n - 1, xs, ts)
        ulps = np.abs(lhs - rhs) / np.spacing(np.abs(rhs) + 1e-300)
        max_ulps = max(max_ulps, float(ulps.max()))
    ok = ok and max_ulps <= 4.0
    report(1, ok, time.perf_counter() - start, 1.0,
            f"exact-rational coefficients n<=12; ladder max {max_ulps:.1f} ulps")


def test_criterion_02_caloric_property(report):
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(202)
    xs = rng.uniform(-2.0, 2.0, 100)
    ts = rng.uniform(0.0, 2.0, 100)
    for a in (1.0, 1.3):
        basis = HeatPolynomialBasis(a, 20)
        for _ in range(5):
            coeffs = rng.standard_normal(21)
            u = basis.eval_combination(coeffs, xs, ts)
            ut = basis.eval_combination(coeffs, xs, ts, deriv="dt")
            # x-curvature through an independently shifted coefficient vector:
            # sum c_n n (n-1) v_{n-2} = sum c_{m+2} (m+2)(m+1) v_m.
            shifted = np.zeros(21)
            for m in range(19):
                shifted[m] = coeffs[m + 2] * (m + 2) * (m + 1)
            uxx = basis.eval_combination(shifted, xs, ts)
            resid = np.abs(ut - a * a * uxx) / (1.0 + np.abs(u))
            worst = max(worst, float(resid.max()))
    ok = worst <= 1e-9
    report(2, ok, time.perf_counter() - start, 1.0,
            f"max caloric residual {worst:.2e} <= 1e-9 (scaled)")


def test_criterion_03_example1_clean_convergence(report):
    start = time.perf_counter()
    prob = example1()
    errs = {order: _clean_delta_p(prob, order) for order in (4, 8, 12)}
    ok = 6e-3 <= errs[4] <= 6e-2
    ok = ok and 3e-5 <= errs[8] <= 3e-4
    ok = ok and errs[12] <= 1e-5
    ok = ok and errs[4] / errs[8] >= 10.0 and errs[8] / errs[12] >= 10.0
    report(3, ok, time.perf_counter() - start, 5.0,
            "dP(4)=%.3g dP(8)=%.3g dP(12)=%.3g" % (errs[4], errs[8], errs[12]))


def test_criterion_04_example1_temperature_error(report):
    start = time.perf_counter()
    prob = example1()
    du4 = run_case(prob, 4).delta_u
    du8 = run_case(prob, 8, scheme=CollocationScheme(4, 4, 1)).delta_u
    ok = 0.014 / 3 <= du4 <= 0.014 * 3
    ok = ok and 3.013e-4 / 3 <= du8 <= 3.013e-4 * 3
    report(4, ok, time.perf_counter() - start, 5.0,
            f"dU(4)={du4:.3g} vs 0.014; dU(8)={du8:.3g} vs 3.013e-4")


def test_criterion_05_example2_clean_accuracy(report):
    start = time.perf_counter()
    prob = example2()
    dp10 = _clean_delta_p(prob, 10, scheme=CollocationScheme(6, 4, 1))
    dp8 = _clean_delta_p(prob, 8)
    ok = 0.028 / 3 <= dp10 <= 0.028 * 3
    ok = ok and 0.024 / 3 <= dp8 <= 0.024 * 3
    report(5, ok, time.perf_counter() - start, 5.0,
            f"dP(10)={dp10:.3g} vs 0.028; dP(8)={dp8:.3g} vs 0.024")


def test_criterion_06_conditioning_trend(report):
    start = time.perf_counter()
    ok = True
    detail = []
    for prob, kappa4_ref in ((example1(), 266.57), (example2(), 134.90)):
        kappas = []
        for order in (4, 6, 8, 10, 12):
            basis = HeatPolynomialBasis(1.0, order)
            system = assemble(prob, basis, preset_scheme(order))
            kappas.append(condition_number(system))
        ok = ok and all(a < b for a, b in zip(kappas, kappas[1:]))
        ok = ok and kappas[4] / kappas[2] >= 10.0
        ok = ok and kappa4_ref / 10 <= kappas[0] <= kappa4_ref * 10
        detail.append(f"{prob.label}: k(4)={kappas[0]:.3g} k(12)={kappas[4]:.3g}")
    report(6, ok, time.perf_counter() - start, 5.0, "; ".join(detail))


def test_criterion_07_regularization_ordering(report):
    start = time.perf_counter()
    prob = example1()
    basis = HeatPolynomialBasis(1.0, 12)
    system = assemble(prob, basis, preset_scheme(12))
    errs = {}
    for beta in (0.0, 1e-6, 1e-3):
        coeffs = solve_direct(system) if beta == 0.0 else solve_tikhonov(system, beta)
        errs[beta] = delta_p(coeffs, prob, basis)
    ok = errs[0.0] < errs[1e-6] < errs[1e-3]
    ok = ok and 0.115 / 3 <= errs[1e-3] <= 0.115 * 3
    report(7, ok, time.perf_counter() - start, 2.0,
            "dP(0)=%.3g < dP(1e-6)=%.3g < dP(1e-3)=%.3g" %
            (errs[0.0], errs[1e-6], errs[1e-3]))


def test_criterion_08_noise_study(report):
    start = time.perf_counter()
    seeds = tuple(range(24))
    low = run_sweep(SweepGrid(orders=(6,), noise_levels=(0.01,), seeds=seeds))
    med6 = low.lookup(6, noise_level=0.01).delta_p_median
    ok = 1e-4 <= med6 <= 1e-2
    damped = run_sweep(SweepGrid(orders=(16,), betas=(0.0, 1e-7),
                                 noise_levels=(0.01,), seeds=seeds))
    med0 = damped.lookup(16, beta=0.0, noise_level=0.01).delta_p_median
    med7 = damped.lookup(16, beta=1e-7, noise_level=0.01).delta_p_median
    ok = ok and med7 < med0
    report(8, ok, time.perf_counter() - start, 30.0,
            f"median dP(6)={med6:.3g} in [1e-4,1e-2]; "
            f"N=16: {med7:.3g} (b=1e-7) < {med0:.3g} (b=0)")


def test_criterion_09_horizon_degradation(report):
    start = time.perf_counter()
    short = _clean_delta_p(benchmark_problem("example1", 1.0), 4)
    long = _clean_delta_p(benchmark_problem("example1", 5.0), 4)
    ratio = long / short
    ok = ratio >= 10.0
    blow = run_case(benchmark_problem("example2", 3.0), 12,
                    scheme=CollocationScheme(4, 4, 5))
    ok = ok and math.isfinite(blow.delta_p) and blow.delta_p > 10.0
    report(9, ok, time.perf_counter() - start, 10.0,
            f"T5/T1 ratio {ratio:.1f} >= 10; T=3 blow-up dP={blow.delta_p:.3g} > 10")


def test_criterion_10_benchmark_constant_consistency(report):
    start = time.perf_counter()
    const = neumann_consistency(EXAMPLE2_ALPHA)
    ok = abs(const - 1.0) <= 1e-4
    worst = 0.0
    for prob in (example1(), example2()):
        for t in np.linspace(0.0, prob.horizon, 101):
            s = prob.boundary(float(t))
            h = 1e-6 * s
            ux = (prob.exact_solution(s + h, float(t))
                  - prob.exact_solution(s - h, float(t))) / (2 * h)
            worst = max(worst, abs(-prob.conductivity * ux
                                   - prob.latent_heat * prob.density
                                   * prob.boundary_rate(float(t))))
    ok = ok and worst <= 1e-8
    report(10, ok, time.perf_counter() - start, 1.0,
            f"constant {const:.7f} = 1 +- 1e-4; max Stefan residual {worst:.2e}")


def test_criterion_11_determinism_and_performance(tmp_path, report):
    start = time.perf_counter()
    orders = ",".join(str(n) for n in range(4, 21, 2))
    betas = "0," + ",".join(f"1e-{k}" for k in range(13, 2, -1))
    argv = ["sweep", "--orders", orders, "--betas", betas]
    d1, d2, d4 = (tmp_path / name for name in ("serial1", "serial2", "pool"))

    serial_start = time.perf_counter()
    assert cli_main(argv + ["--out", str(d1)]) == 0
    serial_time = time.perf_counter() - serial_start
    assert cli_main(argv + ["--out", str(d2)]) == 0
    assert cli_main(argv + ["--jobs", "4", "--out", str(d4)]) == 0

    cells = len((d1 / "sweep.csv").read_text().splitlines()) - 1
    same = all((d1 / f).read_bytes() == (d2 / f).read_bytes()
               and (d1 / f).read_bytes() == (d4 / f).read_bytes()
               for f in ("sweep.csv", "table1_style.csv"))
    ok = cells == 108 and serial_time < 60.0 and same
    report(11, ok, time.perf_counter() - start, 90.0,
            f"{cells} cells in {serial_time:.1f}s serial; bytes identical "
            f"across reruns and --jobs 4")
