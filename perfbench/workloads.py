"""The benchmark's workloads: inputs from a seed, one pass of work, and its checks.

Every workload is a closed loop in one process: the next operation starts when
the previous one has returned.  Library entry points are looked up on their
modules at call time, so the tracer's wrappers apply when installed.
"""

import csv
import json
import math
from itertools import product
from time import perf_counter

import numpy as np

import stefanflux.experiments as experiments
import stefanflux.problem as problem_module
from stefanflux import NoiseSpec, SweepGrid
from stefanflux.errors import NumericalError

# Exceptions the library documents as outcomes; anything else is a defect.
TYPED_ERRORS = (NumericalError, ValueError)
ERROR_TAGS = {"singular_matrix", "numerical_error", "domain_error"}


class Outcome:
    """Result of one cell or call: ok, a typed error, or a violation."""

    __slots__ = ("kind", "delta_p", "detail")

    def __init__(self, kind, delta_p=math.nan, detail=""):
        self.kind = kind
        self.delta_p = delta_p
        self.detail = detail


def _finite(*values):
    return all(math.isfinite(v) for v in values)


def _record_outcome(rec):
    if rec.error is not None:
        if rec.error in ERROR_TAGS:
            return Outcome("typed", detail=rec.error)
        return Outcome("violation", detail=f"unknown error tag {rec.error!r}")
    if not _finite(rec.delta_p, rec.delta_u, rec.condition_number, rec.residual_norm):
        return Outcome("violation", detail=f"non-finite metrics at N={rec.order} "
                                           f"beta={rec.beta} seed={rec.seed}")
    return Outcome("ok", rec.delta_p)


def record_key(rec):
    """Everything a cell record holds except its wall time; repr makes nan equal nan."""
    return repr((rec.benchmark, rec.order, rec.beta, rec.noise_level, rec.seed,
                 rec.horizon, rec.delta_p, rec.delta_u, rec.condition_number,
                 rec.residual_norm, rec.error))


def _floats(values):
    return ",".join(format(float(v), "g") for v in values)


class Sweep:
    """run_sweep over a fixed grid; one operation is one whole sweep pass."""

    def __init__(self, name, why, grid, jobs):
        self.name = name
        self.why = why
        self.grid = grid
        self.jobs = jobs
        self.cli_argv = ["sweep", "--benchmark", grid.benchmark.value,
                         "--orders", ",".join(str(n) for n in grid.orders),
                         "--betas", _floats(grid.betas),
                         "--noise", _floats(grid.noise_levels),
                         "--seeds", ",".join(str(s) for s in grid.seeds),
                         "--jobs", str(jobs)]

    def pass_inputs(self, seed, index):
        # The grids are fixed by the tables they reproduce; the seed is unused.
        return self.grid

    def run_pass(self, grid, jobs):
        """Run one pass; returns (records, outcomes, per-operation seconds)."""
        start = perf_counter()
        result = experiments.run_sweep(grid, jobs=jobs)
        elapsed = perf_counter() - start
        return result.records, [_record_outcome(r) for r in result.records], [elapsed]

    def check_pass(self, records):
        """Workload-specific checks on one pass; returns violation messages."""
        return []

    def check_cli(self, out_dir, reference_records):
        rows = list(csv.DictReader((out_dir / "sweep.csv").read_text().splitlines()))
        expected = experiments.SweepResult(self.grid, reference_records).aggregate()
        if len(rows) != len(expected):
            return [f"sweep.csv has {len(rows)} rows, expected {len(expected)}"]
        bad = [row["N"] for row, agg in zip(rows, expected)
               if int(row["N"]) != agg.order or int(row["failures"]) != agg.failures
               or repr(float(row["delta_p_median"])) != repr(agg.delta_p_median)]
        return [f"sweep.csv differs from the in-process sweep at N={bad[0]}"] if bad else []


class CleanSweep(Sweep):
    # Criterion 3's windows for clean example1 at T=1 and beta=0.
    WINDOWS = {4: (6e-3, 6e-2), 8: (3e-5, 3e-4), 12: (0.0, 1e-5)}

    def check_pass(self, records):
        dp = {r.order: r.delta_p for r in records
              if r.beta == 0.0 and r.horizon == 1.0 and r.order in self.WINDOWS}
        problems = [f"clean dP({n})={dp.get(n)} outside [{lo}, {hi}]"
                    for n, (lo, hi) in self.WINDOWS.items()
                    if not (n in dp and lo <= dp[n] <= hi)]
        if not problems and not (dp[4] / dp[8] >= 10.0 and dp[8] / dp[12] >= 10.0):
            problems.append(f"clean dP ratios below 10: {dp}")
        return problems


class Single:
    """Distinct run_case calls drawn from the seed; one operation is one call."""

    name = "single"
    why = ("no two calls share a matrix, so a sweep-side cache or batch shows no gain "
           "and no loss; the CLI solve is the only path that pays start-up and writes")
    BENCHMARKS = ("example1", "example2")
    ORDERS = (8, 12, 20)
    LEVELS = (0.0, 0.01)
    # Horizons are drawn from [0.5, 1.5] one per quarter, so each pass holds the
    # same mix of short and long horizons.  Long N=20 cases raise
    # SingularMatrixError today; they stay in to keep that defect visible.
    HORIZON_STRATA = 4
    jobs = 1
    cli_argv = ["solve", "--benchmark", "example1", "--order", "12"]

    def pass_inputs(self, seed, index):
        rng = np.random.default_rng([seed, index])
        cases = []
        for benchmark, order, level in product(self.BENCHMARKS, self.ORDERS, self.LEVELS):
            for k in range(self.HORIZON_STRATA):
                horizon = 0.5 + (k + rng.random()) / self.HORIZON_STRATA
                cases.append((benchmark, order, float(horizon), level,
                              int(rng.integers(2 ** 31))))
        return [cases[i] for i in rng.permutation(len(cases))]

    def run_pass(self, cases, jobs):
        outcomes, times = [], []
        for benchmark, order, horizon, level, noise_seed in cases:
            prob = problem_module.benchmark_problem(benchmark, horizon)
            noise = NoiseSpec(level, noise_seed) if level > 0.0 else None
            start = perf_counter()
            try:
                rep = experiments.run_case(prob, order, noise=noise)
            except TYPED_ERRORS as exc:
                times.append(perf_counter() - start)
                outcomes.append(Outcome("typed", detail=type(exc).__name__))
                continue
            except Exception as exc:  # a defect: record it and keep going
                times.append(perf_counter() - start)
                outcomes.append(Outcome("violation", detail=f"{type(exc).__name__}: {exc}"))
                continue
            times.append(perf_counter() - start)
            if _finite(rep.delta_p, rep.delta_u, rep.condition_number, rep.residual_norm,
                       rep.max_abs_flux_error, *rep.coefficients):
                outcomes.append(Outcome("ok", rep.delta_p))
            else:
                outcomes.append(Outcome("violation", detail=f"non-finite report for "
                                        f"{benchmark} N={order} T={horizon}"))
        return None, outcomes, times

    def check_cli(self, out_dir, reference_records):
        report = json.loads((out_dir / "report.json").read_text())
        expected = experiments.run_case(problem_module.benchmark_problem("example1"), 12)
        problems = []
        if report["delta_p"] != expected.delta_p:
            problems.append(f"CLI delta_p {report['delta_p']!r} != run_case "
                            f"{expected.delta_p!r}")
        if len((out_dir / "flux_curve.csv").read_text().splitlines()) != 102:
            problems.append("flux_curve.csv does not hold 101 samples")
        return problems


WORKLOADS = {w.name: w for w in (
    CleanSweep(
        "sweep_clean",
        "noise-free, so basis evaluation, assembly and metrics dominate; 12 betas share "
        "each of 9 matrices, so batched solves and a design-matrix basis show here",
        SweepGrid(orders=range(4, 21, 2),
                  betas=(0.0,) + tuple(float(f"1e-{k}") for k in range(13, 2, -1)),
                  benchmark="example1"),
        jobs=1),
    Sweep(
        "sweep_noisy",
        "noise draws are ~30% of a serial pass and 192 cells share 3 matrices; the only "
        "workload on the erf/sqrt family and on the process pool",
        SweepGrid(orders=(8, 12, 16), betas=(0.0, 1e-7), noise_levels=(0.01, 0.05),
                  seeds=range(16), benchmark="example2"),
        jobs=2),
    Single(),
)}
