"""Write identity_fixture.json: the sweep records and run_case reports that
test_identity.py compares bit for bit.

Run from the root of a checkout:

    PYTHONPATH=src python tests/make_identity_fixture.py

The fixture holds the records of five sweep grids (the benchmark's two, a grid
of odd orders and horizons on each benchmark, and a grid whose N=400 cells
overflow), the reports of 48 run_case calls in the mix of the benchmark's
single workload, and the environment they were made in.  A change that moves
values on purpose runs this script again and says in CHANGES.md how many
records moved and by how much.
"""

import hashlib
import json
import platform
from itertools import product
from pathlib import Path

import numpy as np

from stefanflux import NoiseSpec, NumericalError, SweepGrid, benchmark_problem, run_case, run_sweep

FIXTURE = Path(__file__).with_name("identity_fixture.json")

# The benchmark's grids, copied so that the fixture does not move with the benchmark.
GRIDS = {
    "sweep_clean": SweepGrid(orders=range(4, 21, 2),
                             betas=(0.0,) + tuple(float(f"1e-{k}") for k in range(13, 2, -1)),
                             benchmark="example1"),
    "sweep_noisy": SweepGrid(orders=(8, 12, 16), betas=(0.0, 1e-7), noise_levels=(0.01, 0.05),
                             seeds=range(16), benchmark="example2"),
    **{f"odd_{name}": SweepGrid(orders=(2, 8, 12, 40), betas=(0.0, 1e-7),
                                noise_levels=(0.0, 0.01), seeds=(0, 1), horizons=(1.0, 3.0),
                                benchmark=name) for name in ("example1", "example2")},
    "orders_8_12_400": SweepGrid(orders=(8, 12, 400), horizons=(1.0, 3.0)),
}


def environment():
    """What a value's last bits depend on beyond the code: numpy, its BLAS and the machine."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "machine": platform.machine(),
            "simd": sorted(config["SIMD Extensions"].get("found", []))}


def cases():
    """48 (benchmark, order, horizon, level, seed) cases: each benchmark, order and level of the
    single workload at one horizon per quarter of [0.5, 1.5]."""
    rng = np.random.default_rng([1, 0])
    return [(benchmark, order, 0.5 + (k + rng.random()) / 4, level, int(rng.integers(2 ** 31)))
            for benchmark, order, level, k in product(("example1", "example2"), (8, 12, 20),
                                                      (0.0, 0.01), range(4))]


def sweep_records(grid):
    """[cell, error tag, repr of the values] of each record."""
    return [[[rec.horizon, rec.order, rec.beta, rec.noise_level, rec.seed], rec.error,
             repr((rec.benchmark, rec.delta_p, rec.delta_u, rec.condition_number,
                   rec.residual_norm))] for rec in run_sweep(grid).records]


def case_report(benchmark, order, horizon, level, seed):
    """[case, error type and message or None, repr of the report's values and a digest of its
    flux curve]."""
    try:
        report = run_case(benchmark_problem(benchmark, horizon), order,
                          noise=NoiseSpec(level, seed) if level else None)
    except (NumericalError, ValueError) as exc:
        return [[benchmark, order, horizon, level, seed], [type(exc).__name__, str(exc)], None]
    values = (report.coefficients, report.scheme, report.beta, report.condition_number,
              report.residual_norm, report.relative_residual, report.delta_p, report.delta_u,
              report.max_abs_flux_error,
              hashlib.blake2b(repr(report.flux_curve).encode(), digest_size=16).hexdigest())
    return [[benchmark, order, horizon, level, seed], None, repr(values)]


def collect():
    return {"environment": environment(),
            "sweeps": {name: sweep_records(grid) for name, grid in GRIDS.items()},
            "cases": [case_report(*case) for case in cases()]}


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(collect(), indent=0) + "\n")
    print(f"wrote {FIXTURE}")
