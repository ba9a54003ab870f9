"""Write identity_fixture.json: the sweep records and run_case reports that
test_identity.py compares bit for bit.

Run from the root of a checkout:

    PYTHONPATH=src python tests/make_identity_fixture.py
    PYTHONPATH=src python tests/make_identity_fixture.py --compare

The second form writes nothing: it rebuilds every record and report in memory and
prints, per section (each sweep grid, the cases and the README runs), how many
records moved against the fixture and the largest relative change of any value in
them; it exits 1 if a cell, error tag or message differs.

The fixture holds the records of twelve sweep grids (the benchmark's two, a
grid of odd orders and horizons on each benchmark, a grid whose N=400 cells
overflow, one whose huge constant noise overflows squares, solves and
metrics, and a linear-family, a square-root-family and a user-callable grid
in each noise mode), the reports of 48 run_case calls in the mix of the
benchmark's single workload and of the README's solve runs, and the
environment they were made in.  A change that moves values on purpose runs
the compare mode first and says in CHANGES.md how many records moved and by how
much, then runs this script again.
"""

import argparse
import hashlib
import json
import math
import platform
import re
import sys
from itertools import product
from pathlib import Path

import numpy as np

from stefanflux import (NoiseSpec, NumericalError, StefanProblem, SweepGrid, example1, example2,
                        linear_boundary_problem, run_case, run_sweep, sqrt_boundary_problem)

FIXTURE = Path(__file__).with_name("identity_fixture.json")


def user_problem(horizon):
    """The travelling wave u = expm1(0.3 (0.5 + 0.3 t - x)) from user callables of both kinds:
    scalar-only math ones, which the build wraps in np.vectorize, and array ones, which it
    probes and keeps."""
    return StefanProblem(
        diffusivity=1.0, conductivity=1.0, latent_heat=1.0, density=1.0, melt_temperature=0.0,
        horizon=horizon, boundary=lambda t: 0.5 + 0.3 * np.asarray(t),
        boundary_rate=lambda t: 0.3, initial_profile=lambda x: math.expm1(0.3 * (0.5 - x)),
        exact_solution=lambda x, t: np.expm1(0.3 * (0.5 + 0.3 * np.asarray(t) - x)),
        exact_flux_gradient=lambda t: -0.3 * math.exp(0.3 * (0.5 + 0.3 * t)), label="user")


# Problems by name: the presets, the README config file's linear family, a square-root
# family member and a problem built from user callables.
PROBLEMS = {"example1": example1, "example2": example2,
            "linear": lambda horizon: linear_boundary_problem(0.4, 0.7, horizon=horizon),
            "sqrt": lambda horizon: sqrt_boundary_problem(0.6, 0.16, horizon=horizon),
            "user": user_problem}

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
    "overflow": SweepGrid(orders=(8,), betas=(0.0, 1e-7), noise_levels=(0.0, 0.01, 1e300, 7e307),
                          seeds=range(8), noise_mode="constant"),
    **{f"{family}_{mode}": SweepGrid(orders=(4, 12, 20), betas=(0.0, 1e-7),
                                     noise_levels=(0.0, 0.01), seeds=(0, 1), horizons=(0.5, 1.5),
                                     benchmark=PROBLEMS[family], noise_mode=mode)
       for family in ("linear", "sqrt", "user") for mode in ("relative", "constant")},
}

# The README's solve runs, as (problem, order, horizon, level, seed, beta).
README_RUNS = [("example1", 12, 1.0, 0.0, 0, 0.0), ("example1", 8, 1.0, 0.01, 7, 1e-5),
               ("linear", 8, 1.0, 0.0, 0, 1e-6)]


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


def case_report(name, order, horizon, level, seed, *beta):
    """[case, error type and message or None, repr of the report's values and a digest of its
    flux curve]; beta, when given, is the case's damping (else 0)."""
    case = [name, order, horizon, level, seed, *beta]
    try:
        report = run_case(PROBLEMS[name](horizon), order, *beta,
                          noise=NoiseSpec(level, seed) if level else None)
    except (NumericalError, ValueError) as exc:
        return [case, [type(exc).__name__, str(exc)], None]
    values = (report.coefficients, report.scheme, report.beta, report.condition_number,
              report.residual_norm, report.relative_residual, report.delta_p, report.delta_u,
              report.max_abs_flux_error,
              hashlib.blake2b(repr(report.flux_curve).encode(), digest_size=16).hexdigest())
    return [case, None, repr(values)]


def collect():
    return {"environment": environment(),
            "sweeps": {name: sweep_records(grid) for name, grid in GRIDS.items()},
            "cases": [case_report(*case) for case in cases()],
            "readme": [case_report(*run) for run in README_RUNS]}


def differing_environment(fixture, current):
    """The sorted environment fields in which current differs from the fixture."""
    return sorted(key for key, value in fixture["environment"].items()
                  if current["environment"].get(key) != value)


# A number in a repr of values; not a run of digits inside a word or a quoted digest.
NUMBER = re.compile(r"(?<![\w.'])-?(?:nan|inf|\d+(?:\.\d*)?(?:e[-+]?\d+)?)(?![\w.])")


def relative_change(now, then):
    """The largest |a - b| / max(|a|, |b|) over the numbers of two value reprs in turn: 0 for two
    nans, inf where one of a pair is not finite or the reprs hold different counts of numbers."""
    pairs = [[float(x) for x in NUMBER.findall(text or "")] for text in (now, then)]
    if len(pairs[0]) != len(pairs[1]):
        return math.inf
    return max((0.0 if a == b or math.isnan(a) and math.isnan(b)
                else abs(a - b) / max(abs(a), abs(b)) if math.isfinite(a) and math.isfinite(b)
                else math.inf for a, b in zip(*pairs)), default=0.0)


def compare(fixture, current):
    """Print per section how many records moved and their largest relative change; 1 if a
    section, cell, error tag or message differs from the fixture's, else 0."""
    then, now = ({**data["sweeps"], "cases": data["cases"], "readme": data["readme"]}
                 for data in (fixture, current))
    if differing := differing_environment(fixture, current):
        print(f"environment differs in {', '.join(differing)}: last bits may move")
    if now.keys() != then.keys():
        print(f"sections differ: {sorted(now.keys() ^ then.keys())}")
        return 1
    status = 0
    for name, records in then.items():
        tags = abs(len(now[name]) - len(records)) + sum(
            a[:2] != b[:2] for a, b in zip(now[name], records))
        moved = [(a[2], b[2]) for a, b in zip(now[name], records) if a[2] != b[2]]
        largest = max((relative_change(*pair) for pair in moved), default=0.0)
        print(f"{name}: {len(moved)} of {len(records)} records moved, largest relative change "
              f"{largest:.3g}" + (f"; {tags} cells, tags or messages differ" if tags else ""))
        status |= bool(tags)
    return status


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", action="store_true",
                        help="compare with the fixture in memory and write nothing")
    if parser.parse_args().compare:
        sys.exit(compare(json.loads(FIXTURE.read_text()), collect()))
    FIXTURE.write_text(json.dumps(collect(), indent=0) + "\n")
    print(f"wrote {FIXTURE}")
