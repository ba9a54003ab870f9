"""Command line front end.

Subcommands:
  solve      one reconstruction; writes report.json and flux_curve.csv
  sweep      grid of reconstructions; writes sweep.csv and table1_style.csv
  plotdata   per-noise-level curve series; writes flux_eps_<level>.csv and
             abs_error_eps_<level>.csv

Each command runs --benchmark or a config file's family, a sweep one problem
per horizon.  Exit codes: 0 success, 2 configuration error, 3 numerical failure.
Flags override the entries of an optional key = value config file.  CSV floats
carry 17 significant digits, so identical runs write byte-identical files.
"""

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from .assembly import CollocationScheme, preset_scheme
from .errors import DomainError, NumericalError, SingularMatrixError, check_real
from .experiments import SweepGrid, run_case, run_sweep
from .noise import MODES, NoiseSpec, check_seed
from .problem import benchmark_problem, linear_boundary_problem, sqrt_boundary_problem

__all__ = ["main"]

SCHEMA_VERSION = 1

CONFIG_KEYS = {
    "benchmark": str, "family": str, "p0": float, "p1": float, "alpha": float,
    "t0": float, "diffusivity": float, "conductivity": float, "latent_heat": float,
    "density": float, "melt_temperature": float, "order": int, "orders": str,
    "beta": float, "betas": str, "scheme": str, "quad": int, "noise": str,
    "noise_mode": str, "seed": int, "seeds": str, "horizon": float, "horizons": str,
    "samples": int, "out": str, "jobs": int,
}


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def load_config(path):
    """Parse a flat key = value file into typed entries."""
    entries = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc.strerror}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            entries[key] = CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return entries


def _parse_scheme(text, quad):
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 3:
        raise DomainError(f"scheme must be nD,nS,nI, got {text!r}")
    try:
        counts = [int(p) for p in parts]
    except ValueError as exc:
        raise DomainError(f"scheme must contain integers: {exc}") from exc
    return CollocationScheme(*counts, quadrature_order=quad)


def _parse_list(text, kind):
    try:
        return tuple(kind(p) for p in str(text).split(",") if p.strip() != "")
    except ValueError as exc:
        raise DomainError(f"bad list {text!r}: {exc}") from exc


def _merged(args, config):
    """Flag value if given, else config file value, else the supplied default."""
    def pick(name, default):
        flag = getattr(args, name, None)
        return flag if flag is not None else config.get(name, default)
    return pick


def _resolve_problem(pick, horizon):
    """The benchmark or family problem that the flags and config file name, at horizon."""
    benchmark, family = pick("benchmark", None), pick("family", None)
    if benchmark is not None and family is not None:
        raise DomainError("specify either benchmark or family, not both")
    if family is None:
        return benchmark_problem(benchmark if benchmark is not None else "example1", horizon)
    physical = dict(
        horizon=horizon,
        diffusivity=float(pick("diffusivity", 1.0)),
        conductivity=float(pick("conductivity", 1.0)),
        latent_heat=float(pick("latent_heat", 1.0)),
        density=float(pick("density", 1.0)),
        melt_temperature=float(pick("melt_temperature", 0.0)),
    )
    try:
        if family == "linear":
            return linear_boundary_problem(pick("p0", None), pick("p1", None), **physical)
        if family == "sqrt":
            return sqrt_boundary_problem(pick("alpha", None), pick("t0", None), **physical)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bad {family} family parameters: {exc}") from exc
    raise DomainError(f"family must be 'linear' or 'sqrt', got {family!r}")


def _common_flags(sub):
    sub.add_argument("--config", help="key = value config file; flags override it")
    sub.add_argument("--benchmark", choices=["example1", "example2"])
    sub.add_argument("--order", type=int, help="max basis order N (default 12)")
    sub.add_argument("--beta", type=float, help="damping parameter (default 0)")
    sub.add_argument("--scheme", help="partition counts nD,nS,nI (default preset for N)")
    sub.add_argument("--quad", type=int, help="quadrature order per subinterval (default 16)")
    sub.add_argument("--noise", help="noise level, or comma list where applicable (default 0)")
    sub.add_argument("--noise-mode", dest="noise_mode", choices=list(MODES))
    sub.add_argument("--seed", type=int, help="noise seed (default 0)")
    sub.add_argument("--horizon", type=float, help="time horizon T (default 1.0)")
    sub.add_argument("--out", help="output directory (default .)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stefanflux",
        description="Reconstruct boundary heat flux of one-phase Stefan problems "
                    "by heat-polynomial collocation.")
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="single reconstruction")

    sweep = subs.add_parser("sweep", help="grid of reconstructions")
    _common_flags(sweep)
    sweep.add_argument("--orders", help="comma list of orders (default --order)")
    sweep.add_argument("--betas", help="comma list of betas (default --beta)")
    sweep.add_argument("--horizons", help="comma list of horizons (default --horizon)")
    sweep.add_argument("--seeds", help="comma list of seeds (default --seed)")
    sweep.add_argument("--jobs", type=int, help="no effect, sweeps run in process; 1 <= N < 2**63")

    plotdata = subs.add_parser("plotdata", help="flux curves per noise level")
    for sub in (solve, plotdata):
        _common_flags(sub)
        sub.add_argument("--samples", type=int, help="flux curve sample count (default 101)")

    return parser


def _out_dir(pick):
    """--out as a Path; a file there or in its way is rejected before any case runs."""
    out = Path(pick("out", "."))
    existing = next((p for p in (out, *out.parents) if p.exists()), out)
    if not existing.is_dir():
        raise DomainError(f"--out {out}: {existing} exists and is not a directory")
    return out


def _case_setup(pick):
    """Problem, order, scheme, beta, samples, seed, noise mode and levels of a case."""
    problem = _resolve_problem(pick, float(pick("horizon", 1.0)))
    order = int(pick("order", 12))
    quad = int(pick("quad", 16))
    scheme = _parse_scheme(pick("scheme", None), quad) or preset_scheme(order, quad)
    # beta and seed are checked here, before any command creates its output directory.
    return (problem, order, scheme, check_real(pick("beta", 0.0), "beta"),
            int(pick("samples", 101)), check_seed(pick("seed", 0)),
            pick("noise_mode", "relative"), _parse_list(pick("noise", "0"), float))


def cmd_solve(pick):
    problem, order, scheme, beta, samples, seed, mode, levels = _case_setup(pick)
    if len(levels) != 1:
        raise DomainError("solve takes a single noise level")
    noise = NoiseSpec(levels[0], seed, mode)
    out = _out_dir(pick)
    report = run_case(problem, order, beta=beta, scheme=scheme, noise=noise,
                      flux_samples=samples)
    # run_case validates the samples and scheme; --out is made after it.
    out.mkdir(parents=True, exist_ok=True)

    payload = {
        "schema_version": SCHEMA_VERSION,
        "problem": problem.label,
        "order": order,
        "beta": beta,
        "horizon": problem.horizon,
        "scheme": dataclasses.asdict(scheme),
        "noise": {"level": levels[0], "seed": seed, "mode": mode},
        "coefficients": list(report.coefficients),
        "delta_p": report.delta_p,
        "delta_u": report.delta_u,
        "condition_number": report.condition_number,
        "residual_norm": report.residual_norm,
        "relative_residual": report.relative_residual,
        "max_abs_flux_error": report.max_abs_flux_error,
        "flux_samples": samples,
    }
    with open(out / "report.json", "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    _write_csv(out / "flux_curve.csv",
               ["t", "ux0_reconstructed", "ux0_exact", "abs_error"],
               report.flux_curve)
    print(f"solve ok: delta_p={report.delta_p:.6g} delta_u={report.delta_u:.6g} "
          f"cond={report.condition_number:.6g}")
    return 0


def cmd_sweep(pick):
    orders = _parse_list(pick("orders", None) or pick("order", 12), int)
    betas = _parse_list(pick("betas", None) or pick("beta", 0.0), float)
    horizons = _parse_list(pick("horizons", None) or pick("horizon", 1.0), float)
    seeds = _parse_list(pick("seeds", None) or pick("seed", 0), int)
    levels = _parse_list(pick("noise", "0"), float)
    quad = int(pick("quad", 16))
    scheme = _parse_scheme(pick("scheme", None), quad)
    grid = SweepGrid(orders=orders, betas=betas, noise_levels=levels, seeds=seeds,
                     horizons=horizons, benchmark=lambda horizon: _resolve_problem(pick, horizon),
                     scheme_override=scheme, noise_mode=pick("noise_mode", "relative"),
                     quadrature_order=quad)
    out = _out_dir(pick)
    # run_sweep validates jobs, then builds each horizon's problem; --out is made after it.
    result = run_sweep(grid, jobs=int(pick("jobs", 1)))
    out.mkdir(parents=True, exist_ok=True)
    rows = result.aggregate()
    _write_csv(out / "sweep.csv",
               ["benchmark", "N", "beta", "eps", "seed_count", "T",
                "delta_p_median", "delta_p_iqr", "delta_u_median", "cond", "failures"],
               [(r.benchmark, r.order, r.beta, r.noise_level, r.seed_count, r.horizon,
                 r.delta_p_median, r.delta_p_iqr, r.delta_u_median, r.condition_number,
                 r.failures) for r in rows])

    # Pivot delta_p medians as beta rows by order columns for the first
    # (noise level, horizon) pair of the grid.
    eps0, t0 = grid.noise_levels[0], grid.horizons[0]
    cell = {(r.beta, r.order): r.delta_p_median for r in rows
            if r.noise_level == eps0 and r.horizon == t0}
    pivot = [[beta] + [cell.get((beta, order), float("nan")) for order in grid.orders]
             for beta in grid.betas]
    _write_csv(out / "table1_style.csv",
               ["beta"] + [f"N={order}" for order in grid.orders], pivot)
    failures = sum(r.failures for r in rows)
    print(f"sweep ok: {len(result.records)} cells, {failures} failures")
    return 0


def cmd_plotdata(pick):
    problem, order, scheme, beta, samples, seed, mode, levels = _case_setup(pick)
    if not levels:
        raise DomainError("plotdata needs at least one noise level")
    tokens = [format(level, "g") for level in levels]
    if len(set(tokens)) != len(tokens):
        raise DomainError(f"noise levels {list(levels)} would share file names {tokens}")
    noises = [NoiseSpec(level, seed, mode) for level in levels]
    out = _out_dir(pick)
    reports = [run_case(problem, order, beta=beta, scheme=scheme, noise=noise,
                        flux_samples=samples) for noise in noises]
    out.mkdir(parents=True, exist_ok=True)
    for token, report in zip(tokens, reports):
        _write_csv(out / f"flux_eps_{token}.csv",
                   ["t", "ux0_reconstructed", "ux0_exact"],
                   [(t, rec, ref) for t, rec, ref, _ in report.flux_curve])
        _write_csv(out / f"abs_error_eps_{token}.csv",
                   ["t", "abs_error"],
                   [(t, err) for t, _, _, err in report.flux_curve])
    print(f"plotdata ok: {len(levels)} level(s) x {samples} samples")
    return 0


COMMANDS = {"solve": cmd_solve, "sweep": cmd_sweep, "plotdata": cmd_plotdata}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = load_config(args.config) if args.config else {}
        pick = _merged(args, config)
        return COMMANDS[args.command](pick)
    except ValueError as exc:
        print(json.dumps({"error": "config_error", "message": str(exc)}), file=sys.stderr)
        return 2
    except SingularMatrixError as exc:
        print(json.dumps({"error": "singular_matrix", "message": str(exc)}), file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(json.dumps({"error": "numerical_error", "message": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
