"""Span tracer that wraps stefanflux functions from outside the package.

A function is replaced at every module binding that holds it, because
``from .assembly import assemble`` copies the name into the importing module
and a caller looks it up there.  Basis methods are wrapped on
``HeatPolynomialBasis`` itself.  Spans live in memory as
``[name, start, end, parent, error, extra]`` and are reduced to per-layer
numbers pass by pass; ``extra`` holds a matrix digest for ``assemble`` and a
sample count for the noisy data callable.
"""

import functools
import hashlib
import sys
from time import perf_counter

import numpy as np

# Layer -> (defining module, wrapped functions).
FUNCTIONS = {
    "problem": ("stefanflux.problem", ("benchmark_problem", "example1", "example2",
                                       "linear_boundary_problem", "sqrt_boundary_problem")),
    "assembly": ("stefanflux.assembly", ("assemble",)),
    "solver": ("stefanflux.solver", ("solve", "solve_direct", "solve_tikhonov",
                                     "condition_number")),
    "noise": ("stefanflux.noise", ("perturb_stefan_data",)),
    "metrics": ("stefanflux.metrics", ("delta_p", "delta_u", "flux_curve", "error_report")),
    "experiments": ("stefanflux.experiments", ("run_case", "run_sweep")),
}

SOLVES = {"solver.solve", "solver.solve_direct", "solver.solve_tikhonov"}
NOISE = {"noise.perturb_stefan_data", "noise.sample"}
PROBLEM = {"problem." + name for name in FUNCTIONS["problem"][1]}
RUNS = {"experiments.run_case", "experiments.run_sweep"}


class Tracer:
    """Installs wrappers, records spans, and restores the originals on uninstall."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent, error, None]
            # Outside the span: digests and sample counts are not layer time.
            return result if after is None else after(index, args, result)

        return traced

    def _digest_matrix(self, index, args, system):
        self.spans[index][5] = hashlib.blake2b(
            np.ascontiguousarray(system.matrix).tobytes(), digest_size=16).digest()
        return system

    def _count_samples(self, index, args, values):
        self.spans[index][5] = int(np.size(args[0]))
        return values

    def _wrap_noisy_data(self, index, args, noisy):
        return self._wrap("noise.sample", noisy, self._count_samples)

    def install(self):
        from stefanflux.basis import HeatPolynomialBasis

        for attr, value in list(vars(HeatPolynomialBasis).items()):
            if callable(value) and not attr.startswith("_"):
                self._undo.append((HeatPolynomialBasis, attr, value))
                setattr(HeatPolynomialBasis, attr, self._wrap(f"basis.{attr}", value))
        hooks = {"assemble": self._digest_matrix,
                 "perturb_stefan_data": self._wrap_noisy_data}
        modules = [module for name, module in list(sys.modules.items())
                   if name == "stefanflux" or name.startswith("stefanflux.")]
        for layer, (home, names) in FUNCTIONS.items():
            for fname in names:
                original = getattr(sys.modules[home], fname, None)
                if original is None:
                    continue
                traced = self._wrap(f"{layer}.{fname}", original, hooks.get(fname))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, attr, original))
                            setattr(module, attr, traced)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans are still open")
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_metrics(spans, wall_s):
    """Per-layer counts and times (ms) of one pass whose wall time was wall_s."""
    from stefanflux.errors import SingularMatrixError

    names = [s[0] for s in spans]
    durations = [s[2] - s[1] for s in spans]
    self_times = list(durations)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            self_times[span[3]] -= durations[i]

    def outer(group):
        # Spans of the group not nested directly in another span of the group.
        return [i for i, span in enumerate(spans)
                if span[0] in group and (span[3] < 0 or names[span[3]] not in group)]

    def ms(indices, times=durations):
        return 1e3 * sum(times[i] for i in indices)

    def named(name):
        return [i for i, n in enumerate(names) if n == name]

    basis = [i for i, n in enumerate(names) if n.startswith("basis.")]
    assemble = named("assembly.assemble")
    solves = outer(SOLVES)
    run_cases = named("experiments.run_case")
    digests = {spans[i][5] for i in assemble}
    return {
        "basis.calls": len(basis),
        "basis.self_ms": ms(basis, self_times),
        "assembly.calls": len(assemble),
        "assembly.ms": ms(assemble),
        "assembly.self_ms": ms(assemble, self_times),
        "assembly.unique_frac": len(digests) / len(assemble) if assemble else 0.0,
        "solver.calls": len(solves),
        "solver.ms": ms(solves),
        "solver.cond_ms": ms(named("solver.condition_number")),
        "solver.singular": sum(1 for i in solves if spans[i][4] is not None
                               and issubclass(spans[i][4], SingularMatrixError)),
        "noise.samples": sum(spans[i][5] for i in named("noise.sample")),
        "noise.ms": ms(outer(NOISE)),
        "metrics.delta_p_ms": ms(named("metrics.delta_p")),
        "metrics.delta_u_ms": ms(named("metrics.delta_u")),
        "metrics.flux_curve_ms": ms(named("metrics.flux_curve")),
        "problem.build_ms": ms(outer(PROBLEM)),
        "experiments.run_case_ms": ms(run_cases),
        "experiments.overhead_ms": 1e3 * wall_s - ms(run_cases),
    }


def write_spans(path, spans):
    """Write spans as tab-separated name, start, end, parent, error."""
    with open(path, "w") as fh:
        fh.write("name\tstart\tend\tparent\terror\n")
        for name, start, end, parent, error, _ in spans:
            fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t"
                     f"{'' if error is None else error.__name__}\n")
