"""One-phase inverse Stefan problems with a known moving boundary.

The temperature u(x, t) solves

    u_t = a^2 u_xx            on 0 < x < s(t), 0 < t <= T
    u(x, 0) = f(x)            on 0 <= x <= s(0)
    u(s(t), t) = u_star       (phase-change temperature on the interface)
    -conductivity * u_x(s(t), t) = latent_heat * density * s'(t)

with s(t) prescribed.  The quantity to reconstruct is the gradient
u_x(0, t); the physical flux is -conductivity * u_x(0, t).

Two closed-form families are provided.  A linear boundary s = p0 + p1 t
pairs with a travelling-wave exponential solution, and a square-root
boundary s = 2 alpha sqrt(t + t0) pairs with the classical similarity
solution in erf.  The benchmark presets are fixed members of these
families; a BenchmarkId called with a horizon builds its preset's problem.

Problem callables may be scalar-only (math-based, say).  A StefanProblem
probes each one once, when it is built, on an array of times; a callable
that rejects the array or returns another shape is wrapped in np.vectorize
there, so every caller evaluates the stored callables on arrays directly.
Family callables take arrays; their boundaries, monotone even when rounded, are checked at ends.
"""

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .quadrature import uniform

__all__ = [
    "BenchmarkId",
    "StefanProblem",
    "example1",
    "example2",
    "benchmark_problem",
    "linear_boundary_problem",
    "sqrt_boundary_problem",
    "neumann_consistency",
    "EXAMPLE2_ALPHA",
    "EXAMPLE2_T0",
]

# Similarity constants of the square-root benchmark.  alpha is (approximately)
# the root of alpha sqrt(pi) exp(alpha^2) erf(alpha) = 1, see neumann_consistency.
EXAMPLE2_ALPHA = 0.620063
EXAMPLE2_T0 = 0.162558
# The closures of the two family constructors below, which take arrays as they are.
_FAMILIES = ("linear_boundary_problem.<locals>.", "sqrt_boundary_problem.<locals>.")


class BenchmarkId(str, Enum):
    EXAMPLE1 = "example1"
    EXAMPLE2 = "example2"

    def __call__(self, horizon=1.0):
        return (example1 if self is BenchmarkId.EXAMPLE1 else example2)(horizon)


def _check_material(*values):
    for name, value in zip(("diffusivity", "conductivity", "latent_heat", "density"), values):
        if not 0.0 < value < math.inf:  # nan fails it
            raise DomainError(f"{name} must be positive and finite, got {value}")


def _check_horizon(horizon):  # compared, as in errors.check_real: float() overflows past 1e308
    if not 0.0 < horizon <= sys.float_info.max:
        raise DomainError(f"horizon must be positive and finite, got {horizon}")


@dataclass(frozen=True)
class StefanProblem:
    """Problem data plus optional exact oracles for error reporting.

    boundary and boundary_rate are s(t) and s'(t); initial_profile is f(x).
    exact_solution(x, t) and exact_flux_gradient(t) (the exact u_x(0, t))
    are only needed when computing errors against a known solution.  Each
    callable that does not map an array of times to an array of the same
    shape is replaced by its np.vectorize wrapper when the problem is built.
    """

    diffusivity: float
    conductivity: float
    latent_heat: float
    density: float
    melt_temperature: float
    horizon: float
    boundary: Callable
    boundary_rate: Callable
    initial_profile: Callable
    exact_solution: Optional[Callable] = None
    exact_flux_gradient: Optional[Callable] = None
    label: str = field(default="custom", compare=False)

    def __post_init__(self):
        _check_material(self.diffusivity, self.conductivity, self.latent_heat, self.density)
        _check_horizon(self.horizon)
        if not -math.inf < self.melt_temperature < math.inf:
            raise DomainError("melt_temperature must be finite")
        ts = None
        # The probes only decide how each callable is called.  Overflow in the probed values
        # (a sqrt family with alpha = 30 has an infinite amplitude) is left to the stages that
        # use the data.  A family boundary is monotone, its rounded values too: its ends bound it.
        with np.errstate(all="ignore"):
            for name in ("boundary", "boundary_rate", "initial_profile",
                         "exact_flux_gradient", "exact_solution"):
                f = getattr(self, name)
                family = (getattr(f, "__module__", "") == __name__
                          and getattr(f, "__qualname__", "").startswith(_FAMILIES))
                if f is None or family and name != "boundary":
                    continue
                if family:
                    values = f(np.array([0.0, self.horizon]))
                else:
                    ts = uniform(0.0, self.horizon, 101) if ts is None else ts
                    args = (ts, ts) if name == "exact_solution" else (ts,)
                    try:
                        values = f(*args)
                    except (TypeError, ValueError):
                        values = None
                    if np.shape(values) != ts.shape:
                        f = np.vectorize(f, otypes=[float])
                        object.__setattr__(self, name, f)
                        values = f(*args) if name == "boundary" else None
                if name == "boundary" and not (
                        (values := np.asarray(values)).min() > 0.0 and values.max() < math.inf):
                    raise DomainError(
                        "boundary s(t) must stay positive and finite on [0, horizon]")

    def interface_flux(self, t):
        """Clean interface energy-balance data latent_heat * density * s'(t)."""
        return self.latent_heat * self.density * self.boundary_rate(t)


def linear_boundary_problem(p0, p1, *, horizon=1.0, diffusivity=1.0, conductivity=1.0,
                            latent_heat=1.0, density=1.0, melt_temperature=0.0,
                            label="linear"):
    """Problem with s(t) = p0 + p1 t and a travelling-wave exact solution.

    The solution u = u_star + amp * (exp(rate * (s(t) - x)) - 1) with
    rate = p1 / a^2 and amp = latent_heat * density * a^2 / conductivity
    satisfies the heat equation, the interface temperature condition and
    the interface energy balance identically; f is its restriction to t = 0.
    """
    _check_material(diffusivity, conductivity, latent_heat, density)  # before dividing
    p0, p1 = float(p0), float(p1)
    if p0 <= 0.0:
        raise DomainError(f"p0 must be positive so the initial domain is non-empty, got {p0}")
    _check_horizon(horizon)  # before it scales p1
    if p0 + p1 * horizon <= 0.0:
        raise DomainError("boundary must stay positive over the horizon")
    a2 = diffusivity * diffusivity
    rate = p1 / a2
    amp = latent_heat * density * a2 / conductivity

    def boundary(t):
        return p0 + p1 * np.asarray(t, dtype=float)

    def boundary_rate(t):
        return np.full_like(np.asarray(t, dtype=float), p1)

    def exact(x, t):
        x = np.asarray(x, dtype=float)
        return melt_temperature + amp * np.expm1(rate * (p0 + p1 * np.asarray(t, dtype=float) - x))

    def exact_ux0(t):
        return -amp * rate * np.exp(rate * (p0 + p1 * np.asarray(t, dtype=float)))

    return StefanProblem(
        diffusivity=diffusivity, conductivity=conductivity, latent_heat=latent_heat,
        density=density, melt_temperature=melt_temperature, horizon=horizon,
        boundary=boundary, boundary_rate=boundary_rate,
        initial_profile=lambda x: exact(x, 0.0),
        exact_solution=exact, exact_flux_gradient=exact_ux0, label=label)


# W. J. Cody's rational Chebyshev approximations to erf (Math. Comp. 23, 1969),
# as (numerator, monic denominator without its leading 1) in Horner order:
# erf(x) = x P(x^2)/Q(x^2) for |x| <= 0.5 and 1 - exp(-x^2) P(|x|)/Q(|x|) above.
_ERF_NEAR = ((1.85777706184603153e-1, 3.16112374387056560e0, 1.13864154151050156e2,
              3.77485237685302021e2, 3.20937758913846947e3),
             (2.36012909523441209e1, 2.44024637934444173e2, 1.28261652607737228e3,
              2.84423683343917062e3))
_ERF_FAR = ((2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e0,
             6.61191906371416295e1, 2.98635138197400131e2, 8.81952221241769090e2,
             1.71204761263407058e3, 2.05107837782607147e3, 1.23033935479799725e3),
            (1.57449261107098347e1, 1.17693950891312499e2, 5.37181101862009858e2,
             1.62138957456669019e3, 3.29079923573345963e3, 4.36261909014324716e3,
             3.43936767414372164e3, 1.23033935480374942e3))


def _rational(v, num, den):
    p, q = num[0] * v, v + den[0]
    for a, b in zip(num[1:-1], den[1:]):
        p += a
        p *= v
        q *= v
        q += b
    return (p + num[-1]) / q


def _erf(x):
    """erf elementwise, within 4 ulp of math.erf; |x| is clipped at 6, where erf is 1.
    Each branch is evaluated on its own elements only (nan takes the far one)."""
    y = np.minimum(np.abs(x), 6.0, out=np.empty(np.shape(x)))
    near = y <= 0.5
    far = ~near
    v, w = y[near], y[far]
    y[near] = v * _rational(v * v, *_ERF_NEAR)
    y[far] = 1.0 - np.exp(-(w * w)) * _rational(w, *_ERF_FAR)
    return np.copysign(y, x)


def sqrt_boundary_problem(alpha, t0, *, horizon=1.0, diffusivity=1.0, conductivity=1.0,
                          latent_heat=1.0, density=1.0, melt_temperature=0.0,
                          label="sqrt"):
    """Problem with s(t) = 2 alpha sqrt(t + t0) and the erf similarity solution.

    The solution is u = u_star + amp * (1 - erf(x / (2 a sqrt(t + t0))) / erf(alpha / a))
    with the amplitude fixed by the interface energy balance:
    amp = latent_heat * density * alpha * a * sqrt(pi) * exp((alpha/a)^2) * erf(alpha/a)
          / conductivity.
    Fixing amp this way keeps all three interface/initial conditions exactly
    consistent even when alpha is a rounded similarity root.
    """
    _check_material(diffusivity, conductivity, latent_heat, density)  # before dividing
    alpha, t0 = float(alpha), float(t0)
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if t0 <= 0.0:
        raise DomainError(f"t0 must be positive, got {t0}")
    a = diffusivity
    ratio = alpha / a
    # Extreme alpha overflows amp to inf; assembly reports that as a
    # numerical error instead of a warning here.
    with np.errstate(over="ignore"):
        amp = (latent_heat * density * alpha * a * math.sqrt(math.pi)
               * np.exp(ratio * ratio) * math.erf(ratio) / conductivity)
    scale = math.erf(ratio)

    def boundary(t):
        return 2.0 * alpha * np.sqrt(np.asarray(t, dtype=float) + t0)

    def boundary_rate(t):
        return alpha / np.sqrt(np.asarray(t, dtype=float) + t0)

    def exact(x, t):
        z = np.asarray(x, dtype=float) / (2.0 * a * np.sqrt(np.asarray(t, dtype=float) + t0))
        return melt_temperature + amp * (1.0 - _erf(z) / scale)

    def exact_ux0(t):
        root = np.sqrt(np.asarray(t, dtype=float) + t0)
        return -amp / (a * math.sqrt(math.pi) * scale * root)

    return StefanProblem(
        diffusivity=diffusivity, conductivity=conductivity, latent_heat=latent_heat,
        density=density, melt_temperature=melt_temperature, horizon=horizon,
        boundary=boundary, boundary_rate=boundary_rate,
        initial_profile=lambda x: exact(x, 0.0),
        exact_solution=exact, exact_flux_gradient=exact_ux0, label=label)


def example1(horizon=1.0):
    """Travelling-wave benchmark: s(t) = sqrt(2) - 1 + t / sqrt(2), all physical
    constants equal to one, u = exp(1 - 1/sqrt(2) + t/2 - x/sqrt(2)) - 1."""
    return linear_boundary_problem(math.sqrt(2.0) - 1.0, 1.0 / math.sqrt(2.0),
                                   horizon=horizon, label="example1")


def example2(horizon=1.0):
    """Similarity benchmark: s(t) = 2 alpha sqrt(t + t0) with the tabulated
    constants alpha = 0.620063, t0 = 0.162558 and unit physical constants."""
    return sqrt_boundary_problem(EXAMPLE2_ALPHA, EXAMPLE2_T0,
                                 horizon=horizon, label="example2")


def benchmark_problem(benchmark, horizon=1.0):
    """Materialize a benchmark preset from its identifier."""
    return BenchmarkId(benchmark)(horizon)


def neumann_consistency(alpha):
    """Value of alpha * sqrt(pi) * exp(alpha^2) * erf(alpha).

    Equals 1 exactly when alpha is the similarity root of the classical
    one-phase melting problem, so evaluating it at preset constants checks
    that they describe a genuine similarity solution.
    """
    alpha = float(alpha)
    return float(alpha * math.sqrt(math.pi) * np.exp(alpha * alpha) * math.erf(alpha))
