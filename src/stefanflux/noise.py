"""Reproducible Gaussian perturbation of the interface energy-balance data.

Draws are keyed by (seed, t): the time is quantized to 1e-12 and the pair
seeds a fresh generator, so the same spec always yields the same
perturbation at the same time regardless of evaluation order or batching.
That keeps quadrature of noisy data deterministic and byte-reproducible.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["NoiseSpec", "perturb_stefan_data"]

T_QUANTUM = 1e-12
_MASK64 = (1 << 64) - 1

MODES = ("relative", "constant")


@dataclass(frozen=True)
class NoiseSpec:
    """Noise level, generator seed, and sigma convention.

    mode "relative" draws N(0, sigma(t)^2) with sigma(t) = level * |data(t) /
    conductivity| where data is the clean energy-balance value; "constant"
    uses sigma = level in absolute units.
    """

    level: float
    seed: int = 0
    mode: str = "relative"

    def __post_init__(self):
        if not np.isfinite(self.level) or self.level < 0.0:
            raise DomainError(f"noise level must be finite and >= 0, got {self.level}")
        if int(self.seed) != self.seed:
            raise DomainError(f"seed must be an integer, got {self.seed}")
        if self.mode not in MODES:
            raise DomainError(f"mode must be one of {MODES}, got {self.mode!r}")


def standard_draw(seed, t):
    """Standard normal draw keyed by (seed, quantized t)."""
    tq = int(round(float(t) / T_QUANTUM)) & _MASK64
    rng = np.random.default_rng((int(seed) & _MASK64, tq))
    return float(rng.standard_normal())


def standard_draws(seed, ts):
    """standard_draw at each time in ts; the level and the mode only scale them."""
    return np.array([standard_draw(seed, tv) for tv in ts])


def scale_draws(spec, clean, draws, conductivity):
    """Noisy data clean + sigma * draws, with sigma set by the spec's level and mode."""
    if spec.mode == "relative":
        sigma = spec.level * np.abs(clean / conductivity)
    else:
        sigma = np.full_like(clean, spec.level)
    return clean + sigma * draws


def perturb_stefan_data(problem, spec):
    """Return a deterministic noisy surrogate for latent_heat * density * s'(t).

    At level 0 the returned callable reproduces the clean data exactly.
    Scalars give floats, arrays give arrays of the same shape.
    """
    def noisy(t):
        scalar = np.ndim(t) == 0
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        clean = problem.interface_flux(ts)
        if spec.level == 0.0:
            return float(clean[0]) if scalar else clean
        out = scale_draws(spec, clean, standard_draws(spec.seed, ts), problem.conductivity)
        return float(out[0]) if scalar else out

    return noisy
