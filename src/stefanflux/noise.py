"""Reproducible Gaussian perturbation of the interface energy-balance data.

Noisy data enters a system one way: standard_draws at assembly.stefan_nodes,
scale_draws, then panel_sums into the energy-balance right sides
(experiments._Group._rhs).  The draw at t depends on the seed and
tq = round(t / 1e-12) mod 2**64 alone, so it is byte-reproducible whatever the
order or batching.  The stream is counter-based (Salmon et al., SC 2011): on
uint64 mod 2**64, with mix the SplitMix64 finaliser (Steele, Lea & Flood,
OOPSLA 2014) and G = 0x9E3779B97F4A7C15, key = mix(mix(seed + G) ^ tq),
a = mix(key + G), b = mix(key + 2G), and the Box-Muller draw (1958) is
sqrt(-2 log(((a >> 11) + 1) 2**-53)) cos(2**-52 pi (b >> 11)) in that order.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_integer, check_real

__all__ = ["NoiseSpec", "standard_draws", "scale_draws"]

T_QUANTUM = 1e-12
_MASK64, _GOLDEN = (1 << 64) - 1, 0x9E3779B97F4A7C15

MODES = ("relative", "constant")


def check_seed(seed):
    """seed as an int; DomainError unless it is an integer in [0, 2**64)."""
    return check_integer(seed, "seed", 0, 1 << 64)


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
        check_real(self.level, "noise level")
        check_seed(self.seed)
        if self.mode not in MODES:
            raise DomainError(f"mode must be one of {MODES}, got {self.mode!r}")


def _mix(z):
    """The SplitMix64 finaliser of a uint64 array, mod 2**64."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9
    z = (z ^ z >> 27) * 0x94D049BB133111EB
    return z ^ z >> 31


def standard_draws(seeds, ts):
    """The float64 draws at the times ts: a row for one seed, a row per seed of a sequence."""
    seeds = np.array([check_seed(s) for s in seeds] if np.ndim(seeds) else check_seed(seeds),
                     dtype=np.uint64)
    try:
        # Below 2**52 quanta, a bound nan fails, one rint rounds half to even as round does.
        ts = np.ravel(ts)
        tq = np.array(np.rint(ts / T_QUANTUM).astype(np.int64)
                      if ts.dtype == float and np.abs(ts).max(initial=0.0) < 2.0 ** 52 * T_QUANTUM
                      else [round(t / T_QUANTUM) & _MASK64 for t in ts.tolist()], dtype=np.uint64)
    except (ValueError, OverflowError) as exc:  # nan, inf, or |t| beyond 1e-12 * max float
        raise DomainError(f"noise times must be finite: {exc}") from exc
    # Arrays throughout, never numpy scalars: array arithmetic wraps mod 2**64 silently.
    row_shape, seeds = seeds.shape + tq.shape, seeds.reshape(-1, 1)
    key = _mix(_mix(seeds + _GOLDEN) ^ tq)
    a, b = _mix(key + _GOLDEN), _mix(key + (2 * _GOLDEN & _MASK64))
    radius = np.sqrt(-2 * np.log(((a >> 11) + 1) * 2 ** -53))
    return (radius * np.cos(2 ** -52 * np.pi * (b >> 11))).reshape(row_shape)


def scale_draws(spec, clean, draws, conductivity):
    """Noisy data clean + sigma * draws, with sigma set by the spec's level and mode."""
    if spec.mode == "relative":
        sigma = spec.level * np.abs(clean / conductivity)
    else:
        sigma = np.full_like(clean, spec.level)
    return clean + sigma * draws
