"""Reproducible Gaussian perturbation of the interface energy-balance data.

The draw at t is default_rng((seed, round(t / 1e-12))).standard_normal() bit
for bit, whatever the evaluation order or batching, so noisy quadrature is
byte-reproducible.  Instead of a generator per sample, standard_draws runs
SeedSequence's hash rounds for all samples at once on uint32 arrays, PCG64's
seeding step (O'Neill, PCG, HMC-CS-2014-0905, 2014) on Python ints, and one
standard_normal() per sample from one PCG64 set to that state.  The tests
check it against default_rng sample by sample.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["NoiseSpec", "perturb_stefan_data"]

T_QUANTUM = 1e-12
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# The running constants of SeedSequence's 16 pool hashes and 8 output words.
_POOL_HASH, _OUTPUT_HASH = (
    np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(count)], np.uint32)[:, None]
    for init, mult, count in ((0x43B0D7E5, 0x931E8875, 17), (0x8B51F9DD, 0x58F38DED, 9)))

MODES = ("relative", "constant")


def check_seed(seed):
    """seed as an int; DomainError unless it is an integer in [0, 2**64)."""
    value = int(seed)
    if value != seed or not 0 <= value <= _MASK64:
        raise DomainError(f"seed must be an integer in [0, 2**64), got {seed}")
    return value


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
        check_seed(self.seed)
        if self.mode not in MODES:
            raise DomainError(f"mode must be one of {MODES}, got {self.mode!r}")


def standard_draw(seed, t):
    """Standard normal draw keyed by (seed, quantized t)."""
    return float(standard_draws(seed, [t])[0])


def _hashmix(values, calls):
    """SeedSequence's hashmix on uint32 arrays; result row j is its hash call calls.start + j."""
    values = (values ^ _POOL_HASH[calls]) * _POOL_HASH[calls.start + 1:calls.stop + 1]
    return values ^ values >> 16


def standard_draws(seed, ts):
    """default_rng((seed, quantized t)).standard_normal() at each time in ts, as float64."""
    seed = check_seed(seed)
    try:
        tq = np.array([round(t / T_QUANTUM) & _MASK64 for t in np.ravel(ts).tolist()],
                      dtype=np.uint64)
    except (ValueError, OverflowError) as exc:  # nan, inf, or |t| beyond 1e-12 * max float
        raise DomainError(f"noise times must be finite: {exc}") from exc
    # Entropy: the uint32 words of the seed, then of tq, zero-padded to 4.  A tq
    # below 2**32 has one word, and its high word 0 is the padding.
    k = 1 if seed <= _MASK32 else 2
    pool = np.zeros((4, tq.size), dtype=np.uint32)
    pool[:k] = np.array([seed & _MASK32, seed >> 32][:k], dtype=np.uint32)[:, None]
    pool[k], pool[k + 1] = tq & _MASK32, tq >> 32
    pool = _hashmix(pool, slice(0, 4))
    for src, dst in enumerate(([1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2])):
        mixed = (0xCA01F9DD * pool[dst]
                 - 0x4973F715 * _hashmix(pool[src], slice(4 + 3 * src, 7 + 3 * src)))
        pool[dst] = mixed ^ mixed >> 16
    words = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _OUTPUT_HASH[:8]) * _OUTPUT_HASH[1:]
    words = (words ^ words >> 16).astype(np.uint64)
    generator = np.random.Generator(np.random.PCG64(0))  # per call: threads share no state
    out = np.empty(tq.size)
    for i, (v0, v1, v2, v3) in enumerate(zip(*(words[0::2] | words[1::2] << 32).tolist())):
        inc = ((v2 << 64 | v3) << 1 | 1) & _MASK128
        state = {"state": ((inc + (v0 << 64 | v1)) * _PCG_MULT + inc) & _MASK128, "inc": inc}
        generator.bit_generator.state = {"bit_generator": "PCG64", "state": state,
                                         "has_uint32": 0, "uinteger": 0}
        out[i] = generator.standard_normal()
    return out


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
