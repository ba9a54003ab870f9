"""Reproducible Gaussian perturbation of the interface energy-balance data.

Noisy data enters a system one way: standard_draws at assembly.stefan_nodes,
then scale_draws, then assembly.with_stefan_data.  The draw at t is
default_rng((seed, round(t / 1e-12))).standard_normal() bit for bit, whatever
the evaluation order or batching, so noisy quadrature is byte-reproducible.
standard_draws replays SeedSequence on uint32 arrays, and PCG64's seeding and
first output r (O'Neill, PCG, 2014) on (hi, lo) pairs of uint64 arrays, then the
fast path of numpy's ziggurat (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000),
+-(r >> 9 mod 2**52) * wi[r & 0xff] below ki[r & 0xff], on tables probed from
numpy once per process; numpy draws the other ~2%, from Python-int states.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_integer, check_real

__all__ = ["NoiseSpec", "standard_draws", "scale_draws"]

T_QUANTUM = 1e-12
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_INV = pow(_PCG_MULT, -1, 1 << 128)
_MULT_HI, _MULT_LO = _PCG_MULT >> 64, _PCG_MULT & _MASK64
# The running constants of SeedSequence's 16 pool hashes and 8 output words.
_POOL_HASH, _OUTPUT_HASH = (
    np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(count)], np.uint32)[:, None]
    for init, mult, count in ((0x43B0D7E5, 0x931E8875, 17), (0x8B51F9DD, 0x58F38DED, 9)))

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


def _hashmix(values, calls):
    """SeedSequence's hashmix on uint32 arrays; result row j is its hash call calls.start + j."""
    values = (values ^ _POOL_HASH[calls]) * _POOL_HASH[calls.start + 1:calls.stop + 1]
    return values ^ values >> 16


def _add(a, b):
    """a + b mod 2**128 on (hi, lo) pairs of uint64 words; the low sum carries when it wraps."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]), lo


def _step(x, inc):
    """One PCG64 step x * _PCG_MULT + inc mod 2**128 on (hi, lo) pairs of uint64 arrays."""
    hi, lo = x
    # The high word of lo * _MULT_LO from 32-bit halves, whose products fit in 64 bits.
    l0, l1, m0, m1 = lo & _MASK32, lo >> 32, _MULT_LO & _MASK32, _MULT_LO >> 32
    mid = l0 * m1 + (l0 * m0 >> 32)
    high = l1 * m1 + (mid >> 32) + ((mid & _MASK32) + l1 * m0 >> 32)
    return _add((hi * _MULT_LO + lo * _MULT_HI + high, lo * _MULT_LO), inc)


def _draw(gen, stepped, inc):
    """standard_normal() of generator gen set to the PCG64 state one step takes to stepped."""
    state = {"state": (stepped - inc) * _PCG_INV & _MASK128, "inc": inc}
    gen.bit_generator.state = dict(bit_generator="PCG64", state=state, has_uint32=0, uinteger=0)
    return gen.standard_normal()


@functools.cache
def _ziggurat():
    """Read-only box widths wi and verified fast-path bounds ki (0: none) of numpy's ziggurat."""
    gen = np.random.Generator(np.random.PCG64(0))
    # A state stepped to r < 2**64 outputs r, so idx i, sign 0 and rabs 1 draw wi[i].
    wi = np.array([_draw(gen, 1 << 9 | i, 1) for i in range(256)])
    ki = np.zeros(256, dtype=np.uint64)
    for i in range(3, 256):  # not box 0 (base and tail), 1 (bound 0) or 2 (uses wi[1])
        # numpy's bound is within 2 of wi[i-1] / wi[i] * 2**52: probe at rabs 1025 below it.
        r = int(wi[i - 1] / wi[i] * 2 ** 52 - 1025) << 9 | i
        if _draw(gen, r, 1) == (r >> 9) * wi[i] and gen.bit_generator.state["state"]["state"] == r:
            ki[i] = (r >> 9) + 1
    wi.flags.writeable = ki.flags.writeable = False
    return wi, ki


def _normals(stepped, inc):
    """standard_normal() of PCG64s stepped to their first output, as (hi, lo) uint64 arrays."""
    r, rot = stepped[0] ^ stepped[1], stepped[0] >> 58
    r = r >> rot | r << (64 - rot & 63)
    wi, ki = _ziggurat()
    idx, rabs = r & 0xFF, r >> 9 & (1 << 52) - 1
    x = np.where(r & 0x100, -1.0, 1.0) * (rabs * wi[idx])
    slow = np.flatnonzero(rabs >= ki[idx])
    gen = np.random.Generator(np.random.PCG64(0))  # per call: threads share no state
    states, incs = (hi[slow].astype(object) << 64 | lo[slow].astype(object)
                    for hi, lo in (stepped, inc))  # Python ints for these samples alone
    x[slow] = [_draw(gen, s, i) for s, i in zip(states, incs)]
    return x


def standard_draws(seeds, ts):
    """default_rng((seed, quantized t)).standard_normal() for each seed and time in ts.

    One seed gives a float64 row over the times; a sequence of seeds, which may
    mix seeds below and above 2**32, gives one row per seed from one call.
    """
    seeds = np.array([check_seed(s) for s in seeds] if np.ndim(seeds) else check_seed(seeds),
                     dtype=np.uint64)
    try:
        tq = np.array([round(t / T_QUANTUM) & _MASK64 for t in np.ravel(ts).tolist()],
                      dtype=np.uint64)
    except (ValueError, OverflowError) as exc:  # nan, inf, or |t| beyond 1e-12 * max float
        raise DomainError(f"noise times must be finite: {exc}") from exc
    # Entropy: the uint32 words of the seed, then of tq, zero-padded to 4.  A
    # seed below 2**32 has one word, so its high word 0 moves to the padding; a
    # tq below 2**32 has one word too, and its high word 0 is the padding.
    row_shape = seeds.shape + tq.shape
    seed, tq = np.repeat(seeds, tq.size), np.tile(tq, seeds.size)
    words = np.array([seed & _MASK32, seed >> 32, tq & _MASK32, tq >> 32], dtype=np.uint32)
    pool = _hashmix(np.where(seed <= _MASK32, words[[0, 2, 3, 1]], words), slice(0, 4))
    for src, dst in enumerate(([1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2])):
        mixed = (0xCA01F9DD * pool[dst]
                 - 0x4973F715 * _hashmix(pool[src], slice(4 + 3 * src, 7 + 3 * src)))
        pool[dst] = mixed ^ mixed >> 16
    words = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _OUTPUT_HASH[:8]) * _OUTPUT_HASH[1:]
    words = (words ^ words >> 16).astype(np.uint64)
    v0, v1, v2, v3 = words[0::2] | words[1::2] << 32
    # PCG64 seeding: inc = (v2:v3) << 1 | 1, and state 0 steps, adds (v0:v1) and steps.
    inc = (v2 << 1 | v3 >> 63, v3 << 1 | 1)
    stepped = _step(_step(_add(inc, (v0, v1)), inc), inc)
    return _normals(stepped, inc).reshape(row_shape)


def scale_draws(spec, clean, draws, conductivity):
    """Noisy data clean + sigma * draws, with sigma set by the spec's level and mode."""
    if spec.mode == "relative":
        sigma = spec.level * np.abs(clean / conductivity)
    else:
        sigma = np.full_like(clean, spec.level)
    return clean + sigma * draws
