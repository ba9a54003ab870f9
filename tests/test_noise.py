"""Deterministic Gaussian perturbation of the energy-balance data."""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stefanflux import (DomainError, NoiseSpec, SweepGrid, benchmark_problem, example1,
                        example2, preset_scheme, run_case)
from stefanflux import noise
from stefanflux.assembly import stefan_nodes
from stefanflux.noise import check_seed, scale_draws, standard_draws

# Seeds at 0, small, at the 32-bit boundary and at the ends of the uint64 range.
ORACLE_SEEDS = (0, 1, 7, 2 ** 31 - 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1)
_G, _MASK = 0x9E3779B97F4A7C15, 2 ** 64 - 1


def _mix(z):
    """The SplitMix64 finaliser on a Python int, mod 2**64."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK
    return z ^ z >> 31


def _reference(seed, t):
    """The draw at (seed, t) as the documented stream defines it, on Python ints and math."""
    key = _mix(_mix(seed + _G & _MASK) ^ int(round(t / 1e-12)) & _MASK)
    a, b = _mix(key + _G & _MASK), _mix(key + 2 * _G & _MASK)
    return (math.sqrt(-2 * math.log(((a >> 11) + 1) * 2 ** -53))
            * math.cos(2 ** -52 * math.pi * (b >> 11)))


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def test_mix_reproduces_the_published_splitmix64_vectors():
    # SplitMix64 seeded with 1234567 outputs mix(1234567 + k G) for k = 1, 2, ...
    states = np.array([1234567 + k * _G & _MASK for k in range(1, 6)], dtype=np.uint64)
    expected = [6457827717110365317, 3203168211198807973, 9817491932198370423,
                4593380528125082431, 16408922859458223821]
    assert noise._mix(states).tolist() == expected
    assert [_mix(int(state)) for state in states] == expected


def _noisy(prob, spec, ts):
    """Energy-balance data at ts on the package's one noisy path."""
    return scale_draws(spec, prob.interface_flux(ts), standard_draws(spec.seed, ts),
                       prob.conductivity)


def test_zero_level_reproduces_clean_data():
    prob = example1()
    ts = np.linspace(0.0, 1.0, 7)
    clean = prob.latent_heat * prob.density * prob.boundary_rate(ts[0])
    np.testing.assert_array_equal(_noisy(prob, NoiseSpec(0.0, seed=3), ts), clean * np.ones(7))


def test_draws_are_deterministic():
    prob = example1()
    spec = NoiseSpec(0.01, seed=12)
    rng = np.random.default_rng(99)
    ts = rng.uniform(0.0, 1.0, 1000)
    np.testing.assert_array_equal(_noisy(prob, spec, ts), _noisy(prob, spec, ts))
    # Order and batching do not matter.
    shuffled = ts[::-1].copy()
    np.testing.assert_array_equal(_noisy(prob, spec, shuffled), _noisy(prob, spec, ts)[::-1])
    batches = np.concatenate([_noisy(prob, spec, ts[i:i + 7]) for i in range(0, 50, 7)])
    np.testing.assert_array_equal(batches, _noisy(prob, spec, ts[:56]))


def test_draws_depend_on_seed_and_time():
    assert standard_draws(5, [0.3])[0] == standard_draws(5, [0.3])[0]
    assert standard_draws(5, [0.3])[0] != standard_draws(6, [0.3])[0]
    assert standard_draws(5, [0.3])[0] != standard_draws(5, [0.30001])[0]
    prob = example1()
    ts = np.linspace(0.1, 0.9, 9)
    assert not np.array_equal(_noisy(prob, NoiseSpec(0.01, seed=0), ts),
                              _noisy(prob, NoiseSpec(0.01, seed=1), ts))


def test_relative_sigma_and_mean():
    # For the linear benchmark the clean data is L * gamma * s' = 1/sqrt(2)
    # and conductivity is 1, so sigma = level / sqrt(2) at every t.
    prob = example1()
    level = 0.05
    rng = np.random.default_rng(2024)
    ts = rng.uniform(0.0, 1.0, 100_000)
    clean = prob.latent_heat * prob.density * prob.boundary_rate(0.0)
    residuals = _noisy(prob, NoiseSpec(level, seed=7), ts) - clean
    sigma = level / math.sqrt(2.0)
    assert np.std(residuals) == pytest.approx(sigma, rel=0.02)
    assert abs(np.mean(residuals)) <= 3.0 * sigma / math.sqrt(ts.size)


def test_constant_sigma_mode():
    prob = example2()
    level = 0.02
    rng = np.random.default_rng(8)
    ts = rng.uniform(0.0, 1.0, 20_000)
    clean = prob.latent_heat * prob.density * np.array(
        [prob.boundary_rate(float(t)) for t in ts])
    residuals = _noisy(prob, NoiseSpec(level, seed=4, mode="constant"), ts) - clean
    assert np.std(residuals) == pytest.approx(level, rel=0.03)

    relative = _noisy(prob, NoiseSpec(level, seed=4), ts)
    scaled = (relative - clean) / np.abs(clean / prob.conductivity)
    assert np.std(scaled) == pytest.approx(level, rel=0.03)


def test_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(-0.01)
    with pytest.raises(ValueError):
        NoiseSpec(float("nan"))
    with pytest.raises(DomainError, match="noise level"):
        NoiseSpec(10 ** 400)  # np.isfinite raised a TypeError on it
    with pytest.raises(ValueError):
        NoiseSpec(0.01, seed=0.5)
    with pytest.raises(ValueError):
        NoiseSpec(0.01, mode="multiplicative")
    # 2**64 used to draw seed 0's noise and -1 seed 2**64 - 1's.
    for seed in (-1, 2 ** 64):
        with pytest.raises(DomainError, match="seed"):
            NoiseSpec(0.01, seed=seed)
    assert NoiseSpec(0.01, seed=2 ** 64 - 1).seed == 2 ** 64 - 1
    # A bare level raised "AttributeError: 'float' object has no attribute 'level'".
    for bad in (0.01, (0.01, 3)):
        with pytest.raises(DomainError, match=r"^noise must be a NoiseSpec or None, got "):
            run_case(example1(), 8, noise=bad)


def test_draws_match_a_pure_python_reference():
    # tq = 2**32 - 1 and 2**32 sit on both sides of a 32-bit word.
    times = [0.0, 1e-13, 4.294967295e-3, 4.294967296e-3, 1e4]
    times += np.random.default_rng(11).uniform(0.0, 1.5, 40).tolist()
    # Every energy-balance node of the sweep_noisy benchmark grid.
    prob = benchmark_problem("example2")
    for order in (8, 12, 16):
        times += stefan_nodes(prob, preset_scheme(order))[0].tolist()
    assert len(ORACLE_SEEDS) * len(times) == 2280
    block = standard_draws(ORACLE_SEEDS, np.array(times))
    assert block.dtype == np.float64 and block.shape == (len(ORACLE_SEEDS), len(times))
    for seed, row in zip(ORACLE_SEEDS, block):
        # np.log and math.log differ by 1 ulp on a few inputs; the stream is the formula.
        np.testing.assert_array_max_ulp(row, [_reference(seed, t) for t in times], maxulp=4)
        np.testing.assert_array_equal(_bits(standard_draws(seed, np.array(times))), _bits(row))
    # Permuting the seeds permutes the rows and changes nothing else.
    order = np.random.default_rng(5).permutation(len(ORACLE_SEEDS))
    np.testing.assert_array_equal(
        _bits(standard_draws([ORACLE_SEEDS[i] for i in order], np.array(times))),
        _bits(block[order]))
    np.testing.assert_array_max_ulp(standard_draws(2 ** 63, [0.3]), [_reference(2 ** 63, 0.3)],
                                    maxulp=4)
    empty = standard_draws(5, np.array([]))
    assert empty.dtype == np.float64 and empty.shape == (0,)
    assert standard_draws([], times).shape == (0, len(times))
    assert standard_draws(ORACLE_SEEDS, []).shape == (len(ORACLE_SEEDS), 0)


def test_time_quanta_match_round_at_ties_signs_and_large_times():
    # tq = round(t / 1e-12) mod 2**64: exact half-quantum quotients round half to even,
    # negative quanta wrap, and times straddle 2**53 quanta (where quanta stop being spaced
    # by 1), 2**62 and the int64 and uint64 ends.
    ties = [t for t in ((k + 0.5) * 1e-12 for k in range(-40, 40)) if t / 1e-12 % 1 == 0.5]
    assert len(ties) >= 20 and {round(t / 1e-12) % 2 for t in ties} == {0}
    times = [-1.5, -0.37, -1e-13, -0.0, 2.5e-12, *ties]
    for quanta in (2 ** 53, 2 ** 62, 2 ** 63, 2 ** 64):
        edge = quanta * 1e-12
        times += [sign * t for sign in (1, -1) for t in
                  (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf), 1.5 * edge)]
    block = standard_draws(ORACLE_SEEDS[:4], np.array(times))
    for seed, row in zip(ORACLE_SEEDS[:4], block):
        np.testing.assert_array_max_ulp(row, [_reference(seed, t) for t in times], maxulp=4)


def test_quanta_below_2_52_equal_the_per_time_ones_bit_for_bit():
    # A block whose quanta t / 1e-12 all lie below 2**52 may round them at once; a block with a
    # time beyond (here 1e5, 1e17 quanta) rounds each alone.  Both must give
    # round(t / 1e-12) mod 2**64: on both sides of 2**52 quanta, at negative times, and at
    # half-quantum ties near 0 and near 2**51 quanta, where quotients are spaced by 1/2.
    edge = 2 ** 52 * 1e-12
    ties = [t for t in ((k + 0.5) * 1e-12 for k in range(-40, 40)) if t / 1e-12 % 1 == 0.5]
    ties += [t for t in ((2 ** 51 + k + 0.5) * 1e-12 for k in range(-20, 20))
             if t / 1e-12 % 1 == 0.5]
    assert len(ties) >= 40 and {round(t / 1e-12) % 2 for t in ties} == {0}
    times = [0.0, -0.0, 0.37, -0.37, 1.5e-12, -2.5e-12, *ties]
    times += [sign * t for sign in (1, -1) for t in
              (np.nextafter(np.nextafter(edge, 0.0), 0.0), np.nextafter(edge, 0.0), edge,
               np.nextafter(edge, np.inf), 1.5 * edge)]
    # Alone, times at the int64 and uint64 ends of the quanta must still wrap as round's do.
    times += [sign * t for quanta in (2 ** 62, 2 ** 63, 2 ** 64) for sign in (1, -1)
              for t in (np.nextafter(quanta * 1e-12, 0.0), np.nextafter(quanta * 1e-12, np.inf))]
    below = [t for t in times if abs(t / 1e-12) < 2 ** 52]
    assert 0 < len(below) < len(times)
    seeds = ORACLE_SEEDS[:4]
    for block in (times, below):
        draws = standard_draws(seeds, np.array(block))
        for t, column in zip(block, draws.T):
            for each in (standard_draws(seeds, [t])[:, 0], standard_draws(seeds, [t, 1e5])[:, 0]):
                np.testing.assert_array_equal(_bits(each), _bits(column))
        for seed, row in zip(seeds, draws):
            np.testing.assert_array_max_ulp(row, [_reference(seed, t) for t in block], maxulp=4)
    # float32 and integer times are quantised from their float64 values.
    for times in (np.float32(below[:20]), np.arange(-3, 4)):
        np.testing.assert_array_equal(_bits(standard_draws(seeds, times)),
                                      _bits(standard_draws(seeds, times.astype(float).tolist())))


def test_draws_have_normal_moments_tails_and_no_lag_correlation():
    # 2**20 draws on consecutive seeds and consecutive time quanta, the keys
    # closest together.  Each bound is 5 standard errors of a standard normal
    # sample of this size; the stream is fixed, so the values are too.
    draws = standard_draws(range(1024), np.arange(1024) * 1e-12)
    n = draws.size
    x = draws.ravel()
    assert abs(x.mean()) < 5 / math.sqrt(n)
    assert abs(x.std() - 1.0) < 5 / math.sqrt(2 * n)
    assert abs(np.mean(x ** 3)) < 5 * math.sqrt(15 / n)
    assert abs(np.mean(x ** 4) - 3.0) < 5 * math.sqrt(96 / n)
    for bound in (1.0, 2.0, 3.0, 4.0):
        p = math.erfc(bound / math.sqrt(2.0))
        assert abs(np.mean(np.abs(x) > bound) - p) < 5 * math.sqrt(p * (1 - p) / n)
    # Neighbours in time, in seed, and both at once.
    for a, b in ((draws[:, 1:], draws[:, :-1]), (draws[1:], draws[:-1]),
                 (draws[1:, 1:], draws[:-1, :-1])):
        assert abs(np.mean(a * b)) < 5 / math.sqrt(a.size)


def test_draws_build_no_numpy_generator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("standard_draws built a numpy generator")

    for name in ("Generator", "BitGenerator", "default_rng", "PCG64", "SeedSequence"):
        monkeypatch.setattr(np.random, name, refuse)
    row = standard_draws(ORACLE_SEEDS, [0.1, 0.2])[3]
    np.testing.assert_array_max_ulp(row, [_reference(ORACLE_SEEDS[3], t) for t in (0.1, 0.2)],
                                    maxulp=4)


def test_draws_reject_seeds_outside_uint64_and_non_finite_times():
    for seed in (-1, 2 ** 64):
        with pytest.raises(DomainError, match="seed"):
            standard_draws(seed, [0.1])
        with pytest.raises(DomainError, match="seed"):
            standard_draws([0, seed], [0.1])
    # nan and inf used to raise a bare ValueError and OverflowError.  Times whose quotient by
    # 1e-12 overflows raise as inf does, with no overflow warning (warnings are errors here).
    infinity = "noise times must be finite: cannot convert float infinity to integer"
    for bad, message in ((math.nan, "noise times must be finite: cannot convert float NaN to "
                          "integer"), (math.inf, infinity), (-math.inf, infinity),
                         (1e300, infinity), (-1e300, infinity)):
        for times in ([0.1, bad], [bad], np.array([bad, 0.2])):
            with pytest.raises(DomainError) as caught:
                standard_draws(3, times)
            assert str(caught.value) == message


@pytest.mark.parametrize("seed", [math.nan, math.inf, -math.inf, 1.5, -1, 2 ** 64, 2 ** 1100])
def test_bad_seeds_raise_domain_error(seed):
    # Every path that takes a seed checks it the same way.  nan used to raise a
    # bare ValueError and +-inf an OverflowError; 2**1100 overflows float().
    for take in (check_seed, lambda seed: NoiseSpec(0.01, seed=seed),
                 lambda seed: SweepGrid(orders=(8,), seeds=(0, seed)),
                 lambda seed: standard_draws([0, seed], [0.1])):
        with pytest.raises(DomainError, match="seed"):
            take(seed)


@pytest.mark.parametrize("seed", [7.0, 2 ** 64 - 1, np.uint64(2 ** 64 - 1)])
def test_integral_seeds_are_accepted(seed):
    assert check_seed(seed) == seed and type(check_seed(seed)) is int
    assert NoiseSpec(0.01, seed=seed).seed == seed
    assert SweepGrid(orders=(8,), seeds=(seed,)).seeds == (int(seed),)
    np.testing.assert_array_equal(_bits(standard_draws([0, seed], [0.1])[1]),
                                  _bits(standard_draws(int(seed), [0.1])))


def test_draws_are_thread_safe():
    # The stream holds no state, so concurrent calls draw what serial calls do.
    ts = np.linspace(0.0, 1.0, 16)
    serial = {seed: _bits(standard_draws(seed, ts)) for seed in (3, 4)}
    start = threading.Barrier(2, timeout=60)

    def repeat(seed):
        start.wait()
        return [standard_draws(seed, ts) for _ in range(200)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = {seed: pool.submit(repeat, seed) for seed in serial}
            results = {seed: future.result(timeout=120) for seed, future in futures.items()}
    finally:
        sys.setswitchinterval(interval)
    for seed, runs in results.items():
        assert len(runs) == 200
        for run in runs:
            np.testing.assert_array_equal(_bits(run), serial[seed])
