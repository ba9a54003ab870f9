"""Deterministic Gaussian perturbation of the energy-balance data."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stefanflux import (DomainError, NoiseSpec, benchmark_problem, example1, example2,
                        perturb_stefan_data, preset_scheme)
from stefanflux import noise
from stefanflux.assembly import stefan_nodes
from stefanflux.noise import standard_draws

# Seeds whose entropy takes one uint32 word and two, and the ends of the range.
ORACLE_SEEDS = (0, 1, 7, 2 ** 31 - 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1)


def _oracle(seed, t):
    """The draw as a fresh generator per sample gives it."""
    tq = int(round(t / 1e-12)) & (2 ** 64 - 1)
    return np.random.default_rng((seed, tq)).standard_normal()


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def test_zero_level_reproduces_clean_data():
    prob = example1()
    noisy = perturb_stefan_data(prob, NoiseSpec(0.0, seed=3))
    clean = lambda t: prob.latent_heat * prob.density * prob.boundary_rate(t)
    for t in (0.0, 0.25, 1.0):
        out = noisy(t)
        assert isinstance(out, float)
        assert out == clean(t)
    ts = np.linspace(0.0, 1.0, 7)
    np.testing.assert_array_equal(noisy(ts), clean(ts[0]) * np.ones(7))


def test_draws_are_deterministic():
    prob = example1()
    spec = NoiseSpec(0.01, seed=12)
    first = perturb_stefan_data(prob, spec)
    second = perturb_stefan_data(prob, spec)
    rng = np.random.default_rng(99)
    ts = rng.uniform(0.0, 1.0, 1000)
    np.testing.assert_array_equal(first(ts), second(ts))
    # Order and batching do not matter.
    shuffled = ts[::-1].copy()
    np.testing.assert_array_equal(first(shuffled), second(ts)[::-1])
    scalars = np.array([first(float(t)) for t in ts[:50]])
    np.testing.assert_array_equal(scalars, second(ts[:50]))


def test_draws_depend_on_seed_and_time():
    assert standard_draws(5, [0.3])[0] == standard_draws(5, [0.3])[0]
    assert standard_draws(5, [0.3])[0] != standard_draws(6, [0.3])[0]
    assert standard_draws(5, [0.3])[0] != standard_draws(5, [0.30001])[0]
    prob = example1()
    a = perturb_stefan_data(prob, NoiseSpec(0.01, seed=0))
    b = perturb_stefan_data(prob, NoiseSpec(0.01, seed=1))
    ts = np.linspace(0.1, 0.9, 9)
    assert not np.array_equal(a(ts), b(ts))


def test_relative_sigma_and_mean():
    # For the linear benchmark the clean data is L * gamma * s' = 1/sqrt(2)
    # and conductivity is 1, so sigma = level / sqrt(2) at every t.
    prob = example1()
    level = 0.05
    noisy = perturb_stefan_data(prob, NoiseSpec(level, seed=7))
    rng = np.random.default_rng(2024)
    ts = rng.uniform(0.0, 1.0, 100_000)
    residuals = noisy(ts) - prob.latent_heat * prob.density * prob.boundary_rate(0.0)
    sigma = level / math.sqrt(2.0)
    assert np.std(residuals) == pytest.approx(sigma, rel=0.02)
    assert abs(np.mean(residuals)) <= 3.0 * sigma / math.sqrt(ts.size)


def test_constant_sigma_mode():
    prob = example2()
    level = 0.02
    noisy = perturb_stefan_data(prob, NoiseSpec(level, seed=4, mode="constant"))
    rng = np.random.default_rng(8)
    ts = rng.uniform(0.0, 1.0, 20_000)
    clean = prob.latent_heat * prob.density * np.array(
        [prob.boundary_rate(float(t)) for t in ts])
    residuals = noisy(ts) - clean
    assert np.std(residuals) == pytest.approx(level, rel=0.03)

    relative = perturb_stefan_data(prob, NoiseSpec(level, seed=4))
    scaled = (relative(ts) - clean) / np.abs(clean / prob.conductivity)
    assert np.std(scaled) == pytest.approx(level, rel=0.03)


def test_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(-0.01)
    with pytest.raises(ValueError):
        NoiseSpec(float("nan"))
    with pytest.raises(ValueError):
        NoiseSpec(0.01, seed=0.5)
    with pytest.raises(ValueError):
        NoiseSpec(0.01, mode="multiplicative")
    # 2**64 used to draw seed 0's noise and -1 seed 2**64 - 1's.
    for seed in (-1, 2 ** 64):
        with pytest.raises(DomainError, match="seed"):
            NoiseSpec(0.01, seed=seed)
    assert NoiseSpec(0.01, seed=2 ** 64 - 1).seed == 2 ** 64 - 1


def test_scalar_and_array_shapes():
    prob = example1()
    noisy = perturb_stefan_data(prob, NoiseSpec(0.01, seed=1))
    assert isinstance(noisy(0.5), float)
    out = noisy(np.linspace(0.1, 0.9, 5))
    assert isinstance(out, np.ndarray)
    assert out.shape == (5,)


def test_draws_equal_a_generator_per_sample():
    # tq = 2**32 - 1 and 2**32 sit on both sides of the one-word entropy limit.
    times = [0.0, 1e-13, 4.294967295e-3, 4.294967296e-3, 1e4]
    times += np.random.default_rng(11).uniform(0.0, 1.5, 40).tolist()
    # Every energy-balance node of the sweep_noisy benchmark grid.
    prob = benchmark_problem("example2")
    for order in (8, 12, 16):
        times += stefan_nodes(prob, preset_scheme(order))[0].tolist()
    assert len(ORACLE_SEEDS) * len(times) >= 2000
    for seed in ORACLE_SEEDS:
        expected = [_oracle(seed, t) for t in times]
        np.testing.assert_array_equal(_bits(standard_draws(seed, np.array(times))),
                                      _bits(expected))
    assert standard_draws(2 ** 63, [0.3])[0] == _oracle(2 ** 63, 0.3)
    empty = standard_draws(5, np.array([]))
    assert empty.dtype == np.float64 and empty.shape == (0,)


def test_draws_reject_seeds_outside_uint64_and_non_finite_times():
    for seed in (-1, 2 ** 64):
        with pytest.raises(DomainError, match="seed"):
            standard_draws(seed, [0.1])
    # nan and inf used to raise a bare ValueError and OverflowError.
    for bad in (math.nan, math.inf, -math.inf, 1e300):
        with pytest.raises(DomainError, match="finite"):
            standard_draws(3, [0.1, bad])


def test_draws_are_thread_safe():
    # Each call sets its states on its own PCG64, so concurrent calls cannot
    # draw from one another's states.  A thread switch seldom falls between
    # setting a state and drawing from it, so the module must also hold no
    # generator that calls could share.
    assert not any(isinstance(value, (np.random.Generator, np.random.BitGenerator))
                   for value in vars(noise).values())
    ts = np.linspace(0.0, 1.0, 16)
    serial = {seed: _bits(standard_draws(seed, ts)) for seed in (3, 4)}

    def repeat(seed):
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
