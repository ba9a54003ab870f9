"""Deterministic Gaussian perturbation of the energy-balance data."""

import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stefanflux import (DomainError, NoiseSpec, SweepGrid, benchmark_problem, example1,
                        example2, preset_scheme)
from stefanflux import noise
from stefanflux.assembly import stefan_nodes
from stefanflux.noise import check_seed, scale_draws, standard_draws

# Seeds whose entropy takes one uint32 word and two, and the ends of the range.
ORACLE_SEEDS = (0, 1, 7, 2 ** 31 - 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1)


def _oracle(seed, t):
    """The draw as a fresh generator per sample gives it."""
    tq = int(round(t / 1e-12)) & (2 ** 64 - 1)
    return np.random.default_rng((seed, tq)).standard_normal()


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


# An odd PCG64 increment with both words set, and the inverse of PCG64's multiplier.
_INC = 0x5851F42D4C957F2D_14057B7EF767814F
_MULT_INV = pow(0x2360ED051FC65DA44385DF649FCCF645, -1, 2 ** 128)


def _assert_outputs_draw_as_numpy(outputs):
    """The package's draw from each first PCG64 output r < 2**64 is numpy's, bit for bit.

    One step takes the state (r - inc) / multiplier to r, whose high word 0 makes
    the output r itself; numpy's standard_normal() from that state is the oracle.
    The package takes each 128-bit state and increment as (hi, lo) uint64 words.
    """
    words = np.zeros(len(outputs), dtype=np.uint64)
    got = noise._normals((words, words + np.array(outputs, dtype=np.uint64)),
                         (words + (_INC >> 64), words + (_INC & 2 ** 64 - 1)))
    generator = np.random.Generator(np.random.PCG64(0))
    expected = []
    for r in outputs:
        state = {"state": (r - _INC) * _MULT_INV % 2 ** 128, "inc": _INC}
        generator.bit_generator.state = {"bit_generator": "PCG64", "state": state,
                                         "has_uint32": 0, "uinteger": 0}
        expected.append(generator.standard_normal())
    np.testing.assert_array_equal(_bits(got), _bits(expected))


def _words(values):
    """128-bit Python ints as the (hi, lo) pair of uint64 arrays the package computes on."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & 2 ** 64 - 1 for v in values], dtype=np.uint64))


def _ints(words):
    return [hi << 64 | lo for hi, lo in zip(words[0].tolist(), words[1].tolist())]


def test_uint64_words_add_and_step_as_python_ints_mod_2_128():
    # Words whose 32-bit halves are 0, 1, 2**31 and 2**32 - 1 stress the carries
    # of the 32-bit products in the multiply; random words fill the rest.
    halves = (0, 1, 2 ** 31, 2 ** 32 - 1)
    words = [hi << 32 | lo for hi in halves for lo in halves]
    rng = random.Random(15)
    words += [rng.getrandbits(64) for _ in range(16)]
    a = [hi << 64 | lo for hi in words for lo in words]
    b = a[::-1]
    mod = 2 ** 128
    assert _ints(noise._add(_words(a), _words(b))) == [(x + y) % mod for x, y in zip(a, b)]
    # Hundreds of the low-word sums wrap and carry into the high word.
    assert 100 < sum((x % 2 ** 64) + (y % 2 ** 64) >= 2 ** 64 for x, y in zip(a, b)) < len(a)
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    assert _ints(noise._step(_words(a), _words(b))) == [(x * mult + y) % mod
                                                         for x, y in zip(a, b)]
    # States and increments at the ends of the 128-bit range.
    top = [mod - 1, mod - 2, 2 ** 64 - 1, 2 ** 64]
    assert _ints(noise._step(_words(top), _words([1, 3, mod - 1, 2 ** 64 + 1]))) == [
        (x * mult + y) % mod for x, y in zip(top, [1, 3, mod - 1, 2 ** 64 + 1])]


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


def test_draws_equal_a_generator_per_sample():
    # tq = 2**32 - 1 and 2**32 sit on both sides of the one-word entropy limit.
    times = [0.0, 1e-13, 4.294967295e-3, 4.294967296e-3, 1e4]
    times += np.random.default_rng(11).uniform(0.0, 1.5, 40).tolist()
    # Every energy-balance node of the sweep_noisy benchmark grid.
    prob = benchmark_problem("example2")
    for order in (8, 12, 16):
        times += stefan_nodes(prob, preset_scheme(order))[0].tolist()
    assert len(ORACLE_SEEDS) * len(times) >= 2000
    # One block holds every seed, one-word and two-word seeds mixed.
    block = standard_draws(ORACLE_SEEDS, np.array(times))
    assert block.dtype == np.float64 and block.shape == (len(ORACLE_SEEDS), len(times))
    for seed, row in zip(ORACLE_SEEDS, block):
        expected = [_oracle(seed, t) for t in times]
        np.testing.assert_array_equal(_bits(row), _bits(expected))
        np.testing.assert_array_equal(_bits(standard_draws(seed, np.array(times))),
                                      _bits(expected))
    # Permuting the seeds permutes the rows and changes nothing else.
    order = np.random.default_rng(5).permutation(len(ORACLE_SEEDS))
    np.testing.assert_array_equal(
        _bits(standard_draws([ORACLE_SEEDS[i] for i in order], np.array(times))),
        _bits(block[order]))
    assert standard_draws(2 ** 63, [0.3])[0] == _oracle(2 ** 63, 0.3)
    empty = standard_draws(5, np.array([]))
    assert empty.dtype == np.float64 and empty.shape == (0,)
    assert standard_draws([], times).shape == (0, len(times))
    assert standard_draws(ORACLE_SEEDS, []).shape == (len(ORACLE_SEEDS), 0)


def test_large_block_equals_a_generator_per_sample_mostly_on_the_fast_path(monkeypatch):
    # 2**15 (seed, time) pairs: enough for every ziggurat box and hundreds of
    # samples past a box's fast-path bound, which numpy draws itself.
    times = np.random.default_rng(21).uniform(0.0, 2.0, 2 ** 12)
    noise._ziggurat()
    fallback = []
    draw = noise._draw
    monkeypatch.setattr(noise, "_draw", lambda *args: fallback.append(args) or draw(*args))
    block = standard_draws(ORACLE_SEEDS, times)
    assert block.size == 2 ** 15
    for seed, row in zip(ORACLE_SEEDS, block):
        np.testing.assert_array_equal(_bits(row), _bits([_oracle(seed, t) for t in times]))
    # Boxes 0 to 2 alone are 3/256 of the samples.  Rejecting every bound would
    # leave the draws right but send all of them to numpy one by one.
    assert 3 / 256 * block.size < len(fallback) < 0.05 * block.size


def test_ziggurat_tables_are_verified_at_every_box_bound():
    wi, ki = noise._ziggurat()
    assert isinstance(wi, np.ndarray) and isinstance(ki, np.ndarray)
    assert not wi.flags.writeable and not ki.flags.writeable
    assert wi.shape == ki.shape == (256,) and np.all(wi > 0)
    # Boxes 0 (base strip and tail) to 2 always go to numpy; every other bound
    # passed its probe.
    assert np.all(ki[:3] == 0) and np.all(ki[3:] > 2 ** 51)
    outputs = []
    for idx in range(256):
        rabs_cases = (int(ki[idx]) - 1, int(ki[idx])) if ki[idx] else (0, 1, 2 ** 51, 2 ** 52 - 1)
        for rabs in rabs_cases:
            # Positive and negative (sign bit 8), and junk above rabs's 52 bits.
            outputs += [rabs << 9 | sign << 8 | idx | junk << 61
                        for sign in (0, 1) for junk in (0, 5)]
    _assert_outputs_draw_as_numpy(outputs)


def test_draws_reject_seeds_outside_uint64_and_non_finite_times():
    for seed in (-1, 2 ** 64):
        with pytest.raises(DomainError, match="seed"):
            standard_draws(seed, [0.1])
        with pytest.raises(DomainError, match="seed"):
            standard_draws([0, seed], [0.1])
    # nan and inf used to raise a bare ValueError and OverflowError.
    for bad in (math.nan, math.inf, -math.inf, 1e300):
        with pytest.raises(DomainError, match="finite"):
            standard_draws(3, [0.1, bad])


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
                                  _bits([_oracle(int(seed), 0.1)]))


def test_draws_are_thread_safe():
    # Each call sets its states on its own PCG64, so concurrent calls cannot
    # draw from one another's states.  A thread switch seldom falls between
    # setting a state and drawing from it, so the module must also hold no
    # generator that calls could share; its ziggurat tables are plain arrays.
    assert not any(isinstance(value, (np.random.Generator, np.random.BitGenerator))
                   for value in vars(noise).values())
    ts = np.linspace(0.0, 1.0, 16)
    serial = {seed: _bits(standard_draws(seed, ts)) for seed in (3, 4)}
    tables = noise._ziggurat()
    # Both threads make the first draw of a process that has not learned the
    # ziggurat tables yet, at once.
    noise._ziggurat.cache_clear()
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
    for learned, table in zip(noise._ziggurat(), tables):
        np.testing.assert_array_equal(learned, table)
