"""A frozen reference computation that measures how fast the machine runs now.

Shared cores change speed with their neighbours' load: on a 2-core Xeon VM
the same work took up to about twice as long in episodes lasting from
seconds to minutes.  The kernel below does the kind of work stefanflux does
(Horner evaluation on ~100-point numpy arrays, a 13x13 LU solve and SVD) but
never changes with the program, so timing it just before and after a
measurement gives the machine's speed at that moment.  Each wall time is
scaled by SAMPLE_S over the mean of the samples around it, which gives the
time at the speed at which one sample takes SAMPLE_S seconds.
"""

import statistics
from time import perf_counter

import numpy as np
import scipy.linalg

SAMPLE_S = 0.007
SUBSAMPLES = 5
REPEATS = 8

_X = np.linspace(0.05, 1.0, 96)
_T = np.linspace(0.0, 1.0, 96)
_A = np.vander(np.linspace(0.1, 1.0, 13), increasing=True) + np.eye(13)
_B = np.ones(13)


def _kernel():
    acc = 0.0
    x2 = _X * _X
    for n in range(13):
        v = np.ones_like(x2)
        tp = np.ones_like(_T)
        k = 1.0
        for m in range(1, n // 2 + 1):
            k *= (n - 2 * m + 2) * (n - 2 * m + 1) / m
            tp = tp * _T
            v = v * x2 + k * tp
        acc += float(v.sum())
    lu_piv = scipy.linalg.lu_factor(_A, check_finite=False)
    acc += float(scipy.linalg.lu_solve(lu_piv, _B, check_finite=False)[0])
    acc += float(np.linalg.svd(_A, compute_uv=False)[0])
    return acc


def sample():
    """Seconds one sample of the reference kernel takes right now.

    Five times the median of five sub-samples, so that one interruption of the
    process does not count as a slow machine.
    """
    times = []
    for _ in range(SUBSAMPLES):
        start = perf_counter()
        for _ in range(REPEATS):
            _kernel()
        times.append(perf_counter() - start)
    return SUBSAMPLES * statistics.median(times)


class Speed:
    """Reference samples taken between consecutive measurements."""

    def __init__(self):
        self.samples = [sample()]

    def restart(self):
        """Take a fresh sample when other work ran since the last one."""
        self.samples.append(sample())

    def factor(self):
        """Call right after a measurement; scales its wall time to the reference speed."""
        self.samples.append(sample())
        return 2.0 * SAMPLE_S / (self.samples[-2] + self.samples[-1])
