"""Host-speed calibration, so that timings survive a noisy shared host.

On the reference machine (a 2-vCPU VM sharing its host), the speed of
the CPU changes by about 1.6x every few seconds and drifts over minutes,
with no steal time: CPU time inflates as much as wall time.  Raw
request medians of runs a few minutes apart differed by over 30%.

A fixed dense LAPACK kernel (one 96 x 96 complex generalized
eigenproblem with both eigenvector sets), timed between consecutive
requests on the same CPU, tracks that speed.  Over ten 25 s runs per
workload, the spread (interquartile range over median) of the median
request time was 0.13 / 0.07 / 0.23 / 0.06 raw and 0.027 / 0.043 /
0.022 / 0.017 scaled, for ``solve-large`` / ``double-eig`` /
``twoparam`` / ``cli``.  The loop scales each request's wall
and CPU time by ``REF_S / kernel_time``, where the kernel time is the
mean of the probes just before and just after the request.  A time
reported this way is in milliseconds at the reference speed: the speed
at which the kernel takes ``REF_S``.

The kernel uses only numpy and scipy, but it runs in the benchmark's
process, so a request could still slow it through what it leaves behind
(cache and heap state).  The loop therefore times the kernel twice after
a request, at most every ``PAIR_INTERVAL_S`` of run.py: once right after
the request and once right after that first probe.  ``disturbance`` is the median ratio of the two; it is 1
when requests leave nothing behind that slows the probe, and the run
warns when it exceeds 1 by more than ``DISTURBANCE_TOLERANCE``.  A thread
left running would slow both probes alike, so run.py also counts the
process's threads after the loop.
"""

from __future__ import annotations

import statistics
import time

REF_S = 0.035
PROBE_N = 96
DISTURBANCE_TOLERANCE = 0.05


class SpeedProbe:
    """Times a fixed generalized eigenproblem; one call takes about REF_S."""

    def __init__(self):
        import numpy as np
        import scipy.linalg

        rng = np.random.default_rng(20190601)
        shape = (PROBE_N, PROBE_N)
        self._a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self._b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self._eig = scipy.linalg.eig
        for _ in range(2):  # the first calls pay lazy initialisation, not host speed
            self()

    def __call__(self):
        t0 = time.perf_counter()
        self._eig(self._a, self._b, left=True, right=True)
        return time.perf_counter() - t0


def factor(before, after):
    """Scale from host time to reference time for work done between two probes."""
    return REF_S / ((before + after) / 2.0)


def disturbance(after_request, after_probe):
    """Median ratio of paired probes: right after a request / right after a probe."""
    return statistics.median(a / c for a, c in zip(after_request, after_probe))
