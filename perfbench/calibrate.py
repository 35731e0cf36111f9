"""Machine-speed calibration for runs on a shared, noisy host.

On a host shared with other jobs the same item can take 20-40% longer for
seconds to minutes at a time, which no amount of work inside one run averages
out.  A fixed kernel is timed before and after every timed interval; it slows
down with the host.  An interval is reported in reference-host seconds, the
host on which the kernel takes ``REFERENCE_S[kernel]``:

    reference = raw * REFERENCE_S[kernel] / mean(kernel before, kernel after)

Each workload names the kernel whose working set matches its own, because
contention for the CPU and contention for cache and memory slow them by
different amounts: ``small`` is a Python loop around products of a 200x5
array, ``exp`` and 5x5 solves (binary fits on n <= 2000, per-step loops);
``large`` is multinomial Newton steps and boolean masks on a 4000x13 design
(fits on 10 000-row CSVs).  Neither touches ``vlmcx``, so no change to the
package moves them.  Raw times and the kernel samples are kept in the run
record.
"""

from __future__ import annotations

import math
import time

import numpy as np

RUNS = 2

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((200, 5))
_Y = (_rng.random(200) < 0.5).astype(float)
_XL = _rng.standard_normal((4000, 13))
_YL = _rng.integers(0, 3, 4000)


def kernel_small() -> float:
    acc = 0.0
    for i in range(150):
        w = np.full(5, 0.01 * (i % 7))
        mu = 1.0 / (1.0 + np.exp(-(_X @ w)))
        g = _X.T @ (_Y - mu)
        H = (_X * (mu * (1.0 - mu))[:, None]).T @ _X
        acc += float(np.linalg.solve(H + np.eye(5), g)[0])
        for j in range(40):
            acc += math.sqrt(j + 1.0) * 1e-9
    return acc


def kernel_large() -> float:
    acc = 0.0
    for i in range(6):
        theta = np.full((2, 13), 0.01 * i)
        L = np.concatenate([np.zeros((4000, 1)), _XL @ theta.T], axis=1)
        P = np.exp(L - L.max(axis=1, keepdims=True))
        P /= P.sum(axis=1, keepdims=True)
        for j in (1, 2):
            w = P[:, j] * (1.0 - P[:, j])
            H = (_XL * w[:, None]).T @ _XL
            acc += float(np.linalg.solve(H + np.eye(13), _XL.T @ ((_YL == j) - P[:, j]))[0])
        acc += int(np.count_nonzero((_YL[1:] == 1) & (_YL[:-1] == 2)))
    return acc


KERNELS = {"small": kernel_small, "large": kernel_large}
REFERENCE_S = {"small": 0.005, "large": 0.006}


class Calibration:
    """Samples of one kernel taken around timed intervals."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.samples: list[float] = []

    def sample(self) -> float:
        """Fastest of ``RUNS`` kernel runs: a hiccup only ever slows a run."""
        times = []
        run = KERNELS[self.kernel]
        for _ in range(RUNS):
            t0 = time.perf_counter()
            run()
            times.append(time.perf_counter() - t0)
        self.samples.append(min(times))
        return min(times)

    def to_reference(self, raw: float, before: float, after: float) -> float:
        return raw * REFERENCE_S[self.kernel] * 2.0 / (before + after)
