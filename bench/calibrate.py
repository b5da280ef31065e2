"""Fixed calibration kernels, timed in a fresh interpreter.

    python3 bench/calibrate.py interp|array|array2

Prints the seconds one fixed piece of work takes, in one of the shapes
qslora's workloads have. interp is interpreter-bound (mpmath sums and
small numpy arrays, as in the oracle and the continuous-time reference);
array is memory-bound (32 MB complex arrays through exp, multiply and an
FFT, as in a large Monte-Carlo chunk); array2 runs array in two processes
at once, as a two-worker sweep does. None calls qslora, so their times
change only with the speed the host gives fresh processes. run.py
times the workload's kernel between iterations and divides the gated time
metrics by its time over NOMINAL_S.

The host this benchmark was built on slows fresh processes by up to half
for minutes at a time. The slowdown shows in the kernel of the workload's
shape and in the workload alike, so the quotient stays put while the raw
times move.
"""

from __future__ import annotations

import os
import sys
import time

import mpmath
import numpy as np

# Median time of each kernel over 45 to 135 calls on a 2-vCPU Xeon KVM guest
# (Python 3.11, numpy 2.4): a host factor of 1 means that machine's speed.
NOMINAL_S = {"interp": 0.215, "array": 0.22, "array2": 0.26}


def interp_kernel() -> float:
    mpmath.mp.dps = 30
    total = mpmath.mpf(0)
    for k in range(1, 120):
        total += mpmath.binomial(200, k) * mpmath.exp(-mpmath.mpf(k) / 3) * (-1) ** k
    x = np.linspace(-0.5, 0.5, 33)
    acc = 0.0
    for k in range(18000):
        y = np.cos(np.pi * (x + k * 1e-4)) ** 2 * np.exp(-x * x)
        acc += float(y[::2].sum() - 0.5 * (y[0] + y[-1]))
    return float(total) + acc


def array_kernel() -> float:
    rows, m = 512, 4096
    rng = np.random.default_rng(12345)
    phase = rng.random((rows, m))
    z = np.exp(2j * np.pi * phase)
    z *= np.exp(-1j * np.pi * np.arange(m) / m)
    spec = np.abs(np.fft.fft(z, axis=1))
    return float(spec.argmax(axis=1).sum())


def array2_kernel() -> None:
    """array_kernel in two processes at once, as the two sweep workers run."""
    pid = os.fork()
    if pid == 0:
        try:
            array_kernel()
        finally:
            os._exit(0)
    try:
        array_kernel()
    finally:
        os.waitpid(pid, 0)


KERNELS = {"interp": interp_kernel, "array": array_kernel, "array2": array2_kernel}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in KERNELS:
        print(f"usage: calibrate.py {'|'.join(KERNELS)}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    KERNELS[argv[0]]()
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
