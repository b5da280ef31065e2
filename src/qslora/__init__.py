"""Chip-accurate SER simulator for quasisynchronous LoRa over AWGN.

The package models frequency-shift chirp modulation at chip rate with a
bounded fractional-chip timing error, validates the discrete model against
an exact continuous-time matched-filter oracle, and estimates symbol error
rates over a (spreading factor, chip waveform, offset bound, SNR) grid with
deterministic, worker-count-independent Monte-Carlo.

The top level holds the model; the reference layers' helpers stay in their
own modules (qslora.continuous_time, qslora.modulation, qslora.quadrature,
qslora.waveforms, qslora.channel).

Importing qslora before numpy sets OPENBLAS_NUM_THREADS=1 unless the
environment already names a value. qslora gives BLAS no work worth a thread
(a dot product of a few hundred values and an (rows, 96) @ (96,) product),
yet numpy's OpenBLAS starts one worker thread per extra CPU at load, and
that thread spins for about 0.1 s before it sleeps: on a 2-CPU host it took
about 40% of the CPU of a short sweep process and saved no wall time. To
give OpenBLAS threads anyway, export OPENBLAS_NUM_THREADS, or import numpy
before qslora (then qslora leaves the environment alone).
"""

import os as _os
import sys as _sys

# Must run before the first import below that loads numpy: OpenBLAS reads
# the variable once, when numpy loads it. On a 2-CPU host the idle OpenBLAS
# thread used 99 ms of CPU against 136 ms for the main thread of a fresh
# 4-point sf 10 sweep process (medians of 9 runs).
if "numpy" not in _sys.modules:
    _os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .channel import analytic_decision_statistic
from .continuous_time import certify_discrete_model
from .grid import GridPoint
from .montecarlo import SerEstimate, StoppingRule, run_point, run_sweep, wilson_interval
from .rice import analytical_ser_sync
from .waveforms import ChipWaveform, autocorr

__all__ = [
    "__version__",
    "ChipWaveform",
    "autocorr",
    "GridPoint",
    "StoppingRule",
    "SerEstimate",
    "wilson_interval",
    "run_point",
    "run_sweep",
    "analytical_ser_sync",
    "analytic_decision_statistic",
    "certify_discrete_model",
]
