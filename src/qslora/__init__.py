"""Chip-accurate SER simulator for quasisynchronous LoRa over AWGN.

The package models frequency-shift chirp modulation at chip rate with a
bounded fractional-chip timing error, validates the discrete model against
an exact continuous-time matched-filter oracle, and estimates symbol error
rates over a (spreading factor, chip waveform, offset bound, SNR) grid with
deterministic, worker-count-independent Monte-Carlo.

The top level holds the model; the reference layers' helpers stay in their
own modules (qslora.continuous_time, qslora.modulation, qslora.quadrature,
qslora.waveforms, qslora.channel).
"""

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
