"""Chip-accurate SER simulator for quasisynchronous LoRa over AWGN.

The package models frequency-shift chirp modulation at chip rate with a
bounded fractional-chip timing error, validates the discrete model against
an exact continuous-time matched-filter oracle, and estimates symbol error
rates over a (spreading factor, chip waveform, offset bound, SNR) grid with
deterministic, worker-count-independent Monte-Carlo.
"""

__version__ = "0.1.0"

from .channel import draw_offset
from .continuous_time import (
    ContinuousSignal,
    certify_discrete_model,
    matched_filter_chip,
    synthesize,
)
from .correlations import analytic_decision_statistic
from .modulation import (
    despread,
    envelope_matrix,
    sample_to_word,
    symbol_cardinality,
    word_to_sample,
)
from .montecarlo import (
    GridPoint,
    SerEstimate,
    StoppingRule,
    analytical_ser_sync,
    run_point,
    run_sweep,
    wilson_interval,
)
from .quadrature import QuadratureError, integrate
from .waveforms import (
    ChipWaveform,
    autocorr_overlapped,
    autocorr_overlapping,
    energy,
    raised_cosine,
    rectangular,
    sample_waveform,
)

__all__ = [
    "__version__",
    "ChipWaveform",
    "ContinuousSignal",
    "GridPoint",
    "QuadratureError",
    "SerEstimate",
    "StoppingRule",
    "analytic_decision_statistic",
    "analytical_ser_sync",
    "autocorr_overlapped",
    "autocorr_overlapping",
    "certify_discrete_model",
    "despread",
    "draw_offset",
    "energy",
    "envelope_matrix",
    "integrate",
    "matched_filter_chip",
    "raised_cosine",
    "rectangular",
    "run_point",
    "run_sweep",
    "sample_to_word",
    "sample_waveform",
    "symbol_cardinality",
    "synthesize",
    "wilson_interval",
    "word_to_sample",
]
