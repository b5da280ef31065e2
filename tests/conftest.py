import numpy as np
import pytest

from qslora.waveforms import ChipWaveform, rectangular


@pytest.fixture
def rect():
    return rectangular()


@pytest.fixture
def rc():
    return ChipWaveform("rc")


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
