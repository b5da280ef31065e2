"""Every exported name resolves: qslora.__all__ and each submodule's
__all__ list only attributes that exist, so deleting a function without
its export fails here rather than at a user's import."""

import importlib
import pkgutil

import pytest

import qslora

MODULES = ["qslora"] + [
    f"qslora.{info.name}" for info in pkgutil.iter_modules(qslora.__path__)
]
EXPORTS = [
    (module, name)
    for module in MODULES
    for name in importlib.import_module(module).__all__
]


@pytest.mark.parametrize("module,name", EXPORTS, ids=[f"{m}.{n}" for m, n in EXPORTS])
def test_exported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_top_level_holds_the_model():
    # the reference layers' helpers stay importable from their own modules
    assert set(qslora.__all__) == {
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
    }
    assert len(qslora.__all__) == 12


# each helper that left the top level is exported by its own module
MOVED = {
    "ContinuousSignal": "qslora.continuous_time",
    "synthesize": "qslora.continuous_time",
    "matched_filter_chip": "qslora.continuous_time",
    "integrate": "qslora.quadrature",
    "despread": "qslora.modulation",
    "envelope_matrix": "qslora.modulation",
    "symbol_cardinality": "qslora.modulation",
    "draw_offset": "qslora.channel",
    "sample_waveform": "qslora.waveforms",
    "energy": "qslora.waveforms",
    "rectangular": "qslora.waveforms",
}
# R and Rhat come from autocorr / autocorr_quad; rc from ChipWaveform("rc")
DELETED = [
    "raised_cosine",
    "autocorr_overlapping",
    "autocorr_overlapped",
    "autocorr_overlapping_quad",
    "autocorr_overlapped_quad",
]


@pytest.mark.parametrize("name", list(MOVED))
def test_helper_is_exported_by_its_own_module(name):
    module = importlib.import_module(MOVED[name])
    assert name not in qslora.__all__
    assert name in module.__all__
    assert hasattr(module, name)


@pytest.mark.parametrize("name", DELETED)
def test_deleted_name_is_gone_from_every_module(name):
    for module in MODULES:
        assert not hasattr(importlib.import_module(module), name), module
