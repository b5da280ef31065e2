"""The module attributes the benchmark under bench/ binds by name.

bench/tracing.py wraps these functions in the modules that call them and
bench/child.py reads the chip-matrix cache, so renaming or deleting one of
them breaks the traced benchmark run; this keeps that visible in the
main suite.
"""

import inspect

import numpy as np
import pytest

from qslora import cli, continuous_time, modulation, montecarlo, waveforms

BOUND = {
    cli: ("parse_config", "write_results", "analytical_ser_sync", "main"),
    montecarlo: (
        "run_point",
        "synthesize_chip_rows",
        "ProcessPoolExecutor",
        "GridPoint",
        "StoppingRule",
        "analytical_ser_sync",
        "snr_axis",
    ),
    continuous_time: (
        "synthesize",
        "synthesize_chip_rows",
        "matched_filter_chip",
        "sample_waveform",
        "integrate",
    ),
    waveforms: ("rectangular",),
    modulation: ("envelope_matrix",),
}


@pytest.mark.parametrize(
    "module,name",
    [(module, name) for module, names in BOUND.items() for name in names],
    ids=lambda value: value.__name__ if inspect.ismodule(value) else value,
)
def test_bound_attribute_exists(module, name):
    assert callable(getattr(module, name))


def test_run_point_takes_pool_arguments():
    params = inspect.signature(montecarlo.run_point).parameters
    assert {"workers", "executor"} <= set(params)


def test_parse_config_gives_the_sweep_axes():
    # bench/make_tables.py parses each workload's sweep and oracle argv and
    # reads these four fields to list the (sf, snr) points of its tables
    config = cli.parse_config(["--sf", "4,5", "--snr", "4:16:12"])
    assert isinstance(config, montecarlo.SweepConfig)
    assert config.sf_list == (4, 5)
    assert (config.snr_start_db, config.snr_stop_db, config.snr_step_db) == (4.0, 16.0, 12.0)


def test_envelope_matrix_is_cached():
    assert hasattr(modulation.envelope_matrix, "cache_info")


def test_integrate_takes_positional_array_ends():
    # bench/tracing.py wraps continuous_time.integrate as
    # integrate(integrand, *args, **kwargs) and forwards the interval ends
    # positionally, as matched_filter_chip passes them
    got = continuous_time.integrate(lambda t: 2.0 * t, np.array([0.0, 1.0]), np.array([1.0, 3.0]))
    np.testing.assert_allclose(got, [1.0, 8.0], rtol=0, atol=1e-14)
