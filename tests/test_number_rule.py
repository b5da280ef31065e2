"""One table for the number rule (qslora.modulation.validate_int and
validate_real): every numeric parameter of every public entry, with the kind,
the bounds and whether it takes an array.

Each bad value must raise ValueError whose message names the parameter: a
bool, str, None, complex or (for an integer) float fails the kind, and so
does any ndarray given to a scalar parameter, 1-element and 0-d included; a
value outside the bounds fails them, and NaN fails every bound. The array
parameters must still give the same numbers for an int or float ndarray and
a list as for the numbers one by one.
"""

import math
import re
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest

from qslora import modulation
from qslora.channel import (
    analytic_decision_statistic,
    noise_variance,
    synthesize_chip_rows,
    validate_delta_s,
    validate_offset,
    validate_snr,
)
from qslora.continuous_time import (
    ContinuousSignal,
    certify_discrete_model,
    matched_filter_chip,
    synthesize,
)
from qslora.modulation import (
    despread,
    envelope_matrix,
    symbol_cardinality,
    validate_int,
    validate_sf,
)
from qslora.grid import Grid, GridPoint, snr_axis
from qslora.montecarlo import (
    SerEstimate,
    StoppingRule,
    SweepConfig,
    run_point,
    wilson_interval,
)
from qslora.quadrature import integrate
from qslora.rice import analytical_ser_sync
from qslora.waveforms import ChipWaveform, autocorr, autocorr_quad, rectangular, sample_waveform

RECT = rectangular()
RC = ChipWaveform("rc")
POINT = GridPoint(sf=4, waveform=RECT, delta_s=0.4, snr_db=8.0)
ONE_CHUNK = StoppingRule(max_trials=4096, min_errors=0)
SIGNAL = synthesize((5, 9, 2), RECT, 4)


class Param(NamedTuple):
    """One numeric parameter: call(value) passes value to the entry; the
    message must start with prefix and then name. optional: None means no
    value, and is not a wrong kind."""

    call: Callable
    name: str
    integer: bool
    low: float
    high: Optional[float]
    ok: float
    array: bool = False
    prefix: str = ""
    optional: bool = False


def _int(call, name, low, high, ok, **kw):
    return Param(call, name, True, low, high, ok, **kw)


def _real(call, name, low, high, ok, **kw):
    return Param(call, name, False, low, high, ok, **kw)


def _config(key):
    return f"{key}: "


PARAMS = {
    "validate_int": _int(lambda v: validate_int(v, "count", 0, 9), "count", 0, 9, 3),
    "validate_real": _real(
        lambda v: modulation.validate_real(v, "level", 0, 1), "level", 0, 1, 0.5
    ),
    "validate_sf": _int(validate_sf, "spreading factor", 2, 12, 4),
    "symbol_cardinality": _int(symbol_cardinality, "spreading factor", 2, 12, 4),
    "despread.sf": _int(lambda v: despread(np.zeros(16), v), "spreading factor", 2, 12, 4),
    "envelope_matrix.sf": _int(envelope_matrix, "spreading factor", 2, 12, 4),
    "validate_snr": _real(validate_snr, "snr_db", -300, 300, 8.0),
    "noise_variance": _real(noise_variance, "snr_db", -300, 300, 8.0),
    "validate_delta_s": _real(validate_delta_s, "delta_s", 0, 1, 0.4),
    "validate_offset": _real(validate_offset, "delta", -0.5, 0.5, 0.25),
    "validate_offset.array": _real(
        lambda v: validate_offset(v, array=True), "delta", -0.5, 0.5, 0.25, array=True
    ),
    "analytic_decision_statistic.x_prev": _int(
        lambda v: analytic_decision_statistic(v, 2, -0.3, RECT, 4), "x_prev", 0, 15, 1,
        array=True,
    ),
    "analytic_decision_statistic.x_cur": _int(
        lambda v: analytic_decision_statistic(1, v, -0.3, RECT, 4), "x_cur", 0, 15, 2,
        array=True,
    ),
    "analytic_decision_statistic.delta": _real(
        lambda v: analytic_decision_statistic(1, 2, v, RECT, 4), "delta", -0.5, 0.5, -0.3,
        array=True,
    ),
    "analytic_decision_statistic.sf": _int(
        lambda v: analytic_decision_statistic(1, 2, -0.3, RECT, v),
        "spreading factor", 2, 12, 4,
    ),
    "synthesize_chip_rows.x_prev": _int(
        lambda v: synthesize_chip_rows(v, 2, -0.3, RECT, 4), "x_prev", 0, 15, 1, array=True
    ),
    "synthesize_chip_rows.x_cur": _int(
        lambda v: synthesize_chip_rows(1, v, -0.3, RECT, 4), "x_cur", 0, 15, 2, array=True
    ),
    "synthesize_chip_rows.delta": _real(
        lambda v: synthesize_chip_rows(1, 2, v, RECT, 4), "delta", -1, 1, -0.3, array=True
    ),
    "synthesize_chip_rows.sf": _int(
        lambda v: synthesize_chip_rows(1, 2, -0.3, RECT, v), "spreading factor", 2, 12, 4
    ),
    "integrate.a": _real(
        lambda v: integrate(np.cos, v, 1.0), "a", -math.inf, math.inf, 0.5, array=True
    ),
    "integrate.b": _real(
        lambda v: integrate(np.cos, 0.0, v), "b", -math.inf, math.inf, 0.5, array=True
    ),
    "sample_waveform.t": _real(
        lambda v: sample_waveform(RC, v), "t", -math.inf, math.inf, 0.5, array=True
    ),
    "ContinuousSignal.value_at.t": _real(
        SIGNAL.value_at, "t", -math.inf, math.inf, 3.0, array=True
    ),
    "autocorr": _real(lambda v: autocorr(RC, v), "delta", -1, 1, 0.3, array=True),
    "autocorr_quad": _real(lambda v: autocorr_quad(RC, v), "delta", -1, 1, 0.3),
    "ContinuousSignal.symbols": _int(
        lambda v: ContinuousSignal((v,), 4, RECT), "symbol", 0, 15, 3
    ),
    "ContinuousSignal.sf": _int(
        lambda v: ContinuousSignal((1,), v, RECT), "spreading factor", 2, 12, 4
    ),
    "synthesize.symbols": _int(lambda v: synthesize((1, v), RECT, 4), "symbol", 0, 15, 3),
    "synthesize.sf": _int(lambda v: synthesize((1, 2), RECT, v), "spreading factor", 2, 12, 4),
    "matched_filter_chip.n": _int(
        lambda v: matched_filter_chip(SIGNAL, v, 3, 0.1), "symbol index", 0, 2, 1
    ),
    "matched_filter_chip.k": _int(
        lambda v: matched_filter_chip(SIGNAL, 1, v, 0.1), "chip index", 0, 15, 3, array=True
    ),
    "matched_filter_chip.delta": _real(
        lambda v: matched_filter_chip(SIGNAL, 1, 3, v), "delta", -0.5, 0.5, 0.1
    ),
    "certify_discrete_model.sf": _int(
        lambda v: certify_discrete_model(v, RECT, 1, np.random.default_rng(0)),
        "spreading factor", 2, 12, 4,
    ),
    "certify_discrete_model.trials": _int(
        lambda v: certify_discrete_model(4, RECT, v, np.random.default_rng(0)),
        "trials", 1, None, 1,
    ),
    "certify_discrete_model.delta_s": _real(
        lambda v: certify_discrete_model(4, RECT, 1, np.random.default_rng(0), v),
        "delta_s", 0, 1, 0.4,
    ),
    "analytical_ser_sync.sf": _int(
        lambda v: analytical_ser_sync(v, 8.0), "spreading factor", 2, 12, 4
    ),
    "analytical_ser_sync.snr_db": _real(
        lambda v: analytical_ser_sync(4, v), "snr_db", -300, 300, 8.0
    ),
    "GridPoint.sf": _int(lambda v: GridPoint(v, RECT, 0.4, 8.0), "spreading factor", 2, 12, 4),
    "GridPoint.delta_s": _real(lambda v: GridPoint(4, RECT, v, 8.0), "delta_s", 0, 1, 0.4),
    "GridPoint.snr_db": _real(lambda v: GridPoint(4, RECT, 0.4, v), "snr_db", -300, 300, 8.0),
    "StoppingRule.max_trials": _int(lambda v: StoppingRule(v, 0), "max_trials", 1, None, 4096),
    "StoppingRule.min_errors": _int(lambda v: StoppingRule(4096, v), "min_errors", 0, None, 5),
    "SerEstimate.trials": _int(lambda v: SerEstimate(POINT, v, 1, 1), "trials", 1, None, 10),
    "SerEstimate.errors": _int(lambda v: SerEstimate(POINT, 10, v, 1), "errors", 0, 10, 1),
    "SerEstimate.seed": _int(lambda v: SerEstimate(POINT, 10, 1, v), "seed", 0, None, 5),
    "SerEstimate.elapsed": _real(
        lambda v: SerEstimate(POINT, 10, 1, 1, v), "elapsed", 0, None, 0.5
    ),
    "wilson_interval.errors": _int(lambda v: wilson_interval(v, 10), "errors", 0, 10, 1),
    "wilson_interval.trials": _int(lambda v: wilson_interval(1, v), "trials", 1, None, 10),
    "run_point.master_seed": _int(
        lambda v: run_point(POINT, ONE_CHUNK, master_seed=v), "master_seed", 0, None, 1
    ),
    "run_point.workers": _int(
        lambda v: run_point(POINT, ONE_CHUNK, workers=v), "workers", 1, None, 1
    ),
    "run_point.fixed_delta": _real(
        lambda v: run_point(POINT, ONE_CHUNK, fixed_delta=v), "fixed_delta", -0.5, 0.5, 0.1,
        optional=True,
    ),
    "snr_axis.start": _real(lambda v: snr_axis(v, 10.0, 2.0), "snr_db", -300, 300, 0.0),
    "snr_axis.stop": _real(lambda v: snr_axis(0.0, v, 2.0), "snr axis stop", 0, None, 10.0),
    "snr_axis.step": _real(lambda v: snr_axis(0.0, 10.0, v), "snr axis step", 0, None, 2.0),
    "Grid.sf_list": _int(
        lambda v: Grid(sf_list=(v,)), "spreading factor", 2, 12, 4, prefix=_config("sf")
    ),
    "Grid.delta_s_list": _real(
        lambda v: Grid(delta_s_list=(v,)), "delta_s", 0, 1, 0.4, prefix=_config("delta-s")
    ),
    "Grid.snr_start_db": _real(
        lambda v: Grid(snr_start_db=v), "snr_db", -300, 300, 0.0, prefix=_config("snr")
    ),
    "Grid.snr_stop_db": _real(
        lambda v: Grid(snr_stop_db=v), "snr axis stop", -4, None, 10.0, prefix=_config("snr")
    ),
    "Grid.snr_step_db": _real(
        lambda v: Grid(snr_step_db=v), "snr axis step", 0, None, 2.0, prefix=_config("snr")
    ),
    "SweepConfig.sf_list": _int(
        lambda v: SweepConfig(sf_list=(v,)), "spreading factor", 2, 12, 4, prefix=_config("sf")
    ),
    "SweepConfig.delta_s_list": _real(
        lambda v: SweepConfig(delta_s_list=(v,)), "delta_s", 0, 1, 0.4,
        prefix=_config("delta-s"),
    ),
    "SweepConfig.snr_start_db": _real(
        lambda v: SweepConfig(snr_start_db=v), "snr_db", -300, 300, 0.0, prefix=_config("snr")
    ),
    "SweepConfig.snr_stop_db": _real(
        lambda v: SweepConfig(snr_stop_db=v), "snr axis stop", -4, None, 10.0,
        prefix=_config("snr"),
    ),
    "SweepConfig.snr_step_db": _real(
        lambda v: SweepConfig(snr_step_db=v), "snr axis step", 0, None, 2.0,
        prefix=_config("snr"),
    ),
    "SweepConfig.trials_max": _int(
        lambda v: SweepConfig(trials_max=v), "max_trials", 1, None, 4096,
        prefix=_config("trials-max"),
    ),
    "SweepConfig.min_errors": _int(
        lambda v: SweepConfig(min_errors=v), "min_errors", 0, None, 5,
        prefix=_config("min-errors"),
    ),
    "SweepConfig.master_seed": _int(
        lambda v: SweepConfig(master_seed=v), "master_seed", 0, None, 1, prefix=_config("seed")
    ),
    "SweepConfig.workers": _int(
        lambda v: SweepConfig(workers=v), "workers", 1, None, 1, prefix=_config("workers")
    ),
    "SweepConfig.fixed_delta": _real(
        lambda v: SweepConfig(fixed_delta=v), "fixed_delta", -0.5, 0.5, 0.1,
        prefix=_config("fixed-delta"), optional=True,
    ),
}


def _kind_failures(param: Param) -> list:
    """Values that are not a number of the parameter's kind."""
    bad = [True, False, np.True_, "1", str(param.ok), 1j, complex(param.ok)]
    bad += [] if param.optional else [None]
    if param.integer:
        bad += [1.5, float(param.ok), math.nan, np.float64(param.ok)]
    if param.array:
        dtypes = ("U", "c", "?") + (("f",) if param.integer else ())
        bad += [[param.ok, True], (np.True_,)] + [np.array([param.ok]).astype(t) for t in dtypes]
    else:
        bad += [np.array([param.ok]), np.array([param.ok, param.ok]), np.array(param.ok)]
        bad += [[param.ok], (param.ok,)]
    return bad


def _bound_failures(param: Param) -> list:
    """Numbers of the parameter's kind outside its bounds."""
    step = 1 if param.integer else 0.5
    bad = [param.low - step] + ([] if param.high is None else [param.high + step])
    if not param.integer:
        bad += [math.nan, -math.inf, math.inf, np.float64(math.nan)]
        bad += [10**400] if param.high is None else []  # past the largest float
    if param.array:
        bad += [[param.ok, value] for value in bad[:2]]
        bad += [np.array([param.ok, param.low - step])]
    return bad


def _label(value) -> str:
    if isinstance(value, np.ndarray):
        return f"array{list(value.shape)}{value.dtype.str}"
    return repr(value)[:24]


def _cases(failures):
    return [
        pytest.param(key, value, id=f"{key}-{_label(value)}")
        for key, param in PARAMS.items()
        for value in failures(param)
    ]


def _pattern(param: Param, rest: str) -> str:
    return f"^{re.escape(param.prefix + param.name)} must be {rest}"


@pytest.mark.parametrize("key,value", _cases(_kind_failures))
def test_wrong_kind_raises_naming_the_parameter(key, value):
    param = PARAMS[key]
    noun = "an integer" if param.integer else "a real number"
    with pytest.raises(ValueError, match=_pattern(param, noun)):
        param.call(value)


@pytest.mark.parametrize("key,value", _cases(_bound_failures))
def test_out_of_bounds_raises_naming_the_parameter(key, value):
    param = PARAMS[key]
    rest = r"(in \[|>= )" if param.integer else r"(finite and (in \[|>= )|> 0)"
    with pytest.raises(ValueError, match=_pattern(param, rest)):
        param.call(value)


# the inputs that each entry accepted, or failed on with another error,
# before every number went through the one rule
MOTIVATING = {
    "GridPoint.delta_s=True": ("delta_s", lambda: GridPoint(4, RECT, True, 8)),
    "GridPoint.delta_s='0.5'": ("delta_s", lambda: GridPoint(4, RECT, "0.5", 8)),
    "SweepConfig.delta_s_list=(True,)": ("delta-s", lambda: SweepConfig(delta_s_list=(True,))),
    "validate_offset('0.25')": ("delta", lambda: validate_offset("0.25")),
    "run_point.fixed_delta='0.25'": (
        "fixed_delta", lambda: run_point(POINT, ONE_CHUNK, fixed_delta="0.25")
    ),
    "run_point.fixed_delta=False": (
        "fixed_delta", lambda: run_point(POINT, ONE_CHUNK, fixed_delta=False)
    ),
    "autocorr('0.3')": ("delta", lambda: autocorr(RC, "0.3")),
    "analytic_decision_statistic.delta='0.2'": (
        "delta", lambda: analytic_decision_statistic(0, 1, "0.2", RECT, 2)
    ),
    "SweepConfig.master_seed=array": (
        "seed", lambda: SweepConfig(master_seed=np.array([1, 2]))
    ),
    "run_point.master_seed=array": (
        "master_seed", lambda: run_point(POINT, ONE_CHUNK, master_seed=np.array([1, 2]))
    ),
    "StoppingRule.max_trials=array": (
        "max_trials", lambda: StoppingRule(max_trials=np.array([5, 7]))
    ),
    "GridPoint.sf=array": (
        "spreading factor", lambda: GridPoint(np.array([4]), RECT, 0.4, 8.0)
    ),
    "SerEstimate.seed=-5": ("seed", lambda: SerEstimate(POINT, 10, 1, seed=-5)),
    "SerEstimate.seed='x'": ("seed", lambda: SerEstimate(POINT, 10, 1, seed="x")),
    "SerEstimate.seed=1.5": ("seed", lambda: SerEstimate(POINT, 10, 1, seed=1.5)),
    "SerEstimate.seed=array": (
        "seed", lambda: SerEstimate(POINT, 10, 1, seed=np.array([1, 2]))
    ),
    "matched_filter_chip.delta=array": (
        "delta", lambda: matched_filter_chip(SIGNAL, 1, 0, np.array([0.1, 0.2]))
    ),
    "envelope_matrix.sf=array": ("spreading factor", lambda: envelope_matrix(np.array([4]))),
    "synthesize_chip_rows.x_cur=16": (
        "x_cur", lambda: synthesize_chip_rows([1], [16], [0.2], RECT, 4)
    ),
    "synthesize_chip_rows.x_cur=-1": (
        "x_cur", lambda: synthesize_chip_rows([1], [-1], [0.2], RECT, 4)
    ),
    "integrate('0', '1')": ("a", lambda: integrate(np.cos, "0", "1")),
    "integrate(False, True)": ("a", lambda: integrate(np.cos, False, True)),
    "sample_waveform('0.5')": ("t", lambda: sample_waveform(RECT, "0.5")),
    "value_at('3')": ("t", lambda: SIGNAL.value_at("3")),
}


@pytest.mark.parametrize("case", MOTIVATING)
def test_inputs_that_passed_before_the_one_rule(case):
    name, call = MOTIVATING[case]
    with pytest.raises(ValueError, match=f"^{re.escape(name)}"):
        call()


@pytest.mark.parametrize("key", [key for key, p in PARAMS.items() if not key.startswith("run")])
def test_numbers_of_every_type_pass(key):
    # an int, a numpy integer and, for a real, a float and numpy floats; the
    # run_point rows would run a chunk, and pass the same rule in TestRunPoint
    param = PARAMS[key]
    forms = [np.int64(param.ok)] if float(param.ok).is_integer() else []
    forms += [int(param.ok)] if float(param.ok).is_integer() else []
    if not param.integer:
        forms += [float(param.ok), np.float64(param.ok), np.float32(param.ok)]
    assert forms
    for value in forms:
        param.call(value)


def test_the_rule_returns_python_numbers():
    assert type(validate_int(np.int64(3), "count", 0)) is int
    assert type(validate_int(np.uint8(3), "count", 0)) is int
    assert type(modulation.validate_real(np.float32(0.25), "level", 0, 1)) is float
    assert type(modulation.validate_real(np.int64(1), "level", 0, 1)) is float
    assert type(validate_offset(np.float32(0.25))) is float
    assert validate_delta_s(1) == 1.0 and type(validate_delta_s(1)) is float
    assert type(GridPoint(np.int64(4), RECT, 0.4, 8.0).sf) is int
    rule = StoppingRule(np.int64(4096), np.int32(0))
    assert type(rule.max_trials) is int and type(rule.min_errors) is int
    estimate = SerEstimate(POINT, 10, 1, np.int64(3), np.float32(0.5))
    assert type(estimate.seed) is int and type(estimate.elapsed) is float


# each array parameter with numbers that, one by one, give the reference
# values; as a list, a tuple and an ndarray (int or float as the numbers are,
# and int32 where they are integers) they must give the same
ARRAY_CALLS = {
    "validate_offset.array": (lambda v: validate_offset(v, array=True), [-0.5, 0.0, 0.25]),
    "analytic_decision_statistic.x_prev": (
        lambda v: analytic_decision_statistic(v, 2, -0.3, RECT, 4), [0, 7, 15],
    ),
    "analytic_decision_statistic.x_cur": (
        lambda v: analytic_decision_statistic(1, v, 0.3, RC, 4), [0, 7, 15],
    ),
    "analytic_decision_statistic.delta": (
        lambda v: analytic_decision_statistic(1, 2, v, RC, 4), [-0.5, -0.3, 0.0, 0.5],
    ),
    "autocorr": (lambda v: np.stack(autocorr(RC, v), axis=-1), [-1, -0.3, 0, 0.7, 1]),
    "matched_filter_chip.k": (lambda v: matched_filter_chip(SIGNAL, 1, v, -0.2), [0, 3, 15]),
    "synthesize_chip_rows.x_prev": (
        lambda v: synthesize_chip_rows(v, 2, -0.3, RC, 4), [0, 7, 15],
    ),
    "synthesize_chip_rows.x_cur": (
        lambda v: synthesize_chip_rows(1, v, 0.3, RC, 4), [0, 7, 15],
    ),
    "synthesize_chip_rows.delta": (
        lambda v: synthesize_chip_rows(1, 2, v, RC, 4), [-1, -0.3, 0, 0.7, 1],
    ),
    "integrate.a": (lambda v: integrate(np.cos, v, 2.0), [-1, 0.5, 2]),
    "integrate.b": (lambda v: integrate(np.cos, -1.0, v), [-1, 0.25, 3.5]),
    "sample_waveform.t": (lambda v: sample_waveform(RC, v), [-0.5, 0, 0.25, 0.999, 1]),
    "ContinuousSignal.value_at.t": (SIGNAL.value_at, [-1, 0, 3.5, 47.9, 48]),
}


@pytest.mark.parametrize("key", ARRAY_CALLS)
def test_array_parameters_take_arrays_and_lists(key):
    assert PARAMS[key].array
    call, values = ARRAY_CALLS[key]
    one_by_one = np.array([call(v) for v in values])
    forms = [list(values), tuple(values), np.array(values)]
    if all(float(v).is_integer() for v in values):
        forms.append(np.array(values, dtype=np.int32))
    for form in forms:
        np.testing.assert_array_equal(call(form), one_by_one)
