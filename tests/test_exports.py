"""Every exported name resolves: qslora.__all__ and each submodule's
__all__ list only attributes that exist, so deleting a function without
its export fails here rather than at a user's import."""

import ast
import importlib
import inspect
import pathlib
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


def _defined_names(module) -> set[str]:
    """The names a module binds at top level by def, class or assignment, not by import."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("module", MODULES[1:])
def test_submodule_exports_only_its_own_names(module):
    # a name has one home: a submodule re-exports nothing it imports
    module = importlib.import_module(module)
    assert set(module.__all__) <= _defined_names(module)


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
    "sample_waveform": "qslora.waveforms",
    "rectangular": "qslora.waveforms",
}
# R and Rhat come from autocorr / autocorr_quad; rc from ChipWaveform("rc");
# the pulse energy is autocorr_quad(w, 0.0)[0]; offsets come from
# channel._offsets behind each caller's own check of delta_s
DELETED = [
    "raised_cosine",
    "autocorr_overlapping",
    "autocorr_overlapped",
    "autocorr_overlapping_quad",
    "autocorr_overlapped_quad",
    "energy",
    "draw_offset",
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


def _imported_names(module) -> set[tuple[str, str]]:
    """(source module, name) of every from-import in a module, relative ones resolved."""
    package = module.__name__.rpartition(".")[0]
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            source = f"{package}.{node.module}" if node.level else node.module
            names.update((source, alias.name) for alias in node.names)
    return names


# the trial model's rules: the bins' moduli and the offset law
TRIAL_MODEL = {"_amplitude_tables", "_amplitudes", "_offsets"}


@pytest.mark.parametrize("module", MODULES)
def test_trial_model_is_defined_only_in_channel(module):
    defined = _defined_names(importlib.import_module(module)) & TRIAL_MODEL
    assert defined == (TRIAL_MODEL if module == "qslora.channel" else set())


def test_montecarlo_reads_the_bins_from_channel():
    # the sampler restates no part of the closed form: no pulse, no roots of unity
    imported = _imported_names(importlib.import_module("qslora.montecarlo"))
    assert not {name for source, name in imported if source == "qslora.waveforms"}
    assert ("qslora.modulation", "_roots") not in imported
    assert {("qslora.channel", "_amplitudes"), ("qslora.channel", "_offsets")} <= imported


def test_continuous_time_draws_no_offset_itself():
    # certify takes each offset from channel's offset law
    tree = ast.parse(inspect.getsource(importlib.import_module("qslora.continuous_time")))
    called = {
        node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert "uniform" not in called
    assert "_offsets" in called


# the Rice law of a bin and the other-bins decision that bounds its CDF
RICE_LAW = {"_log_i0e", "_central_log_cdf", "_rice_log_cdf", "_others_reach", "_BAND_MARGIN"}


@pytest.mark.parametrize("module", MODULES)
def test_rice_law_is_defined_only_in_rice(module):
    defined = _defined_names(importlib.import_module(module)) & RICE_LAW
    assert defined == (RICE_LAW if module == "qslora.rice" else set())


def test_montecarlo_imports_no_rice_cdf():
    # the sampler takes the decision whole from rice and evaluates no CDF itself
    imported = _imported_names(importlib.import_module("qslora.montecarlo"))
    assert ("qslora.rice", "_others_reach") in imported
    assert not {name for _, name in imported if name in RICE_LAW - {"_others_reach"}}


ROOT = pathlib.Path(qslora.__file__).resolve().parents[2]
# exported names that nothing outside tests/ references in code, each with why it stays
UNREFERENCED = {
    ("qslora.continuous_time", "synthesize"): "bench/tracing.py spans it by name",
    ("qslora.continuous_time", "matched_filter_chip"): "bench/tracing.py spans it by name",
    ("qslora.modulation", "despread"): "the tests' chip-rate reference of the despread vector",
    ("qslora.waveforms", "autocorr_quad"): "criterion 2 checks autocorr against it",
    ("qslora.montecarlo", "STREAM_VERSION"): "documented constant: the random stream's version",
}


def _code_references(path: pathlib.Path) -> set[str]:
    """Every name a file reads in code: loaded names, attributes and imported
    names. A name that only a docstring, comment or string mentions is not one."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_has_a_caller_outside_the_tests():
    # a public name that only its own tests use is vestigial: delete it, or
    # say in UNREFERENCED why it stays
    files = [*(ROOT / "src" / "qslora").glob("*.py"), *(ROOT / "bench").rglob("*.py")]
    referenced = set().union(*map(_code_references, files))
    unreferenced = {
        (module, name)
        for module in MODULES[1:]
        for name in importlib.import_module(module).__all__
        if name not in referenced
    }
    assert not unreferenced - UNREFERENCED.keys(), "exported, and no caller outside tests/"
    assert not UNREFERENCED.keys() - unreferenced, "listed, but a caller outside tests/ exists"
