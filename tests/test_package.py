"""The public surface of the package."""

import math
import types

import numpy as np
import pytest

import pairsim
from pairsim import optics, source

PUBLIC_NAMES = {
    "CoincidenceHistogram", "ConfigDomainError", "ConfigError", "ConfigSyntaxError",
    "ExperimentConfig", "SourceModel", "StreamOrderError", "TimestampStream",
    "UndefinedCorrelationError", "cauchy_schwarz", "compare", "export_histogram",
    "export_run", "g_ratio", "histogram", "oracle_report", "parse_config",
    "reference_preset", "render_config", "render_report", "render_run_report",
    "simulate_run", "singles_rates", "sweep",
}


def test_public_names_are_exactly_the_documented_set():
    # Submodules show up as attributes once imported; they are not names
    # that pairsim/__init__.py exports.
    exported = {name for name, value in vars(pairsim).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES


ONE = np.ones(4, dtype=np.int64)
NAN_GUARDS = {
    "detect_batch-dark_mean": (
        lambda rng: optics.detect_batch(ONE, 0.64, math.nan, 0.0, 1e-6, rng), "dark_mean"),
    "detect_batch-gate_width": (
        lambda rng: optics.detect_batch(ONE, 0.64, 0.0, 0.0, math.nan, rng), "gate_width"),
    "g_ratio-n_same_trial": (lambda rng: pairsim.g_ratio(math.nan, 5.0, 2), "n_same_trial"),
    "g_ratio-m_baseline": (lambda rng: pairsim.g_ratio(5.0, math.nan, 2), "m_baseline"),
    "g_ratio-n_baseline_peaks": (
        lambda rng: pairsim.g_ratio(5.0, 5.0, math.nan), "n_baseline_peaks"),
    "singles_rates-duration": (
        lambda rng: pairsim.singles_rates({"A": 1.0}, math.nan), "duration"),
    "sample_write-p": (
        lambda rng: source.sample_write(math.nan, source.SourceModel.QUANTUM_TMS, rng, 4),
        "p"),
    "decohere_memory-delay": (
        lambda rng: source.decohere_memory(ONE, math.nan, 1e-6, 0.1, rng), "delay"),
    "decohere_memory-lifetime": (
        lambda rng: source.decohere_memory(ONE, 1e-7, math.nan, 0.1, rng), "lifetime"),
    "decohere_memory-diffusion_in_mean": (
        lambda rng: source.decohere_memory(ONE, 1e-7, 1e-6, math.nan, rng),
        "diffusion_in_mean"),
}


@pytest.mark.parametrize("case", NAN_GUARDS)
def test_public_guards_reject_nan(case, rng):
    call, argument = NAN_GUARDS[case]
    with pytest.raises(ValueError, match=rf"\b{argument} must be"):
        call(rng)
