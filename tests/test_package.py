"""The public surface of the package."""

import math
import types

import pytest

import pairsim

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


NAN_GUARDS = {
    "g_ratio-n_same_trial": (lambda: pairsim.g_ratio(math.nan, 5.0, 2), "n_same_trial"),
    "g_ratio-m_baseline": (lambda: pairsim.g_ratio(5.0, math.nan, 2), "m_baseline"),
    "g_ratio-n_baseline_peaks": (
        lambda: pairsim.g_ratio(5.0, 5.0, math.nan), "n_baseline_peaks"),
    "singles_rates-duration": (
        lambda: pairsim.singles_rates({"A": 1.0}, math.nan), "duration"),
}


@pytest.mark.parametrize("case", NAN_GUARDS)
def test_public_guards_reject_nan(case):
    call, argument = NAN_GUARDS[case]
    with pytest.raises(ValueError, match=rf"\b{argument} must be"):
        call()
