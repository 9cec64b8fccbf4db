"""The public surface of the package."""

import types

import pairsim

PUBLIC_NAMES = {
    "CoincidenceHistogram", "ConfigDomainError", "ConfigError", "ConfigSyntaxError",
    "ExperimentConfig", "SourceModel", "StreamOrderError", "TimestampStream",
    "UndefinedCorrelationError", "add_background", "cauchy_schwarz", "compare",
    "decohere_memory", "detect_batch", "export_histogram", "export_run", "g_ratio",
    "histogram", "ideal_violation", "joint_pmf", "oracle_report", "parse_config",
    "reference_preset", "render_config", "render_report", "render_run_report",
    "retrieve", "sample_write", "simulate_run", "singles_rates", "split", "sweep",
    "thin",
}


def test_public_names_are_exactly_the_documented_set():
    # Submodules show up as attributes once imported; they are not names
    # that pairsim/__init__.py exports.
    exported = {name for name, value in vars(pairsim).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES
