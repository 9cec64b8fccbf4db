"""Configuration schema, parsing, validation and the reference preset."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsim import (ConfigDomainError, ConfigError, ConfigSyntaxError,
                     ExperimentConfig, SourceModel, parse_config,
                     render_config, validate)
from pairsim.config import NO_DECAY, ensure_valid

MINIMAL = """
source_model = quantum_tms
p_excitation = 0.1
delay_dt = 2e-6
retrieval_eff = 0.32
transmission = 0.5
detector_eff = 0.64
"""


def test_minimal_config_applies_documented_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.dark_mean == 0.0
    assert cfg.bg_stokes_mean == 0.0
    assert cfg.bg_antistokes_mean == 0.0
    assert cfg.memory_diffusion_in == 0.0
    assert cfg.memory_lifetime == NO_DECAY
    assert cfg.gate_width == 1e-6
    assert cfg.cycle_period == 2e-4
    assert cfg.baseline_peaks == 7
    assert cfg.hist_bin == 1e-8
    assert cfg.hist_span == 1.8e-3


def test_p_above_one_is_physical_and_accepted():
    cfg = parse_config(MINIMAL.replace("p_excitation = 0.1", "p_excitation = 1.5"))
    assert cfg.p_excitation == 1.5


def test_probability_above_one_rejected():
    bad = MINIMAL.replace("retrieval_eff = 0.32", "retrieval_eff = 1.3")
    with pytest.raises(ConfigDomainError, match="retrieval_eff.*\\[0, 1\\]"):
        parse_config(bad)


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ConfigSyntaxError, match="line 8.*unknown key 'bogus'"):
        parse_config(MINIMAL + "bogus = 1\n")


def test_syntax_error_reports_position():
    with pytest.raises(ConfigSyntaxError, match="line 3"):
        parse_config("source_model = quantum_tms\np_excitation = 0.1\nnot a kv line\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigSyntaxError, match="duplicate key"):
        parse_config(MINIMAL + "transmission = 0.4\n")


def test_missing_required_keys_reported():
    with pytest.raises(ConfigError, match="missing required keys.*detector_eff"):
        parse_config("source_model = quantum_tms\np_excitation = 0.1\n")


def test_bad_number_names_key():
    with pytest.raises(ConfigError, match="p_excitation must be a number"):
        parse_config(MINIMAL.replace("p_excitation = 0.1", "p_excitation = abc"))


def test_bad_enum_lists_choices():
    with pytest.raises(ConfigError, match="classical_correlated"):
        parse_config(MINIMAL.replace("quantum_tms", "thermal"))


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# header\n\n" + MINIMAL + "dark_mean = 0.5  # inline\n")
    assert cfg.dark_mean == 0.5


def test_preset_self_validates(preset):
    assert validate(preset) == []


def test_preset_reference_values(preset):
    assert preset.p_excitation == 0.14
    assert preset.retrieval_eff == 0.32
    assert preset.transmission == 0.50
    assert preset.detector_eff == 0.64
    assert preset.delay_dt == 2e-6
    assert preset.gate_width == 1e-6
    assert preset.cycle_period == 2e-4
    assert preset.baseline_peaks == 7


def test_gate_must_fit_inside_cycle(preset):
    bad = dataclasses.replace(preset, gate_width=preset.cycle_period)
    assert any("gate must fit inside cycle" in v for v in validate(bad))


def test_gate_longer_than_half_a_cycle_is_invalid(preset):
    bad = dataclasses.replace(preset, gate_width=1.2e-4, delay_dt=0.0, dark_mean=1.0)
    assert any("gate must fit inside cycle" in v for v in validate(bad))
    assert validate(dataclasses.replace(bad, gate_width=preset.cycle_period / 2)) == []


def test_read_gate_must_fit_inside_cycle(preset):
    bad = dataclasses.replace(preset, delay_dt=preset.cycle_period - 1e-7)
    assert any("read gate" in v for v in validate(bad))


def test_hist_span_too_small(preset):
    bad = dataclasses.replace(preset, hist_span=3 * preset.cycle_period)
    assert any("hist_span too small" in v for v in validate(bad))


def test_hist_span_must_be_a_whole_number_of_bins(preset):
    bad = dataclasses.replace(preset, hist_bin=7e-9)
    assert [v for v in validate(bad) if "hist_span" in v] == [
        "hist_span must be a whole number of hist_bin: span 0.0018 must be a "
        "positive integer multiple of bin_width 7e-09"]
    assert validate(dataclasses.replace(preset, hist_bin=3e-9)) == []
    # A bin of zero is its own violation, not a failed division.
    assert validate(dataclasses.replace(preset, hist_bin=0.0)) == [
        "hist_bin must be > 0, got 0.0"]


def test_validate_returns_complete_violation_list(preset):
    bad = dataclasses.replace(preset, retrieval_eff=-0.1, dark_mean=-1.0,
                              n_trials=0)
    violations = validate(bad)
    assert len(violations) == 3


@pytest.mark.parametrize("field,value,ok", [
    ("p_excitation", 0.0, True),
    ("p_excitation", -1e-9, False),
    ("retrieval_eff", 0.0, True),
    ("retrieval_eff", 1.0, True),
    ("retrieval_eff", -0.01, False),
    ("transmission", 1.0 + 1e-12, False),
    ("detector_eff", 1.0, True),
    ("delay_dt", 0.0, True),
    ("dark_mean", 0.0, True),
    ("dark_mean", -1e-12, False),
    ("memory_lifetime", 0.0, False),
    ("hist_bin", 0.0, False),
    ("n_trials", 1, True),
    ("n_trials", 0, False),
    ("baseline_peaks", 1, True),
    ("baseline_peaks", 0, False),
    ("rng_seed", 0, True),
    ("rng_seed", 2 ** 64 - 1, True),
    ("rng_seed", 2 ** 64, False),
    ("rng_seed", -1, False),
])
def test_bounds_accepted_at_bound_rejected_outside(preset, field, value, ok):
    cfg = dataclasses.replace(preset, **{field: value})
    violations = [v for v in validate(cfg) if field in v]
    assert (violations == []) is ok


def test_round_trip_preset(preset):
    assert parse_config(render_config(preset)) == preset


def test_round_trip_custom():
    cfg = ensure_valid(ExperimentConfig(
        source_model=SourceModel.CLASSICAL_CORRELATED, p_excitation=0.3333333333,
        delay_dt=1.7e-6, retrieval_eff=0.25, transmission=0.9, detector_eff=1.0,
        memory_lifetime=3.3e-6, memory_diffusion_in=0.125, dark_mean=1e-4,
        bg_stokes_mean=0.01, bg_antistokes_mean=0.02, gate_width=5e-7,
        cycle_period=1e-4, n_trials=42, rng_seed=2 ** 63 + 17, hist_bin=1e-8,
        hist_span=9e-4, baseline_peaks=3))
    assert parse_config(render_config(cfg)) == cfg


@settings(max_examples=50, deadline=None)
@given(
    p=st.floats(0.0, 3.0, allow_nan=False),
    delay=st.floats(0.0, 5e-6, allow_nan=False),
    eta=st.floats(0.0, 1.0, allow_nan=False),
    t=st.floats(0.0, 1.0, allow_nan=False),
    d=st.floats(0.0, 1.0, allow_nan=False),
    lifetime=st.floats(1e-9, 1e-3, allow_nan=False),
    trials=st.integers(1, 10 ** 9),
    seed=st.integers(0, 2 ** 64 - 1),
    model=st.sampled_from(list(SourceModel)),
)
def test_round_trip_property(p, delay, eta, t, d, lifetime, trials, seed, model):
    cfg = ExperimentConfig(
        source_model=model, p_excitation=p, delay_dt=delay, retrieval_eff=eta,
        transmission=t, detector_eff=d, memory_lifetime=lifetime,
        n_trials=trials, rng_seed=seed)
    if validate(cfg):
        return
    assert parse_config(render_config(cfg)) == cfg
