"""Configuration schema, parsing, validation and the reference preset."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsim import (ConfigDomainError, ConfigError, ConfigSyntaxError,
                     ExperimentConfig, SourceModel, parse_config, render_config)
from pairsim.config import NO_DECAY, as_integer, render_value

MINIMAL = """
source_model = quantum_tms
p_excitation = 0.1
delay_dt = 2e-6
retrieval_eff = 0.32
transmission = 0.5
detector_eff = 0.64
"""


def violations(config, **changes):
    """The messages ConfigDomainError gives for ``config`` with ``changes``."""
    try:
        dataclasses.replace(config, **changes)
    except ConfigDomainError as err:
        return err.violations
    return []


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


@pytest.mark.parametrize("text, message", [
    ("source_model = quantum_tms\np_excitation = 0.1\nnot a kv line\n",
     "line 3: expected 'key = value'"),
    (MINIMAL + "dark_mean =\n", "line 8: missing value for key 'dark_mean'"),
], ids=["no-equals-sign", "missing-value"])
def test_syntax_errors_name_their_line(text, message):
    with pytest.raises(ConfigSyntaxError, match=re.escape(message)):
        parse_config(text)


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
    assert violations(preset) == []


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
    assert any("gate must fit inside cycle" in v
               for v in violations(preset, gate_width=preset.cycle_period))


def test_gate_longer_than_half_a_cycle_is_invalid(preset):
    bad = dict(delay_dt=0.0, dark_mean=1.0)
    assert any("gate must fit inside cycle" in v
               for v in violations(preset, gate_width=1.2e-4, **bad))
    assert violations(preset, gate_width=preset.cycle_period / 2, **bad) == []


def test_read_gate_must_fit_inside_cycle(preset):
    assert any("read gate" in v
               for v in violations(preset, delay_dt=preset.cycle_period - 1e-7))


def test_hist_span_too_small(preset):
    assert any("hist_span too small" in v
               for v in violations(preset, hist_span=3 * preset.cycle_period))


def test_hist_span_must_be_a_whole_number_of_bins(preset):
    assert [v for v in violations(preset, hist_bin=7e-9) if "hist_span" in v] == [
        "hist_span must be a whole number of hist_bin: span 0.0018 must be a "
        "positive integer multiple of bin_width 7e-09"]
    assert violations(preset, hist_bin=3e-9) == []
    # A bin of zero is its own violation, not a failed division.
    assert violations(preset, hist_bin=0.0) == [
        "hist_bin must be > 0, got 0.0"]


BAD_FIELDS = {"retrieval_eff": -0.1, "dark_mean": -1.0, "n_trials": 0}
BAD_MESSAGES = ["retrieval_eff must be in [0, 1], got -0.1",
                "dark_mean must be finite and >= 0, got -1.0",
                "n_trials must be >= 1, got 0"]


def test_validate_returns_complete_violation_list(preset):
    assert sorted(violations(preset, **BAD_FIELDS)) == sorted(BAD_MESSAGES)


def test_constructor_lists_every_violation(preset):
    fields = {**dataclasses.asdict(preset), **BAD_FIELDS}
    with pytest.raises(ConfigDomainError) as exc:
        ExperimentConfig(**fields)
    assert sorted(exc.value.violations) == sorted(BAD_MESSAGES)


def test_parse_config_lists_every_violation():
    text = MINIMAL.replace("retrieval_eff = 0.32", "retrieval_eff = -0.1")
    with pytest.raises(ConfigDomainError) as exc:
        parse_config(text + "dark_mean = -1.0\nn_trials = 0\n")
    assert sorted(exc.value.violations) == sorted(BAD_MESSAGES)


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
    assert ([v for v in violations(preset, **{field: value}) if field in v] == []) is ok


@pytest.mark.parametrize("field", ["p_excitation", "delay_dt", "memory_diffusion_in",
                                   "dark_mean", "bg_stokes_mean", "bg_antistokes_mean"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_negative_fields_must_be_finite(preset, field, value):
    assert (f"{field} must be finite and >= 0, got {value}"
            in violations(preset, **{field: value}))


@pytest.mark.parametrize("field, bound", [
    ("retrieval_eff", "in [0, 1]"), ("transmission", "in [0, 1]"),
    ("detector_eff", "in [0, 1]"), ("memory_lifetime", "> 0"), ("gate_width", "> 0")])
def test_bounded_fields_reject_nan(preset, field, bound):
    # The stage functions take these unchecked, so the config must refuse NaN.
    assert violations(preset, **{field: math.nan}) == [
        f"{field} must be {bound}, got nan"]


@pytest.mark.parametrize("field, value", [
    ("n_trials", 2.5),
    ("n_trials", True),
    ("n_trials", 1000.0),
    ("baseline_peaks", 7.0),
    ("baseline_peaks", np.float64(7.0)),
    ("rng_seed", 1.5),
    ("rng_seed", "12345"),
])
def test_integer_fields_must_be_integers(preset, field, value):
    assert violations(preset, **{field: value}) == [
        f"{field} must be an integer, got {value!r}"]


def test_numpy_integers_are_integers(preset):
    assert violations(preset, n_trials=np.int64(1000), rng_seed=np.uint64(3),
                      baseline_peaks=np.int8(5)) == []


def test_as_integer_refuses_bool_and_fractions():
    assert as_integer(np.uint64(2 ** 64 - 1), "seed") == 2 ** 64 - 1
    assert type(as_integer(np.int32(4), "trials")) is int
    for value in (True, np.True_, 1.9, 2.0, "3", None):
        with pytest.raises(ValueError, match="trials must be an integer"):
            as_integer(value, "trials")


def test_source_model_must_be_the_enum(preset):
    assert violations(preset, source_model="quantum_tms") == [
        "source_model must be a SourceModel, got 'quantum_tms'"]


def test_round_trip_numpy_floats(preset):
    cfg = dataclasses.replace(preset, delay_dt=np.float64(2e-06),
                              p_excitation=np.float64(0.1))
    text = render_config(cfg)
    assert "delay_dt = 2e-06\n" in text and "np." not in text
    assert parse_config(text) == cfg
    assert render_value(np.float64(0.1)) == render_value(0.1) == "0.1"


def test_round_trip_preset(preset):
    assert parse_config(render_config(preset)) == preset


def test_round_trip_custom():
    cfg = ExperimentConfig(
        source_model=SourceModel.CLASSICAL_CORRELATED, p_excitation=0.3333333333,
        delay_dt=1.7e-6, retrieval_eff=0.25, transmission=0.9, detector_eff=1.0,
        memory_lifetime=3.3e-6, memory_diffusion_in=0.125, dark_mean=1e-4,
        bg_stokes_mean=0.01, bg_antistokes_mean=0.02, gate_width=5e-7,
        cycle_period=1e-4, n_trials=42, rng_seed=2 ** 63 + 17, hist_bin=1e-8,
        hist_span=9e-4, baseline_peaks=3)
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
    assert parse_config(render_config(cfg)) == cfg
