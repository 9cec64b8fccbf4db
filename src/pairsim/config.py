"""Experiment configuration: schema, validation, text format, reference preset.

A configuration is a flat ``key = value`` text document, one key per line,
with ``#`` comments.  Unknown keys are rejected.  All keys, their units and
their defaults are listed below and in the README.

Required keys (no defaults):

======================  =====================================================
source_model            ``quantum_tms`` or ``classical_correlated``
p_excitation            mean excitation number per write pulse (dimensionless)
delay_dt                write-to-read delay, seconds
retrieval_eff           excitation-to-photon conversion probability at read
transmission            cell-to-detector optical transmission per channel
detector_eff            per-detector quantum efficiency
======================  =====================================================

Optional keys and defaults:

======================  ==========  =========================================
memory_lifetime         NO_DECAY    1/e survival time of a stored excitation, s
memory_diffusion_in     0.0         mean uncorrelated excitations entering the
                                    read mode per trial (dimensionless)
dark_mean               0.0         mean dark counts per detector per gate
bg_stokes_mean          0.0         mean uncorrelated background photons per
                                    gate in the Stokes channel (at the splitter)
bg_antistokes_mean      0.0         same for the anti-Stokes channel
gate_width              1e-6        width of both detection gates, s;
                                    at most cycle_period / 2
cycle_period            2e-4        duty-cycle period, s
n_trials                1000000     duty cycles per run
rng_seed                12345       base seed, integer in [0, 2**64)
hist_bin                1e-8        coincidence histogram bin width, s
hist_span               1.8e-3      coincidence histogram span, s; a whole
                                    number of hist_bin
baseline_peaks          7           cross-trial peaks averaged for the baseline
======================  ==========  =========================================
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import MISSING, dataclass, fields

from .source import SourceModel
from .tia import _bin_count

NO_DECAY: float = sys.float_info.max
"""Memory lifetime standing in for "no decay": exp(-dt/NO_DECAY) == 1.0 exactly."""


class ConfigError(ValueError):
    """Base class for configuration errors."""


class ConfigSyntaxError(ConfigError):
    """Malformed config text; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConfigDomainError(ConfigError):
    """One or more values outside their documented bounds."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class ExperimentConfig:
    """Every physical and acquisition parameter of one simulated run.

    Valid by construction: making one, directly or by ``dataclasses.replace``,
    raises ConfigDomainError listing every bound it breaks.  Immutable, so
    safe to share read-only across workers.
    """

    source_model: SourceModel
    p_excitation: float
    delay_dt: float
    retrieval_eff: float
    transmission: float
    detector_eff: float
    memory_lifetime: float = NO_DECAY
    memory_diffusion_in: float = 0.0
    dark_mean: float = 0.0
    bg_stokes_mean: float = 0.0
    bg_antistokes_mean: float = 0.0
    gate_width: float = 1e-6
    cycle_period: float = 2e-4
    n_trials: int = 1_000_000
    rng_seed: int = 12345
    hist_bin: float = 1e-8
    hist_span: float = 1.8e-3
    baseline_peaks: int = 7

    def __post_init__(self):
        if violations := _violations(self):
            raise ConfigDomainError(violations)
        for name in _INT_FIELDS:  # numpy integers are held as Python ints
            object.__setattr__(self, name, operator.index(getattr(self, name)))


_INT_FIELDS = ("n_trials", "rng_seed", "baseline_peaks")

# Per-field bounds, all closed: value accepted at the bound itself.
_PROBABILITY_FIELDS = {"retrieval_eff", "transmission", "detector_eff"}
_NONNEGATIVE_FIELDS = {
    "p_excitation", "delay_dt", "memory_diffusion_in", "dark_mean",
    "bg_stokes_mean", "bg_antistokes_mean",
}
_POSITIVE_FIELDS = {"memory_lifetime", "gate_width", "cycle_period",
                    "hist_bin", "hist_span"}

_FIELD_NAMES = tuple(f.name for f in fields(ExperimentConfig))
_REQUIRED = tuple(f.name for f in fields(ExperimentConfig) if f.default is MISSING)


def as_integer(value, name: str) -> int:
    """``value`` through ``operator.index``: 1.9 and True are refused, not truncated."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def _violations(config: ExperimentConfig) -> list[str]:
    """Every invariant ``config`` breaks, as messages; empty if it is valid."""
    v: list[str] = []
    if not isinstance(config.source_model, SourceModel):
        v.append(f"source_model must be a SourceModel, got {config.source_model!r}")
    for name in _PROBABILITY_FIELDS:
        x = getattr(config, name)
        if not 0.0 <= x <= 1.0:
            v.append(f"{name} must be in [0, 1], got {x}")
    for name in _NONNEGATIVE_FIELDS:
        x = getattr(config, name)
        if not 0 <= x < math.inf:
            v.append(f"{name} must be finite and >= 0, got {x}")
    for name in _POSITIVE_FIELDS:
        x = getattr(config, name)
        if not x > 0:
            v.append(f"{name} must be > 0, got {x}")
    integral = True
    for name in _INT_FIELDS:
        try:
            as_integer(getattr(config, name), name)
        except ValueError as err:
            v.append(str(err))
            integral = False
    if integral:  # the bounds below compare the integer fields
        if config.n_trials < 1:
            v.append(f"n_trials must be >= 1, got {config.n_trials}")
        if config.baseline_peaks < 1:
            v.append(f"baseline_peaks must be >= 1, got {config.baseline_peaks}")
        if not 0 <= config.rng_seed < 2 ** 64:
            v.append(f"rng_seed must be a 64-bit unsigned integer, got {config.rng_seed}")
        span_min = (config.baseline_peaks + 1) * config.cycle_period
        if config.hist_span < span_min:
            v.append("hist_span too small for baseline extraction: "
                     f"need >= (baseline_peaks + 1) * cycle_period = {span_min}, "
                     f"got {config.hist_span}")
    if config.gate_width > config.cycle_period / 2:
        # A longer gate lets the histogram window of peak j also collect
        # pairs at trial lag j + 1, which the peak areas leave out.
        v.append("gate must fit inside cycle: gate_width "
                 f"{config.gate_width} > cycle_period / 2 = {config.cycle_period / 2}")
    if config.delay_dt + config.gate_width > config.cycle_period:
        v.append("read gate must fit inside cycle: "
                 f"delay_dt + gate_width exceeds cycle_period {config.cycle_period}")
    if config.hist_bin > 0 and config.hist_span > 0:
        try:
            _bin_count(config.hist_span, config.hist_bin)
        except ValueError as err:
            v.append(f"hist_span must be a whole number of hist_bin: {err}")
    return v


def parse_value(key: str, text: str):
    """Parse the text of one config value into the type of its field.

    Shared by the config file parser, CLI ``--set`` overrides and sweep
    values, so all three accept exactly the same literals.
    """
    if key not in _FIELD_NAMES:
        raise ConfigError(f"unknown key {key!r}")
    if key == "source_model":
        try:
            return SourceModel(text)
        except ValueError:
            names = ", ".join(m.value for m in SourceModel)
            raise ConfigError(
                f"source_model must be one of {{{names}}}, got {text!r}") from None
    if key in _INT_FIELDS:
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {text!r}") from None
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {text!r}") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse a key = value config document into a validated ExperimentConfig.

    Blank lines and ``#`` comments are ignored; a trailing inline comment is
    allowed after the value.  Unknown keys, repeated keys, missing required
    keys, bad literals and out-of-bound values are all rejected with the
    offending line or key named.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigSyntaxError(f"expected 'key = value', got {stripped!r}", lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_NAMES:
            raise ConfigSyntaxError(f"unknown key {key!r}", lineno)
        if key in raw:
            raise ConfigSyntaxError(f"duplicate key {key!r}", lineno)
        if not value:
            raise ConfigSyntaxError(f"missing value for key {key!r}", lineno)
        raw[key] = value

    kwargs = {key: parse_value(key, value) for key, value in raw.items()}
    missing = [name for name in _REQUIRED if name not in kwargs]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))
    return ExperimentConfig(**kwargs)


def render_value(value) -> str:
    """Render a config or sweep value: enum literal, float repr, else str."""
    if isinstance(value, SourceModel):
        return value.value
    return repr(float(value)) if isinstance(value, float) else str(value)


def render_config(config: ExperimentConfig) -> str:
    """Render a config as parseable text; parse(render(c)) == c exactly."""
    lines = ["# pairsim experiment configuration"]
    for f in fields(ExperimentConfig):
        lines.append(f"{f.name} = {render_value(getattr(config, f.name))}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Reference preset
#
# Operating point of the room-temperature vapor-cell experiment this
# simulator models: mean write excitation 0.14, retrieval efficiency 0.32
# (including polarization loss), 50% transmission, 64% detector efficiency,
# 2 us write-read delay, 1 us gates, 5 kHz trial rate, and Stokes /
# anti-Stokes singles rates of 220 / 70 counts per second.
#
# The experiment reports those singles rates but not the underlying noise
# budget, so the noise constants below are *solved*, not measured: the
# analytic click-pattern oracle is inverted so that the preset reproduces
# 220 s^-1 and 70 s^-1 exactly, with a Stokes/anti-Stokes cross-correlation
# of 2.4 at the 2 us delay.  Uncorrelated anti-Stokes light is apportioned
# 75% to memory diffusion and 25% to filter leakage, and the dark-count
# mean is fixed at 5e-5 per gate (a 50 s^-1 module gated at 1 us, 5 kHz).
# The derivation is committed as demos/00_preset_calibration.py, which
# re-solves the constants and asserts they match the values here.
# --------------------------------------------------------------------------

PRESET_DARK_MEAN = 5e-5
PRESET_BG_STOKES_MEAN = 0.00013376345683181179
PRESET_BG_ANTISTOKES_MEAN = 0.004476348562213513
PRESET_MEMORY_LIFETIME_S = 1.1428845875898358e-06
PRESET_MEMORY_DIFFUSION_IN = 0.1015851251971547


def reference_preset() -> ExperimentConfig:
    """The documented reference configuration (see module comment above)."""
    return ExperimentConfig(
        source_model=SourceModel.QUANTUM_TMS,
        p_excitation=0.14,
        delay_dt=2e-6,
        retrieval_eff=0.32,
        transmission=0.50,
        detector_eff=0.64,
        memory_lifetime=PRESET_MEMORY_LIFETIME_S,
        memory_diffusion_in=PRESET_MEMORY_DIFFUSION_IN,
        dark_mean=PRESET_DARK_MEAN,
        bg_stokes_mean=PRESET_BG_STOKES_MEAN,
        bg_antistokes_mean=PRESET_BG_ANTISTOKES_MEAN,
        gate_width=1e-6,
        cycle_period=2e-4,
        n_trials=1_000_000,
        rng_seed=12345,
        hist_bin=1e-8,
        hist_span=1.8e-3,
        baseline_peaks=7,
    )
