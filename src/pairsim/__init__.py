"""Monte Carlo simulator and analysis pipeline for time-delayed photon pairs.

Simulates write/read photon-pair generation from an atomic-ensemble memory
(DLCZ-type building block): correlated Stokes/anti-Stokes click streams,
time-interval-analyzer coincidence histograms, normalized correlation
functions and the Cauchy-Schwarz classicality test, with an independent
analytic oracle for validation.  The names imported here are the public
API.  The stage functions in ``optics`` and ``source`` are internals of the
sampler in ``engine``, and their signatures follow it.
"""

from ._version import __version__
from .analysis import (UndefinedCorrelationError, cauchy_schwarz, g_ratio,
                       render_report, singles_rates)
from .config import (ConfigDomainError, ConfigError, ConfigSyntaxError,
                     ExperimentConfig, parse_config, reference_preset,
                     render_config)
from .engine import export_run, render_run_report, simulate_run, sweep
from .oracle import compare, oracle_report
from .source import SourceModel
from .tia import (CoincidenceHistogram, StreamOrderError, TimestampStream,
                  export_histogram, histogram)
