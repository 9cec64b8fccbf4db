"""Monte Carlo simulator and analysis pipeline for time-delayed photon pairs.

Simulates write/read photon-pair generation from an atomic-ensemble memory
(DLCZ-type building block): correlated Stokes/anti-Stokes click streams,
time-interval-analyzer coincidence histograms, normalized correlation
functions and the Cauchy-Schwarz classicality test, with an independent
analytic oracle for validation.  The names imported here are the public
API that the demos and tests use; the rest lives in the submodules.
"""

from ._version import __version__
from .analysis import (UndefinedCorrelationError, cauchy_schwarz, g_ratio,
                       ideal_violation, render_report, singles_rates)
from .config import (ConfigDomainError, ConfigError, ConfigSyntaxError,
                     ExperimentConfig, parse_config, reference_preset,
                     render_config)
from .engine import export_run, render_run_report, simulate_run, sweep
from .optics import add_background, detect_batch, split, thin
from .oracle import compare, oracle_report
from .source import SourceModel, decohere_memory, joint_pmf, retrieve, sample_write
from .tia import (CoincidenceHistogram, StreamOrderError, TimestampStream,
                  export_histogram, histogram)
