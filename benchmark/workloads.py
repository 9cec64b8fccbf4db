"""The three benchmark workloads and the checks applied to every operation.

Each workload is a closed loop: one client in one process starts its next
operation when the previous one has ended.  Operation ``i`` of a run with
workload seed ``s`` simulates with seed ``engine.derived_seed(s, i)``.

An operation fails when it raises, when a g value or sigma is not finite,
when the click-pattern counts do not sum to the trials, or when a quantity
disagrees with the analytic oracle beyond a Bonferroni-corrected threshold
(family-wise false-failure rate ``FAMILY_ALPHA`` per simulated run).

The g values are tested on the peak areas they come from, not on the
z-score that ``oracle.compare`` forms with the sample's own sigma: with few
same-trial coincidences that z is far from normal (N = 6 where 21 are
expected gives z = -6.8, but an exact p of 1.4e-4).
"""

from __future__ import annotations

import dataclasses
import math
import shutil
from contextlib import contextmanager, nullcontext
from pathlib import Path

from pairsim import engine, oracle_report, reference_preset
from pairsim.oracle import compare

FAMILY_ALPHA = 1e-6
"""Chance that a correct sampler fails one run's oracle check.  Several
thousand checked runs per benchmark campaign keep the expected number of
false failures near 0.01."""

EXACT_BELOW = 25.0
"""Pattern cells with fewer expected counts use the exact binomial test."""

PRESET_TRIALS = 4_000_000
SATURATED_TRIALS = 500_000
SATURATED_DARK_MEAN = 5.0
SWEEP_TRIALS = 1_000_000
SWEEP_WORKERS = 2
SWEEP_LIFETIME = 3e-6
SWEEP_DELAYS = tuple(d * 1e-6 for d in (0, 1, 2, 3, 4, 6, 8, 12))
SWEEP_CHECK_TRIALS = 4 * engine.BLOCK_TRIALS
"""Several blocks, so the workers=2 side of the check really uses the pool."""


def _two_sided_normal_p(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


def _equivalent_z(p: float) -> float:
    """|z| of a two-sided normal test with p-value ``p``."""
    from scipy.stats import norm
    return float(norm.isf(p / 2.0))


def _pattern_p(count: int, prob: float, trials: int, z: float) -> float:
    if prob <= 0.0:
        return 1.0 if count == 0 else 0.0
    if prob * trials < EXACT_BELOW:
        from scipy.stats import binomtest
        return binomtest(count, trials, prob).pvalue
    return _two_sided_normal_p(z)


def _g_p(areas, g_oracle: float, baseline_peaks: int) -> float:
    """Exact p-value of peak areas against the oracle g.

    The same-trial area N and the summed baseline S = k * M are independent
    Poisson counts with means g * mu and k * mu, so given N + S, N is
    binomial with success probability g / (g + k) whatever mu is.
    """
    from scipy.stats import binomtest
    n = int(round(areas.n_same_trial))
    s = int(round(areas.m_baseline * baseline_peaks))
    if n + s == 0:
        return 1.0
    return binomtest(n, n + s, g_oracle / (g_oracle + baseline_peaks)).pvalue


def _finite_g(g: dict) -> list[str]:
    return [f"{name} not finite: {pair}" for name, pair in g.items()
            if not all(math.isfinite(x) for x in pair)]


def check_run(result, prediction, tracer=None) -> tuple[list[str], float]:
    """Problems of one RunResult against the oracle, and its largest |z|.

    Each quantity's |z| is that of a normal test with the same p-value.
    """
    problems = _finite_g(result.g)
    counts = result.pattern_counts
    if int(counts.sum()) != result.trials:
        problems.append(f"pattern counts sum to {int(counts.sum())}, "
                        f"not {result.trials} trials")
    mc_g = {"g11": result.g["11"], "g22": result.g["22"], "g12": result.g["12"]}
    with _span(tracer, "oracle.compare"):
        rows = compare(counts, mc_g, prediction, result.trials)
    cutoff = FAMILY_ALPHA / len(rows)
    max_abs_z = 0.0
    for mask, row in enumerate(rows):
        if mask < 16:
            prob = float(prediction.pattern.probs[mask])
            p = _pattern_p(int(counts[mask]), prob, result.trials, row.z)
        else:
            p = _g_p(result.peaks[row.quantity[1:]], row.oracle_value,
                     result.config.baseline_peaks)
        if p > 0.0:
            max_abs_z = max(max_abs_z, _equivalent_z(p))
        if not p >= cutoff:
            problems.append(f"{row.quantity}: z={row.z:.2f}, p={p:.2e} < {cutoff:.2e}")
    return problems, max_abs_z


@dataclasses.dataclass(frozen=True)
class CheckedRun:
    """The parts of a RunResult that ``check_run`` reads."""

    config: object
    trials: int
    pattern_counts: object
    g: dict
    peaks: dict


@contextmanager
def recording_runs(runs: list[CheckedRun]):
    """Append a CheckedRun for every ``simulate_run`` that ``engine.sweep`` makes.

    Sweep rows carry g and sigma only, not the pattern counts and peak areas
    the oracle check needs.  Only those small parts are kept, so the click
    streams and histograms are freed as they would be without the check.
    """
    inner = engine.simulate_run

    def recorded(*args, **kwargs):
        result = inner(*args, **kwargs)
        runs.append(CheckedRun(result.config, result.trials, result.pattern_counts,
                               result.g, result.peaks))
        return result

    engine.simulate_run = recorded
    try:
        yield
    finally:
        engine.simulate_run = inner


def check_sweep(rows, runs: list[CheckedRun], configs,
                tracer=None) -> tuple[list[str], float]:
    """Each sweep value's run against the oracle, and its row against its run."""
    values = [row["value"] for row in rows]
    if values != list(SWEEP_DELAYS) or len(runs) != len(rows):
        return [f"sweep returned values {values} from {len(runs)} runs"], 0.0
    problems = []
    max_abs_z = 0.0
    for row, run, config in zip(rows, runs, configs):
        label = f"delay {row['value']}"
        if run.config != config:
            problems.append(f"{label}: run used another config")
            continue
        if row["verdict"] == "undefined":
            problems.append(f"{label}: correlation undefined")
            continue
        mismatched = [name for name in ("11", "22", "12")
                      if (row[f"g{name}"], row[f"g{name}_sigma"]) != run.g[name]]
        if mismatched:
            problems.append(f"{label}: row differs from its run in g{', g'.join(mismatched)}")
        with _span(tracer, "oracle.report"):
            prediction = oracle_report(config)
        run_problems, run_z = check_run(run, prediction, tracer)
        problems += [f"{label}: {p}" for p in run_problems]
        max_abs_z = max(max_abs_z, run_z)
    return problems, max_abs_z


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


class Workload:
    """Config, set-up and one operation of a workload."""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        """Config build, one warm-up block and the oracle."""
        self.config = self.make_config()
        engine.simulate_run(self.config, trials=engine.BLOCK_TRIALS,
                            seed=engine.derived_seed(self.seed, 2 ** 32))
        oracle_report(self.config)

    def before_operation(self) -> None:
        """Untimed preparation of the next operation."""

    def operation(self, index: int, tracer=None) -> tuple[int, list[str], float]:
        """Run operation ``index``; return (trials, problems, max |z|)."""
        raise NotImplementedError


class SingleRun(Workload):
    """One simulate_run and its oracle check, then ``after_run``."""

    trials: int

    def operation(self, index, tracer=None):
        result = engine.simulate_run(self.config, trials=self.trials,
                                     seed=engine.derived_seed(self.seed, index))
        with _span(tracer, "oracle.report"):
            prediction = oracle_report(self.config)
        problems, max_abs_z = check_run(result, prediction, tracer)
        problems += self.after_run(result, tracer)
        return result.trials, problems, max_abs_z

    def after_run(self, result, tracer) -> list[str]:
        return []


class PresetRun(SingleRun):
    """What ``pairsim run --out`` does on the reference preset."""

    name = "preset_run"
    trials = PRESET_TRIALS

    def make_config(self):
        return reference_preset()

    @property
    def out_dir(self) -> Path:
        return self.scratch / "export"

    def before_operation(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def after_run(self, result, tracer) -> list[str]:
        problems = []
        if result.report is None or not result.report.violated:
            problems.append("reference preset did not violate Cauchy-Schwarz")
        with _span(tracer, "engine.export_run"):
            manifest = engine.export_run(result, self.out_dir)
        written = [self.out_dir / name for name in manifest.outputs + ["manifest.json"]]
        missing = [p.name for p in written if not p.is_file() or p.stat().st_size == 0]
        if missing:
            problems.append(f"export missing or empty: {missing}")
        elif tracer is not None:
            tracer.count("tia.bytes_written",
                         sum(p.stat().st_size for p in written
                             if p.name in engine.HISTOGRAM_FILES.values()))
        return problems


class SaturatedRun(SingleRun):
    name = "saturated_run"
    trials = SATURATED_TRIALS

    def make_config(self):
        return dataclasses.replace(reference_preset(), dark_mean=SATURATED_DARK_MEAN)


class DelaySweep(Workload):
    name = "delay_sweep"

    def make_config(self):
        return dataclasses.replace(reference_preset(), memory_lifetime=SWEEP_LIFETIME)

    def setup(self) -> None:
        super().setup()
        self.variants = [dataclasses.replace(self.config, delay_dt=d)
                         for d in SWEEP_DELAYS]

    def worker_count_check(self) -> list[str]:
        """Rows must not depend on the worker count (untimed)."""
        seed = engine.derived_seed(self.seed, 2 ** 32 + 1)
        rows = {w: engine.sweep(self.config, "delay_dt", SWEEP_DELAYS,
                                trials=SWEEP_CHECK_TRIALS, seed=seed, workers=w)
                for w in (1, SWEEP_WORKERS)}
        if repr(rows[1]) != repr(rows[SWEEP_WORKERS]):
            return [f"sweep rows differ between workers=1 and workers={SWEEP_WORKERS}"]
        return []

    def operation(self, index, tracer=None):
        runs: list[CheckedRun] = []
        with recording_runs(runs), _span(tracer, "engine.sweep"):
            rows = engine.sweep(self.config, "delay_dt", SWEEP_DELAYS,
                                trials=SWEEP_TRIALS,
                                seed=engine.derived_seed(self.seed, index),
                                workers=SWEEP_WORKERS)
        problems, max_abs_z = check_sweep(rows, runs, self.variants, tracer)
        return SWEEP_TRIALS * len(SWEEP_DELAYS), problems, max_abs_z


CLASSES = {cls.name: cls for cls in (PresetRun, SaturatedRun, DelaySweep)}
