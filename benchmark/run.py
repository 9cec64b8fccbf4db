"""pairsim benchmark: closed-loop workloads driven through the public API.

    python3 benchmark/run.py --workload preset_run --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from a checkout: the package is imported from ``src/`` next to this
directory, never from an installed copy.  Each workload runs in its own
process (``--workload all`` starts one child per workload), so peak RSS
never carries over.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations, reports per-layer medians over the traced
ones plus ``trace.overhead_s`` (traced minus untraced median operation
time), and writes every span to ``.bench_out/trace-<workload>-seed<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("preset_run", "saturated_run", "delay_sweep")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {"trials_per_s": "1/s", "op_s_p50": "s", "peak_rss_mib": "MiB",
                    "setup_s": "s", "success_rate": "ratio"}

# Per-layer time metric -> span names summed per operation.
LAYER_SPANS = {
    "source.sample_write_s": ("source.sample_write",),
    "source.decohere_memory_s": ("source.decohere_memory",),
    "source.retrieve_s": ("source.retrieve",),
    "optics.thin_s": ("optics.thin",),
    "optics.add_background_s": ("optics.add_background",),
    "optics.split_s": ("optics.split",),
    "optics.detect_batch_s": ("optics.detect_batch",),
    "tia.histogram_s": ("tia.histogram",),
    "tia.export_histogram_s": ("tia.export_histogram",),
    "tia.peak_areas_s": ("tia.peak_areas",),
    "analysis_s": ("analysis.g_ratio", "analysis.cauchy_schwarz",
                   "analysis.singles_rates"),
    "engine.simulate_run_s": ("engine.simulate_run",),
    "engine.self_s": ("engine.self",),
    "oracle.report_s": ("oracle.report",),
    "oracle.compare_s": ("oracle.compare",),
}
LAYER_COUNTS = {"optics.clicks": "count", "tia.pairs": "count",
                "tia.bytes_written": "B_computed", "engine.blocks": "count_computed",
                "oracle.max_abs_z": "sigma"}
LAYER_UNITS = {**{name: "s" for name in LAYER_SPANS}, **LAYER_COUNTS,
               "optics.nonquiet_ratio": "ratio", "trace.overhead_s": "s"}


def load_pairsim() -> None:
    """Import pairsim from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    if not (src / "pairsim" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no pairsim sources under {src}")
    sys.path.insert(0, str(src))
    import pairsim
    if Path(pairsim.__file__).resolve().parent != (src / "pairsim").resolve():
        raise SystemExit(f"benchmark: imported pairsim from {pairsim.__file__}, "
                         f"not from {src}")


def probe_setup(name: str, seed: int) -> float:
    """Seconds for imports, config build, one warm-up block and the oracle."""
    started = time.perf_counter()
    load_pairsim()
    from workloads import CLASSES
    CLASSES[name](seed, OUT / "unused").setup()
    return time.perf_counter() - started


def measure_setup(name: str, seed: int) -> float:
    """Median set-up time over fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--probe-setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest waited-for child (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def layer_metrics(tracer, op_seconds: dict[bool, list[float]]) -> dict[str, float]:
    """Medians over traced operations of per-operation layer totals."""
    from spans import per_op_layer_times
    ops = sorted({span["op"] for span in tracer.spans})
    times = {op: per_op_layer_times(tracer.spans, op) for op in ops}
    metrics = {name: statistics.median(sum(times[op][s] for s in spans) for op in ops)
               for name, spans in LAYER_SPANS.items()}
    for name in LAYER_COUNTS:
        metrics[name] = statistics.median(tracer.counters[op][name] for op in ops)
    metrics["optics.nonquiet_ratio"] = statistics.median(
        tracer.counters[op]["optics.nonquiet"] / tracer.counters[op]["optics.trials"]
        for op in ops)
    metrics["trace.overhead_s"] = (statistics.median(op_seconds[True])
                                   - statistics.median(op_seconds[False]))
    return metrics


def run_workload(args) -> dict:
    load_pairsim()
    from spans import Tracer
    from workloads import CLASSES, DelaySweep

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = CLASSES[args.workload](args.seed, scratch)
        workload.setup()
        import scipy.stats  # noqa: F401  # used by the checks; keep its import out of op 0
        attempted = failed = 0
        problems_seen: list[str] = []

        def tally(problems: list[str]) -> None:
            nonlocal attempted, failed
            attempted += 1
            if problems:
                failed += 1
                problems_seen.extend(problems)

        if isinstance(workload, DelaySweep):
            tally(workload.worker_count_check())

        tracer = Tracer(scratch) if args.trace else None
        op_seconds: dict[bool, list[float]] = {False: [], True: []}
        trials_done = 0
        min_ops = 2 if tracer else 1
        index = 0
        started = time.perf_counter()
        while index < min_ops or time.perf_counter() - started < args.seconds:
            traced = tracer is not None and index % 2 == 1
            workload.before_operation()
            op_start = time.perf_counter()
            try:
                if traced:
                    tracer.op = index
                    with tracer.installed(), tracer.span("op"):
                        trials, problems, max_abs_z = workload.operation(index, tracer)
                else:
                    trials, problems, max_abs_z = workload.operation(index)
            except Exception as exc:  # an operation that raises counts as failed
                trials, problems, max_abs_z = 0, [f"raised {exc!r}"], 0.0
            op_seconds[traced].append(time.perf_counter() - op_start)
            if traced:
                tracer.collect_workers()
                tracer.count("oracle.max_abs_z", max_abs_z)
            elif not problems:
                trials_done += trials
            tally([f"op {index}: {p}" for p in problems])
            index += 1
        rss = peak_rss_mib()

        for problem in problems_seen[:20]:
            print(f"FAILED {problem}", file=sys.stderr)
        untraced = op_seconds[False]
        if tracer is None:
            metrics = {
                "trials_per_s": trials_done / sum(untraced),
                "op_s_p50": statistics.median(untraced),
                "peak_rss_mib": rss,
                "setup_s": measure_setup(args.workload, args.seed),
                "success_rate": 1.0 - failed / attempted,
            }
            units = END_TO_END_UNITS
        else:
            metrics = layer_metrics(tracer, op_seconds)
            units = LAYER_UNITS
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path)
            print(f"# spans written to {trace_path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"# {args.workload}: {len(untraced)} untraced and {len(op_seconds[True])} "
          f"traced operations, error_rate {failed / attempted:.6g} "
          f"({failed} of {attempted} failed)")
    for traced, seconds in op_seconds.items():
        if seconds:
            print(f"# {'traced' if traced else 'untraced'} op seconds: "
                  + " ".join(f"{s:.3f}" for s in seconds))
    for name, value in metrics.items():
        print(f"{args.workload:<14} {name:<26} {value:>16.6g} {units[name]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def run_all(args) -> dict:
    """Every workload in its own child process; metrics keyed workload.metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.probe_setup and args.workload == "all":
        parser.error("--probe-setup needs one workload")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        print(repr(probe_setup(args.workload, args.seed)))
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
