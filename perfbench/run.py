"""hetcache benchmark: one workload per process.

    python3 perfbench/run.py --workload figures|noisy|oracles --seed N \
        --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the workload's passes repeat until ``--seconds`` is
spent and the end-to-end metrics are reported.  With ``--trace 1`` one
traced pass (spans.py) runs between two untraced ones, and the per-layer
metrics of the traced pass are reported with the tracing overhead.  Every
output is checked; the last line of standard output is the JSON result.

Times are taken at the reference speed of speed.py: each call's wall time
is rescaled by the machine speed sampled while the call ran, so that a
shared host's changes of speed do not show as changes of the program.  The
raw wall times are in the report line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speed import SpeedMeter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5

# (name, unit) of the per-layer metrics, in report order
PER_LAYER = (
    ("specfun.kernel_z1.calls", "count"),
    ("specfun.kernel_z1.self_s", "s"),
    ("specfun.gauss_2f1.calls", "count"),
    ("quadrature.integrate_interval.calls", "count"),
    ("quadrature.integrate_interval.evals", "count"),
    ("quadrature.integrate_interval.self_s", "s"),
    ("quadrature.integrate_interval.errors", "count"),
    ("rates.rate_case1.calls", "count"),
    ("rates.rate_case1.self_s", "s"),
    ("rates.rate_case2.calls", "count"),
    ("rates.rate_case2.self_s", "s"),
    ("rates.rate_case3.calls", "count"),
    ("rates.rate_case3.self_s", "s"),
    ("rates.case_rate_table.calls", "count"),
    ("rates.case_rate_table.total_s", "s"),
    ("rates.interference_coefficients.calls", "count"),
    ("rates.absorbed_errors", "count"),
    ("outage.sinr_cdf.calls", "count"),
    ("outage.sinr_cdf.total_s", "s"),
    ("association.state_matrix.calls", "count"),
    ("association.state_matrix.total_s", "s"),
    ("association.active_d2d_density.calls", "count"),
    ("association.active_d2d_density.total_s", "s"),
    ("queueing.network_model.total_s", "s"),
    ("queueing.baseline_model.total_s", "s"),
    ("queueing.queue_metrics.total_s", "s"),
    ("queueing.throughput_gain.calls", "count"),
    ("queueing.ctmc_simulate.calls", "count"),
    ("queueing.ctmc_simulate.total_s", "s"),
    ("queueing.ctmc_simulate.events", "count"),
    ("montecarlo.run_monte_carlo.total_s", "s"),
    ("montecarlo.run_monte_carlo.self_s", "s"),
    ("montecarlo.sample_topology.calls", "count"),
    ("montecarlo.sample_topology.total_s", "s"),
    ("montecarlo.resamples", "count"),
    ("presets.run_preset.self_s", "s"),
    ("results.emit_results.calls", "count"),
    ("results.emit_results.total_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("figures", "noisy", "oracles"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def prepare_environment() -> dict:
    """Environment of this process and its probes, set before numpy loads:
    single-threaded BLAS/OpenMP (at most nproc), the package from src/, and
    no git repository lookup above the repository root."""
    env = os.environ
    for var in THREAD_ENV:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    sys.path.insert(0, str(SRC))
    return dict(env)


def provenance() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git": commit,
    }


def measure_setup(workload: str, workdir: Path, env: dict) -> tuple[float, float]:
    """Median over fresh processes of import plus one cold call per layer:
    (reference seconds, wall seconds)."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(workdir)],
                             capture_output=True, text=True, env=env, timeout=120, check=True)
        wall, ref = map(float, out.stdout.strip().splitlines()[-1].split())
        samples.append((ref, wall))
    return statistics.median(r for r, _ in samples), statistics.median(w for _, w in samples)


class Runner:
    """Times operations, checks their outputs and counts failures."""

    def __init__(self, workload, same, meter):
        self.workload = workload
        self.same = same
        self.meter = meter
        self.attempted = 0
        self.failed = 0
        self.first = {}

    def run_pass(self) -> list:
        wl = self.workload
        records = []
        for label in wl.labels:
            output, wall, ref = self.meter.measure(wl.run, label)
            failures = wl.check(label, output)
            values = wl.values(output)
            if label not in self.first:
                self.first[label] = values
            elif not self.same(values, self.first[label], 0.0, 0.0):
                failures.append(f"{label}: output differs from an earlier run at the same seed")
            self.attempted += 1
            if failures:
                self.failed += 1
                for msg in failures:
                    print(f"check failed: {msg}", file=sys.stderr)
            records.append((label, ref, wall, output))
        return records


def peak_rss() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pass_time(records) -> float:
    return sum(ref for _, ref, _, _ in records)


def op_medians(passes, column: int = 1) -> dict:
    """Median time of each operation over the passes, at the reference speed
    (column 1) or raw (column 2).  Their sum is the pass time reported: a
    slow spell of the machine then inflates one operation in one pass
    rather than the whole pass."""
    times = {}
    for records in passes:
        for record in records:
            times.setdefault(record[0], []).append(record[column])
    return {label: statistics.median(ts) for label, ts in times.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hetcache" / "__init__.py").is_file():
        print(f"hetcache sources not found under {SRC}", file=sys.stderr)
        return 2
    env = prepare_environment()
    import hetcache
    import workloads
    from spans import Tracer

    if Path(hetcache.__file__).resolve().parent != SRC / "hetcache":
        print(f"imported hetcache from {hetcache.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        workdir = Path(tmp)
        setup_s, raw_setup_s = (None, None) if args.trace else \
            measure_setup(args.workload, workdir, env)
        workloads.cold(args.workload, workdir)
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        meter = SpeedMeter()
        runner = Runner(wl, workloads.same, meter)

        passes = []
        start = time.perf_counter()
        with meter:
            if args.trace:
                # untraced passes before and after the traced one, so that a
                # drift of the machine's speed cancels in the overhead
                passes.append(runner.run_pass())
                tracer = Tracer()
                with tracer.installed():
                    traced = runner.run_pass()
                passes.append(runner.run_pass())
            else:
                while True:
                    passes.append(runner.run_pass())
                    if len(passes) == 1:
                        # the peak of one pass, which is what a user runs; the
                        # allocator may keep up to ~45 MiB more in some later
                        # passes of the same inputs, at random
                        peak_rss_mb = peak_rss()
                    spent = time.perf_counter() - start
                    if spent + sum(op_medians(passes, column=2).values()) > args.seconds:
                        break

    medians = op_medians(passes)
    wall_s = sum(medians.values())
    raw = {"raw_wall_s": (sum(op_medians(passes, column=2).values()), "s")}
    if args.trace:
        metrics = {name: (tracer.value(name), unit) for name, unit in PER_LAYER[:-2]}
        traced_time = pass_time(traced)
        metrics["trace.wall_s"] = (traced_time, "s")
        metrics["trace.overhead_s"] = (traced_time - statistics.fmean(map(pass_time, passes)), "s")
        shown = {"wall_s": (wall_s, "s"), **raw, **metrics}
    else:
        metrics = {"setup_s": (setup_s, "s"), "wall_s": (wall_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MiB")}
        raw["raw_setup_s"] = (raw_setup_s, "s")
        raw["run_peak_rss_mb"] = (peak_rss(), "MiB")
        shown = {**metrics, **raw, **wl.summary(medians, passes)}
    shown.update({"ops": (runner.attempted, "count"), "ops_failed": (runner.failed, "count")})

    # the full record: every metric of the workload, the time of each
    # operation in each untraced pass (at the reference speed and raw), the
    # machine speed sampled during the run, and provenance
    speeds = sorted(v for _, _, v in meter.samples)
    print("report " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "provenance": provenance(),
        "op_times": {label: [r[1] for p in passes for r in p if r[0] == label]
                     for label in wl.labels},
        "op_raw_times": {label: [r[2] for p in passes for r in p if r[0] == label]
                         for label in wl.labels},
        "speed": {"samples": len(speeds), "median": statistics.median(speeds),
                  "q1_q3": statistics.quantiles(speeds, n=4)[::2]},
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
    }))
    for name, (value, unit) in shown.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
