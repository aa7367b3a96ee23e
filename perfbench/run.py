"""sckf benchmark: one workload per process, one closed-loop caller.

    python3 perfbench/run.py --workload point_churn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
workloads are described in ``point_churn.py``, ``batch_scan.py`` and
``construction.py``.  Each run sets the workload up ``SETUP_REPS`` times,
then measures for ``--seconds`` with tracing off.

Times are reported at a reference speed.  A shared host runs the same
work up to 1.8x slower in bursts while other tenants load it, and how
much of a run that covers varies from run to run.  A ``Speedometer``
(see ``common.py``) spends 5% of the run's wall time, spread between
timed calls, in a fixed kernel of Python-int and numpy work; every time
of the run is multiplied by the kernel's reference time over its mean
measured time.  Each set-up is scaled by the kernel's speed in the
``SETUP_PROBE_S`` right before and after it, and ``setup_s`` is the
median of the scaled set-up times.  The report line holds the scale, the
kernel's mean and the raw set-up times.  Scaling fits means and totals,
whose time grows in proportion to the slow share of the run; a
percentile of a few-microsecond call mixes fast and slow calls unevenly,
so the bounded latency is a mean.

Output: one JSON line ``{"report": ...}`` with the Python and numpy
versions, nproc, geometry and seed, the result metrics and the workload's
own metrics each with the sample count behind it, the speedometer's
readings and any failed checks; then, as the last line, the result
``{"correct", "attempted", "failed", "metrics"}``.  ``failed`` counts wrong
answers and failed operations.  With ``--trace 0`` the metrics are the
end-to-end ones every workload defines:

* ``setup_s``: median set-up time;
* ``peak_rss_mib``: peak resident set of the process;
* ``throughput_per_s``: units of work per second spent in library calls:
  churn steps (1k batches included), probes of scan cycles (snapshot load
  and save included), or construction trials;
* ``latency_ms_mean``: mean latency of the workload's main call: scalar
  insert, one scan cycle (its snapshot load, 1k and 1M batches and save),
  or one construction trial (a CLI call's time over its trial count).

Every workload reports these same four, each for its own unit of work;
the finer numbers (percentiles, delete and query latency, snapshot load
and save, 1M-probe batches) are in the report line.

With ``--trace 1`` the run measures untraced for half of ``--seconds``,
then traces one set-up and a fixed amount of work (``TRACE_UNITS``), and
reports the per-layer metrics of ``tracing.METRICS``, times scaled to the
reference speed like the end-to-end ones.  Spans are written to
``.bench_trace/<workload>.npz``.  The exit code is 0 when every check
passed, 1 when one failed, and 2 when the sources are missing.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from common import Speedometer, mean, perf, quantile
from tracing import METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("point_churn", "batch_scan", "construction")
# seconds of reference kernel right before and right after each set-up,
# whose mean speed scales that set-up's time
SETUP_PROBE_S = 0.1


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "sckf" / "__init__.py").is_file():
        print(f"perfbench: no sckf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    workload = importlib.import_module(args.workload)
    setup_speed = Speedometer()
    setup_times, setup_scales = [], []
    for _ in range(workload.SETUP_REPS):
        state = None  # free the previous set-up before building the next
        before = setup_speed.burst(SETUP_PROBE_S)
        t0 = perf()
        state = workload.setup(args.seed)
        setup_times.append(perf() - t0)
        setup_scales.append((before + setup_speed.burst(SETUP_PROBE_S)) / 2)
    setup_s = statistics.median(t * scale for t, scale in zip(setup_times, setup_scales))

    speed = Speedometer()

    if args.trace:
        run, metrics, trace_info = _traced(workload, state, args, speed)
    else:
        run = workload.measure(state, seconds=args.seconds, speed=speed)
        run.scale = speed.scale()
        metrics = _end_to_end(workload, run, setup_s, len(setup_times))
        trace_info = None
    result_metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": _environment(),
        "geometry": workload.GEOMETRY,
        "setup_s_raw_samples": setup_times,
        "setup_scales": setup_scales,
        "speed": dict(speed.describe(), scale=run.scale),
        "result": {name: {"value": value, "unit": unit, "samples": samples}
                   for name, (value, unit, samples) in metrics.items()},
        "metrics": {name: {"value": value, "unit": unit, "samples": samples}
                    for name, (value, unit, samples) in workload.report(run).items()},
        "failed_op_share": run.failed / run.attempted if run.attempted else 0.0,
        "problems": run.problems,
    }
    if trace_info:
        report["trace_run"] = trace_info
    print(json.dumps({"report": report}))
    correct = run.failed == 0 and run.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


def _end_to_end(workload, run, setup_s, setup_reps) -> dict:
    """name -> (value, unit, sample count) for every end-to-end metric, at reference speed."""
    return {
        "setup_s": (setup_s, "s", setup_reps),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", 1),
        "throughput_per_s": (run.units / (run.busy_s * run.scale), "1/s", run.units),
        "latency_ms_mean": mean(run, workload.LATENCY_SAMPLE, 1e3, "ms"),
    }


def _traced(workload, state, args, speed):
    """Untraced reference, then a traced set-up and a fixed amount of work."""
    reference = workload.measure(state, seconds=args.seconds / 2, speed=speed)
    reference.scale = speed.scale()
    fixed_ms = 0.0
    target = workload.zero_length_target(state)
    if target is not None:
        empty = np.zeros(0, dtype=np.uint64)
        calls = []
        for _ in range(21):
            t0 = perf()
            target.query_many(empty)
            calls.append(perf() - t0)
        fixed_ms = quantile(calls, 0.5) * 1e3 * speed.scale()
    state = target = None

    tracer = Tracer()
    tracer.install()
    try:
        traced_state = workload.setup(args.seed)
        tracer.start_measurement()
        traced = workload.measure(traced_state, units=workload.TRACE_UNITS, pause=tracer.paused)
        traced.scale = traced.speed.scale()
    finally:
        tracer.uninstall()
    out = ROOT / ".bench_trace"
    out.mkdir(exist_ok=True)
    tracer.dump(out / f"{args.workload}.npz")

    per_unit_untraced = reference.busy_s * reference.scale / reference.units if reference.units else 0.0
    per_unit_traced = traced.busy_s * traced.scale / traced.units if traced.units else 0.0
    layer = tracer.layer_metrics()
    for name, unit, _ in METRICS:
        if unit in ("ms", "us") and name in layer:
            layer[name] *= traced.scale
    layer["filter.query_many.fixed_ms"] = fixed_ms
    layer["trace.overhead_share"] = (per_unit_traced / per_unit_untraced - 1.0
                                     if per_unit_untraced else 0.0)
    metrics = {name: (layer[name], unit, traced.units) for name, unit, _ in METRICS}

    reference.tally(traced.attempted, traced.failed, "; ".join(traced.problems))
    info = {"spans": len(tracer.start), "traced_units": traced.units,
            "untraced_units": reference.units,
            "untraced_s_per_unit": per_unit_untraced, "traced_s_per_unit": per_unit_traced}
    return reference, metrics, info


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv).returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
