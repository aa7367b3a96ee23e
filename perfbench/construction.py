"""construction: the README's construction experiments through ``sckf.cli.main``.

A pass runs ``failsweep`` at the C05 geometry (n=100,000, b=4, load 0.9,
fingerprint widths 2..10) and ``compare`` (n=100,000, b=4, f=12, 8
subtables), one trial per grid point, in-process with stdout captured.
``failsweep`` runs as one CLI call per width, whose row is the same as in
a call over the whole grid, so that the speedometer samples the host
every 0.2 s or so rather than every 2 s.
Their work is ``insert_hashed`` plus eviction up to the budget, fed by
vectorized hashing: no scalar hashing and no queries.  This is the only
workload that runs the original variant and the harness trial loops.

Each pass takes the next CLI ``--seed`` in a cycle of ``CLI_SEEDS``, and
its output must match, byte for byte, the SHA-256 digest recorded in
``construction_digests.json`` from the commit that introduced this
benchmark (``record_digests.py`` writes that file).  Set-up is a fresh
import of ``sckf.cli`` and the package behind it, the module-level work
that every CLI run pays; it runs in this process, with numpy already
loaded, so the speedometer's scale applies to it.
"""

import contextlib
import hashlib
import importlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from common import Run, Speedometer, mean, no_pause, percentile, perf
from sckf import cli

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "construction_digests.json"

CLI_SEEDS = 64
FAILSWEEP_WIDTHS = range(2, 11)
EXPERIMENTS = {
    f"failsweep-f{width}": ["failsweep", "--n", "100000", "--b", "4", "--load", "0.9",
                            "--fgrid", str(width), "--trials", "1"]
    for width in FAILSWEEP_WIDTHS
}
EXPERIMENTS["compare"] = ["compare", "--n", "100000", "--b", "4", "--f", "12",
                          "--subtables", "8", "--trials", "1"]
# trials one invocation runs: one per failsweep width, one per compare variant
TRIALS = {name: 2 if name == "compare" else 1 for name in EXPERIMENTS}

GEOMETRY = {name: " ".join(argv) for name, argv in EXPERIMENTS.items()}
GEOMETRY["cli_seeds"] = CLI_SEEDS

# a set-up takes tens of milliseconds, so take the median of many
SETUP_REPS = 15
# passes in one traced measurement
TRACE_UNITS = 1
# the call behind latency_ms_mean: one trial, a CLI call's time over its trial count
LATENCY_SAMPLE = "trial"


def argv_for(name: str, cli_seed: int) -> list:
    return EXPERIMENTS[name] + ["--seed", str(cli_seed)]


def run_cli(argv) -> tuple[int, bytes]:
    """Exit code and captured stdout of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue().encode()


def load_digests(path: Path = DIGESTS) -> dict:
    with open(path) as handle:
        return json.load(handle)


@dataclass
class State:
    digests: dict
    first_seed: int
    next_pass: int = 0


def setup(seed: int) -> State:
    """Import ``sckf.cli`` afresh, then put back the modules in use.

    The fresh copies are dropped, so ``cli`` here and any tracing wrappers
    keep pointing at the modules the run measures.
    """
    in_use = {name: module for name, module in sys.modules.items() if _is_sckf(name)}
    for name in in_use:
        del sys.modules[name]
    try:
        importlib.import_module("sckf.cli")
    finally:
        for name in [name for name in sys.modules if _is_sckf(name)]:
            del sys.modules[name]
        sys.modules.update(in_use)
    return State(load_digests(), seed % CLI_SEEDS)


def _is_sckf(name: str) -> bool:
    return name == "sckf" or name.startswith("sckf.")


def measure(state: State, seconds: float | None = None, units: int | None = None, pause=no_pause,
            speed: Speedometer | None = None) -> Run:
    """Whole passes until ``seconds`` have passed or ``units`` passes are done."""
    run = Run(speed or Speedometer())
    started = perf()
    passes = 0
    while (units is None or passes < units) and (seconds is None or perf() - started < seconds):
        cli_seed = (state.first_seed + state.next_pass) % CLI_SEEDS
        state.next_pass += 1
        for name in EXPERIMENTS:
            t0 = perf()
            code, output = run_cli(argv_for(name, cli_seed))
            t1 = perf()
            run.timed(name, t1 - t0)
            if name.startswith("failsweep"):
                run.record("failsweep_width", t1 - t0)
            run.settle()
            for _ in range(TRIALS[name]):
                run.record("trial", (t1 - t0) / TRIALS[name])
            run.count("trials", TRIALS[name])
            expected = state.digests.get(name, {}).get(str(cli_seed))
            digest = hashlib.sha256(output).hexdigest()
            run.check(code == 0 and digest == expected,
                      f"{name} --seed {cli_seed}: exit {code}, digest {digest[:12]}, "
                      f"expected {str(expected)[:12]}")
        passes += 1
    run.units = run.counts.get("trials", 0)
    return run


def zero_length_target(state: State):
    """No filter outlives a CLI run, so there is none to time."""
    return None


def report(run: Run) -> dict:
    """The workload's own metrics: name -> (value, unit, sample count)."""
    return {
        "trials_per_s": (run.units / (run.busy_s * run.scale) if run.busy_s else 0.0, "1/s", run.units),
        "trial_ms_p50": percentile(run, "trial", 0.5, 1e3, "ms"),
        "trial_ms_p90": percentile(run, "trial", 0.9, 1e3, "ms"),
        "failsweep_width_ms_mean": mean(run, "failsweep_width", 1e3, "ms"),
        "compare_ms_mean": mean(run, "compare", 1e3, "ms"),
        "compare_ms_p50": percentile(run, "compare", 0.5, 1e3, "ms"),
    }
