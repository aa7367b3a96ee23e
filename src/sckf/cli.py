"""Command-line experiment runner.

Exit codes: 0 on success, 1 on usage errors, 2 when the requested
experiment or plan is infeasible.  Output is a pure function of the flags,
so identical invocations produce identical files.

Each ranged flag is parsed through the library's own check for its
parameter (``--n`` through ``planner.check_n``: at least 2), so the CLI
refuses a value, exit 1, exactly when the library would.
"""

import argparse
import functools
import sys

from . import bitmatch, harness, planner
from .filter import Variant, check_block_size, check_count, check_stash_capacity, check_subtables

USAGE_EXIT = 1
INFEASIBLE_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _checked(convert, check, *args):
    """A flag parsed by ``convert`` and refused when ``check(value, *args)`` raises ValueError."""

    def parse(text: str):
        try:
            value = convert(text)
            check(value, *args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


def _list_of(convert):
    """A non-empty comma-separated list flag whose items parse with ``convert``."""

    def parse(text: str) -> list:
        items = [convert(part) for part in text.split(",") if part]
        if not items:
            raise argparse.ArgumentTypeError(f"empty list: {text!r}")
        return items

    return parse


def _bloom(base_seed, **kwargs):
    return [harness.bloom_baseline_rate(seed=base_seed, **kwargs)]


def _fprate(base_seed, seeds, **kwargs):
    return harness.run_fp_experiment(seeds=range(base_seed, base_seed + seeds), **kwargs)


# every experiment flag, once: the harness keyword it feeds and how it parses
_FLAGS = {
    "--n": ("n", dict(type=_checked(int, planner.check_n), required=True, help="member count")),
    "--b": ("block_size", dict(type=_checked(int, check_block_size), default=4,
                               help="block size (slots per cell)")),
    "--f": ("fingerprint_bits", dict(type=_checked(int, bitmatch.check_width), required=True,
                                     help="fingerprint bits")),
    "--subtables": ("num_subtables", dict(type=_checked(int, check_subtables), default=1,
                                          help="subtable count")),
    "--stash": ("stash_capacity", dict(type=_checked(int, check_stash_capacity), default=0,
                                       help="stash capacity per subtable")),
    "--variant": ("variant", dict(type=Variant, default="simplified",
                                  metavar="{simplified,original}")),
    "--trials": ("trials", dict(type=_checked(int, check_count, "trials"), default=100)),
    "--seed": ("base_seed", dict(type=int, default=0)),
    "--seeds": ("seeds", dict(type=_checked(int, check_count, "seeds"), default=10,
                              help="number of seeds, counted up from --seed")),
    "--queries": ("queries", dict(type=_checked(int, check_count, "queries"), default=10**6)),
    "--loads": ("loads", dict(type=_list_of(_checked(float, planner.check_load)),
                              default="0.5,0.6,0.7,0.8,0.9,0.95", help="comma-separated target loads")),
    "--load": ("load", dict(type=_checked(float, planner.check_load), default=0.9)),
    "--fgrid": ("fingerprint_grid", dict(type=_list_of(_checked(int, bitmatch.check_width)),
                                         default="2,3,4,5,6,7,8,9,10",
                                         help="comma-separated fingerprint widths")),
    "--bits": ("num_bits", dict(type=_checked(int, check_count, "num_bits"), required=True,
                                help="Bloom filter bits")),
}

# subcommand: (harness function, help, the flags it takes)
_EXPERIMENTS = {
    "fprate": (_fprate, "measure false-positive rate vs bound",
               "--n --b --f --subtables --stash --variant --queries --seeds --seed"),
    "loadsweep": (harness.run_load_sweep, "construction success across target loads",
                  "--n --b --f --variant --loads --trials --seed"),
    "failsweep": (harness.run_failure_sweep, "construction failures across fingerprint widths",
                  "--n --b --load --fgrid --trials --seed"),
    "compare": (harness.run_variant_compare, "simplified vs original on identical streams",
                "--n --b --f --subtables --trials --seed"),
    "bloom": (_bloom, "Bloom-filter false-positive baseline", "--n --bits --queries --seed"),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, MemoryError) as exc:  # InfeasiblePlanError is a ValueError
        reason = "the experiment does not fit in memory" if isinstance(exc, MemoryError) else exc
        print(f"infeasible: {reason}", file=sys.stderr)
        return INFEASIBLE_EXIT


def _build_parser() -> _Parser:
    parser = _Parser(prog="sckf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="derive geometry from a capacity target")
    p.add_argument("--n", type=_checked(int, planner.check_n), required=True,
                   help="elements to plan for (at least 2)")
    p.add_argument("--b", type=_checked(int, check_block_size), help="block size (slots per cell)")
    p.add_argument("--delta", type=_checked(float, planner.check_load_slack),
                   help="load slack in (0, 0.5)")
    p.add_argument("--s", type=_checked(float, planner.check_failure_exponent), default=1.0,
                   help="failure exponent, finite and at least 1 (default 1)")
    p.add_argument("--target-fp-rate", type=_checked(float, planner.check_fp_rate),
                   help="false-positive budget in (0, 1)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_plan)

    for name, (run, help_text, flags) in _EXPERIMENTS.items():
        p = sub.add_parser(name, help=help_text)
        keywords = []
        for flag in flags.split():
            keyword, options = _FLAGS[flag]
            p.add_argument(flag, dest=keyword, **{"metavar": flag[2:].upper(), **options})
            keywords.append(keyword)
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(handler=functools.partial(_run_experiment, run, keywords))

    return parser


def _run_experiment(run, keywords, args) -> int:
    return _emit(run(**{keyword: getattr(args, keyword) for keyword in keywords}), args)


def _emit(records, args) -> int:
    text = harness.render(records, args.format)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"sckf: error: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
            return USAGE_EXIT
    else:
        sys.stdout.write(text)
    return 0


def _cmd_plan(args) -> int:
    request = planner.PlanRequest(
        n=args.n,
        failure_exponent=args.s,
        load_slack=args.delta,
        block_size=args.b,
        target_fp_rate=args.target_fp_rate,
    )
    result = planner.plan(request)
    if args.format == "json":
        import dataclasses
        import json

        payload = dataclasses.asdict(result)
        payload["warnings"] = list(result.warnings)
        print(json.dumps(payload, indent=2))
        return 0
    print(f"n                  {result.n}")
    print(f"block size         {result.block_size}")
    print(f"load slack         {result.load_slack:.6f}")
    print(f"load factor        {result.load_factor:.6f}")
    print(f"fingerprint bits   {result.fingerprint_bits}"
          f"  (balance {result.balance_bits}, subtable {result.subtable_bits}, rate {result.rate_bits})")
    print(f"subtables          {result.num_subtables}")
    print(f"cells              {result.num_cells}")
    print(f"slots              {result.num_cells * result.block_size}")
    print(f"mean occupancy     {result.mean_subtable_occupancy:.1f} per subtable")
    print(f"fp bound           {result.fp_bound:.3e}")
    for warning in result.warnings:
        print(f"warning: {warning}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
