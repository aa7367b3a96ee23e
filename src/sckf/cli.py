"""Command-line experiment runner.

Exit codes: 0 on success, 1 on usage errors, 2 when the requested
experiment or plan is infeasible.  Output is a pure function of the flags,
so identical invocations produce identical files.
"""

import argparse
import sys

from . import bitmatch, harness, planner
from .filter import MAX_BLOCK_SIZE, MAX_STASH_CAPACITY, Variant

USAGE_EXIT = 1
INFEASIBLE_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _bounded_int(text: str, low: int, high: int | None = None) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low or (high is not None and value > high):
        bounds = f"at least {low}" if high is None else f"in [{low}, {high}]"
        raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
    return value


def _count(text: str) -> int:
    """A count flag: an integer of at least 1."""
    return _bounded_int(text, 1)


def _block_size(text: str) -> int:
    """A block size: slots per cell, as many as the wire format holds."""
    return _bounded_int(text, 1, MAX_BLOCK_SIZE)


def _stash(text: str) -> int:
    """A stash capacity per subtable, as many entries as the wire format holds."""
    return _bounded_int(text, 0, MAX_STASH_CAPACITY)


def _width(text: str) -> int:
    """A fingerprint width: an integer the lane match supports."""
    return _bounded_int(text, bitmatch.MIN_WIDTH, bitmatch.MAX_WIDTH)


def _load(text: str) -> float:
    """A target load: a number in (0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 < value <= 1.0:  # NaN fails this too
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


def _checked(convert, check):
    """A flag parsed by ``convert`` and refused when ``check`` raises ValueError."""

    def parse(text: str):
        try:
            value = convert(text)
            check(value)
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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (planner.InfeasiblePlanError, ValueError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return INFEASIBLE_EXIT


def _build_parser() -> _Parser:
    parser = _Parser(prog="sckf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="derive geometry from a capacity target")
    p.add_argument("--n", type=_checked(int, planner.check_n), required=True,
                   help="elements to plan for (at least 2)")
    p.add_argument("--b", type=_block_size, help="block size (slots per cell)")
    p.add_argument("--delta", type=_checked(float, planner.check_load_slack),
                   help="load slack in (0, 0.5)")
    p.add_argument("--s", type=_checked(float, planner.check_failure_exponent), default=1.0,
                   help="failure exponent, finite and at least 1 (default 1)")
    p.add_argument("--target-fp-rate", type=_checked(float, planner.check_fp_rate),
                   help="false-positive budget in (0, 1)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_plan)

    p = sub.add_parser("fprate", help="measure false-positive rate vs bound")
    _common_flags(p, trials=False)
    p.add_argument("--queries", type=_count, default=10**6)
    p.add_argument("--seeds", type=_count, default=10, help="number of seeds, counted up from --seed")
    p.set_defaults(handler=_cmd_fprate)

    p = sub.add_parser("loadsweep", help="construction success across target loads")
    _common_flags(p, stash=False)
    p.add_argument("--loads", type=_list_of(_load), default="0.5,0.6,0.7,0.8,0.9,0.95",
                   help="comma-separated target loads")
    p.set_defaults(handler=_cmd_loadsweep)

    p = sub.add_parser("failsweep", help="construction failures across fingerprint widths")
    _common_flags(p, variant=False, subtables=False, stash=False, fingerprint=False)
    p.add_argument("--load", type=_load, default=0.9)
    p.add_argument("--fgrid", type=_list_of(_width), default="2,3,4,5,6,7,8,9,10",
                   help="comma-separated fingerprint widths")
    p.set_defaults(handler=_cmd_failsweep)

    p = sub.add_parser("compare", help="simplified vs original on identical streams")
    _common_flags(p, variant=False, stash=False)
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("bloom", help="Bloom-filter false-positive baseline")
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--bits", type=_count, required=True)
    p.add_argument("--queries", type=_count, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    _output_flags(p)
    p.set_defaults(handler=_cmd_bloom)

    p = sub.add_parser("selftest", help="exhaustive lane-match check against the loop oracle")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def _common_flags(p, variant=True, subtables=True, stash=True, fingerprint=True, trials=True):
    p.add_argument("--n", type=_count, required=True, help="member count")
    p.add_argument("--b", type=_block_size, default=4, help="block size")
    if fingerprint:
        p.add_argument("--f", type=_width, required=True, help="fingerprint bits")
    if subtables:
        p.add_argument("--subtables", type=_count, default=1)
    if stash:
        p.add_argument("--stash", type=_stash, default=0, help="stash capacity per subtable")
    if variant:
        p.add_argument("--variant", choices=("simplified", "original"), default="simplified")
    if trials:
        p.add_argument("--trials", type=_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    _output_flags(p)


def _output_flags(p):
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


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


def _cmd_fprate(args) -> int:
    records = harness.run_fp_experiment(
        n=args.n,
        block_size=args.b,
        fingerprint_bits=args.f,
        num_subtables=args.subtables,
        queries=args.queries,
        seeds=range(args.seed, args.seed + args.seeds),
        variant=Variant(args.variant),
        stash_capacity=args.stash,
    )
    return _emit(records, args)


def _cmd_loadsweep(args) -> int:
    records = harness.run_load_sweep(
        n=args.n,
        block_size=args.b,
        fingerprint_bits=args.f,
        loads=args.loads,
        trials=args.trials,
        base_seed=args.seed,
        variant=Variant(args.variant),
    )
    return _emit(records, args)


def _cmd_failsweep(args) -> int:
    records = harness.run_failure_sweep(
        n=args.n,
        block_size=args.b,
        load=args.load,
        fingerprint_grid=args.fgrid,
        trials=args.trials,
        base_seed=args.seed,
    )
    return _emit(records, args)


def _cmd_compare(args) -> int:
    records = harness.run_variant_compare(
        n=args.n,
        block_size=args.b,
        fingerprint_bits=args.f,
        num_subtables=args.subtables,
        trials=args.trials,
        base_seed=args.seed,
    )
    return _emit(records, args)


def _cmd_bloom(args) -> int:
    record = harness.bloom_baseline_rate(args.n, args.bits, args.queries, args.seed)
    return _emit([record], args)


def _cmd_selftest(args) -> int:
    checked = mismatched = 0
    for width, max_lanes in ((2, 3), (3, 3), (4, 2)):
        for lanes in range(1, max_lanes + 1):
            constant = bitmatch.make_lane_constant(width, lanes)
            for word in range(1 << (lanes * width)):
                for fp in range(1, 1 << width):
                    checked += 1
                    if bitmatch.find_fingerprint(word, fp, constant, width) != bitmatch.naive_find(
                        word, fp, width, lanes
                    ):
                        mismatched += 1
    print(f"selftest: {checked - mismatched}/{checked} lane searches match the loop oracle")
    return 0 if mismatched == 0 else INFEASIBLE_EXIT


if __name__ == "__main__":
    sys.exit(main())
