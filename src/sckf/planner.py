"""Parameter planning for blocked cuckoo filters.

The planner turns a target element count (and optionally a failure
exponent, load slack, block size, or false-positive budget) into a full
geometry: block size, fingerprint bits, and subtable count.  The analysis
behind each bound, in the vocabulary used below:

* load slack ``delta``: a table filled to ``1 - delta - delta**2`` of its
  slots admits every insert with high probability, provided the block size
  satisfies ``b >= 1 + ln(1/delta) / (1 - ln 2)``.
* balance bound: subtable occupancies concentrate around their mean; the
  fingerprint width must be large enough that no subtable overshoots its
  slack, which needs ``2**f >= 3 * (s+1) * ln(n) / (delta**4 * b)``.
* subtable bound: each subtable must be large enough that fingerprint
  collisions inside a cell pair cannot exceed the two blocks, which needs
  ``f > (s+1) * log2(n) / b``.
* false-positive bound: a membership probe of an absent element hits a
  stored fingerprint with probability at most
  ``2n / (num_cells * (2**f - 1))``, stash entries included.

``plan`` applies all of them, then re-checks every inequality on the
result before returning it.
"""

import math
from dataclasses import dataclass, field

from .bitmatch import MAX_WIDTH, as_integer, check_width
from .filter import MAX_BLOCK_SIZE, MAX_SUBTABLES, check_block_size, check_count

_SLACK_COEFF = 1.0 - math.log(2.0)

# a derived load slack above this makes the quartic balance term so weak
# that desk-scale tables need enormous subtables; flag it
SLACK_WARN_THRESHOLD = 0.25

# a request's load slack lies in (0, MAX_LOAD_SLACK)
MAX_LOAD_SLACK = 0.5


class InfeasiblePlanError(ValueError):
    """No geometry within the supported ranges satisfies the request."""


def min_block_size(load_slack: float) -> int:
    """Smallest block size that supports a given load slack."""
    check_load_slack(load_slack, upper=1.0)
    # -log rather than log(1/x): 1/x overflows for subnormal slacks
    return math.ceil(1.0 - math.log(load_slack) / _SLACK_COEFF - 1e-9)


def max_load_slack(block_size: int) -> float:
    """Largest load slack a block size supports; inverse of min_block_size."""
    check_block_size(block_size)
    return math.exp(-(block_size - 1) * _SLACK_COEFF)


def balance_fingerprint_bound(n: int, failure_exponent: float, load_slack: float, block_size: int) -> float:
    """Exact (un-ceiled) fingerprint-bit requirement for subtable balance."""
    check_n(n)
    check_failure_exponent(failure_exponent)
    check_load_slack(load_slack, upper=1.0)
    check_block_size(block_size)
    return math.log2(
        3.0 * (failure_exponent + 1.0) * math.log(n) / (load_slack**4 * block_size)
    )


def balance_fingerprint_bits(n: int, failure_exponent: float, load_slack: float, block_size: int) -> int:
    """Ceiling of balance_fingerprint_bound; may be <= 0 when vacuous."""
    return math.ceil(balance_fingerprint_bound(n, failure_exponent, load_slack, block_size) - 1e-9)


def subtable_fingerprint_bound(n: int, failure_exponent: float, block_size: int) -> float:
    """Exact fingerprint-bit threshold for in-subtable collision safety.

    This is the whole-table guarantee: a union bound over the subtables
    raises the exponent from s to s + 1.
    """
    check_n(n)
    check_failure_exponent(failure_exponent)
    check_block_size(block_size)
    return (failure_exponent + 1.0) * math.log2(n) / block_size


def subtable_fingerprint_bits(n: int, failure_exponent: float, block_size: int) -> int:
    """Smallest integer strictly above subtable_fingerprint_bound."""
    return math.floor(subtable_fingerprint_bound(n, failure_exponent, block_size) + 1e-9) + 1


def false_positive_bound(n: int, num_cells: int, block_size: int, fingerprint_bits: int) -> float:
    """Upper bound on the false-positive rate with n stored elements.

    Equal to ``2 * b * (1 - delta) / (2**f - 1)`` when the table holds n
    elements at load ``1 - delta``; the bound does not degrade when some
    of the n live in the stash.
    """
    if as_integer(n, "n") < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    check_count(num_cells, "num_cells")
    check_block_size(block_size)
    check_width(fingerprint_bits)
    if n > num_cells * block_size:
        raise ValueError(f"n={n} exceeds the {num_cells * block_size} table slots")
    return 2.0 * n / (num_cells * ((1 << fingerprint_bits) - 1))


def fingerprint_rate_bound(target_rate: float, block_size: int, load: float) -> float:
    """Exact (un-ceiled) fingerprint bits that push the false-positive bound
    under target.

    Uses the load form of the bound, which only shrinks when the planner
    later rounds the table up to whole subtables.
    """
    check_fp_rate(target_rate)
    check_block_size(block_size)
    check_load(load)
    return math.log2(2.0 * block_size * load / target_rate + 1.0)


def fingerprint_bits_for_rate(target_rate: float, block_size: int, load: float) -> int:
    """Ceiling of fingerprint_rate_bound."""
    return math.ceil(fingerprint_rate_bound(target_rate, block_size, load))


@dataclass(frozen=True)
class PlanRequest:
    """What the filter must achieve, before any geometry is chosen.

    Give at least one of load_slack and block_size; the other is derived.
    """

    n: int
    failure_exponent: float = 1.0
    load_slack: float | None = None
    block_size: int | None = None
    target_fp_rate: float | None = None

    def __post_init__(self):
        check_n(self.n)
        check_failure_exponent(self.failure_exponent)
        if self.load_slack is None and self.block_size is None:
            raise ValueError("give load_slack or block_size (or both)")
        if self.load_slack is not None:
            check_load_slack(self.load_slack)
        if self.block_size is not None:
            check_block_size(self.block_size)
        if self.target_fp_rate is not None:
            check_fp_rate(self.target_fp_rate)


@dataclass(frozen=True)
class PlanResult:
    """Planned geometry plus every intermediate the bounds produced."""

    n: int
    failure_exponent: float
    load_slack: float
    block_size: int
    fingerprint_bits: int
    num_subtables: int
    num_cells: int
    load_factor: float
    fp_bound: float
    balance_bits: int
    subtable_bits: int
    rate_bits: int
    mean_subtable_occupancy: float
    warnings: tuple[str, ...] = field(default=())


def plan(request: PlanRequest) -> PlanResult:
    """Geometry satisfying every bound in the request, or raise."""
    if not isinstance(request, PlanRequest):
        raise TypeError(f"plan takes a PlanRequest, not {type(request).__name__}")
    n = request.n
    s = request.failure_exponent
    delta = request.load_slack
    block = request.block_size
    warnings = []
    if block is None:
        block = min_block_size(delta)
        if block > MAX_BLOCK_SIZE:
            raise InfeasiblePlanError(
                f"load slack {delta} needs block size {block}, above the {MAX_BLOCK_SIZE} maximum"
            )
    elif delta is None:
        delta = max_load_slack(block)
        if delta >= MAX_LOAD_SLACK:
            raise InfeasiblePlanError(
                f"block_size={block} only supports load slack {delta:.3f} >= {MAX_LOAD_SLACK}; "
                "use block_size >= 4 or give load_slack explicitly"
            )
    elif block < min_block_size(delta):
        raise InfeasiblePlanError(
            f"block_size={block} is below the {min_block_size(delta)} required "
            f"for load slack {delta}"
        )
    if delta > SLACK_WARN_THRESHOLD:
        warnings.append(
            f"load slack {delta:.3f} > {SLACK_WARN_THRESHOLD}: the quartic balance "
            "term is weak here and the planned load factor is conservative"
        )

    load = 1.0 - delta - delta * delta
    bounds = {
        "balance": balance_fingerprint_bound(n, s, delta, block),
        "subtable": subtable_fingerprint_bound(n, s, block),
    }
    if request.target_fp_rate is not None:
        bounds["rate"] = fingerprint_rate_bound(request.target_fp_rate, block, load)
    for name, bound in bounds.items():
        # checked before any ceil: a bound that overflowed is inf
        if bound > MAX_WIDTH:
            raise InfeasiblePlanError(
                f"the {name} bound needs {bound:.6g} fingerprint bits, above the {MAX_WIDTH} maximum"
            )
    balance_bits = balance_fingerprint_bits(n, s, delta, block)
    subtable_bits = subtable_fingerprint_bits(n, s, block)
    rate_bits = 0
    if request.target_fp_rate is not None:
        rate_bits = fingerprint_bits_for_rate(request.target_fp_rate, block, load)
    bits = max(balance_bits, subtable_bits, rate_bits, 2)
    if bits > MAX_WIDTH:
        raise InfeasiblePlanError(
            f"request needs {bits} fingerprint bits, above the {MAX_WIDTH} maximum"
        )

    subtable_cells = 1 << bits
    num_subtables = subtables_for_load(n, block, bits, load)
    num_cells = num_subtables * subtable_cells

    result = PlanResult(
        n=n,
        failure_exponent=s,
        load_slack=delta,
        block_size=block,
        fingerprint_bits=bits,
        num_subtables=num_subtables,
        num_cells=num_cells,
        load_factor=load,
        fp_bound=false_positive_bound(n, num_cells, block, bits),
        balance_bits=balance_bits,
        subtable_bits=subtable_bits,
        rate_bits=rate_bits,
        mean_subtable_occupancy=subtable_cells * block * load,
        warnings=tuple(warnings),
    )
    _verify(result, request)
    return result


def subtables_for_load(n: int, block_size: int, fingerprint_bits: int, load: float) -> int:
    """Fewest subtables so that n elements sit at or below the target load."""
    check_block_size(block_size)
    check_width(fingerprint_bits)
    check_load(load)
    slots = (1 << fingerprint_bits) * block_size
    # compared before dividing: n may be too large for a float, and a
    # subnormal load makes n / (slots * load) infinite
    if n > MAX_SUBTABLES * slots * load:
        raise InfeasiblePlanError(
            f"n needs more than the {MAX_SUBTABLES} subtables the wire format holds"
        )
    subtables = max(1, math.ceil(n / (slots * load)))
    # the quotient may round down; count with the product _verify checks
    while subtables * slots * load < n:
        subtables += 1
    return subtables


def _verify(result: PlanResult, request: PlanRequest) -> None:
    """Re-check every inequality the plan was built from."""
    checks = [
        (
            result.block_size >= 1.0 + math.log(1.0 / result.load_slack) / _SLACK_COEFF - 1e-9,
            "block size below the load-slack requirement",
        ),
        (
            result.fingerprint_bits
            > subtable_fingerprint_bound(result.n, result.failure_exponent, result.block_size),
            "fingerprint bits do not clear the subtable bound",
        ),
        (
            result.fingerprint_bits
            >= balance_fingerprint_bound(
                result.n, result.failure_exponent, result.load_slack, result.block_size
            )
            - 1e-9,
            "fingerprint bits do not clear the balance bound",
        ),
        (
            result.num_cells * result.block_size * result.load_factor >= result.n,
            "table too small for n at the planned load",
        ),
    ]
    if request.target_fp_rate is not None:
        checks.append(
            (result.fp_bound <= request.target_fp_rate, "false-positive bound above target")
        )
    for ok, message in checks:
        if not ok:
            raise RuntimeError(f"planner produced an inconsistent result: {message}")


# input checks shared by the bounds, PlanRequest and the CLI; each raises
# ValueError out of range, NaN fails every one of them, and a non-integer n
# is a TypeError

def check_n(n: int) -> None:
    if as_integer(n, "n") < 2:
        raise ValueError(f"n must be at least 2, got {n}")


def check_failure_exponent(s: float) -> None:
    if not (math.isfinite(s) and s >= 1):
        raise ValueError(f"failure exponent must be finite and at least 1, got {s}")


def check_load_slack(delta: float, upper: float = MAX_LOAD_SLACK) -> None:
    if not 0.0 < delta < upper:
        raise ValueError(f"load slack must be in (0, {upper}), got {delta}")


def check_load(load: float) -> None:
    if not 0.0 < load <= 1.0:
        raise ValueError(f"load must be in (0, 1], got {load}")


def check_fp_rate(rate: float) -> None:
    if not 0.0 < rate < 1.0:
        raise ValueError(f"target false-positive rate must be in (0, 1), got {rate}")
