"""Parameter planner: frozen pins, inequality oracles, and composition."""

import math

import numpy as np
import pytest

from sckf import planner
from sckf.planner import InfeasiblePlanError, PlanRequest, plan


# -- block size and load slack ------------------------------------------------


def test_min_block_size_pins():
    assert planner.min_block_size(0.05) == 11
    assert planner.min_block_size(0.25) == 6
    assert planner.min_block_size(0.45) == 4


def test_min_block_size_inverts_max_load_slack():
    # smallest b whose achievable slack is at most delta
    for delta in (0.01, 0.05, 0.1, 0.2, 0.3, 0.45):
        b = planner.min_block_size(delta)
        assert planner.max_load_slack(b) <= delta + 1e-12
        if b > 1:
            assert planner.max_load_slack(b - 1) > delta


def test_max_load_slack_pin():
    assert planner.max_load_slack(8) == pytest.approx(0.11672089159097804, rel=1e-15)
    assert planner.max_load_slack(1) == 1.0


def test_max_load_slack_is_exponential_decay():
    coeff = 1.0 - math.log(2.0)
    for b in range(1, 30):
        assert planner.max_load_slack(b) == pytest.approx(math.exp(-(b - 1) * coeff))
        if b > 1:
            ratio = planner.max_load_slack(b) / planner.max_load_slack(b - 1)
            assert ratio == pytest.approx(math.exp(-coeff))


# -- fingerprint width lower bounds -------------------------------------------


def test_balance_bits_pin():
    delta = planner.max_load_slack(8)
    assert planner.balance_fingerprint_bits(2**20, 2.0, delta, 8) == 17


def test_balance_bits_satisfy_their_inequality():
    for n in (10**3, 10**5, 2**20):
        for s in (1.0, 2.0):
            for b in (4, 8, 16):
                delta = planner.max_load_slack(b)
                need = 3.0 * (s + 1.0) * math.log(n) / (delta**4 * b)
                bits = planner.balance_fingerprint_bits(n, s, delta, b)
                assert 2.0**bits >= need
                assert 2.0 ** (bits - 1) < need


def test_balance_bound_drops_one_bit_when_block_doubles():
    # the bound is already a bit count, and the underlying quantity halves
    for b in (2, 4, 8, 16):
        low = planner.balance_fingerprint_bound(10**6, 1.0, 0.2, b)
        high = planner.balance_fingerprint_bound(10**6, 1.0, 0.2, 2 * b)
        assert low - high == pytest.approx(1.0, abs=1e-12)


def test_subtable_bits_pins_and_strictness():
    assert planner.subtable_fingerprint_bits(2**20, 1.0, 8) == 6
    assert planner.subtable_fingerprint_bits(2**20, 2.0, 8) == 8
    # n = 2^20, s = 1: b * bits must strictly exceed 40, so 5 is not enough
    assert 8 * 5 == 40
    assert planner.subtable_fingerprint_bits(2**20, 1.0, 8) * 8 > 40


def test_subtable_bits_make_keyspace_strictly_larger():
    for n in (10**4, 10**6, 2**20):
        for s in (1.0, 2.0):
            for b in (4, 8):
                bits = planner.subtable_fingerprint_bits(n, s, b)
                assert (2.0 ** (b * bits)) > float(n) ** (s + 1.0)
                assert (2.0 ** (b * (bits - 1))) <= float(n) ** (s + 1.0) * (1 + 1e-9)


# -- false positive bound -----------------------------------------------------


def test_false_positive_bound_pin():
    # 4096 cells of 4 slots holding 15565 fingerprints of 12 bits
    bound = planner.false_positive_bound(15565, 4096, 4, 12)
    assert bound == pytest.approx(2 * 15565 / (4096 * 4095), rel=1e-15)
    assert bound == pytest.approx(1.8559e-3, rel=1e-4)


def test_false_positive_bound_two_forms_agree():
    for n, num_cells, b, f in [
        (15565, 4096, 4, 12),
        (10**5, 1 << 16, 8, 16),
        (500, 256, 4, 9),
    ]:
        direct = planner.false_positive_bound(n, num_cells, b, f)
        load = n / (num_cells * b)
        via_load = 2.0 * b * load / (2.0**f - 1.0)
        assert abs(direct - via_load) <= 1e-12


def test_false_positive_bound_edge_cases():
    assert planner.false_positive_bound(0, 16, 4, 8) == 0.0
    with pytest.raises(ValueError):
        planner.false_positive_bound(65, 16, 4, 8)  # more fingerprints than slots


def test_false_positive_bound_checks_the_width():
    with pytest.raises(ValueError, match="fingerprint width"):
        planner.false_positive_bound(10, 16, 4, 0)


@pytest.mark.parametrize(
    "block_size, load, name",
    [(0, 0.9, "block_size"), (4, 1.5, "load")],
    ids=["block-size-0", "load-1.5"],
)
def test_fingerprint_rate_bound_checks_its_geometry(block_size, load, name):
    with pytest.raises(ValueError, match=name):
        planner.fingerprint_rate_bound(0.01, block_size, load)


def test_fingerprint_bits_for_rate_inverts_the_bound():
    for rate in (1e-2, 1e-3, 1e-4, 1e-6):
        for b in (4, 8):
            for load in (0.5, 0.9):
                f = planner.fingerprint_bits_for_rate(rate, b, load)
                achieved = 2.0 * b * load / (2.0**f - 1.0)
                assert achieved <= rate * (1 + 1e-12)
                looser = 2.0 * b * load / (2.0 ** (f - 1) - 1.0)
                assert looser > rate


# -- request validation -------------------------------------------------------


def test_plan_request_validation():
    PlanRequest(n=100, block_size=8)
    with pytest.raises(ValueError):
        PlanRequest(n=0, block_size=8)
    with pytest.raises(ValueError):
        PlanRequest(n=100)  # needs slack or block size
    with pytest.raises(ValueError):
        PlanRequest(n=100, load_slack=0.5)
    with pytest.raises(ValueError):
        PlanRequest(n=100, load_slack=0.0)
    with pytest.raises(ValueError):
        PlanRequest(n=100, block_size=8, failure_exponent=0.0)
    with pytest.raises(ValueError):
        PlanRequest(n=100, block_size=8, target_fp_rate=1.5)
    for exponent in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            PlanRequest(n=100, block_size=8, failure_exponent=exponent)
    with pytest.raises(ValueError):
        PlanRequest(n=100, block_size=8, target_fp_rate=math.nan)


@pytest.mark.parametrize("field,value", [
    ("failure_exponent", "x"), ("failure_exponent", None), ("failure_exponent", True),
    ("load_slack", "x"), ("load_slack", True), ("target_fp_rate", "x"), ("target_fp_rate", False),
])
def test_plan_request_refuses_non_real_values(field, value):
    # a str once reached `<` (a TypeError naming no field), and True passed as 1.0
    with pytest.raises(TypeError, match=f"^{field} must be a real number, not {type(value).__name__}$"):
        PlanRequest(n=100, block_size=8, **{field: value})


@pytest.mark.parametrize("check,name,valid", [
    (planner.check_failure_exponent, "failure_exponent", [2, np.float32(1.5)]),
    (planner.check_load_slack, "load_slack", [np.float64(0.25), np.float32(0.25)]),
    (planner.check_load, "load", [1, np.float32(0.5)]),
    (planner.check_fp_rate, "target_fp_rate", [np.float64(0.01), np.float32(0.01)]),
])
def test_real_valued_checks_type_before_comparing(check, name, valid):
    for value in ("0.1", None, True, False):
        with pytest.raises(TypeError, match=f"^{name} must be a real number"):
            check(value)
    for value in valid:
        check(value)


# -- plan composition ---------------------------------------------------------


def test_plan_pin_block_eight():
    result = plan(PlanRequest(n=10**5, block_size=8))
    assert result.fingerprint_bits == 16
    assert result.num_subtables == 1
    assert result.load_slack == pytest.approx(planner.max_load_slack(8))
    assert result.warnings == ()
    assert result.fp_bound == pytest.approx(
        planner.false_positive_bound(10**5, result.num_cells, 8, 16)
    )


def test_plan_pin_block_four():
    result = plan(PlanRequest(n=10**5, block_size=4))
    assert result.fingerprint_bits == 10
    assert result.load_slack > planner.SLACK_WARN_THRESHOLD
    assert result.warnings  # coarse block sizes surface a slack warning


def test_plan_derives_block_size_from_slack():
    result = plan(PlanRequest(n=10**4, load_slack=0.05))
    assert result.block_size == planner.min_block_size(0.05) == 11
    assert result.load_factor == pytest.approx(1 - 0.05 - 0.05**2)


def test_plan_fills_subtables_consistently():
    for n in (10**3, 10**4, 10**5, 10**6):
        for b in (4, 8, 16):
            result = plan(PlanRequest(n=n, block_size=b))
            per_subtable = result.block_size * result.load_factor * (1 << result.fingerprint_bits)
            assert result.mean_subtable_occupancy == pytest.approx(per_subtable)
            # enough subtables for n at the planned load, and not one extra
            assert result.num_subtables * per_subtable >= n
            if result.num_subtables > 1:
                assert (result.num_subtables - 1) * per_subtable < n * (1 + 1e-9)
            assert result.num_cells == result.num_subtables << result.fingerprint_bits
            assert result.load_factor == pytest.approx(
                1 - result.load_slack - result.load_slack**2
            )
            assert result.fingerprint_bits == max(
                result.balance_bits, result.subtable_bits, result.rate_bits, 2
            )


def test_plan_sizes_subtables_with_the_shared_rule():
    for n in (10**3, 10**5):
        for b in (4, 8):
            result = plan(PlanRequest(n=n, block_size=b))
            assert result.num_subtables == planner.subtables_for_load(
                n, b, result.fingerprint_bits, result.load_factor
            )
    # a subnormal load passes check_load, but n / (slots * load) would be infinite
    with pytest.raises(InfeasiblePlanError, match="subtables the wire format holds"):
        planner.subtables_for_load(100, 4, 8, 1e-320)
    with pytest.raises(ValueError, match="load"):
        planner.subtables_for_load(100, 4, 8, 0.0)


def test_plan_respects_target_rate():
    result = plan(PlanRequest(n=10**4, block_size=8, target_fp_rate=1e-6))
    assert result.rate_bits >= result.balance_bits
    assert result.fingerprint_bits == result.rate_bits
    assert result.fp_bound <= 1e-6


def test_plan_infeasible_cases():
    with pytest.raises(InfeasiblePlanError):
        plan(PlanRequest(n=100, block_size=2))  # achievable slack above 1/2
    with pytest.raises(InfeasiblePlanError):
        plan(PlanRequest(n=100, block_size=3))
    with pytest.raises(InfeasiblePlanError):
        plan(PlanRequest(n=100, block_size=4, load_slack=0.05))  # b below min
    with pytest.raises(InfeasiblePlanError):
        plan(PlanRequest(n=10**6, block_size=8, target_fp_rate=1e-12))  # f > 32


@pytest.mark.parametrize(
    "request_, reason",
    [
        (PlanRequest(n=100, load_slack=1e-300), "block size 2253"),  # delta**4 underflows
        (PlanRequest(n=100, load_slack=5e-324), "block size"),
        (PlanRequest(n=100, block_size=8, failure_exponent=1e308), "balance bound needs inf"),
        (PlanRequest(n=100, block_size=8, target_fp_rate=1e-320), "rate bound needs inf"),
        (PlanRequest(n=2**70, block_size=8), "subtables"),
        (PlanRequest(n=2**2000, block_size=255, load_slack=0.1), "subtables"),
    ],
    ids=["slack-1e-300", "slack-subnormal", "s-1e308", "fp-rate-1e-320", "n-2^70", "n-2^2000"],
)
def test_plan_refuses_extreme_requests_before_overflow(request_, reason):
    with pytest.raises(InfeasiblePlanError, match=reason):
        plan(request_)


def test_plan_explicit_slack_overrides_block_derivation():
    result = plan(PlanRequest(n=10**4, block_size=12, load_slack=0.2))
    assert result.block_size == 12
    assert result.load_slack == 0.2
    assert result.load_factor == pytest.approx(1 - 0.2 - 0.2**2)


def test_planned_bound_tightens_with_exponent():
    weak = plan(PlanRequest(n=10**5, block_size=8, failure_exponent=1.0))
    strong = plan(PlanRequest(n=10**5, block_size=8, failure_exponent=3.0))
    assert strong.fingerprint_bits >= weak.fingerprint_bits
    assert strong.balance_bits > weak.balance_bits
