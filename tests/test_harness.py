"""Experiment harness: record plumbing and small-scale runs of each experiment."""

import csv
import io
import json

import pytest

from sckf import harness
from sckf.filter import Variant
from sckf.harness import TrialRecord


def record(**overrides) -> TrialRecord:
    defaults = dict(
        experiment="fprate", variant="simplified", n=100, b=4, f=8,
        num_subtables=1, stash_capacity=0, seed=3, trials=1000,
        successes=990, measured=0.01, bound=0.02, wall_time_s=1.25,
    )
    defaults.update(overrides)
    return TrialRecord(**defaults)


def test_record_validation():
    record(successes=0)
    record(successes=1000)
    with pytest.raises(ValueError):
        record(successes=1001)
    with pytest.raises(ValueError):
        record(successes=-1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: harness.run_load_sweep(100, 4, 8, [0.5], 0),
        lambda: harness.run_load_sweep(100, 4, 8, [0.5], -1),
        lambda: harness.run_failure_sweep(100, 4, 0.5, [8], 0),
        lambda: harness.run_variant_compare(100, 4, 8, 1, 0),
        lambda: harness.run_fp_experiment(100, 4, 8, 1, 0, [0]),
        lambda: harness.bloom_baseline_rate(100, 1000, 0, 0),
        lambda: record(trials=-1, successes=0),
    ],
    ids=["loadsweep", "loadsweep-negative", "failsweep", "compare", "fprate", "bloom", "record"],
)
def test_runners_refuse_counts_below_one(call):
    with pytest.raises(ValueError):
        call()


def test_sort_is_total_and_stable():
    records = [
        record(seed=2), record(seed=0, experiment="loadsweep[0.9]"),
        record(seed=1), record(seed=0),
    ]
    ordered = harness.sort_records(records)
    keys = [r.sort_key() for r in ordered]
    assert keys == sorted(keys)
    assert ordered[0].experiment == "fprate"


def test_csv_round_trip_drops_wall_time():
    records = harness.sort_records([record(seed=s, wall_time_s=9.9) for s in range(3)])
    out = io.StringIO()
    harness.write_csv(records, out)
    text = out.getvalue()
    assert "wall_time" not in text
    assert text.endswith("\n")
    reader = csv.DictReader(io.StringIO(text))
    assert reader.fieldnames == harness.CSV_FIELDS
    assert list(reader) == [
        {name: str(getattr(original, name)) for name in harness.CSV_FIELDS}
        for original in records
    ]


def test_json_output_is_sorted_and_time_free():
    records = [record(seed=1), record(seed=0)]
    out = io.StringIO()
    harness.write_json(records, out)
    loaded = json.loads(out.getvalue())
    assert [row["seed"] for row in loaded] == [0, 1]
    assert all("wall_time_s" not in row for row in loaded)


def test_render_both_formats():
    records = [record()]
    assert harness.render(records, "csv").startswith("experiment,")
    assert json.loads(harness.render(records, "json"))[0]["n"] == 100
    with pytest.raises(ValueError):
        harness.render(records, "tsv")


def test_member_and_probe_values_are_disjoint():
    members = harness.member_values(1000)
    probes = harness.probe_values(1000, 5000)
    assert len(members) == 1000 and len(probes) == 5000
    assert int(members.max()) < int(probes.min())


def test_insert_members_reports_count():
    filt = harness.build_filter(
        n=500, block_size=4, fingerprint_bits=10, num_subtables=1, seed=0
    )
    assert harness.insert_members(filt, 500) == 500
    assert filt.stored_count == 500


def test_subtables_for_load():
    # n / (subtables * 2^f * b) must not exceed the target load
    for n, b, f, load in [(10**4, 4, 8, 0.9), (10**5, 8, 10, 0.5), (100, 4, 12, 0.3)]:
        subtables = harness.subtables_for_load(n, b, f, load)
        assert n / (subtables * (1 << f) * b) <= load * (1 + 1e-12)
        if subtables > 1:
            assert n / ((subtables - 1) * (1 << f) * b) > load


def test_fp_experiment_records():
    records = harness.run_fp_experiment(
        n=2000, block_size=4, fingerprint_bits=12, num_subtables=1,
        queries=20000, seeds=range(3),
    )
    assert len(records) == 3
    assert [r.seed for r in records] == [0, 1, 2]
    for r in records:
        assert r.experiment == "fprate"
        assert r.trials == 20000
        assert r.measured == r.successes / r.trials
        assert r.bound > 0
        assert r.measured <= 2 * r.bound + 5e-3  # slack for a tiny sample
        assert r.wall_time_s > 0


def test_fp_experiment_identical_reruns():
    kwargs = dict(
        n=1000, block_size=4, fingerprint_bits=10, num_subtables=1,
        queries=5000, seeds=[4, 2],
    )
    first = harness.run_fp_experiment(**kwargs)
    second = harness.run_fp_experiment(**kwargs)
    assert harness.render(first, "csv") == harness.render(second, "csv")


def test_fp_experiment_records_construction_failure():
    # 500 elements into 512 one-slot cells: far beyond what width-1 blocks
    # can fill, so construction fails and the record carries zero trials
    records = harness.run_fp_experiment(
        n=500, block_size=1, fingerprint_bits=9, num_subtables=1,
        queries=1000, seeds=[0],
    )
    assert records[0].trials == 0
    assert records[0].successes == 0
    assert records[0].measured == 0.0


def test_load_sweep_embeds_load_in_name():
    records = harness.run_load_sweep(
        n=3000, block_size=8, fingerprint_bits=12, loads=[0.5, 0.8], trials=5
    )
    names = {r.experiment for r in records}
    assert names == {"loadsweep[0.5]", "loadsweep[0.8]"}
    for r in records:
        assert r.trials == 5
        assert 0 <= r.successes <= 5
        low = next(r for r in records if r.experiment == "loadsweep[0.5]")
        assert low.successes == 5  # comfortably under the guaranteed load


def test_failure_sweep_shape():
    # recommended width at n=4000, b=4 is 9 bits; 3 is far below, 10 clears it
    records = harness.run_failure_sweep(
        n=4000, block_size=4, load=0.9, fingerprint_grid=[3, 10], trials=10
    )
    assert [r.f for r in records] == [3, 10]
    narrow, wide = records
    assert narrow.measured >= wide.measured
    assert wide.bound == pytest.approx(4000**-1.0)
    assert narrow.bound == 1.0  # below the recommended width: no guarantee
    assert all(r.measured == 1 - r.successes / r.trials for r in records)


def test_variant_compare_runs_both():
    records = harness.run_variant_compare(
        n=2000, block_size=4, fingerprint_bits=10, num_subtables=2, trials=4
    )
    assert {r.variant for r in records} == {"simplified", "original"}
    for r in records:
        assert r.successes == 4  # load is low, both variants must build


def test_variant_compare_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        harness.run_variant_compare(
            n=2000, block_size=4, fingerprint_bits=10, num_subtables=3, trials=2
        )


def test_bloom_baseline_record():
    r = harness.bloom_baseline_rate(n=2000, num_bits=20000, queries=50000, seed=0)
    assert r.experiment == "bloom"
    assert r.bound == pytest.approx(2.0 ** -harness.bloom.hash_count_for(20000, 2000))
    assert 0.2 * r.bound < r.measured < 5 * r.bound
    with pytest.raises(ValueError):
        harness.bloom_baseline_rate(n=2000, num_bits=2000, queries=100, seed=0)


def test_next_power_of_two():
    assert harness._next_power_of_two(1) == 1
    assert harness._next_power_of_two(2) == 2
    assert harness._next_power_of_two(3) == 4
    assert harness._next_power_of_two(1000) == 1024
