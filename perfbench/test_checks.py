"""The benchmark's correctness checks must turn a wrong answer into a failed run.

    python3 -m pytest perfbench/test_checks.py -q
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import batch_scan  # noqa: E402
import construction  # noqa: E402
import point_churn  # noqa: E402
import run as bench  # noqa: E402
from common import KeyStream  # noqa: E402
from sckf import CuckooFilter  # noqa: E402
from sckf.hashing import encode_u64  # noqa: E402

SEED = 7


def _forget_one_member(monkeypatch):
    """Make query answer False for the first set-up member it finds present."""
    keys = KeyStream(SEED)
    members = {encode_u64(keys.member(i)) for i in range(point_churn.LIVE_KEYS)}
    original = CuckooFilter.query
    flipped = []

    def query(self, element):
        answer = original(self, element)
        if answer and not flipped and element in members:
            flipped.append(element)
            return False
        return answer

    monkeypatch.setattr(CuckooFilter, "query", query)
    return flipped


def test_point_churn_passes_on_the_library_as_is():
    run = point_churn.measure(point_churn.setup(SEED), units=2 * point_churn.BATCH_EVERY)
    assert run.attempted > point_churn.LIVE_KEYS
    assert run.failed == 0, run.problems


def test_point_churn_catches_one_false_negative(monkeypatch):
    state = point_churn.setup(SEED)
    flipped = _forget_one_member(monkeypatch)
    run = point_churn.measure(state, units=point_churn.BATCH_EVERY)
    assert flipped
    assert run.failed >= 1
    assert any("false negative" in problem or "query_many" in problem for problem in run.problems)


def test_whole_run_fails_and_says_so(monkeypatch, capsys):
    _forget_one_member(monkeypatch)
    code = bench.main(["--workload", "point_churn", "--seed", str(SEED), "--seconds", "0.2"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_batch_scan_passes_and_catches_a_wrong_batch_answer(monkeypatch):
    state = batch_scan.setup(SEED)
    run = batch_scan.measure(state, units=1)
    assert run.failed == 0, run.problems

    original = CuckooFilter.query_many

    def query_many(self, values):
        answers = original(self, values)
        if len(answers):
            answers[0] = not answers[0]
        return answers

    monkeypatch.setattr(CuckooFilter, "query_many", query_many)
    run = batch_scan.measure(state, units=1)
    assert run.failed >= 1


def test_batch_scan_catches_a_lossy_round_trip(monkeypatch):
    state = batch_scan.setup(SEED)
    original = CuckooFilter.to_bytes
    monkeypatch.setattr(CuckooFilter, "to_bytes", lambda self: original(self)[:-1] + b"\x01")
    run = batch_scan.measure(state, units=1)
    assert any("to_bytes" in problem for problem in run.problems)


def test_construction_checks_output_against_recorded_digests():
    digests = construction.load_digests()
    tampered = {name: dict(by_seed) for name, by_seed in digests.items()}
    tampered["failsweep-f5"]["0"] = "0" * 64
    run = construction.measure(construction.State(tampered, first_seed=0), units=1)
    assert run.attempted == len(construction.EXPERIMENTS)
    assert run.failed == 1
    assert "failsweep-f5 --seed 0" in run.problems[0]


def test_digests_cover_every_cli_seed():
    digests = construction.load_digests()
    for name in construction.EXPERIMENTS:
        assert sorted(map(int, digests[name])) == list(range(construction.CLI_SEEDS))


def test_key_streams_are_disjoint_and_seeded():
    a, b = KeyStream(1), KeyStream(2)
    members = {a.member(i) for i in range(1000)}
    assert len(members) == 1000
    assert not members & {a.absent(i) for i in range(1000)}
    assert [a.member(i) for i in range(5)] != [b.member(i) for i in range(5)]
