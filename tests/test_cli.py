"""Command line surface: exit codes, output formats, reproducibility."""

import argparse
import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sckf import bitmatch, cli, planner
from sckf import filter as filter_module
from sckf.filter import (
    CuckooFilter,
    check_block_size,
    check_count,
    check_stash_capacity,
    check_subtables,
)


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_plan_text_output(capsys):
    code, out, err = run(["plan", "--n", "100000", "--b", "8"], capsys)
    assert code == 0
    assert "fingerprint bits   16" in out
    assert "subtables          1" in out
    assert "fp bound" in out
    assert err == ""


def test_plan_json_output(capsys):
    code, out, _ = run(["plan", "--n", "100000", "--b", "8", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["fingerprint_bits"] == 16
    assert payload["num_subtables"] == 1
    assert payload["n"] == 100000


def test_plan_warning_is_visible(capsys):
    code, out, _ = run(["plan", "--n", "100000", "--b", "4"], capsys)
    assert code == 0
    assert "warning" in out.lower()


def test_plan_infeasible_exits_two(capsys):
    code, _, err = run(["plan", "--n", "100", "--b", "2"], capsys)
    assert code == 2
    assert "infeasible" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "--n", "100", "--b", "8", "--s", "1e308"],
        ["plan", "--n", "100", "--delta", "1e-300"],
        ["plan", "--n", "100", "--delta", "1e-80"],
        ["plan", "--n", "100", "--b", "8", "--target-fp-rate", "1e-320"],
        # more subtables than the wire format's u32 count, and an n past float range
        ["plan", "--n", str(2**70), "--b", "8"],
        ["plan", "--n", str(2**2000), "--b", "255", "--delta", "0.1"],
        # a subnormal load passes check_load but sizes more subtables than the u32 count
        ["loadsweep", "--n", "100", "--b", "4", "--f", "8", "--loads", "1e-320", "--trials", "1"],
        ["failsweep", "--n", "100", "--b", "4", "--load", "1e-320", "--fgrid", "8", "--trials", "1"],
        # more cells than sys.maxsize: refused before any table is allocated
        ["fprate", "--n", "100", "--b", "4", "--f", "32", "--subtables", "4294967295",
         "--queries", "10"],
    ],
    ids=["s-1e308", "delta-1e-300", "delta-1e-80", "fp-rate-1e-320", "n-2^70", "n-2^2000",
         "loadsweep-1e-320", "failsweep-1e-320", "fprate-cells-past-maxsize"],
)
def test_extreme_plan_exits_two(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("infeasible:") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["failsweep", "--n", "5", "--fgrid", "32", "--trials", "1"],
        ["compare", "--n", "10", "--f", "32", "--subtables", "1", "--trials", "1"],
        ["loadsweep", "--n", "5", "--f", "32", "--loads", "1", "--trials", "1"],
    ],
    ids=["failsweep", "compare", "loadsweep"],
)
def test_table_too_large_for_memory_exits_two(argv, capsys, monkeypatch):
    # f=32 asks for 2^32 cells; the constructor raises as the allocation would
    def refuse(self, params):
        raise MemoryError

    monkeypatch.setattr(CuckooFilter, "__init__", refuse)
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == "infeasible: the experiment does not fit in memory\n"


def test_table_past_physical_memory_exits_two(capsys, monkeypatch):
    # 10^9 cells on a 1 GiB machine: refused before the cell list is built
    pages = {"SC_PHYS_PAGES": 1 << 18, "SC_PAGE_SIZE": 1 << 12}
    monkeypatch.setattr(filter_module.os, "sysconf", pages.__getitem__)
    assert planner.subtables_for_load(100, 1, 2, 1e-7) * 4 == 10**9
    code, out, err = run(["loadsweep", "--n", "100", "--b", "1", "--f", "2", "--loads", "1e-7",
                          "--trials", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err == "infeasible: the experiment does not fit in memory\n"


def _flag(values):
    """Absent, in range, or anything at all (NaN, infinities, subnormals)."""
    return st.one_of(st.none(), values, st.floats(), st.integers())


@settings(max_examples=400, deadline=None)
@given(
    n=st.one_of(st.integers(min_value=2, max_value=10**9), st.integers(max_value=2**3000)),
    b=st.one_of(st.integers(min_value=1, max_value=255), st.none(), st.integers()),
    delta=_flag(st.floats(min_value=0.0, max_value=0.5)),
    s=_flag(st.floats(min_value=1.0)),
    rate=_flag(st.floats(min_value=0.0, max_value=1.0)),
)
def test_plan_exits_with_a_contract_code(n, b, delta, s, rate):
    argv = ["plan", f"--n={n}"]
    for flag, value in (("--b", b), ("--delta", delta), ("--s", s), ("--target-fp-rate", rate)):
        if value is not None:
            argv.append(f"{flag}={value}")
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        assert exc.code == 1
    else:
        assert code in (0, 2)


def test_usage_error_exits_one(capsys):
    # argparse raises SystemExit on usage errors; the code must be 1
    bad = (
        ["plan"],
        ["plan", "--n", "100", "--bogus"],
        ["nonsense"],
        ["loadsweep", "--n", "100", "--f", "8", "--loads", "0.5,abc"],
        ["failsweep", "--n", "100", "--fgrid", "2,x"],
        ["fprate", "--n", "100", "--f", "8", "--queries", "0"],
        ["fprate", "--n", "100", "--f", "8", "--seeds", "0"],
        ["loadsweep", "--n", "100", "--f", "8", "--trials", "0"],
        ["failsweep", "--n", "100", "--trials", "0"],
        ["compare", "--n", "100", "--f", "8", "--trials", "0"],
        ["bloom", "--n", "10", "--bits", "100", "--queries", "0"],
        ["fprate", "--n", "100", "--f", "8", "--b", "0"],
        ["fprate", "--n", "0", "--f", "8"],
        ["fprate", "--n", "100", "--f", "1"],
        ["fprate", "--n", "100", "--f", "33"],
        ["compare", "--n", "100", "--f", "8", "--subtables", "0"],
        # more subtables than the wire format's u32 count
        ["compare", "--n", "100", "--f", "8", "--subtables", str(2**32)],
        ["fprate", "--n", "100", "--f", "8", "--subtables", str(2**32)],
        # loadsweep sizes the table per target load, so it takes no --subtables
        ["loadsweep", "--n", "500", "--f", "8", "--loads", "0.5,0.9", "--trials", "3",
         "--subtables", "7"],
        ["fprate", "--n", "100", "--f", "8", "--variant", "bogus"],
        ["failsweep", "--n", "100", "--fgrid", "1"],
        ["failsweep", "--n", "100", "--fgrid", "2,33"],
        ["fprate", "--n", "100", "--f", "8", "--queries", "10", "--seeds", "1", "--trials", "7"],
        ["loadsweep", "--n", "100", "--f", "8", "--loads", ","],
        ["failsweep", "--n", "100", "--fgrid", ","],
        ["plan", "--n", "100", "--b", "0"],
        ["bloom", "--n", "0", "--bits", "100"],
        ["fprate", "--n", "100", "--f", "8", "--stash", "-1"],
        ["fprate", "--n", "100", "--f", "8", "--stash", "65536"],
        ["loadsweep", "--n", "100", "--f", "8", "--loads", "1.5"],
        ["loadsweep", "--n", "100", "--f", "8", "--loads", "0.5,0"],
        ["loadsweep", "--n", "100", "--f", "8", "--loads", "nan"],
        ["failsweep", "--n", "100", "--load", "0"],
        ["failsweep", "--n", "100", "--load", "1.01"],
        ["failsweep", "--n", "100", "--load", "nan"],
        ["fprate", "--n", "100", "--f", "8", "--b", "256"],
        ["plan", "--n", "100", "--b", "300"],
        ["bloom", "--n", "10", "--bits", "0"],
        ["plan", "--n", "100", "--b", "8", "--delta", "0.7"],
        ["plan", "--n", "100", "--b", "8", "--s", "0.5"],
        ["plan", "--n", "100", "--b", "8", "--s", "nan"],
        ["plan", "--n", "100", "--b", "8", "--s", "inf"],
        ["plan", "--n", "100", "--b", "8", "--target-fp-rate", "2"],
        ["plan", "--n", "100", "--b", "8", "--target-fp-rate", "nan"],
        ["plan", "--n", "100", "--delta", "nan"],
        ["plan", "--n", "1", "--b", "8"],
        ["plan", "--n", "0", "--b", "8"],
        # every experiment takes --n through planner.check_n, as plan does
        ["failsweep", "--n", "1"],
        ["fprate", "--n", "1", "--f", "8"],
        ["loadsweep", "--n", "1", "--f", "8"],
        ["compare", "--n", "1", "--f", "8"],
        ["bloom", "--n", "1", "--bits", "100"],
        # the lane-match loop oracle lives in the tests, so there is no selftest command
        ["selftest"],
    )
    for argv in bad:
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 1
        capsys.readouterr()


# flag: (library check, how the flag converts, edges: last in range, first out)
RANGED_FLAGS = {
    "--n": (planner.check_n, int, ["2", "1"]),
    "--b": (check_block_size, int, ["1", "0", "255", "256"]),
    "--f": (bitmatch.check_width, int, ["2", "1", "32", "33"]),
    "--fgrid": (bitmatch.check_width, int, ["2", "1", "32", "33"]),
    "--subtables": (check_subtables, int, ["1", "0", str(2**32 - 1), str(2**32)]),
    "--stash": (check_stash_capacity, int, ["0", "-1", "65535", "65536"]),
    "--trials": (lambda value: check_count(value, "trials"), int, ["1", "0"]),
    "--seeds": (lambda value: check_count(value, "seeds"), int, ["1", "0"]),
    "--queries": (lambda value: check_count(value, "queries"), int, ["1", "0"]),
    "--bits": (lambda value: check_count(value, "num_bits"), int, ["1", "0"]),
    "--load": (planner.check_load, float, ["1.0", "1.0000001", "5e-324", "0"]),
    "--loads": (planner.check_load, float, ["1.0", "1.0000001", "5e-324", "0"]),
    "--delta": (planner.check_load_slack, float, ["0.4999999", "0.5", "5e-324", "0"]),
    "--s": (planner.check_failure_exponent, float, ["1", "0.9999999", "1e308", "inf"]),
    "--target-fp-rate": (planner.check_fp_rate, float, ["0.9999999", "1", "5e-324", "0"]),
}
# the flags a subcommand requires, each set in range
REQUIRED = {"--n": "100", "--f": "8", "--bits": "1000"}


def _argvs(flag, value):
    """One argv per subcommand that takes ``flag``, its required flags in range."""
    commands = {name: flags.split() for name, (_, _, flags) in cli._EXPERIMENTS.items()}
    commands["plan"] = ["--n", "--b", "--delta", "--s", "--target-fp-rate"]
    return [
        [name, *(arg for need in REQUIRED if need in flags for arg in (need, REQUIRED[need])),
         flag, value]
        for name, flags in commands.items()
        if flag in flags
    ]


def test_every_ranged_flag_has_edges():
    assert set(cli._FLAGS) - set(RANGED_FLAGS) == {"--seed", "--variant"}


@pytest.mark.parametrize(
    "flag, value",
    [(flag, value) for flag, (_, _, edges) in RANGED_FLAGS.items() for value in edges],
)
def test_flag_refused_exactly_when_the_library_check_raises(flag, value):
    check, convert, _ = RANGED_FLAGS[flag]
    try:
        check(convert(value))
        refused = False
    except ValueError:
        refused = True
    argvs = _argvs(flag, value)
    assert argvs
    for argv in argvs:
        # parse only: a run at an upper edge would allocate 2^32 - 1 subtables
        if refused:
            with pytest.raises(SystemExit) as excinfo:
                cli._build_parser().parse_args(argv)
            assert excinfo.value.code == 1
        else:
            cli._build_parser().parse_args(argv)


# per experiment flag: values in range and values refused.  No table past a
# few million cells is really allocated: f <= 20, n <= 200, at most three
# subtables, and loads of 0.01 or more (1e-320 is refused before allocating)
EXPERIMENT_VALUES = {
    "--n": (["2", "5", "100", "200"], ["1", "-7", "x"]),
    "--b": (["1", "4", "255"], ["0", "256"]),
    "--f": (["2", "8", "20"], ["1", "33"]),
    "--subtables": (["1", "2", "3"], ["0", str(2**32)]),
    "--stash": (["0", "4", "65535"], ["65536", "-1"]),
    "--variant": (["simplified", "original"], ["bogus"]),
    "--trials": (["1", "2"], ["0"]),
    "--seeds": (["1", "2"], ["0"]),
    "--queries": (["1", "50"], ["0"]),
    "--loads": (["0.5", "1", "0.9,1", "0.01", "1e-320"], ["0,0.5", "nan", "2", ","]),
    "--load": (["0.9", "1", "0.5", "1e-320"], ["0", "1.01", "nan"]),
    "--fgrid": (["2,,4", "2", "8", "20", "2,20"], ["1", "33", ","]),
    "--bits": (["2", "100", "1000"], ["0"]),
    "--seed": (st.one_of(st.sampled_from([0, -1, 2**64 - 1, 2**64, -(2**64)]), st.integers()),
               ["x", "1.5"]),
}

# the required flags, and the counts whose defaults (100 trials, 10 seeds,
# 10^6 queries) would run for seconds
ALWAYS_SET = {"--n", "--f", "--bits", "--trials", "--seeds", "--queries"}


def test_experiment_values_cover_every_experiment_flag():
    flags = {flag for _, _, names in cli._EXPERIMENTS.values() for flag in names.split()}
    assert flags == set(EXPERIMENT_VALUES)


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(sorted(cli._EXPERIMENTS)), data=st.data())
def test_experiments_exit_with_a_contract_code(command, data):
    # every flag in range or absent (those in ALWAYS_SET present), except at
    # most one flag set to a refused value
    flags = cli._EXPERIMENTS[command][2].split()
    refused = data.draw(st.none() | st.sampled_from(flags), label="refused")
    argv = [command]
    for flag in flags:
        valid, out_of_range = EXPERIMENT_VALUES[flag]
        values = valid if isinstance(valid, st.SearchStrategy) else st.sampled_from(valid)
        if flag == refused:
            values = st.sampled_from(out_of_range)
        elif flag not in ALWAYS_SET:
            values = st.none() | values
        value = data.draw(values, label=flag)
        if value is not None:
            argv.append(f"{flag}={value}")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 1
        else:
            assert code in (0, 2)
    assert "Traceback" not in err.getvalue()


def _readme_cli_section() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def test_readme_cli_block_lists_every_subcommand():
    block = re.search(r"```sh\n(.*?)```", _readme_cli_section(), re.DOTALL).group(1)
    listed = {line.split()[1] for line in block.splitlines() if line.startswith("sckf ")}
    (subparsers,) = (
        action for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert listed == set(subparsers.choices)


def test_readme_flag_table_matches_each_experiment():
    rows = re.findall(r"^\| `(\w+)` +\| `([^`]*)` +\|$", _readme_cli_section(), re.MULTILINE)
    assert {command: flags.split() for command, flags in rows} == {
        command: flags.split() for command, (_, _, flags) in cli._EXPERIMENTS.items()
    }


def test_fprate_runs_are_byte_identical(capsys):
    argv = [
        "fprate", "--n", "1000", "--b", "4", "--f", "10",
        "--queries", "5000", "--seeds", "2",
    ]
    code, first, _ = run(argv, capsys)
    assert code == 0
    assert run(argv, capsys)[1] == first
    header, *rows = first.strip().splitlines()
    assert header.startswith("experiment,")
    assert len(rows) == 2


def test_fprate_writes_output_file(tmp_path, capsys):
    out_file = tmp_path / "records.csv"
    code, out, _ = run(
        ["fprate", "--n", "500", "--b", "4", "--f", "10", "--queries", "1000",
         "--seeds", "1", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    assert out_file.read_text().startswith("experiment,")


@pytest.mark.parametrize("target", ["directory", "missing-directory"])
def test_unwritable_out_exits_one(target, tmp_path, capsys):
    out_path = tmp_path if target == "directory" else tmp_path / "missing" / "records.csv"
    code, out, err = run(
        ["bloom", "--n", "10", "--bits", "100", "--queries", "10", "--out", str(out_path)],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("sckf: error:") and err.count("\n") == 1


def test_fprate_json_format(capsys):
    code, out, _ = run(
        ["fprate", "--n", "500", "--b", "4", "--f", "10", "--queries", "1000",
         "--seeds", "1", "--format", "json"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1 and rows[0]["experiment"] == "fprate"


# name: (SHA-256 of stdout, argv), recorded before the harness shared one
# trial loop; covers both variants, stash use, and a construction-failure row
GOLDEN_RUNS = {
    "loadsweep-simplified": (
        "4d6acf78599dc4f2e00c657d146709f5c308bfa2063aa96388685f09efbf4830",
        ["loadsweep", "--n", "2000", "--b", "4", "--f", "6", "--loads", "0.5,0.9,0.98",
         "--trials", "4"],
    ),
    "loadsweep-original": (
        "a796caffdb7b5afb88c411e0c148ca2ec83b1182713051542c6ba60d825fdcf7",
        ["loadsweep", "--n", "2000", "--b", "4", "--f", "6", "--loads", "0.5,0.9,0.98",
         "--trials", "4", "--variant", "original"],
    ),
    "failsweep": (
        "de021ce69b4dc043d42c08b8c214a29ea31ece5b8eb9a40d4f6d5fdc13dd67c5",
        ["failsweep", "--n", "2000", "--b", "4", "--load", "0.95", "--fgrid", "2,3,4,6,10",
         "--trials", "4", "--seed", "5"],
    ),
    "compare": (
        "3ee968b5bd6b98e5022b13c9ebcbf1ed8b6765463fdf12b468c65955ee8d7d80",
        ["compare", "--n", "2000", "--b", "4", "--f", "8", "--subtables", "2",
         "--trials", "4", "--seed", "3"],
    ),
    "fprate-stash-json": (
        "4174451086183b0d79044807825c05cda24443ee2ec2e4577afa538ea72ec0cf",
        ["fprate", "--n", "1010", "--b", "4", "--f", "8", "--queries", "5000", "--seeds", "2",
         "--seed", "1", "--stash", "2", "--format", "json"],
    ),
    "fprate-construction-failure": (
        "859aa92d84a6ea7b0115a668f7e3fd6dd547add2518d99766f5e3ea7227e8a31",
        ["fprate", "--n", "500", "--b", "1", "--f", "9", "--queries", "1000", "--seeds", "2"],
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_RUNS))
def test_output_matches_recorded_digest(name, capsys):
    digest, argv = GOLDEN_RUNS[name]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_loadsweep_smoke(capsys):
    code, out, _ = run(
        ["loadsweep", "--n", "2000", "--b", "8", "--f", "10",
         "--loads", "0.5,0.8", "--trials", "3"],
        capsys,
    )
    assert code == 0
    assert "loadsweep[0.5]" in out and "loadsweep[0.8]" in out


def test_failsweep_smoke(capsys):
    code, out, _ = run(
        ["failsweep", "--n", "2000", "--b", "4", "--load", "0.85",
         "--fgrid", "3,10", "--trials", "3"],
        capsys,
    )
    assert code == 0
    assert "failsweep" in out


def test_compare_smoke_and_geometry_error(capsys):
    code, out, _ = run(
        ["compare", "--n", "1000", "--b", "4", "--f", "10",
         "--subtables", "2", "--trials", "2"],
        capsys,
    )
    assert code == 0
    assert "original" in out and "simplified" in out
    code, _, err = run(
        ["compare", "--n", "1000", "--b", "4", "--f", "10",
         "--subtables", "3", "--trials", "2"],
        capsys,
    )
    assert code == 2
    assert "infeasible" in err


def test_bloom_smoke(capsys):
    code, out, _ = run(
        ["bloom", "--n", "1000", "--bits", "10000", "--queries", "20000"], capsys
    )
    assert code == 0
    assert "bloom" in out
    code, _, err = run(["bloom", "--n", "1000", "--bits", "100"], capsys)
    assert code == 2


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "sckf.cli", "plan", "--n", "1000", "--b", "8"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "fingerprint bits" in proc.stdout
    usage = subprocess.run(
        [sys.executable, "-m", "sckf.cli", "plan"], capture_output=True, text=True
    )
    assert usage.returncode == 1
