"""Command-line campaigns: argument handling, config merge, record and
summary output, determinism, exit codes."""

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlab import classes, cli, conjecture, cpr, heinz, matcore
from normlab.chains import ChainStack
from normlab.errors import ConfigInvalid, InvalidParams, IoFailure, UsageError
from normlab.norms import NormKind


def test_parse_basic_verify():
    cfg = cli.parse_args(["verify", "--suite", "cpr", "--dim", "4", "--count", "100", "--seed", "42"])
    assert cfg.command == "verify"
    assert cfg.suite == "cpr"
    assert cfg.dim == 4
    assert cfg.count == 100
    assert cfg.seed == 42
    assert cfg.norms == ("op", "tr", "fro")
    assert cfg.out == "results.jsonl"
    assert not cfg.no_timing


def test_parse_norm_list():
    cfg = cli.parse_args(["verify", "--suite", "heinz", "--norms", "op,tr,schatten:3"])
    assert cfg.norms == ("op", "tr", "schatten:3")


def test_parse_heinz_alpha_default():
    cfg = cli.parse_args(["verify", "--suite", "heinz"])
    assert cfg.r_values == cli.DEFAULT_ALPHAS
    cfg = cli.parse_args(["verify", "--suite", "zhan"])
    assert cfg.r_values == cli.DEFAULT_R


def test_parse_negative_t():
    cfg = cli.parse_args(["verify", "--suite", "zhan", "--t=-1,0,2"])
    assert cfg.t_values == (-1.0, 0.0, 2.0)


def test_missing_suite_is_usage_error():
    with pytest.raises(UsageError):
        cli.parse_args(["verify"])


def test_unknown_flag_is_usage_error():
    with pytest.raises(UsageError):
        cli.parse_args(["verify", "--suite", "cpr", "--bogus", "1"])


def test_dk_probe_requires_eigs():
    with pytest.raises(UsageError):
        cli.parse_args(["dk-probe", "--k", "1"])


def test_failed_parse_leaves_the_parser_as_it_was():
    # The parser is built once per process and shared by every parse.
    good = ["verify", "--suite", "zhan", "--dim", "4", "--t=-1,2", "--norms", "op,tr", "--no-timing"]
    alone = cli.parse_args(good)
    for bad in (["verify", "--suite", "zhan", "--dim", "four", "--t=0"], ["verify", "--bogus", "1"], ["nope"]):
        with pytest.raises(UsageError):
            cli.parse_args(bad)
        assert cli.parse_args(good) == alone
    assert cli._build_parser() is cli._build_parser()


def test_invalid_configs_rejected():
    cases = [
        ["verify", "--suite", "nope"],
        ["verify", "--suite", "cpr", "--dim", "13"],
        ["verify", "--suite", "cpr", "--dim", "1"],
        ["verify", "--suite", "cpr", "--count", "0"],
        ["verify", "--suite", "cpr", "--tol", "0"],
        ["verify", "--suite", "cpr", "--cond", "0.5"],
        ["verify", "--suite", "cpr", "--norms", "schatten:0.2"],
        ["verify", "--suite", "zhan", "--t", "3"],
        ["verify", "--suite", "zhan", "--r", "0.2"],
        ["verify", "--suite", "heinz", "--r", "1.2"],
        ["verify", "--suite", "finalcor", "--p", "0.5"],
        ["verify", "--suite", "dk", "--k", "-1"],
        ["dk-probe", "--eigs", "1,0,2"],
        ["conjecture", "--n", "13"],
        ["conjecture", "--k", "2.5"],
    ]
    for argv in cases:
        with pytest.raises(ConfigInvalid):
            cli.parse_args(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "heinz", "--tol", "nan"],
        ["verify", "--suite", "heinz", "--tol", "inf"],
        ["verify", "--suite", "heinz", "--cond", "nan"],
        ["verify", "--suite", "heinz", "--cond", "inf"],
        ["verify", "--suite", "zhan", "--t=nan"],
        ["verify", "--suite", "cor23", "--t=-inf"],
        ["verify", "--suite", "zhan", "--r", "nan"],
        ["verify", "--suite", "dk", "--k", "nan"],
        ["conjecture", "--k", "0,nan"],
        ["verify", "--suite", "finalcor", "--p", "inf"],
        ["dk-probe", "--eigs", "1,nan"],
        ["dk-probe", "--eigs", "1,inf"],
    ],
    ids=" ".join,
)
def test_non_finite_config_values_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "out.jsonl"
    assert cli.main([*argv, "--count", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "heinz", "--seed", "-5"],
        ["verify", "--suite", "dk", "--seed", "-1"],
        ["conjecture", "--n", "4", "--seed", "-1"],
        ["dk-probe", "--eigs", "1,2", "--seed", "-1"],
    ],
    ids=" ".join,
)
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    # No stream takes a negative seed.  Exit 1 means a failing theorem
    # record, so the seed is refused as configuration before any sampling.
    out = tmp_path / "out.jsonl"
    assert cli.main([*argv, "--count", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"invalid configuration: --seed must be >= 0, got {argv[-1]}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command", [["verify", "--suite", "cpr"], ["conjecture"], ["dk-probe", "--eigs", "1,2"]], ids=" ".join
)
def test_negative_seed_in_config_file_exits_2(tmp_path, capsys, command):
    # A config file's seed is read as the flag it stands for.
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"seed": -1}))
    out = tmp_path / "out.jsonl"
    assert cli.main([*command, "--config", str(path), "--count", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "invalid configuration: --seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("suite", ["heinz", "zhan", "cor24", "dk"])
def test_cond_beyond_kernel_tolerance_exits_2(tmp_path, capsys, suite):
    # Past 1 / POSDEF_RTOL the sampled matrices fail the kernels' positive
    # definiteness and singularity checks, so the bound is a config error.
    out = tmp_path / "out.jsonl"
    argv = ["verify", "--suite", suite, "--dim", "4", "--count", "5", "--seed", "3", "--cond", "2e12"]
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid configuration: --cond" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("suite", ["heinz", "zhan", "cpr"])
def test_kyfan_k_past_the_dimension_exits_2(tmp_path, capsys, suite):
    # A Ky Fan k beyond the --dim singular values of each matrix has no
    # norm to stand for; norms_from_sv owns the bound and the CLI calls it.
    argv = ["verify", "--suite", suite, "--dim", "3", "--count", "1", "--no-timing"]
    out = tmp_path / "past.jsonl"
    assert cli.main([*argv, "--norms", "op,kyfan:99", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "invalid configuration: Ky Fan k must be at most the dimension 3, got 99\n"
    assert not out.exists()
    out = tmp_path / "at.jsonl"
    assert cli.main([*argv, "--norms", "kyfan:3", "--out", str(out)]) == 0
    assert {json.loads(line)["norm"] for line in out.read_text().splitlines()} == {"kyfan:3"}


@pytest.mark.parametrize("command", ["verify --suite dk --dim 3", "dk-probe --eigs 1,2,-3"])
def test_k_beyond_probe_bound_exits_2(tmp_path, capsys, command):
    # Past classes.DK_K_MAX rounding alone would decide the probe's verdict,
    # and k = 1e308 overflows the descent; both are config errors.
    argv = [*command.split(), "--count", "1", "--starts", "2", "--iters", "3", "--no-timing"]
    for k in ("1e12", "1e308"):
        out = tmp_path / f"{k}.jsonl"
        assert cli.main([*argv, "--k", k, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: k must be in [0, 1000]") and err.count("\n") == 1, err
        assert not out.exists()
    out = tmp_path / "bound.jsonl"
    assert cli.main([*argv, "--k", repr(classes.DK_K_MAX), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text().splitlines()[0])["params"]["k"] == classes.DK_K_MAX


def test_subcommands_pin_suite():
    cfg = cli.parse_args(["conjecture", "--n", "2"])
    assert cfg.suite == "conjecture"
    cfg = cli.parse_args(["dk-probe", "--eigs", "1,2"])
    assert cfg.suite == "dk"
    assert cfg.count == cli.DEFAULT_DK_COUNT


def test_config_file_merge_and_override(tmp_path):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"suite": "heinz", "dim": 2, "count": 7, "norms": ["op"]}))
    cfg = cli.parse_args(["verify", "--config", str(path)])
    assert cfg.suite == "heinz"
    assert cfg.count == 7
    assert cfg.norms == ("op",)
    # Explicit flags beat the file.
    cfg = cli.parse_args(["verify", "--config", str(path), "--count", "3"])
    assert cfg.count == 3


def test_config_file_errors(tmp_path):
    bad_key = tmp_path / "bad.json"
    bad_key.write_text(json.dumps({"suite": "heinz", "depth": 4}))
    with pytest.raises(ConfigInvalid):
        cli.parse_args(["verify", "--config", str(bad_key)])

    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    with pytest.raises(ConfigInvalid):
        cli.parse_args(["verify", "--config", str(not_json)])

    not_obj = tmp_path / "list.json"
    not_obj.write_text("[1, 2]")
    with pytest.raises(ConfigInvalid):
        cli.parse_args(["verify", "--config", str(not_obj)])

    with pytest.raises(IoFailure):
        cli.parse_args(["verify", "--config", str(tmp_path / "absent.json")])


@pytest.mark.parametrize(
    "entry",
    [
        {"tol": "abc"},
        {"cond": [1]},
        {"dim": 3.5},
        {"starts": 2.9},
        {"count": True},
        {"seed": 1e30},
        {"no_timing": "false"},
        {"norms": [["op"]]},
        {"t": {"a": 1}},
        {"suite": ["cpr"]},
        {"suite": False},
        {"out": True},
    ],
    ids=json.dumps,
)
def test_config_value_of_wrong_type_exits_2(tmp_path, capsys, entry):
    # A file value takes the path of the same value on the command line, so
    # a value argv would refuse is refused, never read as something else.
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"suite": "cpr", **entry}))
    out = tmp_path / "out.jsonl"
    assert cli.main(["verify", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid configuration: config file {path}: ") and err.count("\n") == 1, err
    assert not out.exists()


# (command, config file, the same flags on the command line).  Together the
# cases name every config key.
_FILE_AS_FLAGS = [
    (
        "verify",
        {"suite": "zhan", "dim": 4, "count": 5, "seed": 9, "norms": ["op", "schatten:3"], "tol": 1e-6, "cond": 50},
        "--suite zhan --dim 4 --count 5 --seed 9 --norms op,schatten:3 --tol 1e-6 --cond 50",
    ),
    (
        "verify",
        {"suite": "zhan", "t": [-1, 0.5], "r": [0.5, 1.5], "out": "x.jsonl", "no_timing": True},
        "--suite zhan --t=-1,0.5 --r 0.5,1.5 --out x.jsonl --no-timing",
    ),
    (
        "verify",
        {"suite": "finalcor", "p": [1, 2.5], "k": "0,1", "no_timing": False},
        "--suite finalcor --p 1,2.5 --k 0,1",
    ),
    (
        "verify",
        {"suite": "dk", "eigs": [1, -2], "starts": 3, "iters": 7, "k": 0.5, "tol": None},
        "--suite dk --eigs=1,-2 --starts 3 --iters 7 --k 0.5",
    ),
    ("verify", {"suite": "cpr", "t": "-1,0", "no_timing": None, "count": None}, "--suite cpr --t=-1,0"),
    # Keys the command does not take are skipped.
    ("conjecture", {"n": 4, "k": [0, 1], "count": 2, "dim": 5, "suite": "heinz", "p": [9]}, "--n 4 --k 0,1 --count 2"),
    ("dk-probe", {"eigs": "1,2", "k": [1], "seed": 3, "norms": None, "t": "nope"}, "--eigs 1,2 --k 1 --seed 3"),
]


@pytest.mark.parametrize("command, entries, flags", _FILE_AS_FLAGS)
@pytest.mark.parametrize("extra", ["", "--count 3 --k=2 --no-timing --seed 4"], ids=["file", "argv-wins"])
def test_config_file_reads_as_its_flags(tmp_path, command, entries, flags, extra):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(entries))
    from_file = cli.parse_args([command, "--config", str(path), *extra.split()])
    assert from_file == cli.parse_args([command, *flags.split(), *extra.split()])


def test_config_file_cases_name_every_key():
    assert {key for _, entries, _ in _FILE_AS_FLAGS for key in entries} == set(cli._FLAGS) - {"config"}


_FILE_VALID = {
    "suite": ["heinz", "cpr", "finalcor", "dk", "conjecture"],
    "dim": [2, "3"],
    "count": [1],
    "seed": [0, 7, "3"],
    "norms": ["op", ["op", "tr"]],
    "tol": [1e-8, "1e-6"],
    "cond": [10, 100.0],
    "t": [[-1, 0.5], "0"],
    "r": [[0.5, 1], 0.75],
    "k": [[0, 1], 0.5],
    "p": [[1, 3], 2],
    "n": [2, 3],
    "eigs": [[1, -2], "1,2"],
    "starts": [2],
    "iters": [2],
    "out": ["ignored.jsonl"],
    "no_timing": [True, False],
}
_FILE_WRONG = ["abc", 2.5, True, [1], [[1]], {"a": 1}, None, float("nan")]


def _refused_unparsed(key, value):
    # A value no flag can stand for: an object, a nested list, a list for a
    # flag that takes no comma list, or a bool for a flag that is no switch.
    if isinstance(value, list):
        return cli._FLAGS[key][1] is not list or any(isinstance(v, list) for v in value)
    return isinstance(value, dict) or (isinstance(value, bool) and key != "no_timing")


@settings(max_examples=40, deadline=None)
@given(data=st.data(), keys=st.sets(st.sampled_from(sorted(_FILE_VALID)), max_size=6))
def test_config_file_cli_fuzz(data, keys):
    # Every config file ends in a documented exit code with no traceback:
    # 0 or 1 for a run, 2 for a refused value, 3 for a numerical failure, 4
    # for an I/O failure.  A file of valid values always runs, and a value
    # no flag can stand for is always refused.
    entries = {"suite": data.draw(st.sampled_from(_FILE_VALID["suite"]), label="suite")}
    wrong = data.draw(st.sets(st.sampled_from(sorted(keys | {"suite"})), max_size=2), label="wrong")
    for key in sorted(keys | {"suite"}):
        pool = _FILE_WRONG if key in wrong else _FILE_VALID[key]
        entries[key] = data.draw(st.sampled_from(pool), label=key)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        with open(tmp + "/c.json", "w", encoding="utf-8") as fh:
            json.dump(entries, fh)
        argv = ["verify", "--config", tmp + "/c.json", "--count", "1", "--starts", "2", "--iters", "2"]
        code = cli.main(argv + ["--out", tmp + "/v.jsonl"])
    assert "Traceback" not in err.getvalue(), entries
    if any(_refused_unparsed(key, entries[key]) for key in wrong):
        assert code == 2, (entries, err.getvalue())
    else:
        assert code in ({0, 1, 2, 3, 4} if wrong else {0, 1, 3}), (entries, err.getvalue())


def _verify_argv(out, extra=()):
    return [
        "verify",
        "--suite",
        "heinz",
        "--dim",
        "2",
        "--count",
        "1",
        "--r",
        "0.5",
        "--norms",
        "op",
        "--seed",
        "11",
        "--no-timing",
        "--out",
        str(out),
        *extra,
    ]


def test_verify_run_writes_records_and_summary(tmp_path):
    out = tmp_path / "heinz.jsonl"
    assert cli.main(_verify_argv(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["suite"] == "heinz"
    assert rec["norm"] == "op"
    assert rec["pass"] is True
    assert rec["wall_time"] == 0.0
    assert len(rec["values"]) == 5

    summary = (tmp_path / "heinz.jsonl.summary.csv").read_text().splitlines()
    assert summary[0] == "suite,norm,params,count,pass,fail,min_margin,min_eig"
    assert summary[1].startswith("heinz,op,")
    assert summary[1].endswith(",1,1,0,") is False  # min_margin column is filled


def test_verify_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert cli.main(_verify_argv(out1)) == 0
    assert cli.main(_verify_argv(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.jsonl.summary.csv").read_bytes() == (tmp_path / "b.jsonl.summary.csv").read_bytes()


def test_report_reproduces_summary(tmp_path):
    out = tmp_path / "run.jsonl"
    assert cli.main(_verify_argv(out)) == 0
    summary_path = tmp_path / "run.jsonl.summary.csv"
    original = summary_path.read_bytes()
    summary_path.unlink()
    assert cli.main(["report", "--out", str(out)]) == 0
    assert summary_path.read_bytes() == original


def test_report_rejects_records_that_are_not_objects(tmp_path, capsys):
    out = tmp_path / "list.jsonl"
    out.write_text('{"suite": "heinz", "pass": true}\n[1, 2]\n')
    with pytest.raises(IoFailure):
        cli._read_jsonl(str(out))
    assert cli.main(["report", "--out", str(out)]) == 4
    assert "io failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("count", "x"),
        ("count", True),
        ("pass_count", 1.5),
        ("fail_count", None),
        ("instance", "3"),
        ("min_margin", "0.1"),
        ("min_eig", [0.1]),
        ("margins", 0.1),
        ("margins", [0.1, None]),
        # Integers beyond the float range, which the summary cannot print.
        ("min_margin", int("1" * 400)),
        ("min_eig", -(10**400)),
        ("margins", [0.5, 2**1024]),
    ],
)
def test_report_rejects_fields_of_the_wrong_type(tmp_path, capsys, field, value):
    out = tmp_path / "bad.jsonl"
    good = {"suite": "cpr", "count": 2, "min_margin": None, "margins": [0.5, 1]}
    out.write_text(json.dumps(good) + "\n" + json.dumps({"suite": "cpr", field: value}) + "\n")
    assert cli.main(["report", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "io failure" in err
    assert "Traceback" not in err


def test_report_rejects_integers_past_the_digit_limit(tmp_path, capsys):
    # Python refuses to decode an integer literal of more than 4300 digits.
    out = tmp_path / "huge.jsonl"
    out.write_text('{"suite": "cpr", "min_eig": ' + "1" * 5000 + ', "margins": [1.0]}\n')
    assert cli.main(["report", "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith(f"io failure: {out} is not valid JSONL: Exceeds the limit")
    assert not (tmp_path / "huge.jsonl.summary.csv").exists()


_NORMS = ("op", "schatten:1")
# suite -> (extra flags, parameter points, records per instance, (norm,
# params) of the first instance's records in order).
_LAYOUTS = {
    "heinz": (["--r", "0.25,0.5"], 2, 2, [(nm, {"alpha": 0.25}) for nm in _NORMS]),
    "agm": ([], 1, 2, [(nm, {}) for nm in _NORMS]),
    "cpr": ([], 1, 6, [(nm, {"form": f}) for nm in _NORMS for f in ("cpr", "two_sided", "star")]),
    "zhan": (["--t=-1,2", "--r", "0.5,1.5"], 4, 2, [(nm, {"t": -1.0, "r": 0.5}) for nm in _NORMS]),
    "cor23": (["--t=0,1"], 2, 2, [(nm, {"t": 0.0}) for nm in _NORMS]),
    "cor24": (["--t=0,1"], 2, 2, [(nm, {"t": 0.0}) for nm in _NORMS]),
    "t2": ([], 1, 4, [(nm, {"form": f}) for nm in _NORMS for f in ("mos1", "mos2")]),
    "finalcor": (
        ["--p", "1,3"],
        1,
        3,
        [("op", {"form": "max"}), ("schatten:1", {"p": 1.0}), ("schatten:3", {"p": 3.0})],
    ),
    "characterizations": ([], 14, 2, [(nm, {"form": "ineq6"}) for nm in _NORMS]),
    "dk": (["--k", "0,1", "--starts", "1", "--iters", "2"], 2, 1, [("op", {"k": 0.0})]),
    "conjecture": (["--k", "0,1"], 2, 1, [("-", {"k": 0.0, "n": 3})]),
}


@pytest.mark.parametrize("suite", cli.SUITES)
def test_suite_record_layout(tmp_path, suite):
    extra, points, per_instance, first = _LAYOUTS[suite]
    out = tmp_path / f"{suite}.jsonl"
    argv = ["verify", "--suite", suite, "--dim", "2", "--count", "2", "--norms", ",".join(_NORMS)]
    assert cli.main([*argv, *extra, "--seed", "3", "--no-timing", "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    # The conjecture search writes one summary record per k, whatever the count.
    instances = points if suite == "conjecture" else points * 2
    assert len(records) == instances * per_instance
    assert [r["instance"] for r in records] == list(range(len(records)))
    assert all(r["suite"] == suite for r in records)
    assert [(r["norm"], r["params"]) for r in records[:per_instance]] == first


def test_conjecture_run(tmp_path):
    out = tmp_path / "conj.jsonl"
    argv = [
        "conjecture",
        "--n",
        "2",
        "--k",
        "0,1",
        "--count",
        "5",
        "--seed",
        "3",
        "--no-timing",
        "--out",
        str(out),
    ]
    assert cli.main(argv) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 2
    for rec in records:
        assert rec["suite"] == "conjecture"
        assert rec["count"] == 5
        assert rec["violations"] == 0
        assert "min_eig" in rec
    # Sink file is created (and empty when nothing is found).
    assert (tmp_path / "conj.jsonl.violations.jsonl").read_text() == ""
    summary = (tmp_path / "conj.jsonl.summary.csv").read_text().splitlines()
    assert len(summary) == 3
    for row in summary[1:]:
        assert row.split(",")[-1] != ""  # min_eig column filled


_FUZZ_K = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -1.0, -0.0, 2.5, 1e300]),
    st.floats(-1.0, 3.0),
)
# Half the --k lists lie in [0, 2], so runs are frequent, not only rejections.
_FUZZ_K_LIST = st.one_of(
    st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3),
    st.lists(_FUZZ_K, min_size=1, max_size=3),
)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(-2, 14), ks=_FUZZ_K_LIST, count=st.integers(-1, 4))
def test_conjecture_cli_fuzz(n, ks, count):
    # Every configuration ends in a documented exit code: 0 for a run, 2
    # for an out-of-range --n, --k or --count, 3 for a numerical failure.
    # None escapes as a traceback or a RuntimeWarning.
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        argv = ["conjecture", "--n", str(n), "--k=" + ",".join(map(repr, ks)), "--count", str(count)]
        code = cli.main(argv + ["--seed", "1", "--no-timing", "--out", tmp + "/conj.jsonl"])
    valid = 2 <= n <= 12 and count >= 1 and all(0.0 <= k <= 2.0 for k in ks)
    assert code in ({0, 3} if valid else {2}), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


_FUZZ_EIGS = st.lists(
    st.one_of(
        st.sampled_from([0.0, 1e-310, -1e-310, 1e300, -1e300, float("nan"), float("inf"), float("-inf")]),
        st.floats(-10.0, 10.0),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(eigs=_FUZZ_EIGS, k=st.sampled_from([float("nan"), float("inf"), -1.0, 0.0, 0.5, 2.0, 7.0, 1e308]))
def test_dk_probe_cli_fuzz(eigs, k):
    # Every spectrum and k ends in a documented exit code: 0 for a run, 2
    # for a zero or non-finite eigenvalue or a k outside [0, DK_K_MAX], 3
    # for a matrix the kernels reject (singular in floating point).  None
    # escapes as a traceback or a RuntimeWarning.
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        argv = ["dk-probe", "--eigs=" + ",".join(map(repr, eigs)), "--k=" + repr(k)]
        code = cli.main(argv + ["--count", "1", "--starts", "3", "--iters", "3", "--no-timing", "--out", tmp + "/dk.jsonl"])
    valid = all(np.isfinite(v) and v != 0.0 for v in eigs) and 0.0 <= k <= classes.DK_K_MAX
    assert code in ({0, 3} if valid else {2}), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


_NAN, _INF = float("nan"), float("inf")

# Theorem parameter -> (argv up to the parameter's flag, the flag's text for
# a value v, the library function that owns v's domain, the domain's
# finite bounds).
_OWNED = {
    "heinz alpha": ("verify --suite heinz --r", repr, heinz.require_alpha, (0.0, 1.0)),
    "zhan t": ("verify --suite zhan --t", repr, lambda t: cpr.ZhanParams(t, 1.0), (2.0,)),
    "cor23 t": ("verify --suite cor23 --t", repr, cpr.require_t, (2.0,)),
    "cor24 t": ("verify --suite cor24 --t", repr, cpr.require_t, (2.0,)),
    "zhan r": ("verify --suite zhan --r", repr, lambda r: cpr.ZhanParams(0.0, r), (0.5, 1.5)),
    "finalcor p": ("verify --suite finalcor --p", repr, NormKind.schatten, (1.0,)),
    "norms p": ("verify --suite agm --norms", lambda p: f"schatten:{p!r}", NormKind.schatten, (1.0,)),
    "probe k": ("verify --suite dk --k", repr, classes.require_probe_k, (0.0, classes.DK_K_MAX)),
    "dk-probe k": ("dk-probe --eigs 1,-2 --k", repr, classes.require_probe_k, (0.0, classes.DK_K_MAX)),
    "eigs": ("dk-probe --eigs", repr, lambda v: matcore.as_spectrum([v]), (0.0,)),
    "conjecture k": ("conjecture --k", repr, conjecture.require_k, (0.0, 2.0)),
}


def _near(bounds):
    """A bound, a float just past either side of one, NaN, +-inf or any float."""
    edges = [float(np.nextafter(b, side)) for b in bounds for side in (-_INF, _INF)]
    return st.one_of(st.sampled_from([*bounds, *edges, -0.0, _NAN, _INF, -_INF]), st.floats())


@pytest.mark.parametrize("param", sorted(_OWNED))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cli_refuses_a_parameter_exactly_when_its_owner_does(param, data):
    # The CLI restates no theorem domain: a value is a configuration error
    # (ConfigInvalid, exit 2) exactly when the library refuses it.
    head, text, owner, bounds = _OWNED[param]
    *argv, flag = head.split()
    value = data.draw(_near(bounds))
    try:
        owner(value)
        owner_refuses = False
    except InvalidParams:
        owner_refuses = True
    try:
        cli.parse_args([*argv, f"{flag}={text(value)}"])
        cli_refuses = False
    except ConfigInvalid:
        cli_refuses = True
    assert cli_refuses == owner_refuses, value
# flag -> (values valid for every suite, values out of range for some or all
# suites, non-finite or malformed).
_VERIFY_FUZZ = {
    "--suite": (list(cli.SUITES), ["nope"]),
    "--dim": ([2, 3], [-1, 1, 13]),
    "--count": ([1, 2], [-1, 0]),
    "--cond": ([1.0, 10.0, 1e12], [_NAN, _INF, -_INF, -1.0, 0.5, 1e13, 1e300]),
    "--t": ([-1e308, -1.0, 0.0, 0.5, 2.0], [_NAN, _INF, -_INF, 2.5, 1e300]),
    "--r": ([0.5, 1.0], [_NAN, -_INF, -1.0, 0.0, 2.0, 1e300]),
    "--k": ([0.0, 1.0, 2.0], [_NAN, _INF, -1.0, 2.5, 1e3, 1e12, 1e308]),
    "--p": ([1.0, 3.0], [_NAN, _INF, -1.0, 0.5, 1e300]),
    "--tol": ([1e-8, 1e308], [0.0, -1.0, _NAN, _INF]),
    "--norms": (
        ["op", "tr,fro", "schatten:3,kyfan:2"],
        ["kyfan:99", "kyfan:0", "schatten:0.5", "schatten:nan", "bogus"],
    ),
}
_LIST_FLAGS = ("--t", "--r", "--k", "--p")


@settings(max_examples=40, deadline=None)
@given(data=st.data(), bad=st.sets(st.sampled_from(sorted(_VERIFY_FUZZ)), max_size=2))
def test_verify_cli_fuzz(data, bad):
    # Every configuration ends in a documented exit code: 0 or 1 for a run
    # (1 when a theorem record fails), 2 for an invalid configuration, 3 for
    # a numerical failure, 4 for an I/O failure.  None escapes as a
    # traceback or a RuntimeWarning, and a configuration of valid values
    # always runs.  At most two flags take a bad value; the ratio probe runs
    # on a tiny budget.
    argv = ["verify"]
    for flag, (valid, invalid) in _VERIFY_FUZZ.items():
        value = data.draw(st.sampled_from(invalid if flag in bad else valid), label=flag)
        if flag in _LIST_FLAGS:
            value = ",".join(map(repr, [value, *data.draw(st.lists(st.sampled_from(valid), max_size=1))]))
        argv.append(f"{flag}={value}")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv + ["--starts", "2", "--iters", "2", "--no-timing", "--out", tmp + "/v.jsonl"])
    assert code in ({0, 1, 2, 3, 4} if bad else {0, 1, 3}), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


@pytest.mark.parametrize("suite", ["zhan", "cor23", "cor24"])
def test_extreme_t_is_one_non_finite_line(tmp_path, capfd, suite):
    # At t = -1e308 the quadratic weights overflow (zhan, cor23) or the norms
    # do (cor24).  A weighted matrix beyond the float range is refused before
    # LAPACK, which would print its argument errors on a standard stream.
    argv = ["verify", "--suite", suite, "--dim", "3", "--count", "1", "--t=-1e308", "--out", str(tmp_path / "v.jsonl")]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(argv) == 3
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith("numerical failure: NonFinite") and err.count("\n") == 1, err


def test_overflowing_chain_margin_is_one_non_finite_line(tmp_path, capfd):
    # At t = -1e306 the zhan chain members stay finite, near the float
    # range, but a margin between two of them overflows.
    out = tmp_path / "v.jsonl"
    argv = ["verify", "--suite", "zhan", "--dim", "5", "--count", "3", "--t=-1e306", "--seed", "0", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(argv) == 3
    stdout, err = capfd.readouterr()
    assert stdout == "" and not out.exists()
    assert err.startswith("numerical failure: NonFinite") and err.count("\n") == 1, err


@pytest.mark.parametrize("eigs, code", [("1e300", 0), ("1e300,2", 3)])
def test_dk_probe_huge_eigenvalue_does_not_overflow(tmp_path, capsys, eigs, code):
    # The Hermitian check scales S by its largest entry, so a spectrum near
    # the float range raises no overflow warning: it runs, or its matrix is
    # singular in floating point.
    out = tmp_path / "dk.jsonl"
    argv = ["dk-probe", "--eigs", eigs, "--k", "0", "--count", "1", "--starts", "2", "--iters", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main([*argv, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err == "" if code == 0 else err.startswith("numerical failure: Singular") and err.count("\n") == 1


def test_dk_probe_spectrum_near_the_float_range_runs(tmp_path, capsys):
    # Condition 3 at 1e200: the singularity rule squares no eigenvalue.
    argv = ["dk-probe", "--eigs", "1e200,-3e200", "--k", "1", "--count", "1", "--starts", "2", "--iters", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main([*argv, "--out", str(tmp_path / "dk.jsonl")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "extra",
    [
        ["--suite", "finalcor", "--p", "1000"],
        ["--suite", "finalcor", "--p", "700"],
        ["--suite", "finalcor", "--p", "400"],
        ["--suite", "finalcor", "--p=1e300"],
        # |X|_700^700 is below the smallest normal float; this wrote a
        # passing record with the value 0.
        ["--suite", "finalcor", "--dim", "2", "--count", "1", "--seed", "154", "--cond", "1", "--p", "700"],
    ],
    # extra4 and extra5, the heinz and characterizations schatten:1000 runs,
    # no longer fail and are checked by
    # test_schatten_norms_whose_powers_overflow_are_kept; the other ids stay.
    ids=["extra0", "extra1", "extra2", "extra3", "extra6"],
)
def test_norm_beyond_float_range_exits_3_without_records(tmp_path, capsys, extra):
    # A finalcor p-th power that overflows, or a nonzero one that
    # underflows, is a numerical failure: one stderr line and no JSONL,
    # never a traceback, an overflow warning, an Infinity or a lost power in
    # a record, or a failing record.
    out = tmp_path / "v.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["verify", "--dim", "3", "--count", "3", "--seed", "0", *extra, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: NonFinite: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("suite", ["heinz", "characterizations"])
def test_schatten_norms_whose_powers_overflow_are_kept(tmp_path, suite):
    # Chain members above about 2.03 have 1000th powers beyond the float
    # range, which exited 3; the norms themselves are finite.  Each value
    # lies between its operator-norm value and n^(1/p) times it.
    p, dim = 1000.0, 3
    out = tmp_path / "v.jsonl"
    argv = ["verify", "--suite", suite, "--dim", str(dim), "--count", "3", "--seed", "0", "--no-timing"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main([*argv, "--norms", "op,schatten:1000", "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    op, large = records[0::2], records[1::2]
    assert {r["norm"] for r in op} == {"op"} and {r["norm"] for r in large} == {"schatten:1000"}
    assert max(v for r in op for v in r["values"]) > 10.0
    for a, b in zip(op, large):
        assert a["labels"] == b["labels"]
        for low, value in zip(a["values"], b["values"]):
            assert math.isfinite(value)
            assert low * (1.0 - 1e-12) <= value <= dim ** (1.0 / p) * low * (1.0 + 1e-12)


def test_small_schatten_norms_at_large_p_are_not_lost(tmp_path):
    # |AXB|_700 of this instance is about 0.29, whose 700th power underflows:
    # the plain sum of powers recorded 2|AXB| as 0.
    out = tmp_path / "agm.jsonl"
    argv = ["verify", "--suite", "agm", "--dim", "2", "--count", "1", "--seed", "92", "--cond", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main([*argv, "--norms", "schatten:700", "--no-timing", "--out", str(out)]) == 0
    (record,) = [json.loads(line) for line in out.read_text().splitlines()]
    assert min(record["values"]) > 0.0


def test_dk_probe_run(tmp_path):
    out = tmp_path / "dk.jsonl"
    argv = [
        "dk-probe",
        "--eigs",
        "1,2,-3",
        "--k",
        "0.5",
        "--count",
        "1",
        "--starts",
        "2",
        "--iters",
        "5",
        "--seed",
        "1",
        "--no-timing",
        "--out",
        str(out),
    ]
    assert cli.main(argv) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 1
    rec = records[0]
    assert rec["eigenvalues"] == [-3.0, 1.0, 2.0]
    assert rec["verdict"] in ("consistent", "violated", "spectrally-excluded")
    # Probe suites never fail the process, whatever the findings.
    assert rec["params"]["k"] == 0.5


def test_dk_probe_exit_zero_even_on_findings(tmp_path):
    # This spectrum fails the pairwise criterion; the probe documents the
    # finding but a finding is not a malfunction.
    out = tmp_path / "dk2.jsonl"
    argv = [
        "dk-probe",
        "--eigs",
        "1,-1",
        "--k",
        "1",
        "--count",
        "1",
        "--starts",
        "2",
        "--iters",
        "5",
        "--no-timing",
        "--out",
        str(out),
    ]
    assert cli.main(argv) == 0
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["verdict"] == "spectrally-excluded"
    assert rec["min_margin"] < 0


def test_main_exit_codes(tmp_path, capsys):
    assert cli.main(["verify"]) == 2
    assert "usage error" in capsys.readouterr().err
    assert cli.main(["verify", "--suite", "nope"]) == 2
    assert "invalid configuration" in capsys.readouterr().err
    missing_dir = tmp_path / "no_such_dir" / "out.jsonl"
    assert cli.main(_verify_argv(missing_dir)) == 4
    assert "io failure" in capsys.readouterr().err


def test_exit_one_on_failing_record(tmp_path, monkeypatch):
    # Exit-status mapping for theorem suites: any failing record flips the
    # process status to 1.  Collection is stubbed; honest failures are
    # exercised at module level.
    def fake_collect(config):
        return [
            {
                "suite": config.suite,
                "instance": 0,
                "norm": "op",
                "params": {},
                "pass": False,
                "margins": [-1.0],
                "wall_time": 0.0,
            }
        ]

    monkeypatch.setattr(cli, "_collect_records", fake_collect)
    out = tmp_path / "fail.jsonl"
    assert cli.main(_verify_argv(out)) == 1


def test_run_rejects_unvalidated_config(tmp_path):
    cfg = cli.parse_args(_verify_argv(tmp_path / "x.jsonl"))
    bad = cli.CampaignConfig(**{**cfg.__dict__, "dim": 40})
    with pytest.raises(ConfigInvalid):
        cli.run(bad)


_MULTI_NORMS = ("op", "tr", "fro", "kyfan:2", "schatten:3")


@pytest.mark.parametrize(
    "suite, extra",
    [
        ("heinz", ["--r", "0,0.25,0.75,1"]),
        ("zhan", ["--t=-1,2", "--r", "0.5,1,1.5"]),
        ("agm", []),
        ("cpr", []),
        ("cor23", ["--t=-1,0.5,2"]),
        ("cor24", ["--t=-1,0.5,2"]),
        ("t2", []),
        ("characterizations", []),
    ],
)
def test_multi_norm_records_equal_single_norm_runs(tmp_path, suite, extra):
    # Every theorem suite evaluates all norms of an instance at once; each
    # record must be the one a run with that norm alone writes.
    def run(norms, name):
        out = tmp_path / name
        argv = ["verify", "--suite", suite, "--dim", "3", "--count", "2", "--seed", "4", "--no-timing"]
        assert cli.main([*argv, *extra, "--norms", norms, "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        for rec in records:
            del rec["instance"]
        return records

    multi = run(",".join(_MULTI_NORMS), "all.jsonl")
    labels = [NormKind.parse(s).label for s in _MULTI_NORMS]
    # Within an instance norms run outermost, then forms (cpr and t2 have
    # several).
    forms = {"cpr": 3, "t2": 2}.get(suite, 1)
    per_instance = [label for label in labels for _ in range(forms)]
    assert [r["norm"] for r in multi] == per_instance * (len(multi) // len(per_instance))
    for k, (sel, label) in enumerate(zip(_MULTI_NORMS, labels)):
        assert [r for r in multi if r["norm"] == label] == run(sel, f"{k}.jsonl")


@pytest.mark.parametrize("suite", ["heinz", "cpr"])
def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch, suite):
    # --cond cannot reach the kernels' tolerances, so the sampler is made to
    # return a pair member that is not positive definite (heinz) and an S
    # that is singular (cpr) in floating point.
    sampler = {"heinz": "random_posdef", "cpr": "random_selfadjoint_invertible"}[suite]
    monkeypatch.setattr(matcore, sampler, lambda n, cond, rng: np.diag([1.0, 1.0, 0.0]).astype(complex))
    out = tmp_path / "out.jsonl"
    argv = ["verify", "--suite", suite, "--dim", "3", "--count", "1", "--out", str(out)]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert "Traceback" not in err


def _reference_summary(path, records):
    """The summary writer as it was: one json.dumps of the params per record,
    groups in order of first appearance."""
    groups, order = {}, []
    for r in sorted(records, key=lambda r: r.get("instance", 0)):
        key = (str(r.get("suite", "-")), str(r.get("norm", "-")), json.dumps(r.get("params", {}), sort_keys=True))
        if key not in groups:
            groups[key] = {"count": 0, "pass": 0, "fail": 0, "min_margin": None, "min_eig": None}
            order.append(key)
        grp = groups[key]
        grp["count"] += r.get("count", 1)
        grp["pass"] += r.get("pass_count", 1 if r.get("pass") else 0)
        grp["fail"] += r.get("fail_count", 0 if r.get("pass") else 1)
        mm = r.get("min_margin")
        if mm is None and r.get("margins"):
            mm = min(r["margins"])
        if mm is not None:
            grp["min_margin"] = mm if grp["min_margin"] is None else min(grp["min_margin"], mm)
        me = r.get("min_eig")
        if me is not None:
            grp["min_eig"] = me if grp["min_eig"] is None else min(grp["min_eig"], me)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["suite", "norm", "params", "count", "pass", "fail", "min_margin", "min_eig"])
        for key in order:
            g = groups[key]
            writer.writerow(
                [
                    key[0],
                    key[1],
                    key[2],
                    g["count"],
                    g["pass"],
                    g["fail"],
                    "" if g["min_margin"] is None else repr(float(g["min_margin"])),
                    "" if g["min_eig"] is None else repr(float(g["min_eig"])),
                ]
            )


def test_writers_match_per_record_json_dumps(tmp_path):
    shared = {"t": 0.5, "r": 1.0}
    records = [
        {"suite": "zhan", "norm": "op", "params": shared, "pass": True, "margins": [0.3, 0.2], "instance": 2},
        # Equal content in another key order is the same group.
        {"suite": "zhan", "norm": "op", "params": {"r": 1.0, "t": 0.5}, "pass": False, "margins": [-0.1],
         "min_margin": -0.1, "instance": 0},
        {"suite": "zhan", "norm": "op", "params": shared, "pass": True, "min_margin": 0.05, "instance": 1},
        # Equal values that encode apart are groups apart.
        {"suite": "zhan", "norm": "op", "params": {"r": 1, "t": 0.5}, "pass": True, "margins": [], "instance": 3},
        {"suite": "zhan", "norm": "op", "params": {"r": -0.0}, "pass": True, "margins": [1.0], "instance": 4},
        {"suite": "zhan", "norm": "op", "params": {"r": 0.0}, "pass": True, "margins": [2.0], "instance": 5},
        # No params field, no suite and no norm.
        {"pass": True, "margins": [0.5], "instance": 6},
        {"suite": "cpr", "norm": "tr", "params": {"form": "star", "note": "é\"\n"}, "pass": True, "instance": 7},
    ]
    for argv in (
        ["verify", "--suite", "dk", "--dim", "3", "--count", "2", "--k", "0.5,1", "--starts", "2", "--iters", "3"],
        ["conjecture", "--n", "3", "--count", "40", "--k", "0,2"],
    ):
        config = cli.parse_args([*argv, "--seed", "3", "--out", str(tmp_path / "probe.jsonl")])
        for rec in cli._collect_records(config):
            rec["instance"] = len(records)
            records.append(rec)
    out = tmp_path / "records.jsonl"
    cli._write_jsonl(str(out), records)
    assert out.read_text(encoding="utf-8").splitlines() == [json.dumps(r, sort_keys=True) for r in records]
    cli._write_summary(str(out) + ".summary.csv", records)
    _reference_summary(tmp_path / "reference.csv", records)
    summary = (tmp_path / "records.jsonl.summary.csv").read_bytes()
    assert summary == (tmp_path / "reference.csv").read_bytes()
    assert summary.count(b"\nzhan,op,") == 4
    # The report read-back gives every record its own params dict.
    assert cli.main(["report", "--out", str(out)]) == 0
    assert (tmp_path / "records.jsonl.summary.csv").read_bytes() == summary
    _reference_summary(tmp_path / "read_back.csv", cli._read_jsonl(str(out)))
    assert (tmp_path / "read_back.csv").read_bytes() == summary
    cli._write_jsonl(str(out), [])
    assert out.read_bytes() == b""


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("suite", [s for s in cli.SUITES if s not in cli.PROBE_SUITES])
def test_report_rewrites_the_summary_of_every_theorem_suite(tmp_path, monkeypatch, suite, dim):
    # verify folds its record blocks into the summary; report folds the dict
    # records it reads back.  Chunks of 5 split points across blocks.
    monkeypatch.setattr(cli, "THEOREM_CHUNK", 5)
    out = tmp_path / "run.jsonl"
    argv = ["verify", "--suite", suite, "--dim", str(dim), "--count", "3", "--seed", "6", "--norms", "op,tr,kyfan:2"]
    assert cli.main([*argv, "--no-timing", "--out", str(out)]) == 0
    summary = tmp_path / "run.jsonl.summary.csv"
    written = summary.read_bytes()
    summary.unlink()
    assert cli.main(["report", "--out", str(out)]) == 0
    assert summary.read_bytes() == written


def _block_dicts(blocks):
    """The records of blocks as dicts, built as the runner built them one
    record at a time."""
    records = []
    for block in blocks:
        rows = [stack.as_dicts() for _, _, stack in block.columns]
        for i, point in enumerate(block.points):
            for (params, label, _), fields in zip(block.columns, rows):
                rec = {"norm": label, "params": {**point, **params}, "wall_time": block.wall, **fields[i]}
                rec["min_margin"] = min(fields[i]["margins"])
                rec.update(suite=block.suite, instance=len(records))
                records.append(rec)
    return records


def test_block_writers_match_per_record_json_dumps(tmp_path):
    nan, inf = float("nan"), float("inf")
    two = (
        ("|X|", "|Y|"),
        np.array([[1.0, -0.0], [5e-324, 1e308], [nan, 1.0], [inf, -inf]]),
        np.array([[1.0], [-0.0], [nan], [-inf]]),
        np.array([[True], [False], [False], [True]]),
        ("ge",),
    )
    # Python's min takes the first of -0.0 and 0.0, and skips a NaN after
    # the first margin but not at it.
    three = (
        ("|X|_é", "2|X|", "ñ\"\n"),
        np.array([[0.5, 0.25, 0.0], [-0.0, 0.0, nan], [1e308, -inf, 5e-324], [2.0, 1.0, 0.5]]),
        np.array([[0.0, -0.0], [-0.0, 0.0], [nan, -1.0], [1.0, nan]]),
        np.array([[True, True], [True, False], [False, False], [True, True]]),
        ("ge", "eq"),
    )

    def columns(rows):
        return [
            ({"form": "a"}, "op", ChainStack(*two[:1], *(a[rows] for a in two[1:4]), two[4])),
            ({}, "schatten:3", ChainStack(*three[:1], *(a[rows] for a in three[1:4]), three[4])),
        ]

    # 1 against 1.0 and -0.0 against 0.0 are groups apart; the point
    # {"t": 1} is split across the two blocks, as across two chunks.
    p1, p2, p3, p4 = {"t": 1}, {"t": 1.0}, {"r": -0.0}, {"r": 0.0}
    blocks = [
        cli._Block("zhan", 0, 0.25, [p2, p3, p4, p1], columns([0, 1, 2, 3])),
        cli._Block("zhan", 8, 1e-7, [p1, p1, p3, p4], columns([3, 2, 1, 0])),
    ]
    records = _block_dicts(blocks)
    out = tmp_path / "blocks.jsonl"
    cli._write_jsonl(str(out), blocks)
    assert out.read_text(encoding="utf-8").splitlines() == [json.dumps(r, sort_keys=True) for r in records]
    cli._write_summary(str(out) + ".summary.csv", blocks)
    _reference_summary(tmp_path / "reference.csv", records)
    summary = (tmp_path / "blocks.jsonl.summary.csv").read_bytes()
    assert summary == (tmp_path / "reference.csv").read_bytes()
    assert summary.count(b"\nzhan,") == 8
    assert [block.passed() for block in blocks] == [False, False]
    assert cli._Block("zhan", 0, 0.0, [p1, p1], columns([0, 3])[:1]).passed()
