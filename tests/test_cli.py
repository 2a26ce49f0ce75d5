"""Command-line campaigns: argument handling, config merge, record and
summary output, determinism, exit codes."""

import contextlib
import io
import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlab import classes, cli, matcore
from normlab.errors import ConfigInvalid, IoFailure, UsageError
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
    # None escapes as a traceback.
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
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
    # escapes as a traceback.
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        argv = ["dk-probe", "--eigs=" + ",".join(map(repr, eigs)), "--k=" + repr(k)]
        code = cli.main(argv + ["--count", "1", "--starts", "3", "--iters", "3", "--no-timing", "--out", tmp + "/dk.jsonl"])
    valid = all(np.isfinite(v) and v != 0.0 for v in eigs) and 0.0 <= k <= classes.DK_K_MAX
    assert code in ({0, 3} if valid else {2}), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


_NAN, _INF = float("nan"), float("inf")
# flag -> (values valid for every suite, values out of range for some or all
# suites, non-finite or malformed).
_VERIFY_FUZZ = {
    "--suite": (list(cli.SUITES), ["nope"]),
    "--dim": ([2, 3], [-1, 1, 13]),
    "--count": ([1, 2], [-1, 0]),
    "--cond": ([1.0, 10.0, 1e12], [_NAN, _INF, -_INF, -1.0, 0.5, 1e13, 1e300]),
    "--t": ([-1.0, 0.0, 0.5, 2.0], [_NAN, _INF, -_INF, 2.5, 1e300]),
    "--r": ([0.5, 1.0], [_NAN, -_INF, -1.0, 0.0, 2.0, 1e300]),
    "--k": ([0.0, 1.0, 2.0], [_NAN, _INF, -1.0, 2.5, 1e3, 1e12, 1e308]),
    "--p": ([1.0, 3.0], [_NAN, _INF, -1.0, 0.5, 1e300]),
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
    # traceback, and a configuration of valid values always runs.  At most
    # two flags take a bad value; the ratio probe runs on a tiny budget.
    argv = ["verify"]
    for flag, (valid, invalid) in _VERIFY_FUZZ.items():
        value = data.draw(st.sampled_from(invalid if flag in bad else valid), label=flag)
        if flag in _LIST_FLAGS:
            value = ",".join(map(repr, [value, *data.draw(st.lists(st.sampled_from(valid), max_size=1))]))
        argv.append(f"{flag}={value}")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--starts", "2", "--iters", "2", "--no-timing", "--out", tmp + "/v.jsonl"])
    assert code in ({0, 1, 2, 3, 4} if bad else {0, 1, 3}), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


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
