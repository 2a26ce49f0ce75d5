"""Tests of the benchmark itself, at the workloads' minimal size.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import MINIMAL, WORKLOADS, campaigns  # noqa: E402

# Per-layer metrics the benchmark names as moving each workload; each must
# see calls on it.
MOVING = {
    "chain-quadrature": (
        "matcore.decomp", "linalg.svd", "linalg.eigh", "norms.norm_from_sv", "chains.chain",
        "heinz.gauss_legendre_nodes", "heinz.pair_basis", "heinz.power_pair_sv", "heinz.checks", "cpr.checks",
    ),
    "explicit-sandwich": (
        "cli.collect_records", "cli.write_jsonl", "cli.write_summary", "cli.read_jsonl", "matcore.rng",
        "matcore.sample", "matcore.validate", "matcore.inverse", "norms.norm", "norms.norm_from_sv",
        "chains.chain", "cpr.checks", "classes.characterization_check",
    ),
    "dk-descent": ("classes.dk_ratio_minimize", "linalg.svd"),
    "conjecture-search": (
        "cli.collect_records", "matcore.rng", "conjecture.sample", "conjecture.constraint_check",
        "conjecture.build_matrix", "conjecture.psd_check", "linalg.eigh",
    ),
}


@pytest.fixture
def workdir(tmp_path):
    yield str(tmp_path / "work")
    shutil.rmtree(tmp_path / "work", ignore_errors=True)


def _child(workload, trace, workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    done = run.run_child(workload, MINIMAL, 5, trace, workdir)
    done["digest"], done["output_bytes"] = check.fingerprint(done["outdir"])
    return done


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_outputs_are_byte_identical_and_counts_repeat(workload, workdir):
    plain = _child(workload, False, workdir)
    first = _child(workload, True, workdir)
    second = _child(workload, True, workdir)
    assert first["digest"] == plain["digest"] == second["digest"]
    assert first["output_bytes"] == plain["output_bytes"] > 0
    for key in ("calls", "svd_matrices"):
        assert first["trace"][key] == second["trace"][key]
    assert first["trace"]["absent"] == []


@pytest.fixture(scope="module")
def traced_results():
    return {w: run.measure(w, 5, 0, True, size=MINIMAL) for w in WORKLOADS}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_named_layers_are_exercised(workload, traced_results):
    result = traced_results[workload]
    assert result["correct"], result["problems"]
    metrics = result["metrics"]
    assert set(metrics) == set(run.per_layer_units())
    for layer in MOVING[workload]:
        assert metrics[layer + ".calls"]["median"] > 0, layer
    assert metrics["cli.output_bytes"]["median"] > 0
    assert metrics["trace.coverage"]["median"] > 0.5
    if workload == "conjecture-search":
        assert 0 < metrics["conjecture.accept_ratio"]["median"] <= 1


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload, capsys):
    result = run.measure(workload, 5, 0, False, size=MINIMAL)
    assert result["correct"], result["problems"]
    assert result["attempted"] > 0 and result["failed"] == 0
    final = run.report(result)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert set(final["metrics"]) == set(run.END_TO_END)
    for name, metric in final["metrics"].items():
        assert metric["value"] > 0, name
        assert metric["unit"] == run.END_TO_END[name]
    assert "failed_fraction" in capsys.readouterr().out


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_tracer_rebinds_every_import_site_and_restores():
    import normlab.cpr
    import normlab.heinz

    original = normlab.heinz.pair_basis
    with tracer.Tracer() as tr:
        assert normlab.cpr.pair_basis is normlab.heinz.pair_basis is not original
        a = normlab.matcore.random_posdef(3, 10.0, normlab.matcore.Rng(0))
        normlab.cpr.zhan_chain(a, a, a, normlab.cpr.ZhanParams(0.0, 0.75), normlab.norms.OP)
    assert normlab.cpr.pair_basis is normlab.heinz.pair_basis is original
    summary = tr.summary(1.0)
    assert summary["calls"]["heinz.pair_basis"] == 1
    assert summary["calls"]["cpr.checks"] == 1
    assert summary["calls"]["linalg.svd"] > 0
    assert all(v >= -1e-9 for v in summary["self_s"].values())


def test_missing_target_is_absent_not_an_error(monkeypatch):
    import normlab.cli  # noqa: F401  (loads every normlab module)

    monkeypatch.setitem(tracer.LAYERS, "heinz.power_pair_sv", ("heinz:power_pair_sv", "heinz:no_such_function"))
    with tracer.Tracer() as tr:
        pass
    assert tr.absent == ["heinz:no_such_function"]


def test_check_flags_value_and_verdict_changes():
    ref = {"a.jsonl": [{"suite": "s", "pass": True, "link_pass": [True], "values": [1.0, 2.0]}], "a.jsonl.violations": 3}
    same = json.loads(json.dumps(ref))
    same["a.jsonl"][0]["values"] = [1.0 + 5e-13, 2.0]
    assert check.compare(same, ref) == []
    drifted = json.loads(json.dumps(ref))
    drifted["a.jsonl"][0]["values"] = [1.0 + 5e-12, 2.0]
    assert check.compare(drifted, ref)
    flipped = json.loads(json.dumps(ref))
    flipped["a.jsonl"][0]["pass"] = False
    assert check.compare(flipped, ref)
    fewer = dict(ref, **{"a.jsonl.violations": 2})
    assert check.compare(fewer, ref)


def test_inspect_counts_failing_and_lost_records(tmp_path):
    plan = campaigns("chain-quadrature", MINIMAL, 0, "")
    heinz, zhan = plan
    with open(tmp_path / heinz.out, "w", encoding="utf-8") as fh:
        for i in range(heinz.records):
            fh.write(json.dumps({"suite": "heinz", "pass": i != 0, "values": [1.0]}) + "\n")
    outcome = check.inspect(str(tmp_path), plan, [1, None])
    assert outcome.attempted == heinz.records + zhan.records
    assert outcome.failed == 1 + zhan.records
    assert outcome.problems


def test_spread_reports_percentile_only_with_ten_samples_beyond():
    small = run.spread([3.0, 1.0, 2.0], min)
    assert (small["value"], small["stat"], small["n"], small["median"], small["pct"]) == (1.0, "min", 3, 2.0, None)
    stats = run.spread([float(i) for i in range(20)])
    assert stats["value"] == stats["median"] == 9.5
    assert stats["pct"] == 50 and stats["pct_value"] == 9.0
