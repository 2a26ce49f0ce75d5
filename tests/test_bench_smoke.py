"""The benchmark's campaign lists at their minimal size, run through
``cli.main`` and checked as the benchmark checks them, and the tracer's
layer targets that the output path must keep.

``bench/`` is imported read-only, for its workload lists
(``workloads.campaigns``), its output check (``check.inspect``) and its
tracer's layer table (``tracer.LAYERS``), so a change that breaks a
benchmarked campaign or blinds a traced layer fails here, in tier-1.
"""

import sys
from pathlib import Path

import pytest

from normlab import cli

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
sys.path.insert(0, BENCH)
try:
    import check
    import tracer
    import workloads
finally:
    sys.path.remove(BENCH)


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_minimal_campaign_list_passes_the_benchmark_check(tmp_path, workload, seed):
    campaigns = workloads.campaigns(workload, workloads.MINIMAL, seed, str(tmp_path))
    codes = [cli.main(list(campaign.argv)) for campaign in campaigns]
    outcome = check.inspect(str(tmp_path), campaigns, codes)
    assert outcome.problems == []
    assert outcome.failed == 0 and outcome.attempted == sum(c.records for c in campaigns) > 0
    for campaign in campaigns:
        if campaign.records:
            assert len(outcome.reduced[campaign.out]) == campaign.records


def test_tracer_finds_the_runner_layers():
    # A target the tracer cannot find is reported absent and its layer
    # reads zero, so a renamed writer or check would silently blind it.
    # The conjecture search's layers include the sampler's call of
    # constraint_check through the conjecture module's own binding.
    targets = [t for layer in tracer.LAYERS.values() for t in layer if t.startswith(("cli:", "conjecture:"))]
    targets += ["classes:characterization_check", "matcore:require_hermitian"]
    traced = tracer.Tracer().install()
    try:
        absent = set(traced.absent)
    finally:
        traced.uninstall()
    assert len(targets) == 11 and absent.isdisjoint(targets)
