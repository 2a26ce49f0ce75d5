"""Regenerate the stored output references: ``python3 bench/make_reference.py [WORKLOAD ...]``.

Runs each workload once at full size with the reference seed and stores its
reduced outputs (verdicts and values) under ``bench/reference``.  Refuses to
store a reference with failing theorem records.  Regenerate only when a
change is meant to alter outputs, and say so in the change.
"""

from __future__ import annotations

import os
import shutil
import sys

import check
from run import RUNS_DIR, run_child
from workloads import FULL, WORKLOADS, campaigns


def main(names) -> int:
    workdir = os.path.join(RUNS_DIR, f"reference-{os.getpid()}")
    for name in names or WORKLOADS:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            done = run_child(name, FULL, check.REFERENCE_SEED, False, workdir)
            plan = campaigns(name, FULL, check.REFERENCE_SEED, "")
            outcome = check.inspect(done["outdir"], plan, done["exit_codes"][0])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if outcome.problems:
            print(f"{name}: not stored: {'; '.join(outcome.problems)}", file=sys.stderr)
            return 1
        check.save_reference(name, outcome.reduced)
        print(f"{name}: {outcome.attempted} records -> {check.reference_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
