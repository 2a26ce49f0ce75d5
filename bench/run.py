"""Campaign benchmark for normlab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) through ``normlab.cli.main`` in
fresh child processes that import normlab from the checkout's ``src``.
Each untraced child times the campaign list ``REPEATS`` times.  Children
are started until ``--seconds`` have passed (at least ``MIN_ROUNDS``).  The
outputs of the first child are checked (against the stored reference for
the reference seed, else for zero failing theorem records) and every later
child must write byte-identical files.

``--trace 0`` reports the end-to-end metrics over the repetitions:

* ``setup_s`` (median): child spawn until timing can start (interpreter
  start, ``import normlab.cli``, one untimed warm-up campaign list at
  minimal size);
* ``wall_s`` (minimum): the campaign list, including JSONL/CSV output and
  read-back;
* ``instances_per_s`` (maximum): instances completed per second;
* ``peak_rss_mb`` (median): peak RSS of the child;
* ``failed_fraction`` (printed, and carried by ``failed``/``attempted``).

Times of the campaign list are reported best-of-N: the host's CPU slows by
up to 1.8x in stretches of seconds to a minute, so the median of a run moves
with how much of it fell in a slow stretch, while the fastest of dozens of
short repetitions does not.  Every metric's median, sample count and
highest percentile with ten samples beyond it are printed as well.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracer.py``: calls and self time per layer, SVD
matrix count, output bytes, the conjecture accept ratio, trace coverage and
trace overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
0 when the outputs check, 1 when they do not, 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import check
import tracer
from child import MARK
from workloads import FULL, MINIMAL, WORKLOADS, campaigns

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")

MIN_ROUNDS = 3
# Untimed set-up is paid once per child, so an untraced child times the
# campaign list several times; a traced child times it once.
REPEATS = 4
CHILD_TIMEOUT_S = 170.0
# BLAS is pinned to one thread: the matrices are 4x4 at most.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"setup_s": "s", "wall_s": "s", "instances_per_s": "1/s", "peak_rss_mb": "MB"}
# Metrics reported best-of-N; every other metric reports its median.
BEST_OF = {"wall_s": min, "instances_per_s": max, "trace.overhead": min}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for layer in list(tracer.LAYERS) + list(tracer.KERNELS):
        units[layer + ".calls"] = "count"
        units[layer + ".self_s"] = "s"
    units["linalg.svd.matrices"] = "count"
    units["cli.output_bytes"] = "bytes"
    units["conjecture.accept_ratio"] = "ratio"
    units["trace.coverage"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


class BenchError(RuntimeError):
    """The benchmark cannot run (no normlab in the checkout, a child died)."""


def _next_event(proc: subprocess.Popen) -> dict:
    for line in proc.stdout:
        if line.startswith(MARK):
            return json.loads(line[len(MARK):])
    proc.wait()
    raise BenchError(f"child exited with status {proc.returncode} without reporting")


def run_child(
    workload: str, size: str, seed: int, trace: bool, workdir: str, spans: str | None = None, repeats: int = 1
) -> dict:
    """Spawn one child, time its set-up, let it run the campaign list ``repeats`` times."""
    outdir = os.path.join(workdir, "out")
    warmdir = os.path.join(workdir, "warm")
    os.makedirs(outdir)
    os.makedirs(warmdir)
    spec = {
        "src": SRC,
        "warmup": [c.argv for c in campaigns(workload, MINIMAL, seed, warmdir)],
        "campaigns": [c.argv for c in campaigns(workload, size, seed, outdir)],
        "trace": trace,
        "spans": spans,
        "repeats": repeats,
    }
    env = dict(os.environ, **BLAS_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "child.py"), json.dumps(spec)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=workdir,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _next_event(proc)
        setup_s = time.perf_counter() - t0
        proc.stdin.write("go\n")
        proc.stdin.flush()
        done = _next_event(proc)
        proc.stdin.close()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"child exited with status {proc.returncode}")
    done["setup_s"] = setup_s
    done["outdir"] = outdir
    return done


def spread(values: list[float], stat=statistics.median) -> dict:
    """The reported ``value`` (``stat`` of the samples), the sample count, the
    median, and the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {
        "value": stat(ordered),
        "stat": stat.__name__,
        "n": n,
        "median": statistics.median(ordered),
        "pct": None,
        "pct_value": None,
        "values": values,
    }
    if n > 10:
        out["pct"] = int(100 * (n - 10) / n)
        out["pct_value"] = ordered[n - 11]
    return out


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "normlab")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode("utf-8") + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = FULL) -> dict:
    """Run repetitions for ``seconds`` and return metrics, checks and provenance."""
    if not os.path.isdir(os.path.join(SRC, "normlab")):
        raise BenchError(f"no normlab package under {SRC}")
    plan = campaigns(workload, size, seed, "")
    instances = sum(c.instances for c in plan)
    os.makedirs(RUNS_DIR, exist_ok=True)
    results_dir = os.path.join(RUNS_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    spans_path = os.path.join(results_dir, f"{workload}-spans.npz") if trace else None
    workdir = os.path.join(RUNS_DIR, f"work-{os.getpid()}")

    plain: list[dict] = []
    traced: list[dict] = []
    round_s: list[float] = []
    outcome = None
    first = None
    problems: list[str] = []
    start = time.perf_counter()
    try:
        # No round starts that would end past ``seconds``, once MIN_ROUNDS are in.
        while len(plain) < MIN_ROUNDS or time.perf_counter() - start + statistics.median(round_s) <= seconds:
            round_start = time.perf_counter()
            for traced_run in (False, True) if trace else (False,):
                shutil.rmtree(workdir, ignore_errors=True)
                if traced_run:
                    sample = run_child(workload, size, seed, True, workdir, spans=spans_path)
                else:
                    sample = run_child(workload, size, seed, False, workdir, repeats=REPEATS)
                sample["digest"], sample["output_bytes"] = check.fingerprint(sample["outdir"])
                if outcome is None:
                    outcome = check.inspect(sample["outdir"], plan, sample["exit_codes"][0])
                    first = sample
                codes_agree = all(c == first["exit_codes"][0] for c in sample["exit_codes"])
                if sample["digest"] != first["digest"] or not codes_agree:
                    kind = "traced" if traced_run else "repeated"
                    problems.append(f"{kind} run wrote different outputs from the first run")
                (traced if traced_run else plain).append(sample)
            round_s.append(time.perf_counter() - round_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems += outcome.problems
    if size == FULL and seed == check.REFERENCE_SEED:
        problems += check.compare(outcome.reduced, check.load_reference(workload))
        check_note = f"stored reference for seed {seed}"
    else:
        check_note = "zero failing theorem records"
    lists_run = sum(len(s["walls"]) for s in plain + traced)
    walls = [w for s in plain for w in s["walls"]]

    if trace:
        metrics = _per_layer(min(walls), traced)
        if any(s["trace"]["calls"] != traced[0]["trace"]["calls"] for s in traced):
            problems.append("call counts differ between traced runs")
    else:
        series = {
            "setup_s": [s["setup_s"] for s in plain],
            "wall_s": walls,
            "instances_per_s": [instances / w for w in walls],
            "peak_rss_mb": [s["peak_rss_mb"] for s in plain],
        }
        metrics = _stats(series, END_TO_END)
    return {
        "workload": workload,
        "size": size,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not problems,
        "problems": problems,
        "check": check_note,
        "attempted": outcome.attempted * lists_run,
        "failed": outcome.failed * lists_run,
        "instances": instances,
        "metrics": metrics,
        "absent": traced[0]["trace"]["absent"] if traced else [],
        "provenance": first["provenance"]
        | {
            "commit": _commit(),
            "src_sha256": _src_digest(),
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "seed": seed,
        },
    }


def _per_layer(best_plain_wall: float, traced: list[dict]) -> dict:
    units = per_layer_units()
    series: dict[str, list[float]] = {name: [] for name in units}
    for s in traced:
        tr = s["trace"]
        for layer, calls in tr["calls"].items():
            series[layer + ".calls"].append(calls)
            series[layer + ".self_s"].append(tr["self_s"][layer])
        series["linalg.svd.matrices"].append(tr["svd_matrices"])
        checks = tr["calls"]["conjecture.constraint_check"]
        series["conjecture.accept_ratio"].append(tr["calls"]["conjecture.sample"] / checks if checks else 0.0)
        series["trace.coverage"].append(tr["coverage"])
    series["cli.output_bytes"] = [s["output_bytes"] for s in traced]
    series["trace.overhead"] = [s["walls"][0] / best_plain_wall for s in traced]
    return _stats(series, units)


def _stats(series: dict[str, list[float]], units: dict[str, str]) -> dict:
    return {
        name: spread(vals, BEST_OF.get(name, statistics.median)) | {"unit": units[name]}
        for name, vals in series.items()
    }


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(result: dict) -> dict:
    """Print the human-readable report and return the final JSON object."""
    failed_fraction = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"workload {result['workload']} seed {result['seed']} trace {int(result['trace'])} size {result['size']}: "
          f"{result['instances']} instances per campaign list")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print(f"{'metric':38} {'value':>12} {'unit':6} {'stat':6} {'n':>3} {'median':>12} {'pct':>4} {'pct_value':>12}")
    for name, m in result["metrics"].items():
        print(
            f"{name:38} {_fmt(m['value']):>12} {m['unit']:6} {m['stat']:6} {m['n']:>3} "
            f"{_fmt(m['median']):>12} {_fmt(m['pct']):>4} {_fmt(m['pct_value']):>12}"
        )
    print(f"{'failed_fraction':38} {_fmt(failed_fraction):>12} {'ratio':6}")
    if result["absent"]:
        print("absent targets (reported as 0): " + ", ".join(result["absent"]))
    print(f"check ({result['check']}): " + ("ok" if result["correct"] else "; ".join(result["problems"])))
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="normlab campaign benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=check.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    path = os.path.join(RUNS_DIR, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    final = report(result)
    print(json.dumps(final))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
