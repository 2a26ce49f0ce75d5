"""One measured child process: ``python3 child.py '<spec json>'``.

The child imports ``normlab.cli`` from the ``src`` directory named in the
spec, runs the untimed warm-up campaigns, reports ``ready`` and waits for a
line on stdin.  It then runs the campaign list ``repeats`` times through
``normlab.cli.main``, each under its own timer (optionally traced), and
reports the wall times, exit codes, peak RSS and, when traced, the
per-layer summary.  Messages go to stdout as
single lines prefixed with ``MARK``.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback

MARK = "@@bench "


def _emit(event: dict) -> None:
    sys.stdout.write(MARK + json.dumps(event) + "\n")
    sys.stdout.flush()


def _provenance(normlab, numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no mode argument
        blas = {}
    return {
        "normlab_file": os.path.abspath(normlab.__file__),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _run_all(cli, campaigns) -> list:
    codes = []
    for argv in campaigns:
        # Boundary: a campaign that raises loses its records but must not hide
        # the outcome of the others.
        try:
            codes.append(cli.main(list(argv)))
        except Exception:
            traceback.print_exc()
            codes.append(None)
    return codes


def main(spec: dict) -> int:
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import normlab
    from normlab import cli

    if not os.path.abspath(normlab.__file__).startswith(src + os.sep):
        print(f"normlab imported from {normlab.__file__}, not from {src}", file=sys.stderr)
        return 3
    _run_all(cli, spec["warmup"])
    _emit({"event": "ready"})
    sys.stdin.readline()

    tracing = contextlib.nullcontext()
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracing = Tracer()
    walls, codes = [], []
    with tracing as tracer:
        for _ in range(spec["repeats"]):
            t0 = time.perf_counter()
            codes.append(_run_all(cli, spec["campaigns"]))
            walls.append(time.perf_counter() - t0)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import numpy

    done = {
        "event": "done",
        "walls": walls,
        "exit_codes": codes,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "provenance": _provenance(normlab, numpy),
    }
    if tracer is not None:
        done["trace"] = tracer.summary(sum(walls))
        if spec.get("spans"):
            numpy.savez(spec["spans"], layer_names=numpy.array(tracer.layers), **tracer.spans())
    _emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
